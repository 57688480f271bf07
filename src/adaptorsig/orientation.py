"""Artificial orientations: per-prime generator pairs and their transport.

An orientation on E is a pair of order-B subgroups with trivial
intersection, stored prime by prime as generator pairs (G1_i, G2_i) of
order ell_i.  Keeping the split per prime is what the pre-signing step
needs: a choice vector picks one generator per prime.
"""

import math

from .curve import Curve, Point, _in_cyclic, _mul, canonical_torsion_basis
from .errors import LengthMismatch, NonCoprimeDegree, TorsionUnavailable
from .isogeny import IsogenyChain


class Orientation:
    """Per-prime pairs [(ell_i, G1_i, G2_i)] on a stated curve."""

    __slots__ = ("curve", "pairs")

    def __init__(self, curve: Curve, pairs):
        self.curve = curve
        self.pairs = list(pairs)

    @property
    def primes(self):
        return tuple(ell for ell, _, _ in self.pairs)

    def order(self) -> int:
        return math.prod(self.primes)

    def __eq__(self, other):
        return (
            isinstance(other, Orientation)
            and self.curve == other.curve
            and self.pairs == other.pairs
        )

    def __repr__(self):
        return f"Orientation(primes={self.primes})"


def sample_orientation(E: Curve, primes, group_order: int, rng) -> Orientation:
    """Random orientation on E: per prime, two independent order-ell points.

    Independence is certified by a scalar scan over the tiny cyclic group,
    so the G1/G2 components intersect trivially by construction.
    """
    pairs = []
    for ell in primes:
        if group_order % ell != 0:
            raise TorsionUnavailable(f"no rational {ell}-torsion")
        U, V = canonical_torsion_basis(E, ell, group_order)
        G1 = _random_order_ell_point(E, U, V, ell, rng)
        while True:
            G2 = _random_order_ell_point(E, U, V, ell, rng)
            if not _in_cyclic(E, G2, G1, ell):
                break
        pairs.append((ell, G1, G2))
    return Orientation(E, pairs)


def _random_order_ell_point(E, U, V, ell, rng) -> Point:
    while True:
        u, v = rng.randrange(ell), rng.randrange(ell)
        if u == 0 and v == 0:
            continue
        return E.add(_mul(E, u, U), _mul(E, v, V))


def oriented_kernel(o: Orientation, bits):
    """Kernel generators picked by a choice vector in {1, 2}^t."""
    if len(bits) != len(o.pairs):
        raise LengthMismatch("choice vector length differs from orientation")
    gens = []
    for b, (ell, G1, G2) in zip(bits, o.pairs):
        if b not in (1, 2):
            raise LengthMismatch("choice vector entries must be 1 or 2")
        gens.append(G1 if b == 1 else G2)
    return gens


def orientation_image(phi: IsogenyChain, o: Orientation) -> Orientation:
    """Transport the orientation along phi; degree must be coprime to B."""
    if phi.domain != o.curve:
        raise TorsionUnavailable("orientation lives on a different curve")
    B = o.order()
    if math.gcd(phi.degree, B) != 1:
        raise NonCoprimeDegree("transport needs gcd(deg, B) = 1")
    pairs = []
    for ell, G1, G2 in o.pairs:
        pairs.append((ell, phi.evaluate(G1), phi.evaluate(G2)))
    return Orientation(phi.codomain, pairs)


def orientation_valid(o: Orientation, group_order: int) -> bool:
    """Re-check generator orders and pairwise trivial intersections."""
    E = o.curve
    for ell, G1, G2 in o.pairs:
        if ell < 2 or group_order % ell != 0:
            return False
        for G in (G1, G2):
            if not E.on_curve(G) or G.is_inf or not _mul(E, ell, G).is_inf:
                return False
        if _in_cyclic(E, G2, G1, ell):
            return False
    return True
