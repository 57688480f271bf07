"""The hard relation: witnesses alpha (mod C) against oriented statements.

A witness is a residue alpha mod C, naming the degree-C isogeny with kernel
<P + [alpha]Q> on the base curve; the statement is its codomain curve plus
the transported orientation.  gen_r and relation_rejection build the isogeny
from alpha: at desk scale membership is decided by direct recomputation.
"""

from dataclasses import dataclass

from .curve import Curve, isomorphisms, twist_point
from .errors import ProtocolError, report
from .isogeny import IsogenyChain, isogeny_from_kernel
from .orientation import Orientation, orientation_image
from .params import ParamSet


@dataclass
class Witness:
    alpha: int


@dataclass
class Statement:
    ew: Curve
    oriented_image: Orientation


def witness_chain(ps: ParamSet, alpha: int) -> IsogenyChain:
    P, Q = ps.pq
    E0 = ps.e0
    K = E0.add(P, E0.mul(alpha % ps.C, Q))
    return isogeny_from_kernel(E0, [K], ps.C)


def gen_r(ps: ParamSet, rng):
    """Sample (witness, statement) with alpha uniform in Z/CZ."""
    alpha = rng.randrange(ps.C)
    w = witness_chain(ps, alpha)
    img = orientation_image(w, ps.orientation)
    return Witness(alpha), Statement(w.codomain, img)


def relation_rejection(w: Witness, s: Statement, ps: ParamSet):
    """Reason tag of the first failing check, or None: the quotient is
    recomputed from alpha, and it must be isomorphic to the statement curve
    by one single isomorphism that carries every transported orientation
    generator to the stated generator literally (points, not just
    subgroups)."""
    try:
        chain = witness_chain(ps, w.alpha)
        img = orientation_image(chain, ps.orientation)
    except ProtocolError:
        return "relation:witness"
    if s.oriented_image.primes != ps.primes:
        return "relation:primes"
    for u in isomorphisms(chain.codomain, s.ew):
        if all(
            twist_point(G1, u) == H1 and twist_point(G2, u) == H2
            for (_, G1, G2), (_, H1, H2) in zip(img.pairs, s.oriented_image.pairs)
        ):
            return None
    return "relation:image"


def verify_relation(w: Witness, s: Statement, ps: ParamSet, reasons=None) -> bool:
    """Whether `relation_rejection` passes; its tag is reported to `reasons`."""
    return report(relation_rejection(w, s, ps), reasons)
