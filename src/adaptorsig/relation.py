"""The hard relation: witnesses alpha (mod C) against oriented statements.

A witness is a residue alpha mod C, naming the degree-C isogeny with kernel
<P + [alpha]Q> on the base curve; the statement is its codomain curve plus
the transported orientation.  gen_r and verify_relation build the isogeny
from alpha: at desk scale membership is decided by direct recomputation.
"""

from dataclasses import dataclass

from .curve import Curve, isomorphisms, twist_point
from .errors import ProtocolError
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


def verify_relation(w: Witness, s: Statement, ps: ParamSet, reasons=None) -> bool:
    """Recompute the quotient from alpha and compare against the statement.

    The recomputed curve must be isomorphic to the statement curve and one
    single isomorphism must carry every transported orientation generator
    to the stated generator literally (points, not just subgroups).  The tag
    of a failed check is appended to `reasons` when one is given.
    """
    fail = reasons.append if reasons is not None else (lambda tag: None)
    try:
        chain = witness_chain(ps, w.alpha)
        img = orientation_image(chain, ps.orientation)
    except ProtocolError:
        fail("relation:witness")
        return False
    if s.oriented_image.primes != ps.primes:
        fail("relation:primes")
        return False
    for u in isomorphisms(chain.codomain, s.ew):
        if all(
            twist_point(G1, u) == H1 and twist_point(G2, u) == H2
            for (_, G1, G2), (_, H1, H2) in zip(img.pairs, s.oriented_image.pairs)
        ):
            return True
    fail("relation:image")
    return False
