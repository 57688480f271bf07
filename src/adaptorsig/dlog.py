"""Extraction and verification oracles.

Two tools stand in for the heavy machinery a full-scale verifier would use:

* decompose_2d writes a torsion point over a basis by Pohlig-Hellman on the
  points themselves: every prime here is at most 7, so each prime's digits
  are read from a table of the ell^2 points of E[ell]; evaluate_rep writes
  all its points over one set of tables (_decompose);
* find_isogeny finds a chain of a given degree matching a set of torsion
  images by a meet-in-the-middle search over kernel-subgroup candidates;
  isogeny_exists is its verdict, an existence certificate for strict
  verification, which hands it the challenge the response must end with;
  recover_isogeny adds the precondition that makes the chain unique,
  4*degree < order^2 and gcd(degree, order) = 1, for extraction.

Candidates are enumerated per prime power ell^e and combined
multiplicatively: a subgroup of order ell^e splits uniquely into b
multiplication-by-ell blocks (realized as a step followed by its exact
dual) and a cyclic part walked without backtracking, giving the closed
candidate count sum(ell^i, i=0..e) per prime power.  The search meets in
the middle on j-invariants (the claw search of Jao and De Feo, PQCrypto
2011, used here as a verifier); find_isogeny says how its halves are
walked.  A challenge phi handed to the verdict moves the backward half to
phi's domain and ends the join with phi's own steps (_match), so that only
the part before phi is searched.
"""

import itertools
import logging
import math
import time
from dataclasses import dataclass

from .curve import (
    Curve,
    Point,
    _chord,
    _coords,
    _j_pair,
    _joint,
    _outside,
    _point,
    _scale,
    _span,
    factorize,
    isomorphisms,
    small_torsion_basis,
    twist_point,
)
from .errors import AmbiguityBound, NotABasis, NotFound, OrderMismatch
from .isogeny import (
    EfficientRep,
    IsogenyChain,
    Step,
    _dual_kernel,
    _subgroup_gens,
    _velu,
    dual_step,
)

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class BasisDecomposition:
    x: int
    y: int


def decompose_2d(E: Curve, U: Point, V: Point, T: Point, N: int) -> BasisDecomposition:
    """(x, y) with T = [x]U + [y]V, for (U, V) a basis of E[N], N > 1: the
    one-point case of _decompose."""
    ((x, y),) = _decompose(E, U, V, [T], N)
    return BasisDecomposition(x, y)


def _decompose(E: Curve, U: Point, V: Point, Ts, N: int) -> list:
    """(x, y) with T = [x]U + [y]V for each T of Ts, for (U, V) a basis of
    E[N], N > 1.

    Pohlig-Hellman on the points: for each ell^e || N, U and V are
    projected by [N/ell^e] and laddered by ell (U1, V1 their last rungs),
    the ell^2 points [a]U1 + [b]V1 of E[ell] are tabulated (a collision
    means the basis is dependent at ell), and the base-ell digits of each x
    and y are read from the low end by looking up [ell^(e-1-k)] times what
    is left of T's projection.  The ladders and tables are built once for
    all of Ts.  Every prime here is at most 7, so a table has at most 49
    points.  As [ell][N/ell]P = [N]P, the first prime's projections show
    whether N kills U, V (times ell) and each T (its first lookup), before
    any NotABasis; a collision reports the first T.  Each result is checked
    by one joint ladder (_joint).  The points are checked on entry, then
    the work runs on int coordinates.
    """
    for P in (U, V, *Ts):
        E.check(P)
    p, a0, a1 = E.p, E.a.c0, E.a.c1
    U, V, Ts = _coords(U), _coords(V), [_coords(T) for T in Ts]
    unkilled = f"point not killed by {N}"
    xs, ys = [0] * len(Ts), [0] * len(Ts)
    M = 1
    for ell, e in factorize(N).items():
        m = ell**e
        # [ell^k] times the projections of U and V, for k = 0 .. e-1
        Us, Vs = [_scale(E, N // m, U)], [_scale(E, N // m, V)]
        for _ in range(e - 1):
            Us.append(_scale(E, ell, Us[-1]))
            Vs.append(_scale(E, ell, Vs[-1]))
        if M == 1 and not (_scale(E, ell, Us[-1]) is None and _scale(E, ell, Vs[-1]) is None):
            raise OrderMismatch(unkilled)
        table = {}
        row = None
        for a in range(ell):
            if a:
                row = _chord(p, a0, a1, row, Us[-1])[0]
            R = row
            for b in range(ell):
                if b:
                    R = _chord(p, a0, a1, R, Vs[-1])[0]
                if R in table:
                    if _scale(E, N, Ts[0]) is not None:
                        raise OrderMismatch(unkilled)
                    raise NotABasis(f"basis is dependent at {ell}")
                table[R] = (a, b)
        inv = pow(M, -1, m)
        for i, T in enumerate(Ts):
            rest = _scale(E, N // m, T)
            xm = ym = 0
            for k in range(e):
                digits = table.get(_scale(E, m // ell ** (k + 1), rest))
                if digits is None:  # a full table is E[ell], so [N]T != O
                    raise OrderMismatch(unkilled)
                a, b = digits
                S = _chord(p, a0, a1, _scale(E, -a, Us[k]), _scale(E, -b, Vs[k]))[0]
                rest = _chord(p, a0, a1, rest, S)[0]
                xm += a * ell**k
                ym += b * ell**k
            # CRT fold
            xs[i] += M * ((xm - xs[i]) * inv % m)
            ys[i] += M * ((ym - ys[i]) * inv % m)
        M *= m
    for x, y, T in zip(xs, ys, Ts):
        if _joint(E, x, U, y, V) != T:
            raise NotABasis("reconstruction failed")  # pragma: no cover
    return list(zip(xs, ys))


def evaluate_rep(rep: EfficientRep, points) -> tuple:
    """The represented isogeny at each point of E[order] in points, from the
    basis images: the points are decomposed together (_decompose), then the
    images are checked on the codomain, and each result is one joint ladder
    over them."""
    coeffs = _decompose(rep.domain, *rep.basis, points, rep.order)
    E2 = rep.codomain
    for T in rep.images:
        E2.check(T)
    T1, T2 = (_coords(T) for T in rep.images)
    return tuple(_point(E2.p, _joint(E2, x, T1, y, T2)) for x, y in coeffs)


# ---------------------------------------------------------------------------
# kernel-candidate enumeration
# ---------------------------------------------------------------------------


def _ell_block(E: Curve, ell: int):
    """Two steps composing to exact multiplication by ell on E."""
    s0 = Step(E, small_torsion_basis(E, ell, E.p + 1)[0], ell)
    return [s0, dual_step(s0)]


def _pp_candidates(E, ell, e, steps, loose):
    """Yield a lazy candidate (see _walks) for every order-ell^e kernel
    subgroup of E, each exactly once, after the given steps."""
    for b in range(e // 2 + 1):
        prefix = steps
        for _ in range(b):
            prefix = prefix + _ell_block(E, ell)
        yield from _walks(E, ell, e - 2 * b, prefix, None, loose)


def _walks(E, ell, r, steps, back_gen, loose):
    """The cyclic walks of r steps of degree ell that do not backtrack into
    back_gen's subgroup, back_gen in int coordinates.

    Each walk yields a lazy candidate (steps, node, leaf, loose).  Its
    last step (r = 1) is a lazy leaf: leaf is (G, ell), the step's kernel
    generator on node, and steps stop at node, so a leaf builds no Step or
    codomain until _finish does.  A walk of r = 0 yields leaf None.  No
    walk carries basis images: whoever reads a candidate at a point pushes
    the basis through its steps.

    The root (back_gen None) lists its ell + 1 subgroups by their canonical
    generators.  A node reached by a step holds its backtrack generator B,
    the pushed dual kernel, which is half of a basis of E[ell]: with P the
    first scan point outside <B> (_outside), <P + [k]B> for k < ell are
    exactly the ell subgroups that do not backtrack, so the node computes
    no canonical basis.  A child's B is the image of its parent's B (at the
    root, _dual_kernel of the step).  A step taken from such a node adds
    (its index in the candidate's steps, the leaf's included, B) to loose:
    its kernel generator is not the canonical one, and its image of B
    generates its dual's kernel (_hat).
    """
    if r == 0:
        yield steps, E, None, loose
        return
    if back_gen is None:
        gens = _subgroup_gens(E, ell)
    else:
        back = _span(E, back_gen, ell)
        P = _outside(E, back, ell)
        gens = [_chord(E.p, E.a.c0, E.a.c1, P, X)[0] for X in back]
        loose += ((len(steps), back_gen),)
    for G in gens:
        if r == 1:
            yield steps, E, (G, ell), loose
            continue
        s = Step(E, G, ell)
        B = _dual_kernel(s) if back_gen is None else s.image(back_gen)
        yield from _walks(s.codomain, ell, r - 1, steps + [s], B, loose)


def _finish(cand):
    """The candidate (steps, codomain) of a lazy one: its leaf step built."""
    steps, node, leaf, _ = cand
    if leaf is None:
        return steps, node
    s = Step(node, *leaf)
    return steps + [s], s.codomain


def _leaf_j(cand):
    """The j-invariant of a lazy candidate's codomain, as an int pair: the
    node's own, or, for a leaf, that of _velu's curve, with _velu's checks
    and no Step, twist, Curve or Fp2."""
    _, node, leaf, _ = cand
    if leaf is None:
        return _j_pair(node.p, *node.a.lex_key(), *node.b.lex_key())
    return _j_pair(node.p, *_velu(node, *leaf)[1])


def _hat(steps, loose) -> list:
    """The steps of the exact dual of the chain of steps, as the join tests
    it: a loose step's dual kernel is generated by its image of its node's
    B (dual_step's back), and an [ell] block (_ell_block), the one kind of
    search step with a twist, is its own dual, so no canonical basis is
    computed below a root.  The map is dual()'s; only those kernel
    generators differ."""
    back = dict(loose)
    out = []
    i = len(steps)
    while i:
        i -= 1
        if steps[i]._u is not None:  # the exact dual closing an [ell] block
            out += steps[i - 1 : i + 1]
            i -= 1
        else:
            out.append(dual_step(steps[i], back.get(i)))
    return out


def count_kernel_candidates(degree: int) -> int:
    """Closed-form candidate count: prod over ell^e || degree of sum ell^i."""
    n = 1
    for ell, e in factorize(degree).items():
        n *= sum(ell**i for i in range(e + 1))
    return n


def _candidates(E: Curve, degree: int):
    """Every order-`degree` kernel subgroup of E, each exactly once, as a
    lazy candidate (steps, node, leaf, loose) out of E as _walks yields
    them, prime powers in ascending order.  Only the last prime power's
    leaves stay lazy; an earlier prime's walk goes on from its leaf's
    codomain, so that leaf is finished."""
    fac = sorted(factorize(degree).items())

    def rec(cur, idx, steps, loose):
        ell, e = fac[idx]
        cands = _pp_candidates(cur, ell, e, steps, loose)
        if idx + 1 == len(fac):
            yield from cands
            return
        for cand in cands:
            steps, node = _finish(cand)
            yield from rec(node, idx + 1, steps, cand[-1])

    if not fac:
        yield [], E, None, ()
        return
    yield from rec(E, 0, [], ())


def _split(degree: int, fixed: int = 1):
    """(d1, d2) with degree = d1*d2, gcd(d1, d2) = 1, fixed | d2 and
    d1*fixed > 1.

    The split builds the fewest halves, count(d1) + count(d2/fixed), the
    backward half being the degree-(d2/fixed) kernels out of the domain of
    a given challenge of degree fixed (_match); ties go to the fewest
    candidates over both halves, then to the d1 with fewer candidates.
    With fixed 1 a prime power gives (degree, 1).
    """
    parts = [ell**e for ell, e in factorize(degree).items()]
    splits = [
        (math.prod(sub), degree // math.prod(sub))
        for r in range(len(parts) + 1)
        for sub in itertools.combinations(parts, r)
    ]
    count = count_kernel_candidates
    return min(
        (s for s in splits if s[1] % fixed == 0 and s[0] * fixed > 1),
        key=lambda s: (
            count(s[0]) + count(s[1] // fixed),
            count(s[0]) + count(s[1]),
            count(s[0]),
        ),
    )


def _match(rep: EfficientRep, phi: IsogenyChain = None):
    """The search up to its first verified match: (forward steps, u, join
    steps), where the forward steps, the last retwisted by u, then the join
    steps map rep.basis to rep.images.  The join is the exact dual of the
    backward chain (_hat) followed by phi (the identity of rep.codomain
    when None), so it ends on rep.codomain.  For degree 1 it is ([], None,
    []) when the images are the identity's.  Writes the log line and
    raises NotFound when no candidate matches."""
    d = rep.degree
    E, E2 = rep.domain, rep.codomain
    T1, T2 = rep.images
    U, V = rep.basis
    if d == 1:
        if E == E2 and U == T1 and V == T2:
            return [], None, []
        raise NotFound("images are not the identity's")
    if phi is None:
        phi = IsogenyChain.identity(E2)
    if phi.codomain != E2 or d % phi.degree:
        raise NotFound(f"no degree-{d} isogeny ends with the given one")

    t0 = time.perf_counter()
    total = count_kernel_candidates(d)
    d1, d2 = _split(d, phi.degree)
    back = {}  # j -> [(index, lazy candidate)] of the backward half
    for i, cand in enumerate(_candidates(phi.domain, d2 // phi.degree)):
        back.setdefault(_leaf_j(cand), []).append((i, cand))
    n = [0, i + 1]  # forward halves tried, backward halves built

    def pairs():  # each j-matching (forward, backward) pair of (index, lazy candidate) once
        for cand in _candidates(E, d1):
            n[0] += 1
            yield from (((n[0], cand), b) for b in back.get(_leaf_j(cand), ()))

    fins, joins = {}, {}  # index -> forward chain, images of rep.basis / join
    for (f, fcand), (b, bcand) in pairs():
        if f not in fins:
            chain = IsogenyChain(E, _finish(fcand)[0])
            fins[f] = chain, chain.evaluate(U), chain.evaluate(V)
        if b not in joins:
            bsteps, mid = _finish(bcand)
            joins[b] = IsogenyChain(mid, _hat(bsteps, bcand[-1]) + phi.steps)
        chain, imgU, imgV = fins[f]
        join = joins[b]
        for u in isomorphisms(chain.codomain, join.domain):
            if join.evaluate(twist_point(imgU, u)) != T1:
                continue
            if join.evaluate(twist_point(imgV, u)) != T2:
                continue
            logger.debug(
                "recovery of degree %d: matched after %d of %d candidates"
                " (%d halves built), %.3fs",
                d,
                n[0] * count_kernel_candidates(d2),
                total,
                sum(n),
                time.perf_counter() - t0,
            )
            return chain.steps, u, join.steps
    logger.debug(
        "recovery of degree %d: exhausted %d candidates (%d halves built), %.3fs",
        d,
        total,
        sum(n),
        time.perf_counter() - t0,
    )
    raise NotFound(f"no degree-{d} isogeny matches the images ({total} candidates)")


def isogeny_exists(rep: EfficientRep, phi: IsogenyChain = None) -> bool:
    """Whether an isogeny of rep.degree maps rep.basis to rep.images, and,
    given phi, one that ends with phi: find_isogeny's search (_match),
    read as a verdict.  Without phi the verdict is whether
    find_isogeny(rep) returns a chain, and the log line is the same.

    Handed the challenge walk phi of degree D, the search meets tau in
    phi o tau: the backward half is the degree-(d2/D) kernels out of
    phi.domain, and the join composes phi after a matched candidate's exact
    dual instead of searching for it.  The match test is that of the
    search without phi: the whole basis must reach the images.  At T0, T1
    and T2 a plain response or a pre-signature (degree 3^c*5^2*7^2) builds
    31 backward and at most 57 forward halves, honest or forged; an adapted
    one (3^(2c)*5^2*7^2) builds at most 181, 460 and 1 297.  A response of
    degree D has tau an isomorphism: its backward half is pk alone."""
    try:
        _match(rep, phi)
    except NotFound:
        return False
    return True


def find_isogeny(rep: EfficientRep) -> IsogenyChain:
    """A chain of rep.degree from rep.domain mapping rep.basis to rep.images.

    An existence certificate: the search stops at the first match and needs
    no uniqueness, since any such isogeny is what the representation claims.
    It meets in the middle over kernel-subgroup candidates, with the degree
    split as d = d1*d2 into coprime halves (_split).  The backward half,
    the degree-d2 isogenies out of rep.codomain, is indexed by the
    j-invariant of its codomains; the forward half walks the degree-d1
    candidates from rep.domain.  A degree-d isogeny is phi2 o phi1 with ker
    phi1 the d1-part of its kernel, and the dual of phi2 is, up to an
    isomorphism u, one backward candidate beta.  So the join tries every
    j-match and every u: rep.basis goes through the forward steps, and its
    twisted images through the exact dual of beta (_hat) must equal
    rep.images.

    Ruling a forged plain response out builds 181, 460 and 1 297 halves at
    T0, T1 and T2, for 7 068, 22 971 and 70 680 candidates; a strict check,
    handed the challenge, builds fewer (isogeny_exists).  The log line counts tried
    forward halves times all degree-d2 kernels, of the full walk's
    candidates, and the halves built.

    A half costs the walk to its last node and the j-invariant of its leaf's
    codomain (_leaf_j).  Leaves are built, the basis pushed and backward
    chains dualized only on a j-match, each once; a node below a walk's
    root lists its subgroups from its backtrack generator and one scan
    point (_walks).  That search, up to the match, is _match, which
    isogeny_exists shares.  The chain returned is the one the match
    verified: the forward steps, the last retwisted by u, then the join's
    steps, the exact dual of the backward chain; it ends on rep.codomain
    with rep.images exactly.  Raises NotFound when no candidate matches (a
    forgery signal).
    """
    steps, u, join = _match(rep)
    if rep.degree == 1:
        return IsogenyChain.identity(rep.domain)
    return IsogenyChain(rep.domain, steps[:-1] + [steps[-1].retwist(u)] + join)


def recover_isogeny(rep: EfficientRep) -> IsogenyChain:
    """The unique chain of rep.degree matching rep.images: find_isogeny
    under the precondition that pins it, else AmbiguityBound."""
    d, N = rep.degree, rep.order
    if 4 * d >= N * N:
        raise AmbiguityBound(f"4*{d} >= {N}^2: images do not pin the isogeny")
    if math.gcd(d, N) != 1:
        raise AmbiguityBound(f"gcd({d}, {N}) != 1: torsion images may degenerate")
    return find_isogeny(rep)
