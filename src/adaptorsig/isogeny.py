"""Separable isogenies as chains of prime-degree Vélu steps.

A chain keeps, per step, the prime, an explicit kernel generator on the
step's domain, and a twist factor u that fixes the codomain model.  The
twist is what lets a dual step land exactly on the original curve, so that
dual(phi) composed with phi is literally multiplication by the degree on
rational points rather than "up to isomorphism".

The module is also the one home of the cyclic-kernel index (mu,
cyclic_parts, cyclic_kernel, each on a list of indices); walk_cyclic_tree
walks such a list.  A dual takes its kernels from torsion carried along
the chain, and scans a basis only where it holds none (dual).
"""

import functools
import math
from dataclasses import dataclass

from .curve import (
    Curve,
    Point,
    _chord,
    _coords,
    _on_curve,
    _order,
    _point,
    _scale,
    canonical_torsion_basis,
    factorize,
    point_order,
    small_torsion_basis,
    twist_curve,
    weil_pairing,
)
from .errors import (
    BadKernel,
    DomainMismatch,
    IndexOutOfRange,
    NonCoprimeDegree,
    NoPreimage,
    OrderMismatch,
)
from .field import Fp2, batch_inv, inv_pair


def _velu(domain: Curve, K, ell: int):
    """Vélu's data for the degree-ell step out of domain with kernel <K>, K
    in int coordinates: (half, (a0, a1, b0, b1)) with the codomain's a' and
    b' as unreduced int pairs.  Raises BadKernel unless K is a finite point
    of the domain of order ell.  The one home of Vélu's codomain formula:
    Step builds its steps from it and keeps half for image(), and the
    recovery search (dlog._leaf_j) reads a leaf's j from its curve.

    For ell = 2 the kernel is K = (x_K, 0) and half is (x_K, g) with
    g = 3 x_K^2 + a: a' = a - 5g, b' = b - 7 x_K g.  For odd ell, half holds
    per point T of K, 2K, ..., ((ell-1)/2)K, whose negatives are the rest of
    the kernel, (x_T, v_T, u_T) with v_T = 2(3 x_T^2 + a) and u_T = 4 y_T^2;
    with v and w the sums of v_T and of u_T + x_T v_T, a' = a - 5v and
    b' = b - 7w.  The order test is y_K = 0 for ell = 2, and
    ((ell+1)/2)K = -((ell-1)/2)K with no smaller multiple at O otherwise.
    """
    if K is None or not _on_curve(domain, K):
        raise BadKernel("kernel generator must be a finite point on the domain")
    p, a0, a1 = domain.p, domain.a.c0, domain.a.c1
    b0, b1 = domain.b.c0, domain.b.c1
    if ell == 2:
        k0, k1, y0, y1 = K
        if y0 or y1:
            raise BadKernel("kernel generator does not have order 2")
        g0, g1 = (3 * (k0 * k0 - k1 * k1) + a0) % p, (6 * k0 * k1 + a1) % p
        half = k0, k1, g0, g1
        v0, v1, w0, w1 = g0, g1, k0 * g0 - k1 * g1, k0 * g1 + k1 * g0
    else:
        points = [K]
        for _ in range((ell - 3) // 2):
            T = _chord(p, a0, a1, points[-1], K)[0]
            if T is None:
                raise BadKernel(f"kernel generator has order below {ell}")
            points.append(T)
        S = _chord(p, a0, a1, points[-1], K)[0]
        if S is None or S[:2] != points[-1][:2]:
            raise BadKernel(f"kernel generator does not have order {ell}")
        v0 = v1 = w0 = w1 = 0
        half = []
        for x0, x1, y0, y1 in points:
            g0, g1 = 2 * (3 * (x0 * x0 - x1 * x1) + a0), 2 * (6 * x0 * x1 + a1)
            t0, t1 = 4 * (y0 * y0 - y1 * y1), 8 * y0 * y1
            v0, v1 = v0 + g0, v1 + g1
            w0, w1 = w0 + t0 + x0 * g0 - x1 * g1, w1 + t1 + x0 * g1 + x1 * g0
            half.append((x0, x1, g0 % p, g1 % p, t0 % p, t1 % p))
    return half, (a0 - 5 * v0, a1 - 5 * v1, b0 - 7 * w0, b1 - 7 * w1)


class Step:
    """One Vélu step of prime degree ell, post-composed with a u-twist.

    The kernel generator comes as a Point or as its int 4-tuple, which is
    what the walks hold; the step keeps the ints, and `kernel` builds the
    Point only when it is read.  _velu checks on those ints that the kernel
    is a finite point of the domain of order ell and gives the codomain and
    the data image() reads: for ell = 2, (x_K, g) with g = 3 x_K^2 + a, and
    (x, y) maps to (x + g t, y (1 - g t^2)) with t = 1/(x - x_K); for odd
    ell, (x_T, v_T, u_T) for half the kernel.  Those values, u^2 and u^3
    are int pairs: construction and image() run on integer coordinates, and
    evaluate() converts its Point once each way.  A step without a twist
    (u = 1) keeps none: its codomain is Vélu's curve as computed, and `u`
    builds the 1 only when it is read.
    """

    __slots__ = ("domain", "codomain", "ell", "_u", "_kernel", "_half", "_twist")

    def __init__(self, domain: Curve, kernel, ell: int, u: Fp2 = None):
        K = _coords(kernel) if isinstance(kernel, Point) else kernel
        self._half, (a0, a1, b0, b1) = _velu(domain, K, ell)
        self.domain, self.ell, self._kernel = domain, ell, K
        self._u = self._twist = None
        p = domain.p
        codomain = Curve(Fp2(p, a0, a1), Fp2(p, b0, b1))
        if u is not None and not u.is_one():
            u2 = u * u
            self._u, self._twist = u, (*u2.lex_key(), *(u2 * u).lex_key())
            codomain = twist_curve(codomain, u)
        self.codomain = codomain

    @property
    def u(self) -> Fp2:
        """The twist factor."""
        return Fp2.one(self.domain.p) if self._u is None else self._u

    @property
    def kernel(self) -> Point:
        """The kernel generator as a Point."""
        return _point(self.domain.p, self._kernel)

    def evaluate(self, P: Point) -> Point:
        """Image of P: image() on P's integer coordinates."""
        return _point(self.domain.p, self.image(_coords(P)))

    def image(self, P):
        """Image of P in int coordinates: Vélu's rational map, then the twist.

        For ell = 2, x' = x + g t and y' = y (1 - g t^2) with t = 1/(x - x_K).
        For odd ell, over half the kernel, x' = x + sum(v_T/(x - x_T) +
        u_T/(x - x_T)^2) and y' = y (1 - sum(v_T/(x - x_T)^2 + 2 u_T/(x -
        x_T)^3)); the denominators share one inversion.  x = x_T means
        P = +-T, a kernel point.
        """
        if P is None:
            return None
        p = self.domain.p
        x0, x1, y0, y1 = P
        if self.ell == 2:
            k0, k1, g0, g1 = self._half
            if x0 == k0 and x1 == k1:
                return None
            t0, t1 = inv_pair(p, x0 - k0, x1 - k1)
            gt0, gt1 = (g0 * t0 - g1 * t1) % p, (g0 * t1 + g1 * t0) % p
            sx0, sx1 = x0 + gt0, x1 + gt1
            sy0, sy1 = gt0 * t0 - gt1 * t1, gt0 * t1 + gt1 * t0
        else:
            ds = []
            for T in self._half:
                if T[0] == x0 and T[1] == x1:
                    return None
                ds.append((x0 - T[0], x1 - T[1]))
            sx0, sx1, sy0, sy1 = x0, x1, 0, 0
            for (_, _, v0, v1, u0, u1), (t0, t1) in zip(self._half, batch_inv(p, ds)):
                # with ut = u_T t and vu = v_T + ut: sx += t vu, sy += t^2 (vu + ut)
                ut0, ut1 = (u0 * t0 - u1 * t1) % p, (u0 * t1 + u1 * t0) % p
                vu0, vu1, r0, r1 = v0 + ut0, v1 + ut1, v0 + 2 * ut0, v1 + 2 * ut1
                q0, q1 = (t0 * t0 - t1 * t1) % p, 2 * t0 * t1 % p
                sx0, sx1 = sx0 + t0 * vu0 - t1 * vu1, sx1 + t0 * vu1 + t1 * vu0
                sy0, sy1 = sy0 + q0 * r0 - q1 * r1, sy1 + q0 * r1 + q1 * r0
        Y0, Y1 = y0 * (1 - sy0) + y1 * sy1, y1 * (1 - sy0) - y0 * sy1
        if self._twist is not None:
            s0, s1, c0, c1 = self._twist
            sx0, sx1 = s0 * sx0 - s1 * sx1, s0 * sx1 + s1 * sx0
            Y0, Y1 = c0 * Y0 - c1 * Y1, c0 * Y1 + c1 * Y0
        return (sx0 % p, sx1 % p, Y0 % p, Y1 % p)

    def retwist(self, u: Fp2) -> "Step":
        """Same isogeny with the twist multiplied by u."""
        return Step(self.domain, self._kernel, self.ell, self.u * u)


class IsogenyChain:
    """Composable sequence of steps from a domain; the codomain (the domain
    when there are no steps) and the degree are the steps' own."""

    __slots__ = ("domain", "codomain", "steps", "degree", "kernel_gens")

    def __init__(self, domain, steps, kernel_gens=None):
        self.domain = domain
        self.codomain = steps[-1].codomain if steps else domain
        self.steps = steps
        self.degree = math.prod(s.ell for s in steps)
        self.kernel_gens = kernel_gens

    @classmethod
    def identity(cls, E: Curve):
        return cls(E, [], [])

    def evaluate(self, P: Point) -> Point:
        self.domain.check(P)
        R = _coords(P)
        for s in self.steps:
            R = s.image(R)
        return _point(self.domain.p, R)

    def __repr__(self):
        ells = [s.ell for s in self.steps]
        return f"IsogenyChain(degree={self.degree}, steps={ells})"


def compose_chains(*chains) -> IsogenyChain:
    """Compose chains in pipeline order: the first argument is applied first."""
    steps = list(chains[0].steps)
    for prev, c in zip(chains, chains[1:]):
        if c.domain != prev.codomain:
            raise DomainMismatch("chain endpoints do not line up")
        steps.extend(c.steps)
    return IsogenyChain(chains[0].domain, steps)


def _ladder(E: Curve, R, ell: int, r: int) -> list:
    """[R, [ell]R, ..., [ell^(k-1)]R] with k = r, or the k < r with [ell^k]R = O,
    in int coordinates."""
    p, a0, a1 = E.p, E.a.c0, E.a.c1
    out = [R]
    while len(out) < r:
        R = _chord(p, a0, a1, R, R)[0] if ell == 2 else _scale(E, ell, R)
        if R is None:
            break
        out.append(R)
    return out


def _cyclic_walk(E: Curve, ladder: list, ell: int, steps: list):
    """Append to steps the r steps of degree ell whose kernels generate <R>,
    |R| = ell^r, given the ladder [R, [ell]R, ..., [ell^(r-1)]R] in int
    coordinates.

    Step i has kernel [ell^(r-1-i)]R pushed through the steps before it.
    The balanced strategy of De Feo, Jao and Plût walks <[ell^h]R>, h = r//2,
    on the ladder's tail while pushing R along, then walks the pushed R:
    O(r log r) multiplications by ell and evaluations, where recomputing each
    kernel point from R costs r(r-1)/2 multiplications.  The first step built
    is Step(E, [ell^(r-1)]R, ell), so a walk that starts certifies |R| = ell^r.
    """
    r = len(ladder)
    if r == 1:
        steps.append(Step(E, ladder[0], ell))
        return
    h, start, R = r // 2, len(steps), ladder[0]
    _cyclic_walk(E, ladder[h:], ell, steps)
    for step in steps[start:]:
        R = step.image(R)
    E = steps[-1].codomain
    _cyclic_walk(E, _ladder(E, R, ell, h), ell, steps)


def isogeny_from_kernel(E: Curve, gens, degree: int) -> IsogenyChain:
    """Chain with kernel generated by gens, |kernel| = degree.

    Steps are taken prime by prime in ascending order; ties among the
    generators are broken by their enumeration order.  The picked generator
    g, of order n = n1 * ell^v with ell not dividing n1, gives a run of
    r = min(v, v_ell(degree left)) steps with kernel <[n/ell^r]g>, walked by
    _cyclic_walk.  Raises BadKernel if the generators do not span a
    subgroup of exactly the stated order.

    Where each order comes from: every generator starts with the degree as
    a multiple of its order, and a step never raises an order, so that
    multiple stays one.  The walk first takes g as if its order were a
    power of ell: v is the length of the ladder g, [ell]g, ... up to
    ell^(f-1) (ell^f the ell part of the multiple) or the first O, and the
    walk's first step certifies the ladder's last rung, so a step that
    builds certifies |g| = ell^v.  Only when that step raises BadKernel and
    the multiple has a rest prime to ell is n1 computed, as point_order of
    [ell^f]g on that rest, and the walk taken on [n1]g.
    """
    for g in gens:
        if not E.on_curve(g):
            raise BadKernel("kernel generator not on the curve")
    if degree < 1:
        raise BadKernel("degree must be positive")
    if degree % E.p == 0:
        raise BadKernel("degree must be coprime to the characteristic")
    if degree == 1:
        if any(not g.is_inf for g in gens):
            raise BadKernel("nontrivial generators for a degree-1 isogeny")
        chain = IsogenyChain.identity(E)
    else:
        try:
            steps = _kernel_steps(E, gens, degree)
        except BadKernel:
            # the walk takes the degree as a multiple of every generator's
            # order; where it is not one, the walk fails, and the message
            # says so
            if any(point_order(E, g, degree) is None for g in gens):
                raise BadKernel("generator order does not divide the degree") from None
            raise
        chain = IsogenyChain(E, steps, list(gens))
    return chain


def mu(D: int) -> int:
    """Number of cyclic subgroups of order D: prod ell^(e-1) * (ell + 1)."""
    out = 1
    for ell, e in factorize(D).items():
        out *= ell ** (e - 1) * (ell + 1)
    return out


def cyclic_parts(E: Curve, D: int, indices) -> list:
    """(X, Y, t) for each idx of indices, with the idx-th cyclic subgroup of
    order D = ell^e in E equal to <X + [t]Y>: the one home of the kernel
    index.

    Kernels are indexed on the canonical D-basis (P, Q): indices up to
    ell^e give (P, Q, idx - 1), the rest give (Q, [ell]P, idx - ell^e - 1);
    this is a bijection between [1, mu(D)] and the cyclic subgroups, i.e.
    exactly the non-backtracking walks of length e, and X + [t]Y has order
    exactly D.  The indices of one family share (X, Y), so their walks
    share the steps their t's agree on (walk_cyclic_tree).  Every index is
    checked first; then the basis is looked up once and [ell]P computed
    once for all of them.
    """
    fac = factorize(D)
    if len(fac) != 1:
        raise IndexOutOfRange(f"kernel order {D} is not a prime power")
    ((ell, _),) = fac.items()
    bound = mu(D)
    for idx in indices:
        if not 1 <= idx <= bound:
            raise IndexOutOfRange(f"kernel index {idx} outside [1, {bound}]")
    P, Q = canonical_torsion_basis(E, D, E.p + 1)
    lP = E.mul(ell, P) if any(idx > D for idx in indices) else None
    return [(P, Q, idx - 1) if idx <= D else (Q, lP, idx - D - 1) for idx in indices]


def cyclic_kernel(E: Curve, D: int, indices) -> list:
    """The generators X + [t]Y of the cyclic subgroups of order D = ell^e in
    E that indices name, (X, Y, t) from cyclic_parts, composed on int
    coordinates."""
    p, a0, a1 = E.p, E.a.c0, E.a.c1
    return [
        _point(p, _chord(p, a0, a1, _coords(X), _scale(E, t, _coords(Y)))[0])
        for X, Y, t in cyclic_parts(E, D, indices)
    ]


def _subgroup_gens(E: Curve, ell: int):
    """Canonical generators of the ell+1 order-ell subgroups of E[ell]: U + [k]V
    for k < ell, then V, with (U, V) the canonical basis; in int coordinates.
    The index's prime-order case: the i-th is cyclic_kernel(E, ell, [i + 1])."""
    U, V = small_torsion_basis(E, ell, E.p + 1)
    p, a0, a1 = E.p, E.a.c0, E.a.c1
    W, V = _coords(U), _coords(V)
    gens = []
    for _ in range(ell):
        gens.append(W)
        W = _chord(p, a0, a1, W, V)[0]
    gens.append(V)
    return gens


def walk_cyclic_tree(E: Curve, D: int, indices, pts) -> list:
    """For each index in indices, (codomain, images of pts) of
    isogeny_from_kernel(E, cyclic_kernel(E, D, [idx]), D), D = ell^r: the
    indices of one family (X, Y) of cyclic_parts share one walk of the tree
    of their chains' steps, each distinct step built once.

    With r steps left, the next step's kernel is [ell^(r-1)](X + [t]Y) =
    [ell^(r-1)]X + (t mod ell) Z with Z = [ell^(r-1)]Y, since [ell^r]Y = O,
    so the members split by t mod ell, and share one step where Z = O.
    Past the step s for residue b the state is X' = s(X + [b]Y),
    Y' = s([ell]Y), t' = (t - b)/ell and Z' = s(Z): Z is carried by one
    image per step, not doubled again.  A node with one member left walks
    the rest as isogeny_from_kernel does, on its ladder.  Every step is
    built by Step from the kernel point that walk builds, so codomains and
    images are equal, not only isomorphic.
    """
    for P in pts:
        if not E.on_curve(P):
            raise BadKernel("point not on the curve")
    unique = list(dict.fromkeys(indices))
    families = {}
    for idx, (X, Y, t) in zip(unique, cyclic_parts(E, D, unique)):
        families.setdefault((X, Y), []).append((t, idx))
    ((ell, r),) = factorize(D).items()
    pts = [_coords(P) for P in pts]
    out = {}
    for (X, Y), members in families.items():
        X, Y = _coords(X), _coords(Y)
        ladder = _ladder(E, Y, ell, r)
        Z = ladder[-1] if len(ladder) == r else None
        _tree(E, ell, r, X, Y, Z, members, pts, out)
    return [(out[idx][0], tuple(_point(E.p, R) for R in out[idx][1])) for idx in indices]


def _tree(E: Curve, ell: int, r: int, X, Y, Z, members: list, pts: list, out: dict):
    """The node of walk_cyclic_tree with r steps left, in int coordinates:
    members are (t at this node, index) pairs, and out maps each index to
    (codomain, images of pts)."""
    if r == 0:
        for _, key in members:
            out[key] = E, pts
        return
    p, a0, a1 = E.p, E.a.c0, E.a.c1
    if len(members) == 1:
        ((t, key),) = members
        ladder = _ladder(E, _chord(p, a0, a1, X, _scale(E, t, Y))[0], ell, r)
        steps = []
        _cyclic_walk(E, ladder, ell, steps)
        for step in steps:
            pts = [step.image(P) for P in pts]
        out[key] = steps[-1].codomain, pts
        return
    ladder = _ladder(E, X, ell, r)
    KX = ladder[-1] if len(ladder) == r else None
    Y1 = _scale(E, ell, Y)
    groups = {}
    for t, key in members:
        q, b = divmod(t, ell)
        groups.setdefault(b, []).append((q, key))
    built = {}
    for b, group in groups.items():
        kb = b if Z is not None else 0  # where Z = O, one step for every b
        if kb not in built:
            step = Step(E, _chord(p, a0, a1, KX, _scale(E, kb, Z))[0], ell)
            built[kb] = step, step.image(Y1), step.image(Z), [step.image(P) for P in pts]
        step, Yb, Zb, pb = built[kb]
        Xb = step.image(_chord(p, a0, a1, X, _scale(E, b, Y))[0])
        _tree(step.codomain, ell, r - 1, Xb, Yb, Zb, group, pb, out)


def _run(E: Curve, Q, ell: int, f: int, e: int, steps: list):
    """Walk Q's run, appending its steps: the ladder of Q up to f rungs,
    of length v, and its last r = min(v, e) rungs.  Returns (v, r)."""
    ladder = _ladder(E, Q, ell, f)
    v = len(ladder)
    r = min(v, e)
    _cyclic_walk(E, ladder[v - r :], ell, steps)
    return v, r


def _kernel_steps(E: Curve, gens, degree: int) -> list:
    """The steps of isogeny_from_kernel, given a degree above 1; the
    generators are carried in int coordinates, each with a multiple m of
    its order.  The degree is factored once, and e counts the steps of
    degree ell still to take."""
    work = [(_coords(g), degree) for g in gens if not g.is_inf]
    cur = E
    steps = []
    for ell, e in sorted(factorize(degree).items()):
        while e:
            start = len(steps)
            for pick, (g, m) in enumerate(work):
                if m % ell:
                    continue
                f, n1 = 0, m  # m = n1 * ell^f, ell not dividing n1
                while n1 % ell == 0:
                    n1 //= ell
                    f += 1
                try:
                    v, r = _run(cur, g, ell, f, e, steps)
                    n1 = 1
                    break
                except BadKernel:
                    if n1 == 1:
                        raise
                # the step raised: g's order has a part prime to ell, which
                # [n1]g clears (to O when g has no ell part), or m is no
                # multiple of it, which _order reports
                n1 = _order(cur, _scale(cur, m // n1, g), n1)
                if n1 is None:
                    raise BadKernel("generator order does not divide the degree")
                Q = _scale(cur, n1, g)
                if Q is not None:
                    v, r = _run(cur, Q, ell, f, e, steps)
                    break
                work[pick] = (g, n1)
            else:
                raise BadKernel(f"no kernel point of order {ell} available")
            del work[pick]
            rest = n1 * ell ** (v - r)
            for step in steps[start:]:
                cur = step.codomain
                moved = ((step.image(h), m) for h, m in work)
                work = [(h, m) for h, m in moved if h is not None]
                if rest > 1:
                    g = step.image(g)
            # the generators before the picked one kept their orders (ell
            # does not divide their multiples), so it goes back to its place
            if rest > 1:
                work.insert(pick, (g, rest))
            e -= r
    if work:
        raise BadKernel("generators span a larger subgroup than the degree")
    return steps


# ---------------------------------------------------------------------------
# duals
# ---------------------------------------------------------------------------


def _dual_kernel(step: Step):
    """Generator of the dual step's kernel, the step-image of E[ell], in int
    coordinates.

    That image is cyclic of order ell, so the image of whichever canonical
    E[ell]-basis point the step does not kill generates it (for ell = 2 the
    image has one nonzero point, so either point outside the kernel gives
    it).
    """
    E, ell = step.domain, step.ell
    U, V = small_torsion_basis(E, ell, E.p + 1)
    K = step.image(_coords(U))
    return step.image(_coords(V)) if K is None else K


def dual_step(step: Step, back=None) -> Step:
    """Step s_hat with s_hat(s(P)) = [ell]P for every rational P.

    Its kernel is the image of back, a point of E[ell] on the step's domain
    in int coordinates, which generates it with no basis; where back is
    None or in the step's kernel, it is _dual_kernel(step).  Its twist is
    computed, not searched for.  A Vélu step pulls the invariant
    differential dx/2y back to itself and a u-twist pulls it back to 1/u
    times itself, so with v the twist of s_hat, s_hat composed with s pulls
    it back to 1/(u v) times itself.  That composite has kernel E[ell], so
    it is [ell], which multiplies the differential by ell, followed by an
    isomorphism, which is the identity exactly when it keeps the
    differential.  So v = 1/(ell u) makes the composite [ell] and lands
    s_hat on the domain of s.
    """
    K = None if back is None else step.image(back)
    if K is None:
        K = _dual_kernel(step)
    d = Step(step.codomain, K, step.ell, (step.ell * step.u).inv())
    if d.codomain != step.domain:
        raise BadKernel("the dual step does not return to the domain")
    return d


def dual(chain: IsogenyChain, carried=None) -> IsogenyChain:
    """Chain d with d(chain(P)) = [degree]P on all rational points.

    One point per prime is carried along the chain, as the back of each
    step's dual_step: carried maps primes ell to points of E[ell] on the
    chain's domain (others are dropped).  A step pushes the points of the
    other primes, and its dual kernel becomes the point of its own prime,
    so a step scans its domain's canonical basis (_dual_kernel) only when
    no point of its prime is carried or its kernel holds it.  In a walk
    of one prime that does not backtrack, such as a cyclic kernel's, a
    dual kernel is never in the next step's kernel, so only a first step
    can scan; a point of E[ell] outside the chain's kernel spares that
    scan as well.  The dual steps are the scanning rule's maps: only their
    kernel generators may differ.
    """
    E, pts = chain.domain, {}
    for ell, P in (carried or {}).items():
        if E.on_curve(P) and E.mul(ell, P).is_inf:
            pts[ell] = _coords(P)
    steps = []
    for s in chain.steps:
        d = dual_step(s, pts.get(s.ell))
        pts = {ell: s.image(P) for ell, P in pts.items() if ell != s.ell}
        pts[s.ell] = d._kernel
        steps.append(d)
    return IsogenyChain(chain.codomain, steps[::-1])


# ---------------------------------------------------------------------------
# push-forward / pull-back across coprime-degree squares
# ---------------------------------------------------------------------------


def push_forward(phi2: IsogenyChain, phi1: IsogenyChain) -> IsogenyChain:
    """[phi2]_* phi1: the isogeny with kernel phi2(ker phi1)."""
    if phi1.domain != phi2.domain:
        raise DomainMismatch("push-forward needs a shared domain")
    if math.gcd(phi1.degree, phi2.degree) != 1:
        raise NonCoprimeDegree("push-forward needs coprime degrees")
    if phi1.kernel_gens is None:
        raise BadKernel("kernel certificate unavailable for push-forward")
    gens = [phi2.evaluate(g) for g in phi1.kernel_gens]
    return isogeny_from_kernel(phi2.codomain, gens, phi1.degree)


def pull_back(phi2: IsogenyChain, psi1: IsogenyChain) -> IsogenyChain:
    """[phi2]^* psi1: the phi1 with [phi2]_* phi1 = psi1 (kernels as subgroups)."""
    if psi1.domain != phi2.codomain:
        raise DomainMismatch("pull-back needs domain(psi1) = codomain(phi2)")
    if math.gcd(psi1.degree, phi2.degree) != 1:
        raise NonCoprimeDegree("pull-back needs coprime degrees")
    if psi1.kernel_gens is None:
        raise NoPreimage("kernel certificate unavailable for pull-back")
    back = dual(phi2)
    gens = [back.evaluate(g) for g in psi1.kernel_gens]
    return isogeny_from_kernel(phi2.domain, gens, psi1.degree)


# ---------------------------------------------------------------------------
# efficient representations (torsion-basis images)
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True, repr=False)
class EfficientRep:
    """Degree plus images of an N-torsion basis: enough data to evaluate.

    A value: the fields cannot be reassigned, basis and images are tuples,
    and two representations with equal fields are equal and hash alike.
    That is what lets pairing_law remember its verdict per representation.
    """

    domain: Curve
    codomain: Curve
    degree: int
    order: int
    basis: tuple
    images: tuple

    def __repr__(self):
        return f"EfficientRep(degree={self.degree}, order={self.order})"


@functools.lru_cache(maxsize=4096)
def _basis_pairing(pair, domain: Curve, basis: tuple, N: int) -> Fp2:
    """pair(domain, *basis, N), remembered per (domain, basis, N), so that
    distinct representations on one basis, such as the S points of a swap's
    two pre-signatures on E0's C-basis, pair it once.

    pairing_law hands in the weil_pairing its module holds at the call, so
    the law's pairings keep their one call site there, a wrapped pairing
    (a tracer's span, a test's counter) sees the basis pairing too, and a
    remembered value is always one the function in its key computed.
    """
    return pair(domain, *basis, N)


@functools.lru_cache(maxsize=4096)
def pairing_law(rep: EfficientRep):
    """None unless both images are points of the codomain killed by N, the
    basis order; else whether e_N(images) = e_N(basis)^degree.  e_N(basis)
    is an N-th root of unity, so the degree is reduced mod N and a decoded
    degree of any length costs nothing.

    The order check is weil_pairing's own on the images, which raises
    OrderMismatch where [N]T is not O.  The verdict is remembered per
    representation value, so a decoder and the verifiers it hands the
    object to check the images once; a representation that differs in any
    field is a new key and is checked afresh.  e_N(basis) is remembered per
    basis (_basis_pairing).
    """
    N, E2 = rep.order, rep.codomain
    if not all(E2.on_curve(T) for T in rep.images):
        return None
    try:
        zi = weil_pairing(E2, *rep.images, N)
    except OrderMismatch:
        return None
    zb = _basis_pairing(weil_pairing, rep.domain, rep.basis, N)
    return zi == zb ** (rep.degree % N)


def efficient_rep(chain: IsogenyChain, N: int) -> EfficientRep:
    """Represent the chain by the images of the canonical N-basis."""
    U, V = canonical_torsion_basis(chain.domain, N, chain.domain.p + 1)
    return EfficientRep(
        chain.domain,
        chain.codomain,
        chain.degree,
        N,
        (U, V),
        (chain.evaluate(U), chain.evaluate(V)),
    )


def a_part(rep: EfficientRep, A: int) -> EfficientRep:
    """The representation restricted to the A-torsion, for A dividing its order."""
    k = rep.order // A
    return EfficientRep(
        rep.domain,
        rep.codomain,
        rep.degree,
        A,
        tuple(rep.domain.mul(k, X) for X in rep.basis),
        tuple(rep.codomain.mul(k, T) for T in rep.images),
    )
