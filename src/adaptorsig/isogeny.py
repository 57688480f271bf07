"""Separable isogenies as chains of prime-degree Vélu steps.

A chain keeps, per step, the prime, an explicit kernel generator on the
step's domain, and a twist factor u that fixes the codomain model.  The
twist is what lets a dual step land exactly on the original curve, so that
dual(phi) composed with phi is literally multiplication by the degree on
rational points rather than "up to isomorphism".
"""

import math

from .curve import (
    Curve,
    Point,
    _add,
    _mul,
    _neg,
    canonical_torsion_basis,
    factorize,
    isomorphisms,
    point_order,
    small_torsion_basis,
    twist_curve,
    twist_point,
)
from .errors import BadKernel, DomainMismatch, NonCoprimeDegree, NoPreimage
from .field import Fp2


class Step:
    """One Vélu step of prime degree ell, post-composed with a u-twist."""

    __slots__ = ("domain", "codomain", "ell", "kernel", "u", "_kpts")

    def __init__(self, domain: Curve, kernel: Point, ell: int, u: Fp2 = None):
        if kernel.is_inf or not domain.on_curve(kernel):
            raise BadKernel("kernel generator must be a finite point on the domain")
        if not _mul(domain, ell, kernel).is_inf:
            raise BadKernel(f"kernel generator does not have order {ell}")
        self.domain = domain
        self.ell = ell
        self.kernel = kernel
        self.u = Fp2.one(domain.p) if u is None else u
        kpts = []
        T = kernel
        for _ in range(ell - 1):
            if T.is_inf:
                raise BadKernel(f"kernel generator has order below {ell}")
            kpts.append(T)
            T = _add(domain, T, kernel)
        self._kpts = kpts
        self.codomain = self._velu_codomain()

    def _velu_codomain(self) -> Curve:
        E = self.domain
        v = Fp2.zero(E.p)
        w = Fp2.zero(E.p)
        seen = set()
        for T in self._kpts:
            if T in seen:
                continue
            seen.add(T)
            seen.add(_neg(T))
            gx = 3 * (T.x * T.x) + E.a
            gy = -2 * T.y
            vT = gx if T.y.is_zero() else 2 * gx
            uT = gy * gy
            v = v + vT
            w = w + uT + T.x * vT
        raw = Curve(E.a - 5 * v, E.b - 7 * w)
        return twist_curve(raw, self.u)

    def evaluate(self, P: Point) -> Point:
        """Image of P; Vélu's translation sums, then the twist."""
        if P.is_inf:
            return P
        E = self.domain
        x = P.x
        y = P.y
        for T in self._kpts:
            S = _add(E, P, T)
            if S.is_inf:
                return Point.infinity()  # P was a kernel point
            x = x + S.x - T.x
            y = y + S.y - T.y
        return twist_point(Point(x, y), self.u)

    def retwist(self, u: Fp2) -> "Step":
        """Same isogeny with the twist multiplied by u."""
        return Step(self.domain, self.kernel, self.ell, self.u * u)


class IsogenyChain:
    """Composable sequence of steps with explicit endpoints and degree."""

    __slots__ = ("domain", "codomain", "steps", "degree", "kernel_gens")

    def __init__(self, domain, codomain, steps, degree, kernel_gens=None):
        self.domain = domain
        self.codomain = codomain
        self.steps = steps
        self.degree = degree
        self.kernel_gens = kernel_gens

    @classmethod
    def identity(cls, E: Curve):
        return cls(E, E, [], 1, [])

    def evaluate(self, P: Point) -> Point:
        self.domain.check(P)
        for s in self.steps:
            P = s.evaluate(P)
        return P

    def __repr__(self):
        ells = [s.ell for s in self.steps]
        return f"IsogenyChain(degree={self.degree}, steps={ells})"


def compose_chains(*chains) -> IsogenyChain:
    """Compose chains in pipeline order: the first argument is applied first."""
    first = chains[0]
    steps = list(first.steps)
    deg = first.degree
    cur = first.codomain
    for c in chains[1:]:
        if c.domain != cur:
            raise DomainMismatch("chain endpoints do not line up")
        steps.extend(c.steps)
        deg *= c.degree
        cur = c.codomain
    return IsogenyChain(first.domain, cur, steps, deg, None)


def isogeny_from_kernel(E: Curve, gens, degree: int) -> IsogenyChain:
    """Chain with kernel generated by gens, |kernel| = degree.

    Steps are taken prime by prime in ascending order; ties among the
    generators are broken by their enumeration order.  Raises BadKernel if
    the generators do not span a subgroup of exactly the stated order.
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
        return IsogenyChain.identity(E)

    work = []
    for g in gens:
        if g.is_inf:
            continue
        if not _mul(E, degree, g).is_inf:
            raise BadKernel("generator order does not divide the degree")
        work.append((g, point_order(E, g, degree)))

    original = list(gens)
    steps = []
    cur = E
    D = degree
    while D > 1:
        ell = min(factorize(D))
        pick = None
        for i, (g, n) in enumerate(work):
            if n % ell == 0:
                pick = i
                break
        if pick is None:
            raise BadKernel(f"no kernel point of order {ell} available")
        g, n = work[pick]
        K = _mul(cur, n // ell, g)
        step = Step(cur, K, ell)
        cur = step.codomain
        nxt = []
        for g, n in work:
            img = step.evaluate(g)
            nn = point_order(cur, img, n)
            if nn > 1:
                nxt.append((img, nn))
        work = nxt
        steps.append(step)
        D //= ell
    if work:
        raise BadKernel("generators span a larger subgroup than the degree")
    return IsogenyChain(E, cur, steps, degree, original)


# ---------------------------------------------------------------------------
# duals
# ---------------------------------------------------------------------------


_PIN_CACHE: dict = {}


def _pinning_point(E: Curve, ell: int) -> Point:
    """First scan point whose [ell]-multiple is moved by every nontrivial
    automorphism of E.  Testing one such point distinguishes all candidate
    twists of a dual step, since any two candidates differ by an
    automorphism of E."""
    key = (E.key(), ell)
    hit = _PIN_CACHE.get(key)
    if hit is not None:
        return hit
    auts = [u for u in isomorphisms(E, E) if u != Fp2.one(E.p)]
    for S in E.scan_points():
        X = _mul(E, ell, S)
        if X.is_inf:
            continue
        if all(twist_point(X, u) != X for u in auts):
            _PIN_CACHE[key] = S
            return S
    raise BadKernel("no pinning point found")  # pragma: no cover


def dual_step(step: Step, group_order: int) -> Step:
    """Step s_hat with s_hat(s(P)) = [ell]P for every rational P.

    The kernel is the step-image of E[ell], a cyclic group of order ell, so
    whichever basis point the step does not kill generates it; the twist is
    pinned by testing the candidates on a pinning point of the domain.
    """
    E, F, ell = step.domain, step.codomain, step.ell
    U2, V2 = small_torsion_basis(E, ell, group_order)
    K = step.evaluate(U2)
    if K.is_inf:
        K = step.evaluate(V2)
    raw = Step(F, K, ell)
    U = _pinning_point(E, ell)
    tU = _mul(E, ell, U)
    sU = step.evaluate(U)
    for u in isomorphisms(raw.codomain, E):
        cand = Step(F, K, ell, u)
        if cand.evaluate(sU) == tU:
            return cand
    raise BadKernel("no normalization makes the dual step exact")  # pragma: no cover


def dual(chain: IsogenyChain, group_order: int) -> IsogenyChain:
    """Chain d with d(chain(P)) = [degree]P on all rational points."""
    steps = [dual_step(s, group_order) for s in reversed(chain.steps)]
    return IsogenyChain(chain.codomain, chain.domain, steps, chain.degree, None)


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


def pull_back(phi2: IsogenyChain, psi1: IsogenyChain, group_order: int) -> IsogenyChain:
    """[phi2]^* psi1: the phi1 with [phi2]_* phi1 = psi1 (kernels as subgroups)."""
    if psi1.domain != phi2.codomain:
        raise DomainMismatch("pull-back needs domain(psi1) = codomain(phi2)")
    if math.gcd(psi1.degree, phi2.degree) != 1:
        raise NonCoprimeDegree("pull-back needs coprime degrees")
    if psi1.kernel_gens is None:
        raise NoPreimage("kernel certificate unavailable for pull-back")
    back = dual(phi2, group_order)
    gens = [back.evaluate(g) for g in psi1.kernel_gens]
    return isogeny_from_kernel(phi2.domain, gens, psi1.degree)


# ---------------------------------------------------------------------------
# efficient representations (torsion-basis images)
# ---------------------------------------------------------------------------


class EfficientRep:
    """Degree plus images of an N-torsion basis: enough data to evaluate."""

    __slots__ = ("domain", "codomain", "degree", "order", "basis", "images")

    def __init__(self, domain, codomain, degree, order, basis, images):
        self.domain = domain
        self.codomain = codomain
        self.degree = degree
        self.order = order
        self.basis = basis
        self.images = images

    def __repr__(self):
        return f"EfficientRep(degree={self.degree}, order={self.order})"


def efficient_rep(chain: IsogenyChain, N: int, group_order: int) -> EfficientRep:
    """Represent the chain by the images of the canonical N-basis."""
    U, V = canonical_torsion_basis(chain.domain, N, group_order)
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
        tuple(_mul(rep.domain, k, X) for X in rep.basis),
        tuple(_mul(rep.codomain, k, T) for T in rep.images),
    )
