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
    canonical_torsion_basis,
    factorize,
    point_order,
    small_torsion_basis,
    twist_curve,
    twist_point,
)
from .errors import BadKernel, DomainMismatch, NoBasis, NonCoprimeDegree, NoPreimage
from .field import Fp2, batch_inv


class Step:
    """One Vélu step of prime degree ell, post-composed with a u-twist.

    The step keeps Vélu's data for half the kernel: the kernel point itself
    for ell = 2, and K, 2K, ..., ((ell-1)/2)K for odd ell, whose negatives
    are the other half.  Per point T it stores (x_T, v_T, u_T) with
    g_T = 3 x_T^2 + a, v_T = g_T for ell = 2 and 2 g_T otherwise, and
    u_T = 4 y_T^2.
    """

    __slots__ = ("domain", "codomain", "ell", "kernel", "u", "_half")

    def __init__(self, domain: Curve, kernel: Point, ell: int, u: Fp2 = None):
        if kernel.is_inf or not domain.on_curve(kernel):
            raise BadKernel("kernel generator must be a finite point on the domain")
        E = domain
        half = [kernel]
        for _ in range((ell - 3) // 2):
            T = _add(E, half[-1], kernel)
            if T.is_inf:
                raise BadKernel(f"kernel generator has order below {ell}")
            half.append(T)
        # order ell: y_K = 0 for ell = 2, else ((ell+1)/2)K = -((ell-1)/2)K
        last = half[-1]
        if not (kernel.y.is_zero() if ell == 2 else _add(E, last, kernel).x == last.x):
            raise BadKernel(f"kernel generator does not have order {ell}")
        self.domain = domain
        self.ell = ell
        self.kernel = kernel
        self.u = Fp2.one(E.p) if u is None else u
        v = w = Fp2.zero(E.p)
        triples = []
        for T in half:
            gx = 3 * (T.x * T.x) + E.a
            vT = gx if ell == 2 else 2 * gx
            uT = 4 * (T.y * T.y)
            v = v + vT
            w = w + uT + T.x * vT
            triples.append((T.x, vT, uT))
        self._half = triples
        self.codomain = twist_curve(Curve(E.a - 5 * v, E.b - 7 * w), self.u)

    def evaluate(self, P: Point) -> Point:
        """Image of P: Vélu's rational map over half the kernel, then the twist.

        x' = x + sum(v_T/(x - x_T) + u_T/(x - x_T)^2) and
        y' = y (1 - sum(v_T/(x - x_T)^2 + 2 u_T/(x - x_T)^3)).  The
        denominators share one inversion; x = x_T means P = +-T, a kernel point.
        """
        if P.is_inf:
            return P
        x = P.x
        ds = []
        for xT, _, _ in self._half:
            d = x - xT
            if d.is_zero():
                return Point.infinity()
            ds.append(d)
        sx = x
        sy = Fp2.zero(x.p)
        for (_, vT, uT), t in zip(self._half, batch_inv(ds)):
            ut = uT * t
            vu = vT + ut
            sx = sx + t * vu
            sy = sy + t * t * (vu + ut)
        return twist_point(Point(sx, P.y - P.y * sy), self.u)

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
        # ord(step(g)) = ord(g) / |<g> ∩ ker step|, and ker step has prime
        # order ell: g loses a factor ell exactly when [n/ell]g is in the kernel
        nxt = []
        for i, (g, n) in enumerate(work):
            img = step.evaluate(g)
            if i == pick or n % ell == 0 and _mul(cur, n // ell, img).is_inf:
                n //= ell
            if n > 1:
                nxt.append((img, n))
        work = nxt
        steps.append(step)
        D //= ell
    if work:
        raise BadKernel("generators span a larger subgroup than the degree")
    return IsogenyChain(E, cur, steps, degree, original)


# ---------------------------------------------------------------------------
# duals
# ---------------------------------------------------------------------------


def dual_kernel(step: Step, group_order: int) -> Point:
    """Generator of the dual step's kernel, the step-image of E[ell].

    That image is cyclic of order ell, so the image of whichever canonical
    E[ell]-basis point the step does not kill generates it.  For ell = 2 the
    other 2-torsion points are the roots of x^2 + x_K x + (a + x_K^2), what
    is left of x^3 + a x + b once the kernel's root x_K is divided out;
    either one maps to the nonzero point of the image, with no scan.
    """
    E, ell = step.domain, step.ell
    if ell == 2:
        xK = step.kernel.x
        r = (-3 * (xK * xK) - 4 * E.a).sqrt()
        if r is None:
            raise NoBasis("E[2] is not rational")
        return step.evaluate(Point((r - xK) * pow(2, -1, E.p), Fp2.zero(E.p)))
    U, V = small_torsion_basis(E, ell, group_order)
    K = step.evaluate(U)
    return step.evaluate(V) if K.is_inf else K


def dual_step(step: Step, group_order: int) -> Step:
    """Step s_hat with s_hat(s(P)) = [ell]P for every rational P.

    Its kernel is dual_kernel(step), and its twist is computed, not searched
    for.  A Vélu step pulls the invariant differential dx/2y back to itself
    and a u-twist pulls it back to 1/u times itself, so with v the twist of
    s_hat, s_hat composed with s pulls it back to 1/(u v) times itself.  That
    composite has kernel E[ell], so it is [ell], which multiplies the
    differential by ell, followed by an isomorphism, which is the identity
    exactly when it keeps the differential.  So v = 1/(ell u) makes the
    composite [ell] and lands s_hat on the domain of s.
    """
    d = Step(step.codomain, dual_kernel(step, group_order), step.ell, (step.ell * step.u).inv())
    if d.codomain != step.domain:
        raise BadKernel("the dual step does not return to the domain")
    return d


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
