"""Short-Weierstrass curves over GF(p^2): group law, torsion bases, pairings.

Everything here is affine; at desk-scale moduli a field inversion is a single
word-size pow, so projective tricks buy nothing worth their complexity.
"""

from .errors import NoBasis, OrderMismatch, PointNotOnCurve, SingularCurve
from .field import Fp2, cube_roots


class Point:
    """Affine point (x, y) or the group identity (both coordinates None)."""

    __slots__ = ("x", "y")

    def __init__(self, x, y):
        self.x = x
        self.y = y

    @classmethod
    def infinity(cls):
        return _INF

    @property
    def is_inf(self):
        return self.x is None

    def __eq__(self, other):
        return isinstance(other, Point) and self.x == other.x and self.y == other.y

    def __hash__(self):
        if self.is_inf:
            return hash((None,))
        return hash((self.x, self.y))

    def __repr__(self):
        if self.is_inf:
            return "Point(inf)"
        return f"Point({self.x!r}, {self.y!r})"


_INF = Point(None, None)


class Curve:
    """y^2 = x^3 + a*x + b over GF(p^2), with nonzero discriminant."""

    __slots__ = ("p", "a", "b")

    def __init__(self, a: Fp2, b: Fp2):
        if 4 * (a**3) + 27 * (b**2) == Fp2.zero(a.p):
            raise SingularCurve("discriminant is zero")
        self.p = a.p
        self.a = a
        self.b = b

    def __eq__(self, other):
        return isinstance(other, Curve) and self.a == other.a and self.b == other.b

    def __hash__(self):
        return hash((self.a, self.b))

    def __repr__(self):
        return f"Curve(a={self.a!r}, b={self.b!r})"

    def key(self):
        return (self.p, self.a.c0, self.a.c1, self.b.c0, self.b.c1)

    # -- membership -----------------------------------------------------

    def on_curve(self, P: Point) -> bool:
        if P.is_inf:
            return True
        return P.y * P.y == P.x * P.x * P.x + self.a * P.x + self.b

    def check(self, P: Point):
        if not self.on_curve(P):
            raise PointNotOnCurve(f"{P!r} not on {self!r}")

    # -- group law --------------------------------------------------------

    def add(self, P: Point, Q: Point) -> Point:
        self.check(P)
        self.check(Q)
        return _add(self, P, Q)

    def neg(self, P: Point) -> Point:
        self.check(P)
        return _neg(P)

    def mul(self, k: int, P: Point) -> Point:
        self.check(P)
        return _mul(self, k, P)

    # -- invariants --------------------------------------------------------

    def j_invariant(self) -> Fp2:
        a3 = 4 * (self.a**3)
        return 1728 * a3 / (a3 + 27 * (self.b**2))

    # -- deterministic point enumeration -----------------------------------

    def lift_x(self, x: Fp2):
        """Point with abscissa x and the canonical square-root ordinate."""
        y = (x * x * x + self.a * x + self.b).sqrt()
        if y is None:
            return None
        return Point(x, y)

    def scan_points(self):
        """Yield curve points in lexicographic x order, canonical lift only."""
        p = self.p
        for c0 in range(p):
            for c1 in range(p):
                P = self.lift_x(Fp2(p, c0, c1))
                if P is not None:
                    yield P

    def random_point(self, rng):
        p = self.p
        while True:
            P = self.lift_x(Fp2(p, rng.randrange(p), rng.randrange(p)))
            if P is None:
                continue
            if rng.randrange(2):
                P = _neg(P)
            return P


# ---------------------------------------------------------------------------
# unchecked group-law internals (hot paths)
# ---------------------------------------------------------------------------


def _neg(P: Point) -> Point:
    if P.is_inf:
        return P
    return Point(P.x, -P.y)


def _add(E: Curve, P: Point, Q: Point) -> Point:
    if P.is_inf:
        return Q
    if Q.is_inf:
        return P
    if P.x == Q.x:
        if P.y == -Q.y:
            return _INF
        lam = (3 * (P.x * P.x) + E.a) / (2 * P.y)
    else:
        lam = (Q.y - P.y) / (Q.x - P.x)
    x3 = lam * lam - P.x - Q.x
    y3 = lam * (P.x - x3) - P.y
    return Point(x3, y3)


def _mul(E: Curve, k: int, P: Point) -> Point:
    if k < 0:
        return _mul(E, -k, _neg(P))
    R = _INF
    while k:
        if k & 1:
            R = _add(E, R, P)
        k >>= 1
        if k:
            P = _add(E, P, P)
    return R


# ---------------------------------------------------------------------------
# orders
# ---------------------------------------------------------------------------


def factorize(n: int) -> dict:
    """Trial-division factorization; cofactors here are always tiny."""
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def point_order(E: Curve, P: Point, group_order: int) -> int:
    """Exact order of P given a multiple of it (normally p+1)."""
    n = group_order
    for ell, e in factorize(group_order).items():
        for _ in range(e):
            if _mul(E, n // ell, P).is_inf:
                n //= ell
            else:
                break
    return n


def has_exact_order(E: Curve, P: Point, N: int) -> bool:
    if not _mul(E, N, P).is_inf:
        return False
    for ell in factorize(N):
        if _mul(E, N // ell, P).is_inf:
            return False
    return True


def is_primitive_root_of_unity(z: Fp2, N: int) -> bool:
    """Whether z has multiplicative order exactly N."""
    one = Fp2.one(z.p)
    if z**N != one:
        return False
    return all(z ** (N // ell) != one for ell in factorize(N))


# ---------------------------------------------------------------------------
# Weil pairing (Miller's algorithm with offset divisors)
# ---------------------------------------------------------------------------


class _Degenerate(Exception):
    """Internal: a line hit a zero/pole; retry with another offset."""


def _line(E: Curve, A: Point, B: Point, X: Point) -> Fp2:
    """Line through A and B (tangent if A == B), evaluated at finite X."""
    one = Fp2.one(E.p)
    if A.is_inf or B.is_inf:
        C = B if A.is_inf else A
        if C.is_inf:
            return one
        return X.x - C.x
    if A.x == B.x and A.y != B.y:
        return X.x - A.x
    if A == B:
        if A.y.is_zero():
            return X.x - A.x
        lam = (3 * (A.x * A.x) + E.a) / (2 * A.y)
    else:
        lam = (B.y - A.y) / (B.x - A.x)
    return (X.y - A.y) - lam * (X.x - A.x)


def _vertical(A: Point, X: Point, p: int) -> Fp2:
    if A.is_inf:
        return Fp2.one(p)
    return X.x - A.x


def _miller(E: Curve, P: Point, n: int, X: Point) -> Fp2:
    """f_{n,P}(X) for finite X; raises _Degenerate on a zero or pole."""
    if X.is_inf:
        raise _Degenerate
    f = Fp2.one(E.p)
    T = P
    for bit in bin(n)[3:]:
        l = _line(E, T, T, X)
        T = _add(E, T, T)
        v = _vertical(T, X, E.p)
        if l.is_zero() or v.is_zero():
            raise _Degenerate
        f = f * f * l / v
        if bit == "1":
            l = _line(E, T, P, X)
            T = _add(E, T, P)
            v = _vertical(T, X, E.p)
            if l.is_zero() or v.is_zero():
                raise _Degenerate
            f = f * l / v
    return f


def weil_pairing(E: Curve, P: Point, Q: Point, N: int) -> Fp2:
    """e_N(P, Q) for N-torsion points P, Q; an N-th root of unity."""
    E.check(P)
    E.check(Q)
    if N < 1 or not _mul(E, N, P).is_inf or not _mul(E, N, Q).is_inf:
        raise OrderMismatch(f"inputs not killed by {N}")
    one = Fp2.one(E.p)
    if N == 1 or P.is_inf or Q.is_inf or P == Q or P == _neg(Q):
        return one
    # evaluate f_P on [Q+S]-[S] and f_Q on [P-S]-[-S] for an offset S that
    # dodges every zero and pole of the two Miller functions
    for S in E.scan_points():
        for T in (S, _neg(S)):
            try:
                QS = _add(E, Q, T)
                PmS = _add(E, P, _neg(T))
                num = _miller(E, P, N, QS) / _miller(E, P, N, T)
                den = _miller(E, Q, N, PmS) / _miller(E, Q, N, _neg(T))
                return num / den
            except (_Degenerate, ZeroDivisionError):
                continue
    raise OrderMismatch("no usable offset point for the pairing")  # pragma: no cover


# ---------------------------------------------------------------------------
# canonical torsion bases
# ---------------------------------------------------------------------------

_BASIS_CACHE: dict = {}


def canonical_torsion_basis(E: Curve, N: int, group_order: int):
    """Deterministic basis (P, Q) of E[N]: the one signer and verifier share.

    Scans abscissas in lexicographic field order, lifts with the canonical
    square root, clears the cofactor and keeps the first point P of exact
    order N, then the first later point Q that is independent of it.  N must
    divide the group exponent (p+1 for the supersingular curves used here).
    The cofactor clearing is adaptive: the prime-to-N part is stripped and
    each remaining prime power divided down to its share of N, so any scan
    point whose order is a multiple of N contributes.  Q is independent of P
    when [N/ell]Q is outside <[N/ell]P> for every prime ell | N: the same as
    e_N(P, Q) having exact order N, at most ell additions per prime.
    """
    key = (E.key(), N)
    hit = _BASIS_CACHE.get(key)
    if hit is not None:
        return hit
    if N == 1:
        pair = (_INF, _INF)
        _BASIS_CACHE[key] = pair
        return pair
    if group_order % N != 0:
        raise NoBasis(f"{N} does not divide the group exponent")
    primes = list(factorize(N))
    support = 1  # N-supported part of the group exponent
    cof = group_order
    for ell in primes:
        while cof % ell == 0:
            cof //= ell
            support *= ell
    first = None
    for S in E.scan_points():
        P = _mul(E, cof, S)
        n = point_order(E, P, support)
        if n % N != 0:
            continue
        P = _mul(E, n // N, P)
        if first is None:
            first = P
            first_ell = [(ell, _mul(E, N // ell, P)) for ell in primes]
            continue
        if not any(_in_cyclic(E, _mul(E, N // ell, P), G, ell) for ell, G in first_ell):
            pair = (first, P)
            _BASIS_CACHE[key] = pair
            return pair
    raise NoBasis(f"no basis of order {N} found")  # pragma: no cover


def small_torsion_basis(E: Curve, ell: int, group_order: int):
    """The canonical basis of E[ell] for prime ell.

    Kept as its own name for recovery's basis work (subgroup enumeration,
    dual steps), so that perfbench times it apart from the other scans.
    """
    return canonical_torsion_basis(E, ell, group_order)


def _in_cyclic(E: Curve, P: Point, G: Point, n: int) -> bool:
    """Whether P lies in the cyclic group generated by G (n = |G|, tiny)."""
    R = _INF
    for _ in range(n):
        if P == R:
            return True
        R = _add(E, R, G)
    return False


# ---------------------------------------------------------------------------
# isomorphisms  (x, y) -> (u^2 x, u^3 y)
# ---------------------------------------------------------------------------


def twist_curve(E: Curve, u: Fp2) -> Curve:
    return Curve(u**4 * E.a, u**6 * E.b)


def twist_point(P: Point, u: Fp2) -> Point:
    if P.is_inf:
        return P
    return Point(u**2 * P.x, u**3 * P.y)


def isomorphisms(E1: Curve, E2: Curve):
    """All u with (u^4 a1, u^6 b1) = (a2, b2), in canonical order (<= 6)."""
    p = E1.p
    zero = Fp2.zero(p)
    cands = set()
    if E1.a != zero and E1.b != zero:
        if E2.a == zero or E2.b == zero:
            return []
        u2 = (E1.a * E2.b) / (E2.a * E1.b)
        r = u2.sqrt()
        if r is not None:
            cands.update((r, -r))
    elif E1.b == zero:  # j = 1728
        if E2.b != zero:
            return []
        t = E2.a / E1.a
        r = t.sqrt()
        if r is not None:
            for u2 in (r, -r):
                s = u2.sqrt()
                if s is not None:
                    cands.update((s, -s))
    else:  # a1 == 0, j = 0
        if E2.a != zero:
            return []
        for u2 in cube_roots(E2.b / E1.b):
            s = u2.sqrt()
            if s is not None:
                cands.update((s, -s))
    out = [u for u in cands if u**4 * E1.a == E2.a and u**6 * E1.b == E2.b]
    out.sort(key=Fp2.lex_key)
    return out
