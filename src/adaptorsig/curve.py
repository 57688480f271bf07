"""Short-Weierstrass curves over GF(p^2): group law, torsion bases, pairings.

Everything here is affine; at desk-scale moduli a field inversion is a single
word-size pow, so projective tricks buy nothing worth their complexity.

One coordinate boundary: public functions and methods take and return Fp2
and Point, and the private loops of field, curve, isogeny and dlog take ints
(a finite point is the reduced 4-tuple (x0, x1, y0, y1), O is None, and
_chord is the one addition of every ladder, walk, table and Miller loop).
Points are converted once on entry (_coords) and once on exit (_point), and
never built only for a callee to unpack: isogeny.Step takes its kernel as a
Point or as the int 4-tuple, so the walks of isogeny and dlog hand over the
ints they hold, and Step.kernel builds its Point only when read.  No other
module imports an underscore name of curve, isogeny or dlog.
The point scan (_scan, square roots by field.sqrt_pair) and the
j-invariant (_j_pair) run on ints as well; lift_x and scan_points wrap
_lift and _scan, and _cleared is the one loop that clears scan points to
an order, which canonical_torsion_basis and _outside read.
The int loops trust their inputs, so membership is checked where points
come in: Curve.add/mul/neg, IsogenyChain.evaluate, isogeny._velu for a
Step and for a search leaf's j (on ints, by _on_curve, whichever form the
kernel takes), isogeny_from_kernel's generators, decompose_2d,
weil_pairing and the decoders.
"""

import functools
import hashlib
import itertools

from .errors import NoBasis, OrderMismatch, PointNotOnCurve, SingularCurve
from .field import Fp2, cube_roots, fp2_bytes, inv_pair, sqrt_pair

#: how many points the scan takes in lexicographic order before it hashes
_LEX_POINTS = 64


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
        _, (d0, d1) = _j_parts(a.c0, a.c1, b.c0, b.c1)
        if d0 % a.p == 0 and d1 % a.p == 0:
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

    # -- membership -----------------------------------------------------

    def on_curve(self, P: Point) -> bool:
        return P.is_inf or _on_curve(self, _coords(P))

    def check(self, P: Point):
        if not self.on_curve(P):
            raise PointNotOnCurve(f"{P!r} not on {self!r}")

    # -- group law --------------------------------------------------------

    def add(self, P: Point, Q: Point) -> Point:
        self.check(P)
        self.check(Q)
        return _point(self.p, _chord(self.p, self.a.c0, self.a.c1, _coords(P), _coords(Q))[0])

    def neg(self, P: Point) -> Point:
        self.check(P)
        return P if P.is_inf else Point(P.x, -P.y)

    def mul(self, k: int, P: Point) -> Point:
        self.check(P)
        return _point(self.p, _scale(self, k, _coords(P)))

    # -- invariants --------------------------------------------------------

    def j_invariant(self) -> Fp2:
        """1728 * 4a^3 / (4a^3 + 27b^2), from _j_pair."""
        return Fp2(self.p, *_j_pair(self.p, self.a.c0, self.a.c1, self.b.c0, self.b.c1))

    # -- deterministic point enumeration -----------------------------------

    def lift_x(self, x: Fp2):
        """Point with abscissa x and the canonical square-root ordinate."""
        R = _lift(self, x.c0, x.c1)
        return None if R is None else _point(self.p, R)

    def scan_points(self):
        """Yield the scan's points (_scan: 64 in lexicographic x order, then
        hashed abscissas), each lifted with the canonical square root."""
        for R in _scan(self):
            yield _point(self.p, R)

    def random_point(self, rng):
        p = self.p
        while True:
            P = self.lift_x(Fp2(p, rng.randrange(p), rng.randrange(p)))
            if P is None:
                continue
            if rng.randrange(2):
                P = self.neg(P)
            return P


def _j_parts(a0: int, a1: int, b0: int, b1: int):
    """(4a^3, 4a^3 + 27b^2) as unreduced int pairs, for a = a0 + a1*i and
    b = b0 + b1*i: the j-invariant's numerator over 1728 and the
    discriminant's share that vanishes when the curve is singular."""
    s0, s1 = a0 * a0 - a1 * a1, 2 * a0 * a1  # a^2
    c0, c1 = 4 * (s0 * a0 - s1 * a1), 4 * (s0 * a1 + s1 * a0)
    return (c0, c1), (c0 + 27 * (b0 * b0 - b1 * b1), c1 + 54 * b0 * b1)


def _j_pair(p: int, a0: int, a1: int, b0: int, b1: int):
    """The j-invariant of y^2 = x^3 + a*x + b as a reduced int pair, with
    one inversion; a and b come as int pairs, reduced or not, and are
    reduced before they are cubed."""
    (c0, c1), (d0, d1) = _j_parts(a0 % p, a1 % p, b0 % p, b1 % p)
    d0, d1 = inv_pair(p, d0, d1)
    return 1728 * (c0 * d0 - c1 * d1) % p, 1728 * (c0 * d1 + c1 * d0) % p


# ---------------------------------------------------------------------------
# the int group law: unchecked, for the hot loops
# ---------------------------------------------------------------------------


def _coords(P: Point):
    """P as the int 4-tuple (x0, x1, y0, y1), or None for O."""
    return None if P.x is None else (P.x.c0, P.x.c1, P.y.c0, P.y.c1)


def _point(p: int, R) -> Point:
    """The Point of an int 4-tuple (or None) from _coords."""
    return _INF if R is None else Point(Fp2(p, R[0], R[1]), Fp2(p, R[2], R[3]))


def _on_curve(E: Curve, R) -> bool:
    """on_curve for a finite point in int coordinates."""
    (x0, x1, y0, y1), a, b = R, E.a, E.b
    s0, s1 = x0 * x0 - x1 * x1 + a.c0, 2 * x0 * x1 + a.c1  # y^2 = (x^2 + a) x + b
    r0 = (y0 * y0 - y1 * y1 - s0 * x0 + s1 * x1 - b.c0) % E.p
    return r0 == (2 * y0 * y1 - s0 * x1 - s1 * x0 - b.c1) % E.p == 0


def _lift(E: Curve, x0: int, x1: int):
    """lift_x in int coordinates: (x0, x1, y0, y1) with the canonical root
    y of x^3 + a x + b, or None when that is not a square."""
    a, b = E.a, E.b
    s0, s1 = x0 * x0 - x1 * x1 + a.c0, 2 * x0 * x1 + a.c1  # y^2 = (x^2 + a) x + b
    y = sqrt_pair(E.p, s0 * x0 - s1 * x1 + b.c0, s0 * x1 + s1 * x0 + b.c1)
    return None if y is None else (x0, x1, *y)


def _scan(E: Curve):
    """scan_points in int coordinates: the first _LEX_POINTS points of
    x = x0 + x1*i in lexicographic order, then the x_k for k = 0, 1, ...
    whose x0 and x1 are the two 16-byte halves of SHA-256(fp2_bytes(a) ||
    fp2_bytes(b) || k as 8 bytes), each mod p.  A fixed line order stalls on
    some curve shape (for a in GF(p) and b in i*GF(p), the line x0 = 0
    clears to one 2-torsion point); the hash points do not."""
    p = E.p
    lex = (_lift(E, x0, x1) for x0 in range(p) for x1 in range(p))
    yield from itertools.islice(filter(None, lex), _LEX_POINTS)
    seed = fp2_bytes(E.a) + fp2_bytes(E.b)
    for k in itertools.count():
        h = hashlib.sha256(seed + k.to_bytes(8, "big")).digest()
        R = _lift(E, int.from_bytes(h[:16], "big") % p, int.from_bytes(h[16:], "big") % p)
        if R is not None:
            yield R


def _chord(p, a0, a1, P, Q):
    """(P + Q, slope) on y^2 = x^3 + a x + b, a = a0 + a1*i, in int coordinates.

    The slope (l0, l1) is that of the line through P and Q, the tangent when
    P = Q; it is None when an operand is O or the line is vertical (P = -Q).
    """
    if P is None:
        return Q, None
    if Q is None:
        return P, None
    x0, x1, y0, y1 = P
    u0, u1, v0, v1 = Q
    if x0 == u0 and x1 == u1:
        if (y0 + v0) % p == 0 and (y1 + v1) % p == 0:
            return None, None
        n0, n1 = 3 * (x0 * x0 - x1 * x1) + a0, 6 * x0 * x1 + a1
        d0, d1 = inv_pair(p, 2 * y0, 2 * y1)
    else:
        n0, n1 = v0 - y0, v1 - y1
        d0, d1 = inv_pair(p, u0 - x0, u1 - x1)
    l0 = (n0 * d0 - n1 * d1) % p
    l1 = (n0 * d1 + n1 * d0) % p
    s0 = (l0 * l0 - l1 * l1 - x0 - u0) % p
    s1 = (2 * l0 * l1 - x1 - u1) % p
    t0, t1 = x0 - s0, x1 - s1
    return (s0, s1, (l0 * t0 - l1 * t1 - y0) % p, (l0 * t1 + l1 * t0 - y1) % p), (l0, l1)


def _scale(E: Curve, k: int, P):
    """[k]P in int coordinates, by double-and-add from the low bit."""
    p, a0, a1 = E.p, E.a.c0, E.a.c1
    if k < 0 and P is not None:
        P = (P[0], P[1], -P[2] % p, -P[3] % p)
    k, R = abs(k), None
    while k:
        if k & 1:
            R = _chord(p, a0, a1, R, P)[0]
        k >>= 1
        if k:
            P = _chord(p, a0, a1, P, P)[0]
    return R


def _joint(E: Curve, x: int, P, y: int, Q):
    """[x]P + [y]Q in int coordinates for x, y >= 0, by one ladder from the
    high bits (Straus): a doubling per bit and one addition of P, Q or
    P + Q per bit pair that is not 0, where two ladders and a sum double
    twice."""
    p, a0, a1 = E.p, E.a.c0, E.a.c1
    summands = (None, P, Q, _chord(p, a0, a1, P, Q)[0])
    R = None
    for i in range(max(x.bit_length(), y.bit_length()) - 1, -1, -1):
        R = _chord(p, a0, a1, R, R)[0]
        k = (x >> i & 1) | (y >> i & 1) << 1
        if k:
            R = _chord(p, a0, a1, R, summands[k])[0]
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


def point_order(E: Curve, P: Point, N: int) -> int | None:
    """Exact order of P given a multiple N of it (normally p+1).

    One ladder per prime: for ell^e || N, Q = [N/ell^e]P is multiplied by
    ell until it reaches O, and the number of multiplications is the
    exponent of ell in the order.  Returns None when e multiplications do
    not reach O, that is when [N]P != O.
    """
    return _order(E, _coords(P), N)


def _order(E: Curve, P, N: int) -> int | None:
    """point_order in int coordinates."""
    if N == 1:
        return 1 if P is None else None
    n = 1
    for ell, e in factorize(N).items():
        Q = _scale(E, N // ell**e, P)
        k = 0
        while Q is not None:
            if k == e:
                return None
            Q = _scale(E, ell, Q)
            k += 1
        n *= ell**k
    return n


def has_exact_order(E: Curve, P: Point, N: int) -> bool:
    return point_order(E, P, N) == N


def is_primitive_root_of_unity(z: Fp2, N: int) -> bool:
    """Whether z has multiplicative order exactly N."""
    one = Fp2.one(z.p)
    if z**N != one:
        return False
    return all(z ** (N // ell) != one for ell in factorize(N))


# ---------------------------------------------------------------------------
# Weil pairing (Miller's formula)
# ---------------------------------------------------------------------------


class _Degenerate(Exception):
    """Internal: a line of f_{n,P} vanishes at X, so X lies in <P>."""


def _miller(E: Curve, P, n: int, X) -> Fp2:
    """f_{n,P}(X) for finite X, P and X in int coordinates; raises
    _Degenerate on a zero or pole.

    GF(p^2) values are int pairs until the Fp2 result.  Each step takes
    _chord's one slope for both the sum and the line through its two points,
    and f is kept as a fraction num/den, so the loop divides once at its end.
    """
    if X is None:
        raise _Degenerate
    p, a0, a1 = E.p, E.a.c0, E.a.c1
    X0, X1, Y0, Y1 = X

    def mul(f, g):
        return (f[0] * g[0] - f[1] * g[1]) % p, (f[0] * g[1] + f[1] * g[0]) % p

    def step(T, Q):
        """(T + Q, line through T and Q at X, vertical at T + Q at X)."""
        R, lam = _chord(p, a0, a1, T, Q)
        if T is None or Q is None:
            l = v = (1, 0) if R is None else (X0 - R[0], X1 - R[1])
        elif lam is None:  # T = -Q
            l, v = (X0 - T[0], X1 - T[1]), (1, 0)
        else:
            (l0, l1), d0, d1 = lam, X0 - T[0], X1 - T[1]
            l = (Y0 - T[2] - l0 * d0 + l1 * d1, Y1 - T[3] - l0 * d1 - l1 * d0)
            v = (X0 - R[0], X1 - R[1])
        if l[0] % p == l[1] % p == 0 or v[0] % p == v[1] % p == 0:
            raise _Degenerate
        return R, l, v

    num = den = (1, 0)
    T = P
    for bit in bin(n)[3:]:
        T, l, v = step(T, T)
        num, den = mul(mul(num, num), l), mul(mul(den, den), v)
        if bit == "1":
            T, l, v = step(T, P)
            num, den = mul(num, l), mul(den, v)
    return Fp2(p, *mul(num, inv_pair(p, *den)))


def weil_pairing(E: Curve, P: Point, Q: Point, N: int) -> Fp2:
    """e_N(P, Q) for N-torsion points P, Q; an N-th root of unity.

    Miller's formula e_N(P, Q) = (-1)^N f_{N,P}(Q) / f_{N,Q}(P).  Every
    zero and pole of f_P's lines lies in <P>, so a degenerate evaluation
    means Q in <P> or P in <Q>, and then e_N(P, Q) = 1.
    """
    E.check(P)
    E.check(Q)
    P, Q = _coords(P), _coords(Q)
    if N < 1 or _scale(E, N, P) is not None or _scale(E, N, Q) is not None:
        raise OrderMismatch(f"inputs not killed by {N}")
    try:
        z = _miller(E, P, N, Q) / _miller(E, Q, N, P)
    except _Degenerate:
        return Fp2.one(E.p)
    return -z if N & 1 else z


# ---------------------------------------------------------------------------
# canonical torsion bases
# ---------------------------------------------------------------------------

def _cleared(E: Curve, N: int, exponent: int):
    """The scan's points cleared to exact order N, in int coordinates and
    scan order: the one source of canonical_torsion_basis and _outside.

    Each point of _scan (on ints) has the prime-to-N part of `exponent`
    stripped and each remaining prime power divided down to its share of
    N, so any scan point whose order is a multiple of N contributes.  N
    must divide the group exponent, and the exponent must divide
    `exponent`: the package always passes E.p + 1, the exponent of every
    curve it admits; a scan point with [exponent]S != O, as on an ordinary
    curve, raises NoBasis.
    """
    if exponent % N != 0:
        raise NoBasis(f"{N} does not divide the group exponent")
    support = 1  # N-supported part of the group exponent
    cof = exponent
    for ell in factorize(N):
        while cof % ell == 0:
            cof //= ell
            support *= ell
    for S in _scan(E):
        P = _scale(E, cof, S)
        n = _order(E, P, support)
        if n is None:
            raise NoBasis(f"the group exponent does not divide {exponent}")
        if n % N == 0:
            yield _scale(E, n // N, P)


# a strict check asks for 16-26 bases at T0 (4 distinct) and 19-26 at T1
# (4) on a plain signature, 25-28 (4) and 23-26 (4) on a forged one, 14-17
# (4) and 14-24 (4) on a pre-signature, 43-57 (7) and 134-147 (17) on an
# adapted one, with the cache cleared, over seeds 1-4: a recovery search
# asks at the roots of its walks, and a strict check asks for a verdict,
# so it builds no chain and asks for nothing on its match
@functools.lru_cache(maxsize=4096)
def canonical_torsion_basis(E: Curve, N: int, group_order: int):
    """Deterministic basis (P, Q) of E[N]: the one signer and verifier share.

    Scans abscissas in lexicographic field order, lifts with the canonical
    square root and clears the cofactor (_cleared), keeps the first point P
    of exact order N, then the first later point Q that is independent of
    it.  N must divide the group exponent, and the group exponent must
    divide group_order: the package always passes E.p + 1, and perfbench
    passes it too; otherwise NoBasis.
    Q is independent of P when [N/ell]Q is outside <[N/ell]P> for every
    prime ell | N: the same as e_N(P, Q) having exact order N.  Each
    <[N/ell]P> is listed once by _span, ell - 1 additions, and every later
    point is looked up in it.
    """
    if N == 1:
        return (_INF, _INF)
    points = _cleared(E, N, group_order)
    first = next(points, None)
    if first is not None:
        spans = [(N // ell, _span(E, _scale(E, N // ell, first), ell)) for ell in factorize(N)]
        for P in points:
            if not any(_scale(E, m, P) in span for m, span in spans):
                return (_point(E.p, first), _point(E.p, P))
    raise NoBasis(f"no basis of order {N} found")  # pragma: no cover


def _outside(E: Curve, span: list, N: int):
    """The first of the scan's points of exact order N (_cleared) outside
    span, in int coordinates.  For N = ell prime and span the group <B> of
    a point of order ell (_span), that point and B are a basis of E[ell],
    with one point scanned where a canonical basis scans two."""
    for P in _cleared(E, N, E.p + 1):
        if P not in span:
            return P
    raise NoBasis(f"no point of order {N} outside the span")  # pragma: no cover


def small_torsion_basis(E: Curve, ell: int, group_order: int):
    """The canonical basis of E[ell] for prime ell.

    Kept as its own name for recovery's basis work (subgroup enumeration,
    dual steps), so that perfbench times it apart from the other scans.
    """
    return canonical_torsion_basis(E, ell, group_order)


def _span(E: Curve, G, n: int) -> list:
    """[O, G, [2]G, ..., [n-1]G] in int coordinates: the cyclic group of G
    when n = |G| (tiny here), built once for every membership test."""
    p, a0, a1 = E.p, E.a.c0, E.a.c1
    out = [None]
    for _ in range(n - 1):
        out.append(_chord(p, a0, a1, out[-1], G)[0])
    return out


# ---------------------------------------------------------------------------
# isomorphisms  (x, y) -> (u^2 x, u^3 y)
# ---------------------------------------------------------------------------


def twist_curve(E: Curve, u: Fp2) -> Curve:
    if u.is_one():
        return E
    u2 = u * u
    u4 = u2 * u2
    return Curve(u4 * E.a, u4 * u2 * E.b)


def twist_point(P: Point, u: Fp2) -> Point:
    if P.is_inf or u.is_one():
        return P
    u2 = u * u
    return Point(u2 * P.x, u2 * u * P.y)


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
