import hashlib
import itertools
import math
import random
import time
from types import SimpleNamespace

import pytest

from adaptorsig import curve
from adaptorsig.adaptor import adapt, extract, presign, preverify
from adaptorsig.curve import (
    Curve,
    Point,
    _chord,
    _coords,
    _Degenerate,
    _miller,
    _outside,
    _point,
    _scale,
    _span,
    canonical_torsion_basis,
    factorize,
    has_exact_order,
    is_primitive_root_of_unity,
    isomorphisms,
    point_order,
    twist_curve,
    twist_point,
    weil_pairing,
)
from adaptorsig.errors import OrderMismatch, PointNotOnCurve, SingularCurve
from adaptorsig.field import Fp2, fp2_bytes
from adaptorsig.isogeny import isogeny_from_kernel
from adaptorsig.params import generate_params
from adaptorsig.relation import gen_r
from adaptorsig.sig import keygen, sign
from adaptorsig.swap import demo_swap


def test_singular_curve_rejected(t0):
    p = t0.p
    with pytest.raises(SingularCurve):
        Curve(Fp2.zero(p), Fp2.zero(p))


def test_identity_and_inverse(t0, rng):
    E = t0.e0
    for _ in range(50):
        P = E.random_point(rng)
        assert E.add(P, Point.infinity()) == P
        assert E.add(P, E.neg(P)).is_inf


def test_group_exponent(t0, rng):
    E = t0.e0
    for _ in range(20):
        P = E.random_point(rng)
        assert E.mul(t0.p + 1, P).is_inf


def test_add_commutes_and_associates(t0, rng):
    E = t0.e0
    for _ in range(200):
        P, Q, R = (E.random_point(rng) for _ in range(3))
        assert E.add(P, Q) == E.add(Q, P)
        assert E.add(E.add(P, Q), R) == E.add(P, E.add(Q, R))


def test_scalar_mul_distributes(t0, rng):
    E = t0.e0
    for _ in range(100):
        P = E.random_point(rng)
        m = rng.randrange(-50, 50)
        n = rng.randrange(-50, 50)
        assert E.add(E.mul(m, P), E.mul(n, P)) == E.mul(m + n, P)


def test_off_curve_rejected(t0):
    E = t0.e0
    bad = Point(Fp2(t0.p, 1), Fp2(t0.p, 1))
    assert not E.on_curve(bad)
    with pytest.raises(PointNotOnCurve):
        E.add(bad, Point.infinity())


def test_j_invariants(t0):
    p = t0.p
    assert t0.e0.j_invariant() == Fp2(p, 1728)
    E = Curve(Fp2.zero(p), Fp2.one(p))
    assert E.j_invariant() == Fp2.zero(p)


@pytest.mark.parametrize("profile", ["t0", "t1", "t2"])
def test_j_invariant_matches_the_fp2_formula(request, profile):
    ps = request.getfixturevalue(profile)
    p = ps.p
    rng = random.Random(p)
    zero, one = Fp2.zero(p), Fp2.one(p)
    Es = [ps.e0, Curve(zero, one), Curve(one, zero), Curve(zero, Fp2(p, 3, 5))]  # j = 1728, 0
    Es += [twist_curve(ps.e0, Fp2(p, 3, 5)), keygen(ps, random.Random(1)).pk]
    while len(Es) < 40:
        a, b = Fp2(p, rng.randrange(p), rng.randrange(p)), Fp2(p, rng.randrange(p), rng.randrange(p))
        a3 = 4 * (a * a * a)
        if a3 + 27 * (b * b):
            Es.append(Curve(a, b))
    for E in Es:
        a3 = 4 * (E.a * E.a * E.a)
        assert E.j_invariant() == 1728 * a3 / (a3 + 27 * (E.b * E.b))
    assert [E.j_invariant() for E in Es[:4]] == [Fp2(p, 1728), zero, Fp2(p, 1728), zero]


def ref_scan(E):
    """Scan points by the nested loop over x = c0 + c1*i, each lifted on
    Fp2 objects with the canonical square root."""
    p = E.p
    for c0 in range(p):
        for c1 in range(p):
            x = Fp2(p, c0, c1)
            y = (x * x * x + E.a * x + E.b).sqrt()
            if y is not None:
                yield Point(x, y)


def test_scan_points_match_the_nested_lift_loop(t0):
    for E in (t0.e0, keygen(t0, random.Random(2)).pk):
        scan, ref = E.scan_points(), ref_scan(E)
        points = [next(scan) for _ in range(50)]
        assert points == [next(ref) for _ in range(50)]
        assert all(E.lift_x(P.x) == P and E.on_curve(P) for P in points)
        x = next(x for x in (Fp2(t0.p, c, 1) for c in range(t0.p)) if E.lift_x(x) is None)
        assert (x * x * x + E.a * x + E.b).sqrt() is None and E.lift_x(x) is None


def test_scan_hashes_after_64_lexicographic_points(t0):
    """After 64 points in lexicographic order, the scan lifts x_k for
    k = 0, 1, ...: the two 16-byte halves of SHA-256(a || b || k as 8
    bytes), each mod p, skipping the x_k with no point above them."""
    E = keygen(t0, random.Random(2)).pk
    p = t0.p
    points = list(itertools.islice(E.scan_points(), 70))
    assert points[:64] == list(itertools.islice(ref_scan(E), 64))
    want = []
    for k in itertools.count():
        h = hashlib.sha256(fp2_bytes(E.a) + fp2_bytes(E.b) + k.to_bytes(8, "big")).digest()
        x = Fp2(p, int.from_bytes(h[:16], "big"), int.from_bytes(h[16:], "big"))
        if E.lift_x(x) is not None:
            want.append(E.lift_x(x))
        if len(want) == 6:
            break
    assert points[64:] == want


def _counted_hashes(monkeypatch):
    """The scan's hashed abscissas, counted by wrapping curve's SHA-256."""
    calls = []
    sha256 = hashlib.sha256
    monkeypatch.setattr(curve, "hashlib", SimpleNamespace(sha256=lambda b: calls.append(b) or sha256(b)))
    return calls


@pytest.mark.parametrize("case", ["t0-E[2]", "t0-E[128]", "t2-plain-E1[A]"])
def test_stall_shaped_bases_take_the_hash_points(request, monkeypatch, case):
    """Bases on which the lexicographic scan stalled: for a in GF(p) and b
    in i*GF(p), every scan point on the line c0 = 0 clears to one point, so
    the scan walked about p abscissas.  They took 2.2 s (the T0 curve) and
    33.6-39.8 s (E1 of the T2 plain signature of keys Random(3), signer
    Random(103)); the hash points give each in under 0.1 s."""
    if case.startswith("t0"):
        ps = request.getfixturevalue("t0")
        E, N = Curve(Fp2(ps.p, 15498), Fp2(ps.p, 0, 20797)), int(case[5:-1])
    else:
        ps = request.getfixturevalue("t2")
        kp = keygen(ps, random.Random(3))
        E, N = sign(kp, b"m3", ps, random.Random(103)).e1, ps.A
    hashes = _counted_hashes(monkeypatch)
    canonical_torsion_basis.cache_clear()
    start = time.perf_counter()
    P, Q = canonical_torsion_basis(E, N, E.p + 1)
    assert time.perf_counter() - start < 0.1
    assert hashes, "the basis was found among the lexicographic points"
    assert is_primitive_root_of_unity(weil_pairing(E, P, Q, N), N)


def test_stall_shaped_statement_curve_presigns(monkeypatch):
    """The custom spec (40, (5, 7), 1, 35, 3, 2): gen_r with Random(4)
    draws alpha = 0, so E_w has a in GF(p) and b in i*GF(p), and presign
    had not finished in 120 s in its canonical basis of E_w[2^40].  It
    presigns in under a second, preverifies strict, adapts and extracts."""
    ps = generate_params((40, (5, 7), 1, 35, 3, 2), random.Random(0))
    kp = keygen(ps, random.Random(2))
    w, s = gen_r(ps, random.Random(4))
    assert s.ew.a.c1 == 0 and s.ew.b.c0 == 0
    hashes = _counted_hashes(monkeypatch)
    start = time.perf_counter()
    pre = presign(kp, b"m", s, ps, random.Random(5))
    assert time.perf_counter() - start < 1
    assert hashes
    assert preverify(kp.pk, b"m", s, pre, "strict", ps)
    assert extract(adapt(pre, w, ps), pre, s, ps) is not None


def test_t2_swap_that_stalled_completes(t2, monkeypatch):
    """demo_swap at T2 with this seed spent 32.5 s in the lexicographic
    scan of one basis."""
    hashes = _counted_hashes(monkeypatch)
    canonical_torsion_basis.cache_clear()
    assert demo_swap(t2, 1390851128)["verdict"] is True
    assert hashes


def test_span_matches_repeated_add(t0):
    n = t0.group_order
    for E in (t0.e0, keygen(t0, random.Random(4)).pk):
        for N in (2, 3, 5, 7, t0.A, t0.C):
            for G in canonical_torsion_basis(E, N, n):
                R, want = Point.infinity(), []
                for _ in range(N):
                    want.append(R)
                    R = E.add(R, G)
                assert R.is_inf
                assert [_point(t0.p, S) for S in _span(E, _coords(G), N)] == want
        assert _span(E, None, 3) == [None, None, None]


@pytest.mark.parametrize("N", [2, 7, 128, 384])
def test_fresh_basis_builds_only_its_two_points(t0, monkeypatch, N):
    """The scan, cofactor clearing and independence test run on ints: a
    fresh basis on E0 builds the four Fp2 coordinates it returns."""
    builds = []
    init = Fp2.__init__
    canonical_torsion_basis.cache_clear()
    monkeypatch.setattr(Fp2, "__init__", lambda self, *a: builds.append(1) or init(self, *a))
    P, Q = canonical_torsion_basis(t0.e0, N, t0.group_order)
    monkeypatch.undo()
    assert not P.is_inf and not Q.is_inf
    assert len(builds) == 4


def test_canonical_basis_trivial(t0):
    P, Q = canonical_torsion_basis(t0.e0, 1, t0.group_order)
    assert P.is_inf and Q.is_inf


def test_paramset_pq_is_canonical_basis(t0):
    assert t0.pq == canonical_torsion_basis(t0.e0, t0.C, t0.group_order)


def _pairing_scan_basis(E, N, group_order):
    """Reference scan with the pairing rule: same scan order and cofactor
    clearing, and the second point is the first later one whose Weil
    pairing with the first has exact order N."""
    support = math.prod(ell**e for ell, e in factorize(group_order).items() if N % ell == 0)
    first = None
    for S in E.scan_points():
        P = E.mul(group_order // support, S)
        n = point_order(E, P, support)
        if n % N:
            continue
        P = E.mul(n // N, P)
        if first is None:
            first = P
        elif is_primitive_root_of_unity(weil_pairing(E, first, P, N), N):
            return first, P


def test_canonical_basis_matches_the_pairing_rule(t0):
    rng = random.Random(11)
    n = t0.group_order
    E = t0.e0
    for ell in (3, 5, 7):
        P, Q = canonical_torsion_basis(E, ell, n)
        E = isogeny_from_kernel(E, [E.add(P, E.mul(rng.randrange(ell), Q))], ell).codomain
        assert E.j_invariant() != t0.e0.j_invariant()
        for N in (5, 7, t0.A, t0.C, t0.A * t0.C):
            assert canonical_torsion_basis(E, N, n) == _pairing_scan_basis(E, N, n)


def _cleared_scan(E, N, group_order):
    """Reference: the scan points cleared to exact order N, on Points."""
    support = math.prod(ell**e for ell, e in factorize(group_order).items() if N % ell == 0)
    for S in E.scan_points():
        P = E.mul(group_order // support, S)
        n = point_order(E, P, support)
        if n % N == 0:
            yield E.mul(n // N, P)


def test_outside_is_the_first_cleared_point_off_the_span(t0):
    """_outside reads the scan as canonical_torsion_basis does: off the empty
    span it is the basis's first point, off <P> its second, and off any <B>
    the first cleared point whose Weil pairing with B is not 1."""
    n = t0.group_order
    one = Fp2.one(t0.p)
    for E in (t0.e0, keygen(t0, random.Random(4)).pk):
        for ell in (2, 3, 5, 7):
            P, Q = canonical_torsion_basis(E, ell, n)
            assert _point(t0.p, _outside(E, [], ell)) == P
            assert _point(t0.p, _outside(E, _span(E, _coords(P), ell), ell)) == Q
            for B in (Q, E.add(P, Q), E.add(P, E.mul(ell - 1, Q))):
                got = _point(t0.p, _outside(E, _span(E, _coords(B), ell), ell))
                want = next(S for S in _cleared_scan(E, ell, n) if weil_pairing(E, B, S, ell) != one)
                assert got == want


@pytest.mark.parametrize("which", ["A", "C", "AC"])
def test_basis_pairing_has_exact_order(t0, which):
    N = {"A": t0.A, "C": t0.C, "AC": t0.A * t0.C}[which]
    P, Q = canonical_torsion_basis(t0.e0, N, t0.group_order)
    assert has_exact_order(t0.e0, P, N)
    assert has_exact_order(t0.e0, Q, N)
    z = weil_pairing(t0.e0, P, Q, N)
    assert z**N == Fp2.one(t0.p)
    for ell in factorize(N):
        assert z ** (N // ell) != Fp2.one(t0.p)


@pytest.mark.parametrize(
    "which,inversions,pairing",
    [("A", 7, (17351, 22868)), ("C", 2, (13439, 4810)), ("AC", 9, (20325, 5936))],
)
def test_miller_divides_once_per_loop(t0, monkeypatch, which, inversions, pairing):
    # one inversion per slope and one at the end of the loop; the step that
    # reaches a point of order 2 (or its negative) takes no slope
    N = {"A": t0.A, "C": t0.C, "AC": t0.A * t0.C}[which]
    E = t0.e0
    U, V = canonical_torsion_basis(E, N, t0.group_order)
    calls = []
    inv = curve.inv_pair

    def counted(p, c0, c1):
        calls.append((c0, c1))
        return inv(p, c0, c1)

    monkeypatch.setattr(curve, "inv_pair", counted)
    miller(E, U, N, V)
    monkeypatch.undo()
    assert len(calls) == inversions
    assert weil_pairing(E, U, V, N) == Fp2(t0.p, *pairing)
    # Miller's formula: one loop per argument and no offset point
    millers, scans = [], []
    scan = curve._scan
    monkeypatch.setattr(curve, "_miller", lambda *args: millers.append(args) or _miller(*args))
    monkeypatch.setattr(curve, "_scan", lambda E: scans.append(E) or scan(E))
    weil_pairing(E, U, V, N)
    monkeypatch.undo()
    assert len(millers) == 2
    assert scans == []


# -- the integer kernels against Fp2 reference formulas ----------------------


def int_add(E, P, Q):
    """P + Q through the int addition _chord."""
    return _point(E.p, _chord(E.p, E.a.c0, E.a.c1, _coords(P), _coords(Q))[0])


def int_mul(E, k, P):
    """[k]P through the int ladder _scale."""
    return _point(E.p, _scale(E, k, _coords(P)))


def miller(E, P, n, X):
    """_miller on the int coordinates of P and X."""
    return _miller(E, _coords(P), n, _coords(X))


def ref_add(E, P, Q):
    """The affine chord-and-tangent law on Fp2 objects."""
    if P.is_inf:
        return Q
    if Q.is_inf:
        return P
    if P.x == Q.x:
        if P.y == -Q.y:
            return Point.infinity()
        lam = (3 * (P.x * P.x) + E.a) / (2 * P.y)
    else:
        lam = (Q.y - P.y) / (Q.x - P.x)
    x3 = lam * lam - P.x - Q.x
    return Point(x3, lam * (P.x - x3) - P.y)


def ref_mul(E, k, P):
    """[k]P by double-and-add on ref_add."""
    if k < 0:
        return ref_mul(E, -k, E.neg(P))
    R = Point.infinity()
    while k:
        if k & 1:
            R = ref_add(E, R, P)
        k >>= 1
        P = ref_add(E, P, P)
    return R


def ref_miller(E, P, n, X):
    """f_{n,P}(X) on Fp2 objects: one slope per step for the sum and the
    line, a vertical line at P = -Q, and a zero or pole raises _Degenerate."""
    if X.is_inf:
        raise _Degenerate
    one = Fp2.one(E.p)

    def step(T, Q):
        if T.is_inf or Q.is_inf:
            R = Q if T.is_inf else T
            l = v = one if R.is_inf else X.x - R.x
        elif T.x == Q.x and T.y == -Q.y:
            R, l, v = Point.infinity(), X.x - T.x, one
        else:
            if T.x == Q.x:
                lam = (3 * (T.x * T.x) + E.a) / (2 * T.y)
            else:
                lam = (Q.y - T.y) / (Q.x - T.x)
            R = ref_add(E, T, Q)
            l, v = (X.y - T.y) - lam * (X.x - T.x), X.x - R.x
        if l.is_zero() or v.is_zero():
            raise _Degenerate
        return R, l, v

    f = one
    T = P
    for bit in bin(n)[3:]:
        T, l, v = step(T, T)
        f = f * f * l / v
        if bit == "1":
            T, l, v = step(T, P)
            f = f * l / v
    return f


def curves(ps):
    """E0 (a in GF(p), b = 0) and a model of it with a and b off GF(p)."""
    return (ps.e0, twist_curve(ps.e0, Fp2(ps.p, 3, 5)))


def point_of_order_dividing(E, ps, N, rng):
    """[group order / N] times a random point: killed by N."""
    return E.mul(ps.group_order // N, E.random_point(rng))


@pytest.mark.parametrize("profile", ["t0", "t1", "t2"])
@pytest.mark.parametrize("model", [0, 1])
def test_add_matches_the_reference(profile, model, request, rng):
    ps = request.getfixturevalue(profile)
    E = curves(ps)[model]
    inf = Point.infinity()
    pts = [E.random_point(rng) for _ in range(8)]
    two = point_of_order_dividing(E, ps, 2, rng)
    while two.is_inf:
        two = point_of_order_dividing(E, ps, 2, rng)
    assert two.y.is_zero()
    pairs = [(inf, pts[0]), (pts[0], inf), (inf, inf), (two, two), (two, inf)]
    pairs += [(P, E.neg(P)) for P in pts[:3]] + [(P, P) for P in pts[:3]]
    pairs += list(zip(pts, pts[1:]))
    for P, Q in pairs:
        R = ref_add(E, P, Q)
        assert int_add(E, P, Q) == R and E.add(P, Q) == R, (P, Q)
    assert int_add(E, two, two).is_inf
    assert all(int_add(E, P, E.neg(P)).is_inf for P in pts)


@pytest.mark.parametrize("profile", ["t0", "t1", "t2"])
@pytest.mark.parametrize("model", [0, 1])
def test_mul_matches_the_reference(profile, model, request, rng):
    ps = request.getfixturevalue(profile)
    E, n = curves(ps)[model], ps.group_order
    for _ in range(4):
        P = E.random_point(rng)
        order = point_order(E, P, n)
        ks = [0, 1, -1, 2, -5, order, -order, order + 3, rng.getrandbits(60), -rng.getrandbits(60)]
        for k in ks:
            assert int_mul(E, k, P) == ref_mul(E, k, P) == E.mul(k, P), (k, P)
        assert int_mul(E, order, P).is_inf
        assert int_mul(E, k, Point.infinity()).is_inf


@pytest.mark.parametrize("profile,N", [("t0", 3), ("t0", 128), ("t1", 9), ("t1", 20), ("t2", 27)])
@pytest.mark.parametrize("model", [0, 1])
def test_miller_matches_the_reference(profile, N, model, request, rng):
    ps = request.getfixturevalue(profile)
    E = curves(ps)[model]
    for _ in range(6):
        P = point_of_order_dividing(E, ps, N, rng)
        X = E.random_point(rng)
        for args in ((P, N, X), (P, N, P), (Point.infinity(), N, X), (P, N, E.mul(2, P))):
            try:
                want = ref_miller(E, *args)
            except _Degenerate:
                with pytest.raises(_Degenerate):
                    miller(E, *args)
            else:
                assert miller(E, *args) == want


@pytest.mark.parametrize(
    "which,pairing", [("A", (17351, 22868)), ("C", (13439, 4810)), ("AC", (20325, 5936))]
)
def test_pairing_on_e0_bases_matches_the_reference(t0, which, pairing):
    N = {"A": t0.A, "C": t0.C, "AC": t0.A * t0.C}[which]
    E = t0.e0
    U, V = canonical_torsion_basis(E, N, t0.group_order)
    z = ref_miller(E, U, N, V) / ref_miller(E, V, N, U)
    assert (-z if N & 1 else z) == weil_pairing(E, U, V, N) == Fp2(t0.p, *pairing)


def offset_weil_pairing(E, P, Q, N):
    """Reference: f_P on [Q+S] - [S] over f_Q on [P-S] - [-S], for the first
    offset S of the point scan that dodges every zero and pole."""
    one = Fp2.one(E.p)
    if N == 1 or P.is_inf or Q.is_inf or P == Q or P == E.neg(Q):
        return one
    for S in E.scan_points():
        for T in (S, E.neg(S)):
            try:
                num = miller(E, P, N, E.add(Q, T)) / miller(E, P, N, T)
                den = miller(E, Q, N, E.add(P, E.neg(T))) / miller(E, Q, N, E.neg(T))
                return num / den
            except (_Degenerate, ZeroDivisionError):
                continue
    raise AssertionError("no usable offset point")


def test_pairing_matches_the_offset_reference(t0):
    rng = random.Random(12)
    n = t0.group_order
    A, C = t0.A, t0.C
    inf = Point.infinity()
    for E in (t0.e0, keygen(t0, random.Random(3)).pk):
        for N in sorted({2, 4, A, 3, C, 5, 7, A * C}):
            U, V = canonical_torsion_basis(E, N, n)

            def sample():
                return E.add(E.mul(rng.randrange(N), U), E.mul(rng.randrange(N), V))

            ell = min(factorize(N))
            pairs = [(sample(), sample()) for _ in range(4)]  # mostly independent
            pairs += [(U, V), (V, U), (inf, U), (V, inf), (inf, inf)]  # and P or Q = O
            for _ in range(3):
                P, k = sample(), rng.randrange(N)
                pairs += [(P, E.mul(k, P)), (E.mul(k, P), P)]  # dependent
                if ell < N:  # half-dependent: [ell]Q lies in <U>, Q does not
                    Q = E.add(E.mul(k, U), E.mul(N // ell, V))
                    pairs += [(U, Q), (Q, U)]
            for P, Q in pairs:
                assert weil_pairing(E, P, Q, N) == offset_weil_pairing(E, P, Q, N), (N, P, Q)


def test_pairing_alternating(t0):
    E = t0.e0
    N = t0.A
    P, Q = canonical_torsion_basis(E, N, t0.group_order)
    one = Fp2.one(t0.p)
    assert weil_pairing(E, P, P, N) == one
    assert weil_pairing(E, Q, Q, N) == one
    # antisymmetry
    assert weil_pairing(E, P, Q, N) * weil_pairing(E, Q, P, N) == one


def test_pairing_bilinear(t0, rng):
    E = t0.e0
    N = t0.A
    P, Q = canonical_torsion_basis(E, N, t0.group_order)
    z = weil_pairing(E, P, Q, N)
    for _ in range(20):
        m = rng.randrange(1, N)
        assert weil_pairing(E, E.mul(m, P), Q, N) == z**m
        assert weil_pairing(E, P, E.mul(m, Q), N) == z**m


def test_pairing_galois_invariant(t0):
    E = t0.e0
    N = t0.C
    P, Q = canonical_torsion_basis(E, N, t0.group_order)

    def frob(T):
        return Point(T.x.frobenius(), T.y.frobenius())

    z = weil_pairing(E, P, Q, N)
    assert weil_pairing(E, frob(P), frob(Q), N) == z.frobenius()


def brute_order(E, P, N):
    """Least divisor d of N with [d]P = O, or None: the oracle for point_order."""
    return next((d for d in range(1, N + 1) if N % d == 0 and E.mul(d, P).is_inf), None)


def test_point_order_matches_brute_force(t0, rng):
    E, n, AC = t0.e0, t0.group_order, t0.A * t0.C
    for _ in range(20):
        P = E.random_point(rng)
        Q = E.mul(n // AC, P)  # order divides A*C
        assert point_order(E, P, n) == brute_order(E, P, n)
        assert point_order(E, Q, AC) == brute_order(E, Q, AC)
        assert point_order(E, P, AC) == brute_order(E, P, AC)
    P4 = E.mul(n // 4, E.random_point(rng))
    while brute_order(E, P4, 4) != 4:
        P4 = E.mul(n // 4, E.random_point(rng))
    assert point_order(E, P4, 4) == 4 and has_exact_order(E, P4, 4)
    assert point_order(E, P4, 2 * 35) is None  # 4 does not divide 70
    assert not has_exact_order(E, P4, 2 * 35)
    assert point_order(E, P4, 1) is None and point_order(E, Point.infinity(), 1) == 1


def test_pairing_order_mismatch(t0, rng):
    E = t0.e0
    P = E.random_point(rng)
    while point_order(E, P, t0.group_order) <= t0.C:
        P = E.random_point(rng)
    with pytest.raises(OrderMismatch):
        weil_pairing(E, P, P, t0.C)


def test_isomorphisms_roundtrip(t0, rng):
    E = t0.e0
    p = t0.p
    u = Fp2(p, 3, 11)
    E2 = twist_curve(E, u)
    us = isomorphisms(E, E2)
    assert us, "twisted curve must be isomorphic"
    assert all(twist_curve(E, v) == E2 for v in us)
    # automorphism count of j=1728 is 4
    assert len(isomorphisms(E, E)) == 4
    # points transport onto the twisted curve
    P = E.random_point(rng)
    assert E2.on_curve(twist_point(P, u))


@pytest.mark.parametrize("profile", ["t0", "t1", "t2"])
def test_isomorphisms_at_j_0(request, profile):
    # y^2 = x^3 + 1: the j = 0 branch, through field.cube_roots
    ps = request.getfixturevalue(profile)
    p = ps.p
    E = Curve(Fp2.zero(p), Fp2.one(p))
    autos = isomorphisms(E, E)
    assert len(autos) == 6
    assert autos == sorted(autos, key=Fp2.lex_key)
    assert all(u**4 * E.a == E.a and u**6 * E.b == E.b for u in autos)
    u = Fp2(p, 2, 1)
    assert u in isomorphisms(E, twist_curve(E, u))
    # E0, at j = 1728, has four
    assert len(isomorphisms(ps.e0, ps.e0)) == 4


def test_isomorphisms_distinct_j_empty(t0):
    E = t0.e0
    other = Curve(Fp2.zero(t0.p), Fp2.one(t0.p))
    assert isomorphisms(E, other) == []
