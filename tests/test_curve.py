import math
import random

import pytest

from adaptorsig.curve import (
    Curve,
    Point,
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
from adaptorsig.field import Fp2
from adaptorsig.isogeny import isogeny_from_kernel


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


def test_isomorphisms_distinct_j_empty(t0):
    E = t0.e0
    other = Curve(Fp2.zero(t0.p), Fp2.one(t0.p))
    assert isomorphisms(E, other) == []
