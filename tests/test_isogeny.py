import random

import pytest

from adaptorsig.curve import Point, canonical_torsion_basis
from adaptorsig.errors import BadKernel, DomainMismatch, NonCoprimeDegree
from adaptorsig.field import Fp2
from adaptorsig.isogeny import (
    compose_chains,
    dual,
    efficient_rep,
    isogeny_from_kernel,
    pull_back,
    push_forward,
)
from adaptorsig.sig import challenge_walk, mu


def modular_poly_2(j1: Fp2, j2: Fp2) -> Fp2:
    """Classical level-2 modular polynomial, the independent oracle for
    2-isogenous j-invariants."""
    one = Fp2.one(j1.p)
    return (
        j1**3
        + j2**3
        - (j1**2) * (j2**2)
        + 1488 * (j1**2 * j2 + j1 * j2**2)
        - 162000 * (j1**2 + j2**2)
        + 40773375 * (j1 * j2)
        + 8748000000 * (j1 + j2)
        - 157464000000000 * one
    )


def two_isogeny_from_origin(t0):
    K = Point(Fp2.zero(t0.p), Fp2.zero(t0.p))
    return isogeny_from_kernel(t0.e0, [K], 2)


def test_identity_chain(t0):
    chain = isogeny_from_kernel(t0.e0, [], 1)
    assert chain.degree == 1 and chain.codomain == t0.e0
    P = t0.e0.random_point(random.Random(0))
    assert chain.evaluate(P) == P


def test_two_isogeny_matches_modular_polynomial(t0):
    phi = two_isogeny_from_origin(t0)
    val = modular_poly_2(t0.e0.j_invariant(), phi.codomain.j_invariant())
    assert val.is_zero()


def test_random_odd_isogenies_match_modular_polynomial(t0, rng):
    # degree-2 steps of longer chains also satisfy the level-2 relation
    E = t0.e0
    PA, QA = canonical_torsion_basis(E, 4, t0.group_order)
    K = E.add(PA, QA)
    chain = isogeny_from_kernel(E, [K], 4)
    cur = E
    for step in chain.steps:
        assert modular_poly_2(cur.j_invariant(), step.codomain.j_invariant()).is_zero()
        cur = step.codomain


def test_kernel_maps_to_infinity(t0, rng):
    E = t0.e0
    P5, Q5 = canonical_torsion_basis(E, 5, t0.group_order)
    P7, _ = canonical_torsion_basis(E, 7, t0.group_order)
    chain = isogeny_from_kernel(E, [E.add(P5, Q5), P7], 35)
    assert chain.degree == 35
    assert [s.ell for s in chain.steps] == [5, 7]
    for g in chain.kernel_gens:
        assert chain.evaluate(g).is_inf
    assert chain.evaluate(Point.infinity()).is_inf


def test_evaluate_is_homomorphism(t0, rng):
    E = t0.e0
    P3, _ = canonical_torsion_basis(E, 3, t0.group_order)
    chain = isogeny_from_kernel(E, [P3], 3)
    F = chain.codomain
    for _ in range(30):
        P, Q = E.random_point(rng), E.random_point(rng)
        assert chain.evaluate(E.add(P, Q)) == F.add(chain.evaluate(P), chain.evaluate(Q))


def test_witness_kernel_has_degree_C(t0):
    P, Q = t0.pq
    E = t0.e0
    K = E.add(P, E.mul(2, Q))
    chain = isogeny_from_kernel(E, [K], t0.C)
    assert chain.degree == t0.C


def test_bad_kernels_rejected(t0):
    E = t0.e0
    P5, _ = canonical_torsion_basis(E, 5, t0.group_order)
    with pytest.raises(BadKernel):
        isogeny_from_kernel(E, [P5], 35)  # subgroup smaller than degree
    with pytest.raises(BadKernel):
        isogeny_from_kernel(E, [P5], 7)  # order does not divide degree
    P7, Q7 = canonical_torsion_basis(E, 7, t0.group_order)
    with pytest.raises(BadKernel):
        isogeny_from_kernel(E, [P7, Q7], 7)  # generators span more than degree
    with pytest.raises(BadKernel):
        isogeny_from_kernel(E, [Point(Fp2(t0.p, 1), Fp2(t0.p, 1))], 2)  # off curve


def test_dual_identity(t0):
    chain = isogeny_from_kernel(t0.e0, [], 1)
    d = dual(chain, t0.group_order)
    assert d.degree == 1 and d.domain == t0.e0 and d.codomain == t0.e0


def test_dual_composes_to_multiplication(t0, rng):
    E = t0.e0
    P5, Q5 = canonical_torsion_basis(E, 5, t0.group_order)
    P7, _ = canonical_torsion_basis(E, 7, t0.group_order)
    chain = isogeny_from_kernel(E, [E.add(P5, Q5), P7], 35)
    back = dual(chain, t0.group_order)
    for _ in range(20):
        R = E.random_point(rng)
        assert back.evaluate(chain.evaluate(R)) == E.mul(35, R)


def test_dual_of_two_power_challenge_walks(t0, rng):
    # every dual step is of degree 2: its kernel is the image of E[2]
    E = t0.e0
    D = 2
    while D <= t0.A:
        for h in (1, mu(D)):
            walk = challenge_walk(E, h, D, t0.group_order)
            back = dual(walk, t0.group_order)
            assert back.domain == walk.codomain and back.codomain == E
            for _ in range(3):
                R = E.random_point(rng)
                assert back.evaluate(walk.evaluate(R)) == E.mul(D, R)
        D *= 2


def test_dual_of_dual_keeps_kernel(t0):
    E = t0.e0
    P3, Q3 = canonical_torsion_basis(E, 3, t0.group_order)
    chain = isogeny_from_kernel(E, [E.add(P3, Q3)], 3)
    dd = dual(dual(chain, t0.group_order), t0.group_order)
    # kernel-subgroup equality checked by membership: dd kills <K> and only it
    K = chain.kernel_gens[0]
    assert dd.evaluate(K).is_inf
    assert not dd.evaluate(Q3).is_inf


def test_pushforward_commutative_square(t0, rng):
    from adaptorsig.curve import isomorphisms, twist_point

    E = t0.e0
    n = t0.group_order
    P5, Q5 = canonical_torsion_basis(E, 5, n)
    P7, Q7 = canonical_torsion_basis(E, 7, n)
    P3, _ = canonical_torsion_basis(E, 3, n)
    phi1 = isogeny_from_kernel(E, [E.add(P5, Q5), Q7], 35)
    phi2 = isogeny_from_kernel(E, [P3], 3)
    psi1 = push_forward(phi2, phi1)
    psi2 = push_forward(phi1, phi2)
    routeA = compose_chains(phi2, psi1)
    routeB = compose_chains(phi1, psi2)
    assert routeA.codomain.j_invariant() == routeB.codomain.j_invariant()
    # one isomorphism matches the point images of both routes simultaneously
    pts = [E.random_point(rng) for _ in range(3)]
    imgsA = [routeA.evaluate(P) for P in pts]
    imgsB = [routeB.evaluate(P) for P in pts]
    matches = [
        u
        for u in isomorphisms(routeA.codomain, routeB.codomain)
        if all(twist_point(a, u) == b for a, b in zip(imgsA, imgsB))
    ]
    assert len(matches) == 1


def test_pushforward_identity(t0):
    E = t0.e0
    P3, _ = canonical_torsion_basis(E, 3, t0.group_order)
    phi2 = isogeny_from_kernel(E, [P3], 3)
    ident = isogeny_from_kernel(E, [], 1)
    out = push_forward(phi2, ident)
    assert out.degree == 1 and out.domain == phi2.codomain


def test_pushforward_errors(t0):
    E = t0.e0
    P3, _ = canonical_torsion_basis(E, 3, t0.group_order)
    P5, Q5 = canonical_torsion_basis(E, 5, t0.group_order)
    w = isogeny_from_kernel(E, [P3], 3)
    other = isogeny_from_kernel(w.codomain, [w.evaluate(P5)], 5)
    with pytest.raises(DomainMismatch):
        push_forward(other, w)
    d3 = isogeny_from_kernel(E, [P3], 3)
    with pytest.raises(NonCoprimeDegree):
        push_forward(d3, isogeny_from_kernel(E, [P3], 3))


def test_pull_back_roundtrip(t0):
    E = t0.e0
    n = t0.group_order
    P5, Q5 = canonical_torsion_basis(E, 5, n)
    P3, _ = canonical_torsion_basis(E, 3, n)
    w = isogeny_from_kernel(E, [P3], 3)
    psi = isogeny_from_kernel(E, [E.add(P5, Q5)], 5)
    pushed = push_forward(w, psi)  # lives on codomain of w
    back = pull_back(w, pushed, n)
    assert back.degree == 5 and back.domain == E
    # same kernel subgroup as psi
    assert back.evaluate(psi.kernel_gens[0]).is_inf


def test_pull_back_identity(t0):
    E = t0.e0
    P3, _ = canonical_torsion_basis(E, 3, t0.group_order)
    w = isogeny_from_kernel(E, [P3], 3)
    ident = isogeny_from_kernel(w.codomain, [], 1)
    out = pull_back(w, ident, t0.group_order)
    assert out.degree == 1 and out.domain == E


def test_degree_multiplicative(t0, rng):
    E = t0.e0
    n = t0.group_order
    for _ in range(10):
        P5, Q5 = canonical_torsion_basis(E, 5, n)
        a = isogeny_from_kernel(E, [E.add(P5, E.mul(rng.randrange(5), Q5))], 5)
        F = a.codomain
        P7, Q7 = canonical_torsion_basis(F, 7, n)
        b = isogeny_from_kernel(F, [F.add(P7, F.mul(rng.randrange(7), Q7))], 7)
        c = compose_chains(a, b)
        assert c.degree == a.degree * b.degree


def test_codomain_recompute_matches(t0):
    E = t0.e0
    P5, Q5 = canonical_torsion_basis(E, 5, t0.group_order)
    chain = isogeny_from_kernel(E, [E.add(P5, Q5)], 5)
    rebuilt = isogeny_from_kernel(E, chain.kernel_gens, 5)
    assert rebuilt.codomain == chain.codomain


def test_efficient_rep_identity(t0):
    E = t0.e0
    ident = isogeny_from_kernel(E, [], 1)
    rep = efficient_rep(ident, t0.A, t0.group_order)
    assert rep.images == rep.basis


def test_efficient_rep_pairing_law(t0):
    from adaptorsig.curve import weil_pairing

    E = t0.e0
    n = t0.group_order
    P5, Q5 = canonical_torsion_basis(E, 5, n)
    P7, _ = canonical_torsion_basis(E, 7, n)
    chain = isogeny_from_kernel(E, [E.add(P5, Q5), P7], 35)
    for N in (t0.A, t0.A * t0.C):
        rep = efficient_rep(chain, N, n)
        zb = weil_pairing(E, rep.basis[0], rep.basis[1], N)
        zi = weil_pairing(rep.codomain, rep.images[0], rep.images[1], N)
        assert zi == zb**35
