import hashlib
import logging
import random
import re
import sys
from pathlib import Path

import pytest

from adaptorsig import curve, dlog, isogeny, serial
from adaptorsig.adaptor import AdaptedSignature, PreSignature, adapt, presign, preverify
from adaptorsig.curve import (
    Point,
    _coords,
    _point,
    canonical_torsion_basis,
    isomorphisms,
    twist_curve,
    twist_point,
)
from adaptorsig.dlog import (
    count_kernel_candidates,
    decompose_2d,
    evaluate_rep,
    find_isogeny,
    isogeny_exists,
    recover_isogeny,
)
from adaptorsig.errors import AmbiguityBound, NotABasis, NotFound, OrderMismatch
from adaptorsig.field import Fp2
from adaptorsig.isogeny import (
    EfficientRep,
    IsogenyChain,
    Step,
    compose_chains,
    dual,
    dual_step,
    efficient_rep,
    isogeny_from_kernel,
)
from adaptorsig.relation import gen_r
from adaptorsig.sig import PlainSignature, challenge, challenge_walk, keygen, mu, sign, verify


def iter_kernel_candidates(E, degree, U, V):
    """Every order-`degree` kernel subgroup of E as a candidate chain.

    Yields (steps, codomain, image of U, image of V), enumerating prime
    powers in ascending order, each subgroup exactly once.  A walk's first
    step takes the canonical generators in order; a step below it takes
    the generators <P + [k]B> of _walks, so its kernel generator is not the
    canonical one.  U, V and their images are in int coordinates (None for
    O), pushed through each candidate's steps by Step.image.  Every
    candidate is finished, its leaf step built (see _candidates, which
    find_isogeny walks instead, with no images).
    """
    for steps, cur in map(dlog._finish, dlog._candidates(E, degree)):
        imgU, imgV = U, V
        for s in steps:
            imgU, imgV = s.image(imgU), s.image(imgV)
        yield steps, cur, imgU, imgV


def chain_doc(chain):
    """A chain as a document: its ends, degree and every step's degree,
    kernel generator and twist."""
    return {
        "domain": serial.curve_doc(chain.domain),
        "codomain": serial.curve_doc(chain.codomain),
        "degree": serial._hex(chain.degree),
        "steps": [
            {
                "ell": serial._hex(s.ell),
                "kernel": serial.point_doc(s.kernel),
                "u": serial.fp2_doc(s.u),
            }
            for s in chain.steps
        ],
    }


def test_decompose_trivial(t0):
    E = t0.e0
    U, V = canonical_torsion_basis(E, t0.A, t0.group_order)
    d = decompose_2d(E, U, V, U, t0.A)
    assert (d.x, d.y) == (1, 0)


def test_decompose_constructed(t0):
    E = t0.e0
    U, V = canonical_torsion_basis(E, t0.C, t0.group_order)
    T = E.add(E.mul(3 % t0.C, U), E.mul(5 % t0.C, V))
    d = decompose_2d(E, U, V, T, t0.C)
    assert (d.x, d.y) == (3 % t0.C, 5 % t0.C)


@pytest.mark.parametrize("which", ["A", "C", "AC"])
def test_decompose_roundtrip_random(t0, which):
    N = {"A": t0.A, "C": t0.C, "AC": t0.A * t0.C}[which]
    E = t0.e0
    U, V = canonical_torsion_basis(E, N, t0.group_order)
    rng = random.Random(N)
    for _ in range(1000):
        x, y = rng.randrange(N), rng.randrange(N)
        T = E.add(E.mul(x, U), E.mul(y, V))
        d = decompose_2d(E, U, V, T, N)
        assert (d.x, d.y) == (x, y)
        assert E.add(E.mul(d.x, U), E.mul(d.y, V)) == T


def test_decompose_rejects_dependent_basis(t0):
    E = t0.e0
    U, V = canonical_torsion_basis(E, t0.A, t0.group_order)
    with pytest.raises(NotABasis):
        decompose_2d(E, U, E.mul(3, U), V, t0.A)
    # on E[A*C], each prime on its own: [C]V + [A]U is independent of U at 2
    # but not at 3, and [2]V drops order at 2 only
    N = t0.A * t0.C
    U, V = canonical_torsion_basis(E, N, t0.group_order)
    for W in (E.add(E.mul(t0.C, V), E.mul(t0.A, U)), E.mul(2, V)):
        with pytest.raises(NotABasis):
            decompose_2d(E, U, W, U, N)


def test_decompose_rejects_wrong_order(t0):
    E = t0.e0
    U, V = canonical_torsion_basis(E, t0.A, t0.group_order)
    W, _ = canonical_torsion_basis(E, t0.C, t0.group_order)
    with pytest.raises(OrderMismatch):
        decompose_2d(E, U, V, W, t0.A)


def test_decompose_rejects_unkilled_basis_points(t0):
    E = t0.e0
    U, V = canonical_torsion_basis(E, t0.A, t0.group_order)
    W, _ = canonical_torsion_basis(E, t0.C, t0.group_order)
    for args in ((W, V, U), (U, W, U), (U, E.add(V, W), U)):
        with pytest.raises(OrderMismatch):
            decompose_2d(E, *args, t0.A)
    # a dependent basis and a point that A does not kill: the order wins
    with pytest.raises(OrderMismatch):
        decompose_2d(E, U, E.mul(3, U), W, t0.A)


@pytest.mark.parametrize("N,adds", [(128, 40), (384, 76)])
def test_decompose_order_check_reuses_the_projections(t0, monkeypatch, N, adds):
    """T = [5]U + [7]V on E0: the entry check is [2] times the projections
    of U and V plus T's first lookup, where [N]U, [N]V and [N]T would take
    21 additions at N = 128 and 27 at N = 384, and each prime's table forms
    only the ell^2 sums it stores.  The reconstruction check is one joint
    ladder: U + V, two doublings and two additions, 5 where [5]U, [7]V and
    their sum took 8.  Additions are counted when both operands are
    finite."""
    E = t0.e0
    U, V = canonical_torsion_basis(E, N, t0.group_order)
    T = E.add(E.mul(5, U), E.mul(7, V))
    calls = []
    chord = curve._chord

    def counted_chord(p, a0, a1, P, Q):
        if not (P is None or Q is None):
            calls.append(1)
        return chord(p, a0, a1, P, Q)

    monkeypatch.setattr(curve, "_chord", counted_chord)
    monkeypatch.setattr(dlog, "_chord", counted_chord)
    d = decompose_2d(E, U, V, T, N)
    assert (d.x, d.y) == (5, 7)
    assert len(calls) == adds


def test_evaluate_rep_matches_chain(t0, rng):
    E = t0.e0
    n = t0.group_order
    P5, Q5 = canonical_torsion_basis(E, 5, n)
    chain = isogeny_from_kernel(E, [E.add(P5, Q5)], 5)
    rep = efficient_rep(chain, t0.A)
    U, V = rep.basis
    for _ in range(20):
        X = E.add(E.mul(rng.randrange(t0.A), U), E.mul(rng.randrange(t0.A), V))
        assert evaluate_rep(rep, [X]) == (chain.evaluate(X),)


def test_joint_ladder_is_two_ladders_and_a_sum(t0, rng):
    """curve._joint(x, P, y, Q) equals Curve.mul and Curve.add, for the
    scalars 0, 1, N - 1 and random ones, and for P or Q at O and P = -Q."""
    E, N = t0.e0, t0.A * t0.C
    U, V = canonical_torsion_basis(E, N, t0.group_order)
    O = Point.infinity()
    scalars = [0, 1, 2, N - 1, rng.randrange(N), rng.randrange(N)]
    for P, Q in ((U, V), (O, V), (U, O), (O, O), (U, E.neg(U)), (V, V)):
        for x in scalars:
            for y in scalars:
                joint = _point(E.p, curve._joint(E, x, _coords(P), y, _coords(Q)))
                assert joint == E.add(E.mul(x, P), E.mul(y, Q))


@pytest.mark.parametrize("N", ["A", "C", "AC"])
def test_decomposing_points_together_is_decomposing_each(t0, rng, N):
    """dlog._decompose of a list equals decompose_2d point by point, on O,
    the basis, -U, [N-1]U + V and random points; evaluate_rep of the list
    equals [x]T1 + [y]T2 by Curve.mul and Curve.add on each point's
    coefficients."""
    N = {"A": t0.A, "C": t0.C, "AC": t0.A * t0.C}[N]
    E = t0.e0
    U, V = canonical_torsion_basis(E, N, t0.group_order)
    Ts = [Point.infinity(), U, V, E.neg(U), E.add(E.mul(N - 1, U), V)]
    Ts += [E.add(E.mul(rng.randrange(N), U), E.mul(rng.randrange(N), V)) for _ in range(4)]
    coeffs = [(d.x, d.y) for d in (decompose_2d(E, U, V, T, N) for T in Ts)]
    assert dlog._decompose(E, U, V, Ts, N) == coeffs
    P5, Q5 = canonical_torsion_basis(E, 5, t0.group_order)
    chain = isogeny_from_kernel(E, [E.add(P5, Q5)], 5)
    rep = efficient_rep(chain, N)
    E2, (T1, T2) = rep.codomain, rep.images
    expected = tuple(E2.add(E2.mul(x, T1), E2.mul(y, T2)) for x, y in coeffs)
    assert evaluate_rep(rep, Ts) == expected == tuple(map(chain.evaluate, Ts))


def test_decomposing_points_together_reports_as_each_would(t0):
    """The first point that N does not kill raises OrderMismatch wherever it
    stands in the list, and a dependent basis raises NotABasis for killed
    points, as decompose_2d does on them one by one."""
    E, A = t0.e0, t0.A
    U, V = canonical_torsion_basis(E, A, t0.group_order)
    W, _ = canonical_torsion_basis(E, t0.C, t0.group_order)
    for Ts in ([W, U], [U, W], [V, U, W]):
        with pytest.raises(OrderMismatch):
            dlog._decompose(E, U, V, Ts, A)
    with pytest.raises(NotABasis):
        dlog._decompose(E, U, E.mul(3, U), [U, V], A)


def test_candidate_counts_match_closed_form(t0):
    E = t0.e0
    n = t0.group_order
    U, V = canonical_torsion_basis(E, t0.A, n)
    for degree in (3, 9, 5, 35, 45):
        actual = sum(1 for _ in iter_kernel_candidates(E, degree, _coords(U), _coords(V)))
        assert actual == count_kernel_candidates(degree)
    assert count_kernel_candidates(3675) == 4 * 31 * 57 == 7068


def test_recover_degree9_dual_witness(t1):
    """The extraction-shaped recovery: a degree-9 isogeny from its action
    on the A-torsion of its domain."""
    ps = t1
    E = ps.e0
    n = ps.group_order
    U9, V9 = canonical_torsion_basis(E, 9, n)
    w = isogeny_from_kernel(E, [E.add(U9, V9)], 9)
    rep = efficient_rep(w, ps.A)
    rec = recover_isogeny(rep)
    assert rec.codomain == rep.codomain
    for g in w.kernel_gens:
        assert rec.evaluate(g).is_inf
    assert count_kernel_candidates(9) == 13


def test_recover_sigma_tilde_shape(t0, rng):
    ps = t0
    E = ps.e0
    n = ps.group_order
    kp = keygen(ps, rng)
    # commitment, then response-shaped composite of degree 3675
    P5, Q5 = canonical_torsion_basis(E, 5, n)
    P7, Q7 = canonical_torsion_basis(E, 7, n)
    psi = isogeny_from_kernel(E, [P5, Q7], 35)
    P3t, _ = canonical_torsion_basis(kp.pk, 3, n)
    phi = isogeny_from_kernel(kp.pk, [P3t], 3)
    sigma = compose_chains(dual(psi), kp.sk, phi)
    assert sigma.degree == 3675
    rep = efficient_rep(sigma, ps.A)
    rec = recover_isogeny(rep)
    assert rec.evaluate(rep.basis[0]) == rep.images[0]
    assert rec.evaluate(rep.basis[1]) == rep.images[1]


def test_recover_rejects_negated_single_image(t0):
    ps = t0
    E = ps.e0
    n = ps.group_order
    P3, _ = canonical_torsion_basis(E, 3, n)
    P5, Q5 = canonical_torsion_basis(E, 5, n)
    P7, Q7 = canonical_torsion_basis(E, 7, n)
    # a prime degree, and a split one with [5] and [7] blocks
    for gens, degree in (([E.add(P5, E.mul(2, Q5))], 5), ([P3, P5, Q5, P7, Q7], 3675)):
        chain = isogeny_from_kernel(E, gens, degree)
        rep = efficient_rep(chain, ps.A)
        assert recover_isogeny(rep).evaluate(rep.basis[1]) == rep.images[1]
        bad = EfficientRep(
            rep.domain,
            rep.codomain,
            rep.degree,
            rep.order,
            rep.basis,
            (rep.images[0], rep.codomain.neg(rep.images[1])),
        )
        with pytest.raises(NotFound):
            recover_isogeny(bad)


def test_recover_ambiguity_bound(t0):
    ps = t0
    E = ps.e0
    n = ps.group_order
    U, V = canonical_torsion_basis(E, ps.C, n)
    P5, Q5 = canonical_torsion_basis(E, 5, n)
    chain = isogeny_from_kernel(E, [E.add(P5, Q5)], 5)
    # basis order C = 3: 4*5 >= 9 violates the uniqueness bound
    rep = EfficientRep(E, chain.codomain, 5, ps.C, (U, V),
                       (chain.evaluate(U), chain.evaluate(V)))
    with pytest.raises(AmbiguityBound):
        recover_isogeny(rep)
    # shared factor between degree and basis order is also rejected
    w3 = isogeny_from_kernel(E, [canonical_torsion_basis(E, 3, n)[0]], 3)
    repAC = efficient_rep(w3, ps.A * ps.C)
    with pytest.raises(AmbiguityBound):
        recover_isogeny(repAC)


def test_recover_kernel_equality_random(t0, rng):
    ps = t0
    E = ps.e0
    n = ps.group_order
    for _ in range(10):
        P3, Q3 = canonical_torsion_basis(E, 3, n)
        K = E.add(P3, E.mul(rng.randrange(3), Q3)) if rng.randrange(2) else Q3
        chain = isogeny_from_kernel(E, [K], 3)
        rep = efficient_rep(chain, ps.A)
        rec = recover_isogeny(rep)
        assert rec.evaluate(K).is_inf


def _full_walk(rep):
    """The exhaustive oracle: the first candidate of the whole kernel walk
    whose twisted images are rep.images."""
    T1, T2 = rep.images
    target = rep.codomain.j_invariant()
    basis = map(_coords, rep.basis)
    for steps, cur, curU, curV in iter_kernel_candidates(rep.domain, rep.degree, *basis):
        if cur.j_invariant() != target:
            continue
        curU, curV = _point(cur.p, curU), _point(cur.p, curV)
        for u in isomorphisms(cur, rep.codomain):
            if twist_point(curU, u) == T1 and twist_point(curV, u) == T2:
                out = steps[:-1] + [steps[-1].retwist(u)]
                return IsogenyChain(rep.domain, out)
    return None


def _assert_same_map(rep, rng):
    """Recover rep, check it against the full walk and return it."""
    found = recover_isogeny(rep)
    oracle = _full_walk(rep)
    assert oracle is not None
    assert found.codomain == oracle.codomain == rep.codomain
    assert found.degree == rep.degree
    for X, T in zip(rep.basis, rep.images):
        assert found.evaluate(X) == oracle.evaluate(X) == T
    for _ in range(8):
        P = rep.domain.random_point(rng)
        assert found.evaluate(P) == oracle.evaluate(P)
    return found


def _random_steps(E, ell, block, n, rng):
    """Steps of a random order-ell^2 kernel on E: E[ell] itself (a step and
    its exact dual), or a cyclic one (two steps that do not backtrack)."""
    U, V = canonical_torsion_basis(E, ell, n)
    s1 = Step(E, E.add(U, E.mul(rng.randrange(ell), V)), ell)
    if block:
        return [s1, dual_step(s1)]
    E1 = s1.codomain
    U1, V1 = canonical_torsion_basis(E1, ell, n)
    while True:
        s2 = Step(E1, E1.add(U1, E1.mul(rng.randrange(ell), V1)), ell)
        if not all(s2.evaluate(s1.evaluate(X)).is_inf for X in (U, V)):
            return [s1, s2]


@pytest.mark.parametrize("block5,block7", [(False, False), (True, False), (False, True), (True, True)])
def test_split_search_agrees_with_the_full_walk(t0, block5, block7):
    """The meet-in-the-middle search recovers the map the exhaustive walk
    finds, on random response-degree kernels with and without [5] and [7]."""
    ps = t0
    n = ps.group_order
    rng = random.Random(10 * block5 + block7)
    E = keygen(ps, rng).pk
    P3, Q3 = canonical_torsion_basis(E, 3, n)
    steps = [Step(E, E.add(P3, E.mul(rng.randrange(3), Q3)), 3)]
    steps += _random_steps(steps[-1].codomain, 5, block5, n, rng)
    steps += _random_steps(steps[-1].codomain, 7, block7, n, rng)
    chain = IsogenyChain(E, steps)
    _assert_same_map(efficient_rep(chain, ps.A), rng)


def _iota(P):
    """The automorphism (x, y) -> (-x, i*y) of y^2 = x^3 + x."""
    if P.is_inf:
        return P
    i = Fp2(P.x.p, 0, 1)
    return Point(-P.x, i * P.y)


@pytest.mark.parametrize("name", ["[35]", "[-35]", "iota o [35]", "iota o [-35]"])
def test_split_search_tries_every_twist_at_j_1728(t0, name):
    """Endomorphisms of E0 of degree 35^2, one per automorphism of E0: the
    join of [5] and [7] sits at j = 1728, where four twists meet, and each
    endomorphism needs a different one."""
    ps = t0
    n = ps.group_order
    E = ps.e0
    act = {
        "[35]": lambda P: E.mul(35, P),
        "[-35]": lambda P: E.mul(-35 % n, P),
        "iota o [35]": lambda P: _iota(E.mul(35, P)),
        "iota o [-35]": lambda P: _iota(E.mul(-35 % n, P)),
    }[name]
    U, V = canonical_torsion_basis(E, ps.A, n)
    rep = EfficientRep(E, E, 35 * 35, ps.A, (U, V), (act(U), act(V)))
    rng = random.Random(35)
    rec = _assert_same_map(rep, rng)
    for _ in range(8):
        P = E.random_point(rng)
        assert rec.evaluate(P) == act(P)


def test_forged_response_covers_every_candidate_from_181_halves(t0, forge, caplog, monkeypatch):
    """The search without the challenge, as find_isogeny(rep) runs it,
    rules a forged T0 response out against all 7 068 candidates of degree
    3^1*5^2*7^2 from 57 forward and 124 backward half-candidates (a strict
    check, handed the challenge, builds 88: see
    test_strict_checks_build_at_most_the_halves_of_their_split).

    The search pushes the basis through a forward candidate only at a
    j-match, once per candidate, on ints through Step.image, so it (basis
    cache cleared) makes no Point-level Step.evaluate and 40 int-to-Point
    conversions, each a Point that is kept: a canonical basis, the images
    of a j-matched forward candidate and their images through the dual.
    Steps take their kernels as ints, so no kernel is converted.  A walk
    takes a step's dual kernel only where it goes on.  A node reached by a
    step lists its subgroups from its backtrack generator and one scan
    point, and a matched backward leaf's dual kernel is the leaf's image of
    that generator, so neither asks for a basis; nor does a matched
    backward [5] block, its own dual: the search makes 46 _dual_kernel
    calls, 57 small_torsion_basis requests and 40 conversions.  Counted
    around a strict verify that ran this search (48 conversions then),
    converting the images once per j-matching pair made 52, dualizing the
    block step by step 48, 59 and 54, and a canonical basis at every node
    52, 95 and 116."""
    kp = keygen(t0, random.Random(21))
    sig = sign(kp, b"count", t0, random.Random(22))
    fake = forge(sig.rep, t0)
    evaluations, points, duals, bases = [], [], [], []
    evaluate, point = Step.evaluate, curve._point
    dual_kernel, small_basis = isogeny._dual_kernel, curve.small_torsion_basis
    monkeypatch.setattr(Step, "evaluate", lambda s, P: evaluations.append(1) or evaluate(s, P))
    for module in (curve, isogeny):
        monkeypatch.setattr(module, "_point", lambda p, R: points.append(1) or point(p, R))
    for module in (isogeny, dlog):
        monkeypatch.setattr(module, "_dual_kernel", lambda *a: duals.append(1) or dual_kernel(*a))
        monkeypatch.setattr(
            module, "small_torsion_basis", lambda *a: bases.append(1) or small_basis(*a)
        )
    canonical_torsion_basis.cache_clear()
    with caplog.at_level(logging.DEBUG, logger="adaptorsig.dlog"):
        assert not isogeny_exists(fake)
    assert "exhausted 7068 candidates (181 halves built)" in caplog.text
    assert (len(evaluations), len(points)) == (0, 40)
    assert (len(duals), len(bases)) == (46, 57)


def test_forged_response_builds_a_leaf_step_only_on_a_j_match(t0, forge, caplog, monkeypatch):
    """The search of the test above, without the challenge, counted by what
    it builds.  A leaf, the last step of a walk, is compared by the j-invariant
    of its codomain alone: 56 forward and 120 backward leaves give 176
    j-invariants from Vélu's formula and no Step.  Only the leaves of the 8
    j-matching pairs, 6 forward and 4 backward, are built, each once, and
    only the 6 forward candidates push the basis through their steps: no
    walk carries images, and a leafless candidate's j comes from its ints.
    A matched backward [5] block is its own dual, so the join builds no
    dual of its two steps.  So the search makes 69 Step constructions, 133
    Step.image calls and no Curve.j_invariant call.  Counted around a
    strict verify that ran this search (70, 133 and 1 then, with the
    challenge walk's step and its hash's j-invariant), carrying the images
    through every walk made 70, 201 and 6, dualizing the block 72, 204 and
    6, and building every leaf 238, 536 and 182."""
    kp = keygen(t0, random.Random(21))
    sig = sign(kp, b"count", t0, random.Random(22))
    fake = forge(sig.rep, t0)
    steps, images, js, leaves, pairs = [], [], [], [], []
    init, image, j_invariant = Step.__init__, Step.image, curve.Curve.j_invariant
    velu, isos = dlog._velu, dlog.isomorphisms

    def counted_init(self, domain, kernel, ell, *rest):
        steps.append((domain, kernel, ell))
        return init(self, domain, kernel, ell, *rest)

    def counted_velu(E, G, ell):
        leaves.append((E, G, ell))
        return velu(E, G, ell)

    monkeypatch.setattr(Step, "__init__", counted_init)
    monkeypatch.setattr(Step, "image", lambda s, P: images.append(1) or image(s, P))
    monkeypatch.setattr(curve.Curve, "j_invariant", lambda E: js.append(1) or j_invariant(E))
    monkeypatch.setattr(dlog, "_velu", counted_velu)
    monkeypatch.setattr(dlog, "isomorphisms", lambda E, F: pairs.append(1) or isos(E, F))
    canonical_torsion_basis.cache_clear()
    with caplog.at_level(logging.DEBUG, logger="adaptorsig.dlog"):
        assert not isogeny_exists(fake)
    assert "exhausted 7068 candidates (181 halves built)" in caplog.text
    assert (len(steps), len(images), len(js)) == (69, 133, 0)
    lazy = set(leaves)
    built_leaves = [key for key in steps if key in lazy]
    assert (len(leaves), len(pairs)) == (176, 8)
    assert len(set(built_leaves)) == len(built_leaves)
    # forward leaves are 7-steps out of the domain, backward ones 5-steps
    assert sorted(ell for _, _, ell in built_leaves) == [5] * 4 + [7] * 6


def test_cold_strict_check_basis_misses(t0, forge):
    """Bases a cold T0 strict check computes (basis cache cleared): the
    challenge walk's E[3] on pk and the response's E[A], then E[5] on pk,
    at the root of the backward 5^2 half, and E[7] at the root of the
    forward 7^2 half.  A node reached by a step completes its backtrack
    generator with one scan point instead, a matched backward [5] block is
    its own dual, and the join ends with the challenge's own steps, so a
    forged check computes no other basis: 4 in all, where a walk of ker
    phi_hat out of the codomain, as the start of the backward half, made 5,
    the search without the challenge 8 (one E[3] and four E[5] for the
    backward 3*5^2 half), dualizing the block 9 and a basis at every node
    40.  The honest check asks for a verdict and stops at its match: 4 in
    all, where building the returned chain added the forward leaf's
    canonical generator and the dual of the backward leaf."""
    kp = keygen(t0, random.Random(21))
    sig = sign(kp, b"count", t0, random.Random(22))
    canonical_torsion_basis.cache_clear()
    assert not verify(kp.pk, b"count", PlainSignature(sig.e1, forge(sig.rep, t0)), "strict", t0)
    assert canonical_torsion_basis.cache_info().misses <= 4
    canonical_torsion_basis.cache_clear()
    assert verify(kp.pk, b"count", sig, "strict", t0)
    assert canonical_torsion_basis.cache_info().misses <= 4


def _canonical_walk_keys(E, ell, r, U, V, back=None):
    """Reference enumeration: the cyclic walks of r steps of degree ell from
    E that do not backtrack, each node listing its subgroups by a canonical
    basis and dropping the backtrack one; a walk is keyed by its codomain
    and its images of U and V, which no other walk of its degree shares."""
    if r == 0:
        return [(E, U, V)]
    P, Q = canonical_torsion_basis(E, ell, E.p + 1)
    keys = []
    for G in [E.add(P, E.mul(k, Q)) for k in range(ell)] + [Q]:
        s = Step(E, G, ell)
        if back is not None and s.evaluate(back).is_inf:
            continue
        kernel = _point(E.p, isogeny._dual_kernel(s))
        keys += _canonical_walk_keys(s.codomain, ell, r - 1, s.evaluate(U), s.evaluate(V), kernel)
    return keys


@pytest.mark.parametrize("ell,r", [(2, 3), (3, 3), (5, 2), (7, 2)])
def test_completion_walk_lists_the_canonical_walks_subgroups(t0, ell, r):
    """The walks of _walks, whose nodes below the root list <P + [k]B> from
    one scan point P, are those of a canonical basis at every node, each
    once; the first steps keep the canonical order."""
    E = keygen(t0, random.Random(ell)).pk
    U, V = canonical_torsion_basis(E, t0.A, t0.group_order)
    want = _canonical_walk_keys(E, ell, r, U, V)
    got = []
    for steps, cur in map(dlog._finish, dlog._walks(E, ell, r, [], None, ())):
        chain = IsogenyChain(E, steps)
        got.append((cur, chain.evaluate(U), chain.evaluate(V)))
    assert len(got) == len(set(got)) == (ell + 1) * ell ** (r - 1)
    assert set(got) == set(want)
    firsts = []
    for steps, *_ in dlog._walks(E, ell, r, [], None, ()):
        if steps[0]._kernel not in firsts:
            firsts.append(steps[0]._kernel)
    assert firsts == dlog._subgroup_gens(E, ell)


@pytest.mark.parametrize("ell", [2, 3, 5, 7])
def test_subgroup_gens_are_the_kernel_index_generators(t0, ell):
    """The root of every search walk (_walks) lists its subgroups by the
    generators of _subgroup_gens: they are the kernel index's own,
    cyclic_kernel(E, ell, [i]) for i = 1 .. ell + 1 in int coordinates, on E0
    and on a public key."""
    pk = keygen(t0, random.Random(ell)).pk
    for E in (t0.e0, pk):
        index = [_coords(K) for K in isogeny.cyclic_kernel(E, ell, range(1, ell + 2))]
        assert dlog._subgroup_gens(E, ell) == index


# SHA-256 of the chain document that find_isogeny returns for the responses
# of the golden plain signature and pre-signature: which steps and twists
# the search picks is part of its behaviour
CHAIN_PINS = {
    "plain.json": "a8cc93b6315483b65725dfab6c2ded48024edb569a435fbe157f7ffc76e30c65",
    "presignature.json": "0b1ad54c545bed621f0416516f8bf936050897a4e9acb7207bae6ec6d8c93f00",
}


@pytest.mark.parametrize("name", sorted(CHAIN_PINS))
def test_search_returns_the_pinned_chain(name):
    vectors = Path(__file__).parent / "vectors" / "t0"

    def load(file):
        return serial.loads((vectors / file).read_bytes())

    ps = serial.parse_params(load("params.json"))
    if name == "plain.json":
        rep = serial.parse_signature(load(name), ps).rep
    else:
        s = serial.parse_statement(load("relation.json")["statement"], ps)
        rep = serial.parse_presig(load(name), ps, s).rep_tilde
    chain = find_isogeny(rep)
    digest = hashlib.sha256(serial.encode(chain_doc(chain))).hexdigest()
    assert digest == CHAIN_PINS[name]


def _cyclic_steps(E, ell, r, n, rng):
    """r random steps of degree ell from E that never backtrack: the steps
    of a cyclic kernel of order ell^r."""
    steps = []
    while len(steps) < r:
        U, V = canonical_torsion_basis(E, ell, n)
        k = rng.randrange(ell + 1)
        s = Step(E, V if k == ell else E.add(U, E.mul(k, V)), ell)
        if steps:
            prev = steps[-1]
            U0, V0 = canonical_torsion_basis(prev.domain, ell, n)
            if all(s.evaluate(prev.evaluate(X)).is_inf for X in (U0, V0)):
                continue
        steps.append(s)
        E = s.codomain
    return steps


def _seeded_t1_plain(t1):
    kp = keygen(t1, random.Random(31))
    return sign(kp, b"pin", t1, random.Random(32)).rep


def _seeded_t0_cyclic_27(t0):
    E = keygen(t0, random.Random(27)).pk
    chain = IsogenyChain(E, _cyclic_steps(E, 3, 3, t0.group_order, random.Random(27)))
    return efficient_rep(chain, t0.A)


# the same for seeded searches off the golden pair: an honest T1 plain
# response (degree 3^2*5^2*7^2), and a cyclic degree-27 chain at T0, whose
# walk of three 3-steps goes through nodes with two steps still to take
SEEDED_CHAIN_PINS = {
    "t1-plain": (_seeded_t1_plain, "cbb7b0063b443811499f9e0134ceb166bad32d4972086705ebb27033ec37da38"),
    "t0-cyclic-27": (
        _seeded_t0_cyclic_27,
        "1379a6714a09e1a580a7b6a0cbb182fa36a858f300c24d6889d8653a70e9cbb2",
    ),
}


@pytest.mark.parametrize("name", sorted(SEEDED_CHAIN_PINS))
def test_search_returns_the_pinned_seeded_chain(t0, t1, name):
    make, pin = SEEDED_CHAIN_PINS[name]
    rep = make(t1 if name.startswith("t1") else t0)
    chain = find_isogeny(rep)
    assert chain.codomain == rep.codomain and chain.degree == rep.degree
    digest = hashlib.sha256(serial.encode(chain_doc(chain))).hexdigest()
    assert digest == pin


def _session(ps, seed):
    """Keys, witness, statement, message and pre-signature of one seed."""
    rng = random.Random(seed)
    kp = keygen(ps, rng)
    w, s = gen_r(ps, rng)
    m = b"pin %d" % seed
    return kp, w, s, m, presign(kp, m, s, ps, rng)


def _recovery_log(caplog, check):
    """The log line of the one recovery that check() makes."""
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="adaptorsig.dlog"):
        check()
    (line,) = [r.getMessage() for r in caplog.records if r.name == "adaptorsig.dlog"]
    return line


@pytest.mark.parametrize("profile,shape,line", [
    ("t0", "pre", "exhausted 7068 candidates (88 halves built)"),
    ("t1", "pre", "exhausted 22971 candidates (88 halves built)"),
    ("t0", "adapted", "exhausted 22971 candidates (181 halves built)"),
])
def test_forged_ac_response_pins_the_backward_c_part(request, forge, caplog, profile, shape, line):
    """A strict check hands the search the challenge phi, so ker phi_hat,
    the 3^c-part of the backward half's kernel, is not enumerated: the
    backward half is the rest of it, out of pk, and the join ends with
    phi's own steps.  A pre-signature's backward 3^c*5^2 half is 5^2 out of
    pk: a forged check builds 57 forward and 31 backward halves, where
    enumerating the 3^c-part built 124 and 403 backward halves (181 and 460
    in all).  An adapted T0 signature (degree 3^2*5^2*7^2) has one of its
    backward 3-steps given and enumerates 3*5^2 out of pk: 57 + 124 = 181
    halves, not 460."""
    ps = request.getfixturevalue(profile)
    kp, w, s, m, pre = _session(ps, 5)
    if shape == "pre":
        fake = PreSignature(pre.e1, pre.proof, pre.epsi, pre.s, forge(pre.rep_tilde, ps))
        got = _recovery_log(caplog, lambda: preverify(kp.pk, m, s, fake, "strict", ps))
    else:
        full = adapt(pre, w, ps)
        fake = AdaptedSignature(full.e1, forge(full.rep, ps))
        got = _recovery_log(caplog, lambda: verify(kp.pk, m, fake, "strict", ps))
    assert line in got


@pytest.mark.parametrize("profile", ["t0", "t1", "t2", "t0-adapted"])
def test_pinned_search_returns_the_unpinned_chain(request, profile):
    """The oracle: handed the challenge walk, the search of a pre-signature
    (and of an adapted signature at T0) splits the degree as the search
    without it does, the challenge's D_phi in the backward half, and finds
    the response as tau followed by the challenge."""
    ps = request.getfixturevalue(profile[:2])
    for seed in (1, 2, 3):
        kp, w, s, m, pre = _session(ps, seed)
        rep = adapt(pre, w, ps).rep if profile.endswith("adapted") else pre.rep_tilde
        phi = challenge(kp.pk, pre.e1, m, ps)
        assert dlog._split(rep.degree, ps.d_phi) == dlog._split(rep.degree)
        assert isogeny_exists(rep, phi)


def _into(E2, ell):
    """The ell + 1 isogenies of degree ell into E2: the exact duals of the
    steps out of it."""
    return [dual(challenge_walk(E2, h, ell)) for h in range(1, ell + 2)]


@pytest.mark.parametrize("profile", ["t0", "t1"], ids=["t0-trivial", "t1-not-cyclic"])
def test_degenerate_scaled_images_take_the_unpinned_search(request, caplog, profile):
    """A degree-3^2*5^2*7^2 map on the AC-basis whose kernel's 3-part is
    E[3]: at T0 (3 || A*C) the images times A map E[3] to O, and at T1
    (9 || A*C) the images times A map E[9] onto a copy of E[3], which is not
    cyclic.  Without a challenge nothing is fixed, the backward 3^2*5^2 half
    is enumerated in full (13 * 31 = 403 halves), and the search still
    finds the map.  The map is [3] o sigma', so it ends with each of the
    four 3-isogenies phi into its codomain, and handed any of them the
    search finds it too."""
    ps = request.getfixturevalue(profile)
    rep = _degenerate_rep(ps)
    d2 = dlog._split(rep.degree)[1]
    assert d2 == 225
    chains = []
    line = _recovery_log(caplog, lambda: chains.append(find_isogeny(rep)))
    # "matched after (forward halves tried * per) of ... (halves built)"
    after, halves = map(int, re.search(r"after (\d+) of .*\((\d+) halves", line).groups())
    per = count_kernel_candidates(d2)
    assert (per, halves - after // per) == (403, 403)
    assert tuple(chains[0].evaluate(X) for X in rep.basis) == rep.images
    assert all(isogeny_exists(rep, phi) for phi in _into(rep.codomain, 3))


def _plain(ps, seed):
    """Key, message and honest plain signature of one seed."""
    kp = keygen(ps, random.Random(seed))
    m = b"plain %d" % seed
    return kp, m, sign(kp, m, ps, random.Random(100 + seed))


def _halves(line):
    return int(re.search(r"\((\d+) halves built\)", line).group(1))


@pytest.mark.parametrize("profile,forged", [("t0", 181), ("t1", 460), ("t2", 1297)])
def test_plain_check_builds_the_challenge_branch_first(request, forge, caplog, profile, forged):
    """A plain response is phi o sk o dual(psi0), so every match ends with
    the challenge walk phi, which the join composes instead of searching:
    of the backward 3^c*5^2 candidates only the 31 5^2-kernels out of pk
    are built, and a strict check (basis cache cleared) builds at most
    31 + 57 = 88 halves, honest or forged.  The search
    without the challenge builds every backward half (124, 403 and 1 240),
    and rules a forgery out from 181, 460 and 1 297 halves."""
    ps = request.getfixturevalue(profile)
    for seed in range(1, 9):
        kp, m, sig = _plain(ps, seed)
        canonical_torsion_basis.cache_clear()
        verdicts = []
        line = _recovery_log(caplog, lambda: verdicts.append(verify(kp.pk, m, sig, "strict", ps)))
        assert verdicts == [True] and "matched" in line and _halves(line) <= 88
    fake = forge(sig.rep, ps)
    line = _recovery_log(caplog, lambda: verify(kp.pk, m, PlainSignature(sig.e1, fake), "strict", ps))
    assert "exhausted" in line and _halves(line) == 88
    line = _recovery_log(caplog, lambda: isogeny_exists(fake))
    assert "exhausted" in line and _halves(line) == forged


@pytest.mark.parametrize("profile", ["t0", "t1", "t2"])
def test_preferred_branch_returns_the_chain_of_the_single_pass(request, caplog, profile):
    """The oracle: handed the challenge walk, the search of a plain
    response finds it from at most 31 + 57 halves.  Handed a walk whose
    dual names another branch out of the codomain, it finds nothing after
    31 + 57 halves: the response's 3^c-part is cyclic, so it ends with one
    walk of degree D_phi alone."""
    ps = request.getfixturevalue(profile)
    for seed in (1, 2, 3):
        kp, m, sig = _plain(ps, seed)
        rep = sig.rep
        phi = challenge(kp.pk, sig.e1, m, ps)
        found = []
        line = _recovery_log(caplog, lambda: found.append(isogeny_exists(rep, phi)))
        assert found == [True] and "matched" in line and _halves(line) <= 88
        back = phi.steps[-1].domain.j_invariant()
        other = next(
            walk
            for h in range(1, mu(ps.d_phi) + 1)
            for walk in [challenge_walk(rep.codomain, h, ps.d_phi)]
            if walk.steps[0].codomain.j_invariant() != back
        )
        found = []
        line = _recovery_log(caplog, lambda: found.append(isogeny_exists(rep, dual(other))))
        assert found == [False] and "exhausted" in line and _halves(line) == 88


@pytest.mark.parametrize("profile", ["t0", "t1", "t2"])
def test_response_of_degree_d_phi_is_the_challenge_after_an_automorphism(request, profile):
    """A response of degree D_phi is phi o tau with tau an automorphism of
    pk: the split is (1, D_phi), so the one forward candidate, the domain,
    meets the one backward candidate, pk, and the join is phi's own steps.
    For two challenge indices, on the A- and the AC-basis, the verdict
    finds phi; with both images negated too, as [-1] is an automorphism of
    pk; with one image negated, nothing."""
    ps = request.getfixturevalue(profile)
    pk = keygen(ps, random.Random(37)).pk
    assert dlog._split(ps.d_phi, ps.d_phi) == (1, ps.d_phi)
    for h in (1, 2):
        phi = challenge_walk(pk, h, ps.d_phi)
        for order in (ps.A, ps.A * ps.C):
            rep = efficient_rep(phi, order)
            assert isogeny_exists(rep, phi)
            assert isogeny_exists(_negated(rep, 2), phi)
            assert not isogeny_exists(_negated(rep, 1), phi)


def _line(caplog, check):
    """The recovery log line of check() without its timing."""
    return _recovery_log(caplog, check).rsplit(", ", 1)[0]


def _degenerate_rep(ps):
    """The degenerate scaled-image representation of
    test_degenerate_scaled_images_take_the_unpinned_search."""
    n = ps.group_order
    rng = random.Random(9)
    E = keygen(ps, rng).pk
    steps = _random_steps(E, 3, True, n, rng)
    steps += _random_steps(steps[-1].codomain, 5, False, n, rng)
    steps += _random_steps(steps[-1].codomain, 7, False, n, rng)
    return efficient_rep(IsogenyChain(E, steps), ps.A * ps.C)


def _negated(rep, count):
    """rep with its first `count` images negated."""
    images = tuple(rep.codomain.neg(T) if k < count else T for k, T in enumerate(rep.images))
    return EfficientRep(rep.domain, rep.codomain, rep.degree, rep.order, rep.basis, images)


def _on_twist(rep, u):
    """rep moved onto the twist of its domain by u: the images of the
    twisted curve's canonical basis under rep after the isomorphism back."""
    E = twist_curve(rep.domain, u)
    basis = canonical_torsion_basis(E, rep.order, E.p + 1)
    images = evaluate_rep(rep, [twist_point(X, u.inv()) for X in basis])
    return EfficientRep(E, rep.codomain, rep.degree, rep.order, basis, images)


@pytest.mark.parametrize("profile", ["t0", "t1"])
def test_verdict_is_find_isogenys(request, forge, caplog, profile):
    """The oracles: handed the challenge walk phi, isogeny_exists(rep, phi)
    is True exactly when find_isogeny(rep) returns a chain, which asks for
    any isogeny of the degree; and isogeny_exists(rep) without phi writes
    the log line of find_isogeny(rep) up to its timing.  The
    representations: honest plain,
    pre- and adapted responses; the adapted one and the plain one on a
    twist of E1; their forgeries; both images negated, which [-1] after the
    response matches; one image negated, which nothing matches; and the
    degenerate scaled images, handed a 3-isogeny into their codomain."""
    ps = request.getfixturevalue(profile)
    kp, m, sig = _plain(ps, 1)
    phi = challenge(kp.pk, sig.e1, m, ps)
    qk, w, s, n, pre = _session(ps, 2)
    psi = challenge(qk.pk, pre.e1, n, ps)
    full = adapt(pre, w, ps).rep
    u = Fp2(ps.p, 2, 1)
    honest = [(sig.rep, phi), (pre.rep_tilde, psi), (full, psi)]
    honest += [(_on_twist(sig.rep, u), phi), (_on_twist(full, u), psi)]
    cases = honest + [(forge(rep, ps), chain) for rep, chain in honest]
    cases += [(_negated(sig.rep, 2), phi), (_negated(pre.rep_tilde, 2), psi)]
    cases += [(_negated(sig.rep, 1), phi), (_negated(full, 1), psi)]
    degenerate = _degenerate_rep(ps)
    cases += [(degenerate, _into(degenerate.codomain, 3)[0])]
    verdicts = []
    for rep, chain in cases:
        found = [isogeny_exists(rep, chain)]
        unpinned = _line(caplog, lambda: found.append(isogeny_exists(rep)))

        def build():
            try:
                found.append(find_isogeny(rep))
            except NotFound:
                found.append(None)

        assert _line(caplog, build) == unpinned
        assert found[0] is found[1] is (found[2] is not None)
        verdicts.append(found[0])
    assert verdicts == [True] * 5 + [False] * 5 + [True, True, False, False, True]


@pytest.mark.parametrize("profile,adapted", [("t0", 181), ("t1", 460), ("t2", 1297)])
def test_strict_checks_build_at_most_the_halves_of_their_split(request, forge, caplog, profile, adapted):
    """Handed the challenge, a strict check searches only tau in phi o tau:
    its halves are those of _split with D_phi in the backward half, the
    degree-(d2/D_phi) kernels out of pk, so count(d1) + count(d2/D_phi),
    read off the closed-form counts.  That is
    57 + 31 = 88 for a plain or pre-signature (degree 3^c*5^2*7^2) and
    57 + count(3^c*5^2) for an adapted one (3^(2c)*5^2*7^2).  On seeds 1-8
    an honest check of every shape builds at most that many, and a forged
    one exactly that many: it rules every candidate out."""
    ps = request.getfixturevalue(profile)
    count = count_kernel_candidates

    def bound(degree):
        d1, d2 = dlog._split(degree, ps.d_phi)
        return count(d1) + count(d2 // ps.d_phi)

    q = ps.B * ps.d_tau * ps.d_phi
    assert (bound(q), bound(q * ps.C)) == (88, adapted)
    for seed in range(1, 9):
        kp, m, sig = _plain(ps, seed)
        qk, w, s, n, pre = _session(ps, seed)
        full = adapt(pre, w, ps)
        fakes = (
            PlainSignature(sig.e1, forge(sig.rep, ps)),
            PreSignature(pre.e1, pre.proof, pre.epsi, pre.s, forge(pre.rep_tilde, ps)),
            AdaptedSignature(full.e1, forge(full.rep, ps)),
        )
        for honest, (plain, presig, signature) in ((True, (sig, pre, full)), (False, fakes)):
            checks = (
                (88, lambda: verify(kp.pk, m, plain, "strict", ps)),
                (88, lambda: preverify(qk.pk, n, s, presig, "strict", ps)),
                (adapted, lambda: verify(qk.pk, n, signature, "strict", ps)),
            )
            for most, check in checks:
                verdicts = []
                line = _recovery_log(caplog, lambda: verdicts.append(check()))
                assert verdicts == [honest]
                assert _halves(line) <= most if honest else _halves(line) == most


@pytest.mark.parametrize("profile,plain,pre", [("t0", 4, 4), ("t1", 4, 4), ("t2", 4, 4)])
def test_honest_strict_check_builds_no_chain(request, monkeypatch, profile, plain, pre):
    """An honest strict verify or preverify asks isogeny_exists for its
    verdict, which stops at the match and takes dual() of no chain: the
    join it tests is the backward candidate's exact dual (_hat).  So with
    the basis cache cleared it computes exactly `plain` and `pre` bases on
    each of seeds 1-8.  Those are the challenge's D_phi-basis on pk, the
    response's basis, E[5] on pk at the root of the backward 5^2 half and
    E[7] on the domain at the root of the forward 7^2 half: 4 at every
    profile, since the join follows the backward half with the challenge's
    own steps and walks nothing out of the codomain.  Starting the backward
    half with a walk of ker phi_hat, each step on a canonical generator,
    computed 4 + c (E[3] on each of its c nodes), and a plain check that
    built the challenge's branch first, 5 at each profile.  find_isogeny(rep)
    on the same responses, which searches without the challenge and returns
    the join it verified, computes 6, 15 and 42 at T0, T1 and T2 (8, 18 and
    46 when it put the forward steps on canonical generators and took
    dual() of the backward chain)."""
    ps = request.getfixturevalue(profile)
    checks = []
    for seed in range(1, 9):
        kp, m, sig = _plain(ps, seed)
        checks.append((plain, lambda kp=kp, m=m, sig=sig: verify(kp.pk, m, sig, "strict", ps)))
        kp, _, s, m, presig = _session(ps, seed)
        checks.append(
            (pre, lambda kp=kp, m=m, s=s, p=presig: preverify(kp.pk, m, s, p, "strict", ps))
        )
    built = []
    full_dual = isogeny.dual
    for name, module in list(sys.modules.items()):
        if name.startswith("adaptorsig") and getattr(module, "dual", None) is full_dual:
            monkeypatch.setattr(module, "dual", lambda c: built.append(1) or full_dual(c))
    for bases, check in checks:
        canonical_torsion_basis.cache_clear()
        assert check()
        assert canonical_torsion_basis.cache_info().misses == bases
    assert built == []


@pytest.mark.parametrize("profile", ["t0", "t1", "t2"])
def test_strict_checks_push_no_identity_through_a_step(request, forge, monkeypatch, profile):
    """No walk carries basis images: the basis goes through a forward
    candidate's steps only at a j-match, so a strict verify or preverify of
    an honest or forged plain, pre- or adapted signature never hands O
    (None) to Step.image, where a backward walk carried (None, None)
    through each of its steps."""
    ps = request.getfixturevalue(profile)
    kp, m, sig = _plain(ps, 1)
    qk, w, s, n, pre = _session(ps, 2)
    full = adapt(pre, w, ps)
    fakes = (
        PlainSignature(sig.e1, forge(sig.rep, ps)),
        PreSignature(pre.e1, pre.proof, pre.epsi, pre.s, forge(pre.rep_tilde, ps)),
        AdaptedSignature(full.e1, forge(full.rep, ps)),
    )
    pushed = []
    image = Step.image
    monkeypatch.setattr(Step, "image", lambda st, P: pushed.append(P) or image(st, P))
    for honest, (plain, presig, adapted) in ((True, (sig, pre, full)), (False, fakes)):
        assert verify(kp.pk, m, plain, "strict", ps) is honest
        assert preverify(qk.pk, n, s, presig, "strict", ps) is honest
        assert verify(qk.pk, n, adapted, "strict", ps) is honest
    assert pushed and None not in pushed
