import dataclasses
import itertools
import random
import time

import pytest

from adaptorsig import curve, field, isogeny
from adaptorsig.curve import (
    Curve,
    Point,
    _coords,
    canonical_torsion_basis,
    factorize,
    has_exact_order,
    point_order,
)
from adaptorsig.errors import BadKernel, DomainMismatch, IndexOutOfRange, NoBasis, NonCoprimeDegree
from adaptorsig.field import Fp2
from adaptorsig.isogeny import (
    EfficientRep,
    Step,
    compose_chains,
    cyclic_parts,
    dual,
    dual_step,
    efficient_rep,
    isogeny_from_kernel,
    pull_back,
    push_forward,
    walk_cyclic_tree,
)
from adaptorsig.orientation import oriented_kernel
from adaptorsig.relation import gen_r
from adaptorsig.sig import challenge_walk, cyclic_kernel, keygen, mu


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
    A = t0.A
    UA, VA = canonical_torsion_basis(E, A, t0.group_order)
    with pytest.raises(BadKernel, match="does not divide"):
        isogeny_from_kernel(E, [VA], A // 2)
    # the step on <[A/2]VA> leaves UA one factor 2 more than the degree left:
    # its run ends early and pushes it on with order 2
    with pytest.raises(BadKernel, match="larger subgroup"):
        isogeny_from_kernel(E, [E.mul(A // 2, VA), UA], A)


def test_bad_kernel_messages(t0):
    """A walk that fails on a bad kernel reports what is wrong with it."""
    E, n, A = t0.e0, t0.group_order, t0.A
    UA, VA = canonical_torsion_basis(E, A, n)
    K5, _ = canonical_torsion_basis(E, 5, n)
    cases = [
        ([E.mul(2, VA)], A, "no kernel point of order 2 available"),
        ([VA], A // 2, "does not divide"),
        ([Point.infinity()], A, "no kernel point of order 2 available"),
        ([UA, VA], A, "larger subgroup"),
        ([K5], 35, "no kernel point of order 7 available"),
        ([K5], 7, "does not divide"),
    ]
    for gens, degree, message in cases:
        with pytest.raises(BadKernel, match=message):
            isogeny_from_kernel(E, gens, degree)


def tree_inputs(ps):
    """Curves and points for walk_cyclic_tree: E0 and a statement curve
    E_w, with the oriented B-kernel of a choice vector, which a proof
    pushes, and the first canonical A-basis point, which some masks kill."""
    rng = random.Random(31)
    _, s = gen_r(ps, rng)
    for E, orientation in ((ps.e0, ps.orientation), (s.ew, s.oriented_image)):
        bits = [rng.randrange(1, 3) for _ in range(ps.t)]
        P = canonical_torsion_basis(E, ps.A, E.p + 1)[0]
        yield E, [*oriented_kernel(orientation, bits), P]


@pytest.mark.parametrize("profile", ["t0", "t1", "t2"])
def test_cyclic_tree_gives_the_challenge_walks(request, profile):
    """Every member of walk_cyclic_tree reaches the codomain of its
    challenge_walk and the images its evaluate gives, equal as values: the
    tree builds the same steps.  Index lists repeat indices and take both
    index families and the boundary indices 1, A, A + 1 and mu(A)."""
    ps = request.getfixturevalue(profile)
    A = ps.A
    rng = random.Random(32)
    lists = [
        [1, A, A + 1, mu(A), 1, mu(A)],
        [rng.randrange(1, mu(A) + 1) for _ in range(24)],
        [A + 1, A + 2, A + 1, 2, 3, 2],
    ]
    for E, pts in tree_inputs(ps):
        for hs in lists:
            assert len({(X, Y) for X, Y, _ in cyclic_parts(E, A, hs)}) == 2
            for h, (F, images) in zip(hs, walk_cyclic_tree(E, A, hs, pts), strict=True):
                mask = challenge_walk(E, h, A)
                assert (F, images) == (mask.codomain, tuple(map(mask.evaluate, pts)))


def test_cyclic_tree_checks_its_indices_and_points(t0):
    """An index outside [1, mu(A)] or a degree that is no prime power raises
    IndexOutOfRange, alone or among good indices, a point off the curve
    raises BadKernel, and no index gives no walk."""
    E, A = t0.e0, t0.A
    for D, hs in ((A, [0]), (A, [1, 0]), (A, [mu(A) + 1]), (A, [2, mu(A) + 1]), (35, [1])):
        with pytest.raises(IndexOutOfRange):
            walk_cyclic_tree(E, D, hs, [])
    off = Point(Fp2.zero(E.p), Fp2.one(E.p))
    assert not E.on_curve(off)
    with pytest.raises(BadKernel):
        walk_cyclic_tree(E, A, [1], [off])
    assert walk_cyclic_tree(E, A, [], []) == []


def test_the_index_is_read_once_for_a_list(t0, monkeypatch):
    """cyclic_parts, cyclic_kernel and walk_cyclic_tree on every index up to
    mu(A) at T0 equal the one-index cyclic_parts: its (X, Y, t), X + [t]Y
    and the walk isogeny_from_kernel makes of it.  A list looks the
    canonical basis up once and computes [2]P once."""
    E, A = t0.e0, t0.A
    hs = list(range(1, mu(A) + 1))
    one = [cyclic_parts(E, A, [h])[0] for h in hs]
    kernels = [E.add(X, E.mul(t, Y)) for X, Y, t in one]
    P = canonical_torsion_basis(E, A, E.p + 1)[0]
    lookups, doublings = [], []
    basis, mul = isogeny.canonical_torsion_basis, Curve.mul
    monkeypatch.setattr(isogeny, "canonical_torsion_basis", lambda *a: lookups.append(1) or basis(*a))
    monkeypatch.setattr(Curve, "mul", lambda E, k, X: doublings.append(k) or mul(E, k, X))
    assert cyclic_parts(E, A, hs) == one
    assert (lookups, doublings) == ([1], [2])
    assert cyclic_kernel(E, A, hs) == kernels
    monkeypatch.undo()
    pts = [P, E.random_point(random.Random(33))]
    for (F, images), K in zip(walk_cyclic_tree(E, A, hs, pts), kernels, strict=True):
        mask = isogeny_from_kernel(E, [K], A)
        assert (F, images) == (mask.codomain, tuple(map(mask.evaluate, pts)))


def fp2_add(E, P, Q):
    """The affine chord-and-tangent law on Fp2 objects, apart from the
    library's integer formulas."""
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


def translation_sum_image(step, P):
    """Vélu's translation sums: x + sum(x(P+T) - x(T)) and the same for y
    over every nonzero kernel point T, then the u-twist; the independent
    oracle for Step.evaluate's rational map, on Fp2 objects."""
    if P.is_inf:
        return P
    E, K, u = step.domain, step.kernel, step.u
    x, y = P.x, P.y
    T = K
    for _ in range(step.ell - 1):
        S = fp2_add(E, P, T)
        if S.is_inf:
            return Point.infinity()
        x = x + S.x - T.x
        y = y + S.y - T.y
        T = fp2_add(E, T, K)
    return Point(u**2 * x, u**3 * y)


def point_of_order(E, N, group_order, rng):
    while True:
        K = E.mul(group_order // N, E.random_point(rng))
        if has_exact_order(E, K, N):
            return K


@pytest.mark.parametrize("profile", ["t0", "t1", "t2"])
@pytest.mark.parametrize("ell", [2, 3, 5, 7])
def test_step_matches_translation_sums_at_every_profile(profile, ell, request, rng):
    ps = request.getfixturevalue(profile)
    E = ps.e0
    K = point_of_order(E, ell, ps.group_order, rng)
    s = Step(E, K, ell, Fp2(ps.p, 3, 5))
    assert all(s.evaluate(E.mul(k, K)).is_inf for k in range(ell + 1))
    for _ in range(8):
        P = E.random_point(rng)
        assert s.evaluate(P) == translation_sum_image(s, P)


def test_hot_paths_build_fp2_only_at_the_edges(t0, t1, monkeypatch):
    """Fp2 objects are built on exit, not per loop iteration: [k]P builds
    its two coordinates, a twisted step's image the same, and a Miller loop
    its one value whatever its length."""
    builds = []
    init = Fp2.__init__

    def counted(self, *args):
        builds.append(1)
        init(self, *args)

    def count(f, *args):
        builds.clear()
        monkeypatch.setattr(Fp2, "__init__", counted)
        f(*args)
        monkeypatch.undo()
        return len(builds)

    rng = random.Random(5)
    E = t1.e0
    assert count(E.mul, rng.getrandbits(60) | 1 << 59, E.random_point(rng)) <= 2
    for ell in (2, 7):
        s = Step(E, point_of_order(E, ell, t1.group_order, rng), ell, Fp2(t1.p, 3, 5))
        assert count(s.evaluate, E.random_point(rng)) <= 4
    E = t0.e0
    millers = set()
    for N in (t0.C, t0.A, t0.A * t0.C):
        U, V = canonical_torsion_basis(E, N, t0.group_order)
        millers.add(count(curve._miller, E, _coords(U), N, _coords(V)))
    assert len(millers) == 1


@pytest.mark.parametrize("ell", [2, 3, 5, 7])
def test_rational_map_matches_translation_sums(t0, rng, ell):
    n = t0.group_order
    for E in (t0.e0, keygen(t0, rng).pk):
        K = point_of_order(E, ell, n, rng)
        for u in (Fp2.one(t0.p), Fp2(t0.p, 3, 5)):
            s = Step(E, K, ell, u)
            pts = [E.random_point(rng) for _ in range(20)]
            pts += [E.mul(k, K) for k in range(ell)]  # every kernel point and inf
            for P in pts:
                img = s.evaluate(P)
                assert img == translation_sum_image(s, P)
                assert s.codomain.on_curve(img)


@pytest.mark.parametrize("ell", [2, 3, 5, 7])
def test_step_rejects_generators_of_other_orders(t0, rng, ell):
    E = t0.e0
    n = t0.group_order
    p = t0.p
    if ell == 2:
        bad = [next(P for P in E.scan_points() if not P.y.is_zero())]
    else:
        other = 5 if ell == 3 else 3
        orders = (2 * ell, 4 * ell, 2, 4, other)  # order ell*m, then coprime to ell
        bad = [point_of_order(E, m, n, rng) for m in orders]
    bad.append(Point(Fp2(p, 1), Fp2(p, 1)))  # off the curve
    for K in bad:
        with pytest.raises(BadKernel):
            Step(E, K, ell)


def reference_isogeny_from_kernel(E, gens, degree):
    """isogeny_from_kernel's loop with every order recomputed by point_order."""
    work = [(g, point_order(E, g, degree)) for g in gens if not g.is_inf]
    cur, D = E, degree
    while D > 1:
        ell = min(factorize(D))
        g, m = next((g, m) for g, m in work if m % ell == 0)
        step = Step(cur, cur.mul(m // ell, g), ell)
        cur = step.codomain
        imgs = [(step.evaluate(g), m) for g, m in work]
        work = [(g, point_order(cur, g, m)) for g, m in imgs if not g.is_inf]
        D //= ell
        yield step


def non_cyclic_kernels(t0):
    """(gens, degree) pairs that mix primes or span non-cyclic subgroups."""
    E = t0.e0
    n = t0.group_order
    A = t0.A
    U5, V5 = canonical_torsion_basis(E, 5, n)
    P7, _ = canonical_torsion_basis(E, 7, n)
    UA, VA = canonical_torsion_basis(E, A, n)
    UC, _ = canonical_torsion_basis(E, t0.C, n)
    return [
        ([U5, V5], 25),
        ([U5, V5, P7], 175),
        ([E.add(U5, P7), V5], 175),  # a generator of order 7 skips the 5-steps
        ([U5, E.add(E.mul(2, U5), P7)], 35),  # a generator that loses its 5
        ([E.add(UA, UC)], A * t0.C),  # the 2-run pushes its generator on
        ([E.mul(A // 2, UA), UA], A),  # a generator inside another's span
        ([UA, E.mul(A // 2, VA)], 2 * A),  # 2-power kernel of two generators
    ]


def assert_steps_match_reference(E, gens, degree):
    """Compare every step (prime, kernel point, codomain, twist); returns
    the chain and the reference steps."""
    chain = isogeny_from_kernel(E, gens, degree)
    ref = list(reference_isogeny_from_kernel(E, gens, degree))
    assert len(chain.steps) == len(ref)
    for s, t in zip(chain.steps, ref):
        assert (s.ell, s.kernel, s.codomain, s.u) == (t.ell, t.kernel, t.codomain, t.u)
    return chain, ref


def test_order_bookkeeping_matches_point_order_on_non_cyclic_kernels(t0):
    E = t0.e0
    UA, VA = canonical_torsion_basis(E, t0.A, t0.group_order)
    for gens, degree in non_cyclic_kernels(t0):
        chain, ref = assert_steps_match_reference(E, gens, degree)
        for X in (UA, VA):
            Y = X
            for s in ref:
                Y = s.evaluate(Y)
            assert chain.evaluate(X) == Y


@pytest.mark.parametrize("profile", ["t0", "t1"])
def test_cyclic_a_kernels_match_the_reference(request, rng, profile):
    ps = request.getfixturevalue(profile)
    A = ps.A
    for E in (ps.e0, keygen(ps, rng).pk):
        for idx in (1, 2, A // 2 + 3, A, A + 1, mu(A)):
            assert_steps_match_reference(E, cyclic_kernel(E, A, [idx]), A)


def test_cyclic_c_kernels_match_the_reference(t2):
    E, C = t2.e0, t2.C
    assert C == 27
    for idx in (1, 5, C, C + 1, mu(C)):
        assert_steps_match_reference(E, cyclic_kernel(E, C, [idx]), C)


def test_b_kernels_match_the_reference(t0, rng):
    E = t0.e0
    for _ in range(3):
        (K5,) = cyclic_kernel(E, 5, [rng.randrange(1, 7)])
        (K7,) = cyclic_kernel(E, 7, [rng.randrange(1, 9)])
        for gens in ([K5, K7], [K7, K5], [E.add(K5, K7)]):
            assert_steps_match_reference(E, gens, 35)


def test_cyclic_two_power_walk_cost(t1, monkeypatch, count_chain_work):
    """One T1 cyclic 2^9 chain: 13 additions walk the balanced strategy,
    which pushes 16 intermediate points; its first step certifies the
    generator's order.  Recomputing each kernel point from the generator
    took 53."""
    E = t1.e0
    (K,) = cyclic_kernel(E, t1.A, [3])
    adds, evals, _ = count_chain_work(monkeypatch)
    chain = isogeny_from_kernel(E, [K], t1.A)
    assert len(chain.steps) == 9
    assert (len(adds), len(evals)) == (13, 16)


def test_two_generator_b_kernel_cost(t0, monkeypatch, count_chain_work):
    """The T0 B-kernel [K5, K7]: 2 additions build the 5-step and 3 the
    7-step, and each step certifies its generator's order.  Finding first
    that K5 has no 7-part and K7 no 5-part took 12; with a point_order
    ladder on each generator first, it took 26."""
    gens = oriented_kernel(t0.orientation, (1, 2))
    adds, _, steps = count_chain_work(monkeypatch)
    chain = isogeny_from_kernel(t0.e0, gens, t0.B)
    assert [s.ell for s in chain.steps] == [5, 7]
    assert (len(adds), len(steps)) == (5, 2)


def test_composite_order_generator_takes_the_order_fallback(t0, monkeypatch, count_chain_work):
    """One generator of order 35 for a degree-35 kernel: the 5-step on it
    raises, so its order prime to 5 is computed once, and the steps are
    the reference ones, the 5-step on [7]G and the 7-step on its image of G.
    Three constructions: the one that raised, then the two steps."""
    E = t0.e0
    n = t0.group_order
    G = E.add(canonical_torsion_basis(E, 5, n)[0], canonical_torsion_basis(E, 7, n)[0])
    s5 = Step(E, E.mul(7, G), 5)
    s7 = Step(s5.codomain, s5.evaluate(G), 7)
    orders = []
    order = isogeny._order
    monkeypatch.setattr(isogeny, "_order", lambda *a: orders.append(a[-1]) or order(*a))
    _, _, built = count_chain_work(monkeypatch)
    chain = isogeny_from_kernel(E, [G], 35)
    assert (orders, len(built)) == ([7], 3)
    assert [(s.ell, s.domain, s.kernel, s.codomain) for s in chain.steps] == [
        (s.ell, s.domain, s.kernel, s.codomain) for s in (s5, s7)
    ]
    assert chain.evaluate(G).is_inf


def test_two_power_walk_hands_steps_int_kernels(t0, monkeypatch, count_chain_work):
    """One T0 cyclic 2^7 chain: 7 steps, each built through the Step
    constructor from the int kernel the walk holds, and no Point made
    between the generator and the chain."""
    E = t0.e0
    (K,) = cyclic_kernel(E, t0.A, [5])
    _, _, steps = count_chain_work(monkeypatch)
    points = []
    point = curve._point
    for module in (curve, isogeny):
        monkeypatch.setattr(module, "_point", lambda p, R: points.append(1) or point(p, R))
    chain = isogeny_from_kernel(E, [K], t0.A)
    assert (len(chain.steps), len(steps), len(points)) == (7, 7, 0)


def test_untwisted_two_step_builds_two_field_elements(t0, monkeypatch):
    """An ell = 2 step from an int kernel at u = 1 makes the codomain's a
    and b and no other Fp2: no 1 for a twist it does not have."""
    E = t0.e0
    K = (0, 0, 0, 0)
    made = []
    init = Fp2.__init__
    monkeypatch.setattr(Fp2, "__init__", lambda self, *a: made.append(1) or init(self, *a))
    step = Step(E, K, 2)
    assert len(made) == 2
    monkeypatch.undo()
    assert step.u == Fp2.one(t0.p)
    assert step.codomain == isogeny_from_kernel(E, [step.kernel], 2).codomain
    assert step.codomain == Step(E, K, 2, Fp2.one(t0.p)).codomain


@pytest.mark.parametrize("profile", ["t0", "t1"])
def test_walk_built_two_steps_match_translation_sums(request, rng, profile):
    """The closed-form 2-steps of mask chains, which the walk builds from
    int kernels, on E0 and on a statement curve E_w: the images of random
    points and of the kernel points are Vélu's translation sums, and the
    codomain is that of the step built from the kernel as a Point."""
    ps = request.getfixturevalue(profile)
    _, statement = gen_r(ps, rng)
    for E in (ps.e0, statement.ew):
        for h in (1, rng.randrange(1, mu(ps.A) + 1)):
            chain = challenge_walk(E, h, ps.A)
            assert [s.ell for s in chain.steps] == [2] * ps.a
            for s in chain.steps:
                D = s.domain
                assert Step(D, s.kernel, 2).codomain == s.codomain
                pts = [D.random_point(rng) for _ in range(6)] + [s.kernel, Point.infinity()]
                for P in pts:
                    assert s.evaluate(P) == translation_sum_image(s, P)


def test_evaluate_does_one_inversion(t0, rng, monkeypatch):
    E = t0.e0
    s = Step(E, point_of_order(E, 7, t0.group_order, rng), 7)
    P = E.random_point(rng)
    calls = []
    inv = field.inv_pair
    monkeypatch.setattr(field, "inv_pair", lambda *args: calls.append(1) or inv(*args))
    img = s.evaluate(P)
    assert not img.is_inf
    assert len(calls) == 1


def test_dual_identity(t0):
    chain = isogeny_from_kernel(t0.e0, [], 1)
    d = dual(chain)
    assert d.degree == 1 and d.domain == t0.e0 and d.codomain == t0.e0


def test_dual_composes_to_multiplication(t0, rng):
    E = t0.e0
    P5, Q5 = canonical_torsion_basis(E, 5, t0.group_order)
    P7, _ = canonical_torsion_basis(E, 7, t0.group_order)
    chain = isogeny_from_kernel(E, [E.add(P5, Q5), P7], 35)
    back = dual(chain)
    for _ in range(20):
        R = E.random_point(rng)
        assert back.evaluate(chain.evaluate(R)) == E.mul(35, R)


def test_dual_of_two_power_challenge_walks(t0, rng):
    """Every dual step is of degree 2: the first one's kernel is the image
    of its step's canonical E[2]-basis, and each later one's the image of
    the dual kernel before it.  The walks start on E0 and on y^2 = x^3 +
    15498x + 20797i, where that basis once took 8 s to scan (test_curve's
    stall-shaped bases); with the basis cache cleared, each dual takes
    under 0.1 s (about 4 ms on a 2-CPU Linux container)."""
    for E in (t0.e0, Curve(Fp2(t0.p, 15498), Fp2(t0.p, 0, 20797))):
        D = 2
        while D <= t0.A:
            for h in (1, mu(D)):
                walk = challenge_walk(E, h, D)
                canonical_torsion_basis.cache_clear()
                start = time.perf_counter()
                back = dual(walk)
                assert time.perf_counter() - start < 0.1
                assert back.domain == walk.codomain and back.codomain == E
                for _ in range(3):
                    R = E.random_point(rng)
                    assert back.evaluate(walk.evaluate(R)) == E.mul(D, R)
            D *= 2


@pytest.mark.parametrize("ell", [2, 3, 5, 7])
def test_dual_of_twisted_steps(t0, rng, ell):
    # the dual's twist is 1/(ell*u) for every u, on E0 (j = 1728, four
    # automorphisms) and on a keygen codomain
    n = t0.group_order
    for E in (t0.e0, keygen(t0, rng).pk):
        K = Point.infinity()
        while K.is_inf:
            K = E.mul(n // ell, E.random_point(rng))
        for u in (Fp2.one(t0.p), Fp2(t0.p, 3, 5)):
            s = Step(E, K, ell, u)
            back = dual_step(s)
            assert back.domain == s.codomain and back.codomain == E
            for _ in range(5):
                R = E.random_point(rng)
                assert back.evaluate(s.evaluate(R)) == E.mul(ell, R)


def assert_dual_is_the_scanning_rules(chain, carried, scans, rng):
    """dual(chain, carried) against the rule that scans every step's domain
    for its dual kernel (dual_step without back): the same domains,
    codomains, twists and images of random points, step by step, and
    `scans` canonical-basis scans (_dual_kernel calls) where the rule
    makes one per step."""
    scanning = [dual_step(s) for s in reversed(chain.steps)]
    calls = []
    dual_kernel = isogeny._dual_kernel
    isogeny._dual_kernel = lambda s: calls.append(s.ell) or dual_kernel(s)
    try:
        carrying = dual(chain, carried)
    finally:
        isogeny._dual_kernel = dual_kernel
    assert len(calls) == scans
    assert len(carrying.steps) == len(scanning)
    for d, e in zip(carrying.steps, scanning):
        assert (d.domain, d.codomain, d.ell, d.u) == (e.domain, e.codomain, e.ell, e.u)
        for _ in range(3):
            R = d.domain.random_point(rng)
            assert d.evaluate(R) == e.evaluate(R)
    R = chain.domain.random_point(rng)
    assert carrying.evaluate(chain.evaluate(R)) == chain.domain.mul(chain.degree, R)


@pytest.mark.parametrize("profile", ["t0", "t1", "t2"])
def test_dual_of_psi_carries_the_unchosen_generators(request, profile):
    """presign's psi for every choice vector: the generators the vector
    leaves out give every dual kernel, with no basis scanned."""
    ps = request.getfixturevalue(profile)
    rng = random.Random(41)
    for bits in itertools.product((1, 2), repeat=ps.t):
        psi = isogeny_from_kernel(ps.e0, oriented_kernel(ps.orientation, bits), ps.B)
        unchosen = oriented_kernel(ps.orientation, [3 - b for b in bits])
        carried = dict(zip(ps.orientation.primes, unchosen))
        assert_dual_is_the_scanning_rules(psi, carried, 0, rng)


@pytest.mark.parametrize("profile", ["t0", "t1", "t2"])
def test_dual_of_w_prime_carries_a_point_of_s(request, profile):
    """adapt's w' from E_psi with kernel <S1 + [alpha]S2>, for several alpha:
    [C/3]S2 gives the first dual kernel and each dual kernel the next, with
    no basis scanned.  Without the point, the first step scans."""
    ps = request.getfixturevalue(profile)
    rng = random.Random(42)
    psi = isogeny_from_kernel(ps.e0, oriented_kernel(ps.orientation, [1] * ps.t), ps.B)
    epsi, C = psi.codomain, ps.C
    S1, S2 = map(psi.evaluate, ps.pq)
    for alpha in sorted({0, 1, 2, C - 1, rng.randrange(C)}):
        wprime = isogeny_from_kernel(epsi, [epsi.add(S1, epsi.mul(alpha, S2))], C)
        assert_dual_is_the_scanning_rules(wprime, {3: epsi.mul(C // 3, S2)}, 0, rng)
        assert_dual_is_the_scanning_rules(wprime, None, 1, rng)


def test_dual_falls_back_where_the_kernel_holds_the_carried_point(t0, rng):
    """A chain with kernel E[5] backtracks: the carried point, the first
    step's dual kernel, lies in the second step's kernel, so that step scans
    its domain's basis.  A carried point in the first step's kernel makes
    it scan too, and points outside E[5] are not carried."""
    E = t0.e0
    P5, Q5 = canonical_torsion_basis(E, 5, t0.group_order)
    chain = isogeny_from_kernel(E, [P5, Q5], 25)
    assert [s.ell for s in chain.steps] == [5, 5]
    K = chain.steps[0].kernel
    outside = next(X for X in (P5, Q5) if not chain.steps[0].evaluate(X).is_inf)
    assert_dual_is_the_scanning_rules(chain, {5: outside}, 1, rng)
    assert_dual_is_the_scanning_rules(chain, {5: K}, 2, rng)
    P7 = canonical_torsion_basis(E, 7, t0.group_order)[0]
    assert_dual_is_the_scanning_rules(chain, {5: E.add(outside, P7)}, 2, rng)


def test_dual_of_two_step_needs_rational_two_torsion(t0):
    # y^2 = x^3 - g x with g a non-square: (0, 0) is its only 2-torsion point
    p = t0.p
    g = next(Fp2(p, c, 1) for c in range(p) if Fp2(p, c, 1).sqrt() is None)
    E = Curve(-g, Fp2.zero(p))
    s = Step(E, Point(Fp2.zero(p), Fp2.zero(p)), 2)
    with pytest.raises(NoBasis):
        dual_step(s)


def test_dual_of_dual_keeps_kernel(t0):
    E = t0.e0
    P3, Q3 = canonical_torsion_basis(E, 3, t0.group_order)
    chain = isogeny_from_kernel(E, [E.add(P3, Q3)], 3)
    dd = dual(dual(chain))
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
    back = pull_back(w, pushed)
    assert back.degree == 5 and back.domain == E
    # same kernel subgroup as psi
    assert back.evaluate(psi.kernel_gens[0]).is_inf


def test_pull_back_identity(t0):
    E = t0.e0
    P3, _ = canonical_torsion_basis(E, 3, t0.group_order)
    w = isogeny_from_kernel(E, [P3], 3)
    ident = isogeny_from_kernel(w.codomain, [], 1)
    out = pull_back(w, ident)
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
    rep = efficient_rep(ident, t0.A)
    assert rep.images == rep.basis


def test_efficient_rep_is_a_value(t0):
    rep = efficient_rep(two_isogeny_from_origin(t0), t0.A)
    fields = (rep.domain, rep.codomain, rep.degree, rep.order, rep.basis, rep.images)
    twin = EfficientRep(*fields)
    assert twin is not rep and twin == rep and hash(twin) == hash(rep)
    assert dataclasses.replace(rep, degree=rep.degree + rep.order) != rep
    with pytest.raises(dataclasses.FrozenInstanceError):
        rep.images = rep.images[::-1]


def test_efficient_rep_pairing_law(t0):
    from adaptorsig.curve import weil_pairing

    E = t0.e0
    n = t0.group_order
    P5, Q5 = canonical_torsion_basis(E, 5, n)
    P7, _ = canonical_torsion_basis(E, 7, n)
    chain = isogeny_from_kernel(E, [E.add(P5, Q5), P7], 35)
    for N in (t0.A, t0.A * t0.C):
        rep = efficient_rep(chain, N)
        zb = weil_pairing(E, rep.basis[0], rep.basis[1], N)
        zi = weil_pairing(rep.codomain, rep.images[0], rep.images[1], N)
        assert zi == zb**35
