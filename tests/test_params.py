import json
import math
import random
import time
from collections import Counter
from dataclasses import replace

import pytest
import sympy
from sympy.ntheory.modular import crt

import adaptorsig.params as params_mod
from adaptorsig import serial
from adaptorsig.cli import main
from adaptorsig.curve import (
    Curve,
    Point,
    canonical_torsion_basis,
    point_order,
    twist_curve,
    twist_point,
)
from adaptorsig.dlog import recover_isogeny
from adaptorsig.errors import AmbiguityBound, ConstraintViolation, InvariantViolation, ParseError
from adaptorsig.field import Fp2
from adaptorsig.nizk import NizkProof, verify_parallel
from adaptorsig.orientation import Orientation, orientation_valid, sample_orientation
from adaptorsig.params import (
    CURVE_RULES,
    EXTRACTION_RULE,
    MR_BOUND,
    ORIENTATION_RULE,
    P_BOUND_RULE,
    P_RULES,
    PROFILES,
    SHAPE_RULES,
    SIZE_RULES,
    ParamSet,
    base_curve,
    failed_rule,
    generate_params,
    is_prime,
    validate_params,
)
from adaptorsig.relation import gen_r
from adaptorsig.sig import keygen, sign, verify
from adaptorsig.swap import demo_swap

# golden values confirmed against sympy's primality oracle below
GOLDEN = {"T0": (2, 26879), "T1": (2, 322559), "T2": (1, 483839)}


@pytest.mark.parametrize("profile", ["T0", "T1", "T2"])
def test_profiles_match_golden_cofactors(profile):
    ps = generate_params(profile, random.Random(0))
    f, p = GOLDEN[profile]
    assert ps.f == f and ps.p == p
    # independent primality oracle, plus minimality of the cofactor
    assert sympy.isprime(p)
    base = ps.A * ps.B * ps.C
    for smaller in range(1, f):
        assert not sympy.isprime(base * smaller - 1)


def test_internal_primality_agrees_with_sympy():
    rng = random.Random(9)
    for _ in range(300):
        n = rng.randrange(2, 10**7)
        assert is_prime(n) == sympy.isprime(n)


def test_primality_is_exact_below_the_bound():
    # the least strong pseudoprime to the primes up to 37 is caught by 41
    assert not sympy.isprime(318_665_857_834_031_151_167_461)
    assert not is_prime(318_665_857_834_031_151_167_461)
    # the bound is the least strong pseudoprime to all the witnesses
    assert not sympy.isprime(MR_BOUND)
    assert is_prime(MR_BOUND)


def test_p_bound_rejected_alike_by_generate_parse_and_validate(t0):
    rule = P_BOUND_RULE[0]
    # A = 2^4096: every candidate p = ABCf - 1 is above the bound
    with pytest.raises(ConstraintViolation) as err:
        generate_params((4096, (5, 7), 1, 35, 3, 24), random.Random(0))
    assert str(err.value) == f"violates {rule}"

    doc = serial.params_doc(t0)
    doc["p"] = format(MR_BOUND + 2, "x")
    with pytest.raises(InvariantViolation) as err:
        serial.parse_params(doc)
    assert (err.value.path, err.value.message) == ("params.p", f"violates {rule}")

    assert (rule, True) in {(name, passed) for name, passed, _ in validate_params(t0).checks}
    report = validate_params(replace(t0, p=MR_BOUND + 2))
    assert (rule, False) in {(name, passed) for name, passed, _ in report.checks}


def test_t1_recovery_bound_quote():
    ps = generate_params("T1", random.Random(0))
    assert 4 * ps.B * ps.d_tau * ps.d_phi == 44100
    assert 44100 < 2**18 == ps.A * ps.A


def test_prime_3_collides_with_C():
    with pytest.raises(ConstraintViolation):
        generate_params((7, (3, 5), 1, 15, 3, 24), random.Random(0))


def test_no_prime_found(monkeypatch):
    import adaptorsig.params as params_mod

    monkeypatch.setattr(params_mod, "_F_SEARCH_BOUND", 1)  # 13439 is composite
    from adaptorsig.errors import NoPrimeFound

    with pytest.raises(NoPrimeFound):
        generate_params("T0", random.Random(0))


def test_validate_passes_on_generated(t0):
    report = validate_params(t0)
    assert report.ok, report.lines()


def test_validate_does_no_work_that_grows_with_p():
    """At a = 40 (p of 52 bits) every rule runs in well under a second: no
    rule walks GF(p), as a point count of E0 would."""
    ps = generate_params((40, (5, 7), 1, 35, 3, 2), random.Random(0))
    assert ps.p.bit_length() == 52
    start = time.perf_counter()
    report = validate_params(ps)
    assert time.perf_counter() - start < 1.0
    assert report.ok, report.lines()


def test_validate_fails_on_shifted_p(t0):
    # p+2 = 26881 happens to be prime, so the failing check is the shape
    # p = ABCf - 1, which with 4 | A also gives p = 3 (mod 4); the decoder
    # rejects it by that rule too; p+4 also breaks primality
    assert t0.A % 4 == 0
    bad = replace(t0, p=t0.p + 2)
    report = validate_params(bad)
    assert not report.ok
    failed = {name for name, passed, _ in report.checks if not passed}
    assert "p = ABCf - 1" in failed
    assert sympy.isprime(t0.p + 2)
    doc = serial.params_doc(t0)
    doc["p"] = format(t0.p + 2, "x")
    with pytest.raises(InvariantViolation) as err:
        serial.parse_params(doc)
    assert (err.value.path, err.value.message) == ("params.p", "violates p = ABCf - 1")

    worse = replace(t0, p=t0.p + 4)
    report = validate_params(worse)
    failed = {name for name, passed, _ in report.checks if not passed}
    assert "p = ABCf - 1" in failed
    assert "p prime" in failed
    assert not sympy.isprime(t0.p + 4)


def test_validate_fails_on_extraction_bound(t0):
    bad = replace(t0, c=8)  # 4 * 3^8 = 26244 >= 128^2
    report = validate_params(bad)
    failed = {name for name, passed, _ in report.checks if not passed}
    assert "extraction bound 4C < A^2" in failed


def test_group_exponent_by_order_sampling(t0, rng):
    E = t0.e0
    n = t0.p + 1
    orders = set()
    for _ in range(60):
        P = E.random_point(rng)
        o = point_order(E, P, n)
        assert n % o == 0
        orders.add(o)
    # the sample should actually exercise large orders
    assert max(orders) > n // 8
    assert math.lcm(*orders) in (n, n // 2, n // 4)


def test_magnitude_targets_reported_not_enforced(t0):
    report = validate_params(t0)
    names = [name for name, _ in report.info]
    assert any("3/10" in n for n in names)
    assert any("3/5" in n for n in names)
    assert any("1/10" in n for n in names)


def test_zero_nizk_rounds_rejected():
    with pytest.raises(ConstraintViolation):
        generate_params((7, (5, 7), 1, 35, 3, 0), random.Random(0))


# one violation per shape rule, changing T0 so that no earlier rule fails;
# the first four rows are named after conditions that other rules imply,
# and IMPLIED names the rule that rejects each
SHAPE_VIOLATIONS = {
    "a >= 2": {"a": 1},
    "a >= 2, at a = 0": {"a": 0},
    "c >= 1": {"c": 0},
    "A, B, C pairwise coprime": {"primes": (3, 5)},
    "primes distinct, odd, not 3": {"primes": (5, 5)},
    "primes below 256": {"primes": (5, 263)},
    "D_tau | B and D_phi | C": {"d_tau": 0},
    "extraction bound 4C < A^2": {"c": 8},
    "recovery bound 4*B*D_tau*D_phi < A^2": {"c": 2, "d_phi": 9},
    "nizk_rounds >= 1": {"nizk_rounds": 0},
}


IMPLIED = {
    # with c >= 1, 4C < A^2 needs A >= 4
    "a >= 2": "extraction bound 4C < A^2",
    "a >= 2, at a = 0": "extraction bound 4C < A^2",
    # D_phi > 1 divides C = 3^c
    "c >= 1": "D_tau | B and D_phi | C",
    # the rule checked gcd(B, 6) = 1: B is a product of primes other than 2, 3
    "A, B, C pairwise coprime": "primes distinct, odd, not 3",
}


def test_every_shape_rule_has_a_violation():
    rows = [rule for rule in SHAPE_VIOLATIONS if rule not in IMPLIED]
    assert [name for name, _, _ in SHAPE_RULES] == rows


@pytest.mark.parametrize("rule", list(SHAPE_VIOLATIONS))
def test_shape_rule_rejected_alike_by_generate_parse_and_validate(t0, rule):
    change = SHAPE_VIOLATIONS[rule]
    rule = IMPLIED.get(rule, rule)
    keys = ("a", "primes", "c", "d_tau", "d_phi", "nizk_rounds")
    profile = tuple(change.get(key, value) for key, value in zip(keys, PROFILES["T0"]))
    with pytest.raises(ConstraintViolation) as err:
        generate_params(profile, random.Random(0))
    assert str(err.value) == f"violates {rule}"

    doc = serial.params_doc(t0)
    for key, value in change.items():
        doc[key] = [format(v, "x") for v in value] if key == "primes" else format(value, "x")
    with pytest.raises(InvariantViolation) as err:
        serial.parse_params(doc)
    assert (err.value.path, err.value.message) == ("params", f"violates {rule}")

    report = validate_params(replace(t0, **change))
    assert rule in {name for name, passed, _ in report.checks if not passed}


@pytest.mark.parametrize(
    "change",
    [{"a": -3}, {"a": -2000}, {"c": -2}, {"c": -1000}],
    ids=["a=-3", "a=-2000", "c=-2", "c=-1000"],
)
def test_negative_exponents_rejected(t0, change):
    """Generation refuses a negative exponent before any rule reads 2^a or
    3^c as a float (3^-1000 is 0.0, which every divisor divides), and the
    decoder takes no negative integer at all."""
    with pytest.raises(ConstraintViolation) as err:
        generate_params(_profile(change), random.Random(0))
    assert str(err.value) == "negative exponent a or c"
    ((key, value),) = change.items()
    doc = serial.params_doc(t0)
    doc[key] = format(value, "x")
    with pytest.raises(ParseError):
        serial.parse_params(doc)


# -- every kept rule prevents something ---------------------------------------

RULE_TABLES = ("SIZE_RULES", "SHAPE_RULES", "P_RULES", "CURVE_RULES")


def _drop(monkeypatch, rule):
    """Take the named rule out of every table, and make the single rules
    that generation (the p bound) and decoding (E0, basis) run pass."""
    for module in (params_mod, serial):
        for table in RULE_TABLES:
            if hasattr(module, table):
                kept = tuple(r for r in getattr(module, table) if r[0] != rule)
                monkeypatch.setattr(module, table, kept)
        for single in ("P_BOUND_RULE", "E0_RULE", "BASIS_RULE"):
            if getattr(module, single, (None,))[0] == rule:
                monkeypatch.setattr(module, single, (rule, lambda ps: True, ""))


def _on_p(ps, p, f):
    """ps over another p: E0, its C-basis and an orientation rebuilt there."""
    e0 = base_curve(p)
    pq = canonical_torsion_basis(e0, ps.C, p + 1)
    orientation = sample_orientation(e0, ps.primes, random.Random(0))
    return replace(ps, p=p, f=f, e0=e0, pq=pq, orientation=orientation)


def _composite_p(ps):
    """ps over n = q1*q2*q3, with three primes q = ABCk - 1, so that
    n = -1 (mod ABC): every point is the CRT of points over the GF(q^2)."""
    base = ps.A * ps.B * ps.C
    qs = [q for q in (base * k - 1 for k in range(1, 8)) if sympy.isprime(q)][:3]
    n = math.prod(qs)
    over = [_on_p(ps, q, (q + 1) // base) for q in qs]

    def lift(points):
        coords = [X.x.lex_key() + X.y.lex_key() for X in points]
        c = [crt(qs, [xy[i] for xy in coords])[0] for i in range(4)]
        return Point(Fp2(n, c[0], c[1]), Fp2(n, c[2], c[3]))

    e0 = base_curve(n)
    pq = tuple(lift([q_ps.pq[i] for q_ps in over]) for i in (0, 1))
    pairs = [
        (ell, *(lift([q_ps.orientation.pairs[j][g] for q_ps in over]) for g in (1, 2)))
        for j, ell in enumerate(ps.primes)
    ]
    return replace(ps, p=n, f=(n + 1) // base, e0=e0, pq=pq, orientation=Orientation(e0, pairs))


def _above_the_bound(ps):
    a = 76  # 2^76 * 105 > MR_BOUND
    base = 2**a * ps.B * ps.C
    f = next(f for f in range(1, 100) if sympy.isprime(base * f - 1))
    return _on_p(replace(ps, a=a), base * f - 1, f)


def _twisted_e0(ps):
    u = Fp2(ps.p, 2, 1)
    e0 = twist_curve(ps.e0, u)
    pairs = [(ell, twist_point(G1, u), twist_point(G2, u)) for ell, G1, G2 in ps.orientation.pairs]
    pq = tuple(twist_point(X, u) for X in ps.pq)
    return replace(ps, e0=e0, pq=pq, orientation=Orientation(e0, pairs))


def _dependent_basis(ps):
    P = ps.pq[0]
    return replace(ps, pq=(P, ps.e0.mul(2, P)))


def _meeting_orientation(ps):
    (ell, G1, _), *rest = ps.orientation.pairs
    return replace(ps, orientation=Orientation(ps.e0, [(ell, G1, ps.e0.mul(2, G1)), *rest]))


# per kept rule, an input that fails it alone: a change of T0's profile for
# a shape rule (primes (5, 5) with D_tau = 35, and (5, 263) at a = 7, also
# fail a later rule), a parameter set built from T0 for the others
ISOLATED_SHAPE = {
    "primes distinct, odd, not 3": {"primes": (5, 5), "d_tau": 5},
    "primes below 256": {"a": 9, "primes": (5, 263), "d_tau": 5},
    "D_tau | B and D_phi | C": {"d_tau": 0},
    "extraction bound 4C < A^2": {"c": 8},
    "recovery bound 4*B*D_tau*D_phi < A^2": {"c": 2, "d_phi": 9},
    "nizk_rounds >= 1": {"nizk_rounds": 0},
}
ISOLATED = {
    "p below the deterministic Miller-Rabin bound": _above_the_bound,
    "p = ABCf - 1": lambda ps: _on_p(ps, 419, ps.f),  # 3, 5, 7 | 420 but not 128
    "p prime": _composite_p,
    "E0 is y^2 = x^3 + x": _twisted_e0,
    "(P, Q) basis of E0[C]": _dependent_basis,
    "orientation valid on E0": _meeting_orientation,
}


def _profile(change):
    keys = ("a", "primes", "c", "d_tau", "d_phi", "nizk_rounds")
    return tuple(change.get(key, value) for key, value in zip(keys, PROFILES["T0"]))


@pytest.mark.parametrize("rule", list(ISOLATED_SHAPE) + list(ISOLATED))
def test_no_kept_rule_is_implied_by_the_others(t0, monkeypatch, rule):
    """With the rule dropped, generation (for a shape rule), decoding and
    validation admit an input that every other rule admits too."""
    _drop(monkeypatch, rule)
    if rule in ISOLATED_SHAPE:
        ps = generate_params(_profile(ISOLATED_SHAPE[rule]), random.Random(0))
    else:
        ps = ISOLATED[rule](t0)
    assert validate_params(ps).ok
    doc = serial.params_doc(ps)
    if rule == ORIENTATION_RULE[0]:
        # the decoder checks an orientation as it arrives, as it does a
        # statement's, with parse_orientation and not with the rule
        with pytest.raises(InvariantViolation, match="orientation generators invalid"):
            serial.parse_params(doc)
    else:
        assert serial.parse_params(doc) == ps
    monkeypatch.undo()
    assert {name for name, passed, _ in validate_params(ps).checks if not passed} == {rule}


def test_the_size_rule_runs_before_any_power_is_built(t0, monkeypatch):
    """The size rule is implied by p = ABCf - 1 (A | p + 1), but the decoder
    checks that only after the shape rules have built 2^a: the size rule
    rejects a = 2^32 - 1 first, with no power built."""
    built = []
    monkeypatch.setattr(ParamSet, "A", property(lambda ps: built.append(ps.a) or 2**ps.a))
    doc = serial.params_doc(t0)
    doc["a"] = format(2**32 - 1, "x")
    with pytest.raises(InvariantViolation) as err:
        serial.parse_params(doc)
    assert err.value.message == f"violates {SIZE_RULES[0][0]}"
    assert built == []

    _drop(monkeypatch, SIZE_RULES[0][0])
    doc["a"] = format(2**16, "x")
    with pytest.raises(InvariantViolation) as err:
        serial.parse_params(doc)
    assert err.value.message == "violates p = ABCf - 1"
    assert set(built) == {2**16}


def _odd_without_small_factors(bits):
    n = 2 ** (bits - 1) + 1
    while math.gcd(n, math.prod((2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41))) != 1:
        n += 2
    return n


@pytest.mark.parametrize(
    "primes",
    [["5"] * 20_000, [format(_odd_without_small_factors(16_000), "x"), "0"]],
    ids=["20000-fives", "16000-bits-then-0"],
)
def test_the_size_rule_bounds_the_b_primes_before_b_is_taken(t0, monkeypatch, primes):
    """A 0 entry makes B = 0, and the product of a long list costs time
    quadratic in its length: the size rule bounds the count and the size of
    the entries by the bit length of p + 1 first, so B is never taken."""
    taken = []
    monkeypatch.setattr(ParamSet, "B", property(lambda ps: taken.append(1) or math.prod(ps.primes)))
    doc = dict(serial.params_doc(t0), primes=primes)
    start = time.perf_counter()
    with pytest.raises(InvariantViolation) as err:
        serial.parse_params(doc)
    assert time.perf_counter() - start < 0.1
    assert (err.value.path, err.value.message) == ("params.p", f"violates {SIZE_RULES[0][0]}")
    assert taken == []


def test_the_size_rule_bound_does_not_grow_with_p(t0, monkeypatch, tmp_path):
    """A long p buys no longer list of B-primes: the size rule's bound is
    capped at the p bound's bit length, so 20 000 entries fail it at once,
    before B is taken and before the p bound runs."""
    taken = []
    monkeypatch.setattr(ParamSet, "B", property(lambda ps: taken.append(1) or math.prod(ps.primes)))
    doc = dict(serial.params_doc(t0), p=format(2**300_010 + 1, "x"), primes=["5"] * 20_000)
    start = time.perf_counter()
    with pytest.raises(InvariantViolation) as err:
        serial.parse_params(doc)
    assert time.perf_counter() - start < 0.1
    assert (err.value.path, err.value.message) == ("params.p", f"violates {SIZE_RULES[0][0]}")
    assert taken == []
    path = tmp_path / "params.json"
    path.write_text(json.dumps(doc))
    assert main(["keygen", "--params", str(path), "--seed", "0", "--out", "-"]) == 2


@pytest.mark.parametrize("change", [{"a": 4 * 10**7}, {"c": 10**7}], ids=["a=4e7", "c=1e7"])
def test_large_exponents_refused_before_a_power_is_built(change):
    """2^a alone puts p past the p bound, and c >= 2a alone breaks the
    extraction bound, so neither power is built to refuse them."""
    start = time.perf_counter()
    with pytest.raises(ConstraintViolation) as err:
        generate_params(_profile(change), random.Random(0))
    assert time.perf_counter() - start < 0.05
    rule = P_BOUND_RULE if "a" in change else EXTRACTION_RULE
    assert str(err.value) == f"violates {rule[0]}"


def test_parse_params_runs_each_rule_once(t0, monkeypatch):
    runs = Counter()

    def counted(ps, rules):
        runs.update(name for name, _, _ in rules)
        return failed_rule(ps, rules)

    monkeypatch.setattr(serial, "failed_rule", counted)
    serial.parse_params(serial.params_doc(t0))
    every = [name for name, _, _ in SIZE_RULES + SHAPE_RULES + P_RULES + CURVE_RULES]
    assert len(set(every)) == len(every) == 13
    # parse_orientation checks the orientation, for statements too
    assert runs == Counter(name for name in every if name != ORIENTATION_RULE[0])


def test_extraction_bound_keeps_extraction_unambiguous(monkeypatch):
    """At 4C >= A^2 the A-images of the degree-C witness isogeny do not pin
    it: every swap ends with Bob's extraction refused as ambiguous."""
    _drop(monkeypatch, "extraction bound 4C < A^2")
    ps = generate_params((7, (5, 7), 8, 35, 3, 2), random.Random(0))
    for seed in (1, 2, 3):
        transcript = demo_swap(ps, seed)
        bob = next(e for e in transcript["events"] if e["type"] == "extract")
        assert (bob["witness"], bob["reasons"]) == (None, ["recovery:ambiguity"])
        assert transcript["verdict"] is False


def test_recovery_bound_keeps_recovery_unique(monkeypatch):
    """At 4*B*D_tau*D_phi >= A^2 an honest response still verifies strict,
    by the search, but its A-images no longer pin it: recover_isogeny
    refuses it."""
    _drop(monkeypatch, "recovery bound 4*B*D_tau*D_phi < A^2")
    ps = generate_params((5, (5, 7), 1, 35, 3, 2), random.Random(0))
    kp = keygen(ps, random.Random(1))
    sig = sign(kp, b"m", ps, random.Random(2))
    assert verify(kp.pk, b"m", sig, "strict", ps)
    with pytest.raises(AmbiguityBound):
        recover_isogeny(sig.rep)


def test_nizk_rounds_rule_keeps_the_proof_from_being_empty(t0):
    """With no rounds a proof has nothing to check: the empty proof passes
    for a commitment curve that is no oriented quotient of E_w."""
    _, s = gen_r(t0, random.Random(1))
    statement = (s.ew, s.oriented_image, t0.e0)
    assert verify_parallel(statement, NizkProof([]), replace(t0, nizk_rounds=0))
    reasons = []
    assert not verify_parallel(statement, NizkProof([]), t0, reasons)
    assert reasons == ["nizk:rounds"]


def test_primes_below_256_bound_the_orientation_scans(t0, monkeypatch):
    """Checking an orientation scans the ell multiples of one generator per
    prime: its point multiplications grow with ell."""
    _drop(monkeypatch, "primes below 256")
    big = generate_params(_profile(ISOLATED_SHAPE["primes below 256"]), random.Random(0))
    muls = []
    mul = Curve.mul
    monkeypatch.setattr(Curve, "mul", lambda E, k, P: muls.append(k) or mul(E, k, P))
    counts = []
    for ps in (t0, big):
        muls.clear()
        assert orientation_valid(ps.orientation)
        counts.append(len(muls))
    assert counts == [(5 + 2) + (7 + 2), (5 + 2) + (263 + 2)]
