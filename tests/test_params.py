import math
import random
import time
from dataclasses import replace

import pytest
import sympy

from adaptorsig import serial
from adaptorsig.curve import point_order
from adaptorsig.errors import ConstraintViolation, InvariantViolation
from adaptorsig.params import (
    MR_BOUND,
    P_BOUND_RULE,
    PROFILES,
    SHAPE_RULES,
    generate_params,
    is_prime,
    validate_params,
)

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
    # p+2 = 26881 happens to be prime, so the failing checks are the shape
    # and the mod-4 condition; p+4 also breaks primality
    bad = replace(t0, p=t0.p + 2)
    report = validate_params(bad)
    assert not report.ok
    failed = {name for name, passed, _ in report.checks if not passed}
    assert "p = ABCf - 1" in failed
    assert "p = 3 (mod 4)" in failed
    assert sympy.isprime(t0.p + 2)

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


# one violation per shape rule, changing T0 so that no earlier rule fails
SHAPE_VIOLATIONS = {
    "a >= 2": {"a": 1},
    "c >= 1": {"c": 0},
    "A, B, C pairwise coprime": {"primes": (3, 5)},
    "primes distinct, odd, not 3": {"primes": (5, 5)},
    "primes below 256": {"primes": (5, 263)},
    "D_tau | B and D_phi | C": {"d_tau": 0},
    "extraction bound 4C < A^2": {"c": 8},
    "recovery bound 4*B*D_tau*D_phi < A^2": {"c": 2, "d_phi": 9},
    "nizk_rounds >= 1": {"nizk_rounds": 0},
}


def test_every_shape_rule_has_a_violation():
    assert [name for name, _, _ in SHAPE_RULES] == list(SHAPE_VIOLATIONS)


@pytest.mark.parametrize("rule", list(SHAPE_VIOLATIONS))
def test_shape_rule_rejected_alike_by_generate_parse_and_validate(t0, rule):
    change = SHAPE_VIOLATIONS[rule]
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
