"""Public parameter sets: p = A*B*C*f - 1 with A = 2^a, B = prod(ell_i), C = 3^c.

The base curve is y^2 = x^3 + x, supersingular because 4 | A makes p = 3
(mod 4); its group over GF(p^2) is (Z/(p+1))^2, so all the torsion the
protocol touches is rational.
"""

import math
from dataclasses import dataclass, replace

from .curve import (
    Curve,
    canonical_torsion_basis,
    has_exact_order,
    is_primitive_root_of_unity,
    weil_pairing,
)
from .errors import ConstraintViolation, NoPrimeFound
from .field import Fp2
from .orientation import Orientation, orientation_valid, sample_orientation

#: named profiles: (a, primes, c, D_tau, D_phi, nizk_rounds)
PROFILES = {
    "T0": (7, (5, 7), 1, 35, 3, 24),
    "T1": (9, (5, 7), 2, 35, 9, 24),
    "T2": (9, (5, 7), 3, 35, 27, 24),
}

_F_SEARCH_BOUND = 10_000


@dataclass(frozen=True)
class ParamSet:
    p: int
    a: int
    primes: tuple
    c: int
    f: int
    d_tau: int
    d_phi: int
    e0: Curve
    orientation: Orientation
    pq: tuple
    nizk_rounds: int

    @property
    def A(self) -> int:
        return 2**self.a

    @property
    def B(self) -> int:
        return math.prod(self.primes)

    @property
    def C(self) -> int:
        return 3**self.c

    @property
    def group_order(self) -> int:
        """Exponent of E(GF(p^2)) for every supersingular curve here."""
        return self.p + 1

    @property
    def t(self) -> int:
        return len(self.primes)

    def one(self) -> Fp2:
        return Fp2.one(self.p)


_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
#: is_prime is exact below this bound: the least strong pseudoprime to all
#: of _MR_WITNESSES (Sorenson and Webster, 2015)
MR_BOUND = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Miller-Rabin with the primes up to 41 as witnesses; deterministic
    for n < MR_BOUND (about 3.3e24), probable-prime above it."""
    if n < 2:
        return False
    for q in _MR_WITNESSES:
        if n % q == 0:
            return n == q
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def base_curve(p: int) -> Curve:
    """E0: y^2 = x^3 + x over GF(p^2)."""
    return Curve(Fp2(p, 1), Fp2(p, 0))


# ---------------------------------------------------------------------------
# the parameter rules
# ---------------------------------------------------------------------------
#
# Every invariant of a parameter set is one (name, check, detail) rule here:
# check(ps) reads a ParamSet and detail.format(ps=ps) describes it.
# Generation, decoding and validation all run these tables.  Raising callers
# stop at the first failing rule and give its name but no value, so a
# decoded integer of any size stays out of the message.


def _primes_ok(ps) -> bool:
    ells = ps.primes
    distinct = len(set(ells)) == len(ells)
    return distinct and all(ell % 2 == 1 and ell != 3 and is_prime(ell) for ell in ells)


def _divisors_ok(ps) -> bool:
    return ps.d_tau > 1 and ps.B % ps.d_tau == 0 and ps.d_phi > 1 and ps.C % ps.d_phi == 0


def _fits(ps) -> bool:
    # the count and size of the B-primes are bounded before B is taken, as
    # a 0 entry makes B = 0 whatever the others are; each kept prime is >= 5,
    # so B < 2^n bounds both; n is capped by the p bound's, not p's, length
    n = min(ps.group_order.bit_length(), MR_BOUND.bit_length())
    ells = ps.primes
    bounded = len(ells) <= n and all(ell.bit_length() <= n for ell in ells)
    return ps.a < n and ps.c < n and bounded and ps.B.bit_length() <= n


#: run first on a decoded document, so that no later rule builds a power or
#: tests primality on an unbounded integer: A, B and C divide p + 1, and
#: below the p bound is_prime is exact.  Generation checks the p bound alone.
P_BOUND_RULE = (
    "p below the deterministic Miller-Rabin bound",
    lambda ps: ps.p < MR_BOUND,
    "p = {ps.p}",
)
SIZE_RULES = (
    ("a, c and B within the bit length of p + 1", _fits, "a = {ps.a}, c = {ps.c}"),
    P_BOUND_RULE,
)

#: named, as generation refuses c >= 2a by it before 3^c is built
EXTRACTION_RULE = (
    "extraction bound 4C < A^2",
    lambda ps: 4 * ps.C < ps.A**2,
    "C = {ps.C}, A = {ps.A}",
)

#: read the profile tuple alone: a, primes, c, D_tau, D_phi, nizk_rounds
SHAPE_RULES = (
    ("primes distinct, odd, not 3", _primes_ok, "primes = {ps.primes}"),
    # orientation sampling and checks list the ell points of a subgroup
    ("primes below 256", lambda ps: all(ell < 256 for ell in ps.primes), "primes = {ps.primes}"),
    ("D_tau | B and D_phi | C", _divisors_ok, "D_tau = {ps.d_tau}, D_phi = {ps.d_phi}"),
    EXTRACTION_RULE,
    (
        "recovery bound 4*B*D_tau*D_phi < A^2",
        lambda ps: 4 * ps.B * ps.d_tau * ps.d_phi < ps.A**2,
        "B = {ps.B}, D_tau = {ps.d_tau}, D_phi = {ps.d_phi}, A = {ps.A}",
    ),
    ("nizk_rounds >= 1", lambda ps: ps.nizk_rounds >= 1, "k = {ps.nizk_rounds}"),
)

#: with 4 | A, p = ABCf - 1 is 3 (mod 4), so GF(p)[i] is a field
P_RULES = (
    ("p = ABCf - 1", lambda ps: ps.p == ps.A * ps.B * ps.C * ps.f - 1, "f = {ps.f}, p = {ps.p}"),
    ("p prime", lambda ps: is_prime(ps.p), "p = {ps.p}"),
)


def _basis_ok(ps) -> bool:
    E, C = ps.e0, ps.C
    P, Q = ps.pq
    orders = all(E.on_curve(X) and has_exact_order(E, X, C) for X in (P, Q))
    return orders and is_primitive_root_of_unity(weil_pairing(E, P, Q, C), C)


def _orientation_ok(ps) -> bool:
    o = ps.orientation
    return o.curve == ps.e0 and o.primes == ps.primes and orientation_valid(o)


E0_RULE = ("E0 is y^2 = x^3 + x", lambda ps: ps.e0 == base_curve(ps.p), "not a twist of it")
BASIS_RULE = ("(P, Q) basis of E0[C]", _basis_ok, "C = {ps.C}")
ORIENTATION_RULE = ("orientation valid on E0", _orientation_ok, "primes = {ps.primes}")
CURVE_RULES = (E0_RULE, BASIS_RULE, ORIENTATION_RULE)


def failed_rule(ps, rules):
    """Name of the first rule ps fails, or None; later rules are not run."""
    for name, check, _ in rules:
        if not check(ps):
            return name
    return None


def generate_params(profile, rng) -> ParamSet:
    """Build a full parameter set for a named profile or a custom tuple.

    A negative exponent is refused, then an exponent whose power alone
    breaks a bound (a the p bound, c the extraction bound), then the shape
    rules run on the tuple, then the p bound on the least candidate
    A*B*C - 1.  The cofactor search is ascending from f = 1 and stops
    below the bound; the base curve, the C-torsion basis and the
    orientation are all deterministic given rng.
    """
    if isinstance(profile, str):
        try:
            a, primes, c, d_tau, d_phi, k = PROFILES[profile]
        except KeyError:
            raise ConstraintViolation(f"unknown profile {profile!r}") from None
    else:
        a, primes, c, d_tau, d_phi, k = profile
    # the rules take 2^a and 3^c as integers; 3^-1000 is the float 0.0
    if a < 0 or c < 0:
        raise ConstraintViolation("negative exponent a or c")
    # refused before any rule builds 2^a or 3^c: p + 1 >= 2^a, and c >= 2a
    # gives 4*3^c > 4^a, so 3^c is built only for c < 2a < 164
    if a >= MR_BOUND.bit_length():
        raise ConstraintViolation(f"violates {P_BOUND_RULE[0]}")
    if c >= 2 * a:
        raise ConstraintViolation(f"violates {EXTRACTION_RULE[0]}")
    # p, f and the curve data are filled in once the shape holds
    shape = ParamSet(None, a, primes, c, None, d_tau, d_phi, None, None, None, k)
    failed = failed_rule(shape, SHAPE_RULES)
    if failed is not None:
        raise ConstraintViolation(f"violates {failed}")

    base = shape.A * shape.B * shape.C
    failed = failed_rule(replace(shape, p=base - 1), (P_BOUND_RULE,))
    if failed is not None:
        raise ConstraintViolation(f"violates {failed}")
    top = min(_F_SEARCH_BOUND, MR_BOUND // base)  # base*top - 1 < MR_BOUND
    p = None
    for f in range(1, top + 1):
        cand = base * f - 1
        if is_prime(cand):
            p = cand
            break
    if p is None:
        raise NoPrimeFound(f"no prime of the form {base}*f - 1 with f <= {top}")

    e0 = base_curve(p)
    orientation = sample_orientation(e0, primes, rng)
    pq = canonical_torsion_basis(e0, shape.C, e0.p + 1)
    return replace(shape, p=p, f=f, e0=e0, orientation=orientation, pq=pq)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


@dataclass
class ValidationReport:
    checks: list
    info: list

    @property
    def ok(self) -> bool:
        return all(passed for _, passed, _ in self.checks)

    def lines(self):
        out = []
        for name, passed, detail in self.checks:
            out.append(f"[{'pass' if passed else 'FAIL'}] {name}: {detail}")
        for name, detail in self.info:
            out.append(f"[info] {name}: {detail}")
        return out


def validate_params(ps: ParamSet) -> ValidationReport:
    """Every parameter rule; failures are reported, not raised.  No rule
    does work that grows with p: p = ABCf - 1 with 4 | A is 3 (mod 4), so
    with E0_RULE E0's group over GF(p^2) is (Z/(p+1))^2, with no point
    count."""
    checks = [
        (name, check(ps), detail.format(ps=ps))
        for name, check, detail in SIZE_RULES + SHAPE_RULES + P_RULES + CURVE_RULES
    ]
    lp = math.log(ps.p)
    info = [
        ("log_p(A) vs 3/10", f"{math.log(ps.A)/lp:.3f} (target 0.300, not enforced)"),
        ("log_p(B) vs 3/5", f"{math.log(ps.B)/lp:.3f} (target 0.600, not enforced)"),
        ("log_p(C) vs 1/10", f"{math.log(ps.C)/lp:.3f} (target 0.100, not enforced)"),
    ]
    return ValidationReport(checks, info)
