"""Public parameter sets: p = A*B*C*f - 1 with A = 2^a, B = prod(ell_i), C = 3^c.

The base curve is y^2 = x^3 + x, supersingular because p = 3 (mod 4); its
group over GF(p^2) is (Z/(p+1))^2, so all the torsion the protocol touches
is rational.
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


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; the witness set covers n < 3.3e24."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
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


def _check_shape(a, primes, c, d_tau, d_phi, k):
    A = 2**a
    B = math.prod(primes)
    C = 3**c
    if a < 2:
        raise ConstraintViolation("need a >= 2 so that 4 | A")
    if len(set(primes)) != len(primes):
        raise ConstraintViolation("primes must be distinct")
    for ell in primes:
        if ell == 3 or ell % 2 == 0 or not is_prime(ell):
            raise ConstraintViolation(
                f"prime {ell} collides with A = 2^a or C = 3^c (must be odd, not 3)"
            )
    if c < 1:
        raise ConstraintViolation("need c >= 1")
    if d_tau <= 1 or B % d_tau != 0:
        raise ConstraintViolation("D_tau must be a nontrivial divisor of B")
    if d_phi <= 1 or C % d_phi != 0:
        raise ConstraintViolation("D_phi must be a nontrivial power of 3 dividing C")
    if 4 * C >= A * A:
        raise ConstraintViolation(f"extraction bound violated: 4*C = {4*C} >= A^2 = {A*A}")
    if 4 * B * d_tau * d_phi >= A * A:
        raise ConstraintViolation(
            f"recovery bound violated: 4*B*D_tau*D_phi = {4*B*d_tau*d_phi} >= A^2 = {A*A}"
        )
    if k < 1:
        raise ConstraintViolation("need nizk_rounds >= 1")
    return A, B, C


def base_curve(p: int) -> Curve:
    """E0: y^2 = x^3 + x over GF(p^2)."""
    return Curve(Fp2(p, 1), Fp2(p, 0))


def generate_params(profile, rng) -> ParamSet:
    """Build a full parameter set for a named profile or a custom tuple.

    The cofactor search is ascending from f = 1; the base curve, the
    C-torsion basis and the orientation are all deterministic given rng.
    """
    if isinstance(profile, str):
        try:
            a, primes, c, d_tau, d_phi, k = PROFILES[profile]
        except KeyError:
            raise ConstraintViolation(f"unknown profile {profile!r}") from None
    else:
        a, primes, c, d_tau, d_phi, k = profile
    A, B, C = _check_shape(a, primes, c, d_tau, d_phi, k)

    base = A * B * C
    p = None
    for f in range(1, _F_SEARCH_BOUND + 1):
        cand = base * f - 1
        if is_prime(cand):
            p = cand
            break
    if p is None:
        raise NoPrimeFound(f"no prime of the form {base}*f - 1 with f <= {_F_SEARCH_BOUND}")

    e0 = base_curve(p)
    orientation = sample_orientation(e0, primes, p + 1, rng)
    pq = canonical_torsion_basis(e0, C, p + 1)
    return ParamSet(p, a, primes, c, f, d_tau, d_phi, e0, orientation, pq, k)


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
    """Re-check every ParamSet invariant; failures are reported, not raised."""
    checks = []
    A, B, C = ps.A, ps.B, ps.C

    checks.append(("p prime", is_prime(ps.p), f"p = {ps.p}"))
    checks.append(("p = 3 (mod 4)", ps.p % 4 == 3, f"p % 4 = {ps.p % 4}"))
    checks.append(
        ("p = ABCf - 1", ps.p == A * B * C * ps.f - 1, f"ABCf - 1 = {A*B*C*ps.f - 1}")
    )
    cop = (
        math.gcd(A, B) == 1 and math.gcd(A, C) == 1 and math.gcd(B, C) == 1
    )
    checks.append(("A, B, C pairwise coprime", cop, f"A={A} B={B} C={C}"))
    shape = all(ell % 2 == 1 and ell != 3 and is_prime(ell) for ell in ps.primes) and len(
        set(ps.primes)
    ) == len(ps.primes)
    checks.append(("primes distinct, odd, not 3", shape, f"primes = {ps.primes}"))
    checks.append(
        ("extraction bound 4C < A^2", 4 * C < A * A, f"4C = {4*C}, A^2 = {A*A}")
    )
    bound = 4 * B * ps.d_tau * ps.d_phi
    checks.append(
        (
            "recovery bound 4*B*D_tau*D_phi < A^2",
            bound < A * A,
            f"lhs = {bound}, A^2 = {A*A}",
        )
    )
    checks.append(
        ("D_tau | B and D_phi | C", B % ps.d_tau == 0 and C % ps.d_phi == 0, "")
    )

    ss = _supersingular_count_check(ps)
    checks.append(("E0 supersingular, |E0(GF(p^2))| = (p+1)^2", ss, "point count over GF(p)"))

    P, Q = ps.pq
    pq_ok = (
        ps.e0.on_curve(P)
        and ps.e0.on_curve(Q)
        and has_exact_order(ps.e0, P, C)
        and has_exact_order(ps.e0, Q, C)
        and is_primitive_root_of_unity(weil_pairing(ps.e0, P, Q, C), C)
    )
    checks.append(("(P, Q) basis of E0[C]", pq_ok, f"C = {C}"))

    checks.append(
        (
            "orientation valid on E0",
            ps.orientation.curve == ps.e0
            and ps.orientation.primes == ps.primes
            and orientation_valid(ps.orientation, ps.p + 1),
            f"primes = {ps.primes}",
        )
    )
    checks.append(("nizk_rounds >= 1", ps.nizk_rounds >= 1, f"k = {ps.nizk_rounds}"))

    lp = math.log(ps.p)
    info = [
        ("log_p(A) vs 3/10", f"{math.log(A)/lp:.3f} (target 0.300, not enforced)"),
        ("log_p(B) vs 3/5", f"{math.log(B)/lp:.3f} (target 0.600, not enforced)"),
        ("log_p(C) vs 1/10", f"{math.log(C)/lp:.3f} (target 0.100, not enforced)"),
    ]
    return ValidationReport(checks, info)


def _supersingular_count_check(ps: ParamSet) -> bool:
    """|E0(GF(p))| = p + 1 via a Legendre-symbol sum, which forces
    |E0(GF(p^2))| = (p+1)^2 for a trace-zero curve."""
    p = ps.p
    if ps.e0 != base_curve(p):
        return False
    count = p + 1  # infinity plus one point per x with rhs = 0, etc.
    total = 1
    for x in range(p):
        rhs = (x * x * x + x) % p
        if rhs == 0:
            total += 1
        else:
            ls = pow(rhs, (p - 1) // 2, p)
            total += 2 if ls == 1 else 0
    return total == count


def tweak(ps: ParamSet, **kw) -> ParamSet:
    """dataclasses.replace passthrough, for building deliberately bad sets."""
    return replace(ps, **kw)
