"""Layer micro-kernels, timed from outside on the workload's own operands.

Each kernel runs its operation in chunks for a short, fixed budget and
reports the median chunk rate; each also checks one algebraic identity of
its results so that a fast wrong answer is caught.
"""

import random
from statistics import median
from time import perf_counter

BUDGET_S = 0.2
STEP_PRIMES = (2, 3, 5, 7)


class KernelCheckFailed(Exception):
    pass


def _check(ok, what):
    if not ok:
        raise KernelCheckFailed(what)


def _rate(body, n):
    """Median calls/s of body(n), which makes n calls, over several chunks."""
    rates = []
    stop = perf_counter() + BUDGET_S
    while len(rates) < 3 or perf_counter() < stop:
        t = perf_counter()
        body(n)
        rates.append(n / (perf_counter() - t))
    return median(rates)


def _field(out, prof, elems):
    one = elems[0].one(elems[0].p)
    mask = len(elems) - 1
    squares = [x * x for x in elems]
    for x in elems[:4]:
        _check(x * x.inv() == one, f"field {prof}: x * x^-1 != 1")
        r = (x * x).sqrt()
        _check(r is not None and r * r == x * x, f"field {prof}: sqrt")

    def mul(n):
        a = elems[0]
        for i in range(n):
            a = a * elems[i & mask]

    def inv(n):
        for i in range(n):
            elems[i & mask].inv()

    def sqrt(n):
        for i in range(n):
            squares[i & mask].sqrt()

    out[f"field.{prof}.mul_per_s"] = _rate(mul, 4000)
    out[f"field.{prof}.inv_per_s"] = _rate(inv, 1000)
    out[f"field.{prof}.sqrt_per_s"] = _rate(sqrt, 200)


def _coords(points, count=16):
    elems = []
    for P in points:
        if not P.is_inf:
            elems += [P.x, P.y]
    while len(elems) < count:
        elems += [z for a, b in zip(elems, elems[1:]) if (z := a * b + a)]
    return elems[:count]


def run(lib, params, rep, seed):
    """Every layer kernel; `rep` is a T0 representation of order A*C."""
    out = {}
    rng = random.Random(f"{seed}:kernels")
    ps = params["T0"]
    E, (U, V), N = rep.domain, rep.basis, rep.order
    A, C, go = ps.A, ps.C, ps.group_order
    _check(N == A * C, "operand representation is not of order A*C")

    _field(out, "T0", _coords([U, V, *rep.images]))
    for prof in ("T1", "T2"):
        _field(out, prof, _coords(params[prof].pq))

    scalars = [rng.randrange(1, go) for _ in range(32)]
    _check(E.mul(N, U).is_inf, "Curve.mul: [A*C]U is not the identity")

    def cmul(n):
        for i in range(n):
            E.mul(scalars[i & 31], U)

    out["curve.mul_per_s"] = _rate(cmul, 20)

    UA, VA = E.mul(C, U), E.mul(C, V)
    one = ps.one()
    for tag, (P, Q, n_) in {"A": (UA, VA, A), "AC": (U, V, N)}.items():
        z = lib.curve.weil_pairing(E, P, Q, n_)
        _check(z**n_ == one and z ** (n_ // 2) != one, f"weil_pairing at {tag}: order")
        out[f"curve.weil_pairing_{tag}_per_s"] = _rate(
            lambda n, P=P, Q=Q, n_=n_: [lib.curve.weil_pairing(E, P, Q, n_) for _ in range(n)], 2
        )

    # fresh curves: random twists of the operand curve are isomorphic to it
    # but have new models, so no basis cache entry exists for them yet
    times = []
    for _ in range(3):
        u = ps.one()
        while u == ps.one():
            u = lib.field.Fp2(ps.p, rng.randrange(1, ps.p), rng.randrange(ps.p))
        F = lib.curve.twist_curve(E, u)
        t = perf_counter()
        P, Q = lib.curve.canonical_torsion_basis(F, N, go)
        times.append(perf_counter() - t)
        _check(F.mul(N, P).is_inf and F.mul(N, Q).is_inf, "fresh torsion basis order")
    out["curve.canonical_torsion_basis_fresh_s"] = median(times)

    Step = lib.isogeny.Step
    for ell in STEP_PRIMES:
        G = lib.curve.small_torsion_basis(E, ell, go)[0]
        step = Step(E, G, ell)
        _check(step.evaluate(G).is_inf, f"Step {ell}: kernel not mapped to the identity")
        _check(step.codomain.on_curve(step.evaluate(U)), f"Step {ell}: image off codomain")
        out[f"isogeny.step_l{ell}.build_per_s"] = _rate(
            lambda n, G=G, ell=ell: [Step(E, G, ell) for _ in range(n)], 20
        )
        out[f"isogeny.step_l{ell}.evaluate_per_s"] = _rate(
            lambda n, step=step: [step.evaluate(U) for _ in range(n)], 20
        )

    xs = [(rng.randrange(A), rng.randrange(A)) for _ in range(8)]
    targets = [E.add(E.mul(x, UA), E.mul(y, VA)) for x, y in xs]
    for (x, y), T in zip(xs, targets):
        d = lib.dlog.decompose_2d(E, UA, VA, T, A)
        _check((d.x, d.y) == (x, y), "decompose_2d: wrong coordinates")

    def decompose(n):
        for i in range(n):
            lib.dlog.decompose_2d(E, UA, VA, targets[i & 7], A)

    out["dlog.decompose_2d_per_s"] = _rate(decompose, 2)
    return out
