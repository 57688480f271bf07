"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Budgets follow the criteria; everything runs on the named profiles with
fixed seeds, so a pass here is reproducible bit for bit.
"""

import json
import random
import time
from itertools import product

import pytest

from adaptorsig import serial
from adaptorsig.adaptor import PreSignature, adapt, extract, presign, preverify
from adaptorsig.cli import main
from adaptorsig.curve import canonical_torsion_basis, factorize, weil_pairing
from adaptorsig.dlog import recover_isogeny
from adaptorsig.errors import AmbiguityBound, WitnessStatementMismatch
from adaptorsig.field import Fp2
from adaptorsig.isogeny import (
    EfficientRep,
    compose_chains,
    dual,
    efficient_rep,
    isogeny_from_kernel,
    pull_back,
    push_forward,
)
from adaptorsig.nizk import NizkRound
from adaptorsig.orientation import orientation_image, oriented_kernel
from adaptorsig.relation import Statement, Witness, gen_r, verify_relation, witness_chain
from adaptorsig.sig import cyclic_kernel, keygen, mu, response_degree, verify


def _report(num, desc, detail=""):
    print(f"[acceptance] criterion {num} ({desc}): PASS {detail}")


def _random_cyclic_chain(E, degree, rng):
    """Uniformly random cyclic-kernel chain of smooth degree from E."""
    gens = []
    for ell, e in factorize(degree).items():
        D = ell**e
        gens += cyclic_kernel(E, D, [rng.randrange(1, mu(D) + 1)])
    return isogeny_from_kernel(E, gens, degree)


def test_criterion_1_algebraic_laws(t0):
    """Field axioms, group laws, pairing laws, dual composition; >= 1e3 each."""
    start = time.time()
    p = t0.p
    E = t0.e0
    n = t0.group_order
    rng = random.Random(101)

    for _ in range(1000):
        x = Fp2(p, rng.randrange(p), rng.randrange(p))
        y = Fp2(p, rng.randrange(p), rng.randrange(p))
        z = Fp2(p, rng.randrange(p), rng.randrange(p))
        assert x * (y + z) == x * y + x * z
        assert (x * y) * z == x * (y * z)
        assert x + y == y + x

    for _ in range(1000):
        P, Q, R = (E.random_point(rng) for _ in range(3))
        assert E.add(E.add(P, Q), R) == E.add(P, E.add(Q, R))
        m, k = rng.randrange(100), rng.randrange(100)
        assert E.add(E.mul(m, P), E.mul(k, P)) == E.mul(m + k, P)

    N = t0.A
    PA, QA = canonical_torsion_basis(E, N, n)
    z0 = weil_pairing(E, PA, QA, N)
    one = Fp2.one(p)
    for i in range(1000):
        m = rng.randrange(1, N)
        k = rng.randrange(1, N)
        assert weil_pairing(E, E.mul(m, PA), E.mul(k, QA), N) == z0 ** (m * k)
        if i % 50 == 0:
            T = E.add(E.mul(m, PA), E.mul(k, QA))
            assert weil_pairing(E, T, T, N) == one

    for i in range(1000):
        ell = (2, 3, 5, 7)[rng.randrange(4)]
        chain = _random_cyclic_chain(E, ell, rng)
        back = dual(chain)
        R = E.random_point(rng)
        assert back.evaluate(chain.evaluate(R)) == E.mul(ell, R)

    took = time.time() - start
    assert took < 60, f"algebraic suite exceeded its budget: {took:.1f}s"
    _report(1, "algebraic laws", f"in {took:.1f}s")


def test_criterion_2_diagram_suite(t0):
    """Push-forward/pull-back and orientation-parallel squares, exhaustive
    over choice vectors x 20 random coprime isogenies."""
    E = t0.e0
    rng = random.Random(202)
    vectors = list(product((1, 2), repeat=t0.t))
    for trial in range(20):
        # degrees coprime to B with rational cyclic torsion at T0
        deg = (2, 4, 8, 3, 6, 12, 24)[rng.randrange(7)]
        phi = _random_cyclic_chain(E, deg, rng)
        img = orientation_image(phi, t0.orientation)
        for bits in vectors:
            g1 = oriented_kernel(t0.orientation, list(bits))
            g2 = oriented_kernel(img, list(bits))
            # kernel-image equality
            assert [phi.evaluate(g) for g in g1] == g2
            psi1 = isogeny_from_kernel(E, g1, t0.B)
            psi2 = isogeny_from_kernel(phi.codomain, g2, t0.B)
            # parallel square: both routes end on equal j-invariants
            moved = push_forward(psi1, phi)
            assert moved.codomain.j_invariant() == psi2.codomain.j_invariant()
            # commutative square both ways
            other = push_forward(phi, psi1)
            jA = compose_chains(phi, other).codomain.j_invariant()
            jB = compose_chains(psi1, moved).codomain.j_invariant()
            assert jA == jB
            # pull-back inverts the push-forward on kernels
            back = pull_back(phi, other)
            for g in psi1.kernel_gens:
                assert back.evaluate(g).is_inf
    _report(2, "diagram suite", f"{20 * len(vectors)} squares")


def test_criterion_3_walk_count_identity(t0, t1, t2):
    """Distinct challenge-walk kernels == mu(D) for D in {3, 9, 27}."""
    from adaptorsig.sig import challenge_walk

    for D, ps in ((3, t0), (9, t1), (27, t2)):
        E = ps.e0
        kernels = set()
        for h in range(1, mu(D) + 1):
            chain = challenge_walk(E, h, D)
            K = chain.kernel_gens[0]
            pts = set()
            R = K
            for _ in range(D - 1):
                pts.add((R.x.lex_key(), None))
                R = E.add(R, K)
            kernels.add(frozenset(pts))
        assert len(kernels) == mu(D) == {3: 4, 9: 12, 27: 36}[D]
    _report(3, "walk-count identity", "D in {3, 9, 27}")


def test_criterion_4_presignature_correctness(t0):
    """100 random (key, message, witness) runs with strict pre-verification."""
    start = time.time()
    ok = 0
    for i in range(100):
        rng = random.Random(40_000 + i)
        kp = keygen(t0, rng)
        w, s = gen_r(t0, rng)
        m = b"run %d" % i
        pre = presign(kp, m, s, t0, rng)
        assert preverify(kp.pk, m, s, pre, "strict", t0), f"run {i}: preverify"
        full = adapt(pre, w, t0)
        assert verify(kp.pk, m, full, "light", t0), f"run {i}: verify(adapt)"
        rec = extract(full, pre, s, t0)
        assert rec is not None and rec.alpha == w.alpha, f"run {i}: extract"
        assert verify_relation(rec, s, t0), f"run {i}: relation"
        ok += 1
    took = time.time() - start
    assert ok == 100
    assert took < 600, f"pre-signature correctness exceeded its budget: {took:.0f}s"
    _report(4, "pre-signature correctness", f"100/100 in {took:.0f}s")


def test_criterion_5_exhaustive_witness_recovery(t0, t1):
    """Every alpha in Z/CZ round-trips through the full pipeline."""
    for ps in (t0, t1):
        rng = random.Random(50_000 + ps.C)
        kp = keygen(ps, rng)
        for alpha in range(ps.C):
            w = Witness(alpha)
            chain = witness_chain(ps, w.alpha)
            s = Statement(chain.codomain, orientation_image(chain, ps.orientation))
            m = b"exhaustive %d" % alpha
            pre = presign(kp, m, s, ps, rng)
            assert preverify(kp.pk, m, s, pre, "light", ps)
            full = adapt(pre, w, ps)
            rec = extract(full, pre, s, ps)
            assert rec is not None and rec.alpha == alpha, (ps.C, alpha)
    _report(5, "exhaustive witness recovery", "C = 3 and C = 9")


def test_criterion_6_tamper_suite(t0):
    """Five tamper classes, 20 randomized instances each, zero false accepts."""
    classes = {k: 0 for k in ("s-scaling", "rep-swap", "nizk-corner", "wrong-witness", "cross-extract")}
    for i in range(20):
        rng = random.Random(60_000 + i)
        kp = keygen(t0, rng)
        w, s = gen_r(t0, rng)
        m = b"tamper %d" % i
        pre = presign(kp, m, s, t0, rng)

        k = 2 + rng.randrange(t0.C - 2)  # scaling in [2, C-1], nonzero mod C
        bad = PreSignature(
            pre.e1, pre.proof, pre.epsi, (pre.s[0], pre.epsi.mul(k, pre.s[1])), pre.rep_tilde
        )
        reasons = []
        assert not preverify(kp.pk, m, s, bad, "light", t0, reasons)
        assert reasons[0] == "s-points:pairing"
        classes["s-scaling"] += 1

        rt = pre.rep_tilde
        bad = PreSignature(
            pre.e1, pre.proof, pre.epsi, pre.s,
            EfficientRep(rt.domain, rt.codomain, rt.degree, rt.order, rt.basis,
                         (rt.images[1], rt.images[0])),
        )
        reasons = []
        assert not preverify(kp.pk, m, s, bad, "light", t0, reasons)
        assert reasons[0] == "rep:pairing"
        classes["rep-swap"] += 1

        import copy

        proof = copy.deepcopy(pre.proof)
        j = rng.randrange(len(proof.rounds) - 1)
        ra, rb = proof.rounds[j], proof.rounds[j + 1]
        proof.rounds[j] = NizkRound(rb.f, ra.fp, ra.tag, ra.reveal)
        bad = PreSignature(pre.e1, proof, pre.epsi, pre.s, pre.rep_tilde)
        reasons = []
        assert not preverify(kp.pk, m, s, bad, "light", t0, reasons)
        assert reasons[0] == "nizk"
        classes["nizk-corner"] += 1

        wrong_alpha = (w.alpha + 1 + rng.randrange(t0.C - 1)) % t0.C
        wrong = Witness(wrong_alpha)
        try:
            stray = adapt(pre, wrong, t0)
            rec = extract(stray, pre, s, t0)
            assert rec is None or rec.alpha != w.alpha
        except WitnessStatementMismatch:
            pass
        classes["wrong-witness"] += 1

        rng2 = random.Random(61_000 + i)
        kp2 = keygen(t0, rng2)
        w2, s2 = gen_r(t0, rng2)
        pre2 = presign(kp2, b"other %d" % i, s2, t0, rng2)
        full = adapt(pre, w, t0)
        reasons = []
        assert extract(full, pre2, s2, t0, reasons) is None
        assert reasons
        classes["cross-extract"] += 1
    assert all(v == 20 for v in classes.values()), classes
    _report(6, "tamper suite", "5 classes x 20 instances")


def test_criterion_7_oracle_soundness(t0):
    """recover_isogeny inverts efficient_rep whenever 4*deg < A^2, and
    refuses with AmbiguityBound when the bound is violated."""
    E = t0.e0
    n = t0.group_order
    qt = response_degree(t0)
    degrees = [t0.C] * 34 + [t0.B] * 33 + [qt] * 33
    rng = random.Random(700)
    for i, deg in enumerate(degrees):
        assert 4 * deg < t0.A * t0.A
        if deg == qt:
            # response-shaped composite: dual commitment, key, challenge
            psi = _random_cyclic_chain(E, t0.B, rng)
            tau = _random_cyclic_chain(E, t0.d_tau, rng)
            phi = _random_cyclic_chain(tau.codomain, t0.d_phi, rng)
            chain = compose_chains(dual(psi), tau, phi)
        else:
            chain = _random_cyclic_chain(E, deg, rng)
        rep = efficient_rep(chain, t0.A)
        rec = recover_isogeny(rep)
        assert rec.degree == deg and rec.codomain == rep.codomain
        if chain.kernel_gens:
            for g in chain.kernel_gens:
                assert rec.evaluate(g).is_inf
        else:
            # composite kernels are not rational: compare as maps instead
            for _ in range(4):
                R = chain.domain.random_point(rng)
                assert rec.evaluate(R) == chain.evaluate(R)

    # constructed violations of the uniqueness precondition
    w3 = witness_chain(t0, 1)
    U, V = canonical_torsion_basis(E, t0.C, n)
    small = EfficientRep(E, w3.codomain, t0.C, t0.C, (U, V),
                         (w3.evaluate(U), w3.evaluate(V)))
    with pytest.raises(AmbiguityBound):
        recover_isogeny(small)
    shared = efficient_rep(w3, t0.A * t0.C)
    with pytest.raises(AmbiguityBound):
        recover_isogeny(shared)
    _report(7, "oracle soundness", "100 recoveries + bound violations")


def test_criterion_8_cli_determinism(tmp_path, capsys):
    """Every subcommand is byte-identical across two runs with one seed."""

    def run(tag):
        d = tmp_path / tag
        d.mkdir()
        f = {
            "params": d / "params.json",
            "key": d / "key.json",
            "rel": d / "rel.json",
            "presig": d / "presig.json",
            "sig": d / "sig.json",
            "plain": d / "plain.json",
            "wit": d / "wit.json",
            "swap": d / "swap.json",
        }
        outs = []
        cmds = [
            ["params", "--profile", "T0", "--seed", "0", "--out", str(f["params"])],
            ["keygen", "--params", str(f["params"]), "--seed", "1", "--out", str(f["key"])],
            ["genr", "--params", str(f["params"]), "--seed", "2", "--out", str(f["rel"])],
            ["presign", "--params", str(f["params"]), "--key", str(f["key"]),
             "--statement", str(f["rel"]), "--message", "det", "--seed", "3",
             "--out", str(f["presig"])],
            ["preverify", "--params", str(f["params"]), "--key", str(f["key"]),
             "--statement", str(f["rel"]), "--message", "det", str(f["presig"])],
            ["adapt", "--params", str(f["params"]), "--presignature", str(f["presig"]),
             "--statement", str(f["rel"]), "--witness", str(f["rel"]),
             "--out", str(f["sig"])],
            ["extract", "--params", str(f["params"]), "--signature", str(f["sig"]),
             "--presignature", str(f["presig"]), "--statement", str(f["rel"]),
             "--out", str(f["wit"])],
            ["sign", "--params", str(f["params"]), "--key", str(f["key"]),
             "--message", "det", "--seed", "4", "--out", str(f["plain"])],
            ["verify", "--params", str(f["params"]), "--key", str(f["key"]),
             "--message", "det", str(f["sig"])],
            ["demo-swap", "--params", str(f["params"]), "--seed", "5",
             "--out", str(f["swap"])],
        ]
        for cmd in cmds:
            assert main(cmd) == 0, cmd
            outs.append((cmd[0], capsys.readouterr().out))
        files = {k: v.read_bytes() for k, v in f.items()}
        return outs, files

    outs1, files1 = run("one")
    outs2, files2 = run("two")
    assert outs1 == outs2
    assert files1 == files2
    _report(8, "CLI determinism", f"{len(files1)} artifacts byte-identical")


def test_criterion_9_size_accounting(tmp_path, capsys):
    """The CLI reports sizes and an extrapolation, quoting the full-scale
    figure without asserting it."""
    d = tmp_path
    pf, kf, rf, gf, sf = (d / x for x in ("p.json", "k.json", "r.json", "g.json", "s.json"))
    assert main(["params", "--profile", "T0", "--seed", "0", "--out", str(pf)]) == 0
    assert main(["keygen", "--params", str(pf), "--seed", "1", "--out", str(kf)]) == 0
    assert main(["genr", "--params", str(pf), "--seed", "2", "--out", str(rf)]) == 0
    assert main(["presign", "--params", str(pf), "--key", str(kf), "--statement",
                 str(rf), "--message", "size", "--seed", "3", "--out", str(gf)]) == 0
    assert main(["adapt", "--params", str(pf), "--presignature", str(gf),
                 "--statement", str(rf), "--witness", str(rf), "--out", str(sf)]) == 0
    capsys.readouterr()
    assert main(["verify", "--params", str(pf), "--key", str(kf), "--message",
                 "size", str(sf)]) == 0
    report = json.loads(capsys.readouterr().out)["size_report"]
    assert report["serialized_bytes"] == len(sf.read_bytes())
    assert "formula" in report and "desk_scale" in report
    extr = report["paper_scale_extrapolation"]
    assert extr["minimal_bytes"] > 0
    # states, but does not assert equality with, the reported figure
    assert report["reported_full_scale_bytes"] == 1536
    assert extr["minimal_bytes"] != report["reported_full_scale_bytes"]
    assert "not reproduced" in report["note"]
    _report(9, "size accounting", f"{report['serialized_bytes']} bytes serialized")
