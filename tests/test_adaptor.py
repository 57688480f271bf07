import copy
import random
import sys

import pytest

from adaptorsig import adaptor, curve, dlog, isogeny, relation, serial, swap
from adaptorsig.adaptor import (
    AdaptedSignature,
    PreSignature,
    adapt,
    extract,
    presign,
    preverify,
)
from adaptorsig.curve import canonical_torsion_basis, twist_curve, twist_point
from adaptorsig.dlog import evaluate_rep
from adaptorsig.errors import WitnessStatementMismatch
from adaptorsig.field import Fp2
from adaptorsig.isogeny import EfficientRep
from adaptorsig.nizk import NizkRound
from adaptorsig.relation import Statement, Witness, gen_r, verify_relation, witness_chain
from adaptorsig.orientation import orientation_image
from adaptorsig.params import generate_params
from adaptorsig.sig import cyclic_kernel, keygen, mu, response_degree, sign, verify


def session(ps, seed):
    rng = random.Random(seed)
    kp = keygen(ps, rng)
    w, s = gen_r(ps, rng)
    m = b"session %d" % seed
    pre = presign(kp, m, s, ps, rng)
    return kp, w, s, m, pre


def test_roundtrip_light(t0):
    kp, w, s, m, pre = session(t0, 1)
    assert pre.rep_tilde.degree == response_degree(t0) == 3675
    assert preverify(kp.pk, m, s, pre, "light", t0)
    full = adapt(pre, w, t0)
    assert full.rep.degree == 3675 * 3 == 11025
    assert verify(kp.pk, m, full, "light", t0)
    rec = extract(full, pre, s, t0)
    assert rec is not None and rec.alpha == w.alpha
    assert verify_relation(rec, s, t0)


def test_extract_builds_the_witness_isogeny_once(t0, monkeypatch):
    """The degree-C chain is rebuilt from alpha by verify_relation alone:
    the witness extract returns is its residue."""
    kp, w, s, m, pre = session(t0, 1)
    full = adapt(pre, w, t0)
    degrees = []
    build = isogeny.isogeny_from_kernel

    def counted(E, gens, degree):
        degrees.append(degree)
        return build(E, gens, degree)

    for module in (isogeny, relation, adaptor):
        monkeypatch.setattr(module, "isogeny_from_kernel", counted)
    rec = extract(full, pre, s, t0)
    assert rec is not None and rec.alpha == w.alpha
    assert degrees.count(t0.C) == 1


def test_roundtrip_strict(t0):
    kp, w, s, m, pre = session(t0, 2)
    assert preverify(kp.pk, m, s, pre, "strict", t0)


def test_presign_deterministic_bytes(t0):
    kp = keygen(t0, random.Random(3))
    w, s = gen_r(t0, random.Random(4))
    m = b"determinism"
    a = presign(kp, m, s, t0, random.Random(5))
    b = presign(kp, m, s, t0, random.Random(5))
    assert serial.encode(serial.presig_doc(a)) == serial.encode(serial.presig_doc(b))


def test_s_point_scaling_rejected_at_pairing_check(t0):
    kp, w, s, m, pre = session(t0, 6)
    bad = PreSignature(
        pre.e1,
        pre.proof,
        pre.epsi,
        (pre.s[0], pre.epsi.mul(2, pre.s[1])),
        pre.rep_tilde,
    )
    reasons = []
    assert not preverify(kp.pk, m, s, bad, "light", t0, reasons)
    assert reasons == ["s-points:pairing"]


def test_rep_image_swap_rejected(t0):
    kp, w, s, m, pre = session(t0, 7)
    rt = pre.rep_tilde
    bad = PreSignature(
        pre.e1,
        pre.proof,
        pre.epsi,
        pre.s,
        EfficientRep(rt.domain, rt.codomain, rt.degree, rt.order, rt.basis,
                     (rt.images[1], rt.images[0])),
    )
    reasons = []
    assert not preverify(kp.pk, m, s, bad, "light", t0, reasons)
    assert reasons == ["rep:pairing"]


def test_nizk_corner_substitution_rejected(t0):
    kp, w, s, m, pre = session(t0, 8)
    proof = copy.deepcopy(pre.proof)
    r0, r1 = proof.rounds[0], proof.rounds[1]
    proof.rounds[0] = NizkRound(r1.f, r0.fp, r0.tag, r0.reveal)
    bad = PreSignature(pre.e1, proof, pre.epsi, pre.s, pre.rep_tilde)
    reasons = []
    assert not preverify(kp.pk, m, s, bad, "light", t0, reasons)
    assert reasons == ["nizk"]


def test_wrong_witness_exhaustive(t0):
    kp, w, s, m, pre = session(t0, 9)
    adapted = 0
    for alpha in range(t0.C):
        cand = Witness(alpha)
        try:
            full = adapt(pre, cand, t0)
        except WitnessStatementMismatch:
            assert alpha != w.alpha
            continue
        if alpha == w.alpha:
            adapted += 1
            assert verify(kp.pk, m, full, "light", t0)
        else:
            # a j-invariant collision let the adaptation through; the
            # extracted witness must still fail the relation
            rec = extract(full, pre, s, t0)
            assert rec is None or rec.alpha != w.alpha
    assert adapted == 1


def test_cross_presignature_extract_bottom(t0):
    kp, w, s, m, pre = session(t0, 10)
    kp2, w2, s2, m2, pre2 = session(t0, 11)
    full = adapt(pre, w, t0)
    reasons = []
    assert extract(full, pre2, s2, t0, reasons) is None
    assert reasons


def test_adaptability_after_reserialization(t0):
    kp, w, s, m, pre = session(t0, 12)
    doc = serial.presig_doc(pre)
    back = serial.parse_presig(serial.loads(serial.encode(doc)), t0, s)
    assert preverify(kp.pk, m, s, back, "light", t0)
    full = adapt(back, w, t0)
    assert verify(kp.pk, m, full, "light", t0)
    rec = extract(full, back, s, t0)
    assert rec is not None and rec.alpha == w.alpha


def test_degree_bookkeeping(t0, t1):
    for ps, seed in ((t0, 13), (t1, 14)):
        kp, w, s, m, pre = session(ps, seed)
        full = adapt(pre, w, ps)
        assert full.rep.degree == pre.rep_tilde.degree * ps.C


def test_exhaustive_alpha_pipeline(t0, t1):
    for ps in (t0, t1):
        rng = random.Random(15)
        kp = keygen(ps, rng)
        for alpha in range(ps.C):
            w = Witness(alpha)
            chain = witness_chain(ps, w.alpha)
            s = Statement(chain.codomain, orientation_image(chain, ps.orientation))
            m = b"alpha %d" % alpha
            pre = presign(kp, m, s, ps, rng)
            assert preverify(kp.pk, m, s, pre, "light", ps)
            full = adapt(pre, w, ps)
            assert verify(kp.pk, m, full, "light", ps)
            rec = extract(full, pre, s, ps)
            assert rec is not None and rec.alpha == alpha


def test_strict_preverify_rejects_a_forgery_by_recovery(t0, forge):
    kp, w, s, m, pre = session(t0, 16)
    # besides the forge fixture, k = 1 (mod A) and k = -1 (mod C): the A-part
    # is untouched and the C-part negated, and k^2 = 1 keeps the pairing law
    rep = pre.rep_tilde
    k = next(x for x in range(1, t0.A * t0.C, t0.A) if x % t0.C == t0.C - 1)
    images = tuple(rep.codomain.mul(k, T) for T in rep.images)
    c_part = EfficientRep(rep.domain, rep.codomain, rep.degree, rep.order, rep.basis, images)
    for forged in (forge(rep, t0), c_part):
        fake = PreSignature(pre.e1, pre.proof, pre.epsi, pre.s, forged)
        reasons = []
        assert preverify(kp.pk, m, s, fake, "light", t0, reasons)
        assert reasons == []
        assert not preverify(kp.pk, m, s, fake, "strict", t0, reasons)
        assert reasons == ["rep:recovery"]


@pytest.mark.parametrize("profile", ["t1", "t2"])
def test_strict_preverify_at_the_larger_profiles(request, profile, forge):
    ps = request.getfixturevalue(profile)
    kp, w, s, m, pre = session(ps, 20)
    assert preverify(kp.pk, m, s, pre, "strict", ps)
    fake = PreSignature(pre.e1, pre.proof, pre.epsi, pre.s, forge(pre.rep_tilde, ps))
    reasons = []
    assert preverify(kp.pk, m, s, fake, "light", ps, reasons)
    assert not preverify(kp.pk, m, s, fake, "strict", ps, reasons)
    assert reasons == ["rep:recovery"]


@pytest.mark.parametrize("profile", ["t0", "t1", "t2"])
def test_strict_verify_accepts_an_adapted_signature(request, profile, forge):
    # 4*degree >= A^2 for adapted signatures, so no A-part recovery is unique;
    # strict mode still certifies them by a search on the full AC-basis
    ps = request.getfixturevalue(profile)
    kp, w, s, m, pre = session(ps, 17)
    full = adapt(pre, w, ps)
    assert 4 * full.rep.degree >= ps.A * ps.A
    assert verify(kp.pk, m, full, "strict", ps)
    fake = AdaptedSignature(full.e1, forge(full.rep, ps))
    reasons = []
    assert verify(kp.pk, m, fake, "light", ps, reasons)
    assert reasons == []
    assert not verify(kp.pk, m, fake, "strict", ps, reasons)
    assert reasons == ["rep:recovery"]


def test_strict_verify_recovers_adapted_signatures_below_the_bound(forge):
    # a custom shape with 4*B*D_tau*D_phi*C < A^2 certifies adapted
    # signatures by recovery as well
    ps = generate_params((9, (5, 7), 1, 35, 3, 4), random.Random(0))
    kp, w, s, m, pre = session(ps, 19)
    full = adapt(pre, w, ps)
    assert 4 * full.rep.degree < ps.A * ps.A
    assert verify(kp.pk, m, full, "strict", ps)
    fake = AdaptedSignature(full.e1, forge(full.rep, ps))
    assert verify(kp.pk, m, fake, "light", ps)
    assert not verify(kp.pk, m, fake, "strict", ps)


def test_s_checks_on_one_basis_pair_it_once(t0, monkeypatch):
    """The S points of a swap's two pre-signatures are both images of E0's
    C-basis: their two checks pair that basis once and each S pair once,
    3 Weil pairings where pairing the basis per check made 4."""
    pres = [session(t0, seed)[-1] for seed in (1, 2)]
    pairings = []
    weil = isogeny.weil_pairing
    monkeypatch.setattr(isogeny, "weil_pairing", lambda *a: pairings.append(a[-1]) or weil(*a))
    isogeny.pairing_law.cache_clear()
    isogeny._basis_pairing.cache_clear()
    assert [adaptor.s_rejection(pre.epsi, pre.s, t0) for pre in pres] == [None, None]
    assert pairings == [t0.C] * 3


def test_extract_checks_the_pairing_law(t0):
    kp, w, s, m, pre = session(t0, 18)
    rep = adapt(pre, w, t0).rep
    swapped = EfficientRep(rep.domain, rep.codomain, rep.degree, rep.order, rep.basis,
                           (rep.images[1], rep.images[0]))
    reasons = []
    assert extract(AdaptedSignature(pre.e1, swapped), pre, s, t0, reasons) is None
    assert reasons == ["rep:pairing"]


def _on_twist(full, u):
    """full moved onto the twist of its E1 by u: the images of the twisted
    curve's canonical basis under full after the isomorphism back onto E1.
    The challenge hashes j(E1) alone, so the result verifies like full."""
    rep = full.rep
    E = twist_curve(full.e1, u)
    basis = canonical_torsion_basis(E, rep.order, E.p + 1)
    images = evaluate_rep(rep, [twist_point(X, u.inv()) for X in basis])
    return AdaptedSignature(E, EfficientRep(E, rep.codomain, rep.degree, rep.order, basis, images))


def _negated(full):
    rep = full.rep
    images = tuple(rep.codomain.neg(T) for T in rep.images)
    return AdaptedSignature(full.e1, EfficientRep(rep.domain, rep.codomain, rep.degree,
                                                  rep.order, rep.basis, images))


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("profile", ["t0", "t1"])
def test_every_mauled_adapted_signature_that_verifies_gives_the_witness(request, profile, seed):
    """Witness extractability against the public maulings of an adapted
    signature: its E1 twisted by u = 2 + i and by u = i, the images
    re-expressed on the twist's canonical basis, and its images negated.
    Each verifies light and strict, and extract recovers the witness."""
    ps = request.getfixturevalue(profile)
    kp, w, s, m, pre = session(ps, seed)
    full = adapt(pre, w, ps)
    mauled = [_on_twist(full, Fp2(ps.p, 2, 1)), _on_twist(full, Fp2(ps.p, 0, 1)), _negated(full)]
    assert mauled[0].e1 != pre.e1 and mauled[1].e1 != pre.e1
    for sig in mauled:
        assert verify(kp.pk, m, sig, "light", ps)
        assert verify(kp.pk, m, sig, "strict", ps)
        reasons = []
        rec = extract(sig, pre, s, ps, reasons)
        assert rec is not None and rec.alpha == w.alpha, reasons


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("profile", ["t0", "t1"])
def test_extraction_does_the_same_work_on_every_model_of_e1(request, monkeypatch, profile, seed):
    """extract recovers on the signature's own curve: on a twist of E1 it
    decomposes as many points as on E1 itself (two A-part images and one
    kernel point, through dlog._decompose), and still yields alpha."""
    ps = request.getfixturevalue(profile)
    kp, w, s, m, pre = session(ps, seed)
    full = adapt(pre, w, ps)
    models = [full, _on_twist(full, Fp2(ps.p, 2, 1)), _on_twist(full, Fp2(ps.p, 0, 1))]
    calls = []
    decompose = dlog._decompose

    def counted(E, U, V, Ts, N):
        calls.extend(Ts)
        return decompose(E, U, V, Ts, N)

    monkeypatch.setattr(dlog, "_decompose", counted)
    counts = []
    for sig in models:
        calls.clear()
        rec = extract(sig, pre, s, ps)
        assert rec is not None and rec.alpha == w.alpha
        counts.append(len(calls))
    assert counts == [3] * 3


@pytest.mark.parametrize("profile", ["t0", "t1", "t2"])
def test_no_honest_e1_or_e2_has_extra_automorphisms(request, profile):
    """E1 is the codomain of psi' o w and E2 that of phi o sk, cyclic
    isogenies of degree B*C and D_tau*D_phi from E0, both 35*3^c here.  No
    codomain of such an isogeny has j = 0 or 1728, so E1 and E2 have only
    the automorphisms +-1, and negated images cover them.  Each cyclic
    kernel is a 3^c kernel on E0 followed by a 35 kernel on its codomain."""
    ps = request.getfixturevalue(profile)
    C = ps.C
    assert ps.B * C == ps.d_tau * ps.d_phi == 35 * 3**ps.c
    js = []
    for i in range(1, mu(C) + 1):
        E = isogeny.isogeny_from_kernel(ps.e0, cyclic_kernel(ps.e0, C, [i]), C).codomain
        for i5 in range(1, mu(5) + 1):
            for i7 in range(1, mu(7) + 1):
                gens = cyclic_kernel(E, 5, [i5]) + cyclic_kernel(E, 7, [i7])
                js.append(isogeny.isogeny_from_kernel(E, gens, 35).codomain.j_invariant())
    assert len(js) == mu(35 * C) == {"t0": 192, "t1": 576, "t2": 1728}[profile]
    special = {Fp2(ps.p, 0, 0), Fp2(ps.p, 1728, 0)}
    assert ps.e0.j_invariant() in special
    assert special.isdisjoint(js)


#: (profile, seed) -> (basis-cache misses, additions of two finite points)
#: of a demo swap with the caches cleared and fresh parameters; the
#: scanning duals, per-point decompositions and unshared order checks made
#: (13, 3424), (12, 3501), (8, 2835) at T0 and (17, 5519), (16, 5139),
#: (10, 4924) at T1, and clearing every scan point, pairings with their own
#: order ladders, a [t]Y ladder per mask and a chain per F' made 2985, 3092,
#: 2482 and 4647, 4333, 4295 additions, and checks that walked their tag-0
#: masks on E1 made 2556, 2651, 2217 and 3962, 3708, 3816
COLD_SWAP_COUNTS = {
    ("t0", 1): (9, 2329),
    ("t0", 2): (9, 2415),
    ("t0", 3): (6, 2026),
    ("t1", 1): (9, 3596),
    ("t1", 2): (9, 3446),
    ("t1", 3): (6, 3541),
}


@pytest.mark.parametrize("profile, seed", list(COLD_SWAP_COUNTS))
def test_a_cold_swap_scans_only_the_bases_that_are_named(monkeypatch, profile, seed):
    """A swap on a fresh library and fresh parameters misses the basis cache
    only for bases that a format or the recovery search names: E_psi[AC]
    and E1[AC] (the representations' bases), pk[D_phi] (the challenge
    walk's index), E_w[A] (the NIZK's mask index) and E1[3] (the root of
    extract's search).  Both parties may share E1, hence 6 misses on some
    seeds.  The duals carry their kernels, extract reads E1[C] off the
    AC-basis, and no basis of a middle curve is scanned."""
    for cache in (canonical_torsion_basis, isogeny.pairing_law, isogeny._basis_pairing):
        cache.cache_clear()
    ps = generate_params(profile.upper(), random.Random(0))
    missed, adds = [], []
    basis, chord = curve.canonical_torsion_basis, curve._chord

    def watched(E, N, group_order):
        before = basis.cache_info().misses
        out = basis(E, N, group_order)
        if basis.cache_info().misses > before:
            missed.append((E, N))
        return out

    def counted(p, a0, a1, P, Q):
        if not (P is None or Q is None):
            adds.append(1)
        return chord(p, a0, a1, P, Q)

    for name, module in list(sys.modules.items()):
        if name.startswith("adaptorsig.") and hasattr(module, "canonical_torsion_basis"):
            monkeypatch.setattr(module, "canonical_torsion_basis", watched)
    for module in (curve, isogeny, dlog):
        monkeypatch.setattr(module, "_chord", counted)
    doc = swap.demo_swap(ps, seed)
    monkeypatch.undo()
    assert doc["verdict"] is True

    events = doc["events"]
    pres = [e["presignature"] for e in events if e["type"] == "presignature"]
    e1s = {serial.parse_curve(d["e1"], ps.p, "e1") for d in pres}
    epsis = {serial.parse_curve(d["epsi"], ps.p, "epsi") for d in pres}
    (st,) = [e["statement"] for e in events if e["type"] == "statement"]
    ew = serial.parse_statement(st, ps).ew
    pks = {keygen(ps, swap._sub_rng(seed, f"{name}-key")).pk for name in ("alice", "bob")}
    AC = ps.A * ps.C
    named = {(E, AC) for E in e1s | epsis} | {(E, 3) for E in e1s}
    named |= {(pk, ps.d_phi) for pk in pks} | {(ew, ps.A)}
    assert len(missed) == len(set(missed))
    assert set(missed) <= named
    assert (len(missed), len(adds)) == COLD_SWAP_COUNTS[(profile, seed)]


@pytest.mark.parametrize("profile", ["t0", "t1", "t2"])
def test_a_signature_document_s_order_tells_adapted_from_plain(request, profile):
    """Adapted signatures link to the swap by their shape: a distinguisher
    that reads the document's order alone (AC for an adapted signature, A
    for a plain one) is right on every seed."""
    ps = request.getfixturevalue(profile)

    def adapted(doc):
        return int(doc["rep"]["order"], 16) == ps.A * ps.C

    for seed in (1, 2, 3):
        kp, w, s, m, pre = session(ps, seed)
        assert adapted(serial.signature_doc(adapt(pre, w, ps)))
        assert not adapted(serial.signature_doc(sign(kp, m, ps, random.Random(seed))))
