import copy
import dataclasses
import random
from collections import Counter

import pytest

from adaptorsig import adaptor, isogeny, nizk, relation, sig
from adaptorsig.curve import canonical_torsion_basis, twist_curve, twist_point
from adaptorsig.errors import WitnessMismatch
from adaptorsig.field import Fp2
from adaptorsig.isogeny import isogeny_from_kernel
from adaptorsig.nizk import NizkProof, NizkRound, prove_parallel, verify_parallel
from adaptorsig.orientation import oriented_kernel
from adaptorsig.relation import gen_r
from adaptorsig.swap import demo_swap


def psi_prime(stmt, bits, ps):
    """psi' as presign builds it: the oriented kernel of the choice vector
    on E_w, the chain the prover takes."""
    ew, wB, _ = stmt
    return isogeny_from_kernel(ew, oriented_kernel(wB, bits), ps.B)


def make_statement(ps, rng):
    w, s = gen_r(ps, rng)
    bits = [rng.randrange(1, 3) for _ in range(ps.t)]
    psip = psi_prime((s.ew, s.oriented_image, None), bits, ps)
    return (s.ew, s.oriented_image, psip.codomain), bits


def test_completeness_100_of_100(t0):
    rng = random.Random(17)
    good = 0
    for _ in range(100):
        stmt, bits = make_statement(t0, rng)
        proof = prove_parallel(stmt, psi_prime(stmt, bits, t0), t0, rng)
        good += verify_parallel(stmt, proof, t0)
    assert good == 100


def test_round_count(t1):
    rng = random.Random(18)
    stmt, bits = make_statement(t1, rng)
    proof = prove_parallel(stmt, psi_prime(stmt, bits, t1), t1, rng)
    assert len(proof.rounds) == t1.nizk_rounds == 24


def test_wrong_witness_bits_rejected_at_prove_time(t0):
    rng = random.Random(19)
    stmt, bits = make_statement(t0, rng)
    wrong = [3 - b for b in bits]
    with pytest.raises(WitnessMismatch):
        prove_parallel(stmt, psi_prime(stmt, wrong, t0), t0, rng)


def count_chain_degrees(monkeypatch):
    """A Counter of the degrees that isogeny_from_kernel is called with, from
    every module that builds chains, while monkeypatch holds.  The corners a
    check walks count, and those it reads from nizk's memo do not; the memo
    starts each test empty (conftest)."""
    degrees = Counter()
    build = isogeny.isogeny_from_kernel

    def counted(E, gens, degree):
        degrees[degree] += 1
        return build(E, gens, degree)

    for module in (isogeny, sig, adaptor, relation, nizk):
        monkeypatch.setattr(module, "isogeny_from_kernel", counted)
    return degrees


def test_prover_builds_one_b_chain_per_round_and_no_a_chain(t0, monkeypatch):
    """Per distinct mask the parallel isogeny from its codomain (degree B),
    whose codomain is F', and nothing else: the masks are walked as one
    tree of Steps (isogeny.walk_cyclic_tree), which builds no chain, and
    psi' comes in built, as presign hands it over.  No round walks the mask
    a second time on E1: the tag-0 reveal there is psi' of the mask's
    kernel generator.  This sample draws 24 distinct masks."""
    rng = random.Random(26)
    stmt, bits = make_statement(t0, rng)
    psip = psi_prime(stmt, bits, t0)
    degrees = count_chain_degrees(monkeypatch)
    proof = prove_parallel(stmt, psip, t0, rng)
    assert degrees == {t0.B: t0.nizk_rounds}
    monkeypatch.undo()
    assert verify_parallel(stmt, proof, t0)


def test_prover_reads_the_f_prime_a_proof_recorded(t0, monkeypatch):
    """A prover reads F' from the memo where an earlier proof on the same
    statement and psi' revealed that mask with tag 1, as a swap's second
    pre-signature does when both parties chose the same choice vector:
    proving again with the same draws walks only the other masks' F'."""
    rng = random.Random(26)
    stmt, bits = make_statement(t0, rng)
    psip = psi_prime(stmt, bits, t0)
    state = rng.getstate()
    proof = prove_parallel(stmt, psip, t0, rng)
    tag_1 = {r.reveal for r in proof.rounds if r.tag == 1}
    distinct = {r.f for r in proof.rounds}
    assert 0 < len(tag_1) < len(distinct)
    degrees = count_chain_degrees(monkeypatch)
    rng.setstate(state)
    assert prove_parallel(stmt, psip, t0, rng) == proof
    assert degrees == {t0.B: len(distinct) - len(tag_1)}


@pytest.mark.parametrize("profile,distinct", [("t0", 103), ("t1", 146)])
def test_prover_builds_each_mask_prefix_once(
    request, profile, distinct, monkeypatch, count_chain_work
):
    """The prover walks its masks as one tree: its ell = 2 Steps are as many
    as the distinct step prefixes among the masks' challenge_walk chains,
    103 of 24 * 7 = 168 steps at T0 and 146 of 24 * 9 = 216 at T1 here,
    where walking each mask alone built all of them.  The masks are the
    first draws of the proof's rng."""
    ps = request.getfixturevalue(profile)
    rng = random.Random(26)
    stmt, bits = make_statement(ps, rng)
    psip = psi_prime(stmt, bits, ps)
    draws = random.Random()
    draws.setstate(rng.getstate())
    prefixes = set()
    for _ in range(ps.nizk_rounds):
        mask = sig.challenge_walk(stmt[0], draws.randrange(1, sig.mu(ps.A) + 1), ps.A)
        kernels = [s.kernel for s in mask.steps]
        prefixes.update(tuple(kernels[:k]) for k in range(1, len(kernels) + 1))
    _, _, built = count_chain_work(monkeypatch)
    proof = prove_parallel(stmt, psip, ps, rng)
    assert built.count(2) == len(prefixes) == distinct
    monkeypatch.undo()
    assert verify_parallel(stmt, proof, ps)


def test_prover_pushes_the_mask_kernel_for_tag_0_rounds_alone(t0, monkeypatch):
    """psi'(km), the tag-0 reveal on E1, is evaluated after the challenge
    and only for the rounds whose bit is 0."""
    rng = random.Random(27)
    stmt, bits = make_statement(t0, rng)
    pushed = []
    evaluate = isogeny.IsogenyChain.evaluate

    def counted(chain, P):
        if chain.degree == t0.B:
            pushed.append(1)
        return evaluate(chain, P)

    monkeypatch.setattr(isogeny.IsogenyChain, "evaluate", counted)
    proof = prove_parallel(stmt, psi_prime(stmt, bits, t0), t0, rng)
    zeros = sum(r.tag == 0 for r in proof.rounds)
    assert 0 < zeros < t0.nizk_rounds
    assert len(pushed) == zeros
    monkeypatch.undo()
    assert verify_parallel(stmt, proof, t0)


def test_swap_chain_count(t0, monkeypatch):
    """Chains built by one T0 swap, by degree.  The swap's two proofs walk
    their masks as trees of Steps, which build no chain, and build one
    parallel isogeny (degree B) per distinct mask (45 for 48 rounds).  The
    check that follows each proof reads every corner its prover recorded
    from nizk's memo, the mask from E_w of each tag-0 round and the parallel
    isogeny of each tag-1 round, and walks only the tag-0 masks on E1,
    which no prover walks and no check records, each distinct one once
    (25 for 26 tag-0 rounds).  The other degree-B chains are the two keys
    and presign's psi and psi'."""
    degrees = count_chain_degrees(monkeypatch)
    assert demo_swap(t0, 1)["verdict"] is True
    assert degrees == {t0.C: 11, t0.B: 51, t0.A: 25}


@pytest.mark.parametrize("profile", ["t0", "t1"])
def test_square_commutes_exactly(request, profile):
    """The two ways round a proof's square reach the same curve, not only
    the same j-invariant, which the prover and the tag-1 check rely on.

    Both composites from E_w, psi' then the pushed mask, and the mask then
    the parallel isogeny, have kernel <ker mask, ker psi'>.  Every step is
    a Vélu step with u = 1, which pulls dx/2y back to itself.  So the
    isomorphism between the two codomains keeps dx/2y too: its u is +-1,
    and a u = +-1 twist is the same curve."""
    ps = request.getfixturevalue(profile)
    rng = random.Random(28)
    for _ in range(4):
        stmt, bits = make_statement(ps, rng)
        ew, wB, e1 = stmt
        gens = oriented_kernel(wB, bits)
        psip = isogeny_from_kernel(ew, gens, ps.B)
        for _ in range(3):
            mask = sig.challenge_walk(ew, rng.randrange(1, sig.mu(ps.A) + 1), ps.A)
            km = mask.kernel_gens[0]
            via_e1 = isogeny_from_kernel(e1, [psip.evaluate(km)], ps.A).codomain
            via_f = isogeny_from_kernel(
                mask.codomain, [mask.evaluate(g) for g in gens], ps.B
            ).codomain
            assert via_e1 == via_f


def test_twisted_second_corner(t0):
    """Tag 1 checks F' exactly: a u-twist of F' alone keeps every j-invariant
    and so the challenge, and is rejected.  Twisting F, the revealed kernel
    and F' together still passes, because the challenge hashes j-invariants
    only and a Vélu step commutes with the twist."""
    rng = random.Random(27)
    stmt, bits = make_statement(t0, rng)
    proof = prove_parallel(stmt, psi_prime(stmt, bits, t0), t0, rng)
    i = next(i for i, r in enumerate(proof.rounds) if r.tag == 1)
    r = proof.rounds[i]
    u = Fp2(t0.p, 2, 1)
    assert twist_curve(r.fp, u) != r.fp

    def with_round(**changes):
        rounds = list(proof.rounds)
        rounds[i] = dataclasses.replace(r, **changes)
        return NizkProof(rounds)

    reasons = []
    assert not verify_parallel(stmt, with_round(fp=twist_curve(r.fp, u)), t0, reasons)
    assert reasons == ["nizk:parallel"]
    twisted = with_round(
        f=twist_curve(r.f, u),
        fp=twist_curve(r.fp, u),
        reveal=tuple(twist_point(P, u) for P in r.reveal),
    )
    assert verify_parallel(stmt, twisted, t0)


def test_corner_substitution_rejected(t0):
    rng = random.Random(20)
    stmt, bits = make_statement(t0, rng)
    proof = prove_parallel(stmt, psi_prime(stmt, bits, t0), t0, rng)
    bad = copy.deepcopy(proof)
    r0, r1 = bad.rounds[0], bad.rounds[1]
    bad.rounds[0] = NizkRound(r1.f, r0.fp, r0.tag, r0.reveal)
    assert not verify_parallel(stmt, bad, t0)


def test_shuffled_rounds_rejected(t0):
    rng = random.Random(21)
    stmt, bits = make_statement(t0, rng)
    proof = prove_parallel(stmt, psi_prime(stmt, bits, t0), t0, rng)
    shuffled = NizkProof(list(reversed(proof.rounds)))
    assert not verify_parallel(stmt, shuffled, t0)


def test_wrong_commitment_curve_rejected(t0):
    rng = random.Random(22)
    stmt, bits = make_statement(t0, rng)
    proof = prove_parallel(stmt, psi_prime(stmt, bits, t0), t0, rng)
    # replace E1 by a curve from an unrelated run
    stmt2, _ = make_statement(t0, random.Random(23))
    forged = (stmt[0], stmt[1], stmt2[2])
    if forged[2] == stmt[2]:
        pytest.skip("colliding commitment curves")
    assert not verify_parallel(forged, proof, t0)


def test_truncated_proof_rejected(t0):
    rng = random.Random(24)
    stmt, bits = make_statement(t0, rng)
    proof = prove_parallel(stmt, psi_prime(stmt, bits, t0), t0, rng)
    assert not verify_parallel(stmt, NizkProof(proof.rounds[:-1]), t0)


def test_malformed_reveal_is_an_error_not_a_rejection(t0):
    rng = random.Random(24)
    stmt, bits = make_statement(t0, rng)
    proof = prove_parallel(stmt, psi_prime(stmt, bits, t0), t0, rng)
    i = next(i for i, r in enumerate(proof.rounds) if r.tag == 1)
    r = proof.rounds[i]
    proof.rounds[i] = NizkRound(r.f, r.fp, r.tag, None)
    with pytest.raises(TypeError):
        verify_parallel(stmt, proof, t0)


def other_mask(ps, E, K):
    """A kernel point of order A on E whose quotient is not the one of <K>."""
    U, V = canonical_torsion_basis(E, ps.A, ps.group_order)
    target = isogeny_from_kernel(E, [K], ps.A).codomain
    return next(
        G for G in (U, V, E.add(U, V))
        if isogeny_from_kernel(E, [G], ps.A).codomain != target
    )


def other_parallel(ps, r):
    """Generators of a degree-B kernel on a tag-1 round's F whose quotient
    is not F' up to isomorphism."""
    F, n = r.f, ps.group_order
    U5, V5 = canonical_torsion_basis(F, 5, n)
    U7, V7 = canonical_torsion_basis(F, 7, n)
    return next(
        gens
        for gens in ((U5, U7), (V5, V7), (F.add(U5, V5), F.add(U7, V7)))
        if isogeny_from_kernel(F, list(gens), ps.B).codomain.j_invariant()
        != r.fp.j_invariant()
    )


def test_every_rejection_tag_is_reached(t0):
    rng = random.Random(25)
    stmt, bits = make_statement(t0, rng)
    proof = prove_parallel(stmt, psi_prime(stmt, bits, t0), t0, rng)
    ew, _, e1 = stmt
    i0 = next(i for i, r in enumerate(proof.rounds) if r.tag == 0)
    i1 = next(i for i, r in enumerate(proof.rounds) if r.tag == 1)
    km, kmp = proof.rounds[i0].reveal

    def tags(proof):
        reasons = []
        assert not verify_parallel(stmt, proof, t0, reasons)
        return reasons

    def with_round(i, **changes):
        rounds = list(proof.rounds)
        rounds[i] = dataclasses.replace(rounds[i], **changes)
        return NizkProof(rounds)

    reasons = []
    assert verify_parallel(stmt, proof, t0, reasons) and reasons == []
    assert tags(NizkProof(proof.rounds[:-1])) == ["nizk:rounds"]
    assert tags(with_round(i0, tag=1)) == ["nizk:challenge"]
    assert tags(with_round(i0, reveal=(other_mask(t0, ew, km), kmp))) == ["nizk:mask"]
    assert tags(with_round(i0, reveal=(km, other_mask(t0, e1, kmp)))) == [
        "nizk:mask-commitment"
    ]
    assert tags(with_round(i1, reveal=other_parallel(t0, proof.rounds[i1]))) == [
        "nizk:parallel"
    ]
    assert tags(with_round(i0, reveal=(ew.mul(2, km), kmp))) == ["nizk:kernel"]


def tampered_proofs(ps, stmt, proof):
    """Every tampering of an honest proof that this file checks, as
    (what, statement, proof, tag) with the tag the check gives: the first
    tag-0 and tag-1 rounds are the ones changed, u twists a curve to another
    model of it, and a malformed reveal is a TypeError, not a tag."""
    ew, _, e1 = stmt
    i0 = next(i for i, r in enumerate(proof.rounds) if r.tag == 0)
    i1 = next(i for i, r in enumerate(proof.rounds) if r.tag == 1)
    r0, r1 = proof.rounds[i0], proof.rounds[i1]
    km, kmp = r0.reveal
    u = Fp2(ps.p, 2, 1)

    def with_round(i, **changes):
        rounds = list(proof.rounds)
        rounds[i] = dataclasses.replace(rounds[i], **changes)
        return NizkProof(rounds)

    other_e1 = next(
        E for seed in range(23, 99) if (E := make_statement(ps, random.Random(seed))[0][2]) != e1
    )
    proofs = [
        ("honest", proof, None),
        ("truncated", NizkProof(proof.rounds[:-1]), "nizk:rounds"),
        ("shuffled", NizkProof(list(reversed(proof.rounds))), "nizk:challenge"),
        # round 0's new challenge bit is its tag, 1, and its reveal is off F
        ("substituted corner", with_round(0, f=proof.rounds[1].f), "nizk:kernel"),
        ("flipped tag", with_round(i0, tag=1), "nizk:challenge"),
        ("other mask", with_round(i0, reveal=(other_mask(ps, ew, km), kmp)), "nizk:mask"),
        # the mask reveal lands on F, an isomorphic model of the claimed F
        ("twisted F, tag 0", with_round(i0, f=twist_curve(r0.f, u)), "nizk:mask"),
        (
            "other mask on E1",
            with_round(i0, reveal=(km, other_mask(ps, e1, kmp))),
            "nizk:mask-commitment",
        ),
        ("twisted F', tag 0", with_round(i0, fp=twist_curve(r0.fp, u)), "nizk:mask-commitment"),
        ("other parallel", with_round(i1, reveal=other_parallel(ps, r1)), "nizk:parallel"),
        ("twisted F', tag 1", with_round(i1, fp=twist_curve(r1.fp, u)), "nizk:parallel"),
        (
            "twisted tag-1 round",
            with_round(
                i1,
                f=twist_curve(r1.f, u),
                fp=twist_curve(r1.fp, u),
                reveal=tuple(twist_point(P, u) for P in r1.reveal),
            ),
            None,
        ),
        ("doubled mask kernel", with_round(i0, reveal=(ew.mul(2, km), kmp)), "nizk:kernel"),
        ("malformed reveal", with_round(i1, reveal=None), TypeError),
    ]
    cases = [(what, stmt, p, tag) for what, p, tag in proofs]
    return cases + [("other commitment curve", (ew, stmt[1], other_e1), proof, "nizk:challenge")]


def rejection(stmt, proof, ps):
    """proof_rejection's tag, or the type of the error it raises."""
    try:
        return nizk.proof_rejection(stmt, proof, ps)
    except TypeError as exc:
        return type(exc)


def test_warm_walk_memo_keeps_every_tag(t0):
    """Every tampered proof gets the tag a fresh process gives it, also
    right after an honest prove of the same statement in this process has
    filled nizk's memo with the prover's corners: the memo keys the whole
    walk input, so a tampered corner or reveal is walked."""
    rng = random.Random(25)
    stmt, bits = make_statement(t0, rng)
    psip = psi_prime(stmt, bits, t0)
    proof = prove_parallel(stmt, psip, t0, random.Random(29))
    for what, s, p, tag in tampered_proofs(t0, stmt, proof):
        nizk._CORNERS.clear()
        cold = rejection(s, p, t0)
        assert prove_parallel(stmt, psip, t0, random.Random(29)) == proof
        assert (what, rejection(s, p, t0)) == (what, cold) == (what, tag)


def test_check_after_its_proof_walks_only_the_tag_0_masks_on_e1(t0, monkeypatch):
    """A check right after its proof in one process reads every corner the
    prover walked from the memo: the masks from E_w and the parallel
    isogenies.  It walks one degree-A chain per distinct tag-0 round, the
    mask on E1, which no prover walks, and no degree-B chain."""
    rng = random.Random(26)
    stmt, bits = make_statement(t0, rng)
    proof = prove_parallel(stmt, psi_prime(stmt, bits, t0), t0, rng)
    tag_0 = {(r.f, r.fp) for r in proof.rounds if r.tag == 0}
    degrees = count_chain_degrees(monkeypatch)
    assert verify_parallel(stmt, proof, t0)
    assert degrees == {t0.A: len(tag_0)}


def test_cold_strict_preverify_leaves_the_walk_memo_empty(t0, monkeypatch):
    """Only a prover records walks: a strict preverify in a process that
    made no proof walks every corner it checks and keeps none of them,
    accepting or rejecting, and a second check walks them again: both
    masks of each tag-0 round and the parallel isogeny of each tag-1
    round, a corner that several rounds reveal alike once per check (this
    sample repeats a tag-0 mask)."""
    rng = random.Random(30)
    kp = sig.keygen(t0, rng)
    _, s = gen_r(t0, rng)
    pre = adaptor.presign(kp, b"cold", s, t0, rng)
    assert nizk._CORNERS
    nizk._CORNERS.clear()
    degrees = count_chain_degrees(monkeypatch)
    for m, ok in ((b"cold", True), (b"other", False)):
        assert adaptor.preverify(kp.pk, m, s, pre, "strict", t0) is ok
        assert not nizk._CORNERS
    tag_0 = {r.reveal for r in pre.proof.rounds if r.tag == 0}
    tag_1 = {(r.f, r.reveal) for r in pre.proof.rounds if r.tag == 1}
    assert len(tag_0) + len(tag_1) < t0.nizk_rounds
    assert degrees[t0.A] == 2 * 2 * len(tag_0)
    assert degrees[t0.B] == 2 * len(tag_1)


@pytest.mark.parametrize("profile", ["t0", "t1"])
def test_check_reads_recorded_corners_and_walks_the_rest_once(request, profile, monkeypatch):
    """The prover records, per round, the corner its check reads, keyed by
    the walk's whole input, with the codomain a fresh walk gives.  A check
    reads a recorded corner with no walk, walks an unrecorded one once (the
    masks on E1 here), and records nothing: a second check walks the same
    again, and a walk that raises leaves the memo as it was.  With the memo
    emptied, a check walks every distinct corner once."""
    ps = request.getfixturevalue(profile)
    rng = random.Random(26)
    stmt, bits = make_statement(ps, rng)
    ew = stmt[0]
    proof = prove_parallel(stmt, psi_prime(stmt, bits, ps), ps, rng)
    recorded = {}
    for r in proof.rounds:
        if r.tag:
            recorded[(r.f, tuple(r.reveal), ps.B)] = r.fp
        else:
            recorded[(ew, (r.reveal[0],), ps.A)] = r.f
    assert nizk._CORNERS == recorded
    for (E, gens, degree), codomain in recorded.items():
        assert isogeny_from_kernel(E, list(gens), degree).codomain == codomain
    on_e1 = {r.reveal[1] for r in proof.rounds if r.tag == 0}
    degrees = count_chain_degrees(monkeypatch)
    for checks in (1, 2):
        assert verify_parallel(stmt, proof, ps)
        assert degrees == {ps.A: checks * len(on_e1)}
        assert nizk._CORNERS == recorded
    i = next(i for i, r in enumerate(proof.rounds) if r.tag == 0)
    rounds = list(proof.rounds)
    km, kmp = rounds[i].reveal
    rounds[i] = dataclasses.replace(rounds[i], reveal=(ew.mul(2, km), kmp))
    assert nizk.proof_rejection(stmt, NizkProof(rounds), ps) == "nizk:kernel"
    assert nizk._CORNERS == recorded
    nizk._CORNERS.clear()
    degrees.clear()
    assert verify_parallel(stmt, proof, ps)
    assert not nizk._CORNERS
    tag_1 = sum(degree == ps.B for _, _, degree in recorded)
    assert degrees == {ps.A: len(recorded) - tag_1 + len(on_e1), ps.B: tag_1}


def test_corner_memo_holds_at_most_its_maxsize(t0):
    """The memo is bounded: it keeps the last _CORNERS_KEPT corners recorded,
    at least those of a swap's two proofs (one per round each), and drops
    the oldest first; a corner recorded again becomes the newest."""
    maxsize = nizk._CORNERS_KEPT
    assert maxsize >= 2 * t0.nizk_rounds
    E, A = t0.e0, t0.A
    keys = [(E, (K,), A) for K in sig.cyclic_kernel(E, A, range(1, maxsize + 20))]
    for i, (_, gens, _) in enumerate(keys):
        nizk._record(E, gens, A, isogeny_from_kernel(E, list(gens), A).codomain)
        assert list(nizk._CORNERS) == keys[max(0, i + 1 - maxsize) : i + 1]
    oldest = keys[-maxsize]
    nizk._record(*oldest, nizk._CORNERS[oldest])
    assert list(nizk._CORNERS) == keys[1 - maxsize :] + [oldest]
