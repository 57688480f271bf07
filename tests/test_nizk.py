import copy
import dataclasses
import itertools
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
    psi' comes in built, as presign hands it over.  No round walks the
    mask a second time on E1: the tag-0 reveal there is psi' of the mask's
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


@pytest.mark.parametrize("profile", ["t0", "t1", "t2"])
def test_every_recorded_corner_is_a_fresh_walk_s_codomain(request, profile, monkeypatch):
    """Each round records every corner its check reads, the tag-0 corner on
    E1 as the F' its prover walked on the B-side, and every recorded corner
    is isogeny_from_kernel(E, gens, degree).codomain, after proofs (seeds
    1-5) and after a swap.  A proof records fewer than _CORNERS_KEPT
    corners, so none is dropped, and a check right after it walks none."""
    ps = request.getfixturevalue(profile)
    for seed in range(1, 6):
        rng = random.Random(seed)
        stmt, bits = make_statement(ps, rng)
        nizk._CORNERS.clear()
        proof = prove_parallel(stmt, psi_prime(stmt, bits, ps), ps, rng)
        assert len(nizk._CORNERS) < nizk._CORNERS_KEPT
        degrees = count_chain_degrees(monkeypatch)
        assert verify_parallel(stmt, proof, ps)
        assert degrees == {}
        monkeypatch.undo()
        for (E, gens, degree), codomain in nizk._CORNERS.items():
            assert isogeny_from_kernel(E, list(gens), degree).codomain == codomain
    assert demo_swap(ps, 1)["verdict"] is True
    assert nizk._CORNERS
    for (E, gens, degree), codomain in nizk._CORNERS.items():
        assert isogeny_from_kernel(E, list(gens), degree).codomain == codomain


def test_prover_refuses_a_psi_prime_its_square_does_not_commute_for(t0):
    """The prover records psi' of a mask kernel on E1 as the F' it walked on
    the B-side only where psi' is the untwisted isogeny of its own kernel
    generators.  A psi' whose last step is retwisted by u = -1 (the same
    curves, every point negated past it) and one that carries the other
    choice vector's generators are refused before anything is recorded."""
    rng = random.Random(31)
    stmt, bits = make_statement(t0, rng)
    ew, wB, e1 = stmt
    psip = psi_prime(stmt, bits, t0)
    prove_parallel(stmt, psip, t0, rng)
    corners = dict(nizk._CORNERS)
    assert corners
    last = psip.steps[-1].retwist(Fp2(t0.p, -1))
    twisted = isogeny.IsogenyChain(ew, psip.steps[:-1] + [last], psip.kernel_gens)
    assert twisted.codomain == e1
    others = oriented_kernel(wB, [3 - b for b in bits])
    for bad in (twisted, isogeny.IsogenyChain(ew, psip.steps, others)):
        with pytest.raises(WitnessMismatch):
            prove_parallel(stmt, bad, t0, rng)
        assert nizk._CORNERS == corners


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
    and only for the rounds whose bit is 0; beside those, psi' pushes only
    its own kernel generators, which it must kill."""
    rng = random.Random(27)
    stmt, bits = make_statement(t0, rng)
    psip = psi_prime(stmt, bits, t0)
    pushed = []
    evaluate = isogeny.IsogenyChain.evaluate

    def counted(chain, P):
        if chain.degree == t0.B:
            pushed.append(P)
        return evaluate(chain, P)

    monkeypatch.setattr(isogeny.IsogenyChain, "evaluate", counted)
    proof = prove_parallel(stmt, psip, t0, rng)
    zeros = sum(r.tag == 0 for r in proof.rounds)
    assert 0 < zeros < t0.nizk_rounds
    assert pushed[: t0.t] == psip.kernel_gens
    assert len(pushed) - t0.t == zeros
    monkeypatch.undo()
    assert verify_parallel(stmt, proof, t0)


def test_swap_chain_count(t0, monkeypatch):
    """Isogenies walked by one T0 swap, by degree: 11 of degree C, 51 of
    degree B and none of degree A.  The swap's two proofs walk their masks
    as trees of Steps, which build no chain, and walk one parallel isogeny
    (degree B) per distinct mask (45 for 48 rounds).  The check that
    follows each proof reads every corner it checks from nizk's memo: both
    masks of each tag-0 round and the parallel isogeny of each tag-1 round.
    The other 6 degree-B isogenies are the two keys and presign's psi and
    psi'."""
    degrees = count_chain_degrees(monkeypatch)
    assert demo_swap(t0, 1)["verdict"] is True
    assert degrees == {t0.C: 11, t0.B: 45 + 6}


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


def false_statement(ps, rng):
    """(E_w, its oriented image, E1) with E1 = E_w / <K>, K of degree B and
    in no oriented kernel: no choice vector reaches E1, not even up to
    isomorphism."""
    _, s = gen_r(ps, rng)
    ew, wB = s.ew, s.oriented_image
    gens = []
    for ell, G1, G2 in wB.pairs:
        oriented = {ew.mul(j, G) for G in (G1, G2) for j in range(1, ell)}
        kernels = isogeny.cyclic_kernel(ew, ell, range(1, ell + 2))
        gens.append(next(K for K in kernels if K not in oriented))
    e1 = isogeny_from_kernel(ew, gens, ps.B).codomain
    for bits in itertools.product((1, 2), repeat=ps.t):
        honest = isogeny_from_kernel(ew, oriented_kernel(wB, bits), ps.B).codomain
        assert honest.j_invariant() != e1.j_invariant()
    return ew, wB, e1


def cheating_rounds(ps, stmt, masks, rng) -> dict:
    """Rounds prepared for each guessed bit, one of each per mask kernel on
    E_w: for bit 0 a mask on E1 as well, to an F' unrelated to F; for bit
    1 F' = F / <mask(oriented kernel of random bits)>."""
    ew, wB, e1 = stmt
    pool = {0: [], 1: []}
    for km in masks:
        mask = isogeny_from_kernel(ew, [km], ps.A)
        F = mask.codomain
        (km1,) = isogeny.cyclic_kernel(e1, ps.A, [rng.randrange(1, isogeny.mu(ps.A) + 1)])
        Fp = isogeny_from_kernel(e1, [km1], ps.A).codomain
        pool[0].append(NizkRound(F, Fp, 0, (km, km1)))
        bits = [rng.randrange(1, 3) for _ in range(ps.t)]
        par = tuple(mask.evaluate(g) for g in oriented_kernel(wB, bits))
        pool[1].append(NizkRound(F, isogeny_from_kernel(F, list(par), ps.B).codomain, 1, par))
    return pool


def grind(ps, stmt, pool: dict, rng):
    """(proof, trials): guess the challenge, take a prepared round for each
    guessed bit, and hash until the challenge is the guess."""
    k = ps.nizk_rounds
    for trial in range(1, 64 * 2**k):
        guess = [rng.randrange(2) for _ in range(k)]
        rounds = [rng.choice(pool[bit]) for bit in guess]
        if nizk._challenge_bits(stmt, [(r.f, r.fp) for r in rounds], k) == guess:
            return NizkProof(rounds), trial
    raise AssertionError(f"no proof in {trial} trials at k = {k}")


def test_a_cheating_prover_must_grind_the_challenge(t0):
    """Fiat-Shamir soundness at T0, for nizk_rounds k = 1..6.  A prover of
    a false statement (false_statement) prepares each round for a guessed
    bit, on masks that honest proofs on the same E_w revealed, and passes
    it only if the challenge bit is its guess, so it hashes until all k
    are: 1, 1, 10, 44, 20 and 27 trials here, against 2^k expected.  The
    ground proof verifies, and each one with any one round's tag flipped
    is rejected with nizk:challenge.  The verdicts are the same with the
    memo empty and with it holding the honest proofs' corners, some of
    which the ground proofs reveal."""
    rng = random.Random(40)
    stmt = false_statement(t0, rng)
    ew, wB, _ = stmt
    masks = []
    for seed in range(2):
        bits = [random.Random(seed).randrange(1, 3) for _ in range(t0.t)]
        psip = isogeny_from_kernel(ew, oriented_kernel(wB, bits), t0.B)
        honest = prove_parallel((ew, wB, psip.codomain), psip, t0, random.Random(seed))
        masks += [r.reveal[0] for r in honest.rounds if r.tag == 0][:2]
    warm = dict(nizk._CORNERS)
    pool = cheating_rounds(t0, stmt, masks, rng)
    proofs, trials = [], []
    for k in range(1, 7):
        ps = dataclasses.replace(t0, nizk_rounds=k)
        proof, n = grind(ps, stmt, pool, rng)
        proofs.append((ps, proof))
        trials.append(n)

    def verdicts():
        out = []
        for ps, proof in proofs:
            out.append(nizk.proof_rejection(stmt, proof, ps))
            for i, r in enumerate(proof.rounds):
                rounds = list(proof.rounds)
                rounds[i] = dataclasses.replace(r, tag=1 - r.tag)
                out.append(nizk.proof_rejection(stmt, NizkProof(rounds), ps))
        return out

    nizk._CORNERS.clear()
    cold = verdicts()
    nizk._CORNERS.update(warm)
    assert verdicts() == cold == [
        tag for k in range(1, 7) for tag in [None] + ["nizk:challenge"] * k
    ]
    assert any(r.tag == 0 for _, proof in proofs for r in proof.rounds)
    assert trials == [1, 1, 10, 44, 20, 27]


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


def test_check_after_its_proof_walks_no_corner(t0, monkeypatch):
    """A check right after its proof in one process reads every corner it
    checks from the memo: the masks from E_w and on E1 of the tag-0 rounds
    and the parallel isogenies of the tag-1 rounds.  It walks no chain."""
    rng = random.Random(26)
    stmt, bits = make_statement(t0, rng)
    proof = prove_parallel(stmt, psi_prime(stmt, bits, t0), t0, rng)
    degrees = count_chain_degrees(monkeypatch)
    assert verify_parallel(stmt, proof, t0)
    assert degrees == {}


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
    """The prover records, per round, every corner its check reads, keyed by
    the walk's whole input, with the codomain a fresh walk gives.  A check
    reads a recorded corner with no walk, walks an unrecorded one once (the
    masks on E1 here, once dropped from the memo), and records nothing: a
    second check walks the same again, and a walk that raises leaves the
    memo as it was.  With the memo emptied, a check walks every distinct
    corner once."""
    ps = request.getfixturevalue(profile)
    rng = random.Random(26)
    stmt, bits = make_statement(ps, rng)
    ew, _, e1 = stmt
    proof = prove_parallel(stmt, psi_prime(stmt, bits, ps), ps, rng)
    recorded = {}
    for r in proof.rounds:
        if r.tag:
            recorded[(r.f, tuple(r.reveal), ps.B)] = r.fp
        else:
            recorded[(ew, (r.reveal[0],), ps.A)] = r.f
            recorded[(e1, (r.reveal[1],), ps.A)] = r.fp
    assert nizk._CORNERS == recorded
    for (E, gens, degree), codomain in recorded.items():
        assert isogeny_from_kernel(E, list(gens), degree).codomain == codomain
    degrees = count_chain_degrees(monkeypatch)
    assert verify_parallel(stmt, proof, ps)
    assert degrees == {}
    kept = {key: F for key, F in recorded.items() if key[0] != e1}
    on_e1 = len(recorded) - len(kept)
    nizk._CORNERS.clear()
    nizk._CORNERS.update(kept)
    for checks in (1, 2):
        assert verify_parallel(stmt, proof, ps)
        assert degrees == {ps.A: checks * on_e1}
        assert nizk._CORNERS == kept
    i = next(i for i, r in enumerate(proof.rounds) if r.tag == 0)
    rounds = list(proof.rounds)
    km, kmp = rounds[i].reveal
    rounds[i] = dataclasses.replace(rounds[i], reveal=(ew.mul(2, km), kmp))
    assert nizk.proof_rejection(stmt, NizkProof(rounds), ps) == "nizk:kernel"
    assert nizk._CORNERS == kept
    nizk._CORNERS.clear()
    degrees.clear()
    assert verify_parallel(stmt, proof, ps)
    assert not nizk._CORNERS
    tag_1 = sum(degree == ps.B for _, _, degree in recorded)
    assert degrees == {ps.A: len(recorded) - tag_1, ps.B: tag_1}


def test_corner_memo_holds_at_most_its_maxsize(t0):
    """The memo is bounded: it keeps the last _CORNERS_KEPT corners recorded,
    at least those of one proof (at most two per round), and drops the
    oldest first; a corner recorded again becomes the newest."""
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
