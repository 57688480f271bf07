import copy
import dataclasses
import random

import pytest

from adaptorsig import isogeny, nizk, sig
from adaptorsig.curve import canonical_torsion_basis
from adaptorsig.errors import WitnessMismatch
from adaptorsig.isogeny import isogeny_from_kernel
from adaptorsig.nizk import NizkProof, NizkRound, prove_parallel, verify_parallel
from adaptorsig.orientation import oriented_kernel
from adaptorsig.relation import gen_r


def make_statement(ps, rng):
    w, s = gen_r(ps, rng)
    bits = [rng.randrange(1, 3) for _ in range(ps.t)]
    psip = isogeny_from_kernel(s.ew, oriented_kernel(s.oriented_image, bits), ps.B)
    return (s.ew, s.oriented_image, psip.codomain), bits


def test_completeness_100_of_100(t0):
    rng = random.Random(17)
    good = 0
    for _ in range(100):
        stmt, bits = make_statement(t0, rng)
        proof = prove_parallel(stmt, bits, t0, rng)
        good += verify_parallel(stmt, proof, t0)
    assert good == 100


def test_round_count(t1):
    rng = random.Random(18)
    stmt, bits = make_statement(t1, rng)
    proof = prove_parallel(stmt, bits, t1, rng)
    assert len(proof.rounds) == t1.nizk_rounds == 24


def test_wrong_witness_bits_rejected_at_prove_time(t0):
    rng = random.Random(19)
    stmt, bits = make_statement(t0, rng)
    wrong = [3 - b for b in bits]
    with pytest.raises(WitnessMismatch):
        prove_parallel(stmt, wrong, t0, rng)


def test_prover_builds_two_chains_per_round(t0, monkeypatch):
    """psi' once, then the mask and its push through psi' per round: a bit-1
    round reveals the pushed kernel generators without building their
    isogeny, which is left to the verifier."""
    rng = random.Random(26)
    stmt, bits = make_statement(t0, rng)
    degrees = []
    build = isogeny.isogeny_from_kernel

    def counted(E, gens, degree):
        degrees.append(degree)
        return build(E, gens, degree)

    for module in (isogeny, sig, nizk):
        monkeypatch.setattr(module, "isogeny_from_kernel", counted)
    proof = prove_parallel(stmt, bits, t0, rng)
    assert len(degrees) == 2 * t0.nizk_rounds + 1 == 49
    assert degrees.count(t0.B) == 1
    monkeypatch.undo()
    assert verify_parallel(stmt, proof, t0)


def test_corner_substitution_rejected(t0):
    rng = random.Random(20)
    stmt, bits = make_statement(t0, rng)
    proof = prove_parallel(stmt, bits, t0, rng)
    bad = copy.deepcopy(proof)
    r0, r1 = bad.rounds[0], bad.rounds[1]
    bad.rounds[0] = NizkRound(r1.f, r0.fp, r0.tag, r0.reveal)
    assert not verify_parallel(stmt, bad, t0)


def test_shuffled_rounds_rejected(t0):
    rng = random.Random(21)
    stmt, bits = make_statement(t0, rng)
    proof = prove_parallel(stmt, bits, t0, rng)
    shuffled = NizkProof(list(reversed(proof.rounds)))
    assert not verify_parallel(stmt, shuffled, t0)


def test_wrong_commitment_curve_rejected(t0):
    rng = random.Random(22)
    stmt, bits = make_statement(t0, rng)
    proof = prove_parallel(stmt, bits, t0, rng)
    # replace E1 by a curve from an unrelated run
    stmt2, _ = make_statement(t0, random.Random(23))
    forged = (stmt[0], stmt[1], stmt2[2])
    if forged[2] == stmt[2]:
        pytest.skip("colliding commitment curves")
    assert not verify_parallel(forged, proof, t0)


def test_truncated_proof_rejected(t0):
    rng = random.Random(24)
    stmt, bits = make_statement(t0, rng)
    proof = prove_parallel(stmt, bits, t0, rng)
    assert not verify_parallel(stmt, NizkProof(proof.rounds[:-1]), t0)


def test_malformed_reveal_is_an_error_not_a_rejection(t0):
    rng = random.Random(24)
    stmt, bits = make_statement(t0, rng)
    proof = prove_parallel(stmt, bits, t0, rng)
    i = next(i for i, r in enumerate(proof.rounds) if r.tag == 1)
    r = proof.rounds[i]
    proof.rounds[i] = NizkRound(r.f, r.fp, r.tag, None)
    with pytest.raises(TypeError):
        verify_parallel(stmt, proof, t0)


def test_every_rejection_tag_is_reached(t0):
    rng = random.Random(25)
    stmt, bits = make_statement(t0, rng)
    proof = prove_parallel(stmt, bits, t0, rng)
    ew, _, e1 = stmt
    n = t0.group_order
    i0 = next(i for i, r in enumerate(proof.rounds) if r.tag == 0)
    i1 = next(i for i, r in enumerate(proof.rounds) if r.tag == 1)
    km, kmp = proof.rounds[i0].reveal
    r1 = proof.rounds[i1]

    def tags(proof):
        reasons = []
        assert not verify_parallel(stmt, proof, t0, reasons)
        return reasons

    def with_round(i, **changes):
        rounds = list(proof.rounds)
        rounds[i] = dataclasses.replace(rounds[i], **changes)
        return NizkProof(rounds)

    def other_mask(E, K):
        # a kernel point of order A whose quotient is not the one of <K>
        U, V = canonical_torsion_basis(E, t0.A, n)
        target = isogeny_from_kernel(E, [K], t0.A).codomain
        return next(
            G for G in (U, V, E.add(U, V))
            if isogeny_from_kernel(E, [G], t0.A).codomain != target
        )

    F = r1.f
    U5, V5 = canonical_torsion_basis(F, 5, n)
    U7, V7 = canonical_torsion_basis(F, 7, n)
    other_parallel = next(
        gens
        for gens in ((U5, U7), (V5, V7), (F.add(U5, V5), F.add(U7, V7)))
        if isogeny_from_kernel(F, list(gens), t0.B).codomain.j_invariant()
        != r1.fp.j_invariant()
    )

    reasons = []
    assert verify_parallel(stmt, proof, t0, reasons) and reasons == []
    assert tags(NizkProof(proof.rounds[:-1])) == ["nizk:rounds"]
    assert tags(with_round(i0, tag=1)) == ["nizk:challenge"]
    assert tags(with_round(i0, reveal=(other_mask(ew, km), kmp))) == ["nizk:mask"]
    assert tags(with_round(i0, reveal=(km, other_mask(e1, kmp)))) == [
        "nizk:mask-commitment"
    ]
    assert tags(with_round(i1, reveal=other_parallel)) == ["nizk:parallel"]
    assert tags(with_round(i0, reveal=(ew.mul(2, km), kmp))) == ["nizk:kernel"]
