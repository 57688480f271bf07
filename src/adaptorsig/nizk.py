"""Proof that the commitment curve is honestly derived from the statement.

A Fiat-Shamir sigma protocol over parallel-isogeny squares: each round
masks the statement curve E_w with a random 2-power isogeny to F, pushes
the oriented kernel through the mask to reach F' = F/<mask(ker psi')>,
commits to the two new corners, and reveals either both masks (challenge
0) or the oriented kernel pushed through the mask (challenge 1).
Soundness error is 2^-rounds.

The square commutes on the nose: the mask pushed through psi' (E1 -> F')
and the parallel isogeny (F -> F') have the same kernel from E_w, and every
Vélu step built here has u = 1, so it pulls dx/2y back to itself and both
composites reach the same curve model, not only the same j-invariant.  So
the prover builds F' on the B-side (the chain a tag-1 verifier rebuilds)
and never walks the mask a second time on E1, and the tag-1 check compares
curves exactly.
"""

import hashlib
from dataclasses import dataclass

from .curve import Curve, Point
from .errors import ProtocolError, WitnessMismatch, report
from .field import fp2_bytes
from .isogeny import isogeny_from_kernel
from .orientation import oriented_kernel
from .params import ParamSet
from .sig import challenge_walk, mu


@dataclass
class NizkRound:
    f: Curve
    fp: Curve
    tag: int
    reveal: tuple  # tag 0: (mask kernel on E_w, mask kernel on E1)
    #                tag 1: tuple of parallel kernel generators on f,
    #                       whose isogeny lands on fp itself


@dataclass
class NizkProof:
    rounds: list


def _curve_bytes(E: Curve) -> bytes:
    return fp2_bytes(E.a) + fp2_bytes(E.b)


def _point_bytes(P: Point) -> bytes:
    if P.is_inf:
        return b"\x00inf"
    return fp2_bytes(P.x) + fp2_bytes(P.y)


def _statement_bytes(statement) -> bytes:
    ew, wB, e1 = statement
    h = hashlib.sha256()
    h.update(_curve_bytes(ew))
    for ell, G1, G2 in wB.pairs:
        h.update(ell.to_bytes(4, "big"))
        h.update(_point_bytes(G1))
        h.update(_point_bytes(G2))
    h.update(_curve_bytes(e1))
    return h.digest()


def _challenge_bits(statement, corners, k: int):
    """k challenge bits from the statement and all corner j-invariants."""
    h = hashlib.sha256()
    h.update(_statement_bytes(statement))
    for F, Fp in corners:
        h.update(fp2_bytes(F.j_invariant()))
        h.update(fp2_bytes(Fp.j_invariant()))
    stream = b""
    counter = 0
    while 8 * len(stream) < k:
        stream += hashlib.sha256(h.digest() + counter.to_bytes(4, "big")).digest()
        counter += 1
    return [(stream[i // 8] >> (7 - i % 8)) & 1 for i in range(k)]


def prove_parallel(statement, witness_bits, ps: ParamSet, rng) -> NizkProof:
    """Prove that e1 = E_w / <oriented kernel of witness_bits>."""
    ew, wB, e1 = statement
    gens = oriented_kernel(wB, witness_bits)
    psip = isogeny_from_kernel(ew, gens, ps.B)
    if psip.codomain != e1:
        raise WitnessMismatch("choice vector does not produce the commitment curve")

    A = ps.A
    corners = []
    kernels = []
    for _ in range(ps.nizk_rounds):
        h = rng.randrange(1, mu(A) + 1)
        mask = challenge_walk(ew, h, A)
        par = tuple(mask.evaluate(g) for g in gens)
        # F' from F on the B-side: the curve the mask pushed to e1 reaches
        fp = isogeny_from_kernel(mask.codomain, list(par), ps.B).codomain
        corners.append((mask.codomain, fp))
        kernels.append((mask.kernel_gens[0], par))

    # tag 0 reveals both masks, tag 1 the kernel of F -> F'; psi' of the
    # mask kernel is computed only for the rounds that reveal it
    bits = _challenge_bits(statement, corners, ps.nizk_rounds)
    return NizkProof(
        [
            NizkRound(F, Fp, bit, par if bit else (km, psip.evaluate(km)))
            for (F, Fp), (km, par), bit in zip(corners, kernels, bits)
        ]
    )


def proof_rejection(statement, proof: NizkProof, ps: ParamSet):
    """Reason tag of the first failing check, or None: the challenge is
    recomputed from the corners and every revealed branch is checked."""
    ew, wB, e1 = statement
    if len(proof.rounds) != ps.nizk_rounds:
        return "nizk:rounds"
    bits = _challenge_bits(
        statement, [(r.f, r.fp) for r in proof.rounds], ps.nizk_rounds
    )
    for r, bit in zip(proof.rounds, bits):
        if r.tag != bit:
            return "nizk:challenge"
        try:
            if bit == 0:
                km, kmp = r.reveal
                if isogeny_from_kernel(ew, [km], ps.A).codomain != r.f:
                    return "nizk:mask"
                if isogeny_from_kernel(e1, [kmp], ps.A).codomain != r.fp:
                    return "nizk:mask-commitment"
            elif isogeny_from_kernel(r.f, list(r.reveal), ps.B).codomain != r.fp:
                return "nizk:parallel"
        except ProtocolError:
            return "nizk:kernel"
    return None


def verify_parallel(statement, proof: NizkProof, ps: ParamSet, reasons=None) -> bool:
    """Whether `proof_rejection` passes; its tag is reported to `reasons`."""
    return report(proof_rejection(statement, proof, ps), reasons)
