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

The prover takes psi' as the chain `presign` has built, not the choice
vector, so it walks two chains per round and none before them, and
records both corners (`isogeny.remember_walk`), keyed by the walk's whole
input.  The check reads corners through `isogeny.kernel_codomain`, which
walks only what no prover recorded: a check right after its proof in one
process (both parties of `swap.demo_swap`) walks only the tag-0 masks on
E1, which no prover walks, and reaches every verdict a fresh process
reaches.  A process that only checks records nothing.
"""

import hashlib
from dataclasses import dataclass

from .curve import Curve, Point
from .errors import ProtocolError, WitnessMismatch, report
from .field import fp2_bytes
from .isogeny import IsogenyChain, kernel_codomain, remember_walk
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


def prove_parallel(statement, psip: IsogenyChain, ps: ParamSet, rng) -> NizkProof:
    """Prove that e1 = E_w / <ker psip>, given psi': the degree-B chain from
    E_w to e1 that `presign` builds from the statement's oriented kernel of
    its choice vector, whose kernel generators are the ones pushed."""
    ew, _, e1 = statement
    if psip.domain != ew or psip.codomain != e1 or psip.degree != ps.B:
        raise WitnessMismatch("psi' does not run from E_w to the commitment curve")
    gens = psip.kernel_gens

    A = ps.A
    corners = []
    kernels = []
    for _ in range(ps.nizk_rounds):
        h = rng.randrange(1, mu(A) + 1)
        mask = challenge_walk(ew, h, A)
        remember_walk(ew, mask.kernel_gens, A, mask.codomain)
        par = tuple(mask.evaluate(g) for g in gens)
        # F' from F on the B-side: the curve the mask pushed to e1 reaches
        fp = kernel_codomain(mask.codomain, par, ps.B)
        remember_walk(mask.codomain, par, ps.B, fp)
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
                if kernel_codomain(ew, [km], ps.A) != r.f:
                    return "nizk:mask"
                if kernel_codomain(e1, [kmp], ps.A) != r.fp:
                    return "nizk:mask-commitment"
            elif kernel_codomain(r.f, r.reveal, ps.B) != r.fp:
                return "nizk:parallel"
        except ProtocolError:
            return "nizk:kernel"
    return None


def verify_parallel(statement, proof: NizkProof, ps: ParamSet, reasons=None) -> bool:
    """Whether `proof_rejection` passes; its tag is reported to `reasons`."""
    return report(proof_rejection(statement, proof, ps), reasons)
