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
vector.  It draws its masks, indices of cyclic A-kernels of E_w, and
walks them as one tree (`isogeny.walk_cyclic_tree`): masks share step
prefixes, and each distinct prefix step is built once, pushing the
generators of psi' along.  Then it walks one parallel isogeny per
distinct mask.

The module keeps one bounded memo, _CORNERS: each round records the one
corner its check reads, keyed by the walk's whole input, (E_w, mask
kernel, A) -> F for tag 0 and (F, parallel kernel, B) -> F' for tag 1, so
a recorded codomain is the one a fresh walk gives.  The prover and the
check read corners through _codomain, from a copy of the memo that keeps
what the call walks and goes with it.  So a check walks a corner several
rounds reveal alike once, and a check right after its proof in one
process (both parties of `swap.demo_swap`) walks only the distinct tag-0
masks on E1, which no prover walks; a swap's second prover reads the F'
of a mask the first revealed with tag 1 when both parties chose the same
psi'.  Every verdict is the one a fresh process reaches, and a process
that only checks records nothing.
"""

import hashlib
from dataclasses import dataclass

from .curve import Curve, Point
from .errors import ProtocolError, WitnessMismatch, report
from .field import fp2_bytes
from .isogeny import IsogenyChain, cyclic_kernel, isogeny_from_kernel, mu, walk_cyclic_tree
from .params import ParamSet


#: the corners prove_parallel recorded, (domain, kernel generators, degree)
#: -> codomain, oldest first; at most _CORNERS_KEPT of them, which covers
#: the one corner per round of a swap's two proofs
_CORNERS = {}
_CORNERS_KEPT = 64


def _record(E: Curve, gens, degree: int, codomain: Curve):
    """Record codomain, that of isogeny_from_kernel(E, gens, degree), as the
    newest corner; the oldest goes once there are more than _CORNERS_KEPT."""
    key = (E, tuple(gens), degree)
    _CORNERS.pop(key, None)
    _CORNERS[key] = codomain
    if len(_CORNERS) > _CORNERS_KEPT:
        del _CORNERS[next(iter(_CORNERS))]


def _codomain(known: dict, E: Curve, gens, degree: int) -> Curve:
    """isogeny_from_kernel(E, gens, degree).codomain, read from known, a
    copy of _CORNERS, or walked into it; raises as the walk does."""
    key = (E, tuple(gens), degree)
    if key not in known:
        known[key] = isogeny_from_kernel(E, gens, degree).codomain
    return known[key]


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

    A, rounds = ps.A, ps.nizk_rounds
    bound = mu(A) + 1
    draws = [rng.randrange(1, bound) for _ in range(rounds)]
    # per round (F, F', parallel kernel), F' from F on the B-side: the
    # curve the mask pushed to e1 reaches
    known = dict(_CORNERS)
    squares = [
        (F, _codomain(known, F, par, ps.B), par)
        for F, par in walk_cyclic_tree(ew, A, draws, gens)
    ]

    # tag 0 reveals both masks, tag 1 the kernel of F -> F'; each round
    # records the one corner its check reads
    bits = _challenge_bits(statement, [sq[:2] for sq in squares], rounds)
    masks = iter(cyclic_kernel(ew, A, [h for h, bit in zip(draws, bits) if not bit]))
    out = []
    for (F, Fp, par), bit in zip(squares, bits):
        if bit:
            _record(F, par, ps.B, Fp)
            out.append(NizkRound(F, Fp, bit, par))
        else:
            km = next(masks)
            _record(ew, [km], A, F)
            out.append(NizkRound(F, Fp, bit, (km, psip.evaluate(km))))
    return NizkProof(out)


def proof_rejection(statement, proof: NizkProof, ps: ParamSet):
    """Reason tag of the first failing check, or None: the challenge is
    recomputed from the corners and every revealed branch is checked.
    Corners are read from a dict that starts as the recorded ones and
    keeps what this check walks, so a corner that several rounds reveal
    alike (a repeated mask) is walked once per check."""
    ew, wB, e1 = statement
    if len(proof.rounds) != ps.nizk_rounds:
        return "nizk:rounds"
    known = dict(_CORNERS)
    bits = _challenge_bits(
        statement, [(r.f, r.fp) for r in proof.rounds], ps.nizk_rounds
    )
    for r, bit in zip(proof.rounds, bits):
        if r.tag != bit:
            return "nizk:challenge"
        try:
            if bit == 0:
                km, kmp = r.reveal
                if _codomain(known, ew, [km], ps.A) != r.f:
                    return "nizk:mask"
                if _codomain(known, e1, [kmp], ps.A) != r.fp:
                    return "nizk:mask-commitment"
            elif _codomain(known, r.f, r.reveal, ps.B) != r.fp:
                return "nizk:parallel"
        except ProtocolError:
            return "nizk:kernel"
    return None


def verify_parallel(statement, proof: NizkProof, ps: ParamSet, reasons=None) -> bool:
    """Whether `proof_rejection` passes; its tag is reported to `reasons`."""
    return report(proof_rejection(statement, proof, ps), reasons)
