"""The four adaptor algorithms: presign, preverify, adapt, extract.

A pre-signature shifts the underlying response so that it starts at the
masked commitment curve E_psi; holding the witness lets anyone translate
it to the true commitment curve E1 (adapt), and the pair of signatures
exposes the witness again (extract).  The torsion-image representation of
the shifted response is taken on the full AC-basis of E_psi: the adapter
needs the C-part of the action to complete the signature honestly.  Strict
verification checks the full images; extraction recovers a degree-C isogeny
from the A-part, where 4C < A^2 makes it unique.
"""

import math

from .curve import Curve, canonical_torsion_basis, has_exact_order, isomorphisms, twist_point
from .dlog import decompose_2d, evaluate_rep, recover_isogeny
from .errors import (
    AmbiguityBound,
    NotABasis,
    NotFound,
    OrderMismatch,
    ProtocolError,
    WitnessStatementMismatch,
    report,
)
from .isogeny import (
    EfficientRep,
    a_part,
    compose_chains,
    dual,
    efficient_rep,
    isogeny_from_kernel,
    pairing_law,
)
from .nizk import NizkProof, proof_rejection, prove_parallel
from .orientation import oriented_kernel
from .params import ParamSet
from .relation import Statement, Witness, relation_rejection
from .sig import (
    KeyPair,
    challenge,
    rep_rejection,
    response_degree,
    response_rejection,
    signature_shapes,
)


class PreSignature:
    __slots__ = ("e1", "proof", "epsi", "s", "rep_tilde")

    def __init__(self, e1, proof: NizkProof, epsi, s, rep_tilde: EfficientRep):
        self.e1 = e1
        self.proof = proof
        self.epsi = epsi
        self.s = s  # (psi(P), psi(Q))
        self.rep_tilde = rep_tilde


class AdaptedSignature:
    __slots__ = ("e1", "rep")

    def __init__(self, e1, rep: EfficientRep):
        self.e1 = e1
        self.rep = rep


def presignature_shapes(ps: ParamSet) -> dict:
    """Shifted response degree by order: the AC-basis only."""
    return {ps.A * ps.C: response_degree(ps)}


def presign(kp: KeyPair, m: bytes, s: Statement, ps: ParamSet, rng) -> PreSignature:
    """Produce the shifted signature tuple (E1, proof, E_psi, S, rep)."""
    bits = [rng.randrange(1, 3) for _ in range(ps.t)]
    psi = isogeny_from_kernel(
        ps.e0, oriented_kernel(ps.orientation, bits), ps.B
    )
    P, Q = ps.pq
    S = (psi.evaluate(P), psi.evaluate(Q))
    # the same choice vector applied to the transported orientation realizes
    # the push-forward of psi through the witness without knowing it
    psip = isogeny_from_kernel(
        s.ew, oriented_kernel(s.oriented_image, bits), ps.B
    )
    e1 = psip.codomain
    proof = prove_parallel((s.ew, s.oriented_image, e1), psip, ps, rng)
    phi = challenge(kp.pk, e1, m, ps)
    # the generators the choice vector left out are outside ker psi, so
    # they carry the dual kernels of psi's steps (isogeny.dual)
    unchosen = oriented_kernel(ps.orientation, [3 - b for b in bits])
    sigma_tilde = compose_chains(dual(psi, dict(zip(ps.orientation.primes, unchosen))), kp.sk, phi)
    rep_tilde = efficient_rep(sigma_tilde, ps.A * ps.C)
    return PreSignature(e1, proof, psi.codomain, S, rep_tilde)


def s_rejection(epsi: Curve, S, ps: ParamSet):
    """Reason tag of the first failing check on S, or None: both points on
    E_psi, of exact order C, and e(S) = e(P, Q)^B, as the images of E0's
    C-basis (P, Q) under a degree-B isogeny."""
    if not all(epsi.on_curve(X) for X in S):
        return "s-points:off-curve"
    if not all(has_exact_order(epsi, X, ps.C) for X in S):
        return "s-points:order"
    if not pairing_law(EfficientRep(ps.e0, epsi, ps.B, ps.C, ps.pq, S)):
        return "s-points:pairing"
    return None


def preverify(
    pk: Curve,
    m: bytes,
    s: Statement,
    presig: PreSignature,
    mode: str,
    ps: ParamSet,
    reasons=None,
) -> bool:
    """Check a pre-signature: S-pairing, proof, challenge, representation."""
    if mode not in ("light", "strict"):
        raise ValueError(f"unknown mode {mode!r}")
    # the first failing tag, in order: (1) S well-formed and the pairing
    # identity with exponent B, (2) the proof that the commitment curve is
    # honestly derived from the statement, (3) the challenge walk and the
    # representation of the shifted response
    statement = (s.ew, s.oriented_image, presig.e1)
    tag = (
        s_rejection(presig.epsi, presig.s, ps)
        or (proof_rejection(statement, presig.proof, ps) and "nizk")
        or response_rejection(
            pk, m, presig.e1, presig.rep_tilde, presig.epsi, presignature_shapes(ps), mode, ps
        )
    )
    return report(tag, reasons)


def adapt(presig: PreSignature, w: Witness, ps: ParamSet) -> AdaptedSignature:
    """Complete a pre-signature with the witness.

    The parallel copy w' of the witness isogeny is built from S alone; its
    codomain W must be isomorphic to the committed curve E1.  The signature
    images are the response at dual(w') o iota^-1 of E1's canonical
    AC-basis, for an isomorphism iota: W -> E1: the exact dual of iota o w'.
    """
    C = ps.C
    epsi = presig.epsi
    S1, S2 = presig.s
    K = epsi.add(S1, epsi.mul(w.alpha % C, S2))
    try:
        wprime = isogeny_from_kernel(epsi, [K], C)
    except ProtocolError as exc:
        raise WitnessStatementMismatch(f"witness kernel invalid: {exc}") from exc
    isos = isomorphisms(wprime.codomain, presig.e1)
    if not isos:
        raise WitnessStatementMismatch(
            "parallel witness isogeny does not land on the commitment curve"
        )
    # W -> E_psi, exact; C = 3^c, and [C/3]S2 is outside ker w' when S is a basis
    what = dual(wprime, {3: epsi.mul(C // 3, S2)})
    back = isos[0].inv()  # E1 -> W

    N = ps.A * C
    basis = canonical_torsion_basis(presig.e1, N, presig.e1.p + 1)
    images = evaluate_rep(presig.rep_tilde, [what.evaluate(twist_point(X, back)) for X in basis])
    rep = EfficientRep(
        presig.e1, presig.rep_tilde.codomain, signature_shapes(ps)[N], N, basis, images
    )
    return AdaptedSignature(presig.e1, rep)


def extract(
    sig: AdaptedSignature,
    presig: PreSignature,
    s: Statement,
    ps: ParamSet,
    reasons=None,
):
    """Recover the witness from a pre-signature/signature pair, or None.

    Works on the A-torsion: the signature images scaled by C reveal the
    action of the dual parallel isogeny on a basis of E1[A], the recovery
    oracle turns that into a kernel, and a change of basis to (psi(P),
    psi(Q)) yields alpha.  Every failure returns None (bottom).

    The challenge hashes j(E1) alone, so a signature on any model E1' of
    the committed E1 verifies as well, and the recovery runs on E1' itself:
    an isomorphism iota: E1 -> E1' maps E1[C] onto E1'[C], so the recovered
    isogeny dual(w') o iota^-1 maps E1'[C] onto the kernel of w', and
    alpha is the same at every j, automorphisms included.  A signature on a
    curve not isomorphic to E1 is commitment-curve-mismatch.
    """
    A, C = ps.A, ps.C
    e1, epsi, rep = sig.e1, presig.epsi, sig.rep
    if e1 != presig.e1 and not isomorphisms(presig.e1, e1):
        tag = "commitment-curve-mismatch"
    elif rep.domain != e1 or rep.codomain != presig.rep_tilde.codomain:
        tag = "rep:endpoints"
    else:
        tag = rep_rejection(rep, {A * C: signature_shapes(ps)[A * C]})
    if not report(tag, reasons):
        return None

    # sigma-tilde inverted on the A-torsion: its A-part with basis and
    # images swapped maps E2[A] back to E_psi[A] (evaluate_rep reads no degree)
    tilde = a_part(presig.rep_tilde, A)
    back = EfficientRep(tilde.codomain, tilde.domain, tilde.degree, A, tilde.images, tilde.basis)

    def witness():
        """The witness, or the tag of the first check that fails."""
        sig_a = a_part(rep, A)
        try:
            images = evaluate_rep(back, sig_a.images)
        except (NotABasis, OrderMismatch):
            return "a-torsion-decomposition"
        synth = EfficientRep(e1, epsi, C, A, sig_a.basis, images)
        try:
            rec = recover_isogeny(synth)
        except NotFound:
            return "recovery:not-found"
        except AmbiguityBound:  # the extraction bound 4C < A^2 rules this out
            return "recovery:ambiguity"

        # kernel of the parallel witness isogeny = image of E1[C] under the
        # dual; [A] times the AC-basis that rep_rejection checked spans E1[C]
        Uc, Vc = (e1.mul(A, X) for X in rep.basis)
        K = rec.evaluate(Uc)
        if not has_exact_order(epsi, K, C):
            K = rec.evaluate(Vc)
        S1, S2 = presig.s
        try:
            d = decompose_2d(epsi, S1, S2, K, C)
        except (NotABasis, OrderMismatch):
            return "c-torsion-decomposition"
        if math.gcd(d.x, C) != 1:
            return "non-invertible-first-coefficient"
        wit = Witness(d.y * pow(d.x, -1, C) % C)
        if relation_rejection(wit, s, ps) is not None:
            return "relation-check"
        return wit

    found = witness()
    if isinstance(found, Witness):
        return found
    report(found, reasons)
    return None
