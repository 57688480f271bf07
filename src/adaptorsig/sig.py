"""The toy underlying signature: keygen, hash-to-challenge, signing by
explicit composition, and layered verification, on cyclic kernels named by
their index (isogeny.cyclic_kernel).

The response isogeny is the literal composition (challenge) o (secret key)
o (dual commitment), so its degree is the fixed composite B*D_tau*D_phi
rather than a short random prime; that is all the adaptor layer consumes.
Strict verification certifies every shape by finding an isogeny phi o tau
of the stated degree that maps the full basis to the torsion images, with
phi the recomputed challenge walk and tau running to pk.
"""

import hashlib

from .curve import Curve, canonical_torsion_basis, factorize
from .dlog import isogeny_exists
from .errors import IndexOutOfRange, ProtocolError, report
from .field import Fp2, fp2_bytes
from .isogeny import (
    EfficientRep,
    IsogenyChain,
    compose_chains,
    cyclic_kernel,
    dual,
    efficient_rep,
    isogeny_from_kernel,
    mu,
    pairing_law,
)
from .params import ParamSet


class KeyPair:
    """The secret isogeny sk of degree D_tau from E0, named by one kernel
    index per prime power of D_tau (_smooth_kernel); pk is its codomain."""

    __slots__ = ("indices", "sk", "pk")

    def __init__(self, ps: ParamSet, indices):
        self.indices = tuple(indices)
        gens = _smooth_kernel(ps.e0, ps.d_tau, self.indices)
        self.sk = isogeny_from_kernel(ps.e0, gens, ps.d_tau)
        self.pk = self.sk.codomain


class PlainSignature:
    __slots__ = ("e1", "rep")

    def __init__(self, e1: Curve, rep: EfficientRep):
        self.e1 = e1
        self.rep = rep


def hash_to_challenge_index(j: Fp2, m: bytes, mu_val: int) -> int:
    """1 + (SHA-256(c0 || c1 || m) mod mu): deterministic index in [1, mu]."""
    if mu_val < 1:
        raise IndexOutOfRange("mu must be at least 1")
    digest = hashlib.sha256(fp2_bytes(j) + m).digest()
    return 1 + int.from_bytes(digest, "big") % mu_val


def challenge_walk(E: Curve, h: int, D: int) -> IsogenyChain:
    """The h-th cyclic degree-D isogeny from E, D a prime power."""
    return isogeny_from_kernel(E, cyclic_kernel(E, D, [h]), D)


def challenge(pk: Curve, e1: Curve, m: bytes, ps: ParamSet) -> IsogenyChain:
    """The Fiat-Shamir challenge: the walk from pk indexed by (j(e1), m)."""
    h = hash_to_challenge_index(e1.j_invariant(), m, mu(ps.d_phi))
    return challenge_walk(pk, h, ps.d_phi)


def _random_indices(degree: int, rng) -> list:
    """A uniformly random cyclic subgroup of order `degree` (squarefree and
    odd here, so every order-degree subgroup is cyclic and splits per
    prime), as one index per prime power, in factorize order."""
    return [rng.randrange(1, mu(ell**e) + 1) for ell, e in factorize(degree).items()]


def _smooth_kernel(E: Curve, degree: int, indices) -> list:
    """Generators of the subgroup of E that `indices` name, one per prime
    power of `degree` (_random_indices)."""
    fac = factorize(degree).items()
    return [cyclic_kernel(E, ell**e, [i])[0] for (ell, e), i in zip(fac, indices, strict=True)]


def keygen(ps: ParamSet, rng) -> KeyPair:
    """Secret isogeny of degree D_tau from the base curve; pk its codomain."""
    return KeyPair(ps, _random_indices(ps.d_tau, rng))


def response_degree(ps: ParamSet) -> int:
    return ps.B * ps.d_tau * ps.d_phi


def signature_shapes(ps: ParamSet) -> dict:
    """Response degree by order: a plain (A) or an adapted (AC) signature."""
    return {ps.A: response_degree(ps), ps.A * ps.C: response_degree(ps) * ps.C}


def sign(kp: KeyPair, m: bytes, ps: ParamSet, rng) -> PlainSignature:
    """Commit, derive the challenge walk, respond by explicit composition."""
    gens = _smooth_kernel(ps.e0, ps.B, _random_indices(ps.B, rng))
    psi0 = isogeny_from_kernel(ps.e0, gens, ps.B)
    e1 = psi0.codomain
    phi = challenge(kp.pk, e1, m, ps)
    sigma = compose_chains(dual(psi0), kp.sk, phi)
    rep = efficient_rep(sigma, ps.A)
    return PlainSignature(e1, rep)


def rep_rejection(rep: EfficientRep, shapes: dict):
    """Reason tag of the first representation check that fails, or None.

    `shapes` maps each admissible basis order to its degree.  The basis
    must be the canonical one of the domain, the images must be points of
    the codomain killed by the order, and the pairing law e(images) =
    e(basis)^degree must hold; pairing_law rules on both, once per
    representation value.
    """
    N = rep.order
    if shapes.get(N) != rep.degree:
        return "rep:shape"
    try:
        if rep.basis != canonical_torsion_basis(rep.domain, N, rep.domain.p + 1):
            return "rep:basis"
    except ProtocolError:
        return "rep:basis"
    law = pairing_law(rep)
    if law is None:
        return "rep:images"
    if not law:
        return "rep:pairing"
    return None


def response_rejection(
    pk: Curve,
    m: bytes,
    e1: Curve,
    rep: EfficientRep,
    domain: Curve,
    shapes: dict,
    mode: str,
    ps: ParamSet,
):
    """Reason tag of the first failing check on a response, or None.

    The challenge walk phi is recomputed from (pk, j(e1), m); the response
    must run from `domain` to its codomain and pass `rep_rejection` with
    `shapes`.  Strict mode then asks for a verdict: isogeny_exists(rep,
    phi) searches for sigma = phi o tau, tau from `domain` to pk, of the
    stated degree, that maps the full basis to the images, and returns at
    its first match, building none of the canonical chain that
    find_isogeny and recover_isogeny return.  That needs no uniqueness, so
    plain, pre- and adapted signatures take this one path, and on an
    AC-basis the match certifies the C-part images as well.  Every honest
    response is phi o tau, so only tau, of degree d/D_phi, is searched:
    its backward half starts at pk, and the join ends with phi's own steps.
    """
    try:
        phi = challenge(pk, e1, m, ps)
    except ProtocolError:
        return "challenge"
    if rep.domain != domain or rep.codomain != phi.codomain:
        return "rep:endpoints"
    tag = rep_rejection(rep, shapes)
    if tag is not None or mode == "light":
        return tag
    if not isogeny_exists(rep, phi):
        return "rep:recovery"
    return None


def verify(
    pk: Curve, m: bytes, sig: PlainSignature, mode: str, ps: ParamSet, reasons=None
) -> bool:
    """Layered verification of a signature (plain or adapted shape); see
    `response_rejection` for the light and strict checks, whose tag is
    reported to `reasons`."""
    if mode not in ("light", "strict"):
        raise ValueError(f"unknown mode {mode!r}")
    tag = response_rejection(pk, m, sig.e1, sig.rep, sig.e1, signature_shapes(ps), mode, ps)
    return report(tag, reasons)
