"""Desk-scale adaptor signatures over supersingular isogenies.

The library stacks up as: quadratic-extension field arithmetic, curves
with Weil pairings and canonical torsion bases, prime-step isogeny chains,
artificial orientations, the hard relation, a toy underlying signature, a
parallel-square zero-knowledge proof, the extraction oracles, and the four
adaptor algorithms.  Everything is exact, deterministic under explicit
seeds, and sized for a desk, not for security.
"""

from .adaptor import AdaptedSignature, PreSignature, adapt, extract, presign, preverify
from .curve import Curve, Point, canonical_torsion_basis, weil_pairing
from .dlog import BasisDecomposition, decompose_2d, evaluate_rep, recover_isogeny
from .field import Fp2
from .isogeny import (
    EfficientRep,
    IsogenyChain,
    compose_chains,
    dual,
    efficient_rep,
    isogeny_from_kernel,
    mu,
    pull_back,
    push_forward,
)
from .nizk import NizkProof, prove_parallel, verify_parallel
from .orientation import Orientation, orientation_image, oriented_kernel, sample_orientation
from .params import PROFILES, ParamSet, generate_params, validate_params
from .relation import Statement, Witness, gen_r, verify_relation
from .sig import KeyPair, PlainSignature, challenge_walk, hash_to_challenge_index, keygen, sign, verify
from .swap import demo_swap

__all__ = [
    "AdaptedSignature",
    "BasisDecomposition",
    "Curve",
    "EfficientRep",
    "Fp2",
    "IsogenyChain",
    "KeyPair",
    "NizkProof",
    "Orientation",
    "PROFILES",
    "ParamSet",
    "PlainSignature",
    "Point",
    "PreSignature",
    "Statement",
    "Witness",
    "adapt",
    "canonical_torsion_basis",
    "challenge_walk",
    "compose_chains",
    "decompose_2d",
    "demo_swap",
    "dual",
    "efficient_rep",
    "evaluate_rep",
    "extract",
    "gen_r",
    "generate_params",
    "hash_to_challenge_index",
    "isogeny_from_kernel",
    "keygen",
    "mu",
    "orientation_image",
    "oriented_kernel",
    "presign",
    "preverify",
    "prove_parallel",
    "pull_back",
    "push_forward",
    "recover_isogeny",
    "sample_orientation",
    "sign",
    "validate_params",
    "verify",
    "verify_parallel",
    "verify_relation",
    "weil_pairing",
]
