"""Two-party atomic-swap walkthrough over the adaptor algorithms.

Alice samples the hard relation and keeps the witness.  Both parties
pre-sign their payment messages against the shared statement; Alice claims
by adapting Bob's pre-signature (publishing the full signature), Bob
extracts the witness from the published pair and adapts Alice's
pre-signature in turn.  The transcript logs every artifact and is
replayable byte for byte from the seed.
"""

import hashlib
import random
from dataclasses import replace

from . import serial
from .adaptor import AdaptedSignature, adapt, extract, presign, preverify
from .errors import ProtocolError
from .params import ParamSet
from .relation import gen_r
from .sig import keygen, verify

ALICE_MESSAGE = b"alice funds the swap"
BOB_MESSAGE = b"bob funds the swap"


def _sub_rng(seed: int, label: str) -> random.Random:
    h = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return random.Random(int.from_bytes(h, "big"))


def _fingerprint(doc) -> str:
    return hashlib.sha256(serial.encode(doc)).hexdigest()


def demo_swap(ps: ParamSet, seed: int, fault: bool = False) -> dict:
    """Run the swap; returns the transcript document (events + verdict).

    Any protocol error aborts the run but keeps the event log up to the
    failure in the transcript; any other exception is a bug and propagates.
    """
    events = []
    try:
        verdict = _run_swap(ps, seed, fault, events)
    except ProtocolError as exc:
        events.append({"type": "abort", "error": str(exc)})
        verdict = False
    return {"seed": seed, "fault": fault, "events": events, "verdict": verdict}


def _run_swap(ps: ParamSet, seed: int, fault: bool, events: list) -> bool:
    pdoc = serial.params_doc(ps)
    events.append({"type": "params", "fingerprint": _fingerprint(pdoc)})

    alice = keygen(ps, _sub_rng(seed, "alice-key"))
    bob = keygen(ps, _sub_rng(seed, "bob-key"))
    events.append(
        {
            "type": "keys",
            "alice_pk": _fingerprint(serial.curve_doc(alice.pk)),
            "bob_pk": _fingerprint(serial.curve_doc(bob.pk)),
        }
    )

    w, s = gen_r(ps, _sub_rng(seed, "relation"))
    events.append({"type": "statement", "statement": serial.statement_doc(s)})

    legs = []
    for name, kp, m in (("alice", alice, ALICE_MESSAGE), ("bob", bob, BOB_MESSAGE)):
        pre = presign(kp, m, s, ps, _sub_rng(seed, f"{name}-presign"))
        ok = preverify(kp.pk, m, s, pre, "light", ps)
        events.append(
            {
                "type": "presignature",
                "party": name,
                "presignature": serial.presig_doc(pre),
                "preverified": ok,
            }
        )
        legs.append((pre, ok))
    (pre_a, ok_a), (pre_b, ok_b) = legs
    if not (ok_a and ok_b):
        events.append({"type": "verdict", "success": False, "reason": "preverify"})
        return False

    # Alice completes Bob's pre-signature with her witness and Bob extracts
    # it from the published signature; he completes Alice's with it in turn
    sigs = []
    claims = (("alice", "bob", pre_b, fault), ("bob", "alice", pre_a, False))
    for adapter, extractor, pre, faulted in claims:
        sig = adapt(pre, w, ps)
        if faulted:
            # simulate a corrupted adaptation: swap the published images
            sig = AdaptedSignature(sig.e1, replace(sig.rep, images=sig.rep.images[::-1]))
        events.append(
            {
                "type": "adapt",
                "party": adapter,
                "signature": serial.signature_doc(sig),
                "faulted": faulted,
            }
        )
        reasons = []
        w = extract(sig, pre, s, ps, reasons)
        events.append(
            {
                "type": "extract",
                "party": extractor,
                "witness": None if w is None else serial.witness_doc(w),
                "reasons": reasons,
            }
        )
        if w is None:
            events.append({"type": "verdict", "success": False, "reason": "extract"})
            return False
        sigs.append(sig)

    sig_b, sig_a = sigs
    verdict = (
        verify(bob.pk, BOB_MESSAGE, sig_b, "light", ps)
        and verify(alice.pk, ALICE_MESSAGE, sig_a, "light", ps)
    )
    events.append({"type": "verdict", "success": verdict, "reason": None})
    return verdict
