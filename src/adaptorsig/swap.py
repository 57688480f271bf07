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

from . import serial
from .adaptor import AdaptedSignature, adapt, extract, presign, preverify
from .errors import ProtocolError
from .isogeny import EfficientRep
from .params import ParamSet
from .relation import gen_r, verify_relation
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
        return _run_swap(ps, seed, fault, events)
    except ProtocolError as exc:
        events.append({"type": "abort", "error": str(exc)})
        return {"seed": seed, "fault": fault, "events": events, "verdict": False}


def _run_swap(ps: ParamSet, seed: int, fault: bool, events: list) -> dict:
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

    pre_a = presign(alice, ALICE_MESSAGE, s, ps, _sub_rng(seed, "alice-presign"))
    ok_a = preverify(alice.pk, ALICE_MESSAGE, s, pre_a, "light", ps)
    events.append(
        {
            "type": "presignature",
            "party": "alice",
            "presignature": serial.presig_doc(pre_a),
            "preverified": ok_a,
        }
    )
    pre_b = presign(bob, BOB_MESSAGE, s, ps, _sub_rng(seed, "bob-presign"))
    ok_b = preverify(bob.pk, BOB_MESSAGE, s, pre_b, "light", ps)
    events.append(
        {
            "type": "presignature",
            "party": "bob",
            "presignature": serial.presig_doc(pre_b),
            "preverified": ok_b,
        }
    )
    if not (ok_a and ok_b):
        events.append({"type": "verdict", "success": False, "reason": "preverify"})
        return {"seed": seed, "fault": fault, "events": events, "verdict": False}

    # Alice completes Bob's pre-signature with her witness
    sig_b = adapt(pre_b, w, ps)
    if fault:
        # simulate a corrupted adaptation: swap the published images
        rep = sig_b.rep
        sig_b = AdaptedSignature(
            sig_b.e1,
            EfficientRep(
                rep.domain,
                rep.codomain,
                rep.degree,
                rep.order,
                rep.basis,
                (rep.images[1], rep.images[0]),
            ),
        )
    events.append(
        {
            "type": "adapt",
            "party": "alice",
            "signature": serial.signature_doc(sig_b),
            "faulted": fault,
        }
    )

    # Bob learns the witness from the published signature
    reasons = []
    w_bob = extract(sig_b, pre_b, s, ps, reasons)
    events.append(
        {
            "type": "extract",
            "party": "bob",
            "witness": None if w_bob is None else serial.witness_doc(w_bob),
            "reasons": reasons,
        }
    )
    if w_bob is None:
        events.append({"type": "verdict", "success": False, "reason": "extract"})
        return {"seed": seed, "fault": fault, "events": events, "verdict": False}

    # and uses it to complete Alice's pre-signature
    sig_a = adapt(pre_a, w_bob, ps)
    events.append(
        {
            "type": "adapt",
            "party": "bob",
            "signature": serial.signature_doc(sig_a),
            "faulted": False,
        }
    )
    reasons_a = []
    w_alice = extract(sig_a, pre_a, s, ps, reasons_a)
    events.append(
        {
            "type": "extract",
            "party": "alice",
            "witness": None if w_alice is None else serial.witness_doc(w_alice),
            "reasons": reasons_a,
        }
    )

    verdict = (
        verify(bob.pk, BOB_MESSAGE, sig_b, "light", ps)
        and verify(alice.pk, ALICE_MESSAGE, sig_a, "light", ps)
        and w_bob is not None
        and verify_relation(w_bob, s, ps)
        and w_alice is not None
        and verify_relation(w_alice, s, ps)
    )
    events.append({"type": "verdict", "success": verdict, "reason": None})
    return {"seed": seed, "fault": fault, "events": events, "verdict": verdict}
