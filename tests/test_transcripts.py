"""Demo-swap transcripts pinned by digest, beyond the one golden transcript.

`tests/vectors/t0/transcript.json` covers T0 seed 5 only.  These digests
pin the encoded transcript of T1 seeds 1-3 and of a faulty T0 swap, so a
change to any chain, proof or encoding on those paths shows up byte for
byte.  A deliberate wire-format change updates them together with the
golden vectors.
"""

import hashlib

import pytest

from adaptorsig import serial, swap
from adaptorsig.swap import demo_swap

DIGESTS = [
    ("t1", 1, False, "51c3c2f505356adf3eb0f36b2f8ff336022941d4c3659b9cef985d2616565b95"),
    ("t1", 2, False, "f7b488705e4a2379f73858eba02f664026c7d56e9586b2953e604c1458587c42"),
    ("t1", 3, False, "7cabd0885c4295dae56ec3843535c001225323400f2a3655ce88826494ad44c7"),
    ("t0", 1, True, "49af43b33f3fd3a5a8583ac8f3e0a32780373837301145b02b7884d55742a3ee"),
]


@pytest.mark.parametrize("profile, seed, fault, digest", DIGESTS)
def test_demo_swap_transcript_digest(request, profile, seed, fault, digest):
    ps = request.getfixturevalue(profile)
    doc = demo_swap(ps, seed, fault=fault)
    assert hashlib.sha256(serial.encode(doc)).hexdigest() == digest


def test_demo_swap_ends_a_failed_extract_of_either_leg_alike(t0, monkeypatch):
    # Alice's extract, the second, fails as Bob's would: the swap ends there
    calls = []
    extract = swap.extract

    def second_fails(*args):
        calls.append(1)
        return None if len(calls) == 2 else extract(*args)

    monkeypatch.setattr(swap, "extract", second_fails)
    t = demo_swap(t0, 21)
    assert t["verdict"] is False
    last, verdict = t["events"][-2:]
    assert (last["type"], last["party"], last["witness"]) == ("extract", "alice", None)
    assert verdict == {"type": "verdict", "success": False, "reason": "extract"}
