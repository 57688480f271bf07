"""Mutation fuzzing of the golden documents: every decoder is total.

Each example replaces or deletes one path of one T0 golden document.  The
matching parser must either raise a ProtocolError or decode a value that
re-encodes to exactly the mutated bytes.
"""

import copy
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adaptorsig import serial
from adaptorsig.errors import ProtocolError

VECTORS = Path(__file__).parent / "vectors" / "t0"
VALUES = [5, "zz", [], {}, None, "inf", "0", "-1", True]
DELETE = object()


def _load(name):
    return serial.loads((VECTORS / name).read_bytes())


PS = serial.parse_params(_load("params.json"))
RELATION = _load("relation.json")
STATEMENT = serial.parse_statement(RELATION["statement"], PS)

# name -> (golden document, decode then encode again)
DOCUMENTS = {
    "params": (_load("params.json"), lambda d: serial.params_doc(serial.parse_params(d))),
    "key": (_load("key.json"), lambda d: serial.keypair_doc(serial.parse_keypair(d, PS))),
    "witness": (RELATION["witness"], lambda d: serial.witness_doc(serial.parse_witness(d, PS))),
    "statement": (
        RELATION["statement"],
        lambda d: serial.statement_doc(serial.parse_statement(d, PS)),
    ),
    "presignature": (
        _load("presignature.json"),
        lambda d: serial.presig_doc(serial.parse_presig(d, PS, STATEMENT)),
    ),
    "signature": (
        _load("signature.json"),
        lambda d: serial.signature_doc(serial.parse_signature(d, PS)),
    ),
    "plain": (_load("plain.json"), lambda d: serial.signature_doc(serial.parse_signature(d, PS))),
}


def _paths(doc, prefix=()):
    """Every key/index path below the root, parents before children."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for key, sub in items:
        yield prefix + (key,)
        yield from _paths(sub, prefix + (key,))


def _mutate(doc, path, value):
    out = copy.deepcopy(doc)
    parent = out
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return out


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(data=st.data())
def test_mutated_document_is_rejected_or_canonical(name, data):
    golden, roundtrip = DOCUMENTS[name]
    path = data.draw(st.sampled_from(list(_paths(golden))), label="path")
    value = data.draw(st.sampled_from(VALUES + [DELETE]), label="value")
    doc = _mutate(golden, path, value)
    try:
        again = roundtrip(doc)
    except ProtocolError:
        return
    assert serial.encode(again) == serial.encode(doc)
