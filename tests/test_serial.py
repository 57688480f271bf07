import json
import random
from pathlib import Path

import pytest

from adaptorsig import serial
from adaptorsig.adaptor import adapt, presign
from adaptorsig.curve import twist_curve, twist_point
from adaptorsig.errors import InvariantViolation, ParseError
from adaptorsig.field import Fp2
from adaptorsig.orientation import Orientation, sample_orientation
from adaptorsig.relation import gen_r
from adaptorsig.sig import keygen, sign


def test_params_roundtrip_bytes(t0):
    doc = serial.params_doc(t0)
    data = serial.encode(doc)
    back = serial.parse_params(serial.loads(data))
    assert serial.encode(serial.params_doc(back)) == data


def test_keypair_roundtrip(t0):
    kp = keygen(t0, random.Random(1))
    data = serial.encode(serial.keypair_doc(kp))
    back = serial.parse_keypair(serial.loads(data), t0)
    assert back.pk == kp.pk
    assert serial.encode(serial.keypair_doc(back)) == data


def test_relation_roundtrip(t0):
    w, s = gen_r(t0, random.Random(2))
    wdata = serial.encode(serial.witness_doc(w))
    sdata = serial.encode(serial.statement_doc(s))
    wb = serial.parse_witness(serial.loads(wdata), t0)
    sb = serial.parse_statement(serial.loads(sdata), t0)
    assert wb.alpha == w.alpha
    assert serial.encode(serial.statement_doc(sb)) == sdata


def test_presignature_roundtrip_byte_identical(t0):
    rng = random.Random(3)
    kp = keygen(t0, rng)
    w, s = gen_r(t0, rng)
    pre = presign(kp, b"roundtrip", s, t0, rng)
    data = serial.encode(serial.presig_doc(pre))
    back = serial.parse_presig(serial.loads(data), t0, s)
    assert serial.encode(serial.presig_doc(back)) == data


def test_signature_roundtrip(t0):
    rng = random.Random(4)
    kp = keygen(t0, rng)
    w, s = gen_r(t0, rng)
    pre = presign(kp, b"sig", s, t0, rng)
    full = adapt(pre, w, t0)
    data = serial.encode(serial.signature_doc(full))
    back = serial.parse_signature(serial.loads(data), t0)
    assert serial.encode(serial.signature_doc(back)) == data
    plain = sign(kp, b"plain", t0, rng)
    pdata = serial.encode(serial.signature_doc(plain))
    pback = serial.parse_signature(serial.loads(pdata), t0)
    assert serial.encode(serial.signature_doc(pback)) == pdata


def test_truncated_document_parse_error():
    with pytest.raises(ParseError):
        serial.loads(b'{"alpha": "3"')


def test_missing_key_parse_error(t0):
    with pytest.raises(ParseError):
        serial.parse_witness({"beta": "0"}, t0)


def test_off_curve_point_names_path(t0):
    kp = keygen(t0, random.Random(5))
    doc = json.loads(serial.encode(serial.keypair_doc(kp)).decode())
    doc["sk"]["steps"][0]["kernel"]["x"]["c0"] = format(
        (int(doc["sk"]["steps"][0]["kernel"]["x"]["c0"], 16) + 1) % t0.p, "x"
    )
    with pytest.raises(InvariantViolation) as err:
        serial.parse_keypair(doc, t0)
    assert "kernel" in str(err.value)


def test_unreduced_residue_rejected(t0):
    with pytest.raises(InvariantViolation):
        serial.parse_fp2({"c0": format(t0.p, "x"), "c1": "0"}, t0.p, "x")


def test_witness_alpha_range_checked(t0):
    with pytest.raises(InvariantViolation):
        serial.parse_witness({"alpha": format(t0.C, "x")}, t0)


def test_tampered_rep_pairing_rejected(t0):
    rng = random.Random(6)
    kp = keygen(t0, rng)
    plain = sign(kp, b"msg", t0, rng)
    doc = json.loads(serial.encode(serial.signature_doc(plain)).decode())
    # swapping the images breaks the pairing law that decode re-checks
    doc["rep"]["images"] = [doc["rep"]["images"][1], doc["rep"]["images"][0]]
    with pytest.raises(InvariantViolation):
        serial.parse_signature(doc, t0)


def test_parse_params_runs_the_shape_checks(t0):
    # B = 35 keeps p = ABCf - 1, but 35 is not a prime
    doc = serial.params_doc(t0)
    doc["primes"] = [format(35, "x")]
    o = sample_orientation(t0.e0, (35,), t0.p + 1, random.Random(7))
    doc["orientation"] = serial.orientation_doc(o)
    with pytest.raises(InvariantViolation) as err:
        serial.parse_params(doc)
    assert err.value.path == "params"


def test_parse_params_rejects_a_twisted_base_curve(t0):
    # u = 2 maps y^2 = x^3 + x to the isomorphic y^2 = x^3 + 16x
    u = Fp2(t0.p, 2)
    o = t0.orientation
    twisted = Orientation(
        twist_curve(o.curve, u),
        [(ell, twist_point(G1, u), twist_point(G2, u)) for ell, G1, G2 in o.pairs],
    )
    doc = serial.params_doc(t0)
    doc["e0"] = serial.curve_doc(twist_curve(t0.e0, u))
    doc["orientation"] = serial.orientation_doc(twisted)
    doc["pq"] = [serial.point_doc(twist_point(X, u)) for X in t0.pq]
    with pytest.raises(InvariantViolation) as err:
        serial.parse_params(doc)
    assert err.value.path == "params.e0"


VECTORS = Path(__file__).parent / "vectors" / "t0"


def _vector(name):
    return json.loads((VECTORS / name).read_text())


def test_parse_params_rejects_zero_nizk_rounds():
    # a proof with no rounds would accept any commitment curve
    doc = _vector("params.json")
    doc["nizk_rounds"] = "0"
    with pytest.raises(InvariantViolation) as err:
        serial.parse_params(doc)
    assert err.value.path == "params"


def _first_tag1_round(doc):
    return next(r for r in doc["proof"]["rounds"] if r["tag"] == "1")


@pytest.mark.parametrize(
    "name,locate,key,bad",
    [
        ("params.json", lambda d: d, "primes", "57"),
        ("signature.json", lambda d: d["rep"], "basis", {}),
        ("signature.json", lambda d: d["rep"], "basis", 5),
        ("signature.json", lambda d: d["rep"], "basis", []),
        ("presignature.json", lambda d: d, "s", {}),
        ("presignature.json", lambda d: d, "s", 5),
        ("presignature.json", lambda d: d, "s", []),
        ("presignature.json", lambda d: _first_tag1_round(d)["reveal"], "gens", 5),
    ],
    ids=[
        "primes-string",
        "basis-dict",
        "basis-int",
        "basis-empty",
        "s-dict",
        "s-int",
        "s-empty",
        "gens-int",
    ],
)
def test_list_fields_decode_totally(name, locate, key, bad):
    ps = serial.parse_params(_vector("params.json"))
    s = serial.parse_statement(_vector("relation.json")["statement"], ps)
    parse = {
        "params.json": serial.parse_params,
        "signature.json": lambda d: serial.parse_signature(d, ps),
        "presignature.json": lambda d: serial.parse_presig(d, ps, s),
    }[name]
    doc = _vector(name)
    locate(doc)[key] = bad
    with pytest.raises(ParseError) as err:
        parse(doc)
    assert f".{key}: expected list" in str(err.value)


@pytest.mark.parametrize("text", ["-1", "+1", " 1", "1\n", "0x1", "01", "00", "1_0", "A", ""])
def test_hex_must_be_canonical(text):
    with pytest.raises(ParseError):
        serial._unhex(text, "x")


def test_noncanonical_hex_in_documents_rejected():
    ps = serial.parse_params(_vector("params.json"))
    # int("-1", 16) would decode alpha = -1, and "5_0" would decode as 0x50
    with pytest.raises(ParseError) as err:
        serial.parse_witness({"alpha": "-1"}, ps)
    assert "witness.alpha" in str(err.value)
    doc = _vector("signature.json")
    doc["rep"]["degree"] = "5_0"
    with pytest.raises(ParseError) as err:
        serial.parse_signature(doc, ps)
    assert "signature.rep.degree" in str(err.value)


def test_zero_order_degree_and_prime_rejected():
    ps = serial.parse_params(_vector("params.json"))
    s = serial.parse_statement(_vector("relation.json")["statement"], ps)
    doc = _vector("signature.json")
    doc["rep"]["order"] = "0"
    with pytest.raises(InvariantViolation) as err:
        serial.parse_signature(doc, ps)
    assert err.value.path == "signature.rep.order"
    doc = _vector("presignature.json")
    doc["rep"]["degree"] = "0"
    with pytest.raises(InvariantViolation) as err:
        serial.parse_presig(doc, ps, s)
    assert err.value.path == "presignature.rep.degree"
    doc = _vector("params.json")
    doc["orientation"]["pairs"][0][0] = "0"
    with pytest.raises(InvariantViolation) as err:
        serial.parse_params(doc)
    assert err.value.path == "params.orientation"
