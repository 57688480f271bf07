import dataclasses
import json
import random
import time
from pathlib import Path

import pytest

from adaptorsig import isogeny, orientation, serial
from adaptorsig import sig as sig_module
from adaptorsig.adaptor import adapt, presign, presignature_shapes
from adaptorsig.cli import main
from adaptorsig.curve import Curve, canonical_torsion_basis, twist_curve, twist_point
from adaptorsig.errors import InvariantViolation, ParseError
from adaptorsig.field import Fp2
from adaptorsig.orientation import Orientation, sample_orientation
from adaptorsig.relation import gen_r
from adaptorsig.isogeny import EfficientRep, pairing_law
from adaptorsig.sig import PlainSignature, keygen, sign, signature_shapes, verify


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


def test_off_curve_point_names_path():
    ps = serial.parse_params(_vector("params.json"))
    s = serial.parse_statement(_vector("relation.json")["statement"], ps)
    doc = _vector("presignature.json")
    x = doc["s"][0]["x"]
    x["c0"] = format((int(x["c0"], 16) + 1) % ps.p, "x")
    with pytest.raises(InvariantViolation) as err:
        serial.parse_presig(doc, ps, s)
    assert "presignature.s[0]" in str(err.value)


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
    o = sample_orientation(t0.e0, (35,), random.Random(7))
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


@pytest.mark.parametrize(
    "key,bad",
    [("a", "ffffffff"), ("c", "100000"), ("primes", [format(2**19996, "x")])],
    ids=["a-2^32", "c-2^20", "even-prime-5000-digits"],
)
def test_oversized_exponents_and_primes_rejected_promptly(key, bad):
    # 2^a or 3^c would take gigabytes, and printing 4*C in decimal passes
    # the int-to-str digit limit; B cannot exceed p + 1 either
    doc = _vector("params.json")
    doc[key] = bad
    start = time.perf_counter()
    with pytest.raises(InvariantViolation) as err:
        serial.parse_params(doc)
    assert time.perf_counter() - start < 5
    assert err.value.path == "params.p"


def _first_tag1_round(doc):
    return next(r for r in doc["proof"]["rounds"] if r["tag"] == "1")


@pytest.mark.parametrize(
    "name,locate,key,bad",
    [
        ("params.json", lambda d: d, "primes", "57"),
        ("signature.json", lambda d: d["rep"], "images", {}),
        ("signature.json", lambda d: d["rep"], "images", 5),
        ("signature.json", lambda d: d["rep"], "images", []),
        ("presignature.json", lambda d: d, "s", {}),
        ("presignature.json", lambda d: d, "s", 5),
        ("presignature.json", lambda d: d, "s", []),
        ("presignature.json", lambda d: _first_tag1_round(d)["reveal"], "gens", 5),
    ],
    ids=[
        "primes-string",
        "images-dict",
        "images-int",
        "images-empty",
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
    doc["rep"]["order"] = "5_0"
    with pytest.raises(ParseError) as err:
        serial.parse_signature(doc, ps)
    assert "signature.rep.order" in str(err.value)


def test_zero_order_degree_and_prime_rejected():
    ps = serial.parse_params(_vector("params.json"))
    s = serial.parse_statement(_vector("relation.json")["statement"], ps)
    doc = _vector("signature.json")
    doc["rep"]["order"] = "0"
    with pytest.raises(InvariantViolation) as err:
        serial.parse_signature(doc, ps)
    assert err.value.path == "signature.rep.order"
    doc = _vector("presignature.json")
    doc["rep"]["order"] = "0"
    with pytest.raises(InvariantViolation) as err:
        serial.parse_presig(doc, ps, s)
    assert err.value.path == "presignature.rep.order"
    doc = _vector("params.json")
    doc["orientation"]["pairs"][0][0] = "0"
    with pytest.raises(InvariantViolation) as err:
        serial.parse_params(doc)
    assert err.value.path == "params.orientation"


def test_orientation_primes_checked_before_the_generator_scans(monkeypatch):
    # pairs with ell = p+1 pass every order check on E0, and each one costs
    # orientation_valid an _in_subgroup scan of p+1 multiples
    ps = serial.parse_params(_vector("params.json"))
    E = ps.e0
    rng = random.Random(0)
    pair = [format(ps.p + 1, "x"), *(serial.point_doc(E.random_point(rng)) for _ in range(2))]
    doc = {
        "ew": serial.curve_doc(E),
        "orientation": {"curve": serial.curve_doc(E), "pairs": [pair] * 4},
    }
    scans = []
    monkeypatch.setattr(orientation, "_in_subgroup", lambda *args: scans.append(args))
    with pytest.raises(InvariantViolation) as err:
        serial.parse_statement(doc, ps)
    assert err.value.path == "statement.orientation"
    assert err.value.message == "wrong orientation primes"
    assert scans == []


def test_orientation_decoded_once_on_its_expected_curve(monkeypatch):
    scans = []
    in_subgroup = orientation._in_subgroup
    monkeypatch.setattr(
        orientation, "_in_subgroup", lambda *args: scans.append(args) or in_subgroup(*args)
    )
    ps = serial.parse_params(_vector("params.json"))
    assert len(scans) == len(ps.primes)  # one orientation_valid pass
    # an orientation on E0 where the statement's curve is expected, and the
    # other way round, is rejected before any generator scan
    statement = _vector("relation.json")["statement"]
    params = _vector("params.json")
    statement["orientation"], params["orientation"] = params["orientation"], statement["orientation"]
    for parse, doc, path in (
        (lambda d: serial.parse_statement(d, ps), statement, "statement.orientation"),
        (serial.parse_params, params, "params.orientation"),
    ):
        scans.clear()
        with pytest.raises(InvariantViolation) as err:
            parse(doc)
        assert err.value.path == path
        assert err.value.message == "orientation lives on a different curve"
        assert scans == []


def test_pairing_law_exponent_reduced_by_the_order(monkeypatch):
    # e_N(basis) is an N-th root of unity, so a long degree coprime to N
    # costs the pairing law nothing beyond its reduction mod N
    ps = serial.parse_params(_vector("params.json"))
    pk = serial.parse_pk(_vector("key.json"), ps)
    plain = serial.parse_signature(_vector("plain.json"), ps)
    rep = plain.rep
    degree = rep.degree + rep.order * 2**20000
    long = EfficientRep(rep.domain, rep.codomain, degree, rep.order, rep.basis, rep.images)
    exponents = []
    power = Fp2.__pow__
    monkeypatch.setattr(Fp2, "__pow__", lambda z, e: exponents.append(e) or power(z, e))
    assert pairing_law(long)
    assert exponents
    assert [e.bit_length() for e in exponents if e >= rep.order] == []
    reasons = []
    sig = PlainSignature(plain.e1, long)
    assert not verify(pk, b"golden vector", sig, "light", ps, reasons)
    assert reasons == ["rep:shape"]


def test_decoder_fills_in_domain_degree_and_basis():
    ps = serial.parse_params(_vector("params.json"))
    s = serial.parse_statement(_vector("relation.json")["statement"], ps)
    pre = serial.parse_presig(_vector("presignature.json"), ps, s)
    cases = [(pre.rep_tilde, pre.epsi, presignature_shapes(ps))]
    for name in ("plain.json", "signature.json"):
        sig = serial.parse_signature(_vector(name), ps)
        cases.append((sig.rep, sig.e1, signature_shapes(ps)))
    assert [rep.order for rep, _, _ in cases] == [ps.A * ps.C, ps.A, ps.A * ps.C]
    for rep, domain, shapes in cases:
        assert rep.domain == domain
        assert rep.degree == shapes[rep.order]
        assert rep.basis == canonical_torsion_basis(domain, rep.order, ps.group_order)
        assert set(serial.rep_doc(rep)) == {"codomain", "order", "images"}


def test_order_outside_the_shape_table_rejected():
    ps = serial.parse_params(_vector("params.json"))
    s = serial.parse_statement(_vector("relation.json")["statement"], ps)
    # a pre-signature's response is on the AC-basis only
    doc = _vector("presignature.json")
    doc["rep"]["order"] = format(ps.A, "x")
    with pytest.raises(InvariantViolation) as err:
        serial.parse_presig(doc, ps, s)
    assert err.value.path == "presignature.rep.order"
    doc = _vector("signature.json")
    doc["rep"]["order"] = format(ps.C, "x")
    with pytest.raises(InvariantViolation) as err:
        serial.parse_signature(doc, ps)
    assert err.value.path == "signature.rep.order"


def test_adapted_signature_with_swapped_images_rejected():
    # the decoder runs sig.rep_rejection, pairing law included, on every
    # degree; the adapted degree shares the factor C with the order
    ps = serial.parse_params(_vector("params.json"))
    doc = _vector("signature.json")
    doc["rep"]["images"].reverse()
    with pytest.raises(InvariantViolation) as err:
        serial.parse_signature(doc, ps)
    assert (err.value.path, err.value.message) == ("signature.rep.images", "fails rep:pairing")


def test_presignature_s_runs_the_pairing_check():
    # [2]S2 keeps order C and stays on E_psi, but e(S) != e(P, Q)^B
    ps = serial.parse_params(_vector("params.json"))
    s = serial.parse_statement(_vector("relation.json")["statement"], ps)
    doc = _vector("presignature.json")
    epsi = serial.parse_curve(doc["epsi"], ps.p, "epsi")
    doc["s"][1] = serial.point_doc(epsi.mul(2, serial.parse_point(doc["s"][1], epsi, "s")))
    with pytest.raises(InvariantViolation) as err:
        serial.parse_presig(doc, ps, s)
    assert (err.value.path, err.value.message) == ("presignature.s", "fails s-points:pairing")


def test_ordinary_e1_has_no_canonical_basis(tmp_path, capsys):
    ps = serial.parse_params(_vector("params.json"))
    doc = _vector("plain.json")
    doc["e1"] = serial.curve_doc(Curve(Fp2(ps.p, 1), Fp2(ps.p, 1)))  # y^2 = x^3 + x + 1
    with pytest.raises(InvariantViolation) as err:
        serial.parse_signature(doc, ps)
    assert err.value.path == "signature.rep"
    forged = tmp_path / "ordinary.json"
    forged.write_bytes(serial.encode(doc))
    params, key = VECTORS / "params.json", VECTORS / "key.json"
    argv = ["verify", "--params", str(params), "--key", str(key), "--message", "golden vector"]
    assert main([*argv, str(forged)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: signature.rep: no canonical basis")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "data",
    [b'{"e1": ' + b"1" * 5000 + b"}", b"[" * 100_000, b'{"a": ' * 100_000],
    ids=["int-5000-digits", "nested-lists", "nested-objects"],
)
def test_loads_is_total(data, tmp_path, capsys):
    # json.loads raises ValueError past the int-string digit limit and
    # RecursionError on deep nesting; both are bad documents
    with pytest.raises(ParseError):
        serial.loads(data)
    forged = tmp_path / "signature.json"
    forged.write_bytes(data)
    params, key = VECTORS / "params.json", VECTORS / "key.json"
    argv = ["verify", "--params", str(params), "--key", str(key), "--message", "m"]
    assert main([*argv, str(forged)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: not a JSON document")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "mutate,path,message",
    [
        (lambda d, ps: d.update(pk=serial.curve_doc(ps.e0)),
         "key.pk", "pk is not the codomain of sk"),
    ],
    ids=["pk"],
)
def test_keypair_decoder_compares_stated_and_computed_ends(mutate, path, message):
    ps = serial.parse_params(_vector("params.json"))
    doc = _vector("key.json")
    mutate(doc, ps)
    with pytest.raises(InvariantViolation) as err:
        serial.parse_keypair(doc, ps)
    assert (err.value.path, err.value.message) == (path, message)


@pytest.mark.parametrize(
    "sk,path",
    [
        (["0", "2"], "key.sk[0]"),
        (["2", "9"], "key.sk[1]"),
        ([format(2**1999 + 1, "x"), "2"], "key.sk[0]"),
        (["2", "2", "1"], "key.sk"),
        (["2", 2], "key.sk[1]"),
    ],
    ids=["zero", "above-mu", "2000-bit", "length", "non-string"],
)
def test_keypair_decoder_checks_each_kernel_index(sk, path, monkeypatch, tmp_path, capsys):
    # the golden key's sk is ["2", "2"], one index per prime of D_tau = 5 * 7;
    # each must lie in [1, mu(ell)], 6 and 8, and is checked at its path
    # before any isogeny is built; the CLI commands that read a secret key
    # exit 2 on it
    ps = serial.parse_params(_vector("params.json"))
    assert (ps.d_tau, isogeny.mu(5), isogeny.mu(7)) == (35, 6, 8)
    doc = _vector("key.json")
    assert doc["sk"] == ["2", "2"]
    doc["sk"] = sk
    built = []
    monkeypatch.setattr(sig_module, "isogeny_from_kernel", lambda *args: built.append(args))
    start = time.perf_counter()
    with pytest.raises((InvariantViolation, ParseError)) as err:
        serial.parse_keypair(doc, ps)
    assert time.perf_counter() - start < 0.1
    assert built == []
    assert str(err.value).startswith(f"{path}: ")
    key = tmp_path / "key.json"
    key.write_bytes(serial.encode(doc))
    common = ["--params", str(VECTORS / "params.json"), "--key", str(key), "--message", "m"]
    statement = ["--statement", str(VECTORS / "relation.json")]
    for argv in (["presign", *common, *statement], ["sign", *common]):
        assert main([*argv, "--out", str(tmp_path / "out.json")]) == 2
        stderr = capsys.readouterr().err
        assert stderr.startswith(f"error: {path}: ")
        assert "Traceback" not in stderr
    assert built == []


def test_verify_of_a_decoded_signature_pairs_once(monkeypatch, capsys):
    # the decoder's rep_rejection and the verifier's see one representation
    # value, so the pairing law's two Miller pairs run once between them
    pairings = []
    weil = isogeny.weil_pairing
    monkeypatch.setattr(isogeny, "weil_pairing", lambda *a: pairings.append(a[-1]) or weil(*a))
    pairing_law.cache_clear()
    params, key = VECTORS / "params.json", VECTORS / "key.json"
    argv = ["verify", "--params", str(params), "--key", str(key), "--message", "golden vector"]
    assert main([*argv, str(VECTORS / "signature.json")]) == 0
    assert json.loads(capsys.readouterr().out)["ok"] is True
    assert pairings == [384, 384]


def test_pairing_memo_rechecks_a_changed_representation():
    pairing_law.cache_clear()
    ps = serial.parse_params(_vector("params.json"))
    pk = serial.parse_pk(_vector("key.json"), ps)
    sig = serial.parse_signature(_vector("signature.json"), ps)
    m = b"golden vector"
    assert verify(pk, m, sig, "light", ps)
    assert pairing_law.cache_info().hits == 1  # the verifier's, after the decoder's
    rep = sig.rep
    changed = [
        (dataclasses.replace(rep, images=rep.images[::-1]), "rep:pairing"),
        (dataclasses.replace(rep, degree=rep.degree + rep.order), "rep:shape"),
    ]
    misses = pairing_law.cache_info().misses
    for bad, tag in changed:
        assert bad != rep
        reasons = []
        assert not verify(pk, m, type(sig)(sig.e1, bad), "light", ps, reasons)
        assert reasons == [tag]
    # the swapped images are a key of their own, checked afresh; the shape
    # check stops the other one before the pairing law
    assert pairing_law.cache_info().misses == misses + 1
    assert type(pairing_law.cache_info().maxsize) is int
