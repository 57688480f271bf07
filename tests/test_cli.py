import gc
import json
import time

import pytest

from adaptorsig import serial
from adaptorsig.adaptor import AdaptedSignature, PreSignature
from adaptorsig.cli import main
from adaptorsig.swap import demo_swap


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Shared artifact directory driven through the CLI itself."""
    ws = tmp_path_factory.mktemp("cli")
    paths = {
        "params": ws / "params.json",
        "key": ws / "key.json",
        "rel": ws / "rel.json",
        "presig": ws / "presig.json",
        "sig": ws / "sig.json",
        "wit": ws / "wit.json",
    }
    assert main(["params", "--profile", "T0", "--seed", "0", "--out", str(paths["params"])]) == 0
    assert main(["keygen", "--params", str(paths["params"]), "--seed", "1", "--out", str(paths["key"])]) == 0
    assert main(["genr", "--params", str(paths["params"]), "--seed", "2", "--out", str(paths["rel"])]) == 0
    assert (
        main(
            [
                "presign",
                "--params", str(paths["params"]),
                "--key", str(paths["key"]),
                "--statement", str(paths["rel"]),
                "--message", "swap leg",
                "--seed", "3",
                "--out", str(paths["presig"]),
            ]
        )
        == 0
    )
    assert (
        main(
            [
                "adapt",
                "--params", str(paths["params"]),
                "--presignature", str(paths["presig"]),
                "--statement", str(paths["rel"]),
                "--witness", str(paths["rel"]),
                "--out", str(paths["sig"]),
            ]
        )
        == 0
    )
    return paths


def test_preverify_exit_codes(workspace, capsys):
    code = main(
        [
            "preverify",
            "--params", str(workspace["params"]),
            "--key", str(workspace["key"]),
            "--statement", str(workspace["rel"]),
            "--message", "swap leg",
            str(workspace["presig"]),
        ]
    )
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["ok"] is True and out["failed_checks"] == []

    code = main(
        [
            "preverify",
            "--params", str(workspace["params"]),
            "--key", str(workspace["key"]),
            "--statement", str(workspace["rel"]),
            "--message", "wrong message",
            str(workspace["presig"]),
        ]
    )
    assert code == 1
    out = json.loads(capsys.readouterr().out)
    assert out["ok"] is False and out["failed_checks"]


def test_verify_and_size_report(workspace, capsys, forge, tmp_path):
    def run_verify(sig_path, *flags):
        code = main(
            [
                "verify",
                "--params", str(workspace["params"]),
                "--key", str(workspace["key"]),
                "--message", "swap leg",
                *flags,
                str(sig_path),
            ]
        )
        return code, json.loads(capsys.readouterr().out)

    code, out = run_verify(workspace["sig"])
    assert code == 0
    assert out["ok"] is True and out["failed_checks"] == []
    report = out["size_report"]
    assert report["serialized_bytes"] > 0
    assert "formula" in report
    assert report["reported_full_scale_bytes"] == 1536
    assert "not reproduced" in report["note"]

    # the workspace signature is an adapted one: strict mode certifies it
    code, out = run_verify(workspace["sig"], "--strict")
    assert code == 0
    assert out["ok"] is True and out["failed_checks"] == []

    ps = serial.parse_params(serial.loads(workspace["params"].read_bytes()))
    sig = serial.parse_signature(serial.loads(workspace["sig"].read_bytes()), ps)
    fake = tmp_path / "forged-sig.json"
    forged = AdaptedSignature(sig.e1, forge(sig.rep, ps))
    fake.write_bytes(serial.encode(serial.signature_doc(forged)))
    code, out = run_verify(fake, "--light")
    assert code == 0
    assert out["mode"] == "light" and "not a certificate" in out["light_note"]
    code, out = run_verify(fake)
    assert code == 1
    assert out["ok"] is False and out["failed_checks"] == ["rep:recovery"]
    assert out["mode"] == "strict" and "light_note" not in out
    code, out = run_verify(fake, "--strict")
    assert code == 1
    assert out["ok"] is False and out["failed_checks"] == ["rep:recovery"]


def test_forged_presignature_fails_preverify_by_default(workspace, capsys, forge, tmp_path):
    """preverify runs strict unless --light is given: a forged pre-signature
    that passes every light check exits 1 by default and with --strict,
    and 0 only with --light, whose output says it is not a certificate."""
    ps = serial.parse_params(serial.loads(workspace["params"].read_bytes()))
    s = serial.parse_statement(serial.loads(workspace["rel"].read_bytes())["statement"], ps)
    pre = serial.parse_presig(serial.loads(workspace["presig"].read_bytes()), ps, s)
    fake = tmp_path / "forged-presig.json"
    forged = PreSignature(pre.e1, pre.proof, pre.epsi, pre.s, forge(pre.rep_tilde, ps))
    fake.write_bytes(serial.encode(serial.presig_doc(forged)))

    def run_preverify(*flags):
        code = main(
            [
                "preverify",
                "--params", str(workspace["params"]),
                "--key", str(workspace["key"]),
                "--statement", str(workspace["rel"]),
                "--message", "swap leg",
                *flags,
                str(fake),
            ]
        )
        return code, json.loads(capsys.readouterr().out)

    for flags in ((), ("--strict",)):
        code, out = run_preverify(*flags)
        assert code == 1 and out["mode"] == "strict"
        assert out["ok"] is False and out["failed_checks"] == ["rep:recovery"]
    code, out = run_preverify("--light")
    assert code == 0 and out["ok"] is True and out["mode"] == "light"
    assert "not a certificate" in out["light_note"]


def test_extract_roundtrip_and_bottom(workspace, capsys, tmp_path):
    code = main(
        [
            "extract",
            "--params", str(workspace["params"]),
            "--signature", str(workspace["sig"]),
            "--presignature", str(workspace["presig"]),
            "--statement", str(workspace["rel"]),
            "--out", str(workspace["wit"]),
        ]
    )
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["ok"] is True
    rel = json.loads(workspace["rel"].read_text())
    assert out["witness"]["alpha"] == rel["witness"]["alpha"]

    # a second, unrelated presignature: extraction must return bottom
    other = tmp_path / "other-presig.json"
    assert (
        main(
            [
                "presign",
                "--params", str(workspace["params"]),
                "--key", str(workspace["key"]),
                "--statement", str(workspace["rel"]),
                "--message", "different leg",
                "--seed", "9",
                "--out", str(other),
            ]
        )
        == 0
    )
    code = main(
        [
            "extract",
            "--params", str(workspace["params"]),
            "--signature", str(workspace["sig"]),
            "--presignature", str(other),
            "--statement", str(workspace["rel"]),
        ]
    )
    assert code == 1
    out = json.loads(capsys.readouterr().out)
    assert out["ok"] is False and out["reasons"]


def test_parse_error_exit_2(workspace, tmp_path):
    broken = tmp_path / "broken.json"
    broken.write_text('{"not": "a paramset"')
    code = main(["keygen", "--params", str(broken), "--seed", "0", "--out", "-"])
    assert code == 2


def test_demo_swap_cli_and_fault(workspace, tmp_path, capsys):
    out1 = tmp_path / "t1.json"
    code = main(
        ["demo-swap", "--params", str(workspace["params"]), "--seed", "5", "--out", str(out1)]
    )
    assert code == 0
    assert json.loads(capsys.readouterr().out)["verdict"] is True

    fault = tmp_path / "fault.json"
    code = main(
        [
            "demo-swap",
            "--params", str(workspace["params"]),
            "--seed", "5",
            "--fault",
            "--out", str(fault),
        ]
    )
    assert code == 1
    t = json.loads(fault.read_text())
    assert t["verdict"] is False
    extracts = [e for e in t["events"] if e["type"] == "extract"]
    assert extracts and extracts[0]["witness"] is None


def test_demo_swap_transcript_structure(t0):
    t = demo_swap(t0, 21)
    assert t["verdict"] is True
    kinds = [e["type"] for e in t["events"]]
    assert kinds.count("presignature") == 2
    assert kinds.count("adapt") == 2
    assert kinds.count("extract") == 2
    assert kinds[-1] == "verdict"
    wits = [e["witness"]["alpha"] for e in t["events"] if e["type"] == "extract"]
    assert len(set(wits)) == 1


def test_demo_swap_raises_on_a_programming_error():
    # only a ProtocolError becomes an "abort" event; a bug propagates
    with pytest.raises(AttributeError):
        demo_swap(None, 1)


def test_string_statement_and_witness_exit_2(workspace, tmp_path):
    # a JSON string is not a document: "statement" in it is a substring test
    stray = tmp_path / "stray.json"
    stray.write_text('"a statement here, a witness there"')
    code = main(
        [
            "presign",
            "--params", str(workspace["params"]),
            "--key", str(workspace["key"]),
            "--statement", str(stray),
            "--message", "swap leg",
            "--out", str(tmp_path / "pre.json"),
        ]
    )
    assert code == 2
    code = main(
        [
            "adapt",
            "--params", str(workspace["params"]),
            "--presignature", str(workspace["presig"]),
            "--statement", str(workspace["rel"]),
            "--witness", str(stray),
            "--out", str(tmp_path / "sig.json"),
        ]
    )
    assert code == 2


@pytest.mark.parametrize(
    "spec",
    [
        "nope",
        '{"a": 7}',
        "[7]",
        '{"a":"7","primes":[5,7],"c":1,"d_tau":35,"d_phi":3}',
        '{"a":7,"primes":"57","c":1,"d_tau":35,"d_phi":3}',
        '{"a":7,"primes":[5,7],"c":true,"d_tau":35,"d_phi":3}',
        pytest.param("[" * 100_000, id="nested-100000"),
    ],
)
def test_bad_custom_spec_exit_2(spec, capsys):
    code = main(["params", "--profile", "custom", "--custom-spec", spec, "--out", "-"])
    assert code == 2
    assert "custom-spec" in capsys.readouterr().err


@pytest.mark.parametrize("field,message", [("d_tau", "D_tau"), ("nizk_rounds", "nizk_rounds")])
def test_custom_spec_constraint_exit_2(field, message, capsys):
    spec = {"a": 7, "primes": [5, 7], "c": 1, "d_tau": 35, "d_phi": 3, field: 0}
    code = main(["params", "--profile", "custom", "--custom-spec", json.dumps(spec)])
    assert code == 2
    assert message in capsys.readouterr().err


def test_custom_spec_with_a_huge_c_exit_2(capsys):
    # 4*3^20000 has more decimal digits than int-to-str allows
    spec = {"a": 7, "primes": [5, 7], "c": 20000, "d_tau": 35, "d_phi": 3}
    code = main(["params", "--profile", "custom", "--custom-spec", json.dumps(spec)])
    assert code == 2
    assert "extraction bound" in capsys.readouterr().err


def test_custom_spec_with_a_large_b_prime_exit_2(capsys):
    # orientation sampling and checks list the ell points of a subgroup, so
    # their work grows with ell; the shape rules reject ell = 65537 first
    spec = {"a": 13, "primes": [5, 65537], "c": 1, "d_tau": 5, "d_phi": 3, "nizk_rounds": 1}
    start = time.perf_counter()
    code = main(["params", "--profile", "custom", "--custom-spec", json.dumps(spec)])
    assert time.perf_counter() - start < 1
    assert code == 2
    assert "primes below 256" in capsys.readouterr().err


def test_custom_spec_beyond_the_primality_bound_exit_2(capsys):
    # every candidate p is above 2^4096; none is tested for primality
    spec = {"a": 4096, "primes": [5, 7], "c": 1, "d_tau": 35, "d_phi": 3}
    start = time.perf_counter()
    code = main(["params", "--profile", "custom", "--custom-spec", json.dumps(spec)])
    assert time.perf_counter() - start < 1
    assert code == 2
    assert "Miller-Rabin bound" in capsys.readouterr().err


@pytest.mark.parametrize("a,c", [(4 * 10**7, 1), (7, 10**7)], ids=["a=4e7", "c=1e7"])
def test_custom_spec_with_a_large_exponent_exit_2(a, c, capsys):
    # refused before 2^a or 3^c is built: 2^(4e7) and its square need about 55 MB
    spec = {"a": a, "primes": [5, 7], "c": c, "d_tau": 35, "d_phi": 3}
    # the call takes about 2 ms; a full collection of the suite's live
    # objects landing in it would take 40-75 ms, so it runs before the clock
    gc.collect()
    start = time.perf_counter()
    code = main(["params", "--profile", "custom", "--custom-spec", json.dumps(spec)])
    assert time.perf_counter() - start < 0.05
    assert code == 2
    assert "bound" in capsys.readouterr().err
