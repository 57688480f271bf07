import json

import pytest

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


def test_verify_and_size_report(workspace, capsys):
    code = main(
        [
            "verify",
            "--params", str(workspace["params"]),
            "--key", str(workspace["key"]),
            "--message", "swap leg",
            str(workspace["sig"]),
        ]
    )
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["ok"] is True
    report = out["size_report"]
    assert report["serialized_bytes"] > 0
    assert "formula" in report
    assert report["reported_full_scale_bytes"] == 1536
    assert "not reproduced" in report["note"]


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
