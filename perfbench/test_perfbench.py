"""The benchmark's own test; run it with

    python3 -m pytest perfbench/test_perfbench.py

It runs each workload briefly, untraced once and traced twice (--seconds 1:
a strict timing run runs its block once; traced runs do their fixed number
of blocks, the same as at any --seconds), and checks that every named
metric is printed with its unit, that no op failed (so every forgery was
rejected by recovery), that the recovery candidate count repeats exactly,
and that BENCHMARK.json names the same metrics as the benchmark prints.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = sorted(workloads.PROFILES)


def bench(workload, trace, cwd=ROOT, check=True):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    if not check:
        return proc
    assert proc.returncode == 0, proc.stderr
    *_, report, result = proc.stdout.strip().splitlines()
    return json.loads(report)["report"], json.loads(result)


def _check_metrics(printed, table):
    assert set(printed) == set(table)
    for name, spec in table.items():
        assert printed[name]["unit"] == spec[0], name
        assert isinstance(printed[name]["value"], (int, float)), name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_timing_run(workload):
    report, result = bench(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    _check_metrics(result["metrics"], metrics.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert report["failed_frac"] == {"value": 0.0, "unit": "ratio"}
    assert report["executions"] == result["attempted"] >= report["samples"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_runs_repeat(workload):
    (rep1, res1), (rep2, res2) = bench(workload, 1), bench(workload, 1)
    for res in (res1, res2):
        assert res["correct"] is True and res["failed"] == 0
        _check_metrics(res["metrics"], metrics.PER_LAYER)
    tested = res1["metrics"]["dlog.candidates_tested"]["value"]
    assert tested > 0
    assert tested == res2["metrics"]["dlog.candidates_tested"]["value"]
    # the untraced and the traced pass run the same, fixed number of ops
    assert 2 * rep1["ops"] == 2 * rep2["ops"] == res1["attempted"]
    if workload == "session":
        assert rep1["blocks"] == run.TRACE_SESSION_BLOCKS
    else:
        # the block holds both pre-signatures and plain signatures
        assert rep1["blocks"] == 1
        for kind in ("adaptor.preverify.strict", "sig.verify.strict"):
            assert res1["metrics"][f"{kind}.self_s"]["value"] > 0, kind
    if workload == "strict-reject":
        # every forgery went through the whole candidate tree and was rejected
        assert rep1["recoveries_exhausted"] == rep1["ops"]
        assert tested == rep1["ops"] * 7068
    else:
        assert rep1["recoveries_exhausted"] == 0


def test_forging_unit():
    class T0:
        A, C = 2**7, 3

    k = workloads.forge_unit(T0, T0.A * T0.C)
    assert k % T0.C == 1 and k % T0.A == 1 + T0.A // 2
    assert k * k % (T0.A * T0.C) == 1


def test_benchmark_json_names_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == WORKLOADS
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == {
        name: (unit, better) for name, (unit, better, *_rest) in metrics.PER_LAYER.items()
    }


def test_fails_without_the_library():
    bare = ROOT / ".bench_build" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    try:
        proc = bench("session", 0, cwd=bare, check=False)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
