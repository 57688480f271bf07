"""Seeded protocol benchmark for adaptorsig.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Single process, single thread, one closed-loop client: the next op starts
only after the previous one returned.  Workloads (see workloads.py):
session, strict-accept, strict-reject.

With --trace 0 the run sets up the workload SETUP_REPS times (fresh import,
parameters, inputs) and reports the median set-up time, then runs ops and
reports latency, throughput and peak memory.  The session workload runs
whole blocks of swaps for about S seconds.  A strict workload runs its
fixed block S // STRICT_BLOCK_S times and takes each op's fastest
execution.  Times are wall-clock seconds rescaled to one host speed (see
clock.py); the report line also gives them unscaled.

With --trace 1 it runs a fixed number of blocks untraced (a strict
workload's block once, TRACE_SESSION_BLOCKS session blocks), runs the same
blocks again with spans around every layer boundary, then times the layer
micro-kernels; it reports the per-layer metrics and the tracing overhead.
Every op imports the library afresh, so both runs start from empty caches.
The block count depends neither on S nor on the speed of the host, so call
and candidate counts repeat exactly.

Standard output ends with two JSON lines: a report (every metric with its
unit, the tail percentile and sample count, failed_frac, the unscaled
times, git revision and Python version) and the result object.  Exit code
2 means the library could not be imported.
"""

import argparse
import gc
import json
import platform
import resource
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

from clock import Clock
import kernels
import library
import metrics
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 7
# swap blocks (two swaps each) in each pass of a traced session run
TRACE_SESSION_BLOCKS = 4
# nominal seconds of one strict block: a strict run makes as many blocks as
# fit in --seconds, a count that does not depend on the speed of the host
STRICT_BLOCK_S = 12


def strict_blocks(seconds):
    return max(1, int(seconds // STRICT_BLOCK_S))


def setup(name, seed, clock):
    """One set-up, a fresh import plus the workload's parameters and inputs:
    (workload, wall seconds, reference seconds, generate_params seconds)."""
    gen = []

    def run():
        lib = library.load()
        t = perf_counter()
        params = {prof: workloads.canonical_params(lib, prof) for prof in workloads.PROFILES[name]}
        gen.append(perf_counter() - t)
        return workloads.Workload(lib, name, seed, params)

    gc.collect()
    work, wall, ref = clock.time(run)
    return work, wall, ref, gen[0]


class Pass:
    """Latencies of one closed-loop run of whole blocks, in wall seconds and
    in reference seconds (see clock.py)."""

    def __init__(self):
        self.lat, self.ref, self.ops = [], [], []  # ops[i] took lat[i], ref[i]
        self.failed = self.blocks = 0

    def best(self, times):
        """Per distinct op, its fastest execution in `times`."""
        best = {}
        for op, x in zip(self.ops, times):
            best[op] = min(best.get(op, x), x)
        return list(best.values())


def _checked(call, label):
    """`call` made total: a raising op is a failed op."""

    def run():
        try:
            return call()
        except Exception as exc:
            print(f"op {label} raised {exc!r}", file=sys.stderr)
            return False

    return run


def run_blocks(work, clock, seconds=None, count=None, tracer=None):
    """Run whole blocks until about `seconds` have passed, stopping at the
    block boundary closest to it, or run `count` blocks."""
    ps = Pass()
    start = perf_counter()
    while True:
        block = work.block(ps.blocks)
        for k, op in enumerate(block):
            lib, call = op()
            library.activate(lib)
            label = f"{ps.blocks}.{k}"
            if tracer:
                tracer.install(lib)
                call = tracer.op_span(label, call)
            ok, wall, ref = clock.time(_checked(call, label))
            ps.lat.append(wall)
            ps.ref.append(ref)
            ps.ops.append(op)  # held, so that no two ops share an id
            ps.failed += not ok
        ps.blocks += 1
        if count is not None:
            if ps.blocks >= count:
                return ps
        else:
            elapsed = perf_counter() - start
            if elapsed + elapsed / ps.blocks / 2 >= seconds:
                return ps


def tail(lat):
    """(latency, percentile, samples beyond) at the highest percentile that
    leaves at least ten samples beyond it, or a quarter of the samples when
    there are fewer than 40: the strict workloads have 4 and 2 ops, whose
    maximum would rest on the noise of a single op."""
    xs = sorted(lat)
    n = len(xs)
    beyond = min(10, n // 4)
    i = n - 1 - beyond
    return xs[i], 100.0 * (i + 1) / n, beyond


def git_rev():
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _with_units(values, table):
    return {k: {"value": v, "unit": table[k][0]} for k, v in values.items()}


def _times(lat, setup_s):
    return {
        "op_p50_s": median(lat),
        "op_tail_s": tail(lat)[0],
        "ops_per_s": len(lat) / sum(lat),
        "setup_s": setup_s,
    }


def timing_run(args, work, clock, setup_s):
    if work.name == "session":
        ps = run_blocks(work, clock, seconds=args.seconds)
    else:
        ps = run_blocks(work, clock, count=strict_blocks(args.seconds))
    lat = ps.best(ps.ref)
    values = _times(lat, setup_s["ref"])
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    _, pct, beyond = tail(lat)
    extra = {
        **_with_units({"failed_frac": ps.failed / len(ps.lat)}, metrics.REPORT_ONLY),
        "op_tail_percentile": pct,
        "op_tail_beyond": beyond,
        "samples": len(lat),
        "executions": len(ps.lat),
        "blocks": ps.blocks,
        "wall": _times(ps.best(ps.lat), setup_s["wall"]),
    }
    return _with_units(values, metrics.END_TO_END), extra, len(ps.lat), ps.failed


def trace_run(args, work, clock, setup_s):
    count = TRACE_SESSION_BLOCKS if work.name == "session" else 1
    untraced = run_blocks(work, clock, count=count)
    tracer = tracing.Tracer()
    try:
        traced = run_blocks(work, clock, count=count, tracer=tracer)
    finally:
        tracer.uninstall()
    lib = work.operands["lib"]
    library.activate(lib)

    values = {}
    for name in metrics.PER_LAYER:
        base, _, field = name.rpartition(".")
        if field == "calls":
            values[name] = tracer.calls.get(base, 0)
        elif field == "self_s":
            values[name] = tracer.self_s.get(base, 0.0)
    log = tracer.log
    recover_s = tracer.total_s.get("dlog.recover_isogeny", 0.0)
    values["dlog.candidates_tested"] = log.tested
    values["dlog.candidates_per_s"] = log.tested / recover_s if recover_s else 0.0
    values["curve.basis_cache_entries"] = len(getattr(lib.curve, "_BASIS_CACHE", ()))
    values["isogeny.pin_cache_entries"] = len(getattr(lib.isogeny, "_PIN_CACHE", ()))
    values["params.generate_params_s"] = setup_s["generate_params"]
    p50_u, p50_t = median(untraced.best(untraced.ref)), median(traced.best(traced.ref))
    values["trace.overhead_frac"] = p50_t / p50_u - 1

    params = {"T0": work.operands["params"]}
    for prof in ("T1", "T2"):
        params[prof] = workloads.canonical_params(lib, prof)
    values.update(kernels.run(lib, params, work.operands["rep"], args.seed))

    missing = set(metrics.PER_LAYER) - set(values)
    if missing:
        raise KeyError(f"per-layer metrics not measured: {sorted(missing)}")
    extra = {
        "ops": len(traced.lat),
        "blocks": traced.blocks,
        "recoveries": log.recoveries,
        "recoveries_exhausted": log.exhausted,
        "untraced_op_p50_s": p50_u,
        "traced_op_p50_s": p50_t,
        "op_spans": [[label, round(end - start, 6)] for _, label, start, end in tracer.op_spans],
        "failed_untraced": untraced.failed,
    }
    attempted = len(untraced.lat) + len(traced.lat)
    return _with_units(values, metrics.PER_LAYER), extra, attempted, untraced.failed + traced.failed


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.PROFILES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    # compiled modules go to the benchmark's own build directory
    sys.pycache_prefix = str(ROOT / ".bench_build" / "pycache")
    sys.path.insert(0, str(ROOT / "src"))
    clock = Clock()
    try:
        setups = [setup(args.workload, args.seed, clock) for _ in range(SETUP_REPS)]
    except ImportError as exc:
        print(f"cannot import adaptorsig: {exc}", file=sys.stderr)
        return 2
    work = setups[-1][0]
    source = Path(work.lib.curve.__file__).resolve()
    if not source.is_relative_to(ROOT / "src"):
        print(f"adaptorsig imported from {source}, not from this checkout", file=sys.stderr)
        return 2
    keys = ("wall", "ref", "generate_params")
    setup_s = {key: median(s[i] for s in setups) for i, key in enumerate(keys, 1)}
    del setups

    run = trace_run if args.trace else timing_run
    out, extra, attempted, failed = run(args, work, clock, setup_s)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_rev": git_rev(),
        "python": platform.python_version(),
        "metrics": out,
        **extra,
    }
    print(json.dumps({"report": report}, sort_keys=True))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": out}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
