"""Metric tables: names, units, direction, and the prediction of which
end-to-end metric on which workload each per-layer metric should move.

BENCHMARK.json repeats the names, units and directions (its test checks
that the two agree); the predictions live only here.
"""

STRICT = ("strict-accept", "strict-reject")
ALL = ("session",) + STRICT
SPEED = ("op_p50_s", "ops_per_s")

# name: (unit, better)
END_TO_END = {
    "op_p50_s": ("s", "lower"),
    "op_tail_s": ("s", "lower"),
    "ops_per_s": ("op/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "setup_s": ("s", "lower"),
}

# reported next to the end-to-end metrics; it is 0 on a correct run, so a
# bound relative to the parent's median cannot apply to it
REPORT_ONLY = {"failed_frac": ("ratio", "lower")}


def _spans(prefix, names, moves, workloads, calls=True):
    out = {}
    for n in names:
        if calls:
            out[f"{prefix}.{n}.calls"] = ("count", "lower", moves, workloads)
        out[f"{prefix}.{n}.self_s"] = ("s", "lower", moves, workloads)
    return out


# name: (unit, better, end-to-end metrics it should move, on these workloads)
PER_LAYER = {
    "dlog.candidates_tested": ("count", "lower", SPEED, STRICT),
    "dlog.candidates_per_s": ("1/s", "higher", SPEED, STRICT),
    **_spans("dlog", ["recover_isogeny"], SPEED, STRICT),
    **_spans("dlog", ["decompose_2d"], SPEED, ("session",)),
    **_spans("isogeny", ["Step.init", "Step.evaluate", "dual_step"], SPEED, ALL),
    **_spans("isogeny", ["isogeny_from_kernel"], SPEED + ("setup_s",), ALL),
    **_spans("curve", ["small_torsion_basis", "isomorphisms"], SPEED, STRICT),
    **_spans("curve", ["canonical_torsion_basis", "weil_pairing"], SPEED + ("setup_s",), ALL),
    "curve.basis_cache_entries": ("count", "lower", ("peak_rss_mb",), STRICT),
    "isogeny.pin_cache_entries": ("count", "lower", ("peak_rss_mb",), STRICT),
    **{
        f"field.{prof}.{op}_per_s": ("1/s", "higher", SPEED + ("setup_s",), ALL)
        for prof in ("T0", "T1", "T2")
        for op in ("mul", "inv", "sqrt")
    },
    "curve.mul_per_s": ("1/s", "higher", SPEED, ALL),
    "curve.weil_pairing_A_per_s": ("1/s", "higher", SPEED, ("session",)),
    "curve.weil_pairing_AC_per_s": ("1/s", "higher", SPEED + ("setup_s",), ALL),
    "curve.canonical_torsion_basis_fresh_s": ("s", "lower", SPEED + ("setup_s",), ALL),
    **{
        f"isogeny.step_l{ell}.{kind}_per_s": ("1/s", "higher", SPEED, ALL)
        for ell in (2, 3, 5, 7)
        for kind in ("build", "evaluate")
    },
    "dlog.decompose_2d_per_s": ("1/s", "higher", SPEED, ("session",)),
    **_spans("nizk", ["prove_parallel"], SPEED + ("setup_s",), ALL),
    **_spans("nizk", ["verify_parallel"], SPEED, ALL),
    **_spans("adaptor", ["presign"], SPEED + ("setup_s",), ALL, calls=False),
    **_spans("adaptor", ["preverify.light", "adapt", "extract"], SPEED, ("session",), calls=False),
    **_spans("adaptor", ["preverify.strict"], SPEED, STRICT, calls=False),
    **_spans("sig", ["keygen", "sign"], SPEED + ("setup_s",), ALL, calls=False),
    **_spans("sig", ["verify.light"], SPEED, ("session",), calls=False),
    **_spans("sig", ["verify.strict"], SPEED, STRICT, calls=False),
    **_spans("sig", ["challenge_walk"], SPEED, ALL, calls=False),
    **_spans("relation", ["verify_relation"], SPEED, ("session",), calls=False),
    **_spans("serial", ["encode", "parse"], SPEED, ("session",), calls=False),
    "params.generate_params_s": ("s", "lower", ("setup_s",), ALL),
    "trace.overhead_frac": ("ratio", "lower", (), ()),
}
