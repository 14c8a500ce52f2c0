"""Metric names and units, in one place.

BENCHMARK.json repeats the two metric lists; ``run.py --self-test`` checks
that it matches them.  README.md holds the layer -> end-to-end table.
"""

END_TO_END = (
    # name, unit, better
    ("setup_s", "s", "lower"),
    ("throughput_qps", "queries/s", "higher"),
    ("latency_ms_p50", "ms", "lower"),
    ("latency_ms_tail", "ms", "lower"),
    ("ok_frac", "ratio", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)

LAYERS = ("cli", "io", "core", "measures", "functor", "monad", "convexity",
          "metrics", "openness", "laws", "validate")
VALIDATED = ("MetricSpace", "IdempotentMeasure", "FiniteSpace", "FiniteFunction", "PointMap")
LAW_SUITES = {
    "maslov": "check_maslov_axioms",
    "monad": "check_monad_laws",
    "algebra": "check_algebra_laws",
    "tensor": "check_tensor_laws",
    "hyperspace": "check_hyperspace_laws",
    "functor": "check_functor_laws",
    "preimage": "check_preimage_intersection",
}
# Counts the benchmark computes from inputs and public return values for one
# cycle of the workload; they repeat exactly for a given seed.
COMPUTED = ("core.closure_relax", "metrics.maxmin_terms", "monad.tensor_cells",
            "monad.multiply_terms", "functor.push_points", "openness.patterns",
            "openness.boxes_distinct", "openness.boxes_minimal", "openness.family_size",
            "io.bytes_in", "io.bytes_out", "laws.cases")
FAILURES = ("closure_probe", "hull_probe", "other")


def per_layer() -> list[tuple[str, str, str]]:
    out = [
        ("startup.python_ms", "ms", "lower"),
        ("startup.import_numpy_ms", "ms", "lower"),
        ("startup.import_maslov_ms", "ms", "lower"),
        ("startup.share", "ratio", "lower"),
        ("cli.main_ms", "ms", "lower"),
    ]
    out += [(f"{layer}.self_ms", "ms", "lower") for layer in LAYERS]
    out += [(f"{layer}.calls", "calls", "lower")
            for layer in ("io", "validate", "measures", "functor", "monad", "convexity")]
    out += [(f"validate.{cls}_ms", "ms", "lower") for cls in VALIDATED]
    out += [("validate.MetricSpace_calls", "calls", "lower")]
    out += [(f"laws.{suite}_ms", "ms", "lower") for suite in LAW_SUITES]
    out += [(name, "count", "lower") for name in COMPUTED]
    out += [("openness.box_useful_ratio", "ratio", "higher"),
            ("trace.overhead_ms", "ms", "lower")]
    out += [(f"fail_frac.{kind}", "ratio", "lower") for kind in FAILURES]
    return out

