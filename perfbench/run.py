"""Benchmark for the maslov package: three seeded closed-loop workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload cli_small --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

One client sends each query after the previous one completed.  The run
repeats whole cycles of the workload's queries until --seconds have passed.
With --trace 0 the last stdout line holds the end-to-end metrics; with
--trace 1 the run measures half its time untraced and half under the
outside-in tracer (in-process for every workload) and reports per-layer
metrics.  The line before the result is the run record and report.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOADS = ("cli_small", "exact_small", "kernels_large")
SETUP_REPS = 3
STARTUP_REPS = 5
REF_ITEMS = tuple(range(8192))
REF_MS = 2.0  # the reference work's time at reference speed
# maslov makes no BLAS call, but numpy's OpenBLAS starts a spinning helper
# thread per core at import; on a shared 2-core machine that made a CLI call's
# time hang on what else ran beside it (quartile spread 0.28 vs 0.02)
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def one_thread() -> None:
    """Pin BLAS to one thread here and in every child, before numpy loads."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def load_program():
    """Import maslov from this checkout's src/, never from anywhere else."""
    init = SRC / "maslov" / "__init__.py"
    if not init.is_file():
        sys.exit(f"error: {init} not found; run from a checkout of the maslov repository")
    sys.path.insert(0, str(SRC))
    import maslov
    if Path(maslov.__file__).resolve() != init.resolve():
        sys.exit(f"error: imported maslov from {maslov.__file__}, expected {init}")
    return maslov


def slowdown() -> float:
    """The machine's slowdown now: fixed interpreter and allocation work ÷ REF_MS.

    The machine is shared, and its speed drifts by tens of percent within a
    minute.  Every timed interval is divided by the mean of the slowdowns
    taken just before and just after it, which gives its time at reference
    speed.  The reference work does not touch maslov.
    """
    t0 = time.perf_counter()
    table = {}
    for i in REF_ITEMS:
        t = (i, i * 0.25, -i)
        table[i & 255] = t
    rows = [tuple(float(v) for v in range(j, j + 64)) for j in range(0, len(REF_ITEMS), 64)]
    del table, rows
    return (time.perf_counter() - t0) * 1000 / REF_MS


def timed(fn):
    """Run fn; return its result and its seconds at reference speed."""
    before = slowdown()
    t0 = time.perf_counter()
    out = fn()
    dt = time.perf_counter() - t0
    return out, dt * 2 / (before + slowdown())


@dataclass
class Stats:
    """Every attempted query of one measured phase, in order."""
    times: list[float] = field(default_factory=list)  # wall seconds
    scaled: list[float] = field(default_factory=list)  # seconds at reference speed
    ok: list[bool] = field(default_factory=list)
    refs: list[float] = field(default_factory=list)  # slowdowns: before each query, after the last
    failures: Counter = field(default_factory=Counter)
    errors: list[str] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.times)

    def latencies(self, scaled: bool = True) -> list[float]:
        return [t for t, ok in zip(self.scaled if scaled else self.times, self.ok) if ok]

    def p50_ms(self, scaled: bool = True) -> float:
        return statistics.median(self.latencies(scaled)) * 1000

    @property
    def slowdown(self) -> float:
        return statistics.median(self.refs)


def measure(queries, seconds: float, reference=slowdown, tracer=None, first_qid: int = 0) -> Stats:
    """Closed loop over whole cycles; a query's check runs outside its timing."""
    from common import OTHER

    stats = Stats()
    deadline = time.perf_counter() + seconds
    stats.refs.append(reference())
    while True:
        for q in queries:
            qid = first_qid + stats.attempted
            err = out = None
            t0 = time.perf_counter()
            try:
                out = q.run() if tracer is None else tracer.run_query(qid, q.run)
            except Exception as exc:  # counted as a failed query, the run goes on
                err = exc
            dt = time.perf_counter() - t0
            stats.refs.append(reference())
            stats.times.append(dt)
            stats.scaled.append(dt * 2 / (stats.refs[-2] + stats.refs[-1]))
            label = q.check(out, err)
            stats.ok.append(label is None)
            if label is None:
                continue
            stats.failures[label] += 1
            if label == OTHER and len(stats.errors) < 5:
                stats.errors.append(f"{q.label}: {err!r}" if err else f"{q.label}: wrong output")
        if time.perf_counter() >= deadline:
            return stats


def build(name: str, seed: int):
    if name == "cli_small":
        import cli_small
        return cli_small.build(seed, str(ROOT), str(OUT / f"cli-{os.getpid()}"))
    if name == "exact_small":
        import exact_small
        return exact_small.build(seed)
    import kernels_large
    return kernels_large.build(seed)


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def import_program() -> None:
    """A fresh interpreter importing what a workload process imports."""
    subprocess.run([sys.executable, "-c", "import numpy, maslov, maslov.cli"],
                   cwd=ROOT, env=child_env(), check=True)


def setup(name: str, seed: int):
    """Set up SETUP_REPS times and keep the last workload.

    One set-up is a fresh interpreter's imports, building the workload
    (inputs, expected outputs, computed counts) and one warm-up query.
    setup_s is the median of the reps, at reference speed.
    """
    load_program()

    def once():
        import_program()
        wl = build(name, seed)
        q = wl.cycle[0]
        q.check(q.run(), None)
        return wl

    times, wl = [], None
    for _ in range(SETUP_REPS):
        if wl is not None:
            wl.close()
        wl, seconds = timed(once)
        times.append(seconds)
    return wl, statistics.median(times)


def tail(latencies: list[float], pct: float) -> tuple[float, int]:
    import numpy as np
    value = float(np.percentile(latencies, pct))
    return value * 1000, sum(1 for x in latencies if x > value)


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def end_to_end(wl, stats: Stats, setup_s: float, scaled: bool = True) -> dict:
    import layers
    lat = stats.latencies(scaled)
    values = {
        "setup_s": setup_s,
        "throughput_qps": len(lat) / sum(stats.scaled if scaled else stats.times),
        "latency_ms_p50": stats.p50_ms(scaled),
        "latency_ms_tail": tail(lat, wl.tail_pct)[0],
        "ok_frac": len(lat) / stats.attempted,
        "peak_rss_mb": peak_rss_mb(children=wl.in_process is not None),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in layers.END_TO_END}


def startup_timings() -> dict[str, float]:
    """Median time of fresh interpreters: bare, importing numpy, maslov.cli."""
    med = {}
    for key, code in (("python", "pass"), ("numpy", "import numpy"), ("maslov", "import maslov.cli")):
        cmd = [sys.executable, "-c", code]
        times = [timed(lambda: subprocess.run(cmd, cwd=ROOT, env=child_env(), check=True))[1]
                 for _ in range(STARTUP_REPS)]
        med[key] = statistics.median(times) * 1000
    return {
        "startup.python_ms": med["python"],
        "startup.import_numpy_ms": med["numpy"] - med["python"],
        "startup.import_maslov_ms": med["maslov"] - med["numpy"],
    }


def per_layer(wl, summary: dict, untraced: Stats, traced: Stats, startup: dict) -> dict:
    import layers
    # span times are wall times: bring them to reference speed as well
    per_q = lambda seconds: seconds / traced.slowdown / traced.attempted * 1000  # noqa: E731
    by_layer: dict[str, dict[str, float]] = {}
    for name, s in summary.items():
        agg = by_layer.setdefault(name.split(".", 1)[0], {"self_s": 0.0, "calls": 0})
        agg["self_s"] += s["self_s"]
        agg["calls"] += s["calls"]
    span = lambda name: summary.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})  # noqa: E731

    values = dict(startup)
    start_ms = sum(startup.values())
    values["startup.share"] = start_ms / (start_ms + untraced.p50_ms())
    values["cli.main_ms"] = per_q(span("cli.main")["total_s"])
    for layer in layers.LAYERS:
        agg = by_layer.get(layer, {"self_s": 0.0, "calls": 0})
        values[f"{layer}.self_ms"] = per_q(agg["self_s"])
        values[f"{layer}.calls"] = agg["calls"] / traced.attempted
    for cls in layers.VALIDATED:
        values[f"validate.{cls}_ms"] = per_q(span(f"validate.{cls}")["self_s"])
    values["validate.MetricSpace_calls"] = span("validate.MetricSpace")["calls"] / traced.attempted
    for suite, fn in layers.LAW_SUITES.items():
        values[f"laws.{suite}_ms"] = per_q(span(f"laws.{fn}")["total_s"])
    counts = wl.cycle_counts()
    for name in layers.COMPUTED:
        values[name] = counts.get(name, 0)
    patterns = values["openness.patterns"]
    values["openness.box_useful_ratio"] = values["openness.boxes_minimal"] / patterns if patterns else 0.0
    values["trace.overhead_ms"] = traced.p50_ms() - untraced.p50_ms()
    attempted = untraced.attempted + traced.attempted
    for kind in layers.FAILURES:
        values[f"fail_frac.{kind}"] = (untraced.failures[kind] + traced.failures[kind]) / attempted
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in layers.per_layer()}


def run_record(seed: int) -> dict:
    import numpy
    digest = hashlib.sha256()
    for path in sorted((SRC / "maslov").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
    }


def run(args) -> int:
    wl, setup_s = setup(args.workload, args.seed)
    import layers
    from common import OTHER
    try:
        report = {"workload": args.workload, "record": run_record(args.seed)}
        if not args.trace:
            stats = measure(wl.cycle, args.seconds, wl.reference or slowdown)
            phases = [stats]
            metrics = end_to_end(wl, stats, setup_s)
            report["slowdown"] = stats.slowdown
            report["wall"] = {k: v["value"] for k, v in end_to_end(wl, stats, setup_s, False).items()
                              if k.startswith(("throughput", "latency"))}
            report["latency_ms_tail"] = {"percentile": wl.tail_pct, "completed": len(stats.latencies()),
                                         "beyond": tail(stats.latencies(), wl.tail_pct)[1]}
        else:
            from tracer import Tracer
            queries = wl.in_process or wl.cycle
            untraced = measure(queries, args.seconds / 2)
            tracer = Tracer()
            tracer.install()
            try:
                traced = measure(queries, args.seconds / 2, tracer=tracer, first_qid=untraced.attempted)
            finally:
                tracer.uninstall()
            phases = [untraced, traced]
            spans = OUT / f"spans-{args.workload}-seed{args.seed}.npz"
            tracer.save(str(spans))
            metrics = per_layer(wl, tracer.summary(), untraced, traced, startup_timings())
            report["spans"] = str(spans.relative_to(ROOT))
            report["computed"] = list(layers.COMPUTED)
        failures = sum((p.failures for p in phases), Counter())
        attempted = sum(p.attempted for p in phases)
        failed = sum(failures.values())
        report["fail_frac"] = failed / attempted
        report["failures"] = {kind: failures[kind] for kind in layers.FAILURES}
        report["probe_instances"] = wl.probe
        report["errors"] = [e for p in phases for e in p.errors]
        print(json.dumps(report))
        print(json.dumps({"correct": failures[OTHER] == 0, "attempted": attempted,
                          "failed": failed, "metrics": metrics}))
    finally:
        wl.close()
    return 0


def self_test() -> int:
    """Each workload passes its own checks, and one wrong expectation is caught."""
    load_program()
    import layers
    from common import OTHER
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    if [m["name"] for m in spec["end_to_end"]] != [n for n, _, _ in layers.END_TO_END]:
        problems.append("BENCHMARK.json end_to_end differs from layers.END_TO_END")
    if [[m["name"], m["unit"], m["better"]] for m in spec["per_layer"]] != \
            [list(m) for m in layers.per_layer()]:
        problems.append("BENCHMARK.json per_layer differs from layers.per_layer()")
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.WORKLOADS")
    for name in WORKLOADS:
        wl = build(name, 1)
        try:
            clean = measure(wl.cycle, 0, wl.reference or slowdown)
            q = wl.cycle[0]
            key = next(iter(q.expect))
            q.expect[key] = object()  # an expectation no output can meet
            broken = measure(wl.cycle, 0, wl.reference or slowdown)
        finally:
            wl.close()
        caught = broken.failures[OTHER] - clean.failures[OTHER]
        print(f"{name}: failures {dict(clean.failures)}; wrong '{key}' -> {caught} extra failure(s)")
        if clean.failures[OTHER] or caught != 1:
            problems.append(f"{name}: self-test failed")
    for p in problems:
        print(p, file=sys.stderr)
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    one_thread()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
