"""cli_small: fresh ``python -m maslov.cli`` processes on 2-12 point documents.

The cycle holds one invocation per subcommand variant, including product-
space documents (pair-list atoms), one ``dist --oracle`` on 3 points, and
``couplings --check`` on an infeasible coupling, the documented exit-2 case.
At set-up the benchmark writes the input documents and builds each expected
stdout through the library and the maslov.io encoders; a query passes when
the child's exit code and stdout bytes equal them.
"""

from __future__ import annotations

import contextlib
import io as std_io
import os
import random
import shutil
import subprocess
import sys
import time

from maslov import (
    ClosedSet,
    CollapseMap,
    CoverPair,
    FiniteFunction,
    FuzzySet,
    IdempotentMeasure,
    MilyutinLevel,
    OuterMeasure,
    PointCloudSpace,
    PointMap,
    barycenter,
    bicommutative_lift,
    cli,
    coupling_feasible,
    coupling_gap,
    counterexample_instance,
    dhat,
    dhat_oracle,
    dtilde,
    fuzzy_embed,
    hyperspace_embed,
    integrate,
    lift_along_surjection,
    lift_open_collapse,
    marginal,
    metric_closure,
    milyutin_build,
    multiply,
    pattern_max_coupling,
    pointwise_sup,
    product_space,
    pushforward,
    tensor,
    tight_patterns,
)
from maslov import io as mio

from common import OTHER, Query, Workload, box_counts, dyadic, labels, maxmin_terms, rand_measure
from exact_small import TIES, gap_instance


def context(**spaces) -> mio.Context:
    ctx = mio.Context()
    for name, sp in spaces.items():
        ctx.register(name, sp)
    return ctx


class DocWriter:
    """Writes input documents and records (argv, exit code, stdout) triples."""

    def __init__(self, workdir: str, wl: Workload) -> None:
        self.workdir = workdir
        self.wl = wl
        self.invocations: list[tuple[list[str], int, bytes]] = []

    def doc(self, doc) -> str:
        path = os.path.join(self.workdir, f"d{len(os.listdir(self.workdir)):03d}.json")
        data = mio.dumps(doc).encode()
        with open(path, "wb") as fh:
            fh.write(data)
        self.wl.add(**{"io.bytes_in": len(data)})
        return path

    def expect(self, argv: list[str], result, code: int = 0) -> None:
        out = mio.dumps(result).encode()
        self.wl.add(**{"io.bytes_out": len(out)})
        self.invocations.append((argv, code, out))


def rand_map(rng, X, Y, onto: bool = False) -> PointMap:
    image = [rng.choice(Y.points) for _ in X.points]
    if onto:
        image[: len(Y)] = Y.points
        rng.shuffle(image)
    return PointMap(X, Y, dict(zip(X.points, image)))


def collapse(rng, n: int) -> PointMap:
    """X (n+1 points) onto Y (n points), merging one pair."""
    X, Y = labels("x", n + 1), labels("y", n)
    j = rng.randrange(n)
    table = {f"x{i}": f"y{i}" for i in range(n)}
    table[f"x{n}"] = f"y{j}"
    return PointMap(X, Y, table)


def build_invocations(b: DocWriter, rng: random.Random) -> None:
    n = lambda lo=2, hi=12: rng.randint(lo, hi)  # noqa: E731
    wl = b.wl

    X = labels("x", n())
    mu, phi = rand_measure(rng, X), FiniteFunction(X, tuple(dyadic(rng, -4, 4) for _ in X.points))
    ctx = context(X=X)
    b.expect(["integrate", b.doc(mio.measure_doc(mu, ctx)), b.doc(mio.function_doc(phi, ctx))],
             {"value": integrate(mu, phi)})

    P = product_space(labels("a", n(2, 3)), labels("b", n(2, 4)))
    mu, phi = rand_measure(rng, P), FiniteFunction(P, tuple(dyadic(rng, -4, 4) for _ in P.points))
    ctx = context(P=P)
    b.expect(["integrate", b.doc(mio.measure_doc(mu, ctx)), b.doc(mio.function_doc(phi, ctx))],
             {"value": integrate(mu, phi)})

    X, Y = labels("x", n(3)), labels("y", n(2, 6))
    f, mu = rand_map(rng, X, Y), rand_measure(rng, X)
    ctx = context(X=X, Y=Y)
    b.expect(["push", b.doc(mio.map_doc(f, ctx)), b.doc(mio.measure_doc(mu, ctx))],
             mio.measure_doc(pushforward(f, mu), ctx))
    wl.add(**{"functor.push_points": len(X)})

    Y = labels("y", n(2, 6))
    X = labels("x", n(len(Y)))
    f, nu = rand_map(rng, X, Y, onto=True), rand_measure(rng, Y)
    ctx = context(X=X, Y=Y)
    b.expect(["lift", b.doc(mio.map_doc(f, ctx)), b.doc(mio.measure_doc(nu, ctx))],
             mio.measure_doc(lift_along_surjection(f, nu), ctx))

    X, Y = labels("x", n(2, 4)), labels("y", n(2, 3))
    mu, nu = rand_measure(rng, X), rand_measure(rng, Y)
    ctx = context(X=X, Y=Y)
    b.expect(["tensor", b.doc(mio.measure_doc(mu, ctx)), b.doc(mio.measure_doc(nu, ctx))],
             mio.measure_doc(tensor(mu, nu), ctx))
    wl.add(**{"monad.tensor_cells": len(X) * len(Y)})

    P = product_space(labels("a", n(2, 4)), labels("b", n(2, 3)))
    rho, axis = rand_measure(rng, P), rng.randrange(2)
    ctx = context(P=P)
    b.expect(["marginal", b.doc(mio.measure_doc(rho, ctx)), "--axis", str(axis)],
             mio.measure_doc(marginal(rho, axis), ctx))
    wl.add(**{"functor.push_points": len(P)})

    X = labels("x", n())
    lam = [0.0] + [dyadic(rng) for _ in range(rng.randint(1, 3))]
    rng.shuffle(lam)
    M = OuterMeasure(X, tuple(rand_measure(rng, X) for _ in lam), tuple(lam))
    ctx = context(X=X)
    b.expect(["zeta", b.doc(mio.outer_doc(M, ctx))], mio.measure_doc(multiply(M), ctx))
    wl.add(**{"monad.multiply_terms": len(lam) * len(X)})

    X = labels("x", n())
    ms = [rand_measure(rng, X) for _ in range(rng.randint(2, 4))]
    ctx = context(X=X)
    b.expect(["sup", *(b.doc(mio.measure_doc(m, ctx)) for m in ms)],
             mio.measure_doc(pointwise_sup(ms), ctx))

    X = labels("x", n())
    cloud = PointCloudSpace(X, {p: tuple(dyadic(rng, -4, 4) for _ in range(3)) for p in X.points})
    mu = rand_measure(rng, X)
    ctx = context(X=X)
    b.expect(["barycenter", b.doc(mio.cloud_doc(cloud, ctx)), b.doc(mio.measure_doc(mu, ctx))],
             {"point": list(barycenter(cloud, mu))})

    for k, lip, oracle in ((3, 1, True), (n(6), 2, False)):
        X = labels("m", k)
        raw = [[0.0] * k for _ in range(k)]
        for i in range(k):
            for j in range(i + 1, k):
                raw[i][j] = raw[j][i] = rng.randint(1, 12) / 4.0
        ms_ = metric_closure(X, raw)
        mu, nu = rand_measure(rng, X), rand_measure(rng, X)
        ctx = context(M=X)
        argv = ["dist", b.doc(mio.metric_space_doc(ms_, "M")), b.doc(mio.measure_doc(mu, ctx)),
                b.doc(mio.measure_doc(nu, ctx)), "--n", str(lip)]
        out = {"n": lip, "dhat": dhat(lip, ms_, mu, nu), "dtilde": dtilde(lip, ms_, mu, nu)}
        if oracle:
            argv += ["--oracle", "--step", "0.05"]
            out["oracle"] = dhat_oracle(lip, ms_, mu, nu, step=0.05)
            out["step"] = 0.05
        b.expect(argv, out)
        wl.add(**{"metrics.maxmin_terms": 2 * maxmin_terms(mu.weights, nu.weights)})

    X = labels("x", n())
    members = frozenset(p for p in X.points if rng.random() < 0.5) or frozenset(X.points[:1])
    chi = FiniteFunction(X, tuple(1.0 if p in members else 0.0 for p in X.points))
    ctx = context(X=X)
    b.expect(["hyper", b.doc(mio.function_doc(chi, ctx))],
             mio.measure_doc(hyperspace_embed(ClosedSet(X, members)), ctx))

    X = labels("x", n())
    grades = [rng.choice((0.0, 0.25, 0.5, 0.75, 1.0)) for _ in X.points]
    grades[rng.randrange(len(grades))] = 1.0
    chi = FiniteFunction(X, tuple(grades))
    ctx = context(X=X)
    b.expect(["fuzzy", b.doc(mio.function_doc(chi, ctx))],
             mio.measure_doc(fuzzy_embed(FuzzySet(X, tuple(grades))), ctx))

    f = collapse(rng, n(2, 11))
    mu0 = rand_measure(rng, f.source)
    nus = [rand_measure(rng, f.target) for _ in range(rng.randint(2, 3))]
    ctx = context(X=f.source, Y=f.target)
    b.expect(["lift-open", b.doc(mio.map_doc(f, ctx)), b.doc(mio.measure_doc(mu0, ctx)),
              *(b.doc(mio.measure_doc(v, ctx)) for v in nus)],
             {"lifts": [mio.measure_doc(m, ctx) for m in lift_open_collapse(CollapseMap(f), mu0, nus)]})

    f = collapse(rng, n(2, 3))
    mu = rand_measure(rng, f.source)
    nu = tensor(pushforward(f, mu), rand_measure(rng, f.target))
    ctx = context(X=f.source, Y=f.target)
    b.expect(["bicommute", b.doc(mio.map_doc(f, ctx)), b.doc(mio.measure_doc(mu, ctx)),
              b.doc(mio.coupling_doc(nu, ctx))],
             mio.coupling_doc(bicommutative_lift(CollapseMap(f), mu, nu), ctx))

    X, Y = labels("x", 2), labels("y", 2)
    mu1, mu2 = rand_measure(rng, X, 1.0), rand_measure(rng, Y, 1.0)
    ctx = context(X=X, Y=Y)
    left, right = b.doc(mio.measure_doc(mu1, ctx)), b.doc(mio.measure_doc(mu2, ctx))
    b.expect(["couplings", left, right, "--check", b.doc(mio.coupling_doc(tensor(mu1, mu2), ctx))],
             {"feasible": True})
    wrong = IdempotentMeasure(X, tuple(reversed(mu1.weights)))
    if wrong == mu1:
        wrong = IdempotentMeasure(X, (0.0, -1.0 if mu1.weights[1] != -1.0 else -2.0))
    bad = tensor(wrong, mu2)
    assert not coupling_feasible(bad, mu1, mu2)
    b.expect(["couplings", left, right, "--check", b.doc(mio.coupling_doc(bad, ctx))],
             {"feasible": False}, code=2)

    mu1, mu2, _ = gap_instance(rng, TIES[12])
    ctx = context(X=mu1.space, Y=mu2.space)
    patterns = [
        {
            "rows": [[mio.encode_label(x), mio.encode_label(y)] for x, y in p.rows],
            "cols": [[mio.encode_label(y), mio.encode_label(x)] for y, x in p.cols],
            "max_coupling": mio.coupling_doc(pattern_max_coupling(p, mu1, mu2), ctx),
        }
        for p in tight_patterns(mu1, mu2)
    ]
    b.expect(["couplings", b.doc(mio.measure_doc(mu1, ctx)), b.doc(mio.measure_doc(mu2, ctx)),
              "--enumerate"], {"patterns": patterns})
    wl.add(**{"openness.patterns": len(patterns)})

    # five 3x3 gaps of one tie structure: the slowest fifth of the cycle is a
    # group of equal cost, and p85 falls inside it
    for npat in (None, 18, 18, 18, 18, 18):
        if npat is None:
            X, Y = labels("x", 2), labels("y", 2)
            mu1, mu2 = rand_measure(rng, X, 1.0), rand_measure(rng, Y, 1.0)
            target = rand_measure(rng, product_space(X, Y))
        else:
            mu1, mu2, target = gap_instance(rng, TIES[npat])
        ctx = context(X=mu1.space, Y=mu2.space)
        res = coupling_gap(mu1, mu2, target)
        b.expect(["couplings", b.doc(mio.measure_doc(mu1, ctx)), b.doc(mio.measure_doc(mu2, ctx)),
                  "--gap", b.doc(mio.measure_doc(target, ctx))],
                 {"gap": res.gap, "witness_phi": mio.function_doc(res.phi, ctx),
                  "best_coupling": mio.coupling_doc(res.coupling, ctx)})
        wl.add(**box_counts(mu1, mu2))

    ell = rng.randint(1, 100)
    mu1, mu2, target = counterexample_instance(ell)
    res = coupling_gap(mu1, mu2, target)
    ctx = context(X=mu1.space, Y=mu2.space)
    b.expect(["counterexample", "--l", str(ell)],
             {"l": ell, "gap": res.gap, "witness_phi": mio.function_doc(res.phi, ctx),
              "best_coupling": mio.coupling_doc(res.coupling, ctx)})
    wl.add(**box_counts(mu1, mu2))

    Y = labels("y", n(3, 6))
    raw = [[0.0 if i == j else rng.randint(1, 8) / 4.0 for j in range(len(Y))] for i in range(len(Y))]
    raw = [[min(raw[i][j], raw[j][i]) for j in range(len(Y))] for i in range(len(Y))]
    Ym = metric_closure(Y, raw)
    depth = rng.randint(1, 2)
    levels = []
    for _ in range(depth):
        pts = list(Y.points)
        rng.shuffle(pts)
        cut = rng.randint(1, len(pts) - 1)
        pairs = []
        for U in (pts[:cut], pts[cut:]):
            V = set(U) | {p for p in Y.points if rng.random() < 0.3}
            alpha = {v: (0.0 if v in U else dyadic(rng, -2, 0)) for v in V}
            pairs.append(CoverPair(frozenset(U), frozenset(V), alpha))
        levels.append(MilyutinLevel(tuple(pairs)))
    ctx = context(Y=Y)
    Xc, fc, sel = milyutin_build(Ym, levels, depth)
    cover = f"cover({ctx.name_of(Y)})"
    ctx.register(cover, Xc)
    b.expect(["milyutin", b.doc(mio.metric_space_doc(Ym, "Y")), b.doc(mio.cover_levels_doc(levels, Y, "Y")),
              "--depth", str(depth)],
             {"space": mio.space_doc(Xc, cover), "map": mio.map_doc(fc, ctx),
              "selection": [{"y": mio.encode_label(y), "measure": mio.measure_doc(sel[y], ctx)}
                            for y in Y.points]})


CHILD_MS = 40.0  # a bare interpreter's start at reference speed


def child_slowdown(root: str, env: dict) -> float:
    """The machine's slowdown for child processes: a bare interpreter start.

    A CLI call is mostly process start and imports, which drift apart from
    in-process work on a shared machine; this reference tracks them.
    """
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], cwd=root, env=env, check=True)
    return (time.perf_counter() - t0) * 1000 / CHILD_MS


def build(seed: int, root: str, workdir: str) -> Workload:
    if os.path.isdir(workdir):
        shutil.rmtree(workdir)
    os.makedirs(workdir)
    wl = Workload("cli_small", [], tail_pct=85.0)
    b = DocWriter(workdir, wl)
    build_invocations(b, random.Random(seed))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    wl.cycle = [subprocess_query(argv, code, out, root, env) for argv, code, out in b.invocations]
    wl.in_process = [replay_query(argv, code, out) for argv, code, out in b.invocations]
    wl.reference = lambda: child_slowdown(root, env)
    wl.close = lambda: shutil.rmtree(workdir, ignore_errors=True)
    return wl


def query(label: str, run, want_code: int, want: bytes) -> Query:
    expect = {"stdout": want, "exit_code": want_code}

    def check(out, err):
        if err is not None or out != (expect["exit_code"], expect["stdout"]):
            return OTHER
        return None

    return Query(label, run, check, expect)


def subprocess_query(argv, want_code, want, root, env) -> Query:
    cmd = [sys.executable, "-m", "maslov.cli", *argv]

    def run():
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, timeout=60)
        return proc.returncode, proc.stdout

    return query(argv[0], run, want_code, want)


def replay_query(argv, want_code, want) -> Query:
    """The same invocation through cli.main in this process (traced runs)."""
    def run():
        buf = std_io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(std_io.StringIO()):
            code = cli.main(argv)
        return code, buf.getvalue().encode()

    return query(argv[0], run, want_code, want)
