"""kernels_large: closure, dual distances, tensor/marginals and big measures.

Each of the ten cycle slots fixes its sizes on a ladder across the stated
ranges (closure n 48-96, tensor 150-250 per side, 10^3-10^4 points for
pushforward, multiply, integrate and barycenter) and its support density
(50-100%); the seed draws every value.  Outputs are checked against numpy
references built at set-up.  Slot 9 also runs the known-defect probe,
metric_closure on each of a seeded pool of real-valued uniform(0.1, 10)
tables with n 4-12; the query fails if any closure raises or differs from
Floyd-Warshall.  Probe work is left out of the computed counts.
"""

from __future__ import annotations

import numpy as np

from maslov import (
    FiniteFunction,
    OuterMeasure,
    PointCloudSpace,
    PointMap,
    convexity,
    core,
    measures,
    metrics,
    monad,
    functor,
)
from maslov.core import NEG_INF

from common import OTHER, Query, Workload, labels, maxmin_terms, np_measure

PROBE = "closure_probe"
SLOTS = 10
INNER = 20  # inner measures of the multiply step
PROBE_POOL = 16  # instances every probe query runs
# Size steps of the ten slots on a 0..7 ladder across each range.  p50 falls
# inside the equal-size pair 4-5 and p75 inside slot 6 or the pair 7-8, with
# or without the probe slot 9 among the completed queries.
STEPS = (0, 1, 2, 3, 4, 4, 5, 6, 6, 7)
DENSITY = tuple(0.5 + 0.5 * ((3 * k) % SLOTS) / (SLOTS - 1) for k in range(SLOTS))


def floyd_warshall(raw: np.ndarray) -> np.ndarray:
    d = raw.copy()
    for k in range(len(d)):
        d = np.minimum(d, d[:, k, None] + d[None, k, :])
    return d


def maxmin(D: np.ndarray, n: int, lam: np.ndarray, kap: np.ndarray) -> float:
    """Broadcast form of the closed-form dual gap, same association order."""
    sl, sk = lam > NEG_INF, kap > NEG_INF

    def one_sided(a, b, sub):
        return ((a[:, None] - b[None, :]) + n * sub).min(axis=1).max()

    return float(max(one_sided(lam[sl], kap[sk], D[np.ix_(sl, sk)]),
                     one_sided(kap[sk], lam[sl], D[np.ix_(sk, sl)])))


def dyadic_table(gen: np.random.Generator, n: int) -> np.ndarray:
    upper = np.triu(gen.integers(1, 33, size=(n, n)) / 4.0, 1)
    return upper + upper.T


def build(seed: int) -> Workload:
    gen = np.random.default_rng(seed)
    wl = Workload("kernels_large", [], tail_pct=75.0)
    for slot in range(SLOTS):
        wl.cycle.append(build_slot(wl, gen, slot, STEPS[slot] / 7, DENSITY[slot]))
    return wl


def build_slot(wl: Workload, gen: np.random.Generator, slot: int, t: float, density: float) -> Query:
    n = 48 + round(48 * t)
    X = labels("p", n)
    raw = dyadic_table(gen, n)
    D = floyd_warshall(raw)
    lip = (1, 2, 4)[slot % 3]
    pairs = [(np_measure(gen, X, density), np_measure(gen, X, density)) for _ in range(2)]
    outer = []
    for _ in range(2):
        w = -gen.integers(0, 17, size=6) / 4.0
        w[gen.integers(6)] = 0.0
        outer.append(OuterMeasure(X, tuple(np_measure(gen, X, density) for _ in range(6)), tuple(w.tolist())))

    m = 150 + round(100 * t)
    mu_a, mu_b = np_measure(gen, labels("a", m), density), np_measure(gen, labels("b", m), density)

    big = 1000 + round(9000 * t)
    Q = labels("q", big)
    R = labels("r", big // 10)
    image = gen.integers(0, len(R), size=big)
    f = PointMap(Q, R, {q: R.points[j] for q, j in zip(Q.points, image.tolist())})
    mu_q = np_measure(gen, Q, density)
    lam = -gen.integers(0, 17, size=INNER) / 4.0
    lam[gen.random(INNER) >= density] = NEG_INF
    lam[gen.integers(INNER)] = 0.0
    M = OuterMeasure(Q, tuple(np_measure(gen, Q, density) for _ in range(INNER)), tuple(lam.tolist()))
    phi = FiniteFunction(Q, tuple((gen.integers(-64, 65, size=big) / 4.0).tolist()))
    coords = gen.integers(-64, 65, size=(big, 3)) / 4.0
    cloud = PointCloudSpace(Q, {q: tuple(c) for q, c in zip(Q.points, coords.tolist())})

    probes = []
    if slot == SLOTS - 1:
        for _ in range(PROBE_POOL):
            k = int(gen.integers(4, 13))
            upper = np.triu(gen.uniform(0.1, 10.0, size=(k, k)), 1)
            probes.append((labels("z", k), upper + upper.T))

    # numpy references for every output
    w_q = np.array(mu_q.weights)
    push_ref = np.full(len(R), NEG_INF)
    np.maximum.at(push_ref, image, w_q)
    live = lam > NEG_INF
    mult_ref = (lam[live, None] + np.array([m_.weights for m_ in M.inner])[live]).max(axis=0)
    w_arr = lambda mu: np.array(mu.weights)  # noqa: E731
    dhat_ref = [maxmin(D, lip, w_arr(a), w_arr(b)) for a, b in pairs]
    pts = list(outer[0].inner) + list(outer[1].inner)
    ground = np.array([[maxmin(D, lip, w_arr(a), w_arr(b)) / lip if i != j else 0.0
                        for j, b in enumerate(pts)] for i, a in enumerate(pts)])
    outer_lam = np.array(list(outer[0].weights) + [NEG_INF] * 6)
    outer_kap = np.array([NEG_INF] * 6 + list(outer[1].weights))
    outer_ref = maxmin(ground, lip, outer_lam, outer_kap) / lip
    live_q = w_q > NEG_INF
    integ_ref = float((np.array(phi.values) + w_q)[live_q].max())
    bary_ref = tuple((coords[live_q] + w_q[live_q, None]).max(axis=0).tolist())

    wl.add(**{
        "core.closure_relax": n ** 3,
        "metrics.maxmin_terms": 2 * sum(maxmin_terms(a.weights, b.weights) for a, b in pairs)
        + sum(maxmin_terms(a.weights, b.weights) for i, a in enumerate(pts) for b in pts[i + 1:])
        + maxmin_terms(outer_lam, outer_kap),
        "monad.tensor_cells": m * m,
        "monad.multiply_terms": int(live.sum()) * big,
        "functor.push_points": big + 2 * m * m,
    })

    def run():
        out = {"closure": core.metric_closure(X, raw)}
        ms = out["closure"]
        out["dhat"] = [metrics.dhat(lip, ms, a, b) for a, b in pairs]
        out["dtilde"] = [metrics.dtilde(lip, ms, a, b) for a, b in pairs]
        out["outer"] = metrics.outer_dtilde(lip, ms, *outer)
        rho = monad.tensor(mu_a, mu_b)
        out["marginals"] = (monad.marginal(rho, 0), monad.marginal(rho, 1))
        out["push"] = functor.pushforward(f, mu_q)
        out["multiply"] = monad.multiply(M)
        out["integrate"] = measures.integrate(mu_q, phi)
        out["barycenter"] = convexity.barycenter(cloud, mu_q)
        out["probe"] = []
        for sp, table in probes:
            try:
                out["probe"].append(core.metric_closure(sp, table).matrix)
            except ValueError:
                out["probe"].append(None)
        return out

    expect = {
        "integrate": integ_ref,
        "closure": D,
        "dhat": dhat_ref,
        "dtilde": [v / lip for v in dhat_ref],
        "outer": outer_ref,
        "marginals": (mu_a, mu_b),
        "push": tuple(push_ref.tolist()),
        "multiply": tuple(mult_ref.tolist()),
        "barycenter": bary_ref,
        "probe": [floyd_warshall(table) for _, table in probes],
    }

    def check(out, err):
        if err is not None:
            return OTHER
        ok = (
            out["integrate"] == expect["integrate"]
            and np.array_equal(out["closure"].matrix, expect["closure"])
            and out["dhat"] == expect["dhat"]
            and out["dtilde"] == expect["dtilde"]
            and out["outer"] == expect["outer"]
            and out["marginals"] == expect["marginals"]
            and out["push"].weights == expect["push"]
            and out["multiply"].weights == expect["multiply"]
            and out["barycenter"] == expect["barycenter"]
        )
        if not ok:
            return OTHER
        if probes:
            failed = sum(1 for got, want in zip(out["probe"], expect["probe"])
                         if got is None or not np.array_equal(got, want))
            wl.probe[PROBE] = {"failed": failed, "of": len(probes)}
            if failed:
                return PROBE
        return None

    return Query(f"slot{slot}", run, check, expect)

