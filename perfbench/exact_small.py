"""exact_small: law batches, a dyadic 3x3 coupling gap and the two-point gap.

Thousands of tiny constructions per query make validation and openness the
dominant layers.  Each of the ten cycle slots fixes the tie structure of its
3x3 marginals, which fixes its tight-pattern count; the seed draws the
values, the target and the law-harness streams.  Slot 0, the cheapest,
also runs the known-defect probe, hull_membership(gens, gens[0]) on each of
a seeded pool of non-dyadic generator sets; the query fails if any returns
False.  A failed query drops out of the latencies, so the probe sits where
that moves neither p50 nor p90 off their groups.
"""

from __future__ import annotations

import random

from maslov import IdempotentMeasure, convexity, counterexample_instance, coupling_feasible, laws, openness
from maslov.core import FiniteSpace, product_space

from common import OTHER, Query, Workload, box_counts, dyadic, gap_deviation

PROBE = "hull_probe"
CASES = 30
MAX_POINTS = 4
# Weak orders of the six marginal weights (x1 x2 x3 y1 y2 y3; level 0 is
# weight 0, deeper levels are lower).  The order alone fixes the number of
# tight patterns, and with it most of the gap's cost.
TIES = {
    9: (0, 1, 1, 0, 2, 2),
    12: (0, 1, 3, 0, 2, 2),
    18: (0, 0, 1, 0, 2, 2),
    24: (0, 0, 2, 0, 1, 1),
    36: (0, 0, 1, 0, 1, 2),
    54: (0, 0, 1, 0, 1, 1),
    96: (0, 0, 1, 0, 0, 2),
}
# Pattern counts of the ten slots: p50 falls inside the 36 group and p90
# inside the 96 group, never on a boundary between groups of unequal cost,
# with or without the probe slot among the completed queries.
SLOT_PATTERNS = (9, 12, 18, 24, 36, 36, 36, 54, 96, 96)
PROBE_POOL = 64  # instances every probe query runs
# Looked up on the module at call time, so a traced run reaches the wrappers.
CHECKERS = ("check_maslov_axioms", "check_algebra_laws", "check_tensor_laws",
            "check_hyperspace_laws", "check_functor_laws", "check_preimage_intersection")

X3 = FiniteSpace(("x1", "x2", "x3"))
Y3 = FiniteSpace(("y1", "y2", "y3"))


def gap_instance(rng: random.Random, template: tuple[int, ...]):
    levels = [0.0]
    for _ in range(max(template)):
        levels.append(levels[-1] - rng.randint(1, 6) / 4.0)
    mu1 = IdempotentMeasure(X3, tuple(levels[i] for i in template[:3]))
    mu2 = IdempotentMeasure(Y3, tuple(levels[i] for i in template[3:]))
    prod = product_space(X3, Y3)
    raw = [dyadic(rng) if rng.random() < 0.7 else float("-inf") for _ in prod.points]
    raw[rng.randrange(len(raw))] = 0.0
    return mu1, mu2, IdempotentMeasure(prod, tuple(raw))


def build(seed: int) -> Workload:
    rng = random.Random(seed)
    wl = Workload("exact_small", [], tail_pct=90.0)
    pool = [[tuple(rng.uniform(-5.0, 5.0) for _ in range(3)) for _ in range(4)]
            for _ in range(PROBE_POOL)]
    for slot, npat in enumerate(SLOT_PATTERNS):
        mu1, mu2, target = gap_instance(rng, TIES[npat])
        ell = rng.randint(1, 100)
        streams = [f"{seed}/{slot}/{name}" for name in CHECKERS]
        monad_seed = rng.randrange(2**31)
        probes = pool if slot == 0 else None
        expect = {"counterexample_gap": 1.0}
        wl.cycle.append(Query(f"slot{slot}", make_run(streams, monad_seed, mu1, mu2, target, ell, probes),
                              make_check(wl, slot, mu1, mu2, target, expect), expect))
        wl.add(**box_counts(mu1, mu2))
        wl.add(**box_counts(*counterexample_instance(ell)[:2]))
    return wl


def make_run(streams, monad_seed, mu1, mu2, target, ell, probes):
    def run():
        reports = [getattr(laws, name)(random.Random(s), CASES, MAX_POINTS)
                   for name, s in zip(CHECKERS, streams)]
        reports.append(laws.check_monad_laws(seed=monad_seed, cases=CASES, max_points=MAX_POINTS))
        gap = openness.coupling_gap(mu1, mu2, target)
        cex = openness.counterexample_gap(ell)
        members = [convexity.hull_membership(g, g[0])[0] for g in probes or ()]
        return reports, gap, cex, members
    return run


def make_check(wl: Workload, slot: int, mu1, mu2, target, expect):
    def check(out, err):
        if err is not None:
            return OTHER
        reports, gap, cex, members = out
        # laws.cases from the returned reports; every cycle repeats the same streams
        wl.per_slot[slot] = {"laws.cases": sum(r.cases for r in reports)}
        if cex != expect["counterexample_gap"] or not all(r.ok for r in reports):
            return OTHER
        if not coupling_feasible(gap.coupling, mu1, mu2):
            return OTHER
        if gap_deviation(gap.coupling, target) != gap.gap:
            return OTHER
        if members:
            failed = members.count(False)
            wl.probe[PROBE] = {"failed": failed, "of": len(members)}
            if failed:
                return PROBE
        return None
    return check

