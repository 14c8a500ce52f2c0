"""Pieces shared by the workloads: queries, seeded input helpers, work counts.

A workload is a fixed cycle of queries built at set-up from the seed.  The
harness repeats whole cycles, so every run sees the same mix.  A query's
``run`` is the timed call sequence; its ``check`` runs afterwards, outside
the timing, and returns None or the failure label it is counted under.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from maslov import IdempotentMeasure, normalize
from maslov.core import NEG_INF, FiniteSpace, product_space
from maslov.openness import tight_patterns

OTHER = "other"  # a failure outside the known-defect probes


@dataclass
class Query:
    label: str
    run: Callable[[], object]
    check: Callable[[object, BaseException | None], str | None]
    # expected values the check compares against, first key first;
    # the self-test swaps one for a wrong value
    expect: dict = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    cycle: list[Query]
    tail_pct: float
    # computed work counts for one cycle, from inputs and public return values
    counts: dict[str, float] = field(default_factory=dict)
    # counts a check reads off a slot's return value; the same every cycle
    per_slot: dict[int, dict[str, float]] = field(default_factory=dict)
    # the same cycle run in this process; cli_small replays its invocations
    in_process: list[Query] | None = None
    # the machine's slowdown now, timed around each query of ``cycle``;
    # None means run.slowdown, fixed in-process work
    reference: Callable[[], float] | None = None
    # known-defect probe: instances failed out of those one probe query runs
    probe: dict[str, dict[str, int]] = field(default_factory=dict)
    close: Callable[[], None] = lambda: None

    def add(self, **counts: float) -> None:
        for key, value in counts.items():
            self.counts[key] = self.counts.get(key, 0) + value

    def cycle_counts(self) -> dict[str, float]:
        out = dict(self.counts)
        for observed in self.per_slot.values():
            for key, value in observed.items():
                out[key] = out.get(key, 0) + value
        return out


def labels(prefix: str, n: int) -> FiniteSpace:
    return FiniteSpace(tuple(f"{prefix}{i}" for i in range(n)))


def dyadic(rng: random.Random, lo: float = -4.0, hi: float = 0.0) -> float:
    """A quarter-step value in [lo, hi]; max and + on these never round."""
    return rng.randint(int(lo * 4), int(hi * 4)) / 4.0


def rand_measure(rng: random.Random, sp: FiniteSpace, density: float = 0.7) -> IdempotentMeasure:
    raw = [dyadic(rng) if rng.random() < density else NEG_INF for _ in sp.points]
    raw[rng.randrange(len(raw))] = 0.0
    return normalize(sp, raw)


def np_measure(gen: np.random.Generator, sp: FiniteSpace, density: float) -> IdempotentMeasure:
    """Vectorised rand_measure for large spaces: dyadic weights, one atom at 0."""
    n = len(sp)
    w = -gen.integers(0, 33, size=n) / 4.0
    w[gen.random(n) >= density] = NEG_INF
    w[gen.integers(n)] = 0.0
    return IdempotentMeasure(sp, tuple(w.tolist()))


def support_size(weights) -> int:
    return sum(1 for w in weights if w > NEG_INF)


def maxmin_terms(lam, kap) -> int:
    """Terms of the two one-sided max-min passes of the closed-form dual gap."""
    return 2 * support_size(lam) * support_size(kap)


def box_counts(mu1: IdempotentMeasure, mu2: IdempotentMeasure) -> dict[str, int]:
    """Tight patterns, distinct pattern boxes and inclusion-minimal fixed sets."""
    fixed = [frozenset(p.fixed) for p in tight_patterns(mu1, mu2)]
    distinct = set(fixed)
    minimal = [F for F in distinct if not any(G < F for G in distinct)]
    cells = len(product_space(mu1.space, mu2.space))
    return {
        "openness.patterns": len(fixed),
        "openness.boxes_distinct": len(distinct),
        "openness.boxes_minimal": len(minimal),
        "openness.family_size": 2 ** cells,
    }


def gap_deviation(coupling: IdempotentMeasure, target: IdempotentMeasure) -> float:
    """max over the {0,-1} indicator family of |coupling(phi) - target(phi)|."""
    m = len(coupling.space)
    family = -((np.arange(2 ** m)[:, None] >> np.arange(m - 1, -1, -1)) & 1).astype(float)
    lhs = (family + np.array(coupling.weights)).max(axis=1)
    rhs = (family + np.array(target.weights)).max(axis=1)
    return float(np.abs(lhs - rhs).max())
