"""Lipschitz-dual pseudometrics between measures on a finite metric space.

dhat_n(μ, ν) is the supremum of |μ(φ) - ν(φ)| over functions φ with
Lipschitz constant at most n.  Two independent evaluators are provided:

* a closed form, max over μ-atoms of the min over ν-atoms of
  (λ_i - κ_j + n·d_ij), symmetrized - the sup is attained at cone
  functions φ = -n·d(x_i, ·), and the Lipschitz constraint caps it from
  above;
* a brute-force grid oracle that sweeps Lipschitz-feasible value vectors.

The oracle gates the closed form in the test suite; the closed form is
what the rest of the library uses.  Both evaluators accept pseudometric
tables at the array level, which is what the iterated (measure-of-measure)
distance needs.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Sequence

from .core import NEG_INF, MetricSpace
from .measures import IdempotentMeasure
from .monad import OuterMeasure

# numpy is imported inside the array kernels, as in core.
if TYPE_CHECKING:
    import numpy as np

_SLACK_EPS = 1e-9
_GRID_CAP = 4_000_000
# inner_distance_table takes the measures in blocks of at most this many
# terms (32 MB), or of one measure when one has more; the per-pair loop it
# replaced held up to p² terms at a time.
_BLOCK_TERMS = 1 << 22


def maxmin_gap(
    dist: Sequence[Sequence[float]] | np.ndarray, n: int, lam: Sequence[float], kap: Sequence[float]
) -> float:
    """Closed-form dual gap on raw weight vectors over a (pseudo)distance table.

    Each term is (λ_i - κ_j) + n·d_ij, associated in that order, so the
    result does not depend on how the table is stored.
    """
    import numpy as np

    d = np.asarray(dist, dtype=float)
    a = np.array(lam, dtype=float)
    b = np.array(kap, dtype=float)
    sup_l = a > NEG_INF
    sup_k = b > NEG_INF
    if not sup_l.any() or not sup_k.any():
        raise ValueError("weight vectors must each have a finite entry")

    def one_sided(x, y, sub):
        return ((x[:, None] - y[None, :]) + n * sub).min(axis=1).max()

    return float(max(one_sided(a[sup_l], b[sup_k], d[np.ix_(sup_l, sup_k)]),
                     one_sided(b[sup_k], a[sup_l], d[np.ix_(sup_k, sup_l)])))


def _check_pair(n: int, X: MetricSpace, mu: IdempotentMeasure, nu: IdempotentMeasure) -> None:
    if not isinstance(n, int) or n < 1:
        raise ValueError("the Lipschitz class bound n must be a positive integer")
    if mu.space != X.space or nu.space != X.space:
        raise ValueError("measures must live on the metric space's point set")


def dhat(n: int, X: MetricSpace, mu: IdempotentMeasure, nu: IdempotentMeasure) -> float:
    """sup |μ(φ) - ν(φ)| over n-Lipschitz φ, via the closed form."""
    _check_pair(n, X, mu, nu)
    return maxmin_gap(X._table, n, mu.weights, nu.weights)


def dtilde(n: int, X: MetricSpace, mu: IdempotentMeasure, nu: IdempotentMeasure) -> float:
    """dhat scaled by 1/n; makes the Dirac embedding an exact isometry."""
    return dhat(n, X, mu, nu) / n


def grid_gap(
    dist: Sequence[Sequence[float]],
    n: int,
    lam: Sequence[float],
    kap: Sequence[float],
    *,
    step: float = 0.01,
    radius: float,
) -> float:
    """Brute-force dual gap: sweep value vectors on a grid of spacing `step`.

    The first point is pinned to value 0 (weak additivity makes the gap
    shift-invariant); the remaining values range over multiples of `step`
    within [-radius, radius].  Lipschitz feasibility is checked with one
    grid-step of additive slack so the rounded optimizer stays on the
    grid; this keeps the oracle within one step of the true supremum.
    """
    import numpy as np

    m = len(lam)
    if len(kap) != m or len(dist) != m:
        raise ValueError("inconsistent table sizes")
    if not (0 < step < math.inf and 0 < radius < math.inf):  # NaN fails both
        raise ValueError("step and radius must be finite and positive")
    if m == 1:
        return 0.0

    # The grid is sized before any axis is built: a tiny step must neither
    # allocate an axis past the cap nor overflow bound / step.
    slack = step + _SLACK_EPS
    ks: list[int] = []
    for i in range(1, m):
        bound = min(radius + step, n * dist[0][i] + slack)
        if bound > _GRID_CAP * step:
            raise ValueError(f"oracle grid has over {_GRID_CAP} cells on axis {i} alone")
        ks.append(int(math.floor(bound / step + 1e-9)))
    cells = math.prod(2 * k + 1 for k in ks)
    if cells > _GRID_CAP:
        raise ValueError(f"oracle grid has {cells} cells, above the cap {_GRID_CAP}")
    axes = [np.arange(-k, k + 1, dtype=float) * step for k in ks]

    vs: list[np.ndarray] = [np.zeros(())]  # pinned base point
    for i, a in enumerate(axes):
        shape = [1] * (m - 1)
        shape[i] = a.size
        vs.append(a.reshape(shape))

    feasible = np.ones((), dtype=bool)
    for i in range(1, m):
        for j in range(i + 1, m):
            feasible = feasible & (np.abs(vs[i] - vs[j]) <= n * dist[i][j] + slack)

    def evaluate(weights: Sequence[float]) -> np.ndarray:
        acc = None
        for i, w in enumerate(weights):
            if w == NEG_INF:
                continue
            term = vs[i] + w
            acc = term if acc is None else np.maximum(acc, term)
        assert acc is not None
        return acc

    gap = np.abs(evaluate(lam) - evaluate(kap))
    gap = np.where(feasible, gap, -np.inf)
    return float(np.max(gap))


def default_radius(
    n: int, X: MetricSpace, mu: IdempotentMeasure, nu: IdempotentMeasure
) -> float:
    """n times the diameter plus the deepest finite weight in either measure."""
    wmin = min(
        [w for w in mu.weights if w > NEG_INF] + [w for w in nu.weights if w > NEG_INF]
    )
    return n * X.diameter + abs(wmin)


def dhat_oracle(
    n: int,
    X: MetricSpace,
    mu: IdempotentMeasure,
    nu: IdempotentMeasure,
    *,
    step: float = 0.01,
) -> float:
    """Grid-sweep evaluation of the dual gap, independent of the closed form."""
    _check_pair(n, X, mu, nu)
    radius = max(default_radius(n, X, mu, nu), step)
    return grid_gap(X.dist, n, mu.weights, nu.weights, step=step, radius=radius)


def inner_distance_table(
    n: int, X: MetricSpace, measures: Sequence[IdempotentMeasure]
) -> list[list[float]]:
    """Pairwise dtilde table over a list of measures (a pseudometric).

    One array pass per row i: with W the weight rows of the measures and s
    the support of μ_i, the terms (λ_a - κ_b) + n·d_ab for a in s, every
    measure κ and every point b are associated in that order, as in
    `maxmin_gap`, so each entry equals `dtilde` on its pair.  λ_a is
    finite on the support, so a κ_b of -inf gives a term of +inf, never
    -inf - -inf: no NaN appears, and the min over b passes over it to the
    support of κ, which is never empty.  The max over a then gives the
    one-sided gap from μ_i to every measure, and each entry is the larger
    of its two sides, divided by n.  A row is taken in blocks of measures
    of at most `_BLOCK_TERMS` terms; a block computes the same terms.
    """
    k = len(measures)
    if k < 2:
        return [[0.0] * k for _ in range(k)]
    for mu in measures[1:]:
        _check_pair(n, X, measures[0], mu)
    import numpy as np

    W = np.array([mu.weights for mu in measures])
    nd = n * X._table
    one = np.empty((k, k))
    for i, row in enumerate(W):
        s = row > NEG_INF
        a, ds = row[s, None], nd[s]
        step = max(1, _BLOCK_TERMS // ds.size)
        for j in range(0, k, step):
            t = a - W[j:j + step, None, :]
            t += ds
            one[i, j:j + step] = t.min(axis=2).max(axis=1)
    table = np.maximum(one, one.T) / n
    np.fill_diagonal(table, 0.0)
    return table.tolist()


def outer_dtilde(n: int, X: MetricSpace, M: OuterMeasure, N: OuterMeasure) -> float:
    """The iterated pseudometric one level up: dtilde over (measures, dtilde).

    The ground set is the combined list of inner measures with the dtilde
    pseudometric between them; the same closed form applies because the
    cone-function argument only needs the triangle inequality.
    """
    if M.base != X.space or N.base != X.space:
        raise ValueError("outer measures must live over the metric space's point set")
    points = list(M.inner) + list(N.inner)
    ground = inner_distance_table(n, X, points)
    lam = list(M.weights) + [NEG_INF] * len(N.inner)
    kap = [NEG_INF] * len(M.inner) + list(N.weights)
    return maxmin_gap(ground, n, lam, kap) / n
