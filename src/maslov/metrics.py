"""Lipschitz-dual pseudometrics between measures on a finite metric space.

dhat_n(μ, ν) is the supremum of |μ(φ) - ν(φ)| over functions φ with
Lipschitz constant at most n.  Two independent evaluators are provided:

* a closed form, max over μ-atoms of the min over ν-atoms of
  (λ_i - κ_j + n·d_ij), symmetrized - the sup is attained at cone
  functions φ = -n·d(x_i, ·), and the Lipschitz constraint caps it from
  above;
* a brute-force grid oracle that sweeps Lipschitz-feasible value vectors.

One kernel, `_gaps`, computes the closed form between two stacks of
weight vectors; `maxmin_gap`, `dhat`, `dtilde`, `inner_distance_table`
and `outer_dtilde` call it.  The oracle gates the closed form in the test
suite; the closed form is what the rest of the library uses.  Both
evaluators accept pseudometric tables at the array level, which is what
the iterated (measure-of-measure) distance needs.
"""

from __future__ import annotations

import math
import sys
from typing import TYPE_CHECKING, Sequence

from .core import NEG_INF, MetricSpace, _as_weights, _distances, _real, _require, _tuple
from .measures import IdempotentMeasure

# numpy is imported inside the array kernels, as in core.
if TYPE_CHECKING:
    import numpy as np

    from .monad import OuterMeasure

_SLACK_EPS = 1e-9
_GRID_CAP = 4_000_000
# _gaps takes the column vectors in blocks of at most this many terms
# (32 MB), or one vector at a time when one has more.
_BLOCK_TERMS = 1 << 22


def maxmin_gap(
    dist: Sequence[Sequence[float]] | np.ndarray, n: int, lam: Sequence[float], kap: Sequence[float]
) -> float:
    """Closed-form dual gap on raw weight vectors over a (pseudo)distance table.

    The arguments are checked by `_gap_args`, as `grid_gap`'s are: n, the
    two weight vectors and the table, a pseudometric with one row per
    weight.  Each term is (λ_i - κ_j) + n·d_ij, associated in that order,
    so the result does not depend on how the table is stored.  Where
    n·d_ij alone would overflow, the terms are taken at half scale (see
    `_scaled`); a gap past the float maximum raises ValueError.
    """
    import numpy as np

    d, lam, kap = _gap_args(dist, n, lam, kap)
    return float(_gaps(n, d, np.array([lam]), np.array([kap]))[0, 0])


def _gap_args(
    dist: Sequence[Sequence[float]] | np.ndarray, n: int, lam: Sequence[float], kap: Sequence[float]
) -> tuple[np.ndarray, tuple[float, ...], tuple[float, ...]]:
    """The float64 table and the two weight tuples of a dual gap, checked.

    n must pass `_check_n`.  The weights are read by `core._as_weights`,
    so text is a TypeError and NaN or +inf a ValueError.  A table that is
    not an array is read once by `core._tuple`, so text or a value that is
    not iterable is TypeError("distances must be numbers").  The vectors
    and the table must have one entry and one row per point ("inconsistent
    table sizes"), and each vector a finite entry.  The table is read by
    `core._distances` without the metric rules, as the ground tables one
    level up are pseudometrics: square, finite, nonnegative and symmetric,
    with the errors `MetricSpace` raises for those defects.
    """
    import numpy as np

    _check_n(n)
    lam, kap = _as_weights(lam), _as_weights(kap)
    if not (isinstance(dist, np.ndarray) and dist.ndim):
        dist = _tuple(dist, "distances must be numbers")
    m = len(lam)
    if len(kap) != m or len(dist) != m:
        raise ValueError("inconsistent table sizes")
    if not any(w > NEG_INF for w in lam) or not any(w > NEG_INF for w in kap):
        raise ValueError("weight vectors must each have a finite entry")
    return _distances(dist, m, metric=False), lam, kap


def _gaps(n: int, d: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """The dual gap from every row weight vector to every column one.

    d is a table from row points to column points; each vector of `rows`
    weighs the row points and each of `cols` the column points, with at
    least one finite entry.  Entry (i, j) is the larger of the one-sided
    gaps max_a min_b ((λ_a - κ_b) + n·d_ab), from λ = rows[i] to
    κ = cols[j], and back from κ to λ over d.T.  It is the gap itself; a
    caller wanting dtilde divides by n.

    One array pass per row λ: with s its support, the terms
    (λ_a - κ_b) + n·d_ab for a in s, every column vector κ and every point
    b are associated in that order, so each entry equals the gap of its
    pair computed alone, bit for bit.  λ_a is finite on s, so a κ_b of
    -inf gives a term of +inf, never -inf - -inf: no NaN appears, and the
    min over b passes over it to the support of κ, which is never empty.
    The max over a gives the one-sided gap from λ to every κ.  The columns
    are taken in blocks of at most `_BLOCK_TERMS` terms; a block computes
    the same terms.  The gaps back from the columns are the transpose when
    `cols` is `rows` (d is then square and symmetric), and a second pass
    over d.T otherwise.

    Overflow: the terms are taken at the scale s of `_scaled`, 1 or 2, and
    the gap x found at that scale is returned as s·x, which is exact, or
    ValueError names d where s·x passes the float maximum.  So a caller's
    (s·x)/n rounds the real s·x/n once, as x/(n/s) would.
    """
    import numpy as np

    nd, scale = _scaled(n, d)
    A = rows / scale
    B = A if cols is rows else cols / scale

    def one_sided(P, Q, table):
        one = np.empty((len(P), len(Q)))
        for i, row in enumerate(P):
            s = row > NEG_INF
            a, ds = row[s, None], table[s]
            step = max(1, _BLOCK_TERMS // ds.size)
            for j in range(0, len(Q), step):
                t = a - Q[j:j + step, None, :]
                t += ds
                one[i, j:j + step] = t.min(axis=2).max(axis=1)
        return one

    with np.errstate(over="ignore"):
        there = one_sided(A, B, nd)
        back = there.T if B is A else one_sided(B, A, nd.T).T
        gap = scale * np.maximum(there, back)
    if (gap == math.inf).any():
        raise ValueError(
            f"the dual gap passes the float maximum: n = {n} on a metric"
            f" with distances up to {d.max():g}"
        )
    return gap


def _scaled(n: int, d: np.ndarray) -> tuple[np.ndarray, float]:
    """n·d and 1, or, where some n·d_ij overflows, (n/2)·d and 2.

    At scale 2 the caller halves the weights too, so each term
    (λ_i - κ_j) + n·d_ij is computed at half its value with the same
    roundings (halving is exact short of subnormals), and multiplies the
    result by 2.  A term then reads +inf only when its value passes the
    float maximum (as λ_i - κ_j is at least minus the maximum, n·d_ij over
    twice the maximum makes such a term).  So the min over a row never
    passes over a smaller term, and the gap is +inf only when it has no
    float value.

    The half-scale table is rounded once, as n/2 is exactly half of n as
    a float.  A finite table overflows only at n ≥ 2, where (n/2)·d_ij
    keeps a positive subnormal distance positive; d_ij/2 would round it
    to 0.
    """
    import numpy as np

    with np.errstate(over="ignore"):
        nd = n * d
        if np.isinf(nd).any():
            return (n / 2) * d, 2.0
    return nd, 1.0


def _check_n(n: int) -> None:
    """Reject a Lipschitz class bound n that is not a positive integer a
    float holds."""
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ValueError("the Lipschitz class bound n must be a positive integer")
    _real(n, "", "the Lipschitz class bound n")  # an int: only its size can fail


def _check(n: int, X: MetricSpace, *measures: IdempotentMeasure) -> None:
    """Check n, the class of X and of each measure, and that each measure
    lives on X's points."""
    _check_n(n)
    _require(X, MetricSpace, "a dual distance's metric")
    for mu in measures:
        _require(mu, IdempotentMeasure, "a compared measure")
    if any(mu.space != X.space for mu in measures):
        raise ValueError("measures must live on the metric space's point set")


def dhat(n: int, X: MetricSpace, mu: IdempotentMeasure, nu: IdempotentMeasure) -> float:
    """sup |μ(φ) - ν(φ)| over n-Lipschitz φ, via the closed form.

    X's table was checked when X was built, so it goes to `_gaps` without
    `maxmin_gap`'s pass over its entries.
    """
    _check(n, X, mu, nu)
    import numpy as np

    return float(_gaps(n, X._table, np.array([mu.weights]), np.array([nu.weights]))[0, 0])


def dtilde(n: int, X: MetricSpace, mu: IdempotentMeasure, nu: IdempotentMeasure) -> float:
    """dhat scaled by 1/n; makes the Dirac embedding an exact isometry."""
    return dhat(n, X, mu, nu) / n


def grid_gap(
    dist: Sequence[Sequence[float]] | np.ndarray,
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
    The arguments are checked by `_gap_args`, as `maxmin_gap`'s are, and
    then step and radius, which are read by `core._real`: one that is not
    a number is a TypeError in the words of the bound it must meet.
    """
    import numpy as np

    d, lam, kap = _gap_args(dist, n, lam, kap)
    message = "step and radius must be finite and positive"
    step, radius = _real(step, message), _real(radius, message)
    if not (0 < step < math.inf and 0 < radius < math.inf):  # NaN fails both
        raise ValueError(message)
    rows = d.tolist()
    m = len(rows)
    if m == 1:
        return 0.0

    # The grid is sized before any axis is built: a tiny step must neither
    # allocate an axis past the cap nor overflow bound / step.
    slack = step + _SLACK_EPS
    ks: list[int] = []
    for i in range(1, m):
        bound = min(radius + step, n * rows[0][i] + slack)
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
            feasible = feasible & (np.abs(vs[i] - vs[j]) <= n * rows[i][j] + slack)

    def evaluate(weights: Sequence[float]) -> np.ndarray:
        acc = None
        for i, w in enumerate(weights):
            if w == NEG_INF:
                continue
            term = vs[i] + w
            acc = term if acc is None else np.maximum(acc, term)
        return acc

    gap = np.abs(evaluate(lam) - evaluate(kap))
    gap = np.where(feasible, gap, -np.inf)
    return float(np.max(gap))


def default_radius(
    n: int, X: MetricSpace, mu: IdempotentMeasure, nu: IdempotentMeasure
) -> float:
    """n times the diameter plus the deepest finite weight in either measure.

    A sum past the float maximum is held at the maximum.  The radius only
    caps the grid's axes, which n·d_0i caps as well, so such a radius
    leaves the grid to those caps and to `grid_gap`'s cell cap, rather
    than being rejected as a radius the caller never gave.
    """
    wmin = min(
        [w for w in mu.weights if w > NEG_INF] + [w for w in nu.weights if w > NEG_INF]
    )
    return min(n * X.diameter + abs(wmin), sys.float_info.max)


def dhat_oracle(
    n: int,
    X: MetricSpace,
    mu: IdempotentMeasure,
    nu: IdempotentMeasure,
    *,
    step: float = 0.01,
) -> float:
    """Grid-sweep evaluation of the dual gap, independent of the closed form."""
    _check(n, X, mu, nu)
    radius = max(default_radius(n, X, mu, nu), step)
    return grid_gap(X._table, n, mu.weights, nu.weights, step=step, radius=radius)


def inner_distance_table(
    n: int, X: MetricSpace, measures: Sequence[IdempotentMeasure]
) -> list[list[float]]:
    """Pairwise dtilde table over a list of measures (a pseudometric).

    Every entry off the diagonal equals `dtilde` on its pair, bit for bit
    (see `_gaps`, which computes each one-sided gap once); the diagonal
    is 0.  n and the space of every measure are checked for any number
    of measures, as `dtilde` checks them.
    """
    _check(n, X, *measures)
    import numpy as np

    W = np.array([mu.weights for mu in measures])
    table = _gaps(n, X._table, W, W) / n
    np.fill_diagonal(table, 0.0)
    return table.tolist()


def outer_dtilde(n: int, X: MetricSpace, M: OuterMeasure, N: OuterMeasure) -> float:
    """The iterated pseudometric one level up: dtilde over (measures, dtilde).

    The ground set is the combined list of inner measures with the dtilde
    pseudometric between them; the same closed form applies because the
    cone-function argument only needs the triangle inequality.  With the
    outer weights λ of M and κ of N, the gap reads only the distances
    from M's support to N's support, so only that p×q block of the
    ground table is computed: the result equals
    `maxmin_gap(inner_distance_table(n, X, M.inner + N.inner), n,
    λ‖-inf, -inf‖κ) / n` wherever that returns.  n and the classes of X,
    M and N are checked, and that M and N live over X's points, as every
    inner measure then does.  A pair the gap does not read (within M,
    within N, or with an inner measure of weight -inf) is not computed, so
    a gap past the float maximum there raises nothing.
    """
    from .monad import OuterMeasure  # here, so `maslov dist` loads no monad

    _check(n, X)
    _require(M, OuterMeasure, "an outer dtilde's argument")
    _require(N, OuterMeasure, "an outer dtilde's argument")
    if M.base != X.space or N.base != X.space:
        raise ValueError("outer measures must live over the metric space's point set")
    import numpy as np

    lam, kap = np.array([M.weights]), np.array([N.weights])
    sup_l, sup_k = lam[0] > NEG_INF, kap[0] > NEG_INF
    R = np.array([m.weights for m, s in zip(M.inner, sup_l) if s])
    C = np.array([m.weights for m, s in zip(N.inner, sup_k) if s])
    cross = _gaps(n, X._table, R, C) / n
    return float(_gaps(n, cross, lam[:, sup_l], kap[:, sup_k])[0, 0]) / n
