"""The array kernels against plain loop references.

The kernels perform the same IEEE operations (max, min, +, -, n·d) in the
same association order as the loops below, so every comparison here is
exact: `==` on tuples and floats, `np.array_equal` on tables, and the same
error message where the reference raises.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from maslov import (
    NEG_INF,
    FiniteSpace,
    IdempotentMeasure,
    MetricSpace,
    dhat,
    marginal,
    maxmin_gap,
    metric_closure,
    normalize,
    product_space,
    projection,
    pushforward,
    space,
)


# ------------------------------------------------------------ references

def _metric_space_loop(space, dist):
    """The pure-Python MetricSpace validator; returns the float rows."""
    n = len(space)
    rows = tuple(tuple(float(v) for v in row) for row in dist)
    if len(rows) != n or any(len(r) != n for r in rows):
        raise ValueError("distance table must be square over the space")
    for i in range(n):
        if rows[i][i] != 0.0:
            raise ValueError("distance from a point to itself must be 0")
        for j in range(n):
            v = rows[i][j]
            if not math.isfinite(v) or v < 0.0:
                raise ValueError("distances must be finite and nonnegative")
            if v != rows[j][i]:
                raise ValueError("distance table must be symmetric")
            if i != j and v == 0.0:
                raise ValueError("distinct points must be at positive distance")
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if rows[i][j] > rows[i][k] + rows[k][j]:
                    raise ValueError(
                        "triangle inequality fails; run metric_closure on the raw table"
                    )
    return rows


def _metric_closure_loop(space, raw):
    """The triple-loop Floyd-Warshall closure; returns the validated rows."""
    n = len(space)
    d = np.array(raw, dtype=float)
    if d.shape != (n, n):
        raise ValueError("raw table must be square over the space")
    if np.isnan(d).any() or np.isinf(d).any() or (d < 0).any():
        raise ValueError("raw dissimilarities must be finite and nonnegative")
    if not np.array_equal(d, d.T):
        raise ValueError("raw dissimilarities must be symmetric")
    if (np.diag(d) != 0).any():
        raise ValueError("raw dissimilarities must vanish on the diagonal")
    for k in range(n):
        for i in range(n):
            for j in range(n):
                via = d[i, k] + d[k, j]
                if via < d[i, j]:
                    d[i, j] = via
    return _metric_space_loop(space, tuple(tuple(row) for row in d.tolist()))


def _maxmin_gap_loop(dist, n, lam, kap):
    """The generator form of the closed-form dual gap."""
    sup_l = [i for i, w in enumerate(lam) if w > NEG_INF]
    sup_k = [j for j, w in enumerate(kap) if w > NEG_INF]
    if not sup_l or not sup_k:
        raise ValueError("weight vectors must each have a finite entry")

    def one_sided(rows, cols, a, b):
        return max(min(a[i] - b[j] + n * dist[i][j] for j in cols) for i in rows)

    return max(one_sided(sup_l, sup_k, lam, kap), one_sided(sup_k, sup_l, kap, lam))


def _marginal_by_projection(mu, axis):
    return pushforward(projection(mu.space, axis), mu)


def _outcome(fn, *args):
    """A result, or the message of the ValueError it raised."""
    try:
        return fn(*args)
    except ValueError as exc:
        return ("raised", str(exc))


# ---------------------------------------------------------------- inputs

def _labels(prefix, n):
    return FiniteSpace(tuple(f"{prefix}{i}" for i in range(n)))


def _dyadic_table(gen, n):
    upper = np.triu(gen.integers(1, 33, size=(n, n)) / 4.0, 1)
    return upper + upper.T


def _uniform_table(gen, n):
    upper = np.triu(gen.uniform(0.1, 10.0, size=(n, n)), 1)
    return upper + upper.T


def _weights(gen, n, dyadic):
    w = -gen.integers(0, 33, size=n) / 4.0 if dyadic else gen.uniform(-10.0, 0.0, size=n)
    w[gen.random(n) < 0.3] = NEG_INF
    w[gen.integers(n)] = 0.0
    return tuple(w.tolist())


TABLES = {"dyadic": _dyadic_table, "uniform": _uniform_table}


# ------------------------------------------------------------- closure

class TestClosureMatchesLoop:
    @pytest.mark.parametrize("kind", sorted(TABLES))
    def test_random_tables(self, kind):
        gen = np.random.default_rng(11)
        raised = 0
        for _ in range(60):
            n = int(gen.integers(1, 13))
            X = _labels("p", n)
            raw = TABLES[kind](gen, n)
            want = _outcome(_metric_closure_loop, X, raw)
            got = _outcome(metric_closure, X, raw)
            if want[0] == "raised":
                raised += 1
                assert got == want
            else:
                assert got.dist == want
                assert np.array_equal(got.matrix, np.array(want))
        if kind == "dyadic":
            assert raised == 0
        else:
            # real-valued closures still trip the exact triangle check
            assert 0 < raised < 60

    def test_one_point(self):
        X = space("a")
        assert metric_closure(X, [[0.0]]).dist == _metric_closure_loop(X, [[0.0]]) == ((0.0,),)

    def test_three_factor_product_space(self):
        A, B, C = space("ab"), space("xyz"), space("uv")
        P = product_space(A, B, C)
        raw = [[float(sum(s != t for s, t in zip(p, q))) for q in P.points] for p in P.points]
        closed = metric_closure(P, raw)
        assert closed.dist == _metric_closure_loop(P, raw)
        assert np.array_equal(closed.matrix, np.array(raw))


# ---------------------------------------------------------- validation

class TestMetricSpaceMatchesLoop:
    @given(
        st.integers(1, 4).flatmap(
            lambda n: st.lists(
                st.lists(
                    st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.0, 3.0, -1.0, math.inf, math.nan]),
                    min_size=n,
                    max_size=n,
                ),
                min_size=n,
                max_size=n,
            )
        )
    )
    def test_same_verdict_and_message(self, table):
        X = _labels("p", len(table))
        want = _outcome(_metric_space_loop, X, table)
        got = _outcome(lambda: MetricSpace(X, table).dist)
        assert got == want

    @pytest.mark.parametrize("kind", sorted(TABLES))
    def test_closed_tables(self, kind):
        gen = np.random.default_rng(12)
        for _ in range(40):
            n = int(gen.integers(1, 13))
            X = _labels("p", n)
            # closed tables reach the triangle check; real-valued ones may fail it
            d = TABLES[kind](gen, n)
            for k in range(n):
                d = np.minimum(d, d[:, k, None] + d[None, k, :])
            table = d.tolist()
            assert _outcome(lambda: MetricSpace(X, table).dist) == _outcome(
                _metric_space_loop, X, table
            )

    def test_one_point(self):
        X = space("a")
        assert MetricSpace(X, ((0.0,),)).dist == _metric_space_loop(X, ((0.0,),))


# ---------------------------------------------------------------- dhat

class TestMaxminGapMatchesLoop:
    @pytest.mark.parametrize("kind", sorted(TABLES))
    def test_random_weights(self, kind):
        gen = np.random.default_rng(13)
        dyadic = kind == "dyadic"
        for _ in range(60):
            m = int(gen.integers(1, 13))
            dist = TABLES[kind](gen, m).tolist()
            lam, kap = _weights(gen, m, dyadic), _weights(gen, m, dyadic)
            n = int(gen.integers(1, 8))
            assert maxmin_gap(dist, n, lam, kap) == _maxmin_gap_loop(dist, n, lam, kap)

    def test_dhat_on_closed_spaces(self):
        gen = np.random.default_rng(14)
        for _ in range(40):
            m = int(gen.integers(1, 13))
            X = metric_closure(_labels("p", m), _dyadic_table(gen, m))
            mu = IdempotentMeasure(X.space, _weights(gen, m, True))
            nu = IdempotentMeasure(X.space, _weights(gen, m, True))
            n = int(gen.integers(1, 8))
            assert dhat(n, X, mu, nu) == _maxmin_gap_loop(X.dist, n, mu.weights, nu.weights)

    def test_one_point(self):
        assert maxmin_gap([[0.0]], 3, [0.0], [0.0]) == _maxmin_gap_loop([[0.0]], 3, [0.0], [0.0])

    def test_three_factor_product_space(self):
        P = product_space(space("ab"), space("xyz"), space("uv"))
        raw = [[float(sum(s != t for s, t in zip(p, q))) for q in P.points] for p in P.points]
        X = metric_closure(P, raw)
        gen = np.random.default_rng(15)
        for n in (1, 2, 5):
            mu = IdempotentMeasure(P, _weights(gen, len(P), False))
            nu = IdempotentMeasure(P, _weights(gen, len(P), False))
            assert dhat(n, X, mu, nu) == _maxmin_gap_loop(X.dist, n, mu.weights, nu.weights)

    def test_empty_support_rejected_alike(self):
        args = ([[0.0, 1.0], [1.0, 0.0]], 1, [NEG_INF, NEG_INF], [0.0, NEG_INF])
        assert _outcome(maxmin_gap, *args) == _outcome(_maxmin_gap_loop, *args)


# ------------------------------------------------------------ marginal

class TestMarginalMatchesProjection:
    @pytest.mark.parametrize("dyadic", [True, False])
    def test_every_axis_of_three_factors(self, dyadic):
        gen = np.random.default_rng(16)
        for _ in range(30):
            factors = [_labels(c, int(gen.integers(1, 5))) for c in "abc"]
            P = product_space(*factors)
            mu = normalize(P, _weights(gen, len(P), dyadic))
            for axis in range(3):
                assert marginal(mu, axis) == _marginal_by_projection(mu, axis)

    @pytest.mark.parametrize("dyadic", [True, False])
    def test_two_factors(self, dyadic):
        gen = np.random.default_rng(17)
        for _ in range(30):
            P = product_space(_labels("a", int(gen.integers(1, 9))), _labels("b", int(gen.integers(1, 9))))
            mu = normalize(P, _weights(gen, len(P), dyadic))
            for axis in range(2):
                assert marginal(mu, axis) == _marginal_by_projection(mu, axis)

    def test_one_point_factors(self):
        P = product_space(space("a"), space("b"), space("c"))
        mu = IdempotentMeasure(P, (0.0,))
        for axis in range(3):
            assert marginal(mu, axis) == _marginal_by_projection(mu, axis)

    def test_nested_product(self):
        gen = np.random.default_rng(18)
        P = product_space(product_space(space("ab"), space("xyz")), space("uv"))
        mu = normalize(P, _weights(gen, len(P), False))
        for axis in range(2):
            assert marginal(mu, axis) == _marginal_by_projection(mu, axis)
