import math
import random
import sys

import pytest

from maslov import (
    NEG_INF,
    FiniteSpace,
    IdempotentMeasure,
    MetricSpace,
    OuterMeasure,
    PointMap,
    dhat,
    dhat_oracle,
    dirac,
    dtilde,
    metric_closure,
    normalize,
    pushforward,
    space,
    weight_distance,
)
from maslov.laws import rand_measure
from maslov.metrics import default_radius, grid_gap, inner_distance_table, maxmin_gap, outer_dtilde

X2 = space("ab")
M2 = metric_closure(X2, [[0, 1], [1, 0]])


def rand_metric_space(rng, n):
    sp = FiniteSpace(tuple(f"p{i}" for i in range(n)))
    raw = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            raw[i][j] = raw[j][i] = rng.randrange(1, 5) / 4.0
    return metric_closure(sp, raw)


def rand_shallow_measure(rng, sp):
    """Weights in {0, -0.25, ..., -1} with sparse -inf; keeps oracle radii small."""
    raw = [NEG_INF if rng.random() < 0.15 else -rng.randrange(0, 5) / 4.0 for _ in sp.points]
    if max(raw) == NEG_INF:
        raw[rng.randrange(len(raw))] = 0.0
    return normalize(sp, raw)


class TestClosedFormWorkedValues:
    def test_dirac_pair_scales_with_n(self):
        for n in (1, 2, 3):
            assert dhat(n, M2, dirac(X2, "a"), dirac(X2, "b")) == n * 1.0
            assert dtilde(n, M2, dirac(X2, "a"), dirac(X2, "b")) == 1.0

    def test_coincidence(self):
        mu = IdempotentMeasure(X2, (0.0, -0.5))
        assert dhat(1, M2, mu, mu) == 0.0

    def test_half_weight_instance(self):
        mu = IdempotentMeasure(X2, (0.0, -0.5))
        assert dhat(1, M2, mu, dirac(X2, "a")) == 0.5

    def test_dtilde_is_scaled_dhat(self):
        mu = IdempotentMeasure(X2, (0.0, -0.5))
        nu = dirac(X2, "b")
        assert dtilde(1, M2, mu, nu) == dhat(1, M2, mu, nu)
        assert dtilde(2, M2, mu, nu) == dhat(2, M2, mu, nu) / 2


class TestLipschitzBound:
    HUGE = 10**400  # an int that float() cannot hold

    @pytest.mark.parametrize(
        "call",
        [
            lambda n: dhat(n, M2, dirac(X2, "a"), dirac(X2, "b")),
            lambda n: dhat_oracle(n, M2, dirac(X2, "a"), dirac(X2, "b")),
            lambda n: inner_distance_table(n, M2, [dirac(X2, "a"), dirac(X2, "b")]),
        ],
        ids=["dhat", "dhat_oracle", "inner_distance_table"],
    )
    def test_n_past_the_float_range_rejected(self, call):
        with pytest.raises(ValueError, match="^the Lipschitz class bound n is too large for a float$"):
            call(self.HUGE)


class TestOverflow:
    """n·d past the float maximum: the terms are taken at half scale, so a
    gap with a float value is computed, and one without raises an error that
    names n.  No RuntimeWarning either way (the suite turns warnings into
    errors)."""

    X3 = space("abc")
    FAR = MetricSpace(X3, tuple(tuple(0.0 if i == j else 1e308 for j in range(3)) for i in range(3)))
    MESSAGE = "^the dual gap passes the float maximum: n = 2 on a metric with distances up to 1e\\+308$"

    def test_disjoint_supports_rejected(self):
        a, b = dirac(self.X3, "a"), dirac(self.X3, "b")
        with pytest.raises(ValueError, match=self.MESSAGE):
            dhat(2, self.FAR, a, b)
        with pytest.raises(ValueError, match=self.MESSAGE):
            inner_distance_table(2, self.FAR, [a, b])

    def test_overlapping_supports_exact(self):
        mu = IdempotentMeasure(self.X3, (0.0, -2.0, NEG_INF))
        nu = IdempotentMeasure(self.X3, (-2.0, 0.0, NEG_INF))
        assert dhat(2, self.FAR, mu, nu) == 2.0
        assert inner_distance_table(2, self.FAR, [mu, nu]) == [[0.0, 1.0], [1.0, 0.0]]
        assert dhat(1, self.FAR, dirac(self.X3, "a"), dirac(self.X3, "b")) == 1e308

    def test_overflowing_product_with_a_finite_term(self):
        # n·d_cb = 2e308 overflows, but the term (-1e308 - 0) + 2e308 is 1e308;
        # at full scale it read +inf, and so did the min of its row and the gap
        d = ((0.0, 1e308, 0.85e308), (1e308, 0.0, 1e308), (0.85e308, 1e308, 0.0))
        M = MetricSpace(self.X3, d)
        mu = IdempotentMeasure(self.X3, (-1.5e308, 0.0, NEG_INF))
        nu = IdempotentMeasure(self.X3, (NEG_INF, 0.0, -1e308))
        assert dhat(2, M, mu, nu) == 1e308
        assert inner_distance_table(2, M, [mu, nu]) == [[0.0, 0.5e308], [0.5e308, 0.0]]
        # moving mu's mass from b to c leaves a row of terms all above the maximum
        mu = IdempotentMeasure(self.X3, (-1.5e308, NEG_INF, 0.0))
        with pytest.raises(ValueError, match="^the dual gap passes the float maximum: n = 2 "):
            dhat(2, M, mu, nu)

    def test_subnormal_distance_survives_half_scale(self):
        # n·d_ac overflows at n = 2, so the table is taken at half scale;
        # (n/2)·d_ab keeps the subnormal distance, where d_ab/2 rounded it to 0
        d = ((0.0, 5e-324, 1e308), (5e-324, 0.0, 1e308), (1e308, 1e308, 0.0))
        M = MetricSpace(self.X3, d)
        a, b = dirac(self.X3, "a"), dirac(self.X3, "b")
        assert dhat(1, M, a, b) == 5e-324
        assert dhat(2, M, a, b) == 1e-323
        assert dhat(4, M, a, b) == 2e-323
        assert maxmin_gap(d, 2, a.weights, b.weights) == 1e-323
        assert inner_distance_table(2, M, [a, b]) == [[0.0, 5e-324], [5e-324, 0.0]]
        assert outer_dtilde(2, M, OuterMeasure(self.X3, (a,), (0.0,)), OuterMeasure(self.X3, (b,), (0.0,))) == 5e-324

    def test_outer_gap_reads_only_the_cross_block(self):
        # a and b lie 1.6e308 apart, so at n = 2 their dual gap passes the
        # maximum, while each lies 0.85e308 from c.  outer_dtilde computes
        # only the distances from M's support to N's support, so a pair
        # within M, within N or with an inner weight of -inf may overflow.
        d = ((0.0, 1.6e308, 0.85e308), (1.6e308, 0.0, 0.85e308), (0.85e308, 0.85e308, 0.0))
        X = MetricSpace(self.X3, d)
        a, b, c = (dirac(self.X3, p) for p in "abc")
        message = "^the dual gap passes the float maximum: n = 2 on a metric with distances up to 1.6e\\+308$"
        with pytest.raises(ValueError, match=message):
            inner_distance_table(2, X, [a, b, c])
        C = OuterMeasure(self.X3, (c,), (0.0,))
        for M, N in [
            (OuterMeasure(self.X3, (a, b), (0.0, -1.0)), C),  # within M
            (C, OuterMeasure(self.X3, (b, a), (-1.0, 0.0))),  # within N
            (OuterMeasure(self.X3, (c, a), (0.0, NEG_INF)), OuterMeasure(self.X3, (b,), (0.0,))),
        ]:
            assert outer_dtilde(2, X, M, N) == outer_dtilde(2, X, N, M) == 0.85e308
            with pytest.raises(ValueError, match=message):
                inner_distance_table(2, X, M.inner + N.inner)
        # a pair the gap reads still raises
        with pytest.raises(ValueError, match=message):
            outer_dtilde(2, X, OuterMeasure(self.X3, (a,), (0.0,)), OuterMeasure(self.X3, (b, c), (0.0, -1.0)))

    def test_oracle_radius_held_at_the_float_maximum(self):
        # n·diameter + 2 overflows at n = 2; the grid, not the radius, is rejected
        mu = IdempotentMeasure(self.X3, (0.0, -2.0, NEG_INF))
        nu = IdempotentMeasure(self.X3, (-2.0, 0.0, NEG_INF))
        assert default_radius(1, self.FAR, mu, nu) == 1e308  # + 2 rounds away
        assert default_radius(2, self.FAR, mu, nu) == sys.float_info.max
        for n in (1, 2):
            with pytest.raises(ValueError, match="^oracle grid has over 4000000 cells on axis 1 alone$"):
                dhat_oracle(n, self.FAR, mu, nu)


class TestOracleGate:
    """The closed form must agree with the grid oracle before it is trusted."""

    def test_worked_instance(self):
        mu = IdempotentMeasure(X2, (0.0, -0.5))
        nu = dirac(X2, "a")
        assert abs(dhat_oracle(1, M2, mu, nu) - 0.5) <= 0.02

    def test_oracle_zero_on_equal_measures(self):
        mu = IdempotentMeasure(X2, (0.0, -0.5))
        assert dhat_oracle(1, M2, mu, mu) == 0.0

    def test_dirac_pairs(self):
        for n in (1, 2):
            got = dhat_oracle(n, M2, dirac(X2, "a"), dirac(X2, "b"))
            assert abs(got - n * 1.0) <= 0.02

    def test_random_three_point_sweep(self):
        rng = random.Random(31)
        for _ in range(20):
            X = rand_metric_space(rng, 3)
            mu, nu = rand_shallow_measure(rng, X.space), rand_shallow_measure(rng, X.space)
            for n in (1, 2, 3):
                assert abs(dhat(n, X, mu, nu) - dhat_oracle(n, X, mu, nu)) <= 0.02

    def test_grid_cap(self):
        with pytest.raises(ValueError):
            dhat_oracle(3, M2, dirac(X2, "a"), dirac(X2, "b"), step=1e-7)

    def test_one_point_space(self):
        one = FiniteSpace(("*",))
        M1 = MetricSpace(one, ((0.0,),))
        assert dhat(1, M1, dirac(one, "*"), dirac(one, "*")) == 0.0
        assert dhat_oracle(1, M1, dirac(one, "*"), dirac(one, "*")) == 0.0


class TestPseudometricAxioms:
    def test_random_triples(self):
        rng = random.Random(8)
        for _ in range(200):
            X = rand_metric_space(rng, rng.randint(2, 4))
            mu = rand_measure(rng, X.space)
            nu = rand_measure(rng, X.space)
            tau = rand_measure(rng, X.space)
            for n in (1, 2):
                assert dhat(n, X, mu, nu) >= 0.0
                assert dhat(n, X, mu, mu) == 0.0
                assert dhat(n, X, mu, nu) == dhat(n, X, nu, mu)
                assert dhat(n, X, mu, tau) <= dhat(n, X, mu, nu) + dhat(n, X, nu, tau) + 1e-12

    def test_not_a_metric(self):
        # distinct measures at dual distance zero for small n
        mu = IdempotentMeasure(X2, (0.0, -5.0))
        nu = IdempotentMeasure(X2, (0.0, -7.0))
        assert mu != nu
        assert dhat(1, M2, mu, nu) == 0.0

    def test_separation_with_growing_n(self):
        rng = random.Random(12)
        for _ in range(100):
            X = rand_metric_space(rng, rng.randint(2, 4))
            mu = rand_shallow_measure(rng, X.space)
            nu = rand_shallow_measure(rng, X.space)
            if mu == nu:
                continue
            assert any(dhat(n, X, mu, nu) > 0 for n in range(1, 9))


class TestNonexpansion:
    def test_pushforward_nonexpanding_maps(self):
        rng = random.Random(77)
        for _ in range(100):
            X = rand_metric_space(rng, rng.randint(2, 4))
            k = rng.randint(1, len(X.space))
            Y = FiniteSpace(tuple(f"q{i}" for i in range(k)))
            table = {}
            for i, x in enumerate(X.space.points):
                table[x] = Y.points[i] if i < k else rng.choice(Y.points)
            f = PointMap(X.space, Y, table)
            # quotient distances: min over fibers, then closed; never above
            # the source distances, so f is nonexpanding
            raw = [[0.0] * k for _ in range(k)]
            for i in range(k):
                for j in range(i + 1, k):
                    d = min(
                        X.d(x, y)
                        for x in f.fiber(Y.points[i])
                        for y in f.fiber(Y.points[j])
                    )
                    raw[i][j] = raw[j][i] = d
            if k > 1:
                Ym = metric_closure(Y, raw)
            else:
                Ym = MetricSpace(Y, ((0.0,),))
            mu, nu = rand_measure(rng, X.space), rand_measure(rng, X.space)
            for n in (1, 2):
                assert dhat(n, Ym, pushforward(f, mu), pushforward(f, nu)) <= dhat(n, X, mu, nu)

    def test_mixing_is_nonexpanding_two_levels(self):
        from maslov import multiply

        rng = random.Random(13)
        for _ in range(40):
            X = rand_metric_space(rng, 2)
            inner_m = tuple(rand_shallow_measure(rng, X.space) for _ in range(2))
            inner_n = tuple(rand_shallow_measure(rng, X.space) for _ in range(2))
            M = OuterMeasure(X.space, inner_m, (0.0, -rng.randrange(0, 3) / 4.0))
            N = OuterMeasure(X.space, inner_n, (-rng.randrange(0, 3) / 4.0, 0.0))
            n = rng.choice((1, 2))
            ground = dtilde(n, X, multiply(M), multiply(N))
            assert ground <= outer_dtilde(n, X, M, N) + 1e-12

    def test_two_level_closed_form_matches_grid(self):
        # gate the iterated closed form against the grid sweep on the
        # pseudometric table between inner measures
        rng = random.Random(14)
        for _ in range(5):
            X = rand_metric_space(rng, 2)
            inner_m = tuple(rand_shallow_measure(rng, X.space) for _ in range(2))
            inner_n = tuple(rand_shallow_measure(rng, X.space) for _ in range(2))
            M = OuterMeasure(X.space, inner_m, (0.0, -0.25))
            N = OuterMeasure(X.space, inner_n, (-0.5, 0.0))
            points = list(M.inner) + list(N.inner)
            ground = inner_distance_table(1, X, points)
            lam = list(M.weights) + [NEG_INF, NEG_INF]
            kap = [NEG_INF, NEG_INF] + list(N.weights)
            closed = maxmin_gap(ground, 1, lam, kap)
            radius = max(max(row) for row in ground) + 1.0
            grid = grid_gap(ground, 1, lam, kap, step=0.05, radius=radius)
            assert abs(closed - grid) <= 0.1


class TestSequentialContinuityShadow:
    def test_shrinking_weights(self):
        mu = dirac(X2, "a")
        values = []
        for k in (1, 2, 4, 8, 16, 64, 256):
            mu_k = IdempotentMeasure(X2, (0.0, -float(k)))
            assert weight_distance(mu_k.weights[1], NEG_INF) == math.exp(-k)
            values.append(dhat(1, M2, mu_k, mu))
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert values[-1] == 0.0 or values[-1] < 1e-6

    def test_atomwise_convergence_controls_dhat(self):
        mu = IdempotentMeasure(X2, (0.0, -1.0))
        for k in range(1, 50):
            mu_k = IdempotentMeasure(X2, (0.0, -1.0 - 1.0 / k))
            # same support: the dual gap is bounded by the sup-norm of the
            # weight difference
            assert dhat(2, M2, mu_k, mu) <= 1.0 / k + 1e-12
