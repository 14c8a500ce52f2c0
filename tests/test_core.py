import itertools
import math
import sys

import numpy as np
import pytest
from hypothesis import given

from conftest import dyadic_weight
from maslov import (
    NEG_INF,
    FiniteFunction,
    FiniteSpace,
    MetricSpace,
    ProductSpace,
    metric_closure,
    odot,
    oplus,
    product_space,
    space,
    weight_distance,
)
from maslov.core import flatten_space, pointwise_max


class TestSemiring:
    def test_oplus_examples(self):
        assert oplus(3, 5) == 5
        assert oplus(NEG_INF, -2) == -2
        assert oplus(0, 0) == 0

    def test_odot_examples(self):
        assert odot(2, 3) == 5
        assert odot(NEG_INF, 7) == NEG_INF
        assert odot(0, -1.25) == -1.25

    @given(dyadic_weight, dyadic_weight, dyadic_weight)
    def test_semiring_laws(self, a, b, c):
        assert oplus(a, b) == oplus(b, a)
        assert odot(a, b) == odot(b, a)
        assert oplus(oplus(a, b), c) == oplus(a, oplus(b, c))
        assert odot(odot(a, b), c) == odot(a, odot(b, c))
        assert odot(a, oplus(b, c)) == oplus(odot(a, b), odot(a, c))
        assert oplus(a, a) == a
        assert oplus(a, NEG_INF) == a
        assert odot(a, 0.0) == a
        assert odot(a, NEG_INF) == NEG_INF

    def test_rejects_nan_and_plus_inf(self):
        with pytest.raises(ValueError):
            oplus(float("nan"), 0)
        with pytest.raises(ValueError):
            odot(float("inf"), 0)


class TestWeightDistance:
    def test_examples(self):
        assert weight_distance(NEG_INF, 0) == 1
        assert weight_distance(0, 0) == 0
        assert weight_distance(math.log(2), math.log(3)) == pytest.approx(1, abs=1e-12)

    @given(dyadic_weight, dyadic_weight, dyadic_weight)
    def test_metric_axioms(self, a, b, c):
        assert weight_distance(a, b) == weight_distance(b, a)
        assert weight_distance(a, a) == 0
        assert (weight_distance(a, b) == 0) == (a == b)
        assert weight_distance(a, c) <= weight_distance(a, b) + weight_distance(b, c) + 1e-15


class TestFiniteSpace:
    def test_order_and_lookup(self):
        X = FiniteSpace(("b", "a"))
        assert X.points == ("b", "a")
        assert X.index("a") == 1
        assert "b" in X and "z" not in X

    def test_rejects_bad_spaces(self):
        with pytest.raises(ValueError):
            FiniteSpace(())
        with pytest.raises(ValueError):
            FiniteSpace(("a", "a"))

    def test_product_is_row_major(self):
        X, Y = space("ab"), space("uv")
        P = product_space(X, Y)
        assert P.points == (("a", "u"), ("a", "v"), ("b", "u"), ("b", "v"))
        assert P.factors == (X, Y)


class TestProductSpaceInvariant:
    def test_points_cannot_be_passed(self):
        X, Y = space("ab"), space("uv")
        with pytest.raises(TypeError):
            ProductSpace(points=(("a", "u"),), factors=(X, Y))
        with pytest.raises(TypeError):
            ProductSpace((("a", "u"),), (X, Y))
        P = product_space(X, Y)
        with pytest.raises(AttributeError):
            P.points = (("a", "u"),)  # before the first read
        assert P.points == (("a", "u"), ("a", "v"), ("b", "u"), ("b", "v"))
        with pytest.raises(AttributeError):
            P.points = (("a", "u"),)  # and after it
        assert len(P.points) == 4

    def test_points_follow_the_factors(self):
        X, Y, Z = space("ab"), space("uvw"), space("c")
        P = ProductSpace((X, Y, Z))
        assert P == product_space(X, Y, Z)
        assert P.points == tuple(itertools.product(X.points, Y.points, Z.points))
        assert [P.index(p) for p in P.points] == list(range(len(P)))

    def test_rejects_bad_factors(self):
        with pytest.raises(ValueError, match="at least two factors"):
            ProductSpace((space("ab"),))
        with pytest.raises(ValueError, match="finite spaces"):
            ProductSpace((space("ab"), ("u", "v")))

    def test_nested_products(self):
        A, B, C = space("ab"), space("xy"), space("u")
        left = product_space(product_space(A, B), C)
        assert left.points == (
            (("a", "x"), "u"), (("a", "y"), "u"), (("b", "x"), "u"), (("b", "y"), "u"),
        )
        again = product_space(product_space(A, B), C)
        assert left == again and hash(left) == hash(again)
        assert left != product_space(A, product_space(B, C))
        assert left != product_space(A, B, C)
        assert left != FiniteSpace(left.points)

        flat, table = flatten_space(left)
        assert flat == product_space(A, B, C)
        assert table == {p: (*p[0], p[1]) for p in left.points}
        flat_r, table_r = flatten_space(product_space(A, product_space(B, C)))
        assert flat_r == flat
        assert table_r == {(a, (b, c)): (a, b, c) for a, b, c in flat.points}


class TestFiniteFunction:
    def test_rejects_infinite_values(self):
        X = space("ab")
        with pytest.raises(ValueError):
            FiniteFunction(X, (0.0, NEG_INF))

    def test_pointwise_ops(self):
        X = space("ab")
        phi = FiniteFunction(X, (1.0, 4.0))
        psi = FiniteFunction(X, (2.0, 3.0))
        assert pointwise_max(phi, psi).values == (2.0, 4.0)
        assert phi.shift(1.5).values == (2.5, 5.5)


def brute_force_shortest_paths(raw, n):
    """Minimum over all simple paths, as an independent closure oracle."""
    best = [[raw[i][j] for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(1, n - 1):
                for mids in itertools.permutations(
                    [m for m in range(n) if m not in (i, j)], k
                ):
                    path = [i, *mids, j]
                    length = sum(raw[a][b] for a, b in zip(path, path[1:]))
                    best[i][j] = min(best[i][j], length)
    return best


class TestMetricClosure:
    def test_shortcut_through_midpoint(self):
        X = space("abc")
        raw = [[0, 1, 5], [1, 0, 1], [5, 1, 0]]
        closed = metric_closure(X, raw)
        expected = brute_force_shortest_paths(raw, 3)
        assert closed.d("a", "c") == 2
        assert [list(row) for row in closed.dist] == expected

    def test_idempotent_on_metrics(self):
        X = space("abc")
        raw = [[0, 1.0, 1.5], [1.0, 0, 1.25], [1.5, 1.25, 0]]
        closed = metric_closure(X, raw)
        assert [list(r) for r in closed.dist] == raw
        assert metric_closure(X, closed.dist).dist == closed.dist

    def test_two_points_unchanged(self):
        X = space("ab")
        assert metric_closure(X, [[0, 4], [4, 0]]).d("a", "b") == 4

    def test_rejects_asymmetric_or_negative(self):
        X = space("ab")
        with pytest.raises(ValueError):
            metric_closure(X, [[0, 1], [2, 0]])
        with pytest.raises(ValueError):
            metric_closure(X, [[0, -1], [-1, 0]])

    def test_random_closures_are_metrics(self):
        import random

        rng = random.Random(4)
        for _ in range(25):
            n = rng.randint(2, 5)
            X = FiniteSpace(tuple(f"p{i}" for i in range(n)))
            raw = [[0.0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    raw[i][j] = raw[j][i] = rng.randrange(1, 9) / 4.0
            closed = metric_closure(X, raw)
            assert isinstance(closed, MetricSpace)  # constructor enforces the axioms
            expected = brute_force_shortest_paths(raw, n)
            assert [list(row) for row in closed.dist] == expected

    def test_real_valued_closures_pass_their_own_check(self):
        # sums of non-dyadic distances round, so the exact triangle test
        # rejected about 4 in 10 of these closures; closing them again
        # moves entries by an ulp in some (126 of 300), and what comes out
        # is still accepted
        import random

        rng = random.Random(0)
        moved = 0
        for _ in range(300):
            n = rng.randint(4, 12)
            X = FiniteSpace(tuple(f"p{i}" for i in range(n)))
            raw = [[0.0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    raw[i][j] = raw[j][i] = rng.uniform(0.1, 10.0)
            closed = metric_closure(X, raw)
            assert MetricSpace(X, closed.dist).dist == closed.dist
            again = metric_closure(X, closed.dist)
            assert MetricSpace(X, again.dist).dist == again.dist
            assert all(abs(a - b) <= 1e-14 * b for ra, rb in zip(again.dist, closed.dist)
                       for a, b in zip(ra, rb))
            moved += again.dist != closed.dist
        assert moved > 0


class TestMetricSpaceValidation:
    SYMMETRIC = "distance table must be symmetric"
    DIAGONAL = "distance from a point to itself must be 0"
    RANGE = "distances must be finite and nonnegative"
    POSITIVE = "distinct points must be at positive distance"
    TRIANGLE = "triangle inequality fails"
    NAN, INF = math.nan, math.inf

    @pytest.mark.parametrize(
        "table, message",
        [
            # one defect
            ([[1, 1], [1, 0]], DIAGONAL),
            ([[NAN, 1], [1, 0]], DIAGONAL),
            ([[0, -1], [-1, 0]], RANGE),
            ([[0, INF], [INF, 0]], RANGE),
            ([[0, NAN], [NAN, 0]], RANGE),
            ([[0, 1], [2, 0]], SYMMETRIC),
            ([[0, 0], [0, 0]], POSITIVE),
            ([[0, 1, 5], [1, 0, 1], [5, 1, 0]], TRIANGLE),
            # several defects: the first in row-major order, diagonal first in a row
            ([[0, 1], [2, 1]], SYMMETRIC),
            ([[0, 1], [NAN, 0]], SYMMETRIC),
            ([[0, 1, 1], [2, 0, 1], [1, 1, 5]], SYMMETRIC),
            ([[0, 2, -1], [1, 0, 1], [-1, 1, 0]], SYMMETRIC),
            ([[0, 1, 1], [1, 0, 0], [1, 0, 7]], POSITIVE),
            ([[0, 1, 1], [1, 3, -1], [1, -1, 0]], DIAGONAL),
            ([[0, 1, 1], [1, 0, -1], [1, 2, 9]], RANGE),
            ([[0, 0, 1], [0, 3, 1], [1, 1, 0]], POSITIVE),
            ([[0, 9, 1], [9, 0, 1], [1, 1, 0]], TRIANGLE),
        ],
    )
    def test_first_defect_names_the_error(self, table, message):
        X = FiniteSpace(tuple(f"p{i}" for i in range(len(table))))
        with pytest.raises(ValueError, match=message):
            MetricSpace(X, table)

    def test_triangle_slack_is_n_epsilon(self):
        # d_ac may exceed d_ab + d_bc = 2 by the relative slack 3·ε, not more
        bound = 2.0 * (1.0 + 3 * sys.float_info.epsilon)
        X = space("abc")
        table = lambda ac: [[0, 1, ac], [1, 0, 1], [ac, 1, 0]]  # noqa: E731
        assert MetricSpace(X, table(bound)).d("a", "c") == bound
        with pytest.raises(ValueError, match=self.TRIANGLE):
            MetricSpace(X, table(math.nextafter(bound, math.inf)))

    def test_not_square(self):
        with pytest.raises(ValueError, match="square"):
            MetricSpace(space("ab"), ((0.0, 1.0), (1.0,)))

    @pytest.mark.parametrize(
        "table, dtype",
        [
            ([[0, 1, 2], [1, 0, 1], [2, 1, 0]], float),
            ([[0, 1, 2], [1, 0, 1], [2, 1, 0]], int),
            ([[0, 0.1, 0.2], [0.1, 0, 0.1], [0.2, 0.1, 0]], np.float32),
            ([[0, 1, 5], [1, 0, 1], [5, 1, 0]], float),
            ([[0, 1, 1], [2, 0, 1], [1, 1, 0]], float),
            ([[0, NAN, 1], [NAN, 0, 1], [1, 1, 0]], float),
            ([[0, 0, 1], [0, 0, 1], [1, 1, 0]], float),
            ([[1, 1, 1], [1, 0, 1], [1, 1, 0]], float),
            ([[0, 1], [1, 0]], float),
            ([[0, 1, 1], [1, 0, 1]], float),
            ([[[0], [1], [1]], [[1], [0], [1]], [[1], [1], [0]]], float),
        ],
    )
    def test_list_tuple_and_array_alike(self, table, dtype):
        def outcome(dist):
            try:
                return MetricSpace(space("abc"), dist).dist
            except (ValueError, TypeError) as exc:
                return type(exc), str(exc)

        arr = np.array(table, dtype=dtype)
        rows = arr.tolist()
        want = outcome(rows)
        assert outcome(tuple(map(tuple, rows))) == want
        assert outcome(arr) == want
        assert outcome(np.asfortranarray(arr)) == want

    def test_matrix_is_a_copy(self):
        X = metric_closure(space("abc"), [[0, 1, 5], [1, 0, 1], [5, 1, 0]])
        m = X.matrix
        m[0, 2] = 99.0
        assert X.matrix[0, 2] == 2.0 and X.d("a", "c") == 2.0
        assert X.matrix is not X.matrix
