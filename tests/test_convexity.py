import random

import pytest
from hypothesis import given

from conftest import dyadic, weight_tables
from maslov import (
    NEG_INF,
    IdempotentMeasure,
    OuterMeasure,
    PointCloudSpace,
    algebra_law_check,
    barycenter,
    dirac,
    hull_membership,
    integrate,
    normalize,
    pointwise_sup,
    space,
    support,
)
from maslov.core import FiniteFunction
from maslov.laws import rand_cloud, rand_outer, rand_space

X2 = space("pq")


def cloud2():
    return PointCloudSpace(X2, {"p": (0.0, 1.0), "q": (2.0, 0.0)})


def measures_on(sp):
    return weight_tables(len(sp)).map(lambda raw: normalize(sp, raw))


class TestBarycenter:
    def test_dirac_recovers_point(self):
        assert barycenter(cloud2(), dirac(X2, "p")) == (0.0, 1.0)
        assert barycenter(cloud2(), dirac(X2, "q")) == (2.0, 0.0)

    def test_weighted(self):
        mu = IdempotentMeasure(X2, (0.0, -1.0))
        assert barycenter(cloud2(), mu) == (1.0, 1.0)

    def test_uniform(self):
        mu = IdempotentMeasure(X2, (0.0, 0.0))
        assert barycenter(cloud2(), mu) == (2.0, 1.0)

    @given(measures_on(X2))
    def test_coordinates_are_integrals(self, mu):
        cl = cloud2()
        for k in range(cl.dim):
            coord = FiniteFunction(X2, tuple(cl.embed[p][k] for p in X2.points))
            assert barycenter(cl, mu)[k] == integrate(mu, coord)

    @given(measures_on(X2), measures_on(X2))
    def test_monotone_under_sup(self, mu, nu):
        cl = cloud2()
        top = barycenter(cl, pointwise_sup([mu, nu]))
        assert top == tuple(map(max, barycenter(cl, mu), barycenter(cl, nu)))

    def test_rejects_nonfinite_cloud(self):
        with pytest.raises(ValueError):
            PointCloudSpace(X2, {"p": (0.0, NEG_INF), "q": (1.0, 0.0)})


class TestAlgebraLaws:
    def test_single_component(self):
        mu = normalize(X2, {"p": 0, "q": -2})
        assert algebra_law_check(cloud2(), OuterMeasure(X2, (mu,), (0.0,)))

    def test_nested_two_by_two(self):
        m1 = IdempotentMeasure(X2, (0.0, -1.0))
        m2 = IdempotentMeasure(X2, (-2.0, 0.0))
        M = OuterMeasure(X2, (m1, m2), (0.0, -0.5))
        assert algebra_law_check(cloud2(), M)

    def test_random_sweep(self):
        rng = random.Random(23)
        for _ in range(100):
            sp = rand_space(rng, 4)
            cloud = rand_cloud(rng, sp, dim=2)
            assert algebra_law_check(cloud, rand_outer(rng, sp))


class TestHullMembership:
    def test_generator_is_member_with_weight_zero(self):
        gens = [(0.0, 0.0), (-5.0, -5.0)]
        ok, witness = hull_membership(gens, (0.0, 0.0))
        assert ok
        assert witness[0] == 0.0
        combo = tuple(
            max(witness[i] + gens[i][k] for i in range(len(gens))) for k in range(2)
        )
        assert combo == (0.0, 0.0)

    def test_constructed_member(self):
        g1, g2 = (0.0, 1.0), (2.0, 0.0)
        x = tuple(max(0.0 + a, -1.0 + b) for a, b in zip(g1, g2))
        ok, _ = hull_membership([g1, g2], x)
        assert ok

    def test_non_member(self):
        gens = [(0.0, 0.0), (1.0, -1.0)]
        assert hull_membership(gens, (0.0, -5.0)) == (False, None)
        # exhaustive check over a dyadic weight grid agrees
        grid = [k / 4.0 for k in range(-24, 9)] + [NEG_INF]
        for l1 in grid:
            for l2 in grid:
                combo = tuple(max(l1 + a, l2 + b) for a, b in zip(*gens))
                assert combo != (0.0, -5.0)

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError):
            hull_membership([(0.0, 0.0)], (0.0,))

    def test_rejects_zero_dimensional_points(self):
        with pytest.raises(ValueError, match="^hull membership needs at least one coordinate$"):
            hull_membership([()], ())
        with pytest.raises(ValueError, match="^hull membership needs at least one coordinate$"):
            hull_membership([(), ()], ())

    def test_rejects_infinite_generators(self):
        with pytest.raises(ValueError):
            hull_membership([(0.0, NEG_INF)], (0.0, 0.0))

    @given(measures_on(X2))
    def test_barycenter_always_member(self, mu):
        cl = cloud2()
        gens = [cl.embed[p] for p in sorted(support(mu), key=X2.index)]
        ok, _ = hull_membership(gens, barycenter(cl, mu))
        assert ok
