import random

import pytest
from hypothesis import given

from conftest import function_grid, rand_surjection, weight_tables
from maslov import (
    NEG_INF,
    FiniteSpace,
    IdempotentMeasure,
    PointMap,
    dirac,
    integrate,
    lift_along_surjection,
    normalize,
    pushforward,
    space,
    support,
)
from maslov.functor import identity_map, lies_in_subspace, precompose
from maslov.laws import rand_map, rand_measure, rand_space

X3 = space("abc")
Y2 = space("uv")


def measures_on(sp):
    return weight_tables(len(sp)).map(lambda raw: normalize(sp, raw))


class TestPointMap:
    def test_validation(self):
        with pytest.raises(ValueError):
            PointMap(X3, Y2, {"a": "u"})  # not total
        with pytest.raises(ValueError):
            PointMap(X3, Y2, {"a": "u", "b": "u", "c": "z"})  # value outside target

    def test_composition_and_fibers(self):
        f = PointMap(X3, Y2, {"a": "u", "b": "v", "c": "v"})
        g = PointMap(Y2, Y2, {"u": "v", "v": "u"})
        assert f.then(g).table == {"a": "v", "b": "u", "c": "u"}
        assert f.fiber("v") == {"b", "c"}
        assert f.preimage({"v"}) == {"b", "c"}
        assert f.is_surjective and not f.is_injective


class TestPushforward:
    def test_collapse_keeps_uncollapsed_weights(self):
        f = PointMap(X3, Y2, {"a": "u", "b": "v", "c": "v"})
        mu = IdempotentMeasure(X3, (-1.0, 0.0, 0.0))
        assert pushforward(f, mu).weights == (-1.0, 0.0)

    def test_identity_and_dirac(self):
        mu = normalize(X3, {"a": -1, "b": 0, "c": -2})
        assert pushforward(identity_map(X3), mu) == mu
        f = PointMap(X3, Y2, {"a": "u", "b": "v", "c": "v"})
        assert pushforward(f, dirac(X3, "c")) == dirac(Y2, "v")

    @given(measures_on(X3))
    def test_functional_identity(self, mu):
        f = PointMap(X3, Y2, {"a": "u", "b": "v", "c": "v"})
        out = pushforward(f, mu)
        for phi in function_grid(Y2):
            assert integrate(out, phi) == integrate(mu, precompose(phi, f))

    def test_functor_laws_random(self):
        rng = random.Random(11)
        for _ in range(100):
            X = rand_space(rng, 4, "x")
            Y = rand_space(rng, 4, "y")
            Z = rand_space(rng, 4, "z")
            f, g = rand_map(rng, X, Y), rand_map(rng, Y, Z)
            mu = rand_measure(rng, X)
            assert pushforward(identity_map(X), mu) == mu
            assert pushforward(g, pushforward(f, mu)) == pushforward(f.then(g), mu)
            assert support(pushforward(f, mu)) == {f.table[x] for x in support(mu)}

    def test_injective_maps_stay_injective_on_measures(self):
        rng = random.Random(3)
        big = FiniteSpace(tuple(f"t{i}" for i in range(6)))
        for _ in range(100):
            X = rand_space(rng, 4, "x")
            labels = rng.sample(big.points, len(X))
            f = PointMap(X, big, dict(zip(X.points, labels)))
            mu, nu = rand_measure(rng, X), rand_measure(rng, X)
            assert (pushforward(f, mu) == pushforward(f, nu)) == (mu == nu)


class TestLiesInSubspace:
    def test_examples(self):
        assert lies_in_subspace(IdempotentMeasure(Y2, (0.0, NEG_INF)), {"u"})
        assert not lies_in_subspace(IdempotentMeasure(Y2, (0.0, -1.0)), {"u"})
        with pytest.raises(ValueError):
            lies_in_subspace(dirac(Y2, "u"), {"nope"})

    def test_restriction_characterizes_support(self):
        # supp(mu) inside A iff integration cannot tell functions apart
        # that agree on A.
        mu = IdempotentMeasure(X3, (0.0, -1.0, NEG_INF))
        A = {"a", "b"}
        assert lies_in_subspace(mu, A)
        for phi in function_grid(X3):
            for psi in function_grid(X3):
                if all(phi(x) == psi(x) for x in A):
                    assert integrate(mu, phi) == integrate(mu, psi)


class TestLiftAlongSurjection:
    def test_fiber_collapse(self):
        Xs = space(["x0", "x1"])
        Ys = space(["y1"])
        f = PointMap(Xs, Ys, {"x0": "y1", "x1": "y1"})
        lifted = lift_along_surjection(f, dirac(Ys, "y1"))
        assert lifted.weights == (0.0, 0.0)
        # brute force: among all lifts with weights in a small grid, the
        # maximal one is the returned table
        assert pushforward(f, lifted) == dirac(Ys, "y1")

    def test_bijection_relabels(self):
        f = PointMap(Y2, space("pq"), {"u": "p", "v": "q"})
        nu = normalize(space("pq"), {"p": 0, "q": -2})
        assert lift_along_surjection(f, nu).weights == (0.0, -2.0)

    def test_rejects_non_surjection(self):
        f = PointMap(Y2, X3, {"u": "a", "v": "b"})
        with pytest.raises(ValueError):
            lift_along_surjection(f, dirac(X3, "a"))

    def test_pushforward_recovers_measure_randomly(self):
        rng = random.Random(17)
        for _ in range(200):
            Y = rand_space(rng, 3, "y")
            X = FiniteSpace(tuple(f"x{i}" for i in range(len(Y) + rng.randint(0, 3))))
            f = rand_surjection(rng, X, Y)
            nu = rand_measure(rng, Y)
            assert pushforward(f, lift_along_surjection(f, nu)) == nu
