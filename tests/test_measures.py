import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import dyadic, function_grid, weight_tables
from maslov import (
    NEG_INF,
    FiniteFunction,
    IdempotentMeasure,
    PointMap,
    convex_combination,
    dirac,
    integrate,
    normalize,
    pointwise_sup,
    pushforward,
    space,
    support,
)
from maslov.core import pointwise_max

X2 = space("ab")
X3 = space("abc")


def measures_on(sp):
    return weight_tables(len(sp)).map(lambda raw: normalize(sp, raw))


def functions_on(sp):
    return st.tuples(*([dyadic] * len(sp))).map(lambda v: FiniteFunction(sp, v))


class TestConstruction:
    def test_dirac(self):
        assert dirac(X2, "a").weights == (0.0, NEG_INF)
        assert support(dirac(X2, "a")) == {"a"}
        with pytest.raises(ValueError):
            dirac(X2, "z")

    def test_normalize_examples(self):
        assert normalize(X2, {"a": -3, "b": -5}).weights == (0.0, -2.0)
        assert normalize(X2, {"a": 0, "b": -1}).weights == (0.0, -1.0)
        assert normalize(X3, {"a": NEG_INF, "b": 2, "c": 1}).weights == (NEG_INF, 0.0, -1.0)

    def test_normalize_rejects_empty_support(self):
        with pytest.raises(ValueError):
            normalize(X2, {"a": NEG_INF})

    def test_unnormalized_table_rejected(self):
        with pytest.raises(ValueError):
            IdempotentMeasure(X2, (-1.0, -2.0))

    @given(weight_tables(3))
    def test_normalize_idempotent(self, raw):
        mu = normalize(X3, raw)
        assert max(mu.weights) == 0.0
        assert normalize(X3, mu.weights) == mu


class TestIntegrate:
    def test_worked_values(self):
        mu = IdempotentMeasure(X2, (-1.0, 0.0))
        assert integrate(mu, FiniteFunction(X2, (3.0, 5.0))) == 5.0
        nu = IdempotentMeasure(X2, (0.0, -2.0))
        # brute force over atoms: max(1 + 0, 4 - 2) = 2
        assert integrate(nu, FiniteFunction(X2, (1.0, 4.0))) == 2.0

    def test_dirac_identity(self):
        for phi in function_grid(X2):
            assert integrate(dirac(X2, "a"), phi) == phi("a")

    @given(measures_on(X3), st.sampled_from([-2.0, -0.25, 0.0, 1.5]))
    def test_constants(self, mu, c):
        assert integrate(mu, FiniteFunction.constant(X3, c)) == c

    @given(measures_on(X3), functions_on(X3), dyadic)
    def test_shift_homogeneity(self, mu, phi, c):
        assert integrate(mu, phi.shift(c)) == c + integrate(mu, phi)

    @given(measures_on(X3), functions_on(X3), functions_on(X3))
    def test_max_additivity(self, mu, phi, psi):
        assert integrate(mu, pointwise_max(phi, psi)) == max(
            integrate(mu, phi), integrate(mu, psi)
        )

    @given(measures_on(X3), functions_on(X3), functions_on(X3))
    def test_order_preserving_and_nonexpanding(self, mu, phi, psi):
        if all(a <= b for a, b in zip(phi.values, psi.values)):
            assert integrate(mu, phi) <= integrate(mu, psi)
        gap = max(abs(a - b) for a, b in zip(phi.values, psi.values))
        assert abs(integrate(mu, phi) - integrate(mu, psi)) <= gap

    def test_space_mismatch(self):
        with pytest.raises(ValueError):
            integrate(dirac(X2, "a"), FiniteFunction(X3, (0.0, 0.0, 0.0)))


class TestSupport:
    def test_examples(self):
        assert support(IdempotentMeasure(X2, (0.0, NEG_INF))) == {"a"}
        assert support(IdempotentMeasure(X2, (0.0, -7.0))) == {"a", "b"}

    @given(measures_on(X3))
    def test_image_under_pushforward(self, mu):
        f = PointMap(X3, X2, {"a": "a", "b": "b", "c": "b"})
        assert support(pushforward(f, mu)) == {f.table[x] for x in support(mu)}


class TestConvexCombination:
    def test_degenerate(self):
        mu = normalize(X2, {"a": -1, "b": 0})
        assert convex_combination(0.0, mu, NEG_INF, dirac(X2, "b")) == mu

    def test_join_of_diracs(self):
        out = convex_combination(0.0, dirac(X2, "a"), 0.0, dirac(X2, "b"))
        assert out.weights == (0.0, 0.0)

    def test_weighted_diracs(self):
        out = convex_combination(0.0, dirac(X2, "a"), -1.0, dirac(X2, "b"))
        assert out.weights == (0.0, -1.0)

    def test_rejects_unnormalized_coefficients(self):
        with pytest.raises(ValueError):
            convex_combination(-0.5, dirac(X2, "a"), -1.0, dirac(X2, "b"))

    @given(measures_on(X2), measures_on(X2), st.sampled_from([0.0, -0.5, -1.0, NEG_INF]))
    def test_functional_identity_on_all_small_functions(self, mu1, mu2, lam2):
        out = convex_combination(0.0, mu1, lam2, mu2)
        for phi in function_grid(X2):
            assert integrate(out, phi) == max(
                integrate(mu1, phi),
                lam2 + integrate(mu2, phi) if lam2 > NEG_INF else NEG_INF,
            )


class TestPointwiseSup:
    def test_examples(self):
        assert pointwise_sup([dirac(X2, "a"), dirac(X2, "b")]).weights == (0.0, 0.0)
        mu = normalize(X2, {"a": 0, "b": -2})
        assert pointwise_sup([mu]) == mu
        out = pointwise_sup([normalize(X2, {"a": 0, "b": -2}), normalize(X2, {"a": -1, "b": 0})])
        assert out.weights == (0.0, 0.0)

    @given(st.lists(measures_on(X2), min_size=1, max_size=4))
    def test_functional_identity(self, family):
        out = pointwise_sup(family)
        for phi in function_grid(X2):
            assert integrate(out, phi) == max(integrate(mu, phi) for mu in family)

    def test_empty_family_rejected(self):
        with pytest.raises(ValueError):
            pointwise_sup([])


class TestFunctionalSeparation:
    """Equality of weight tables is equality of integration functionals."""

    @given(measures_on(X3), measures_on(X3))
    def test_tables_equal_iff_functionals_agree(self, mu, nu):
        # Scale the indicator-like family past the weight spread (4 suffices
        # for weights in [-4, 0]); unscaled indicators cannot see below -1.
        family = [
            FiniteFunction(X3, tuple(0.0 if j == i else -5.0 for j in range(3)))
            for i in range(3)
        ]
        agree = all(integrate(mu, phi) == integrate(nu, phi) for phi in family)
        assert agree == (mu == nu)

    @given(measures_on(X3))
    def test_scaled_indicators_recover_finite_weights(self, mu):
        for i, p in enumerate(X3.points):
            phi = FiniteFunction(X3, tuple(0.0 if j == i else -5.0 for j in range(3)))
            if mu.weights[i] > NEG_INF:
                assert integrate(mu, phi) == mu.weights[i]
            else:
                assert integrate(mu, phi) <= -1.0


class TestRetractionWitness:
    """Two distinct measures can collapse to the same images under both
    retractions of a three-point space, so the images never determine the
    measure (unlike classical averaging measures)."""

    def test_two_retractions_cannot_jointly_separate(self):
        Y, Z = space("ab"), space("ac")
        f = PointMap(X3, Y, {"a": "a", "b": "b", "c": "b"})
        g = PointMap(X3, Z, {"a": "a", "b": "c", "c": "c"})
        mu = IdempotentMeasure(X3, (0.0, -1.0, 0.0))
        nu = IdempotentMeasure(X3, (0.0, -2.0, 0.0))
        assert mu != nu
        assert pushforward(f, mu) == pushforward(f, nu) == normalize(Y, {"a": 0, "b": 0})
        assert pushforward(g, mu) == pushforward(g, nu) == normalize(Z, {"a": 0, "c": 0})

    def test_perturbing_an_uncollapsed_point_is_visible(self):
        # The same construction with the perturbation on the retained point
        # a separates just fine, which is why the collapsed point matters.
        Y = space("ab")
        f = PointMap(X3, Y, {"a": "a", "b": "b", "c": "b"})
        mu = IdempotentMeasure(X3, (-1.0, 0.0, 0.0))
        nu = IdempotentMeasure(X3, (-2.0, 0.0, 0.0))
        assert pushforward(f, mu) != pushforward(f, nu)
