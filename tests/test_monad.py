import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import dyadic, function_grid, weight_tables
from maslov import (
    NEG_INF,
    ClosedSet,
    FiniteFunction,
    FiniteSpace,
    FuzzySet,
    IdempotentMeasure,
    OuterMeasure,
    PointMap,
    convex_combination,
    dirac,
    fuzzy_embed,
    hyperspace_embed,
    integrate,
    lift_along_surjection,
    marginal,
    multiply,
    normalize,
    pointwise_sup,
    product_space,
    pushforward,
    space,
    support,
    tensor,
)
from maslov.laws import check_monad_laws, rand_measure, rand_outer, rand_space
from maslov.monad import (
    dirac_lift,
    flatten_measure,
    hyperspace_square,
    hyperspace_union,
    map_outer,
    outer_dirac,
    outer_eval,
    tensor_many,
)

X2 = space("ab")
X3 = space("abc")


def measures_on(sp):
    return weight_tables(len(sp)).map(lambda raw: normalize(sp, raw))


class TestEvalFunctional:
    def test_dirac(self):
        phi = FiniteFunction(X2, (1.0, 4.0))
        assert integrate(dirac(X2, "b"), phi) == 4.0

    @given(measures_on(X2), st.tuples(dyadic, dyadic), dyadic)
    def test_shift_commutes(self, mu, vals, lam):
        phi = FiniteFunction(X2, vals)
        assert integrate(mu, phi.shift(lam)) == lam + integrate(mu, phi)

    @given(measures_on(X2), st.tuples(dyadic, dyadic), st.tuples(dyadic, dyadic))
    def test_max_commutes(self, mu, v1, v2):
        from maslov.core import pointwise_max

        phi, psi = FiniteFunction(X2, v1), FiniteFunction(X2, v2)
        assert integrate(mu, pointwise_max(phi, psi)) == max(
            integrate(mu, phi), integrate(mu, psi)
        )

    @given(measures_on(X2), measures_on(X2), st.sampled_from([0.0, -0.75, NEG_INF]))
    def test_affine_in_the_measure(self, mu1, mu2, lam2):
        combo = convex_combination(0.0, mu1, lam2, mu2)
        for phi in function_grid(X2):
            rhs = integrate(mu1, phi)
            if lam2 > NEG_INF:
                rhs = max(rhs, lam2 + integrate(mu2, phi))
            assert integrate(combo, phi) == rhs


class TestMultiply:
    def test_single_component(self):
        mu = normalize(X2, {"a": -2, "b": 0})
        assert multiply(outer_dirac(mu)) == mu

    def test_two_component_mixture(self):
        inner = (dirac(X2, "a"), IdempotentMeasure(X2, (-2.0, 0.0)))
        M = OuterMeasure(X2, inner, (-1.0, 0.0))
        out = multiply(M)
        assert out.weights == (-1.0, 0.0)
        # defining identity, brute-forced over a function grid
        for phi in function_grid(X2):
            assert integrate(out, phi) == outer_eval(M, phi)

    def test_constant_family(self):
        M = OuterMeasure(X2, (dirac(X2, "b"), dirac(X2, "b")), (0.0, -1.0))
        assert multiply(M) == dirac(X2, "b")

    def test_unit_laws_random(self):
        rng = random.Random(5)
        for _ in range(100):
            sp = rand_space(rng, 4)
            mu = rand_measure(rng, sp)
            assert multiply(outer_dirac(mu)) == mu
            assert multiply(dirac_lift(mu)) == mu

    def test_naturality(self):
        rng = random.Random(6)
        f = PointMap(X3, X2, {"a": "a", "b": "b", "c": "b"})
        for _ in range(100):
            M = rand_outer(rng, X3)
            assert multiply(map_outer(f, M)) == pushforward(f, multiply(M))

    def test_monad_law_report(self):
        report = check_monad_laws(seed=42, cases=100)
        assert report.ok, report.counterexample
        assert report.cases == 100


class TestTensor:
    def test_with_dirac(self):
        mu = IdempotentMeasure(X2, (0.0, -1.0))
        Y = space(["y1"])
        out = tensor(mu, dirac(Y, "y1"))
        assert out.weights == (0.0, -1.0)
        assert out.space.points == (("a", "y1"), ("b", "y1"))

    @given(measures_on(X2), measures_on(X3))
    def test_marginals_recover_factors(self, mu, nu):
        t = tensor(mu, nu)
        assert marginal(t, 0) == mu
        assert marginal(t, 1) == nu

    @given(measures_on(X2), measures_on(X2), measures_on(X2))
    def test_associativity_under_flattening(self, mu, nu, tau):
        left = flatten_measure(tensor(tensor(mu, nu), tau))
        right = flatten_measure(tensor(mu, tensor(nu, tau)))
        assert left == right == tensor_many([mu, nu, tau])

    def test_one_point_unit(self):
        one = space(["*"])
        mu = normalize(X2, {"a": 0, "b": -3})
        t = tensor(mu, dirac(one, "*"))
        assert marginal(t, 0) == mu

    def test_marginals_never_build_the_product_points(self):
        rng = random.Random(7)
        X, Y = space([f"x{i}" for i in range(50)]), space([f"y{i}" for i in range(40)])
        mu, nu = rand_measure(rng, X), rand_measure(rng, Y)
        t = tensor(mu, nu)
        assert marginal(t, 0) == mu and marginal(t, 1) == nu
        assert len(t.space) == 2000 and t.space.index(("x3", "y7")) == 127
        with pytest.raises(AttributeError):
            FiniteSpace.points.__get__(t.space)  # the slot is still empty
        assert t.space.points == tuple((x, y) for x in X.points for y in Y.points)
        assert FiniteSpace.points.__get__(t.space) is t.space.points  # built once, kept


class TestMarginal:
    def test_diagonal_pair(self):
        prod = product_space(space(["x1", "x2"]), space(["y1", "y2"]))
        mu = normalize(
            prod, {("x1", "y1"): 0.0, ("x2", "y2"): 0.0, ("x1", "y2"): NEG_INF, ("x2", "y1"): NEG_INF}
        )
        assert marginal(mu, 0).weights == (0.0, 0.0)
        assert marginal(mu, 1).weights == (0.0, 0.0)

    def test_dirac_marginal(self):
        prod = product_space(X2, X3)
        mu = dirac(prod, ("a", "c"))
        assert marginal(mu, 0) == dirac(X2, "a")
        assert marginal(mu, 1) == dirac(X3, "c")

    def test_axis_out_of_range(self):
        prod = product_space(X2, X3)
        with pytest.raises(ValueError):
            marginal(dirac(prod, ("a", "c")), 2)

    def test_requires_product_space(self):
        with pytest.raises(ValueError):
            marginal(dirac(X2, "a"), 0)


class NaNLookAlike:
    """Has a measure's fields, with a NaN weight no constructor would accept."""

    def __init__(self, space):
        self.space = space
        self.weights = (0.0,) + (math.nan,) * (len(space) - 1)


class TestKernelsRejectLookAlikes:
    def test_outer_measure(self):
        with pytest.raises(TypeError, match="an inner component must be an IdempotentMeasure"):
            OuterMeasure(X2, (dirac(X2, "a"), NaNLookAlike(X2)), (0.0, 0.0))

    def test_kernels(self):
        P = product_space(X2, X3)
        fake, real = NaNLookAlike(P), dirac(X2, "a")
        cases = [
            (lambda: tensor(real, NaNLookAlike(X3)), "a tensor factor"),
            (lambda: tensor_many([real, real, NaNLookAlike(X3)]), "a tensor factor"),
            (lambda: marginal(fake, 0), "a marginal's argument"),
            (lambda: flatten_measure(fake), "a flattened measure"),
            (lambda: pushforward(PointMap(P, X2, {p: p[0] for p in P.points}), fake),
             "a pushed-forward measure"),
            (lambda: outer_dirac(NaNLookAlike(X2)), "an inner component"),
            (lambda: dirac_lift(NaNLookAlike(X2)), "an inner component"),
            (lambda: convex_combination(0.0, real, -1.0, NaNLookAlike(X2)), "a combined measure"),
            (lambda: pointwise_sup([real, NaNLookAlike(X2)]), "a member of a sup"),
            (lambda: lift_along_surjection(PointMap(P, X2, {p: p[0] for p in P.points}), NaNLookAlike(X2)),
             "a lifted measure"),
            (lambda: integrate(NaNLookAlike(X2), function_grid(X2)[0]), "an integrated measure"),
            (lambda: support(NaNLookAlike(X2)), "a support's argument"),
        ]
        for call, what in cases:
            with pytest.raises(TypeError, match=f"{what} must be an IdempotentMeasure, got NaNLookAlike"):
                call()
        with pytest.raises(TypeError, match="multiply needs an OuterMeasure"):
            multiply(NaNLookAlike(X2))
        with pytest.raises(TypeError, match="pushforward needs a PointMap"):
            pushforward(NaNLookAlike(X2), real)


class TestHyperspace:
    def test_singleton_is_dirac(self):
        assert hyperspace_embed(ClosedSet(X3, frozenset(["b"]))) == dirac(X3, "b")

    def test_integral_is_max_over_set(self):
        A = ClosedSet(X2, frozenset(["a", "b"]))
        phi = FiniteFunction(X2, (1.0, 4.0))
        assert integrate(hyperspace_embed(A), phi) == 4.0

    def test_embedding_is_injective_up_to_five_points(self):
        import itertools

        for n in range(1, 6):
            sp = space([f"p{i}" for i in range(n)])
            subsets = [
                frozenset(c)
                for r in range(1, n + 1)
                for c in itertools.combinations(sp.points, r)
            ]
            embedded = [hyperspace_embed(ClosedSet(sp, s)) for s in subsets]
            assert len(set(embedded)) == len(subsets)

    def test_union(self):
        a = ClosedSet(X3, frozenset(["a"]))
        b = ClosedSet(X3, frozenset(["b"]))
        assert hyperspace_union([a, b]).members == {"a", "b"}
        assert hyperspace_union([a]).members == {"a"}
        with pytest.raises(ValueError):
            hyperspace_union([])

    def test_square_random_families(self):
        rng = random.Random(9)
        from maslov.laws import rand_closed_set

        for _ in range(200):
            sp = rand_space(rng, 5)
            family = [rand_closed_set(rng, sp) for _ in range(rng.randint(1, 3))]
            mixed, embedded_union = hyperspace_square(family)
            assert mixed == embedded_union


class TestFuzzy:
    def test_crisp_set_matches_hyperspace(self):
        chi = FuzzySet(X3, (1.0, 0.0, 1.0))
        assert fuzzy_embed(chi) == hyperspace_embed(ClosedSet(X3, frozenset(["a", "c"])))

    def test_log_grades(self):
        chi = FuzzySet(X2, (1.0, math.exp(-1.0)))
        mu = fuzzy_embed(chi)
        assert mu.weights[0] == 0.0
        assert mu.weights[1] == pytest.approx(-1.0, abs=1e-12)
        # defining sup identity against the raw grades
        for phi in function_grid(X2):
            expected = max(
                phi(p) + (math.log(g) if g > 0 else NEG_INF)
                for p, g in zip(X2.points, chi.grades)
            )
            assert integrate(mu, phi) == expected

    def test_singleton(self):
        assert fuzzy_embed(FuzzySet(X2, (1.0, 0.0))) == dirac(X2, "a")

    def test_rejects_bad_grades(self):
        with pytest.raises(ValueError):
            FuzzySet(X2, (0.5, 0.5))
        with pytest.raises(ValueError):
            FuzzySet(X2, (1.0, 1.5))


class TestAssociativityWorkedInstance:
    def test_nested_two_level_instance(self):
        # both composites computed independently over a 3-point space
        m1 = normalize(X3, {"a": 0, "b": -1, "c": NEG_INF})
        m2 = normalize(X3, {"a": -2, "b": 0, "c": 0})
        m3 = dirac(X3, "c")
        M1 = OuterMeasure(X3, (m1, m2), (0.0, -1.0))
        M2 = OuterMeasure(X3, (m2, m3), (-0.5, 0.0))
        xi = [(0.0, M1), (-0.25, M2)]

        side_a = multiply(
            OuterMeasure(X3, tuple(multiply(M) for _, M in xi), tuple(l for l, _ in xi))
        )
        inner, weights = [], []
        for lam, M in xi:
            for kap, m in zip(M.weights, M.inner):
                inner.append(m)
                weights.append(lam + kap)
        side_b = multiply(OuterMeasure(X3, tuple(inner), tuple(weights)))

        assert side_a == side_b
        # frozen expected table, computed by hand from the mixture formula:
        # zeta(M1) = (0, -1, -1), zeta(M2) = (-2.5, -0.5, 0), mixed with
        # outer weights (0, -0.25)
        assert side_a.weights == (0.0, -0.75, -0.25)
