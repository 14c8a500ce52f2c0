import itertools
import math
import random

import pytest

from conftest import rand_surjection
from maslov import (
    NEG_INF,
    CollapseMap,
    CoverPair,
    FiniteSpace,
    IdempotentMeasure,
    MilyutinLevel,
    PointMap,
    bicommutative_lift,
    coupling_feasible,
    coupling_gap,
    counterexample_gap,
    counterexample_instance,
    dirac,
    lift_open_collapse,
    marginal,
    metric_closure,
    milyutin_build,
    normalize,
    pattern_max_coupling,
    product_space,
    pushforward,
    space,
    support,
    tensor,
    tight_patterns,
    weight_distance,
)
from maslov.laws import rand_measure, rand_space
from maslov.openness import lift_open_surjection


def collapse_3to2():
    src = space(["x0", "x1", "x2"])
    tgt = space(["y1", "y2"])
    return CollapseMap(PointMap(src, tgt, {"x0": "y1", "x1": "y1", "x2": "y2"}))


class TestCollapseMap:
    def test_shape_validation(self):
        src, tgt = space("abc"), space("uv")
        with pytest.raises(ValueError):
            CollapseMap(PointMap(src, tgt, {"a": "u", "b": "u", "c": "u"}))  # not onto
        ok = PointMap(src, tgt, {"a": "u", "b": "u", "c": "v"})
        assert CollapseMap(ok).map is ok

    def test_rejects_wrong_sizes(self):
        with pytest.raises(ValueError):
            CollapseMap(PointMap(space("ab"), space("uv"), {"a": "u", "b": "v"}))


class TestLiftOpenCollapse:
    def test_worked_sequence(self):
        f = collapse_3to2()
        mu0 = IdempotentMeasure(f.map.source, (0.0, -1.0, 0.0))
        nus = [
            IdempotentMeasure(f.map.target, (-1.0 / k, 0.0)) for k in range(1, 101)
        ]
        lifts = lift_open_collapse(f, mu0, nus)
        for k, (nu_k, mu_k) in enumerate(zip(nus, lifts), start=1):
            assert pushforward(f.map, mu_k) == nu_k
            assert mu_k.weights == (-1.0 / k, -1.0, 0.0)
            drift = max(
                weight_distance(a, b) for a, b in zip(mu_k.weights, mu0.weights)
            )
            assert drift <= 2.0 / k

    def test_stationary_sequence(self):
        f = collapse_3to2()
        mu0 = IdempotentMeasure(f.map.source, (0.0, -1.0, 0.0))
        nu0 = pushforward(f.map, mu0)
        lifts = lift_open_collapse(f, mu0, [nu0] * 5)
        assert all(m == mu0 for m in lifts)

    def test_tied_fiber_weights_still_lift(self):
        f = collapse_3to2()
        mu0 = IdempotentMeasure(f.map.source, (-0.5, -0.5, 0.0))
        nus = [normalize(f.map.target, {"y1": -0.25, "y2": 0.0})]
        # both orderings of the doubled fiber produce the same table here
        (lift,) = lift_open_collapse(f, mu0, nus)
        assert pushforward(f.map, lift) == nus[0]
        assert lift.weights == (-0.25, -0.5, 0.0)

    def test_lifting_never_expands_atom_drift(self):
        # atomwise exponential-scale drift of the lifts is bounded by the
        # drift of the inputs: singleton fibers copy their image weight,
        # the tracked atom copies the doubled-fiber weight, and the clipped
        # atom is a min against a constant, which cannot expand
        rng = random.Random(41)
        for _ in range(100):
            n = rng.randint(1, 3)
            src = FiniteSpace(tuple(f"x{i}" for i in range(n + 1)))
            tgt = FiniteSpace(tuple(f"y{i}" for i in range(1, n + 1)))
            table = {f"x{i}": f"y{max(i, 1)}" for i in range(n + 1)}
            f = CollapseMap(PointMap(src, tgt, table))
            mu0 = rand_measure(rng, src)
            nu0 = pushforward(f.map, mu0)
            nus = [rand_measure(rng, tgt) for _ in range(3)]
            for nu_k, mu_k in zip(nus, lift_open_collapse(f, mu0, nus)):
                in_drift = max(
                    weight_distance(a, b) for a, b in zip(nu_k.weights, nu0.weights)
                )
                out_drift = max(
                    weight_distance(a, b) for a, b in zip(mu_k.weights, mu0.weights)
                )
                assert out_drift <= in_drift + 1e-12

    def test_vanishing_fiber(self):
        f = collapse_3to2()
        mu0 = IdempotentMeasure(f.map.source, (NEG_INF, NEG_INF, 0.0))
        nus = [normalize(f.map.target, {"y1": NEG_INF, "y2": 0.0})]
        (lift,) = lift_open_collapse(f, mu0, nus)
        assert lift == mu0


class TestLiftOpenSurjection:
    def test_composed_lifts_push_exactly(self):
        rng = random.Random(20)
        for _ in range(50):
            Y = rand_space(rng, 3, "y")
            X = FiniteSpace(tuple(f"x{i}" for i in range(len(Y) + rng.randint(1, 3))))
            f = rand_surjection(rng, X, Y)
            mu0 = rand_measure(rng, X)
            nus = [rand_measure(rng, Y) for _ in range(4)]
            lifts = lift_open_surjection(f, mu0, nus)
            for nu_k, mu_k in zip(nus, lifts):
                assert pushforward(f, mu_k) == nu_k

    def test_convergent_sequences_stay_close(self):
        src = space(["x0", "x1", "x2", "x3"])
        tgt = space(["y1", "y2"])
        f = PointMap(src, tgt, {"x0": "y1", "x1": "y1", "x2": "y1", "x3": "y2"})
        mu0 = IdempotentMeasure(src, (0.0, -1.0, -0.5, 0.0))
        nu0 = pushforward(f, mu0)
        lifts = lift_open_surjection(f, mu0, [nu0] * 3)
        assert all(m == mu0 for m in lifts)
        drift = []
        for k in (1, 2, 4, 8, 64, 512):
            nu_k = normalize(tgt, {"y1": -1.0 / k, "y2": 0.0})
            (mu_k,) = lift_open_surjection(f, mu0, [nu_k])
            assert pushforward(f, mu_k) == nu_k
            drift.append(
                max(weight_distance(a, b) for a, b in zip(mu_k.weights, mu0.weights))
            )
        assert all(a >= b for a, b in zip(drift, drift[1:]))
        assert drift[-1] <= 2.0 / 512


class TestBicommutativeLift:
    def test_one_point_base(self):
        ci, cj = space(["y0", "y1"]), space(["x1"])
        f = CollapseMap(PointMap(ci, cj, {"y0": "x1", "y1": "x1"}))
        mu = IdempotentMeasure(ci, (-1.0, 0.0))
        nu = IdempotentMeasure(product_space(cj, cj), (0.0,))
        lifted = bicommutative_lift(f, mu, nu)
        assert lifted.as_mapping() == {
            ("y0", "y0"): -1.0,
            ("y0", "y1"): -1.0,
            ("y1", "y0"): 0.0,
            ("y1", "y1"): 0.0,
        }

    def test_dirac_with_dead_extra_point(self):
        ci, cj = space(["y0", "y1", "y2"]), space(["x1", "x2"])
        f = CollapseMap(PointMap(ci, cj, {"y0": "x1", "y1": "x1", "y2": "x2"}))
        mu = dirac(ci, "y1")
        nu = dirac(product_space(cj, cj), ("x1", "x1"))
        lifted = bicommutative_lift(f, mu, nu)
        assert support(lifted) == {("y1", "y0"), ("y1", "y1")}
        # row y0 is forced everywhere to -inf
        assert all(lifted.weight(("y0", t)) == NEG_INF for t in ci.points)

    def test_precondition_checked(self):
        ci, cj = space(["y0", "y1"]), space(["x1"])
        f = CollapseMap(PointMap(ci, cj, {"y0": "x1", "y1": "x1"}))
        mu = IdempotentMeasure(ci, (-1.0, 0.0))
        bad_nu_space = product_space(cj, space(["z"]))
        with pytest.raises(ValueError):
            bicommutative_lift(f, mu, IdempotentMeasure(bad_nu_space, (0.0,)))

    def _random_feasible_instance(self, rng, p):
        cj = FiniteSpace(tuple(f"x{m}" for m in range(1, p + 1)))
        ci = FiniteSpace(tuple(f"y{m}" for m in range(0, p + 1)))
        table = {f"y{m}": f"x{max(m, 1)}" for m in range(0, p + 1)}
        f = CollapseMap(PointMap(ci, cj, table))
        mu = rand_measure(rng, ci)
        marg = pushforward(f.map, mu)
        prod = product_space(cj, cj)
        weights = []
        for a in cj.points:
            row = [
                NEG_INF if rng.random() < 0.2 else -rng.randrange(0, 9) / 4.0
                for _ in cj.points
            ]
            if marg.weight(a) == NEG_INF:
                row = [NEG_INF] * len(cj)
            else:
                if max(row) == NEG_INF:
                    row[rng.randrange(len(row))] = 0.0
                top = max(row)
                row = [w - top + marg.weight(a) if w > NEG_INF else NEG_INF for w in row]
            weights.extend(row)
        nu = IdempotentMeasure(prod, tuple(weights))
        return f, mu, nu

    def test_random_feasible_sweep(self):
        rng = random.Random(21)
        for _ in range(50):
            p = rng.randint(1, 3)
            f, mu, nu = self._random_feasible_instance(rng, p)
            lifted = bicommutative_lift(f, mu, nu)
            # the two characteristic identities, re-checked here explicitly
            assert marginal(lifted, 0) == mu
            prod_i = lifted.space
            both = PointMap(
                prod_i,
                nu.space,
                {(x, y): (f.map.table[x], f.map.table[y]) for x, y in prod_i.points},
            )
            assert pushforward(both, lifted) == nu


class TestCouplingFeasible:
    def test_tensor_always_feasible(self):
        rng = random.Random(22)
        for _ in range(100):
            X = rand_space(rng, 3, "x")
            Y = rand_space(rng, 3, "y")
            mu1, mu2 = rand_measure(rng, X), rand_measure(rng, Y)
            assert coupling_feasible(tensor(mu1, mu2), mu1, mu2)

    def test_min_table_always_feasible(self):
        rng = random.Random(24)
        for _ in range(100):
            X = rand_space(rng, 3, "x")
            Y = rand_space(rng, 3, "y")
            mu1, mu2 = rand_measure(rng, X), rand_measure(rng, Y)
            prod = product_space(X, Y)
            table = IdempotentMeasure(
                prod,
                tuple(min(mu1.weight(x), mu2.weight(y)) for (x, y) in prod.points),
            )
            assert coupling_feasible(table, mu1, mu2)

    def test_diagonal_pair_feasible_for_uniform_marginals(self):
        X, Y = space(["x1", "x2"]), space(["y1", "y2"])
        prod = product_space(X, Y)
        mu = normalize(
            prod,
            {("x1", "y1"): 0.0, ("x2", "y2"): 0.0},
        )
        assert coupling_feasible(mu, normalize(X, [0, 0]), normalize(Y, [0, 0]))

    def test_infeasible_table(self):
        X, Y = space(["x1", "x2"]), space(["y1", "y2"])
        prod = product_space(X, Y)
        mu = dirac(prod, ("x1", "y1"))
        assert not coupling_feasible(mu, normalize(X, [0, 0]), normalize(Y, [0, 0]))


class TestTightPatterns:
    def test_forced_witness_cell(self):
        mu1, mu2, _ = counterexample_instance(2)
        for pattern in tight_patterns(mu1, mu2):
            fixed = dict(pattern.fixed)
            assert fixed.get(("x2", "y1")) == 0.0

    def test_pattern_couplings_are_feasible(self):
        rng = random.Random(25)
        for _ in range(30):
            X = rand_space(rng, 3, "x")
            Y = rand_space(rng, 3, "y")
            mu1, mu2 = rand_measure(rng, X), rand_measure(rng, Y)
            count = 0
            for pattern in tight_patterns(mu1, mu2):
                assert coupling_feasible(pattern_max_coupling(pattern, mu1, mu2), mu1, mu2)
                count += 1
                if count > 40:
                    break
            assert count > 0

    def test_enumeration_capped(self):
        big = FiniteSpace(tuple(f"x{i}" for i in range(5)))
        mu = normalize(big, [0.0] * 5)
        with pytest.raises(ValueError):
            list(tight_patterns(mu, mu))


class TestCounterexampleGap:
    def test_gap_is_one_for_small_l(self):
        assert counterexample_gap(1) == 1.0
        assert counterexample_gap(100) == 1.0

    def test_gap_is_constant_in_l(self):
        values = {counterexample_gap(l) for l in range(1, 101)}
        assert values == {1.0}

    def test_self_marginals_have_zero_gap(self):
        assert counterexample_gap(math.inf) == 0.0

    def test_witness_function(self):
        mu1, mu2, target = counterexample_instance(10)
        result = coupling_gap(mu1, mu2, target)
        assert result.gap == 1.0
        # the forced cell carries weight 0 in every feasible coupling but
        # -inf in the target; the 0/-1 indicator of that cell witnesses it
        assert result.coupling.weight(("x2", "y1")) == 0.0
        assert abs(
            result.phi(("x2", "y1"))
            - max(result.phi(("x1", "y1")), result.phi(("x2", "y2")))
        ) == 1.0

    def test_every_feasible_coupling_is_far_from_target(self):
        # independent of the box solver: sample feasible couplings on a
        # dyadic grid and check none comes closer than gap 1
        mu1, mu2, target = counterexample_instance(1)
        prod = target.space
        from test_kernel_references import indicator_family
        from maslov import integrate

        family = indicator_family(prod)
        grid = [0.0, -0.25, -0.5, -1.0, -2.0, NEG_INF]
        found_best = math.inf
        for weights in itertools.product(grid, repeat=4):
            try:
                coupling = IdempotentMeasure(prod, weights)
            except ValueError:
                continue
            if not coupling_feasible(coupling, mu1, mu2):
                continue
            dev = max(
                abs(integrate(coupling, phi) - integrate(target, phi)) for phi in family
            )
            found_best = min(found_best, dev)
        assert found_best == 1.0

    def test_rejects_small_l(self):
        with pytest.raises(ValueError):
            counterexample_gap(0)

    def test_box_solver_matches_brute_force_grid(self):
        # independent oracle for the exact box minimization: enumerate every
        # coupling with cell values on a dyadic grid, keep the feasible ones,
        # and minimize the objective directly.  The solver must never exceed
        # any grid coupling's objective, and the grid must come within one
        # rounding step of the solver's optimum.
        from maslov import integrate
        from test_kernel_references import indicator_family

        rng = random.Random(47)
        X, Y = space(["x1", "x2"]), space(["y1", "y2"])
        prod = product_space(X, Y)
        family = indicator_family(prod)
        values = [0.0, -0.5, -1.0, NEG_INF]
        grid = [-k / 4.0 for k in range(0, 9)] + [NEG_INF]

        for _ in range(20):
            def rand_table(sp):
                raw = [rng.choice(values) for _ in sp.points]
                if max(raw) == NEG_INF:
                    raw[rng.randrange(len(raw))] = 0.0
                return normalize(sp, raw)

            mu1, mu2 = rand_table(X), rand_table(Y)
            target = rand_table(prod)
            result = coupling_gap(mu1, mu2, target)

            targets = [integrate(target, phi) for phi in family]
            brute = math.inf
            for cells in itertools.product(grid, repeat=4):
                if max(cells) != 0.0:
                    continue
                coupling = IdempotentMeasure(prod, cells)
                if not coupling_feasible(coupling, mu1, mu2):
                    continue
                dev = max(
                    abs(integrate(coupling, phi) - m)
                    for phi, m in zip(family, targets)
                )
                brute = min(brute, dev)
            assert brute < math.inf
            assert result.gap <= brute + 1e-12
            assert brute <= result.gap + 0.25 + 1e-12

    def test_three_by_three_targets(self):
        X = space(["x1", "x2", "x3"])
        Y = space(["y1", "y2", "y3"])
        u1, u2 = normalize(X, [0, 0, 0]), normalize(Y, [0, 0, 0])
        prod = product_space(X, Y)
        diag = normalize(
            prod, {("x1", "y1"): 0.0, ("x2", "y2"): 0.0, ("x3", "y3"): 0.0}
        )
        assert coupling_gap(u1, u2, diag).gap == 0.0
        # a corner Dirac cannot be approached: every feasible coupling puts
        # weight 0 into every row and column, far from the -inf cells
        corner = dirac(prod, ("x1", "y1"))
        assert coupling_gap(u1, u2, corner).gap == 1.0


class TestGapWithoutPatterns:
    def test_tight_patterns_unused(self, monkeypatch):
        # the gap is computed in closed form, so it answers even when the
        # pattern enumeration cannot run
        from maslov import openness

        def refuse(mu1, mu2):
            raise AssertionError("coupling_gap enumerated tight patterns")

        X, Y = space(["x1", "x2", "x3"]), space(["y1", "y2", "y3"])
        u1, u2 = normalize(X, [0, 0, 0]), normalize(Y, [0, 0, 0])
        prod = product_space(X, Y)
        monkeypatch.setattr(openness, "tight_patterns", refuse)
        result = coupling_gap(u1, u2, dirac(prod, ("x1", "y1")))
        assert result.gap == 1.0
        assert coupling_feasible(result.coupling, u1, u2)


class TestMilyutinBuild:
    def _metric(self, sp):
        n = len(sp)
        raw = [[0.0 if i == j else 1.0 for j in range(n)] for i in range(n)]
        return metric_closure(sp, raw)

    def test_depth_one_worked_example(self):
        Y = space("abc")
        level = MilyutinLevel(
            (
                CoverPair(frozenset("ab"), frozenset("ab")),
                CoverPair(frozenset("bc"), frozenset("bc")),
            )
        )
        X, f, s = milyutin_build(self._metric(Y), [level], 1)
        assert X.points == (("a", "0"), ("b", "0"), ("b", "1"), ("c", "1"))
        assert s["a"] == dirac(X, ("a", "0"))
        assert s["b"].as_mapping() == {
            ("a", "0"): NEG_INF,
            ("b", "0"): 0.0,
            ("b", "1"): 0.0,
            ("c", "1"): NEG_INF,
        }
        for y in Y.points:
            assert pushforward(f, s[y]) == dirac(Y, y)
            assert support(s[y]) <= f.fiber(y)

    def test_depth_two_doubles_the_atoms(self):
        Y = space("abc")
        level = MilyutinLevel(
            (
                CoverPair(frozenset("ab"), frozenset("ab")),
                CoverPair(frozenset("bc"), frozenset("bc")),
            )
        )
        X, f, s = milyutin_build(self._metric(Y), [level, level], 2)
        atoms = [p for p, w in s["b"].as_mapping().items() if w > NEG_INF]
        assert len(atoms) == 4
        assert all(w == 0.0 for p, w in s["b"].as_mapping().items() if p in atoms)
        assert support(s["b"]) <= f.fiber("b")
        assert pushforward(f, s["b"]) == dirac(Y, "b")

    def test_singleton_partition_recovers_the_space(self):
        Y = space("abc")
        level = MilyutinLevel(
            tuple(CoverPair(frozenset([y]), frozenset([y])) for y in Y.points)
        )
        X, f, s = milyutin_build(self._metric(Y), [level], 1)
        assert len(X) == len(Y)
        for y in Y.points:
            assert s[y] == dirac(X, support(s[y]).__iter__().__next__())
            assert f.table[next(iter(support(s[y])))] == y

    def test_alpha_weights_flow_into_selection(self):
        Y = space("ab")
        level = MilyutinLevel(
            (
                CoverPair(frozenset("a"), frozenset("ab"), {"b": -1.0}),
                CoverPair(frozenset("b"), frozenset("b")),
            )
        )
        X, f, s = milyutin_build(self._metric(Y), [level], 1)
        assert s["b"].as_mapping() == {
            ("a", "0"): NEG_INF,
            ("b", "0"): -1.0,
            ("b", "1"): 0.0,
        }

    def test_non_covering_level_rejected(self):
        Y = space("ab")
        level = MilyutinLevel((CoverPair(frozenset("a"), frozenset("a")),))
        with pytest.raises(ValueError):
            milyutin_build(self._metric(Y), [level], 1)

    def test_depth_exceeds_levels(self):
        Y = space("ab")
        level = MilyutinLevel((CoverPair(frozenset("ab"), frozenset("ab")),))
        with pytest.raises(ValueError):
            milyutin_build(self._metric(Y), [level], 2)

    def test_random_cover_systems(self):
        rng = random.Random(26)
        for _ in range(20):
            n = rng.randint(1, 4)
            Y = FiniteSpace(tuple(f"y{i}" for i in range(n)))
            levels = []
            for _ in range(rng.randint(1, 2)):
                pairs = []
                uncovered = set(Y.points)
                while uncovered or not pairs:
                    U = {rng.choice(Y.points)} | {
                        p for p in Y.points if rng.random() < 0.4
                    }
                    V = U | {p for p in Y.points if rng.random() < 0.3}
                    alpha = {
                        p: (-rng.randrange(0, 5) / 4.0 if rng.random() < 0.7 else NEG_INF)
                        for p in V - U
                    }
                    pairs.append(CoverPair(frozenset(U), frozenset(V), alpha))
                    uncovered -= U
                levels.append(MilyutinLevel(tuple(pairs)))
            X, f, s = milyutin_build(self._metric(Y), levels, len(levels))
            for y in Y.points:
                assert pushforward(f, s[y]) == dirac(Y, y)
                assert support(s[y]) <= f.fiber(y)
