"""Acceptance suite: one test per criterion, printed as a pass/fail line.

Every tolerance is pinned here: algebraic laws use exact float equality
(the generators only draw dyadic values, where max/+ never round), the
metric gate allows two grid steps against the brute-force oracle, and the
pseudometric triangle inequality allows 1e-12 of float noise.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines.
"""

import math
import random

from maslov import (
    NEG_INF,
    CollapseMap,
    CoverPair,
    FiniteFunction,
    FiniteSpace,
    IdempotentMeasure,
    MetricSpace,
    MilyutinLevel,
    PointMap,
    barycenter,
    bicommutative_lift,
    counterexample_gap,
    dhat,
    dhat_oracle,
    dirac,
    dtilde,
    hull_membership,
    hyperspace_embed,
    integrate,
    lift_open_collapse,
    marginal,
    metric_closure,
    milyutin_build,
    normalize,
    pushforward,
    space,
    support,
    tensor,
    weight_distance,
)
from maslov.core import pointwise_max
from maslov.laws import (
    check_monad_laws,
    rand_closed_set,
    rand_cloud,
    rand_function,
    rand_map,
    rand_measure,
    rand_outer,
    rand_space,
)
from maslov.monad import ClosedSet, flatten_measure, hyperspace_square, tensor_many


def criterion(number: int, text: str):
    """Print exactly one pass/fail line for the wrapped criterion."""

    def wrap(fn):
        def run():
            try:
                fn()
            except BaseException:
                print(f"ACCEPTANCE {number:2d}: FAIL - {text}")
                raise
            print(f"ACCEPTANCE {number:2d}: PASS - {text}")

        run.__name__ = fn.__name__
        return run

    return wrap


@criterion(1, "Maslov axioms exact on 500 seeded instances (spaces of <= 5 points)")
def test_criterion_01_maslov_axioms():
    rng = random.Random(1001)
    for _ in range(500):
        sp = rand_space(rng, 5)
        mu = rand_measure(rng, sp)
        phi, psi = rand_function(rng, sp), rand_function(rng, sp)
        c = rng.randrange(-16, 17) / 4.0
        assert integrate(mu, FiniteFunction.constant(sp, c)) == c
        assert integrate(mu, phi.shift(c)) == c + integrate(mu, phi)
        assert integrate(mu, pointwise_max(phi, psi)) == max(
            integrate(mu, phi), integrate(mu, psi)
        )


@criterion(2, "monad unit laws and associativity exact on 200 seeded instances")
def test_criterion_02_monad_laws():
    report = check_monad_laws(seed=1002, cases=200, max_points=4)
    assert report.ok, report.counterexample
    assert report.cases == 200


@criterion(3, "barycenter algebra laws and span membership exact on 200 instances in R^3")
def test_criterion_03_algebra_laws():
    from maslov import algebra_law_check

    rng = random.Random(1003)
    for _ in range(200):
        sp = rand_space(rng, 4)
        cloud = rand_cloud(rng, sp, dim=3)
        for p in sp.points:
            assert barycenter(cloud, dirac(sp, p)) == cloud.point(p)
        M = rand_outer(rng, sp)
        assert algebra_law_check(cloud, M)
        mu = rand_measure(rng, sp)
        member, _ = hull_membership(
            [cloud.point(p) for p in sorted(support(mu), key=sp.index)],
            barycenter(cloud, mu),
        )
        assert member


@criterion(4, "tensor marginals exact on 200 pairs; associativity exact on 100 triples")
def test_criterion_04_tensor_marginals_and_associativity():
    rng = random.Random(1004)
    for _ in range(200):
        X, Y = rand_space(rng, 3, "x"), rand_space(rng, 3, "y")
        mu, nu = rand_measure(rng, X), rand_measure(rng, Y)
        t = tensor(mu, nu)
        assert marginal(t, 0) == mu and marginal(t, 1) == nu
    for _ in range(100):
        X, Y, Z = rand_space(rng, 3, "x"), rand_space(rng, 3, "y"), rand_space(rng, 3, "z")
        mu, nu, tau = rand_measure(rng, X), rand_measure(rng, Y), rand_measure(rng, Z)
        left = flatten_measure(tensor(tensor(mu, nu), tau))
        right = flatten_measure(tensor(mu, tensor(nu, tau)))
        assert left == right == tensor_many([mu, nu, tau])


@criterion(5, "hyperspace mixing square exact on 200 families; singletons embed as Diracs up to 6 points")
def test_criterion_05_hyperspace_submonad():
    rng = random.Random(1005)
    for _ in range(200):
        sp = rand_space(rng, 5)
        family = [rand_closed_set(rng, sp) for _ in range(rng.randint(1, 3))]
        mixed, embedded_union = hyperspace_square(family)
        assert mixed == embedded_union
    for n in range(1, 7):
        sp = FiniteSpace(tuple(f"p{i}" for i in range(n)))
        for p in sp.points:
            assert hyperspace_embed(ClosedSet(sp, frozenset([p]))) == dirac(sp, p)


def _rand_metric_space(rng, n):
    sp = FiniteSpace(tuple(f"p{i}" for i in range(n)))
    raw = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            raw[i][j] = raw[j][i] = rng.randrange(1, 5) / 4.0
    return metric_closure(sp, raw)


def _rand_shallow_measure(rng, sp):
    raw = [NEG_INF if rng.random() < 0.15 else -rng.randrange(0, 5) / 4.0 for _ in sp.points]
    if max(raw) == NEG_INF:
        raw[rng.randrange(len(raw))] = 0.0
    return normalize(sp, raw)


@criterion(6, "dual-metric closed form within 2 grid steps of the oracle (100 pairs, n in {1,2,3}); Dirac isometry exact; pseudometric axioms within 1e-12; pushforward nonexpanding on 100 maps")
def test_criterion_06_metric_gate():
    step = 0.01
    rng = random.Random(1006)
    for _ in range(100):
        X = _rand_metric_space(rng, 3)
        mu = _rand_shallow_measure(rng, X.space)
        nu = _rand_shallow_measure(rng, X.space)
        for n in (1, 2, 3):
            closed = dhat(n, X, mu, nu)
            oracle = dhat_oracle(n, X, mu, nu, step=step)
            assert abs(closed - oracle) <= 2 * step

    for _ in range(25):
        X = _rand_metric_space(rng, rng.randint(2, 4))
        for n in (1, 2, 3):
            for x in X.space.points:
                for y in X.space.points:
                    assert dtilde(n, X, dirac(X.space, x), dirac(X.space, y)) == X.d(x, y)

    for _ in range(200):
        X = _rand_metric_space(rng, rng.randint(2, 4))
        mu, nu, tau = (rand_measure(rng, X.space) for _ in range(3))
        for n in (1, 2):
            assert dhat(n, X, mu, mu) == 0.0
            assert dhat(n, X, mu, nu) == dhat(n, X, nu, mu)
            assert dhat(n, X, mu, tau) <= dhat(n, X, mu, nu) + dhat(n, X, nu, tau) + 1e-12

    for _ in range(100):
        X = _rand_metric_space(rng, rng.randint(2, 4))
        k = rng.randint(1, len(X.space))
        Y = FiniteSpace(tuple(f"q{i}" for i in range(k)))
        table = {}
        for i, x in enumerate(X.space.points):
            table[x] = Y.points[i] if i < k else rng.choice(Y.points)
        f = PointMap(X.space, Y, table)
        raw = [[0.0] * k for _ in range(k)]
        for i in range(k):
            for j in range(i + 1, k):
                raw[i][j] = raw[j][i] = min(
                    X.d(x, y) for x in f.fiber(Y.points[i]) for y in f.fiber(Y.points[j])
                )
        Ym = metric_closure(Y, raw) if k > 1 else MetricSpace(Y, ((0.0,),))
        mu, nu = rand_measure(rng, X.space), rand_measure(rng, X.space)
        for n in (1, 2, 3):
            assert dhat(n, Ym, pushforward(f, mu), pushforward(f, nu)) <= dhat(n, X, mu, nu)


@criterion(7, "marginal-tracking gap is exactly 1 for l in 1..100 and 0 for the self-marginals")
def test_criterion_07_counterexample_gap():
    for l in range(1, 101):
        assert counterexample_gap(l) == 1.0
    assert counterexample_gap(math.inf) == 0.0


@criterion(8, "collapse lifts exact with drift <= 2/k for k <= 10^4; coupling lifts satisfy both characteristic identities on 50 instances")
def test_criterion_08_openness_lifting():
    src, tgt = space(["x0", "x1", "x2"]), space(["y1", "y2"])
    f = CollapseMap(PointMap(src, tgt, {"x0": "y1", "x1": "y1", "x2": "y2"}))
    mu0 = IdempotentMeasure(src, (0.0, -1.0, 0.0))
    ks = range(1, 10_001)
    nus = [IdempotentMeasure(tgt, (-1.0 / k, 0.0)) for k in ks]
    lifts = lift_open_collapse(f, mu0, nus)
    for k, nu_k, mu_k in zip(ks, nus, lifts):
        assert pushforward(f.map, mu_k) == nu_k
        drift = max(weight_distance(a, b) for a, b in zip(mu_k.weights, mu0.weights))
        assert drift <= 2.0 / k

    rng = random.Random(1008)
    checked = 0
    while checked < 50:
        p = rng.randint(1, 3)
        cj = FiniteSpace(tuple(f"x{m}" for m in range(1, p + 1)))
        ci = FiniteSpace(tuple(f"y{m}" for m in range(0, p + 1)))
        g = CollapseMap(PointMap(ci, cj, {f"y{m}": f"x{max(m, 1)}" for m in range(0, p + 1)}))
        mu = rand_measure(rng, ci)
        marg = pushforward(g.map, mu)
        from maslov import product_space

        prod = product_space(cj, cj)
        weights = []
        for a in cj.points:
            row = [NEG_INF if rng.random() < 0.2 else -rng.randrange(0, 9) / 4.0 for _ in cj.points]
            if marg.weight(a) == NEG_INF:
                row = [NEG_INF] * len(cj)
            else:
                if max(row) == NEG_INF:
                    row[rng.randrange(len(row))] = 0.0
                top = max(row)
                row = [w - top + marg.weight(a) if w > NEG_INF else NEG_INF for w in row]
            weights.extend(row)
        nu = IdempotentMeasure(prod, tuple(weights))
        lifted = bicommutative_lift(g, mu, nu)
        assert marginal(lifted, 0) == mu
        both = PointMap(
            lifted.space,
            nu.space,
            {(x, y): (g.map.table[x], g.map.table[y]) for x, y in lifted.space.points},
        )
        assert pushforward(both, lifted) == nu
        checked += 1


@criterion(9, "Milyutin selections project to Diracs with in-fiber support (worked + 20 random systems)")
def test_criterion_09_milyutin_builder():
    Y = space("abc")
    metric = metric_closure(Y, [[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    level = MilyutinLevel(
        (CoverPair(frozenset("ab"), frozenset("ab")), CoverPair(frozenset("bc"), frozenset("bc")))
    )
    X1, f1, s1 = milyutin_build(metric, [level], 1)
    assert s1["b"].as_mapping() == {
        ("a", "0"): NEG_INF,
        ("b", "0"): 0.0,
        ("b", "1"): 0.0,
        ("c", "1"): NEG_INF,
    }
    assert s1["a"] == dirac(X1, ("a", "0"))
    X2_, f2, s2 = milyutin_build(metric, [level, level], 2)
    assert sum(1 for w in s2["b"].weights if w == 0.0) == 4
    for f, s, base in ((f1, s1, Y), (f2, s2, Y)):
        for y in base.points:
            assert pushforward(f, s[y]) == dirac(base, y)
            assert support(s[y]) <= f.fiber(y)

    rng = random.Random(1009)
    for _ in range(20):
        n = rng.randint(1, 4)
        Yr = FiniteSpace(tuple(f"y{i}" for i in range(n)))
        raw = [[0.0 if i == j else 1.0 for j in range(n)] for i in range(n)]
        metric_r = metric_closure(Yr, raw) if n > 1 else MetricSpace(Yr, ((0.0,),))
        levels = []
        for _ in range(rng.randint(1, 2)):
            pairs = []
            uncovered = set(Yr.points)
            while uncovered or not pairs:
                U = {rng.choice(Yr.points)} | {p for p in Yr.points if rng.random() < 0.4}
                V = U | {p for p in Yr.points if rng.random() < 0.3}
                alpha = {
                    p: (-rng.randrange(0, 5) / 4.0 if rng.random() < 0.7 else NEG_INF)
                    for p in V - U
                }
                pairs.append(CoverPair(frozenset(U), frozenset(V), alpha))
                uncovered -= U
            levels.append(MilyutinLevel(tuple(pairs)))
        X, f, s = milyutin_build(metric_r, levels, len(levels))
        for y in Yr.points:
            assert pushforward(f, s[y]) == dirac(Yr, y)
            assert support(s[y]) <= f.fiber(y)


@criterion(10, "distinct measures with exactly coinciding images under both retractions")
def test_criterion_10_retraction_witness():
    X3 = space("abc")
    Y, Z = space("ab"), space("ac")
    f = PointMap(X3, Y, {"a": "a", "b": "b", "c": "b"})
    g = PointMap(X3, Z, {"a": "a", "b": "c", "c": "c"})
    mu = IdempotentMeasure(X3, (0.0, -1.0, 0.0))
    nu = IdempotentMeasure(X3, (0.0, -2.0, 0.0))
    assert mu != nu
    assert pushforward(f, mu) == pushforward(f, nu) == normalize(Y, {"a": 0, "b": 0})
    assert pushforward(g, mu) == pushforward(g, nu) == normalize(Z, {"a": 0, "c": 0})


@criterion(11, "preimage and intersection containment equivalences exact on 200 instances")
def test_criterion_11_preimage_and_intersection():
    from maslov.functor import lies_in_subspace

    rng = random.Random(1011)
    for _ in range(200):
        X = rand_space(rng, 4, "x")
        Y = rand_space(rng, 4, "y")
        f = rand_map(rng, X, Y)
        mu = rand_measure(rng, X)
        B = frozenset(y for y in Y.points if rng.random() < 0.5)
        assert lies_in_subspace(pushforward(f, mu), B) == lies_in_subspace(mu, f.preimage(B))
        A1 = frozenset(x for x in X.points if rng.random() < 0.6)
        A2 = frozenset(x for x in X.points if rng.random() < 0.6)
        assert lies_in_subspace(mu, A1 & A2) == (
            lies_in_subspace(mu, A1) and lies_in_subspace(mu, A2)
        )
