"""Outputs built without validation, validated here, and the table checks.

`normalize`, `dirac`, `hyperspace_embed`, `fuzzy_embed`,
`convex_combination`, `pointwise_sup`, `lift_along_surjection`,
`outer_dirac`, `dirac_lift`, `map_outer`, `pointwise_max`, `precompose`
and the openness builders `lift_open_surjection` (with
`lift_open_collapse`), `bicommutative_lift`, `pattern_max_coupling` and
`milyutin_build` build their result with `_trusted`, on the proof in their
docstring.  Both lifts are drawn through collapses and through every
surjection of 1-5 points onto 1-3.  Each result must pass its public constructor unchanged, bit
for bit, and hold no -0.0, which the constructor would turn into 0.0 and
`==` would not see.  The openness outputs must also satisfy the identities
their docstrings prove, bit for bit.  Inputs mix weights k/3 (not dyadic),
subnormals and weights near -1.7e308, whose sums overflow to -inf.

`metric_closure` builds its `MetricSpace` without the triangle check when
every raw entry is a multiple of ulp(2M), M the largest.  Its output must
equal its rebuild through `MetricSpace`, bit for bit, on that path and on
the checked one, and on the certified path the exact `Fraction`
shortest-path table.  Tables of quarters, of k·2^e with k near 2^53 and of
thirds (off the grid) are drawn; the certificate's boundary is pinned by
rows at 2^52, at a sum needing 54 bits and at an overflowing 2M.

The table checks `_as_weights` and `_as_values` read their input once and
keep its nonzero float objects; the first bad entry decides the exception.
"""

import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maslov.core import (
    NEG_INF,
    FiniteFunction,
    FiniteSpace,
    MetricSpace,
    _as_values,
    _as_weights,
    as_value,
    as_weight,
    metric_closure,
    pointwise_max,
    product_space,
)
from maslov.functor import PointMap, lift_along_surjection, precompose, pushforward
from maslov.measures import IdempotentMeasure, convex_combination, dirac, normalize, pointwise_sup
from maslov.monad import (
    ClosedSet,
    FuzzySet,
    OuterMeasure,
    dirac_lift,
    fuzzy_embed,
    hyperspace_embed,
    map_outer,
    marginal,
    outer_dirac,
)
from maslov.openness import (
    CollapseMap,
    CoverPair,
    MilyutinLevel,
    bicommutative_lift,
    coupling_feasible,
    lift_open_collapse,
    lift_open_surjection,
    milyutin_build,
    pattern_max_coupling,
)

SUBNORMAL = 5e-324
HUGE = 1.7e308
HALF_MAX = sys.float_info.max / 2

# weights ≤ 0: k/3, subnormal, near -max (two of them sum past -max), -inf
weight = st.one_of(
    st.just(NEG_INF),
    st.integers(-12, 0).map(lambda k: k / 3),
    st.integers(-4, -1).map(lambda k: k * SUBNORMAL),
    st.integers(0, 7).map(lambda k: -HUGE - k * 1e306),
)
# raw weights of either sign, and finite function values, with -0.0 among them
raw_weight = st.one_of(weight, weight.map(lambda w: -w if w > NEG_INF else w), st.just(-0.0))
value = st.one_of(
    st.integers(-12, 12).map(lambda k: k / 3),
    st.integers(-4, 4).map(lambda k: k * SUBNORMAL),
    st.sampled_from([HUGE, -HUGE, -0.0]),
)
sizes = st.integers(1, 5)


def _space(prefix, n):
    return FiniteSpace(tuple(f"{prefix}{i}" for i in range(n)))


@st.composite
def measures(draw, space):
    table = draw(st.lists(weight, min_size=len(space), max_size=len(space)))
    table[draw(st.integers(0, len(space) - 1))] = 0.0
    return IdempotentMeasure(space, tuple(table))


@st.composite
def functions(draw, space):
    return FiniteFunction(space, tuple(draw(st.lists(value, min_size=len(space), max_size=len(space)))))


@st.composite
def surjections(draw):
    """A map from 1-5 points onto 1-3, every target point hit."""
    target = _space("y", draw(st.integers(1, 3)))
    source = _space("x", len(target) + draw(st.integers(0, 2)))
    images = list(target.points) + [draw(st.sampled_from(target.points)) for _ in source.points[len(target):]]
    order = draw(st.permutations(images))
    return PointMap(source, target, dict(zip(source.points, order)))


@st.composite
def collapses(draw):
    """A map from n + 1 points onto n, merging one pair."""
    return CollapseMap(draw(surjections().filter(lambda f: len(f.source) == len(f.target) + 1)))


def _bits(values):
    return [v.hex() for v in values]


def assert_same_measure(got, want):
    assert got == want and _bits(got.weights) == _bits(want.weights)


def _no_negative_zero(values):
    return all(math.copysign(1.0, v) > 0 for v in values if v == 0)


def assert_valid_measure(mu):
    assert type(mu) is IdempotentMeasure and type(mu.weights) is tuple
    again = IdempotentMeasure(mu.space, mu.weights)
    assert again == mu and _bits(again.weights) == _bits(mu.weights)
    assert _no_negative_zero(mu.weights)


def assert_valid_outer(M):
    assert type(M) is OuterMeasure and type(M.inner) is tuple and type(M.weights) is tuple
    again = OuterMeasure(M.base, M.inner, M.weights)
    assert again == M and _bits(again.weights) == _bits(M.weights)
    assert _no_negative_zero(M.weights)
    for m in M.inner:
        assert_valid_measure(m)


def assert_valid_function(phi):
    assert type(phi) is FiniteFunction and type(phi.values) is tuple
    again = FiniteFunction(phi.space, phi.values)
    assert again == phi and _bits(again.values) == _bits(phi.values)
    assert _no_negative_zero(phi.values)


class TestTrustedMeasures:
    @settings(max_examples=300, deadline=None)
    @given(sizes.flatmap(lambda n: st.lists(raw_weight, min_size=n, max_size=n)).filter(
        lambda t: max(t) > NEG_INF))
    def test_normalize(self, raw):
        X = _space("p", len(raw))
        assert_valid_measure(normalize(X, raw))
        assert_valid_measure(normalize(X, dict(zip(X.points, raw))))

    def test_normalize_overflows_to_minus_inf(self):
        mu = normalize(_space("p", 3), [HUGE, -HUGE, -0.0])
        assert mu.weights == (0.0, NEG_INF, -HUGE)
        assert_valid_measure(mu)

    @given(sizes.flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n - 1))))
    def test_dirac(self, instance):
        n, i = instance
        X = _space("p", n)
        assert_valid_measure(dirac(X, X.points[i]))

    @given(sizes.flatmap(lambda n: st.sets(st.integers(0, n - 1), min_size=1).map(lambda s: (n, s))))
    def test_hyperspace_embed(self, instance):
        n, members = instance
        X = _space("p", n)
        assert_valid_measure(hyperspace_embed(ClosedSet(X, frozenset(X.points[i] for i in members))))

    @settings(max_examples=200, deadline=None)
    @given(sizes.flatmap(lambda n: st.lists(st.one_of(
        st.floats(0.0, 1.0), st.sampled_from([SUBNORMAL, 1 - 2 ** -53, 1 / 3, -0.0])),
        min_size=n, max_size=n)), st.data())
    def test_fuzzy_embed(self, grades, data):
        grades[data.draw(st.integers(0, len(grades) - 1))] = 1.0
        assert_valid_measure(fuzzy_embed(FuzzySet(_space("p", len(grades)), tuple(grades))))

    @settings(max_examples=300, deadline=None)
    @given(sizes.map(lambda n: _space("p", n)).flatmap(
        lambda X: st.tuples(measures(X), measures(X), weight, st.booleans())))
    def test_convex_combination(self, instance):
        mu1, mu2, lam, first = instance
        lam1, lam2 = (0.0, lam) if first else (lam, 0.0)
        assert_valid_measure(convex_combination(lam1, mu1, lam2, mu2))

    @settings(max_examples=200, deadline=None)
    @given(sizes.map(lambda n: _space("p", n)).flatmap(
        lambda X: st.lists(measures(X), min_size=1, max_size=4)))
    def test_pointwise_sup(self, family):
        assert_valid_measure(pointwise_sup(family))

    @settings(max_examples=200, deadline=None)
    @given(surjections().flatmap(lambda f: st.tuples(st.just(f), measures(f.target))))
    def test_lift_along_surjection(self, instance):
        f, nu = instance
        assert_valid_measure(lift_along_surjection(f, nu))


def _anchored_lift(f, mu0, nu):
    """The lift by its definition: per fiber, the first point with the largest
    anchor weight copies ν; every other point is min(ν(f x), μ0(x))."""
    lift = []
    for x in f.source.points:
        fiber = [p for p in f.source.points if f(p) == f(x)]
        first = max(fiber, key=mu0.weight)  # max keeps the first on a tie
        lift.append(nu.weight(f(x)) if x == first else min(nu.weight(f(x)), mu0.weight(x)))
    return IdempotentMeasure(f.source, tuple(lift))


@st.composite
def couplings_over(draw, mu, f):
    """A coupling ν on target × target whose first marginal is f_*μ: the
    rows of a random table with a 0 in each row, capped at f_*μ."""
    nu1 = pushforward(f, mu)
    n = len(f.target)
    rows = [draw(st.lists(weight, min_size=n, max_size=n)) for _ in range(n)]
    for row in rows:
        row[draw(st.integers(0, n - 1))] = 0.0
    cells = tuple(min(a, w) for a, row in zip(nu1.weights, rows) for w in row)
    return IdempotentMeasure(product_space(f.target, f.target), cells)


@st.composite
def cover_levels(draw, Y):
    """1-3 levels of cover pairs on Y, with α drawn from the weights."""
    levels = []
    for _ in range(draw(st.integers(1, 3))):
        pairs = []
        for y in Y.points:  # one pair around each point, so the U-sets cover
            U = frozenset({y, *draw(st.sets(st.sampled_from(Y.points), max_size=2))})
            V = U | draw(st.sets(st.sampled_from(Y.points), max_size=3))
            alpha = {v: draw(weight) for v in V - U}
            pairs.append(CoverPair(U, V, alpha))
        levels.append(MilyutinLevel(tuple(draw(st.permutations(pairs)))))
    return levels


class TestTrustedOpenness:
    @settings(max_examples=300, deadline=None)
    @given(surjections().flatmap(lambda f: st.tuples(
        st.just(f), measures(f.source), st.lists(measures(f.target), max_size=3))))
    def test_lift_open_surjection(self, instance):
        f, mu0, nus = instance
        lifts = lift_open_surjection(f, mu0, nus)
        assert len(lifts) == len(nus)
        for nu_k, mu_k in zip(nus, lifts):
            assert_valid_measure(mu_k)
            assert_same_measure(pushforward(f, mu_k), nu_k)
            assert_same_measure(mu_k, _anchored_lift(f, mu0, nu_k))

    @settings(max_examples=200, deadline=None)
    @given(collapses().flatmap(lambda c: st.tuples(
        st.just(c), measures(c.map.source), st.lists(measures(c.map.target), max_size=3))))
    def test_lift_open_collapse(self, instance):
        c, mu0, nus = instance
        for nu_k, mu_k in zip(nus, lift_open_collapse(c, mu0, nus)):
            assert_valid_measure(mu_k)
            assert_same_measure(pushforward(c.map, mu_k), nu_k)
            assert_same_measure(mu_k, _anchored_lift(c.map, mu0, nu_k))

    @settings(max_examples=300, deadline=None)
    @given(collapses().flatmap(lambda c: measures(c.map.source).flatmap(
        lambda mu: st.tuples(st.just(c), st.just(mu), couplings_over(mu, c.map)))))
    def test_bicommutative_lift(self, instance):
        c, mu, nu = instance
        lifted = bicommutative_lift(c, mu, nu)
        assert_valid_measure(lifted)
        assert_same_measure(marginal(lifted, 0), mu)
        prod = lifted.space
        both = PointMap(prod, nu.space, {(x, xp): (c.map(x), c.map(xp)) for x, xp in prod.points})
        assert_same_measure(pushforward(both, lifted), nu)

    @settings(max_examples=300, deadline=None)
    @given(surjections().flatmap(lambda f: measures(f.source).flatmap(lambda mu: st.tuples(
        st.just(f), st.just(mu), st.lists(measures(f.target), max_size=3), couplings_over(mu, f)))))
    def test_both_lifts_through_surjections(self, instance):
        f, mu, nus, nu = instance
        for nu_k, mu_k in zip(nus, lift_open_surjection(f, mu, nus)):
            assert_same_measure(pushforward(f, mu_k), nu_k)
        lifted = bicommutative_lift(f, mu, nu)
        assert_valid_measure(lifted)
        assert_same_measure(marginal(lifted, 0), mu)
        prod = lifted.space
        both = PointMap(prod, nu.space, {(x, xp): (f(x), f(xp)) for x, xp in prod.points})
        assert_same_measure(pushforward(both, lifted), nu)

    @settings(max_examples=200, deadline=None)
    @given(st.tuples(sizes, sizes).flatmap(
        lambda nm: st.tuples(measures(_space("x", nm[0])), measures(_space("y", nm[1])))))
    def test_pattern_max_coupling(self, pair):
        mu1, mu2 = pair
        cap = pattern_max_coupling(None, mu1, mu2)
        assert_valid_measure(cap)
        assert coupling_feasible(cap, mu1, mu2)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 4).map(lambda n: _space("y", n)).flatmap(
        lambda Y: st.tuples(st.just(Y), cover_levels(Y))), st.data())
    def test_milyutin_build(self, instance, data):
        Y, levels = instance
        depth = data.draw(st.integers(1, len(levels)))
        M = metric_closure(Y, [[float(i != j) for j in range(len(Y))] for i in range(len(Y))])
        X, f, selection = milyutin_build(M, levels, depth)
        assert list(selection) == list(Y.points)
        for y, s_y in selection.items():
            assert_valid_measure(s_y)
            assert_same_measure(pushforward(f, s_y), dirac(Y, y))


class TestTrustedOuterMeasures:
    @settings(max_examples=200, deadline=None)
    @given(sizes.map(lambda n: _space("p", n)).flatmap(measures))
    def test_outer_dirac_and_dirac_lift(self, mu):
        assert_valid_outer(outer_dirac(mu))
        assert_valid_outer(dirac_lift(mu))

    @settings(max_examples=200, deadline=None)
    @given(surjections().flatmap(lambda f: st.tuples(
        st.just(f),
        st.lists(measures(f.source), min_size=1, max_size=3),
        st.data(),
    )))
    def test_map_outer(self, instance):
        f, inner, data = instance
        outer = data.draw(measures(_space("i", len(inner))))
        assert_valid_outer(map_outer(f, OuterMeasure(f.source, tuple(inner), outer.weights)))


class TestTrustedFunctions:
    @settings(max_examples=200, deadline=None)
    @given(sizes.map(lambda n: _space("p", n)).flatmap(lambda X: st.tuples(functions(X), functions(X))))
    def test_pointwise_max(self, pair):
        assert_valid_function(pointwise_max(*pair))

    @settings(max_examples=200, deadline=None)
    @given(surjections().flatmap(lambda f: st.tuples(st.just(f), functions(f.target))))
    def test_precompose(self, instance):
        f, phi = instance
        assert_valid_function(precompose(phi, f))


def _closure(X, raw):
    """metric_closure's output, and whether MetricSpace's check ran on it."""
    check, calls = MetricSpace.__post_init__, []

    def counted(self):
        calls.append(self)
        check(self)

    MetricSpace.__post_init__ = counted
    try:
        return metric_closure(X, raw), bool(calls)
    finally:
        MetricSpace.__post_init__ = check


def _on_grid(raw):
    """Every entry a multiple of ulp(2M), M the largest, in exact arithmetic."""
    top = max(map(max, raw))
    if 2 * top == math.inf:
        return False
    g = Fraction(math.ulp(2 * top))
    return all(Fraction(v) % g == 0 for row in raw for v in row)


def _exact_closure(raw):
    """Floyd-Warshall over Fractions: the real shortest-path table."""
    d = [[Fraction(v) for v in row] for row in raw]
    for k in range(len(d)):
        for row in d:
            for j, via in enumerate(d[k]):
                row[j] = min(row[j], row[k] + via)
    return d


def assert_valid_closure(X, raw):
    """The closure equals its checked rebuild, bit for bit, and is checked
    iff its raw table is off the grid; on the grid it is exact."""
    out, checked = _closure(X, raw)
    assert type(out) is MetricSpace and not out._table.flags.writeable
    again = MetricSpace(X, out.dist)
    assert again == out and out._table.tobytes() == again._table.tobytes()
    assert all(type(v) is float for row in out.dist for v in row)
    assert checked is not _on_grid(raw)
    if not checked:
        assert [list(map(Fraction, row)) for row in out.dist] == _exact_closure(raw)
    return out, checked


_upper = np.triu(np.random.default_rng(0).uniform(0.1, 10.0, size=(9, 9)), 1)
REAL_TABLE = (_upper + _upper.T).tolist()  # uniform(0.1, 10), off every grid


@st.composite
def raw_tables(draw):
    """Symmetric tables of 1-6 points: quarters, k·2^e with k near the
    53-bit limit (one scale a table), or thirds."""
    n = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["quarters", "headroom", "thirds"]))
    if kind == "quarters":
        entry = st.integers(1, 32).map(lambda k: k / 4)
    elif kind == "thirds":
        entry = st.integers(1, 12).map(lambda k: k / 3)
    else:
        scale = 2.0 ** draw(st.sampled_from([-1074, -60, 0, 960, 971]))
        entry = st.integers(2 ** 50, 2 ** 53 - 1).map(lambda k: k * scale)
    raw = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            raw[i][j] = raw[j][i] = draw(entry)
    return raw


class TestCertifiedClosure:
    @settings(max_examples=400, deadline=None)
    @given(raw_tables())
    def test_closure_matches_its_rebuild(self, raw):
        assert_valid_closure(_space("p", len(raw)), raw)

    @pytest.mark.parametrize("raw, certified", [
        # odd integers up to 2^52 - 1: every sum fits in 53 bits
        ([[0, 2 ** 51, 3], [2 ** 51, 0, 2 ** 52 - 1], [3, 2 ** 52 - 1, 0]], True),
        # M = 2^52 puts g at 2, so an odd entry is off the grid
        ([[0, 2 ** 52, 1], [2 ** 52, 0, 2 ** 52], [1, 2 ** 52, 0]], False),
        # 2^52 + 1 plus 2^52 + 2 needs 54 bits, so the table is checked
        ([[0, 2 ** 52 + 1, 2 ** 52 + 2], [2 ** 52 + 1, 0, 2 ** 52 + 1], [2 ** 52 + 2, 2 ** 52 + 1, 0]], False),
        # 2M past sys.float_info.max overflows to inf
        ([[0, HALF_MAX * 1.5, HALF_MAX * 1.25], [HALF_MAX * 1.5, 0, HALF_MAX * 1.5],
          [HALF_MAX * 1.25, HALF_MAX * 1.5, 0]], False),
        ([[0, 2.0 ** 1022], [2.0 ** 1022, 0]], True),
        # x + C rounds up to 2^1024, past the float range
        ([[0, math.nextafter(2.0 ** 1023, 0)], [math.nextafter(2.0 ** 1023, 0), 0]], False),
        ([[0.0]], True),
        ([[0, SUBNORMAL, 2 * SUBNORMAL], [SUBNORMAL, 0, SUBNORMAL], [2 * SUBNORMAL, SUBNORMAL, 0]], True),
        (REAL_TABLE, False),
    ])
    def test_certificate_boundary(self, raw, certified):
        _, checked = assert_valid_closure(_space("p", len(raw)), raw)
        assert checked is not certified


class Counted:
    """An iterable that counts how often it is iterated."""

    def __init__(self, items):
        self.items, self.passes = list(items), 0

    def __iter__(self):
        self.passes += 1
        return iter(self.items)


TABLES = [(_as_weights, as_weight), (_as_values, as_value)]


class TestTableChecks:
    @pytest.mark.parametrize("table, check", TABLES)
    @pytest.mark.parametrize("bad", [
        (math.nan, math.inf, "1", None),
        (math.inf, None, math.nan, b"2"),
        ("1", math.nan, None, math.inf),
        (None, "1", math.inf, math.nan),
        (bytearray(b"3"), None, math.nan, math.inf),
    ])
    def test_first_bad_entry_decides(self, table, check, bad):
        good = (-1.0, 0.0, 2)
        for k in range(len(good) + 1):
            entries = good[:k] + bad + good[k:]
            with pytest.raises(Exception) as want:
                check(bad[0])
            with pytest.raises(want.type) as got:
                table(entries)
            assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("table, check", TABLES)
    def test_text_is_rejected(self, table, check):
        for text in ("0", "-inf", b"0", bytearray(b"0")):
            with pytest.raises(TypeError, match="must be numbers, got "):
                table((0.0, text))
            with pytest.raises(TypeError, match="must be numbers, got "):
                check(text)

    @pytest.mark.parametrize("table, check", TABLES)
    @pytest.mark.parametrize("entries", [(0.0, -1.5), (0.0, -1.5, -0.0), (0, -1.5), (np.float64(-2.0), 0.0)])
    def test_input_is_read_once(self, table, check, entries):
        counted = Counted(entries)
        assert table(counted) == tuple(map(check, entries))
        assert counted.passes == 1
        gen = (v for v in entries)
        assert table(gen) == tuple(map(check, entries))
        assert next(gen, None) is None

    @pytest.mark.parametrize("table, check", TABLES)
    def test_numpy_arrays(self, table, check):
        arr = np.array([0.0, -1.25, -0.0, 3.0 / 7])
        out = table(arr)
        assert out == (0.0, -1.25, 0.0, 3.0 / 7)
        assert all(type(v) is float for v in out) and _no_negative_zero(out)
        assert _as_weights(np.array([0.0, NEG_INF])) == (0.0, NEG_INF)

    @pytest.mark.parametrize("table, check", TABLES)
    def test_negative_zero_becomes_zero(self, table, check):
        out = table([-0.0, -1.0, -0.0])
        assert _bits(out) == _bits((0.0, -1.0, 0.0))

    @pytest.mark.parametrize("table, check", TABLES)
    @pytest.mark.parametrize("extra", [(), (-0.0,), (0,), (np.float64(1.0),)])
    def test_float_objects_are_kept(self, table, check, extra):
        # every nonzero float is the input's object, every zero the one 0.0
        # that `check` returns, so a table costs no float of its own
        entries = [float(f"{k}.5") * -1 for k in range(4)] + [SUBNORMAL * 3, float("0"), *extra]
        out = table(entries)
        assert all(o is e for o, e in zip(out, entries) if type(e) is float and e != 0)
        assert all(o is check(0.0) for o in out if o == 0)
