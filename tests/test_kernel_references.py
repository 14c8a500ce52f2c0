"""The fast kernels against plain loop references.

The kernels perform the same IEEE operations (max, min, +, -, n·d) in the
same association order as the loops below, so every comparison here is
exact: `==` on tuples and floats, `np.array_equal` on tables, and the same
error message where the reference raises.  The coupling gap solves fewer
boxes than its reference, one per tight pattern, and must still return
the same gap, coupling and witness.  Tight-pattern enumeration is
compared with the loop that checks every doubly picked cell for
consistency and sorts rows, columns and pinned cells by label index.
The closed-form open lift is compared with the per-collapse lift,
composed along `factor_surjection` for an arbitrary surjection.
Flattening and `tensor_many` read the row-major point order of a product
instead of its labels; they are compared with the label-walking relabel
and the per-coordinate weight lookups, and `infer_space` must rebuild
every nested product from its point list.
"""

import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maslov import (
    NEG_INF,
    CollapseMap,
    FiniteSpace,
    IdempotentMeasure,
    InfeasibleError,
    MetricSpace,
    PointMap,
    ProductSpace,
    coupling_gap,
    counterexample_instance,
    dhat,
    integrate,
    lift_along_surjection,
    lift_open_collapse,
    marginal,
    metric_closure,
    normalize,
    product_space,
    pushforward,
    dirac,
    space,
)
from maslov.core import flatten_space
from maslov.io import infer_space
from maslov.metrics import maxmin_gap
from maslov.monad import flatten_measure, projection, tensor_many
from maslov.openness import (
    GapResult,
    TightPattern,
    factor_surjection,
    indicator_family,
    lift_open_surjection,
    tight_patterns,
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


def _box_gap_loop(fixed, caps, targets, values):
    """One pattern box, solved from scratch: the closed form per test function."""
    cells = list(caps)
    A = {
        c: min(m - phi[c] for m, phi in zip(targets, values))
        for c in cells
    }
    t_min = 0.0
    for c, v in fixed.items():
        if v > NEG_INF:
            t_min = max(t_min, v - A[c])

    for m, phi in zip(targets, values):
        w_fixed = max((v + phi[c] for c, v in fixed.items() if v > NEG_INF), default=NEG_INF)
        best = m - w_fixed if w_fixed > NEG_INF else math.inf
        for c in cells:
            if c in fixed:
                continue
            u = caps[c]
            if u == NEG_INF:
                continue
            sat = u - A[c]
            t1 = (m - A[c] - phi[c]) / 2.0
            thr = t1 if t1 <= sat else (m - u - phi[c])
            if thr < best:
                best = thr
        t_min = max(t_min, best)

    coupling = {
        c: (fixed[c] if c in fixed else min(caps[c], t_min + A[c]))
        for c in cells
    }
    return t_min, coupling


def _coupling_gap_loop(mu1, mu2, target):
    """Every tight pattern's box solved in turn; the first strictly best wins."""
    prod = product_space(mu1.space, mu2.space)
    if target.space != prod:
        raise ValueError("target must live on the product of the marginal spaces")
    family = indicator_family(prod)
    targets = [integrate(target, phi) for phi in family]
    values = [
        {cell: phi(cell) for cell in prod.points}
        for phi in family
    ]
    caps = {
        (x, y): min(mu1.weight(x), mu2.weight(y))
        for (x, y) in prod.points
    }

    best = None
    for pattern in tight_patterns(mu1, mu2):
        solved = _box_gap_loop(dict(pattern.fixed), caps, targets, values)
        if best is None or solved[0] < best[0]:
            best = solved
    if best is None:
        raise InfeasibleError("no feasible coupling for the given marginals")

    gap, table = best
    coupling = IdempotentMeasure(prod, tuple(table[c] for c in prod.points))
    deviations = [abs(integrate(coupling, phi) - m) for phi, m in zip(family, targets)]
    witness = family[max(range(len(family)), key=lambda i: deviations[i])]
    return GapResult(gap=gap, coupling=coupling, phi=witness)


def _tight_patterns_loop(mu1, mu2):
    """The label-keyed enumeration with a consistency check per pattern."""
    xs, ys = mu1.space.points, mu2.space.points
    a = {x: mu1.weight(x) for x in xs}
    b = {y: mu2.weight(y) for y in ys}
    finite_rows = [x for x in xs if a[x] > NEG_INF]
    finite_cols = [y for y in ys if b[y] > NEG_INF]
    row_choices = {x: [y for y in ys if b[y] >= a[x]] for x in finite_rows}
    col_choices = {y: [x for x in xs if a[x] >= b[y]] for y in finite_cols}

    for row_pick in itertools.product(*(row_choices[x] for x in finite_rows)):
        rows = dict(zip(finite_rows, row_pick))
        for col_pick in itertools.product(*(col_choices[y] for y in finite_cols)):
            cols = dict(zip(finite_cols, col_pick))
            fixed = {}
            ok = True
            for x, y in rows.items():
                fixed[(x, y)] = a[x]
            for y, x in cols.items():
                cell = (x, y)
                if cell in fixed and fixed[cell] != b[y]:
                    ok = False
                    break
                fixed[cell] = b[y]
            if not ok:
                continue
            yield TightPattern(
                rows=tuple(sorted(rows.items(), key=lambda kv: mu1.space.index(kv[0]))),
                cols=tuple(sorted(cols.items(), key=lambda kv: mu2.space.index(kv[0]))),
                fixed=tuple(sorted(
                    fixed.items(),
                    key=lambda kv: (mu1.space.index(kv[0][0]), mu2.space.index(kv[0][1])),
                )),
            )


def _lift_open_collapse_loop(f, mu0, nu_seq):
    """The per-collapse lift: of the doubled pair, the point with the larger
    anchor weight (the first on a tie) takes the merged weight, and the
    other that weight clipped at its own anchor weight."""
    pm = f.map
    p, q = f.doubled
    if mu0.weight(p) >= mu0.weight(q):
        hi, lo = p, q
    else:
        hi, lo = q, p
    alpha_lo = mu0.weight(lo)
    y1 = pm.table[hi]
    lifts = []
    for nu_k in nu_seq:
        beta1 = nu_k.weight(y1)
        weights = []
        for x in pm.source.points:
            if x == hi:
                weights.append(beta1)
            elif x == lo:
                weights.append(min(beta1, alpha_lo))
            else:
                weights.append(nu_k.weight(pm.table[x]))
        lifts.append(IdempotentMeasure(pm.source, tuple(weights)))
    return lifts


def _lift_open_composed(f, mu0, nu_seq):
    """The collapse lifts composed along `factor_surjection`, each stage
    anchored at the image of μ0 reached so far."""
    collapses, relabel = factor_surjection(f)
    anchors = [mu0]
    for c in collapses:
        anchors.append(pushforward(c.map, anchors[-1]))
    seq = [lift_along_surjection(relabel, nu_k) for nu_k in nu_seq]
    for c, anchor in zip(reversed(collapses), reversed(anchors[:-1])):
        seq = _lift_open_collapse_loop(c, anchor, seq)
    return seq


def _atomic_factors_loop(space):
    if isinstance(space, ProductSpace):
        return tuple(a for f in space.factors for a in _atomic_factors_loop(f))
    return (space,)


def _flatten_label_loop(space, label):
    """A nested product label as the tuple of its atomic coordinates."""
    if isinstance(space, ProductSpace):
        flat = ()
        for f, part in zip(space.factors, label):
            flat = flat + _flatten_label_loop(f, part)
        return flat
    return (label,)


def _flatten_space_loop(space):
    flat = product_space(*_atomic_factors_loop(space))
    return flat, {p: _flatten_label_loop(space, p) for p in space.points}


def _flatten_measure_loop(mu):
    """Transport along the relabel map by a pushforward."""
    flat, table = _flatten_space_loop(mu.space)
    return pushforward(PointMap(mu.space, flat, table), mu)


def _tensor_many_loop(measures):
    """Per point of the flat product, sum the weights looked up by label."""
    prod = product_space(*(m.space for m in measures))
    weights = []
    for point in prod.points:
        w = 0.0
        for m, part in zip(measures, point):
            w = w + m.weight(part)
        weights.append(w)
    return IdempotentMeasure(prod, tuple(weights))


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


# -------------------------------------------------------- coupling gap

def _gap_triple(result):
    return result.gap, result.coupling.weights, result.phi.values


@st.composite
def _gap_instances(draw):
    """2x2 to 3x3 marginals on a weak order of tie levels, -inf allowed.

    Each point of either marginal gets a level (0 is weight 0, deeper is
    lower, None is -inf), shared by rows and columns so ties cross them;
    each marginal has a point at level 0.  With `scale` 3 every value is
    divided by 3, so + and - round.
    """
    scale = draw(st.sampled_from([1.0, 3.0]))
    steps = draw(st.lists(st.integers(1, 6), min_size=2, max_size=2))
    levels = [0.0, -steps[0] / 4.0 / scale, -(steps[0] + steps[1]) / 4.0 / scale]
    level = st.sampled_from((0, 1, 2, None))

    def marginal(prefix):
        n = draw(st.integers(2, 3))
        picks = draw(st.lists(level, min_size=n, max_size=n))
        picks[draw(st.integers(0, n - 1))] = 0
        sp = _labels(prefix, n)
        return IdempotentMeasure(sp, tuple(NEG_INF if k is None else levels[k] for k in picks))

    mu1, mu2 = marginal("x"), marginal("y")
    prod = product_space(mu1.space, mu2.space)
    cell = st.one_of(st.none(), st.integers(-16, 0))
    raw = draw(st.lists(cell, min_size=len(prod), max_size=len(prod)))
    raw[draw(st.integers(0, len(prod) - 1))] = 0
    target = IdempotentMeasure(prod, tuple(NEG_INF if k is None else k / 4.0 / scale for k in raw))
    return mu1, mu2, target


# Weak orders of the six weights x1 x2 x3 y1 y2 y3 (level 0 is weight 0,
# deeper is lower), keyed by their number of tight patterns.
TIE_TEMPLATES = {
    9: (0, 1, 1, 0, 2, 2),
    12: (0, 1, 3, 0, 2, 2),
    18: (0, 0, 1, 0, 2, 2),
    24: (0, 0, 2, 0, 1, 1),
    36: (0, 0, 1, 0, 1, 2),
    54: (0, 0, 1, 0, 1, 1),
    96: (0, 0, 1, 0, 0, 2),
}


class TestCouplingGapMatchesLoop:
    @settings(max_examples=60, deadline=None)
    @given(_gap_instances())
    def test_tie_templates(self, instance):
        assert _gap_triple(coupling_gap(*instance)) == _gap_triple(_coupling_gap_loop(*instance))

    @pytest.mark.parametrize("scale", [1.0, 3.0])
    @pytest.mark.parametrize("patterns", sorted(TIE_TEMPLATES))
    def test_three_by_three_templates(self, patterns, scale):
        rng = random.Random(patterns)
        template = TIE_TEMPLATES[patterns]
        levels = [0.0]
        for _ in range(max(template)):
            levels.append(levels[-1] - rng.randint(1, 6) / 4.0 / scale)
        X, Y = _labels("x", 3), _labels("y", 3)
        mu1 = IdempotentMeasure(X, tuple(levels[k] for k in template[:3]))
        mu2 = IdempotentMeasure(Y, tuple(levels[k] for k in template[3:]))
        assert sum(1 for _ in tight_patterns(mu1, mu2)) == patterns
        prod = product_space(X, Y)
        raw = [
            -rng.randint(0, 16) / 4.0 / scale if rng.random() < 0.7 else NEG_INF
            for _ in prod.points
        ]
        raw[rng.randrange(len(raw))] = 0.0
        target = IdempotentMeasure(prod, tuple(raw))
        assert _gap_triple(coupling_gap(mu1, mu2, target)) == _gap_triple(
            _coupling_gap_loop(mu1, mu2, target)
        )

    def test_tie_decided_by_rounding(self):
        # The first pattern's box is not minimal and ties with the minimal
        # ones at the least gap.  In exact arithmetic tied boxes share their
        # optimal coupling, but here t + A_c lands an ulp below a cap, so
        # that box must win, as it does in the reference.
        X, Y = _labels("x", 2), _labels("y", 2)
        mu1 = IdempotentMeasure(X, (-0.25 / 3, 0.0))
        mu2 = IdempotentMeasure(Y, (0.0, -0.25 / 3))
        target = IdempotentMeasure(product_space(X, Y), (0.0, NEG_INF, 0.0, NEG_INF))
        got = _gap_triple(coupling_gap(mu1, mu2, target))
        assert got == _gap_triple(_coupling_gap_loop(mu1, mu2, target))
        assert got[1] == (-0.25 / 3, -0.25 / 3, 0.0, -0.08333333333333337)

    def test_uniform_three_by_three_corner(self):
        # 729 patterns, 15 minimal boxes, the least gap 1 tied among them
        X, Y = _labels("x", 3), _labels("y", 3)
        u1, u2 = normalize(X, [0.0] * 3), normalize(Y, [0.0] * 3)
        corner = dirac(product_space(X, Y), ("x0", "y0"))
        assert _gap_triple(coupling_gap(u1, u2, corner)) == _gap_triple(
            _coupling_gap_loop(u1, u2, corner)
        )

    def test_counterexample_instances(self):
        for l in [*range(1, 101), math.inf]:
            instance = counterexample_instance(l)
            assert _gap_triple(coupling_gap(*instance)) == _gap_triple(_coupling_gap_loop(*instance))


# --------------------------------------------------------- tight patterns

@st.composite
def _pattern_marginals(draw):
    """1x1 to 4x4 marginals on a weak order of tie levels, -inf allowed.

    Each point gets one of four levels (0 and three lower ones) or -inf,
    and each marginal has a point at weight 0.  The levels are sums of
    quarter steps divided by 1, 3, 7 or 10, so most are not dyadic.
    """
    scale = draw(st.sampled_from([1.0, 3.0, 7.0, 10.0]))
    steps = draw(st.lists(st.integers(1, 6), min_size=3, max_size=3))
    levels = [0.0, *(-sum(steps[:k]) / 4.0 / scale for k in (1, 2, 3)), NEG_INF]

    def marginal(prefix):
        n = draw(st.integers(1, 4))
        weights = draw(st.lists(st.sampled_from(levels), min_size=n, max_size=n))
        weights[draw(st.integers(0, n - 1))] = 0.0
        return IdempotentMeasure(_labels(prefix, n), tuple(weights))

    return marginal("x"), marginal("y")


class TestTightPatternsMatchLoop:
    @settings(max_examples=200, deadline=None)
    @given(_pattern_marginals())
    def test_tie_levels(self, marginals):
        assert list(tight_patterns(*marginals)) == list(_tight_patterns_loop(*marginals))

    @pytest.mark.parametrize("scale", [1.0, 3.0])
    @pytest.mark.parametrize("patterns", sorted(TIE_TEMPLATES))
    def test_three_by_three_templates(self, patterns, scale):
        template = TIE_TEMPLATES[patterns]
        levels = [0.0, -0.25 / scale, -0.75 / scale, -1.5 / scale]
        mu1 = IdempotentMeasure(_labels("x", 3), tuple(levels[k] for k in template[:3]))
        mu2 = IdempotentMeasure(_labels("y", 3), tuple(levels[k] for k in template[3:]))
        got = list(tight_patterns(mu1, mu2))
        assert len(got) == patterns
        assert got == list(_tight_patterns_loop(mu1, mu2))

    def test_uniform_three_by_three(self):
        u1 = normalize(_labels("x", 3), [0.0] * 3)
        u2 = normalize(_labels("y", 3), [0.0] * 3)
        got = list(tight_patterns(u1, u2))
        assert len(got) == 729
        assert got == list(_tight_patterns_loop(u1, u2))

    def test_counterexample_instances(self):
        for l in [*range(1, 21), math.inf]:
            mu1, mu2, _ = counterexample_instance(l)
            assert list(tight_patterns(mu1, mu2)) == list(_tight_patterns_loop(mu1, mu2))


# ------------------------------------------------------------- open lifts

@st.composite
def _tie_measure(draw, space):
    """A measure on a weak order of four tie levels, -inf allowed.

    The levels are sums of quarter steps divided by 1, 3, 7 or 10, so most
    are not dyadic; one point sits at weight 0.
    """
    scale = draw(st.sampled_from([1.0, 3.0, 7.0, 10.0]))
    steps = draw(st.lists(st.integers(1, 6), min_size=3, max_size=3))
    levels = [0.0, *(-sum(steps[:k]) / 4.0 / scale for k in (1, 2, 3)), NEG_INF]
    n = len(space)
    weights = draw(st.lists(st.sampled_from(levels), min_size=n, max_size=n))
    weights[draw(st.integers(0, n - 1))] = 0.0
    return IdempotentMeasure(space, tuple(weights))


@st.composite
def _open_lift_instances(draw, collapse):
    """A surjection of 1-8 source points (a collapse when `collapse`), an
    anchor and 1-4 target measures, the first of them the anchor's image."""
    n = draw(st.integers(2 if collapse else 1, 8))
    m = n - 1 if collapse else draw(st.integers(1, n))
    X, Y = _labels("x", n), _labels("y", m)
    # every target point once, the rest anywhere, in a shuffled order
    images = draw(st.permutations(
        [*range(m), *draw(st.lists(st.integers(0, m - 1), min_size=n - m, max_size=n - m))]
    ))
    f = PointMap(X, Y, {x: Y.points[j] for x, j in zip(X.points, images)})
    mu0 = draw(_tie_measure(X))
    nus = [pushforward(f, mu0), *draw(st.lists(_tie_measure(Y), min_size=0, max_size=3))]
    return f, mu0, nus


class TestOpenLiftMatchesComposedCollapses:
    @settings(max_examples=300, deadline=None)
    @given(_open_lift_instances(collapse=False))
    def test_surjections(self, instance):
        f, mu0, nus = instance
        assert lift_open_surjection(f, mu0, nus) == _lift_open_composed(f, mu0, nus)

    @settings(max_examples=200, deadline=None)
    @given(_open_lift_instances(collapse=True))
    def test_collapses(self, instance):
        f, mu0, nus = instance
        c = CollapseMap(f)
        assert lift_open_collapse(c, mu0, nus, nu0=nus[0]) == _lift_open_collapse_loop(c, mu0, nus)


# ------------------------------------------------------------- products

@st.composite
def _nested_products(draw, max_factors=4, max_points=4):
    """A product of 2 to `max_factors` string-labelled factors, nested at random.

    Each factor lists its labels in a drawn order, so sorting them would
    change the order.
    """
    n = draw(st.integers(2, max_factors))
    parts = []
    for c in "abcd"[:n]:
        labels = _labels(c, draw(st.integers(1, max_points))).points
        parts.append(FiniteSpace(tuple(draw(st.permutations(labels)))))
    while len(parts) > 1:
        i = draw(st.integers(0, len(parts) - 2))
        j = draw(st.integers(i + 2, len(parts)))
        parts[i:j] = [product_space(*parts[i:j])]
    return parts[0]


@st.composite
def _measure_on(draw, space):
    """A measure with -inf atoms and weights k/1, k/3, k/7 or k/10, one at 0."""
    scale = draw(st.sampled_from([1.0, 3.0, 7.0, 10.0]))
    n = len(space)
    weights = draw(st.lists(
        st.one_of(st.just(NEG_INF), st.integers(-12, 0).map(lambda k: k / scale)),
        min_size=n, max_size=n,
    ))
    weights[draw(st.integers(0, n - 1))] = 0.0
    return IdempotentMeasure(space, tuple(weights))


@st.composite
def _tensor_factors(draw):
    """Two to four measures, each on a flat space or on a small nested product."""
    spaces = draw(st.lists(
        st.one_of(
            st.integers(1, 4).map(lambda n: _labels("x", n)),
            _nested_products(max_factors=3, max_points=2),
        ),
        min_size=2, max_size=4,
    ))
    return [draw(_measure_on(sp)) for sp in spaces]


class TestProductsMatchLabelWalks:
    @settings(max_examples=200, deadline=None)
    @given(_nested_products())
    def test_flatten_space(self, P):
        flat, table = flatten_space(P)
        flat_r, table_r = _flatten_space_loop(P)
        assert flat == flat_r and flat.points == flat_r.points
        assert table == table_r and list(table) == list(table_r)

    @settings(max_examples=200, deadline=None)
    @given(_nested_products().flatmap(_measure_on))
    def test_flatten_measure(self, mu):
        out, ref = flatten_measure(mu), _flatten_measure_loop(mu)
        assert out == ref and out.space.points == ref.space.points

    @settings(max_examples=200, deadline=None)
    @given(_tensor_factors())
    def test_tensor_many(self, measures):
        assert tensor_many(measures) == _tensor_many_loop(measures)

    @settings(max_examples=200, deadline=None)
    @given(_nested_products())
    def test_infer_space_rebuilds_the_product(self, P):
        assert infer_space(list(P.points)) == P

    def test_equality_goes_through_the_factors(self):
        A, B, C = _labels("a", 2), _labels("b", 3), _labels("c", 1)
        P = product_space(product_space(A, B), C)
        Q = product_space(product_space(_labels("a", 2), _labels("b", 3)), _labels("c", 1))
        assert P == Q and hash(P) == hash(Q)
        assert P != product_space(A, B, C)
        # the same tuple points on a plain space, or on a product of other factors
        assert P != FiniteSpace(P.points) and FiniteSpace(P.points) != P
        AB = FiniteSpace(product_space(A, B).points)
        R = product_space(AB, C)
        assert R.points == P.points and R != P
