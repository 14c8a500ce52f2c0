"""The fast kernels against plain loop references.

The kernels perform the same IEEE operations (max, min, +, -, n·d) in the
same association order as the loops below, so every comparison here is
exact: `==` on tuples and floats, `np.array_equal` on tables, and the same
error message where the reference raises.  The coupling gap is one
closed-form pass over the cells; its reference solves the box of every
tight pattern in turn, and both must return the same gap, coupling and
witness.  Beyond 4 points a side the reference enumerates the patterns
with the uncapped loop below; beyond 12 cells the closed-form witness is
compared with a numpy sweep of all 2^n test functions, and up to 8x8 with
the quadratic walk over the cells that it replaced.  Tight-pattern
enumeration is compared with the loop that checks every doubly picked
cell for consistency and sorts rows, columns and pinned cells by label
index, and `pattern_max_coupling` with the label lookup of pinned cells.
Mixing, hull tests, convex combinations and suprema all call the one
max-plus linear combination `core.combine`; each is compared with the loop
it replaced, bit for bit, as is `combine` on the columns of the {0, -1}
test family, and the two-factor `tensor` with its own weight sums.
From `_ARRAY_POINTS` base points on, `multiply` mixes numpy arrays when
numpy is loaded; it is compared with the loop just below, at and well
above that size, also on ties of 0.0 with -0.0 in the input.  Likewise
from `_ARRAY_POINTS` product cells on `tensor_many` sums numpy arrays and
keeps the product's array as its `_array` cache, which `marginal` reduces;
both are compared with the loops bit for bit on two- and three-factor and
nested products, and the cache must stay read-only, equal the weights,
and leave `==`, hash, repr, copy and pickle as they are without it.  The
first array kernel that reads an input of `_ARRAY_POINTS` entries or more
fills that input's cache, and a second `multiply` converts no inner
measure again.  A measure built by an array kernel builds its `weights`
tuple from its array on the first read: `marginal` and `flatten_measure`
leave it unbuilt, and it equals, hashes, prints, encodes, copies and
pickles to the same bytes as the measure built with its tuple.
Barycenters read a cloud's coordinate columns; they are compared with the
loop and with `combine`, bit for bit, also on ties of 0.0 and -0.0.
The closed-form open lift is compared with the per-collapse lift,
composed along `_factor_surjection`, the factorization of a surjection
into single-point collapses, which lives here and nowhere in the library.
Flattening and `tensor_many` read the row-major point order of a product
instead of its labels; they are compared with the label-walking relabel
and the per-coordinate weight lookups, and `infer_space` must rebuild
every nested product from its point list.  The value classes take `==`,
hash and repr from their `_fields` tuples on `core._Value`; the
`dataclasses` definitions they replaced are kept below, each `_fields` must
be the compared fields of its definition, and every class must match them
in `==`, hash, repr, construction and immutability, and survive copy and
pickle; a cloud's coordinate columns are not compared, and survive copy
and pickle.  A frozenset rebuilt by copy or pickle may list two members
whose hashes collide the other way round, so a copy's repr is compared
with the members of each frozenset in sorted order.  The dual-distance
table is one array pass per row; it is compared with the per-pair
`dtilde` loop it replaced, on metric and pseudometric ground tables.  `outer_dtilde` computes only the block of
that table from M's support to N's; it is compared with the gap over the
whole table, with -inf among the outer weights.  The
triangle check of `MetricSpace` runs on a min-plus square; it is compared
with the loop over every k, also on tables one ulp either side of the slack.
"""

import ast
import copy
import dataclasses
import inspect
import itertools
import math
import pickle
import random
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import maslov.io as mio
from conftest import rand_surjection
from maslov import (
    NEG_INF,
    ClosedSet,
    CollapseMap,
    CoverPair,
    FiniteFunction,
    FiniteSpace,
    FuzzySet,
    IdempotentMeasure,
    InfeasibleError,
    MetricSpace,
    MilyutinLevel,
    OuterMeasure,
    PointCloudSpace,
    PointMap,
    ProductSpace,
    algebra_law_check,
    barycenter,
    bicommutative_lift,
    convex_combination,
    coupling_gap,
    counterexample_instance,
    dhat,
    dhat_oracle,
    dtilde,
    hull_membership,
    integrate,
    lift_along_surjection,
    lift_open_collapse,
    marginal,
    metric_closure,
    milyutin_build,
    multiply,
    normalize,
    pattern_max_coupling,
    pointwise_sup,
    product_space,
    pushforward,
    dirac,
    space,
    tensor,
)
from maslov.core import _atomic_factors, combine
from maslov.functor import precompose
from maslov.io import Context, infer_space
from maslov.laws import LawReport, check_functor_laws, rand_space
from maslov.metrics import _gap_args, grid_gap, inner_distance_table, maxmin_gap, outer_dtilde
from maslov.monad import _ARRAY_POINTS, flatten_measure, tensor_many
from maslov.openness import (
    GapResult,
    TightPattern,
    _box,
    lift_open_surjection,
    tight_patterns,
)


# ------------------------------------------------------------ references

def _distances_loop(n, dist, metric=True):
    """The pure-Python first-defect check of a distance table over n
    points, the diagonal first in each row; returns the float rows."""
    rows = tuple(tuple(float(v) for v in row) for row in dist)
    if len(rows) != n or any(len(r) != n for r in rows):
        raise ValueError("distance table must be square over the space")
    for i in range(n):
        if metric and rows[i][i] != 0.0:
            raise ValueError("distance from a point to itself must be 0")
        for j in range(n):
            v = rows[i][j]
            if not math.isfinite(v) or v < 0.0:
                raise ValueError("distances must be finite and nonnegative")
            if v != rows[j][i]:
                raise ValueError("distance table must be symmetric")
            if metric and i != j and v == 0.0:
                raise ValueError("distinct points must be at positive distance")
    return rows


def _metric_space_loop(space, dist):
    """The pure-Python MetricSpace validator, with its triangle slack
    1 + n·ε; returns the float rows."""
    n = len(space)
    rows = _distances_loop(n, dist)
    slack = 1.0 + n * sys.float_info.epsilon
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if rows[i][j] > (rows[i][k] + rows[k][j]) * slack:
                    raise ValueError(
                        "triangle inequality fails; run metric_closure on the raw table"
                    )
    return rows


def _metric_closure_loop(space, raw):
    """The triple-loop Floyd-Warshall closure; returns the validated rows."""
    n = len(space)
    d = np.array(_distances_loop(n, raw))
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


def _inner_distance_table_loop(n, X, measures):
    """The per-pair dtilde table."""
    k = len(measures)
    table = [[0.0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            v = dtilde(n, X, measures[i], measures[j])
            table[i][j] = v
            table[j][i] = v
    return table


def _marginal_by_projection(mu, axis):
    """The pushforward along the coordinate projection onto one factor."""
    P = mu.space
    return pushforward(PointMap(P, P.axis(axis), {p: p[axis] for p in P.points}), mu)


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


def indicator_family(space):
    """All {0, -1}-valued test functions on a space (2^|space| of them), in
    `itertools.product((0, -1))` order: the first function is 0 everywhere."""
    return [
        FiniteFunction(space, values)
        for values in itertools.product((0.0, -1.0), repeat=len(space))
    ]


def _coupling_gap_loop(mu1, mu2, target, patterns=tight_patterns):
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
    for pattern in patterns(mu1, mu2):
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


def _pattern_max_coupling_loop(pattern, mu1, mu2):
    """A pattern's pinned cells looked up by label, every other cell at its cap."""
    prod = product_space(mu1.space, mu2.space)
    fixed = dict(pattern.fixed)
    weights = tuple(
        fixed.get((x, y), min(mu1.weight(x), mu2.weight(y))) for (x, y) in prod.points
    )
    return IdempotentMeasure(prod, weights)


def _first_maximizer_sweep(coupling, target):
    """The first {0, -1} function, in `itertools.product((0, -1))` order, on
    which |coupling(φ) - target(φ)| is largest: all 2^n of them as numpy rows."""
    n = len(coupling.weights)
    bits = (np.arange(2 ** n)[:, None] >> np.arange(n - 1, -1, -1)) & 1
    family = np.where(bits == 1, -1.0, 0.0)  # row i is the i-th function of the product order
    deviations = np.abs(
        (family + np.array(coupling.weights)).max(axis=1)
        - (family + np.array(target.weights)).max(axis=1)
    )
    return tuple(family[int(np.argmax(deviations))].tolist())


def _witness_walk(u, A):
    """The first maximizer of |max(-1, max_S u) - max(-1, max_S A)| in
    `itertools.product((0, -1))` order, by a walk over the cells: cell k
    joins S if the cells chosen so far, k and at most one later cell still
    reach the largest deviation D.  Quadratic in the cells."""
    D = max(abs(u_c - a_c) for u_c, a_c in zip(u, A))
    witness = []
    U = T = -1.0  # the maxima over the cells put in S so far
    for k in range(len(u)):
        U_k, T_k = max(U, u[k]), max(T, A[k])
        if any(abs(max(U_k, u[j]) - max(T_k, A[j])) == D for j in range(k, len(u))):
            U, T = U_k, T_k
            witness.append(0.0)
        else:
            witness.append(-1.0)
    return tuple(witness)


def _lift_open_collapse_loop(f, mu0, nu_seq):
    """The per-collapse lift: of the doubled pair, the point with the larger
    anchor weight (the first on a tie) takes the merged weight, and the
    other that weight clipped at its own anchor weight."""
    pm = f.map
    (doubled,) = (pm.fiber(y) for y in pm.target.points if len(pm.fiber(y)) == 2)
    p, q = sorted(doubled, key=pm.source.index)
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


def _factor_surjection(f):
    """Factor a finite surjection into single-point collapses and a bijection.

    Returns (collapses, relabel) with f = relabel ∘ c_k ∘ ... ∘ c_1,
    applying c_1 first.  Each collapse merges one non-representative point
    into the first source point of its fiber.
    """
    if not f.is_surjective:
        raise ValueError("only surjections factor into collapses")
    rep = {}  # image -> first source point of its fiber
    for x in f.source.points:
        rep.setdefault(f(x), x)
    extras = [(x, rep[f(x)]) for x in f.source.points if x != rep[f(x)]]

    collapses = []
    current = f.source
    for x, mate in extras:
        smaller = FiniteSpace(tuple(p for p in current.points if p != x))
        table = {p: (mate if p == x else p) for p in current.points}
        collapses.append(CollapseMap(PointMap(current, smaller, table)))
        current = smaller
    relabel = PointMap(current, f.target, {p: f(p) for p in current.points})
    return collapses, relabel


def _lift_open_composed(f, mu0, nu_seq):
    """The collapse lifts composed along `_factor_surjection`, each stage
    anchored at the image of μ0 reached so far."""
    collapses, relabel = _factor_surjection(f)
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


def _points_loop(space):
    """The points of a space, by an itertools.product walk over its factors."""
    if isinstance(space, ProductSpace):
        return tuple(itertools.product(*(_points_loop(f) for f in space.factors)))
    return space.points


def _near_misses(space, label):
    """Labels one edit away from a point of a product: the wrong arity, an
    unknown component, the wrong nesting, or no tuple at all."""
    out = [label[:-1], label + (label[-1],), (label,), label[0], "zz", ()]
    flat = _flatten_label_loop(space, label)
    out += [flat, (flat[0], flat[1:]), (flat[:-1], flat[-1])]
    for k, part in enumerate(label):
        out.append(label[:k] + ("zz",) + label[k + 1:])
        if isinstance(part, tuple):
            out.append(label[:k] + part + label[k + 1:])
            out.append(label[:k] + (part[0],) + label[k + 1:])
    return out


def _pushforward_loop(f, mu):
    """Per target point, the max of μ over its fiber, found label by label."""
    return IdempotentMeasure(f.target, tuple(
        max((w for x, w in zip(mu.space.points, mu.weights) if f.table[x] == y), default=NEG_INF)
        for y in f.target.points
    ))


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


def _tensor_loop(mu, nu):
    """The two-factor tensor with its own weight sums."""
    prod = product_space(mu.space, nu.space)
    return IdempotentMeasure(prod, tuple(a + b for a in mu.weights for b in nu.weights))


# The hand-written max-plus linear combinations that `core.combine` replaced.

def _multiply_loop(M):
    out = [NEG_INF] * len(M.base)
    for lam, m in zip(M.weights, M.inner):
        if lam == NEG_INF:
            continue
        for j, w in enumerate(m.weights):
            v = lam + w
            if v > out[j]:
                out[j] = v
    return IdempotentMeasure(M.base, tuple(out))


def _integrals_loop(weights, columns):
    """Per test function, the max over the finite weights w_c of φ_c + w_c."""
    return list(map(max, zip(*(
        [v + w for v in column] for w, column in zip(weights, columns) if w > NEG_INF
    ))))


def _barycenter_loop(cloud, mu):
    coords = []
    for k in range(cloud.dim):
        coords.append(
            max(w + cloud.embed[p][k] for p, w in zip(mu.space.points, mu.weights) if w > NEG_INF)
        )
    return tuple(coords)


def _algebra_right_loop(cloud, M):
    """The right side of the algebra law: mix the inner barycenters."""
    inner_pts = [_barycenter_loop(cloud, m) for m in M.inner]
    return tuple(
        max(lam + q[k] for lam, q in zip(M.weights, inner_pts) if lam > NEG_INF)
        for k in range(cloud.dim)
    )


def _hull_membership_loop(generators, x):
    gens = [tuple(float(v) for v in g) for g in generators]
    dim = len(gens[0])
    q = tuple(float(v) for v in x)
    lam = tuple(min(q[k] - g[k] for k in range(dim)) for g in gens)
    combo = tuple(max(lam[i] + gens[i][k] for i in range(len(gens))) for k in range(dim))
    if combo == q:
        return True, lam
    return False, None


def _convex_combination_loop(lam1, mu1, lam2, mu2):
    return IdempotentMeasure(
        mu1.space,
        tuple(max(lam1 + a, lam2 + b) for a, b in zip(mu1.weights, mu2.weights)),
    )


def _pointwise_sup_loop(measures):
    return IdempotentMeasure(
        measures[0].space, tuple(max(col) for col in zip(*(m.weights for m in measures)))
    )


def _bits(values):
    """Floats by their bit patterns, so 0.0 and -0.0 differ."""
    return [v.hex() for v in values]


def _revalidates(out):
    """A kernel output, built without checks, passes them bit for bit."""
    return _same_measure(IdempotentMeasure(out.space, out.weights), out)


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
        # the triangle check allows for rounding, so no closure trips it
        assert raised == 0

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

    def test_path_sums_past_the_float_range(self):
        # every path sum overflows to +inf, which lowers no entry; the
        # suite turns warnings into errors, so an overflow warning fails here
        X = _labels("p", 3)
        raw = [[0.0 if i == j else 1e308 for j in range(3)] for i in range(3)]
        closed = metric_closure(X, raw)
        with np.errstate(over="ignore"):  # the loop's scalar adds warn on their own
            want = _metric_closure_loop(X, raw)
        assert np.array_equal(closed.matrix, np.array(want))
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
            # closed tables reach the triangle check and pass it
            d = TABLES[kind](gen, n)
            for k in range(n):
                d = np.minimum(d, d[:, k, None] + d[None, k, :])
            table = d.tolist()
            got = _outcome(lambda: MetricSpace(X, table).dist)
            assert got == _outcome(_metric_space_loop, X, table)
            assert got == tuple(map(tuple, table))

    def test_one_point(self):
        X = space("a")
        assert MetricSpace(X, ((0.0,),)).dist == _metric_space_loop(X, ((0.0,),))

    @pytest.mark.parametrize("far", [1e308, sys.float_info.max])
    def test_sums_past_the_float_range(self, far):
        # d_ik + d_kj and m·(1 + n·ε) overflow to +inf, which fails no triangle check
        X = _labels("p", 3)
        table = [[0.0 if i == j else far for j in range(3)] for i in range(3)]
        assert MetricSpace(X, table).dist == _metric_space_loop(X, table)


# One table check: MetricSpace and metric_closure read a distance table
# with the metric rules, maxmin_gap and grid_gap with the pseudometric
# ones, all through core._distances.
_SQUARE = (ValueError, "distance table must be square over the space")
_NUMBERS = (TypeError, "distances must be numbers")
_RANGE = (ValueError, "distances must be finite and nonnegative")
_SYMMETRIC = (ValueError, "distance table must be symmetric")
_DIAGONAL = (ValueError, "distance from a point to itself must be 0")
_POSITIVE = (ValueError, "distinct points must be at positive distance")

# name: (a table on three points, the metric error, the pseudometric error
# or None where a pseudometric table is valid); the two-defect tables
# come in both orders
DEFECT_TABLES = {
    "ragged": ([[0, 1, 2], [1, 0], [2, 1, 0]], _SQUARE, _SQUARE),
    "a long row": ([[0, 1, 2, 3], [1, 0, 1], [2, 1, 0]], _SQUARE, _SQUARE),
    "text row": (["012", (1, 0, 1), (2, 1, 0)], _NUMBERS, _NUMBERS),
    "bytes row": ([b"\x00\x01\x02", (1, 0, 1), (2, 1, 0)], _NUMBERS, _NUMBERS),
    "text entry": ([[0, 1, "2"], [1, 0, 1], [2, 1, 0]], _NUMBERS, _NUMBERS),
    "nested entry": ([[0, 1, [2]], [1, 0, 1], [[2], 1, 0]], _NUMBERS, _NUMBERS),
    "every entry nested": ([[[0], [1], [2]], [[1], [0], [1]], [[2], [1], [0]]],
                           _NUMBERS, _NUMBERS),
    "NaN": ([[0, 1, math.nan], [1, 0, 1], [math.nan, 1, 0]], _RANGE, _RANGE),
    "+inf": ([[0, 1, math.inf], [1, 0, 1], [math.inf, 1, 0]], _RANGE, _RANGE),
    "-1": ([[0, 1, -1], [1, 0, 1], [-1, 1, 0]], _RANGE, _RANGE),
    "asymmetric": ([[0, 1, 2], [1, 0, 1], [3, 1, 0]], _SYMMETRIC, _SYMMETRIC),
    "nonzero diagonal": ([[0, 1, 2], [1, 5, 1], [2, 1, 0]], _DIAGONAL, None),
    "zero off the diagonal": ([[0, 0, 2], [0, 0, 1], [2, 1, 0]], _POSITIVE, None),
    "-0.0 off the diagonal": ([[0, -0.0, 2], [-0.0, 0, 1], [2, 1, 0]], _POSITIVE, None),
    "asymmetric, then NaN": ([[0, 1, 2], [3, 0, math.nan], [2, math.nan, 0]],
                             _SYMMETRIC, _SYMMETRIC),
    "NaN, then asymmetric": ([[0, math.nan, 2], [math.nan, 0, 1], [2, 3, 0]], _RANGE, _RANGE),
    "zero, then nonzero diagonal": ([[0, 0, 2], [0, 1, 1], [2, 1, 0]], _POSITIVE, None),
    "nonzero diagonal, then zero": ([[1, 1, 2], [1, 0, 0], [2, 0, 0]], _DIAGONAL, None),
    "nonzero diagonal, then -1": ([[1, 1, 2], [1, 0, -1], [2, -1, 0]], _DIAGONAL, _RANGE),
    "-1, then nonzero diagonal": ([[0, -1, 2], [-1, 1, 1], [2, 1, 0]], _RANGE, _RANGE),
}


def _error(fn, *args, **kwargs):
    """The type and message of the TypeError or ValueError fn raised, or None."""
    try:
        fn(*args, **kwargs)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)
    return None


def _numbers(table):
    """Whether the table is rows of ints and floats, which the loops read."""
    return all(isinstance(r, list) and all(type(v) in (int, float) for v in r) for r in table)


def _inputs(table):
    """The table, and as a float64 array where it is a square one of numbers."""
    square = _numbers(table) and all(len(r) == len(table) for r in table)
    return [table, np.array(table, dtype=float)] if square else [table]


# A -0.0 in a distance table is stored as 0.0, as a weight or a function
# value is: name -> (a read of the stored table, a table with -0.0 entries)
_ZERO_DIAGONAL = [[-0.0, 1.0, 2.0], [1.0, -0.0, 1.0], [2.0, 1.0, -0.0]]
NEGATIVE_ZERO_READS = {
    "MetricSpace": (lambda t: MetricSpace(space("abc"), t).dist, _ZERO_DIAGONAL),
    "metric_closure": (lambda t: metric_closure(space("abc"), t).dist, _ZERO_DIAGONAL),
    "metric_space_doc": (
        lambda t: mio.metric_space_doc(MetricSpace(space("abc"), t))["dist"], _ZERO_DIAGONAL,
    ),
    # a pseudometric table holds -0.0 off the diagonal too
    "maxmin_gap": (
        lambda t: _gap_args(t, 1, [0.0] * 3, [0.0] * 3)[0].tolist(),
        [[-0.0, -0.0, 2.0], [-0.0, -0.0, 1.0], [2.0, 1.0, -0.0]],
    ),
}


class TestOneDistanceTableCheck:
    @pytest.mark.parametrize("name", sorted(NEGATIVE_ZERO_READS))
    def test_negative_zero_is_stored_as_zero(self, name):
        read, table = NEGATIVE_ZERO_READS[name]
        for t in (table, np.array(table)):
            rows = read(t)
            assert all(math.copysign(1.0, v) == 1.0 for row in rows for v in row), rows

    @pytest.mark.parametrize("name", sorted(DEFECT_TABLES))
    def test_metric_rules(self, name):
        table, want, _ = DEFECT_TABLES[name]
        X = space("abc")
        for t in _inputs(table):
            assert _error(MetricSpace, X, t) == want
            assert _error(metric_closure, X, t) == want
        if _numbers(table):
            assert _outcome(_metric_closure_loop, X, table) == ("raised", want[1])
            assert _outcome(_metric_space_loop, X, table) == ("raised", want[1])

    @pytest.mark.parametrize("name", sorted(DEFECT_TABLES))
    def test_pseudometric_rules(self, name):
        table, _, want = DEFECT_TABLES[name]
        lam, kap = (0.0, -1.0, -2.0), (-2.0, NEG_INF, 0.0)
        for t in _inputs(table):
            assert _error(maxmin_gap, t, 1, lam, kap) == want
            assert _error(grid_gap, t, 1, lam, kap, step=0.25, radius=4.0) == want
        if want is None:
            rows = _distances_loop(3, table, metric=False)
            assert maxmin_gap(table, 1, lam, kap) == _maxmin_gap_loop(rows, 1, lam, kap)
            assert math.isfinite(grid_gap(table, 1, lam, kap, step=0.25, radius=4.0))
        elif _numbers(table):
            assert _outcome(_distances_loop, 3, table, False) == ("raised", want[1])

    @pytest.mark.parametrize("kind", sorted(TABLES))
    def test_closure_loop_on_planted_defects(self, kind):
        # one entry of a random table set to a value that breaks a rule
        gen = np.random.default_rng(29)
        for _ in range(60):
            n = int(gen.integers(2, 9))
            X = _labels("p", n)
            raw = TABLES[kind](gen, n)
            i, j = (int(v) for v in gen.integers(0, n, size=2))
            raw[i, j] = gen.choice([math.nan, math.inf, -1.0, raw[i, j] + 0.5, 0.0 if i != j else 1.0])
            want = _outcome(_metric_closure_loop, X, raw.tolist())
            assert want[0] == "raised"
            assert _outcome(metric_closure, X, raw) == _outcome(metric_closure, X, raw.tolist()) == want


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


# ------------------------------------------------- dual-distance table

def _pseudometric(sp, table):
    """A MetricSpace over a pseudometric table, which the constructor rejects
    for its zero distances between distinct points; built through the copy
    path, which does not validate."""
    X = MetricSpace.__new__(MetricSpace)
    X.__setstate__({"space": sp, "_table": table})
    return X


def _ground(gen, p, kind):
    sp = _labels("p", p)
    if kind == "dyadic":
        return metric_closure(sp, _dyadic_table(gen, p))
    if kind == "thirds":
        return metric_closure(sp, _uniform_table(gen, p) / 3)
    # a metric on clusters, pulled back to the points: zero within a cluster
    c = int(gen.integers(1, p + 1))
    D = metric_closure(_labels("c", c), _uniform_table(gen, c) / 3).matrix
    g = gen.integers(0, c, size=p)
    return _pseudometric(sp, D[np.ix_(g, g)])


def _measure(gen, sp, kind, thirds):
    p = len(sp)
    if kind == "dirac":
        w = np.full(p, NEG_INF)
    else:
        w = gen.uniform(-10.0, 0.0, size=p) / 3 if thirds else -gen.integers(0, 33, size=p) / 4.0
        if kind == "partial":
            w[gen.random(p) < 0.5] = NEG_INF
    w[gen.integers(p)] = 0.0
    return IdempotentMeasure(sp, tuple(w.tolist()))


@st.composite
def _inner_instances(draw):
    """n, a ground table on 1-20 points and 2-14 measures on it.

    The ground is a closed dyadic table, a closed uniform ÷ 3 table or a
    pseudometric; each measure is a Dirac, partly or fully supported, with
    dyadic or uniform ÷ 3 weights; the last may repeat the first.
    """
    p = draw(st.integers(1, 20))
    k = draw(st.integers(2, 14))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = _ground(gen, p, draw(st.sampled_from(["dyadic", "thirds", "pseudo"])))
    kinds = draw(st.lists(st.sampled_from(["dirac", "partial", "full"]), min_size=k, max_size=k))
    thirds = draw(st.booleans())
    ms = [_measure(gen, X.space, kind, thirds) for kind in kinds]
    if draw(st.booleans()):
        ms[-1] = ms[0]
    return draw(st.integers(1, 7)), X, ms


class TestInnerDistanceTableMatchesLoop:
    @settings(max_examples=300, deadline=None)
    @given(_inner_instances())
    def test_random_instances(self, instance):
        got = inner_distance_table(*instance)
        want = _inner_distance_table_loop(*instance)
        assert got == want
        assert [_bits(row) for row in got] == [_bits(row) for row in want]
        assert all(type(v) is float for row in got for v in row)

    @pytest.mark.parametrize("budget", [1, 37, 400])
    def test_blocks_of_measures(self, budget, monkeypatch):
        monkeypatch.setattr("maslov.metrics._BLOCK_TERMS", budget)
        gen = np.random.default_rng(budget)
        for ground in ("dyadic", "thirds", "pseudo"):
            X = _ground(gen, 9, ground)
            ms = [_measure(gen, X.space, kind, True) for kind in ("dirac", "partial", "full") * 4]
            for n in (1, 3):
                assert inner_distance_table(n, X, ms) == _inner_distance_table_loop(n, X, ms)

    def test_kernels_large_sizes(self):
        gen = np.random.default_rng(16)
        for p in (48, 96):
            X = _ground(gen, p, "dyadic")
            ms = [_measure(gen, X.space, "partial", False) for _ in range(12)]
            for n in (1, 2, 4):
                assert inner_distance_table(n, X, ms) == _inner_distance_table_loop(n, X, ms)

    def test_errors_match_the_loop(self):
        X = metric_closure(space("ab"), [[0, 1], [1, 0]])
        mu, nu = dirac(X.space, "a"), dirac(X.space, "b")
        foreign = dirac(space("ac"), "a")
        N_BAD = "the Lipschitz class bound n must be a positive integer"
        SPACE = "measures must live on the metric space's point set"
        cases = {
            (1, ()): [],
            (1, (mu,)): [[0.0]],
            (0, ()): ("raised", N_BAD),
            (1.5, (mu,)): ("raised", N_BAD),
            (1, (foreign,)): ("raised", SPACE),
            (0, (mu, nu)): ("raised", N_BAD),
            (1.5, (mu, nu, mu)): ("raised", N_BAD),
            (-1, (mu, nu)): ("raised", N_BAD),
            (0, (mu, foreign)): ("raised", N_BAD),
            (1, (mu, foreign)): ("raised", SPACE),
            (1, (foreign, mu)): ("raised", SPACE),
            (2, (mu, nu, mu, foreign)): ("raised", SPACE),
        }
        for (n, measures), want in cases.items():
            assert _outcome(inner_distance_table, n, X, measures) == want
            if len(measures) > 1:  # the loop calls dtilde, and so checks, only on pairs
                assert _outcome(_inner_distance_table_loop, n, X, measures) == want


def _outer_dtilde_reference(n, X, M, N):
    """The gap over the whole dtilde table of M's and N's inner measures,
    with λ padded by -inf on N's rows and κ on M's."""
    ground = inner_distance_table(n, X, M.inner + N.inner)
    lam = M.weights + (NEG_INF,) * len(N.inner)
    kap = (NEG_INF,) * len(M.inner) + N.weights
    return maxmin_gap(ground, n, lam, kap) / n


@st.composite
def _outer_instances(draw):
    """n, a ground table as in `_inner_instances` and two outer measures on
    it, each of 1-7 inner measures with outer weights of the same kind,
    about half of them -inf; N may share an inner measure with M."""
    p = draw(st.integers(1, 16))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = _ground(gen, p, draw(st.sampled_from(["dyadic", "thirds", "pseudo"])))
    thirds = draw(st.booleans())
    outer = []
    for _ in range(2):
        k = draw(st.integers(1, 7))
        kinds = draw(st.lists(st.sampled_from(["dirac", "partial", "full"]), min_size=k, max_size=k))
        inner = tuple(_measure(gen, X.space, kind, thirds) for kind in kinds)
        outer.append(OuterMeasure(X.space, inner, _measure(gen, _labels("i", k), "partial", thirds).weights))
    M, N = outer
    if draw(st.booleans()):
        N = OuterMeasure(X.space, (M.inner[0],) + N.inner[1:], N.weights)
    return draw(st.integers(1, 7)), X, M, N


class TestOuterDtildeMatchesTheWholeTable:
    @settings(max_examples=300, deadline=None)
    @given(_outer_instances())
    def test_random_instances(self, instance):
        got, want = outer_dtilde(*instance), _outer_dtilde_reference(*instance)
        assert type(got) is float and got.hex() == want.hex()

    def test_kernels_large_sizes(self):
        gen = np.random.default_rng(21)
        for p in (48, 96):
            X = _ground(gen, p, "dyadic")
            outer = [OuterMeasure(X.space, tuple(_measure(gen, X.space, "partial", False) for _ in range(6)),
                                  _measure(gen, _labels("i", 6), kind, False).weights)
                     for kind in ("full", "partial")]
            for n in (1, 2, 4):
                assert outer_dtilde(n, X, *outer).hex() == _outer_dtilde_reference(n, X, *outer).hex()


# ------------------------------------------------ min-plus triangle check

def _at_the_slack(gen, n, kind):
    """A closed table with one entry d_ij raised to its largest accepted
    value t = min over the other k of fl(fl(d_ik + d_kj)·(1 + n·ε)); no
    other triangle has d_ij on its long side, and a longer d_ij only
    helps the rest.  Returns the table as a function of that entry, and t."""
    d = TABLES[kind](gen, n)
    for k in range(n):
        d = np.minimum(d, d[:, k, None] + d[None, k, :])
    i, j = (int(v) for v in gen.choice(n, size=2, replace=False))
    slack = 1.0 + n * sys.float_info.epsilon
    t = min((d[i, k] + d[k, j]) * slack for k in range(n) if k not in (i, j))

    def table(v):
        e = d.copy()
        e[i, j] = e[j, i] = v
        return e.tolist()

    return table, t


class TestMinPlusCheckMatchesLoop:
    @pytest.mark.parametrize("kind", sorted(TABLES))
    def test_one_ulp_either_side_of_the_slack(self, kind):
        gen = np.random.default_rng(17)
        for _ in range(40):
            n = int(gen.integers(3, 13))
            X = _labels("p", n)
            table, t = _at_the_slack(gen, n, kind)
            for v, ok in ((math.nextafter(t, 0.0), True), (t, True),
                          (math.nextafter(t, math.inf), False)):
                want = _outcome(_metric_space_loop, X, table(v))
                assert _outcome(lambda: MetricSpace(X, table(v)).dist) == want
                assert (want[0] != "raised") == ok

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 12), st.integers(0, 2**32 - 1), st.sampled_from(["raw", "closed"]))
    def test_uniform_thirds(self, n, seed, form):
        gen = np.random.default_rng(seed)
        d = _uniform_table(gen, n) / 3
        if form == "closed":
            for k in range(n):
                d = np.minimum(d, d[:, k, None] + d[None, k, :])
        X = _labels("p", n)
        want = _outcome(_metric_space_loop, X, d.tolist())
        for table in (d, d.tolist()):
            assert _outcome(lambda: MetricSpace(X, table).dist) == want


class TestClosureHandsOverItsArray:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 14), st.integers(0, 2**32 - 1), st.sampled_from(sorted(TABLES)))
    def test_matches_loop(self, n, seed, kind):
        X = _labels("p", n)
        raw = TABLES[kind](np.random.default_rng(seed), n) / 3
        closed = metric_closure(X, raw)
        want = _metric_closure_loop(X, raw)
        assert closed.dist == want
        assert np.array_equal(closed.matrix, np.array(want))
        assert closed._table.dtype == np.float64 and not closed._table.flags.writeable
        assert MetricSpace(X, closed.matrix) == MetricSpace(X, closed.dist) == closed


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
def _gap_instances(draw, shape=None):
    """2x2 to 3x3 marginals, or `shape`, on a weak order of tie levels, -inf allowed.

    Each point of either marginal gets a level (0 is weight 0, deeper is
    lower, None is -inf), shared by rows and columns so ties cross them;
    each marginal has a point at level 0.  With `scale` 3, 7 or 10 every
    value is divided by it, so + and - round.
    """
    scale = draw(st.sampled_from([1.0, 3.0, 7.0, 10.0]))
    steps = draw(st.lists(st.integers(1, 6), min_size=2, max_size=2))
    levels = [0.0, -steps[0] / 4.0 / scale, -(steps[0] + steps[1]) / 4.0 / scale]
    level = st.sampled_from((0, 1, 2, None))

    def marginal(prefix, n):
        n = draw(st.integers(2, 3)) if n is None else n
        picks = draw(st.lists(level, min_size=n, max_size=n))
        picks[draw(st.integers(0, n - 1))] = 0
        sp = _labels(prefix, n)
        return IdempotentMeasure(sp, tuple(NEG_INF if k is None else levels[k] for k in picks))

    nx, ny = shape or (None, None)
    mu1, mu2 = marginal("x", nx), marginal("y", ny)
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


class TestCouplingGapWideShapes:
    """Shapes past the 4-point pattern cap, up to 12 cells, where the
    reference's 2^n test family stays small, against the reference run on
    the uncapped pattern loop."""

    @pytest.mark.parametrize(
        "shape",
        [(1, k) for k in range(5, 13)] + [(k, 1) for k in range(5, 13)] + [(2, 5)],
        ids=lambda shape: "%dx%d" % shape,
    )
    @settings(max_examples=8, deadline=None)
    @given(data=st.data())
    def test_matches_loop(self, shape, data):
        instance = data.draw(_gap_instances(shape))
        assert _gap_triple(coupling_gap(*instance)) == _gap_triple(
            _coupling_gap_loop(*instance, patterns=_tight_patterns_loop)
        )


class TestCouplingGapWitnessPastTwelveCells:
    """The closed-form witness on 14 to 16 cells, against a sweep of all
    2^n test functions."""

    @pytest.mark.parametrize("shape", [(4, 4), (3, 5), (2, 7)], ids=lambda shape: "%dx%d" % shape)
    @settings(max_examples=5, deadline=None)
    @given(data=st.data())
    def test_first_maximizer(self, shape, data):
        mu1, mu2, target = data.draw(_gap_instances(shape))
        result = coupling_gap(mu1, mu2, target)
        assert _bits(result.phi.values) == _bits(_first_maximizer_sweep(result.coupling, target))


@st.composite
def _witness_instances(draw):
    """1x1 to 8x8 gap instances whose target cells below 0 may move 0-3 ulps
    up or down, so that differences land next to the largest deviation."""
    shape = (draw(st.integers(1, 8)), draw(st.integers(1, 8)))
    mu1, mu2, target = draw(_gap_instances(shape))
    weights = list(target.weights)
    for k, w in enumerate(weights):
        if NEG_INF < w < 0.0:
            toward = draw(st.sampled_from([0.0, NEG_INF]))
            for _ in range(draw(st.integers(0, 3))):
                w = math.nextafter(w, toward)
            weights[k] = w
    return mu1, mu2, IdempotentMeasure(target.space, tuple(weights))


class TestCouplingGapWitnessMatchesWalk:
    """The two-box witness against the walk over the cells that it replaced."""

    @settings(max_examples=300, deadline=None)
    @given(_witness_instances())
    def test_gap_instances(self, instance):
        target = instance[2]
        result = coupling_gap(*instance)
        u = [max(w, -1.0) for w in result.coupling.weights]
        A = [max(w, -1.0) for w in target.weights]
        assert result.phi.values == _witness_walk(u, A)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(-8, 0), st.integers(-8, 0)), min_size=1, max_size=14
        ),
        st.sampled_from([1.0, 3.0, 7.0, 10.0]),
    )
    def test_raw_vectors(self, cells, scale):
        # any u, A >= -1, not only a coupling next to its target
        u = [max(x / 4.0 / scale, -1.0) for x, _ in cells]
        A = [max(y / 4.0 / scale, -1.0) for _, y in cells]
        D = max(abs(u_c - a_c) for u_c, a_c in zip(u, A))
        S = max(_box(u, A, D), _box(A, u, D))
        assert tuple(0.0 if s else -1.0 for s in S) == _witness_walk(u, A)


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

    @settings(max_examples=100, deadline=None)
    @given(_pattern_marginals())
    def test_max_coupling_is_the_cap_coupling(self, marginals):
        mu1, mu2 = marginals
        prod = product_space(mu1.space, mu2.space)
        caps = IdempotentMeasure(
            prod, tuple(min(mu1.weight(x), mu2.weight(y)) for x, y in prod.points)
        )
        for pattern in tight_patterns(mu1, mu2):
            out = pattern_max_coupling(pattern, mu1, mu2)
            assert _same_measure(out, caps)
            assert _same_measure(out, _pattern_max_coupling_loop(pattern, mu1, mu2))


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
        assert lift_open_collapse(c, mu0, nus) == _lift_open_collapse_loop(c, mu0, nus)

    def test_factorization_composes_to_the_map(self):
        rng = random.Random(19)
        for _ in range(50):
            Y = rand_space(rng, 3, "y")
            X = FiniteSpace(tuple(f"x{i}" for i in range(len(Y) + rng.randint(0, 3))))
            f = rand_surjection(rng, X, Y)
            collapses, relabel = _factor_surjection(f)
            composed = relabel
            for c in reversed(collapses):
                composed = c.map.then(composed)
            assert composed.table == f.table

    def test_factorization_rejects_a_map_not_onto(self):
        with pytest.raises(ValueError, match="^only surjections factor into collapses$"):
            _factor_surjection(PointMap(space("a"), space("ab"), {"a": "a"}))


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
        # flatten_measure keeps the weights in place: the flat product over
        # the atomic factors lists each point's flat label in P's order
        flat = product_space(*_atomic_factors(P))
        flat_r, table_r = _flatten_space_loop(P)
        assert flat == flat_r and flat.points == flat_r.points
        assert flat.points == tuple(table_r.values())

    @settings(max_examples=200, deadline=None)
    @given(_nested_products().flatmap(_measure_on))
    def test_flatten_measure(self, mu):
        out, ref = flatten_measure(mu), _flatten_measure_loop(mu)
        assert _same_measure(out, ref) and _revalidates(out)

    @settings(max_examples=200, deadline=None)
    @given(_tensor_factors())
    def test_tensor_many(self, measures):
        out = tensor_many(measures)
        assert _same_measure(out, _tensor_many_loop(measures)) and _revalidates(out)

    @settings(max_examples=200, deadline=None)
    @given(_nested_products().flatmap(_measure_on))
    def test_marginal(self, mu):
        for axis in range(len(mu.space.factors)):
            out = marginal(mu, axis)
            assert _same_measure(out, _marginal_by_projection(mu, axis)) and _revalidates(out)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.integers(1, 5).map(lambda n: _labels("x", n)), _nested_products())
           .flatmap(_measure_on),
           st.one_of(st.integers(1, 5).map(lambda n: _labels("y", n)), _nested_products()),
           st.data())
    def test_pushforward(self, mu, target, data):
        # flat or product sources onto flat or product targets; the map keeps
        # the target index of each image, which stays out of == and repr
        images = data.draw(st.lists(st.sampled_from(_points_loop(target)),
                                    min_size=len(mu.space), max_size=len(mu.space)))
        table = dict(zip(mu.space.points, images))
        f = PointMap(mu.space, target, table)
        out = pushforward(f, mu)
        assert _same_measure(out, _pushforward_loop(f, mu)) and _revalidates(out)
        assert f._targets == tuple(_points_loop(target).index(y) for y in images)
        assert f == PointMap(mu.space, target, dict(reversed(table.items())))
        assert "_targets" not in repr(f)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 5).map(lambda n: _labels("x", n)),
           st.one_of(st.integers(1, 5).map(lambda n: _labels("y", n)), _nested_products()),
           st.data())
    def test_map_values_outside_the_target(self, source, target, data):
        points = _points_loop(target)
        wrong = ["zz", ("zz",)] + (_near_misses(target, points[0])
                                  if isinstance(target, ProductSpace) else [])
        images = data.draw(st.lists(st.sampled_from(points + tuple(wrong)),
                                    min_size=len(source), max_size=len(source)))
        outside = [y for y in images if y not in set(points)]
        want = ("raised", f"map values: points outside the space {outside!r}") if outside else None
        got = _outcome(PointMap, source, target, dict(zip(source.points, images)))
        assert (got if outside else None) == want

    @settings(max_examples=200, deadline=None)
    @given(_nested_products(), st.data())
    def test_index_contains_len_require(self, P, data):
        points = _points_loop(P)
        ref = {p: i for i, p in enumerate(points)}
        label = data.draw(st.sampled_from(points))
        probes = [label, *_near_misses(P, label)]
        assert len(P) == len(points)
        assert [P.index(p) for p in points] == list(range(len(points)))
        assert all(p in P for p in points) and P.require(points, "all") is None
        for q in probes:
            assert (q in P) == (q in ref)
            want = ref[q] if q in ref else ("raised", f"unknown point {q!r}")
            assert _outcome(P.index, q) == want
        outside = [q for q in probes if q not in ref]
        assert outside and _outcome(P.require, probes, "probe") == (
            "raised", f"probe: points outside the space {outside!r}")
        with pytest.raises(AttributeError):
            FiniteSpace.points.__get__(P)  # all of the above is arithmetic
        assert P.points == points and list(P) == list(points)

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


# ----------------------------------------------------- max-plus combinations

SCALES = [1.0, 3.0, 7.0, 10.0]  # k/3 and k/7 are not dyadic


def _scaled(scale, lo=-12, hi=12):
    return st.integers(lo, hi).map(lambda k: k / scale)


@st.composite
def _combinations(draw):
    """1-6 coefficients, -inf among them or all -inf, and vectors of length 0-4."""
    scale = draw(st.sampled_from(SCALES))
    n, dim = draw(st.integers(1, 6)), draw(st.integers(0, 4))
    entry = st.one_of(st.just(NEG_INF), _scaled(scale))
    coefficients = draw(st.lists(entry, min_size=n, max_size=n))
    vectors = draw(st.lists(st.lists(entry, min_size=dim, max_size=dim).map(tuple),
                            min_size=n, max_size=n))
    return tuple(coefficients), vectors


@st.composite
def _clouds(draw):
    """A cloud of 1-6 points in R^0 to R^4."""
    scale = draw(st.sampled_from(SCALES))
    n, dim = draw(st.integers(1, 6)), draw(st.integers(0, 4))
    X = _labels("p", n)
    coords = st.lists(_scaled(scale), min_size=dim, max_size=dim).map(tuple)
    return PointCloudSpace(X, {p: draw(coords) for p in X.points})


@st.composite
def _signed_zero_clouds(draw):
    """A cloud of 1-6 points in R^0 to R^4 with coordinates 0.0, -0.0 and
    a few small integers, so that sums tie often, 0.0 against -0.0 too."""
    n, dim = draw(st.integers(1, 6)), draw(st.integers(0, 4))
    X = _labels("p", n)
    coords = st.lists(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0]), min_size=dim, max_size=dim)
    return PointCloudSpace(X, {p: tuple(draw(coords)) for p in X.points})


@st.composite
def _outer_on(draw, space):
    """1-4 inner measures on a space, with outer weights (-inf among them)."""
    k = draw(st.integers(1, 4))
    inner = tuple(draw(_measure_on(space)) for _ in range(k))
    return OuterMeasure(space, inner, draw(_measure_on(_labels("i", k))).weights)


@st.composite
def _hull_instances(draw):
    """1-6 generators in R^1 to R^4, and a point: drawn, or a combination of
    the generators with some -inf coefficients (so often in the span)."""
    scale = draw(st.sampled_from(SCALES))
    n, dim = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    point = st.lists(_scaled(scale), min_size=dim, max_size=dim).map(tuple)
    gens = draw(st.lists(point, min_size=n, max_size=n))
    if draw(st.booleans()):
        lam = draw(st.lists(st.one_of(st.just(NEG_INF), _scaled(scale)), min_size=n, max_size=n))
        x = tuple(max(l + g[k] for l, g in zip(lam, gens)) for k in range(dim))
    else:
        x = draw(st.lists(st.one_of(st.just(NEG_INF), _scaled(scale)), min_size=dim, max_size=dim))
    return gens, tuple(x)


def _same_measure(out, ref):
    return out == ref and out.space.points == ref.space.points and _bits(out.weights) == _bits(ref.weights)


class TestCombinationsMatchLoops:
    @settings(max_examples=200, deadline=None)
    @given(_combinations())
    def test_combine_is_the_max_over_finite_coefficients(self, instance):
        coefficients, vectors = instance
        dim = len(vectors[0])
        expected = tuple(
            max((c + v[k] for c, v in zip(coefficients, vectors) if c > NEG_INF), default=NEG_INF)
            for k in range(dim)
        )
        out = combine(coefficients, iter(vectors))
        assert out == expected and _bits(out) == _bits(expected)

    def test_combine_edge_cases(self):
        vectors = [(0.0, -1.5, 2.0), (1.0, NEG_INF, -3.0)]
        assert combine((NEG_INF, NEG_INF), vectors) == (NEG_INF,) * 3
        assert combine((0.0, -1.0), [(), ()]) == ()
        assert combine((), []) == ()

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 6).map(lambda n: _labels("x", n)).flatmap(_outer_on))
    def test_multiply(self, M):
        out = multiply(M)
        assert _same_measure(out, _multiply_loop(M)) and _revalidates(out)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 6).map(lambda n: _labels("x", n)).flatmap(
        lambda X: st.tuples(_measure_on(X), _measure_on(X), st.sampled_from(SCALES))))
    def test_convex_combination(self, instance):
        mu1, mu2, scale = instance
        for lam1, lam2 in [(0.0, -1.0 / scale), (-2.0 / scale, 0.0), (0.0, NEG_INF), (NEG_INF, 0.0)]:
            out = convex_combination(lam1, mu1, lam2, mu2)
            assert _same_measure(out, _convex_combination_loop(lam1, mu1, lam2, mu2))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 6).map(lambda n: _labels("x", n)).flatmap(
        lambda X: st.lists(_measure_on(X), min_size=1, max_size=4)))
    def test_pointwise_sup(self, measures):
        assert _same_measure(pointwise_sup(iter(measures)), _pointwise_sup_loop(measures))

    @settings(max_examples=200, deadline=None)
    @given(_clouds().flatmap(lambda c: st.tuples(st.just(c), _measure_on(c.space))))
    def test_barycenter(self, instance):
        cloud, mu = instance
        out, ref = barycenter(cloud, mu), _barycenter_loop(cloud, mu)
        assert out == ref and _bits(out) == _bits(ref)

    @settings(max_examples=200, deadline=None)
    @given(_signed_zero_clouds().flatmap(lambda c: st.tuples(st.just(c), _measure_on(c.space))))
    def test_barycenter_ties_and_signed_zeros(self, instance):
        cloud, mu = instance
        # the constructors turn a weight of -0.0 into 0.0, so a sum of -0.0,
        # and with it a tie that the order of the points decides, needs a
        # measure built past them
        flipped = IdempotentMeasure._trusted(mu.space, tuple(-0.0 if w == 0 else w for w in mu.weights))
        for nu in (mu, flipped):
            out = barycenter(cloud, nu)
            for ref in (_barycenter_loop(cloud, nu), combine(nu.weights, cloud.embed.values())):
                assert out == ref and _bits(out) == _bits(ref)

    @settings(max_examples=200, deadline=None)
    @given(_clouds().flatmap(lambda c: st.tuples(st.just(c), _outer_on(c.space))))
    def test_algebra_law_check(self, instance):
        cloud, M = instance
        right = combine(M.weights, (barycenter(cloud, m) for m in M.inner))
        ref = _algebra_right_loop(cloud, M)
        assert right == ref and _bits(right) == _bits(ref)
        left = _barycenter_loop(cloud, _multiply_loop(M))
        assert algebra_law_check(cloud, M) == (left == ref)

    @settings(max_examples=200, deadline=None)
    @given(_hull_instances())
    def test_hull_membership(self, instance):
        gens, x = instance
        out, ref = _outcome(hull_membership, gens, x), _outcome(_hull_membership_loop, gens, x)
        assert out == ref
        if out[0] is True:
            assert _bits(out[1]) == _bits(ref[1])

    @settings(max_examples=200, deadline=None)
    @given(_nested_products(max_factors=2, max_points=3).flatmap(_measure_on))
    def test_gap_integrals(self, mu):
        columns = list(zip(*(phi.values for phi in indicator_family(mu.space))))
        out, ref = combine(mu.weights, columns), _integrals_loop(mu.weights, columns)
        assert list(out) == ref and _bits(out) == _bits(ref)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(
        st.one_of(st.integers(1, 6).map(lambda n: _labels("x", n)),
                  _nested_products(max_factors=2, max_points=2)),
        min_size=2, max_size=2,
    ).flatmap(lambda sp: st.tuples(_measure_on(sp[0]), _measure_on(sp[1]))))
    def test_tensor(self, pair):
        out = tensor(*pair)
        assert _same_measure(out, _tensor_loop(*pair)) and _revalidates(out)

    def test_sums_overflow_to_minus_inf(self):
        X, Y = _labels("x", 2), _labels("y", 3)
        mu = IdempotentMeasure(X, (0.0, -1e308))
        nu = IdempotentMeasure(Y, (-1e308, 0.0, NEG_INF))
        rho = tensor(mu, nu)
        assert rho.weights == (-1e308, 0.0, NEG_INF, NEG_INF, -1e308, NEG_INF)
        assert _same_measure(rho, _tensor_loop(mu, nu))
        three = tensor_many([mu, nu, mu])
        assert _same_measure(three, _tensor_many_loop([mu, nu, mu]))
        M = OuterMeasure(Y, (nu, IdempotentMeasure(Y, (0.0, -1e308, -1e308))), (-1e308, 0.0))
        mixed = multiply(M)
        assert mixed.weights == (0.0, -1e308, -1e308)
        assert _same_measure(mixed, _multiply_loop(M))
        f = PointMap(rho.space, X, {p: p[0] for p in rho.space.points})
        pushed = pushforward(f, rho)
        assert _same_measure(pushed, _pushforward_loop(f, rho))
        outs = [rho, three, mixed, pushed, marginal(rho, 0), marginal(rho, 1),
                flatten_measure(tensor(rho, mu))]
        assert all(map(_revalidates, outs))


def _outer_draw(gen, n, k, values):
    """k inner measures on n points and their outer weights, each drawn from
    `values` and normalized by one 0.0 at a drawn position."""
    X = _labels("x", n)
    rows = gen.choice(values, size=(k, n))
    rows[np.arange(k), gen.integers(n, size=k)] = 0.0
    lam = gen.choice(values, size=k)
    lam[gen.integers(k)] = 0.0
    return X, rows, lam


def _outer_from(X, rows, lam):
    return OuterMeasure(X, tuple(IdempotentMeasure(X, tuple(r.tolist())) for r in rows), tuple(lam.tolist()))


class TestMultiplyArrayPath:
    """From `_ARRAY_POINTS` base points on, with numpy loaded, `multiply`
    mixes numpy arrays; it must match the loop bit for bit on either side,
    and never load numpy itself."""

    SIZES = (_ARRAY_POINTS - 1, _ARRAY_POINTS, 8 * _ARRAY_POINTS)
    THIRDS = np.concatenate([-np.arange(13) / 3.0, [NEG_INF] * 4])

    def _check(self, M):
        out = multiply(M)
        assert _same_measure(out, _multiply_loop(M)) and _revalidates(out)

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("seed", range(4))
    def test_random_mixes(self, n, seed):
        # -inf among the outer weights and the inner ones
        self._check(_outer_from(*_outer_draw(np.random.default_rng(seed), n, 6, self.THIRDS)))

    @pytest.mark.parametrize("n", SIZES)
    def test_one_live_inner_measure(self, n):
        X, rows, _ = _outer_draw(np.random.default_rng(n), n, 4, self.THIRDS)
        self._check(_outer_from(X, rows, np.array([NEG_INF, 0.0, NEG_INF, NEG_INF])))

    @pytest.mark.parametrize("n", SIZES)
    def test_duplicate_inner_measures(self, n):
        X, rows, _ = _outer_draw(np.random.default_rng(n), n, 2, self.THIRDS)
        rows = rows[[0, 1, 0, 0, 1]]
        self._check(_outer_from(X, rows, np.array([-1.0, -2 / 3, 0.0, NEG_INF, -2 / 3])))

    @pytest.mark.parametrize("n", SIZES)
    def test_point_void_in_every_live_row(self, n):
        gen = np.random.default_rng(n)
        X, rows, lam = _outer_draw(gen, n, 6, self.THIRDS)
        live = lam > NEG_INF
        rows[live, 0] = NEG_INF
        rows[live, 1 + gen.integers(n - 1, size=live.sum())] = 0.0
        M = _outer_from(X, rows, lam)
        assert multiply(M).weights[0] == NEG_INF
        self._check(M)

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("seed", range(2))
    def test_ties_at_zero(self, n, seed):
        # -0.0 in the input is read as 0.0, so every tie at zero is 0.0 with 0.0
        X, rows, lam = _outer_draw(np.random.default_rng(seed), n, 5, np.array([0.0, -0.0, -1.0, NEG_INF]))
        self._check(_outer_from(X, rows, np.zeros(5)))
        self._check(_outer_from(X, rows, lam))

    @pytest.mark.parametrize("n", SIZES)
    def test_sums_overflow_to_minus_inf(self, n):
        # and without a RuntimeWarning (the suite turns warnings into errors)
        X, rows, _ = _outer_draw(np.random.default_rng(n), n, 3, np.array([-1e308, -1.5e308, 0.0]))
        rows[:, 0] = (-1e308, NEG_INF, -1e308)
        rows[1, 1] = 0.0
        M = _outer_from(X, rows, np.array([-1e308, 0.0, -1.5e308]))
        assert multiply(M).weights[0] == NEG_INF
        self._check(M)

    def test_path_follows_the_base_size(self, monkeypatch):
        calls = []
        monkeypatch.setattr("maslov.monad.combine", lambda *args: calls.append(1) or combine(*args))
        gen = np.random.default_rng(0)
        small, large = (_outer_from(*_outer_draw(gen, n, 3, self.THIRDS)) for n in self.SIZES[:2])
        multiply(small)
        assert len(calls) == 1
        multiply(large)
        assert len(calls) == 1
        # without numpy loaded, the loop mixes every table and numpy stays unloaded
        monkeypatch.delitem(sys.modules, "numpy")
        self._check(large)
        assert len(calls) == 2 and "numpy" not in sys.modules



def _split(cells, k):
    """k factor sizes with product `cells`, as even as its divisors allow."""
    sizes = []
    for left in range(k, 1, -1):
        d = max(d for d in range(1, cells + 1) if cells % d == 0 and d ** left <= cells)
        sizes.append(d)
        cells //= d
    return (*sizes, cells)


def _factor(gen, prefix, n, values):
    """A measure on n points with weights drawn from `values` and one 0.0."""
    w = gen.choice(values, size=n)
    w[gen.integers(n)] = 0.0
    return IdempotentMeasure(_labels(prefix, n), tuple(w.tolist()))


def _uncached(mu):
    return IdempotentMeasure(mu.space, mu.weights)


class TestTensorMarginalArrayPath:
    """From `_ARRAY_POINTS` product cells on, with numpy loaded, `tensor_many`
    sums numpy arrays and keeps the result as the product's `_array` cache,
    which `marginal` reduces; both must match the loops bit for bit."""

    SIZES = (_ARRAY_POINTS - 1, _ARRAY_POINTS, 8 * _ARRAY_POINTS)
    THIRDS = np.concatenate([-np.arange(13) / 3.0, [NEG_INF] * 4])
    TIES = np.array([0.0, -0.0, -1.0, NEG_INF])
    FAR = np.array([-1e308, -1.5e308, 0.0, NEG_INF])

    def _check(self, measures):
        out = tensor_many(measures)
        assert _same_measure(out, _tensor_many_loop(measures)) and _revalidates(out)
        assert (getattr(out, "_array", None) is not None) is (len(out.space) >= _ARRAY_POINTS)
        for axis in range(len(measures)):
            got = marginal(out, axis)
            assert _same_measure(got, marginal(_uncached(out), axis)) and _revalidates(got)
            assert _same_measure(got, _marginal_by_projection(out, axis))
        return out

    def _factors(self, cells, k, values, seed):
        gen = np.random.default_rng(seed)
        return [_factor(gen, c, n, values) for c, n in zip("abc", _split(cells, k))]

    @pytest.mark.parametrize("cells", SIZES)
    @pytest.mark.parametrize("k", (2, 3))
    @pytest.mark.parametrize("values", ("THIRDS", "TIES", "FAR"))
    def test_flat_products(self, cells, k, values):
        # -inf among the weights, k/3 weights, ties at 0 and sums past -max
        for seed in range(3):
            self._check(self._factors(cells, k, getattr(self, values), seed))

    @pytest.mark.parametrize("cells", SIZES)
    @pytest.mark.parametrize("values", ("THIRDS", "TIES", "FAR"))
    def test_nested_product(self, cells, values):
        mu, nu, tau = self._factors(cells, 3, getattr(self, values), cells)
        inner = tensor(mu, nu)
        rho = self._check([inner, tau])
        assert rho.space.factors == (inner.space, tau.space)
        flat = flatten_measure(rho)
        assert getattr(flat, "_array", None) is getattr(rho, "_array", None)
        assert _same_measure(flat, _tensor_many_loop([mu, nu, tau]))
        for axis in range(3):
            assert _same_measure(marginal(flat, axis), marginal(_uncached(flat), axis))

    @pytest.mark.parametrize("cells", SIZES)
    def test_sums_overflow_to_minus_inf(self, cells):
        # and without a RuntimeWarning (the suite turns warnings into errors)
        a, b = _split(cells, 2)
        mu = IdempotentMeasure(_labels("a", a), (-1e308,) * (a - 1) + (0.0,))
        nu = IdempotentMeasure(_labels("b", b), (-1.5e308,) * (b - 1) + (0.0,))
        out = self._check([mu, nu])
        assert (NEG_INF in out.weights) is (min(a, b) > 1)

    def test_multiply_reads_and_keeps_the_cache(self):
        mu, nu = self._factors(_ARRAY_POINTS, 2, self.THIRDS, 0)
        rows = [tensor(mu, nu), tensor(*self._factors(_ARRAY_POINTS, 2, self.THIRDS, 1))]
        M = OuterMeasure(rows[0].space, tuple(rows), (-1 / 3, 0.0))
        out = multiply(M)
        assert _same_measure(out, _multiply_loop(M)) and _revalidates(out)
        assert out._array.tolist() == list(out.weights)
        plain = OuterMeasure(M.base, tuple(map(_uncached, rows)), M.weights)
        assert _same_measure(out, multiply(plain))

    def test_path_follows_the_product_size(self, monkeypatch):
        small, large = (self._factors(cells, 2, self.THIRDS, 0) for cells in self.SIZES[:2])
        assert getattr(tensor_many(small), "_array", None) is None
        assert tensor_many(large)._array is not None
        # without numpy loaded, the loops run at any size and numpy stays unloaded
        monkeypatch.delitem(sys.modules, "numpy")
        out = tensor_many(large)
        assert getattr(out, "_array", None) is None and "numpy" not in sys.modules
        assert _same_measure(out, _tensor_many_loop(large))
        assert _same_measure(marginal(out, 1), large[1]) and "numpy" not in sys.modules


class TestWeightArrayCache:
    """A measure's `_array` is a cache of `weights`, not a second stored
    table: the kernel that builds a measure fills it, or the first array
    kernel that reads a measure of at least `_ARRAY_POINTS` entries does,
    and later kernels read that array; it holds the same floats and is
    never written, and no comparison, hash, repr, copy or pickle tells a
    cached measure from an uncached one: copy and pickle leave it out."""

    THIRDS = TestMultiplyArrayPath.THIRDS

    def _cached_measures(self):
        gen = np.random.default_rng(5)
        a, b = _split(_ARRAY_POINTS, 2)
        mu, nu = _factor(gen, "a", a, [-1 / 3, NEG_INF]), _factor(gen, "b", b, [-2 / 3, -1.0])
        M = OuterMeasure(product_space(mu.space, nu.space), (tensor(mu, nu),), (0.0,))
        nested = flatten_measure(tensor(tensor(mu, nu), mu))
        # inputs built by the public constructor, cached by the kernel that reads them
        inner, factor = (_factor(gen, c, _ARRAY_POINTS, [-1 / 3, NEG_INF]) for c in "qr")
        multiply(OuterMeasure(inner.space, (inner,), (0.0,)))
        tensor(factor, nu)
        return [tensor(mu, nu), tensor_many([mu, nu, mu]), multiply(M), nested, inner, factor]

    def _outer(self, n, lam):
        return _outer_from(*_outer_draw(np.random.default_rng(n), n, len(lam), self.THIRDS)[:2], np.array(lam))

    def test_multiply_fills_the_inner_caches(self):
        M = self._outer(_ARRAY_POINTS, [-1 / 3, 0.0, NEG_INF, -2 / 3])
        assert all(getattr(m, "_array", None) is None for m in M.inner)
        multiply(M)
        for lam, m in zip(M.weights, M.inner):
            if lam == NEG_INF:
                assert getattr(m, "_array", None) is None
            else:
                assert m._array.dtype == np.float64 and not m._array.flags.writeable
                assert m._array.tolist() == list(m.weights)

    def test_a_second_multiply_reads_the_same_arrays(self, monkeypatch):
        M = self._outer(8 * _ARRAY_POINTS, [-1 / 3, 0.0, NEG_INF, -2 / 3])
        first = multiply(M)
        arrays = [getattr(m, "_array", None) for m in M.inner]
        conversions = []
        monkeypatch.setattr(np, "fromiter", lambda *args: conversions.append(1) or np.array(args[0]))
        second = multiply(M)
        assert not conversions
        assert all(getattr(m, "_array", None) is arr for m, arr in zip(M.inner, arrays))
        assert [w.hex() for w in second.weights] == [w.hex() for w in first.weights]
        assert _same_measure(second, _multiply_loop(M))

    def test_threads_fill_one_cache_alike(self):
        M = self._outer(8 * _ARRAY_POINTS, [-1 / 3, 0.0, -2 / 3, -1.0])
        want = _multiply_loop(M)
        outs = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=lambda: outs.append(multiply(M))) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and len(outs) == len(threads)
        assert all(_same_measure(out, want) for out in outs)
        for m in M.inner:
            assert not m._array.flags.writeable and m._array.tolist() == list(m.weights)

    def test_no_cache_below_the_size_or_without_numpy(self, monkeypatch):
        small = self._outer(_ARRAY_POINTS - 1, [0.0, -1 / 3])
        multiply(small)
        assert all(getattr(m, "_array", None) is None for m in small.inner)
        # a product past the size whose factors are each below it
        gen = np.random.default_rng(0)
        mu, nu = _factor(gen, "a", 12, self.THIRDS), _factor(gen, "b", 12, self.THIRDS)
        assert tensor(mu, nu)._array is not None
        assert getattr(mu, "_array", None) is None and getattr(nu, "_array", None) is None
        monkeypatch.delitem(sys.modules, "numpy")
        large = self._outer(_ARRAY_POINTS, [0.0, -1 / 3])
        big = _factor(gen, "c", _ARRAY_POINTS, self.THIRDS)
        multiply(large)
        tensor(big, mu)
        assert all(getattr(m, "_array", None) is None for m in (*large.inner, big))
        assert "numpy" not in sys.modules

    def test_slots(self):
        assert IdempotentMeasure.__slots__ == ("space", "weights", "_array")
        assert IdempotentMeasure._fields == ("space", "weights")

    def test_read_only_and_equal_to_the_weights(self):
        for rho in self._cached_measures():
            outs = [copy.copy(rho), copy.deepcopy(rho)]
            outs += [pickle.loads(pickle.dumps(rho, protocol))
                     for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
            # a copy leaves the cache out; the next array kernel to read it fills it anew
            assert all(getattr(out, "_array", None) is None for out in outs)
            for out in outs:
                multiply(OuterMeasure(out.space, (out,), (0.0,)))
            for out in [rho, *outs]:
                assert out._array.dtype == np.float64 and not out._array.flags.writeable
                assert out._array.tolist() == list(out.weights) and _same_measure(out, rho)
                with pytest.raises(ValueError, match="read-only"):
                    out._array[0] = 0.0

    def test_copies_and_pickles_alike_before_and_after_a_kernel_reads_it(self):
        gen = np.random.default_rng(7)
        inner, factor = (_factor(gen, c, _ARRAY_POINTS, self.THIRDS) for c in "qr")
        protocols = range(pickle.HIGHEST_PROTOCOL + 1)
        before = [[pickle.dumps(mu, protocol) for protocol in protocols] for mu in (inner, factor)]
        multiply(OuterMeasure(inner.space, (inner,), (0.0,)))
        tensor(factor, inner)
        assert inner._array is not None and factor._array is not None
        after = [[pickle.dumps(mu, protocol) for protocol in protocols] for mu in (inner, factor)]
        assert after == before
        for mu in (inner, factor):
            assert all(getattr(out, "_array", None) is None for out in (copy.copy(mu), copy.deepcopy(mu)))

    def test_a_cached_measure_is_the_same_value(self):
        for rho in self._cached_measures():
            plain = _uncached(rho)
            assert getattr(plain, "_array", None) is None
            assert rho == plain and plain == rho and hash(rho) == hash(plain)
            assert repr(rho) == repr(plain) and mio.measure_doc(rho) == mio.measure_doc(plain)
            assert pickle.dumps(rho) == pickle.dumps(plain)
            for out in (copy.deepcopy(plain), pickle.loads(pickle.dumps(plain))):
                assert getattr(out, "_array", None) is None and out == rho


def _unbuilt(mu):
    """Whether μ's `weights` slot is still empty."""
    try:
        object.__getattribute__(mu, "weights")
    except AttributeError:
        return True
    return False


class TestLazyWeights:
    """A measure that an array kernel builds holds its `_array` and builds
    its `weights` tuple from it on the first read: a kernel that reads only
    the array, as `marginal` and `flatten_measure` do, leaves the tuple
    unbuilt, and no comparison, hash, repr, `io` encoding, copy or pickle
    tells such a measure from one built with its tuple."""

    THIRDS = TestMultiplyArrayPath.THIRDS

    def _makers(self):
        """Builders of fresh array-built measures, each with its loop reference."""
        gen = np.random.default_rng(11)
        a, b = _split(_ARRAY_POINTS, 2)
        mu, nu = _factor(gen, "a", a, self.THIRDS), _factor(gen, "b", b, self.THIRDS)
        M = self._outer(_ARRAY_POINTS)
        return {
            "tensor": (lambda: tensor(mu, nu), _tensor_many_loop([mu, nu])),
            "tensor_many": (lambda: tensor_many([mu, nu, mu]), _tensor_many_loop([mu, nu, mu])),
            "multiply": (lambda: multiply(M), _multiply_loop(M)),
            "flatten": (lambda: flatten_measure(tensor(tensor(mu, nu), mu)), _tensor_many_loop([mu, nu, mu])),
        }

    def _outer(self, n):
        return _outer_from(*_outer_draw(np.random.default_rng(n), n, 3, self.THIRDS)[:2], np.array([-1 / 3, 0.0, -1.0]))

    @pytest.mark.parametrize("cells", (_ARRAY_POINTS, 8 * _ARRAY_POINTS))
    @pytest.mark.parametrize("k", (2, 3))
    def test_marginals_leave_the_product_tuple_unbuilt(self, cells, k):
        factors = [_factor(np.random.default_rng(cells), c, n, self.THIRDS) for c, n in zip("abc", _split(cells, k))]
        out, ref = tensor_many(factors), _tensor_many_loop(factors)
        assert _unbuilt(out) and not out._array.flags.writeable
        for axis in range(k):
            assert _same_measure(marginal(out, axis), marginal(ref, axis))
        assert _unbuilt(out)
        # the first read builds the tuple from the array and stores it
        assert _same_measure(out, ref)
        assert object.__getattribute__(out, "weights") is out.weights

    def test_flatten_keeps_a_lazy_input_lazy(self):
        gen = np.random.default_rng(3)
        mu, nu, tau = (_factor(gen, c, n, self.THIRDS) for c, n in zip("abc", _split(8 * _ARRAY_POINTS, 3)))
        rho = tensor(tensor(mu, nu), tau)
        flat = flatten_measure(rho)
        assert _unbuilt(rho) and _unbuilt(flat) and flat._array is rho._array
        for axis in range(3):
            marginal(flat, axis)
        assert _unbuilt(flat)
        assert _same_measure(flat, _tensor_many_loop([mu, nu, tau])) and _unbuilt(rho)

    @pytest.mark.parametrize("kernel", ("tensor", "tensor_many", "multiply", "flatten"))
    def test_a_lazy_measure_is_the_eager_value(self, kernel):
        make, ref = self._makers()[kernel]
        weights = tuple(make()._array.tolist())

        def pair():
            """A fresh lazy measure and its eager rebuild on the same space."""
            out = make()
            eager = IdempotentMeasure(out.space, weights)
            assert _unbuilt(out) and _same_measure(eager, ref)
            return out, eager

        lazy, eager = pair()
        assert lazy == eager and hash(lazy) == hash(eager)
        lazy, eager = pair()
        assert eager == lazy and repr(lazy) == repr(eager)
        lazy, eager = pair()
        assert mio.measure_doc(lazy) == mio.measure_doc(eager)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            lazy, eager = pair()
            assert pickle.dumps(lazy, protocol) == pickle.dumps(eager, protocol)
        for clone in (copy.copy, copy.deepcopy):
            lazy, eager = pair()
            out, again = clone(lazy), clone(eager)
            assert getattr(out, "_array", None) is None
            assert pickle.dumps(out) == pickle.dumps(again) and _same_measure(out, eager)
        lazy, eager = pair()
        loaded = pickle.loads(pickle.dumps(lazy))
        assert getattr(loaded, "_array", None) is None and _same_measure(loaded, eager)

    def test_it_reads_as_an_idempotent_measure(self):
        out = self._makers()["tensor"][0]()
        assert out.__class__ is IdempotentMeasure and isinstance(out, IdempotentMeasure)
        with pytest.raises(AttributeError, match="^'IdempotentMeasure' object has no attribute 'nope'$"):
            out.nope
        with pytest.raises(TypeError, match="^an integrated function must be a FiniteFunction, got IdempotentMeasure$"):
            integrate(out, out)
        with pytest.raises(TypeError, match="^multiply needs an OuterMeasure, got IdempotentMeasure$"):
            multiply(out)
        with pytest.raises(TypeError, match="^pushforward needs a PointMap, got IdempotentMeasure$"):
            pushforward(out, out)
        assert _unbuilt(out) and getattr(_uncached(out), "_array", None) is None

    def test_threads_read_equal_tuples(self):
        M = self._outer(8 * _ARRAY_POINTS)
        want = _multiply_loop(M).weights
        for _ in range(5):
            out = multiply(M)
            reads = []
            barrier = threading.Barrier(8)

            def read():
                barrier.wait(timeout=60)
                reads.append(out.weights)

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                threads = [threading.Thread(target=read) for _ in range(8)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
            finally:
                sys.setswitchinterval(interval)
            assert not any(t.is_alive() for t in threads) and len(reads) == len(threads)
            assert all(_bits(w) == _bits(want) for w in reads)
            assert _bits(out.weights) == _bits(want)


# ---------------------------------------------------------- value classes

def _dataclass_definitions():
    """The value classes as `dataclasses` defined them, as references.

    Only the fields, their options and the hand-written methods that the
    generated ones defer to are kept: `==`, hash, repr and the `__init__`
    signature follow from these alone.  Validation is not part of this
    contract, so a reference is built from the normalized fields of a
    library object (`_old`).
    """
    @dataclasses.dataclass(frozen=True)
    class FiniteSpace:
        points: tuple

    @dataclasses.dataclass(frozen=True)
    class ProductSpace(FiniteSpace):
        points: tuple = dataclasses.field(init=False, compare=False)
        factors: tuple

        def __getattr__(self, name):
            if name != "points":
                raise AttributeError(name)
            object.__setattr__(self, "points", tuple(itertools.product(
                *(f.points for f in self.factors))))
            return self.points

    @dataclasses.dataclass(frozen=True)
    class FiniteFunction:
        space: object
        values: tuple

    @dataclasses.dataclass(frozen=True)
    class MetricSpace:
        space: object
        dist: tuple

    @dataclasses.dataclass(frozen=True)
    class IdempotentMeasure:
        space: object
        weights: tuple

        def __repr__(self):
            atoms = ", ".join(f"{p!r}: {w}" for p, w in zip(self.space.points, self.weights))
            return f"IdempotentMeasure({{{atoms}}})"

    @dataclasses.dataclass(frozen=True)
    class PointMap:
        source: object
        target: object
        table: object

    @dataclasses.dataclass(frozen=True)
    class OuterMeasure:
        base: object
        inner: tuple
        weights: tuple

    @dataclasses.dataclass(frozen=True)
    class ClosedSet:
        space: object
        members: frozenset

    @dataclasses.dataclass(frozen=True)
    class FuzzySet:
        space: object
        grades: tuple

    @dataclasses.dataclass(frozen=True)
    class PointCloudSpace:
        space: object
        embed: object

    @dataclasses.dataclass(frozen=True)
    class CollapseMap:
        map: object

    @dataclasses.dataclass(frozen=True)
    class TightPattern:
        rows: tuple
        cols: tuple
        fixed: tuple

    @dataclasses.dataclass(frozen=True)
    class GapResult:
        gap: float
        coupling: object
        phi: object

    @dataclasses.dataclass(frozen=True)
    class CoverPair:
        U: frozenset
        V: frozenset
        alpha: object = None

    @dataclasses.dataclass(frozen=True)
    class MilyutinLevel:
        pairs: tuple

    @dataclasses.dataclass(frozen=True)
    class LawReport:
        name: str
        cases: int
        ok: bool
        counterexample: object = None

    @dataclasses.dataclass
    class Context:
        spaces: dict = dataclasses.field(default_factory=dict)

    refs = [FiniteSpace, ProductSpace, FiniteFunction, MetricSpace, IdempotentMeasure,
            PointMap, OuterMeasure, ClosedSet, FuzzySet, PointCloudSpace, CollapseMap,
            TightPattern, GapResult, CoverPair, MilyutinLevel, LawReport, Context]
    for cls in refs:
        cls.__qualname__ = cls.__name__  # the generated repr prints it
    return {cls.__name__: cls for cls in refs}


_DATACLASSES = _dataclass_definitions()


def _init_fields(name):
    return [f.name for f in dataclasses.fields(_DATACLASSES[name]) if f.init]


def _old(obj):
    """The reference dataclass object with the fields of a library object."""
    name = type(obj).__name__
    return _DATACLASSES[name](*(getattr(obj, f) for f in _init_fields(name)))


def _fields_of(obj):
    """The init fields of a value object as keywords."""
    return {f: getattr(obj, f) for f in _init_fields(type(obj).__name__)}


def _value_samples():
    """Instances of every value class, with equal pairs that are not the same
    object, unequal pairs and, where the class hashes, equal hashes."""
    X, X2, Y, Z = space("ab"), space(["a", "b"]), space("uv"), space("abc")
    mu, mu2 = normalize(X, {"a": 0, "b": -1}), normalize(X2, {"a": 0, "b": -1})
    nu = normalize(Y, {"u": -2, "v": 0})
    f = PointMap(X, Y, {"a": "u", "b": "v"})
    c = PointMap(Z, X, {"a": "a", "b": "b", "c": "a"})
    U = CoverPair({"a"}, {"a", "b"})
    gap = coupling_gap(*counterexample_instance(3))
    pattern, *others = itertools.islice(tight_patterns(mu, nu), 3)
    return {
        "FiniteSpace": [X, X2, Y, Z],
        "ProductSpace": [product_space(X, Y), product_space(X2, Y), product_space(Y, X),
                         product_space(product_space(X, Y), Z)],
        "FiniteFunction": [FiniteFunction(X, (1, 2)), FiniteFunction(X2, [1.0, 2.0]),
                           FiniteFunction(X, (2, 1))],
        "MetricSpace": [metric_closure(X, [[0, 1], [1, 0]]), MetricSpace(X2, ((0, 1), (1, 0))),
                        MetricSpace(X, ((0, 2), (2, 0)))],
        "IdempotentMeasure": [mu, mu2, nu, dirac(X, "b")],
        "PointMap": [f, PointMap(X2, Y, {"b": "v", "a": "u"}),
                     PointMap(X, Y, {"a": "u", "b": "u"})],
        "OuterMeasure": [OuterMeasure(X, (mu, dirac(X, "b")), (0, -1)),
                         OuterMeasure(X2, [mu2, dirac(X2, "b")], [0.0, -1.0]),
                         OuterMeasure(X, (mu,), (0,))],
        "ClosedSet": [ClosedSet(X, {"a"}), ClosedSet(X2, frozenset("a")), ClosedSet(X, {"a", "b"})],
        "FuzzySet": [FuzzySet(X, (1, 0.5)), FuzzySet(X2, [1.0, 0.5]), FuzzySet(X, (0.5, 1))],
        "PointCloudSpace": [PointCloudSpace(X, {"a": (0, 1), "b": (2, 3)}),
                            PointCloudSpace(X2, {"b": [2, 3], "a": [0, 1]}),
                            PointCloudSpace(X, {"a": (0, 1), "b": (2, 4)})],
        "CollapseMap": [CollapseMap(c), CollapseMap(PointMap(Z, X2, dict(c.table))),
                        CollapseMap(PointMap(Z, X, {"a": "a", "b": "b", "c": "b"}))],
        "TightPattern": [pattern, TightPattern(**_fields_of(pattern)), *others],
        "GapResult": [gap, GapResult(gap.gap, gap.coupling, gap.phi),
                      GapResult(0.5, gap.coupling, gap.phi)],
        "CoverPair": [U, CoverPair(frozenset("a"), frozenset("ab"), {"a": 0, "b": 0}),
                      CoverPair({"a"}, {"a", "b"}, {"b": -1})],
        "MilyutinLevel": [MilyutinLevel((U,)), MilyutinLevel([CoverPair({"a"}, {"a", "b"})]),
                          MilyutinLevel((U, CoverPair({"b"}, {"b"})))],
        "LawReport": [LawReport("monad", 3, True), LawReport("monad", 3, True, None),
                      LawReport("monad", 3, False, "case 1")],
        "Context": [Context(), Context({}), Context({"X": X})],
    }


def _hash_outcome(obj):
    try:
        return hash(obj)
    except TypeError as exc:
        return ("raised", str(exc))


def _sorted_sets(text):
    """A repr with the members of each `frozenset({...})` in sorted order."""
    tree = ast.parse(text, mode="eval")
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "frozenset" and node.args:
            if isinstance(node.args[0], ast.Set):
                node.args[0].elts.sort(key=ast.dump)
    return ast.unparse(tree)


_VALUE_CLASSES = sorted(_DATACLASSES)


class TestValueClassesMatchDataclasses:
    def test_every_class_is_covered(self):
        samples = _value_samples()
        assert sorted(samples) == _VALUE_CLASSES
        assert all(type(x).__name__ == name for name, xs in samples.items() for x in xs)

    @pytest.mark.parametrize("name", _VALUE_CLASSES)
    def test_equality_hash_and_repr(self, name):
        samples = _value_samples()[name]
        for a in samples:
            assert repr(a) == repr(_old(a))
            assert _hash_outcome(a) == _hash_outcome(_old(a))
            assert a.__eq__(object()) is NotImplemented
            assert (a == object()) is False and (a != object()) is True
            for b in samples:
                assert (a == b) is (_old(a) == _old(b))
                assert (a != b) is (_old(a) != _old(b))
        assert samples[0] == samples[1] and samples[0] is not samples[1]
        assert samples[0] != samples[2]

    @pytest.mark.parametrize("name", _VALUE_CLASSES)
    def test_construction(self, name):
        a = _value_samples()[name][0]
        cls, ref = type(a), _DATACLASSES[name]
        params = list(inspect.signature(cls).parameters.values())
        want = list(inspect.signature(ref).parameters.values())
        assert [(p.name, p.kind) for p in params] == [(p.name, p.kind) for p in want]
        if name != "Context":  # its default is a fresh dict, below
            assert [p.default for p in params] == [p.default for p in want]
        values = _fields_of(a)
        assert cls(*values.values()) == a and cls(**values) == a

    @pytest.mark.parametrize("name", [n for n in _VALUE_CLASSES if n != "Context"])
    def test_fields_are_the_compared_fields(self, name):
        cls = type(_value_samples()[name][0])
        want = tuple(f.name for f in dataclasses.fields(_DATACLASSES[name]) if f.compare)
        assert cls._fields == want

    def test_defaults(self):
        assert CoverPair({"a"}, {"a", "b"}) == CoverPair({"a"}, {"a", "b"}, None)
        assert CoverPair({"a"}, {"a", "b"}).alpha == {"a": 0.0, "b": 0.0}
        assert LawReport("x", 1, True).counterexample is None
        one, two = Context(), Context()
        assert one.spaces == {} and one.spaces is not two.spaces

    @pytest.mark.parametrize("name", [n for n in _VALUE_CLASSES if n != "Context"])
    def test_frozen(self, name):
        a = _value_samples()[name][0]
        old = _old(a)
        for field_name in [*_fields_of(a), "points", "other"]:
            if field_name == "points" and name not in ("FiniteSpace", "ProductSpace"):
                continue
            for act in (lambda o: setattr(o, field_name, None), lambda o: delattr(o, field_name)):
                with pytest.raises(AttributeError) as got:
                    act(a)
                with pytest.raises(AttributeError) as want:
                    act(old)
                assert str(got.value) == str(want.value)
        assert _old(a) == old  # nothing changed

    def test_context_is_mutable_and_unhashable(self):
        ctx = Context()
        ctx.spaces = {"X": space("ab")}
        ctx.other = 1
        assert ctx == Context({"X": space("ab")}) and ctx.other == 1
        with pytest.raises(TypeError):
            hash(ctx)

    def test_a_plain_space_never_equals_a_product(self):
        P = product_space(space("ab"), space("uv"))
        assert FiniteSpace(P.points) != P and P != FiniteSpace(P.points)
        assert not FiniteSpace(P.points) == P
        assert FiniteSpace(P.points).points == P.points


class TestValueClassesCopyAndPickle:
    @pytest.mark.parametrize("name", _VALUE_CLASSES)
    def test_round_trips(self, name):
        for a in _value_samples()[name]:
            outs = [copy.copy(a), copy.deepcopy(a)]
            outs += [pickle.loads(pickle.dumps(a, protocol))
                     for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
            for out in outs:
                assert type(out) is type(a) and out == a
                assert _sorted_sets(repr(out)) == _sorted_sets(repr(a))
                if name not in ("Context", "PointMap", "PointCloudSpace", "CoverPair",
                                "MilyutinLevel", "CollapseMap"):  # these hold dicts
                    assert hash(out) == hash(a)

    def test_products_before_and_after_their_points_are_read(self):
        X, Y = space("ab"), space("uvw")
        for read in (False, True):
            P = product_space(product_space(X, Y), X)
            if read:
                assert len(P.points) == 12
            for out in (copy.copy(P), copy.deepcopy(P), pickle.loads(pickle.dumps(P))):
                if read:
                    assert FiniteSpace.points.__get__(out) == P.points
                else:
                    with pytest.raises(AttributeError):
                        FiniteSpace.points.__get__(out)  # still not built
                assert out == P and hash(out) == hash(P)
                assert out.index((("b", "w"), "a")) == P.index((("b", "w"), "a")) == 10
                assert out.points == P.points

    def test_copies_keep_the_derived_slots(self):
        X, Y = space("ab"), space("uv")
        P = product_space(X, Y)
        f = PointMap(X, P, {"a": ("b", "v"), "b": ("a", "u")})
        mu = normalize(X, {"a": 0, "b": -1})
        for g in (copy.copy(f), copy.deepcopy(f), pickle.loads(pickle.dumps(f))):
            assert g._targets == f._targets == (3, 0)
            assert pushforward(g, mu) == pushforward(f, mu)
        cloud = PointCloudSpace(X, {"a": (0, -0.0, 3), "b": (2, 0.0, -1)})
        for out in (copy.copy(cloud), copy.deepcopy(cloud)) + tuple(
                pickle.loads(pickle.dumps(cloud, protocol))
                for protocol in range(pickle.HIGHEST_PROTOCOL + 1)):
            assert out._columns == cloud._columns == ((0.0, 2.0), (-0.0, 0.0), (3.0, -1.0))
            for nu in (mu, dirac(X, "a"), dirac(X, "b")):
                assert _bits(barycenter(out, nu)) == _bits(barycenter(cloud, nu))
        m = metric_closure(X, [[0, 1], [1, 0]])
        for out in (copy.deepcopy(m), pickle.loads(pickle.dumps(m))):
            assert np.array_equal(out.matrix, m.matrix) and dhat(1, out, mu, mu) == 0.0
        assert pickle.loads(pickle.dumps(X)).index("b") == 1

    def test_cloud_columns_are_the_state(self):
        a = PointCloudSpace(space("ab"), {"a": (0, 1), "b": (2, 3)})
        b = copy.copy(a)
        object.__setattr__(b, "_columns", ((9.0, 0.0), (9.0, 1.0)))
        assert PointCloudSpace._fields == ("space", "embed") and "_columns" not in repr(a)
        assert b.embed == {"a": (9.0, 9.0), "b": (0.0, 1.0)} and b.point("a") == (9.0, 9.0)
        assert barycenter(b, dirac(b.space, "b")) == b.point("b") == (0.0, 1.0)
        assert a != b and repr(a) != repr(b)
        assert _hash_outcome(a) == _hash_outcome(b) == _hash_outcome(_old(a))

    def test_metric_space_copies_refuse_writes(self):
        m = metric_closure(space("abc"), [[0, 1, 5], [1, 0, 1], [5, 1, 0]])
        outs = [copy.copy(m), copy.deepcopy(m)]
        outs += [pickle.loads(pickle.dumps(m, protocol))
                 for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for out in outs:
            assert out == m and np.array_equal(out._table, m._table)
            assert not out._table.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                out._table[0, 2] = 9.0
            assert out.dist == m.dist and out.d("a", "c") == 2.0


# ------------------------------------------------- each table stored once

_VIEWS = ((PointMap, "table"), (PointCloudSpace, "embed"), (MetricSpace, "dist"),
          (CoverPair, "alpha"))


def _stored_once_instances():
    """A map, a cloud, a metric with Milyutin levels over it, and inputs."""
    X, Y = space("abcd"), space("uvw")
    f = PointMap(X, Y, {"a": "u", "b": "w", "c": "u", "d": "v"})
    cloud = PointCloudSpace(X, {"a": (0, 1), "b": (2, -3), "c": (-1, 4), "d": (0.5, 0.25)})
    M = metric_closure(Y, [[0, 1, 4], [1, 0, 2], [4, 2, 0]])
    pair = CoverPair({"u"}, {"u", "v"}, {"v": -1.5})
    levels = [MilyutinLevel((pair, CoverPair({"v", "w"}, {"v", "w"}))),
              MilyutinLevel((CoverPair({"u", "v", "w"}, {"u", "v", "w"}),))]
    mu = normalize(X, {"a": -1, "b": 0, "c": -0.5, "d": -2})
    return f, cloud, M, pair, levels, mu, FiniteFunction(Y, (1.0, 2.0, -3.0))


class TestEachTableIsStoredOnce:
    def test_stored_slots(self):
        assert PointMap.__slots__ == ("source", "target", "_targets")
        assert PointCloudSpace.__slots__ == ("space", "_columns")
        assert MetricSpace.__slots__ == ("space", "_table")
        assert CoverPair.__slots__ == ("U", "V", "_alpha")

    def test_views_are_fresh_on_every_read(self):
        f, cloud, M, pair, *_ = _stored_once_instances()
        assert f.table == f.table and f.table is not f.table
        assert cloud.embed == cloud.embed and cloud.embed is not cloud.embed
        assert pair.alpha == pair.alpha and pair.alpha is not pair.alpha
        assert M.dist == M.dist and M.dist is not M.dist

    def test_writes_to_a_view_change_no_answer(self):
        f, cloud, M, pair, levels, mu, phi = _stored_once_instances()
        X, Y = f.source, f.target

        def answers():
            return (
                [f(x) for x in X], [f.fiber(y) for y in Y], f.image(), f.image({"b", "c"}),
                f.preimage({"u", "v"}), pushforward(f, mu), precompose(phi, f),
                [cloud.point(x) for x in X], barycenter(cloud, mu), milyutin_build(M, levels, 2),
            )

        before, reprs = answers(), (repr(f), repr(cloud), repr(pair))
        f.table["a"] = "v"
        cloud.embed["a"] = (5.0, 5.0)
        pair.alpha["v"] = 5.0
        for view in (f.table, cloud.embed, pair.alpha):
            view.clear()
        assert answers() == before and (repr(f), repr(cloud), repr(pair)) == reprs
        selection = before[-1][2]
        assert all(max(s.weights) == 0.0 for s in selection.values())

    def test_no_library_path_reads_a_view(self, monkeypatch):
        f, cloud, M, pair, levels, mu, phi = _stored_once_instances()
        X, Y = f.source, f.target
        g = PointMap(Y, X, {"u": "a", "v": "b", "w": "a"})
        onto = PointMap(X, space("uv"), {"a": "u", "b": "v", "c": "u", "d": "u"})
        nu = normalize(Y, {"u": -1, "v": 0, "w": -2})
        raw = [[0, 1, 4], [1, 0, 2], [4, 2, 0]]
        OM = OuterMeasure(Y, (nu, dirac(Y, "u")), (0, -1))

        def run():
            return (
                [f(x) for x in X], [f.fiber(y) for y in Y], f.preimage({"v"}),
                f.image(), f.image({"a"}), f.is_surjective, f.is_injective, f.then(g),
                precompose(phi, f), lift_along_surjection(f, nu), pushforward(f, mu),
                [cloud.point(x) for x in X], cloud.dim, barycenter(cloud, mu),
                M.d("u", "w"), M.diameter, metric_closure(Y, raw)._table.tolist(),
                metric_closure(Y, np.array(raw) / 3)._table.tolist(),
                dhat(2, M, nu, dirac(Y, "w")), dhat_oracle(1, M, nu, dirac(Y, "w"), step=0.25),
                outer_dtilde(2, M, OM, OM),
                inner_distance_table(1, M, [nu, dirac(Y, "v")]),
                mio.map_doc(f), mio.cloud_doc(cloud), mio.metric_space_doc(M),
                mio.cover_levels_doc(levels, Y), milyutin_build(M, levels, 2),
                check_functor_laws(seed=0, cases=40),
                lift_open_surjection(onto, mu, [dirac(onto.target, "v")]),
                bicommutative_lift(onto, mu, tensor(pushforward(onto, mu), dirac(onto.target, "v"))),
            )

        want = run()
        with monkeypatch.context() as patch:
            for cls, name in _VIEWS:
                def fail(self, name=name):
                    raise AssertionError(f"a library path read the {name!r} view")
                patch.setattr(cls, name, property(fail))
            got = run()
        assert got == want
