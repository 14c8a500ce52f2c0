"""Openness constructions for the measure functor on finite spaces.

Three computational devices live here:

* sequence lifting through a finite surjection in closed form, with the
  collapse map (one doubled fiber) as its special case, plus the
  factorization of a surjection into collapses;
* lifting of couplings through a collapse applied to both coordinates,
  with the two characteristic identities checked exactly;
* the max-marginal coupling correspondence: feasibility, tight-pattern
  enumeration of the (non-convex) feasible set, and an exact best
  approximation gap showing the correspondence admits no continuous
  selection at the canonical two-point instance;

together with a finite-depth Milyutin-style builder producing a
measure-valued selection supported inside fibers.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

from .core import (
    NEG_INF,
    FiniteFunction,
    FiniteSpace,
    Label,
    MetricSpace,
    ProductSpace,
    as_weight,
    product_space,
)
from .functor import PointMap, pushforward
from .measures import IdempotentMeasure, dirac
from .monad import marginal


class InfeasibleError(ValueError):
    """An instance fails a feasibility precondition (not a schema problem)."""


@dataclass(frozen=True)
class CollapseMap:
    """A surjection collapsing exactly one pair of points; all other fibers are singletons."""

    map: PointMap

    def __post_init__(self) -> None:
        f = self.map
        if len(f.source) != len(f.target) + 1:
            raise ValueError("a collapse map drops exactly one point")
        if not f.is_surjective:
            raise ValueError("a collapse map must be surjective")
        doubled = [y for y in f.target.points if len(f.fiber(y)) == 2]
        if len(doubled) != 1:
            raise ValueError("a collapse map must have exactly one two-point fiber")
        pair = sorted(f.fiber(doubled[0]), key=f.source.index)
        object.__setattr__(self, "_doubled", (pair[0], pair[1]))
        object.__setattr__(self, "_merged", doubled[0])

    @property
    def doubled(self) -> tuple[Label, Label]:
        """The two source points sharing a fiber, in canonical source order."""
        return self._doubled  # type: ignore[attr-defined]

    @property
    def merged_target(self) -> Label:
        return self._merged  # type: ignore[attr-defined]


def lift_open_collapse(
    f: CollapseMap,
    mu0: IdempotentMeasure,
    nu_seq: Sequence[IdempotentMeasure],
    nu0: IdempotentMeasure | None = None,
) -> list[IdempotentMeasure]:
    """Lift a sequence of target measures through a collapse, anchored at μ0.

    The one-doubled-fiber case of `lift_open_surjection`, with its checks
    and guarantees: the doubled-fiber atom with the larger μ0-weight (the
    first in source order on a tie) tracks the image weight exactly; the
    other is clipped at its own μ0-weight.
    """
    return lift_open_surjection(f.map, mu0, nu_seq, nu0)


def factor_surjection(f: PointMap) -> tuple[list[CollapseMap], PointMap]:
    """Factor a finite surjection into single-point collapses and a bijection.

    Returns (collapses, relabel) with f = relabel ∘ c_k ∘ ... ∘ c_1,
    applying c_1 first.  Each collapse merges one non-representative point
    into the first source point of its fiber.
    """
    if not f.is_surjective:
        raise ValueError("only surjections factor into collapses")
    rep = {}
    for y in f.target.points:
        rep[y] = min(f.fiber(y), key=f.source.index)
    extras = [x for x in f.source.points if x != rep[f.table[x]]]

    collapses = []
    current = f.source
    for x in extras:
        mate = rep[f.table[x]]
        smaller = FiniteSpace(tuple(p for p in current.points if p != x))
        table = {p: (mate if p == x else p) for p in current.points}
        collapses.append(CollapseMap(PointMap(current, smaller, table)))
        current = smaller
    relabel = PointMap(current, f.target, {p: f.table[p] for p in current.points})
    return collapses, relabel


def lift_open_surjection(
    f: PointMap,
    mu0: IdempotentMeasure,
    nu_seq: Sequence[IdempotentMeasure],
    nu0: IdempotentMeasure | None = None,
) -> list[IdempotentMeasure]:
    """Lift a sequence of target measures through a finite surjection, anchored at μ0.

    In each fiber of f, the first source point in source order with the
    largest μ0-weight tracks the image weight ν_k(f x) exactly; every other
    point x is clipped at its own μ0-weight, min(ν_k(f x), μ0(x)).  Every
    lift pushes forward to its ν_k exactly, and the lifts converge to μ0
    (atomwise in the exponential weight metric) whenever ν_k converges to
    the image of μ0.

    This is the composite of the collapse lifts along `factor_surjection`,
    in closed form.  Each collapse merges a point into the first point r of
    its fiber.  Lifting back through it, the one of the two with the larger
    anchor weight (r on a tie) keeps r's lifted weight, and the other is
    clipped at its anchor weight.  The anchor weight of r there is the
    largest μ0-weight among r and the points merged into it earlier, so the
    point never clipped is the first with the largest μ0-weight, and every
    other point x ends at min(ν_k(f x), μ0(x)).

    `nu0`, when given, must equal the pushforward of μ0 exactly.
    """
    if mu0.space != f.source:
        raise ValueError("anchor measure does not live on the source")
    if nu0 is not None and nu0 != pushforward(f, mu0):
        raise InfeasibleError("marginal mismatch: nu0 differs from the image of mu0")
    if not f.is_surjective:
        raise ValueError("lift requires a surjective map")
    images = [f.table[x] for x in f.source.points]
    # per target point, the index of its fiber's tracking point
    tracking: dict[Label, int] = {}
    for i, y in enumerate(images):
        if y not in tracking or mu0.weights[i] > mu0.weights[tracking[y]]:
            tracking[y] = i
    caps = list(mu0.weights)
    for i in tracking.values():
        caps[i] = math.inf  # never clipped

    lifts = []
    for nu_k in nu_seq:
        if nu_k.space != f.target:
            raise ValueError("sequence measures must live on the target")
        weights = tuple(min(nu_k.weight(y), cap) for y, cap in zip(images, caps))
        mu_k = IdempotentMeasure(f.source, weights)
        if pushforward(f, mu_k) != nu_k:
            raise ValueError("lift failed to reproduce its marginal")
        lifts.append(mu_k)
    return lifts


def bicommutative_lift(
    f: CollapseMap, mu: IdempotentMeasure, nu: IdempotentMeasure
) -> IdempotentMeasure:
    """Lift a coupling through a collapse applied to both coordinates.

    Given μ on the source and a coupling ν on target × target whose first
    marginal equals the image of μ, produce ν' on source × source with

        first marginal of ν' = μ  and  (f × f) image of ν' = ν,

    via the row-capped pullback λ'(x, x') = min(μ(x), ν(f x, f x')).  Both
    identities are checked exactly before returning.
    """
    pm = f.map
    if mu.space != pm.source:
        raise ValueError("measure does not live on the source")
    if not isinstance(nu.space, ProductSpace) or nu.space.factors != (pm.target, pm.target):
        raise ValueError("coupling must live on target × target")
    if marginal(nu, 0) != pushforward(pm, mu):
        raise InfeasibleError("first marginal of the coupling differs from the image of mu")

    prod = product_space(pm.source, pm.source)
    weights = tuple(
        min(mu.weight(x), nu.weight((pm.table[x], pm.table[xp])))
        for (x, xp) in prod.points
    )
    lifted = IdempotentMeasure(prod, weights)

    if marginal(lifted, 0) != mu:
        raise ValueError("lift failed the first-marginal identity")
    both = PointMap(prod, nu.space, {(x, xp): (pm.table[x], pm.table[xp]) for x, xp in prod.points})
    if pushforward(both, lifted) != nu:
        raise ValueError("lift failed the image identity")
    return lifted


def coupling_feasible(
    coupling: IdempotentMeasure, mu1: IdempotentMeasure, mu2: IdempotentMeasure
) -> bool:
    """Whether both marginals of a coupling match the prescribed measures exactly."""
    sp = coupling.space
    if not isinstance(sp, ProductSpace) or len(sp.factors) != 2:
        raise ValueError("a coupling lives on a two-factor product space")
    if sp.factors != (mu1.space, mu2.space):
        raise ValueError("coupling factors differ from the marginal spaces")
    return marginal(coupling, 0) == mu1 and marginal(coupling, 1) == mu2


@dataclass(frozen=True)
class TightPattern:
    """A choice, per finite row and column, of the cell attaining its max.

    Each pattern carves a box out of the feasible set: witness cells are
    pinned to the marginal weights, every other cell ranges below
    min(row weight, column weight).
    """

    rows: tuple[tuple[Label, Label], ...]
    cols: tuple[tuple[Label, Label], ...]
    fixed: tuple[tuple[tuple[Label, Label], float], ...]


_PATTERN_CAP = 4  # points per side in tight_patterns
_FAMILY_CAP = 12  # cells in indicator_family, which coupling_gap tests against


def tight_patterns(mu1: IdempotentMeasure, mu2: IdempotentMeasure) -> Iterator[TightPattern]:
    """Enumerate the tight patterns for two marginals.

    Each finite row x picks a column y with b[y] >= a[x], and each finite
    column y a row x with a[x] >= b[y].  A cell picked both ways has
    a[x] = b[y], so every choice is a pattern and every pinned value is
    its cell cap.  Rows, columns and pinned cells come in point order.
    """
    xs, ys = mu1.space.points, mu2.space.points
    if len(xs) > _PATTERN_CAP or len(ys) > _PATTERN_CAP:
        raise ValueError(f"tight-pattern enumeration is capped at {_PATTERN_CAP}x{_PATTERN_CAP}")
    a, b = mu1.weights, mu2.weights
    m = len(ys)
    # cell k = i*m + j is (xs[i], ys[j]), in the product's point order
    cells = [(x, y) for x in xs for y in ys]
    row_choices = [
        [i * m + j for j in range(m) if b[j] >= a[i]] for i in range(len(xs)) if a[i] > NEG_INF
    ]
    col_choices = [
        [i * m + j for i in range(len(xs)) if a[i] >= b[j]] for j in range(m) if b[j] > NEG_INF
    ]
    col_picks = [
        (tuple((y, x) for x, y in map(cells.__getitem__, pick)), {k: b[k % m] for k in pick})
        for pick in itertools.product(*col_choices)
    ]
    for pick in itertools.product(*row_choices):
        rows = tuple(map(cells.__getitem__, pick))
        row_fixed = {k: a[k // m] for k in pick}
        for cols, col_fixed in col_picks:
            fixed = {**row_fixed, **col_fixed}
            yield TightPattern(
                rows=rows,
                cols=cols,
                fixed=tuple((cells[k], fixed[k]) for k in sorted(fixed)),
            )


def pattern_max_coupling(
    pattern: TightPattern, mu1: IdempotentMeasure, mu2: IdempotentMeasure
) -> IdempotentMeasure:
    """The largest coupling inside a pattern's box: free cells at their caps."""
    prod = product_space(mu1.space, mu2.space)
    fixed = dict(pattern.fixed)
    weights = tuple(
        fixed.get((x, y), min(mu1.weight(x), mu2.weight(y))) for (x, y) in prod.points
    )
    return IdempotentMeasure(prod, weights)


def _indicator_values(space: FiniteSpace) -> list[tuple[float, ...]]:
    if len(space) > _FAMILY_CAP:
        raise ValueError(f"indicator family is capped at {_FAMILY_CAP} points")
    return list(itertools.product((0.0, -1.0), repeat=len(space)))


def indicator_family(space: FiniteSpace) -> list[FiniteFunction]:
    """All {0, -1}-valued test functions on a space (2^|space| of them)."""
    return [FiniteFunction(space, values) for values in _indicator_values(space)]


def _integrals(weights: Sequence[float], columns: Sequence[Sequence[float]]) -> list[float]:
    """`integrate` against every test function at once: per function, the
    max over the finite weights w_c of φ_c + w_c, in point order."""
    return list(map(max, zip(*(
        [v + w for v in column] for w, column in zip(weights, columns) if w > NEG_INF
    ))))


@dataclass(frozen=True)
class GapResult:
    gap: float
    coupling: IdempotentMeasure
    phi: FiniteFunction


def _box_gap(
    fixed: Mapping[tuple[Label, Label], float],
    caps: Mapping[tuple[Label, Label], float],
    A: Mapping[tuple[Label, Label], float],
    targets: Sequence[float],
    shifted: Mapping[tuple[Label, Label], Sequence[float]],
    thresholds: Mapping[tuple[Label, Label], Sequence[float]],
) -> tuple[float, dict[tuple[Label, Label], float]]:
    """Exact minimum of max_φ |ν(φ) - target_φ| over one pattern box.

    Parametrize by the allowed deviation t: the largest coupling obeying
    every upper constraint is λ_c(t) = min(cap_c, t + A_c) with
    A_c = min_φ (target_φ - φ_c); it is monotone in t, so the box optimum
    is the least t at which the lower constraints hold, solvable per test
    function in closed form.  `shifted[c]` holds cap_c + φ_c and
    `thresholds[c]` the least t at which free cell c alone reaches
    target_φ, one entry per test function; neither depends on the box.
    A box pins at least one cell (a normalized marginal has a weight-0
    point), and every pinned value is a finite cap.
    """
    t_min = max(0.0, *(v - A[c] for c, v in fixed.items()))
    # per test function, the least t at which some cell, pinned or free,
    # lifts ν(φ) to target_φ - t
    w_fixed = map(max, zip(*(shifted[c] for c in fixed)))
    free = (thresholds[c] for c in caps if c not in fixed and caps[c] > NEG_INF)
    best = map(min, zip(map(operator.sub, targets, w_fixed), *free))
    t_min = max(t_min, max(best))

    coupling = {
        c: (fixed[c] if c in fixed else min(caps[c], t_min + A[c]))
        for c in caps
    }
    return t_min, coupling


def coupling_gap(
    mu1: IdempotentMeasure,
    mu2: IdempotentMeasure,
    target: IdempotentMeasure,
) -> GapResult:
    """Best approximation of a target coupling by feasible couplings.

    Minimizes, over all couplings with the prescribed marginals, the
    maximum over the test family of |ν(φ) - target(φ)|.  The test family
    is every {0, -1}-valued function on the product, which separates
    support patterns.

    The feasible set is the union of the tight-pattern boxes, and a box
    depends only on its fixed set F (the pinned cells with their values).
    Every pinned value equals its cell's cap min(row weight, column
    weight), so F ⊆ F′ implies box(F′) ⊆ box(F): the least gap over the
    union is the least gap over the inclusion-minimal fixed sets, and
    those are solved first.  Ties go to the first pattern, in the order
    of `tight_patterns`, whose box attains the least gap, as if every
    box were solved in that order.  So the distinct fixed sets are then
    walked in that order; a larger set's gap is at least that of every
    minimal set inside it, and it is solved only if none of those lies
    above the least gap.  (Tied boxes share their optimal coupling in
    exact arithmetic, but in floating point it can differ in the last
    place from box to box, so the rule shows in the output.)
    """
    prod = product_space(mu1.space, mu2.space)
    if target.space != prod:
        raise ValueError("target must live on the product of the marginal spaces")
    family = _indicator_values(prod)
    columns = list(zip(*family))
    targets = _integrals(target.weights, columns)
    caps = {
        (x, y): min(mu1.weight(x), mu2.weight(y))
        for (x, y) in prod.points
    }
    # per cell, one entry per test function: cap_c + φ_c, and the least t
    # at which the cell, left free, alone reaches target_φ
    A, shifted, thresholds = {}, {}, {}
    for c, column in zip(prod.points, columns):
        a = A[c] = min(map(operator.sub, targets, column))
        u = caps[c]
        if u == NEG_INF:
            continue
        shifted[c] = [u + v for v in column]
        sat = u - a
        thr = []
        for m, v in zip(targets, column):
            t1 = (m - a - v) / 2.0
            thr.append(t1 if t1 <= sat else (m - u - v))
        thresholds[c] = thr

    def solve(fixed):
        return _box_gap(dict(fixed), caps, A, targets, shifted, thresholds)

    # the distinct fixed sets, in the order of their first patterns
    boxes = {p.fixed: frozenset(p.fixed) for p in tight_patterns(mu1, mu2)}
    if not boxes:
        raise InfeasibleError("no feasible coupling for the given marginals")
    solved = {
        fixed: solve(fixed)
        for fixed, F in boxes.items()
        if not any(G < F for G in boxes.values())
    }
    gap = min(t for t, _ in solved.values())
    above = [boxes[fixed] for fixed, (t, _) in solved.items() if t > gap]
    for fixed, F in boxes.items():
        if fixed not in solved:
            if any(G < F for G in above):
                continue
            solved[fixed] = solve(fixed)
        if solved[fixed][0] == gap:
            table = solved[fixed][1]
            break

    coupling = IdempotentMeasure(prod, tuple(table[c] for c in prod.points))
    deviations = [abs(n - m) for n, m in zip(_integrals(coupling.weights, columns), targets)]
    witness = family[max(range(len(family)), key=deviations.__getitem__)]
    return GapResult(gap=gap, coupling=coupling, phi=FiniteFunction(prod, witness))


def counterexample_instance(
    l: float,
) -> tuple[IdempotentMeasure, IdempotentMeasure, IdempotentMeasure]:
    """The two-point instance whose marginal perturbations cannot be tracked.

    The target couples (x1,y1) and (x2,y2) with weight 0; the perturbed
    marginals tilt x1 and y2 down by 1/l.  l = inf gives the target's own
    marginals.
    """
    if l < 1:
        raise ValueError("l must be at least 1")
    X = FiniteSpace(("x1", "x2"))
    Y = FiniteSpace(("y1", "y2"))
    eps = as_weight(-1.0 / l)
    mu1 = IdempotentMeasure(X, (eps, 0.0))
    mu2 = IdempotentMeasure(Y, (0.0, eps))
    prod = product_space(X, Y)
    diagonal = (("x1", "y1"), ("x2", "y2"))
    target = IdempotentMeasure(
        prod,
        tuple(0.0 if p in diagonal else NEG_INF for p in prod.points),
    )
    return mu1, mu2, target


def counterexample_gap(l: float) -> float:
    """The exact approximation gap at the perturbed marginals; 1 for every finite l."""
    mu1, mu2, target = counterexample_instance(l)
    return coupling_gap(mu1, mu2, target).gap


@dataclass(frozen=True)
class CoverPair:
    """A pair U ⊆ V of subsets with a weight profile that is 0 on U and ≤ 0 on V."""

    U: frozenset[Label]
    V: frozenset[Label]
    alpha: Mapping[Label, float] | None = None

    def __post_init__(self) -> None:
        U = frozenset(self.U)
        V = frozenset(self.V)
        if not U:
            raise ValueError("U must be nonempty")
        if not U <= V:
            raise ValueError("U must be contained in V")
        given = dict(self.alpha) if self.alpha is not None else {}
        unknown = [k for k in given if k not in V]
        if unknown:
            raise ValueError(f"alpha defined outside V: {unknown!r}")
        alpha = {}
        for v in V:
            w = as_weight(given.get(v, 0.0))
            if w > 0.0:
                raise ValueError("alpha must be nonpositive")
            alpha[v] = w
        for u in U:
            if alpha[u] != 0.0:
                raise ValueError("alpha must be exactly 0 on U")
        object.__setattr__(self, "U", U)
        object.__setattr__(self, "V", V)
        object.__setattr__(self, "alpha", alpha)


@dataclass(frozen=True)
class MilyutinLevel:
    """One refinement stage: a list of cover pairs whose U-sets cover the base."""

    pairs: tuple[CoverPair, ...]

    def __post_init__(self) -> None:
        pairs = tuple(self.pairs)
        if not pairs:
            raise ValueError("a level needs at least one cover pair")
        object.__setattr__(self, "pairs", pairs)


def milyutin_build(
    Y: MetricSpace, levels: Sequence[MilyutinLevel], depth: int
) -> tuple[FiniteSpace, PointMap, dict[Label, IdempotentMeasure]]:
    """Build a fiber-product cover space with a measure-valued selection.

    Each level contributes one disjoint-union copy space of its V-sets;
    the domain X collects, per base point y, the tuples of copies whose
    V-sets contain y.  The selection s(y) is the tensor of the per-level
    fiber measures, so its support sits inside the fiber over y and its
    image is the Dirac measure at y.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    if len(levels) < depth:
        raise ValueError(f"need {depth} levels, got {len(levels)}")
    base = Y.space
    used = levels[:depth]
    for i, level in enumerate(used):
        for pair in level.pairs:
            base.require(pair.V, f"level {i}")
        covered = frozenset().union(*(pair.U for pair in level.pairs))
        if covered != frozenset(base.points):
            raise ValueError(f"level {i} does not cover the base space")

    # Point of X: (y, copy index at level 1, ..., copy index at level depth).
    # Its weight in s(y) is the sum of the copies' alpha at y, left to right;
    # the copies of U-sets around y weigh 0, so no fiber is empty.
    points: list[Label] = []
    own: list[float] = []
    for y in base.points:
        per_level = [
            [
                (str(k), pair.alpha[y])  # type: ignore[index]
                for k, pair in enumerate(level.pairs)
                if y in pair.V
            ]
            for level in used
        ]
        for combo in itertools.product(*per_level):
            points.append((y, *(k for k, _ in combo)))
            w = 0.0
            for _, a in combo:
                w = w + a
            own.append(w)

    X = FiniteSpace(tuple(points))
    f = PointMap(X, base, {p: p[0] for p in X.points})

    selection: dict[Label, IdempotentMeasure] = {}
    for y in base.points:
        s_y = IdempotentMeasure(X, tuple(w if p[0] == y else NEG_INF for p, w in zip(points, own)))
        if pushforward(f, s_y) != dirac(base, y):
            raise ValueError("selection failed to project to the point it covers")
        selection[y] = s_y
    return X, f, selection
