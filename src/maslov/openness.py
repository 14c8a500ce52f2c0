"""Openness constructions for the measure functor on finite spaces.

Three computational devices live here:

* sequence lifting through a finite surjection in closed form (on a
  finite space every surjection is open);
* lifting of couplings through a surjection applied to both coordinates,
  with the two characteristic identities proven exact on every float;
* the max-marginal coupling correspondence: feasibility, tight-pattern
  enumeration of the (non-convex) feasible set, and an exact best
  approximation gap, with its coupling and witness test function all in
  closed form, in a few passes over the cells whatever their number (the
  witness is one of two boxes), showing the correspondence admits no
  continuous selection at the canonical two-point instance;

together with a finite-depth Milyutin-style builder producing a
measure-valued selection supported inside fibers.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator, Mapping, Sequence

from .core import (
    NEG_INF,
    FiniteFunction,
    FiniteSpace,
    InfeasibleError,
    Label,
    MetricSpace,
    ProductSpace,
    _Value,
    _real,
    _require,
    as_weight,
    product_space,
)
from .functor import PointMap, pushforward
from .measures import IdempotentMeasure
from .monad import marginal


class CollapseMap(_Value):
    """A surjection collapsing exactly one pair of points; all other fibers are singletons."""

    __slots__ = ("map",)
    map: PointMap

    def __init__(self, map: PointMap) -> None:
        object.__setattr__(self, "map", map)
        self.__post_init__()

    def __post_init__(self) -> None:
        f = self.map
        if len(f.source) != len(f.target) + 1:
            raise ValueError("a collapse map drops exactly one point")
        if not f.is_surjective:
            raise ValueError("a collapse map must be surjective")


def _surjection(f: PointMap | CollapseMap) -> PointMap:
    """The map both lifts read, which must be onto: a `PointMap`, or the
    map of a `CollapseMap`, the one-doubled-fiber case callers may still wrap."""
    if isinstance(f, CollapseMap):
        f = f.map
    _require(f, PointMap, "a lifting map")
    if not f.is_surjective:
        raise ValueError("lift requires a surjective map")
    return f


def lift_open_surjection(
    f: PointMap, mu0: IdempotentMeasure, nu_seq: Sequence[IdempotentMeasure]
) -> list[IdempotentMeasure]:
    """Lift a sequence of target measures through a finite surjection, anchored at μ0.

    In each fiber of f, the first source point in source order with the
    largest μ0-weight tracks the image weight ν_k(f x) exactly; every other
    point x is clipped at its own μ0-weight, min(ν_k(f x), μ0(x)).  Every
    lift pushes forward to its ν_k exactly, and the lifts converge to μ0
    (atomwise in the exponential weight metric) whenever ν_k converges to
    the image of μ0.

    This is the closed form of a composite of collapse lifts.  Write f as
    the collapses that merge each point into the first point r of its
    fiber, one at a time in source order, followed by a relabelling
    bijection.  Lifting back through one collapse, the one of the two
    points with the larger anchor weight (r on a tie) keeps r's lifted
    weight, and the other is clipped at its anchor weight.  The anchor
    weight of r there is the largest μ0-weight among r and the points
    merged into it earlier, so the point never clipped is the first with
    the largest μ0-weight, and every other point x ends at
    min(ν_k(f x), μ0(x)).

    Built trusted, each weight being one of ν_k or of μ0: in the fiber over
    y the tracking point copies ν_k(y) and every other point is clipped to
    min(ν_k(y), μ0(x)) ≤ ν_k(y), so the fiber max is ν_k(y), and since f is
    onto, ν_k's 0 appears in the lift.
    """
    f = _surjection(f)
    _require(mu0, IdempotentMeasure, "an anchor measure")
    if mu0.space != f.source:
        raise ValueError("anchor measure does not live on the source")
    images = f._targets
    # per target index, the index of its fiber's tracking point
    tracking: dict[int, int] = {}
    for i, j in enumerate(images):
        if j not in tracking or mu0.weights[i] > mu0.weights[tracking[j]]:
            tracking[j] = i
    caps = list(mu0.weights)
    for i in tracking.values():
        caps[i] = math.inf  # never clipped

    lifts = []
    for nu_k in nu_seq:
        _require(nu_k, IdempotentMeasure, "a sequence measure")
        if nu_k.space != f.target:
            raise ValueError("sequence measures must live on the target")
        w = nu_k.weights
        weights = tuple(min(w[j], cap) for j, cap in zip(images, caps))
        lifts.append(IdempotentMeasure._trusted(f.source, weights))
    return lifts


lift_open_collapse = lift_open_surjection  # the name of its one-doubled-fiber case


def bicommutative_lift(
    f: PointMap, mu: IdempotentMeasure, nu: IdempotentMeasure
) -> IdempotentMeasure:
    """Lift a coupling through a finite surjection applied to both coordinates.

    Given μ on the source and a coupling ν on target × target whose first
    marginal equals the image of μ, produce ν' on source × source with

        first marginal of ν' = μ  and  (f × f) image of ν' = ν,

    via the row-capped pullback λ'(x, x') = min(μ(x), ν(f x, f x')).  Both
    identities are proven with max and min alone, so they are exact on
    every float.  min(a, ·) commutes with a max over a nonempty set, and as
    f is onto, every fiber is nonempty.  So the first marginal at x is
    min(μ(x), ν₁(f x)) = μ(x), since ν₁ = f_*μ is at least μ(x) at f x; the
    image at (y, y') is min(ν₁(y), ν(y, y')) = ν(y, y'), since ν₁(y) is the
    max of μ over the fiber of y and the row max of ν.  So the result is
    built trusted: its weights are weights of μ or ν, and its first
    marginal μ has a 0.
    """
    pm = _surjection(f)
    _require(mu, IdempotentMeasure, "a source measure")
    _require(nu, IdempotentMeasure, "a coupling")
    if mu.space != pm.source:
        raise ValueError("measure does not live on the source")
    if not isinstance(nu.space, ProductSpace) or nu.space.factors != (pm.target, pm.target):
        raise ValueError("coupling must live on target × target")
    if marginal(nu, 0) != pushforward(pm, mu):
        raise InfeasibleError("first marginal of the coupling differs from the image of mu")
    # ν's cell (i, j) sits at i*m + j, in row-major order
    m, t, w = len(pm.target), pm._targets, nu.weights
    weights = tuple(min(a, w[i * m + j]) for a, i in zip(mu.weights, t) for j in t)
    return IdempotentMeasure._trusted(product_space(pm.source, pm.source), weights)


def coupling_feasible(
    coupling: IdempotentMeasure, mu1: IdempotentMeasure, mu2: IdempotentMeasure
) -> bool:
    """Whether both marginals of a coupling match the prescribed measures exactly."""
    _require(coupling, IdempotentMeasure, "a coupling")
    _require(mu1, IdempotentMeasure, "a marginal")
    _require(mu2, IdempotentMeasure, "a marginal")
    sp = coupling.space
    if not isinstance(sp, ProductSpace) or len(sp.factors) != 2:
        raise ValueError("a coupling lives on a two-factor product space")
    if sp.factors != (mu1.space, mu2.space):
        raise ValueError("coupling factors differ from the marginal spaces")
    return marginal(coupling, 0) == mu1 and marginal(coupling, 1) == mu2


class TightPattern(_Value):
    """A choice, per finite row and column, of the cell attaining its max.

    Each pattern carves a box out of the feasible set: witness cells are
    pinned to the marginal weights, every other cell ranges below
    min(row weight, column weight).
    """

    __slots__ = ("rows", "cols", "fixed")
    rows: tuple[tuple[Label, Label], ...]
    cols: tuple[tuple[Label, Label], ...]
    fixed: tuple[tuple[tuple[Label, Label], float], ...]

    def __init__(
        self,
        rows: tuple[tuple[Label, Label], ...],
        cols: tuple[tuple[Label, Label], ...],
        fixed: tuple[tuple[tuple[Label, Label], float], ...],
    ) -> None:
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "fixed", fixed)


_PATTERN_CAP = 4  # points per side in tight_patterns


def tight_patterns(mu1: IdempotentMeasure, mu2: IdempotentMeasure) -> Iterator[TightPattern]:
    """Enumerate the tight patterns for two marginals.

    Each finite row x picks a column y with b[y] >= a[x], and each finite
    column y a row x with a[x] >= b[y].  A cell picked both ways has
    a[x] = b[y], so every choice is a pattern and every pinned value is
    its cell cap, read from `_caps`.  Rows, columns and pinned cells come
    in point order.
    """
    xs, ys = mu1.space.points, mu2.space.points
    if len(xs) > _PATTERN_CAP or len(ys) > _PATTERN_CAP:
        raise ValueError(f"tight-pattern enumeration is capped at {_PATTERN_CAP}x{_PATTERN_CAP}")
    cells = [(x, y) for x in xs for y in ys]
    caps = _caps(mu1, mu2)
    row_choices, col_choices = _admissible(mu1, mu2)
    col_picks = [
        (tuple((y, x) for x, y in map(cells.__getitem__, pick)), pick)
        for pick in itertools.product(*col_choices)
    ]
    for pick in itertools.product(*row_choices):
        rows = tuple(map(cells.__getitem__, pick))
        for cols, col_pick in col_picks:
            yield TightPattern(
                rows=rows,
                cols=cols,
                fixed=tuple((cells[k], caps[k]) for k in sorted({*pick, *col_pick})),
            )


def _caps(mu1: IdempotentMeasure, mu2: IdempotentMeasure) -> list[float]:
    """The cell caps min(a_x, b_y); cell k = i*m + j is (xs[i], ys[j]), in point order."""
    return [min(u, v) for u in mu1.weights for v in mu2.weights]


def _admissible(
    mu1: IdempotentMeasure, mu2: IdempotentMeasure
) -> tuple[list[list[int]], list[list[int]]]:
    """The admissible cells of each finite row (b_y ≥ a_x) and of each finite
    column (a_x ≥ b_y), as cell indices in point order, as in `_caps`."""
    a, b = mu1.weights, mu2.weights
    m = len(b)
    rows = [[i * m + j for j, v in enumerate(b) if v >= u] for i, u in enumerate(a) if u > NEG_INF]
    cols = [[i * m + j for i, u in enumerate(a) if u >= v] for j, v in enumerate(b) if v > NEG_INF]
    return rows, cols


def pattern_max_coupling(
    pattern: TightPattern, mu1: IdempotentMeasure, mu2: IdempotentMeasure
) -> IdempotentMeasure:
    """The largest coupling inside a pattern's box: every cell at its cap.

    Every pinned value is its cell's cap (see `tight_patterns`), so this is
    the cap coupling min(a_x, b_y) whatever the pattern.  Built trusted:
    each cap is a weight of μ1 or μ2, and the cell of their 0-atoms has cap 0.
    """
    _require(mu1, IdempotentMeasure, "a marginal")
    _require(mu2, IdempotentMeasure, "a marginal")
    return IdempotentMeasure._trusted(product_space(mu1.space, mu2.space), tuple(_caps(mu1, mu2)))


class GapResult(_Value):
    """The outcome of `coupling_gap`.

    `gap` is the least deviation max_φ |ν(φ) - target(φ)| over the feasible
    couplings ν and the {0, -1}-valued test functions φ, `coupling` a
    feasible coupling attaining it, and `phi` the first test function, in
    `itertools.product((0, -1), repeat=cells)` order, on which that
    coupling's deviation is largest.
    """

    __slots__ = ("gap", "coupling", "phi")
    gap: float
    coupling: IdempotentMeasure
    phi: FiniteFunction

    def __init__(self, gap: float, coupling: IdempotentMeasure, phi: FiniteFunction) -> None:
        object.__setattr__(self, "gap", gap)
        object.__setattr__(self, "coupling", coupling)
        object.__setattr__(self, "phi", phi)


def coupling_gap(
    mu1: IdempotentMeasure,
    mu2: IdempotentMeasure,
    target: IdempotentMeasure,
) -> GapResult:
    """Best approximation of a target coupling τ by feasible couplings.

    Minimizes, over the couplings ν with marginals a and b, the max over
    every {0, -1}-valued test function φ on the product of |ν(φ) - τ(φ)|.
    The least gap t* and the witness have closed forms, each computed in a
    few passes over the cells.

    1. Peak functions suffice.  Let φ_S be 0 on S and -1 off it.  ν has an
       atom of weight 0, and ν_c - 1 ≤ -1 at every cell, so ν(φ_S) =
       max(-1, max over c in S of u_c) with u_c = max(ν_c, -1), exactly in
       floats (rounding is monotone, x + 0 = x); likewise τ(φ_S) with
       A_c = max(τ_c, -1).  If the max in ν(φ_S) is reached at c in S, then
       ν(π_c) ≥ ν(φ_S) and τ(π_c) ≤ τ(φ_S) for the peak π_c = φ_{c};
       otherwise ν(φ_S) = -1 ≤ τ(φ_S).  Swap ν and τ for the other sign.
    2. The cellwise largest candidate.  Every coupling lies below
       cap_c = min(a_x, b_y), c = (x, y).  A coupling within t ≥ 0 of τ
       has A_c - t ≤ max(ν_c, -1) ≤ A_c + t, so it lies below
       ν(t) = min(cap, A + t), which keeps the upper bounds (A_c ≥ -1) and,
       being larger, the lower bounds and the row and column maxima.  So
       t* is the max of 0 and three kinds of monotone threshold:
       - min(A_c + 1, A_c - cap_c) at every cell c;
       - min over y with b_y ≥ a_x of (cap_c - A_c), per finite row x;
       - the same per finite column.

    Valid marginals have a weight-0 point, so each finite row and column
    has an admissible cell.  t* + A_c can round an ulp below cap_c where
    cap_c - A_c ≤ t*, so the first such cell of each finite row and column,
    in point order, is pinned at its cap, as in the first `tight_patterns`
    box attaining t*; every other cell gets min(cap_c, t* + A_c).

    The witness is the first maximizer in `itertools.product((0, -1))`
    order, with the coupling as ν.  By step 1 the largest deviation is
    D = max over c of |u_c - A_c|, and S attains it iff
    |max_S u - max_S A| = D (S empty gives 0).  If D = 0 every S attains
    it and the first, S = all cells, is the box below on either side.
    Otherwise say max_S u - max_S A = D.  Float subtraction is monotone,
    so the cell c giving max_S u has u_c - A_c = D: call such cells
    anchors, let X be the largest u over the anchors and Y the largest A
    over the cells with u ≤ X and X - A = D.  Every such S lies in the
    box B+ = {u ≤ X, A ≤ Y}: max_S u ≤ X, and for the cell d giving
    max_S A, either A_d ≤ A_a ≤ Y at the anchor a with u_a = X, or
    X - A_d lies between max_S u - A_d = D and X - A_a = D, so d counts
    towards Y.  B+ attains D itself.  Swapping u and A gives B- for the
    other sign.  In the product order a superset never comes later, so
    the first maximizer is whichever box has the lexicographically larger
    membership vector (φ = 0 exactly on it).
    """
    _require(mu1, IdempotentMeasure, "a marginal")
    _require(mu2, IdempotentMeasure, "a marginal")
    _require(target, IdempotentMeasure, "a target coupling")
    prod = product_space(mu1.space, mu2.space)
    if target.space != prod:
        raise ValueError("target must live on the product of the marginal spaces")
    caps = _caps(mu1, mu2)
    A = [max(w, -1.0) for w in target.weights]
    reach = [cap - a_c for cap, a_c in zip(caps, A)]  # the least t at which ν(t) reaches the cap
    rows, cols = _admissible(mu1, mu2)
    lines = rows + cols
    gap = max(0.0, *(min(reach[k] for k in line) for line in lines),
              *(min(a_c + 1.0, a_c - cap) for cap, a_c in zip(caps, A)))
    pinned = {next(k for k in line if reach[k] <= gap) for line in lines}
    coupling = IdempotentMeasure(prod, tuple(
        cap if k in pinned else min(cap, gap + a_c) for k, (cap, a_c) in enumerate(zip(caps, A))
    ))
    u = [max(w, -1.0) for w in coupling.weights]
    D = max(abs(u_c - a_c) for u_c, a_c in zip(u, A))
    S = max(_box(u, A, D), _box(A, u, D))
    phi = FiniteFunction(prod, tuple(0.0 if s else -1.0 for s in S))
    return GapResult(gap=gap, coupling=coupling, phi=phi)


def _box(x: list[float], y: list[float], D: float) -> list[bool]:
    """The membership of the box {x_c ≤ X, y_c ≤ Y}, the largest S with
    max_S x - max_S y == D (see `coupling_gap`); [] if no cell has x_c - y_c == D."""
    X = max((x_c for x_c, y_c in zip(x, y) if x_c - y_c == D), default=None)
    if X is None:
        return []
    Y = max(y_c for x_c, y_c in zip(x, y) if x_c <= X and X - y_c == D)
    return [x_c <= X and y_c <= Y for x_c, y_c in zip(x, y)]


def counterexample_instance(
    l: float,
) -> tuple[IdempotentMeasure, IdempotentMeasure, IdempotentMeasure]:
    """The two-point instance whose marginal perturbations cannot be tracked.

    The target couples (x1,y1) and (x2,y2) with weight 0; the perturbed
    marginals tilt x1 and y2 down by 1/l.  l = inf gives the target's own
    marginals.  l is read by `core._real`: one that is not a number is a
    TypeError in the words of its bound.
    """
    l = _real(l, "l must be at least 1")
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


class CoverPair(_Value):
    """A pair U ⊆ V of subsets with a weight profile that is 0 on U and ≤ 0 on V.

    The validated profile, one weight per point of V, is stored once as
    `_alpha`, which `milyutin_build` reads.  `alpha`, the field, is a
    view: a fresh copy of it on every read, so writing to it changes
    nothing.
    """

    __slots__ = ("U", "V", "_alpha")
    U: frozenset[Label]
    V: frozenset[Label]
    _alpha: dict[Label, float]

    def __init__(
        self, U: frozenset[Label], V: frozenset[Label], alpha: Mapping[Label, float] | None = None
    ) -> None:
        object.__setattr__(self, "U", U)
        object.__setattr__(self, "V", V)
        object.__setattr__(self, "_alpha", alpha)
        self.__post_init__()

    def __post_init__(self) -> None:
        U = frozenset(self.U)
        V = frozenset(self.V)
        if not U:
            raise ValueError("U must be nonempty")
        if not U <= V:
            raise ValueError("U must be contained in V")
        given = dict(self._alpha) if self._alpha is not None else {}
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
        object.__setattr__(self, "_alpha", alpha)

    @property
    def alpha(self) -> dict[Label, float]:
        return dict(self._alpha)


class MilyutinLevel(_Value):
    """One refinement stage: a list of cover pairs whose U-sets cover the base."""

    __slots__ = ("pairs",)
    pairs: tuple[CoverPair, ...]

    def __init__(self, pairs: tuple[CoverPair, ...]) -> None:
        object.__setattr__(self, "pairs", pairs)
        self.__post_init__()

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

    Each s(y) is built trusted.  The cover check puts y in a U-set at every
    level, and α is 0 on U, so the all-U copy over y weighs 0.0.  Every
    other weight over y is a sum of canonical nonpositive α: ≤ 0, and never
    NaN or -0.0.  Points off the fiber over y weigh -inf.
    """
    if isinstance(depth, bool) or not isinstance(depth, int) or depth < 1:
        raise ValueError("depth must be at least 1")
    if len(levels) < depth:
        raise ValueError(f"need {depth} levels, got {len(levels)}")
    base = Y.space
    used = levels[:depth]
    for i, level in enumerate(used):
        for pair in level.pairs:
            _require(pair, CoverPair, "a cover pair")
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
                (str(k), pair._alpha[y])
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
        weights = tuple(w if p[0] == y else NEG_INF for p, w in zip(points, own))
        selection[y] = IdempotentMeasure._trusted(X, weights)
    return X, f, selection
