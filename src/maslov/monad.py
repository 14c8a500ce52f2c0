"""The measure-of-measures level: mixing, tensor products and marginals.

An OuterMeasure is a finitely-supported measure whose atoms are themselves
measures on a common base space.  The multiplication collapses it into a
base measure by max-plus mixing and satisfies multiply(M)(φ) = M(φ̄),
where φ̄ evaluates a measure against φ.  The hyperspace of nonempty
subsets and [0,1]-graded fuzzy sets both embed into measures compatibly
with this structure.
"""

from __future__ import annotations

import math
import sys
from typing import TYPE_CHECKING, Any, Iterable, Mapping, Sequence

from .core import (
    NEG_INF,
    FiniteFunction,
    FiniteSpace,
    Label,
    ProductSpace,
    _Value,
    _as_weights,
    _atomic_factors,
    _floats,
    _require,
    _tuple,
    combine,
    product_space,
)
from .functor import PointMap, pushforward
from .measures import IdempotentMeasure, _ArrayMeasure, dirac, integrate

if TYPE_CHECKING:
    import numpy as np

# The smallest table on which the array kernels use numpy, if numpy is
# loaded: a `multiply` base of this many points, a `tensor_many` product of
# this many cells.  `multiply`'s array path has a fixed cost per row, so
# its crossover is a row length, not a table size: on a 2-vCPU Xeon with
# numpy 2.4 the loop is faster below 64 points and the arrays from 96
# points on, for 1 to 100 rows alike.  On the same machine a bare two-factor
# `tensor` is slower on arrays at 8×16 cells (9.1 → 12.5 µs), breaks even
# between 20×20 and 32×32, and is faster at 64×64 (106 → 89 µs); a tensor
# followed by both marginals, which reduce its cached array, is faster on
# arrays at every size from 128 cells on (8×16: 24.3 → 20.5 µs).
_ARRAY_POINTS = 128


class OuterMeasure(_Value):
    """A normalized weight table over a finite list of measures on one base.

    Inner measures are stored by position; duplicates are allowed and get
    merged by max during multiplication.  The invariant on `weights` is
    that of `IdempotentMeasure`, and every inner measure is an
    `IdempotentMeasure` on `base`.  A function that builds one from
    validated measures and weights builds with `_trusted` (`outer_dirac`,
    `dirac_lift`, `map_outer`).
    """

    __slots__ = ("base", "inner", "weights")
    base: FiniteSpace
    inner: tuple[IdempotentMeasure, ...]
    weights: tuple[float, ...]

    def __init__(
        self, base: FiniteSpace, inner: tuple[IdempotentMeasure, ...], weights: tuple[float, ...]
    ) -> None:
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "inner", inner)
        object.__setattr__(self, "weights", weights)
        self.__post_init__()

    def __post_init__(self) -> None:
        _require(self.base, FiniteSpace, "an outer measure's base")
        inner = _tuple(self.inner, "inner components must be a sequence of measures, got {!r}")
        w = _as_weights(self.weights)
        if not inner:
            raise ValueError("an outer measure needs at least one component")
        shared = True
        for m in inner:
            _require(m, IdempotentMeasure, "an inner component")
            shared = shared and m.space == self.base
        if len(w) != len(inner):
            raise ValueError("one weight per inner measure required")
        if not shared:
            raise ValueError("inner measures must share the base space")
        if max(w) != 0.0:
            raise ValueError("outer measure is not normalized: maximum weight must be 0")
        object.__setattr__(self, "inner", inner)
        object.__setattr__(self, "weights", w)


def outer_eval(M: OuterMeasure, phi: FiniteFunction) -> float:
    """M(φ̄): the outer measure applied to the evaluation functional of φ."""
    return max(
        lam + integrate(m, phi)
        for lam, m in zip(M.weights, M.inner)
        if lam > NEG_INF
    )


def multiply(M: OuterMeasure) -> IdempotentMeasure:
    """The monad multiplication: max-plus mixture of the inner measures.

    weight(x) = max_i (outer weight i + inner_i weight at x); the result
    satisfies multiply(M)(φ) = M(φ̄) for every φ.

    On a base of at least `_ARRAY_POINTS` points, and only when numpy is
    already loaded, each inner measure of finite outer weight is mixed in
    as a numpy array, its `_array` cache, which the first array kernel to
    read it fills, so a later call converts no inner measure again; the
    mixture keeps its array as its own cache and builds its `weights`
    tuple from it on the first read (`_from_array`).  Otherwise `combine`
    mixes them.  numpy is never imported here, so small-n callers never
    pay for its import.  The two paths agree bit for bit: both take each sum
    c_i + w_ik with one IEEE addition and keep the largest.  They could
    differ only on a tie of 0.0 with -0.0, where `combine` keeps the
    first maximal term and `np.maximum` returns its second operand, and
    no such tie arises: every weight is canonical (`as_weight` maps -0.0
    to 0.0), and a sum or max of weights that are not -0.0 is never -0.0.
    """
    if not isinstance(M, OuterMeasure):
        raise TypeError(f"multiply needs an OuterMeasure, got {M.__class__.__name__}")
    n = len(M.base)
    if n < _ARRAY_POINTS or "numpy" not in sys.modules:
        return IdempotentMeasure._trusted(M.base, combine(M.weights, (m.weights for m in M.inner)))
    np = sys.modules["numpy"]
    acc = np.full(n, NEG_INF)
    row = np.empty(n)
    with np.errstate(over="ignore"):  # a sum past -max is -inf, as in the loop
        for c, m in zip(M.weights, M.inner):
            if c > NEG_INF:
                np.add(_weight_array(m, np), c, out=row)
                np.maximum(acc, row, out=acc)
    return _from_array(M.base, acc)


def _cache(mu: IdempotentMeasure) -> np.ndarray | None:
    """μ's `_array` cache, or None.  Only a table of at least
    `_ARRAY_POINTS` entries ever has one, so a smaller table is not looked
    up: reading an empty slot raises and catches an AttributeError.  The
    size is read from the space, so an array-built μ keeps its `weights`
    slot empty."""
    return getattr(mu, "_array", None) if len(mu.space) >= _ARRAY_POINTS else None


def _weight_array(mu: IdempotentMeasure, np: Any) -> np.ndarray:
    """μ's weights as a float64 array: its `_array` cache, filled here on
    first use when μ has at least `_ARRAY_POINTS` entries, so a later array
    kernel reads the same array; a smaller table gets a fresh array each
    time.  Two threads filling one cache at once store equal read-only
    arrays, and a slot store is atomic."""
    arr = _cache(mu)
    if arr is None:
        arr = np.fromiter(mu.weights, float, len(mu.weights))
        if len(arr) >= _ARRAY_POINTS:
            arr.flags.writeable = False
            object.__setattr__(mu, "_array", arr)
    return arr


def _from_array(space: FiniteSpace, arr: np.ndarray) -> IdempotentMeasure:
    """The measure whose weights are the array built by an array kernel.

    The array, made read-only, is kept as its cache, and the `weights`
    slot is left empty: the first read of `weights` builds the tuple from
    the array (`measures._ArrayMeasure`), so a kernel that reads only the
    cache, as `marginal` does, never builds it."""
    arr.flags.writeable = False
    mu = object.__new__(_ArrayMeasure)
    object.__setattr__(mu, "space", space)
    object.__setattr__(mu, "_array", arr)
    return mu


def outer_dirac(mu: IdempotentMeasure) -> OuterMeasure:
    """The Dirac outer measure concentrated at μ (the unit one level up).

    Built trusted: one measure on its own space, with weight 0.
    """
    _require(mu, IdempotentMeasure, "an inner component")
    return OuterMeasure._trusted(mu.space, (mu,), (0.0,))


def dirac_lift(mu: IdempotentMeasure) -> OuterMeasure:
    """The image of μ under the pointwise Dirac embedding of its base.

    Atoms are the Dirac measures at the support points of μ, carrying μ's
    weights; multiplying this back recovers μ.  Built trusted: the weights
    are μ's finite weights, among them its 0.
    """
    _require(mu, IdempotentMeasure, "an inner component")
    pairs = [
        (w, dirac(mu.space, p))
        for p, w in zip(mu.space.points, mu.weights)
        if w > NEG_INF
    ]
    return OuterMeasure._trusted(mu.space, tuple(m for _, m in pairs), tuple(w for w, _ in pairs))


def map_outer(f: PointMap, M: OuterMeasure) -> OuterMeasure:
    """Apply a point map at both levels: pushforward every inner measure.

    Built trusted: M's weights, and measures on the target of f.
    """
    _require(f, PointMap, "a map of outer measures")
    _require(M, OuterMeasure, "a mapped outer measure")
    if M.base != f.source:
        raise ValueError("outer measure does not live over the source of the map")
    return OuterMeasure._trusted(f.target, tuple(pushforward(f, m) for m in M.inner), M.weights)


def tensor(mu: IdempotentMeasure, nu: IdempotentMeasure) -> IdempotentMeasure:
    """The sum-weight coupling on the product: weight(x,y) = μ(x) + ν(y)."""
    return tensor_many([mu, nu])


def tensor_many(measures: Sequence[IdempotentMeasure]) -> IdempotentMeasure:
    """Left-associated tensor over a flat product of all the factors.

    weight(x_1, ..., x_k) = (...(w_1 + w_2) + ...) + w_k, in the row-major
    order of the product.  On a product of at least `_ARRAY_POINTS`
    cells, and only when numpy is already loaded, the sums are taken by
    `np.add.outer` over the factors' arrays (their `_array` caches, filled
    here for a factor of at least `_ARRAY_POINTS` points that has none),
    and the product keeps its flattened array as its cache and builds its
    `weights` tuple from it on the first read (`_from_array`); otherwise a
    loop over the weight tuples sums them.  The two paths agree bit for
    bit, by the argument of `multiply`: each cell is the same IEEE
    additions in the same order, the loop's start from 0.0 changing
    nothing since 0.0 + w = w for every weight w, which is never -0.0.  A
    sum past -max is -inf on both paths.
    """
    if len(measures) < 2:
        raise ValueError("tensor_many needs at least two measures")
    for m in measures:
        _require(m, IdempotentMeasure, "a tensor factor")
    prod = product_space(*(m.space for m in measures))
    if len(prod) < _ARRAY_POINTS or "numpy" not in sys.modules:
        weights = [0.0]
        for m in measures:
            weights = [w + v for w in weights for v in m.weights]
        return IdempotentMeasure._trusted(prod, tuple(weights))
    np = sys.modules["numpy"]
    first, *rest = measures
    arr = _weight_array(first, np)
    with np.errstate(over="ignore"):
        for m in rest:
            arr = np.add.outer(arr, _weight_array(m, np)).ravel()
    return _from_array(prod, arr)


def marginal(mu: IdempotentMeasure, axis: int) -> IdempotentMeasure:
    """Max over the complementary fibers; equals the pushforward along projection.

    Row-major order makes the fiber of a coordinate a set of strided runs:
    first reduce each run over the later axes, then stride over the earlier.
    A measure with an `_array` cache is reduced as that array, shaped as
    (earlier cells, axis, later cells), by one `max` over the outer two
    axes.  A max is exact and independent of order save for NaN or a tie
    of 0.0 with -0.0, and no weight is either, so both give the same bits.
    """
    _require(mu, IdempotentMeasure, "a marginal's argument")
    if not isinstance(mu.space, ProductSpace):
        raise ValueError("marginals require a measure on a declared product space")
    fac = mu.space.axis(axis)
    run = math.prod(len(f) for f in mu.space.factors[axis + 1:])
    m = len(fac)
    arr = _cache(mu)
    if arr is not None:
        w = arr.reshape(-1, m, run).max(axis=(0, 2))
        return IdempotentMeasure._trusted(fac, tuple(w.tolist()))
    w = mu.weights
    if run > 1:
        w = tuple(max(w[s:s + run]) for s in range(0, len(w), run))
    return IdempotentMeasure._trusted(fac, tuple(max(w[c::m]) for c in range(m)))


def flatten_measure(mu: IdempotentMeasure) -> IdempotentMeasure:
    """Transport μ along the canonical identification ((x,y),z) = (x,y,z).

    The nested and the flat product list their points in the same
    row-major order, so the weights carry over unchanged.  A measure with
    an `_array` cache passes that array on, and its image builds its
    `weights` tuple from it on the first read (`_from_array`), so a
    measure whose tuple is not built yet does not build it here.
    """
    _require(mu, IdempotentMeasure, "a flattened measure")
    if not isinstance(mu.space, ProductSpace):
        raise ValueError("only measures on product spaces can be flattened")
    flat = product_space(*_atomic_factors(mu.space))
    arr = _cache(mu)
    if arr is None:
        return IdempotentMeasure._trusted(flat, mu.weights)
    return _from_array(flat, arr)


class ClosedSet(_Value):
    """A nonempty subset of a finite space."""

    __slots__ = ("space", "members")
    space: FiniteSpace
    members: frozenset[Label]

    def __init__(self, space: FiniteSpace, members: frozenset[Label]) -> None:
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "members", members)
        self.__post_init__()

    def __post_init__(self) -> None:
        _require(self.space, FiniteSpace, "a closed set's space")
        members = self.space.subset(self.members, "closed set")
        if not members:
            raise ValueError("closed sets are nonempty")
        object.__setattr__(self, "members", members)


def hyperspace_embed(A: ClosedSet) -> IdempotentMeasure:
    """The uniform measure on a set: weight 0 on members, -inf elsewhere.

    Integration against it returns the maximum of the test function over
    the set, so the embedding is injective.  Built trusted: a closed set
    is nonempty, so some weight is 0.
    """
    _require(A, ClosedSet, "an embedded set")
    return IdempotentMeasure._trusted(
        A.space,
        tuple(0.0 if p in A.members else NEG_INF for p in A.space.points),
    )


def hyperspace_union(family: Iterable[ClosedSet]) -> ClosedSet:
    """The union of a nonempty family of sets on one space."""
    fam = list(family)
    if not fam:
        raise ValueError("union of an empty family")
    sp = fam[0].space
    if any(A.space != sp for A in fam):
        raise ValueError("sets live on different spaces")
    return ClosedSet(sp, frozenset().union(*(A.members for A in fam)))


def hyperspace_square(family: Sequence[ClosedSet]) -> tuple[IdempotentMeasure, IdempotentMeasure]:
    """Both composites of the set-family square, for exact comparison.

    Left: embed every member set, mix the resulting measure family.
    Right: embed the union.  The two agree exactly for every family.
    """
    fam = list(family)
    union = hyperspace_union(fam)
    M = OuterMeasure(
        union.space,
        tuple(hyperspace_embed(A) for A in fam),
        (0.0,) * len(fam),
    )
    return multiply(M), hyperspace_embed(union)


class FuzzySet(_Value):
    """A [0,1]-graded membership function attaining the grade 1 somewhere."""

    __slots__ = ("space", "grades")
    space: FiniteSpace
    grades: tuple[float, ...]

    def __init__(self, space: FiniteSpace, grades: tuple[float, ...]) -> None:
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "grades", grades)
        self.__post_init__()

    def __post_init__(self) -> None:
        _require(self.space, FiniteSpace, "a fuzzy set's space")
        g = _floats(self.grades, "grades must be numbers")
        if len(g) != len(self.space):
            raise ValueError("one grade per point required")
        if any(math.isnan(v) or v < 0.0 or v > 1.0 for v in g):
            raise ValueError("grades must lie in [0, 1]")
        if max(g) != 1.0:
            raise ValueError("some point must have grade exactly 1")
        object.__setattr__(self, "grades", g)

    @classmethod
    def from_mapping(cls, space: FiniteSpace, table: Mapping[Label, float]) -> "FuzzySet":
        """A fuzzy set from a grade table; points it leaves out get grade 0."""
        return cls(space, space.dense(table, "grades", default=0.0))


def fuzzy_embed(chi: FuzzySet) -> IdempotentMeasure:
    """Log-scale embedding of a fuzzy set: weight(x) = ln grade(x), ln 0 = -inf.

    The maximal grade 1 maps to weight 0, so the result is normalized, and
    integration realizes sup_x (φ(x) + ln χ(x)).  Built trusted: ln maps
    (0, 1) into (-inf, 0), never to 0, and 1 to 0.0.
    """
    _require(chi, FuzzySet, "an embedded fuzzy set")
    return IdempotentMeasure._trusted(
        chi.space,
        tuple(math.log(g) if g > 0.0 else NEG_INF for g in chi.grades),
    )
