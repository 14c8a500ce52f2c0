"""Max-plus scalars and finite ground spaces.

The scalar semiring is R ∪ {-inf} with ⊕ = max and ⊙ = +.  Weights are
ordinary 64-bit floats; -inf is the semiring zero and 0.0 the semiring
unit, so max/+ never round on dyadic inputs and algebraic identities can
be tested with exact equality.  +inf and NaN are rejected at every
construction boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable, Iterator, Mapping, Sequence, Union

# numpy is imported inside the array kernels (MetricSpace validation and
# metric_closure), so a process that builds no metric space never loads it.
if TYPE_CHECKING:
    import numpy as np

NEG_INF = float("-inf")

# Point labels are strings, or tuples of labels on product-like spaces.
Label = Union[str, tuple]

_REQUIRED: Any = object()  # dense(): a point the table leaves out is an error


def as_weight(value: float) -> float:
    """Validate a max-plus weight: a finite real or -inf, never NaN or +inf."""
    w = float(value)
    if math.isnan(w):
        raise ValueError("NaN is not a max-plus weight")
    if w == math.inf:
        raise ValueError("+inf is not a max-plus weight")
    if w == 0.0:
        return 0.0  # canonicalize -0.0
    return w


def as_value(value: float) -> float:
    """Validate a test-function value: finite real (no infinities at all)."""
    v = float(value)
    if not math.isfinite(v):
        raise ValueError(f"function values must be finite, got {v!r}")
    if v == 0.0:
        return 0.0
    return v


def oplus(a: float, b: float) -> float:
    """Semiring addition: max, with -inf as the neutral element."""
    return max(as_weight(a), as_weight(b))


def odot(a: float, b: float) -> float:
    """Semiring multiplication: +, with -inf absorbing and 0.0 neutral."""
    return as_weight(as_weight(a) + as_weight(b))


def weight_distance(a: float, b: float) -> float:
    """The exponential-scale metric |e^a - e^b| on weights, with e^-inf = 0."""
    return abs(math.exp(as_weight(a)) - math.exp(as_weight(b)))


def _check_label(label: Label) -> None:
    if isinstance(label, str):
        return
    if isinstance(label, tuple) and label:
        for part in label:
            _check_label(part)
        return
    raise ValueError(f"labels must be strings or nonempty tuples of labels, got {label!r}")


@dataclass(frozen=True)
class FiniteSpace:
    """A finite set of distinct point labels; the declared order is canonical.

    Every table in the library (measure atoms, function values, metric rows)
    is kept in this order, which makes equality checks exact and serialized
    output deterministic.
    """

    points: tuple[Label, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.points, tuple):
            object.__setattr__(self, "points", tuple(self.points))
        if not self.points:
            raise ValueError("a finite space needs at least one point")
        for p in self.points:
            _check_label(p)
        if len(set(self.points)) != len(self.points):
            raise ValueError("point labels must be pairwise distinct")
        object.__setattr__(self, "_index", {p: i for i, p in enumerate(self.points)})

    def require(self, labels: Iterable[Label], what: str) -> None:
        """Reject labels outside the space, listed in input order."""
        outside = [p for p in labels if p not in self._index]  # type: ignore[attr-defined]
        if outside:
            raise ValueError(f"{what}: points outside the space {outside!r}")

    def subset(self, labels: Iterable[Label], what: str) -> frozenset[Label]:
        """The labels as a set of points; a label outside the space is an error."""
        labels = tuple(labels)
        self.require(labels, what)
        return frozenset(labels)

    def dense(self, table: Mapping[Label, Any], what: str, default: Any = _REQUIRED) -> tuple:
        """The entries of a label-keyed table as a tuple in canonical point order.

        A key outside the space is an error.  A point the table leaves out
        gets `default`, or is an error when no default is given.
        """
        if default is _REQUIRED:
            try:
                values = tuple(map(table.__getitem__, self.points))
                if len(table) == len(values):  # every point found and no other key
                    return values
            except KeyError:
                pass
        self.require(table, what)
        if default is _REQUIRED:
            missing = [p for p in self.points if p not in table]
            raise ValueError(f"{what}: no entry for points {missing!r}")
        return tuple(table.get(p, default) for p in self.points)

    def index(self, label: Label) -> int:
        try:
            return self._index[label]  # type: ignore[attr-defined]
        except KeyError:
            raise ValueError(f"unknown point {label!r}") from None

    def __contains__(self, label: Label) -> bool:
        return label in self._index  # type: ignore[attr-defined]

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self) -> Iterator[Label]:
        return iter(self.points)


@dataclass(frozen=True)
class ProductSpace(FiniteSpace):
    """A product of finite spaces; points are tuples, row-major in factor order.

    The points are derived from the factors, never passed in, so they are
    always the full cartesian product.  Labels and distinctness follow from
    the validated factors and are not checked again, and equality and
    hashing go through the factors alone.
    """

    points: tuple[Label, ...] = field(init=False, compare=False)
    factors: tuple[FiniteSpace, ...]

    def __post_init__(self) -> None:
        factors = tuple(self.factors)
        if len(factors) < 2:
            raise ValueError("a product needs at least two factors")
        if not all(isinstance(f, FiniteSpace) for f in factors):
            raise ValueError("the factors of a product must be finite spaces")
        points: list[Label] = [()]
        for f in factors:
            points = [(*p, q) for p in points for q in f.points]
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "points", tuple(points))
        object.__setattr__(self, "_index", {p: i for i, p in enumerate(points)})

    def axis(self, k: int) -> FiniteSpace:
        if not 0 <= k < len(self.factors):
            raise ValueError(f"axis {k} out of range for {len(self.factors)} factors")
        return self.factors[k]


def product_space(*factors: FiniteSpace) -> ProductSpace:
    """The full cartesian product with row-major canonical point order."""
    return ProductSpace(factors)


def _atomic_factors(space: FiniteSpace) -> tuple[FiniteSpace, ...]:
    if isinstance(space, ProductSpace):
        out: tuple[FiniteSpace, ...] = ()
        for f in space.factors:
            out = out + _atomic_factors(f)
        return out
    return (space,)


def flatten_space(space: ProductSpace) -> tuple[ProductSpace, dict[Label, Label]]:
    """Collapse nested product structure: ((x,y),z) points become (x,y,z).

    Returns the flat product over the atomic factors and the relabeling
    table realizing the canonical identification.  Both products are
    row-major over the same atomic factors, so the identification keeps
    the point order.
    """
    flat = product_space(*_atomic_factors(space))
    return flat, dict(zip(space.points, flat.points))


@dataclass(frozen=True)
class FiniteFunction:
    """A real-valued function on a finite space (an element of C(X)).

    Values are always finite; only measure weights may be -inf.
    """

    space: FiniteSpace
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        vals = tuple(as_value(v) for v in self.values)
        if len(vals) != len(self.space):
            raise ValueError("one value per point required")
        object.__setattr__(self, "values", vals)

    @classmethod
    def from_mapping(cls, space: FiniteSpace, table: Mapping[Label, float]) -> "FiniteFunction":
        """A function from a table naming every point of the space once."""
        return cls(space, space.dense(table, "values"))

    @classmethod
    def constant(cls, space: FiniteSpace, c: float) -> "FiniteFunction":
        return cls(space, (float(c),) * len(space))

    def __call__(self, label: Label) -> float:
        return self.values[self.space.index(label)]

    def shift(self, c: float) -> "FiniteFunction":
        """c ⊙ φ: add the constant c to every value."""
        return FiniteFunction(self.space, tuple(v + c for v in self.values))


def pointwise_max(phi: FiniteFunction, psi: FiniteFunction) -> FiniteFunction:
    """φ ⊕ ψ, the pointwise maximum of two functions on one space."""
    if phi.space != psi.space:
        raise ValueError("functions live on different spaces")
    return FiniteFunction(phi.space, tuple(map(max, phi.values, psi.values)))


@dataclass(frozen=True)
class MetricSpace:
    """A finite space with a genuine metric, stored as a dense table.

    `dist` is the public tuple table.  The validated float64 array behind it
    is kept private and read-only for the kernels; `matrix` returns a
    writable copy.
    """

    space: FiniteSpace
    dist: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        import numpy as np

        n = len(self.space)
        rows = [tuple(r) for r in self.dist]
        if len(rows) != n or any(len(r) != n for r in rows):
            raise ValueError("distance table must be square over the space")
        d = np.array(rows, dtype=float)
        if d.shape != (n, n):
            raise TypeError("distances must be numbers")
        # The first defect in row-major (i, j) order decides the message,
        # with the diagonal checked first in each row.
        bad_diag = np.diagonal(d) != 0.0
        bad_range = ~np.isfinite(d) | (d < 0.0)
        bad_sym = d != d.T
        bad_zero = (d == 0.0) & ~np.eye(n, dtype=bool)
        bad_rows = bad_diag | (bad_range | bad_sym | bad_zero).any(axis=1)
        if bad_rows.any():
            i = int(np.argmax(bad_rows))
            if bad_diag[i]:
                raise ValueError("distance from a point to itself must be 0")
            j = int(np.argmax(bad_range[i] | bad_sym[i] | bad_zero[i]))
            if bad_range[i, j]:
                raise ValueError("distances must be finite and nonnegative")
            if bad_sym[i, j]:
                raise ValueError("distance table must be symmetric")
            raise ValueError("distinct points must be at positive distance")
        for k in range(n):
            if (d > d[:, k, None] + d[None, k, :]).any():
                raise ValueError(
                    "triangle inequality fails; run metric_closure on the raw table"
                )
        d.flags.writeable = False
        object.__setattr__(self, "_table", d)
        object.__setattr__(self, "dist", tuple(map(tuple, d.tolist())))

    @property
    def matrix(self) -> np.ndarray:
        return self._table.copy()  # type: ignore[attr-defined]

    def d(self, x: Label, y: Label) -> float:
        return self.dist[self.space.index(x)][self.space.index(y)]

    @property
    def diameter(self) -> float:
        return max(max(row) for row in self.dist)


def metric_closure(space: FiniteSpace, raw: Sequence[Sequence[float]] | np.ndarray) -> MetricSpace:
    """Shortest-path closure: the largest metric dominated by a raw dissimilarity.

    The raw table must be symmetric, zero on the diagonal and positive off
    it; the closure is idempotent on tables that already satisfy the
    triangle inequality.
    """
    import numpy as np

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
    # Floyd-Warshall; row and column k do not change in step k, so one
    # array step per k makes the same comparisons as the in-place loop.
    for k in range(n):
        d = np.minimum(d, d[:, k, None] + d[None, k, :])
    return MetricSpace(space, d.tolist())


def space(labels: Iterable[str]) -> FiniteSpace:
    """Shorthand constructor: space("abc") or space(["a", "b"])."""
    return FiniteSpace(tuple(labels))
