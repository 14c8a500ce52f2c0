"""Max-plus scalars and finite ground spaces.

The scalar semiring is R ∪ {-inf} with ⊕ = max and ⊙ = +.  Weights are
ordinary 64-bit floats; -inf is the semiring zero and 0.0 the semiring
unit, so max/+ never round on dyadic inputs and algebraic identities can
be tested with exact equality.  +inf and NaN are rejected at every
construction boundary.
"""

from __future__ import annotations

import copyreg
import math
import sys
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Mapping, Sequence, Union

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


def combine(
    coefficients: Iterable[float], vectors: Iterable[Sequence[float]]
) -> tuple[float, ...]:
    """The max-plus linear combination ⊕_i c_i ⊙ v_i of equal-length vectors:
    entry k is the max of c_i + v_i[k] over the finite c_i, -inf if none is."""
    vectors = tuple(vectors)
    out = [NEG_INF] * (len(vectors[0]) if vectors else 0)
    for c, v in zip(coefficients, vectors):
        if c == NEG_INF:
            continue
        for k, x in enumerate(v):
            s = c + x
            if s > out[k]:
                out[k] = s
    return tuple(out)


def weight_distance(a: float, b: float) -> float:
    """The exponential-scale metric |e^a - e^b| on weights, with e^-inf = 0."""
    return abs(math.exp(as_weight(a)) - math.exp(as_weight(b)))


class FrozenInstanceError(AttributeError):
    """An assignment to, or deletion of, an attribute of a value class."""


class _Value:
    """The base of the immutable value classes.

    A subclass names its fields in `__slots__` and writes out its own
    `__init__`, `__eq__`, `__hash__` and `__repr__`.  `__init__` sets the
    fields with `object.__setattr__` and then calls `__post_init__`, where
    the class validates and normalizes them; `__eq__` compares the tuples
    of compared fields of two instances of the same class, and `__hash__`
    hashes that tuple.  After `__init__` every assignment or deletion
    raises `FrozenInstanceError`.  Copy and pickle rebuild an instance from
    its filled slots without calling `__init__` again.
    """

    __slots__ = ()

    def __setattr__(self, name: str, value: Any) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        cls = type(self)
        state = {}
        for klass in cls.__mro__:
            for name in vars(klass).get("__slots__", ()):
                try:
                    state[name] = object.__getattribute__(self, name)
                except AttributeError:  # not filled yet, as a product's points
                    pass
        return copyreg.__newobj__, (cls,), state

    def __setstate__(self, state: dict[str, Any]) -> None:
        for name, value in state.items():
            object.__setattr__(self, name, value)


def _check_label(label: Label) -> None:
    if isinstance(label, str):
        return
    if isinstance(label, tuple) and label:
        for part in label:
            _check_label(part)
        return
    raise ValueError(f"labels must be strings or nonempty tuples of labels, got {label!r}")


class FiniteSpace(_Value):
    """A finite set of distinct point labels; the declared order is canonical.

    Every table in the library (measure atoms, function values, metric rows)
    is kept in this order, which makes equality checks exact and serialized
    output deterministic.  The label-to-index table `_index` is built once,
    at construction, and doubles as the distinctness check.
    """

    __slots__ = ("points", "_index")
    points: tuple[Label, ...]
    _index: dict[Label, int]

    def __init__(self, points: tuple[Label, ...]) -> None:
        object.__setattr__(self, "points", points)
        self.__post_init__()

    def __post_init__(self) -> None:
        if not isinstance(self.points, tuple):
            object.__setattr__(self, "points", tuple(self.points))
        if not self.points:
            raise ValueError("a finite space needs at least one point")
        for p in self.points:
            _check_label(p)
        index = {p: i for i, p in enumerate(self.points)}
        if len(index) != len(self.points):
            raise ValueError("point labels must be pairwise distinct")
        object.__setattr__(self, "_index", index)

    def __eq__(self, other: Any) -> bool:
        if other.__class__ is self.__class__:
            return (self.points,) == (other.points,)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.points,))

    def __repr__(self) -> str:
        return f"FiniteSpace(points={self.points!r})"

    @property
    def _lookup(self) -> Callable[[Label], int | None]:
        """Label -> index, None for a label that is not a point."""
        return self._index.get

    def require(self, labels: Iterable[Label], what: str) -> None:
        """Reject labels outside the space, listed in input order."""
        outside = [p for p in labels if p not in self]
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
            return self._index[label]
        except KeyError:
            raise ValueError(f"unknown point {label!r}") from None

    def __contains__(self, label: Label) -> bool:
        return label in self._index

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self) -> Iterator[Label]:
        return iter(self.points)


class ProductSpace(FiniteSpace):
    """A product of finite spaces; points are tuples, row-major in factor order.

    The points are derived from the factors, never passed in, so they are
    always the full cartesian product.  Labels and distinctness follow from
    the validated factors and are not checked again, and equality and
    hashing go through the factors alone.

    Nothing is built per point at construction.  The size is the product
    of the factor sizes; the index of a label is row-major arithmetic over
    the indices of its coordinates in their factors (recursively for nested
    products), so no label-to-index table exists.  The `points` tuple is
    built on its first read and kept.
    """

    __slots__ = ("factors", "_size", "_axes")
    factors: tuple[FiniteSpace, ...]
    _size: int
    _axes: tuple[tuple[Callable[[Label], int | None], int], ...]

    def __init__(self, factors: tuple[FiniteSpace, ...]) -> None:
        object.__setattr__(self, "factors", factors)
        self.__post_init__()

    def __post_init__(self) -> None:
        factors = tuple(self.factors)
        if len(factors) < 2:
            raise ValueError("a product needs at least two factors")
        if not all(isinstance(f, FiniteSpace) for f in factors):
            raise ValueError("the factors of a product must be finite spaces")
        shape = tuple(map(len, factors))
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "_size", math.prod(shape))
        # per factor: coordinate -> index in the factor (None if absent), size
        object.__setattr__(self, "_axes", tuple(zip((f._lookup for f in factors), shape)))

    def __eq__(self, other: Any) -> bool:
        if other.__class__ is self.__class__:
            return (self.factors,) == (other.factors,)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.factors,))

    def __repr__(self) -> str:
        return f"ProductSpace(points={self.points!r}, factors={self.factors!r})"

    def __getattr__(self, name: str) -> Any:
        # Runs only for attributes that are not found otherwise, so for the
        # `points` slot only while it is empty: its first read builds and
        # stores them.
        if name != "points":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        points: list[Label] = [()]
        for f in self.factors:
            points = [(*p, q) for p in points for q in f.points]
        object.__setattr__(self, "points", tuple(points))
        return self.points

    def _position(self, label: Label) -> int | None:
        """The row-major index of a label, or None when it is not a point."""
        axes = self._axes
        if not isinstance(label, tuple) or len(label) != len(axes):
            return None
        i = 0
        for (lookup, n), part in zip(axes, label):
            j = lookup(part)
            if j is None:
                return None
            i = i * n + j
        return i

    def index(self, label: Label) -> int:
        i = self._position(label)
        if i is None:
            raise ValueError(f"unknown point {label!r}")
        return i

    def __contains__(self, label: Label) -> bool:
        return self._position(label) is not None

    def __len__(self) -> int:
        return self._size

    @property
    def _lookup(self) -> Callable[[Label], int | None]:
        return self._position

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


class FiniteFunction(_Value):
    """A real-valued function on a finite space (an element of C(X)).

    Values are always finite; only measure weights may be -inf.
    """

    __slots__ = ("space", "values")
    space: FiniteSpace
    values: tuple[float, ...]

    def __init__(self, space: FiniteSpace, values: tuple[float, ...]) -> None:
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "values", values)
        self.__post_init__()

    def __post_init__(self) -> None:
        vals = tuple(as_value(v) for v in self.values)
        if len(vals) != len(self.space):
            raise ValueError("one value per point required")
        object.__setattr__(self, "values", vals)

    def __eq__(self, other: Any) -> bool:
        if other.__class__ is self.__class__:
            return (self.space, self.values) == (other.space, other.values)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.space, self.values))

    def __repr__(self) -> str:
        return f"FiniteFunction(space={self.space!r}, values={self.values!r})"

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


class MetricSpace(_Value):
    """A finite space with a genuine metric, stored as a dense table.

    `dist` is the public tuple table.  The validated float64 array behind it
    is kept private and read-only for the kernels; `matrix` returns a
    writable copy.

    The triangle inequality is checked with a relative slack for rounding:
    d_ij ≤ (d_ik + d_kj)·(1 + n·ε) for all i, j, k, with n the number of
    points and ε = 2⁻⁵² the machine epsilon.  An entry of `metric_closure`
    is a float sum of at most n - 1 edges, within a relative
    γ_{n-1} = (n-1)u/(1 - (n-1)u), u = ε/2, of the exact path length
    (Higham, *Accuracy and Stability of Numerical Algorithms*, 2002,
    ch. 4).  The slack covers that error on both sides of the test,
    2(n-1)u to first order, and the rounding of the test itself, so the
    closure accepts its own output.  A violation past the slack is
    rejected.

    The check runs on the min-plus square m_ij = min_k fl(d_ik + d_kj),
    built in one buffer, and rejects iff some d_ij > fl(m_ij·s), with s the
    slack factor.  For s > 0 the map x ↦ fl(x·s) is monotone, so
    fl(m_ij·s) = min_k fl(fl(d_ik + d_kj)·s): the verdict is that of
    testing d_ij > fl(fl(d_ik + d_kj)·s) for every k, the rule stated
    above, on every input.

    `dist` may be any square table of numbers; a float64 array is read as
    it is, without a pass through Python rows.
    """

    __slots__ = ("space", "dist", "_table")
    space: FiniteSpace
    dist: tuple[tuple[float, ...], ...]
    _table: np.ndarray

    def __init__(self, space: FiniteSpace, dist: tuple[tuple[float, ...], ...]) -> None:
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "dist", dist)
        self.__post_init__()

    def __post_init__(self) -> None:
        import numpy as np

        n = len(self.space)
        d = self.dist
        if not (type(d) is np.ndarray and d.dtype == np.float64 and d.shape == (n, n)):
            d = [tuple(r) for r in d]
            if len(d) != n or any(len(r) != n for r in d):
                raise ValueError("distance table must be square over the space")
        d = np.array(d, dtype=float)
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
        # d is symmetric here, so d_ik + d_kj is read from row k alone.
        m = d[0, :, None] + d[0]
        buf = np.empty_like(m)
        for row in d[1:]:
            np.add(row[:, None], row, out=buf)
            np.minimum(m, buf, out=m)
        if (d > m * (1.0 + n * sys.float_info.epsilon)).any():
            raise ValueError("triangle inequality fails; run metric_closure on the raw table")
        d.flags.writeable = False
        object.__setattr__(self, "_table", d)
        object.__setattr__(self, "dist", tuple(map(tuple, d.tolist())))

    def __eq__(self, other: Any) -> bool:
        if other.__class__ is self.__class__:
            return (self.space, self.dist) == (other.space, other.dist)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.space, self.dist))

    def __repr__(self) -> str:
        return f"MetricSpace(space={self.space!r}, dist={self.dist!r})"

    def __setstate__(self, state: dict[str, Any]) -> None:
        super().__setstate__(state)
        # deepcopy and unpickling hand back a writable array
        self._table.flags.writeable = False

    @property
    def matrix(self) -> np.ndarray:
        return self._table.copy()

    def d(self, x: Label, y: Label) -> float:
        return self.dist[self.space.index(x)][self.space.index(y)]

    @property
    def diameter(self) -> float:
        return max(max(row) for row in self.dist)


def metric_closure(space: FiniteSpace, raw: Sequence[Sequence[float]] | np.ndarray) -> MetricSpace:
    """Shortest-path closure: the largest metric dominated by a raw dissimilarity.

    The raw table must be symmetric, zero on the diagonal and positive off
    it.  Where no path sum rounds (dyadic tables, for example) the closure
    is exact and idempotent: closing its output again changes nothing.  On
    real-valued tables an entry summed along one path can exceed the
    rounded sum along another by an ulp, so closing the output again may
    move entries by an ulp; the output, and the output of closing it again,
    pass the 1 + n·ε triangle test of `MetricSpace`.
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
    return MetricSpace(space, d)


def space(labels: Iterable[str]) -> FiniteSpace:
    """Shorthand constructor: space("abc") or space(["a", "b"])."""
    return FiniteSpace(tuple(labels))
