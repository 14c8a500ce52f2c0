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
from functools import partial
from operator import attrgetter
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Mapping, Sequence, Union

# numpy is imported inside the array kernels (MetricSpace validation and
# metric_closure), so a process that builds no metric space never loads it.
if TYPE_CHECKING:
    import numpy as np

NEG_INF = float("-inf")

# Point labels are strings, or tuples of labels on product-like spaces.
Label = Union[str, tuple]

_REQUIRED: Any = object()  # dense(): a point the table leaves out is an error


_TEXT = (str, bytes, bytearray, memoryview)  # float() parses these; no number here is text
_NOT_NUMBERS = (*_TEXT, bool)
_ZEROS = {0.0: 0.0}  # -0.0 == 0.0 and hashes alike, so .get maps both to this 0.0
_WEIGHTS = "weights must be numbers, got {!r}"
_VALUES = "function values must be numbers, got {!r}"


def _real(value: Any, message: str, what: str = "an integer") -> float:
    """The float of one input number: the one place where a scalar a caller
    gave is converted with float().

    Text, which float() would parse, a bool and anything float() refuses
    (None, a list, a dict) raise TypeError(message.format(value)).  An int
    past the float range raises ValueError("<what> is too large for a
    float").
    """
    if not isinstance(value, _NOT_NUMBERS):
        try:
            return float(value)
        except OverflowError:
            raise ValueError(f"{what} is too large for a float") from None
        except TypeError:
            pass
    raise TypeError(message.format(value))


def as_weight(value: float) -> float:
    """Validate a max-plus weight: a finite real or -inf, never NaN or +inf.

    The number is read by `_real`: text, a bool, None or a container is a
    TypeError, and an int too large for a float a ValueError.  -0.0 comes
    back as 0.0.
    """
    w = _real(value, _WEIGHTS)
    if math.isnan(w):
        raise ValueError("NaN is not a max-plus weight")
    if w == math.inf:
        raise ValueError("+inf is not a max-plus weight")
    if w == 0.0:
        return 0.0  # canonicalize -0.0
    return w


def as_value(value: float) -> float:
    """Validate a test-function value: finite real (no infinities at all).

    The number is read by `_real`, as `as_weight` reads one; -0.0 comes
    back as 0.0.
    """
    v = _real(value, _VALUES)
    if not math.isfinite(v):
        raise ValueError(f"function values must be finite, got {v!r}")
    if v == 0.0:
        return 0.0
    return v


def _canonical(
    check: Callable[[Any], float], low: float, message: str, values: Iterable[Any]
) -> tuple:
    """`check` over a table, which is read once by `_tuple`: text or a
    value that is not iterable as the table raises
    TypeError(message.format(values)), in `check`'s own words.

    A table of floats in [low, +inf) is checked without a call per entry:
    it comes back with its own float objects, except that each zero, -0.0
    too, is the one 0.0 that `check` returns.  Otherwise `check` runs over
    every entry in order, so the first bad one raises its exception and
    message.
    """
    table = _tuple(values, message)
    for v in table:
        if type(v) is not float or not low <= v < math.inf:
            return tuple(map(check, table))
    return tuple(map(_ZEROS.get, table, table))


_as_weights = partial(_canonical, as_weight, NEG_INF, _WEIGHTS)
_as_values = partial(_canonical, as_value, -sys.float_info.max, _VALUES)


def _tuple(values: Any, message: str) -> tuple:
    """The entries of a table or a row; text (b"1" iterates as the int 49)
    or a value that is not iterable raises TypeError(message.format(values)),
    as `_real` formats its message."""
    if not isinstance(values, _TEXT):
        try:
            return tuple(values)
        except TypeError:
            pass
    raise TypeError(message.format(values))


def _floats(values: Iterable[Any], message: str) -> tuple[float, ...]:
    """A row of numbers as a fresh tuple of floats: the one row reader.

    Text or a non-iterable as the row, and an entry that `_real` refuses,
    raise TypeError(message); an int past the float range is `_real`'s
    ValueError.  A float entry is kept as it is, without a call.
    """
    return tuple([v if type(v) is float else _real(v, message) for v in _tuple(values, message)])


def _require(value: object, cls: type, what: str) -> None:
    """Reject an argument of another class, which a trusted build would not catch."""
    if not isinstance(value, cls):
        article = "an" if cls.__name__[0] in "AEIOU" else "a"
        raise TypeError(f"{what} must be {article} {cls.__name__}, got {value.__class__.__name__}")


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


class InfeasibleError(ValueError):
    """An instance fails a feasibility precondition (not a schema problem)."""


class _Value:
    """The base of the immutable value classes.

    A subclass names its slots in `__slots__` and writes out its own
    `__init__`.  Its compared fields, `_fields`, are the parameters of that
    `__init__`, in order.  A field is a slot, or a read-only property over
    the slot that stores its table once in the form the kernels read
    (`PointMap.table` over `_targets`, `PointCloudSpace.embed` over
    `_columns`, `MetricSpace.dist` over `_table`, `CoverPair.alpha` over
    `_alpha`).  Such a property builds a fresh dict or tuple on every
    read, at O(size) cost, so writing to it changes no value; library code
    reads the slot.  Other private slots (`_index`, `_axes`, the measure
    weight cache `_array`, ...) hold what is derived from the fields and
    are never compared, hashed or printed; `_array` is filled by the
    kernel that builds it or by the first array kernel that reads the
    measure, and never changed once set.  Equality, hash and repr come
    from the tuple of field values.  `__eq__` is
    `NotImplemented` for an instance of another class and otherwise
    compares the two tuples of field values; `__hash__` hashes that
    tuple, a 1-tuple for one field; `__repr__` reads
    `Name(field=value, ...)`.  `__eq__` and `__hash__` are built once per
    class, when it is created.  `__init__` puts its arguments into their
    slots with `object.__setattr__` and then calls `__post_init__`, where
    the class validates them and replaces each with its normal form.  After
    `__init__` every assignment or deletion raises `FrozenInstanceError`.
    Copy and pickle rebuild an instance of its `__class__` from its slots
    without calling `__init__` again.  They read each field slot through
    `getattr`, so a measure whose `weights` tuple is built on its first
    read (`measures._ArrayMeasure`) builds it and copies and pickles to
    the same bytes as one built with it; they take every other slot only
    if it is filled (a product's `points` may not be), and leave the
    `_array` cache out: a value copies and pickles alike whether or not a
    kernel has filled it, and the next array kernel to read the copy
    fills it anew.  A subclass that writes no `__init__` of its own adds
    no field and keeps its base's `_fields`, `==`, hash and `_trusted`.

    Each class also gets `_trusted(*slots)`, built once per class like
    `__eq__`: it fills its own slots in order with values already in
    normal form and skips `__post_init__`.  Where the slots are the
    fields, as for `FiniteFunction`, these are the field values.  Public
    constructors validate; a function builds with `_trusted` only what its
    docstring proves valid, from inputs whose classes it has checked
    (`_require`).
    """

    __slots__ = ()
    _fields: tuple[str, ...]

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        if "__init__" not in vars(cls):  # no field of its own: the base's value
            return
        init = vars(cls)["__init__"].__code__
        cls._fields = init.co_varnames[1 : init.co_argcount]
        fields = attrgetter(*cls._fields)
        key = fields if len(cls._fields) > 1 else lambda obj: (fields(obj),)

        def __eq__(self: _Value, other: object) -> bool:
            if self is other:  # a field tuple always equals itself
                return True
            if other.__class__ is self.__class__:
                return key(self) == key(other)
            return NotImplemented

        def __hash__(self: _Value) -> int:
            return hash(key(self))

        cls.__eq__ = __eq__  # type: ignore[method-assign]
        cls.__hash__ = __hash__  # type: ignore[method-assign]
        new = object.__new__
        puts = tuple(vars(cls)[name].__set__ for name in vars(cls)["__slots__"])

        def _trusted(*slots: Any) -> Any:
            obj = new(cls)
            for put, value in zip(puts, slots):
                put(obj, value)
            return obj

        cls._trusted = staticmethod(_trusted)  # type: ignore[attr-defined]

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: Any) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        cls = self.__class__
        state = {}
        for klass in cls.__mro__:
            for name in vars(klass).get("__slots__", ()):
                if name == "_array":  # a cache, refilled on first use
                    continue
                if name in cls._fields:  # built on this read if still empty
                    state[name] = getattr(self, name)
                    continue
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
        """The labels as a set of points; a label outside the space is an error,
        and text or a value that is not iterable is a TypeError."""
        labels = _tuple(labels, f"{what}: points must be a collection of labels, got {{!r}}")
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
        except (KeyError, TypeError):  # an unhashable label is no point either
            raise ValueError(f"unknown point {label!r}") from None

    def __contains__(self, label: Label) -> bool:
        try:
            return label in self._index
        except TypeError:  # an unhashable label is no point either
            return False

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
        try:
            for (lookup, n), part in zip(axes, label):
                j = lookup(part)
                if j is None:
                    return None
                i = i * n + j
        except TypeError:  # an unhashable coordinate is no point either
            return None
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
        if isinstance(k, bool) or not isinstance(k, int):
            raise TypeError(f"axis must be an int, got {type(k).__name__}")
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


class FiniteFunction(_Value):
    """A real-valued function on a finite space (an element of C(X)).

    Invariant: `values` is a tuple of floats, one per point of `space`,
    each finite and never -0.0; only measure weights may be -inf.  A
    function that picks its values from validated functions builds with
    `_trusted` (`pointwise_max`, `precompose`).
    """

    __slots__ = ("space", "values")
    space: FiniteSpace
    values: tuple[float, ...]

    def __init__(self, space: FiniteSpace, values: tuple[float, ...]) -> None:
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "values", values)
        self.__post_init__()

    def __post_init__(self) -> None:
        _require(self.space, FiniteSpace, "a function's space")
        vals = _as_values(self.values)
        if len(vals) != len(self.space):
            raise ValueError("one value per point required")
        object.__setattr__(self, "values", vals)

    @classmethod
    def from_mapping(cls, space: FiniteSpace, table: Mapping[Label, float]) -> "FiniteFunction":
        """A function from a table naming every point of the space once."""
        return cls(space, space.dense(table, "values"))

    @classmethod
    def constant(cls, space: FiniteSpace, c: float) -> "FiniteFunction":
        return cls(space, (c,) * len(space))

    def __call__(self, label: Label) -> float:
        return self.values[self.space.index(label)]

    def shift(self, c: float) -> "FiniteFunction":
        """c ⊙ φ: add the constant c to every value.  c is read by `_real`,
        as `constant` reads its value."""
        c = _real(c, _VALUES)
        return FiniteFunction(self.space, tuple(v + c for v in self.values))


def pointwise_max(phi: FiniteFunction, psi: FiniteFunction) -> FiniteFunction:
    """φ ⊕ ψ, the pointwise maximum of two functions on one space.

    Built trusted: each value is a value of φ or of ψ.
    """
    _require(phi, FiniteFunction, "a pointwise max's argument")
    _require(psi, FiniteFunction, "a pointwise max's argument")
    if phi.space != psi.space:
        raise ValueError("functions live on different spaces")
    return FiniteFunction._trusted(phi.space, tuple(map(max, phi.values, psi.values)))


class MetricSpace(_Value):
    """A finite space with a genuine metric, stored as a dense table.

    The metric is stored once, as the validated read-only float64 array
    `_table` that the kernels read.  `dist`, the field, is a view: a fresh
    tuple of row tuples built from it on every read, O(n²), so writing to
    it changes nothing.  `matrix` returns a writable copy of the array.

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

    Every table passed to the constructor is checked.  `metric_closure`
    skips the check only on a raw table whose entries are all multiples
    of ulp(2M), M the largest: there no path sum rounds, so the output is
    an exact metric (the proof is in its docstring).  Other closures, of
    real-valued tables for one, are checked: along a chain of n rounded
    sums the error reaches about 2n·u, the whole slack, so no proof
    closes inside it.

    The `dist` argument may be any square table of numbers; a float64
    array is read as it is, without a pass through Python rows.  The
    table is read by `_distances`, the one check of a distance table,
    which `metric_closure` shares: text is a TypeError, and a table that
    is not square, has a NaN, infinite or negative entry, is not
    symmetric, is not 0 on the diagonal or has a zero off it is a
    ValueError, its first defect in row-major order deciding the message.
    """

    __slots__ = ("space", "_table")
    space: FiniteSpace
    _table: np.ndarray

    def __init__(self, space: FiniteSpace, dist: tuple[tuple[float, ...], ...]) -> None:
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "_table", dist)
        self.__post_init__()

    def __post_init__(self) -> None:
        import numpy as np

        _require(self.space, FiniteSpace, "a metric space's point set")
        n = len(self.space)
        d = _distances(self._table, n)
        # d is symmetric here, so d_ik + d_kj is read from row k alone.  A
        # sum or product past the float range is +inf, which never lowers a
        # minimum and never fails d ≤ m·s, so overflow is not reported.
        with np.errstate(over="ignore"):
            m = d[0, :, None] + d[0]
            buf = np.empty_like(m)
            for row in d[1:]:
                np.add(row[:, None], row, out=buf)
                np.minimum(m, buf, out=m)
            if (d > m * (1.0 + n * sys.float_info.epsilon)).any():
                raise ValueError("triangle inequality fails; run metric_closure on the raw table")
        d.flags.writeable = False
        object.__setattr__(self, "_table", d)

    def __setstate__(self, state: dict[str, Any]) -> None:
        super().__setstate__(state)
        # deepcopy and unpickling hand back a writable array
        self._table.flags.writeable = False

    @property
    def dist(self) -> tuple[tuple[float, ...], ...]:
        return tuple(map(tuple, self._table.tolist()))

    @property
    def matrix(self) -> np.ndarray:
        return self._table.copy()

    def d(self, x: Label, y: Label) -> float:
        return self._table.item(self.space.index(x), self.space.index(y))

    @property
    def diameter(self) -> float:
        return self._table.max().item()


def _distances(table: Any, n: int, metric: bool = True) -> np.ndarray:
    """A distance table over n points as a fresh float64 (n, n) array.

    The one check of a distance table.  A float64 (n, n) array is read as
    it is, without a pass through Python rows; any other table is read
    row by row by `_floats`, so text or a non-iterable as the table or a
    row, and an entry that is not a number, is TypeError("distances must
    be numbers"), and an int past the float range is a ValueError.  The
    table must be square over the n points, and be finite, nonnegative
    and symmetric; with `metric` it must also be 0 on the diagonal and
    positive off it.  The first defect in row-major (i, j) order, with
    the diagonal checked first in each row, decides the message.  A -0.0
    entry is stored as 0.0, as weights and function values are.
    """
    import numpy as np

    if not (type(table) is np.ndarray and table.dtype == np.float64 and table.shape == (n, n)):
        message = "distances must be numbers"
        table = [_floats(row, message) for row in _tuple(table, message)]
        if len(table) != n or any(len(r) != n for r in table):
            raise ValueError("distance table must be square over the space")
    d = np.array(table, dtype=float)
    d += 0.0  # -0.0 + 0.0 is 0.0
    bad_diag = np.diagonal(d) != 0.0 if metric else np.zeros(n, dtype=bool)
    bad_range = ~np.isfinite(d) | (d < 0.0)
    bad_sym = d != d.T
    bad = bad_range | bad_sym
    if metric:
        bad |= (d == 0.0) & ~np.eye(n, dtype=bool)
    bad_rows = bad_diag | bad.any(axis=1)
    if bad_rows.any():
        i = int(np.argmax(bad_rows))
        if bad_diag[i]:
            raise ValueError("distance from a point to itself must be 0")
        j = int(np.argmax(bad[i]))
        if bad_range[i, j]:
            raise ValueError("distances must be finite and nonnegative")
        if bad_sym[i, j]:
            raise ValueError("distance table must be symmetric")
        raise ValueError("distinct points must be at positive distance")
    return d


def metric_closure(space: FiniteSpace, raw: Sequence[Sequence[float]] | np.ndarray) -> MetricSpace:
    """Shortest-path closure: the largest metric dominated by a raw dissimilarity.

    The raw table must be symmetric, zero on the diagonal and positive off
    it.  It is read by `_distances`, as `MetricSpace` reads its table, so
    a defect raises the error, and the message, that `MetricSpace` raises
    for it.  Where no path sum rounds (dyadic tables, for example) the
    closure is exact and idempotent: closing its output again changes
    nothing.  On real-valued tables an entry summed along one path can
    exceed the rounded sum along another by an ulp, so closing the output
    again may move entries by an ulp; the output, and the output of
    closing it again, pass the 1 + n·ε triangle test of `MetricSpace`.

    The output is built without `MetricSpace`'s O(n³) triangle test when an
    O(n²) certificate proves every sum exact: each raw entry is a multiple
    of g = ulp(2M), M the largest raw entry.  By induction every entry
    stays a multiple of g in [0, M], since it never exceeds its raw value,
    so every sum d_ik + d_kj is a multiple of g in [0, 2M], which a float
    holds exactly.  The output is then the real shortest-path metric: it
    meets the triangle inequality exactly, fl(d_ik + d_kj) = d_ik + d_kj,
    and fl(m·s) ≥ m for s ≥ 1, so the test d > m·(1 + n·ε) never fires.
    The table check gives the rest: a zero diagonal, finite nonnegative
    entries, positive ones off the diagonal, and symmetry, which float +
    keeps as it commutes.  If 2M overflows, g is inf and the certificate
    fails.  Other tables are checked by `MetricSpace` as before.

    The certificate is one pass: with C = 2⁵²·g > M, floats in [C, 2C] are
    g apart, so for 0 ≤ x ≤ M, fl(x + C) - C = x iff x is a multiple of g
    (the subtraction is exact by Sterbenz's lemma).
    """
    import numpy as np

    _require(space, FiniteSpace, "a metric closure's point set")
    d = _distances(raw, len(space))
    buf = np.empty_like(d)
    big = math.ulp(2.0 * float(d.max())) * 2.0**52  # C, inf if 2M overflows
    # A sum past the float range is +inf: x + C is then off the grid, and a
    # path sum never lowers an entry.  Floyd-Warshall runs in place: row
    # and column k do not change in step k, so the sums are those of the
    # unchanged table.
    with np.errstate(over="ignore"):
        exact = big < math.inf and np.array_equal(np.subtract(np.add(d, big, out=buf), big, out=buf), d)
        for k in range(len(d)):
            np.add(d[:, k, None], d[k], out=buf)
            np.minimum(d, buf, out=d)
    if not exact:
        return MetricSpace(space, d)
    d.flags.writeable = False
    return MetricSpace._trusted(space, d)


def space(labels: Iterable[str]) -> FiniteSpace:
    """Shorthand constructor: space("abc") or space(["a", "b"])."""
    return FiniteSpace(tuple(labels))
