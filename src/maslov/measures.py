"""Idempotent probability measures of finite support.

A measure is a dense weight table over a finite space, normalized so the
maximum weight is exactly 0; absent atoms carry -inf.  Its value on a
function φ is the Maslov integral max_x (φ(x) + weight(x)), the tropical
analogue of expectation.
"""

from __future__ import annotations

from collections.abc import Mapping
from operator import add
from typing import TYPE_CHECKING, Any, Iterable, Sequence

from .core import (
    NEG_INF,
    FiniteFunction,
    FiniteSpace,
    Label,
    _Value,
    _as_weights,
    _members,
    _require,
    as_weight,
    combine,
)

if TYPE_CHECKING:
    import numpy as np


class IdempotentMeasure(_Value):
    """A normalized max-plus weight table: max weight is exactly 0.

    Invariant: `weights` is a tuple of floats, one per point of `space`,
    each ≤ 0 and never NaN, +inf or -0.0, with maximum exactly 0.  Max and
    + of such weights stay in that set: no term is +inf, so no sum is NaN;
    a sum of two of them is 0.0 only as 0 + 0, and overflow goes to -inf,
    which is a valid weight.  So the kernels that build a table from the
    weights of validated measures by max and + alone (`tensor_many`,
    `marginal`, `multiply`, `pushforward`, `flatten_measure`,
    `convex_combination`, `pointwise_sup`, `lift_along_surjection`, and
    with max and min `lift_open_surjection` and `bicommutative_lift`,
    through any surjection, and `pattern_max_coupling`), and those whose
    table is valid by construction (`normalize`, `dirac`,
    `hyperspace_embed`, `fuzzy_embed`, `milyutin_build`), check only the
    classes of their inputs (`_require`) and build the result with
    `_trusted`, without validating it again; each states its proof.

    The one derived private slot, `_array`, is a read-only float64 copy of
    `weights`, bit for bit, or is unfilled.  It is a cache of the one
    weight table, not a second stored table.  It is filled by the array
    kernel that builds the measure, or by the first array kernel that
    reads the measure; it is never changed once set; and it is never
    compared, hashed or printed: equality, hash, repr, `io` and every loop
    kernel read only `weights`, so a measure with the cache equals, hashes
    and prints as one without it.  Only the array kernels fill and read
    it, on a table of at least `monad._ARRAY_POINTS` entries when numpy is
    already loaded: `tensor_many` and `multiply` fill it on their outputs
    and on their inputs, `marginal` reduces a cached array, and
    `flatten_measure` passes it along.  A measure that an array kernel
    builds (`_ArrayMeasure`) holds only `space` and `_array` at first: its
    `weights` slot is empty, and its first read builds the tuple from
    `_array` and stores it, so a chain such as `tensor` then `marginal`
    never builds the product's tuple.  Copy and pickle read `weights` and
    leave `_array` out, so a measure copies and pickles alike before and
    after an array kernel reads it, and whether or not its tuple was built.
    """

    __slots__ = ("space", "weights", "_array")
    space: FiniteSpace
    weights: tuple[float, ...]
    _array: np.ndarray | None

    def __init__(self, space: FiniteSpace, weights: tuple[float, ...]) -> None:
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "weights", weights)
        self.__post_init__()

    def __post_init__(self) -> None:
        _require(self.space, FiniteSpace, "a measure's space")
        w = _as_weights(self.weights)
        if len(w) != len(self.space):
            raise ValueError("one weight per point required")
        if max(w) != 0.0:
            raise ValueError("measure is not normalized: maximum weight must be 0")
        object.__setattr__(self, "weights", w)

    def weight(self, label: Label) -> float:
        return self.weights[self.space.index(label)]

    def as_mapping(self) -> dict[Label, float]:
        return dict(zip(self.space.points, self.weights))

    def __repr__(self) -> str:
        atoms = ", ".join(f"{p!r}: {w}" for p, w in zip(self.space.points, self.weights))
        return f"IdempotentMeasure({{{atoms}}})"


class _ArrayMeasure(IdempotentMeasure):
    """A measure that an array kernel built (`monad._from_array`): `space`
    and `_array` are filled, and `weights` is built from `_array` on its
    first read.

    It is the same value as the `IdempotentMeasure` built with its tuple:
    `__class__` reads `IdempotentMeasure`, so it equals and hashes as that
    measure, and copy and pickle rebuild that class, to the same pickle
    bytes.  The hook is kept off `IdempotentMeasure` itself because a
    class with `__getattr__` loses CPython's specialized attribute reads:
    with it there, each read of `space` or `weights` on every measure took
    about 33 ns against 8-14 ns, and the small-n law batches about 2-3%
    longer (CPython 3.11, 2-vCPU Xeon).
    """

    __slots__ = ()

    @property  # type: ignore[misc]
    def __class__(self) -> type:
        return IdempotentMeasure

    def __getattr__(self, name: str) -> Any:
        # Runs only for attributes that are not found otherwise, so for the
        # `weights` slot only while it is empty: its first read builds the
        # tuple and stores it.  Two threads reading it at once each store
        # an equal tuple.
        if name != "weights":
            raise AttributeError(f"'IdempotentMeasure' object has no attribute {name!r}")
        weights = tuple(self._array.tolist())
        object.__setattr__(self, "weights", weights)
        return weights


def dirac(space: FiniteSpace, x: Label) -> IdempotentMeasure:
    """The Dirac measure δ_x: weight 0 at x, -inf elsewhere, a valid table."""
    _require(space, FiniteSpace, "a Dirac measure's space")
    i = space.index(x)
    weights = tuple(0.0 if j == i else NEG_INF for j in range(len(space)))
    return IdempotentMeasure._trusted(space, weights)


def normalize(
    space: FiniteSpace, raw: Mapping[Label, float] | Sequence[float]
) -> IdempotentMeasure:
    """Build a measure from a raw weight table by shifting its maximum to 0.

    Mapping input may omit points (omitted atoms become -inf); at least one
    weight must be finite.  The raw table is validated once; the shift
    w - top of a finite w ≤ top lies in [-inf, 0], is 0.0 exactly when
    w = top and is never -0.0, so the result is built trusted.
    """
    _require(space, FiniteSpace, "a normalized measure's space")
    if isinstance(raw, Mapping):
        raw = space.dense(raw, "weights", default=NEG_INF)
    table = _as_weights(raw)
    if len(table) != len(space):
        raise ValueError("one weight per point required")
    top = max(table)
    if top == NEG_INF:
        raise ValueError("cannot normalize: all weights are -inf")
    weights = tuple(w - top if w > NEG_INF else NEG_INF for w in table)
    return IdempotentMeasure._trusted(space, weights)


def integrate(mu: IdempotentMeasure, phi: FiniteFunction) -> float:
    """The Maslov integral μ(φ) = max over the support of (φ(x) + weight(x)).

    A -inf weight gives a -inf term and some weight is 0, so the maximum
    over all points is the maximum over the support.
    """
    _require(mu, IdempotentMeasure, "an integrated measure")
    _require(phi, FiniteFunction, "an integrated function")
    if phi.space != mu.space:
        raise ValueError("measure and function live on different spaces")
    return max(map(add, phi.values, mu.weights))


def support(mu: IdempotentMeasure) -> frozenset[Label]:
    """The points carrying finite weight (the minimal carrier of μ)."""
    _require(mu, IdempotentMeasure, "a support's argument")
    return frozenset(p for p, w in zip(mu.space.points, mu.weights) if w > NEG_INF)


def convex_combination(
    lam1: float, mu1: IdempotentMeasure, lam2: float, mu2: IdempotentMeasure
) -> IdempotentMeasure:
    """The max-plus convex combination λ1 ⊙ μ1 ⊕ λ2 ⊙ μ2.

    Requires max(λ1, λ2) = 0, which makes the result normalized; the output
    satisfies μ(φ) = max(λ1 + μ1(φ), λ2 + μ2(φ)) for every φ.  Built
    trusted: each entry is max and + of valid weights, and the term with
    λi = 0 keeps the 0 of μi.
    """
    _require(mu1, IdempotentMeasure, "a combined measure")
    _require(mu2, IdempotentMeasure, "a combined measure")
    lam1, lam2 = as_weight(lam1), as_weight(lam2)
    if max(lam1, lam2) != 0.0:
        raise ValueError("combination weights must satisfy max(λ1, λ2) = 0")
    if mu1.space != mu2.space:
        raise ValueError("measures live on different spaces")
    return IdempotentMeasure._trusted(mu1.space, combine((lam1, lam2), (mu1.weights, mu2.weights)))


def pointwise_sup(measures: Iterable[IdempotentMeasure]) -> IdempotentMeasure:
    """The atomwise maximum of a nonempty family; realizes sup μ as a functional.

    Built trusted: each weight is a weight of some member.
    """
    ms = _members(measures, IdempotentMeasure, "a member of a sup",
                  "members of a sup must be a sequence of measures, got {!r}")
    if not ms:
        raise ValueError("sup of an empty family")
    sp = ms[0].space
    if any(m.space != sp for m in ms):
        raise ValueError("measures live on different spaces")
    return IdempotentMeasure._trusted(sp, combine((0.0,) * len(ms), (m.weights for m in ms)))
