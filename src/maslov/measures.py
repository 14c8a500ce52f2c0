"""Idempotent probability measures of finite support.

A measure is a dense weight table over a finite space, normalized so the
maximum weight is exactly 0; absent atoms carry -inf.  Its value on a
function φ is the Maslov integral max_x (φ(x) + weight(x)), the tropical
analogue of expectation.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from .core import (
    NEG_INF,
    FiniteFunction,
    FiniteSpace,
    Label,
    _Value,
    as_weight,
    combine,
)


class IdempotentMeasure(_Value):
    """A normalized max-plus weight table: max weight is exactly 0.

    Invariant: `weights` is a tuple of floats, one per point of `space`,
    each ≤ 0 and never NaN, +inf or -0.0, with maximum exactly 0.  Max and
    + of such weights stay in that set: no term is +inf, so no sum is NaN;
    a sum of two of them is 0.0 only as 0 + 0, and overflow goes to -inf,
    which is a valid weight.  So the kernels that build a table from the
    weights of validated measures by max and + alone (`tensor_many`,
    `marginal`, `multiply`, `pushforward`, `flatten_measure`) check only
    that their inputs are measures (`_require_measure`) and build the
    result with `_trusted`, without validating it again.
    """

    __slots__ = ("space", "weights")
    space: FiniteSpace
    weights: tuple[float, ...]

    def __init__(self, space: FiniteSpace, weights: tuple[float, ...]) -> None:
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "weights", weights)
        self.__post_init__()

    def __post_init__(self) -> None:
        w = tuple(as_weight(v) for v in self.weights)
        if len(w) != len(self.space):
            raise ValueError("one weight per point required")
        if max(w) != 0.0:
            raise ValueError("measure is not normalized: maximum weight must be 0")
        object.__setattr__(self, "weights", w)

    @classmethod
    def _trusted(cls, space: FiniteSpace, weights: tuple[float, ...]) -> "IdempotentMeasure":
        """A measure from a table that meets the invariant; nothing is checked."""
        mu = object.__new__(cls)
        object.__setattr__(mu, "space", space)
        object.__setattr__(mu, "weights", weights)
        return mu

    def weight(self, label: Label) -> float:
        return self.weights[self.space.index(label)]

    def as_mapping(self) -> dict[Label, float]:
        return dict(zip(self.space.points, self.weights))

    def __repr__(self) -> str:
        atoms = ", ".join(f"{p!r}: {w}" for p, w in zip(self.space.points, self.weights))
        return f"IdempotentMeasure({{{atoms}}})"


def _require_measure(mu: object, what: str) -> None:
    """Reject anything but a validated measure, which `_trusted` relies on."""
    if not isinstance(mu, IdempotentMeasure):
        raise TypeError(f"{what} must be an IdempotentMeasure, got {type(mu).__name__}")


def dirac(space: FiniteSpace, x: Label) -> IdempotentMeasure:
    """The Dirac measure δ_x: weight 0 at x, -inf elsewhere."""
    i = space.index(x)
    return IdempotentMeasure(space, tuple(0.0 if j == i else NEG_INF for j in range(len(space))))


def normalize(
    space: FiniteSpace, raw: Mapping[Label, float] | Sequence[float]
) -> IdempotentMeasure:
    """Build a measure from a raw weight table by shifting its maximum to 0.

    Mapping input may omit points (omitted atoms become -inf); at least one
    weight must be finite.
    """
    if isinstance(raw, Mapping):
        raw = space.dense(raw, "weights", default=NEG_INF)
    table = [as_weight(v) for v in raw]
    if len(table) != len(space):
        raise ValueError("one weight per point required")
    top = max(table)
    if top == NEG_INF:
        raise ValueError("cannot normalize: all weights are -inf")
    return IdempotentMeasure(space, tuple(w - top if w > NEG_INF else NEG_INF for w in table))


def integrate(mu: IdempotentMeasure, phi: FiniteFunction) -> float:
    """The Maslov integral μ(φ) = max over the support of (φ(x) + weight(x))."""
    if phi.space != mu.space:
        raise ValueError("measure and function live on different spaces")
    return max(v + w for v, w in zip(phi.values, mu.weights) if w > NEG_INF)


def support(mu: IdempotentMeasure) -> frozenset[Label]:
    """The points carrying finite weight (the minimal carrier of μ)."""
    return frozenset(p for p, w in zip(mu.space.points, mu.weights) if w > NEG_INF)


def convex_combination(
    lam1: float, mu1: IdempotentMeasure, lam2: float, mu2: IdempotentMeasure
) -> IdempotentMeasure:
    """The max-plus convex combination λ1 ⊙ μ1 ⊕ λ2 ⊙ μ2.

    Requires max(λ1, λ2) = 0, which makes the result normalized; the output
    satisfies μ(φ) = max(λ1 + μ1(φ), λ2 + μ2(φ)) for every φ.
    """
    lam1, lam2 = as_weight(lam1), as_weight(lam2)
    if max(lam1, lam2) != 0.0:
        raise ValueError("combination weights must satisfy max(λ1, λ2) = 0")
    if mu1.space != mu2.space:
        raise ValueError("measures live on different spaces")
    return IdempotentMeasure(mu1.space, combine((lam1, lam2), (mu1.weights, mu2.weights)))


def pointwise_sup(measures: Iterable[IdempotentMeasure]) -> IdempotentMeasure:
    """The atomwise maximum of a nonempty family; realizes sup μ as a functional."""
    ms = list(measures)
    if not ms:
        raise ValueError("sup of an empty family")
    sp = ms[0].space
    if any(m.space != sp for m in ms):
        raise ValueError("measures live on different spaces")
    return IdempotentMeasure(sp, combine((0.0,) * len(ms), (m.weights for m in ms)))
