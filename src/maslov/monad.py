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
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .core import (
    NEG_INF,
    FiniteFunction,
    FiniteSpace,
    Label,
    ProductSpace,
    as_weight,
    flatten_space,
    product_space,
)
from .functor import PointMap, pushforward
from .measures import IdempotentMeasure, dirac, integrate


@dataclass(frozen=True)
class OuterMeasure:
    """A normalized weight table over a finite list of measures on one base.

    Inner measures are stored by position; duplicates are allowed and get
    merged by max during multiplication.
    """

    base: FiniteSpace
    inner: tuple[IdempotentMeasure, ...]
    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        inner = tuple(self.inner)
        w = tuple(as_weight(v) for v in self.weights)
        if not inner:
            raise ValueError("an outer measure needs at least one component")
        if len(w) != len(inner):
            raise ValueError("one weight per inner measure required")
        if any(m.space != self.base for m in inner):
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
    """
    out = [NEG_INF] * len(M.base)
    for lam, m in zip(M.weights, M.inner):
        if lam == NEG_INF:
            continue
        for j, w in enumerate(m.weights):
            v = lam + w
            if v > out[j]:
                out[j] = v
    return IdempotentMeasure(M.base, tuple(out))


def outer_dirac(mu: IdempotentMeasure) -> OuterMeasure:
    """The Dirac outer measure concentrated at μ (the unit one level up)."""
    return OuterMeasure(mu.space, (mu,), (0.0,))


def dirac_lift(mu: IdempotentMeasure) -> OuterMeasure:
    """The image of μ under the pointwise Dirac embedding of its base.

    Atoms are the Dirac measures at the support points of μ, carrying μ's
    weights; multiplying this back recovers μ.
    """
    pairs = [
        (w, dirac(mu.space, p))
        for p, w in zip(mu.space.points, mu.weights)
        if w > NEG_INF
    ]
    return OuterMeasure(mu.space, tuple(m for _, m in pairs), tuple(w for w, _ in pairs))


def map_outer(f: PointMap, M: OuterMeasure) -> OuterMeasure:
    """Apply a point map at both levels: pushforward every inner measure."""
    if M.base != f.source:
        raise ValueError("outer measure does not live over the source of the map")
    return OuterMeasure(f.target, tuple(pushforward(f, m) for m in M.inner), M.weights)


def tensor(mu: IdempotentMeasure, nu: IdempotentMeasure) -> IdempotentMeasure:
    """The sum-weight coupling on the product: weight(x,y) = μ(x) + ν(y)."""
    prod = product_space(mu.space, nu.space)
    weights = tuple(a + b for a in mu.weights for b in nu.weights)
    return IdempotentMeasure(prod, weights)


def tensor_many(measures: Sequence[IdempotentMeasure]) -> IdempotentMeasure:
    """Left-associated tensor over a flat product of all the factors."""
    if len(measures) < 2:
        raise ValueError("tensor_many needs at least two measures")
    weights: tuple[float, ...] = (0.0,)
    for m in measures:
        weights = tuple(w + v for w in weights for v in m.weights)
    return IdempotentMeasure(product_space(*(m.space for m in measures)), weights)


def projection(prod: ProductSpace, axis: int) -> PointMap:
    """The coordinate projection of a product space onto one factor."""
    fac = prod.axis(axis)
    return PointMap(prod, fac, {p: p[axis] for p in prod.points})


def marginal(mu: IdempotentMeasure, axis: int) -> IdempotentMeasure:
    """Max over the complementary fibers; equals the pushforward along projection.

    Row-major order makes the fiber of a coordinate a set of strided runs:
    first reduce each run over the later axes, then stride over the earlier.
    """
    if not isinstance(mu.space, ProductSpace):
        raise ValueError("marginals require a measure on a declared product space")
    fac = mu.space.axis(axis)
    run = math.prod(len(f) for f in mu.space.factors[axis + 1:])
    w = mu.weights
    if run > 1:
        w = tuple(max(w[s:s + run]) for s in range(0, len(w), run))
    m = len(fac)
    return IdempotentMeasure(fac, tuple(max(w[c::m]) for c in range(m)))


def flatten_measure(mu: IdempotentMeasure) -> IdempotentMeasure:
    """Transport μ along the canonical identification ((x,y),z) = (x,y,z).

    The nested and the flat product list their points in the same
    row-major order, so the weights carry over unchanged.
    """
    if not isinstance(mu.space, ProductSpace):
        raise ValueError("only measures on product spaces can be flattened")
    flat, _ = flatten_space(mu.space)
    return IdempotentMeasure(flat, mu.weights)


@dataclass(frozen=True)
class ClosedSet:
    """A nonempty subset of a finite space."""

    space: FiniteSpace
    members: frozenset[Label]

    def __post_init__(self) -> None:
        members = self.space.subset(self.members, "closed set")
        if not members:
            raise ValueError("closed sets are nonempty")
        object.__setattr__(self, "members", members)


def hyperspace_embed(A: ClosedSet) -> IdempotentMeasure:
    """The uniform measure on a set: weight 0 on members, -inf elsewhere.

    Integration against it returns the maximum of the test function over
    the set, so the embedding is injective.
    """
    return IdempotentMeasure(
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


@dataclass(frozen=True)
class FuzzySet:
    """A [0,1]-graded membership function attaining the grade 1 somewhere."""

    space: FiniteSpace
    grades: tuple[float, ...]

    def __post_init__(self) -> None:
        g = tuple(float(v) for v in self.grades)
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
    integration realizes sup_x (φ(x) + ln χ(x)).
    """
    return IdempotentMeasure(
        chi.space,
        tuple(math.log(g) if g > 0.0 else NEG_INF for g in chi.grades),
    )
