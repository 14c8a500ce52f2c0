"""Maps between finite spaces and the induced action on measures."""

from __future__ import annotations

from typing import Iterable, Mapping

from .core import NEG_INF, FiniteFunction, FiniteSpace, Label, _Value, _require
from .measures import IdempotentMeasure


class PointMap(_Value):
    """A total function between finite spaces.

    The map is stored once, as `_targets`: the index in `target` of the
    image of each source point, in source point order, which is what the
    kernels and methods read.  `table`, the field, is a view: a fresh
    label-keyed dict built from `_targets` on every read, O(|source|), so
    writing to it changes nothing.
    """

    __slots__ = ("source", "target", "_targets")
    source: FiniteSpace
    target: FiniteSpace
    _targets: tuple[int, ...]

    def __init__(
        self, source: FiniteSpace, target: FiniteSpace, table: Mapping[Label, Label]
    ) -> None:
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "_targets", table)
        self.__post_init__()

    def __post_init__(self) -> None:
        _require(self.source, FiniteSpace, "a map's source")
        _require(self.target, FiniteSpace, "a map's target")
        images = self.source.dense(self._targets, "map")
        try:
            targets = tuple(map(self.target._lookup, images))
        except TypeError:  # an unhashable image is no point either
            targets = (None,)
        if None in targets:
            self.target.require(images, "map values")
        object.__setattr__(self, "_targets", targets)

    @property
    def table(self) -> dict[Label, Label]:
        return dict(zip(self.source.points, map(self.target.points.__getitem__, self._targets)))

    def __call__(self, x: Label) -> Label:
        return self.target.points[self._targets[self.source.index(x)]]

    def then(self, g: "PointMap") -> "PointMap":
        """Composition g ∘ self (apply self first)."""
        _require(g, PointMap, "a composed map")
        if g.source != self.target:
            raise ValueError("composition mismatch: inner target differs from outer source")
        return PointMap(self.source, g.target, {x: g(self(x)) for x in self.source.points})

    def fiber(self, y: Label) -> frozenset[Label]:
        j = self.target.index(y)
        return frozenset(x for x, k in zip(self.source.points, self._targets) if k == j)

    def preimage(self, B: Iterable[Label]) -> frozenset[Label]:
        js = set(map(self.target.index, self.target.subset(B, "preimage")))
        return frozenset(x for x, j in zip(self.source.points, self._targets) if j in js)

    def image(self, A: Iterable[Label] | None = None) -> frozenset[Label]:
        pts = self.source.points if A is None else self.source.subset(A, "image")
        return frozenset(map(self, pts))

    @property
    def is_surjective(self) -> bool:
        return len(set(self._targets)) == len(self.target)

    @property
    def is_injective(self) -> bool:
        return len(set(self._targets)) == len(self.source)


def identity_map(space: FiniteSpace) -> PointMap:
    return PointMap(space, space, {p: p for p in space.points})


def pushforward(f: PointMap, mu: IdempotentMeasure) -> IdempotentMeasure:
    """The image measure: weight(y) is the max of μ over the fiber f⁻¹(y).

    Satisfies pushforward(f, μ)(φ) = μ(φ ∘ f) for every φ on the target.
    """
    if not isinstance(f, PointMap):
        raise TypeError(f"pushforward needs a PointMap, got {f.__class__.__name__}")
    _require(mu, IdempotentMeasure, "a pushed-forward measure")
    if mu.space != f.source:
        raise ValueError("measure does not live on the source of the map")
    out = [NEG_INF] * len(f.target)
    for j, w in zip(f._targets, mu.weights):
        if w > out[j]:
            out[j] = w
    return IdempotentMeasure._trusted(f.target, tuple(out))


def precompose(phi: FiniteFunction, f: PointMap) -> FiniteFunction:
    """φ ∘ f as a function on the source (the dual action on test functions).

    Built trusted: each value is a value of φ.
    """
    _require(phi, FiniteFunction, "a precomposed function")
    _require(f, PointMap, "a precomposing map")
    if phi.space != f.target:
        raise ValueError("function does not live on the target of the map")
    return FiniteFunction._trusted(f.source, tuple(map(phi.values.__getitem__, f._targets)))


def lies_in_subspace(mu: IdempotentMeasure, A: Iterable[Label]) -> bool:
    """Whether the support of μ is contained in the given point set."""
    _require(mu, IdempotentMeasure, "a subspace test's measure")
    pts = mu.space.subset(A, "subspace")
    return all(w == NEG_INF or p in pts for p, w in zip(mu.space.points, mu.weights))


def lift_along_surjection(f: PointMap, nu: IdempotentMeasure) -> IdempotentMeasure:
    """The maximal lift of ν through a surjection: weight(x) = ν(f(x)).

    Deterministic, assigns every fiber point the full weight of its image;
    pushes forward to ν exactly.  Built trusted: the weights are ν's, each
    taken at least once since f is onto, so its 0 among them.
    """
    _require(f, PointMap, "a lifting map")
    _require(nu, IdempotentMeasure, "a lifted measure")
    if not f.is_surjective:
        raise ValueError("lift requires a surjective map")
    if nu.space != f.target:
        raise ValueError("measure does not live on the target of the map")
    weights = tuple(map(nu.weights.__getitem__, f._targets))
    return IdempotentMeasure._trusted(f.source, weights)
