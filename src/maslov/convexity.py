"""Tropical convexity: point clouds, the idempotent barycenter, hull tests.

A compact max-plus convex set is represented by a finite generating cloud;
the barycenter of a measure over the cloud is the coordinatewise Maslov
integral of the embedding, i.e. the tropical center of mass.
"""

from __future__ import annotations

import math
from itertools import chain
from operator import add, itemgetter
from typing import Mapping, Sequence

from .core import NEG_INF, FiniteSpace, Label, _Value, _floats, _tuple, combine
from .measures import IdempotentMeasure
from .monad import OuterMeasure, multiply

TropicalPoint = tuple[float, ...]


def _check_point(p: Sequence[float], dim: int | None = None) -> TropicalPoint:
    q = _floats(p, "coordinates must be numbers")
    if any(math.isnan(v) or v == math.inf for v in q):
        raise ValueError("coordinates must be reals or -inf")
    if dim is not None and len(q) != dim:
        raise ValueError(f"expected dimension {dim}, got {len(q)}")
    return q


class PointCloudSpace(_Value):
    """A finite space embedded in R^n; every coordinate is finite.

    Barycenters are undefined on -inf coordinates, so clouds reject them.
    The coordinates are stored once, by axis, as `_columns`: entry k lists
    coordinate k of every point, in point order, which is what the kernels
    and methods read.  `embed`, the field, is a view: a fresh label-keyed
    dict of points built from `_columns` on every read, O(n·dim), so
    writing to it changes nothing.  Each point is read by `core._floats`.
    """

    __slots__ = ("space", "_columns")
    space: FiniteSpace
    _columns: tuple[tuple[float, ...], ...]

    def __init__(self, space: FiniteSpace, embed: Mapping[Label, TropicalPoint]) -> None:
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "_columns", embed)
        self.__post_init__()

    def __post_init__(self) -> None:
        raw = self.space.dense(self._columns, "embed")
        coords = [_floats(q, "cloud coordinates must be numbers") for q in raw]
        if not all(map(math.isfinite, chain.from_iterable(coords))):
            raise ValueError("cloud points must have finite coordinates")
        if len({len(q) for q in coords}) != 1:
            raise ValueError("inconsistent coordinate dimensions")
        # one pass per axis: zip(*coords) makes an iterator per point, which
        # on 10^4-point clouds fragments the heap (kernels_large set-up, three
        # workload builds: peak RSS 202 -> 229 MB, against 204 MB this way)
        columns = (tuple(map(itemgetter(k), coords)) for k in range(len(coords[0])))
        object.__setattr__(self, "_columns", tuple(columns))

    @property
    def embed(self) -> dict[Label, TropicalPoint]:
        return {p: self.point(p) for p in self.space.points}

    @property
    def dim(self) -> int:
        return len(self._columns)

    def point(self, label: Label) -> TropicalPoint:
        i = self.space._lookup(label)
        if i is None:
            raise KeyError(label)
        return tuple(col[i] for col in self._columns)


def barycenter(cloud: PointCloudSpace, mu: IdempotentMeasure) -> TropicalPoint:
    """Coordinatewise max over the support of (weight + embedded coordinate).

    Equals, coordinate by coordinate, the Maslov integral of the coordinate
    function, and always lies in the tropical span of the support points.
    Coordinate k is the max of w_p + x_pk over every point p, read from the
    cloud's column k; this is `combine(mu.weights, cloud.embed.values())`
    bit for bit.  Both add w_p + x_pk in point order and keep the first
    maximal sum, so ties, 0.0 against -0.0 included, resolve alike.  The
    only difference is that `combine` skips a weight of -inf; here its
    sum is -inf, as the coordinates are finite, and a sum of -inf is never
    maximal, as the weights (never NaN) hold a 0.0, whose sum is finite.
    """
    if mu.space != cloud.space:
        raise ValueError("measure does not live on the cloud's space")
    return tuple([max(map(add, mu.weights, col)) for col in cloud._columns])


def algebra_law_check(cloud: PointCloudSpace, M: OuterMeasure) -> bool:
    """Exactly compare mixing-then-averaging with averaging-then-averaging.

    Left side: barycenter of the collapsed measure multiply(M).
    Right side: barycenter of M pushed along the barycenter map, computed
    independently as the coordinatewise max over components.
    """
    if M.base != cloud.space:
        raise ValueError("outer measure does not live over the cloud's space")
    left = barycenter(cloud, multiply(M))
    right = combine(M.weights, (barycenter(cloud, m) for m in M.inner))
    return left == right


def hull_membership(
    generators: Sequence[TropicalPoint], x: Sequence[float]
) -> tuple[bool, tuple[float, ...] | None]:
    """Tropical-span membership by residuation.

    Each generator gets the largest coefficient keeping it below x,
    λ_i = min_k (x_k - g_ik); x belongs to the span iff the combination
    ⊕_i λ_i ⊙ g_i reproduces x exactly, in which case λ is the witness.
    """
    gens = [_check_point(g) for g in _tuple(generators, "coordinates must be numbers")]
    if not gens:
        raise ValueError("need at least one generator")
    dim = len(gens[0])
    if dim == 0:
        # λ_i would be the min over no coordinates, +inf, which is not a weight
        raise ValueError("hull membership needs at least one coordinate")
    if any(len(g) != dim for g in gens):
        raise ValueError("generators have inconsistent dimensions")
    if any(v == NEG_INF for g in gens for v in g):
        raise ValueError("generators must have finite coordinates")
    q = _check_point(x, dim)
    lam = tuple(min(q[k] - g[k] for k in range(dim)) for g in gens)
    combo = combine(lam, gens)
    if combo == q:
        return True, lam
    return False, None

