"""JSON interchange: one document kind per domain object.

Weights serialize as JSON numbers, -inf as the string "-inf" (JSON has no
infinity literal).  Atom tables are dense and listed in canonical point
order, so identical objects always serialize to identical bytes.  Points
of product-like spaces serialize as arrays of labels; since JSON object
keys must be strings, measures over such spaces switch from an atom
object to a list of [point, weight] pairs.

This module is the decoder.  schemas/document.schema.json describes the
same format for other tools; nothing here reads it.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

from .convexity import PointCloudSpace
from .core import (
    NEG_INF,
    FiniteFunction,
    FiniteSpace,
    Label,
    MetricSpace,
    ProductSpace,
    product_space,
)
from .functor import PointMap
from .measures import IdempotentMeasure
from .monad import OuterMeasure
from .openness import CoverPair, MilyutinLevel


class DocumentError(ValueError):
    """A document fails schema or cross-reference validation."""


def _label_text(label: Label) -> str:
    if isinstance(label, tuple):
        return "(" + "|".join(_label_text(p) for p in label) + ")"
    return str(label)


def _content_name(space: FiniteSpace) -> str:
    """Deterministic fallback name for an anonymous space: its point list."""
    return "{" + ",".join(_label_text(p) for p in space.points) + "}"


def encode_weight(w: float) -> Any:
    return "-inf" if w == NEG_INF else w


def decode_weight(v: Any) -> float:
    """A JSON number or "-inf"; the constructors reject NaN and +inf."""
    if v == "-inf":
        return NEG_INF
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise DocumentError(f"weights must be numbers or \"-inf\", got {v!r}")
    return _as_float(v)


def decode_value(v: Any) -> float:
    """A JSON number; the constructors reject NaN and infinities."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise DocumentError(f"function values must be numbers, got {v!r}")
    return _as_float(v)


def _as_float(v: int | float) -> float:
    try:
        return float(v)
    except OverflowError:
        raise DocumentError("a JSON integer is too large for a float") from None


def encode_label(label: Label) -> Any:
    if isinstance(label, tuple):
        return [encode_label(part) for part in label]
    return label


def decode_label(obj: Any) -> Label:
    if isinstance(obj, str):
        return obj
    if isinstance(obj, list) and obj:
        return tuple(decode_label(part) for part in obj)
    raise DocumentError(f"labels must be strings or nonempty arrays, got {obj!r}")


def _label_array(obj: Any, what: str) -> list[Label]:
    """A JSON array of labels; a string or an object is not read as one."""
    if not isinstance(obj, list):
        raise DocumentError(f"{what} must be an array of labels")
    return [decode_label(p) for p in obj]


def _try_product(points: Sequence[Label]) -> ProductSpace | None:
    if len(points) < 1 or not all(isinstance(p, tuple) for p in points):
        return None
    arity = {len(p) for p in points}  # type: ignore[arg-type]
    if len(arity) != 1:
        return None
    k = arity.pop()
    if k < 2:
        return None
    factors = [
        infer_space(list(dict.fromkeys(p[axis] for p in points)))  # type: ignore[index]
        for axis in range(k)
    ]
    candidate = product_space(*factors)
    if candidate.points == tuple(points):
        return candidate
    return None


def infer_space(points: Sequence[Label]) -> FiniteSpace:
    """Rebuild a space from an ordered point list, detecting full products."""
    pts = tuple(points)
    if len(set(pts)) != len(pts):
        raise DocumentError("duplicate points in a space")
    prod = _try_product(pts)
    return prod if prod is not None else FiniteSpace(pts)


@dataclass
class Context:
    """Named spaces shared by a set of documents."""

    spaces: dict[str, FiniteSpace] = field(default_factory=dict)

    def register(self, name: str, space: FiniteSpace) -> FiniteSpace:
        known = self.spaces.get(name)
        if known is None:
            self.spaces[name] = space
            return space
        if known.points != space.points:
            raise DocumentError(f"space {name!r} redefined with different points")
        return known

    def resolve(self, ref: Any, points: Sequence[Label] | None = None) -> FiniteSpace:
        """Resolve a space reference: an inline space, a known name, or a new
        name backed by `points`.  The points are used only for a new name;
        checking a table against a known space is left to `FiniteSpace.dense`.
        """
        if isinstance(ref, dict):
            name = ref.get("name", "X")
            pts = _label_array(ref.get("points"), "inline space points")
            return self.register(str(name), infer_space(pts))
        if not isinstance(ref, str):
            raise DocumentError(f"space references must be names, got {ref!r}")
        if ref in self.spaces:
            return self.spaces[ref]
        if points is None:
            raise DocumentError(f"unknown space {ref!r} and no points to derive it from")
        return self.register(ref, infer_space(list(points)))

    def name_of(self, space: FiniteSpace) -> str:
        for name, known in self.spaces.items():
            if known == space:
                return name
        if isinstance(space, ProductSpace):
            return "*".join(self.name_of(f) for f in space.factors)
        return _content_name(space)


def _named_space(obj: Mapping[str, Any], ctx: Context) -> FiniteSpace:
    """Register the space that a space or metric_space document names."""
    points = _label_array(obj.get("points"), f"{obj.get('kind')} document points")
    return ctx.register(str(obj.get("name", "X")), infer_space(points))


def build_context(objs: Sequence[Mapping[str, Any]]) -> Context:
    """First pass over a document set: register every named space."""
    ctx = Context()
    for obj in objs:
        if obj.get("kind") in ("space", "metric_space"):
            _named_space(obj, ctx)
    return ctx


def _require(obj: Mapping[str, Any], kind: str, *keys: str) -> None:
    if obj.get("kind") != kind:
        raise DocumentError(f"expected a {kind} document, got kind={obj.get('kind')!r}")
    for key in keys:
        if key not in obj:
            raise DocumentError(f"{kind} document is missing {key!r}")


def _entries(obj: Any, what: str) -> dict[Label, Any]:
    """Read a {point: x} object or a [[point, x], ...] list; no point twice."""
    if isinstance(obj, dict):
        pairs = [(decode_label(k), v) for k, v in obj.items()]
    elif isinstance(obj, list):
        if not all(isinstance(entry, list) and len(entry) == 2 for entry in obj):
            raise DocumentError(f"{what} lists contain [point, value] pairs")
        pairs = [(decode_label(p), v) for p, v in obj]
    else:
        raise DocumentError(f"{what} must be an object or a list of pairs")
    table: dict[Label, Any] = {}
    for p, v in pairs:
        if p in table:
            raise DocumentError(f"{what}: point {p!r} appears twice")
        table[p] = v
    return table


def _table(
    obj: Any, ctx: Context, ref: Any, entry: Callable[[Any], Any], what: str
) -> tuple[FiniteSpace, tuple]:
    """Decode a dense point table into a tuple in the canonical order of its space.

    The space reference is resolved with the table's points, so an unknown
    name takes the table's order.  A point named twice, a point outside the
    space and a point of the space the table leaves out are all errors.
    """
    table = _entries(obj, what)
    space = ctx.resolve(ref, list(table))
    return space, tuple(map(entry, space.dense(table, what)))


def _pairs_to_atoms(pairs: Sequence[tuple[Label, Any]]) -> Any:
    if all(isinstance(p, str) for p, _ in pairs):
        return {p: v for p, v in pairs}
    return [[encode_label(p), v] for p, v in pairs]


# ------------------------------------------------------------------ measures

def measure_doc(mu: IdempotentMeasure, ctx: Context | None = None) -> dict:
    name = (ctx or Context()).name_of(mu.space)
    pairs = [(p, encode_weight(w)) for p, w in zip(mu.space.points, mu.weights)]
    return {"kind": "measure", "space": name, "atoms": _pairs_to_atoms(pairs)}


def decode_measure(obj: Mapping[str, Any], ctx: Context) -> IdempotentMeasure:
    _require(obj, "measure", "space", "atoms")
    return IdempotentMeasure(*_table(obj["atoms"], ctx, obj["space"], decode_weight, "atoms"))


# ------------------------------------------------------------------ functions

def function_doc(phi: FiniteFunction, ctx: Context | None = None) -> dict:
    name = (ctx or Context()).name_of(phi.space)
    pairs = [(p, v) for p, v in zip(phi.space.points, phi.values)]
    return {"kind": "function", "space": name, "values": _pairs_to_atoms(pairs)}


def decode_function(obj: Mapping[str, Any], ctx: Context) -> FiniteFunction:
    _require(obj, "function", "space", "values")
    return FiniteFunction(*_table(obj["values"], ctx, obj["space"], decode_value, "values"))


# ------------------------------------------------------------------ spaces

def space_doc(space: FiniteSpace, name: str = "X") -> dict:
    return {"kind": "space", "name": name, "points": [encode_label(p) for p in space.points]}


def decode_space(obj: Mapping[str, Any], ctx: Context) -> FiniteSpace:
    _require(obj, "space")
    return _named_space(obj, ctx)


def metric_space_doc(ms: MetricSpace, name: str = "X") -> dict:
    return {
        "kind": "metric_space",
        "name": name,
        "points": [encode_label(p) for p in ms.space.points],
        "dist": [list(row) for row in ms.dist],
    }


def decode_metric_space(obj: Mapping[str, Any], ctx: Context) -> MetricSpace:
    _require(obj, "metric_space", "dist")
    dist = obj["dist"]
    if not isinstance(dist, list) or not all(isinstance(row, list) for row in dist):
        raise DocumentError("dist must be a matrix (list of rows)")
    rows = tuple(tuple(decode_value(v) for v in row) for row in dist)
    return MetricSpace(_named_space(obj, ctx), rows)


# ------------------------------------------------------------------ maps

def map_doc(f: PointMap, ctx: Context | None = None) -> dict:
    ctx = ctx or Context()
    pairs = [(x, encode_label(f.table[x])) for x in f.source.points]
    return {
        "kind": "map",
        "source": ctx.name_of(f.source),
        "target": ctx.name_of(f.target),
        "target_points": [encode_label(y) for y in f.target.points],
        "table": _pairs_to_atoms(pairs),
    }


def decode_map(obj: Mapping[str, Any], ctx: Context) -> PointMap:
    _require(obj, "map", "source", "target", "table")
    source, images = _table(obj["table"], ctx, obj["source"], decode_label, "table")
    if "target_points" in obj:
        target_points = _label_array(obj["target_points"], "target_points")
        target = ctx.resolve(obj["target"], target_points)
        target.dense(dict.fromkeys(target_points), "target_points")
    else:
        # a new target name takes the images; a known one need not be covered
        target = ctx.resolve(obj["target"], list(dict.fromkeys(images)))
    return PointMap(source, target, dict(zip(source.points, images)))


# ------------------------------------------------------------------ outer measures

def outer_doc(M: OuterMeasure, ctx: Context | None = None) -> dict:
    ctx = ctx or Context()
    return {
        "kind": "outer_measure",
        "space": ctx.name_of(M.base),
        "components": [
            {
                "weight": encode_weight(w),
                "atoms": measure_doc(m, ctx)["atoms"],
            }
            for w, m in zip(M.weights, M.inner)
        ],
    }


def decode_outer(obj: Mapping[str, Any], ctx: Context) -> OuterMeasure:
    _require(obj, "outer_measure", "space", "components")
    comps = obj["components"]
    if not isinstance(comps, list) or not comps:
        raise DocumentError("components must be a nonempty list")
    inner = []
    weights = []
    for comp in comps:
        if not isinstance(comp, dict) or "weight" not in comp or "atoms" not in comp:
            raise DocumentError("each component needs weight and atoms")
        space, atoms = _table(comp["atoms"], ctx, obj["space"], decode_weight, "atoms")
        inner.append(IdempotentMeasure(space, atoms))
        weights.append(decode_weight(comp["weight"]))
    return OuterMeasure(space, tuple(inner), tuple(weights))


# ------------------------------------------------------------------ couplings

def coupling_doc(mu: IdempotentMeasure, ctx: Context | None = None) -> dict:
    ctx = ctx or Context()
    sp = mu.space
    if not isinstance(sp, ProductSpace) or len(sp.factors) != 2:
        raise DocumentError("couplings live on two-factor products")
    rows, cols = sp.factors
    if not all(isinstance(p, str) for p in itertools.chain(rows.points, cols.points)):
        raise DocumentError("coupling documents need flat factor spaces")
    table = {
        x: {y: encode_weight(mu.weight((x, y))) for y in cols.points}
        for x in rows.points
    }
    return {
        "kind": "coupling",
        "rows": ctx.name_of(rows),
        "cols": ctx.name_of(cols),
        "table": table,
    }


def decode_coupling(obj: Mapping[str, Any], ctx: Context) -> IdempotentMeasure:
    _require(obj, "coupling", "rows", "cols", "table")
    table = obj["table"]
    if not isinstance(table, dict) or not all(isinstance(row, dict) for row in table.values()):
        raise DocumentError("coupling table must be a nested object")
    rows, row_tables = _table(table, ctx, obj["rows"], dict, "coupling rows")
    weights: list[float] = []
    for row in row_tables:
        cols, ws = _table(row, ctx, obj["cols"], decode_weight, "coupling columns")
        weights.extend(ws)
    return IdempotentMeasure(product_space(rows, cols), tuple(weights))


# ------------------------------------------------------------------ clouds

def cloud_doc(cloud: PointCloudSpace, ctx: Context | None = None) -> dict:
    ctx = ctx or Context()
    pairs = [(p, list(cloud.embed[p])) for p in cloud.space.points]
    return {"kind": "cloud", "space": ctx.name_of(cloud.space), "embed": _pairs_to_atoms(pairs)}


def _coords(v: Any) -> tuple[float, ...]:
    if not isinstance(v, list):
        raise DocumentError("cloud coordinates must be arrays")
    return tuple(decode_value(x) for x in v)


def decode_cloud(obj: Mapping[str, Any], ctx: Context) -> PointCloudSpace:
    _require(obj, "cloud", "space", "embed")
    space, coords = _table(obj["embed"], ctx, obj["space"], _coords, "embed")
    return PointCloudSpace(space, dict(zip(space.points, coords)))


# ------------------------------------------------------------------ cover levels

def cover_levels_doc(levels: Sequence[MilyutinLevel], space: FiniteSpace, name: str = "Y") -> dict:
    return {
        "kind": "cover_levels",
        "space": name,
        "levels": [
            [
                {
                    "U": [encode_label(u) for u in sorted(pair.U, key=_label_text)],
                    "V": [encode_label(v) for v in sorted(pair.V, key=_label_text)],
                    "alpha": _pairs_to_atoms(
                        [
                            (p, encode_weight(pair.alpha[p]))  # type: ignore[index]
                            for p in sorted(pair.alpha, key=_label_text)
                        ]
                    ),
                }
                for pair in level.pairs
            ]
            for level in levels
        ],
    }


def decode_cover_levels(obj: Mapping[str, Any], ctx: Context) -> list[MilyutinLevel]:
    _require(obj, "cover_levels", "levels")
    levels = obj["levels"]
    if not isinstance(levels, list) or not levels:
        raise DocumentError("levels must be a nonempty list")
    out = []
    for level in levels:
        if not isinstance(level, list) or not level:
            raise DocumentError("each level is a nonempty list of cover pairs")
        pairs = []
        for entry in level:
            if not isinstance(entry, dict) or "U" not in entry or "V" not in entry:
                raise DocumentError("each cover pair needs U and V")
            alpha = entry.get("alpha")
            if alpha is not None:
                alpha = {p: decode_weight(v) for p, v in _entries(alpha, "alpha").items()}
            U = frozenset(_label_array(entry["U"], "U"))
            V = frozenset(_label_array(entry["V"], "V"))
            pairs.append(CoverPair(U, V, alpha))
        out.append(MilyutinLevel(tuple(pairs)))
    return out


_DECODERS = {
    "space": decode_space,
    "metric_space": decode_metric_space,
    "measure": decode_measure,
    "map": decode_map,
    "function": decode_function,
    "outer_measure": decode_outer,
    "coupling": decode_coupling,
    "cloud": decode_cloud,
    "cover_levels": decode_cover_levels,
}


def decode(obj: Mapping[str, Any], ctx: Context, expect: str | None = None):
    """Decode one document; every validation failure raises DocumentError."""
    kind = obj.get("kind")
    if kind not in _DECODERS:
        raise DocumentError(f"unknown document kind {kind!r}")
    if expect is not None and kind != expect:
        raise DocumentError(f"expected a {expect} document, got {kind!r}")
    try:
        return _DECODERS[kind](obj, ctx)
    except DocumentError:
        raise
    except ValueError as exc:
        raise DocumentError(str(exc)) from None


def dumps(doc: Any) -> str:
    """Canonical serialization: stable key order, shortest float repr."""
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"
