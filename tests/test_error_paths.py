"""Input checks that no other test reaches, one table row each.

Library rows assert the exception type and its whole message.  CLI rows
run `cli.main` on documents written to a temporary directory and assert
the exit code, an empty stdout and the `error: …` line on stderr.
"""

import json
import math
import re

import pytest

import maslov.cli as cli
import maslov.io as mio
from maslov.convexity import PointCloudSpace, algebra_law_check, barycenter, hull_membership
from maslov.core import (
    NEG_INF,
    FiniteFunction,
    FiniteSpace,
    MetricSpace,
    metric_closure,
    odot,
    oplus,
    pointwise_max,
    product_space,
    space,
    weight_distance,
)
from maslov.functor import (
    PointMap,
    lies_in_subspace,
    lift_along_surjection,
    precompose,
    pushforward,
)
from maslov.measures import (
    IdempotentMeasure,
    convex_combination,
    dirac,
    integrate,
    normalize,
    pointwise_sup,
    support,
)
from maslov.laws import check_monad_laws
from maslov.metrics import dhat, dhat_oracle, grid_gap, inner_distance_table, maxmin_gap, outer_dtilde
from maslov.monad import (
    ClosedSet,
    FuzzySet,
    OuterMeasure,
    dirac_lift,
    flatten_measure,
    fuzzy_embed,
    hyperspace_embed,
    hyperspace_union,
    map_outer,
    marginal,
    outer_dirac,
    tensor,
    tensor_many,
)
from maslov.openness import (
    CollapseMap,
    CoverPair,
    MilyutinLevel,
    bicommutative_lift,
    coupling_feasible,
    coupling_gap,
    counterexample_instance,
    lift_open_surjection,
    milyutin_build,
    pattern_max_coupling,
)

X2 = space("ab")
Y2 = space("uv")
M2 = metric_closure(X2, [[0, 1], [1, 0]])
LEVEL = MilyutinLevel((CoverPair(frozenset("ab"), frozenset("ab")),))
ONTO = PointMap(X2, space("u"), {"a": "u", "b": "u"})
INTO = PointMap(space("a"), X2, {"a": "a"})
CLOUD = PointCloudSpace(X2, {"a": (0.0,), "b": (1.0,)})
PHI = FiniteFunction(X2, (0.0, 1.0))


def _three_with(x):
    """A table on three points whose entries between the first and last are x."""
    return [[0.0, 1.0, x], [1.0, 0.0, 1.0], [x, 1.0, 0.0]]


LIBRARY = {
    # core
    "space: numeric label": (
        lambda: FiniteSpace((5,)),
        ValueError, "labels must be strings or nonempty tuples of labels, got 5",
    ),
    "function: value count": (
        lambda: FiniteFunction(X2, (0.0,)),
        ValueError, "one value per point required",
    ),
    "pointwise max: two spaces": (
        lambda: pointwise_max(FiniteFunction(X2, (0.0, 0.0)), FiniteFunction(Y2, (0.0, 0.0))),
        ValueError, "functions live on different spaces",
    ),
    "function: text values": (
        lambda: FiniteFunction(X2, ("1e3", b"2")),
        TypeError, "function values must be numbers, got '1e3'",
    ),
    "function: bytes value": (
        lambda: FiniteFunction(X2, (0.0, bytearray(b"2"))),
        TypeError, "function values must be numbers, got bytearray(b'2')",
    ),
    "pointwise max: a measure": (
        lambda: pointwise_max(PHI, dirac(X2, "a")),
        TypeError, "a pointwise max's argument must be a FiniteFunction, got IdempotentMeasure",
    ),
    "metric: a list of points": (
        lambda: MetricSpace(["a", "b"], ((0, 1), (1, 0))),
        TypeError, "a metric space's point set must be a FiniteSpace, got list",
    ),
    "closure: a string of points": (
        lambda: metric_closure("ab", [[0, 1], [1, 0]]),
        TypeError, "a metric closure's point set must be a FiniteSpace, got str",
    ),
    "metric: text distances": (
        lambda: MetricSpace(X2, (("0", "1"), ("1", "0"))),
        TypeError, "distances must be numbers",
    ),
    "metric: text rows": (
        lambda: MetricSpace(X2, ("01", "10")),
        TypeError, "distances must be numbers",
    ),
    "metric: bytes rows": (
        lambda: MetricSpace(X2, (b"\x00\x01", b"\x01\x00")),
        TypeError, "distances must be numbers",
    ),
    # metric_closure reads its table through MetricSpace's check, so it
    # raises MetricSpace's errors, the first defect in row-major order
    # (the diagonal first in each row) deciding the message
    "closure: not square": (
        lambda: metric_closure(X2, [[0.0]]),
        ValueError, "distance table must be square over the space",
    ),
    "closure: nonzero diagonal": (
        lambda: metric_closure(X2, [[1.0, 1.0], [1.0, 0.0]]),
        ValueError, "distance from a point to itself must be 0",
    ),
    "closure: zero off the diagonal": (
        lambda: metric_closure(X2, [[0, 0], [0, 0]]),
        ValueError, "distinct points must be at positive distance",
    ),
    "closure: -0.0 off the diagonal": (
        lambda: metric_closure(X2, [[0.0, -0.0], [-0.0, 0.0]]),
        ValueError, "distinct points must be at positive distance",
    ),
    # the nonzero diagonal at (0, 0) comes first
    "closure: asymmetric, nonzero diagonal and a zero": (
        lambda: metric_closure(space("abc"), [[1, 0, 2], [0, 0, 1], [2, 3, 0]]),
        ValueError, "distance from a point to itself must be 0",
    ),
    # the zero at (0, 1) comes before the nonzero diagonal at (1, 1)
    "closure: nonzero diagonal and a zero": (
        lambda: metric_closure(space("abc"), [[0, 0, 2], [0, 1, 1], [2, 1, 0]]),
        ValueError, "distinct points must be at positive distance",
    ),
    "closure: text distances": (
        lambda: metric_closure(X2, [["0", "1"], ["1", "0"]]),
        TypeError, "distances must be numbers",
    ),
    "closure: bytes rows": (
        lambda: metric_closure(X2, [b"\x00\x01", b"\x01\x00"]),
        TypeError, "distances must be numbers",
    ),
    "function: text constant": (
        lambda: FiniteFunction.constant(X2, "1"),
        TypeError, "function values must be numbers, got '1'",
    ),
    # measures
    "measure: weight count": (
        lambda: IdempotentMeasure(X2, (0.0,)),
        ValueError, "one weight per point required",
    ),
    # text as the table is rejected whole, as `_floats` rejects a text row
    "measure: text weights": (
        lambda: IdempotentMeasure(X2, "00"),
        TypeError, "weights must be numbers, got '00'",
    ),
    "normalize: text weights": (
        lambda: normalize(X2, ["3", "-inf"]),
        TypeError, "weights must be numbers, got '3'",
    ),
    "normalize: not a space": (
        lambda: normalize("ab", [0.0, -1.0]),
        TypeError, "a normalized measure's space must be a FiniteSpace, got str",
    ),
    "dirac: not a space": (
        lambda: dirac("ab", "a"),
        TypeError, "a Dirac measure's space must be a FiniteSpace, got str",
    ),
    "dirac: a list for a point": (
        lambda: dirac(X2, []),
        ValueError, "unknown point []",
    ),
    # an unhashable label is no point: the library's message, not Python's
    "dirac: a list in a product point": (
        lambda: dirac(product_space(X2, X2), ([], "a")),
        ValueError, "unknown point ([], 'a')",
    ),
    "dirac: a list in a nested product point": (
        lambda: dirac(product_space(X2, product_space(X2, Y2)), ("a", ([], "u"))),
        ValueError, "unknown point ('a', ([], 'u'))",
    ),
    "closed set: a list for a point": (
        lambda: ClosedSet(X2, [[]]),
        ValueError, "closed set: points outside the space [[]]",
    ),
    "subspace: a list for a point": (
        lambda: lies_in_subspace(dirac(X2, "a"), [[]]),
        ValueError, "subspace: points outside the space [[]]",
    ),
    "map: preimage of a list": (
        lambda: ONTO.preimage([[]]),
        ValueError, "preimage: points outside the space [[]]",
    ),
    "map: image of a list": (
        lambda: ONTO.image([[]]),
        ValueError, "image: points outside the space [[]]",
    ),
    "map: a list for a value": (
        lambda: PointMap(X2, Y2, {"a": "u", "b": []}),
        ValueError, "map values: points outside the space [[]]",
    ),
    "integrate: a function for the measure": (
        lambda: integrate(PHI, dirac(X2, "a")),
        TypeError, "an integrated measure must be an IdempotentMeasure, got FiniteFunction",
    ),
    "integrate: a measure for the function": (
        lambda: integrate(dirac(X2, "a"), dirac(X2, "a")),
        TypeError, "an integrated function must be a FiniteFunction, got IdempotentMeasure",
    ),
    "support: a function": (
        lambda: support(PHI),
        TypeError, "a support's argument must be an IdempotentMeasure, got FiniteFunction",
    ),
    "convex combination: a function": (
        lambda: convex_combination(0.0, PHI, -1.0, dirac(X2, "a")),
        TypeError, "a combined measure must be an IdempotentMeasure, got FiniteFunction",
    ),
    "sup: a function": (
        lambda: pointwise_sup([PHI]),
        TypeError, "a member of a sup must be an IdempotentMeasure, got FiniteFunction",
    ),
    "normalize: weight count": (
        lambda: normalize(X2, [0.0]),
        ValueError, "one weight per point required",
    ),
    "convex combination: two spaces": (
        lambda: convex_combination(0.0, dirac(X2, "a"), 0.0, dirac(Y2, "u")),
        ValueError, "measures live on different spaces",
    ),
    "sup: two spaces": (
        lambda: pointwise_sup([dirac(X2, "a"), dirac(Y2, "u")]),
        ValueError, "measures live on different spaces",
    ),
    # functor
    "map: call off the source": (
        lambda: ONTO("z"),
        ValueError, "unknown point 'z'",
    ),
    "map: compose mismatched": (
        lambda: ONTO.then(ONTO),
        ValueError, "composition mismatch: inner target differs from outer source",
    ),
    "map: fiber off the target": (
        lambda: ONTO.fiber("z"),
        ValueError, "unknown point 'z'",
    ),
    "pushforward: measure off the source": (
        lambda: pushforward(ONTO, dirac(Y2, "u")),
        ValueError, "measure does not live on the source of the map",
    ),
    "precompose: function off the target": (
        lambda: precompose(FiniteFunction(X2, (0.0, 0.0)), ONTO),
        ValueError, "function does not live on the target of the map",
    ),
    "precompose: a measure": (
        lambda: precompose(dirac(space("u"), "u"), ONTO),
        TypeError, "a precomposed function must be a FiniteFunction, got IdempotentMeasure",
    ),
    "precompose: a table for the map": (
        lambda: precompose(FiniteFunction(space("u"), (0.0,)), {"a": "u", "b": "u"}),
        TypeError, "a precomposing map must be a PointMap, got dict",
    ),
    "lift: a function": (
        lambda: lift_along_surjection(ONTO, FiniteFunction(space("u"), (0.0,))),
        TypeError, "a lifted measure must be an IdempotentMeasure, got FiniteFunction",
    ),
    "lift: measure off the target": (
        lambda: lift_along_surjection(ONTO, dirac(X2, "a")),
        ValueError, "measure does not live on the target of the map",
    ),
    # convexity
    "hull: NaN coordinate": (
        lambda: hull_membership([(math.nan,)], (0.0,)),
        ValueError, "coordinates must be reals or -inf",
    ),
    "hull: no generator": (
        lambda: hull_membership([], (0.0,)),
        ValueError, "need at least one generator",
    ),
    "hull: mixed dimensions": (
        lambda: hull_membership([(0.0,), (0.0, 1.0)], (0.0,)),
        ValueError, "generators have inconsistent dimensions",
    ),
    "hull: text coordinates": (
        lambda: hull_membership([("1",)], ("1",)),
        TypeError, "coordinates must be numbers",
    ),
    "hull: a bytes point": (
        lambda: hull_membership([(1.0,)], b"\x01"),
        TypeError, "coordinates must be numbers",
    ),
    "cloud: text coordinates": (
        lambda: PointCloudSpace(X2, {"a": ("1",), "b": ("2",)}),
        TypeError, "cloud coordinates must be numbers",
    ),
    "cloud: a text point": (
        lambda: PointCloudSpace(X2, {"a": "1", "b": "2"}),
        TypeError, "cloud coordinates must be numbers",
    ),
    "cloud: a bytes point": (
        lambda: PointCloudSpace(X2, {"a": b"1", "b": b"2"}),
        TypeError, "cloud coordinates must be numbers",
    ),
    "cloud: a non-numeric text point": (
        lambda: PointCloudSpace(X2, {"a": "x", "b": "y"}),
        TypeError, "cloud coordinates must be numbers",
    ),
    # float() parses a memoryview of text, as it parses bytes
    "cloud: a memoryview coordinate": (
        lambda: PointCloudSpace(X2, {"a": (0.0,), "b": (memoryview(b"1"),)}),
        TypeError, "cloud coordinates must be numbers",
    ),
    "cloud: mixed dimensions": (
        lambda: PointCloudSpace(X2, {"a": (0.0,), "b": (0.0, 1.0)}),
        ValueError, "inconsistent coordinate dimensions",
    ),
    # the cloud reads a label as the space does
    **{
        f"cloud point: {name}": (
            lambda label=label: CLOUD.point(label), ValueError, f"unknown point {label!r}",
        )
        for name, label in (("label outside", "z"), ("a tuple", ("a",)), ("an array", []))
    },
    "barycenter: measure off the cloud": (
        lambda: barycenter(CLOUD, dirac(Y2, "u")),
        ValueError, "measure does not live on the cloud's space",
    ),
    "algebra law: outer measure off the cloud": (
        lambda: algebra_law_check(CLOUD, OuterMeasure(Y2, (dirac(Y2, "u"),), (0.0,))),
        ValueError, "outer measure does not live over the cloud's space",
    ),
    # metrics
    "grid: table sizes": (
        lambda: grid_gap([[0.0]], 1, [0.0, 0.0], [0.0, 0.0], radius=1.0),
        ValueError, "inconsistent table sizes",
    ),
    "grid: no finite weight on the first side": (
        lambda: grid_gap([[0.0, 1.0], [1.0, 0.0]], 1, [NEG_INF, NEG_INF], [0.0, -1.0], radius=1.0),
        ValueError, "weight vectors must each have a finite entry",
    ),
    "grid: no finite weight on the second side": (
        lambda: grid_gap([[0.0]], 1, [0.0], [NEG_INF], radius=1.0),
        ValueError, "weight vectors must each have a finite entry",
    ),
    "grid: cells past the cap": (
        # 2k + 1 = 2003 cells on each of two axes, k = floor(1.001 / 0.001)
        lambda: grid_gap(
            [[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]], 1,
            [0.0, 0.0, 0.0], [0.0, 0.0, 0.0], step=0.001, radius=10.0,
        ),
        ValueError, "oracle grid has 4012009 cells, above the cap 4000000",
    ),
    # a short weight vector once read a corner of the table, and a long one
    # raised IndexError
    "maxmin: a short weight vector": (
        lambda: maxmin_gap([[0, 1], [1, 0]], 1, [0.0], [0.0, -1.0]),
        ValueError, "inconsistent table sizes",
    ),
    "maxmin: weights longer than the table": (
        lambda: maxmin_gap([[0, 1], [1, 0]], 1, [0.0, -1.0, 0.0], [0.0, -1.0, 0.0]),
        ValueError, "inconsistent table sizes",
    ),
    # the table is checked in MetricSpace's words: a NaN or -inf entry
    # outside both supports once gave a NaN gap, and a table that is not
    # symmetric was read back over its transpose
    "maxmin: a NaN distance off the supports": (
        lambda: maxmin_gap(_three_with(math.nan), 1, [0.0, NEG_INF, NEG_INF], [NEG_INF, 0.0, NEG_INF]),
        ValueError, "distances must be finite and nonnegative",
    ),
    "maxmin: a -inf distance off the supports": (
        lambda: maxmin_gap(_three_with(NEG_INF), 1, [0.0, NEG_INF, NEG_INF], [NEG_INF, 0.0, NEG_INF]),
        ValueError, "distances must be finite and nonnegative",
    ),
    "maxmin: a +inf distance": (
        lambda: maxmin_gap(_three_with(math.inf), 1, [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]),
        ValueError, "distances must be finite and nonnegative",
    ),
    "maxmin: a negative distance": (
        lambda: maxmin_gap(_three_with(-1.0), 1, [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]),
        ValueError, "distances must be finite and nonnegative",
    ),
    "maxmin: a table that is not symmetric": (
        lambda: maxmin_gap([[0, 1], [2, 0]], 1, [0.0, -1.0], [-1.0, 0.0]),
        ValueError, "distance table must be symmetric",
    ),
    # the weights are read as measure weights and n as dhat's n: text
    # weights once gave 0.0, a NaN weight a NaN gap, a +inf weight the
    # overflow error, and n of nan or -1 a gap of nan or -1.0
    "maxmin: text weights": (
        lambda: maxmin_gap([[0, 1], [1, 0]], 1, ["0", "-1"], [0.0, -1.0]),
        TypeError, "weights must be numbers, got '0'",
    ),
    "maxmin: bytes weights": (
        lambda: maxmin_gap([[0, 1], [1, 0]], 1, [0.0, -1.0], [b"0", b"-1"]),
        TypeError, "weights must be numbers, got b'0'",
    ),
    "maxmin: a NaN weight": (
        lambda: maxmin_gap([[0, 1], [1, 0]], 1, [0.0, math.nan], [0.0, -1.0]),
        ValueError, "NaN is not a max-plus weight",
    ),
    "maxmin: a +inf weight": (
        lambda: maxmin_gap([[0, 1], [1, 0]], 1, [0.0, -1.0], [math.inf, 0.0]),
        ValueError, "+inf is not a max-plus weight",
    ),
    "maxmin: n of nan": (
        lambda: maxmin_gap([[0, 1], [1, 0]], math.nan, [0.0, -1.0], [-1.0, 0.0]),
        ValueError, "the Lipschitz class bound n must be a positive integer",
    ),
    "maxmin: n of -1": (
        lambda: maxmin_gap([[0, 1], [1, 0]], -1, [0.0, -1.0], [-1.0, 0.0]),
        ValueError, "the Lipschitz class bound n must be a positive integer",
    ),
    "maxmin: n past the float range": (
        lambda: maxmin_gap([[0, 1], [1, 0]], 10**400, [0.0, -1.0], [-1.0, 0.0]),
        ValueError, "the Lipschitz class bound n is too large for a float",
    ),
    "maxmin: text distances": (
        lambda: maxmin_gap([["0", "1"], ["1", "0"]], 1, [0.0, -1.0], [-1.0, 0.0]),
        TypeError, "distances must be numbers",
    ),
    "grid: text weights": (
        lambda: grid_gap([[0.0, 1.0], [1.0, 0.0]], 1, ["0", "-1"], [0.0, -1.0], radius=1.0),
        TypeError, "weights must be numbers, got '0'",
    ),
    "grid: a NaN weight": (
        lambda: grid_gap([[0.0, 1.0], [1.0, 0.0]], 1, [0.0, -1.0], [0.0, math.nan], radius=1.0),
        ValueError, "NaN is not a max-plus weight",
    ),
    "grid: n of -1": (
        lambda: grid_gap([[0.0, 1.0], [1.0, 0.0]], -1, [0.0, -1.0], [-1.0, 0.0], radius=1.0),
        ValueError, "the Lipschitz class bound n must be a positive integer",
    ),
    "grid: a table that is not symmetric": (
        lambda: grid_gap([[0.0, 1.0], [2.0, 0.0]], 1, [0.0, -1.0], [-1.0, 0.0], radius=1.0),
        ValueError, "distance table must be symmetric",
    ),
    "inner distance table: n of 0, one measure": (
        lambda: inner_distance_table(0, M2, [dirac(X2, "a")]),
        ValueError, "the Lipschitz class bound n must be a positive integer",
    ),
    "inner distance table: n of 0, no measure": (
        lambda: inner_distance_table(0, M2, []),
        ValueError, "the Lipschitz class bound n must be a positive integer",
    ),
    "inner distance table: n past the float range, one measure": (
        lambda: inner_distance_table(10**400, M2, [dirac(X2, "a")]),
        ValueError, "the Lipschitz class bound n is too large for a float",
    ),
    "inner distance table: one measure off the metric": (
        lambda: inner_distance_table(1, M2, [dirac(Y2, "u")]),
        ValueError, "measures must live on the metric space's point set",
    ),
    "outer dtilde: base off the metric": (
        lambda: outer_dtilde(1, M2, OuterMeasure(Y2, (dirac(Y2, "u"),), (0.0,)),
                             OuterMeasure(X2, (dirac(X2, "a"),), (0.0,))),
        ValueError, "outer measures must live over the metric space's point set",
    ),
    # monad
    "outer: text weights": (
        lambda: OuterMeasure(X2, (dirac(X2, "a"),), ("0",)),
        TypeError, "weights must be numbers, got '0'",
    ),
    "outer dirac: a function": (
        lambda: outer_dirac(PHI),
        TypeError, "an inner component must be an IdempotentMeasure, got FiniteFunction",
    ),
    "dirac lift: a function": (
        lambda: dirac_lift(PHI),
        TypeError, "an inner component must be an IdempotentMeasure, got FiniteFunction",
    ),
    "map outer: a measure": (
        lambda: map_outer(ONTO, dirac(X2, "a")),
        TypeError, "a mapped outer measure must be an OuterMeasure, got IdempotentMeasure",
    ),
    "map outer: a table for the map": (
        lambda: map_outer({"a": "u"}, OuterMeasure(X2, (dirac(X2, "a"),), (0.0,))),
        TypeError, "a map of outer measures must be a PointMap, got dict",
    ),
    "hyperspace embed: a frozenset": (
        lambda: hyperspace_embed(frozenset("a")),
        TypeError, "an embedded set must be a ClosedSet, got frozenset",
    ),
    "fuzzy embed: a measure": (
        lambda: fuzzy_embed(dirac(X2, "a")),
        TypeError, "an embedded fuzzy set must be a FuzzySet, got IdempotentMeasure",
    ),
    "outer: an int for the components": (
        lambda: OuterMeasure(X2, 5, (0.0,)),
        TypeError, "inner components must be a sequence of measures, got 5",
    ),
    "outer: no component": (
        lambda: OuterMeasure(X2, (), ()),
        ValueError, "an outer measure needs at least one component",
    ),
    "outer: weight count": (
        lambda: OuterMeasure(X2, (dirac(X2, "a"),), (0.0, -1.0)),
        ValueError, "one weight per inner measure required",
    ),
    "outer: mixed bases": (
        lambda: OuterMeasure(X2, (dirac(Y2, "u"),), (0.0,)),
        ValueError, "inner measures must share the base space",
    ),
    "outer: not normalized": (
        lambda: OuterMeasure(X2, (dirac(X2, "a"),), (-1.0,)),
        ValueError, "outer measure is not normalized: maximum weight must be 0",
    ),
    "tensor_many: one factor": (
        lambda: tensor_many([dirac(X2, "a")]),
        ValueError, "tensor_many needs at least two measures",
    ),
    "flatten: flat space": (
        lambda: flatten_measure(dirac(X2, "a")),
        ValueError, "only measures on product spaces can be flattened",
    ),
    "marginal: a bool axis": (
        lambda: marginal(tensor(dirac(X2, "a"), dirac(Y2, "u")), True),
        TypeError, "axis must be an int, got bool",
    ),
    "marginal: a float axis": (
        lambda: marginal(tensor(dirac(X2, "a"), dirac(Y2, "u")), 1.0),
        TypeError, "axis must be an int, got float",
    ),
    "closed set: empty": (
        lambda: ClosedSet(X2, frozenset()),
        ValueError, "closed sets are nonempty",
    ),
    "closed set: an int for the members": (
        lambda: ClosedSet(X2, 5),
        TypeError, "closed set: points must be a collection of labels, got 5",
    ),
    "union: two spaces": (
        lambda: hyperspace_union([ClosedSet(X2, frozenset("a")), ClosedSet(Y2, frozenset("u"))]),
        ValueError, "sets live on different spaces",
    ),
    "map outer: base off the source": (
        lambda: map_outer(ONTO, OuterMeasure(Y2, (dirac(Y2, "u"),), (0.0,))),
        ValueError, "outer measure does not live over the source of the map",
    ),
    "fuzzy: grade count": (
        lambda: FuzzySet(X2, (1.0,)),
        ValueError, "one grade per point required",
    ),
    "fuzzy: text grades": (
        lambda: FuzzySet(X2, ("1", "0")),
        TypeError, "grades must be numbers",
    ),
    "fuzzy: bytes grades": (
        lambda: FuzzySet(X2, b"\x01\x00"),
        TypeError, "grades must be numbers",
    ),
    # openness
    "cover pair: empty U": (
        lambda: CoverPair(frozenset(), frozenset("a")),
        ValueError, "U must be nonempty",
    ),
    "cover pair: U outside V": (
        lambda: CoverPair(frozenset("ab"), frozenset("a")),
        ValueError, "U must be contained in V",
    ),
    "cover pair: alpha outside V": (
        lambda: CoverPair(frozenset("a"), frozenset("a"), {"z": 0.0}),
        ValueError, "alpha defined outside V: ['z']",
    ),
    "cover pair: positive alpha": (
        lambda: CoverPair(frozenset("a"), frozenset("ab"), {"b": 1.0}),
        ValueError, "alpha must be nonpositive",
    ),
    "cover pair: alpha below 0 on U": (
        lambda: CoverPair(frozenset("a"), frozenset("ab"), {"a": -1.0}),
        ValueError, "alpha must be exactly 0 on U",
    ),
    "level: no pair": (
        lambda: MilyutinLevel(()),
        ValueError, "a level needs at least one cover pair",
    ),
    "lift: anchor off the source": (
        lambda: lift_open_surjection(ONTO, dirac(Y2, "u"), []),
        ValueError, "anchor measure does not live on the source",
    ),
    "lift: not onto": (
        lambda: lift_open_surjection(INTO, dirac(space("a"), "a"), []),
        ValueError, "lift requires a surjective map",
    ),
    "lift: sequence off the target": (
        lambda: lift_open_surjection(ONTO, dirac(X2, "a"), [dirac(X2, "a")]),
        ValueError, "sequence measures must live on the target",
    ),
    "lift: a table for a map": (
        lambda: lift_open_surjection(ONTO.table, dirac(X2, "a"), []),
        TypeError, "a lifting map must be a PointMap, got dict",
    ),
    "lift: a function for an anchor": (
        lambda: lift_open_surjection(ONTO, PHI, []),
        TypeError, "an anchor measure must be an IdempotentMeasure, got FiniteFunction",
    ),
    "lift: a map in the sequence": (
        lambda: lift_open_surjection(ONTO, dirac(X2, "a"), [ONTO]),
        TypeError, "a sequence measure must be an IdempotentMeasure, got PointMap",
    ),
    "bicommute: measure off the source": (
        lambda: bicommutative_lift(CollapseMap(ONTO), dirac(Y2, "u"), dirac(Y2, "u")),
        ValueError, "measure does not live on the source",
    ),
    "bicommute: not onto": (
        lambda: bicommutative_lift(INTO, dirac(space("a"), "a"), dirac(product_space(X2, X2), ("a", "a"))),
        ValueError, "lift requires a surjective map",
    ),
    "bicommute: ints for the measures": (
        lambda: bicommutative_lift(ONTO, 5, 5),
        TypeError, "a source measure must be an IdempotentMeasure, got int",
    ),
    "gap: ints for the measures": (
        lambda: coupling_gap(5, 5, 5),
        TypeError, "a marginal must be an IdempotentMeasure, got int",
    ),
    "coupling: ints for the measures": (
        lambda: coupling_feasible(5, 5, 5),
        TypeError, "a coupling must be an IdempotentMeasure, got int",
    ),
    "gap: target off the product": (
        lambda: coupling_gap(dirac(X2, "a"), dirac(Y2, "u"), dirac(X2, "a")),
        ValueError, "target must live on the product of the marginal spaces",
    ),
    "coupling: flat space": (
        lambda: coupling_feasible(dirac(X2, "a"), dirac(X2, "a"), dirac(Y2, "u")),
        ValueError, "a coupling lives on a two-factor product space",
    ),
    "coupling: other factors": (
        lambda: coupling_feasible(
            tensor(dirac(Y2, "u"), dirac(X2, "a")), dirac(X2, "a"), dirac(Y2, "u")
        ),
        ValueError, "coupling factors differ from the marginal spaces",
    ),
    "milyutin: depth 0": (
        lambda: milyutin_build(M2, [LEVEL], 0),
        ValueError, "depth must be at least 1",
    ),
    "milyutin: a level for a cover pair": (
        lambda: milyutin_build(M2, [MilyutinLevel((LEVEL,))], 1),
        TypeError, "a cover pair must be a CoverPair, got MilyutinLevel",
    ),
    "cap coupling: a function": (
        lambda: pattern_max_coupling(None, PHI, dirac(Y2, "u")),
        TypeError, "a marginal must be an IdempotentMeasure, got FiniteFunction",
    ),
    # an integer parameter is an int, never a bool: a bool or a non-int
    # gets the site's bound error
    "dhat: n of True": (
        lambda: dhat(True, M2, dirac(X2, "a"), dirac(X2, "b")),
        ValueError, "the Lipschitz class bound n must be a positive integer",
    ),
    "maxmin: n of True": (
        lambda: maxmin_gap([[0, 1], [1, 0]], True, [0.0, -1.0], [-1.0, 0.0]),
        ValueError, "the Lipschitz class bound n must be a positive integer",
    ),
    "milyutin: depth True": (
        lambda: milyutin_build(M2, [LEVEL], True),
        ValueError, "depth must be at least 1",
    ),
    "milyutin: depth 1.5": (
        lambda: milyutin_build(M2, [LEVEL, LEVEL], 1.5),
        ValueError, "depth must be at least 1",
    ),
    "milyutin: depth None": (
        lambda: milyutin_build(M2, [LEVEL], None),
        ValueError, "depth must be at least 1",
    ),
    "laws: cases True": (
        lambda: check_monad_laws(cases=True),
        ValueError, "cases must be at least 1, got True",
    ),
    "laws: cases 2.5": (
        lambda: check_monad_laws(cases=2.5),
        ValueError, "cases must be at least 1, got 2.5",
    ),
    "laws: max_points True": (
        lambda: check_monad_laws(max_points=True),
        ValueError, "max_points must be at least 1, got True",
    ),
    # a flat table once leaked "'int' object is not iterable"
    "metric: a flat table": (
        lambda: MetricSpace(X2, [0, 1]),
        TypeError, "distances must be numbers",
    ),
    "closure: a flat table": (
        lambda: metric_closure(X2, [0, 1]),
        TypeError, "distances must be numbers",
    ),
    "maxmin: a flat table": (
        lambda: maxmin_gap([0, 1], 1, [0.0, -1.0], [-1.0, 0.0]),
        TypeError, "distances must be numbers",
    ),
    "cloud: numbers for points": (
        lambda: PointCloudSpace(X2, {"a": 0, "b": 1}),
        TypeError, "cloud coordinates must be numbers",
    ),
    "fuzzy: a number for the grades": (
        lambda: FuzzySet(X2, 5),
        TypeError, "grades must be numbers",
    ),
    "hull: a number for the generators": (
        lambda: hull_membership(5, (0.0,)),
        TypeError, "coordinates must be numbers",
    ),
    # a table that is not iterable once leaked Python's message, and bytes
    # were read as their byte values
    "measure: a number for the weights": (
        lambda: IdempotentMeasure(X2, 5),
        TypeError, "weights must be numbers, got 5",
    ),
    "measure: bytes weights": (
        lambda: IdempotentMeasure(X2, b"\x00\x00"),
        TypeError, "weights must be numbers, got b'\\x00\\x00'",
    ),
    "normalize: a number for the weights": (
        lambda: normalize(X2, 5),
        TypeError, "weights must be numbers, got 5",
    ),
    "function: None for the values": (
        lambda: FiniteFunction(X2, None),
        TypeError, "function values must be numbers, got None",
    ),
    "maxmin: None for the table": (
        lambda: maxmin_gap(None, 1, [0.0, -1.0], [-1.0, 0.0]),
        TypeError, "distances must be numbers",
    ),
    "maxmin: None for a weight vector": (
        lambda: maxmin_gap([[0, 1], [1, 0]], 1, None, [-1.0, 0.0]),
        TypeError, "weights must be numbers, got None",
    ),
    # a space of another class once built a value whose later reads raised
    # AttributeError, or leaked AttributeError or another check's message
    "measure: a string for the space": (
        lambda: IdempotentMeasure("ab", (0.0, -1.0)),
        TypeError, "a measure's space must be a FiniteSpace, got str",
    ),
    "function: a string for the space": (
        lambda: FiniteFunction("ab", (0.0, 1.0)),
        TypeError, "a function's space must be a FiniteSpace, got str",
    ),
    "fuzzy: a string for the space": (
        lambda: FuzzySet("ab", (1.0, 0.5)),
        TypeError, "a fuzzy set's space must be a FiniteSpace, got str",
    ),
    "outer: a string for the base": (
        lambda: OuterMeasure("ab", (dirac(X2, "a"),), (0.0,)),
        TypeError, "an outer measure's base must be a FiniteSpace, got str",
    ),
    "closed set: a string for the space": (
        lambda: ClosedSet("ab", {"a"}),
        TypeError, "a closed set's space must be a FiniteSpace, got str",
    ),
    "cloud: a string for the space": (
        lambda: PointCloudSpace("ab", {"a": (0.0,), "b": (1.0,)}),
        TypeError, "a cloud's space must be a FiniteSpace, got str",
    ),
    "map: a tuple for the source": (
        lambda: PointMap(X2.points, Y2, {"a": "u", "b": "v"}),
        TypeError, "a map's source must be a FiniteSpace, got tuple",
    ),
    "map: a string for the target": (
        lambda: PointMap(X2, "uv", {"a": "u", "b": "v"}),
        TypeError, "a map's target must be a FiniteSpace, got str",
    ),
    # a metric, measure, cloud or outer measure of another class once
    # leaked AttributeError
    "dhat: a space for the metric": (
        lambda: dhat(1, X2, dirac(X2, "a"), dirac(X2, "a")),
        TypeError, "a dual distance's metric must be a MetricSpace, got FiniteSpace",
    ),
    "dhat: a function for a measure": (
        lambda: dhat(1, M2, PHI, dirac(X2, "a")),
        TypeError, "a compared measure must be an IdempotentMeasure, got FiniteFunction",
    ),
    "dhat oracle: a function for a measure": (
        lambda: dhat_oracle(1, M2, PHI, dirac(X2, "a")),
        TypeError, "a compared measure must be an IdempotentMeasure, got FiniteFunction",
    ),
    "inner distance table: a function for a measure": (
        lambda: inner_distance_table(1, M2, [PHI]),
        TypeError, "a compared measure must be an IdempotentMeasure, got FiniteFunction",
    ),
    "outer dtilde: a measure for the first outer measure": (
        lambda: outer_dtilde(1, M2, dirac(X2, "a"), OuterMeasure(X2, (dirac(X2, "a"),), (0.0,))),
        TypeError, "an outer dtilde's argument must be an OuterMeasure, got IdempotentMeasure",
    ),
    "outer dtilde: a measure for the second outer measure": (
        lambda: outer_dtilde(1, M2, OuterMeasure(X2, (dirac(X2, "a"),), (0.0,)), dirac(X2, "a")),
        TypeError, "an outer dtilde's argument must be an OuterMeasure, got IdempotentMeasure",
    ),
    "barycenter: a space for the cloud": (
        lambda: barycenter(X2, dirac(X2, "a")),
        TypeError, "a barycenter's cloud must be a PointCloudSpace, got FiniteSpace",
    ),
    "barycenter: a function for the measure": (
        lambda: barycenter(CLOUD, PHI),
        TypeError, "a barycenter's measure must be an IdempotentMeasure, got FiniteFunction",
    ),
    "algebra law: a space for the cloud": (
        lambda: algebra_law_check(X2, OuterMeasure(X2, (dirac(X2, "a"),), (0.0,))),
        TypeError, "an algebra law's cloud must be a PointCloudSpace, got FiniteSpace",
    ),
    "algebra law: a measure for the outer measure": (
        lambda: algebra_law_check(CLOUD, dirac(X2, "a")),
        TypeError, "an algebra law's outer measure must be an OuterMeasure, got IdempotentMeasure",
    ),
}

# Every reader of a number, given a bool, None, a container and an int past
# the float range: the site's TypeError for the first three and one
# ValueError for the last, never OverflowError or Python's own message.
HUGE = 10**400
BAD_NUMBERS = {"True": True, "None": None, "[0]": [0], "10**400": HUGE}
_WEIGHTS = "weights must be numbers, got {!r}"
_VALUES = "function values must be numbers, got {!r}"
_DISTANCES = "distances must be numbers"
# name: (a call that reads x as a number, its TypeError message for x)
NUMBER_READERS = {
    "measure": (lambda x: IdempotentMeasure(X2, (0.0, x)), _WEIGHTS),
    "normalize": (lambda x: normalize(X2, [x, 0.0]), _WEIGHTS),
    "outer weight": (
        lambda x: OuterMeasure(X2, (dirac(X2, "a"), dirac(X2, "b")), (0.0, x)), _WEIGHTS,
    ),
    "convex combination": (
        lambda x: convex_combination(x, dirac(X2, "a"), 0.0, dirac(X2, "b")), _WEIGHTS,
    ),
    "oplus": (lambda x: oplus(x, 0.0), _WEIGHTS),
    "odot": (lambda x: odot(0.0, x), _WEIGHTS),
    "weight distance": (lambda x: weight_distance(x, 0.0), _WEIGHTS),
    "cover pair alpha": (lambda x: CoverPair(frozenset("a"), frozenset("ab"), {"b": x}), _WEIGHTS),
    "maxmin weight": (lambda x: maxmin_gap([[0, 1], [1, 0]], 1, [0.0, x], [0.0, -1.0]), _WEIGHTS),
    "function": (lambda x: FiniteFunction(X2, (0.0, x)), _VALUES),
    "function constant": (lambda x: FiniteFunction.constant(X2, x), _VALUES),
    "metric": (lambda x: MetricSpace(X2, [[0, x], [x, 0]]), _DISTANCES),
    "closure": (lambda x: metric_closure(X2, [[0, x], [x, 0]]), _DISTANCES),
    "maxmin distance": (
        lambda x: maxmin_gap([[0, x], [x, 0]], 1, [0.0, -1.0], [-1.0, 0.0]), _DISTANCES,
    ),
    "grid distance": (
        lambda x: grid_gap([[0, x], [x, 0]], 1, [0.0, -1.0], [-1.0, 0.0], radius=1.0), _DISTANCES,
    ),
    "cloud": (
        lambda x: PointCloudSpace(X2, {"a": (0.0,), "b": (x,)}), "cloud coordinates must be numbers",
    ),
    "hull generator": (
        lambda x: hull_membership([(0.0, x)], (0.0, 0.0)), "coordinates must be numbers",
    ),
    "hull point": (lambda x: hull_membership([(0.0,)], (x,)), "coordinates must be numbers"),
    "fuzzy": (lambda x: FuzzySet(X2, (1.0, x)), "grades must be numbers"),
    "shift": (lambda x: PHI.shift(x), _VALUES),
    "counterexample l": (lambda x: counterexample_instance(x), "l must be at least 1"),
    "grid step": (
        lambda x: grid_gap([[0, 1], [1, 0]], 1, [0.0, -1.0], [-1.0, 0.0], step=x, radius=1.0),
        "step and radius must be finite and positive",
    ),
    "grid radius": (
        lambda x: grid_gap([[0, 1], [1, 0]], 1, [0.0, -1.0], [-1.0, 0.0], radius=x),
        "step and radius must be finite and positive",
    ),
}
LIBRARY.update(
    {
        f"{name}: {label}": (
            lambda call=call, x=x: call(x),
            *(
                (ValueError, "an integer is too large for a float")
                if x is HUGE
                else (TypeError, message.format(x))
            ),
        )
        for name, (call, message) in NUMBER_READERS.items()
        for label, x in BAD_NUMBERS.items()
    }
)


@pytest.mark.parametrize("case", sorted(LIBRARY))
def test_library_rejects(case):
    call, exc, message = LIBRARY[case]
    with pytest.raises(exc, match=f"^{re.escape(message)}$"):
        call()


# a label 500 arrays deep: JSON parses it, and reading it as a label passes
# the recursion limit
DEEP_LABEL = "a"
for _ in range(500):
    DEEP_LABEL = [DEEP_LABEL]

# Documents that `io.decode` rejects, each with the kind it is decoded as.
# The context knows X = {a, b} and Y = {u, v}.
DECODE = {
    "numeric label": (
        "measure", {"kind": "measure", "space": "X", "atoms": [[5, 0], ["b", -1]]},
        "labels must be strings or nonempty arrays, got 5",
    ),
    "numeric space reference": (
        "measure", {"kind": "measure", "space": 5, "atoms": {"a": 0, "b": -1}},
        "space references must be names, got 5",
    ),
    "atom list of triples": (
        "measure", {"kind": "measure", "space": "X", "atoms": [["a", 0, 1], ["b", -1, 1]]},
        "atoms lists contain [point, value] pairs",
    ),
    "atoms as a string": (
        "measure", {"kind": "measure", "space": "X", "atoms": "a"},
        "atoms must be an object or a list of pairs",
    ),
    "boolean function value": (
        "function", {"kind": "function", "space": "X", "values": {"a": 0, "b": True}},
        "function values must be numbers, got True",
    ),
    # io reads no number: MetricSpace and PointCloudSpace reject a flat table
    "dist not a matrix": (
        "metric_space", {"kind": "metric_space", "name": "M", "points": ["a", "b"], "dist": [0, 1]},
        "distances must be numbers",
    ),
    "metric points repeated": (
        "metric_space",
        {"kind": "metric_space", "name": "M", "points": ["a", "a"], "dist": [[0, 1], [1, 0]]},
        "point labels must be pairwise distinct",
    ),
    "inline points repeated": (
        "measure",
        {"kind": "measure", "space": {"name": "Z", "points": ["a", "a"]}, "atoms": {"a": 0}},
        "point labels must be pairwise distinct",
    ),
    "space where a measure is expected": (
        "measure", {"kind": "space", "name": "Z", "points": ["a", "b"]},
        "expected a measure document, got 'space'",
    ),
    "no components": (
        "outer_measure", {"kind": "outer_measure", "space": "X", "components": []},
        "components must be a nonempty list",
    ),
    "component without weight": (
        "outer_measure",
        {"kind": "outer_measure", "space": "X", "components": [{"atoms": {"a": 0, "b": 0}}]},
        "each component needs weight and atoms",
    ),
    "coupling rows as a list": (
        "coupling", {"kind": "coupling", "rows": "X", "cols": "Y", "table": [["a", {"u": 0}]]},
        "coupling table must be a nested object",
    ),
    "coordinates as a number": (
        "cloud", {"kind": "cloud", "space": "X", "embed": {"a": 0, "b": 1}},
        "cloud coordinates must be numbers",
    ),
    "no levels": (
        "cover_levels", {"kind": "cover_levels", "space": "X", "levels": []},
        "levels must be a nonempty list",
    ),
    "empty level": (
        "cover_levels", {"kind": "cover_levels", "space": "X", "levels": [[]]},
        "each level is a nonempty list of cover pairs",
    ),
    "cover pair without V": (
        "cover_levels", {"kind": "cover_levels", "space": "X", "levels": [[{"U": ["a"]}]]},
        "each cover pair needs U and V",
    ),
    # an array or object kind once raised "unhashable type"
    "kind as an array": (
        "measure", {"kind": [], "space": "X", "atoms": {"a": 0, "b": -1}},
        "unknown document kind []",
    ),
    "kind as an object": (
        "measure", {"kind": {}, "space": "X", "atoms": {"a": 0, "b": -1}},
        "unknown document kind {}",
    ),
    "label 500 arrays deep": (
        "measure", {"kind": "measure", "space": "X", "atoms": [["a", 0], [DEEP_LABEL, -1]]},
        "document nested too deeply",
    ),
}

# JSON true, null, {} and an integer past the float range where a number
# belongs: io passes the value on, and the constructor's TypeError or
# ValueError is raised as a DocumentError
BAD_JSON = {"true": True, "null": None, "{}": {}, "an integer past the float range": HUGE}
# name: (kind, a document with x where a number belongs, its TypeError message)
NUMBER_DOCUMENTS = {
    "measure atom": (
        "measure", lambda x: {"kind": "measure", "space": "X", "atoms": {"a": 0, "b": x}}, _WEIGHTS,
    ),
    "function value": (
        "function", lambda x: {"kind": "function", "space": "X", "values": {"a": 0, "b": x}}, _VALUES,
    ),
    "dist entry": (
        "metric_space",
        lambda x: {"kind": "metric_space", "name": "M", "points": ["a", "b"], "dist": [[0, x], [x, 0]]},
        _DISTANCES,
    ),
    "cloud coordinate": (
        "cloud",
        lambda x: {"kind": "cloud", "space": "X", "embed": {"a": [0], "b": [x]}},
        "cloud coordinates must be numbers",
    ),
    "outer weight": (
        "outer_measure",
        lambda x: {"kind": "outer_measure", "space": "X", "components": [
            {"weight": 0, "atoms": {"a": 0, "b": 0}}, {"weight": x, "atoms": {"a": 0, "b": 0}}]},
        _WEIGHTS,
    ),
    "coupling cell": (
        "coupling",
        lambda x: {"kind": "coupling", "rows": "X", "cols": "Y",
                   "table": {"a": {"u": 0, "v": x}, "b": {"u": "-inf", "v": "-inf"}}},
        _WEIGHTS,
    ),
    "cover alpha": (
        "cover_levels",
        lambda x: {"kind": "cover_levels", "space": "X",
                   "levels": [[{"U": ["a"], "V": ["a", "b"], "alpha": {"b": x}}]]},
        _WEIGHTS,
    ),
}
DECODE.update(
    {
        f"{name}: {label}": (
            kind,
            doc(x),
            "an integer is too large for a float" if x is HUGE else message.format(x),
        )
        for name, (kind, doc, message) in NUMBER_DOCUMENTS.items()
        for label, x in BAD_JSON.items()
    }
)


@pytest.mark.parametrize("case", sorted(DECODE))
def test_decode_rejects(case):
    kind, doc, message = DECODE[case]
    ctx = mio.Context({"X": X2, "Y": Y2})
    with pytest.raises(mio.DocumentError, match=f"^{re.escape(message)}$"):
        mio.decode(doc, ctx, kind)


@pytest.mark.parametrize(
    "mu, message",
    [
        (dirac(X2, "a"), "couplings live on two-factor products"),
        (
            dirac(product_space(product_space(X2, Y2), Y2), (("a", "u"), "v")),
            "coupling documents need flat factor spaces",
        ),
    ],
    ids=["flat space", "nested factor"],
)
def test_coupling_doc_rejects(mu, message):
    with pytest.raises(mio.DocumentError, match=f"^{re.escape(message)}$"):
        mio.coupling_doc(mu)


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def _doc(tmp_path, name, doc):
    return _write(tmp_path, name, mio.dumps(doc))


METRIC = mio.metric_space_doc(M2, "X")
MEASURE = mio.measure_doc(normalize(X2, {"a": 0, "b": -1}))
# a valid metric whose distances times 2 pass the float maximum
X3 = space("abc")
FAR = {"kind": "metric_space", "points": ["a", "b", "c"],
       "dist": [[0.0 if i == j else 1e308 for j in range(3)] for i in range(3)]}

# argv builders over a temporary directory, and the stderr each one prints
# (or a function of the directory that gives it)
CLI = {
    "hyper on a non-indicator": (
        lambda t: ["hyper", _doc(t, "f.json", mio.function_doc(FiniteFunction(X2, (1.0, 0.5))))],
        "hyper expects a 0/1 indicator function",
    ),
    "hyper on an empty set": (
        lambda t: ["hyper", _doc(t, "f.json", mio.function_doc(FiniteFunction(X2, (0.0, 0.0))))],
        "the indicated set is empty",
    ),
    "--l abc": (lambda t: ["counterexample", "--l", "abc"], "--l must be a positive integer or 'inf'"),
    "top-level array": (
        lambda t: ["marginal", _write(t, "a.json", "[1, 2]")],
        "every document must be a JSON object",
    ),
    "repeated metric points": (
        lambda t: [
            "dist",
            _doc(t, "ms.json", {**METRIC, "points": ["a", "a"]}),
            _doc(t, "mu.json", MEASURE),
            _doc(t, "nu.json", MEASURE),
        ],
        "point labels must be pairwise distinct",
    ),
    "space document for a measure": (
        lambda t: [
            "dist",
            _doc(t, "ms.json", METRIC),
            _doc(t, "sp.json", mio.space_doc(X2, "X")),
            _doc(t, "nu.json", MEASURE),
        ],
        "expected a measure document, got 'space'",
    ),
    "dist past the float maximum": (
        lambda t: [
            "dist",
            _doc(t, "ms.json", {**FAR, "name": "X"}),
            _doc(t, "mu.json", mio.measure_doc(dirac(X3, "a"))),
            _doc(t, "nu.json", mio.measure_doc(dirac(X3, "b"))),
            "--n", "2",
        ],
        "the dual gap passes the float maximum: n = 2 on a metric with distances up to 1e+308",
    ),
    # the default radius n·diameter + 2 passes the float maximum at n = 2 and is
    # held there, so the grid is rejected for its size, as at n = 1
    **{
        f"dist --oracle past the float maximum, n = {n}": (
            lambda t, n=n: [
                "dist",
                _doc(t, "ms.json", {**FAR, "name": "X"}),
                _doc(t, "mu.json", mio.measure_doc(IdempotentMeasure(X3, (0.0, -2.0, NEG_INF)))),
                _doc(t, "nu.json", mio.measure_doc(IdempotentMeasure(X3, (-2.0, 0.0, NEG_INF)))),
                "--n", str(n), "--oracle",
            ],
            "oracle grid has over 4000000 cells on axis 1 alone",
        )
        for n in (1, 2)
    },
    # a number io no longer reads: the constructor's TypeError, exit 1
    **{
        f"integrate on an atom {text}": (
            lambda t, text=text: [
                "integrate",
                _write(t, "m.json", '{"kind": "measure", "space": "X", "atoms": {"a": 0, "b": %s}}' % text),
                _doc(t, "f.json", mio.function_doc(PHI, mio.Context({"X": X2}))),
            ],
            f"weights must be numbers, got {value!r}",
        )
        for text, value in (("true", True), ("null", None))
    },
    **{
        f"integrate on a document whose kind is {kind}": (
            lambda t, kind=kind: [
                "integrate",
                _write(t, "m.json", '{"kind": %s, "space": "X", "atoms": {"a": 0, "b": -1}}' % kind),
                _doc(t, "f.json", mio.function_doc(PHI, mio.Context({"X": X2}))),
            ],
            f"unknown document kind {kind}",
        )
        for kind in ("[]", "{}")
    },
    "integrate on a document 100,000 arrays deep": (
        lambda t: [
            "integrate",
            _write(t, "deep.json", "[" * 100_000 + "]" * 100_000),
            _doc(t, "f.json", mio.function_doc(PHI, mio.Context({"X": X2}))),
        ],
        lambda t: f"{t / 'deep.json'}: document nested too deeply",
    ),
    "integrate on a label 500 arrays deep": (
        lambda t: [
            "integrate",
            _write(t, "m.json", json.dumps(DECODE["label 500 arrays deep"][1])),
            _doc(t, "f.json", mio.function_doc(PHI, mio.Context({"X": X2}))),
        ],
        "document nested too deeply",
    ),
    "cover_levels on another space": (
        lambda t: [
            "milyutin",
            _doc(t, "ms.json", {**METRIC, "name": "Y"}),
            _doc(t, "cov.json", {"kind": "cover_levels", "space": "Q",
                                 "levels": [[{"U": ["a", "b"], "V": ["a", "b"]}]]}),
        ],
        "cover_levels space 'Q' is not defined by a document",
    ),
}


@pytest.mark.parametrize("case", sorted(CLI))
def test_cli_exits_one(tmp_path, capsys, case):
    argv, message = CLI[case]
    code = cli.main(argv(tmp_path))
    if callable(message):
        message = message(tmp_path)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_dist_passes_over_overflowing_terms(tmp_path, capsys):
    mu = mio.measure_doc(IdempotentMeasure(X3, (0.0, -2.0, NEG_INF)))
    nu = mio.measure_doc(IdempotentMeasure(X3, (-2.0, 0.0, NEG_INF)))
    argv = ["dist", _doc(tmp_path, "ms.json", FAR), _doc(tmp_path, "mu.json", mu),
            _doc(tmp_path, "nu.json", nu), "--n", "2"]
    assert cli.main(argv) == 0
    assert capsys.readouterr() == ('{\n  "n": 2,\n  "dhat": 2.0,\n  "dtilde": 1.0\n}\n', "")


def test_couplings_without_a_flag_is_feasible(tmp_path, capsys):
    mu1 = _doc(tmp_path, "mu1.json", MEASURE)
    mu2 = _doc(tmp_path, "mu2.json", mio.measure_doc(dirac(Y2, "v")))
    assert cli.main(["couplings", mu1, mu2]) == 0
    assert capsys.readouterr().out == '{\n  "feasible": true\n}\n'
