"""One rule for label-keyed tables and point sets over a finite space.

Every site that reads labels against a space goes through
FiniteSpace.subset/require or FiniteSpace.dense: a label outside the space
is a ValueError naming it ("<what>: points outside the space [...]"), and a
point left out is either "<what>: no entry for points [...]" or gets the
site's documented default.
"""

import pytest

import maslov.io as mio
from maslov import (
    NEG_INF,
    ClosedSet,
    CoverPair,
    FiniteFunction,
    FuzzySet,
    MilyutinLevel,
    PointCloudSpace,
    PointMap,
    dirac,
    hyperspace_embed,
    metric_closure,
    milyutin_build,
    normalize,
    space,
)
from maslov.functor import lies_in_subspace

X = space("ab")
Y = space("uv")
F = PointMap(X, Y, {"a": "u", "b": "u"})


def cover(*pairs):
    """milyutin_build over the metric space on X with one level of (U, V) pairs."""
    level = MilyutinLevel(tuple(CoverPair(frozenset(U), frozenset(V)) for U, V in pairs))
    return milyutin_build(metric_closure(X, [[0, 1], [1, 0]]), [level], 1)


def inline_measure(atoms):
    doc = {"kind": "measure", "space": {"name": "X", "points": ["a", "b"]}, "atoms": atoms}
    return mio.decode(doc, mio.Context(), "measure")


def named_measure(atoms):
    ctx = mio.Context()
    ctx.register("X", X)
    return mio.decode({"kind": "measure", "space": "X", "atoms": atoms}, ctx, "measure")


# site: (what, call with the outside label "zz", call leaving point "b" out,
#        the result that call must give, or None when leaving a point out is an error)
SITES = {
    "FiniteFunction.from_mapping": (
        "values",
        lambda: FiniteFunction.from_mapping(X, {"a": 1.0, "zz": 2.0, "b": 3.0}),
        lambda: FiniteFunction.from_mapping(X, {"a": 1.0}).values,
        None,
    ),
    "normalize": (
        "weights",
        lambda: normalize(X, {"a": 0.0, "zz": -1.0}),
        lambda: normalize(X, {"a": -1.0}).weights,
        (0.0, NEG_INF),
    ),
    "PointMap": (
        "map",
        lambda: PointMap(X, Y, {"a": "u", "b": "v", "zz": "u"}),
        lambda: PointMap(X, Y, {"a": "u"}).table,
        None,
    ),
    "PointMap values": (
        "map values",
        lambda: PointMap(X, Y, {"a": "u", "b": "zz"}),
        lambda: PointMap(X, Y, {"a": "v", "b": "v"}).is_surjective,
        False,
    ),
    "PointMap.preimage": (
        "preimage",
        lambda: F.preimage(["u", "zz"]),
        lambda: F.preimage(["v"]),
        frozenset(),
    ),
    "PointMap.image": (
        "image",
        lambda: F.image(["zz"]),
        lambda: F.image(["a"]),
        frozenset({"u"}),
    ),
    "lies_in_subspace": (
        "subspace",
        lambda: lies_in_subspace(dirac(X, "a"), ["a", "zz"]),
        lambda: lies_in_subspace(dirac(X, "a"), ["a"]),
        True,
    ),
    "ClosedSet": (
        "closed set",
        lambda: ClosedSet(X, frozenset({"zz"})),
        lambda: hyperspace_embed(ClosedSet(X, frozenset({"a"}))).weights,
        (0.0, NEG_INF),
    ),
    "FuzzySet.from_mapping": (
        "grades",
        lambda: FuzzySet.from_mapping(X, {"a": 1.0, "zz": 0.5}),
        lambda: FuzzySet.from_mapping(X, {"a": 1.0}).grades,
        (1.0, 0.0),
    ),
    "PointCloudSpace": (
        "embed",
        lambda: PointCloudSpace(X, {"a": (0.0,), "b": (1.0,), "zz": (2.0,)}),
        lambda: PointCloudSpace(X, {"a": (0.0,)}),
        None,
    ),
    "milyutin_build": (
        "level 0",
        lambda: cover(({"a"}, {"a", "zz"}), ({"b"}, {"b"})),
        lambda: cover(({"a"}, {"a"}), ({"b"}, {"a", "b"}))[0].points,
        (("a", "0"), ("a", "1"), ("b", "1")),
    ),
    "io": (
        "atoms",
        lambda: inline_measure({"a": 0, "b": -1, "zz": 5}),
        lambda: inline_measure({"a": 0}),
        None,
    ),
    "io named space": (
        "atoms",
        lambda: named_measure({"a": 0, "b": -1, "zz": 5}),
        lambda: named_measure({"a": 0}),
        None,
    ),
}


@pytest.mark.parametrize("site", sorted(SITES))
def test_label_outside_the_space(site):
    what, outside, _, _ = SITES[site]
    error = mio.DocumentError if site.startswith("io") else ValueError
    with pytest.raises(error) as info:
        outside()
    assert str(info.value) == f"{what}: points outside the space ['zz']"


@pytest.mark.parametrize("site", sorted(SITES))
def test_point_left_out(site):
    what, _, left_out, default = SITES[site]
    if default is not None:
        assert left_out() == default
        return
    error = mio.DocumentError if site.startswith("io") else ValueError
    with pytest.raises(error) as info:
        left_out()
    assert str(info.value) == f"{what}: no entry for points ['b']"


def test_outside_labels_listed_in_input_order():
    with pytest.raises(ValueError) as info:
        X.dense({"zz": 0, "a": 1, "b": 2, "yy": 3}, "t")
    assert str(info.value) == "t: points outside the space ['zz', 'yy']"
    with pytest.raises(ValueError) as info:
        X.subset(["yy", "a", "zz"], "s")
    assert str(info.value) == "s: points outside the space ['yy', 'zz']"
