import argparse
import contextlib
import importlib.resources as res
import io as std_io
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

try:
    import jsonschema
except ImportError:  # optional test dependency; the schema checks skip without it
    jsonschema = None

import maslov.cli as cli
import maslov.io as mio
from conftest import child_env
from maslov import (
    CoverPair,
    FiniteFunction,
    IdempotentMeasure,
    MetricSpace,
    MilyutinLevel,
    OuterMeasure,
    PointCloudSpace,
    PointMap,
    bicommutative_lift,
    dirac,
    metric_closure,
    normalize,
    product_space,
    pushforward,
    space,
    tensor,
)
from maslov.laws import LawReport
from maslov.openness import lift_open_surjection

X2 = space("ab")

# `maslov check-laws --seed 0 --cases 50`, byte for byte: key order is monad first.
CHECK_LAWS_SEED0_CASES50 = """{
  "seed": 0,
  "cases": 50,
  "monad": "ok",
  "maslov": "ok",
  "algebra": "ok",
  "tensor": "ok",
  "hyperspace": "ok",
  "functor": "ok",
  "preimage": "ok"
}
"""

# Golden stdout, byte for byte, for the coupling-gap commands.
GOLDEN = Path(__file__).resolve().parent / "golden"

SCHEMA = json.loads(res.files("maslov.schemas").joinpath("document.schema.json").read_text())
KINDS = SCHEMA["properties"]["kind"]["enum"]
VALIDATOR = jsonschema.Draft202012Validator(SCHEMA) if jsonschema else None


def documents(out):
    """The documents in a CLI result: the result itself, or those nested in it."""
    if isinstance(out, dict) and out.get("kind") in KINDS:
        yield out
    elif isinstance(out, (dict, list)):
        for value in out.values() if isinstance(out, dict) else out:
            yield from documents(value)


def check_schema(doc) -> None:
    if VALIDATOR is not None:
        VALIDATOR.validate(doc)


def write(tmp_path: Path, name: str, doc) -> str:
    """Write a document for a CLI call; every document written must match the schema."""
    check_schema(doc)
    p = tmp_path / name
    p.write_text(mio.dumps(doc), encoding="utf-8")
    return str(p)


def run(capsys, argv):
    """Run the CLI; every document it prints must match the schema."""
    code = cli.main(argv)
    out = capsys.readouterr().out
    result = json.loads(out) if out else None
    for doc in documents(result):
        check_schema(doc)
    return code, result


def _byte_stdin(raw: bytes):
    """A stand-in for standard input: a text stream over a byte buffer, as the real one is."""
    return std_io.TextIOWrapper(std_io.BytesIO(raw), encoding="utf-8")


class TestRoundTrip:
    def _ctx(self):
        return mio.Context()

    def test_measure_flat(self):
        mu = normalize(X2, {"a": -1, "b": 0})
        doc = mio.measure_doc(mu)
        ctx = mio.Context()
        assert mio.decode(json.loads(mio.dumps(doc)), ctx, "measure") == mu
        assert mio.dumps(mio.measure_doc(mu, ctx)) == mio.dumps(doc)

    def test_measure_with_minus_inf(self):
        mu = dirac(X2, "a")
        doc = mio.measure_doc(mu)
        assert doc["atoms"]["b"] == "-inf"
        assert mio.decode(doc, mio.Context(), "measure") == mu

    def test_measure_on_product_uses_pair_lists(self):
        mu = tensor(dirac(X2, "a"), normalize(space("uv"), {"u": 0, "v": -2}))
        doc = mio.measure_doc(mu)
        assert isinstance(doc["atoms"], list)
        back = mio.decode(json.loads(mio.dumps(doc)), mio.Context(), "measure")
        assert back == mu
        assert back.space == mu.space  # product structure re-inferred

    def test_function(self):
        phi = FiniteFunction(X2, (0.25, -3.0))
        assert mio.decode(mio.function_doc(phi), mio.Context(), "function") == phi

    def test_map(self):
        f = PointMap(space("abc"), X2, {"a": "a", "b": "b", "c": "b"})
        back = mio.decode(mio.map_doc(f), mio.Context(), "map")
        assert back == f

    def test_map_into_a_named_target(self):
        ctx = mio.Context()
        ctx.register("X", X2)
        ctx.register("Y", space("uv"))
        doc = {"kind": "map", "source": "X", "target": "Y", "table": {"a": "u", "b": "u"}}
        f = PointMap(X2, space("uv"), {"a": "u", "b": "u"})
        assert mio.decode(doc, ctx, "map") == f
        assert mio.decode({**doc, "target_points": ["v", "u"]}, ctx, "map") == f
        with pytest.raises(mio.DocumentError, match=r"^target_points: no entry for points \['v'\]$"):
            mio.decode({**doc, "target_points": ["u"]}, ctx, "map")
        with pytest.raises(mio.DocumentError, match=r"^target_points: points outside the space \['w'\]$"):
            mio.decode({**doc, "target_points": ["u", "v", "w"]}, ctx, "map")
        with pytest.raises(mio.DocumentError, match=r"^map values: points outside the space \['w'\]$"):
            mio.decode({**doc, "table": {"a": "u", "b": "w"}}, ctx, "map")

    def test_metric_space(self):
        ms = metric_closure(space("abc"), [[0, 1, 5], [1, 0, 1], [5, 1, 0]])
        back = mio.decode(mio.metric_space_doc(ms, "M"), mio.Context(), "metric_space")
        assert back == ms

    def test_outer_measure(self):
        M = OuterMeasure(X2, (dirac(X2, "a"), normalize(X2, {"a": -2, "b": 0})), (-1.0, 0.0))
        back = mio.decode(mio.outer_doc(M), mio.Context(), "outer_measure")
        assert back == M

    def test_coupling(self):
        mu = tensor(normalize(X2, {"a": 0, "b": -1}), normalize(space("uv"), {"u": -2, "v": 0}))
        doc = mio.coupling_doc(mu)
        back = mio.decode(doc, mio.Context(), "coupling")
        assert back == mu

    def test_cloud(self):
        cloud = PointCloudSpace(X2, {"a": (0.0, 1.0), "b": (2.0, 0.0)})
        back = mio.decode(mio.cloud_doc(cloud), mio.Context(), "cloud")
        assert back == cloud

    def test_cover_levels(self):
        levels = [
            MilyutinLevel(
                (
                    CoverPair(frozenset("ab"), frozenset("ab")),
                    CoverPair(frozenset("b"), frozenset("ab"), {"a": -1.0}),
                )
            )
        ]
        doc = mio.cover_levels_doc(levels, space("ab"))
        back = mio.decode(doc, mio.Context(), "cover_levels")
        assert back == levels

    def test_space_name_conflicts_rejected(self):
        ctx = mio.Context()
        ctx.register("X", X2)
        with pytest.raises(mio.DocumentError):
            ctx.register("X", space("abc"))


class TestSchemas:
    """The one shipped schema; write() and run() also check every CLI document."""

    BAD = {
        "missing atoms": {"kind": "measure", "space": "X"},
        "unknown kind": {"kind": "volume", "space": "X", "atoms": {"a": 0.0}},
        "inf weight": {"kind": "measure", "space": "X", "atoms": {"a": 0.0, "b": "inf"}},
        "numeric metric_space name": {
            "kind": "metric_space", "name": 5, "points": ["a", "b"], "dist": [[0, 1], [1, 0]],
        },
        "numeric inline space name": {
            "kind": "measure", "space": {"name": 5, "points": ["a", "b"]}, "atoms": {"a": 0, "b": -1},
        },
        "repeated space point": {"kind": "space", "name": "X", "points": ["a", "a"]},
        "repeated metric_space point": {
            "kind": "metric_space", "name": "M", "points": ["a", "a"], "dist": [[0, 1], [1, 0]],
        },
        "repeated inline space point": {
            "kind": "measure", "space": {"points": ["a", "a"]}, "atoms": {"a": 0},
        },
        "cover_levels without space": {
            "kind": "cover_levels", "levels": [[{"U": ["a", "b"], "V": ["a", "b"]}]],
        },
        "numeric cover_levels space": {
            "kind": "cover_levels", "space": 5, "levels": [[{"U": ["a", "b"], "V": ["a", "b"]}]],
        },
    }

    def test_documents_validate_against_shipped_schemas(self):
        pytest.importorskip("jsonschema")
        jsonschema.Draft202012Validator.check_schema(SCHEMA)
        samples = {
            "space": mio.space_doc(X2),
            "metric_space": mio.metric_space_doc(
                metric_closure(X2, [[0, 1], [1, 0]]), "M"
            ),
            "measure": mio.measure_doc(dirac(X2, "a")),
            "map": mio.map_doc(PointMap(X2, X2, {"a": "a", "b": "a"})),
            "function": mio.function_doc(FiniteFunction(X2, (0.0, 1.5))),
            "outer_measure": mio.outer_doc(OuterMeasure(X2, (dirac(X2, "a"),), (0.0,))),
            "coupling": mio.coupling_doc(tensor(dirac(X2, "a"), dirac(X2, "b"))),
            "cloud": mio.cloud_doc(PointCloudSpace(X2, {"a": (0.0,), "b": (1.0,)})),
            "cover_levels": mio.cover_levels_doc(
                [MilyutinLevel((CoverPair(frozenset("ab"), frozenset("ab")),))], X2
            ),
        }
        assert sorted(samples) == sorted(KINDS)
        product = mio.measure_doc(tensor(dirac(X2, "a"), normalize(space("uv"), {"u": 0, "v": -2})))
        assert isinstance(product["atoms"], list)
        for doc in [*samples.values(), product]:
            VALIDATOR.validate(doc)

    @pytest.mark.parametrize("case", sorted(BAD))
    def test_bad_documents_rejected(self, case):
        pytest.importorskip("jsonschema")
        doc = self.BAD[case]
        assert not VALIDATOR.is_valid(doc)
        with pytest.raises(mio.DocumentError):
            mio.decode(doc, mio.Context())


class TestMalformedTables:
    REPEATED = {"kind": "measure", "space": "X", "atoms": [["a", 0], ["b", -1], ["b", -3]]}
    OUTSIDE = {
        "kind": "measure",
        "space": {"name": "X", "points": ["a", "b"]},
        "atoms": {"a": 0, "b": -1, "zzz": 5},
    }

    def test_repeated_point_rejected(self):
        ctx = mio.Context()
        ctx.register("X", X2)
        with pytest.raises(mio.DocumentError, match="twice"):
            mio.decode(self.REPEATED, ctx, "measure")

    def test_point_outside_inline_space_rejected(self):
        with pytest.raises(mio.DocumentError, match="outside the space"):
            mio.decode(self.OUTSIDE, mio.Context(), "measure")

    @pytest.mark.parametrize("case", ["REPEATED", "OUTSIDE"])
    def test_cli_exits_one(self, tmp_path, capsys, case):
        # the metric document makes X = {a, b} a known space
        ms = write(tmp_path, "ms.json", mio.metric_space_doc(metric_closure(X2, [[0, 1], [1, 0]]), "X"))
        bad = write(tmp_path, "bad.json", getattr(self, case))
        good = write(tmp_path, "good.json", mio.measure_doc(dirac(X2, "a")))
        code, out = run(capsys, ["dist", ms, bad, good])
        assert code == 1
        assert out is None

    # raw text that a plain json.load reads leniently: the last repeated key
    # wins, and -Infinity parses although the format writes -inf as "-inf"
    RAW = {
        "repeated atom": (
            '{"kind": "measure", "space": "X", "atoms": {"a": -1, "a": 0, "b": -2}}',
            "key 'a' repeated in an object",
        ),
        "repeated kind": (
            '{"kind": "function", "kind": "measure", "space": "X", "atoms": {"a": 0}}',
            "key 'kind' repeated in an object",
        ),
        "-Infinity weight": (
            '{"kind": "measure", "space": "X", "atoms": {"a": 0, "b": -Infinity}}',
            "-Infinity is not a JSON number",
        ),
    }

    @pytest.mark.parametrize("stdin", [False, True], ids=["file", "stdin"])
    @pytest.mark.parametrize("case", sorted(RAW))
    def test_cli_rejects_raw_text(self, tmp_path, capsys, monkeypatch, case, stdin):
        ms = write(tmp_path, "ms.json", mio.metric_space_doc(metric_closure(X2, [[0, 1], [1, 0]]), "X"))
        good = write(tmp_path, "good.json", mio.measure_doc(dirac(X2, "a")))
        text, message = self.RAW[case]
        if stdin:
            bad = "-"
            monkeypatch.setattr("sys.stdin", _byte_stdin(text.encode("utf-8")))
        else:
            bad = str(tmp_path / "bad.json")
            Path(bad).write_text(text, encoding="utf-8")
        code = cli.main(["dist", ms, bad, good])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == f"error: {bad}: {message}\n"

    @pytest.mark.parametrize("stdin", [False, True], ids=["file", "stdin"])
    def test_cli_rejects_non_utf8(self, tmp_path, capsys, monkeypatch, stdin):
        ms = write(tmp_path, "ms.json", mio.metric_space_doc(metric_closure(X2, [[0, 1], [1, 0]]), "X"))
        good = write(tmp_path, "good.json", mio.measure_doc(dirac(X2, "a")))
        raw = b"\xff\xfe"  # a UTF-16 byte order mark: not UTF-8
        if stdin:
            bad = "-"
            monkeypatch.setattr("sys.stdin", _byte_stdin(raw))
        else:
            bad = str(tmp_path / "bad.json")
            Path(bad).write_bytes(raw)
        code = cli.main(["dist", ms, bad, good])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith(f"error: {bad}: 'utf-8' codec can't decode byte 0xff")


class TestOversizedIntegers:
    HUGE = -(10**400)  # a JSON integer beyond the float range

    def test_decode_rejects(self):
        # every document kind that holds a number, with the integer in one place
        h = self.HUGE
        docs = [
            {"kind": "measure", "space": "X", "atoms": {"a": 0, "b": h}},
            {"kind": "function", "space": "X", "values": {"a": 0, "b": -h}},
            {"kind": "metric_space", "name": "M", "points": ["a", "b"], "dist": [[0, -h], [-h, 0]]},
            {"kind": "cloud", "space": "X", "embed": {"a": [0, 1], "b": [h, 1]}},
            {"kind": "outer_measure", "space": "X", "components": [{"weight": h, "atoms": {"a": 0, "b": 0}}]},
            {"kind": "outer_measure", "space": "X", "components": [{"weight": 0, "atoms": {"a": h, "b": 0}}]},
            {"kind": "coupling", "rows": "X", "cols": "X",
             "table": {"a": {"a": 0, "b": h}, "b": {"a": 0, "b": 0}}},
            {"kind": "cover_levels", "space": "X",
             "levels": [[{"U": ["a"], "V": ["a", "b"], "alpha": {"b": h}}]]},
        ]
        for doc in docs:
            ctx = mio.Context()
            ctx.register("X", X2)
            with pytest.raises(mio.DocumentError, match="^an integer is too large for a float$"):
                mio.decode(doc, ctx, doc["kind"])

    def test_cli_exits_one(self, tmp_path, capsys):
        m = tmp_path / "m.json"
        m.write_text(
            '{"kind": "measure", "space": {"name": "X", "points": ["a", "b"]},'
            ' "atoms": {"a": 0, "b": -1' + "0" * 400 + "}}",
            encoding="utf-8",
        )
        f = write(tmp_path, "f.json", mio.function_doc(FiniteFunction(X2, (0.0, 0.0))))
        code = cli.main(["integrate", str(m), f])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "Traceback" not in captured.err


class TestCommands:
    def test_integrate(self, tmp_path, capsys):
        m = write(tmp_path, "m.json", mio.measure_doc(normalize(X2, {"a": -1, "b": 0})))
        f = write(tmp_path, "f.json", mio.function_doc(FiniteFunction(X2, (3.0, 5.0))))
        code, out = run(capsys, ["integrate", m, f])
        assert code == 0
        assert out == {"value": 5.0}

    def test_push_and_lift(self, tmp_path, capsys):
        X3 = space("abc")
        f = PointMap(X3, X2, {"a": "a", "b": "b", "c": "b"})
        fdoc = write(tmp_path, "map.json", mio.map_doc(f))
        m = write(tmp_path, "m.json", mio.measure_doc(IdempotentMeasure(X3, (0.0, -1.0, 0.0))))
        code, out = run(capsys, ["push", fdoc, m])
        assert code == 0
        assert out["atoms"] == {"a": 0.0, "b": 0.0}
        target_m = write(tmp_path, "t.json", mio.measure_doc(normalize(X2, {"a": 0, "b": -2})))
        code, out = run(capsys, ["lift", fdoc, target_m])
        assert code == 0
        assert out["atoms"] == {"a": 0.0, "b": -2.0, "c": -2.0}

    def test_tensor_marginal_zeta(self, tmp_path, capsys):
        m1 = write(tmp_path, "m1.json", mio.measure_doc(normalize(X2, {"a": 0, "b": -1})))
        m2 = write(
            tmp_path, "m2.json", mio.measure_doc(normalize(space("uv"), {"u": -2, "v": 0}))
        )
        code, out = run(capsys, ["tensor", m1, m2])
        assert code == 0
        t = write(tmp_path, "t.json", out)
        code, back = run(capsys, ["marginal", t, "--axis", "0"])
        assert code == 0
        assert back["atoms"] == {"a": 0.0, "b": -1.0}

        M = OuterMeasure(X2, (dirac(X2, "a"), IdempotentMeasure(X2, (-2.0, 0.0))), (-1.0, 0.0))
        o = write(tmp_path, "o.json", mio.outer_doc(M))
        code, out = run(capsys, ["zeta", o])
        assert code == 0
        assert out["atoms"] == {"a": -1.0, "b": 0.0}

    def test_barycenter_and_dist(self, tmp_path, capsys):
        cl = write(
            tmp_path,
            "cloud.json",
            mio.cloud_doc(PointCloudSpace(X2, {"a": (0.0, 1.0), "b": (2.0, 0.0)})),
        )
        m = write(tmp_path, "m.json", mio.measure_doc(IdempotentMeasure(X2, (0.0, -1.0))))
        code, out = run(capsys, ["barycenter", cl, m])
        assert code == 0
        assert out == {"point": [1.0, 1.0]}

        ms = write(tmp_path, "ms.json", mio.metric_space_doc(metric_closure(X2, [[0, 1], [1, 0]]), "M"))
        mu = write(tmp_path, "mu.json", mio.measure_doc(IdempotentMeasure(X2, (0.0, -0.5))))
        nu = write(tmp_path, "nu.json", mio.measure_doc(dirac(X2, "a")))
        code, out = run(capsys, ["dist", ms, mu, nu, "--n", "1", "--oracle"])
        assert code == 0
        assert out["dhat"] == 0.5
        assert abs(out["oracle"] - 0.5) <= 2 * out["step"]

    def test_dist_validates_the_metric_once(self, tmp_path, capsys, monkeypatch):
        ms = write(tmp_path, "ms.json", mio.metric_space_doc(metric_closure(X2, [[0, 1], [1, 0]]), "M"))
        mu = write(tmp_path, "mu.json", mio.measure_doc(IdempotentMeasure(X2, (0.0, -0.5))))
        calls = []
        validate = MetricSpace.__post_init__

        def counting(self):
            calls.append(self)
            validate(self)

        monkeypatch.setattr(MetricSpace, "__post_init__", counting)
        code, _ = run(capsys, ["dist", ms, mu, mu])
        assert code == 0
        assert len(calls) == 1

    def test_dist_names_the_first_metric_defect(self, tmp_path, capsys):
        # (0, 1) breaks symmetry before (1, 1) breaks the zero diagonal
        doc = {"kind": "metric_space", "name": "M", "points": ["a", "b"], "dist": [[0, 1], [2, 1]]}
        ms = write(tmp_path, "ms.json", doc)
        mu = write(tmp_path, "mu.json", mio.measure_doc(IdempotentMeasure(X2, (0.0, -0.5))))
        code = cli.main(["dist", ms, mu, mu])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "error: distance table must be symmetric\n"

    @pytest.mark.parametrize("points", ["a", "ab"])
    @pytest.mark.parametrize("step", ["-1", "0", "nan", "inf"])
    def test_dist_oracle_rejects_bad_steps(self, tmp_path, capsys, step, points):
        X = space(points)
        M = metric_closure(X, [[0.0 if i == j else 1.0 for j in range(len(X))] for i in range(len(X))])
        ms = write(tmp_path, "ms.json", mio.metric_space_doc(M, "M"))
        mu = write(tmp_path, "mu.json", mio.measure_doc(dirac(X, "a")))
        code = cli.main(["dist", ms, mu, mu, "--oracle", "--step", step])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: step ")

    @pytest.mark.parametrize("step", ["1e-12", "1e-320"])
    def test_dist_oracle_caps_tiny_steps(self, tmp_path, capsys, step):
        # the grid is sized before it is built, so a tiny step allocates nothing
        ms = write(tmp_path, "ms.json", mio.metric_space_doc(metric_closure(X2, [[0, 1], [1, 0]]), "M"))
        mu = write(tmp_path, "mu.json", mio.measure_doc(IdempotentMeasure(X2, (0.0, -0.5))))
        code = cli.main(["dist", ms, mu, mu, "--oracle", "--step", step])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "error: oracle grid has over 4000000 cells on axis 1 alone\n"

    def test_dist_rejects_n_past_the_float_range(self, tmp_path, capsys):
        ms = write(tmp_path, "ms.json", mio.metric_space_doc(metric_closure(X2, [[0, 1], [1, 0]]), "M"))
        mu = write(tmp_path, "mu.json", mio.measure_doc(dirac(X2, "a")))
        code = cli.main(["dist", ms, mu, mu, "--n", "1" + "0" * 400])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "error: the Lipschitz class bound n is too large for a float\n"

    def test_sup_hyper_fuzzy(self, tmp_path, capsys):
        m1 = write(tmp_path, "m1.json", mio.measure_doc(normalize(X2, {"a": 0, "b": -2})))
        m2 = write(tmp_path, "m2.json", mio.measure_doc(normalize(X2, {"a": -1, "b": 0})))
        code, out = run(capsys, ["sup", m1, m2])
        assert code == 0
        assert out["atoms"] == {"a": 0.0, "b": 0.0}

        ind = write(tmp_path, "ind.json", mio.function_doc(FiniteFunction(X2, (1.0, 0.0))))
        code, out = run(capsys, ["hyper", ind])
        assert code == 0
        assert out["atoms"] == {"a": 0.0, "b": "-inf"}

        gr = write(
            tmp_path, "gr.json", mio.function_doc(FiniteFunction(X2, (1.0, math.exp(-1.0))))
        )
        code, out = run(capsys, ["fuzzy", gr])
        assert code == 0
        assert out["atoms"]["a"] == 0.0
        assert abs(out["atoms"]["b"] + 1.0) < 1e-12

    def test_lift_open_and_bicommute(self, tmp_path, capsys):
        src, tgt = space(["x0", "x1", "x2"]), space(["y1", "y2"])
        fdoc = write(
            tmp_path,
            "f.json",
            mio.map_doc(PointMap(src, tgt, {"x0": "y1", "x1": "y1", "x2": "y2"})),
        )
        mu0 = write(tmp_path, "mu0.json", mio.measure_doc(IdempotentMeasure(src, (0.0, -1.0, 0.0))))
        nu1 = write(tmp_path, "nu1.json", mio.measure_doc(IdempotentMeasure(tgt, (-1.0, 0.0))))
        nu2 = write(tmp_path, "nu2.json", mio.measure_doc(IdempotentMeasure(tgt, (-0.5, 0.0))))
        code, out = run(capsys, ["lift-open", fdoc, mu0, nu1, nu2])
        assert code == 0
        assert [d["atoms"]["x0"] for d in out["lifts"]] == [-1.0, -0.5]

        ci, cj = space(["y0", "y1"]), space(["x1"])
        gdoc = write(tmp_path, "g.json", mio.map_doc(PointMap(ci, cj, {"y0": "x1", "y1": "x1"})))
        mu = write(tmp_path, "mu.json", mio.measure_doc(IdempotentMeasure(ci, (-1.0, 0.0))))
        nu = write(
            tmp_path,
            "nu.json",
            mio.coupling_doc(IdempotentMeasure(product_space(cj, cj), (0.0,))),
        )
        code, out = run(capsys, ["bicommute", gdoc, mu, nu])
        assert code == 0
        assert out["table"] == {"y0": {"y0": -1.0, "y1": -1.0}, "y1": {"y0": 0.0, "y1": 0.0}}

    def test_lift_open_and_bicommute_through_a_surjection(self, tmp_path, capsys):
        # 4 -> 2 with two doubled fibers: {x0, x2} over y1 and {x1, x3} over y2
        src, tgt = space(["x0", "x1", "x2", "x3"]), space(["y1", "y2"])
        f = PointMap(src, tgt, {"x0": "y1", "x1": "y2", "x2": "y1", "x3": "y2"})
        mu0 = IdempotentMeasure(src, (-1.0 / 3.0, -0.5, -2.0 / 3.0, 0.0))
        nus = [IdempotentMeasure(tgt, (0.0, -0.75)), IdempotentMeasure(tgt, (-4.0 / 3.0, 0.0))]
        nu = tensor(pushforward(f, mu0), IdempotentMeasure(tgt, (-0.25, 0.0)))
        fdoc = write(tmp_path, "f.json", mio.map_doc(f))
        mu0doc = write(tmp_path, "mu0.json", mio.measure_doc(mu0))
        nudocs = [write(tmp_path, f"nu{k}.json", mio.measure_doc(v)) for k, v in enumerate(nus)]
        assert cli.main(["lift-open", fdoc, mu0doc, *nudocs]) == 0
        lifts = lift_open_surjection(f, mu0, nus)
        assert capsys.readouterr().out == mio.dumps({"lifts": [mio.measure_doc(m) for m in lifts]})
        coupling = write(tmp_path, "nu.json", mio.coupling_doc(nu))
        assert cli.main(["bicommute", fdoc, mu0doc, coupling]) == 0
        want = mio.dumps(mio.coupling_doc(bicommutative_lift(f, mu0, nu)))
        assert capsys.readouterr().out == want

    def test_couplings_check_and_gap(self, tmp_path, capsys):
        X, Y = space(["x1", "x2"]), space(["y1", "y2"])
        mu1 = write(tmp_path, "mu1.json", mio.measure_doc(normalize(X, [0, 0])))
        mu2 = write(tmp_path, "mu2.json", mio.measure_doc(normalize(Y, [0, 0])))
        good = write(
            tmp_path,
            "good.json",
            mio.coupling_doc(tensor(normalize(X, [0, 0]), normalize(Y, [0, 0]))),
        )
        code, out = run(capsys, ["couplings", mu1, mu2, "--check", good, "--enumerate"])
        assert code == 0
        assert out["feasible"] is True
        assert len(out["patterns"]) == 16

        bad = write(
            tmp_path,
            "bad.json",
            mio.coupling_doc(dirac(product_space(X, Y), ("x1", "y1"))),
        )
        code, out = run(capsys, ["couplings", mu1, mu2, "--check", bad])
        assert code == 2
        assert out["feasible"] is False

        target = write(
            tmp_path,
            "target.json",
            mio.measure_doc(
                normalize(product_space(X, Y), {("x1", "y1"): 0.0, ("x2", "y2"): 0.0})
            ),
        )
        code, out = run(capsys, ["couplings", mu1, mu2, "--gap", target])
        assert code == 0
        assert out["gap"] == 0.0

    def test_counterexample(self, capsys):
        code, out = run(capsys, ["counterexample", "--l", "10"])
        assert code == 0
        assert out["gap"] == 1.0
        assert out["l"] == 10
        code, out = run(capsys, ["counterexample", "--l", "inf"])
        assert code == 0
        assert out["gap"] == 0.0

    @pytest.mark.parametrize("l", ["nan", "1e400", "Infinity"])
    def test_counterexample_rejects_nan(self, capsys, l):
        assert cli.main(["counterexample", "--l", l]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --l must be a positive integer or 'inf'\n"

    def test_milyutin(self, tmp_path, capsys):
        Y = space("abc")
        ms = write(
            tmp_path,
            "Y.json",
            mio.metric_space_doc(metric_closure(Y, [[0, 1, 1], [1, 0, 1], [1, 1, 0]]), "Y"),
        )
        levels = [
            MilyutinLevel(
                (
                    CoverPair(frozenset("ab"), frozenset("ab")),
                    CoverPair(frozenset("bc"), frozenset("bc")),
                )
            )
        ]
        cov = write(tmp_path, "cov.json", mio.cover_levels_doc(levels, Y, "Y"))
        code, out = run(capsys, ["milyutin", ms, cov, "--depth", "1"])
        assert code == 0
        assert len(out["space"]["points"]) == 4
        b_entry = next(e for e in out["selection"] if e["y"] == "b")
        finite = [w for _, w in b_entry["measure"]["atoms"] if w != "-inf"]
        assert finite == [0.0, 0.0]

    def test_check_laws(self, capsys):
        code, out = run(capsys, ["check-laws", "--seed", "3", "--cases", "15"])
        assert code == 0
        assert out["monad"] == "ok"
        assert out["maslov"] == "ok"

    def test_check_laws_golden(self, capsys):
        assert cli.main(["check-laws", "--seed", "0", "--cases", "50"]) == 0
        assert capsys.readouterr().out == CHECK_LAWS_SEED0_CASES50

    def test_couplings_gap_golden(self, tmp_path, capsys):
        # ties (0,0,1 | 0,0,2) give 96 tight patterns
        X, Y = space(["x1", "x2", "x3"]), space(["y1", "y2", "y3"])
        mu1 = write(tmp_path, "mu1.json", mio.measure_doc(IdempotentMeasure(X, (0.0, 0.0, -0.75))))
        mu2 = write(tmp_path, "mu2.json", mio.measure_doc(IdempotentMeasure(Y, (0.0, 0.0, -1.5))))
        NI = -math.inf
        weights = (-0.25, NI, -1.5, -2.25, 0.0, -2.5, NI, -3.5, -1.25)
        target = write(
            tmp_path, "t.json", mio.measure_doc(IdempotentMeasure(product_space(X, Y), weights))
        )
        assert cli.main(["couplings", mu1, mu2, "--gap", target]) == 0
        golden = (GOLDEN / "couplings_gap_ties.json").read_text(encoding="utf-8")
        assert capsys.readouterr().out == golden

    def test_couplings_enumerate_golden(self, tmp_path, capsys):
        # the weak order (0,1,3 | 0,2,2) gives 12 tight patterns
        X, Y = space(["x1", "x2", "x3"]), space(["y1", "y2", "y3"])
        mu1 = write(tmp_path, "mu1.json", mio.measure_doc(IdempotentMeasure(X, (0.0, -0.5, -1.5))))
        mu2 = write(tmp_path, "mu2.json", mio.measure_doc(IdempotentMeasure(Y, (0.0, -1.0, -1.0))))
        assert cli.main(["couplings", mu1, mu2, "--enumerate"]) == 0
        golden = (GOLDEN / "couplings_enumerate_ties.json").read_text(encoding="utf-8")
        assert capsys.readouterr().out == golden
        assert len(json.loads(golden)["patterns"]) == 12

    @pytest.mark.parametrize(
        "shape", [(2, 6), (4, 4), (5, 5), (1, 20)], ids=lambda shape: "%dx%d" % shape
    )
    def test_couplings_gap_domain(self, tmp_path, capsys, shape):
        # the gap and its witness are closed forms: neither the 4-point cap
        # of the tight-pattern enumeration nor any cell count limits them
        X, Y = space([f"x{i}" for i in range(shape[0])]), space([f"y{j}" for j in range(shape[1])])
        mu1 = write(tmp_path, "mu1.json", mio.measure_doc(normalize(X, [0.0] * len(X))))
        mu2 = write(tmp_path, "mu2.json", mio.measure_doc(normalize(Y, [0.0] * len(Y))))
        corner = dirac(product_space(X, Y), ("x0", "y0"))
        target = write(tmp_path, "t.json", mio.measure_doc(corner))
        assert cli.main(["couplings", mu1, mu2, "--gap", target]) == 0
        captured = capsys.readouterr()
        out = json.loads(captured.out)
        assert out["gap"] == 1.0
        assert captured.err == ""

    def test_lift_open_golden(self, tmp_path, capsys):
        # the doubled fiber {x0, x2} ties in mu0, and x3 is a -inf atom
        src, tgt = space(["x0", "x1", "x2", "x3"]), space(["y1", "y2", "y3"])
        table = {"x0": "y1", "x1": "y2", "x2": "y1", "x3": "y3"}
        f = write(tmp_path, "f.json", mio.map_doc(PointMap(src, tgt, table)))
        mu0 = write(
            tmp_path, "mu0.json",
            mio.measure_doc(IdempotentMeasure(src, (-0.5, 0.0, -0.5, -math.inf))),
        )
        nus = [
            write(tmp_path, f"nu{k}.json", mio.measure_doc(IdempotentMeasure(tgt, weights)))
            for k, weights in enumerate(
                [(-0.25, 0.0, -math.inf), (-4.0 / 3.0, -0.75, 0.0), (0.0, -math.inf, -2.0)]
            )
        ]
        assert cli.main(["lift-open", f, mu0, *nus]) == 0
        golden = (GOLDEN / "lift_open_ties.json").read_text(encoding="utf-8")
        assert capsys.readouterr().out == golden

    def test_counterexample_golden(self, capsys):
        assert cli.main(["counterexample", "--l", "7"]) == 0
        golden = (GOLDEN / "counterexample_l7.json").read_text(encoding="utf-8")
        assert capsys.readouterr().out == golden

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--max-points", "0"], "max_points must be at least 1, got 0"),
            (["--cases", "-3"], "cases must be at least 1, got -3"),
            (["--cases", "0"], "cases must be at least 1, got 0"),
        ],
        ids=["max-points 0", "cases -3", "cases 0"],
    )
    def test_check_laws_bounds(self, capsys, flags, message):
        assert cli.main(["check-laws", *flags]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_check_laws_violation_exit_code(self, capsys, monkeypatch):
        import maslov.laws as laws_mod

        def fake(seed, cases, max_points):
            return {"monad": LawReport("monad", 1, False, "fabricated failure")}

        monkeypatch.setattr(laws_mod, "run_all_laws", fake)
        code, out = run(capsys, ["check-laws"])
        assert code == 3
        assert out["monad"].startswith("violated")


class TestErrorPaths:
    def test_schema_error_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"kind": "measure", "space": "X"}', encoding="utf-8")
        f = write(tmp_path, "f.json", mio.function_doc(FiniteFunction(X2, (0.0, 0.0))))
        code = cli.main(["integrate", str(bad), str(f)])
        assert code == 1

    def test_unnormalized_measure_exit_one(self, tmp_path, capsys):
        doc = {"kind": "measure", "space": "X", "atoms": {"a": -1.0, "b": -2.0}}
        m = write(tmp_path, "m.json", doc)
        f = write(tmp_path, "f.json", mio.function_doc(FiniteFunction(X2, (0.0, 0.0))))
        assert cli.main(["integrate", m, f]) == 1

    def test_invalid_json_exit_one(self, tmp_path, capsys):
        p = tmp_path / "junk.json"
        p.write_text("{nope", encoding="utf-8")
        assert cli.main(["zeta", str(p)]) == 1

    def test_bicommute_infeasible_exit_two(self, tmp_path, capsys):
        ci, cj = space(["y0", "y1"]), space(["x1"])
        gdoc = write(tmp_path, "g.json", mio.map_doc(PointMap(ci, cj, {"y0": "x1", "y1": "x1"})))
        mu = write(tmp_path, "mu.json", mio.measure_doc(dirac(ci, "y0")))
        # first marginal of this coupling is a Dirac at x1 with weight 0,
        # which matches; break it by handing a coupling over a 2x2 base
        cj2 = space(["x1", "x2"])
        ci2 = space(["y0", "y1", "y2"])
        g2 = write(
            tmp_path,
            "g2.json",
            mio.map_doc(PointMap(ci2, cj2, {"y0": "x1", "y1": "x1", "y2": "x2"})),
        )
        mu2 = write(tmp_path, "mu2.json", mio.measure_doc(dirac(ci2, "y2")))
        nu2 = write(
            tmp_path,
            "nu2.json",
            mio.coupling_doc(dirac(product_space(cj2, cj2), ("x1", "x1"))),
        )
        assert cli.main(["bicommute", g2, mu2, nu2]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "infeasible: first marginal of the coupling differs from the image of mu\n"

    def test_stdin_dash(self, tmp_path, capsys, monkeypatch):
        f = write(tmp_path, "f.json", mio.function_doc(FiniteFunction(X2, (3.0, 5.0))))
        doc = mio.dumps(mio.measure_doc(normalize(X2, {"a": -1, "b": 0})))
        monkeypatch.setattr("sys.stdin", _byte_stdin(doc.encode("utf-8")))
        code, out = run(capsys, ["integrate", "-", f])
        assert code == 0
        assert out == {"value": 5.0}

    def test_stdin_reads_utf8_whatever_the_locale(self, tmp_path):
        # a non-ASCII label read from stdin must match the same label read from a file
        E = space(["é", "b"])
        m = tmp_path / "m.json"  # written as raw UTF-8, not \u escapes
        m.write_text(json.dumps(mio.measure_doc(normalize(E, {"é": 0, "b": -1})), ensure_ascii=False),
                     encoding="utf-8")
        f = write(tmp_path, "f.json", mio.function_doc(FiniteFunction(E, (4.0, 1.0))))
        env = child_env(PYTHONIOENCODING="latin-1")

        def fresh(argv):
            proc = subprocess.run(
                [sys.executable, "-m", "maslov.cli", *argv], input=m.read_bytes(),
                env=env, capture_output=True, timeout=120,
            )
            return proc.returncode, proc.stdout

        from_file = fresh(["integrate", str(m), f])
        assert from_file == (0, b'{\n  "value": 4.0\n}\n')
        assert fresh(["integrate", "-", f]) == from_file


class TestHashSeed:
    """Commands that build frozensets or dicts from labels print the same
    bytes whatever the interpreter's string hash seed."""

    @staticmethod
    def _fresh(argv, seed):
        proc = subprocess.run(
            [sys.executable, "-m", "maslov.cli", *argv],
            env=child_env(PYTHONHASHSEED=seed), capture_output=True, text=True, timeout=120,
        )
        return proc.returncode, proc.stdout

    @staticmethod
    def _argv(tmp_path, command):
        X, Y = space(["x1", "x2", "x3"]), space(["y1", "y2", "y3"])
        src, tgt = space(["x0", "x1", "x2", "x3"]), space(["y1", "y2", "y3"])
        f = PointMap(src, tgt, {"x0": "y1", "x1": "y2", "x2": "y1", "x3": "y3"})
        mu0 = IdempotentMeasure(src, (-0.5, 0.0, -0.5, -math.inf))
        if command == "milyutin":
            Yb = space("abcd")
            ones = [[0.0 if i == j else 1.0 for j in range(4)] for i in range(4)]
            levels = [
                MilyutinLevel((
                    CoverPair(frozenset("ab"), frozenset("abc"), {"c": -0.5}),
                    CoverPair(frozenset("cd"), frozenset("bcd"), {"b": -0.25}),
                )),
                MilyutinLevel((
                    CoverPair(frozenset("ac"), frozenset("abcd"), {"b": -1.0, "d": -0.75}),
                    CoverPair(frozenset("bd"), frozenset("abd"), {"a": -0.5}),
                )),
            ]
            return [
                "milyutin",
                write(tmp_path, "Y.json", mio.metric_space_doc(metric_closure(Yb, ones), "Y")),
                write(tmp_path, "cov.json", mio.cover_levels_doc(levels, Yb, "Y")),
                "--depth", "2",
            ]
        if command == "hyper":
            chi = FiniteFunction(space("abcdef"), (1.0, 0.0, 1.0, 1.0, 0.0, 1.0))
            return ["hyper", write(tmp_path, "chi.json", mio.function_doc(chi))]
        if command == "couplings":
            return [
                "couplings",
                write(tmp_path, "mu1.json", mio.measure_doc(IdempotentMeasure(X, (0.0, 0.0, -0.75)))),
                write(tmp_path, "mu2.json", mio.measure_doc(IdempotentMeasure(Y, (0.0, 0.0, -1.5)))),
                "--enumerate",
            ]
        if command == "lift-open":
            nus = [(-0.25, 0.0, -math.inf), (-4.0 / 3.0, -0.75, 0.0)]
            return [
                "lift-open",
                write(tmp_path, "f.json", mio.map_doc(f)),
                write(tmp_path, "mu0.json", mio.measure_doc(mu0)),
                *(write(tmp_path, f"nu{k}.json", mio.measure_doc(IdempotentMeasure(tgt, w)))
                  for k, w in enumerate(nus)),
            ]
        nu = tensor(pushforward(f, mu0), IdempotentMeasure(tgt, (0.0, -0.25, -1.0)))
        return [
            "bicommute",
            write(tmp_path, "f.json", mio.map_doc(f)),
            write(tmp_path, "mu0.json", mio.measure_doc(mu0)),
            write(tmp_path, "nu.json", mio.coupling_doc(nu)),
        ]

    @pytest.mark.parametrize("command", ["milyutin", "hyper", "couplings", "lift-open", "bicommute"])
    def test_stdout_independent_of_hash_seed(self, tmp_path, command):
        argv = self._argv(tmp_path, command)
        first, second = self._fresh(argv, "0"), self._fresh(argv, "1")
        assert first[0] == 0
        assert first == second


class TestLabelArrays:
    """A string or object where the schema wants an array of labels exits 1;
    it is not iterated as a sequence of labels."""

    MEASURE = {"kind": "measure", "space": "X", "atoms": {"a": 0, "b": -1}}

    def call(self, tmp_path, capsys, command, *docs):
        paths = []
        for i, doc in enumerate(docs):
            p = tmp_path / f"d{i}.json"
            p.write_text(json.dumps(doc), encoding="utf-8")
            paths.append(str(p))
        code = cli.main([command, *paths])
        captured = capsys.readouterr()
        assert captured.out == ""
        if VALIDATOR is not None:
            assert not all(VALIDATOR.is_valid(doc) for doc in docs)
        return code, captured.err

    def test_target_points(self, tmp_path, capsys):
        f = {"kind": "map", "source": "X", "target": "Y", "target_points": "uv",
             "table": {"a": "u", "b": "v"}}
        code, err = self.call(tmp_path, capsys, "push", f, self.MEASURE)
        assert code == 1
        assert "target_points must be an array" in err

    def test_inline_space_points(self, tmp_path, capsys):
        mu = {"kind": "measure", "space": {"name": "X", "points": {"a": 0, "b": 1}},
              "atoms": {"a": 0, "b": -1}}
        code, err = self.call(tmp_path, capsys, "sup", mu)
        assert code == 1
        assert "inline space points must be an array" in err

    def test_cover_pair_sets(self, tmp_path, capsys):
        ms = mio.metric_space_doc(metric_closure(X2, [[0, 1], [1, 0]]), "Y")
        covers = {"kind": "cover_levels", "space": "Y",
                  "levels": [[{"U": "a", "V": "ab"}, {"U": ["b"], "V": ["a", "b"]}]]}
        code, err = self.call(tmp_path, capsys, "milyutin", ms, covers)
        assert code == 1
        assert "U must be an array" in err


class TestUsageErrors:
    """Argument errors exit 1, like every other input error; 2 means infeasible."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["check-laws", "--cases", "abc"], "argument --cases: invalid int value: 'abc'"),
            (["counterexample", "--l", "-inf"], "argument --l: expected one argument"),
            (["frobnicate"], "argument command: invalid choice: 'frobnicate'"),
        ],
        ids=["cases abc", "l -inf", "unknown command"],
    )
    def test_exit_one(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        usage, error = captured.err.split("\nerror: ")
        assert usage.startswith("usage: maslov")
        assert error.startswith(message)

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: maslov")

    def test_help_and_usage_golden(self):
        # every help and usage text, byte for byte, with its exit code
        golden = json.loads((GOLDEN / "cli_help.json").read_text(encoding="utf-8"))
        assert help_outcomes() == golden

    def test_infeasible_check_exits_two(self, tmp_path, capsys):
        X, Y = space("ab"), space("uv")
        mu1 = write(tmp_path, "mu1.json", mio.measure_doc(normalize(X, {"a": 0, "b": -1})))
        mu2 = write(tmp_path, "mu2.json", mio.measure_doc(normalize(Y, {"u": 0, "v": -1})))
        # both marginals of the Dirac at (a, u) put -inf on b and v
        c = write(tmp_path, "c.json", mio.coupling_doc(dirac(product_space(X, Y), ("a", "u"))))
        code, out = run(capsys, ["couplings", mu1, mu2, "--check", c])
        assert code == 2
        assert out == {"feasible": False}


class TestDeterminism:
    def test_byte_identical_outputs(self, tmp_path, capsys):
        m1 = write(tmp_path, "m1.json", mio.measure_doc(normalize(X2, {"a": 0, "b": -1})))
        m2 = write(tmp_path, "m2.json", mio.measure_doc(normalize(space("uv"), {"u": -2, "v": 0})))
        cli.main(["tensor", m1, m2])
        first = capsys.readouterr().out
        cli.main(["tensor", m1, m2])
        second = capsys.readouterr().out
        assert first == second

    def test_parse_print_parse_fixpoint(self, tmp_path):
        mu = tensor(normalize(X2, {"a": 0, "b": -1}), dirac(space("uv"), "u"))
        doc = mio.measure_doc(mu)
        text = mio.dumps(doc)
        again = mio.dumps(json.loads(text))
        assert text == again


def help_outcomes():
    """stdout, stderr and exit code of `maslov --help`, bare `maslov`, and
    `maslov <cmd> --help` and `maslov <cmd> --bogus` for every subcommand,
    at 80 columns; `tests/golden/cli_help.json` is this dict as JSON."""
    parser = cli.build_parser()
    commands = next(a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    argvs = [["--help"], []] + [[c, flag] for c in commands for flag in ("--help", "--bogus")]
    outcomes = {}
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        for argv in argvs:
            out, err = std_io.StringIO(), std_io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
            outcomes[" ".join(argv)] = {"stdout": out.getvalue(), "stderr": err.getvalue(), "exit": code}
    return outcomes
