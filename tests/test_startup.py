"""Only metric-space work loads numpy.

Max-plus operations on weight tuples need no arrays, so a fresh process
that imports the package and runs the CLI on such documents never imports
numpy; `maslov dist` builds a MetricSpace and does.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import maslov.io as mio
from maslov import (
    FiniteFunction,
    IdempotentMeasure,
    OuterMeasure,
    PointMap,
    dirac,
    metric_closure,
    normalize,
    product_space,
    space,
    tensor,
)

ROOT = Path(__file__).resolve().parent.parent

# Runs each argv through cli.main in one fresh process and prints, per call,
# the exit code and whether numpy was loaded after it.
CHILD = """
import contextlib, io, json, sys
import maslov, maslov.cli as cli
loaded = ["numpy" in sys.modules]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    loaded.append([argv[0], code, "numpy" in sys.modules])
print(json.dumps(loaded))
"""


def run_fresh(calls):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps(calls)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def write(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(mio.dumps(doc), encoding="utf-8")
    return str(p)


def test_only_metric_commands_load_numpy(tmp_path):
    X, Y = space("ab"), space("uv")
    mu = write(tmp_path, "mu.json", mio.measure_doc(normalize(X, {"a": -1, "b": 0})))
    nu = write(tmp_path, "nu.json", mio.measure_doc(normalize(Y, {"u": 0, "v": -2})))
    phi = write(tmp_path, "phi.json", mio.function_doc(FiniteFunction(X, (3.0, 5.0))))
    ind = write(tmp_path, "ind.json", mio.function_doc(FiniteFunction(X, (1.0, 0.0))))
    f = write(tmp_path, "f.json", mio.map_doc(PointMap(X, Y, {"a": "u", "b": "v"})))
    t = write(tmp_path, "t.json", mio.measure_doc(tensor(dirac(X, "a"), dirac(Y, "v"))))
    M = OuterMeasure(X, (dirac(X, "a"), IdempotentMeasure(X, (-2.0, 0.0))), (-1.0, 0.0))
    o = write(tmp_path, "o.json", mio.outer_doc(M))
    target = write(
        tmp_path, "target.json",
        mio.measure_doc(normalize(product_space(X, Y), {("a", "u"): 0.0, ("b", "v"): 0.0})),
    )
    calls = [
        ["integrate", mu, phi],
        ["push", f, mu],
        ["tensor", mu, nu],
        ["marginal", t, "--axis", "1"],
        ["zeta", o],
        ["hyper", ind],
        ["couplings", mu, nu, "--gap", target],
        ["counterexample", "--l", "7"],
        ["check-laws", "--cases", "3"],
    ]
    loaded = run_fresh(calls)
    assert loaded[0] is False  # importing the package and the CLI
    assert loaded[1:] == [[argv[0], 0, False] for argv in calls]


def test_dist_loads_numpy(tmp_path):
    X = space("ab")
    ms = write(tmp_path, "ms.json", mio.metric_space_doc(metric_closure(X, [[0, 1], [1, 0]]), "X"))
    mu = write(tmp_path, "mu.json", mio.measure_doc(dirac(X, "a")))
    nu = write(tmp_path, "nu.json", mio.measure_doc(dirac(X, "b")))
    assert run_fresh([["dist", ms, mu, nu]]) == [False, ["dist", 0, True]]
