"""Only metric-space work loads numpy, only `check-laws` the law harness.

Each subcommand loads only the maslov modules of its own kernels, pinned
per command below, and `import maslov` alone loads none: the package
resolves its public names on first use.

Max-plus operations on weight tuples need no arrays, so a fresh process
that imports the package and runs the CLI on such documents never imports
numpy, not even `zeta`, `tensor` and `marginal` at sizes large enough for
`multiply`, `tensor_many` and `marginal` to use numpy arrays when numpy is
loaded; `maslov dist` builds a MetricSpace and does.
The package re-exports a fixed set of names, and every name that the
README, the demos and the benchmark import from it must resolve.  The value classes take `==`, hash
and repr from their field tuples on `core._Value`, with no class builder,
so importing the CLI loads no `dataclasses` and none of the modules that
it pulls in; no other class writes `==` or hash, and only two value
classes write their own repr.  Every name a module imports is read in it.
"""

import argparse
import ast
import json
import re
import subprocess
import sys
import types

import pytest

import maslov.cli as cli
import maslov.io as mio
from conftest import ROOT, child_env
from maslov import (
    CoverPair,
    FiniteFunction,
    IdempotentMeasure,
    MilyutinLevel,
    OuterMeasure,
    PointCloudSpace,
    PointMap,
    dirac,
    metric_closure,
    normalize,
    product_space,
    pushforward,
    space,
    tensor,
)
from maslov.monad import _ARRAY_POINTS

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
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps(calls)],
        env=child_env(), capture_output=True, text=True, timeout=120,
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
    nu_m = normalize(Y, {"u": 0, "v": -2})
    nu = write(tmp_path, "nu.json", mio.measure_doc(nu_m))
    phi = write(tmp_path, "phi.json", mio.function_doc(FiniteFunction(X, (3.0, 5.0))))
    ind = write(tmp_path, "ind.json", mio.function_doc(FiniteFunction(X, (1.0, 0.0))))
    f = write(tmp_path, "f.json", mio.map_doc(PointMap(X, Y, {"a": "u", "b": "v"})))
    t = write(tmp_path, "t.json", mio.measure_doc(tensor(dirac(X, "a"), dirac(Y, "v"))))
    M = OuterMeasure(X, (dirac(X, "a"), IdempotentMeasure(X, (-2.0, 0.0))), (-1.0, 0.0))
    o = write(tmp_path, "o.json", mio.outer_doc(M))
    # large enough for multiply's array path, which reads numpy only if loaded
    B = space([f"p{i}" for i in range(_ARRAY_POINTS)])
    ramp = normalize(B, {p: -i for i, p in enumerate(B.points)})
    big = OuterMeasure(B, (dirac(B, "p0"), ramp), (-1.0, 0.0))
    o_big = write(tmp_path, "o_big.json", mio.outer_doc(big))
    # large enough for tensor's and marginal's array path, likewise
    C = space([f"c{i}" for i in range(_ARRAY_POINTS // 2)])
    ramp_c = normalize(C, {p: -i / 3 for i, p in enumerate(C.points)})
    c_big = write(tmp_path, "c_big.json", mio.measure_doc(ramp_c))
    t_big = write(tmp_path, "t_big.json", mio.measure_doc(tensor(ramp_c, nu_m)))
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
        ["zeta", o_big],
        ["tensor", c_big, nu],
        ["marginal", t_big, "--axis", "0"],
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


# Runs one argv through cli.main in a fresh process and prints the exit code
# and the maslov submodules loaded, without the package prefix.
CHILD_MODULES = """
import contextlib, io, json, sys
import maslov.cli as cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(json.loads(sys.argv[1]))
print(json.dumps([code, sorted(m[7:] for m in sys.modules if m.startswith("maslov."))]))
"""

FRONT = {"cli", "io", "core", "measures"}
MONAD = FRONT | {"functor", "monad"}
OPENNESS = MONAD | {"openness"}
MODULES = {
    "integrate": FRONT,
    "sup": FRONT,
    "push": FRONT | {"functor"},
    "lift": FRONT | {"functor"},
    "tensor": MONAD,
    "marginal": MONAD,
    "zeta": MONAD,
    "hyper": MONAD,
    "fuzzy": MONAD,
    "barycenter": MONAD | {"convexity"},
    "dist": FRONT | {"metrics"},
    "lift-open": OPENNESS,
    "bicommute": OPENNESS,
    "couplings": OPENNESS,
    "counterexample": OPENNESS,
    "milyutin": OPENNESS,
    "check-laws": MONAD | {"convexity", "laws"},
}


@pytest.fixture(scope="module")
def argvs(tmp_path_factory):
    """One valid invocation of each subcommand."""
    tmp = tmp_path_factory.mktemp("docs")
    X, Y = space("ab"), space("uv")
    mu = write(tmp, "mu.json", mio.measure_doc(normalize(X, {"a": -1, "b": 0})))
    nu = write(tmp, "nu.json", mio.measure_doc(normalize(Y, {"u": 0, "v": -2})))
    a = write(tmp, "a.json", mio.measure_doc(dirac(X, "a")))
    phi = write(tmp, "phi.json", mio.function_doc(FiniteFunction(X, (3.0, 5.0))))
    ind = write(tmp, "ind.json", mio.function_doc(FiniteFunction(X, (1.0, 0.0))))
    f = write(tmp, "f.json", mio.map_doc(PointMap(X, Y, {"a": "u", "b": "v"})))
    t = write(tmp, "t.json", mio.measure_doc(tensor(dirac(X, "a"), dirac(Y, "v"))))
    M = OuterMeasure(X, (dirac(X, "a"), IdempotentMeasure(X, (-2.0, 0.0))), (-1.0, 0.0))
    o = write(tmp, "o.json", mio.outer_doc(M))
    cloud = write(tmp, "cloud.json", mio.cloud_doc(PointCloudSpace(X, {"a": (0.0,), "b": (1.0,)})))
    ms = write(tmp, "ms.json", mio.metric_space_doc(metric_closure(X, [[0, 1], [1, 0]]), "X"))
    target = write(
        tmp, "target.json",
        mio.measure_doc(normalize(product_space(X, Y), {("a", "u"): 0.0, ("b", "v"): 0.0})),
    )
    # a collapse of x0 and x1, and a coupling over its target
    src, tgt = space(["x0", "x1", "x2"]), space(["y1", "y2"])
    g = PointMap(src, tgt, {"x0": "y1", "x1": "y1", "x2": "y2"})
    mu0 = IdempotentMeasure(src, (0.0, -1.0, 0.0))
    gdoc = write(tmp, "g.json", mio.map_doc(g))
    mu0doc = write(tmp, "mu0.json", mio.measure_doc(mu0))
    nu1 = write(tmp, "nu1.json", mio.measure_doc(IdempotentMeasure(tgt, (-1.0, 0.0))))
    coupling = write(tmp, "c.json", mio.coupling_doc(tensor(pushforward(g, mu0), dirac(tgt, "y1"))))
    Z = space("abc")
    zs = write(tmp, "zs.json", mio.metric_space_doc(metric_closure(Z, [[0, 1, 1], [1, 0, 1], [1, 1, 0]]), "Z"))
    levels = [MilyutinLevel((CoverPair(frozenset("ab"), frozenset("ab")),
                             CoverPair(frozenset("bc"), frozenset("bc"))))]
    cov = write(tmp, "cov.json", mio.cover_levels_doc(levels, Z, "Z"))
    return {
        "integrate": ["integrate", mu, phi],
        "sup": ["sup", mu, a],
        "push": ["push", f, mu],
        "lift": ["lift", f, nu],
        "tensor": ["tensor", mu, nu],
        "marginal": ["marginal", t, "--axis", "1"],
        "zeta": ["zeta", o],
        "hyper": ["hyper", ind],
        "fuzzy": ["fuzzy", ind],
        "barycenter": ["barycenter", cloud, mu],
        "dist": ["dist", ms, mu, a],
        "lift-open": ["lift-open", gdoc, mu0doc, nu1],
        "bicommute": ["bicommute", gdoc, mu0doc, coupling],
        "couplings": ["couplings", mu, nu, "--enumerate", "--gap", target],
        "counterexample": ["counterexample", "--l", "7"],
        "milyutin": ["milyutin", zs, cov],
        "check-laws": ["check-laws", "--cases", "2"],
    }


def test_every_subcommand_pinned():
    parser = cli.build_parser()
    commands = next(a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert set(MODULES) == set(commands)


@pytest.mark.parametrize("command", sorted(MODULES))
def test_subcommand_loads_only_its_modules(argvs, command):
    proc = subprocess.run(
        [sys.executable, "-c", CHILD_MODULES, json.dumps(argvs[command])],
        env=child_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [0, sorted(MODULES[command])]


CLASS_BUILDERS = ("dataclasses", "inspect", "ast", "dis", "tokenize")
# Prints which of the modules named on the command line `import maslov.cli` loaded.
CHILD_BUILDERS = """
import json, sys, maslov.cli
print(json.dumps(sorted(set(sys.argv[1:]) & set(sys.modules))))
"""


def test_cli_import_loads_no_class_builder():
    proc = subprocess.run(
        [sys.executable, "-c", CHILD_BUILDERS, *CLASS_BUILDERS],
        env=child_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


def module_trees():
    for path in sorted((ROOT / "src" / "maslov").glob("*.py")):
        yield path.stem, ast.parse(path.read_text(encoding="utf-8"))


def test_no_module_imports_dataclasses():
    found = []
    for module, tree in module_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            found += [(module, m) for m in modules if m.split(".")[0] == "dataclasses"]
    assert found == []


def test_value_methods_have_one_definition():
    """`==` and hash come from `core._Value` alone (its `__init_subclass__`
    builds them), repr from it too except for two value classes; `io.Context`,
    the one mutable class, writes its own `==` and repr."""
    found = set()
    for module, tree in module_trees():
        for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
            for stmt in cls.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    names = [stmt.name]
                elif isinstance(stmt, ast.Assign):
                    names = [t.id for t in stmt.targets if isinstance(t, ast.Name)]
                elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                    names = [stmt.target.id]
                else:
                    continue
                found.update((module, cls.name, name) for name in names
                             if name in ("__eq__", "__hash__", "__repr__"))
    assert {f for f in found if f[2] != "__repr__"} == {("io", "Context", "__eq__")}
    assert {f[:2] for f in found if f[2] == "__repr__"} == {
        ("core", "_Value"), ("core", "ProductSpace"),
        ("measures", "IdempotentMeasure"), ("io", "Context"),
    }


def test_every_import_is_read():
    """Every name a module imports is read in it, annotations included; the
    package's re-exports and `from __future__` are exempt."""
    unused = []
    for module, tree in module_trees():
        if module == "__init__":
            continue
        imported, read = set(), set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(a.asname or a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update(a.asname or a.name for a in node.names)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
        unused += [(module, name) for name in sorted(imported - read)]
    assert unused == []


# Prints which of numpy and maslov.laws `import maslov.cli` loaded, then, per
# call, the exit code and whether maslov.laws was loaded after it.
CHILD_LAWS = """
import contextlib, io, json, sys
import maslov.cli as cli
loaded = [sorted({"numpy", "maslov.laws"} & set(sys.modules))]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    loaded.append([argv[0], code, "maslov.laws" in sys.modules])
print(json.dumps(loaded))
"""


def test_only_check_laws_loads_the_harness(tmp_path):
    X = space("ab")
    mu = write(tmp_path, "mu.json", mio.measure_doc(normalize(X, {"a": -1, "b": 0})))
    phi = write(tmp_path, "phi.json", mio.function_doc(FiniteFunction(X, (3.0, 5.0))))
    calls = [["integrate", mu, phi], ["counterexample", "--l", "2"], ["check-laws", "--cases", "2"]]
    proc = subprocess.run(
        [sys.executable, "-c", CHILD_LAWS, json.dumps(calls)],
        env=child_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [
        [],  # `import maslov.cli` loads neither
        ["integrate", 0, False],
        ["counterexample", 0, False],
        ["check-laws", 0, True],
    ]


PUBLIC = {
    # core types
    "FiniteSpace", "ProductSpace", "MetricSpace", "InfeasibleError",
    # names that the README, demos/ and perfbench/ import from the package
    "NEG_INF", "FiniteFunction", "metric_closure", "odot", "oplus", "product_space",
    "space", "weight_distance",
    "IdempotentMeasure", "convex_combination", "dirac", "integrate", "normalize",
    "pointwise_sup", "support",
    "PointMap", "lift_along_surjection", "pushforward",
    "ClosedSet", "FuzzySet", "OuterMeasure", "fuzzy_embed", "hyperspace_embed",
    "marginal", "multiply", "tensor",
    "PointCloudSpace", "algebra_law_check", "barycenter", "hull_membership",
    "dhat", "dhat_oracle", "dtilde",
    "CollapseMap", "CoverPair", "MilyutinLevel", "bicommutative_lift", "coupling_feasible",
    "coupling_gap", "counterexample_gap", "counterexample_instance", "lift_open_collapse",
    "milyutin_build", "pattern_max_coupling", "tight_patterns",
}


# Prints, for a fresh `import maslov`, which public names it bound and which
# submodules it loaded; then how dir(), __all__, getattr and `import *` see
# the names named on the command line.
CHILD_NAMES = """
import json, sys, types
import maslov
public = set(json.loads(sys.argv[1]))
out = {
    "bound": sorted(public & set(vars(maslov))),
    "loaded": sorted(m for m in sys.modules if m.startswith("maslov.")),
}
out["dir"] = sorted(n for n in dir(maslov) if not n.startswith("_")
                    and not isinstance(getattr(maslov, n), types.ModuleType))
out["all"] = sorted(maslov.__all__)
out["modules"] = sorted(n for n in public if isinstance(getattr(maslov, n), types.ModuleType))
out["cached"] = sorted(public - set(vars(maslov)))
try:
    maslov.no_such_name
except AttributeError:
    out["unknown"] = "AttributeError"
from maslov import cli, io
out["submodules"] = [cli.__name__, io.__name__]
names = {}
exec("from maslov import *", names)
out["star"] = sorted(set(names) - {"__builtins__"})
import maslov.openness
out["one_error_class"] = maslov.InfeasibleError is maslov.openness.InfeasibleError
print(json.dumps(out))
"""


def test_public_names():
    """The 49 names resolve on first use, whatever ran before in this process."""
    assert len(PUBLIC) == 49
    proc = subprocess.run(
        [sys.executable, "-c", CHILD_NAMES, json.dumps(sorted(PUBLIC))],
        env=child_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    public = sorted(PUBLIC)
    assert json.loads(proc.stdout) == {
        "bound": [],  # `import maslov` binds none of them
        "loaded": [],  # and loads no submodule
        "dir": public,
        "all": public,
        "modules": [],
        "cached": [],  # each is bound in the package once resolved
        "unknown": "AttributeError",
        "submodules": ["maslov.cli", "maslov.io"],
        "star": public,
        "one_error_class": True,
    }


def readme_python():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", text, re.S)
    assert blocks
    return blocks


def imported_from_maslov():
    """(name, where) for every `from maslov import name` in the callers."""
    sources = [("README.md", block) for block in readme_python()]
    for folder in ("demos", "perfbench"):
        sources += [
            (f"{folder}/{p.name}", p.read_text(encoding="utf-8"))
            for p in sorted((ROOT / folder).glob("*.py"))
        ]
    found = set()
    for where, source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ImportFrom) and node.module == "maslov" and node.level == 0:
                found.update((alias.name, where) for alias in node.names)
    return sorted(found)


def test_callers_imports_resolve():
    found = imported_from_maslov()
    assert {where.split("/")[0] for _, where in found} == {"README.md", "demos", "perfbench"}
    missing = []
    for name, where in found:
        try:
            exec(f"from maslov import {name}", {})
        except ImportError:
            missing.append((name, where))
    assert missing == []


def test_readme_block_runs():
    proc = subprocess.run(
        [sys.executable, "-c", "\n".join(readme_python())],
        env=child_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
