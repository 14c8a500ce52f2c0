"""Command-line front end: JSON documents in, JSON results out.

Exit codes: 0 success, 1 usage, validation or schema error, 2 infeasible
instance, 3 law violation found by check-laws.  A file argument of "-"
reads the document from standard input.

Each subcommand is declared once, by `_command` above its run function:
its name, its help and its arguments.  An argument is
`_arg(name, kind, **options)`: its argparse name and options, and for a
file argument the kind of document it holds.  `build_parser` builds the
subparsers from that table, in declaration order.

`main` alone runs the phases of a call: it parses the arguments, reads and
decodes the documents (`_documents`), calls the run function, encodes the
result (`mio.dumps`), writes it to standard output and maps errors to exit
codes.  A run function takes the parsed arguments, the `Context` and the
decoded documents in declaration order (a repeated argument's documents
last, one by one), and returns the output document, or the document and a
nonzero exit code.  It imports its kernels in its own body, so a call
loads only the modules that its subcommand reads.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Any, Callable, Sequence

from . import io as mio
from .core import InfeasibleError


def _read(path: str) -> Any:
    """The parsed document at a path, or on standard input for "-", read as
    bytes and parsed by `mio.loads` whatever the locale; a read error names
    the path."""
    try:
        if path == "-":
            return mio.loads(sys.stdin.buffer.read())
        with open(path, "rb") as fh:
            return mio.loads(fh.read())
    except (mio.DocumentError, OSError) as exc:
        raise mio.DocumentError(f"{path}: {exc}") from None


def _documents(*specs: tuple[str | None, str]) -> list[Any]:
    """Read and decode documents given as (path, kind) pairs.

    Returns the context and then one decoded object per pair; a None path
    (an option not given) decodes to None.  Every document is parsed before
    any is decoded.  Decoding is one pass in argument order into a fresh
    context, so a space name is defined by the first document that uses it,
    and every document is decoded before any command computes.
    """
    objs = [None if path is None else _read(path) for path, _ in specs]
    ctx = mio.Context()
    return [ctx] + [
        None if path is None else mio.decode(obj, ctx, kind)
        for obj, (path, kind) in zip(objs, specs)
    ]


# name -> (help, arguments, run function), in declaration order
_COMMANDS: dict[str, tuple[str, tuple[tuple[str, str | None, dict], ...], Callable]] = {}


def _arg(name: str, kind: str | None = None, **options: Any) -> tuple[str, str | None, dict]:
    return name, kind, options


def _command(name: str, help_text: str, *arguments: tuple[str, str | None, dict]):
    def declare(run: Callable) -> Callable:
        _COMMANDS[name] = (help_text, arguments, run)
        return run

    return declare


@_command("integrate", "Maslov integral of a function against a measure",
          _arg("measure", "measure"), _arg("function", "function"))
def _integrate(args, ctx, mu, phi):
    from .measures import integrate

    return {"value": integrate(mu, phi)}


@_command("push", "pushforward of a measure along a map",
          _arg("map", "map"), _arg("measure", "measure"))
def _push(args, ctx, f, mu):
    from .functor import pushforward

    return mio.measure_doc(pushforward(f, mu), ctx)


@_command("lift", "maximal lift of a measure through a surjection",
          _arg("map", "map"), _arg("measure", "measure"))
def _lift(args, ctx, f, nu):
    from .functor import lift_along_surjection

    return mio.measure_doc(lift_along_surjection(f, nu), ctx)


@_command("tensor", "sum-weight coupling of two measures",
          _arg("left", "measure"), _arg("right", "measure"))
def _tensor(args, ctx, mu, nu):
    from .monad import tensor

    return mio.measure_doc(tensor(mu, nu), ctx)


@_command("zeta", "collapse a measure of measures by max-plus mixing",
          _arg("outer", "outer_measure"))
def _zeta(args, ctx, M):
    from .monad import multiply

    return mio.measure_doc(multiply(M), ctx)


@_command("marginal", "axis marginal of a measure on a product",
          _arg("measure", "measure"), _arg("--axis", type=int, default=0))
def _marginal(args, ctx, mu):
    from .monad import marginal

    return mio.measure_doc(marginal(mu, args.axis), ctx)


@_command("barycenter", "idempotent barycenter of a measure over a cloud",
          _arg("cloud", "cloud"), _arg("measure", "measure"))
def _barycenter(args, ctx, cloud, mu):
    from .convexity import barycenter

    return {"point": list(barycenter(cloud, mu))}


@_command("dist", "Lipschitz-dual pseudometric between two measures",
          _arg("metric", "metric_space"), _arg("left", "measure"), _arg("right", "measure"),
          _arg("--n", type=int, default=1),
          _arg("--oracle", action="store_true", help="also run the grid oracle"),
          _arg("--step", type=float, default=0.01))
def _dist(args, ctx, X, mu, nu):
    from .metrics import dhat, dhat_oracle

    value = dhat(args.n, X, mu, nu)
    out: dict[str, Any] = {"n": args.n, "dhat": value, "dtilde": value / args.n}
    if args.oracle:
        out["oracle"] = dhat_oracle(args.n, X, mu, nu, step=args.step)
        out["step"] = args.step
    return out


@_command("sup", "pointwise supremum of measures", _arg("measures", "measure", nargs="+"))
def _sup(args, ctx, *measures):
    from .measures import pointwise_sup

    return mio.measure_doc(pointwise_sup(measures), ctx)


@_command("hyper", "embed a 0/1 indicator set as a measure", _arg("indicator", "function"))
def _hyper(args, ctx, chi):
    from .monad import ClosedSet, hyperspace_embed

    if any(v not in (0.0, 1.0) for v in chi.values):
        raise mio.DocumentError("hyper expects a 0/1 indicator function")
    members = frozenset(p for p, v in zip(chi.space.points, chi.values) if v == 1.0)
    if not members:
        raise mio.DocumentError("the indicated set is empty")
    return mio.measure_doc(hyperspace_embed(ClosedSet(chi.space, members)), ctx)


@_command("fuzzy", "embed a [0,1]-graded fuzzy set as a measure", _arg("grades", "function"))
def _fuzzy(args, ctx, chi):
    from .monad import FuzzySet, fuzzy_embed

    return mio.measure_doc(fuzzy_embed(FuzzySet(chi.space, chi.values)), ctx)


@_command("lift-open", "lift a measure sequence through a surjection",
          _arg("map", "map"), _arg("anchor", "measure"), _arg("sequence", "measure", nargs="+"))
def _lift_open(args, ctx, f, mu0, *nus):
    from .openness import lift_open_surjection

    return {"lifts": [mio.measure_doc(m, ctx) for m in lift_open_surjection(f, mu0, nus)]}


@_command("bicommute", "lift a coupling through a surjection on both axes",
          _arg("map", "map"), _arg("measure", "measure"), _arg("coupling", "coupling"))
def _bicommute(args, ctx, f, mu, nu):
    from .openness import bicommutative_lift

    return mio.coupling_doc(bicommutative_lift(f, mu, nu), ctx)


@_command("couplings", "feasibility and enumeration for max-marginal couplings",
          _arg("left", "measure"), _arg("right", "measure"),
          _arg("--check", "coupling", help="coupling document to test for feasibility"),
          _arg("--enumerate", action="store_true", help="list tight patterns"),
          _arg("--gap", "measure", help="target measure for the best-approximation gap"))
def _couplings(args, ctx, mu1, mu2, coupling, target):
    from .openness import coupling_feasible, coupling_gap, pattern_max_coupling, tight_patterns

    out: dict[str, Any] = {}
    if coupling is not None:
        out["feasible"] = coupling_feasible(coupling, mu1, mu2)
    if args.enumerate:
        patterns = list(tight_patterns(mu1, mu2))  # never empty for valid marginals
        # every pattern's largest coupling is the same cap coupling
        max_coupling = mio.coupling_doc(pattern_max_coupling(patterns[0], mu1, mu2), ctx)
        out["patterns"] = [
            {
                "rows": [[mio.encode_label(x), mio.encode_label(y)] for x, y in pattern.rows],
                "cols": [[mio.encode_label(y), mio.encode_label(x)] for y, x in pattern.cols],
                "max_coupling": max_coupling,
            }
            for pattern in patterns
        ]
    if target is not None:
        out.update(mio.gap_doc(coupling_gap(mu1, mu2, target), ctx))
    if not out:
        out["feasible"] = True  # the min-cap coupling always exists for valid marginals
    return out, 2 if out.get("feasible") is False else 0


@_command("counterexample", "the marginal-tracking gap at the two-point instance",
          _arg("--l", default="1"))
def _counterexample(args, ctx):
    from .openness import counterexample_instance, coupling_gap

    try:
        l = math.inf if args.l == "inf" else float(args.l)
    except ValueError:
        raise mio.DocumentError("--l must be a positive integer or 'inf'") from None
    # NaN fails l >= 1; 1e400 and Infinity fail is_integer, so only 'inf' is infinite
    if args.l != "inf" and not (l >= 1 and l.is_integer()):
        raise mio.DocumentError("--l must be a positive integer or 'inf'")
    mu1, mu2, target = counterexample_instance(l)
    result = coupling_gap(mu1, mu2, target)
    ctx.spaces.update(X=mu1.space, Y=mu2.space)
    return {"l": "inf" if l == math.inf else int(l), **mio.gap_doc(result, ctx)}


@_command("milyutin", "fiber-product cover space with a measure selection",
          _arg("metric", "metric_space"), _arg("covers", "cover_levels"),
          _arg("--depth", type=int, default=1))
def _milyutin(args, ctx, Y, levels):
    from .openness import milyutin_build

    X, f, selection = milyutin_build(Y, levels, args.depth)
    cover_name = f"cover({ctx.name_of(Y.space)})"
    ctx.register(cover_name, X)
    return {
        "space": mio.space_doc(X, cover_name),
        "map": mio.map_doc(f, ctx),
        "selection": [
            {"y": mio.encode_label(y), "measure": mio.measure_doc(selection[y], ctx)}
            for y in Y.space.points
        ],
    }


@_command("check-laws", "run the algebraic law harness",
          _arg("--seed", type=int, default=0), _arg("--cases", type=int, default=200),
          _arg("--max-points", type=int, default=4))
def _check_laws(args, ctx):
    from .laws import run_all_laws

    reports = run_all_laws(seed=args.seed, cases=args.cases, max_points=args.max_points)
    out = {"seed": args.seed, "cases": args.cases}
    out.update({name: report.status for name, report in reports.items()})
    return out, 0 if all(r.ok for r in reports.values()) else 3


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit 1, like every other input error."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="maslov",
        description="Max-plus (idempotent) measure toolkit over finite spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, arguments, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for arg_name, _, options in arguments:
            p.add_argument(arg_name, **options)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    _, arguments, run = _COMMANDS[args.command]
    specs = []
    for name, kind, _ in arguments:
        if kind:  # a file argument: a path, None (an option not given) or a list of paths
            paths = getattr(args, name.lstrip("-").replace("-", "_"))
            specs += [(p, kind) for p in (paths if isinstance(paths, list) else [paths])]
    try:
        ctx, *docs = _documents(*specs)
        out = run(args, ctx, *docs)
        out, code = out if isinstance(out, tuple) else (out, 0)
        sys.stdout.write(mio.dumps(out))
        return code
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 2
    except (mio.DocumentError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
