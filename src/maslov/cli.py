"""Command-line front end: JSON documents in, JSON results out.

Exit codes: 0 success, 1 usage, validation or schema error, 2 infeasible
instance, 3 law violation found by check-laws.  A file argument of "-"
reads the document from standard input.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Any, Sequence

from . import io as mio
from .convexity import barycenter
from .functor import lift_along_surjection, pushforward
from .measures import integrate, pointwise_sup
from .metrics import dhat, dhat_oracle, dtilde
from .monad import ClosedSet, FuzzySet, fuzzy_embed, hyperspace_embed, marginal, multiply, tensor
from .openness import (
    CollapseMap,
    InfeasibleError,
    bicommutative_lift,
    coupling_feasible,
    coupling_gap,
    counterexample_instance,
    lift_open_collapse,
    milyutin_build,
    pattern_max_coupling,
    tight_patterns,
)


def _read_json(path: str) -> Any:
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise mio.DocumentError(f"{path}: invalid JSON ({exc})") from None
    except OSError as exc:
        raise mio.DocumentError(f"{path}: {exc}") from None


def _documents(*specs: tuple[str | None, str]) -> list[Any]:
    """Read, check and decode documents given as (path, kind) pairs.

    Returns the context and then one decoded object per pair, in argument
    order; a None path (an option not given) decodes to None.  Every
    document is read and checked before the context is built from all of
    them, and every one is decoded before any command computes.
    """
    objs = [None if path is None else _read_json(path) for path, _ in specs]
    if not all(obj is None or isinstance(obj, dict) for obj in objs):
        raise mio.DocumentError("every document must be a JSON object")
    ctx = mio.build_context([obj for obj in objs if obj is not None])
    return [ctx] + [
        None if obj is None else mio.decode(obj, ctx, kind)
        for obj, (_, kind) in zip(objs, specs)
    ]


def _emit(doc: Any) -> None:
    sys.stdout.write(mio.dumps(doc))


def cmd_integrate(args) -> int:
    _, mu, phi = _documents((args.measure, "measure"), (args.function, "function"))
    _emit({"value": integrate(mu, phi)})
    return 0


def cmd_push(args) -> int:
    ctx, f, mu = _documents((args.map, "map"), (args.measure, "measure"))
    _emit(mio.measure_doc(pushforward(f, mu), ctx))
    return 0


def cmd_lift(args) -> int:
    ctx, f, nu = _documents((args.map, "map"), (args.measure, "measure"))
    _emit(mio.measure_doc(lift_along_surjection(f, nu), ctx))
    return 0


def cmd_tensor(args) -> int:
    ctx, mu, nu = _documents((args.left, "measure"), (args.right, "measure"))
    _emit(mio.measure_doc(tensor(mu, nu), ctx))
    return 0


def cmd_zeta(args) -> int:
    ctx, M = _documents((args.outer, "outer_measure"))
    _emit(mio.measure_doc(multiply(M), ctx))
    return 0


def cmd_marginal(args) -> int:
    ctx, mu = _documents((args.measure, "measure"))
    _emit(mio.measure_doc(marginal(mu, args.axis), ctx))
    return 0


def cmd_barycenter(args) -> int:
    _, cloud, mu = _documents((args.cloud, "cloud"), (args.measure, "measure"))
    _emit({"point": list(barycenter(cloud, mu))})
    return 0


def cmd_dist(args) -> int:
    _, X, mu, nu = _documents(
        (args.metric, "metric_space"), (args.left, "measure"), (args.right, "measure")
    )
    value = dhat(args.n, X, mu, nu)
    out: dict[str, Any] = {"n": args.n, "dhat": value, "dtilde": dtilde(args.n, X, mu, nu)}
    if args.oracle:
        out["oracle"] = dhat_oracle(args.n, X, mu, nu, step=args.step)
        out["step"] = args.step
    _emit(out)
    return 0


def cmd_sup(args) -> int:
    ctx, *measures = _documents(*((path, "measure") for path in args.measures))
    _emit(mio.measure_doc(pointwise_sup(measures), ctx))
    return 0


def cmd_hyper(args) -> int:
    ctx, chi = _documents((args.indicator, "function"))
    if any(v not in (0.0, 1.0) for v in chi.values):
        raise mio.DocumentError("hyper expects a 0/1 indicator function")
    members = frozenset(p for p, v in zip(chi.space.points, chi.values) if v == 1.0)
    if not members:
        raise mio.DocumentError("the indicated set is empty")
    _emit(mio.measure_doc(hyperspace_embed(ClosedSet(chi.space, members)), ctx))
    return 0


def cmd_fuzzy(args) -> int:
    ctx, chi = _documents((args.grades, "function"))
    _emit(mio.measure_doc(fuzzy_embed(FuzzySet(chi.space, chi.values)), ctx))
    return 0


def cmd_lift_open(args) -> int:
    ctx, f, mu0, *nus = _documents(
        (args.map, "map"), (args.anchor, "measure"), *((path, "measure") for path in args.sequence)
    )
    lifts = lift_open_collapse(CollapseMap(f), mu0, nus)
    _emit({"lifts": [mio.measure_doc(m, ctx) for m in lifts]})
    return 0


def cmd_bicommute(args) -> int:
    ctx, f, mu, nu = _documents(
        (args.map, "map"), (args.measure, "measure"), (args.coupling, "coupling")
    )
    _emit(mio.coupling_doc(bicommutative_lift(CollapseMap(f), mu, nu), ctx))
    return 0


def cmd_couplings(args) -> int:
    ctx, mu1, mu2, coupling, target = _documents(
        (args.left, "measure"),
        (args.right, "measure"),
        (args.check, "coupling"),
        (args.gap, "measure"),
    )
    out: dict[str, Any] = {}
    if coupling is not None:
        out["feasible"] = coupling_feasible(coupling, mu1, mu2)
    if args.enumerate:
        patterns = []
        for pattern in tight_patterns(mu1, mu2):
            patterns.append(
                {
                    "rows": [[mio.encode_label(x), mio.encode_label(y)] for x, y in pattern.rows],
                    "cols": [[mio.encode_label(y), mio.encode_label(x)] for y, x in pattern.cols],
                    "max_coupling": mio.coupling_doc(pattern_max_coupling(pattern, mu1, mu2), ctx),
                }
            )
        out["patterns"] = patterns
    if target is not None:
        result = coupling_gap(mu1, mu2, target)
        out["gap"] = result.gap
        out["witness_phi"] = mio.function_doc(result.phi, ctx)
        out["best_coupling"] = mio.coupling_doc(result.coupling, ctx)
    if not out:
        out["feasible"] = True  # the min-cap coupling always exists for valid marginals
    _emit(out)
    return 2 if out.get("feasible") is False else 0


def cmd_counterexample(args) -> int:
    try:
        l = math.inf if args.l == "inf" else float(args.l)
    except ValueError:
        raise mio.DocumentError("--l must be a positive integer or 'inf'") from None
    # NaN fails l >= 1; 1e400 and Infinity fail is_integer, so only 'inf' is infinite
    if args.l != "inf" and not (l >= 1 and l.is_integer()):
        raise mio.DocumentError("--l must be a positive integer or 'inf'")
    mu1, mu2, target = counterexample_instance(l)
    result = coupling_gap(mu1, mu2, target)
    ctx = mio.Context()
    ctx.register("X", mu1.space)
    ctx.register("Y", mu2.space)
    _emit(
        {
            "l": "inf" if l == math.inf else int(l),
            "gap": result.gap,
            "witness_phi": mio.function_doc(result.phi, ctx),
            "best_coupling": mio.coupling_doc(result.coupling, ctx),
        }
    )
    return 0


def cmd_milyutin(args) -> int:
    ctx, Y, levels = _documents((args.metric, "metric_space"), (args.covers, "cover_levels"))
    X, f, selection = milyutin_build(Y, levels, args.depth)
    cover_name = f"cover({ctx.name_of(Y.space)})"
    ctx.register(cover_name, X)
    _emit(
        {
            "space": mio.space_doc(X, cover_name),
            "map": mio.map_doc(f, ctx),
            "selection": [
                {"y": mio.encode_label(y), "measure": mio.measure_doc(selection[y], ctx)}
                for y in Y.space.points
            ],
        }
    )
    return 0


def cmd_check_laws(args) -> int:
    # the law harness loads only for this command
    from .laws import run_all_laws

    reports = run_all_laws(seed=args.seed, cases=args.cases, max_points=args.max_points)
    out = {"seed": args.seed, "cases": args.cases}
    out.update({name: report.status for name, report in reports.items()})
    _emit(out)
    return 0 if all(r.ok for r in reports.values()) else 3


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

    p = sub.add_parser("integrate", help="Maslov integral of a function against a measure")
    p.add_argument("measure")
    p.add_argument("function")
    p.set_defaults(fn=cmd_integrate)

    p = sub.add_parser("push", help="pushforward of a measure along a map")
    p.add_argument("map")
    p.add_argument("measure")
    p.set_defaults(fn=cmd_push)

    p = sub.add_parser("lift", help="maximal lift of a measure through a surjection")
    p.add_argument("map")
    p.add_argument("measure")
    p.set_defaults(fn=cmd_lift)

    p = sub.add_parser("tensor", help="sum-weight coupling of two measures")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(fn=cmd_tensor)

    p = sub.add_parser("zeta", help="collapse a measure of measures by max-plus mixing")
    p.add_argument("outer")
    p.set_defaults(fn=cmd_zeta)

    p = sub.add_parser("marginal", help="axis marginal of a measure on a product")
    p.add_argument("measure")
    p.add_argument("--axis", type=int, default=0)
    p.set_defaults(fn=cmd_marginal)

    p = sub.add_parser("barycenter", help="idempotent barycenter of a measure over a cloud")
    p.add_argument("cloud")
    p.add_argument("measure")
    p.set_defaults(fn=cmd_barycenter)

    p = sub.add_parser("dist", help="Lipschitz-dual pseudometric between two measures")
    p.add_argument("metric")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--oracle", action="store_true", help="also run the grid oracle")
    p.add_argument("--step", type=float, default=0.01)
    p.set_defaults(fn=cmd_dist)

    p = sub.add_parser("sup", help="pointwise supremum of measures")
    p.add_argument("measures", nargs="+")
    p.set_defaults(fn=cmd_sup)

    p = sub.add_parser("hyper", help="embed a 0/1 indicator set as a measure")
    p.add_argument("indicator")
    p.set_defaults(fn=cmd_hyper)

    p = sub.add_parser("fuzzy", help="embed a [0,1]-graded fuzzy set as a measure")
    p.add_argument("grades")
    p.set_defaults(fn=cmd_fuzzy)

    p = sub.add_parser("lift-open", help="lift a measure sequence through a collapse map")
    p.add_argument("map")
    p.add_argument("anchor")
    p.add_argument("sequence", nargs="+")
    p.set_defaults(fn=cmd_lift_open)

    p = sub.add_parser("bicommute", help="lift a coupling through a collapse on both axes")
    p.add_argument("map")
    p.add_argument("measure")
    p.add_argument("coupling")
    p.set_defaults(fn=cmd_bicommute)

    p = sub.add_parser("couplings", help="feasibility and enumeration for max-marginal couplings")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--check", help="coupling document to test for feasibility")
    p.add_argument("--enumerate", action="store_true", help="list tight patterns")
    p.add_argument("--gap", help="target measure for the best-approximation gap")
    p.set_defaults(fn=cmd_couplings)

    p = sub.add_parser("counterexample", help="the marginal-tracking gap at the two-point instance")
    p.add_argument("--l", default="1")
    p.set_defaults(fn=cmd_counterexample)

    p = sub.add_parser("milyutin", help="fiber-product cover space with a measure selection")
    p.add_argument("metric")
    p.add_argument("covers")
    p.add_argument("--depth", type=int, default=1)
    p.set_defaults(fn=cmd_milyutin)

    p = sub.add_parser("check-laws", help="run the algebraic law harness")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cases", type=int, default=200)
    p.add_argument("--max-points", type=int, default=4)
    p.set_defaults(fn=cmd_check_laws)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 2
    except (mio.DocumentError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
