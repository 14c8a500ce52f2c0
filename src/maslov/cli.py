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


def _load(paths: Sequence[str]) -> tuple[list[Any], mio.Context]:
    objs = [_read_json(p) for p in paths]
    for obj in objs:
        if not isinstance(obj, dict):
            raise mio.DocumentError("every document must be a JSON object")
    return objs, mio.build_context(objs)


def _emit(doc: Any) -> None:
    sys.stdout.write(mio.dumps(doc))


def cmd_integrate(args) -> int:
    objs, ctx = _load([args.measure, args.function])
    mu = mio.decode(objs[0], ctx, "measure")
    phi = mio.decode(objs[1], ctx, "function")
    _emit({"value": integrate(mu, phi)})
    return 0


def cmd_push(args) -> int:
    objs, ctx = _load([args.map, args.measure])
    f = mio.decode(objs[0], ctx, "map")
    mu = mio.decode(objs[1], ctx, "measure")
    _emit(mio.measure_doc(pushforward(f, mu), ctx))
    return 0


def cmd_lift(args) -> int:
    objs, ctx = _load([args.map, args.measure])
    f = mio.decode(objs[0], ctx, "map")
    nu = mio.decode(objs[1], ctx, "measure")
    _emit(mio.measure_doc(lift_along_surjection(f, nu), ctx))
    return 0


def cmd_tensor(args) -> int:
    objs, ctx = _load([args.left, args.right])
    mu = mio.decode(objs[0], ctx, "measure")
    nu = mio.decode(objs[1], ctx, "measure")
    _emit(mio.measure_doc(tensor(mu, nu), ctx))
    return 0


def cmd_zeta(args) -> int:
    objs, ctx = _load([args.outer])
    M = mio.decode(objs[0], ctx, "outer_measure")
    _emit(mio.measure_doc(multiply(M), ctx))
    return 0


def cmd_marginal(args) -> int:
    objs, ctx = _load([args.measure])
    mu = mio.decode(objs[0], ctx, "measure")
    _emit(mio.measure_doc(marginal(mu, args.axis), ctx))
    return 0


def cmd_barycenter(args) -> int:
    objs, ctx = _load([args.cloud, args.measure])
    cloud = mio.decode(objs[0], ctx, "cloud")
    mu = mio.decode(objs[1], ctx, "measure")
    _emit({"point": list(barycenter(cloud, mu))})
    return 0


def cmd_dist(args) -> int:
    objs, ctx = _load([args.metric, args.left, args.right])
    X = mio.decode(objs[0], ctx, "metric_space")
    mu = mio.decode(objs[1], ctx, "measure")
    nu = mio.decode(objs[2], ctx, "measure")
    value = dhat(args.n, X, mu, nu)
    out: dict[str, Any] = {"n": args.n, "dhat": value, "dtilde": dtilde(args.n, X, mu, nu)}
    if args.oracle:
        out["oracle"] = dhat_oracle(args.n, X, mu, nu, step=args.step)
        out["step"] = args.step
    _emit(out)
    return 0


def cmd_sup(args) -> int:
    objs, ctx = _load(args.measures)
    measures = [mio.decode(o, ctx, "measure") for o in objs]
    _emit(mio.measure_doc(pointwise_sup(measures), ctx))
    return 0


def cmd_hyper(args) -> int:
    objs, ctx = _load([args.indicator])
    chi = mio.decode(objs[0], ctx, "function")
    if any(v not in (0.0, 1.0) for v in chi.values):
        raise mio.DocumentError("hyper expects a 0/1 indicator function")
    members = frozenset(p for p, v in zip(chi.space.points, chi.values) if v == 1.0)
    if not members:
        raise mio.DocumentError("the indicated set is empty")
    _emit(mio.measure_doc(hyperspace_embed(ClosedSet(chi.space, members)), ctx))
    return 0


def cmd_fuzzy(args) -> int:
    objs, ctx = _load([args.grades])
    chi = mio.decode(objs[0], ctx, "function")
    _emit(mio.measure_doc(fuzzy_embed(FuzzySet(chi.space, chi.values)), ctx))
    return 0


def cmd_lift_open(args) -> int:
    objs, ctx = _load([args.map, args.anchor, *args.sequence])
    f = CollapseMap(mio.decode(objs[0], ctx, "map"))
    mu0 = mio.decode(objs[1], ctx, "measure")
    nus = [mio.decode(o, ctx, "measure") for o in objs[2:]]
    lifts = lift_open_collapse(f, mu0, nus)
    _emit({"lifts": [mio.measure_doc(m, ctx) for m in lifts]})
    return 0


def cmd_bicommute(args) -> int:
    objs, ctx = _load([args.map, args.measure, args.coupling])
    f = CollapseMap(mio.decode(objs[0], ctx, "map"))
    mu = mio.decode(objs[1], ctx, "measure")
    nu = mio.decode(objs[2], ctx, "coupling")
    _emit(mio.coupling_doc(bicommutative_lift(f, mu, nu), ctx))
    return 0


def cmd_couplings(args) -> int:
    paths = [args.left, args.right]
    if args.check:
        paths.append(args.check)
    if args.gap:
        paths.append(args.gap)
    objs, ctx = _load(paths)
    mu1 = mio.decode(objs[0], ctx, "measure")
    mu2 = mio.decode(objs[1], ctx, "measure")
    out: dict[str, Any] = {}
    rest = objs[2:]
    if args.check:
        coupling = mio.decode(rest.pop(0), ctx, "coupling")
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
    if args.gap:
        target = mio.decode(rest.pop(0), ctx, "measure")
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
    if l != math.inf and not (l >= 1 and l.is_integer()):  # NaN fails l >= 1
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
    objs, ctx = _load([args.metric, args.covers])
    Y = mio.decode(objs[0], ctx, "metric_space")
    levels = mio.decode(objs[1], ctx, "cover_levels")
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
