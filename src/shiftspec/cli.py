"""Command-line front end.

Subcommands:

  analyze   print the spectral profile and picture of an instance as JSON
  decide    run a J-class decision and emit the verdict JSON
  simulate  build a mixing witness toward a target, emit JSON and a CSV
  plot      render the decision geometry as a static SVG

Instance files are JSON: {"weights": ..., "map": ..., "budgets": ...} with
budgets optional (defaults: gridMax 2^18, windingMax 2^20, truncationN 256,
tol 1e-9).  Exit codes: 0 JCLASS, 1 NOT_JCLASS, 2 UNDECIDED for decide;
64 usage or parse error, 65 unsupported or refused input (a budget or tolerance
included, and a map whose roots cannot be polished), 70 simulation failure.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from .budget import Budget
from .spectra import OperatorSpec, UnsupportedMapError, spectral_picture

# jclass, dynamics, svgplot and csv load in the subcommands that use them:
# analyze never compiles jclass, and decide never compiles the other three

__all__ = ["main", "load_instance"]

EXIT_JCLASS = 0
EXIT_NOT_JCLASS = 1
EXIT_UNDECIDED = 2
EXIT_PARSE = 64
EXIT_UNSUPPORTED = 65
EXIT_SIM_FAILED = 70


class ParseFailure(Exception):
    pass


def _read_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseFailure(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseFailure(
            f"{path}: JSON parse error at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc


def load_instance(path: str) -> tuple[OperatorSpec, Budget]:
    data = _read_json(path)
    try:
        op = OperatorSpec.from_dict(data)
        budget = Budget.from_dict(data.get("budgets"))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseFailure(f"{path}: invalid instance: {exc}") from exc
    return op, budget


def _load_vector(path: str, n: int):
    """The file's TruncatedVector cut or zero-padded to n coordinates; the
    exact prefix is the file's, at most n (padding carries no claim)."""
    from .dynamics import TruncatedVector

    data = _read_json(path)
    try:
        if isinstance(data, list):
            data = {"coords": data}
        x = TruncatedVector.from_dict(data)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseFailure(f"{path}: invalid vector: {exc}") from exc
    return TruncatedVector(np.pad(x.coords[:n], (0, max(0, n - x.size))), min(n, x.exact_prefix))


def _write_csv(path: str, header: list, rows) -> None:
    import csv

    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _emit(obj: dict) -> None:
    # strict JSON: a NaN or infinity raises before anything is written
    sys.stdout.write(json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n")


def _override_budget(budget: Budget, args) -> Budget:
    # budget flags store under Budget's field names; every value given is validated
    given = {f.name: getattr(args, f.name, None) for f in dataclasses.fields(Budget)}
    return dataclasses.replace(budget, **{k: v for k, v in given.items() if v is not None})


def cmd_analyze(args) -> int:
    op, _ = load_instance(args.path)
    picture = spectral_picture(op)
    _emit({"profile": picture.profile.to_dict(), "picture": picture.to_dict()})
    return 0


def cmd_decide(args) -> int:
    from .jclass import JCLASS, NOT_JCLASS, VERDICT_UNDECIDED, decide

    op, budget = load_instance(args.path)
    budget = _override_budget(budget, args)
    verdict, report = decide(op, route=args.route, budget=budget)
    out = verdict.to_dict()
    if report is not None:
        out["consistency"] = report.to_dict()
    _emit(out)
    return {JCLASS: EXIT_JCLASS, NOT_JCLASS: EXIT_NOT_JCLASS,
            VERDICT_UNDECIDED: EXIT_UNDECIDED}[verdict.decision]


def cmd_simulate(args) -> int:
    from .dynamics import TruncatedVector, jset_experiment, mixing_witness, orbit_envelope
    from .jclass import JCLASS, decide

    if args.jset_start and (args.out or args.orbit_csv):
        raise ParseFailure("--jset-start writes no --out or --orbit-csv file")
    op, budget = load_instance(args.path)
    budget = _override_budget(budget, args)
    n = budget.truncation_n
    target = _load_vector(args.target, n) if args.target else TruncatedVector.ones(n)

    verdict, _ = decide(op, route="geometric", budget=budget)
    if verdict.decision != JCLASS:
        print(f"refusing to simulate: instance decided {verdict.decision}", file=sys.stderr)
        return EXIT_UNSUPPORTED

    if args.jset_start:
        start = _load_vector(args.jset_start, n)
        rep = jset_experiment(op, start, [target], budget=budget, seed=args.seed, verdict=verdict)
        _emit(rep.to_dict())
        return 0 if rep.status != "INCONCLUSIVE" else EXIT_SIM_FAILED

    wit = mixing_witness(op, target, args.stages, budget=budget, verdict=verdict)
    _emit(wit.to_dict())
    if args.out:
        _write_csv(args.out, ["m", "norm", "norm_bound", "round_trip_residual"],
                   ((s.index, s.norm, s.norm_bound, s.round_trip_residual) for s in wit.stages))
    if args.orbit_csv:
        _write_csv(args.orbit_csv, ["n", "prefix_sup", "tail_sup"],
                   orbit_envelope(op, target, args.stages))
    if not wit.ok:
        print(f"simulation failure: {wit.failure}", file=sys.stderr)
        return EXIT_SIM_FAILED
    return 0


def cmd_plot(args) -> int:
    from .jclass import decide
    from .svgplot import contour_csv_rows, render_svg

    op, budget = load_instance(args.path)
    budget = _override_budget(budget, args)
    verdict, _ = decide(op, route="geometric", budget=budget)
    svg = render_svg(op, verdict)
    out = args.out or "instance.svg"
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(svg)
    if args.contour_csv:
        _write_csv(args.contour_csv, ["theta", "re", "im"],
                   contour_csv_rows(op.map, verdict.profile.r2))
    return 0


def _positive_int(text: str) -> int:
    if int(text) < 1:  # argparse reports a ValueError as an invalid value
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return int(text)


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on a usage error, which is the UNDECIDED code here."""

    def exit(self, status=0, message=None):
        super().exit(EXIT_PARSE if status == 2 else status, message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="shiftspec",
        description="certified J-class decisions for holomorphic images of weighted backward shifts",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    grid = (
        ("--budget-grid", "grid_max", int, "max condition-A evaluations; only each circle's "
         "128-point first pass and its Newton steps (at most 3 to probe for a witness, "
         "3 to polish) can exceed it"),
        ("--budget-winding", "winding_max", int, "max samples of a sampled winding (a "
         "winding read from root disks takes none); the first grid has at most 256"),
    )
    solve = (("--trunc-n", "truncation_n", int, "truncation length"),
             ("--tol", "tol", float, "solve residual tolerance"))

    def command(name, fn, summary, flags=()):
        p = sub.add_parser(name, help=summary)
        p.add_argument("path", help="instance JSON file")
        for flag, field, kind, text in flags:
            p.add_argument(flag, dest=field, type=kind, help=text)
        p.set_defaults(fn=fn)
        return p

    command("analyze", cmd_analyze, "spectral profile and picture")

    p = command("decide", cmd_decide, "J-class decision with certificates", grid)
    p.add_argument("--route", choices=["geometric", "moduli", "both"], default="geometric")

    p = command("simulate", cmd_simulate, "mixing-witness stages toward a target", grid + solve)
    p.add_argument("--target", default=None, help="target vector JSON file (default: all ones)")
    p.add_argument("--stages", type=_positive_int, default=5)
    p.add_argument("--seed", type=int, default=0, help="noise seed for --jset-start")
    p.add_argument("--out", default=None, help="stage CSV output path")
    p.add_argument("--orbit-csv", default=None, help="also write the target's orbit envelope")
    p.add_argument("--jset-start", default=None,
                   help="start vector JSON: run a limit-set membership experiment instead")

    p = command("plot", cmd_plot, "SVG of the decision geometry", grid)
    p.add_argument("--out", default=None, help="SVG output path")
    p.add_argument("--contour-csv", default=None, help="also write contour samples as CSV")

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ParseFailure as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_PARSE
    except UnsupportedMapError as exc:
        print(f"unsupported: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except ValueError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED


if __name__ == "__main__":
    raise SystemExit(main())
