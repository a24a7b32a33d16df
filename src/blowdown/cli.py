"""Command-line front end.

Subcommands:
  repro                    run the bundled reference scenario
  run --scenario PATH      run a scenario file
  explore --p P --points N run the parameterized construction explorer

Exit codes: 0 all checks pass, 1 a mathematical check failed, 2 invalid
input (parse error, unknown name, numerically impossible construction,
unwritable output path), 130 interrupted (Ctrl-C).
"""

from __future__ import annotations

import argparse
import sys
from functools import partial
from typing import Callable

from .errors import GeometryError, ScenarioError
from .explorer import explore_frobenius
from .scenario import (
    Report,
    canonical_json,
    exploration_to_dict,
    exploration_to_text,
    load_scenario,
    run_repro,
    run_scenario,
)


def _add_output_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format", choices=("text", "json"), default="text", help="report format"
    )
    parser.add_argument("--out", default=None, help="write the report to this path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blowdown",
        description="exact divisor and intersection computations on blown-up "
        "rational surfaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    repro = sub.add_parser("repro", help="run the bundled reference scenario")
    _add_output_flags(repro)

    run = sub.add_parser("run", help="run a scenario file")
    run.add_argument("--scenario", required=True, help="path to a scenario JSON file")
    _add_output_flags(run)

    explore = sub.add_parser("explore", help="parameterized construction explorer")
    explore.add_argument("--p", type=int, required=True, help="characteristic parameter, >= 2")
    explore.add_argument("--points", type=int, required=True, help="number of fibres")
    _add_output_flags(explore)

    return parser


def emit_report(
    to_text: Callable[[], str], to_dict: Callable[[], dict], fmt: str, out: str | None
) -> None:
    """Write the report in ``fmt``, building only that form of it."""
    payload = canonical_json(to_dict()) if fmt == "json" else to_text()
    if out is None:
        sys.stdout.write(payload)
    else:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(payload)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "repro":
            report = run_repro()
        elif args.command == "run":
            report = run_scenario(load_scenario(args.scenario))
        else:
            exploration = explore_frobenius(args.p, args.points)
            emit_report(
                partial(exploration_to_text, exploration),
                partial(exploration_to_dict, exploration),
                args.format,
                args.out,
            )
            return 0
        emit_report(report.to_text, report.to_dict, args.format, args.out)
        return 0 if report.passed else 1
    except (ScenarioError, GeometryError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
