"""Command-line interface.

``bqual evaluate`` runs the full pipeline and writes/prints a report;
``bqual explore`` dumps a machine's transition system in the canonical
JSONL form (which ``evaluate --required`` reads back).

Exit codes: 0 success, 1 other errors, 2 parse/lex errors,
3 the target or reference exploration was truncated (with --strict),
4 a metric was not computable (with --strict).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from . import __version__
from .evaluation import EvaluationConfig, EvaluationError, evaluate, render_report
from .explorer import (
    DEFAULT_MAX_STATES,
    DEFAULT_MAX_TRANSITIONS,
    ExplorerError,
    explore,
    result_header,
    write_result,
)
from .lexer import LexError
from .lts import StructureError, write_transitions_jsonl
from .mutation import MutationError
from .parser import ParseError, parse_machine

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_PARSE = 2
EXIT_TRUNCATED = 3
EXIT_NOT_COMPUTABLE = 4


def _add_limit_flags(cmd: argparse.ArgumentParser) -> None:
    cmd.add_argument("--max-states", type=int, default=DEFAULT_MAX_STATES)
    cmd.add_argument("--max-transitions", type=int, default=DEFAULT_MAX_TRANSITIONS)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bqual", description="Quality evaluator for bounded B abstract machines."
    )
    parser.add_argument("--version", action="version", version=f"bqual {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    ev = commands.add_parser("evaluate", help="compute the quality report")
    # Each option's dest is its EvaluationConfig field; an option not given
    # takes the field's default.
    ev.add_argument("--machine", dest="machine_path", metavar="MACHINE", required=True,
                    help="machine source (.mch)")
    source = ev.add_mutually_exclusive_group()
    source.add_argument("--required", dest="required_path", metavar="REQUIRED",
                        help="required transitions (.jsonl)")
    source.add_argument("--reference", dest="reference_path", metavar="REFERENCE",
                        help="reference machine whose transitions are required")
    ev.add_argument("--goals", dest="goals_path", metavar="GOALS",
                    help="goal predicates file (NAME: <predicate> per line)")
    ev.add_argument("--word-limit", type=int)
    _add_limit_flags(ev)
    ev.add_argument("--trials", type=int, help="seeded fault-injection trials (0 disables)")
    ev.add_argument("--n-extra", type=int, help="inserted transitions per trial "
                    "(default: 1%% of derived, at least 1, capped at the free draw space)")
    ev.add_argument("--n-missing", type=int,
                    help="removed transitions per trial (default: 1%% of derived, rounded up)")
    ev.add_argument("--seed", type=int, help="trial seed (falls back to BQUAL_SEED, then 0)")
    ev.add_argument("--plan", dest="plan_path", metavar="PLAN",
                    help="explicit mutation plan (.json); overrides --trials")
    ev.add_argument("--similarity-threshold", dest="size_guard", metavar="SIMILARITY_THRESHOLD",
                    type=int, help="exact-alignment size guard")
    ev.add_argument("--out", help="write the JSON report here")
    ev.add_argument("--format", choices=("json", "table"), default="table",
                    help="stdout rendering")
    ev.add_argument("--strict", action="store_true",
                    help="fail on truncation or non-computable metrics")

    ex = commands.add_parser("explore", help="dump a machine's transition system")
    ex.add_argument("--machine", required=True)
    _add_limit_flags(ex)
    ex.add_argument("--out", help="write canonical transition JSONL here")
    return parser


def _cmd_evaluate(args: argparse.Namespace) -> int:
    options = vars(args)
    config = EvaluationConfig(**{
        field.name: options[field.name]
        for field in dataclasses.fields(EvaluationConfig)
        if options[field.name] is not None
    })
    report = evaluate(config)
    if args.out:
        Path(args.out).write_text(render_report(report, "json"), encoding="utf-8")
    sys.stdout.write(render_report(report, args.format))
    if args.strict:
        source = report.provenance["required_source"]
        cut = {
            "exploration": report.summary.get("truncated"),
            "reference exploration": source.get("truncated"),
        }
        for what in filter(cut.get, cut):
            sys.stderr.write(f"bqual: {what} was truncated by a limit\n")
        if any(cut.values()):
            return EXIT_TRUNCATED
        if report.reasons:
            names = ", ".join(sorted(report.reasons))
            sys.stderr.write(f"bqual: metrics not computable: {names}\n")
            return EXIT_NOT_COMPUTABLE
    return EXIT_OK


def _cmd_explore(args: argparse.Namespace) -> int:
    machine = parse_machine(Path(args.machine).read_text(encoding="utf-8-sig"))
    result = explore(
        machine,
        max_states=args.max_states,
        max_transitions=args.max_transitions,
    )
    if not args.out:
        write_result(result, sys.stdout)
        return EXIT_OK
    with open(args.out, "w", encoding="utf-8") as handle:
        write_transitions_jsonl(result, handle)
    sys.stdout.write(json.dumps(result_header(result), indent=2) + "\n")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "evaluate":
            return _cmd_evaluate(args)
        return _cmd_explore(args)
    except (LexError, ParseError) as exc:
        sys.stderr.write(f"bqual: parse error: {exc}\n")
        return EXIT_PARSE
    except (
        EvaluationError,
        ExplorerError,
        MutationError,
        StructureError,
        OSError,
    ) as exc:
        sys.stderr.write(f"bqual: {exc}\n")
        return EXIT_ERROR
    except UnicodeDecodeError as exc:
        sys.stderr.write(f"bqual: an input file is not UTF-8 text ({exc})\n")
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
