"""Command-line front end.

Three subcommands: `run` evaluates a script file, `repro` replays a
built-in scenario, and `check-suite` exercises the randomized property
suites.  Exit codes: 0 success, 1 failed check or property, 2 usage or
parse error, 3 evaluation error.
"""

from __future__ import annotations

import argparse
import sys

from .errors import IcalcError, ScriptError
from .scenarios import SCENARIOS, scenario_script
from .script import RunOptions, parse_script, run_script

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_EVALUATION = 3


def _nonnegative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, found {text!r}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="icalc",
        description="exact ideal calculus and closure diagnostics over prime fields",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    report = argparse.ArgumentParser(add_help=False)
    report.add_argument(
        "--json",
        nargs="?",
        const="-",
        default=None,
        metavar="OUT",
        help="emit the JSON report (to OUT, or stdout when no path is given)",
    )

    run = sub.add_parser("run", parents=[report], help="evaluate a script file")
    run.add_argument("file", help="script file to evaluate")
    run.add_argument("--order", choices=("lex", "grevlex"), default="grevlex")
    run.add_argument("--emax", type=_nonnegative_int, default=5)
    run.add_argument("--seed", type=int, default=0)

    repro = sub.add_parser("repro", parents=[report], help="replay a built-in scenario")
    repro.add_argument("name", help="scenario name: " + ", ".join(sorted(SCENARIOS)))

    sub.add_parser("check-suite", help="run every randomized property suite")
    return parser


def _fail(message, code) -> int:
    print(f"icalc: {message}", file=sys.stderr)
    return code


def _run(source: str, scenario: str, options: RunOptions, json_target) -> int:
    """Parse, run and emit one script: the path of both run and repro."""
    try:
        script = parse_script(source)
    except ScriptError as exc:
        return _fail(exc, EXIT_USAGE)
    try:
        doc = run_script(script, options, scenario=scenario)
    except IcalcError as exc:
        return _fail(exc, EXIT_EVALUATION)
    if json_target not in (None, "-"):
        try:
            with open(json_target, "w", encoding="utf-8") as handle:
                handle.write(doc.to_json())
        except OSError as exc:
            return _fail(f"cannot write {json_target}: {exc}", EXIT_USAGE)
    sys.stdout.write(doc.to_json() if json_target == "-" else doc.to_text())
    return EXIT_OK if doc.all_checks_pass else EXIT_CHECK_FAILED


def _cmd_run(args) -> int:
    try:
        with open(args.file, encoding="utf-8") as handle:
            source = handle.read()
    except OSError as exc:
        return _fail(f"cannot read {args.file}: {exc}", EXIT_USAGE)
    options = RunOptions(order=args.order, emax=args.emax, seed=args.seed)
    return _run(source, args.file, options, args.json)


def _cmd_repro(args) -> int:
    try:
        source = scenario_script(args.name)
    except ScriptError as exc:
        return _fail(exc, EXIT_USAGE)
    return _run(source, args.name, RunOptions(), args.json)


def _cmd_check_suite() -> int:
    from .properties import ALL_SUITES

    failed = 0
    for suite in ALL_SUITES:
        result = suite()
        status = "ok" if not result.failures else f"{len(result.failures)} FAILED"
        print(f"{result.name}: {result.cases} cases, {status}")
        for message in result.failures[:5]:
            print(f"  {message}")
        failed += len(result.failures)
    return EXIT_OK if failed == 0 else EXIT_CHECK_FAILED


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "repro":
        return _cmd_repro(args)
    return _cmd_check_suite()


if __name__ == "__main__":
    sys.exit(main())
