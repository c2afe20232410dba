"""Command-line front door.

Subcommands: ``validate`` (parse and axiom-check an instance file), ``run``
(execute its jobs and emit a text or JSON report), ``selftest`` (the seeded
random battery plus the packaged fixtures).

Exit codes: 0 success, 1 usage or parse error or an unwritable report, 2
validation failure or job error, 3 theorem MISMATCH or selftest failure.
"""

import argparse
import json
import os
import sys

from . import __version__
from .errors import ParseError, Semih1Error, UnresolvedReference, ValidationFailed
from .instancefile import _definitions, parse_instance, render_text, run_jobs
from .selftest import selftest

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_MISMATCH = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _build_parser():
    parser = _Parser(prog="semih1",
                     description="exact derivation spaces and first cohomology "
                                 "of semidirect product algebras")
    parser.add_argument("--version", action="version", version=f"semih1 {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="parse and validate an instance file")
    p_validate.add_argument("file")
    p_validate.set_defaults(handler=cmd_validate)

    p_run = sub.add_parser("run", help="run the jobs of an instance file")
    p_run.add_argument("file")
    p_run.add_argument("--format", choices=("text", "json"), default="text")
    p_run.add_argument("--out", default=None, help="write the report to a file")
    p_run.set_defaults(handler=cmd_run)

    p_self = sub.add_parser("selftest", help="run the seeded invariant battery")
    p_self.add_argument("--seed", type=int, default=1)
    p_self.add_argument("--max-dim", type=int, default=3)
    p_self.add_argument("--cases", type=int, default=200)
    p_self.add_argument("--quiet", action="store_true")
    p_self.set_defaults(handler=cmd_selftest)
    return parser


def _emit(text, out_path):
    """Write the report to stdout or ``out_path``; False, after a message, if the write fails."""
    if out_path is None:
        sys.stdout.write(text)
        return True
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write report to {out_path}: {exc.strerror or exc}", file=sys.stderr)
        return False
    return True


def _load(path):
    """(instance, None) for a valid file, else (None, exit code) after a message."""
    try:
        return parse_instance(path), None
    except (ParseError, UnresolvedReference) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return None, EXIT_USAGE
    except ValidationFailed as exc:
        print(f"validation failed: {exc}", file=sys.stderr)
        return None, EXIT_VALIDATION


def cmd_validate(args):
    inst, code = _load(args.file)
    if inst is None:
        return code
    print(f"{args.file}: {_definitions(inst.algebras, inst.modules, inst.corners, inst.characters)}"
          f", {len(inst.jobs)} job(s) - all valid")
    return EXIT_OK


def cmd_run(args):
    inst, code = _load(args.file)
    if inst is None:
        return code
    doc, code = run_jobs(inst)
    text = (json.dumps(doc, indent=2, sort_keys=False) + "\n" if args.format == "json"
            else render_text(doc))
    return code if _emit(text, args.out) else EXIT_USAGE


def cmd_selftest(args):
    if args.cases < 1 or args.max_dim < 1:
        print("selftest needs --cases >= 1 and --max-dim >= 1", file=sys.stderr)
        return EXIT_USAGE
    log = None if args.quiet else (lambda msg: print(msg, flush=True))
    if log:
        log(f"selftest: seed={args.seed} max_dim={args.max_dim} cases={args.cases}")
    summary = selftest(seed=args.seed, max_dim=args.max_dim, cases=args.cases, log=log)
    verdicts = summary["rule_verdicts"]
    print(f"fixtures: {summary['fixtures_checked']} checked, "
          f"{summary['fixture_failures']} failing")
    print(f"cases: {summary['cases']} "
          f"(constructions: {summary['construction_counts']})")
    print(f"rule verdicts: {verdicts}")
    if summary["failures"]:
        print(f"FAILURES: {len(summary['failures'])}")
        for fail in summary["failures"]:
            print(f"  {fail}")
        return EXIT_MISMATCH
    print("all checks passed")
    return EXIT_OK


def main(argv=None):
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_OK
    try:
        code = args.handler(args)
        sys.stdout.flush()
        return code
    except OSError as exc:  # a closed pipe (BrokenPipeError) or a full device
        print(f"error: cannot write to stdout: {exc.strerror or exc}", file=sys.stderr)
        # the interpreter flushes stdout again at exit; let that write go nowhere
        with open(os.devnull, "wb") as sink:
            os.dup2(sink.fileno(), sys.stdout.fileno())
        return EXIT_USAGE
    except Semih1Error as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
