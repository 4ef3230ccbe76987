"""Command-line front end: verify one scenario, run the corpus, list checks."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .checks import catalog_lines
from .errors import ConfigError, ScenarioError
from .runner import corpus_names, corpus_text, run_scenario
from .scenario import load_scenario

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2


def _parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="prodconj",
        description="Residual checks for conjugate-connection identities "
                    "over declarative scenario files.")
    sub = top.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run one scenario file")
    verify.add_argument("scenario", help="path to a .scn file")
    _run_flags(verify)

    corpus = sub.add_parser("corpus", help="run every shipped scenario")
    _run_flags(corpus)

    sub.add_parser("catalog", help="list every check kind with its anchors")
    return top


def _run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=None, help="override the sample seed")
    p.add_argument("--samples", type=int, default=None, help="override the sample count")
    p.add_argument("--tol", type=float, default=None,
                   help="override the scenario-wide identity tolerance")
    p.add_argument("--filter", default=None, metavar="SUBSTR",
                   help="run only checks whose name or kind contains SUBSTR")
    p.add_argument("--report", default=None, metavar="PATH",
                   help="also write the report to PATH")


def _emit(lines: list[str], report_path: str | None, code: int) -> int:
    """Print the report, copy it to report_path, and return `code`, or
    the configuration exit code when the copy cannot be written.  A reader
    that closes stdout early (`prodconj corpus | head`) only cuts the
    printed copy short."""
    text = "\n".join(lines) + "\n"
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # Drop the stream, so the flush at exit does not raise again.
        sys.stdout = None
    if report_path:
        try:
            Path(report_path).write_text(text, encoding="utf-8")
        except OSError as exc:
            return _config_error([f"cannot write {report_path}: {exc}"])
    return code


def _config_error(messages) -> int:
    for m in messages:
        print(f"error: {m}", file=sys.stderr)
    return EXIT_CONFIG


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)

    if args.command == "catalog":
        return _emit(catalog_lines(), None, EXIT_PASS)

    # one (name, message prefix, text) source per scenario to run
    if args.command == "verify":
        path = Path(args.scenario)
        try:
            sources = [(path.stem, "", path.read_text(encoding="utf-8"))]
        except (OSError, UnicodeDecodeError) as exc:
            return _config_error([f"cannot read {path}: {exc}"])
    else:
        try:
            names = corpus_names()
        except Exception as exc:  # missing package data is a config problem
            return _config_error([f"cannot list shipped scenarios: {exc}"])
        sources = ((name, f"{name}: ", corpus_text(name)) for name in names)
    lines: list[str] = []
    any_failed = False
    for name, prefix, text in sources:
        try:
            report = run_scenario(load_scenario(text, name=name), seed=args.seed,
                                  samples=args.samples, tol=args.tol,
                                  filter_substr=args.filter)
        except ScenarioError as exc:
            return _config_error([prefix + m for m in exc.messages])
        except ConfigError as exc:  # a bad --seed, --samples or --tol
            return _config_error([f"{prefix}{exc}"])
        lines.extend(report.render_lines())
        any_failed = any_failed or report.failed
    return _emit(lines, args.report, EXIT_FAIL if any_failed else EXIT_PASS)


if __name__ == "__main__":
    raise SystemExit(main())
