"""Command line entry point.

Subcommands:

* ``dperm run <config>``: run one experiment from a config file, writing a
  CSV (and a JSON manifest beside it) when the config sets ``output``, or
  the CSV to stdout otherwise.
* ``dperm list``: list the experiments; ``dperm list --keys <experiment>``
  shows the accepted config keys for one of them.
* ``dperm summarize <csv> [...]``: aggregate result CSVs into a pass/fail
  table.

Exit codes: 0 on success, 2 when an experiment's checked rows contain a
failure (or a summarized CSV does), 1 for configuration, size-limit, or
usage errors, 3 for any other exception (a fault in the program, not in the
config).  Error lines are prefixed ``config-error:``, ``size-limit:``,
``assertion-failure:`` or ``internal-error:`` so callers can tell them
apart.
"""

from __future__ import annotations

import argparse
import csv as csv_module
import io
import json
import os
import sys
import time
import traceback
from typing import Optional, Sequence

from . import __version__
from .config import (
    ConfigError,
    config_to_text,
    describe_schema,
    parse_config_file,
)
from .experiments import (
    CSV_COLUMNS,
    DESCRIPTIONS,
    EXPERIMENTS,
    rows_to_csv,
    run_experiment,
)
from .spaces import SizeLimitError


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dperm",
        description=(
            "Differentially private empirical risk minimization lab: "
            "exact privacy audits, stability and risk-gap checks, and the "
            "associated experiments."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="run an experiment from a config file")
    run_parser.add_argument("config", help="path to a key = value config file")

    list_parser = sub.add_parser("list", help="list experiments")
    list_parser.add_argument(
        "--keys",
        metavar="EXPERIMENT",
        default=None,
        help="show the accepted config keys for one experiment",
    )

    sum_parser = sub.add_parser("summarize", help="aggregate result CSVs")
    sum_parser.add_argument("paths", nargs="+", help="result CSV files")
    return parser


def _cmd_run(config_path: str) -> int:
    config = parse_config_file(config_path)
    if config.output:  # an unusable output path is found before the run
        try:
            os.makedirs(os.path.dirname(config.output) or ".", exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot write output {config.output!r}: {exc}") from None
        if os.path.isdir(config.output):
            raise ConfigError(f"cannot write output {config.output!r}: it is a directory")
    start = time.monotonic()
    outcome = run_experiment(config)
    elapsed = time.monotonic() - start
    text = rows_to_csv(outcome.rows)

    if config.output:
        with open(config.output, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        manifest = {
            "experiment": config.experiment,
            "config_text": config_to_text(config),
            "output": config.output,
            "rows": len(outcome.rows),
            "checks": outcome.checked,
            "failures": outcome.failures,
            "witnesses": outcome.witnesses,
            "passed": outcome.passed,
            "version": __version__,
            "wall_time_s": round(elapsed, 3),
        }
        with open(
            config.output + ".manifest.json", "w", encoding="utf-8"
        ) as handle:
            json.dump(manifest, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(
            f"{config.experiment}: {outcome.checked} checks, "
            f"{len(outcome.failures)} failures -> {config.output}"
        )
    else:
        sys.stdout.write(text)

    if not outcome.passed:
        for failure in outcome.failures:
            print(f"assertion-failure: {config.experiment}: {failure}", file=sys.stderr)
        return 2
    return 0


def _cmd_list(keys_for: Optional[str]) -> int:
    if keys_for is not None:
        rows = describe_schema(keys_for)
        width = max(len(k) for k, _, _ in rows)
        print(f"config keys for experiment {keys_for!r}:")
        for key, kind, help_text in rows:
            print(f"  {key:<{width}}  {kind:<7} {help_text}")
        return 0
    width = max(len(name) for name in EXPERIMENTS)
    for name in EXPERIMENTS:
        print(f"{name:<{width}}  {DESCRIPTIONS[name]}")
    return 0


def _cmd_summarize(paths: Sequence[str]) -> int:
    totals: dict[str, list[int]] = {}
    failing: list[str] = []
    for path in paths:
        try:
            with open(path, "r", encoding="utf-8", newline="") as handle:
                content = handle.read()
        except OSError as exc:
            raise ConfigError(f"cannot read {path!r}: {exc}") from None
        reader = csv_module.reader(io.StringIO(content))
        try:
            header = next(reader)
        except StopIteration:
            raise ConfigError(f"{path!r} is empty") from None
        if tuple(header) != CSV_COLUMNS:
            raise ConfigError(
                f"{path!r} does not look like a result CSV "
                f"(header {header!r})"
            )
        for record in reader:
            if len(record) != len(CSV_COLUMNS):
                raise ConfigError(
                    f"{path!r}: row with {len(record)} cells, expected "
                    f"{len(CSV_COLUMNS)}"
                )
            row = dict(zip(CSV_COLUMNS, record))
            bucket = totals.setdefault(row["experiment"], [0, 0, 0])
            bucket[0] += 1
            if row["passed"] == "":
                continue
            bucket[1] += 1
            if row["passed"] == "false":
                bucket[2] += 1
                failing.append(
                    f"{row['experiment']}/{row['metric']}: "
                    f"value={row['value']} bound={row['bound']}"
                )

    if not totals:
        print("no rows")
        return 0
    width = max(len(name) for name in totals)
    print(f"{'experiment':<{width}}  rows  checks  failures")
    for name in sorted(totals):
        rows, checks, failures = totals[name]
        print(f"{name:<{width}}  {rows:>4}  {checks:>6}  {failures:>8}")
    if failing:
        for line in failing:
            print(f"assertion-failure: {line}", file=sys.stderr)
        return 2
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args.config)
        if args.command == "list":
            return _cmd_list(args.keys)
        if args.command == "summarize":
            return _cmd_summarize(args.paths)
    except ConfigError as exc:
        print(f"config-error: {exc}", file=sys.stderr)
        return 1
    except SizeLimitError as exc:
        print(f"size-limit: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"internal-error: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        return 3
    parser.error(f"unknown command {args.command!r}")
    return 1


if __name__ == "__main__":
    sys.exit(main())
