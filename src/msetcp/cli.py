"""``bench``: run one benchmark (problem, instance, config) and report stats.

Prints a human-readable line plus the machine-readable JSON record to stdout;
``--stats-json PATH`` additionally appends the JSON record to a file.  Exit
codes: 0 on solved/unsat, 1 on timeout, 2 on schema or configuration errors.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

from .bench import ENCODINGS, RunConfig, SchemaError, load_instance, run

_PROBLEM_ALIASES = {
    "party": "progressive_party",
    "progressive_party": "progressive_party",
    "rack": "rack",
    "sport": "sport",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bench",
        description="Benchmark harness for the multiset ordering propagators.",
    )
    parser.add_argument(
        "--problem",
        required=True,
        choices=sorted(_PROBLEM_ALIASES),
        help="problem family; must match the instance file",
    )
    parser.add_argument("--instance", required=True, help="instance JSON file")
    parser.add_argument(
        "--symmetry",
        default="none",
        help="which ordering constraints to post (e.g. none, mset, lex, mset-rows, lex+mset)",
    )
    parser.add_argument(
        "--encoding",
        default="algorithm",
        choices=ENCODINGS,
        help="how multiset orderings are propagated",
    )
    parser.add_argument(
        "--entailment",
        action="store_true",
        help="track entailment in the dedicated filter",
    )
    parser.add_argument(
        "--labelling",
        default="row-wise",
        choices=["row-wise", "column-wise"],
        help="static variable order (progressive party)",
    )
    parser.add_argument("--timeout", type=float, default=None, help="search budget in seconds")
    parser.add_argument("--stats-json", default=None, help="append the JSON record to this file")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        instance = load_instance(args.instance)
        if instance["problem"] != _PROBLEM_ALIASES[args.problem]:
            raise SchemaError(
                f"--problem {args.problem} does not match instance "
                f"problem {instance['problem']!r}"
            )
        cfg = RunConfig(
            symmetry=args.symmetry,
            encoding=args.encoding,
            entailment=args.entailment,
            labelling=args.labelling,
            timeout=args.timeout,
        )
        record = run(cfg, instance)
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        print(record.text_line())
        print(record.to_json(), flush=True)
    except BrokenPipeError:
        # the reader stopped early (``bench ... | head -1``): the run is
        # complete, so its exit code stands; the interpreter's final flush of
        # the dead pipe goes to devnull instead of raising again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    if args.stats_json:
        with open(args.stats_json, "a") as fh:
            fh.write(record.to_json() + "\n")
    return 1 if record.status == "timeout" else 0


if __name__ == "__main__":
    sys.exit(main())
