"""``bench``: run one benchmark (instance, config) and report stats.

The instance's ``problem`` field picks the model; every option left out takes
its :class:`~msetcp.bench.RunConfig` default.  Prints a human-readable line
plus the machine-readable JSON record to stdout; ``--stats-json PATH``
additionally appends the JSON record to a file, which is opened once
:func:`~msetcp.bench.build` has accepted the instance and every option, and
before the search.  Exit codes: 0 on solved/unsat, 1 on timeout, 2 on schema
or configuration errors and when the ``--stats-json`` file cannot be opened.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import nullcontext
from typing import Optional, Sequence

from .bench import ENCODINGS, LABELLINGS, PROBLEMS, RunConfig, SchemaError
from .bench import build, load_instance, search


def build_parser() -> argparse.ArgumentParser:
    # an option left out is left out of the parsed namespace, so RunConfig
    # alone holds each default
    parser = argparse.ArgumentParser(
        prog="bench",
        description="Benchmark harness for the multiset ordering propagators.",
        argument_default=argparse.SUPPRESS,
    )
    parser.add_argument(
        "--instance", required=True, help="instance JSON file; its problem field picks the model"
    )
    symmetries = "; ".join(f"{name}: {', '.join(p.symmetries)}" for name, p in PROBLEMS.items())
    parser.add_argument("--symmetry", help=f"which ordering constraints to post ({symmetries})")
    parser.add_argument(
        "--encoding", choices=ENCODINGS, help="how multiset orderings are propagated"
    )
    parser.add_argument(
        "--entailment",
        action="store_true",
        help="track entailment in the dedicated filter (refused where none is posted)",
    )
    parser.add_argument(
        "--labelling", choices=LABELLINGS, help="static variable order (progressive party)"
    )
    parser.add_argument("--timeout", type=float, help="search budget in seconds")
    parser.add_argument("--stats-json", help="append the JSON record to this file")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    options = vars(build_parser().parse_args(argv))
    path = options.pop("instance")
    stats_json = options.pop("stats_json", None)
    cfg = RunConfig(**options)
    try:
        built = build(load_instance(path), cfg)
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # opened once every option is accepted, so a refused run leaves no file,
    # and before the search, so a path that cannot take the record costs no
    # search
    try:
        sink = open(stats_json, "a") if stats_json else nullcontext()
    except OSError as exc:
        print(f"error: cannot open --stats-json file: {exc}", file=sys.stderr)
        return 2
    with sink as stats:
        record = search(built, cfg)
        try:
            print(record.text_line())
            print(record.to_json(), flush=True)
        except BrokenPipeError:
            # the reader stopped early (``bench ... | head -1``): the run is
            # complete, so its exit code stands; the interpreter's final flush
            # of the dead pipe goes to devnull instead of raising again
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        if stats is not None:
            stats.write(record.to_json() + "\n")
    return 1 if record.status == "timeout" else 0


if __name__ == "__main__":
    sys.exit(main())
