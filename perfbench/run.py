"""Run one msetcp benchmark workload and print its metrics.

    python3 perfbench/run.py --workload sport-plain --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 0

Without tracing, the workload's entries run in whole passes until the next
pass would end after ``--seconds``; every model entry is set up several times
per pass.  Each end-to-end metric describes one pass: the sum over entries of
each entry's median.  With ``--trace 1`` one untraced pass is followed by one
traced pass, whose spans give the per-layer metrics.

Every entry's outcome is checked against the expected one.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it is the run record (machine,
commit, seed and every entry's result).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("sport-plain", "mset-encodings", "filter-scale")
SETUP_REPEATS = 3
HARD_LIMIT_S = 150.0  # no model entry may search past this point of the run
SCHEMA_VERSION = 1

# name: (unit, which direction is better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "search_s": ("s", "lower"),
    "nodes_per_s": ("1/s", "higher"),
    "choice_points": ("count", "lower"),
    "fails": ("count", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
}


def git_commit(root: Path) -> str:
    """HEAD of the checkout when it is a git work tree, else ``unknown``."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def check(workloads, entries, passes) -> tuple[int, list[str], list]:
    """Failed operations over all passes: wrong outcomes, and search trees
    that differ between passes.  Returns (failed, problems, last verdicts)."""
    failed, problems, last = 0, [], []
    for results in passes:
        last = workloads.group_verdicts(entries, results)
        for k, (entry, res) in enumerate(zip(entries, results)):
            first = passes[0][k]
            why = last[k]
            if why is None and (res.choice_points, res.fails) != (first.choice_points, first.fails):
                why = last[k] = "search tree differs from the first pass"
            if why is not None:
                failed += 1
                problems.append(f"{entry.name}: {why}")
    return failed, problems, last


def pass_times(passes, scaled: bool = True) -> tuple[float, float]:
    """(set-up, search) seconds of one pass: the sum over entries of each
    entry's median over the run's samples.  When ``scaled``, every sample is
    first divided by the host slowness sampled during or right before it."""
    entries = range(len(passes[0]))

    def setups(i):
        return (
            t / k if scaled else t
            for p in passes
            for t, k in zip(p[i].setup_s, p[i].setup_slowness)
        )

    def searches(i):
        return (p[i].search_s / p[i].slowness if scaled else p[i].search_s for p in passes)

    setup_s = sum(statistics.median(setups(i)) for i in entries)
    search_s = sum(statistics.median(searches(i)) for i in entries)
    return setup_s, search_s


def end_to_end(passes) -> dict[str, float]:
    """One pass's metrics, with times in seconds at the reference speed."""
    setup_s, search_s = pass_times(passes)
    choice_points = sum(r.choice_points for r in passes[-1])
    return {
        "setup_s": setup_s,
        "search_s": search_s,
        "nodes_per_s": choice_points / search_s if search_s else 0.0,
        "choice_points": choice_points,
        "fails": sum(r.fails for r in passes[-1]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def pass_time(results) -> float:
    return sum(sum(r.setup_s) + r.search_s for r in results)


def run_workload(args) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import calibrate
    import tracer
    import workloads

    entries = workloads.WORKLOADS[args.workload]
    started = time.monotonic()

    def timeout() -> float:
        return max(1.0, HARD_LIMIT_S - (time.monotonic() - started))

    instances: dict = {}
    passes = []
    probe = calibrate.SpeedProbe()
    if args.trace:
        # no probe here: its blocks would land inside the traced spans
        passes.append(workloads.run_pass(entries, args.seed, 1, timeout, instances))
        with tracer.Tracer() as spans:
            passes.append(workloads.run_pass(entries, args.seed, 1, timeout, instances))
        overhead = pass_time(passes[1]) / pass_time(passes[0])
        metrics = spans.metrics(overhead)
        units = {name: tracer.metric_unit(name) for name in metrics}
        traced = {
            "spans": spans.span_count,
            "spans_kept": len(spans.spans),
            "self_s_sum": spans.self_time_sum(),
            "traced_pass_s": pass_time(passes[1]),
        }
        unscaled = None
    else:
        while True:
            t0 = time.monotonic()
            passes.append(
                workloads.run_pass(entries, args.seed, SETUP_REPEATS, timeout, instances, probe)
            )
            if time.monotonic() - started + (time.monotonic() - t0) > args.seconds:
                break
        metrics = end_to_end(passes)
        units = {name: unit for name, (unit, _) in END_TO_END.items()}
        traced = None
        # the same times without the speed correction, to judge the correction
        unscaled = dict(zip(("setup_s", "search_s"), pass_times(passes, scaled=False)))
    failed, problems, verdicts = check(workloads, entries, passes)
    attempted = len(entries) * len(passes)

    for problem in problems:
        print(f"FAILED {problem}")
    print(
        f"workload {args.workload}: {len(passes)} pass(es) of {len(entries)} entries, "
        f"failed_ops_ratio = {failed}/{attempted} = {failed / attempted:.4f}"
    )
    for name, value in metrics.items():
        better = f" ({END_TO_END[name][1]} is better)" if name in END_TO_END else ""
        print(f"  {name} = {value:.6g} {units[name]}{better}")
    record = {
        "schema_version": SCHEMA_VERSION,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "commit": git_commit(ROOT),
        "passes": len(passes),
        "slowness": probe.slowness(),
        "unscaled": unscaled,
        "speed_samples": len(probe.samples),
        "trace_info": traced,
        "entries": [
            {
                "entry": entry.name,
                "status": res.status,
                "choice_points": res.choice_points,
                "fails": res.fails,
                "objective": res.objective,
                "setup_s": statistics.median(res.setup_s),
                "search_s": res.search_s,
                "slowness": res.slowness,
                "verdict": why,
            }
            for entry, res, why in zip(entries, passes[-1], verdicts)
        ],
    }
    print(json.dumps({"run_record": record}, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak memory stays per workload."""
    code = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name]
        cmd += ["--seed", str(args.seed), "--seconds", str(args.seconds)]
        cmd += ["--trace", str(args.trace)]
        code = max(code, subprocess.run(cmd, check=False).returncode)
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1, help="drives the filter-scale generator")
    parser.add_argument("--seconds", type=float, default=40.0, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "msetcp" / "__init__.py").is_file():
        print(f"error: no msetcp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
