"""Untimed check that the benchmark's split solve path matches ``msetcp.bench.run``.

    python3 perfbench/reference.py [workload ...]

For every model entry without a choice-point budget, runs the entry once
through ``msetcp.bench.run`` and once through the benchmark's split path and
compares status, objective, fails and choice points.  Prints one line per
entry and exits with 1 when any of them differ.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Optional


def compare(entry) -> Optional[str]:
    """None when both paths agree on ``entry``, else the difference."""
    from msetcp import bench

    import workloads

    record = bench.run(entry.config(), bench.load_instance(entry.source()))
    result = workloads.run_model_entry(entry)
    ref = (record.status, record.objective, record.fails, record.choice_points)
    split = (result.status, result.objective, result.fails, result.choice_points)
    if ref != split:
        return f"bench.run gives {ref}, split path gives {split}"
    return None


def main(argv=None) -> int:
    import workloads

    names = argv if argv else list(workloads.WORKLOADS)
    differ = 0
    for name in names:
        for entry in workloads.WORKLOADS[name]:
            if isinstance(entry, workloads.FilterEntry) or entry.budget is not None:
                continue
            why = compare(entry)
            differ += why is not None
            print(f"{'DIFFERS' if why else 'same   '} {name} {entry.name} {why or ''}".rstrip())
    return 1 if differ else 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    sys.exit(main(sys.argv[1:]))
