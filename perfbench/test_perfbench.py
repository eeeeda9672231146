"""Tests of the benchmark itself, on tiny versions of its workloads.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import calibrate
import reference
import run
import tracer
import workloads
from workloads import ModelEntry

HERE = Path(__file__).resolve().parent

# the same kinds of entries as each workload, on small instances
TINY = {
    "sport-plain": [
        ModelEntry("sport_n5", "none", expect="budget", budget=8),
        ModelEntry("sport_n5", "lex"),
    ],
    "mset-encodings": [
        ModelEntry("sport_n5", "mset", enc)
        for enc in ("algorithm", "algorithm-sorted", "gcc", "sort", "arith")
    ]
    + [ModelEntry("sport_n5", "mset", "algorithm", entailment=True)]
    + [
        ModelEntry("rack_1", "mset", enc, optimum=650)
        for enc in ("algorithm", "algorithm-sorted", "arith")
    ],
    "filter-scale": workloads.filter_entries(60),
}


def test_tiny_workloads_cover_every_workload():
    assert set(TINY) == set(workloads.WORKLOADS) == set(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("name", sorted(TINY))
def test_every_workload_runs_at_tiny_size(name):
    entries = TINY[name]
    passes = [workloads.run_pass(entries, seed=3, setup_repeats=2) for _ in range(2)]
    failed, problems, _ = run.check(workloads, entries, passes)
    assert failed == 0, problems
    metrics = run.end_to_end(passes)
    assert set(metrics) == set(run.END_TO_END)
    assert all(value > 0 for value in metrics.values()), metrics


def test_filter_instances_follow_the_seed():
    a = workloads.make_filter_instance(5, 40, True, 4)
    assert a == workloads.make_filter_instance(5, 40, True, 4)
    assert a != workloads.make_filter_instance(6, 40, True, 4)


def test_filter_variants_must_agree():
    entries = workloads.filter_entries(40, rounds=4)[:3]
    results = workloads.run_pass(entries, seed=1)
    results[2].digest += 1
    verdicts = workloads.group_verdicts(entries, results)
    assert verdicts[2] == "filter variants disagree on the pruned domains"


def test_wrong_expected_optimum_is_a_failed_op():
    right = ModelEntry("rack_1", "mset", optimum=650)
    wrong = ModelEntry("rack_1", "mset", optimum=651)
    entries = [right, wrong]
    passes = [workloads.run_pass(entries, seed=1)]
    failed, problems, verdicts = run.check(workloads, entries, passes)
    assert failed == 1
    assert verdicts == [None, "objective 650, expected 651"]
    assert problems == [f"{wrong.name}: objective 650, expected 651"]


def test_failed_set_up_is_a_failed_op_and_the_run_goes_on(capsys, monkeypatch):
    broken = ModelEntry({"problem": "no-such-problem"}, "none")
    entries = [broken, TINY["sport-plain"][1]]
    monkeypatch.setitem(workloads.WORKLOADS, "sport-plain", entries)
    assert run.main(["--workload", "sport-plain", "--seed", "1", "--seconds", "0", "--trace", "0"]) == 0
    out = capsys.readouterr().out
    result = json.loads(out.strip().splitlines()[-1])
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 2, 1)
    assert "failed_ops_ratio = 1/2" in out


def test_budget_stops_the_search_at_the_budget():
    entry = ModelEntry("party_1", "none", expect="budget", budget=37)
    result = workloads.run_model_entry(entry)
    assert (result.status, result.choice_points) == ("budget", 37)
    assert workloads.verdict(entry, result) is None


def test_budget_never_reached_is_a_failed_op():
    entry = ModelEntry("sport_n3", "none", expect="budget", budget=10**6)
    result = workloads.run_model_entry(entry)
    assert result.status == "solved"
    assert workloads.verdict(entry, result) == "status solved, expected budget"


def test_budget_keeps_the_search_tree():
    free = workloads.run_model_entry(ModelEntry("sport_n5", "none"))
    capped = workloads.run_model_entry(ModelEntry("sport_n5", "none", budget=10**6))
    assert (capped.status, capped.choice_points, capped.fails) == (
        free.status,
        free.choice_points,
        free.fails,
    )


def test_speed_probe_keeps_the_search_tree(monkeypatch):
    monkeypatch.setattr(calibrate, "EVERY_S", 0.0)
    entry = ModelEntry("rack_2", "mset", optimum=800)
    plain = workloads.run_model_entry(entry)
    probe = calibrate.SpeedProbe()
    probed = workloads.run_model_entry(entry, probe=probe)
    assert (probed.choice_points, probed.fails) == (plain.choice_points, plain.fails)
    assert len(probe.samples) > 10
    assert 0 < probed.search_s < plain.search_s + probe.spent
    assert probe.slowness() > 0


def test_root_failure_is_unsat_without_search():
    doc = {
        "problem": "rack",
        "racks": 1,
        "rack_models": [{"power": 100, "connectors": 2, "price": 10}],
        "card_types": [{"power": 1, "demand": 5}],
    }
    entry = ModelEntry(doc, "none", expect="unsat")
    result = workloads.run_model_entry(entry)
    assert (result.status, result.choice_points) == ("unsat", 0)
    assert workloads.verdict(entry, result) is None


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_self_times_fit_in_the_wall_time(name):
    with tracer.Tracer() as spans:
        start = time.perf_counter()
        results = workloads.run_pass(TINY[name], seed=2)
        wall = time.perf_counter() - start
    assert all(v is None for v in workloads.group_verdicts(TINY[name], results))
    assert 0 < spans.self_time_sum() <= wall
    metrics = spans.metrics(1.0)
    assert list(metrics) == tracer.metric_names()
    assert metrics["store.mutate.calls"] > 0
    if name == "sport-plain":
        assert all(v == 0 for k, v in metrics.items() if k.startswith("mset.") and k.endswith(".calls"))
    if name == "filter-scale":
        assert metrics["mset.MultisetOrdering.calls"] > 0
        assert metrics["mset.SortedMultisetOrdering.calls"] > 0
    # each kept span lies inside its parent
    by_id = {s[0]: s for s in spans.spans}
    for sid, _, start, end, parent in spans.spans:
        if parent in by_id:
            assert by_id[parent][2] <= start <= end <= by_id[parent][3]


def test_verify_time_counts_nested_checks_once():
    with tracer.Tracer() as spans:
        workloads.run_model_entry(ModelEntry("rack_1", "mset", optimum=650))
    assert len(spans.spans) == spans.span_count
    names = {sid: name for sid, name, *_ in spans.spans}
    checks = [s for s in spans.spans if s[1].endswith(".check")]
    outer = [s for s in checks if not names.get(s[4], "").endswith(".check")]
    assert len(outer) < len(checks)  # Conditional checks its body
    assert spans.verify_s == pytest.approx(sum(end - start for _, _, start, end, _ in outer))


def test_tracer_restores_the_library():
    from msetcp.engine import Solver
    from msetcp.store import Store

    before = (Store.set_min, Store.watch_bounds, Solver.fixpoint, workloads.bench.build)
    with tracer.Tracer():
        assert Store.set_min is not before[0]
    assert (Store.set_min, Store.watch_bounds, Solver.fixpoint, workloads.bench.build) == before
    assert "post" not in vars(workloads.bench.LessThan)


def test_tracing_keeps_the_search_tree():
    entry = ModelEntry("rack_2", "mset", optimum=800)
    plain = workloads.run_model_entry(entry)
    with tracer.Tracer():
        traced = workloads.run_model_entry(entry)
    assert (traced.choice_points, traced.fails) == (plain.choice_points, plain.fails)


@pytest.mark.parametrize("entry", [e for k in TINY for e in TINY[k] if getattr(e, "budget", 0) is None])
def test_split_path_matches_bench_run(entry):
    assert reference.compare(entry) is None


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    args = ["--workload", "sport-plain", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(
        [sys.executable, str(tmp_path / "perfbench" / "run.py"), *args],
        capture_output=True,
        text=True,
        timeout=60,
        cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_commit_is_unknown_outside_git(tmp_path):
    assert run.git_commit(tmp_path) == "unknown"


def test_last_line_is_the_result(capsys, monkeypatch):
    monkeypatch.setitem(workloads.WORKLOADS, "sport-plain", TINY["sport-plain"])
    assert run.main(["--workload", "sport-plain", "--seed", "1", "--seconds", "0", "--trace", "0"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 2
    assert set(result["metrics"]) == set(run.END_TO_END)
    record = json.loads(lines[-2])["run_record"]
    assert record["seed"] == 1 and record["cpus"] >= 1 and record["python"]
