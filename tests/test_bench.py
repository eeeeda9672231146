"""Benchmark builders, instance schema, stats records, and the CLI."""

import itertools
import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

import msetcp
from msetcp.bench import (
    RunConfig,
    RunRecord,
    SchemaError,
    build,
    load_boats,
    load_instance,
    run,
)
from msetcp.cli import main
from msetcp.order import mset_cmp, Ordering


def data_path(name: str) -> str:
    return str(resources.files("msetcp").joinpath(f"data/{name}"))


def data_instance(name: str) -> dict:
    return load_instance(data_path(name))


class TestInstanceLoading:
    def test_boats_table(self):
        boats = load_boats()
        assert len(boats) == 42
        assert boats[0] == {"id": 1, "capacity": 6, "crew": 2}

    def test_csplib_instance_resolves(self):
        inst = data_instance("party_1.json")
        assert len(inst["hosts"]) == 13
        spare = sum(h["capacity"] - h["crew"] for h in inst["hosts"])
        demand = sum(g["crew"] for g in inst["guests"])
        assert (spare, demand) == (102, 92)

    def test_missing_field_rejected(self):
        with pytest.raises(SchemaError):
            load_instance({"problem": "rack", "racks": 2, "card_types": []})

    def test_unknown_problem_rejected(self):
        with pytest.raises(SchemaError):
            load_instance({"problem": "queens"})

    def test_nonpositive_counts_rejected(self):
        with pytest.raises(SchemaError):
            load_instance(
                {
                    "problem": "progressive_party",
                    "periods": 0,
                    "hosts": [{"capacity": 2, "crew": 1}],
                    "guests": [{"crew": 1}],
                }
            )

    def test_validation_warns_but_does_not_fix(self, capsys):
        doc = {
            "problem": "progressive_party",
            "periods": 2,
            "hosts": [{"capacity": 2, "crew": 2}],
            "guests": [{"crew": 5}],
        }
        inst = load_instance(doc)
        assert inst["guests"][0]["crew"] == 5  # untouched
        assert "warning" in capsys.readouterr().err


class TestRunRecord:
    def test_json_round_trip(self):
        rec = run(RunConfig(symmetry="mset"), data_instance("sport_n5.json"))
        assert RunRecord.from_json(rec.to_json()) == rec

    def test_text_line_mentions_config(self):
        rec = run(RunConfig(symmetry="none"), data_instance("sport_n3.json"))
        assert "sport" in rec.text_line() and "none" in rec.text_line()


class TestSportModel:
    def test_n3_satisfiable_and_matches_exhaustive_oracle(self):
        rec = run(RunConfig(symmetry="none"), data_instance("sport_n3.json"))
        # independent enumeration: 1 period, 3 weeks, slots<pairs>, each team
        # plays every other exactly once and appears twice in the period
        found = False
        pairs = [(1, 2), (1, 3), (2, 3)]
        for weeks in itertools.permutations(pairs):
            counts = {t: 0 for t in (1, 2, 3)}
            for h, a in weeks:
                counts[h] += 1
                counts[a] += 1
            if all(c == 2 for c in counts.values()):
                found = True
        assert rec.status == "solved"
        assert found  # the oracle agrees a schedule exists

    def test_n5_solves_with_strict_columns(self):
        rec = run(RunConfig(symmetry="mset", encoding="algorithm"), data_instance("sport_n5.json"))
        assert rec.status == "solved"

    def test_solution_columns_strictly_increase(self):
        inst = data_instance("sport_n5.json")
        cfg = RunConfig(symmetry="mset", encoding="algorithm")
        built = build(inst, cfg)
        from msetcp.engine import Solver

        sol, _ = Solver(built.model).solve(built.branching)
        T = built.meta["T"]
        cols = [
            [sol[T[j][w][s]] for j in range(built.meta["periods"]) for s in range(2)]
            for w in range(len(T[0]))
        ]
        for a, b in zip(cols, cols[1:]):
            assert mset_cmp(a, b) is Ordering.LESS

    def test_even_n_rejects_mset_columns(self):
        with pytest.raises(SchemaError):
            build({"problem": "sport", "teams": 4}, RunConfig(symmetry="mset"))

    def test_even_n4_unsat_matches_exhaustive_enumeration(self):
        rec = run(RunConfig(symmetry="none", timeout=30), {"problem": "sport", "teams": 4})
        assert rec.status == "unsat"
        # exhaustive cross-check: rounds of K4 are its three perfect matchings
        # in some order; each week sends one game to each period; a dummy
        # round must top every team's period count up to exactly two
        matchings = [(((1, 2), (3, 4))), ((1, 3), (2, 4)), ((1, 4), (2, 3))]
        feasible = False
        for week_order in itertools.permutations(matchings):
            for flips in itertools.product((0, 1), repeat=3):
                counts = {(t, p): 0 for t in range(1, 5) for p in range(2)}
                for (g1, g2), flip in zip(week_order, flips):
                    for t in g1:
                        counts[(t, flip)] += 1
                    for t in g2:
                        counts[(t, 1 - flip)] += 1
                if all(c <= 2 for c in counts.values()) and all(
                    sum(1 for t in range(1, 5) if counts[(t, p)] == 1) == 2
                    for p in range(2)
                ):
                    feasible = True
        assert not feasible

    def test_even_n6_solves_plain_and_with_lex_columns(self):
        plain = run(RunConfig(symmetry="none", timeout=60), {"problem": "sport", "teams": 6})
        lex = run(RunConfig(symmetry="lex", timeout=60), {"problem": "sport", "teams": 6})
        assert plain.status == lex.status == "solved"

    def test_arith_same_tree_as_algorithm(self):
        inst = data_instance("sport_n5.json")
        a = run(RunConfig(symmetry="mset", encoding="algorithm"), inst)
        b = run(RunConfig(symmetry="mset", encoding="arith"), inst)
        assert (a.fails, a.choice_points) == (b.fails, b.choice_points)

    def test_sorted_variant_same_tree_as_algorithm(self):
        inst = data_instance("sport_n5.json")
        a = run(RunConfig(symmetry="mset", encoding="algorithm"), inst)
        b = run(RunConfig(symmetry="mset", encoding="algorithm-sorted"), inst)
        assert (a.fails, a.choice_points) == (b.fails, b.choice_points)

    def test_sort_decomposition_encoding_solves(self):
        rec = run(
            RunConfig(symmetry="mset", encoding="sort", timeout=30),
            data_instance("sport_n5.json"),
        )
        assert rec.status == "solved"

    def test_entailment_does_not_change_search(self):
        inst = data_instance("sport_n5.json")
        a = run(RunConfig(symmetry="mset", encoding="algorithm", entailment=False), inst)
        b = run(RunConfig(symmetry="mset", encoding="algorithm", entailment=True), inst)
        assert (a.fails, a.choice_points) == (b.fails, b.choice_points)

    def test_algorithm_never_more_fails_than_gcc(self):
        inst = data_instance("sport_n5.json")
        a = run(RunConfig(symmetry="mset", encoding="algorithm"), inst)
        g = run(RunConfig(symmetry="mset", encoding="gcc"), inst)
        assert a.fails <= g.fails

    def test_symmetry_breaking_preserves_satisfiability(self):
        inst = data_instance("sport_n5.json")
        plain = run(RunConfig(symmetry="none"), inst)
        sym = run(RunConfig(symmetry="mset"), inst)
        assert plain.status == sym.status == "solved"


class TestRackModel:
    def test_zero_demand_all_dummy(self):
        doc = {
            "problem": "rack",
            "racks": 3,
            "rack_models": [{"power": 100, "connectors": 4, "price": 50}],
            "card_types": [{"power": 10, "demand": 0}],
        }
        rec = run(RunConfig(symmetry="none"), load_instance(doc))
        assert rec.status == "solved" and rec.objective == 0

    def test_demand_exceeding_connectors_unsat(self):
        doc = {
            "problem": "rack",
            "racks": 1,
            "rack_models": [{"power": 100, "connectors": 2, "price": 50}],
            "card_types": [{"power": 1, "demand": 5}],
        }
        rec = run(RunConfig(symmetry="none"), load_instance(doc))
        assert rec.status == "unsat"

    def test_instance1_optimum_with_and_without_symmetry(self):
        inst = data_instance("rack_1.json")
        plain = run(RunConfig(symmetry="none", timeout=118), inst)
        sym = run(RunConfig(symmetry="mset", timeout=118), inst)
        assert plain.status == sym.status == "solved"
        assert plain.objective == sym.objective == 650

    def test_arith_same_tree_and_entailment_neutral(self):
        inst = data_instance("rack_3.json")
        alg = run(RunConfig(symmetry="mset", encoding="algorithm", timeout=118), inst)
        ari = run(RunConfig(symmetry="mset", encoding="arith", timeout=118), inst)
        ent = run(
            RunConfig(symmetry="mset", encoding="algorithm", entailment=True, timeout=118),
            inst,
        )
        assert (alg.fails, alg.choice_points) == (ari.fails, ari.choice_points)
        assert (alg.fails, alg.choice_points) == (ent.fails, ent.choice_points)
        assert alg.objective == ari.objective == ent.objective

    def test_conditional_requires_stateless_encoding(self):
        inst = data_instance("rack_1.json")
        with pytest.raises(SchemaError):
            run(RunConfig(symmetry="mset", encoding="gcc"), inst)

    def test_solutions_respect_conditional_ordering(self):
        inst = data_instance("rack_1.json")
        cfg = RunConfig(symmetry="mset")
        built = build(inst, cfg)
        from msetcp.engine import Solver

        sol, _ = Solver(built.model).solve(
            built.branching, minimize=built.model.objective, first_only=False
        )
        R, C = built.meta["R"], built.meta["C"]
        for j in range(len(R) - 1):
            if sol[R[j]] == sol[R[j + 1]]:
                col_a = [sol[C[i][j]] for i in range(len(C))]
                col_b = [sol[C[i][j + 1]] for i in range(len(C))]
                assert mset_cmp(col_a, col_b) is not Ordering.GREATER


class TestPartyModel:
    def _toy(self):
        return data_instance("party_toy.json")

    def test_toy_satisfiable_without_and_with_mset_rows(self):
        plain = run(RunConfig(symmetry="none"), self._toy())
        sym = run(RunConfig(symmetry="mset-rows"), self._toy())
        assert plain.status == sym.status == "solved"

    def test_toy_oracle_enumeration_agrees(self):
        # 2 periods x 2 guests x 2 hosts: enumerate every H matrix directly
        def ok(h00, h01, h10, h11, mset_rows):
            # columns: guest j visits hosts (h0j, h1j)
            if h00 == h10 or h01 == h11:  # revisit
                return False
            meets = (h00 == h01) + (h10 == h11)
            if meets > 1:
                return False
            # capacity: slack 2 per host, crews 1 → at most 2 guests anywhere: ok
            if mset_rows and mset_cmp((h00, h10), (h01, h11)) is Ordering.GREATER:
                return False
            return True

        plain = [c for c in itertools.product(range(2), repeat=4) if ok(*c, False)]
        sym = [c for c in itertools.product(range(2), repeat=4) if ok(*c, True)]
        assert plain and sym  # satisfiable in both configurations

    def test_revisit_forced_unsat(self):
        doc = {
            "problem": "progressive_party",
            "periods": 2,
            "hosts": [{"capacity": 3, "crew": 1}],
            "guests": [{"crew": 1}],
        }
        rec = run(RunConfig(symmetry="none"), load_instance(doc))
        assert rec.status == "unsat"  # one host, two periods: must revisit

    def test_table4_instance_builds_with_13_hosts(self):
        built = build(data_instance("party_1.json"), RunConfig(symmetry="mset-rows"))
        assert built.meta["hosts"] == 13

    def test_unknown_symmetry_rejected(self):
        with pytest.raises(SchemaError):
            run(RunConfig(symmetry="sideways"), self._toy())

    def test_single_period_rejects_strict_row_orderings(self):
        doc = {
            "problem": "progressive_party",
            "periods": 1,
            "hosts": [{"capacity": 6, "crew": 2}],
            "guests": [{"crew": 1}, {"crew": 1}],
        }
        inst = load_instance(doc)
        with pytest.raises(SchemaError):
            run(RunConfig(symmetry="lex"), inst)
        # the weak multiset ordering stays sound: both guests may share the host
        rec = run(RunConfig(symmetry="mset-rows"), inst)
        assert rec.status == "solved"

    def test_algorithm_never_more_fails_than_gcc(self):
        a = run(RunConfig(symmetry="mset-rows", encoding="algorithm"), self._toy())
        g = run(RunConfig(symmetry="mset-rows", encoding="gcc"), self._toy())
        assert a.status == g.status == "solved"
        assert a.fails <= g.fails

    def test_labelling_orders_differ_but_both_solve(self):
        a = run(RunConfig(symmetry="mset", labelling="row-wise"), self._toy())
        b = run(RunConfig(symmetry="mset", labelling="column-wise"), self._toy())
        assert a.status == b.status == "solved"


class TestCli:
    def test_solved_exit_zero_and_stats_file(self, tmp_path, capsys):
        stats = tmp_path / "stats.jsonl"
        code = main(
            [
                "--problem", "sport",
                "--instance", data_path("sport_n5.json"),
                "--symmetry", "mset",
                "--stats-json", str(stats),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 2
        parsed = RunRecord.from_json(out[1])
        assert parsed.status == "solved"
        assert RunRecord.from_json(stats.read_text().strip()) == parsed

    def test_schema_error_exit_two_no_stdout(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = main(["--problem", "sport", "--instance", str(bad)])
        assert code == 2
        assert capsys.readouterr().out == ""

    def test_problem_mismatch_exit_two(self, capsys):
        code = main(["--problem", "rack", "--instance", data_path("sport_n5.json")])
        assert code == 2

    def test_timeout_exit_one(self, tmp_path, capsys):
        big = tmp_path / "sport_n9.json"
        big.write_text(json.dumps({"problem": "sport", "teams": 9}))
        code = main(
            [
                "--problem", "sport",
                "--instance", str(big),
                "--symmetry", "none",
                "--timeout", "0.5",
            ]
        )
        assert code == 1
        rec = RunRecord.from_json(capsys.readouterr().out.strip().splitlines()[-1])
        assert rec.status == "timeout"

    def test_party_alias_matches_instance(self, capsys):
        code = main(
            ["--problem", "party", "--instance", data_path("party_toy.json")]
        )
        assert code == 0

    def test_closed_stdout_pipe_keeps_exit_code(self):
        """``bench ... | head -1``: the reader leaving early is no error."""
        env = dict(os.environ, PYTHONPATH=str(Path(msetcp.__file__).resolve().parents[1]))
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "msetcp.cli",
                "--problem", "sport",
                "--instance", data_path("sport_n5.json"),
                "--symmetry", "mset",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        proc.stdout.close()  # long before the child prints its first line
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
        assert b"Traceback" not in err
