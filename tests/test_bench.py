"""Benchmark builders, instance schema, stats records, and the CLI."""

import itertools
import json
import os
import random
import subprocess
import sys
from dataclasses import asdict
from importlib import resources
from pathlib import Path
from typing import Optional

import pytest

import msetcp
from msetcp import oracle
from msetcp.bench import (
    ENCODINGS,
    PROBLEMS,
    RunConfig,
    RunRecord,
    SchemaError,
    build,
    load_boats,
    load_instance,
    run,
)
from msetcp.cli import main
from msetcp.constraints import TableConstraint
from msetcp.engine import Solver
from msetcp.order import mset_cmp, Ordering


def data_path(name: str) -> str:
    return str(resources.files("msetcp").joinpath(f"data/{name}"))


def data_instance(name: str) -> dict:
    return load_instance(data_path(name))


def case_id(value) -> Optional[str]:
    """Test id of a shipped instance file: its family, then its name."""
    if isinstance(value, str) and value.endswith(".json"):
        return f"{value.split('_')[0]}-{value}"
    return None


# party_toy with guests of distinct crew sizes: mset-rows orders no row pair
PARTY_DISTINCT_CREWS = {
    "problem": "progressive_party",
    "periods": 2,
    "hosts": [{"capacity": 4, "crew": 2}, {"capacity": 4, "crew": 2}],
    "guests": [{"crew": 1}, {"crew": 2}],
}
# one rack: no adjacent pair for rack's conditional orderings
ONE_RACK = {
    "problem": "rack",
    "racks": 1,
    "rack_models": [{"power": 150, "connectors": 8, "price": 150}],
    "card_types": [{"power": 20, "demand": 2}],
}


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

    @pytest.mark.parametrize(
        "doc",
        [
            {
                "problem": "progressive_party",
                "periods": 2,
                "hosts": [{"capacity": "6", "crew": 2}],
                "guests": [{"crew": 1}],
            },
            {
                "problem": "progressive_party",
                "periods": 2,
                "hosts": [{"capacity": 6.5, "crew": 2}],
                "guests": [{"crew": 1}],
            },
            {
                "problem": "progressive_party",
                "periods": 2,
                "hosts": [{"capacity": 6, "crew": 2}],
                "guests": [{"crew": True}],
            },
            {
                "problem": "progressive_party",
                "periods": True,
                "hosts": [{"capacity": 6, "crew": 2}],
                "guests": [{"crew": 1}],
            },
            {"problem": "progressive_party", "periods": 2, "csplib_hosts": [2, 3.0]},
            {
                "problem": "rack",
                "racks": 2,
                "rack_models": [{"power": "1", "connectors": 1, "price": 1}],
                "card_types": [{"power": 1, "demand": 1}],
            },
            {
                "problem": "rack",
                "racks": 2,
                "rack_models": [{"power": 1, "connectors": 1, "price": 1}],
                "card_types": [{"power": 1, "demand": 0.5}],
            },
        ],
    )
    def test_non_integer_numbers_rejected(self, doc):
        """Strings, floats and JSON booleans in a numeric field are schema
        errors, not a crash inside the comparisons that follow."""
        with pytest.raises(SchemaError):
            load_instance(doc)

    def test_repeated_csplib_hosts_rejected(self):
        """A boat listed twice would become two hosts of one party."""
        doc = {"problem": "progressive_party", "periods": 2, "csplib_hosts": [1, 1, 2]}
        with pytest.raises(SchemaError, match=r"repeated boat ids \[1\]"):
            load_instance(doc)

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

    @pytest.mark.parametrize("timeout", [float("nan"), float("inf"), -1.0, 0])
    def test_timeout_not_finite_and_positive_rejected(self, timeout):
        with pytest.raises(SchemaError, match="timeout"):
            run(RunConfig(timeout=timeout), data_instance("sport_n3.json"))

    @pytest.mark.parametrize(
        "fields, instance",
        [
            ({"timeout": "5"}, "sport_n3.json"),  # was TypeError on comparing
            ({"timeout": True}, "sport_n3.json"),  # was a 1 s budget
            ({"entailment": "no"}, "sport_n5.json"),  # was entailment on
            ({"symmetry": ["mset"]}, "party_toy.json"),  # was TypeError: unhashable
        ],
    )
    def test_wrong_typed_field_rejected(self, fields, instance):
        name = next(iter(fields))
        with pytest.raises(SchemaError, match=name):
            run(RunConfig(**fields), data_instance(instance))


class TestProblemTable:
    """Each problem's symmetries and labellings are listed once, in
    ``PROBLEMS``; the builders accept every listed one and ``build`` refuses
    any other."""

    # sport_n5, as mset needs an odd team count
    SHIPPED = {
        "progressive_party": "party_toy.json",
        "rack": "rack_1.json",
        "sport": "sport_n5.json",
    }

    def test_a_shipped_instance_per_problem(self):
        assert set(self.SHIPPED) == set(PROBLEMS)

    @pytest.mark.parametrize(
        "problem, symmetry, labelling",
        [
            (problem, symmetry, labelling)
            for problem, spec in PROBLEMS.items()
            for symmetry in spec.symmetries
            for labelling in spec.labellings
        ],
    )
    def test_every_listed_option_builds(self, problem, symmetry, labelling):
        instance = data_instance(self.SHIPPED[problem])
        built = build(instance, RunConfig(symmetry=symmetry, labelling=labelling))
        assert built.problem == problem

    @pytest.mark.parametrize(
        "problem, field, value",
        [
            ("progressive_party", "symmetry", "sideways"),
            ("progressive_party", "labelling", "diagonal"),
            ("rack", "symmetry", "lex"),
            ("rack", "labelling", "column-wise"),
            ("sport", "symmetry", "mset-rows"),
            ("sport", "symmetry", ["mset"]),
            ("sport", "labelling", "column-wise"),
        ],
    )
    def test_unlisted_option_refused_naming_field_and_problem(self, problem, field, value):
        instance = data_instance(self.SHIPPED[problem])
        with pytest.raises(SchemaError) as exc:
            build(instance, RunConfig(**{field: value}))
        assert field in str(exc.value) and problem in str(exc.value)


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


class TestSharedTables:
    """The sport and rack builders post every table of a model over one
    compiled relation."""

    @pytest.mark.parametrize("instance, tables", [("sport_n7.json", 21), ("rack_5.json", 5)])
    def test_one_compile_per_relation_per_model(self, instance, tables, monkeypatch):
        compiles = []
        compile_table = TableConstraint.__init__

        def counting(table, xs, tuples):
            compiles.append(len(tuples))
            compile_table(table, xs, tuples)

        monkeypatch.setattr(TableConstraint, "__init__", counting)
        doc = data_instance(instance)
        first, second = (
            [p for p in build(doc, RunConfig()).model.propagators if isinstance(p, TableConstraint)]
            for _ in range(2)
        )
        assert len(compiles) == 2  # one per model
        for posted in (first, second):
            assert len(posted) == tables
            assert len({tuple(t.xs) for t in posted}) == tables
            head = posted[0]
            assert all(
                t.masks is head.masks and t._allowed is head._allowed and t.tuples is head.tuples
                for t in posted
            )
        # a model built after another shares nothing with it
        a, b = first[0], second[0]
        assert a.masks is not b.masks and a._allowed is not b._allowed
        assert a.tuples is not b.tuples
        assert {id(m) for m in a.masks}.isdisjoint(id(m) for m in b.masks)


class TestSportByes:
    """For odd n a week column holds n - 1 distinct teams out of n, so its
    multiset is "every team but the bye": ``{{A}} <m {{B}}`` holds exactly
    when bye(A) > bye(B), and the strict chain over the n weeks forces the
    byes n, ..., 1."""

    @pytest.mark.parametrize("encoding", ENCODINGS)
    @pytest.mark.parametrize("instance", ["sport_n5.json", "sport_n7.json"])
    def test_first_solution_has_byes_n_down_to_one(self, instance, encoding):
        doc = data_instance(instance)
        built = build(doc, RunConfig(symmetry="mset", encoding=encoding))
        sol, _ = Solver(built.model).solve(built.branching)
        n, T, periods = doc["teams"], built.meta["T"], built.meta["periods"]
        byes = []
        for w in range(n):
            column = {sol[T[j][w][s]] for j in range(periods) for s in range(2)}
            assert len(column) == n - 1
            (bye,) = set(range(1, n + 1)) - column
            byes.append(bye)
        assert byes == list(range(n, 0, -1))

    def test_mset_less_is_the_reversed_bye_order(self):
        rng = random.Random(9)
        for _ in range(1000):
            n = rng.choice([3, 5, 7, 9])
            teams = range(1, n + 1)
            a, b = (tuple(rng.sample(teams, n - 1)) for _ in range(2))
            bye_a, bye_b = (sum(teams) - sum(column) for column in (a, b))
            assert oracle.mset_less(a, b) == (bye_a > bye_b), (a, b)


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

    def test_arith_same_tree_and_entailment_rejected(self):
        """The conditional bodies never track entailment, so rack refuses
        the option under either symmetry rather than ignore it."""
        inst = data_instance("rack_3.json")
        alg = run(RunConfig(symmetry="mset", encoding="algorithm", timeout=118), inst)
        ari = run(RunConfig(symmetry="mset", encoding="arith", timeout=118), inst)
        assert (alg.fails, alg.choice_points) == (ari.fails, ari.choice_points)
        assert alg.objective == ari.objective
        for symmetry in ("none", "mset"):
            with pytest.raises(SchemaError, match="entailment"):
                run(RunConfig(symmetry=symmetry, entailment=True), inst)

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

    def test_entailment_refused_when_mset_rows_posts_nothing(self):
        """Rows are ordered only between adjacent guests of equal crew, so
        with every crew different ``mset-rows`` posts no ordering at all."""
        doc = {
            "problem": "progressive_party",
            "periods": 2,
            "hosts": [{"capacity": 4, "crew": 1}, {"capacity": 4, "crew": 1}],
            "guests": [{"crew": 2}, {"crew": 1}],
        }
        cfg = RunConfig(symmetry="mset-rows", entailment=True)
        with pytest.raises(SchemaError, match="entailment"):
            run(cfg, load_instance(doc))
        cfg.entailment = False
        assert run(cfg, load_instance(doc)).status == "solved"

    def test_toy_satisfiable_without_and_with_mset_rows(self):
        plain = run(RunConfig(symmetry="none"), self._toy())
        sym = run(RunConfig(symmetry="mset-rows"), self._toy())
        assert plain.status == sym.status == "solved"

    @staticmethod
    def _enumerate(inst, mset_rows):
        """Every host matrix ``H[i][j]`` (guests in the model's order) with no
        revisit, no second meeting and no host over its spare capacity; with
        ``mset_rows``, also adjacent equal-crew rows in multiset order."""
        p = inst["periods"]
        spare = [h["capacity"] - h["crew"] for h in inst["hosts"]]
        crew = [g["crew"] for g in sorted(inst["guests"], key=lambda g: -g["crew"])]
        g = len(crew)
        found = set()
        for flat in itertools.product(range(len(spare)), repeat=p * g):
            H = tuple(flat[i * g : (i + 1) * g] for i in range(p))
            rows = [tuple(H[i][j] for i in range(p)) for j in range(g)]
            if any(len(set(row)) < p for row in rows):
                continue
            if any(
                sum(a == b for a, b in zip(rows[j1], rows[j2])) > 1
                for j1, j2 in itertools.combinations(range(g), 2)
            ):
                continue
            if any(
                sum(c for c, k in zip(crew, col) if k == host) > room
                for col in H
                for host, room in enumerate(spare)
            ):
                continue
            if mset_rows and any(
                crew[j] == crew[j + 1] and mset_cmp(rows[j], rows[j + 1]) is Ordering.GREATER
                for j in range(g - 1)
            ):
                continue
            found.add(H)
        return found

    def test_whole_search_matches_enumeration(self):
        """party_toy and small generated instances, sat and unsat: the run's
        status agrees with brute force over every host matrix, and the
        solution found is one of the enumerated ones."""
        import random

        from msetcp.engine import Solver

        rng = random.Random(17)
        docs = [self._toy()]
        while len(docs) < 9:
            p, h, g = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3)
            if h ** (p * g) > 6000:
                continue
            hosts = []
            for _ in range(h):
                crew = rng.randint(0, 2)
                hosts.append({"capacity": crew + rng.randint(0, 3), "crew": crew})
            guests = [{"crew": rng.randint(1, 2)} for _ in range(g)]
            doc = {"problem": "progressive_party", "periods": p, "hosts": hosts, "guests": guests}
            docs.append(load_instance(doc))
        statuses = set()
        for inst in docs:
            for symmetry in ("none", "mset-rows"):
                expected = self._enumerate(inst, symmetry == "mset-rows")
                cfg = RunConfig(symmetry=symmetry)
                rec = run(cfg, inst)
                assert rec.status == ("solved" if expected else "unsat"), (inst, symmetry)
                statuses.add(rec.status)
                built = build(inst, cfg)
                sol, _ = Solver(built.model).solve(built.branching)
                if expected:
                    H = tuple(tuple(sol[v] for v in row) for row in built.meta["H"])
                    assert H in expected, (inst, symmetry)
                else:
                    assert sol is None
        assert statuses == {"solved", "unsat"}

    def test_host_below_own_crew_rejected(self):
        """A host whose crew exceeds its capacity would have a negative spare,
        which fails every model at the root although host 0 seats both
        guests, so the document is rejected."""
        doc = {
            "problem": "progressive_party",
            "periods": 1,
            "hosts": [{"capacity": 6, "crew": 2}, {"capacity": 1, "crew": 3}],
            "guests": [{"crew": 1}, {"crew": 1}],
        }
        with pytest.raises(SchemaError):
            load_instance(doc)
        with pytest.raises(SchemaError):
            load_instance({"problem": "progressive_party", "periods": 2, "csplib_hosts": [1, 2, 40]})

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

    @pytest.mark.parametrize("where", ["directory", "missing parent"])
    def test_unopenable_stats_file_exit_two_before_the_search(
        self, where, tmp_path, capsys, monkeypatch
    ):
        """A ``--stats-json`` path that cannot be opened for append is refused
        before the run, not with a traceback after the whole search."""
        stats = tmp_path if where == "directory" else tmp_path / "missing" / "stats.jsonl"
        runs = []
        monkeypatch.setattr("msetcp.cli.search", lambda *args: runs.append(args))
        code = main(
            [
                "--instance", data_path("sport_n5.json"),
                "--stats-json", str(stats),
            ]
        )
        assert code == 2
        assert runs == []
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert str(stats) in captured.err

    @pytest.mark.parametrize(
        "instance, options",
        [
            ("sport_n5.json", ["--timeout", "nan"]),
            ("sport_n5.json", ["--symmetry", "none", "--entailment"]),
            ("rack_1.json", ["--symmetry", "lex"]),
        ],
        ids=["timeout-nan", "sport-none-entailment", "rack-lex"],
    )
    def test_refused_option_leaves_no_stats_file(self, instance, options, tmp_path, capsys):
        """The stats file is opened only once every option is accepted."""
        stats = tmp_path / "stats.jsonl"
        code = main(["--instance", data_path(instance), *options, "--stats-json", str(stats)])
        assert code == 2
        assert capsys.readouterr().out == ""
        assert not stats.exists()

    def test_schema_error_exit_two_no_stdout(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = main(["--instance", str(bad)])
        assert code == 2
        assert capsys.readouterr().out == ""

    def test_instance_schema_error_leaves_no_stats_file(self, tmp_path, capsys):
        """The stats file is opened only once the instance is accepted."""
        bad = tmp_path / "rack.json"
        bad.write_text(json.dumps({"problem": "rack", "racks": 2, "card_types": []}))
        stats = tmp_path / "stats.jsonl"
        code = main(["--instance", str(bad), "--stats-json", str(stats)])
        assert code == 2
        assert not stats.exists()

    def test_non_integer_capacity_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "party.json"
        bad.write_text(
            '{"problem": "progressive_party", "periods": 2,'
            ' "hosts": [{"capacity": "6", "crew": 2}], "guests": [{"crew": 1}]}'
        )
        code = main(["--instance", str(bad)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "integers" in captured.err

    @pytest.mark.parametrize(
        "instance", ["party_toy.json", "rack_1.json", "sport_n5.json"], ids=case_id
    )
    def test_instance_alone_runs_its_problem_under_the_defaults(self, instance, capsys):
        """The instance's problem field picks the model, and every option left
        out takes its RunConfig default."""
        with open(data_path(instance)) as fh:
            problem = json.load(fh)["problem"]
        assert main(["--instance", data_path(instance)]) == 0
        rec = RunRecord.from_json(capsys.readouterr().out.strip().splitlines()[-1])
        assert rec.problem == problem
        assert rec.config == asdict(RunConfig())

    def test_problem_option_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--problem", "sport", "--instance", data_path("sport_n5.json")])
        assert exc.value.code == 2
        assert "--problem" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "problem, instance", [("rack", "rack_1.json"), ("sport", "sport_n5.json")]
    )
    def test_column_wise_labelling_rejected_outside_party(self, problem, instance, capsys):
        """Only party's variable order follows --labelling; elsewhere the
        option would do nothing, so it is refused, naming the problem."""
        code = main(["--instance", data_path(instance), "--labelling", "column-wise"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "labelling" in captured.err and problem in captured.err

    def test_timeout_exit_one(self, tmp_path, capsys):
        big = tmp_path / "sport_n9.json"
        big.write_text(json.dumps({"problem": "sport", "teams": 9}))
        code = main(
            [
                "--instance", str(big),
                "--symmetry", "none",
                "--timeout", "0.5",
            ]
        )
        assert code == 1
        rec = RunRecord.from_json(capsys.readouterr().out.strip().splitlines()[-1])
        assert rec.status == "timeout"

    @pytest.mark.parametrize("timeout", ["nan", "inf", "-1", "0"])
    def test_timeout_not_finite_and_positive_exit_two(self, timeout, capsys):
        """A NaN or infinite budget never runs out (and NaN or Infinity would
        make the JSON record invalid); a budget of zero or less times out
        before the first node.  All are refused."""
        code = main(
            [
                "--instance", data_path("sport_n5.json"),
                "--timeout", timeout,
            ]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "timeout" in captured.err

    @pytest.mark.parametrize(
        "instance, symmetry, encoding",
        [
            ("sport_n5.json", "mset", "gcc"),
            ("rack_1.json", "mset", "algorithm"),
            ("sport_n5.json", "none", "algorithm"),
            ("sport_n5.json", "lex", "algorithm"),
            ("party_toy.json", "lex", "algorithm"),
        ],
        ids=case_id,
    )
    def test_entailment_without_a_tracking_filter_exit_two(
        self, instance, symmetry, encoding, capsys
    ):
        """Only an unconditional occurrence filter tracks entailment: another
        encoding, rack's conditional orderings and a symmetry that posts no
        multiset ordering leave the flag nothing to do, so it is refused."""
        code = main(
            [
                "--instance", data_path(instance),
                "--symmetry", symmetry,
                "--encoding", encoding,
                "--entailment",
            ]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "entailment" in captured.err

    @pytest.mark.parametrize(
        "instance, symmetry, encoding",
        [
            ("sport_n5.json", "none", "gcc"),
            ("sport_n5.json", "lex", "arith"),
            ("party_toy.json", "none", "algorithm-sorted"),
            ("party_toy.json", "lex", "sort"),
            ("rack_1.json", "none", "arith"),
            pytest.param(PARTY_DISTINCT_CREWS, "mset-rows", "gcc", id="party-distinct"),
            pytest.param(ONE_RACK, "mset", "gcc", id="rack-one-gcc"),
            pytest.param(ONE_RACK, "mset", "arith", id="rack-one-arith"),
        ],
        ids=case_id,
    )
    def test_encoding_without_a_multiset_ordering_exit_two(
        self, instance, symmetry, encoding, tmp_path, capsys
    ):
        """Where no multiset ordering is posted, an encoding has nothing to
        do, so any but the default is refused: under a symmetry that posts
        none, and on an instance where the symmetry finds no pair to order
        (no two adjacent guests share a crew size, or a single rack)."""
        if isinstance(instance, dict):
            path = tmp_path / "instance.json"
            path.write_text(json.dumps(instance))
        else:
            path = data_path(instance)
        code = main(
            [
                "--instance", str(path),
                "--symmetry", symmetry,
                "--encoding", encoding,
            ]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "encoding" in captured.err

    def test_closed_stdout_pipe_keeps_exit_code(self):
        """``bench ... | head -1``: the reader leaving early is no error."""
        env = dict(os.environ, PYTHONPATH=str(Path(msetcp.__file__).resolve().parents[1]))
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "msetcp.cli",
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
