"""Workload entries of the msetcp benchmark and the code that runs one entry.

A model entry is one pinned (instance, symmetry, encoding, entailment) run of
the ``msetcp.bench`` models.  It takes the same path as ``msetcp.bench.run``
(``load_instance`` -> ``build`` -> ``Solver`` -> ``propagate_root`` ->
``Solver.solve``, same ``RunConfig``, same ``solve`` arguments) with the
set-up steps timed apart from the search.

A filter entry posts one dedicated multiset-ordering filter on a seeded random
store and drives it through rounds of push -> bound changes -> propagate ->
pop, the access pattern of a search, at vector lengths no model reaches.
"""

from __future__ import annotations

import gc
import random
import time
from dataclasses import dataclass, field
from importlib import resources
from typing import Callable, Optional, Union

from msetcp import bench
from msetcp.engine import Branching, SearchTimeout, Solver
from msetcp.mset import MultisetOrdering, SortedMultisetOrdering
from msetcp.store import Inconsistent, Store

# Proven optima of rack_1..rack_6; the same under every encoding and symmetry.
RACK_OPTIMA = {1: 650, 2: 800, 3: 700, 4: 750, 5: 800, 6: 800}
# Keeps the entry near a second, so a run holds several passes and the
# medians ride out the host's speed swings.
SPORT_BUDGET = 1500


class BudgetReached(Exception):
    """A budgeted entry used up its choice points."""


@dataclass(frozen=True)
class ModelEntry:
    """One model run and the outcome it must reproduce.

    ``instance`` is the stem of a file in ``msetcp/data`` or an instance
    document.  ``expect`` is ``solved``, ``unsat`` or ``budget``; a budgeted
    entry must stop at exactly ``budget`` choice points.
    """

    instance: Union[str, dict]
    symmetry: str
    encoding: str = "algorithm"
    entailment: bool = False
    expect: str = "solved"
    optimum: Optional[int] = None
    budget: Optional[int] = None

    @property
    def name(self) -> str:
        inst = self.instance if isinstance(self.instance, str) else self.instance["problem"]
        name = f"{inst}/{self.symmetry}/{self.encoding}"
        if self.entailment:
            name += "+entail"
        if self.budget is not None:
            name += f"@{self.budget}"
        return name

    def config(self, timeout: Optional[float] = None) -> bench.RunConfig:
        return bench.RunConfig(
            symmetry=self.symmetry,
            encoding=self.encoding,
            entailment=self.entailment,
            timeout=timeout,
        )

    def source(self):
        if isinstance(self.instance, dict):
            return self.instance
        return str(resources.files("msetcp").joinpath(f"data/{self.instance}.json"))


@dataclass(frozen=True)
class FilterEntry:
    """One dedicated filter at vector length ``n``.

    ``wide`` selects d ~ n distinct values (narrow windows over a wide range)
    instead of d = 8.  ``variant`` is ``occ``, ``occ-entail`` or ``sorted``.
    """

    n: int
    wide: bool
    strict: bool
    variant: str
    rounds: int

    @property
    def name(self) -> str:
        d = "d~n" if self.wide else "d=8"
        rel = "lt" if self.strict else "le"
        return f"{self.variant}/n={self.n}/{d}/{rel}"

    @property
    def group(self) -> tuple:
        """Entries of one group see the same store and rounds, so they must
        end in the same domains."""
        return (self.n, self.wide, self.strict)


Entry = Union[ModelEntry, FilterEntry]


@dataclass
class EntryResult:
    name: str
    status: str
    choice_points: int
    fails: int
    setup_s: list[float]
    search_s: float
    objective: Optional[int] = None
    error: Optional[str] = None
    digest: int = 0
    failed_rounds: tuple = ()
    expected_failed_rounds: tuple = ()
    # host slowness during the search and before each set-up (see
    # calibrate.SpeedProbe)
    slowness: float = 1.0
    setup_slowness: list[float] = field(default_factory=list)

    @classmethod
    def failed(cls, name: str, error: str) -> "EntryResult":
        """An entry whose set-up raised: one zero-time sample, no search."""
        return cls(name, "error", 0, 0, [0.0], 0.0, error=error, setup_slowness=[1.0])


# -- workload definitions -------------------------------------------------------


def _mset_encodings() -> list[ModelEntry]:
    entries = [
        ModelEntry("sport_n7", "mset", enc)
        for enc in ("algorithm", "algorithm-sorted", "gcc", "sort", "arith")
    ]
    entries.append(ModelEntry("sport_n7", "mset", "algorithm", entailment=True))
    for i, opt in RACK_OPTIMA.items():
        for enc in ("algorithm", "algorithm-sorted", "arith"):
            entries.append(ModelEntry(f"rack_{i}", "mset", enc, optimum=opt))
    return entries


def filter_entries(n: int, rounds: int = 8) -> list[FilterEntry]:
    return [
        FilterEntry(n, wide, strict, variant, rounds)
        for wide in (False, True)
        for strict in (False, True)
        for variant in ("occ", "occ-entail", "sorted")
    ]


WORKLOADS: dict[str, list[Entry]] = {
    "sport-plain": [
        ModelEntry("sport_n7", "none", expect="budget", budget=SPORT_BUDGET),
        ModelEntry("sport_n7", "lex"),
    ],
    "mset-encodings": _mset_encodings(),
    "filter-scale": filter_entries(10_000, rounds=16),
}


# -- model entries ------------------------------------------------------------------


def instrumented(
    branching: Branching, solver: Solver, budget: Optional[int] = None, probe=None
) -> Branching:
    """The same branching, polling ``probe`` at every node and stopped once
    ``budget`` choice points are used.

    Each value is handed out only while the solver is below the budget, so
    the search stops at exactly ``budget`` choice points unless it ends first.
    """
    if budget is None and probe is None:
        return branching
    inner = branching.value_order
    poll = probe.poll if probe is not None else None

    def value_order(var, values):
        if poll is not None:
            poll()
        for val in inner(var, values):
            if budget is not None and solver.stats.choice_points >= budget:
                raise BudgetReached
            yield val

    return Branching(branching.order, value_order)


def set_up(entry: ModelEntry, timeout: Optional[float] = None):
    """Load, build, construct the solver and propagate the root."""
    cfg = entry.config(timeout)
    cfg.validate()
    instance = bench.load_instance(entry.source())
    built = bench.build(instance, cfg)
    solver = Solver(built.model)
    root_ok = solver.propagate_root()
    return cfg, built, solver, root_ok


def run_model_entry(
    entry: ModelEntry, setup_repeats: int = 1, timeout: Optional[float] = None, probe=None
) -> EntryResult:
    setup_s, setup_slowness = [], []
    try:
        for _ in range(setup_repeats):
            setup_slowness.append(probe.sample() if probe is not None else 1.0)
            start = time.perf_counter()
            cfg, built, solver, root_ok = set_up(entry, timeout)
            setup_s.append(time.perf_counter() - start)
    except Exception as exc:  # counted as a failed operation; the run goes on
        return EntryResult.failed(entry.name, f"set-up: {type(exc).__name__}: {exc}")
    model = built.model
    optimizing = model.objective is not None
    branching = instrumented(built.branching, solver, entry.budget, probe)
    status, objective, error = "solved", None, None
    probe_s, first = (probe.spent, len(probe.samples)) if probe is not None else (0.0, 0)
    start = time.perf_counter()
    try:
        # after a failed root a second propagate_root would see an empty
        # queue and report success, so a failed root is final
        if not root_ok:
            status = "unsat"
        else:
            sol, stats = solver.solve(
                branching,
                minimize=model.objective,
                timeout=cfg.timeout,
                first_only=not optimizing,
            )
            if sol is None:
                status = "unsat"
            elif optimizing:
                objective = stats.best_objective
    except SearchTimeout:
        status = "timeout"
    except BudgetReached:
        status = "budget"
    except Exception as exc:  # counted as a failed operation; the run goes on
        status = "error"
        error = f"{type(exc).__name__}: {exc}"
    search_s = time.perf_counter() - start
    slowness = 1.0
    if probe is not None:
        search_s -= probe.spent - probe_s
        slowness = probe.slowness(first)
    return EntryResult(
        entry.name,
        status,
        solver.stats.choice_points,
        solver.stats.fails,
        setup_s,
        search_s,
        objective,
        error,
        slowness=slowness,
        setup_slowness=setup_slowness,
    )


# -- filter entries -------------------------------------------------------------------

_TOP_X = 4  # X variables that can reach the top value; one more than the Y side has
_WIDTH = 2  # domain window width


@dataclass
class FilterInstance:
    """Domains of X and Y plus the bound changes of every round.

    The top value T is the maximum of ``_TOP_X - 1`` Y domains and lies in
    ``_TOP_X`` X domains; every other X_i = [a, a + w] is paired with a
    Y_i = [a - w, a], so the two bound vectors agree below the top.  Rounds
    change random paired bounds; every fourth round also raises the minimum
    of all top X variables to T, which must fail, and the round before it
    raises all but two of them, which makes the filter prune.
    """

    x_domains: list[tuple[int, int]]
    y_domains: list[tuple[int, int]]
    rounds: list[list[tuple[bool, int, int]]] = field(default_factory=list)

    @property
    def expected_failed_rounds(self) -> tuple:
        return tuple(r for r in range(len(self.rounds)) if r % 4 == 3)


def make_filter_instance(seed: int, n: int, wide: bool, rounds: int) -> FilterInstance:
    rng = random.Random(f"{seed}:{n}:{wide}")
    top = (n if wide else 8) - 1
    w = _WIDTH
    xd = [(top - w, top)] * _TOP_X
    yd = [(top - w, top)] * (_TOP_X - 1) + [(0, w)]
    for _ in range(n - _TOP_X):
        a = rng.randint(w, top - 1 - w)
        xd.append((a, a + w))
        yd.append((a - w, a))
    inst = FilterInstance(xd, yd)
    for r in range(rounds):
        changes = []
        for _ in range(8):
            i = rng.randrange(_TOP_X, n)
            step = rng.randint(1, w)
            if rng.random() < 0.5:
                changes.append((True, i, xd[i][0] + step))  # raise min(X_i)
            else:
                changes.append((False, i, yd[i][1] - step))  # lower max(Y_i)
        raised = {2: _TOP_X - 2, 3: _TOP_X}.get(r % 4, 0)
        changes.extend((True, i, top) for i in range(raised))
        inst.rounds.append(changes)
    return inst


def _new_filter(entry: FilterEntry, xs, ys):
    if entry.variant == "sorted":
        return SortedMultisetOrdering(xs, ys, strict=entry.strict)
    return MultisetOrdering(
        xs, ys, strict=entry.strict, entailment=entry.variant == "occ-entail"
    )


def _drain(store: Store) -> tuple:
    """Bounds of the variables changed since the last drain."""
    changed = sorted(var for var, _ in store.take_raw_events())
    return tuple((v, store.min(v), store.max(v)) for v in changed)


def run_filter_entry(
    entry: FilterEntry, inst: FilterInstance, setup_repeats: int = 1, probe=None
) -> EntryResult:
    setup_s, setup_slowness = [], []
    for _ in range(setup_repeats):
        store = Store()
        xs = [store.new_var(range(lo, hi + 1)) for lo, hi in inst.x_domains]
        ys = [store.new_var(range(lo, hi + 1)) for lo, hi in inst.y_domains]
        prop = _new_filter(entry, xs, ys)
        setup_slowness.append(probe.sample() if probe is not None else 1.0)
        start = time.perf_counter()
        try:
            prop.post(store)
        except Inconsistent:  # every instance is satisfiable at the root
            return EntryResult.failed(entry.name, "post failed")
        setup_s.append(time.perf_counter() - start)
    digest = hash(_drain(store))
    failed_rounds = []
    search_s = scaled_s = 0.0
    for r, changes in enumerate(inst.rounds):
        # rounds are few and long enough to sample the host before each one
        slow = probe.sample() if probe is not None else 1.0
        start = time.perf_counter()
        store.push()
        try:
            for is_x, i, bound in changes:
                if is_x:
                    store.set_min(xs[i], bound)
                else:
                    store.set_max(ys[i], bound)
            prop.propagate(store)
            failed = False
        except Inconsistent:
            failed = True
        took = time.perf_counter() - start
        if failed:
            failed_rounds.append(r)
        digest = hash((digest, failed, _drain(store)))
        start = time.perf_counter()
        store.pop()
        took += time.perf_counter() - start
        search_s += took
        scaled_s += took / slow
    error = None
    if isinstance(prop, SortedMultisetOrdering):
        in_sync = prop.rebuilt_sorted(store) == (prop.xmin_sorted, prop.ymax_sorted)
    else:
        counts = (prop.xmin_counts, prop.ymax_counts)
        if prop.track_entailment:
            counts += (prop.xmax_counts, prop.ymin_counts)
        in_sync = prop.rebuilt_counts(store) == counts
    if not in_sync:
        error = "incremental vectors differ from a rebuild after pop"
    return EntryResult(
        entry.name,
        "done",
        len(inst.rounds),
        len(failed_rounds),
        setup_s,
        search_s,
        error=error,
        digest=digest,
        failed_rounds=tuple(failed_rounds),
        expected_failed_rounds=inst.expected_failed_rounds,
        slowness=search_s / scaled_s if scaled_s else 1.0,
        setup_slowness=setup_slowness,
    )


# -- expected outcomes --------------------------------------------------------------------


def verdict(entry: Entry, result: EntryResult) -> Optional[str]:
    """Why ``result`` is a failed operation, or None when it is correct."""
    if result.error:
        return result.error
    if isinstance(entry, FilterEntry):
        if result.failed_rounds != result.expected_failed_rounds:
            return (
                f"failed rounds {list(result.failed_rounds)}, "
                f"expected {list(result.expected_failed_rounds)}"
            )
        return None
    if result.status != entry.expect:
        return f"status {result.status}, expected {entry.expect}"
    if entry.optimum is not None and result.objective != entry.optimum:
        return f"objective {result.objective}, expected {entry.optimum}"
    if entry.budget is not None and result.choice_points != entry.budget:
        return f"stopped at {result.choice_points} choice points, budget {entry.budget}"
    return None


def group_verdicts(entries: list[Entry], results: list[EntryResult]) -> list[Optional[str]]:
    """Per-entry verdicts; filters of one group must also end identically."""
    out = [verdict(e, r) for e, r in zip(entries, results)]
    digests: dict[tuple, set] = {}
    for e, r in zip(entries, results):
        if isinstance(e, FilterEntry):
            digests.setdefault(e.group, set()).add(r.digest)
    for k, (e, r) in enumerate(zip(entries, results)):
        if isinstance(e, FilterEntry) and len(digests[e.group]) > 1 and out[k] is None:
            out[k] = "filter variants disagree on the pruned domains"
    return out


# -- one pass over a workload ------------------------------------------------------------


def run_pass(
    entries: list[Entry],
    seed: int,
    setup_repeats: int = 1,
    timeout: Optional[Callable[[], float]] = None,
    instances: Optional[dict] = None,
    probe=None,
) -> list[EntryResult]:
    """Run every entry once.  ``timeout`` gives each model entry's search
    limit in seconds; ``instances`` caches generated filter instances across
    passes; ``probe`` is a :class:`calibrate.SpeedProbe` to poll."""
    instances = {} if instances is None else instances
    results = []
    for entry in entries:
        # every entry starts without the garbage of the one before
        gc.collect()
        if isinstance(entry, FilterEntry):
            key = (entry.n, entry.wide, entry.rounds)
            if key not in instances:
                instances[key] = make_filter_instance(seed, *key)
            results.append(run_filter_entry(entry, instances[key], setup_repeats, probe))
        else:
            limit = timeout() if timeout else None
            results.append(run_model_entry(entry, setup_repeats, limit, probe))
    return results
