"""Benchmark models and harness: party scheduling, rack configuration, sports.

Instances are JSON documents (see ``data/`` for shipped examples); a run is a
(config, instance) pair that builds the model, searches, and emits one stats
record.  The symmetry option decides which ordering constraints are posted and
the encoding option decides how multiset orderings among them are propagated:
the dedicated filter (occurrence or sorted variant), the counting
decomposition, the sortedness decomposition, or the weighted-power-sum
encoding.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import asdict, dataclass, field
from importlib import resources
from typing import Callable, NamedTuple, Optional, Sequence

from .constraints import (
    AllDifferent,
    ArithmeticMultiset,
    Cardinality,
    Conditional,
    HostCapacity,
    LessThan,
    LexOrdering,
    LinearSum,
    MeetOnce,
    SortednessLink,
    StatelessMultisetOrdering,
    TableConstraint,
    sum_eq,
)
from .engine import Branching, Model, SearchTimeout, Solver
from .mset import MultisetOrdering, SortedMultisetOrdering

ENCODINGS = ("algorithm", "algorithm-sorted", "gcc", "sort", "arith")
LABELLINGS = ("row-wise", "column-wise")


class SchemaError(Exception):
    """The instance document does not match the expected schema."""


@dataclass
class RunConfig:
    symmetry: str = "none"
    encoding: str = "algorithm"
    entailment: bool = False
    labelling: str = "row-wise"
    timeout: Optional[float] = None

    def validate(self) -> None:
        if not isinstance(self.entailment, bool):
            raise SchemaError(f"entailment must be a bool, not {self.entailment!r}")
        if self.timeout is not None and not (
            isinstance(self.timeout, float) or _is_int(self.timeout)
        ):
            raise SchemaError(f"timeout must be a number, not {self.timeout!r}")
        if self.encoding not in ENCODINGS:
            raise SchemaError(f"unknown encoding {self.encoding!r}")
        # NaN fails both comparisons
        if self.timeout is not None and not 0 < self.timeout < math.inf:
            raise SchemaError(f"timeout must be finite and positive, not {self.timeout}")


@dataclass
class RunRecord:
    problem: str
    config: dict
    status: str  # solved | unsat | timeout
    fails: int
    choice_points: int
    wall_time_s: float
    solutions: int
    objective: Optional[int] = None

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @staticmethod
    def from_json(line: str) -> "RunRecord":
        return RunRecord(**json.loads(line))

    def text_line(self) -> str:
        obj = "" if self.objective is None else f" objective={self.objective}"
        return (
            f"{self.problem} [{self.config['symmetry']}/{self.config['encoding']}] "
            f"{self.status}: fails={self.fails} choice_points={self.choice_points} "
            f"time={self.wall_time_s:.3f}s{obj}"
        )


# -- instance loading ------------------------------------------------------------


def _is_int(val) -> bool:
    """Whether ``val`` is an integer; JSON's ``true``/``false`` load as bools,
    which Python counts as ints, so they are excluded."""
    return isinstance(val, int) and not isinstance(val, bool)


def _require(doc: dict, key: str, kind) -> object:
    if key not in doc:
        raise SchemaError(f"missing field {key!r}")
    val = doc[key]
    if not isinstance(val, kind) or (kind is int and not _is_int(val)):
        raise SchemaError(f"field {key!r} has wrong type")
    return val


def _require_ints(entry: dict, keys: Sequence[str], what: str) -> None:
    """Reject an entry whose numeric ``keys`` are not all integers."""
    wrong = [k for k in keys if not _is_int(entry[k])]
    if wrong:
        raise SchemaError(f"{what} fields {wrong} must be integers")


def load_boats() -> list[dict]:
    """The 42-boat capacity/crew table bundled with the package."""
    text = resources.files("msetcp").joinpath("data/boats_csplib.json").read_text()
    return json.loads(text)["boats"]


def load_instance(path_or_doc) -> dict:
    """Load and validate an instance document; returns a normalized dict.

    Validation failures raise SchemaError; suspicious-but-legal data only
    warns on stderr (it is never silently adjusted).
    """
    if isinstance(path_or_doc, dict):
        doc = dict(path_or_doc)
    else:
        try:
            with open(path_or_doc) as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise SchemaError(f"cannot read instance: {exc}") from exc
        if not isinstance(doc, dict):
            raise SchemaError("instance document must be a JSON object")
    problem = _require(doc, "problem", str)
    if problem not in PROBLEMS:
        raise SchemaError(f"unknown problem {problem!r}")
    PROBLEMS[problem].normalize(doc)
    return doc


def _warn(msg: str) -> None:
    print(f"warning: {msg}", file=sys.stderr)


def _normalize_party(doc: dict) -> None:
    periods = _require(doc, "periods", int)
    if periods <= 0:
        raise SchemaError("periods must be positive")
    if "csplib_hosts" in doc:
        ids = _require(doc, "csplib_hosts", list)
        if not all(map(_is_int, ids)):
            raise SchemaError("csplib_hosts must list integer boat ids")
        boats = {b["id"]: b for b in load_boats()}
        unknown = [i for i in ids if i not in boats]
        if unknown:
            raise SchemaError(f"unknown boat ids {unknown}")
        repeated = sorted({i for i in ids if ids.count(i) > 1})
        if repeated:
            raise SchemaError(f"repeated boat ids {repeated} in csplib_hosts")
        doc["hosts"] = [
            {"capacity": boats[i]["capacity"], "crew": boats[i]["crew"]} for i in ids
        ]
        doc["guests"] = [
            {"crew": b["crew"]} for i, b in sorted(boats.items()) if i not in set(ids)
        ]
    hosts = _require(doc, "hosts", list)
    guests = _require(doc, "guests", list)
    if not hosts or not guests:
        raise SchemaError("hosts and guests must be non-empty")
    for h in hosts:
        if not isinstance(h, dict) or "capacity" not in h or "crew" not in h:
            raise SchemaError("host entries need capacity and crew")
        _require_ints(h, ("capacity", "crew"), "host")
        if h["crew"] < 0 or h["capacity"] < h["crew"]:
            raise SchemaError("host crew must be non-negative and within its capacity")
    for g in guests:
        if not isinstance(g, dict) or "crew" not in g:
            raise SchemaError("guest entries need a crew")
        _require_ints(g, ("crew",), "guest")
        if g["crew"] <= 0:
            raise SchemaError("guest entries need a positive crew")
    spare = sum(h["capacity"] - h["crew"] for h in hosts)
    demand = sum(g["crew"] for g in guests)
    if spare < demand:
        _warn(f"total spare capacity {spare} below total guest size {demand}")


def _normalize_rack(doc: dict) -> None:
    models = _require(doc, "rack_models", list)
    cards = _require(doc, "card_types", list)
    racks = _require(doc, "racks", int)
    if racks <= 0:
        raise SchemaError("racks must be positive")
    if not models or not cards:
        raise SchemaError("rack_models and card_types must be non-empty")
    for m in models:
        if not isinstance(m, dict) or not {"power", "connectors", "price"} <= set(m):
            raise SchemaError("rack model entries need power, connectors, price")
        _require_ints(m, ("power", "connectors", "price"), "rack model")
        if min(m["power"], m["connectors"], m["price"]) < 0:
            raise SchemaError("rack model fields must be non-negative")
    for c in cards:
        if not isinstance(c, dict) or not {"power", "demand"} <= set(c):
            raise SchemaError("card type entries need power and demand")
        _require_ints(c, ("power", "demand"), "card type")
        if c["power"] < 0 or c["demand"] < 0:
            raise SchemaError("card power/demand must be non-negative")
    total_conn = racks * max(m["connectors"] for m in models)
    total_demand = sum(c["demand"] for c in cards)
    if total_conn < total_demand:
        _warn(f"total connectors {total_conn} cannot meet demand {total_demand}")


def _normalize_sport(doc: dict) -> None:
    teams = _require(doc, "teams", int)
    if teams < 3:
        raise SchemaError("sport scheduling needs at least 3 teams")


# -- multiset ordering encodings ---------------------------------------------------


def post_mset_ordering(
    model: Model,
    xs: Sequence[int],
    ys: Sequence[int],
    strict: bool,
    cfg: RunConfig,
) -> None:
    """Post one multiset ordering constraint under the configured encoding."""
    enc = cfg.encoding
    if enc == "algorithm":
        model.post(MultisetOrdering(xs, ys, strict=strict, entailment=cfg.entailment))
    elif enc == "algorithm-sorted":
        model.post(SortedMultisetOrdering(xs, ys, strict=strict))
    elif enc == "arith":
        model.post(ArithmeticMultiset(xs, ys, base=max(2, len(xs)), strict=strict))
    elif enc == "gcc":
        values = sorted(
            {v for w in list(xs) + list(ys) for v in model.store.values(w)},
            reverse=True,
        )
        ox = [model.new_var(range(len(xs) + 1)) for _ in values]
        oy = [model.new_var(range(len(ys) + 1)) for _ in values]
        model.post(Cardinality(xs, values, ox))
        model.post(Cardinality(ys, values, oy))
        model.post(LexOrdering(ox, oy, strict=strict))
    elif enc == "sort":
        union_x = {v for w in xs for v in model.store.values(w)}
        union_y = {v for w in ys for v in model.store.values(w)}
        sxs = [model.new_var(union_x) for _ in xs]
        sys_ = [model.new_var(union_y) for _ in ys]
        model.post(SortednessLink(xs, sxs))
        model.post(SortednessLink(ys, sys_))
        model.post(LexOrdering(sxs, sys_, strict=strict))
    else:
        raise SchemaError(f"unknown encoding {enc!r}")


def post_conditional_mset(
    model: Model,
    guard_a: int,
    guard_b: int,
    xs: Sequence[int],
    ys: Sequence[int],
    cfg: RunConfig,
) -> None:
    """Conditional multiset ordering: the body is one propagator, attached
    when the solver is built, so the dedicated filters and the arithmetic
    encoding qualify and the decompositions, which need several, are
    rejected."""
    if cfg.encoding in ("algorithm", "algorithm-sorted"):
        body = StatelessMultisetOrdering(xs, ys)
    elif cfg.encoding == "arith":
        body = ArithmeticMultiset(xs, ys, base=max(2, len(xs)))
    else:
        raise SchemaError(
            f"encoding {cfg.encoding!r} cannot be posted conditionally"
        )
    model.post(Conditional(guard_a, guard_b, body))


def _post_ordering(model, xs, ys, kind: str, cfg: RunConfig) -> int:
    """kind: msetle | msetge | lexlt | lexgt.  The number of multiset
    orderings posted: 1 for an mset kind, else 0."""
    if kind == "msetle":
        post_mset_ordering(model, xs, ys, False, cfg)
    elif kind == "msetge":
        post_mset_ordering(model, ys, xs, False, cfg)
    elif kind == "lexlt":
        model.post(LexOrdering(xs, ys, strict=True))
    elif kind == "lexgt":
        model.post(LexOrdering(ys, xs, strict=True))
    else:
        raise SchemaError(f"unknown ordering kind {kind!r}")
    return int(kind.startswith("mset"))


_PARTY_SYMMETRY_MAP = {
    "none": (None, None),
    "lex": ("lexlt", "lexlt"),
    "mset": ("msetle", "msetle"),
    "mset+msetge": ("msetle", "msetge"),
    "mset+lex": ("msetle", "lexlt"),
    "mset+lexge": ("msetle", "lexgt"),
    "lex+mset": ("lexlt", "msetle"),
    "lex+msetge": ("lexlt", "msetge"),
    "mset-rows": ("msetle", None),
}


# -- progressive party -------------------------------------------------------------


@dataclass
class BuiltModel:
    model: Model
    branching: Branching
    meta: dict = field(default_factory=dict)
    problem: str = ""  # the instance's, set by build


def build_progressive_party(instance: dict, cfg: RunConfig) -> BuiltModel:
    """Host assignment matrix with meet-once, revisit, and capacity constraints.

    ``H[i][j]`` is the host of guest ``j`` in period ``i``, and every relation
    is posted once over ``H`` alone: one :class:`HostCapacity` per period, one
    :class:`AllDifferent` per guest (no revisits) and one :class:`MeetOnce`
    per guest pair.

    Guests are ordered by decreasing crew size; a guest's "row" collects its
    host over all periods, a period's "column" collects all guests of that
    period.  Multiset/lex row orderings are posted only between adjacent
    guests of equal crew size (partial row symmetry); column orderings
    between all adjacent periods.
    """
    hosts = instance["hosts"]
    p = instance["periods"]
    guests = sorted(instance["guests"], key=lambda g: -g["crew"])
    h, g = len(hosts), len(guests)
    spare = [b["capacity"] - b["crew"] for b in hosts]
    crew = [b["crew"] for b in guests]

    m = Model()
    H = [[m.new_var(range(h)) for _ in range(g)] for _ in range(p)]
    # (3) spare capacity per period and host
    for i in range(p):
        m.post(HostCapacity(H[i], crew, spare))
    # (2) no revisits
    for j in range(g):
        m.post(AllDifferent([H[i][j] for i in range(p)]))
    # (1) two guests meet at most once
    for j1 in range(g):
        for j2 in range(j1 + 1, g):
            m.post(MeetOnce([H[i][j1] for i in range(p)], [H[i][j2] for i in range(p)]))

    row_kind, col_kind = _PARTY_SYMMETRY_MAP[cfg.symmetry]
    msets = 0  # multiset orderings posted
    # with a single period, equal-crew guests may legitimately take identical
    # rows (they meet just once), so strict orderings would cut solutions
    if p < 2 and row_kind in ("lexlt", "lexgt"):
        raise SchemaError("strict row orderings need at least two periods")
    if row_kind:
        for j in range(g - 1):
            if crew[j] == crew[j + 1]:
                row_a = [H[i][j] for i in range(p)]
                row_b = [H[i][j + 1] for i in range(p)]
                msets += _post_ordering(m, row_a, row_b, row_kind, cfg)
    if col_kind:
        for i in range(p - 1):
            col_a = H[i]
            col_b = H[i + 1]
            msets += _post_ordering(m, col_a, col_b, col_kind, cfg)

    if cfg.labelling == "row-wise":
        order = [H[i][j] for j in range(g) for i in range(p)]
    else:
        order = [H[i][j] for i in range(p) for j in range(g)]
    by_spare = Branching.by_key(order, lambda var, val: -spare[val])
    return BuiltModel(m, by_spare, {"hosts": h, "guests": g, "H": H, "mset_orderings": msets})


# -- rack configuration --------------------------------------------------------------


def build_rack(instance: dict, cfg: RunConfig) -> BuiltModel:
    """Rack model assignment plus per-rack card counts, minimizing total price.

    A zero-power/zero-connector/zero-price dummy model marks unused racks.
    One table per rack, all over one relation, ties its model to its
    connectors, power and price.
    Same-model racks are interchangeable, so adjacent racks get a conditional
    multiset ordering on their card-count columns when symmetry is enabled.
    """
    models = list(instance["rack_models"]) + [{"power": 0, "connectors": 0, "price": 0}]
    cards = instance["card_types"]
    r = instance["racks"]
    t = len(cards)
    nm = len(models)
    max_conn = max(mo["connectors"] for mo in models)

    m = Model()
    R = [m.new_var(range(nm)) for _ in range(r)]
    C = [[m.new_var(range(max_conn + 1)) for _ in range(r)] for _ in range(t)]
    conn = [m.new_var({mo["connectors"] for mo in models}) for _ in range(r)]
    power = [m.new_var({mo["power"] for mo in models}) for _ in range(r)]
    price = [m.new_var({mo["price"] for mo in models}) for _ in range(r)]
    rows = [(k, mo["connectors"], mo["power"], mo["price"]) for k, mo in enumerate(models)]
    specs = TableConstraint([R[0], conn[0], power[0], price[0]], rows)
    for j in range(r):
        m.post(specs.on([R[j], conn[j], power[j], price[j]]))
        # (1) connector capacity
        m.post(LinearSum([1] * t + [-1], [C[i][j] for i in range(t)] + [conn[j]], "<=", 0))
        # (2) power capacity
        m.post(
            LinearSum(
                [c["power"] for c in cards] + [-1],
                [C[i][j] for i in range(t)] + [power[j]],
                "<=",
                0,
            )
        )
    # (3) demands
    for i in range(t):
        m.post(sum_eq([C[i][j] for j in range(r)], cards[i]["demand"]))
    # redundant aggregates implied by (1)-(3): chosen racks must jointly cover
    # the total connector and power demand; prunes hopeless model choices
    # before any card packing starts
    total_cards = sum(c["demand"] for c in cards)
    total_power = sum(c["power"] * c["demand"] for c in cards)
    m.post(LinearSum([-1] * r, conn, "<=", -total_cards))
    m.post(LinearSum([-1] * r, power, "<=", -total_power))
    # objective
    obj = m.new_var(range(sum(mo["price"] for mo in models) * r + 1))
    m.post(LinearSum([1] * r + [-1], price + [obj], "==", 0))
    m.minimize(obj)

    pairs = range(r - 1) if cfg.symmetry == "mset" else range(0)
    for j in pairs:
        post_conditional_mset(
            m, R[j], R[j + 1], [C[i][j] for i in range(t)], [C[i][j + 1] for i in range(t)], cfg
        )

    # all rack models first, so the cost bound and capacity aggregates prune
    # whole configurations before any card packing is attempted
    order = list(R)
    for j in range(r):
        order.extend(C[i][j] for i in range(t))
    card_vars = {v for row in C for v in row}
    rack_vars = set(R)
    price_of = [mo["price"] for mo in models]

    # rack models cheapest-first (so the cost bound prunes on prefixes);
    # card counts packed greedily (largest count first)
    def value_order(var, vals):
        if var in rack_vars:
            return sorted(vals, key=lambda k: (price_of[k], k))
        if var in card_vars:
            return vals[::-1]
        return vals

    meta = {"R": R, "C": C, "objective": obj, "mset_orderings": len(pairs)}
    return BuiltModel(m, Branching(order, value_order), meta)


# -- sport scheduling ----------------------------------------------------------------


def game_code(home: int, away: int, n: int) -> int:
    return (home - 1) * n + away


def build_sport(instance: dict, cfg: RunConfig) -> BuiltModel:
    """Round-robin schedule; odd team counts play n weeks of (n-1)/2 periods.

    Each period must host every team exactly twice across the season and each
    week column is (a sub-permutation of) the teams.  With odd n the week
    columns are pairwise distinct as multisets, so a strict multiset ordering
    chain over adjacent columns breaks week symmetry; with even n the columns
    are equal as multisets and only lex orderings apply.
    """
    n = instance["teams"]
    odd = n % 2 == 1
    if cfg.symmetry == "mset" and not odd:
        raise SchemaError("multiset column ordering applies to odd team counts only")
    periods = (n - 1) // 2 if odd else n // 2
    weeks = n  # odd: n real weeks; even: n-1 real weeks plus a dummy column
    real_weeks = n if odd else n - 1
    teams = range(1, n + 1)
    triples = [
        (hh, aa, game_code(hh, aa, n)) for hh in teams for aa in teams if hh < aa
    ]
    codes = {tr[2] for tr in triples}

    m = Model()
    T = [
        [[m.new_var(teams) for _ in range(2)] for _ in range(weeks)]
        for _ in range(periods)
    ]
    G = [[m.new_var(codes) for _ in range(real_weeks)] for _ in range(periods)]

    # every week column: no team twice
    for w in range(weeks):
        m.post(AllDifferent([T[j][w][s] for j in range(periods) for s in range(2)]))
    # all games different
    m.post(AllDifferent([G[j][w] for j in range(periods) for w in range(real_weeks)]))
    # every period row: each team exactly twice
    occ_two = [m.new_var({2}) for _ in teams]
    for j in range(periods):
        row = [T[j][w][s] for w in range(weeks) for s in range(2)]
        m.post(Cardinality(row, sorted(teams, reverse=True), occ_two))
    # channel games, order slots: one relation, compiled once
    game = TableConstraint([T[0][0][0], T[0][0][1], G[0][0]], triples)
    for j in range(periods):
        for w in range(real_weeks):
            m.post(game.on([T[j][w][0], T[j][w][1], G[j][w]]))
    # a real week's table triples already order its slots; only the dummy
    # week (even n) needs the explicit order
    for j in range(periods):
        for w in range(real_weeks, weeks):
            m.post(LessThan(T[j][w][0], T[j][w][1]))

    # only the real weeks are interchangeable (the dummy week, if any, is
    # pinned by the period counts), so ordering chains stop before it
    cols = [[T[j][w][s] for j in range(periods) for s in range(2)] for w in range(real_weeks)]
    msets = 0  # multiset orderings posted
    for col_a, col_b in zip(cols, cols[1:]):
        if cfg.symmetry == "mset":
            post_mset_ordering(m, col_a, col_b, True, cfg)
            msets += 1
        elif cfg.symmetry == "lex":
            m.post(LexOrdering(col_a, col_b, strict=True))

    order = []
    for w in range(weeks):
        first, second = (0, 1) if w % 2 == 0 else (1, 0)
        order.extend(T[j][w][first] for j in range(periods))
        order.extend(T[j][w][second] for j in range(periods))
    meta = {"T": T, "G": G, "periods": periods, "mset_orderings": msets}
    return BuiltModel(m, Branching(order), meta)


# -- harness ---------------------------------------------------------------------------


class Problem(NamedTuple):
    """One problem's instance check and builder, and what its builder accepts."""

    normalize: Callable[[dict], None]
    build: Callable[[dict, RunConfig], BuiltModel]
    symmetries: tuple[str, ...]
    labellings: tuple[str, ...]


PROBLEMS = {
    "progressive_party": Problem(
        _normalize_party, build_progressive_party, tuple(_PARTY_SYMMETRY_MAP), LABELLINGS
    ),
    "rack": Problem(_normalize_rack, build_rack, ("none", "mset"), ("row-wise",)),
    "sport": Problem(_normalize_sport, build_sport, ("none", "mset", "lex"), ("row-wise",)),
}


def build(instance: dict, cfg: RunConfig) -> BuiltModel:
    """The model of ``instance`` under ``cfg``, or the run's refusal, made
    before any search: a config that fails :meth:`RunConfig.validate`, a
    symmetry or labelling that the problem's entry in :data:`PROBLEMS` does
    not list, an encoding other than the default where no multiset ordering
    is posted (the builders count them in ``meta["mset_orderings"]``), or
    entailment where no :class:`MultisetOrdering`, the one filter that tracks
    it, is posted."""
    cfg.validate()
    problem = instance["problem"]
    spec = PROBLEMS[problem]
    # membership in a tuple refuses a value of any type, an unhashable one too
    for name, listed in (("symmetry", spec.symmetries), ("labelling", spec.labellings)):
        value = getattr(cfg, name)
        if value not in listed:
            raise SchemaError(f"{problem} takes {name} {', '.join(listed)}, not {value!r}")
    built = spec.build(instance, cfg)
    built.problem = problem
    # the default encoding passes, as a config cannot tell it from a user's
    # choice
    if cfg.encoding != "algorithm" and not built.meta["mset_orderings"]:
        raise SchemaError(
            f"symmetry {cfg.symmetry!r} posts no multiset ordering on this instance, "
            "so --encoding would do nothing"
        )
    props = built.model.propagators
    if cfg.entailment and not any(isinstance(p, MultisetOrdering) for p in props):
        raise SchemaError("no posted filter tracks entailment, so --entailment would do nothing")
    return built


def run(cfg: RunConfig, instance: dict) -> RunRecord:
    """Build, solve, and report one benchmark run.

    Wall time covers the search only (model build excluded).  The stats
    record is deterministic for a given (config, instance) pair.
    """
    return search(build(instance, cfg), cfg)


def search(built: BuiltModel, cfg: RunConfig) -> RunRecord:
    """Solve ``built``, the model :func:`build` made under ``cfg``, and report it."""
    model, branching = built.model, built.branching
    optimizing = model.objective is not None
    status = "solved"
    objective = None
    solver = Solver(model)
    try:
        sol, stats = solver.solve(branching, minimize=model.objective, timeout=cfg.timeout)
        if sol is None:
            status = "unsat"
        elif optimizing:
            objective = stats.best_objective
    except SearchTimeout:
        status = "timeout"
        stats = solver.stats
    return RunRecord(
        problem=built.problem,
        config=asdict(cfg),
        status=status,
        fails=stats.fails,
        choice_points=stats.choice_points,
        wall_time_s=round(stats.wall_time, 6),
        solutions=stats.solutions,
        objective=objective,
    )
