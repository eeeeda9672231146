"""Spans around the public calls into each msetcp layer, for the traced run.

While installed, a :class:`Tracer` replaces the layer entry points on their
classes and modules with wrappers that open a span (name, start, end,
parent), so nothing inside ``src/`` changes.  Every span is folded into
per-name totals as it closes: calls, self time (duration minus the time of
its child spans), total time and, where it applies, how many calls were
effective.  The first ``SPAN_CAP`` spans are also kept as records.

Layers, by module: ``bench`` (load_instance, build), ``engine`` (Solver set-up,
fixpoint, propagate_root, solve), ``store`` (domain mutations, push/pop, event
drain, bound-watcher callbacks), ``mset`` (the two dedicated filters) and
``constraints`` (every other propagator class).  ``order`` is reached only
through ``check`` and is counted in ``engine.verify_s``.
"""

from __future__ import annotations

import time
from typing import Callable

from msetcp import bench, constraints, mset
from msetcp.engine import Solver
from msetcp.store import Inconsistent, Store

MSET_CLASSES = (mset.MultisetOrdering, mset.SortedMultisetOrdering)
CONSTRAINT_CLASSES = (
    constraints.LexOrdering,
    constraints.Cardinality,
    constraints.SortednessLink,
    constraints.ArithmeticMultiset,
    constraints.AllDifferent,
    constraints.TableConstraint,
    constraints.LinearSum,
    constraints.LessThan,
    constraints.ReifiedEquals,
    constraints.Conditional,
    constraints.StatelessMultisetOrdering,
)
MUTATORS = ("set_min", "set_max", "assign", "remove", "retain")
SPAN_CAP = 100_000

# per-name totals: [calls, self_s, total_s, effective]
CALLS, SELF, TOTAL, EFFECTIVE = range(4)


def _layer(cls) -> str:
    return "mset" if cls in MSET_CLASSES else "constraints"


def metric_names() -> list[str]:
    """Every per-layer metric the traced run reports, in a fixed order."""
    names = [
        "engine.fixpoint.self_s",
        "engine.solve.self_s",
        "engine.propagate.calls",
        "engine.propagate.effective_ratio",
        "engine.depth_max",
        "engine.solver_init_s",
        "engine.root_s",
        "engine.verify_s",
        "bench.build_s",
        "bench.load_s",
        "store.mutate.calls",
        "store.mutate.changed_ratio",
        "store.mutate.self_s",
        "store.push.calls",
        "store.pop.self_s",
        "store.events.self_s",
        "store.watch.calls",
    ]
    for cls in MSET_CLASSES:
        names += [
            f"mset.{cls.__name__}.{m}"
            for m in ("calls", "self_s", "effective_ratio", "post_s", "watch_s")
        ]
    for cls in CONSTRAINT_CLASSES:
        names += [
            f"constraints.{cls.__name__}.{m}" for m in ("calls", "self_s", "effective_ratio")
        ]
    names.append("trace.overhead_ratio")
    return names


def metric_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


class Tracer:
    """Span recorder; use as a context manager around the traced work."""

    def __init__(self) -> None:
        self.totals: dict[str, list] = {}
        self.spans: list[tuple] = []  # the first SPAN_CAP: (id, name, start, end, parent id)
        self.span_count = 0
        self.changes = 0  # store mutations that changed a domain
        self.depth_max = 0
        self.verify_s = 0.0  # time of the check calls not made by another check
        self._stack: list[list] = []  # open spans: [child_s, id, name]
        self._patched: list[tuple] = []
        self._watch_wrappers: dict[tuple, Callable] = {}

    # -- spans ------------------------------------------------------------------

    def _total(self, name: str) -> list:
        return self.totals.setdefault(name, [0, 0.0, 0.0, 0])

    def wrap(self, name: str, fn: Callable, kind: str = "plain") -> Callable:
        """``fn`` inside a span.  ``kind`` says what counts as effective:
        ``mutate`` a True result, ``prop`` a domain change or a failure;
        ``check`` spans outside another check add to ``verify_s``."""
        tot = self._total(name)
        engine_tot = self._total("engine.propagate")
        stack, spans, clock = self._stack, self.spans, time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            sid = tracer.span_count
            tracer.span_count = sid + 1
            frame = [0.0, sid, name]
            stack.append(frame)
            changes = tracer.changes
            effective = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if kind == "mutate":
                    if result:
                        tracer.changes += 1
                        effective = True
                elif kind == "prop":
                    effective = tracer.changes != changes
                elif kind == "push":
                    tracer.depth_max = max(tracer.depth_max, args[0].depth())
                return result
            except Inconsistent:
                effective = kind == "prop"
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                tot[CALLS] += 1
                tot[SELF] += duration - frame[0]
                tot[TOTAL] += duration
                tot[EFFECTIVE] += effective
                if kind == "check" and (parent is None or not parent[2].endswith(".check")):
                    tracer.verify_s += duration
                if parent is not None:
                    parent[0] += duration
                    if kind == "prop" and parent[2] == "engine.fixpoint":
                        engine_tot[CALLS] += 1
                        engine_tot[EFFECTIVE] += effective
                if len(spans) < SPAN_CAP:
                    spans.append((sid, name, start, end, None if parent is None else parent[1]))

        return wrapper

    def _watch_name(self, cb) -> str:
        owner = getattr(cb, "__self__", None)
        cls = type(owner) if owner is not None else None
        if cls in MSET_CLASSES or cls in CONSTRAINT_CLASSES:
            return f"watch.{_layer(cls)}.{cls.__name__}"
        return "watch.other"

    # -- installing the wrappers --------------------------------------------------

    def _patch(self, owner, attr: str, name: str, kind: str = "plain") -> None:
        had_own = attr in vars(owner)
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original, had_own))
        setattr(owner, attr, self.wrap(name, original, kind))

    def __enter__(self) -> "Tracer":
        for attr in MUTATORS:
            self._patch(Store, attr, f"store.{attr}", "mutate")
        self._patch(Store, "push", "store.push", "push")
        self._patch(Store, "pop", "store.pop")
        self._patch(Store, "take_raw_events", "store.events")
        watch_bounds = Store.watch_bounds
        wrappers = self._watch_wrappers

        def traced_watch(store, var, cb):
            owner = getattr(cb, "__self__", None)
            key = (id(owner), getattr(cb, "__func__", cb))
            wrapped = wrappers.get(key)
            if wrapped is None:
                wrapped = wrappers[key] = self.wrap(self._watch_name(cb), cb)
            return watch_bounds(store, var, wrapped)

        self._patched.append((Store, "watch_bounds", watch_bounds, True))
        Store.watch_bounds = traced_watch
        self._patch(Solver, "__init__", "engine.solver_init")
        self._patch(Solver, "fixpoint", "engine.fixpoint")
        self._patch(Solver, "propagate_root", "engine.root")
        self._patch(Solver, "solve", "engine.solve")
        for cls in MSET_CLASSES + CONSTRAINT_CLASSES:
            prefix = f"{_layer(cls)}.{cls.__name__}"
            self._patch(cls, "post", f"{prefix}.post", "prop")
            self._patch(cls, "propagate", f"{prefix}.propagate", "prop")
            self._patch(cls, "check", f"{prefix}.check", "check")
        self._patch(bench, "load_instance", "bench.load")
        self._patch(bench, "build", "bench.build")
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original, had_own in reversed(self._patched):
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patched.clear()

    # -- per-layer metrics ----------------------------------------------------------

    def self_time_sum(self) -> float:
        return sum(t[SELF] for t in self.totals.values())

    def metrics(self, overhead_ratio: float) -> dict[str, float]:
        """Every name of :func:`metric_names`, zero where a layer was unused."""
        tot = self.totals
        empty = [0, 0.0, 0.0, 0]

        def get(name: str) -> list:
            return tot.get(name, empty)

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        def summed(names, field: int) -> float:
            return sum(get(n)[field] for n in names)

        mutators = [f"store.{m}" for m in MUTATORS]
        watches = [n for n in tot if n.startswith("watch.")]
        out = {
            "engine.fixpoint.self_s": get("engine.fixpoint")[SELF],
            "engine.solve.self_s": get("engine.solve")[SELF],
            "engine.propagate.calls": get("engine.propagate")[CALLS],
            "engine.propagate.effective_ratio": ratio(
                get("engine.propagate")[EFFECTIVE], get("engine.propagate")[CALLS]
            ),
            "engine.depth_max": self.depth_max,
            "engine.solver_init_s": get("engine.solver_init")[TOTAL],
            "engine.root_s": get("engine.root")[TOTAL],
            "engine.verify_s": self.verify_s,
            "bench.build_s": get("bench.build")[TOTAL],
            "bench.load_s": get("bench.load")[TOTAL],
            "store.mutate.calls": summed(mutators, CALLS),
            "store.mutate.changed_ratio": ratio(
                summed(mutators, EFFECTIVE), summed(mutators, CALLS)
            ),
            "store.mutate.self_s": summed(mutators, SELF),
            "store.push.calls": get("store.push")[CALLS],
            "store.pop.self_s": get("store.pop")[SELF],
            "store.events.self_s": get("store.events")[SELF],
            "store.watch.calls": summed(watches, CALLS),
        }
        for cls in MSET_CLASSES + CONSTRAINT_CLASSES:
            prefix = f"{_layer(cls)}.{cls.__name__}"
            prop, post = get(f"{prefix}.propagate"), get(f"{prefix}.post")
            out[f"{prefix}.calls"] = prop[CALLS]
            out[f"{prefix}.self_s"] = prop[SELF] + post[SELF]
            out[f"{prefix}.effective_ratio"] = ratio(prop[EFFECTIVE], prop[CALLS])
            if cls in MSET_CLASSES:
                out[f"{prefix}.post_s"] = post[TOTAL]
                out[f"{prefix}.watch_s"] = get(f"watch.{prefix}")[TOTAL]
        out["trace.overhead_ratio"] = overhead_ratio
        return {name: out[name] for name in metric_names()}
