"""Per-layer spans around `cascadelab`'s public functions, from outside.

`Tracer.install()` replaces each function in `TARGETS` with a wrapper under
every name by which a `cascadelab` module reaches it (`percolate` is bound
in `percolation`, `cli` and `attack`, and in the package itself), and
`uninstall()` puts the originals back. A wrapper records one span per call:
name, thread, start, end, the enclosing span on the same thread and an
optional count. Spans stay in memory until the caller writes them out.
Names missing from the program are skipped, so the tracer keeps working
when a module is reorganized; their metrics then read 0.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path


def _edges_of_graph(args, kwargs, result):
    return result[1].edge_count


def _retained(args, kwargs, result):
    return result.retained_count


def _atoms(args, kwargs, result):
    return result.values.size


def _push_through_ops(args, kwargs, result):
    """Input atoms times the width of the discretized noise kernel."""
    dist = args[0] if args else kwargs["dist"]
    spec = args[1] if len(args) > 1 else kwargs["spec"]
    resolution = args[2] if len(args) > 2 else kwargs.get("resolution", 1.0)
    width = 2 * math.ceil(12.0 * float(spec.scale) / float(resolution)) + 1
    return dist.values.size * width


# (layer, module, attribute, counter); per-trial scalar helpers such as
# child_seed and classify_giant_status are left bare so that the tracing
# cost does not land inside the trial loops it measures
TARGETS = [
    ("cli", "cascadelab.cli", "build_graph", _edges_of_graph),
    ("cli", "cascadelab.cli", "write_csv", None),
    ("graph", "cascadelab.graph", "generate_er", None),
    ("graph", "cascadelab.graph", "chung_lu_weights", None),
    ("graph", "cascadelab.graph", "generate_chung_lu", None),
    ("graph", "cascadelab.graph", "load_edge_list", None),
    ("graph", "cascadelab.graph", "dump_edge_list", None),
    ("seeding", "cascadelab.seeding", "rng_from_seed", None),
    ("percolation", "cascadelab.percolation", "percolate", _retained),
    ("percolation", "cascadelab.percolation", "connected_components", None),
    ("percolation", "cascadelab.percolation", "run_cascade", None),
    ("percolation", "cascadelab.percolation", "sample_seeds", None),
    ("percolation", "cascadelab.percolation", "estimate_giant_membership", None),
    ("percolation", "cascadelab.percolation", "conditional_count_distributions", None),
    ("percolation", "cascadelab.percolation", "conditional_giant_distributions", None),
    ("distributions", "cascadelab.distributions",
     "EmpiricalDistribution.from_samples", _atoms),
    ("privacy", "cascadelab.privacy", "tvd", None),
    ("privacy", "cascadelab.privacy", "wasserstein_infinity", None),
    ("privacy", "cascadelab.privacy", "laplace_perturb", None),
    ("privacy", "cascadelab.privacy", "randomized_response_estimate", None),
    ("privacy", "cascadelab.privacy", "wasserstein_mechanism_scale", None),
    ("privacy", "cascadelab.privacy", "hypothesis_test_error", None),
    ("privacy", "cascadelab.privacy", "push_through_mechanism", _push_through_ops),
    ("attack", "cascadelab.attack", "infer_nodes", None),
    ("attack", "cascadelab.attack", "evaluate_attack", None),
]

ESTIMATORS = (
    "percolation.estimate_giant_membership",
    "percolation.conditional_count_distributions",
    "percolation.conditional_giant_distributions",
)

# spans that do the work of a subcommand; the rest of a subcommand's time
# is trial-loop and estimator glue (seed streams, closures, the thread pool)
WORK_SPANS = (
    "cli.build_graph",
    "cli.write_csv",
    "percolation.percolate",
    "percolation.connected_components",
    "percolation.run_cascade",
    "distributions.from_samples",
    "privacy.wasserstein_infinity",
    "privacy.push_through_mechanism",
    "privacy.hypothesis_test_error",
)

ROOT_SPAN = "cli.main"


class Tracer:
    """Spans in memory: (id, name, thread, start, end, parent, count)."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._threads: dict[int, int] = {}
        self._restore: list[tuple] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _thread(self) -> int:
        return self._threads.setdefault(threading.get_ident(), len(self._threads))

    def _record(self, name, start, end, parent, count, span_id):
        self.spans.append((span_id, name, self._thread(), start, end, parent, count))

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, around a call into the CLI."""
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self._record(name, start, end, parent, None, span_id)

    def _wrap(self, name, fn, counter):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            count = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if counter is not None:
                    try:
                        count = counter(args, kwargs, result)
                    except (AttributeError, IndexError, KeyError, TypeError):
                        count = None
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer._record(name, start, end, parent, count, span_id)

        return traced

    def install(self) -> None:
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "cascadelab" or key.startswith("cascadelab."))
        ]
        for layer, module_name, attr, counter in TARGETS:
            module = sys.modules.get(module_name)
            if module is None:
                continue
            name = f"{layer}.{attr.split('.')[-1]}"
            if "." in attr:
                owner_name, method = attr.split(".")
                owner = getattr(module, owner_name, None)
                raw = vars(owner).get(method) if owner is not None else None
                if isinstance(raw, classmethod):
                    self._restore.append((owner, method, raw))
                    setattr(owner, method, classmethod(
                        self._wrap(name, raw.__func__, counter)))
                continue
            fn = getattr(module, attr, None)
            if not callable(fn):
                continue
            wrapped = self._wrap(name, fn, counter)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._restore.append((mod, key, fn))
                        setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def write(self, path: Path) -> None:
        """Write every span as one JSON line, times relative to the first."""
        origin = min((s[3] for s in self.spans), default=0.0)
        with open(path, "w") as fh:
            for sid, name, thread, start, end, parent, count in self.spans:
                fh.write(json.dumps({
                    "id": sid, "name": name, "thread": thread,
                    "start": start - origin, "end": end - origin,
                    "parent": parent, "count": count,
                }) + "\n")


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def layer_metrics(spans: list[tuple]) -> dict[str, float]:
    """Per-layer figures of one traced round (all six subcommands).

    Times are summed span durations in seconds, inclusive of nested spans
    and summed over threads; counts are summed over calls.
    """
    seconds: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    counts: dict[str, int] = defaultdict(int)
    children: dict[int, list[tuple]] = defaultdict(list)
    for span in spans:
        _, name, _, start, end, parent, count = span
        seconds[name] += end - start
        calls[name] += 1
        if count is not None:
            counts[name] += count
        if parent is not None:
            children[parent].append(span)

    work = [(s[3], s[4]) for s in spans if s[1] in WORK_SPANS]
    glue = 0.0
    for sid, name, _, start, end, _, _ in spans:
        if name == ROOT_SPAN:
            inside = [(max(lo, start), min(hi, end)) for lo, hi in work
                      if hi > start and lo < end]
            glue += (end - start) - _covered(inside)

    evaluation = 0.0
    for sid, name, _, start, end, _, _ in spans:
        if name == "attack.evaluate_attack":
            calibration = sum(
                c[4] - c[3] for c in children[sid] if c[1] in ESTIMATORS
            )
            evaluation += (end - start) - calibration

    worlds = calls["percolation.connected_components"]
    return {
        "cli.build_graph.s": seconds["cli.build_graph"],
        "cli.write_csv.s": seconds["cli.write_csv"],
        "graph.generate_er.s": seconds["graph.generate_er"],
        "graph.generate_chung_lu.s": seconds["graph.generate_chung_lu"],
        "graph.load_edge_list.s": seconds["graph.load_edge_list"],
        "graph.dump_edge_list.s": seconds["graph.dump_edge_list"],
        "graph.edges": counts["cli.build_graph"] // max(1, calls["cli.build_graph"]),
        "seeding.rng_from_seed.calls": calls["seeding.rng_from_seed"],
        "seeding.rng_from_seed.s": seconds["seeding.rng_from_seed"],
        "percolation.percolate.s": seconds["percolation.percolate"],
        "percolation.connected_components.s":
            seconds["percolation.connected_components"],
        "percolation.component_ms_per_world":
            1000.0 * seconds["percolation.connected_components"] / max(1, worlds),
        "percolation.run_cascade.s": seconds["percolation.run_cascade"],
        "percolation.worlds": worlds,
        "percolation.retained_edges": counts["percolation.percolate"],
        "percolation.estimators.s": sum(seconds[name] for name in ESTIMATORS),
        "percolation.loop_overhead.s": glue,
        "distributions.from_samples.s": seconds["distributions.from_samples"],
        "distributions.atoms": counts["distributions.from_samples"],
        "privacy.wasserstein_mechanism_scale.s":
            seconds["privacy.wasserstein_mechanism_scale"],
        "privacy.wasserstein_infinity.s": seconds["privacy.wasserstein_infinity"],
        "privacy.push_through_mechanism.s":
            seconds["privacy.push_through_mechanism"],
        "privacy.push_through.ops": counts["privacy.push_through_mechanism"],
        "privacy.hypothesis_test_error.s": seconds["privacy.hypothesis_test_error"],
        "attack.evaluate_attack.s": seconds["attack.evaluate_attack"],
        "attack.evaluation_loop.s": evaluation,
        "trace.spans": len(spans),
    }
