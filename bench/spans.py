"""Span tracing from outside the program, and the per-layer metrics.

`Tracer.install` wraps the public functions of each sira module. Modules
use from-imports, so a function is patched under every name that binds
it in any loaded sira module (for example `sira.mechanism.sample_valuations`
and `sira.strategy.adaptive_simpson`), and methods are patched on their
class. Each call records a span: name, start, end, parent and, where the
arguments say how much work the call does, a count. Spans stay in memory
until the run ends.

A span opened in a worker thread whose own stack is empty takes the main
thread's innermost open span as parent, so the sweeps' thread pool is
attributed to the `threshold_sweep` call that waits on it. Per-layer
times sum spans over threads.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import threading
import time
from collections import defaultdict

TRACED = {
    "cli": ("parse_run_spec", "execute"),
    "value_model": (
        "sample_valuations", "sample_total_values", "sample_scaling_factors", "beta22_ppf",
    ),
    "strategy": ("sira_decision_arrays", "sira_bid", "sira_bid_generic"),
    "mechanism": ("run_sira", "run_reserve_threshold", "run_repeated_sira"),
    "experiments": (
        "threshold_sweep", "deviation_sweep", "validate_product_distribution",
        "closed_form_vs_quadrature", "equilibrium_crosscheck",
    ),
    "quadrature": ("adaptive_simpson",),
    "seeding": ("substream", "child_seed"),
}
# Vector evaluators of the premium-value distribution; the scalar cdf is
# the quadrature integrand and is counted as quadrature.f_evals instead.
TRACED_METHODS = ("value_model", "PremiumValueDistribution", ("pdf", "cdf", "cdf_integral"))

# The argument that says how much work a call does.
_WORK_ARG = {
    "value_model.sample_total_values": "size",
    "value_model.sample_scaling_factors": "size",
    "experiments.threshold_sweep": "p_eps_grid",
    "experiments.equilibrium_crosscheck": "n_pairings",
}
_QUADRATURE = "quadrature.adaptive_simpson"

SAMPLING = (
    "value_model.sample_valuations",
    "value_model.sample_total_values",
    "value_model.sample_scaling_factors",
)
PREMIUM_DIST = tuple(f"value_model.PremiumValueDistribution.{m}" for m in TRACED_METHODS[2])
RUNS = tuple(f"mechanism.{f}" for f in TRACED["mechanism"])
EXPERIMENT_FNS = tuple(f"experiments.{f}" for f in TRACED["experiments"])
SEEDING = tuple(f"seeding.{f}" for f in TRACED["seeding"])

# (name, unit) of every per-layer metric, in report order. What each
# layer should move: cli (self time of execute is the writer) moves
# agents_per_s, peak_rss_mb and artifact_bytes_per_agent on agent_csv and
# agent_json and nothing on experiments; value_model, strategy and
# experiments move agents_per_s on experiments and barely the agent
# workloads; mechanism moves experiments through the sweeps; quadrature
# moves experiments through crosscheck; seeding counts repeat exactly.
LAYER_METRICS = [
    ("cli.parse_s", "s"),
    ("cli.serialise_s", "s"),
    ("cli.bytes_written", "B"),
    ("cli.serialise_mb_per_s", "MB/s"),
    ("cli.digest_match_ratio", "ratio"),
    ("cli.rerun_match_ratio", "ratio"),
    ("value_model.sample_s", "s"),
    ("value_model.beta_ppf_s", "s"),
    ("value_model.draws", "count"),
    ("value_model.premium_dist_s", "s"),
    ("strategy.decision_s", "s"),
    ("strategy.bid_s", "s"),
    ("strategy.bid_generic_calls", "count"),
    ("mechanism.self_s", "s"),
    ("mechanism.runs", "count"),
    ("experiments.self_s", "s"),
    ("experiments.sweep_points", "count"),
    ("experiments.rejection_draws", "count"),
    ("experiments.rejection_accept_ratio", "ratio"),
    ("quadrature.s", "s"),
    ("quadrature.calls", "count"),
    ("quadrature.f_evals", "count"),
    ("seeding.substreams", "count"),
    ("seeding.s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_ratio", "ratio"),
] + [
    (f"baseline.{fn}.{family}.{size}", "s")
    for fn in ("sample_total_values", "run_sira", "run_reserve_threshold")
    for family in ("uniform", "beta22")
    for size in ("1e5", "1e6")
]


class Span:
    __slots__ = ("name", "parent", "start", "end", "count")

    def __init__(self, name: str, parent: "Span | None"):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.count = None


class Tracer:
    """Records spans around wrapped functions; see the module docstring."""

    def __init__(self):
        self.spans: list[Span] = []
        self._main: list[Span] = []
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        if threading.current_thread() is threading.main_thread():
            return self._main
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def begin(self, name: str) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else (self._main[-1] if self._main else None)
        span = Span(name, parent)
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    def wrap(self, name: str, fn):
        work_arg = _WORK_ARG.get(name)
        signature = inspect.signature(fn) if work_arg else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            evals = None
            if name == _QUADRATURE:
                evals = [0]
                integrand = args[0]

                def counted(t):
                    evals[0] += 1
                    return integrand(t)

                args = (counted, *args[1:])
            span = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(span)
                if evals is not None:
                    span.count = evals[0]
                elif work_arg:
                    work = signature.bind(*args, **kwargs).arguments[work_arg]
                    span.count = len(work) if work_arg == "p_eps_grid" else int(work)

        return traced

    def install(self) -> None:
        """Patch every binding of the traced functions in loaded sira modules."""
        modules = [m for k, m in sys.modules.items() if k == "sira" or k.startswith("sira.")]
        for layer, names in TRACED.items():
            home = sys.modules[f"sira.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self.wrap(f"{layer}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._undo.append((module, attr, original))
        layer, cls_name, methods = TRACED_METHODS
        cls = getattr(sys.modules[f"sira.{layer}"], cls_name)
        for method in methods:
            original = cls.__dict__[method]
            setattr(cls, method, self.wrap(f"{layer}.{cls_name}.{method}", original))
            self._undo.append((cls, method, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def export(span_list: list[Span]) -> list[list]:
    """Spans as rows [name, start, end, parent row or None, count]."""
    index = {id(s): i for i, s in enumerate(span_list)}
    return [[s.name, s.start, s.end, index.get(id(s.parent)), s.count] for s in span_list]


def load(rows: list[list]) -> list[Span]:
    """Spans back from export()'s rows, with parents linked."""
    out = [Span(name, None) for name, *_ in rows]
    for span, (_, start, end, parent, count) in zip(out, rows):
        span.start, span.end, span.count = start, end, count
        span.parent = out[parent] if parent is not None else None
    return out


def dump(span_list: list[Span], path) -> None:
    """Write spans as JSON lines: id, name, start, end, parent id, count."""
    with open(path, "w", encoding="utf-8") as fh:
        for i, (name, start, end, parent, count) in enumerate(export(span_list)):
            fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                 "parent": parent, "count": count}) + "\n")


def self_times(intervals) -> list[float]:
    """Self time of each (start, end, parent index or None) interval.

    A span's self time is its duration minus the part of it covered by
    the union of its direct children, each clipped to the span.
    """
    children = defaultdict(list)
    for start, end, parent in intervals:
        if parent is not None:
            children[parent].append((start, end))
    out = []
    for i, (start, end, _) in enumerate(intervals):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(i, ())):
            lo, hi = max(c_start, reach), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Span-derived per-layer metrics (those not measured by the worker)."""
    index = {id(s): i for i, s in enumerate(spans)}
    parents = [index.get(id(s.parent)) if s.parent is not None else None for s in spans]
    selfs = self_times([(s.start, s.end, p) for s, p in zip(spans, parents)])
    by_name = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s.name].append(i)

    def members(names):
        return [i for n in names for i in by_name.get(n, ())]

    def outermost(i, names):
        p = parents[i]
        while p is not None:
            if spans[p].name in names:
                return False
            p = parents[p]
        return True

    def busy(names):
        return sum(spans[i].end - spans[i].start for i in members(names) if outermost(i, names))

    def work(names):
        return sum(spans[i].count or 0 for i in members(names))

    rejection = 0
    for i in by_name.get("experiments.equilibrium_crosscheck", ()):
        draws = sorted((spans[j].start, spans[j].count) for j in by_name.get(
            "value_model.sample_total_values", ()) if parents[j] == i)
        # The first draw is the opponent pool; the rest are rejection chunks.
        rejection += sum(count for _, count in draws[1:])
    kept = work(["experiments.equilibrium_crosscheck"])
    serialise = sum(selfs[i] for i in members(["cli.execute"]))
    return {
        "cli.parse_s": busy(["cli.parse_run_spec"]),
        "cli.serialise_s": serialise,
        "value_model.sample_s": busy(SAMPLING),
        "value_model.beta_ppf_s": busy(["value_model.beta22_ppf"]),
        "value_model.draws": work(SAMPLING[1:]),
        "value_model.premium_dist_s": busy(PREMIUM_DIST),
        "strategy.decision_s": busy(["strategy.sira_decision_arrays"]),
        "strategy.bid_s": busy(["strategy.sira_bid"]),
        "strategy.bid_generic_calls": len(members(["strategy.sira_bid_generic"])),
        "mechanism.self_s": sum(selfs[i] for i in members(RUNS)),
        "mechanism.runs": len(members(RUNS)),
        "experiments.self_s": sum(selfs[i] for i in members(EXPERIMENT_FNS)),
        "experiments.sweep_points": work(["experiments.threshold_sweep"]),
        "experiments.rejection_draws": rejection,
        "experiments.rejection_accept_ratio": kept / rejection if rejection else 0.0,
        "quadrature.s": busy([_QUADRATURE]),
        "quadrature.calls": len(members([_QUADRATURE])),
        "quadrature.f_evals": work([_QUADRATURE]),
        "seeding.substreams": len(members(SEEDING)),
        "seeding.s": busy(SEEDING),
    }
