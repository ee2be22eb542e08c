"""Spans and counts recorded around calls into the package's layers.

The tracer times each layer from outside: it replaces module attributes
that callers look up at call time (for example
``isinglearn.experiments.gibbs_sample``) with wrappers that record a span
and, where the layer does countable work, a count taken at the same
boundary. Nothing in the package is edited. Spans are kept in memory and
written out when the run ends.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import time
from collections import defaultdict
from dataclasses import asdict, dataclass

import numpy as np

# Span names that belong to the benchmark itself rather than to a layer.
HARNESS_PREFIX = "bench."


@dataclass
class Span:
    sid: int
    name: str
    parent: int | None
    op: int | None
    start: float
    end: float = float("nan")

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder plus the attribute wrappers that feed it.

    ``install`` swaps the wrappers in and ``restore`` puts the original
    attributes back, so an untraced pass in the same process runs the
    package exactly as it is.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict = defaultdict(float)
        self.op: int | None = None
        self._stack: list[Span] = []
        self._saved: list = []
        self._last_rows = (None, 0)

    # -- spans -------------------------------------------------------------

    def open(self, name: str) -> Span:
        parent = self._stack[-1].sid if self._stack else None
        span = Span(len(self.spans), name, parent, self.op, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        if not self._stack or self._stack[-1] is not span:
            raise RuntimeError(f"span {span.name} closed out of order")
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        span = self.open(name)
        try:
            yield span
        finally:
            self.close(span)

    # -- wrappers ----------------------------------------------------------

    def wrap(self, module_name: str, attr: str, name: str, count=None) -> None:
        """Replace module.attr by a recording wrapper; `count(tracer, bound,
        out)` runs after the span closes, under a harness span of its own."""
        module = importlib.import_module(module_name)
        fn = getattr(module, attr)
        sig = inspect.signature(fn)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if count is not None:
                with tracer.span("bench.tracing"):
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    count(tracer, bound.arguments, out)
            return out

        self._saved.append((module, attr, fn))
        setattr(module, attr, wrapper)

    def install(self, specs) -> None:
        for module_name, attr, name, count in specs:
            self.wrap(module_name, attr, name, count)

    def restore(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def distinct_rows(self, spins: np.ndarray) -> int:
        """Number of distinct sample rows; the last answer is reused while
        the same array is passed again (one sample set per sweep trial is
        solved at every regularization level)."""
        last, k = self._last_rows
        if last is not spins:
            k = int(np.unique(spins, axis=0).shape[0])
            self._last_rows = (spins, k)
        return k

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")


# ---------------------------------------------------------------------------
# self time


def _covered(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans) -> dict:
    """Span id -> its duration minus the part of it its children cover."""
    by_id = {s.sid: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for sid, s in by_id.items():
        clipped = [
            (max(c.start, s.start), min(c.end, s.end))
            for c in children[sid]
            if c.end > s.start and c.start < s.end
        ]
        out[sid] = s.duration - _covered(clipped)
    return out


def span_table(spans) -> dict:
    """Per span name: calls, inclusive seconds and self seconds."""
    selfs = self_times(spans)
    table = defaultdict(lambda: {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
    for s in spans:
        row = table[s.name]
        row["calls"] += 1
        row["incl_s"] += s.duration
        row["self_s"] += selfs[s.sid]
    return dict(table)


# ---------------------------------------------------------------------------
# what is wrapped, and what is counted at each boundary


def _count_gibbs(tr, args, out):
    tr.counts["ising.gibbs_site_updates"] += out.p * (out.burn_in + out.n * out.thin)


def _count_exact(tr, args, out):
    tr.counts["ising.exact_states"] += 2 ** out.graph.p


def _count_hessian(tr, args, out):
    tr.counts["analysis.hessian_states"] += 2 ** (len(out.vertices) + 1)


def _count_rlr(tr, args, out):
    s, tol = args["s"], args["tol"]
    ests = out.estimates.values()
    tr.counts["learners.rlr_calls"] += 1
    tr.counts["learners.rlr_iters"] += max(e.iterations for e in ests)
    tr.counts["learners.rlr_unconverged_roots"] += sum(
        1 for e in ests if not e.residual < tol
    )
    tr.counts["learners.rlr_rows"] += s.n
    tr.counts["learners.rlr_distinct_rows"] += tr.distinct_rows(s.spins)


_TREE_LIMIT = ("theta_thr", "h_infinity", "theta_T", "toy_gp5_incoherence")

# (module, attribute, span name, counter). Every attribute is one that the
# calling module resolves at call time, so the wrapper sees every call the
# workloads make through it.
WRAP_SPECS = (
    ("isinglearn.experiments", "build_graph", "graphs.build_graph", None),
    ("isinglearn.analysis", "make_regular_plus_edge", "graphs.build_graph", None),
    ("isinglearn.experiments", "gibbs_sample", "ising.gibbs_sample", _count_gibbs),
    ("isinglearn.ising", "exact_moments", "ising.exact_moments", _count_exact),
    ("isinglearn.analysis", "exact_moments", "ising.exact_moments", _count_exact),
    ("isinglearn.cli", "read_samples", "ising.read_samples", None),
    ("isinglearn.experiments", "rlr_graph", "learners.rlr_graph", _count_rlr),
    ("isinglearn.cli", "rlr_graph", "learners.rlr_graph", _count_rlr),
    ("isinglearn.cli", "thresholding", "learners.thresholding", None),
    ("isinglearn.cli", "local_independence_test", "learners.ind", None),
    ("isinglearn.cli", "local_independence_test_pruned", "learners.indd", None),
    ("isinglearn.analysis", "population_hessian", "analysis.population_hessian",
     _count_hessian),
    ("isinglearn.analysis", "incoherence", "analysis.incoherence", None),
    ("isinglearn.analysis", "graph_incoherence", "analysis.report", None),
    ("isinglearn.analysis", "thresholding_failure_certificate", "analysis.report",
     None),
    *(("isinglearn.analysis", f, "analysis.tree_limit", None) for f in _TREE_LIMIT),
    ("isinglearn.experiments", "run_sweep", "experiments.run_sweep", None),
    ("isinglearn.experiments", "reproduce", "experiments.reproduce", None),
    ("isinglearn.cli", "main", "cli.main", None),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(tracer: Tracer, traced_wall_s: float, untraced_wall_s: float) -> dict:
    """The per-layer metrics of one traced pass, by name."""
    table = span_table(tracer.spans)
    c = tracer.counts

    def incl(name):
        return table.get(name, {}).get("incl_s", 0.0)

    def self_s(name):
        return table.get(name, {}).get("self_s", 0.0)

    layer_self = sum(
        row["self_s"] for name, row in table.items()
        if not name.startswith(HARNESS_PREFIX)
    )
    harness = sum(
        row["self_s"] for name, row in table.items() if name.startswith(HARNESS_PREFIX)
    )
    gibbs_s = incl("ising.gibbs_sample")
    exact_s = incl("ising.exact_moments")
    hess_s = incl("analysis.population_hessian")
    return {
        "graphs.build_s": incl("graphs.build_graph"),
        "ising.gibbs_s": gibbs_s,
        "ising.gibbs_site_updates": c["ising.gibbs_site_updates"],
        "ising.gibbs_updates_per_s": _ratio(c["ising.gibbs_site_updates"], gibbs_s),
        "ising.exact_s": exact_s,
        "ising.exact_states": c["ising.exact_states"],
        "ising.exact_states_per_s": _ratio(c["ising.exact_states"], exact_s),
        "ising.samples_read_s": incl("ising.read_samples"),
        "learners.rlr_s": incl("learners.rlr_graph"),
        "learners.rlr_calls": c["learners.rlr_calls"],
        "learners.rlr_iters": c["learners.rlr_iters"],
        "learners.rlr_unconverged_roots": c["learners.rlr_unconverged_roots"],
        "learners.thr_s": incl("learners.thresholding"),
        "learners.ind_s": incl("learners.ind"),
        "learners.indd_s": incl("learners.indd"),
        "analysis.hessian_s": hess_s,
        "analysis.hessian_states_per_s": _ratio(c["analysis.hessian_states"], hess_s),
        "analysis.incoherence_s": incl("analysis.incoherence"),
        "analysis.tree_limit_s": incl("analysis.tree_limit"),
        "analysis.report_self_s": self_s("analysis.report"),
        "experiments.sweep_self_s": self_s("experiments.run_sweep"),
        "experiments.reproduce_self_s": self_s("experiments.reproduce"),
        "cli.learn_self_s": self_s("cli.main"),
        "bench.harness_s": harness,
        "trace_remainder_frac": _ratio(traced_wall_s - layer_self, traced_wall_s),
        "trace_overhead_frac": _ratio(traced_wall_s - untraced_wall_s, untraced_wall_s),
    }


def layer_info(tracer: Tracer) -> dict:
    """Figures of the traced pass that describe the input rather than the
    program's speed, so they have no better direction."""
    c = tracer.counts
    return {
        "learners.unique_row_frac": _ratio(
            c["learners.rlr_distinct_rows"], c["learners.rlr_rows"]
        ),
    }


# Units of the per-layer metrics.
LAYER_UNITS = {
    name: (
        "count" if name.endswith(("_updates", "_states", "_calls", "_iters", "_roots"))
        else "1/s" if name.endswith("_per_s")
        else "1" if name.endswith("_frac")
        else "s"
    )
    for name in layer_metrics(Tracer(), 1.0, 1.0)
}
