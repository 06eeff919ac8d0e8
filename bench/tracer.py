"""In-memory spans around the public functions of each infoflow layer.

Each wrapper is installed at the name its caller looks it up by, because
the modules import by name: ``cli`` calls its own ``load_dataset``, while
``analysis`` calls its own ``te_matrix``.  A function that is absent (after
a refactor renames or removes it) is skipped, and every metric fed only by
absent functions is reported as unmeasured instead of failing the run.

Spans record name, start, end, parent span and study id.  They stay in
memory until the run ends and are then reduced to per-layer self times
and counts.  The end-to-end run never installs these wrappers.
"""

from __future__ import annotations

import importlib
import itertools
import statistics
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter_ns

SOLVES = ("arborescence.solve_out", "arborescence.solve_in")


def _orientation(args, kwargs) -> str:
    value = args[1] if len(args) > 1 else kwargs.get("orientation", "outgoing")
    return SOLVES[0] if value == "outgoing" else SOLVES[1]


def _rows(args, kwargs, result) -> dict:
    return {"rows": len(result[0].dates)}


def _pairs(args, kwargs, result) -> dict:
    series = args[0] if args else kwargs["all_series"]
    n, length = len(series), len(series[0])
    return {"pairs": n * (n - 1), "triplets": n * (n - 1) * (length - 1)}


def _edges(args, kwargs, result) -> dict:
    return {"edges": len(result.edges), "tied_pairs": len(result.ties)}


def _one(counter: str):
    return lambda args, kwargs, result: {counter: 1}


# (module, attribute, span name or name function, counter function or None)
WRAPPED = (
    ("infoflow.cli", "main", "cli.main", None),
    ("infoflow.cli", "load_dataset", "timeseries.load", _rows),
    ("infoflow.cli", "slice_returns", "timeseries.slice", _one("slice_calls")),
    ("infoflow.analysis", "slice_returns", "timeseries.slice", _one("slice_calls")),
    ("infoflow.analysis", "returns_panel", "timeseries.returns", None),
    ("infoflow.analysis", "make_partition", "symbolize.encode", None),
    ("infoflow.analysis", "encode", "symbolize.encode", _one("series")),
    ("infoflow.analysis", "te_matrix", "entropy.te_matrix", _pairs),
    ("infoflow.analysis", "dai_matrix", "entropy.dai", None),
    ("infoflow.analysis", "build_network", "network.build", _edges),
    ("infoflow.analysis", "max_spanning_arborescence", _orientation, _one("solves")),
    ("infoflow.analysis", "maximal_information_flow_path", "arborescence.path", None),
    ("infoflow.cli", "arborescence_to_dot", "arborescence.render", None),
    ("infoflow.cli", "arborescence_to_json", "arborescence.render", None),
    ("infoflow.analysis", "yearly_reports", "analysis.study", None),
    ("infoflow.analysis", "msas_from_returns", "analysis.window", _one("windows")),
    ("infoflow.analysis", "degree_heatmap", "analysis.render", None),
    ("infoflow.analysis", "render_msa_bundle_csv", "analysis.render", None),
    ("infoflow.analysis", "render_yearly_csv", "analysis.render", None),
    ("infoflow.analysis", "render_degree_heatmap_csv", "analysis.render", None),
    ("infoflow.analysis", "render_root_occurrences_csv", "analysis.render", None),
    ("infoflow.analysis", "render_yearly_json", "analysis.render", None),
)

# Self-time metric -> span names whose self time it sums.  Together they
# cover every span, so per study they add up to the ``cli.main`` span.
SELF_TIMES = {
    "timeseries.load_s": ("timeseries.load",),
    "timeseries.returns_s": ("timeseries.returns",),
    "timeseries.slice_s": ("timeseries.slice",),
    "symbolize.encode_s": ("symbolize.encode",),
    "entropy.te_matrix_s": ("entropy.te_matrix",),
    "entropy.dai_s": ("entropy.dai",),
    "network.build_s": ("network.build",),
    "arborescence.solve_out_s": ("arborescence.solve_out",),
    "arborescence.solve_in_s": ("arborescence.solve_in",),
    "arborescence.path_s": ("arborescence.path",),
    "arborescence.render_s": ("arborescence.render",),
    "analysis.render_s": ("analysis.render",),
    "analysis.self_s": ("analysis.study", "analysis.window"),
    "cli.self_s": ("cli.main",),
}

# Count metric -> the counter it sums, and the span names that feed it.
COUNTS = {
    "timeseries.rows": ("rows", ("timeseries.load",)),
    "timeseries.slice_calls": ("slice_calls", ("timeseries.slice",)),
    "symbolize.series": ("series", ("symbolize.encode",)),
    "entropy.pairs": ("pairs", ("entropy.te_matrix",)),
    "entropy.triplets": ("triplets", ("entropy.te_matrix",)),
    "network.edges": ("edges", ("network.build",)),
    "network.tied_pairs": ("tied_pairs", ("network.build",)),
    "arborescence.solves": ("solves", SOLVES),
    "analysis.windows": ("windows", ("analysis.window",)),
}


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: int
    end: int
    study: int
    counts: dict | None


class Tracer:
    """Records spans for the wrapped functions while ``installed()`` is active."""

    def __init__(self):
        self.spans: list[Span] = []
        self.study = -1
        self.present: set[str] = set()
        self.absent: list[str] = []
        self.counter_errors: set[str] = set()
        self._ids = itertools.count()
        self._local = threading.local()

    def _wrap(self, fn, name, counter):
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            span_name = name(args, kwargs) if callable(name) else name
            span_id = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
            counts = None
            if counter is not None:
                try:
                    counts = counter(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    self.counter_errors.add(span_name)
            self.spans.append(Span(span_id, parent, span_name, start, end, self.study, counts))
            return result

        return traced

    @contextmanager
    def installed(self):
        """Patch every wrapped function that exists; restore them on exit."""
        originals = []
        try:
            for module_name, attr, name, counter in WRAPPED:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr, None)
                label = f"{module_name}.{attr}"
                if fn is None:
                    if label not in self.absent:
                        self.absent.append(label)
                    continue
                originals.append((module, attr, fn))
                setattr(module, attr, self._wrap(fn, name, counter))
                self.present.update((name,) if isinstance(name, str) else SOLVES)
            yield self
        finally:
            for module, attr, fn in reversed(originals):
                setattr(module, attr, fn)


def _self_times(spans: list[Span]) -> dict[int, int]:
    """Span duration minus the durations of its direct children, in ns."""
    own = {s.id: s.end - s.start for s in spans}
    for s in spans:
        if s.parent in own:
            own[s.parent] -= s.end - s.start
    return own


def layer_metrics(tracer: Tracer, studies: list[int]) -> dict[str, float | None]:
    """Per-study means of layer self times and counts over the traced studies.

    A metric is ``None`` (unmeasured) when no function feeding it exists.
    Self times are means, so over all layers they add up to ``trace.study_s``.
    """
    by_study = {k: [] for k in studies}
    for s in tracer.spans:
        if s.study in by_study:
            by_study[s.study].append(s)
    count = len(studies)
    out: dict[str, float | None] = {}

    sums = {metric: 0 for metric in SELF_TIMES}
    main_ns = 0
    for spans in by_study.values():
        own = _self_times(spans)
        for s in spans:
            if s.name == "cli.main" and s.parent is None:
                main_ns += s.end - s.start
            for metric, names in SELF_TIMES.items():
                if s.name in names:
                    sums[metric] += own[s.id]
    for metric, names in SELF_TIMES.items():
        measured = any(n in tracer.present for n in names)
        out[metric] = sums[metric] / count / 1e9 if measured else None
    out["trace.study_s"] = main_ns / count / 1e9 if "cli.main" in tracer.present else None

    for metric, (key, names) in COUNTS.items():
        measured = any(n in tracer.present for n in names) and not (
            set(names) & tracer.counter_errors)
        total = sum((s.counts or {}).get(key, 0)
                    for spans in by_study.values() for s in spans if s.name in names)
        out[metric] = total / count if measured else None

    te_s, pairs = out["entropy.te_matrix_s"], out["entropy.pairs"]
    out["entropy.us_per_pair"] = te_s / pairs * 1e6 if te_s is not None and pairs else None

    windows = [(s.end - s.start) / 1e6 for spans in by_study.values()
               for s in spans if s.name == "analysis.window"]
    if windows:  # at least one window in each of at least two traced studies
        out["analysis.window_p50_ms"] = statistics.median(windows)
        out["analysis.window_p90_ms"] = statistics.quantiles(
            windows, n=10, method="inclusive")[8]
    else:
        out["analysis.window_p50_ms"] = out["analysis.window_p90_ms"] = None
    return out
