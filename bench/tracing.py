"""In-memory spans around every public function of venuecca.

install() wraps each public function of the measured modules and puts
the wrapper in every module of the package that holds the function: the
modules import each other's names with ``from .x import f``, so wrapping
only the defining module would miss most calls. A span records its name
(``<module>.<function>``), the benchmark stage it ran under, start, end,
its parent span, the exception type if the call raised, and for a few
functions a value read off the result.

layer_metrics() turns the spans of one round into the per-layer figures
in LAYER_METRICS. A span's self time is its duration minus the time its
child spans cover. Each figure is per run of its stage: per set-up, per
fit, per model/index store, or per evaluate.
"""

import functools
import inspect
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

LAYERS = ("dataio", "linalg", "cca", "kcca", "neural", "dcca", "model_io", "retrieval")

# Values read off a function's result and kept on its span.
PROBES = {
    "retrieval.rank_venues": lambda ranklist: len(ranklist.venue_ids),
    "retrieval.mean_average_precision": lambda result: result[1],
}

PROJECTIONS = ("cca.cca_transform", "kcca.kcca_project", "dcca.dcca_project")
METRIC_SUITE = (
    "retrieval.mean_average_precision",
    "retrieval.average_precision",
    "retrieval.mrr1",
    "retrieval.recall_precision_curve",
)

# (metric, unit, stage, span names, figure, parent span name or None)
LAYER_METRICS = (
    ("dataio.synth_s", "s", "setup", ("dataio.synth_generate",), "total", None),
    ("dataio.write_s", "s", "setup", ("dataio.write_dataset",), "total", None),
    ("dataio.load_s", "s", "setup", ("dataio.load_dataset",), "total", None),
    ("dataio.pairs_s", "s", "setup", ("dataio.build_pairs",), "total", None),
    ("dataio.haversine_s", "s", "eval", ("dataio.haversine_km",), "total", None),
    ("linalg.inv_sqrt_sym_s", "s", "train", ("linalg.inv_sqrt_sym",), "total", None),
    ("linalg.inv_sqrt_sym_calls", "count", "train", ("linalg.inv_sqrt_sym",), "calls", None),
    ("linalg.svd_topk_s", "s", "train", ("linalg.svd_topk",), "total", None),
    ("linalg.regularized_covariance_s", "s", "train", ("linalg.regularized_covariance",), "total", None),
    ("cca.fit_self_s", "s", "train", ("cca.fit_cca",), "self", None),
    ("cca.cross_covariance_s", "s", "train", ("cca.combined_cross_covariance",), "total", None),
    ("cca.transform_s", "s", "eval", ("cca.cca_transform",), "total", None),
    ("cca.transform_calls", "count", "eval", ("cca.cca_transform",), "calls", None),
    ("kcca.gram_fit_s", "s", "train", ("kcca.gaussian_kernel",), "total", None),
    ("kcca.bandwidth_s", "s", "train", ("kcca.median_heuristic_bandwidth",), "total", None),
    ("kcca.gram_query_s", "s", "eval", ("kcca.gaussian_kernel",), "total", None),
    ("neural.forward_s", "s", "train", ("neural.mlp_forward",), "total", None),
    ("neural.backward_s", "s", "train", ("neural.mlp_backward",), "total", None),
    ("neural.adam_s", "s", "train", ("neural.adam_step",), "total", None),
    ("neural.forward_calls", "count", "train", ("neural.mlp_forward",), "calls", None),
    ("dcca.objective_s", "s", "train", ("dcca.cca_objective",), "total", None),
    ("dcca.objective_calls", "count", "train", ("dcca.cca_objective",), "calls", None),
    ("dcca.fallback_batches", "count", "train", ("dcca.cca_objective",), "no_cross_pairs", None),
    ("dcca.train_self_s", "s", "train", ("dcca.train_dcca",), "self", None),
    ("dcca.steps", "count", "train", ("dcca.cca_objective",), "ok_calls", None),
    ("model_io.save_s", "s", "io", ("model_io.save_model",), "total", None),
    ("model_io.load_s", "s", "io", ("model_io.load_model",), "total", None),
    ("model_io.index_io_s", "s", "io", ("model_io.save_index", "model_io.load_index"), "total", None),
    ("retrieval.rank_self_s", "s", "eval", ("retrieval.rank_venues",), "self", None),
    ("retrieval.pool_size_mean", "count", "eval", ("retrieval.rank_venues",), "value_mean", None),
    ("retrieval.project_s", "s", "eval", PROJECTIONS, "total", "retrieval.rank_venues"),
    ("retrieval.metrics_s", "s", "eval", METRIC_SUITE, "total", "retrieval.evaluate"),
    ("retrieval.ap_calls", "count", "eval", ("retrieval.average_precision",), "calls", None),
    ("retrieval.build_index_s", "s", "io", ("retrieval.build_index",), "total", None),
    ("retrieval.geo_empty", "count", "eval", ("retrieval.rank_venues",), "zero_values", None),
    ("retrieval.map_skipped", "count", "eval", ("retrieval.mean_average_precision",), "value_sum", None),
)

# Share of a stage's wall time that spans of the package cover.
COVERAGE_METRICS = (("trace.train_covered", "train"), ("trace.eval_covered", "eval"))

STAGE = "stage"
NAME, STAGE_OF, START, END, PARENT, VALUE, ERROR = range(7)


class Tracer:
    """Collects spans in memory, one list per round (see take())."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def _open(self, name, stage):
        parent = self._stack[-1] if self._stack else -1
        if stage is None and parent >= 0:
            stage = self.spans[parent][STAGE_OF]
        span = [name, stage, time.perf_counter(), 0.0, parent, None, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span):
        span[END] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name, fn):
        probe = PROBES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name, None)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                span[ERROR] = type(exc).__name__
                raise
            finally:
                self._close(span)
            if probe is not None:
                span[VALUE] = probe(out)
            return out

        return traced

    @contextmanager
    def stage(self, stage):
        """A root span; every span opened inside it belongs to ``stage``."""
        span = self._open(STAGE, stage)
        try:
            yield
        finally:
            self._close(span)

    def take(self):
        """Hand over the spans recorded so far and start a new list."""
        if self._stack:
            raise RuntimeError("cannot take spans while a span is open")
        spans = self.spans[:]
        self.spans.clear()
        return spans


def install(tracer, package):
    """Wrap every public function of the LAYERS modules wherever it is bound.

    Returns the number of functions wrapped.
    """
    prefix = package.__name__ + "."
    wrappers = {}
    for layer in LAYERS:
        module = sys.modules[prefix + layer]
        for name, obj in vars(module).items():
            if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not name.startswith("_"):
                wrappers[obj] = tracer.wrap(f"{layer}.{name}", obj)
    modules = [m for n, m in list(sys.modules.items()) if n == package.__name__ or n.startswith(prefix)]
    for module in modules:
        for name, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(module, name, wrappers[obj])
    return len(wrappers)


def _figure(spans, picked, child_time, what):
    durations = [spans[i][END] - spans[i][START] for i in picked]
    if what == "total":
        return sum(durations)
    if what == "self":
        return sum(d - child_time[i] for d, i in zip(durations, picked))
    if what == "calls":
        return len(picked)
    if what == "ok_calls":
        return sum(1 for i in picked if spans[i][ERROR] is None)
    if what == "no_cross_pairs":
        return sum(1 for i in picked if spans[i][ERROR] == "NoCrossPairsError")
    values = [spans[i][VALUE] for i in picked]
    if what == "value_mean":
        return sum(values) / len(values) if values else 0.0
    if what == "value_sum":
        return sum(values)
    if what == "zero_values":
        return sum(1 for v in values if v == 0)
    raise ValueError(f"unknown figure {what!r}")


def layer_metrics(spans):
    """Per-layer figures of one round of spans, each per run of its stage."""
    child_time = [0.0] * len(spans)
    by_key = defaultdict(list)
    for i, span in enumerate(spans):
        if span[PARENT] >= 0:
            child_time[span[PARENT]] += span[END] - span[START]
        by_key[(span[STAGE_OF], span[NAME])].append(i)
    out = {}
    for metric, _unit, stage, names, what, parent in LAYER_METRICS:
        runs = len(by_key[(stage, STAGE)])
        picked = [i for name in names for i in by_key[(stage, name)]]
        if parent is not None:
            picked = [i for i in picked if spans[i][PARENT] >= 0 and spans[spans[i][PARENT]][NAME] == parent]
        value = _figure(spans, picked, child_time, what)
        out[metric] = value if what == "value_mean" else value / max(runs, 1)
    for metric, stage in COVERAGE_METRICS:
        roots = by_key[(stage, STAGE)]
        wall = sum(spans[i][END] - spans[i][START] for i in roots)
        out[metric] = sum(child_time[i] for i in roots) / wall if wall else 0.0
    return out
