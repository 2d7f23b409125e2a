"""Outside-in tracing of mcbridge: spans recorded around calls into each module.

Nothing under ``src/`` is edited. Instead, for the duration of one workload
iteration, :func:`install` rebinds public names in the calling modules (for
example ``mcbridge.samplers.derive_rng`` or ``mcbridge.predictors.logsumexp``)
to wrappers that open a span, call the original and close the span. Spans
live in memory as ``[name, start, end, parent, run_id, self_s, work]`` and are
written out when the benchmark ends.

Two kinds of call are too frequent for one span each: deriving a chain's
generator (one call per chain) and drawing from it (about two calls per chain
and step). Those are aggregated per run id as "leaves" (calls, seconds,
values); their time is still charged to the enclosing span, so the enclosing
span's self time excludes it.

``install(tracer, deep=False)`` binds only the boundary wrappers the
end-to-end metrics need (``batch_sample`` and ``train_predictor``: one
stopwatch per call). ``deep=True`` binds every layer wrapper as well.
"""

from __future__ import annotations

import importlib
import inspect
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.run_id: str | None = None
        self._stack: list[list] = []  # [span index, child seconds]
        self.leaves: dict[tuple[str, str], list[float]] = defaultdict(lambda: [0, 0.0, 0])
        self.counts: dict[tuple[str, str], int] = defaultdict(int)
        self.maxima: dict[tuple[str, str], float] = defaultdict(float)

    def begin(self, name: str, work: dict | None = None) -> None:
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append([len(self.spans), 0.0])
        self.spans.append([name, perf_counter(), None, parent, self.run_id, None, work])

    def end(self) -> None:
        idx, child = self._stack.pop()
        rec = self.spans[idx]
        rec[2] = perf_counter()
        dur = rec[2] - rec[1]
        rec[5] = dur - child
        if self._stack:
            self._stack[-1][1] += dur

    @contextmanager
    def span(self, name: str, work: dict | None = None):
        self.begin(name, work)
        try:
            yield
        finally:
            self.end()

    def leaf(self, name: str, seconds: float, values: int = 0) -> None:
        agg = self.leaves[(self.run_id, name)]
        agg[0] += 1
        agg[1] += seconds
        agg[2] += values
        if self._stack:
            self._stack[-1][1] += seconds

    def count(self, name: str, value: float) -> None:
        self.counts[(self.run_id, name)] += value

    def maximum(self, name: str, value: float) -> None:
        key = (self.run_id, name)
        self.maxima[key] = max(self.maxima[key], value)

    def spans_of(self, run_id: str) -> list[list]:
        return [s for s in self.spans if s[4] == run_id]


class TracedGenerator:
    """Proxy for a chain's numpy Generator that times every draw."""

    __slots__ = ("_rng", "_tracer")

    def __init__(self, rng: np.random.Generator, tracer: Tracer) -> None:
        self._rng = rng
        self._tracer = tracer

    def _draw(self, fn, args, kwargs):
        t0 = perf_counter()
        out = fn(*args, **kwargs)
        self._tracer.leaf("samplers.rng_draw", perf_counter() - t0, int(np.size(out)))
        return out

    def random(self, *args, **kwargs):
        return self._draw(self._rng.random, args, kwargs)

    def standard_normal(self, *args, **kwargs):
        return self._draw(self._rng.standard_normal, args, kwargs)

    def __getattr__(self, name):
        return getattr(self._rng, name)


class TracedPredictor:
    """Wraps the predictor object handed to the samplers."""

    def __init__(self, inner, tracer: Tracer) -> None:
        self.inner = inner
        self.vocab = inner.vocab
        self.length = inner.length
        self._tracer = tracer

    def marginals_batch(self, states, u):
        tr = self._tracer
        with tr.span("predictors.marginals_batch"):
            out = self.inner.marginals_batch(states, u)
        tr.count("predictors.marginals_batch.rows", np.shape(states)[0])
        return out

    def __getattr__(self, name):
        return getattr(self.inner, name)


def _bound(fn, args, kwargs) -> dict:
    return inspect.signature(fn).bind(*args, **kwargs).arguments


def _span_wrapper(tracer: Tracer, name: str, fn, after=None):
    def wrapper(*args, **kwargs):
        tracer.begin(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.end()
        if after is not None:
            after(args, kwargs)
        return out

    return wrapper


def _batch_sample_wrapper(tracer: Tracer, fn, deep: bool):
    def wrapper(*args, **kwargs):
        bound = _bound(fn, args, kwargs)
        cfg, n = bound["cfg"], bound["n"]
        if deep:
            bound["pred"] = TracedPredictor(bound["pred"], tracer)
        work = {"method": cfg.method, "chains": n, "steps": cfg.grid.steps}
        with tracer.span("samplers.batch_sample", work):
            return fn(**bound)

    return wrapper


def _train_wrapper(tracer: Tracer, fn):
    def wrapper(*args, **kwargs):
        cfg = _bound(fn, args, kwargs)["cfg"]
        with tracer.span("predictors.train_predictor", {"steps": cfg.steps}):
            return fn(*args, **kwargs)

    return wrapper


def _derive_rng_wrapper(tracer: Tracer, fn):
    def wrapper(*args, **kwargs):
        t0 = perf_counter()
        rng = fn(*args, **kwargs)
        tracer.leaf("seeding.derive_rng", perf_counter() - t0)
        return TracedGenerator(rng, tracer)

    return wrapper


def _posterior_counts(tracer: Tracer, fn):
    """Computed, not measured: rows, matmul flops and bytes of the n x V^L table."""

    def after(args, kwargs):
        bound = _bound(fn, args, kwargs)
        states = np.atleast_2d(bound["states"])
        rows, dim = states.shape
        space = bound["nu"].probs.size
        table_bytes = rows * space * 8
        tracer.count("oracle.joint_posterior_probs.rows", rows)
        tracer.count("oracle.joint_posterior_probs.flops", 2 * rows * dim * space)
        tracer.count("oracle.joint_posterior_probs.table_bytes", table_bytes)
        tracer.maximum("oracle.max_table_mb", table_bytes / 2**20)

    return after


# (span name, [(module, attribute), ...]); a name bound in several modules is
# wrapped in each so that calls from any of them are seen.
_DEEP_TARGETS = [
    ("predictors.temperature_rows", [("mcbridge.samplers", "temperature_rows")]),
    ("predictors.nucleus_rows", [("mcbridge.samplers", "nucleus_rows")]),
    (
        "oracle.joint_posterior_probs",
        [("mcbridge.predictors", "joint_posterior_probs"), ("mcbridge.oracle", "joint_posterior_probs"),
         ("mcbridge.metrics", "joint_posterior_probs")],
    ),
    ("oracle.kernel_kl_estimate", [("mcbridge.cli", "kernel_kl_estimate")]),
    ("metrics.denoising_gap", [("mcbridge.cli", "denoising_gap")]),
    ("metrics.factorization_check", [("mcbridge.cli", "factorization_check")]),
    ("metrics.moment_check", [("mcbridge.cli", "moment_check")]),
    ("predictors.logsumexp", [("mcbridge.predictors", "logsumexp")]),
    ("discrete.JointDist.sample_indices", [("mcbridge.discrete", "JointDist.sample_indices")]),
    (
        "discrete.onehot_matrix",
        [("mcbridge.discrete", "onehot_matrix"), ("mcbridge.predictors", "onehot_matrix"),
         ("mcbridge.oracle", "onehot_matrix"), ("mcbridge.metrics", "onehot_matrix")],
    ),
    ("cli.main", [("mcbridge.cli", "main")]),
    ("cli.gen-dist", [("mcbridge.cli", "cmd_gen_dist")]),
    ("cli.train", [("mcbridge.cli", "cmd_train")]),
    ("cli.sample", [("mcbridge.cli", "cmd_sample")]),
    ("cli.verify", [("mcbridge.cli", "cmd_verify")]),
]
_BOUNDARY_TARGETS = [
    ("samplers.batch_sample", [("mcbridge.samplers", "batch_sample"), ("mcbridge.cli", "batch_sample")]),
    ("predictors.train_predictor", [("mcbridge.cli", "train_predictor")]),
]
_LEAF_TARGETS = [("seeding.derive_rng", [("mcbridge.samplers", "derive_rng")])]


def _resolve(module: str, attr: str):
    """(owner, name) for a binding such as ("mcbridge.discrete", "JointDist.sample_indices")."""
    owner = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


def install(tracer: Tracer, deep: bool) -> tuple[list[tuple], set[str]]:
    """Bind wrappers; returns (undo list for :func:`uninstall`, names with no target)."""
    targets = _BOUNDARY_TARGETS + (_DEEP_TARGETS + _LEAF_TARGETS if deep else [])
    undo: list[tuple] = []
    absent: set[str] = set()
    for name, bindings in targets:
        found = False
        for module, binding in bindings:
            try:
                owner, attr = _resolve(module, binding)
            except (ImportError, AttributeError):
                continue
            fn = getattr(owner, attr, None)
            if fn is None:
                continue
            found = True
            if name == "samplers.batch_sample":
                wrapped = _batch_sample_wrapper(tracer, fn, deep)
            elif name == "predictors.train_predictor":
                wrapped = _train_wrapper(tracer, fn)
            elif name == "seeding.derive_rng":
                wrapped = _derive_rng_wrapper(tracer, fn)
            elif name == "oracle.joint_posterior_probs":
                wrapped = _span_wrapper(tracer, name, fn, _posterior_counts(tracer, fn))
            else:
                wrapped = _span_wrapper(tracer, name, fn)
            setattr(owner, attr, wrapped)
            undo.append((owner, attr, fn))
        if not found:
            absent.add(name)
    return undo, absent


def uninstall(undo: list[tuple]) -> None:
    for owner, attr, fn in reversed(undo):
        setattr(owner, attr, fn)
