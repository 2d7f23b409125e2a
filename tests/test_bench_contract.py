"""The surface of mcbridge that the benchmark under ``bench/`` binds.

``bench/run.py`` ends in a traceback, not a failed-operation count, when a
name it wraps or calls is gone or a workload iteration records no
``batch_sample`` span for a method. These tests run scaled-down workloads
through ``bench/tracer.py`` and ``bench/workloads.py`` (imported, never
edited) so such drift fails here first. ``bench/run.py`` is not imported: it
sets BLAS thread variables for the whole process.
"""

import ast
import sys
from collections import Counter
from pathlib import Path

import pytest

import mcbridge as mb
from mcbridge import cli, samplers

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(BENCH))
    try:
        import tracer
        import workloads
    finally:
        sys.path.remove(str(BENCH))
    return tracer, workloads


def test_every_trace_target_is_bound(bench):
    tracer, _ = bench
    undo, absent = tracer.install(tracer.Tracer(), deep=True)
    try:
        assert absent == set()
    finally:
        tracer.uninstall(undo)


def test_every_attribute_the_bench_reads_resolves():
    # some names are read only on paths no other test runs (mb.TokenSequence: the many-chains TV gate)
    modules = {"mb": mb, "cli": cli, "samplers": samplers}
    read = set()
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
                read.add((node.value.id, node.attr))
    assert ("mb", "TokenSequence") in read
    assert sorted(f"{m}.{a}" for m, a in read if not hasattr(modules[m], a)) == []


def _iterate(tracer, w, deep, workdir):
    """One bench iteration of ``w`` (body under the tracer, then finish and gate);
    returns the names and work records of the spans it recorded."""
    tr = tracer.Tracer()
    undo, _ = tracer.install(tr, deep=deep)
    try:
        ops = w.body(workdir)
    finally:
        tracer.uninstall(undo)
    assert {op.name: op.error for op in ops if op.error is not None} == {}
    for op in ops:
        w.finish(op)
    w.gate(ops)
    assert {op.name: op.error for op in ops if op.error is not None} == {}
    return [(s[0], s[6]) for s in tr.spans]


def _methods(spans):
    return Counter(work["method"] for name, work in spans if name == "samplers.batch_sample")


def test_sampling_workload_runs_clean(bench, tmp_path):
    tracer, workloads = bench
    w = workloads.SamplingWorkload(
        "copy-small", lambda seed: mb.make_joint("copy", 3, 2), chains=8, calls=1, steps=4
    )
    w.build(0)
    assert _methods(_iterate(tracer, w, True, tmp_path)) == Counter(workloads.METHODS)


def test_pipeline_workload_runs_clean(bench, tmp_path):
    tracer, workloads = bench
    w = workloads.PipelineWorkload()
    w.train_steps, w.sample_calls, w.chains, w.steps = 300, 1, 8, 4
    w.build(0)
    spans = _iterate(tracer, w, False, tmp_path)
    assert _methods(spans) == Counter(workloads.METHODS)
    assert [name for name, _ in spans].count("predictors.train_predictor") == 1
