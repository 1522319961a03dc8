"""Tests of the benchmark itself, at the tiniest sizes.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import contextlib
import io
import json
import multiprocessing
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(tmp_path, workload, trace):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = run.main(["--workload", workload, "--seed", "3", "--seconds", "0.5", "--trace", str(trace),
                       "--tiny", "--result", str(tmp_path / "results.jsonl")])
    assert rc == 0
    return out.getvalue().splitlines()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_reports_every_metric_with_its_unit(tmp_path, workload, trace):
    lines = _run(tmp_path, workload, trace)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    for m in wanted:  # every metric is also printed by name with its unit
        assert any(ln.startswith(f"{workload} {m['name']} ") and ln.endswith(f" {m['unit']}")
                   for ln in lines[:-1])
    record = json.loads((tmp_path / "results.jsonl").read_text().splitlines()[-1])
    for key in ("git_sha", "git_dirty", "python", "numpy", "nproc", "cpu", "seed"):
        assert key in record["env"]


def _traced_rep(tmp_path, workload_cls, tracer):
    spikemap = workloads.import_spikemap()
    wl = workload_cls(5, tmp_path / "work", tiny=True)
    wl.setup()
    tracer.install(spikemap)
    try:
        t0 = perf_counter()
        wl.rep(serial=True)
        wall = perf_counter() - t0
    finally:
        tracer.restore()
    assert wl.checks.failed == 0, wl.checks.failures
    return wall


@pytest.mark.parametrize("cls", [workloads.Sweep, workloads.Coding])
def test_spans_nest_in_time_and_share_a_run_id(tmp_path, cls):
    tracer = tracing.Tracer("run-xyz")
    _traced_rep(tmp_path, cls, tracer)
    by_id = {s.span_id: s for s in tracer.spans}
    assert len(by_id) == len(tracer.spans) > 0
    assert {s.run_id for s in tracer.spans} == {"run-xyz"}
    for s in tracer.spans:
        assert s.start <= s.end
        if s.parent_id:
            parent = by_id[s.parent_id]
            assert parent.start <= s.start and s.end <= parent.end
    assert any(s.name == "cli.main" and s.parent_id == 0 for s in tracer.spans)


def test_self_times_sum_to_at_most_the_traced_wall(tmp_path):
    tracer = tracing.Tracer("r")
    wall = _traced_rep(tmp_path, workloads.Coding, tracer)
    total_self = sum(a.self_s for a in tracer.aggs.values())
    assert 0 < total_self <= wall
    metrics = tracing.per_layer_metrics(tracer, 8, wall, 0.0)
    assert 0.5 < metrics["trace.coverage"][0] <= 1.0


def test_step_calls_are_attributed_to_the_enclosing_public_span(tmp_path):
    tracer = tracing.Tracer("r")
    _traced_rep(tmp_path, workloads.Sweep, tracer)
    steps = tracer.aggs["model.step"].calls
    assert steps > 0
    # In a sweep every step is taken inside orbit detection.
    assert tracer.aggs["orbits.find_periodic_orbit"].step_calls == steps
    assert sum(s.step_calls for s in tracer.spans) == steps
    metrics = tracing.per_layer_metrics(tracer, 8, 1.0, 0.0)
    assert 0 < metrics["orbits.burnin_step_share"][0] < 1


def test_restore_puts_every_original_back(tmp_path):
    spikemap = workloads.import_spikemap()
    modules = [spikemap] + [getattr(spikemap, m) for m in tracing.MODULES]
    before = [(m, dict(vars(m))) for m in modules]
    graph_methods = dict(vars(spikemap.coding.TransitionGraph))
    original_step = spikemap.orbits.step
    tracer = tracing.Tracer("r")
    tracer.install(spikemap)
    assert spikemap.orbits.step is not original_step
    assert spikemap.model.step is spikemap.orbits.step  # one wrapper at every binding
    tracer.restore()
    assert tracer.is_restored()
    for mod, names in before:
        for name, value in names.items():
            assert vars(mod)[name] is value, f"{mod.__name__}.{name}"
    assert dict(vars(spikemap.coding.TransitionGraph)) == graph_methods


def _busy(seconds):
    end = perf_counter() + seconds
    while perf_counter() < end:
        speed._kernel()


def test_speedometer_samples_the_process_and_its_forked_workers():
    ctx = multiprocessing.get_context("fork")
    with speed.Speedometer() as speedo:
        t0 = perf_counter()
        _busy(speed.WINDOW_S + 0.1)  # longer than the averaging window: its own samples only
        t1 = perf_counter()
        child = ctx.Process(target=_busy, args=(0.3,))
        child.start()
        child.join(timeout=30)
    assert child.exitcode == 0
    assert set(speedo.slots.tolist()) == {0, 1}  # the parent and the forked child
    assert np.all(speedo.ends > speedo.starts)
    # The parent's stretch: its time outside the samples, at the reference kernel speed.
    inside = (speedo.starts >= t0) & (speedo.starts <= t1)
    kernel = speedo.ends[inside] - speedo.starts[inside]
    assert kernel.size > 5
    want = ((t1 - t0) - kernel.sum()) * speed.REFERENCE_KERNEL_S / kernel.mean()
    assert speedo.corrected(t0, t1) == pytest.approx(want)


def test_reference_match_uses_the_stated_tolerance(tmp_path):
    ref = tmp_path / "ref.csv"
    ref.write_text("# seed=1\na,b\n1.0,0.5\n")
    near = tmp_path / "near.csv"
    near.write_text("a,b\n1.0000000000001,0.5\n")
    far = tmp_path / "far.csv"
    far.write_text("a,b\n1.000001,0.5\n")
    assert workloads.match_reference(near, ref) == ""
    assert "row 1" in workloads.match_reference(far, ref)


def _record(workload, value):
    return json.dumps({"env": {"workload": workload, "trace": 0}, "failed": 0,
                       "metrics": {"wall_s": {"value": value, "unit": "s"}}})


def test_compare_prints_ratio_and_marks_wide_spreads_unresolved(tmp_path):
    base, steady, wide = (tmp_path / n for n in ("a.jsonl", "b.jsonl", "c.jsonl"))
    base.write_text("\n".join(_record("sweep", v) for v in (1.0, 1.01, 0.99, 1.0)))
    steady.write_text("\n".join(_record("sweep", v) for v in (0.5, 0.51, 0.49, 0.5)))
    wide.write_text("\n".join(_record("sweep", v) for v in (0.5, 2.0, 0.4, 3.0)))
    bench = ROOT / "BENCHMARK.json"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        compare.main([str(base), str(steady)], bench)
        compare.main([str(base), str(wide)], bench)
    text = out.getvalue()
    assert "ratio 0.5000 (base 1)" in text and "within bound" in text
    assert "unresolved" in text


def test_fails_without_a_result_where_the_program_is_missing(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    for rel in SPEC["paths"]:
        shutil.copytree(ROOT / rel, tmp_path / rel, ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run([sys.executable] + SPEC["command"][1:] +
                          ["--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
