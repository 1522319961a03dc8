"""spikemap benchmark: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --compare base.jsonl change.jsonl
    python3 perfbench/run.py --rebaseline

A run prints one line per metric (name, value, unit), then, as its last
line, a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics of BENCHMARK.json with ``--trace 0``,
the per-layer metrics with ``--trace 1``.  It appends a fuller record
(environment, every stage time, failures) to ``perfbench/out/results.jsonl``
or to ``--result``, and with ``--trace 1`` writes the recorded spans next to
it.  See perfbench/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import uuid
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_SAMPLES = 5


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=("sweep", "lyap", "coding"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="smallest sizes, for the benchmark's own tests")
    p.add_argument("--result", type=Path, default=OUT / "results.jsonl")
    p.add_argument("--compare", nargs="+", metavar="RESULTS", help="one file: spreads; two: base vs change")
    p.add_argument("--rebaseline", action="store_true", help="rewrite the reference CSVs")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _workdir(args, tag: str) -> Path:
    return OUT / "work" / f"{args.workload}-s{args.seed}{'-tiny' if args.tiny else ''}-{tag}"


def setup_probe(args) -> tuple:
    """Import spikemap and make the inputs, in a fresh interpreter with numpy loaded.

    Returns (corrected, raw) seconds.  numpy's own import is left out: it
    is not the program's, and under neighbours' load it slows unlike
    anything the speedometer's kernel measures.
    """
    import speed
    with speed.Speedometer() as speedo:
        t0 = perf_counter()
        import workloads
        workloads.import_spikemap()
        wl = workloads.WORKLOADS[args.workload](args.seed, _workdir(args, f"probe{os.getpid()}"), args.tiny)
        wl.setup()
        t1 = perf_counter()
    shutil.rmtree(wl.work, ignore_errors=True)
    return speedo.corrected(t0, t1), t1 - t0


def measure_setup(args) -> list:
    """(corrected, raw) set-up times from fresh interpreters, each waited for."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)] + (["--tiny"] if args.tiny else [])
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()[-500:]}")
        corrected, raw = done.stdout.split()[-2:]
        samples.append((float(corrected), float(raw)))
    return samples


def _timed_reps(wl, seconds: float, tracer_factory=None):
    """Repetitions until the next one would overrun ``seconds`` (at least one).

    With a tracer factory every untraced repetition is followed by a traced
    one, both serial, so the two differ only by the tracing.
    """
    untraced, traced, tracers = [], [], []
    serial = tracer_factory is not None
    start = perf_counter()
    while True:
        untraced.append(wl.rep(serial=serial))
        rep_s = _span(untraced[-1])
        if serial:
            tracer = tracer_factory()
            try:
                traced.append(wl.rep(serial=True))
            finally:
                tracer.restore()
            tracers.append(tracer)
            rep_s += _span(traced[-1])
        if perf_counter() - start + rep_s > seconds:
            return untraced, traced, tracers


def _span(stages: dict) -> float:
    return sum(end - start for start, end in stages.values())


def median_of_stages(reps: list) -> dict:
    """Per-stage medians; a repetition cut short by a failure lacks later stages."""
    stages = dict.fromkeys(k for r in reps for k in r)
    return {k: statistics.median([r[k] for r in reps if k in r]) for k in stages}


def environment(args) -> dict:
    import numpy
    env = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "tiny": args.tiny, "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": os.cpu_count(), "cpu": _cpu_model(), "git_sha": None, "git_dirty": None,
    }
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30)
            dirty = subprocess.run(["git", "status", "--porcelain", "--", "src"], cwd=ROOT,
                                   capture_output=True, text=True, timeout=30)
            env["git_sha"] = sha.stdout.strip() or None
            env["git_dirty"] = bool(dirty.stdout.strip())
        except (OSError, subprocess.TimeoutExpired):
            pass
    return env


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def run_workload(args) -> dict:
    import speed
    import tracing
    import workloads

    spikemap = workloads.import_spikemap()
    setup_samples = [] if args.trace else measure_setup(args)
    wl = workloads.WORKLOADS[args.workload](args.seed, _workdir(args, "run"), args.tiny)
    wl.setup()
    run_id = uuid.uuid4().hex

    def new_tracer():
        tracer = tracing.Tracer(run_id)
        tracer.install(spikemap)
        return tracer

    speedo = speed.Speedometer()
    try:
        with speedo if not args.trace else contextlib.nullcontext():
            untraced, traced, tracers = _timed_reps(wl, args.seconds, new_tracer if args.trace else None)
        wl.finish()
    finally:
        shutil.rmtree(wl.work, ignore_errors=True)

    raw = [_span(r) for r in untraced]
    record = {"env": environment(args), "run_id": run_id, "rep_raw_s": raw}
    info = {"wall_samples": (len(raw), "count"), "wall_raw_median_s": (statistics.median(raw), "s")}
    notes = []
    if args.trace:
        # Counts and self times from the first traced repetition; overhead from the best of each kind.
        overhead = min(_span(r) for r in traced) / min(raw) - 1.0
        metrics = tracing.per_layer_metrics(tracers[0], wl.n, _span(traced[0]), overhead)
        wl.checks.expect(all(t.is_restored() for t in tracers), "tracer left a wrapper in place")
        record["spans_file"] = str(_write_spans(args, tracers[0]))
        if args.workload == "lyap":
            notes.append("lyap is traced at --threads 1: spans in pool workers are not visible")
    else:
        corrected = [{k: speedo.corrected(a, b) for k, (a, b) in r.items()} for r in untraced]
        stages = median_of_stages(corrected)
        metrics = {
            "setup_s": (statistics.median(c for c, _ in setup_samples), "s"),
            "wall_s": (statistics.median(sum(r.values()) for r in corrected), "s"),
            "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        }
        info["setup_raw_median_s"] = (statistics.median(r for _, r in setup_samples), "s")
        info.update(wl.stage_extra(stages))
        record.update(setup_samples_s=setup_samples, stage_median_s=stages,
                      kernel_samples=speedo.samples)
    info["failed_frac"] = (wl.checks.failed / max(wl.checks.attempted, 1), "ratio")
    info.update(wl.extra)
    record.update(metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                  info={k: {"value": v, "unit": u} for k, (v, u) in info.items()},
                  notes=notes, failures=wl.checks.failures[:20], correct=wl.checks.failed == 0,
                  attempted=wl.checks.attempted, failed=wl.checks.failed)
    return record


def _write_spans(args, tracer) -> Path:
    path = args.result.with_name(f"spans-{args.workload}-s{args.seed}.jsonl")
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        for s in tracer.spans:
            f.write(json.dumps(s.__dict__) + "\n")
    return path


def main(argv=None) -> int:
    args = _parse(argv)
    sys.path.insert(0, str(HERE))
    if args.compare:
        import compare
        return compare.main(args.compare, ROOT / "BENCHMARK.json")
    if args.rebaseline:
        import reference
        return reference.rebaseline()
    if args.workload is None:
        print("error: --workload is required", file=sys.stderr)
        return 2
    if args.setup_probe:  # before anything imports spikemap: the probe times that import
        print("%r %r" % setup_probe(args))
        return 0
    import workloads
    try:
        record = run_workload(args)
    except workloads.SourceMissing as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    args.result.parent.mkdir(parents=True, exist_ok=True)
    with open(args.result, "a", encoding="utf-8") as f:
        f.write(json.dumps(record) + "\n")
    for note in record["notes"]:
        print(f"note: {note}")
    for failure in record["failures"]:
        print(f"FAILED: {failure}")
    for group in ("metrics", "info"):
        for k, m in record[group].items():
            print(f"{args.workload} {k} {m['value']!r} {m['unit']}")
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
