"""The three benchmark workloads: inputs made from the seed, timed repetitions
through spikemap's public entry points, and checks on every output.

- ``sweep``: the acceptance-size (gamma, c) sweep through ``spikemap sweep``,
  single process.  Orbit detection and ``model.step`` do nearly all the work.
- ``lyap``: the ensemble ``spikemap lyap`` over a 3x3 grid on two worker
  processes.  Every step advances a trajectory and 8 companions; no orbit
  detection.
- ``coding``: record a raster with ``spikemap simulate``, read it back,
  reconstruct it bit for bit, write the transition graph with
  ``spikemap graph`` and check the raster against it.  Write-and-read and
  memory heavy; ``step`` runs only inside ``simulate``.

A repetition returns its time split into stages, which the runner corrects
for the CPU's speed at the time (see speed.py).
"""

from __future__ import annotations

import functools
import hashlib
import io
import json
import math
import shutil
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference"
SRC = ROOT / "src"

# Stated tolerance for reference comparisons: loose enough for a documented
# ulp-level re-baseline of the kernel, tight enough to catch any real change.
REF_RTOL = 1e-9
REF_ATOL = 1e-12


class SourceMissing(RuntimeError):
    """The checkout has no spikemap sources next to the benchmark."""


def import_spikemap():
    """Import spikemap from this checkout's ``src/``, never from anywhere else."""
    if not (SRC / "spikemap" / "__init__.py").is_file():
        raise SourceMissing(f"no spikemap package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import spikemap
    import spikemap.cli  # noqa: F401  (binds every module as a package attribute)
    if Path(spikemap.__file__).resolve().parent != (SRC / "spikemap").resolve():
        raise SourceMissing(f"spikemap imported from {spikemap.__file__}, not from {SRC}")
    return spikemap


@dataclass
class Checks:
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)

    def expect(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return bool(ok)


class _CellClock(io.TextIOBase):
    """Stands in for stderr during ``spikemap sweep``: stamps each progress line."""

    def __init__(self):
        self.stamps = []
        self.other = []

    def write(self, s):
        if s.startswith("cell "):
            self.stamps.append(perf_counter())
        elif s.strip():
            self.other.append(s)
        return len(s)


def _run_cli(argv, stderr=None) -> int:
    from spikemap import cli
    with redirect_stdout(io.StringIO()), redirect_stderr(stderr or _CellClock()):
        return cli.main(argv)


def _digest(*paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        with open(p, "rb") as f:
            for block in iter(lambda: f.read(1 << 20), b""):
                h.update(block)
    return h.hexdigest()


def _csv_rows(path) -> list:
    with open(path, encoding="utf-8") as f:
        return [ln.rstrip("\n").split(",") for ln in f if ln.strip() and not ln.startswith("#")]


def _close(a: str, b: str) -> bool:
    x, y = float(a), float(b)
    if math.isnan(x) or math.isnan(y):
        return math.isnan(x) and math.isnan(y)
    if math.isinf(x) or math.isinf(y):
        return x == y
    return abs(x - y) <= REF_ATOL + REF_RTOL * abs(y)


def match_reference(path, ref_path) -> str:
    """'' when the CSV's data rows match the reference within tolerance, else the first mismatch."""
    got, want = _csv_rows(path), _csv_rows(ref_path)
    if len(got) != len(want) or got[0] != want[0]:
        return f"{path}: {len(got)} rows / header {got[0] if got else None} vs reference {ref_path}"
    for i, (g, w) in enumerate(zip(got[1:], want[1:]), start=1):
        if len(g) != len(w) or not all(_close(a, b) for a, b in zip(g, w)):
            return f"{path} row {i}: {g} vs reference {w}"
    return ""


class Workload:
    name = ""
    n = 0  # network size of every step call, for the computed flop/byte counts

    def __init__(self, seed: int, work: Path, tiny: bool = False):
        self.seed = seed
        self.work = work
        self.tiny = tiny
        self.checks = Checks()
        self.digests = []
        self.extra = {}

    def setup(self) -> None:
        """Make the inputs from the seed.  Everything here counts as set-up time."""
        if self.work.exists():
            shutil.rmtree(self.work)
        self.work.mkdir(parents=True)

    def rep(self, serial: bool = False) -> dict:
        """One repetition of the job: {stage: (start, end)} in perf_counter seconds."""
        raise NotImplementedError

    def finish(self) -> None:
        """Checks that need every repetition: byte-identical outputs, references."""
        self.checks.expect(len(set(self.digests)) == 1,
                           f"{self.name}: outputs differ between repetitions of one seed")

    def stage_extra(self, stages: dict) -> dict:
        """Informational figures from the per-stage median times."""
        return {}


class Sweep(Workload):
    name = "sweep"
    n = 20
    GRID = ("0:0.875:8", "0.25:3:8")
    NETWORKS = 1
    INITS = 5
    TINY = dict(n=8, gammas="0.5,0.875", cs="0.5,3", networks=1, inits=2)
    PROBE = ["sweep", "--n", "20", "--gammas", "0.25,0.875", "--cs", "0.5,2.5",
             "--networks", "1", "--inits", "3", "--seed", "7"]

    def __init__(self, seed, work, tiny=False):
        super().__init__(seed, work, tiny)
        if tiny:
            t = self.TINY
            self.n = t["n"]
            self.argv = ["sweep", "--n", str(t["n"]), "--gammas", t["gammas"], "--cs", t["cs"],
                         "--networks", str(t["networks"]), "--inits", str(t["inits"])]
            self.cells = 4
        else:
            self.argv = ["sweep", "--n", str(self.n), "--gammas", self.GRID[0], "--cs", self.GRID[1],
                         "--networks", str(self.NETWORKS), "--inits", str(self.INITS)]
            self.cells = 64
        self.argv += ["--threads", "1", "--seed", str(seed), "--out", str(work / "sweep")]

    def rep(self, serial=False):
        clock = _CellClock()
        t0 = perf_counter()
        rc = _run_cli(self.argv, clock)
        t1 = perf_counter()
        ok = self.checks.expect(rc == 0, f"sweep exited {rc}: {''.join(clock.other)[-300:]}")
        ok &= self.checks.expect(len(clock.stamps) == self.cells,
                                 f"sweep reported {len(clock.stamps)} of {self.cells} cells")
        if not ok:
            return {"total": (t0, t1)}
        csv, heat = self.work / "sweep.csv", self.work / "sweep.heatmap.csv"
        self._check_output(csv, heat)
        self.digests.append(_digest(csv, heat))
        marks = [t0] + clock.stamps + [t1]
        stages = {"head": (marks[0], marks[1]), "tail": (marks[-2], marks[-1])}
        for k in range(self.cells):
            stages[f"cell_{k:02d}"] = (marks[k + 1], marks[k + 2])
        return stages

    def _check_output(self, csv, heat):
        rows = _csv_rows(csv)
        header, data = rows[0], rows[1:]
        c = self.checks
        c.expect(len(data) == self.cells, f"sweep.csv has {len(data)} rows, want {self.cells}")
        col = {k: i for i, k in enumerate(header)}
        heat_rows = _csv_rows(heat)[1:]
        heat_vals = [v for r in heat_rows for v in r[1:]]
        c.expect(len(heat_vals) == len(data), "heatmap size differs from the sweep rows")
        networks = int(self.argv[self.argv.index("--networks") + 1])
        for i, r in enumerate(data):
            samples = int(r[col["samples"]])
            death = float(r[col["death_fraction"]])
            undet = float(r[col["undetermined_fraction"]])
            avg_d, log_d = float(r[col["avg_d_as"]]), float(r[col["log10_d_as"]])
            c.expect(samples == networks, f"sweep row {i}: samples {samples}")
            c.expect(0.0 <= death <= 1.0 and 0.0 <= undet <= 1.0, f"sweep row {i}: fractions {r}")
            if death == 1.0:  # neural death: the only orbit is the reset state, gap = theta exactly
                c.expect(avg_d == 1.0, f"sweep row {i}: death cell with d_as {avg_d}")
            if networks == 1 and not math.isnan(avg_d):
                c.expect(log_d == math.log10(max(avg_d, 1e-300)), f"sweep row {i}: log10 mismatch")
            if i < len(heat_vals):
                c.expect(_close(heat_vals[i], r[col["log10_d_as"]]), f"heatmap cell {i} differs")

    def finish(self):
        super().finish()
        ref = REFERENCE / f"sweep-seed{self.seed}.csv"
        if not self.tiny and ref.is_file():
            msg = match_reference(self.work / "sweep.csv", ref)
            self.checks.expect(not msg, msg)
        probe_reference(self, self.PROBE, "sweep-probe.csv", ".csv")

    def stage_extra(self, stages):
        cells = sorted(v * 1e3 for k, v in stages.items() if k.startswith("cell_"))
        if len(cells) < 11:
            return {}
        # p84: the highest percentile with at least ten cells beyond it (64 cells: index 53).
        return {"cell_ms_p50": (float(np.median(cells)), "ms"),
                "cell_ms_p84": (cells[len(cells) - 11], "ms"),
                "cells": (len(cells), "count")}


class Lyap(Workload):
    name = "lyap"
    n = 20
    THREADS = 2
    PROBE = ["lyap", "--n", "20", "--gammas", "0.5,0.875", "--cs", "1,3", "--networks", "1",
             "--inits", "1", "--horizon", "300", "--threads", "1", "--seed", "7"]

    def __init__(self, seed, work, tiny=False):
        super().__init__(seed, work, tiny)
        if tiny:
            self.n = 8
            self.argv = ["lyap", "--n", "8", "--gammas", "0.5,0.875", "--cs", "1,3",
                         "--networks", "1", "--inits", "1", "--horizon", "100"]
            self.cells = 4
        else:
            self.argv = ["lyap", "--n", str(self.n), "--gammas", "0.3,0.6,0.875", "--cs", "0.5,1.5,3",
                         "--networks", "2", "--inits", "2", "--horizon", "1000"]
            self.cells = 9
        self.argv += ["--ball", "1e-3", "--directions", "8", "--seed", str(seed),
                      "--out", str(work / "lyap.csv")]

    def rep(self, serial=False):
        # Spans in pool workers are invisible to the tracer, so a traced run is serial.
        threads = 1 if serial else self.THREADS
        err = _CellClock()
        t0 = perf_counter()
        rc = _run_cli(self.argv + ["--threads", str(threads)], err)
        t1 = perf_counter()
        if self.checks.expect(rc == 0, f"lyap exited {rc}: {''.join(err.other)[-300:]}"):
            out = self.work / "lyap.csv"
            rows = _csv_rows(out)[1:]
            self.checks.expect(len(rows) == self.cells, f"lyap.csv has {len(rows)} rows")
            for r in rows:
                lam = float(r[3])
                self.checks.expect(not math.isnan(lam) and lam < math.inf, f"lyap row {r}")
            self.digests.append(_digest(out))
        return {"total": (t0, t1)}

    def finish(self):
        super().finish()
        ref = REFERENCE / f"lyap-seed{self.seed}.csv"
        if not self.tiny and ref.is_file():
            msg = match_reference(self.work / "lyap.csv", ref)
            self.checks.expect(not msg, msg)
        probe_reference(self, self.PROBE, "lyap-probe.csv", "")


def probe_reference(wl: Workload, argv, ref_name: str, suffix: str) -> None:
    """Run a small fixed-seed job and hold its CSV to the stored reference."""
    out = wl.work / "probe"
    rc = _run_cli(argv + ["--out", str(out)])
    ref = REFERENCE / ref_name
    if wl.checks.expect(rc == 0, f"probe {argv[0]} exited {rc}") and wl.checks.expect(
            ref.is_file(), f"missing reference {ref}"):
        msg = match_reference(Path(str(out) + suffix), ref)
        wl.checks.expect(not msg, msg)


@functools.lru_cache(maxsize=2)
def _quiet_bits(n: int) -> np.ndarray:
    return ((np.arange(1 << n)[:, None] >> np.arange(n)) & 1) == 0


def legal_edge_total(w: np.ndarray, gamma: float, theta: float) -> int:
    """Legal transitions of a zero-drive net, counted here independently of spikemap.

    Per source pattern a quiescent neuron is free when its leaked potential
    plus current can land on either side of theta; each free neuron doubles
    the successors, fired neurons are forced.  Currents are built by
    doubling (pattern p | bit k adds column k), so near-threshold sums may
    round differently from spikemap's: this only picks the input.
    """
    n = w.shape[0]
    cur = np.empty((1 << n, n))
    cur[0] = 0.0
    for k in range(n):
        np.add(cur[:1 << k], w[:, k], out=cur[1 << k:2 << k])
    quiet = _quiet_bits(n)
    v_min = min(0.0, float(np.min(np.where(w < 0.0, w, 0.0).sum(axis=1))) / (1.0 - gamma))
    free = quiet & (cur > theta * (1.0 - gamma)) & (cur < theta - gamma * v_min)
    return int(np.sum(1 << free.sum(axis=1)))


class Coding(Workload):
    name = "coding"
    n = 16
    GAMMA, C, THETA = 0.5, 1.5, 1.0
    T_MAX = 20_000
    # Legal edge counts of random N=16 nets spread over 0.2M..0.8M and grow
    # smoothly with the weights' scale.  Scaling the seed's net until it has
    # this many keeps the graph's size, and so its cost and memory, the same
    # for every seed; a fixed number of bisection steps keeps set-up time so.
    TARGET_EDGES = 242_000
    BISECTIONS = 16

    def __init__(self, seed, work, tiny=False):
        super().__init__(seed, work, tiny)
        if tiny:
            self.n, self.t_max = 8, 500
        else:
            self.t_max = self.T_MAX
        self.net = str(work / "net.json")
        self.prefix = str(work / "run")
        self.graph_out = str(work / "graph.json")

    def setup(self):
        super().setup()
        rng = np.random.default_rng(self.seed)
        w = rng.normal(0.0, self.C / math.sqrt(self.n), size=(self.n, self.n))
        scale = 1.0
        if not self.tiny:
            lo, hi = 0.0, 2.0
            for _ in range(self.BISECTIONS):
                scale = (lo + hi) / 2
                if legal_edge_total(scale * w, self.GAMMA, self.THETA) < self.TARGET_EDGES:
                    lo = scale
                else:
                    hi = scale
        w = scale * w
        self.extra["legal_edges"] = (legal_edge_total(w, self.GAMMA, self.THETA), "count")
        self.extra["weight_scale"] = (scale, "ratio")
        payload = {"n": self.n, "gamma": self.GAMMA, "theta": self.THETA,
                   "weights": w.tolist(), "i_ext": [0.0] * self.n}
        with open(self.net, "w", encoding="utf-8") as f:
            json.dump(payload, f)

    def rep(self, serial=False):
        from spikemap import coding, fileio
        c = self.checks
        stages = {}

        def timed(stage, fn, *args):
            t = perf_counter()
            result = fn(*args)
            stages[stage] = (t, perf_counter())
            return result

        rc = timed("simulate", _run_cli, ["simulate", "--net", self.net, "--v0", "random",
                                          "--seed", str(self.seed), "--t-max", str(self.t_max),
                                          "--out", self.prefix])
        if not c.expect(rc == 0, f"simulate exited {rc}"):
            return stages
        _, times, states = timed("read_trajectory", fileio.read_trajectory_csv, self.prefix + ".csv")
        raster = timed("read_raster", fileio.read_raster_text, self.prefix + ".raster")
        net = timed("read_network", fileio.read_network, self.net)
        c.expect(states.shape == (self.t_max + 1, self.n), f"trajectory shape {states.shape}")
        c.expect(np.array_equal(times, np.arange(self.t_max + 1)), "trajectory times")
        c.expect(np.array_equal(raster, (states >= net.theta).astype(np.uint8)),
                 "raster is not the encoding of the trajectory")
        rebuilt = timed("reconstruct", coding.reconstruct_trajectory, net, states[0], raster)
        c.expect(rebuilt.tobytes() == states.tobytes(), "reconstruction is not bit-exact")

        rc = timed("graph", _run_cli, ["graph", "--net", self.net, "--out", self.graph_out])
        if not c.expect(rc == 0, f"graph exited {rc}"):
            return stages
        written = len(timed("read_graph", fileio.read_graph_json, self.graph_out)["edges"])
        graph = timed("build_graph", coding.build_transition_graph, net)
        counts = timed("counts", graph.counts)
        legal = counts["unconditional"] + counts["conditional"]
        c.expect(written == legal, f"graph JSON has {written} edges, counts() says {legal}")
        c.expect(timed("check_legal", coding.check_legal, raster, graph) is True,
                 "check_legal rejected a simulated raster")
        self.digests.append(_digest(self.prefix + ".csv", self.prefix + ".raster", self.graph_out))
        return stages


WORKLOADS = {w.name: w for w in (Sweep, Lyap, Coding)}
