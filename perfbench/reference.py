"""Rewrite the reference CSVs the sweep and lyap checks hold outputs to.

Run this only for a deliberate, explained change of output bits, and say in
CHANGES.md which values moved and why:

    python3 perfbench/run.py --rebaseline
"""

from __future__ import annotations

import shutil
from pathlib import Path

import workloads

# Full-size outputs are stored for these seeds; every run also checks a small probe.
SEEDS = range(1, 11)


def rebaseline() -> int:
    workloads.import_spikemap()
    work = workloads.HERE / "out" / "work" / "rebaseline"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ref = workloads.REFERENCE
    ref.mkdir(exist_ok=True)
    try:
        for cls, suffix in ((workloads.Sweep, ".csv"), (workloads.Lyap, "")):
            out = work / "probe"
            if workloads._run_cli(cls.PROBE + ["--out", str(out)]) != 0:
                raise RuntimeError(f"{cls.name} probe failed")
            shutil.copyfile(Path(str(out) + suffix), ref / f"{cls.name}-probe.csv")
            for seed in SEEDS:
                wl = cls(seed, work / f"{cls.name}-{seed}")
                wl.setup()
                wl.rep()
                if wl.checks.failed:
                    raise RuntimeError(f"{cls.name} seed {seed}: {wl.checks.failures}")
                name = "sweep.csv" if cls is workloads.Sweep else "lyap.csv"
                shutil.copyfile(wl.work / name, ref / f"{cls.name}-seed{seed}.csv")
                print(f"wrote {ref / f'{cls.name}-seed{seed}.csv'}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0
