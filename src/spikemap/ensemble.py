"""Random-network ensembles and (gamma, coupling) parameter sweeps.

Networks are drawn with i.i.d. Gaussian weights of variance C^2/N (the 1/N
scaling keeps the total input current's variance size-independent), zero
external drive by default.  Sweeping gamma and C maps out the transition
from global quiescence through a near-singular band to short stable cycles;
the per-cell log-distance surface is the plot-ready product.
"""

from __future__ import annotations

import functools
import math
from contextlib import closing
from dataclasses import dataclass

import numpy as np

from .model import NetworkParams, ValidationError, _as_count, _as_finite, _as_gamma, _as_number
from .orbits import (
    _batch_size,
    _cycles,
    _detection_params,
    _fan_out,
    _lyap_params,
    _lyapunov,
    _sample,
    _starts,
    classify_regime,
    dist_attractor_to_S,
)

__all__ = [
    "EnsembleSpec",
    "SweepCell",
    "LyapCell",
    "sample_network",
    "sweep",
    "lyapunov_map",
]

LOG10_FLOOR = 1e-300  # keeps the geometric mean finite when an orbit sits exactly on the threshold


@dataclass(frozen=True)
class EnsembleSpec:
    """Distribution of one random network: size, coupling scale, and map parameters.

    Every field is checked here and held as an int or a float: n and the map parameters
    by the rules of :class:`NetworkParams`, c finite and >= 0.  i_ext drives every neuron.
    """

    n: int
    c: float
    gamma: float
    theta: float = 1.0
    i_ext: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "n", _as_count(self.n, "n"))
        object.__setattr__(self, "c", _as_finite(self.c, "c", allow_zero=True))
        object.__setattr__(self, "gamma", _as_gamma(self.gamma))
        object.__setattr__(self, "theta", _as_finite(self.theta, "theta"))
        i_ext = _as_number(self.i_ext, "i_ext")
        if not math.isfinite(i_ext):
            raise ValidationError(f"i_ext must be finite, got {i_ext}")
        object.__setattr__(self, "i_ext", i_ext)


def sample_network(spec: EnsembleSpec, rng: np.random.Generator) -> NetworkParams:
    """Draw one network: weights i.i.d. N(0, c^2/n), diagonal included; +0.0 for c = 0."""
    sigma = spec.c / math.sqrt(spec.n)
    return NetworkParams(n=spec.n, gamma=spec.gamma, theta=spec.theta,
                         weights=rng.normal(0.0, sigma, size=(spec.n, spec.n)),
                         i_ext=np.full(spec.n, spec.i_ext, dtype=np.float64))


@dataclass(frozen=True)
class SweepCell:
    """Aggregates of one (gamma, c) grid cell over its sampled networks."""

    gamma: float
    c: float
    samples: int
    avg_d_as: float
    log10_d_as: float
    death_fraction: float
    avg_period: float
    undetermined_fraction: float


@dataclass(frozen=True)
class LyapCell:
    gamma: float
    c: float
    samples: int
    mean_lyapunov: float


def _stream(seed: int, gamma: float, c: float, *indices: int) -> np.random.Generator:
    """Rng keyed by the cell's parameter values, so results are independent of grid order."""
    bits = np.array([gamma, c], dtype=np.float64).view(np.uint64).tolist()  # the values' bits
    return np.random.default_rng(np.random.SeedSequence([int(seed), *bits, *map(int, indices)]))


def _grid_cells(worker, gammas, cs, n, networks_per_cell, inits_per_network, *, theta, i_ext,
                seed, threads, **params):
    """Run worker on every network of the (gamma, c) grid: sweep's and lyapunov_map's driver.

    Checked here, before any worker starts: each cell, an EnsembleSpec of its gamma, its c,
    n, theta and i_ext; networks_per_cell and inits_per_network, counts >= 1; seed, an
    integer >= 0; threads.  A task is (cell spec, network index); worker(tasks, seed=seed,
    inits=inits_per_network, **params), params being the map's run parameters, which the
    map checks, returns one result per task.  The batches are contiguous, of at most
    _batch_size(n) networks, and at least threads of them.  Yields (cell spec, checked
    inits_per_network, [one result per network]) per cell in grid order (gammas outer, cs
    inner), each as soon as the batch holding its last network is done.
    """
    cs = list(cs)
    grid = [EnsembleSpec(n=n, c=c, gamma=g, theta=theta, i_ext=i_ext) for g in gammas for c in cs]
    if not grid:
        raise ValidationError("gamma and c grids must be nonempty")
    networks = _as_count(networks_per_cell, "networks_per_cell")
    inits = _as_count(inits_per_network, "inits_per_network")
    run = functools.partial(worker, seed=_as_count(seed, "seed", least=0), inits=inits, **params)
    tasks = [(cell, k) for cell in grid for k in range(networks)]
    with closing(_fan_out(run, tasks, threads, _batch_size(grid[0].n))) as results:
        for cell in grid:
            yield cell, inits, [next(results) for _ in range(networks)]


def _mean(xs) -> float:  # NaN for no xs
    return float(np.mean(xs)) if xs else math.nan


def _run_sweep_batch(tasks, *, seed, inits, max_transient, max_period, tol, polish_steps) -> list:
    """(regime kind, attractor gap or None, periods, undetermined count) per network.

    Every start of every network in the batch is detected in one lockstep call.  A cell
    reads each cycle's period, gap and raster up to rotation alone, none of which depends
    on when or at which phase a start entered its cycle, so no entry pass is run.
    """
    nets = [sample_network(spec, _stream(seed, spec.gamma, spec.c, k)) for spec, k in tasks]
    starts = [_starts(net, inits, _stream(seed, spec.gamma, spec.c, k, 1))
              for net, (spec, k) in zip(nets, tasks)]
    cycles = _cycles(nets, starts, max_transient, max_period, tol, polish_steps)
    out = []
    for m in range(len(nets)):
        orbits, _, undetermined = _sample(cycles[m * inits:(m + 1) * inits], tol)
        d = dist_attractor_to_S(orbits) if orbits else None
        out.append((classify_regime(orbits, undetermined).kind, d, [o.period for o in orbits],
                    undetermined))
    return out


def sweep(
    gammas,
    cs,
    n: int,
    networks_per_cell: int,
    inits_per_network: int,
    *,
    max_transient: int = 3_000,
    max_period: int = 1_000,
    tol: float = 1e-10,
    polish_steps: int = 20_000,
    theta: float = 1.0,
    i_ext: float = 0.0,
    seed: int = 0,
    threads: int = 1,
    progress=None,
) -> list[SweepCell]:
    """Sample networks over the (gamma, c) grid and aggregate per cell.

    Cells are independent: each network's random stream is derived from
    (seed, gamma, c, network index) by value, so permuting the grids or the
    schedule cannot change any cell.  Orbit detection runs on every start of
    every network of a batch at once, a batch being at most 64 contiguous
    networks of the grid (fewer for n > 128).  A cell depends only on the
    cycles found (their periods, gaps and rasters up to rotation), never on
    transients, so the sweep does not locate them.  Every argument is checked before
    any worker starts: each grid cell as an :class:`EnsembleSpec` of its gamma and c with
    n, theta and i_ext, and the run parameters, the seed an integer >= 0.
    Rows come back in grid order (gammas outer, cs inner); ``progress(done, total, cell)``
    is called per cell, as the batch holding the cell's last network finishes.
    """
    gammas, cs = list(gammas), list(cs)
    max_transient, max_period, tol, polish_steps = _detection_params(
        max_transient, max_period, tol, polish_steps)
    cells = []
    for spec, inits, nets in _grid_cells(
            _run_sweep_batch, gammas, cs, n, networks_per_cell, inits_per_network, theta=theta,
            i_ext=i_ext, seed=seed, threads=threads, max_transient=max_transient,
            max_period=max_period, tol=tol, polish_steps=polish_steps):
        kinds, gaps, periods, undetermined = zip(*nets)
        dists = [d for d in gaps if d is not None]
        cells.append(SweepCell(
            gamma=spec.gamma, c=spec.c, samples=len(nets), avg_d_as=_mean(dists),
            log10_d_as=_mean([math.log10(max(d, LOG10_FLOOR)) for d in dists]),
            death_fraction=kinds.count("NeuralDeath") / len(nets),
            avg_period=_mean([p for ps in periods for p in ps]),
            undetermined_fraction=sum(undetermined) / (len(nets) * inits)))
        if progress is not None:
            progress(len(cells), len(gammas) * len(cs), cells[-1])
    return cells


def _run_lyap_batch(tasks, *, seed, inits, ball_radius, num_directions, horizon, burn_in) -> list:
    """The rates of each task's network and starts, every network of the batch in lockstep."""
    nets = [sample_network(spec, _stream(seed, spec.gamma, spec.c, k)) for spec, k in tasks]
    rngs = [_stream(seed, spec.gamma, spec.c, k, 2) for spec, k in tasks]
    return _lyapunov(nets, rngs, inits, ball_radius, num_directions, horizon, burn_in)


def lyapunov_map(
    gammas,
    cs,
    n: int,
    networks_per_cell: int,
    inits_per_network: int,
    ball_radius: float,
    horizon: int,
    *,
    num_directions: int = 8,
    burn_in: int = 100,
    theta: float = 1.0,
    i_ext: float = 0.0,
    seed: int = 0,
    threads: int = 1,
) -> list[LyapCell]:
    """Mean finite-ball expansion rate per (gamma, c) cell.

    Every argument is checked here, before any worker starts, as :func:`sweep` checks it.
    """
    ball_radius, num_directions, horizon, burn_in = _lyap_params(
        ball_radius, num_directions, horizon, burn_in)
    return [
        LyapCell(gamma=spec.gamma, c=spec.c, samples=len(nets),
                 mean_lyapunov=float(np.mean([lam for vals in nets for lam in vals])))
        for spec, _, nets in _grid_cells(
            _run_lyap_batch, gammas, cs, n, networks_per_cell, inits_per_network, theta=theta,
            i_ext=i_ext, seed=seed, threads=threads, ball_radius=ball_radius,
            num_directions=num_directions, horizon=horizon, burn_in=burn_in)
    ]
