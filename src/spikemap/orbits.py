"""Asymptotics: periodic-orbit detection, distances to the firing threshold,
regime classification, and the finite-ball expansion-rate estimator.

The map contracts inside each constant-pattern domain, so generic long-run
behaviour is a finite set of stable periodic orbits.  The quantity that
organizes everything here is the gap between an orbit (or trajectory) and
the singularity set {some v_i = theta}: orbits with a large gap are robust,
orbits with a tiny gap make the dynamics look chaotic at any perturbation
scale above the gap.
"""

from __future__ import annotations

import functools
import math
import operator
import warnings
from dataclasses import dataclass, replace
from typing import Optional, Union

import numpy as np

from .model import (
    NetworkParams,
    Trajectory,
    _Stack,
    ValidationError,
    _advance,
    _affine,
    _as_array,
    _as_count,
    _as_finite,
    _as_gamma,
    _as_number,
    _fires,
    _wz,
    compute_bounds,
    max_dist,
    step,
)

__all__ = [
    "OrbitReport",
    "Undetermined",
    "find_periodic_orbit",
    "OmegaSample",
    "omega_sample",
    "dist_traj_to_S",
    "dist_attractor_to_S",
    "markov_horizon",
    "period_bound_log2",
    "RegimeLabel",
    "classify_regime",
    "effective_lyapunov",
]

DEFAULT_MAX_TRANSIENT = 100_000
DEFAULT_MAX_PERIOD = 10_000
DEFAULT_TOL = 1e-10
DEFAULT_POLISH_STEPS = 20_000
_BATCH = 64  # starts, or networks, per lockstep call
_BATCH_WEIGHTS = 2**20  # and no more weights than this per call (8 MiB): fewer networks once N > 128
_LYAP_BLOCK = 1024  # steps of largest separations _lyapunov holds between folds into its sums
_LYAP_RECHECK = 16  # steps _lyapunov sums W z for every row, unchecked, once a pattern differs


@dataclass(frozen=True)
class OrbitReport:
    """A detected cycle.

    ``states`` holds one state per phase; applying the map to states[k]
    reproduces states[(k+1) % period] within the detection tolerance, and
    ``cycle_raster`` is their encoding.  ``min_threshold_gap`` is the
    smallest |v_i - theta| over the orbit, this orbit's contribution to the
    attractor-to-singularity distance.  ``transient`` is the first time the
    source trajectory came within tolerance of the cycle.
    """

    transient: int
    period: int
    states: np.ndarray       # (period, N)
    cycle_raster: np.ndarray  # (period, N) uint8
    min_threshold_gap: float


@dataclass(frozen=True)
class Undetermined:
    """No recurrence was found within the detection horizon.

    This is the reported face of ghost-like behaviour: a finite observation
    window cannot certify that a slowly creeping potential never fires.
    """

    horizon: int


def _patterns(v: np.ndarray, theta) -> np.ndarray:
    """The firing pattern of each state of v, shape (..., N), as one opaque value per state:
    two patterns compare in one elementwise operation, with no reduction over N."""
    return _fires(v, theta).view(_void(v.shape[-1]))[..., 0]


@functools.cache
def _void(n: int) -> np.dtype:
    return np.dtype((np.void, n))


def _keep_live(live, *stacked):
    """Each of stacked (a _Stack, or an array indexed by network first) cut to the networks
    live selects, once they are at most half of those stepped; else stacked unchanged.

    A lockstep pass stops advancing finished networks this way: the copies are rare,
    and a few slow rows end up stepping a small stack.
    """
    if 2 * live.sum() > live.size:
        return stacked
    return tuple(a[live] for a in stacked)


def _brent_scan(stack, v, budget, rows, max_period, tol):
    """Brent cycle search with tolerance, in lockstep over the rows of (M, S, N) states v
    that the (M, S) mask rows selects, each on its own network of the stack.

    Per row: O(1) state comparisons per step.  The power is capped at max_period, so
    the anchor moves at least every max_period steps: once the trajectory is on a cycle
    of period p <= max_period and past step p - 1, the cycle is caught within
    2*max_period steps.  The schedule (power, lam, steps used) does not depend on the
    states, so the rows share it; a row leaves at its first within-tol recurrence with
    matching firing pattern, or when its budget runs out.  Returns (lam, used) per row,
    lam 0 where no recurrence showed up inside the budget, and writes the recurrent
    state of each row that found one into v.  Networks whose rows have all left drop
    out as :func:`_keep_live` allows.
    """
    lam_at, used_at = np.zeros(rows.shape, np.int64), np.zeros(rows.shape, np.int64)
    idx, sub, todo, bud, anchor = np.arange(len(rows)), stack, rows.copy(), budget, v
    hare, anchor_key, power, lam, used, left = anchor, _patterns(anchor, stack.theta), 1, 0, 0, True
    while True:
        if left:
            live = todo.any(axis=1)
            if not live.any():
                return lam_at, used_at
            deadline = int(bud[todo].min())  # once used passes it, some row has spent its budget
            idx, sub, todo, bud, anchor, hare, anchor_key = _keep_live(
                live, idx, sub, todo, bud, anchor, hare, anchor_key)
        if lam == power:
            anchor, power, lam = hare, min(2 * power, max_period), 0
            anchor_key = _patterns(anchor, sub.theta)
        hare = step(sub, hare)
        used += 1
        lam += 1
        left = used > deadline
        if left:
            todo &= bud >= used
        hit = todo & (_patterns(hare, sub.theta) == anchor_key)
        if np.count_nonzero(hit):
            hit &= np.abs(hare - anchor).max(axis=-1) <= tol
            if np.count_nonzero(hit):
                m, s = np.nonzero(hit)
                lam_at[idx[m], s], v[idx[m], s], used_at[idx[m], s] = lam, hare[m, s], used
                todo &= ~hit
                left = True


def _polish(stack, x0, period, tol, budget):
    """Verify and sharpen candidate cycles of one period in lockstep: row g of the (G, N)
    states x0 on network g of the stack, all rows stepping together.

    Each row iterates its own trajectory in chunks of one period and never alters it.
    Its firing pattern must keep repeating its first chunk's pattern sequence, otherwise
    the candidate was a pseudo-orbit and the row is rejected at the first state off the
    sequence, where the caller resumes scanning.  A coordinate that never fires in the
    first chunk and receives exactly zero current at every step of it is leaking: it
    decays as v -> gamma*v towards the subnormals, its only cycle value is 0, and while
    the patterns repeat it feeds no other coordinate.  Closure is judged on the other
    coordinates, and the leaking ones are set to 0 in the reported cycle.  Acceptance is
    by bit-identical chunk recurrence, or by within-tol closure once the budget runs out;
    division by the pattern check keeps tol-acceptance honest.  Finished rows leave as
    :func:`_keep_live` allows; an accepted row's minimal period is then extracted by
    divisor reduction, one row at a time.  Returns each row's (states, minimal period),
    or None if rejected, and the (G, N) states the rows stopped at.
    """
    budget = max(budget, 2 * period)
    found, resume = [None] * len(x0), x0.copy()
    idx, sub, todo = np.arange(len(x0)), stack, np.ones(len(x0), bool)
    chunk = np.empty((len(x0), period + 1, x0.shape[-1]))
    chunk[:, period] = x0
    cycle = None  # the firing pattern due at each of chunk[:, 1:], from the first chunk
    steps = 0
    while True:
        chunk[:, 0] = chunk[:, period]
        for k in range(1, period + 1):
            chunk[:, k:k + 1] = step(sub, chunk[:, k - 1:k])
        steps += period
        patterns = _patterns(chunk, sub.theta)
        stop = np.full(len(idx), period)  # where a rejected row stopped
        if cycle is None:
            off = patterns[:, period] != patterns[:, 0]
            cycle = patterns[:, 1:]
            fired = _fires(chunk[:, :-1], sub.theta)
            current = _advance(sub, 0.0, fired.astype(np.float64))  # W z + i_ext, as step sums it
            leak = ~fired.any(axis=1) & (current == 0.0).all(axis=1) & (chunk[:, period] != 0.0)
        else:
            wrong = patterns[:, 1:] != cycle
            off = wrong.any(axis=1)
            stop[off] = wrong[off].argmax(axis=1) + 1  # the first state off the cycle's patterns
        close = ((chunk[:, period] == chunk[:, 0]) | leak).all(axis=-1)
        exact, spent = close, steps >= budget
        if spent:
            close = close | (np.where(leak, 0.0, np.abs(chunk[:, period] - chunk[:, 0]))
                             .max(axis=-1) <= tol)
        done, accepted = todo & (off | close | spent), todo & ~off & close
        resume[idx[done]] = chunk[done, stop[done]]
        if accepted.any():
            ends = np.where(leak[accepted, None], 0.0, chunk[accepted])
            resume[idx[accepted]] = ends[:, period]
            for i, states, ex in zip(idx[accepted].tolist(), ends[:, :period],
                                     exact[accepted].tolist()):
                minimal = period
                for d in (d for d in range(1, period) if period % d == 0):  # the proper divisors
                    shifted = np.roll(states, -d, axis=0)
                    if (np.array_equal(shifted, states) if ex else max_dist(shifted, states) <= tol):
                        minimal = d
                        break
                found[i] = states[:minimal], minimal
        todo &= ~done
        if not todo.any():
            return found, resume
        idx, sub, todo, chunk, cycle, leak = _keep_live(todo, idx, sub, todo, chunk, cycle, leak)


def _locate_entries(net, v0, cycles: list, tol, cap) -> list:
    """(t, k) for each row i of the (K, N) states v0: the first t <= cap at which its
    trajectory comes within tol of a state of cycles[i] (same firing pattern, max distance
    <= tol), and the lowest phase k it hits then; (cap, 0) if it never does.

    The trajectories advance in lockstep from v0, each compared only with its own cycle.
    """
    if not cycles:
        return []
    owner = np.repeat(np.arange(len(cycles)), [len(c) for c in cycles])  # per cycle state
    phase = np.concatenate([np.arange(len(c)) for c in cycles])
    states = np.concatenate(cycles)
    pattern, entries, v = _patterns(states, net.theta), {}, v0
    for t in range(cap + 1):
        hit = np.flatnonzero(_patterns(v, net.theta)[owner] == pattern)
        if hit.size:
            hit = hit[np.abs(v[owner[hit]] - states[hit]).max(axis=-1) <= tol]
        if hit.size:
            done, first = np.unique(owner[hit], return_index=True)  # the lowest phase per row
            entries.update((r, (t, int(phase[i]))) for r, i in zip(done.tolist(), hit[first]))
            kept = ~np.isin(owner, done)
            owner, phase, states, pattern = (a[kept] for a in (owner, phase, states, pattern))
            if not owner.size:
                break
        v = step(net, v)
    return [entries.get(r, (cap, 0)) for r in range(len(cycles))]


@dataclass(frozen=True)
class _Cycle:
    """A detected cycle as dedupe and regime classification read it: an OrbitReport
    without the transient.  Its period, gap and raster up to rotation do not depend on
    the phase its states start at.  The gap is computed when first read: dedupe reads
    only the period, states and raster, so a dropped duplicate never computes it."""

    period: int
    states: np.ndarray
    cycle_raster: np.ndarray
    theta: float

    @functools.cached_property
    def min_threshold_gap(self) -> float:
        return float(np.min(np.abs(self.states - self.theta)))


def _report(cycle: _Cycle, transient, phase) -> OrbitReport:
    """cycle re-based at phase: its states and raster rotated, read-only like the cycle's."""
    states, raster = (np.roll(a, -phase, axis=0) for a in (cycle.states, cycle.cycle_raster))
    states.flags.writeable = raster.flags.writeable = False
    return OrbitReport(transient, cycle.period, states, raster, cycle.min_threshold_gap)


def _detection_params(max_transient, max_period, tol, polish_steps) -> tuple:
    """Orbit detection's run parameters, checked once at the public boundary, before any
    worker starts: max_transient and polish_steps counts >= 0, max_period a count >= 1, tol
    finite and >= 0."""
    return (_as_count(max_transient, "max_transient", least=0),
            _as_count(max_period, "max_period"), _as_finite(tol, "tol", allow_zero=True),
            _as_count(polish_steps, "polish_steps", least=0))


def _cycles(nets, v0s, max_transient, max_period, tol, polish_steps) -> list:
    """Each start's polished cycle, a :class:`_Cycle`, or Undetermined(max_transient +
    2*max_period) if none is found within that many steps; all in lockstep.

    nets share one size N, and v0s, any shape that reshapes to (M, S, N), holds S starts
    per network, network by network, the order of the results.  A row keeps exactly its
    own arithmetic and control flow.  Rows scan together; the candidates are grouped by
    period, in row order, and each group is polished in lockstep, in runs of at most
    :func:`_batch_size` rows whose chunks hold at most _BATCH_WEIGHTS floats.  A row whose
    candidate was a pseudo-orbit scans on, with the other rejected rows, from where its
    polish stopped.  The states start where the scan met the cycle, not where the start
    entered it.  The parameters are those :func:`_detection_params` returns.
    """
    stack, n = _Stack.of(nets), nets[0].n
    v = np.array(v0s, dtype=np.float64).reshape(len(nets), -1, n)
    horizon = max_transient + 2 * max_period
    budget = np.full(v.shape[:2], horizon)
    live = np.ones(v.shape[:2], bool)
    cycles = [Undetermined(horizon)] * live.size
    for _ in range(8):  # pseudo-orbit rejections restart the scan downstream
        live &= budget > 0
        if not live.any():
            break
        lam, used = _brent_scan(stack, v, budget, live, max_period, tol)
        budget -= used
        live &= lam > 0
        groups = {}  # the rows of each candidate period, in row order
        for row, period in zip(map(tuple, np.argwhere(live).tolist()), lam[live].tolist()):
            groups.setdefault(period, []).append(row)
        for period, rows in groups.items():
            run = max(1, min(_batch_size(n), _BATCH_WEIGHTS // ((period + 1) * n)))
            for i in range(0, len(rows), run):
                m, s = np.array(rows[i:i + run]).T
                found, v[m, s] = _polish(stack[m], v[m, s], period, tol, polish_steps)
                for (j, k), polished in zip(rows[i:i + run], found):
                    if polished is not None:
                        states, p = polished
                        raster = _fires(states, nets[j].theta).astype(np.uint8)
                        states.flags.writeable = raster.flags.writeable = False
                        cycles[j * v.shape[1] + k] = _Cycle(p, states, raster, nets[j].theta)
                        live[j, k] = False
    return cycles


def find_periodic_orbit(
    net: NetworkParams,
    v0,
    max_transient: int = DEFAULT_MAX_TRANSIENT,
    max_period: int = DEFAULT_MAX_PERIOD,
    tol: float = DEFAULT_TOL,
    polish_steps: int = DEFAULT_POLISH_STEPS,
) -> Union[OrbitReport, Undetermined]:
    """Detect the cycle a trajectory settles on, or report Undetermined.

    Scans the trajectory from v0 for a within-tol recurrence with matching
    firing pattern (Brent's method) and stops at the first one; the scan
    takes at most max_transient + 2*max_period steps, so max_transient is a
    cap on the transient, not a burn-in.  A trajectory that runs on a cycle
    of period p <= max_period from step max_transient on is found whenever
    p - 1 <= max_transient.  A candidate period is verified by re-simulation:
    its pattern sequence must keep repeating and the cycle must close, after
    which the states are polished to the exact floating-point cycle when one
    exists.  A coordinate that never fires and receives exactly zero current
    over the cycle is left out of the closure test and reported as 0, its
    only cycle value; a rejected candidate resumes the scan on v0's own
    trajectory, which polishing never alters.
    The report is re-based at the first time the trajectory from v0 enters
    the detected cycle.  This is the one-start case of the detection that
    omega_sample runs on many starts at once; sweep runs it without the
    re-basing.

    Never raises on failure: no recurrence inside the horizon yields
    ``Undetermined(max_transient + 2*max_period)``.
    """
    v0 = _as_array(v0, (net.n,), "v0")
    sample = _omega(net, v0[None], 1,
                    *_detection_params(max_transient, max_period, tol, polish_steps))
    return sample.orbits[0] if sample.orbits else Undetermined(sample.horizon)


@dataclass(frozen=True)
class OmegaSample:
    """Distinct orbits found from random initial states (an inner estimate of the limit set)."""

    orbits: list
    undetermined: int
    horizon: int


def _sample(results, tol) -> tuple:
    """The distinct orbits of results in first-seen order, the position in results of
    each, and the Undetermined count.

    Two orbits are one when some rotation of one has the other's raster and lies
    within tol of its states.
    """
    orbits, kept, undetermined = [], [], 0
    for i, res in enumerate(results):
        if isinstance(res, Undetermined):
            undetermined += 1
            continue
        p = res.period  # rotation r of the cycle is rows r:r+p of it twice over
        raster, states = np.concatenate([res.cycle_raster] * 2), np.concatenate([res.states] * 2)
        if not any(prev.period == p and any(
                np.array_equal(raster[r:r + p], prev.cycle_raster)
                and max_dist(states[r:r + p], prev.states) <= tol for r in range(p))
                for prev in orbits):
            orbits.append(res)
            kept.append(i)
    return orbits, kept, undetermined


def _batch_size(n: int) -> int:
    """Networks of size n per lockstep call: _BATCH, or fewer when their weights pass
    _BATCH_WEIGHTS; at least 1."""
    return max(1, min(_BATCH, _BATCH_WEIGHTS // _as_count(n, "n") ** 2))


def _fan_out(fn, tasks: list, threads: int, size: int):
    """Yield the result of each task, in task order.

    fn takes a list of tasks and returns one result per task.  The tasks are cut
    into contiguous batches of near-equal length, at least threads of them and none
    longer than size, so that what one call holds does not grow with the task list;
    each batch goes to fn in one call.  threads > 1 runs the calls on that many
    worker processes (fn and tasks must pickle).
    """
    _as_count(threads, "threads")
    k = min(max(threads, -(-len(tasks) // size)), len(tasks))
    cuts = [len(tasks) * i // k for i in range(k + 1)]
    batches = [tasks[a:b] for a, b in zip(cuts, cuts[1:])]
    if min(threads, k) == 1:
        for batch in batches:
            yield from fn(batch)
        return
    from concurrent.futures import ProcessPoolExecutor  # here: a serial run never loads multiprocessing

    with ProcessPoolExecutor(max_workers=min(threads, k)) as pool:
        for results in pool.map(fn, batches):
            yield from results


def _starts(net: NetworkParams, num_inits: int, rng: np.random.Generator) -> np.ndarray:
    """num_inits states drawn uniformly in the invariant box of net."""
    _as_count(num_inits, "num_inits")
    v_min, v_max = compute_bounds(net)
    return rng.uniform(v_min, v_max, size=(num_inits, net.n))


def _omega(net, v0s, threads, max_transient, max_period, tol, polish_steps) -> OmegaSample:
    """Orbit detection from each of the (S, N) starts v0s, deduplicated: the one pipeline
    of find_periodic_orbit and omega_sample.

    Each start's cycle is found by :func:`_cycles`, in contiguous batches of at most
    _BATCH starts, at least threads of them (see :func:`_fan_out`).  The results are
    deduplicated here, in one process, by :func:`_sample`; then :func:`_locate_entries`
    steps the first start that found each kept orbit, and no other, to re-base the orbit
    at its entry.  The parameters are those :func:`_detection_params` returns.
    """
    cycles = functools.partial(_cycles, [net], max_transient=max_transient,
                               max_period=max_period, tol=tol, polish_steps=polish_steps)
    horizon = max_transient + 2 * max_period
    orbits, kept, undetermined = _sample(_fan_out(cycles, list(v0s), threads, _BATCH), tol)
    entries = _locate_entries(net, v0s[kept], [c.states for c in orbits], tol, horizon)
    return OmegaSample([_report(c, *e) for c, e in zip(orbits, entries)], undetermined, horizon)


def omega_sample(
    net: NetworkParams,
    num_inits: int,
    rng: np.random.Generator,
    max_transient: int = DEFAULT_MAX_TRANSIENT,
    max_period: int = DEFAULT_MAX_PERIOD,
    tol: float = DEFAULT_TOL,
    polish_steps: int = DEFAULT_POLISH_STEPS,
    threads: int = 1,
) -> OmegaSample:
    """Run orbit detection from random states in the invariant box and deduplicate.

    The starts are detected in lockstep, in contiguous batches of at most 64
    starts, at least threads of them.  Orbits are identified up to cyclic
    rotation of their raster first (the raster is exact) and then by state
    proximity within tol.  Each orbit kept is reported as find_periodic_orbit
    reports it from the first start that found it.  Undetermined runs are
    counted, never raised.
    """
    params = _detection_params(max_transient, max_period, tol, polish_steps)
    return _omega(net, _starts(net, num_inits, rng), threads, *params)


def dist_traj_to_S(traj: Trajectory) -> float:
    """Smallest |v_i(t) - theta| over the horizon, a certified perturbation radius.

    Any perturbation of the initial state strictly smaller than this value
    (max metric) yields the identical raster over the horizon and decays
    geometrically toward the unperturbed trajectory.

    Measures the simulated floating-point trajectory, not the exact-arithmetic
    orbit it approximates; reaching the threshold exactly gives 0.  The two
    can differ at the threshold: past t = 53 the ghost ramp v(t) = 1 - 0.5^t
    (theta = 1) has rounded onto the threshold and gives 0, while the exact
    orbit stays 2^-t away.
    """
    if len(traj) == 0:
        raise ValidationError("trajectory must be nonempty")
    return float(np.min(np.abs(traj.states - traj.net.theta)))


def dist_attractor_to_S(orbits: list) -> float:
    """Smallest threshold gap over a set of detected orbits (exact per orbit)."""
    if not orbits:
        raise ValidationError("no orbits: cannot estimate the attractor distance")
    return min(o.min_threshold_gap for o in orbits)


def markov_horizon(epsilon: float, domain_diameter: float, gamma: float) -> int:
    """Steps needed to contract a domain of the given diameter below epsilon.

    floor((log eps - log diam) / log gamma).  Special cases: epsilon >=
    diameter needs 0 steps; gamma = 0 collapses in a single step.
    """
    _as_finite(epsilon, "epsilon")
    _as_finite(domain_diameter, "domain_diameter")
    gamma = _as_gamma(gamma)
    if epsilon >= domain_diameter:
        return 0
    if gamma == 0.0:
        return 1
    return int(math.floor((math.log(epsilon) - math.log(domain_diameter)) / math.log(gamma)))


def period_bound_log2(n: int, d_as: float, gamma: float) -> float:
    """log2 of the cycle-count/period bound: n * log(d_as) / log(gamma).

    The bound itself, 2 ** this, overflows a float once n is large.  d_as = 0, an orbit
    with a state exactly on the threshold, gives math.inf, the limit as d_as -> 0+.
    """
    _as_count(n, "n")
    if not (0.0 < _as_number(gamma, "gamma") < 1.0):
        raise ValidationError(f"gamma must lie in (0, 1), got {gamma}")
    if _as_finite(d_as, "d_as", allow_zero=True) == 0.0:
        return math.inf
    if d_as >= 1.0:
        warnings.warn("period bound is vacuous for attractor distances >= 1", stacklevel=2)
        return 0.0
    return n * math.log(d_as) / math.log(gamma)


_REGIME_KINDS = ("NeuralDeath", "FullActivity", "StablePeriodic", "NearSingular", "Undetermined")


@dataclass(frozen=True)
class RegimeLabel:
    """Tagged long-run regime; NearSingular carries the measured gap, Undetermined the horizon."""

    kind: str
    value: Optional[float] = None

    def __post_init__(self):
        if self.kind not in _REGIME_KINDS:
            raise ValidationError(f"unknown regime kind {self.kind!r}")

    def __str__(self) -> str:
        if self.kind == "NearSingular":
            return f"NearSingular({self.value!r})"
        if self.kind == "Undetermined":
            return f"Undetermined({int(self.value)})"
        return self.kind

    @staticmethod
    def parse(s: str) -> "RegimeLabel":
        if "(" in s:
            kind, _, rest = s.partition("(")
            return RegimeLabel(kind, float(rest.rstrip(")")))
        return RegimeLabel(s)


def classify_regime(
    orbits: list,
    undetermined_count: int,
    epsilon_singular: float = 1e-6,
    horizon: int = 0,
) -> RegimeLabel:
    """Label the sampled long-run behaviour of a network.

    Any undetermined run makes the whole sample Undetermined.  Otherwise a
    lone quiescent (resp. all-firing) fixed point is NeuralDeath (resp.
    FullActivity); remaining cases are NearSingular when the measured
    attractor gap falls below epsilon_singular, else StablePeriodic.
    """
    _as_finite(epsilon_singular, "epsilon_singular")
    if undetermined_count > 0:
        return RegimeLabel("Undetermined", float(horizon))
    if not orbits:
        raise RuntimeError("no orbits and no undetermined runs: empty sample")
    if len(orbits) == 1 and orbits[0].period == 1:
        if not orbits[0].cycle_raster.any():
            return RegimeLabel("NeuralDeath")
        if orbits[0].cycle_raster.all():
            return RegimeLabel("FullActivity")
    d = dist_attractor_to_S(orbits)
    if d < epsilon_singular:
        return RegimeLabel("NearSingular", d)
    return RegimeLabel("StablePeriodic")


def _cube_directions(rng: np.random.Generator, k: int, n: int) -> np.ndarray:
    u = rng.uniform(-1.0, 1.0, size=(k, n))
    scale = np.max(np.abs(u), axis=1, keepdims=True)
    scale[scale == 0.0] = 1.0
    return u / scale


def effective_lyapunov(
    net: NetworkParams,
    v0,
    ball_radius: float,
    num_directions: int,
    horizon: int,
    rng: np.random.Generator,
    burn_in: int = 0,
) -> float:
    """Finite-ball expansion rate around the trajectory of v0.

    Keeps ``num_directions`` companions at max-metric distance
    ``ball_radius`` from the mother trajectory; each step all points are
    advanced, the per-step log of (max separation / radius) is recorded, and
    every companion is rescaled back to the radius along its displacement.
    The average over the horizon is the effective exponent at this
    perturbation scale: log(gamma) or below while the ball stays clear of
    the threshold, positive once the radius exceeds the attractor gap.

    Steps on which all companions collapse exactly onto the mother (every
    direction fired) contribute no sample and the companions are re-seeded;
    if every step collapses the result is -inf.  This is the one-start case
    of the lockstep estimator that lyapunov_map and ``lyap --net`` run on
    every start of a batch of networks at once.
    """
    v0 = _as_array(v0, (net.n,), "v0")
    ball_radius, num_directions, horizon, burn_in = _lyap_params(
        ball_radius, num_directions, horizon, burn_in)
    return _lyapunov([net], [rng], v0[None, None], ball_radius, num_directions, horizon,
                     burn_in)[0][0]


def _lyap_params(ball_radius, num_directions, horizon, burn_in) -> tuple:
    """The estimator's run parameters, checked once at the public boundary, before any
    worker starts: ball_radius finite and > 0, num_directions and horizon counts >= 1,
    burn_in a count >= 0."""
    return (_as_finite(ball_radius, "ball_radius"), _as_count(num_directions, "num_directions"),
            _as_count(horizon, "horizon"), _as_count(burn_in, "burn_in", least=0))


def _lyapunov(nets, rngs, v0s, ball_radius, num_directions, horizon, burn_in) -> list:
    """effective_lyapunov of every start of every network of nets (one size N), all in
    lockstep; the rates, I per network.  v0s is either I, the number of starts to draw for
    each network uniformly in its invariant box, or an (M, I, N) array of given starts.
    This is the one reader of the estimator's streams.  Network m reads rngs[m] alone, in
    this order: each start it is not given and then that start's num_directions directions,
    in start order; nothing during burn-in; then the re-seeds, in step order, and within a
    step in start order.  The parameters are those :func:`_lyap_params` returns.

    The states are one (M, I, 1+k, N) array, a mother and its k companions per start,
    advanced together on the stack of the M networks, whose weights are held once.  W z is
    summed for the M*I mothers alone while every companion fires its mother's pattern, and
    for every row on a step where one does not and, unchecked, on the _LYAP_RECHECK - 1
    steps after it: the same W and z give the same bits.  Each step's largest separation
    per start goes into a block of _LYAP_BLOCK rows, folded into the sums when it fills and
    after the last step: per start, in step order, one math.log and one float addition per
    step, the sequence a step-at-a-time loop over the network's starts makes, so the rates
    are bit-identical to that loop and memory does not grow with the horizon.  Every step
    rescales the companions in place; only one on which some sit on their mother re-seeds.
    """
    drawn, stack, m_nets, n = np.ndim(v0s) == 0, _Stack.of(nets), len(nets), nets[0].n
    inits = v0s if drawn else np.shape(v0s)[1]
    pts = np.empty((m_nets, inits, 1 + num_directions, n))
    for m, (net, rng) in enumerate(zip(nets, rngs)):
        for i in range(inits):
            pts[m, i, 0] = _starts(net, 1, rng)[0] if drawn else v0s[m][i]
            pts[m, i, 1:] = ball_radius * _cube_directions(rng, num_directions, n)
    mother = pts[:, :, 0]
    for _ in range(burn_in):
        mother = step(stack, mother)
    pts[:, :, 0] = mother
    pts[:, :, 1:] += mother[:, :, None]  # each companion ball_radius from its mother
    totals, samples = [0.0] * (m_nets * inits), [0] * (m_nets * inits)
    check = 0  # the next step to compare
    rows = min(horizon, _LYAP_BLOCK)
    block = np.empty((rows, m_nets, inits, 1))
    # i_ext held per point, so that adding it is one pass, not one per row of a broadcast
    starts = replace(stack[:, None], i_ext=np.broadcast_to(stack.i_ext[:, None], pts.shape).copy())
    for t in range(horizon):
        # row 0 of each start is its mother: companions that fire its pattern share its W z
        fired = _fires(pts, starts.theta)
        if t == check:  # every row of a start fires the pattern of the row before it
            shared = not np.count_nonzero(fired[:, :, 1:] != fired[:, :, :-1])
            check += 1 if shared else _LYAP_RECHECK
        z = fired.astype(np.float64)
        pts = _affine(starts, pts, z, _wz(starts, z[:, :, :1] if shared else z))
        mother, comps = pts[:, :, :1], pts[:, :, 1:]
        diff = comps - mother
        # each companion's largest |difference|, reduced over a leading axis: numpy reduces
        # a short last axis one output at a time
        seps = np.maximum.reduce(np.abs(diff.transpose(3, 0, 1, 2), order="C"), axis=0)[..., None]
        row = t % rows
        np.maximum.reduce(seps, axis=2, out=block[row])
        collapsed = np.count_nonzero(seps) < seps.size  # some companion sits on its mother
        # divided by 1, a dead companion stays on its mother until re-seeded
        diff *= ball_radius / (np.where(seps == 0.0, 1.0, seps) if collapsed else seps)
        np.add(mother, diff, out=comps)
        if collapsed:
            dead = seps[..., 0] == 0.0
            for m, i in np.argwhere(dead.any(axis=2)).tolist():
                comps[m, i, dead[m, i]] = mother[m, i] + ball_radius * _cube_directions(
                    rngs[m], int(np.count_nonzero(dead[m, i])), n)
        if row == rows - 1 or t == horizon - 1:  # fold the block into the sums
            for j, col in enumerate((block[:row + 1].reshape(row + 1, -1) / ball_radius).T):
                live = col[col != 0.0].tolist()  # 0: every companion collapsed, no sample
                totals[j] = functools.reduce(operator.add, map(math.log, live), totals[j])
                samples[j] += len(live)
    rates = [t / s if s else -math.inf for t, s in zip(totals, samples)]
    return [rates[j:j + inits] for j in range(0, len(rates), inits)]
