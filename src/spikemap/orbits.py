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
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .model import (
    NetworkParams,
    Trajectory,
    ValidationError,
    _as_count,
    _as_finite,
    _as_vector,
    _fires,
    compute_bounds,
    max_dist,
    step,
)
from .coding import IllegalCodeError, encode, reconstruct_periodic

__all__ = [
    "OrbitReport",
    "Undetermined",
    "find_periodic_orbit",
    "OmegaSample",
    "omega_sample",
    "dist_traj_to_S",
    "dist_attractor_to_S",
    "stable_manifold_radius",
    "markov_horizon",
    "period_bound",
    "period_bound_log2",
    "RegimeLabel",
    "classify_regime",
    "effective_lyapunov",
]

DEFAULT_MAX_TRANSIENT = 100_000
DEFAULT_MAX_PERIOD = 10_000
DEFAULT_TOL = 1e-10
DEFAULT_POLISH_STEPS = 20_000


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


def _pattern_key(v: np.ndarray, theta: float) -> bytes:
    return _fires(v, theta).tobytes()


def _brent_scan(net, v, budget, max_period, tol):
    """Brent cycle search with tolerance: O(1) state comparisons per step.

    The power is capped at max_period, so the anchor moves at least every
    max_period steps: once the trajectory is on a cycle of period p <=
    max_period and past step p - 1, the cycle is caught within 2*max_period
    steps.  Returns (lam, hare_state, steps_used); lam is None when no
    within-tol recurrence shows up inside the budget.
    """
    theta = net.theta
    anchor = v
    anchor_key = _pattern_key(anchor, theta)
    power = 1
    lam = 1
    hare = step(net, v)
    used = 1
    while used <= budget:
        if _pattern_key(hare, theta) == anchor_key and max_dist(hare, anchor) <= tol:
            return lam, hare, used
        if lam == power:
            anchor = hare
            anchor_key = _pattern_key(anchor, theta)
            power = min(2 * power, max_period)
            lam = 0
        hare = step(net, hare)
        used += 1
        lam += 1
    return None, hare, used


def _divisors(p: int):
    for d in range(1, p + 1):
        if p % d == 0:
            yield d


def _closed_form_zeros(net, chunk, x):
    """x with the coordinates whose exact cycle value is 0 set to 0, when certified.

    The raster determines the orbit (``reconstruct_periodic`` of chunk's
    first period).  A coordinate whose cycle value is 0 would otherwise
    decay through the subnormals, about 1074*ln2/|ln gamma| steps, to a float
    fixed point next to 0; 0 itself is exact.  Other coordinates keep their
    iterate: a nonzero closed form carries rounding, may sit a few ulps off
    the float cycle the iteration lands on, and would save only
    log(tol/ulp)/|ln gamma| steps.  The closed form is used only when every chunk state lies strictly
    closer to it than its threshold gap: such a perturbation keeps the raster
    and decays onto the cycle.  Returns x itself when nothing changes.
    """
    try:
        exact = reconstruct_periodic(net, encode(chunk[:-1], net.theta))
    except IllegalCodeError:
        return x
    zero = (exact[0] == 0.0) & (x != 0.0)
    if not zero.any() or max_dist(chunk[:-1], exact) >= np.min(np.abs(exact - net.theta)):
        return x
    return np.where(zero, exact[0], x)


def _polish(net, x0, period, tol, budget):
    """Verify and sharpen a candidate cycle.

    Iterates in chunks of one period; the firing pattern must keep repeating
    the first chunk's pattern sequence, otherwise the candidate was a
    pseudo-orbit and we reject (returning the advanced state so the caller
    can resume scanning).  After the first chunk, coordinates whose
    closed-form cycle value is exactly 0 jump there instead of following the
    geometric decay into the subnormals.  Acceptance is by bit-identical
    chunk recurrence, or by within-tol closure once the budget runs out;
    division by the pattern check keeps tol-acceptance honest.  On success
    the minimal period is extracted by divisor reduction.
    """
    theta = net.theta
    budget = max(budget, 2 * period)
    chunk = np.empty((period + 1, net.n), dtype=np.float64)
    cyc_keys = None
    x = np.array(x0, dtype=np.float64)
    steps = 0
    exact = False
    while True:
        chunk[0] = x
        keys = [_pattern_key(x, theta)]
        ok = True
        for k in range(1, period + 1):
            x = step(net, x)
            steps += 1
            chunk[k] = x
            key = _pattern_key(x, theta)
            if cyc_keys is None:
                keys.append(key)
            elif key != cyc_keys[k % period]:
                ok = False
                break
        if not ok:
            return None, x
        if cyc_keys is None:
            if keys[period] != keys[0]:
                return None, x
            cyc_keys = keys[:period]
            seed = _closed_form_zeros(net, chunk, x)
            if seed is not x:
                x = seed
                continue
        if np.array_equal(chunk[period], chunk[0]):
            exact = True
            break
        if steps >= budget:
            if max_dist(chunk[period], chunk[0]) <= tol:
                break
            return None, x
    states = chunk[:period].copy()
    minimal = period
    for d in _divisors(period):
        if d == period:
            break
        shifted = np.roll(states, -d, axis=0)
        if (np.array_equal(shifted, states) if exact else max_dist(shifted, states) <= tol):
            minimal = d
            break
    states = states[:minimal]
    return (states, minimal), x


def _locate_entry(net, v0, states, tol, cap):
    """First time the trajectory of v0 comes within tol of the cycle, plus the phase hit."""
    theta = net.theta
    by_pattern: dict[bytes, list[int]] = {}
    for k in range(states.shape[0]):
        by_pattern.setdefault(_pattern_key(states[k], theta), []).append(k)
    v = np.array(v0, dtype=np.float64)
    for t in range(cap + 1):
        for k in by_pattern.get(_pattern_key(v, theta), ()):
            if max_dist(v, states[k]) <= tol:
                return t, k
        v = step(net, v)
    return cap, 0


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
    exists (a coordinate whose closed-form cycle value is 0 is set to 0).
    The report is re-based at the first time the trajectory from v0 enters
    the detected cycle.

    Never raises on failure: no recurrence inside the horizon yields
    ``Undetermined(max_transient + 2*max_period)``.
    """
    if max_transient < 0 or max_period < 1 or polish_steps < 0:
        raise ValidationError("need max_transient >= 0, max_period >= 1, polish_steps >= 0")
    _as_finite(tol, "tol", allow_zero=True)
    v0 = _as_vector(v0, net.n, "v0")
    horizon = max_transient + 2 * max_period
    v, budget = v0, horizon
    for _ in range(8):  # pseudo-orbit rejections restart the scan downstream
        if budget <= 0:
            break
        lam, v, used = _brent_scan(net, v, budget, max_period, tol)
        budget -= used
        if lam is None:
            break
        polished, v = _polish(net, v, lam, tol, polish_steps)
        if polished is None:
            continue
        states, period = polished
        transient, phase = _locate_entry(net, v0, states, tol, cap=horizon)
        states = np.roll(states, -phase, axis=0)
        states.flags.writeable = False
        raster = encode(states, net.theta)
        raster.flags.writeable = False
        gap = float(np.min(np.abs(states - net.theta)))
        return OrbitReport(
            transient=transient,
            period=period,
            states=states,
            cycle_raster=raster,
            min_threshold_gap=gap,
        )
    return Undetermined(horizon)


@dataclass(frozen=True)
class OmegaSample:
    """Distinct orbits found from random initial states (an inner estimate of the limit set)."""

    orbits: list
    undetermined: int
    horizon: int


def _same_orbit(a: OrbitReport, b: OrbitReport, tol: float) -> bool:
    if a.period != b.period:
        return False
    p = a.period
    for r in range(p):
        if np.array_equal(np.roll(b.cycle_raster, -r, axis=0), a.cycle_raster):
            if max_dist(np.roll(b.states, -r, axis=0), a.states) <= tol:
                return True
    return False


def _fan_out(fn, tasks: list, threads: int):
    """Yield fn(task) for each task in task order, as results arrive.

    threads > 1 runs the calls on that many worker processes (fn and tasks must pickle).
    """
    _as_count(threads, "threads")
    if threads == 1 or len(tasks) < 2:
        yield from map(fn, tasks)
        return
    with ProcessPoolExecutor(max_workers=threads) as pool:
        yield from pool.map(fn, tasks, chunksize=1)


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

    Orbits are identified up to cyclic rotation of their raster first (the
    raster is exact) and then by state proximity within tol.  Undetermined
    runs are counted, never raised.
    """
    _as_count(num_inits, "num_inits")
    v_min, v_max = compute_bounds(net)
    v0s = rng.uniform(v_min, v_max, size=(num_inits, net.n))
    detect = functools.partial(
        find_periodic_orbit, net, max_transient=max_transient, max_period=max_period,
        tol=tol, polish_steps=polish_steps,
    )
    orbits: list[OrbitReport] = []
    undetermined = 0
    horizon = max_transient + 2 * max_period
    for res in _fan_out(detect, list(v0s), threads):
        if isinstance(res, Undetermined):
            undetermined += 1
            continue
        if not any(_same_orbit(prev, res, tol) for prev in orbits):
            orbits.append(res)
    return OmegaSample(orbits=orbits, undetermined=undetermined, horizon=horizon)


def dist_traj_to_S(traj: Trajectory) -> float:
    """Smallest |v_i(t) - theta| over the observed horizon.

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


def stable_manifold_radius(traj: Trajectory) -> float:
    """Certified perturbation radius over the observed horizon.

    Any perturbation of the initial state strictly smaller than this value
    (max metric) yields the identical raster over the horizon and decays
    geometrically toward the unperturbed trajectory.
    """
    return dist_traj_to_S(traj)


def markov_horizon(epsilon: float, domain_diameter: float, gamma: float) -> int:
    """Steps needed to contract a domain of the given diameter below epsilon.

    floor((log eps - log diam) / log gamma).  Special cases: epsilon >=
    diameter needs 0 steps; gamma = 0 collapses in a single step.
    """
    _as_finite(epsilon, "epsilon")
    _as_finite(domain_diameter, "domain_diameter")
    if not (0.0 <= gamma < 1.0):
        raise ValidationError(f"gamma must lie in [0, 1), got {gamma}")
    if epsilon >= domain_diameter:
        return 0
    if gamma == 0.0:
        return 1
    return int(math.floor((math.log(epsilon) - math.log(domain_diameter)) / math.log(gamma)))


def period_bound_log2(n: int, d_as: float, gamma: float) -> float:
    """log2 of the cycle-count/period bound: n * log(d_as) / log(gamma)."""
    _as_count(n, "n")
    if not (0.0 < gamma < 1.0):
        raise ValidationError(f"gamma must lie in (0, 1), got {gamma}")
    _as_finite(d_as, "d_as")
    if d_as >= 1.0:
        warnings.warn("period bound is vacuous for attractor distances >= 1", stacklevel=2)
        return 0.0
    return n * math.log(d_as) / math.log(gamma)


def period_bound(n: int, d_as: float, gamma: float) -> float:
    """Upper bound on the number of distinguishable orbit segments, 2**log2-bound.

    Grows exponentially in n and in log(d_as); may overflow to inf, use
    :func:`period_bound_log2` for the log-scale value.
    """
    l2 = period_bound_log2(n, d_as, gamma)
    try:
        return 2.0 ** l2
    except OverflowError:
        return math.inf


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
    net: NetworkParams,
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
    if every step collapses the result is -inf.
    """
    _as_finite(ball_radius, "ball_radius")
    _as_count(num_directions, "num_directions")
    _as_count(horizon, "horizon")
    if burn_in < 0:
        raise ValidationError(f"burn_in must be >= 0, got {burn_in}")
    mother = _as_vector(v0, net.n, "v0")
    for _ in range(burn_in):
        mother = step(net, mother)
    pts = np.vstack([mother, mother + ball_radius * _cube_directions(rng, num_directions, net.n)])
    total = 0.0
    samples = 0
    for _ in range(horizon):
        pts = step(net, pts)  # row 0 is the mother, the rest its companions
        mother, comps = pts[0], pts[1:]
        seps = np.max(np.abs(comps - mother), axis=1)
        dead = seps == 0.0
        if dead.any():
            comps[dead] = mother + ball_radius * _cube_directions(rng, int(dead.sum()), net.n)
            if dead.all():
                continue
        total += math.log(float(seps.max()) / ball_radius)
        samples += 1
        live = ~dead
        comps[live] = mother + (comps[live] - mother) * (ball_radius / seps[live, None])
    if samples == 0:
        return -math.inf
    return total / samples
