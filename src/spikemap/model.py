"""Core model: the threshold map, phase-space bounds, and trajectory simulation.

The network state is a vector of membrane potentials v.  Each step, every
neuron at or above the firing threshold emits a spike and is reset; every
sub-threshold neuron leaks by a factor gamma.  All neurons then receive the
synaptic current injected by the spikes of the *previous* state plus a
constant external drive, synchronously:

    v_i' = gamma * v_i * (1 - z_i) + sum_j W_ij * z_j + i_ext_i,
    z_j  = 1 if v_j >= theta else 0.

The map is affine on each of the 2^N domains on which the firing pattern z
is constant, contracting with factor gamma in quiescent directions and
collapsing fired directions to a point.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

__all__ = [
    "CapacityError",
    "ValidationError",
    "NetworkParams",
    "Bounds",
    "Trajectory",
    "compute_bounds",
    "step",
    "simulate",
    "firing_times",
    "max_dist",
]


class ValidationError(ValueError):
    """Input failed structural validation (shape, range, or file content)."""


class CapacityError(RuntimeError):
    """Request exceeds a hard size limit (e.g. the graph enumeration cap)."""


def _as_array(x, shape: tuple, name: str) -> np.ndarray:
    """x as a new C-ordered float64 array of the given shape, checked finite.

    Only numbers are accepted: a bool, a string or an integer too large for any
    integer dtype is refused, though numpy would convert some of them.
    """
    try:
        a = np.asarray(x)
    except ValueError as e:  # a ragged nesting
        raise ValidationError(f"{name} must be a regular array of numbers: {e}") from None
    if a.dtype.kind not in "iuf":
        raise ValidationError(f"{name} must hold numbers only, got dtype {a.dtype}")
    a = np.array(a, dtype=np.float64, order="C")
    if a.shape != shape:
        raise ValidationError(f"{name} must have shape {shape}, got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValidationError(f"{name} must be finite")
    return a


def _as_count(k, name: str, least: int = 1) -> int:
    """k checked to be an integer >= least; a float, even 2.0, or a bool is not an integer."""
    if isinstance(k, bool) or not isinstance(k, numbers.Integral):
        raise ValidationError(f"{name} must be an integer, got {k!r}")
    k = int(k)
    if k < least:
        raise ValidationError(f"{name} must be >= {least}, got {k}")
    return k


def _as_number(x, name: str) -> float:
    """x as a float; a bool or a string is no number here, though Python converts it."""
    if isinstance(x, bool) or not isinstance(x, numbers.Real):
        raise ValidationError(f"{name} must be a number, got {x!r}")
    try:
        return float(x)
    except OverflowError:
        raise ValidationError(f"{name} is beyond the float range, got {x!r}") from None


def _as_finite(x: float, name: str, allow_zero: bool = False) -> float:
    """x as a float, checked finite and > 0 (>= 0 with allow_zero); NaN fails both."""
    x = _as_number(x, name)
    if not (math.isfinite(x) and (x >= 0.0 if allow_zero else x > 0.0)):
        bound = ">= 0" if allow_zero else "> 0"
        raise ValidationError(f"{name} must be finite and {bound}, got {x}")
    return x


def _as_gamma(x) -> float:
    """The leak factor x as a float, checked to lie in [0, 1)."""
    gamma = _as_number(x, "gamma")
    if not (0.0 <= gamma < 1.0):
        raise ValidationError(f"gamma must lie in [0, 1), got {gamma}")
    return gamma


# The firing test, the one place the threshold decision is made: exactly
# v >= theta, with no tolerance band.  Bound to the ufunc itself so the hot
# path pays no extra Python frame.
_fires = np.greater_equal


@dataclass(frozen=True)
class NetworkParams:
    """Fixed parameters of an N-neuron network.

    ``weights[i, j]`` is the synaptic weight from neuron j onto neuron i, so
    row i collects the inputs of neuron i.  ``gamma`` in [0, 1) is the
    per-step leak factor of sub-threshold potentials, ``theta`` > 0 the
    firing threshold, and ``i_ext`` a constant external drive per neuron.

    Every field is checked here, once: a bool, a string or a value outside the
    float range is refused wherever a number is expected, and the arrays are
    copied.  Instances are immutable (arrays are marked read-only) and safe to
    share across threads.
    """

    n: int
    gamma: float
    theta: float
    weights: np.ndarray
    i_ext: np.ndarray

    def __post_init__(self):
        n = _as_count(self.n, "n")
        gamma = _as_gamma(self.gamma)
        theta = _as_finite(self.theta, "theta")
        w = _as_array(self.weights, (n, n), "weights")
        ie = _as_array(self.i_ext, (n,), "i_ext")
        w.flags.writeable = False
        ie.flags.writeable = False
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "i_ext", ie)


@dataclass(frozen=True)
class _Stack:
    """M networks of one size N, shaped to advance (M, S, N) states: S of them per network.

    Each network's parameters are held once and broadcast over its S states, so
    ``step(stack, v)`` sums every state's ``W z`` with its own network's matrix, in
    the one form of :func:`_wz`: each row bit-identical to a single call.  A
    gamma or theta that every network shares, bit for bit, is held as one float,
    which numpy applies without broadcasting.  ``stack[idx]`` is the stack of the
    networks idx selects.
    """

    weights: np.ndarray          # (M, 1, N, N)
    gamma: float | np.ndarray    # a float, or (M, 1, 1)
    theta: float | np.ndarray    # a float, or (M, 1, 1)
    i_ext: np.ndarray            # (M, 1, N)

    @staticmethod
    def of(nets) -> "_Stack":
        def stacked(name):
            return np.array([getattr(net, name) for net in nets], dtype=np.float64)[:, None]

        def scalar(name):
            col = stacked(name)[..., None]
            bits = col.view(np.int64)
            return float(col[0, 0, 0]) if (bits == bits[0]).all() else col

        return _Stack(stacked("weights"), scalar("gamma"), scalar("theta"), stacked("i_ext"))

    def __getitem__(self, idx) -> "_Stack":
        return _Stack(*(a if isinstance(a, float) else a[idx]
                        for a in (self.weights, self.gamma, self.theta, self.i_ext)))


class Bounds(NamedTuple):
    v_min: float
    v_max: float


def compute_bounds(net: NetworkParams) -> Bounds:
    """Invariant phase-space box [v_min, v_max]^N : one step maps it into itself.

    v_min floors the most inhibited neuron's geometric accumulation, v_max
    caps the most excited one; empty weight sums contribute 0, and the box
    always contains the reset value 0.
    """
    w = net.weights
    neg = np.where(w < 0.0, w, 0.0).sum(axis=1)
    pos = np.where(w > 0.0, w, 0.0).sum(axis=1)
    scale = 1.0 / (1.0 - net.gamma)
    v_min = min(0.0, scale * float(np.min(neg + net.i_ext)))
    v_max = max(0.0, scale * float(np.max(pos + net.i_ext)))
    return Bounds(v_min, v_max)


def _wz(net: NetworkParams, z: np.ndarray) -> np.ndarray:
    """W z for a float 0/1 pattern z, a (K, N) stack of them, or (M, S, N) on a :class:`_Stack`.

    The one place W z is summed, in one form for any shape: each row enters the product
    as a column, so every caller agrees bit for bit (``Z @ W.T`` sums in another order).
    """
    return np.matmul(net.weights, z[..., None])[..., 0]


def _affine(net: NetworkParams, v, z: np.ndarray, wz: np.ndarray) -> np.ndarray:
    """The map's one formula, given v's pattern z and its sum wz = :func:`_wz` (net, z), or
    a wz that broadcasts over rows of v whose patterns are all equal."""
    return net.gamma * v * (1.0 - z) + wz + net.i_ext


def _advance(net: NetworkParams, v, z: np.ndarray) -> np.ndarray:
    """The affine map on the domain of firing pattern z: a float 0/1 vector or a (K, N) stack,
    or (M, S, N) states when net is a :class:`_Stack` of M networks."""
    return _affine(net, v, z, _wz(net, z))


def step(net: NetworkParams, v) -> np.ndarray:
    """One synchronous update.  All firing states are read from the input state.

    A (K, N) stack of states advances row by row, each row bit-identical to a single call;
    so do (M, S, N) states on a :class:`_Stack` of M networks.
    """
    v = np.asarray(v, dtype=np.float64)
    return _advance(net, v, _fires(v, net.theta).astype(np.float64))


@dataclass(frozen=True)
class Trajectory:
    """A simulated orbit: states[t] is the state at time t, raster[t] its firing pattern."""

    net: NetworkParams
    states: np.ndarray  # (T+1, N) float64
    raster: np.ndarray  # (T+1, N) uint8

    def __len__(self) -> int:
        return self.states.shape[0]


def _trajectory(net: NetworkParams, v: np.ndarray, t_max: int, raster=None) -> np.ndarray:
    """States 0..t_max of the map from v: patterns from the threshold through :func:`step`,
    or, given a raster, ``raster[t]`` drives the step from state t.

    The map is a function of the state's bits and the pattern's, so once a state repeats
    bit for bit, ``states[t] == states[t - lam]``, the rows after t are copies lagged by
    lam, made in one gather and never stepped.  With a raster they are copies only while
    ``raster[s] == raster[s - lam]``, compared in doubling windows so the check costs in
    proportion to the rows it copies; at the first mismatch, stepping resumes.  Stepping
    stops at the first repeat: the hash of each stepped state's bytes is kept with its step
    (from the start, or from where stepping resumed), and a state whose hash was seen is
    compared bit for bit with that step's.  A hash two states share only delays the stop.
    """
    states = np.empty((t_max + 1, net.n), dtype=np.float64)
    states[0] = v
    t, seen = 0, {hash(v.tobytes()): 0}
    while t < t_max:
        v = step(net, v) if raster is None else _advance(net, v, raster[t].astype(np.float64))
        t += 1
        states[t] = v
        key = v.tobytes()
        lam = t - seen.setdefault(hash(key), t)
        if not lam or states[t - lam].tobytes() != key:  # a new state, or another one's hash
            continue
        end, width = (t_max, 0) if raster is None else (t, 1)
        while end < t_max:  # the first s >= t with raster[s] != raster[s - lam], if any
            stop = min(end + width, t_max)
            diff = np.flatnonzero((raster[end:stop] != raster[end - lam:stop - lam]).any(axis=1))
            if diff.size:
                end += int(diff[0])
                break
            end, width = stop, 2 * width
        states[t + 1:end + 1] = states[t + 1 - lam + np.arange(end - t) % lam]
        t, v = end, states[end]
        seen = {hash(v.tobytes()): t}
    return states


def simulate(
    net: NetworkParams,
    v0,
    t_max: int,
    sigma_b: float = 0.0,
    rng: Optional[np.random.Generator] = None,
) -> Trajectory:
    """Iterate the map t_max times from v0, recording states and the raster.

    t_max is an integer >= 0.  Without noise the map is stepped until the first
    state that repeats an earlier one bit for bit, and the periodic tail after it
    is copied, not stepped (see :func:`_trajectory`): the same bits, as the map is
    a function of the state's bits.  With sigma_b > 0 a Gaussian perturbation is added at
    every step (an rng is then required), drawn step by step so that only the
    states are held.  A negative or non-finite sigma_b is rejected.
    """
    t_max = _as_count(t_max, "t_max", least=0)
    sigma_b = _as_finite(sigma_b, "sigma_b", allow_zero=True)
    if sigma_b > 0.0 and rng is None:
        raise ValidationError("sigma_b > 0 requires a seeded rng")
    v = _as_array(v0, (net.n,), "v0")
    if sigma_b == 0.0:
        states = _trajectory(net, v, t_max)
    else:
        states = np.empty((t_max + 1, net.n), dtype=np.float64)
        states[0] = v
        for t in range(1, t_max + 1):
            v = step(net, v) + rng.normal(0.0, sigma_b, net.n)
            states[t] = v
    raster = _fires(states, net.theta).astype(np.uint8)
    states.flags.writeable = False
    raster.flags.writeable = False
    return Trajectory(net=net, states=states, raster=raster)


def firing_times(raster: np.ndarray, i: int) -> np.ndarray:
    """Times t with raster[t][i] = 1, ascending; empty if neuron i never fires."""
    if isinstance(i, bool) or not isinstance(i, numbers.Integral):  # numpy reads a bool as a mask
        raise ValidationError(f"neuron index must be an integer, got {i!r}")
    raster = np.asarray(raster)
    n = raster.shape[1]
    if not (0 <= i < n):
        raise IndexError(f"neuron index {i} out of range for N={n}")
    return np.flatnonzero(raster[:, i])


def max_dist(a, b) -> float:
    """Distance in the max metric, the natural metric for this product-structured map."""
    return float(np.max(np.abs(np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64))))
