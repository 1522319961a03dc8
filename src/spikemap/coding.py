"""Raster coding: firing patterns, trajectory reconstruction from rasters, and
the pattern-transition structure of the map.

A firing pattern is a length-N 0/1 vector; a raster is a time-indexed stack
of patterns (one line of a raster plot per step).  Because fired coordinates
are reset, the raster plus the initial state determines the whole trajectory,
and after a neuron's first spike its potential is a function of the raster
alone.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .model import (
    CapacityError,
    NetworkParams,
    Trajectory,
    ValidationError,
    _advance,
    _as_array,
    _as_count,
    _as_finite,
    _fires,
    _trajectory,
    compute_bounds,
)

__all__ = [
    "IllegalCodeError",
    "pattern_to_str",
    "str_to_pattern",
    "encode",
    "reconstruct_trajectory",
    "reconstruct_periodic",
    "TransitionGraph",
    "build_transition_graph",
    "check_legal",
]

EDGE_UNCONDITIONAL = "unconditional"
EDGE_CONDITIONAL = "conditional"
EDGE_ILLEGAL = "illegal"
_EDGE_KINDS = (EDGE_UNCONDITIONAL, EDGE_CONDITIONAL, EDGE_ILLEGAL)  # kind codes 0, 1, 2
_EDGE_BLOCK = 1 << 16  # edges per block of the enumeration, give or take one source's

GRAPH_CAP_DEFAULT = 16


class IllegalCodeError(ValueError):
    """A raster cycle is not realizable by any state of the network."""


def pattern_to_str(eta) -> str:
    """Bitstring with neuron index increasing left to right."""
    return "".join("1" if b else "0" for b in np.asarray(eta))


def str_to_pattern(s: str) -> np.ndarray:
    if not set(s) <= {"0", "1"}:
        raise ValidationError(f"pattern string must be 0/1 characters, got {s!r}")
    return np.array([1 if c == "1" else 0 for c in s], dtype=np.uint8)


def encode(traj, theta: Optional[float] = None) -> np.ndarray:
    """Raster of a trajectory: raster[t][i] = 1 iff state t has v_i >= theta.

    Accepts a Trajectory (theta taken from its network, so none may be given) or
    a (T, N) array of states together with an explicit theta.
    """
    if isinstance(traj, Trajectory):
        if theta is not None:
            raise ValidationError("encode of a Trajectory takes theta from its network")
        states, theta = traj.states, traj.net.theta
    else:
        states = np.asarray(traj, dtype=np.float64)
        if theta is None:
            raise ValidationError("encode of a raw state array requires theta")
        theta = _as_finite(theta, "theta")
    return _fires(np.atleast_2d(states), theta).astype(np.uint8)


def _check_raster(raster, n: int) -> np.ndarray:
    try:
        r = np.atleast_2d(np.asarray(raster))
    except ValueError:  # ragged rows
        raise ValidationError("raster rows must all have one length") from None
    if r.dtype.kind not in "biuf" or not ((r == 0) | (r == 1)).all():
        raise ValidationError("raster must hold 0/1 values only")
    if r.shape[1] != n:
        raise ValidationError(f"raster width {r.shape[1]} does not match N={n}")
    return r.astype(np.uint8, copy=False)


def reconstruct_trajectory(net: NetworkParams, v0, raster) -> np.ndarray:
    """All states of the trajectory implied by v0 and its raster, one per raster row.

    Replays the affine recursion with the stored firing bits in place of
    threshold tests, so when the raster is the encoding of a simulated
    trajectory the result matches the simulation bit for bit; a neuron's
    initial condition drops out at its first recorded spike.  Once a state
    repeats bit for bit, the following states are copied for as long as the
    raster repeats too, and stepped again where it does not (see
    :func:`spikemap.model._trajectory`).
    """
    raster = _check_raster(raster, net.n)
    if raster.shape[0] == 0:
        raise ValidationError("raster must have at least one row")
    return _trajectory(net, _as_array(v0, (net.n,), "v0"), raster.shape[0] - 1, raster)


def reconstruct_periodic(net: NetworkParams, cycle) -> np.ndarray:
    """States of the periodic orbit realizing a raster cycle, one per phase.

    The cycle is read as a bi-infinite periodic code.  For a neuron that
    fires within the cycle the state is the finite leak-weighted sum of
    currents since its last spike; for a neuron that never fires the
    periodic geometric tail is summed in closed form (division by
    1 - gamma^P).  Raises IllegalCodeError when no state realizes the code,
    i.e. when encoding the reconstructed states disagrees with the input.
    """
    cycle = _check_raster(cycle, net.n)
    p = cycle.shape[0]
    if p == 0:
        raise ValidationError("cycle must be nonempty")
    eta = cycle.astype(np.float64)
    currents = _advance(net, 0.0, eta)  # currents[t]: where pattern t sends a fired neuron
    fires_somewhere = cycle.any(axis=0)

    # Phase-0 state: closed-form geometric sum for never-firing coordinates;
    # fired coordinates get a placeholder the replay below washes out.
    v = np.zeros(net.n, dtype=np.float64)
    if not fires_somewhere.all():
        acc = np.zeros(net.n, dtype=np.float64)
        for k in range(p - 1, -1, -1):  # Horner, oldest current innermost
            acc = net.gamma * acc + currents[(-k - 1) % p]
        quiet = ~fires_somewhere
        v[quiet] = acc[quiet] / (1.0 - net.gamma ** p)

    # Two replay passes: after a firing coordinate's first spike the placeholder
    # start is irrelevant, so pass two, states p+1..2p, is exact at every phase.
    states = _trajectory(net, v, 2 * p, np.concatenate([cycle, cycle]))[np.r_[2 * p, p + 1:2 * p]]
    got = encode(states, net.theta)
    if not np.array_equal(got, cycle):
        raise IllegalCodeError(
            "raster cycle is not realizable: reconstructed states encode to a different cycle"
        )
    return states


def _pattern_index(bits: np.ndarray):
    """Index of a 0/1 pattern (or of each row of a stack of them): bit i is neuron i."""
    return bits.astype(np.int64) @ (np.int64(1) << np.arange(bits.shape[-1], dtype=np.int64))


def _popcount(masks: np.ndarray) -> np.ndarray:
    """Set bits of each mask, counted in parallel within its 64-bit word: per bit pair, nibble
    and byte, then one multiply sums the bytes into the top one (np.bitwise_count needs numpy 2).
    """
    x = masks.astype(np.uint64)
    x -= (x >> 1) & 0x5555555555555555
    x = (x & 0x3333333333333333) + ((x >> 2) & 0x3333333333333333)
    x = (x + (x >> 4)) & 0x0F0F0F0F0F0F0F0F
    return ((x * 0x0101010101010101) >> 56).astype(np.int64)


@dataclass(frozen=True)
class TransitionGraph:
    """Feasibility structure of pattern-to-pattern transitions.

    Built once per network over all 2^N patterns.  Per source pattern the
    conditions factorize neuron by neuron: a fired neuron's next bit is
    forced by its (state-independent) incoming current, while a quiescent
    neuron may be forced or free depending on whether the current plus the
    leaked potential can straddle the threshold on [v_min, theta).  So the
    legal successors of pattern a form a cube, held as two bit masks (bit i
    is neuron i): pattern b follows a iff it agrees with ``forced[a]`` on
    every neuron outside ``free[a]``.  An edge is ``unconditional`` when the
    cube is one pattern, ``conditional`` when it has free neurons (whose
    outcome then depends on the potential), and ``illegal`` when b lies
    outside the cube.
    """

    net: NetworkParams
    v_min: float
    src_bits: np.ndarray  # (2^N, N) uint8, row a is the bits of pattern a
    currents: np.ndarray  # (2^N, N) current injected by each source pattern
    forced: np.ndarray    # (2^N,) int64 mask, next bits of the non-free neurons
    free: np.ndarray      # (2^N,) int64 mask, neurons whose next bit is free

    @property
    def n(self) -> int:
        return self.net.n

    @property
    def num_patterns(self) -> int:
        return self.src_bits.shape[0]

    def _index(self, eta) -> int:
        """A pattern's index, from an index (an integer, not a bool), a string or a vector."""
        if isinstance(eta, str):
            eta = str_to_pattern(eta)
        if isinstance(eta, numbers.Integral):
            idx = _as_count(eta, "pattern index", least=0)
            if idx >= self.num_patterns:
                raise ValidationError(f"pattern index {idx} out of range")
            return idx
        bits = _check_raster(eta, self.n)  # 0/1 values, width N
        if np.ndim(eta) != 1:
            raise ValidationError(f"pattern must be one vector of length {self.n}")
        return int(_pattern_index(bits[0]))

    def pattern(self, idx: int) -> np.ndarray:
        return self.src_bits[idx]

    def _legal(self, a, b):
        """Whether b is a legal successor of a; a and b are indices or index arrays."""
        return b & ~self.free[a] == self.forced[a]

    def edge_kind(self, src, dst) -> str:
        a, b = self._index(src), self._index(dst)
        return _EDGE_KINDS[int(self.free[a] != 0) if self._legal(a, b) else 2]

    def conditional_intervals(self, src, dst) -> dict[int, tuple[float, float]]:
        """Per-neuron sub-intervals of [v_min, theta) that enable a conditional edge.

        Keys are the neurons whose outcome genuinely depends on the potential;
        intervals are half-open [lo, hi).
        """
        a, b = self._index(src), self._index(dst)
        if not self._legal(a, b):
            raise ValidationError("edge is illegal; no enabling interval exists")
        theta, gamma = self.net.theta, self.net.gamma
        out: dict[int, tuple[float, float]] = {}
        for i in np.flatnonzero(self.pattern(self.free[a])):
            split = (theta - self.currents[a, i]) / gamma  # gamma > 0 whenever a neuron is free
            if self.src_bits[b, i] == 1:
                out[int(i)] = (max(self.v_min, split), theta)
            else:
                out[int(i)] = (self.v_min, min(split, theta))
        return out

    def successors(self, src) -> list[tuple[int, str]]:
        """Legal successor pattern indices of a source pattern, ascending, with edge kinds."""
        a = self._index(src)
        _, b, kind = next(self._edge_blocks(sources=(a, a + 1)))
        return list(zip(b.tolist(), [_EDGE_KINDS[k] for k in kind.tolist()]))

    def counts(self) -> dict[str, int]:
        """Edge counts by kind over all 2^N x 2^N pairs, computed without enumeration."""
        cube_dims = _popcount(self.free)
        conditional = int((1 << cube_dims[cube_dims > 0]).sum())
        unconditional = int(np.count_nonzero(cube_dims == 0))
        illegal = (1 << self.n) ** 2 - unconditional - conditional
        return dict(zip(_EDGE_KINDS, (unconditional, conditional, illegal)))

    def iter_edges(self, include_illegal: bool = False) -> Iterator[tuple[int, int, str]]:
        """Every (a, b, kind), sources ascending, then targets ascending; lazy, in numpy blocks."""
        for a, b, kind in self._edge_blocks(include_illegal):
            yield from zip(a.tolist(), b.tolist(), [_EDGE_KINDS[k] for k in kind.tolist()])

    def _edge_blocks(self, include_illegal: bool = False, sources: Optional[tuple] = None):
        """Edges of sources lo..hi-1 (default all), in order, as (a, b, kind index) array blocks.

        a's legal targets are ``forced[a] | s`` for the submasks s of ``free[a]``, ascending:
        the bits of k = 0..2^d-1 deposited in order onto the d set bits of ``free[a]``.
        """
        num = self.num_patterns
        lo, hi = sources or (0, num)
        dims = _popcount(self.free[lo:hi])
        sizes = np.full(hi - lo, num) if include_illegal else np.int64(1) << dims
        cuts = np.searchsorted(np.cumsum(sizes), np.arange(0, sizes.sum(), _EDGE_BLOCK), "right")
        bounds = [*np.unique(lo + cuts).tolist(), hi]
        for s0, s1 in zip(bounds, bounds[1:]):
            size, d_blk = sizes[s0 - lo:s1 - lo], dims[s0 - lo:s1 - lo]
            a = np.repeat(np.arange(s0, s1), size)
            kind = (self.free[a] != 0).astype(np.int64)
            if include_illegal:
                b = np.tile(np.arange(num), s1 - s0)
                kind[~self._legal(a, b)] = 2
            else:
                b, first = self.forced[a], np.cumsum(size) - size
                for d in np.unique(d_blk[d_blk > 0]).tolist():
                    rows, k = np.flatnonzero(d_blk == d), np.arange(1 << d)
                    bit = np.nonzero(self.src_bits[self.free[s0 + rows]])[1].reshape(-1, d, 1)
                    b[first[rows, None] + k] |= sum(((k >> j) & 1) << bit[:, j] for j in range(d))
            yield a, b, kind

    @property
    def is_markov(self) -> bool:
        """True iff every domain maps into a single domain (no free neuron anywhere)."""
        return not self.free.any()


def build_transition_graph(net: NetworkParams, cap: int = GRAPH_CAP_DEFAULT) -> TransitionGraph:
    """Classify all pattern transitions of the network.

    Refuses networks with N above ``cap``, an integer >= 1 (the construction
    enumerates all 2^N source patterns; per-neuron factorization keeps each
    one O(N)).
    """
    if net.n > _as_count(cap, "cap"):
        raise CapacityError(f"transition graph needs N <= {cap}, got N={net.n}")
    n = net.n
    num = 1 << n
    src_bits = np.unpackbits(np.arange(num, dtype="<u8")[:, None].view(np.uint8), axis=1,
                             count=n, bitorder="little")
    currents = _advance(net, 0.0, src_bits.astype(np.float64))  # as step sends a fired neuron
    theta, gamma = net.theta, net.gamma
    v_min = compute_bounds(net).v_min
    fired = src_bits == 1
    # A quiescent neuron stays below theta from v_min and reaches it from some v < theta
    # (strict >: the supremum is not attained; at gamma = 0 the two exclude each other).
    # One that cannot stay below fires, as in step, even where rounding allows neither.
    stays = ~_fires(gamma * v_min + currents, theta)
    reaches = gamma * theta + currents > theta
    forced = _pattern_index(np.where(fired, _fires(currents, theta), ~stays))
    free = _pattern_index(~fired & stays & reaches)
    for arr in (src_bits, currents, forced, free):
        arr.flags.writeable = False
    return TransitionGraph(
        net=net, v_min=v_min, src_bits=src_bits, currents=currents, forced=forced, free=free
    )


def check_legal(raster, graph: TransitionGraph) -> bool:
    """True iff every consecutive pattern pair of the raster is a feasible transition."""
    idx = _pattern_index(_check_raster(raster, graph.n))
    return bool(graph._legal(idx[:-1], idx[1:]).all())
