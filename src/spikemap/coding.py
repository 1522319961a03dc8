"""Raster coding: firing patterns, trajectory reconstruction from rasters, and
the pattern-transition structure of the map.

A firing pattern is a length-N 0/1 vector and a raster a 2-D stack of them, one
per step, made from states by :func:`spikemap.model.encode` alone; ``_check_raster``
holds every entry point, file I/O included, to that rule, and :func:`str_to_pattern`
parses all 0/1 text.  As fired coordinates are reset, the raster and the initial state
determine the trajectory; after a neuron's first spike, the raster alone fixes its potential.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .model import (
    CapacityError,
    NetworkParams,
    ValidationError,
    _affine,
    _as_array,
    _as_count,
    _fires,
    _trajectory,
    _wz,
    compute_bounds,
    encode,
)

__all__ = [
    "IllegalCodeError",
    "pattern_to_str",
    "str_to_pattern",
    "reconstruct_trajectory",
    "reconstruct_periodic",
    "TransitionGraph",
    "build_transition_graph",
    "check_legal",
    "firing_times",
]

EDGE_UNCONDITIONAL = "unconditional"
EDGE_CONDITIONAL = "conditional"
EDGE_ILLEGAL = "illegal"
_EDGE_KINDS = (EDGE_UNCONDITIONAL, EDGE_CONDITIONAL, EDGE_ILLEGAL)  # kind codes 0, 1, 2
_EDGE_BLOCK = 1 << 16  # edges per block of the enumeration, give or take one source's

GRAPH_CAP_DEFAULT = 16


class IllegalCodeError(ValueError):
    """A raster cycle is not realizable by any state of the network."""


def _check_raster(raster, n: Optional[int] = None, ndim: int = 2) -> np.ndarray:
    """The raster rule, as uint8: ndim nonempty dimensions (2: raster, 1: pattern), 0/1 values, width n."""
    try:
        r = np.asarray(raster)
    except ValueError:  # ragged rows
        raise ValidationError("raster rows must all have one length") from None
    if r.ndim != ndim:
        raise ValidationError(f"{('pattern', 'raster')[ndim - 1]} must be {ndim}-D, got shape {r.shape}")
    if 0 in r.shape:  # a raster codes at least its start state, a pattern at least one neuron
        raise ValidationError(f"a raster or pattern must be nonempty, got shape {r.shape}")
    if r.dtype.kind not in "biuf" or not ((r == 0) | (r == 1)).all():
        raise ValidationError("a raster or pattern holds 0/1 values only")
    if n is not None and r.shape[-1] != n:
        raise ValidationError(f"pattern width {r.shape[-1]} does not match N={n}")
    return r.astype(np.uint8, copy=False)


def pattern_to_str(eta) -> str:
    """Bitstring with neuron index increasing left to right."""
    return (_check_raster(eta, ndim=1) + np.uint8(ord("0"))).tobytes().decode()


def str_to_pattern(s: str) -> np.ndarray:
    """The pattern a bitstring spells, read as bytes: neuron index increasing left to right."""
    bits = np.frombuffer(str.encode(s), dtype=np.uint8) - np.uint8(ord("0"))  # TypeError unless a str
    if (bits > 1).any():  # any other character, '/' and below included, wraps above 1
        raise ValidationError(f"pattern string must be 0/1 characters, got {s!r}")
    return bits


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
    eta = cycle.astype(np.float64)
    currents = _affine(net, 0.0, 0.0, _wz(net, eta))  # currents[t]: where pattern t sends a fired neuron
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
    if not np.array_equal(encode(states, net.theta), cycle):
        raise IllegalCodeError(
            "raster cycle is not realizable: reconstructed states encode to a different cycle"
        )
    return states


def _pattern_index(bits: np.ndarray):
    """Index of a 0/1 pattern (or of each row of a stack of them): bit i is neuron i, as int64.

    The flags, padded to whole bytes of 8, are read as little-endian uint64 words, one per 8
    neurons.  Times 0x0102040810204080 (bit 7j + 7 for j = 0..7), byte k's flag lands on bit
    56 + k; the 64 partial products fall on distinct bits, so nothing carries into the top
    byte, and a shift by 56 leaves the word's 8 flags.  The words are OR-ed together 8 bits apart.
    """
    n = bits.shape[-1]
    flags = np.zeros(bits.shape[:-1] + (-(-n // 8) * 8,), dtype=np.uint8)
    flags[..., :n] = bits
    words = flags.view("<u8")  # multiplied and shifted in place, with no temporary arrays
    words *= np.uint64(0x0102040810204080)
    words >>= np.uint64(56)
    idx = words[..., 0].copy()
    for w in range(1, words.shape[-1]):
        idx |= words[..., w] << np.uint64(8 * w)
    return idx.view(np.int64)


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
    leaked potential can straddle the threshold on [v_min, theta).  Each
    is a threshold on the neuron's W z (see :func:`build_transition_graph`).
    So the legal successors of pattern a form a cube, held as two bit masks
    (bit i is neuron i): pattern b follows a iff it agrees with
    ``forced[a]`` on every neuron outside ``free[a]``.  An edge is
    ``unconditional`` when the cube is one pattern, ``conditional`` when it
    has free neurons (whose outcome then depends on the potential), and
    ``illegal`` when b lies outside the cube.
    """

    net: NetworkParams
    v_min: float
    src_bits: np.ndarray  # (2^N, N) uint8, row a is the bits of pattern a
    forced: np.ndarray    # (2^N,) int64 mask, next bits of the non-free neurons
    free: np.ndarray      # (2^N,) int64 mask, neurons whose next bit is free

    @functools.cached_property
    def currents(self) -> np.ndarray:
        """(2^N, N) read-only, where each source pattern sends a fired neuron, with step's bits:
        its leak term gamma*v*(1-1) is +0.0.  Computed on first read; the build needs only W z."""
        currents = _affine(self.net, 0.0, 0.0, _wz(self.net, self.src_bits.astype(np.float64)))
        currents.flags.writeable = False
        return currents

    @property
    def n(self) -> int:
        return self.net.n

    @property
    def num_patterns(self) -> int:
        return self.src_bits.shape[0]

    def _index(self, eta) -> int:
        """A pattern's index, from an index (an integer, not a bool), a string or a vector."""
        if isinstance(eta, numbers.Integral):
            idx = _as_count(eta, "pattern index", least=0)
            if idx >= self.num_patterns:
                raise ValidationError(f"pattern index {idx} out of range")
            return idx
        bits = str_to_pattern(eta) if isinstance(eta, str) else eta
        return int(_pattern_index(_check_raster(bits, self.n, ndim=1)))

    def pattern(self, idx) -> np.ndarray:
        """The bits of a pattern given as an index, a string or a vector."""
        return self.src_bits[self._index(idx)]

    def _legal(self, a, b):
        """Whether b is a legal successor of a; a and b are indices or index arrays."""
        return b & ~self.free[a] == self.forced[a]

    def edge_kind(self, src, dst) -> str:
        a, b = self._index(src), self._index(dst)
        return _EDGE_KINDS[int(self.free[a] != 0) if self._legal(a, b) else 2]

    def conditional_intervals(self, src, dst) -> dict[int, tuple[float, float]]:
        """Per-neuron sub-intervals of [v_min, theta) that enable a conditional edge.

        Keys are the neurons whose outcome genuinely depends on the potential;
        intervals are half-open [lo, hi), split at the least double from which
        step fires the neuron.
        """
        a, b = self._index(src), self._index(dst)
        if not self._legal(a, b):
            raise ValidationError("edge is illegal; no enabling interval exists")
        net, wz = self.net, _wz(self.net, self.src_bits[a].astype(np.float64))
        split = _least_double(lambda v: _fires(_affine(net, v, 0.0, wz), net.theta), net.n).tolist()
        return {i: (split[i], net.theta) if self.src_bits[b, i] else (self.v_min, split[i])
                for i in np.flatnonzero(self.pattern(self.free[a])).tolist()}

    def successors(self, src) -> list[tuple[int, str]]:
        """Legal successor pattern indices of a source pattern, ascending, with edge kinds."""
        a = self._index(src)
        kind = _EDGE_KINDS[int(self.free[a] != 0)]
        return [(b, kind) for b in np.flatnonzero(self._legal(a, np.arange(self.num_patterns))).tolist()]

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

    def _edge_blocks(self, include_illegal: bool = False):
        """Every edge, in order, as (a, b, kind index) array blocks.

        a's legal targets are ``forced[a] | s`` for the submasks s of ``free[a]``, ascending,
        built by doubling: the first 2^j of them, each OR-ed with the j-th lowest bit of
        ``free[a]``, are the next 2^j.
        """
        num = self.num_patterns
        dims = _popcount(self.free)
        sizes = np.full(num, num) if include_illegal else np.int64(1) << dims
        cuts = np.searchsorted(np.cumsum(sizes), np.arange(0, sizes.sum(), _EDGE_BLOCK), "right")
        bounds = [*np.unique(cuts).tolist(), num]
        for s0, s1 in zip(bounds, bounds[1:]):
            size, d_blk = sizes[s0:s1], dims[s0:s1]
            a = np.repeat(np.arange(s0, s1), size)
            kind = (self.free[a] != 0).astype(np.int64)
            if include_illegal:
                b = np.tile(np.arange(num), s1 - s0)
                kind[~self._legal(a, b)] = 2
            else:
                b, first = self.forced[a], np.cumsum(size) - size
                for d in np.unique(d_blk[d_blk > 0]).tolist():
                    rows = np.flatnonzero(d_blk == d)
                    mask, sub = self.free[s0 + rows], np.empty((rows.size, 1 << d), dtype=np.int64)
                    sub[:, 0] = self.forced[s0 + rows]
                    for j in range(d):
                        low = mask & -mask
                        sub[:, 1 << j:2 << j] = sub[:, :1 << j] | low[:, None]
                        mask ^= low
                    b[first[rows, None] + np.arange(1 << d)] = sub
            yield a, b, kind

    @property
    def is_markov(self) -> bool:
        """True iff every domain maps into a single domain (no free neuron anywhere)."""
        return not self.free.any()


def _least_double(fires, shape) -> np.ndarray:
    """Per element, the least double x for which ``fires(x)`` holds: fires tests an array of
    the given shape, element by element, and must be monotone in x, false at -inf and true at
    +inf, as the map's threshold test is in any one of its terms, since rounding is monotone.

    Bisects the doubles in their order, which ``key`` maps to int64 order (and back, as its
    own inverse): fires holds at ``hi`` and not at ``lo``, and 64 halvings leave them adjacent.
    """
    def key(bits):
        return bits ^ ((bits >> 63) & np.int64(0x7FFFFFFFFFFFFFFF))

    lo, hi = (np.full(shape, key(np.float64(end).view(np.int64))) for end in (-np.inf, np.inf))
    with np.errstate(over="ignore"):  # a sum beyond the float range rounds to inf, monotonically
        for _ in range(64):
            mid = (lo >> 1) + (hi >> 1) + (lo & hi & 1)
            up = fires(key(mid).view(np.float64))
            lo, hi = np.where(up, lo, mid), np.where(up, mid, hi)
    return key(hi).view(np.float64)


def build_transition_graph(net: NetworkParams, cap: int = GRAPH_CAP_DEFAULT) -> TransitionGraph:
    """Classify all pattern transitions of the network.

    Refuses networks with N above ``cap``, an integer >= 1 (the construction
    enumerates all 2^N source patterns; per-neuron factorization keeps each
    one O(N)).  Every next bit is a pattern's W z compared with the least
    double that fires the neuron; one bisection finds those doubles for a
    fired neuron and for both ends of a quiescent one's [v_min, theta).
    """
    if net.n > _as_count(cap, "cap"):
        raise CapacityError(f"transition graph needs N <= {cap}, got N={net.n}")
    n = net.n
    num = 1 << n
    src_bits = np.unpackbits(np.arange(num, dtype="<u8")[:, None].view(np.uint8), axis=1,
                             count=n, bitorder="little")
    wz = _wz(net, src_bits.astype(np.float64))
    theta = net.theta
    v_min = compute_bounds(net).v_min
    fired = src_bits == 1
    # step sends a fired neuron to its current, whose leak term gamma*v*(1-1) is +0.0, the
    # same term as a quiescent neuron's from v = 0.0.  step is monotone in a quiescent
    # neuron's own v, so it fires from all of [v_min, theta) iff it does from v_min, and from
    # some of it iff it does from the largest double below theta; one that fires from all is
    # forced to, as in step.  step is monotone in the neuron's W z too, so from each of the
    # three ends it fires iff its W z reaches the least that fires it.
    ends = np.array([[0.0], [v_min], [np.nextafter(theta, -np.inf)]])
    w_fire, w_min, w_top = _least_double(lambda w: _fires(_affine(net, ends, 0.0, w), theta), (3, n))
    sinks = wz >= w_min
    forced = _pattern_index(fired & (wz >= w_fire) | ~fired & sinks)
    free = _pattern_index(~fired & ~sinks & (wz >= w_top))
    for arr in (src_bits, forced, free):
        arr.flags.writeable = False
    return TransitionGraph(net=net, v_min=v_min, src_bits=src_bits, forced=forced, free=free)


def check_legal(raster, graph: TransitionGraph) -> bool:
    """True iff every consecutive pattern pair of the raster is a feasible transition."""
    idx = _pattern_index(_check_raster(raster, graph.n))
    return bool(graph._legal(idx[:-1], idx[1:]).all())


def firing_times(raster, i: int) -> np.ndarray:
    """Times t with raster[t][i] = 1, ascending; empty if neuron i never fires."""
    if isinstance(i, bool) or not isinstance(i, numbers.Integral):  # numpy reads a bool as a mask
        raise ValidationError(f"neuron index must be an integer, got {i!r}")
    raster = _check_raster(raster)
    if not (0 <= i < raster.shape[1]):
        raise IndexError(f"neuron index {i} out of range for N={raster.shape[1]}")
    return np.flatnonzero(raster[:, i])
