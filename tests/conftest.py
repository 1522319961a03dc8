"""Shared helpers for the test suite."""

from types import SimpleNamespace

import numpy as np

import spikemap as sm
from spikemap.coding import _least_double
from spikemap.model import _affine, _fires, _wz


def random_net(rng, n=None, gamma=None, coupling=1.5, i_ext_high=0.2, theta=1.0):
    """Random Gaussian-coupled network; coupling is the variance scale C."""
    if n is None:
        n = int(rng.integers(2, 7))
    if gamma is None:
        gamma = float(rng.uniform(0.1, 0.9))
    w = rng.normal(0.0, coupling / np.sqrt(n), (n, n))
    i_ext = rng.uniform(0.0, i_ext_high, n)
    return sm.NetworkParams(n=n, gamma=gamma, theta=theta, weights=w, i_ext=i_ext)


def batch_step(net, states):
    """Map applied to each row of states; independent of spikemap.step."""
    z = (states >= net.theta).astype(np.float64)
    return net.gamma * states * (1.0 - z) + z @ net.weights.T + net.i_ext


def stepped_states(net, v0, t_max, raster=None):
    """States 0..t_max stepped one at a time, independent of the repeated-tail copy.

    Patterns from the threshold through spikemap.step, or raster[t] drives the step
    from state t through the one kernel, as reconstruct_trajectory replays it.
    """
    v = np.asarray(v0, dtype=np.float64)
    states = [v]
    for t in range(t_max):
        z = None if raster is None else raster[t].astype(np.float64)
        v = sm.step(net, v) if z is None else _affine(net, v, z, _wz(net, z))
        states.append(v)
    return np.array(states)


def first_repeat(states):
    """(t, lam) for the first t whose state equals state t - lam bit for bit, or None."""
    seen = {}
    for t, key in enumerate(map(np.ndarray.tobytes, states)):
        if key in seen:
            return t, t - seen[key]
        seen[key] = t
    return None


def example1_net():
    """One self-less neuron driven just below threshold: v(t) = 1 - 0.5^t from 0."""
    return sm.NetworkParams(n=1, gamma=0.5, theta=1.0, weights=[[0.0]], i_ext=[0.5])


def direct_sum_state(net, v0, raster, t):
    """Literal leak-weighted sum with explicit powers and survival products.

    Independent of the replay evaluation used by reconstruct: the initial
    term survives until the neuron's first spike, and each past current is
    weighted by the leak power times the survival product since then.
    """
    raster = np.asarray(raster)
    out = np.empty(net.n)
    for i in range(net.n):
        survive = 1.0
        for k in range(t):
            survive *= 1.0 - raster[k][i]
        acc = net.gamma ** t * survive * v0[i]
        for n in range(1, t + 1):
            survive = 1.0
            for k in range(n, t):
                survive *= 1.0 - raster[k][i]
            current = net.weights[i] @ raster[n - 1].astype(float) + net.i_ext[i]
            acc += net.gamma ** (t - n) * survive * current
        out[i] = acc
    return out


def quarter_net(rng, n, gamma, theta=1.0):
    """Random net with half its weights rounded to quarters, so sums can land on theta exactly."""
    w = rng.normal(0.0, 1.5 / np.sqrt(n), (n, n))
    quarters = rng.random((n, n)) < 0.5
    w[quarters] = np.round(4.0 * w[quarters]) / 4.0
    i_ext = np.where(rng.random(n) < 0.5, 0.0, rng.uniform(0.0, 0.3, n))
    return sm.NetworkParams(n=n, gamma=gamma, theta=theta, weights=w, i_ext=i_ext)


def submask_walk_edges(graph, include_illegal=False):
    """Every edge (a, b, kind), sources ascending, then targets ascending, walked in Python.

    Independent of the graph's own enumeration: b follows a iff it agrees
    with forced[a] outside free[a], and the legal targets of a are walked as
    the submasks of free[a] in ascending order.
    """
    edges = []
    for a in range(graph.num_patterns):
        forced, free = int(graph.forced[a]), int(graph.free[a])
        kind = "conditional" if free else "unconditional"
        if include_illegal:
            edges += [(a, b, kind if b & ~free == forced else "illegal")
                      for b in range(graph.num_patterns)]
            continue
        s = 0
        while True:
            edges.append((a, forced | s, kind))
            s = (s - free) & free  # next submask of free in ascending order; 0 after the last
            if not s:
                break
    return edges


def reference_graph(net):
    """The transition graph's construction before the fired neurons' bits were read off W z:
    currents, forced and free, and ``edges(include_illegal)``, every edge as one block of
    (a, b, kind index) arrays.

    A fired neuron's next bit is ``_fires(currents, theta)`` of the currents
    ``_affine(net, 0.0, 0.0, W z)``; a quiescent neuron's are W z compared with the least
    doubles that fire it from v_min and from just below theta.  Masks are summed as
    ``bits @ 2**i``, and each source's submasks are deposited on the bits ``np.nonzero``
    finds in its free mask.
    """
    n, theta, num = net.n, net.theta, 1 << net.n
    src_bits = ((np.arange(num)[:, None] >> np.arange(n)) & 1).astype(np.uint8)
    wz = _wz(net, src_bits.astype(np.float64))
    currents = _affine(net, 0.0, 0.0, wz)
    fired = src_bits == 1
    ends = np.array([[sm.compute_bounds(net).v_min], [np.nextafter(theta, -np.inf)]])
    w_min, w_top = _least_double(lambda w: _fires(_affine(net, ends, 0.0, w), theta), (2, n))
    weights = np.int64(1) << np.arange(n, dtype=np.int64)
    forced = (fired & _fires(currents, theta) | ~fired & (wz >= w_min)).astype(np.int64) @ weights
    free = (~fired & (wz < w_min) & (wz >= w_top)).astype(np.int64) @ weights

    def edges(include_illegal=False):
        if include_illegal:
            a, b = np.repeat(np.arange(num), num), np.tile(np.arange(num), num)
            kind = np.where(b & ~free[a] == forced[a], free[a] != 0, 2).astype(np.int64)
            return a, b, kind
        dims = np.array([bin(mask).count("1") for mask in free.tolist()], dtype=np.int64)
        size = np.int64(1) << dims
        a = np.repeat(np.arange(num), size)
        b, first = forced[a], np.cumsum(size) - size
        for d in np.unique(dims[dims > 0]).tolist():
            rows, k = np.flatnonzero(dims == d), np.arange(1 << d)
            bit = np.nonzero(src_bits[free[rows]])[1].reshape(-1, d, 1)
            b[first[rows, None] + k] |= sum(((k >> j) & 1) << bit[:, j] for j in range(d))
        return a, b, (free[a] != 0).astype(np.int64)

    return SimpleNamespace(currents=currents, forced=forced, free=free, edges=edges)


def scalar_orbit(net, v0, max_transient, max_period, tol, polish_steps):
    """find_periodic_orbit one state at a time, independent of the lockstep scan and entry pass.

    Brent's scan with the power capped at max_period, reference_polish, up to 8 scans
    in all, and the entry found by re-simulating from v0: the first t, then the lowest
    phase, within tol and with the same firing pattern.
    """
    theta = net.theta
    horizon = max_transient + 2 * max_period
    v, budget = np.asarray(v0, dtype=np.float64), horizon
    for _ in range(8):
        if budget <= 0:
            break
        anchor, power, lam, hare, used, found = v, 1, 1, sm.step(net, v), 1, None
        while used <= budget:
            if (np.array_equal(hare >= theta, anchor >= theta)
                    and sm.max_dist(hare, anchor) <= tol):
                found = lam
                break
            if lam == power:
                anchor, power, lam = hare, min(2 * power, max_period), 0
            hare, used, lam = sm.step(net, hare), used + 1, lam + 1
        budget -= used
        if found is None:
            break
        polished, v = reference_polish(net, hare, found, tol, polish_steps)
        if polished is None:
            continue
        states, period = polished
        x, entry = np.asarray(v0, dtype=np.float64), (horizon, 0)
        for t in range(horizon + 1):
            hits = [k for k in range(period) if np.array_equal(x >= theta, states[k] >= theta)
                    and sm.max_dist(x, states[k]) <= tol]
            if hits:
                entry = (t, hits[0])
                break
            x = sm.step(net, x)
        states = np.roll(states, -entry[1], axis=0)
        return sm.OrbitReport(transient=entry[0], period=period, states=states,
                              cycle_raster=sm.encode(states, theta),
                              min_threshold_gap=float(np.min(np.abs(states - theta))))
    return sm.Undetermined(horizon)


def reference_sample(results, tol):
    """orbits._sample with np.roll rotations: the distinct orbits of results in first-seen
    order, and the Undetermined count.

    An orbit is a duplicate of a kept one of the same period when some rotation of it,
    tried in order, has the kept one's raster and lies within tol of its states.
    """
    kept, undetermined = [], 0
    for res in results:
        if isinstance(res, sm.Undetermined):
            undetermined += 1
        elif not any(prev.period == res.period and any(
                np.array_equal(np.roll(res.cycle_raster, -r, axis=0), prev.cycle_raster)
                and sm.max_dist(np.roll(res.states, -r, axis=0), prev.states) <= tol
                for r in range(res.period)) for prev in kept):
            kept.append(res)
    return kept, undetermined


def reference_polish(net, x0, period, tol, budget):
    """orbits._polish on one row, one step at a time, independent of its chunked pattern check.

    After every step the firing pattern, as bytes, must match the first chunk's
    at that phase; a mismatch rejects at once with the state that showed it.  The
    first chunk's last pattern must match its first, and once the first chunk
    passes, each neuron that never fired in it and whose current
    ``weights[i] @ z + i_ext[i]`` was exactly 0 at every step is set to 0, if it is
    not 0 already.  A rejection after such a zeroing returns the state the same
    number of steps down x0's own trajectory, simulated afresh.  Accepts a chunk
    that recurs bit for bit, or closes within tol once the budget is spent; then
    reduces to the least period whose rotation fires the same patterns and closes the
    same way, so that the reduced states fire the raster they are reported with.
    """
    theta = net.theta
    budget = max(budget, 2 * period)
    chunk = np.empty((period + 1, net.n), dtype=np.float64)
    cycle, x, steps, zeroed = None, np.array(x0, dtype=np.float64), 0, False

    def rejected():
        return None, sm.simulate(net, x0, steps).states[-1] if zeroed else x

    while True:
        chunk[0] = x
        keys = [(x >= theta).tobytes()]
        for k in range(1, period + 1):
            x = sm.step(net, x)
            steps += 1
            chunk[k] = x
            key = (x >= theta).tobytes()
            if cycle is None:
                keys.append(key)
            elif key != cycle[k % period]:
                return rejected()
        if cycle is None:
            if keys[period] != keys[0]:
                return rejected()
            cycle = keys[:period]
            leaking = [i for i in range(net.n) if x[i] != 0.0 and all(
                z[i] == 0.0 and net.weights[i] @ z + net.i_ext[i] == 0.0
                for z in (chunk[:period] >= theta).astype(np.float64))]
            if leaking:
                x[leaking] = 0.0
                zeroed = True
                continue
        exact = np.array_equal(chunk[period], chunk[0])
        if exact or steps >= budget:
            break
    if not exact and sm.max_dist(chunk[period], chunk[0]) > tol:
        return rejected()
    states = chunk[:period].copy()
    for d in range(1, period + 1):
        shifted = np.roll(states, -d, axis=0)
        if period % d == 0 and np.array_equal(shifted >= theta, states >= theta) and (
                np.array_equal(shifted, states) if exact else sm.max_dist(shifted, states) <= tol):
            return (states[:d], d), x
