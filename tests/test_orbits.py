import math
import pathlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import spikemap as sm
from spikemap import fileio, orbits
from spikemap.ensemble import _run_sweep_batch, _stream
from spikemap.model import _Stack
from spikemap.orbits import (_batch_size, _brent_scan, _Cycle, _cycles, _fan_out, _locate_entries,
                             _report, _sample, _starts)
from conftest import (example1_net, quarter_net, random_net, reference_polish, reference_sample,
                      scalar_orbit)

DATA = pathlib.Path(__file__).parent / "data"


def quiescent_net(n=3, gamma=0.5, i_ext=0.0):
    return sm.NetworkParams(n=n, gamma=gamma, theta=1.0,
                            weights=np.zeros((n, n)), i_ext=np.full(n, i_ext))


def polish_alone(net, x, period, tol, budget):
    """orbits._polish on a group of one row: (states, closed bit-exactly) or None, and the
    resume state."""
    found, resume = orbits._polish(_Stack.of([net]), np.array([x], dtype=np.float64), period, tol,
                                   budget)
    return found[0], resume[0]


def least_period(net, states, exact, tol):
    """Closed states cut to their least period as _cycles cuts them: (states, period)."""
    period = len(states)
    full = _Cycle(period, states, sm.encode(states, net.theta), net.theta)
    p = next(d for d in range(1, period + 1)
             if period % d == 0 and full.rotation_is(d, full, 0.0 if exact else tol))
    return states[:p], p


def assert_polish_equals_reference(nets, xs, period, tol, budget):
    """Each row of one group polish, cut to its least period, bit for bit as reference_polish
    on that row alone.  Returns the cut rows, (states, period) or None, and the resume states."""
    found, resume = orbits._polish(_Stack.of(nets), np.array(xs), period, tol, budget)
    cut = [None if got is None else least_period(net, *got, tol) for net, got in zip(nets, found)]
    for net, x, got, at in zip(nets, xs, cut, resume):
        want, want_at = reference_polish(net, x, period, tol, budget)
        assert at.tobytes() == want_at.tobytes()
        assert (got is None) == (want is None)
        if got is not None:
            assert got[1] == want[1] and got[0].tobytes() == want[0].tobytes()
    return cut, resume


class TestFindPeriodicOrbit:
    def test_neural_death_fixed_point(self):
        net = quiescent_net()
        report = sm.find_periodic_orbit(net, [0.7, -0.2, 0.9], max_transient=200, max_period=50)
        assert report.period == 1
        assert np.max(np.abs(report.states)) <= 1e-12
        assert abs(report.min_threshold_gap - 1.0) <= 1e-12
        assert not report.cycle_raster.any()

    def test_full_activity_fixed_point(self):
        net = sm.NetworkParams(n=2, gamma=0.5, theta=1.0,
                               weights=[[0.6, 0.6], [0.6, 0.6]], i_ext=[0.0, 0.0])
        report = sm.find_periodic_orbit(net, [1.0, 1.4], max_transient=50, max_period=20)
        assert report.period == 1
        assert report.states.tolist() == [[1.2, 1.2]]
        assert report.cycle_raster.all()
        assert abs(report.min_threshold_gap - 0.2) < 1e-15

    def test_alternating_pair(self):
        net = sm.NetworkParams(n=2, gamma=0.3, theta=1.0,
                               weights=[[0.0, 1.2], [1.2, 0.0]], i_ext=[0.05, 0.05])
        report = sm.find_periodic_orbit(net, [1.5, 0.0], max_transient=100, max_period=50)
        assert report.period == 2
        assert sorted(row.tolist() for row in report.cycle_raster) == [[0, 1], [1, 0]]

    def test_ghost_is_undetermined_at_short_horizons(self):
        report = sm.find_periodic_orbit(example1_net(), [0.0], max_transient=10, max_period=5)
        assert report == sm.Undetermined(horizon=20)

    def test_ghost_collapses_onto_threshold_cycle_in_double_precision(self):
        # the true orbit creeps up to the threshold forever, but doubles run out
        # of room below 1.0 after 53 halvings: the simulated path lands exactly
        # on the threshold, fires, and repeats with period 54, gap 0
        report = sm.find_periodic_orbit(example1_net(), [0.0], max_transient=200, max_period=100)
        assert report.period == 54
        assert report.min_threshold_gap == 0.0
        assert report.cycle_raster.sum() == 1

    def test_ghost_cycle_found_within_horizon(self):
        # the cycle is reached at t = 1; scanning from t = 0 finds it within the
        # horizon 60 + 2*54, where a burn-in of 60 steps left too little room
        report = sm.find_periodic_orbit(example1_net(), [0.0], max_transient=60, max_period=54)
        assert report.period == 54
        assert report.min_threshold_gap == 0.0

    def test_cycle_entered_by_max_transient_is_found(self):
        # one spike runs down a chain of 64 neurons into a ring of 54: the
        # trajectory is on a period-54 cycle from t = 64 on.  With the Brent
        # power capped at max_period the anchor moves every 54 steps, so the
        # cycle closes at t = 171, inside the horizon 64 + 2*54; doubling the
        # power instead would place the anchor at t = 127 and need until t = 181
        chain, ring = 64, 54
        n = chain + ring
        w = np.zeros((n, n))
        w[np.arange(1, n), np.arange(n - 1)] = 1.5
        w[chain, n - 1] = 1.5
        net = sm.NetworkParams(n=n, gamma=0.5, theta=1.0, weights=w, i_ext=np.zeros(n))
        v0 = np.zeros(n)
        v0[0] = 1.5
        report = sm.find_periodic_orbit(net, v0, max_transient=chain, max_period=ring)
        assert report.period == ring
        assert report.transient == chain

    def test_dead_fixed_point_is_exactly_zero(self):
        # for gamma > 0.5 the leak stalls a few subnormals away from 0; a
        # current-free neuron is set to 0, a fixed point of step for it
        net = quiescent_net(gamma=0.875)
        report = sm.find_periodic_orbit(net, [0.7, -0.2, 0.9], max_transient=3000, max_period=1000)
        assert report.period == 1
        assert np.array_equal(report.states, np.zeros((1, 3)))
        assert not np.signbit(report.states).any()
        assert report.min_threshold_gap == 1.0

    def test_leaking_neuron_beside_a_near_singular_one_is_exactly_zero(self):
        # neuron 0 settles 2^-53 below theta, a gap no rounding margin fits in;
        # neuron 1 gets no current, so it is set to 0 all the same
        gamma = 0.875
        net = sm.NetworkParams(n=2, gamma=gamma, theta=1.0, weights=np.zeros((2, 2)),
                               i_ext=[(1 - 2**-53) * (1 - gamma), 0.0])
        report = sm.find_periodic_orbit(net, [0.0, 0.7])
        assert report.period == 1 and not report.cycle_raster.any()
        assert report.states[0, 1] == 0.0 and not np.signbit(report.states[0, 1])

    def test_rejection_after_a_zeroing_resumes_on_the_own_trajectory(self):
        # neuron 1 gets no current while neuron 0 creeps up to theta, so polish zeroes it;
        # then neuron 0 fires and the candidate is rejected.  From its own value neuron 1
        # fires next and latches, and inhibits neuron 0; from 0 it would never fire
        net = sm.NetworkParams(n=2, gamma=0.9, theta=1.0, weights=[[0.0, -0.5], [0.99, 1.0]],
                               i_ext=[0.1001, 0.0])
        v0 = np.array([0.99, 0.3])
        trajectory = sm.simulate(net, v0, 100)
        first = int(np.argmax(trajectory.raster[:, 0]))  # neuron 0's first firing
        polished, resume = polish_alone(net, v0, 1, 0.05, 100)
        assert polished is None and first > 1
        assert resume.tobytes() == trajectory.states[first].tobytes()
        kw = dict(max_transient=200, max_period=10, tol=0.05, polish_steps=100)
        report = sm.find_periodic_orbit(net, v0, **kw)
        assert report.period == 1 and report.cycle_raster.tolist() == [[0, 1]]
        assert same_report(report, scalar_orbit(net, v0, **kw))

    def test_budget_rejection_after_a_zeroing_resumes_on_the_own_trajectory(self):
        # neuron 1 is zeroed, then neuron 0 has not closed when the budget runs out
        net = sm.NetworkParams(n=2, gamma=0.9, theta=1.0, weights=np.zeros((2, 2)),
                               i_ext=[0.05, 0.0])
        v0 = np.array([0.2, 0.3])
        polished, resume = polish_alone(net, v0, 1, 0.0, 10)
        assert polished is None
        assert resume.tobytes() == sm.simulate(net, v0, 10).states[-1].tobytes()
        assert resume[1] != 0.0

    def test_step_calls_do_not_grow_with_max_transient(self, monkeypatch):
        # max_transient caps the scan; a start that settles early costs the same
        calls = [0]
        real_step = sm.orbits.step

        def counting_step(net, v):
            calls[0] += 1
            return real_step(net, v)

        monkeypatch.setattr(sm.orbits, "step", counting_step)
        net = quiescent_net(gamma=0.875, i_ext=0.05)
        used = []
        for max_transient in (3000, 100_000):
            calls[0] = 0
            report = sm.find_periodic_orbit(net, [0.7, -0.2, 0.9],
                                            max_transient=max_transient, max_period=1000)
            assert report.period == 1
            used.append(calls[0])
        assert used[0] == used[1]
        assert used[0] < 3000

    def test_closure_and_raster_invariants(self):
        rng = np.random.default_rng(21)
        found = 0
        for _ in range(15):
            net = random_net(rng, coupling=2.5, i_ext_high=0.5)
            report = sm.find_periodic_orbit(
                net, rng.uniform(*sm.compute_bounds(net), net.n),
                max_transient=2000, max_period=300, tol=1e-10,
            )
            if isinstance(report, sm.Undetermined):
                continue
            found += 1
            p = report.period
            assert report.min_threshold_gap >= 0.0
            v = report.states[0]
            for k in range(p):
                v = sm.step(net, v)
            assert sm.max_dist(v, report.states[0]) <= 1e-10
            assert np.array_equal(sm.encode(report.states, net.theta), report.cycle_raster)
        assert found >= 10

    def test_against_long_simulation(self):
        # long-run truth: far past the detection horizon the trajectory must sit
        # on the reported orbit, and `transient` steps must land on phase 0
        rng = np.random.default_rng(123)
        checked = 0
        for _ in range(25):
            n = int(rng.integers(2, 12))
            net = sm.NetworkParams(n=n, gamma=float(rng.uniform(0.0, 0.9)), theta=1.0,
                                   weights=rng.normal(0, 2.0 / np.sqrt(n), (n, n)),
                                   i_ext=rng.uniform(0, 0.5, n))
            v0 = rng.uniform(*sm.compute_bounds(net), n)
            report = sm.find_periodic_orbit(net, v0, max_transient=3000, max_period=800)
            if isinstance(report, sm.Undetermined):
                continue
            checked += 1
            v = v0.copy()
            for _ in range(6000):
                v = sm.step(net, v)
            assert min(sm.max_dist(v, s) for s in report.states) <= 1e-9
            v = v0.copy()
            for _ in range(report.transient):
                v = sm.step(net, v)
            assert sm.max_dist(v, report.states[0]) <= 1e-9
        assert checked >= 15

    def test_bad_args(self):
        with pytest.raises(sm.ValidationError):
            sm.find_periodic_orbit(example1_net(), [0.0], max_period=0)
        with pytest.raises(sm.ValidationError):
            sm.find_periodic_orbit(example1_net(), [0.0], tol=-1.0)
        for horizons in ({"max_transient": 2.5}, {"max_period": 1.5}, {"polish_steps": True}):
            with pytest.raises(sm.ValidationError):  # counts are integers
                sm.find_periodic_orbit(example1_net(), [0.0], **horizons)


# each run of orbit detection, given its horizons
_DETECTIONS = {
    "find_periodic_orbit": lambda **kw: sm.find_periodic_orbit(quiescent_net(), [0.0] * 3, **kw),
    "omega_sample": lambda **kw: sm.omega_sample(quiescent_net(), 2, np.random.default_rng(0), **kw),
    "sweep": lambda **kw: sm.sweep([0.5], [1.0], n=3, networks_per_cell=1, inits_per_network=1, **kw),
}


@pytest.mark.parametrize("run", list(_DETECTIONS))
def test_a_horizon_beyond_2_53_is_refused(run):
    # a RegimeLabel holds the horizon max_transient + 2*max_period as a float; beyond 2**53 the
    # budget array turned uint64, then object, and failed in the scan or printed another horizon
    for horizons in ({"max_transient": 0, "max_period": 2**52 + 1},
                     {"max_transient": 2**53 - 1, "max_period": 1},
                     {"max_transient": 10**20, "max_period": 1}):
        with pytest.raises(sm.ValidationError, match="2\\*\\*53"):
            _DETECTIONS[run](**horizons)
    result = _DETECTIONS[run](max_transient=2**53 - 2, max_period=1)  # the horizon 2**53 runs
    assert not isinstance(result, sm.Undetermined)


class TestOmegaSample:
    def test_neural_death_single_orbit(self):
        sample = sm.omega_sample(quiescent_net(), 6, np.random.default_rng(0),
                                 max_transient=200, max_period=50)
        assert len(sample.orbits) == 1
        assert sample.undetermined == 0

    def test_gamma_zero_resolves_exactly(self):
        # with no leak the state space collapses to finitely many current vectors,
        # so detection succeeds with zero tolerance for every start
        rng = np.random.default_rng(1)
        for trial in range(5):
            net = random_net(rng, n=6, gamma=0.0, coupling=1.5, i_ext_high=0.5)
            sample = sm.omega_sample(net, 5, np.random.default_rng(trial),
                                     max_transient=64, max_period=64, tol=0.0)
            assert sample.undetermined == 0

    def test_single_init(self):
        sample = sm.omega_sample(quiescent_net(), 1, np.random.default_rng(2),
                                 max_transient=100, max_period=20)
        assert len(sample.orbits) <= 1

    def test_num_inits_validated(self):
        for num_inits in (0, 2.5, 2.0):  # a count is an integer >= 1
            with pytest.raises(sm.ValidationError):
                sm.omega_sample(quiescent_net(), num_inits, np.random.default_rng(0))


def same_report(a, b) -> bool:
    """Bit-for-bit equality of two detection results."""
    if isinstance(a, sm.Undetermined) or isinstance(b, sm.Undetermined):
        return a == b
    return (type(a.transient), a.transient, a.period, a.states.tobytes(), a.cycle_raster.tobytes(),
            np.float64(a.min_threshold_gap).tobytes()) == (
            type(b.transient), b.transient, b.period, b.states.tobytes(), b.cycle_raster.tobytes(),
            np.float64(b.min_threshold_gap).tobytes())


def batch_reports(nets, v0s, max_transient, max_period, tol, polish_steps) -> list:
    """The report or Undetermined of every start of one multi-network :func:`_cycles` batch:
    each cycle re-based at its start's entry, which _locate_entries finds for that start."""
    cycles = _cycles(nets, v0s, max_transient, max_period, tol, polish_steps)
    rows = zip(cycles, [net for net in nets for _ in range(v0s.shape[1])],
               v0s.reshape(-1, nets[0].n))
    return [c if isinstance(c, sm.Undetermined) else _report(c, *_locate_entries(
        net, v0[None], [c.states], tol, max_transient + 2 * max_period)[0]) for c, net, v0 in rows]


class TestLockstep:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 12), st.integers(1, 4), st.integers(1, 4), st.integers(0, 2**32 - 1),
           st.sampled_from([0.0, 1e-10, 1e-3, 0.05, 0.3]), st.integers(0, 60), st.integers(1, 30),
           st.integers(0, 200))
    def test_batch_reports_equal_lone_runs(self, n, m, s, seed, tol, max_transient, max_period,
                                           polish_steps):
        # each row of a mixed batch, bit for bit, as find_periodic_orbit alone and as a scalar
        # reference; short horizons and wide tolerances give Undetermined rows and retries
        rng = np.random.default_rng(seed)
        nets = [quarter_net(rng, n, float(rng.choice([0.0, 0.25, 0.5, 0.875])),
                            theta=float(rng.choice([1.0, 1.0, 0.75]))) for _ in range(m)]
        v0s = np.round(rng.uniform(-2.0, 2.0, (m, s, n)) * 4.0) / 4.0
        at_theta = rng.random((m, s, n)) < 0.3
        v0s[at_theta] = np.broadcast_to([[[net.theta]] for net in nets], (m, s, n))[at_theta]
        kw = dict(max_transient=max_transient, max_period=max_period, tol=tol,
                  polish_steps=polish_steps)
        batch = batch_reports(nets, v0s, **kw)
        for k, net in enumerate(nets):
            for j in range(s):
                assert same_report(batch[k * s + j], sm.find_periodic_orbit(net, v0s[k, j], **kw))
                assert same_report(batch[k * s + j], scalar_orbit(net, v0s[k, j], **kw))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 8), st.integers(1, 6), st.integers(1, 5), st.booleans(),
           st.integers(0, 2**32 - 1), st.sampled_from([0.0, 1e-10, 0.05]), st.integers(0, 60))
    def test_polish_equals_the_per_step_reference(self, n, period, rows, shared_theta, seed, tol,
                                                  budget):
        # a group of rows on networks of their own, with one theta or several, each row as the
        # reference alone: most random box states are pseudo-orbits, rejected with the first
        # state off the cycle's patterns; warmed-up states are often accepted
        rng = np.random.default_rng(seed)
        nets = [quarter_net(rng, n, float(rng.choice([0.0, 0.25, 0.5, 0.875])),
                            theta=1.0 if shared_theta else (0.75, 1.0, 1.25)[g % 3])
                for g in range(rows)]
        xs = []
        for net in nets:
            x = rng.uniform(*sm.compute_bounds(net), n)
            for _ in range(int(rng.choice([0, 40]))):
                x = sm.step(net, x)
            xs.append(x)
        assert_polish_equals_reference(nets, xs, period, tol, budget)

    @pytest.mark.parametrize("period, tol, budget", [(2, 0.05, 40), (1, 0.0, 40), (4, 0.0, 200)])
    def test_group_polish_covers_every_outcome(self, period, tol, budget):
        # one group, row by row as the reference: a leaking neuron closes a cycle exactly; a
        # creeping one closes within tol only at the budget; a pair alternates; and a ramp
        # whose neuron 1 leaks until neuron 0 fires at t = 23, mid-chunk at period 2
        leaky = sm.NetworkParams(n=2, gamma=0.875, theta=1.0, weights=np.zeros((2, 2)),
                                 i_ext=[1.5, 0.0])
        creep = sm.NetworkParams(n=2, gamma=0.9, theta=1.0, weights=np.zeros((2, 2)),
                                 i_ext=[0.05, 1.5])
        pair = sm.NetworkParams(n=2, gamma=0.3, theta=1.0, weights=[[0.0, 1.2], [1.2, 0.0]],
                                i_ext=[0.05, 0.05])
        ramp = sm.NetworkParams(n=2, gamma=0.9, theta=1.0, weights=[[0.0, -0.5], [0.99, 1.0]],
                                i_ext=[0.1001, 0.0])
        nets, xs = [leaky, creep, pair, ramp], np.array([[1.5, 0.3], [0.2, 1.5], [1.5, 0.0],
                                                          [0.99, 0.3]])
        found, resume = assert_polish_equals_reference(nets, xs, period, tol, budget)
        # the leaking neuron is 0 in the cycle, and the cycle reduces to period 1
        assert found[0][1] == 1 and found[0][0].tolist() == [[1.5, 0.0]]
        creep_states = sm.simulate(creep, xs[1], budget).states
        if tol == 0.0:  # rejected at the budget, where it stopped
            assert found[1] is None and resume[1].tobytes() == creep_states[-1].tobytes()
        else:  # accepted within tol, not bit for bit
            assert found[1][1] == 1 and not np.array_equal(sm.step(creep, found[1][0][0]),
                                                            found[1][0][0])
        if period == 1:  # rejected at the first chunk
            assert found[2] is None and resume[2].tobytes() == sm.step(pair, xs[2]).tobytes()
        else:  # a period-4 candidate reduces to 2
            assert found[2][1] == 2
        first = int(np.argmax(sm.simulate(ramp, xs[3], 100).raster[:, 0]))
        assert first == 23 and found[3] is None  # rejected at a later chunk, where it went off
        assert resume[3].tobytes() == sm.simulate(ramp, xs[3], first).states[-1].tobytes()

    def test_retries_and_undetermined_rows_in_one_batch(self, monkeypatch):
        # a batch with Undetermined rows and pseudo-orbits its polish rejects
        rejected = []
        polish = orbits._polish

        def counting_polish(*args):
            out = polish(*args)
            rejected.extend(found is None for found in out[0])  # one entry per row
            return out

        monkeypatch.setattr(orbits, "_polish", counting_polish)
        rng = np.random.default_rng(8)
        ramp = sm.NetworkParams(n=3, gamma=0.875, theta=1.0, weights=np.zeros((3, 3)),
                                i_ext=[0.5, 0.0, 0.0])
        nets = [quarter_net(rng, 3, 0.5), ramp, quarter_net(rng, 3, 0.875)]
        v0s = np.round(rng.uniform(-2.0, 2.0, (3, 2, 3)) * 4.0) / 4.0
        kw = dict(max_transient=20, max_period=10, tol=0.05, polish_steps=5)
        batch = batch_reports(nets, v0s, **kw)
        assert any(rejected)
        assert 0 < sum(isinstance(r, sm.Undetermined) for r in batch) < 6
        for k, net in enumerate(nets):
            for j in range(2):
                assert same_report(batch[2 * k + j], sm.find_periodic_orbit(net, v0s[k, j], **kw))
                assert same_report(batch[2 * k + j], scalar_orbit(net, v0s[k, j], **kw))

    @pytest.mark.parametrize("max_period, scans", [(2, 4), (10, 8)])
    def test_rejected_rows_scan_again_until_budget_or_eight_scans(self, monkeypatch, max_period,
                                                                    scans):
        # with every candidate rejected, a row resting at a fixed point spends one step of
        # its budget per scan: it scans until the budget is spent, and at most 8 times
        polished = []

        def reject(stack, x0, period, tol, budget):
            polished.extend([period] * len(x0))  # one entry per row
            return [None] * len(x0), x0

        monkeypatch.setattr(orbits, "_polish", reject)
        nets = [quiescent_net(), quiescent_net(gamma=0.25)]
        batch = _cycles(nets, np.zeros((2, 3, 3)), max_transient=0, max_period=max_period, tol=0.0,
                        polish_steps=0)
        assert batch == [sm.Undetermined(2 * max_period)] * 6
        assert polished == [1] * (6 * scans)

    def test_scan_rows_leave_when_their_own_budget_is_spent(self):
        # one start twice, with a budget one step short of its recurrence and one just enough
        stack, v = _Stack.of([example1_net()]), np.zeros((1, 2, 1))
        rows = np.ones((1, 2), bool)
        _, used = _brent_scan(stack, v.copy(), np.full((1, 2), 10**4), rows, 100, 0.0)
        need = int(used[0, 0])
        lam, used = _brent_scan(stack, v.copy(), np.array([[need - 1, need]]), rows, 100, 0.0)
        assert need > 1 and lam[0, 0] == 0 and lam[0, 1] > 0 and used[0, 1] == need

    def test_lockstep_stops_once_every_row_is_done(self, monkeypatch):
        # starts at rest recur after one step and enter their cycle at t = 0: the scan steps
        # once, and the six rows are polished together in one step; alone, a start steps once
        # more to be polished, and its entry pass steps none
        stacked, polished = [], []
        polish = orbits._polish

        def counting_polish(stack, x0, *args):
            before = len(stacked)
            out = polish(stack, x0, *args)
            polished.append((len(x0), len(stacked) - before))  # rows, and steps taken
            return out

        monkeypatch.setattr(orbits, "step",
                            lambda net, v: stacked.append(isinstance(net, _Stack)) or sm.step(net, v))
        monkeypatch.setattr(orbits, "_polish", counting_polish)
        nets, kw = [quiescent_net(), quiescent_net(gamma=0.25)], dict(
            max_transient=10**4, max_period=100, tol=0.0, polish_steps=0)
        batch = _cycles(nets, np.zeros((2, 3, 3)), **kw)
        assert all(c.period == 1 for c in batch)
        assert polished == [(6, 1)] and all(stacked)
        assert sum(stacked) - polished[0][1] == 1  # the steps outside polish
        for net in nets:
            stacked.clear()
            report = sm.find_periodic_orbit(net, np.zeros(3), **kw)
            assert report.transient == 0 and report.period == 1 and stacked == [True, True]

    def test_batches_are_contiguous_near_equal_and_at_most_size(self):
        sizes = []

        def double(batch):
            sizes.append(len(batch))
            return [2 * t for t in batch]

        assert list(_fan_out(double, list(range(130)), 1, 64)) == [2 * t for t in range(130)]
        assert sizes == [43, 43, 44]
        sizes.clear()
        assert list(_fan_out(double, [1, 2, 3], 1, 64)) == [2, 4, 6] and sizes == [3]

    def test_batches_hold_64_networks_and_at_most_2_pow_20_weights(self):
        assert [_batch_size(n) for n in (1, 20, 128, 129, 1024, 1025, 5000)] == [
            64, 64, 64, 63, 1, 1, 1]
        with pytest.raises(sm.ValidationError):
            _batch_size(0)

    def test_polish_runs_hold_no_more_than_a_batch(self, monkeypatch):
        # each candidate period is one group, polished in runs of at most _batch_size(n)
        # rows whose chunks hold at most 2^20 floats
        runs = []
        polish = orbits._polish

        def recording_polish(stack, x0, period, *args):
            runs.append((len(x0), period))
            return polish(stack, x0, period, *args)

        monkeypatch.setattr(orbits, "_polish", recording_polish)
        cycles = _cycles([quiescent_net(n=20)] * 64, np.zeros((64, 5, 20)), 100, 10, 0.0, 0)
        assert len(cycles) == 320 and runs == [(64, 1)] * 5
        assert not any(isinstance(c, sm.Undetermined) for c in cycles)
        runs.clear()
        # each of 100 neurons ramps up to theta, fires and starts over: one long period
        n = 100
        ramp = sm.NetworkParams(n=n, gamma=0.99, theta=1.0, weights=np.zeros((n, n)),
                                i_ext=np.full(n, 0.0101))
        cycles = _cycles([ramp] * 64, np.zeros((64, 1, n)), 0, 1000, 0.0, 0)
        period = runs[0][1]
        assert len(cycles) == 64 and period > 400 and {p for _, p in runs} == {period}
        assert not any(isinstance(c, sm.Undetermined) for c in cycles)
        assert [rows for rows, _ in runs] == [22, 22, 20]
        assert all(rows * (period + 1) * n <= 2**20 < 64 * (period + 1) * n for rows, _ in runs)

    def test_entry_is_the_first_time_then_the_lowest_phase(self):
        # v halves each step: 0.4, 0.2, 0.1; at t = 2 phases 1 and 2 are both within tol.
        # From 0.7 the cycle at 5.0 is never met, so the entry is the cap
        cycles = [np.array([[0.3], [0.1], [0.12], [0.5]]), np.array([[5.0]])]
        entries = _locate_entries(quiescent_net(n=1), np.array([[0.4], [0.7]]), cycles, 0.05, 5)
        assert entries == [(2, 1), (5, 0)]
        assert _locate_entries(quiescent_net(n=1), np.empty((0, 1)), [], 0.05, 5) == []

    @pytest.mark.parametrize("name, seed, kw", [
        ("orbit_gamma0875_a_net", 0, {}),  # two orbits
        # one orbit, found in all three batches, and 81 Undetermined starts
        ("orbit_gamma05_net", 4, dict(max_transient=20, max_period=20)),
    ])
    def test_omega_sample_reports_each_orbit_from_its_first_start(self, name, seed, kw):
        # 150 starts, three batches: each kept orbit is find_periodic_orbit's report from the
        # first start that found it, on one process and on two
        net = fileio.read_network(DATA / f"{name}.json")
        lone = [sm.find_periodic_orbit(net, v0, **kw)
                for v0 in _starts(net, 150, np.random.default_rng(seed))]
        want, undetermined = reference_sample(lone, orbits.DEFAULT_TOL)
        for threads in (1, 2):
            sample = sm.omega_sample(net, 150, np.random.default_rng(seed), threads=threads, **kw)
            assert sample.undetermined == undetermined and len(sample.orbits) == len(want)
            for got, report in zip(sample.orbits, want):
                assert (got.transient, got.period, got.states.tobytes(),
                        got.cycle_raster.tobytes()) == (report.transient, report.period,
                                                        report.states.tobytes(),
                                                        report.cycle_raster.tobytes())

    def test_entry_pass_steps_one_row_per_kept_orbit(self, monkeypatch):
        # 150 starts find two distinct orbits: the entry pass steps their two first starts
        rows, locating = [], []
        locate, real_step = orbits._locate_entries, orbits.step

        def recording_locate(*args):
            locating.append(True)
            try:
                return locate(*args)
            finally:
                locating.clear()

        def recording_step(net, v):
            if locating:
                rows.append(len(v))
            return real_step(net, v)

        monkeypatch.setattr(orbits, "_locate_entries", recording_locate)
        monkeypatch.setattr(orbits, "step", recording_step)
        net = fileio.read_network(DATA / "orbit_gamma0875_a_net.json")
        sample = sm.omega_sample(net, 150, np.random.default_rng(0))
        assert len(sample.orbits) == 2 and rows and set(rows) == {2}


class TestSweepCycles:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 8),
           st.lists(st.tuples(st.sampled_from([0.0, 0.5, 0.75, 0.875]),
                              st.sampled_from([0.5, 1.5, 4.0])), min_size=1, max_size=4),
           st.integers(1, 6), st.sampled_from([0, 3, 40, 400]), st.sampled_from([2, 30]),
           st.sampled_from([0.0, 1e-10, 0.05]), st.integers(0, 2**32 - 1))
    # each: Undetermined rows, a network with three orbits, periods up to 2; tol 0 dedupes
    # only bit-identical rotations
    @example(2, 6, [(0.75, 4.0)] * 3, 6, 40, 30, 1e-10, 0)
    @example(2, 6, [(0.0, 0.5), (0.0, 4.0), (0.5, 4.0)], 4, 400, 30, 0.0, 0)
    def test_batch_equals_reports_deduped(self, seed, n, cells, inits, max_transient, max_period,
                                          tol, rotation_seed):
        # the sweep reads cycles without the entry pass; its tuples equal those built from
        # full reports deduped by np.roll rotations, every gap bit for bit
        tasks = [(sm.EnsembleSpec(n=n, c=c, gamma=gamma), k) for k, (gamma, c) in enumerate(cells)]
        nets = [sm.sample_network(spec, _stream(seed, spec.gamma, spec.c, k)) for spec, k in tasks]
        starts = [_starts(net, inits, _stream(seed, gamma, c, k, 1))
                  for k, (net, (gamma, c)) in enumerate(zip(nets, cells))]
        reports = batch_reports(nets, np.array(starts), max_transient, max_period, tol, 200)
        horizon = max_transient + 2 * max_period
        want = []
        for m in range(len(nets)):
            orbits_m, undetermined = reference_sample(reports[m * inits:(m + 1) * inits], tol)
            kind = sm.classify_regime(orbits_m, undetermined, horizon=horizon).kind
            d = np.float64(sm.dist_attractor_to_S(orbits_m)).tobytes() if orbits_m else None
            want.append((kind, d, [o.period for o in orbits_m], undetermined))
        got = [(kind, None if d is None else np.float64(d).tobytes(), periods, undetermined)
               for kind, d, periods, undetermined in _run_sweep_batch(
                   tasks, seed=seed, inits=inits, max_transient=max_transient,
                   max_period=max_period, tol=tol, polish_steps=200)]
        assert got == want
        # dedupe by slices of the doubled cycle keeps what np.roll keeps, over every report of
        # the batch and a copy of each at a random rotation, in random order
        rng = np.random.default_rng(rotation_seed)
        results = [*reports, *(res if isinstance(res, sm.Undetermined) else sm.OrbitReport(
            res.transient, res.period, *(np.roll(a, -int(rng.integers(res.period)), axis=0)
                                         for a in (res.states, res.cycle_raster)),
            res.min_threshold_gap) for res in reports)]
        # as _cycles returns them: every network of the batch has theta 1
        results = [res if isinstance(res, sm.Undetermined) else
                   _Cycle(res.period, res.states, res.cycle_raster, 1.0)
                   for res in (results[i] for i in rng.permutation(len(results)))]
        got, positions, got_undetermined = _sample(results, tol)
        kept, undetermined = reference_sample(results, tol)
        assert got_undetermined == undetermined == 2 * sum(
            isinstance(res, sm.Undetermined) for res in reports)
        assert len(got) == len(kept) and all(a is b for a, b in zip(got, kept))
        assert [id(results[i]) for i in positions] == [id(res) for res in got]


def assert_fires_its_own_raster(net, cycle):
    """Stepped once, each phase of cycle fires the raster row of the phase after it."""
    assert np.array_equal(sm.encode(sm.step(net, cycle.states), net.theta),
                          np.roll(cycle.cycle_raster, -1, axis=0))


class TestCycleMatch:
    ALTERNATING = fileio.read_network(DATA / "orbit_alternating_net.json")

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([0.0, 1e-10, 0.05]),
           st.sampled_from([0, 3, 200]), st.just(False))
    # a period-2 cycle firing 00 then 10, its phases 0.02 apart: within tol 0.05 of each other
    @example(0, 0.05, 0, True)
    def test_every_cycle_fires_its_own_raster(self, seed, tol, polish_steps, alternating):
        # through find_periodic_orbit, omega_sample and a multi-network _cycles batch
        rng = np.random.default_rng(seed)
        n = 2 if alternating else int(rng.integers(1, 7))
        nets = [quarter_net(rng, n, float(rng.choice([0.0, 0.5, 0.875]))), random_net(rng, n)]
        nets += [self.ALTERNATING] if alternating else []
        kw = dict(max_transient=300, max_period=30, tol=tol, polish_steps=polish_steps)
        starts = np.array([_starts(net, 4, rng) for net in nets])
        batch = _cycles(nets, starts, **kw)
        for m, net in enumerate(nets):
            sample = sm.omega_sample(net, 4, np.random.default_rng(seed), **kw)
            lone = [sm.find_periodic_orbit(net, v0, **kw) for v0 in starts[m]]
            for cycle in [*batch[4 * m:4 * m + 4], *sample.orbits, *lone]:
                if not isinstance(cycle, sm.Undetermined):
                    assert_fires_its_own_raster(net, cycle)
                    if tol == 0.0:  # closes bit for bit, leaking coordinates at 0 included
                        assert np.array_equal(sm.step(net, cycle.states),
                                              np.roll(cycle.states, -1, axis=0))

    def test_phases_of_one_cycle_within_tol_are_one_cycle(self):
        # the least-period reduction and dedupe compare the firing patterns, not only the
        # distance: the alternating net is on one period-2 cycle, not on two fixed points
        net = self.ALTERNATING
        report = sm.find_periodic_orbit(net, [0.0, 0.0], tol=0.05, polish_steps=0)
        assert report.period == 2 and report.cycle_raster.tolist() == [[0, 0], [1, 0]]
        assert sm.classify_regime([report], 0).kind == "StablePeriodic"
        for threads in (1, 2):  # three batches of starts, both phases in each
            sample = sm.omega_sample(net, 150, np.random.default_rng(0), tol=0.05,
                                     polish_steps=0, threads=threads)
            assert [o.period for o in sample.orbits] == [2] and sample.undetermined == 0


class TestDistances:
    def test_ghost_ramp_distance(self):
        traj = sm.simulate(example1_net(), [0.0], 50)
        assert sm.dist_traj_to_S(traj) == 2.0 ** -50

    def test_resting_distance(self):
        traj = sm.simulate(quiescent_net(), np.zeros(3), 10)
        assert sm.dist_traj_to_S(traj) == 1.0

    def test_touching_threshold(self):
        net = quiescent_net()
        traj = sm.simulate(net, [1.0, 0.0, 0.5], 5)
        assert sm.dist_traj_to_S(traj) == 0.0

    def test_attractor_distance_neural_death(self):
        report = sm.find_periodic_orbit(quiescent_net(), [0.4, 0.1, -0.3],
                                        max_transient=200, max_period=20)
        assert abs(sm.dist_attractor_to_S([report]) - 1.0) <= 1e-12

    def test_attractor_distance_with_drive(self):
        gamma, c = 0.6, 0.25
        net = quiescent_net(gamma=gamma, i_ext=c)
        report = sm.find_periodic_orbit(net, [0.1, 0.9, 0.0],
                                        max_transient=300, max_period=20)
        assert abs(sm.dist_attractor_to_S([report]) - (1.0 - c / (1.0 - gamma))) <= 1e-12

    def test_attractor_distance_direct(self):
        states = np.array([[1.2, 1.2]])
        orbit = sm.OrbitReport(transient=0, period=1, states=states,
                               cycle_raster=np.ones((1, 2), dtype=np.uint8),
                               min_threshold_gap=0.2)
        assert sm.dist_attractor_to_S([orbit]) == 0.2

    def test_empty_orbit_list(self):
        with pytest.raises(sm.ValidationError):
            sm.dist_attractor_to_S([])

    def test_empty_trajectory(self):
        traj = sm.Trajectory(net=quiescent_net(), states=np.empty((0, 3)),
                             raster=np.empty((0, 3), dtype=np.uint8))
        with pytest.raises(sm.ValidationError):
            sm.dist_traj_to_S(traj)


class TestStableManifoldRadius:
    def test_resting_radius(self):
        traj = sm.simulate(quiescent_net(), np.zeros(3), 10)
        assert sm.dist_traj_to_S(traj) == 1.0

    def test_touching_gives_zero(self):
        traj = sm.simulate(quiescent_net(), [1.0, 0.0, 0.0], 3)
        assert sm.dist_traj_to_S(traj) == 0.0

    def test_certifies_identical_rasters(self):
        rng = np.random.default_rng(3)
        checked = 0
        while checked < 20:
            net = random_net(rng, coupling=2.0, i_ext_high=0.5)
            v0 = rng.uniform(*sm.compute_bounds(net), net.n)
            horizon = 30
            mother = sm.simulate(net, v0, horizon)
            r = sm.dist_traj_to_S(mother)
            if r < 1e-9:
                continue
            other = sm.simulate(net, v0 + rng.uniform(-r / 2, r / 2, net.n), horizon)
            assert np.array_equal(mother.raster, other.raster)
            checked += 1


class TestMarkovHorizon:
    @pytest.mark.parametrize("eps,diam,gamma,expected", [
        (0.01, 2.0, 0.5, 7),
        (2.0, 2.0, 0.5, 0),
        (0.01, 2.0, 0.1, 2),
        (0.5, 2.0, 0.0, 1),
    ])
    def test_examples(self, eps, diam, gamma, expected):
        assert sm.markov_horizon(eps, diam, gamma) == expected

    def test_validation(self):
        with pytest.raises(sm.ValidationError):
            sm.markov_horizon(0.0, 1.0, 0.5)
        with pytest.raises(sm.ValidationError):
            sm.markov_horizon(0.1, 1.0, 1.0)
        for gamma in ("0.5", False, True):  # neither a string nor a bool is a gamma
            with pytest.raises(sm.ValidationError):
                sm.markov_horizon(1e-3, 2.0, gamma)

    @given(st.floats(1e-9, 0.9), st.floats(1e-9, 0.9), st.floats(0.01, 0.99))
    @settings(max_examples=200)
    def test_monotone_in_epsilon(self, eps1, eps2, gamma):
        lo, hi = sorted((eps1, eps2))
        assert sm.markov_horizon(lo, 1.0, gamma) >= sm.markov_horizon(hi, 1.0, gamma)


class TestPeriodBound:
    def test_examples(self):
        assert 2.0 ** sm.period_bound_log2(2, 0.25, 0.5) == 16.0
        assert 2.0 ** sm.period_bound_log2(6, 0.5, 0.5) == 2.0 ** 6
        assert abs(sm.period_bound_log2(50, 1e-6, 0.5)
                   - 50 * math.log(1e-6) / math.log(0.5)) < 1e-9

    def test_vacuous_above_one(self):
        with pytest.warns(UserWarning):
            assert 2.0 ** sm.period_bound_log2(4, 1.5, 0.5) == 1.0

    def test_validation(self):
        with pytest.raises(sm.ValidationError):
            sm.period_bound_log2(3, 0.5, 0.0)
        with pytest.raises(sm.ValidationError):
            sm.period_bound_log2(3, -0.5, 0.5)
        for gamma in ("0.5", True):
            with pytest.raises(sm.ValidationError):
                sm.period_bound_log2(4, 0.1, gamma)

    def test_an_orbit_on_the_threshold_bounds_nothing(self):
        # dyadic weights: this net's period-55 orbit has a state exactly on theta, so
        # dist_attractor_to_S returns 0.0, and the bound's limit as d -> 0+ is +inf
        net = fileio.read_network(DATA / "orbit_gamma05_net.json")
        d = sm.dist_attractor_to_S(sm.omega_sample(net, 2, np.random.default_rng(4)).orbits)
        assert d == 0.0
        assert sm.period_bound_log2(net.n, d, net.gamma) == math.inf
        for bad in (-1e-300, math.nan, math.inf):
            with pytest.raises(sm.ValidationError):
                sm.period_bound_log2(net.n, bad, net.gamma)

    def test_monotone_in_distance(self):
        vals = [sm.period_bound_log2(10, d, 0.5) for d in np.logspace(-8, -1, 30)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))


class TestClassifyRegime:
    def _death_orbit(self):
        return sm.OrbitReport(transient=0, period=1, states=np.zeros((1, 2)),
                              cycle_raster=np.zeros((1, 2), dtype=np.uint8),
                              min_threshold_gap=1.0)

    def _full_orbit(self):
        return sm.OrbitReport(transient=0, period=1, states=np.full((1, 2), 1.2),
                              cycle_raster=np.ones((1, 2), dtype=np.uint8),
                              min_threshold_gap=0.2)

    def test_paths(self):
        assert str(sm.classify_regime([self._death_orbit()], 0)) == "NeuralDeath"
        assert str(sm.classify_regime([self._full_orbit()], 0)) == "FullActivity"
        label = sm.classify_regime([self._death_orbit()], 3, horizon=500)
        assert label.kind == "Undetermined" and "500" in str(label)
        cyc = sm.OrbitReport(transient=0, period=2, states=np.array([[0.5, 1.2], [1.1, 0.3]]),
                             cycle_raster=np.array([[0, 1], [1, 0]], dtype=np.uint8),
                             min_threshold_gap=0.1)
        assert str(sm.classify_regime([cyc], 0)) == "StablePeriodic"
        tight = sm.OrbitReport(transient=0, period=2, states=np.array([[0.5, 1.2], [1.1, 0.3]]),
                               cycle_raster=np.array([[0, 1], [1, 0]], dtype=np.uint8),
                               min_threshold_gap=1e-9)
        label = sm.classify_regime([tight], 0)
        assert label.kind == "NearSingular" and label.value == 1e-9

    def test_empty_sample_is_internal_error(self):
        with pytest.raises(RuntimeError):
            sm.classify_regime([], 0)

    def test_label_round_trip(self):
        for label in (sm.RegimeLabel("NeuralDeath"), sm.RegimeLabel("NearSingular", 2.5e-8),
                      sm.RegimeLabel("Undetermined", 120000.0), sm.RegimeLabel("NearSingular", 0.0),
                      sm.RegimeLabel("NearSingular", np.float64(1e-7)),
                      sm.RegimeLabel("Undetermined", 0), sm.RegimeLabel("StablePeriodic")):
            assert sm.RegimeLabel.parse(str(label)) == label
        assert type(sm.RegimeLabel("Undetermined", np.int64(3)).value) is float

    def test_unknown_kind(self):
        with pytest.raises(sm.ValidationError, match="Bogus"):
            sm.RegimeLabel("Bogus")

    @pytest.mark.parametrize("count, horizon", [(-1, 0), (1.5, 0), (True, 0), (1, math.nan),
                                                (1, -5), (0, 2.0)])
    def test_counts_are_checked(self, count, horizon):
        with pytest.raises(sm.ValidationError):
            sm.classify_regime([self._death_orbit()], count, horizon=horizon)

    @pytest.mark.parametrize("kind, value", [
        ("Undetermined", None), ("NearSingular", None), ("NearSingular", math.nan),
        ("Undetermined", math.inf), ("Undetermined", 1.5), ("NearSingular", -1e-9), ("NearSingular", "1e-9"),
        ("NeuralDeath", 0.0), ("StablePeriodic", 1.0), ("FullActivity", math.nan),
    ])
    def test_value_only_where_the_kind_carries_one(self, kind, value):
        with pytest.raises(sm.ValidationError):
            sm.RegimeLabel(kind, value)

    @pytest.mark.parametrize("text", [
        "NearSingular(abc)", "NearSingular(1e-9", "NearSingular()", "NearSingular(nan)",
        "Undetermined", "Undetermined(-3)", "StablePeriodic(", "StablePeriodic(1)", "Bogus", "",
        "NeuralDeath ", "(1.0)",
    ])
    def test_malformed_label_is_refused(self, text):
        with pytest.raises(sm.ValidationError):
            sm.RegimeLabel.parse(text)


def looped_lyapunov(net, v0s, ball_radius, num_directions, horizon, rng, burn_in=0):
    """effective_lyapunov of a network's starts, one state of one start at a time, all from
    the one generator rng; also counts the collapsed steps.

    v0s is a list of starts, or the number of starts to draw from rng uniformly in net's
    invariant box.  Every start (drawn or given) and then its directions come first, in start
    order; the starts then step together and re-seed from rng, in step order and within a
    step in start order.  Returns (estimate, partial, total) per start: total counts the steps
    on which all its companions collapsed onto the mother and were re-seeded, partial those
    on which some but not all did.
    """
    def directions(k):
        u = rng.uniform(-1.0, 1.0, size=(k, net.n))
        scale = np.max(np.abs(u), axis=1, keepdims=True)
        scale[scale == 0.0] = 1.0
        return u / scale

    mothers, comps, drawn = [], [], isinstance(v0s, int)
    for v0 in range(v0s) if drawn else v0s:
        v0 = rng.uniform(*sm.compute_bounds(net), net.n) if drawn else v0
        mothers.append(np.asarray(v0, dtype=np.float64))
        comps.append(ball_radius * directions(num_directions))
    for i, mother in enumerate(mothers):
        for _ in range(burn_in):
            mother = sm.step(net, mother)
        mothers[i], comps[i] = mother, mother + comps[i]
    runs = [[0.0, 0, 0, 0] for _ in mothers]  # total, samples, partial, collapsed
    for _ in range(horizon):
        for i, run in enumerate(runs):
            mothers[i] = mother = sm.step(net, mothers[i])
            for k in range(num_directions):
                comps[i][k] = sm.step(net, comps[i][k])
            seps = np.max(np.abs(comps[i] - mother), axis=1)
            dead = seps == 0.0
            if dead.any():
                comps[i][dead] = mother + ball_radius * directions(int(dead.sum()))
                if dead.all():
                    run[3] += 1
                    continue
                run[2] += 1
            run[0] += math.log(float(seps.max()) / ball_radius)
            run[1] += 1
            live = ~dead
            comps[i][live] = mother + (comps[i][live] - mother) * (ball_radius / seps[live, None])
    return [(total / samples if samples else -math.inf, partial, collapsed)
            for total, samples, partial, collapsed in runs]


class TestEffectiveLyapunovBatched:
    """The mother and companions advance as one stack, bit-identically to looping step."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 8), st.integers(1, 6), st.just(0.0) | st.floats(0.0, 0.95),
           st.sampled_from([1e-6, 1e-3, 0.1, 1.0]), st.integers(0, 20), st.integers(0, 2**32 - 1))
    def test_matches_looped_reference(self, n, k, gamma, ball, burn_in, seed):
        rng = np.random.default_rng(seed)
        net = random_net(rng, n=n, gamma=gamma, coupling=2.0, i_ext_high=0.5)
        v0 = rng.uniform(*sm.compute_bounds(net), n)
        lam = sm.effective_lyapunov(net, v0, ball, k, 60, np.random.default_rng(seed),
                                    burn_in=burn_in)
        [(ref, _, _)] = looped_lyapunov(net, [v0], ball, k, 60, np.random.default_rng(seed),
                                        burn_in=burn_in)
        assert lam == ref

    def test_partial_and_total_collapse_reseed_alike(self):
        # period-3 ramp 0.6, 0.9, 1.05: a ball of 0.1 around 1.05 fires some companions
        # (they collapse onto the mother) but not all; one of 1e-3 fires them all
        net = sm.NetworkParams(n=1, gamma=0.5, theta=1.0, weights=[[0.0]], i_ext=[0.6])
        for ball, which in ((0.1, 1), (1e-3, 2)):
            lam = sm.effective_lyapunov(net, [0.6], ball, 6, 90, np.random.default_rng(2))
            [ref] = looped_lyapunov(net, [[0.6]], ball, 6, 90, np.random.default_rng(2))
            assert ref[which] > 0
            assert lam == ref[0]

    def test_all_collapsed_is_minus_inf(self):
        net = quiescent_net(i_ext=2.0)  # every neuron fires every step
        lam = sm.effective_lyapunov(net, np.full(3, 2.0), 1e-3, 4, 30, np.random.default_rng(3))
        assert lam == looped_lyapunov(net, [np.full(3, 2.0)], 1e-3, 4, 30,
                                      np.random.default_rng(3))[0][0] == -math.inf

    @pytest.mark.parametrize("v0", [[0.0, math.nan, 0.0], [0.0], np.zeros((4, 3))])
    def test_v0_is_checked(self, v0):
        with pytest.raises(sm.ValidationError):
            sm.effective_lyapunov(quiescent_net(), v0, 1e-3, 4, 10, np.random.default_rng(0))


def looped_rates(*args, **kwargs):
    return [rate for rate, _, _ in looped_lyapunov(*args, **kwargs)]


class TestLyapunovLockstep:
    """The networks of a batch step together, each with its own generator and its own rates."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 4), st.integers(1, 3), st.integers(1, 6),
           st.floats(-6.0, math.log10(3.0)), st.integers(0, 20), st.integers(0, 2**32 - 1))
    def test_batch_rates_equal_lone_runs(self, n, m, inits, k, log10_ball, burn_in, seed):
        # each network's rates, bit for bit, as the step-by-step loop over its starts on its
        # own generator; a lone start's as effective_lyapunov's
        rng = np.random.default_rng(seed)
        nets = [quarter_net(rng, n, float(rng.choice([0.0, 0.25, 0.5, 0.875])),
                            theta=float(rng.choice([1.0, 0.75]))) for _ in range(m)]
        seeds = rng.integers(0, 2**32, m).tolist()
        ball = 10.0 ** log10_ball
        batch = orbits._lyapunov(nets, [np.random.default_rng(s) for s in seeds], inits,
                                 ball, k, 40, burn_in)
        for net, s, rates in zip(nets, seeds, batch):
            want = looped_rates(net, inits, ball, k, 40, np.random.default_rng(s), burn_in)
            assert [r.hex() for r in rates] == [r.hex() for r in want]
            if inits == 1:
                lone = np.random.default_rng(s)
                v0 = lone.uniform(*sm.compute_bounds(net), n)
                lam = sm.effective_lyapunov(net, v0, ball, k, 40, lone, burn_in=burn_in)
                assert rates[0].hex() == lam.hex()

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 6), st.integers(1, 3), st.integers(1, 3), st.integers(1, 5),
           st.floats(-1.5, -0.3), st.integers(0, 2**32 - 1))
    def test_steps_on_and_off_the_mothers_patterns(self, n, m, inits, k, log10_ball, seed):
        # Gaussian weights, and a gamma and theta of each network's own.  On some steps every
        # companion fires its mother's pattern and W z is summed for the mothers alone; on
        # others some companion does not and it is summed for every row.  Either way each
        # network's rates are the step-by-step loop's, bit for bit
        rng = np.random.default_rng(seed)
        nets = [random_net(rng, n=n, gamma=float(rng.uniform(0.0, 0.95)), coupling=2.0,
                           i_ext_high=0.5, theta=float(rng.uniform(0.5, 1.5))) for _ in range(m)]
        seeds = rng.integers(0, 2**32, m).tolist()
        ball, shared, wz = 10.0 ** log10_ball, [], orbits._wz

        def recorded(net, z):
            shared.append(z.shape[2] == 1)
            return wz(net, z)

        with mock.patch.object(orbits, "_wz", recorded):
            batch = orbits._lyapunov(nets, [np.random.default_rng(s) for s in seeds], inits,
                                     ball, k, 80, 5)
        assume(any(shared) and not all(shared))
        for net, s, rates in zip(nets, seeds, batch):
            want = looped_rates(net, inits, ball, k, 80, np.random.default_rng(s), 5)
            assert [r.hex() for r in rates] == [r.hex() for r in want]

    def test_all_firing_network_beside_one_that_re_seeds(self):
        # the first network collapses every step; the second re-seeds some companions on
        # some steps (start 0) and all of them on others (start 1), each start's re-seeds
        # read from the network's one stream between the other's
        always = quiescent_net(i_ext=2.0)
        ordinary = quarter_net(np.random.default_rng(1), 3, 0.875)
        rates = orbits._lyapunov([always, ordinary], [np.random.default_rng(s) for s in (7, 2)], 2,
                                 0.1, 4, 60, 5)
        assert rates[0] == [-math.inf, -math.inf]
        runs = looped_lyapunov(ordinary, 2, 0.1, 4, 60, np.random.default_rng(2), burn_in=5)
        assert runs[0][1] > 0 and runs[1][2] > 0
        assert rates[1] == [lam for lam, _, _ in runs]

    def test_horizon_over_several_blocks(self):
        # the per-step maxima are folded into the sums a block at a time; a horizon of two
        # full blocks and a partial one, on a batch that collapses fully on every step,
        # re-seeds some companions, and never collapses, gives the lone runs' rates
        horizon = 2 * orbits._LYAP_BLOCK + 37
        nets = [quiescent_net(i_ext=2.0), quarter_net(np.random.default_rng(1), 3, 0.875),
                quiescent_net(gamma=0.5)]
        v0s = [np.full(3, 2.0), np.random.default_rng(5).uniform(-1.0, 1.5, 3), np.zeros(3)]
        seeds = (7, 2, 3)
        rates = orbits._lyapunov(nets, [np.random.default_rng(s) for s in seeds],
                                 np.reshape(v0s, (3, 1, 3)), 0.1, 4, horizon, 5)
        rates = [rate for rate, in rates]
        runs = [looped_lyapunov(net, [v0], 0.1, 4, horizon, np.random.default_rng(s), burn_in=5)[0]
                for net, v0, s in zip(nets, v0s, seeds)]
        assert runs[0] == (-math.inf, 0, horizon)
        assert runs[1][1] > 0 and runs[2][1:] == (0, 0)
        assert [r.hex() for r in rates] == [lam.hex() for lam, _, _ in runs]
        kwargs = dict(n=3, networks_per_cell=2, inits_per_network=1, ball_radius=0.1,
                      horizon=horizon, burn_in=5, seed=3)
        serial = sm.lyapunov_map([0.0, 0.875], [0.5, 3.0], **kwargs)
        assert serial == sm.lyapunov_map([0.0, 0.875], [0.5, 3.0], threads=2, **kwargs)
        assert serial[0].mean_lyapunov == serial[1].mean_lyapunov == -math.inf  # gamma 0


class TestEffectiveLyapunov:
    def test_quiescent_equals_log_gamma(self):
        net = quiescent_net(gamma=0.5)
        lam = sm.effective_lyapunov(net, np.zeros(3), 1e-3, 6, 500, np.random.default_rng(0))
        assert abs(lam - math.log(0.5)) <= 1e-9

    def test_contraction_bound_on_attractor(self):
        rng = np.random.default_rng(4)
        for gamma in (0.3, 0.6, 0.9):
            net = quiescent_net(gamma=gamma, i_ext=0.05)
            report = sm.find_periodic_orbit(net, np.zeros(3), max_transient=300, max_period=20)
            ball = report.min_threshold_gap / 2
            lam = sm.effective_lyapunov(net, report.states[0], ball, 6, 400, rng)
            assert lam <= math.log(gamma) + 1e-9

    def test_periodic_orbit_contraction(self):
        net = sm.NetworkParams(n=2, gamma=0.3, theta=1.0,
                               weights=[[0.0, 1.2], [1.2, 0.0]], i_ext=[0.05, 0.05])
        report = sm.find_periodic_orbit(net, [1.5, 0.0], max_transient=100, max_period=50)
        ball = report.min_threshold_gap / 3
        lam = sm.effective_lyapunov(net, report.states[0], ball, 6, 400, np.random.default_rng(5))
        assert lam <= math.log(0.3) + 1e-9

    def test_gamma_zero_total_collapse(self):
        net = quiescent_net(gamma=0.0)
        lam = sm.effective_lyapunov(net, np.zeros(3), 1e-3, 4, 50, np.random.default_rng(6))
        assert lam == -math.inf

    def test_expansion_events_lift_estimate_above_leak_rate(self):
        # ball much larger than the orbit's threshold gap: crossings inject
        # expansion and the estimate exceeds pure contraction (reported only;
        # at this scale the event rate does not reach a positive exponent)
        net = example1_net()
        report = sm.find_periodic_orbit(net, [0.0], max_transient=100, max_period=100)
        assert report.min_threshold_gap == 0.0
        lam = sm.effective_lyapunov(net, report.states[0], 1e-3, 6, 1080,
                                    np.random.default_rng(7))
        print(f"reported finite-ball exponent at radius 1e-3: {lam:.4f}")
        assert lam > math.log(0.5) + 0.01

    def test_validation(self):
        with pytest.raises(sm.ValidationError):
            sm.effective_lyapunov(quiescent_net(), np.zeros(3), 0.0, 4, 10,
                                  np.random.default_rng(0))
        with pytest.raises(sm.ValidationError):
            sm.effective_lyapunov(quiescent_net(), np.zeros(3), 1e-3, 0, 10,
                                  np.random.default_rng(0))
        for burn_in in (-1, 2.5, "3", True):
            with pytest.raises(sm.ValidationError):
                sm.effective_lyapunov(quiescent_net(), np.zeros(3), 1e-3, 4, 10,
                                      np.random.default_rng(0), burn_in=burn_in)
