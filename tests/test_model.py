import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import spikemap as sm
from spikemap import model
from spikemap.model import _Stack
from conftest import (
    batch_step, example1_net, first_repeat, quarter_net, random_net, stepped_states,
)


class TestComputeBounds:
    def test_mixed_signs(self):
        net = sm.NetworkParams(n=2, gamma=0.5, theta=1.0,
                               weights=[[0.0, 1.0], [-1.0, 0.0]], i_ext=[0.0, 0.0])
        assert sm.compute_bounds(net) == (-2.0, 2.0)

    def test_empty_sums(self):
        for gamma in (0.0, 0.3, 0.9):
            net = sm.NetworkParams(n=3, gamma=gamma, theta=1.0,
                                   weights=np.zeros((3, 3)), i_ext=np.zeros(3))
            assert sm.compute_bounds(net) == (0.0, 0.0)

    def test_positive_drive(self):
        net = sm.NetworkParams(n=1, gamma=0.5, theta=1.0, weights=[[0.0]], i_ext=[0.5])
        assert sm.compute_bounds(net) == (0.0, 1.0)

    @pytest.mark.parametrize("gamma, weights", [
        (0.5, [[1e308, 1e308], [1e308, 1e308]]),  # a row sum overflows: v_max is inf
        (0.999999, [[-1e303, 0.0], [0.0, 0.0]]),  # 1/(1 - gamma) carries v_min to -inf
        (0.5, [[-6e307, 0.0], [0.0, 6e307]]),  # both ends finite, the width is not
    ], ids=["row-sum", "leak-scale", "width"])
    def test_a_box_that_is_not_finite_is_refused(self, gamma, weights):
        # rng.uniform cannot draw a start from it, and the map's sums overflow in it
        with pytest.raises(sm.ValidationError, match="invariant box"):
            sm.NetworkParams(n=2, gamma=gamma, theta=1.0, weights=weights, i_ext=[0.0, 0.0])

    def test_the_box_is_computed_once_with_the_network(self):
        net = sm.NetworkParams(n=2, gamma=0.5, theta=1.0,
                               weights=[[0.0, 1.0], [-1.0, 0.0]], i_ext=[0.0, 0.0])
        assert sm.compute_bounds(net) is sm.compute_bounds(net)

    def test_a_negative_zero_gamma_is_held_as_zero(self):
        net = sm.NetworkParams(n=1, gamma=-0.0, theta=1.0, weights=[[0.0]], i_ext=[0.0])
        assert math.copysign(1.0, net.gamma) == 1.0


class TestSpikingState:
    # the firing test is exactly v >= theta, as encode applies it
    def test_at_threshold_fires(self):
        assert sm.encode([[1.0]], 1.0).tolist() == [[1]]

    def test_just_below_is_quiescent(self):
        assert sm.encode([[1.0 - 1e-15]], 1.0).tolist() == [[0]]

    def test_above_threshold(self):
        assert sm.encode([[2.0]], 1.0).tolist() == [[1]]

    @given(st.floats(-1e6, 1e6), st.floats(1e-6, 1e6))
    def test_matches_comparison(self, v, theta):
        assert sm.encode([[v]], theta)[0, 0] == (1 if v >= theta else 0)


class TestSynapticCurrent:
    # the current a firing pattern injects, W z, as step delivers it
    def test_no_firing_gives_zero(self):
        net = random_net(np.random.default_rng(0), n=4)
        assert np.array_equal(sm.step(net, np.zeros(4)), net.i_ext)

    def test_row_sums(self):
        net = sm.NetworkParams(n=2, gamma=0.5, theta=1.0,
                               weights=[[0.0, 1.0], [-1.0, 0.0]], i_ext=[0.0, 0.0])
        assert sm.step(net, [1.0, 1.0]).tolist() == [1.0, -1.0]

    def test_zero_self_weight(self):
        net = sm.NetworkParams(n=1, gamma=0.5, theta=1.0, weights=[[0.0]], i_ext=[0.0])
        assert sm.step(net, [1.0]).tolist() == [0.0]


class TestStep:
    def test_subthreshold_charging(self):
        assert sm.step(example1_net(), [0.0]).tolist() == [0.5]

    def test_reset_on_firing(self):
        # at threshold the neuron fires, drops its leak term, and keeps only the drive
        assert sm.step(example1_net(), [1.0]).tolist() == [0.5]

    def test_origin_fixed_point(self):
        net = sm.NetworkParams(n=2, gamma=0.7, theta=1.0,
                               weights=np.zeros((2, 2)), i_ext=np.zeros(2))
        assert sm.step(net, np.zeros(2)).tolist() == [0.0, 0.0]


class TestBatchedStep:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 40), st.integers(1, 40),
           st.just(0.0) | st.floats(0.0, 0.99), st.integers(0, 2**32 - 1))
    def test_stack_matches_looped_rows_bit_for_bit(self, n, k, gamma, seed):
        rng = np.random.default_rng(seed)
        w = rng.normal(0.0, 1.5 / np.sqrt(n), (n, n))
        quarters = rng.random((n, n)) < 0.5
        w[quarters] = np.round(4.0 * w[quarters]) / 4.0  # exact sums that can land on theta
        i_ext = np.where(rng.random(n) < 0.5, 0.0, rng.uniform(0.0, 0.3, n))
        net = sm.NetworkParams(n=n, gamma=gamma, theta=1.0, weights=w, i_ext=i_ext)
        states = rng.uniform(*sm.compute_bounds(net), (k, n))
        states[rng.random((k, n)) < 0.3] = net.theta
        looped = np.array([sm.step(net, row) for row in states])
        assert sm.step(net, states).tobytes() == looped.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 12), st.integers(1, 6), st.integers(1, 6), st.integers(0, 2**32 - 1),
           st.sampled_from([[1.0], [1.0, 0.75]]))
    def test_network_stack_matches_per_network_rows_bit_for_bit(self, n, m, s, seed, thetas):
        # (M, S, N) states on M networks: every row as step on its own network, whether
        # the networks share theta (held as one float) or not
        rng = np.random.default_rng(seed)
        nets = [quarter_net(rng, n, float(rng.choice([0.0, 0.25, 0.5, 0.875])),
                            theta=float(rng.choice(thetas))) for _ in range(m)]
        states = rng.uniform(-2.0, 2.0, (m, s, n))
        at_theta = rng.random((m, s, n)) < 0.3
        states[at_theta] = np.broadcast_to([[[net.theta]] for net in nets], (m, s, n))[at_theta]
        stack = _Stack.of(nets)
        assert isinstance(stack.theta, float) == (len({net.theta for net in nets}) == 1)
        got = sm.step(stack, states)
        for k, net in enumerate(nets):
            assert got[k].tobytes() == np.array([sm.step(net, row) for row in states[k]]).tobytes()
        pick = rng.permutation(m)[:rng.integers(1, m + 1)]
        assert sm.step(stack[pick], states[pick]).tobytes() == got[pick].tobytes()


class TestStepNoisy:
    # noise is added in simulate, one draw of N values per step
    def test_zero_noise_is_bit_identical(self):
        rng = np.random.default_rng(0)
        net = random_net(rng, n=5)
        v = rng.uniform(-1, 1, 5)
        assert np.array_equal(sm.simulate(net, v, 1, 0.0, None).states[1], sm.step(net, v))

    def test_seeded_determinism(self):
        net = random_net(np.random.default_rng(1), n=4)
        v = np.zeros(4)
        a = sm.simulate(net, v, 3, 0.5, np.random.default_rng(42)).states
        b = sm.simulate(net, v, 3, 0.5, np.random.default_rng(42)).states
        assert np.array_equal(a, b)

    def test_requires_rng(self):
        net = random_net(np.random.default_rng(2), n=3)
        with pytest.raises(sm.ValidationError):
            sm.simulate(net, np.zeros(3), 1, 0.1, None)

    def test_noise_mean(self):
        # 10^5 independent draws of the additive term: sample mean within 0.01 of 0
        # (gamma = 0 and no coupling: every state is the step's draw alone)
        n = 1000
        net = sm.NetworkParams(n=n, gamma=0.0, theta=1.0,
                               weights=np.zeros((n, n)), i_ext=np.zeros(n))
        draws = sm.simulate(net, np.zeros(n), 100, 1.0, np.random.default_rng(7)).states[1:]
        assert draws.size == 100_000
        assert abs(draws.mean()) < 0.01


class TestSimulate:
    def test_ghost_ramp_values(self):
        # exactly representable up to t = 53, so the iteration is error-free here
        traj = sm.simulate(example1_net(), [0.0], 10)
        for t in range(11):
            assert traj.states[t, 0] == 1.0 - 0.5 ** t
        assert not traj.raster.any()

    def test_zero_steps(self):
        traj = sm.simulate(example1_net(), [0.25], 0)
        assert len(traj) == 1
        assert traj.states.tolist() == [[0.25]]

    def test_full_activity_locks_in(self):
        net = sm.NetworkParams(n=2, gamma=0.5, theta=1.0,
                               weights=[[0.6, 0.6], [0.6, 0.6]], i_ext=[0.0, 0.0])
        traj = sm.simulate(net, [1.0, 1.5], 20)
        assert traj.raster.all()
        assert (traj.states >= net.theta).all()

    def test_noise_requires_rng(self):
        with pytest.raises(sm.ValidationError):
            sm.simulate(example1_net(), [0.0], 5, sigma_b=0.1)

    @pytest.mark.parametrize("sigma_b", [-1.0, float("nan")])
    def test_meaningless_noise_rejected(self, sigma_b):
        # rejected at entry, not silently run without noise
        with pytest.raises(sm.ValidationError):
            sm.simulate(example1_net(), [0.0], 5, sigma_b=sigma_b, rng=np.random.default_rng(0))

    def test_noise_beyond_the_float_range_rejected(self):
        # draws of 1e308 scale overflow to inf, which later steps make nan; neither is a state
        with pytest.raises(sm.ValidationError, match="float range"):
            sm.simulate(example1_net(), [0.0], 50, sigma_b=1e308, rng=np.random.default_rng(0))

    def test_negative_horizon_rejected(self):
        for t_max in (-1, 2.0):  # 2.0 is no integer either
            with pytest.raises(sm.ValidationError):
                sm.simulate(example1_net(), [0.0], t_max)

    def test_noise_matches_step_noisy_loop(self):
        # simulate checks the noise once, then adds one draw of N values to each step
        rng = np.random.default_rng(8)
        net = random_net(rng, n=5, coupling=2.0, i_ext_high=0.3)
        v0 = rng.uniform(*sm.compute_bounds(net), net.n)
        traj = sm.simulate(net, v0, 200, sigma_b=0.05, rng=np.random.default_rng(17))
        loop_rng = np.random.default_rng(17)
        v = v0
        for t in range(1, 201):
            v = sm.step(net, v) + loop_rng.normal(0.0, 0.05, net.n)
            assert np.array_equal(traj.states[t], v)


class TestRepeatedTail:
    """simulate and reconstruct_trajectory copy the tail after an exact repeat: the same bits."""

    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(1, 6), gamma=st.sampled_from([0.0, 0.125, 0.5, 0.875, 0.3]),
           seed=st.integers(0, 2**32 - 1), t_max=st.integers(0, 400),
           flips=st.lists(st.tuples(st.integers(0, 300), st.integers(0, 5)), max_size=4))
    # periods 3, 4 and 5 after transients of 4 to 62 steps; horizons 0 and 1
    @example(n=3, gamma=0.0, seed=136, t_max=50, flips=[(0, 1), (7, 0)])
    @example(n=5, gamma=0.125, seed=131, t_max=300, flips=[(1, 2), (40, 4), (41, 0)])
    @example(n=3, gamma=0.125, seed=153, t_max=200, flips=[(2, 1)])
    @example(n=5, gamma=0.5, seed=28, t_max=400, flips=[(3, 3), (100, 1)])
    @example(n=3, gamma=0.5, seed=31, t_max=400, flips=[(70, 2)])
    @example(n=3, gamma=0.5, seed=31, t_max=0, flips=[])
    @example(n=3, gamma=0.5, seed=31, t_max=1, flips=[(0, 0)])
    def test_equals_the_per_step_loop(self, n, gamma, seed, t_max, flips):
        rng = np.random.default_rng(seed)
        net = quarter_net(rng, n, gamma)
        v0 = rng.uniform(*sm.compute_bounds(net), n)
        want = stepped_states(net, v0, t_max)
        with mock.patch.object(model, "step", wraps=model.step) as counted:
            traj = sm.simulate(net, v0, t_max)
        assert counted.call_count == (first_repeat(want) or (t_max,))[0]  # stepped until then
        assert traj.states.tobytes() == want.tobytes()
        assert traj.raster.tobytes() == (want >= net.theta).astype(np.uint8).tobytes()
        assert sm.reconstruct_trajectory(net, v0, traj.raster).tobytes() == want.tobytes()
        # bits flipped just after the first repeat: the copy must stop where the raster does
        raster = traj.raster.copy()
        at = (first_repeat(want) or (0, 0))[0]
        for offset, i in flips:
            raster[min(at + offset, t_max), i % n] ^= 1
        got = sm.reconstruct_trajectory(net, v0, raster)
        assert got.tobytes() == stepped_states(net, v0, t_max, raster).tobytes()

    def test_periodic_raster_with_glitches(self):
        # a raster that repeats with period 3 except at a few rows, each one resuming the stepping
        net = quarter_net(np.random.default_rng(3), 4, 0.5)
        raster = np.tile(np.array([[1, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 1]], np.uint8), (400, 1))
        raster[[150, 151, 600, 1199]] ^= 1
        v0 = np.full(4, 0.25)
        got = sm.reconstruct_trajectory(net, v0, raster)
        assert got.tobytes() == stepped_states(net, v0, len(raster) - 1, raster).tobytes()

    def test_a_shared_hash_only_delays_the_stop(self):
        # every state hashes alike, so only a state equal to state 0 could stop the stepping;
        # this one enters a cycle of period 5 at t = 55 and never returns to state 0
        rng = np.random.default_rng(31)
        net = quarter_net(rng, 3, 0.5)
        v0 = rng.uniform(*sm.compute_bounds(net), 3)
        want = stepped_states(net, v0, 300)
        assert first_repeat(want) == (60, 5) and not (want[1:] == want[0]).all(axis=1).any()
        with mock.patch.object(model, "hash", create=True, new=lambda key: 0):
            traj = sm.simulate(net, v0, 300)
            assert traj.states.tobytes() == want.tobytes()
            assert sm.reconstruct_trajectory(net, v0, traj.raster).tobytes() == want.tobytes()

    def test_dead_network_steps_only_until_its_repeat(self):
        # both neurons fire once, then decay by halves to exactly 0 at t = 1077, which
        # t = 1078 repeats; the rest is copied
        net = sm.NetworkParams(n=2, gamma=0.5, theta=1.0,
                               weights=[[0.5, -1.0], [1.25, -0.5]], i_ext=[0.0, 0.0])
        want = stepped_states(net, [1.2, 0.2], 20_000)
        with mock.patch.object(model, "step", wraps=model.step) as counted:
            traj = sm.simulate(net, [1.2, 0.2], 20_000)
        assert counted.call_count == first_repeat(want)[0]  # through step, which the tracer counts
        assert traj.raster[:2].any() and not traj.states[-1].any()
        assert traj.states.tobytes() == want.tobytes()


class TestFiringTimes:
    def test_silent(self):
        assert sm.firing_times(np.zeros((10, 3), dtype=np.uint8), 1).size == 0

    def test_full(self):
        assert sm.firing_times(np.ones((5, 2), dtype=np.uint8), 0).tolist() == [0, 1, 2, 3, 4]

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            sm.firing_times(np.zeros((5, 2), dtype=np.uint8), 2)

    @pytest.mark.parametrize("i", [True, 1.0], ids=["bool", "float"])
    def test_index_must_be_an_integer(self, i):
        # numpy would read True as a mask over the rows, and refuse 1.0 with a bare IndexError
        with pytest.raises(sm.ValidationError, match="neuron index"):
            sm.firing_times(np.eye(2, dtype=np.uint8), i)

    @pytest.mark.parametrize("raster", [[0, 1], [[0, 2], [1, 1]], [[0.5], [0]], np.zeros((0, 2)),
                                        np.zeros((2, 0))],
                             ids=["1-D", "two", "half", "no-rows", "no-neurons"])
    def test_only_a_raster_is_read(self, raster):
        # a 1-D raster raised a bare IndexError, and any nonzero entry counted as a spike; an
        # empty raster gave [] or a bare IndexError
        with pytest.raises(sm.ValidationError, match="raster"):
            sm.firing_times(raster, 0)

    def test_driven_neuron_first_firing(self):
        # one neuron charged by a self-sustaining partner: first spike when the
        # geometric charge w12*(1-gamma^t)/(1-gamma) reaches threshold
        gamma, w12 = 0.5, 0.6
        net = sm.NetworkParams(n=2, gamma=gamma, theta=1.0,
                               weights=[[0.0, w12], [0.0, 1.5]], i_ext=[0.0, 0.0])
        traj = sm.simulate(net, [0.0, 1.0], 30)
        assert traj.raster[:, 1].all()  # partner self-sustains from t=0
        first = sm.firing_times(traj.raster, 0)[0]
        crossing = next(t for t in range(1, 100)
                        if w12 * (1.0 - gamma ** t) / (1.0 - gamma) >= 1.0)
        assert first == crossing == 3


class TestMapProperties:
    def test_forward_invariance(self):
        # 200 random networks x 20 random starts x 1000 steps stay in the box
        rng = np.random.default_rng(11)
        for _ in range(200):
            net = random_net(rng)
            v_min, v_max = sm.compute_bounds(net)
            slack = 8e-16 * max(1.0, abs(v_min), abs(v_max))  # boundary rounding
            states = rng.uniform(v_min, v_max, (20, net.n))
            for _ in range(1000):
                states = batch_step(net, states)
                assert states.min() >= v_min - slack
                assert states.max() <= v_max + slack

    def test_reset_exactness(self):
        # a fired neuron's next value is exactly synaptic current plus drive
        rng = np.random.default_rng(12)
        for _ in range(20):
            net = random_net(rng, coupling=2.0, i_ext_high=0.6)
            v0 = rng.uniform(*sm.compute_bounds(net), net.n)
            traj = sm.simulate(net, v0, 50)
            for t in range(50):
                fired = np.flatnonzero(traj.raster[t])
                if fired.size == 0:
                    continue
                expected = net.weights @ traj.raster[t].astype(np.float64) + net.i_ext
                assert np.array_equal(traj.states[t + 1][fired], expected[fired])

    def test_contraction_and_collapse(self):
        # same raster => max-metric gap shrinks by gamma each step; once every
        # neuron has fired the pair is bit-identical
        rng = np.random.default_rng(13)
        cases = collapsed = 0
        while cases < 60:
            net = random_net(rng, coupling=2.0, i_ext_high=0.5)
            v0 = rng.uniform(*sm.compute_bounds(net), net.n)
            horizon = 40
            mother = sm.simulate(net, v0, horizon)
            r = sm.dist_traj_to_S(mother)
            if r < 1e-6:
                continue
            d0 = r / 2
            # stop asserting the contraction once gamma^t*d0 nears the rounding
            # floor, where the inequality no longer holds in floating point
            t_eff = max(1, min(horizon, sm.markov_horizon(1e-12 / d0, 1.0, net.gamma)))
            other = sm.simulate(net, v0 + rng.uniform(-d0, d0, net.n), horizon)
            d_init = sm.max_dist(mother.states[0], other.states[0])
            assert np.array_equal(mother.raster, other.raster)
            for t in range(1, t_eff + 1):
                gap = sm.max_dist(mother.states[t], other.states[t])
                # +1e-14: last-ulp rounding of the states can poke above the bound
                assert gap <= net.gamma ** t * d_init + 1e-14
            seen = np.zeros(net.n, dtype=bool)
            first_full = None
            for t in range(horizon + 1):
                seen |= mother.raster[t].astype(bool)
                if seen.all():
                    first_full = t
                    break
            if first_full is not None and first_full + 1 <= horizon:
                assert np.array_equal(mother.states[first_full + 1:], other.states[first_full + 1:])
                collapsed += 1
            cases += 1
        assert collapsed >= 10


def test_max_dist():
    assert sm.max_dist([0.0, 1.0], [0.5, -1.0]) == 2.0


def test_network_validation():
    with pytest.raises(sm.ValidationError):
        sm.NetworkParams(n=2, gamma=1.0, theta=1.0, weights=np.zeros((2, 2)), i_ext=np.zeros(2))
    with pytest.raises(sm.ValidationError):
        sm.NetworkParams(n=2, gamma=0.5, theta=0.0, weights=np.zeros((2, 2)), i_ext=np.zeros(2))
    with pytest.raises(sm.ValidationError):
        sm.NetworkParams(n=2, gamma=0.5, theta=1.0, weights=np.zeros((2, 3)), i_ext=np.zeros(2))
    with pytest.raises(sm.ValidationError):
        sm.NetworkParams(n=2, gamma=0.5, theta=1.0, weights=np.zeros((2, 2)), i_ext=[np.inf, 0.0])


@pytest.mark.parametrize("fields", [
    {"n": True, "gamma": "0.5", "theta": "1", "weights": [["0.25"]], "i_ext": ["0.0"]},
    {"n": 1.0}, {"n": True}, {"gamma": "0.5"}, {"gamma": False}, {"theta": True},
    {"theta": "1"}, {"theta": 10**400}, {"weights": [["0.25"]]}, {"weights": [[True]]},
    {"weights": [[1 + 0j]]}, {"weights": [[10**400]]}, {"weights": [[0.0, 0.0], [0.0]]},
    {"i_ext": ["0.0"]}, {"i_ext": [None]},
])
def test_network_refuses_what_is_no_number(fields):
    # each would convert to a one-neuron net with float() or numpy, but is no number here
    good = {"n": 1, "gamma": 0.5, "theta": 1.0, "weights": [[0.25]], "i_ext": [0.0]}
    with pytest.raises(sm.ValidationError):
        sm.NetworkParams(**{**good, **fields})


def test_network_accepts_numpy_numbers():
    net = sm.NetworkParams(n=np.int64(2), gamma=np.float32(0.5), theta=np.int8(1),
                           weights=np.eye(2, dtype=np.int32), i_ext=np.zeros(2, np.float32))
    assert (net.n, net.gamma, net.theta) == (2, 0.5, 1.0) and type(net.n) is int
    assert net.weights.dtype == net.i_ext.dtype == np.float64


def test_network_arrays_read_only():
    net = random_net(np.random.default_rng(0), n=3)
    with pytest.raises(ValueError):
        net.weights[0, 0] = 5.0
    weights = np.zeros((2, 2))  # the network holds a copy: the caller's array stays writeable
    sm.NetworkParams(n=2, gamma=0.5, theta=1.0, weights=weights, i_ext=np.zeros(2))
    weights[0, 0] = 5.0
