import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import spikemap as sm
from spikemap import coding
from spikemap.coding import EDGE_CONDITIONAL, EDGE_ILLEGAL, EDGE_UNCONDITIONAL
from conftest import (
    batch_step, direct_sum_state, example1_net, quarter_net, random_net, reference_graph,
    submask_walk_edges,
)


class TestEncode:
    def test_all_below(self):
        assert not sm.encode(np.full((4, 3), 0.2), 1.0).any()

    def test_ghost_ramp_silent(self):
        traj = sm.simulate(example1_net(), [0.0], 30)
        assert not traj.raster.any()
        assert np.array_equal(sm.encode(traj.states, traj.net.theta), traj.raster)

    def test_full_activity(self):
        assert sm.encode(np.full((4, 3), 2.0), 1.0).all()

    def test_requires_theta_for_arrays(self):
        with pytest.raises(TypeError):  # theta is a required argument
            sm.encode(np.zeros((2, 2)))

    @pytest.mark.parametrize("states", [sm.simulate(example1_net(), [0.75], 1), np.array([["0.5"]]),
                                        [[True, False]], [[0.5], [0.5, 1.0]]],
                             ids=["trajectory", "strings", "bools", "ragged"])
    def test_refuses_states_that_are_not_numbers(self, states):
        # a Trajectory's raster is traj.raster; encode reads state arrays only
        with pytest.raises(sm.ValidationError, match="states"):
            sm.encode(states, 0.5)

    @pytest.mark.parametrize("theta", [math.nan, math.inf, -1.0, 0.0, True],
                             ids=["nan", "inf", "negative", "zero", "bool"])
    def test_refuses_a_meaningless_theta(self, theta):
        with pytest.raises(sm.ValidationError, match="theta"):
            sm.encode(np.full((2, 3), 0.5), theta)


class TestReconstruct:
    def test_t0_is_v0(self):
        net = random_net(np.random.default_rng(0), n=3)
        v0 = np.array([0.1, -0.2, 0.3])
        raster = np.zeros((1, 3), dtype=np.uint8)
        assert np.array_equal(sm.reconstruct_trajectory(net, v0, raster)[0], v0)

    def test_ghost_ramp_value(self):
        traj = sm.simulate(example1_net(), [0.0], 5)
        v5 = sm.reconstruct_trajectory(example1_net(), [0.0], traj.raster[:6])[5]
        assert v5[0] == 0.96875  # 1 - 0.5^5

    def test_matches_simulation(self):
        rng = np.random.default_rng(4)
        net = random_net(rng, n=4, gamma=0.7, coupling=2.0, i_ext_high=0.4)
        v0 = rng.uniform(*sm.compute_bounds(net), 4)
        traj = sm.simulate(net, v0, 200)
        rec = sm.reconstruct_trajectory(net, v0, traj.raster)
        assert np.max(np.abs(rec - traj.states)) <= 1e-10
        # the initial-condition term drops at the first spike: exact afterwards
        for i in range(4):
            fires = sm.firing_times(traj.raster, i)
            if fires.size:
                t0 = fires[0] + 1
                assert np.array_equal(rec[t0:, i], traj.states[t0:, i])

    def test_against_direct_sum(self):
        rng = np.random.default_rng(5)
        net = random_net(rng, n=4, gamma=0.7, coupling=2.0, i_ext_high=0.4)
        v0 = rng.uniform(*sm.compute_bounds(net), 4)
        traj = sm.simulate(net, v0, 60)
        rec = sm.reconstruct_trajectory(net, v0, traj.raster)
        for t in (0, 1, 2, 3, 7, 20, 60):
            assert np.max(np.abs(direct_sum_state(net, v0, traj.raster, t) - rec[t])) <= 1e-10

    def test_errors(self):
        net = random_net(np.random.default_rng(6), n=3)
        with pytest.raises(sm.ValidationError):
            sm.reconstruct_trajectory(net, np.zeros(3), np.zeros((4, 2), dtype=np.uint8))
        with pytest.raises(sm.ValidationError):
            sm.reconstruct_trajectory(net, np.zeros(3), [[0, 1, 0], [0, 1]])
        with pytest.raises(sm.ValidationError):  # no row to hold v0
            sm.reconstruct_trajectory(net, np.zeros(3), np.zeros((0, 3), dtype=np.uint8))


@pytest.mark.parametrize("raster", [*([[bad, 0], [0, 0]] for bad in [2, -1, 0.5, np.nan, "1"]),
                                    np.zeros((3, 2, 2)), np.zeros((0, 2)), np.zeros((2, 0))],
                         ids=["2", "-1", "0.5", "nan", "1", "3-D", "no-rows", "no-neurons"])
@pytest.mark.parametrize("use", ["reconstruct_trajectory", "reconstruct_periodic", "check_legal"])
def test_raster_values_other_than_0_and_1_rejected(raster, use):
    # none is a firing bit, though a uint8 cast takes 2 as 2, -1 as 255 (or fails) and 0.5 as 0;
    # a 3-D stack of 0/1 values is no raster either, though each of its rows has width N, and
    # nor is an empty one, which codes no start state (check_legal returned True for it)
    net = sm.NetworkParams(n=2, gamma=0.5, theta=1.0, weights=[[0.0, 0.1], [0.0, 0.0]],
                           i_ext=[0.0, 0.0])
    call = {"reconstruct_trajectory": lambda r: sm.reconstruct_trajectory(net, [0.0, 0.0], r),
            "reconstruct_periodic": lambda r: sm.reconstruct_periodic(net, r),
            "check_legal": lambda r: sm.check_legal(r, sm.build_transition_graph(net))}[use]
    with pytest.raises(sm.ValidationError):
        call(raster)
    call([[0, 0], [0, 0]])  # a 0/1 raster of width N passes


class TestReconstructPeriodic:
    def test_quiescent_fixed_point(self):
        net = sm.NetworkParams(n=2, gamma=0.6, theta=1.0,
                               weights=np.zeros((2, 2)), i_ext=[0.2, 0.3])
        states = sm.reconstruct_periodic(net, np.zeros((1, 2), dtype=np.uint8))
        expected = np.array([0.2, 0.3]) / (1.0 - 0.6)
        assert np.max(np.abs(states[0] - expected)) <= 1e-10

    def test_full_activity_fixed_point(self):
        net = sm.NetworkParams(n=2, gamma=0.5, theta=1.0,
                               weights=[[0.6, 0.6], [0.6, 0.6]], i_ext=[0.0, 0.0])
        states = sm.reconstruct_periodic(net, np.ones((1, 2), dtype=np.uint8))
        assert states.tolist() == [[1.2, 1.2]]

    def test_matches_detected_cycle(self):
        net = sm.NetworkParams(n=2, gamma=0.3, theta=1.0,
                               weights=[[0.0, 1.2], [1.2, 0.0]], i_ext=[0.05, 0.05])
        report = sm.find_periodic_orbit(net, [1.5, 0.0], max_transient=100, max_period=50)
        states = sm.reconstruct_periodic(net, report.cycle_raster)
        assert np.max(np.abs(states - report.states)) <= 1e-10

    def test_step_closure(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            net = random_net(rng, coupling=2.5, i_ext_high=0.5)
            report = sm.find_periodic_orbit(
                net, rng.uniform(*sm.compute_bounds(net), net.n),
                max_transient=2000, max_period=300,
            )
            if isinstance(report, sm.Undetermined):
                continue
            states = sm.reconstruct_periodic(net, report.cycle_raster)
            p = states.shape[0]
            for k in range(p):
                assert sm.max_dist(sm.step(net, states[k]), states[(k + 1) % p]) <= 1e-10
            assert np.array_equal(sm.encode(states, net.theta), report.cycle_raster)

    def test_unrealizable_code(self):
        net = sm.NetworkParams(n=2, gamma=0.6, theta=1.0,
                               weights=np.zeros((2, 2)), i_ext=[0.2, 0.3])
        with pytest.raises(sm.IllegalCodeError):
            sm.reconstruct_periodic(net, np.array([[1, 0]], dtype=np.uint8))

    def test_boundary_drive_is_unrealizable_as_silence(self):
        # drive exactly (1-gamma)*theta parks the fixed point on the threshold,
        # where it fires, so the silent code has no realization
        net = example1_net()
        with pytest.raises(sm.IllegalCodeError):
            sm.reconstruct_periodic(net, np.zeros((1, 1), dtype=np.uint8))

    def test_empty_cycle_rejected(self):
        with pytest.raises(sm.ValidationError):
            sm.reconstruct_periodic(example1_net(), np.zeros((0, 1), dtype=np.uint8))


class TestPartition:
    def test_states_classify_identically_by_bits_and_intervals(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            net = random_net(rng)
            v_min, v_max = sm.compute_bounds(net)
            v = rng.uniform(v_min, max(v_max, net.theta + 0.5), net.n)
            bits = (v >= net.theta).astype(np.uint8)
            in_i1 = np.array([net.theta <= x for x in v], dtype=np.uint8)
            assert np.array_equal(bits, in_i1)

    def test_fired_coordinates_forget_their_value(self):
        # within a domain, a firing coordinate's image is a point
        rng = np.random.default_rng(10)
        net = random_net(rng, n=4, coupling=2.0)
        v_min, v_max = sm.compute_bounds(net)
        if v_max < net.theta:
            v_max = net.theta + 1.0  # outside the box but inside the map's domain
        base = rng.uniform(v_min, net.theta - 1e-9, 4)
        base[1] = net.theta + 0.1
        images = []
        for _ in range(5):
            v = base.copy()
            v[1] = rng.uniform(net.theta, v_max)
            images.append(sm.step(net, v)[1])
        assert all(x == images[0] for x in images)


def _example_square_net():
    return sm.NetworkParams(n=2, gamma=0.5, theta=1.0,
                            weights=[[0.6, 0.6], [0.6, 0.6]], i_ext=[0.0, 0.0])


class TestTransitionGraph:
    def test_forced_firing_edges(self):
        g = sm.build_transition_graph(_example_square_net())
        assert g.edge_kind("11", "11") == EDGE_UNCONDITIONAL
        assert g.edge_kind("11", "10") == EDGE_ILLEGAL
        assert g.edge_kind("11", "01") == EDGE_ILLEGAL
        assert g.edge_kind("11", "00") == EDGE_ILLEGAL

    def test_gamma_zero_has_no_conditional_edges(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            net = random_net(rng, gamma=0.0, coupling=2.0, i_ext_high=0.5)
            g = sm.build_transition_graph(net)
            assert g.counts()[EDGE_CONDITIONAL] == 0

    def test_silent_network_only_reaches_silence(self):
        net = sm.NetworkParams(n=2, gamma=0.5, theta=1.0,
                               weights=np.zeros((2, 2)), i_ext=np.zeros(2))
        g = sm.build_transition_graph(net)
        for a in range(4):
            assert g.successors(a) == [(0, EDGE_UNCONDITIONAL)]

    def test_counts_match_enumeration(self):
        rng = np.random.default_rng(12)
        for _ in range(5):
            net = random_net(rng, n=3, coupling=2.0, i_ext_high=0.5)
            g = sm.build_transition_graph(net)
            tally = {EDGE_UNCONDITIONAL: 0, EDGE_CONDITIONAL: 0, EDGE_ILLEGAL: 0}
            for _, _, kind in g.iter_edges(include_illegal=True):
                tally[kind] += 1
            assert tally == g.counts()

    def test_rounding_boundary_neuron_fires(self):
        # fl(gamma*theta + 1) and fl(gamma*v_min + 1) both round to theta: the quiescent
        # neuron can neither stay below nor strictly cross, and step fires it
        net = sm.NetworkParams(n=1, gamma=1e-17, theta=1.0, weights=[[0.0]], i_ext=[1.0])
        g = sm.build_transition_graph(net)
        tally = {EDGE_UNCONDITIONAL: 0, EDGE_CONDITIONAL: 0, EDGE_ILLEGAL: 0}
        for _, _, kind in g.iter_edges(include_illegal=True):
            tally[kind] += 1
        assert tally == g.counts()
        assert g.successors(0) == [(1, EDGE_UNCONDITIONAL)]
        traj = sm.simulate(net, [0.0], 3)
        assert traj.raster.ravel().tolist() == [0, 1, 1, 1]
        assert sm.check_legal(traj.raster, g)

    def test_conditional_interval_is_sharp(self):
        # stepping from just inside/outside the stored interval flips the outcome
        net = sm.NetworkParams(n=1, gamma=0.7, theta=1.0, weights=[[1.2]], i_ext=[0.4])
        g = sm.build_transition_graph(net)
        assert g.edge_kind("0", "1") == EDGE_CONDITIONAL
        (lo, hi), = g.conditional_intervals("0", "1").values()
        assert hi == net.theta
        inside = sm.step(net, [lo + 1e-9])[0]
        outside = sm.step(net, [lo - 1e-9])[0]
        assert inside >= net.theta > outside
        # the quiet target's interval is the rest of [v_min, theta): its upper end is sharp
        assert g.edge_kind("0", "0") == EDGE_CONDITIONAL
        (lo, hi), = g.conditional_intervals("0", "0").values()
        assert lo == g.v_min
        inside = sm.step(net, [hi - 1e-9])[0]
        outside = sm.step(net, [hi + 1e-9])[0]
        assert outside >= net.theta > inside
        with pytest.raises(sm.ValidationError, match="illegal"):  # a firing neuron gets 1.6
            g.conditional_intervals("1", "0")

    @pytest.mark.parametrize("src", [2, -1, "01", [0, 0], [0.5], True, [2], [-1]],
                             ids=["index-2", "index-negative", "string-length", "array-length",
                                  "array-half", "index-bool", "array-2", "array-negative"])
    def test_pattern_outside_the_graph(self, src):
        g = sm.build_transition_graph(example1_net())
        with pytest.raises(sm.ValidationError):
            g.edge_kind(src, 0)

    @pytest.mark.parametrize("idx", [-1, True, 5, 0.5], ids=["negative", "bool", "5", "half"])
    def test_pattern_index_outside_the_graph(self, idx):
        # numpy would read -1 from the end and True as a mask, and refuse 5 and 0.5 with a bare
        # IndexError
        g = sm.build_transition_graph(_example_square_net())  # patterns 0..3
        with pytest.raises(sm.ValidationError):
            g.pattern(idx)

    def test_capacity_error(self):
        net = sm.NetworkParams(n=17, gamma=0.5, theta=1.0,
                               weights=np.zeros((17, 17)), i_ext=np.zeros(17))
        with pytest.raises(sm.CapacityError):
            sm.build_transition_graph(net)

    def test_brute_force_soundness_smoke(self):
        rng = np.random.default_rng(13)
        for _ in range(4):
            n = int(rng.integers(1, 4))
            net = random_net(rng, n=n, coupling=2.0, i_ext_high=0.6)
            g = sm.build_transition_graph(net)
            v_min, v_max = sm.compute_bounds(net)
            for a in range(1 << n):
                bits = g.pattern(a)
                if bits.any() and v_max < net.theta:
                    continue  # empty domain
                lows = np.where(bits, net.theta, v_min)
                highs = np.where(bits, max(v_max, net.theta), net.theta)
                states = rng.uniform(lows, highs, (1000, n))
                after = batch_step(net, states)
                seen = {tuple((row >= net.theta).astype(int)) for row in after}
                for pat in seen:
                    assert g.edge_kind(a, np.array(pat)) != EDGE_ILLEGAL
                if len(g.successors(a)) == 1:
                    assert len(seen) == 1


class TestEdgeEnumeration:
    """The numpy enumeration lists the same edges, in the same order, as a submask walk."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 8), st.just(0.0) | st.floats(0.0, 0.99), st.integers(0, 2**32 - 1),
           st.integers(1, 300))
    def test_matches_submask_walk(self, n, gamma, seed, block):
        g = sm.build_transition_graph(quarter_net(np.random.default_rng(seed), n, gamma))
        legal = submask_walk_edges(g)
        with mock.patch.object(coding, "_EDGE_BLOCK", block):  # blocks that split anywhere
            assert list(g.iter_edges()) == legal
            everything = list(g.iter_edges(include_illegal=True))
        assert everything == submask_walk_edges(g, include_illegal=True)
        for a in range(g.num_patterns):
            assert g.successors(a) == [(b, kind) for src, b, kind in legal if src == a]
        tally = {EDGE_UNCONDITIONAL: 0, EDGE_CONDITIONAL: 0, EDGE_ILLEGAL: 0}
        for _, _, kind in everything:
            tally[kind] += 1
        assert tally == g.counts()

    def test_n16_graph_in_several_blocks(self):
        g = sm.build_transition_graph(quarter_net(np.random.default_rng(16), 16, 0.5))
        legal = submask_walk_edges(g)
        assert len(legal) > 2 * coding._EDGE_BLOCK
        assert list(g.iter_edges()) == legal
        tally = {EDGE_UNCONDITIONAL: 0, EDGE_CONDITIONAL: 0, EDGE_ILLEGAL: 4**16 - len(legal)}
        for _, _, kind in legal:
            tally[kind] += 1
        assert tally == g.counts()  # cube sizes from masks two bytes wide


class TestGraphAgreesWithStep:
    """The graph's currents are step's bits, so its forced bits agree at the threshold; a
    quiescent neuron's bits are step's from both ends of [v_min, theta)."""

    def test_ghost_orbit_is_legal(self):
        # criterion 1's ramp v(t) = 1 - 0.5^t rounds onto theta at t=54: from the largest
        # double below theta the quiescent neuron fires, though 0.5*theta + 0.5 > theta fails
        net = example1_net()
        g = sm.build_transition_graph(net)
        assert g.edge_kind("0", "1") == EDGE_CONDITIONAL
        assert sm.check_legal(sm.simulate(net, [0.0], 60).raster, g)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 5), st.sampled_from([0.0, 0.25, 0.5, 0.875]) | st.floats(0.0, 0.99),
           st.integers(0, 2**32 - 1))
    def test_quiescent_bits_match_step_from_both_ends(self, n, gamma, seed):
        # drives that put gamma*theta + current on theta where pattern {j} fires, so rounding
        # decides whether a quiescent neuron reaches theta; step is monotone in the neuron's own
        # v, so from v_min it fires iff forced, and from just below theta iff forced or free
        rng = np.random.default_rng(seed)
        w = quarter_net(rng, n, gamma).weights
        net = sm.NetworkParams(n=n, gamma=gamma, theta=1.0, weights=w,
                               i_ext=(1.0 - gamma) - w[:, int(rng.integers(n))])
        g = sm.build_transition_graph(net)
        fired = g.src_bits == 1
        for v_quiet, mask in ((g.v_min, g.forced), (np.nextafter(net.theta, -np.inf), g.forced | g.free)):
            after = np.array([sm.step(net, v) for v in np.where(fired, net.theta, v_quiet)])
            assert np.array_equal(after >= net.theta, ((mask[:, None] >> np.arange(n)) & 1) == 1)
        if g.free.any():  # each free neuron fires from where its interval splits, not from below it
            a = int(np.flatnonzero(g.free)[0])
            cut = g.conditional_intervals(a, int(g.forced[a] | g.free[a]))
            free = list(cut)
            v = np.where(fired[a], net.theta, g.v_min)
            v[free] = [lo for lo, _ in cut.values()]
            assert (sm.step(net, v)[free] >= net.theta).all()
            v[free] = np.nextafter(v[free], -np.inf)
            assert (sm.step(net, v)[free] < net.theta).all()

    def test_threshold_equal_to_a_fired_neurons_current(self):
        # theta set, bit for bit, to what step sends a fired neuron: the neuron then lands
        # exactly on the threshold and fires.  Every (pattern, fired neuron) pair with a
        # positive current is one net; the pairs include those where a gemm (Z @ W.T)
        # sums differently from step's gemv and the graph used to forbid the step taken.
        n = 8
        w = np.random.default_rng(1).normal(0.0, 1.5 / np.sqrt(n), (n, n))
        bits = ((np.arange(1 << n)[:, None] >> np.arange(n)) & 1).astype(np.float64)
        probe = sm.NetworkParams(n=n, gamma=0.5, theta=1.0, weights=w, i_ext=np.zeros(n))
        nets = 0
        for a in range(1 << n):
            current = sm.step(probe, 2.0 * bits[a])  # pattern a fires exactly the bits of a
            for i in np.flatnonzero(bits[a]):
                if current[i] <= 0.0:
                    continue
                net = sm.NetworkParams(n=n, gamma=0.5, theta=current[i], weights=w,
                                       i_ext=np.zeros(n))
                v0 = np.where(bits[a] == 1, net.theta, sm.compute_bounds(net).v_min)
                traj = sm.simulate(net, v0, 1)
                assert traj.states[1, i] == net.theta
                g = sm.build_transition_graph(net)
                assert sm.check_legal(traj.raster, g)
                assert g.edge_kind(traj.raster[0], traj.raster[1]) != EDGE_ILLEGAL
                nets += 1
        assert nets > 400

    @pytest.mark.parametrize("n,seed", [(8, 21), (16, 22)])
    def test_fired_coordinates_match_step_on_every_pattern(self, n, seed):
        net = random_net(np.random.default_rng(seed), n=n, coupling=2.0, i_ext_high=0.5)
        g = sm.build_transition_graph(net)
        fired = g.src_bits == 1
        # one state per call, the path simulate takes, so a stacked call is not its own reference
        after = np.array([sm.step(net, v) for v in np.where(fired, net.theta, g.v_min)])
        assert np.array_equal(after[fired], g.currents[fired])
        forced_bits = (g.forced[:, None] >> np.arange(n)) & 1
        assert np.array_equal((after >= net.theta)[fired], forced_bits[fired] == 1)


class TestGraphAgreesWithReference:
    """The build and the enumeration give the bits of the reference construction: every next
    bit read off W z, submasks by doubling and masks by multiplies leave nothing to rounding."""

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 10), st.sampled_from([0.0, 0.5, 0.875]) | st.floats(0.0, 0.99),
           st.sampled_from(["quarters", "quiescent-tie", "theta-at-current"]),
           st.integers(0, 2**32 - 1), st.integers(1, 300) | st.just(coding._EDGE_BLOCK))
    def test_matches_reference_graph(self, n, gamma, drive, seed, block):
        rng = np.random.default_rng(seed)
        net = quarter_net(rng, n, gamma)
        w = net.weights
        if drive == "quiescent-tie":  # gamma*theta + current on theta where pattern {j} fires
            net = sm.NetworkParams(n=n, gamma=gamma, theta=1.0, weights=w,
                                   i_ext=(1.0 - gamma) - w[:, int(rng.integers(n))])
        elif drive == "theta-at-current":  # theta is, bit for bit, where pattern a sends neuron i
            bits = rng.integers(0, 2, n)
            current = sm.step(net, np.where(bits == 1, 2.0, 0.0))
            positive = [i for i in np.flatnonzero(bits).tolist() if current[i] > 0.0]
            if positive:
                net = sm.NetworkParams(n=n, gamma=gamma, theta=current[positive[0]], weights=w,
                                       i_ext=net.i_ext)
        g, ref = sm.build_transition_graph(net), reference_graph(net)
        assert np.array_equal(g.forced, ref.forced) and np.array_equal(g.free, ref.free)
        assert g.forced.dtype == g.free.dtype == np.int64
        assert g.currents.tobytes() == ref.currents.tobytes()
        with mock.patch.object(coding, "_EDGE_BLOCK", block):  # blocks that split anywhere
            for include_illegal in (False, True) if n <= 7 else (False,):
                got = [np.concatenate(x) for x in zip(*g._edge_blocks(include_illegal))]
                for x, want in zip(got, ref.edges(include_illegal)):
                    assert x.dtype == want.dtype and np.array_equal(x, want)

    def test_currents_are_computed_on_first_read_and_kept(self):
        g = sm.build_transition_graph(quarter_net(np.random.default_rng(3), 5, 0.5))
        assert "currents" not in vars(g)
        currents = g.currents
        assert g.currents is currents and not currents.flags.writeable
        with pytest.raises(ValueError):
            currents[0, 0] = 1.0


class TestPatternIndex:
    """_pattern_index, which check_legal and TransitionGraph._index rest on, against
    sum(bit_i << i) read as int64, for any width, dtype and memory layout."""

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from([*range(1, 21), 64]), st.integers(0, 12),
           st.sampled_from([np.bool_, np.uint8, np.int64]), st.integers(0, 2**32 - 1))
    def test_matches_a_sum_of_shifted_bits(self, width, rows, dtype, seed):
        stack = np.random.default_rng(seed).integers(0, 2, (rows, 2 * width)).astype(dtype)

        def want(row):
            index = sum(int(bit) << i for i, bit in enumerate(row.tolist()))
            return index - (1 << 64) if index >= 1 << 63 else index

        layouts = {"contiguous": np.ascontiguousarray(stack[:, :width]),
                   "row-strided": stack[:, width:], "column-strided": stack[:, ::2],
                   "fortran": np.asfortranarray(stack[:, :width])}
        for layout, bits in layouts.items():
            got = coding._pattern_index(bits)
            assert got.dtype == np.int64 and got.shape == (rows,), layout
            assert got.tolist() == [want(row) for row in bits], layout
            for row in bits[:3]:  # one pattern, 1-D
                one = coding._pattern_index(row)
                assert one.shape == () and int(one) == want(row), layout


class TestIsMarkovNatural:
    def test_gamma_zero_always(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            assert sm.build_transition_graph(random_net(rng, gamma=0.0, coupling=2.0)).is_markov

    def test_leaky_self_exciter(self):
        # with enough leak headroom the quiescent domain straddles the threshold
        borderline = sm.NetworkParams(n=1, gamma=0.5, theta=1.0, weights=[[1.2]], i_ext=[0.4])
        assert sm.build_transition_graph(borderline).is_markov  # sup gamma*v + 0.4 = 0.9 < theta
        hot = sm.NetworkParams(n=1, gamma=0.7, theta=1.0, weights=[[1.2]], i_ext=[0.4])
        assert not sm.build_transition_graph(hot).is_markov  # 0.7*theta + 0.4 > theta

    def test_silent_network(self):
        net = sm.NetworkParams(n=3, gamma=0.5, theta=1.0,
                               weights=np.zeros((3, 3)), i_ext=np.zeros(3))
        assert sm.build_transition_graph(net).is_markov


class TestCheckLegal:
    def test_simulated_rasters_are_legal(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            net = random_net(rng, coupling=2.0, i_ext_high=0.5)
            traj = sm.simulate(net, rng.uniform(*sm.compute_bounds(net), net.n), 100)
            assert sm.check_legal(traj.raster, sm.build_transition_graph(net))

    def test_single_pattern_vacuous(self):
        net = _example_square_net()
        g = sm.build_transition_graph(net)
        assert sm.check_legal(np.array([[1, 0]], dtype=np.uint8), g)

    def test_forbidden_pair(self):
        g = sm.build_transition_graph(_example_square_net())
        raster = np.array([[1, 1], [1, 0]], dtype=np.uint8)
        assert not sm.check_legal(raster, g)


class TestPatternHelpers:
    def test_fire_set_and_cardinality(self):
        eta = sm.str_to_pattern("1011")  # neuron index increasing left to right
        assert np.flatnonzero(eta).tolist() == [0, 2, 3]
        assert np.count_nonzero(eta) == 3

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=12))
    def test_string_round_trip(self, bits):
        eta = np.array(bits, dtype=np.uint8)
        assert np.array_equal(sm.str_to_pattern(sm.pattern_to_str(eta)), eta)

    def test_bad_string(self):
        with pytest.raises(sm.ValidationError):
            sm.str_to_pattern("01x")

    @pytest.mark.parametrize("eta", [[2, 0.5], [[0, 1]], np.zeros(0)], ids=["values", "2-D", "empty"])
    def test_only_a_pattern_is_spelled(self, eta):
        # any nonzero entry used to spell 1, so [2, 0.5] read '11'; the empty pattern read ''
        with pytest.raises(sm.ValidationError):
            sm.pattern_to_str(eta)
