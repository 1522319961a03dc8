import concurrent.futures
import math

import numpy as np
import pytest

import spikemap as sm
from spikemap import ensemble, orbits
from spikemap.model import _Stack


class TestSampleNetwork:
    def test_zero_coupling(self):
        net = sm.sample_network(sm.EnsembleSpec(n=5, c=0.0, gamma=0.5),
                                np.random.default_rng(0))
        assert not net.weights.any()
        assert net.theta == 1.0 and not net.i_ext.any()

    def test_variance_scaling(self):
        # entries are N(0, c^2/n): sample variance of the n^2 draws within
        # three standard errors of 1/100
        spec = sm.EnsembleSpec(n=100, c=1.0, gamma=0.5)
        w = sm.sample_network(spec, np.random.default_rng(3)).weights
        target = 1.0 / 100
        se = target * math.sqrt(2.0 / (100 * 100 - 1))
        assert abs(w.var(ddof=1) - target) < 3 * se

    def test_seed_determinism(self):
        spec = sm.EnsembleSpec(n=8, c=1.3, gamma=0.4)
        a = sm.sample_network(spec, np.random.default_rng(11)).weights
        b = sm.sample_network(spec, np.random.default_rng(11)).weights
        assert np.array_equal(a, b)

    def test_diagonal_included(self):
        w = sm.sample_network(sm.EnsembleSpec(n=30, c=1.0, gamma=0.5),
                              np.random.default_rng(1)).weights
        assert np.count_nonzero(np.diag(w)) == 30

    def test_spec_validation(self):
        # every field is checked by the spec itself; "0.5" and True are no numbers
        for bad in [dict(n=0), dict(n=2.0), dict(c=-1.0), dict(c=True), dict(gamma=1.5),
                    dict(gamma="0.5"), dict(theta=0.0), dict(i_ext=math.inf), dict(i_ext=True)]:
            with pytest.raises(sm.ValidationError):
                sm.EnsembleSpec(**{"n": 4, "c": 1.0, "gamma": 0.5, **bad})


class TestSweep:
    def test_decoupled_cell_is_pure_death(self):
        cells = sm.sweep([0.5], [0.0], n=5, networks_per_cell=3, inits_per_network=2,
                         max_transient=200, max_period=50, seed=42)
        cell, = cells
        assert cell.death_fraction == 1.0
        assert cell.avg_d_as == 1.0      # gap equals theta exactly
        assert cell.log10_d_as == 0.0
        assert cell.avg_period == 1.0
        assert cell.undetermined_fraction == 0.0

    def test_grid_order_invariance(self):
        kwargs = dict(n=4, networks_per_cell=2, inits_per_network=2,
                      max_transient=200, max_period=50, seed=1)
        a = {(c.gamma, c.c): c for c in sm.sweep([0.3, 0.6], [0.5, 1.5], **kwargs)}
        b = {(c.gamma, c.c): c for c in sm.sweep([0.6, 0.3], [1.5, 0.5], **kwargs)}
        assert a == b

    def test_row_order_is_grid_order(self):
        cells = sm.sweep([0.2, 0.4], [0.0, 1.0], n=3, networks_per_cell=1,
                         inits_per_network=1, max_transient=100, max_period=30, seed=0)
        assert [(c.gamma, c.c) for c in cells] == [(0.2, 0.0), (0.2, 1.0), (0.4, 0.0), (0.4, 1.0)]

    def test_death_recedes_with_coupling(self):
        cells = sm.sweep([0.5], [0.25, 3.0], n=12, networks_per_cell=20,
                         inits_per_network=3, max_transient=1000, max_period=300, seed=5)
        assert cells[0].death_fraction == 1.0
        assert cells[1].death_fraction <= 0.5
        assert not math.isnan(cells[1].avg_period)

    def test_empty_grid_rejected(self):
        with pytest.raises(sm.ValidationError):
            sm.sweep([], [1.0], n=3, networks_per_cell=1, inits_per_network=1)

    def test_negative_zero_is_zero(self):
        # -0.0 is held as 0.0: the same streams and cells, and no rng.normal at scale -0.0
        kwargs = dict(n=4, networks_per_cell=2, inits_per_network=2,
                      max_transient=150, max_period=40, seed=3)
        cells = sm.sweep([-0.0, 0.5], [-0.0, 2.0], **kwargs)
        assert repr(cells) == repr(sm.sweep([0.0, 0.5], [0.0, 2.0], **kwargs))

    def test_threads_match_serial(self):
        kwargs = dict(n=4, networks_per_cell=2, inits_per_network=2,
                      max_transient=150, max_period=40, seed=3)
        serial = sm.sweep([0.4], [0.5, 2.0], **kwargs)
        parallel = sm.sweep([0.4], [0.5, 2.0], threads=2, **kwargs)
        assert serial == parallel

    def test_cells_arrive_batch_by_batch(self, monkeypatch):
        # 65 networks make two lockstep batches of 32 and 33; each batch's cells are
        # reported as soon as it is done, and the cells match one whole-grid batch
        events = []
        batch = ensemble._run_sweep_batch

        def logged(tasks, **params):
            events.append(("batch", len(tasks)))
            return batch(tasks, **params)

        monkeypatch.setattr(ensemble, "_run_sweep_batch", logged)
        cs = [0.05 * k for k in range(65)]
        kwargs = dict(n=3, networks_per_cell=1, inits_per_network=2, max_transient=100,
                      max_period=30, seed=4)
        cells = sm.sweep([0.5], cs, progress=lambda done, total, cell: events.append(done), **kwargs)
        assert events == [("batch", 32), *range(1, 33), ("batch", 33), *range(33, 66)]
        monkeypatch.setattr(orbits, "_BATCH", 65)
        assert sm.sweep([0.5], cs, **kwargs) == cells

    def test_no_entry_pass(self, monkeypatch):
        # a cell reads each cycle's period, gap and raster up to rotation alone, so neither
        # the sweep nor one of its batches locates where a start entered its cycle
        def entry_pass(*args):
            raise AssertionError("the sweep ran the entry pass")

        monkeypatch.setattr(orbits, "_locate_entries", entry_pass)
        cells = sm.sweep([0.5, 0.875], [0.5, 3.0], n=8, networks_per_cell=2, inits_per_network=3,
                         max_transient=200, max_period=50, seed=2)
        assert min(cell.death_fraction for cell in cells) < 1.0
        tasks = [(sm.EnsembleSpec(n=8, c=3.0, gamma=0.875), k) for k in range(4)]
        batch = ensemble._run_sweep_batch(tasks, seed=2, inits=3, max_transient=200, max_period=50,
                                          tol=1e-10, polish_steps=20_000)
        assert [kind for kind, *_ in batch] != ["NeuralDeath"] * 4


class TestLyapunovMap:
    def test_decoupled_cell_is_pure_leak(self):
        cells = sm.lyapunov_map([0.5], [0.0], n=4, networks_per_cell=2,
                                inits_per_network=2, ball_radius=1e-3, horizon=200, seed=0)
        assert abs(cells[0].mean_lyapunov - math.log(0.5)) <= 1e-9

    def test_contraction_bound_below_attractor_gap(self):
        # drive holds the fixed point at 0.2, gap 0.8 >> ball
        cells = sm.lyapunov_map([0.5], [0.1], n=4, networks_per_cell=3,
                                inits_per_network=2, ball_radius=1e-3, horizon=300,
                                i_ext=0.1, burn_in=200, seed=1)
        assert cells[0].mean_lyapunov <= math.log(0.5) + 1e-6

    def test_negative_zero_is_zero(self):
        kwargs = dict(n=4, networks_per_cell=2, inits_per_network=2, ball_radius=1e-3,
                      horizon=100, burn_in=20, seed=4)
        cells = sm.lyapunov_map([-0.0, 0.5], [-0.0, 2.0], **kwargs)
        assert repr(cells) == repr(sm.lyapunov_map([0.0, 0.5], [0.0, 2.0], **kwargs))

    def test_threads_match_serial(self):
        kwargs = dict(n=4, networks_per_cell=2, inits_per_network=2, ball_radius=1e-3,
                      horizon=100, burn_in=20, seed=4)
        serial = sm.lyapunov_map([0.4, 0.7], [0.5, 2.0], **kwargs)
        parallel = sm.lyapunov_map([0.4, 0.7], [0.5, 2.0], threads=2, **kwargs)
        assert serial == parallel

    @pytest.mark.parametrize("burn_in", [-1, 1.5, "3", True])
    def test_burn_in_is_a_count(self, burn_in, no_pool):
        # checked in lyapunov_map, before the process pool starts
        with pytest.raises(sm.ValidationError):
            sm.lyapunov_map([0.5], [1.0, 2.0], n=3, networks_per_cell=1, inits_per_network=1,
                            ball_radius=1e-3, horizon=10, burn_in=burn_in, threads=2)

    def test_a_batch_steps_on_one_stack(self, monkeypatch):
        # 12 networks in one batch, 2 starts each: one step call per step for all of them
        stacks = stacked_steps(monkeypatch)
        sm.lyapunov_map([0.4, 0.7], [0.5, 2.0], n=4, networks_per_cell=3, inits_per_network=2,
                        ball_radius=1e-3, horizon=50, burn_in=7, seed=2)
        assert stacks == [12] * (7 + 50)

    def test_a_network_that_re_seeds_steps_in_one_pass(self, monkeypatch):
        # the second network fires every neuron on every step, so both its starts re-seed
        # their companions on every step, from its one stream: still one pass for the batch
        stacks = stacked_steps(monkeypatch)
        nets = [sm.NetworkParams(n=3, gamma=0.5, theta=1.0, weights=np.zeros((3, 3)),
                                 i_ext=np.full(3, drive)) for drive in (0.0, 2.0)]
        rates = orbits._lyapunov(nets, [np.random.default_rng(s) for s in (1, 2)], 2,
                                 1e-3, 4, 50, 7)
        assert stacks == [2] * (7 + 50)
        assert rates[1] == [-math.inf, -math.inf]

    def test_weights_are_held_once_per_network(self, monkeypatch):
        # every start of a network steps on its one weight matrix, so a batch holds at most
        # the 2^20 weights _batch_size allows whatever the number of starts
        stacks = []
        of = _Stack.of

        def recorded(nets):
            stacks.append(of(nets))
            return stacks[-1]

        monkeypatch.setattr(_Stack, "of", staticmethod(recorded))
        sm.lyapunov_map([0.4, 0.7], [0.5, 2.0], n=4, networks_per_cell=3, inits_per_network=3,
                        ball_radius=1e-3, horizon=20, burn_in=2, seed=2)
        assert [s.weights.shape for s in stacks] == [(12, 1, 4, 4)]


def stacked_steps(monkeypatch) -> list:
    """The number of networks of each step the Lyapunov estimator takes from now on: a step
    call in the burn-in, then the one W z sum of each step of the horizon; every call must
    be on a stack."""
    stacks = []

    def counting(name):
        kernel = getattr(orbits, name)

        def counted(net, v):
            assert isinstance(net, _Stack)
            stacks.append(net.weights.shape[0])
            return kernel(net, v)

        monkeypatch.setattr(orbits, name, counted)

    counting("step")
    counting("_wz")
    return stacks


def params(*cases) -> list:
    """(key, value) cases with explicit ids, so that deleting a case renames no other: the id
    is key-value, or key-name for a (key, value, name) case.  The names of the list values
    are the ones pytest gave them by position before the ids were explicit."""
    return [pytest.param(key, value, id=f"{key}-{name[0] if name else value}")
            for key, value, *name in cases]


@pytest.fixture
def no_pool(monkeypatch):
    """Fail the test if it starts a process pool."""
    def pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", pool)


@pytest.mark.usefixtures("no_pool")
class TestValidatedBeforeThePool:
    """Every run parameter and grid value is refused before a process pool starts."""

    LYAP = dict(gammas=[0.5], cs=[1.0, 2.0], n=3, networks_per_cell=1, inits_per_network=1,
                ball_radius=1e-3, horizon=10, threads=2)
    SWEEP = dict(gammas=[0.5], cs=[1.0, 2.0], n=3, networks_per_cell=1, inits_per_network=1,
                 max_transient=10, max_period=5, threads=2)
    # a grid value, a field every cell's EnsembleSpec shares or the seed, on a grid of two cells
    # so that a valid run would start the pool; "0.5", "7" and True are no numbers.  A grid
    # value is a list, so each test names its own (see params)
    GRID = [("theta", -1.0), ("i_ext", math.nan), ("seed", 1.5), ("seed", "7"), ("seed", -1)]
    NET = sm.NetworkParams(n=2, gamma=0.5, theta=1.0, weights=np.zeros((2, 2)), i_ext=np.zeros(2))

    def test_a_valid_run_would_start_the_pool(self):
        with pytest.raises(AssertionError, match="process pool"):
            sm.lyapunov_map(**self.LYAP)
        with pytest.raises(AssertionError, match="process pool"):
            sm.sweep(**self.SWEEP)
        with pytest.raises(AssertionError, match="process pool"):
            sm.omega_sample(self.NET, 4, np.random.default_rng(0), threads=2)

    @pytest.mark.parametrize("key, value", params(
        ("inits_per_network", 0), ("inits_per_network", 1.0), ("ball_radius", 0.0),
        ("ball_radius", math.nan), ("horizon", 0), ("horizon", 2.5), ("num_directions", 0),
        ("num_directions", True), ("gammas", [1.5], "value8"), ("gammas", ["0.5"], "value9"),
        ("cs", [1.0, -1.0], "value10"), ("cs", [1.0, True], "value11"), *GRID,
    ))
    def test_lyapunov_map(self, key, value):
        with pytest.raises(sm.ValidationError):
            sm.lyapunov_map(**{**self.LYAP, key: value})

    @pytest.mark.parametrize("key, value", params(
        ("inits_per_network", 0), ("inits_per_network", 2.0), ("max_transient", -1),
        ("max_transient", 2.5), ("max_period", 0), ("max_period", 1.5), ("tol", -1.0),
        ("tol", math.inf), ("polish_steps", -1), ("polish_steps", True),
        ("networks_per_cell", 0), ("networks_per_cell", 2.5), ("gammas", [1.5], "value12"),
        ("gammas", ["0.5"], "value13"), ("cs", [1.0, -1.0], "value14"),
        ("cs", [1.0, True], "value15"), *GRID,
    ))
    def test_sweep(self, key, value):
        with pytest.raises(sm.ValidationError):
            sm.sweep(**{**self.SWEEP, key: value})

    def test_a_numpy_integer_seed_is_its_int(self):
        one = dict(self.LYAP, threads=1, cs=[1.0])
        assert sm.lyapunov_map(**one, seed=np.int64(7)) == sm.lyapunov_map(**one, seed=7)
        one = dict(self.SWEEP, threads=1, cs=[1.0])
        assert sm.sweep(**one, seed=np.int64(7)) == sm.sweep(**one, seed=7)

    @pytest.mark.parametrize("key, value", [
        ("max_transient", 2.5), ("max_period", 0), ("tol", math.nan), ("polish_steps", True),
    ])
    def test_omega_sample(self, key, value):
        with pytest.raises(sm.ValidationError):
            sm.omega_sample(self.NET, 4, np.random.default_rng(0), threads=2, **{key: value})
