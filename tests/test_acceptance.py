"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Criterion 1 checks the ghost orbit against what IEEE doubles can
hold, with exact equalities: the ramp v(t) = 1 - 0.5^t is representable and
silent up to t = 53, and at t = 54 ties-to-even rounds it onto the threshold,
so the neuron fires once and the ramp restarts; see the test body.
"""

import math

import numpy as np
import pytest

import spikemap as sm
from spikemap import fileio
from spikemap.cli import main
from spikemap.ensemble import EnsembleSpec, _run_sweep_batch, _stream, sample_network
from conftest import batch_step, direct_sum_state, example1_net, random_net


def _report(num, desc, ok, detail=""):
    tail = f" :: {detail}" if detail else ""
    print(f"\n[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {desc}{tail}")
    assert ok, f"criterion {num:02d} ({desc}){tail}"


def test_criterion_01_ghost_orbit_analytics():
    # The exact orbit v(t) = 1 - 0.5^t creeps toward theta = 1 forever.  Doubles
    # hold it exactly up to v(53) = 1 - 2^-53, the largest double below 1.  The
    # exact v(54) = 1 - 2^-54 lies halfway between that double and 1.0, and
    # ties-to-even rounds it onto the threshold: the simulated neuron fires at
    # t = 54, and reset plus drive restarts the ramp at v(55) = v(1).
    net = example1_net()
    traj = sm.simulate(net, [0.0], 60)
    v = traj.states[:, 0]
    spikes = sm.firing_times(traj.raster, 0).tolist()
    ramp_exact = all(v[t] == 1.0 - 0.5 ** t for t in range(54))
    ramp_dist = sm.dist_traj_to_S(sm.simulate(net, [0.0], 53))
    restart = all(v[54 + k] == v[k] for k in range(1, 7))
    dist = sm.dist_traj_to_S(traj)
    ok = (ramp_exact and ramp_dist == 2.0 ** -53 and v[54] == net.theta
          and spikes == [54] and restart and dist == 0.0)
    _report(
        1, "ghost orbit exact to t=53, rounds onto the threshold at t=54",
        ok,
        f"v(t)==1-0.5^t for t<=53: {ramp_exact}, d(53 steps)={ramp_dist!r} (==2^-53), "
        f"spike times {spikes} (==[54]), v(53)={float(v[53]).hex()}, "
        f"v(54)={float(v[54]).hex()} (==theta), v(55..60)==v(1..6): {restart}, "
        f"d(60 steps)={dist!r} (==0)",
    )


def test_criterion_02_first_firing_law():
    theta = 1.0
    checked = []
    for gamma in (0.3, 0.5, 0.7):
        for factor in (1.05, 1.2, 2.0):
            w12 = factor * (1.0 - gamma) * theta
            net = sm.NetworkParams(n=2, gamma=gamma, theta=theta,
                                   weights=[[0.0, w12], [0.0, 1.5]], i_ext=[0.0, 0.0])
            traj = sm.simulate(net, [0.0, theta], 200)
            assert traj.raster[:, 1].all()
            simulated = int(sm.firing_times(traj.raster, 0)[0])
            crossing = next(t for t in range(1, 500)
                            if w12 * (1.0 - gamma ** t) / (1.0 - gamma) >= theta)
            checked.append(simulated == crossing)
    _report(2, "first firing matches the closed-form crossing time on the 3x3 grid",
            all(checked), f"{sum(checked)}/9 exact integer agreements")


def test_criterion_03_neural_death_distance():
    rng = np.random.default_rng(33)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 9))
        gamma = float(rng.uniform(0.05, 0.9))
        w = rng.normal(0.0, 1.0, (n, n))
        pos_max = float(np.max(np.where(w > 0, w, 0.0).sum(axis=1)))
        if pos_max > 0.0:
            w *= 0.9 * (1.0 - gamma) / pos_max  # forces v_max = 0.9 < theta
        net = sm.NetworkParams(n=n, gamma=gamma, theta=1.0, weights=w, i_ext=np.zeros(n))
        assert sm.compute_bounds(net).v_max < net.theta
        sample = sm.omega_sample(net, 3, rng, max_transient=400, max_period=60)
        label = sm.classify_regime(sample.orbits, sample.undetermined)
        assert str(label) == "NeuralDeath"
        worst = max(worst, abs(sm.dist_attractor_to_S(sample.orbits) - net.theta))
    _report(3, "50 sub-threshold nets classify NeuralDeath with d(Omega,S)=theta",
            worst <= 1e-12, f"max |d - theta| = {worst:.2e} (<=1e-12)")


def test_criterion_04_raster_round_trip():
    rng = np.random.default_rng(44)
    worst = 0.0
    bitwise_ok = True
    oracle_worst = 0.0
    for trial in range(100):
        net = random_net(rng, n=8, gamma=0.7, coupling=2.0, i_ext_high=0.3)
        v0 = rng.uniform(*sm.compute_bounds(net), 8)
        traj = sm.simulate(net, v0, 200)
        rec = sm.reconstruct_trajectory(net, v0, traj.raster)
        worst = max(worst, float(np.max(np.abs(rec - traj.states))))
        for i in range(8):
            fires = sm.firing_times(traj.raster, i)
            if fires.size:
                t0 = int(fires[0]) + 1
                bitwise_ok &= bool(np.array_equal(rec[t0:, i], traj.states[t0:, i]))
        if trial < 5:  # independent power-sum evaluation of the same code
            for t in (1, 3, 10, 50, 200):
                oracle_worst = max(oracle_worst, float(np.max(
                    np.abs(direct_sum_state(net, v0, traj.raster, t) - rec[t]))))
    ok = worst <= 1e-10 and bitwise_ok and oracle_worst <= 1e-10
    _report(4, "100 nets: reconstruction matches simulation, bitwise after first spikes",
            ok, f"max err {worst:.2e} (<=1e-10), bitwise={bitwise_ok}, "
                f"direct-sum oracle err {oracle_worst:.2e}")


def test_criterion_05_contraction_and_collapse():
    rng = np.random.default_rng(55)
    cases = collapsed = 0
    attempts = 0
    while cases < 200 and attempts < 2000:
        attempts += 1
        active = cases % 2 == 0
        net = random_net(rng, coupling=2.5 if active else 1.2,
                         i_ext_high=0.8 if active else 0.3)
        v0 = rng.uniform(*sm.compute_bounds(net), net.n)
        horizon = 40
        mother = sm.simulate(net, v0, horizon)
        r = sm.dist_traj_to_S(mother)
        if r < 1e-6:
            continue
        d0 = r / 2
        other = sm.simulate(net, v0 + rng.uniform(-d0, d0, net.n), horizon)
        d_init = sm.max_dist(mother.states[0], other.states[0])
        assert np.array_equal(mother.raster, other.raster)
        t_eff = max(1, min(horizon, sm.markov_horizon(1e-12 / d0, 1.0, net.gamma)))
        for t in range(1, t_eff + 1):
            gap = sm.max_dist(mother.states[t], other.states[t])
            # +1e-14 absorbs last-ulp rounding of the two trajectories
            assert gap <= net.gamma ** t * d_init + 1e-14
        seen = np.zeros(net.n, dtype=bool)
        full_at = None
        for t in range(horizon + 1):
            seen |= mother.raster[t].astype(bool)
            if seen.all():
                full_at = t
                break
        if full_at is not None and full_at + 1 <= horizon:
            assert np.array_equal(mother.states[full_at + 1:], other.states[full_at + 1:])
            collapsed += 1
        cases += 1
    _report(5, "200 perturbed pairs contract at rate gamma and collapse bitwise",
            cases == 200 and collapsed >= 40,
            f"{cases} cases, {collapsed} exercised the full-firing collapse")


def test_criterion_06_gamma_zero_markov():
    rng = np.random.default_rng(66)
    all_markov = True
    false_at_half = 0
    for _ in range(100):
        n = int(rng.integers(2, 11))
        w = rng.normal(0.0, 1.5 / np.sqrt(n), (n, n))
        i_ext = rng.uniform(0.0, 0.5, n)
        flat = sm.NetworkParams(n=n, gamma=0.0, theta=1.0, weights=w, i_ext=i_ext)
        leaky = sm.NetworkParams(n=n, gamma=0.5, theta=1.0, weights=w, i_ext=i_ext)
        all_markov &= sm.build_transition_graph(flat).is_markov
        false_at_half += not sm.build_transition_graph(leaky).is_markov
    _report(6, "zero leak always yields a one-step-determined pattern graph",
            all_markov,
            f"non-determined fraction at gamma=0.5: {false_at_half}/100 (reported)")


def test_criterion_07_transition_graph_soundness():
    rng = np.random.default_rng(77)
    nets = []
    for n in (1, 2, 3):
        for gamma in (0.0, 0.5, 0.8):
            nets.append(random_net(rng, n=n, gamma=gamma, coupling=2.0, i_ext_high=0.6))
    domains = illegal_hits = 0
    for net in nets:
        graph = sm.build_transition_graph(net)
        v_min, v_max = sm.compute_bounds(net)
        for a in range(1 << net.n):
            bits = graph.pattern(a)
            if bits.any() and v_max < net.theta:
                continue
            lows = np.where(bits, net.theta, v_min)
            highs = np.where(bits, max(v_max, net.theta), net.theta)
            states = rng.uniform(lows, highs, (10_000, net.n))
            states[0] = np.where(bits, net.theta, v_min)           # domain corners
            states[1] = np.where(bits, max(v_max, net.theta), np.nextafter(net.theta, -1))
            after = batch_step(net, states)
            patterns = {tuple(row) for row in (after >= net.theta).astype(int)}
            for pat in patterns:
                if graph.edge_kind(a, np.array(pat)) == "illegal":
                    illegal_hits += 1
            succ = graph.successors(a)
            if len(succ) == 1:
                assert len(patterns) == 1
                assert graph._index(np.array(next(iter(patterns)))) == succ[0][0]
            domains += 1
    _report(7, "10^4-sample brute force never realizes an illegal edge",
            illegal_hits == 0, f"{domains} domains checked, {illegal_hits} violations")


def test_criterion_08_effective_lyapunov_bounds():
    quiet = sm.NetworkParams(n=3, gamma=0.5, theta=1.0,
                             weights=np.zeros((3, 3)), i_ext=np.zeros(3))
    lam = sm.effective_lyapunov(quiet, np.zeros(3), 1e-3, 6, 500, np.random.default_rng(8))
    quiescent_ok = abs(lam - math.log(0.5)) <= 1e-9

    bound_ok = True
    details = [f"quiescent |lam-log(0.5)|={abs(lam - math.log(0.5)):.1e}"]
    rng = np.random.default_rng(88)
    stable_nets = []
    for gamma in (0.3, 0.6, 0.9):
        stable_nets.append(sm.NetworkParams(n=4, gamma=gamma, theta=1.0,
                                            weights=np.zeros((4, 4)),
                                            i_ext=np.full(4, 0.05)))
    stable_nets.append(sm.NetworkParams(n=2, gamma=0.3, theta=1.0,
                                        weights=[[0.0, 1.2], [1.2, 0.0]],
                                        i_ext=[0.05, 0.05]))
    for net in stable_nets:
        report = sm.find_periodic_orbit(net, rng.uniform(*sm.compute_bounds(net), net.n),
                                        max_transient=400, max_period=50)
        ball = report.min_threshold_gap / 2
        lam = sm.effective_lyapunov(net, report.states[0], ball, 6, 400, rng)
        bound_ok &= lam <= math.log(net.gamma) + 1e-6
        details.append(f"gamma={net.gamma}: lam={lam:.6f}<=log(gamma)+1e-6")
    _report(8, "finite-ball exponent is log(gamma) when quiescent, bounded when stable",
            quiescent_ok and bound_ok, "; ".join(details))


def test_criterion_09_ensemble_sweep_phenomenology():
    # Scaled stand-in for the full-size distance surface: N=20, 8x8 grid,
    # 10 networks x 5 starts per cell.
    seed, n = 20, 20
    gammas = [float(g) for g in np.linspace(0.0, 0.875, 8)]
    cs = [float(c) for c in np.linspace(0.25, 3.0, 8)]
    death = {}
    dists = {}
    results = iter(_run_sweep_batch([(EnsembleSpec(n=n, c=c, gamma=gamma), k)
                                     for gamma in gammas for c in cs for k in range(10)],
                                    seed=seed, inits=5, max_transient=3000, max_period=1000,
                                    tol=1e-10, polish_steps=20000))
    for gamma in gammas:
        for c in cs:
            kinds, ds = [], []
            for k in range(10):
                kind, d, _, _ = next(results)
                kinds.append(kind)
                if d is not None:
                    ds.append(d)
            death[(gamma, c)] = sum(k == "NeuralDeath" for k in kinds) / 10
            dists[(gamma, c)] = ds

    low_c_death = min(death[(g, cs[0])] for g in gammas)
    cond_a = low_c_death >= 0.9

    death_cell_logs = {g: np.mean([math.log10(d) for d in dists[(g, cs[0])]]) for g in gammas}
    attained = min(min(ds) for ds in dists.values() if ds)
    cond_b = attained <= 1e-4 and all(v == 0.0 for v in death_cell_logs.values())

    high_c_death = max(death[(g, cs[-1])] for g in gammas if g >= 0.5)
    cond_c = high_c_death <= 0.5

    _report(9, "scaled distance surface: death column, >=4-decade span, active high-C row",
            cond_a and cond_b and cond_c,
            f"min death@C=0.25 {low_c_death:.2f} (>=0.9); attained d {attained:.2e} "
            f"(<=1e-4) vs death cells at log10=0; max death@C=3,gamma>=0.5 "
            f"{high_c_death:.2f} (<=0.5)")


def test_criterion_10_period_bound_and_horizon_monotonicity():
    rng = np.random.default_rng(10)
    checked = violations = 0
    for gamma in (0.5, 0.75):
        for c in (2.0, 3.0):
            for k in range(5):
                spec = EnsembleSpec(n=10, c=c, gamma=gamma)
                net = sample_network(spec, _stream(7, gamma, c, k))
                sample = sm.omega_sample(net, 3, _stream(7, gamma, c, k, 1),
                                         max_transient=2000, max_period=500)
                for orbit in sample.orbits:
                    d = orbit.min_threshold_gap
                    if not (0.0 < d < 1.0):
                        continue
                    checked += 1
                    if math.log2(orbit.period) > sm.period_bound_log2(10, d, gamma) + 1e-9:
                        violations += 1
    eps_grid = np.logspace(-8, math.log10(2.0 * 0.99), 100)
    horizons = [sm.markov_horizon(float(e), 2.0, 0.5) for e in eps_grid]
    monotone = all(a >= b for a, b in zip(horizons, horizons[1:]))
    _report(10, "periods respect the distance-based bound; horizon grows as eps shrinks",
            checked >= 5 and violations == 0 and monotone,
            f"{checked} orbits checked, {violations} violations, monotone={monotone}")


def test_criterion_11_sweep_reproducibility(tmp_path):
    args = ["sweep", "--n", "6", "--gammas", "0.25,0.625", "--cs", "0.5,2.0",
            "--networks", "3", "--inits", "2", "--max-transient", "400",
            "--max-period", "100", "--seed", "17"]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    same_csv = (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    same_map = (tmp_path / "a.heatmap.csv").read_bytes() == (tmp_path / "b.heatmap.csv").read_bytes()
    _report(11, "identical seed and config give byte-identical sweep output",
            same_csv and same_map, f"csv={same_csv} heatmap={same_map}")
