import hashlib
import inspect
import json
import math
import pathlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import spikemap as sm
from spikemap import cli, coding, fileio
from spikemap.cli import main
from conftest import example1_net, quarter_net, random_net, submask_walk_edges

DATA = pathlib.Path(__file__).parent / "data"


def assert_csv_matches_fmt_float_writer(tmp, traj):
    """write_trajectory_csv gives the bytes of a writer that formats each value with fmt_float."""
    config = {"command": "simulate", "seed": 3}
    fileio.write_trajectory_csv(tmp / "new.csv", traj, config)
    with open(tmp / "old.csv", "w", encoding="utf-8", newline="\n") as f:
        f.write("".join(f"# {k}={v}\n" for k, v in config.items()))
        f.write("t," + ",".join(f"v_{i}" for i in range(traj.net.n)) + "\n")
        for t, v in enumerate(traj.states):
            f.write(str(t) + "," + ",".join(fileio.fmt_float(x) for x in v) + "\n")
    assert (tmp / "new.csv").read_bytes() == (tmp / "old.csv").read_bytes()


@pytest.fixture
def ex1_file(tmp_path):
    path = tmp_path / "ex1.json"
    fileio.write_network(path, example1_net())
    return str(path)


class TestNetworkFile:
    def test_round_trip_exact(self, tmp_path):
        net = random_net(np.random.default_rng(0), n=4)
        path = tmp_path / "net.json"
        fileio.write_network(path, net)
        back = fileio.read_network(path)
        assert back.n == net.n and back.gamma == net.gamma and back.theta == net.theta
        assert np.array_equal(back.weights, net.weights)
        assert np.array_equal(back.i_ext, net.i_ext)

    def test_malformed(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(sm.ValidationError):
            fileio.read_network(path)

    def test_missing_field(self, tmp_path):
        path = tmp_path / "short.json"
        path.write_text(json.dumps({"n": 1, "gamma": 0.5}))
        with pytest.raises(sm.ValidationError, match="is missing fields: i_ext, theta, weights"):
            fileio.read_network(path)

    @pytest.mark.parametrize("payload, message", [
        ({"n": 1, "gamma": 0.5, "theta": 1.0, "weights": [[0.0]], "i_ext": [0.0], "extra": 1},
         "has unknown fields: extra"),
        ([1, 2], "holds no JSON object"),
    ], ids=["unknown-field", "array"])
    def test_stray_field_or_no_object_is_named(self, tmp_path, payload, message):
        path = tmp_path / "stray.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(sm.ValidationError, match=message):
            fileio.read_network(path)


class TestTrajectoryAndRasterFiles:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        net = random_net(rng, n=3, coupling=2.0, i_ext_high=0.5)
        traj = sm.simulate(net, rng.uniform(*sm.compute_bounds(net), 3), 40)
        csv = tmp_path / "traj.csv"
        fileio.write_trajectory_csv(csv, traj, {"command": "test", "seed": 1})
        config, times, states = fileio.read_trajectory_csv(csv)
        assert config["command"] == "test"
        assert times.tolist() == list(range(41))
        assert np.array_equal(states, traj.states)

        rfile = tmp_path / "traj.raster"
        fileio.write_raster_text(rfile, traj.raster)
        assert np.array_equal(fileio.read_raster_text(rfile), traj.raster)

    def test_raster_file_shape_errors(self, tmp_path):
        path = tmp_path / "r.txt"
        path.write_text("010\n01\n")
        with pytest.raises(sm.ValidationError):
            fileio.read_raster_text(path)

    @pytest.mark.parametrize("text", ["010\n0x0\n", "010\n012\n", "0/0\n", "0 1\n",
                                      "0\u00e91\n", "# just a comment\n\n"])
    def test_raster_file_bad_characters_and_empty(self, tmp_path, text):
        path = tmp_path / "r.txt"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(sm.ValidationError):
            fileio.read_raster_text(path)

    def test_raster_file_skips_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "r.txt"
        path.write_text("# a comment\n\n 011 \n\n100\n# 2\n")
        got = fileio.read_raster_text(path)
        assert got.dtype == np.uint8 and got.tolist() == [[0, 1, 1], [1, 0, 0]]

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(width=64), min_size=1, max_size=60), st.integers(1, 6),
           st.booleans())
    def test_trajectory_csv_matches_fmt_float_writer(self, tmp_path_factory, values, n, noisy):
        # reference: fmt_float per value
        tmp = tmp_path_factory.mktemp("traj")
        rng = np.random.default_rng(len(values))
        net = random_net(rng, n=n)
        if noisy:
            traj = sm.simulate(net, rng.uniform(-1, 1, n), len(values), sigma_b=0.01, rng=rng)
        else:
            states = np.resize(np.array(values), (len(values), n))
            traj = sm.Trajectory(net=net, states=states, raster=np.zeros(states.shape, np.uint8))
        assert_csv_matches_fmt_float_writer(tmp, traj)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(0, 4), min_size=1, max_size=40))
    def test_trajectory_csv_keeps_repeated_rows_apart_by_their_bits(self, tmp_path_factory, picks):
        # rows formatted once per distinct state: 0.0 and -0.0 compare equal, yet differ in text
        pool = np.array([[0.0, 1.5], [-0.0, 1.5], [1.5, -0.0], [1.5, 0.0], [np.nan, -0.0]])
        states = pool[picks]
        net = random_net(np.random.default_rng(0), n=2)
        traj = sm.Trajectory(net=net, states=states, raster=np.zeros(states.shape, np.uint8))
        assert_csv_matches_fmt_float_writer(tmp_path_factory.mktemp("traj"), traj)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, width=64), min_size=1, max_size=60),
           st.integers(1, 6))
    def test_trajectory_csv_reads_like_a_float_per_value(self, tmp_path_factory, values, n):
        # reference: int() and float() on each field of each row
        tmp = tmp_path_factory.mktemp("traj")
        net = random_net(np.random.default_rng(n), n=n)
        states = np.resize(np.array(values), (len(values), n))
        traj = sm.Trajectory(net=net, states=states, raster=np.zeros(states.shape, np.uint8))
        fileio.write_trajectory_csv(tmp / "t.csv", traj, {"command": "simulate"})
        _, times, got = fileio.read_trajectory_csv(tmp / "t.csv")
        rows = [ln.split(",") for ln in (tmp / "t.csv").read_text().splitlines()[2:]]
        assert times.dtype == np.int64 and times.tolist() == [int(r[0]) for r in rows]
        want = np.array([[float(x) for x in r[1:]] for r in rows])
        assert got.dtype == np.float64 and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("rows", ["0,1.5,2\n", "0\n", "1.5,2\n", "0,\n", "0,x\n",
                                      "0,1\n1,2,3\n"])
    def test_malformed_trajectory_rows(self, tmp_path, rows):
        path = tmp_path / "t.csv"
        path.write_text("# command=simulate\nt,v_0\n" + rows)
        with pytest.raises(sm.ValidationError):
            fileio.read_trajectory_csv(path)

    def test_non_utf8_files(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"# command=simulate\xff\nt,v_0\n0,1.0\n")
        for read in (fileio.read_trajectory_csv, fileio.read_raster_text, fileio.read_sweep_csv):
            with pytest.raises(sm.ValidationError, match="UTF-8"):
                read(path)
        # a byte in a row well past the first buffer, decoded only as the rows are parsed
        path.write_bytes(b"t,v_0\n" + b"".join(b"%d,1.0\n" % t for t in range(5000)) + b"5000,\xff\n")
        with pytest.raises(sm.ValidationError, match="UTF-8"):
            fileio.read_trajectory_csv(path)

    @pytest.mark.parametrize("text, message", [("# command=simulate\n", "no data"),
                                               ("step,v_0\n0,1.0\n", "unexpected header"),
                                               ("t\n0\n1\n", "unexpected header"),
                                               ("t,x,y\n0,1.0,2.0\n", "unexpected header")],
                             ids=["no-rows", "header", "no-neurons", "other-names"])
    def test_trajectory_file_without_its_header(self, tmp_path, text, message):
        path = tmp_path / "t.csv"
        path.write_text(text)
        with pytest.raises(sm.ValidationError, match=message):
            fileio.read_trajectory_csv(path)

    def test_trajectory_header_without_rows(self, tmp_path):
        # no rows is no error, and numpy's "input contained no data" warning is never raised
        path = tmp_path / "t.csv"
        for after in ("", "\n", "# seed=4\n\n# late\n"):
            path.write_text("t,v_0,v_1\n" + after)
            _, times, states = fileio.read_trajectory_csv(path)
            assert times.shape == (0,) and states.shape == (0, 2)

    def test_trajectory_config_comes_from_before_the_header(self, tmp_path):
        # later # lines are comments, skipped between rows; blank lines are skipped anywhere
        path = tmp_path / "t.csv"
        path.write_text("\n# command=simulate\n\n# seed=3\nt,v_0\n0,1.5\n# seed=4\n\n1,2.5\n# late=1\n")
        config, times, states = fileio.read_trajectory_csv(path)
        assert config == {"command": "simulate", "seed": "3"}
        assert times.tolist() == [0, 1] and states.tolist() == [[1.5], [2.5]]

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 30), st.integers(1, 20), st.integers(0, 2**32 - 1))
    def test_raster_text_matches_pattern_to_str(self, tmp_path_factory, t, n, seed):
        # reference: pattern_to_str per row; a value other than 0 and 1 spells nothing
        raster = np.random.default_rng(seed).integers(0, 2, (t, n)).astype(np.uint8)
        path = tmp_path_factory.mktemp("raster") / "r.txt"
        fileio.write_raster_text(path, raster)
        assert path.read_bytes() == "".join(coding.pattern_to_str(r) + "\n" for r in raster).encode()
        with pytest.raises(sm.ValidationError):
            fileio.write_raster_text(path, np.vstack([raster, np.full((1, n), 2, np.uint8)]))

    @pytest.mark.parametrize("raster", [[[0.5, 2]], [[-1, 0]], [0, 1], np.zeros((0, 3)), np.zeros((3, 0))],
                             ids=["values", "negative", "1-D", "no-rows", "no-neurons"])
    def test_only_a_raster_is_written(self, tmp_path, raster):
        # [[0.5, 2]] was written as 01, and [[-1, 0]] raised a bare OverflowError; the empty
        # rasters were written as b"" and b"\n" * 3, which read_raster_text refuses
        with pytest.raises(sm.ValidationError):
            fileio.write_raster_text(tmp_path / "r.txt", raster)
        assert not any(tmp_path.iterdir())


class TestGraphFile:
    # (n, include_illegal): legal edges up to N = 11, where masks are wider than one byte
    # and N is no multiple of 8; all 4^N edges up to N = 8
    SIZES = st.booleans().flatmap(
        lambda ill: st.tuples(st.integers(1, 8 if ill else 11), st.just(ill)))

    @settings(max_examples=40, deadline=None)
    @given(SIZES, st.just(0.0) | st.floats(0.0, 0.99), st.integers(0, 2**32 - 1), st.booleans(),
           st.integers(1, 300))
    def test_bytes_match_dict_writer(self, tmp_path_factory, size, gamma, seed, with_config,
                                     block):
        # reference: a list of "from to kind" edge strings, then json.dump(indent=1)
        n, include_illegal = size
        tmp = tmp_path_factory.mktemp("graph")
        g = sm.build_transition_graph(quarter_net(np.random.default_rng(seed), n, gamma))
        config = {"net": 'a "quoted" \\path\\n\u00e9t.json', "cap": 16,  # escaped by json
                  "include_illegal": include_illegal} if with_config else None
        with mock.patch.object(coding, "_EDGE_BLOCK", block):
            fileio.write_graph_json(tmp / "new.json", g, include_illegal, config)
        names = ["".join(str(int(x)) for x in bits) for bits in g.src_bits]
        payload = {"n": n, "edge_fields": ["from", "to", "kind"],
                   "edges": [f"{names[a]} {names[b]} {kind}"
                             for a, b, kind in submask_walk_edges(g, include_illegal)]}
        if config:
            payload["config"] = {k: str(v) for k, v in config.items()}
        with open(tmp / "old.json", "w", encoding="utf-8") as f:
            json.dump(payload, f, indent=1)
            f.write("\n")
        assert (tmp / "new.json").read_bytes() == (tmp / "old.json").read_bytes()

    @pytest.mark.parametrize("payload, message", [
        ({"n": 1, "edges": [{"from": "0", "to": "0", "kind": "unconditional"}]},
         "older schema of one dict per edge"),
        (["0 0 unconditional"], "is no JSON object"),
        ({"n": 1, "edge_fields": ["from", "to", "kind"]}, "and a list of edges"),
    ], ids=["dict-per-edge", "array", "no-edges"])
    def test_reader_refuses_another_top_level(self, tmp_path, payload, message):
        path = tmp_path / "g.json"
        path.write_text(json.dumps(payload, indent=1))
        with pytest.raises(sm.ValidationError, match=message):
            fileio.read_graph_json(path)


class TestSweepFiles:
    def test_round_trip(self, tmp_path):
        cells = sm.sweep([0.3, 0.5], [0.0], n=3, networks_per_cell=2,
                         inits_per_network=2, max_transient=150, max_period=40, seed=2)
        path = tmp_path / "sweep.csv"
        fileio.write_sweep_csv(path, cells, {"seed": 2})
        config, back = fileio.read_sweep_csv(path)
        assert config["seed"] == "2"
        assert back == cells

    @pytest.mark.parametrize("row", ["0.5,1.0,5,0.1,-1.0,0.0,2.0",
                                     "0.5,1.0,5,0.1,-1.0,0.0,2.0,0.0,0.0",
                                     "0.5,1.0,five,0.1,-1.0,0.0,2.0,0.0"],
                             ids=["short", "long", "non-numeric"])
    def test_malformed_row(self, tmp_path, row):
        path = tmp_path / "sweep.csv"
        path.write_text(fileio.SWEEP_HEADER + "\n" + row + "\n")
        with pytest.raises(sm.ValidationError, match="malformed row"):
            fileio.read_sweep_csv(path)

    def test_wrong_header(self, tmp_path):
        path = tmp_path / "sweep.csv"
        path.write_text(fileio.SWEEP_HEADER.replace("avg_d_as", "d_as") + "\n")
        with pytest.raises(sm.ValidationError, match="unexpected header"):
            fileio.read_sweep_csv(path)

    def test_rows_are_the_fields_joined(self, tmp_path):
        # samples by str, every other field by fmt_float, in declared order; numpy scalars,
        # nan, the infinities and -0.0 written as the Python floats they equal
        sweep = sm.SweepCell(gamma=np.float64(0.5), c=-0.0, samples=np.int64(10), avg_d_as=math.nan,
                             log10_d_as=-math.inf, death_fraction=np.float32(0.25),
                             avg_period=math.inf, undetermined_fraction=0.1)
        lyap = sm.LyapCell(gamma=0.0, c=np.float64(3.0), samples=np.int64(2), mean_lyapunov=-0.0)
        config = {"seed": 2}
        fileio.write_sweep_csv(tmp_path / "sweep.csv", [sweep, sweep], config)
        fileio.write_lyap_csv(tmp_path / "lyap.csv", [lyap], config)
        row = ",".join([fileio.fmt_float(sweep.gamma), fileio.fmt_float(sweep.c), str(sweep.samples),
                        fileio.fmt_float(sweep.avg_d_as), fileio.fmt_float(sweep.log10_d_as),
                        fileio.fmt_float(sweep.death_fraction), fileio.fmt_float(sweep.avg_period),
                        fileio.fmt_float(sweep.undetermined_fraction)])
        assert row == "0.5,-0.0,10,nan,-inf,0.25,inf,0.1"
        assert (tmp_path / "sweep.csv").read_bytes() == (
            f"# seed=2\n{fileio.SWEEP_HEADER}\n{row}\n{row}\n").encode()
        assert fileio.SWEEP_HEADER == ("gamma,c,samples,avg_d_as,log10_d_as,death_fraction,"
                                       "avg_period,undetermined_fraction")
        row = ",".join([fileio.fmt_float(lyap.gamma), fileio.fmt_float(lyap.c), str(lyap.samples),
                        fileio.fmt_float(lyap.mean_lyapunov)])
        assert row == "0.0,3.0,2,-0.0"
        assert (tmp_path / "lyap.csv").read_bytes() == (
            f"# seed=2\ngamma,c,samples,mean_lyapunov\n{row}\n").encode()

    def test_heatmap_layout(self, tmp_path):
        cells = sm.sweep([0.3, 0.5], [0.0, 1.0], n=3, networks_per_cell=1,
                         inits_per_network=1, max_transient=100, max_period=30, seed=0)
        path = tmp_path / "hm.csv"
        fileio.write_heatmap_csv(path, cells, [0.3, 0.5], [0.0, 1.0])
        rows = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
        assert rows[0].split(",")[0] == "gamma\\c"
        assert len(rows) == 3 and len(rows[1].split(",")) == 3


class TestOrbitFile:
    def test_round_trip_fields(self, tmp_path):
        net = sm.NetworkParams(n=2, gamma=0.3, theta=1.0,
                               weights=[[0.0, 1.2], [1.2, 0.0]], i_ext=[0.05, 0.05])
        report = sm.find_periodic_orbit(net, [1.5, 0.0], max_transient=100, max_period=50)
        path = tmp_path / "orbits.json"
        fileio.write_orbits_json(path, [report], sm.RegimeLabel("StablePeriodic"),
                                 report.min_threshold_gap, 0, include_states=True)
        data = fileio.read_orbits_json(path)
        assert data["regime"] == "StablePeriodic"
        assert data["orbits"][0]["period"] == report.period
        assert data["orbits"][0]["min_threshold_gap"] == report.min_threshold_gap
        assert np.array_equal(np.array(data["orbits"][0]["states"]), report.states)
        rows = [sm.str_to_pattern(s) for s in data["orbits"][0]["cycle_raster"]]
        assert np.array_equal(np.stack(rows), report.cycle_raster)


    @pytest.mark.parametrize("payload", [[1, 2], {"regime": "StablePeriodic"}, {"orbits": 3}],
                             ids=["array", "no-orbits", "orbits-not-a-list"])
    def test_reader_refuses_another_top_level(self, tmp_path, payload):
        path = tmp_path / "o.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(sm.ValidationError, match="no JSON object with a list of orbits"):
            fileio.read_orbits_json(path)


# per text reader: the reader, its header line (None: the raster has none), and row t of a file
TEXT_FILES = {
    "trajectory": (fileio.read_trajectory_csv, "t,v_0", lambda t: f"{t},{t}.5"),
    "sweep": (fileio.read_sweep_csv, fileio.SWEEP_HEADER, lambda t: f"0.5,{t}.0,5,0.1,-1.0,0.0,2.0,0.0"),
    "raster": (fileio.read_raster_text, None, lambda t: f"{t % 4:02b}"),
}


def _read_text(tmp_path, kind, text):
    """(config, data) as the reader of this kind reads ``text``; the raster has no config."""
    path = tmp_path / f"{kind}.txt"
    path.write_bytes(text.encode())
    got = TEXT_FILES[kind][0](path)
    if kind == "raster":
        return None, got.tolist()
    if kind == "trajectory":
        return got[0], (got[1].tolist(), got[2].tolist())
    return got


def _data_lines(kind, rows):
    _, header, row = TEXT_FILES[kind]
    return [header] * (header is not None) + [row(t) for t in range(rows)]


class TestTextFileRule:
    """The trajectory, sweep and raster readers read their text by one rule."""

    @pytest.mark.parametrize("kind", ["trajectory", "sweep"])
    def test_config_is_the_comments_before_the_first_data_line(self, tmp_path, kind):
        first, *rest = _data_lines(kind, 3)
        text = "\n# command=x\n  \n# seed=3\n" + first + "\n# seed=4\n" + "\n".join(rest) + "\n# late=1\n"
        config, data = _read_text(tmp_path, kind, text)
        assert config == {"command": "x", "seed": "3"}
        assert data == _read_text(tmp_path, kind, "\n".join([first] + rest) + "\n")[1]

    @pytest.mark.parametrize("kind", list(TEXT_FILES))
    def test_a_comment_without_equals_is_no_config(self, tmp_path, kind):
        # the trajectory and sweep readers kept {'hello there': '', '': '', 'seed': '2'}
        lines = _data_lines(kind, 2)
        config, data = _read_text(tmp_path, kind, "# hello there\n#\n# seed=2\n" + "\n".join(lines) + "\n")
        assert config == (None if kind == "raster" else {"seed": "2"})
        assert data == _read_text(tmp_path, kind, "\n".join(lines) + "\n")[1]

    @pytest.mark.parametrize("kind", list(TEXT_FILES))
    def test_comment_and_blank_lines_are_skipped_anywhere(self, tmp_path, kind):
        lines = _data_lines(kind, 3)
        noisy = ["", "# a", "  \t"] + [f"{line}\n# b\n\n \n" for line in lines] + ["#", "\t"]
        got = _read_text(tmp_path, kind, "\n".join(noisy) + "\n")[1]
        assert got == _read_text(tmp_path, kind, "\n".join(lines) + "\n")[1]

    @pytest.mark.parametrize("kind", list(TEXT_FILES))
    def test_crlf_reads_as_lf(self, tmp_path, kind):
        lines = ["# command=x", "", "# seed=3"] + _data_lines(kind, 4) + ["# late", ""]
        lf = _read_text(tmp_path, kind, "\n".join(lines))
        assert _read_text(tmp_path, kind, "\r\n".join(lines)) == lf

    @pytest.mark.parametrize("kind", list(TEXT_FILES))
    def test_a_bad_byte_past_the_first_buffer(self, tmp_path, kind):
        # decoded only as the rows are read, chunks of 8 KiB after the config and the header
        lines = _data_lines(kind, 20000)
        path = tmp_path / f"{kind}.txt"
        path.write_bytes(("\n".join(lines) + "\n").encode() + lines[-1].encode()[:-1] + b"\xff\n")
        assert path.stat().st_size > 2 ** 15
        with pytest.raises(sm.ValidationError, match="UTF-8"):
            TEXT_FILES[kind][0](path)


def test_fmt_float_round_trips():
    for x in (0.1, 1.0, 2.0 ** -50, math.pi, -0.0, 1e300, float("nan"), float("-inf")):
        s = fileio.fmt_float(x)
        back = float(s)
        assert back == x or (math.isnan(back) and math.isnan(x))


class TestCliSimulate:
    @pytest.mark.parametrize("name, args", [
        ("dead", ["--net", "simulate_dead_net.json", "--seed", "4", "--t-max", "600"]),
        ("active", ["--net", "simulate_active_net.json", "--seed", "1", "--t-max", "200"]),
        ("noisy", ["--net", "simulate_active_net.json", "--seed", "1", "--noise", "0.05",
                   "--t-max", "80"]),
    ])
    def test_matches_the_golden_files(self, tmp_path, monkeypatch, name, args):
        # tests/data/simulate_<name>.csv and .raster are this command's output, run in
        # tests/data by a simulation that stepped every row.  Weights are quarters and gamma
        # is 0.125 or 0.5, so every W z sum is exact in any BLAS order.  The dead net fires
        # twice and decays to exactly 0 at t = 361; the active one repeats with period 5
        # from t = 54; the noisy run is the active one with --noise 0.05, its noise drawn
        # from the stream that drew v0, after it
        monkeypatch.chdir(DATA)
        out = str(tmp_path / "run")
        assert main(["simulate", "--v0", "random", *args, "--out", out]) == 0
        for ext in (".csv", ".raster"):
            assert pathlib.Path(out + ext).read_bytes() == (DATA / f"simulate_{name}{ext}").read_bytes()

    def test_ghost_ramp_csv(self, ex1_file, tmp_path, capsys):
        out = str(tmp_path / "run")
        assert main(["simulate", "--net", ex1_file, "--v0", "zero",
                     "--t-max", "10", "--out", out]) == 0
        _, times, states = fileio.read_trajectory_csv(out + ".csv")
        assert len(times) == 11
        assert states[10, 0] == 0.9990234375
        assert "0.9990234375" in (tmp_path / "run.csv").read_text()
        assert not fileio.read_raster_text(out + ".raster").any()

    def test_zero_horizon(self, ex1_file, tmp_path):
        out = str(tmp_path / "run0")
        assert main(["simulate", "--net", ex1_file, "--v0", "zero",
                     "--t-max", "0", "--out", out]) == 0
        _, times, _ = fileio.read_trajectory_csv(out + ".csv")
        assert len(times) == 1

    def test_noise_beyond_the_float_range_exit_2(self, tmp_path, capsys):
        # this run exited 0 with -inf in row 3 of its CSV
        argv = ["simulate", "--net", str(DATA / "orbit_gamma05_net.json"), "--noise", "1e308", "--seed", "1",
                "--t-max", "3", "--out", str(tmp_path / "x")]
        assert main(argv) == 2
        assert "float range" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("content", [b"{oops", b'{"n": 1, "gamma": 0.5\xff}', b"[1, 2]"],
                             ids=["json-syntax", "non-utf8", "json-array"])
    def test_malformed_network_exit_2(self, tmp_path, capsys, content):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        for argv in (["simulate", "--v0", "zero", "--t-max", "1"], ["graph"], ["orbit"],
                     ["lyap", "--inits", "1", "--horizon", "20"]):
            assert main(argv + ["--net", str(bad), "--out", str(tmp_path / "x")]) == 2
            assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("fields", [
        {"weights": [[1e308, 1e308], [1e308, 1e308]]},
        {"gamma": 0.999999, "weights": [[-1e303, 0.0], [0.0, 0.0]]},
    ], ids=["row-sum", "leak-scale"])
    def test_a_network_whose_box_is_not_finite_exits_2(self, tmp_path, capsys, fields):
        # no start can be drawn from the box, and the map's sums overflow in it
        payload = {"n": 2, "gamma": 0.5, "theta": 1.0, "i_ext": [0.0, 0.0], **fields}
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(payload))
        for argv in (["simulate", "--v0", "random", "--seed", "1", "--t-max", "1"],
                     ["simulate", "--v0", "1,1", "--t-max", "1"], ["graph"], ["orbit"],
                     ["lyap", "--inits", "1", "--horizon", "20"]):
            assert main(argv + ["--net", str(path), "--out", str(tmp_path / "x")]) == 2
            assert capsys.readouterr().err.startswith("error: the invariant box")

    @pytest.mark.parametrize("fields", [
        {"gamma": "x"},
        {"weights": [[0.0, "w"], [0.0, 0.0]]},
        {"weights": [[0.0, 0.0], [0.0]]},
        {"n": 2.7},
        {"gamma": "0.5"},
        {"gamma": False},
        {"theta": True},
        {"theta": 10**400},
        {"weights": [["0.25", 0.0], [0.0, 0.0]]},
        {"weights": [[True, False], [False, False]]},
        {"i_ext": ["0.0", 0.0]},
        {"n": True, "weights": [[0.0]], "i_ext": [0.0]},
        {"extra": 1},
    ], ids=["gamma-string", "weight-string", "weights-ragged", "n-fraction", "gamma-numeral",
            "gamma-bool", "theta-bool", "theta-huge", "weight-numeral", "weights-bool",
            "i-ext-numeral", "n-bool", "unknown-field"])
    def test_mistyped_network_field_exit_2(self, tmp_path, capsys, fields):
        # each value is a JSON string, bool or out-of-range integer that Python would convert,
        # or a field the format does not have
        payload = {"n": 2, "gamma": 0.5, "theta": 1.0,
                   "weights": [[0.0, 0.0], [0.0, 0.0]], "i_ext": [0.0, 0.0]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**payload, **fields}))
        assert main(["simulate", "--net", str(path), "--v0", "zero",
                     "--t-max", "1", "--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_dimension_mismatch_exit_2(self, tmp_path):
        path = tmp_path / "mismatch.json"
        path.write_text(json.dumps({"n": 2, "gamma": 0.5, "theta": 1.0,
                                    "weights": [[0, 0], [0, 0]], "i_ext": [0, 0, 0]}))
        assert main(["simulate", "--net", str(path), "--v0", "zero",
                     "--t-max", "1", "--out", str(tmp_path / "x")]) == 2

    @pytest.mark.parametrize("v0", ["0.1,0.2", "0.1,x"], ids=["length", "malformed"])
    def test_bad_v0_exit_2(self, ex1_file, tmp_path, capsys, v0):
        assert main(["simulate", "--net", ex1_file, "--v0", v0, "--t-max", "1",
                     "--out", str(tmp_path / "x")]) == 2
        assert "v0" in capsys.readouterr().err

    def test_random_v0_needs_seed(self, ex1_file, tmp_path):
        assert main(["simulate", "--net", ex1_file, "--v0", "random",
                     "--t-max", "1", "--out", str(tmp_path / "x")]) == 2

    def test_explicit_v0_and_noise_determinism(self, tmp_path):
        net = random_net(np.random.default_rng(2), n=2)
        nf = tmp_path / "n.json"
        fileio.write_network(nf, net)
        args = ["simulate", "--net", str(nf), "--v0", "0.1,0.2", "--t-max", "20",
                "--noise", "0.05", "--seed", "9"]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        assert (tmp_path / "a.csv").read_text() == (tmp_path / "b.csv").read_text()


class TestCliGraph:
    def test_gamma_zero_conditional_count(self, tmp_path, capsys):
        net = sm.NetworkParams(n=2, gamma=0.0, theta=1.0,
                               weights=[[0.2, 0.4], [0.3, 0.1]], i_ext=[0.1, 0.2])
        nf = tmp_path / "n.json"
        fileio.write_network(nf, net)
        assert main(["graph", "--net", str(nf), "--out", str(tmp_path / "g.json")]) == 0
        assert "conditional=0" in capsys.readouterr().out
        data = fileio.read_graph_json(tmp_path / "g.json")
        assert data["n"] == 2
        assert all(e.split()[2] != "illegal" for e in data["edges"])

    def test_silent_network_edges(self, tmp_path):
        net = sm.NetworkParams(n=2, gamma=0.5, theta=1.0,
                               weights=np.zeros((2, 2)), i_ext=np.zeros(2))
        nf = tmp_path / "n.json"
        fileio.write_network(nf, net)
        main(["graph", "--net", str(nf), "--out", str(tmp_path / "g.json")])
        data = fileio.read_graph_json(tmp_path / "g.json")
        assert {e.split()[1] for e in data["edges"]} == {"00"}

    def test_cap_exit_3(self, tmp_path):
        net = sm.NetworkParams(n=17, gamma=0.5, theta=1.0,
                               weights=np.zeros((17, 17)), i_ext=np.zeros(17))
        nf = tmp_path / "n.json"
        fileio.write_network(nf, net)
        assert main(["graph", "--net", str(nf), "--out", str(tmp_path / "g.json")]) == 3

    @pytest.mark.parametrize("n,cap,code", [(9, None, 3), (8, None, 0), (9, "18", 0)])
    def test_include_illegal_needs_2n_within_cap(self, tmp_path, n, cap, code):
        nf = tmp_path / "n.json"
        fileio.write_network(nf, quarter_net(np.random.default_rng(n), n, 0.5))
        out = tmp_path / "g.json"
        argv = ["graph", "--net", str(nf), "--include-illegal", "--out", str(out)]
        assert main(argv + (["--cap", cap] if cap else [])) == code
        if code:
            assert not out.exists()
        else:
            assert len(fileio.read_graph_json(out)["edges"]) == 4 ** n


class TestCliOrbit:
    def test_neural_death_summary(self, tmp_path, capsys):
        net = sm.NetworkParams(n=3, gamma=0.5, theta=1.0,
                               weights=np.zeros((3, 3)), i_ext=np.zeros(3))
        nf = tmp_path / "n.json"
        fileio.write_network(nf, net)
        assert main(["orbit", "--net", str(nf), "--inits", "4", "--max-transient", "300",
                     "--max-period", "50", "--seed", "5",
                     "--out", str(tmp_path / "o.json")]) == 0
        line = capsys.readouterr().out.strip().splitlines()[-1]
        assert line == "regime=NeuralDeath orbits=1 dAS=1.0 undetermined=0"

    def test_alternating_cycle_within_tol_is_stable_periodic(self, tmp_path, capsys):
        # its two phases, firing 00 and 10, lie 0.02 apart: within tol, but one period-2 cycle
        assert main(["orbit", "--net", str(DATA / "orbit_alternating_net.json"), "--inits", "1",
                     "--seed", "0", "--tol", "0.05", "--polish", "0",
                     "--out", str(tmp_path / "o.json")]) == 0
        assert capsys.readouterr().out.startswith("regime=StablePeriodic orbits=1 ")
        assert fileio.read_orbits_json(tmp_path / "o.json")["orbits"][0]["period"] == 2

    def test_ghost_all_undetermined(self, ex1_file, tmp_path, capsys):
        assert main(["orbit", "--net", ex1_file, "--inits", "3", "--max-transient", "5",
                     "--max-period", "5", "--seed", "1",
                     "--out", str(tmp_path / "o.json")]) == 0
        out = capsys.readouterr().out
        assert "undetermined=3" in out and "orbits=0" in out
        data = fileio.read_orbits_json(tmp_path / "o.json")
        assert data["undetermined"] == 3 and data["regime"].startswith("Undetermined")

    @pytest.mark.parametrize("name, seed", [
        ("gamma0", 2), ("gamma05", 0), ("gamma0875_a", 10), ("gamma0875_b", 106), ("ghost", 1),
        ("ulp_below_theta", 3),
    ])
    def test_include_states_matches_the_golden_files(self, tmp_path, monkeypatch, name, seed):
        # tests/data/orbit_<name>.json is this command's output, run in tests/data.  Weights
        # are quarters and gamma is 0, 0.5 or 0.875, so every W z sum is exact in any BLAS
        # order.  The gamma nets have drives 0 or 0.25 and neurons without current beside
        # firing ones; ghost is criterion 1's net; in ulp_below_theta the drive
        # (1 - 2^-53) / 8 puts neuron 0's exact fixed point one ulp below theta
        monkeypatch.chdir(DATA)
        out = tmp_path / "orbit.json"
        assert main(["orbit", "--net", f"orbit_{name}_net.json", "--inits", "8",
                     "--max-transient", "2000", "--max-period", "200", "--seed", str(seed),
                     "--include-states", "--out", str(out)]) == 0
        assert out.read_bytes() == (DATA / f"orbit_{name}.json").read_bytes()

    def test_threads_match_serial(self, tmp_path, capsys):
        net = sm.NetworkParams(n=3, gamma=0.5, theta=1.0,
                               weights=np.zeros((3, 3)), i_ext=np.zeros(3))
        nf = tmp_path / "n.json"
        fileio.write_network(nf, net)
        args = ["orbit", "--net", str(nf), "--inits", "3", "--max-transient", "200",
                "--max-period", "40", "--seed", "3"]
        assert main(args + ["--out", str(tmp_path / "a.json")]) == 0
        assert main(args + ["--threads", "2", "--out", str(tmp_path / "b.json")]) == 0
        a = fileio.read_orbits_json(tmp_path / "a.json")
        b = fileio.read_orbits_json(tmp_path / "b.json")
        assert a["orbits"] == b["orbits"] and a["regime"] == b["regime"]

    def test_config_records_polish(self, ex1_file, tmp_path):
        assert main(["orbit", "--net", ex1_file, "--inits", "1", "--max-transient", "5",
                     "--max-period", "5", "--polish", "7", "--out", str(tmp_path / "o.json")]) == 0
        assert fileio.read_orbits_json(tmp_path / "o.json")["config"]["polish"] == "7"

    def test_full_activity_summary(self, tmp_path, capsys):
        # drive >= theta makes the all-firing point the unique attractor
        net = sm.NetworkParams(n=2, gamma=0.5, theta=1.0,
                               weights=[[0.6, 0.6], [0.6, 0.6]], i_ext=[1.0, 1.0])
        nf = tmp_path / "n.json"
        fileio.write_network(nf, net)
        assert main(["orbit", "--net", str(nf), "--inits", "3", "--max-transient", "100",
                     "--max-period", "20", "--seed", "2",
                     "--out", str(tmp_path / "o.json")]) == 0
        out = capsys.readouterr().out
        assert "regime=FullActivity" in out and "orbits=1" in out


class TestCliSweep:
    def test_trivial_grid(self, tmp_path, capsys):
        assert main(["sweep", "--n", "4", "--gammas", "0.5", "--cs", "0.0",
                     "--networks", "2", "--inits", "2", "--max-transient", "150",
                     "--max-period", "40", "--seed", "0",
                     "--out", str(tmp_path / "s")]) == 0
        _, cells = fileio.read_sweep_csv(tmp_path / "s.csv")
        assert cells[0].death_fraction == 1.0

    def test_byte_identical_reruns(self, tmp_path):
        args = ["sweep", "--n", "4", "--gammas", "0.3,0.6", "--cs", "0.0,1.5",
                "--networks", "2", "--inits", "2", "--max-transient", "150",
                "--max-period", "40", "--seed", "9"]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        assert (tmp_path / "a.heatmap.csv").read_bytes() == (tmp_path / "b.heatmap.csv").read_bytes()

    def test_seed_changes_transition_cells(self, tmp_path):
        args = ["sweep", "--n", "10", "--gammas", "0.5", "--cs", "2.5",
                "--networks", "3", "--inits", "2", "--max-transient", "500",
                "--max-period", "150"]
        main(args + ["--seed", "1", "--out", str(tmp_path / "a")])
        main(args + ["--seed", "2", "--out", str(tmp_path / "b")])
        _, cells_a = fileio.read_sweep_csv(tmp_path / "a.csv")
        _, cells_b = fileio.read_sweep_csv(tmp_path / "b.csv")
        assert cells_a != cells_b

    def test_bad_grid_exit_2(self, tmp_path):
        assert main(["sweep", "--n", "3", "--gammas", "zero", "--cs", "1.0",
                     "--out", str(tmp_path / "s")]) == 2

    def test_grid_range_is_linspace(self):
        assert cli._parse_grid("0.25:3:8") == np.linspace(0.25, 3, 8).tolist()

    def test_one_point_grid_needs_lo_equal_to_hi(self):
        assert cli._parse_grid("0.5:0.5:1") == [0.5]

    @pytest.mark.parametrize("spec", ["0:1:0", "0:1", "0:1:2.5", "0.5,", ",0.5,,1", "0.5:0.9:1"])
    def test_bad_grid_range_exit_2(self, tmp_path, capsys, spec):
        assert main(["sweep", "--n", "3", "--gammas", spec, "--cs", "1.0",
                     "--out", str(tmp_path / "s")]) == 2
        assert capsys.readouterr().err.startswith(f"error: bad grid spec {spec!r}")


class TestCliLyap:
    def test_quiescent_net(self, tmp_path, capsys):
        net = sm.NetworkParams(n=2, gamma=0.5, theta=1.0,
                               weights=np.zeros((2, 2)), i_ext=np.zeros(2))
        nf = tmp_path / "n.json"
        fileio.write_network(nf, net)
        assert main(["lyap", "--net", str(nf), "--inits", "2", "--horizon", "300",
                     "--seed", "0", "--out", str(tmp_path / "l.csv")]) == 0
        rows = [ln for ln in (tmp_path / "l.csv").read_text().splitlines()
                if ln and not ln.startswith("#")]
        assert rows[0] == "init,lyapunov"
        for row in rows[1:]:
            assert abs(float(row.split(",")[1]) - math.log(0.5)) <= 1e-9

    def test_net_matches_the_golden_file(self, tmp_path, monkeypatch, capsys):
        # tests/data/lyap_net.csv is this command's output, run in tests/data.  The net has
        # quarter weights and gamma 0, so every W z sum is exact in any BLAS order.  At this
        # ball start 0 re-seeds some companions on most steps and starts 1 and 2 all of them on
        # every step (rate -inf), all from the one stream: in step order, within a step in
        # start order
        monkeypatch.chdir(DATA)
        out = tmp_path / "lyap.csv"
        assert main(["lyap", "--net", "orbit_gamma0_net.json", "--inits", "3", "--ball", "0.5",
                     "--seed", "9", "--out", str(out)]) == 0
        assert out.read_bytes() == (DATA / "lyap_net.csv").read_bytes()

    def test_companions_off_their_mothers_pattern_match_the_golden_file(self, tmp_path,
                                                                        monkeypatch):
        # tests/data/lyap_net_wide_ball.csv is this command's output, run in tests/data.  At
        # this ball some companion leaves its mother's firing pattern on about 80% of the
        # steps, where W z is summed for every row, and none does on the rest, where it is
        # summed for the mothers alone.  Quarter weights make every sum exact in any order
        monkeypatch.chdir(DATA)
        out = tmp_path / "lyap.csv"
        assert main(["lyap", "--net", "orbit_gamma0875_a_net.json", "--inits", "3", "--ball",
                     "0.1", "--seed", "9", "--out", str(out)]) == 0
        assert out.read_bytes() == (DATA / "lyap_net_wide_ball.csv").read_bytes()

    def test_ensemble_mode(self, tmp_path):
        assert main(["lyap", "--n", "3", "--gammas", "0.5", "--cs", "0.0",
                     "--networks", "2", "--inits", "1", "--horizon", "100",
                     "--seed", "0", "--out", str(tmp_path / "l.csv")]) == 0
        rows = [ln for ln in (tmp_path / "l.csv").read_text().splitlines()
                if ln and not ln.startswith("#")]
        assert rows[0] == "gamma,c,samples,mean_lyapunov"
        assert abs(float(rows[1].split(",")[3]) - math.log(0.5)) <= 1e-9

    def test_ensemble_box_not_finite_exits_2(self, tmp_path, capsys):
        # weights of scale 1e308/sqrt(2) sum beyond the float range
        assert main(["lyap", "--n", "2", "--gammas", "0.5", "--cs", "1e308", "--inits", "1",
                     "--horizon", "10", "--out", str(tmp_path / "l.csv")]) == 2
        assert "invariant box" in capsys.readouterr().err

    def test_ensemble_config_records_the_defaults(self, tmp_path):
        assert main(["lyap", "--n", "2", "--gammas", "0.5", "--cs", "0.0", "--inits", "1",
                     "--horizon", "10", "--out", str(tmp_path / "l.csv")]) == 0
        config = (tmp_path / "l.csv").read_text().splitlines()[:14]
        assert {"# networks=5", "# theta=1.0", "# i_ext=0.0"} <= set(config)

    def test_requires_one_mode(self, tmp_path):
        assert main(["lyap", "--out", str(tmp_path / "l.csv")]) == 2


def test_cli_bad_subcommand_exit_2():
    assert main(["frobnicate"]) == 2


@pytest.mark.parametrize("argv", [
    ["sweep", "--n", "4", "--gammas", "0.5", "--cs=-0", "--networks", "1", "--inits", "1"],
    ["lyap", "--n", "4", "--gammas", "0.5", "--cs=-0", "--inits", "1", "--horizon", "10"],
], ids=["sweep", "lyap"])
def test_a_negative_zero_coupling_is_zero_and_exits_0(argv, tmp_path):
    # -0 is read as 0, not passed to rng.normal as a scale of -0.0, and written as 0.0 in
    # every file, the heatmap's column header too
    assert main(argv + ["--out", str(tmp_path / "out")]) == 0
    assert not any("-0.0" in path.read_text() for path in tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["simulate", "--net", str(DATA / "orbit_gamma05_net.json"), "--t-max", "10000000000000"],
    ["orbit", "--net", str(DATA / "orbit_gamma05_net.json"), "--inits", "100000000000000"],
    ["simulate", "--net", str(DATA / "orbit_gamma05_net.json"), "--t-max", "9000000000000000000"],
    ["orbit", "--net", str(DATA / "orbit_gamma05_net.json"), "--inits", "100000000000000000000"],
    ["sweep", "--n", "3", "--gammas", "0:1:100000000000000000000", "--cs", "1"],
], ids=["simulate-t-max", "orbit-inits", "simulate-t-max-beyond-numpy", "orbit-inits-beyond-numpy",
        "sweep-grid-beyond-numpy"])
def test_a_request_too_large_to_allocate_exits_3(argv, tmp_path, capsys):
    # 655 TiB of states and 6.39 PiB of starts, whose allocation fails with a MemoryError; then
    # sizes numpy cannot even address, which it refuses with a ValueError before allocating:
    # a grid count too, a well-formed spec and no bad one (exit 2)
    assert main(argv + ["--out", str(tmp_path / "x")]) == 3
    assert capsys.readouterr().err.startswith("error: ")
    assert not any(tmp_path.iterdir())


def test_graph_and_simulate_write_the_bytes_pinned_in_coding_sha256(tmp_path, monkeypatch):
    # CI's step of the same name, in process: from the repository root, as the outputs echo the
    # relative --net path; N=9 with dyadic weights, and the ghost's N=1, so every sum is exact
    monkeypatch.chdir(DATA.parent.parent)
    net = "tests/data/orbit_gamma05_net.json"
    for argv in (["graph", "--net", net, "--out", str(tmp_path / "graph.json")],
                 ["graph", "--net", net, "--include-illegal", "--cap", "18",
                  "--out", str(tmp_path / "graph-illegal.json")],
                 ["graph", "--net", "tests/data/orbit_ghost_net.json", "--out", str(tmp_path / "graph-ghost.json")],
                 ["simulate", "--net", net, "--v0", "random", "--seed", "1", "--t-max", "20000",
                  "--out", str(tmp_path / "simulate")]):
        assert main(argv) == 0
    pinned = dict(line.split()[::-1] for line in (DATA / "coding.sha256").read_text().splitlines())
    assert len(pinned) == 5
    assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in pinned} == pinned


def test_the_cli_defaults_are_the_librarys():
    # each run default the parser repeats, against the library's own, by value and type
    def defaults(fn):
        return {name: p.default for name, p in inspect.signature(fn).parameters.items()}

    def parsed(*argv):
        return vars(cli.build_parser().parse_args([*argv, "--out", "x"]))

    orbit = parsed("orbit", "--net", "n.json")
    grid = ["--n", "3", "--gammas", "0.5", "--cs", "1"]
    # lyap's ensemble-only defaults are set after parsing, so lyap --net can refuse the flags
    lyap = {**parsed("lyap", *grid), **cli._LYAP_ENSEMBLE_ONLY}
    detection = ["max_transient", "max_period", "tol"]
    for args, fn, names in [  # {parsed flag: library parameter, None when of the same name}
        (orbit, sm.omega_sample, {**dict.fromkeys(detection), "polish": "polish_steps",
                                  "threads": None}),
        (orbit, sm.classify_regime, {"eps_singular": "epsilon_singular"}),
        (parsed("sweep", *grid), sm.sweep,
         dict.fromkeys([*detection, "theta", "i_ext", "seed", "threads"])),
        (lyap, sm.lyapunov_map, {"burn_in": None, "directions": "num_directions", "seed": None,
                                 "theta": None, "i_ext": None, "threads": None}),
    ]:
        lib = defaults(fn)
        for flag, name in names.items():
            default = lib[name or flag]
            assert (type(args[flag]), args[flag]) == (type(default), default), (fn.__name__, flag)


_SWEEP = ["sweep", "--n", "3", "--gammas", "0.5", "--cs", "1.0", "--inits", "1",
          "--max-transient", "50", "--max-period", "20"]
_ORBIT = ["orbit", "--net", "{net}", "--inits", "2", "--max-transient", "5", "--max-period", "5"]
_ENSEMBLE_LYAP = ["lyap", "--n", "3", "--gammas", "0.5", "--cs", "1.0", "--horizon", "20"]
_NET_LYAP = ["lyap", "--net", "{net}", "--inits", "1", "--horizon", "20"]


@pytest.mark.parametrize("argv", [
    _SWEEP + ["--networks", "0"],
    _SWEEP + ["--threads", "0"],
    ["orbit", "--net", "{net}", "--inits", "2", "--max-transient", "5", "--max-period", "5",
     "--threads", "0"],
    _ENSEMBLE_LYAP + ["--networks", "0"],
    _ENSEMBLE_LYAP + ["--inits", "0"],
    _ENSEMBLE_LYAP + ["--threads", "0"],
    ["lyap", "--net", "{net}", "--inits", "0", "--horizon", "20"],
    ["simulate", "--net", "{net}", "--t-max", "5", "--noise", "-1", "--seed", "0"],
    _ORBIT + ["--tol", "nan"],
    _ORBIT + ["--eps-singular", "nan"],
    _ORBIT + ["--polish", "-3"],
    ["lyap", "--net", "{net}", "--inits", "1", "--horizon", "20", "--burn-in", "-5"],
    ["lyap", "--net", "{net}", "--inits", "1", "--horizon", "20", "--threads", "0"],
    ["simulate", "--net", "{net}", "--t-max", "5", "--v0", "random", "--seed", "-1"],
    ["simulate", "--net", "{net}", "--t-max", "5", "--noise", "0.1", "--seed", "-1"],
    _ORBIT + ["--seed", "-1"],
    _SWEEP + ["--seed", "-1"],
    ["lyap", "--net", "{net}", "--inits", "1", "--horizon", "20", "--seed", "-1"],
    _ENSEMBLE_LYAP + ["--seed", "-1"],
    ["graph", "--net", "{net}", "--cap", "0"],
    ["graph", "--net", "{net}", "--cap", "-3"],
    ["graph", "--net", "{net}", "--cap", "0", "--include-illegal"],
    ["graph", "--net", "{net}", "--cap", "-3", "--include-illegal"],
    ["simulate", "--net", "{net}", "--t-max", "5", "--noise", "0.1"],
    ["lyap", "--gammas", "0.5", "--n", "3", "--horizon", "20"],
    ["lyap", "--gammas", "0.5", "--cs", "1.0", "--horizon", "20"],
    _NET_LYAP + ["--n", "1"],
    _NET_LYAP + ["--cs", "1.0"],
    _NET_LYAP + ["--networks", "5"],
    _NET_LYAP + ["--theta", "1.0"],
    _NET_LYAP + ["--i-ext", "0.0"],
    _NET_LYAP + ["--threads", "4"],
], ids=["sweep-networks", "sweep-threads", "orbit-threads", "lyap-networks",
        "lyap-inits", "lyap-threads", "lyap-net-inits", "simulate-noise",
        "orbit-tol", "orbit-eps-singular", "orbit-polish", "lyap-net-burn-in",
        "lyap-net-threads", "simulate-v0-seed", "simulate-noise-seed", "orbit-seed",
        "sweep-seed", "lyap-net-seed", "lyap-seed", "graph-cap-0", "graph-cap-negative",
        "graph-cap-0-include-illegal", "graph-cap-negative-include-illegal",
        "simulate-noise-without-seed", "lyap-without-cs", "lyap-without-n",
        "lyap-net-n", "lyap-net-cs", "lyap-net-networks", "lyap-net-theta", "lyap-net-i-ext",
        "lyap-net-threads-4"])
def test_meaningless_arguments_exit_2(argv, ex1_file, tmp_path, capsys):
    argv = [a.format(net=ex1_file) for a in argv] + ["--out", str(tmp_path / "out")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


# each command, and the function that does its work
_EVERY_COMMAND = pytest.mark.parametrize("argv, worker", [
    (["simulate", "--net", "{net}", "--t-max", "5"], "simulate"),
    (["graph", "--net", "{net}"], "build_transition_graph"),
    (_ORBIT, "omega_sample"),
    (_SWEEP, "sweep"),
    (_ENSEMBLE_LYAP, "lyapunov_map"),
    (_NET_LYAP, "_lyapunov"),
], ids=["simulate", "graph", "orbit", "sweep", "lyap", "lyap-net"])


@_EVERY_COMMAND
def test_missing_out_directory_exits_2_before_any_work(argv, worker, ex1_file, tmp_path, capsys,
                                                      monkeypatch):
    monkeypatch.setattr(cli, worker, lambda *a, **k: pytest.fail(f"{worker} ran"))
    missing = tmp_path / "missing"
    argv = [a.format(net=ex1_file) for a in argv] + ["--out", str(missing / "out")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == f"error: --out: no directory {str(missing)!r}\n"
    assert not missing.exists()


@pytest.mark.parametrize("out", ["", "sub/"], ids=["empty", "trailing-separator"])
@_EVERY_COMMAND
def test_out_naming_no_file_exits_2_before_any_work(argv, worker, out, ex1_file, tmp_path, capsys,
                                                    monkeypatch):
    # simulate wrote the hidden files .csv and .raster, and sweep sub/.csv and sub/.heatmap.csv
    monkeypatch.setattr(cli, worker, lambda *a, **k: pytest.fail(f"{worker} ran"))
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    before = sorted(tmp_path.rglob("*"))
    assert main([a.format(net=ex1_file) for a in argv] + ["--out", out]) == 2
    assert capsys.readouterr().err == f"error: --out: {out!r} names no file\n"
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("argv, worker", [
    (["graph", "--net", "{net}"], "build_transition_graph"),
    (_ORBIT, "omega_sample"),
    (_ENSEMBLE_LYAP, "lyapunov_map"),
    (_NET_LYAP, "_lyapunov"),
], ids=["graph", "orbit", "lyap", "lyap-net"])
def test_out_naming_a_directory_exits_2_before_any_work(argv, worker, ex1_file, tmp_path, capsys,
                                                        monkeypatch):
    # these commands write --out itself, so a directory there could only fail at the write
    monkeypatch.setattr(cli, worker, lambda *a, **k: pytest.fail(f"{worker} ran"))
    argv = [a.format(net=ex1_file) for a in argv] + ["--out", str(tmp_path)]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: --out: {str(tmp_path)!r} is a directory\n"


@pytest.mark.parametrize("argv, written", [
    (["simulate", "--net", "{net}", "--t-max", "5"], ("csv", "raster")),
    (_SWEEP, ("csv", "heatmap.csv")),
], ids=["simulate", "sweep"])
def test_a_prefix_may_name_a_directory(argv, written, ex1_file, tmp_path):
    # simulate and sweep write --out plus a suffix, beside a directory of that name
    out = tmp_path / "run"
    out.mkdir()
    assert main([a.format(net=ex1_file) for a in argv] + ["--out", str(out)]) == 0
    assert all((tmp_path / f"run.{suffix}").is_file() for suffix in written)


def _echo(command, *lines):
    return [f"command={command}", f"version={sm.__version__}", *lines]


_SWEEP_ECHO = _echo("sweep", "n=3", "gammas=0.5", "cs=1.0", "networks=10", "inits=1", "theta=1.0",
                    "i_ext=0.0", "max_transient=50", "max_period=20", "tol=1e-10", "seed=0")


@pytest.mark.parametrize("argv, files", [
    (["simulate", "--net", "ex1.json", "--t-max", "5", "--v0", "0.5"],
     {"out.csv": _echo("simulate", "net=ex1.json", "v0=0.5", "t_max=5", "noise=0.0", "seed=None")}),
    (_SWEEP + ["--threads", "2"], {"out.csv": _SWEEP_ECHO, "out.heatmap.csv": _SWEEP_ECHO}),
    (_ENSEMBLE_LYAP + ["--threads", "2"],
     {"out": _echo("lyap", "n=3", "gammas=0.5", "cs=1.0", "networks=5", "inits=3", "ball=0.001",
                   "horizon=20", "burn_in=100", "directions=8", "theta=1.0", "i_ext=0.0",
                   "seed=0")}),
], ids=["simulate-without-seed", "sweep", "lyap"])
def test_csv_config_echoes_every_flag_but_out_and_threads(argv, files, ex1_file, monkeypatch):
    # the exact comment lines; the golden files under tests/data pin the other echoes
    monkeypatch.chdir(pathlib.Path(ex1_file).parent)
    assert main(argv + ["--out", "out"]) == 0
    for name, lines in files.items():
        head = pathlib.Path(name).read_text().splitlines()[:len(lines) + 1]
        assert head[:-1] == ["# " + line for line in lines] and not head[-1].startswith("#")


@pytest.mark.parametrize("flags", [[], ["--include-illegal"]])
def test_graph_config_echoes_every_flag_but_out(flags, ex1_file, monkeypatch):
    monkeypatch.chdir(pathlib.Path(ex1_file).parent)
    assert main(["graph", "--net", "ex1.json", *flags, "--out", "g.json"]) == 0
    assert pathlib.Path("g.json").read_text().endswith(
        ' "config": {\n  "command": "graph",\n  "version": "%s",\n  "net": "ex1.json",\n'
        '  "cap": "16",\n  "include_illegal": "%s"\n }\n}\n' % (sm.__version__, bool(flags)))
