"""Command-line entry points: simulate, graph, orbit, sweep, lyap.

Exit codes: 0 on success, 2 for input/validation/IO errors, 3 when a request
exceeds a capability limit or is too large to allocate.  All randomized commands
are bit-reproducible under ``--seed``; every output file but the raster embeds
its configuration.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import __version__
from .model import (
    CapacityError,
    NetworkParams,
    ValidationError,
    _as_count,
    simulate,
)
from .coding import build_transition_graph
from .orbits import _lyap_params, _lyapunov, _starts, classify_regime, dist_attractor_to_S, omega_sample
from .ensemble import lyapunov_map, sweep
from . import fileio


def _parse_grid(spec: str) -> list[float]:
    """Either comma-separated values or lo:hi:count for a uniform grid."""
    try:
        if ":" in spec:
            lo, hi, count = spec.split(":")
            values = np.linspace(float(lo), float(hi), int(count))
            if values.size == 0:
                raise ValueError("empty grid")
            return [float(v) for v in values]
        return [float(v) for v in spec.split(",")]
    except ValueError as e:
        raise ValidationError(f"bad grid spec {spec!r}: {e}") from e


def _parse_v0(spec: str, net: NetworkParams, rng) -> np.ndarray:
    if spec == "zero":
        return np.zeros(net.n)
    if spec == "random":
        if rng is None:
            raise ValidationError("--v0 random requires --seed")
        return _starts(net, 1, rng)[0]
    try:
        return np.array([float(x) for x in spec.split(",")])
    except ValueError as e:
        raise ValidationError(f"bad v0 spec {spec!r}: {e}") from e


# the dispatch fields, and flags that set where or how a run is carried out, not what it computes
_NOT_ECHOED = {"command", "func", "out", "threads", "include_states"}


def _config(args, *skip: str) -> dict:
    """command and version, then the subcommand's flags but _NOT_ECHOED and skip.

    argparse sets each default in the order the flags are declared, so the flags
    come in that order, the order of ``--help``.
    """
    return {"command": args.command, "version": __version__,
            **{k: v for k, v in vars(args).items() if k not in _NOT_ECHOED and k not in skip}}


def _cmd_simulate(args) -> int:
    net = fileio.read_network(args.net)
    rng = None if args.seed is None else np.random.default_rng(args.seed)  # draws v0, then noise
    v0 = _parse_v0(args.v0, net, rng)
    if args.noise > 0 and rng is None:
        raise ValidationError("--noise requires --seed")
    traj = simulate(net, v0, args.t_max, sigma_b=args.noise, rng=rng)
    fileio.write_trajectory_csv(args.out + ".csv", traj, _config(args))
    fileio.write_raster_text(args.out + ".raster", traj.raster)
    print(f"wrote {args.out}.csv and {args.out}.raster ({len(traj)} steps, N={net.n})")
    return 0


def _cmd_graph(args) -> int:
    net = fileio.read_network(args.net)
    if args.include_illegal and 2 * net.n > _as_count(args.cap, "cap"):
        raise CapacityError(f"--include-illegal needs 2N <= --cap={args.cap}, got N={net.n}")
    graph = build_transition_graph(net, cap=args.cap)
    fileio.write_graph_json(args.out, graph, include_illegal=args.include_illegal,
                            config=_config(args))
    print(" ".join(f"{kind}={count}" for kind, count in graph.counts().items()))
    return 0


def _cmd_orbit(args) -> int:
    net = fileio.read_network(args.net)
    rng = np.random.default_rng(args.seed)
    sample = omega_sample(
        net,
        args.inits,
        rng,
        max_transient=args.max_transient,
        max_period=args.max_period,
        tol=args.tol,
        polish_steps=args.polish,
        threads=args.threads,
    )
    regime = classify_regime(
        sample.orbits, sample.undetermined,
        epsilon_singular=args.eps_singular, horizon=sample.horizon,
    )
    d_as = dist_attractor_to_S(sample.orbits) if sample.orbits else None
    fileio.write_orbits_json(
        args.out, sample.orbits, regime, d_as, sample.undetermined,
        config=_config(args), include_states=args.include_states,
    )
    d_repr = fileio.fmt_float(d_as) if d_as is not None else "nan"
    print(
        f"regime={regime} orbits={len(sample.orbits)} dAS={d_repr} "
        f"undetermined={sample.undetermined}"
    )
    return 0


def _cmd_sweep(args) -> int:
    gammas = _parse_grid(args.gammas)
    cs = _parse_grid(args.cs)

    def progress(done, total, cell):
        print(
            f"cell {done}/{total} gamma={cell.gamma:g} c={cell.c:g} "
            f"death={cell.death_fraction:g} log10_d={cell.log10_d_as:g}",
            file=sys.stderr,
        )

    cells = sweep(
        gammas, cs, args.n, args.networks, args.inits,
        max_transient=args.max_transient, max_period=args.max_period,
        tol=args.tol, theta=args.theta, i_ext=args.i_ext,
        seed=args.seed, threads=args.threads, progress=progress,
    )
    config = _config(args)
    fileio.write_sweep_csv(args.out + ".csv", cells, config)
    fileio.write_heatmap_csv(args.out + ".heatmap.csv", cells, gammas, cs, config)
    print(f"wrote {args.out}.csv and {args.out}.heatmap.csv ({len(cells)} cells)")
    return 0


# lyap's ensemble-only flags and defaults; unset by the parser, so lyap --net can refuse them
_LYAP_ENSEMBLE_ONLY = {"n": None, "cs": None, "networks": 5, "theta": 1.0, "i_ext": 0.0,
                       "threads": 1}


def _cmd_lyap(args) -> int:
    if (args.net is None) == (args.gammas is None):
        raise ValidationError("lyap needs exactly one of --net or ensemble flags (--gammas/--cs/--n)")
    if args.net is not None:
        given = [key for key in _LYAP_ENSEMBLE_ONLY if getattr(args, key) is not None]
        if given:
            flag = "--" + given[0].replace("_", "-")
            raise ValidationError(f"{flag} applies only to ensemble lyap, not to lyap --net")
        net = fileio.read_network(args.net)
        vals = _lyapunov([net], [np.random.default_rng(args.seed)], _as_count(args.inits, "inits"),
                         *_lyap_params(args.ball, args.directions, args.horizon, args.burn_in))[0]
        config = _config(args, "gammas", *_LYAP_ENSEMBLE_ONLY)  # all None in this mode
        fileio._write_csv(args.out, config, "init,lyapunov",
                          (f"{k},{fileio.fmt_float(lam)}" for k, lam in enumerate(vals)))
        print(f"lambda_mean={fileio.fmt_float(float(np.mean(vals)))} inits={args.inits}")
        return 0
    if args.cs is None or args.n is None:
        raise ValidationError("ensemble lyap requires --gammas, --cs, and --n")
    for key, default in _LYAP_ENSEMBLE_ONLY.items():
        if getattr(args, key) is None:
            setattr(args, key, default)
    gammas = _parse_grid(args.gammas)
    cs = _parse_grid(args.cs)
    cells = lyapunov_map(
        gammas, cs, args.n, args.networks, args.inits, args.ball, args.horizon,
        num_directions=args.directions, burn_in=args.burn_in,
        theta=args.theta, i_ext=args.i_ext, seed=args.seed, threads=args.threads,
    )
    fileio.write_lyap_csv(args.out, cells, _config(args, "net"))
    print(f"wrote {args.out} ({len(cells)} cells)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spikemap",
        description="Simulate and analyse discrete-time threshold networks.",
    )
    parser.add_argument("--version", action="version", version=f"spikemap {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    max_transient_help = "cap on the transient, not a burn-in: detection stops once the cycle is found"

    p = sub.add_parser("simulate", help="iterate the map and dump trajectory + raster")
    p.add_argument("--net", required=True, help="network JSON file")
    p.add_argument("--v0", default="zero", help="'zero', 'random', or comma-separated values")
    p.add_argument("--t-max", type=int, required=True)
    p.add_argument("--noise", type=float, default=0.0, help="Gaussian noise std per step")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True, help="output prefix (.csv and .raster)")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("graph", help="classify all pattern transitions")
    p.add_argument("--net", required=True)
    p.add_argument("--cap", type=int, default=16, help="max N (2N with --include-illegal)")
    p.add_argument("--include-illegal", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_graph)

    p = sub.add_parser("orbit", help="sample long-run orbits and classify the regime")
    p.add_argument("--net", required=True)
    p.add_argument("--inits", type=int, default=20)
    p.add_argument("--max-transient", type=int, default=100_000, help=max_transient_help)
    p.add_argument("--max-period", type=int, default=10_000)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--eps-singular", type=float, default=1e-6)
    p.add_argument("--polish", type=int, default=20_000)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--include-states", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_orbit)

    p = sub.add_parser("sweep", help="random-ensemble sweep over a (gamma, c) grid")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--gammas", required=True, help="comma list or lo:hi:count")
    p.add_argument("--cs", required=True, help="comma list or lo:hi:count")
    p.add_argument("--networks", type=int, default=10)
    p.add_argument("--inits", type=int, default=5)
    p.add_argument("--theta", type=float, default=1.0)
    p.add_argument("--i-ext", type=float, default=0.0)
    p.add_argument("--max-transient", type=int, default=3_000, help=max_transient_help)
    p.add_argument("--max-period", type=int, default=1_000)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--out", required=True, help="output prefix (.csv and .heatmap.csv)")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("lyap", help="finite-ball expansion-rate estimates")
    p.add_argument("--net", default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--gammas", default=None)
    p.add_argument("--cs", default=None)
    p.add_argument("--networks", type=int, default=None)
    p.add_argument("--inits", type=int, default=3)
    p.add_argument("--ball", type=float, default=1e-3)
    p.add_argument("--horizon", type=int, default=1_000)
    p.add_argument("--burn-in", type=int, default=100)
    p.add_argument("--directions", type=int, default=8)
    p.add_argument("--theta", type=float, default=None)
    p.add_argument("--i-ext", type=float, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_lyap)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        if (getattr(args, "seed", None) or 0) < 0:  # numpy seeds are nonnegative
            raise ValidationError(f"--seed must be >= 0, got {args.seed}")
        out_dir = os.path.dirname(args.out) or "."  # checked before any work, not at the write
        if not os.path.isdir(out_dir):
            raise ValidationError(f"--out: no directory {out_dir!r}")
        if args.command not in ("simulate", "sweep") and os.path.isdir(args.out):  # not a prefix
            raise ValidationError(f"--out: {args.out!r} is a directory")
        return args.func(args)
    except (CapacityError, MemoryError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (ValidationError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
