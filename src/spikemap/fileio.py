"""Self-describing file formats: network JSON, trajectory CSV, raster text,
transition-graph JSON, orbit-report JSON, and sweep/heatmap/lyap CSV.

Every file is UTF-8 text with LF line ends.  A CSV opens with ``# key=value``
lines echoing the effective configuration, and the graph and orbit JSON embed
it under ``"config"``.  Floats are written in shortest round-trip form.  A sweep
or lyap CSV has a column per field of SweepCell or LyapCell, named after it and
in declared order.  The text readers skip blank and ``#`` lines anywhere and take
the config from the ``# key=value`` lines before the first other line.  The network,
trajectory, raster and sweep readers reproduce the written objects exactly; the
graph and orbit readers return the parsed JSON as a plain dict, and the heatmap
and lyap CSVs, made for plotting, have no reader.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import itertools
import json
import math
from typing import Optional, get_type_hints

import numpy as np

from .model import NetworkParams, Trajectory, ValidationError
from .coding import _EDGE_KINDS, TransitionGraph, _check_raster, pattern_to_str, str_to_pattern
from .orbits import OrbitReport, RegimeLabel
from .ensemble import LyapCell, SweepCell

_EDGE_FIELDS = ("from", "to", "kind")  # what each graph file's edge string holds, in order

__all__ = [
    "fmt_float",
    "write_network",
    "read_network",
    "write_trajectory_csv",
    "read_trajectory_csv",
    "write_raster_text",
    "read_raster_text",
    "write_graph_json",
    "read_graph_json",
    "write_orbits_json",
    "read_orbits_json",
    "write_sweep_csv",
    "read_sweep_csv",
    "write_heatmap_csv",
    "write_lyap_csv",
]


def fmt_float(x: float) -> str:
    """Shortest decimal that parses back to the identical float."""
    return repr(float(x))


def _write_csv(path, config: Optional[dict], header: str, rows) -> None:
    """The config as ``# key=value`` lines, then the header, then the preformatted rows."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        if config:
            f.write("".join(f"# {k}={v}\n" for k, v in config.items()))
        f.write(header + "\n")
        for row in rows:
            f.write(row + "\n")


@contextlib.contextmanager
def _read_csv(path):
    """``with _read_csv(path) as (config, lines)``: the ``# key=value`` lines before the first line
    that is neither blank (whitespace only) nor ``#``, and the open file's lines from that one on,
    the blank ones dropped; a ``#`` line without ``=`` is a comment.  A byte that is not UTF-8
    raises ValidationError wherever it is read.
    """
    try:
        with open(path, "r", encoding="utf-8") as f:
            lines, config = itertools.filterfalse(str.isspace, f), {}  # no line read is "", so line[0] exists
            for line in lines:
                if line[0] != "#":
                    lines = itertools.chain([line], lines)
                    break
                key, eq, value = line[1:].strip().partition("=")
                if eq:
                    config[key] = value
            yield config, lines
    except UnicodeDecodeError as e:
        raise ValidationError(f"file {path} is not UTF-8 text: {e}") from e


def _data(lines):
    """The lines that are no ``#`` comment, their surrounding whitespace stripped."""
    return (line.strip() for line in lines if line[0] != "#")


def _json_text(payload: dict, config: Optional[dict] = None) -> str:
    if config:
        payload["config"] = {k: str(v) for k, v in config.items()}
    return json.dumps(payload, indent=1) + "\n"


def _write_json(path, payload: dict, config: Optional[dict] = None) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(_json_text(payload, config))


def _read_json(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except ValueError as e:  # a JSON syntax error, or a byte that is not UTF-8
        raise ValidationError(f"malformed JSON file {path}: {e}") from e


def write_network(path, net: NetworkParams) -> None:
    _write_json(path, {
        "n": net.n,
        "gamma": net.gamma,
        "theta": net.theta,
        "weights": [[float(x) for x in row] for row in net.weights],
        "i_ext": [float(x) for x in net.i_ext],
    })


def read_network(path) -> NetworkParams:
    """The network of a JSON object with the five fields write_network writes, and no other."""
    payload, fields = _read_json(path), {"n", "gamma", "theta", "weights", "i_ext"}
    if not isinstance(payload, dict):
        raise ValidationError(f"network file {path} holds no JSON object")
    for what, keys in (("is missing", fields - payload.keys()), ("has unknown", payload.keys() - fields)):
        if keys:
            raise ValidationError(f"network file {path} {what} fields: {', '.join(sorted(keys))}")
    return NetworkParams(**payload)


def _trajectory_header(n: int) -> str:
    """The one header of a trajectory file of n neurons, written and read."""
    return "t," + ",".join(f"v_{i}" for i in range(n))


def write_trajectory_csv(path, traj: Trajectory, config: Optional[dict] = None) -> None:
    """One row per state; each distinct state, keyed by its bytes, is formatted once."""
    states = np.ascontiguousarray(traj.states)
    keys = states.view(np.dtype((np.void, states.itemsize * states.shape[1])))[:, 0].tolist()
    text = {}
    for t, key in enumerate(keys):
        if key not in text:
            text[key] = ",".join(map(repr, states[t].tolist()))
    _write_csv(path, config, _trajectory_header(traj.net.n),
               (f"{t},{text[key]}" for t, key in enumerate(keys)))


def read_trajectory_csv(path) -> tuple[dict, np.ndarray, np.ndarray]:
    """Returns (config, times, states), the rows after the header parsed by one ``np.loadtxt``."""
    with _read_csv(path) as (config, lines):
        header = next(_data(lines), None)
        if header is None:
            raise ValidationError(f"trajectory file {path} has no data")
        n = header.count(",")
        if not n or header != _trajectory_header(n):
            raise ValidationError(f"trajectory file {path} has an unexpected header")
        row = np.dtype([("t", np.int64), ("v", np.float64, (n,))])
        first = next(_data(lines), None)  # looked for here: numpy warns when it finds no row
        try:
            data = (np.empty(0, row) if first is None else
                    np.loadtxt(itertools.chain([first], lines), delimiter=",", dtype=row, ndmin=1))
        except ValueError as e:
            if isinstance(e, UnicodeDecodeError):
                raise
            raise ValidationError(f"trajectory file {path} has a malformed row: {e}") from e
    return config, data["t"], data["v"]


def write_raster_text(path, raster) -> None:
    """One line of 0/1 characters per row, as ``pattern_to_str`` spells it; checked before the file opens."""
    raster = _check_raster(raster)
    text = np.full((raster.shape[0], raster.shape[1] + 1), ord("\n"), dtype=np.uint8)
    text[:, :-1] = np.where(raster != 0, ord("1"), ord("0"))
    with open(path, "wb") as f:
        f.write(text.tobytes())


def read_raster_text(path) -> np.ndarray:
    """The data lines of a raster file, parsed by ``str_to_pattern``."""
    with _read_csv(path) as (_, lines):
        lines = list(_data(lines))
    if len(set(map(len, lines))) != 1:
        raise ValidationError(f"raster file {path} {'has ragged lines' if lines else 'is empty'}")
    text, rows = "".join(lines), len(lines)
    del lines  # freed before the long-lived raster is allocated; held, they raised peak RSS
    try:
        return str_to_pattern(text).reshape(rows, -1)
    except ValidationError:
        raise ValidationError(f"raster file {path} has characters other than 0/1") from None


def write_graph_json(
    path, graph: TransitionGraph, include_illegal: bool = False, config: Optional[dict] = None
) -> None:
    """The graph as ``json.dump({"n", "edge_fields", "edges", "config"}, indent=1)`` writes it, streamed.

    Each edge is one string ``"<from> <to> <kind>"``, the fields ``edge_fields`` names: the two
    patterns as ``pattern_to_str`` spells them, then the kind, as in ``"0110 0100 conditional"``;
    ``src, dst, kind = edge.split()`` takes one apart.  Edges come in ``iter_edges`` order (sources,
    then targets, ascending), assembled in numpy blocks and written as bytes: each block is its
    NUL-padded records with the padding dropped.  A record's two pattern names are fields of it, so
    each is filled with one n-byte element per edge.
    """
    n = graph.n
    records = [f',\n  "{"F" * n} {"T" * n} {kind}"'
               for kind in _EDGE_KINDS]  # one edge of each kind, opening with its separator
    table = np.array(records, dtype=bytes)  # NUL-padded to the longest
    name = np.dtype((np.void, n))
    # fields over the record's bytes: a copy of this dtype would copy the fields alone
    fields = np.dtype({"names": ["from", "to"], "formats": [name, name], "itemsize": table.itemsize,
                       "offsets": [records[0].index("F"), records[0].index("T")]})
    names = (graph.src_bits + np.uint8(ord("0"))).view(name)[:, 0]
    header = {"n": n, "edge_fields": _EDGE_FIELDS, "edges": []}
    before, _, after = _json_text(header, config).partition('"edges": []')
    with open(path, "wb") as f:
        f.write((before + '"edges": [').encode())
        for i, (a, b, kind) in enumerate(graph._edge_blocks(include_illegal)):
            text = table[kind]
            edges = text.view(fields)
            edges["from"], edges["to"] = names[a], names[b]
            f.write(text.tobytes().replace(b"\0", b"")[i == 0:])  # the first edge drops its comma
        f.write(("\n ]" + after).encode())


def read_graph_json(path) -> dict:
    """The parsed graph file, its top level checked once: ``edge_fields`` as written, ``edges`` a list.

    The edge strings are returned as they are, not split or checked one by one.
    """
    payload = _read_json(path)
    top = payload if isinstance(payload, dict) else {}
    edges, fields = top.get("edges"), list(_EDGE_FIELDS)
    if top.get("edge_fields") == fields and isinstance(edges, list):
        return payload
    if isinstance(edges, list) and edges and isinstance(edges[0], dict):
        raise ValidationError(f"graph file {path} has the older schema of one dict per edge; write it again")
    raise ValidationError(f"graph file {path} is no JSON object with edge_fields {fields} "
                          "and a list of edges")


def write_orbits_json(
    path,
    orbits: list[OrbitReport],
    regime: RegimeLabel,
    d_as: Optional[float],
    undetermined: int,
    config: Optional[dict] = None,
    include_states: bool = False,
) -> None:
    items = [{"transient": o.transient, "period": o.period, "min_threshold_gap": o.min_threshold_gap,
              "cycle_raster": [pattern_to_str(row) for row in o.cycle_raster]} for o in orbits]
    if include_states:
        for item, o in zip(items, orbits):
            item["states"] = [[float(x) for x in row] for row in o.states]
    _write_json(path, {"regime": str(regime), "d_as": d_as, "undetermined": undetermined,
                       "orbits": items}, config)


def read_orbits_json(path) -> dict:
    """The parsed orbit file, its top level checked once: an object whose ``orbits`` is a list."""
    payload = _read_json(path)
    if isinstance(payload, dict) and isinstance(payload.get("orbits"), list):
        return payload
    raise ValidationError(f"orbit file {path} is no JSON object with a list of orbits")


@functools.cache
def _columns(cls) -> tuple:
    """The CSV columns of a cell dataclass: its field names in declared order, and their types."""
    names, hints = tuple(f.name for f in dataclasses.fields(cls)), get_type_hints(cls)
    return names, tuple(hints[name] for name in names)


SWEEP_HEADER = ",".join(_columns(SweepCell)[0])


def _write_cells(path, cls, cells, config: Optional[dict]) -> None:
    """One row per cell, its fields in column order: an int by ``str``, a float by fmt_float."""
    names, kinds = _columns(cls)
    columns = [(name, str if kind is int else fmt_float) for name, kind in zip(names, kinds)]
    _write_csv(path, config, ",".join(names), (
        ",".join([fmt(getattr(cell, name)) for name, fmt in columns]) for cell in cells))


def write_sweep_csv(path, cells: list[SweepCell], config: Optional[dict] = None) -> None:
    _write_cells(path, SweepCell, cells, config)


def read_sweep_csv(path) -> tuple[dict, list[SweepCell]]:
    with _read_csv(path) as (config, lines):
        rows = list(_data(lines))
    if not rows or rows[0] != SWEEP_HEADER:
        raise ValidationError(f"sweep file {path} has an unexpected header")
    kinds = _columns(SweepCell)[1]
    cells = []
    for row in rows[1:]:
        values = row.split(",")
        try:
            if len(values) != len(kinds):
                raise ValueError(f"{len(values)} fields, want {len(kinds)}")
            cells.append(SweepCell(*[kind(value) for kind, value in zip(kinds, values)]))
        except ValueError as e:
            raise ValidationError(f"sweep file {path} has a malformed row: {e}") from e
    return config, cells


def write_heatmap_csv(path, cells: list[SweepCell], gammas, cs, config: Optional[dict] = None) -> None:
    """log10 attractor-distance matrix, gamma rows by c columns, for direct plotting."""
    value = {(cell.gamma, cell.c): cell.log10_d_as for cell in cells}
    _write_csv(path, config, "gamma\\c," + ",".join(fmt_float(c) for c in cs), (
        fmt_float(g) + "," + ",".join(
            fmt_float(value.get((float(g), float(c)), math.nan)) for c in cs
        )
        for g in gammas
    ))


def write_lyap_csv(path, cells: list[LyapCell], config: Optional[dict] = None) -> None:
    _write_cells(path, LyapCell, cells, config)
