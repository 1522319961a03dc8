"""Outside-in tracing of the spikemap package.

The tracer wraps the public functions of each spikemap module at every name
a spikemap module binds them under (``step`` is patched in both
``spikemap.model`` and ``spikemap.orbits``), so calls are seen exactly as the
program makes them.  Nothing under ``src/`` changes, and ``restore()`` puts
every original back, so an untraced run measures the unpatched program.

Each wrapped call opens a frame on one stack.  A frame's self time is its
duration minus the time of the frames directly inside it.  Most calls are
also recorded as spans (name, start, end, parent span, run id); the hot
leaves in ``HOT`` (``step`` runs millions of times in a sweep) are only
aggregated per name, and their calls are attributed to the enclosing span.
"""

from __future__ import annotations

import functools
import inspect
import os
import types
from dataclasses import dataclass, field
from time import perf_counter

MODULES = ("model", "coding", "orbits", "ensemble", "fileio", "cli")

# Called per step, per pattern or per float: aggregated, never recorded one by one.
HOT = frozenset({
    "model.step",
    "model.step_noisy",
    "model.spiking_state",
    "model.synaptic_current",
    "model.max_dist",
    "coding.fire_set",
    "coding.pattern_cardinality",
    "coding.pattern_to_str",
    "coding.str_to_pattern",
    "coding.TransitionGraph.pattern",
    "coding.TransitionGraph.edge_kind",
    "coding.TransitionGraph.successors",
    "coding.TransitionGraph.iter_edges",
    "fileio.fmt_float",
})

STEP = "model.step"


@dataclass
class Span:
    span_id: int
    parent_id: int  # 0 for a top-level span
    run_id: str
    name: str
    start: float
    end: float
    self_s: float
    step_calls: int


@dataclass
class Agg:
    calls: int = 0
    self_s: float = 0.0
    step_calls: int = 0


@dataclass
class Tracer:
    run_id: str
    spans: list = field(default_factory=list)
    aggs: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)
    orbit_calls: list = field(default_factory=list)  # (max_transient, transient or None)
    _stack: list = field(default_factory=list)      # frames: [start, child_s, step_calls]
    _open: list = field(default_factory=lambda: [0])  # ids of the open recorded spans
    _next_id: int = 1
    _patches: list = field(default_factory=list)    # (owner, attribute, original)
    _restored: list = field(default_factory=list)

    def count(self, key: str, amount) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    # -- frames ---------------------------------------------------------------

    def _wrap_call(self, name: str, fn, observe=None):
        stack = self._stack
        agg = self.aggs.setdefault(name, Agg())
        is_step = name == STEP
        tracer = self

        if name in HOT:
            @functools.wraps(fn)
            def hot(*args, **kwargs):
                if is_step and stack:
                    stack[-1][2] += 1
                frame = [perf_counter(), 0.0, 0]
                stack.append(frame)
                try:
                    return fn(*args, **kwargs)
                finally:
                    dur = perf_counter() - frame[0]
                    stack.pop()
                    agg.calls += 1
                    agg.self_s += dur - frame[1]
                    agg.step_calls += frame[2]
                    if stack:
                        stack[-1][1] += dur
            return hot

        bind = inspect.signature(fn).bind if observe is not None else None

        @functools.wraps(fn)
        def recorded(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id += 1
            parent_id = tracer._open[-1]
            tracer._open.append(span_id)
            frame = [perf_counter(), 0.0, 0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer._open.pop()
                dur = end - frame[0]
                agg.calls += 1
                agg.self_s += dur - frame[1]
                agg.step_calls += frame[2]
                if stack:
                    stack[-1][1] += dur
                tracer.spans.append(Span(span_id, parent_id, tracer.run_id, name,
                                         frame[0], end, dur - frame[1], frame[2]))
            if observe is not None:
                bound = bind(*args, **kwargs)
                bound.apply_defaults()
                observe(tracer, bound.arguments, result)
            return result

        return recorded

    def _wrap_generator(self, name: str, fn):
        """A generator's work happens in ``next()``: time each resumption as one frame."""
        step_into = self._wrap_call(name, next)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                try:
                    item = step_into(it)
                except StopIteration:
                    return
                tracer.count(f"{name}.yields", 1)
                yield item

        return wrapper

    def _wrap(self, name: str, fn):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn)
        return self._wrap_call(name, fn, OBSERVERS.get(name))

    # -- patching -------------------------------------------------------------

    def install(self, package) -> None:
        """Wrap every public function of ``MODULES`` wherever a spikemap module binds it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [package] + [getattr(package, m) for m in MODULES]
        for short in MODULES:
            mod = getattr(package, short)
            for fn_name, fn in _public_functions(mod):
                wrapped = self._wrap(f"{short}.{fn_name}", fn)
                for owner in modules:
                    for attr, value in list(vars(owner).items()):
                        if value is fn:
                            self._patches.append((owner, attr, fn))
                            setattr(owner, attr, wrapped)
            for cls_name, cls in _public_classes(mod):
                for meth_name, meth in _plain_methods(cls):
                    self._patches.append((cls, meth_name, meth))
                    setattr(cls, meth_name, self._wrap(f"{short}.{cls_name}.{meth_name}", meth))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._restored, self._patches = self._patches, []

    def is_restored(self) -> bool:
        """True once every patched name holds its original object again."""
        return not self._patches and all(getattr(o, a) is fn for o, a, fn in self._restored)


def _public_functions(mod):
    names = getattr(mod, "__all__", None) or [n for n in vars(mod) if not n.startswith("_")]
    for name in names:
        obj = getattr(mod, name, None)
        if isinstance(obj, types.FunctionType) and obj.__module__ == mod.__name__:
            yield name, obj


def _public_classes(mod):
    for name in getattr(mod, "__all__", ()):
        obj = getattr(mod, name, None)
        if isinstance(obj, type) and obj.__module__ == mod.__name__:
            yield name, obj


def _plain_methods(cls):
    for name, obj in vars(cls).items():
        if not name.startswith("_") and isinstance(obj, types.FunctionType):
            yield name, obj


# -- observers: counts taken at the layer boundary ------------------------------

def _observe_find_periodic_orbit(tracer, params, result):
    tracer.orbit_calls.append((int(params["max_transient"]), getattr(result, "transient", None)))


def _observe_omega_sample(tracer, params, result):
    tracer.count("orbits.distinct", len(result.orbits))
    tracer.count("orbits.determined_inits", int(params["num_inits"]) - result.undetermined)


def _size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _observe_write(tracer, params, result):
    tracer.count("fileio.bytes_written", _size(params["path"]))


def _observe_read(tracer, params, result):
    tracer.count("fileio.bytes_read", _size(params["path"]))


OBSERVERS = {
    "orbits.find_periodic_orbit": _observe_find_periodic_orbit,
    "orbits.omega_sample": _observe_omega_sample,
}
for _name in ("write_network", "write_trajectory_csv", "write_raster_text", "write_graph_json",
              "write_orbits_json", "write_sweep_csv", "write_heatmap_csv", "write_lyap_csv"):
    OBSERVERS[f"fileio.{_name}"] = _observe_write
for _name in ("read_network", "read_trajectory_csv", "read_raster_text", "read_graph_json",
              "read_orbits_json", "read_sweep_csv"):
    OBSERVERS[f"fileio.{_name}"] = _observe_read


# -- derived per-layer metrics ---------------------------------------------------

def _ratio(num: float, den: float) -> float:
    """Undefined ratios (nothing to divide by on this workload) read as 0."""
    return num / den if den else 0.0


def per_layer_metrics(tracer: Tracer, n: int, traced_wall_s: float, overhead_frac: float) -> dict:
    """The per-layer metric values of one traced repetition that took ``traced_wall_s``.

    ``n`` is the network size every ``step`` call of the workload uses; the
    step's flop and byte counts are computed from it, not measured.
    """
    def agg(name):
        return tracer.aggs.get(name, Agg())

    out = {}
    step = agg("model.step")
    out["model.step.calls"] = (step.calls, "count")
    out["model.step.self_s"] = (step.self_s, "s")
    out["model.step.us_per_call"] = (_ratio(step.self_s, step.calls) * 1e6, "us")
    # v*gamma*(1-z) + W@z + i_ext: 2N^2 for the matvec, 5N elementwise; W, v, i_ext in, v' out.
    out["model.step.computed_flops"] = (step.calls * (2 * n * n + 5 * n), "flop")
    out["model.step.computed_bytes"] = (step.calls * 8 * (n * n + 3 * n), "B")

    fpo = agg("orbits.find_periodic_orbit")
    out["orbits.find_periodic_orbit.calls"] = (fpo.calls, "count")
    out["orbits.find_periodic_orbit.self_s"] = (fpo.self_s, "s")
    out["orbits.find_periodic_orbit.step_calls"] = (fpo.step_calls, "count")
    burnin = sum(m for m, _ in tracer.orbit_calls)
    out["orbits.burnin_step_share"] = (_ratio(burnin, fpo.step_calls), "ratio")
    ratios = [t / m for m, t in tracer.orbit_calls if t is not None and m > 0]
    out["orbits.transient_over_burnin"] = (_ratio(sum(ratios), len(ratios)), "ratio")
    determined = sum(1 for _, t in tracer.orbit_calls if t is not None)
    out["orbits.determined_frac"] = (_ratio(determined, len(tracer.orbit_calls)), "ratio")
    out["orbits.omega_sample.self_s"] = (agg("orbits.omega_sample").self_s, "s")
    out["orbits.distinct_frac"] = (
        _ratio(tracer.counters.get("orbits.distinct", 0),
               tracer.counters.get("orbits.determined_inits", 0)), "ratio")
    out["orbits.classify_regime.self_s"] = (agg("orbits.classify_regime").self_s, "s")

    lyap = agg("orbits.effective_lyapunov")
    out["orbits.effective_lyapunov.calls"] = (lyap.calls, "count")
    out["orbits.effective_lyapunov.self_s"] = (lyap.self_s, "s")
    out["orbits.effective_lyapunov.step_calls"] = (lyap.step_calls, "count")
    for name in ("lyapunov_map", "sweep", "sample_network"):
        out[f"ensemble.{name}.self_s"] = (agg(f"ensemble.{name}").self_s, "s")

    out["model.simulate.self_s"] = (agg("model.simulate").self_s, "s")
    for name in ("build_transition_graph", "TransitionGraph.counts", "TransitionGraph.iter_edges",
                 "TransitionGraph.successors", "TransitionGraph.edge_kind",
                 "reconstruct_trajectory", "check_legal"):
        out[f"coding.{name}.self_s"] = (agg(f"coding.{name}").self_s, "s")
    out["coding.edges"] = (tracer.counters.get("coding.TransitionGraph.iter_edges.yields", 0), "count")

    for name in ("write_graph_json", "write_trajectory_csv", "write_raster_text", "write_sweep_csv",
                 "write_heatmap_csv", "write_lyap_csv", "read_trajectory_csv", "read_raster_text",
                 "read_graph_json", "fmt_float"):
        out[f"fileio.{name}.self_s"] = (agg(f"fileio.{name}").self_s, "s")
    out["fileio.bytes_written"] = (tracer.counters.get("fileio.bytes_written", 0), "B")
    out["fileio.bytes_read"] = (tracer.counters.get("fileio.bytes_read", 0), "B")

    main = agg("cli.main")
    out["cli.main.calls"] = (main.calls, "count")
    out["cli.main.self_s"] = (main.self_s, "s")

    top = sum(s.end - s.start for s in tracer.spans if s.parent_id == 0)
    out["trace.overhead_frac"] = (overhead_frac, "ratio")
    out["trace.coverage"] = (_ratio(top, traced_wall_s), "ratio")
    return out
