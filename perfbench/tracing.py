"""Spans and counters recorded around the package's public functions.

The wrappers live here, not in the package: ``install`` patches the names
the package actually calls and records a span (name, start, end, parent)
for each call, plus counts read from arguments and results.  All spans of
one worker share the tracer's run id, and stay in memory until the worker
writes them out.

``from .x import y`` binds a name in the importing module, so each target
names the binding that is really called (``arraylight.cli.waveform`` for
``simulate``, the module attribute ``arraylight.farfield.waveform`` for
``shaping.validate``).  A target whose name no longer exists is recorded as
missing, and every metric it feeds is reported as absent.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time


class Tracer:
    """In-memory span and counter store of one traced worker."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []       # dicts: run, id, parent, name, start, end
        self.counts = {}
        self.missing = []     # targets that could not be wrapped
        self.absent = set()   # span or counter names fed by a missing target
        self._stack = []

    def call(self, name, fn, args, kwargs):
        span = {"run": self.run_id, "id": len(self.spans),
                "parent": self._stack[-1] if self._stack else None,
                "name": name, "start": time.perf_counter(), "end": None}
        self.spans.append(span)
        self._stack.append(span["id"])
        try:
            return fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()

    def add(self, name, n):
        self.counts[name] = self.counts.get(name, 0) + n

    def maximum(self, name, n):
        self.counts[name] = max(self.counts.get(name, n), n)

    def dump(self) -> dict:
        return {"run_id": self.run_id, "spans": self.spans,
                "counts": self.counts, "missing": self.missing,
                "absent": sorted(self.absent)}


# ---- counters read at the span boundaries ----------------------------------

def _count_dim(tracer, args, kwargs, result):
    tracer.maximum("hamiltonian.dim", int(result.dim))


def _count_segments(tracer, args, kwargs, result):
    tracer.add("dynamics.eigen_segments", len(result._segments))


def _count_ode(tracer, args, kwargs, result):
    tracer.add("dynamics.ode_solver_calls", 1)
    tracer.add("dynamics.ode_nfev", int(result.nfev))


def _count_samples(tracer, args, kwargs, result):
    tracer.add("farfield.waveform_samples", len(result.u_grid))


def _count_bytes(tracer, args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    tracer.add("cli.write_bytes", os.path.getsize(path))


_WRITE_COUNTERS = ("cli.write_bytes",)

# (owner, attribute, span name, counter hook, counter names the hook feeds).
# An owner "module:Class" names a class whose method is wrapped.
TARGETS = (
    ("arraylight.cli", "main", "cli.main", None, ()),
    ("arraylight.config:RunConfig", "from_yaml", "config.load", None, ()),
    ("arraylight.cli", "assemble", "hamiltonian.assemble", _count_dim,
     ("hamiltonian.dim",)),
    ("arraylight.shaping", "assemble", "hamiltonian.assemble", _count_dim,
     ("hamiltonian.dim",)),
    ("arraylight._kernels", "pair_blocks", "hamiltonian.pair_blocks", None,
     ()),
    ("arraylight.cli", "eigenmodes", "hamiltonian.eigenmodes", None, ()),
    ("arraylight.cli", "propagate_eigen", "dynamics.propagate_eigen",
     _count_segments, ("dynamics.eigen_segments",)),
    ("arraylight.cli", "propagate_ode", "dynamics.propagate_ode", None, ()),
    ("arraylight.shaping", "propagate_ode", "dynamics.propagate_ode", None,
     ()),
    ("arraylight.dynamics", "solve_ivp", "dynamics.solve_ivp", _count_ode,
     ("dynamics.ode_solver_calls", "dynamics.ode_nfev")),
    ("arraylight.cli", "waveform", "farfield.waveform", _count_samples,
     ("farfield.waveform_samples",)),
    ("arraylight.farfield", "waveform", "farfield.waveform", _count_samples,
     ("farfield.waveform_samples",)),
    ("arraylight.cli", "angular_map", "farfield.angular_map", None, ()),
    ("arraylight.cli", "adiabatic_simulate", "shaping.adiabatic_simulate",
     None, ()),
    ("arraylight.cli", "design_envelope", "shaping.design_envelope", None,
     ()),
    ("arraylight.cli", "validate_shaping", "shaping.validate", None, ()),
    ("arraylight.dynamics:Trajectory", "to_csv", "cli.write", _count_bytes,
     _WRITE_COUNTERS),
    ("arraylight.farfield:Waveform", "to_csv", "cli.write", _count_bytes,
     _WRITE_COUNTERS),
    ("arraylight.farfield:AngularMap", "to_csv", "cli.write", _count_bytes,
     _WRITE_COUNTERS),
    ("arraylight.hamiltonian:ModeSpectrum", "to_csv", "cli.write",
     _count_bytes, _WRITE_COUNTERS),
    ("arraylight.envelope:PulseEnvelope", "to_csv", "cli.write",
     _count_bytes, _WRITE_COUNTERS),
)


def _wrap(tracer, fn, name, hook, counters):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = tracer.call(name, fn, args, kwargs)
        if hook is not None:
            try:
                hook(tracer, args, kwargs, result)
            except (AttributeError, KeyError, TypeError):
                # the counted attribute moved: report it absent, not wrong
                tracer.absent.update(counters)
        return result
    return wrapper


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    try:
        obj = importlib.import_module(module_name)
    except ImportError:
        return None
    for part in filter(None, class_name.split(".")):
        obj = getattr(obj, part, None)
    return obj


def install(tracer: Tracer, targets=TARGETS) -> None:
    """Patch every target in place; record the ones that do not exist."""
    for owner, attr, name, hook, counters in targets:
        obj = _resolve(owner)
        try:
            raw = inspect.getattr_static(obj, attr)
        except AttributeError:
            tracer.missing.append(f"{owner}.{attr}")
            tracer.absent.add(name)
            tracer.absent.update(counters)
            continue
        if isinstance(raw, (classmethod, staticmethod)):
            new = type(raw)(_wrap(tracer, raw.__func__, name, hook, counters))
        else:
            new = _wrap(tracer, raw, name, hook, counters)
        setattr(obj, attr, new)


# ---- per-layer metrics from one worker's trace ------------------------------

# metric -> (how it is derived, span or counter name)
LAYER_METRICS = {
    "config.load_s": ("time", "config.load"),
    "hamiltonian.assemble_s": ("time", "hamiltonian.assemble"),
    "hamiltonian.pair_blocks_s": ("time", "hamiltonian.pair_blocks"),
    "hamiltonian.dim": ("count", "hamiltonian.dim"),
    "hamiltonian.eigenmodes_s": ("time", "hamiltonian.eigenmodes"),
    "dynamics.propagate_eigen_s": ("time", "dynamics.propagate_eigen"),
    "dynamics.eigen_segments": ("count", "dynamics.eigen_segments"),
    "dynamics.propagate_ode_s": ("time", "dynamics.propagate_ode"),
    "dynamics.ode_solver_calls": ("count", "dynamics.ode_solver_calls"),
    "dynamics.ode_nfev": ("count", "dynamics.ode_nfev"),
    "farfield.waveform_s": ("time", "farfield.waveform"),
    "farfield.waveform_samples": ("count", "farfield.waveform_samples"),
    "farfield.angular_map_s": ("time", "farfield.angular_map"),
    "shaping.adiabatic_simulate_s": ("time", "shaping.adiabatic_simulate"),
    "shaping.design_envelope_s": ("time", "shaping.design_envelope"),
    "shaping.validate_self_s": ("self", "shaping.validate"),
    "cli.write_s": ("time", "cli.write"),
    "cli.write_bytes": ("count", "cli.write_bytes"),
}


def layer_metrics(trace: dict) -> dict:
    """Per-layer values of one traced worker, from its dumped trace.

    Times are inclusive, summed over the outermost spans of a name; a
    ``self`` time subtracts the direct children.  A layer that did not run
    reads 0; a metric fed by a missing target is left out.
    """
    spans = trace["spans"]
    by_id = {s["id"]: s for s in spans}

    def outermost(span):
        parent = span["parent"]
        while parent is not None:
            if by_id[parent]["name"] == span["name"]:
                return False
            parent = by_id[parent]["parent"]
        return True

    child_time = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = (child_time.get(s["parent"], 0.0)
                                       + s["end"] - s["start"])
    out = {}
    for metric, (kind, name) in LAYER_METRICS.items():
        if name in trace["absent"]:
            continue
        if kind == "count":
            out[metric] = trace["counts"].get(name, 0)
            continue
        total = 0.0
        for s in spans:
            if s["name"] == name and outermost(s):
                total += s["end"] - s["start"]
                if kind == "self":
                    total -= child_time.get(s["id"], 0.0)
        out[metric] = total
    return out
