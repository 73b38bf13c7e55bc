"""Strict, declarative run configuration.

YAML with a fixed schema: every key is checked against the schema and
unknown keys are hard errors, so a typo never silently falls back to a
default.  drive.envelope and shaping.target take their kind's keys alone,
and a key of another kind is unknown: constant: value; square: t_w, high,
low; gaussian: center, width, t_end, dt; two_gaussians: centers, width,
t_end, dt; file: path.  A canonical digest of the normalized configuration
is embedded in every output file for provenance.
"""

from __future__ import annotations

import importlib
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np
import yaml

from .core import AtomArray, LaserDrive, build_lattice
from .dynamics import piecewise_grid
from .envelope import PulseEnvelope
from .errors import ConfigError
from .farfield import AngularGrid
from .greens import K0
from .shaping import TargetWaveform


def _builtin_sha256():
    """SHA-256 from CPython's own module, _sha256 up to 3.11 and _sha2 from
    3.12 (named at run time, as each exists on one side of 3.12 only), so
    that no run maps OpenSSL's libcrypto as importing hashlib does; hashlib
    only on a build without either."""
    for name in ("_sha2", "_sha256"):
        try:
            return importlib.import_module(name).sha256
        except ImportError:
            pass
    from hashlib import sha256
    return sha256


_sha256 = _builtin_sha256()

__all__ = ["RunConfig"]


def _check_keys(d: dict, allowed: set, path: str) -> None:
    if not isinstance(d, dict):
        raise ConfigError(f"section '{path}' must be a mapping")
    for key in d:
        if key not in allowed:
            raise ConfigError(f"unknown config key '{path}.{key}'"
                              if path else f"unknown config key '{key}'")


def _require(d: dict, key: str, path: str):
    if key not in d:
        raise ConfigError(f"missing required config key '{path}.{key}'"
                          if path else f"missing required config key '{key}'")
    return d[key]


def _number(value, path: str, lo=None, hi=None) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigError(f"'{path}' must be a number")
    try:
        v = float(value)
    except OverflowError:  # an integer beyond the float range
        v = math.inf
    # NaN passes every bound check (nan < lo is False), inf the lower one
    if not math.isfinite(v):
        raise ConfigError(f"'{path}' must be a finite number")
    if lo is not None and v < lo:
        raise ConfigError(f"'{path}' must be >= {lo}")
    if hi is not None and v > hi:
        raise ConfigError(f"'{path}' must be <= {hi}")
    return v


def _rtol(value, path: str) -> float:
    """A relative tolerance: a finite number > 0."""
    v = _number(value, path, 0.0)
    if v == 0.0:
        raise ConfigError(f"'{path}' must be > 0")
    return v


def _integer(value, path: str, lo=None) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"'{path}' must be an integer")
    if lo is not None and value < lo:
        raise ConfigError(f"'{path}' must be >= {lo}")
    return value


def _vector(value, path: str) -> tuple:
    if not isinstance(value, (list, tuple)) or len(value) != 3:
        raise ConfigError(f"'{path}' must be a 3-vector")
    vec = tuple(_number(x, f"{path}[i]") for x in value)
    if math.sqrt(sum(x * x for x in vec)) == 0.0:
        raise ConfigError(f"'{path}' must be nonzero")
    return vec


def _sublevel(value, path: str) -> int:
    if _integer(value, path) not in (-1, 0, 1):
        raise ConfigError(f"'{path}' must be -1, 0 or 1")
    return value


def _string(value, path: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"'{path}' must be a string")
    return value


def _kind_spec(spec, path: str, kinds: dict) -> dict:
    """A copy of spec: a mapping of a kind in kinds and that kind's keys."""
    if not isinstance(spec, dict):
        raise ConfigError(f"section '{path}' must be a mapping")
    names = tuple(kinds)
    if _require(spec, "kind", path) not in names:
        raise ConfigError(f"'{path}.kind' must be {', '.join(names[:-1])} "
                          f"or {names[-1]}")
    _check_keys(spec, {"kind", *kinds[spec["kind"]]}, path)
    return dict(spec)


# each kind's keys besides 'kind'
_ENVELOPE_KINDS = {"constant": ("value",), "square": ("t_w", "high", "low"),
                   "file": ("path",)}
_TARGET_KINDS = {"gaussian": ("center", "width", "t_end", "dt"),
                 "two_gaussians": ("centers", "width", "t_end", "dt"),
                 "file": ("path",)}

# each plain section's keys: key -> (RunConfig field, check, check's bounds)
_SECTIONS = {
    "k_gf": {"direction": ("k_gf_direction", _vector),
             "magnitude": ("k_gf_magnitude", _number, 0.0)},
    "drive": {"omega_L0": ("omega_L0", _number, 0.0),
              "delta": ("delta", _number),
              "target_sublevel": ("target_sublevel", _sublevel),
              "envelope": ("envelope_spec", _kind_spec, _ENVELOPE_KINDS)},
    "time": {"t_end": ("t_end", _number, 1e-12),
             "dt_early": ("dt_early", _number, 1e-9),
             "t_early": ("t_early", _number, 0.0),
             "dt_mid": ("dt_mid", _number, 1e-9),
             "t_mid": ("t_mid", _number, 0.0),
             "dt_late": ("dt_late", _number, 1e-9)},
    "grid": {"n_theta": ("n_theta", _integer, 2),
             "n_phi": ("n_phi", _integer, 2)},
    "tolerances": {"ode_rtol": ("ode_rtol", _rtol),
                   "ode_atol": ("ode_atol", _number, 0.0),
                   "eigen_cond_max": ("eigen_cond_max", _number, 0.0)},
    "output": {"directory": ("out_dir", _string)},
}


@dataclass
class RunConfig:
    """Parsed and validated configuration for one run."""

    lattice: tuple          # (nx, ny, nz, d)
    k_gf_direction: tuple = (0.0, 0.0, 1.0)
    k_gf_magnitude: float = K0
    omega_L0: float = 0.0
    delta: float = 0.0
    target_sublevel: int = 1
    envelope_spec: dict = field(default_factory=lambda: {"kind": "constant",
                                                         "value": 1.0})
    sublevels: tuple = (-1, 0, 1)
    t_end: float = 30.0
    dt_early: float = 0.005
    t_early: float = 30.0
    dt_mid: float = 0.1
    t_mid: float = 200.0
    dt_late: float = 1.0
    n_theta: int = 64
    n_phi: int = 128
    ode_rtol: float = 1e-8
    ode_atol: float = 1e-12
    eigen_cond_max: float = 1e8
    propagator: str = "auto"
    out_dir: str = "."
    shaping: dict = field(default_factory=dict)
    config_dir: str = "."

    # ---- construction --------------------------------------------------

    @classmethod
    def from_yaml(cls, path) -> "RunConfig":
        try:
            with open(path) as fh:
                raw = yaml.safe_load(fh)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}")
        except yaml.YAMLError as exc:
            raise ConfigError(f"config file is not valid YAML: {exc}")
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a mapping")
        return cls.from_dict(raw, config_dir=os.path.dirname(
            os.path.abspath(path)))

    @classmethod
    def from_dict(cls, raw: dict, config_dir: str = ".") -> "RunConfig":
        _check_keys(raw, {"lattice", "sublevels", "propagator", "shaping",
                          *_SECTIONS}, "")
        kw = {"config_dir": config_dir}

        lat = _require(raw, "lattice", "")
        _check_keys(lat, {"nx", "ny", "nz", "d"}, "lattice")
        kw["lattice"] = tuple(
            check(_require(lat, key, "lattice"), f"lattice.{key}", lo)
            for key, check, lo in (("nx", _integer, 1), ("ny", _integer, 1),
                                   ("nz", _integer, 1), ("d", _number, 1e-12)))

        for name, table in _SECTIONS.items():
            section = raw.get(name, {})
            _check_keys(section, table, name)
            for key, (attr, check, *bounds) in table.items():
                if key in section:
                    kw[attr] = check(section[key], f"{name}.{key}", *bounds)

        if "sublevels" in raw:
            sl = raw["sublevels"]
            if not isinstance(sl, (list, tuple)) or not sl:
                raise ConfigError("'sublevels' must be a nonempty list")
            subs = tuple(sorted({_integer(s, "sublevels[i]") for s in sl}))
            if any(s not in (-1, 0, 1) for s in subs):
                raise ConfigError("'sublevels' entries must be -1, 0 or 1")
            kw["sublevels"] = subs

        if "propagator" in raw:
            if raw["propagator"] not in ("auto", "eigen", "ode"):
                raise ConfigError("'propagator' must be auto, eigen or ode")
            kw["propagator"] = raw["propagator"]

        if "shaping" in raw:
            sh = raw["shaping"]
            _check_keys(sh, {"target", "tau_end", "fraction"}, "shaping")
            if "target" in sh:
                _kind_spec(sh["target"], "shaping.target", _TARGET_KINDS)
            for key, *bounds in (("tau_end", 1e-12), ("fraction", 0.0, 1.0)):
                if key in sh:
                    _number(sh[key], f"shaping.{key}", *bounds)
            kw["shaping"] = dict(sh)

        return cls(**kw)

    # ---- canonical form -------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "lattice": dict(zip(("nx", "ny", "nz", "d"), self.lattice)),
            **{name: {key: getattr(self, attr)
                      for key, (attr, *_) in table.items()}
               for name, table in _SECTIONS.items()},
            "sublevels": list(self.sublevels),
            "propagator": self.propagator,
            "shaping": self.shaping,
        }

    def digest(self) -> str:
        """The first 12 hex digits of the SHA-256 of the canonical form:
        to_dict as compact JSON with sorted keys, UTF-8 encoded."""
        canon = json.dumps(self.to_dict(), sort_keys=True,
                           separators=(",", ":"))
        return _sha256(canon.encode()).hexdigest()[:12]

    # ---- builders -------------------------------------------------------

    def build_array(self) -> AtomArray:
        return build_lattice(*self.lattice)

    def k_gf_vector(self) -> np.ndarray:
        v = np.asarray(self.k_gf_direction, dtype=float)
        return self.k_gf_magnitude * v / np.linalg.norm(v)

    def _config_path(self, spec: dict, where: str) -> str:
        path = _require(spec, "path", where)
        if not isinstance(path, str) or not path:
            raise ConfigError(f"'{where}.path' must be a nonempty string")
        return os.path.join(self.config_dir, path)  # keeps an absolute path

    def build_envelope(self) -> PulseEnvelope:
        spec, where = self.envelope_spec, "drive.envelope"
        if spec["kind"] == "constant":
            return PulseEnvelope.constant(
                _number(spec.get("value", 1.0), f"{where}.value"))
        if spec["kind"] == "square":
            return PulseEnvelope.square(
                _number(_require(spec, "t_w", where), f"{where}.t_w"),
                high=_number(spec.get("high", 1.0), f"{where}.high"),
                low=_number(spec.get("low", 0.0), f"{where}.low"))
        return PulseEnvelope.from_csv(self._config_path(spec, where))

    def build_target(self, path=None) -> TargetWaveform:
        """Shaping target from 'shaping.target', or from the CSV at path,
        taken as given (a relative path is read from the working
        directory); only 'shaping.target.path' is resolved against the
        config's directory."""
        spec, where = self.shaping.get("target"), "shaping.target"
        if path is None and not spec:
            raise ConfigError("shape command needs 'shaping.target' in the "
                              "config or a --target file")
        fraction = float(self.shaping.get("fraction", 0.99))
        if path is None and spec["kind"] == "file":
            path = self._config_path(spec, where)
        if path is not None:
            return TargetWaveform.from_csv(path, photon_fraction=fraction)
        width, t_end = (_number(_require(spec, key, where), f"{where}.{key}",
                                1e-12) for key in ("width", "t_end"))
        dt = _number(spec.get("dt", 0.05), f"{where}.dt", 1e-9)
        if spec["kind"] == "gaussian":
            center = _number(_require(spec, "center", where),
                             f"{where}.center")
            return TargetWaveform.gaussian(center, width, t_end, dt, fraction)
        centers = _require(spec, "centers", where)
        if not isinstance(centers, (list, tuple)):
            raise ConfigError(f"'{where}.centers' must be a list")
        return TargetWaveform.two_gaussians(
            tuple(_number(c, f"{where}.centers[i]") for c in centers),
            width, t_end, dt, fraction)

    def build_drive(self) -> LaserDrive:
        return LaserDrive(self.omega_L0, self.delta, self.build_envelope(),
                          self.target_sublevel)

    def build_grid(self) -> AngularGrid:
        return AngularGrid(self.n_theta, self.n_phi)

    def time_grid(self) -> np.ndarray:
        """Piecewise-uniform grid, dense early where transients live."""
        return piecewise_grid(self.t_end, ((0.0, self.dt_early),
                                           (self.t_early, self.dt_mid),
                                           (self.t_mid, self.dt_late)))
