"""Strict, declarative run configuration.

YAML with a fixed schema: every key is checked against the schema and
unknown keys are hard errors, so a typo never silently falls back to a
default.  A canonical digest of the normalized configuration is embedded
in every output file for provenance.
"""

from __future__ import annotations

import hashlib
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
from .shaping import TargetWaveform

__all__ = ["RunConfig"]

K0 = 2.0 * np.pi


def _check_keys(d: dict, allowed: set, path: str) -> None:
    if not isinstance(d, dict):
        raise ConfigError(f"section '{path}' must be a mapping")
    for key in d:
        if key not in allowed:
            raise ConfigError(f"unknown config key '{path}.{key}'"
                              if path else f"unknown config key '{key}'")


def _require(d: dict, key: str, path: str):
    if key not in d:
        raise ConfigError(f"missing required config key '{path}.{key}'")
    return d[key]


def _number(value, path: str, lo=None, hi=None) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigError(f"'{path}' must be a number")
    v = float(value)
    if lo is not None and v < lo:
        raise ConfigError(f"'{path}' must be >= {lo}")
    if hi is not None and v > hi:
        raise ConfigError(f"'{path}' must be <= {hi}")
    return v


def _integer(value, path: str, lo=None) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"'{path}' must be an integer")
    if lo is not None and value < lo:
        raise ConfigError(f"'{path}' must be >= {lo}")
    return value


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
        _check_keys(raw, {"lattice", "k_gf", "drive", "sublevels", "time",
                          "grid", "tolerances", "propagator", "output",
                          "shaping"}, "")
        kw = {"config_dir": config_dir}

        lat = _require(raw, "lattice", "")
        _check_keys(lat, {"nx", "ny", "nz", "d"}, "lattice")
        kw["lattice"] = (_integer(_require(lat, "nx", "lattice"), "lattice.nx", 1),
                         _integer(_require(lat, "ny", "lattice"), "lattice.ny", 1),
                         _integer(_require(lat, "nz", "lattice"), "lattice.nz", 1),
                         _number(_require(lat, "d", "lattice"), "lattice.d", 1e-12))

        if "k_gf" in raw:
            kg = raw["k_gf"]
            _check_keys(kg, {"direction", "magnitude"}, "k_gf")
            if "direction" in kg:
                v = kg["direction"]
                if (not isinstance(v, (list, tuple)) or len(v) != 3):
                    raise ConfigError("'k_gf.direction' must be a 3-vector")
                vec = tuple(_number(x, "k_gf.direction[i]") for x in v)
                if math.sqrt(sum(x * x for x in vec)) == 0.0:
                    raise ConfigError("'k_gf.direction' must be nonzero")
                kw["k_gf_direction"] = vec
            if "magnitude" in kg:
                kw["k_gf_magnitude"] = _number(kg["magnitude"],
                                               "k_gf.magnitude", 0.0)

        if "drive" in raw:
            dr = raw["drive"]
            _check_keys(dr, {"omega_L0", "delta", "target_sublevel",
                             "envelope"}, "drive")
            if "omega_L0" in dr:
                kw["omega_L0"] = _number(dr["omega_L0"], "drive.omega_L0", 0.0)
            if "delta" in dr:
                kw["delta"] = _number(dr["delta"], "drive.delta")
            if "target_sublevel" in dr:
                ts = _integer(dr["target_sublevel"], "drive.target_sublevel")
                if ts not in (-1, 0, 1):
                    raise ConfigError("'drive.target_sublevel' must be "
                                      "-1, 0 or 1")
                kw["target_sublevel"] = ts
            if "envelope" in dr:
                env = dr["envelope"]
                _check_keys(env, {"kind", "value", "t_w", "high", "low",
                                  "path"}, "drive.envelope")
                kind = _require(env, "kind", "drive.envelope")
                if kind not in ("constant", "square", "file"):
                    raise ConfigError("'drive.envelope.kind' must be "
                                      "constant, square or file")
                kw["envelope_spec"] = dict(env)

        if "sublevels" in raw:
            sl = raw["sublevels"]
            if not isinstance(sl, (list, tuple)) or not sl:
                raise ConfigError("'sublevels' must be a nonempty list")
            subs = tuple(sorted({_integer(s, "sublevels[i]") for s in sl}))
            if any(s not in (-1, 0, 1) for s in subs):
                raise ConfigError("'sublevels' entries must be -1, 0 or 1")
            kw["sublevels"] = subs

        if "time" in raw:
            tm = raw["time"]
            _check_keys(tm, {"t_end", "dt_early", "t_early", "dt_mid",
                             "t_mid", "dt_late"}, "time")
            for key, lo in (("t_end", 1e-12), ("dt_early", 1e-9),
                            ("t_early", 0.0), ("dt_mid", 1e-9),
                            ("t_mid", 0.0), ("dt_late", 1e-9)):
                if key in tm:
                    kw[key] = _number(tm[key], f"time.{key}", lo)

        if "grid" in raw:
            gr = raw["grid"]
            _check_keys(gr, {"n_theta", "n_phi"}, "grid")
            if "n_theta" in gr:
                kw["n_theta"] = _integer(gr["n_theta"], "grid.n_theta", 2)
            if "n_phi" in gr:
                kw["n_phi"] = _integer(gr["n_phi"], "grid.n_phi", 2)

        if "tolerances" in raw:
            tl = raw["tolerances"]
            _check_keys(tl, {"ode_rtol", "ode_atol", "eigen_cond_max"},
                        "tolerances")
            for key in ("ode_rtol", "ode_atol", "eigen_cond_max"):
                if key in tl:
                    kw[key] = _number(tl[key], f"tolerances.{key}", 0.0)

        if "propagator" in raw:
            if raw["propagator"] not in ("auto", "eigen", "ode"):
                raise ConfigError("'propagator' must be auto, eigen or ode")
            kw["propagator"] = raw["propagator"]

        if "output" in raw:
            out = raw["output"]
            _check_keys(out, {"directory"}, "output")
            if "directory" in out:
                if not isinstance(out["directory"], str):
                    raise ConfigError("'output.directory' must be a string")
                kw["out_dir"] = out["directory"]

        if "shaping" in raw:
            sh = raw["shaping"]
            _check_keys(sh, {"target", "tau_end", "fraction"}, "shaping")
            if "target" in sh:
                tg = sh["target"]
                _check_keys(tg, {"kind", "center", "centers", "width",
                                 "t_end", "dt", "path"}, "shaping.target")
                if _require(tg, "kind", "shaping.target") not in (
                        "gaussian", "two_gaussians", "file"):
                    raise ConfigError("'shaping.target.kind' must be "
                                      "gaussian, two_gaussians or file")
            if "tau_end" in sh:
                _number(sh["tau_end"], "shaping.tau_end", 1e-12)
            kw["shaping"] = dict(sh)

        return cls(**kw)

    # ---- canonical form -------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "lattice": {"nx": self.lattice[0], "ny": self.lattice[1],
                        "nz": self.lattice[2], "d": self.lattice[3]},
            "k_gf": {"direction": list(self.k_gf_direction),
                     "magnitude": self.k_gf_magnitude},
            "drive": {"omega_L0": self.omega_L0, "delta": self.delta,
                      "target_sublevel": self.target_sublevel,
                      "envelope": self.envelope_spec},
            "sublevels": list(self.sublevels),
            "time": {"t_end": self.t_end, "dt_early": self.dt_early,
                     "t_early": self.t_early, "dt_mid": self.dt_mid,
                     "t_mid": self.t_mid, "dt_late": self.dt_late},
            "grid": {"n_theta": self.n_theta, "n_phi": self.n_phi},
            "tolerances": {"ode_rtol": self.ode_rtol,
                           "ode_atol": self.ode_atol,
                           "eigen_cond_max": self.eigen_cond_max},
            "propagator": self.propagator,
            "output": {"directory": self.out_dir},
            "shaping": self.shaping,
        }

    def digest(self) -> str:
        canon = json.dumps(self.to_dict(), sort_keys=True,
                           separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()[:12]

    # ---- builders -------------------------------------------------------

    def build_array(self) -> AtomArray:
        nx, ny, nz, d = self.lattice
        return build_lattice(nx, ny, nz, d)

    def k_gf_vector(self) -> np.ndarray:
        v = np.asarray(self.k_gf_direction, dtype=float)
        return self.k_gf_magnitude * v / np.linalg.norm(v)

    def _config_path(self, spec: dict, where: str) -> str:
        path = _require(spec, "path", where)
        if not isinstance(path, str) or not path:
            raise ConfigError(f"'{where}.path' must be a nonempty string")
        return path if os.path.isabs(path) else os.path.join(self.config_dir,
                                                             path)

    def build_envelope(self) -> PulseEnvelope:
        spec, where = self.envelope_spec, "drive.envelope"
        kind = spec.get("kind", "constant")
        if kind == "constant":
            return PulseEnvelope.constant(
                _number(spec.get("value", 1.0), f"{where}.value"))
        if kind == "square":
            return PulseEnvelope.square(
                _number(_require(spec, "t_w", where), f"{where}.t_w"),
                high=_number(spec.get("high", 1.0), f"{where}.high"),
                low=_number(spec.get("low", 0.0), f"{where}.low"))
        return PulseEnvelope.from_csv(self._config_path(spec, where))

    def build_target(self, path=None) -> TargetWaveform:
        """Shaping target from 'shaping.target', or from the CSV at path."""
        spec, where = self.shaping.get("target"), "shaping.target"
        if path is not None:
            spec = {"kind": "file", "path": path}
        if not spec:
            raise ConfigError("shape command needs 'shaping.target' in the "
                              "config or a --target file")
        fraction = _number(self.shaping.get("fraction", 0.99),
                           "shaping.fraction", 0.0, 1.0)
        if spec["kind"] == "file":
            return TargetWaveform.from_csv(self._config_path(spec, where),
                                           photon_fraction=fraction)
        width = _number(_require(spec, "width", where), f"{where}.width",
                        1e-12)
        t_end = _number(_require(spec, "t_end", where), f"{where}.t_end",
                        1e-12)
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
