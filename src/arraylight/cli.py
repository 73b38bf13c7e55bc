"""Command line front end.

Subcommands
-----------
simulate   propagate the driven array and write trajectory + waveform CSVs
angular    helicity-resolved emission map at a fixed retarded time
modes      eigenmode spectrum of the excited-state block
shape      design a drive envelope for a target waveform and validate it
validate   parse and check a config file without running anything
oracle     closed-form reference values for spot checks

All output CSVs begin with comment lines carrying the package version and
a digest of the configuration, so results can be traced back to their
inputs.  Exit codes: 0 ok, 2 bad config or arguments, 3 numerical failure,
4 infeasible shaping target.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time as _time

import numpy as np

from . import __version__
from .config import RunConfig
from .core import timed_dicke_state
from .dynamics import propagate_eigen, propagate_ode
from .errors import ArrayLightError, EigenConditionError, InvalidArgumentError
from .farfield import angular_map, waveform
from .hamiltonian import assemble, eigenmodes
from .oracles import two_atom_rates
from .shaping import (AdiabaticModel, adiabatic_simulate, design_envelope,
                      validate as validate_shaping)

__all__ = ["main"]


def _header_lines(cfg: RunConfig) -> list:
    return [f"arraylight v{__version__}", f"config_digest {cfg.digest()}"]


def _write_summary(out_dir: str, cfg: RunConfig, payload: dict) -> str:
    payload = {"version": __version__, "config_digest": cfg.digest(),
               **payload}
    path = os.path.join(out_dir, "summary.json")
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _prepare(cfg: RunConfig, out_dir: str):
    os.makedirs(out_dir, exist_ok=True)
    array = cfg.build_array()
    drive = cfg.build_drive()
    ham = assemble(array, drive, include_sublevels=cfg.sublevels)
    psi0 = timed_dicke_state(array, cfg.k_gf_vector())
    return array, drive, ham, psi0


def _propagate(cfg: RunConfig, ham, psi0, times):
    """Pick the propagator: diagonalization when the envelope allows it;
    auto falls back to the ODE on an ill-conditioned eigenbasis."""
    choice = cfg.propagator
    if choice == "auto":
        segments = ham.drive.envelope.constant_segments(times[-1])
        choice = "ode" if segments is None else "eigen"
    if choice == "eigen":
        try:
            return propagate_eigen(ham, psi0, times,
                                   cond_limit=cfg.eigen_cond_max), "eigen"
        except EigenConditionError:
            if cfg.propagator == "eigen":
                raise
    return propagate_ode(ham, psi0, t_end=times[-1], tol=cfg.ode_rtol,
                         atol=cfg.ode_atol, times=times), "ode"


def cmd_simulate(cfg: RunConfig, out_dir: str) -> int:
    t0 = _time.perf_counter()
    array, drive, ham, psi0 = _prepare(cfg, out_dir)
    times = cfg.time_grid()
    traj, method = _propagate(cfg, ham, psi0, times)
    t1 = _time.perf_counter()

    wave = waveform(traj, allow_truncation=True)
    t2 = _time.perf_counter()

    flux = wave.flux_total
    u_peak = float(wave.u_grid[int(np.argmax(flux))])
    amap = angular_map(traj, u_peak, grid=cfg.build_grid())
    k = int(np.argmax(amap.total))
    spectrum = eigenmodes(ham)

    header = _header_lines(cfg)
    traj.to_csv(os.path.join(out_dir, "trajectory.csv"), header_lines=header)
    wave.to_csv(os.path.join(out_dir, "waveform.csv"), header_lines=header)
    amap.to_csv(os.path.join(out_dir, "angular_map.csv"),
                header_lines=header + [f"u {u_peak!r}"])
    t3 = _time.perf_counter()

    _write_summary(out_dir, cfg, {
        "n_atoms": array.n_atoms,
        "propagator": method,
        "n_infinity": float(wave.cumulative[-1]),
        "n_stateside_end": float(wave.state_side[-1]),
        "u_peak_flux": u_peak,
        "peak_direction": {"theta": float(amap.theta[k]),
                           "phi": float(amap.phi[k])},
        "max_rate": float(np.max(spectrum.rates)),
        "min_rate": float(np.min(spectrum.rates)),
        "timings_s": {"propagate": t1 - t0, "waveform": t2 - t1,
                      "write": t3 - t2},
    })
    return 0


def cmd_angular(cfg: RunConfig, out_dir: str, u: float) -> int:
    array, drive, ham, psi0 = _prepare(cfg, out_dir)
    if u < 0.0 or u > cfg.t_end:
        raise InvalidArgumentError(
            f"u = {u!r} outside simulated range [0, {cfg.t_end!r}]")
    times = cfg.time_grid()
    traj, method = _propagate(cfg, ham, psi0, times)
    amap = angular_map(traj, u, grid=cfg.build_grid())
    amap.to_csv(os.path.join(out_dir, "angular_map.csv"),
                header_lines=_header_lines(cfg) + [f"u {u!r}"])
    k = int(np.argmax(amap.total))
    _write_summary(out_dir, cfg, {
        "u": u, "propagator": method,
        "peak_direction": {"theta": float(amap.theta[k]),
                           "phi": float(amap.phi[k])},
        "peak_intensity": float(amap.total[k]),
        "integrated_flux": float(np.dot(amap.weights, amap.total)),
    })
    return 0


def cmd_modes(cfg: RunConfig, out_dir: str) -> int:
    os.makedirs(out_dir, exist_ok=True)
    array = cfg.build_array()
    ham = assemble(array, cfg.build_drive(),
                   include_sublevels=cfg.sublevels)
    spectrum = eigenmodes(ham)
    spectrum.to_csv(os.path.join(out_dir, "modes.csv"),
                    header_lines=_header_lines(cfg))
    _write_summary(out_dir, cfg, {
        "n_modes": int(spectrum.eigenvalues.size),
        "max_rate": float(np.max(spectrum.rates)),
        "min_rate": float(np.min(spectrum.rates)),
        "n_subradiant": int(np.count_nonzero(spectrum.subradiant)),
        "condition_estimate": float(spectrum.condition_estimate),
    })
    return 0


def cmd_shape(cfg: RunConfig, out_dir: str, target_path=None) -> int:
    os.makedirs(out_dir, exist_ok=True)
    array = cfg.build_array()
    target = cfg.build_target(target_path)
    model = AdiabaticModel(array, cfg.omega_L0, cfg.delta,
                           target_sublevel=cfg.target_sublevel)
    a0 = timed_dicke_state(array, cfg.k_gf_vector()).a
    tau_end = float(cfg.shaping.get("tau_end", 2000.0))
    reference = adiabatic_simulate(model, a0, tau_end)
    envelope = design_envelope(reference, target)

    header = _header_lines(cfg)
    envelope.to_csv(os.path.join(out_dir, "envelope.csv"),
                    t_grid=target.u_grid, header_lines=header)
    report = validate_shaping(envelope, target, reference,
                              include_sublevels=cfg.sublevels,
                              tol=cfg.ode_rtol)
    _write_summary(out_dir, cfg, {"shaping": report.summary()})
    return 0


def cmd_validate(cfg: RunConfig) -> int:
    cfg.build_envelope()
    if "target" in cfg.shaping:
        cfg.build_target()
    print(f"config ok: digest {cfg.digest()}, "
          f"{cfg.lattice[0]}x{cfg.lattice[1]}x{cfg.lattice[2]} lattice, "
          f"d = {cfg.lattice[3]!r}")
    return 0


def _parse_vector(text: str) -> np.ndarray:
    try:
        parts = [float(p) for p in text.split(",")]
    except ValueError:
        raise InvalidArgumentError(f"not a comma-separated vector: {text!r}")
    if len(parts) != 3:
        raise InvalidArgumentError("orientation needs three components")
    return np.asarray(parts)


def cmd_oracle(args) -> int:
    if args.which == "two-atom-rates":
        rates = two_atom_rates(args.separation,
                               orientation=_parse_vector(args.orientation),
                               sublevel=args.sublevel)
        print(json.dumps({"separation": args.separation,
                          "rate_symmetric": rates[0],
                          "rate_antisymmetric": rates[1],
                          "sum": rates[0] + rates[1]}, indent=2))
        return 0
    # directed-peak: structure-factor peak ratio of a noninteracting array
    n = args.nx * args.ny * args.nz
    print(json.dumps({"n_atoms": n, "peak_to_single_ratio": float(n * n),
                      "note": "forward peak of the timed state scales as "
                              "N^2 times one atom"}, indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arraylight",
        description="collective single-photon emission from atom arrays")
    parser.add_argument("--version", action="version",
                        version=f"arraylight {__version__}")
    sub = parser.add_subparsers(dest="command")

    def add_common(p, config_required=True):
        p.add_argument("--config", required=config_required,
                       help="YAML run configuration")
        p.add_argument("--out", default=None,
                       help="output directory (overrides config)")
        p.add_argument("--tol", type=float, default=None,
                       help="override ODE relative tolerance")

    add_common(sub.add_parser("simulate", help="propagate and record "
                              "trajectory, waveform and peak map"))
    p_ang = sub.add_parser("angular", help="emission map at a retarded time")
    add_common(p_ang)
    p_ang.add_argument("--u", type=float, required=True,
                       help="retarded time for the map")
    add_common(sub.add_parser("modes", help="eigenmode spectrum"))
    p_shape = sub.add_parser("shape", help="design an envelope for a "
                             "target waveform")
    add_common(p_shape)
    p_shape.add_argument("--target", default=None,
                         help="CSV target waveform (overrides config)")
    add_common(sub.add_parser("validate", help="check a config file"))

    p_orc = sub.add_parser("oracle", help="closed-form reference values")
    orc_sub = p_orc.add_subparsers(dest="which")
    p_two = orc_sub.add_parser("two-atom-rates")
    p_two.add_argument("--separation", type=float, required=True)
    p_two.add_argument("--orientation", default="0,0,1")
    p_two.add_argument("--sublevel", type=int, default=1,
                       choices=(-1, 0, 1))
    p_peak = orc_sub.add_parser("directed-peak")
    p_peak.add_argument("--nx", type=int, required=True)
    p_peak.add_argument("--ny", type=int, required=True)
    p_peak.add_argument("--nz", type=int, required=True)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 0
    if args.command == "oracle":
        if args.which is None:
            parser.parse_args(["oracle", "--help"])
            return 0
        try:
            return cmd_oracle(args)
        except ArrayLightError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return exc.exit_code

    try:
        cfg = RunConfig.from_yaml(args.config)
        if args.tol is not None:
            cfg.ode_rtol = args.tol
        out_dir = args.out if args.out is not None else cfg.out_dir
        if args.command == "simulate":
            return cmd_simulate(cfg, out_dir)
        if args.command == "angular":
            return cmd_angular(cfg, out_dir, args.u)
        if args.command == "modes":
            return cmd_modes(cfg, out_dir)
        if args.command == "shape":
            return cmd_shape(cfg, out_dir, args.target)
        return cmd_validate(cfg)
    except ArrayLightError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
