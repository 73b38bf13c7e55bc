"""Configuration parsing, digests, and the command line front end."""

import ast
import importlib
import json
import os
import pkgutil
import subprocess
import sys

import numpy as np
import pytest
import yaml
from _references import right_vectors, states

import arraylight
from arraylight import __version__, dynamics
from arraylight.cli import main
from arraylight.config import RunConfig
from arraylight.core import build_lattice, timed_dicke_state
from arraylight.dynamics import Trajectory, propagate_eigen, propagate_ode
from arraylight.envelope import write_columns
from arraylight.errors import ConfigError
from arraylight.hamiltonian import (EffectiveHamiltonian, OrbitBasis,
                                    assemble, eigenmodes)
from arraylight.oracles import two_atom_rates
from arraylight.shaping import (AdiabaticModel, TargetWaveform,
                                adiabatic_simulate)


def _minimal():
    return {"lattice": {"nx": 2, "ny": 2, "nz": 1, "d": 0.6}}


def _write_yaml(path, data):
    with open(path, "w") as fh:
        yaml.safe_dump(data, fh)
    return str(path)


def _fast_run_cfg():
    return {
        "lattice": {"nx": 1, "ny": 1, "nz": 2, "d": 0.4},
        "drive": {"omega_L0": 2.0, "delta": 10.0,
                  "envelope": {"kind": "constant", "value": 1.0}},
        "time": {"t_end": 8.0, "dt_early": 0.05, "t_early": 8.0},
        "grid": {"n_theta": 16, "n_phi": 32},
    }


# ---- schema validation --------------------------------------------------

def test_minimal_config_defaults():
    cfg = RunConfig.from_dict(_minimal())
    assert cfg.lattice == (2, 2, 1, 0.6)
    assert cfg.k_gf_direction == (0.0, 0.0, 1.0)
    assert cfg.k_gf_magnitude == pytest.approx(2.0 * np.pi)
    assert cfg.sublevels == (-1, 0, 1)
    assert cfg.propagator == "auto"
    assert cfg.t_end == 30.0


def test_unknown_top_level_key_rejected():
    raw = _minimal()
    raw["latice"] = raw["lattice"]
    with pytest.raises(ConfigError, match="unknown config key 'latice'"):
        RunConfig.from_dict(raw)


def test_unknown_nested_key_rejected():
    raw = _minimal()
    raw["drive"] = {"deltaa": 5.0}
    with pytest.raises(ConfigError, match="unknown config key 'drive.deltaa'"):
        RunConfig.from_dict(raw)


def test_unknown_doubly_nested_key_rejected():
    raw = _minimal()
    raw["drive"] = {"envelope": {"kind": "constant", "vlaue": 1.0}}
    with pytest.raises(ConfigError,
                       match="unknown config key 'drive.envelope.vlaue'"):
        RunConfig.from_dict(raw)


def test_missing_required_keys():
    with pytest.raises(ConfigError, match="missing required config key "
                       "'.lattice'"):
        RunConfig.from_dict({})
    with pytest.raises(ConfigError, match="'lattice.d'"):
        RunConfig.from_dict({"lattice": {"nx": 2, "ny": 2, "nz": 1}})


def test_type_checks():
    raw = _minimal()
    raw["lattice"]["nx"] = 2.5
    with pytest.raises(ConfigError, match="'lattice.nx' must be an integer"):
        RunConfig.from_dict(raw)
    raw = _minimal()
    raw["lattice"]["d"] = True
    with pytest.raises(ConfigError, match="'lattice.d' must be a number"):
        RunConfig.from_dict(raw)
    raw = _minimal()
    raw["drive"] = {"target_sublevel": 2}
    with pytest.raises(ConfigError, match="target_sublevel"):
        RunConfig.from_dict(raw)
    raw = _minimal()
    raw["propagator"] = "magic"
    with pytest.raises(ConfigError, match="'propagator' must be"):
        RunConfig.from_dict(raw)


def test_sublevels_sorted_and_deduplicated():
    raw = _minimal()
    raw["sublevels"] = [1, -1, 1]
    cfg = RunConfig.from_dict(raw)
    assert cfg.sublevels == (-1, 1)
    raw["sublevels"] = [0, 2]
    with pytest.raises(ConfigError, match="sublevels"):
        RunConfig.from_dict(raw)


def test_k_gf_vector_normalizes_direction():
    raw = _minimal()
    raw["k_gf"] = {"direction": [0.0, 0.0, 2.0]}
    cfg = RunConfig.from_dict(raw)
    np.testing.assert_allclose(cfg.k_gf_vector(),
                               [0.0, 0.0, 2.0 * np.pi], atol=1e-15)
    raw["k_gf"] = {"direction": [0.0, 0.0, 0.0]}
    with pytest.raises(ConfigError, match="nonzero"):
        RunConfig.from_dict(raw)


# ---- digests -------------------------------------------------------------

def test_digest_stable_and_sensitive():
    cfg_a = RunConfig.from_dict(_minimal())
    cfg_b = RunConfig.from_dict(_minimal())
    assert cfg_a.digest() == cfg_b.digest()
    assert len(cfg_a.digest()) == 12
    assert all(c in "0123456789abcdef" for c in cfg_a.digest())

    raw = _minimal()
    raw["lattice"]["d"] = 0.7
    assert RunConfig.from_dict(raw).digest() != cfg_a.digest()


def test_digest_ignores_config_dir():
    cfg_a = RunConfig.from_dict(_minimal(), config_dir="/a")
    cfg_b = RunConfig.from_dict(_minimal(), config_dir="/b")
    assert cfg_a.digest() == cfg_b.digest()


def test_tolerances_and_output_sections(tmp_path):
    # each value lands in its field and changes the digest; output.directory
    # is where a run without --out writes
    raw = _fast_run_cfg()
    base = RunConfig.from_dict(raw).digest()
    edits = {"tolerances": {"ode_rtol": 1e-6, "ode_atol": 1e-10,
                            "eigen_cond_max": 1e6},
             "output": {"directory": str(tmp_path / "res")}}
    for section, values in edits.items():
        for key, value in values.items():
            one = {**_fast_run_cfg(), section: {key: value}}
            assert RunConfig.from_dict(one).digest() != base
    cfg = RunConfig.from_dict({**raw, **edits})
    assert (cfg.ode_rtol, cfg.ode_atol, cfg.eigen_cond_max) == (1e-6, 1e-10,
                                                                1e6)
    assert cfg.out_dir == str(tmp_path / "res")
    path = _write_yaml(tmp_path / "run.yaml", {**raw, **edits})
    assert main(["modes", "--config", path]) == 0
    assert (tmp_path / "res" / "modes.csv").is_file()


@pytest.mark.parametrize("section, edit, needle", [
    ("tolerances", {"ode_atol": -1.0}, "'tolerances.ode_atol' must be >= 0.0"),
    ("tolerances", {"eigen_cond_max": "x"},
     "'tolerances.eigen_cond_max' must be a number"),
    ("tolerances", {"ode_rtol": 0.0}, "'tolerances.ode_rtol' must be > 0"),
    ("tolerances", {"rtol": 1e-6}, "unknown config key 'tolerances.rtol'"),
    ("output", {"directory": 3}, "'output.directory' must be a string"),
    ("output", {"dir": "x"}, "unknown config key 'output.dir'"),
])
def test_cli_rejects_bad_tolerances_and_output(tmp_path, capsys, section,
                                               edit, needle):
    raw = _fast_run_cfg()
    raw[section] = edit
    path = _write_yaml(tmp_path / "run.yaml", raw)
    assert main(["validate", "--config", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and needle in err


# ---- derived builders ----------------------------------------------------

def test_time_grid_structure():
    raw = _minimal()
    raw["time"] = {"t_end": 500.0}
    t = RunConfig.from_dict(raw).time_grid()
    assert t[0] == 0.0 and t[-1] == 500.0
    assert np.all(np.diff(t) > 0)
    early = t[t < 30.0]
    np.testing.assert_allclose(np.diff(early), 0.005, atol=1e-12)
    mid = t[(t >= 30.0) & (t < 200.0)]
    np.testing.assert_allclose(np.diff(mid), 0.1, atol=1e-12)
    late = t[(t >= 200.0) & (t < 500.0)]
    np.testing.assert_allclose(np.diff(late), 1.0, atol=1e-12)
    np.testing.assert_array_equal(t, np.concatenate([
        np.arange(0.0, 30.0, 0.005), np.arange(30.0, 200.0, 0.1),
        np.arange(200.0, 500.0, 1.0), [500.0]]))
    # the adiabatic reference's tau grid has the same band structure
    model = AdiabaticModel(build_lattice(1, 1, 1, 0.5), 20.0, 200.0)
    tau = adiabatic_simulate(model, np.ones(1), 500.0).times
    np.testing.assert_array_equal(tau, np.concatenate([
        np.arange(0.0, 30.0, 0.02), np.arange(30.0, 200.0, 0.1),
        np.arange(200.0, 500.0, 0.5), [500.0]]))


def test_time_grid_short_run_single_band():
    raw = _minimal()
    raw["time"] = {"t_end": 5.0, "dt_early": 0.5}
    t = RunConfig.from_dict(raw).time_grid()
    np.testing.assert_allclose(t, np.arange(0.0, 5.5, 0.5), atol=1e-12)


def test_build_envelope_kinds(tmp_path):
    raw = _minimal()
    raw["drive"] = {"envelope": {"kind": "square", "t_w": 2.0, "low": 0.25}}
    env = RunConfig.from_dict(raw).build_envelope()
    assert env(1.0) == 1.0 and env(2.5) == 0.25

    raw["drive"] = {"envelope": {"kind": "square"}}
    with pytest.raises(ConfigError, match="t_w"):
        RunConfig.from_dict(raw).build_envelope()

    # file path resolved relative to the config file
    with open(tmp_path / "env.csv", "w") as fh:
        fh.write("t,f\n0.0,0.5\n10.0,0.5\n")
    raw["drive"] = {"envelope": {"kind": "file", "path": "env.csv"}}
    path = _write_yaml(tmp_path / "run.yaml", raw)
    cfg = RunConfig.from_yaml(path)
    assert cfg.build_envelope()(4.0) == pytest.approx(0.5)


def test_from_yaml_errors(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        RunConfig.from_yaml(tmp_path / "missing.yaml")
    bad = tmp_path / "bad.yaml"
    bad.write_text("lattice: [unclosed\n")
    with pytest.raises(ConfigError, match="valid YAML"):
        RunConfig.from_yaml(bad)
    lst = tmp_path / "list.yaml"
    lst.write_text("- 1\n- 2\n")
    with pytest.raises(ConfigError, match="mapping"):
        RunConfig.from_yaml(lst)


# ---- command line --------------------------------------------------------

def test_cli_no_args_prints_help(capsys):
    assert main([]) == 0
    out = capsys.readouterr().out
    assert "arraylight" in out and "simulate" in out


def test_cli_validate_ok(tmp_path, capsys):
    path = _write_yaml(tmp_path / "run.yaml", _fast_run_cfg())
    assert main(["validate", "--config", path]) == 0
    out = capsys.readouterr().out
    cfg = RunConfig.from_yaml(path)
    assert "config ok" in out and cfg.digest() in out


def test_cli_bad_config_exit_code(tmp_path, capsys):
    raw = _fast_run_cfg()
    raw["drive"]["deltaa"] = 1.0
    path = _write_yaml(tmp_path / "run.yaml", raw)
    assert main(["validate", "--config", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "drive.deltaa" in err


@pytest.mark.parametrize("command, section, edit, needle", [
    ("shape", "shaping", {"target": {"kind": "gaussian", "width": 3.0,
                                     "t_end": 60.0}},
     "'shaping.target.center'"),
    ("simulate", "drive", {"envelope": {"kind": "square", "t_w": 2.0,
                                        "high": "x"}},
     "'drive.envelope.high'"),
    ("shape", "shaping", {"fraction": 1.5,
                          "target": {"kind": "gaussian", "center": 10.0,
                                     "width": 3.0, "t_end": 60.0}},
     "'shaping.fraction'"),
    ("simulate", "drive", {"envelope": {"kind": "file",
                                        "path": "missing.csv"}},
     "missing.csv"),
    # without a target, the fraction is still checked on load
    ("shape", "shaping", {"fraction": 5.0}, "'shaping.fraction'"),
    # the Taylor pass needs tol > 0
    ("simulate", "tolerances", {"ode_rtol": 0}, "'tolerances.ode_rtol'"),
])
def test_cli_validate_rejects_what_runs_reject(tmp_path, capsys, command,
                                               section, edit, needle):
    raw = _fast_run_cfg()
    raw.setdefault(section, {}).update(edit)
    path = _write_yaml(tmp_path / "run.yaml", raw)
    assert main(["validate", "--config", path]) == 2
    assert needle in capsys.readouterr().err
    assert main([command, "--config", path,
                 "--out", str(tmp_path / "out")]) == 2
    assert needle in capsys.readouterr().err


@pytest.mark.parametrize("section, key, value", [
    ("lattice", "d", float("nan")),
    ("drive", "omega_L0", float("nan")),
    ("drive", "delta", float("inf")),
    ("drive", "delta", -float("inf")),
    ("time", "t_end", float("inf")),
    ("k_gf", "magnitude", float("nan")),
])
@pytest.mark.parametrize("command", ["validate", "simulate"])
def test_cli_rejects_non_finite_numbers(tmp_path, capsys, command, section,
                                        key, value):
    # nan < lo is False, so NaN would pass every bound; inf every upper one
    raw = _fast_run_cfg()
    raw.setdefault(section, {})[key] = value
    path = _write_yaml(tmp_path / "run.yaml", raw)
    args = [command, "--config", path]
    if command == "simulate":
        args += ["--out", str(tmp_path / "out")]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert f"'{section}.{key}' must be a finite number" in err


def test_cli_simulate_outputs(tmp_path):
    path = _write_yaml(tmp_path / "run.yaml", _fast_run_cfg())
    out = tmp_path / "out"
    assert main(["simulate", "--config", path, "--out", str(out)]) == 0
    for name in ("trajectory.csv", "waveform.csv", "angular_map.csv",
                 "summary.json"):
        assert (out / name).is_file()

    cfg = RunConfig.from_yaml(path)
    with open(out / "trajectory.csv") as fh:
        lines = [fh.readline().strip() for _ in range(3)]
    assert lines[0] == f"# arraylight v{__version__}"
    assert lines[1] == f"# config_digest {cfg.digest()}"
    assert lines[2].startswith("t,")

    with open(out / "summary.json") as fh:
        summary = json.load(fh)
    assert summary["config_digest"] == cfg.digest()
    assert summary["n_atoms"] == 2
    assert summary["propagator"] == "eigen"
    # two atoms on the z axis, driven on nu = +1: the rotation irrep holds
    # both a_l and both beta_l^{+1}; inversion swaps the atoms and splits
    # it into an even and an odd block of two
    assert summary["eigen_blocks"] == [[2, 2]]
    assert 0.0 < summary["n_infinity"] <= 1.0001


def test_cli_simulate_bit_identical_reruns(tmp_path):
    path = _write_yaml(tmp_path / "run.yaml", _fast_run_cfg())
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", path, "--out", str(out_a)]) == 0
    assert main(["simulate", "--config", path, "--out", str(out_b)]) == 0
    for name in ("trajectory.csv", "waveform.csv", "angular_map.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    sa = json.loads((out_a / "summary.json").read_text())
    sb = json.loads((out_b / "summary.json").read_text())
    sa.pop("timings_s"), sb.pop("timings_s")
    assert sa == sb


def _readme_run_cfg(**time):
    """The README run.yaml, with its time section updated by time."""
    return {"lattice": {"nx": 3, "ny": 3, "nz": 8, "d": 0.6},
            "k_gf": {"direction": [0, 0, 1]},
            "drive": {"omega_L0": 2.0, "delta": 10.0,
                      "envelope": {"kind": "constant", "value": 1.0}},
            "time": {"t_end": 200.0, **time},
            "grid": {"n_theta": 64, "n_phi": 128},
            "propagator": "auto"}


def test_cli_simulate_evaluates_each_sample_once(tmp_path, monkeypatch):
    # on the README run (one flat segment from t = 0, so dt is t), the
    # waveform's pass keeps the series the trajectory CSV writes: each of
    # the 7701 grid times reaches _modal_coords once, besides the segment
    # end t_end (the next segment's start) and the state at u_peak that
    # the angular map reads
    calls = []
    modal = dynamics._modal_coords

    def recorded(modes, dt, out=None):
        calls.append(np.array(dt, dtype=float))
        return modal(modes, dt, out)

    monkeypatch.setattr(dynamics, "_modal_coords", recorded)
    path = _write_yaml(tmp_path / "run.yaml", _readme_run_cfg())
    out = tmp_path / "out"
    assert main(["simulate", "--config", path, "--out", str(out)]) == 0
    times = RunConfig.from_yaml(path).time_grid()
    assert len(times) == 7701
    u_peak = json.loads((out / "summary.json").read_text())["u_peak_flux"]
    want = np.sort(np.concatenate([times, [200.0, u_peak]]))
    assert np.array_equal(np.sort(np.concatenate(calls)), want)


def test_cli_simulate_memory_does_not_grow_with_the_samples(tmp_path,
                                                           above_live):
    # the README lattice on a uniform grid of 5001 and then 10001 samples:
    # from propagation through the three CSVs, the allocation peak grows
    # by the K-length series alone (sector sums, norm, amplitudes, flux
    # and CSV columns; 9.7 float64 per added sample measured), not by an
    # (80, K) table of coordinates (160 float64 per sample; the peak grew
    # by 6.9 MB when one was kept)
    peaks = []
    for t_end in (100.0, 200.0):
        raw = _readme_run_cfg(t_end=t_end, dt_early=0.02, t_early=400.0,
                              t_mid=400.0)
        raw["grid"] = {"n_theta": 16, "n_phi": 32}
        path = _write_yaml(tmp_path / f"run{t_end:g}.yaml", raw)
        code, peak, _ = above_live(main, ["simulate", "--config", path,
                                          "--out", str(tmp_path / "out")])
        assert code == 0
        peaks.append(peak)
    added = 10001 - 5001
    assert peaks[1] - peaks[0] < 16 * 8 * added, peaks


def test_cli_never_lifts_the_whole_trajectory(tmp_path, monkeypatch):
    # simulate (both propagators, one block and several) and shape read
    # the flux, populations and CSV columns from the block coordinates;
    # only single states and selected rows are lifted
    lift = Trajectory.lift

    def lifted(traj, y, rows=None):
        if rows is None and np.ndim(y) > 1:
            raise AssertionError("a stack of states was lifted")
        return lift(traj, y, rows)

    monkeypatch.setattr(Trajectory, "lift", lifted)
    runs = []
    for propagator, direction in (("eigen", [0, 0, 1]), ("ode", [1, 0, 0])):
        raw = _fast_run_cfg()
        raw["lattice"] = {"nx": 2, "ny": 2, "nz": 1, "d": 0.4}
        raw["k_gf"] = {"direction": direction}
        raw["propagator"] = propagator
        runs.append(("simulate", raw))
    raw = _fast_run_cfg()
    raw["lattice"] = {"nx": 2, "ny": 2, "nz": 2, "d": 0.6}
    raw["drive"] = {"omega_L0": 42.0, "delta": 120.0}
    raw["shaping"] = {"fraction": 0.05, "tau_end": 2000.0,
                      "target": {"kind": "gaussian", "center": 10.0,
                                 "width": 4.0, "t_end": 20.0, "dt": 0.1}}
    runs.append(("shape", raw))
    for i, (command, raw) in enumerate(runs):
        path = _write_yaml(tmp_path / f"run{i}.yaml", raw)
        assert main([command, "--config", path,
                     "--out", str(tmp_path / f"out{i}")]) == 0


def test_cli_simulate_never_forms_the_whole_excited_block(tmp_path,
                                                         monkeypatch):
    # on a lattice, simulate (both propagators, the waveform and the mode
    # rates) projects every operator onto the symmetry blocks from the
    # pair tables: it neither reads EffectiveHamiltonian.excited_block nor
    # builds the identity basis of the whole space
    def whole(*args):
        raise AssertionError("the whole excited block was formed")

    monkeypatch.setattr(EffectiveHamiltonian, "excited_block",
                        property(whole))
    monkeypatch.setattr(OrbitBasis, "identity", classmethod(whole))
    for i, (propagator, direction) in enumerate((("eigen", [0, 0, 1]),
                                                 ("ode", [1, 0, 0]))):
        raw = _fast_run_cfg()
        raw["lattice"] = {"nx": 2, "ny": 2, "nz": 2, "d": 0.5}
        raw["k_gf"] = {"direction": direction}
        raw["propagator"] = propagator
        path = _write_yaml(tmp_path / f"run{i}.yaml", raw)
        assert main(["simulate", "--config", path,
                     "--out", str(tmp_path / f"out{i}")]) == 0


def test_cli_angular_and_range_check(tmp_path, capsys):
    path = _write_yaml(tmp_path / "run.yaml", _fast_run_cfg())
    out = tmp_path / "out"
    assert main(["angular", "--config", path, "--out", str(out),
                 "--u", "1.0"]) == 0
    assert (out / "angular_map.csv").is_file()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["u"] == 1.0
    assert summary["eigen_blocks"] == [[2, 2]]
    assert summary["integrated_flux"] > 0.0

    assert main(["angular", "--config", path, "--out", str(out),
                 "--u", "9.0"]) == 2
    assert "outside simulated range" in capsys.readouterr().err


def test_cli_modes(tmp_path):
    path = _write_yaml(tmp_path / "run.yaml", _fast_run_cfg())
    out = tmp_path / "out"
    assert main(["modes", "--config", path, "--out", str(out)]) == 0
    with open(out / "modes.csv") as fh:
        lines = fh.read().strip().splitlines()
    assert lines[2] == "mode_index,shift_Delta_m,rate_Gamma_m,subradiant_flag"
    assert len(lines) == 3 + 6  # 2 atoms x 3 sublevels
    summary = json.loads((out / "summary.json").read_text())
    assert summary["n_modes"] == 6


def test_cli_modes_on_a_4x4x4_lattice(tmp_path):
    # the rates come from the eight C4h blocks, the condition number from
    # their eigenvectors alone: both checked against the whole excited block
    raw = _fast_run_cfg()
    raw["lattice"] = {"nx": 4, "ny": 4, "nz": 4, "d": 0.6}
    path = _write_yaml(tmp_path / "run.yaml", raw)
    out = tmp_path / "out"
    assert main(["modes", "--config", path, "--out", str(out)]) == 0
    cfg = RunConfig.from_yaml(path)
    H = assemble(cfg.build_array(), cfg.build_drive(),
                 include_sublevels=cfg.sublevels)
    summary = json.loads((out / "summary.json").read_text())
    assert summary["n_modes"] == H.excited_block.shape[0] == 192
    body = np.loadtxt(out / "modes.csv", delimiter=",", comments="#",
                      skiprows=3)
    assert body.shape == (192, 4)
    want = np.sort(-2.0 * np.linalg.eigvals(H.excited_block).real)
    assert np.max(np.abs(np.sort(body[:, 2]) - want)) < 1e-10
    cond = np.linalg.cond(right_vectors(eigenmodes(H))[1])
    assert abs(summary["condition_estimate"] - cond) <= 1e-12 * cond


def test_cli_shape_infeasible_exit_code(tmp_path, capsys):
    raw = _fast_run_cfg()
    raw["drive"] = {"omega_L0": 10.5, "delta": 120.0}
    raw["shaping"] = {"fraction": 0.9, "tau_end": 2000.0,
                      "target": {"kind": "gaussian", "center": 10.0,
                                 "width": 3.0, "t_end": 60.0, "dt": 0.1}}
    path = _write_yaml(tmp_path / "shape.yaml", raw)
    assert main(["shape", "--config", path,
                 "--out", str(tmp_path / "out")]) == 4
    err = capsys.readouterr().err
    assert "target infeasible" in err


def test_cli_shape_two_gaussians_and_a_target_file(tmp_path):
    # the config's two_gaussians target, and a --target CSV file in its
    # place (one gaussian at 45), with the config's photon fraction
    raw = _fast_run_cfg()
    raw["drive"] = {"omega_L0": 42.0, "delta": 120.0}
    raw["shaping"] = {"fraction": 0.5, "tau_end": 200.0,
                      "target": {"kind": "two_gaussians",
                                 "centers": [30.0, 60.0], "width": 10.0,
                                 "t_end": 100.0, "dt": 0.1}}
    path = _write_yaml(tmp_path / "shape.yaml", raw)
    cfg = RunConfig.from_yaml(path)
    single = TargetWaveform.gaussian(45.0, 15.0, 100.0, 0.1)
    csv = tmp_path / "target.csv"
    write_columns(csv, ["t", "intensity"], [single.u_grid, single.intensity])
    cases = (((), TargetWaveform.two_gaussians((30.0, 60.0), 10.0, 100.0,
                                               0.1, 0.5), 30.0),
             (("--target", str(csv)), single, 45.0))
    for extra, want, peak in cases:
        got = cfg.build_target(*extra[1:])
        assert np.array_equal(got.u_grid, want.u_grid)
        assert np.array_equal(got.intensity, want.intensity)
        assert got.photon_fraction == 0.5
        out = tmp_path / f"out{peak:g}"
        assert main(["shape", "--config", path, "--out", str(out),
                     *extra]) == 0
        summary = json.loads((out / "summary.json").read_text())["shaping"]
        assert summary["peak_time_target"] == peak


def test_cli_shape_resolves_target_paths(tmp_path, monkeypatch):
    # shaping.target.path is read from the config's directory, a --target
    # path from the working directory, as given
    raw = _fast_run_cfg()
    raw["drive"] = {"omega_L0": 42.0, "delta": 120.0}
    raw["shaping"] = {"fraction": 0.5, "tau_end": 200.0,
                      "target": {"kind": "file", "path": "tgt.csv"}}
    (tmp_path / "sub").mkdir()
    _write_yaml(tmp_path / "sub" / "s.yaml", raw)
    for where, center in (("sub", 30.0), (".", 45.0)):
        target = TargetWaveform.gaussian(center, 15.0, 100.0, 0.1)
        write_columns(tmp_path / where / "tgt.csv", ["t", "intensity"],
                      [target.u_grid, target.intensity])
    monkeypatch.chdir(tmp_path)
    for extra, peak in (((), 30.0), (("--target", "tgt.csv"), 45.0)):
        out = f"out{peak:g}"
        assert main(["shape", "--config", "sub/s.yaml", "--out", out,
                     *extra]) == 0
        summary = json.loads((tmp_path / out / "summary.json").read_text())
        assert summary["shaping"]["peak_time_target"] == peak


def test_cli_oracle_two_atom_rates(capsys):
    assert main(["oracle", "two-atom-rates", "--separation", "0.3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    ref = two_atom_rates(0.3)
    assert payload["rate_symmetric"] == pytest.approx(ref[0], rel=1e-12)
    assert payload["rate_antisymmetric"] == pytest.approx(ref[1], rel=1e-12)
    assert payload["sum"] == pytest.approx(2.0, abs=1e-12)


@pytest.mark.parametrize("orientation, message", [
    ("1,x,0", "error: not a comma-separated vector: '1,x,0'"),
    ("1,0", "error: orientation needs three components"),
    ("1,0,0,0", "error: orientation needs three components"),
])
def test_cli_oracle_rejects_bad_orientations(capsys, orientation, message):
    assert main(["oracle", "two-atom-rates", "--separation", "1",
                 "--orientation", orientation]) == 2
    assert capsys.readouterr().err.strip() == message


def test_cli_oracle_directed_peak(capsys):
    assert main(["oracle", "directed-peak", "--nx", "4", "--ny", "4",
                 "--nz", "4"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["peak_to_single_ratio"] == 4096.0


def test_cli_tol_override_applies(tmp_path):
    raw = _fast_run_cfg()
    raw["propagator"] = "ode"
    path = _write_yaml(tmp_path / "run.yaml", raw)
    out = tmp_path / "out"
    assert main(["simulate", "--config", path, "--out", str(out),
                 "--tol", "1e-6"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["propagator"] == "ode"
    assert summary["eigen_blocks"] is None


@pytest.mark.parametrize("tol, needle", [("nan", "must be a finite number"),
                                         ("-1", "must be >= 0.0"),
                                         ("0", "must be > 0")])
@pytest.mark.parametrize("command", ["validate", "simulate"])
def test_cli_tol_override_is_checked(tmp_path, capsys, command, tol,
                                     needle):
    # --tol takes the check of tolerances.ode_rtol in a config
    path = _write_yaml(tmp_path / "run.yaml", _fast_run_cfg())
    assert main([command, "--config", path, "--out", str(tmp_path / "out"),
                 "--tol", tol]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"'--tol' {needle}" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("propagator, code", [("auto", 0), ("eigen", 3)])
def test_cli_falls_back_to_the_ode_on_an_ill_conditioned_eigenbasis(
        tmp_path, capsys, propagator, code):
    # the 1x1x2 lattice's eigenbasis condition is 1.011, above a limit of
    # 1: auto runs the ODE instead, a requested eigen run fails
    raw = _fast_run_cfg()
    raw["tolerances"] = {"eigen_cond_max": 1.0}
    raw["propagator"] = propagator
    path = _write_yaml(tmp_path / "run.yaml", raw)
    out = tmp_path / "out"
    assert main(["simulate", "--config", path, "--out", str(out)]) == code
    if code:
        assert "eigenvector condition" in capsys.readouterr().err
    else:
        summary = json.loads((out / "summary.json").read_text())
        assert summary["propagator"] == "ode"
        assert summary["eigen_blocks"] is None


def test_auto_runs_eigen_when_the_envelope_ramps_only_after_the_run(
        tmp_path):
    # flatness is judged on the run, [0, t_end = 8]: an envelope flat
    # through t_end that ramps after it takes the spectral path, which
    # agrees with the ODE to the eigen-vs-ODE cross-check's 1e-6
    (tmp_path / "env.csv").write_text("t,f\n0.0,0.8\n8.0,0.8\n9.0,1.0\n")
    raw = _fast_run_cfg()
    raw["drive"]["envelope"] = {"kind": "file", "path": "env.csv"}
    for t_end, method in ((8.0, "eigen"), (8.5, "ode")):
        raw["time"]["t_end"] = t_end
        path = _write_yaml(tmp_path / "run.yaml", raw)
        out = tmp_path / f"out{t_end:g}"
        assert main(["simulate", "--config", path, "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["propagator"] == method
    cfg = RunConfig.from_yaml(path)
    H = assemble(cfg.build_array(), cfg.build_drive())
    psi0 = timed_dicke_state(cfg.build_array(), cfg.k_gf_vector())
    t = np.linspace(0.0, 8.0, 81)
    eig = propagate_eigen(H, psi0, t)
    ode = propagate_ode(H, psi0, t_end=8.0, times=t)
    assert np.max(np.abs(states(eig) - states(ode))) < 1e-6


def _unwanted_modules_after(argv):
    """Exit code, and the scipy and numpy.ma modules, of a fresh
    interpreter that imports arraylight and then runs the command line
    on argv; the code is None when argv is None (the import alone)."""
    src = os.path.dirname(os.path.dirname(arraylight.__file__))
    code = ("import json, sys\n"
            "import arraylight\n"
            "code = None\n"
            + ("" if argv is None else "from arraylight.cli import main\n"
               f"code = main({argv!r})\n")
            + "print(json.dumps([code, sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy' "
            "or m.split('.')[:2] == ['numpy', 'ma'])]))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=300,
                         check=True)
    return json.loads(run.stdout.splitlines()[-1])


def test_simulate_and_shape_import_no_scipy_or_numpy_ma(tmp_path):
    # the spectral path, the Taylor ODE pass and the designer run on numpy
    # alone, and none of them loads numpy.ma (np.unique and np.union1d
    # import it on their first call)
    path = _write_yaml(tmp_path / "run.yaml", _fast_run_cfg())
    code, modules = _unwanted_modules_after(
        ["simulate", "--config", path, "--out", str(tmp_path / "sim")])
    assert (code, modules) == (0, [])
    raw = _fast_run_cfg()
    raw["lattice"] = {"nx": 2, "ny": 2, "nz": 2, "d": 0.6}
    raw["drive"] = {"omega_L0": 42.0, "delta": 120.0}
    raw["shaping"] = {"fraction": 0.05, "tau_end": 2000.0,
                      "target": {"kind": "gaussian", "center": 10.0,
                                 "width": 4.0, "t_end": 20.0, "dt": 0.1}}
    path = _write_yaml(tmp_path / "shape.yaml", raw)
    code, modules = _unwanted_modules_after(
        ["shape", "--config", path, "--out", str(tmp_path / "shape")])
    assert (code, modules) == (0, [])


@pytest.mark.parametrize("command", [None, "modes", "angular", "validate"])
def test_import_and_other_commands_load_no_scipy_or_numpy_ma(tmp_path,
                                                             command):
    # the package import alone (command None), and each remaining command
    path = _write_yaml(tmp_path / "run.yaml", _fast_run_cfg())
    out = str(tmp_path / "out")
    argv = {None: None,
            "modes": ["modes", "--config", path, "--out", out],
            "angular": ["angular", "--config", path, "--out", out,
                        "--u", "1.0"],
            "validate": ["validate", "--config", path]}[command]
    assert _unwanted_modules_after(argv) == [
        None if command is None else 0, []]


def test_package_imports_only_numpy_yaml_and_the_standard_library():
    # every import statement of every module, those inside functions too:
    # numpy and PyYAML are the only run-time dependencies
    allowed = set(sys.stdlib_module_names) | {"numpy", "yaml"}
    pkg = os.path.dirname(arraylight.__file__)
    foreign = []
    for root, _, files in os.walk(pkg):
        for name in sorted(f for f in files if f.endswith(".py")):
            path = os.path.join(root, name)
            with open(path) as fh:
                tree = ast.parse(fh.read(), filename=path)
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and not node.level:
                    modules = [node.module]
                else:
                    continue
                foreign += [f"{os.path.relpath(path, pkg)}:{node.lineno} "
                            f"{module}" for module in modules
                            if module.split(".")[0] not in allowed]
    assert foreign == []


def test_every_name_in_each_module_all_resolves():
    # a name left in an __all__ after its definition is gone breaks
    # "from module import *"
    modules = [arraylight] + [
        importlib.import_module(f"arraylight.{info.name}")
        for info in pkgutil.iter_modules(arraylight.__path__)]
    missing = [f"{module.__name__}.{name}" for module in modules
               for name in getattr(module, "__all__", ())
               if not hasattr(module, name)]
    assert missing == []
