"""Configuration parsing, digests, and the command line front end."""

import json
import os

import numpy as np
import pytest
import yaml

from arraylight import __version__
from arraylight.cli import main
from arraylight.config import RunConfig
from arraylight.core import build_lattice
from arraylight.errors import ConfigError
from arraylight.oracles import two_atom_rates
from arraylight.shaping import AdiabaticModel, adiabatic_simulate


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


def test_cli_angular_and_range_check(tmp_path, capsys):
    path = _write_yaml(tmp_path / "run.yaml", _fast_run_cfg())
    out = tmp_path / "out"
    assert main(["angular", "--config", path, "--out", str(out),
                 "--u", "1.0"]) == 0
    assert (out / "angular_map.csv").is_file()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["u"] == 1.0
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


def test_cli_oracle_two_atom_rates(capsys):
    assert main(["oracle", "two-atom-rates", "--separation", "0.3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    ref = two_atom_rates(0.3)
    assert payload["rate_symmetric"] == pytest.approx(ref[0], rel=1e-12)
    assert payload["rate_antisymmetric"] == pytest.approx(ref[1], rel=1e-12)
    assert payload["sum"] == pytest.approx(2.0, abs=1e-12)


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
