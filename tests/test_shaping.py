"""Adiabatic model, reparametrization and inverse envelope design."""

import numpy as np
import pytest

from arraylight.core import LaserDrive, build_lattice, timed_dicke_state
from arraylight.dynamics import propagate_ode
from arraylight.envelope import PulseEnvelope
from arraylight.errors import InfeasibleTargetError, InvalidArgumentError
from arraylight.farfield import waveform
from arraylight.hamiltonian import assemble
from arraylight.shaping import (AdiabaticModel, TargetWaveform,
                                adiabatic_simulate, design_envelope,
                                reparametrize, validate)

K0 = 2.0 * np.pi


def _model(omega=42.0, delta=120.0, dims=(3, 3, 8), d=0.6):
    arr = build_lattice(*dims, d)
    return AdiabaticModel(arr, omega, delta)


def _td(model):
    return timed_dicke_state(model.array, np.array([0.0, 0.0, K0])).a


def test_effective_rate_and_light_shift():
    model = _model(10.5, 120.0, dims=(1, 1, 1))
    assert np.isclose(model.gamma_eff, 1.9140625e-3, rtol=1e-12)
    assert np.isclose(model.light_shift, 0.2296875, rtol=1e-12)


def test_regime_warning_for_small_detuning():
    arr = build_lattice(1, 1, 1, 0.5)
    with pytest.warns(UserWarning):
        AdiabaticModel(arr, 10.0, 12.0)   # |delta| < 2 omega
    with pytest.warns(UserWarning):
        AdiabaticModel(arr, 1.0, 5.0)     # |delta| < 10


def test_single_atom_release_curve():
    # one atom: n(t) = 1 - exp(-gamma_eff t)
    model = _model(20.0, 200.0, dims=(1, 1, 1))
    ref = adiabatic_simulate(model, np.array([1.0 + 0j]), 3000.0)
    pred = 1.0 - np.exp(-model.gamma_eff * ref.times)
    assert np.max(np.abs(ref.n - pred)) < 1e-9


def test_constant_envelope_scales_time():
    # f = c compresses the clock: a(t) = a0(c^2 t)
    model = _model(30.0, 150.0, dims=(2, 2, 2))
    a0 = _td(model)
    ref = adiabatic_simulate(model, a0, 400.0)
    for c in (1.0, 0.5):
        env = PulseEnvelope.constant(c)
        times = np.linspace(0.0, 400.0, 201)
        mod = adiabatic_simulate(model, a0, 400.0, t_grid=times,
                                 envelope=env)
        direct = ref.a_at(c * c * times)
        assert np.max(np.abs(mod.a - direct)) < 1e-9


def test_reparametrization_identity_random_envelopes():
    model = _model(30.0, 150.0, dims=(2, 2, 2))
    a0 = _td(model)
    ref = adiabatic_simulate(model, a0, 500.0)
    rng = np.random.default_rng(14)
    for trial in range(5):
        nodes = np.linspace(0.0, 300.0, 51)
        f = np.clip(0.15 + 0.85 * rng.random(51), 0.0, 1.0)
        env = PulseEnvelope.from_samples(nodes, f)
        mod = adiabatic_simulate(model, a0, 300.0, envelope=env, tol=1e-11)
        rep = reparametrize(ref, env, mod.times)
        err = np.max(np.abs(rep - mod.a))
        assert err < 1e-6, f"trial {trial}: {err:.3e}"


def test_reparametrize_requires_coverage():
    model = _model(30.0, 150.0, dims=(1, 1, 2))
    a0 = _td(model)
    ref = adiabatic_simulate(model, a0, 10.0)
    env = PulseEnvelope.constant(1.0)
    with pytest.raises(InvalidArgumentError):
        reparametrize(ref, env, np.array([0.0, 20.0]))


def test_design_identity_target_recovers_unit_envelope():
    # asking for exactly the free-running waveform gives f = 1
    from scipy.integrate import cumulative_trapezoid

    model = _model()
    a0 = _td(model)
    ref = adiabatic_simulate(model, a0, 2000.0)
    horizon = 100.0
    sel = ref.times <= horizon
    u = ref.times[sel]
    n_q = cumulative_trapezoid(ref.flux, ref.times, initial=0.0)
    frac = n_q[sel][-1] / n_q[-1]
    target = TargetWaveform(u, ref.flux[sel], photon_fraction=frac)
    env = design_envelope(ref, target)
    f = env(u)
    assert np.max(np.abs(f - 1.0)) < 1e-6


def test_design_gaussian_envelope_properties():
    model = _model()
    a0 = _td(model)
    ref = adiabatic_simulate(model, a0, 2000.0)
    target = TargetWaveform.gaussian(center=45.0, width=15.0, t_end=100.0,
                                     photon_fraction=0.75)
    env = design_envelope(ref, target)
    f = env(target.u_grid)
    assert np.all(f >= 0.0) and np.all(f <= 1.0)
    assert f.max() > 0.5
    # clock consistency: tau must track the reference inversion
    tau = env.tau(target.u_grid)
    assert np.all(np.diff(tau) >= -1e-12)
    assert tau[-1] <= ref.times[-1]


def test_design_infeasible_target_names_first_time():
    model = _model()
    a0 = _td(model)
    ref = adiabatic_simulate(model, a0, 2000.0)
    target = TargetWaveform.gaussian(center=45.0, width=15.0, t_end=100.0,
                                     photon_fraction=0.99)
    with pytest.raises(InfeasibleTargetError) as exc:
        design_envelope(ref, target)
    err = exc.value
    assert err.exit_code == 4
    assert 0.0 < err.t_violation < 100.0
    assert err.f_squared > 1.0
    assert f"{err.t_violation:g}" in str(err)


def test_feasibility_monotone_in_fraction():
    # once infeasible at some photon fraction, larger fractions stay so
    model = _model()
    a0 = _td(model)
    ref = adiabatic_simulate(model, a0, 2000.0)

    def feasible(frac):
        target = TargetWaveform.gaussian(center=45.0, width=15.0,
                                         t_end=100.0, photon_fraction=frac)
        try:
            design_envelope(ref, target)
            return True
        except InfeasibleTargetError:
            return False

    flags = [feasible(frac) for frac in (0.5, 0.7, 0.75, 0.9, 0.99)]
    assert flags == sorted(flags, reverse=True)
    assert flags[2] and not flags[-1]


def test_validate_runs_from_the_reference():
    # a reference built from an x-directed timed state is validated from
    # that state, under the drive of the reference's model
    model = _model(dims=(2, 2, 2))
    psi0 = timed_dicke_state(model.array, np.array([K0, 0.0, 0.0]))
    ref = adiabatic_simulate(model, psi0.a, 2000.0)
    target = TargetWaveform.gaussian(center=10.0, width=4.0, t_end=20.0,
                                     photon_fraction=0.05)
    env = design_envelope(ref, target)
    report = validate(env, target, ref)

    u = target.u_grid
    H = assemble(model.array, LaserDrive(42.0, 120.0, env))
    traj = propagate_ode(H, psi0, t_end=float(u[-1]), times=u)
    flux = waveform(traj, allow_truncation=True).flux_total
    I = target.intensity * (0.05 * ref.n[-1]
                            / np.trapezoid(target.intensity, u))
    l2 = np.linalg.norm(flux - I) / np.linalg.norm(I)
    assert np.linalg.norm(report.flux_sim - flux) \
        <= 1e-12 * np.linalg.norm(flux)
    assert abs(report.l2_mismatch - l2) <= 1e-12 * l2


def _beta_slaving_deviation(delta, omega=2.0):
    arr = build_lattice(2, 2, 2, 0.6)
    model = AdiabaticModel(arr, omega, delta)
    H = assemble(arr, LaserDrive(omega, delta))
    psi0 = timed_dicke_state(arr, np.array([0.0, 0.0, K0]))
    t = np.linspace(0.0, 40.0, 81)
    traj = propagate_ode(H, psi0, t_end=40.0, times=t)
    n = arr.n_atoms
    worst = 0.0
    for k in range(40, 81, 10):  # past the slaving transient ~ 1/delta
        a = traj.states[:n, k]
        beta_full = H.beta_matrix(traj.states[:, k])
        beta_model = model.beta_from_a(a)
        scale = np.max(np.abs(beta_model))
        worst = max(worst, np.max(np.abs(beta_full - beta_model)) / scale)
    return worst


def test_beta_reconstruction_against_full_model():
    # adiabatic slaving beta = (f omega / 2 delta) a on the driven
    # sublevel; residuals carry the collective O(Gamma(1+G)/delta) terms
    dev10 = _beta_slaving_deviation(10.0)
    dev20 = _beta_slaving_deviation(20.0)
    assert dev10 < 0.15
    assert dev20 < dev10


def test_target_waveform_validation():
    with pytest.raises(InvalidArgumentError):
        TargetWaveform(np.array([0.0, 1.0]), np.array([1.0, -0.5]))
    with pytest.raises(InvalidArgumentError):
        TargetWaveform(np.array([0.0, 0.0]), np.array([1.0, 1.0]))
    with pytest.raises(InvalidArgumentError):
        TargetWaveform(np.array([0.0, 1.0]), np.array([1.0, 1.0]),
                       photon_fraction=1.5)


def test_target_csv_roundtrip(tmp_path):
    u = np.linspace(0.0, 50.0, 101)
    intensity = np.exp(-((u - 25.0) / 8.0) ** 2)
    path = tmp_path / "target.csv"
    with open(path, "w") as fh:
        fh.write("u,intensity\n")
        for ui, ii in zip(u, intensity):
            fh.write(f"{ui},{ii}\n")
    target = TargetWaveform.from_csv(path, photon_fraction=0.5)
    assert np.allclose(target.u_grid, u)
    assert np.allclose(target.intensity, intensity)
    assert target.photon_fraction == 0.5
