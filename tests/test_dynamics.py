"""Propagation: spectral and ODE paths, interpolation, invariants."""

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid

from arraylight import dynamics
from arraylight.core import (AmplitudeState, LaserDrive, build_lattice,
                             single_f_excitation, timed_dicke_state)
from arraylight.dynamics import propagate_eigen, propagate_ode
from arraylight.envelope import PulseEnvelope
from arraylight.errors import InvalidArgumentError
from arraylight.hamiltonian import assemble

K0 = 2.0 * np.pi


def _excited_single_atom():
    arr = build_lattice(1, 1, 1, 0.5)
    beta = np.zeros((1, 3), dtype=complex)
    beta[0, 2] = 1.0
    return arr, AmplitudeState(np.zeros(1, dtype=complex), beta)


def test_single_atom_decay_eigen():
    arr, psi0 = _excited_single_atom()
    H = assemble(arr, LaserDrive(0.0, 0.0))
    t = np.linspace(0.0, 8.0, 81)
    traj = propagate_eigen(H, psi0, t)
    pe = traj.populations()[1][:, 2]
    assert np.max(np.abs(pe - np.exp(-t))) < 1e-12


def test_single_atom_decay_ode():
    arr, psi0 = _excited_single_atom()
    H = assemble(arr, LaserDrive(0.0, 0.0))
    t = np.linspace(0.0, 8.0, 81)
    traj = propagate_ode(H, psi0, t_end=8.0, times=t)
    pe = traj.populations()[1][:, 2]
    assert np.max(np.abs(pe - np.exp(-t))) < 1e-6


def test_rabi_oscillation_without_decay():
    # decay off, delta = 0: pure two-level Rabi between f and e_+1
    arr = build_lattice(1, 1, 1, 0.5)
    omega = 3.0
    H = assemble(arr, LaserDrive(omega, 0.0), decay=False)
    psi0 = single_f_excitation(arr, 0)
    t = np.linspace(0.0, 6.0, 121)
    traj = propagate_eigen(H, psi0, t)
    pf = traj.populations()[0]
    assert np.max(np.abs(pf - np.cos(omega * t / 2.0) ** 2)) < 1e-10
    # norm conserved without decay
    assert np.max(np.abs(traj.norm_squared() - 1.0)) < 1e-10


def test_undriven_f_state_is_stationary():
    arr = build_lattice(2, 2, 2, 0.6)
    H = assemble(arr, LaserDrive(0.0, 5.0))
    psi0 = timed_dicke_state(arr, np.array([0.0, 0.0, K0]))
    t = np.linspace(0.0, 10.0, 11)
    traj = propagate_eigen(H, psi0, t)
    assert np.max(np.abs(traj.states[:8, :] - traj.states[:8, :1])) < 1e-12
    assert np.max(np.abs(traj.states[8:, :])) < 1e-12


def test_norm_never_increases():
    arr = build_lattice(2, 1, 2, 0.4)
    H = assemble(arr, LaserDrive(2.5, 1.0))
    psi0 = timed_dicke_state(arr, np.array([0.0, 0.0, K0]))
    t = np.linspace(0.0, 20.0, 401)
    traj = propagate_eigen(H, psi0, t)
    n2 = traj.norm_squared()
    assert np.all(np.diff(n2) <= 1e-12)
    assert n2[0] <= 1.0 + 1e-12


def test_linearity_of_propagation():
    arr = build_lattice(2, 1, 1, 0.5)
    H = assemble(arr, LaserDrive(1.5, 2.0))
    t = np.linspace(0.0, 5.0, 26)
    s1 = propagate_eigen(H, single_f_excitation(arr, 0), t).states
    s2 = propagate_eigen(H, single_f_excitation(arr, 1), t).states
    a = AmplitudeState(np.array([0.3 + 0.1j, -0.7j]))
    s3 = propagate_eigen(H, a, t).states
    assert np.max(np.abs(s3 - (0.3 + 0.1j) * s1 + 0.7j * s2)) < 1e-12


def test_eigen_vs_ode_constant_drive():
    arr = build_lattice(1, 1, 2, 0.35)
    H = assemble(arr, LaserDrive(2.0, 10.0))
    psi0 = timed_dicke_state(arr, np.array([0.0, 0.0, K0]))
    t = np.linspace(0.0, 15.0, 151)
    tr_e = propagate_eigen(H, psi0, t)
    tr_o = propagate_ode(H, psi0, t_end=15.0, times=t)
    assert np.max(np.abs(tr_e.states - tr_o.states)) < 1e-6


def test_eigen_vs_ode_square_pulse():
    # breakpoint restart must keep the ODE path at full accuracy
    arr = build_lattice(1, 1, 2, 0.35)
    env = PulseEnvelope.square(0.75)
    H = assemble(arr, LaserDrive(6.0, 0.0, envelope=env))
    psi0 = timed_dicke_state(arr, np.array([0.0, 0.0, K0]))
    t = np.linspace(0.0, 5.0, 101)
    tr_e = propagate_eigen(H, psi0, t)
    tr_o = propagate_ode(H, psi0, t_end=5.0, times=t)
    assert np.max(np.abs(tr_e.states - tr_o.states)) < 1e-6


def _count_solver_calls(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[1])
        return solve_ivp(*args, **kwargs)

    solve_ivp = dynamics.solve_ivp
    monkeypatch.setattr(dynamics, "solve_ivp", counting)
    return calls


def test_ode_bare_rabi_closed_form_across_kinks(monkeypatch):
    # decay off, delta = 0, one sublevel: a = a0 cos(theta),
    # beta = -i a0 sin(theta), theta = (Omega/2) * integral of f, which the
    # trapezoid rule gives exactly for a piecewise-linear f
    knots = np.array([0.0, 0.7, 1.5, 2.2, 3.6, 4.1, 5.0, 6.3])
    fk = np.array([0.0, 0.9, 0.4, 1.0, 0.2, 0.6, 0.05, 0.3])
    env = PulseEnvelope.from_samples(knots, fk)
    omega = 5.0
    arr = build_lattice(1, 1, 1, 0.5)
    H = assemble(arr, LaserDrive(omega, 0.0, envelope=env),
                 include_sublevels=(1,), decay=False)
    a0 = 0.6 - 0.8j
    psi0 = AmplitudeState(np.array([a0]))
    t = np.linspace(0.0, 8.0, 161)
    calls = _count_solver_calls(monkeypatch)
    traj = propagate_ode(H, psi0, t_end=8.0, times=t)
    assert calls == [(0.0, 8.0)]  # kinks need no restart

    grid = np.union1d(knots, t)
    integral = cumulative_trapezoid(env(grid), grid, initial=0.0)
    theta = 0.5 * omega * integral[np.searchsorted(grid, t)]
    assert np.max(np.abs(traj.states[0] - a0 * np.cos(theta))) < 1e-7
    assert np.max(np.abs(traj.states[1] + 1j * a0 * np.sin(theta))) < 1e-7


def test_ode_restarts_only_at_jumps(monkeypatch):
    arr = build_lattice(1, 1, 2, 0.35)
    env = PulseEnvelope.square(0.75)
    H = assemble(arr, LaserDrive(6.0, 0.0, envelope=env))
    psi0 = timed_dicke_state(arr, np.array([0.0, 0.0, K0]))
    calls = _count_solver_calls(monkeypatch)
    propagate_ode(H, psi0, t_end=5.0, times=np.linspace(0.0, 5.0, 11))
    assert calls == [(0.0, 0.75), (0.75, 5.0)]
    # a start after the jump leaves nothing to restart at
    calls.clear()
    later = AmplitudeState(psi0.a, psi0.beta, t=1.0)
    t = np.linspace(1.0, 5.0, 41)
    tr_o = propagate_ode(H, later, t_end=5.0, times=t)
    assert calls == [(1.0, 5.0)]
    tr_e = propagate_eigen(H, later, t)
    assert np.max(np.abs(tr_e.states - tr_o.states)) < 1e-6


def test_ode_tolerance_tightening_converges():
    arr = build_lattice(1, 1, 2, 0.35)
    H = assemble(arr, LaserDrive(2.0, 3.0))
    psi0 = timed_dicke_state(arr, np.array([0.0, 0.0, K0]))
    t = np.array([0.0, 4.0])
    loose = propagate_ode(H, psi0, t_end=4.0, tol=1e-6, times=t).states[:, -1]
    tight = propagate_ode(H, psi0, t_end=4.0, tol=1e-10, times=t).states[:, -1]
    assert np.max(np.abs(loose - tight)) < 1e-5


def test_state_at_interpolation_accuracy():
    arr = build_lattice(1, 1, 2, 0.4)
    H = assemble(arr, LaserDrive(2.0, 4.0))
    psi0 = timed_dicke_state(arr, np.array([0.0, 0.0, K0]))
    grid = np.arange(0.0, 5.0 + 1e-12, 0.01)
    traj = propagate_ode(H, psi0, t_end=5.0, times=grid)
    ref = propagate_eigen(H, psi0, grid)
    rng = np.random.default_rng(6)
    for tq in rng.uniform(0.0, 5.0, size=25):
        got = traj.state_at(tq)
        want = ref.state_at(tq)
        assert np.max(np.abs(got - want)) < 1e-7


def test_state_at_exact_on_nodes():
    arr, psi0 = _excited_single_atom()
    H = assemble(arr, LaserDrive(0.0, 0.0))
    t = np.linspace(0.0, 3.0, 31)
    traj = propagate_ode(H, psi0, t_end=3.0, times=t)
    for k in (0, 10, 30):
        assert np.array_equal(traj.state_at(t[k]), traj.states[:, k])


def test_state_at_eigen_segment_at_step():
    # a time on a segment boundary (within 1e-12) belongs to the earlier
    # segment, as in a linear scan over the segments
    arr = build_lattice(1, 1, 2, 0.35)
    H = assemble(arr, LaserDrive(6.0, 1.0,
                                 envelope=PulseEnvelope.square(0.75)))
    psi0 = timed_dicke_state(arr, np.array([0.0, 0.0, K0]))
    t = np.linspace(0.0, 3.0, 61)
    traj = propagate_eigen(H, psi0, t)
    segments = traj._segments
    assert len(segments) == 2

    def scan(u):
        for seg in segments:
            if u <= seg[1] + 1e-12:
                return seg
        return segments[-1]

    step = 0.75
    for u in (0.0, np.nextafter(step, 0.0), step - 1e-13, step,
              np.nextafter(step, 1.0), step + 5e-13, step + 1e-12,
              step + 2e-12, 1.2, 3.0):
        t0, _, V, lam, c0 = scan(u)
        assert np.array_equal(traj.state_at(u), V @ (np.exp(lam * (u - t0)) * c0))
    k = int(np.argmin(np.abs(t - step)))
    assert t[k] == step
    assert np.allclose(traj.state_at(step), traj.states[:, k], rtol=0.0,
                       atol=1e-12)
    assert np.allclose(traj.state_at(3.0), traj.states[:, -1], rtol=0.0,
                       atol=1e-12)


def test_state_at_outside_coverage_raises():
    arr, psi0 = _excited_single_atom()
    H = assemble(arr, LaserDrive(0.0, 0.0))
    traj = propagate_eigen(H, psi0, np.linspace(0.0, 2.0, 21))
    with pytest.raises(InvalidArgumentError):
        traj.state_at(2.5)
    with pytest.raises(InvalidArgumentError):
        traj.state_at(-0.5)


def test_eigen_rejects_ramping_envelope():
    arr = build_lattice(1, 1, 2, 0.4)
    env = PulseEnvelope.from_samples([0.0, 1.0, 2.0], [0.0, 1.0, 0.0])
    H = assemble(arr, LaserDrive(2.0, 0.0, envelope=env))
    psi0 = timed_dicke_state(arr, np.array([0.0, 0.0, K0]))
    with pytest.raises(InvalidArgumentError):
        propagate_eigen(H, psi0, np.linspace(0.0, 2.0, 5))


def test_populations_shapes():
    arr = build_lattice(2, 1, 1, 0.5)
    H = assemble(arr, LaserDrive(1.0, 0.0))
    psi0 = timed_dicke_state(arr, np.zeros(3))
    t = np.linspace(0.0, 2.0, 21)
    traj = propagate_eigen(H, psi0, t)
    meta, excited = traj.populations()
    assert meta.shape == (21,)
    assert excited.shape == (21, 3)
    assert np.isclose(meta[0], 1.0)
    assert np.allclose(excited[0], 0.0)


def test_restricted_sublevel_model_matches_full_for_z_chain():
    # on a z chain the nu blocks decouple, so the {+1}-only model equals
    # the full model's nu = +1 sector when only that sector is driven
    arr = build_lattice(1, 1, 3, 0.4)
    drive = LaserDrive(1.5, 2.0)
    psi0 = timed_dicke_state(arr, np.array([0.0, 0.0, K0]))
    t = np.linspace(0.0, 6.0, 61)
    full = propagate_eigen(assemble(arr, drive), psi0, t)
    rest = propagate_eigen(
        assemble(arr, drive, include_sublevels=(1,)), psi0, t)
    n = arr.n_atoms
    assert np.max(np.abs(full.states[:n] - rest.states[:n])) < 1e-10
    full_beta_p1 = full.states[n:].reshape(n, 3, -1)[:, 2, :]
    rest_beta_p1 = rest.states[n:].reshape(n, 1, -1)[:, 0, :]
    assert np.max(np.abs(full_beta_p1 - rest_beta_p1)) < 1e-10


def test_trajectory_csv(tmp_path):
    arr, psi0 = _excited_single_atom()
    H = assemble(arr, LaserDrive(0.0, 0.0))
    t = np.linspace(0.0, 1.0, 11)
    traj = propagate_eigen(H, psi0, t)
    path = tmp_path / "traj.csv"
    traj.to_csv(path, header_lines=["digest abc"])
    lines = path.read_text().splitlines()
    assert lines[0] == "# digest abc"
    cols = lines[1].split(",")
    assert cols[:6] == ["t", "pop_f", "pop_e_m1", "pop_e_0", "pop_e_p1",
                        "norm2"]
    data = np.array([row.split(",") for row in lines[2:]], dtype=float)
    assert data.shape[0] == 11
    assert np.allclose(data[:, 4], np.exp(-t), atol=1e-12)
