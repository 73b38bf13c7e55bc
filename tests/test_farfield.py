"""Helicity frames, angular quadrature, intensity maps and waveforms."""

import numpy as np
import pytest
from _references import states
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from arraylight.core import (AmplitudeState, AtomArray, LaserDrive,
                             build_lattice, timed_dicke_state)
from arraylight.dynamics import Trajectory, propagate_eigen
from arraylight.errors import InvalidArgumentError
from arraylight.farfield import (AngularGrid, _gauss_legendre, angular_map,
                                 helicity_frame, integrate_flux, intensity,
                                 intensity_map, waveform)
from arraylight.hamiltonian import assemble

K0 = 2.0 * np.pi
NORM = 3.0 / (8.0 * np.pi)


def _single_excited(nu=2):
    arr = build_lattice(1, 1, 1, 0.5)
    beta = np.zeros((1, 3), dtype=complex)
    beta[0, nu] = 1.0
    return arr, AmplitudeState(np.zeros(1, dtype=complex), beta)


def _random_unit(rng, m):
    v = rng.normal(size=(m, 3))
    return v / np.linalg.norm(v, axis=1)[:, None]


def test_frame_orthonormal_transverse():
    rng = np.random.default_rng(1)
    for r_hat in _random_unit(rng, 1000):
        fr = helicity_frame(r_hat)
        for eps in (fr.eps_plus, fr.eps_minus):
            assert abs(np.vdot(eps, eps) - 1.0) < 1e-12
            assert abs(eps @ r_hat) < 1e-12
        assert abs(np.vdot(fr.eps_plus, fr.eps_minus)) < 1e-12


def test_frame_pole_convention():
    # at the north pole e_theta -> x, e_phi -> y
    fr = helicity_frame(np.array([0.0, 0.0, 1.0]))
    assert np.allclose(fr.eps_plus, np.array([1.0, 1j, 0.0]) / np.sqrt(2))
    assert np.allclose(fr.eps_minus, np.array([1.0, -1j, 0.0]) / np.sqrt(2))


def test_frame_rejects_bad_input():
    with pytest.raises(InvalidArgumentError):
        helicity_frame(np.zeros(3))
    with pytest.raises(InvalidArgumentError):
        helicity_frame(np.array([0.0, 0.0, 2.0]))


_PAIR = build_lattice(2, 1, 1, 0.5)
_BAD_INPUTS = [
    (lambda: helicity_frame(np.zeros(3)), "r_hat must be nonzero"),
    (lambda: helicity_frame([0.0, 0.0, 2.0]), "r_hat must be a unit vector"),
    (lambda: AngularGrid(1, 8), "need at least 2 nodes per angle"),
    (lambda: AngularGrid(8, 1), "need at least 2 nodes per angle"),
    (lambda: intensity(np.zeros((3, 3)), _PAIR,
                       helicity_frame([0.0, 0.0, 1.0])),
     "beta must have shape (N, 3)"),
    (lambda: intensity_map(np.zeros((2, 2)), _PAIR, AngularGrid(4, 4)),
     "beta must have shape (N, 3)"),
]


@pytest.mark.parametrize("call, message", _BAD_INPUTS)
def test_bad_inputs_raise_typed_errors(call, message):
    with pytest.raises(InvalidArgumentError) as info:
        call()
    assert str(info.value) == message


def test_grid_weights_cover_sphere():
    grid = AngularGrid(48, 96)
    assert np.isclose(grid.weights.sum(), 4.0 * np.pi, atol=1e-12)
    assert len(grid) == 48 * 96
    # directions are unit vectors
    assert np.allclose(np.linalg.norm(grid.dirs, axis=1), 1.0, atol=1e-14)
    assert grid.theta.min() > 0.0 and grid.theta.max() < np.pi


def _legendre_rule_mp(n):
    """Nodes (ascending) and weights of the n-point Gauss-Legendre rule at
    mpmath's working precision: every root of P_n by Newton's method from
    its first-order guess, and the weights 2 / ((1 - x^2) P_n'(x)^2)."""
    import mpmath

    def legendre(x):
        p0, p1 = mpmath.mpf(1), x
        for j in range(2, n + 1):
            p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
        return p1, n * (p0 - x * p1) / (1 - x * x)

    nodes, weights = [], []
    for i in range(n, 0, -1):
        x = mpmath.cos(mpmath.pi * (i - mpmath.mpf(0.25)) / (n + 0.5))
        for _ in range(50):
            p, dp = legendre(x)
            x -= p / dp
            if abs(p / dp) < mpmath.mpf(10) ** (5 - mpmath.mp.dps):
                break
        p, dp = legendre(x)
        nodes.append(x)
        weights.append(2 / ((1 - x * x) * dp * dp))
    return nodes, weights


@pytest.mark.parametrize("n", [2, 3, 8, 64, 65])
def test_gauss_legendre_rule_matches_mpmath(n):
    # the rule is computed in farfield (Newton's method on the Legendre
    # recurrence), not taken from numpy.polynomial; numpy's leggauss(64)
    # has weights 1.3e-12 off in relative terms, this one 5.7e-14
    import mpmath

    x, w = _gauss_legendre(n)
    with mpmath.workdps(40):
        ref_x, ref_w = _legendre_rule_mp(n)
        dx = max(float(abs(mpmath.mpf(a) - b)) for a, b in zip(x, ref_x))
        dw = max(float(abs(mpmath.mpf(a) / b - 1)) for a, b in zip(w, ref_w))
    assert dx <= 2.3e-16, dx
    assert dw <= 1e-13, dw
    assert abs(w.sum() - 2.0) <= 4.5e-16
    assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
    grid = AngularGrid(n, 3)
    assert np.array_equal(grid.theta[::3], np.arccos(x[::-1]))
    assert np.array_equal(grid.weights[::3], w[::-1] * (2.0 * np.pi / 3))


def test_single_atom_dipole_pattern():
    arr, psi0 = _single_excited()
    H = assemble(arr, LaserDrive(0.0, 0.0))
    traj = propagate_eigen(H, psi0, np.linspace(0.0, 1.0, 11))
    grid = AngularGrid(32, 64)
    amap = angular_map(traj, 0.0, grid=grid)
    pred = NORM * 0.5 * (1.0 + np.cos(grid.theta) ** 2)
    assert np.max(np.abs(amap.total - pred)) < 1e-10


def test_pi_emission_helicity_balanced():
    # a nu = 0 (z) dipole radiates equal helicity components everywhere
    arr, psi0 = _single_excited(nu=1)
    H = assemble(arr, LaserDrive(0.0, 0.0))
    traj = propagate_eigen(H, psi0, np.linspace(0.0, 1.0, 11))
    amap = angular_map(traj, 0.0, grid=AngularGrid(24, 48))
    assert np.max(np.abs(amap.I_plus - amap.I_minus)) < 1e-14


def test_global_phase_gauge_invariance():
    arr = build_lattice(2, 1, 2, 0.5)
    rng = np.random.default_rng(12)
    beta = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
    fr = helicity_frame(np.array([0.3, -0.4, np.sqrt(1 - 0.25)]))
    i0 = intensity(beta, arr, fr)
    i1 = intensity(beta * np.exp(0.77j), arr, fr)
    assert np.allclose(i0, i1, rtol=1e-12)


def test_phi_independence_for_z_chain():
    # chain along z driven into nu = +1: intensity independent of phi
    arr = build_lattice(1, 1, 4, 0.4)
    rng = np.random.default_rng(3)
    beta = np.zeros((4, 3), dtype=complex)
    beta[:, 2] = rng.normal(size=4) + 1j * rng.normal(size=4)
    theta = 1.1
    vals = []
    for phi in np.linspace(0.0, 2 * np.pi, 17):
        r_hat = np.array([np.sin(theta) * np.cos(phi),
                          np.sin(theta) * np.sin(phi), np.cos(theta)])
        vals.append(intensity(beta, arr, helicity_frame(r_hat)))
    vals = np.array(vals)
    assert np.max(np.abs(vals - vals[0])) < 1e-12


def test_quadrature_converged():
    arr = build_lattice(2, 2, 2, 0.7)
    rng = np.random.default_rng(10)
    beta = rng.normal(size=(8, 3)) + 1j * rng.normal(size=(8, 3))
    f1 = sum(integrate_flux(intensity_map(beta, arr, AngularGrid(64, 128))))
    f2 = sum(integrate_flux(intensity_map(beta, arr, AngularGrid(128, 256))))
    assert abs(f1 - f2) < 1e-8 * abs(f2)


def test_single_atom_total_flux_is_population():
    # integrated intensity over the sphere = Gamma * excited population
    arr, psi0 = _single_excited()
    beta = psi0.beta
    for grid in (AngularGrid(32, 64), AngularGrid(64, 128)):
        fp, fm = integrate_flux(intensity_map(beta, arr, grid))
        assert abs(fp + fm - 1.0) < 1e-12


def test_waveform_matches_per_time_maps():
    # the quadratic-form fast path must agree with explicit maps
    arr = build_lattice(1, 1, 3, 0.45)
    H = assemble(arr, LaserDrive(1.5, 3.0))
    psi0 = AmplitudeState(np.full(3, 1 / np.sqrt(3), dtype=complex))
    t = np.linspace(0.0, 6.0, 31)
    traj = propagate_eigen(H, psi0, t)
    grid = AngularGrid(24, 48)
    wave = waveform(traj, allow_truncation=True)
    for k in (0, 7, 19, 30):
        amap = angular_map(traj, t[k], grid=grid)
        assert np.isclose(wave.flux_plus[k], grid.weights @ amap.I_plus,
                          rtol=1e-12, atol=1e-15)
        assert np.isclose(wave.flux_minus[k], grid.weights @ amap.I_minus,
                          rtol=1e-12, atol=1e-15)


def test_waveform_single_atom_decay():
    arr, psi0 = _single_excited()
    H = assemble(arr, LaserDrive(0.0, 0.0))
    t = np.linspace(0.0, 30.0, 3001)  # trapezoid error ~ dt^2/12
    traj = propagate_eigen(H, psi0, t)
    wave = waveform(traj)
    assert np.max(np.abs(wave.flux_total - np.exp(-t))) < 1e-10
    assert abs(wave.cumulative[-1] - 1.0) < 1e-4
    # state-side and field-side photon counts agree
    assert np.max(np.abs(wave.cumulative - wave.state_side)) < 1e-4


def test_waveform_truncation_guard():
    arr, psi0 = _single_excited()
    H = assemble(arr, LaserDrive(0.0, 0.0))
    t = np.linspace(0.0, 1.0, 11)  # barely decayed
    traj = propagate_eigen(H, psi0, t)
    with pytest.raises(InvalidArgumentError):
        waveform(traj)
    wave = waveform(traj, allow_truncation=True)
    assert wave.u_grid.shape == t.shape


def test_waveform_custom_u_grid():
    arr, psi0 = _single_excited()
    H = assemble(arr, LaserDrive(0.0, 0.0))
    # a waveform on a grid of one's own comes from propagating on it
    u = np.linspace(0.0, 20.0, 41)
    wave = waveform(propagate_eigen(H, psi0, u))
    assert np.allclose(wave.flux_total, np.exp(-u), atol=1e-9)


def test_waveform_memory_on_a_6x6x6_lattice(above_live):
    # the flux operators are summed from the displacement table straight
    # onto the trajectory's excited columns, and the quadratic forms run
    # over chunks of samples: no (N, N, 3, 3) array and no (N m, N m)
    # operator (10.4 MB at N = 216).  Building them densely took the
    # allocation peak to 33 MB above the live memory; 3.5 MB now
    arr = build_lattice(6, 6, 6, 0.6)
    H = assemble(arr, LaserDrive(2.0, 10.0))
    traj = propagate_eigen(H, timed_dicke_state(arr, [0.0, 0.0, K0]),
                           np.linspace(0.0, 30.0, 601))
    assert traj.blocks[0].basis is not None
    wave, peak, _ = above_live(waveform, traj, allow_truncation=True)
    assert np.all(np.isfinite(wave.flux_total))
    assert peak < 12e6, peak


def _intensity_map_peak(above_live, n):
    """Allocation peak of intensity_map above the live memory on an
    n x n x n lattice and the 64 x 128 grid."""
    arr = build_lattice(n, n, n, 0.6)
    grid = AngularGrid(64, 128)
    rng = np.random.default_rng(3)
    beta = rng.normal(size=(n**3, 3)) + 1j * rng.normal(size=(n**3, 3))
    amap, peak, _ = above_live(intensity_map, beta, arr, grid)
    assert np.all(amap.total > 0.0)
    return peak


def test_intensity_map_memory_on_a_6x6x6_lattice(above_live):
    # on a lattice direction_sums contracts one axis at a time, per group
    # of directions sharing n_z: no (directions, N) phase array and no
    # (directions, n_x, n_y, c) temporary.  The direct sum of a free-form
    # array writes the phase factors of 2^15 entries at a time; chunks of
    # 2^18 took the allocation peak to 8.8 MB above the live memory here,
    # the 2^15 chunks 1.7 MB, the lattice path 1.1 MB
    peak = _intensity_map_peak(above_live, 6)
    assert peak < 4e6, peak


def test_intensity_map_memory_on_an_8x8x8_lattice(above_live):
    # the per-axis contractions' temporaries grow with n_x n_y c per ring
    # of directions, not with the directions times N: 1.1 MB, as at 6x6x6
    peak = _intensity_map_peak(above_live, 8)
    assert peak < 4e6, peak


def test_angular_map_csv(tmp_path):
    arr, psi0 = _single_excited()
    H = assemble(arr, LaserDrive(0.0, 0.0))
    traj = propagate_eigen(H, psi0, np.linspace(0.0, 1.0, 3))
    amap = angular_map(traj, 0.5, grid=AngularGrid(8, 16))
    path = tmp_path / "map.csv"
    amap.to_csv(path, header_lines=["v 1"])
    lines = path.read_text().splitlines()
    assert lines[0] == "# v 1"
    assert lines[1] == "theta,phi,I_plus,I_minus,weight"
    assert len(lines) == 2 + 8 * 16


def test_intensity_against_direct_formula():
    # brute-force the defining sum for random states and directions
    arr = build_lattice(2, 2, 1, 0.6)
    rng = np.random.default_rng(44)
    beta = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
    E = np.column_stack([
        np.array([1.0, -1j, 0.0]) / np.sqrt(2),
        np.array([0.0, 0.0, 1.0]),
        -np.array([1.0, 1j, 0.0]) / np.sqrt(2),
    ])
    for r_hat in _random_unit(rng, 20):
        fr = helicity_frame(r_hat)
        ip, im = intensity(beta, arr, fr)
        for eps, got in ((fr.eps_plus, ip), (fr.eps_minus, im)):
            amp = 0.0
            for j in range(4):
                phase = np.exp(1j * K0 * (r_hat @ arr.positions[j]))
                amp += phase * (eps.conj() @ (E @ beta[j]))
            assert np.isclose(got, NORM * abs(amp) ** 2, rtol=1e-12)


@st.composite
def _sampled_trajectories(draw):
    """Random array (N <= 8, spacing >= 0.1) and sublevel subset, with
    random model states as the samples of a trajectory."""
    n = draw(st.integers(1, 8))
    coord = st.floats(-1.0, 1.0)
    pos = np.array(draw(st.lists(st.tuples(coord, coord, coord),
                                 min_size=n, max_size=n)))
    dist = np.linalg.norm(pos[:, None] - pos[None], axis=-1)
    np.fill_diagonal(dist, np.inf)
    assume(dist.min() >= 0.1)
    subs = sorted(draw(st.sets(st.sampled_from((-1, 0, 1)), min_size=1)))
    H = assemble(AtomArray(pos), LaserDrive(1.0, 2.0, target_sublevel=subs[0]),
                 include_sublevels=subs)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = draw(st.integers(2, 4))
    states = rng.normal(size=(H.dim, k)) + 1j * rng.normal(size=(H.dim, k))
    states /= np.linalg.norm(states, axis=0)
    return Trajectory(H, np.arange(k, dtype=float), (H.block(),), states)


@settings(max_examples=100, deadline=None)
@given(_sampled_trajectories())
def test_total_flux_is_norm_loss(traj):
    # photon balance per sample: flux_total = -d|psi|^2/dt
    #                                       = -2 Re <beta|X|beta>
    H = traj.H
    wave = waveform(traj, allow_truncation=True)
    beta = states(traj)[H.n_atoms:]
    loss = -2.0 * np.real(np.einsum("ik,ik->k", beta.conj(),
                                    H.excited_block @ beta))
    assert np.allclose(wave.flux_total, loss, rtol=1e-12, atol=0.0)
    assert np.array_equal(wave.flux_plus + wave.flux_minus, wave.flux_total)


@settings(max_examples=50, deadline=None)
@given(_sampled_trajectories())
def test_flux_operators_match_quadrature(traj):
    # the exact per-helicity operators against the 96 x 192 sphere quadrature
    wave = waveform(traj, allow_truncation=True)
    grid = AngularGrid(96, 192)
    for k, u in enumerate(traj.times):
        fp, fm = integrate_flux(angular_map(traj, u, grid=grid))
        assert np.isclose(wave.flux_plus[k], fp, rtol=1e-10, atol=0.0)
        assert np.isclose(wave.flux_minus[k], fm, rtol=1e-10, atol=0.0)
