"""Closed-form references cross-checked against the full machinery."""

import dataclasses

import numpy as np
import pytest
from _references import states

from arraylight.core import (AmplitudeState, LaserDrive, build_lattice,
                             timed_dicke_state)
from arraylight.dynamics import propagate_eigen
from arraylight.errors import InvalidArgumentError
from arraylight.farfield import helicity_frame, intensity
from arraylight.hamiltonian import assemble, eigenmodes
from arraylight.oracles import (noninteracting_amplitudes,
                                noninteracting_intensity, two_atom_rates)

K0 = 2.0 * np.pi


def test_amplitudes_initial_moduli():
    arr = build_lattice(3, 3, 3, 0.7)
    k = np.array([0.0, 0.0, K0])
    beta = noninteracting_amplitudes(arr, k, 0.0)
    assert beta.shape == (27, 3)
    assert np.allclose(np.abs(beta[:, 2]), 1.0 / np.sqrt(27))
    assert np.allclose(beta[:, :2], 0.0)


def test_amplitudes_match_decoupled_propagation():
    # zero the pair couplings in the array's coupling table, from which
    # every generator block is projected: the full propagator must then
    # reproduce the closed form exactly
    arr = build_lattice(2, 2, 2, 0.5)
    k = np.array([0.0, 0.0, K0])
    tables = arr.pair_tables
    vars(arr)["pair_tables"] = dataclasses.replace(
        tables, coupling=np.zeros_like(tables.coupling))
    n = arr.n_atoms
    H0 = assemble(arr, LaserDrive(0.0, 0.0))
    assert np.array_equal(H0.excited_block, -0.5 * np.eye(3 * n))
    td = timed_dicke_state(arr, k)
    psi0 = AmplitudeState(np.zeros(n, dtype=complex),
                          np.outer(td.a, [0.0, 0.0, 1.0]))
    t = np.linspace(0.0, 4.0, 21)
    traj = propagate_eigen(H0, psi0, t)
    for i, ti in enumerate(t):
        ref = noninteracting_amplitudes(arr, k, ti)
        got = H0.beta_matrix(states(traj)[:, i])
        assert np.max(np.abs(got - ref)) < 1e-13


def test_amplitudes_match_full_model_at_large_spacing():
    # pair coupling scales like 1/kR ~ 0.5 percent at d = 50; the phase it
    # imprints over 3 lifetimes stays below 1 percent of the amplitude
    arr = build_lattice(1, 1, 2, 50.0)
    k = np.array([0.0, 0.0, K0])
    td = timed_dicke_state(arr, k)
    psi0 = AmplitudeState(np.zeros(2, dtype=complex),
                          np.outer(td.a, [0.0, 0.0, 1.0]))
    H = assemble(arr, LaserDrive(0.0, 0.0))
    t = np.linspace(0.0, 3.0, 31)
    traj = propagate_eigen(H, psi0, t)
    for i, ti in enumerate(t):
        ref = noninteracting_amplitudes(arr, k, ti)
        got = H.beta_matrix(states(traj)[:, i])
        scale = np.max(np.abs(ref))
        assert np.max(np.abs(got - ref)) < 0.01 * scale


def test_intensity_matches_farfield_code_path():
    arr = build_lattice(3, 2, 2, 0.65)
    k = np.array([0.0, 0.0, K0])
    u = 0.8
    beta = noninteracting_amplitudes(arr, k, u)
    rng = np.random.default_rng(77)
    dirs = rng.normal(size=(100, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    for r_hat in dirs:
        ip, im = intensity(beta, arr, helicity_frame(r_hat))
        op = noninteracting_intensity(arr, k, r_hat, u, +1)
        om = noninteracting_intensity(arr, k, r_hat, u, -1)
        assert abs(ip - op) <= 1e-10 * max(ip, 1e-30)
        assert abs(im - om) <= 1e-10 * max(im, 1e-30)


def test_forward_peak_scales_as_n_squared():
    # peak / per-atom share of a single emitter = N^2
    k = np.array([0.0, 0.0, K0])
    fwd = np.array([0.0, 0.0, 1.0])
    one = build_lattice(1, 1, 1, 0.8)
    single = noninteracting_intensity(one, k, fwd, 0.2, +1)
    for dims in ((2, 2, 2), (3, 3, 3), (4, 4, 4)):
        arr = build_lattice(*dims, 0.8)
        n = arr.n_atoms
        peak = noninteracting_intensity(arr, k, fwd, 0.2, +1)
        assert np.isclose(peak / (single / n), n * n, rtol=1e-12)


def test_two_atom_rates_limits():
    close = two_atom_rates(1e-3)
    assert abs(close[0] - 2.0) < 1e-4
    assert abs(close[1]) < 1e-4
    far = two_atom_rates(1e4)
    assert abs(far[0] - 1.0) < 1e-4
    assert abs(far[1] - 1.0) < 1e-4


def test_two_atom_rates_sum_exact():
    rng = np.random.default_rng(50)
    for _ in range(50):
        sep = float(10 ** rng.uniform(-3, 2))
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        nu = int(rng.integers(-1, 2))
        rp, rm = two_atom_rates(sep, v, nu)
        assert abs(rp + rm - 2.0) < 1e-12


def test_two_atom_rates_match_assembled_hamiltonian():
    # single-sublevel pair model diagonalizes to exactly these rates
    rng = np.random.default_rng(51)
    for _ in range(20):
        sep = float(10 ** rng.uniform(-2, 1))
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        nu = int(rng.integers(-1, 2))
        pos = np.stack([np.zeros(3), sep * v])
        from arraylight.core import AtomArray
        arr = AtomArray(pos)
        H = assemble(arr, LaserDrive(0.0, 0.0, target_sublevel=nu),
                     include_sublevels=(nu,))
        spec = eigenmodes(H)
        got = np.sort(spec.rates)
        want = np.sort(two_atom_rates(sep, v, nu))
        assert np.max(np.abs(got - want)) < 1e-10


def test_two_atom_rates_validation():
    with pytest.raises(InvalidArgumentError):
        two_atom_rates(0.0)
    with pytest.raises(InvalidArgumentError):
        two_atom_rates(-1.0)


# every raise of the module, each with its input and message
_BAD_INPUTS = [
    (lambda: noninteracting_intensity(build_lattice(2, 1, 1, 0.5),
                                      [0.0, 0.0, K0], [0.0, 0.0, 1.0], 0.0,
                                      helicity=0),
     "helicity must be +1 or -1"),
    (lambda: two_atom_rates(0.0), "separation must be positive"),
    (lambda: two_atom_rates(-0.2), "separation must be positive"),
    (lambda: two_atom_rates(0.2, sublevel=2),
     "sublevel must be one of -1, 0, +1"),
]


@pytest.mark.parametrize("call, message", _BAD_INPUTS)
def test_bad_inputs_raise_typed_errors(call, message):
    with pytest.raises(InvalidArgumentError) as info:
        call()
    assert str(info.value) == message
