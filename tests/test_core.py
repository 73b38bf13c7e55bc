"""Geometry, state construction and unit conventions."""

import numpy as np
import pytest

from arraylight.core import (SUBLEVELS, AmplitudeState, AtomArray, LaserDrive,
                             build_lattice, single_f_excitation,
                             timed_dicke_state)
from arraylight.errors import InvalidArgumentError

K0 = 2.0 * np.pi


def test_sublevel_order():
    assert SUBLEVELS == (-1, 0, 1)


def test_single_atom_lattice_at_origin():
    arr = build_lattice(1, 1, 1, 0.5)
    assert arr.n_atoms == 1
    assert np.allclose(arr.positions, 0.0)


def test_lattice_centered_and_ordered():
    d = 0.4
    arr = build_lattice(2, 3, 2, d)
    assert arr.n_atoms == 12
    assert len(arr) == 12
    assert np.allclose(arr.positions.mean(axis=0), 0.0, atol=1e-14)
    # x varies fastest
    assert np.allclose(arr.positions[1] - arr.positions[0], [d, 0, 0])
    assert np.allclose(arr.positions[2] - arr.positions[0], [0, d, 0])
    assert np.allclose(arr.positions[6] - arr.positions[0], [0, 0, d])
    # nearest-neighbour spacing is d
    diff = arr.positions[:, None, :] - arr.positions[None, :, :]
    dist = np.linalg.norm(diff, axis=-1)
    np.fill_diagonal(dist, np.inf)
    assert np.isclose(dist.min(), d)


def test_lattice_extent():
    arr = build_lattice(4, 1, 1, 0.7)
    xs = np.sort(arr.positions[:, 0])
    assert np.allclose(xs, [-1.05, -0.35, 0.35, 1.05])


def test_lattice_invalid_inputs():
    with pytest.raises(InvalidArgumentError):
        build_lattice(0, 1, 1, 0.5)
    with pytest.raises(InvalidArgumentError):
        build_lattice(2, 2, 2, 0.0)
    with pytest.raises(InvalidArgumentError):
        build_lattice(2, 2, 2, -0.3)


def test_atom_array_rejects_coincident_atoms():
    pos = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    with pytest.raises(InvalidArgumentError):
        AtomArray(pos)


def test_atom_array_positions_read_only():
    arr = build_lattice(2, 2, 1, 0.5)
    with pytest.raises(ValueError):
        arr.positions[0, 0] = 99.0


def test_timed_dicke_normalized_with_phase_gradient():
    arr = build_lattice(3, 3, 3, 0.6)
    k = np.array([0.0, 0.0, K0])
    state = timed_dicke_state(arr, k)
    assert np.isclose(state.norm_squared, 1.0, atol=1e-14)
    assert np.allclose(state.beta, 0.0)
    expected = np.exp(-1j * arr.positions @ k) / np.sqrt(27)
    assert np.allclose(state.a, expected)


def test_timed_dicke_bragg_commensurate():
    # odd extents keep the centered lattice on integer multiples of d, so
    # d = 1 with k along z gives identical phases on every atom
    arr = build_lattice(3, 3, 3, 1.0)
    state = timed_dicke_state(arr, np.array([0.0, 0.0, K0]))
    assert np.allclose(state.a, state.a[0], atol=1e-12)


def test_timed_dicke_zero_k_is_uniform():
    arr = build_lattice(2, 2, 2, 0.8)
    state = timed_dicke_state(arr, np.zeros(3))
    assert np.allclose(state.a, 1.0 / np.sqrt(8))


def test_single_f_excitation():
    arr = build_lattice(2, 2, 1, 0.5)
    state = single_f_excitation(arr, 2)
    assert state.a[2] == 1.0
    assert np.isclose(state.norm_squared, 1.0)
    with pytest.raises(InvalidArgumentError):
        single_f_excitation(arr, 4)


def test_amplitude_state_shapes_and_copy():
    a = np.array([1.0 + 0j, 0.0])
    state = AmplitudeState(a)
    assert state.beta.shape == (2, 3)
    assert state.t == 0.0
    other = state.copy()
    other.a[0] = 0.0
    assert state.a[0] == 1.0
    with pytest.raises(InvalidArgumentError):
        AmplitudeState(a, beta=np.zeros((3, 3), dtype=complex))


def test_laser_drive_validation():
    drive = LaserDrive(2.0, 10.0)
    assert drive.envelope(0.0) == 1.0
    assert drive.target_sublevel == 1
    with pytest.raises(InvalidArgumentError):
        LaserDrive(-1.0, 0.0)
    with pytest.raises(InvalidArgumentError):
        LaserDrive(1.0, 0.0, target_sublevel=2)


# the raises of the module that no other test reaches, and those of the
# same constructors that one does, each with its input and message
_BAD_INPUTS = [
    (lambda: AtomArray(np.zeros((2, 2))),
     "positions must be a nonempty (N, 3) array"),
    (lambda: AtomArray(np.zeros((2, 2, 3))),
     "positions must be a nonempty (N, 3) array"),
    (lambda: AtomArray(np.zeros((0, 3))),
     "positions must be a nonempty (N, 3) array"),
    (lambda: AtomArray(np.array([[0.0, 0.0, 0.5], [0.3, 0.0, 0.0],
                                 [0.0, 0.0, 0.5]])),
     "coincident atom positions"),
    # NaN passes the coincidence check (nan <= 0 is False)
    (lambda: AtomArray(np.array([[0.0, 0.0, 0.0], [np.nan, 0.0, 0.0]])),
     "positions must be finite"),
    (lambda: build_lattice(2, 1, 1, 0.0),
     "lattice spacing must be finite and positive"),
    (lambda: build_lattice(2, 1, 1, np.nan),
     "lattice spacing must be finite and positive"),
    (lambda: build_lattice(2, 1, 1, np.inf),
     "lattice spacing must be finite and positive"),
    (lambda: LaserDrive(np.nan, 0.0), "omega_L0 must be finite and >= 0"),
    (lambda: LaserDrive(np.inf, 0.0), "omega_L0 must be finite and >= 0"),
    (lambda: LaserDrive(1.0, np.nan), "delta must be finite"),
    (lambda: AmplitudeState(np.zeros((2, 2))),
     "a must be a nonempty complex vector"),
    (lambda: AmplitudeState([]), "a must be a nonempty complex vector"),
    (lambda: AmplitudeState(np.zeros(2), np.zeros((3, 3))),
     "beta must have shape (N, 3)"),
    (lambda: AmplitudeState(np.zeros(2), np.zeros((2, 2))),
     "beta must have shape (N, 3)"),
    (lambda: timed_dicke_state(build_lattice(2, 1, 1, 0.5), [0.0, K0]),
     "k_gf must be a 3-vector"),
    (lambda: timed_dicke_state(build_lattice(2, 1, 1, 0.5), np.eye(3)),
     "k_gf must be a 3-vector"),
    (lambda: timed_dicke_state(build_lattice(2, 1, 1, 0.5),
                               [np.nan, 0.0, 1.0]),
     "k_gf must be finite"),
]


@pytest.mark.parametrize("call, message", _BAD_INPUTS)
def test_bad_inputs_raise_typed_errors(call, message):
    with pytest.raises(InvalidArgumentError) as info:
        call()
    assert str(info.value) == message
