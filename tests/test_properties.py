"""Invariants of the coupling blocks and the adiabatic model over random
arrays (N <= 6, spacing >= 0.1), and of the rotation-symmetry blocks over
random lattices and rotation-symmetric arrays, and of the observables
read from the stored block coordinates."""

import itertools
import os
import tempfile

import numpy as np
from hypothesis import Phase, assume, given, settings
from _adiabatic_ode import adiabatic_ode
from _references import (_orbit_bases, flux_blocks, model_matrix,
                         project_table_padded, states)
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from arraylight import _kernels
from arraylight.core import (SUBLEVELS, AmplitudeState, AtomArray,
                             LaserDrive, build_lattice, single_f_excitation,
                             timed_dicke_state)
from arraylight.dynamics import propagate_eigen, propagate_ode
from arraylight.envelope import PulseEnvelope
from arraylight.farfield import AngularGrid, _flux_operators, waveform
from arraylight.greens import coupling_block
from arraylight.hamiltonian import (assemble, eigenmodes, project_table,
                                    rotation_blocks)
from arraylight.shaping import (AdiabaticModel, adiabatic_simulate,
                                reparametrize)

K0 = 2.0 * np.pi
# a failing example is reported as found, without shrinking: each one runs
# whole propagations
NO_SHRINK = (Phase.explicit, Phase.reuse, Phase.generate, Phase.target)


@st.composite
def _positions(draw):
    n = draw(st.integers(1, 6))
    coord = st.floats(-1.0, 1.0)
    pos = np.array(draw(st.lists(st.tuples(coord, coord, coord),
                                 min_size=n, max_size=n)))
    dist = np.linalg.norm(pos[:, None] - pos[None], axis=-1)
    np.fill_diagonal(dist, np.inf)
    assume(dist.min() >= 0.1)
    return pos


@settings(max_examples=50, deadline=None)
@given(_positions())
def test_pair_blocks_reciprocal(pos):
    blocks = _kernels.pair_blocks(pos)
    assert np.array_equal(blocks, blocks.transpose(1, 0, 2, 3))


@settings(max_examples=50, deadline=None)
@given(_positions(), st.floats(1.0, 40.0), st.floats(100.0, 400.0),
       st.sampled_from((-1.0, 1.0)))
def test_adiabatic_matrix_matches_coupling_blocks(pos, omega, delta, sign):
    # da/dtau = [(-i ls - ge/2) I - (ge/2) G_{nu0 nu0}] a, pair by pair
    delta *= sign
    n = len(pos)
    for ts in (-1, 0, 1):
        model = AdiabaticModel(AtomArray(pos), omega, delta,
                               target_sublevel=ts)
        c = ts + 1
        coupling = np.zeros((n, n), dtype=complex)
        for l in range(n):
            for j in range(n):
                if l != j:
                    coupling[l, j] = coupling_block(pos[l], pos[j])[c, c]
        ge, ls = model.gamma_eff, model.light_shift
        ref = (-1j * ls - 0.5 * ge) * np.eye(n) - 0.5 * ge * coupling
        assert np.linalg.norm(model.matrix - ref) \
            <= 1e-13 * np.linalg.norm(ref)


@settings(max_examples=10, deadline=None, phases=NO_SHRINK)
@given(_positions(), st.integers(0, 2**32 - 1))
def test_reparametrization_identity(pos, seed):
    # the envelope-driven solution is the reference at tau = integral f^2,
    # to criterion 09's 1e-6
    model = AdiabaticModel(AtomArray(pos), 42.0, 120.0)
    rng = np.random.default_rng(seed)
    a0 = rng.normal(size=len(pos)) + 1j * rng.normal(size=len(pos))
    a0 /= np.linalg.norm(a0)
    ref = adiabatic_simulate(model, a0, 300.0)
    env = PulseEnvelope.from_samples(np.linspace(0.0, 120.0, 41),
                                     rng.uniform(0.1, 1.0, 41))
    t_q = np.linspace(0.0, 120.0, 241)
    direct = adiabatic_ode(model, a0, env, t_q)
    assert np.max(np.abs(direct - reparametrize(ref, env, t_q))) <= 1e-6


def _rotation_operator(H, order):
    """Dense U of the C_order rotation about z, built from the positions:
    atom l's amplitudes move to the atom at R r_l, sublevel nu times w^nu
    and a_l times w^nu0, with w = exp(-2 pi i/order)."""
    pos = H.array.positions
    x, y, z = pos.T
    rotated = np.column_stack([-y, x, z] if order == 4 else [-x, -y, z])
    perm = np.array([np.flatnonzero((pos == p).all(axis=1))[0]
                     for p in rotated])
    w = np.exp(-2j * np.pi / order)
    n, m = H.n_atoms, H.n_sublevels
    U = np.zeros((H.dim, H.dim), dtype=complex)
    U[perm, np.arange(n)] = w ** H.drive.target_sublevel
    for s, nu in enumerate(H.sublevels):
        U[n + m * perm + s, n + m * np.arange(n) + s] = w ** nu
    return U


def _inversion_permutation(H):
    """Full-space index map of the inversion r -> -r: a_l and each
    beta_l^nu move to the atom at -r_l, with no phase (P e_i = e_p[i])."""
    pos = H.array.positions
    inv = np.array([np.flatnonzero((pos == -r).all(axis=1))[0] for r in pos])
    n, m = H.n_atoms, H.n_sublevels
    return np.concatenate([inv, n + (m * inv[:, None]
                                     + np.arange(m)).ravel()])


_SUBSETS = [(-1,), (0,), (1,), (-1, 0), (-1, 1), (0, 1), (-1, 0, 1)]


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 3),
       st.floats(0.2, 0.9), st.sampled_from(_SUBSETS), st.data())
def test_rotation_blocks_are_orthonormal_and_commute(nx, ny, nz, d, subs,
                                                      data):
    # square lattices (odd nx has a fixed-point column) get C4, the others
    # C2, and every centred lattice has the inversion.  With it (C4h, C2h)
    # and without it (the ODE's blocks) the bases are jointly orthonormal
    # and span the whole space
    nu0 = data.draw(st.sampled_from(subs))
    H = assemble(build_lattice(nx, ny, nz, d),
                 LaserDrive(1.3, 0.7, target_sublevel=nu0),
                 include_sublevels=subs)
    order = 4 if nx == ny else 2
    U = _rotation_operator(H, order)
    P = np.eye(H.dim)[:, _inversion_permutation(H)]
    for inversion in (True, False):
        bases = rotation_blocks(H, inversion=inversion)
        blocks = [Qk.lift(np.eye(Qk.shape[1])) for Qk in bases]
        Q = np.hstack(blocks)
        assert Q.shape == (H.dim, H.dim)
        assert np.max(np.abs(Q.conj().T @ Q - np.eye(H.dim))) <= 1e-14
        # each basis spans one eigenspace of U, an order-th root of 1, and
        # with inversion one of P too, a parity sign; the (phase, sign)
        # pairs are distinct, and each basis's irrep label (k, p) names
        # them: phase w^k, sign p (0 without inversion)
        labels = []
        for basis, Qk in zip(bases, blocks):
            phase = (Qk.conj().T @ U @ Qk)[0, 0]
            assert np.max(np.abs(U @ Qk - phase * Qk)) <= 1e-14
            assert abs(phase ** order - 1.0) <= 1e-14
            k, p = basis.irrep
            assert abs(phase - np.exp(-2j * np.pi * k / order)) <= 1e-14
            sign = 1.0
            if inversion:
                sign = (Qk.conj().T @ P @ Qk)[0, 0]
                assert abs(abs(sign) - 1.0) <= 1e-14
                assert abs(sign.imag) <= 1e-14
                assert np.max(np.abs(P @ Qk - sign * Qk)) <= 1e-14
            assert p == (round(sign.real) if inversion else 0)
            labels.append(phase + 4.0 * sign.real)
        assert np.min(np.abs(np.subtract.outer(labels, labels))
                      + np.eye(len(labels))) > 0.5
        # EffectiveHamiltonian.block keeps each Q_k^H G Q_k as its constant
        # excited part and the drive pairing
        gen_blocks = [H.block(Qk) for Qk in bases]
        for f in (0.0, 0.5, 1.0):
            G = H.block().matrix(f)
            assert np.linalg.norm(U @ G - G @ U) <= 1e-13 * np.linalg.norm(G)
            for Qk, blk in zip(blocks, gen_blocks):
                assert (np.max(np.abs(blk.matrix(f) - Qk.conj().T @ G @ Qk))
                        <= 1e-14 * np.linalg.norm(G))
        excited = [Q.excited(H.n_atoms)
                   for Q in rotation_blocks(H, inversion=inversion)]
        assert sum(Qk.shape[1] for Qk in excited) == H.excited_block.shape[0]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.integers(1, 4),
       st.floats(0.2, 0.9), st.sampled_from(_SUBSETS),
       st.sampled_from(SUBLEVELS), st.booleans(), st.booleans())
def test_projector_bases_match_the_orbit_loop_bit_for_bit(nx, ny, nz, d, subs,
                                                          nu0, inversion,
                                                          lifted):
    # the character-table projector images against the orbit-by-orbit
    # construction: the same rows, column pointers and coefficient bits,
    # the signs of zero parts included.  A lattice moved along z keeps C4
    # and loses the inversion; an undriven sublevel outside the model
    # leaves irreps with metastable columns only
    pos = build_lattice(nx, ny, nz, d).positions + [0.0, 0.0, 0.1 * lifted]
    omega = 2.0 if nu0 in subs else 0.0
    H = assemble(AtomArray(pos), LaserDrive(omega, 1.0, target_sublevel=nu0),
                 include_sublevels=subs)
    got = rotation_blocks(H, inversion=inversion)
    want = _orbit_bases(H, inversion)
    assert len(got) == len(want)
    for Q, P in zip(got, want):
        assert Q.n_rows == P.n_rows
        assert np.array_equal(Q.rows, P.rows)
        assert np.array_equal(Q.indptr, P.indptr)
        assert np.array_equal(Q.coefficients.view(np.int64),
                              P.coefficients.view(np.int64))


@settings(max_examples=30, deadline=None, phases=NO_SHRINK)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3),
       st.floats(0.3, 0.8), st.sampled_from(SUBLEVELS),
       st.sampled_from(("z", "x")), st.booleans())
def test_inversion_blocks_match_the_whole_space(nx, ny, nz, d, nu0,
                                                direction, square):
    # the generator of a centred lattice commutes exactly with the atom
    # permutation r -> -r; the spectral path's blocks (split by inversion
    # too, orthonormal by the test above) give the whole-space spectrum and
    # propagation
    arr = build_lattice(nx, ny, nz, d)
    env = (PulseEnvelope.square(0.6, 1.0, 0.3) if square
           else PulseEnvelope.constant())
    drive = LaserDrive(2.0, 3.0, envelope=env, target_sublevel=nu0)
    H = assemble(arr, drive)
    p = _inversion_permutation(H)
    for f in (0.0, 0.5, 1.0):
        G = H.block().matrix(f)
        assert np.array_equal(G[np.ix_(p, p)], G)
    # the same lattice moved off the z axis has neither symmetry: the
    # whole generator, one block
    moved = assemble(AtomArray(arr.positions + np.array([0.37, 0.0, 0.0])),
                     drive)
    assert [Q.shape for Q in rotation_blocks(moved)] == [(moved.dim,) * 2]
    lam_b, lam_f = eigenmodes(H).eigenvalues, np.linalg.eigvals(
        moved.excited_block)
    assert _same_multiset(lam_b, lam_f, 1e-10 * np.max(np.abs(lam_f)))
    k_gf = [0.0, 0.0, K0] if direction == "z" else [K0, 0.0, 0.0]
    psi0 = timed_dicke_state(arr, k_gf)
    t = np.linspace(0.0, 1.5, 16)
    block, full = (propagate_eigen(ham, psi0, t) for ham in (H, moved))
    assert all(dims == [H.dim] for dims in full.eigen_blocks)
    assert np.max(np.abs(states(block) - states(full))) <= 1e-10


def test_ode_keeps_the_rotation_blocks():
    # the README lattice, z-directed: the spectral path diagonalizes the
    # even and odd halves of the driven C4 irrep, the ODE integrates the
    # whole irrep as one block
    arr = build_lattice(3, 3, 8, 0.6)
    H = assemble(arr, LaserDrive(2.0, 10.0))
    psi0 = timed_dicke_state(arr, [0.0, 0.0, K0])
    t = np.linspace(0.0, 2.0, 11)
    eig = propagate_eigen(H, psi0, t)
    ode = propagate_ode(H, psi0, 2.0, tol=1e-10, atol=1e-13, times=t)
    assert eig.eigen_blocks == [[40, 40]]
    assert [blk.dim for blk in ode.blocks] == [80]
    assert np.max(np.abs(states(ode) - states(eig))) <= 1e-9


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.integers(1, 4),
       st.floats(0.2, 0.9), st.sampled_from(("lattice", "lifted", "free")),
       st.sampled_from(_SUBSETS), st.booleans(), st.data())
def test_project_table_matches_the_padded_projection(nx, ny, nz, d, kind,
                                                     subs, inversion, data):
    # the first-row rule against the table's rows summed at every padded
    # orbit position, on every pair of excited bases: the coupling and the
    # flux helicity sum with parity +1, the helicity difference with -1.
    # The lattice has C4h (C2h for nx != ny), the lattice moved along z
    # its rotation alone, and moved off the axis no symmetry (the identity
    # basis).  The blocks the rule zeroes are exactly 0
    lattice = build_lattice(nx, ny, nz, d)
    arr = {"lattice": lattice,
           "lifted": AtomArray(lattice.positions + [0.0, 0.0, 0.13]),
           "free": AtomArray(lattice.positions + [0.1, 0.0, 0.0])}[kind]
    nu0 = data.draw(st.sampled_from(subs))
    H = assemble(arr, LaserDrive(1.3, 0.7, target_sublevel=nu0),
                 include_sublevels=subs)
    excited = (Q.excited(H.n_atoms)
               for Q in rotation_blocks(H, inversion=inversion))
    bases = [Q for Q in excited if Q.shape[1]]
    assert kind != "free" or [Q.irrep for Q in bases] == [(0, 0)]
    tables = H.array.pair_tables
    sel = np.asarray(H.columns)
    for table, parity in ((tables.coupling, 1), (tables.flux_total, 1),
                          (tables.flux_diff, -1)):
        scale = np.max(np.abs(table[:, sel[:, None], sel]))
        for Q in bases:
            got = project_table(H, table, Q, bases, parity)
            want = project_table_padded(H, table, Q, bases)
            assert np.max(np.abs(got - want)) <= 1e-14 * scale
            partner = (Q.irrep[0], parity * Q.irrep[1])
            zero = np.concatenate([np.full(P.shape[1], P.irrep != partner)
                                   for P in bases])
            assert not np.any(got[:, zero])


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 3),
       st.floats(0.2, 0.9), st.sampled_from(_SUBSETS), st.booleans(),
       st.data())
def test_projected_flux_operators_match_the_dense_ones(nx, ny, nz, d, subs,
                                                       inversion, data):
    # waveform's operators, projected from the first rows of each block's
    # columns in the flux tables, against Q_e^H F Q_e of the dense (N m, N m)
    # operators, on the stacked excited columns of every block and of a
    # random subset of them
    nu0 = data.draw(st.sampled_from(subs))
    H = assemble(build_lattice(nx, ny, nz, d),
                 LaserDrive(1.3, 0.7, target_sublevel=nu0),
                 include_sublevels=subs)
    bases = [Qk for Qk in rotation_blocks(H, inversion=inversion)
             if Qk.n_meta(H.n_atoms) < Qk.shape[1]]
    picked = data.draw(st.lists(st.sampled_from(range(len(bases))),
                                min_size=1, unique=True))
    blocks = [H.block(bases[i]) for i in sorted(picked)]
    Qe = np.hstack([blk.basis.excited(H.n_atoms).lift(
        np.eye(blk.dim - blk.n_meta)) for blk in blocks])
    dense = [model_matrix(F, H.columns)
             for F in flux_blocks(H.array.positions)]
    for got, F in zip(_flux_operators(H, blocks), dense):
        assert np.max(np.abs(got - Qe.conj().T @ F @ Qe)) <= 1e-14
    # without a symmetry: the dense operators themselves
    for got, F in zip(_flux_operators(H, [H.block()]), dense):
        assert np.max(np.abs(got - F)) <= 1e-14


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.integers(1, 5),
       st.floats(0.05, 2.0), st.integers(0, 2**32 - 1))
def test_lattice_direction_sums_match_the_direct_sum(nx, ny, nz, d, seed):
    # the per-axis contractions of a lattice against the direct sum of the
    # free-form path and against exp(i k0 dirs.pos) s, within 1e-13 of
    # max |V|, on random unit directions, a product grid and one
    # direction; lifted off the lattice, the same dims and spacing take
    # the direct path itself, bit for bit
    arr = build_lattice(nx, ny, nz, d)
    rng = np.random.default_rng(seed)
    s = rng.normal(size=(arr.n_atoms, 3)) \
        + 1j * rng.normal(size=(arr.n_atoms, 3))
    dirs = rng.normal(size=(17, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    grid = AngularGrid(*rng.integers(2, 9, size=2))
    for D in (dirs, grid.dirs, dirs[:1]):
        got = _kernels.direction_sums(D, arr.positions, s, arr.dims,
                                      arr.spacing)
        ref = np.exp(1j * K0 * D @ arr.positions.T) @ s
        scale = np.max(np.abs(ref))
        assert np.max(np.abs(got - _kernels.direction_sums(
            D, arr.positions, s))) <= 1e-13 * scale
        assert np.max(np.abs(got - ref)) <= 1e-13 * scale
    lifted = arr.positions + [0.0, 0.0, 0.25 * d]
    assert _kernels._grid_index(lifted, arr.dims, arr.spacing) is None
    got = _kernels.direction_sums(dirs, lifted, s, arr.dims, arr.spacing)
    assert np.array_equal(got, _kernels.direction_sums(dirs, lifted, s))
    ref = np.exp(1j * K0 * dirs @ lifted.T) @ s
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


@st.composite
def _symmetric_positions(draw):
    """C4 or C2 orbits of 1-3 random points about the z axis, plus up to
    two atoms on the axis; spacing >= 0.2."""
    order = draw(st.sampled_from((4, 2)))
    coord = st.floats(-0.8, 0.8)
    seeds = draw(st.lists(st.tuples(coord, coord, coord), min_size=1,
                          max_size=3))
    axis = draw(st.lists(coord, max_size=2))
    pos = []
    for x, y, z in seeds:
        for _ in range(order):
            pos.append((x, y, z))
            x, y = (-y, x) if order == 4 else (-x, -y)
    pos += [(0.0, 0.0, z) for z in axis]
    pos = np.array(pos)
    dist = np.linalg.norm(pos[:, None] - pos[None], axis=-1)
    np.fill_diagonal(dist, np.inf)
    assume(dist.min() >= 0.2)
    return pos


def _same_multiset(a, b, tol):
    rows, cols = linear_sum_assignment(np.abs(a[:, None] - b[None, :]))
    return len(a) == len(b) and np.max(np.abs(a[rows] - b[cols])) <= tol


@settings(max_examples=40, deadline=None, phases=NO_SHRINK)
@given(_symmetric_positions(), st.sampled_from(SUBLEVELS),
       st.sampled_from(("z", "x", "single", "small")), st.booleans(),
       st.floats(0.5, 3.0), st.floats(-5.0, 5.0))
def test_block_path_matches_full_path(pos, nu0, state, square, omega, delta):
    # the same array moved off the z axis has no rotation symmetry, so it
    # runs the full-matrix path on the same generator
    env = (PulseEnvelope.square(1.0, 1.0, 0.4) if square
           else PulseEnvelope.constant())
    drive = LaserDrive(omega, delta, envelope=env, target_sublevel=nu0)
    sym = AtomArray(pos)
    moved = AtomArray(pos + np.array([0.37, 0.0, 0.0]))
    H_sym, H_full = assemble(sym, drive), assemble(moved, drive)
    assert all(Q.shape[1] < H_sym.dim for Q in rotation_blocks(H_sym))
    assert [Q.shape for Q in rotation_blocks(H_full)] == [(H_full.dim,) * 2]
    z_state = timed_dicke_state(sym, [0.0, 0.0, K0])
    x_state = timed_dicke_state(sym, [K0, 0.0, 0.0])
    # "small": a weak admixture in other irreps must be propagated too
    psi0 = {"z": z_state, "x": x_state,
            "single": single_f_excitation(sym, 0),
            "small": AmplitudeState(z_state.a + 1e-7 * x_state.a)}[state]
    t = np.linspace(0.0, 3.0, 31)
    block = propagate_eigen(H_sym, psi0, t)
    full = propagate_eigen(H_full, psi0, t)
    assert all(dims == [H_full.dim] for dims in full.eigen_blocks)
    assert np.max(np.abs(states(block) - states(full))) <= 1e-10
    # the ODE under a ramped drive, where the spectral path does not
    # apply; the two runs choose their own steps at rtol 1e-10, atol 1e-13,
    # and over 150 random examples they differed by at most 8.4e-11
    ramp = LaserDrive(omega, delta, target_sublevel=nu0,
                      envelope=PulseEnvelope.from_samples(
                          [0.0, 0.8, 1.9, 3.0], [0.0, 1.0, 0.3, 0.6]))
    block, full = (propagate_ode(assemble(arr, ramp), psi0, 3.0, tol=1e-10,
                                 atol=1e-13, times=t) for arr in (sym, moved))
    assert np.max(np.abs(states(block) - states(full))) <= 1e-9
    # off the grid: integrated from the stored sample before 1.234
    assert (np.max(np.abs(block.state_at(1.234) - full.state_at(1.234)))
            <= 1e-9)
    lam_b, lam_f = eigenmodes(H_sym).eigenvalues, eigenmodes(H_full).eigenvalues
    assert _same_multiset(lam_b, lam_f, 1e-10 * np.max(np.abs(lam_f)))


@settings(max_examples=30, deadline=None, phases=NO_SHRINK)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3),
       st.floats(0.3, 0.8), st.sampled_from(("z", "x")), st.booleans(),
       st.sampled_from(SUBLEVELS))
def test_block_observables_match_the_lifted_states(nx, ny, nz, d, direction,
                                                   square, nu0):
    # flux, state side, populations, norm and the CSV's a_j, read from the
    # stored block coordinates, against the same quantities of the lifted
    # full-space states; a z-directed state touches one block, an
    # x-directed one several.  The lattice moved along z keeps its rotation
    # but loses the inversion: its blocks are whole rotation irreps, which
    # the helicity difference couples to themselves alone
    lattice = build_lattice(nx, ny, nz, d)
    env = (PulseEnvelope.square(0.6, 1.0, 0.3) if square
           else PulseEnvelope.constant())
    lifted = AtomArray(lattice.positions + [0.0, 0.0, 0.13])
    for arr, inversion in ((lattice, True), (lifted, False)):
        _check_block_observables(arr, env, direction, nx == ny, nu0,
                                 inversion)


def _check_block_observables(arr, env, direction, square_lattice, nu0,
                             inversion):
    H = assemble(arr, LaserDrive(2.0, 3.0, envelope=env,
                                 target_sublevel=nu0))
    k_gf = [0.0, 0.0, K0] if direction == "z" else [K0, 0.0, 0.0]
    psi0 = timed_dicke_state(arr, k_gf)
    n, t = arr.n_atoms, np.linspace(0.0, 1.5, 16)
    ops = [model_matrix(Q, H.columns)
           for Q in flux_blocks(arr.positions)]
    # F+ + F- commutes with the rotation and the inversion: it is block
    # diagonal over every irrep.  F+ - F- commutes with the rotation but is
    # odd under inversion: it couples each irrep only to its parity
    # partner, the other one of the same rotation phase, and without the
    # inversion each rotation irrep to itself
    excited = (Q.excited(n) for Q in rotation_blocks(H))
    bases = [Qk.lift(np.eye(Qk.shape[1])) for Qk in excited if Qk.shape[1]]
    U = _rotation_operator(H, 4 if square_lattice else 2)[n:, n:]
    phases = [(Qk.conj().T @ U @ Qk)[0, 0] for Qk in bases]
    total, diff = ops[0] + ops[1], ops[0] - ops[1]
    for (Qk, pk), (Ql, pl) in itertools.product(zip(bases, phases), repeat=2):
        if Qk is not Ql:
            assert np.max(np.abs(Qk.conj().T @ total @ Ql)) <= 1e-14
        if (Qk is Ql and inversion) or abs(pk - pl) > 0.5:
            assert np.max(np.abs(Qk.conj().T @ diff @ Ql)) <= 1e-14
    # a z-directed state lies in one rotation irrep: the spectral path
    # touches its two parity halves at most, the ODE the whole irrep
    for traj, n_blocks in ((propagate_eigen(H, psi0, t), 2),
                           (propagate_ode(H, psi0, 1.5, times=t), 1)):
        if direction == "z":
            assert len(traj.blocks) <= n_blocks
        psi = states(traj)
        beta = psi[n:]
        wave = waveform(traj, allow_truncation=True)
        for F, got in zip(ops, (wave.flux_plus, wave.flux_minus)):
            want = np.real(np.einsum("ik,ik->k", beta.conj(), F @ beta))
            assert np.max(np.abs(got - want)) <= 1e-13
        total = np.real(np.einsum("ik,ik->k", beta.conj(),
                                  (ops[0] + ops[1]) @ beta))
        cumulative = np.concatenate(
            [[0.0], np.cumsum(0.5 * (total[1:] + total[:-1]) * np.diff(t))])
        assert np.max(np.abs(wave.cumulative - cumulative)) <= 1e-13
        norm2 = np.sum(np.abs(psi) ** 2, axis=0)
        assert np.max(np.abs(wave.state_side - (1.0 - norm2))) <= 1e-13
        assert np.max(np.abs(traj.norm_squared() - norm2)) <= 1e-13
        meta, exc = traj.populations()
        assert np.max(np.abs(meta - np.sum(np.abs(psi[:n]) ** 2, axis=0))) \
            <= 1e-13
        pops = np.abs(beta.reshape(n, H.n_sublevels, -1)) ** 2
        assert np.max(np.abs(exc[:, H.columns] - pops.sum(axis=0).T)) \
            <= 1e-13
        assert not np.any(np.delete(exc, H.columns, axis=1))
        atoms = (0, n - 1)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "trajectory.csv")
            traj.to_csv(path, atoms=atoms)
            data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        for i, j in enumerate(atoms):
            a_j = data[:, 6 + 2 * i] + 1j * data[:, 7 + 2 * i]
            assert np.max(np.abs(a_j - psi[j])) <= 1e-13
