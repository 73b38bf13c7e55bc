"""Generator assembly, structure and eigenmode analysis."""

import numpy as np
import pytest
from _references import (Undamped, _orbit_bases, apply, model_matrix,
                         right_vectors, table_blocks)
from scipy.optimize import linear_sum_assignment

from arraylight import _kernels
from arraylight.core import (AmplitudeState, AtomArray, LaserDrive,
                             build_lattice, single_f_excitation)
from arraylight.errors import InvalidArgumentError
from arraylight.greens import coupling_block, eval_f_g
from arraylight.hamiltonian import (assemble, eigenmodes, project_table,
                                    rotation_blocks)

K0 = 2.0 * np.pi


def test_single_atom_block():
    arr = build_lattice(1, 1, 1, 0.5)
    H = assemble(arr, LaserDrive(0.0, 3.0))
    assert H.dim == 4
    B = H.excited_block
    assert np.allclose(B, (1j * 3.0 - 0.5) * np.eye(3))


def test_single_atom_modes():
    arr = build_lattice(1, 1, 1, 0.5)
    spec = eigenmodes(assemble(arr, LaserDrive(0.0, 0.0)))
    assert spec.eigenvalues.size == 3
    assert np.allclose(spec.rates, 1.0, atol=1e-14)
    assert np.allclose(spec.shifts, 0.0, atol=1e-14)
    assert not spec.subradiant.any()
    assert not (spec.rates > 1.0).any()


def test_mode_count_follows_sublevels():
    arr = build_lattice(2, 2, 1, 0.6)
    for subs, count in (((-1, 0, 1), 12), ((0,), 4), ((1,), 4), ((-1, 1), 8)):
        H = assemble(arr, LaserDrive(0.0, 0.0, target_sublevel=subs[0]),
                     include_sublevels=subs)
        assert eigenmodes(H).eigenvalues.size == count


def test_trace_invariance():
    # pair couplings have zero diagonal, so the trace is N_m (i delta - 1/2)
    arr = build_lattice(3, 2, 2, 0.4)
    delta = 4.0
    H = assemble(arr, LaserDrive(1.0, delta))
    n_m = 3 * arr.n_atoms
    assert np.isclose(np.trace(H.excited_block), n_m * (1j * delta - 0.5),
                      atol=1e-10)
    # eigenvalue sums inherit it
    spec = eigenmodes(H)
    assert np.isclose(spec.rates.sum(), n_m, atol=1e-8)
    assert np.isclose(spec.shifts.sum(), -n_m * delta, atol=1e-8)


def test_pair_coupling_matches_block():
    arr = build_lattice(2, 1, 1, 0.45)
    H = assemble(arr, LaserDrive(0.0, 0.0))
    B = H.excited_block
    G01 = coupling_block(arr.positions[0], arr.positions[1])
    assert np.allclose(B[0:3, 3:6], -0.5 * G01, atol=1e-14)
    assert np.allclose(B[3:6, 0:3], -0.5 * G01, atol=1e-14)


def test_translation_invariance():
    rng = np.random.default_rng(4)
    arr = build_lattice(2, 2, 2, 0.55)
    shifted = AtomArray(arr.positions + rng.normal(size=3))
    drive = LaserDrive(1.3, 2.0)
    H0 = assemble(arr, drive)
    H1 = assemble(shifted, drive)
    assert np.allclose(H0.excited_block, H1.excited_block, atol=1e-12)


def test_z_chain_sublevel_blocks_decouple():
    # atoms on the z axis only: u = e_0, no Zeeman mixing
    arr = build_lattice(1, 1, 5, 0.3)
    H = assemble(arr, LaserDrive(0.0, 0.0))
    B = H.excited_block
    n = arr.n_atoms
    idx = {nu: [3 * j + c for j in range(n)]
           for c, nu in enumerate((-1, 0, 1))}
    for nu_a in (-1, 0, 1):
        for nu_b in (-1, 0, 1):
            if nu_a == nu_b:
                continue
            sub = B[np.ix_(idx[nu_a], idx[nu_b])]
            assert np.max(np.abs(sub)) < 1e-14


def test_drive_block_placement():
    arr = build_lattice(2, 1, 1, 0.5)
    omega = 1.8
    H = assemble(arr, LaserDrive(omega, 0.0, target_sublevel=1))
    n = 2
    expected = np.zeros((8, 8), dtype=complex)
    for j in range(n):
        col = n + 3 * j + 2  # nu = +1 column within atom j
        expected[j, col] = -0.5j * omega
        expected[col, j] = -0.5j * omega
    G0 = H.block().matrix(0.0)
    assert np.allclose(H.block().matrix(1.0) - G0, expected, atol=1e-15)
    assert np.allclose(H.block().matrix(0.5) - G0, 0.5 * expected,
                       atol=1e-15)
    # without drive there is no a-sector coupling; the rest is the block
    assert np.allclose(G0[:n, :], 0.0)
    assert np.allclose(G0[:, :n], 0.0)
    assert np.array_equal(G0[n:, n:], H.excited_block)
    assert H.excited_block.flags.c_contiguous
    assert not H.excited_block.flags.writeable


def _rel_err(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


def test_apply_matches_dense_generator():
    # the structured product of every block, the whole generator and each
    # rotation block, must equal the projected dense generator Q^H G Q
    rng = np.random.default_rng(23)
    subsets = [(-1,), (0,), (1,), (-1, 0), (-1, 1), (0, 1), (-1, 0, 1)]
    for _ in range(4):
        nx, ny, nz = rng.integers(1, 4, size=3)
        arr = build_lattice(int(nx), int(ny), int(nz), rng.uniform(0.2, 0.9))
        for subs in subsets:
            for target in subs:
                for omega, decay in ((rng.uniform(0.5, 50.0), True),
                                     (rng.uniform(0.5, 50.0), False),
                                     (0.0, True)):
                    drive = LaserDrive(omega, rng.uniform(-20.0, 20.0),
                                       target_sublevel=target)
                    H = assemble(arr, drive, include_sublevels=subs)
                    if not decay:
                        H = Undamped.of(H)
                    blocks = [H.block()] + [H.block(Q) for Q
                                            in rotation_blocks(H) or ()]
                    y = rng.normal(size=H.dim) + 1j * rng.normal(size=H.dim)
                    f = rng.uniform(0.0, 1.0)
                    # a stack of states, one envelope value per column
                    Y = (rng.normal(size=(H.dim, 5))
                         + 1j * rng.normal(size=(H.dim, 5)))
                    fs = rng.uniform(0.0, 1.0, size=5)
                    for blk in blocks:
                        Q = blk.basis
                        yb, Yb = Q.project(y), Q.project(Y)
                        want = Q.project(H.block().matrix(f) @ Q.lift(yb))
                        assert _rel_err(apply(blk, yb, f), want) < 1e-13
                        want = np.stack([Q.project(H.block().matrix(fk)
                                                   @ Q.lift(Yb[:, k]))
                                         for k, fk in enumerate(fs)], axis=1)
                        assert _rel_err(apply(blk, Yb, fs), want) < 1e-13


def test_driven_sublevel_must_be_included():
    arr = build_lattice(2, 1, 1, 0.5)
    with pytest.raises(InvalidArgumentError):
        assemble(arr, LaserDrive(1.0, 0.0, target_sublevel=1),
                 include_sublevels=(0,))


# every raise of the module with its message; the LAPACK failure guard of
# eigenmodes (NumericError, "eigendecomposition failed") is not reached:
# no input is known to make numpy's eigvals raise on a finite block
_BAD_INPUTS = [
    (lambda H: assemble(H.array, H.drive, include_sublevels=()),
     "include_sublevels must be a nonempty subset of {-1, 0, +1}"),
    (lambda H: assemble(H.array, H.drive, include_sublevels=(1, 2)),
     "include_sublevels must be a nonempty subset of {-1, 0, +1}"),
    (lambda H: assemble(H.array, H.drive, include_sublevels=(0,)),
     "driven sublevel is excluded from the model"),
    (lambda H: H.pack(AmplitudeState(np.zeros(3))),
     "state size does not match array"),
    (lambda H: H.pack(AmplitudeState(np.zeros(2), np.eye(2, 3))),
     "state has population in sublevels excluded from the model"),
]


@pytest.mark.parametrize("call, message", _BAD_INPUTS)
def test_bad_inputs_raise_typed_errors(call, message):
    H = assemble(build_lattice(2, 1, 1, 0.5),
                 LaserDrive(1.0, 0.0, target_sublevel=1),
                 include_sublevels=(0, 1))
    with pytest.raises(InvalidArgumentError) as info:
        call(H)
    assert str(info.value) == message


def test_pack_unpack_roundtrip():
    arr = build_lattice(2, 2, 1, 0.5)
    H = assemble(arr, LaserDrive(1.0, 0.0))
    rng = np.random.default_rng(9)
    a = rng.normal(size=4) + 1j * rng.normal(size=4)
    beta = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
    state = AmplitudeState(a, beta, t=1.5)
    vec = H.pack(state)
    assert vec.shape == (H.dim,)
    assert np.array_equal(vec[:4], a)
    assert np.array_equal(H.beta_matrix(vec), beta)


def test_pack_rejects_population_in_excluded_sublevels():
    arr = build_lattice(2, 1, 1, 0.5)
    H = assemble(arr, LaserDrive(1.0, 0.0, target_sublevel=0),
                 include_sublevels=(0,))
    beta = np.zeros((2, 3), dtype=complex)
    beta[0, 2] = 0.1  # nu = +1 excluded
    with pytest.raises(InvalidArgumentError):
        H.pack(AmplitudeState(np.zeros(2, dtype=complex), beta))


def test_two_atom_z_pair_modes():
    # symmetric/antisymmetric pairs per sublevel with rates 1 +- f_nn
    d = 0.4
    arr = build_lattice(1, 1, 2, d)
    spec = eigenmodes(assemble(arr, LaserDrive(0.0, 0.0)))
    t = eval_f_g(K0 * d, np.array([0.0, 0.0, 1.0]))
    f1 = t.f_part[0, 0]   # transverse sublevels +-1
    f0 = t.f_part[2, 2]   # pi sublevel
    expected = np.sort([1 + f1, 1 - f1, 1 + f1, 1 - f1, 1 + f0, 1 - f0])
    assert np.allclose(np.sort(spec.rates), expected, atol=1e-12)


def test_generator_residual_against_manual_rhs():
    # apply the assembled generator and re-derive the rhs from first parts,
    # for every sublevel subset and driven sublevel
    rng = np.random.default_rng(21)
    arr = build_lattice(2, 2, 1, 0.5)
    n = arr.n_atoms
    omega, delta = 1.7, 3.0
    G = {(l, j): coupling_block(arr.positions[l], arr.positions[j])
         for l in range(n) for j in range(n) if l != j}
    subsets = [(-1,), (0,), (1,), (-1, 0), (-1, 1), (0, 1), (-1, 0, 1)]
    for subs in subsets:
        cols = [nu + 1 for nu in subs]
        for target in subs:
            H = assemble(arr, LaserDrive(omega, delta, target_sublevel=target),
                         include_sublevels=subs)
            psi = rng.normal(size=H.dim) + 1j * rng.normal(size=H.dim)
            got = H.block().matrix(1.0) @ psi

            a = psi[:n]
            beta = np.zeros((n, 3), dtype=complex)
            beta[:, cols] = psi[n:].reshape(n, len(subs))
            da = -1j * (omega / 2) * beta[:, target + 1]
            dbeta = (1j * delta - 0.5) * beta
            dbeta[:, target + 1] += -1j * (omega / 2) * a
            for (l, j), Glj in G.items():
                dbeta[l] += -0.5 * Glj @ beta[j]
            ref = np.concatenate([da, dbeta[:, cols].ravel()])
            assert (np.max(np.abs(got - ref))
                    < 1e-12 * max(1.0, np.max(np.abs(ref))))


def test_no_decay_generator_is_antihermitian():
    arr = build_lattice(2, 1, 1, 0.5)
    H = Undamped.of(assemble(arr, LaserDrive(1.5, 2.0)))
    G = H.block().matrix(1.0)
    assert np.allclose(G, -G.conj().T, atol=1e-14)


def test_spectrum_csv(tmp_path):
    arr = build_lattice(1, 1, 3, 0.25)
    spec = eigenmodes(assemble(arr, LaserDrive(0.0, 0.0)))
    path = tmp_path / "modes.csv"
    spec.to_csv(path, header_lines=["check 1"])
    lines = path.read_text().splitlines()
    assert lines[0] == "# check 1"
    assert lines[1] == "mode_index,shift_Delta_m,rate_Gamma_m,subradiant_flag"
    body = np.array([row.split(",") for row in lines[2:]], dtype=float)
    assert body.shape == (9, 4)
    rates = body[:, 2]
    assert np.all(np.diff(rates) >= -1e-12)  # sorted by rate
    assert np.allclose(rates.sum(), 9.0, atol=1e-8)
    assert set(body[:, 3]) <= {0.0, 1.0}


def _chiral_c4_array():
    # two orbits of the quarter turn about z and no mirror plane or
    # inversion: four C4 blocks, none split
    pos = []
    for x, y, z in ((-0.422, 0.384, 0.22), (0.345, -0.37, 0.363)):
        for _ in range(4):
            pos.append((x, y, z))
            x, y = -y, x
    return AtomArray(np.array(pos))


def test_condition_estimate_is_cond_of_right_vectors():
    # the estimate comes from the blocks' W_k (max sigma_max / min
    # sigma_min), the reference from the lifted V = [Q_k W_k ...]
    # (_references.right_vectors): the same singular values, through a
    # different SVD, so equal to rounding; with one block (no symmetry)
    # the SVD is the same and so is the number
    rng = np.random.default_rng(17)
    free = AtomArray(rng.uniform(-0.6, 0.6, size=(5, 3)))
    cases = ((build_lattice(3, 3, 2, 0.45), 8, 1e-12),
             (_chiral_c4_array(), 4, 1e-12), (free, 1, 0.0))
    for arr, n_blocks, rel in cases:
        H = assemble(arr, LaserDrive(0.0, 2.0))
        spec = eigenmodes(H)
        assert len(spec.blocks) == n_blocks
        lam, V = right_vectors(spec)
        want = np.linalg.cond(V)
        assert abs(spec.condition_estimate - want) <= rel * want
        # the lifted symmetry-block vectors diagonalize the excited block
        assert np.max(np.abs(H.excited_block @ V - V * lam)) < 1e-13


def test_block_eigenvalues_match_eig():
    # eigenmodes computes eigenvalues alone (eigvals), which are not bitwise
    # those of eig: on lattices with 8 blocks (C4h), 4 (C2h) and 1 (shifted
    # off the centre, no symmetry), each block's values match eig's, paired
    # by least distance, within 1e-12 relative
    shifted = build_lattice(2, 2, 3, 0.55)
    cases = ((build_lattice(3, 3, 2, 0.45), 8),
             (build_lattice(2, 3, 2, 0.5), 4),
             (AtomArray(shifted.positions + [0.1, 0.0, 0.0]), 1))
    for arr, n_blocks in cases:
        spec = eigenmodes(assemble(arr, LaserDrive(0.0, 2.0)))
        assert len(spec.blocks) == n_blocks
        lo = 0
        for _, A in spec.blocks:
            got = spec.eigenvalues[lo:lo + len(A)]
            want = np.linalg.eig(A)[0]
            i, j = linear_sum_assignment(np.abs(got[:, None] - want))
            assert np.all(np.abs(got[i] - want[j]) <= 1e-12 * np.abs(want[j]))
            lo += len(A)
        assert lo == spec.eigenvalues.size


def test_eigenmodes_skip_the_metastable_only_blocks():
    # with the sublevel 0 alone and an undriven nu0 = +1, two of the 1x1x2
    # lattice's four bases hold one a_l column and nothing excited: the
    # spectrum is the whole excited block's, from the other two
    H = assemble(build_lattice(1, 1, 2, 0.4),
                 LaserDrive(0.0, 0.0, target_sublevel=1),
                 include_sublevels=(0,))
    bases = rotation_blocks(H)
    assert sorted((Q.n_meta(2), Q.shape[1]) for Q in bases) == [
        (0, 1), (0, 1), (1, 1), (1, 1)]
    spec = eigenmodes(H)
    assert len(spec.blocks) == 2
    want = np.linalg.eigvals(H.excited_block)
    got = spec.eigenvalues
    assert got.size == want.size == 2
    i, j = linear_sum_assignment(np.abs(got[:, None] - want))
    assert np.all(np.abs(got[i] - want[j]) <= 1e-12 * np.abs(want[j]))


def test_eigenmodes_leave_the_eigenvectors_to_the_condition_number(
        monkeypatch):
    # simulate reads the rates alone: eigenmodes calls no eig, and the
    # first read of condition_estimate one per block, the second none
    calls = []
    eig = np.linalg.eig
    monkeypatch.setattr("arraylight.hamiltonian.np.linalg.eig",
                        lambda A: calls.append(A.shape) or eig(A))
    H = assemble(build_lattice(3, 3, 2, 0.45), LaserDrive(2.0, 10.0))
    spec = eigenmodes(H)
    assert calls == []
    cond = spec.condition_estimate
    assert calls == [A.shape for _, A in spec.blocks] and len(calls) == 8
    assert spec.condition_estimate == cond and len(calls) == 8


def test_assemble_keeps_no_matrix_on_a_6x6x6_lattice(above_live):
    # assemble checks and keeps its inputs only: it used to gather the
    # dense 648 x 648 excited block (6.7 MB live); the blocks are projected
    # from the coupling table when first used
    arr = build_lattice(6, 6, 6, 0.6)
    drive = LaserDrive(2.0, 10.0)
    H, _, kept = above_live(assemble, arr, drive)
    assert kept < 1e5, kept
    assert H.dim == 864


def test_eigenmodes_memory_on_a_6x6x6_lattice(above_live):
    # the spectrum keeps each block's 81 x 81 excited part, the one the
    # Hamiltonian caches, and no eigenvectors: lifting them into one
    # 648 x 648 V (6.7 MB, and the lifted blocks before the stack) took the
    # allocation peak to 14.7 MB above the live memory; 4.6 MB now, mostly
    # the blocks projected from the coupling table
    H = assemble(build_lattice(6, 6, 6, 0.6), LaserDrive(2.0, 10.0))
    spec, peak, _ = above_live(eigenmodes, H)
    assert peak < 8e6, peak
    assert spec.eigenvalues.size == 648


def test_block_memory_on_an_8x8x8_lattice(above_live):
    # each block's excited part is projected from one gather of the
    # coupling table's rows at its columns' first rows, b N m entries: the
    # allocation peak stays within four such gathers (3.25 of them when the
    # rows were summed over every padded orbit position, 2.54 now)
    H = assemble(build_lattice(8, 8, 8, 0.6), LaserDrive(2.0, 10.0))
    n, m = H.n_atoms, H.n_sublevels
    for Q in rotation_blocks(H):
        gathered = Q.excited(n).shape[1] * n * m * 16
        blk, peak, _ = above_live(H.block, Q)
        assert blk.excited.shape == (192, 192)
        assert peak <= 4 * gathered, (peak, gathered)


def test_rotation_blocks_find_the_lattice_symmetry():
    drive = LaserDrive(1.0, 0.0)
    # the central column of 3x3x8 holds 8 fixed points: the C4 block of the
    # driven sublevel's irrep is 80 of 288, not a quarter.  Inversion pairs
    # every orbit with another (no atom lies in z = 0), so each irrep splits
    # into an even and an odd half
    H = assemble(build_lattice(3, 3, 8, 0.6), drive)
    blocks = rotation_blocks(H)
    assert [Q.shape[1] for Q in blocks] == [36, 36, 40, 40, 32, 32, 36, 36]
    assert [Q.irrep for Q in blocks] == [(k, p) for k in range(4)
                                         for p in (1, -1)]
    c4 = rotation_blocks(H, inversion=False)
    assert [Q.shape[1] for Q in c4] == [72, 80, 64, 72]
    # 6x6x6: 864 = 8 x 108, and the excited 648 = 8 x 81
    H = assemble(build_lattice(6, 6, 6, 0.6), drive)
    assert [Q.shape[1] for Q in rotation_blocks(H)] == [108] * 8
    assert [Q.excited(H.n_atoms).shape[1] for Q in rotation_blocks(H)] \
        == [81] * 8
    # nx != ny: only the half turn, with inversion four irreps
    H = assemble(build_lattice(2, 3, 2, 0.6), drive)
    assert len(rotation_blocks(H)) == 4
    assert len(rotation_blocks(H, inversion=False)) == 2
    # moved along z the lattice keeps its C4 but loses inversion: the
    # rotation-only blocks, unchanged, labelled (k, 0) although the
    # inversion was asked for
    assert [Q.irrep for Q in c4] == [(k, 0) for k in range(4)]
    lifted = assemble(AtomArray(build_lattice(3, 3, 8, 0.6).positions
                                + [0, 0, 0.1]), drive)
    for Q, Q4 in zip(rotation_blocks(lifted, inversion=True), c4,
                     strict=True):
        assert Q.irrep == Q4.irrep
        assert np.array_equal(Q.rows, Q4.rows)
        assert np.array_equal(Q.indptr, Q4.indptr)
        assert np.array_equal(Q.coefficients, Q4.coefficients)
    # moved off the z axis it has no symmetry: the identity basis alone,
    # whose block is the whole generator
    shifted = AtomArray(build_lattice(2, 2, 2, 0.6).positions + [0.1, 0, 0])
    H = assemble(shifted, drive)
    for inversion in (True, False):
        (Q,) = rotation_blocks(H, inversion=inversion)
        assert np.array_equal(Q.lift(np.eye(H.dim)), np.eye(H.dim))
        assert H.block(Q) is H.block()


def _sparse(Q):
    """Q as the scipy.sparse CSC matrix of its orbit index arrays."""
    import scipy.sparse

    cols = np.repeat(np.arange(Q.shape[1]), np.diff(Q.indptr))
    return scipy.sparse.csc_array((Q.coefficients, (Q.rows, cols)),
                                  shape=Q.shape)


@pytest.mark.parametrize("dims, subs", [((3, 3, 2), (-1, 0, 1)),
                                        ((2, 3, 2), (0, 1)),
                                        ((3, 3, 3), (1,))])
def test_orbit_bases_match_sparse_products(dims, subs):
    # the gathers, scatters and orbit sums of OrbitBasis against the same
    # bases as scipy.sparse matrices: Q^H T [Q Q'] of the pair tables
    # across blocks (project_table, as the generator blocks and farfield
    # form it), Q^H M Q', Q^H psi, Q y and rows of Q y, and the generator
    # blocks
    rng = np.random.default_rng(3)
    H = assemble(build_lattice(*dims, 0.45), LaserDrive(2.0, 1.5),
                 include_sublevels=subs)
    M = rng.normal(size=(H.dim, H.dim)) + 1j * rng.normal(size=(H.dim, H.dim))
    psi = rng.normal(size=(H.dim, 3)) + 1j * rng.normal(size=(H.dim, 3))
    rows = [0, H.n_atoms, H.dim - 1, 2]
    for inversion in (True, False):
        bases = rotation_blocks(H, inversion=inversion)
        for Q, Q2 in zip(bases, bases[1:] + bases[:1]):
            S, S2 = _sparse(Q), _sparse(Q2)
            y = rng.normal(size=(Q.shape[1], 3)) + 0j
            scale = np.max(np.abs(M))
            _check_projected_tables(H, Q, Q2)
            MQ2 = Q2.project(M.conj().T).conj().T
            assert np.max(np.abs(Q.project(MQ2) - S.conj().T @ M @ S2)) \
                <= 1e-14 * scale
            assert np.max(np.abs(Q.project(psi) - S.conj().T @ psi)) <= 1e-14
            assert np.max(np.abs(Q.project(psi[:, 0])
                                 - S.conj().T @ psi[:, 0])) <= 1e-14
            assert np.max(np.abs(Q.lift(y) - S @ y)) <= 1e-15
            assert np.max(np.abs(Q.lift(y, rows) - (S @ y)[rows])) <= 1e-15
            assert np.array_equal(Q.lift(np.eye(Q.shape[1])), S.toarray())
            G = H.block().matrix(0.7)
            assert np.max(np.abs(H.block(Q).matrix(0.7)
                                 - S.conj().T @ G @ S)) \
                <= 1e-14 * np.max(np.abs(G))


def _check_projected_tables(H, Q, Q2):
    """project_table of each pair table onto the excited columns of Q and
    [Q Q2] against S^H T [S S2] of the dense (N m, N m) table matrices, to
    1e-14 of T's largest entry: the coupling with parity +1, the flux
    helicity difference with parity -1."""
    n = H.n_atoms
    Qe, Qe2 = Q.excited(n), Q2.excited(n)
    S, S2 = _sparse(Qe), _sparse(Qe2)
    tables = H.array.pair_tables
    for table, parity in ((tables.coupling, 1), (tables.flux_diff, -1)):
        T = model_matrix(table_blocks(tables, table), H.columns)
        want = np.hstack([S.conj().T @ T @ S, S.conj().T @ T @ S2])
        got = project_table(H, table, Qe, (Qe, Qe2), parity)
        assert got.flags.c_contiguous
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(T))


def test_projected_tables_of_a_free_form_array():
    # without a symmetry the one basis is the identity, and project_table
    # gives the dense table matrices themselves, the excited block among
    # them
    rng = np.random.default_rng(29)
    arr = AtomArray(rng.uniform(-0.7, 0.7, size=(7, 3)))
    for subs in ((-1, 0, 1), (0,), (-1, 1)):
        H = assemble(arr, LaserDrive(1.0, 2.5, target_sublevel=subs[-1]),
                     include_sublevels=subs)
        (Q,) = rotation_blocks(H)
        _check_projected_tables(H, Q, Q)
        T = model_matrix(_kernels.pair_blocks(arr.positions), H.columns)
        want = -0.5 * T + (2.5j - 0.5) * np.eye(len(T))
        assert np.max(np.abs(H.excited_block - want)) <= 1e-15


def test_excited_bases_are_derived_from_the_full_ones():
    # the cached full bases, cut to their excited rows and columns, are
    # the bases a direct construction on the excited block gives; with
    # the driven sublevel left out of an undriven model some irreps hold
    # metastable columns only and drop out
    cases = [((3, 3, 8), (-1, 0, 1), 1, 2.0, False),
             ((2, 3, 2), (-1, 0, 1), 0, 2.0, False),
             ((1, 1, 2), (-1, 0), 1, 0.0, True),
             ((1, 1, 3), (1,), 1, 2.0, False)]
    for dims, subs, nu0, omega, dropped in cases:
        H = assemble(build_lattice(*dims, 0.6),
                     LaserDrive(omega, 1.0, target_sublevel=nu0),
                     include_sublevels=subs)
        for inversion in (True, False):
            excited = (Q.excited(H.n_atoms)
                       for Q in rotation_blocks(H, inversion=inversion))
            derived = [Q for Q in excited if Q.shape[1]]
            direct = _orbit_bases(H, inversion, excited_only=True)
            assert len(derived) == len(direct)
            assert (len(rotation_blocks(H, inversion=inversion))
                    > len(direct)) == dropped
            for Q, P in zip(derived, direct):
                assert Q.shape == P.shape
                assert np.array_equal(Q.rows, P.rows)
                assert np.array_equal(Q.indptr, P.indptr)
                assert np.array_equal(Q.coefficients, P.coefficients)
            # built once per inversion flag
            assert rotation_blocks(H, inversion=inversion) \
                is rotation_blocks(H, inversion=inversion)
