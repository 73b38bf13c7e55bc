"""Pair-block and plane-wave-sum kernels against reference formulas."""

import numpy as np

from arraylight import _kernels
from arraylight.greens import coupling_block

K0 = 2.0 * np.pi


def _random_positions(rng, n):
    # rejection keeps pair distances away from zero
    while True:
        pos = rng.uniform(-1.5, 1.5, size=(n, 3))
        diff = pos[:, None, :] - pos[None, :, :]
        dist = np.linalg.norm(diff, axis=-1)
        np.fill_diagonal(dist, 1.0)
        if dist.min() > 0.05:
            return pos


def test_pair_blocks_match_reference_blocks():
    rng = np.random.default_rng(42)
    pos = _random_positions(rng, 6)
    blocks = _kernels.pair_blocks(pos)
    assert blocks.shape == (6, 6, 3, 3)
    for l in range(6):
        assert np.allclose(blocks[l, l], 0.0)
        for j in range(6):
            if l == j:
                continue
            ref = coupling_block(pos[l], pos[j])
            assert np.allclose(blocks[l, j], ref, atol=1e-13)


def test_pair_blocks_symmetric_under_swap():
    rng = np.random.default_rng(7)
    pos = _random_positions(rng, 5)
    blocks = _kernels.pair_blocks(pos)
    assert np.allclose(blocks, blocks.transpose(1, 0, 2, 3), atol=1e-14)


def test_direction_sums_match_einsum():
    rng = np.random.default_rng(13)
    pos = _random_positions(rng, 9)
    dirs = rng.normal(size=(37, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    s = rng.normal(size=(9, 3)) + 1j * rng.normal(size=(9, 3))
    got = _kernels.direction_sums(dirs, pos, s)
    phases = np.exp(1j * K0 * dirs @ pos.T)
    ref = phases @ s
    assert got.shape == (37, 3)
    assert np.allclose(got, ref, atol=1e-12)
