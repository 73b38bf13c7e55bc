"""Invariants of the coupling blocks and the adiabatic model over random
arrays (N <= 6, spacing >= 0.1)."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from arraylight import _kernels
from arraylight.core import AtomArray
from arraylight.envelope import PulseEnvelope
from arraylight.greens import coupling_block
from arraylight.shaping import (AdiabaticModel, adiabatic_simulate,
                                reparametrize)


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


@settings(max_examples=10, deadline=None)
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
    direct = adiabatic_simulate(model, a0, 120.0, t_grid=t_q,
                                envelope=env).a
    assert np.max(np.abs(direct - reparametrize(ref, env, t_q))) <= 1e-6
