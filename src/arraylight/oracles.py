"""Closed-form references used as independent test oracles.

These deliberately bypass the generator/propagator/far-field machinery:
each is a direct transcription of an analytic limit (vanishing coupling,
or the two-atom symmetric/antisymmetric pair), so agreement with the full
code path is a meaningful check rather than a tautology.
"""

from __future__ import annotations

import numpy as np

from .core import AtomArray
from .errors import InvalidArgumentError
from .farfield import NORMALIZATION, helicity_frame
from .greens import K0, eval_f_g, spherical_basis

__all__ = [
    "noninteracting_amplitudes",
    "noninteracting_intensity",
    "two_atom_rates",
]


def noninteracting_amplitudes(array: AtomArray, k_em, t: float) -> np.ndarray:
    """Excited amplitudes of a fully uncoupled array.

    Each atom keeps its plane-wave phase and decays independently:
    beta_j^{+1}(t) = exp(-i k_em . r_j) exp(-Gamma t / 2) / sqrt(N),
    other sublevels empty.
    """
    k = np.asarray(k_em, dtype=float)
    beta = np.zeros((array.n_atoms, 3), dtype=complex)
    beta[:, 2] = (np.exp(-1j * (array.positions @ k))
                  * np.exp(-0.5 * t) / np.sqrt(array.n_atoms))
    return beta


def noninteracting_intensity(array: AtomArray, k_em, r_hat, u: float,
                             helicity: int) -> float:
    """Far-field flux density of the uncoupled array, closed form.

    The double sum over atom pairs collapses to a structure factor:
    I = N0 e^{-u} |eps^dag e_{+1}|^2 |sum_j e^{i(k0 r_hat - k_em).r_j}|^2 / N.
    At r_hat parallel to k_em the structure factor is N^2 (directed
    emission); for generic directions it averages to N, i.e. 1/N^2 of
    the peak after normalizing per atom.
    """
    if helicity not in (+1, -1):
        raise InvalidArgumentError("helicity must be +1 or -1")
    k = np.asarray(k_em, dtype=float)
    r = np.asarray(r_hat, dtype=float)
    frame = helicity_frame(r)
    eps = frame.eps_plus if helicity == +1 else frame.eps_minus
    e_plus = spherical_basis().e_plus
    pol = np.vdot(eps, e_plus)
    phases = np.exp(1j * (array.positions @ (K0 * r - k)))
    structure = abs(np.sum(phases)) ** 2
    return float(NORMALIZATION * np.exp(-u) * abs(pol) ** 2
                 * structure / array.n_atoms)


def two_atom_rates(separation: float, orientation=(0.0, 0.0, 1.0),
                   sublevel: int = 1):
    """Symmetric/antisymmetric pair decay rates Gamma (1 +- f_contracted).

    f_contracted = e_nu^dag f(k0 R) e_nu is the dissipative coupling
    projected on the chosen transition dipole.  The rates always sum to
    2 Gamma; they approach (2 Gamma, 0) as the pair merges.
    """
    if separation <= 0:
        raise InvalidArgumentError("separation must be positive")
    if sublevel not in (-1, 0, 1):
        raise InvalidArgumentError("sublevel must be one of -1, 0, +1")
    rhat = np.asarray(orientation, dtype=float)
    rhat = rhat / np.linalg.norm(rhat)
    f = eval_f_g(K0 * separation, rhat).f_part
    basis = spherical_basis()
    e_nu = (basis.e_minus, basis.e_zero, basis.e_plus)[sublevel + 1]
    fc = float(np.real(np.vdot(e_nu, f @ e_nu)))
    return 1.0 + fc, 1.0 - fc
