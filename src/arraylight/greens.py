"""Field-mediated dipole-dipole coupling tensor and spherical basis.

Two J=0 -> J=1 dipoles separated by R exchange photons through the free
space electromagnetic field.  After the Markov elimination the coupling is
the rank-2 tensor

    F(kR) = f(kR) - i g(kR)

with real symmetric parts built from transverse and longitudinal dyads:

    f = (3/2) [ sin x / x (I - RR) + (cos x / x^2 - sin x / x^3)(I - 3 RR) ]
    g = (3/2) [ cos x / x (I - RR) - (sin x / x^2 + cos x / x^3)(I - 3 RR) ]

where x = kR and RR is the outer product of the unit separation vector.
f stays bounded (f -> I as x -> 0) and encodes cross-decay; g diverges
as x^-3 (static dipole-dipole shift) and encodes coherent level shifts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError

__all__ = [
    "CouplingTensor",
    "PolarizationBasis",
    "spherical_basis",
    "eval_f_g",
    "coupling_block",
    "fg_scalar_coefficients",
]

K0 = 2.0 * np.pi  # resonant wavenumber 2 pi / lambda0, lengths in lambda0


@dataclass(frozen=True)
class CouplingTensor:
    """Cartesian coupling tensor split into dissipative and dispersive parts."""

    f_part: np.ndarray
    g_part: np.ndarray

    @property
    def combined(self) -> np.ndarray:
        return self.f_part - 1j * self.g_part


@dataclass(frozen=True)
class PolarizationBasis:
    """Spherical unit vectors about the quantization axis z.

    Condon-Shortley phases: e_{+1} = -(x + iy)/sqrt(2), e_0 = z,
    e_{-1} = (x - iy)/sqrt(2).  matrix has columns ordered (-1, 0, +1).
    """

    e_minus: np.ndarray
    e_zero: np.ndarray
    e_plus: np.ndarray

    @property
    def matrix(self) -> np.ndarray:
        return np.column_stack([self.e_minus, self.e_zero, self.e_plus])


def spherical_basis() -> PolarizationBasis:
    s = 1.0 / np.sqrt(2.0)
    e_m = np.array([s, -1j * s, 0.0])
    e_0 = np.array([0.0, 0.0, 1.0], dtype=complex)
    e_p = np.array([-s, -1j * s, 0.0])
    for v in (e_m, e_0, e_p):
        v.setflags(write=False)
    return PolarizationBasis(e_m, e_0, e_p)


def fg_scalar_coefficients(x):
    """Radial coefficients (f1, f2, g1, g2) of the transverse/longitudinal
    decomposition f = f1 (I - RR) + f2 (I - 3 RR), g likewise."""
    x = np.asarray(x, dtype=float)
    f1 = 1.5 * np.sin(x) / x
    f2 = 1.5 * (np.cos(x) / x**2 - np.sin(x) / x**3)
    g1 = 1.5 * np.cos(x) / x
    g2 = -1.5 * (np.sin(x) / x**2 + np.cos(x) / x**3)
    return f1, f2, g1, g2


def eval_f_g(kR: float, r_hat) -> CouplingTensor:
    """Coupling tensor for one pair at dimensionless separation kR."""
    if kR <= 0:
        raise InvalidArgumentError("kR must be positive (coincident atoms excluded)")
    r_hat = np.asarray(r_hat, dtype=float)
    if abs(np.linalg.norm(r_hat) - 1.0) > 1e-12:
        raise InvalidArgumentError("r_hat must be a unit vector")
    f1, f2, g1, g2 = fg_scalar_coefficients(kR)
    eye = np.eye(3)
    rr = np.outer(r_hat, r_hat)
    f = f1 * (eye - rr) + f2 * (eye - 3.0 * rr)
    g = g1 * (eye - rr) + g2 * (eye - 3.0 * rr)
    return CouplingTensor(f, g)


def coupling_block(r_l, r_j, basis: PolarizationBasis | None = None,
                   k0: float = K0) -> np.ndarray:
    """Pair coupling in the spherical basis, G_{eta,nu} = e_eta^dag F e_nu.

    Rows/columns ordered (-1, 0, +1).  F depends only on the separation
    and is even in it, so G(r_l, r_j) = G(r_j, r_l).
    """
    R = np.asarray(r_l, dtype=float) - np.asarray(r_j, dtype=float)
    dist = np.linalg.norm(R)
    if dist == 0.0:
        raise InvalidArgumentError("coincident atom positions")
    if basis is None:
        basis = spherical_basis()
    F = eval_f_g(k0 * dist, R / dist).combined
    Em = basis.matrix
    return Em.conj().T @ F @ Em
