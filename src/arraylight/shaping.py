"""Adiabatic reduced model, envelope reparametrization, inverse designer.

For drive detuning dominating the Rabi frequency and the linewidth, the
excited amplitudes follow the metastable ones, beta ~= (Omega_L/2delta) a,
and eliminating them leaves a closed equation for the a amplitudes with
effective decay rate Gamma' = Gamma Omega^2/(4 delta^2) and light shift
Omega^2/(4 delta).  Under an envelope f(t) the solution is an exact time
reparametrization of the constant-drive reference:

    a(t) = a0(tau(t)),   tau(t) = integral_0^t f(t')^2 dt'.

The reduced model is therefore solved once, in closed form under the
unit envelope (adiabatic_simulate), and any envelope's solution is read
off that reference (reparametrize).  Inverting the reference cumulative
photon curve n0 converts any reachable target emission waveform into an
envelope: match cumulative counts n_target(t) = n0(tau(t)), read off
tau(t), and take f = sqrt(dtau/dt).  The inversion is a cubic Hermite
spline through (n0, t) with the exact slope dt/dn = 1/flux, so the
derivative is analytic (finite differences on a nearly flat n0 produce
spikes) and a target equal to the free-running waveform recovers f = 1
identically.  Feasibility requires f <= 1; the first violating time is
reported otherwise.

The reduced matrix is the driven-sublevel excited block of assemble(),
rescaled.  One AdiabaticReference carries a shaping run: the designer
reads its flux, validate its model's drive and its initial amplitudes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import warnings

import numpy as np

from . import farfield
from .core import SUBLEVELS, AmplitudeState, AtomArray, LaserDrive
from .dynamics import _modal_coords, piecewise_grid, propagate_ode
from .envelope import _CHUNK, PulseEnvelope, read_two_columns
from .errors import (InfeasibleTargetError, InvalidArgumentError,
                     NumericError)
from .hamiltonian import assemble

__all__ = [
    "AdiabaticModel",
    "AdiabaticReference",
    "TargetWaveform",
    "ShapingReport",
    "adiabatic_simulate",
    "reparametrize",
    "design_envelope",
    "validate",
]


@dataclass(frozen=True)
class AdiabaticModel:
    """Reduced a-amplitude model after adiabatic elimination.

    matrix, the generator of da/dtau under a unit envelope, is cut from the
    full generator: with X1 the excited block of assemble(...) restricted
    to the driven sublevel, matrix = gamma_eff X1 - 2i light_shift I.  It
    is computed once and read only.
    """

    array: AtomArray
    omega_L0: float
    delta: float
    target_sublevel: int = 1
    gamma_eff: float = field(init=False, default=0.0)
    light_shift: float = field(init=False, default=0.0)
    matrix: np.ndarray = field(init=False, default=None, repr=False,
                               compare=False)

    def __post_init__(self):
        if self.delta == 0.0:
            raise InvalidArgumentError("adiabatic model needs delta != 0")
        if not self.omega_L0 > 0.0:
            raise InvalidArgumentError("adiabatic model needs omega_L0 > 0")
        if abs(self.delta) < 2.0 * self.omega_L0 or abs(self.delta) < 10.0:
            warnings.warn("detuning does not dominate the drive; adiabatic "
                          "elimination is marginal", stacklevel=2)
        gamma_eff = self.omega_L0**2 / (4.0 * self.delta**2)
        light_shift = self.omega_L0**2 / (4.0 * self.delta)
        ts = self.target_sublevel
        drive = LaserDrive(self.omega_L0, self.delta, target_sublevel=ts)
        x1 = assemble(self.array, drive, include_sublevels=(ts,)).excited_block
        matrix = gamma_eff * x1 - 2j * light_shift * np.eye(self.array.n_atoms)
        matrix.setflags(write=False)
        object.__setattr__(self, "gamma_eff", gamma_eff)
        object.__setattr__(self, "light_shift", light_shift)
        object.__setattr__(self, "matrix", matrix)


@dataclass(frozen=True, eq=False)
class AdiabaticReference:
    """One adiabatic run, the source of a shaping run's drive and state.

    On the tau grid times, from tau = 0: n = 1 - |a|^2 the emitted photon
    number and flux = -d|a|^2/dt.  The amplitudes on the grid are not
    kept: initial holds the (N,) amplitudes at tau = 0, and a_at gives
    them at any tau.  model.matrix = V diag(lam) V^-1 is eigendecomposed
    once; c0 is the initial state in that basis, and
    a0(tau) = V exp(lam tau) c0.
    """

    model: AdiabaticModel
    times: np.ndarray
    initial: np.ndarray
    n: np.ndarray
    flux: np.ndarray
    lam: np.ndarray
    V: np.ndarray
    c0: np.ndarray

    def a_at(self, tau):
        """Exact unit-envelope a0(tau) for scalar or vector tau, (N, K)."""
        tau = np.atleast_1d(np.asarray(tau, dtype=float))
        return _modal_coords(((self.V, self.lam, self.c0),), tau)


_TAU_BANDS = ((0.0, 0.02), (30.0, 0.1), (200.0, 0.5))


def adiabatic_simulate(model: AdiabaticModel, a0,
                       t_end: float) -> AdiabaticReference:
    """Exact unit-envelope solution of the reduced model on a tau grid
    from 0 to t_end, 0 < t_end < inf.

    model.matrix is eigendecomposed once, and a0(tau) = V exp(lam tau) c0
    is evaluated in closed form on the grid (and off it by a_at); under an
    envelope f the solution is a0(tau(t)), tau = integral f^2
    (reparametrize).  The grid is walked _CHUNK samples at a time: each
    chunk's amplitudes give its emitted photon number n(tau) = 1 - |a|^2
    and emission flux -d|a|^2/dtau and are then dropped, so no (N, K)
    table is formed.  Returns n, the flux and the amplitudes at tau = 0.
    """
    a0 = np.asarray(a0, dtype=complex)
    if a0.shape != (model.array.n_atoms,):
        raise InvalidArgumentError("a0 must have one amplitude per atom")
    t_end = float(t_end)
    if not 0.0 < t_end < np.inf:
        raise InvalidArgumentError("t_end must be finite and positive")
    times = piecewise_grid(t_end, _TAU_BANDS)
    M = model.matrix
    lam, V = np.linalg.eig(M)
    c0 = np.linalg.solve(V, a0)
    n, flux = np.empty(len(times)), np.empty(len(times))
    for lo in range(0, len(times), _CHUNK):
        s = slice(lo, lo + _CHUNK)
        A = _modal_coords(((V, lam, c0),), times[s])
        if lo == 0:
            initial = A[:, 0].copy()
        flux[s] = -2.0 * np.real(np.einsum("ik,ik->k", A.conj(), M @ A))
        n[s] = 1.0 - np.sum(np.abs(A) ** 2, axis=0)
    return AdiabaticReference(model, times, initial, n=n, flux=flux,
                              lam=lam, V=V, c0=c0)


def reparametrize(reference: AdiabaticReference, envelope: PulseEnvelope,
                  times) -> np.ndarray:
    """Envelope-deformed solution a(t) = a0(tau(t)), tau = integral f^2.

    Uses the envelope's exact piecewise integral for tau and the
    reference's spectral form for a0, so the identity carries no
    quadrature error.  Raises when tau leaves the reference coverage.
    """
    times = np.asarray(times, dtype=float)
    tau = np.asarray(envelope.tau(times), dtype=float)
    if tau[-1] > reference.times[-1] + 1e-9:
        raise InvalidArgumentError(
            f"tau({times[-1]:g}) = {tau[-1]:g} exceeds reference coverage "
            f"{reference.times[-1]:g}")
    return reference.a_at(tau)


@dataclass
class TargetWaveform:
    """Desired emission flux shape on a retarded-time grid.

    The shape is auto-normalized at design time so the total photon count
    equals photon_fraction times the reference n0(infinity); amplitudes of
    the raw samples therefore carry no meaning, only the shape does.
    """

    u_grid: np.ndarray
    intensity: np.ndarray
    photon_fraction: float = 0.99

    def __post_init__(self):
        self.u_grid = np.asarray(self.u_grid, dtype=float)
        self.intensity = np.asarray(self.intensity, dtype=float)
        if self.u_grid.ndim != 1 or self.u_grid.shape != self.intensity.shape:
            raise InvalidArgumentError("u_grid and intensity must match")
        if not np.all(np.diff(self.u_grid) > 0):
            raise InvalidArgumentError("u_grid must be strictly increasing")
        if not np.all(self.intensity >= 0):
            raise InvalidArgumentError("target intensity must be >= 0")
        if not (np.all(np.isfinite(self.u_grid))
                and np.all(np.isfinite(self.intensity))):
            raise InvalidArgumentError("target u and intensity must be finite")
        if not 0.0 < self.photon_fraction <= 1.0:
            raise InvalidArgumentError("photon_fraction must be in (0, 1]")

    @classmethod
    def gaussian(cls, center: float, width: float, t_end: float,
                 dt: float = 0.05, photon_fraction: float = 0.99):
        """exp(-((u-center)/width)^2); width is the 1/e half-width."""
        return cls.two_gaussians((center,), width, t_end, dt, photon_fraction)

    @classmethod
    def two_gaussians(cls, centers, width: float, t_end: float,
                      dt: float = 0.05, photon_fraction: float = 0.99):
        u = np.arange(0.0, t_end + dt / 2, dt)
        I = sum(np.exp(-(((u - c) / width) ** 2)) for c in centers)
        return cls(u, I, photon_fraction)

    @classmethod
    def from_csv(cls, path, photon_fraction: float = 0.99):
        data = read_two_columns(path, "target", "u,intensity")
        return cls(data[:, 0], data[:, 1], photon_fraction)


def _hermite_derivative(x: np.ndarray, y: np.ndarray, dydx: np.ndarray,
                        at: np.ndarray) -> np.ndarray:
    """Derivative at the points at of the cubic Hermite interpolant
    through (x, y) with slopes dydx; outside [x[0], x[-1]] the end cubics
    continue.

    On [x_k, x_k+1] with h = x_k+1 - x_k and secant slope m, the cubic is
    y_k + d_k s + c1 s^2 + c0 s^3, s = t - x_k, with c0 = g / h,
    c1 = (m - d_k) / h - g and g = (d_k + d_k+1 - 2 m) / h, so its
    derivative is d_k + 2 c1 s + 3 c0 s^2 (the coefficients and their
    order are those of scipy's CubicHermiteSpline).
    """
    h = np.diff(x)
    slope = np.diff(y) / h
    g = (dydx[:-1] + dydx[1:] - 2 * slope) / h
    c0, c1 = g / h, (slope - dydx[:-1]) / h - g
    k = np.clip(np.searchsorted(x, at, side="right") - 1, 0, len(h) - 1)
    s = at - x[k]
    return dydx[k] + 2 * c1[k] * s + 3 * c0[k] * (s * s)


def design_envelope(reference: AdiabaticReference,
                    target: TargetWaveform) -> PulseEnvelope:
    """Envelope f(t) whose reparametrized emission matches the target.

    The drive is the one of the reference's model.  The target is
    normalized to photon_fraction * n0(end of reference), with n0 the
    trapezoid integral of the reference flux.  Raises
    InfeasibleTargetError when the target needs f > 1.
    """
    # invert the cumulative count with the same trapezoid rule used for the
    # target below, and pin the inverse slope to the exact 1/flux; then a
    # target equal to the free-running waveform maps back to f = 1 exactly
    n0 = farfield._cumulative_trapezoid(reference.flux, reference.times)
    if np.any(np.diff(n0) <= 0) or np.any(reference.flux <= 0):
        raise NumericError("reference cumulative n0 is not strictly "
                           "increasing; refine or shorten the tau grid")

    u = target.u_grid
    total = np.trapezoid(target.intensity, u)
    if total <= 0:
        raise InvalidArgumentError("target shape integrates to zero")
    I = target.intensity * (target.photon_fraction * n0[-1] / total)
    n_tgt = farfield._cumulative_trapezoid(I, u)
    # chain rule: dtau/du = (dtau/dn)(n_tgt(u)) * I(u), all analytic
    f2 = _hermite_derivative(n0, reference.times, 1.0 / reference.flux,
                             n_tgt) * I
    if np.any(f2 < -1e-12):
        raise NumericError("negative dtau/dt beyond roundoff in the designer")
    f2 = np.clip(f2, 0.0, None)
    bad = f2 > 1.0 + 1e-9
    if np.any(bad):
        k = int(np.argmax(bad))
        raise InfeasibleTargetError(u[k], f2[k])
    return PulseEnvelope.from_samples(u, np.sqrt(np.clip(f2, 0.0, 1.0)))


@dataclass(frozen=True)
class ShapingReport:
    """Full-model validation summary for a designed envelope."""

    l2_mismatch: float
    peak_time_sim: float
    peak_time_target: float
    u_grid: np.ndarray
    flux_sim: np.ndarray
    flux_target: np.ndarray

    @property
    def peak_time_error(self) -> float:
        return abs(self.peak_time_sim - self.peak_time_target)

    def summary(self) -> dict:
        return {
            "l2_mismatch": self.l2_mismatch,
            "peak_time_sim": self.peak_time_sim,
            "peak_time_target": self.peak_time_target,
            "peak_time_error": self.peak_time_error,
        }


def validate(envelope: PulseEnvelope, target: TargetWaveform,
             reference: AdiabaticReference, include_sublevels=SUBLEVELS,
             tol: float = 1e-8, atol: float = 1e-12) -> ShapingReport:
    """Insert the designed envelope into the full multilevel model.

    The run is the reference's: the drive carries the array, omega_L0,
    delta and target sublevel of reference.model, and the state starts
    from the reference's initial amplitudes reference.initial.  Propagates
    with propagate_ode at the tolerances tol and atol, computes the exact
    far-field flux on the target's time grid, and reports the relative L2
    mismatch against the normalized target flux.
    """
    model = reference.model
    u = target.u_grid
    drive = LaserDrive(model.omega_L0, model.delta, envelope,
                       model.target_sublevel)
    H = assemble(model.array, drive, include_sublevels)
    psi0 = AmplitudeState(reference.initial)
    traj = propagate_ode(H, psi0, t_end=float(u[-1]), tol=tol, atol=atol,
                         times=u)
    wf = farfield.waveform(traj, allow_truncation=True)
    # scale the target to photon_fraction * (1 - |a|^2) at the reference's
    # end; the designer scales by its trapezoid n0[-1] instead, which
    # differs from this by the trapezoid error of the reference flux
    total = np.trapezoid(target.intensity, u)
    I = target.intensity * (target.photon_fraction * reference.n[-1] / total)
    flux = wf.flux_total
    l2 = float(np.linalg.norm(flux - I) / np.linalg.norm(I))
    return ShapingReport(
        l2_mismatch=l2,
        peak_time_sim=float(u[np.argmax(flux)]),
        peak_time_target=float(u[np.argmax(I)]),
        u_grid=u, flux_sim=flux, flux_target=I)
