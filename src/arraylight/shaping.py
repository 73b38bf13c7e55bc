"""Adiabatic reduced model, envelope reparametrization, inverse designer.

For drive detuning dominating the Rabi frequency and the linewidth, the
excited amplitudes follow the metastable ones, beta ~= (Omega_L/2delta) a,
and eliminating them leaves a closed equation for the a amplitudes with
effective decay rate Gamma' = Gamma Omega^2/(4 delta^2) and light shift
Omega^2/(4 delta).  Under an envelope f(t) the solution is an exact time
reparametrization of the constant-drive reference:

    a(t) = a0(tau(t)),   tau(t) = integral_0^t f(t')^2 dt'.

Inverting the reference cumulative photon curve n0 therefore converts any
reachable target emission waveform into an envelope: match cumulative
counts n_target(t) = n0(tau(t)), read off tau(t), and take
f = sqrt(dtau/dt).  The inversion is a cubic Hermite spline through
(n0, t) with the exact slope dt/dn = 1/flux, so the derivative is
analytic (finite differences on a nearly flat n0 produce spikes) and a
target equal to the free-running waveform recovers f = 1 identically.
Feasibility requires f <= 1; the first violating time is reported
otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import warnings

import numpy as np
import scipy.linalg
from scipy.integrate import cumulative_trapezoid, solve_ivp
from scipy.interpolate import CubicHermiteSpline

from . import farfield
from .core import AtomArray, LaserDrive, timed_dicke_state
from .dynamics import propagate_ode
from .envelope import PulseEnvelope, read_two_columns
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

    coupling is the pairwise G block restricted to the driven sublevel
    (N x N, zero diagonal).
    """

    array: AtomArray
    omega_L0: float
    delta: float
    target_sublevel: int = 1
    gamma_eff: float = field(init=False, default=0.0)
    light_shift: float = field(init=False, default=0.0)
    coupling: np.ndarray = field(init=False, default=None)

    def __post_init__(self):
        if self.delta == 0.0:
            raise InvalidArgumentError("adiabatic model needs delta != 0")
        if self.omega_L0 <= 0.0:
            raise InvalidArgumentError("adiabatic model needs omega_L0 > 0")
        if abs(self.delta) < 2.0 * self.omega_L0 or abs(self.delta) < 10.0:
            warnings.warn("detuning does not dominate the drive; adiabatic "
                          "elimination is marginal", stacklevel=2)
        object.__setattr__(self, "gamma_eff",
                           self.omega_L0**2 / (4.0 * self.delta**2))
        object.__setattr__(self, "light_shift",
                           self.omega_L0**2 / (4.0 * self.delta))
        from . import _kernels
        n = self.array.n_atoms
        if n > 1:
            blocks = _kernels.pair_blocks(self.array.positions)
            c = self.target_sublevel + 1
            coup = np.ascontiguousarray(blocks[:, :, c, c])
        else:
            coup = np.zeros((1, 1), dtype=complex)
        coup.setflags(write=False)
        object.__setattr__(self, "coupling", coup)

    @property
    def matrix(self) -> np.ndarray:
        """Generator of da/dtau (unit envelope)."""
        n = self.array.n_atoms
        return ((-1j * self.light_shift - 0.5 * self.gamma_eff) * np.eye(n)
                - 0.5 * self.gamma_eff * self.coupling)

    def beta_from_a(self, a: np.ndarray, f_value: float = 1.0) -> np.ndarray:
        """Leading-order excited amplitudes (N, 3); only the driven
        sublevel column is populated."""
        a = np.asarray(a, dtype=complex)
        beta = np.zeros((a.size, 3), dtype=complex)
        c = self.target_sublevel + 1
        beta[:, c] = (f_value * self.omega_L0 / (2.0 * self.delta)) * a
        return beta


class AdiabaticReference:
    """Adiabatic solution on a time grid with exact spectral evaluation."""

    def __init__(self, model: AdiabaticModel, times, a, n, flux):
        self.model = model
        self.times = times
        self.a = a            # (N, K)
        self.n = n            # emitted photons, 1 - |a|^2
        self.flux = flux      # -d|a|^2/dt
        self._eig = None

    def _spectral(self):
        if self._eig is None:
            lam, V = scipy.linalg.eig(self.model.matrix)
            c0 = np.linalg.solve(V, self.a[:, 0])
            self._eig = (lam, V, c0)
        return self._eig

    def a_at(self, tau):
        """Exact a0(tau) for scalar or vector tau (constant-drive runs)."""
        lam, V, c0 = self._spectral()
        tau = np.atleast_1d(np.asarray(tau, dtype=float))
        return V @ (np.exp(np.outer(lam, tau - self.times[0])) * c0[:, None])


def _default_tau_grid(t_end: float) -> np.ndarray:
    parts = [np.arange(0.0, min(30.0, t_end), 0.02)]
    if t_end > 30.0:
        parts.append(np.arange(30.0, min(200.0, t_end), 0.1))
    if t_end > 200.0:
        parts.append(np.arange(200.0, t_end, 0.5))
    parts.append([t_end])
    return np.concatenate(parts)


def adiabatic_simulate(model: AdiabaticModel, a0, t_end: float,
                       t_grid=None, envelope: PulseEnvelope | None = None,
                       tol: float = 1e-10) -> AdiabaticReference:
    """Integrate the reduced model up to t_end.

    Constant envelope (the default) uses the exact spectral solution;
    a genuine time-dependent envelope is integrated with DOP853 (this is
    the independent cross-check for the reparametrization identity).
    Returns the solution with a, emitted photon number n(t) = 1 - |a|^2,
    and the emission flux -d|a|^2/dt.
    """
    a0 = np.asarray(a0, dtype=complex)
    if a0.shape != (model.array.n_atoms,):
        raise InvalidArgumentError("a0 must have one amplitude per atom")
    times = _default_tau_grid(float(t_end)) if t_grid is None \
        else np.asarray(t_grid, dtype=float)
    M = model.matrix
    if envelope is None or envelope.is_constant():
        scale = 1.0 if envelope is None else float(envelope(envelope.t_start)) ** 2
        lam, V = scipy.linalg.eig(M)
        c0 = np.linalg.solve(V, a0)
        A = V @ (np.exp(np.outer(lam * scale, times - times[0])) * c0[:, None])
        flux = -2.0 * np.real(np.einsum("ik,ik->k", A.conj(), scale * (M @ A)))
    else:
        def rhs(t, y):
            return float(envelope(t)) ** 2 * (M @ y)
        sol = solve_ivp(rhs, (times[0], times[-1]), a0, method="DOP853",
                        rtol=tol, atol=1e-13, t_eval=times)
        if not sol.success:
            raise NumericError(f"adiabatic integration failed: {sol.message}")
        A = sol.y
        f2 = np.asarray(envelope(times), dtype=float) ** 2
        flux = -2.0 * np.real(np.einsum("ik,ik->k", A.conj(), (M @ A) * f2))
    ref = AdiabaticReference(model, times, A,
                             n=1.0 - np.sum(np.abs(A) ** 2, axis=0),
                             flux=flux)
    return ref


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
        if np.any(np.diff(self.u_grid) <= 0):
            raise InvalidArgumentError("u_grid must be strictly increasing")
        if np.any(self.intensity < 0):
            raise InvalidArgumentError("target intensity must be >= 0")
        if not 0.0 < self.photon_fraction <= 1.0:
            raise InvalidArgumentError("photon_fraction must be in (0, 1]")

    @classmethod
    def gaussian(cls, center: float, width: float, t_end: float,
                 dt: float = 0.05, photon_fraction: float = 0.99):
        """exp(-((u-center)/width)^2); width is the 1/e half-width."""
        u = np.arange(0.0, t_end + dt / 2, dt)
        return cls(u, np.exp(-(((u - center) / width) ** 2)), photon_fraction)

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
    n0 = cumulative_trapezoid(reference.flux, reference.times, initial=0.0)
    if np.any(np.diff(n0) <= 0) or np.any(reference.flux <= 0):
        raise NumericError("reference cumulative n0 is not strictly "
                           "increasing; refine or shorten the tau grid")
    inv = CubicHermiteSpline(n0, reference.times, 1.0 / reference.flux)

    u = target.u_grid
    total = np.trapezoid(target.intensity, u)
    if total <= 0:
        raise InvalidArgumentError("target shape integrates to zero")
    I = target.intensity * (target.photon_fraction * n0[-1] / total)
    n_tgt = cumulative_trapezoid(I, u, initial=0.0)
    # chain rule: dtau/du = (dtau/dn)(n_tgt(u)) * I(u), all analytic
    f2 = inv.derivative()(n_tgt) * I
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


def validate(envelope: PulseEnvelope, array: AtomArray, omega_L0: float,
             delta: float, target: TargetWaveform,
             reference: AdiabaticReference,
             k_gf=(0.0, 0.0, 2.0 * np.pi), target_sublevel: int = 1,
             include_sublevels=(-1, 0, 1), tol: float = 1e-8) -> ShapingReport:
    """Insert the designed envelope into the full multilevel model.

    Runs the adaptive propagator under a drive carrying the envelope from
    a timed Dicke state, computes the exact far-field flux on the target's
    time grid, and reports the relative L2 mismatch against the normalized
    target flux.  reference is the adiabatic solution used for the design;
    its photon number n(end) = 1 - |a|^2 sets the target normalization.
    """
    u = target.u_grid
    drive = LaserDrive(omega_L0, delta, envelope, target_sublevel)
    H = assemble(array, drive, include_sublevels)
    psi0 = timed_dicke_state(array, k_gf)
    traj = propagate_ode(H, psi0, t_end=float(u[-1]), tol=tol, times=u)
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
