"""Time propagation of the amplitude equations.

Two routes, cross-validated against each other:

* spectral: for piecewise-constant drive envelopes the generator is
  constant on each segment, so psi(t) = V exp(Lambda (t-t0)) V^-1 psi(t0)
  is exact at arbitrary times.  Requires a well-conditioned eigenbasis;
  collective modes are not orthogonal, so the condition number is checked.
* adaptive ODE: embedded explicit Runge-Kutta (DOP853) for arbitrary
  envelopes, one solver pass per jump-free stretch of the envelope: only
  jumps force a restart, and steps end exactly on the kinks in between.
  The right-hand side is one excited-block product plus O(N) drive work.
  Off-grid states come from cubic Hermite interpolation using stored
  derivative evaluations.
"""

from __future__ import annotations

import bisect

import numpy as np
from scipy.integrate import DOP853, solve_ivp

from .core import AmplitudeState
from .errors import EigenConditionError, InvalidArgumentError, NumericError
from .hamiltonian import EffectiveHamiltonian

__all__ = ["Trajectory", "piecewise_grid", "propagate_eigen", "propagate_ode"]

EIGEN_COND_LIMIT = 1e8


def piecewise_grid(t_end: float, bands) -> np.ndarray:
    """Piecewise-uniform grid on [0, t_end], closed by t_end.  bands is
    ((0, dt_0), (t_1, dt_1), ...): spacing dt_k from t_k to the next start
    or t_end; bands starting at or after t_end are left out."""
    stops = [start for start, _ in bands[1:]] + [t_end]
    parts = [np.arange(start, min(stop, t_end), dt)
             for (start, dt), stop in zip(bands, stops) if t_end > start]
    return np.concatenate(parts + [[t_end]])


class Trajectory:
    """Stored propagation result with dense evaluation.

    times: strictly increasing sample grid; states: (dim, K) flat vectors.
    Spectral trajectories evaluate off-grid states exactly from the cached
    eigendecompositions; ODE trajectories interpolate with cubic Hermite
    polynomials built on stored derivative evaluations.
    """

    def __init__(self, H, times, states, kind, segments=None, derivs=None):
        self.H = H
        self.times = np.asarray(times, dtype=float)
        self.states = states
        self.kind = kind
        self._segments = segments
        if segments is not None:
            self._segment_ends = np.array([seg[1] for seg in segments]) + 1e-12
        self._derivs = derivs
        if np.any(np.diff(self.times) <= 0):
            raise InvalidArgumentError("trajectory times must be strictly increasing")

    @property
    def t_start(self) -> float:
        return float(self.times[0])

    @property
    def t_end(self) -> float:
        return float(self.times[-1])

    def _check_coverage(self, u):
        if np.any(u < self.times[0] - 1e-12) or np.any(u > self.times[-1] + 1e-12):
            raise InvalidArgumentError(
                f"time {np.min(u):g}..{np.max(u):g} outside trajectory "
                f"coverage [{self.times[0]:g}, {self.times[-1]:g}]")

    def state_at(self, u: float) -> np.ndarray:
        """Flat state vector at time u (exact for spectral trajectories)."""
        u = float(u)
        self._check_coverage(u)
        if self.kind == "eigen":
            # first segment ending at or after u: a boundary time belongs
            # to the earlier segment
            k = int(np.searchsorted(self._segment_ends, u, side="left"))
            t0, _, V, lam, c0 = self._segments[min(k, len(self._segments) - 1)]
            return V @ (np.exp(lam * (u - t0)) * c0)
        k = int(np.searchsorted(self.times, u, side="right") - 1)
        k = min(max(k, 0), len(self.times) - 2)
        t0, t1 = self.times[k], self.times[k + 1]
        if u == t0:
            return self.states[:, k].copy()
        if u == t1:
            return self.states[:, k + 1].copy()
        h = t1 - t0
        s = (u - t0) / h
        y0, y1 = self.states[:, k], self.states[:, k + 1]
        d0, d1 = self._derivs[:, k], self._derivs[:, k + 1]
        h00 = (1 + 2 * s) * (1 - s) ** 2
        h10 = s * (1 - s) ** 2
        h01 = s * s * (3 - 2 * s)
        h11 = s * s * (s - 1)
        return h00 * y0 + h * h10 * d0 + h01 * y1 + h * h11 * d1

    def beta_at(self, u: float) -> np.ndarray:
        """(N, 3) excited amplitudes at time u."""
        return self.H.beta_matrix(self.state_at(u))

    def norm_squared(self) -> np.ndarray:
        return np.sum(np.abs(self.states) ** 2, axis=0)

    def populations(self):
        """(metastable, excited-per-sublevel) population time series."""
        n, m = self.H.n_atoms, self.H.n_sublevels
        meta = np.sum(np.abs(self.states[:n]) ** 2, axis=0)
        exc = np.abs(self.states[n:]) ** 2
        exc = exc.reshape(n, m, -1).sum(axis=0).T  # (K, m)
        full = np.zeros((len(self.times), 3))
        full[:, self.H.columns] = exc
        return meta, full

    def to_csv(self, path, atoms=(0,), header_lines=()) -> None:
        meta, exc = self.populations()
        n = self.H.n_atoms
        cols = ["t", "pop_f", "pop_e_m1", "pop_e_0", "pop_e_p1", "norm2"]
        data = [self.times, meta, exc[:, 0], exc[:, 1], exc[:, 2],
                self.norm_squared()]
        for j in atoms:
            a = self.states[j]
            cols += [f"re_a_{j}", f"im_a_{j}"]
            data += [a.real, a.imag]
        with open(path, "w") as fh:
            for line in header_lines:
                fh.write(f"# {line}\n")
            fh.write(",".join(cols) + "\n")
            for row in zip(*data):
                fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def propagate_eigen(H: EffectiveHamiltonian, psi0: AmplitudeState,
                    times, cond_limit: float = EIGEN_COND_LIMIT) -> Trajectory:
    """Spectral propagation on a time grid.

    The drive envelope must be piecewise constant (constant or square);
    each constant segment gets one eigendecomposition.  Raises
    EigenConditionError when an eigenbasis is ill-conditioned, in which
    case propagate_ode is the fallback.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or len(times) == 0:
        raise InvalidArgumentError("need a nonempty time grid")
    t0 = psi0.t
    if times[0] < t0 - 1e-12:
        raise InvalidArgumentError("time grid starts before the initial state")
    segs_f = H.drive.envelope.constant_segments(float(times[-1]))
    if segs_f is None:
        raise InvalidArgumentError(
            "envelope is not piecewise constant; use propagate_ode")

    psi = H.pack(psi0)
    states = np.empty((H.dim, len(times)), dtype=complex)
    segments = []
    for s0, s1, f in segs_f:
        lo, hi = max(s0, t0), s1
        if hi <= t0:
            continue
        G = H.generator_at(f)
        lam, V = np.linalg.eig(G)
        cond = np.linalg.cond(V)
        if cond > cond_limit:
            raise EigenConditionError(cond, cond_limit)
        c0 = np.linalg.solve(V, psi)
        segments.append((lo, hi, V, lam, c0))
        mask = (times >= lo - 1e-12) & (times <= hi + 1e-12)
        if np.any(mask):
            states[:, mask] = V @ (np.exp(np.outer(lam, times[mask] - lo)) * c0[:, None])
        psi = V @ (np.exp(lam * (hi - lo)) * c0)
    return Trajectory(H, times, states, kind="eigen", segments=segments)


class _DOP853Stops(DOP853):
    """DOP853 whose steps end exactly on the given stop times.

    A step across a kink of the envelope carries a low-order local error
    that the embedded error estimate misses.  The right-hand side is
    continuous at a kink, so ending a step there needs no restart: the
    solver goes on with its step size and last derivative.
    """

    def __init__(self, fun, t0, y0, t_bound, stops=(), **options):
        super().__init__(fun, t0, y0, t_bound, **options)
        self._stops = sorted(stops)
        self._t_final = t_bound

    def _step_impl(self):
        # the parent clips the step to t_bound
        k = bisect.bisect_right(self._stops, self.t)
        if k < len(self._stops):
            self.t_bound = self._stops[k]
        try:
            return super()._step_impl()
        finally:
            self.t_bound = self._t_final


def propagate_ode(H: EffectiveHamiltonian, psi0: AmplitudeState,
                  t_end: float, tol: float = 1e-8, atol: float = 1e-12,
                  times=None) -> Trajectory:
    """Adaptive DOP853 integration up to t_end under H.drive.envelope.

    Each jump-free stretch of the envelope is one solver pass: the
    integration restarts only at the envelope's jumps
    (PulseEnvelope.breakpoints), and steps end on its kinks
    (PulseEnvelope.kinks), so piecewise-linear and square envelopes keep
    full order.  times selects the storage grid, passed to the solver as
    t_eval (default: the solver's accepted steps, whose spacing tracks the
    local dynamics).
    """
    if tol <= 0:
        raise InvalidArgumentError("tol must be positive")
    env = H.drive.envelope
    t0 = psi0.t
    if t_end <= t0:
        raise InvalidArgumentError("t_end must exceed the initial time")

    def rhs(t, y):
        return H.apply(y, env(t))

    if times is not None:
        times = np.asarray(times, dtype=float)
        if times[0] < t0 - 1e-12 or times[-1] > t_end + 1e-12:
            raise InvalidArgumentError("storage grid outside [t0, t_end]")

    jumps = env.breakpoints(t_end)
    kinks = env.kinks(t_end)
    bounds = np.concatenate([[t0], jumps[jumps > t0], [t_end]])
    y = H.pack(psi0)
    t_out, y_out = [], []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        if times is None:
            t_eval = None
        else:
            inside = times[(times >= lo) & (times < hi)]
            # chunk ends always evaluated so the next chunk restarts from hi
            t_eval = np.unique(np.concatenate([inside, [lo, hi]]))
        stops = kinks[(kinks > lo) & (kinks < hi)].tolist()
        sol = solve_ivp(rhs, (lo, hi), y, method=_DOP853Stops, stops=stops,
                        rtol=tol, atol=atol, t_eval=t_eval)
        if not sol.success:
            raise NumericError(f"integrator failed on [{lo:g}, {hi:g}]: "
                               f"{sol.message}")
        keep = slice(None) if lo == bounds[0] else slice(1, None)
        t_out.append(sol.t[keep])
        y_out.append(sol.y[:, keep])
        y = sol.y[:, -1]

    t_all = np.concatenate(t_out)
    y_all = np.concatenate(y_out, axis=1)
    if times is not None:
        sel = np.searchsorted(t_all, times)
        t_all, y_all = t_all[sel], y_all[:, sel]
    derivs = H.apply(y_all, env(t_all))
    return Trajectory(H, t_all, y_all, kind="ode", derivs=derivs)
