"""The reduced adiabatic model integrated under an envelope, independently
of its closed form: the cross-check of the reparametrization identity
a(t) = a0(tau(t)) that shaping.reparametrize relies on."""

import numpy as np
from scipy.integrate import solve_ivp

from arraylight.errors import NumericError


def adiabatic_ode(model, a0, envelope, times, tol=1e-10):
    """(N, K) solution of da/dt = f(t)^2 model.matrix a, a(times[0]) = a0,
    on times, by scipy's DOP853 at rtol tol and atol 1e-13."""
    M = model.matrix

    def rhs(t, y):
        return float(envelope(t)) ** 2 * (M @ y)
    sol = solve_ivp(rhs, (times[0], times[-1]),
                    np.asarray(a0, dtype=complex), method="DOP853",
                    rtol=tol, atol=1e-13, t_eval=times)
    if not sol.success:
        raise NumericError(f"adiabatic integration failed: {sol.message}")
    return sol.y
