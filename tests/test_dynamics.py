"""Propagation: spectral and ODE paths, interpolation, invariants."""

import numpy as np
import pytest
from _references import Undamped, apply, modal_coords_at_once, states
from scipy.integrate import cumulative_trapezoid, solve_ivp

from arraylight import dynamics
from arraylight.core import (AmplitudeState, AtomArray, LaserDrive,
                             build_lattice, single_f_excitation,
                             timed_dicke_state)
from arraylight.dynamics import (piecewise_grid, propagate_eigen,
                                 propagate_ode)
from arraylight.envelope import _CHUNK, PulseEnvelope
from arraylight.errors import EigenConditionError, InvalidArgumentError
from arraylight.farfield import waveform
from arraylight.hamiltonian import assemble

K0 = 2.0 * np.pi


def _excited_single_atom():
    arr = build_lattice(1, 1, 1, 0.5)
    beta = np.zeros((1, 3), dtype=complex)
    beta[0, 2] = 1.0
    return arr, AmplitudeState(np.zeros(1, dtype=complex), beta)


def test_single_atom_decay_eigen():
    arr, psi0 = _excited_single_atom()
    H = assemble(arr, LaserDrive(0.0, 0.0))
    t = np.linspace(0.0, 8.0, 81)
    traj = propagate_eigen(H, psi0, t)
    pe = traj.populations()[1][:, 2]
    assert np.max(np.abs(pe - np.exp(-t))) < 1e-12


def test_single_atom_decay_ode():
    arr, psi0 = _excited_single_atom()
    H = assemble(arr, LaserDrive(0.0, 0.0))
    t = np.linspace(0.0, 8.0, 81)
    traj = propagate_ode(H, psi0, t_end=8.0, times=t)
    pe = traj.populations()[1][:, 2]
    assert np.max(np.abs(pe - np.exp(-t))) < 1e-6


def test_rabi_oscillation_without_decay():
    # decay off, delta = 0: pure two-level Rabi between f and e_+1
    arr = build_lattice(1, 1, 1, 0.5)
    omega = 3.0
    H = Undamped.of(assemble(arr, LaserDrive(omega, 0.0)))
    psi0 = single_f_excitation(arr, 0)
    t = np.linspace(0.0, 6.0, 121)
    traj = propagate_eigen(H, psi0, t)
    pf = traj.populations()[0]
    assert np.max(np.abs(pf - np.cos(omega * t / 2.0) ** 2)) < 1e-10
    # norm conserved without decay
    assert np.max(np.abs(traj.norm_squared() - 1.0)) < 1e-10


def test_undriven_f_state_is_stationary():
    arr = build_lattice(2, 2, 2, 0.6)
    H = assemble(arr, LaserDrive(0.0, 5.0))
    psi0 = timed_dicke_state(arr, np.array([0.0, 0.0, K0]))
    t = np.linspace(0.0, 10.0, 11)
    traj = propagate_eigen(H, psi0, t)
    assert np.max(np.abs(states(traj)[:8, :] - states(traj)[:8, :1])) < 1e-12
    assert np.max(np.abs(states(traj)[8:, :])) < 1e-12


def test_norm_never_increases():
    arr = build_lattice(2, 1, 2, 0.4)
    H = assemble(arr, LaserDrive(2.5, 1.0))
    psi0 = timed_dicke_state(arr, np.array([0.0, 0.0, K0]))
    t = np.linspace(0.0, 20.0, 401)
    traj = propagate_eigen(H, psi0, t)
    n2 = traj.norm_squared()
    assert np.all(np.diff(n2) <= 1e-12)
    assert n2[0] <= 1.0 + 1e-12


def test_linearity_of_propagation():
    arr = build_lattice(2, 1, 1, 0.5)
    H = assemble(arr, LaserDrive(1.5, 2.0))
    t = np.linspace(0.0, 5.0, 26)
    s1 = states(propagate_eigen(H, single_f_excitation(arr, 0), t))
    s2 = states(propagate_eigen(H, single_f_excitation(arr, 1), t))
    a = AmplitudeState(np.array([0.3 + 0.1j, -0.7j]))
    s3 = states(propagate_eigen(H, a, t))
    assert np.max(np.abs(s3 - (0.3 + 0.1j) * s1 + 0.7j * s2)) < 1e-12


def test_eigen_vs_ode_constant_drive():
    arr = build_lattice(1, 1, 2, 0.35)
    H = assemble(arr, LaserDrive(2.0, 10.0))
    psi0 = timed_dicke_state(arr, np.array([0.0, 0.0, K0]))
    t = np.linspace(0.0, 15.0, 151)
    tr_e = propagate_eigen(H, psi0, t)
    tr_o = propagate_ode(H, psi0, t_end=15.0, times=t)
    assert np.max(np.abs(states(tr_e) - states(tr_o))) < 1e-6


def test_eigen_vs_ode_square_pulse():
    # steps ending on the jump keep the ODE path at full accuracy
    arr = build_lattice(1, 1, 2, 0.35)
    env = PulseEnvelope.square(0.75)
    H = assemble(arr, LaserDrive(6.0, 0.0, envelope=env))
    psi0 = timed_dicke_state(arr, np.array([0.0, 0.0, K0]))
    t = np.linspace(0.0, 5.0, 101)
    tr_e = propagate_eigen(H, psi0, t)
    tr_o = propagate_ode(H, psi0, t_end=5.0, times=t)
    assert np.max(np.abs(states(tr_e) - states(tr_o))) < 1e-6


def _count_solver_calls(monkeypatch):
    """Records the t_span of each Taylor pass (dynamics.solve_ivp) in calls
    and the size of its y0 in sizes."""
    calls, sizes = [], []

    def counting(*args, **kwargs):
        calls.append(args[1])
        sizes.append(len(args[2]))
        return solve_ivp(*args, **kwargs)

    solve_ivp = dynamics.solve_ivp
    monkeypatch.setattr(dynamics, "solve_ivp", counting)
    return calls, sizes


def test_ode_bare_rabi_closed_form_across_kinks(monkeypatch):
    # decay off, delta = 0, one sublevel: a = a0 cos(theta),
    # beta = -i a0 sin(theta), theta = (Omega/2) * integral of f, which the
    # trapezoid rule gives exactly for a piecewise-linear f
    knots = np.array([0.0, 0.7, 1.5, 2.2, 3.6, 4.1, 5.0, 6.3])
    fk = np.array([0.0, 0.9, 0.4, 1.0, 0.2, 0.6, 0.05, 0.3])
    env = PulseEnvelope.from_samples(knots, fk)
    omega = 5.0
    arr = build_lattice(1, 1, 1, 0.5)
    H = Undamped.of(assemble(arr, LaserDrive(omega, 0.0, envelope=env),
                             include_sublevels=(1,)))
    a0 = 0.6 - 0.8j
    psi0 = AmplitudeState(np.array([a0]))
    t = np.linspace(0.0, 8.0, 161)
    calls, _ = _count_solver_calls(monkeypatch)
    traj = propagate_ode(H, psi0, t_end=8.0, times=t)
    assert calls == [(0.0, 8.0)]  # kinks need no restart

    grid = np.union1d(knots, t)
    integral = cumulative_trapezoid(env(grid), grid, initial=0.0)
    theta = 0.5 * omega * integral[np.searchsorted(grid, t)]
    assert np.max(np.abs(states(traj)[0] - a0 * np.cos(theta))) < 1e-7
    assert np.max(np.abs(states(traj)[1] + 1j * a0 * np.sin(theta))) < 1e-7


def test_ode_is_one_pass_across_jumps(monkeypatch):
    arr = build_lattice(1, 1, 2, 0.35)
    env = PulseEnvelope.square(0.75)
    H = assemble(arr, LaserDrive(6.0, 0.0, envelope=env))
    psi0 = timed_dicke_state(arr, np.array([0.0, 0.0, K0]))
    calls, _ = _count_solver_calls(monkeypatch)
    propagate_ode(H, psi0, t_end=5.0, times=np.linspace(0.0, 5.0, 11))
    assert calls == [(0.0, 5.0)]
    calls.clear()
    later = AmplitudeState(psi0.a, psi0.beta, t=1.0)
    t = np.linspace(1.0, 5.0, 41)
    tr_o = propagate_ode(H, later, t_end=5.0, times=t)
    assert calls == [(1.0, 5.0)]
    tr_e = propagate_eigen(H, later, t)
    assert np.max(np.abs(states(tr_e) - states(tr_o))) < 1e-6


def test_ode_matches_eigen_across_an_off_grid_jump():
    # the jump is a piece end: the last step before it ends there on the
    # piece before it, the first step after it starts on the piece after
    # it, and the term counts hold both to the tolerance
    arr = build_lattice(2, 2, 2, 0.35)
    t_w = 2.37
    H = assemble(arr, LaserDrive(6.0, 1.0, envelope=PulseEnvelope.square(t_w)))
    psi0 = timed_dicke_state(arr, np.array([0.0, 0.0, K0]))
    t = np.linspace(0.0, 5.0, 51)
    assert not np.any(np.isclose(t, t_w))
    tr_e = propagate_eigen(H, psi0, t)
    tr_o = propagate_ode(H, psi0, t_end=5.0, tol=1e-12, atol=1e-14, times=t)
    err = np.max(np.abs(states(tr_o) - states(tr_e)), axis=0)
    assert np.max(err[t < t_w]) < 2e-12
    assert np.max(err[t > t_w]) < 2e-12


def _square_pulse_case(envelope):
    """2x2x2 array under LaserDrive(6.0, 1.0, envelope) and its z-directed
    timed state."""
    arr = build_lattice(2, 2, 2, 0.35)
    H = assemble(arr, LaserDrive(6.0, 1.0, envelope=envelope))
    return H, timed_dicke_state(arr, np.array([0.0, 0.0, K0]))


@pytest.mark.parametrize("times", [None, np.linspace(0.0, 4.9, 50)])
def test_ode_state_at_matches_eigen_around_a_jump(times):
    # off-grid states on the steps on both sides of the jump, with the jump
    # stored (default grid) or not (0.1 grid), come from the integrator
    t_w = 2.37
    H, psi0 = _square_pulse_case(PulseEnvelope.square(t_w))
    tr_o = propagate_ode(H, psi0, t_end=4.9, tol=1e-12, atol=1e-14,
                         times=times)
    tr_e = propagate_eigen(H, psi0, np.linspace(0.0, 4.9, 50))
    for u in np.concatenate([np.linspace(2.2, t_w, 9)[1:-1],
                             np.linspace(t_w, 2.6, 9)[1:-1]]):
        assert u not in tr_o.times
        assert np.max(np.abs(tr_o.state_at(u) - tr_e.state_at(u))) <= 1e-10


def test_ode_waveform_on_an_off_grid_grid_matches_eigen(monkeypatch):
    # an off-grid u_grid on an ODE trajectory is served by one integration
    # in the trajectory's own blocks, from the stored sample before its
    # first time, over the sorted grid
    H, psi0 = _square_pulse_case(PulseEnvelope.square(2.37))
    t = np.linspace(0.0, 4.9, 50)
    tr_o = propagate_ode(H, psi0, t_end=4.9, tol=1e-12, atol=1e-14, times=t)
    tr_e = propagate_eigen(H, psi0, t)
    u = np.linspace(0.03, 4.87, 121)
    assert not np.any(np.isin(u, t))
    calls, _ = _count_solver_calls(monkeypatch)
    got = waveform(tr_o, u_grid=u, allow_truncation=True)
    assert calls == [(0.0, 4.87)]
    want = waveform(tr_e, u_grid=u, allow_truncation=True)
    for name in ("flux_plus", "flux_minus", "cumulative", "state_side"):
        assert np.max(np.abs(getattr(got, name) - getattr(want, name))) <= 1e-9
    # the grid's order does not matter; stored samples are not integrated
    order = np.random.default_rng(0).permutation(len(u))
    coords = tr_o.coords_at(u)
    assert np.array_equal(tr_o.coords_at(u[order]), coords[:, order])
    assert np.array_equal(tr_o.coords_at(t[[7, 3]]), tr_o.coords[:, [7, 3]])
    # a repeated time is one grid time
    again = tr_o.coords_at(u[[5, 2, 5]])
    assert np.array_equal(again[:, 0], again[:, 2])
    assert np.max(np.abs(again - coords[:, [5, 2, 5]])) <= 1e-12
    assert len(calls) == 4


def test_ode_pass_across_a_jump_costs_about_the_split_runs(monkeypatch):
    # the jump is a piece end: the steps of the one pass stop on it, and
    # the step that starts on it uses the piece after it, so the pass
    # costs about what two runs split at the jump cost (84 block products
    # against 58 + 24)
    t_w, t_end = 2.37, 4.9
    H, psi0 = _square_pulse_case(PulseEnvelope.square(t_w))
    sols = _record_solutions(monkeypatch)
    propagate_ode(H, psi0, t_end=t_end, tol=1e-12, atol=1e-14)
    first = propagate_ode(H, psi0, t_end=t_w, tol=1e-12, atol=1e-14)
    y = states(first)[:, -1]
    n = H.n_atoms
    at_jump = AmplitudeState(y[:n], H.beta_matrix(y), t=t_w)
    H_low, _ = _square_pulse_case(PulseEnvelope.constant(0.0))
    propagate_ode(H_low, at_jump, t_end=t_end, tol=1e-12, atol=1e-14)
    one_pass, before, after = (sol.nfev for sol in sols)
    assert one_pass <= 1.1 * (before + after)


@pytest.mark.parametrize("end", ["start", "end"])
def test_ode_storage_grid_ends_within_slack(end):
    # a storage grid reaching up to 1e-12 outside [t0, t_end] stores the
    # states at t0 and t_end, and state_at in that slack returns them
    H, psi0 = _square_pulse_case(PulseEnvelope.square(0.75))
    exact = np.linspace(0.0, 2.0, 21)
    grid = exact.copy()
    k = 0 if end == "start" else -1
    grid[k] += 5e-13 if end == "end" else -5e-13
    want = propagate_ode(H, psi0, t_end=2.0, times=exact)
    got = propagate_ode(H, psi0, t_end=2.0, times=grid)
    assert np.array_equal(got.times, exact)
    assert np.array_equal(states(got), states(want))
    assert np.array_equal(got.state_at(grid[k]), states(want)[:, k])


def _record_solutions(monkeypatch):
    """Records the result of each Taylor pass (dynamics.solve_ivp) in the
    returned list."""
    sols = []

    def recording(*args, **kwargs):
        sols.append(solve_ivp(*args, **kwargs))
        return sols[-1]

    solve_ivp = dynamics.solve_ivp
    monkeypatch.setattr(dynamics, "solve_ivp", recording)
    return sols


def test_ode_reads_the_left_limit_at_a_stretch_ending_jump(monkeypatch):
    # the square pulse's jump at t_w ends the run: the step that ends on it
    # uses the piece before it, so the run is the constant-drive one, with
    # the same steps and products
    arr = build_lattice(2, 2, 2, 0.35)
    psi0 = timed_dicke_state(arr, np.array([0.0, 0.0, K0]))
    sols = _record_solutions(monkeypatch)
    runs = []
    for env in (PulseEnvelope.square(2.37), PulseEnvelope.constant(1.0)):
        H = assemble(arr, LaserDrive(6.0, 1.0, envelope=env))
        runs.append(propagate_ode(H, psi0, t_end=2.37))
    square, constant = sols
    assert square.nfev == constant.nfev
    assert np.array_equal(runs[0].times, runs[1].times)
    assert np.max(np.abs(states(runs[0]) - states(runs[1]))) <= 1e-15


def _kinked_envelope():
    """A kink at 0.7, jumps at 1.5, 2.2 and 3.1, slope 0 from 2.2 on."""
    env = PulseEnvelope([0.0, 0.7, 1.5, 2.2, 3.1], [0.7, 1.5, 2.2, 3.1, np.inf],
                        [0.0, 0.9, 1.0, 0.6, 0.3], [0.9, 0.4, 0.2, 0.6, 0.3])
    assert env.pieces(0.0, 6.0)[:, 0].tolist() == [0.0, 0.7, 1.5, 2.2, 3.1]
    return env


@pytest.mark.parametrize("direction", [[0.0, 0.0, K0], [K0, 0.0, 0.0]])
def test_ode_matches_stock_dop853_across_kinks_and_jumps(direction):
    # stock DOP853 at rtol 1e-12, restarted on every piece end, against the
    # Taylor steps at the default tolerances, on the same blocks.  The pass
    # bounds its summed truncation error by tol max ||psi|| + atol, about
    # 1e-8 here; the 3e-8 bound leaves room for the reference's own error
    # and rounding.  The z-directed state touches one symmetry block, the
    # x-directed one several
    env = _kinked_envelope()
    arr = build_lattice(2, 2, 2, 0.35)
    H = assemble(arr, LaserDrive(6.0, 1.0, envelope=env))
    psi0 = timed_dicke_state(arr, np.array(direction))
    t = np.linspace(0.0, 6.0, 61)
    traj = propagate_ode(H, psi0, t_end=6.0, times=t)
    assert (len(traj.blocks) == 1) == (direction[2] != 0.0)
    spans = dynamics._spans(traj.blocks)

    def rhs(u, y):
        return np.concatenate([apply(blk, y[s], env(u))
                               for blk, s in zip(traj.blocks, spans)])

    ref = np.empty_like(traj.coords)
    y = traj.coords[:, 0]
    knots = [0.0, 0.7, 1.5, 2.2, 3.1, 6.0]
    for lo, hi in zip(knots[:-1], knots[1:]):
        on = (t >= lo) & (t <= hi)
        grid = np.union1d(t[on], [hi])
        sol = solve_ivp(rhs, (lo, hi), y, method="DOP853", rtol=1e-12,
                        atol=1e-14, t_eval=grid)
        ref[:, on] = sol.y[:, np.searchsorted(grid, t[on])]
        y = sol.y[:, -1]
    assert np.max(np.abs(traj.coords - ref)) <= 3e-8


def _taylor_terms(blocks, env, t, h, y, m):
    """The terms z_0, ..., z_m of the two-term Taylor recursion of _taylor
    over the step of length h from t, term by term on
    _references.apply: f and its slope s from the piece of env that starts
    at t (PulseEnvelope.pieces), mu the centre of the range of the
    generator's diagonal,

        (m + 1) z_{m+1} = h (G(f) - mu) z_m + h^2 s P z_{m-1},

    P z = G(1) z - G(0) z.  Returns mu and the terms; the state at
    t + theta h is exp(mu theta h) sum_m theta^m z_m."""
    spans = dynamics._spans(blocks)

    def G(y, f):
        return np.concatenate([apply(blk, y[s], f)
                               for blk, s in zip(blocks, spans)])

    diagonal = np.concatenate([np.zeros(blk.n_meta) for blk in blocks]
                              + [np.diag(blk.excited) for blk in blocks])
    mu = complex(diagonal.real.min() + diagonal.real.max(),
                 diagonal.imag.min() + diagonal.imag.max()) / 2
    _, _, f, slope = env.pieces(t, t + h)[0]
    z_before, z = np.zeros_like(y), y
    terms = [z]
    for j in range(m):
        z_before, z = z, (h * (G(z, f) - mu * z) + h * h * slope
                          * (G(z_before, 1.0) - G(z_before, 0.0))) / (j + 1)
        terms.append(z)
    return mu, terms


def _taylor_reference(blocks, env, times, y0, counts):
    """_taylor_terms over the steps between consecutive times, with
    counts[k] terms on step k, each step ending on exp(mu h) sum_m z_m.
    Returns the states at times, one column each, and the terms summed."""
    ys, products = [y0], 0
    for t, t_new, m in zip(times[:-1], times[1:], counts):
        mu, terms = _taylor_terms(blocks, env, t, t_new - t, ys[-1], m)
        products += m
        ys.append(np.exp(mu * (t_new - t)) * np.sum(terms, axis=0))
    return np.array(ys).T, products


@pytest.mark.parametrize("direction", [[0.0, 0.0, K0], [K0, 0.0, 0.0]])
def test_ode_pass_matches_the_term_by_term_recursion(direction, term_counts):
    # the pass's one product per term and block with [h s P | G(f) - mu]
    # against the recursion it sums, on the same step ends and term counts:
    # the states agree to a relative 1e-12 (the terms grow to about
    # exp(h ||G||), and the two sum their products in different orders)
    # and the products are equal.  The z-directed state touches one
    # symmetry block, the x-directed one several.  At delta = 40 the norm
    # bound splits the five pieces into more steps
    env = _kinked_envelope()
    arr = build_lattice(2, 2, 2, 0.35)
    H = assemble(arr, LaserDrive(6.0, 40.0, envelope=env))
    psi0 = timed_dicke_state(arr, np.array(direction))
    traj = propagate_ode(H, psi0, t_end=6.0)
    assert (len(traj.blocks) == 1) == (direction[2] != 0.0)
    assert len(term_counts) == len(traj.times) - 1 > 5
    ref, products = _taylor_reference(traj.blocks, env, traj.times,
                                      traj.coords[:, 0], term_counts)
    assert np.max(np.abs(traj.coords - ref)) <= 1e-12 * np.max(np.abs(ref))
    assert traj.ode_products == products


@pytest.mark.parametrize("direction", [[0.0, 0.0, K0], [K0, 0.0, 0.0]])
def test_ode_storage_on_the_step_ends_is_the_default_run(direction,
                                                         term_counts):
    # the pass's work does not depend on where it stores: on the default
    # run's step ends it takes the same steps and products, and its
    # samples, the step's Taylor sum at theta = x / h (about 1), are the
    # default run's states, the plain sum, to a relative 1e-14
    env = _kinked_envelope()
    arr = build_lattice(2, 2, 2, 0.35)
    H = assemble(arr, LaserDrive(6.0, 1.0, envelope=env))
    psi0 = timed_dicke_state(arr, np.array(direction))
    default = propagate_ode(H, psi0, t_end=6.0)
    steps = term_counts.copy()
    term_counts.clear()
    on_ends = propagate_ode(H, psi0, t_end=6.0, times=default.times)
    assert term_counts == steps
    assert on_ends.ode_products == default.ode_products
    assert np.array_equal(on_ends.times, default.times)
    assert np.max(np.abs(on_ends.coords - default.coords)) \
        <= 1e-14 * np.max(np.abs(default.coords))


def test_ode_stores_each_sample_from_the_step_around_it(term_counts):
    # the samples are assigned to their steps before the pass runs: t0,
    # four samples inside one step, steps that hold no sample, and samples
    # exactly on step ends.  The pass takes the default run's steps and
    # products; t0 stores the initial state as it is; inside a step a
    # sample is the term-by-term recursion's sum at theta to a relative
    # 1e-12 (as in test_ode_pass_matches_the_term_by_term_recursion).  At
    # delta = 40 the terms grow to about exp(h ||G||) ~ 100, so on a step
    # end the sum at theta = x / h agrees with the default run's plain sum
    # to a relative 1e-13 (1.6e-14 measured)
    env = _kinked_envelope()
    arr = build_lattice(2, 2, 2, 0.35)
    H = assemble(arr, LaserDrive(6.0, 40.0, envelope=env))
    psi0 = timed_dicke_state(arr, np.array([K0, 0.0, 0.0]))
    default = propagate_ode(H, psi0, t_end=6.0)
    ends, states = default.times, default.coords
    steps = term_counts.copy()
    assert len(steps) == len(ends) - 1 > 12
    scale = np.max(np.abs(states))

    # t0; four samples inside step 2; the end of step 4; none on steps 5
    # to 9; one inside step 10 and its end; t_end.  (step k runs from
    # ends[k] to ends[k + 1])
    inside = {2: [0.1, 0.35, 0.6, 0.9], 10: [0.5]}
    grid = np.array(sorted(
        [ends[0], ends[5], ends[11], ends[-1]]
        + [ends[k] + th * (ends[k + 1] - ends[k])
           for k, ths in inside.items() for th in ths]))
    term_counts.clear()
    traj = propagate_ode(H, psi0, t_end=6.0, times=grid)
    assert term_counts == steps
    assert traj.ode_products == default.ode_products
    assert np.array_equal(traj.times, grid)
    assert np.array_equal(traj.coords[:, 0], states[:, 0])
    for i, u in enumerate(grid[1:], 1):
        k = int(np.searchsorted(ends, u, side="left"))
        if ends[k] == u:
            assert np.max(np.abs(traj.coords[:, i] - states[:, k])) \
                <= 1e-13 * scale
            continue
        h = ends[k] - ends[k - 1]
        mu, terms = _taylor_terms(traj.blocks, env, ends[k - 1], h,
                                  states[:, k - 1], steps[k - 1])
        x = u - ends[k - 1]
        ref = np.exp(mu * x) * sum((x / h) ** j * z
                                   for j, z in enumerate(terms))
        assert np.max(np.abs(traj.coords[:, i] - ref)) <= 1e-12 * scale


def test_ode_work_is_recorded_on_the_trajectory(monkeypatch):
    # propagate_ode and each off-grid pass of coords_at add their solver
    # pass and block products; a spectral trajectory has none
    H, psi0 = _square_pulse_case(PulseEnvelope.square(2.37))
    sols = _record_solutions(monkeypatch)
    traj = propagate_ode(H, psi0, t_end=4.9, times=np.linspace(0.0, 4.9, 50))
    assert (traj.ode_passes, traj.ode_products) == (1, sols[0].nfev)
    traj.coords_at([0.05, 3.33])
    traj.state_at(1.0)  # stored: no pass
    assert traj.ode_passes == len(sols) == 2
    assert traj.ode_products == sum(sol.nfev for sol in sols)
    eig = propagate_eigen(H, psi0, np.linspace(0.0, 4.9, 50))
    assert (eig.ode_passes, eig.ode_products) == (0, 0)


@pytest.mark.parametrize("times", [[], [0.0, 2.0, 1.0], [0.0, 1.0, 1.0, 2.0],
                                   [[0.0, 1.0], [1.5, 2.0]], [0.0, np.nan]])
def test_ode_rejects_bad_storage_grids(times):
    # empty, unsorted, duplicated, 2-D or NaN grids fail before integrating
    H, psi0 = _square_pulse_case(PulseEnvelope.square(0.75))
    with pytest.raises(InvalidArgumentError):
        propagate_ode(H, psi0, t_end=2.0, times=times)


@pytest.mark.parametrize("tols", [(0.0, 1e-12), (-1e-8, 1e-12),
                                  (np.nan, 1e-12), (np.inf, 1e-12),
                                  (1e-8, -1.0), (1e-8, np.nan),
                                  (1e-8, np.inf)])
def test_ode_rejects_bad_tolerances(tols):
    # atol = -1 used to hang: no term count meets a negative tolerance
    tol, atol = tols
    H, psi0 = _square_pulse_case(PulseEnvelope.square(0.75))
    with pytest.raises(InvalidArgumentError):
        propagate_ode(H, psi0, t_end=2.0, tol=tol, atol=atol)


@pytest.mark.parametrize("t_end", [0.0, np.nan, np.inf])
def test_ode_rejects_a_bad_t_end(t_end):
    H, psi0 = _square_pulse_case(PulseEnvelope.square(0.75))
    with pytest.raises(InvalidArgumentError):
        propagate_ode(H, psi0, t_end=t_end)


def test_ode_rejects_a_nonfinite_initial_state():
    H, psi0 = _square_pulse_case(PulseEnvelope.square(0.75))
    a = psi0.a.copy()
    a[1] = np.nan
    with pytest.raises(InvalidArgumentError):
        propagate_ode(H, AmplitudeState(a, psi0.beta), t_end=2.0)


def test_ode_tolerance_tightening_converges():
    arr = build_lattice(1, 1, 2, 0.35)
    H = assemble(arr, LaserDrive(2.0, 3.0))
    psi0 = timed_dicke_state(arr, np.array([0.0, 0.0, K0]))
    t = np.array([0.0, 4.0])
    loose = states(propagate_ode(H, psi0, t_end=4.0, tol=1e-6,
                                 times=t))[:, -1]
    tight = states(propagate_ode(H, psi0, t_end=4.0, tol=1e-10,
                                 times=t))[:, -1]
    assert np.max(np.abs(loose - tight)) < 1e-5


def test_state_at_interpolation_accuracy():
    arr = build_lattice(1, 1, 2, 0.4)
    H = assemble(arr, LaserDrive(2.0, 4.0))
    psi0 = timed_dicke_state(arr, np.array([0.0, 0.0, K0]))
    grid = np.arange(0.0, 5.0 + 1e-12, 0.01)
    traj = propagate_ode(H, psi0, t_end=5.0, times=grid)
    ref = propagate_eigen(H, psi0, grid)
    rng = np.random.default_rng(6)
    for tq in rng.uniform(0.0, 5.0, size=25):
        got = traj.state_at(tq)
        want = ref.state_at(tq)
        assert np.max(np.abs(got - want)) < 1e-7


def test_state_at_exact_on_nodes():
    arr, psi0 = _excited_single_atom()
    H = assemble(arr, LaserDrive(0.0, 0.0))
    t = np.linspace(0.0, 3.0, 31)
    traj = propagate_ode(H, psi0, t_end=3.0, times=t)
    for k in (0, 10, 30):
        assert np.array_equal(traj.state_at(t[k]), states(traj)[:, k])


def test_state_at_eigen_segment_at_step():
    # a time at or after a later segment's start, less 1e-12, belongs to
    # that segment, as a sample on the grid does (Trajectory.chunks)
    arr = build_lattice(1, 1, 2, 0.35)
    H = assemble(arr, LaserDrive(6.0, 1.0,
                                 envelope=PulseEnvelope.square(0.75)))
    psi0 = timed_dicke_state(arr, np.array([0.0, 0.0, K0]))
    t = np.linspace(0.0, 3.0, 61)
    traj = propagate_eigen(H, psi0, t)
    segments = traj._segments
    assert len(segments) == 2

    def scan(u):
        for seg in reversed(segments[1:]):
            if u >= seg[0] - 1e-12:
                return seg
        return segments[0]

    step = 0.75
    for u in (0.0, step - 2e-12, np.nextafter(step - 1e-12, 0.0),
              step - 1e-12, step - 1e-13, np.nextafter(step, 0.0), step,
              np.nextafter(step, 1.0), step + 1e-12, 1.2, 3.0):
        # the segment's block coordinates W_k exp(lam_k (u - t0)) c0_k
        t0, _, modes = scan(u)
        want = traj.lift(dynamics._modal_coords(modes, [u - t0])[:, 0])
        assert np.array_equal(traj.state_at(u), want)
    assert scan(step - 1e-13) is segments[1]
    k = int(np.argmin(np.abs(t - step)))
    assert t[k] == step
    assert np.allclose(traj.state_at(step), states(traj)[:, k], rtol=0.0,
                       atol=1e-12)
    assert np.allclose(traj.state_at(3.0), states(traj)[:, -1], rtol=0.0,
                       atol=1e-12)


def test_eigen_coords_at_the_grid_are_the_streamed_chunks():
    # one rule for a time near a segment boundary, in coords_at and in the
    # chunks every reader of all samples sees: on a two-segment run whose
    # grid holds the boundary, times within 1e-12 of it on both sides and
    # enough samples for several chunks, the two agree bit for bit, and
    # the boundary samples come from the later segment
    arr = build_lattice(1, 1, 2, 0.35)
    H = assemble(arr, LaserDrive(6.0, 1.0,
                                 envelope=PulseEnvelope.square(0.75)))
    psi0 = timed_dicke_state(arr, np.array([0.0, 0.0, K0]))
    step = 0.75
    t = np.union1d(np.linspace(0.0, 3.0, 20001),
                   [step - 5e-13, step, step + 5e-13])
    traj = propagate_eigen(H, psi0, t)
    assert len(traj._segments) == 2 and traj.coords is None
    chunks = list(traj.chunks())
    assert len(chunks) > 2
    assert [s.start for s, _ in chunks] == [0] + [s.stop for s, _ in
                                                  chunks[:-1]]
    assert chunks[-1][0].stop == len(t)
    assert max(y.size for _, y in chunks) <= dynamics._CHUNK_ENTRIES
    streamed = np.hstack([y for _, y in chunks])
    assert np.array_equal(traj.coords_at(t), streamed)
    # any order of the times reads the same values
    order = np.random.default_rng(0).permutation(len(t))
    assert np.array_equal(traj.coords_at(t[order]), streamed[:, order])
    t0, _, modes = traj._segments[1]
    on = np.flatnonzero(np.abs(t - step) <= 1e-12)
    assert len(on) >= 3
    later = dynamics._modal_coords(modes, t[on] - t0)
    assert np.allclose(streamed[:, on], later, rtol=0.0, atol=1e-15)


def test_state_at_outside_coverage_raises():
    arr, psi0 = _excited_single_atom()
    H = assemble(arr, LaserDrive(0.0, 0.0))
    traj = propagate_eigen(H, psi0, np.linspace(0.0, 2.0, 21))
    with pytest.raises(InvalidArgumentError):
        traj.state_at(2.5)
    with pytest.raises(InvalidArgumentError):
        traj.state_at(-0.5)


def test_eigen_rejects_ramping_envelope():
    arr = build_lattice(1, 1, 2, 0.4)
    env = PulseEnvelope.from_samples([0.0, 1.0, 2.0], [0.0, 1.0, 0.0])
    H = assemble(arr, LaserDrive(2.0, 0.0, envelope=env))
    psi0 = timed_dicke_state(arr, np.array([0.0, 0.0, K0]))
    with pytest.raises(InvalidArgumentError):
        propagate_eigen(H, psi0, np.linspace(0.0, 2.0, 5))


def test_eigen_takes_equal_flat_segments_as_one():
    # segments that continue one flat line are one spectral segment, one
    # eig, with the arithmetic of the constant envelope's run
    arr = build_lattice(1, 1, 2, 0.4)
    psi0 = timed_dicke_state(arr, np.array([0.0, 0.0, K0]))
    t = np.linspace(0.0, 5.0, 51)
    runs = []
    for env in (PulseEnvelope([0.0, 2.0], [2.0, np.inf], [0.6, 0.6],
                              [0.6, 0.6]),
                PulseEnvelope.constant(0.6)):
        runs.append(propagate_eigen(
            assemble(arr, LaserDrive(2.0, 3.0, envelope=env)), psi0, t))
    assert len(runs[0]._segments) == len(runs[1]._segments) == 1
    assert np.array_equal(runs[0].coords_at(t), runs[1].coords_at(t))


def test_eigen_covers_the_run_from_the_initial_state():
    # the pieces start at psi0.t: a grid of psi0.t alone is psi0, and an
    # envelope whose first sample comes later is its first line before it
    # (PulseEnvelope.__call__), which the ODE integrates as well
    arr = build_lattice(1, 1, 2, 0.4)
    psi0 = timed_dicke_state(arr, np.array([0.0, 0.0, K0]))
    H = assemble(arr, LaserDrive(2.0, 3.0))
    start = states(propagate_eigen(H, psi0, [0.0]))[:, 0]
    assert np.max(np.abs(start - H.pack(psi0))) < 1e-12
    env = PulseEnvelope.from_samples([2.0, 4.0], [0.6, 0.6])
    H = assemble(arr, LaserDrive(2.0, 3.0, envelope=env))
    t = np.linspace(0.0, 5.0, 11)
    tr_e = propagate_eigen(H, psi0, t)
    tr_o = propagate_ode(H, psi0, t_end=5.0, times=t)
    assert np.max(np.abs(states(tr_e) - states(tr_o))) < 1e-6


def test_populations_shapes():
    arr = build_lattice(2, 1, 1, 0.5)
    H = assemble(arr, LaserDrive(1.0, 0.0))
    psi0 = timed_dicke_state(arr, np.zeros(3))
    t = np.linspace(0.0, 2.0, 21)
    traj = propagate_eigen(H, psi0, t)
    meta, excited = traj.populations()
    assert meta.shape == (21,)
    assert excited.shape == (21, 3)
    assert np.isclose(meta[0], 1.0)
    assert np.allclose(excited[0], 0.0)


def test_restricted_sublevel_model_matches_full_for_z_chain():
    # on a z chain the nu blocks decouple, so the {+1}-only model equals
    # the full model's nu = +1 sector when only that sector is driven
    arr = build_lattice(1, 1, 3, 0.4)
    drive = LaserDrive(1.5, 2.0)
    psi0 = timed_dicke_state(arr, np.array([0.0, 0.0, K0]))
    t = np.linspace(0.0, 6.0, 61)
    full = propagate_eigen(assemble(arr, drive), psi0, t)
    rest = propagate_eigen(
        assemble(arr, drive, include_sublevels=(1,)), psi0, t)
    n = arr.n_atoms
    assert np.max(np.abs(states(full)[:n] - states(rest)[:n])) < 1e-10
    full_beta_p1 = states(full)[n:].reshape(n, 3, -1)[:, 2, :]
    rest_beta_p1 = states(rest)[n:].reshape(n, 1, -1)[:, 0, :]
    assert np.max(np.abs(full_beta_p1 - rest_beta_p1)) < 1e-10


def test_trajectory_csv(tmp_path):
    arr, psi0 = _excited_single_atom()
    H = assemble(arr, LaserDrive(0.0, 0.0))
    t = np.linspace(0.0, 1.0, 11)
    traj = propagate_eigen(H, psi0, t)
    path = tmp_path / "traj.csv"
    traj.to_csv(path, header_lines=["digest abc"])
    lines = path.read_text().splitlines()
    assert lines[0] == "# digest abc"
    cols = lines[1].split(",")
    assert cols[:6] == ["t", "pop_f", "pop_e_m1", "pop_e_0", "pop_e_p1",
                        "norm2"]
    data = np.array([row.split(",") for row in lines[2:]], dtype=float)
    assert data.shape[0] == 11
    assert np.allclose(data[:, 4], np.exp(-t), atol=1e-12)


def _readme_run():
    """The README run.yaml's Hamiltonian, initial state and 7701-sample
    time grid."""
    arr = build_lattice(3, 3, 8, 0.6)
    times = piecewise_grid(200.0, ((0.0, 0.005), (30.0, 0.1), (200.0, 1.0)))
    return (assemble(arr, LaserDrive(2.0, 10.0)),
            timed_dicke_state(arr, np.array([0.0, 0.0, K0])), times)


def test_propagate_eigen_memory_on_the_readme_run(above_live):
    # the trajectory keeps its segments' modes, not the (80, 7701)
    # coordinates of its samples (9.9 MB), which it evaluates when read:
    # keeping that table took the allocation peak to 9.9 MB plus up to
    # 3 MB of temporaries
    H, psi0, times = _readme_run()
    traj, peak, kept = above_live(propagate_eigen, H, psi0, times)
    assert traj.coords is None
    assert kept < 5e5, kept  # 0.31 MB: the blocks, modes and pair tables
    assert peak < 1e6, peak  # 0.58 MB
    assert sum(y.shape[1] for _, y in traj.chunks()) == 7701


def test_trajectory_csv_memory_on_the_readme_run(tmp_path, above_live):
    # |c|^2 is formed once per chunk of samples for the population and
    # norm columns: squaring the whole trajectory once for the populations
    # and once for the norm took the peak to 5.4 MB above the live memory
    H, psi0, times = _readme_run()
    traj = propagate_eigen(H, psi0, times)
    _, peak, _ = above_live(traj.to_csv, tmp_path / "trajectory.csv")
    assert peak < 3e6, peak


@pytest.mark.parametrize("k", [1, _CHUNK - 1, _CHUNK, _CHUNK + 1,
                               2 * _CHUNK + 3])
def test_modal_coords_across_chunk_boundaries(k):
    # two blocks, the first with an F-ordered W, written into a column
    # slice of a larger array, against one product per block over the
    # whole grid.  Not bit for bit: the rounding of the product may depend
    # on its width, and the last chunk is narrower than the others
    rng = np.random.default_rng(k)

    def block(m):
        W = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
        lam = -rng.uniform(0.0, 1.0, m) + 1j * rng.normal(size=m)
        return W, lam, rng.normal(size=m) + 1j * rng.normal(size=m)

    (W, lam, c0), second = block(5), block(3)
    modes = [(np.asfortranarray(W), lam, c0), second]
    dt = np.sort(rng.uniform(0.0, 5.0, k))
    want = modal_coords_at_once(modes, dt)
    bound = 1e-15 * np.max(np.abs(want))
    big = np.zeros((8, k + 7), dtype=complex)
    dynamics._modal_coords(modes, dt, out=big[:, 3:3 + k])
    assert np.max(np.abs(big[:, 3:3 + k] - want)) <= bound
    assert not np.any(big[:, :3]) and not np.any(big[:, 3 + k:])
    assert np.max(np.abs(dynamics._modal_coords(modes, dt) - want)) <= bound


def test_eigen_blocks_follow_the_initial_state(monkeypatch):
    # a z-directed timed state is a rotation eigenvector: one C4 irrep (20
    # of 72), whose even and odd halves under inversion it both touches.
    # An x-directed one touches every C4 irrep, but only one parity half
    # of each (cos kx is even, sin kx odd).  The ODE integrates the touched
    # rotation blocks, unsplit, and stores their coordinates
    arr = build_lattice(3, 3, 2, 0.4)
    H = assemble(arr, LaserDrive(2.0, 1.0,
                                 envelope=PulseEnvelope.square(1.0, 1.0, 0.5)))
    t = np.linspace(0.0, 2.0, 21)
    z_state = timed_dicke_state(arr, [0.0, 0.0, K0])
    x_state = timed_dicke_state(arr, [K0, 0.0, 0.0])
    z = propagate_eigen(H, z_state, t)
    assert z.eigen_blocks == [[10, 10], [10, 10]]
    x = propagate_eigen(H, x_state, t)
    assert x.eigen_blocks == [[9, 10, 8, 9], [9, 10, 8, 9]]
    _, sizes = _count_solver_calls(monkeypatch)
    for eig, psi0, ode_dim in ((z, z_state, 20), (x, x_state, H.dim)):
        sizes.clear()
        ode = propagate_ode(H, psi0, 2.0, times=t)
        assert ode.eigen_blocks is None
        # one solver pass across the jump, on the touched rotation blocks
        assert sizes == [ode_dim]
        assert states(ode).shape == (H.dim, len(t))
        assert np.max(np.abs(states(ode) - states(eig))) < 1e-6


def test_eigen_condition_is_the_2norm_condition_of_V():
    # over several symmetry blocks the checked number is cond(V), exactly
    # as on the full matrix; on this chiral C4 array (two orbits, no
    # mirror plane) the largest single-block condition number is smaller
    pos = []
    for x, y, z in ((-0.422, 0.384, 0.22), (0.345, -0.37, 0.363)):
        for _ in range(4):
            pos.append((x, y, z))
            x, y = -y, x
    arr = AtomArray(np.array(pos))
    H = assemble(arr, LaserDrive(2.0, 1.0))
    psi0 = single_f_excitation(arr, 0)
    t = np.linspace(0.0, 1.0, 11)
    traj = propagate_eigen(H, psi0, t)
    assert len(traj.eigen_blocks[0]) == 4
    _, _, modes = traj._segments[0]
    V = np.hstack([blk.basis.lift(W)
                   for blk, (W, _, _) in zip(traj.blocks, modes)])
    cond = np.linalg.cond(V)
    propagate_eigen(H, psi0, t, cond_limit=cond * (1 + 1e-9))
    with pytest.raises(EigenConditionError):
        propagate_eigen(H, psi0, t, cond_limit=cond * (1 - 1e-9))
