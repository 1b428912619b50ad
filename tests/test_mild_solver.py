import csv
import dataclasses
import importlib.util
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from fracrd import mild_solver
from fracrd.cli_runner import make_profile
from fracrd.errors import InvalidParameter, NegativeInitialData, NonFiniteInput, PicardDivergence
from fracrd.heat_kernel import KernelSpec, semigroup_apply
from fracrd.mild_solver import (
    MAX_HALVINGS,
    PICARD_MAX,
    PICARD_TOL,
    REGROW_AFTER,
    SolverConfig,
    _Stepper,
    detect_blowup,
    load_checkpoint,
    phi_weights,
    save_checkpoint,
    solve_mild,
    w2_weight,
)
from fracrd.rds_model import (
    ReactionModel,
    bimolecular,
    dissipative_pair,
    eval_reactions,
    reaction_terms,
)
from fracrd.spectral_core import Field, make_grid, rfft


def _bump_fields(g, amps, floor=0.05, width=2.0):
    x = g.coord_arrays()[0]
    r = np.minimum(np.abs(x), g.extent - np.abs(x))
    bump = np.exp(-(r / width) ** 2)
    return [Field(g, a * bump + floor) for a in amps]


# README scenario (bimolecular, four species) on its own 64-point grid
README_DATA = [
    {"profile": "gaussian-bump", "amplitude": 1.0, "width": 2.0, "floor": 0.05},
    {"profile": "gaussian-bump", "amplitude": 0.3, "width": 2.0, "floor": 0.05},
    {"profile": "two-bumps", "amplitude": 0.8, "width": 2.0, "floor": 0.05},
    {"profile": "constant", "amplitude": 0.2},
]
README_D = (1.0, 0.7, 1.3, 0.9)
SELFCONV_ERR_002 = 2.9084598780417093e-06  # dt = 0.02 error of the exponential-Euler-predicted solver
SELFCONV_ERR3_002 = 2.201529815460963e-08  # the same error with the order-3 corrector
STIFF_ERR_002 = 6.66097515744605e-06  # dt = 0.02 stiff-scenario error of the solver at PICARD_TOL 1e-10


def test_pure_diffusion_matches_semigroup():
    g = make_grid(1, 40.0, 64)
    model = ReactionModel("frozen", 2, (1.0, 2.5),
                          lambda u, t: np.stack([0 * u[0], 0 * u[1]]))
    u0 = _bump_fields(g, (1.0, 0.5))
    cfg = SolverConfig(dt=0.05, horizon=1.0, alpha=0.5)
    traj = solve_mild(model, u0, cfg)
    for i, di in enumerate(model.d):
        ref = semigroup_apply(u0[i], KernelSpec(0.5, di, g), 1.0).values
        rel = np.max(np.abs(traj.states[-1][i] - ref)) / np.max(np.abs(ref))
        assert rel < 1e-10


def test_ode_reduction_bimolecular():
    # constant data (1,0,1,0): u1' = -(u1^2 - u2^2) = 1 - 2 u1 with u1+u2 = 1,
    # so u1(t) = (1 + e^{-2t})/2 and u2(t) = (1 - e^{-2t})/2
    g = make_grid(1, 10.0, 8)
    u0 = [Field(g, np.full(g.shape, c)) for c in (1.0, 0.0, 1.0, 0.0)]
    cfg = SolverConfig(dt=1e-3, horizon=1.0, alpha=0.5, store_every=100)
    traj = solve_mild(bimolecular(), u0, cfg)
    final = traj.states[-1]
    u1_exact = 0.5 * (1.0 + math.exp(-2.0))
    assert np.max(np.abs(final[0] - u1_exact)) < 1e-6
    assert np.max(np.abs(final[1] - (1.0 - u1_exact))) < 1e-6
    assert np.allclose(final[0], final[2]) and np.allclose(final[1], final[3])


def test_ode_reduction_error_at_the_picard_tolerance_footprint():
    # criterion 7's reduction: with the order-3 corrector its time error (4.5e-8
    # at order 2) falls below what the Picard stopping rule leaves (9.4e-13)
    g = make_grid(1, 10.0, 8)
    u0 = [Field(g, np.full(g.shape, c)) for c in (1.0, 0.0, 1.0, 0.0)]
    cfg = SolverConfig(dt=1e-3, horizon=1.0, alpha=0.5, store_every=1000)
    u1 = float(solve_mild(bimolecular(), u0, cfg).states[-1][0][0])
    assert abs(u1 - 0.5 * (1.0 + math.exp(-2.0))) <= 1e-11


@pytest.mark.parametrize("z", [0.0, 1e-12, 1e-8, 1e-4, 1e-2, 0.1, np.nextafter(0.5, 0.0), 0.5,
                               np.nextafter(0.5, 1.0), 1.0, 10.0, 50.0])
def test_w2_weight_matches_quadrature(z):
    # W2(z) = -1/2 int_0^1 s (1 - s) e^(-z s) ds, on both sides of the series switch at 0.5
    nodes, weights = np.polynomial.legendre.leggauss(60)
    s = 0.5 * (nodes + 1.0)
    exact = -0.25 * np.sum(weights * s * (1.0 - s) * np.exp(-z * s))
    w = w2_weight(np.array([z]))[0]
    assert abs(w - exact) <= 1e-13 * abs(exact)


def test_order3_window_weights_are_adams_moulton_on_the_mean_mode():
    # z = 0: w_n g_n + w_d (g_n - g_n-1) + w_end g_n+1 weighs (g_n+1, g_n, g_n-1)
    # by AM3's dt (5, 8, -1)/12
    g = make_grid(1, 10.0, 8)
    stepper = _Stepper(g, ReactionModel("one", 1, (1.0,), lambda u, t: u), 0.5, False)
    _, _, (w_n, w_d, w_end) = stepper.weights(0.1)
    mean = [w_end[0, 0], w_n[0, 0] + w_d[0, 0], -w_d[0, 0]]
    assert mean == pytest.approx([0.1 * 5 / 12, 0.1 * 8 / 12, -0.1 / 12], rel=1e-15)


def test_mass_conservation_and_positivity():
    g = make_grid(1, 40.0, 64)
    traj = solve_mild(bimolecular(), _bump_fields(g, (1.0, 0.3, 0.8, 0.2)),
                      SolverConfig(dt=0.02, horizon=2.0, alpha=0.5))
    mass0 = sum(traj.step_diagnostics[0].total_mass)
    for t, d in zip(traj.step_times, traj.step_diagnostics):
        assert abs(sum(d.total_mass) - mass0) <= 1e-10 * mass0 * max(t, 1.0)
        sup = max(d.sup_value)
        assert min(d.min_value) >= -1e-8 * sup


def test_dissipative_mass_non_increasing():
    g = make_grid(1, 40.0, 64)
    traj = solve_mild(dissipative_pair(), _bump_fields(g, (1.0, 0.7)),
                      SolverConfig(dt=0.02, horizon=1.0, alpha=0.5))
    masses = [sum(d.total_mass) for d in traj.step_diagnostics]
    for a, b in zip(masses, masses[1:]):
        assert b <= a * (1 + 1e-10)


def test_blowup_detection():
    g = make_grid(1, 10.0, 8)
    quad = ReactionModel("quad", 1, (1.0,), lambda u, t: np.stack([u[0] ** 2]))
    u0 = [Field(g, np.full(g.shape, 10.0))]
    cfg = SolverConfig(dt=1e-3, horizon=0.5, alpha=0.5, blowup_factor=1e5)
    with np.errstate(over="ignore", invalid="ignore"):
        traj = solve_mild(quad, u0, cfg)
    assert traj.blowup_time is not None
    assert abs(traj.blowup_time - 0.1) <= 0.02  # ODE blows up at 1/u0
    assert detect_blowup(traj, 1e5 * 10.0) == traj.blowup_time
    bounded = solve_mild(bimolecular(),
                         [Field(g, np.full(g.shape, c)) for c in (1, 0, 1, 0)],
                         SolverConfig(dt=0.01, horizon=0.1, alpha=0.5))
    assert detect_blowup(bounded, 100.0) is None


@pytest.mark.parametrize("store_every", [13, 1000])
def test_blowup_window_is_stored(store_every):
    # the state that crossed the threshold is the last one kept, however thinned
    g = make_grid(1, 10.0, 8)
    quad = ReactionModel("quad", 1, (1.0,), lambda u, t: np.stack([u[0] ** 2]))
    cfg = SolverConfig(dt=1e-3, horizon=0.5, alpha=0.5, store_every=store_every)
    traj = solve_mild(quad, [Field(g, np.full(g.shape, 10.0))], cfg)
    assert traj.blowup_time is not None
    assert traj.times[-1] == traj.blowup_time == traj.step_times[-1]
    assert np.abs(traj.states[-1]).max() == traj.step_diagnostics.sup_value[-1].max()


def test_input_guards():
    g = make_grid(1, 10.0, 8)
    model = dissipative_pair()
    neg = [Field(g, np.full(g.shape, 1.0)), Field(g, np.full(g.shape, 1.0))]
    neg_vals = np.full(g.shape, 1.0)
    neg_vals[0] = -0.5
    with pytest.raises(NegativeInitialData):
        solve_mild(model, [Field(g, neg_vals), neg[1]],
                   SolverConfig(dt=0.1, horizon=0.2))
    nan_vals = np.full(g.shape, 1.0)
    nan_vals[3] = np.nan
    with pytest.raises(NonFiniteInput):
        solve_mild(model, [Field(g, nan_vals), neg[1]], SolverConfig(dt=0.1, horizon=0.2))
    with pytest.raises(ValueError):
        SolverConfig(dt=1.0, horizon=0.5)
    with pytest.raises(ValueError):
        solve_mild(model, neg[:1], SolverConfig(dt=0.1, horizon=0.2))
    g16 = make_grid(1, 10.0, 16)
    for u0 in (
        [np.full(g.shape, 1.0)] * 2,  # raw arrays
        [neg[0], Field(g16, np.full(g16.shape, 1.0))],  # two shapes
        [neg[0], Field(make_grid(1, 20.0, 8), np.full(g.shape, 1.0))],  # two extents
    ):
        with pytest.raises(InvalidParameter, match="Fields on one grid"):
            solve_mild(model, u0, SolverConfig(dt=0.1, horizon=0.2))


def test_picard_divergence_after_max_halvings():
    g = make_grid(1, 10.0, 8)
    calls = []

    def nan_rates(u, t):
        calls.append(t)
        return np.full(u.shape, np.nan)

    model = ReactionModel("nan", 1, (1.0,), nan_rates)
    with pytest.raises(PicardDivergence, match="non-finite iterate"):
        solve_mild(model, [Field(g, np.full(g.shape, 1.0))], SolverConfig(dt=0.1, horizon=0.2))
    assert len(calls) == 1 + (MAX_HALVINGS + 1)  # the rate at t = 0, then one iterate per try


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_single_non_finite_rate_value_rejected(bad):
    # one bad grid point in the rate, from the first Picard iterate on
    g = make_grid(1, 10.0, 8)

    def rates(u, t):
        f = np.zeros(u.shape)
        f[0, 3] = bad if t > 0 else 0.0
        return f

    model = ReactionModel("bad", 1, (1.0,), rates)
    with np.errstate(invalid="ignore", over="ignore"):
        with pytest.raises(PicardDivergence, match="non-finite iterate"):
            solve_mild(model, [Field(g, np.full(g.shape, 1.0))], SolverConfig(dt=0.1, horizon=0.2))


def _rejected_window(rates, dt=0.1):
    """The PicardDivergence of one window from the constant state 1 on 8 points."""
    g = make_grid(1, 10.0, 8)
    stepper = _Stepper(g, ReactionModel("one", 1, (1.0,), rates), 0.5, False)
    u = np.full((1,) + g.shape, 1.0)
    ghat = stepper._flux_hat(u, 0.0)
    with pytest.raises(PicardDivergence) as info:
        stepper.step((u, rfft(u, g), ghat, 1.0), 0.0, dt, ghat)
    return info.value


def test_divergence_reason_non_finite():
    e = _rejected_window(lambda u, t: np.full(u.shape, np.nan))
    assert (e.reason, e.iterations) == ("non-finite", 1) and math.isnan(e.residual)


def test_divergence_reason_stalled():
    e = _rejected_window(_stalling_first_window()[0].f)
    assert (e.reason, e.iterations) == ("stalled", 3)
    assert e.residual > PICARD_TOL and f"-> {e.residual:.3g})" in str(e)


def test_divergence_reason_max_iterations():
    # on a constant state the Picard map is w -> 0.1 - 0.9 w at dt = 1: the
    # residual falls by 0.9 per iteration, from 1.62 after the first
    e = _rejected_window(lambda u, t: -1.8 * u, dt=1.0)
    assert (e.reason, e.iterations) == ("max-iterations", PICARD_MAX)
    assert e.residual == pytest.approx(1.62 * 0.9 ** (PICARD_MAX - 1), rel=1e-9)
    assert f"(last residual {e.residual:.3g})" in str(e)


def _stalling_first_window():
    """Zero rates, except in the first four calls (the rate at t = 0 and the first
    try's three iterates), where the rate flips sign on every call and the
    Picard iterates cycle between two states.  Returns the model and the times
    of its rate calls."""
    calls = []

    def rates(u, t):
        calls.append(t)
        if len(calls) > 4:  # from the first window's retry on
            return np.zeros(u.shape)
        return np.full(u.shape, (-1.0) ** len(calls))

    return ReactionModel("stall", 1, (1.0,), rates), calls


def test_stalled_window_rejected_early():
    g = make_grid(1, 10.0, 8)
    model, calls = _stalling_first_window()
    solve_mild(model, [Field(g, np.full(g.shape, 10.0))], SolverConfig(dt=0.1, horizon=0.2))
    # the rate at t = 0, three iterates of a constant residual (not PICARD_MAX), then
    # the retry's first iterate at dt / 2, from the same start
    assert calls[:5] == [0.0, 0.1, 0.1, 0.1, 0.05]


def test_dt_regrows_after_forced_halving():
    g = make_grid(1, 10.0, 8)
    model, _ = _stalling_first_window()
    cfg = SolverConfig(dt=0.1, horizon=2.0)
    traj = solve_mild(model, [Field(g, np.full(g.shape, 10.0))], cfg)
    steps = np.diff(traj.step_times)
    expected = np.where(np.arange(len(steps)) < REGROW_AFTER, cfg.dt / 2, cfg.dt)
    assert steps == pytest.approx(expected)
    assert traj.step_times[-1] == pytest.approx(2.0)


def test_max_halvings_bounds_depth_not_rejection_count():
    # a rejected try in every ten, each recovered from, then only rejected tries
    g = make_grid(1, 10.0, 8)
    calls = []

    def rates(u, t):
        calls.append(t)
        fail = len(calls) % 20 == 0 or len(calls) > 2000
        return np.full(u.shape, np.nan if fail else 0.0)

    cfg = SolverConfig(dt=0.01, horizon=100.0)
    with pytest.raises(PicardDivergence, match=f"dt={cfg.dt / 2**MAX_HALVINGS:.3g}$"):
        solve_mild(ReactionModel("nan", 1, (1.0,), rates), [Field(g, np.full(g.shape, 1.0))], cfg)
    assert 2000 < len(calls) <= 2000 + (MAX_HALVINGS + 1)  # one rate call per try


def test_stiff_scenario_at_large_dt_raises_no_warning():
    # the README scenario with amplitudes x50: at dt 0.04 the first window diverges
    g = make_grid(1, 40.0, 256)
    model = bimolecular().with_diffusivities(README_D)
    stiff = [dict(spec, amplitude=50.0 * spec["amplitude"]) for spec in README_DATA]
    u0 = [make_profile(g, spec, None) for spec in stiff]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        traj = solve_mild(model, u0, SolverConfig(dt=0.04, horizon=2.0, alpha=0.5))
    assert traj.step_times[-1] == pytest.approx(2.0)


def test_dt_refinement_improves_terminal_state():
    g = make_grid(1, 10.0, 8)
    u0 = [Field(g, np.full(g.shape, c)) for c in (1.0, 0.0, 1.0, 0.0)]
    exact = 0.5 * (1.0 + math.exp(-2.0))
    errs = []
    for dt in (0.02, 0.01, 0.005):
        traj = solve_mild(bimolecular(), u0,
                          SolverConfig(dt=dt, horizon=1.0, alpha=0.5,
                                       store_every=1000))
        errs.append(abs(float(traj.states[-1][0][0]) - exact))
    assert errs[0] > errs[1] > errs[2]


def test_self_convergence_on_readme_scenario():
    # the coupled nonlinear solve the run workloads make: third order in dt,
    # and no larger an error constant than the solvers these values were taken from
    g = make_grid(1, 40.0, 64)
    model = bimolecular().with_diffusivities(README_D)
    u0 = [make_profile(g, spec, None) for spec in README_DATA]

    def final(dt):
        cfg = SolverConfig(dt=dt, horizon=1.0, alpha=0.5, store_every=10**6)
        return solve_mild(model, u0, cfg).states[-1]

    ref = final(0.02 / 16)
    e002, e001 = (float(np.max(np.abs(final(dt) - ref)) / np.max(np.abs(ref)))
                  for dt in (0.02, 0.01))
    assert 2.8 <= math.log2(e002 / e001) <= 3.2
    assert e002 <= 1.1 * SELFCONV_ERR_002
    assert e002 <= 1.1 * SELFCONV_ERR3_002


def test_stiff_scenario_error_against_tight_reference(monkeypatch):
    # the rejection path: the self-convergence reference above moves with
    # PICARD_TOL, this one is solved at dt / 16 and PICARD_TOL 1e-12
    g = make_grid(1, 40.0, 64)
    model = bimolecular().with_diffusivities(README_D)
    u0 = [make_profile(g, dict(spec, amplitude=50.0 * spec["amplitude"]), None)
          for spec in README_DATA]
    cfg = SolverConfig(dt=0.02, horizon=1.0, alpha=0.5, store_every=10**6)
    traj = solve_mild(model, u0, cfg)
    monkeypatch.setattr(mild_solver, "PICARD_TOL", 1e-12)
    ref = solve_mild(model, u0, SolverConfig(dt=cfg.dt / 16, horizon=1.0, alpha=0.5,
                                             store_every=10**6)).states[-1]
    err = float(np.max(np.abs(traj.states[-1] - ref)) / np.max(np.abs(ref)))
    assert err <= 1.1 * STIFF_ERR_002
    assert np.min(np.diff(traj.step_times)) < cfg.dt  # some window was rejected


def test_etd2_predictor_saves_picard_iterations():
    # every window of this run takes 4 iterations from an exponential-Euler start
    g = make_grid(1, 40.0, 64)
    model = bimolecular().with_diffusivities(README_D)
    u0 = [make_profile(g, spec, None) for spec in README_DATA]
    traj = solve_mild(model, u0, SolverConfig(dt=0.01, horizon=1.0, alpha=0.5))
    iters = [d.picard_iterations for d in traj.step_diagnostics[1:]]
    assert len(iters) == 100 and np.mean(iters) < 3.5


def _readme_2d_run(monkeypatch):
    """The README scenario on a 32x32 grid to horizon 4 at dt 0.02: its
    trajectory, its steppers and the number of rate evaluations it made."""
    g = make_grid(2, 40.0, 32)
    u0 = [make_profile(g, spec, None) for spec in README_DATA]
    steppers, evals = [], []

    class Recording(_Stepper):
        def __init__(self, *args):
            super().__init__(*args)
            steppers.append(self)

    def counted(model, u, t):
        evals.append(t)
        return reaction_terms(model, u, t)

    monkeypatch.setattr(mild_solver, "_Stepper", Recording)
    monkeypatch.setattr(mild_solver, "reaction_terms", counted)
    traj = solve_mild(bimolecular().with_diffusivities(README_D), u0,
                      SolverConfig(dt=0.02, horizon=4.0, alpha=0.5, store_every=10))
    return traj, steppers, len(evals)


def test_last_window_lands_on_the_horizon(monkeypatch):
    # 200 steps of 0.02 add up to 4 - 3e-15; the last one still steps 0.02
    traj, steppers, _ = _readme_2d_run(monkeypatch)
    assert len(steppers) == 1 and list(steppers[0]._cache) == [0.02]
    assert traj.step_times[-1] == 4.0 and traj.times[-1] == 4.0
    assert len(traj.step_times) == 201


def test_predicted_flux_starts_each_window_within_tolerance(monkeypatch):
    # from the ETD2 start this run took 2.175 iterations per window
    traj, _, evals = _readme_2d_run(monkeypatch)
    windows = len(traj.step_times) - 1
    assert np.mean(traj.step_diagnostics.picard_iterations[1:]) <= 1.1
    assert evals <= 1 + 1.1 * windows


def test_predictor_restarts_at_order_one_after_each_dt_change(monkeypatch):
    # the stiff scenario: its first window is rejected, and dt regrows later
    g = make_grid(1, 40.0, 64)
    model = bimolecular().with_diffusivities(README_D)
    u0 = [make_profile(g, dict(spec, amplitude=50.0 * spec["amplitude"]), None)
          for spec in README_DATA]
    tries = []  # (dt, started from the start flux, order-2 corrector, accepted) per window try
    step = _Stepper.step

    def recorded(self, start, t, dt, ghat_end, dghat_n=None):
        try:
            out = step(self, start, t, dt, ghat_end, dghat_n)
        except PicardDivergence:
            tries.append((dt, ghat_end is start[2], dghat_n is None, False))
            raise
        tries.append((dt, ghat_end is start[2], dghat_n is None, True))
        return out

    monkeypatch.setattr(_Stepper, "step", recorded)
    solve_mild(model, u0, SolverConfig(dt=0.02, horizon=1.0, alpha=0.5))
    dt_prev, changes = None, []
    for dt, order_one, order_two, accepted in tries:
        if dt != dt_prev:
            changes.append(dt)
            assert order_one
        assert order_two == (dt != dt_prev)  # order 3 from the second window at a dt
        if accepted:
            dt_prev = dt
    assert changes[:3] == [0.02, 0.01, 0.02]  # a rejection, then a regrowth
    assert sum(not order_one for _, order_one, _, _ in tries) > len(tries) / 2


def test_window_weights_built_once_per_dt(monkeypatch):
    # the stiff scenario rejects a window and regrows dt: every dt it steps with
    # builds its weights once, not once per window
    g = make_grid(1, 40.0, 64)
    model = bimolecular().with_diffusivities(README_D)
    u0 = [make_profile(g, dict(spec, amplitude=50.0 * spec["amplitude"]), None)
          for spec in README_DATA]
    dts, builds = [], {"phi": 0, "w2": 0}
    weights = _Stepper.weights

    def counted(name, fn):
        def wrapper(z):
            builds[name] += 1
            return fn(z)
        return wrapper

    def recorded(self, dt):
        dts.append(dt)
        return weights(self, dt)

    monkeypatch.setattr(mild_solver, "phi_weights", counted("phi", phi_weights))
    monkeypatch.setattr(mild_solver, "w2_weight", counted("w2", w2_weight))
    monkeypatch.setattr(_Stepper, "weights", recorded)
    traj = solve_mild(model, u0, SolverConfig(dt=0.02, horizon=1.0, alpha=0.5))
    assert {0.02, 0.01} <= set(dts) and len(dts) > len(traj.step_times) - 1
    assert builds == {"phi": len(set(dts)), "w2": len(set(dts))}


def test_rate_evaluated_once_per_iteration_plus_initial_data():
    # no rate evaluation at a window's start: the last iterate's rate carries over
    g = make_grid(1, 40.0, 64)
    model = bimolecular().with_diffusivities(README_D)
    calls = []

    def rates(u, t):
        calls.append(t)
        return model.f(u, t)

    counted = dataclasses.replace(model, f=rates)  # keeps the stoichiometry
    u0 = [make_profile(g, spec, None) for spec in README_DATA]
    traj = solve_mild(counted, u0, SolverConfig(dt=0.02, horizon=1.0, alpha=0.5))
    rec = traj.step_diagnostics
    assert len(traj.step_times) == 51  # no rejected window
    assert len(calls) == 1 + rec.picard_iterations[1:].sum()


def _stacked_bimolecular_rates(u, t):
    r = u[0] * u[2] - u[1] * u[3]
    return np.stack([-r, r, -r, r])


@pytest.mark.parametrize("dims,points,amplitude", [(1, 64, 50.0), (2, 16, 1.0)])
@pytest.mark.parametrize("dealias", [True, False])
def test_stoichiometric_model_matches_its_stacked_rates(dims, points, amplitude, dealias):
    # one transformed flux times (-1, 1, -1, 1) gives the bits of four transformed rates
    g = make_grid(dims, 40.0, points)
    flux = bimolecular().with_diffusivities(README_D)
    stacked = ReactionModel("stacked", 4, README_D, _stacked_bimolecular_rates)
    u0 = [make_profile(g, dict(spec, amplitude=amplitude * spec["amplitude"]), None)
          for spec in README_DATA]
    cfg = SolverConfig(dt=0.02, horizon=0.5, alpha=0.5, dealias=dealias)
    a, b = solve_mild(flux, u0, cfg), solve_mild(stacked, u0, cfg)
    assert (a.step_times[1] == 0.01) == (amplitude == 50.0)  # the stiff first window is rejected
    assert a.step_times.tobytes() == b.step_times.tobytes()
    assert a.step_diagnostics.tobytes() == b.step_diagnostics.tobytes()
    assert a.times == b.times and len(a.states) == len(b.states)
    for x, y in zip(a.states, b.states):
        assert x.tobytes() == y.tobytes()
        assert eval_reactions(flux, x).tobytes() == eval_reactions(stacked, x).tobytes()


@pytest.mark.parametrize("model", [
    ReactionModel("short", 4, (1.0,) * 4, lambda u, t: -u[:1] * u[2:3]),  # rate form, 1 row of 4
    ReactionModel("long", 4, (1.0,) * 4, _stacked_bimolecular_rates,  # flux form, 4 rows of 1
                  stoichiometry=[[-1.0], [1.0], [-1.0], [1.0]]),
    ReactionModel("flat", 4, (1.0,) * 4, lambda u, t: u[0] * u[2] - u[1] * u[3],  # no row axis
                  stoichiometry=[[-1.0], [1.0], [-1.0], [1.0]]),
], ids=lambda m: m.name)
def test_rate_map_of_the_wrong_shape_fails_before_any_window(model):
    g = make_grid(1, 10.0, 16)
    calls = []

    def rates(u, t):
        calls.append(t)
        return model.f(u, t)

    u0 = [Field(g, np.full(g.shape, c)) for c in (1.0, 0.0, 1.0, 0.0)]
    with pytest.raises(InvalidParameter, match=r"^f must return shape \((1|4), 16\)") as info:
        solve_mild(dataclasses.replace(model, f=rates), u0, SolverConfig(dt=0.1, horizon=1.0))
    assert info.value.name == "f" and calls == [0.0]
    with pytest.raises(InvalidParameter, match=r"on a state of shape \(4, 3\)"):
        eval_reactions(model, np.ones((4, 3)))


@pytest.mark.parametrize("dims,points", [(1, 64), (2, 16)])
@pytest.mark.parametrize("dealias", [True, False])
def test_step_carries_spectrum_and_rate(dims, points, dealias):
    g = make_grid(dims, 40.0, points)
    model = bimolecular().with_diffusivities(README_D)
    u = np.stack([f.values for f in _bump_fields(g, (1.0, 0.3, 0.8, 0.2))])
    stepper = _Stepper(g, model, 0.5, dealias)
    start = (u, rfft(u, g), stepper._flux_hat(u, 0.0), float(np.max(np.abs(u))))
    ghat_end = start[2]  # exponential Euler first, then linear extrapolation
    for k in range(3):
        _, res, carried, _ = stepper.step(start, 0.05 * k, 0.05, ghat_end)
        ghat_end, start = 2.0 * carried[2] - start[2], carried
        w, what, fhat_w, sup = carried
        assert res < PICARD_TOL and sup == np.max(np.abs(w))
        assert np.max(np.abs(what - rfft(w, g))) <= 1e-13 * np.max(np.abs(what))
        exact = stepper._flux_hat(w, 0.05 * (k + 1))
        assert np.max(np.abs(fhat_w - exact)) <= 10 * PICARD_TOL * np.max(np.abs(exact))


def test_classical_heat_one_step_consistency():
    # alpha = 1: one solver step vs a finely substepped spectral RK4 oracle
    g = make_grid(1, 20.0, 32)
    model = dissipative_pair()
    u0 = _bump_fields(g, (1.0, 0.7))
    dt = 1e-3
    traj = solve_mild(model, u0, SolverConfig(dt=dt, horizon=dt, alpha=1.0,
                                              dealias=False))
    ksq = g.wavenumbers_squared()

    def rhs(u):
        f = np.stack([-u[0] * u[1], -u[0] * u[1]])
        diff = np.stack([
            np.fft.irfftn(-d * ksq * np.fft.rfftn(ui), s=g.shape, axes=(0,))
            for d, ui in zip(model.d, u)
        ])
        return f + diff

    u = np.stack([f.values for f in u0])
    h = dt / 100
    for _ in range(100):
        k1 = rhs(u)
        k2 = rhs(u + 0.5 * h * k1)
        k3 = rhs(u + 0.5 * h * k2)
        k4 = rhs(u + h * k3)
        u = u + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    assert np.max(np.abs(traj.states[-1] - u)) < 1e-8


def test_checkpoint_roundtrip(tmp_path):
    g = make_grid(1, 40.0, 64)
    traj = solve_mild(bimolecular(), _bump_fields(g, (1.0, 0.3, 0.8, 0.2)),
                      SolverConfig(dt=0.05, horizon=0.5, alpha=0.5))
    path = tmp_path / "ckpt.csv"
    save_checkpoint(path, g, traj.times[-1], traj.states[-1])
    g2, t2, state2 = load_checkpoint(path)
    assert g2 == g and t2 == traj.times[-1]
    assert np.array_equal(state2, traj.states[-1])


def _csv_module_checkpoint(path, grid, time, state):
    # the csv.writer checkpoint writer that save_checkpoint's byte format follows
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["dims", grid.dims])
        w.writerow(["points_per_axis", grid.points_per_axis])
        w.writerow(["extent", repr(grid.extent)])
        w.writerow(["time", repr(float(time))])
        w.writerow(["species", state.shape[0]])
        w.writerow([f"u{i}" for i in range(state.shape[0])])
        for row in state.reshape(state.shape[0], -1).T:
            w.writerow([repr(float(x)) for x in row])


@pytest.mark.parametrize("dims,points", [(1, 64), (2, 16)])
def test_checkpoint_bytes_match_csv_module(tmp_path, dims, points):
    g = make_grid(dims, 40.0, points)
    rng = np.random.default_rng(dims)
    state = rng.standard_normal((3,) + g.shape) * 10.0 ** rng.integers(-300, 300, (3,) + g.shape)
    state.flat[:3] = (0.0, -0.0, 1e-320)
    save_checkpoint(tmp_path / "new.csv", g, 0.1 + 0.2, state)
    _csv_module_checkpoint(tmp_path / "ref.csv", g, 0.1 + 0.2, state)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    g2, t2, state2 = load_checkpoint(tmp_path / "new.csv")
    assert g2 == g and t2 == 0.1 + 0.2
    assert np.array_equal(state2, state)


def test_store_every_thinning():
    g = make_grid(1, 10.0, 8)
    u0 = [Field(g, np.full(g.shape, c)) for c in (1.0, 0.0, 1.0, 0.0)]
    traj = solve_mild(bimolecular(), u0,
                      SolverConfig(dt=0.01, horizon=1.0, alpha=0.5, store_every=10))
    assert len(traj.step_times) == 101
    assert len(traj.times) == 11
    assert traj.times[-1] == pytest.approx(1.0)


def test_bench_tracer_reads_the_step_record():
    # the bench tracer's solver counters, read from bench/tracer.py as it stands
    spec = importlib.util.spec_from_file_location(
        "bench_tracer", Path(__file__).resolve().parents[1] / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    g = make_grid(1, 40.0, 64)
    traj = solve_mild(bimolecular(), _bump_fields(g, (1.0, 0.3, 0.8, 0.2)),
                      SolverConfig(dt=0.125, horizon=1.0, alpha=0.5))
    stats = tracer._solve_stats(None, traj)
    rec = traj.step_diagnostics
    assert stats["windows"] == len(traj.step_times) - 1 >= 8
    assert stats["iterations"] == rec.picard_iterations[1:].sum()
    assert stats["t_end"] == 1.0  # dyadic steps add up exactly
    assert rec.sup_value.shape == (len(traj.step_times), 4)
