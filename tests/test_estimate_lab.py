import ast
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from fracrd.errors import (
    EllOutOfRange,
    EmptyTrajectory,
    GammaOutOfRange,
    InvalidParameter,
    NonFiniteInput,
    NonUniformTimeGrid,
    P0TooSmall,
    QOutOfRange,
    RhoInadmissible,
    TooFewSlices,
    ZeroField,
)
from fracrd import estimate_lab
from fracrd.estimate_lab import (
    LADDER_MAX_STEPS,
    WEAK_NORM_LEVELS,
    VDiagnostics,
    _forced_history,
    _time_weights,
    accumulate_v,
    duality_ladder,
    gn_ratio,
    gn_theta,
    holder_seminorm,
    maximal_reg_ratio,
    norm_report,
    q_hat,
    rho_admissible_max,
    solve_forced_mode,
    stroock_varopoulos_gap,
    stroock_varopoulos_gaps,
)
from fracrd.cli_runner import random_band_limited
from fracrd.mild_solver import SolverConfig, Trajectory, phi_weights, solve_mild, species_stats, step_record
from fracrd.rds_model import ReactionModel, bimolecular
from fracrd.spectral_core import Field, FracPower, frac_power, integral, make_grid


def _record(g, states):
    """The step record of states, with zero Picard iterations and residuals."""
    return step_record([0] * len(states), [0.0] * len(states), [species_stats(g, s) for s in states])


def _const_traj(g, consts, times):
    traj = Trajectory(grid=g)
    for t in times:
        traj.times.append(t)
        traj.states.append(np.stack([np.full(g.shape, c) for c in consts]))
    traj.step_times = np.array(times, dtype=float)
    traj.step_diagnostics = _record(g, traj.states)
    return traj


def test_accumulate_v_zero_trajectory():
    g = make_grid(1, 10.0, 8)
    traj = _const_traj(g, (0.0, 0.0), [0.0, 1.0])
    vd = accumulate_v(traj, (1.0, 2.0))
    assert all(np.all(v == 0.0) for v in vd.v)
    assert vd.b_min == math.inf and vd.b_max == -math.inf  # no node where b is defined
    assert vd.b_bounds_ok  # vacuously: no defined nodes


def test_accumulate_v_constant_fields():
    g = make_grid(1, 10.0, 8)
    d = (1.0, 2.0, 4.0)
    traj = _const_traj(g, (1.0, 1.0, 1.0), [0.0, 0.5, 1.0])
    vd = accumulate_v(traj, d)
    assert np.allclose(vd.v[-1], sum(d) * 1.0)
    b = 3.0 / sum(d)
    assert vd.b_min == pytest.approx(b) and vd.b_max == pytest.approx(b)
    assert 1.0 / max(d) <= b <= 1.0 / min(d)
    assert vd.b_bounds_ok


def test_accumulate_v_equal_diffusivities():
    g = make_grid(1, 10.0, 8)
    traj = _const_traj(g, (0.4, 2.0), [0.0, 1.0])
    vd = accumulate_v(traj, (2.0, 2.0))
    assert vd.b_min == pytest.approx(0.5) and vd.b_max == pytest.approx(0.5)


def test_accumulate_v_empty():
    g = make_grid(1, 10.0, 8)
    with pytest.raises(EmptyTrajectory):
        accumulate_v(Trajectory(grid=g), (1.0,))


def test_holder_constant_field():
    g = make_grid(1, 10.0, 8)
    vd = VDiagnostics(grid=g, times=[0.0, 1.0],
                      v=[np.full(g.shape, 2.0)] * 2, b_bounds_ok=True, b_min=1.0, b_max=1.0)
    sp, pa = holder_seminorm(vd, 0.5)
    assert sp == 0.0 and pa == 0.0


def test_holder_sin_near_lipschitz():
    g = make_grid(1, 2 * np.pi, 256)
    x = g.coord_arrays()[0]
    vd = VDiagnostics(grid=g, times=[0.0, 1.0], v=[np.sin(x)] * 2,
                      b_bounds_ok=True, b_min=1.0, b_max=1.0)
    sp, _ = holder_seminorm(vd, 0.99)
    assert sp == pytest.approx(1.0, rel=0.05)


def test_holder_guards():
    g = make_grid(1, 10.0, 8)
    vd = VDiagnostics(grid=g, times=[0.0, 1.0], v=[np.zeros(g.shape)] * 2,
                      b_bounds_ok=True, b_min=1.0, b_max=1.0)
    with pytest.raises(GammaOutOfRange):
        holder_seminorm(vd, 1.0)
    vd.times = [0.0]
    vd.v = vd.v[:1]
    with pytest.raises(TooFewSlices):
        holder_seminorm(vd, 0.5)


def test_holder_skips_a_pair_of_equal_times():
    g = make_grid(1, 10.0, 8)
    rng = np.random.default_rng(0)
    v = [rng.random(g.shape) for _ in range(3)]
    vd = VDiagnostics(grid=g, times=[0.0, 0.5, 1.0], v=v, b_bounds_ok=True, b_min=1.0, b_max=1.0)
    # the state at t = 0.5 twice: the pair of equal times spans no time and is skipped
    twice = VDiagnostics(grid=g, times=[0.0, 0.5, 0.5, 1.0], v=[v[0], v[1], v[1], v[2]],
                         b_bounds_ok=True, b_min=1.0, b_max=1.0)
    assert holder_seminorm(twice, 0.5) == holder_seminorm(vd, 0.5)


def test_holder_samples_pairs_beyond_the_pair_budget():
    # 64^2 nodes have 8.4 million pairs; taking them all peaked at 640 MiB
    g = make_grid(2, 40.0, 64)
    rng = np.random.default_rng(0)
    vd = VDiagnostics(grid=g, times=[0.1 * k for k in range(21)],
                      v=[rng.random(g.shape) for _ in range(21)],
                      b_bounds_ok=True, b_min=1.0, b_max=1.0)
    tracemalloc.start()
    try:
        sp, pa = holder_seminorm(vd, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    assert sp > 0.0 and pa > 0.0


def test_sv_gap_ell_two_vanishes():
    g = make_grid(1, 2 * np.pi, 128)
    x = g.coord_arrays()[0]
    for vals in (np.sin(x), np.sin(3 * x) + 0.5 * np.cos(x)):
        v = Field(g, vals)
        gap = stroock_varopoulos_gap(v, 0.5, 2.0)
        assert abs(gap) < 1e-10 * max(np.max(np.abs(vals)) ** 2, 1.0)


def test_sv_gap_positivity_sweep():
    g = make_grid(1, 2 * np.pi, 128)
    x = g.coord_arrays()[0]
    rng = np.random.default_rng(4)
    for _ in range(20):
        c = rng.standard_normal(6)
        v = Field(g, sum(c[k] * np.sin((k + 1) * x + k) for k in range(6)))
        for ell in (2.0, 3.0, 4.0):
            for alpha in (0.3, 0.5, 0.9):
                gap = stroock_varopoulos_gap(v, alpha, ell)
                assert gap >= -1e-8 * max(abs(gap), 1.0)


def test_sv_ell_guard():
    g = make_grid(1, 2 * np.pi, 64)
    with pytest.raises(EllOutOfRange):
        stroock_varopoulos_gap(Field(g, np.ones(g.shape)), 0.5, 1.0)


def _sv_gap_per_pair(v, alpha, ell):
    """The SV gap of one (ell, alpha) with its own four transforms, as it was
    written before the gaps were batched per field."""
    lhs_integrand = np.abs(v.values) ** (ell - 2.0) * v.values
    lhs = integral(Field(v.grid, lhs_integrand * frac_power(v, FracPower(alpha)).values))
    half = frac_power(
        Field(v.grid, np.abs(v.values) ** (ell / 2.0 - 1.0) * v.values),
        FracPower(alpha / 2.0),
    )
    rhs = integral(Field(v.grid, half.values**2))
    return lhs - (4.0 * (ell - 1.0) / ell**2) * rhs


@pytest.mark.parametrize("dims,n", [(1, 256), (2, 32), (3, 16)])
@pytest.mark.parametrize("signed", [True, False])
def test_sv_gaps_equal_per_pair_formula(dims, n, signed):
    g = make_grid(dims, 2 * np.pi, n)
    rng = np.random.default_rng(dims)
    ells, alphas = (2.0, 3.0, 4.0), (0.3, 0.5, 0.9)
    for _ in range(2):
        v = random_band_limited(g, rng)
        if not signed:
            v = Field(g, np.abs(v.values) + 0.1)
        gaps = stroock_varopoulos_gaps(v, alphas, ells)
        assert gaps.shape == (3, 3)
        for i, ell in enumerate(ells):
            for j, alpha in enumerate(alphas):
                expected = _sv_gap_per_pair(v, alpha, ell)
                assert gaps[i, j] == expected
                assert stroock_varopoulos_gap(v, alpha, ell) == expected


def test_sv_gap_zero_nodes_below_ell_two():
    # sin vanishes exactly at the node x = 0, where |v|^(l-2) v is 0^(-1/2) * 0
    g = make_grid(1, 2 * np.pi, 64)
    v = Field(g, np.sin(g.coord_arrays()[0]))
    assert v.values[0] == 0.0
    gap = stroock_varopoulos_gap(v, 0.5, 1.5)
    assert math.isfinite(gap)
    assert gap >= -1e-8 * max(abs(gap), 1.0)
    zero = Field(g, np.zeros(g.shape))
    for ell in (1.5, 2.0, 3.0):
        assert stroock_varopoulos_gap(zero, 0.5, ell) == 0.0


def test_sv_gaps_check_every_pair_and_finiteness():
    g = make_grid(1, 2 * np.pi, 64)
    v = Field(g, np.sin(g.coord_arrays()[0]))
    with pytest.raises(EllOutOfRange):
        stroock_varopoulos_gaps(v, (0.5,), (2.0, 1.0))
    for alphas, ells, name in (((), (2.0,), "alpha"), ((0.5,), (), "ell")):
        with pytest.raises(InvalidParameter) as exc:
            stroock_varopoulos_gaps(v, alphas, ells)
        assert exc.value.name == name
    bad = np.sin(g.coord_arrays()[0])
    bad[3] = np.nan
    with pytest.raises(NonFiniteInput):
        stroock_varopoulos_gaps(Field(g, bad), (0.5,), (2.0,))


def test_gn_theta_arithmetic():
    assert gn_theta(1, 0.5, 4.0) == pytest.approx(0.5)
    assert gn_theta(2, 0.75, 3.0) == pytest.approx((4.5 - 2.0) / 4.5)


def test_gn_scale_invariance():
    g = make_grid(1, 2 * np.pi, 128)
    x = g.coord_arrays()[0]
    v = np.sin(x) + 0.3 * np.cos(2 * x)
    base = gn_ratio(Field(g, v), 0.5, 4.0)
    for c in (1e-3, 1.0, 1e3):
        assert gn_ratio(Field(g, c * v), 0.5, 4.0) == pytest.approx(base, rel=1e-12)


def test_gn_guards():
    g = make_grid(1, 2 * np.pi, 64)
    v = Field(g, np.sin(g.coord_arrays()[0]))
    with pytest.raises(QOutOfRange):
        gn_ratio(v, 0.5, 2.0)
    # N=2, alpha=0.5: critical exponent 2N/(N-2a) = 4
    g2 = make_grid(2, 2 * np.pi, 16)
    with pytest.raises(QOutOfRange):
        gn_ratio(Field(g2, np.ones(g2.shape)), 0.5, 5.0)
    with pytest.raises(ZeroField):
        gn_ratio(Field(g, np.zeros(g.shape)), 0.5, 3.0)


@pytest.mark.parametrize("c", [0.2, 1e-300])
def test_gn_ratio_undefined_on_a_constant(c):
    # a nonzero constant has (-Dl)^(a/2) v == 0 exactly: no ratio, and no ZeroDivisionError
    g = make_grid(1, 10.0, 64)
    with pytest.raises(ZeroField):
        gn_ratio(Field(g, np.full(g.shape, c)), 0.5, 4.0)


def test_maxreg_single_mode_oracle():
    # u' + mu k^{2a} u = e^{-t}: u(t) = (e^{-t} - e^{-lam t})/(lam - 1)
    mu, alpha, k = 1.0, 0.5, 3
    lam = mu * (k ** 2) ** alpha
    times = np.linspace(0.0, 4.0, 4001)
    u = solve_forced_mode(times, (k ** 2) ** alpha, mu, np.exp(-times))
    exact = (np.exp(-times) - np.exp(-lam * times)) / (lam - 1.0)
    assert np.max(np.abs(u - exact)) < 1e-6


def test_maxreg_ratio_bound_and_zero():
    g = make_grid(1, 2 * np.pi, 64)
    x = g.coord_arrays()[0]
    times = np.linspace(0.0, 4.0, 801)
    for mu in (0.5, 1.0, 2.0):
        f = np.exp(-times)[:, None] * np.sin(3 * x)[None, :]
        ratio = maximal_reg_ratio(f, times, 0.5, mu, g)
        assert 0.0 < ratio <= 1.05 / mu
    assert maximal_reg_ratio(np.zeros((len(times),) + g.shape), times, 0.5, 1.0, g) == 0.0


def _forced_history_loop(fhat, dt, E, phi1, phi2):
    """The recurrence with a float x complex product in every step, as it was
    written before E was cast once."""
    g = dt * ((phi1 - phi2) * fhat[:-1] + phi2 * fhat[1:])
    u = np.zeros_like(fhat)
    for k in range(len(g)):
        u[k + 1] = E * u[k] + g[k]
    return u


def _same_bits(a, b):
    parts = (np.real, np.imag) if np.iscomplexobj(a) else (np.real,)
    return a.dtype == b.dtype and all(
        np.array_equal(p(a), p(b)) and np.array_equal(np.signbit(p(a)), np.signbit(p(b)))
        for p in parts)


def test_forced_history_equals_per_step_loop():
    rng = np.random.default_rng(7)
    nt, dt = 60, 0.05
    smooth = rng.standard_normal((nt, 8)) + 1j * rng.standard_normal((nt, 8))
    # zeros of either sign and tiny values that underflow on stiff modes
    vals = np.array([-1e-300, -0.0, 0.0, 1e-300, -1.0, 1.0])
    signed = rng.choice(vals, (nt, 64)) + 1j * rng.choice(vals, (nt, 64))
    # a mode with E = 0 forced by -1 - i, then by -0 + 0i: the sign of the
    # zero it reaches depends on E u[k] being a complex product
    signed[:, 0] = complex(-0.0, 0.0)
    signed[:10, 0] = -1.0 - 1.0j
    for fhat in (smooth, signed, signed.real.copy()):
        lam = rng.choice([0.0, 3.0, 2000.0, 1e5], fhat.shape[1])
        lam[0] = 1e5
        weights = phi_weights(dt * lam)
        assert weights[0][0] == 0.0
        assert _same_bits(_forced_history(fhat, dt, *weights), _forced_history_loop(fhat, dt, *weights))


def test_solve_forced_mode_equals_per_step_loop():
    times = np.linspace(0.0, 4.0, 401)
    for fhat in (np.exp(-times), np.sin(times), -np.zeros_like(times)):
        for lam in (0.0, 3.0):
            weights = phi_weights(np.array([1.5 * 0.01 * lam]))
            expected = _forced_history_loop(fhat[:, None], 0.01, *weights)[:, 0]
            assert _same_bits(solve_forced_mode(times, lam, 1.5, fhat), expected)


@pytest.mark.parametrize("times, fhat, error", [
    (np.zeros(5), np.ones(5), NonUniformTimeGrid),
    (np.linspace(1.0, 0.0, 5), np.ones(5), NonUniformTimeGrid),
    (np.array([0.0, 0.1, 0.3, 0.6, 1.0]), np.ones(5), NonUniformTimeGrid),
    (np.linspace(0.0, 1.0, 5), np.ones(3), InvalidParameter),
], ids=["constant", "decreasing", "non-uniform", "short-forcing"])
def test_solve_forced_mode_rejects_bad_time_grid_and_forcing(times, fhat, error):
    with pytest.raises(error):
        solve_forced_mode(times, 3.0, 1.0, fhat)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_maxreg_rejects_nonfinite_forcing(bad):
    g = make_grid(1, 2 * np.pi, 64)
    times = np.linspace(0.0, 1.0, 11)
    f = np.exp(-times)[:, None] * np.sin(g.coord_arrays()[0])[None, :]
    f[4, 7] = bad
    with pytest.raises(NonFiniteInput):
        maximal_reg_ratio(f, times, 0.5, 1.0, g)


def test_maxreg_scales_forcings_that_would_under_or_overflow():
    # ||f||^2 underflows to 0 for 1e-170 and overflows for 1e200; each batch
    # entry is scaled on its own, the in-range one not at all
    g = make_grid(1, 2 * np.pi, 64)
    times = np.linspace(0.0, 1.0, 11)
    x = g.coord_arrays()[0]
    units = np.stack([np.ones_like(x), np.cos(x), np.sin(2 * x)])
    f = np.exp(-times)[:, None, None] * units
    expected = maximal_reg_ratio(f, times, 0.5, 1.0, g)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ratios = maximal_reg_ratio(np.array([1e-170, 1e200, 1.0])[:, None] * f, times, 0.5, 1.0, g)
        alone = [maximal_reg_ratio(a * f[:, j], times, 0.5, 1.0, g) for j, a in ((0, 1e-170), (1, 1e200))]
    assert ratios == pytest.approx(expected, rel=1e-14, abs=0.0)
    assert alone == pytest.approx(expected[:2].tolist(), rel=1e-14, abs=0.0)
    assert ratios[2] == expected[2] and expected[1] > 0.0


def test_maxreg_uniform_grid_guard():
    g = make_grid(1, 2 * np.pi, 64)
    times = np.array([0.0, 0.1, 0.3])
    with pytest.raises(NonUniformTimeGrid):
        maximal_reg_ratio(np.zeros((3,) + g.shape), times, 0.5, 1.0, g)


@pytest.mark.parametrize("times", [np.zeros(11), np.linspace(1.0, 0.0, 11),
                                   np.linspace(0.0, 1.0, 22).reshape(2, 11)],
                         ids=["constant", "decreasing", "two-axes"])
def test_maxreg_rejects_bad_time_grid_before_any_transform(times, monkeypatch):
    g = make_grid(1, 2 * np.pi, 64)
    f = np.ones((11,) + g.shape)

    def no_transform(*args):
        raise AssertionError("transform before the time grid was checked")

    monkeypatch.setattr("fracrd.estimate_lab.rfft", no_transform)
    with pytest.raises(NonUniformTimeGrid):
        maximal_reg_ratio(f, times, 0.5, 1.0, g)


def test_maxreg_memory_is_a_fraction_of_the_forcing():
    g = make_grid(1, 2 * np.pi, 128)
    times = np.linspace(0.0, 4.0, 4001)
    f = np.exp(-times)[:, None] * random_band_limited(g, np.random.default_rng(0)).values
    tracemalloc.start()
    try:
        maximal_reg_ratio(f, times, 0.5, 1.0, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the whole spectral history alone would be 4.2 MB, the forcing 4.1 MB
    assert peak < f.nbytes / 3
    fhat = np.exp(-times)
    solve_forced_mode(times, 3.0, 1.0, fhat)
    assert np.array_equal(fhat, np.exp(-times))


def test_norm_report_constant_field():
    g = make_grid(1, 10.0, 8)
    traj = _const_traj(g, (2.0,), [0.0, 0.5, 1.0])
    rep = norm_report(traj, [2.0, math.inf])
    # L^p(Q) of constant c: c (V T)^(1/p) with V = 10, T = 1
    assert rep.spacetime[(0, 2.0)] == pytest.approx(2.0 * math.sqrt(10.0))
    assert rep.spacetime[(0, math.inf)] == 2.0


def test_norm_report_needs_a_state():
    with pytest.raises(EmptyTrajectory):
        norm_report(Trajectory(grid=make_grid(1, 10.0, 8)), [2.0])


def test_norm_report_of_one_state_spans_no_time():
    # a single state has time weight 0: every finite-p norm and weak norm is 0
    g = make_grid(1, 10.0, 8)
    traj = _const_traj(g, (2.0, 3.0), [0.0])
    rep = norm_report(traj, [1.0, 2.0, 7.5, math.inf], weak_p=2.0)
    assert rep.spacetime == {(0, 1.0): 0.0, (1, 1.0): 0.0, (0, 2.0): 0.0, (1, 2.0): 0.0,
                             (0, 7.5): 0.0, (1, 7.5): 0.0, (0, math.inf): 2.0, (1, math.inf): 3.0}
    assert rep.weak_norms == [0.0, 0.0]
    assert rep.windowed_sup == [3.0]


def test_weak_norm_indicator():
    g = make_grid(1, 10.0, 64)
    traj = Trajectory(grid=g)
    vals = np.zeros(g.shape)
    vals[:16] = 3.0  # spatial measure 16/64 * 10 = 2.5
    for t in (0.0, 1.0):
        traj.times.append(t)
        traj.states.append(np.stack([vals]))
    traj.step_times = np.array([0.0, 1.0])
    traj.step_diagnostics = _record(g, traj.states)
    rep = norm_report(traj, [2.0], weak_p=2.0)
    # weak-L2 = c m^{1/2} with spacetime measure m = 2.5 * 1.0
    assert rep.weak_norms[0] == pytest.approx(3.0 * math.sqrt(2.5), rel=1e-6)
    assert rep.weak_norms[0] <= rep.spacetime[(0, 2.0)] * (1 + 1e-12)


def test_weak_below_strong_random():
    g = make_grid(1, 10.0, 32)
    rng = np.random.default_rng(9)
    traj = Trajectory(grid=g)
    for t in np.linspace(0.0, 1.0, 5):
        traj.times.append(float(t))
        traj.states.append(np.stack([np.abs(rng.standard_normal(g.shape))]))
    traj.step_times = np.array(traj.times)
    traj.step_diagnostics = _record(g, traj.states)
    rep = norm_report(traj, [2.0, 3.0], weak_p=2.0)
    assert rep.weak_norms[0] <= rep.spacetime[(0, 2.0)] * (1 + 1e-12)


def _norm_report_per_state(traj, p_list, weak_p):
    """(spacetime, weak_norms) of norm_report with one reduction per (p, level, state)."""
    vol = traj.grid.cell_volume
    m = traj.states[0].shape[0]
    w = _time_weights(traj.times)
    spacetime = {}
    for p in p_list:
        for i in range(m):
            if math.isinf(p):
                val = max(float(np.max(np.abs(s[i]))) for s in traj.states)
            else:
                acc = sum(wk * vol * float(np.sum(np.abs(s[i]) ** p)) for wk, s in zip(w, traj.states))
                val = acc ** (1.0 / p)
            spacetime[(i, p)] = val
    weak_norms = []
    for i in range(m):
        sup = max(float(np.max(np.abs(s[i]))) for s in traj.states)
        if sup == 0.0:
            weak_norms.append(0.0)
            continue
        best = 0.0
        for lam in np.geomspace(1e-6 * sup, sup, WEAK_NORM_LEVELS):
            meas = sum(wk * vol * float(np.sum(np.abs(s[i]) >= lam)) for wk, s in zip(w, traj.states))
            best = max(best, lam * meas ** (1.0 / weak_p))
        weak_norms.append(best)
    return spacetime, weak_norms


def _windowed_sup_per_step(traj):
    """norm_report's windowed sup with one update per recorded step."""
    nwin = max(1, int(math.floor(traj.step_times[-1] + 1e-9)))
    wins = [0.0] * nwin
    for t, d in zip(traj.step_times, traj.step_diagnostics):
        k = min(int(t), nwin - 1)
        wins[k] = max(wins[k], max(d.sup_value))
    return wins


def test_norm_report_equals_per_state_loop():
    g = make_grid(1, 10.0, 32)
    x = g.coord_arrays()[0]
    frozen = ReactionModel("frozen", 3, (1.0, 1.0, 0.5), lambda u, t: 0.0 * u)
    u0 = [Field(g, np.exp(-x**2)), Field(g, np.zeros(g.shape)), Field(g, 1.0 + np.cos(x))]
    # horizon 2.5: two unit windows, the last one holding the partial [2, 2.5]
    traj = solve_mild(frozen, u0, SolverConfig(dt=0.05, horizon=2.5, store_every=3))
    p_list = [1.5, 2.0, math.inf]
    rep = norm_report(traj, p_list, weak_p=2.5)
    spacetime, weak_norms = _norm_report_per_state(traj, p_list, 2.5)
    assert list(rep.spacetime.items()) == list(spacetime.items())
    assert [type(v) for v in rep.spacetime.values()] == [type(v) for v in spacetime.values()]
    assert rep.weak_norms == weak_norms and weak_norms[1] == 0.0
    wins = _windowed_sup_per_step(traj)
    assert len(wins) == 2 and wins[0] > wins[1]
    assert all(a == b and type(a) is float for a, b in zip(rep.windowed_sup, wins, strict=True))


def test_ladder_worked_examples():
    lad = duality_ladder(2, 0.75, 1.0, 2.0)
    assert lad.sequence == [2.0, 14.0]
    assert lad.termination_index == 1
    lad = duality_ladder(3, 0.5, 1.2, 2.1)
    assert lad.termination_index == 2
    assert lad.sequence[1] == pytest.approx(8.4 / 2.7)
    assert lad.sequence[2] == pytest.approx(4.0 * (8.4 / 2.7) / (4.8 - 8.4 / 2.7))


def test_ladder_guards():
    assert rho_admissible_max(2, 0.75) == pytest.approx(1.0 + 3.0 / 3.5)
    with pytest.raises(RhoInadmissible):
        duality_ladder(2, 0.5, 2.5, 3.0)
    with pytest.raises(P0TooSmall):
        duality_ladder(2, 0.5, 1.0, 1.5)


def test_ladder_monotone_sweep():
    rng = np.random.default_rng(1)
    for _ in range(100):
        dims = int(rng.integers(1, 4))
        alpha = float(rng.uniform(0.1, 0.99))
        rho = float(rng.uniform(1.0, min(1 + 4 * alpha / (dims + 2 * alpha), 2.0)))
        p0 = float(rng.uniform(2.0 + 1e-9, 4.0))
        lad = duality_ladder(dims, alpha, rho, p0)
        assert all(b > a for a, b in zip(lad.sequence, lad.sequence[1:]))


def test_ladder_below_its_fixed_point_falls_and_never_terminates():
    # at rho = rho_max the map's repelling fixed point is p = 2 + eps_star = 2.5
    lad = duality_ladder(2, 0.3, rho_admissible_max(2, 0.3, 0.5), 2.2, 0.5)
    assert lad.diverged and lad.termination_index is None
    assert len(lad.sequence) == LADDER_MAX_STEPS + 1
    assert all(b < a for a, b in zip(lad.sequence, lad.sequence[1:]))
    assert 0.0 < lad.sequence[-1] < 1e-18


def _admissible_ladders(count, seed):
    """count ladders at random (dims, alpha, rho, p0, eps_star), rho up to its cap."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        dims, alpha = int(rng.integers(1, 4)), float(rng.uniform(0.1, 0.99))
        eps_star = float(rng.uniform(0.0, 2.0))
        rho = float(rng.uniform(1.0, rho_admissible_max(dims, alpha, eps_star)))
        yield duality_ladder(dims, alpha, rho, float(rng.uniform(2.0, 6.0)), eps_star)


def test_ladder_climbs_by_the_regularity_map():
    # each rising step is the paper's p -> q_hat(p / rho); p >= 2 >= rho keeps p / rho >= 1
    steps = 0
    for lad in _admissible_ladders(2000, 0):
        for p, q in zip(lad.sequence, lad.sequence[1:]):
            if q > p:
                assert q == pytest.approx(q_hat(lad.dims, lad.alpha, p / lad.rho), rel=1e-13)
                steps += 1
    assert steps > 500


def test_ladder_fixed_point_at_the_cap_is_two_plus_eps_star():
    # (rho - 1)(N + 2a)/(2a), where the map p -> q_hat(p / rho) stands still, is
    # 2 + eps_star at rho = rho_admissible_max whenever the cap is below 2
    rng = np.random.default_rng(0)
    checked = 0
    for _ in range(2000):
        dims, alpha = int(rng.integers(1, 4)), float(rng.uniform(0.1, 0.99))
        eps_star = float(rng.uniform(0.0, 2.0))
        rho = rho_admissible_max(dims, alpha, eps_star)
        if rho < 2.0:
            fixed = (rho - 1.0) * (dims + 2.0 * alpha) / (2.0 * alpha)
            assert fixed == pytest.approx(2.0 + eps_star, rel=1e-14, abs=0.0)
            checked += 1
    assert checked > 500


def test_estimate_lab_imports_nothing_from_heat_kernel():
    # maximal_reg_ratio checks its (alpha, mu) ranges itself, without a KernelSpec
    with open(estimate_lab.__file__) as fh:
        tree = ast.parse(fh.read())
    modules = [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    modules += [a.name for node in ast.walk(tree) if isinstance(node, ast.Import) for a in node.names]
    assert modules and not [m for m in modules if m and "heat_kernel" in m]


def test_q_hat_cases():
    assert q_hat(2, 0.5, 1.0) == pytest.approx(1.5)  # (N+2a)/N
    assert q_hat(2, 0.5, 2.0) == pytest.approx(6.0)
    assert q_hat(2, 0.5, 3.0) == math.inf  # p = (N+2a)/2a = 3 critical
    assert q_hat(2, 0.5, 5.0) == math.inf
    ps = [1.0, 1.5, 2.0, 2.5, 2.9]
    qs = [q_hat(2, 0.5, p) for p in ps]
    assert all(b >= a for a, b in zip(qs, qs[1:]))


def test_b_bounds_on_solver_run():
    g = make_grid(1, 40.0, 64)
    x = g.coord_arrays()[0]
    r = np.minimum(np.abs(x), 40.0 - np.abs(x))
    bump = np.exp(-(r / 2.0) ** 2)
    model = bimolecular().with_diffusivities((1.0, 0.7, 1.3, 0.9))
    u0 = [Field(g, a * bump + 0.05) for a in (1.0, 0.3, 0.8, 0.2)]
    traj = solve_mild(model, u0, SolverConfig(dt=0.05, horizon=2.0, alpha=0.5))
    vd = accumulate_v(traj, model.d)
    assert vd.b_bounds_ok
    assert 1.0 / 1.3 - 1e-9 <= vd.b_min <= vd.b_max <= 1.0 / 0.7 + 1e-9
