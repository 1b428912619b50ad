import csv
import math
import warnings

import numpy as np
import pytest

from fracrd.cli_runner import make_profile
from fracrd.errors import InvalidParameter, NegativeInitialData, NonFiniteInput, PicardDivergence
from fracrd.heat_kernel import KernelSpec, semigroup_apply
from fracrd.mild_solver import (
    MAX_HALVINGS,
    REGROW_AFTER,
    SolverConfig,
    detect_blowup,
    load_checkpoint,
    save_checkpoint,
    solve_mild,
)
from fracrd.rds_model import ReactionModel, bimolecular, dissipative_pair
from fracrd.spectral_core import Field, make_grid


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


def test_input_guards():
    g = make_grid(1, 10.0, 8)
    model = dissipative_pair()
    neg = [Field(g, np.full(g.shape, 1.0)), Field(g, np.full(g.shape, 1.0))]
    neg_vals = np.full(g.shape, 1.0)
    neg_vals[0] = -0.5
    with pytest.raises(NegativeInitialData):
        solve_mild(model, [Field(g, neg_vals), neg[1]],
                   SolverConfig(dt=0.1, horizon=0.2))
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
    assert len(calls) == 2 * (MAX_HALVINGS + 1)  # predictor and one Picard iterate per try


def _stalling_first_window():
    """Zero rates, except on the first try of the first window, where the rate
    flips sign on every call and the Picard iterates cycle between two states.
    Returns the model and the times of its rate calls."""
    calls = []

    def rates(u, t):
        calls.append(t)
        if calls.count(0.0) > 1:  # from the first window's retry on
            return np.zeros(u.shape)
        return np.full(u.shape, (-1.0) ** len(calls))

    return ReactionModel("stall", 1, (1.0,), rates), calls


def test_stalled_window_rejected_early():
    g = make_grid(1, 10.0, 8)
    model, calls = _stalling_first_window()
    solve_mild(model, [Field(g, np.full(g.shape, 10.0))], SolverConfig(dt=0.1, horizon=0.2))
    # start-of-window rate, three iterates of a constant residual (not PICARD_MAX), retry
    assert calls[:5] == [0.0, 0.1, 0.1, 0.1, 0.0]


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
    assert 2000 < len(calls) <= 2000 + 2 * (MAX_HALVINGS + 1)  # two rate calls per try


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
    # the coupled nonlinear solve the run workloads make: second order in dt,
    # and no larger an error constant than the solver this value was taken from
    g = make_grid(1, 40.0, 64)
    model = bimolecular().with_diffusivities(README_D)
    u0 = [make_profile(g, spec, None) for spec in README_DATA]

    def final(dt):
        cfg = SolverConfig(dt=dt, horizon=1.0, alpha=0.5, store_every=10**6)
        return solve_mild(model, u0, cfg).states[-1]

    ref = final(0.02 / 16)
    e002, e001 = (float(np.max(np.abs(final(dt) - ref)) / np.max(np.abs(ref)))
                  for dt in (0.02, 0.01))
    assert 1.9 <= math.log2(e002 / e001) <= 2.1
    assert e002 <= 1.1 * SELFCONV_ERR_002


def test_etd2_predictor_saves_picard_iterations():
    # every window of this run takes 4 iterations from an exponential-Euler start
    g = make_grid(1, 40.0, 64)
    model = bimolecular().with_diffusivities(README_D)
    u0 = [make_profile(g, spec, None) for spec in README_DATA]
    traj = solve_mild(model, u0, SolverConfig(dt=0.01, horizon=1.0, alpha=0.5))
    iters = [d.picard_iterations for d in traj.step_diagnostics[1:]]
    assert len(iters) == 100 and np.mean(iters) < 3.5


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
