import math

import numpy as np
import pytest

from fracrd.errors import InvalidParameter, NegativeInitialData, NonFiniteInput, PicardDivergence
from fracrd.heat_kernel import KernelSpec, semigroup_apply
from fracrd.mild_solver import (
    MAX_HALVINGS,
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


def test_store_every_thinning():
    g = make_grid(1, 10.0, 8)
    u0 = [Field(g, np.full(g.shape, c)) for c in (1.0, 0.0, 1.0, 0.0)]
    traj = solve_mild(bimolecular(), u0,
                      SolverConfig(dt=0.01, horizon=1.0, alpha=0.5, store_every=10))
    assert len(traj.step_times) == 101
    assert len(traj.times) == 11
    assert traj.times[-1] == pytest.approx(1.0)
