import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fracrd import spectral_core
from fracrd.errors import (
    BetaOutOfRange,
    GridTooLarge,
    InvalidDims,
    InvalidParameter,
    MemoryBudgetExceeded,
    NonFiniteInput,
    NotPowerOfTwo,
)
from fracrd.estimate_lab import MAXREG_BLOCK_BYTES, maximal_reg_ratio
from fracrd.mild_solver import phi_weights
from fracrd.spectral_core import (
    Field,
    FracPower,
    field_mean,
    frac_power,
    frac_power_quadrature,
    integral,
    irfft,
    lp_norm,
    make_grid,
    rfft,
)


@pytest.fixture
def g64():
    return make_grid(1, 2 * np.pi, 64)


def test_grid_basics(g64):
    assert g64.spacing * g64.points_per_axis == pytest.approx(2 * np.pi, rel=1e-15)
    assert g64.shape == (64,)
    ksq = g64.wavenumbers_squared()
    assert ksq.flat[0] == 0.0


def test_grid_2d():
    g = make_grid(2, 40.0, 128)
    assert g.node_count == 128 * 128
    # xi step is 2 pi / L on each axis
    ksq = g.wavenumbers_squared()
    assert ksq[1, 0] == pytest.approx((2 * np.pi / 40.0) ** 2, rel=1e-14)


@pytest.mark.parametrize("dims,points", [(1, 64), (2, 16), (3, 8)])
def test_wavenumbers_squared_built_once_read_only(dims, points):
    g = make_grid(dims, 40.0, points)
    ksq = g.wavenumbers_squared()
    full, half = np.fft.fftfreq(points, g.spacing), np.fft.rfftfreq(points, g.spacing)
    mesh = np.meshgrid(*[full] * (dims - 1), half, indexing="ij")
    uncached = sum((2.0 * np.pi * f) ** 2 for f in mesh)
    assert ksq.shape == uncached.shape and ksq.tobytes() == uncached.tobytes()
    assert g.wavenumbers_squared() is ksq
    assert not ksq.flags.writeable


@pytest.mark.parametrize("bad", [(1, 2 * np.pi, 63), (1, 2 * np.pi, 4)])
def test_grid_not_power_of_two(bad):
    with pytest.raises(NotPowerOfTwo):
        make_grid(*bad)


def test_grid_invalid_dims():
    with pytest.raises(InvalidDims):
        make_grid(4, 1.0, 64)
    with pytest.raises(InvalidDims):
        make_grid(1, -1.0, 64)


def test_grid_memory_budget():
    with pytest.raises(MemoryBudgetExceeded):
        make_grid(3, 1.0, 512)


def test_field_requires_matching_shape(g64):
    with pytest.raises(ValueError):
        Field(g64, np.zeros(32))


def test_field_copies_and_locks_its_values(g64):
    a = np.ones(64)
    u = Field(g64, a)
    a[0] = 2.0  # the caller's array stays writable and apart from the field
    assert u.values[0] == 1.0 and not u.values.flags.writeable


def test_frac_power_constant_is_zero(g64):
    u = Field(g64, np.full(g64.shape, 3.7))
    out = frac_power(u, FracPower(0.5))
    assert np.max(np.abs(out.values)) < 1e-13


@pytest.mark.parametrize("k,beta,lam", [(2, 0.5, 2.0), (3, 1.0, 9.0), (1, 0.3, 1.0)])
def test_frac_power_eigenfunction(g64, k, beta, lam):
    x = g64.coord_arrays()[0]
    u = Field(g64, np.sin(k * x))
    out = frac_power(u, FracPower(beta))
    assert np.allclose(out.values, lam * np.sin(k * x), atol=1e-12 * lam)


def test_frac_power_rejects_nonfinite(g64):
    vals = np.zeros(g64.shape)
    vals[3] = np.inf
    with pytest.raises(NonFiniteInput):
        frac_power(Field(g64, vals), FracPower(0.5))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("dims", [1, 2])
def test_field_rejects_nonfinite_values(dims, bad):
    g = make_grid(dims, 2 * np.pi, 16)
    vals = np.ones(g.shape)
    vals.flat[5] = bad
    with pytest.raises(NonFiniteInput, match="field contains NaN/Inf values"):
        Field(g, vals)


def test_frac_power_beta_range():
    with pytest.raises(BetaOutOfRange):
        FracPower(0.0)
    with pytest.raises(BetaOutOfRange):
        FracPower(1.5)


@settings(max_examples=20, deadline=None)
@given(
    a=st.floats(-10, 10),
    b=st.floats(-10, 10),
    beta=st.floats(0.1, 1.0),
)
def test_frac_power_linearity(a, b, beta):
    g = make_grid(1, 2 * np.pi, 64)
    rng = np.random.default_rng(7)
    u = rng.standard_normal(g.shape)
    w = rng.standard_normal(g.shape)
    p = FracPower(beta)
    lhs = frac_power(Field(g, a * u + b * w), p).values
    rhs = a * frac_power(Field(g, u), p).values + b * frac_power(Field(g, w), p).values
    assert np.allclose(lhs, rhs, atol=1e-9 * (1 + abs(a) + abs(b)))


@settings(max_examples=20, deadline=None)
@given(beta=st.floats(0.1, 1.0))
def test_frac_power_mean_annihilation(beta):
    g = make_grid(1, 10.0, 64)
    u = Field(g, np.random.default_rng(11).standard_normal(g.shape))
    assert abs(field_mean(frac_power(u, FracPower(beta)))) < 1e-12


def test_frac_power_composition(g64):
    u = Field(g64, np.random.default_rng(3).standard_normal(g64.shape))
    one = frac_power(frac_power(u, FracPower(0.3)), FracPower(0.6)).values
    two = frac_power(u, FracPower(0.9)).values
    assert np.allclose(one, two, atol=1e-9)


def test_quadrature_constant_is_zero(g64):
    u = Field(g64, np.full(g64.shape, 2.0))
    out = frac_power_quadrature(u, FracPower(0.5))
    assert np.max(np.abs(out.values)) < 1e-10


def test_quadrature_single_mode(g64):
    x = g64.coord_arrays()[0]
    u = Field(g64, np.sin(x))
    spec = frac_power(u, FracPower(0.5)).values
    quad = frac_power_quadrature(u, FracPower(0.5)).values
    rel = np.linalg.norm(quad - spec) / np.linalg.norm(spec)
    assert rel < 0.02


@pytest.mark.parametrize("dims,points,beta", [(2, 16, 0.3), (2, 16, 0.5), (2, 16, 0.8), (3, 8, 0.5)])
def test_quadrature_nd_matches_spectral(dims, points, beta):
    g = make_grid(dims, 2 * np.pi, points)
    x = g.coord_arrays()
    u = Field(g, np.cos(x[0]) + 0.5 * np.sin(2 * x[-1]) + 0.3 * np.cos(x[0] + x[-1]))
    spec = frac_power(u, FracPower(beta)).values
    quad = frac_power_quadrature(u, FracPower(beta)).values
    assert np.linalg.norm(quad - spec) / np.linalg.norm(spec) <= 0.1
    flat = frac_power_quadrature(Field(g, np.full(g.shape, 2.0)), FracPower(beta)).values
    assert np.max(np.abs(flat)) <= 1e-12


def test_quadrature_builds_its_heat_matrices_once_per_grid(monkeypatch):
    # criterion 1 calls the oracle 60 times on one grid: the 24 matrices are built
    # on the first call only, kept read-only, and give the same bits again
    g = make_grid(2, 2 * np.pi, 16)
    built = []
    heat_matrix = spectral_core._heat_matrix

    def counted(line, t):
        built.append(t)
        return heat_matrix(line, t)

    monkeypatch.setattr(spectral_core, "_heat_matrix", counted)
    spectral_core._heat_nodes.cache_clear()
    x = g.coord_arrays()
    u = Field(g, np.cos(x[0]) + 0.5 * np.sin(2 * x[-1]))
    first = frac_power_quadrature(u, FracPower(0.3)).values
    assert len(built) == 24
    again = frac_power_quadrature(u, FracPower(0.3)).values
    frac_power_quadrature(u, FracPower(0.7))
    assert len(built) == 24 and again.tobytes() == first.tobytes()
    *_, nodes = spectral_core._heat_nodes(16, 2 * np.pi)
    assert not any(e.flags.writeable for _, _, e in nodes)


def _quadrature_error(dims, points, beta):
    g = make_grid(dims, 2 * np.pi, points)
    x = g.coord_arrays()
    u = Field(g, np.cos(x[0]) + 0.5 * np.sin(2 * x[-1]) + 0.3 * np.cos(x[0] + x[-1]))
    spec = frac_power(u, FracPower(beta)).values
    quad = frac_power_quadrature(u, FracPower(beta)).values
    return np.linalg.norm(quad - spec) / np.linalg.norm(spec)


def test_quadrature_converges_in_2d():
    assert _quadrature_error(2, 32, 0.5) * 4 <= _quadrature_error(2, 16, 0.5)


@pytest.mark.parametrize("dims,points", [(1, 64), (2, 16), (3, 8)])
def test_quadrature_makes_no_fft_call(monkeypatch, dims, points):
    g = make_grid(dims, 2 * np.pi, points)
    u = Field(g, np.cos(g.coord_arrays()[0]))
    spec = frac_power(u, FracPower(0.5)).values

    def no_fft(*args, **kwargs):
        raise AssertionError("the quadrature oracle called an FFT")

    for name in ("rfft", "irfft", "rfftn", "irfftn"):
        monkeypatch.setattr(np.fft, name, no_fft)
    quad = frac_power_quadrature(u, FracPower(0.5)).values
    assert np.linalg.norm(quad - spec) / np.linalg.norm(spec) <= 0.02


def test_quadrature_guards(g64):
    u = Field(g64, np.zeros(g64.shape))
    with pytest.raises(BetaOutOfRange):
        frac_power_quadrature(u, FracPower(1.0))
    big = make_grid(1, 2 * np.pi, 128)
    with pytest.raises(GridTooLarge):
        frac_power_quadrature(Field(big, np.zeros(big.shape)), FracPower(0.5))


def test_norms_and_integral():
    g = make_grid(1, 4.0, 8)
    u = Field(g, np.full(g.shape, 2.0))
    assert integral(u) == pytest.approx(8.0, rel=1e-15)
    assert lp_norm(u, 2) == pytest.approx(2.0 * np.sqrt(4.0), rel=1e-15)
    assert lp_norm(u, np.inf) == 2.0


@pytest.mark.parametrize("dims,n", [(1, 64), (2, 16), (3, 8)])
def test_batched_transform_pair_equals_per_slice(dims, n):
    g = make_grid(dims, 3.0, n)
    u = np.random.default_rng(dims).standard_normal((4,) + g.shape)
    uh = rfft(u, g)
    assert np.array_equal(uh, np.stack([np.fft.rfftn(ui) for ui in u]))
    back = irfft(uh, g)
    assert np.array_equal(back, np.stack([np.fft.irfftn(h, s=g.shape, axes=range(dims)) for h in uh]))
    assert np.allclose(back, u, atol=1e-13)


def _maxreg_per_step(f, times, alpha, mu, g):
    """maximal_reg_ratio written one time step and one transform at a time."""
    dt = float(times[1] - times[0])
    lam = g.wavenumbers_squared() ** alpha
    E, phi1, phi2 = phi_weights(mu * dt * lam)
    fhat = [np.fft.rfftn(fk) for fk in f]
    uhat = np.zeros_like(fhat[0])
    gsq = [0.0]
    for k in range(len(times) - 1):
        uhat = E * uhat + dt * ((phi1 - phi2) * fhat[k] + phi2 * fhat[k + 1])
        gk = np.fft.irfftn(lam * uhat, s=g.shape, axes=range(g.dims))
        gsq.append(g.cell_volume * np.sum(gk**2))
    w = np.full(len(times), dt)
    w[0] = w[-1] = 0.5 * dt
    fsq = [g.cell_volume * np.sum(fk**2) for fk in f]
    return math.sqrt(float(np.dot(w, gsq))) / math.sqrt(float(np.dot(w, fsq)))


def _decaying_forcing(rng, times, g):
    f = np.exp(-times).reshape((-1,) + (1,) * g.dims) * rng.standard_normal(g.shape)
    return f + 0.1 * rng.standard_normal(f.shape)


@pytest.mark.parametrize("dims,n", [(1, 64), (2, 16), (3, 8)])
def test_maximal_reg_ratio_equals_per_step_loop(dims, n):
    g = make_grid(dims, 2 * np.pi, n)
    rng = np.random.default_rng(dims)
    # one step past the first time block of a single forcing; three stacked
    # forcings take blocks of a third of that, so they cross several
    past_block = MAXREG_BLOCK_BYTES // (8 * g.node_count) + 2
    for nt in (2, 41, past_block):
        times = np.linspace(0.0, 0.05 * (nt - 1), nt)
        f, h = _decaying_forcing(rng, times, g), _decaying_forcing(rng, times, g)
        stack = np.stack([f, np.zeros_like(f), h], axis=1)
        for mu in (0.5, 2.0):
            single = [maximal_reg_ratio(x, times, 0.5, mu, g) for x in stack.swapaxes(0, 1)]
            assert single[0] == _maxreg_per_step(f, times, 0.5, mu, g)
            assert single[1] == 0.0 and single[2] > 0.0
            batched = maximal_reg_ratio(stack, times, 0.5, mu, g)
            assert batched.shape == (3,) and batched.tolist() == single
            two_axes = maximal_reg_ratio(stack.reshape((nt, 3, 1) + g.shape), times, 0.5, mu, g)
            assert two_axes.tolist() == [[r] for r in single]
        with pytest.raises(InvalidParameter):
            maximal_reg_ratio(np.moveaxis(stack, 1, -1), times, 0.5, 1.0, g)
