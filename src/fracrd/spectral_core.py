"""Periodic grids, FFT-based fractional Laplacian, and a real-space oracle.

The operator (-Delta)^beta is realised as the Fourier multiplier |xi|^(2*beta)
on a periodic box [-L/2, L/2)^N.  The singular integral, with its kernel
written through the heat semigroup and evaluated in real space without an
FFT, serves as an independent cross-check of the spectral route.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .errors import (
    BetaOutOfRange,
    GridTooLarge,
    InvalidDims,
    InvalidParameter,
    MemoryBudgetExceeded,
    NonFiniteInput,
    NotPowerOfTwo,
    in_range,
)

# Node-count cap checked at grid construction (2^24 doubles ~ 128 MB of
# workspace once a handful of spectral buffers are alive).
MAX_NODES = 2**24


@dataclass(frozen=True)
class Grid:
    """Uniform periodic lattice on [-L/2, L/2)^N."""

    dims: int
    points_per_axis: int
    extent: float

    @property
    def spacing(self) -> float:
        return self.extent / self.points_per_axis

    @property
    def shape(self) -> tuple:
        return (self.points_per_axis,) * self.dims

    @property
    def node_count(self) -> int:
        return self.points_per_axis**self.dims

    @property
    def cell_volume(self) -> float:
        return self.spacing**self.dims

    def coord_arrays(self) -> list:
        """Per-axis coordinate arrays broadcast to the full lattice shape, each
        axis wrapped so index 0 sits at x=0."""
        n = self.points_per_axis
        j = np.arange(n)
        x = np.where(j < n // 2, j, j - n) * self.spacing
        return list(np.meshgrid(*([x] * self.dims), indexing="ij"))

    def wrapped_r2(self, deltas):
        """Squared periodic distance: the sum over axes of min(|d|, L - |d|)^2
        for the per-axis coordinate differences d in deltas."""
        return sum(np.minimum(d, self.extent - d) ** 2 for d in map(np.abs, deltas))

    def radius_squared(self) -> np.ndarray:
        """|x|^2 at every node (periodic coordinates, origin at index 0)."""
        return next(image_r2(self, 0))

    def _spectral_mesh(self, d: float) -> list:
        """Frequencies j/(n d) along each axis of the rfftn half-spectrum."""
        n = self.points_per_axis
        full, half = np.fft.fftfreq(n, d), np.fft.rfftfreq(n, d)
        return np.meshgrid(*[full] * (self.dims - 1), half, indexing="ij")

    @cached_property
    def _wavenumbers_squared(self) -> np.ndarray:
        ksq = sum((2.0 * np.pi * f) ** 2 for f in self._spectral_mesh(self.spacing))
        ksq.setflags(write=False)
        return ksq

    def wavenumbers_squared(self) -> np.ndarray:
        """|xi|^2 on the rfftn-layout spectral grid, xi_j = 2*pi*j/L; built once
        per grid and read-only."""
        return self._wavenumbers_squared

    def dealias_mask(self) -> np.ndarray:
        """2/3-rule mask on the rfftn spectral layout: |j| <= n/3 on every axis."""
        n = self.points_per_axis
        return np.all([np.abs(f * n) <= n // 3 for f in self._spectral_mesh(1.0)], axis=0)


def make_grid(dims: int, extent: float, points: int) -> Grid:
    """Build a periodic Grid; validates dims, power-of-two size, memory."""
    if type(dims) is not int or dims not in (1, 2, 3):
        raise InvalidDims(f"must be 1, 2 or 3, got {dims!r}", "dims")
    if type(points) is not int or points < 8 or points & (points - 1):
        raise NotPowerOfTwo(f"must be a power of two >= 8, got {points!r}", "points")
    in_range(extent, "extent", "(0, inf)", InvalidDims)
    if points**dims > MAX_NODES:
        raise MemoryBudgetExceeded(
            f"{points}^{dims} = {points**dims} nodes exceed the {MAX_NODES} node budget", "points"
        )
    return Grid(dims=dims, points_per_axis=points, extent=extent)


@dataclass(frozen=True)
class Field:
    """Real scalar lattice function on a Grid; its values are finite."""

    grid: Grid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = np.array(self.values, dtype=float)  # a copy: locking it leaves the caller's array alone
        if v.shape != self.grid.shape:
            raise InvalidParameter(f"values shape {v.shape} != grid shape {self.grid.shape}")
        if not np.all(np.isfinite(v)):
            raise NonFiniteInput("field contains NaN/Inf values")
        object.__setattr__(self, "values", v)
        v.flags.writeable = False


@dataclass(frozen=True)
class FracPower:
    """Exponent beta of (-Delta)^beta, acting as the multiplier |xi|^(2 beta)."""

    beta: float

    def __post_init__(self):
        # unnamed: a config path already names the value beta is read from
        in_range(self.beta, None, "(0, 1]", BetaOutOfRange)


def field_mean(u: Field) -> float:
    return float(np.mean(u.values))


def lp_norm(u: Field, p: float) -> float:
    """Discrete L^p norm with spacing-weighted sums, p in [1, inf]; p=inf is the lattice max."""
    if math.isinf(in_range(p, "p", "[1, inf]")):
        return float(np.max(np.abs(u.values)))
    return float((u.grid.cell_volume * np.sum(np.abs(u.values) ** p)) ** (1.0 / p))


def integral(u: Field) -> float:
    """Spacing-weighted lattice sum (discrete integral over the box)."""
    return float(u.grid.cell_volume * np.sum(u.values))


def rfft(u: np.ndarray, grid: Grid) -> np.ndarray:
    """rfftn over the trailing grid.dims axes of u; leading axes are a batch
    (species, time steps), transformed together in one call.  In 1D the
    one-axis rfft gives the same bits without rfftn's argument handling."""
    if grid.dims == 1:
        return np.fft.rfft(u, axis=-1)
    return np.fft.rfftn(u, axes=range(-grid.dims, 0))


def irfft(uh: np.ndarray, grid: Grid) -> np.ndarray:
    """Inverse of rfft: real lattice values over the trailing grid.dims axes."""
    if grid.dims == 1:
        return np.fft.irfft(uh, grid.points_per_axis, axis=-1)
    return np.fft.irfftn(uh, s=grid.shape, axes=range(-grid.dims, 0))


def apply_multiplier(u: Field, multiplier: np.ndarray) -> Field:
    """Apply a real Fourier multiplier on the rfftn layout."""
    return Field(u.grid, irfft(rfft(u.values, u.grid) * multiplier, u.grid))


def frac_power(u: Field, p: FracPower) -> Field:
    """(-Delta)^beta u via the spectral multiplier |xi|^(2 beta)."""
    ksq = u.grid.wavenumbers_squared()
    return apply_multiplier(u, ksq**p.beta)


# ----------------------------------------------------------------------
# Real-space singular-integral oracle.
#
# The kernel is written through the heat semigroup (Balakrishnan 1960):
#   C_{N,beta} |z|^(-N-2 beta) = (beta / Gamma(1-beta)) int_0^inf G_t(z) t^(-1-beta) dt,
# with G_t the Gaussian of e^{t Delta}, so one separable kernel serves every N.
# ----------------------------------------------------------------------

# Cost guard: the heat operator is a dense n x n matrix per axis.
_MAX_QUAD_AXIS = 64


def image_r2(grid: Grid, images: int):
    """Yield |x + L n|^2 on the lattice for each periodic image n in
    {-images, ..., images}^N, always in the same order."""
    coords = grid.coord_arrays()
    img_axis = grid.extent * np.arange(-images, images + 1)
    for shift in itertools.product(img_axis, repeat=grid.dims):
        yield sum((x + s) ** 2 for x, s in zip(coords, shift))


def _heat_matrix(line: Grid, t: float) -> np.ndarray:
    """e^{t Delta} on a 1D lattice: the circulant of the periodised Gaussian,
    its row normalised to sum 1 so that constants are fixed."""
    images = math.ceil(math.sqrt(150.0 * t) / line.extent) + 1
    row = sum(np.exp(-r2 / (4.0 * t)) for r2 in image_r2(line, images))
    n = line.points_per_axis
    return row[np.subtract.outer(np.arange(n), np.arange(n)) % n] / row.sum()


@lru_cache(maxsize=4)
def _heat_nodes(points: int, extent: float):
    """(eps, T, nodes) of frac_power_quadrature on lines of points and extent, built
    once per line grid: 24 Gauss-Legendre nodes (log t, weight, e^{t Delta}, read-only)."""
    from numpy.polynomial.legendre import leggauss  # not at import: it slows every CLI start

    line = make_grid(1, extent, points)
    eps, T = line.spacing * line.spacing / 4.0, 50.0 * (extent / (2.0 * math.pi)) ** 2
    x, weights = leggauss(24)
    half = 0.5 * math.log(T / eps)
    log_t = math.log(eps) + half * (x + 1.0)
    heat = [_heat_matrix(line, math.exp(s)) for s in log_t]
    for e in heat:
        e.setflags(write=False)
    return eps, T, tuple(zip(log_t, half * weights, heat))


def frac_power_quadrature(u: Field, p: FracPower) -> Field:
    """Real-space singular-integral oracle for (-Delta)^beta, beta in (0,1).

    Evaluates (beta / Gamma(1-beta)) int_0^inf (u - e^{t Delta} u) t^(-1-beta) dt,
    which is C_{N,beta} p.v. int (u(x) - u(y)) |x - y|^(-N-2 beta) dy on the
    periodic box, with no FFT: e^{t Delta} is applied one axis at a time as a
    periodised-Gaussian matrix.  [eps, T] takes 24 Gauss-Legendre nodes in
    log t, with eps = h^2/4 and T = 50 (L / 2 pi)^2; [0, eps] is
    -Lap_h u eps^(1-beta) / (1-beta), Lap_h the fourth-order five-point
    Laplacian per axis, and [T, inf) is (u - mean u) T^(-beta) / beta.
    """
    beta = p.beta
    in_range(beta, "beta", "(0, 1)", BetaOutOfRange)
    g = u.grid
    if g.points_per_axis > _MAX_QUAD_AXIS:
        raise GridTooLarge(
            f"quadrature guard: points_per_axis {g.points_per_axis} > {_MAX_QUAD_AXIS}"
        )

    h = g.spacing
    vals = u.values
    eps, T, nodes = _heat_nodes(g.points_per_axis, g.extent)
    out = np.zeros(g.shape)
    for s, w, e in nodes:
        heat = vals
        for ax in range(g.dims):
            heat = np.moveaxis(np.tensordot(e, heat, axes=(1, ax)), 0, ax)
        out += w * math.exp(-beta * s) * (vals - heat)

    lap = sum(
        16.0 * (np.roll(vals, 1, ax) + np.roll(vals, -1, ax))
        - np.roll(vals, 2, ax) - np.roll(vals, -2, ax) - 30.0 * vals
        for ax in range(g.dims)
    ) / (12.0 * h * h)
    out -= lap * eps ** (1.0 - beta) / (1.0 - beta)
    out += (vals - vals.mean()) * T**-beta / beta
    return Field(g, beta / math.gamma(1.0 - beta) * out)
