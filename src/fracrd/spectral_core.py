"""Periodic grids, FFT-based fractional Laplacian, and a real-space oracle.

The operator (-Delta)^beta is realised as the Fourier multiplier |xi|^(2*beta)
on a periodic box [-L/2, L/2)^N.  A direct singular-integral summation over
the periodic lattice (with image summation and an analytic far-tail
correction) serves as an independent cross-check of the spectral route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

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

    def axis_coords(self) -> np.ndarray:
        """Node coordinates along one axis, wrapped so index 0 sits at x=0."""
        n = self.points_per_axis
        j = np.arange(n)
        j = np.where(j < n // 2, j, j - n)
        return j * self.spacing

    def coord_arrays(self) -> list:
        """Per-axis coordinate arrays broadcast to the full lattice shape."""
        x = self.axis_coords()
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
# Real-space principal-value oracle.
#
# Normalisation constant of the singular integral, closed form
#   C_{N,beta} = 4^beta Gamma(N/2 + beta) / (pi^{N/2} |Gamma(-beta)|),
# cross-validated against the spectral route on single Fourier modes.
# ----------------------------------------------------------------------

# Periodic-image summation radius per dimension; the analytic tail
# correction below mops up the remaining slowly-decaying far field.
_IMAGE_RADIUS = {1: 128, 2: 6, 3: 2}

# Cost guard: direct summation is O(n^(2N)).
_MAX_QUAD_AXIS = 64


def singular_constant(dims: int, beta: float) -> float:
    return (
        4.0**beta
        * math.gamma(dims / 2.0 + beta)
        / (math.pi ** (dims / 2.0) * abs(math.gamma(-beta)))
    )


def _sphere_area(dims: int) -> float:
    # surface measure of the unit sphere S^{N-1}
    return 2.0 * math.pi ** (dims / 2.0) / math.gamma(dims / 2.0)


def _cell_weights_1d(grid: Grid, beta: float, images: int):
    """Product-integration weights for the kernel |z|^(-1-2b) in 1D.

    Returns (w0, w1, w2): per-offset cell integrals of K, K*(z - z_j) and
    K*(z - z_j)^2 / 2, the latter two from the base cell only (image-cell
    moments are negligible).  w0 is summed over periodic images.  The
    singular central cell is excluded everywhere.
    """
    h = grid.spacing
    L = grid.extent
    zc = grid.axis_coords()
    z = zc[:, None] + L * np.arange(-images, images + 1)
    a = np.abs(z) - 0.5 * h
    b = np.abs(z) + 0.5 * h
    good = a > 0  # skips only the (offset 0, image 0) cell
    w = np.zeros_like(z)
    w[good] = (a[good] ** (-2.0 * beta) - b[good] ** (-2.0 * beta)) / (2.0 * beta)
    w0 = w.sum(axis=1)

    # base-cell moments M1 = int K z dz, M2 = int K z^2 dz (signed cells)
    ab = np.abs(zc) - 0.5 * h
    bb = np.abs(zc) + 0.5 * h
    base = ab > 0
    m0 = w[:, images]  # the image-0 column of w is the base-cell integral
    m1 = np.zeros_like(zc)
    m2 = np.zeros_like(zc)
    if abs(beta - 0.5) < 1e-12:
        m1[base] = np.log(bb[base] / ab[base])
    else:
        m1[base] = (bb[base] ** (1.0 - 2.0 * beta) - ab[base] ** (1.0 - 2.0 * beta)) / (
            1.0 - 2.0 * beta
        )
    m2[base] = (bb[base] ** (2.0 - 2.0 * beta) - ab[base] ** (2.0 - 2.0 * beta)) / (
        2.0 - 2.0 * beta
    )
    sign = np.sign(zc)
    m1 *= sign  # odd moment flips with the cell side
    w1 = m1 - zc * m0
    w2 = 0.5 * (m2 - 2.0 * zc * m1 + zc * zc * m0)
    return w0, w1, w2


def image_r2(grid: Grid, images: int, shifts=None):
    """Yield |x + L n + s|^2 on the lattice for each periodic image n in
    {-images, ..., images}^N and, within it, each shift s (one flat array
    per axis; by default the zero shift alone), always in the same order."""
    coords = grid.coord_arrays()
    img_axis = grid.extent * np.arange(-images, images + 1)
    img = [m.ravel() for m in np.meshgrid(*([img_axis] * grid.dims), indexing="ij")]
    if shifts is None:
        shifts = [np.zeros(1)] * grid.dims
    for k in range(img[0].size):
        for q in range(shifts[0].size):
            r2 = np.zeros(grid.shape)
            for ax in range(grid.dims):
                d = coords[ax] + img[ax][k] + shifts[ax][q]
                r2 += d * d
            yield r2


def _cell_weights_nd(grid: Grid, beta: float, images: int, sub: int = 5) -> np.ndarray:
    """Subsampled cell-averaged kernel weights, periodised over images (N>1)."""
    h = grid.spacing
    expo = -(grid.dims + 2.0 * beta) / 2.0
    # sub-cell midpoint nodes
    s = (np.arange(sub) + 0.5) / sub - 0.5
    subs = [m.ravel() for m in np.meshgrid(*([s * h] * grid.dims), indexing="ij")]
    weights = np.zeros(grid.shape)
    for d2 in image_r2(grid, images, subs):
        contrib = np.where(d2 > 0, d2, 1.0) ** expo
        contrib = np.where(d2 > 0, contrib, 0.0)
        weights += contrib
    weights *= grid.cell_volume / sub**grid.dims
    # zero out the singular central cell entirely; handled by the inner
    # curvature correction
    weights.flat[0] -= weights.flat[0]
    return weights


def frac_power_quadrature(u: Field, p: FracPower) -> Field:
    """Principal-value singular-sum oracle for (-Delta)^beta, beta in (0,1).

    Evaluates C_{N,beta} * sum_y (u(x) - u(y)) K_per(x - y) over the periodic
    lattice, where K_per is the kernel |z|^(-N-2 beta) periodised over image
    boxes and integrated over each lattice cell (exactly in 1D, subsampled in
    higher dimensions).  The singular y=x cell is excluded; +/- offsets occur
    in symmetric pairs so odd terms cancel (principal value by symmetry).
    Two analytic corrections are applied: the excluded-cell contribution via
    a finite-difference Laplacian, and the far field beyond the summed images
    against (u - mean u).
    """
    beta = p.beta
    in_range(beta, "beta", "(0, 1)", BetaOutOfRange)
    g = u.grid
    if g.points_per_axis > _MAX_QUAD_AXIS:
        raise GridTooLarge(
            f"quadrature guard: points_per_axis {g.points_per_axis} > {_MAX_QUAD_AXIS}"
        )

    h = g.spacing
    L = g.extent
    R = _IMAGE_RADIUS[g.dims]
    c_nb = singular_constant(g.dims, beta)

    vals = u.values
    if g.dims == 1:
        weights, w1, w2 = _cell_weights_1d(g, beta, R)
        du = (np.roll(vals, -1) - np.roll(vals, 1)) / (2.0 * h)
        d2u = (np.roll(vals, -1) - 2.0 * vals + np.roll(vals, 1)) / h**2
    else:
        weights = _cell_weights_nd(g, beta, R)
        w1 = w2 = du = d2u = None
    total_weight = float(weights.sum())

    # sum_y w(x-y) u(y) accumulated by rolling over every nonzero offset
    conv = np.zeros(g.shape)
    for idx in np.ndindex(g.shape):
        wgt = weights[idx]
        if wgt == 0.0:
            continue
        rolled = np.roll(vals, shift=idx, axis=tuple(range(g.dims)))
        conv += wgt * rolled
        if g.dims == 1:
            # product-integration moment corrections for in-cell variation;
            # conv holds u(x - z), hence the sign flip on the odd moment
            conv -= w1[idx] * np.roll(du, shift=idx)
            conv += w2[idx] * np.roll(d2u, shift=idx)

    out = c_nb * (total_weight * vals - conv)

    # Excluded-cell correction: integral of (u(y)-u(x)) over the central cell
    # is Lap(u)/(2N) * int |z|^2 |z|^(-N-2b) dz to second order.  The cell is
    # replaced by the equal-volume ball of radius r_eff (exact in 1D).
    lap = np.zeros(g.shape)
    for ax in range(g.dims):
        lap += (np.roll(vals, 1, axis=ax) + np.roll(vals, -1, axis=ax) - 2 * vals) / h**2
    ball_vol = math.pi ** (g.dims / 2.0) / math.gamma(g.dims / 2.0 + 1.0)
    r_eff = (g.cell_volume / ball_vol) ** (1.0 / g.dims)
    inner = (
        _sphere_area(g.dims)
        / (2.0 * g.dims)
        * r_eff ** (2.0 - 2.0 * beta)
        / (2.0 - 2.0 * beta)
    )
    out -= c_nb * inner * lap

    # Far-tail correction beyond the summed image boxes.
    cutoff = (R + 0.5) * L
    tail = _sphere_area(g.dims) * cutoff ** (-2.0 * beta) / (2.0 * beta)
    out += c_nb * tail * (vals - vals.mean())
    return Field(g, out)
