"""Fractional heat kernel, semigroup application, and smoothing diagnostics.

The kernel is the inverse transform of exp(-mu t |xi|^(2 alpha)) on the
periodic grid.  Diagnostics check the two-sided envelope comparison, the
self-similar rescaling identity, and the L^r -> L^p smoothing decay rates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateFit,
    ExponentOrder,
    NegativeTime,
    NonPositiveTime,
    TailMassTooLarge,
    in_range,
)
from .spectral_core import Field, Grid, apply_multiplier, image_r2, irfft, lp_norm, make_grid


@dataclass(frozen=True)
class KernelSpec:
    alpha: float
    mu: float
    grid: Grid

    def __post_init__(self):
        in_range(self.alpha, "alpha", "(0, 1]")
        in_range(self.mu, "mu", "(0, inf)")


@dataclass
class SmoothingReport:
    r: float
    p: float
    beta: float
    fitted_slope: float
    predicted_slope: float
    relative_error: float
    times_used: int


def heat_kernel_field(spec: KernelSpec, t: float) -> Field:
    """Kernel of exp(-t mu (-Delta)^alpha); peak at the x=0 node (index 0)."""
    in_range(t, "t", "(0, inf)", NonPositiveTime)
    g = spec.grid
    ksq = g.wavenumbers_squared()
    symbol = np.exp(-spec.mu * t * ksq**spec.alpha)
    vals = irfft(symbol, g) / g.cell_volume
    return Field(g, vals)


def semigroup_apply(u: Field, spec: KernelSpec, t: float) -> Field:
    """Multiply the spectrum of u by exp(-mu t |xi|^(2 alpha))."""
    if in_range(t, "t", "[0, inf)", NegativeTime) == 0:
        return u
    ksq = u.grid.wavenumbers_squared()
    return apply_multiplier(u, np.exp(-spec.mu * t * ksq**spec.alpha))


def kernel_tail_mass(spec: KernelSpec, t: float) -> float:
    """Spacing-weighted kernel mass outside |x| < L/4 (wrap-around monitor)."""
    g = spec.grid
    k = heat_kernel_field(spec, t)
    outside = g.radius_squared() >= (g.extent / 4.0) ** 2
    return float(g.cell_volume * np.sum(k.values[outside]))


def _envelope(grid: Grid, alpha: float, s: float, images: int) -> np.ndarray:
    """Periodised envelope s * (s^(1/alpha) + |x|^2)^(-(N+2a)/2), summed over
    image boxes so the comparison matches the wrapped kernel."""
    expo = -(grid.dims + 2.0 * alpha) / 2.0
    env = np.zeros(grid.shape)
    for r2 in image_r2(grid, images):
        env += s * (s ** (1.0 / alpha) + r2) ** expo
    return env


_ENVELOPE_IMAGES = {1: 64, 2: 8, 3: 2}


def kernel_diagnostics(spec: KernelSpec, times) -> dict:
    """Envelope ratios, self-similarity residual, and tail-mass monitor."""
    times = list(times)
    if not times:
        raise NonPositiveTime("must be a nonempty list", "times")
    for t in times:
        in_range(t, "times", "(0, inf)", NonPositiveTime)
    g = spec.grid

    tail = max(kernel_tail_mass(spec, t) for t in times)
    if tail > 0.01:
        raise TailMassTooLarge(
            f"kernel tail mass {tail:.3g} outside |x| < L/4 exceeds 1%"
        )

    images = _ENVELOPE_IMAGES[g.dims]
    ratio_min = math.inf
    ratio_max = -math.inf
    residual = 0.0
    for t in times:
        s = spec.mu * t  # K_{alpha,mu}(x,t) = K_alpha(x, mu t)
        k = heat_kernel_field(spec, t).values
        env = _envelope(g, spec.alpha, s, images)
        ratio = k / env
        ratio_min = min(ratio_min, float(ratio.min()))
        ratio_max = max(ratio_max, float(ratio.max()))

        # Self-similarity: K(x, s) == s^(-N/2a) * K(s^(-1/2a) x, 1), realised
        # by evaluating the unit-time kernel on a grid rescaled by s^(-1/2a).
        scale = s ** (-1.0 / (2.0 * spec.alpha))
        gref = make_grid(g.dims, g.extent * scale, g.points_per_axis)
        kref = heat_kernel_field(KernelSpec(spec.alpha, 1.0, gref), 1.0).values
        rescaled = s ** (-g.dims / (2.0 * spec.alpha)) * kref
        residual = max(residual, float(np.max(np.abs(k - rescaled)) / k.max()))

    return {
        "envelope_ratio_min": ratio_min,
        "envelope_ratio_max": ratio_max,
        "self_similarity_residual": residual,
        "tail_mass": tail,
    }


def delta_probe(grid: Grid, r: float) -> Field:
    """Single-node discrete delta at x=0, normalised so its L^r norm is 1."""
    r = in_range(r, "r", "[1, inf]")
    vals = np.zeros(grid.shape)
    height = 1.0 if math.isinf(r) else grid.cell_volume ** (-1.0 / r)
    vals[(0,) * grid.dims] = height
    return Field(grid, vals)


def usable_fit_times(spec: KernelSpec, times) -> list:
    """Restrict to times where the kernel width (mu t)^(1/2a) lies between
    4 grid spacings and L/8 (avoids under-resolution and wrap-around); each
    time must lie in (0, inf)."""
    g = spec.grid
    lo, hi = 4.0 * g.spacing, g.extent / 8.0
    out = []
    for t in times:
        t = in_range(t, "times", "(0, inf)", NonPositiveTime)
        width = (spec.mu * t) ** (1.0 / (2.0 * spec.alpha))
        if lo <= width <= hi:
            out.append(t)
    return out


def smoothing_rate_fit(spec: KernelSpec, r: float, p: float, times, beta: float = 0.0) -> SmoothingReport:
    """Fit the decay slope of ||(-Delta)^beta S(t) phi||_p / ||phi||_r, 1 <= r <= p <= inf."""
    p_min = in_range(r, "r", "[1, inf]")
    in_range(p, "p", f"[{p_min!r}, inf]", ExponentOrder)
    in_range(beta, "beta", "[0, inf)")
    usable = usable_fit_times(spec, times)
    if len(usable) < 5:
        raise DegenerateFit(
            f"only {len(usable)} usable times inside the fit window; need >= 5"
        )
    g = spec.grid
    if r == p and beta == 0.0:
        # contraction regime: the zero mode saturates the (decay-free) bound
        phi = Field(g, np.ones(g.shape))
    else:
        phi = delta_probe(g, r)
    ksq = g.wavenumbers_squared()
    deriv = ksq**beta if beta > 0 else None

    norms = []
    for t in usable:
        ut = semigroup_apply(phi, spec, t)
        if deriv is not None:
            ut = apply_multiplier(ut, deriv)
        norms.append(lp_norm(ut, p))

    slope = float(np.polyfit(np.log(usable), np.log(norms), 1)[0])
    predicted = -g.dims / (2.0 * spec.alpha) * (1.0 / r - 1.0 / p) - beta / spec.alpha
    rel = abs(slope - predicted) / (abs(predicted) if predicted != 0 else 1.0)
    return SmoothingReport(
        r=r,
        p=p,
        beta=beta,
        fitted_slope=slope,
        predicted_slope=predicted,
        relative_error=rel,
        times_used=len(usable),
    )
