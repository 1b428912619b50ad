"""Numerical verification of a-priori estimates and the exponent ladder.

Covers the time-integrated v-function and its ratio coefficient b, Holder
seminorm estimation, the Stroock-Varopoulos and fractional
Gagliardo-Nirenberg inequalities, L^2 maximal regularity of the fractional
heat operator, space-time / weak-norm reports, and the duality-bootstrap
exponent recursion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BetaOutOfRange,
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
    as_int,
    in_range,
)
from .mild_solver import Trajectory, phi_weights
from .spectral_core import Field, FracPower, frac_power, irfft, lp_norm, rfft


# ----------------------------------------------------------------------
# v-function and b-coefficient
# ----------------------------------------------------------------------

B_DEFINED_REL_TOL = 1e-12  # nodes with sum u_i below this x scale are 0/0


@dataclass
class VDiagnostics:
    grid: object
    times: list
    v: list  # Field values per time (time integral of sum d_i u_i)
    b_bounds_ok: bool
    b_min: float
    b_max: float


def accumulate_v(traj: Trajectory, d) -> VDiagnostics:
    """Trapezoidal time integral v of sum_i d_i u_i, plus the range of the b ratio."""
    if not traj.states:
        raise EmptyTrajectory("trajectory has no states")
    d = np.asarray(d, dtype=float)
    times = list(traj.times)
    integrand = [np.tensordot(d, s, axes=(0, 0)) for s in traj.states]
    sums = [np.sum(s, axis=0) for s in traj.states]

    scale = max(max(float(np.max(np.abs(s))) for s in sums), 1e-300)
    thresh = B_DEFINED_REL_TOL * scale

    v = [np.zeros(traj.grid.shape)]
    for k in range(1, len(times)):
        dt = times[k] - times[k - 1]
        v.append(v[-1] + 0.5 * dt * (integrand[k] + integrand[k - 1]))

    bmin, bmax = math.inf, -math.inf
    for su, sdu in zip(sums, integrand):
        defined = su > thresh
        if defined.any():
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = su[defined] / sdu[defined]
            bmin = min(bmin, float(ratio.min()))
            bmax = max(bmax, float(ratio.max()))

    lo, hi = 1.0 / max(d), 1.0 / min(d)
    tol = 1e-9 * hi
    ok = (bmin == math.inf) or (bmin >= lo - tol and bmax <= hi + tol)
    return VDiagnostics(
        grid=traj.grid,
        times=times,
        v=v,
        b_bounds_ok=bool(ok),
        b_min=bmin,
        b_max=bmax,
    )


RANDOM_PAIR_COUNT = 100_000  # node pairs sampled when there are more than this many
MAX_HOLDER_SLICES = 16


def check_holder_gamma(gamma: float) -> float:
    """gamma as a float if it lies in (0, 1); unnamed, as reports.holder_gamma names it."""
    return in_range(gamma, None, "(0, 1)", GammaOutOfRange)


def norm_exponent(p, name, finite=False) -> float:
    """p read as a norm exponent: a number >= 1, or "inf" unless finite."""
    return in_range(p, name, "[1, inf)" if finite else "[1, inf]")


def holder_seminorm(vtraj: VDiagnostics, gamma: float, seed: int = 0):
    """Empirical parabolic Holder seminorms of v at exponent gamma.

    Returns (space, parabolic): the spatial part maximises
    |v(x,t)-v(y,t)| / dist(x,y)^gamma over node pairs, the parabolic part
    |v(x,t)-v(x,s)| / |t-s|^(gamma/2) over time pairs at fixed nodes.  Above
    RANDOM_PAIR_COUNT node pairs, seed (an integer >= 0) draws the sample.
    """
    check_holder_gamma(gamma)
    as_int(seed, "seed")
    if len(vtraj.times) < 2:
        raise TooFewSlices("need at least 2 time slices")
    grid = vtraj.grid
    nn = grid.node_count

    stride = max(1, len(vtraj.times) // MAX_HOLDER_SLICES)
    picks = list(range(0, len(vtraj.times), stride))
    if picks[-1] != len(vtraj.times) - 1:
        picks.append(len(vtraj.times) - 1)

    if nn * (nn - 1) // 2 <= RANDOM_PAIR_COUNT:
        ia, ib = np.triu_indices(nn, k=1)
    else:
        rng = np.random.default_rng(seed)
        ia = rng.integers(0, nn, RANDOM_PAIR_COUNT)
        ib = rng.integers(0, nn, RANDOM_PAIR_COUNT)
        keep = ia != ib
        ia, ib = ia[keep], ib[keep]
    dist = np.sqrt(grid.wrapped_r2((i - j) * grid.spacing for i, j in zip(
        np.unravel_index(ia, grid.shape), np.unravel_index(ib, grid.shape)))) ** gamma

    space = 0.0
    for k in picks:
        flat = vtraj.v[k].ravel()
        space = max(space, float(np.max(np.abs(flat[ia] - flat[ib]) / dist)))

    parabolic = 0.0
    for i, ki in enumerate(picks):
        for kj in picks[i + 1:]:
            dtpow = abs(vtraj.times[kj] - vtraj.times[ki]) ** (gamma / 2.0)
            if dtpow == 0.0:
                continue
            diff = float(np.max(np.abs(vtraj.v[kj] - vtraj.v[ki])))
            parabolic = max(parabolic, diff / dtpow)

    return space, parabolic


# ----------------------------------------------------------------------
# Functional inequalities
# ----------------------------------------------------------------------

def check_sv(alphas, ells):
    """Raise unless both lists are nonempty and every gap is defined: ell > 1, (-Dl)^alpha valid."""
    for name, values in (("alpha", alphas), ("ell", ells)):
        if not len(values):
            raise InvalidParameter("must be a nonempty list", name)
    for ell in ells:
        in_range(ell, "ell", "(1, inf)", EllOutOfRange)
    for al in alphas:
        FracPower(al)


def _signed_power(x: np.ndarray, p: float) -> np.ndarray:
    """|x|^p x, kept as x (a signed zero) at zero nodes, where p < 0 gives 0^p * 0 = NaN."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(x == 0.0, x, np.abs(x) ** p * x)


def stroock_varopoulos_gaps(v: Field, alphas, ells) -> np.ndarray:
    """int |v|^(l-2) v (-Dl)^a v dx - 4(l-1)/l^2 * int |(-Dl)^(a/2) |v|^(l/2)|^2 dx
    at every (ell, alpha), shape (len(ells), len(alphas)).

    One transform of v and one of the stacked signed powers serve every gap,
    each followed by one batched inverse transform.  Every pair is checked
    before any transform.
    """
    alphas, ells = [float(a) for a in alphas], [float(ell) for ell in ells]
    check_sv(alphas, ells)
    grid, x = v.grid, v.values
    ksq, space, vol = grid.wavenumbers_squared(), tuple(range(-grid.dims, 0)), grid.cell_volume
    lap = irfft(rfft(x, grid) * np.stack([ksq**al for al in alphas]), grid)
    lhs = np.stack([np.sum(_signed_power(x, ell - 2.0) * lap, axis=space) for ell in ells])
    # signed power |v|^(l/2 - 1) v: equals |v|^(l/2) on the nonnegative cone
    # and makes the l = 2 case collapse to Parseval equality for signed v too
    powers = rfft(np.stack([_signed_power(x, ell / 2.0 - 1.0) for ell in ells]), grid)
    half = irfft(powers[:, None] * np.stack([ksq ** (al / 2.0) for al in alphas]), grid)
    rhs = np.sum(np.square(half, out=half), axis=space)
    coef = np.array([4.0 * (ell - 1.0) / ell**2 for ell in ells])[:, None]
    return vol * lhs - coef * (vol * rhs)


def stroock_varopoulos_gap(v: Field, alpha: float, ell: float) -> float:
    """The SV gap of v at one (ell, alpha); see stroock_varopoulos_gaps."""
    return float(stroock_varopoulos_gaps(v, [alpha], [ell])[0, 0])


def gn_theta(dims: int, alpha: float, q: float) -> float:
    """Interpolation exponent theta = (2 a q - N(q-2)) / (2 a q)."""
    return (2.0 * alpha * q - dims * (q - 2.0)) / (2.0 * alpha * q)


def critical_exponent(dims: int, alpha: float) -> float:
    """Fractional Sobolev exponent 2N/(N-2a), infinite when a >= N/2."""
    if alpha >= dims / 2.0:
        return math.inf
    return 2.0 * dims / (dims - 2.0 * alpha)


def check_gn(dims: int, alpha: float, q: float):
    """Raise unless the GN ratio is defined: alpha in (0, 2], so that (-Dl)^(alpha/2)
    is valid, and 2 < q < critical."""
    in_range(alpha, "alpha", "(0, 2]", BetaOutOfRange)
    in_range(q, "q", f"(2, {critical_exponent(dims, alpha)!r})", QOutOfRange)


def gn_ratio(v: Field, alpha: float, q: float) -> float:
    """||v||_q / (||v||_2^theta ||(-Dl)^(a/2) v||_2^(1-theta))."""
    check_gn(v.grid.dims, alpha, q)
    theta = gn_theta(v.grid.dims, alpha, q)
    half = lp_norm(frac_power(v, FracPower(alpha / 2.0)), 2)
    den = lp_norm(v, 2) ** theta * half ** (1.0 - theta)
    if den == 0.0:  # v constant (zero included), or too small to square
        raise ZeroField("Gagliardo-Nirenberg ratio undefined: (-Dl)^(a/2) v or v is 0")
    return lp_norm(v, q) / den


# ----------------------------------------------------------------------
# Maximal regularity
# ----------------------------------------------------------------------

MAXREG_BLOCK_BYTES = 128 * 1024  # forcing bytes per time block: the block's spectra stay in cache
MAXREG_EXP_RANGE = 256  # a forcing whose sup lies outside 2**+-this is scaled by a power of two


def _forced_history(fhat, dt, E, phi1, phi2, u0=0.0) -> np.ndarray:
    """Histories u[k] of u' + lam u = f, u(0) = u0, along fhat's first axis by the exponential
    trapezoidal rule u[k+1] = E u[k] + dt((phi1 - phi2) f[k] + phi2 f[k+1])."""
    u = np.empty_like(fhat)
    u[0] = u0
    # the forcing terms go straight into u[1:], each step then adds E u[k]
    g = u[1:]
    np.multiply(phi1 - phi2, fhat[:-1], out=g)
    g += phi2 * fhat[1:]
    g *= dt
    # E in u's dtype and a step's full shape once, so no step pays numpy's
    # buffered float -> complex cast or a broadcast; the steps are bound by
    # ufunc call overhead, hence local names and positional out arguments
    E = np.broadcast_to(E, u.shape[1:]).astype(u.dtype, order="C")
    Eu = np.empty_like(u[0])
    multiply, add = np.multiply, np.add
    for uk, uk1 in zip(u, g):
        multiply(E, uk, Eu)
        add(uk1, Eu, uk1)
    return u


def _time_step(times) -> float:
    """The step of a uniform increasing time grid of at least two points;
    raises NonUniformTimeGrid otherwise."""
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or len(times) < 2:
        raise NonUniformTimeGrid("need one axis of at least two time points")
    dts = np.diff(times)
    dt = in_range(float(dts[0]), "times", "(0, inf)", NonUniformTimeGrid)
    if not np.allclose(dts, dt, rtol=1e-9, atol=0.0):
        raise NonUniformTimeGrid("time grid must be uniform")
    return dt


def maximal_reg_ratio(f_traj, times, alpha: float, mu: float, grid) -> float | np.ndarray:
    """||(-Dl)^a u||_{L2(Q)} / ||f||_{L2(Q)} for u solving the forced
    fractional heat equation with zero initial datum.

    f_traj has shape (nt, *batch, *grid.shape); the result is a float without
    batch axes and an array of shape batch otherwise, each entry the ratio of
    its own forcing.  Each Fourier mode is a scalar linear ODE advanced with
    the exponential trapezoidal rule (exact for forcings linear in t between
    grid points), in time blocks of about MAXREG_BLOCK_BYTES of forcing, so no
    array spans the whole spectral history.  A forcing whose sup lies outside
    2**+-MAXREG_EXP_RANGE is first scaled by a power of two, which leaves its
    ratio unchanged.  Returns 0 by convention for identically zero forcing.
    """
    in_range(alpha, "alpha", "(0, 1]")
    in_range(mu, "mu", "(0, inf)")
    dt = _time_step(times)

    f = np.asarray(f_traj, dtype=float)
    nt, dims = len(times), grid.dims
    if f.ndim < 1 + dims or f.shape[0] != nt or f.shape[f.ndim - dims:] != grid.shape:
        raise InvalidParameter("f_traj must have shape (nt, *batch, *grid.shape)")
    batch = f.shape[1:f.ndim - dims]
    f = f.reshape((nt, -1) + grid.shape)
    space = tuple(range(2, f.ndim))
    # per-entry extremes: a forcing is finite iff both are, and zero iff its sup is
    rows = f.reshape(nt, -1)
    hi = rows.max(axis=0).reshape(f.shape[1], -1).max(axis=1)
    lo = rows.min(axis=0).reshape(f.shape[1], -1).min(axis=1)
    if not (np.isfinite(hi).all() and np.isfinite(lo).all()):
        raise NonFiniteInput("f_traj contains NaN/Inf values")
    sup = np.maximum(hi, -lo)
    # a power-of-two scale, exact and so ratio-preserving, brings the sup of a
    # forcing whose squares would under- or overflow to [1/2, 1)
    exp = np.frexp(sup)[1]
    scaled = np.flatnonzero((sup > 0) & (np.abs(exp) > MAXREG_EXP_RANGE))
    scale = np.ldexp(1.0, -exp[scaled]).reshape((-1,) + (1,) * dims)

    lam = grid.wavenumbers_squared() ** alpha
    weights = phi_weights(mu * dt * lam)
    # ||(-Dl)^a u(t_k)||_2^2 and ||f(t_k)||_2^2 by Parseval-free physical
    # evaluation; a block's first row is the previous block's last
    gsq, fsq = np.zeros(f.shape[:2]), np.empty(f.shape[:2])
    steps = max(1, MAXREG_BLOCK_BYTES // f[0].nbytes)
    u = 0.0
    for k0 in range(0, nt - 1, steps):
        fk = f[k0:k0 + steps + 1]
        if scaled.size:
            fk = fk.copy()
            fk[:, scaled] *= scale
        uhat = _forced_history(rfft(fk, grid), dt, *weights, u)
        u = uhat[-1].copy()
        uhat[1:] *= lam
        g = irfft(uhat[1:], grid)
        gsq[k0 + 1:k0 + steps + 1] = grid.cell_volume * np.sum(np.square(g, out=g), axis=space)
        fsq[k0:k0 + steps + 1] = grid.cell_volume * np.sum(np.square(fk), axis=space)

    w = np.full(nt, dt)
    w[0] = w[-1] = 0.5 * dt  # trapezoidal time quadrature
    # one contiguous row per entry, so np.dot sums as it does for one forcing
    ratios = np.zeros(f.shape[1])
    for j, (gj, fj) in enumerate(zip(gsq.T.copy(), fsq.T.copy())):
        if sup[j] > 0:
            ratios[j] = math.sqrt(float(np.dot(w, gj))) / math.sqrt(float(np.dot(w, fj)))
    return ratios.reshape(batch) if batch else float(ratios[0])


def solve_forced_mode(times, lam: float, mu: float, fhat) -> np.ndarray:
    """Scalar-mode discrete solve used by maximal_reg_ratio, exposed for the
    closed-form oracle comparison."""
    dt = _time_step(times)
    fhat = np.asarray(fhat, dtype=float)
    if fhat.shape != (len(times),):
        raise InvalidParameter(f"must hold one value per time point, got shape {fhat.shape}", "fhat")
    return _forced_history(fhat[:, None], dt, *phi_weights(np.array([mu * dt * lam])))[:, 0]


# ----------------------------------------------------------------------
# Norm reports
# ----------------------------------------------------------------------

WEAK_NORM_LEVELS = 64


@dataclass
class NormReport:
    spacetime: dict  # (species, p) -> L^p(Q) norm
    windowed_sup: list  # per unit window: max_i sup_x u_i
    weak_norms: list | None  # per species


def _time_weights(times) -> np.ndarray:
    """Trapezoid weights of the time grid; a single time spans none and weighs 0."""
    t = np.asarray(times, dtype=float)
    w = np.zeros(len(t))
    w[:-1] += 0.5 * np.diff(t)
    w[1:] += 0.5 * np.diff(t)
    return w


def norm_report(traj: Trajectory, p_list, weak_p=None) -> NormReport:
    """Space-time norms, windowed sup-norms and weak norms; p_list and weak_p
    are read by norm_exponent, weak_p finite."""
    p_list = [norm_exponent(p, "p_list") for p in p_list]
    if weak_p is not None:
        weak_p = norm_exponent(weak_p, "weak_p", finite=True)
    if not traj.states:
        raise EmptyTrajectory("trajectory has no states")
    grid = traj.grid
    vol = grid.cell_volume
    m = traj.states[0].shape[0]
    w = _time_weights(traj.times)

    # per species, one pass over the states takes |u_i| once; its sup serves
    # L^inf and the weak levels, its sorted copy counts every level's measure
    spacetime = {(i, p): 0 for p in p_list for i in range(m)}  # keys p-major
    weak_norms = []
    for i in range(m):
        acc, sup, ranked = {p: 0 for p in p_list if not math.isinf(p)}, 0.0, []
        for wk, s in zip(w, traj.states):
            a = np.abs(s[i])
            for p in acc:  # sums over states run in order from 0
                acc[p] += wk * vol * float(np.sum(a ** p))
            sup = max(sup, float(np.max(a)))
            if weak_p is not None:
                ranked.append(np.sort(a, axis=None))
        for p in p_list:
            spacetime[(i, p)] = sup if math.isinf(p) else acc[p] ** (1.0 / p)
        if weak_p is None or sup == 0.0:  # np.geomspace raises at 0
            weak_norms.append(0.0)
            continue
        levels = np.geomspace(1e-6 * sup, sup, WEAK_NORM_LEVELS)
        # r.size - searchsorted(r, level) counts |u_i| >= level exactly
        meas = sum(wk * vol * (r.size - np.searchsorted(r, levels)) for wk, r in zip(w, ranked))
        weak_norms.append(max(0.0, *(lam * mk ** (1.0 / weak_p) for lam, mk in zip(levels, meas))))

    # windowed sup over unit windows, from the step record
    nwin = max(1, int(math.floor(traj.step_times[-1] + 1e-9)))
    wins = np.zeros(nwin)
    np.maximum.at(wins, np.minimum(traj.step_times.astype(int), nwin - 1),
                  traj.step_diagnostics.sup_value.max(axis=1))

    return NormReport(spacetime, wins.tolist(), None if weak_p is None else weak_norms)


# ----------------------------------------------------------------------
# Duality-bootstrap exponent ladder
# ----------------------------------------------------------------------

LADDER_MAX_STEPS = 100


@dataclass
class ExponentLadder:
    dims: int
    alpha: float
    rho: float
    p0: float
    eps_star: float
    rho_max: float
    threshold: float
    sequence: list
    termination_index: int | None  # None means no termination in 100 steps
    diverged: bool


def rho_admissible_max(dims: int, alpha: float, eps_star: float = 0.0) -> float:
    """Admissibility cap min{1 + 2a(2+eps)/(N+2a), 2}."""
    return min(1.0 + 2.0 * alpha * (2.0 + eps_star) / (dims + 2.0 * alpha), 2.0)


def q_hat(dims: int, alpha: float, p: float) -> float:
    """Largest regularisation target exponent for L^p forcing.

    p=1 and p=(N+2a)/2a return open suprema ((N+2a)/N and +inf); above the
    critical value every finite exponent (and inf) is reachable.
    """
    as_int(dims, "dims", lo=1)
    in_range(alpha, "alpha", "(0, 1]")
    p = in_range(p, "p", "[1, inf]")
    crit = (dims + 2.0 * alpha) / (2.0 * alpha)
    if p == 1:
        return (dims + 2.0 * alpha) / dims
    if p < crit:
        return (dims + 2.0 * alpha) * p / (dims + 2.0 * alpha - 2.0 * p * alpha)
    return math.inf


def duality_ladder(dims: int, alpha: float, rho: float, p0: float, eps_star: float = 0.0) -> ExponentLadder:
    """Iterate p_{n+1} = (N+2a) p_n / (rho (N+2a) - 2a p_n) until the
    sequence clears the threshold (N+2a)/(2a rho), for at most LADDER_MAX_STEPS steps."""
    alpha = in_range(alpha, "alpha", "(0, 1)")
    eps_star = in_range(eps_star, "eps_star", "[0, inf)")
    rmax = rho_admissible_max(dims, alpha, eps_star)
    rho = in_range(rho, "rho", f"[1, {rmax + 1e-12!r}]", RhoInadmissible)  # cap, 1e-12 for rounding
    p0 = in_range(p0, "p0", "[2, inf)", P0TooSmall)  # improved duality needs p0 >= 2

    total = dims + 2.0 * alpha
    threshold = total / (2.0 * alpha * rho)
    seq = [p0]
    # below the threshold 2a p < (N+2a)/rho <= rho (N+2a), as rho >= 1: the denominator is positive
    while seq[-1] < threshold and len(seq) <= LADDER_MAX_STEPS:
        seq.append(total * seq[-1] / (rho * total - 2.0 * alpha * seq[-1]))
    term = len(seq) - 1 if seq[-1] >= threshold else None

    return ExponentLadder(
        dims=dims,
        alpha=alpha,
        rho=rho,
        p0=p0,
        eps_star=eps_star,
        rho_max=rmax,
        threshold=threshold,
        sequence=seq,
        termination_index=term,
        diverged=term is None,
    )
