"""Mild solutions by Picard fixed-point iteration on the Duhamel window.

Each window of length dt advances the stacked species state with an
exponential Adams-Moulton rule: the diffusion semigroup is applied exactly as
a Fourier multiplier, and the Duhamel integral of the reaction term is
approximated by exponential (phi1, phi2, W2) weights on the fluxes.  A dt's
first window takes the exponential trapezoidal rule, exact for fluxes linear
in time; from its second window on, the rule also weighs the backward
difference of the start fluxes that the predictor below keeps, and is exact
for fluxes quadratic in time (order 3; Hochbruck & Ostermann 2010).  The
forward transform of the reaction term covers the rows f returns, the R
fluxes of a model with a stoichiometry (one for the bimolecular model, not
four species rates); the stoichiometry is folded into the weights that
multiply their spectra.  The fixed point of the resulting map is found by
Picard iteration in the relative sup norm, to a change of PICARD_TOL = 1e-8;
the bench scenarios' final states then lie 1.8e-11 (run-1d) to 3.9e-8
(run-1d-stiff) from dt/16 solves at PICARD_TOL 1e-12.

A window starts from the state, spectrum, flux spectra and sup that the
window before built in its last Picard iteration; the fluxes are evaluated
at t = 0 and otherwise only inside the iteration.  The iteration starts from
a predicted window-end flux: the start fluxes of the accepted windows at the
current dt extrapolated by a backward-difference (Adams) polynomial of order
q <= MAX_ORDER, q being the order whose prediction of the last start flux
missed by least, as Adams codes choose theirs (Shampine & Gordon 1975).  A
new dt restarts the predictor at order 1, exponential Euler.  A window whose
residual stops falling (from the third iteration on), turns non-finite or
has not converged after PICARD_MAX iterations is rejected and retried from
the same start with a halved step.  After REGROW_AFTER straight windows of
at most REGROW_ITERS iterations dt doubles again, up to the configured dt.
MAX_HALVINGS bounds the depth: dt never falls below cfg.dt / 2**MAX_HALVINGS.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParameter, NegativeInitialData, PicardDivergence, as_int, in_range
from .rds_model import ReactionModel, column_sum, reaction_terms
from .spectral_core import Field, Grid, irfft, make_grid, rfft


PICARD_TOL = 1e-8  # relative sup-norm change that ends a window's iteration
PICARD_MAX = 50  # iterations before a window is rejected
MAX_HALVINGS = 45  # halvings below cfg.dt; a rejection at this depth ends solve_mild
REGROW_AFTER = 8  # straight accepted windows of at most REGROW_ITERS iterations
REGROW_ITERS = 4  # ... after which dt doubles (up to cfg.dt)
MAX_ORDER = 4  # highest order of the window-end flux predictor


@dataclass(frozen=True)
class SolverConfig:
    dt: float
    horizon: float
    alpha: float = 0.5
    dealias: bool = True
    blowup_factor: float = 1e6  # threshold = factor * initial sup-norm
    store_every: int = 1

    def __post_init__(self):
        horizon = in_range(self.horizon, "horizon", "(0, inf)")
        in_range(self.dt, "dt", f"(0, {horizon!r}]")
        in_range(self.alpha, "alpha", "(0, 1]")
        in_range(self.blowup_factor, "blowup_factor", "[1, inf)")
        if not isinstance(self.dealias, bool):
            raise InvalidParameter(f"must be a boolean, got {self.dealias!r}", "dealias")
        as_int(self.store_every, "store_every", lo=1)


@dataclass
class Trajectory:
    grid: Grid
    times: list = field(default_factory=list)
    states: list = field(default_factory=list)  # stacked (m, ...) arrays
    blowup_time: float | None = None

    # step_record rows from t = 0, one per accepted window, kept when states are thinned
    step_times: np.ndarray | None = None
    step_diagnostics: np.recarray | None = None


def species_stats(grid: Grid, u: np.ndarray, extremes=None):
    """(min_value, sup_value, total_mass) of a stacked (m, ...) state: per species
    its minimum, the sup of |u_i| and its mass, from its maximum and minimum
    (extremes, when the caller has them) and one sum over the grid."""
    flat = u.reshape(len(u), -1)
    hi, lo = extremes or (flat.max(axis=1), flat.min(axis=1))
    return lo, np.maximum(hi, -lo), grid.cell_volume * flat.sum(axis=1)


def step_record(iterations, residuals, stats) -> np.recarray:
    """The step record, one row per window: its Picard iterations and residual,
    and the (m,) fields min_value, sup_value and total_mass of its species_stats."""
    mins, sups, masses = map(np.array, zip(*stats))
    return np.rec.fromarrays([iterations, residuals, mins, sups, masses],
                             formats=[int, float] + [(float, mins.shape[1:])] * 3,
                             names="picard_iterations,residual,min_value,sup_value,total_mass")


def phi_weights(z: np.ndarray):
    """Exponential trapezoidal weights of one window, elementwise in z >= 0:
    (E, phi1, phi2) = (e^-z, (1 - e^-z)/z, (z - 1 + e^-z)/z^2), with their
    Taylor polynomials below z = 1e-5, where the closed forms cancel."""
    E = np.exp(-z)
    small = z < 1e-5
    with np.errstate(divide="ignore", invalid="ignore"):
        phi1 = -np.expm1(-z) / z
        phi2 = (z + np.expm1(-z)) / z**2
    phi1[small] = 1.0 - z[small] / 2.0 + z[small] ** 2 / 6.0
    phi2[small] = 0.5 - z[small] / 6.0 + z[small] ** 2 / 24.0
    return E, phi1, phi2


def w2_weight(z: np.ndarray) -> np.ndarray:
    """W2(z) = phi3 - phi2/2 = -1/2 int_0^1 s (1 - s) e^(-z s) ds, elementwise in
    z >= 0, the order-3 window's weight of the flux's second backward difference:
    -(z + (1 + z/2)(e^-z - 1))/z^3, which cancels as z falls (2e-7 off at 1e-4),
    so below z = 0.5 its Taylor series -1/2 sum_k (k + 1)(-z)^k/(k + 3)! to 14 terms."""
    with np.errstate(divide="ignore", invalid="ignore"):
        w = -(z + (1.0 + z / 2.0) * np.expm1(-z)) / z**3
    small = z < 0.5
    zs, acc = z[small], 0.0
    for k in range(13, -1, -1):
        acc = (k + 1) / math.factorial(k + 3) - zs * acc
    w[small] = -0.5 * acc
    return w


class _Stepper:
    """Precomputed multipliers for one (grid, model, alpha) combination, per dt."""

    def __init__(self, grid: Grid, model: ReactionModel, alpha: float, dealias: bool):
        self.grid = grid
        self.model = model
        self.lam = grid.wavenumbers_squared() ** alpha  # |xi|^(2 alpha)
        # complex multipliers, so no product with a spectrum casts them again; all ones without dealias
        self.mask = (grid.dealias_mask() | (not dealias)).astype(complex)
        self._cache = {}

    def weights(self, dt: float):
        """(E, order2, order3): the semigroup, the flux weights (dt (phi1 - phi2) S,
        dt phi2 S) of (g_n, g_n+1), and those of (g_n, g_n - g_n-1, g_n+1) that add
        dt W2 (g_n+1 - 2 g_n + g_n-1).  Each flux weight is (m, R, ...) with the
        stoichiometry S folded in, or (m, ...) for a rate-form model."""
        if dt in self._cache:
            return self._cache[dt]
        d = np.reshape(self.model.d, (-1,) + (1,) * self.grid.dims)
        z = d * dt * self.lam
        E, phi1, phi2 = phi_weights(z)  # each (m, ...)
        w12, w2, hw2 = dt * (phi1 - phi2), dt * phi2, dt * w2_weight(z)
        flux = [w12, w2, w12 - hw2, -hw2, w2 + hw2]
        s = self.model.stoichiometry
        if s is not None:
            s = s.reshape(s.shape + (1,) * self.grid.dims)
            flux = [x[:, None] * s for x in flux]
        E, *flux = (x.astype(complex) for x in [E] + flux)
        w = self._cache[dt] = E, tuple(flux[:2]), tuple(flux[2:])
        return w

    def _flux_hat(self, u: np.ndarray, t: float) -> np.ndarray:
        """The masked spectra of f(u, t): R flux rows, or m rates for a rate-form model."""
        ghat = rfft(reaction_terms(self.model, u, t), self.grid)
        ghat *= self.mask
        return ghat

    def _species(self, weight: np.ndarray, ghat: np.ndarray) -> np.ndarray:
        """The species spectra of flux spectra ghat under a flux weight of weights()."""
        return weight * ghat if self.model.stoichiometry is None else column_sum(weight, ghat)

    def step(self, start, t: float, dt: float, ghat_end, dghat_n=None):
        """One Duhamel window from start = (u, uhat, ghat_n, sup |u|), iterated from
        ghat_end, the predicted flux spectra at its end; its rule is order 3 given
        dghat_n = ghat_n - ghat_n-1 at this dt, else order 2.  Returns (iterations,
        residual, next start, extremes): the next start is the last Picard
        iteration's w, the spectrum it passed to irfft, its flux spectra (taken
        within PICARD_TOL of w) and sup |w|; extremes is w's per-species
        (max, min)."""
        uhat, ghat_n, scale = start[1], start[2], max(start[3], 1e-300)
        E, order2, order3 = self.weights(dt)
        base = E * uhat
        if dghat_n is None:
            w_n, w_end = order2
        else:
            w_n, w_d, w_end = order3
            base += self._species(w_d, dghat_n)
        base += self._species(w_n, ghat_n)
        what = self._species(w_end, ghat_end)
        what += base
        w = irfft(what, self.grid)
        prev_res = np.inf
        for it in range(1, PICARD_MAX + 1):
            ghat_w = self._flux_hat(w, t + dt)
            what = self._species(w_end, ghat_w)
            what += base
            w_new = irfft(what, self.grid)
            flat = w_new.reshape(len(w_new), -1)
            hi, lo = flat.max(axis=1), flat.min(axis=1)
            sup = max(float(hi.max()), -float(lo.min()))  # NaN or inf iff some entry is
            if not np.isfinite(sup):
                raise PicardDivergence(f"non-finite iterate at t={t:.6g}, dt={dt:.3g}",
                                       it, float("nan"), "non-finite")
            w -= w_new  # the dead iterate's buffer takes the change
            res = max(float(w.max()), -float(w.min())) / max(scale, sup)
            w = w_new
            if res < PICARD_TOL:
                return it, res, (w, what, ghat_w, sup), (hi, lo)
            if it >= 3 and res >= prev_res:
                raise PicardDivergence(
                    f"residual stopped falling at iteration {it} ({prev_res:.3g} -> {res:.3g}) "
                    f"at t={t:.6g}, dt={dt:.3g}", it, res, "stalled")
            prev_res = res
        raise PicardDivergence(
            f"no contraction to {PICARD_TOL:.1e} within {PICARD_MAX} iterations at "
            f"t={t:.6g} (last residual {prev_res:.3g}); dt likely too large",
            PICARD_MAX, prev_res, "max-iterations")


def _predict_flux(diffs, errors):
    """The window-end flux sum_{j<q} diffs[j] from the backward differences diffs
    of the start fluxes, at the order q whose last prediction error is the
    smallest of errors (those of orders 1, 2, ...); order 1 without errors."""
    q = errors.index(min(errors)) + 1 if errors else 1
    return sum(diffs[1:q], diffs[0])  # diffs[0] itself at order 1


def _backward_differences(ghat, diffs):
    """(diffs, errors) once a window has started from flux spectra ghat: its
    backward differences up to order MAX_ORDER - 1 from diffs, those of the
    window before, and the squared 2-norms of the differences of orders 1 to
    len(diffs), the errors that predictions of those orders made for ghat."""
    new = [ghat]
    for d in diffs:
        new.append(new[-1] - d)
    return new[:MAX_ORDER], [np.vdot(x, x).real for x in new[1:]]


def solve_mild(model: ReactionModel, u0, cfg: SolverConfig) -> Trajectory:
    """Advance the system on [0, horizon]; when the blow-up threshold is
    exceeded, the Trajectory ends at that window, its state stored last."""
    if not all(isinstance(f, Field) for f in u0) or len({f.grid for f in u0}) != 1:
        raise InvalidParameter("u0 must be a nonempty sequence of Fields on one grid")
    grid = u0[0].grid
    u = np.stack([f.values for f in u0])
    if u.shape[0] != model.m:
        raise InvalidParameter(f"expected {model.m} species, got {u.shape[0]}")
    if np.min(u) < 0:
        raise NegativeInitialData(f"negative initial value {np.min(u):.3g}")

    traj = Trajectory(grid=grid, times=[0.0], states=[u])  # a fresh stack no window writes to
    rows = [(0.0, 0, 0.0, species_stats(grid, u))]  # (t, iterations, residual, stats) per window
    sups = rows[0][3][1]
    threshold = cfg.blowup_factor * max(sum(sups.tolist()), 1e-300)  # sum_i sup |u_i|
    stepper = _Stepper(grid, model, cfg.alpha, cfg.dealias)

    start = (u, rfft(u, grid), stepper._flux_hat(u, 0.0), float(sups.max()))
    t = 0.0
    depth = 0  # halvings of cfg.dt in force
    calm = 0  # straight accepted windows of at most REGROW_ITERS iterations
    dt_prev = None  # the dt of the accepted windows behind diffs
    eps = 1e-12 * cfg.horizon
    while t < cfg.horizon - eps:
        dt_step = cfg.dt / 2.0**depth
        rest = cfg.horizon - t
        if rest < dt_step - eps:  # a short last window
            dt_step = rest
        if dt_step != dt_prev:  # the predictor restarts at order 1, the corrector at order 2
            diffs, errors = [start[2]], []
        try:
            iters, res, next_start, extremes = stepper.step(
                start, t, dt_step, _predict_flux(diffs, errors), diffs[1] if diffs[1:] else None)
        except PicardDivergence:
            if depth >= MAX_HALVINGS:
                raise
            depth += 1
            calm = 0
            continue
        dt_prev, start = dt_step, next_start
        diffs, errors = _backward_differences(start[2], diffs)
        calm = calm + 1 if iters <= REGROW_ITERS else 0
        if calm >= REGROW_AFTER and depth > 0:
            depth -= 1
            calm = 0
        t = cfg.horizon if rest - dt_step <= eps else t + dt_step  # the last window lands on it
        u = start[0]  # a fresh irfft output that no later window writes to
        rows.append((t, iters, res, species_stats(grid, u, extremes)))
        blown_up = sum(rows[-1][3][1].tolist()) > threshold
        if (len(rows) - 1) % cfg.store_every == 0 or t >= cfg.horizon - eps or blown_up:
            traj.times.append(t)
            traj.states.append(u)
        if blown_up:
            traj.blowup_time = t
            break
    step_times, iterations, residuals, stats = zip(*rows)
    traj.step_times = np.array(step_times)
    traj.step_diagnostics = step_record(iterations, residuals, stats)
    return traj


def detect_blowup(traj: Trajectory, threshold: float):
    """First recorded time where sum_i ||u_i||_inf exceeds threshold, or None."""
    # sum over the species columns adds them left to right, as the solver does
    over = np.flatnonzero(sum(traj.step_diagnostics.sup_value.T) > threshold)
    return float(traj.step_times[over[0]]) if over.size else None


# ----------------------------------------------------------------------
# Checkpoint I/O: CSV state dump with a grid header.
# ----------------------------------------------------------------------

def save_checkpoint(path, grid: Grid, time: float, state: np.ndarray):
    state = np.asarray(state, dtype=float)
    m = state.shape[0]
    head = [["dims", grid.dims], ["points_per_axis", grid.points_per_axis],
            ["extent", grid.extent], ["time", float(time)], ["species", m],
            [f"u{i}" for i in range(m)]]
    rows = state.reshape(m, -1).T.tolist()  # one row per grid point
    with open(path, "w", newline="") as fh:
        fh.writelines(",".join(map(str, row)) + "\r\n" for row in head)
        fh.writelines(",".join(map(repr, row)) + "\r\n" for row in rows)


def load_checkpoint(path):
    with open(path, newline="") as fh:
        dims, n, extent, time, m = (line.split(",")[1] for _, line in zip(range(5), fh))
    data = np.loadtxt(path, delimiter=",", skiprows=6, ndmin=2)  # below the column header
    grid = make_grid(int(dims), float(extent), int(n))
    state = data.T.reshape((int(m),) + grid.shape)
    return grid, float(time), state
