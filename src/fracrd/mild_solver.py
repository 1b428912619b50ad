"""Mild solutions by Picard fixed-point iteration on the Duhamel window.

Each window of length dt advances the stacked species state with an
exponential (phi1/phi2) trapezoidal rule: the diffusion semigroup is applied
exactly as a Fourier multiplier, and the Duhamel integral of the reaction
term is approximated by its exponential trapezoidal weights, which is exact
for forcings linear in time.  The fixed point of the resulting map is found
by Picard iteration in the relative sup norm.

The iteration starts from the ETD2 extrapolation (Cox & Matthews 2002), the
same window with the end-of-window rate extrapolated linearly from this and
the previous window's start-of-window rates, when the previous window had
the same dt; otherwise from exponential Euler.  A window whose residual
stops falling (from the third iteration on), turns non-finite or has not
converged after PICARD_MAX iterations is rejected and retried with a halved
step.  After REGROW_AFTER straight windows of at most REGROW_ITERS
iterations dt doubles again, up to the configured dt.  MAX_HALVINGS bounds
the depth: dt never falls below cfg.dt / 2**MAX_HALVINGS.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParameter, NegativeInitialData, NonFiniteInput, PicardDivergence
from .rds_model import ReactionModel
from .spectral_core import Field, Grid, irfft, make_grid, rfft


PICARD_TOL = 1e-10  # relative sup-norm change that ends a window's iteration
PICARD_MAX = 50  # iterations before a window is rejected
MAX_HALVINGS = 45  # halvings below cfg.dt; a rejection at this depth ends solve_mild
REGROW_AFTER = 8  # straight accepted windows of at most REGROW_ITERS iterations
REGROW_ITERS = 4  # ... after which dt doubles (up to cfg.dt)


@dataclass(frozen=True)
class SolverConfig:
    dt: float
    horizon: float
    alpha: float = 0.5
    dealias: bool = True
    blowup_factor: float = 1e6  # threshold = factor * initial sup-norm
    store_every: int = 1

    def __post_init__(self):
        if not 0.0 < self.horizon < np.inf:
            raise InvalidParameter(f"must be positive and finite, got {self.horizon!r}", "horizon")
        if not 0.0 < self.dt <= self.horizon:
            raise InvalidParameter(f"must lie in (0, horizon], got {self.dt!r}", "dt")
        if not 0.0 < self.alpha <= 1.0:
            raise InvalidParameter(f"must lie in (0, 1], got {self.alpha!r}", "alpha")
        if not isinstance(self.dealias, bool):
            raise InvalidParameter(f"must be a boolean, got {self.dealias!r}", "dealias")
        if type(self.store_every) is not int or self.store_every < 1:
            raise InvalidParameter(f"must be an integer >= 1, got {self.store_every!r}", "store_every")


@dataclass
class StepDiagnostics:
    picard_iterations: int
    residual: float
    min_value: list  # per species
    sup_value: list  # per species
    total_mass: list  # per species


@dataclass
class Trajectory:
    grid: Grid
    times: list = field(default_factory=list)
    states: list = field(default_factory=list)  # stacked (m, ...) arrays
    blowup_time: float | None = None

    # step-resolved records (kept even when states are thinned)
    step_times: list = field(default_factory=list)
    step_diagnostics: list = field(default_factory=list)


def _diag(grid: Grid, u: np.ndarray, iterations: int = 0, residual: float = 0.0):
    vol = grid.cell_volume
    return StepDiagnostics(
        picard_iterations=iterations,
        residual=residual,
        min_value=[float(ui.min()) for ui in u],
        sup_value=[float(np.abs(ui).max()) for ui in u],
        total_mass=[float(vol * ui.sum()) for ui in u],
    )


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


class _Stepper:
    """Precomputed multipliers for one (grid, model, alpha, dt) combination."""

    def __init__(self, grid: Grid, model: ReactionModel, alpha: float, dealias: bool):
        self.grid = grid
        self.model = model
        self.lam = grid.wavenumbers_squared() ** alpha  # |xi|^(2 alpha)
        self.mask = grid.dealias_mask() if dealias else None
        self._cache = {}

    def weights(self, dt: float):
        try:
            return self._cache[dt]
        except KeyError:
            pass
        d = np.reshape(self.model.d, (-1,) + (1,) * self.grid.dims)
        w = phi_weights(d * dt * self.lam)  # (E, phi1, phi2), each (m, ...)
        if len(self._cache) < 64:
            self._cache[dt] = w
        return w

    def _rates_hat(self, u: np.ndarray, t: float) -> np.ndarray:
        f = np.asarray(self.model.f(u, t), dtype=float)
        fhat = rfft(f, self.grid)
        if self.mask is not None:
            fhat *= self.mask
        return fhat

    def step(self, u: np.ndarray, t: float, dt: float, fhat_prev=None):
        """One Duhamel window; returns (u_next, iterations, residual, fhat_n),
        fhat_n the start-of-window rate transform.  fhat_prev, the previous
        window's, selects the ETD2 predictor; it must come from a window of
        the same dt."""
        E, phi1, phi2 = self.weights(dt)
        uhat = rfft(u, self.grid)
        fhat_n = self._rates_hat(u, t)
        base = E * uhat + dt * (phi1 - phi2) * fhat_n

        if fhat_prev is None:  # exponential Euler
            w = irfft(E * uhat + dt * phi1 * fhat_n, self.grid)
        else:  # ETD2: the end-of-window rate extrapolated from the last two starts
            w = irfft(base + dt * phi2 * (2.0 * fhat_n - fhat_prev), self.grid)
        scale = max(float(np.max(np.abs(u))), 1e-300)
        prev_res = np.inf
        for it in range(1, PICARD_MAX + 1):
            fhat_w = self._rates_hat(w, t + dt)
            w_new = irfft(base + dt * phi2 * fhat_w, self.grid)
            if not np.all(np.isfinite(w_new)):
                raise PicardDivergence(f"non-finite iterate at t={t:.6g}, dt={dt:.3g}")
            res = float(np.max(np.abs(w_new - w))) / max(scale, float(np.max(np.abs(w_new))))
            w = w_new
            if res < PICARD_TOL:
                return w, it, res, fhat_n
            if it >= 3 and res >= prev_res:
                raise PicardDivergence(
                    f"residual stopped falling at iteration {it} ({prev_res:.3g} -> {res:.3g}) "
                    f"at t={t:.6g}, dt={dt:.3g}"
                )
            prev_res = res
        raise PicardDivergence(
            f"no contraction to {PICARD_TOL:.1e} within {PICARD_MAX} iterations at "
            f"t={t:.6g} (last residual {prev_res:.3g}); dt likely too large"
        )


def solve_mild(model: ReactionModel, u0, cfg: SolverConfig) -> Trajectory:
    """Advance the system on [0, horizon]; returns a (possibly truncated)
    Trajectory when the blow-up threshold is exceeded."""
    if not all(isinstance(f, Field) for f in u0) or len({f.grid for f in u0}) != 1:
        raise InvalidParameter("u0 must be a nonempty sequence of Fields on one grid")
    grid = u0[0].grid
    u = np.stack([f.values for f in u0])
    if u.shape[0] != model.m:
        raise InvalidParameter(f"expected {model.m} species, got {u.shape[0]}")
    if not np.all(np.isfinite(u)):
        raise NonFiniteInput("initial data contains NaN/Inf")
    if np.min(u) < 0:
        raise NegativeInitialData(f"negative initial value {np.min(u):.3g}")

    threshold = cfg.blowup_factor * max(
        sum(float(np.max(np.abs(ui))) for ui in u), 1e-300
    )
    stepper = _Stepper(grid, model, cfg.alpha, cfg.dealias)

    traj = Trajectory(grid=grid)
    traj.times.append(0.0)
    traj.states.append(u.copy())
    traj.step_times.append(0.0)
    traj.step_diagnostics.append(_diag(grid, u))

    t = 0.0
    depth = 0  # halvings of cfg.dt in force
    calm = 0  # straight accepted windows of at most REGROW_ITERS iterations
    dt_prev = fhat_prev = None  # the last accepted window's dt and start rate
    steps_since_store = 0
    eps = 1e-12 * cfg.horizon
    while t < cfg.horizon - eps:
        dt_step = min(cfg.dt / 2.0**depth, cfg.horizon - t)
        try:
            u_next, iters, res, fhat_n = stepper.step(
                u, t, dt_step, fhat_prev if dt_step == dt_prev else None)
        except PicardDivergence:
            if depth >= MAX_HALVINGS:
                raise
            depth += 1
            calm = 0
            continue
        dt_prev, fhat_prev = dt_step, fhat_n
        calm = calm + 1 if iters <= REGROW_ITERS else 0
        if calm >= REGROW_AFTER and depth > 0:
            depth -= 1
            calm = 0
        t += dt_step
        u = u_next
        d = _diag(grid, u, iters, res)
        traj.step_times.append(t)
        traj.step_diagnostics.append(d)
        steps_since_store += 1
        if steps_since_store >= cfg.store_every or t >= cfg.horizon - eps:
            traj.times.append(t)
            traj.states.append(u.copy())
            steps_since_store = 0
        if sum(d.sup_value) > threshold:
            traj.blowup_time = t
            break
    return traj


def detect_blowup(traj: Trajectory, threshold: float):
    """First recorded time where sum_i ||u_i||_inf exceeds threshold, or None."""
    for t, d in zip(traj.step_times, traj.step_diagnostics):
        if sum(d.sup_value) > threshold:
            return t
    return None


# ----------------------------------------------------------------------
# Checkpoint I/O: CSV state dump with a grid header, resumable.
# ----------------------------------------------------------------------

def save_checkpoint(path, grid: Grid, time: float, state: np.ndarray):
    state = np.asarray(state, dtype=float)
    m = state.shape[0]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["dims", grid.dims])
        w.writerow(["points_per_axis", grid.points_per_axis])
        w.writerow(["extent", repr(grid.extent)])
        w.writerow(["time", repr(float(time))])
        w.writerow(["species", m])
        w.writerow([f"u{i}" for i in range(m)])
        # one row per grid point, the bytes csv.writer writes for these reprs
        rows = state.reshape(m, -1).T.tolist()
        fh.writelines(",".join(map(repr, row)) + "\r\n" for row in rows)


def load_checkpoint(path):
    with open(path, newline="") as fh:
        r = csv.reader(fh)
        dims = int(next(r)[1])
        n = int(next(r)[1])
        extent = float(next(r)[1])
        time = float(next(r)[1])
        m = int(next(r)[1])
        next(r)  # column header
        data = np.array([list(map(float, line.split(","))) for line in fh])
    grid = make_grid(dims, extent, n)
    state = data.T.reshape((m,) + grid.shape)
    return grid, time, state
