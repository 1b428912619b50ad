"""Reaction-system definitions and sampling-based assumption checks.

A ReactionModel bundles the species count, diffusivities, the (vectorised)
rate map, and declared metadata for the structural assumptions:
quasi-positivity, mass dissipation/conservation, quadratic growth, the
triangular intermediate sum condition, and the polynomial upper bound.
Checks are falsification-only: a passing report means no violation was
found among the sampled states.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from .errors import (
    DissipationViolated,
    InvalidParameter,
    MissingMeta,
    ModelUnknown,
    NegativeStateBeyondTolerance,
    NonFiniteRate,
    as_int,
    as_real,
)

STATE_TOL = 1e-10  # relative negativity tolerance for rate evaluation


class Assumption(Enum):
    P = "P"
    M = "M"
    CONSERVATION = "conservation"
    QUADRATIC = "quadratic"
    ISC = "ISC"
    POL = "Pol"


@dataclass(frozen=True)
class ReactionModel:
    """m-species reaction system u_t + d_i (-Delta)^a u_i = f_i(u)."""

    name: str
    m: int
    d: tuple
    f: object  # callable(u, t) -> rates; u has shape (m, ...) stacked
    isc_matrix: np.ndarray | None = None
    rho: float | None = None
    nu: float | None = None
    growth_c: float | None = None

    def __post_init__(self):
        if not np.iterable(self.d) or len(self.d) != self.m:
            raise InvalidParameter(f"must have {self.m} entries, got {self.d!r}", "diffusivities")
        d = tuple(as_real(di, "diffusivities", finite=True) for di in self.d)
        if not all(di > 0.0 for di in d):
            raise InvalidParameter(f"must be positive, got {self.d!r}", "diffusivities")
        object.__setattr__(self, "d", d)
        for key in ("rho", "nu", "growth_c"):
            if getattr(self, key) is not None:
                object.__setattr__(self, key, as_real(getattr(self, key), key, finite=True))
        if self.isc_matrix is not None:
            a = np.asarray(self.isc_matrix, dtype=float)
            if a.shape != (self.m, self.m):
                raise InvalidParameter("ISC matrix must be m x m")
            if not np.allclose(np.triu(a, 1), 0.0):
                raise InvalidParameter("ISC matrix must be lower triangular")
            if not np.allclose(np.diag(a), 1.0):
                raise InvalidParameter("ISC matrix must have unit diagonal")
            if np.any(a < 0):
                raise InvalidParameter("ISC matrix entries must be nonnegative")
            object.__setattr__(self, "isc_matrix", a)

    def with_diffusivities(self, d) -> "ReactionModel":
        return replace(self, d=d)


@dataclass
class AssumptionReport:
    assumption: Assumption
    samples_tested: int
    violations: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations


def eval_reactions(model: ReactionModel, state, t: float = 0.0):
    """Evaluate the rates nodewise on a stacked (m, ...) state array."""
    u = np.asarray(state, dtype=float)
    scale = max(float(np.max(np.abs(u))), 1.0)
    if np.min(u) < -STATE_TOL * scale:
        raise NegativeStateBeyondTolerance(
            f"state component {np.min(u):.3g} below -{STATE_TOL * scale:.3g}"
        )
    rates = np.asarray(model.f(u, t), dtype=float)
    if not np.all(np.isfinite(rates)):
        raise NonFiniteRate("reaction map produced NaN/Inf")
    return rates


def default_sampler(m: int, rng: np.random.Generator):
    """Nonnegative states with magnitudes spanning 0 to 1e3, some zeros."""
    while True:
        mag = 10.0 ** rng.uniform(-3, 3)
        u = mag * rng.uniform(0.0, 1.0, size=m)
        u[rng.random(m) < 0.2] = 0.0
        yield u


def check_assumption(model, which: Assumption, count: int = 200, tol: float = 1e-9) -> AssumptionReport:
    """Sample states and hunt for violations of one structural assumption."""
    if count < 1:
        raise InvalidParameter(f"must be >= 1, got {count}", "count")
    gen = default_sampler(model.m, np.random.default_rng(0))
    if which in (Assumption.QUADRATIC, Assumption.POL) and model.growth_c is None:
        raise MissingMeta(f"{which.value} check requires a declared constant C")
    if which == Assumption.ISC:
        if model.isc_matrix is None or model.rho is None:
            raise MissingMeta("ISC check requires isc_matrix and rho metadata")
    if which == Assumption.POL and model.nu is None:
        raise MissingMeta("Pol check requires the exponent nu")

    report = AssumptionReport(assumption=which, samples_tested=0)
    for _ in range(count):
        u = np.asarray(next(gen), dtype=float)
        report.samples_tested += 1
        scale = max(float(np.max(u)), 1.0)

        if which == Assumption.P:
            for i in range(model.m):
                ui0 = u.copy()
                ui0[i] = 0.0
                fi = float(eval_reactions(model, ui0)[i])
                if fi < -tol * scale:
                    report.violations.append((ui0.tolist(), fi))
        elif which == Assumption.M:
            s = float(np.sum(eval_reactions(model, u)))
            if s > tol * scale**2:
                report.violations.append((u.tolist(), s))
        elif which == Assumption.CONSERVATION:
            s = float(np.sum(eval_reactions(model, u)))
            if abs(s) > tol * scale**2:
                report.violations.append((u.tolist(), s))
        elif which == Assumption.QUADRATIC:
            f = eval_reactions(model, u)
            bound = model.growth_c * (1.0 + float(np.dot(u, u)))
            worst = float(np.max(np.abs(f)))
            if worst > bound * (1.0 + tol):
                report.violations.append((u.tolist(), worst))
        elif which == Assumption.ISC:
            f = eval_reactions(model, u)
            c = model.growth_c if model.growth_c is not None else 1.0
            mag = float(np.linalg.norm(u))
            bound = c * mag**model.rho
            for i in range(model.m - 1):
                comb = float(np.dot(model.isc_matrix[i, : i + 1], f[: i + 1]))
                if comb > bound + tol * max(scale**model.rho, 1.0):
                    report.violations.append((u.tolist(), comb))
        elif which == Assumption.POL:
            f = eval_reactions(model, u)
            mag = float(np.linalg.norm(u))
            bound = model.growth_c * mag**model.nu
            worst = float(np.max(f))
            if worst > bound + tol * max(scale**model.nu, 1.0):
                report.violations.append((u.tolist(), worst))
        else:
            raise InvalidParameter(f"unknown assumption {which}")
    return report


def conservative_lift(model: ReactionModel, count: int = 200) -> ReactionModel:
    """Append a slack species turning mass dissipation into conservation."""
    rep = check_assumption(model, Assumption.M, count=count)
    if not rep.passed:
        raise DissipationViolated(
            f"model fails (M) at {len(rep.violations)} sampled states"
        )
    base_f = model.f
    m = model.m

    def lifted(u, t):
        f = np.asarray(base_f(u[:m], t), dtype=float)
        g_extra = -np.sum(f, axis=0, keepdims=True)
        return np.concatenate([f, g_extra], axis=0)

    return ReactionModel(
        name=model.name + "+conserved",
        m=m + 1,
        d=tuple(model.d) + (1.0,),
        f=lifted,
        growth_c=model.growth_c,
    )


# ----------------------------------------------------------------------
# Built-in models
# ----------------------------------------------------------------------

def _bimolecular_rates(u, t):
    # shared subexpression: the signed copies cancel exactly in the sum
    r = u[0] * u[2] - u[1] * u[3]
    return np.stack([-r, r, -r, r])


def _dissipative_pair_rates(u, t):
    r = u[0] * u[1]
    return np.stack([-r, -r])


def _superquadratic_rates(u, t):
    r = u[0] * u[1] ** 3
    return np.stack([-r, r - u[1] ** 4])


def bimolecular() -> ReactionModel:
    """S1 + S3 <-> S2 + S4 with rates f_i = (-1)^i (u1 u3 - u2 u4)."""
    return ReactionModel(
        name="bimolecular",
        m=4,
        d=(1.0, 1.0, 1.0, 1.0),
        f=_bimolecular_rates,
        growth_c=1.0,
    )


def dissipative_pair() -> ReactionModel:
    """Two species consumed jointly: f = (-u1 u2, -u1 u2); dissipative."""
    return ReactionModel(
        name="dissipative-pair",
        m=2,
        d=(1.0, 1.0),
        f=_dissipative_pair_rates,
        growth_c=1.0,
    )


def superquadratic_isc() -> ReactionModel:
    """Quartic pair f = (-u1 u2^3, u1 u2^3 - u2^4) with (ISC) rho=1, (Pol) nu=4."""
    return ReactionModel(
        name="superquadratic-isc",
        m=2,
        d=(1.0, 1.0),
        f=_superquadratic_rates,
        isc_matrix=np.array([[1.0, 0.0], [0.0, 1.0]]),
        rho=1.0,
        nu=4.0,
        growth_c=1.0,
    )


def polynomial_model(name, species, diffusivities, terms, **meta) -> ReactionModel:
    """Model from coefficient lists of monomials.

    terms[i] is a list of (coef, powers) pairs; powers is an m-vector of
    integer exponents.  f_i(u) = sum coef * prod_j u_j^powers_j.
    """
    m = as_int(species, "species", lo=1)
    if len(terms) != m or any(len(pw) != m or any(type(e) is not int or e < 0 for e in pw)
                              for ti in terms for _, pw in ti):
        raise InvalidParameter(f"must hold {m} term lists, each power vector {m} "
                               "nonnegative integers", "terms")
    terms = [[(as_real(c, "terms", finite=True), tuple(pw)) for c, pw in ti] for ti in terms]

    def rates(u, t):
        out = []
        for ti in terms:
            acc = np.zeros(np.shape(u[0]))
            for coef, powers in ti:
                mono = np.full(np.shape(u[0]), coef)
                for j, e in enumerate(powers):
                    if e:
                        mono = mono * u[j] ** e
                acc = acc + mono
            out.append(acc)
        return np.stack(out)

    return ReactionModel(name=name, m=m, d=diffusivities, f=rates, **meta)


_REGISTRY = {
    "bimolecular": bimolecular,
    "dissipative-pair": dissipative_pair,
    "superquadratic-isc": superquadratic_isc,
}


def get_model(name: str) -> ReactionModel:
    try:
        return _REGISTRY[name]()
    except KeyError:
        raise ModelUnknown(
            f"unknown model {name!r}; registered: {sorted(_REGISTRY)}"
        ) from None
