"""Reaction-system definitions and sampling-based assumption checks.

A ReactionModel bundles the species count, diffusivities, the (vectorised)
reaction map with its optional stoichiometry, and declared metadata for the
structural assumptions:
quasi-positivity, mass dissipation/conservation, quadratic growth, the
triangular intermediate sum condition, and the polynomial upper bound.
Checks are falsification-only: a passing report means no violation was
found among the sampled states.  Each check draws all its samples at once
and evaluates the rate map once per hypothesis on the stacked (m, count)
states (m times for quasi-positivity, one species zeroed in each).
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
    in_range,
)

STATE_TOL = 1e-10  # relative negativity tolerance for rate evaluation
CHECK_TOL = 1e-9  # relative slack of every assumption check


class Assumption(Enum):
    P = "P"
    M = "M"
    CONSERVATION = "conservation"
    QUADRATIC = "quadratic"
    ISC = "ISC"
    POL = "Pol"


def _real_rows(rows, m: int, width, name: str) -> np.ndarray:
    """rows as an (m, width) array of finite reals; width None takes any one
    row length R >= 1."""
    if np.iterable(rows) and len(rows) == m and all(map(np.iterable, rows)):
        lengths = {len(row) for row in rows}
        if lengths == {width} or width is None and len(lengths) == 1 and 0 not in lengths:
            return np.array([[as_real(x, name, finite=True) for x in row] for row in rows])
    raise InvalidParameter(f"must be {m} rows of {width or 'R >= 1'} numbers, got {rows!r}", name)


@dataclass(frozen=True)
class ReactionModel:
    """m-species reaction system u_t + d_i (-Delta)^a u_i = f_i(u).

    f(u, t) takes the stacked (m, ...) state.  Without a stoichiometry it
    returns the m species rates; with an (m, R) stoichiometry S it returns the
    R reaction fluxes r, and the species rates are S @ r."""

    name: str
    m: int
    d: tuple
    f: object  # callable(u, t) -> (R, ...) array, R = m without a stoichiometry
    isc_matrix: np.ndarray | None = None
    rho: float | None = None
    nu: float | None = None
    growth_c: float | None = None
    stoichiometry: np.ndarray | None = None

    def __post_init__(self):
        as_int(self.m, "m", lo=1)
        if not callable(self.f):
            raise InvalidParameter(f"must be callable, got {self.f!r}", "f")
        if not np.iterable(self.d) or len(self.d) != self.m:
            raise InvalidParameter(f"must have {self.m} entries, got {self.d!r}", "diffusivities")
        d = tuple(in_range(di, "diffusivities", "(0, inf)") for di in self.d)
        object.__setattr__(self, "d", d)
        for key in ("rho", "nu", "growth_c"):
            if getattr(self, key) is not None:
                object.__setattr__(self, key, as_real(getattr(self, key), key, finite=True))
        if self.isc_matrix is not None:
            a = _real_rows(self.isc_matrix, self.m, self.m, "isc_matrix")
            if not np.allclose(np.triu(a, 1), 0.0):
                raise InvalidParameter("must be lower triangular", "isc_matrix")
            if not np.allclose(np.diag(a), 1.0):
                raise InvalidParameter("must have unit diagonal", "isc_matrix")
            if np.any(a < 0):
                raise InvalidParameter("must have nonnegative entries", "isc_matrix")
            object.__setattr__(self, "isc_matrix", a)
        if self.stoichiometry is not None:
            s = _real_rows(self.stoichiometry, self.m, None, "stoichiometry")
            s.flags.writeable = False
            object.__setattr__(self, "stoichiometry", s)

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


def reaction_terms(model: ReactionModel, u: np.ndarray, t: float) -> np.ndarray:
    """f(u, t) on the stacked (m, ...) state u: the R fluxes, or the m rates
    when the model has no stoichiometry; raises InvalidParameter("f") unless
    it holds one row per reaction over u's grid shape."""
    terms = np.asarray(model.f(u, t), dtype=float)
    s = model.stoichiometry
    shape = (model.m if s is None else s.shape[1],) + u.shape[1:]
    if terms.shape != shape:
        raise InvalidParameter(f"must return shape {shape} on a state of shape {u.shape}, "
                               f"got {terms.shape}", "f")
    return terms


def column_sum(s: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """sum_r s[:, r] * terms[r] for an (m, R, ...) s and (R, ...) terms, the
    columns added in order."""
    out = s[:, 0] * terms[0]
    for r in range(1, len(terms)):
        out += s[:, r] * terms[r]
    return out


def eval_reactions(model: ReactionModel, state, t: float = 0.0):
    """The species rates on a stacked (m, ...) state: stoichiometry @ reaction_terms
    over the leading axis, or the terms themselves without a stoichiometry."""
    u = np.asarray(state, dtype=float)
    scale = max(float(np.max(np.abs(u))), 1.0)
    if np.min(u) < -STATE_TOL * scale:
        raise NegativeStateBeyondTolerance(
            f"state component {np.min(u):.3g} below -{STATE_TOL * scale:.3g}"
        )
    rates = reaction_terms(model, u, t)
    s = model.stoichiometry
    if s is not None:
        rates = column_sum(s.reshape(s.shape + (1,) * (u.ndim - 1)), rates)
    if not np.all(np.isfinite(rates)):
        raise NonFiniteRate("reaction map produced NaN/Inf")
    return rates


def check_assumption(model, which: Assumption, count: int = 200) -> AssumptionReport:
    """Hunt for violations of one structural assumption at count nonnegative
    states (magnitudes 0 to 1e3, about a fifth of entries zero), all drawn at
    once; the witnesses are (state list, value) pairs in sample order."""
    if not isinstance(which, Assumption):
        raise InvalidParameter(f"unknown assumption {which}")
    count = as_int(count, "count", lo=1)
    if which in (Assumption.QUADRATIC, Assumption.POL) and model.growth_c is None:
        raise MissingMeta(f"{which.value} check requires a declared constant C")
    if which == Assumption.ISC:
        if model.isc_matrix is None or model.rho is None:
            raise MissingMeta("ISC check requires isc_matrix and rho metadata")
    if which == Assumption.POL and model.nu is None:
        raise MissingMeta("Pol check requires the exponent nu")

    m = model.m
    # drawn as (count, 2m + 1) so each sample's draws stay consecutive in the stream
    draws = np.random.default_rng(0).random((count, 2 * m + 1)).T
    u = 10.0 ** (-3.0 + 6.0 * draws[0]) * draws[1 : m + 1]
    u[draws[m + 1 :] < 0.2] = 0.0
    scale = np.maximum(np.max(u, axis=0), 1.0)
    sq = np.sum(u * u, axis=0)

    if which == Assumption.P:
        states = np.repeat(u[None], m, axis=0)
        states[np.arange(m), np.arange(m)] = 0.0  # states[i] has species i zeroed
        value = np.stack([eval_reactions(model, ui0)[i] for i, ui0 in enumerate(states)])
        bad = value < -CHECK_TOL * scale
    else:
        f = eval_reactions(model, u)
        if which == Assumption.M:
            value = np.sum(f, axis=0, keepdims=True)
            bad = value > CHECK_TOL * scale**2
        elif which == Assumption.CONSERVATION:
            value = np.sum(f, axis=0, keepdims=True)
            bad = np.abs(value) > CHECK_TOL * scale**2
        elif which == Assumption.QUADRATIC:
            value = np.max(np.abs(f), axis=0, keepdims=True)
            bad = value > model.growth_c * (1.0 + sq) * (1.0 + CHECK_TOL)
        elif which == Assumption.ISC:
            c = model.growth_c if model.growth_c is not None else 1.0
            # row i combines f_1..f_i; tril drops the upper entries validation tolerates
            value = (np.tril(model.isc_matrix) @ f)[:-1]
            bad = value > c * np.sqrt(sq) ** model.rho + CHECK_TOL * np.maximum(scale**model.rho, 1.0)
        else:  # Assumption.POL
            value = np.max(f, axis=0, keepdims=True)
            bound = model.growth_c * np.sqrt(sq) ** model.nu
            bad = value > bound + CHECK_TOL * np.maximum(scale**model.nu, 1.0)
        states = np.broadcast_to(u, (len(value), m, count))

    k, r = np.nonzero(bad.T)  # sample-major, the order the witnesses are listed in
    return AssumptionReport(which, count, [(s.tolist(), float(v)) for s, v in
                                           zip(states[r, :, k], value[r, k])])


def conservative_lift(model: ReactionModel, count: int = 200) -> ReactionModel:
    """Append a slack species taking up the mass the others lose, turning (M)
    into conservation: the base's f on the first m species, and its stoichiometry
    (the identity for a rate-form base) with -(column sums) as one more row."""
    rep = check_assumption(model, Assumption.M, count=count)
    if not rep.passed:
        raise DissipationViolated(
            f"model fails (M) at {len(rep.violations)} sampled states"
        )
    m, f = model.m, model.f
    s = np.eye(m) if model.stoichiometry is None else model.stoichiometry
    return ReactionModel(
        name=model.name + "+conserved",
        m=m + 1,
        d=tuple(model.d) + (1.0,),
        f=lambda u, t: f(u[:m], t),
        growth_c=model.growth_c,
        stoichiometry=np.vstack([s, -s.sum(axis=0)]),
    )


# ----------------------------------------------------------------------
# Built-in models
# ----------------------------------------------------------------------

def _bimolecular_flux(u, t):
    return (u[0] * u[2] - u[1] * u[3])[None]


def _dissipative_pair_flux(u, t):
    return (u[0] * u[1])[None]


def _superquadratic_rates(u, t):
    r = u[0] * u[1] ** 3
    return np.stack([-r, r - u[1] ** 4])


def bimolecular() -> ReactionModel:
    """S1 + S3 <-> S2 + S4 with rates f_i = (-1)^i (u1 u3 - u2 u4): one flux,
    so the signed copies cancel exactly in the sum."""
    return ReactionModel(
        name="bimolecular",
        m=4,
        d=(1.0, 1.0, 1.0, 1.0),
        f=_bimolecular_flux,
        growth_c=1.0,
        stoichiometry=((-1.0,), (1.0,), (-1.0,), (1.0,)),
    )


def dissipative_pair() -> ReactionModel:
    """Two species consumed jointly: f = (-u1 u2, -u1 u2); dissipative."""
    return ReactionModel(
        name="dissipative-pair",
        m=2,
        d=(1.0, 1.0),
        f=_dissipative_pair_flux,
        growth_c=1.0,
        stoichiometry=((-1.0,), (-1.0,)),
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
    seq = (list, tuple)

    def is_pair(t):  # (coef, powers), powers m nonnegative ints
        return (isinstance(t, seq) and len(t) == 2 and isinstance(t[1], seq) and len(t[1]) == m
                and all(type(e) is int and e >= 0 for e in t[1]))

    if not isinstance(terms, seq) or len(terms) != m or not all(
            isinstance(ti, seq) and all(map(is_pair, ti)) for ti in terms):
        raise InvalidParameter(f"must hold {m} lists of (coef, powers) pairs, each power "
                               f"vector {m} nonnegative integers", "terms")
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
