"""The batched hypothesis checks against a per-sample reference loop."""

from dataclasses import replace

import numpy as np
import pytest

from fracrd.errors import FracRDError, InvalidParameter
from fracrd.rds_model import (
    Assumption,
    ReactionModel,
    bimolecular,
    check_assumption,
    conservative_lift,
    dissipative_pair,
    eval_reactions,
    polynomial_model,
    superquadratic_isc,
)


def _reference_samples(m, rng):
    """One state at a time, consuming the stream as the batched draw does."""
    while True:
        mag = 10.0 ** rng.uniform(-3, 3)
        u = mag * rng.uniform(0.0, 1.0, size=m)
        u[rng.random(m) < 0.2] = 0.0
        yield u


def _reference_check(model, which, count=200, tol=1e-9):
    """Per-sample check of one assumption: its witness list, or the error name."""
    if which in (Assumption.QUADRATIC, Assumption.POL) and model.growth_c is None:
        return "MissingMeta"
    if which == Assumption.ISC and (model.isc_matrix is None or model.rho is None):
        return "MissingMeta"
    if which == Assumption.POL and model.nu is None:
        return "MissingMeta"
    gen = _reference_samples(model.m, np.random.default_rng(0))
    violations = []
    for _ in range(count):
        u = np.asarray(next(gen), dtype=float)
        scale = max(float(np.max(u)), 1.0)
        if which == Assumption.P:
            for i in range(model.m):
                ui0 = u.copy()
                ui0[i] = 0.0
                fi = float(eval_reactions(model, ui0)[i])
                if fi < -tol * scale:
                    violations.append((ui0.tolist(), fi))
            continue
        f = eval_reactions(model, u)
        if which == Assumption.M:
            s = float(np.sum(f))
            if s > tol * scale**2:
                violations.append((u.tolist(), s))
        elif which == Assumption.CONSERVATION:
            s = float(np.sum(f))
            if abs(s) > tol * scale**2:
                violations.append((u.tolist(), s))
        elif which == Assumption.QUADRATIC:
            bound = model.growth_c * (1.0 + float(np.dot(u, u)))
            worst = float(np.max(np.abs(f)))
            if worst > bound * (1.0 + tol):
                violations.append((u.tolist(), worst))
        elif which == Assumption.ISC:
            c = model.growth_c if model.growth_c is not None else 1.0
            bound = c * float(np.linalg.norm(u)) ** model.rho
            for i in range(model.m - 1):
                comb = float(np.dot(model.isc_matrix[i, : i + 1], f[: i + 1]))
                if comb > bound + tol * max(scale**model.rho, 1.0):
                    violations.append((u.tolist(), comb))
        else:
            bound = model.growth_c * float(np.linalg.norm(u)) ** model.nu
            worst = float(np.max(f))
            if worst > bound + tol * max(scale**model.nu, 1.0):
                violations.append((u.tolist(), worst))
    return violations


def _leaky():
    return ReactionModel("leaky", 2, (1.0, 1.0), lambda u, t: np.stack([u[0], 0 * u[1]]))


def _not_quasipositive():
    # f1 = -u2 is negative where u1 = 0 and u2 > 0
    return polynomial_model("not-P", 2, (1.0, 1.0), [[(-1.0, [0, 1])], [(0.0, [0, 0])]],
                            growth_c=1.0, nu=1.0)


def _not_isc():
    # f = (u1^2, -u1^2): f1 outgrows the rho = 1 bound
    return polynomial_model("not-ISC", 2, (1.0, 1.0), [[(1.0, [2, 0])], [(-1.0, [2, 0])]],
                            isc_matrix=[[1.0, 0.0], [0.0, 1.0]], rho=1.0, growth_c=1.0, nu=2.0)


MODELS = {
    "bimolecular": bimolecular,
    "dissipative-pair": dissipative_pair,
    "superquadratic-isc": superquadratic_isc,
    "leaky": _leaky,
    "dissipative-pair+conserved": lambda: conservative_lift(dissipative_pair()),
    "not-P": _not_quasipositive,
    "not-ISC": _not_isc,
}


@pytest.mark.parametrize("which", list(Assumption), ids=lambda a: a.value)
@pytest.mark.parametrize("name", list(MODELS))
def test_batched_check_matches_per_sample_reference(name, which):
    model = MODELS[name]()
    expected = _reference_check(model, which)
    try:
        rep = check_assumption(model, which, count=200)
    except FracRDError as e:
        assert type(e).__name__ == expected
        return
    assert rep.assumption is which and rep.samples_tested == 200
    assert len(rep.violations) == len(expected)
    for (state, value), (ref_state, ref_value) in zip(rep.violations, expected):
        assert state == pytest.approx(ref_state, rel=1e-12, abs=0.0)
        assert value == pytest.approx(ref_value, rel=1e-12, abs=0.0)


def test_every_branch_can_fail():
    failing = {Assumption.P: _not_quasipositive(), Assumption.M: _leaky(),
               Assumption.CONSERVATION: dissipative_pair(),
               Assumption.QUADRATIC: superquadratic_isc(), Assumption.ISC: _not_isc(),
               Assumption.POL: replace(_not_isc(), nu=1.0)}
    for which, model in failing.items():
        assert not check_assumption(model, which, count=200).passed, which


@pytest.mark.parametrize("which", list(Assumption), ids=lambda a: a.value)
def test_one_rate_evaluation_per_hypothesis(which):
    calls = []
    model = superquadratic_isc()

    def counting(u, t):
        calls.append(np.shape(u))
        return model.f(u, t)

    check_assumption(replace(model, f=counting), which, count=50)
    assert calls == [(model.m, 50)] * (model.m if which == Assumption.P else 1)


def test_count_must_be_an_integer():
    for count in (0, True, 2.5, "3"):
        with pytest.raises(FracRDError, match="count"):
            check_assumption(bimolecular(), Assumption.M, count=count)


def test_unknown_assumption_is_read_before_count_and_metadata():
    # a string is not an Assumption, though "M" is one's value; count=0 would fail later
    bare = ReactionModel("bare", 1, (1.0,), lambda u, t: -u)
    for which in ("M", "ISC", None):
        with pytest.raises(InvalidParameter, match="unknown assumption"):
            check_assumption(bare, which, count=0)
