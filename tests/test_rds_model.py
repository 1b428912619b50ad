import numpy as np
import pytest

from fracrd.errors import (
    DissipationViolated,
    InvalidParameter,
    MissingMeta,
    ModelUnknown,
    NegativeStateBeyondTolerance,
    NonFiniteRate,
)
from fracrd.rds_model import (
    Assumption,
    ReactionModel,
    bimolecular,
    check_assumption,
    conservative_lift,
    dissipative_pair,
    eval_reactions,
    get_model,
    polynomial_model,
    reaction_terms,
    superquadratic_isc,
)


def test_bimolecular_balanced_state():
    f = eval_reactions(bimolecular(), np.array([1.0, 1.0, 1.0, 1.0]))
    assert np.all(f == 0.0)


def test_bimolecular_arithmetic():
    f = eval_reactions(bimolecular(), np.array([2.0, 0.0, 1.0, 0.0]))
    assert f.tolist() == [-2.0, 2.0, -2.0, 2.0]


def test_bimolecular_exact_cancellation():
    rng = np.random.default_rng(0)
    for _ in range(100):
        u = 10.0 ** rng.uniform(-3, 3) * rng.random(4)
        f = eval_reactions(bimolecular(), u)
        assert np.sum(f) == 0.0  # shared subexpression cancels bitwise


def test_eval_guards():
    with pytest.raises(NegativeStateBeyondTolerance):
        eval_reactions(bimolecular(), np.array([-1.0, 0.0, 0.0, 0.0]))
    bad = ReactionModel("bad", 1, (1.0,), lambda u, t: np.stack([u[0] / 0.0]))
    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteRate):
            eval_reactions(bad, np.array([1.0]))


def test_check_conservation_bimolecular():
    rep = check_assumption(bimolecular(), Assumption.CONSERVATION, count=500)
    assert rep.passed and rep.samples_tested == 500


def test_check_mass_dissipation_violation():
    leaky = ReactionModel("leaky", 2, (1.0, 1.0), lambda u, t: np.stack([u[0], 0 * u[1]]))
    rep = check_assumption(leaky, Assumption.M, count=100)
    assert not rep.passed
    assert rep.violations  # witnesses recorded


def test_quasipositivity_bimolecular():
    rep = check_assumption(bimolecular(), Assumption.P, count=200)
    assert rep.passed


def test_superquadratic_assumptions():
    model = superquadratic_isc()
    for which in (Assumption.P, Assumption.M, Assumption.ISC, Assumption.POL):
        assert check_assumption(model, which, count=200).passed


def test_quadratic_growth():
    assert check_assumption(bimolecular(), Assumption.QUADRATIC, count=200).passed
    # quartic rates break the quadratic bound at large states
    rep = check_assumption(superquadratic_isc(), Assumption.QUADRATIC, count=200)
    assert not rep.passed


def test_missing_meta():
    bare = ReactionModel("bare", 2, (1.0, 1.0), lambda u, t: np.stack([-u[0], -u[1]]))
    with pytest.raises(MissingMeta):
        check_assumption(bare, Assumption.ISC)
    with pytest.raises(MissingMeta):
        check_assumption(bare, Assumption.QUADRATIC)
    no_nu = ReactionModel("no-nu", 2, (1.0, 1.0),
                          lambda u, t: np.stack([-u[0], -u[1]]), growth_c=1.0)
    with pytest.raises(MissingMeta):
        check_assumption(no_nu, Assumption.POL)


def test_isc_matrix_validation():
    with pytest.raises(ValueError):
        ReactionModel("x", 2, (1, 1), lambda u, t: u,
                      isc_matrix=np.array([[1.0, 1.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        ReactionModel("x", 2, (1, 1), lambda u, t: u,
                      isc_matrix=np.array([[2.0, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        ReactionModel("x", 2, (1, 1), lambda u, t: u,
                      isc_matrix=np.array([[1.0, 0.0], [-1.0, 1.0]]))


def test_stoichiometry_sets_the_rows_f_returns():
    model = bimolecular()
    assert model.stoichiometry.tolist() == [[-1.0], [1.0], [-1.0], [1.0]]
    assert dissipative_pair().stoichiometry.tolist() == [[-1.0], [-1.0]]
    assert superquadratic_isc().stoichiometry is None
    with pytest.raises(ValueError, match="read-only"):
        model.stoichiometry[0, 0] = 2.0
    # two fluxes, the species rates combine them column by column
    two = ReactionModel("two", 2, (1, 1), lambda u, t: np.stack([u[0], u[1]]),
                        stoichiometry=[[-1, 2], [0.5, -1]])
    assert eval_reactions(two, np.array([2.0, 3.0])).tolist() == [4.0, -2.0]


@pytest.mark.parametrize("rows", [
    [[-1.0], [1.0], [-1.0]],  # a row short
    [[-1.0], [1.0], [-1.0], [1.0, 0.0]],  # ragged
    [[], [], [], []],  # no reaction
    [[-1.0], [1.0], [-1.0], [float("nan")]],
    [[-1.0], [1.0], [-1.0], [float("inf")]],
    [[-1.0], [1.0], [-1.0], [True]],
    [-1.0, 1.0, -1.0, 1.0],  # not rows
    "abcd",
], ids=repr)
def test_stoichiometry_must_be_m_rows_of_finite_reals(rows):
    with pytest.raises(InvalidParameter) as info:
        ReactionModel("x", 4, (1,) * 4, lambda u, t: u[:1], stoichiometry=rows)
    assert info.value.name == "stoichiometry"


def test_conservative_lift_bimolecular():
    lifted = conservative_lift(bimolecular())
    assert lifted.m == 5 and lifted.d[-1] == 1.0
    f = eval_reactions(lifted, np.array([2.0, 0.0, 1.0, 0.0, 0.0]))
    assert f[-1] == 0.0  # already conservative: appended rate vanishes
    assert check_assumption(lifted, Assumption.CONSERVATION, count=100).passed


def test_conservative_lift_dissipative():
    lifted = conservative_lift(dissipative_pair())
    f = eval_reactions(lifted, np.array([1.0, 1.0, 0.0]))
    assert f[-1] == 2.0  # g3 = 2 u1 u2 >= 0
    assert check_assumption(lifted, Assumption.CONSERVATION, count=100).passed


def test_conservative_lift_rejects_growth():
    leaky = ReactionModel("leaky", 1, (1.0,), lambda u, t: np.stack([u[0]]))
    with pytest.raises(DissipationViolated):
        conservative_lift(leaky)


@pytest.mark.parametrize("m, f, name", [
    (2.0, lambda u, t: u, "m"),
    (True, lambda u, t: u, "m"),
    (0, lambda u, t: u, "m"),
    (-1, lambda u, t: u, "m"),
    (2, 3, "f"),
], ids=["m=2.0", "m=True", "m=0", "m=-1", "f=3"])
def test_model_rejects_bad_species_count_and_rate_map(m, f, name):
    with pytest.raises(InvalidParameter) as info:
        ReactionModel("x", m, (1.0, 1.0), f)
    assert info.value.name == name


def _dissipative_polynomial():
    # f = (-u1 u2, u3 - 2 u1 u2, -u3): mass falls by 3 u1 u2
    return polynomial_model("poly", 3, (1.0, 1.0, 1.0),
                            [[(-1.0, [1, 1, 0])], [(1.0, [0, 0, 1]), (-2.0, [1, 1, 0])],
                             [(-1.0, [0, 0, 1])]])


LIFT_BASES = {"bimolecular": bimolecular, "dissipative-pair": dissipative_pair,
              "superquadratic-isc": superquadratic_isc, "polynomial": _dissipative_polynomial}


@pytest.mark.parametrize("base", list(LIFT_BASES.values()), ids=list(LIFT_BASES))
def test_lift_appends_minus_the_rate_sum(base):
    model = base()
    lifted = conservative_lift(model)
    u = 10.0 ** np.random.default_rng(1).uniform(-3.0, 3.0, (model.m + 1, 50))
    r = eval_reactions(model, u[:-1])
    assert np.all(eval_reactions(lifted, u) == np.vstack([r, -r.sum(axis=0)]))
    s = lifted.stoichiometry
    reactions = model.m if model.stoichiometry is None else model.stoichiometry.shape[1]
    assert s.shape == (model.m + 1, reactions)
    assert np.all(s.sum(axis=0) == 0.0)


def test_lifted_bimolecular_keeps_its_one_flux():
    u = np.random.default_rng(2).random((5, 16))
    assert reaction_terms(conservative_lift(bimolecular()), u, 0.0).shape == (1, 16)


def test_registry():
    assert get_model("bimolecular").m == 4
    assert get_model("dissipative-pair").m == 2
    assert get_model("superquadratic-isc").rho == 1.0
    with pytest.raises(ModelUnknown):
        get_model("nonexistent")


def test_polynomial_model():
    # f1 = -u1 u2, f2 = -u1 u2 expressed as coefficient lists
    model = polynomial_model(
        "pair", 2, (1.0, 1.0),
        [[(-1.0, (1, 1))], [(-1.0, (1, 1))]],
    )
    f = eval_reactions(model, np.array([2.0, 3.0]))
    assert f.tolist() == [-6.0, -6.0]
    assert check_assumption(model, Assumption.M, count=100).passed
    with pytest.raises(InvalidParameter, match="count"):
        check_assumption(model, Assumption.M, count=0)
    for terms in ([[(-1.0, (1, 1, 1))], [(-1.0, (1, 1))]],  # a power too many
                  [[(-1.0, (1, 1))]],  # a species without a term list
                  [[(-1.0, (1, -1))], [(-1.0, (1, 1))]],  # a negative power
                  [[(-1.0, (1, 0.5))], [(-1.0, (1, 1))]]):  # a fractional power
        with pytest.raises(InvalidParameter) as exc:
            polynomial_model("pair", 2, (1.0, 1.0), terms)
        assert exc.value.name == "terms"
