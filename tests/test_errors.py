import ast
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import fracrd
from fracrd import cli_runner
from fracrd.errors import (
    BetaOutOfRange,
    EllOutOfRange,
    ExponentOrder,
    GammaOutOfRange,
    InvalidDims,
    InvalidParameter,
    NegativeTime,
    NonPositiveTime,
    P0TooSmall,
    QOutOfRange,
    RhoInadmissible,
    as_int,
    as_real,
    in_range,
)
from fracrd.estimate_lab import (
    VDiagnostics,
    accumulate_v,
    check_gn,
    check_holder_gamma,
    check_sv,
    duality_ladder,
    holder_seminorm,
    maximal_reg_ratio,
    norm_exponent,
    norm_report,
    q_hat,
    solve_forced_mode,
)
from fracrd.heat_kernel import (
    KernelSpec,
    delta_probe,
    heat_kernel_field,
    kernel_diagnostics,
    semigroup_apply,
    smoothing_rate_fit,
)
from fracrd.mild_solver import SolverConfig, Trajectory
from fracrd.rds_model import bimolecular
from fracrd.spectral_core import Field, FracPower, frac_power_quadrature, lp_norm, make_grid


@pytest.mark.parametrize("read", [as_int, as_real])
def test_readers_reject_bool(read):
    with pytest.raises(InvalidParameter) as exc:
        read(True, "seed")
    assert exc.value.name == "seed"


def test_as_real_reads_numbers_and_inf():
    for x, want in ((np.float64(0.25), 0.25), (3, 3.0), (-1.5, -1.5), ("inf", math.inf),
                    ("Infinity", math.inf), (math.inf, math.inf)):
        got = as_real(x)
        assert got == want and type(got) is float


@pytest.mark.parametrize("x", ["inf", math.inf, -math.inf, math.nan, "2", None, [1.0]])
def test_as_real_finite_rejects(x):
    with pytest.raises(InvalidParameter) as exc:
        as_real(x, "dt", finite=True)
    assert exc.value.name == "dt"
    assert str(exc.value) == f"dt must be a finite number, got {x!r}"


def test_as_real_rejects_non_numbers():
    for x in ("2", "x", None, [1.0], np.int64(2)):
        with pytest.raises(InvalidParameter, match="must be a number"):
            as_real(x)


def test_as_int():
    assert as_int(0) == 0 and as_int(3, "modes", lo=3) == 3
    for x in (2.0, "2", None, 2, -1):
        with pytest.raises(InvalidParameter) as exc:
            as_int(x, "modes", lo=3)
        assert exc.value.requirement == f"must be an integer >= 3, got {x!r}"


@pytest.mark.parametrize("interval,inside,outside", [
    ("(0, 1]", [1e-300, 0.5, 1, 1.0], [0, 0.0, -1.0, 1.0000001, math.inf]),
    ("[1, inf)", [1, 1.0, 1e300], [0.999, math.inf, "inf", -math.inf]),
    ("[1, inf]", [1.0, 2, math.inf, "inf", "Infinity"], [0.5, -math.inf]),
    ("(2, 3.5)", [2.5, 3.4999], [2.0, 3.5, math.inf]),
    ("[0, inf)", [0, 0.0, -0.0, 7.25], [-1e-300, math.inf]),
])
def test_in_range_ends(interval, inside, outside):
    for x in inside:
        got = in_range(x, "p", interval)
        assert got == as_real(x) and type(got) is float
    for x in outside + [math.nan]:
        with pytest.raises(InvalidParameter) as exc:
            in_range(x, "p", interval)
        assert exc.value.name == "p"
        assert str(exc.value) == f"p must lie in {interval}, got {x!r}"


def test_in_range_raises_the_given_class_and_reads_like_as_real():
    with pytest.raises(QOutOfRange) as exc:
        in_range(2.0, "q", "(2, inf)", QOutOfRange)
    assert exc.value.requirement == "must lie in (2, inf), got 2.0"
    for x in (True, "2", None, [1.0]):
        with pytest.raises(InvalidParameter, match="must be a number") as exc:
            in_range(x, "q", "(2, inf)", QOutOfRange)
        assert type(exc.value) is InvalidParameter and exc.value.name == "q"
    with pytest.raises(InvalidParameter) as exc:
        in_range(0.5, None, "(0, 0.25]")
    assert exc.value.name is None and str(exc.value) == "must lie in (0, 0.25], got 0.5"


G = make_grid(1, 40.0, 8)
SPEC = KernelSpec(0.5, 1.0, G)
ONES = Field(G, np.ones(G.shape))
TIMES = np.linspace(0.0, 1.0, 3)
FORCING = np.ones((3,) + G.shape)
TRAJ = Trajectory(G, [0.0], [np.ones((1,) + G.shape)])
G32 = make_grid(2, 40.0, 32)  # more node pairs than holder_seminorm takes without sampling
VD32 = VDiagnostics(G32, [0.0, 1.0], [np.zeros(G32.shape)] * 2, True, 1.0, 1.0)

# Every range rule of the public constructors and checks: (id, call of the
# value, the class it raises, the name it carries, the values it rejects).
# Each call rejects NaN and True; inf is listed where the interval is open at inf.
NAN, INF = math.nan, math.inf
RANGE_SITES = [
    ("SolverConfig.horizon", lambda x: SolverConfig(dt=0.1, horizon=x),
     InvalidParameter, "horizon", [INF, 0.0]),
    ("SolverConfig.dt", lambda x: SolverConfig(dt=x, horizon=1.0),
     InvalidParameter, "dt", [INF, 0.0, 1.5]),
    ("SolverConfig.alpha", lambda x: SolverConfig(dt=0.1, horizon=1.0, alpha=x),
     InvalidParameter, "alpha", [0.0, 1.5]),
    ("SolverConfig.blowup_factor", lambda x: SolverConfig(dt=0.1, horizon=1.0, blowup_factor=x),
     InvalidParameter, "blowup_factor", [INF, 0.5]),
    ("KernelSpec.alpha", lambda x: KernelSpec(x, 1.0, G), InvalidParameter, "alpha", [0.0, 2.0]),
    ("KernelSpec.mu", lambda x: KernelSpec(0.5, x, G), InvalidParameter, "mu", [INF, 0.0]),
    ("heat_kernel_field.t", lambda x: heat_kernel_field(SPEC, x),
     NonPositiveTime, "t", [INF, 0.0]),
    ("semigroup_apply.t", lambda x: semigroup_apply(ONES, SPEC, x),
     NegativeTime, "t", [INF, -1.0]),
    ("kernel_diagnostics.times", lambda x: kernel_diagnostics(SPEC, [0.1, x]),
     NonPositiveTime, "times", [INF, 0.0]),
    ("make_grid.extent", lambda x: make_grid(1, x, 8), InvalidDims, "extent", [INF, 0.0]),
    ("FracPower.beta", FracPower, BetaOutOfRange, None, [0.0, 1.5]),
    ("frac_power_quadrature.beta",
     lambda x: frac_power_quadrature(ONES, SimpleNamespace(beta=x)),
     BetaOutOfRange, "beta", [1.0]),
    ("check_holder_gamma", check_holder_gamma, GammaOutOfRange, None, [0.0, 1.0]),
    ("check_sv.ell", lambda x: check_sv([0.5], [2.0, x]), EllOutOfRange, "ell", [INF, 1.0]),
    ("check_gn.q", lambda x: check_gn(3, 0.5, x), QOutOfRange, "q", [INF, 2.0, 3.0]),
    ("check_gn.alpha", lambda x: check_gn(1, x, 4.0), BetaOutOfRange, "alpha", [INF, 0.0, 2.5]),
    ("q_hat.p", lambda x: q_hat(1, 0.5, x), InvalidParameter, "p", [0.5]),
    ("q_hat.alpha", lambda x: q_hat(1, x, 2.0), InvalidParameter, "alpha", [INF, 0.0, 1.5]),
    ("lp_norm.p", lambda x: lp_norm(ONES, x), InvalidParameter, "p", [0, 0.5, -1.0]),
    ("smoothing_rate_fit.r", lambda x: smoothing_rate_fit(SPEC, x, INF, [1.0]),
     InvalidParameter, "r", [0.0, 0.5, -INF]),
    ("smoothing_rate_fit.p", lambda x: smoothing_rate_fit(SPEC, 2.0, x, [1.0]),
     ExponentOrder, "p", [1.0, 1.5]),
    ("smoothing_rate_fit.beta", lambda x: smoothing_rate_fit(SPEC, 1.0, 2.0, [1.0], x),
     InvalidParameter, "beta", [INF, -1.0]),
    ("duality_ladder.alpha", lambda x: duality_ladder(2, x, 1.0, 2.0),
     InvalidParameter, "alpha", [0.0, 1.0]),
    ("duality_ladder.rho", lambda x: duality_ladder(2, 0.5, x, 2.0),
     RhoInadmissible, "rho", [INF, 0.5, 2.5]),
    ("duality_ladder.p0", lambda x: duality_ladder(2, 0.5, 1.0, x), P0TooSmall, "p0", [INF, 1.5]),
    ("duality_ladder.eps_star", lambda x: duality_ladder(2, 0.5, 1.0, 2.0, x),
     InvalidParameter, "eps_star", [INF, -1.0]),
    ("ReactionModel.diffusivities", lambda x: bimolecular().with_diffusivities((1.0, x, 1.0, 1.0)),
     InvalidParameter, "diffusivities", [INF, 0.0]),
    ("maximal_reg_ratio.alpha", lambda x: maximal_reg_ratio(FORCING, TIMES, x, 1.0, G),
     InvalidParameter, "alpha", [0.0, 1.5]),
    ("maximal_reg_ratio.mu", lambda x: maximal_reg_ratio(FORCING, TIMES, 0.5, x, G),
     InvalidParameter, "mu", [INF, 0.0]),
    ("norm_p", lambda x: norm_exponent(x, "norm_p"), InvalidParameter, "norm_p", [0.5]),
    ("weak_p", lambda x: norm_exponent(x, "weak_p", True),
     InvalidParameter, "weak_p", [INF, 0.5]),
    ("norm_report.p_list", lambda x: norm_report(TRAJ, [2.0, x]),
     InvalidParameter, "p_list", [0.0, 0.5, -1.0, -INF]),
    ("norm_report.weak_p", lambda x: norm_report(TRAJ, [2.0], weak_p=x),
     InvalidParameter, "weak_p", [INF, 0, 0.5, -1]),
    ("smoothing_rate_fit.times", lambda x: smoothing_rate_fit(SPEC, 1.0, 2.0, [1.0, x]),
     NonPositiveTime, "times", [INF, 0.0, -1.0]),
    ("delta_probe.r", lambda x: delta_probe(G, x), InvalidParameter, "r", [0, 0.5, -INF]),
    ("accumulate_v.d", lambda x: accumulate_v(TRAJ, [x]), InvalidParameter, "d", [INF, 0.0, -1.0]),
    ("solve_forced_mode.lam", lambda x: solve_forced_mode(TIMES, x, 1.0, np.ones(3)),
     InvalidParameter, "lam", [INF, -3.0]),
    ("solve_forced_mode.mu", lambda x: solve_forced_mode(TIMES, 3.0, x, np.ones(3)),
     InvalidParameter, "mu", [INF, 0.0, -1.0]),
] + [
    (f"profile.{key}", lambda x, key=key: cli_runner._check_profile({"profile": "constant", key: x}, 1),
     InvalidParameter, key, [INF, -1.0] + [0.0] * (key == "width"))
    for key in ("amplitude", "width", "floor")
]


# Integer arguments outside the config, read by as_int: (id, call, name, bad values).
INT_SITES = [
    ("holder_seminorm.seed", lambda x: holder_seminorm(VD32, 0.5, seed=x), "seed",
     [-1, 1.5, "0", NAN, True]),
]


@pytest.mark.parametrize("call,name,bad", [row[1:] for row in INT_SITES],
                         ids=[row[0] for row in INT_SITES])
def test_every_integer_argument_is_read_by_as_int(call, name, bad):
    for x in bad:
        with pytest.raises(InvalidParameter) as exc:
            call(x)
        assert exc.value.name == name and "must be an integer" in exc.value.requirement, x


@pytest.mark.parametrize("call,name", [
    (lambda x: norm_report(TRAJ, [x]), "p_list"),
    (lambda x: norm_report(TRAJ, [2.0], weak_p=x), "weak_p"),
    (lambda x: smoothing_rate_fit(SPEC, 1.0, 2.0, [1.0, x]), "times"),
    (lambda x: delta_probe(G, x), "r"),
    (lambda x: accumulate_v(TRAJ, [x]), "d"),
    (lambda x: solve_forced_mode(TIMES, x, 1.0, np.ones(3)), "lam"),
    (lambda x: solve_forced_mode(TIMES, 3.0, x, np.ones(3)), "mu"),
], ids=["norm_report.p_list", "norm_report.weak_p", "smoothing_rate_fit.times", "delta_probe.r",
        "accumulate_v.d", "solve_forced_mode.lam", "solve_forced_mode.mu"])
def test_non_numbers_are_named(call, name):
    for x in ("x", "2", [1.0]):  # weak_p None turns the weak norm off
        with pytest.raises(InvalidParameter, match="must be a number") as exc:
            call(x)
        assert exc.value.name == name


@pytest.mark.parametrize("call,cls,name,bad", [row[1:] for row in RANGE_SITES],
                         ids=[row[0] for row in RANGE_SITES])
def test_every_range_rule_rejects_nan_inf_and_true(call, cls, name, bad):
    for x in [NAN, True] + bad:
        with pytest.raises(InvalidParameter) as exc:
            call(x)
        # a bool fails as_real's type rule, which raises InvalidParameter itself
        assert isinstance(exc.value, InvalidParameter if x is True else cls), x
        assert exc.value.name == name, x


def test_accumulate_v_reads_one_diffusivity_per_species():
    traj = Trajectory(G, [0.0, 1.0], [np.ones((4,) + G.shape)] * 2)
    for d in ([1.0], [1.0] * 5, [], 1.0, None):
        with pytest.raises(InvalidParameter) as exc:
            accumulate_v(traj, d)
        assert exc.value.requirement == f"must have 4 entries, got {d!r}" and exc.value.name == "d"
    assert accumulate_v(traj, np.ones(4)).b_bounds_ok


def test_q_hat_dims_is_an_integer_of_at_least_one():
    for dims in (0, 1.0, True):
        with pytest.raises(InvalidParameter) as exc:
            q_hat(dims, 0.5, 1.0)
        assert exc.value.name == "dims"


# the phrases of a range rule's message; only errors.in_range writes them
RANGE_PHRASES = ("must lie in", "must be positive", "must be >=", "must exceed",
                 "must be nonnegative")


def test_range_messages_are_written_only_by_in_range():
    found = []
    for path in sorted(Path(fracrd.__file__).parent.glob("*.py")):
        if path.name == "errors.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise):
                text = " ".join(c.value for c in ast.walk(node)
                                if isinstance(c, ast.Constant) and isinstance(c.value, str))
                found += [(path.name, node.lineno) for p in RANGE_PHRASES if p in text]
    assert not found


def _raisers(tree, name):
    """Qualified names of the functions in tree that raise the exception class name."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                visit(child, scope + [child.name])
                continue
            if isinstance(child, ast.Raise) and child.exc is not None:
                exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                if isinstance(exc, ast.Name) and exc.id == name:
                    found.append(".".join(scope))
            visit(child, scope)

    visit(tree, [])
    return found


def test_finiteness_is_checked_only_by_field_and_the_raw_forcing():
    raisers, left = [], []
    for path in sorted(Path(fracrd.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        raisers += [f"{path.stem}.{q}" for q in _raisers(tree, "NonFiniteInput")]
        left += [(path.name, node.lineno) for node in ast.walk(tree)
                 if "require_finite" in (getattr(node, "attr", None), getattr(node, "name", None))]
    assert sorted(raisers) == ["estimate_lab.maximal_reg_ratio",
                               "spectral_core.Field.__post_init__"]
    assert not left
