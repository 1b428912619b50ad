import copy
import csv
import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from fracrd import cli_runner
from fracrd import estimate_lab as el
from fracrd import heat_kernel as hk
from fracrd.cli_runner import (
    load_config,
    main,
    run_scenario,
    run_verify,
    sweep,
    validate_config,
)
from fracrd.errors import ConfigInvalid, EmptyValues, InvalidParameter, UnknownAxis
from fracrd.mild_solver import load_checkpoint
from fracrd.spectral_core import Field, make_grid

DEMO = {
    "schema_version": 1,
    "grid": {"dims": 1, "extent": 40.0, "points": 64},
    "model": "bimolecular",
    "diffusivities": [1.0, 0.7, 1.3, 0.9],
    "initial_data": [
        {"profile": "gaussian-bump", "amplitude": 1.0, "width": 2.0, "floor": 0.05},
        {"profile": "gaussian-bump", "amplitude": 0.3, "width": 2.0, "floor": 0.05},
        {"profile": "two-bumps", "amplitude": 0.8, "width": 2.0, "floor": 0.05},
        {"profile": "constant", "amplitude": 0.2},
    ],
    "solver": {"dt": 0.05, "horizon": 1.0, "alpha": 0.5, "store_every": 2},
    "reports": {
        "norm_p": [2, "inf"],
        "weak_p": 2,
        "sv": {"ell": [2, 3], "alpha": [0.5]},
        "gn": {"q": 4.0, "alpha": 0.5},
        "ladder": {"rho": 1.0, "p0": 2.0},
        "holder_gamma": [0.5],
    },
    "seed": 0,
}


def _demo():
    return copy.deepcopy(DEMO)


def _tiny(mutations=()):
    """DEMO on 16 points to t = 0.2, with (key path, value) mutations applied
    deepest first, so a replaced section never hides a deeper key."""
    cfg = _demo()
    cfg["grid"]["points"] = 16
    cfg["solver"]["horizon"] = 0.2
    for keys, value in sorted(mutations, key=lambda m: -len(m[0])):
        node = cfg
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = copy.deepcopy(value)
    return cfg


# An inline two-species model, f = (-u1 u2, -u1 u2), with initial data for it.
PAIR = {"name": "pair", "species": 2, "diffusivities": [1.0, 1.0],
        "terms": [[[-1.0, [1, 1]]], [[-1.0, [1, 1]]]]}
PAIR_DATA = [{"profile": "constant", "amplitude": 0.5}] * 2

# Config defects that used to fail only after the solve or with a traceback,
# each with the config path its message must start with.
DEFECTS = [
    ("solver.dt", [(("solver", "dt"), 0.5)]),
    ("reports.gn.q", [(("grid", "dims"), 2), (("reports", "gn", "q"), 4)]),
    ("reports.sv.ell", [(("reports", "sv", "ell"), [1])]),
    ("reports.sv", [(("reports", "sv", "alpha"), [1.5])]),
    ("reports.holder_gamma", [(("reports", "holder_gamma"), [1.5])]),
    ("initial_data[1]", [(("initial_data", 1), "gaussian-bump")]),
    ("diffusivities", [(("diffusivities", 1), "fast")]),
    ("initial_data[0].center", [(("grid", "dims"), 2), (("reports", "gn", "q"), 3.0),
                                (("initial_data", 0, "center"), [1.0])]),
    ("initial_data[3].modes", [(("initial_data", 3),
                                {"profile": "random-band-limited", "modes": "x"})]),
    ("initial_data[2].separation", [(("initial_data", 2, "separation"), "x")]),
    ("model.terms", [(("model",), dict(PAIR, terms=[[[-1.0, [1, 1, 1]]], [[-1.0, [1, 1]]]])),
                     (("diffusivities",), [1.0, 1.0]), (("initial_data",), PAIR_DATA)]),
    ("model.terms", [(("model",), dict(PAIR, terms=[[[-1.0, [1, 1]]]])),
                     (("diffusivities",), [1.0, 1.0]), (("initial_data",), PAIR_DATA)]),
    # values that used to be silently misread
    ("solver.dealias", [(("solver", "dealias"), "no")]),
    ("solver.store_every", [(("solver", "store_every"), 0)]),
    ("solver.store_every", [(("solver", "store_every"), -3)]),
    ("solver.store_every", [(("solver", "store_every"), 2.5)]),
    ("solver.store_every", [(("solver", "store_every"), True)]),
    # JSON true read as 1
    ("seed", [(("seed",), True)]),
    ("reports.weak_p", [(("reports", "weak_p"), True)]),
    ("reports.norm_p", [(("reports", "norm_p"), [2, True])]),
]
# JSON true read as 1.0 in numeric keys, keyed by test id
TRUE_AS_ONE = {
    "grid.extent=true": ("grid.extent", [(("grid", "extent"), True)]),
    "solver.dt=true": ("solver.dt", [(("solver", "dt"), True), (("solver", "horizon"), 2.0)]),
    "solver.horizon=true": ("solver.horizon", [(("solver", "horizon"), True)]),
    "diffusivities=true": ("diffusivities", [(("diffusivities", 1), True)]),
    "reports.ladder.rho=true": ("reports.ladder.rho", [(("reports", "ladder", "rho"), True)]),
    "reports.ladder.eps_star=true": ("reports.ladder.eps_star",
                                     [(("reports", "ladder", "eps_star"), True)]),
    "reports.gn.alpha=true": ("reports.gn.alpha", [(("reports", "gn", "alpha"), True)]),
    "reports.sv.alpha=true": ("reports.sv.alpha", [(("reports", "sv", "alpha"), [0.5, True])]),
}
# numeric strings read as numbers, keyed by test id
STRING_AS_NUMBER = {
    "grid.extent=str": ("grid.extent", [(("grid", "extent"), "40")]),
    "solver.dt=str": ("solver.dt", [(("solver", "dt"), "0.05")]),
    "solver.alpha=str": ("solver.alpha", [(("solver", "alpha"), "0.5")]),
    "diffusivities=str": ("diffusivities", [(("diffusivities", 1), "0.7")]),
    "reports.norm_p=str": ("reports.norm_p", [(("reports", "norm_p"), ["2"])]),
    "reports.sv.ell=str": ("reports.sv.ell", [(("reports", "sv", "ell"), [2, "3"])]),
    "reports.gn.q=str": ("reports.gn.q", [(("reports", "gn", "q"), "4")]),
    "reports.ladder.rho=str": ("reports.ladder.rho", [(("reports", "ladder", "rho"), "1.0")]),
}


def _pair(**changes):
    """Mutations that put PAIR, with changes, in place of the model."""
    return [(("model",), dict(PAIR, **changes)), (("diffusivities",), [1.0, 1.0]),
            (("initial_data",), PAIR_DATA)]


# grid, inline-model and gamma values that used to be misread or misreported, keyed by test id
MISREAD = {
    "grid.dims=true": ("grid.dims", [(("grid", "dims"), True)]),
    "model.species=str": ("model.species", _pair(species="2")),
    "model.species=2.9": ("model.species", _pair(species=2.9)),
    "model.terms=str": ("model.terms", _pair(terms=[[["-1.0", [1, 1]]], [[-1.0, [1, 1]]]])),
    "model.terms=true": ("model.terms", _pair(terms=[[[True, [1, 1]]], [[-1.0, [1, 1]]]])),
    "model.diffusivities=str,true": ("model.diffusivities", _pair(diffusivities=["1.0", True])),
    "model.rho=str": ("model.rho", _pair(rho="abc")),
    "model.isc_matrix=str,true": ("model.isc_matrix", _pair(isc_matrix=[["1", 0], [0, True]])),
    "model.terms=short": ("model.terms", _pair(terms=[[[-1.0]], [[-1.0, [1, 1]]]])),
    "model.terms=int": ("model.terms", _pair(terms=3)),
    "model.isc_matrix=int": ("model.isc_matrix", _pair(isc_matrix=3)),
    "model.isc_matrix=ragged": ("model.isc_matrix", _pair(isc_matrix=[[1.0], [0.0, 1.0]])),
    "reports.holder_gamma=str": ("reports.holder_gamma", [(("reports", "holder_gamma"), ["x"])]),
}
# empty SV lists, which used to fail after the solve, and "inf" where only
# norm_p takes it, keyed by test id
EMPTY_OR_INF = {
    "reports.sv.ell=[]": ("reports.sv.ell", [(("reports", "sv", "ell"), [])]),
    "reports.sv.alpha=[]": ("reports.sv.alpha", [(("reports", "sv", "alpha"), [])]),
    "reports.ladder.p0=inf": ("reports.ladder.p0", [(("reports", "ladder", "p0"), "inf")]),
    "reports.ladder.eps_star=inf": ("reports.ladder.eps_star",
                                    [(("reports", "ladder", "eps_star"), "Infinity")]),
    "reports.sv.ell=inf": ("reports.sv.ell", [(("reports", "sv", "ell"), [2, "inf"])]),
}
# report sections that are empty without defaults or not objects, and the
# ladder's need for solver.alpha < 1, which the solver alone does not have,
# keyed by test id
SECTIONS = {
    "reports.gn={}": ("reports.gn", [(("reports", "gn"), {})]),
    "reports.sv=false": ("reports.sv", [(("reports", "sv"), False)]),
    "reports.ladder=list": ("reports.ladder", [(("reports", "ladder"), [1.0, 2.0])]),
    "solver.alpha=1,ladder": ("solver.alpha", [(("solver", "alpha"), 1.0)]),
}
# sections and lists of the wrong JSON type, which used to fail with Python's
# own error text or read a string as a list of characters, keyed by test id,
# each with its one message
SHAPES = {
    "grid=5": ("grid", [(("grid",), 5)], "grid: must be an object, got 5"),
    "solver=5": ("solver", [(("solver",), 5)], "solver: must be an object, got 5"),
    "reports=[1]": ("reports", [(("reports",), [1])], "reports: must be an object, got [1]"),
    "reports.sv=[1]": ("reports.sv", [(("reports", "sv"), [1])],
                       "reports.sv: must be an object, got [1]"),
    "reports.gn=3": ("reports.gn", [(("reports", "gn"), 3)], "reports.gn: must be an object, got 3"),
    "reports.ladder='on'": ("reports.ladder", [(("reports", "ladder"), "on")],
                            "reports.ladder: must be an object, got 'on'"),
    "initial_data='bump'": ("initial_data", [(("initial_data",), "bump")],
                            "initial_data: must be a list, got 'bump'"),
    "reports.norm_p='inf'": ("reports.norm_p", [(("reports", "norm_p"), "inf")],
                             "reports.norm_p: must be a list, got 'inf'"),
    "reports.holder_gamma='0.5'": ("reports.holder_gamma", [(("reports", "holder_gamma"), "0.5")],
                                   "reports.holder_gamma: must be a list, got '0.5'"),
    "reports.sv.ell=3": ("reports.sv.ell", [(("reports", "sv", "ell"), 3)],
                         "reports.sv.ell: must be a list, got 3"),
    "reports.sv.alpha=0.5": ("reports.sv.alpha", [(("reports", "sv", "alpha"), 0.5)],
                             "reports.sv.alpha: must be a list, got 0.5"),
}
# falsy diffusivities, which used to keep the model's own, keyed by test id
FALSY = {f"diffusivities={v!r}": ("diffusivities", [(("diffusivities",), v)])
         for v in ([], 0, False)}
DEFECT_IDS = ([d[0] for d in DEFECTS] + list(TRUE_AS_ONE) + list(STRING_AS_NUMBER)
              + list(MISREAD) + list(EMPTY_OR_INF) + list(SECTIONS) + list(SHAPES) + list(FALSY))
DEFECTS += [*TRUE_AS_ONE.values(), *STRING_AS_NUMBER.values(), *MISREAD.values(),
            *EMPTY_OR_INF.values(), *SECTIONS.values(),
            *((path, mutations) for path, mutations, _ in SHAPES.values()), *FALSY.values()]

# Every field validate_config owns, each with valid and invalid values.
FIELDS = {
    ("schema_version",): [1, 2],
    ("seed",): [0, 7, -1, 1.5, "0", True],
    ("grid", "dims"): [1, 2, 0, 4, 1.0],
    ("grid", "points"): [8, 32, 10, 4, 8.0, None],
    ("grid", "extent"): [10.0, 40, 0, -1.0, "wide", float("nan"), True],
    ("model",): ["bimolecular", "dissipative-pair", "nope", 5, None, {"name": "x"},
                 dict(PAIR, terms=[[[-1.0, [1, 1, 1]]], [[-1.0, [1, 1]]]]),
                 dict(PAIR, terms=[[[-1.0, [1, -1]]], [[-1.0, [1, 1]]]]),
                 dict(PAIR, terms=[[[-1.0, [1, 1]]]])],
    ("diffusivities",): [[1.0, 1.0, 1.0, 1.0], [1.0, 1.0], [1.0, 0.0, 1.0, 1.0],
                         [1.0, float("inf"), 1.0, 1.0], [1.0, True, 1.0, 1.0], 3, None],
    ("initial_data",): [[], "bump"],
    ("initial_data", 0): [{"profile": "random-band-limited", "amplitude": 0.5},
                          {"profile": "nope"}, "constant", {"profile": "constant", "amplitude": -1},
                          {"profile": "gaussian-bump", "width": 0},
                          {"profile": "two-bumps", "floor": "low"}],
    ("initial_data", 0, "center"): [[0.5], [1.0, 2.0], [float("nan")], [True], "x"],
    ("initial_data", 2, "separation"): [5.0, -3.0, "x", float("inf"), None],
    ("initial_data", 3): [{"profile": "random-band-limited", "modes": 3},
                          {"profile": "random-band-limited", "modes": 0},
                          {"profile": "random-band-limited", "modes": True},
                          {"profile": "random-band-limited", "modes": 2.0}],
    ("solver", "dt"): [0.1, 0.2, 0, -0.05, 0.5, "x", True],
    ("solver", "horizon"): [0.1, 0.01, 0, float("inf"), True],
    ("solver", "alpha"): [1.0, 0.25, 0, 1.5, "x", True],
    ("solver", "dealias"): [False, True, "no", 1, None],
    ("solver", "store_every"): [3, "x", 0, -3, 2.5, True],
    ("reports", "norm_p"): [[1, "inf"], [0.5], ["x"], 3, [True]],
    ("reports", "weak_p"): [1, 0, "2", None, True],
    ("reports", "holder_gamma"): [[0.25, 0.75], [1.5], [0], ["x"], 0.5],
    ("reports", "sv", "ell"): [[2, 4], [1], ["x"], [], ["inf"]],
    ("reports", "sv", "alpha"): [[0.3, 1.0], [1.5], [0], [True], []],
    ("reports", "gn", "q"): [3.0, 2.0, 10.0, "x"],
    ("reports", "gn", "alpha"): [0.9, 3.0, 0, True],
    ("reports", "ladder", "rho"): [1.2, 2.5, 0.5, "x", True],
    ("reports", "ladder", "p0"): [3.0, 1.0, "inf"],
    ("reports", "ladder", "eps_star"): [0.5, -1.0, True, "inf"],
}


def test_validate_accepts_demo():
    validate_config(_demo())


def test_validate_collects_field_messages():
    cfg = _demo()
    cfg["grid"]["points"] = 10
    cfg["model"] = "nope"
    cfg["solver"]["dt"] = -1
    with pytest.raises(ConfigInvalid) as exc:
        validate_config(cfg)
    msgs = exc.value.messages
    assert any("grid.points" in m for m in msgs)
    assert any(m.startswith("model:") for m in msgs)
    assert any("solver.dt" in m for m in msgs)


def test_validate_rejects_inadmissible_rho_before_compute():
    cfg = _demo()
    cfg["reports"]["ladder"]["rho"] = 2.5
    with pytest.raises(ConfigInvalid) as exc:
        validate_config(cfg)
    assert any("rho" in m for m in exc.value.messages)


@pytest.mark.parametrize("path,mutations", DEFECTS, ids=DEFECT_IDS)
def test_config_defects_fail_before_solve(tmp_path, monkeypatch, capsys, path, mutations):
    def no_solve(*args, **kwargs):
        raise AssertionError("solve_mild called on an invalid config")

    monkeypatch.setattr(cli_runner, "solve_mild", no_solve)
    cfg = _tiny(mutations)
    with pytest.raises(ConfigInvalid) as exc:
        run_scenario(cfg, outdir=str(tmp_path / "run"))
    assert any(m.startswith(path + ": ") for m in exc.value.messages)
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "cli")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and err.count("\n") == 1


@pytest.mark.parametrize("mutations,message", [v[1:] for v in SHAPES.values()], ids=list(SHAPES))
def test_malformed_shapes_name_the_rule(mutations, message):
    with pytest.raises(ConfigInvalid) as exc:
        validate_config(_tiny(mutations))
    assert exc.value.messages == [message]


def test_initial_data_count_is_named():
    with pytest.raises(ConfigInvalid) as exc:
        validate_config(_tiny([(("initial_data",), DEMO["initial_data"][:3])]))
    assert exc.value.messages == ["initial_data: expected 4 profiles, got 3"]


def test_ladder_alpha_conflict_names_both_sections():
    with pytest.raises(ConfigInvalid) as exc:
        validate_config(_tiny([(("solver", "alpha"), 1.0)]))
    assert exc.value.messages == [
        "solver.alpha: must lie in (0, 1), got 1.0, as reports.ladder requires"]
    assert validate_config(_tiny([(("solver", "alpha"), 1.0), (("reports", "ladder"), None)]))


def _report_rows(path):
    with open(path, newline="") as fh:
        _, *rows = csv.reader(fh)
    return rows


def test_empty_report_section_takes_every_default(tmp_path):
    man = run_scenario(_tiny([(("reports", "sv"), {}), (("reports", "ladder"), {})]),
                       outdir=str(tmp_path))
    rows = _report_rows(tmp_path / "sv.csv")
    keys = {(row[0], row[1]) for row in rows}
    assert len(rows) == len(keys) * 3 * 3  # the default ell and alpha lists
    assert {(row[2], row[3]) for row in rows} == {(ell, al) for ell in ("2.0", "3.0", "4.0")
                                                  for al in ("0.3", "0.5", "0.9")}
    assert "ladder.json" in man["files"]
    with open(tmp_path / "ladder.json") as fh:
        assert json.load(fh)["sequence"] == el.duality_ladder(1, 0.5, 1.0, 2.0).sequence


def test_null_report_section_is_off(tmp_path):
    man = run_scenario(_tiny([(("reports", key), None) for key in ("sv", "gn", "ladder")]),
                       outdir=str(tmp_path))
    assert not {"sv.csv", "gn.csv", "ladder.json"} & set(man["files"])


def test_non_numeric_gamma_message_names_the_rule():
    with pytest.raises(ConfigInvalid) as exc:
        validate_config(_tiny([(("reports", "holder_gamma"), [0.5, "x"])]))
    assert exc.value.messages == ["reports.holder_gamma: must be a number, got 'x'"]


@settings(max_examples=100, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutations=st.lists(st.sampled_from([(k, v) for k, vs in FIELDS.items() for v in vs]),
                          min_size=1, max_size=3))
def test_config_rejected_before_solve_or_run(tmp_path, monkeypatch, mutations):
    solves = []
    real_solve = cli_runner.solve_mild

    def counting_solve(*args, **kwargs):
        solves.append(args)
        return real_solve(*args, **kwargs)

    with monkeypatch.context() as mp:
        mp.setattr(cli_runner, "solve_mild", counting_solve)
        try:
            man = run_scenario(_tiny(mutations), outdir=str(tmp_path / "run"))
        except ConfigInvalid:
            assert not solves
        else:
            assert len(solves) == 1 and "final_state.csv" in man["files"]


# The confirmed defects are explicit examples of the property as well.
for _path, _mutations in DEFECTS:
    test_config_rejected_before_solve_or_run = example(mutations=_mutations)(
        test_config_rejected_before_solve_or_run
    )


@pytest.mark.parametrize("weak_p", [2, 3])
def test_weak_norm_check_covers_every_species(tmp_path, monkeypatch, weak_p):
    real_report = el.norm_report

    def inflated(*args, **kwargs):
        report = real_report(*args, **kwargs)
        report.weak_norms[-1] = 2.0 * report.spacetime[(3, float(weak_p))]
        return report

    monkeypatch.setattr(el, "norm_report", inflated)
    cfg = _demo()
    cfg["reports"]["weak_p"] = weak_p  # norm_p is [2, "inf"]
    man = run_scenario(cfg, outdir=str(tmp_path / "run"))
    assert man["violations"] == [f"weak-L{weak_p} above strong for species 3"]
    rows = (tmp_path / "run" / "norms.csv").read_text().splitlines()[1:]
    assert sorted({row.split(",")[1] for row in rows}) == ["2.0", "inf"]


def test_negative_values_fail_the_run(tmp_path):
    # f = (-1, +1) drains species 0 below zero at t = 0.1; the solver does not clip
    drain = {"name": "drain", "species": 2, "diffusivities": [1.0, 1.0],
             "terms": [[[-1.0, [0, 0]]], [[1.0, [0, 0]]]]}
    cfg = _tiny([(("model",), drain), (("diffusivities",), [1.0, 1.0]),
                 (("initial_data",), [{"profile": "constant", "amplitude": 0.1}] * 2),
                 (("solver", "horizon"), 0.3)])
    man = run_scenario(cfg, outdir=str(tmp_path / "run"))
    assert not man["passed"]
    [violation] = man["violations"]
    low = re.fullmatch(r"negativity (\S+) beyond tolerance", violation).group(1)
    # -0.1 * 0.5 up to the rounding of the window weights
    assert float(low) == pytest.approx(-0.05, rel=4 * np.finfo(float).eps, abs=0.0)


def test_blowup_run_checkpoints_the_blowup_state(tmp_path):
    # f = u^2 on constant 10 blows up near t = 0.1, long before the first stored window
    quad = {"name": "quad", "species": 1, "diffusivities": [1.0], "terms": [[[1.0, [2]]]]}
    cfg = _tiny([(("model",), quad), (("diffusivities",), [1.0]),
                 (("initial_data",), [{"profile": "constant", "amplitude": 10.0}]),
                 (("solver",), {"dt": 1e-3, "horizon": 0.5, "store_every": 1000})])
    man = run_scenario(cfg, outdir=str(tmp_path))  # holder_gamma needs two stored states
    assert 0.09 < man["blowup_time"] < 0.11
    assert load_checkpoint(tmp_path / "final_state.csv")[1] == man["blowup_time"]
    assert "holder.csv" in man["files"]


def test_run_builds_the_scenario_once(tmp_path, monkeypatch):
    calls = []
    real_build = cli_runner.build_model

    def counting_build(cfg):
        calls.append(cfg)
        return real_build(cfg)

    monkeypatch.setattr(cli_runner, "build_model", counting_build)
    run_scenario(_tiny(), outdir=str(tmp_path))
    assert len(calls) == 1


def test_sweep_builds_each_scenario_once(tmp_path, monkeypatch):
    calls = []
    real_build = cli_runner.build_model

    def counting_build(cfg):
        calls.append(cfg)
        return real_build(cfg)

    monkeypatch.setattr(cli_runner, "build_model", counting_build)
    sweep(_tiny(), "alpha", [0.5, 0.75], outdir=str(tmp_path))
    assert len(calls) == 2


# cli_runner globals the benchmark harness (bench/tracer.py) wraps by name; a
# call that bypasses the module global leaves its traced time at zero
BENCH_TRACED = ("solve_mild", "save_checkpoint", "make_profile", "validate_config",
                "build_model", "get_model")


@pytest.mark.parametrize("seed", [0, 1])
def test_inequalities_maxreg_rows_match_per_field_loop(seed):
    """The suite passes its forcings to maximal_reg_ratio in groups; the rows
    must be those of one call per field, drawn 50 per mu in the same order."""
    rows = [r for r in cli_runner._suite_inequalities(seed)[1] if r[0] == "maxreg"]
    rng = np.random.default_rng(seed)
    g = make_grid(1, 2.0 * np.pi, 128)
    for _ in range(200):  # the suite's 100 SV fields and 100 GN fields come first
        cli_runner.random_band_limited(g, rng)
    times = np.linspace(0.0, 4.0, 801)
    expected = []
    for mu in (0.5, 1.0, 2.0):
        for k in range(50):
            fld = cli_runner.random_band_limited(g, rng)
            ftraj = np.exp(-times)[:, None] * fld.values[None, :]
            expected.append(["maxreg", k, mu, 0.5, el.maximal_reg_ratio(ftraj, times, 0.5, mu, g)])
    assert rows == expected


def test_bench_hooks_are_module_globals(tmp_path, monkeypatch):
    # bench/worker.py reads these directly
    assert callable(cli_runner.load_config)
    assert {"kernel", "inequalities", "ladder", "bimolecular"} <= set(cli_runner.SUITES)
    calls = set()

    def traced(mod, name):
        real = getattr(mod, name)
        monkeypatch.setattr(mod, name, lambda *a, **k: calls.add(name) or real(*a, **k))

    for name in BENCH_TRACED:
        traced(cli_runner, name)
    # the GN ratio calls frac_power; the tracer's estimate_lab.sv_s sums the
    # estimate_lab functions named stroock_varopoulos_gap*
    traced(el, "frac_power")
    for name in [n for n in vars(el) if n.startswith("stroock_varopoulos_gap")]:
        traced(el, name)
    run_scenario(_tiny(), outdir=str(tmp_path))
    sv = {n for n in calls if n.startswith("stroock_varopoulos_gap")}
    assert sv
    assert calls - sv == {*BENCH_TRACED, "frac_power"}


@pytest.mark.parametrize("verb", ["run", "verify"])
def test_manifest_lists_every_written_file(tmp_path, verb):
    if verb == "run":
        man = run_scenario(_tiny(), outdir=str(tmp_path))
    else:
        man = run_verify(["ladder", "bimolecular"], outdir=str(tmp_path))
    with open(tmp_path / "manifest.json") as fh:
        assert json.load(fh) == man
    assert set(man["files"]) == {p.name for p in tmp_path.iterdir()} - {"manifest.json"}


@pytest.mark.parametrize("verb", ["run", "verify"])
def test_outdir_may_be_a_path(tmp_path, verb):
    out = tmp_path / verb
    if verb == "run":
        man = run_scenario(_tiny(), outdir=out)
        assert isinstance(man["output_dir"], str) and man["output_dir"] == str(out)
    else:
        man = run_verify(["ladder"], outdir=out)
    with open(out / "manifest.json") as fh:
        assert json.load(fh) == man


def test_run_scenario_manifest(tmp_path):
    man = run_scenario(_demo(), outdir=str(tmp_path / "run"))
    assert man["passed"] and not man["violations"]
    for name, digest in man["files"].items():
        assert (tmp_path / "run" / name).exists()
        assert len(digest) == 64
    assert (tmp_path / "run" / "manifest.json").exists()


# cells of the run reports that are labels, not numbers
REPORT_LABELS = {"inf", "max", "True", "False", "dims", "points_per_axis", "extent", "time",
                 "species", "u0", "u1", "u2", "u3"}


def _is_number(cell):
    try:
        float(cell)
    except ValueError:
        return False
    return True


def test_report_cells_are_numbers_or_labels(tmp_path):
    man = run_scenario(_tiny(), outdir=str(tmp_path))
    csvs = [name for name in man["files"] if name.endswith(".csv")]
    assert "norms.csv" in csvs and "final_state.csv" in csvs
    for name in csvs:
        with open(tmp_path / name, newline="") as fh:
            header, *rows = csv.reader(fh)
        labels = REPORT_LABELS | set(header)
        bad = [cell for row in rows for cell in row if cell not in labels and not _is_number(cell)]
        assert not bad, (name, bad[:3])


def test_run_determinism(tmp_path):
    m1 = run_scenario(_demo(), outdir=str(tmp_path / "a"))
    m2 = run_scenario(_demo(), outdir=str(tmp_path / "b"))
    assert m1["files"] == m2["files"]
    for name in m1["files"]:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_seed_changes_reports(tmp_path):
    # the seed reaches the reports through the random initial data only
    cfg = _demo()
    cfg["initial_data"][3] = {"profile": "random-band-limited", "amplitude": 0.2}
    m1 = run_scenario(cfg, outdir=str(tmp_path / "a"))
    m2 = run_scenario(dict(cfg, seed=1), outdir=str(tmp_path / "b"))
    for name in ("final_state.csv", "sv.csv", "gn.csv"):
        assert m1["files"][name] != m2["files"][name]


def test_sweep(tmp_path):
    cfg = _demo()
    cfg["reports"] = {"norm_p": [2]}
    rows = sweep(cfg, "alpha", [0.5, 0.75], outdir=str(tmp_path / "sw"))
    assert [r[0] for r in rows] == [0.5, 0.75]
    assert all(r[1] for r in rows)
    assert (tmp_path / "sw" / "sweep.csv").exists()


def test_sweep_guards(tmp_path, monkeypatch):
    with pytest.raises(UnknownAxis):
        sweep(_demo(), "bogus", [1.0], outdir=str(tmp_path))
    with pytest.raises(EmptyValues):
        sweep(_demo(), "alpha", [], outdir=str(tmp_path))

    def no_solve(*args, **kwargs):
        raise AssertionError("solve_mild called before every sweep value was validated")

    monkeypatch.setattr(cli_runner, "solve_mild", no_solve)
    with pytest.raises(ConfigInvalid) as exc:
        sweep(_demo(), "alpha", [0.5, 1.5], outdir=str(tmp_path / "sw"))
    assert exc.value.messages == ["alpha=1.5: solver.alpha: must lie in (0, 1], got 1.5"]
    with pytest.raises(ConfigInvalid) as exc:
        sweep(_demo(), "points", [16.0, 16.5], outdir=str(tmp_path / "sw"))
    assert exc.value.messages == [
        "points=16.5: grid.points: must be a power of two >= 8, got 16.5"]
    # every value is read as a number, booleans rejected, before any output exists
    for axis, value, where in (("dt", "x", "solver.dt"), ("dt", None, "solver.dt"),
                               ("dt", True, "solver.dt"), ("dt", [1], "solver.dt"),
                               ("points", "x", "grid.points")):
        with pytest.raises(ConfigInvalid) as exc:
            sweep(_demo(), axis, [value], outdir=str(tmp_path / "sw"))
        assert exc.value.messages == [f"{axis}={value}: {where}: must be a number, got {value!r}"]
    for section, value, axis, where in (
        ("reports", {"ladder": None}, "rho", "reports.ladder: must be an object, got None"),
        ("solver", [1], "dt", "solver: must be an object, got [1]"),
        ("grid", "x", "points", "grid: must be an object, got 'x'"),
    ):
        cfg = _demo()
        cfg[section] = value
        with pytest.raises(ConfigInvalid) as exc:
            sweep(cfg, axis, [16.0], outdir=str(tmp_path / "sw"))
        assert exc.value.messages == [where]
    assert not (tmp_path / "sw").exists()


def test_unwritable_output_exits_1(tmp_path, capsys):
    cfg_path = tmp_path / "demo.json"
    cfg_path.write_text(json.dumps(_tiny()))
    capsys.readouterr()
    assert main(["run", str(cfg_path), "--out", str(cfg_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write to {cfg_path / 'out'}") and err.count("\n") == 1


def test_output_dir_that_is_not_a_path_exits_1(tmp_path, capsys):
    cfg_path = tmp_path / "demo.json"
    cfg_path.write_text(json.dumps({**_tiny(), "output_dir": 5}))
    capsys.readouterr()
    assert main(["run", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write to 5: ") and err.count("\n") == 1


def test_main_exit_codes(tmp_path, capsys):
    cfg_path = tmp_path / "demo.json"
    cfg_path.write_text(json.dumps(_demo()))
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "r")]) == 0
    bad = _demo()
    bad["model"] = "nope"
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(bad))
    malformed = tmp_path / "malformed.json"
    malformed.write_text('{"grid": ')
    capsys.readouterr()
    for argv in (
        ["run", str(bad_path)],
        ["run", str(tmp_path / "missing.json")],
        ["run", str(malformed)],
        ["sweep", str(cfg_path), "--axis", "alpha", "--values", "a,b"],
        ["verify", "bogus"],
        ["verify", "ladder", "--seed", "-1"],
    ):
        assert main(argv + ["--out", str(tmp_path / "r2")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
    assert main(["verify", "ladder", "--out", str(tmp_path / "v")]) == 0


def test_usage_error_exits_1(capsys):
    assert main(["run"]) == 1  # argparse itself would exit 2, the violations code
    assert capsys.readouterr().err.startswith("usage: fracrd run")


def test_run_seed_option_replaces_the_config_seed(tmp_path):
    cfg_path = tmp_path / "demo.json"
    cfg_path.write_text(json.dumps(_tiny()))  # seed 0
    assert main(["run", str(cfg_path), "--seed", "7", "--out", str(tmp_path / "r")]) == 0
    with open(tmp_path / "r" / "manifest.json") as fh:
        assert json.load(fh)["seed"] == 7


def test_sweep_through_main(tmp_path):
    cfg_path = tmp_path / "demo.json"
    cfg_path.write_text(json.dumps(_tiny()))
    out = tmp_path / "sw"
    assert main(["sweep", str(cfg_path), "--axis", "dt", "--values", "0.05,0.1",
                 "--out", str(out)]) == 0
    assert _report_rows(out / "sweep.csv") == [["0.05", "True", "0", ""], ["0.1", "True", "0", ""]]


def test_load_config_rejects_a_json_array(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    with pytest.raises(ConfigInvalid) as exc:
        load_config(path)
    assert exc.value.messages == [f"{path}: must hold a JSON object"]


def test_ladder_that_cannot_terminate_fails_the_run(tmp_path, capsys):
    # at rho = rho_max(3, 0.1) = 1.125 the ladder's fixed point is p0 = 2: it stands still
    assert el.rho_admissible_max(3, 0.1) == 1.125
    cfg = _tiny([(("grid", "dims"), 3), (("grid", "points"), 8), (("solver", "alpha"), 0.1),
                 (("initial_data",), [{"profile": "constant", "amplitude": c}
                                      for c in (1.0, 0.5, 1.0, 0.5)]),
                 (("reports", "gn", "q"), 2.5), (("reports", "ladder"), {"rho": 1.125, "p0": 2})])
    cfg_path = tmp_path / "still.json"
    cfg_path.write_text(json.dumps(cfg))
    capsys.readouterr()
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err == "violations recorded\n"
    with open(tmp_path / "run" / "manifest.json") as fh:
        assert json.load(fh)["violations"] == ["exponent ladder failed to terminate"]
    with open(tmp_path / "run" / "ladder.json") as fh:
        lad = json.load(fh)
    assert lad["diverged"] and lad["termination_index"] is None
    assert lad["sequence"] == [2.0] * (el.LADDER_MAX_STEPS + 1)


def test_verify_seed_is_read_before_any_output(tmp_path):
    with pytest.raises(InvalidParameter):
        run_verify(["ladder"], outdir=str(tmp_path / "v"), seed=True)
    assert not (tmp_path / "v").exists()


def test_nan_sv_gap_fails_the_run(tmp_path, monkeypatch):
    real_gaps = el.stroock_varopoulos_gaps

    def first_gap_nan(*args):
        gaps = real_gaps(*args)
        gaps[0, 0] = float("nan")
        return gaps

    monkeypatch.setattr(el, "stroock_varopoulos_gaps", first_gap_nan)
    man = run_scenario(_tiny(), outdir=str(tmp_path / "run"))
    assert not man["passed"]
    keys = sorted({(int(r[0]), float(r[1])) for r in _report_rows(tmp_path / "run" / "sv.csv")},
                  key=lambda k: (k[1], k[0]))
    assert man["violations"] == [f"SV gap nan at species {i}, t {t}, ell=2, alpha=0.5"
                                 for i, t in keys]


def _ladder_fake(real, args, **changes):
    """duality_ladder with changes applied to the ladder of args alone."""
    return lambda *a: dataclasses.replace(real(*a), **changes) if a == args else real(*a)


def _appended_last(real):  # p_n repeated at the end: no sequence is increasing
    def ladder(*a):
        lad = real(*a)
        return dataclasses.replace(lad, sequence=lad.sequence + lad.sequence[-1:])
    return ladder


def _shifted_final_state(real):  # u + 1 in the last stored state
    def solve(*a):
        traj = real(*a)
        traj.states[-1] = traj.states[-1] + 1.0
        return traj
    return solve


def _doubled_final_mass(real):
    def solve(*a):
        traj = real(*a)
        traj.step_diagnostics.total_mass[-1] *= 2.0
        return traj
    return solve


# one planted fault per check line of verify and run: (suite, or "run" for the
# tiny demo run; the module and function the check reads; a factory that wraps
# the real function; the exact violations). Doubling every kernel is exact, so
# of the kernel checks only the peaks move.
PLANTED = {
    "kernel-peak": ("kernel", hk, "heat_kernel_field",
                    lambda real: lambda spec, t: Field(spec.grid, 2.0 * real(spec, t).values),
                    ["kernel peak alpha=0.5 off by 1", "kernel peak alpha=1.0 off by 1"]),
    "self-similarity": ("kernel", hk, "kernel_diagnostics",
                        lambda real: lambda *a: dict(real(*a), self_similarity_residual=1e-9),
                        ["self-similarity residual above 1e-10"]),
    "smoothing-slope": ("kernel", hk, "smoothing_rate_fit",
                        lambda real: lambda *a, **k: dataclasses.replace(real(*a, **k),
                                                                         relative_error=0.5),
                        ["smoothing slope off by 0.5"] * 3),
    "maxreg": ("inequalities", el, "maximal_reg_ratio",
               lambda real: lambda f, *a: np.full(np.shape(f)[1], 3.0),
               [f"maximal regularity ratio 3.0 > 1.05/{mu}" for mu in (0.5, 1.0, 2.0)
                for _ in range(50)]),
    "ladder-worked-1": ("ladder", el, "duality_ladder",
                        lambda real: _ladder_fake(real, (2, 0.75, 1.0, 2.0), termination_index=2),
                        ["ladder (N=2, a=0.75, rho=1, p0=2) mismatch"]),
    "ladder-worked-2": ("ladder", el, "duality_ladder",
                        lambda real: _ladder_fake(real, (3, 0.5, 1.2, 2.1), termination_index=3),
                        ["ladder (N=3, a=0.5, rho=1.2, p0=2.1) mismatch"]),
    "ladder-non-monotone": ("ladder", el, "duality_ladder", _appended_last,
                            [f"non-monotone ladder at sweep {k}" for k in range(200)]),
    "ladder-rho-reject": ("ladder", el, "duality_ladder",
                          lambda real: lambda *a: real(*a[:2], 1.0, *a[3:]) if a[2] == 2.5
                          else real(*a),
                          ["rho=2.5 not rejected"]),
    "ode-reduction": ("bimolecular", cli_runner, "solve_mild", _shifted_final_state,
                      ["ODE reduction error 1"]),
    "mass-drift": ("bimolecular", cli_runner, "solve_mild", _doubled_final_mass,
                   ["mass drift at t=1.0"]),
    "b-coefficient": ("bimolecular", el, "accumulate_v",
                      lambda real: lambda *a: dataclasses.replace(real(*a), b_bounds_ok=False),
                      ["b-coefficient outside bounds"]),
    # DEMO's diffusivities run from 0.7 to 1.3
    "run-b-bounds": ("run", el, "accumulate_v",
                     lambda real: lambda *a: dataclasses.replace(
                         real(*a), b_min=0.25, b_max=4.0, b_bounds_ok=False),
                     ["b outside [0.7692307692307692, 1.4285714285714286]: [0.25, 4.0]"]),
}


@pytest.mark.parametrize("case", list(PLANTED))
def test_every_check_fires_on_a_planted_fault(tmp_path, monkeypatch, case):
    suite, module, name, fake, expected = PLANTED[case]
    monkeypatch.setattr(module, name, fake(getattr(module, name)))
    if suite == "run":
        man = run_scenario(_tiny(), outdir=str(tmp_path))
    else:
        man = run_verify([suite], outdir=str(tmp_path))
        expected = [f"{suite}: {v}" for v in expected]
    assert not man["passed"]
    assert man["violations"] == expected


@pytest.mark.parametrize("amplitude", [1.0, 1e4, 1e6])
def test_sv_check_does_not_depend_on_the_solution_size(tmp_path, amplitude):
    # the gaps scale like amplitude^ell, their round-off too; f = -u keeps the data's shape
    decay = {"name": "decay", "species": 1, "diffusivities": [1.0], "terms": [[[-1.0, [1]]]]}
    cfg = _tiny([(("model",), decay), (("diffusivities",), [1.0]),
                 (("initial_data",), [{"profile": "gaussian-bump", "amplitude": amplitude,
                                       "width": 2.0, "floor": 0.05 * amplitude}]),
                 (("reports", "sv"), {})])
    man = run_scenario(cfg, outdir=str(tmp_path))
    assert man["passed"], man["violations"]
    assert len(_report_rows(tmp_path / "sv.csv")) == 2 * 3 * 3


def test_blowup_state_has_no_round_off_sv_violation(tmp_path):
    # f = u^2 on a bump blows up at its top; the stored blow-up state reaches a sup
    # near 3e7, where the ell = 2 gaps (zero by Parseval) are round-off alone
    quad = {"name": "quad", "species": 1, "diffusivities": [1.0], "terms": [[[1.0, [2]]]]}
    cfg = _tiny([(("model",), quad), (("diffusivities",), [1.0]),
                 (("initial_data",), [{"profile": "gaussian-bump", "amplitude": 10.0,
                                       "width": 2.0, "floor": 10.0}]),
                 (("solver",), {"dt": 1e-3, "horizon": 0.5, "store_every": 1000}),
                 (("reports", "sv"), {"ell": [2], "alpha": [0.3, 0.5, 0.9]})])
    man = run_scenario(cfg, outdir=str(tmp_path))
    assert man["blowup_time"] is not None
    gaps = [float(r[-1]) for r in _report_rows(tmp_path / "sv.csv")]
    assert max(map(abs, gaps)) > 1e-8  # the old absolute bound would have failed the run
    assert not [v for v in man["violations"] if v.startswith("SV")]


def test_inequality_rows_cover_every_species_of_the_final_and_peak_states(tmp_path, monkeypatch):
    trajs = []
    real_solve = cli_runner.solve_mild
    monkeypatch.setattr(cli_runner, "solve_mild", lambda *a: trajs.append(real_solve(*a)) or trajs[0])
    run_scenario(_tiny(), outdir=str(tmp_path))
    [traj] = trajs
    g, last = traj.grid, len(traj.states) - 1
    peak = int(np.argmax([np.abs(s).max() for s in traj.states]))
    assert peak != last  # the bumps decay, so both states are checked
    picks = [(i, k) for k in (peak, last) for i in range(4)]

    sv = _report_rows(tmp_path / "sv.csv")
    want = []
    for i, k in picks:
        gaps = el.stroock_varopoulos_gaps(Field(g, traj.states[k][i]), [0.5], [2, 3])
        want += [[str(i), repr(traj.times[k]), ell, "0.5", repr(gap)]
                 for ell, gap in zip(("2", "3"), gaps[:, 0].tolist())]
    assert sv == want

    *gn, top = _report_rows(tmp_path / "gn.csv")
    want = []
    for i, k in picks:
        u = traj.states[k][i]
        if np.ptp(u) > 0:  # species 3 starts constant and has no ratio there
            want.append([str(i), repr(traj.times[k]), "4.0", "0.5",
                         repr(el.gn_ratio(Field(g, u - u.mean()), 0.5, 4.0))])
    assert gn == want and len(gn) == len(picks) - 1
    assert top == ["max", *max(gn, key=lambda r: float(r[-1]))[1:]]


def test_constant_data_run_has_no_gn_rows(tmp_path):
    cfg = _tiny([(("initial_data",), [{"profile": "constant", "amplitude": c}
                                      for c in (1.0, 0.0, 1.0, 0.0)])])
    cfg_path = tmp_path / "ode.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "run")]) == 0
    assert _report_rows(tmp_path / "run" / "gn.csv") == []
    assert _report_rows(tmp_path / "run" / "sv.csv")


def test_run_without_a_random_profile_draws_no_random_field(tmp_path, monkeypatch):
    def no_field(*args):
        raise AssertionError("random_band_limited called")

    monkeypatch.setattr(cli_runner, "random_band_limited", no_field)
    man = run_scenario(_tiny(), outdir=str(tmp_path))
    assert man["passed"] and {"sv.csv", "gn.csv"} <= set(man["files"])


def test_output_root_env(tmp_path, monkeypatch):
    monkeypatch.setenv("FRACRD_OUTPUT_ROOT", str(tmp_path))
    man = run_scenario(_demo())
    assert man["output_dir"].startswith(str(tmp_path))


def test_load_config_roundtrip(tmp_path):
    p = tmp_path / "c.json"
    p.write_text(json.dumps(_demo()))
    assert load_config(p) == _demo()


def _cos_sum_band_limited(grid, rng, modes):
    """The random band-limited field as its defining sum of cosines on the grid."""
    coords = grid.coord_arrays()
    base = 2.0 * np.pi / grid.extent
    vals = np.zeros(grid.shape)
    for _ in range(modes):
        k = rng.integers(1, modes + 1, size=grid.dims)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        vals += rng.standard_normal() * np.cos(
            sum(base * k[ax] * coords[ax] for ax in range(grid.dims)) + phase)
    return vals


@pytest.mark.parametrize("dims,points,modes", [
    (1, 8, 8), (1, 16, 8), (2, 8, 8), (2, 16, 8), (3, 8, 8), (3, 16, 8),  # modes fold past n/2
    (1, 128, 8), (2, 128, 8), (3, 32, 3), (1, 128, 1),
])
def test_random_band_limited_is_its_cosine_sum(dims, points, modes):
    g = make_grid(dims, 40.0, points)
    for seed in range(3):
        ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        got = cli_runner.random_band_limited(g, ours, modes).values
        want = _cos_sum_band_limited(g, ref, modes)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        assert ours.bit_generator.state == ref.bit_generator.state  # the same draws


def test_readme_scenario_is_the_run_1d_workload():
    root = Path(__file__).resolve().parents[1]
    block = re.search(r"```json\n(.*?)```", (root / "README.md").read_text(), re.S).group(1)
    cfg = json.loads(block)
    validate_config(copy.deepcopy(cfg))
    run_1d = copy.deepcopy(_bench_workloads()["run-1d"]["config"])
    for section in ("sv", "gn"):  # a retired key the benchmark's configs still carry
        run_1d["reports"][section].pop("fields", None)
    assert cfg == dict(run_1d, seed=0)


def _bench_workloads():
    root = Path(__file__).resolve().parents[1]
    return json.loads((root / "bench" / "workloads.json").read_text())["workloads"]


def test_bench_workloads_stay_valid():
    """The benchmark runs these inputs from bench/workloads.json as they are."""
    workloads = _bench_workloads()
    runs = [w["config"] for w in workloads.values() if w["kind"] == "run"]
    assert runs
    for cfg in runs:
        validate_config(copy.deepcopy(cfg))
    assert set(workloads["verify-all"]["suites"]) <= set(cli_runner.SUITES)


def test_cli_import_leaves_numpy_polynomial_unloaded():
    """The benchmark's setup_s times this import; the quadrature oracle's
    Gauss-Legendre nodes (numpy.polynomial) load on its first call only."""
    src = os.path.dirname(os.path.dirname(cli_runner.__file__))
    code = "import sys, fracrd.cli_runner; print('numpy.polynomial' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
