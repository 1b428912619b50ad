import copy
import csv
import json

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from fracrd import cli_runner
from fracrd import estimate_lab as el
from fracrd.cli_runner import (
    load_config,
    main,
    run_scenario,
    sweep,
    validate_config,
)
from fracrd.errors import ConfigInvalid, EmptyValues, UnknownAxis

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
        "sv": {"ell": [2, 3], "alpha": [0.5], "fields": 5},
        "gn": {"q": 4.0, "alpha": 0.5, "fields": 5},
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
    ("reports.sv.fields", [(("reports", "sv", "fields"), 0)]),
    ("reports.gn.fields", [(("reports", "gn", "fields"), 2.7)]),
    # JSON true read as 1
    ("seed", [(("seed",), True)]),
    ("reports.weak_p", [(("reports", "weak_p"), True)]),
    ("reports.norm_p", [(("reports", "norm_p"), [2, True])]),
]

# Every field validate_config owns, each with valid and invalid values.
FIELDS = {
    ("schema_version",): [1, 2],
    ("seed",): [0, 7, -1, 1.5, "0", True],
    ("grid", "dims"): [1, 2, 0, 4, 1.0],
    ("grid", "points"): [8, 32, 10, 4, 8.0, None],
    ("grid", "extent"): [10.0, 40, 0, -1.0, "wide", float("nan")],
    ("model",): ["bimolecular", "dissipative-pair", "nope", 5, None, {"name": "x"},
                 dict(PAIR, terms=[[[-1.0, [1, 1, 1]]], [[-1.0, [1, 1]]]]),
                 dict(PAIR, terms=[[[-1.0, [1, -1]]], [[-1.0, [1, 1]]]]),
                 dict(PAIR, terms=[[[-1.0, [1, 1]]]])],
    ("diffusivities",): [[1.0, 1.0, 1.0, 1.0], [1.0, 1.0], [1.0, 0.0, 1.0, 1.0],
                         [1.0, float("inf"), 1.0, 1.0], 3, None],
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
    ("solver", "dt"): [0.1, 0.2, 0, -0.05, 0.5, "x"],
    ("solver", "horizon"): [0.1, 0.01, 0, float("inf")],
    ("solver", "alpha"): [1.0, 0.25, 0, 1.5, "x"],
    ("solver", "dealias"): [False, True, "no", 1, None],
    ("solver", "store_every"): [3, "x", 0, -3, 2.5, True],
    ("reports", "norm_p"): [[1, "inf"], [0.5], ["x"], 3, [True]],
    ("reports", "weak_p"): [1, 0, "2", None, True],
    ("reports", "holder_gamma"): [[0.25, 0.75], [1.5], [0], ["x"], 0.5],
    ("reports", "sv", "ell"): [[2, 4], [1], ["x"]],
    ("reports", "sv", "alpha"): [[0.3, 1.0], [1.5], [0]],
    ("reports", "sv", "fields"): [0, 2, "x", 2.7, True],
    ("reports", "gn", "q"): [3.0, 2.0, 10.0, "x"],
    ("reports", "gn", "alpha"): [0.9, 3.0, 0],
    ("reports", "gn", "fields"): [1, 0, "x", 2.7],
    ("reports", "ladder", "rho"): [1.2, 2.5, 0.5, "x"],
    ("reports", "ladder", "p0"): [3.0, 1.0],
    ("reports", "ladder", "eps_star"): [0.5, -1.0],
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


@pytest.mark.parametrize("path,mutations", DEFECTS, ids=[d[0] for d in DEFECTS])
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
    cfg = _demo()
    cfg["seed"] = 1
    m1 = run_scenario(_demo(), outdir=str(tmp_path / "a"))
    m2 = run_scenario(cfg, outdir=str(tmp_path / "b"))
    assert m1["files"]["sv.csv"] != m2["files"]["sv.csv"]


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
    assert not (tmp_path / "sw").exists()


def test_unwritable_output_exits_1(tmp_path, capsys):
    cfg_path = tmp_path / "demo.json"
    cfg_path.write_text(json.dumps(_tiny()))
    capsys.readouterr()
    assert main(["run", str(cfg_path), "--out", str(cfg_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write to {cfg_path / 'out'}") and err.count("\n") == 1


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
    ):
        assert main(argv + ["--out", str(tmp_path / "r2")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
    assert main(["verify", "ladder", "--out", str(tmp_path / "v")]) == 0


def test_output_root_env(tmp_path, monkeypatch):
    monkeypatch.setenv("FRACRD_OUTPUT_ROOT", str(tmp_path))
    man = run_scenario(_demo())
    assert man["output_dir"].startswith(str(tmp_path))


def test_load_config_roundtrip(tmp_path):
    p = tmp_path / "c.json"
    p.write_text(json.dumps(_demo()))
    assert load_config(p) == _demo()
