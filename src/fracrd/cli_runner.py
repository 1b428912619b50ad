"""Configuration-driven orchestration: run, sweep, verify.

A scenario is a single JSON document (versioned schema).  Runs write CSV
reports plus a manifest listing every artifact with its SHA-256 hash; given
the same config and seed the report bytes are identical.  Exit codes:
0 = all checks passed, 2 = violations recorded, 1 = execution error.
"""

from __future__ import annotations

import argparse
import copy
import csv
import hashlib
import json
import math
import os
import sys

import numpy as np

from . import estimate_lab as el
from . import heat_kernel as hk
from .errors import (
    ConfigInvalid,
    EmptyValues,
    FracRDError,
    InvalidParameter,
    OutputUnwritable,
    RhoInadmissible,
    UnknownAxis,
)
from .mild_solver import SolverConfig, save_checkpoint, solve_mild
from .rds_model import get_model, polynomial_model
from .spectral_core import Field, make_grid

SCHEMA_VERSION = 1
OUTPUT_ROOT_ENV = "FRACRD_OUTPUT_ROOT"

PROFILES = ("gaussian-bump", "two-bumps", "constant", "random-band-limited")


# ----------------------------------------------------------------------
# Config loading and validation
# ----------------------------------------------------------------------

def _as_float(x):
    if isinstance(x, bool):
        raise TypeError(f"not a number: {x!r}")
    if isinstance(x, str) and x.lower() in ("inf", "infinity"):
        return math.inf
    return float(x)


def load_config(path) -> dict:
    """The JSON object in path; raises ConfigInvalid if unreadable or not an object."""
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, ValueError) as e:
        raise ConfigInvalid([f"{path}: {e}"]) from None
    if not isinstance(cfg, dict):
        raise ConfigInvalid([f"{path}: must hold a JSON object"])
    return cfg


def _at(path, build, *args):
    """build(*args), with an input error it raises turned into ConfigInvalid
    whose message starts with the config path of the offending value."""
    try:
        return build(*args)
    except ConfigInvalid:
        raise
    except (FracRDError, AttributeError, KeyError, TypeError, ValueError) as e:
        msg = f"missing key {e}" if isinstance(e, KeyError) else str(e)
        if isinstance(e, InvalidParameter) and e.name is not None:
            path, msg = f"{path}.{e.name}", e.requirement
        raise ConfigInvalid([f"{path}: {msg}"]) from None


def validate_config(cfg: dict) -> dict:
    """Return a normalised copy of cfg; raise ConfigInvalid with one
    message per offending field, each starting with the field's config path.

    The grid, model and solver settings are built by the calls run_scenario
    makes, and the initial data and each enabled report go through the
    checks their own code applies; only rules no other code holds (schema
    version, seed, section shapes, profile count, norm exponents) are here.
    Nothing grid-sized is allocated, so every config error is reported
    before any compute.
    """
    msgs = []

    def check(path, build, *args):
        try:
            return _at(path, build, *args)
        except ConfigInvalid as e:
            msgs.extend(e.messages)

    if cfg.get("schema_version") != SCHEMA_VERSION:
        msgs.append(f"schema_version: expected {SCHEMA_VERSION}")
    if not (type(cfg.get("seed", 0)) is int and cfg.get("seed", 0) >= 0):
        msgs.append(f"seed: must be a nonnegative integer, got {cfg.get('seed')!r}")

    grid = check("grid", _grid, cfg)
    model = check("model", build_model, cfg)
    scfg = check("solver", _solver_config, cfg)

    init = cfg.get("initial_data", [])
    if not isinstance(init, list):
        msgs.append("initial_data: must be a list of profiles")
    elif model is not None and len(init) != model.m:
        msgs.append(f"initial_data: expected {model.m} profiles, got {len(init)}")
    else:
        for k, spec in enumerate(init):
            check(f"initial_data[{k}]", _check_profile, spec, grid.dims if grid else None)

    rep = cfg.get("reports", {})
    if not isinstance(rep, dict):
        msgs.append("reports: must be an object")
        rep = {}
    for p in check("reports.norm_p", list, rep.get("norm_p", [])) or []:
        try:
            if not _as_float(p) >= 1:
                msgs.append(f"reports.norm_p: exponent {p!r} below 1")
        except (TypeError, ValueError):
            msgs.append(f"reports.norm_p: bad exponent {p!r}")
    weak_p = rep.get("weak_p")
    if weak_p is not None and not (_real(weak_p) and weak_p >= 1):
        msgs.append(f"reports.weak_p: must be a real >= 1, got {weak_p!r}")
    for gamma in check("reports.holder_gamma", list, rep.get("holder_gamma", [])) or []:
        check("reports.holder_gamma", el.check_holder_gamma, gamma)
    if rep.get("sv"):
        check("reports.sv", _sv_spec, rep["sv"])
    if rep.get("gn") and grid is not None:
        check("reports.gn", _gn_spec, rep["gn"], grid.dims)
    if rep.get("ladder") and grid is not None and scfg is not None:
        check("reports.ladder", _ladder, rep["ladder"], grid.dims, scfg.alpha)

    if msgs:
        raise ConfigInvalid(msgs)
    return copy.deepcopy(cfg)


def _grid(cfg: dict):
    g = cfg["grid"]
    return make_grid(g["dims"], float(g["extent"]), g["points"])


def _solver_config(cfg: dict) -> SolverConfig:
    sol = cfg["solver"]
    return SolverConfig(
        dt=float(sol["dt"]),
        horizon=float(sol["horizon"]),
        alpha=float(sol.get("alpha", 0.5)),
        dealias=sol.get("dealias", True),
        store_every=sol.get("store_every", 1),
    )


def _inline_model(spec: dict):
    meta = {
        k: spec[k] for k in ("rho", "nu", "growth_c") if k in spec
    }
    if "isc_matrix" in spec:
        meta["isc_matrix"] = np.asarray(spec["isc_matrix"], dtype=float)
    return polynomial_model(
        spec["name"], spec["species"], spec["diffusivities"], spec["terms"], **meta
    )


def build_model(cfg: dict):
    """The model cfg names, with its diffusivities; raises ConfigInvalid."""
    spec = cfg.get("model")
    if isinstance(spec, str):
        model = _at("model", get_model, spec)
    elif isinstance(spec, dict):
        model = _at("model", _inline_model, spec)
    else:
        raise ConfigInvalid(["model: must be a registry name or inline definition"])
    if cfg.get("diffusivities"):
        model = _at("diffusivities", model.with_diffusivities, cfg["diffusivities"])
    return model


# ----------------------------------------------------------------------
# Initial data profiles
# ----------------------------------------------------------------------

def _bump(grid, center, width):
    """exp(-|x - center|^2 / (2 width^2)), |x - center| the periodic distance."""
    coords = grid.coord_arrays()
    L = grid.extent
    r2 = np.zeros(grid.shape)
    for ax in range(grid.dims):
        d = np.abs(coords[ax] - center[ax])
        d = np.minimum(d, L - d)
        r2 += d * d
    return np.exp(-r2 / (2.0 * width**2))


def _real(x) -> bool:
    return not isinstance(x, bool) and isinstance(x, (int, float))


def _finite_real(x) -> bool:
    return _real(x) and math.isfinite(x)


def _check_profile(spec, dims):
    """Raise unless spec is an initial-data entry naming a known profile
    whose keys, where given, hold: amplitude, width and floor nonnegative
    finite reals; center one finite real per axis of the dims-dimensional
    grid (any length when dims is None); separation a finite real; modes an
    integer >= 1."""
    if not isinstance(spec, dict) or spec.get("profile") not in PROFILES:
        raise InvalidParameter(f"must be an object with a profile in {PROFILES}, got {spec!r}")
    for key in ("amplitude", "width", "floor"):
        x = spec.get(key, 0.0)
        if not (_finite_real(x) and x >= 0):
            raise InvalidParameter(f"must be a nonnegative finite real, got {x!r}", key)
    if spec.get("width") == 0:
        raise InvalidParameter("must be positive, got 0", "width")
    c = spec.get("center")
    if c is not None and not (isinstance(c, list) and all(map(_finite_real, c))
                              and (dims is None or len(c) == dims)):
        raise InvalidParameter(f"must list one finite real per grid axis, got {c!r}", "center")
    if not _finite_real(spec.get("separation", 0.0)):
        raise InvalidParameter(f"must be a finite real, got {spec['separation']!r}", "separation")
    modes = spec.get("modes", 1)
    if isinstance(modes, bool) or not isinstance(modes, int) or modes < 1:
        raise InvalidParameter(f"must be an integer >= 1, got {modes!r}", "modes")


def make_profile(grid, spec: dict, rng: np.random.Generator) -> Field:
    """The initial-data field spec describes; rng is drawn from only by the
    random-band-limited profile."""
    _check_profile(spec, grid.dims)
    prof = spec["profile"]
    amp = spec.get("amplitude", 1.0)
    width = spec.get("width", grid.extent / 16.0)
    floor = spec.get("floor", 0.0)
    if prof == "constant":
        vals = np.full(grid.shape, amp)
    elif prof == "gaussian-bump":
        c = spec.get("center", [0.0] * grid.dims)
        vals = amp * _bump(grid, c, width) + floor
    elif prof == "two-bumps":
        sep = spec.get("separation", grid.extent / 4.0)
        c1 = [-sep / 2.0] + [0.0] * (grid.dims - 1)
        c2 = [sep / 2.0] + [0.0] * (grid.dims - 1)
        vals = amp * (_bump(grid, c1, width) + _bump(grid, c2, width)) + floor
    else:  # random-band-limited
        vals = random_band_limited(grid, rng, spec.get("modes", 8)).values
        span = max(float(vals.max() - vals.min()), 1e-300)
        vals = amp * (vals - vals.min()) / span + floor  # nonnegative by shift
    return Field(grid, vals)


def random_band_limited(grid, rng, modes: int = 8) -> Field:
    """Zero-mean random trigonometric polynomial (signed, for sweeps)."""
    coords = grid.coord_arrays()
    base = 2.0 * np.pi / grid.extent
    vals = np.zeros(grid.shape)
    for _ in range(modes):
        k = rng.integers(1, modes + 1, size=grid.dims)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        vals += rng.standard_normal() * np.cos(
            sum(base * k[ax] * coords[ax] for ax in range(grid.dims)) + phase
        )
    return Field(grid, vals)


# ----------------------------------------------------------------------
# Report writers
# ----------------------------------------------------------------------

def _fmt(x):
    if isinstance(x, (float, np.floating)):
        return repr(float(x))  # numpy 2's repr of its scalars reads np.float64(...)
    return str(x)


def write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(x) for x in row])


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _resolve_outdir(explicit, default_name):
    root = explicit or os.environ.get(OUTPUT_ROOT_ENV) or os.getcwd()
    path = os.path.join(root, default_name) if explicit is None else explicit
    try:
        os.makedirs(path, exist_ok=True)
        probe = os.path.join(path, ".write-probe")
        with open(probe, "w"):
            pass
        os.remove(probe)
    except OSError as e:
        raise OutputUnwritable(f"cannot write to {path}: {e}")
    return path


# ----------------------------------------------------------------------
# Inequality checks on random fields, shared by run and verify
# ----------------------------------------------------------------------

def _field_count(spec: dict) -> int:
    """The "fields" of a report spec (default 20); raises unless an integer >= 1."""
    fields = spec.get("fields", 20)
    if type(fields) is not int or fields < 1:
        raise InvalidParameter(f"must be an integer >= 1, got {fields!r}", "fields")
    return fields


def _sv_spec(sv: dict):
    """(fields, ells, alphas) of reports.sv; raises unless every gap is defined, fields >= 1."""
    fields = _field_count(sv)
    ells, alphas = sv.get("ell", [2.0, 3.0, 4.0]), sv.get("alpha", [0.3, 0.5, 0.9])
    for ell in ells:
        for al in alphas:
            el.check_sv(float(al), float(ell))
    return fields, ells, alphas


def _gn_spec(gn: dict, dims: int):
    """(fields, alpha, q) of reports.gn; raises unless the ratio is defined, fields >= 1."""
    fields = _field_count(gn)
    el.check_gn(dims, float(gn["alpha"]), float(gn["q"]))
    return fields, gn["alpha"], gn["q"]


def _sv_rows(grid, rng, fields, ells, alphas, bad) -> list:
    """Stroock-Varopoulos gaps on fresh random fields: one row
    [field, ell, alpha, gap] per gap, and a violation in bad per negative gap."""
    rows = []
    for k in range(fields):
        fld = random_band_limited(grid, rng)
        for ell in ells:
            for al in alphas:
                gap = el.stroock_varopoulos_gap(fld, float(al), float(ell))
                rows.append([k, ell, al, gap])
                if gap < -1e-8 * max(abs(gap), 1.0):
                    bad.append(f"SV gap {gap} at field {k}, ell={ell}, alpha={al}")
    return rows


def _gn_rows(grid, rng, fields, alpha, q) -> list:
    """Gagliardo-Nirenberg ratios on fresh random fields, rows [field, q, alpha, ratio]."""
    rows = []
    for k in range(fields):
        fld = random_band_limited(grid, rng)
        rows.append([k, q, alpha, el.gn_ratio(fld, float(alpha), float(q))])
    return rows


def _ladder(lad: dict, dims: int, alpha: float):
    return el.duality_ladder(
        dims, alpha, float(lad.get("rho", 1.0)),
        float(lad.get("p0", 2.0)), float(lad.get("eps_star", 0.0)),
    )


# ----------------------------------------------------------------------
# run
# ----------------------------------------------------------------------

def run_scenario(cfg: dict, outdir=None) -> dict:
    cfg = validate_config(cfg)
    outdir = _resolve_outdir(outdir or cfg.get("output_dir"), "fracrd-run")
    seed = cfg.get("seed", 0)
    rng = np.random.default_rng(seed)

    grid = _grid(cfg)
    model = build_model(cfg)
    u0 = [make_profile(grid, spec, rng) for spec in cfg["initial_data"]]
    scfg = _solver_config(cfg)
    traj = solve_mild(model, u0, scfg)

    files = []
    violations = []

    ckpt = os.path.join(outdir, "final_state.csv")
    save_checkpoint(ckpt, grid, traj.times[-1], traj.states[-1])
    files.append(ckpt)

    rep = cfg.get("reports", {})
    norm_p = [_as_float(p) for p in rep.get("norm_p", [2.0])]
    weak_p = rep.get("weak_p")
    # the weak-versus-strong check needs the strong L^weak_p(Q) norm even
    # when norms.csv does not list weak_p
    strong_p = norm_p if weak_p is None else list(dict.fromkeys(norm_p + [float(weak_p)]))
    report = el.norm_report(traj, strong_p, weak_p=weak_p)
    rows = []
    for (i, p), val in sorted(report.spacetime.items()):
        if p in norm_p:
            rows.append([i, "inf" if math.isinf(p) else p, val])
    write_csv(os.path.join(outdir, "norms.csv"),
              ["species", "p", "spacetime_norm"], rows)
    files.append(os.path.join(outdir, "norms.csv"))
    if weak_p is not None:
        for i, wn in enumerate(report.weak_norms):
            if wn > report.spacetime[(i, weak_p)] * (1.0 + 1e-12):
                violations.append(f"weak-L{weak_p} above strong for species {i}")

    write_csv(os.path.join(outdir, "windowed_sup.csv"),
              ["window", "sup"], list(enumerate(report.windowed_sup)))
    files.append(os.path.join(outdir, "windowed_sup.csv"))

    vd = el.accumulate_v(traj, model.d)
    if not vd.b_bounds_ok:
        violations.append(
            f"b outside [{1.0 / max(model.d)}, {1.0 / min(model.d)}]: "
            f"[{vd.b_min}, {vd.b_max}]"
        )
    write_csv(os.path.join(outdir, "b_bounds.csv"),
              ["b_min", "b_max", "lower", "upper", "ok"],
              [[vd.b_min, vd.b_max, 1.0 / max(model.d), 1.0 / min(model.d),
                vd.b_bounds_ok]])
    files.append(os.path.join(outdir, "b_bounds.csv"))

    rows = []
    for gamma in rep.get("holder_gamma", []):
        sp, pa = el.holder_seminorm(vd, float(gamma), seed=seed)
        rows.append([gamma, sp, pa])
    if rows:
        write_csv(os.path.join(outdir, "holder.csv"),
                  ["gamma", "space", "parabolic"], rows)
        files.append(os.path.join(outdir, "holder.csv"))

    if rep.get("sv"):
        rows = _sv_rows(grid, rng, *_sv_spec(rep["sv"]), violations)
        write_csv(os.path.join(outdir, "sv.csv"),
                  ["field", "ell", "alpha", "gap"], rows)
        files.append(os.path.join(outdir, "sv.csv"))

    gn = rep.get("gn")
    if gn:
        rows = _gn_rows(grid, rng, *_gn_spec(gn, grid.dims))
        rows.append(["max", gn["q"], gn["alpha"], max(r[-1] for r in rows)])
        write_csv(os.path.join(outdir, "gn.csv"),
                  ["field", "q", "alpha", "ratio"], rows)
        files.append(os.path.join(outdir, "gn.csv"))

    if rep.get("ladder"):
        ladder = _ladder(rep["ladder"], grid.dims, scfg.alpha)
        with open(os.path.join(outdir, "ladder.json"), "w") as fh:
            json.dump(vars(ladder), fh, indent=2, sort_keys=True)
        files.append(os.path.join(outdir, "ladder.json"))
        if ladder.diverged:
            violations.append("exponent ladder failed to terminate")

    for d in traj.step_diagnostics:
        sup = max(d.sup_value)
        if min(d.min_value) < -1e-8 * max(sup, 1.0):
            violations.append(f"negativity {min(d.min_value)} beyond tolerance")
            break

    manifest = {
        "schema_version": SCHEMA_VERSION,
        "seed": seed,
        "output_dir": outdir,
        "blowup_time": traj.blowup_time,
        "files": {os.path.basename(p): _sha256(p) for p in sorted(files)},
        "violations": violations,
        "passed": not violations,
    }
    with open(os.path.join(outdir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    return manifest


# ----------------------------------------------------------------------
# sweep
# ----------------------------------------------------------------------

_AXES = {
    "alpha": ("solver", "alpha"),
    "dt": ("solver", "dt"),
    "points": ("grid", "points"),
    "extent": ("grid", "extent"),
    "rho": ("reports", "ladder", "rho"),
    "p0": ("reports", "ladder", "p0"),
}


def sweep(cfg: dict, axis: str, values, outdir=None) -> list:
    """One scenario per value; returns summary rows keyed by the axis value."""
    if axis not in _AXES:
        raise UnknownAxis(f"unknown sweep axis {axis!r}; known: {sorted(_AXES)}")
    values = list(values)
    if not values:
        raise EmptyValues("sweep needs at least one value")
    subs, msgs = [], []
    for v in values:
        sub = copy.deepcopy(cfg)
        node = sub
        path = _AXES[axis]
        for key in path[:-1]:
            node = node.setdefault(key, {})
        # a non-integral point count passes through for make_grid to reject
        node[path[-1]] = int(v) if axis == "points" and float(v).is_integer() else float(v)
        sub.pop("output_dir", None)
        try:
            validate_config(sub)
        except ConfigInvalid as e:
            msgs.extend(f"{axis}={v}: {m}" for m in e.messages)
        subs.append(sub)
    if msgs:
        raise ConfigInvalid(msgs)
    outdir = _resolve_outdir(outdir or cfg.get("output_dir"), "fracrd-sweep")
    rows = []
    for v, sub in zip(values, subs):
        man = run_scenario(sub, outdir=os.path.join(outdir, f"{axis}={v}"))
        rows.append([v, man["passed"], len(man["violations"]),
                     man["blowup_time"] if man["blowup_time"] is not None else ""])
    write_csv(os.path.join(outdir, "sweep.csv"),
              [axis, "passed", "violations", "blowup_time"], rows)
    return rows


# ----------------------------------------------------------------------
# verify suites
# ----------------------------------------------------------------------

def _suite_kernel(outdir, seed):
    rows, bad = [], []
    g = make_grid(1, 200.0, 1024)
    for alpha, exact in ((0.5, 1.0 / np.pi), (1.0, (4.0 * np.pi) ** -0.5)):
        spec = hk.KernelSpec(alpha, 1.0, g)
        peak = float(hk.heat_kernel_field(spec, 1.0).values[0])
        err = abs(peak - exact) / exact
        rows.append(["peak", alpha, peak, exact, err])
        if err > 1e-4:
            bad.append(f"kernel peak alpha={alpha} off by {err:.3g}")
    spec = hk.KernelSpec(0.5, 1.0, g)
    diag = hk.kernel_diagnostics(spec, [0.1, 0.2, 0.4])
    rows.append(["selfsim", 0.5, diag["self_similarity_residual"], 0.0, ""])
    if diag["self_similarity_residual"] > 1e-10:
        bad.append("self-similarity residual above 1e-10")
    fits = [
        (0.5, 1.0, math.inf, 0.0),
        (0.75, 1.0, 2.0, 0.0),
        (0.5, 1.0, math.inf, 0.25),
    ]
    for alpha, r, p, beta in fits:
        spec = hk.KernelSpec(alpha, 1.0, g)
        times = np.geomspace(0.05, 20.0, 24)
        repf = hk.smoothing_rate_fit(spec, r, p, times, beta=beta)
        rows.append([f"slope b={beta}", alpha, repf.fitted_slope,
                     repf.predicted_slope, repf.relative_error])
        if repf.relative_error > 0.05:
            bad.append(f"smoothing slope off by {repf.relative_error:.3g}")
    write_csv(os.path.join(outdir, "kernel.csv"),
              ["check", "alpha", "value", "expected", "error"], rows)
    return ["kernel.csv"], bad


def _suite_inequalities(outdir, seed):
    rows, bad = [], []
    rng = np.random.default_rng(seed)
    g = make_grid(1, 2.0 * np.pi, 128)
    sv = _sv_rows(g, rng, 100, (2.0, 3.0, 4.0), (0.3, 0.5, 0.9), bad)
    gn = _gn_rows(g, rng, 100, 0.5, 4.0)
    rows += [["sv"] + r for r in sv] + [["gn"] + r for r in gn]
    rows.append(["gn-max", "", 4.0, 0.5, max(r[-1] for r in gn)])
    times = np.linspace(0.0, 4.0, 801)
    for mu in (0.5, 1.0, 2.0):
        for k in range(50):
            fld = random_band_limited(g, rng)
            ftraj = np.exp(-times)[:, None] * fld.values[None, :]
            ratio = el.maximal_reg_ratio(ftraj, times, 0.5, mu, g)
            rows.append(["maxreg", k, mu, 0.5, ratio])
            if ratio > 1.05 / mu:
                bad.append(f"maximal regularity ratio {ratio} > 1.05/{mu}")
    write_csv(os.path.join(outdir, "inequalities.csv"),
              ["check", "field", "param", "alpha", "value"], rows)
    return ["inequalities.csv"], bad


def _suite_ladder(outdir, seed):
    rows, bad = [], []
    lad = el.duality_ladder(2, 0.75, 1.0, 2.0)
    rows.append(["worked-1", lad.sequence, lad.termination_index])
    if lad.termination_index != 1 or abs(lad.sequence[1] - 14.0) > 1e-12:
        bad.append("ladder (N=2, a=0.75, rho=1, p0=2) mismatch")
    lad = el.duality_ladder(3, 0.5, 1.2, 2.1)
    rows.append(["worked-2", lad.sequence, lad.termination_index])
    if lad.termination_index != 2:
        bad.append("ladder (N=3, a=0.5, rho=1.2, p0=2.1) mismatch")
    rng = np.random.default_rng(seed)
    for k in range(200):
        dims = int(rng.integers(1, 4))
        alpha = float(rng.uniform(0.1, 0.99))
        rho = float(rng.uniform(
            1.0, min(1.0 + 4.0 * alpha / (dims + 2.0 * alpha), 2.0)
        ))
        p0 = float(rng.uniform(2.0 + 1e-6, 4.0))
        lad = el.duality_ladder(dims, alpha, rho, p0)
        seq = lad.sequence
        mono = all(b > a for a, b in zip(seq, seq[1:]))
        rows.append([f"sweep-{k}", seq[-1], lad.termination_index])
        if not mono:
            bad.append(f"non-monotone ladder at sweep {k}")
    try:
        el.duality_ladder(2, 0.5, 2.5, 3.0)
        bad.append("rho=2.5 not rejected")
    except RhoInadmissible:
        rows.append(["rho-reject", 2.5, "ok"])
    write_csv(os.path.join(outdir, "ladder.csv"),
              ["check", "value", "termination"], rows)
    return ["ladder.csv"], bad


def _suite_bimolecular(outdir, seed):
    rows, bad = [], []
    g = make_grid(1, 10.0, 8)
    model = get_model("bimolecular")
    u0 = [Field(g, np.full(g.shape, c)) for c in (1.0, 0.0, 1.0, 0.0)]
    cfg = SolverConfig(dt=1e-3, horizon=1.0, alpha=0.5, store_every=100)
    traj = solve_mild(model, u0, cfg)
    u1 = float(traj.states[-1][0][0])
    exact = 0.5 * (1.0 + math.exp(-2.0))  # du1/dt = -(2 u1 - 1), u1(0) = 1
    rows.append(["ode-u1", u1, exact, abs(u1 - exact)])
    if abs(u1 - exact) > 1e-6:
        bad.append(f"ODE reduction error {abs(u1 - exact):.3g}")
    mass0 = sum(traj.step_diagnostics[0].total_mass)
    for t, d in zip(traj.step_times, traj.step_diagnostics):
        if abs(sum(d.total_mass) - mass0) > 1e-10 * mass0 * max(t, 1.0):
            bad.append(f"mass drift at t={t}")
            break
    rows.append(["mass", sum(traj.step_diagnostics[-1].total_mass), mass0, ""])
    vd = el.accumulate_v(traj, model.d)
    rows.append(["b-bounds", vd.b_min, vd.b_max, vd.b_bounds_ok])
    if not vd.b_bounds_ok:
        bad.append("b-coefficient outside bounds")
    write_csv(os.path.join(outdir, "bimolecular.csv"),
              ["check", "value", "reference", "extra"], rows)
    return ["bimolecular.csv"], bad


SUITES = {
    "kernel": _suite_kernel,
    "inequalities": _suite_inequalities,
    "ladder": _suite_ladder,
    "bimolecular": _suite_bimolecular,
}


def run_verify(names, outdir=None, seed: int = 0) -> dict:
    unknown = [name for name in names if name not in SUITES]
    if unknown:
        raise ConfigInvalid([f"unknown suites {unknown}; known: {sorted(SUITES)}"])
    outdir = _resolve_outdir(outdir, "fracrd-verify")
    files, violations = [], []
    for name in names:
        written, bad = SUITES[name](outdir, seed)
        files.extend(os.path.join(outdir, w) for w in written)
        violations.extend(f"{name}: {b}" for b in bad)
    manifest = {
        "suites": list(names),
        "seed": seed,
        "files": {os.path.basename(p): _sha256(p) for p in sorted(files)},
        "violations": violations,
        "passed": not violations,
    }
    with open(os.path.join(outdir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    return manifest


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------

def main(argv=None) -> int:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None)
    common.add_argument("--out", default=None)

    ap = argparse.ArgumentParser(prog="fracrd")
    sub = ap.add_subparsers(dest="verb", required=True)

    p_run = sub.add_parser("run", parents=[common])
    p_run.add_argument("config")

    p_sweep = sub.add_parser("sweep", parents=[common])
    p_sweep.add_argument("config")
    p_sweep.add_argument("--axis", required=True)
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated numeric list")

    p_ver = sub.add_parser("verify", parents=[common])
    p_ver.add_argument("suite", nargs="+", help=f"any of {', '.join(sorted(SUITES))}")

    try:
        args = ap.parse_args(argv)
    except SystemExit as e:  # argparse exits 2 on a usage error; 2 means violations here
        return 1 if e.code else 0
    try:
        if args.verb != "verify":
            cfg = load_config(args.config)
            if args.seed is not None:
                cfg["seed"] = args.seed
        if args.verb == "run":
            man = run_scenario(cfg, outdir=args.out)
        elif args.verb == "sweep":
            try:
                values = [float(v) for v in args.values.split(",") if v]
            except ValueError:
                raise ConfigInvalid(
                    [f"--values: expected comma-separated numbers, got {args.values!r}"]
                ) from None
            rows = sweep(cfg, args.axis, values, outdir=args.out)
            man = {"passed": all(r[1] for r in rows)}
        else:
            man = run_verify(args.suite, outdir=args.out,
                             seed=args.seed if args.seed is not None else 0)
        if not man["passed"]:
            print("violations recorded", file=sys.stderr)
            return 2
        return 0
    except FracRDError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
