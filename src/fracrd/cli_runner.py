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
from types import SimpleNamespace

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
    ZeroField,
    as_int,
    as_real,
    in_range,
)
from .mild_solver import SolverConfig, save_checkpoint, solve_mild
from .rds_model import get_model, polynomial_model
from .spectral_core import Field, irfft, make_grid

SCHEMA_VERSION = 1
OUTPUT_ROOT_ENV = "FRACRD_OUTPUT_ROOT"

PROFILES = ("gaussian-bump", "two-bumps", "constant", "random-band-limited")
# the SV (ell, alpha) grid: reports.sv's defaults, and verify inequalities' grid
SV_ELL, SV_ALPHA = (2.0, 3.0, 4.0), (0.3, 0.5, 0.9)


# ----------------------------------------------------------------------
# Config loading and validation
# ----------------------------------------------------------------------

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


def _shaped(x, kind, name=None):
    """x when it is a kind, dict or list (a tuple passes as a list); raises InvalidParameter."""
    if not isinstance(x, (list, tuple) if kind is list else kind):
        raise InvalidParameter(f"must be {'a list' if kind is list else 'an object'}, got {x!r}", name)
    return x


def _at(path, build, *args):
    """build(*args), with an input error it raises turned into ConfigInvalid whose
    message starts with the config path of the offending value ("" is the top level)."""
    try:
        return build(*args)
    except ConfigInvalid:
        raise
    except (FracRDError, AttributeError, KeyError, TypeError, ValueError) as e:
        msg = f"missing key {e}" if isinstance(e, KeyError) else str(e)
        if isinstance(e, InvalidParameter) and e.name is not None:
            path, msg = f"{path}.{e.name}".lstrip("."), e.requirement
        raise ConfigInvalid([f"{path}: {msg}"]) from None


def validate_config(cfg: dict) -> SimpleNamespace:
    """The scenario cfg describes: seed, grid, model, solver (a SolverConfig),
    initial_data (the profile specs), norm_p (norm exponents as floats, [2.0]
    by default), weak_p (a float or None), holder_gamma (floats) and the sv,
    gn and ladder report specs (None when disabled).  Raises ConfigInvalid
    with one message per offending field, each starting with its config path.

    The initial data and each enabled report go through the checks their own
    code applies; only rules no other code holds (schema version, seed,
    section shapes, profile count) are here.  Nothing
    grid-sized is allocated, so every config error is reported before any
    compute.
    """
    msgs = []

    def check(path, build, *args):
        try:
            return _at(path, build, *args)
        except ConfigInvalid as e:
            msgs.extend(e.messages)

    if cfg.get("schema_version") != SCHEMA_VERSION:
        msgs.append(f"schema_version: expected {SCHEMA_VERSION}")
    seed = check("", as_int, cfg.get("seed", 0), "seed")

    grid = check("grid", _grid, cfg)
    model = check("model", build_model, cfg)
    scfg = check("solver", _solver_config, cfg)

    init = check("initial_data", _shaped, cfg.get("initial_data", []), list)
    if init is not None and model is not None and len(init) != model.m:
        msgs.append(f"initial_data: expected {model.m} profiles, got {len(init)}")
    else:
        for k, spec in enumerate(init or []):
            check(f"initial_data[{k}]", _check_profile, spec, grid.dims if grid else None)

    rep = check("reports", _shaped, cfg.get("reports", {}), dict) or {}
    norm_p = [check("reports", el.norm_exponent, p, "norm_p")
              for p in check("reports.norm_p", _shaped, rep.get("norm_p", [2.0]), list) or []]
    weak_p = rep.get("weak_p")
    if weak_p is not None:  # finite, as its strong norm is a row of the norm report
        weak_p = check("reports", el.norm_exponent, weak_p, "weak_p", True)
    gammas = check("reports.holder_gamma", _shaped, rep.get("holder_gamma", []), list) or []
    holder_gamma = [check("reports.holder_gamma", el.check_holder_gamma, g) for g in gammas]
    sv = gn = ladder = None  # a section present and not null is on; {} takes every default
    if rep.get("sv") is not None:
        sv = check("reports.sv", _sv_spec, rep["sv"])
    if rep.get("gn") is not None and grid is not None:
        gn = check("reports.gn", _gn_spec, rep["gn"], grid.dims)
    if rep.get("ladder") is not None and grid is not None and scfg is not None:
        ladder = check("reports.ladder", _ladder, rep["ladder"], grid.dims, scfg.alpha)

    if msgs:
        raise ConfigInvalid(msgs)
    return SimpleNamespace(seed=seed, grid=grid, model=model, solver=scfg,
                           initial_data=init, norm_p=norm_p, weak_p=weak_p,
                           holder_gamma=holder_gamma, sv=sv, gn=gn, ladder=ladder)


def _grid(cfg: dict):
    g = _shaped(cfg["grid"], dict)
    return make_grid(g["dims"], as_real(g["extent"], "extent"), g["points"])


def _solver_config(cfg: dict) -> SolverConfig:
    """The SolverConfig of cfg's solver section; SolverConfig holds the defaults."""
    sol = _shaped(cfg["solver"], dict)
    given = {key: sol[key] for key in ("alpha", "dealias", "store_every") if key in sol}
    return SolverConfig(as_real(sol["dt"], "dt"), as_real(sol["horizon"], "horizon"), **given)


def _inline_model(spec: dict):
    meta = {k: spec[k] for k in ("rho", "nu", "growth_c", "isc_matrix") if k in spec}
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
    if cfg.get("diffusivities") is not None:
        model = _at("", model.with_diffusivities, cfg["diffusivities"])
    return model


# ----------------------------------------------------------------------
# Initial data profiles
# ----------------------------------------------------------------------

def _bump(grid, center, width):
    """exp(-|x - center|^2 / (2 width^2)), |x - center| the periodic distance."""
    r2 = grid.wrapped_r2(x - c for x, c in zip(grid.coord_arrays(), center))
    return np.exp(-r2 / (2.0 * width**2))


def _check_profile(spec, dims):
    """Raise unless spec is an initial-data entry naming a known profile
    whose keys, where given, hold: amplitude and floor in [0, inf), width in
    (0, inf); center one finite real per axis of the dims-dimensional
    grid (any length when dims is None); separation a finite real; modes an
    integer >= 1."""
    if not isinstance(spec, dict) or spec.get("profile") not in PROFILES:
        raise InvalidParameter(f"must be an object with a profile in {PROFILES}, got {spec!r}")
    for key, interval in (("amplitude", "[0, inf)"), ("width", "(0, inf)"), ("floor", "[0, inf)")):
        if key in spec:
            in_range(spec[key], key, interval)
    c = spec.get("center", [0.0] * (dims or 0))
    if not isinstance(c, list) or dims is not None and len(c) != dims:
        raise InvalidParameter(f"must list one finite real per grid axis, got {c!r}", "center")
    for x in c:
        as_real(x, "center", finite=True)
    as_real(spec.get("separation", 0.0), "separation", finite=True)
    as_int(spec.get("modes", 1), "modes", lo=1)


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
    """Random trigonometric polynomial (signed): modes terms
    a cos(2 pi k.x / L + phase), k in {1..modes}^N, zero-mean while modes < n
    (the points per axis).  Built as the Fourier coefficients a e^(i phase)
    n^N / 2 at k and their conjugates at -k, both folded onto the grid, and
    one inverse transform."""
    n = grid.points_per_axis
    spectrum = np.zeros(grid.shape, dtype=complex)
    for _ in range(modes):
        k = rng.integers(1, modes + 1, size=grid.dims)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        c = rng.standard_normal() * np.exp(1j * phase) * grid.node_count / 2.0
        spectrum[tuple(k % n)] += c
        spectrum[tuple(-k % n)] += c.conjugate()
    return Field(grid, irfft(spectrum[..., : n // 2 + 1], grid))


# ----------------------------------------------------------------------
# Report writers
# ----------------------------------------------------------------------

def write_csv(outdir, name, header, rows) -> str:
    """Write outdir/name, the header row then rows; return name."""
    with open(os.path.join(outdir, name), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)
    return name


def write_json(outdir, name, obj) -> str:
    """Write obj to outdir/name as indented JSON with sorted keys; return name."""
    with open(os.path.join(outdir, name), "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
    return name


def write_manifest(outdir, files, violations, **fields) -> dict:
    """Write and return outdir/manifest.json: fields, the SHA-256 of each
    file named in files, the violations and whether there are none."""
    manifest = dict(fields, violations=violations, passed=not violations,
                    files={name: _sha256(os.path.join(outdir, name)) for name in files})
    write_json(outdir, "manifest.json", manifest)
    return manifest


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _resolve_outdir(explicit, default_name):
    path = explicit if explicit is not None else os.path.join(
        os.environ.get(OUTPUT_ROOT_ENV) or os.getcwd(), default_name)
    try:
        os.makedirs(path, exist_ok=True)
        probe = os.path.join(path, ".write-probe")
        with open(probe, "w"):
            pass
        os.remove(probe)
    except (OSError, TypeError) as e:  # TypeError: a config output_dir that is not a path
        raise OutputUnwritable(f"cannot write to {path}: {e}")
    return os.fspath(path)


# ----------------------------------------------------------------------
# Inequality checks, shared by run (on its species) and verify (on random fields)
# ----------------------------------------------------------------------

def _sv_spec(sv: dict):
    """(ells, alphas) of reports.sv; raises unless every gap is defined."""
    sv = _shaped(sv, dict)
    ells = _shaped(sv.get("ell", SV_ELL), list, "ell")
    alphas = _shaped(sv.get("alpha", SV_ALPHA), list, "alpha")
    el.check_sv([as_real(al, "alpha", finite=True) for al in alphas], ells)
    return ells, alphas


def _gn_spec(gn: dict, dims: int):
    """(q, alpha) of reports.gn; raises unless the ratio is defined."""
    gn = _shaped(gn, dict)
    el.check_gn(dims, gn["alpha"], gn["q"])
    return gn["q"], gn["alpha"]


def _sv_rows(items, where, ells, alphas, bad) -> list:
    """Stroock-Varopoulos gaps of the (key, Field) pairs in items, rows [*key, ell,
    alpha, gap]; a gap below -1e-8 max|v|^ell |Omega| adds a violation to bad, at
    where.format(*key): the gap is homogeneous of degree ell in v, its round-off too."""
    rows = []
    for key, fld in items:
        gaps = el.stroock_varopoulos_gaps(fld, alphas, ells)
        sup, vol = np.abs(fld.values).max(), fld.grid.extent ** fld.grid.dims
        for ell, row in zip(ells, gaps.tolist()):
            floor = -1e-8 * sup ** float(ell) * vol
            for al, gap in zip(alphas, row):
                rows.append([*key, ell, al, gap])
                if not gap >= floor:  # a NaN gap fails too
                    bad.append(f"SV gap {gap} at {where.format(*key)}, ell={ell}, alpha={al}")
    return rows


def _gn_rows(items, q, alpha) -> list:
    """Gagliardo-Nirenberg ratios of the (key, Field) pairs in items, rows
    [*key, q, alpha, ratio]; a constant field has no ratio and no row."""
    rows = []
    for key, fld in items:
        try:
            rows.append([*key, q, alpha, el.gn_ratio(fld, alpha, q)])
        except ZeroField:
            pass
    return rows


def _ladder(lad: dict, dims: int, alpha: float):
    lad = _shaped(lad, dict)
    try:
        return el.duality_ladder(dims, alpha, lad.get("rho", 1.0), lad.get("p0", 2.0),
                                 lad.get("eps_star", 0.0))
    except InvalidParameter as e:
        if e.name != "alpha":
            raise
        raise ConfigInvalid([f"solver.alpha: {e.requirement}, as reports.ladder requires"]) from None


# ----------------------------------------------------------------------
# run
# ----------------------------------------------------------------------

def run_scenario(cfg: dict, outdir=None) -> dict:
    return _run(validate_config(cfg), outdir or cfg.get("output_dir"))


def _run(sc, outdir) -> dict:
    """Run the validate_config scenario sc; write its reports and manifest to outdir."""
    outdir = _resolve_outdir(outdir, "fracrd-run")
    grid, model = sc.grid, sc.model
    rng = np.random.default_rng(sc.seed)
    u0 = [make_profile(grid, spec, rng) for spec in sc.initial_data]
    traj = solve_mild(model, u0, sc.solver)

    save_checkpoint(os.path.join(outdir, "final_state.csv"), grid, traj.times[-1], traj.states[-1])
    files = ["final_state.csv"]
    violations = []

    norm_p, weak_p = sc.norm_p, sc.weak_p
    # the weak-versus-strong check needs the strong L^weak_p(Q) norm even
    # when norms.csv does not list weak_p (a repeated p is one entry of the report)
    report = el.norm_report(traj, norm_p if weak_p is None else norm_p + [weak_p], weak_p=weak_p)
    rows = [[i, p, val] for (i, p), val in sorted(report.spacetime.items()) if p in norm_p]
    files.append(write_csv(outdir, "norms.csv", ["species", "p", "spacetime_norm"], rows))
    if weak_p is not None:
        for i, wn in enumerate(report.weak_norms):
            if wn > report.spacetime[(i, weak_p)] * (1.0 + 1e-12):
                violations.append(f"weak-L{weak_p:g} above strong for species {i}")

    files.append(write_csv(outdir, "windowed_sup.csv", ["window", "sup"],
                           list(enumerate(report.windowed_sup))))

    vd = el.accumulate_v(traj, model.d)
    lo, hi = 1.0 / max(model.d), 1.0 / min(model.d)
    if not vd.b_bounds_ok:
        violations.append(f"b outside [{lo}, {hi}]: [{vd.b_min}, {vd.b_max}]")
    files.append(write_csv(outdir, "b_bounds.csv", ["b_min", "b_max", "lower", "upper", "ok"],
                           [[vd.b_min, vd.b_max, lo, hi, vd.b_bounds_ok]]))

    rows = []
    for gamma in sc.holder_gamma:
        sp, pa = el.holder_seminorm(vd, gamma, seed=sc.seed)
        rows.append([gamma, sp, pa])
    if rows:
        files.append(write_csv(outdir, "holder.csv", ["gamma", "space", "parabolic"], rows))

    if sc.sv is not None or sc.gn is not None:
        # each species of the final state and of the stored state of largest sup
        peak = int(np.argmax([np.abs(s).max() for s in traj.states]))
        species = [((i, traj.times[k]), Field(grid, traj.states[k][i]))
                   for k in sorted({peak, len(traj.states) - 1}) for i in range(model.m)]
    if sc.sv is not None:
        rows = _sv_rows(species, "species {}, t {}", *sc.sv, violations)
        files.append(write_csv(outdir, "sv.csv", ["species", "t", "ell", "alpha", "gap"], rows))

    if sc.gn is not None:  # of the mean-free parts: constants have zero seminorm on the box
        rows = _gn_rows(((key, Field(grid, f.values - f.values.mean())) for key, f in species),
                        *sc.gn)
        if rows:  # the largest ratio, at its t
            rows.append(["max", *max(rows, key=lambda r: r[-1])[1:]])
        files.append(write_csv(outdir, "gn.csv", ["species", "t", "q", "alpha", "ratio"], rows))

    if sc.ladder is not None:
        files.append(write_json(outdir, "ladder.json", vars(sc.ladder)))
        if sc.ladder.diverged:
            violations.append("exponent ladder failed to terminate")

    rec = traj.step_diagnostics
    low = rec.min_value.min(axis=1)
    neg = np.flatnonzero(low < -1e-8 * np.maximum(rec.sup_value.max(axis=1), 1.0))
    if neg.size:
        violations.append(f"negativity {low[neg[0]]} beyond tolerance")

    return write_manifest(outdir, files, violations, schema_version=SCHEMA_VERSION,
                          seed=sc.seed, output_dir=outdir, blowup_time=traj.blowup_time)


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
    scenarios, msgs = [], []
    for v in values:
        sub = copy.deepcopy(cfg)
        node = sub
        path = _AXES[axis]
        for depth, key in enumerate(path[:-1], 1):
            node = _at(".".join(path[:depth]), _shaped, node.setdefault(key, {}), dict)
        try:
            x = _at(".".join(path), as_real, v)
            # a non-integral point count passes through for make_grid to reject
            node[path[-1]] = int(x) if axis == "points" and x.is_integer() else x
            scenarios.append(validate_config(sub))
        except ConfigInvalid as e:
            msgs.extend(f"{axis}={v}: {m}" for m in e.messages)
    if msgs:
        raise ConfigInvalid(msgs)
    outdir = _resolve_outdir(outdir or cfg.get("output_dir"), "fracrd-sweep")
    rows = []
    for v, sc in zip(values, scenarios):
        man = _run(sc, os.path.join(outdir, f"{axis}={v}"))
        rows.append([v, man["passed"], len(man["violations"]), man["blowup_time"]])
    write_csv(outdir, "sweep.csv", [axis, "passed", "violations", "blowup_time"], rows)
    return rows


# ----------------------------------------------------------------------
# verify suites
# ----------------------------------------------------------------------

def _suite_kernel(seed):
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
    return ["check", "alpha", "value", "expected", "error"], rows, bad


MAXREG_GROUP = 2  # forcings per maximal_reg_ratio call; larger groups raise peak RSS


def _suite_inequalities(seed):
    rows, bad = [], []
    rng = np.random.default_rng(seed)
    g = make_grid(1, 2.0 * np.pi, 128)
    def fields():  # drawn lazily: SV's 100 first, then GN's
        return (((k,), random_band_limited(g, rng)) for k in range(100))

    sv = _sv_rows(fields(), "field {}", SV_ELL, SV_ALPHA, bad)
    gn = _gn_rows(fields(), 4.0, 0.5)
    rows += [["sv"] + r for r in sv] + [["gn"] + r for r in gn]
    rows.append(["gn-max", "", 4.0, 0.5, max(r[-1] for r in gn)])
    times = np.linspace(0.0, 4.0, 801)
    decay = np.exp(-times)[:, None, None]
    for mu in (0.5, 1.0, 2.0):
        for k0 in range(0, 50, MAXREG_GROUP):
            flds = np.stack([random_band_limited(g, rng).values
                             for _ in range(min(MAXREG_GROUP, 50 - k0))])
            ratios = el.maximal_reg_ratio(decay * flds, times, 0.5, mu, g)
            for k, ratio in enumerate(ratios.tolist(), k0):
                rows.append(["maxreg", k, mu, 0.5, ratio])
                if ratio > 1.05 / mu:
                    bad.append(f"maximal regularity ratio {ratio} > 1.05/{mu}")
    return ["check", "field", "param", "alpha", "value"], rows, bad


def _suite_ladder(seed):
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
        rho = float(rng.uniform(1.0, el.rho_admissible_max(dims, alpha)))
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
    return ["check", "value", "termination"], rows, bad


def _suite_bimolecular(seed):
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
    mass = sum(traj.step_diagnostics.total_mass.T)  # species added left to right
    drift = np.abs(mass - mass[0]) > 1e-10 * mass[0] * np.maximum(traj.step_times, 1.0)
    if drift.any():
        bad.append(f"mass drift at t={traj.step_times[drift.argmax()]}")
    rows.append(["mass", mass[-1], mass[0], ""])
    vd = el.accumulate_v(traj, model.d)
    rows.append(["b-bounds", vd.b_min, vd.b_max, vd.b_bounds_ok])
    if not vd.b_bounds_ok:
        bad.append("b-coefficient outside bounds")
    return ["check", "value", "reference", "extra"], rows, bad


# each suite maps a seed to (header, rows, violations); run_verify writes {name}.csv
SUITES = {
    "kernel": _suite_kernel,
    "inequalities": _suite_inequalities,
    "ladder": _suite_ladder,
    "bimolecular": _suite_bimolecular,
}


def run_verify(names, outdir=None, seed: int = 0) -> dict:
    seed = as_int(seed, "seed")
    unknown = [name for name in names if name not in SUITES]
    if unknown:
        raise ConfigInvalid([f"unknown suites {unknown}; known: {sorted(SUITES)}"])
    outdir = _resolve_outdir(outdir, "fracrd-verify")
    files, violations = [], []
    for name in names:
        header, rows, bad = SUITES[name](seed)
        files.append(write_csv(outdir, f"{name}.csv", header, rows))
        violations.extend(f"{name}: {b}" for b in bad)
    return write_manifest(outdir, files, violations, suites=list(names), seed=seed)


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
