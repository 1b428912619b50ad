"""Outside-in tracing of fracrd for the per-layer metrics.

The tracer replaces functions at the names their callers resolve at call
time (module attributes), records one span per call in memory and leaves
the program's code untouched.  ``install`` and ``uninstall`` swap the names,
so untraced and traced calls can alternate in one process.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import importlib.util
import os
import time

import numpy as np

FFT_NAMES = ("fft", "ifft", "rfft", "irfft", "fft2", "ifft2", "rfft2", "irfft2",
             "fftn", "ifftn", "rfftn", "irfftn")
CLI_NAMES = ("solve_mild", "save_checkpoint", "make_profile", "validate_config")
FRACRD_MODULES = ("spectral_core", "heat_kernel", "rds_model", "mild_solver",
                  "estimate_lab", "cli_runner")


def _public_functions(module):
    """Public plain functions defined in ``module``."""
    return [name for name, obj in vars(module).items()
            if not name.startswith("_") and callable(obj) and not isinstance(obj, type)
            and getattr(obj, "__module__", None) == module.__name__]


class Tracer:
    """Span recorder.  A span is (name id, start, end, parent span, call id)."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.spans = []
        self.extra = {}  # span id -> bytes moved or solver statistics
        self._stack = []
        self.call_id = -1
        self._patches = []  # (namespace, attribute, original, wrapper)

    # -- recording -------------------------------------------------------

    def wrap(self, name, fn, on_exit=None):
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        spans, stack, extra, clock = self.spans, self._stack, self.extra, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[sid] = (nid, t0, t1, parent, self.call_id)
            if on_exit is not None:
                extra[sid] = on_exit(args, out)
            return out

        traced.bench_traced = True
        return traced

    # -- installation ----------------------------------------------------

    def _patch(self, namespace, attr, wrapper):
        self._patches.append((namespace, attr, getattr(namespace, attr), wrapper))

    def prepare(self):
        """Build the wrappers for every traced name (once per process)."""
        from fracrd import cli_runner as cli
        from fracrd import estimate_lab as el
        from fracrd import heat_kernel as hk

        fracrd_mods = [importlib.import_module(f"fracrd.{m}") for m in FRACRD_MODULES]

        # Transforms: the numpy.fft and scipy.fft entry points, plus any
        # fracrd module global bound to one of them by a from-import.
        fft_nss = [np.fft]
        if importlib.util.find_spec("scipy") is not None:
            fft_nss.append(importlib.import_module("scipy.fft"))
        wrapped = {}
        for ns in fft_nss:
            for attr in FFT_NAMES:
                orig = getattr(ns, attr, None)
                if orig is None:
                    continue
                w = self.wrap(f"{ns.__name__}.{attr}", orig, _fft_bytes)
                wrapped[id(orig)] = w
                self._patch(ns, attr, w)
        for mod in fracrd_mods:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    self._patch(mod, attr, wrapped[id(obj)])

        for attr in CLI_NAMES:
            on_exit = {"solve_mild": _solve_stats,
                       "save_checkpoint": _file_bytes}.get(attr)
            self._patch(cli, attr, self.wrap(f"cli_runner.{attr}", getattr(cli, attr), on_exit))
        for attr in ("build_model", "get_model"):
            self._patch(cli, attr, self._model_wrapper(f"cli_runner.{attr}", getattr(cli, attr)))

        for attr in _public_functions(el) + ["frac_power"]:
            self._patch(el, attr, self.wrap(f"estimate_lab.{attr}", getattr(el, attr)))
        for attr in _public_functions(hk):
            self._patch(hk, attr, self.wrap(f"heat_kernel.{attr}", getattr(hk, attr)))

    def _model_wrapper(self, name, fn):
        """Return models whose reaction map ``f`` is traced as rds_model.f."""
        def with_counting_f(*args, **kwargs):
            model = fn(*args, **kwargs)
            if getattr(model.f, "bench_traced", False):
                return model
            return dataclasses.replace(model, f=self.wrap("rds_model.f", model.f))
        return self.wrap(name, with_counting_f)

    def install(self, call_id):
        self.call_id = call_id
        for ns, attr, _, wrapper in self._patches:
            setattr(ns, attr, wrapper)

    def uninstall(self):
        for ns, attr, orig, _ in reversed(self._patches):
            setattr(ns, attr, orig)

    # -- output ----------------------------------------------------------

    def arrays(self):
        rec = np.array(self.spans, dtype=float).reshape(-1, 5)
        return {
            "name": rec[:, 0].astype(np.int32),
            "start": rec[:, 1],
            "end": rec[:, 2],
            "parent": rec[:, 3].astype(np.int64),
            "call": rec[:, 4].astype(np.int32),
        }

    def save(self, path):
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def _fft_bytes(args, out):
    return np.asarray(args[0]).nbytes + out.nbytes


def _file_bytes(args, out):
    return os.path.getsize(args[0])


def _solve_stats(args, traj):
    diags = traj.step_diagnostics[1:]
    return {
        "windows": len(diags),
        "iterations": sum(d.picard_iterations for d in diags),
        "t_end": traj.step_times[-1],
    }


def layer_metrics(tracer, call_id, report_bytes):
    """Per-layer metrics of one traced workload call.

    Times named ``*_s`` are inclusive span time, summed over the outermost
    spans of the layer; ``self_s`` subtracts the time child spans cover.
    """
    a = tracer.arrays()
    name, parent = a["name"], a["parent"]
    dur = a["end"] - a["start"]
    has_parent = parent >= 0
    child_cov = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    self_time = dur - child_cov
    parent_name = np.where(has_parent, name[np.maximum(parent, 0)], -1)
    in_call = a["call"] == call_id

    def ids(pred):
        return [i for i, n in enumerate(tracer.names) if pred(n)]

    def sel(pred, of=name):
        return in_call & np.isin(of, ids(pred))

    def exact(target):
        return sel(lambda n: n == target)

    def outermost(prefix):
        return sel(lambda n: n.startswith(prefix)) & ~sel(lambda n: n.startswith(prefix), parent_name)

    def total(mask, values=dur):
        return float(values[mask].sum())

    def extra_sum(mask, key=None):
        return sum(tracer.extra[i][key] if key else tracer.extra[i] for i in np.flatnonzero(mask))

    fft = sel(lambda n: n.startswith(("numpy.fft.", "scipy.fft.")))
    frac = exact("estimate_lab.frac_power")
    rate = exact("rds_model.f")
    solve = exact("cli_runner.solve_mild")
    ckpt = exact("cli_runner.save_checkpoint")
    maxreg = exact("estimate_lab.maximal_reg_ratio")
    windows = extra_sum(solve, "windows")
    iterations = extra_sum(solve, "iterations")
    solve_evals = int((rate & sel(lambda n: n == "cli_runner.solve_mild", parent_name)).sum())

    def el(fn):
        return total(outermost(f"estimate_lab.{fn}"))

    return {
        "spectral_core.fft_calls": int(fft.sum()),
        "spectral_core.fft_s": total(fft),
        "spectral_core.fft_bytes": int(extra_sum(fft)),
        "spectral_core.frac_power_calls": int(frac.sum()),
        "spectral_core.frac_power_s": total(frac),
        "rds_model.rate_evals": int(rate.sum()),
        "rds_model.rate_s": total(rate),
        "mild_solver.solve_self_s": total(solve, self_time),
        "mild_solver.windows": int(windows),
        "mild_solver.picard_per_window": iterations / windows if windows else 0.0,
        "mild_solver.mean_dt": extra_sum(solve, "t_end") / windows if windows else 0.0,
        "mild_solver.useful_eval_ratio": (windows + iterations) / solve_evals if solve_evals else 0.0,
        "mild_solver.checkpoint_s": total(ckpt),
        "mild_solver.checkpoint_bytes": int(extra_sum(ckpt)),
        "estimate_lab.maxreg_calls": int(maxreg.sum()),
        "estimate_lab.maxreg_s": total(maxreg),
        "estimate_lab.norm_report_s": el("norm_report"),
        "estimate_lab.sv_s": el("stroock_varopoulos_gap"),
        "estimate_lab.gn_s": el("gn_ratio"),
        "estimate_lab.holder_s": el("holder_seminorm"),
        "estimate_lab.accumulate_v_s": el("accumulate_v"),
        "estimate_lab.ladder_s": el("duality_ladder"),
        "heat_kernel.s": total(outermost("heat_kernel.")),
        "cli_runner.validate_s": total(exact("cli_runner.validate_config")),
        "cli_runner.self_s": total(in_call & ~has_parent, self_time),
        "cli_runner.report_bytes": int(report_bytes),
    }
