"""Child process of run_bench.py; prints one JSON object as its last line.

    worker.py setup run <config.json>
    worker.py setup verify <suite,suite,...>
        One CLI start-up in this fresh interpreter: import fracrd, then load
        and validate the workload input.  Reports setup_s.

    worker.py measure <workload> <workdir> <seed> <seconds> <trace>
        Closed loop, one call at a time: a warm-up call, then timed calls
        until <seconds> are used.  With trace 0 it reports wall times and
        the peak RSS after the warm-up; with trace 1 it alternates untraced
        and traced calls and reports the per-layer metrics.  Every call's
        outputs are checked.
"""

import time

T0 = time.perf_counter()

# setup_s is timed from T0, so only what setup needs is imported up here;
# everything else is imported where it is used.
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_TIMED_CALLS = 3
EXACT_U1 = 0.5 * (1.0 + math.exp(-2.0))  # criterion 7: u1' = 1 - 2 u1, u1(0) = 1
KERNEL_PEAKS = ((0.5, 1.0 / math.pi), (1.0, (4.0 * math.pi) ** -0.5))
# Acceptance-test tolerances; mass uses criterion 7's 1e-10 * max(t, 1).
TOLERANCE = {"ode_err": 1e-6, "kernel_peak_err": 1e-4, "diffusion_err": 1e-10}


def setup(kind, arg):
    import fracrd.cli_runner as cli

    if kind == "run":
        cli.validate_config(cli.load_config(arg))
    elif set(arg.split(",")) - set(cli.SUITES):
        raise SystemExit(f"unknown suites in {arg!r}")
    return {"setup_s": time.perf_counter() - T0}


# ----------------------------------------------------------------------
# Workloads: the public entry point, its per-call accuracy, per-set probes
# ----------------------------------------------------------------------

def _diffusion_err(grid, u0, d, alpha, dt, dealias):
    """Criterion 8 probe: frozen reactions to t = 1 against the semigroup."""
    import numpy as np
    from fracrd import KernelSpec, ReactionModel, SolverConfig, semigroup_apply, solve_mild

    frozen = ReactionModel("frozen", len(d), tuple(d), lambda u, t: np.zeros_like(u))
    traj = solve_mild(frozen, u0, SolverConfig(dt=dt, horizon=1.0, alpha=alpha, dealias=dealias))
    worst = 0.0
    for i, di in enumerate(d):
        ref = semigroup_apply(u0[i], KernelSpec(alpha, di, grid), 1.0).values
        worst = max(worst, float(np.max(np.abs(traj.states[-1][i] - ref)) / np.max(np.abs(ref))))
    return worst


def _ode_err():
    """Criterion 7 probe: constant data (1, 0, 1, 0) reduces to an ODE."""
    import numpy as np
    from fracrd import Field, SolverConfig, get_model, make_grid, solve_mild

    g = make_grid(1, 10.0, 8)
    u0 = [Field(g, np.full(g.shape, c)) for c in (1.0, 0.0, 1.0, 0.0)]
    cfg = SolverConfig(dt=1e-3, horizon=1.0, alpha=0.5, store_every=1000)
    traj = solve_mild(get_model("bimolecular"), u0, cfg)
    return abs(float(traj.states[-1][0][0]) - EXACT_U1)


def _kernel_peak_err():
    """Worst relative error of the closed-form kernel peaks (kernel suite grid)."""
    from fracrd import KernelSpec, heat_kernel_field, make_grid

    g = make_grid(1, 200.0, 1024)
    return max(abs(float(heat_kernel_field(KernelSpec(a, 1.0, g), 1.0).values[0]) - exact) / exact
               for a, exact in KERNEL_PEAKS)


class RunWorkload:
    """``cli_runner.run_scenario`` on one scenario config."""

    entry = "run_scenario"

    def __init__(self, spec, workdir, seed):
        import numpy as np
        from fracrd import cli_runner as cli
        from fracrd import make_grid

        self.out = os.path.join(workdir, "out")
        self.cfg = cli.load_config(os.path.join(workdir, "config.json"))
        g = self.cfg["grid"]
        self.grid = make_grid(g["dims"], float(g["extent"]), g["points"])
        rng = np.random.default_rng(seed)  # the same draws run_scenario makes first
        self.u0 = [cli.make_profile(self.grid, s, rng) for s in self.cfg["initial_data"]]
        self.mass0 = self.grid.cell_volume * sum(float(u.values.sum()) for u in self.u0)
        self.mass_tol = 1e-10 * max(float(self.cfg["solver"]["horizon"]), 1.0)

    def args(self):
        return (self.cfg,), {"outdir": self.out}

    def accuracy(self, manifest):
        from fracrd import load_checkpoint

        grid, _, state = load_checkpoint(os.path.join(self.out, "final_state.csv"))
        mass1 = grid.cell_volume * float(state.sum())
        return {"mass_drift": abs(mass1 - self.mass0) / abs(self.mass0)}

    def probes(self):
        from fracrd import cli_runner as cli

        sol = self.cfg["solver"]
        d = cli.build_model(self.cfg).d
        return {
            "diffusion_err": _diffusion_err(self.grid, self.u0, d, float(sol.get("alpha", 0.5)),
                                            float(sol["dt"]), bool(sol.get("dealias", True))),
            "ode_err": _ode_err(),
            "kernel_peak_err": _kernel_peak_err(),
        }


class VerifyWorkload:
    """``cli_runner.run_verify`` on a list of suites."""

    entry = "run_verify"
    mass_tol = 1e-10  # the bimolecular suite runs to t = 1

    def __init__(self, spec, workdir, seed):
        self.out = os.path.join(workdir, "out")
        self.suites = list(spec["suites"])
        self.seed = seed

    def args(self):
        return (self.suites,), {"outdir": self.out, "seed": self.seed}

    def _rows(self, name):
        import csv

        with open(os.path.join(self.out, name), newline="") as fh:
            return list(csv.reader(fh))[1:]

    def accuracy(self, manifest):
        rows = {r[0]: r for r in self._rows("bimolecular.csv")}
        final, initial = float(rows["mass"][1]), float(rows["mass"][2])
        exact = dict(KERNEL_PEAKS)
        return {
            "ode_err": abs(float(rows["ode-u1"][1]) - EXACT_U1),
            "mass_drift": abs(final - initial) / abs(initial),
            "kernel_peak_err": max(abs(float(r[2]) - exact[float(r[1])]) / exact[float(r[1])]
                                   for r in self._rows("kernel.csv") if r[0] == "peak"),
        }

    def probes(self):
        from fracrd import cli_runner as cli
        from fracrd import make_grid

        g = make_grid(1, 40.0, 64)  # criterion 8 grid, diffusivities and step
        u0 = [cli.make_profile(g, {"profile": "gaussian-bump", "amplitude": a, "width": 2.0,
                                   "floor": 0.05}, None) for a in (1.0, 0.5)]
        return {"diffusion_err": _diffusion_err(g, u0, (1.0, 2.5), 0.5, 0.05, True)}


class Ledger:
    """Attempted and failed calls, with the reasons and accuracy values."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.files = None
        self.accuracy = {}

    def judge(self, outcome):
        """Check one call's outcome: a manifest, or the exception it raised."""
        self.attempted += 1
        if isinstance(outcome, BaseException):
            return self._fail([f"raised {type(outcome).__name__}: {outcome}"])
        faults = []
        if not outcome.get("passed"):
            faults.append(f"manifest not passed: {outcome.get('violations')}")
        if self.files is None:
            self.files = outcome["files"]
        elif outcome["files"] != self.files:
            faults.append("report hashes differ from the first call at this seed")
        try:
            acc = self.workload.accuracy(outcome)
        except (OSError, KeyError, ValueError) as e:
            faults.append(f"reports unreadable: {e!r}")
            acc = {}
        faults += self.add_accuracy(acc)
        if faults:
            self._fail(faults)

    def add_accuracy(self, acc):
        faults = []
        for key, value in acc.items():
            self.accuracy.setdefault(key, []).append(value)
            tol = self.workload.mass_tol if key == "mass_drift" else TOLERANCE[key]
            if not value <= tol:
                faults.append(f"{key} {value:.3g} above tolerance {tol:.0e}")
        return faults

    def _fail(self, faults):
        self.failed += 1
        self.problems.extend(faults)

    def digest(self):
        import hashlib

        blob = json.dumps(self.files, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


def measure(workload, workdir, seed, seconds, trace):
    import resource
    from statistics import median

    import fracrd
    from fracrd import cli_runner as cli

    src = os.path.join(os.getcwd(), "src")
    if not os.path.abspath(fracrd.__file__).startswith(src + os.sep):
        raise SystemExit(f"fracrd imported from {fracrd.__file__}, not from {src}")

    with open(os.path.join(HERE, "workloads.json")) as fh:
        spec = json.load(fh)["workloads"][workload]
    wl = (RunWorkload if spec["kind"] == "run" else VerifyWorkload)(spec, workdir, seed)
    ledger = Ledger(wl)
    args, kwargs = wl.args()

    def attempt(fn=None):
        fn = fn or getattr(cli, wl.entry)
        t0 = time.perf_counter()
        try:
            outcome = fn(*args, **kwargs)
        except Exception as e:  # a failed call is counted, not fatal
            outcome = e
        wall = time.perf_counter() - t0
        ledger.judge(outcome)
        return wall, outcome

    attempt()  # warm-up
    result = {}
    t_loop = time.perf_counter()
    if not trace:
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        walls = []
        while len(walls) < MIN_TIMED_CALLS or (
                time.perf_counter() - t_loop + median(walls) <= seconds):
            walls.append(attempt()[0])
        result["walls"] = walls
    else:
        from tracer import Tracer, layer_metrics

        tracer = Tracer()
        tracer.prepare()
        untraced, traced, report_bytes = [], [], []
        while not traced or (time.perf_counter() - t_loop
                             + median(untraced) + median(traced) <= seconds):
            untraced.append(attempt()[0])
            tracer.install(len(traced))
            try:
                wall, outcome = attempt(tracer.wrap(f"cli_runner.{wl.entry}", getattr(cli, wl.entry)))
            finally:
                tracer.uninstall()
            traced.append(wall)
            files = outcome.get("files", {}) if isinstance(outcome, dict) else {}
            report_bytes.append(sum(os.path.getsize(os.path.join(wl.out, f)) for f in files))
        per_call = [layer_metrics(tracer, k, b) for k, b in enumerate(report_bytes)]
        layers = {key: median([m[key] for m in per_call]) for key in per_call[0]}
        layers["trace.overhead_s"] = median(traced) - median(untraced)
        result.update(layers=layers, untraced=untraced, traced=traced,
                      spans=len(tracer.spans))
        tracer.save(os.path.join(workdir, "spans.npz"))

    probes = wl.probes()
    if ledger.add_accuracy(probes):
        ledger.failed = ledger.attempted  # a failed per-set probe fails the set
        ledger.problems.append(f"per-set probe out of tolerance: {probes}")
    result.update(
        attempted=ledger.attempted, failed=ledger.failed, problems=ledger.problems[:10],
        accuracy={k: max(v) for k, v in ledger.accuracy.items()},
        digest=ledger.digest() if ledger.files is not None else None,
    )
    return result


def main(argv):
    if argv[0] == "setup":
        out = setup(argv[1], argv[2])
    else:
        workload, workdir, seed, seconds, trace = argv[1:6]
        out = measure(workload, workdir, int(seed), float(seconds), int(trace))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
