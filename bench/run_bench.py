"""fracrd benchmark: one workload per invocation, run from the repository root.

    python3 bench/run_bench.py --workload run-1d --seed 0 --seconds 25 --trace 0

Workloads are defined in bench/workloads.json.  The seed goes into the
scenario config (or the verify call) as its ``seed``.  With --trace 0 the
result holds the end-to-end metrics of an untraced run; with --trace 1 it
holds the per-layer metrics of a traced run.  Human-readable lines (every
metric by name and unit, versions, thread pins, report digest) come first;
the last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Exit code 0 means a result was
printed; any other code means the benchmark itself could not run.

Metric names and units are those BENCHMARK.json declares.  The program is
imported from ./src in child processes; intermediate files go to
./.bench_out/<workload>/.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
SETUP_SAMPLES = 5
DEADLINE_S = 170  # all child processes of one invocation together
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# Round-off band: mass_drift and diffusion_err read as this floor until they
# exceed it, so reordered floating-point sums do not register as regressions.
# It is 1% of the acceptance tolerance (1e-10); the tolerance itself is checked.
ROUND_OFF_FLOOR = 1e-12


class BenchError(Exception):
    """The benchmark itself cannot run (as opposed to a failed program call)."""


def _child(args, env, deadline):
    """Run a worker to completion and return its last stdout line as JSON."""
    proc = subprocess.run([sys.executable, WORKER, *args], env=env, stdout=subprocess.PIPE,
                          text=True, timeout=max(deadline - time.monotonic(), 1.0))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {args[:2]} exited {proc.returncode}")
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def _versions():
    out = {"python": platform.python_version()}
    for pkg in ("numpy", "scipy"):
        try:
            out[pkg] = importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            out[pkg] = "absent"
    return out


def run(workload, seed, seconds, trace):
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "fracrd", "__init__.py")):
        raise BenchError(f"no fracrd package under {src}; run from the repository root")
    with open(os.path.join(HERE, "workloads.json")) as fh:
        specs = json.load(fh)["workloads"]
    if workload not in specs:
        raise BenchError(f"unknown workload {workload!r}; known: {sorted(specs)}")
    spec = specs[workload]
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    units = {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}

    workdir = os.path.join(root, ".bench_out", workload)
    os.makedirs(workdir, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=src, **{v: "1" for v in THREAD_VARS})
    if spec["kind"] == "run":
        cfg_path = os.path.join(workdir, "config.json")
        with open(cfg_path, "w") as fh:
            json.dump(dict(spec["config"], seed=seed), fh, indent=2)
        setup_args = ["setup", "run", cfg_path]
    else:
        setup_args = ["setup", "verify", ",".join(spec["suites"])]

    deadline = time.monotonic() + DEADLINE_S
    setup = []
    if not trace:
        setup = [_child(setup_args, env, deadline)["setup_s"] for _ in range(SETUP_SAMPLES)]
    res = _child(["measure", workload, workdir, str(seed), str(seconds), str(trace)],
                 env, deadline)

    env_line = dict(_versions(), nproc=os.cpu_count(), threads={v: env[v] for v in THREAD_VARS},
                    workload=workload, seed=seed, seconds=seconds, trace=trace)
    print("env " + json.dumps(env_line, sort_keys=True))
    attempted, failed = res["attempted"], res["failed"]
    print(f"calls attempted {attempted}, failed {failed}, fail_frac {failed / attempted:.4g}")
    for problem in res["problems"]:
        print(f"problem: {problem}")
    print(f"digest {workload} seed={seed}: {res['digest']}")

    if trace:
        values = res["layers"]
        print(f"traced calls {len(res['traced'])}, spans recorded {res['spans']}")
    else:
        walls = res["walls"]
        q1, _, q3 = statistics.quantiles(walls, n=4)
        print(f"wall_s quartiles q1 {q1:.6g} s, q3 {q3:.6g} s over {len(walls)} timed calls "
              f"after 1 warm-up")
        print(f"setup_s samples {[round(s, 4) for s in setup]}")
        acc = res["accuracy"]
        for key in ("mass_drift", "diffusion_err"):
            print(f"{key} raw {acc[key]:.3e} (reported as at least {ROUND_OFF_FLOOR:.0e})")
        values = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": res["peak_rss_mb"],
            "ok_frac": 1.0 - failed / attempted,
            "mass_drift": max(acc["mass_drift"], ROUND_OFF_FLOOR),
            "diffusion_err": max(acc["diffusion_err"], ROUND_OFF_FLOOR),
            "ode_err": acc["ode_err"],
            "kernel_peak_err": acc["kernel_peak_err"],
        }
    if set(values) != set(units):
        raise BenchError(f"measured {sorted(values)} but BENCHMARK.json declares {sorted(units)}")
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    for k, m in metrics.items():
        print(f"metric {k} = {m['value']:.6g} {m['unit']}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    with open(os.path.join(workdir, f"result-trace{trace}.json"), "w") as fh:
        json.dump(dict(result, env=env_line, raw=res), fh, indent=2)
    print(json.dumps(result))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        run(args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, subprocess.TimeoutExpired, OSError, KeyError, ValueError) as e:
        print(f"bench: {e!r}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
