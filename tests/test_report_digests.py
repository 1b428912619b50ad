"""Every benchmark workload writes the report bytes pinned in report_digests.json.

Each workload of bench/workloads.json runs at seed 0, as the benchmark runs it:
the run configs through run_scenario with their seed set to 0, verify-all
through run_verify.  The SHA-256 of every file in its manifest must equal the
pin.  A change that moves report bytes on purpose refreshes the pins with

    PYTHONPATH=src python tests/test_report_digests.py

and lists the old and new digests in CHANGES.md.
"""

import json
import platform
from pathlib import Path

import numpy as np
import pytest

from fracrd.cli_runner import run_scenario, run_verify

ROOT = Path(__file__).resolve().parents[1]
PINS = Path(__file__).with_name("report_digests.json")
WORKLOADS = json.loads((ROOT / "bench" / "workloads.json").read_text())["workloads"]
SEED = 0


def _versions():
    return {"python": platform.python_version(), "numpy": np.__version__}


def _files(name, outdir):
    """The manifest's {file: sha256} of workload name, run at SEED into outdir."""
    spec = WORKLOADS[name]
    if spec["kind"] == "run":
        man = run_scenario(dict(spec["config"], seed=SEED), outdir=str(outdir))
    else:
        man = run_verify(spec["suites"], outdir=str(outdir), seed=SEED)
    return man["files"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_report_bytes_match_the_pins(tmp_path, name):
    pins = json.loads(PINS.read_text())
    assert pins["versions"] == _versions(), (
        f"pins taken with {pins['versions']}, this is {_versions()}: "
        "float results may differ across versions; refresh the pins only if the bytes did")
    want, got = pins["workloads"][name], _files(name, tmp_path)
    moved = sorted(f for f in want.keys() | got.keys() if want.get(f) != got.get(f))
    assert not moved, f"workload {name}: report bytes moved in {moved}"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        workloads = {name: _files(name, Path(tmp) / name) for name in sorted(WORKLOADS)}
    PINS.write_text(json.dumps({"versions": _versions(), "workloads": workloads},
                               indent=2, sort_keys=True) + "\n")
