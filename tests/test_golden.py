"""Byte-identity of `invlinopt run` outputs against committed golden files.

Every refactor or speedup must reproduce these bytes exactly.  The files
under tests/golden/<name>/ were written by this module's recorder:

    PYTHONPATH=src python tests/test_golden.py

Re-record only for a change that alters outputs on purpose, and say so.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from invlinopt.harness.cli import main

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
PERFBENCH_DIR = Path(__file__).resolve().parent.parent / "perfbench"
OUTPUT_FILES = ("trace.csv", "summary.txt", "prediction.txt", "stream.txt")

CONFIGS = {
    "random-vertices": [
        "--family", "random-vertices", "--dimension", "5",
        "--num-vertices", "12", "--rounds", "60", "--seed", "3",
    ],
    "hypercube-margin": [
        "--family", "hypercube", "--dimension", "6", "--gap", "margin",
        "--gap-margin", "0.01", "--rounds", "60", "--seed", "4",
    ],
    "knapsack": [
        "--family", "knapsack", "--dimension", "8", "--rounds", "60",
        "--seed", "5",
    ],
    "dag-ball-offset": [
        "--family", "dag", "--dimension", "8", "--domain", "ball",
        "--schedule", "offset", "--rounds", "60", "--seed", "6",
    ],
    # past the 1000-round plateau burn-in, so every gap check runs
    "knapsack-integral-repeat": [
        "--family", "knapsack", "--dimension", "10", "--gap", "integral",
        "--repeat-instance", "--rounds", "1200", "--seed", "429",
    ],
    "dag-noisy-holdout-stream": [
        "--family", "dag", "--dimension", "10", "--domain", "ball",
        "--schedule", "offset", "--agent-noise", "0.1", "--rounds", "80",
        "--holdout", "80", "--save-stream", "--seed", "7",
    ],
    "random-vertices-margin-stream": [
        "--family", "random-vertices", "--dimension", "4",
        "--num-vertices", "10", "--gap", "margin", "--gap-margin", "0.02",
        "--domain", "ball", "--rounds", "60", "--save-stream", "--seed", "8",
    ],
}


def _run(name: str, out: Path) -> int:
    return main(["run", *CONFIGS[name], "--out", str(out)])


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_outputs_match_golden_bytes(name, tmp_path, capsys):
    assert _run(name, tmp_path) == 0
    expected_dir = GOLDEN_DIR / name
    expected = sorted(p.name for p in expected_dir.iterdir())
    produced = sorted(p.name for p in tmp_path.iterdir())
    assert produced == expected
    for fname in expected:
        assert (tmp_path / fname).read_bytes() == (expected_dir / fname).read_bytes(), (
            f"{name}/{fname} differs from the golden bytes"
        )


def _perfbench_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH_DIR / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


WORKLOADS = _perfbench_workloads()
DIGESTS = json.loads((PERFBENCH_DIR / "digests.json").read_text())


# The golden configs stop at 1200 rounds; the benchmark's workloads run
# thousands, across several stacked chunks of oracle.argmax_many.
@pytest.mark.parametrize("name", sorted(WORKLOADS.WORKLOADS))
def test_benchmark_workloads_match_recorded_digests(name, tmp_path, capsys):
    workload = WORKLOADS.WORKLOADS[name]
    seed = WORKLOADS.DEFAULT_SEED
    assert main(workload.argv(workload.cli_seed(seed), tmp_path)) == 0
    for fname in workload.output_files():
        digest = hashlib.sha256((tmp_path / fname).read_bytes()).hexdigest()
        assert digest == DIGESTS[name][fname], f"{name}/{fname} differs"


def record() -> None:
    for name in CONFIGS:
        out = GOLDEN_DIR / name
        out.mkdir(parents=True, exist_ok=True)
        for fname in OUTPUT_FILES:
            (out / fname).unlink(missing_ok=True)
        if _run(name, out) != 0:
            raise SystemExit(f"{name}: run failed, golden files not usable")


if __name__ == "__main__":
    record()
