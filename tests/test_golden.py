"""Byte-identity of `invlinopt run` outputs against committed golden files.

Every refactor or speedup must reproduce these bytes exactly.  The files
under tests/golden/<name>/ (and the `invlinopt eval` summary under
tests/golden/eval-<name>/) were written by this module's recorder:

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
    # a noisy agent on a wide ball with two holdout samples: every certified
    # inequality holds and the run exits 1 on holdout_generalization alone
    "ball-noisy-holdout-fail": [
        "--seed", "1", "--domain", "ball", "--ball-radius", "50",
        "--agent-noise", "0.3", "--rounds", "300", "--holdout", "2",
        "--dimension", "10",
    ],
    # the gap checks, gap_certified, integral_gap_floor and
    # holdout_generalization in one summary
    "integral-holdout": [
        "--seed", "7", "--dimension", "3", "--rounds", "200", "--gap",
        "integral", "--holdout", "100",
    ],
    # a gap mode with a noisy agent skips the gap checks and says so
    "noisy-gap-skipped": [
        "--seed", "7", "--dimension", "4", "--rounds", "60", "--gap",
        "integral", "--agent-noise", "0.2", "--holdout", "40",
    ],
    # a hypercube whose learner moves: its squared gradient norms sum to 35
    "hypercube-ball-noisy": [
        "--seed", "9", "--family", "hypercube", "--dimension", "6",
        "--domain", "ball", "--agent-noise", "0.2", "--rounds", "60",
        "--holdout", "40",
    ],
    # one shared DAG: noise flags and unranked members of its paths, in the
    # run and the holdout; its learner moves (sum_sq_grad = 127)
    "dag-repeat-noisy": [
        "--family", "dag", "--dimension", "10", "--repeat-instance",
        "--agent-noise", "0.3", "--rounds", "300", "--holdout", "100",
        "--seed", "11",
    ],
    # rejected DAG draws overwrite their row before the next draw
    "dag-margin": [
        "--family", "dag", "--dimension", "9", "--gap", "margin",
        "--gap-margin", "0.3", "--rounds", "300", "--seed", "12",
    ],
    # n <= 7: a chain alone, no arc draws, only noise flags and members
    "dag-chain-noisy": [
        "--family", "dag", "--dimension", "6", "--agent-noise", "0.2",
        "--rounds", "300", "--holdout", "100", "--seed", "13",
    ],
}

# the exit status each config's run is recorded with: 0 unless named here
EXIT_STATUS = {"ball-noisy-holdout-fail": 1}


# `invlinopt eval` of a committed prediction; 600 holdout samples cross the
# 256-sample chunk boundaries of analysis.offline_evaluate twice.
EVAL_CONFIGS = {
    "dag-noisy-holdout": [
        "--family", "dag", "--dimension", "10", "--domain", "ball",
        "--schedule", "offset", "--agent-noise", "0.1", "--holdout", "600",
        "--seed", "7", "--prediction",
        str(GOLDEN_DIR / "dag-noisy-holdout-stream" / "prediction.txt"),
    ],
    "random-vertices": [
        "--family", "random-vertices", "--dimension", "5",
        "--num-vertices", "12", "--agent-noise", "0.2", "--holdout", "600",
        "--seed", "3", "--prediction",
        str(GOLDEN_DIR / "random-vertices" / "prediction.txt"),
    ],
}


def _run(name: str, out: Path) -> int:
    return main(["run", *CONFIGS[name], "--out", str(out)])


def _eval(name: str, out: Path) -> int:
    return main(["eval", *EVAL_CONFIGS[name], "--out", str(out / "eval.txt")])


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_outputs_match_golden_bytes(name, tmp_path, capsys):
    assert _run(name, tmp_path) == EXIT_STATUS.get(name, 0)
    expected_dir = GOLDEN_DIR / name
    expected = sorted(p.name for p in expected_dir.iterdir())
    produced = sorted(p.name for p in tmp_path.iterdir())
    assert produced == expected
    for fname in expected:
        assert (tmp_path / fname).read_bytes() == (expected_dir / fname).read_bytes(), (
            f"{name}/{fname} differs from the golden bytes"
        )


@pytest.mark.parametrize("name", sorted(EVAL_CONFIGS))
def test_eval_matches_golden_bytes(name, tmp_path, capsys):
    assert _eval(name, tmp_path) == 0
    expected = GOLDEN_DIR / f"eval-{name}" / "eval.txt"
    assert (tmp_path / "eval.txt").read_bytes() == expected.read_bytes()


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
        status = EXIT_STATUS.get(name, 0)
        if _run(name, out) != status:
            raise SystemExit(f"{name}: run did not exit {status}, golden files not usable")
    for name in EVAL_CONFIGS:
        out = GOLDEN_DIR / f"eval-{name}"
        out.mkdir(parents=True, exist_ok=True)
        if _eval(name, out) != 0:
            raise SystemExit(f"eval-{name}: eval failed, golden file not usable")


if __name__ == "__main__":
    record()
