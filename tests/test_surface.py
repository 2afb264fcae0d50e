"""The public surface: exact export lists, and no test-only name in src/."""

import dataclasses
import importlib

import pytest

import invlinopt
from invlinopt import analysis, core, harness, learner, oracle
from invlinopt.harness import io

PACKAGE_EXPORTS = [
    "ADAPTIVE",
    "Ball",
    "BoundCheck",
    "DagPaths",
    "DimensionMismatchError",
    "EnumerationRefusedError",
    "ExplicitVertices",
    "FeasibleSet",
    "GapCertificate",
    "Hypercube",
    "Knapsack",
    "LearnerState",
    "MembershipError",
    "NormPair",
    "OFFSET",
    "Observation",
    "OfflineEvaluation",
    "OracleResult",
    "PredictionDomain",
    "RegretLedger",
    "Simplex",
    "argmax",
    "argmax_many",
    "as_vector",
    "certify_gap",
    "init_learner",
    "offline_evaluate",
    "play",
    "verify_run",
]

HARNESS_EXPORTS = [
    "ExperimentConfig",
    "GenerationFailedError",
    "RunResult",
    "StreamBundle",
    "build_config",
    "generate_instance_stream",
    "load_config_file",
    "make_observation_sampler",
    "run_experiment",
    "run_sweep",
    "simulate",
]

# (owner, name) pairs that only tests call, which live in tests/reference.py,
# the per-round learner API that learner.play replaced, and the array
# average that RegretLedger.average_prediction replaced
MOVED = [
    (invlinopt, "suboptimality_loss"),
    (invlinopt, "fenchel_young_loss"),
    (invlinopt, "estimate_loss"),
    (invlinopt, "residual_subgradient"),
    (invlinopt, "predict"),
    (invlinopt, "argmax_bruteforce"),
    (invlinopt, "inner_product"),
    (learner, "predict"),
    (oracle, "argmax_bruteforce"),
    (core, "inner_product"),
    (core.NormPair, "dual"),
    (core.DagPaths, "out_arcs"),
    (core.FeasibleSet, "contains"),
    (core.PredictionDomain, "contains"),
    (core.Simplex, "contains"),
    (core.Ball, "contains"),
    (io, "read_trace"),
    (io, "read_summary"),
    (invlinopt, "observe"),
    (invlinopt, "RoundRecord"),
    (invlinopt, "beta"),
    (learner, "observe"),
    (learner, "RoundRecord"),
    (learner, "beta"),
    (learner, "_zeros"),
    (learner, "_residual"),
    (invlinopt, "average_prediction"),
    (analysis, "average_prediction"),
]


def test_package_exports_are_pinned():
    assert invlinopt.__all__ == sorted(invlinopt.__all__) == PACKAGE_EXPORTS
    for name in PACKAGE_EXPORTS:
        assert hasattr(invlinopt, name)


def test_harness_exports_are_pinned():
    assert harness.__all__ == sorted(harness.__all__) == HARNESS_EXPORTS
    for name in HARNESS_EXPORTS:
        assert hasattr(harness, name)


@pytest.mark.parametrize(
    "owner, name", MOVED, ids=[f"{owner.__name__}.{name}" for owner, name in MOVED]
)
def test_moved_name_is_gone_from_its_old_place(owner, name):
    assert not hasattr(owner, name)


def test_loss_module_is_gone():
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("invlinopt.loss")


# the round is an observation's position in its stream, so no record
# carries a round index, and no config field sets the retry budget; a gap
# certificate holds what the next chunk needs, not a margin per round
FIELDS = [
    (oracle.OracleResult, ["maximizer", "tie_count"]),
    (core.Observation, ["feasible_set", "agent_choice"]),
    (learner.LearnerState, [
        "domain", "schedule", "B", "H", "K", "grad_sum", "sq_norm_sum",
        "current_prediction", "last_answer",
    ]),
    (harness.ExperimentConfig, [
        "seed", "dimension", "rounds", "domain", "schedule", "family",
        "agent_noise", "gap_mode", "gap_margin", "holdout", "num_vertices",
        "integral_vertices", "fresh_sets", "ball_radius", "save_stream", "out",
    ]),
    (analysis.GapCertificate, ["satisfied", "delta", "witness", "rounds", "last"]),
    # in the order of the summary's offline.* keys and eval's lines
    (analysis.OfflineEvaluation, [
        "samples", "mean_model", "mean_reference", "mean_gap", "stderr_gap",
    ]),
    (harness.RunResult, [
        "exit_code", "ledger", "checks", "certificate", "evaluation",
        "summary", "summary_path",
    ]),
]


@pytest.mark.parametrize(
    "cls, names", FIELDS, ids=[cls.__name__ for cls, _ in FIELDS]
)
def test_dataclass_fields(cls, names):
    assert [f.name for f in dataclasses.fields(cls)] == names
