"""The public surface: exact export lists, no test-only name in src/, and
immutable records that validate on every construction path."""

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
    (core.NormPair, ["kind"]),
    (analysis.BoundCheck, ["name", "round", "value", "bound", "passed"]),
    (analysis.GapWitness, ["round_index", "competitor", "value", "reason"]),
    (analysis.GapCertificate, ["satisfied", "delta", "witness", "rounds", "last"]),
    # in the order of the summary's offline.* keys and eval's lines
    (analysis.OfflineEvaluation, [
        "samples", "mean_model", "mean_reference", "mean_gap", "stderr_gap",
    ]),
    (harness.RunResult, [
        "exit_code", "ledger", "checks", "certificate", "evaluation",
        "summary", "summary_path",
    ]),
    (harness.StreamBundle, [
        "config", "c_star", "c_star_integral", "observations", "optimal_choices",
    ]),
]


@pytest.mark.parametrize(
    "cls, names", FIELDS, ids=[cls.__name__ for cls, _ in FIELDS]
)
def test_record_fields(cls, names):
    assert list(cls._fields) == names


def _records():
    """One instance of each record, most from a short integral-gap run."""
    cfg = harness.build_config({}, seed=7, dimension=3, rounds=10,
                               gap_mode="integral", holdout=20)
    result = harness.run_experiment(cfg)
    bundle = harness.generate_instance_stream(cfg)
    obs = bundle.observations[0]
    suboptimal = [core.Observation(core.Hypercube(2), [0.0, 0.0])]
    witness = analysis.certify_gap(suboptimal, [0.5, 0.5], core.NormPair.linf_l1()).witness
    return [oracle.argmax(obs.feasible_set, bundle.c_star),
            obs, result.ledger.learner, cfg, result.checks[0], witness,
            result.certificate, result.evaluation, result, bundle, core.NormPair.l2_l2()]


def test_every_record_is_immutable():
    records = _records()
    assert sorted(type(r).__name__ for r in records) == sorted(
        cls.__name__ for cls, _ in FIELDS)
    for record in records:
        for name in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, getattr(record, name))


def _message(make):
    with pytest.raises(ValueError) as caught:
        make()
    return type(caught.value), str(caught.value)


def test_replace_validates_as_the_constructor_does():
    cfg = harness.ExperimentConfig(seed=7)
    assert _message(lambda: cfg._replace(rounds=0)) == _message(
        lambda: harness.ExperimentConfig(seed=7, rounds=0)) == (
        ValueError, "rounds must be at least 1")
    norms = core.NormPair.l2_l2()
    assert _message(lambda: norms._replace(kind="l1-linf")) == _message(
        lambda: core.NormPair("l1-linf")) == (
        ValueError, "unknown norm pair kind 'l1-linf'")
    X = core.Hypercube(2)
    obs = core.Observation(X, [1.0, 0.0])
    assert _message(lambda: obs._replace(agent_choice=[0.5, 0.0])) == _message(
        lambda: core.Observation(X, [0.5, 0.0])) == (
        core.MembershipError, "agent choice is not in the feasible set")
    assert _message(lambda: obs._replace(agent_choice=[1.0])) == _message(
        lambda: core.Observation(X, [1.0])) == (
        core.DimensionMismatchError, "choice has dimension 1, set has 2")
    # a replaced choice is folded and frozen as a constructed one is
    replaced = obs._replace(agent_choice=[-0.0, 1.0]).agent_choice
    assert replaced.tobytes() == core.as_vector([0.0, 1.0]).tobytes()
    assert not replaced.flags.writeable


def test_of_member_does_not_validate():
    X, choice = core.Hypercube(2), core.as_vector([0.5, 0.0])
    obs = core.Observation._of_member(X, choice)
    assert type(obs) is core.Observation
    assert obs.feasible_set is X and obs.agent_choice is choice
