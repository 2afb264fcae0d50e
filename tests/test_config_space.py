"""Property tests over the whole config space: every valid config runs,
or fails with a named error, a run is a pure function of its config, the
learner plays its stream as the round-by-round reference does, a saved
stream reads back to the stream the config generates, and certify of an
optimal agent's saved gap stream gives the run's gap verdict."""

import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invlinopt import init_learner, play
from invlinopt.harness import (
    ExperimentConfig,
    generate,
    generate_instance_stream,
    run_experiment,
)
from invlinopt.harness.cli import main
from invlinopt.harness.config import DOMAINS, FAMILIES, GAP_MODES, SCHEDULES
from invlinopt.harness.io import read_stream

from reference import Round, simulate_by_rounds

# small enough that an unreachable margin fails with GenerationFailedError
# in milliseconds, not after the default budget's seconds
RETRY_CAP = 50


@st.composite
def configs(draw):
    """An ExperimentConfig from every field's valid range, except out, with
    at most 40 rounds, a holdout of at most 20 and dimension at most 6, or
    10 for a DAG."""
    domain = draw(st.sampled_from(DOMAINS))
    gap_mode = draw(st.sampled_from(GAP_MODES))
    family = draw(st.sampled_from(FAMILIES))
    dimension = st.integers(2 if domain == "simplex" else 1, 6)
    if family == "dag":
        # a DAG of dimension 8 or more has arcs beyond its chain
        dimension = st.integers(2 if domain == "simplex" else 1, 7) | st.integers(8, 10)
    return ExperimentConfig(
        seed=draw(st.integers(0, 2 ** 32 - 1)),
        dimension=draw(dimension),
        rounds=draw(st.integers(1, 40)),
        domain=domain,
        schedule=draw(st.sampled_from(SCHEDULES)),
        family=family,
        agent_noise=draw(st.floats(0.0, 1.0)),
        gap_mode=gap_mode,
        gap_margin=(draw(st.floats(0.0, exclude_min=True, allow_infinity=False))
                    if gap_mode == "margin" else 0.0),
        holdout=draw(st.integers(0, 20)),
        num_vertices=draw(st.integers(1, 40)),
        integral_vertices=draw(st.booleans()),
        fresh_sets=draw(st.booleans()),
        ball_radius=draw(st.floats(1e-100, 1e100)),
        save_stream=draw(st.booleans()),
    )


def _outputs(cfg, out: Path):
    """The run's status and the bytes of every file it wrote, or the type
    and message of the error it raised."""
    try:
        status = run_experiment(cfg._replace(out=str(out))).exit_code
    except (ValueError, RuntimeError, MemoryError) as exc:
        return type(exc), str(exc)
    return status, {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def _assert_play_matches_the_reference(bundle) -> None:
    """learner.play's columns and final state over the whole stream equal,
    bitwise, those of the reference's observe, which solves every round
    through oracle.argmax."""
    cfg = bundle.config
    start = init_learner(generate.build_domain(cfg), cfg.schedule,
                         generate.diameter_bound(cfg))
    state, played = play(start, bundle.observations)
    expected, ledger = simulate_by_rounds(bundle.c_star, start, bundle.observations,
                                          bundle.optimal_choices)
    columns = ledger.arrays()
    for name in Round._fields:
        assert played[name].tobytes() == columns[name].tobytes(), name
    for name in ("grad_sum", "current_prediction"):
        assert getattr(state, name).tobytes() == getattr(expected, name).tobytes(), name
    assert float.hex(state.sq_norm_sum) == float.hex(expected.sq_norm_sum)


def _assert_stream_reads_back(bundle, path: Path) -> None:
    """read_stream gives back the objective, each set's members and each
    choice of the config's stream, bitwise; a stream writes every set as
    its member rows."""
    observations, c_star = read_stream(path)
    assert c_star.tobytes() == bundle.c_star.tobytes()
    assert len(observations) == len(bundle.observations)
    for loaded, drawn in zip(observations, bundle.observations):
        assert (loaded.feasible_set.members().tobytes()
                == drawn.feasible_set.members().tobytes())
        assert loaded.agent_choice.tobytes() == drawn.agent_choice.tobytes()


@st.composite
def optimal_gap_configs(draw):
    """A config of configs() that saves its stream, with an optimal agent,
    a gap mode and, in margin mode, a margin of at most 0.5; a third span
    two core._STACK_CHUNK chunks and more, so the run's certificate is
    carried from chunk to chunk."""
    cfg = draw(configs())
    gap_mode = draw(st.sampled_from(["margin", "integral"]))
    return cfg._replace(
        save_stream=True, agent_noise=0.0, gap_mode=gap_mode,
        gap_margin=(draw(st.floats(0.0, 0.5, exclude_min=True))
                    if gap_mode == "margin" else 0.0),
        rounds=draw(st.sampled_from([cfg.rounds, cfg.rounds, 2 * 256 + 3])),
    )


def _summary(text: str) -> dict[str, str]:
    """A summary file's ``key = value`` lines as written."""
    return dict(line.split(" = ", 1) for line in text.splitlines())


def _assert_certify_gives_the_runs_gap(cfg, run_dir: Path, certified: Path) -> None:
    """certify of the saved stream, under the run's norm pair, gives the
    summary's gap.satisfied and, to the last digit, its gap.delta or its
    witness round."""
    norms = generate.build_domain(cfg).norm_pair.kind
    status = main(["certify", "--stream", str(run_dir / "stream.txt"),
                   "--norms", norms, "--out", str(certified)])
    run, got = _summary((run_dir / "summary.txt").read_text()), _summary(certified.read_text())
    assert got["satisfied"] == run["gap.satisfied"]
    assert status == (0 if got["satisfied"] == "true" else 1)
    if got["satisfied"] == "true":
        assert got["delta"] == run["gap.delta"]
    else:
        assert got["witness_round"] == run.get("gap.witness_round")


@settings(max_examples=100, deadline=None)
@given(configs())
def test_every_valid_config_runs_or_names_its_failure_and_repeats(cfg):
    assert cfg == ExperimentConfig(**cfg._asdict())
    with pytest.MonkeyPatch.context() as patch, tempfile.TemporaryDirectory() as tmp:
        patch.setattr(generate, "RETRY_CAP", RETRY_CAP)
        first = _outputs(cfg, Path(tmp, "first"))
        assert _outputs(cfg, Path(tmp, "second")) == first
        if isinstance(first[1], dict):
            bundle = generate_instance_stream(cfg)
            _assert_play_matches_the_reference(bundle)
            if cfg.save_stream:
                _assert_stream_reads_back(bundle, Path(tmp, "first", "stream.txt"))


@settings(max_examples=40, deadline=None)
@given(optimal_gap_configs())
def test_certify_of_a_saved_gap_stream_gives_the_runs_verdict(cfg):
    with pytest.MonkeyPatch.context() as patch, tempfile.TemporaryDirectory() as tmp:
        patch.setattr(generate, "RETRY_CAP", RETRY_CAP)
        run_dir = Path(tmp, "run")
        if isinstance(_outputs(cfg, run_dir)[1], dict):
            _assert_certify_gives_the_runs_gap(cfg, run_dir, Path(tmp, "certify.txt"))
