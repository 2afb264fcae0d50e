"""One property test over the whole config space: every valid config runs,
or fails with a named error, a run is a pure function of its config, and
a saved stream reads back to the stream the config generates."""

import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invlinopt.harness import (
    ExperimentConfig,
    generate,
    generate_instance_stream,
    run_experiment,
)
from invlinopt.harness.config import DOMAINS, FAMILIES, GAP_MODES, SCHEDULES
from invlinopt.harness.io import read_stream

# small enough that an unreachable margin fails with GenerationFailedError
# in milliseconds, not after the default budget's seconds
RETRY_CAP = 50


@st.composite
def configs(draw):
    """An ExperimentConfig from every field's valid range, except out, with
    at most 40 rounds, a holdout of at most 20 and dimension at most 6."""
    domain = draw(st.sampled_from(DOMAINS))
    gap_mode = draw(st.sampled_from(GAP_MODES))
    return ExperimentConfig(
        seed=draw(st.integers(0, 2 ** 32 - 1)),
        dimension=draw(st.integers(2 if domain == "simplex" else 1, 6)),
        rounds=draw(st.integers(1, 40)),
        domain=domain,
        schedule=draw(st.sampled_from(SCHEDULES)),
        family=draw(st.sampled_from(FAMILIES)),
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


def _assert_stream_reads_back(cfg, path: Path) -> None:
    """read_stream gives back the objective, each set's members and each
    choice of the config's stream, bitwise; a stream writes every set as
    its member rows."""
    observations, c_star = read_stream(path)
    bundle = generate_instance_stream(cfg)
    assert c_star.tobytes() == bundle.c_star.tobytes()
    assert len(observations) == len(bundle.observations)
    for loaded, drawn in zip(observations, bundle.observations):
        assert (loaded.feasible_set.members().tobytes()
                == drawn.feasible_set.members().tobytes())
        assert loaded.agent_choice.tobytes() == drawn.agent_choice.tobytes()


@settings(max_examples=100, deadline=None)
@given(configs())
def test_every_valid_config_runs_or_names_its_failure_and_repeats(cfg):
    assert cfg == ExperimentConfig(**cfg._asdict())
    with pytest.MonkeyPatch.context() as patch, tempfile.TemporaryDirectory() as tmp:
        patch.setattr(generate, "RETRY_CAP", RETRY_CAP)
        first = _outputs(cfg, Path(tmp, "first"))
        assert _outputs(cfg, Path(tmp, "second")) == first
        if cfg.save_stream and isinstance(first[1], dict):
            _assert_stream_reads_back(cfg, Path(tmp, "first", "stream.txt"))
