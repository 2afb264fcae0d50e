"""Experiment execution: the online loop, certification, and file outputs.

The protocol per round is strict: predict, then observe, then update, so a
prediction never depends on the current or future observations.  A run
plays its stream core._STACK_CHUNK rounds at a time: each chunk is drawn,
saved, played, recorded and certified, then freed before the next draw, so
that only the ledger's length-T columns grow with the horizon; each gap
objective's one certificate is carried on to the next chunk.  The run
reports exactly analysis.verify_run's checks; the exit status is nonzero
exactly when one of them failed, and the summary names each that did.
trace_rows renders the trace from the ledger's columns in chunks of
core._STACK_CHUNK rows, and write_trace writes each chunk as it is made,
so the trace's text never exists whole.
"""

from __future__ import annotations

import itertools
import sys
from contextlib import nullcontext
from pathlib import Path
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .. import analysis, core, learner
from ..core import clamp_small_negative
from .config import ExperimentConfig
from .generate import (
    StreamBundle,
    build_domain,
    diameter_bound,
    draw_objective,
    make_observation_sampler,
)
from .io import (
    DECIMAL,
    TRACE_COLUMNS,
    fmt,
    stream_writer,
    write_summary,
    write_trace,
    write_vector,
)

class RunResult(NamedTuple):
    """Everything a caller might want to inspect after a run."""

    exit_code: int
    ledger: analysis.RegretLedger
    checks: list[analysis.BoundCheck]
    certificate: analysis.GapCertificate | None
    evaluation: analysis.OfflineEvaluation | None
    summary: dict
    summary_path: str | None


def _ledger(cfg: ExperimentConfig, c_star, rounds: int) -> analysis.RegretLedger:
    """An empty ledger, its learner set up from the config alone."""
    state = learner.init_learner(build_domain(cfg), cfg.schedule, diameter_bound(cfg))
    return analysis.RegretLedger(c_star, state, rounds)


def _play_chunk(ledger: analysis.RegretLedger, observations, references) -> None:
    """Play the ledger's learner over one chunk and record the chunk."""
    state, played = learner.play(ledger.learner, observations)
    ledger.record(state, observations, played, references)


def simulate(bundle: StreamBundle) -> analysis.RegretLedger:
    """Run the online loop over a bundle's stream; pure given the bundle.

    The stream is played and recorded core._STACK_CHUNK rounds at a time,
    as run_experiment plays its chunks, with the bundle's optimal_choices
    as the references; the ledger holds the final learner state.
    """
    rounds = len(bundle.observations)
    if len(bundle.optimal_choices) != rounds:
        raise ValueError("observations and references differ in length")
    ledger = _ledger(bundle.config, bundle.c_star, rounds)
    step = core._STACK_CHUNK
    for start in range(0, rounds, step):
        chunk = slice(start, start + step)
        _play_chunk(ledger, bundle.observations[chunk], bundle.optimal_choices[chunk])
    return ledger


def trace_rows(
    ledger: analysis.RegretLedger,
    delta: float | None = None,
) -> Iterator[str]:
    """The trace body with the applicable running bound columns, as text
    chunks of at most core._STACK_CHUNK rows: each is one % of the row
    template over its rows' values as Python floats, %d for t, DECIMAL for
    a present column and an empty field for an absent bound column."""
    bounds = analysis.bound_columns(ledger, delta)
    columns = [
        bounds[name.removeprefix("bound_")] if name.startswith("bound_")
        else ledger.columns[name] for name in TRACE_COLUMNS[1:]
    ]
    row = ",".join(["%d"] + ["" if c is None else DECIMAL for c in columns]) + "\n"
    present = [np.arange(1.0, ledger.rounds + 1)] + [c for c in columns if c is not None]
    step = core._STACK_CHUNK
    for start in range(0, ledger.rounds, step):
        block = np.column_stack([c[start:start + step] for c in present])
        yield (row * len(block)) % tuple(block.ravel().tolist())


# the config fields a summary does not write
_UNWRITTEN_CONFIG = ("fresh_sets", "save_stream", "out")


def _summary_entries(
    cfg: ExperimentConfig,
    ledger: analysis.RegretLedger,
    checks: list[analysis.BoundCheck],
    certificate: analysis.GapCertificate | None,
    integral_certificate: analysis.GapCertificate | None,
    evaluation: analysis.OfflineEvaluation | None,
    skipped: dict[str, str],
) -> dict:
    entries: dict = {}
    failed = [c.name for c in checks if not c.passed]
    entries["status"] = "ok" if not failed else "failed"
    entries["failed_checks"] = ",".join(failed) if failed else "none"
    for key, value in cfg._asdict().items():
        if key not in _UNWRITTEN_CONFIG:
            entries[f"config.{key}"] = value
    entries["result.regret"] = ledger.linearized_regret()
    entries["result.regret_sub"] = ledger.subopt_regret()
    entries["result.total_loss"] = ledger.total_loss()
    entries["result.sum_sq_grad"] = ledger.sum_sq_grad()
    entries["result.final_ell_sub"] = clamp_small_negative(ledger.columns["ell_sub"][-1])
    entries["empirical.max_grad_norm"] = ledger.max_grad_norm
    entries["empirical.max_dual_distance"] = ledger.max_dual_distance
    for check in checks:
        entries[f"check.{check.name}"] = "pass" if check.passed else "fail"
        entries[f"check.{check.name}.round"] = check.round
        entries[f"check.{check.name}.value"] = check.value
        entries[f"check.{check.name}.bound"] = check.bound
        entries[f"check.{check.name}.margin"] = check.margin
    if certificate is not None:
        entries["gap.satisfied"] = certificate.satisfied
        if certificate.satisfied:
            entries["gap.delta"] = certificate.delta
        elif certificate.witness is not None:
            entries["gap.witness_round"] = certificate.witness.round_index
            entries["gap.witness_reason"] = certificate.witness.reason
    if integral_certificate is not None and integral_certificate.satisfied:
        entries["gap.integral_delta"] = integral_certificate.delta
    if evaluation is not None:
        for key, value in evaluation._asdict().items():
            entries[f"offline.{key}"] = value
    for name, reason in skipped.items():
        entries[f"skipped.{name}"] = reason
    return entries


def evaluate_holdout(cfg: ExperimentConfig, prediction) -> analysis.OfflineEvaluation:
    """offline_evaluate of a prediction on holdout samples from [cfg.seed, 1],
    against the objective draw_objective(cfg) gives.

    A run and a later eval of its prediction score the same holdout.
    """
    c_star, c_star_integral = draw_objective(cfg)
    sampler = make_observation_sampler(cfg, c_star, c_star_integral)
    seed = np.random.SeedSequence([cfg.seed, 1])
    return analysis.offline_evaluate(prediction, c_star, sampler, cfg.holdout, seed)


def check_usage(cfg: ExperimentConfig) -> None:
    """Refuse, with a ValueError, a saved stream without an output
    directory and a gap margin outside margin mode, which would be ignored.

    run_experiment and eval call it on one run's config.  It is not part
    of ExperimentConfig, because a sweep's base config may hold a gap
    margin that only its margin trials take.
    """
    if cfg.save_stream and cfg.out is None:
        raise ValueError("save_stream needs out: the stream is written there")
    if cfg.gap_margin != 0.0 and cfg.gap_mode != "margin":
        raise ValueError(f"gap_margin is read only in margin mode, "
                         f"not gap mode {cfg.gap_mode!r}")


def run_experiment(cfg: ExperimentConfig) -> RunResult:
    """Generate, simulate, certify, and (when configured) write outputs.

    The stream generate_instance_stream would draw is drawn, played,
    recorded and certified core._STACK_CHUNK rounds at a time, and each
    chunk is freed before the next is drawn, once save_stream's
    stream_writer has it.
    The stream is in place before the other files are written.
    """
    check_usage(cfg)
    c_star, c_star_integral = draw_objective(cfg)
    sampler = make_observation_sampler(cfg, c_star, c_star_integral)
    rng = np.random.default_rng([cfg.seed, 0])
    ledger = _ledger(cfg, c_star, cfg.rounds)
    skipped: dict[str, str] = {}

    # each gap objective with the certificate of the rounds played so far
    objectives: list[np.ndarray] = []
    if cfg.gap_mode != "none" and cfg.agent_noise > 0.0:
        skipped["gap_checks"] = "agent is noisy, optimal choices required"
    elif cfg.gap_mode != "none":
        objectives = [c for c in (c_star, c_star_integral) if c is not None]
    certificates = [None] * len(objectives)
    norms = ledger.learner.norms
    step = core._STACK_CHUNK
    saving = (stream_writer(Path(cfg.out) / "stream.txt", cfg.dimension, c_star)
              if cfg.save_stream else nullcontext(lambda observations: None))
    with saving as write_chunk:
        for start in range(0, cfg.rounds, step):
            observations, references = sampler(rng, min(step, cfg.rounds - start))
            write_chunk(observations)
            _play_chunk(ledger, observations, references)
            certificates = [analysis.certify_gap(observations, c, norms, before=before)
                            for c, before in zip(objectives, certificates)]
            # freed before the next draw: only a repeated set outlives its chunk
            del observations, references
        certificate, integral_certificate = (certificates + [None, None])[:2]
        averaged = ledger.average_prediction()
        evaluation = evaluate_holdout(cfg, averaged) if cfg.holdout > 0 else None
        checks = analysis.verify_run(ledger, certificate, integral_certificate, evaluation,
                                     plateau_burn_in=1000)
        summary = _summary_entries(
            cfg, ledger, checks, certificate, integral_certificate, evaluation, skipped
        )
        exit_code = 0 if all(c.passed for c in checks) else 1

    summary_path = None
    if cfg.out is not None:
        out = Path(cfg.out)
        out.mkdir(parents=True, exist_ok=True)
        summary_path = str(out / "summary.txt")
        delta = certificate.delta if certificate is not None else None
        write_trace(out / "trace.csv", trace_rows(ledger, delta))
        write_summary(summary_path, summary)
        write_vector(out / "prediction.txt", averaged)

    return RunResult(
        exit_code=exit_code,
        ledger=ledger,
        checks=checks,
        certificate=certificate,
        evaluation=evaluation,
        summary=summary,
        summary_path=summary_path,
    )


def run_sweep(
    base: ExperimentConfig,
    rounds_list: Sequence[int],
    dimension_list: Sequence[int],
    gap_list: Sequence[str],
) -> int:
    """Grid of runs with derived seeds base.seed + i; returns the worst status.

    Trials are isolated (fresh learner and stream per trial) and written to
    per-trial directories of base.out plus a sweep_index.csv there.  Every
    trial's config is built before anything is written, so a bad grid value
    writes nothing.  A trial that raises ValueError, RuntimeError or
    MemoryError is named on stderr and indexed with exit 2 and no regret;
    the other trials still run.
    """
    out = Path(base.out)
    trials = []
    grid = itertools.product(rounds_list, dimension_list, gap_list)
    for trial, (rounds, dimension, gap_mode) in enumerate(grid):
        name = f"trial{trial:03d}_n{dimension}_T{rounds}_gap{gap_mode}"
        cfg = base._replace(seed=base.seed + trial, rounds=int(rounds),
                            dimension=int(dimension), gap_mode=gap_mode, out=str(out / name),
                            gap_margin=base.gap_margin if gap_mode == "margin" else 0.0)
        trials.append((name, cfg))
    out.mkdir(parents=True, exist_ok=True)
    index_lines = ["trial,dir,seed,dimension,rounds,gap_mode,exit,regret,regret_sub"]
    worst = 0
    for trial, (name, cfg) in enumerate(trials):
        try:
            result = run_experiment(cfg)
            status = [result.exit_code, fmt(result.ledger.linearized_regret()),
                      fmt(result.ledger.subopt_regret())]
        except (ValueError, RuntimeError, MemoryError) as exc:
            print(f"error: {cfg.out}: {exc}", file=sys.stderr)
            status = [2, "", ""]
        worst = max(worst, status[0])
        row = [trial, name, cfg.seed, cfg.dimension, cfg.rounds, cfg.gap_mode, *status]
        index_lines.append(",".join(map(str, row)))
    (out / "sweep_index.csv").write_text("\n".join(index_lines) + "\n")
    return worst
