"""Command-line interface: run, sweep, certify, and eval subcommands."""

from __future__ import annotations

import argparse
import gc
import sys

from .. import analysis
from ..core import NormPair
from .config import (
    DOMAINS,
    FAMILIES,
    GAP_MODES,
    SCHEDULES,
    ExperimentConfig,
    build_config,
    load_config_file,
)
from .io import fmt, read_stream, read_vector, write_summary
from .runner import check_usage, evaluate_holdout, run_experiment, run_sweep


def _add_experiment_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key-value config file")
    parser.add_argument("--seed", type=int, help="base RNG seed (mandatory)")
    parser.add_argument("--dimension", type=int)
    parser.add_argument("--rounds", type=int)
    parser.add_argument("--domain", choices=DOMAINS)
    parser.add_argument("--schedule", choices=SCHEDULES)
    parser.add_argument("--family", choices=FAMILIES)
    parser.add_argument("--gap", dest="gap_mode", choices=GAP_MODES)
    parser.add_argument("--gap-margin", dest="gap_margin", type=float)
    parser.add_argument("--agent-noise", dest="agent_noise", type=float)
    parser.add_argument("--holdout", type=int)
    parser.add_argument("--num-vertices", dest="num_vertices", type=int)
    parser.add_argument("--integral-vertices", dest="integral_vertices",
                        action="store_const", const=True)
    parser.add_argument("--repeat-instance", dest="fresh_sets",
                        action="store_const", const=False,
                        help="draw one feasible set and face it every round")
    parser.add_argument("--ball-radius", dest="ball_radius", type=float)
    parser.add_argument("--out")


def _config_from_args(args: argparse.Namespace, refused: tuple[str, ...] = ()):
    file_values = load_config_file(args.config) if args.config else {}
    for key in refused:
        if key in file_values:
            raise ValueError(f"{args.config}: {args.command} does not read {key!r}")
    # keys without a flag read as None, which leaves the file value in place
    overrides = {name: getattr(args, name, None) for name in ExperimentConfig._fields}
    return build_config(file_values, **overrides)


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    result = run_experiment(cfg)
    print(f"status: {result.summary['status']}")
    print(f"regret: {fmt(result.ledger.linearized_regret())}")
    if result.summary["failed_checks"] != "none":
        print(f"failed: {result.summary['failed_checks']}")
    if result.summary_path:
        print(f"summary: {result.summary_path}")
    return result.exit_code


def _int_list(args: argparse.Namespace, name: str, default: int) -> list[int]:
    text = getattr(args, name)
    if not text:
        return [default]
    flag = "--" + name.replace("_", "-")
    try:
        values = [int(tok) for tok in text.split(",") if tok]
    except ValueError:
        raise ValueError(f"{flag}: expected integers, got {text!r}") from None
    if not values:
        raise ValueError(f"{flag}: expected at least one integer, got {text!r}")
    return values


def _cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    if cfg.out is None:
        print("sweep requires --out or an out key", file=sys.stderr)
        return 2
    rounds_list = _int_list(args, "rounds_list", cfg.rounds)
    dims = _int_list(args, "dimension_list", cfg.dimension)
    gaps = args.gap_list.split(",") if args.gap_list else [cfg.gap_mode]
    return run_sweep(cfg, rounds_list, dims, gaps)


def _cmd_certify(args: argparse.Namespace) -> int:
    observations, c_star = read_stream(args.stream)
    if c_star is None:
        print("stream file lacks a c_star line", file=sys.stderr)
        return 2
    norms = NormPair(args.norms)
    certificate = analysis.certify_gap(observations, c_star, norms)
    entries: dict = {"satisfied": certificate.satisfied,
                     "rounds": len(observations)}
    if certificate.satisfied:
        entries["delta"] = certificate.delta
        print(f"satisfied: delta = {fmt(certificate.delta)}")
    else:
        witness = certificate.witness
        entries["witness_round"] = witness.round_index
        entries["witness_reason"] = witness.reason
        entries["witness_value"] = witness.value
        print(f"not satisfied: round {witness.round_index} ({witness.reason})")
    if args.out:
        write_summary(args.out, entries)
    return 0 if certificate.satisfied else 1


def _cmd_eval(args: argparse.Namespace) -> int:
    # eval writes no stream, and its --out names a summary file, not a run
    # directory, so a config file's writer keys are refused, not ignored
    cfg = _config_from_args(args, refused=("save_stream", "out"))
    check_usage(cfg)
    if cfg.holdout < 1:
        print("eval requires --holdout >= 1", file=sys.stderr)
        return 2
    prediction = read_vector(args.prediction)
    if prediction.size != cfg.dimension:
        raise ValueError(f"{args.prediction} holds {prediction.size} entries, "
                         f"the dimension is {cfg.dimension}")
    entries = evaluate_holdout(cfg, prediction)._asdict()
    for key, value in entries.items():
        print(f"{key} = {fmt(value) if isinstance(value, float) else value}")
    if args.out:
        write_summary(args.out, entries)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="invlinopt",
        description=(
            "Online inference of linear objectives from observed decisions, "
            "with certified regret accounting."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment")
    _add_experiment_flags(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="grid of runs with derived seeds")
    _add_experiment_flags(p_sweep)
    p_sweep.add_argument("--rounds-list", help="comma-separated horizons")
    p_sweep.add_argument("--dimension-list", help="comma-separated dimensions")
    p_sweep.add_argument("--gap-list", help="comma-separated gap modes")
    p_sweep.set_defaults(func=_cmd_sweep)

    # eval writes no stream, so it refuses the flag instead of ignoring it
    for p_writer in (p_run, p_sweep):
        p_writer.add_argument("--save-stream", dest="save_stream",
                              action="store_const", const=True)

    p_certify = sub.add_parser("certify", help="gap-certify a stored stream")
    p_certify.add_argument("--stream", required=True)
    p_certify.add_argument("--norms", default=NormPair.LINF_L1,
                           choices=(NormPair.LINF_L1, NormPair.L2_L2))
    p_certify.add_argument("--out")
    p_certify.set_defaults(func=_cmd_certify)

    p_eval = sub.add_parser("eval", help="holdout-evaluate a stored prediction")
    _add_experiment_flags(p_eval)
    p_eval.add_argument("--prediction", required=True)
    p_eval.set_defaults(func=_cmd_eval)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, RuntimeError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    """The process entry of `invlinopt` and `python -m invlinopt.harness.cli`.

    Exits with main's status.  On every way out, argparse's SystemExit
    included, the collector's objects are frozen first, so the
    interpreter's final collection does not walk every object numpy and
    invlinopt built; the operating system takes them back with the
    process.  In-process callers of main keep the default exit.
    """
    try:
        status = main()
    finally:
        gc.freeze()
    sys.exit(status)


if __name__ == "__main__":
    entry()
