"""Experiment configuration: a flat key-value file plus CLI overrides."""

from __future__ import annotations

import math
from pathlib import Path
from typing import NamedTuple, get_type_hints

from ..learner import SCHEDULES

DOMAINS = ("simplex", "ball")
FAMILIES = ("random-vertices", "hypercube", "knapsack", "dag")
GAP_MODES = ("none", "integral", "margin")


class _ExperimentConfigFields(NamedTuple):
    seed: int
    dimension: int = 5
    rounds: int = 1000
    domain: str = "simplex"
    schedule: str = "adaptive"
    family: str = "random-vertices"
    agent_noise: float = 0.0
    gap_mode: str = "none"
    gap_margin: float = 0.0
    holdout: int = 0
    num_vertices: int = 32
    integral_vertices: bool = False
    fresh_sets: bool = True
    ball_radius: float = 1.0
    save_stream: bool = False
    out: str | None = None


class ExperimentConfig(_ExperimentConfigFields):
    """All knobs of one experiment.  The seed is mandatory.

    gap_mode "integral" draws integral vertices and an integral objective
    (rescaled into the prediction domain) and regenerates sets until the
    optimum is unique; "margin" regenerates sets until the certified
    per-round gap reaches gap_margin.  agent_noise is the probability of
    replacing the optimal choice with a uniformly random feasible point.
    fresh_sets=False draws one feasible set per stream and repeats it every
    round (the repeated-decision-problem regime).
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "ExperimentConfig":
        self = super().__new__(cls, *args, **kwargs)
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if self.dimension < 1:
            raise ValueError("dimension must be at least 1")
        if self.rounds < 1:
            raise ValueError("rounds must be at least 1")
        if self.domain not in DOMAINS:
            raise ValueError(f"domain must be one of {DOMAINS}")
        if self.schedule not in SCHEDULES:
            raise ValueError(f"schedule must be one of {SCHEDULES}")
        if self.family not in FAMILIES:
            raise ValueError(f"family must be one of {FAMILIES}")
        if self.gap_mode not in GAP_MODES:
            raise ValueError(f"gap mode must be one of {GAP_MODES}")
        if not 0.0 <= self.agent_noise <= 1.0:
            raise ValueError("agent_noise must be in [0, 1]")
        if self.gap_mode == "margin" and not 0.0 < self.gap_margin < math.inf:
            raise ValueError("gap_margin must be positive and finite in margin mode")
        if self.holdout < 0:
            raise ValueError("holdout must be nonnegative")
        if self.num_vertices < 1:
            raise ValueError("num_vertices must be at least 1")
        if not 1e-100 <= self.ball_radius <= 1e100:
            # past either end a ball's squared norms, or the gap bound's B^3,
            # leave the normal floats
            raise ValueError("ball_radius must be in [1e-100, 1e100]")
        if self.domain == "simplex" and self.dimension < 2:
            raise ValueError("the simplex domain needs dimension >= 2")
        if self.out == "":
            # an empty path would put the outputs in the working directory
            raise ValueError("out must be a non-empty directory path")
        return self

    @classmethod
    def _make(cls, values) -> "ExperimentConfig":
        return cls(*values)


_BOOL_WORDS = {"true": True, "false": False, "1": True, "0": False,
               "yes": True, "no": False}


def _coerce(kind, raw: str):
    if kind == "bool":
        word = raw.strip().lower()
        if word not in _BOOL_WORDS:
            raise ValueError(f"expected a boolean, got {raw!r}")
        return _BOOL_WORDS[word]
    if kind == "int":
        return int(raw)
    if kind == "float":
        return float(raw)
    return raw


def _field_kinds() -> dict[str, str]:
    kinds = {bool: "bool", int: "int", float: "float"}
    return {name: kinds.get(kind, "str")
            for name, kind in get_type_hints(ExperimentConfig).items()}


def load_config_file(path) -> dict:
    """Parse ``key = value`` lines; '#' starts a comment, blanks are skipped."""
    kinds = _field_kinds()
    values: dict = {}
    text = Path(path).read_text()
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in kinds:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            values[key] = _coerce(kinds[key], raw)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {key}: {exc}") from None
    return values


def build_config(file_values: dict | None = None, **overrides) -> ExperimentConfig:
    """Merge file values with overrides (overrides win) into a config."""
    merged = dict(file_values or {})
    for key, value in overrides.items():
        if value is not None:
            merged[key] = value
    if "seed" not in merged:
        raise ValueError("a seed is mandatory (set it in the file or with --seed)")
    return ExperimentConfig(**merged)
