"""Flat-file outputs: trace CSV, key-value summaries, stream and vector files.

All decimals are printed with 17 significant digits so files round-trip
float64 exactly and identical runs produce bitwise-identical bytes.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Sequence

import numpy as np

from ..core import ExplicitVertices, Observation, as_vector

TRACE_COLUMNS = (
    "t",
    "ell_sub",
    "ell_est",
    "total",
    "regret",
    "regret_sub",
    "beta",
    "grad_norm",
    "bound_adaptive_grad",
    "bound_adaptive_horizon",
    "bound_offset_horizon",
    "bound_gap_constant",
)

STREAM_MAGIC = "# invlinopt stream v1"


def fmt(value) -> str:
    """17-significant-digit decimal text; None becomes the empty field."""
    if value is None:
        return ""
    return format(float(value), ".17g")


def write_trace(path, rows: Sequence[Sequence[str]]) -> None:
    lines = [",".join(TRACE_COLUMNS)]
    lines.extend(",".join(row) for row in rows)
    Path(path).write_text("\n".join(lines) + "\n")


def read_trace(path) -> list[dict[str, str]]:
    lines = Path(path).read_text().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def write_summary(path, entries: dict) -> None:
    """One ``key = value`` line per entry, in insertion order."""
    lines = []
    for key, value in entries.items():
        if isinstance(value, bool):
            text = "true" if value else "false"
        elif isinstance(value, float):
            text = fmt(value)
        else:
            text = str(value)
        lines.append(f"{key} = {text}")
    Path(path).write_text("\n".join(lines) + "\n")


def read_summary(path) -> dict[str, str]:
    entries: dict[str, str] = {}
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        key, value = line.split(" = ", 1)
        entries[key] = value
    return entries


def write_vector(path, vector) -> None:
    Path(path).write_text(" ".join(fmt(v) for v in np.asarray(vector)) + "\n")


def read_vector(path) -> np.ndarray:
    return as_vector([float(tok) for tok in Path(path).read_text().split()])


def write_stream(path, observations: Sequence[Observation], c_star=None,
                 cap: int | None = None) -> None:
    """Store observations as dimension-tagged explicit vertex lists.

    Line format:
        # invlinopt stream v1
        dim <n>
        c_star <n floats>            (optional)
        obs <round_index> <m>
        <m vertex lines of n floats>
        choice <n floats>
    Non-explicit feasible sets are enumerated (subject to the cap), so a
    reloaded stream always uses ExplicitVertices.  The whole text is
    rendered before the file is opened, so a refusal writes nothing.
    """
    from ..core import DEFAULT_ENUMERATION_CAP

    if cap is None:
        cap = DEFAULT_ENUMERATION_CAP
    lines = [STREAM_MAGIC]
    dim = observations[0].feasible_set.dimension
    lines.append(f"dim {dim}")
    if c_star is not None:
        lines.append("c_star " + " ".join(fmt(v) for v in c_star))
    for obs in observations:
        members = obs.feasible_set.members(cap)
        count, width = members.shape
        # "%.17g" % x is the text of fmt(x)
        row = " ".join(["%.17g"] * width)
        lines.append(f"obs {obs.round_index} {count}")
        lines.append("\n".join([row] * count) % tuple(members.ravel().tolist()))
        lines.append(("choice " + row) % tuple(obs.agent_choice.tolist()))
    Path(path).write_text("\n".join(lines) + "\n")


def read_stream(path) -> tuple[list[Observation], np.ndarray | None]:
    """Parse a stream file written by write_stream.

    Malformed or truncated content raises a ValueError that names the path
    and the line.
    """
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != STREAM_MAGIC:
        raise ValueError(f"{path}: not a stream file")
    lineno = 1  # number of the last line consumed

    def take(expected: str) -> list[str]:
        nonlocal lineno
        if lineno >= len(lines):
            raise ValueError(f"{path}:{lineno + 1}: stream ends early, expected {expected}")
        lineno += 1
        return lines[lineno - 1].split()

    def numbers(tokens: list[str], kind, what: str) -> list:
        try:
            return [kind(t) for t in tokens]
        except ValueError:
            raise ValueError(f"{path}:{lineno}: malformed {what}") from None

    def vector(tokens: list[str], dim: int, what: str) -> list[float]:
        values = numbers(tokens, float, what)
        if len(values) != dim:
            raise ValueError(
                f"{path}:{lineno}: {what} has {len(values)} entries, expected {dim}"
            )
        if not all(math.isfinite(v) for v in values):
            raise ValueError(f"{path}:{lineno}: {what} has a non-finite entry")
        return values

    head = take("a dim line")
    if len(head) != 2 or head[0] != "dim":
        raise ValueError(f"{path}:{lineno}: expected 'dim <n>'")
    (dim,) = numbers(head[1:], int, "dim line")
    c_star = None
    if lineno < len(lines) and lines[lineno].startswith("c_star "):
        c_star = as_vector(vector(take("c_star")[1:], dim, "c_star"))
    observations: list[Observation] = []
    while lineno < len(lines):
        parts = take("an obs line")
        if not parts:
            continue
        if len(parts) != 3 or parts[0] != "obs":
            raise ValueError(f"{path}:{lineno}: expected 'obs <round> <count>'")
        obs_line = lineno
        round_index, count = numbers(parts[1:], int, "obs line")
        vertices = [
            vector(take("a vertex line"), dim, "vertex") for _ in range(count)
        ]
        tokens = take("a choice line")
        if not tokens or tokens[0] != "choice":
            raise ValueError(f"{path}:{lineno}: expected a choice line")
        choice = vector(tokens[1:], dim, "choice")
        try:
            observations.append(
                Observation(ExplicitVertices(vertices), choice, round_index)
            )
        except ValueError as exc:
            raise ValueError(f"{path}:{obs_line}: {exc}") from None
    if not observations:
        raise ValueError(f"{path}: stream holds no observations")
    return observations, c_star
