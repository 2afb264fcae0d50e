"""Flat-file outputs: trace CSV, key-value summaries, stream and vector files.

Every decimal is DECIMAL, 17 significant digits, so files round-trip
float64 exactly and identical runs produce bitwise-identical bytes.  fmt
and the row templates of the stream and the trace all use it.  The trace
and the stream are written a chunk at a time, so neither text is ever
held whole.
"""

from __future__ import annotations

import itertools
import math
import os
from contextlib import contextmanager, suppress
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from ..core import ExplicitVertices, Observation, _fill_members, as_vector

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

# the %-format of every decimal in every output file
DECIMAL = "%.17g"

# distinct stream rows whose texts a stream_writer keeps for reuse, so that
# its memory beyond a chunk's text stays bounded
_RENDERED_ROWS = 4096


def fmt(value) -> str:
    """DECIMAL text of a number; None becomes the empty field."""
    if value is None:
        return ""
    return DECIMAL % float(value)


def write_trace(path, chunks: Iterable[str]) -> None:
    """The header line, then each chunk of rendered rows, to one open file."""
    with open(path, "w") as file:
        file.write(",".join(TRACE_COLUMNS) + "\n")
        file.writelines(chunks)


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


def write_vector(path, vector) -> None:
    Path(path).write_text(" ".join(fmt(v) for v in np.asarray(vector)) + "\n")


def read_vector(path) -> np.ndarray:
    try:
        return as_vector([float(tok) for tok in Path(path).read_text().split()])
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


@contextmanager
def stream_writer(path, dim: int, c_star=None) -> Iterator[Callable[[Sequence], None]]:
    """A function that appends chunks of observations to the stream at path.

    Line format:
        # invlinopt stream v1
        dim <n>
        c_star <n floats>            (optional)
        obs <round> <m>              (round: the position, from 1)
        <m vertex lines of n floats>
        choice <n floats>
    The header is written once, and rounds are numbered on across chunks.
    Every set is written as its members(), so a reloaded stream uses
    ExplicitVertices.  A chunk's cold members() caches are filled first,
    in order, by core._fill_members (DAGs in batches); a set past the cap
    raises EnumerationRefusedError.  Each distinct row, keyed on its bytes,
    is rendered once, with one % for a set's new rows; rows and choices
    reuse the kept texts, dropped before a set past _RENDERED_ROWS.
    Records go to path's .part sibling, which becomes path when the block
    ends.  When it raises, the part and the directories made for it are
    removed, deepest first, and nothing that was there before is touched.
    """
    path = Path(path)
    part = path.with_name(path.name + ".part")
    made = [d for d in (path.parent, *path.parent.parents) if not d.exists()]
    path.parent.mkdir(parents=True, exist_ok=True)
    file = open(part, "x")
    rendered: dict[bytes, str] = {}
    text_of, positions = rendered.get, itertools.count(1)

    def write(observations: Sequence[Observation]) -> None:
        _fill_members([obs.feasible_set for obs in observations])
        lines = []
        for obs in observations:
            if len(rendered) > _RENDERED_ROWS:
                rendered.clear()
            members = obs.feasible_set.members()
            data, width = members.tobytes(), members.itemsize * members.shape[1]
            keys = [data[i:i + width] for i in range(0, len(data), width)]
            texts = list(map(text_of, keys))
            if None in texts:
                new = [i for i, text in enumerate(texts) if text is None]
                row = " ".join([DECIMAL] * members.shape[1])
                text = "\n".join([row] * len(new)) % tuple(members[new].ravel().tolist())
                rendered.update(zip([keys[i] for i in new], text.split("\n")))
                texts = list(map(text_of, keys))
            lines.append(f"obs {next(positions)} {len(keys)}")
            lines += texts
            # a choice is a member of its set, and both are folded: its bytes
            # are those of one of the rows just rendered
            lines.append("choice " + rendered[obs.agent_choice.tobytes()])
        file.write("\n".join(lines) + "\n")

    try:
        with file:
            file.write(f"{STREAM_MAGIC}\ndim {dim}\n")
            if c_star is not None:
                file.write("c_star " + " ".join(fmt(v) for v in c_star) + "\n")
            yield write
        os.replace(part, path)
    except BaseException:
        part.unlink()
        with suppress(OSError):
            for folder in made:
                os.rmdir(folder)
        raise


def write_stream(path, observations: Sequence[Observation], c_star=None) -> None:
    """The whole stream through one stream_writer, so a refused set leaves
    no file and no directory."""
    with stream_writer(path, observations[0].feasible_set.dimension, c_star) as write:
        write(observations)


def read_stream(path) -> tuple[list[Observation], np.ndarray | None]:
    """Parse a stream file written by write_stream.

    Malformed or truncated content, or an obs line whose round is not its
    position, raises a ValueError that names the path and the line.
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
        index, count = numbers(parts[1:], int, "obs line")
        position = len(observations) + 1
        if index != position:
            raise ValueError(
                f"{path}:{lineno}: obs {index} at position {position}, "
                "expected the round to be its position"
            )
        vertices = [
            vector(take("a vertex line"), dim, "vertex") for _ in range(count)
        ]
        tokens = take("a choice line")
        if not tokens or tokens[0] != "choice":
            raise ValueError(f"{path}:{lineno}: expected a choice line")
        choice = vector(tokens[1:], dim, "choice")
        try:
            observations.append(Observation(ExplicitVertices(vertices), choice))
        except ValueError as exc:
            raise ValueError(f"{path}:{obs_line}: {exc}") from None
    if not observations:
        raise ValueError(f"{path}: stream holds no observations")
    return observations, c_star
