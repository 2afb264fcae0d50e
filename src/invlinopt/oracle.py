"""Exact linear maximization over each feasible-set variant.

Every oracle returns a true maximizer with a deterministic, documented
tie-breaking rule, so repeated runs reproduce bitwise-identical traces:

* ExplicitVertices: linear scan, lexicographically smallest among exact ties.
* Hypercube: coordinate sign rule, x_i = 1 iff c_i > 0 (ties go to 0), which
  is also the lexicographically smallest maximizer.
* Knapsack: 0/1 dynamic program over the integer capacity grid; items with
  c_i <= 0 are never packed, and strict-improvement updates prefer leaving an
  item out on ties.
* DagPaths: longest-path relaxation in topological order with strict
  improvement, so the first-found predecessor wins ties.

argmax remembers its _MEMO_SIZE most recently used answers, keyed on the
feasible-set object and the exact bytes of the float64 objective, so a
decision problem that repeats round after round is solved once.  Answers
are immutable and bitwise equal to a fresh solve.

argmax_many answers one objective over many sets.  Consecutive
ExplicitVertices sets of one shape are scanned together in one stacked
product, and consecutive DagPaths sets run the longest-path rule on one
Python list of the objective, filling one row array; either batch holds
at most _STACK_CHUNK sets, so peak memory does not grow with the number of
sets.  Every other set goes through argmax.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    DEFAULT_ENUMERATION_CAP,
    DagPaths,
    DimensionMismatchError,
    ExplicitVertices,
    FeasibleSet,
    Hypercube,
    Knapsack,
    _dot,
    _frozen,
)


@dataclass(frozen=True, eq=False)
class OracleResult:
    """A maximizer, its objective value, and the exact-tie multiplicity.

    tie_count is reported when it is cheap to compute (scans and the
    hypercube rule); the dynamic-programming variants report 1.
    """

    maximizer: np.ndarray
    optimal_value: float
    tie_count: int


def _check_dimension(feasible_set: FeasibleSet, c: np.ndarray) -> None:
    if c.shape != (feasible_set.dimension,):
        raise DimensionMismatchError(
            f"objective has shape {c.shape}, set has dimension "
            f"{feasible_set.dimension}"
        )


def _scan(rows: np.ndarray, c: np.ndarray) -> OracleResult:
    """Exhaustive scan; exact-value ties resolve to the lexicographic minimum."""
    values = rows @ c
    first = int(values.argmax())
    best = values == values[first]
    ties = int(np.count_nonzero(best))
    if ties == 1:
        row = rows[first]
    else:
        tied = np.flatnonzero(best)
        # lexsort uses its last key as the primary one, so feed reversed columns
        order = np.lexsort(rows[tied].T[::-1])
        row = rows[tied[order[0]]]
    maximizer = _frozen(row)
    return OracleResult(maximizer, _dot(maximizer, c), ties)


def _hypercube_argmax(X: Hypercube, c: np.ndarray) -> OracleResult:
    x = (c > 0.0).astype(np.float64)
    ties = 2 ** int(np.count_nonzero(c == 0.0))
    maximizer = _frozen(x)
    return OracleResult(maximizer, _dot(maximizer, c), ties)


def _knapsack_argmax(X: Knapsack, c: np.ndarray) -> OracleResult:
    cap = X.capacity
    weights = X.weights
    keep = [
        i for i in range(X.dimension) if c[i] > 0.0 and int(weights[i]) <= cap
    ]
    dp = np.zeros(cap + 1)
    take = np.zeros((len(keep), cap + 1), dtype=bool)
    for j, i in enumerate(keep):
        wi = int(weights[i])
        # candidate values use the pre-update row, so each item enters once
        cand = dp[: cap + 1 - wi] + c[i]
        better = cand > dp[wi:]
        dp[wi:][better] = cand[better]
        take[j, wi:][better] = True
    sel = np.zeros(X.dimension)
    budget = cap
    for j in range(len(keep) - 1, -1, -1):
        if take[j, budget]:
            i = keep[j]
            sel[i] = 1.0
            budget -= int(weights[i])
    maximizer = _frozen(sel)
    return OracleResult(maximizer, _dot(maximizer, c), 1)


def _dag_path(X: DagPaths, c: list[float]) -> list[int]:
    """Arc indices of the longest source-to-sink path, sink end first.

    c holds the objective as Python floats: their additions and comparisons
    are the same binary64 operations as on numpy scalars, only cheaper.
    """
    m = X.num_nodes
    dist = [-math.inf] * m
    dist[0] = 0.0
    pred = [-1] * m
    for u, arcs in enumerate(X._out[:-1]):
        base = dist[u]
        if base == -math.inf:
            continue
        for k, v in arcs:
            cand = base + c[k]
            if cand > dist[v]:
                dist[v] = cand
                pred[v] = k
    tails = X.arcs
    path = []
    node = m - 1
    while node != 0:
        k = pred[node]
        path.append(k)
        node = tails[k][0]
    return path


def _dag_argmax(X: DagPaths, c: np.ndarray) -> OracleResult:
    sel = np.zeros(X.dimension)
    sel[_dag_path(X, c.tolist())] = 1.0
    maximizer = _frozen(sel)
    return OracleResult(maximizer, _dot(maximizer, c), 1)


_MEMO_SIZE = 4

# Entries (feasible_set, objective bytes, result), most recently used first.
# The tuple is never mutated, only replaced by one assignment, so concurrent
# callers read a consistent snapshot; a lost update only drops an entry.
# Each entry holds its set strongly, so an identity match is never a
# recycled id.
_memo: tuple[tuple[FeasibleSet, bytes, OracleResult], ...] = ()


def argmax(feasible_set: FeasibleSet, c) -> OracleResult:
    """Exact maximizer of <c, x> over the feasible set.

    Dispatches to the variant-specific exact algorithm; see the module
    docstring for the deterministic tie rules and the memo.
    """
    global _memo
    c = np.asarray(c, dtype=np.float64)
    _check_dimension(feasible_set, c)
    key = c.tobytes()
    memo = _memo
    for entry in memo:
        if entry[0] is feasible_set and entry[1] == key:
            if entry is not memo[0]:
                _memo = (entry,) + tuple(e for e in memo if e is not entry)
            return entry[2]
    result = _solve(feasible_set, c)
    _memo = ((feasible_set, key, result),) + memo[: _MEMO_SIZE - 1]
    return result


_STACK_CHUNK = 256


def argmax_many(sets: Sequence[FeasibleSet], c) -> list[np.ndarray]:
    """[argmax(X, c).maximizer for X in sets], bitwise, in fewer calls.

    A run of consecutive sets with one _run_key, at most _STACK_CHUNK long,
    is answered as the rows of one read-only array; other sets go through
    argmax.
    """
    c = np.asarray(c, dtype=np.float64)
    out: list[np.ndarray] = []
    i = 0
    while i < len(sets):
        key = _run_key(sets[i])
        if key is None:
            out.append(argmax(sets[i], c).maximizer)
            i += 1
            continue
        j = i + 1
        while (
            j < len(sets) and j - i < _STACK_CHUNK and _run_key(sets[j]) == key
        ):
            j += 1
        # a run's sets share their dimension, so one check covers them all
        _check_dimension(sets[i], c)
        run = sets[i:j]
        out.extend(_dag_rows(run, c) if key[0] == "dag" else _vertex_rows(run, c))
        i = j
    return out


def _run_key(X: FeasibleSet) -> tuple | None:
    """Sets with equal keys share a batch: ExplicitVertices sets of one
    shape, or DagPaths sets of one dimension."""
    if isinstance(X, ExplicitVertices):
        return ("vertices", X.vertices.shape)
    if isinstance(X, DagPaths):
        return ("dag", X.dimension)
    return None


def _vertex_rows(
    sets: Sequence[ExplicitVertices], c: np.ndarray
) -> list[np.ndarray]:
    """A stacked product gives each set the same values as its own scan, so
    a set without an exact tie takes the row at its first maximum; a set
    with a tie goes through the scan's lexicographic rule."""
    stack = np.stack([X.vertices for X in sets])
    values = stack @ c
    first = values.argmax(axis=1)
    picked = np.arange(len(sets))
    ties = np.count_nonzero(values == values[picked, first][:, None], axis=1)
    rows = stack[picked, first] + 0.0
    rows.flags.writeable = False
    answers = list(rows)
    for k in np.flatnonzero(ties > 1):
        answers[k] = _scan(sets[k].vertices, c).maximizer
    return answers


def _dag_rows(sets: Sequence[DagPaths], c: np.ndarray) -> list[np.ndarray]:
    """The longest-path rule of argmax, on one list of c for all sets."""
    weights = c.tolist()
    n = c.size
    hits: list[int] = []
    for r, X in enumerate(sets):
        hits.extend([r * n + k for k in _dag_path(X, weights)])
    rows = np.zeros((len(sets), n))
    rows.reshape(-1)[hits] = 1.0
    rows.flags.writeable = False
    return list(rows)


def _solve(feasible_set: FeasibleSet, c: np.ndarray) -> OracleResult:
    if isinstance(feasible_set, ExplicitVertices):
        return _scan(feasible_set.vertices, c)
    if isinstance(feasible_set, Hypercube):
        return _hypercube_argmax(feasible_set, c)
    if isinstance(feasible_set, Knapsack):
        return _knapsack_argmax(feasible_set, c)
    if isinstance(feasible_set, DagPaths):
        return _dag_argmax(feasible_set, c)
    raise TypeError(f"unsupported feasible set type {type(feasible_set)!r}")


def argmax_bruteforce(
    feasible_set: FeasibleSet, c, cap: int = DEFAULT_ENUMERATION_CAP
) -> OracleResult:
    """Independent maximizer by exhaustive scan over the full enumeration.

    Ties resolve to the lexicographically smallest member.  Propagates the
    enumeration refusal when the set is too large for the cap.
    """
    c = np.asarray(c, dtype=np.float64)
    _check_dimension(feasible_set, c)
    return _scan(feasible_set.members(cap), c)
