"""Exact linear maximization over each feasible-set variant.

Every oracle returns a true maximizer with a deterministic, documented
tie-breaking rule, so repeated runs reproduce bitwise-identical traces:

* ExplicitVertices: linear scan, lexicographically smallest among exact ties.
* Hypercube: coordinate sign rule, x_i = 1 iff c_i > 0 (ties go to 0), which
  is also the lexicographically smallest maximizer.
* Knapsack: 0/1 dynamic program over the integer capacity grid; items with
  c_i <= 0 are never packed, and strict-improvement updates prefer leaving an
  item out on ties.
* DagPaths: longest-path relaxation of the arcs in (tail, index) order
  with strict improvement, so the first-found predecessor wins ties.

argmax is a pure function of its arguments and keeps no state; answers
are read-only, so a caller that knows a decision problem repeats may keep
one and reuse it.

argmax_many answers one objective over many sets as one read-only array,
one row per set.  A run of consecutive repeats of one set object, of any
family, goes through argmax once.  Distinct consecutive ExplicitVertices
sets of one shape are scanned together in one stacked product, which reads
consecutive rows of one generation block as a slice of it, uncopied.
Distinct consecutive DagPaths sets of one arc and node count are relaxed
together: their arc arrays are stacked, slot j of every set is relaxed at
once with the same binary64 sums and strict comparisons as the one-set
rule, and one vectorized walk back from the sinks marks the paths.  Each
batch holds at most core._STACK_CHUNK sets and writes its own rows, so
memory beyond the answer array does not grow with the number of sets.
Hypercube and Knapsack sets go through argmax.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from . import core
from .core import (
    DagPaths,
    DimensionMismatchError,
    ExplicitVertices,
    FeasibleSet,
    Hypercube,
    Knapsack,
    _arc_order,
    _frozen,
)


class OracleResult(NamedTuple):
    """A maximizer and the exact-tie multiplicity.

    tie_count is reported when it is cheap to compute (scans and the
    hypercube rule); the dynamic-programming variants report 1.
    """

    maximizer: np.ndarray
    tie_count: int


def _check_objective(feasible_set: FeasibleSet, c: np.ndarray) -> None:
    """c has the set's dimension and finite entries, without which a DAG's
    walk back from its sink would not end."""
    if c.shape != (feasible_set.dimension,):
        raise DimensionMismatchError(
            f"objective has shape {c.shape}, set has dimension "
            f"{feasible_set.dimension}"
        )
    # cheaper than np.isfinite(c).all() at the sizes the learner calls with
    if not all(map(math.isfinite, c.tolist())):
        raise ValueError("objective entries must be finite")


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
    return OracleResult(_frozen(row), ties)


def _hypercube_argmax(X: Hypercube, c: np.ndarray) -> OracleResult:
    x = (c > 0.0).astype(np.float64)
    ties = 2 ** int(np.count_nonzero(c == 0.0))
    return OracleResult(_frozen(x), ties)


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
    return OracleResult(_frozen(sel), 1)


def _dag_path(X: DagPaths, c: list[float]) -> list[int]:
    """Arc indices of the longest source-to-sink path, sink end first.

    The arcs are relaxed in core._arc_order.  c holds the objective as
    Python floats: their additions and comparisons are the same binary64
    operations as on numpy scalars, only cheaper.
    """
    m = X.num_nodes
    ends = X._ends.tolist()
    dist = [-math.inf] * m
    dist[0] = 0.0
    pred = [-1] * m
    for k in _arc_order(X._ends[:, 0]).tolist():
        u, v = ends[k]
        base = dist[u]
        if base == -math.inf:
            continue
        cand = base + c[k]
        if cand > dist[v]:
            dist[v] = cand
            pred[v] = k
    path = []
    node = m - 1
    while node != 0:
        k = pred[node]
        path.append(k)
        node = ends[k][0]
    return path


def _dag_argmax(X: DagPaths, c: np.ndarray) -> OracleResult:
    sel = np.zeros(X.dimension)
    sel[_dag_path(X, c.tolist())] = 1.0
    return OracleResult(_frozen(sel), 1)


def argmax(feasible_set: FeasibleSet, c) -> OracleResult:
    """Exact maximizer of <c, x> over the feasible set.

    Dispatches to the variant-specific exact algorithm; see the module
    docstring for the deterministic tie rules.  c must be finite.
    """
    c = np.asarray(c, dtype=np.float64)
    _check_objective(feasible_set, c)
    return _solve(feasible_set, c)


def argmax_many(sets: Sequence[FeasibleSet], c) -> np.ndarray:
    """Read-only (len(sets), c.size) array whose row i is, bitwise,
    argmax(sets[i], c).maximizer.

    A run of consecutive repeats of one set object goes through argmax
    once.  A run of distinct consecutive sets with one _run_key, at most
    core._STACK_CHUNK long, fills its rows in one batch, which stops before
    a set that repeats; a set without a batch rule goes through argmax.
    """
    c = np.asarray(c, dtype=np.float64)
    out = np.zeros((len(sets), c.size))

    def repeats(j: int) -> bool:
        return j + 1 < len(sets) and sets[j + 1] is sets[j]

    i = 0
    while i < len(sets):
        key = _run_key(sets[i])
        j = i + 1
        if key is None or repeats(i):
            while j < len(sets) and sets[j] is sets[i]:
                j += 1
            out[i:j] = argmax(sets[i], c).maximizer
        else:
            while (j < len(sets) and j - i < core._STACK_CHUNK
                   and _run_key(sets[j]) == key and not repeats(j)):
                j += 1
            # a run's sets share their dimension, so one check covers them all
            _check_objective(sets[i], c)
            fill = _dag_rows if key[0] == "dag" else _vertex_rows
            fill(sets[i:j], c, out[i:j])
        i = j
    out.flags.writeable = False
    return out


def _run_key(X: FeasibleSet) -> tuple | None:
    """Sets with equal keys share a batch: ExplicitVertices sets of one
    shape, or DagPaths sets of one dimension and node count."""
    if isinstance(X, ExplicitVertices):
        return ("vertices", X.vertices.shape)
    if isinstance(X, DagPaths):
        return ("dag", X.dimension, X.num_nodes)
    return None


def _vertex_stack(sets: Sequence[ExplicitVertices]) -> np.ndarray:
    """The sets' vertex arrays as one (k, m, n) array: a slice of their
    block when they are its consecutive rows, known by the block's identity
    and each set's row index, and a stacked copy otherwise."""
    block, start = sets[0]._block, sets[0]._row
    if block is not None and all(
        X._block is block and X._row == row
        for row, X in enumerate(sets, start)
    ):
        return block[start:start + len(sets)]
    return np.stack([X.vertices for X in sets])


def _vertex_rows(
    sets: Sequence[ExplicitVertices], c: np.ndarray, rows: np.ndarray
) -> None:
    """A stacked product gives each set the same values as its own scan, so
    a set without an exact tie takes the row at its first maximum; a set
    with a tie goes through the scan's lexicographic rule."""
    stack = _vertex_stack(sets)
    values = stack @ c
    first = values.argmax(axis=1)
    picked = np.arange(len(sets))
    ties = np.count_nonzero(values == values[picked, first][:, None], axis=1)
    np.add(stack[picked, first], 0.0, out=rows)
    for k in np.flatnonzero(ties > 1):
        rows[k] = _scan(sets[k].vertices, c).maximizer


def _dag_rows(sets: Sequence[DagPaths], c: np.ndarray, rows: np.ndarray) -> None:
    """The longest-path rule of argmax, relaxed across the whole chunk at
    once; the sets share their arc and node counts, and rows start as zeros.

    Slot j holds each set's j-th arc in core._arc_order, as _dag_path
    relaxes them, so relaxing slot j of every set at once makes the same
    binary64 sums and the same strict > comparisons.
    A set's skipped unreached tail (distance -inf) gives a sum that is
    -inf or nan, which the comparison never takes.  The walk back from the
    sink then runs over the sets still away from the source.
    """
    k, m = len(sets), sets[0].num_nodes
    ends = np.stack([X._ends for X in sets])
    tails = ends[:, :, 0]
    order = _arc_order(tails)
    # node v of set r is entry r * m + v of the flat dist and pred arrays
    offset = np.arange(0, k * m, m)[:, None]
    tail_at = np.take_along_axis(tails, order, axis=1) + offset
    head_at = np.take_along_axis(ends[:, :, 1], order, axis=1) + offset
    dist = np.full(k * m, -math.inf)
    dist[offset[:, 0]] = 0.0
    pred = np.full(k * m, -1)
    for tail, head, w, arc in zip(tail_at.T, head_at.T, c[order].T, order.T):
        cand = dist[tail] + w
        better = cand > dist[head]
        head = head[better]
        dist[head] = cand[better]
        pred[head] = arc[better]
    live = np.arange(k)
    node = np.full(k, m - 1)
    while live.size:
        arc = pred[live * m + node]
        rows[live, arc] = 1.0
        node = tails[live, arc]
        away = node != 0
        live, node = live[away], node[away]


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
