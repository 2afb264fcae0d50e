"""Independent references the suite checks the library against.

The library computes each loss once, as a column of analysis.RegretLedger,
and answers membership through the private FeasibleSet._contains that
Observation uses.  The scalar forms below restate those quantities one
instance at a time, so a test can compare the two.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from invlinopt import oracle
from invlinopt.core import (
    Ball,
    DagPaths,
    DimensionMismatchError,
    FeasibleSet,
    MembershipError,
    NormPair,
    PredictionDomain,
    Simplex,
    _dot,
    _frozen,
    as_vector,
    tolerance,
)
from invlinopt.learner import LearnerState, _solve
from invlinopt.oracle import OracleResult


def inner_product(a, b) -> float:
    """Standard inner product with a hard dimension check."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise DimensionMismatchError(f"shapes {a.shape} and {b.shape} differ")
    return _dot(a, b)


def optimal_value(result: OracleResult, c) -> float:
    """<c, maximizer>, the value of an oracle answer."""
    return float(np.dot(result.maximizer, np.asarray(c, dtype=np.float64)))


def dual_norm(norms: NormPair, v) -> float:
    """The dual norm of one vector: l1 for linf-l1, l2 for l2-l2."""
    v = np.asarray(v, dtype=np.float64)
    if norms.kind == NormPair.LINF_L1:
        return float(np.sum(np.abs(v)))
    return float(np.linalg.norm(v))


def contains(X: FeasibleSet, v) -> bool:
    """Exact membership test; a vector of another shape is not a member."""
    v = np.asarray(v, dtype=np.float64)
    return v.shape == (X.dimension,) and X._contains(v)


def in_domain(domain: PredictionDomain, v) -> bool:
    """Membership in a prediction domain, up to tolerance(1.0) on the
    simplex and tolerance(radius) on a ball."""
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (domain.dimension,):
        return False
    if isinstance(domain, Simplex):
        tol = tolerance(1.0)
        return bool(np.all(v >= -tol)) and abs(float(v.sum()) - 1.0) <= tol
    assert isinstance(domain, Ball)
    tol = tolerance(domain.radius)
    return float(np.linalg.norm(v - domain.center)) <= domain.radius + tol


def out_arcs(X: DagPaths, node: int) -> tuple[tuple[int, int], ...]:
    """Outgoing (arc_index, head) pairs of a node, in arc-index order."""
    return X._out[node]


def argmax_bruteforce(feasible_set: FeasibleSet, c) -> OracleResult:
    """Independent maximizer by a plain scan of the full enumeration.

    The values are the entries of members() @ c.  The maximizer is the
    smallest tied member compared as a Python tuple, the lexicographic
    minimum, and tie_count is the number of tied members.  Propagates
    members()'s EnumerationRefusedError for a set too large to enumerate.
    """
    c = np.asarray(c, dtype=np.float64)
    if c.shape != (feasible_set.dimension,):
        raise DimensionMismatchError(
            f"objective has shape {c.shape}, set has dimension "
            f"{feasible_set.dimension}"
        )
    members = feasible_set.members()
    values = (members @ c).tolist()
    best = max(values)
    tied = [tuple(row) for row, value in zip(members.tolist(), values) if value == best]
    return OracleResult(as_vector(min(tied)), len(tied))


def predict(state: LearnerState) -> np.ndarray:
    """Prediction for the upcoming round.

    Recomputes the closed-form minimizer from the state's accumulators and
    equals state.current_prediction bitwise.
    """
    return _solve(state, state.grad_sum, state.sq_norm_sum)


def suboptimality_loss(
    feasible_set: FeasibleSet, x, c_hat
) -> tuple[float, np.ndarray]:
    """Residual form <c_hat, x_hat - x> together with the oracle's x_hat."""
    x = as_vector(x)
    if not contains(feasible_set, x):
        raise MembershipError("x must belong to the feasible set")
    c_hat = as_vector(c_hat)
    result = oracle.argmax(feasible_set, c_hat)
    value = inner_product(c_hat, result.maximizer - x)
    return value, result.maximizer


def fenchel_young_loss(feasible_set: FeasibleSet, x, c_hat) -> float:
    """Support-function form: max_{x' in X} <c_hat, x'> - <c_hat, x>.

    The loss is the Fenchel-Young loss generated by the indicator of the
    feasible set, whose convex conjugate is the set's support function.
    """
    x = as_vector(x)
    if not contains(feasible_set, x):
        raise MembershipError("x must belong to the feasible set")
    c_hat = as_vector(c_hat)
    result = oracle.argmax(feasible_set, c_hat)
    return optimal_value(result, c_hat) - inner_product(c_hat, x)


def estimate_loss(c_star, x, x_hat) -> float:
    """<c_star, x - x_hat>: regret of recommending x_hat under c_star."""
    c_star = np.asarray(c_star, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    x_hat = np.asarray(x_hat, dtype=np.float64)
    if not c_star.shape == x.shape == x_hat.shape:
        raise DimensionMismatchError(
            f"shapes {c_star.shape}, {x.shape} and {x_hat.shape} differ"
        )
    return _dot(c_star, x - x_hat)


def residual_subgradient(x, x_hat) -> np.ndarray:
    """x_hat - x, a subgradient of the suboptimality loss at c_hat."""
    x = as_vector(x)
    x_hat = as_vector(x_hat)
    if x.shape != x_hat.shape:
        raise ValueError(f"shapes {x.shape} and {x_hat.shape} differ")
    return _frozen(x_hat - x)


def read_trace(path) -> list[dict[str, str]]:
    """The rows of a trace.csv as dicts keyed by its header."""
    lines = Path(path).read_text().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def read_summary(path) -> dict[str, str]:
    """The ``key = value`` lines of a summary file, values as text."""
    entries: dict[str, str] = {}
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        key, value = line.split(" = ", 1)
        entries[key] = value
    return entries
