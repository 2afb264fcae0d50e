"""Loss functions for judging an objective-vector prediction.

The suboptimality loss measures how far the agent's observed action falls
short of the best action under a candidate objective.  It equals the
Fenchel-Young loss generated by the indicator of the feasible set, whose
convex conjugate is the set's support function (the oracle's optimal value).
The estimate loss measures, under the true objective, how much worse the
prediction's recommended action is than the agent's.
"""

from __future__ import annotations

import numpy as np

from . import oracle
from .core import (
    DimensionMismatchError,
    FeasibleSet,
    MembershipError,
    _dot,
    _frozen,
    as_vector,
    inner_product,
)


def suboptimality_loss(
    feasible_set: FeasibleSet, x, c_hat
) -> tuple[float, np.ndarray]:
    """Residual form <c_hat, x_hat - x> together with the oracle's x_hat.

    Nonnegative up to float noise.  Traces keep the raw value; reports clamp
    it through core.clamp_small_negative.
    """
    x = as_vector(x)
    if not feasible_set.contains(x):
        raise MembershipError("x must belong to the feasible set")
    c_hat = as_vector(c_hat)
    result = oracle.argmax(feasible_set, c_hat)
    value = inner_product(c_hat, result.maximizer - x)
    return value, result.maximizer


def fenchel_young_loss(feasible_set: FeasibleSet, x, c_hat) -> float:
    """Support-function form: max_{x' in X} <c_hat, x'> - <c_hat, x>."""
    x = as_vector(x)
    if not feasible_set.contains(x):
        raise MembershipError("x must belong to the feasible set")
    c_hat = as_vector(c_hat)
    result = oracle.argmax(feasible_set, c_hat)
    return result.optimal_value - inner_product(c_hat, x)


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
    return _residual(x, x_hat)


def _residual(x: np.ndarray, x_hat: np.ndarray) -> np.ndarray:
    """residual_subgradient on trusted finite float64 vectors of one shape."""
    return _frozen(x_hat - x)
