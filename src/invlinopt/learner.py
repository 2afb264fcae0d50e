"""Follow-the-regularized-leader over the prediction domain.

Each round outputs the minimizer of beta_t * psi(c) + <G, c> over the domain,
where G is the running subgradient sum.  The domain type picks the
regularizer, and both pairs admit closed forms: negative entropy on the
simplex gives a softmax of -G / beta_t, and the half squared norm on a ball
gives a radially projected step from the center.  The learner sees only the
observations (X_t, x_t); the true objective and every loss that needs it
belong to the analysis layer.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import oracle
from .core import Ball, FeasibleSet, Observation, PredictionDomain, Simplex, _frozen, as_vector

ADAPTIVE = "adaptive"
OFFSET = "offset"
SCHEDULES = (ADAPTIVE, OFFSET)


def _regularizer_constants(
    domain: PredictionDomain, K: float
) -> tuple[float, float, float]:
    """(B, H, K) for the domain's regularizer, which is 1-strongly convex.

    The domain type picks the regularizer: negative entropy on the simplex,
    the half squared norm on a ball.  B bounds both 2^{5/4} times the
    dual-norm diameter of the domain and the square root of the
    regularizer's value range; H bounds that square root alone (used by the
    offset schedule).  K, the primal-norm diameter bound of every feasible
    set, is the one constant the domain does not fix.
    """
    K = float(K)
    if not 0.0 < K < math.inf:
        raise ValueError(f"K must be positive and finite, got {K!r}")
    if isinstance(domain, Simplex):
        if domain.dimension < 2:
            raise ValueError("simplex regularizer needs dimension >= 2")
        log_n = math.log(domain.dimension)
        return 2.0 ** 2.75 * math.sqrt(log_n), math.sqrt(log_n), K
    if isinstance(domain, Ball):
        r = domain.radius
        return 2.0 ** 2.25 * r, r / math.sqrt(2.0), K
    raise TypeError(f"unsupported domain type {type(domain)!r}")


@dataclass(frozen=True, eq=False)
class RoundRecord:
    """Trace of one round: the prediction, oracle answer, and subgradient.

    The losses are columns of analysis.RegretLedger, computed from these
    fields for the whole run at once.  Its round is its position in the
    run.
    """

    c_hat: np.ndarray
    x_hat: np.ndarray
    g: np.ndarray
    beta: float
    grad_norm: float


@dataclass(frozen=True, eq=False)
class LearnerState:
    """Single-writer accumulator for the regularized-leader updates.

    B, H and K are the constants of the schedules and of the run's
    RegretLedger, B and H derived from the domain once by init_learner.
    last_answer is (feasible set, prediction, oracle answer) of the last
    round, or None; observe reuses it for the same set and prediction
    objects.  Updates return a fresh state; instances for parallel trials
    share nothing.
    """

    domain: PredictionDomain
    schedule: str
    B: float
    H: float
    K: float
    grad_sum: np.ndarray
    sq_norm_sum: float
    current_prediction: np.ndarray
    last_answer: tuple[FeasibleSet, np.ndarray, np.ndarray] | None = None

    @property
    def norms(self):
        return self.domain.norm_pair


def _minimizer_of_regularizer(domain: PredictionDomain) -> np.ndarray:
    if isinstance(domain, Simplex):
        return as_vector(np.full(domain.dimension, 1.0 / domain.dimension))
    assert isinstance(domain, Ball)
    return domain.center


def init_learner(domain: PredictionDomain, schedule: str, K: float) -> LearnerState:
    """Fresh state whose first prediction is the regularizer's minimizer.

    K bounds the primal-norm diameter of every feasible set the learner
    will face.
    """
    if schedule not in SCHEDULES:
        raise ValueError(f"unknown schedule {schedule!r}")
    B, H, K = _regularizer_constants(domain, K)
    return LearnerState(
        domain=domain,
        schedule=schedule,
        B=B,
        H=H,
        K=K,
        grad_sum=as_vector(np.zeros(domain.dimension)),
        sq_norm_sum=0.0,
        current_prediction=_minimizer_of_regularizer(domain),
    )


def _beta_from_sum(state: LearnerState, sq_norm_sum: float) -> float:
    if state.schedule == ADAPTIVE:
        return (2.0 ** 0.25 / state.B) * math.sqrt(sq_norm_sum)
    return math.sqrt(state.K ** 2 + sq_norm_sum) / state.H


def beta(state: LearnerState) -> float:
    """Regularizer scale for the upcoming round.

    Adaptive: (2^{1/4} / B) * sqrt(sum of squared gradient norms), zero
    until the first nonzero gradient.  Offset: sqrt(K^2 + that sum) / H,
    always positive.  Both are nondecreasing.
    """
    return _beta_from_sum(state, state.sq_norm_sum)


def _solve(state: LearnerState, grad_sum: np.ndarray, sq_norm_sum: float) -> np.ndarray:
    """Closed-form minimizer for the accumulators grad_sum and sq_norm_sum."""
    b = _beta_from_sum(state, sq_norm_sum)
    if b == 0.0:
        # all past gradients are zero, so the objective is flat: hold the
        # previous prediction
        return state.current_prediction
    domain = state.domain
    if isinstance(domain, Simplex):
        z = -grad_sum / b
        z = z - z.max()
        w = np.exp(z)
        return _frozen(w / w.sum())
    assert isinstance(domain, Ball)
    step = domain.center - grad_sum / b
    offset = step - domain.center
    norm = float(np.linalg.norm(offset))
    if norm > domain.radius:
        step = domain.center + offset * (domain.radius / norm)
    return _frozen(step)


@functools.lru_cache(maxsize=8)
def _zeros(n: int) -> np.ndarray:
    """A shared read-only +0.0 vector: the subgradient of a zero round."""
    return _frozen(np.zeros(n))


def _residual(x: np.ndarray, x_hat: np.ndarray) -> np.ndarray:
    """x_hat - x, a subgradient of the suboptimality loss at the prediction,
    for finite float64 vectors of one shape."""
    return _frozen(x_hat - x)


def observe(state: LearnerState, obs: Observation) -> tuple[LearnerState, RoundRecord]:
    """Absorb one observation and produce the next state plus a trace record.

    The learner answers its own prediction, x_hat = argmax over the
    observation's feasible set, and steps along the residual g = x_hat - x.
    A set of another dimension makes the oracle raise DimensionMismatchError.

    A round whose learner answer equals the agent's choice has a zero
    subgradient, so the accumulators, and so the closed-form prediction,
    stay as they are: the state keeps them instead of computing the
    residual or solving again, and a next round on the same set object
    takes its answer from last_answer without calling the oracle.
    """
    c_hat = state.current_prediction
    X = obs.feasible_set
    last = state.last_answer
    # a writable prediction may have changed in place since it was answered
    reuse = last and last[0] is X and last[1] is c_hat and not c_hat.flags.writeable
    x_hat = last[2] if reuse else oracle.argmax(X, c_hat).maximizer
    x = obs.agent_choice
    if x_hat.tobytes() == x.tobytes():
        # both are folded float64 vectors, so equal bytes mean x_hat - x is
        # the +0.0 vector
        g, grad_norm = _zeros(x.size), 0.0
        grad_sum, sq_norm_sum, prediction = state.grad_sum, state.sq_norm_sum, c_hat
    else:
        g = _residual(x, x_hat)
        grad_norm = state.norms.primal(g)
        grad_sum = _frozen(state.grad_sum + g)
        sq_norm_sum = state.sq_norm_sum + grad_norm ** 2
        prediction = _solve(state, grad_sum, sq_norm_sum)
    record = RoundRecord(
        c_hat=c_hat,
        x_hat=x_hat,
        g=g,
        beta=beta(state),
        grad_norm=grad_norm,
    )
    new_state = LearnerState(
        state.domain,
        state.schedule,
        state.B,
        state.H,
        state.K,
        grad_sum,
        sq_norm_sum,
        prediction,
        (X, c_hat, x_hat),
    )
    return new_state, record
