"""Follow-the-regularized-leader over the prediction domain.

Each round outputs the minimizer of beta_t * psi(c) + <G, c> over the domain,
where G is the running subgradient sum.  The domain type picks the
regularizer, and both pairs admit closed forms: negative entropy on the
simplex gives a softmax of -G / beta_t, and the half squared norm on a ball
gives a radially projected step from the center.  The learner sees only the
observations (X_t, x_t); the true objective and every loss that needs it
belong to the analysis layer.  play runs the recursion over a whole stream
or one chunk of it in one loop and returns the per-round columns, from
which analysis.RegretLedger computes every loss.
"""

from __future__ import annotations

import math
import weakref
from typing import NamedTuple, Sequence

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


class LearnerState(NamedTuple):
    """Single-writer accumulator for the regularized-leader updates.

    B, H and K are the constants of the schedules and of the run's
    RegretLedger, B and H derived from the domain once by init_learner.
    last_answer is (weak reference to the feasible set, prediction, oracle
    answer) of the last round played when that round did not update, else
    None; play reuses it for a first round facing the same live set object
    under the same prediction object, so a stream played in chunks calls
    the oracle as often as the whole stream played at once.  Its answer is
    a copy of the last row of the played chunk's x_hat column, so a state
    keeps no played set alive, nor the vertex block an answer views, nor
    the column.  play returns a fresh state; instances for parallel trials
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
    last_answer: tuple[weakref.ref[FeasibleSet], np.ndarray, np.ndarray] | None = None

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


def _beta(state: LearnerState, sq_norm_sum: float) -> float:
    """Regularizer scale for a round after gradients with sq_norm_sum.

    Adaptive: (2^{1/4} / B) * sqrt(sum of squared gradient norms), zero
    until the first nonzero gradient.  Offset: sqrt(K^2 + that sum) / H,
    always positive.  Both are nondecreasing.
    """
    if state.schedule == ADAPTIVE:
        return (2.0 ** 0.25 / state.B) * math.sqrt(sq_norm_sum)
    return math.sqrt(state.K ** 2 + sq_norm_sum) / state.H


def _solve(domain: PredictionDomain, grad_sum: np.ndarray, b: float) -> np.ndarray:
    """Closed-form minimizer of b * psi(c) + <grad_sum, c>, for b > 0."""
    if isinstance(domain, Simplex):
        z = -grad_sum / b
        z = z - z.max()
        w = np.exp(z)
        return _frozen(w / w.sum())
    assert isinstance(domain, Ball)
    step = domain.center - grad_sum / b
    offset = step - domain.center
    norm = math.sqrt(offset.dot(offset))  # bitwise np.linalg.norm(offset)
    if norm > domain.radius:
        step = domain.center + offset * (domain.radius / norm)
    return _frozen(step)


def play(
    state: LearnerState, observations: Sequence[Observation]
) -> tuple[LearnerState, dict[str, np.ndarray]]:
    """Run the recursion over a stream, or over one chunk of it after the
    chunks before: the final state and the chunk's columns.

    Round t answers its prediction c_hat, x_hat = argmax over the round's
    feasible set, and steps along the residual g = x_hat - x.  The columns
    are read-only arrays with one row per round: c_hat, x_hat and g of
    shape (T, n), and beta, the scale of the regularizer that gave c_hat,
    and grad_norm, the primal norm of g, of length T.

    Rounds are answered through oracle._solve, with the objective checked
    as oracle.argmax checks it only on a prediction object's first use,
    and again on a set whose dimension differs from the domain's: every
    answer, and every DimensionMismatchError or non-finite prediction
    refused, is argmax's, at the same round.

    A round whose answer has the bytes of the agent's choice has a zero
    subgradient: its g and grad_norm stay +0.0, and the accumulators, and
    so the prediction, stay as they are.  Until the next update the
    prediction does not move, so a round facing the set answered last,
    in this chunk or as the state's last_answer while that set is alive,
    reuses that answer without calling the oracle.
    """
    T, n = len(observations), state.domain.dimension
    c_hat, x_hat, g = np.empty((T, n)), np.empty((T, n)), np.zeros((T, n))
    beta, grad_norm = np.empty(T), np.zeros(T)
    grad_sum = state.grad_sum.copy()
    sq_norm_sum = state.sq_norm_sum
    prediction = state.current_prediction
    b = _beta(state, sq_norm_sum)
    primal = state.norms.primal
    answered = answer = checked = None
    if state.last_answer is not None and state.last_answer[1] is prediction:
        held, _, answer = state.last_answer
        answered = held()
    for t, obs in enumerate(observations):
        X = obs.feasible_set
        if X is not answered:
            if prediction is not checked or X.dimension != n:
                c = np.asarray(prediction, dtype=np.float64)
                oracle._check_objective(X, c)
                checked = prediction if X.dimension == n else None
            answered, answer = X, oracle._solve(X, c).maximizer
        c_hat[t] = prediction
        x_hat[t] = answer
        beta[t] = b
        x = obs.agent_choice
        if answer.tobytes() == x.tobytes():
            continue
        # both are folded float64 vectors, so g holds no -0.0, and neither
        # does grad_sum after adding it
        np.subtract(answer, x, out=g[t])
        norm = grad_norm[t] = primal(g[t])
        grad_sum += g[t]
        sq_norm_sum += norm ** 2
        b = _beta(state, sq_norm_sum)
        if b != 0.0:
            prediction = _solve(state.domain, grad_sum, b)
        answered = None
    grad_sum.flags.writeable = False
    columns = {"c_hat": c_hat, "x_hat": x_hat, "g": g, "beta": beta,
               "grad_norm": grad_norm}
    for column in columns.values():
        column.flags.writeable = False
    if T == 0:
        last_answer = state.last_answer
    elif answered is None:
        last_answer = None
    else:
        # a copy of the last round's answer: the oracle's may view the set's
        # vertex block, and a row of x_hat would keep the whole column
        last_answer = (weakref.ref(answered), prediction, _frozen(x_hat[T - 1]))
    final = state._replace(grad_sum=grad_sum, sq_norm_sum=sq_norm_sum,
                           current_prediction=prediction, last_answer=last_answer)
    return final, columns
