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
from .loss import _residual

ADAPTIVE = "adaptive"
OFFSET = "offset"
SCHEDULES = (ADAPTIVE, OFFSET)


@dataclass(frozen=True)
class RegularizerConfig:
    """The constants the guarantees are stated with.

    The domain decides the regularizer: negative entropy on the simplex,
    the half squared norm on a ball.  lam is the regularizer's
    strong-convexity modulus with respect to the dual norm; B bounds both
    sqrt(2^{5/2} * lam) times the dual-norm diameter of the domain and the
    regularizer's value range; H bounds the square root of the value range
    (used by the offset schedule); K bounds the primal-norm diameter of
    every feasible set.
    """

    lam: float
    B: float
    H: float
    K: float

    def __post_init__(self):
        for name in ("lam", "B", "H", "K"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive")
        if self.lam > 1.0:
            raise ValueError(
                "built-in regularizers are exactly 1-strongly convex; "
                "lam cannot exceed 1"
            )

    @classmethod
    def for_simplex(cls, n: int, K: float) -> "RegularizerConfig":
        """Canonical constants for negative entropy on the n-simplex.

        Requires n >= 2 (the 1-point simplex has a degenerate value range).
        """
        if n < 2:
            raise ValueError("simplex regularizer needs dimension >= 2")
        log_n = math.log(n)
        return cls(
            lam=1.0,
            B=2.0 ** 2.75 * math.sqrt(log_n),
            H=math.sqrt(log_n),
            K=float(K),
        )

    @classmethod
    def for_ball(cls, radius: float, K: float) -> "RegularizerConfig":
        """Canonical constants for the half squared norm on a ball."""
        radius = float(radius)
        if radius <= 0.0:
            raise ValueError("radius must be positive")
        return cls(
            lam=1.0,
            B=2.0 ** 2.25 * radius,
            H=radius / math.sqrt(2.0),
            K=float(K),
        )


def _domain_dual_diameter(domain: PredictionDomain) -> float:
    if isinstance(domain, Simplex):
        return 2.0 if domain.dimension >= 2 else 0.0
    assert isinstance(domain, Ball)
    return 2.0 * domain.radius


def _regularizer_range(domain: PredictionDomain) -> float:
    if isinstance(domain, Simplex):
        return math.log(domain.dimension)
    assert isinstance(domain, Ball)
    return 0.5 * domain.radius ** 2


def validate_config(domain: PredictionDomain, config: RegularizerConfig) -> None:
    """Check the constant inequalities for the domain's regularizer."""
    if not isinstance(domain, (Simplex, Ball)):
        raise TypeError(f"unsupported domain type {type(domain)!r}")
    diameter = _domain_dual_diameter(domain)
    value_range = _regularizer_range(domain)
    b_sq = config.B ** 2
    slack = 1e-12 * (1.0 + b_sq)
    if b_sq + slack < 2.0 ** 2.5 * config.lam * diameter ** 2:
        raise ValueError(
            "B^2 must be at least 2^{5/2} * lam * (dual diameter)^2"
        )
    if b_sq + slack < value_range:
        raise ValueError("B^2 must cover the regularizer's value range")
    if config.H ** 2 + slack < value_range:
        raise ValueError("H^2 must cover the regularizer's value range")


@dataclass(frozen=True, eq=False)
class RoundRecord:
    """Trace of one round: the prediction, oracle answer, and subgradient.

    The losses are columns of analysis.RegretLedger, computed from these
    fields for the whole run at once.
    """

    t: int
    c_hat: np.ndarray
    x_hat: np.ndarray
    g: np.ndarray
    beta: float
    grad_norm: float


@dataclass(frozen=True, eq=False)
class LearnerState:
    """Single-writer accumulator for the regularized-leader updates.

    round is the index of the round current_prediction is for (1-based).
    last_answer is (feasible set, prediction, oracle answer) of the last
    round, or None; observe reuses it for the same set and prediction objects.
    Updates return a fresh state; instances for parallel trials share nothing.
    """

    domain: PredictionDomain
    config: RegularizerConfig
    schedule: str
    grad_sum: np.ndarray
    sq_norm_sum: float
    round: int
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


def init_learner(
    domain: PredictionDomain, config: RegularizerConfig, schedule: str
) -> LearnerState:
    """Fresh state whose first prediction is the regularizer's minimizer."""
    if schedule not in SCHEDULES:
        raise ValueError(f"unknown schedule {schedule!r}")
    validate_config(domain, config)
    return LearnerState(
        domain=domain,
        config=config,
        schedule=schedule,
        grad_sum=as_vector(np.zeros(domain.dimension)),
        sq_norm_sum=0.0,
        round=1,
        current_prediction=_minimizer_of_regularizer(domain),
    )


def _beta_from_sum(config: RegularizerConfig, schedule: str, sq_norm_sum: float) -> float:
    if schedule == ADAPTIVE:
        return (2.0 ** 0.25 / config.B) * math.sqrt(sq_norm_sum / config.lam)
    return math.sqrt(config.K ** 2 + sq_norm_sum) / (
        config.H * math.sqrt(config.lam)
    )


def beta(state: LearnerState) -> float:
    """Regularizer scale for the upcoming round.

    Adaptive: (2^{1/4} / B) * sqrt(sum of squared gradient norms / lam),
    zero until the first nonzero gradient.  Offset: sqrt(K^2 + that sum)
    divided by H * sqrt(lam), always positive.  Both are nondecreasing.
    """
    return _beta_from_sum(state.config, state.schedule, state.sq_norm_sum)


def _solve(
    domain: PredictionDomain,
    config: RegularizerConfig,
    schedule: str,
    grad_sum: np.ndarray,
    sq_norm_sum: float,
    previous: np.ndarray,
) -> np.ndarray:
    b = _beta_from_sum(config, schedule, sq_norm_sum)
    if b == 0.0:
        # all past gradients are zero, so the objective is flat: hold the
        # previous prediction
        return previous
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


def predict(state: LearnerState) -> np.ndarray:
    """Prediction for the upcoming round.

    Recomputes the closed-form minimizer from the state's accumulators and
    equals state.current_prediction bitwise.
    """
    return _solve(
        state.domain,
        state.config,
        state.schedule,
        state.grad_sum,
        state.sq_norm_sum,
        state.current_prediction,
    )


@functools.lru_cache(maxsize=8)
def _zeros(n: int) -> np.ndarray:
    """A shared read-only +0.0 vector: the subgradient of a zero round."""
    return _frozen(np.zeros(n))


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
        prediction = _solve(
            state.domain,
            state.config,
            state.schedule,
            grad_sum,
            sq_norm_sum,
            c_hat,
        )
    record = RoundRecord(
        t=state.round,
        c_hat=c_hat,
        x_hat=x_hat,
        g=g,
        beta=beta(state),
        grad_norm=grad_norm,
    )
    new_state = LearnerState(
        state.domain,
        state.config,
        state.schedule,
        grad_sum,
        sq_norm_sum,
        state.round + 1,
        prediction,
        (X, c_hat, x_hat),
    )
    return new_state, record
