"""Follow-the-regularized-leader over the prediction domain.

Each round outputs the minimizer of beta_t * psi(c) + <G, c> over the domain,
where G is the running subgradient sum.  Both supported (domain, regularizer)
pairs admit closed forms: negative entropy on the simplex gives a softmax of
-G / beta_t, and the half squared norm on a ball gives a radially projected
step from the center.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    Ball,
    DimensionMismatchError,
    Observation,
    PredictionDomain,
    Simplex,
    _dot,
    _frozen,
    as_vector,
)
from .loss import _residual, estimate_loss

ADAPTIVE = "adaptive"
OFFSET = "offset"
SCHEDULES = (ADAPTIVE, OFFSET)

NEGATIVE_ENTROPY = "negative-entropy"
HALF_SQUARED_NORM = "half-squared-norm"


@dataclass(frozen=True)
class RegularizerConfig:
    """Regularizer choice plus the constants the guarantees are stated with.

    lam is the strong-convexity modulus of the regularizer with respect to
    the dual norm; B bounds both sqrt(2^{5/2} * lam) times the dual-norm
    diameter of the domain and the regularizer's value range; H bounds the
    square root of the value range (used by the offset schedule); K bounds
    the primal-norm diameter of every feasible set.
    """

    kind: str
    lam: float
    B: float
    H: float
    K: float

    def __post_init__(self):
        if self.kind not in (NEGATIVE_ENTROPY, HALF_SQUARED_NORM):
            raise ValueError(f"unknown regularizer kind {self.kind!r}")
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
            kind=NEGATIVE_ENTROPY,
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
            kind=HALF_SQUARED_NORM,
            lam=1.0,
            B=2.0 ** 2.25 * radius,
            H=radius / math.sqrt(2.0),
            K=float(K),
        )


def regularizer_value(config: RegularizerConfig, domain: PredictionDomain, c) -> float:
    """Evaluate the configured regularizer at c (0 * log 0 reads as 0)."""
    c = np.asarray(c, dtype=np.float64)
    if config.kind == NEGATIVE_ENTROPY:
        return float(np.sum(np.where(c > 0.0, c * np.log(np.where(c > 0.0, c, 1.0)), 0.0)))
    assert isinstance(domain, Ball)
    return 0.5 * float(np.linalg.norm(c - domain.center)) ** 2


def _domain_dual_diameter(domain: PredictionDomain) -> float:
    if isinstance(domain, Simplex):
        return 2.0 if domain.dimension >= 2 else 0.0
    assert isinstance(domain, Ball)
    return 2.0 * domain.radius


def _regularizer_range(domain: PredictionDomain, kind: str) -> float:
    if isinstance(domain, Simplex):
        return math.log(domain.dimension)
    assert isinstance(domain, Ball)
    return 0.5 * domain.radius ** 2


def validate_config(domain: PredictionDomain, config: RegularizerConfig) -> None:
    """Check the (domain, regularizer) pairing and the constant inequalities."""
    if isinstance(domain, Simplex):
        if config.kind != NEGATIVE_ENTROPY:
            raise ValueError("the simplex domain pairs with negative entropy")
    elif isinstance(domain, Ball):
        if config.kind != HALF_SQUARED_NORM:
            raise ValueError("the ball domain pairs with the half squared norm")
    else:
        raise TypeError(f"unsupported domain type {type(domain)!r}")
    diameter = _domain_dual_diameter(domain)
    value_range = _regularizer_range(domain, config.kind)
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
    """Trace of one round: the prediction, oracle answer, and losses."""

    t: int
    c_hat: np.ndarray
    x_hat: np.ndarray
    g: np.ndarray
    beta: float
    grad_norm: float
    ell_sub: float
    ell_est: float | None


@dataclass(frozen=True, eq=False)
class LearnerState:
    """Single-writer accumulator for the regularized-leader updates.

    round is the index of the round current_prediction is for (1-based).
    Updates return a fresh state; instances for parallel trials share nothing.
    """

    domain: PredictionDomain
    config: RegularizerConfig
    schedule: str
    grad_sum: np.ndarray
    sq_norm_sum: float
    round: int
    current_prediction: np.ndarray

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


def observe(
    state: LearnerState,
    obs: Observation,
    x_hat,
    c_star=None,
) -> tuple[LearnerState, RoundRecord]:
    """Absorb one observation and produce the next state plus a trace record.

    x_hat must be the oracle maximizer of the current prediction over the
    observation's feasible set; the caller supplies it so that the same
    oracle answer feeds both the update and the loss accounting.  Pass
    c_star to record the simulation-mode estimate loss.

    A round whose learner answer equals the agent's choice has a zero
    subgradient, so its losses are zero and the accumulators, and so the
    closed-form prediction, stay as they are: the state keeps them instead
    of computing the residual or solving again.
    """
    x_hat = as_vector(x_hat)
    x = obs.agent_choice
    if x_hat.size != state.domain.dimension or x.size != state.domain.dimension:
        raise DimensionMismatchError("observation dimension differs from learner")
    c_hat = state.current_prediction
    if x_hat.tobytes() == x.tobytes():
        # both are folded float64 vectors, so equal bytes mean x_hat - x is
        # the +0.0 vector, and every product with it sums to +0.0
        if c_star is not None and np.shape(c_star) != x.shape:
            raise DimensionMismatchError("c_star dimension differs from learner")
        g, grad_norm, ell_sub = _zeros(x.size), 0.0, 0.0
        ell_est = None if c_star is None else 0.0
        grad_sum, sq_norm_sum, prediction = state.grad_sum, state.sq_norm_sum, c_hat
    else:
        g = _residual(x, x_hat)
        grad_norm = state.norms.primal(g)
        ell_sub = _dot(c_hat, g)
        ell_est = None if c_star is None else estimate_loss(c_star, x, x_hat)
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
        ell_sub=ell_sub,
        ell_est=ell_est,
    )
    new_state = LearnerState(
        state.domain,
        state.config,
        state.schedule,
        grad_sum,
        sq_norm_sum,
        state.round + 1,
        prediction,
    )
    return new_state, record
