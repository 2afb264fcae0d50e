"""Seeded instance-stream generation with optional gap control.

Randomness is split into independent, documented streams so parts can be
reproduced in isolation: [seed, 2] draws the true objective, [seed, 3] the
fixed feasible set when fresh_sets is off, [seed, 0] drives the training
stream, and [seed, 1] drives holdout sampling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..analysis import _gap_margin
from ..core import (
    Ball,
    DagPaths,
    ExplicitVertices,
    FeasibleSet,
    Hypercube,
    Knapsack,
    NormPair,
    Observation,
    PredictionDomain,
    Simplex,
    as_vector,
)
from ..oracle import argmax_many
from .config import ExperimentConfig


class GenerationFailedError(RuntimeError):
    """The rejection-sampling retry budget ran out."""


@dataclass(frozen=True, eq=False)
class StreamBundle:
    """Everything a run needs: the stream, the truth, and the learner setup.

    c_star_integral is the pre-rescaling integral objective in integral gap
    mode (None otherwise); the agent and all regret accounting use c_star,
    which lies in the prediction domain.  optimal_choices holds, per round,
    the maximizer of c_star over the round's set: the optimal agent's
    response, drawn before any noise replaces it.
    """

    config: ExperimentConfig
    domain: PredictionDomain
    c_star: np.ndarray
    c_star_integral: np.ndarray | None
    observations: tuple[Observation, ...]
    optimal_choices: tuple[np.ndarray, ...]


def build_domain(cfg: ExperimentConfig) -> PredictionDomain:
    if cfg.domain == "simplex":
        return Simplex(cfg.dimension)
    r = cfg.ball_radius
    center = np.full(cfg.dimension, 2.0 * r / math.sqrt(cfg.dimension))
    return Ball(center, r)


def diameter_bound(cfg: ExperimentConfig) -> float:
    """Primal-norm diameter bound K for the configured family.

    All families keep actions inside [0, 1]^n, so the sup-norm diameter is
    at most 1 and the Euclidean diameter at most sqrt(n).
    """
    if cfg.domain == "simplex":
        return 1.0
    return math.sqrt(cfg.dimension)


def _draw_integral_objective(
    cfg: ExperimentConfig, domain: PredictionDomain, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Integral objective plus its rescaling into the prediction domain.

    A positive scalar rescaling never changes the agent's maximizers, so the
    gap structure of the integral objective carries over (scaled by the same
    factor).
    """
    if isinstance(domain, Simplex):
        z = rng.integers(1, 11, size=cfg.dimension).astype(np.float64)
        return as_vector(z), as_vector(z / z.sum())
    assert isinstance(domain, Ball)
    for _ in range(cfg.retry_cap):
        z = rng.integers(5, 11, size=cfg.dimension).astype(np.float64)
        alpha = float(np.dot(z, domain.center) / np.dot(z, z))
        if alpha <= 0.0:
            continue
        candidate = alpha * z
        if np.linalg.norm(candidate - domain.center) <= 0.999 * domain.radius:
            return as_vector(z), as_vector(candidate)
    raise GenerationFailedError("no integral objective ray meets the ball")


def draw_objective(cfg: ExperimentConfig) -> tuple[np.ndarray, np.ndarray | None]:
    """The true objective (and its integral pre-image in integral gap mode)."""
    domain = build_domain(cfg)
    rng = np.random.default_rng([cfg.seed, 2])
    if cfg.gap_mode == "integral":
        integral, scaled = _draw_integral_objective(cfg, domain, rng)
        return scaled, integral
    return domain.sample(rng), None


def _sample_feasible_set(
    cfg: ExperimentConfig, rng: np.random.Generator
) -> FeasibleSet:
    # the hypercube family is handled as a per-stream fixed set
    n = cfg.dimension
    if cfg.family == "random-vertices":
        if cfg.integral_vertices or cfg.gap_mode == "integral":
            verts = rng.integers(0, 2, size=(cfg.num_vertices, n)).astype(np.float64)
        else:
            verts = rng.random((cfg.num_vertices, n))
        return ExplicitVertices(verts)
    if cfg.family == "knapsack":
        weights = rng.integers(0, 10, size=n)
        capacity = int(rng.integers(0, int(weights.sum()) + 1))
        return Knapsack(weights, capacity)
    num_nodes = min(n + 1, 8)
    arcs = [(i, i + 1) for i in range(num_nodes - 1)]
    while len(arcs) < n:
        u = int(rng.integers(0, num_nodes - 1))
        v = int(rng.integers(u + 1, num_nodes))
        arcs.append((u, v))
    return DagPaths(num_nodes, arcs)


def uniform_member(X: FeasibleSet, rng: np.random.Generator) -> np.ndarray:
    """A uniformly random element; hypercubes avoid enumeration entirely."""
    if isinstance(X, Hypercube):
        return as_vector(rng.integers(0, 2, size=X.dimension).astype(np.float64))
    members = X.members()
    return as_vector(members[int(rng.integers(0, members.shape[0]))])


def _gap_test(
    cfg: ExperimentConfig,
    norms: NormPair,
    c_star: np.ndarray,
    c_star_integral: np.ndarray | None,
) -> Callable[[FeasibleSet], bool]:
    """Whether a drawn set meets the configured gap target.

    The first maximizer of the objective over the members (the integral
    objective in integral mode) must be its unique maximizer and, in margin
    mode, have a margin of at least gap_margin: the sets certify_gap would
    certify for the optimal agent.
    """
    if cfg.gap_mode == "none":
        return lambda X: True
    c = c_star if c_star_integral is None else c_star_integral

    def accepts(X: FeasibleSet) -> bool:
        members = X.members()
        best = members[int(np.argmax(members @ c))]
        delta, rival = _gap_margin(members, best, c, norms)
        return rival is None and (cfg.gap_mode == "integral" or delta >= cfg.gap_margin)

    return accepts


def _draw_set(
    cfg: ExperimentConfig,
    accepts: Callable[[FeasibleSet], bool],
    rng: np.random.Generator,
    budget: list[int],
) -> FeasibleSet:
    while True:
        budget[0] -= 1
        if budget[0] < 0:
            raise GenerationFailedError("retry budget exhausted drawing sets")
        X = _sample_feasible_set(cfg, rng)
        if accepts(X):
            return X


def _fixed_set(
    cfg: ExperimentConfig, accepts: Callable[[FeasibleSet], bool]
) -> FeasibleSet | None:
    """The per-stream constant feasible set, or None for fresh draws.

    Derived from its own seed stream so samplers can rebuild it without
    replaying the observation draws.
    """
    if cfg.family == "hypercube":
        cube = Hypercube(cfg.dimension)
        if not accepts(cube):
            raise GenerationFailedError("the hypercube misses the gap target")
        return cube
    if cfg.fresh_sets:
        return None
    rng = np.random.default_rng([cfg.seed, 3])
    return _draw_set(cfg, accepts, rng, [cfg.retry_cap])


def _draw_round(
    cfg: ExperimentConfig,
    accepts: Callable[[FeasibleSet], bool],
    rng: np.random.Generator,
    budget: list[int],
    shared: FeasibleSet | None,
) -> tuple[FeasibleSet, np.ndarray | None]:
    """One round's set and, when the agent errs that round, its random choice.

    The optimal choice draws no randomness, so callers solve it afterwards.
    """
    X = shared if shared is not None else _draw_set(cfg, accepts, rng, budget)
    if cfg.agent_noise > 0.0 and rng.random() < cfg.agent_noise:
        return X, uniform_member(X, rng)
    return X, None


def _draw_observations(
    cfg: ExperimentConfig,
    c_star: np.ndarray,
    accepts: Callable[[FeasibleSet], bool],
    rng: np.random.Generator,
    shared: FeasibleSet | None,
    count: int,
    retry_cap: int,
    holdout: bool,
) -> tuple[list[Observation], list[np.ndarray]]:
    """count observations and the optimal choice behind each.

    Every round is drawn first, in order; the optimal choices are then
    solved in one argmax_many call.  A stream's rounds share one retry
    budget and are numbered from 1; holdout samples each get their own
    budget and round index 1.
    """
    budget = [retry_cap]
    drawn = []
    for _ in range(count):
        if holdout:
            budget = [retry_cap]
        drawn.append(_draw_round(cfg, accepts, rng, budget, shared))
    optimal_choices = argmax_many([X for X, _ in drawn], c_star)
    observations = [
        Observation(X, optimal if noisy is None else noisy, 1 if holdout else t)
        for t, ((X, noisy), optimal) in enumerate(zip(drawn, optimal_choices), 1)
    ]
    return observations, optimal_choices


def generate_instance_stream(cfg: ExperimentConfig) -> StreamBundle:
    """Draw the objective and the full observation stream for one run.

    Deterministic given the config: a repeated call produces bitwise-equal
    vectors.  Raises GenerationFailedError when gap-controlled rejection
    sampling exceeds the retry cap.
    """
    domain = build_domain(cfg)
    c_star, c_star_integral = draw_objective(cfg)
    accepts = _gap_test(cfg, domain.norm_pair, c_star, c_star_integral)
    shared = _fixed_set(cfg, accepts)
    observations, optimal_choices = _draw_observations(
        cfg, c_star, accepts, np.random.default_rng([cfg.seed, 0]),
        shared, cfg.rounds, cfg.retry_cap, holdout=False,
    )
    return StreamBundle(
        config=cfg,
        domain=domain,
        c_star=c_star,
        c_star_integral=c_star_integral,
        observations=tuple(observations),
        optimal_choices=tuple(optimal_choices),
    )


def make_observation_sampler(
    cfg: ExperimentConfig,
    c_star: np.ndarray,
    c_star_integral: np.ndarray | None,
) -> Callable[[np.random.Generator, int], list[Observation]]:
    """Sampler drawing k i.i.d. observations from the stream's distribution.

    sampler(rng, k) makes the same draws, in the same order, as k calls
    that each drew one sample.
    """
    accepts = _gap_test(cfg, build_domain(cfg).norm_pair, c_star, c_star_integral)
    shared = _fixed_set(cfg, accepts)
    retry_cap = min(cfg.retry_cap, 10_000)

    def sampler(rng: np.random.Generator, k: int) -> list[Observation]:
        observations, _ = _draw_observations(
            cfg, c_star, accepts, rng, shared, k, retry_cap, holdout=True
        )
        return observations

    return sampler
