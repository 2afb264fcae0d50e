"""Seeded instance-stream generation with optional gap control.

Randomness is split into independent, documented streams so parts can be
reproduced in isolation: [seed, 2] draws the true objective, [seed, 3] the
fixed feasible set when fresh_sets is off, [seed, 0] drives the training
stream, and [seed, 1] drives holdout sampling.  One sampler draws both the
stream and the holdout.

Generation trusts what it draws itself.  When nothing else draws from the
rng between two sets (fresh random vertex sets with no gap test and no
agent noise), one sampler call draws all its vertex sets as one (k, m, n)
block of rng.random or rng.integers(0, 2), bitwise k draws of (m, n);
every other vertex set is a block of one.  A block is checked for
finiteness and folded once.  The fresh DAGs of one sampler call write
their arcs into one (k, n, 2) intp block: its rows' chain is filled in
once, the scalar rng.integers draws of each extra arc follow in the order
a per-set draw makes them, a rejected draw's redraw overwrites its row,
and each set is DagPaths._of_row of its row, without per-arc checks.
A DAG sampler call's scalar draws (arcs, noise flags, member indices) are
replayed from raw PCG64 blocks by numpy's own rules (_ReplayedDraws).
Each observation takes its choice, an oracle answer or a uniform_member
row, uncopied and without a membership scan.  The public constructors,
and so read_stream and callers' own observations, keep every check.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from .. import core
from ..analysis import _gap_margin
from ..core import (
    DEFAULT_ENUMERATION_CAP,
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
    _check_cap,
    as_vector,
)
from ..oracle import argmax, argmax_many
from .config import ExperimentConfig
from .io import fmt

# Rejection-sampling draws allowed for each feasible set before
# GenerationFailedError.
RETRY_CAP = 100_000


class GenerationFailedError(RuntimeError):
    """The rejection-sampling retry budget ran out."""


# raw PCG64 outputs pulled at a time; a memoryview makes each an int only
# when drawn (a block's ints made at once cost a DAG run 0.2 MB of peak RSS)
_RAW_BLOCK = 256


class _ReplayedDraws:
    """Inside with, integers(low, high) for a range in [1, 2**32] and
    random() return, bit for bit, what rng's scalar calls return, read from
    raw PCG64 outputs pulled in blocks; on exit, by a raise too, rng is where
    those calls would leave it.  Without replay, or for another bit
    generator, with gives rng itself."""

    def __init__(self, rng: np.random.Generator, replay: bool):
        self._rng, self._bits = rng, rng.bit_generator
        self._replays = replay and type(self._bits) is np.random.PCG64

    def __enter__(self):
        if not self._replays:
            return self._rng
        self._start, self._used, self._raws = self._bits.state, 0, self._blocks()
        self._uinteger = self._start["uinteger"]
        self._words = [self._uinteger] * self._start["has_uint32"]
        return self

    def __exit__(self, *exc) -> None:
        if self._replays:  # reset, advanced by the raws used, the half kept
            self._bits.state = self._start
            self._bits.advance(self._used)
            self._bits.state = {**self._bits.state, "has_uint32": len(self._words),
                                "uinteger": self._uinteger}

    def _blocks(self):
        while True:
            for raw in memoryview(self._bits.random_raw(_RAW_BLOCK)):
                self._used += 1
                yield raw

    def integers(self, low: int, high: int) -> int:
        # Lemire's (2019) multiply-and-reject on 32-bit words: a raw's low
        # half, then its high half, kept pending (O'Neill 2014)
        n = high - low
        if not 1 <= n <= 1 << 32:
            raise ValueError(f"replayed range {n} is outside [1, 2**32]")
        while n > 1:
            if not self._words:
                raw = next(self._raws)
                self._uinteger = raw >> 32
                self._words = [self._uinteger, raw & 0xFFFFFFFF]
            m = self._words.pop() * n
            if m & 0xFFFFFFFF >= n or m & 0xFFFFFFFF >= ((1 << 32) - n) % n:
                return low + (m >> 32)
        return low

    def random(self) -> float:
        return (next(self._raws) >> 11) * (1.0 / 9007199254740992.0)


class StreamBundle(NamedTuple):
    """Everything a run needs: the stream, the truth, and the config, which
    fixes the learner's setup through build_domain and diameter_bound.

    c_star_integral is the pre-rescaling integral objective in integral gap
    mode (None otherwise); the agent and all regret accounting use c_star,
    which lies in the prediction domain.  optimal_choices is the sampler's
    read-only (rounds, n) array: row t is the maximizer of c_star over
    round t's set, the optimal agent's response, drawn before any noise
    replaces it.
    """

    config: ExperimentConfig
    c_star: np.ndarray
    c_star_integral: np.ndarray | None
    observations: tuple[Observation, ...]
    optimal_choices: np.ndarray


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
    factor).  On a ball, z's ray passes within 2r / 3 of the center, as
    [5, 10]^n lies within 19.5 degrees of the diagonal: one draw suffices.
    """
    if isinstance(domain, Simplex):
        z = rng.integers(1, 11, size=cfg.dimension).astype(np.float64)
        return as_vector(z), as_vector(z / z.sum())
    assert isinstance(domain, Ball)
    z = rng.integers(5, 11, size=cfg.dimension).astype(np.float64)
    alpha = float(np.dot(z, domain.center) / np.dot(z, z))
    return as_vector(z), as_vector(alpha * z)


def draw_objective(cfg: ExperimentConfig) -> tuple[np.ndarray, np.ndarray | None]:
    """The true objective (and its integral pre-image in integral gap mode)."""
    domain = build_domain(cfg)
    rng = np.random.default_rng([cfg.seed, 2])
    if cfg.gap_mode == "integral":
        integral, scaled = _draw_integral_objective(cfg, domain, rng)
        return scaled, integral
    return domain.sample(rng), None


def _vertex_sets(
    cfg: ExperimentConfig, rng: np.random.Generator, k: int
) -> list[ExplicitVertices]:
    """k random vertex sets, drawn as one (k, m, n) block, integral bits
    core._STACK_CHUNK sets at a time: one whole draw's bits and state."""
    shape = (k, cfg.num_vertices, cfg.dimension)
    if cfg.integral_vertices or cfg.gap_mode == "integral":
        block = np.empty(shape)
        for start in range(0, k, core._STACK_CHUNK):
            rows = block[start:start + core._STACK_CHUNK]
            rows[...] = rng.integers(0, 2, size=rows.shape)
    else:
        block = rng.random(shape)
    return ExplicitVertices._from_block(block)


def _dag_nodes(cfg: ExperimentConfig) -> int:
    """The node count of every drawn DAG, whose n arcs include the chain."""
    return min(cfg.dimension + 1, 8)


def _dag_block(cfg: ExperimentConfig, k: int) -> np.ndarray:
    """A (k, n, 2) intp block of DAG arcs on _dag_nodes(cfg) nodes, each
    row's chain of arcs (i, i + 1) through the sink filled in; the draws
    fill the rest of a row."""
    num_nodes = _dag_nodes(cfg)
    block = np.empty((k, cfg.dimension, 2), dtype=np.intp)
    block[:, : num_nodes - 1, 0] = np.arange(num_nodes - 1)
    block[:, : num_nodes - 1, 1] = np.arange(1, num_nodes)
    return block


def _sample_feasible_set(
    cfg: ExperimentConfig, rng: np.random.Generator, arcs: np.ndarray | None = None
) -> FeasibleSet:
    """One drawn set.  A DAG's arcs go into arcs, a writable row of a
    _dag_block block, or into a block of one; a redraw overwrites them."""
    # the hypercube family is handled as a per-stream fixed set
    n = cfg.dimension
    if cfg.family == "random-vertices":
        return _vertex_sets(cfg, rng, 1)[0]
    if cfg.family == "knapsack":
        weights = rng.integers(0, 10, size=n)
        capacity = int(rng.integers(0, int(weights.sum()) + 1))
        return Knapsack(weights, capacity)
    if arcs is None:
        arcs = _dag_block(cfg, 1)[0]
    num_nodes = _dag_nodes(cfg)
    extra = []
    for _ in range(num_nodes - 1, n):
        u = int(rng.integers(0, num_nodes - 1))
        extra.append((u, int(rng.integers(u + 1, num_nodes))))
    if extra:  # one row write; a chain alone (n <= 7) has no extra arcs
        arcs[num_nodes - 1:] = extra
    return DagPaths._of_row(num_nodes, arcs)


def uniform_member(X: FeasibleSet, rng: np.random.Generator) -> np.ndarray:
    """A uniformly random element, read-only and folded as
    Observation._of_member requires: row i of members(), for i drawn by
    rng.integers(0, count).  A DAG unranks row i from its path counts
    without enumerating, and refuses a count past the enumeration cap as
    members() would; other sets return the uncopied members() row, and
    hypercubes skip enumeration."""
    if isinstance(X, Hypercube):
        return as_vector(rng.integers(0, 2, size=X.dimension).astype(np.float64))
    if isinstance(X, DagPaths):
        counts = X._path_counts()
        _check_cap(counts[0], DEFAULT_ENUMERATION_CAP)
        return X._member(counts, int(rng.integers(0, counts[0])))
    members = X.members()
    return members[int(rng.integers(0, members.shape[0]))]


def _gap_test(
    cfg: ExperimentConfig,
    norms: NormPair,
    c_star: np.ndarray,
    c_star_integral: np.ndarray | None,
) -> tuple[Callable[[FeasibleSet], float], float]:
    """A drawn set's margin against the configured gap target, and the
    margin a set needs: gap_margin in margin mode, 0 in integral mode.

    The margin is that of the first maximizer of the objective over the
    members (the integral objective in integral mode) when it is the unique
    maximizer, and -inf when it is not, so the sets that reach the floor
    are those certify_gap would certify for the optimal agent.  Without a
    gap target every set's margin is +inf.
    """
    if cfg.gap_mode == "none":
        return (lambda X: math.inf), 0.0
    c = c_star if c_star_integral is None else c_star_integral

    def margin(X: FeasibleSet) -> float:
        members = X.members()
        best = members[int(np.argmax(members @ c))]
        delta, rival = _gap_margin(members, best, c, norms)
        return -math.inf if rival is not None else delta

    return margin, cfg.gap_margin if cfg.gap_mode == "margin" else 0.0


def _draw_set(
    cfg: ExperimentConfig,
    margin: Callable[[FeasibleSet], float],
    floor: float,
    rng: np.random.Generator,
    arcs: np.ndarray | None = None,
) -> FeasibleSet:
    """The first drawn set whose margin reaches the floor, a DAG's arcs
    drawn into arcs as _sample_feasible_set does; after RETRY_CAP draws,
    GenerationFailedError names them and, in margin mode, the best margin
    seen."""
    best = -math.inf
    for _ in range(RETRY_CAP):
        X = _sample_feasible_set(cfg, rng, arcs)
        seen = margin(X)
        if seen >= floor:
            return X
        best = max(best, seen)
    message = f"retry budget exhausted: {RETRY_CAP} draws for one set"
    if cfg.gap_mode == "margin":
        message += f", best margin {fmt(best)} against gap_margin {fmt(floor)}"
    raise GenerationFailedError(message)


def _fixed_set(
    cfg: ExperimentConfig, margin: Callable[[FeasibleSet], float], floor: float
) -> FeasibleSet | None:
    """The per-stream constant feasible set, or None for fresh draws.

    Derived from its own seed stream so samplers can rebuild it without
    replaying the observation draws.
    """
    if cfg.family == "hypercube":
        cube = Hypercube(cfg.dimension)
        if margin(cube) < floor:
            raise GenerationFailedError("the hypercube misses the gap target")
        return cube
    if cfg.fresh_sets:
        return None
    rng = np.random.default_rng([cfg.seed, 3])
    return _draw_set(cfg, margin, floor, rng)


def generate_instance_stream(cfg: ExperimentConfig) -> StreamBundle:
    """Draw the objective and the full observation stream for one run.

    The stream is the observation sampler's first cfg.rounds samples on
    [seed, 0].  Deterministic given the config: a repeated call produces
    bitwise-equal vectors.  Raises GenerationFailedError when gap-controlled
    rejection sampling exceeds RETRY_CAP draws for one set.
    """
    c_star, c_star_integral = draw_objective(cfg)
    sampler = make_observation_sampler(cfg, c_star, c_star_integral)
    observations, optimal_choices = sampler(
        np.random.default_rng([cfg.seed, 0]), cfg.rounds
    )
    return StreamBundle(
        config=cfg,
        c_star=c_star,
        c_star_integral=c_star_integral,
        observations=tuple(observations),
        optimal_choices=optimal_choices,
    )


def make_observation_sampler(
    cfg: ExperimentConfig,
    c_star: np.ndarray,
    c_star_integral: np.ndarray | None,
) -> Callable[[np.random.Generator, int], tuple[list[Observation], np.ndarray]]:
    """Sampler drawing k i.i.d. observations from the stream's distribution.

    sampler(rng, k) also returns a read-only (k, n) array of the
    maximizers of c_star over the sets: the optimal agent's responses,
    before any noise replaces them.  Each sample draws its set (RETRY_CAP
    draws allowed for each), then, when the agent errs, its random choice;
    the optimal choices draw no randomness and are solved afterwards in one
    argmax_many call, so sampler(rng, k) makes the draws of k calls that
    each drew one sample.  A fixed set's optimal choice is solved once,
    when the sampler is made, and each call broadcasts it to its k rows.
    """
    margin, floor = _gap_test(cfg, build_domain(cfg).norm_pair, c_star, c_star_integral)
    shared = _fixed_set(cfg, margin, floor)
    shared_choice = None if shared is None else argmax(shared, c_star).maximizer
    # nothing but the sets draws from the rng and no set is rejected, so
    # the k sets of one call are one block
    in_blocks = (
        cfg.family == "random-vertices"
        and shared is None
        and cfg.gap_mode == "none"
        and cfg.agent_noise == 0.0
    )

    def sampler(rng: np.random.Generator, k: int):
        if in_blocks:
            sets = _vertex_sets(cfg, rng, k)
            noisy = [None] * k
        else:
            sets, noisy = [], []
            # fresh DAGs draw their arcs into the rows of one block; a DAG
            # sample's draws are all scalar, and so replayed
            fresh_dags = cfg.family == "dag" and shared is None
            rows = _dag_block(cfg, k) if fresh_dags else [None] * k
            with _ReplayedDraws(rng, cfg.family == "dag") as draws:
                for arcs in rows:
                    X = shared if shared is not None else _draw_set(
                        cfg, margin, floor, draws, arcs)
                    sets.append(X)
                    errs = cfg.agent_noise > 0.0 and draws.random() < cfg.agent_noise
                    noisy.append(uniform_member(X, draws) if errs else None)
        optimal_choices = (
            argmax_many(sets, c_star) if shared is None
            else np.broadcast_to(shared_choice, (k, shared.dimension))
        )
        observations = [
            Observation._of_member(X, optimal if choice is None else choice)
            for X, choice, optimal in zip(sets, noisy, optimal_choices)
        ]
        return observations, optimal_choices

    return sampler
