"""Independent references the suite checks the library against.

The library computes each loss once, as a column of analysis.RegretLedger,
plays the learner over a stream in chunks of rounds, one loop each, and
records each chunk in the ledger, and it answers membership
through the private FeasibleSet._contains that Observation uses.  The
scalar forms below restate those quantities one instance or one round at a
time, so a test can compare the two.  trace_rows and write_trace render
trace.csv one value string at a time, as the library did before it wrote
the trace in chunks from one row template.  reference_set and
reference_sampler draw one sample at a time through the public
constructors, as generation did before it drew sets into blocks, and
uniform_member draws a noisy choice from the whole enumeration, as
generation did before it unranked DAG paths.  write_stream renders each
set's rows and its choice with one % each, as the library did before it
rendered each distinct row once.  ftrl_residual checks play's columns
against the regularized leader's optimality conditions, written apart
from learner._beta and learner._solve.
"""

from __future__ import annotations

import math
from collections import namedtuple
from pathlib import Path

import numpy as np

from invlinopt import analysis, oracle
from invlinopt.core import (
    Ball,
    DagPaths,
    DimensionMismatchError,
    ExplicitVertices,
    FeasibleSet,
    Hypercube,
    Knapsack,
    MembershipError,
    NormPair,
    Observation,
    PredictionDomain,
    Simplex,
    _dot,
    _frozen,
    as_vector,
    tolerance,
)
from invlinopt.harness import generate
from invlinopt.harness.io import DECIMAL, STREAM_MAGIC, TRACE_COLUMNS, fmt
from invlinopt.learner import ADAPTIVE, LearnerState, _solve
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
    return tuple((k, v) for k, (u, v) in enumerate(X.arcs) if u == node)


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


def beta(state: LearnerState) -> float:
    """Regularizer scale for the upcoming round.

    Adaptive: (2^{1/4} / B) * sqrt(sum of squared gradient norms), zero
    until the first nonzero gradient.  Offset: sqrt(K^2 + that sum) / H.
    """
    if state.schedule == ADAPTIVE:
        return (2.0 ** 0.25 / state.B) * math.sqrt(state.sq_norm_sum)
    return math.sqrt(state.K ** 2 + state.sq_norm_sum) / state.H


def predict(state: LearnerState) -> np.ndarray:
    """Prediction for the upcoming round.

    Recomputes the closed-form minimizer from the state's accumulators and
    equals state.current_prediction bitwise.  While beta is zero every past
    gradient was zero, so the objective is flat and the prediction holds.
    """
    b = beta(state)
    if b == 0.0:
        return state.current_prediction
    return _solve(state.domain, state.grad_sum, b)


Round = namedtuple("Round", "c_hat x_hat g beta grad_norm")


def observe(state: LearnerState, obs) -> tuple[LearnerState, Round]:
    """One round of the recursion, the next state and the round's entries.

    The round-by-round form of learner.play: the oracle answers every
    round, and each round makes a fresh state.  A round whose answer has
    the choice's bytes keeps the accumulators and the prediction.
    """
    c_hat = state.current_prediction
    x_hat = oracle.argmax(obs.feasible_set, c_hat).maximizer
    x = obs.agent_choice
    if x_hat.tobytes() == x.tobytes():
        g, grad_norm = _frozen(np.zeros(x.size)), 0.0
        grad_sum, sq_norm_sum, prediction = state.grad_sum, state.sq_norm_sum, c_hat
    else:
        g = _frozen(x_hat - x)
        grad_norm = state.norms.primal(g)
        grad_sum = _frozen(state.grad_sum + g)
        sq_norm_sum = state.sq_norm_sum + grad_norm ** 2
        prediction = predict(state._replace(grad_sum=grad_sum, sq_norm_sum=sq_norm_sum))
    new_state = state._replace(grad_sum=grad_sum, sq_norm_sum=sq_norm_sum,
                               current_prediction=prediction)
    return new_state, Round(c_hat, x_hat, g, beta(state), grad_norm)


# the length-T columns a RegretLedger keeps, and the (T, n) ones that
# learner.play fills beside beta and grad_norm
LEDGER_COLUMNS = ("ell_sub", "ell_est", "ell_sub_ref", "total", "lin_inc",
                  "regret", "regret_sub", "sum_sq", "beta", "grad_norm")
PLAYED_COLUMNS = ("c_hat", "x_hat", "g")


class AppendLedger:
    """The ledger as a per-round append, with np.dot per row, keeping the
    played (T, n) columns too; c_hat_sum adds the predictions one at a
    time."""

    def __init__(self, c_star, norms):
        self.c_star = c_star
        self.norms = norms
        self.columns = {name: [] for name in LEDGER_COLUMNS + PLAYED_COLUMNS}
        self.c_hat_sum = None
        self.max_grad_norm = 0.0
        self.max_dual_distance = 0.0

    def append(self, obs, record: Round, reference):
        c_star, col = self.c_star, self.columns
        ell_sub_ref = float(np.dot(c_star, reference - obs.agent_choice))
        distance = record.c_hat - c_star
        lin_inc = float(np.dot(record.g, distance))
        ell_sub = float(np.dot(record.c_hat, record.g))
        ell_est = float(np.dot(c_star, obs.agent_choice - record.x_hat))
        prev_r = col["regret"][-1] if col["regret"] else 0.0
        prev_rs = col["regret_sub"][-1] if col["regret_sub"] else 0.0
        prev_sq = col["sum_sq"][-1] if col["sum_sq"] else 0.0
        col["ell_sub"].append(ell_sub)
        col["ell_est"].append(ell_est)
        col["ell_sub_ref"].append(ell_sub_ref)
        col["total"].append(ell_sub + ell_est)
        col["lin_inc"].append(lin_inc)
        col["regret"].append(prev_r + lin_inc)
        col["regret_sub"].append(prev_rs + (ell_sub - ell_sub_ref))
        col["sum_sq"].append(prev_sq + record.grad_norm ** 2)
        for name in ("beta", "grad_norm") + PLAYED_COLUMNS:
            col[name].append(getattr(record, name))
        c_hat = np.array(record.c_hat)
        self.c_hat_sum = c_hat if self.c_hat_sum is None else self.c_hat_sum + c_hat
        self.max_grad_norm = max(self.max_grad_norm, record.grad_norm)
        self.max_dual_distance = max(
            self.max_dual_distance, dual_norm(self.norms, distance)
        )

    def arrays(self) -> dict[str, np.ndarray]:
        """Each column as a float64 array, the vector ones as (T, n)."""
        n = self.c_star.size
        return {
            name: np.array(values, dtype=np.float64).reshape(
                (-1, n) if name in PLAYED_COLUMNS else -1)
            for name, values in self.columns.items()
        }


def simulate_by_rounds(c_star, state: LearnerState, observations, references):
    """The final state and the AppendLedger of observe, round by round."""
    ledger = AppendLedger(c_star, state.norms)
    for obs, optimal in zip(observations, references):
        state, record = observe(state, obs)
        ledger.append(obs, record, optimal)
    return state, ledger


FtrlResidual = namedtuple("FtrlResidual", "schedule leader")

# an entry below the normal range has too few bits for its logarithm
TINY = np.finfo(np.float64).tiny
LOG_TINY = math.log(TINY)


def ftrl_residual(state: LearnerState, played) -> FtrlResidual:
    """The largest relative residuals of play's columns against FTRL's
    optimality conditions, given the state before the played rounds.

    schedule: beta_t against the schedule of the squared gradient norms
    before round t, the formula written again rather than learner._beta.
    leader: c_hat_t against argmin beta_t psi(c) + <G_{t-1}, c> over the
    domain, G_{t-1} the sum of the earlier residuals g, checked as relations
    rather than by learner._solve.  Where beta_t = 0, c_hat_t is the
    regularizer's minimizer.  On the simplex, beta_t log c_hat_{t,i} +
    G_{t-1,i} is the same value q for every i, against the larger of its
    two terms; an entry below the normal range, zero included, instead
    needs the exponent q implies for it, (q - G_{t-1,i}) / beta_t, below
    the normal range too.  On a ball, c_hat_t - center is a nonnegative
    multiple of -G_{t-1} with norm min(r, ||G_{t-1}|| / beta_t), both against r.
    """
    c_hat, g, beta = played["c_hat"], played["g"], played["beta"]
    T = len(beta)
    sums = np.cumsum(np.concatenate([[state.sq_norm_sum], played["grad_norm"] ** 2]))[:T]
    if state.schedule == ADAPTIVE:
        scheduled = 2.0 ** 0.25 / state.B * np.sqrt(sums)
    else:
        scheduled = np.sqrt(state.K ** 2 + sums) / state.H
    schedule = np.abs(beta - scheduled) / np.maximum(scheduled, TINY)
    G = np.cumsum(np.vstack([state.grad_sum, g]), axis=0)[:T]
    flat = beta == 0.0
    leader = np.zeros(T)
    if isinstance(state.domain, Simplex):
        n = state.domain.dimension
        leader[flat] = np.max(np.abs(c_hat[flat] * n - 1.0), axis=1, initial=0.0)
        c, G, b = c_hat[~flat], G[~flat], beta[~flat, None]
        normal = c >= TINY
        term = b * np.log(np.where(normal, c, 1.0))
        q = term + G
        common = q[np.arange(len(c)), np.argmax(c, axis=1)][:, None]
        scale = np.max(np.where(normal, np.maximum(np.abs(term), np.abs(G)), 0.0), axis=1)
        spread = np.max(np.where(normal, np.abs(q - common), 0.0), axis=1)
        exponent = (common - G) / b
        above = np.max(np.where(normal, 0.0, exponent - LOG_TINY), axis=1, initial=0.0)
        leader[~flat] = np.maximum(spread / np.maximum(scale, TINY), above / -LOG_TINY)
    else:
        assert isinstance(state.domain, Ball)
        r = state.domain.radius
        d = c_hat - state.domain.center
        length = np.linalg.norm(d, axis=1)
        leader[flat] = length[flat] / r
        d, G, b, length = d[~flat], G[~flat], beta[~flat], length[~flat]
        G_norm = np.linalg.norm(G, axis=1)
        towards = -G / np.maximum(G_norm, TINY)[:, None]
        direction = np.linalg.norm(d - length[:, None] * towards, axis=1)
        size = np.abs(length - np.minimum(r, G_norm / b))
        leader[~flat] = np.maximum(direction, size) / r
    return FtrlResidual(float(np.max(schedule, initial=0.0)),
                        float(np.max(leader, initial=0.0)))


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


def trace_rows(
    ledger: analysis.RegretLedger,
    delta: float | None = None,
) -> list[list[str]]:
    """The per-round trace with the applicable running bound columns, one
    string per value."""
    bounds = analysis.bound_columns(ledger, delta)
    columns = [[str(t) for t in range(1, ledger.rounds + 1)]]
    for name in TRACE_COLUMNS[1:]:
        values = (
            bounds[name.removeprefix("bound_")]
            if name.startswith("bound_") else ledger.columns[name]
        )
        if values is None:
            columns.append([""] * ledger.rounds)
        else:
            columns.append(["%.17g" % x for x in values.tolist()])
    return [list(row) for row in zip(*columns)]


def write_trace(path, rows) -> None:
    """trace.csv from trace_rows's rows, joined into one text."""
    lines = [",".join(TRACE_COLUMNS)]
    lines.extend(",".join(row) for row in rows)
    Path(path).write_text("\n".join(lines) + "\n")


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


def reference_set(cfg, rng) -> FeasibleSet:
    """One draw of generation's feasible set, in generation's RNG order,
    built by the public constructor: a DAG takes its chain as tuple arcs
    and draws each extra arc with two scalar rng.integers calls."""
    n = cfg.dimension
    if cfg.family == "random-vertices":
        shape = (cfg.num_vertices, n)
        if cfg.integral_vertices or cfg.gap_mode == "integral":
            return ExplicitVertices(rng.integers(0, 2, size=shape).astype(np.float64))
        return ExplicitVertices(rng.random(shape))
    if cfg.family == "knapsack":
        weights = rng.integers(0, 10, size=n)
        return Knapsack(weights, int(rng.integers(0, int(weights.sum()) + 1)))
    nodes = min(n + 1, 8)
    arcs = [(i, i + 1) for i in range(nodes - 1)]
    while len(arcs) < n:
        u = int(rng.integers(0, nodes - 1))
        arcs.append((u, int(rng.integers(u + 1, nodes))))
    return DagPaths(nodes, arcs)


def reference_ball_objective(cfg):
    """draw_objective of a ball's integral gap mode as first written: z is
    redrawn until the point of its ray nearest the center lies within
    0.999 r of the center; returns (scaled, integral)."""
    domain = generate.build_domain(cfg)
    rng = np.random.default_rng([cfg.seed, 2])
    for _ in range(generate.RETRY_CAP):
        z = rng.integers(5, 11, size=cfg.dimension).astype(np.float64)
        alpha = float(np.dot(z, domain.center) / np.dot(z, z))
        if alpha <= 0.0:
            continue
        candidate = alpha * z
        if np.linalg.norm(candidate - domain.center) <= 0.999 * domain.radius:
            return as_vector(candidate), as_vector(z)
    raise generate.GenerationFailedError("no integral objective ray meets the ball")


def uniform_member(X: FeasibleSet, rng) -> np.ndarray:
    """A uniformly random element: an uncopied members() row; hypercubes
    skip enumeration."""
    if isinstance(X, Hypercube):
        return as_vector(rng.integers(0, 2, size=X.dimension).astype(np.float64))
    members = X.members()
    return members[int(rng.integers(0, members.shape[0]))]


def write_stream(path, observations, c_star=None) -> None:
    """The stream file, each set's rows and its choice line rendered with
    one % each; members() enumerates each set on its own."""
    lines = [STREAM_MAGIC]
    dim = observations[0].feasible_set.dimension
    lines.append(f"dim {dim}")
    if c_star is not None:
        lines.append("c_star " + " ".join(fmt(v) for v in c_star))
    for position, obs in enumerate(observations, 1):
        members = obs.feasible_set.members()
        count, width = members.shape
        row = " ".join([DECIMAL] * width)
        lines.append(f"obs {position} {count}")
        lines.append("\n".join([row] * count) % tuple(members.ravel().tolist()))
        lines.append(("choice " + row) % tuple(obs.agent_choice.tolist()))
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")


def reference_sampler(cfg, c_star, c_star_integral):
    """sampler(rng): one observation of the stream's distribution, with the
    optimal agent's choice solved by argmax for that set alone."""
    norms = generate.build_domain(cfg).norm_pair
    margin, floor = generate._gap_test(cfg, norms, c_star, c_star_integral)

    def draw_set(rng):
        for _ in range(generate.RETRY_CAP):
            X = reference_set(cfg, rng)
            if margin(X) >= floor:
                return X
        raise generate.GenerationFailedError("retry budget exhausted drawing sets")

    shared = None
    if cfg.family == "hypercube":
        shared = Hypercube(cfg.dimension)
    elif not cfg.fresh_sets:
        shared = draw_set(np.random.default_rng([cfg.seed, 3]))

    def sampler(rng):
        X = shared if shared is not None else draw_set(rng)
        if cfg.agent_noise > 0.0 and rng.random() < cfg.agent_noise:
            return Observation(X, uniform_member(X, rng))
        return Observation(X, oracle.argmax(X, c_star).maximizer)

    return sampler
