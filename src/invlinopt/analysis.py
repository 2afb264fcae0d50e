"""Certification of the regret identities and bounds of one run.

A RegretLedger holds, per round, the linearized regret (which equals the
running total loss), the suboptimality-loss regret, and the squared
gradient norms, computed from the whole run at once; bound_columns gives
every running bound as an array, and verify_run checks each certified
inequality at every prefix, reporting the measured slack at the worst one
so failures are diagnosable.  certify_gap computes the exact per-instance
margin between optimal and suboptimal actions by brute force, and
offline_evaluate measures holdout suboptimality of an averaged prediction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import oracle
from .core import (
    DEFAULT_ENUMERATION_CAP,
    NormPair,
    Observation,
    TOL,
    _dot,
    _row_dots,
    as_vector,
    inner_product,
)
from .learner import ADAPTIVE, RegularizerConfig, RoundRecord

ROOT_FIVE_QUARTERS = 2.0 ** 1.25  # 2^{5/4}


@dataclass(frozen=True)
class BoundCheck:
    """Outcome of one certified inequality: value <= bound up to tolerance.

    round is the prefix (or round) at which the slack was smallest; margin
    is bound - value there, without the tolerance folded in.
    """

    name: str
    round: int
    value: float
    bound: float
    passed: bool

    @property
    def margin(self) -> float:
        return self.bound - self.value


@dataclass(frozen=True, eq=False)
class GapWitness:
    """Why gap certification failed: a competitor matching the optimum."""

    round_index: int
    competitor: np.ndarray
    value: float
    reason: str


@dataclass(frozen=True, eq=False)
class GapCertificate:
    """Exact minimum margin-per-distance over all rounds, or a witness.

    delta is the smallest ratio <c_star, x_t - x'> / ||x_t - x'|| over all
    rounds t and all feasible x' != x_t.  Rounds whose feasible set is a
    singleton impose no constraint and contribute +inf.
    """

    satisfied: bool
    delta: float | None
    per_round_deltas: tuple[float, ...]
    witness: GapWitness | None


def _running(values: np.ndarray) -> np.ndarray:
    """Running sums that start from 0.0, as a round-by-round accumulator does."""
    return np.cumsum(np.concatenate(([0.0], values)))[1:]


class RegretLedger:
    """Per-round accounting for one simulation run (true objective known).

    Built once from the whole run: the rows of every round are stacked and
    each column is computed with array arithmetic.  references[t] is the
    maximizer of c_star over round t's feasible set,
    oracle.argmax(obs.feasible_set, c_star).maximizer, which the caller
    already holds: generation computes it to act as the optimal agent.
    All reads are pure.
    """

    def __init__(
        self,
        c_star,
        norms: NormPair,
        config: RegularizerConfig,
        schedule: str,
        observations: Sequence[Observation],
        records: Sequence[RoundRecord],
        references: Sequence[np.ndarray],
    ):
        self.c_star = c_star = as_vector(c_star)
        self.norms = norms
        self.config = config
        self.schedule = schedule
        self.records = list(records)
        self.observations = list(observations)
        if not len(self.records) == len(self.observations) == len(references):
            raise ValueError("observations, records and references differ in length")
        for position, record in enumerate(self.records, 1):
            if record.t != position:
                raise ValueError(
                    f"record for round {record.t} given at position {position}"
                )

        def stack(vectors) -> np.ndarray:
            return np.array(vectors, dtype=np.float64).reshape(-1, c_star.size)

        x = stack([obs.agent_choice for obs in self.observations])
        c_hat = stack([r.c_hat for r in self.records])
        g = stack([r.g for r in self.records])
        truth = np.broadcast_to(c_star, x.shape)
        ell_sub = np.array([r.ell_sub for r in self.records], dtype=np.float64)
        ell_est = [r.ell_est for r in self.records]
        if None in ell_est:
            # records made without c_star: estimate_loss for every round
            ell_est = _row_dots(truth, x - stack([r.x_hat for r in self.records]))
        ell_est = np.array(ell_est, dtype=np.float64)
        ell_sub_ref = _row_dots(truth, stack(references) - x)
        distance = c_hat - c_star
        lin_inc = _row_dots(g, distance)
        grad_norm = np.array([r.grad_norm for r in self.records], dtype=np.float64)
        # Python's float power, as the learner squares each norm
        sq = np.array([r.grad_norm ** 2 for r in self.records], dtype=np.float64)
        self._columns = {
            "ell_sub": ell_sub,
            "ell_est": ell_est,
            "ell_sub_ref": ell_sub_ref,
            "total": ell_sub + ell_est,
            "lin_inc": lin_inc,
            "regret": _running(lin_inc),
            "regret_sub": _running(ell_sub - ell_sub_ref),
            "sum_sq": _running(sq),
            "beta": np.array([r.beta for r in self.records], dtype=np.float64),
            "grad_norm": grad_norm,
        }
        for column in self._columns.values():
            column.flags.writeable = False
        self.max_grad_norm = float(np.max(grad_norm, initial=0.0))
        self.max_dual_distance = float(
            np.max(norms.dual_rows(distance), initial=0.0)
        )

    @property
    def rounds(self) -> int:
        return len(self.records)

    def linearized_regret(self) -> float:
        return float(self._columns["regret"][-1])

    def subopt_regret(self) -> float:
        return float(self._columns["regret_sub"][-1])

    def sum_sq_grad(self) -> float:
        return float(self._columns["sum_sq"][-1])

    def total_loss(self) -> float:
        return float(np.sum(self._columns["total"]))

    def arrays(self) -> dict[str, np.ndarray]:
        """Snapshot of all per-round columns as arrays (copies)."""
        return {name: column.copy() for name, column in self._columns.items()}


def gap_constant_bound(config: RegularizerConfig, delta: float) -> float:
    """2^{5/4} * K * B^3 / (lam^{3/2} * delta^2), independent of the horizon."""
    return (
        ROOT_FIVE_QUARTERS
        * config.K
        * config.B ** 3
        / (config.lam ** 1.5 * delta ** 2)
    )


def gap_contraction_coefficient(config: RegularizerConfig, delta: float) -> float:
    """K * B / (2^{5/4} * sqrt(lam) * delta^2)."""
    return config.K * config.B / (ROOT_FIVE_QUARTERS * math.sqrt(config.lam) * delta ** 2)


def _worst(name: str, lhs: np.ndarray, rhs: np.ndarray, rounds: np.ndarray) -> BoundCheck:
    tol = TOL * (1.0 + np.maximum(np.abs(lhs), np.abs(rhs)))
    slack = rhs + tol - lhs
    worst = int(np.argmin(slack))
    return BoundCheck(
        name,
        int(rounds[worst]),
        float(lhs[worst]),
        float(rhs[worst]),
        bool(np.all(slack >= 0.0)),
    )


def bound_columns(
    ledger: RegretLedger, delta: float | None = None
) -> dict[str, np.ndarray | None]:
    """Every running bound of the run at every prefix, as arrays.

    Keys are adaptive_grad, adaptive_horizon, offset_horizon and
    gap_constant; a bound of the other schedule, or gap_constant without a
    delta, is None.  At prefix t:
      adaptive_grad     2^{5/4} * B * sqrt(sum of squared gradient norms / lam)
      adaptive_horizon  2^{5/4} * K * B * sqrt(t / lam)
      offset_horizon    2 * K * H * sqrt(t / lam)
      gap_constant      gap_constant_bound(config, delta), the same at every t
    """
    config = ledger.config
    t = np.arange(1, ledger.rounds + 1, dtype=np.float64)
    adaptive = ledger.schedule == ADAPTIVE
    return {
        "adaptive_grad": (
            ROOT_FIVE_QUARTERS * config.B * np.sqrt(ledger._columns["sum_sq"] / config.lam)
            if adaptive else None
        ),
        "adaptive_horizon": (
            ROOT_FIVE_QUARTERS * config.K * config.B * np.sqrt(t / config.lam)
            if adaptive else None
        ),
        "offset_horizon": (
            None if adaptive else 2.0 * config.K * config.H * np.sqrt(t / config.lam)
        ),
        "gap_constant": (
            np.full(t.size, gap_constant_bound(config, delta)) if delta else None
        ),
    }


def verify_run(
    ledger: RegretLedger,
    config: RegularizerConfig,
    delta: float | None = None,
    gap_checks: bool = False,
    plateau_burn_in: int | None = None,
) -> list[BoundCheck]:
    """Evaluate every applicable certified inequality at every prefix.

    Returns one BoundCheck per inequality, reporting the prefix (or round)
    with the smallest slack; passed is False if any prefix failed.  The gap
    checks need gap_checks and a certified delta; loss_plateau is added only
    for runs of at least plateau_burn_in rounds.
    """
    if config != ledger.config:
        raise ValueError("config does not match the one the run used")
    n = ledger.rounds
    if n == 0:
        raise ValueError("empty run")
    a = ledger.arrays()
    t = np.arange(1, n + 1, dtype=np.float64)
    regret = a["regret"]
    checks: list[BoundCheck] = []

    diff = np.abs(regret - np.cumsum(a["total"]))
    checks.append(_worst("total_loss_identity", diff, TOL * t, t))
    checks.append(
        _worst("per_round_linearization", a["ell_sub"] - a["ell_sub_ref"], a["lin_inc"], t)
    )
    scale = np.maximum(np.abs(regret), np.abs(a["regret_sub"]))
    checks.append(
        _worst("regret_ordering", a["regret_sub"], regret + TOL * (1.0 + scale) * t, t)
    )

    if gap_checks and (delta is None or not delta > 0.0):
        raise ValueError("gap checks need a certified positive delta")
    bounds = bound_columns(ledger, delta if gap_checks else None)
    for name in ("adaptive_grad", "adaptive_horizon", "offset_horizon"):
        if bounds[name] is not None:
            checks.append(_worst(f"{name}_bound", regret, bounds[name], t))

    if gap_checks:
        coef = gap_contraction_coefficient(config, delta)
        checks.append(
            _worst("gap_residual_bound", a["grad_norm"] ** 2, coef * a["lin_inc"], t)
        )
        checks.append(_worst("gap_gradient_sum_bound", a["sum_sq"], coef * regret, t))
        checks.append(_worst("gap_constant_bound", regret, bounds["gap_constant"], t))
        if plateau_burn_in is not None and n >= plateau_burn_in:
            # total loss over rounds (T/2, T] stays within 1e-9 * T of zero;
            # the regret of such a run is horizon-independent
            total = a["total"]
            late = float(np.sum(total)) - float(np.sum(total[: n // 2]))
            checks.append(
                _worst("loss_plateau", np.array([late]), np.array([TOL * n]), np.array([n]))
            )
    return checks


def _gap_margin(
    members: np.ndarray, x: np.ndarray, c: np.ndarray, norms: NormPair
) -> tuple[float | None, int | None]:
    """Margin of the choice x among the enumerated members under c.

    Returns (delta, None), delta the smallest <c, x - x'> / ||x - x'|| over
    members x' other than x in the primal norm (+inf when x is the only
    member), or (None, i) when members[i] is the first competitor of the
    largest value and it ties or beats x.  Competitor values are rows of
    members @ c and x's value is np.dot(c, x); the two can round
    differently, and the recorded gap.delta outputs rest on this pairing.
    """
    values = members @ c
    value_x = _dot(c, x)
    is_x = np.all(members == x, axis=1)
    if not np.any(is_x):
        raise ValueError("choice missing from the enumeration")
    others = np.flatnonzero(~is_x)
    if others.size == 0:
        return math.inf, None
    worst = int(others[np.argmax(values[others])])
    if values[worst] >= value_x:
        return None, worst
    diffs = x[None, :] - members[others]
    if norms.kind == NormPair.LINF_L1:
        dists = np.max(np.abs(diffs), axis=1)
    else:
        dists = np.sqrt(np.sum(diffs * diffs, axis=1))
    return float(((value_x - values[others]) / dists).min()), None


def certify_gap(
    observations: Sequence[Observation],
    c_star,
    norms: NormPair,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> GapCertificate:
    """Exact gap margin by exhaustive enumeration of every feasible set.

    Requires each observed choice to be the unique exact maximizer of
    c_star over its feasible set; otherwise returns a witness.  The margin
    is min over rounds and competitors of the objective loss per unit of
    primal-norm distance.  A round facing the same set object with the same
    choice bytes as the round before reuses that round's margin.
    """
    c_star = as_vector(c_star)
    per_round: list[float] = []
    prev_set = prev_choice = None
    for obs in observations:
        x = obs.agent_choice
        choice = x.tobytes()
        if obs.feasible_set is prev_set and choice == prev_choice:
            per_round.append(per_round[-1])
            continue
        prev_set, prev_choice = obs.feasible_set, choice
        members = obs.feasible_set.members(cap)
        delta, rival = _gap_margin(members, x, c_star, norms)
        if rival is not None:
            value = float((members @ c_star)[rival])
            reason = (
                "tied-optimum"
                if value == inner_product(c_star, x)
                else "agent-suboptimal"
            )
            return GapCertificate(
                satisfied=False,
                delta=None,
                per_round_deltas=tuple(per_round),
                witness=GapWitness(
                    obs.round_index, as_vector(members[rival]), value, reason
                ),
            )
        per_round.append(delta)
    if not per_round:
        raise ValueError("no observations to certify")
    return GapCertificate(
        satisfied=True,
        delta=float(min(per_round)),
        per_round_deltas=tuple(per_round),
        witness=None,
    )


def average_prediction(records: Sequence[RoundRecord]) -> np.ndarray:
    """Coordinate-wise mean of the per-round predictions."""
    if len(records) == 0:
        raise ValueError("cannot average an empty run")
    stacked = np.stack([r.c_hat for r in records])
    return as_vector(stacked.mean(axis=0))


@dataclass(frozen=True)
class OfflineEvaluation:
    """Monte-Carlo holdout suboptimality of a prediction and the reference.

    mean_gap and stderr_gap are for the paired per-sample differences
    (model loss minus reference loss), which is what generalization
    assertions should use.
    """

    mean_model: float
    mean_reference: float
    mean_gap: float
    stderr_gap: float
    samples: int


def offline_evaluate(
    c_bar,
    c_star,
    sampler: Callable[[np.random.Generator, int], Sequence[Observation]],
    m: int,
    seed,
) -> OfflineEvaluation:
    """Evaluate mean suboptimality losses of c_bar and c_star on m samples.

    sampler(rng, k) returns k samples; they are drawn and answered
    oracle._STACK_CHUNK at a time, so memory beyond the two loss columns
    does not grow with m.
    """
    if m < 1:
        raise ValueError("need at least one sample")
    c_bar = as_vector(c_bar)
    c_star = as_vector(c_star)
    rng = np.random.default_rng(seed)
    model = np.empty(m)
    reference = np.empty(m)
    for start in range(0, m, oracle._STACK_CHUNK):
        k = min(oracle._STACK_CHUNK, m - start)
        samples = sampler(rng, k)
        sets = [obs.feasible_set for obs in samples]
        x = np.stack([obs.agent_choice for obs in samples])
        chunk = slice(start, start + k)
        for c, losses in ((c_bar, model), (c_star, reference)):
            residuals = np.stack(oracle.argmax_many(sets, c)) - x
            rows = np.broadcast_to(c, residuals.shape)
            losses[chunk] = _row_dots(rows, residuals)
    gaps = model - reference
    stderr = float(gaps.std(ddof=1) / math.sqrt(m)) if m > 1 else 0.0
    return OfflineEvaluation(
        mean_model=float(model.mean()),
        mean_reference=float(reference.mean()),
        mean_gap=float(gaps.mean()),
        stderr_gap=stderr,
        samples=m,
    )
