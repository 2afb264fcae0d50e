"""Certification of the regret identities and bounds of one run.

A RegretLedger holds, per round, the suboptimality and estimate losses,
the linearized regret (which equals the running total loss), the
suboptimality-loss regret, and the squared gradient norms, each computed
once, a chunk of rounds at a time, from the columns that learner.play
filled, and read in place.  It takes the constants B, H and K from the
learner state that ran; bound_columns gives every running bound as an
array from them, and verify_run returns every check a run reports: each
certified inequality at every prefix, with the measured slack at the worst
one so failures are diagnosable, the gap certificates and the holdout.
certify_gap computes the exact margin between optimal and suboptimal
actions by brute force, one chunk of a stream at a time, and
offline_evaluate measures holdout suboptimality of an averaged prediction.
"""

from __future__ import annotations

import math
import weakref
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from . import core, oracle
from .core import (
    FeasibleSet,
    NormPair,
    Observation,
    TOL,
    _dot,
    _row_dots,
    as_vector,
    tolerance,
)
from .learner import ADAPTIVE, LearnerState

ROOT_FIVE_QUARTERS = 2.0 ** 1.25  # 2^{5/4}
LEDGER_COLUMNS = ("ell_sub", "ell_est", "ell_sub_ref", "total", "lin_inc",
                  "regret", "regret_sub", "sum_sq", "beta", "grad_norm")


class BoundCheck(NamedTuple):
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


class GapWitness(NamedTuple):
    """Why gap certification failed: a competitor matching the optimum.

    round_index is the failing round's position in its stream, from 1.
    """

    round_index: int
    competitor: np.ndarray
    value: float
    reason: str


class GapCertificate(NamedTuple):
    """Exact minimum margin-per-distance over a stream's rounds, or a witness.

    delta is the smallest ratio <c_star, x_t - x'> / ||x_t - x'|| over all
    rounds t and all feasible x' != x_t.  Rounds whose feasible set is a
    singleton impose no constraint and contribute +inf.  rounds counts the
    rounds certified, the witness's last; last is a satisfied certificate's
    last round as (weak reference to its set, choice bytes, margin).
    """

    satisfied: bool
    delta: float | None
    witness: GapWitness | None
    rounds: int
    last: tuple[weakref.ref[FeasibleSet], bytes, float] | None


def _running(values: np.ndarray, start: float = 0.0) -> np.ndarray:
    """Running sums from start, as a round-by-round accumulator makes them:
    from 0.0 for a run's first rounds, from the carried last sum after."""
    return np.cumsum(np.concatenate(([start], values)))[1:]


class RegretLedger:
    """Per-round accounting for one simulation run (true objective known).

    RegretLedger(c_star, learner, rounds) makes room for rounds rounds,
    and record fills the next ones from one chunk: the learner state after
    it, its observations, learner.play's columns for it and its
    references, the (k, n) array whose row t is the maximizer of c_star
    over round t's set, which generation already holds.  Each length-T
    column is computed there with array arithmetic, in one place, and a
    running sum goes on from the last one recorded, so chunks fill the
    columns bitwise as one whole stream does; the (k, n) columns are then
    dropped.  The suboptimality loss is <c_hat, g> and the estimate loss,
    which needs the true objective, is <c_star, x - x_hat>.  learner is
    the last state recorded, and its domain, schedule, norms, B, H and K
    are the run's constants.  columns maps each name to a read-only view
    of the rounds recorded so far; c_hat_sum, max_grad_norm and
    max_dual_distance carry the row sum and the largest norms of the
    played columns.
    """

    def __init__(self, c_star, learner: LearnerState, rounds: int):
        self.c_star = as_vector(c_star)
        self.learner = learner
        self.rounds = 0
        self.c_hat_sum = np.zeros(self.c_star.size)
        self.max_grad_norm = 0.0
        self.max_dual_distance = 0.0
        self._room = {name: np.empty(rounds) for name in LEDGER_COLUMNS}
        self._view_columns()

    def record(
        self,
        learner: LearnerState,
        observations: Sequence[Observation],
        played: Mapping[str, np.ndarray],
        references: np.ndarray,
    ) -> None:
        """Fill the next len(observations) rounds from one played chunk."""
        c_star = self.c_star
        c_hat, x_hat, g = played["c_hat"], played["x_hat"], played["g"]
        grad_norm = played["grad_norm"]
        if not len(c_hat) == len(observations) == len(references):
            raise ValueError("observations, played rounds and references differ in length")
        start, stop = self.rounds, self.rounds + len(c_hat)
        if stop > len(self._room["beta"]):
            raise ValueError("more rounds than the ledger has room for")
        x = np.array(
            [obs.agent_choice for obs in observations], dtype=np.float64
        ).reshape(-1, c_star.size)
        truth = np.broadcast_to(c_star, x.shape)
        ell_sub = _row_dots(c_hat, g)
        ell_est = _row_dots(truth, x - x_hat)
        ell_sub_ref = _row_dots(truth, references - x)
        distance = c_hat - c_star
        lin_inc = _row_dots(g, distance)
        # Python's float power, as the learner squares each norm
        sq = np.array([v ** 2 for v in grad_norm.tolist()], dtype=np.float64)
        for name, values in (
            ("ell_sub", ell_sub),
            ("ell_est", ell_est),
            ("ell_sub_ref", ell_sub_ref),
            ("total", ell_sub + ell_est),
            ("lin_inc", lin_inc),
            # the three running sums
            ("regret", lin_inc),
            ("regret_sub", ell_sub - ell_sub_ref),
            ("sum_sq", sq),
            ("beta", played["beta"]),
            ("grad_norm", grad_norm),
        ):
            column = self._room[name]
            if name in ("regret", "regret_sub", "sum_sq"):
                values = _running(values, column[start - 1] if start else 0.0)
            column[start:stop] = values
        self.learner = learner
        self.rounds = stop
        self._view_columns()
        # rows added in round order, as a loop of += adds them; np.sum(axis=0)
        # would sum a single column pairwise
        self.c_hat_sum = np.cumsum(np.vstack([self.c_hat_sum, c_hat]), axis=0)[-1]
        self.max_grad_norm = max(self.max_grad_norm, float(np.max(grad_norm, initial=0.0)))
        self.max_dual_distance = max(self.max_dual_distance, float(
            np.max(learner.norms.dual_rows(distance), initial=0.0)
        ))

    def _view_columns(self) -> None:
        """columns: read-only views of the rounds recorded so far."""
        views = {}
        for name, column in self._room.items():
            views[name] = view = column[: self.rounds]
            view.flags.writeable = False
        self.columns = MappingProxyType(views)

    def average_prediction(self) -> np.ndarray:
        """Coordinate-wise mean of the predictions played so far: the rows
        of c_hat added in round order, divided by their number."""
        if not self.rounds:
            raise ValueError("cannot average an empty run")
        return as_vector(self.c_hat_sum / self.rounds)

    def linearized_regret(self) -> float:
        return float(self.columns["regret"][-1])

    def subopt_regret(self) -> float:
        return float(self.columns["regret_sub"][-1])

    def sum_sq_grad(self) -> float:
        return float(self.columns["sum_sq"][-1])

    def total_loss(self) -> float:
        return float(np.sum(self.columns["total"]))


def gap_constant_bound(K: float, B: float, delta: float) -> float:
    """2^{5/4} * K * B^3 / delta^2, independent of the horizon."""
    return ROOT_FIVE_QUARTERS * K * B ** 3 / delta ** 2


def gap_contraction_coefficient(K: float, B: float, delta: float) -> float:
    """K * B / (2^{5/4} * delta^2)."""
    return K * B / (ROOT_FIVE_QUARTERS * delta ** 2)


def _worst(name: str, lhs: np.ndarray, rhs: np.ndarray, rounds: np.ndarray) -> BoundCheck:
    tol = TOL * (1.0 + np.maximum(np.abs(lhs), np.abs(rhs)))
    # a +inf value or a -inf bound makes tol infinite and the slack nan, which fails
    with np.errstate(invalid="ignore"):
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
      adaptive_grad     2^{5/4} * B * sqrt(sum of squared gradient norms)
      adaptive_horizon  2^{5/4} * K * B * sqrt(t)
      offset_horizon    2 * K * H * sqrt(t)
      gap_constant      gap_constant_bound(K, B, delta), the same at every t
    """
    run = ledger.learner
    B, H, K = run.B, run.H, run.K
    t = np.arange(1, ledger.rounds + 1, dtype=np.float64)
    adaptive = run.schedule == ADAPTIVE
    return {
        "adaptive_grad": (
            ROOT_FIVE_QUARTERS * B * np.sqrt(ledger.columns["sum_sq"])
            if adaptive else None
        ),
        "adaptive_horizon": (
            ROOT_FIVE_QUARTERS * K * B * np.sqrt(t) if adaptive else None
        ),
        "offset_horizon": None if adaptive else 2.0 * K * H * np.sqrt(t),
        "gap_constant": (
            np.full(t.size, gap_constant_bound(K, B, delta)) if delta else None
        ),
    }


def verify_run(
    ledger: RegretLedger,
    certificate: GapCertificate | None = None,
    integral: GapCertificate | None = None,
    evaluation: OfflineEvaluation | None = None,
    plateau_burn_in: int | None = None,
) -> list[BoundCheck]:
    """Every check a run reports, in the order its summary lists them.

    Each certified inequality is evaluated at every prefix, and its
    BoundCheck reports the prefix (or round) with the smallest slack;
    passed is False if any prefix failed.  The bounds use the ledger's
    constants.  The gap checks run exactly when certificate is satisfied,
    and its delta must be positive; loss_plateau joins them for runs of at
    least plateau_burn_in rounds.  Given certificate, gap_certified follows;
    given integral, the certificate of the integral objective, so does
    integral_gap_floor; given evaluation, the holdout of the average
    prediction, so does holdout_generalization.
    """
    n = ledger.rounds
    if n == 0:
        raise ValueError("empty run")
    a = ledger.columns
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

    delta = certificate.delta if certificate is not None else None
    if delta is not None and not delta > 0.0:
        raise ValueError("gap checks need a certified positive delta")
    bounds = bound_columns(ledger, delta)
    for name in ("adaptive_grad", "adaptive_horizon", "offset_horizon"):
        if bounds[name] is not None:
            checks.append(_worst(f"{name}_bound", regret, bounds[name], t))

    if delta is not None:
        coef = gap_contraction_coefficient(ledger.learner.K, ledger.learner.B, delta)
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

    if certificate is not None:
        checks.append(BoundCheck("gap_certified", n, 0.0, 0.0, certificate.satisfied))
    if integral is not None:
        # integral vertex sets with an integral objective and a unique
        # optimum have margin at least 1 / K
        value = integral.delta if integral.satisfied else -np.inf
        checks.append(_worst("integral_gap_floor", np.array([1.0 / ledger.learner.K]),
                             np.array([value]), np.array([n])))
    if evaluation is not None:
        # the mean suboptimality regret per round, three standard errors of
        # the paired holdout gaps, and the comparison tolerance
        mean_gap, budget = evaluation.mean_gap, ledger.subopt_regret() / n
        bound = budget + (3.0 * evaluation.stderr_gap + tolerance(mean_gap, budget))
        checks.append(BoundCheck("holdout_generalization", n, mean_gap, bound,
                                 mean_gap <= bound))
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
    dists = norms.primal_rows(x[None, :] - members[others])
    return float(((value_x - values[others]) / dists).min()), None


def certify_gap(
    observations: Sequence[Observation],
    c_star,
    norms: NormPair,
    *,
    before: GapCertificate | None = None,
) -> GapCertificate:
    """Exact gap margin by exhaustive enumeration of every feasible set.

    Requires each observed choice to be the unique exact maximizer of
    c_star over its feasible set; otherwise returns a witness.  The margin
    is min over rounds and competitors of the objective loss per unit of
    primal-norm distance.  Given before, the certificate of the rounds
    before these (returned as it is if failed), it certifies the stream up
    to their last.  A round facing the same set object and choice bytes as
    the round before, here or as before.last, reuses that round's margin.
    A set too large to enumerate raises members()'s EnumerationRefusedError.
    """
    if not observations:
        raise ValueError("no observations to certify")
    if before is not None and not before.satisfied:
        return before
    c_star = as_vector(c_star)
    rounds, delta, held, prev_choice, margin = 0, math.inf, None, None, None
    if before is not None:
        rounds, delta, (held, prev_choice, margin) = before.rounds, before.delta, before.last
    prev_set = None if held is None else held()
    for rounds, obs in enumerate(observations, rounds + 1):
        x, choice = obs.agent_choice, obs.agent_choice.tobytes()
        if obs.feasible_set is prev_set and choice == prev_choice:
            continue
        prev_set, prev_choice = obs.feasible_set, choice
        members = prev_set.members()
        margin, rival = _gap_margin(members, x, c_star, norms)
        if rival is not None:
            value = float((members @ c_star)[rival])
            reason = "tied-optimum" if value == _dot(c_star, x) else "agent-suboptimal"
            witness = GapWitness(rounds, as_vector(members[rival]), value, reason)
            return GapCertificate(False, None, witness, rounds, None)
        delta = min(delta, margin)
    return GapCertificate(True, delta, None, rounds,
                          (weakref.ref(prev_set), prev_choice, margin))


class OfflineEvaluation(NamedTuple):
    """Monte-Carlo holdout suboptimality of a prediction and the reference.

    mean_gap and stderr_gap are for the paired per-sample differences
    (model loss minus reference loss), which is what generalization
    assertions should use.  The fields are in the order that a run's
    summary and eval write them.
    """

    samples: int
    mean_model: float
    mean_reference: float
    mean_gap: float
    stderr_gap: float


def offline_evaluate(
    c_bar,
    c_star,
    sampler: Callable[[np.random.Generator, int], tuple[Sequence, Sequence]],
    m: int,
    seed,
) -> OfflineEvaluation:
    """Evaluate mean suboptimality losses of c_bar and c_star on m samples.

    sampler(rng, k) returns k samples and, as RegretLedger's references,
    the maximizer of c_star over each sample's set; only c_bar is solved
    here.  Samples are drawn and answered core._STACK_CHUNK at a time, and
    each chunk is freed before the next is drawn, so memory beyond the two
    loss columns does not grow with m.
    """
    if m < 1:
        raise ValueError("need at least one sample")
    c_bar = as_vector(c_bar)
    c_star = as_vector(c_star)
    rng = np.random.default_rng(seed)
    model = np.empty(m)
    reference = np.empty(m)
    for start in range(0, m, core._STACK_CHUNK):
        k = min(core._STACK_CHUNK, m - start)
        samples, references = sampler(rng, k)
        x = np.array([obs.agent_choice for obs in samples])  # as np.stack, twice as fast
        answers = oracle.argmax_many([obs.feasible_set for obs in samples], c_bar)
        chunk = slice(start, start + k)
        model[chunk] = _row_dots(np.broadcast_to(c_bar, x.shape), answers - x)
        reference[chunk] = _row_dots(np.broadcast_to(c_star, x.shape), references - x)
        del samples, references
    gaps = model - reference
    stderr = float(gaps.std(ddof=1) / math.sqrt(m)) if m > 1 else 0.0
    return OfflineEvaluation(
        mean_model=float(model.mean()),
        mean_reference=float(reference.mean()),
        mean_gap=float(gaps.mean()),
        stderr_gap=stderr,
        samples=m,
    )
