"""Ledger accounting, bound checks, gap certification, holdout evaluation."""

import dataclasses
import math

import numpy as np
import pytest

from invlinopt import (
    ADAPTIVE,
    OFFSET,
    ExplicitVertices,
    NormPair,
    Observation,
    RegretLedger,
    RegularizerConfig,
    Simplex,
    argmax,
    average_prediction,
    certify_gap,
    offline_evaluate,
    verify_run,
)
from invlinopt.analysis import (
    check_adaptive_regret_bound,
    check_gap_constant_regret_bound,
    check_gap_gradient_sum_bound,
    check_gap_residual_bound,
    check_loss_plateau,
    check_offset_regret_bound,
    check_per_round_linearization,
    check_regret_ordering,
    check_total_loss_identity,
    gap_contraction_coefficient,
    offset_horizon_bound,
)
from invlinopt.harness import build_config, generate_instance_stream, simulate
from invlinopt.harness.io import read_stream, write_stream

from conftest import naive_gap

SQUARE = ExplicitVertices([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
LINF = NormPair.linf_l1()


def small_run(seed=7, rounds=300, schedule="adaptive", noise=0.0, gap="none", **kw):
    cfg = build_config(
        {},
        seed=seed,
        dimension=kw.pop("dimension", 4),
        rounds=rounds,
        family=kw.pop("family", "random-vertices"),
        num_vertices=kw.pop("num_vertices", 8),
        schedule=schedule,
        agent_noise=noise,
        gap_mode=gap,
        **kw,
    )
    bundle = generate_instance_stream(cfg)
    state, ledger = simulate(bundle)
    return cfg, bundle, ledger


def test_ledger_identities_and_ordering():
    for noise in (0.0, 0.3):
        _, _, ledger = small_run(noise=noise)
        T = ledger.rounds
        assert abs(ledger.linearized_regret() - ledger.total_loss()) <= 1e-9 * T
        assert ledger.subopt_regret() <= ledger.linearized_regret() + 1e-9 * T
        assert check_total_loss_identity(ledger, T).passed
        assert check_regret_ordering(ledger, T).passed
        for t in (1, T // 2, T):
            assert check_per_round_linearization(ledger, t).passed


def test_adaptive_bound_checks_pass_each_prefix():
    _, bundle, ledger = small_run(schedule="adaptive")
    for t in range(1, ledger.rounds + 1):
        for check in check_adaptive_regret_bound(ledger, bundle.reg_config, t):
            assert check.passed, f"{check.name} failed at {t}"


def test_offset_bound_checks_pass_each_prefix():
    _, bundle, ledger = small_run(schedule="offset", dimension=2, rounds=100)
    for t in range(1, ledger.rounds + 1):
        assert check_offset_regret_bound(ledger, bundle.reg_config, t).passed
    # bound value at T = 100 with K = 1, H = sqrt(ln 2): 2 sqrt(100 ln 2)
    check = check_offset_regret_bound(ledger, bundle.reg_config, 100)
    assert abs(check.bound - 2.0 * math.sqrt(100.0 * math.log(2.0))) < 1e-12
    assert abs(check.bound - 16.651092223153954) < 1e-9


def test_offset_bound_formula_other_constants():
    config = RegularizerConfig(
        kind="negative-entropy", lam=1.0, B=8.0, H=math.sqrt(math.log(3.0)), K=2.0
    )
    # 2 * 2 * sqrt(ln 3) * sqrt(400)
    assert abs(offset_horizon_bound(config, 400) - 83.85176591745639) < 1e-9
    assert abs(
        offset_horizon_bound(config, 400) - 4.0 * math.sqrt(400.0 * math.log(3.0))
    ) < 1e-9


def test_schedule_and_config_mismatch_errors():
    _, bundle, ledger = small_run(schedule="adaptive")
    with pytest.raises(ValueError):
        check_offset_regret_bound(ledger, bundle.reg_config, 1)
    other = RegularizerConfig.for_simplex(4, 0.5)
    with pytest.raises(ValueError):
        check_adaptive_regret_bound(ledger, other, 1)
    with pytest.raises(ValueError):
        verify_run(ledger, other)


def test_verify_run_names_and_passes():
    _, bundle, ledger = small_run()
    checks = verify_run(ledger, bundle.reg_config)
    names = {c.name for c in checks}
    assert names == {
        "total_loss_identity",
        "per_round_linearization",
        "regret_ordering",
        "adaptive_grad_bound",
        "adaptive_horizon_bound",
    }
    assert all(c.passed for c in checks)


def test_gap_checks_on_certified_run():
    cfg, bundle, ledger = small_run(
        seed=5, rounds=600, gap="integral", dimension=4, fresh_sets=False
    )
    certificate = certify_gap(bundle.observations, bundle.c_star, LINF)
    assert certificate.satisfied and certificate.delta > 0.0
    for t in range(1, ledger.rounds + 1):
        assert check_gap_residual_bound(ledger, bundle.reg_config, certificate.delta, t).passed
        assert check_gap_gradient_sum_bound(
            ledger, bundle.reg_config, certificate.delta, t
        ).passed
        assert check_gap_constant_regret_bound(
            ledger, bundle.reg_config, certificate.delta, t
        ).passed
    assert check_loss_plateau(ledger, 100).passed
    checks = verify_run(
        ledger, bundle.reg_config, delta=certificate.delta, gap_checks=True,
        plateau_burn_in=100,
    )
    assert all(c.passed for c in checks)


def test_residual_bound_direct_evaluation():
    # both sides computed from scratch on the certified square instance
    c_star = np.asarray([2.0, 1.0]) / 3.0
    obs = Observation(SQUARE, [1.0, 1.0], 1)
    certificate = certify_gap([obs], c_star, LINF)
    config = RegularizerConfig.for_simplex(2, 1.0)
    c_hat = np.asarray([0.5, 0.5])
    x_hat = argmax(SQUARE, c_hat).maximizer
    g = x_hat - obs.agent_choice
    lhs = float(np.max(np.abs(g))) ** 2
    rhs = gap_contraction_coefficient(config, certificate.delta) * float(
        g @ (c_hat - c_star)
    )
    assert lhs <= rhs + 1e-9
    # trivial case: matching actions give 0 <= 0
    assert 0.0 <= gap_contraction_coefficient(config, certificate.delta) * 0.0


def test_plateau_needs_enough_rounds():
    _, _, ledger = small_run(rounds=50)
    with pytest.raises(ValueError):
        check_loss_plateau(ledger, 100)


def test_plateau_can_fail_honestly():
    # a fresh-set gap stream that has not converged by T/2 must be reported
    _, bundle, ledger = small_run(
        seed=11, rounds=1500, gap="integral", dimension=5, num_vertices=12
    )
    check = check_loss_plateau(ledger, 1000)
    assert not check.passed
    assert check.margin < 0.0


def test_certify_gap_square_example():
    c_star = [2.0, 1.0]
    obs = Observation(SQUARE, [1.0, 1.0], 1)
    certificate = certify_gap([obs], c_star, LINF)
    assert certificate.satisfied
    assert certificate.delta == 1.0
    assert certificate.per_round_deltas == (1.0,)


def test_certify_gap_not_satisfied():
    tie = certify_gap([Observation(SQUARE, [1.0, 0.0], 1)], [1.0, 0.0], LINF)
    assert not tie.satisfied and tie.witness.reason == "tied-optimum"
    suboptimal = certify_gap([Observation(SQUARE, [0.0, 0.0], 1)], [2.0, 1.0], LINF)
    assert not suboptimal.satisfied
    assert suboptimal.witness.reason == "agent-suboptimal"
    assert suboptimal.witness.round_index == 1


def test_certify_gap_singleton_round():
    single = ExplicitVertices([[0.25, 0.5]])
    certificate = certify_gap([Observation(single, [0.25, 0.5], 1)], [1.0, 1.0], LINF)
    assert certificate.satisfied
    assert certificate.delta == math.inf


def test_certify_gap_matches_naive_pass():
    rng = np.random.default_rng(40)
    for _ in range(60):
        n = int(rng.integers(2, 5))
        verts = rng.integers(0, 2, size=(6, n)).astype(float)
        X = ExplicitVertices(verts)
        c_star = rng.random(n) + 0.1
        x = argmax(X, c_star).maximizer
        observations = [Observation(X, x, 1)]
        mine = certify_gap(observations, c_star, LINF)
        theirs_ok, theirs_delta = naive_gap(observations, c_star, LINF)
        assert mine.satisfied == theirs_ok
        if mine.satisfied and mine.delta != math.inf:
            assert abs(mine.delta - theirs_delta) <= 1e-12


def test_average_prediction():
    _, _, ledger = small_run(rounds=40)
    averaged = average_prediction(ledger.records)
    stacked = np.stack([r.c_hat for r in ledger.records])
    assert np.allclose(averaged, stacked.mean(axis=0))
    assert Simplex(4).contains(averaged)
    same = average_prediction(ledger.records[:1])
    assert np.array_equal(same, ledger.records[0].c_hat)
    with pytest.raises(ValueError):
        average_prediction([])


def test_average_prediction_midpoint():
    from invlinopt.learner import RoundRecord

    def rec(t, c):
        c = np.asarray(c, dtype=float)
        z = np.zeros_like(c)
        return RoundRecord(t, c, z, z, 0.0, 0.0, 0.0, None)

    averaged = average_prediction([rec(1, [1.0, 0.0]), rec(2, [0.0, 1.0])])
    assert tuple(averaged) == (0.5, 0.5)


def test_offline_evaluate_exact_zeros():
    rng_holder = np.random.default_rng(41)
    c_star = rng_holder.dirichlet(np.ones(3))

    def sampler(rng):
        verts = rng.integers(0, 2, size=(5, 3)).astype(float)
        X = ExplicitVertices(verts)
        return Observation(X, argmax(X, c_star).maximizer, 1)

    evaluation = offline_evaluate(c_star, c_star, sampler, 200, 9)
    assert evaluation.mean_model == 0.0
    assert evaluation.mean_reference == 0.0
    other = offline_evaluate(np.ones(3) / 3.0, c_star, sampler, 200, 9)
    assert other.mean_reference == 0.0
    assert other.mean_model >= 0.0
    assert other.samples == 200
    with pytest.raises(ValueError):
        offline_evaluate(c_star, c_star, sampler, 0, 9)


def certificate_fields(certificate):
    witness = certificate.witness
    return (
        certificate.satisfied,
        certificate.delta,
        certificate.per_round_deltas,
        None if witness is None else (
            witness.round_index,
            witness.competitor.tobytes(),
            witness.value,
            witness.reason,
        ),
    )


def test_certify_gap_reuse_matches_a_stream_without_shared_sets(tmp_path):
    # The file round trip gives every round its own set object, so nothing
    # is reused there; the in-memory stream repeats one set object.
    c_star = [2.0, 1.0]
    best = (SQUARE, [1.0, 1.0])  # margin 1
    pair = (ExplicitVertices([[1.0, 0.0], [0.0, 0.5]]), [1.0, 0.0])  # margin 1.5
    single = (ExplicitVertices([[0.5, 0.5]]), [0.5, 0.5])  # margin +inf
    cases = {
        "repeated": [best] * 6 + [single] * 2,
        "alternating": [pair, pair, best, best, pair, single, single, pair],
        "suboptimal-late": [best] * 4 + [(SQUARE, [0.0, 0.0])] + [best] * 2,
    }
    for name, rounds in cases.items():
        observations = [Observation(X, x, t) for t, (X, x) in enumerate(rounds, 1)]
        path = tmp_path / f"{name}.txt"
        write_stream(path, observations, c_star)
        reloaded, _ = read_stream(path)
        for norms in (LINF, NormPair.l2_l2()):
            mine = certify_gap(observations, c_star, norms)
            fresh = certify_gap(reloaded, c_star, norms)
            assert certificate_fields(mine) == certificate_fields(fresh), name
    alternating = [
        Observation(X, x, t) for t, (X, x) in enumerate(cases["alternating"], 1)
    ]
    assert certify_gap(alternating, c_star, LINF).per_round_deltas == (
        1.5, 1.5, 1.0, 1.0, 1.5, math.inf, math.inf, 1.5
    )


def test_certify_gap_reuse_on_a_generated_repeated_stream(tmp_path):
    cfg = build_config({}, seed=17, dimension=6, rounds=80, family="knapsack",
                       gap_mode="integral", fresh_sets=False)
    bundle = generate_instance_stream(cfg)
    path = tmp_path / "stream.txt"
    write_stream(path, bundle.observations, bundle.c_star)
    reloaded, _ = read_stream(path)
    for c_star in (bundle.c_star, bundle.c_star_integral):
        mine = certify_gap(bundle.observations, c_star, LINF)
        fresh = certify_gap(reloaded, c_star, LINF)
        assert mine.satisfied
        assert certificate_fields(mine) == certificate_fields(fresh)


# The whole-run ledger against the round-by-round arithmetic it replaced.

LEDGER_COLUMNS = ("ell_sub", "ell_est", "ell_sub_ref", "total", "lin_inc",
                  "regret", "regret_sub", "sum_sq", "beta", "grad_norm")


class AppendLedger:
    """Reference: the ledger as a per-round append, with np.dot per row."""

    def __init__(self, c_star, norms):
        self.c_star = c_star
        self.norms = norms
        self.columns = {name: [] for name in LEDGER_COLUMNS}
        self.max_grad_norm = 0.0
        self.max_dual_distance = 0.0

    def append(self, obs, record, reference):
        c_star, col = self.c_star, self.columns
        ell_sub_ref = float(np.dot(c_star, reference - obs.agent_choice))
        distance = record.c_hat - c_star
        lin_inc = float(np.dot(record.g, distance))
        ell_est = record.ell_est
        if ell_est is None:
            ell_est = float(np.dot(c_star, obs.agent_choice - record.x_hat))
        prev_r = col["regret"][-1] if col["regret"] else 0.0
        prev_rs = col["regret_sub"][-1] if col["regret_sub"] else 0.0
        prev_sq = col["sum_sq"][-1] if col["sum_sq"] else 0.0
        col["ell_sub"].append(record.ell_sub)
        col["ell_est"].append(ell_est)
        col["ell_sub_ref"].append(ell_sub_ref)
        col["total"].append(record.ell_sub + ell_est)
        col["lin_inc"].append(lin_inc)
        col["regret"].append(prev_r + lin_inc)
        col["regret_sub"].append(prev_rs + (record.ell_sub - ell_sub_ref))
        col["sum_sq"].append(prev_sq + record.grad_norm ** 2)
        col["beta"].append(record.beta)
        col["grad_norm"].append(record.grad_norm)
        self.max_grad_norm = max(self.max_grad_norm, record.grad_norm)
        self.max_dual_distance = max(self.max_dual_distance, self.norms.dual(distance))


def bits(value):
    return np.float64(value).tobytes()


def assert_ledger_matches_appends(ledger, references):
    reference = AppendLedger(ledger.c_star, ledger.norms)
    for obs, record, optimal in zip(ledger.observations, ledger.records, references):
        # the record's own arithmetic, zero-gradient rounds included
        x = obs.agent_choice
        g = record.x_hat - x + 0.0
        assert record.g.tobytes() == g.tobytes()
        assert bits(record.grad_norm) == bits(ledger.norms.primal(g))
        assert bits(record.ell_sub) == bits(np.dot(record.c_hat, g))
        assert bits(record.ell_est) == bits(np.dot(ledger.c_star, x - record.x_hat))
        reference.append(obs, record, optimal)
    arrays = ledger.arrays()
    assert sorted(arrays) == sorted(LEDGER_COLUMNS)
    for name in LEDGER_COLUMNS:
        expected = np.array(reference.columns[name], dtype=np.float64)
        assert arrays[name].tobytes() == expected.tobytes(), name
    assert bits(ledger.max_grad_norm) == bits(reference.max_grad_norm)
    assert bits(ledger.max_dual_distance) == bits(reference.max_dual_distance)


def test_running_sums_start_from_zero_like_an_accumulator():
    from invlinopt.analysis import _running

    sums = _running(np.array([-0.0, 1.0, -0.0]))
    # 0.0 + (-0.0) is +0.0, as the first step of a loop from 0.0 gives
    assert sums.tobytes() == np.array([0.0, 1.0, 1.0]).tobytes()
    assert _running(np.array([])).size == 0


LEDGER_RUNS = {
    "rv-simplex-adaptive": dict(family="random-vertices", dimension=10,
                                num_vertices=32),
    "dag-ball-offset-noisy": dict(family="dag", dimension=10, domain="ball",
                                  schedule="offset", agent_noise=0.2),
}


@pytest.mark.parametrize("name", sorted(LEDGER_RUNS))
def test_whole_run_ledger_matches_round_by_round_appends(name):
    cfg = build_config({}, seed=23, rounds=400, **LEDGER_RUNS[name])
    bundle = generate_instance_stream(cfg)
    _, ledger = simulate(bundle)
    zero = sum(not r.g.any() for r in ledger.records)
    assert 0 < zero < ledger.rounds  # both kinds of round occur
    assert_ledger_matches_appends(ledger, bundle.optimal_choices)
    # records made without c_star leave the estimate loss to the ledger
    bare = RegretLedger(
        ledger.c_star, ledger.norms, ledger.config, ledger.schedule,
        ledger.observations,
        [dataclasses.replace(r, ell_est=None) for r in ledger.records],
        bundle.optimal_choices,
    )
    for column, values in ledger.arrays().items():
        assert bare.arrays()[column].tobytes() == values.tobytes(), column
    # a caller's replay of other observations solves its own references
    other = generate_instance_stream(build_config({}, seed=24, rounds=400,
                                                  **LEDGER_RUNS[name]))
    _, replayed = simulate(bundle, other.observations)
    references = [argmax(obs.feasible_set, bundle.c_star).maximizer
                  for obs in other.observations]
    assert_ledger_matches_appends(replayed, references)
