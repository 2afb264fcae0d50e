"""Ledger accounting, bound checks, gap certification, holdout evaluation."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from invlinopt import (
    ADAPTIVE,
    OFFSET,
    ExplicitVertices,
    Hypercube,
    Knapsack,
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
from invlinopt.analysis import _gap_margin, bound_columns, gap_contraction_coefficient
from invlinopt.core import as_vector, inner_product
from invlinopt.harness import build_config, generate, generate_instance_stream, simulate
from invlinopt.harness.config import ExperimentConfig
from invlinopt.harness.io import read_stream, write_stream

from conftest import FAMILIES, dag_paths, naive_gap

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


def checks_by_name(ledger, config, **kw):
    return {c.name: c for c in verify_run(ledger, config, **kw)}


def test_ledger_identities_and_ordering():
    for noise in (0.0, 0.3):
        _, bundle, ledger = small_run(noise=noise)
        T = ledger.rounds
        assert abs(ledger.linearized_regret() - ledger.total_loss()) <= 1e-9 * T
        assert ledger.subopt_regret() <= ledger.linearized_regret() + 1e-9 * T
        checks = checks_by_name(ledger, bundle.reg_config)
        assert checks["total_loss_identity"].passed
        assert checks["regret_ordering"].passed
        assert checks["per_round_linearization"].passed


def test_adaptive_bound_checks_pass_each_prefix():
    _, bundle, ledger = small_run(schedule="adaptive")
    checks = checks_by_name(ledger, bundle.reg_config)
    for name in ("adaptive_grad_bound", "adaptive_horizon_bound"):
        assert checks[name].passed, f"{name} failed at {checks[name].round}"


def test_offset_bound_checks_pass_each_prefix():
    _, bundle, ledger = small_run(schedule="offset", dimension=2, rounds=100)
    assert checks_by_name(ledger, bundle.reg_config)["offset_horizon_bound"].passed
    # bound value at T = 100 with K = 1, H = sqrt(ln 2): 2 sqrt(100 ln 2)
    bound = bound_columns(ledger)["offset_horizon"][99]
    assert abs(bound - 2.0 * math.sqrt(100.0 * math.log(2.0))) < 1e-12
    assert abs(bound - 16.651092223153954) < 1e-9


def test_offset_bound_formula_other_constants():
    config = RegularizerConfig(
        kind="negative-entropy", lam=1.0, B=8.0, H=math.sqrt(math.log(3.0)), K=2.0
    )
    _, bundle, run = small_run(schedule="offset", dimension=3, rounds=400)
    ledger = RegretLedger(
        run.c_star, run.norms, config, OFFSET, run.observations, run.records,
        bundle.optimal_choices,
    )
    bound = bound_columns(ledger)["offset_horizon"][399]
    # 2 * 2 * sqrt(ln 3) * sqrt(400)
    assert abs(bound - 83.85176591745639) < 1e-9
    assert abs(bound - 4.0 * math.sqrt(400.0 * math.log(3.0))) < 1e-9


def test_schedule_and_config_mismatch_errors():
    _, bundle, ledger = small_run(schedule="adaptive")
    bounds = bound_columns(ledger)
    assert bounds["offset_horizon"] is None
    assert bounds["adaptive_grad"] is not None and bounds["adaptive_horizon"] is not None
    other = RegularizerConfig.for_simplex(4, 0.5)
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


def certified_repeat_run(rounds):
    _, bundle, ledger = small_run(
        seed=5, rounds=rounds, gap="integral", dimension=4, fresh_sets=False
    )
    certificate = certify_gap(bundle.observations, bundle.c_star, LINF)
    assert certificate.satisfied and certificate.delta > 0.0
    return bundle, ledger, certificate.delta


def test_gap_checks_on_certified_run():
    bundle, ledger, delta = certified_repeat_run(600)
    checks = checks_by_name(
        ledger, bundle.reg_config, delta=delta, gap_checks=True, plateau_burn_in=100
    )
    for name in ("gap_residual_bound", "gap_gradient_sum_bound", "gap_constant_bound",
                 "loss_plateau"):
        assert checks[name].passed, name
    assert all(c.passed for c in checks.values())


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
    bundle, ledger, delta = certified_repeat_run(50)
    for burn_in, present in ((100, False), (50, True)):
        checks = checks_by_name(
            ledger, bundle.reg_config, delta=delta, gap_checks=True,
            plateau_burn_in=burn_in,
        )
        assert ("loss_plateau" in checks) == present


def fresh_gap_run():
    # a fresh-set gap stream that has not converged by T/2
    _, bundle, ledger = small_run(
        seed=11, rounds=1500, gap="integral", dimension=5, num_vertices=12
    )
    certificate = certify_gap(bundle.observations, bundle.c_star, LINF)
    checks = checks_by_name(
        ledger, bundle.reg_config, delta=certificate.delta, gap_checks=True,
        plateau_burn_in=1000,
    )
    return ledger, checks["loss_plateau"]


def test_plateau_can_fail_honestly():
    _, check = fresh_gap_run()
    assert not check.passed
    assert check.margin < 0.0


def test_plateau_value_is_a_difference_of_pairwise_sums():
    ledger, check = fresh_gap_run()
    total = ledger.arrays()["total"]
    T = ledger.rounds
    late = float(np.sum(total)) - float(np.sum(total[: T // 2]))
    assert late != 0.0
    assert bits(check.value) == bits(late)
    assert (check.round, check.bound) == (T, 1e-9 * T)


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


# The one margin function behind generation's gap control and certify_gap.

NORM_PAIRS = st.sampled_from([NormPair.linf_l1(), NormPair.l2_l2()])
# quarters keep every product and sum exact, so exact ties are common and
# np.dot and a matrix product agree on them
QUARTERS = st.integers(-8, 8).map(lambda k: k / 4.0)
INTEGERS = st.integers(-3, 3).map(float)


@st.composite
def margin_cases(draw, entries=QUARTERS):
    """A feasible set of any family, one of its members and an objective.

    Small knapsacks and DAGs are often singletons; the objective is zero
    in one case of four.
    """
    family = draw(st.sampled_from(FAMILIES))
    if family == "explicit":
        shape = (draw(st.integers(1, 6)), draw(st.integers(1, 4)))
        X = ExplicitVertices(draw(hnp.arrays(np.float64, shape, elements=entries)))
    elif family == "hypercube":
        X = Hypercube(draw(st.integers(1, 4)))
    elif family == "knapsack":
        weights = draw(st.lists(st.integers(0, 5), min_size=1, max_size=5))
        X = Knapsack(weights, draw(st.integers(0, sum(weights))))
    else:
        X = draw(dag_paths(max_nodes=5, max_arcs=7))
    members = X.members()
    x = members[draw(st.integers(0, members.shape[0] - 1))]
    if draw(st.integers(0, 3)) == 0:
        c = np.zeros(X.dimension)
    else:
        c = np.array(draw(st.lists(entries, min_size=X.dimension, max_size=X.dimension)))
    return X, x, c


@settings(max_examples=400, deadline=None)
@given(margin_cases(), NORM_PAIRS)
def test_gap_margin_matches_the_naive_pass(case, norms):
    X, x, c = case
    members = X.members()
    delta, rival = _gap_margin(members, x, c, norms)
    satisfied, naive = naive_gap([Observation(X, x, 1)], c, norms)
    assert (rival is None) == satisfied
    if rival is not None:
        values = members @ c
        others = [i for i in range(len(members)) if not np.array_equal(members[i], x)]
        top = max(values[i] for i in others)
        assert top >= inner_product(c, x)
        assert rival == min(i for i in others if values[i] == top)
    elif naive is None:
        assert len(members) == 1 and delta == math.inf
    else:
        assert abs(delta - naive) <= 1e-12


@settings(max_examples=300, deadline=None)
@given(margin_cases(), NORM_PAIRS, st.sampled_from([0.25, 0.5, 1.0]))
def test_margin_mode_accepts_exactly_what_certify_gap_certifies(case, norms, floor):
    X, _, c = case
    cfg = ExperimentConfig(seed=0, gap_mode="margin", gap_margin=floor)
    accepted = generate._gap_test(cfg, norms, c, None)(X)
    certificate = certify_gap([Observation(X, argmax(X, c).maximizer, 1)], c, norms)
    assert accepted == (certificate.satisfied and certificate.delta >= floor)


@settings(max_examples=300, deadline=None)
@given(margin_cases(entries=INTEGERS), NORM_PAIRS)
def test_integral_mode_accepts_exactly_one_maximizer(case, norms):
    X, _, c = case
    cfg = ExperimentConfig(seed=0, gap_mode="integral")
    values = X.members() @ c
    unique = int(np.sum(values == values.max())) == 1
    assert generate._gap_test(cfg, norms, c, c)(X) == unique


@settings(max_examples=20, deadline=None)
@given(
    st.integers(0, 2 ** 16),
    st.sampled_from(["random-vertices", "knapsack", "dag"]),
    st.sampled_from(["simplex", "ball"]),
)
def test_margin_mode_generation_meets_its_margin(seed, family, domain):
    cfg = build_config({}, seed=seed, dimension=3, rounds=4, family=family,
                       num_vertices=4, domain=domain, gap_mode="margin",
                       gap_margin=0.05)
    bundle = generate_instance_stream(cfg)
    certificate = certify_gap(bundle.observations, bundle.c_star, bundle.domain.norm_pair)
    assert certificate.satisfied and certificate.delta >= 0.05


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

    def sampler(rng, k):
        samples = []
        for _ in range(k):
            verts = rng.integers(0, 2, size=(5, 3)).astype(float)
            X = ExplicitVertices(verts)
            samples.append(Observation(X, argmax(X, c_star).maximizer, 1))
        return samples

    evaluation = offline_evaluate(c_star, c_star, sampler, 200, 9)
    assert evaluation.mean_model == 0.0
    assert evaluation.mean_reference == 0.0
    other = offline_evaluate(np.ones(3) / 3.0, c_star, sampler, 200, 9)
    assert other.mean_reference == 0.0
    assert other.mean_model >= 0.0
    assert other.samples == 200
    with pytest.raises(ValueError):
        offline_evaluate(c_star, c_star, sampler, 0, 9)


# The one-sample protocol offline_evaluate had before its samples came in
# chunks: the reference for the chunked sampler and evaluation.


def reference_sampler(cfg, c_star, c_star_integral):
    norms = generate.build_domain(cfg).norm_pair
    accepts = generate._gap_test(cfg, norms, c_star, c_star_integral)
    shared = generate._fixed_set(cfg, accepts)

    def sampler(rng):
        budget = [min(cfg.retry_cap, 10_000)]
        X, choice = generate._draw_round(cfg, accepts, rng, budget, shared)
        if choice is None:
            choice = argmax(X, c_star).maximizer
        return Observation(X, choice, 1)

    return sampler


def reference_offline_evaluate(c_bar, c_star, sampler, m, seed):
    c_bar = as_vector(c_bar)
    c_star = as_vector(c_star)
    rng = np.random.default_rng(seed)
    model = np.empty(m)
    reference = np.empty(m)
    for i in range(m):
        obs = sampler(rng)
        x = obs.agent_choice
        X = obs.feasible_set
        model[i] = inner_product(c_bar, argmax(X, c_bar).maximizer - x)
        reference[i] = inner_product(c_star, argmax(X, c_star).maximizer - x)
    gaps = model - reference
    stderr = float(gaps.std(ddof=1) / math.sqrt(m)) if m > 1 else 0.0
    return (float(model.mean()), float(reference.mean()), float(gaps.mean()), stderr, m)


HOLDOUT_SETUPS = {
    "dag-ball-noisy": dict(family="dag", dimension=8, domain="ball",
                           schedule="offset", agent_noise=0.2),
    "rv-simplex": dict(family="random-vertices", dimension=5, num_vertices=9),
    # each sample needs about 1.2 draws, so only a budget per sample lasts
    "rv-margin": dict(family="random-vertices", dimension=3, num_vertices=4,
                      gap_mode="margin", gap_margin=0.1, retry_cap=12),
}


@pytest.mark.parametrize("setup", sorted(HOLDOUT_SETUPS))
@pytest.mark.parametrize("m", [1, 255, 256, 257, 700])
def test_offline_evaluate_matches_the_per_sample_reference(setup, m):
    cfg = build_config({}, seed=13, rounds=1, **HOLDOUT_SETUPS[setup])
    c_star, c_star_integral = generate.draw_objective(cfg)
    c_bar = generate.build_domain(cfg).sample(np.random.default_rng(5))
    seed = np.random.SeedSequence([cfg.seed, 1])
    sampler = generate.make_observation_sampler(cfg, c_star, c_star_integral)
    got = offline_evaluate(c_bar, c_star, sampler, m, seed)
    expected = reference_offline_evaluate(
        c_bar, c_star, reference_sampler(cfg, c_star, c_star_integral), m, seed
    )
    fields = (got.mean_model, got.mean_reference, got.mean_gap, got.stderr_gap,
              got.samples)
    assert [np.float64(v).tobytes() for v in fields] == [
        np.float64(v).tobytes() for v in expected
    ]
    # c_bar is not c_star, so the columns compared are not all zeros
    assert m == 1 or got.mean_model != 0.0


def test_sampler_out_of_retries_raises():
    cfg = build_config({}, seed=3, rounds=1, family="random-vertices", dimension=4,
                       num_vertices=6, gap_mode="margin", gap_margin=50.0,
                       retry_cap=40, holdout=300)
    c_star, c_star_integral = generate.draw_objective(cfg)
    sampler = generate.make_observation_sampler(cfg, c_star, c_star_integral)
    with pytest.raises(generate.GenerationFailedError):
        offline_evaluate(c_star, c_star, sampler, 300, 1)
    with pytest.raises(generate.GenerationFailedError):
        sampler(np.random.default_rng(1), 1)


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
