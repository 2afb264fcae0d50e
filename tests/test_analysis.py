"""Ledger accounting, bound checks, gap certification, holdout evaluation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from invlinopt import (
    ADAPTIVE,
    OFFSET,
    DagPaths,
    ExplicitVertices,
    GapCertificate,
    Hypercube,
    Knapsack,
    NormPair,
    Observation,
    RegretLedger,
    Simplex,
    argmax,
    argmax_many,
    certify_gap,
    init_learner,
    offline_evaluate,
    play,
    verify_run,
)
from invlinopt import core, oracle
from invlinopt.analysis import (
    _gap_margin,
    bound_columns,
    gap_contraction_coefficient,
)
from invlinopt.core import as_vector
from invlinopt.harness import (
    StreamBundle,
    build_config,
    generate,
    generate_instance_stream,
    run_experiment,
    simulate,
)
from invlinopt.harness.generate import draw_objective
from invlinopt.harness.config import ExperimentConfig
from invlinopt.harness.io import read_stream, write_stream

from conftest import CARRIED_STREAMS, FAMILIES, dag_paths, naive_gap
from reference import (
    LEDGER_COLUMNS,
    PLAYED_COLUMNS,
    estimate_loss,
    in_domain,
    inner_product,
    reference_sampler,
    simulate_by_rounds,
)

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
    ledger = simulate(bundle)
    return cfg, bundle, ledger


def played_columns(cfg, observations):
    """learner.play's columns for a whole stream, from the run's setup."""
    start = init_learner(generate.build_domain(cfg), cfg.schedule,
                         generate.diameter_bound(cfg))
    return play(start, observations)[1]


def ledger_of(c_star, state, observations, played, references):
    """A ledger of one recorded chunk, the whole stream."""
    ledger = RegretLedger(c_star, state, len(observations))
    ledger.record(state, observations, played, references)
    return ledger


def checks_by_name(ledger, **kw):
    return {c.name: c for c in verify_run(ledger, **kw)}


def test_ledger_identities_and_ordering():
    for noise in (0.0, 0.3):
        _, bundle, ledger = small_run(noise=noise)
        T = ledger.rounds
        assert abs(ledger.linearized_regret() - ledger.total_loss()) <= 1e-9 * T
        assert ledger.subopt_regret() <= ledger.linearized_regret() + 1e-9 * T
        checks = checks_by_name(ledger)
        assert checks["total_loss_identity"].passed
        assert checks["regret_ordering"].passed
        assert checks["per_round_linearization"].passed


def test_adaptive_bound_checks_pass_each_prefix():
    _, bundle, ledger = small_run(schedule="adaptive")
    checks = checks_by_name(ledger)
    for name in ("adaptive_grad_bound", "adaptive_horizon_bound"):
        assert checks[name].passed, f"{name} failed at {checks[name].round}"


def test_offset_bound_checks_pass_each_prefix():
    _, bundle, ledger = small_run(schedule="offset", dimension=2, rounds=100)
    assert checks_by_name(ledger)["offset_horizon_bound"].passed
    # bound value at T = 100 with K = 1, H = sqrt(ln 2): 2 sqrt(100 ln 2)
    bound = bound_columns(ledger)["offset_horizon"][99]
    assert abs(bound - 2.0 * math.sqrt(100.0 * math.log(2.0))) < 1e-12
    assert abs(bound - 16.651092223153954) < 1e-9


def test_offset_bound_formula_other_constants():
    # the simplex fixes H = sqrt(ln 3); K = 2 is twice the run's own
    cfg, bundle, run = small_run(schedule="offset", dimension=3, rounds=400)
    played = played_columns(cfg, bundle.observations)
    state = init_learner(Simplex(3), OFFSET, 2.0)
    ledger = ledger_of(run.c_star, state, bundle.observations, played,
                       bundle.optimal_choices)
    # the ledger's constants are the state's, and nothing else sets them
    assert ledger.learner is state
    assert (state.K, state.H) == (2.0, math.sqrt(math.log(3.0)))
    for gone in ("arrays", "_columns", "domain", "norms", "B", "H", "K",
                 "schedule", "observations", "records"):
        assert not hasattr(ledger, gone), gone
    # the ledger keeps the length-T columns only, read in place and not
    # changed there
    assert sorted(ledger.columns) == sorted(LEDGER_COLUMNS)
    with pytest.raises(TypeError):
        ledger.columns["total"] = ledger.columns["ell_sub"]
    assert not any(column.flags.writeable for column in ledger.columns.values())
    with pytest.raises(ValueError, match="differ in length"):
        ledger_of(run.c_star, state, bundle.observations[1:], played,
                  bundle.optimal_choices)
    with pytest.raises(ValueError, match="room"):
        ledger.record(state, bundle.observations[:1], {
            name: column[:1] for name, column in played.items()
        }, bundle.optimal_choices[:1])
    bound = bound_columns(ledger)["offset_horizon"][399]
    # 2 * 2 * sqrt(ln 3) * sqrt(400)
    assert abs(bound - 83.85176591745639) < 1e-9
    assert abs(bound - 4.0 * math.sqrt(400.0 * math.log(3.0))) < 1e-9


def test_bounds_follow_the_ledger_schedule_and_config():
    cfg, bundle, ledger = small_run(schedule="adaptive")
    bounds = bound_columns(ledger)
    assert bounds["offset_horizon"] is None
    assert bounds["adaptive_grad"] is not None and bounds["adaptive_horizon"] is not None
    # verify_run reads the constants from the ledger: a ledger with half
    # the K checks half the horizon bound
    run = ledger.learner
    halved = ledger_of(
        ledger.c_star, init_learner(run.domain, ADAPTIVE, 0.5 * run.K),
        bundle.observations, played_columns(cfg, bundle.observations),
        bundle.optimal_choices,
    )
    horizon = {c.name: c for c in verify_run(halved)}["adaptive_horizon_bound"]
    assert horizon.bound == bound_columns(halved)["adaptive_horizon"][horizon.round - 1]
    assert horizon.bound == 0.5 * bounds["adaptive_horizon"][horizon.round - 1]


def test_verify_run_names_and_passes():
    _, bundle, ledger = small_run()
    checks = verify_run(ledger)
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
    return bundle, ledger, certificate


def test_gap_checks_on_certified_run():
    bundle, ledger, certificate = certified_repeat_run(600)
    checks = checks_by_name(ledger, certificate=certificate, plateau_burn_in=100)
    for name in ("gap_residual_bound", "gap_gradient_sum_bound", "gap_constant_bound",
                 "loss_plateau"):
        assert checks[name].passed, name
    assert all(c.passed for c in checks.values())


def test_residual_bound_direct_evaluation():
    # both sides computed from scratch on the certified square instance
    c_star = np.asarray([2.0, 1.0]) / 3.0
    obs = Observation(SQUARE, [1.0, 1.0])
    certificate = certify_gap([obs], c_star, LINF)
    K, B = 1.0, init_learner(Simplex(2), ADAPTIVE, 1.0).B
    coef = gap_contraction_coefficient(K, B, certificate.delta)
    assert coef == K * B / (2.0 ** 1.25 * certificate.delta ** 2)
    c_hat = np.asarray([0.5, 0.5])
    x_hat = argmax(SQUARE, c_hat).maximizer
    g = x_hat - obs.agent_choice
    lhs = float(np.max(np.abs(g))) ** 2
    rhs = coef * float(g @ (c_hat - c_star))
    assert lhs <= rhs + 1e-9
    # trivial case: matching actions give 0 <= 0
    assert 0.0 <= coef * 0.0


def test_plateau_needs_enough_rounds():
    bundle, ledger, certificate = certified_repeat_run(50)
    for burn_in, present in ((100, False), (50, True)):
        checks = checks_by_name(ledger, certificate=certificate, plateau_burn_in=burn_in)
        assert ("loss_plateau" in checks) == present


def fresh_gap_run():
    # a fresh-set gap stream that has not converged by T/2
    _, bundle, ledger = small_run(
        seed=11, rounds=1500, gap="integral", dimension=5, num_vertices=12
    )
    certificate = certify_gap(bundle.observations, bundle.c_star, LINF)
    checks = checks_by_name(ledger, certificate=certificate, plateau_burn_in=1000)
    return ledger, checks["loss_plateau"]


def test_plateau_can_fail_honestly():
    _, check = fresh_gap_run()
    assert not check.passed
    assert check.margin < 0.0


def test_plateau_counts_the_first_late_round():
    # one nonzero total, 2.0, at round n // 2 + 1, the first round of the
    # late half; recorded three rounds at a time, so the total column is
    # assembled from chunks
    n = 10
    x, other = as_vector([0.0, 1.0]), as_vector([1.0, 0.0])
    references = np.tile(x, (n, 1))
    x_hat = references.copy()
    x_hat[n // 2] = other
    g = x_hat - x + 0.0
    played = {"c_hat": np.tile([1.0, 0.0], (n, 1)), "x_hat": x_hat, "g": g,
              "beta": np.ones(n), "grad_norm": np.max(np.abs(g), axis=1)}
    observations = [Observation(SQUARE, x)] * n
    state = init_learner(Simplex(2), ADAPTIVE, 1.0)
    ledger = RegretLedger([0.0, 1.0], state, n)
    for start in range(0, n, 3):
        rows = slice(start, start + 3)
        ledger.record(state, observations[rows],
                      {name: column[rows] for name, column in played.items()},
                      references[rows])
    total = ledger.columns["total"]
    assert np.flatnonzero(total).tolist() == [n // 2] and total[n // 2] == 2.0
    certificate = GapCertificate(True, 1.0, None, n, None)
    check = checks_by_name(ledger, certificate=certificate, plateau_burn_in=n)["loss_plateau"]
    assert not check.passed
    assert (check.round, check.value, check.bound) == (n, 2.0, 1e-9 * n)


def test_gap_constant_bound_is_its_closed_form():
    cfg = build_config({}, seed=5, dimension=4, rounds=300, num_vertices=8,
                       gap_mode="integral", fresh_sets=False)
    result = run_experiment(cfg)
    delta = result.certificate.delta
    # the simplex of dimension 4: K = 1 and B = 2^{11/4} sqrt(ln 4)
    K, B = 1.0, 2.0 ** 2.75 * math.sqrt(math.log(4.0))
    expected = pytest.approx(2.0 ** 1.25 * K * B ** 3 / delta ** 2, rel=1e-12)
    column = bound_columns(result.ledger, delta)["gap_constant"]
    assert column.shape == (300,) and column.tolist() == [expected] * 300
    check = next(c for c in result.checks if c.name == "gap_constant_bound")
    assert check.bound == expected
    assert result.summary["check.gap_constant_bound.bound"] == expected


def test_plateau_value_is_a_difference_of_pairwise_sums():
    ledger, check = fresh_gap_run()
    total = ledger.columns["total"]
    T = ledger.rounds
    late = float(np.sum(total)) - float(np.sum(total[: T // 2]))
    assert late != 0.0
    assert bits(check.value) == bits(late)
    assert (check.round, check.bound) == (T, 1e-9 * T)


def test_certify_gap_square_example():
    c_star = [2.0, 1.0]
    obs = Observation(SQUARE, [1.0, 1.0])
    certificate = certify_gap([obs], c_star, LINF)
    assert certificate.satisfied
    assert certificate.delta == 1.0
    assert (certificate.witness, certificate.rounds) == (None, 1)


def test_certify_gap_not_satisfied():
    tie = certify_gap([Observation(SQUARE, [1.0, 0.0])], [1.0, 0.0], LINF)
    assert not tie.satisfied and tie.witness.reason == "tied-optimum"
    suboptimal = certify_gap([Observation(SQUARE, [0.0, 0.0])], [2.0, 1.0], LINF)
    assert not suboptimal.satisfied
    assert suboptimal.witness.reason == "agent-suboptimal"
    assert suboptimal.witness.round_index == 1


def test_certify_gap_singleton_round():
    single = ExplicitVertices([[0.25, 0.5]])
    certificate = certify_gap([Observation(single, [0.25, 0.5])], [1.0, 1.0], LINF)
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
        observations = [Observation(X, x)]
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
    satisfied, naive = naive_gap([Observation(X, x)], c, norms)
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
    margin, floor = generate._gap_test(cfg, norms, c, None)
    accepted = margin(X) >= floor
    certificate = certify_gap([Observation(X, argmax(X, c).maximizer)], c, norms)
    assert accepted == (certificate.satisfied and certificate.delta >= floor)


@settings(max_examples=300, deadline=None)
@given(margin_cases(entries=INTEGERS), NORM_PAIRS)
def test_integral_mode_accepts_exactly_one_maximizer(case, norms):
    X, _, c = case
    cfg = ExperimentConfig(seed=0, gap_mode="integral")
    values = X.members() @ c
    unique = int(np.sum(values == values.max())) == 1
    margin, floor = generate._gap_test(cfg, norms, c, c)
    assert (margin(X) >= floor) == unique


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
    certificate = certify_gap(bundle.observations, bundle.c_star,
                              generate.build_domain(cfg).norm_pair)
    assert certificate.satisfied and certificate.delta >= 0.05


def test_average_prediction():
    cfg, bundle, ledger = small_run(rounds=40)
    c_hat = played_columns(cfg, bundle.observations)["c_hat"]
    # the ledger averages from its carried row sum: the rows of the played
    # c_hat added one at a time in round order, then divided by their number
    total = np.zeros(c_hat.shape[1])
    for row in c_hat:
        total = total + row
    averaged = ledger.average_prediction()
    assert averaged.tobytes() == (total / len(c_hat)).tobytes()
    assert np.allclose(averaged, c_hat.mean(axis=0))
    # the rows averaged one at a time, as np.stack of per-round vectors
    stacked = np.stack([np.array(row) for row in c_hat])
    assert averaged.tobytes() == stacked.mean(axis=0).tobytes()
    assert in_domain(Simplex(4), averaged)
    with pytest.raises(ValueError, match="empty run"):
        RegretLedger(ledger.c_star, ledger.learner, 0).average_prediction()


def test_average_prediction_midpoint():
    # a two-round ledger whose played predictions are the two unit vectors
    state = init_learner(Simplex(2), ADAPTIVE, 1.0)
    observations = [Observation(SQUARE, [0.0, 0.0])] * 2
    zeros = np.zeros((2, 2))
    played = {"c_hat": np.eye(2), "x_hat": zeros, "g": zeros,
              "beta": np.ones(2), "grad_norm": np.zeros(2)}
    ledger = ledger_of([0.5, 0.5], state, observations, played, zeros)
    assert tuple(ledger.average_prediction()) == (0.5, 0.5)


def test_offline_evaluate_exact_zeros():
    rng_holder = np.random.default_rng(41)
    c_star = rng_holder.dirichlet(np.ones(3))

    def sampler(rng, k):
        samples = []
        for _ in range(k):
            verts = rng.integers(0, 2, size=(5, 3)).astype(float)
            X = ExplicitVertices(verts)
            samples.append(Observation(X, argmax(X, c_star).maximizer))
        return samples, [obs.agent_choice for obs in samples]

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
# chunks: the reference for the chunked evaluation.  Its sampler,
# reference.reference_sampler, builds every set and observation with the
# public constructors, which check everything generation trusts.


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
    "rv-margin": dict(family="random-vertices", dimension=3, num_vertices=4,
                      gap_mode="margin", gap_margin=0.1),
}
# each sample needs about 1.2 draws, so only a budget per set lasts
HOLDOUT_RETRY_CAPS = {"rv-margin": 12}


@pytest.mark.parametrize("setup", sorted(HOLDOUT_SETUPS))
@pytest.mark.parametrize("m", [1, 255, 256, 257, 700])
def test_offline_evaluate_matches_the_per_sample_reference(monkeypatch, setup, m):
    if setup in HOLDOUT_RETRY_CAPS:
        monkeypatch.setattr(generate, "RETRY_CAP", HOLDOUT_RETRY_CAPS[setup])
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


SAMPLER_SETUPS = {
    **HOLDOUT_SETUPS,
    "knapsack-fresh": dict(family="knapsack", dimension=6),
    "knapsack-repeat": dict(family="knapsack", dimension=6, fresh_sets=False),
    "hypercube-noisy": dict(family="hypercube", dimension=5, agent_noise=0.2),
    # integral draws in blocks: m * n even, and odd
    "rv-integral": dict(family="random-vertices", dimension=4, num_vertices=8,
                        integral_vertices=True),
    "rv-integral-odd": dict(family="random-vertices", dimension=3,
                            num_vertices=5, integral_vertices=True),
}


def set_contents(X):
    """Everything a set holds, as comparable bytes and tuples."""
    if isinstance(X, ExplicitVertices):
        return X.vertices.shape, X.vertices.tobytes()
    if isinstance(X, DagPaths):
        return X.num_nodes, X.arcs, X._ends.dtype, X.enumeration_effort()
    if isinstance(X, Knapsack):
        return X.weights.dtype, X.weights.tobytes(), X.capacity
    return type(X)


@pytest.mark.parametrize("setup", sorted(SAMPLER_SETUPS))
@pytest.mark.parametrize("k", [1, 256, 257, 700])
def test_sampler_matches_the_public_constructors(monkeypatch, setup, k):
    # rv-simplex and the rv-integral setups draw their sets as one block;
    # every other setup draws them one at a time, with trusted sets and
    # choices
    if setup in HOLDOUT_RETRY_CAPS:
        monkeypatch.setattr(generate, "RETRY_CAP", HOLDOUT_RETRY_CAPS[setup])
    cfg = build_config({}, seed=13, rounds=1, **SAMPLER_SETUPS[setup])
    c_star, c_star_integral = generate.draw_objective(cfg)
    sampler = generate.make_observation_sampler(cfg, c_star, c_star_integral)
    reference = reference_sampler(cfg, c_star, c_star_integral)
    rng = np.random.default_rng([cfg.seed, 1])
    reference_rng = np.random.default_rng([cfg.seed, 1])
    observations, optimal_choices = sampler(rng, k)
    assert len(observations) == len(optimal_choices) == k
    for obs, optimal in zip(observations, optimal_choices):
        expected = reference(reference_rng)
        X, Y = obs.feasible_set, expected.feasible_set
        assert type(X) is type(Y) and X.dimension == Y.dimension
        assert set_contents(X) == set_contents(Y)
        assert X.members().tobytes() == Y.members().tobytes()
        assert obs.agent_choice.tobytes() == expected.agent_choice.tobytes()
        assert not obs.agent_choice.flags.writeable
        assert optimal.tobytes() == argmax(Y, c_star).maximizer.tobytes()
    assert rng.random(4).tobytes() == reference_rng.random(4).tobytes()


@pytest.mark.parametrize("noise", [0.0, 0.3])
@pytest.mark.parametrize("n", [3, 7, 8, 10, 30])
@pytest.mark.parametrize("gap", ["none", "margin", "integral"])
def test_dag_sampler_matches_the_per_set_reference_draw(gap, n, noise):
    # the sampler draws a call's DAG arcs into one block, the chain filled
    # in once; the reference draws tuple arcs one set at a time.  With
    # n <= 7 a set is its chain alone; n = 30 holds hundreds of paths, and
    # the gap modes redraw rejected rows.  2 * 256 + 3 samples cross
    # argmax_many's chunk boundaries.
    cfg = build_config({}, seed=13, rounds=1, family="dag", dimension=n,
                       gap_mode=gap, gap_margin=0.01, agent_noise=noise)
    c_star, c_star_integral = generate.draw_objective(cfg)
    sampler = generate.make_observation_sampler(cfg, c_star, c_star_integral)
    reference = reference_sampler(cfg, c_star, c_star_integral)
    rng = np.random.default_rng([cfg.seed, 1])
    reference_rng = np.random.default_rng([cfg.seed, 1])
    k = 2 * core._STACK_CHUNK + 3
    observations, optimal_choices = sampler(rng, k)
    for obs, optimal in zip(observations, optimal_choices):
        expected = reference(reference_rng)
        X, Y = obs.feasible_set, expected.feasible_set
        assert (X.num_nodes, X.arcs) == (Y.num_nodes, Y.arcs)
        assert obs.agent_choice.tobytes() == expected.agent_choice.tobytes()
        assert optimal.tobytes() == argmax(Y, c_star).maximizer.tobytes()
    assert rng.random(4).tobytes() == reference_rng.random(4).tobytes()


def test_sampler_out_of_retries_raises(monkeypatch):
    monkeypatch.setattr(generate, "RETRY_CAP", 40)
    cfg = build_config({}, seed=3, rounds=1, family="random-vertices", dimension=4,
                       num_vertices=6, gap_mode="margin", gap_margin=50.0,
                       holdout=300)
    c_star, c_star_integral = generate.draw_objective(cfg)
    sampler = generate.make_observation_sampler(cfg, c_star, c_star_integral)
    with pytest.raises(generate.GenerationFailedError):
        offline_evaluate(c_star, c_star, sampler, 300, 1)
    with pytest.raises(generate.GenerationFailedError):
        sampler(np.random.default_rng(1), 1)


def test_offline_evaluate_solves_only_c_bar(monkeypatch):
    # the sampler's optimal choices are the reference answers, so each
    # chunk of samples is solved once, for c_bar
    cfg = build_config({}, seed=13, rounds=1, family="random-vertices",
                       dimension=3, num_vertices=5)
    c_star, c_star_integral = generate.draw_objective(cfg)
    sampler = generate.make_observation_sampler(cfg, c_star, c_star_integral)
    calls = []

    def counting(sets, c):
        calls.append(len(sets))
        return argmax_many(sets, c)

    monkeypatch.setattr(oracle, "argmax_many", counting)
    offline_evaluate(np.ones(3) / 3.0, c_star, sampler, 700, 1)
    assert calls == [256, 256, 188]
    # the holdout is chunked by the one chunk constant, read at call time
    monkeypatch.setattr(core, "_STACK_CHUNK", 300)
    calls.clear()
    offline_evaluate(np.ones(3) / 3.0, c_star, sampler, 700, 1)
    assert calls == [300, 300, 100]


def certificate_fields(certificate):
    """Everything a certificate holds but the last set's weak reference."""
    witness, last = certificate.witness, certificate.last
    return (
        certificate.satisfied,
        certificate.delta,
        certificate.rounds,
        None if last is None else last[1:],
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
    # another set, the pair's choice bytes, margin 1.1: a margin reused by
    # choice bytes alone would leave delta at 1.5
    narrow = (ExplicitVertices([[1.0, 0.0], [0.0, 0.9]]), [1.0, 0.0])
    cases = {
        "repeated": [best] * 6 + [single] * 2,
        "alternating": [pair, pair, best, best, pair, single, single, pair],
        "same-choice": [pair, pair, narrow, narrow, pair],
        # the square again with another choice: a margin reused by set
        # alone would certify the stream
        "suboptimal-late": [best] * 4 + [(SQUARE, [0.0, 0.0])] + [best] * 2,
    }
    for name, rounds in cases.items():
        observations = [Observation(X, x) for X, x in rounds]
        path = tmp_path / f"{name}.txt"
        write_stream(path, observations, c_star)
        reloaded, _ = read_stream(path)
        for norms in (LINF, NormPair.l2_l2()):
            mine = certify_gap(observations, c_star, norms)
            fresh = certify_gap(reloaded, c_star, norms)
            assert certificate_fields(mine) == certificate_fields(fresh), name
    streams = {name: [Observation(X, x) for X, x in rounds]
               for name, rounds in cases.items()}
    # delta is the running minimum of each prefix's margins
    alternating = streams["alternating"]
    assert [certify_gap(alternating[:t], c_star, LINF).delta
            for t in range(1, 9)] == [1.5, 1.5, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]
    assert certify_gap(alternating[5:7], c_star, LINF).delta == math.inf
    same_choice = certify_gap(streams["same-choice"], c_star, LINF)
    assert (same_choice.delta, same_choice.rounds) == (pytest.approx(1.1), 5)
    late = certify_gap(streams["suboptimal-late"], c_star, LINF)
    assert not late.satisfied and late.delta is None
    assert (late.witness.round_index, late.witness.reason) == (5, "agent-suboptimal")
    # each of these, certified a round at a time, carries the last margin
    for name, stream in streams.items():
        whole = certificate_fields(certify_gap(stream, c_star, LINF))
        assert certificate_fields(chunk_certificates(stream, c_star, 1)) == whole, name


def chunk_certificates(observations, c_star, step):
    """certify_gap of each chunk of step rounds in turn, each from the
    certificate of the chunks before, as a run certifies its chunks."""
    certificate = None
    for start in range(0, len(observations), step):
        certificate = certify_gap(observations[start:start + step], c_star, LINF,
                                  before=certificate)
    return certificate


def test_chunk_certificates_join_to_the_whole_stream_certificate():
    _, bundle, _ = small_run(seed=5, rounds=40, gap="integral", dimension=4)
    observations = list(bundle.observations)
    # an agent that picks a suboptimal member at round 24
    X, best = observations[23].feasible_set, observations[23].agent_choice
    wrong = next(m for m in X.members() if m.tobytes() != best.tobytes())
    failing = observations[:23] + [Observation(X, wrong)] + observations[24:]
    assert certify_gap(failing, bundle.c_star, LINF).witness.round_index == 24
    for stream in (observations, failing):
        whole = certificate_fields(certify_gap(stream, bundle.c_star, LINF))
        for step in (1, 7, 40):
            chained = chunk_certificates(stream, bundle.c_star, step)
            assert certificate_fields(chained) == whole, step


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


# The whole-run learner and ledger against the round-by-round arithmetic
# they replaced.


def bits(value):
    return np.float64(value).tobytes()


def assert_ledger_matches_appends(ledger, observations, references):
    """Every column of the ledger, the columns learner.play fills for the
    whole stream, the averaged prediction and the final state equal the
    reference's observe and append, round by round."""
    run = ledger.learner
    start = init_learner(run.domain, run.schedule, run.K)
    state, reference = simulate_by_rounds(ledger.c_star, start, observations, references)
    whole, played = play(start, observations)
    norms = run.norms
    arrays = ledger.columns
    for t, obs in enumerate(observations):
        # the played arithmetic and both loss columns, per round with
        # np.dot, zero-gradient rounds included
        x = obs.agent_choice
        g = played["x_hat"][t] - x + 0.0
        assert played["g"][t].tobytes() == g.tobytes()
        assert bits(arrays["grad_norm"][t]) == bits(norms.primal(g))
        assert bits(arrays["ell_sub"][t]) == bits(np.dot(played["c_hat"][t], g))
        est = estimate_loss(ledger.c_star, x, played["x_hat"][t])  # one np.dot
        assert bits(arrays["ell_est"][t]) == bits(est)
    assert sorted(arrays) == sorted(LEDGER_COLUMNS)
    assert ledger.rounds == len(observations)
    for name, expected in reference.arrays().items():
        actual = played[name] if name in PLAYED_COLUMNS else arrays[name]
        assert actual.tobytes() == expected.tobytes(), name
        assert actual.shape == expected.shape, name
    averaged = as_vector(reference.c_hat_sum / len(observations))
    assert ledger.average_prediction().tobytes() == averaged.tobytes()
    assert bits(ledger.max_grad_norm) == bits(reference.max_grad_norm)
    assert bits(ledger.max_dual_distance) == bits(reference.max_dual_distance)
    for final in (run, whole):
        for name in ("grad_sum", "current_prediction"):
            assert getattr(final, name).tobytes() == getattr(state, name).tobytes(), name
        assert bits(final.sq_norm_sum) == bits(state.sq_norm_sum)


def test_running_sums_start_from_zero_like_an_accumulator():
    from invlinopt.analysis import _running

    sums = _running(np.array([-0.0, 1.0, -0.0]))
    # 0.0 + (-0.0) is +0.0, as the first step of a loop from 0.0 gives
    assert sums.tobytes() == np.array([0.0, 1.0, 1.0]).tobytes()
    assert _running(np.array([])).size == 0
    # a later chunk goes on from the carried last sum, to the same bits
    values = np.random.default_rng(3).normal(size=100)
    whole = _running(values)
    split = np.concatenate([_running(values[:37]), _running(values[37:], whole[36])])
    assert split.tobytes() == whole.tobytes()


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
    ledger = simulate(bundle)
    played = played_columns(cfg, bundle.observations)
    zero = np.count_nonzero(~played["g"].any(axis=1))
    assert 0 < zero < ledger.rounds  # both kinds of round occur
    if "ball" in name:
        # negative prediction and truth entries make -0.0 products on zero
        # rounds, and the estimate loss takes both signs
        assert (played["c_hat"] < 0.0).any()
        assert (ledger.c_star < 0.0).any()
        ell_est = ledger.columns["ell_est"]
        assert (ell_est < 0.0).any() and (ell_est > 0.0).any()
    assert_ledger_matches_appends(ledger, bundle.observations, bundle.optimal_choices)
    # a caller's replay of other observations solves its own references
    other = generate_instance_stream(build_config({}, seed=24, rounds=400,
                                                  **LEDGER_RUNS[name]))
    replayed = simulate(bundle._replace(
        observations=other.observations, optimal_choices=argmax_many(
            [obs.feasible_set for obs in other.observations], bundle.c_star)))
    references = [argmax(obs.feasible_set, bundle.c_star).maximizer
                  for obs in other.observations]
    assert_ledger_matches_appends(replayed, other.observations, references)
    # and references of another length are refused
    with pytest.raises(ValueError, match="differ in length"):
        simulate(bundle._replace(optimal_choices=bundle.optimal_choices[1:]))


def _short(flags, rounds=300, seed=7):
    return lambda: generate_instance_stream(build_config({}, seed=seed, rounds=rounds, **flags))


def _carried(name):
    def bundle():
        sets, choices = CARRIED_STREAMS[name](np.random.default_rng(36))
        cfg = build_config({}, seed=36, dimension=sets[0].dimension, rounds=len(sets))
        c_star, _ = draw_objective(cfg)
        observations = tuple(Observation(X, x) for X, x in zip(sets, choices))
        return StreamBundle(cfg, c_star, None, observations, argmax_many(sets, c_star))
    return bundle


# the benchmark's three workloads at short horizons, a ball/offset run and
# the streams on which the learner carries its answer
REFERENCE_STREAMS = {
    "rv-online": _short(dict(family="random-vertices", dimension=10, num_vertices=32)),
    "knapsack-gap-repeat": _short(dict(family="knapsack", dimension=12,
                                       gap_mode="integral", fresh_sets=False), 200),
    "dag-noisy-holdout": _short(dict(family="dag", dimension=10, domain="ball",
                                     schedule="offset", agent_noise=0.1)),
    "knapsack-ball-offset": _short(dict(family="knapsack", dimension=8,
                                        domain="ball", schedule="offset")),
    **{name: _carried(name) for name in CARRIED_STREAMS},
}


@pytest.mark.parametrize("name", sorted(REFERENCE_STREAMS))
def test_simulate_matches_the_round_by_round_reference(name, monkeypatch):
    bundle = REFERENCE_STREAMS[name]()
    solves, argmax_of = [0], oracle.argmax

    def counting(X, c):
        solves[0] += 1
        return argmax_of(X, c)

    monkeypatch.setattr(oracle, "argmax", counting)
    played = played_columns(bundle.config, bundle.observations)
    whole = solves[0]
    zero = np.count_nonzero(~played["g"].any(axis=1))
    assert 0 < zero < len(bundle.observations)  # both kinds of round occur
    # chunks of one round put every repeat of a set across a chunk
    # boundary; each chunking makes the same ledger and, carrying the last
    # answer across boundaries, as many oracle calls as one whole play
    for step in (1, 7, core._STACK_CHUNK):
        monkeypatch.setattr(core, "_STACK_CHUNK", step)
        solves[0] = 0
        ledger = simulate(bundle)
        assert solves[0] == whole, step
        assert_ledger_matches_appends(ledger, bundle.observations, bundle.optimal_choices)
