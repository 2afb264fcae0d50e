"""Learner closed forms, schedules, and state updates."""

import gc
import math
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invlinopt import (
    ADAPTIVE,
    OFFSET,
    Ball,
    DimensionMismatchError,
    ExplicitVertices,
    Hypercube,
    Knapsack,
    NormPair,
    Observation,
    PredictionDomain,
    Simplex,
    argmax,
    init_learner,
    play,
)
from invlinopt import learner, oracle
from invlinopt.core import as_vector, tolerance
from invlinopt.harness.cli import main

import test_golden
from conftest import CARRIED_STREAMS
from reference import Round, beta, ftrl_residual, in_domain, observe, predict


def regularizer_value(domain, c):
    """Reference objective: the domain's regularizer at c (0 * log 0 reads as 0)."""
    c = np.asarray(c, dtype=np.float64)
    if isinstance(domain, Simplex):
        return float(np.sum(np.where(c > 0.0, c * np.log(np.where(c > 0.0, c, 1.0)), 0.0)))
    assert isinstance(domain, Ball)
    return 0.5 * float(np.linalg.norm(c - domain.center)) ** 2


def played_beta(state):
    """The learner's beta for the upcoming round: the first entry of the
    beta column of a one-round run, which equals the reference's."""
    n = state.domain.dimension
    _, played = play(state, [Observation(Hypercube(n), np.zeros(n))])
    assert played["beta"][0] == beta(state)
    return float(played["beta"][0])


def test_beta_adaptive_zero_before_first_gradient():
    state = init_learner(Simplex(2), ADAPTIVE, 1.0)
    assert played_beta(state) == 0.0


def test_beta_offset_example():
    # K=1, H=sqrt(ln 2), lam=1, empty sum of squared norms
    state = init_learner(Simplex(2), OFFSET, 1.0)
    expected = 1.0 / math.sqrt(math.log(2.0))
    assert abs(played_beta(state) - expected) < 1e-12
    assert abs(played_beta(state) - 1.2011224087864498) < 1e-12


def test_beta_adaptive_example():
    state = init_learner(Simplex(2), ADAPTIVE, 1.0)  # B = 2^{11/4} sqrt(ln 2)
    state = state._replace(sq_norm_sum=4.0)
    expected = 2.0 ** 0.25 * 2.0 / state.B
    assert abs(played_beta(state) - expected) < 1e-15


def test_first_prediction_is_regularizer_minimizer():
    state = init_learner(Simplex(3), ADAPTIVE, 1.0)
    assert np.array_equal(state.current_prediction, np.full(3, 1.0 / 3.0))
    center = np.array([3.0, 0.0])
    ball_state = init_learner(
        Ball(center, 1.0), ADAPTIVE, 1.0
    )
    assert np.array_equal(ball_state.current_prediction, center)


def test_symmetric_gradients_give_uniform():
    state = init_learner(Simplex(2), OFFSET, 1.0)
    state = state._replace(grad_sum=np.zeros(2))
    assert tuple(predict(state)) == (0.5, 0.5)


def test_softmax_closed_form_against_grid():
    # offset schedule with K = 1 and no history: beta = 1 / H = 1 / sqrt(ln 2)
    state = init_learner(Simplex(2), OFFSET, 1.0)
    b = beta(state)
    assert b == 1.0 / math.sqrt(math.log(2.0))
    G = np.asarray([1.0, 0.0])
    state = state._replace(grad_sum=G)
    got = predict(state)
    e = math.exp(1.0 / b)
    expected = np.array([1.0, e]) / (1.0 + e)  # softmax of -G / beta
    assert np.allclose(got, expected, atol=1e-12)

    # independent oracle: dense grid search over the simplex edge
    p = np.linspace(1e-9, 1.0 - 1e-9, 200001)
    grid = np.stack([p, 1.0 - p], axis=1)
    objective = b * np.sum(grid * np.log(grid), axis=1) + grid @ G
    got_objective = float(b * np.sum(got * np.log(got)) + got @ G)
    assert got_objective <= float(objective.min()) + 1e-9


def test_closed_form_beats_simplex_grid_n3():
    rng = np.random.default_rng(35)
    domain = Simplex(3)
    # barycentric lattice with step 1/250
    h = np.linspace(1e-9, 1.0 - 2e-9, 251)
    p1, p2 = np.meshgrid(h, h)
    keep = p1 + p2 <= 1.0 - 1e-9
    grid = np.stack([p1[keep], p2[keep], 1.0 - p1[keep] - p2[keep]], axis=1)
    grid = np.maximum(grid, 1e-12)
    for _ in range(5):
        state = init_learner(domain, OFFSET, 1.0)
        state = state._replace(grad_sum=rng.standard_normal(3), sq_norm_sum=1.0)
        b = beta(state)
        pred = predict(state)
        grid_objective = b * np.sum(grid * np.log(grid), axis=1) + grid @ state.grad_sum
        pred_objective = b * regularizer_value(domain, pred) + float(
            state.grad_sum @ pred
        )
        assert pred_objective <= float(grid_objective.min()) + tolerance(pred_objective)


def test_prediction_objective_beats_random_candidates():
    rng = np.random.default_rng(30)
    for n in (2, 3, 6):
        domain = Simplex(n)
        state = init_learner(domain, OFFSET, 1.0)
        state = state._replace(grad_sum=rng.standard_normal(n), sq_norm_sum=2.0)
        b = beta(state)
        pred = predict(state)

        def objective(c):
            return b * regularizer_value(domain, c) + float(state.grad_sum @ c)

        best = objective(pred)
        for _ in range(1000):
            candidate = domain.sample(rng)
            assert best <= objective(candidate) + tolerance(best)


def test_ball_prediction_objective_and_projection():
    rng = np.random.default_rng(31)
    center = np.full(3, 2.0 / math.sqrt(3.0))
    domain = Ball(center, 1.0)
    for _ in range(20):
        state = init_learner(domain, OFFSET, 1.0)
        state = state._replace(
            grad_sum=rng.standard_normal(3) * 5.0,
            sq_norm_sum=float(rng.random()),
        )
        pred = predict(state)
        assert in_domain(domain, pred)
        b = beta(state)

        def objective(c):
            return b * regularizer_value(domain, c) + float(state.grad_sum @ c)

        best = objective(pred)
        for _ in range(300):
            assert best <= objective(domain.sample(rng)) + tolerance(best)
    # a long step lands exactly on the sphere
    state = init_learner(domain, OFFSET, 1.0)
    state = state._replace(grad_sum=np.asarray([50.0, 0.0, 0.0]))
    pred = predict(state)
    assert abs(np.linalg.norm(pred - center) - 1.0) <= 1e-12


def test_exponentiated_gradient_equivalence():
    # the simplex solution is exactly the softmax / multiplicative-weights form
    rng = np.random.default_rng(32)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        state = init_learner(Simplex(n), OFFSET, 1.0)
        state = state._replace(
            grad_sum=rng.standard_normal(n), sq_norm_sum=float(rng.random())
        )
        b = beta(state)
        weights = np.exp(-state.grad_sum / b)
        assert np.allclose(predict(state), weights / weights.sum(), atol=1e-12)


def _step(state, vertices, choice):
    """One round on an explicit vertex set: the next state and the round's
    entries of each column."""
    state, played = play(state, [Observation(ExplicitVertices(vertices), choice)])
    return state, Round(*(played[name][0] for name in Round._fields))


def test_zero_gradient_holds_prediction_bitwise():
    state = init_learner(Simplex(2), ADAPTIVE, 1.0)
    # agent picks the prediction's own argmax, so the gradient is zero
    x_hat = argmax(ExplicitVertices([[1.0, 0.0], [0.0, 1.0]]), state.current_prediction)
    state2, record = _step(state, [[1.0, 0.0], [0.0, 1.0]], x_hat.maximizer)
    assert record.g.tobytes() == np.zeros(2).tobytes() and record.grad_norm == 0.0
    assert state2.current_prediction.tobytes() == state.current_prediction.tobytes()
    assert state2.sq_norm_sum == state.sq_norm_sum


def test_squared_norm_accumulation():
    # sup-norm: g = (-1, 1) adds 1
    state = init_learner(Simplex(2), ADAPTIVE, 1.0)
    state2, record = _step(state, [[1.0, 0.0], [0.0, 1.0]], [1.0, 0.0])
    assert tuple(record.g) == (-1.0, 1.0)
    assert state2.sq_norm_sum == 1.0
    # euclidean: the same residual adds 2
    center = np.full(2, math.sqrt(2.0))
    ball_state = init_learner(
        Ball(center, 1.0), ADAPTIVE, math.sqrt(2.0)
    )
    ball_state2, ball_record = _step(ball_state, [[1.0, 0.0], [0.0, 1.0]], [1.0, 0.0])
    assert tuple(ball_record.g) == (-1.0, 1.0)
    assert abs(ball_state2.sq_norm_sum - 2.0) < 1e-12


# finite float64 entries: any finite double, and magnitudes from 1e-100 to
# 1e100, the ball radii a config accepts, so squares underflow and overflow
NORM_ENTRIES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.builds(lambda m, e: m * 10.0 ** e, st.floats(-10.0, 10.0), st.integers(-100, 100)),
)


def _solved_with_linalg_norm(domain, grad_sum, b):
    """learner._solve on a ball as first written, with np.linalg.norm."""
    step = domain.center - grad_sum / b
    offset = step - domain.center
    norm = float(np.linalg.norm(offset))
    if norm > domain.radius:
        step = domain.center + offset * (domain.radius / norm)
    return step + 0.0


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_norms_are_bitwise_numpys(data):
    # NormPair.primal and the ball projection take a norm as the square
    # root of one dot and the sup norm as abs(v).max(): bitwise the numpy
    # functions they replace
    n = data.draw(st.integers(1, 12))
    v = data.draw(st.lists(NORM_ENTRIES, min_size=n, max_size=n).map(np.array))
    # strided and reversed views sum their squares in numpy's order too
    spaced = np.zeros(2 * n)
    spaced[::2] = v
    for view in (v, spaced[::2], v[::-1]):
        with np.errstate(over="ignore"):  # a square past the largest double
            assert (NormPair.l2_l2().primal(view).hex()
                    == float(np.linalg.norm(view)).hex())
        assert NormPair.linf_l1().primal(view).hex() == float(np.max(np.abs(view))).hex()
    radius = 10.0 ** data.draw(st.floats(-100.0, 100.0))
    ball = Ball(np.full(n, 2.0 * radius / math.sqrt(n)), radius)
    # grad_sum / b and the offset stay finite
    grad_sum = np.clip(v, -1e100, 1e100)
    b = data.draw(st.floats(1e-3, 1e3))
    solved = learner._solve(ball, grad_sum, b)
    assert solved.tobytes() == _solved_with_linalg_norm(ball, grad_sum, b).tobytes()


def test_beta_monotone_and_predictions_feasible():
    rng = np.random.default_rng(33)
    for schedule in (ADAPTIVE, OFFSET):
        domain = Simplex(3)
        start = init_learner(domain, schedule, 1.0)
        observations = []
        for t in range(40):
            vertices = rng.integers(0, 2, size=(5, 3)).astype(float)
            X = ExplicitVertices(vertices)
            choice = X.members()[int(rng.integers(0, X.members().shape[0]))]
            observations.append(Observation(X, choice))
        state, played = play(start, observations)
        betas = played["beta"]
        # each round's beta is the scale before its update
        assert betas[0] == beta(start)
        assert np.all(np.diff(betas) >= 0.0) and beta(state) >= betas[-1]
        assert all(in_domain(domain, c) for c in played["c_hat"])
        assert in_domain(domain, state.current_prediction)


def test_record_contents():
    state = init_learner(Simplex(2), ADAPTIVE, 1.0)
    _, record = _step(state, [[1.0, 0.0], [0.0, 1.0]], [1.0, 0.0])
    assert record.beta == 0.0
    # the learner answers its own uniform prediction, under which both
    # vertices tie, with the lexicographically smallest one
    assert tuple(record.x_hat) == (0.0, 1.0)
    assert tuple(record.g) == (-1.0, 1.0)
    assert record.grad_norm == 1.0
    _, played = play(state, [Observation(Hypercube(2), [1.0, 0.0])] * 3)
    assert sorted(played) == ["beta", "c_hat", "g", "grad_norm", "x_hat"]
    assert [played[name].shape for name in Round._fields] == \
        [(3, 2), (3, 2), (3, 2), (3,), (3,)]
    assert not any(column.flags.writeable for column in played.values())
    # an empty stream plays no round and keeps the state's values
    final, empty = play(state, [])
    assert [empty[name].shape for name in Round._fields] == \
        [(0, 2), (0, 2), (0, 2), (0,), (0,)]
    assert final.current_prediction is state.current_prediction
    assert final.grad_sum.tobytes() == state.grad_sum.tobytes()


def test_play_rejects_a_set_of_another_dimension():
    state = init_learner(Simplex(2), ADAPTIVE, 1.0)
    obs = Observation(ExplicitVertices([[1.0, 0.0, 0.0]]), [1.0, 0.0, 0.0])
    with pytest.raises(DimensionMismatchError):
        play(state, [obs])


def test_a_set_of_another_dimension_mid_chunk_is_refused_as_argmax_refuses_it():
    # two zero rounds check the prediction and keep it; the third set is
    # solved under that checked prediction and must still be refused
    state = init_learner(Simplex(2), ADAPTIVE, 1.0)
    wide = ExplicitVertices([[1.0, 0.0, 0.0]])
    observations = [Observation(Hypercube(2), [1.0, 1.0]),
                    Observation(Knapsack([1, 1], 1), [1.0, 0.0]),
                    Observation(wide, [1.0, 0.0, 0.0])]
    _, played = play(state, observations[:2])
    assert not played["g"].any()
    with pytest.raises(DimensionMismatchError) as expected:
        argmax(wide, state.current_prediction)
    with pytest.raises(DimensionMismatchError) as got:
        play(state, observations)
    assert str(got.value) == str(expected.value)


@pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_a_non_finite_prediction_is_refused_on_the_first_round_that_solves(entry):
    X, Y = Knapsack([1, 1], 1), Hypercube(2)
    prediction = np.array([entry, 1.0])
    start = init_learner(Simplex(2), ADAPTIVE, 1.0)._replace(current_prediction=prediction)
    with pytest.raises(ValueError) as expected:
        argmax(X, prediction)
    with pytest.raises(ValueError) as got:
        play(start, [Observation(X, [1.0, 0.0])])
    assert str(got.value) == str(expected.value) == "objective entries must be finite"
    # a first round that reuses the carried answer solves nothing; the
    # round after it, facing another set, is refused
    carried = start._replace(last_answer=(weakref.ref(X), prediction, as_vector([1.0, 0.0])))
    play(carried, [Observation(X, [1.0, 0.0])])
    with pytest.raises(ValueError, match="objective entries must be finite"):
        play(carried, [Observation(X, [1.0, 0.0]), Observation(Y, [1.0, 1.0])])


def test_an_empty_chunk_keeps_the_last_answer():
    X = Knapsack([1, 1], 1)
    state, _ = play(init_learner(Simplex(2), ADAPTIVE, 1.0), [Observation(X, [1.0, 0.0])])
    assert state.last_answer is not None
    final, _ = play(state, [])
    assert final.last_answer is state.last_answer
    # and the piece after it still reuses the answer
    _, played = play(final, [Observation(X, [1.0, 0.0])])
    assert tuple(played["x_hat"][0]) == (1.0, 0.0)


def test_a_played_chunk_keeps_no_vertex_block_alive():
    # every round is a zero round, so the state keeps its last answer, and
    # the answer of a vertex set is a view of the block its rows are in
    rng = np.random.default_rng(40)
    block = rng.random((6, 5, 3))
    held = weakref.ref(block)
    sets = ExplicitVertices._from_block(block)
    del block
    state = init_learner(Simplex(3), ADAPTIVE, 1.0)
    observations = [Observation(X, argmax(X, state.current_prediction).maximizer)
                    for X in sets]
    state, played = play(state, observations)
    assert not played["g"].any() and state.last_answer is not None
    del sets, observations
    gc.collect()
    assert held() is None


def test_config_validation():
    with pytest.raises(ValueError, match="dimension >= 2"):
        init_learner(Simplex(1), ADAPTIVE, 1.0)
    with pytest.raises(TypeError):
        init_learner(PredictionDomain(), ADAPTIVE, 1.0)
    with pytest.raises(ValueError):
        init_learner(Simplex(2), "doubling", 1.0)
    for K in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="K must be positive and finite"):
            init_learner(Simplex(2), ADAPTIVE, K)


@settings(max_examples=60, deadline=None)
@given(
    domain=st.one_of(
        st.integers(2, 64).map(Simplex),
        st.floats(1e-6, 1e6).map(lambda r: Ball([3.0 * r, 0.0], r)),
    )
)
def test_derived_constants_meet_the_bound_inequalities(domain):
    """B^2 >= 2^{5/2} (dual diameter)^2, B^2 >= value range, H^2 >= value range.

    The diameter and range are the regularizer's own: the simplex has l1
    diameter 2 and entropy range ln n; a ball of radius r has diameter 2r
    and half-squared-norm range r^2 / 2.
    """
    state = init_learner(domain, ADAPTIVE, 1.0)
    if isinstance(domain, Simplex):
        diameter, value_range = 2.0, math.log(domain.dimension)
    else:
        diameter, value_range = 2.0 * domain.radius, 0.5 * domain.radius ** 2
    b_sq = state.B ** 2
    # the ball's B and H meet the first and last inequality with equality
    slack = 1e-12 * (1.0 + b_sq)
    assert b_sq + slack >= 2.0 ** 2.5 * diameter ** 2
    assert b_sq + slack >= value_range
    assert state.H ** 2 + slack >= value_range


def test_predict_matches_stored_prediction():
    rng = np.random.default_rng(34)
    state = init_learner(Simplex(3), OFFSET, 1.0)
    for _ in range(10):
        vertices = rng.integers(0, 2, size=(4, 3)).astype(float)
        X = ExplicitVertices(vertices)
        choice = X.members()[0]
        state, _ = play(state, [Observation(X, choice)])
        assert predict(state).tobytes() == state.current_prediction.tobytes()


@pytest.mark.parametrize("stream", sorted(CARRIED_STREAMS))
def test_carried_answer_gives_the_records_of_a_solve_every_round(stream, monkeypatch):
    sets, choices = CARRIED_STREAMS[stream](np.random.default_rng(36))
    n = sets[0].dimension
    start = init_learner(Simplex(n), ADAPTIVE, 1.0)
    observations = [Observation(X, x) for X, x in zip(sets, choices)]
    # the reference solves every round
    expected, records = start, []
    for obs in observations:
        expected, record = observe(expected, obs)
        records.append(record)
    calls = []
    solve = oracle._solve
    monkeypatch.setattr(oracle, "_solve", lambda X, c: calls.append(X) or solve(X, c))
    state, played = play(start, observations)
    for name in Round._fields:
        column = np.array([getattr(r, name) for r in records], dtype=np.float64)
        assert played[name].tobytes() == column.tobytes(), name
    for name in ("grad_sum", "current_prediction"):
        assert getattr(state, name).tobytes() == getattr(expected, name).tobytes()
    assert state.sq_norm_sum == expected.sq_norm_sum
    # some rounds reused the carried answer, and the learner's answer moved,
    # so a stale carried answer would show
    answers = {row.tobytes() for row in played["x_hat"]}
    assert len(calls) < len(observations) and len(answers) > 1


def test_replaced_prediction_is_solved_afresh():
    X = Knapsack([1, 1], 1)
    state = init_learner(Simplex(2), ADAPTIVE, 1.0)
    # the agent picks the learner's own answer: a zero round that keeps the
    # prediction object; nothing of the answer carries into the next run
    state, played = play(state, [Observation(X, [1.0, 0.0])])
    assert tuple(played["x_hat"][0]) == (1.0, 0.0) and not played["g"].any()
    state = state._replace(current_prediction=as_vector([0.2, 0.8]))
    _, played = play(state, [Observation(X, [0.0, 1.0])])
    assert tuple(played["x_hat"][0]) == (0.0, 1.0)


def test_a_piece_after_its_set_was_freed_calls_the_oracle(monkeypatch):
    # a zero round leaves its answer in the state, its set held weakly
    X = Knapsack([1, 1], 1)
    state = init_learner(Simplex(2), ADAPTIVE, 1.0)
    state, played = play(state, [Observation(X, [1.0, 0.0])])
    assert tuple(played["x_hat"][0]) == (1.0, 0.0) and not played["g"].any()
    calls = []
    solve = oracle._solve
    monkeypatch.setattr(oracle, "_solve", lambda X, c: calls.append(X) or solve(X, c))
    # while the set lives, the next piece facing it reuses the answer
    state, _ = play(state, [Observation(X, [1.0, 0.0])])
    assert calls == []
    # once it is freed, the state keeps nothing of it, and a piece facing
    # another set under the same prediction solves that set
    freed = weakref.ref(X)
    del X
    gc.collect()
    assert freed() is None
    Y = Knapsack([1, 1], 0)
    _, played = play(state, [Observation(Y, [0.0, 0.0])])
    assert calls == [Y]
    assert tuple(played["x_hat"][0]) == (0.0, 0.0)


# Every golden config, and each benchmark workload's shape at a shorter
# horizon: (CLI seed, rounds, holdout).  At the knapsack workload's default
# seed the first prediction already answers every round; at seed 30 the
# learner moves.
SHORTER_WORKLOADS = {
    "rv-online": (7, 1_000, 0),
    "knapsack-gap-repeat": (30, 600, 0),
    "dag-noisy-holdout": (7, 500, 100),
}


def ftrl_configs(out):
    configs = {name: ["run", *argv, "--out", str(out / name)]
               for name, argv in test_golden.CONFIGS.items()}
    for name, (seed, rounds, holdout) in SHORTER_WORKLOADS.items():
        workload = test_golden.WORKLOADS.WORKLOADS[name]
        configs[name] = workload.argv(seed, out / name, rounds, holdout)
    return configs


FTRL_CONFIG_NAMES = sorted(ftrl_configs(Path()))


def largest_ftrl_residual(argv, monkeypatch) -> float:
    """The largest residual of any chunk a CLI run plays, each checked
    against the learner state before it."""
    played = learner.play
    worst = 0.0

    def checked(state, observations):
        nonlocal worst
        final, columns = played(state, observations)
        worst = max(worst, *ftrl_residual(state, columns))
        return final, columns

    with monkeypatch.context() as patch:
        patch.setattr(learner, "play", checked)
        main(argv)
    return worst


@pytest.mark.parametrize("name", FTRL_CONFIG_NAMES)
def test_each_prediction_is_the_regularized_leader(name, tmp_path, monkeypatch, capsys):
    argv = ftrl_configs(tmp_path)[name]
    assert largest_ftrl_residual(argv, monkeypatch) <= 1e-12


_solve, _beta = learner._solve, learner._beta
WRONG_LEARNERS = {
    "frozen": ("_solve", lambda domain, G, b: learner._minimizer_of_regularizer(domain)),
    "sign-flipped": ("_solve", lambda domain, G, b: _solve(domain, -G, b)),
    "steps x100": ("_solve", lambda domain, G, b: _solve(domain, G, b / 100.0)),
    "steps x0.01": ("_solve", lambda domain, G, b: _solve(domain, G, b * 100.0)),
    # a wrong schedule solves for the beta it reports, so only the
    # schedule's residual sees it
    "scheduled steps x100": ("_beta", lambda state, s: _beta(state, s) / 100.0),
    "scheduled steps x0.01": ("_beta", lambda state, s: _beta(state, s) * 100.0),
}


@pytest.mark.parametrize("name", sorted(WRONG_LEARNERS))
def test_a_wrong_learner_is_not_the_regularized_leader(name, tmp_path, monkeypatch, capsys):
    attribute, wrong = WRONG_LEARNERS[name]
    monkeypatch.setattr(learner, attribute, wrong)
    configs = ftrl_configs(tmp_path)
    residuals = {}
    for config in FTRL_CONFIG_NAMES:
        residuals[config] = largest_ftrl_residual(configs[config], monkeypatch)
        if residuals[config] > 1e-3:
            break
    assert max(residuals.values()) > 1e-3, residuals


def test_an_underflowed_entry_is_checked_as_an_inequality():
    # a long run can push a softmax entry below the float range; its log is
    # not taken, and the exponent the other entries imply must be below too
    start = init_learner(Simplex(3), ADAPTIVE, 1.0)
    state = start._replace(sq_norm_sum=1.0, grad_sum=as_vector([0.0, 1000.0, 0.0]))
    b = learner._beta(state, 1.0)
    c_hat = learner._solve(state.domain, state.grad_sum, b)
    played = {"c_hat": c_hat[None, :], "g": np.zeros((1, 3)),
              "beta": np.array([b]), "grad_norm": np.zeros(1)}
    assert c_hat[1] == 0.0
    assert max(ftrl_residual(state, played)) <= 1e-12
    # the same zero where the leader's entry is near 1e-258
    nearer = state._replace(grad_sum=as_vector([0.0, 100.0, 0.0]))
    assert max(ftrl_residual(nearer, played)) > 1e-3
