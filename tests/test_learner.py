"""Learner closed forms, schedules, and state updates."""

import math
from dataclasses import replace

import numpy as np
import pytest

from invlinopt import (
    ADAPTIVE,
    OFFSET,
    Ball,
    ExplicitVertices,
    Observation,
    RegularizerConfig,
    Simplex,
    argmax,
    beta,
    init_learner,
    observe,
    predict,
)
from invlinopt.core import tolerance
from invlinopt.learner import HALF_SQUARED_NORM, NEGATIVE_ENTROPY, validate_config


def regularizer_value(config, domain, c):
    """Reference objective: the configured regularizer at c (0 * log 0 reads as 0)."""
    c = np.asarray(c, dtype=np.float64)
    if config.kind == NEGATIVE_ENTROPY:
        return float(np.sum(np.where(c > 0.0, c * np.log(np.where(c > 0.0, c, 1.0)), 0.0)))
    assert isinstance(domain, Ball)
    return 0.5 * float(np.linalg.norm(c - domain.center)) ** 2


def entropy_config(n, B=None, H=None, K=1.0):
    base = RegularizerConfig.for_simplex(n, K)
    if B is not None:
        base = replace(base, B=B)
    if H is not None:
        base = replace(base, H=H)
    return base


def test_beta_adaptive_zero_before_first_gradient():
    state = init_learner(Simplex(2), entropy_config(2), ADAPTIVE)
    assert beta(state) == 0.0


def test_beta_offset_example():
    # K=1, H=sqrt(ln 2), lam=1, empty sum of squared norms
    state = init_learner(Simplex(2), entropy_config(2), OFFSET)
    expected = 1.0 / math.sqrt(math.log(2.0))
    assert abs(beta(state) - expected) < 1e-12
    assert abs(beta(state) - 1.2011224087864498) < 1e-12


def test_beta_adaptive_example():
    config = entropy_config(2)  # B = 2^{11/4} sqrt(ln 2)
    state = init_learner(Simplex(2), config, ADAPTIVE)
    state = replace(state, sq_norm_sum=4.0)
    expected = 2.0 ** 0.25 * 2.0 / config.B
    assert abs(beta(state) - expected) < 1e-15


def test_first_prediction_is_regularizer_minimizer():
    state = init_learner(Simplex(3), entropy_config(3), ADAPTIVE)
    assert np.array_equal(state.current_prediction, np.full(3, 1.0 / 3.0))
    center = np.array([3.0, 0.0])
    ball_state = init_learner(
        Ball(center, 1.0), RegularizerConfig.for_ball(1.0, 1.0), ADAPTIVE
    )
    assert np.array_equal(ball_state.current_prediction, center)


def test_symmetric_gradients_give_uniform():
    state = init_learner(Simplex(2), entropy_config(2), OFFSET)
    state = replace(state, grad_sum=np.zeros(2))
    assert tuple(predict(state)) == (0.5, 0.5)


def test_softmax_closed_form_against_grid():
    # beta = 1 via the offset schedule with K = H = 1 and no history
    config = RegularizerConfig(NEGATIVE_ENTROPY, 1.0, 5.0, 1.0, 1.0)
    state = init_learner(Simplex(2), config, OFFSET)
    assert beta(state) == 1.0
    state = replace(state, grad_sum=np.asarray([1.0, 0.0]))
    got = predict(state)
    expected = np.array([1.0, math.e]) / (1.0 + math.e)  # softmax of -(1, 0)
    assert np.allclose(got, expected, atol=1e-12)
    assert abs(got[0] - 0.2689414213699951) < 1e-12

    # independent oracle: dense grid search over the simplex edge
    p = np.linspace(1e-9, 1.0 - 1e-9, 200001)
    grid = np.stack([p, 1.0 - p], axis=1)
    objective = np.sum(grid * np.log(grid), axis=1) + grid @ np.asarray([1.0, 0.0])
    got_objective = float(np.sum(got * np.log(got)) + got @ np.asarray([1.0, 0.0]))
    assert got_objective <= float(objective.min()) + 1e-9


def test_closed_form_beats_simplex_grid_n3():
    rng = np.random.default_rng(35)
    domain = Simplex(3)
    config = entropy_config(3)
    # barycentric lattice with step 1/250
    h = np.linspace(1e-9, 1.0 - 2e-9, 251)
    p1, p2 = np.meshgrid(h, h)
    keep = p1 + p2 <= 1.0 - 1e-9
    grid = np.stack([p1[keep], p2[keep], 1.0 - p1[keep] - p2[keep]], axis=1)
    grid = np.maximum(grid, 1e-12)
    for _ in range(5):
        state = init_learner(domain, config, OFFSET)
        state = replace(state, grad_sum=rng.standard_normal(3), sq_norm_sum=1.0)
        b = beta(state)
        pred = predict(state)
        grid_objective = b * np.sum(grid * np.log(grid), axis=1) + grid @ state.grad_sum
        pred_objective = b * regularizer_value(config, domain, pred) + float(
            state.grad_sum @ pred
        )
        assert pred_objective <= float(grid_objective.min()) + tolerance(pred_objective)


def test_prediction_objective_beats_random_candidates():
    rng = np.random.default_rng(30)
    for n in (2, 3, 6):
        domain = Simplex(n)
        config = entropy_config(n)
        state = init_learner(domain, config, OFFSET)
        state = replace(state, grad_sum=rng.standard_normal(n), sq_norm_sum=2.0)
        b = beta(state)
        pred = predict(state)

        def objective(c):
            return b * regularizer_value(config, domain, c) + float(state.grad_sum @ c)

        best = objective(pred)
        for _ in range(1000):
            candidate = domain.sample(rng)
            assert best <= objective(candidate) + tolerance(best)


def test_ball_prediction_objective_and_projection():
    rng = np.random.default_rng(31)
    center = np.full(3, 2.0 / math.sqrt(3.0))
    domain = Ball(center, 1.0)
    config = RegularizerConfig.for_ball(1.0, 1.0)
    for _ in range(20):
        state = init_learner(domain, config, OFFSET)
        state = replace(
            state,
            grad_sum=rng.standard_normal(3) * 5.0,
            sq_norm_sum=float(rng.random()),
        )
        pred = predict(state)
        assert domain.contains(pred)
        b = beta(state)

        def objective(c):
            return b * regularizer_value(config, domain, c) + float(state.grad_sum @ c)

        best = objective(pred)
        for _ in range(300):
            assert best <= objective(domain.sample(rng)) + tolerance(best)
    # a long step lands exactly on the sphere
    state = init_learner(domain, config, OFFSET)
    state = replace(state, grad_sum=np.asarray([50.0, 0.0, 0.0]))
    pred = predict(state)
    assert abs(np.linalg.norm(pred - center) - 1.0) <= 1e-12


def test_exponentiated_gradient_equivalence():
    # the simplex solution is exactly the softmax / multiplicative-weights form
    rng = np.random.default_rng(32)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        state = init_learner(Simplex(n), entropy_config(n), OFFSET)
        state = replace(
            state, grad_sum=rng.standard_normal(n), sq_norm_sum=float(rng.random())
        )
        b = beta(state)
        weights = np.exp(-state.grad_sum / b)
        assert np.allclose(predict(state), weights / weights.sum(), atol=1e-12)


def _step(state, vertices, choice, c_star=None):
    X = ExplicitVertices(vertices)
    obs = Observation(X, choice, state.round)
    x_hat = argmax(X, state.current_prediction).maximizer
    return observe(state, obs, x_hat, c_star=c_star)


def test_zero_gradient_holds_prediction_bitwise():
    state = init_learner(Simplex(2), entropy_config(2), ADAPTIVE)
    # agent picks the prediction's own argmax, so the gradient is zero
    x_hat = argmax(ExplicitVertices([[1.0, 0.0], [0.0, 1.0]]), state.current_prediction)
    state2, record = _step(state, [[1.0, 0.0], [0.0, 1.0]], x_hat.maximizer)
    assert np.all(record.g == 0.0)
    assert state2.current_prediction.tobytes() == state.current_prediction.tobytes()
    assert state2.sq_norm_sum == state.sq_norm_sum
    assert state2.round == state.round + 1


def test_squared_norm_accumulation():
    # sup-norm: g = (-1, 1) adds 1
    state = init_learner(Simplex(2), entropy_config(2), ADAPTIVE)
    state2, record = _step(state, [[1.0, 0.0], [0.0, 1.0]], [1.0, 0.0])
    assert tuple(record.g) == (-1.0, 1.0)
    assert state2.sq_norm_sum == 1.0
    # euclidean: the same residual adds 2
    center = np.full(2, math.sqrt(2.0))
    ball_state = init_learner(
        Ball(center, 1.0), RegularizerConfig.for_ball(1.0, math.sqrt(2.0)), ADAPTIVE
    )
    ball_state2, ball_record = _step(ball_state, [[1.0, 0.0], [0.0, 1.0]], [1.0, 0.0])
    assert tuple(ball_record.g) == (-1.0, 1.0)
    assert abs(ball_state2.sq_norm_sum - 2.0) < 1e-12


def test_beta_monotone_and_predictions_feasible():
    rng = np.random.default_rng(33)
    for schedule in (ADAPTIVE, OFFSET):
        domain = Simplex(3)
        state = init_learner(domain, entropy_config(3), schedule)
        last_beta = beta(state)
        for t in range(40):
            vertices = rng.integers(0, 2, size=(5, 3)).astype(float)
            X = ExplicitVertices(vertices)
            choice = X.members()[int(rng.integers(0, X.members().shape[0]))]
            obs = Observation(X, choice, state.round)
            x_hat = argmax(X, state.current_prediction).maximizer
            state, record = observe(state, obs, x_hat)
            assert record.beta == last_beta
            assert domain.contains(state.current_prediction)
            assert beta(state) >= last_beta
            last_beta = beta(state)


def test_record_contents_with_truth():
    state = init_learner(Simplex(2), entropy_config(2), ADAPTIVE)
    state2, record = _step(
        state, [[1.0, 0.0], [0.0, 1.0]], [1.0, 0.0], c_star=[0.6, 0.4]
    )
    assert record.t == 1
    assert record.ell_est is not None
    assert record.beta == 0.0
    no_truth_state = init_learner(Simplex(2), entropy_config(2), ADAPTIVE)
    _, record2 = _step(no_truth_state, [[1.0, 0.0], [0.0, 1.0]], [1.0, 0.0])
    assert record2.ell_est is None


def test_config_validation():
    with pytest.raises(ValueError):
        RegularizerConfig(NEGATIVE_ENTROPY, 2.0, 8.0, 1.0, 1.0)  # lam > 1
    with pytest.raises(ValueError):
        RegularizerConfig(NEGATIVE_ENTROPY, 1.0, -1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        RegularizerConfig("soft-plus", 1.0, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        RegularizerConfig.for_simplex(1, 1.0)
    with pytest.raises(ValueError):
        validate_config(Simplex(2), RegularizerConfig(NEGATIVE_ENTROPY, 1.0, 1.0, 1.0, 1.0))
    with pytest.raises(ValueError):
        validate_config(Simplex(2), RegularizerConfig.for_ball(1.0, 1.0))
    with pytest.raises(ValueError):
        validate_config(
            Ball([3.0, 0.0], 1.0),
            RegularizerConfig(HALF_SQUARED_NORM, 1.0, 8.0, 0.1, 1.0),  # H too small
        )
    with pytest.raises(ValueError):
        init_learner(Simplex(2), entropy_config(2), "doubling")


def test_predict_matches_stored_prediction():
    rng = np.random.default_rng(34)
    state = init_learner(Simplex(3), entropy_config(3), OFFSET)
    for _ in range(10):
        vertices = rng.integers(0, 2, size=(4, 3)).astype(float)
        X = ExplicitVertices(vertices)
        choice = X.members()[0]
        obs = Observation(X, choice, state.round)
        x_hat = argmax(X, state.current_prediction).maximizer
        state, _ = observe(state, obs, x_hat)
        assert predict(state).tobytes() == state.current_prediction.tobytes()
