"""Loss identities and convexity properties."""

import numpy as np
import pytest

from invlinopt import (
    DimensionMismatchError,
    ExplicitVertices,
    MembershipError,
    argmax,
    estimate_loss,
    fenchel_young_loss,
    inner_product,
    residual_subgradient,
    suboptimality_loss,
)
from invlinopt.core import tolerance

from conftest import FAMILIES, random_member, random_objective, random_triple

TRIANGLE = ExplicitVertices([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


def test_suboptimality_example():
    value, x_hat = suboptimality_loss(TRIANGLE, [1.0, 0.0], [0.3, 0.7])
    assert abs(value - 0.4) < 1e-12
    assert tuple(x_hat) == (0.0, 1.0)


def test_suboptimality_zero_cases():
    # optimal choice and the all-zero objective both give zero loss
    value, _ = suboptimality_loss(TRIANGLE, [0.0, 1.0], [0.3, 0.7])
    assert value == 0.0
    value, _ = suboptimality_loss(TRIANGLE, [1.0, 0.0], [0.0, 0.0])
    assert value == 0.0


def test_membership_error():
    with pytest.raises(MembershipError):
        suboptimality_loss(TRIANGLE, [0.5, 0.5], [0.3, 0.7])
    with pytest.raises(MembershipError):
        fenchel_young_loss(TRIANGLE, [2.0, 0.0], [0.3, 0.7])


def test_conjugate_form_matches_residual_form():
    rng = np.random.default_rng(20)
    assert abs(fenchel_young_loss(TRIANGLE, [1.0, 0.0], [0.3, 0.7]) - 0.4) < 1e-12
    for family in FAMILIES:
        for _ in range(60):
            X, x, c_hat = random_triple(rng, family)
            direct, _ = suboptimality_loss(X, x, c_hat)
            conjugate = fenchel_young_loss(X, x, c_hat)
            assert abs(direct - conjugate) <= tolerance(direct, conjugate)
            assert direct >= -tolerance(direct)


def test_estimate_loss_examples():
    assert estimate_loss([0.6, 0.4], [1.0, 0.0], [1.0, 0.0]) == 0.0
    assert abs(estimate_loss([0.6, 0.4], [1.0, 0.0], [0.0, 1.0]) - 0.2) < 1e-12
    with pytest.raises(DimensionMismatchError):
        estimate_loss([0.6, 0.4], [1.0, 0.0], [0.0, 1.0, 0.0])


def test_estimate_loss_nonnegative_for_optimal_agent():
    rng = np.random.default_rng(21)
    for family in FAMILIES:
        for _ in range(40):
            X, _, _ = random_triple(rng, family)
            c_star = rng.dirichlet(np.ones(X.dimension))
            x = argmax(X, c_star).maximizer
            for row in X.members():
                value = estimate_loss(c_star, x, row)
                assert value >= -tolerance(value)


def test_residual_subgradient():
    assert tuple(residual_subgradient([1.0, 0.0], [1.0, 0.0])) == (0.0, 0.0)
    assert tuple(residual_subgradient([1.0, 0.0], [0.0, 1.0])) == (-1.0, 1.0)


def test_subgradient_inequality():
    rng = np.random.default_rng(22)
    for family in FAMILIES:
        for _ in range(20):
            X, x, c_hat = random_triple(rng, family)
            base, x_hat = suboptimality_loss(X, x, c_hat)
            g = residual_subgradient(x, x_hat)
            for _ in range(100):
                other = random_objective(rng, X.dimension)
                value, _ = suboptimality_loss(X, x, other)
                linear = base + inner_product(g, other - c_hat)
                assert value >= linear - tolerance(value, linear)


def test_linearized_regret_identity_and_inequality():
    rng = np.random.default_rng(23)
    for family in FAMILIES:
        for _ in range(40):
            X, x, c_hat = random_triple(rng, family)
            c_star = rng.dirichlet(np.ones(X.dimension))
            sub, x_hat = suboptimality_loss(X, x, c_hat)
            est = estimate_loss(c_star, x, x_hat)
            g = residual_subgradient(x, x_hat)
            linearized = inner_product(g, c_hat - c_star)
            # the linearized regret splits exactly into the two losses
            assert abs(linearized - (sub + est)) <= tolerance(linearized, sub + est)
            ref, _ = suboptimality_loss(X, x, c_star)
            assert sub - ref <= linearized + tolerance(sub - ref, linearized)


def test_convexity_along_segments():
    rng = np.random.default_rng(24)
    for family in FAMILIES:
        for _ in range(30):
            X, x, _ = random_triple(rng, family)
            c1 = random_objective(rng, X.dimension)
            c2 = random_objective(rng, X.dimension)
            theta = float(rng.random())
            mixed, _ = suboptimality_loss(X, x, theta * c1 + (1 - theta) * c2)
            v1, _ = suboptimality_loss(X, x, c1)
            v2, _ = suboptimality_loss(X, x, c2)
            combo = theta * v1 + (1 - theta) * v2
            assert mixed <= combo + tolerance(mixed, combo)


def test_loss_components_of_one_observation():
    x, c_hat, c_star = [1.0, 0.0], [0.3, 0.7], [0.6, 0.4]
    sub, x_hat = suboptimality_loss(TRIANGLE, x, c_hat)
    est = estimate_loss(c_star, x, x_hat)
    total = sub + est
    assert abs(sub - 0.4) <= tolerance(sub)
    assert abs(est - 0.2) <= tolerance(est)
    assert abs(total - 0.6) <= tolerance(total)
    assert tuple(residual_subgradient(x, x_hat)) == (-1.0, 1.0)
    # the suboptimality side needs no true objective
    assert suboptimality_loss(TRIANGLE, x, c_hat)[0] == sub
