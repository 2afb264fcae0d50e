"""Acceptance suite: one pass/fail line per criterion.

Run ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
print.  Every tolerance is pinned here; nothing is deferred to later
calibration.
"""

import math
import time

import numpy as np
import pytest

from invlinopt import (
    argmax,
    certify_gap,
    verify_run,
    NormPair,
)
from invlinopt.analysis import bound_columns
from invlinopt.harness import build_config, generate_instance_stream, simulate
from invlinopt.harness.cli import main
from invlinopt.harness.runner import run_experiment

from conftest import FAMILIES, naive_gap, random_feasible_set, random_member
from reference import (
    argmax_bruteforce,
    fenchel_young_loss,
    optimal_value,
    suboptimality_loss,
)

TOL = 1e-9


def report(criterion: str, passed: bool, detail: str) -> bool:
    print(f"[{'PASS' if passed else 'FAIL'}] {criterion}: {detail}")
    return passed


def _triple_families(rng):
    # enumerable sizes per family, all dimensions <= 12
    family = FAMILIES[int(rng.integers(0, 4))]
    if family == "explicit":
        return random_feasible_set(rng, family, max_dim=12, max_vertices=24)
    if family == "dag":
        return random_feasible_set(rng, family)
    return random_feasible_set(rng, family, max_dim=8)


@pytest.fixture(scope="module")
def triple_suite():
    rng = np.random.default_rng(1234)
    triples = []
    for _ in range(10_000):
        X = _triple_families(rng)
        x = random_member(X, rng)
        kind = rng.random()
        if kind < 0.45:
            c_hat = rng.dirichlet(np.ones(X.dimension))
        elif kind < 0.9:
            c_hat = rng.standard_normal(X.dimension)
        elif kind < 0.97:
            c_hat = rng.random(X.dimension)
        else:
            c_hat = np.zeros(X.dimension)
        triples.append((X, x, c_hat))
    return triples


def test_criterion_1_loss_identity(triple_suite):
    start = time.perf_counter()
    worst = 0.0
    for X, x, c_hat in triple_suite:
        direct, _ = suboptimality_loss(X, x, c_hat)
        conjugate = fenchel_young_loss(X, x, c_hat)
        rel = abs(direct - conjugate) / (1.0 + max(abs(direct), abs(conjugate)))
        worst = max(worst, rel)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed <= 10.0
    assert report(
        "criterion 1 (loss-form identity, 1e4 triples)",
        ok,
        f"worst relative diff {worst:.3e}, elapsed {elapsed:.1f}s",
    )


def test_criterion_2_nonnegativity_and_subgradient(triple_suite):
    rng = np.random.default_rng(4321)
    worst_neg = 0.0
    worst_violation = -np.inf
    for X, x, c_hat in triple_suite:
        base, x_hat = suboptimality_loss(X, x, c_hat)
        worst_neg = min(worst_neg, base)
        g = x_hat - x
        members = X.members()
        n = X.dimension
        directions = np.vstack(
            [rng.dirichlet(np.ones(n), size=50), rng.standard_normal((50, n))]
        )
        # batch suboptimality losses: max over members minus value at x
        losses = (directions @ members.T).max(axis=1) - directions @ x
        linear = base + (directions - c_hat) @ g
        slack = TOL * (1.0 + np.maximum(np.abs(losses), np.abs(linear)))
        gap = losses - linear + slack
        worst_violation = max(worst_violation, float(-gap.min()))
        assert np.all(gap >= 0.0)
    ok = worst_neg >= -TOL and worst_violation <= 0.0
    assert report(
        "criterion 2 (nonnegativity + subgradient inequality, 100 dirs/triple)",
        ok,
        f"most negative loss {worst_neg:.3e}, worst violation {worst_violation:.3e}",
    )


@pytest.fixture(scope="module")
def identity_runs():
    runs = []
    for noise, seed in ((0.0, 101), (0.2, 102)):
        cfg = build_config(
            {}, seed=seed, dimension=6, rounds=2000, family="random-vertices",
            num_vertices=16, agent_noise=noise,
        )
        bundle = generate_instance_stream(cfg)
        ledger = simulate(bundle)
        runs.append((cfg, bundle, ledger))
    return runs


def test_criterion_3_total_loss_identity(identity_runs):
    worst_diff = 0.0
    all_pass = True
    for cfg, bundle, ledger in identity_runs:
        T = ledger.rounds
        diff = abs(ledger.linearized_regret() - ledger.total_loss())
        worst_diff = max(worst_diff, diff / T)
        checks = {c.name: c for c in verify_run(ledger)}
        all_pass &= checks["total_loss_identity"].passed
        all_pass &= checks["per_round_linearization"].passed
        all_pass &= diff <= 1e-9 * T
    assert report(
        "criterion 3 (regret equals accumulated total loss; per-round linearization)",
        all_pass,
        f"worst |diff|/T {worst_diff:.3e} over optimal and noisy runs",
    )


def _bound_suite_run(n: int, schedule: str):
    # n = 2 has only four possible 0/1 vertices, so large vertex draws
    # almost surely contain the dominating one; keep those sets small
    cfg = build_config(
        {}, seed=310, dimension=n, rounds=10_000, family="random-vertices",
        num_vertices=3 if n == 2 else 32, integral_vertices=True,
        schedule=schedule,
    )
    bundle = generate_instance_stream(cfg)
    start = time.perf_counter()
    ledger = simulate(bundle)
    elapsed = time.perf_counter() - start
    checks = {c.name: c for c in verify_run(ledger)}
    return cfg, ledger, checks, elapsed


@pytest.fixture(scope="module")
def adaptive_runs():
    return {n: _bound_suite_run(n, "adaptive") for n in (2, 10, 100)}


@pytest.fixture(scope="module")
def offset_runs():
    return {n: _bound_suite_run(n, "offset") for n in (2, 10, 100)}


def test_criterion_4_adaptive_bounds(adaptive_runs):
    all_pass = True
    details = []
    for n, (cfg, ledger, checks, elapsed) in adaptive_runs.items():
        grad = checks["adaptive_grad_bound"]
        horizon = checks["adaptive_horizon_bound"]
        # the horizon bound is exactly 16 K sqrt(t ln n) at these constants
        constant_ok = True
        bound = bound_columns(ledger)["adaptive_horizon"]
        for t in (1, 17, 10_000):
            reference = 16.0 * ledger.learner.K * math.sqrt(t * math.log(n))
            value = bound[t - 1]
            constant_ok &= abs(value - reference) <= 1e-9 * reference
        run_ok = grad.passed and horizon.passed and constant_ok and elapsed <= 60.0
        all_pass &= run_ok
        details.append(
            f"n={n}: R_T={ledger.linearized_regret():.3f} "
            f"min margins ({grad.margin:.3f}, {horizon.margin:.3f}) {elapsed:.1f}s"
        )
    assert report(
        "criterion 4 (adaptive schedule, every prefix, 16K sqrt(t ln n))",
        all_pass,
        "; ".join(details),
    )


def test_criterion_5_offset_bounds(offset_runs):
    all_pass = True
    details = []
    for n, (cfg, ledger, checks, elapsed) in offset_runs.items():
        horizon = checks["offset_horizon_bound"]
        constant_ok = True
        bound = bound_columns(ledger)["offset_horizon"]
        for t in (1, 23, 10_000):
            reference = 2.0 * ledger.learner.K * math.sqrt(t * math.log(n))
            value = bound[t - 1]
            constant_ok &= abs(value - reference) <= 1e-9 * reference
        run_ok = horizon.passed and constant_ok and elapsed <= 60.0
        all_pass &= run_ok
        details.append(
            f"n={n}: R_T={ledger.linearized_regret():.3f} "
            f"min margin {horizon.margin:.3f} {elapsed:.1f}s"
        )
    assert report(
        "criterion 5 (offset schedule, every prefix, 2K sqrt(t ln n))",
        all_pass,
        "; ".join(details),
    )


def test_criterion_6_regret_ordering(identity_runs, adaptive_runs, offset_runs):
    ledgers = [(cfg, led) for cfg, _, led in identity_runs]
    ledgers += [(c, led) for c, led, _, _ in adaptive_runs.values()]
    ledgers += [(c, led) for c, led, _, _ in offset_runs.values()]
    all_pass = True
    worst = np.inf
    for cfg, ledger in ledgers:
        checks = {c.name: c for c in verify_run(ledger)}
        all_pass &= checks["regret_ordering"].passed
        r, rs = ledger.linearized_regret(), ledger.subopt_regret()
        slack = TOL * (1.0 + max(abs(r), abs(rs))) * ledger.rounds
        all_pass &= rs <= r + slack
        worst = min(worst, r - rs)
    assert report(
        "criterion 6 (suboptimality regret below linearized regret on all runs)",
        all_pass,
        f"min R_T - R_T^sub = {worst:.3e} across {len(ledgers)} runs",
    )


def _gap_run(seed, T, family, fresh, n, num_vertices=12):
    cfg = build_config(
        {}, seed=seed, dimension=n, rounds=T, family=family,
        num_vertices=num_vertices, gap_mode="integral", fresh_sets=fresh,
    )
    bundle = generate_instance_stream(cfg)
    ledger = simulate(bundle)
    certificate = certify_gap(
        bundle.observations, bundle.c_star, ledger.learner.norms
    )
    integral = certify_gap(
        bundle.observations, bundle.c_star_integral, ledger.learner.norms
    )
    return cfg, bundle, ledger, certificate, integral


@pytest.fixture(scope="module")
def gap_runs():
    runs = {
        "fresh-n5": _gap_run(1, 2000, "random-vertices", True, 5),
        "fresh-n5b": _gap_run(3, 2000, "random-vertices", True, 5),
        "repeat-knapsack": _gap_run(4, 2000, "knapsack", False, 7),
        "repeat-dag": _gap_run(5, 2000, "dag", False, 8),
    }
    return runs


def test_criterion_7_gap_inequalities(gap_runs):
    all_pass = True
    details = []
    for label, (cfg, bundle, ledger, certificate, _) in gap_runs.items():
        assert certificate.satisfied
        checks = {
            c.name: c
            for c in verify_run(ledger, certificate)
        }
        residual = checks["gap_residual_bound"]
        aggregate = checks["gap_gradient_sum_bound"]
        all_pass &= residual.passed and aggregate.passed
        details.append(f"{label}: delta={certificate.delta:.4f}")
    assert report(
        "criterion 7 (per-round and aggregate gap inequalities at every prefix)",
        all_pass,
        "; ".join(details),
    )


@pytest.fixture(scope="module")
def plateau_runs():
    runs = {}
    for T in (1000, 10_000):
        runs[f"hypercube-T{T}"] = _gap_run(801, T, "hypercube", True, 6)
        runs[f"repeat-rv-T{T}"] = _gap_run(802, T, "random-vertices", False, 5)
        runs[f"fresh-rv3-T{T}"] = _gap_run(204, T, "random-vertices", True, 3, 8)
    return runs


def test_criterion_8_gap_constant_and_plateau(plateau_runs):
    all_pass = True
    details = []
    for label, (cfg, bundle, ledger, certificate, integral) in plateau_runs.items():
        T = ledger.rounds
        # integral construction certifies a margin of at least 1/K exactly
        floor_ok = integral.satisfied and integral.delta >= 1.0 / ledger.learner.K
        checks = {
            c.name: c
            for c in verify_run(ledger, certificate, plateau_burn_in=1000)
        }
        constant_ok = checks["gap_constant_bound"].passed
        total = ledger.columns["total"]
        late = float(np.sum(total)) - float(np.sum(total[: T // 2]))
        plateau_ok = checks["loss_plateau"].passed and late <= 1e-9 * T
        all_pass &= floor_ok and constant_ok and plateau_ok and certificate.satisfied
        details.append(f"{label}: R_T={ledger.linearized_regret():.4f} late={late:.2e}")
    assert report(
        "criterion 8 (horizon-independent bound and loss plateau)",
        all_pass,
        "; ".join(details),
    )


def test_criterion_9_online_to_batch():
    start = time.perf_counter()
    cfg = build_config(
        {}, seed=900, dimension=6, rounds=10_000, family="random-vertices",
        num_vertices=16, holdout=10_000,
    )
    result = run_experiment(cfg)
    elapsed = time.perf_counter() - start
    evaluation = result.evaluation
    budget = result.ledger.subopt_regret() / result.ledger.rounds
    limit = budget + 3.0 * evaluation.stderr_gap + TOL
    ok = (
        evaluation.mean_reference == 0.0
        and evaluation.mean_model <= limit
        and elapsed <= 120.0
    )
    assert report(
        "criterion 9 (holdout suboptimality within the averaged regret budget)",
        ok,
        f"mean holdout {evaluation.mean_model:.3e} <= {limit:.3e}, "
        f"elapsed {elapsed:.1f}s",
    )


def test_criterion_10_oracle_equivalence():
    rng = np.random.default_rng(1000)
    worst = 0.0
    for family in FAMILIES:
        kwargs = {}
        if family == "explicit":
            kwargs = dict(max_dim=8, max_vertices=16)
        elif family in ("hypercube", "knapsack"):
            kwargs = dict(max_dim=8)
        for _ in range(10_000):
            X = random_feasible_set(rng, family, **kwargs)
            c = rng.standard_normal(X.dimension)
            fast = optimal_value(argmax(X, c), c)
            brute = optimal_value(argmax_bruteforce(X, c), c)
            worst = max(worst, abs(fast - brute))
    values_ok = worst <= 1e-12

    # gap certification against the independently coded ratio pass
    gap_ok = True
    linf = NormPair.linf_l1()
    from invlinopt import ExplicitVertices, Observation

    for _ in range(300):
        n = int(rng.integers(2, 5))
        X = ExplicitVertices(rng.integers(0, 2, size=(6, n)).astype(float))
        c_star = rng.random(n) + 0.05
        observations = [Observation(X, argmax(X, c_star).maximizer)]
        mine = certify_gap(observations, c_star, linf)
        theirs_ok, theirs = naive_gap(observations, c_star, linf)
        gap_ok &= mine.satisfied == theirs_ok
        if mine.satisfied and mine.delta != math.inf:
            gap_ok &= abs(mine.delta - theirs) <= 1e-12
    assert report(
        "criterion 10 (oracle equivalence 1e4/family; independent gap pass)",
        values_ok and gap_ok,
        f"worst value diff {worst:.3e}",
    )


def test_criterion_11_replay_determinism(tmp_path):
    run_args = [
        "run", "--seed", "41", "--dimension", "4", "--rounds", "400",
        "--family", "random-vertices", "--num-vertices", "8",
        "--gap", "integral",
    ]
    assert main(run_args + ["--out", str(tmp_path / "r1")]) == 0
    assert main(run_args + ["--out", str(tmp_path / "r2")]) == 0
    run_ok = (tmp_path / "r1" / "trace.csv").read_bytes() == (
        tmp_path / "r2" / "trace.csv"
    ).read_bytes()

    sweep_args = [
        "sweep", "--seed", "42", "--dimension", "3", "--family", "knapsack",
        "--rounds-list", "50,100", "--dimension-list", "3",
        "--gap-list", "none,integral",
    ]
    assert main(sweep_args + ["--out", str(tmp_path / "s1")]) == 0
    assert main(sweep_args + ["--out", str(tmp_path / "s2")]) == 0
    sweep_ok = True
    for sub in sorted((tmp_path / "s1").rglob("trace.csv")):
        twin = tmp_path / "s2" / sub.relative_to(tmp_path / "s1")
        sweep_ok &= sub.read_bytes() == twin.read_bytes()
    assert report(
        "criterion 11 (bitwise replay determinism for run and sweep)",
        run_ok and sweep_ok,
        "trace files identical across repeated invocations",
    )
