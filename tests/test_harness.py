"""Generation, runner, file formats, CLI, and determinism contracts."""

import ast
import gc
import importlib
import inspect
import math
import os
import subprocess
import sys
import tomllib
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import invlinopt
from invlinopt import analysis, core
from invlinopt import (
    EnumerationRefusedError,
    NormPair,
    Observation,
    argmax,
    certify_gap,
    init_learner,
    play,
)
from invlinopt.core import DagPaths, ExplicitVertices, Hypercube, tolerance
from invlinopt.harness import (
    build_config,
    generate_instance_stream,
    load_config_file,
    run_experiment,
    run_sweep,
    simulate,
)
from invlinopt.harness.cli import main
from invlinopt.harness.config import ExperimentConfig
from invlinopt.harness import cli, generate, runner
from invlinopt.harness import io as harness_io
from invlinopt.harness.generate import (
    GenerationFailedError,
    build_domain,
    diameter_bound,
    draw_objective,
)
from invlinopt.harness.io import (
    TRACE_COLUMNS,
    fmt,
    read_stream,
    read_vector,
    write_stream,
    write_trace,
    write_vector,
)

import reference
import test_golden
from conftest import time_limit
from reference import (
    argmax_bruteforce,
    in_domain,
    inner_product,
    optimal_value,
    predict,
    read_summary,
    read_trace,
)

def make_cfg(**kw):
    kw.setdefault("seed", 17)
    kw.setdefault("dimension", 4)
    kw.setdefault("rounds", 120)
    kw.setdefault("family", "random-vertices")
    kw.setdefault("num_vertices", 8)
    return build_config({}, **kw)


def streams_equal(a, b):
    if len(a.observations) != len(b.observations):
        return False
    if a.c_star.tobytes() != b.c_star.tobytes():
        return False
    for x, y in zip(a.observations, b.observations):
        if x.agent_choice.tobytes() != y.agent_choice.tobytes():
            return False
        if x.feasible_set.members().tobytes() != y.feasible_set.members().tobytes():
            return False
    return True


def test_generation_deterministic():
    cfg = make_cfg()
    assert streams_equal(generate_instance_stream(cfg), generate_instance_stream(cfg))


def test_optimal_agent_always_optimal():
    bundle = generate_instance_stream(make_cfg(agent_noise=0.0))
    for obs in bundle.observations:
        best = optimal_value(argmax(obs.feasible_set, bundle.c_star), bundle.c_star)
        assert inner_product(bundle.c_star, obs.agent_choice) == best


def test_noisy_agent_deviates_sometimes():
    bundle = generate_instance_stream(make_cfg(agent_noise=0.5, rounds=60))
    suboptimal = 0
    for obs in bundle.observations:
        best = optimal_value(argmax(obs.feasible_set, bundle.c_star), bundle.c_star)
        if inner_product(bundle.c_star, obs.agent_choice) < best - 1e-12:
            suboptimal += 1
    assert suboptimal > 0


def test_integral_gap_mode_properties():
    cfg = make_cfg(gap_mode="integral", dimension=5, rounds=40)
    bundle = generate_instance_stream(cfg)
    z = bundle.c_star_integral
    assert z is not None
    assert np.all(z == np.round(z)) and np.all(z >= 1.0)
    # the learner-facing objective is the rescaling onto the simplex
    assert abs(bundle.c_star.sum() - 1.0) < 1e-12
    assert np.allclose(bundle.c_star, z / z.sum())
    certificate = certify_gap(bundle.observations, z, NormPair.linf_l1())
    assert certificate.satisfied
    assert certificate.delta >= 1.0  # integral data, sets inside [0, 1]^n
    scaled = certify_gap(bundle.observations, bundle.c_star, NormPair.linf_l1())
    assert scaled.satisfied and scaled.delta > 0.0


def test_integral_gap_floor_fails_without_an_integral_certificate(monkeypatch):
    # an uncertified integral objective reads as a -inf margin, whose nan
    # slack fails the check without a RuntimeWarning
    certify, calls = runner.analysis.certify_gap, []

    def integral_pass_fails(observations, c, norms, **carried):
        calls.append(c)
        if len(calls) == 2:
            return runner.analysis.GapCertificate(False, None, None, 0, None)
        return certify(observations, c, norms, **carried)

    monkeypatch.setattr(runner.analysis, "certify_gap", integral_pass_fails)
    result = run_experiment(make_cfg(gap_mode="integral", dimension=3, rounds=40))
    check = next(c for c in result.checks if c.name == "integral_gap_floor")
    assert (check.round, check.value, check.bound, check.passed) == (40, 1.0, -math.inf, False)
    assert result.exit_code == 1


def test_margin_gap_mode():
    cfg = make_cfg(gap_mode="margin", gap_margin=0.25, dimension=3, rounds=30)
    bundle = generate_instance_stream(cfg)
    certificate = certify_gap(bundle.observations, bundle.c_star, NormPair.linf_l1())
    assert certificate.satisfied
    assert certificate.delta >= 0.25
    assert (certificate.witness, certificate.rounds) == (None, 30)


def test_margin_gap_unreachable_fails(monkeypatch):
    monkeypatch.setattr(generate, "RETRY_CAP", 300)
    with pytest.raises(GenerationFailedError):
        generate_instance_stream(
            make_cfg(gap_mode="margin", gap_margin=50.0, rounds=5)
        )


def test_generation_failure_names_its_draws_and_best_margin(tmp_path, capsys,
                                                          monkeypatch):
    monkeypatch.setattr(generate, "RETRY_CAP", 5)
    args = ["run", "--seed", "3", "--family", "random-vertices", "--dimension", "4",
            "--num-vertices", "6", "--gap", "margin", "--gap-margin", "50",
            "--rounds", "5", "--out", str(tmp_path / "out")]
    assert main(args) == 2
    err = capsys.readouterr().err
    # the first round's five draws, each margin certified independently
    cfg = make_cfg(seed=3, num_vertices=6, gap_mode="margin", gap_margin=50.0)
    c_star, _ = draw_objective(cfg)
    rng = np.random.default_rng([3, 0])
    margins = []
    for _ in range(5):
        X = ExplicitVertices(rng.random((6, 4)))
        obs = Observation(X, argmax(X, c_star).maximizer)
        certificate = certify_gap([obs], c_star, NormPair.linf_l1())
        margins.append(certificate.delta if certificate.satisfied else -math.inf)
    assert "5 draws" in err
    assert f"best margin {fmt(max(margins))} against gap_margin 50" in err
    assert not (tmp_path / "out").exists()


def test_retry_cap_is_per_set_not_per_stream(monkeypatch):
    # each set needs about 1.2 draws: 40 rounds overrun a budget of 12
    # shared by the stream, never one of 12 for each set
    monkeypatch.setattr(generate, "RETRY_CAP", 12)
    cfg = make_cfg(seed=13, rounds=40, family="random-vertices", dimension=3,
                   num_vertices=4, gap_mode="margin", gap_margin=0.1)
    bundle = generate_instance_stream(cfg)
    assert len(bundle.observations) == 40


def test_fixed_instance_mode():
    cfg = make_cfg(fresh_sets=False, rounds=50)
    bundle = generate_instance_stream(cfg)
    first = bundle.observations[0].feasible_set
    assert all(o.feasible_set is first for o in bundle.observations)
    fresh = generate_instance_stream(make_cfg(rounds=50))
    sets = {o.feasible_set.members().tobytes() for o in fresh.observations}
    assert len(sets) > 1


@pytest.mark.parametrize("family", ["dag", "knapsack"])
def test_noisy_choices_are_read_only_member_rows(family):
    bundle = generate_instance_stream(
        make_cfg(family=family, dimension=6, agent_noise=0.5, rounds=40)
    )
    noisy = 0
    for obs, optimal in zip(bundle.observations, bundle.optimal_choices):
        choice = obs.agent_choice
        if np.shares_memory(choice, bundle.optimal_choices):
            assert choice.tobytes() == optimal.tobytes()
            continue
        noisy += 1
        members = obs.feasible_set.members()
        assert not choice.flags.writeable
        assert choice.tobytes() in {row.tobytes() for row in members}
        # a DAG's choice is unranked on its own; any other set's is a row
        # of its members()
        assert np.shares_memory(choice, members) == (family != "dag")
    assert noisy > 0


@pytest.mark.parametrize("n", [3, 7, 8, 10, 30])
def test_unranked_dag_draw_matches_the_enumerating_draw(n):
    # with n <= 7 each set is its chain alone, one path; n = 30 holds
    # hundreds of paths
    bundle = generate_instance_stream(
        make_cfg(family="dag", dimension=n, agent_noise=0.3, rounds=100)
    )
    rng, reference_rng = np.random.default_rng(5), np.random.default_rng(5)
    for obs in bundle.observations:
        X = obs.feasible_set
        for _ in range(3):
            got = generate.uniform_member(X, rng)
            expected = reference.uniform_member(X, reference_rng)
            assert got.tobytes() == expected.tobytes()
            assert not got.flags.writeable
            assert rng.bit_generator.state == reference_rng.bit_generator.state
    assert X._members_cache is not None  # the reference enumerated it


@pytest.mark.parametrize("step", [1, 3, 7, 256])
def test_integral_vertex_bits_drawn_in_pieces_are_one_draw(step, monkeypatch):
    # 5 x 3 bits a set, an odd count, in pieces of `step` sets: the same
    # bits and the same generator state as one integer draw of the block
    monkeypatch.setattr(core, "_STACK_CHUNK", step)
    cfg = make_cfg(dimension=3, num_vertices=5, integral_vertices=True)
    rng, whole = np.random.default_rng(8), np.random.default_rng(8)
    sets = generate._vertex_sets(cfg, rng, 20)
    bits = whole.integers(0, 2, size=(20, 5, 3)).astype(np.float64)
    assert [X.vertices.tobytes() for X in sets] == [
        ExplicitVertices(rows).vertices.tobytes() for rows in bits]
    assert rng.bit_generator.state == whole.bit_generator.state


class _Stop(Exception):
    pass


# 2**31 + 5 rejects about half of its 32-bit words; 2**32 takes a word as is
REPLAYED_RANGES = [1, 7, 2 ** 20, 2 ** 31 + 5, 2 ** 32]


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2 ** 32 - 1),
    pending=st.booleans(),
    block=st.sampled_from([1, 3, 64]),
    draws=st.lists(st.none() | st.tuples(st.integers(-9, 9),
                                         st.sampled_from(REPLAYED_RANGES)), max_size=60),
    stop=st.none() | st.integers(0, 60),
)
def test_replayed_draws_are_numpys_scalar_draws(seed, pending, block, draws, stop):
    # None is a random() call, (low, n) an integers(low, low + n) call; a
    # raise before draw `stop` leaves the generator where the draws before
    # it would.  A rejection loop that never ends fails here, in seconds.
    rng, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
    if pending:  # a 32-bit draw leaves the high half of its raw output pending
        rng.integers(0, 3), scalar.integers(0, 3)
    expected = [scalar.random() if d is None else int(scalar.integers(d[0], d[0] + d[1]))
                for d in draws[:stop]]
    got = []
    with time_limit(10), pytest.MonkeyPatch.context() as patch:
        patch.setattr(generate, "_RAW_BLOCK", block)
        try:
            with generate._ReplayedDraws(rng, True) as replayed:
                for i, d in enumerate(draws):
                    if i == stop:
                        raise _Stop
                    got.append(replayed.random() if d is None
                               else replayed.integers(d[0], d[0] + d[1]))
        except _Stop:
            assert stop < len(draws)
    assert [float.hex(v) if isinstance(v, float) else v for v in got] == [
        float.hex(v) if isinstance(v, float) else v for v in expected]
    assert all(type(v) is int for v in got if not isinstance(v, float))
    assert rng.bit_generator.state == scalar.bit_generator.state


@pytest.mark.parametrize("low, high", [(0, 0), (3, 2), (0, 2 ** 32 + 1), (-5, 2 ** 32)])
def test_a_replayed_range_outside_the_32_bit_path_is_refused(low, high):
    rng, untouched = np.random.default_rng(4), np.random.default_rng(4)
    rng.integers(0, 5), untouched.integers(0, 5)
    with time_limit(10), pytest.raises(ValueError, match=r"outside \[1, 2\*\*32\]"):
        with generate._ReplayedDraws(rng, True) as replayed:
            replayed.integers(low, high)
    assert rng.bit_generator.state == untouched.bit_generator.state


def test_replayed_draws_hold_one_raw_block():
    # 200,000 draws, as one call's margin loop may make, spend about 100,000
    # raw outputs: megabytes kept as one list, a few kB a block at a time
    rng = np.random.default_rng(6)
    tracemalloc.start()
    try:
        with time_limit(60), generate._ReplayedDraws(rng, True) as replayed:
            for _ in range(200_000):
                replayed.integers(0, 7)
            _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000, peak
    scalar = np.random.default_rng(6)
    for _ in range(200_000):
        scalar.integers(0, 7)
    assert rng.bit_generator.state == scalar.bit_generator.state


def _pending(rng):
    rng.integers(0, 3)
    return rng


@pytest.mark.parametrize("make_rng", [
    lambda: np.random.Generator(np.random.MT19937(21)),
    lambda: _pending(np.random.default_rng(21)),
], ids=["mt19937", "pcg64-pending-half"])
@pytest.mark.parametrize("repeat", [False, True])
def test_a_dag_sampler_draws_what_numpys_scalar_calls_draw(make_rng, repeat):
    # an MT19937 generator is drawn from directly, a PCG64 one is replayed:
    # both give today's samples and leave the generator where the per-set
    # reference leaves it
    cfg = make_cfg(family="dag", dimension=10, agent_noise=0.3, rounds=1,
                   fresh_sets=not repeat)
    c_star, c_star_integral = draw_objective(cfg)
    sampler = generate.make_observation_sampler(cfg, c_star, c_star_integral)
    per_set = reference.reference_sampler(cfg, c_star, c_star_integral)
    rng, reference_rng = make_rng(), make_rng()
    with time_limit(30):
        observations, _ = sampler(rng, 300)
    for obs in observations:
        expected = per_set(reference_rng)
        assert obs.feasible_set.arcs == expected.feasible_set.arcs
        assert obs.agent_choice.tobytes() == expected.agent_choice.tobytes()
    # an MT19937 state holds its key as an array
    np.testing.assert_equal(rng.bit_generator.state, reference_rng.bit_generator.state)


# the DAG drawer's modes: a margin gap rejects a set and redraws it into
# its row, in the sampler's block or in the repeated set's block of one;
# the noise flag draws always or never take a uniform member; with n <= 7
# every set is its chain alone and draws no arc
DRAWER_MODES = {
    "margin-redraws": dict(dimension=10, gap_mode="margin", gap_margin=0.05,
                           agent_noise=0.3),
    "noise-0": dict(dimension=10, agent_noise=0.0),
    "noise-1": dict(dimension=10, agent_noise=1.0),
    "chain-only": dict(dimension=6, agent_noise=0.3),
    "repeated-margin": dict(dimension=10, gap_mode="margin", gap_margin=0.05,
                            agent_noise=0.3, fresh_sets=False),
}


@pytest.mark.parametrize("make_rng", [
    lambda: np.random.Generator(np.random.MT19937(21)),
    lambda: _pending(np.random.default_rng(21)),
], ids=["mt19937", "pcg64-pending-half"])
@pytest.mark.parametrize("mode", sorted(DRAWER_MODES))
def test_the_dag_drawer_draws_what_numpys_scalar_calls_draw_in_every_mode(
    make_rng, mode, monkeypatch
):
    cfg = make_cfg(family="dag", rounds=1, **DRAWER_MODES[mode])
    c_star, c_star_integral = draw_objective(cfg)
    per_set = reference.reference_sampler(cfg, c_star, c_star_integral)
    # every margin the sampler's sets are tested by, fixed set included,
    # and whether it reached the floor
    reached = []
    gap_test = generate._gap_test

    def counted_gap_test(*args):
        margin, floor = gap_test(*args)

        def counted(X):
            seen = margin(X)
            reached.append(seen >= floor)
            return seen

        return counted, floor

    monkeypatch.setattr(generate, "_gap_test", counted_gap_test)
    rng, reference_rng = make_rng(), make_rng()
    with time_limit(30):
        sampler = generate.make_observation_sampler(cfg, c_star, c_star_integral)
        observations, _ = sampler(rng, 300)
    assert (False in reached) == (cfg.gap_mode == "margin")
    for obs in observations:
        expected = per_set(reference_rng)
        X = obs.feasible_set
        assert (X.num_nodes, X.arcs) == (expected.feasible_set.num_nodes,
                                         expected.feasible_set.arcs)
        assert obs.agent_choice.tobytes() == expected.agent_choice.tobytes()
        assert not X._ends.flags.writeable
    if mode == "chain-only":
        chain = tuple((j, j + 1) for j in range(cfg.dimension))
        assert all(obs.feasible_set.arcs == chain for obs in observations)
    if not cfg.fresh_sets:
        assert len({id(obs.feasible_set) for obs in observations}) == 1
    np.testing.assert_equal(rng.bit_generator.state, reference_rng.bit_generator.state)


def test_a_dag_sampler_out_of_retries_leaves_the_rng_where_its_draws_did(monkeypatch):
    # the replayed draws are closed on the raise: the generator is where
    # the reference's RETRY_CAP scalar draws leave it
    monkeypatch.setattr(generate, "RETRY_CAP", 300)
    cfg = make_cfg(family="dag", dimension=9, gap_mode="margin", gap_margin=50.0,
                   rounds=1)
    c_star, c_star_integral = draw_objective(cfg)
    sampler = generate.make_observation_sampler(cfg, c_star, c_star_integral)
    per_set = reference.reference_sampler(cfg, c_star, c_star_integral)
    rng, reference_rng = np.random.default_rng(2), np.random.default_rng(2)
    with time_limit(30), pytest.raises(GenerationFailedError, match="300 draws"):
        sampler(rng, 5)
    with pytest.raises(GenerationFailedError):
        per_set(reference_rng)
    assert rng.bit_generator.state == reference_rng.bit_generator.state


def test_hypercube_family_and_ball_domain():
    cube = generate_instance_stream(make_cfg(family="hypercube", rounds=10))
    assert all(isinstance(o.feasible_set, Hypercube) for o in cube.observations)
    ball = generate_instance_stream(
        make_cfg(domain="ball", rounds=10, dimension=3)
    )
    assert in_domain(generate.build_domain(ball.config), ball.c_star)


def test_ball_domain_runs_pass_checks():
    for schedule in ("adaptive", "offset"):
        result = run_experiment(
            make_cfg(domain="ball", dimension=3, rounds=150, schedule=schedule)
        )
        assert result.exit_code == 0, result.summary["failed_checks"]


def test_ball_margin_gap_uses_euclidean_norms():
    cfg = make_cfg(
        domain="ball", dimension=3, rounds=200, gap_mode="margin",
        gap_margin=0.2, num_vertices=6,
    )
    result = run_experiment(cfg)
    assert result.exit_code == 0, result.summary["failed_checks"]
    assert result.certificate.satisfied
    assert result.certificate.delta >= 0.2
    assert result.ledger.learner.norms.kind == NormPair.L2_L2


def test_ball_integral_objective_is_colinear_rescaling():
    cfg = make_cfg(domain="ball", dimension=3, gap_mode="integral", rounds=20)
    bundle = generate_instance_stream(cfg)
    z = bundle.c_star_integral
    assert np.all(z == np.round(z))
    # c_star = alpha * z for a positive alpha, inside the ball
    alpha = bundle.c_star[0] / z[0]
    assert alpha > 0.0
    assert np.allclose(bundle.c_star, alpha * z)
    assert in_domain(generate.build_domain(cfg), bundle.c_star)


def test_ball_integral_objective_is_the_first_draw_of_the_rejection_loop():
    # every ray through [5, 10]^n passes within 2r / 3 of the diagonal
    # center, so the reference loop keeps its first draw
    for seed in range(8):
        for dimension in (1, 2, 3, 5, 10, 31, 200):
            for radius in (1e-3, 0.37, 1.0, 42.0, 1e6):
                cfg = make_cfg(seed=seed, dimension=dimension, domain="ball",
                               gap_mode="integral", ball_radius=radius)
                got = draw_objective(cfg)
                expected = reference.reference_ball_objective(cfg)
                assert [v.tobytes() for v in got] == [v.tobytes() for v in expected]


def test_oracle_only_mode_beyond_enumeration_cap():
    # 2^25 members cannot be enumerated, but nothing in a plain run needs to
    result = run_experiment(
        make_cfg(family="hypercube", dimension=25, rounds=50, agent_noise=0.1)
    )
    assert result.exit_code == 0, result.summary["failed_checks"]
    # 2^21 members is the first cube past the cap; the brute-force
    # oracle and gap certification refuse it
    cube = Hypercube(21)
    c = np.linspace(-1.0, 1.0, 21)
    with pytest.raises(EnumerationRefusedError, match="exceeds cap"):
        argmax_bruteforce(cube, c)
    choice = argmax(cube, c).maximizer
    with pytest.raises(EnumerationRefusedError, match="exceeds cap"):
        certify_gap([Observation(cube, choice)], c, NormPair.linf_l1())


def test_cli_repeat_instance_flag(tmp_path):
    args = [
        "run", "--seed", "51", "--dimension", "4", "--rounds", "60",
        "--family", "random-vertices", "--num-vertices", "8",
        "--repeat-instance", "--out", str(tmp_path / "fix"),
    ]
    assert main(args) == 0
    summary = read_summary(tmp_path / "fix" / "summary.txt")
    assert summary["status"] == "ok"


def test_objective_reproducible_without_stream():
    cfg = make_cfg(gap_mode="integral")
    bundle = generate_instance_stream(cfg)
    c_star, c_int = draw_objective(cfg)
    assert c_star.tobytes() == bundle.c_star.tobytes()
    assert c_int.tobytes() == bundle.c_star_integral.tobytes()


def test_protocol_order_prefix_stability():
    cfg = make_cfg(rounds=40)
    bundle = generate_instance_stream(cfg)
    start = init_learner(build_domain(cfg), cfg.schedule, diameter_bound(cfg))
    # perturb observations from round 21 on and replay
    cut = 20
    other = generate_instance_stream(make_cfg(seed=99, rounds=40))
    perturbed = list(bundle.observations[:cut]) + list(other.observations[cut:])
    # a prediction depends only on earlier rounds: rounds up to the cut see
    # the same predictions
    c_hat = play(start, bundle.observations)[1]["c_hat"]
    c_hat2 = play(start, perturbed)[1]["c_hat"]
    assert c_hat[: cut + 1].tobytes() == c_hat2[: cut + 1].tobytes()
    assert c_hat[cut + 1:].tobytes() != c_hat2[cut + 1:].tobytes()


def test_run_experiment_files_and_determinism(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    result1 = run_experiment(make_cfg(out=str(out1), holdout=50, save_stream=True))
    result2 = run_experiment(make_cfg(out=str(out2), holdout=50, save_stream=True))
    assert result1.exit_code == 0
    for name in ("trace.csv", "summary.txt", "prediction.txt", "stream.txt"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    rows = read_trace(out1 / "trace.csv")
    assert len(rows) == 120
    assert list(rows[0].keys()) == list(TRACE_COLUMNS)
    assert [int(r["t"]) for r in rows] == list(range(1, 121))
    summary = read_summary(out1 / "summary.txt")
    assert summary["status"] == "ok"
    assert summary["failed_checks"] == "none"
    # trace decimals round-trip exactly
    regret = float(rows[-1]["regret"])
    assert regret == result1.ledger.linearized_regret()


def test_trace_bound_columns_match_schedule(tmp_path):
    adaptive = run_experiment(make_cfg(out=str(tmp_path / "ad")))
    rows = read_trace(tmp_path / "ad" / "trace.csv")
    assert rows[0]["bound_adaptive_grad"] != ""
    assert rows[0]["bound_offset_horizon"] == ""
    offset = run_experiment(make_cfg(schedule="offset", out=str(tmp_path / "off")))
    rows = read_trace(tmp_path / "off" / "trace.csv")
    assert rows[0]["bound_adaptive_grad"] == ""
    assert rows[0]["bound_offset_horizon"] != ""


CHUNK = core._STACK_CHUNK
# run overrides, and the bound columns they leave empty
TRACE_SETUPS = {
    "adaptive-simplex": ({}, {"bound_offset_horizon", "bound_gap_constant"}),
    "offset-ball": (
        dict(domain="ball", schedule="offset"),
        {"bound_adaptive_grad", "bound_adaptive_horizon", "bound_gap_constant"},
    ),
    "integral-repeat": (
        dict(gap_mode="integral", fresh_sets=False), {"bound_offset_horizon"}
    ),
}


# one row short of, exactly at and one row past a chunk boundary, and
# three rows into a chunk, each after several whole chunks
@pytest.mark.parametrize(
    "rounds", [1, 4 * CHUNK - 1, 4 * CHUNK, 4 * CHUNK + 1, 8 * CHUNK + 3])
@pytest.mark.parametrize("setup", sorted(TRACE_SETUPS))
def test_trace_file_matches_the_value_by_value_reference(tmp_path, setup, rounds):
    overrides, empty = TRACE_SETUPS[setup]
    out = tmp_path / "run"
    result = run_experiment(make_cfg(rounds=rounds, out=str(out), **overrides))
    certificate = result.certificate
    delta = certificate.delta if certificate and certificate.satisfied else None
    expected = tmp_path / "reference.csv"
    reference.write_trace(expected, reference.trace_rows(result.ledger, delta))
    assert (out / "trace.csv").read_bytes() == expected.read_bytes()
    rows = read_trace(out / "trace.csv")
    assert len(rows) == rounds
    assert {name for name in TRACE_COLUMNS if rows[-1][name] == ""} == empty


def test_writing_a_long_trace_holds_no_whole_trace_text(tmp_path):
    # rendered whole, this trace's strings peak near 19 MB
    ledger = simulate(generate_instance_stream(make_cfg(seed=7, rounds=20_000)))
    tracemalloc.start()
    try:
        write_trace(tmp_path / "trace.csv", runner.trace_rows(ledger))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(read_trace(tmp_path / "trace.csv")) == 20_000
    assert peak < 4_000_000


def child_env() -> dict[str, str]:
    """This process's environment with the imported invlinopt's source first
    on PYTHONPATH, for a child interpreter."""
    src = Path(invlinopt.__file__).resolve().parents[1]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src), os.environ.get("PYTHONPATH", "")]))


def child_peak_mb(*args: str) -> float:
    """Peak RSS in MB of one `invlinopt` command.  A small launcher runs it
    and reports its peak, since a child forked from this process would
    count this process's pages too."""
    launcher = ("import resource, subprocess, sys; "
                "subprocess.run(sys.argv[1:], check=True, stdout=subprocess.DEVNULL); "
                "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)")
    command = [sys.executable, "-c", launcher,
               sys.executable, "-m", "invlinopt.harness.cli", *args]
    return int(subprocess.run(command, env=child_env(), check=True, capture_output=True,
                              text=True).stdout) / 1024


def test_a_long_run_holds_no_stream(tmp_path):
    # 200,000 rounds of the knapsack-gap-repeat benchmark's shape: with its
    # whole stream and (T, n) columns held at once this run peaked near
    # 217 MB of RSS; played in chunks, near 75 MB
    peak_mb = child_peak_mb(
        "run", "--family", "knapsack", "--dimension", "12", "--gap", "integral",
        "--repeat-instance", "--rounds", "200000", "--seed", "30",
        "--out", str(tmp_path / "long"))
    assert peak_mb < 120, peak_mb


def test_a_long_saved_stream_is_written_as_it_is_played(tmp_path):
    # 20,000 rounds of noisy DAGs, saved: with the stream kept for one
    # write at the end this run peaked near 73 MB of RSS; with each chunk
    # written as it is drawn, near 39 MB
    out = tmp_path / "saved"
    peak_mb = child_peak_mb(
        "run", "--family", "dag", "--dimension", "10", "--agent-noise", "0.1",
        "--rounds", "20000", "--seed", "7", "--save-stream", "--out", str(out))
    assert peak_mb < 55, peak_mb
    assert sorted(p.name for p in out.iterdir()) == [
        "prediction.txt", "stream.txt", "summary.txt", "trace.csv"]


def test_a_simulated_ledger_keeps_no_set_of_its_stream():
    # the learner's last answer is kept, but its set only weakly: once the
    # bundle is dropped, no set of the stream, nor the vertex block the
    # sets view, is alive
    bundle = generate_instance_stream(make_cfg(rounds=600))
    sets = [weakref.ref(obs.feasible_set) for obs in bundle.observations]
    ledger = simulate(bundle)
    assert ledger.learner.last_answer is not None
    del bundle
    gc.collect()
    assert [ref for ref in sets if ref() is not None] == []


@pytest.mark.parametrize("overrides", [
    dict(save_stream=True, holdout=300),
    dict(gap_mode="integral", holdout=300),
    dict(family="dag", dimension=10, domain="ball", agent_noise=0.2,
         save_stream=True, holdout=300),
], ids=["rv-saved", "rv-integral-gap", "dag-noisy"])
def test_each_chunk_is_freed_before_the_next_is_drawn(overrides, tmp_path, monkeypatch):
    # every set and reference array a sampler drew, in the stream or the
    # holdout, is dead when it draws again
    drawn, calls = [], [0]
    make = runner.make_observation_sampler

    def checking(*args):
        sampler = make(*args)

        def draw(rng, k):
            gc.collect()
            assert [ref for ref in drawn if ref() is not None] == []
            calls[0] += 1
            observations, references = sampler(rng, k)
            drawn.append(weakref.ref(references))
            drawn.extend(weakref.ref(obs.feasible_set) for obs in observations)
            return observations, references

        return draw

    monkeypatch.setattr(runner, "make_observation_sampler", checking)
    cfg = make_cfg(rounds=600, out=str(tmp_path / "run"), **overrides)
    assert run_experiment(cfg).exit_code == 0
    # three stream chunks and two holdout chunks
    assert calls[0] == 5


@pytest.mark.parametrize("name", sorted(test_golden.CONFIGS))
def test_golden_bytes_at_any_chunk_size(name, tmp_path, monkeypatch, capsys):
    # one round per chunk, chunks of 7, and the whole run as one chunk
    args = test_golden.CONFIGS[name]
    rounds = int(args[args.index("--rounds") + 1])
    expected = test_golden.GOLDEN_DIR / name
    for step in (1, 7, rounds):
        monkeypatch.setattr(core, "_STACK_CHUNK", step)
        out = tmp_path / str(step)
        assert main(["run", *args, "--out", str(out)]) == test_golden.EXIT_STATUS.get(name, 0)
        assert sorted(p.name for p in out.iterdir()) == sorted(
            p.name for p in expected.iterdir())
        for path in expected.iterdir():
            assert (out / path.name).read_bytes() == path.read_bytes(), (step, path.name)


def test_gap_margins_carry_across_chunks(monkeypatch):
    # one repeated knapsack and two objectives: each objective's margin is
    # computed once, whatever the chunk size, and every certificate is the
    # same
    margin, calls = analysis._gap_margin, []

    def counted(*args):
        calls.append(args)
        return margin(*args)

    monkeypatch.setattr(analysis, "_gap_margin", counted)
    cfg = make_cfg(family="knapsack", dimension=6, gap_mode="integral",
                   fresh_sets=False, rounds=300)
    seen = set()
    for step in (1, 7, 256):
        monkeypatch.setattr(core, "_STACK_CHUNK", step)
        calls.clear()
        result = run_experiment(cfg)
        assert len(calls) == 2, step
        certificate = result.certificate
        assert certificate.satisfied
        gap = tuple((k, v) for k, v in result.summary.items() if k.startswith("gap."))
        seen.add((certificate.delta, certificate.rounds, certificate.last[1:], gap))
    assert len(seen) == 1


def test_holdout_bound_is_rebuilt_from_the_summary(tmp_path):
    # the mean regret per round plus three standard errors of the paired
    # holdout gaps, and the comparison tolerance
    out = tmp_path / "holdout"
    run_experiment(make_cfg(agent_noise=0.3, holdout=200, out=str(out)))
    summary = read_summary(out / "summary.txt")
    budget = float(summary["result.regret_sub"]) / int(summary["config.rounds"])
    mean_gap = float(summary["offline.mean_gap"])
    stderr = float(summary["offline.stderr_gap"])
    assert stderr > 0.0
    bound = budget + (3.0 * stderr + tolerance(mean_gap, budget))
    assert float(summary["check.holdout_generalization.bound"]) == bound


# the golden configs of the same names
INTEGRAL_HOLDOUT = dict(seed=7, dimension=3, rounds=200, gap_mode="integral", holdout=100)
BALL_NOISY_HOLDOUT_FAIL = dict(seed=1, domain="ball", ball_radius=50.0, agent_noise=0.3,
                               rounds=300, holdout=2, dimension=10)


def test_a_run_reports_exactly_the_checks_of_verify_run():
    cfg = build_config({}, **INTEGRAL_HOLDOUT)
    result = run_experiment(cfg)
    bundle = generate_instance_stream(cfg)
    integral = certify_gap(bundle.observations, bundle.c_star_integral,
                           result.ledger.learner.norms)
    checks = analysis.verify_run(result.ledger, result.certificate, integral,
                                 result.evaluation, plateau_burn_in=1000)
    assert len(result.checks) == len(checks)
    for reported, verified in zip(result.checks, checks):
        assert reported == verified
    assert [c.name for c in checks[-3:]] == [
        "gap_certified", "integral_gap_floor", "holdout_generalization"]


@pytest.mark.parametrize("config, failed", [
    (INTEGRAL_HOLDOUT, []),
    (BALL_NOISY_HOLDOUT_FAIL, ["holdout_generalization"]),
], ids=["integral-holdout", "ball-noisy-holdout-fail"])
def test_the_exit_status_is_1_exactly_when_a_check_failed(config, failed):
    result = run_experiment(build_config({}, **config))
    assert [c.name for c in result.checks if not c.passed] == failed
    assert result.exit_code == (1 if failed else 0)


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 4: total_loss_identity's bound 1e-9 * t has no term for "
    "the size of the losses, and a radius-1e12 ball's losses round by far "
    "more; widening it moves every summary's check.total_loss_identity.bound, "
    "so it waits for a re-record of the golden summaries and digests"))
def test_total_loss_identity_holds_on_a_huge_ball():
    result = run_experiment(build_config({}, seed=1, domain="ball", dimension=3,
                                         rounds=40, ball_radius=1e12))
    check = next(c for c in result.checks if c.name == "total_loss_identity")
    assert check.passed, check


def test_run_failure_is_named_and_nonzero(tmp_path):
    # this fresh-set gap stream genuinely has not plateaued by T/2
    cfg = make_cfg(
        seed=11, dimension=5, rounds=1500, num_vertices=12,
        gap_mode="integral", out=str(tmp_path / "fail"),
    )
    result = run_experiment(cfg)
    assert result.exit_code == 1
    summary = read_summary(tmp_path / "fail" / "summary.txt")
    assert summary["status"] == "failed"
    assert "loss_plateau" in summary["failed_checks"]
    assert summary["check.loss_plateau"] == "fail"


def test_gap_checks_skipped_for_noisy_agent():
    result = run_experiment(
        make_cfg(gap_mode="integral", agent_noise=0.3, rounds=60, dimension=3)
    )
    names = {c.name for c in result.checks}
    assert "gap_residual_bound" not in names
    assert "skipped.gap_checks" in result.summary


def test_stream_file_round_trip(tmp_path):
    bundle = generate_instance_stream(make_cfg(rounds=6))
    path = tmp_path / "stream.txt"
    write_stream(path, bundle.observations, bundle.c_star)
    observations, c_star = read_stream(path)
    assert c_star.tobytes() == bundle.c_star.tobytes()
    assert len(observations) == 6
    for loaded, original in zip(observations, bundle.observations):
        assert loaded.agent_choice.tobytes() == original.agent_choice.tobytes()
        assert (
            loaded.feasible_set.members().tobytes()
            == original.feasible_set.members().tobytes()
        )
    with pytest.raises(ValueError):
        read_stream(write_text(tmp_path / "bad.txt", "not a stream\n"))


STREAM_SETUPS = {
    # 600 rounds span three batches of DAG sets
    "noisy-dag": dict(family="dag", dimension=10, agent_noise=0.3, rounds=600),
    # one set every round, its rows and the noisy choices repeating
    "repeated-vertices": dict(family="random-vertices", dimension=4,
                              num_vertices=8, fresh_sets=False, agent_noise=0.3),
    "integral-vertices": dict(family="random-vertices", dimension=3,
                              num_vertices=6, integral_vertices=True, agent_noise=0.3),
    "knapsack-repeat": dict(family="knapsack", dimension=6, gap_mode="integral",
                            fresh_sets=False),
}


@pytest.mark.parametrize("setup", sorted(STREAM_SETUPS))
def test_write_stream_matches_the_per_set_renderer(tmp_path, monkeypatch, setup):
    # each side renders its own bundle, so the reference enumerates each
    # set on its own and write_stream fills its sets' caches in batches
    cfg = make_cfg(**STREAM_SETUPS[setup])
    expected, got = tmp_path / "expected.txt", tmp_path / "got.txt"
    bundle = generate_instance_stream(cfg)
    reference.write_stream(expected, bundle.observations, bundle.c_star)
    bundle = generate_instance_stream(cfg)
    write_stream(got, bundle.observations, bundle.c_star)
    assert got.read_bytes() == expected.read_bytes()
    # a few kept texts make the renderer drop them again and again
    monkeypatch.setattr(harness_io, "_RENDERED_ROWS", 3)
    write_stream(got, bundle.observations)
    reference.write_stream(expected, bundle.observations)
    assert got.read_bytes() == expected.read_bytes()


def test_stream_past_the_cap_is_refused_before_anything_is_written(tmp_path):
    # 2**21 paths on a ladder of parallel arcs, after a batch of small DAGs
    big = DagPaths(22, [(i, i + 1) for i in range(21)] * 2)
    c = np.linspace(1.0, 2.0, big.dimension)
    small = [DagPaths(3, [(0, 1), (1, 2), (0, 2)]) for _ in range(3)]
    observations = [Observation(X, argmax(X, c[:X.dimension]).maximizer)
                    for X in small + [big]]
    path = tmp_path / "out" / "stream.txt"
    with pytest.raises(EnumerationRefusedError) as got:
        write_stream(path, observations)
    assert str(got.value) == "enumeration effort 2097152 exceeds cap 1048576"
    assert not (tmp_path / "out").exists()
    # the noisy draw refuses it alike, before drawing
    rng = np.random.default_rng(1)
    state = rng.bit_generator.state
    with pytest.raises(EnumerationRefusedError) as drawn:
        generate.uniform_member(big, rng)
    assert str(drawn.value) == str(got.value)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("setup", sorted(STREAM_SETUPS))
def test_stream_written_in_chunks_matches_one_write(tmp_path, monkeypatch, setup):
    bundle = generate_instance_stream(make_cfg(**STREAM_SETUPS[setup]))
    observations, dim = bundle.observations, bundle.config.dimension
    whole = tmp_path / "whole.txt"
    for kept in (harness_io._RENDERED_ROWS, 3):
        monkeypatch.setattr(harness_io, "_RENDERED_ROWS", kept)
        write_stream(whole, observations, bundle.c_star)
        for step in (1, 7, len(observations) - 1):
            path = tmp_path / f"{kept}-{step}" / "stream.txt"
            with harness_io.stream_writer(path, dim, bundle.c_star) as write:
                for start in range(0, len(observations), step):
                    write(observations[start:start + step])
            assert path.read_bytes() == whole.read_bytes(), (kept, step)
            assert sorted(p.name for p in path.parent.iterdir()) == ["stream.txt"]


def refused_in_a_later_chunk(monkeypatch, cfg):
    """Chunks of 4 rounds and a cap that the first chunk's DAGs fit and a
    later chunk's do not (the third, at seed 6); the refusal's message."""
    monkeypatch.setattr(core, "_STACK_CHUNK", 4)
    efforts = [obs.feasible_set.enumeration_effort()
               for obs in generate_instance_stream(cfg).observations]
    cap = max(efforts[:4])
    late = next(effort for effort in efforts if effort > cap)
    monkeypatch.setattr(core, "DEFAULT_ENUMERATION_CAP", cap)
    return f"enumeration effort {late} exceeds cap {cap}"


def test_a_stream_refused_in_a_later_chunk_leaves_nothing(tmp_path, monkeypatch):
    out = tmp_path / "made" / "out"
    cfg = make_cfg(seed=6, family="dag", dimension=10, rounds=40, holdout=20,
                   save_stream=True, out=str(out))
    message = refused_in_a_later_chunk(monkeypatch, cfg)
    # each chunk's sets are enumerated with the part open, in the
    # directories the run made, and the third chunk's are refused
    written, fill = [], harness_io._fill_members

    def watched(sets):
        written.append((out / "stream.txt.part").is_file())
        fill(sets)

    monkeypatch.setattr(harness_io, "_fill_members", watched)
    with pytest.raises(EnumerationRefusedError) as got:
        run_experiment(cfg)
    assert str(got.value) == message
    assert written == [True] * 3
    assert list(tmp_path.iterdir()) == []


def test_a_failed_run_leaves_an_existing_out_untouched(tmp_path, monkeypatch, capsys):
    out = tmp_path / "out"
    out.mkdir()
    before = {name: f"{name} of an earlier run\n".encode()
              for name in ("stream.txt", "trace.csv", "summary.txt", "prediction.txt",
                           "notes.md")}
    for name, data in before.items():
        (out / name).write_bytes(data)
    args = ["run", "--seed", "6", "--family", "dag", "--dimension", "10",
            "--rounds", "40", "--save-stream", "--out", str(out)]
    message = refused_in_a_later_chunk(
        monkeypatch, make_cfg(seed=6, family="dag", dimension=10, rounds=40))
    assert main(args) == 2
    assert message in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_a_part_left_in_out_is_refused_not_replaced(tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    (out / "stream.txt.part").write_bytes(b"a part of another run\n")
    assert main(["run", "--seed", "7", "--rounds", "20", "--save-stream",
                 "--out", str(out)]) == 2
    assert "stream.txt.part" in capsys.readouterr().err
    assert [p.name for p in out.iterdir()] == ["stream.txt.part"]
    assert (out / "stream.txt.part").read_bytes() == b"a part of another run\n"


def test_stream_refuses_a_round_other_than_its_position(tmp_path, capsys):
    X = ExplicitVertices([[0.0, 1.0], [1.0, 0.0]])
    path = tmp_path / "stream.txt"
    write_stream(path, [Observation(X, [1.0, 0.0])] * 2, np.asarray([1.0, 0.0]))
    lines = path.read_text().splitlines()
    assert [line for line in lines if line.startswith("obs")] == ["obs 1 2", "obs 2 2"]
    lines[3] = "obs 2 2"  # the first observation, numbered as the second
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=f"{path}:4: obs 2 at position 1"):
        read_stream(path)
    assert main(["certify", "--stream", str(path)]) == 2
    assert f"{path}:4:" in capsys.readouterr().err


def write_text(path, text):
    Path(path).write_text(text)
    return path


def test_vector_file_round_trip(tmp_path):
    path = tmp_path / "vec.txt"
    vector = np.asarray([0.1, 0.2, 0.7])
    write_vector(path, vector)
    assert read_vector(path).tobytes() == vector.tobytes()
    assert fmt(None) == ""
    assert float(fmt(1.0 / 3.0)) == 1.0 / 3.0


def test_config_file_and_overrides(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(
        "# comment\nseed = 5\nrounds = 30\nfamily = knapsack\n"
        "agent_noise = 0.25  # inline comment\nsave_stream = true\n"
    )
    values = load_config_file(path)
    cfg = build_config(values, dimension=3)
    assert cfg.seed == 5 and cfg.rounds == 30 and cfg.family == "knapsack"
    assert cfg.agent_noise == 0.25 and cfg.save_stream and cfg.dimension == 3
    cfg2 = build_config(values, rounds=99)
    assert cfg2.rounds == 99
    for line in ("mystery = 1", "enumeration_cap = 8", "plateau_burn_in = 10"):
        path.write_text(f"seed = 5\n{line}\n")
        with pytest.raises(ValueError, match="unknown key"):
            load_config_file(path)
    with pytest.raises(ValueError):
        build_config({})  # seed is mandatory


def test_config_file_retry_cap_is_an_unknown_key(tmp_path, capsys):
    # the retry budget is generate.RETRY_CAP, not a setting
    config = write_text(tmp_path / "exp.cfg", "retry_cap = 5\n")
    args = ["run", "--config", str(config), "--seed", "1", "--rounds", "5",
            "--out", str(tmp_path / "out")]
    assert main(args) == 2
    assert f"{config}:1: unknown key 'retry_cap'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_config_validation_errors():
    with pytest.raises(ValueError):
        ExperimentConfig(seed=1, family="polytope")
    with pytest.raises(ValueError):
        ExperimentConfig(seed=1, gap_mode="margin")
    with pytest.raises(ValueError):
        ExperimentConfig(seed=1, agent_noise=1.5)
    with pytest.raises(ValueError):
        ExperimentConfig(seed=1, dimension=1)


@pytest.mark.parametrize(
    "line, message",
    [
        ("dimension = 5.5", "dimension: invalid literal for int()"),
        ("gap_margin = wide", "gap_margin: could not convert string to float"),
        ("save_stream = maybe", "save_stream: expected a boolean, got 'maybe'"),
    ],
)
def test_config_file_coercion_error_names_file_line_and_key(tmp_path, line, message):
    path = tmp_path / "exp.cfg"
    path.write_text(f"seed = 5\n{line}\n")
    with pytest.raises(ValueError) as info:
        load_config_file(path)
    assert str(info.value).startswith(f"{path}:2: {message}")


@pytest.mark.parametrize("how", ["flag", "file"])
def test_empty_out_writes_nothing(tmp_path, monkeypatch, capsys, how):
    monkeypatch.chdir(tmp_path)
    args = ["run", "--seed", "3", "--dimension", "3", "--rounds", "5"]
    if how == "flag":
        args += ["--out", ""]
    else:
        Path("exp.cfg").write_text("out =\n")
        args += ["--config", "exp.cfg"]
    assert main(args) == 2
    assert "out must be a non-empty" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == (
        [] if how == "flag" else ["exp.cfg"]
    )


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--domain", "ball", "--ball-radius", "nan"], "ball_radius must be"),
        (["--domain", "ball", "--ball-radius", "inf"], "ball_radius must be"),
        # the ball's squared norms overflow past 1e100 and underflow below
        (["--domain", "ball", "--ball-radius", "1e101"],
         "ball_radius must be in [1e-100, 1e100]"),
        (["--domain", "ball", "--ball-radius", "1e-101"],
         "ball_radius must be in [1e-100, 1e100]"),
        (["--gap", "margin", "--gap-margin", "inf"], "gap_margin must be positive and finite"),
        (["--seed", "-1"], "seed must be nonnegative"),
        (["--family", "hypercube", "--dimension", "21", "--gap", "integral"],
         "exceeds cap"),
        (["--gap", "integral", "--gap-margin", "0.5"],
         "gap_margin is read only in margin mode, not gap mode 'integral'"),
        (["--gap-margin", "0.5"],
         "gap_margin is read only in margin mode, not gap mode 'none'"),
    ],
    ids=["ball-radius-nan", "ball-radius-inf", "ball-radius-huge", "ball-radius-tiny",
         "gap-margin-inf", "negative-seed",
         "integral-gap-past-the-cap", "gap-margin-with-integral", "gap-margin-with-none"],
)
def test_out_of_range_config_is_a_named_usage_error(tmp_path, capsys, flags, message):
    out = tmp_path / "out"
    args = ["run", "--seed", "3", "--dimension", "3", "--rounds", "5", "--out", str(out)]
    assert main(args + flags) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("gap", ["integral", "none"])
def test_eval_refuses_a_gap_margin_it_would_ignore(tmp_path, capsys, gap):
    prediction = write_text(tmp_path / "prediction.txt", "0.25 0.25 0.5\n")
    out = tmp_path / "eval.txt"
    assert main([
        "eval", "--seed", "7", "--dimension", "3", "--gap", gap, "--gap-margin",
        "0.5", "--holdout", "50", "--prediction", str(prediction), "--out", str(out),
    ]) == 2
    message = f"gap_margin is read only in margin mode, not gap mode '{gap}'"
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "content, message",
    [
        ("", "non-empty"),
        ("0.5 abc 0.25\n", "'abc'"),
        ("0.5 nan 0.25\n", "finite"),
        ("0.5 0.5\n", "holds 2 entries, the dimension is 3"),
    ],
    ids=["empty", "non-numeric", "non-finite", "wrong-length"],
)
def test_cli_eval_names_a_bad_prediction_file(tmp_path, capsys, content, message):
    path = write_text(tmp_path / "prediction.txt", content)
    code = main([
        "eval", "--seed", "23", "--dimension", "3", "--num-vertices", "6",
        "--holdout", "5", "--prediction", str(path),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert str(path) in err and message in err


def test_cli_run_and_determinism(tmp_path):
    args = [
        "run", "--seed", "21", "--dimension", "3", "--rounds", "40",
        "--family", "knapsack",
    ]
    assert main(args + ["--out", str(tmp_path / "r1")]) == 0
    assert main(args + ["--out", str(tmp_path / "r2")]) == 0
    assert (tmp_path / "r1" / "trace.csv").read_bytes() == (
        tmp_path / "r2" / "trace.csv"
    ).read_bytes()


def test_cli_certify(tmp_path):
    bundle = generate_instance_stream(
        make_cfg(gap_mode="integral", dimension=3, rounds=5)
    )
    stream_path = tmp_path / "stream.txt"
    write_stream(stream_path, bundle.observations, bundle.c_star)
    out = tmp_path / "cert.txt"
    code = main(["certify", "--stream", str(stream_path), "--out", str(out)])
    assert code == 0
    entries = read_summary(out)
    assert entries["satisfied"] == "true"
    assert float(entries["delta"]) > 0.0

    # a tied optimum is reported with exit status 1
    square = ExplicitVertices([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
    tied = [Observation(square, [1.0, 0.0])]
    tied_path = tmp_path / "tied.txt"
    write_stream(tied_path, tied, np.asarray([1.0, 0.0]))
    assert main(["certify", "--stream", str(tied_path)]) == 1
    # missing c_star is a usage error
    write_stream(tmp_path / "nocs.txt", tied)
    assert main(["certify", "--stream", str(tmp_path / "nocs.txt")]) == 2


def test_cli_eval(tmp_path, capsys):
    run_out = tmp_path / "train"
    args = [
        "--seed", "23", "--dimension", "3", "--rounds", "300",
        "--family", "random-vertices", "--num-vertices", "6",
    ]
    assert main(["run"] + args + ["--out", str(run_out)]) == 0
    code = main(
        ["eval"] + args + [
            "--prediction", str(run_out / "prediction.txt"),
            "--holdout", "200", "--out", str(tmp_path / "eval.txt"),
        ]
    )
    assert code == 0
    entries = read_summary(tmp_path / "eval.txt")
    assert entries["samples"] == "200"
    assert float(entries["mean_reference"]) == 0.0
    # the printed lines are the lines of the --out file
    printed = capsys.readouterr().out.splitlines()
    assert printed[-len(entries):] == (tmp_path / "eval.txt").read_text().splitlines()


def test_cli_eval_refuses_save_stream(tmp_path, monkeypatch, capsys):
    # eval writes no stream, so the flag is a usage error rather than ignored
    prediction = tmp_path / "prediction.txt"
    write_vector(prediction, np.full(3, 1.0 / 3.0))
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    with pytest.raises(SystemExit) as exit_info:
        main([
            "eval", "--seed", "7", "--dimension", "3", "--gap", "integral",
            "--holdout", "10", "--save-stream", "--rounds", "5",
            "--prediction", str(prediction),
        ])
    assert exit_info.value.code == 2
    assert "--save-stream" in capsys.readouterr().err
    assert list(work.iterdir()) == []


@pytest.mark.parametrize("line", ["save_stream = true", "out = o"])
def test_cli_eval_refuses_a_config_files_writer_keys(tmp_path, monkeypatch, capsys, line):
    prediction = tmp_path / "prediction.txt"
    write_vector(prediction, np.full(3, 1.0 / 3.0))
    config = write_text(tmp_path / "eval.cfg", line + "\n")
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    args = [
        "eval", "--config", str(config), "--seed", "7", "--dimension", "3",
        "--holdout", "10", "--prediction", str(prediction),
    ]
    assert main(args) == 2
    assert repr(line.split(" = ")[0]) in capsys.readouterr().err
    assert list(work.iterdir()) == []
    # the --out flag names eval's summary file and still writes it
    config.write_text("dimension = 3\n")
    assert main(args + ["--out", "eval.txt"]) == 0
    assert read_summary(work / "eval.txt")["samples"] == "10"


def test_cli_sweep_reads_out_from_the_config_file(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    config = write_text(tmp_path / "sweep.cfg", "out = grid\n")
    args = [
        "sweep", "--config", str(config), "--seed", "31", "--family", "knapsack",
        "--dimension", "3", "--rounds-list", "20",
    ]
    assert main(args) == 0
    assert (tmp_path / "grid" / "sweep_index.csv").is_file()


@pytest.mark.parametrize("flag, values, message", [
    ("--gap-list", "none,bogus", "gap mode must be one of"),
    ("--rounds-list", "50,0", "rounds must be at least 1"),
    ("--rounds-list", "50,x", "--rounds-list: expected integers"),
    ("--rounds-list", ",", "--rounds-list: expected at least one integer"),
    ("--dimension-list", ",", "--dimension-list: expected at least one integer"),
], ids=["gap", "zero-rounds", "not-an-int", "no-rounds", "no-dimensions"])
def test_cli_sweep_bad_grid_value_writes_nothing(tmp_path, capsys, flag, values, message):
    grid = {"--rounds-list": "50", "--dimension-list": "3", "--gap-list": "none"}
    grid[flag] = values
    args = ["sweep", "--seed", "7", "--out", str(tmp_path / "sw")]
    for key, value in grid.items():
        args += [key, value]
    assert main(args) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "sw").exists()


def test_cli_sweep_indexes_a_trial_that_fails_at_run_time(tmp_path, capsys):
    # trial 1 is a 30-cube whose stream cannot be enumerated for saving
    args = [
        "sweep", "--seed", "7", "--family", "hypercube", "--dimension-list", "3,30",
        "--rounds-list", "5", "--save-stream", "--out", str(tmp_path / "sw"),
    ]
    assert main(args) == 2
    lines = (tmp_path / "sw" / "sweep_index.csv").read_text().splitlines()
    assert len(lines) == 3
    assert lines[2].startswith("1,trial001_n30_T5_gapnone,")
    assert lines[2].endswith(",2,,")
    for name in ("stream.txt", "trace.csv", "summary.txt", "prediction.txt"):
        assert (tmp_path / "sw" / "trial000_n3_T5_gapnone" / name).is_file()
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "trial001_n30_T5_gapnone" in err


def test_a_failed_allocation_exits_2_and_writes_nothing(tmp_path, capsys, monkeypatch):
    # exit 1 means a failed certified inequality; a run that cannot get its
    # ledger's memory is an error, as a refused enumeration is
    def refuse(self, *args):
        raise MemoryError("Unable to allocate 7.45 GiB")

    monkeypatch.setattr(analysis.RegretLedger, "__init__", refuse)
    out = tmp_path / "d"
    args = ["run", "--seed", "1", "--rounds", "5", "--save-stream", "--out", str(out)]
    assert main(args) == 2
    assert capsys.readouterr().err.startswith("error: Unable to allocate")
    assert not out.exists()
    # a sweep indexes the trial with exit 2 and goes on to the next
    base = make_cfg(dimension=3, rounds=5, out=str(tmp_path / "sw"))
    assert run_sweep(base, [5, 6], [3], ["none"]) == 2
    lines = (tmp_path / "sw" / "sweep_index.csv").read_text().splitlines()
    assert [line.split(",")[-3:] for line in lines[1:]] == [["2", "", ""]] * 2
    assert capsys.readouterr().err.count("error: ") == 2


def test_cli_sweep_gives_gap_margin_to_its_margin_trials_only(tmp_path):
    args = [
        "sweep", "--seed", "7", "--rounds-list", "50", "--dimension-list", "3",
        "--gap-list", "none,margin", "--gap-margin", "0.05", "--out", str(tmp_path),
    ]
    assert main(args) == 0
    assert len((tmp_path / "sweep_index.csv").read_text().splitlines()) == 3
    margins = {
        name: read_summary(tmp_path / name / "summary.txt")["config.gap_margin"]
        for name in ("trial000_n3_T50_gapnone", "trial001_n3_T50_gapmargin")
    }
    assert margins == {"trial000_n3_T50_gapnone": fmt(0.0),
                       "trial001_n3_T50_gapmargin": fmt(0.05)}


def test_cli_sweep_deterministic(tmp_path):
    args = [
        "sweep", "--seed", "31", "--family", "knapsack", "--dimension", "3",
        "--rounds-list", "20,40", "--dimension-list", "3,4",
        "--gap-list", "none",
    ]
    assert main(args + ["--out", str(tmp_path / "s1")]) == 0
    assert main(args + ["--out", str(tmp_path / "s2")]) == 0
    index1 = (tmp_path / "s1" / "sweep_index.csv").read_bytes()
    assert index1 == (tmp_path / "s2" / "sweep_index.csv").read_bytes()
    lines = index1.decode().splitlines()
    assert len(lines) == 5  # header + 4 trials
    for trial_dir in sorted((tmp_path / "s1").iterdir()):
        if trial_dir.is_dir():
            twin = tmp_path / "s2" / trial_dir.name
            assert (trial_dir / "trace.csv").read_bytes() == (
                twin / "trace.csv"
            ).read_bytes()


def test_cli_error_handling(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["run", "--dimension", "3"]) == 2  # no seed anywhere
    assert main(["sweep", "--seed", "1"]) == 2  # no --out
    # a stream needs a directory to go to
    assert main(["run", "--seed", "1", "--rounds", "20", "--save-stream"]) == 2
    assert "save_stream needs out" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_repeated_knapsack_solves_do_not_grow_with_rounds(monkeypatch):
    from invlinopt import oracle

    solves = [0]
    solve = oracle._knapsack_argmax

    def counting(X, c):
        solves[0] += 1
        return solve(X, c)

    monkeypatch.setattr(oracle, "_knapsack_argmax", counting)
    counts = []
    for rounds in (40, 400):
        solves[0] = 0
        cfg = make_cfg(family="knapsack", dimension=8, gap_mode="integral",
                       fresh_sets=False, rounds=rounds)
        assert run_experiment(cfg).exit_code == 0
        counts.append(solves[0])
    assert counts[0] == counts[1] <= 10


def test_truncated_stream_is_a_named_usage_error(tmp_path, capsys):
    bundle = generate_instance_stream(
        make_cfg(family="knapsack", dimension=3, gap_mode="integral", rounds=5)
    )
    path = tmp_path / "stream.txt"
    write_stream(path, bundle.observations, bundle.c_star)
    text = path.read_bytes()
    cut_path = tmp_path / "cut.txt"
    for cut in range(len(text)):
        cut_path.write_bytes(text[:cut])
        try:
            observations, _ = read_stream(cut_path)
        except ValueError as exc:
            assert str(cut_path) in str(exc)
            continue
        # only a cut at the end of a complete observation's last line
        # parses, and then to a prefix of the stream
        assert b"\n" in (text[cut - 1:cut], text[cut:cut + 1])
        assert 0 < len(observations) <= 5
        for loaded, original in zip(observations, bundle.observations):
            assert loaded.agent_choice.tobytes() == original.agent_choice.tobytes()
    for cut in (20, 60, 150, len(text) // 2, len(text) - 2):
        cut_path.write_bytes(text[:cut])
        assert main(["certify", "--stream", str(cut_path)]) == 2
    err = capsys.readouterr().err
    assert f"{cut_path}:" in err


def test_save_stream_refusal_writes_no_outputs(tmp_path, capsys):
    out = tmp_path / "out"
    code = main([
        "run", "--seed", "1", "--family", "hypercube", "--dimension", "30",
        "--rounds", "3", "--save-stream", "--out", str(out),
    ])
    assert code == 2
    assert "exceeds cap" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("schedule", ["adaptive", "offset"])
@pytest.mark.parametrize(
    "setup",
    [
        dict(family="random-vertices"),
        dict(family="dag", dimension=10, domain="ball", agent_noise=0.2),
    ],
    ids=["rv-simplex", "dag-ball"],
)
def test_prediction_equals_a_fresh_solve_after_every_round(setup, schedule):
    from invlinopt import init_learner, play
    from invlinopt.harness.generate import build_domain, diameter_bound

    bundle = generate_instance_stream(make_cfg(schedule=schedule, rounds=150, **setup))
    cfg = bundle.config
    start = init_learner(build_domain(cfg), schedule, diameter_bound(cfg))
    # played one round at a time, the state after every round holds the
    # prediction a fresh solve gives, and the rounds join into the columns
    # of the whole stream played at once
    state, rounds = start, []
    for obs in bundle.observations:
        state, played = play(state, [obs])
        rounds.append(played)
        assert state.current_prediction.tobytes() == predict(state).tobytes()
    whole_state, whole = play(start, bundle.observations)
    for name, column in whole.items():
        joined = np.concatenate([played[name] for played in rounds])
        assert column.tobytes() == joined.tobytes(), name
    assert whole_state.current_prediction.tobytes() == state.current_prediction.tobytes()
    # both kinds of update happened
    zero_rounds = np.count_nonzero(~whole["g"].any(axis=1))
    assert 0 < zero_rounds < len(bundle.observations)


@pytest.mark.parametrize("family", ["dag", "random-vertices"])
def test_repeated_stream_answers_its_one_set_once(family, monkeypatch):
    from invlinopt import oracle

    # single-set _dag_path calls, and rows of batched vertex and DAG sets
    counts = {"paths": 0, "rows": 0}
    dag_path, vertex_rows, dag_rows = oracle._dag_path, oracle._vertex_rows, oracle._dag_rows

    def counting_paths(X, c):
        counts["paths"] += 1
        return dag_path(X, c)

    def counting_rows(fill):
        def counted(sets, c, rows):
            counts["rows"] += len(sets)
            return fill(sets, c, rows)
        return counted

    monkeypatch.setattr(oracle, "_dag_path", counting_paths)
    monkeypatch.setattr(oracle, "_vertex_rows", counting_rows(vertex_rows))
    monkeypatch.setattr(oracle, "_dag_rows", counting_rows(dag_rows))
    cfg = make_cfg(family=family, dimension=10, rounds=600, fresh_sets=False)
    bundle = generate_instance_stream(cfg)
    assert len({id(obs.feasible_set) for obs in bundle.observations}) == 1
    # the 600 optimal choices are one answer, solved once and not batched
    assert counts == {"paths": int(family == "dag"), "rows": 0}
    assert len({row.tobytes() for row in bundle.optimal_choices}) == 1


def test_fresh_optimal_rounds_make_two_solves_each(monkeypatch):
    from invlinopt import oracle
    from invlinopt.harness import generate

    # one answer per argmax solve, and one per set argmax_many answers
    # (its stacked scan calls no _solve; other families pass through argmax)
    answers = [0]
    solve = oracle._solve
    many = oracle.argmax_many

    def counting(X, c):
        answers[0] += 1
        return solve(X, c)

    def counting_many(sets, c):
        answers[0] += sum(isinstance(X, ExplicitVertices) for X in sets)
        return many(sets, c)

    monkeypatch.setattr(oracle, "_solve", counting)
    monkeypatch.setattr(oracle, "argmax_many", counting_many)
    monkeypatch.setattr(generate, "argmax_many", counting_many)
    cfg = make_cfg(dimension=10, num_vertices=32, rounds=200)
    bundle = generate_instance_stream(cfg)
    ledger = simulate(bundle)
    assert answers[0] == 400
    # a replay of caller observations solves their optimal choices itself
    # and yields the same ledger
    observations = list(bundle.observations)
    replayed = simulate(bundle._replace(observations=observations, optimal_choices=(
        oracle.argmax_many([obs.feasible_set for obs in observations], bundle.c_star))))
    assert answers[0] == 800
    for name, column in ledger.columns.items():
        assert column.tobytes() == replayed.columns[name].tobytes(), name
    answers[0] = 0
    assert run_experiment(cfg).exit_code == 0
    assert answers[0] == 400


def test_a_margin_on_the_ball_uses_the_norm_of_one_row(tmp_path, capsys):
    # the margin's Euclidean distances are stacked row norms with the bits
    # of NormPair.primal; the summed-square form ended this delta in ...181
    out = tmp_path / "run"
    assert main([
        "run", "--family", "random-vertices", "--dimension", "6",
        "--num-vertices", "12", "--gap", "margin", "--gap-margin", "0.02",
        "--domain", "ball", "--rounds", "300", "--seed", "23", "--out", str(out),
    ]) == 0
    assert read_summary(out / "summary.txt")["gap.delta"] == "0.020282381815941178"


# The process entry, run in a child interpreter.

ROOT = Path(__file__).resolve().parent.parent

NOISY_DAG = ["--seed", "7", "--family", "dag", "--dimension", "10", "--domain", "ball",
             "--schedule", "offset", "--agent-noise", "0.1", "--rounds", "300",
             "--holdout", "300", "--save-stream"]


def test_the_process_entry_writes_the_bytes_of_main(tmp_path, capsys):
    child = subprocess.run(
        [sys.executable, "-m", "invlinopt.harness.cli",
         "run", *NOISY_DAG, "--out", str(tmp_path / "child")],
        env=child_env(), capture_output=True, text=True)
    assert child.returncode == 0, child.stderr
    assert main(["run", *NOISY_DAG, "--out", str(tmp_path / "main")]) == 0
    printed = capsys.readouterr().out
    assert child.stdout.replace(str(tmp_path / "child"), str(tmp_path / "main")) == printed
    for fname in test_golden.OUTPUT_FILES:
        assert (tmp_path / "child" / fname).read_bytes() == (
            tmp_path / "main" / fname).read_bytes(), fname


SMALL_RUN = ["run", "--seed", "7", "--dimension", "3", "--rounds", "20"]


# The entry in a child whose atexit handler, which runs after main and
# before the interpreter's last collection, reports the frozen objects.
# --fail-a-check adds a failed check to the run's verdict.
ENTRY_CHILD = """
import atexit, gc, sys
from invlinopt import analysis
from invlinopt.harness import cli

if sys.argv[1] == "--fail-a-check":
    del sys.argv[1]
    checks = analysis.verify_run
    def failing(ledger, *args, **kwargs):
        return checks(ledger, *args, **kwargs) + [
            analysis.BoundCheck("forced", ledger.rounds, 1.0, 0.0, False)]
    analysis.verify_run = failing
print("frozen before:", gc.get_freeze_count())
atexit.register(lambda: print("frozen at exit:", gc.get_freeze_count() > 0))
cli.entry()
"""


@pytest.mark.parametrize("args, status, message", [
    (SMALL_RUN, 0, "status: ok"),
    (["--fail-a-check"] + SMALL_RUN, 1, "failed: forced"),
    (SMALL_RUN + ["--gap", "integral", "--gap-margin", "0.5"], 2,
     "error: gap_margin is read only in margin mode"),
    (SMALL_RUN + ["--bogus"], 2, "unrecognized arguments: --bogus"),
], ids=["ok", "failed-check", "usage", "argparse"])
def test_the_process_entry_keeps_the_status_and_freezes_on_every_way_out(
        args, status, message):
    child = subprocess.run([sys.executable, "-c", ENTRY_CHILD, *args],
                           env=child_env(), capture_output=True, text=True)
    assert child.returncode == status, child.stderr
    assert message in child.stdout + child.stderr
    lines = child.stdout.splitlines()
    assert lines[0] == "frozen before: 0"
    assert lines[-1] == "frozen at exit: True"


def test_main_in_process_freezes_nothing(tmp_path, capsys):
    before = gc.get_freeze_count()
    assert main([*SMALL_RUN, "--out", str(tmp_path / "run")]) == 0
    with pytest.raises(SystemExit):
        main([*SMALL_RUN, "--bogus"])
    assert gc.get_freeze_count() == before


def test_the_installed_command_is_the_process_entry():
    pyproject = tomllib.loads((ROOT / "pyproject.toml").read_text())
    module, _, name = pyproject["project"]["scripts"]["invlinopt"].partition(":")
    target = getattr(importlib.import_module(module), name)
    # the one statement of cli's `if __name__ == "__main__":` block calls it
    tree = ast.parse(Path(cli.__file__).read_text())
    (block,) = [node for node in tree.body if isinstance(node, ast.If)
                and ast.unparse(node.test) == "__name__ == '__main__'"]
    (statement,) = block.body
    call = statement.value
    assert isinstance(call, ast.Call) and not call.args and not call.keywords
    assert getattr(cli, call.func.id) is target
    # and it holds src/'s one collector freeze
    src = Path(invlinopt.__file__).resolve().parent
    freezes = [path for path in src.rglob("*.py")
               for line in path.read_text().splitlines() if "gc.freeze(" in line]
    assert freezes == [Path(cli.__file__).resolve()]
    assert "gc.freeze()" in inspect.getsource(target)


def test_the_process_entry_imports_no_dataclasses():
    # src/'s records are NamedTuples: generating dataclass methods, one exec
    # each, cost every process about 9 ms of start-up
    child = subprocess.run(
        [sys.executable, "-c",
         "import sys, invlinopt.harness.cli; print('dataclasses' in sys.modules)"],
        env=child_env(), capture_output=True, text=True)
    assert child.returncode == 0, child.stderr
    assert child.stdout == "False\n"
