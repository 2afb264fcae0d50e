"""Exact argmax oracles: examples, cross-checks, ties, determinism."""

from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from invlinopt import (
    DagPaths,
    DimensionMismatchError,
    ExplicitVertices,
    Hypercube,
    Knapsack,
    argmax,
    argmax_many,
)
from invlinopt import core, oracle
from invlinopt.core import tolerance

from conftest import FAMILIES, dag_paths, random_feasible_set, time_limit
from reference import argmax_bruteforce, contains, inner_product, optimal_value


def test_hypercube_sign_rule():
    c = [1.0, -2.0, 0.0]
    result = argmax(Hypercube(3), c)
    assert tuple(result.maximizer) == (1.0, 0.0, 0.0)
    assert optimal_value(result, c) == 1.0
    assert result.tie_count == 2  # the zero coordinate doubles the argmax set


def test_explicit_scan():
    X = ExplicitVertices([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    c = [0.3, 0.7]
    result = argmax(X, c)
    assert tuple(result.maximizer) == (0.0, 1.0)
    assert abs(optimal_value(result, c) - 0.7) < 1e-15


def test_knapsack_dp():
    c = [5.0, 4.0]
    result = argmax(Knapsack([2, 2], 3), c)
    assert tuple(result.maximizer) == (1.0, 0.0)
    assert optimal_value(result, c) == 5.0


def test_knapsack_zero_weight_and_negative_items():
    # zero-weight positive item always packs; negative items never do
    c = [2.0, 9.0, -1.0]
    result = argmax(Knapsack([0, 3, 1], 2), c)
    assert tuple(result.maximizer) == (1.0, 0.0, 0.0)
    assert optimal_value(result, c) == 2.0


def test_bruteforce_lexicographic_ties():
    result = argmax_bruteforce(Hypercube(2), [0.0, 0.0])
    assert tuple(result.maximizer) == (0.0, 0.0)
    assert result.tie_count == 4


def test_dag_parallel_arcs():
    dag = DagPaths(2, [(0, 1), (0, 1)])
    c = [1.0, 1.0]
    brute = argmax_bruteforce(dag, c)
    assert tuple(brute.maximizer) == (0.0, 1.0)  # lexicographically smaller
    fast = argmax(dag, c)
    assert optimal_value(fast, c) == optimal_value(brute, c) == 1.0
    # first-found predecessor wins inside the dp
    assert tuple(fast.maximizer) == (1.0, 0.0)


def test_dag_longest_path():
    dag = DagPaths(4, [(0, 1), (1, 2), (2, 3), (0, 3), (1, 3)])
    c = [1.0, 1.0, 1.0, 2.5, 3.0]
    result = argmax(dag, c)
    brute = argmax_bruteforce(dag, c)
    assert optimal_value(result, c) == optimal_value(brute, c) == 4.0
    assert tuple(result.maximizer) == (1.0, 0.0, 0.0, 0.0, 1.0)


def test_optimality_against_enumeration():
    rng = np.random.default_rng(10)
    for family in FAMILIES:
        for _ in range(40):
            X = random_feasible_set(rng, family)
            c = rng.standard_normal(X.dimension)
            result = argmax(X, c)
            value = optimal_value(result, c)
            assert contains(X, result.maximizer)
            assert abs(value - inner_product(c, result.maximizer)) <= tolerance(value)
            values = X.members() @ c
            assert value >= values.max() - tolerance(float(values.max()))


def test_value_agreement_with_bruteforce():
    rng = np.random.default_rng(11)
    for family in FAMILIES:
        for _ in range(60):
            X = random_feasible_set(rng, family)
            c = rng.standard_normal(X.dimension)
            fast = argmax(X, c)
            brute = argmax_bruteforce(X, c)
            assert abs(optimal_value(fast, c) - optimal_value(brute, c)) <= 1e-12
            if brute.tie_count == 1 and family in ("explicit", "hypercube"):
                assert np.array_equal(fast.maximizer, brute.maximizer)


@pytest.mark.parametrize("family", ["explicit", "hypercube"])
def test_scan_oracles_match_the_bruteforce_with_ties(family):
    # integral vertices and objectives in {-1, 0, 1} with zero entries make
    # exact ties common, so the tie rule itself is compared
    rng = np.random.default_rng(15)
    ties = 0
    for _ in range(300):
        n = int(rng.integers(1, 6))
        c = rng.integers(-1, 2, size=n).astype(np.float64)
        if family == "hypercube":
            X = Hypercube(n)
        else:
            m = int(rng.integers(1, 12))
            X = ExplicitVertices(rng.integers(-2, 3, size=(m, n)).astype(np.float64))
        brute = argmax_bruteforce(X, c)
        for fast in (argmax(X, c).maximizer, argmax_many([X], c)[0]):
            assert fast.tobytes() == brute.maximizer.tobytes()
        assert argmax(X, c).tie_count == brute.tie_count
        ties += brute.tie_count > 1
    assert ties >= 50


def test_scale_invariance_power_of_two():
    # powers of two scale float comparisons exactly, so the tie-break
    # path, and hence the maximizer, cannot move
    rng = np.random.default_rng(12)
    for family in FAMILIES:
        for _ in range(25):
            X = random_feasible_set(rng, family)
            c = rng.standard_normal(X.dimension)
            base = argmax(X, c)
            for alpha in (0.5, 2.0, 4.0):
                scaled = argmax(X, alpha * c)
                assert np.array_equal(scaled.maximizer, base.maximizer)
                value = optimal_value(scaled, alpha * c)
                assert abs(value - alpha * optimal_value(base, c)) <= tolerance(value)


def test_every_answer_is_read_only_and_folded():
    # a vertex set's answer is a view of its own rows, uncopied; the other
    # families answer with fresh arrays, frozen in place
    rng = np.random.default_rng(12)
    for family in FAMILIES:
        for _ in range(20):
            X = random_feasible_set(rng, family)
            c = rng.standard_normal(X.dimension)
            c[rng.random(X.dimension) < 0.3] = -0.0
            x = argmax(X, c).maximizer
            assert not x.flags.writeable
            assert x.tobytes() == (x + 0.0).tobytes()
            if family == "explicit":
                assert np.shares_memory(x, X.vertices)


def test_determinism_bitwise():
    rng = np.random.default_rng(13)
    for family in FAMILIES:
        X = random_feasible_set(rng, family)
        c = rng.standard_normal(X.dimension)
        first = argmax(X, c)
        for second in (argmax(X, c), oracle._solve(X, c)):
            assert first.maximizer.tobytes() == second.maximizer.tobytes()
            assert optimal_value(first, c) == optimal_value(second, c)
            assert first.tie_count == second.tie_count


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        argmax(Hypercube(3), [1.0, 2.0])
    with pytest.raises(DimensionMismatchError):
        argmax_bruteforce(Hypercube(3), [1.0, 2.0])


# two distinct sets of dimension 2 per family, so argmax_many batches the
# vertex and DAG pairs
NON_FINITE_PAIRS = {
    "explicit": lambda: [ExplicitVertices(np.eye(2)), ExplicitVertices(np.eye(2)[::-1])],
    "hypercube": lambda: [Hypercube(2), Hypercube(2)],
    "knapsack": lambda: [Knapsack([1, 1], 1), Knapsack([1, 2], 2)],
    "dag": lambda: [DagPaths(3, [(0, 1), (1, 2)]), DagPaths(3, [(0, 2), (0, 1)])],
}


@pytest.mark.parametrize("answer", ["argmax", "argmax_many"])
@pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("family", sorted(NON_FINITE_PAIRS))
def test_non_finite_objectives_are_refused(family, entry, answer):
    # a DAG's walk back from the sink once looped forever on these
    sets = NON_FINITE_PAIRS[family]()
    c = np.array([entry, 1.0])
    with time_limit(5), pytest.raises(ValueError) as got:
        argmax(sets[0], c) if answer == "argmax" else argmax_many(sets, c)
    assert str(got.value) == "objective entries must be finite"


def assert_optimal(X, c, result):
    """result is a member of X whose value agrees with brute force."""
    assert contains(X, result.maximizer)
    brute = argmax_bruteforce(X, c)
    assert abs(optimal_value(result, c) - optimal_value(brute, c)) <= 1e-12


def test_signed_zero_objectives_match_bruteforce_and_plus_zero():
    rng = np.random.default_rng(14)
    for family in FAMILIES:
        for _ in range(2):
            X = random_feasible_set(rng, family)
            c = rng.standard_normal(X.dimension)
            zeros = np.zeros(X.dimension)
            neg_first = c.copy()
            neg_first[0] = -0.0
            pos_first = c.copy()
            pos_first[0] = 0.0
            for objective in (c, zeros, -zeros, neg_first, pos_first, 2.0 * c):
                assert_optimal(X, objective, argmax(X, objective))
            # -0.0 and +0.0 compare equal, so every tie rule picks the same member
            for neg, pos in ((-zeros, zeros), (neg_first, pos_first)):
                assert argmax(X, neg).maximizer.tobytes() == \
                    argmax(X, pos).maximizer.tobytes()


def test_argmax_reads_an_objective_mutated_in_place():
    X = Knapsack([2, 3, 4], 5)
    c = np.array([3.0, 4.0, 5.0])
    assert tuple(argmax(X, c).maximizer) == (1.0, 1.0, 0.0)
    c[0] = -1.0  # same array object, new contents
    assert tuple(argmax(X, c).maximizer) == (0.0, 0.0, 1.0)
    assert_optimal(X, c, argmax(X, c))


# argmax_many: one objective over many sets, bitwise argmax per set.

# integral entries and signed zeros, so exact ties and duplicate rows are common
VERTEX_POOL = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.0])
OBJECTIVE_POOL = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 3.0]),
    st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False),
)


@st.composite
def sets_of_dimension(draw, n):
    kind = draw(st.sampled_from(["explicit"] * 5 + ["hypercube", "knapsack", "dag"]))
    if kind == "explicit":
        # few row counts, so runs of one shape alternate with other shapes
        m = draw(st.sampled_from([1, 3, 4, 4, 4, 6]))
        return ExplicitVertices(draw(hnp.arrays(np.float64, (m, n), elements=VERTEX_POOL)))
    if kind == "hypercube":
        return Hypercube(n)
    if kind == "knapsack":
        weights = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
        return Knapsack(weights, draw(st.integers(0, sum(weights))))
    nodes = draw(st.integers(2, min(n + 1, 4)))
    arcs = [(i, i + 1) for i in range(nodes - 1)]
    while len(arcs) < n:
        u = draw(st.integers(0, nodes - 2))
        arcs.append((u, draw(st.integers(u + 1, nodes - 1))))
    return DagPaths(nodes, arcs)


@contextmanager
def stack_chunk(size):
    previous = core._STACK_CHUNK
    core._STACK_CHUNK = size
    try:
        yield
    finally:
        core._STACK_CHUNK = previous


def assert_many_matches_argmax(sets, c):
    got = argmax_many(sets, c)
    # one read-only answer array, row i for sets[i]
    assert got.shape == (len(sets), c.size) and got.dtype == np.float64
    assert got.flags.writeable is False
    for X, x in zip(sets, got):
        assert x.tobytes() == argmax(X, c).maximizer.tobytes()
        assert x.shape == (X.dimension,) and not x.flags.writeable


@st.composite
def dag_group(draw, n):
    """Up to four DAGs with n arcs on one node count, with dead ends,
    unreachable nodes and parallel arcs, built by the public constructor or
    by _of_row from the rows of one block."""
    nodes = draw(st.integers(2, 6))
    dags = draw(st.lists(dag_paths(num_arcs=n, num_nodes=nodes), min_size=1, max_size=4))
    if draw(st.booleans()):
        block = np.array([X.arcs for X in dags], dtype=np.intp)
        dags = [DagPaths._of_row(nodes, row) for row in block]
    return dags


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_argmax_many_equals_argmax_per_set(data):
    n = data.draw(st.integers(1, 5))
    c = data.draw(hnp.arrays(np.float64, n, elements=OBJECTIVE_POOL))
    # set objects come again, in a row and later on, as in [X, X, Y, X];
    # public and block-born DAGs of one shape share batches
    sets = []
    group = st.one_of(sets_of_dimension(n).map(lambda X: [X]), dag_group(n))
    for X in [X for g in data.draw(st.lists(group, max_size=12)) for X in g]:
        sets += [X] * data.draw(st.integers(1, 3))
        if data.draw(st.booleans()):
            sets.append(data.draw(st.sampled_from(sets)))
    # small chunks make short lists cross several chunk boundaries
    with stack_chunk(data.draw(st.sampled_from([1, 2, 3, core._STACK_CHUNK]))):
        assert_many_matches_argmax(sets, c)


def test_argmax_many_solves_a_repeated_set_once_per_run(monkeypatch):
    X, Y, H = Knapsack([1, 2, 3], 3), Knapsack([3, 2, 1], 3), Hypercube(3)
    V, W = ExplicitVertices(np.eye(3)), ExplicitVertices(np.eye(3)[::-1])
    D, E = DagPaths(3, [(0, 1), (1, 2), (0, 2)]), DagPaths(3, [(0, 2), (0, 1), (1, 2)])
    c = np.array([1.0, 1.5, 0.5])
    # runs of repeats of every family, between batches of distinct sets
    sets = [X, X, Y, X, H, H, X, V, V, V, W, V, D, D, D, E, D, W, W]
    expected = [argmax(S, c).maximizer.tobytes() for S in sets]
    assert len(set(expected)) == 4
    solved, batched, dag_batched = [], [], []
    solve, vertex_rows, dag_rows = oracle._solve, oracle._vertex_rows, oracle._dag_rows

    def counting(S, c):
        solved.append(S)
        return solve(S, c)

    def counting_rows(batch, c, rows):
        batched.append(list(batch))
        return vertex_rows(batch, c, rows)

    def counting_dag_rows(batch, c, rows):
        dag_batched.append(list(batch))
        return dag_rows(batch, c, rows)

    monkeypatch.setattr(oracle, "_solve", counting)
    monkeypatch.setattr(oracle, "_vertex_rows", counting_rows)
    monkeypatch.setattr(oracle, "_dag_rows", counting_dag_rows)
    assert [x.tobytes() for x in argmax_many(sets, c)] == expected
    # a batch stops before a set that repeats, and a run of repeats is
    # answered once
    assert solved == [X, Y, X, H, X, V, D, W]
    assert batched == [[W, V]]
    assert dag_batched == [[E, D]]


def test_argmax_many_across_chunks_of_the_real_size():
    rng = np.random.default_rng(21)
    n = 6
    sets = []
    for k in range(2 * core._STACK_CHUNK + 7):
        if k % 97 == 0:
            sets.append(Knapsack(rng.integers(0, 5, size=n), 6))
        else:
            m = 12 if k % 50 else 9  # shape changes break the stacked runs
            integral = k % 3 == 0  # integral rows tie under integral objectives
            vertices = (rng.integers(0, 2, size=(m, n)).astype(float) if integral
                        else rng.random((m, n)))
            sets.append(ExplicitVertices(vertices))
    for c in (rng.standard_normal(n), np.array([1.0, 1.0, 0.0, -0.0, 2.0, 1.0])):
        assert_many_matches_argmax(sets, c)
    assert argmax_many([], rng.standard_normal(n)).shape == (0, n)


def test_vertex_batches_read_consecutive_block_rows_in_place(monkeypatch):
    rng = np.random.default_rng(5)
    block = rng.random((600, 5, 3))
    # a repeated lead entry keeps the row; a repeated row is deduplicated
    # into a copy of another shape, which ends the run of block rows
    block[::7, 1, 0] = block[::7, 0, 0]
    block[::97, 1] = block[::97, 0]
    sets = ExplicitVertices._from_block(block)
    # a public set of the same shape joins a batch but is no block row
    sets[300] = ExplicitVertices(block[300])
    stacks = []
    vertex_stack = oracle._vertex_stack

    def recording(batch):
        stack = vertex_stack(batch)
        stacks.append((batch, stack))
        return stack

    monkeypatch.setattr(oracle, "_vertex_stack", recording)
    assert_many_matches_argmax(sets, rng.standard_normal(3))
    # either way the stack holds exactly the batch's vertices
    for batch, stack in stacks:
        assert stack.tobytes() == np.stack([X.vertices for X in batch]).tobytes()
    in_place = [stack.base is block for _, stack in stacks]
    assert any(in_place) and not all(in_place)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_argmax_many_over_dags_equals_argmax_and_bruteforce(data):
    n = data.draw(st.integers(1, 8))
    c = data.draw(hnp.arrays(np.float64, n, elements=OBJECTIVE_POOL))
    dag = dag_paths(num_arcs=n)
    sets = data.draw(st.lists(st.one_of(dag, dag, sets_of_dimension(n)), max_size=12))
    with stack_chunk(data.draw(st.sampled_from([1, 2, 3, core._STACK_CHUNK]))):
        assert_many_matches_argmax(sets, c)
        got = argmax_many(sets, c)
    # halves and integers below 2**52 add exactly, so any order of summing
    # gives the same optimum
    exact = np.array_equal(2.0 * c, np.round(2.0 * c))
    for X, x in zip(sets, got):
        if isinstance(X, DagPaths):
            assert contains(X, x)
            value = inner_product(x, c)
            best = optimal_value(argmax_bruteforce(X, c), c)
            if exact:
                assert value == best
            else:
                assert abs(value - best) <= 1e-12 * (1 + abs(best))


def test_argmax_many_dags_across_chunks_of_the_real_size():
    rng = np.random.default_rng(23)
    n = 7
    sets = []
    for k in range(2 * core._STACK_CHUNK + 7):
        if k % 97 == 0:
            sets.append(Knapsack(rng.integers(0, 5, size=n), 6))
        elif k % 50 == 0:
            sets.append(ExplicitVertices(rng.random((5, n))))
        else:
            arcs = [(0, 1), (1, 2), (2, 3)]
            while len(arcs) < n:
                u = int(rng.integers(0, 3))
                arcs.append((u, int(rng.integers(u + 1, 4))))
            sets.append(DagPaths(4, arcs))
    for c in (rng.standard_normal(n), np.array([1.0, 1.0, 0.0, -0.0, 2.0, 1.0, 1.0]),
              np.zeros(n)):
        assert_many_matches_argmax(sets, c)


DIMENSION_CASES = {
    "explicit": lambda rng: ExplicitVertices(rng.random((4, 2))),
    "knapsack": lambda rng: Knapsack([1, 2], 2),
    "dag": lambda rng: DagPaths(3, [(0, 1), (1, 2)]),
}


@pytest.mark.parametrize("family", sorted(DIMENSION_CASES))
def test_argmax_many_dimension_mismatch_is_argmax_error(family):
    rng = np.random.default_rng(22)
    good = ([ExplicitVertices(rng.random((4, 3))) for _ in range(3)]
            + [DagPaths(3, [(0, 1), (1, 2), (0, 2)]) for _ in range(3)])
    bad = DIMENSION_CASES[family](rng)
    c = rng.standard_normal(3)
    with pytest.raises(DimensionMismatchError) as single:
        argmax(bad, c)
    with pytest.raises(DimensionMismatchError) as many:
        argmax_many(good + [bad] + good, c)
    assert str(many.value) == str(single.value)
