"""Exact argmax oracles: examples, cross-checks, ties, determinism, the memo."""

import sys
import threading
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
    argmax_bruteforce,
    argmax_many,
    inner_product,
)
from invlinopt import oracle
from invlinopt.core import tolerance

from conftest import FAMILIES, dag_paths, random_feasible_set


def test_hypercube_sign_rule():
    result = argmax(Hypercube(3), [1.0, -2.0, 0.0])
    assert tuple(result.maximizer) == (1.0, 0.0, 0.0)
    assert result.optimal_value == 1.0
    assert result.tie_count == 2  # the zero coordinate doubles the argmax set


def test_explicit_scan():
    X = ExplicitVertices([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    result = argmax(X, [0.3, 0.7])
    assert tuple(result.maximizer) == (0.0, 1.0)
    assert abs(result.optimal_value - 0.7) < 1e-15


def test_knapsack_dp():
    result = argmax(Knapsack([2, 2], 3), [5.0, 4.0])
    assert tuple(result.maximizer) == (1.0, 0.0)
    assert result.optimal_value == 5.0


def test_knapsack_zero_weight_and_negative_items():
    # zero-weight positive item always packs; negative items never do
    result = argmax(Knapsack([0, 3, 1], 2), [2.0, 9.0, -1.0])
    assert tuple(result.maximizer) == (1.0, 0.0, 0.0)
    assert result.optimal_value == 2.0


def test_bruteforce_lexicographic_ties():
    result = argmax_bruteforce(Hypercube(2), [0.0, 0.0])
    assert tuple(result.maximizer) == (0.0, 0.0)
    assert result.tie_count == 4


def test_dag_parallel_arcs():
    dag = DagPaths(2, [(0, 1), (0, 1)])
    brute = argmax_bruteforce(dag, [1.0, 1.0])
    assert tuple(brute.maximizer) == (0.0, 1.0)  # lexicographically smaller
    fast = argmax(dag, [1.0, 1.0])
    assert fast.optimal_value == brute.optimal_value == 1.0
    # first-found predecessor wins inside the dp
    assert tuple(fast.maximizer) == (1.0, 0.0)


def test_dag_longest_path():
    dag = DagPaths(4, [(0, 1), (1, 2), (2, 3), (0, 3), (1, 3)])
    result = argmax(dag, [1.0, 1.0, 1.0, 2.5, 3.0])
    brute = argmax_bruteforce(dag, [1.0, 1.0, 1.0, 2.5, 3.0])
    assert result.optimal_value == brute.optimal_value == 4.0
    assert tuple(result.maximizer) == (1.0, 0.0, 0.0, 0.0, 1.0)


def test_optimality_against_enumeration():
    rng = np.random.default_rng(10)
    for family in FAMILIES:
        for _ in range(40):
            X = random_feasible_set(rng, family)
            c = rng.standard_normal(X.dimension)
            result = argmax(X, c)
            assert X.contains(result.maximizer)
            assert abs(result.optimal_value - inner_product(c, result.maximizer)) \
                <= tolerance(result.optimal_value)
            values = X.members() @ c
            assert result.optimal_value >= values.max() - tolerance(float(values.max()))


def test_value_agreement_with_bruteforce():
    rng = np.random.default_rng(11)
    for family in FAMILIES:
        for _ in range(60):
            X = random_feasible_set(rng, family)
            c = rng.standard_normal(X.dimension)
            fast = argmax(X, c)
            brute = argmax_bruteforce(X, c)
            assert abs(fast.optimal_value - brute.optimal_value) <= 1e-12
            if brute.tie_count == 1 and family in ("explicit", "hypercube"):
                assert np.array_equal(fast.maximizer, brute.maximizer)


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
                assert abs(scaled.optimal_value - alpha * base.optimal_value) \
                    <= tolerance(scaled.optimal_value)


def test_determinism_bitwise():
    rng = np.random.default_rng(13)
    for family in FAMILIES:
        X = random_feasible_set(rng, family)
        c = rng.standard_normal(X.dimension)
        first = argmax(X, c)
        # the second argmax call is a memo hit; the solver runs fresh too
        for second in (argmax(X, c), oracle._solve(X, c)):
            assert first.maximizer.tobytes() == second.maximizer.tobytes()
            assert first.optimal_value == second.optimal_value
            assert first.tie_count == second.tie_count


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        argmax(Hypercube(3), [1.0, 2.0])
    with pytest.raises(DimensionMismatchError):
        argmax_bruteforce(Hypercube(3), [1.0, 2.0])


# The memo inside argmax: every answer must equal a fresh solve.

FRESH_SOLVERS = {
    ExplicitVertices: lambda X, c: oracle._scan(X.vertices, c),
    Hypercube: oracle._hypercube_argmax,
    Knapsack: oracle._knapsack_argmax,
    DagPaths: oracle._dag_argmax,
}


def assert_fresh(X, c, result):
    """result is bitwise the per-variant solve and agrees with brute force."""
    c = np.asarray(c, dtype=np.float64)
    fresh = FRESH_SOLVERS[type(X)](X, c)
    assert result.maximizer.tobytes() == fresh.maximizer.tobytes()
    assert np.float64(result.optimal_value).tobytes() == \
        np.float64(fresh.optimal_value).tobytes()
    assert result.tie_count == fresh.tie_count
    brute = argmax_bruteforce(X, c)
    assert abs(result.optimal_value - brute.optimal_value) <= 1e-12


def memo_cases(rng, sets_per_family=2):
    """(set, objectives) pairs: more sets than the memo holds, signed zeros,
    and equal-valued objectives that are distinct arrays."""
    cases = []
    for family in FAMILIES:
        for _ in range(sets_per_family):
            X = random_feasible_set(rng, family)
            c = rng.standard_normal(X.dimension)
            zeros = np.zeros(X.dimension)
            neg_first = c.copy()
            neg_first[0] = -0.0
            pos_first = c.copy()
            pos_first[0] = 0.0
            objectives = [c, c.copy(), zeros, -zeros, neg_first, pos_first, 2.0 * c]
            cases.append((X, objectives))
    assert len(cases) > oracle._MEMO_SIZE
    return cases


def test_memo_interleaved_objectives_match_fresh_solves():
    rng = np.random.default_rng(14)
    cases = memo_cases(rng)
    calls = [(X, c) for X, objectives in cases for c in objectives]
    # a shuffled order mostly evicts; short cycles on one set mostly hit
    for k in rng.permutation(len(calls)):
        assert_fresh(*calls[k], argmax(*calls[k]))
    for X, objectives in cases:
        for c in objectives * 3:
            assert_fresh(X, c, argmax(X, c))
        for c in [objectives[2], objectives[3]] * 3:  # +0.0 against -0.0
            assert_fresh(X, c, argmax(X, c))


def test_memo_keys_on_contents_not_the_objective_object():
    X = Knapsack([2, 3, 4], 5)
    c = np.array([3.0, 4.0, 5.0])
    assert tuple(argmax(X, c).maximizer) == (1.0, 1.0, 0.0)
    c[0] = -1.0  # same array object, new contents
    assert tuple(argmax(X, c).maximizer) == (0.0, 0.0, 1.0)
    assert_fresh(X, c, argmax(X, c))


def test_memo_never_confuses_sets_whose_ids_are_recycled():
    # each set dies right after its call; the memo must not answer a new
    # set that reuses a dead set's id
    rng = np.random.default_rng(15)
    for _ in range(200):
        vertices = rng.integers(0, 3, size=(5, 3)).astype(float)
        c = np.array([1.0, 0.5, 0.25])
        result = argmax(ExplicitVertices(vertices), c)
        assert_fresh(ExplicitVertices(vertices), c, result)


def test_memo_concurrent_callers_get_fresh_answers():
    rng = np.random.default_rng(16)
    calls = [(X, c) for X, objectives in memo_cases(rng) for c in objectives]
    expected = [FRESH_SOLVERS[type(X)](X, np.asarray(c, dtype=np.float64))
                for X, c in calls]
    errors = []

    def worker(seed):
        order = np.random.default_rng(seed).integers(0, len(calls), size=600)
        try:
            for k in order:
                got = argmax(*calls[k])
                if got.maximizer.tobytes() != expected[k].maximizer.tobytes() \
                        or got.tie_count != expected[k].tie_count:
                    errors.append((k, "stale answer"))
        except Exception as exc:  # reported below; a thread cannot raise into the test
            errors.append((-1, repr(exc)))

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(s,)) for s in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []


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
    previous = oracle._STACK_CHUNK
    oracle._STACK_CHUNK = size
    try:
        yield
    finally:
        oracle._STACK_CHUNK = previous


def assert_many_matches_argmax(sets, c):
    got = argmax_many(sets, c)
    assert len(got) == len(sets)
    for X, x in zip(sets, got):
        assert x.tobytes() == argmax(X, c).maximizer.tobytes()
        assert x.shape == (X.dimension,) and not x.flags.writeable


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_argmax_many_equals_argmax_per_set(data):
    n = data.draw(st.integers(1, 4))
    c = data.draw(hnp.arrays(np.float64, n, elements=OBJECTIVE_POOL))
    sets = data.draw(st.lists(sets_of_dimension(n), max_size=20))
    # small chunks make short lists cross several chunk boundaries
    with stack_chunk(data.draw(st.sampled_from([1, 2, 3, oracle._STACK_CHUNK]))):
        assert_many_matches_argmax(sets, c)


def test_argmax_many_across_chunks_of_the_real_size():
    rng = np.random.default_rng(21)
    n = 6
    sets = []
    for k in range(2 * oracle._STACK_CHUNK + 7):
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
    assert argmax_many([], rng.standard_normal(n)) == []


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_argmax_many_over_dags_equals_argmax_and_bruteforce(data):
    n = data.draw(st.integers(1, 8))
    c = data.draw(hnp.arrays(np.float64, n, elements=OBJECTIVE_POOL))
    dag = dag_paths(num_arcs=n)
    sets = data.draw(st.lists(st.one_of(dag, dag, sets_of_dimension(n)), max_size=12))
    with stack_chunk(data.draw(st.sampled_from([1, 2, 3, oracle._STACK_CHUNK]))):
        assert_many_matches_argmax(sets, c)
        got = argmax_many(sets, c)
    # halves and integers below 2**52 add exactly, so any order of summing
    # gives the same optimum
    exact = np.array_equal(2.0 * c, np.round(2.0 * c))
    for X, x in zip(sets, got):
        if isinstance(X, DagPaths):
            assert X.contains(x)
            value = inner_product(x, c)
            best = argmax_bruteforce(X, c).optimal_value
            if exact:
                assert value == best
            else:
                assert abs(value - best) <= 1e-12 * (1 + abs(best))


def test_argmax_many_dags_across_chunks_of_the_real_size():
    rng = np.random.default_rng(23)
    n = 7
    sets = []
    for k in range(2 * oracle._STACK_CHUNK + 7):
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
