"""Core primitives: vectors, norms, feasible sets, observations, domains."""

import functools
import itertools
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from invlinopt import (
    Ball,
    DagPaths,
    DimensionMismatchError,
    EnumerationRefusedError,
    ExplicitVertices,
    Hypercube,
    Knapsack,
    MembershipError,
    NormPair,
    Observation,
    Simplex,
    as_vector,
)
from invlinopt import core
from invlinopt.core import clamp_small_negative, tolerance

from conftest import FAMILIES, dag_paths, random_feasible_set
from reference import contains, dual_norm, in_domain, inner_product, out_arcs


def test_inner_product_examples():
    assert inner_product([1, 2, 3], [0, 1, 0]) == 2.0
    assert inner_product([4.0, -1.5], [0.0, 0.0]) == 0.0
    # hand arithmetic 0.3 - 0.7, cross-checked by an explicit summation
    value = inner_product([0.3, 0.7], [1.0, -1.0])
    assert abs(value - (-0.4)) < 1e-12
    assert value == 0.3 * 1.0 + 0.7 * (-1.0)


def test_inner_product_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        inner_product([1.0, 2.0], [1.0, 2.0, 3.0])


def test_as_vector_rejects_bad_input():
    with pytest.raises(ValueError):
        as_vector([])
    with pytest.raises(ValueError):
        as_vector([1.0, np.nan])
    with pytest.raises(ValueError):
        as_vector([np.inf, 0.0])
    with pytest.raises(ValueError):
        as_vector([[1.0, 2.0]])


def test_as_vector_read_only_and_zero_normalized():
    v = as_vector([-0.0, 1.0])
    assert v.tobytes() == as_vector([0.0, 1.0]).tobytes()
    with pytest.raises(ValueError):
        v[0] = 5.0


def test_norm_examples():
    pair = NormPair.linf_l1()
    assert pair.primal([1.0, -3.0, 2.0]) == 3.0
    assert dual_norm(pair, [1.0, -3.0, 2.0]) == 6.0
    euclid = NormPair.l2_l2()
    assert euclid.primal([3.0, 4.0]) == 5.0
    assert dual_norm(euclid, [3.0, 4.0]) == 5.0


def test_norm_pair_unknown_kind():
    with pytest.raises(ValueError):
        NormPair("l1-linf")


def test_norm_axioms_on_random_vectors():
    rng = np.random.default_rng(0)
    for pair in (NormPair.linf_l1(), NormPair.l2_l2()):
        for _ in range(200):
            n = int(rng.integers(1, 9))
            u = rng.standard_normal(n)
            v = rng.standard_normal(n)
            alpha = float(rng.standard_normal())
            for norm in (pair.primal, functools.partial(dual_norm, pair)):
                assert norm(u) >= 0.0
                assert abs(norm(alpha * u) - abs(alpha) * norm(u)) <= tolerance(norm(u))
                assert norm(u + v) <= norm(u) + norm(v) + tolerance(norm(u), norm(v))
            assert pair.primal(np.zeros(n)) == 0.0
            if np.any(u != 0.0):
                assert pair.primal(u) > 0.0


def test_holder_inequality():
    rng = np.random.default_rng(1)
    for pair in (NormPair.linf_l1(), NormPair.l2_l2()):
        for _ in range(300):
            n = int(rng.integers(1, 10))
            c = rng.standard_normal(n)
            x = rng.standard_normal(n)
            lhs = abs(inner_product(c, x))
            rhs = dual_norm(pair, c) * pair.primal(x)
            assert lhs <= rhs + tolerance(lhs, rhs)


def test_dual_norm_via_extreme_points():
    # dual of linf is l1: maximize <v, u> over sign vectors u
    rng = np.random.default_rng(2)
    pair = NormPair.linf_l1()
    for _ in range(50):
        n = int(rng.integers(1, 8))
        v = rng.standard_normal(n)
        signs = Hypercube(n).members() * 2.0 - 1.0
        best = float(np.max(signs @ v))
        assert abs(best - dual_norm(pair, v)) <= 1e-9
    euclid = NormPair.l2_l2()
    for _ in range(50):
        v = rng.standard_normal(int(rng.integers(1, 8)))
        norm = np.linalg.norm(v)
        if norm == 0.0:
            continue
        assert abs(inner_product(v, v / norm) - dual_norm(euclid, v)) <= 1e-9


# signed zeros, and magnitudes whose squares and sums round
ROW_ENTRIES = st.one_of(
    st.just(-0.0), st.just(0.0),
    st.floats(-1e6, 1e6, allow_nan=False, allow_subnormal=False),
)


@given(hnp.arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(1, 24)),
                  elements=ROW_ENTRIES))
def test_primal_rows_round_as_primal(m):
    # the stacked norm of each row has the bits of the one-vector norm, so
    # a margin's distance does not depend on how many rows share a stack
    for pair in (NormPair.linf_l1(), NormPair.l2_l2()):
        for stack in (m, m[:1]):
            rows = pair.primal_rows(stack)
            assert [float(v).hex() for v in rows] == [
                pair.primal(row).hex() for row in stack
            ]


def test_hypercube_members():
    members = Hypercube(2).members()
    expected = {(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)}
    assert {tuple(row) for row in members} == expected


def test_knapsack_members():
    X = Knapsack([2, 2], 3)
    got = {tuple(row) for row in X.members()}
    assert got == {(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)}
    assert contains(X, [0.0, 0.0])


def test_explicit_vertices_identity_and_dedup():
    X = ExplicitVertices([[0.5, 0.25], [1.0, 0.0], [0.5, 0.25], [-0.0, 0.0]])
    assert X.members().shape == (3, 2)
    assert contains(X, [0.5, 0.25])
    assert contains(X, [0.0, 0.0])
    # duplicates never stored twice, bitwise after normalization
    keys = {row.tobytes() for row in X.members()}
    assert len(keys) == X.members().shape[0]


# a small pool of entries, so random rows repeat and zeros carry both signs
POOL = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 1e-300, -2.5e7])


@st.composite
def vertex_arrays(draw):
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 12))
    return draw(hnp.arrays(np.float64, (m, n), elements=POOL))


def bytes_set_dedup(vertices):
    """The reference definition: keep a row unless its bytes were seen."""
    m = np.asarray(vertices, dtype=np.float64) + 0.0
    seen, keep = set(), []
    for i in range(m.shape[0]):
        if m[i].tobytes() not in seen:
            seen.add(m[i].tobytes())
            keep.append(i)
    return m[keep], seen


@settings(max_examples=200, deadline=None)
@given(vertex_arrays())
def test_explicit_dedup_keeps_first_occurrences_in_order(vertices):
    kept = ExplicitVertices(vertices).vertices
    folded = vertices + 0.0
    first = [
        i for i in range(len(folded))
        if not any(np.array_equal(folded[i], folded[j]) for j in range(i))
    ]
    assert kept.tobytes() == folded[first].tobytes()
    assert not kept.flags.writeable


@settings(max_examples=200, deadline=None)
@given(vertex_arrays(), st.lists(hnp.arrays(np.float64, 3, elements=POOL), max_size=6))
def test_explicit_vertices_agree_with_the_bytes_set_definition(vertices, probes):
    X = ExplicitVertices(vertices)
    reference, keys = bytes_set_dedup(vertices)
    assert X.vertices.tobytes() == reference.tobytes()
    for row in vertices:
        assert contains(X, row)
    for probe in probes:
        probe = probe[: X.dimension]
        assert contains(X, probe) == (as_vector(probe).tobytes() in keys)
    assert not contains(X, np.zeros(X.dimension + 1))


@settings(max_examples=200, deadline=None)
@given(vertex_arrays())
def test_explicit_vertices_fold_signed_zeros(vertices):
    flipped = np.where(vertices == 0.0, -vertices, vertices)
    X = ExplicitVertices(np.concatenate([vertices, flipped]))
    assert X.vertices.tobytes() == ExplicitVertices(vertices).vertices.tobytes()
    assert not np.signbit(X.vertices[X.vertices == 0.0]).any()
    for row in flipped:
        assert contains(X, row)


# the private block constructor of generation: pool entries make rows share
# lead entries and repeat whole, other floats leave some blocks without a
# repeated lead, and both signs of zero occur
@st.composite
def vertex_blocks(draw):
    k = draw(st.integers(1, 4))
    m = draw(st.integers(1, 8))
    n = draw(st.integers(1, 3))
    entries = st.one_of(POOL, st.floats(-4.0, 4.0))
    return draw(hnp.arrays(np.float64, (k, m, n), elements=entries))


@settings(max_examples=300, deadline=None)
@given(vertex_blocks())
def test_block_constructor_matches_the_public_one(block):
    sets = ExplicitVertices._from_block(block.copy())
    assert len(sets) == block.shape[0]
    for X, rows in zip(sets, block):
        expected = ExplicitVertices(rows)
        assert X.vertices.shape == expected.vertices.shape
        assert X.vertices.tobytes() == expected.vertices.tobytes()
        assert X.dimension == expected.dimension
        assert X.members().tobytes() == expected.members().tobytes()
        assert not X.vertices.flags.writeable


def test_sets_hand_out_their_own_rows():
    # members() is the cached enumeration itself, read-only and folded; for
    # explicit vertices it is the vertex array
    X = ExplicitVertices([[0.0, 1.0], [-0.0, 1.0], [1.0, 0.0]])
    assert X.members() is X.vertices
    dag = DagPaths(3, [(0, 1), (1, 2), (0, 2)])
    for Y in (X, Hypercube(3), Knapsack([1, 2, 2], 3), dag):
        assert Y.members() is Y.members()
        assert not Y.members().flags.writeable
        assert not np.signbit(Y.members()).any()


def test_block_constructor_refuses_non_finite_entries():
    block = np.zeros((2, 3, 2))
    block[1, 2, 0] = np.nan
    with pytest.raises(ValueError) as got:
        ExplicitVertices._from_block(block)
    assert str(got.value) == "vertex entries must be finite"


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_block_dags_match_the_public_ones(data):
    first = data.draw(dag_paths(max_arcs=8))
    n, nodes = first.dimension, first.num_nodes
    public = [first] + data.draw(
        st.lists(dag_paths(num_arcs=n, num_nodes=nodes), max_size=3))
    block = np.array([X.arcs for X in public], dtype=np.intp)
    born = [DagPaths._of_row(nodes, row) for row in block]
    assert len(born) == len(public)
    for X, Y in zip(born, public):
        assert (X.num_nodes, X.dimension, X.arcs, X.enumeration_effort()) == (
            Y.num_nodes, Y.dimension, Y.arcs, Y.enumeration_effort()
        )
        for bits in itertools.product((0.0, 1.0), repeat=n):
            v = np.array(bits)
            assert X._contains(v) == Y._contains(v)
        assert X.members().tobytes() == Y.members().tobytes()
        # the path count is the enumeration's row count
        assert X.enumeration_effort() == Y.enumeration_effort() == len(X.members())
        # each set reads its row of the block in place through a read-only
        # view; the block stays writable for redraws
        assert X._ends.base is block and not X._ends.flags.writeable
    assert block.flags.writeable


TWO_POINTS = ExplicitVertices([[0.0, 0.0], [1.0, 0.0]])


@pytest.mark.parametrize("build, error, message", [
    (lambda: ExplicitVertices([]), ValueError,
     "vertices must form a non-empty (m, n) array"),
    (lambda: ExplicitVertices(np.zeros((2, 2, 2))), ValueError,
     "vertices must form a non-empty (m, n) array"),
    # a 0-d input is refused too, which an ndmin=2 conversion would accept
    (lambda: ExplicitVertices(1.0), ValueError,
     "vertices must form a non-empty (m, n) array"),
    (lambda: ExplicitVertices([[0.0, np.inf]]), ValueError,
     "vertex entries must be finite"),
    (lambda: DagPaths(3, [(0, 1), (2, 1)]), ValueError,
     "arc (2, 1) violates topological order (cycle)"),
    (lambda: DagPaths(4, [(0, 1), (2, 3)]), ValueError,
     "no source-to-sink path exists"),
    (lambda: Observation(TWO_POINTS, [1.0, np.nan]), ValueError,
     "vector entries must be finite"),
    (lambda: Observation(TWO_POINTS, [1.0, 0.0, 0.0]), DimensionMismatchError,
     "choice has dimension 3, set has 2"),
    (lambda: Observation(TWO_POINTS, [0.0, 1.0]), MembershipError,
     "agent choice is not in the feasible set"),
], ids=["empty", "three-d", "zero-d", "inf", "cycle", "no-path", "nan-choice", "dimension",
        "non-member"])
def test_public_constructors_keep_their_checks(build, error, message):
    # generation skips these checks for what it drew itself; everyone else
    # still meets them (test_dag_constructor_errors holds every DAG message)
    with pytest.raises(error) as got:
        build()
    assert str(got.value) == message


def test_membership_across_families():
    rng = np.random.default_rng(3)
    for family in FAMILIES:
        for _ in range(25):
            X = random_feasible_set(rng, family)
            members = X.members()
            for row in members:
                assert contains(X, row)
            outside = rng.random(X.dimension) + 2.0
            assert not contains(X, outside)
            # non-finite entries and other shapes are non-members, not errors
            member = members[0]
            for bad in (np.nan, np.inf):
                probe = member.copy()
                probe[0] = bad
                assert not contains(X, probe)
            assert not contains(X, member[None, :])
            assert not contains(X, np.full(X.dimension + 1, 0.0))
            assert not contains(X, member[:-1])


def test_hypercube_non_member():
    assert not contains(Hypercube(2), [0.5, 1.0])
    assert not contains(Knapsack([2, 2], 3), [1.0, 1.0])


def test_enumeration_cap():
    with pytest.raises(EnumerationRefusedError):
        Hypercube(25).members()
    with pytest.raises(EnumerationRefusedError):
        Hypercube(3).members(cap=4)
    assert Hypercube(3).members(cap=8).shape == (8, 3)


def test_cap_gates_an_enumeration_and_not_a_cached_read(monkeypatch):
    def forbidden():
        raise AssertionError("called")

    for X in (ExplicitVertices(np.eye(3)), Hypercube(3), Knapsack([1, 2, 2], 3),
              DagPaths(3, [(0, 1), (1, 2), (0, 2)])):
        # past the cap the refusal comes before any enumeration
        with monkeypatch.context() as patch:
            patch.setattr(X, "_enumerate", forbidden)
            with pytest.raises(EnumerationRefusedError):
                X.members(cap=1)
        cached = X.members()
        # a cached read counts nothing and meets no cap
        monkeypatch.setattr(X, "enumeration_effort", forbidden)
        assert X.members(cap=0) is cached


def test_knapsack_validation():
    with pytest.raises(ValueError):
        Knapsack([1.5, 2.0], 3)
    with pytest.raises(ValueError):
        Knapsack([-1, 2], 3)
    with pytest.raises(ValueError):
        Knapsack([1, 2], -1)
    for capacity in (float("inf"), float("nan")):
        # int() would raise OverflowError and numpy's NaN message
        with pytest.raises(ValueError, match="capacity must be a nonnegative integer"):
            Knapsack([1, 2], capacity)


def test_dag_validation_and_membership():
    with pytest.raises(ValueError):
        DagPaths(3, [(0, 1), (2, 1)])  # backward arc reads as a cycle
    with pytest.raises(ValueError):
        DagPaths(3, [(0, 1)])  # no path reaching the sink
    with pytest.raises(ValueError):
        DagPaths(2, [])
    dag = DagPaths(3, [(0, 1), (1, 2), (0, 2)])
    got = {tuple(row) for row in dag.members()}
    assert got == {(1.0, 1.0, 0.0), (0.0, 0.0, 1.0)}
    assert contains(dag, [1.0, 1.0, 0.0])
    assert not contains(dag, [1.0, 0.0, 0.0])  # stops before the sink
    assert not contains(dag, [1.0, 1.0, 1.0])  # stray selected arc


# DagPaths as first written, with numpy scalar walks and a recursive
# enumeration; the references for the constructor, contains and _enumerate.


def reference_dag(num_nodes, arcs):
    """(arcs, out-arcs, path count) as first built, or the ValueError raised."""
    m = int(num_nodes)
    if m < 2:
        raise ValueError("need at least two nodes (source and sink)")
    arc_list = [(int(u), int(v)) for u, v in arcs]
    if not arc_list:
        raise ValueError("need at least one arc")
    for u, v in arc_list:
        if not (0 <= u < m and 0 <= v < m):
            raise ValueError(f"arc ({u}, {v}) references a missing node")
        if u >= v:
            raise ValueError(f"arc ({u}, {v}) violates topological order (cycle)")
    out = [[] for _ in range(m)]
    for k, (u, v) in enumerate(arc_list):
        out[u].append((k, v))
    counts = [0] * m
    counts[m - 1] = 1
    for u in range(m - 2, -1, -1):
        counts[u] = sum(counts[v] for _, v in out[u])
    if counts[0] == 0:
        raise ValueError("no source-to-sink path exists")
    return tuple(arc_list), tuple(tuple(a) for a in out), counts[0]


def reference_contains(X, v):
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (X.dimension,):
        return False
    if not np.all((v == 0.0) | (v == 1.0)):
        return False
    selected = v == 1.0
    sink = X.num_nodes - 1
    cur = 0
    steps = 0
    while cur != sink:
        nxt = [(k, w) for k, w in out_arcs(X, cur) if selected[k]]
        if len(nxt) != 1:
            return False
        steps += 1
        cur = nxt[0][1]
    return steps == int(selected.sum())


def reference_enumerate(X):
    sink = X.num_nodes - 1
    rows = []
    path = []

    def walk(node):
        if node == sink:
            row = np.zeros(X.dimension)
            row[path] = 1.0
            rows.append(row)
            return
        for k, v in out_arcs(X, node):
            path.append(k)
            walk(v)
            path.pop()

    walk(0)
    return np.asarray(rows)


@st.composite
def dag_arguments(draw):
    nodes = draw(st.integers(0, 6))
    endpoint = st.integers(-1, nodes)
    return nodes, draw(st.lists(st.tuples(endpoint, endpoint), max_size=6))


@settings(max_examples=400, deadline=None)
@given(dag_arguments())
def test_dag_constructor_matches_reference(arguments):
    nodes, arcs = arguments
    try:
        expected = reference_dag(nodes, arcs)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            DagPaths(nodes, arcs)
        assert str(got.value) == str(exc)
        return
    X = DagPaths(nodes, arcs)
    got = (X.arcs, tuple(out_arcs(X, u) for u in range(nodes)), X.enumeration_effort())
    assert got == expected
    assert X.dimension == len(arcs)


@pytest.mark.parametrize(
    "nodes, arcs, message",
    [
        (1, [(0, 1)], "need at least two nodes (source and sink)"),
        (3, [], "need at least one arc"),
        (3, [(0, 1), (1, 3)], "arc (1, 3) references a missing node"),
        (3, [(0, 1), (2, 1)], "arc (2, 1) violates topological order (cycle)"),
        (3, [(0, 1), (1, 1)], "arc (1, 1) violates topological order (cycle)"),
        (4, [(0, 1), (2, 3)], "no source-to-sink path exists"),
    ],
)
def test_dag_constructor_errors(nodes, arcs, message):
    with pytest.raises(ValueError) as got:
        DagPaths(nodes, arcs)
    assert str(got.value) == message


@settings(max_examples=150, deadline=None)
@given(dag_paths(max_arcs=8), st.data())
def test_dag_contains_matches_reference_walk(X, data):
    # the flow rule against the walk and against the depth-first enumeration
    n = X.dimension
    paths = {row.tobytes() for row in reference_enumerate(X)}
    for bits in itertools.product((0.0, 1.0), repeat=n):
        assert contains(X, bits) == reference_contains(X, bits)
        assert contains(X, bits) == (np.array(bits).tobytes() in paths)
    for row in X.members():
        signed = np.where(row == 0.0, -0.0, row)
        assert contains(X, signed) and reference_contains(X, signed)
    entries = st.sampled_from([0.0, -0.0, 1.0, 0.5, -1.0, 2.0, np.nan, np.inf])
    probe = data.draw(hnp.arrays(np.float64, n, elements=entries))
    assert contains(X, probe) == reference_contains(X, probe)
    assert contains(X, probe) == bool((X.members() == probe).all(axis=1).any())
    for shape in [(n - 1,), (n + 1,), (1, n), ()]:
        assert not contains(X, np.ones(shape))
        assert not reference_contains(X, np.ones(shape))


@settings(max_examples=300, deadline=None)
@given(dag_paths())
def test_dag_enumeration_matches_reference_dfs(X):
    got = X._enumerate()
    expected = reference_enumerate(X)
    assert got.shape == expected.shape == (X.enumeration_effort(), X.dimension)
    assert got.tobytes() == expected.tobytes()


@settings(max_examples=300, deadline=None)
@given(dag_paths())
def test_dag_unranking_gives_each_enumerated_row(X):
    counts = X._path_counts()
    expected = reference_enumerate(X)
    assert counts[0] == X.enumeration_effort() == len(expected)
    for i, row in enumerate(expected):
        got = X._member(counts, i)
        assert got.tobytes() == row.tobytes() and not got.flags.writeable


@contextmanager
def fill_chunk(size):
    previous = core._STACK_CHUNK
    core._STACK_CHUNK = size
    try:
        yield
    finally:
        core._STACK_CHUNK = previous


@st.composite
def stream_sets(draw):
    """A stream's sets: runs of DAGs of one shape, public or born from one
    block's rows, with dead ends, unreachable nodes and parallel arcs;
    between them DAGs of other shapes and sets of other families.  Set
    objects come again, in a row and later on."""
    sets = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["dag", "dag", "dag", "vertices", "knapsack"]))
        if kind == "vertices":
            group = [ExplicitVertices(np.eye(3))]
        elif kind == "knapsack":
            group = [Knapsack([1, 2, 2], 3)]
        else:
            first = draw(dag_paths(max_arcs=7))
            group = [first] + draw(st.lists(
                dag_paths(num_arcs=first.dimension, num_nodes=first.num_nodes),
                max_size=5))
            if draw(st.booleans()):
                block = np.array([X.arcs for X in group], dtype=np.intp)
                group = [DagPaths._of_row(first.num_nodes, row) for row in block]
        for X in group:
            sets += [X] * draw(st.integers(1, 2))
            if draw(st.booleans()):
                sets.append(draw(st.sampled_from(sets)))
    return sets


@settings(max_examples=300, deadline=None)
@given(stream_sets(), st.data())
def test_batched_fill_matches_the_per_set_enumeration(sets, data):
    cached = {id(X): X.members() for X in sets if data.draw(st.booleans())}
    # small chunks make short streams cross several batch boundaries
    with fill_chunk(data.draw(st.sampled_from([1, 2, 3, core._STACK_CHUNK]))):
        core._fill_members(sets)
    for X in sets:
        got = X._members_cache
        if id(X) in cached:
            # a cached set is left as it was
            assert got is cached[id(X)]
        expected = X._enumerate()
        assert got.shape == expected.shape and got.dtype == expected.dtype
        assert got.tobytes() == expected.tobytes()
        assert not got.flags.writeable
        assert X.members() is got


def test_batched_fill_refuses_the_first_set_past_the_cap():
    # 2**21 and 3 * 2**19 paths on 22 nodes and 42 arcs: one batch
    double = DagPaths(22, [(i, i + 1) for i in range(21)] * 2)
    triple = DagPaths(22, [(0, 1)] * 3 + [(i, i + 1) for i in range(1, 20)] * 2
                      + [(20, 21)])
    small = DagPaths(3, [(0, 1), (1, 2), (0, 2)])
    cube = Hypercube(23)
    # 2**64 paths, a count that int64 arithmetic would wrap to 0
    huge = DagPaths(65, [(i, i + 1) for i in range(64)] * 2)
    for sets, first in [([small, double, triple], double),
                        ([triple, double], triple),
                        ([small, cube, double], cube),
                        ([huge], huge),
                        ([double, cube], double)]:
        with pytest.raises(EnumerationRefusedError) as expected:
            first.members()
        with pytest.raises(EnumerationRefusedError) as got:
            core._fill_members(sets)
        assert str(got.value) == str(expected.value)
    assert "effort 2097152 exceeds cap 1048576" in str(got.value)
    # the refusal leaves the big sets cold
    assert double._members_cache is None and triple._members_cache is None


def test_dag_enumeration_skips_what_the_source_cannot_reach():
    # nodes 1..40 hold 2**40 paths to the sink, but the source only has
    # its direct arc to the sink
    ladder = [(i, i + 1) for i in range(1, 41)]
    X = DagPaths(42, [(0, 41)] + ladder + ladder)
    assert X.members().tolist() == [[1.0] + [0.0] * 80]


def test_observation_validation():
    X = ExplicitVertices([[0.0, 0.0], [1.0, 0.0]])
    Observation(X, [1.0, 0.0])
    with pytest.raises(MembershipError):
        Observation(X, [0.0, 1.0])
    with pytest.raises(DimensionMismatchError):
        Observation(X, [1.0, 0.0, 0.0])


def test_observation_validates_its_choice_once(monkeypatch):
    from invlinopt import core

    calls = [0]
    validate = core.as_vector

    def counting(values):
        calls[0] += 1
        return validate(values)

    monkeypatch.setattr(core, "as_vector", counting)
    X = ExplicitVertices([[0.0, 0.0], [1.0, 0.0], [1.0, -0.0], [0.5, 0.5]])
    for k, choice in enumerate(([1.0, -0.0], [0.5, 0.5], np.zeros(2)), 1):
        Observation(X, choice)
        assert calls[0] == k
    # the reference membership test converts its input without as_vector
    assert contains(X, [0.5, 0.5]) and calls[0] == 3
    with pytest.raises(MembershipError):
        Observation(X, [0.0, 1.0])


def test_simplex_domain():
    domain = Simplex(3)
    assert in_domain(domain, [0.2, 0.3, 0.5])
    assert not in_domain(domain, [0.5, 0.6, 0.2])
    assert not in_domain(domain, np.zeros(3))
    rng = np.random.default_rng(4)
    for _ in range(50):
        assert in_domain(domain, domain.sample(rng))


def test_ball_domain():
    with pytest.raises(ValueError):
        Ball([0.1, 0.1], 1.0)  # would contain the origin
    with pytest.raises(ValueError):
        Ball([3.0, 0.0], -1.0)
    for radius in (float("nan"), float("inf")):
        # NaN fails both the positivity and the center comparison silently
        with pytest.raises(ValueError, match="radius must be positive and finite"):
            Ball([3.0, 0.0], radius)
    domain = Ball([3.0, 0.0], 1.0)
    assert in_domain(domain, [3.5, 0.5])
    assert not in_domain(domain, [0.0, 0.0])
    rng = np.random.default_rng(5)
    for _ in range(50):
        point = domain.sample(rng)
        assert in_domain(domain, point)
        assert np.linalg.norm(point - [3.0, 0.0]) <= 1.0 + 1e-12


def test_clamp_small_negative():
    assert clamp_small_negative(-1e-12) == 0.0
    assert clamp_small_negative(-0.5) == -0.5
    assert clamp_small_negative(0.25) == 0.25
