"""Core primitives: vectors, norms, feasible sets, observations, domains."""

import itertools

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
    inner_product,
)
from invlinopt.core import clamp_small_negative, tolerance

from conftest import FAMILIES, dag_paths, random_feasible_set


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
    assert pair.dual([1.0, -3.0, 2.0]) == 6.0
    euclid = NormPair.l2_l2()
    assert euclid.primal([3.0, 4.0]) == 5.0
    assert euclid.dual([3.0, 4.0]) == 5.0


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
            for norm in (pair.primal, pair.dual):
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
            rhs = pair.dual(c) * pair.primal(x)
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
        assert abs(best - pair.dual(v)) <= 1e-9
    euclid = NormPair.l2_l2()
    for _ in range(50):
        v = rng.standard_normal(int(rng.integers(1, 8)))
        norm = np.linalg.norm(v)
        if norm == 0.0:
            continue
        assert abs(inner_product(v, v / norm) - euclid.dual(v)) <= 1e-9


def test_hypercube_members():
    members = Hypercube(2).members()
    expected = {(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)}
    assert {tuple(row) for row in members} == expected


def test_knapsack_members():
    X = Knapsack([2, 2], 3)
    got = {tuple(row) for row in X.members()}
    assert got == {(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)}
    assert X.contains([0.0, 0.0])


def test_explicit_vertices_identity_and_dedup():
    X = ExplicitVertices([[0.5, 0.25], [1.0, 0.0], [0.5, 0.25], [-0.0, 0.0]])
    assert X.members().shape == (3, 2)
    assert X.contains([0.5, 0.25])
    assert X.contains([0.0, 0.0])
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
        assert X.contains(row)
    for probe in probes:
        probe = probe[: X.dimension]
        assert X.contains(probe) == (as_vector(probe).tobytes() in keys)
    assert not X.contains(np.zeros(X.dimension + 1))


@settings(max_examples=200, deadline=None)
@given(vertex_arrays())
def test_explicit_vertices_fold_signed_zeros(vertices):
    flipped = np.where(vertices == 0.0, -vertices, vertices)
    X = ExplicitVertices(np.concatenate([vertices, flipped]))
    assert X.vertices.tobytes() == ExplicitVertices(vertices).vertices.tobytes()
    assert not np.signbit(X.vertices[X.vertices == 0.0]).any()
    for row in flipped:
        assert X.contains(row)


def test_membership_across_families():
    rng = np.random.default_rng(3)
    for family in FAMILIES:
        for _ in range(25):
            X = random_feasible_set(rng, family)
            members = X.members()
            for row in members:
                assert X.contains(row)
            outside = rng.random(X.dimension) + 2.0
            assert not X.contains(outside)
            assert not X.contains(np.full(X.dimension + 1, 0.0))


def test_hypercube_non_member():
    assert not Hypercube(2).contains([0.5, 1.0])
    assert not Knapsack([2, 2], 3).contains([1.0, 1.0])


def test_enumeration_cap():
    with pytest.raises(EnumerationRefusedError):
        Hypercube(25).members()
    with pytest.raises(EnumerationRefusedError):
        Hypercube(3).members(cap=4)
    assert Hypercube(3).members(cap=8).shape == (8, 3)


def test_knapsack_validation():
    with pytest.raises(ValueError):
        Knapsack([1.5, 2.0], 3)
    with pytest.raises(ValueError):
        Knapsack([-1, 2], 3)
    with pytest.raises(ValueError):
        Knapsack([1, 2], -1)


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
    assert dag.contains([1.0, 1.0, 0.0])
    assert not dag.contains([1.0, 0.0, 0.0])  # stops before the sink
    assert not dag.contains([1.0, 1.0, 1.0])  # stray selected arc


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
        nxt = [(k, w) for k, w in X.out_arcs(cur) if selected[k]]
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
        for k, v in X.out_arcs(node):
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
    got = (X.arcs, tuple(X.out_arcs(u) for u in range(nodes)), X.enumeration_effort())
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
    n = X.dimension
    for bits in itertools.product((0.0, 1.0), repeat=n):
        assert X.contains(bits) == reference_contains(X, bits)
    for row in X.members():
        signed = np.where(row == 0.0, -0.0, row)
        assert X.contains(signed) and reference_contains(X, signed)
    entries = st.sampled_from([0.0, -0.0, 1.0, 0.5, -1.0, 2.0, np.nan, np.inf])
    probe = data.draw(hnp.arrays(np.float64, n, elements=entries))
    assert X.contains(probe) == reference_contains(X, probe)
    for shape in [(n - 1,), (n + 1,), (1, n), ()]:
        assert not X.contains(np.ones(shape))
        assert not reference_contains(X, np.ones(shape))


@settings(max_examples=300, deadline=None)
@given(dag_paths())
def test_dag_enumeration_matches_reference_dfs(X):
    got = X._enumerate()
    expected = reference_enumerate(X)
    assert got.shape == expected.shape == (X.enumeration_effort(), X.dimension)
    assert got.tobytes() == expected.tobytes()


def test_dag_enumeration_skips_what_the_source_cannot_reach():
    # nodes 1..40 hold 2**40 paths to the sink, but the source only has
    # its direct arc to the sink
    ladder = [(i, i + 1) for i in range(1, 41)]
    X = DagPaths(42, [(0, 41)] + ladder + ladder)
    assert X.members().tolist() == [[1.0] + [0.0] * 80]


def test_observation_validation():
    X = ExplicitVertices([[0.0, 0.0], [1.0, 0.0]])
    obs = Observation(X, [1.0, 0.0], 1)
    assert obs.round_index == 1
    with pytest.raises(MembershipError):
        Observation(X, [0.0, 1.0], 1)
    with pytest.raises(ValueError):
        Observation(X, [1.0, 0.0], 0)
    with pytest.raises(DimensionMismatchError):
        Observation(X, [1.0, 0.0, 0.0], 1)


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
        Observation(X, choice, 1)
        assert calls[0] == k
    # the public membership test still validates its input
    assert X.contains([0.5, 0.5]) and calls[0] == 4
    with pytest.raises(MembershipError):
        Observation(X, [0.0, 1.0], 1)


def test_simplex_domain():
    domain = Simplex(3)
    assert domain.contains([0.2, 0.3, 0.5])
    assert not domain.contains([0.5, 0.6, 0.2])
    assert not domain.contains(np.zeros(3))
    rng = np.random.default_rng(4)
    for _ in range(50):
        assert domain.contains(domain.sample(rng))


def test_ball_domain():
    with pytest.raises(ValueError):
        Ball([0.1, 0.1], 1.0)  # would contain the origin
    with pytest.raises(ValueError):
        Ball([3.0, 0.0], -1.0)
    domain = Ball([3.0, 0.0], 1.0)
    assert domain.contains([3.5, 0.5])
    assert not domain.contains([0.0, 0.0])
    rng = np.random.default_rng(5)
    for _ in range(50):
        point = domain.sample(rng)
        assert domain.contains(point)
        assert np.linalg.norm(point - [3.0, 0.0]) <= 1.0 + 1e-12


def test_clamp_small_negative():
    assert clamp_small_negative(-1e-12) == 0.0
    assert clamp_small_negative(-0.5) == -0.5
    assert clamp_small_negative(0.25) == 0.25
