"""Shared random-instance builders for the test suite."""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from invlinopt import (
    DagPaths,
    ExplicitVertices,
    Hypercube,
    Knapsack,
    NormPair,
    argmax,
)

from reference import inner_product

FAMILIES = ("explicit", "hypercube", "knapsack", "dag")


def random_explicit(rng, max_dim=12, max_vertices=24, integral=False):
    n = int(rng.integers(2, max_dim + 1))
    count = int(rng.integers(2, max_vertices + 1))
    if integral:
        vertices = rng.integers(0, 2, size=(count, n)).astype(float)
    else:
        vertices = rng.random((count, n))
    return ExplicitVertices(vertices)


def random_hypercube(rng, max_dim=10):
    return Hypercube(int(rng.integers(2, max_dim + 1)))


def random_knapsack(rng, max_dim=10):
    n = int(rng.integers(2, max_dim + 1))
    weights = rng.integers(0, 8, size=n)
    capacity = int(rng.integers(0, int(weights.sum()) + 1))
    return Knapsack(weights, capacity)


def random_dag(rng, max_extra=4):
    nodes = int(rng.integers(3, 6))
    arcs = [(i, i + 1) for i in range(nodes - 1)]
    for _ in range(int(rng.integers(0, max_extra + 1))):
        u = int(rng.integers(0, nodes - 1))
        v = int(rng.integers(u + 1, nodes))
        arcs.append((u, v))
    return DagPaths(nodes, arcs)


@st.composite
def dag_paths(draw, num_arcs=None, max_nodes=7, max_arcs=10, num_nodes=None):
    """A DagPaths with one planted source-to-sink path and random extra arcs.

    The extra arcs bring parallel arcs, nodes the source cannot reach and
    nodes that cannot reach the sink; arc indices are shuffled, since they
    decide the oracle's ties.  num_arcs fixes the dimension and num_nodes
    the node count.
    """
    nodes = draw(st.integers(2, max_nodes)) if num_nodes is None else num_nodes
    sink = nodes - 1
    longest = sink - 1 if num_arcs is None else min(sink - 1, num_arcs - 1)
    inner = []
    if longest > 0:
        inner = draw(st.lists(st.integers(1, sink - 1), max_size=longest, unique=True))
    path = [0, *sorted(inner), sink]
    arcs = list(zip(path, path[1:]))
    arc = st.integers(0, sink - 1).flatmap(
        lambda u: st.tuples(st.just(u), st.integers(u + 1, sink))
    )
    if num_arcs is None:
        extra = draw(st.lists(arc, max_size=max_arcs - len(arcs)))
    else:
        extra = draw(st.lists(arc, min_size=num_arcs - len(arcs),
                              max_size=num_arcs - len(arcs)))
    return DagPaths(nodes, draw(st.permutations(arcs + extra)))


def random_feasible_set(rng, family, **kwargs):
    if family == "explicit":
        return random_explicit(rng, **kwargs)
    if family == "hypercube":
        return random_hypercube(rng, **kwargs)
    if family == "knapsack":
        return random_knapsack(rng, **kwargs)
    if family == "dag":
        return random_dag(rng, **kwargs)
    raise ValueError(family)


def random_member(X, rng):
    members = X.members()
    return members[int(rng.integers(0, members.shape[0]))]


def random_objective(rng, n):
    """Mixture of draw styles so losses see simplex, signed, and zero inputs."""
    kind = rng.random()
    if kind < 0.4:
        return rng.dirichlet(np.ones(n))
    if kind < 0.8:
        return rng.standard_normal(n)
    if kind < 0.97:
        return rng.random(n)
    return np.zeros(n)


def random_triple(rng, family):
    X = random_feasible_set(rng, family)
    return X, random_member(X, rng), random_objective(rng, X.dimension)


def naive_gap(observations, c_star, norms: NormPair):
    """Independent ratio-minimization pass, coded as plain loops.

    Returns (satisfied, delta_or_none).  Used to cross-check certify_gap.
    """
    best = None
    for obs in observations:
        x = obs.agent_choice
        value_x = inner_product(c_star, x)
        for row in obs.feasible_set.members():
            if np.array_equal(row, x):
                continue
            value = inner_product(c_star, row)
            if value >= value_x:
                return False, None
            diff = [xi - ri for xi, ri in zip(x, row)]
            if norms.kind == NormPair.LINF_L1:
                dist = max(abs(d) for d in diff)
            else:
                dist = sum(d * d for d in diff) ** 0.5
            ratio = (value_x - value) / dist
            if best is None or ratio < best:
                best = ratio
    return True, best


# Streams on which the learner's carried answer is reused: (sets, choices).

def repeated_knapsack(rng):
    X = Knapsack([3, 1, 4, 1, 5, 2], 7)
    c_star = np.array([0.05, 0.3, 0.1, 0.25, 0.2, 0.1])
    choice = argmax(X, c_star).maximizer
    return [X] * 30, [choice] * 30


def noisy_choices(rng, sets):
    """Mostly the optimum under a fixed objective, sometimes a random member."""
    c = np.linspace(0.4, 0.1, sets[0].dimension)
    choices = []
    for X in sets:
        members = X.members()
        choices.append(members[int(rng.integers(0, len(members)))]
                       if rng.random() < 0.3 else argmax(X, c).maximizer)
    return choices


def noisy_repeated_vertices(rng):
    sets = [ExplicitVertices(rng.integers(0, 2, size=(10, 4)).astype(float))] * 60
    return sets, noisy_choices(rng, sets)


def equal_distinct_sets(rng):
    # two distinct objects with equal vertices, and one set that differs
    vertices = rng.integers(0, 2, size=(8, 3)).astype(float)
    other = ExplicitVertices(rng.integers(0, 2, size=(8, 3)).astype(float))
    pool = (ExplicitVertices(vertices), ExplicitVertices(vertices), other)
    sets = [pool[int(k)] for k in rng.choice(3, size=90, p=[0.45, 0.45, 0.1])]
    return sets, noisy_choices(rng, sets)


CARRIED_STREAMS = {
    "repeated-knapsack": repeated_knapsack,
    "noisy-repeated-vertices": noisy_repeated_vertices,
    "equal-distinct-sets": equal_distinct_sets,
}
