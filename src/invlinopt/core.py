"""Shared numeric primitives: vectors, norm pairs, feasible sets, observations,
and prediction domains.

Values are immutable after construction, except that a FeasibleSet caches
its members() enumeration on first use, or when _fill_members enumerates a
batch of sets, and hands out that array uncopied; a rebuilt cache holds the
same rows, so sharing across concurrent readers is safe and every read is
pure.  _distinct is the one dedup rule for vertices, and _check_cap the one
enumeration cap rule.  Records are NamedTuples; one that checks its fields
subclasses a NamedTuple of them with a checking __new__ and a _make that
builds through it, so _replace checks too.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

TOL = 1e-9
DEFAULT_ENUMERATION_CAP = 2 ** 20

# sets per batch, in _fill_members and oracle.argmax_many: a batch's memory
# beyond its own rows does not grow with the number of sets
_STACK_CHUNK = 256


class DimensionMismatchError(ValueError):
    """Operands live in different ambient dimensions."""


class MembershipError(ValueError):
    """A vector required to belong to a feasible set does not."""


class EnumerationRefusedError(RuntimeError):
    """Exact enumeration would exceed the element cap."""


def _check_cap(effort: int, cap: int) -> None:
    """Refuse an enumeration whose effort exceeds the cap."""
    if effort > cap:
        raise EnumerationRefusedError(f"enumeration effort {effort} exceeds cap {cap}")


def _arc_order(tails: np.ndarray) -> np.ndarray:
    """Arc indices in stable (tail, index) order, along the last axis of a
    1-D or 2-D array of DAG arc tails: arcs into a node before arcs out."""
    return tails.argsort(axis=-1, kind="stable")


def as_vector(values) -> np.ndarray:
    """Normalize input into a read-only 1-D float64 array.

    Rejects empty input and non-finite entries.  Negative zeros are folded
    into +0.0 so that bitwise equality of stored vectors coincides with
    numeric equality.
    """
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1 or v.size == 0:
        raise ValueError(f"expected a non-empty 1-D vector, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise ValueError("vector entries must be finite")
    return _frozen(v)


def _frozen(v: np.ndarray) -> np.ndarray:
    """A read-only copy of a finite float64 array with -0.0 folded to +0.0."""
    v = v + 0.0
    v.flags.writeable = False
    return v


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """Inner product of two float64 vectors already known to share a shape."""
    return float(np.dot(a, b))


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-row inner products of two (T, n) float64 stacks.

    A (T, 1, n) @ (T, n, 1) product runs the dot kernel once per row, so
    row t is bitwise _dot(a[t], b[t]); einsum and a summed elementwise
    product round differently.
    """
    return (a[:, None, :] @ b[:, :, None]).reshape(-1)


def tolerance(*values: float) -> float:
    """Comparison slack: 1e-9 times (1 + largest magnitude among values)."""
    scale = max((abs(v) for v in values), default=0.0)
    return TOL * (1.0 + scale)


def clamp_small_negative(value: float) -> float:
    """Round a tiny float-noise negative (within tolerance of zero) up to 0.

    Values outside the tolerance band are returned unchanged so genuine
    violations stay visible.
    """
    if -tolerance(value) < value < 0.0:
        return 0.0
    return value


class _NormPairFields(NamedTuple):
    kind: str


class NormPair(_NormPairFields):
    """A primal norm on the action space paired with its dual on objectives.

    kind "linf-l1": primal sup norm, dual 1-norm.
    kind "l2-l2":   Euclidean on both sides (self-dual).
    """

    __slots__ = ()

    LINF_L1 = "linf-l1"
    L2_L2 = "l2-l2"

    def __new__(cls, kind: str):
        if kind not in (cls.LINF_L1, cls.L2_L2):
            raise ValueError(f"unknown norm pair kind {kind!r}")
        return super().__new__(cls, kind)

    @classmethod
    def _make(cls, values) -> "NormPair":
        return cls(*values)

    @classmethod
    def linf_l1(cls) -> "NormPair":
        return cls(cls.LINF_L1)

    @classmethod
    def l2_l2(cls) -> "NormPair":
        return cls(cls.L2_L2)

    def primal(self, v) -> float:
        # bitwise np.linalg.norm(v), the square root of the dot of v raveled in
        # memory order with itself, and np.max(np.abs(v)), without wrappers
        v = np.asarray(v, dtype=np.float64).ravel("K")
        if self.kind == self.LINF_L1:
            return float(abs(v).max())
        return math.sqrt(v.dot(v))

    def primal_rows(self, m: np.ndarray) -> np.ndarray:
        """The primal norm of every row of a (T, n) float64 stack; row t is
        bitwise primal(m[t])."""
        if self.kind == self.LINF_L1:
            return np.max(np.abs(m), axis=1)
        return np.sqrt(_row_dots(m, m))

    def dual_rows(self, m: np.ndarray) -> np.ndarray:
        """The dual norm of every row of a (T, n) float64 stack."""
        if self.kind == self.LINF_L1:
            return np.sum(np.abs(m), axis=1)
        # np.linalg.norm of a vector is the square root of its dot with itself
        return np.sqrt(_row_dots(m, m))


class FeasibleSet:
    """A finite, nonempty action set with exact membership and enumeration.

    Subclasses are immutable; members() caches its enumeration on first use
    in the instance, over the class-level None, so no base constructor runs.
    """

    dimension: int
    _members_cache: np.ndarray | None = None

    def _contains(self, v: np.ndarray) -> bool:
        """Exact membership of a float64 vector of shape (dimension,)."""
        raise NotImplementedError

    def enumeration_effort(self) -> int:
        """Number of candidates scanned by members(); used for cap gating."""
        raise NotImplementedError

    def _enumerate(self) -> np.ndarray:
        raise NotImplementedError

    def members(self, cap: int = DEFAULT_ENUMERATION_CAP) -> np.ndarray:
        """All elements as rows of a read-only (m, n) float array.

        The cached enumeration is returned as is; before enumerating, this
        refuses with EnumerationRefusedError when the enumeration effort
        exceeds ``cap``, so callers stay in oracle-only mode rather than
        receive an approximation.  _check_cap is the cap's one rule; besides
        members(), only _fill_members and a DAG's unranked draw, which stand
        in for members() calls, apply it.  _enumerate()'s array is cached as
        is: integer bits, zeros set to 1.0 and folded vertices hold no -0.0.
        """
        if self._members_cache is None:
            _check_cap(self.enumeration_effort(), cap)
            m = self._enumerate()
            m.flags.writeable = False
            self._members_cache = m
        return self._members_cache


def _distinct(rows: np.ndarray) -> np.ndarray:
    """Distinct rows of a folded (m, n) float64 array, first seen first, read-only."""
    # equal bytes mean equal rows: one void item per row
    items = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()
    _, first = np.unique(items, return_index=True)
    if first.size < rows.shape[0]:
        rows = rows[np.sort(first)]
    rows.flags.writeable = False
    return rows


class ExplicitVertices(FeasibleSet):
    """The set is exactly the given points, deduplicated, input order kept.

    A set built by _from_block that keeps its row as is records the block
    and its row index in _block and _row, so that consecutive rows of one
    block can be read as one slice of it.
    """

    _block: np.ndarray | None = None
    _row = 0

    def __init__(self, vertices):
        m = np.asarray(vertices, dtype=np.float64)
        if m.ndim == 1:
            m = m.reshape(1, -1)
        if m.ndim != 2 or m.shape[0] == 0 or m.shape[1] == 0:
            raise ValueError("vertices must form a non-empty (m, n) array")
        # a C-ordered copy, so the caller's array is neither folded nor frozen
        self.__dict__ = self._from_block(m[None].copy())[0].__dict__

    @classmethod
    def _from_block(cls, block: np.ndarray) -> list["ExplicitVertices"]:
        """[ExplicitVertices(block[i]) for each i], validated and folded once.

        block is a C-ordered (k, m, n) float64 array that the caller hands
        over: it is folded in place and made read-only, and each set keeps
        a view of its slice.  The public constructor builds through here,
        with a block of one.  The lead-entry test runs once over the block;
        only a slice with a repeated lead entry goes through _distinct.  A
        set that keeps its view records the block and its row index.
        """
        if not np.isfinite(block).all():
            raise ValueError("vertex entries must be finite")
        block += 0.0
        block.flags.writeable = False
        # with -0.0 folded, rows whose first entries all differ are distinct,
        # so only a shared first entry calls for the full dedup
        lead = np.sort(block[:, :, 0], axis=1)
        shared = (lead[:, 1:] == lead[:, :-1]).any(axis=1)
        n = int(block.shape[2])
        sets = []
        for i, (rows, repeated) in enumerate(zip(block, shared.tolist())):
            X = cls.__new__(cls)
            X._vertices = _distinct(rows) if repeated else rows
            X.dimension = n
            if X._vertices is rows:
                X._block, X._row = block, i
            sets.append(X)
        return sets

    @property
    def vertices(self) -> np.ndarray:
        return self._vertices

    def _contains(self, v: np.ndarray) -> bool:
        return bool((self._vertices == v).all(axis=1).any())

    def enumeration_effort(self) -> int:
        return int(self._vertices.shape[0])

    def _enumerate(self) -> np.ndarray:
        return self._vertices


class Hypercube(FeasibleSet):
    """All 0/1 vectors of a given dimension."""

    def __init__(self, n: int):
        n = int(n)
        if n < 1:
            raise ValueError("dimension must be at least 1")
        self.dimension = n

    def _contains(self, v: np.ndarray) -> bool:
        return bool(np.all((v == 0.0) | (v == 1.0)))

    def enumeration_effort(self) -> int:
        return 2 ** self.dimension

    def _enumerate(self) -> np.ndarray:
        n = self.dimension
        idx = np.arange(2 ** n, dtype=np.uint64)
        shifts = np.arange(n - 1, -1, -1, dtype=np.uint64)
        return ((idx[:, None] >> shifts[None, :]) & 1).astype(np.float64)


class Knapsack(FeasibleSet):
    """0/1 item selections whose total integer weight fits the capacity.

    Integer weights and capacity keep enumeration and the dynamic-programming
    oracle exact.  The all-zeros selection is always feasible.
    """

    def __init__(self, weights, capacity: int):
        wf = np.asarray(weights, dtype=np.float64)
        if wf.ndim != 1 or wf.size == 0:
            raise ValueError("weights must be a non-empty 1-D sequence")
        if not np.all(np.isfinite(wf)) or np.any(wf != np.round(wf)):
            raise ValueError("weights must be integers")
        if np.any(wf < 0):
            raise ValueError("weights must be nonnegative")
        try:
            cap = int(capacity)
        except (OverflowError, ValueError):
            cap = -1  # inf, nan or text: refused below like a negative capacity
        if cap != capacity or cap < 0:
            raise ValueError("capacity must be a nonnegative integer")
        wi = np.asarray(np.round(wf), dtype=np.int64)
        wi.flags.writeable = False
        self._weights = wi
        self.capacity = cap
        self.dimension = int(wi.size)

    @property
    def weights(self) -> np.ndarray:
        return self._weights

    def _contains(self, v: np.ndarray) -> bool:
        if not np.all((v == 0.0) | (v == 1.0)):
            return False
        return float(np.dot(self._weights, v)) <= self.capacity

    def enumeration_effort(self) -> int:
        # filters the full cube, so the effort is 2**n even if few survive
        return 2 ** self.dimension

    def _enumerate(self) -> np.ndarray:
        full = Hypercube(self.dimension)._enumerate()
        mask = full @ self._weights.astype(np.float64) <= self.capacity
        return full[mask]


class DagPaths(FeasibleSet):
    """Arc-incidence vectors of all source-to-sink paths in a DAG.

    Nodes are 0..num_nodes-1 listed in topological order, so every arc (u, v)
    must satisfy u < v; anything else is rejected as a cycle.  Arc k maps to
    coordinate k.  Source is node 0 and sink is node num_nodes-1.

    A set holds num_nodes, dimension and one read-only (dimension, 2) int
    array of its (tail, head) arcs, and besides the members() cache nothing
    else: membership (flow balance at each node), the path counts, the
    enumeration and the unranking of one member derive what they need from
    the array when called.  members() lists the paths in the order a
    depth-first walk from the source meets them, out-arcs in index order,
    so member i follows from the path counts alone: _member unranks one,
    and _cache_many unranks every path of a batch of sets.
    """

    def __init__(self, num_nodes: int, arcs):
        m = int(num_nodes)
        if m < 2:
            raise ValueError("need at least two nodes (source and sink)")
        arc_list: list[tuple[int, int]] = []
        for u, v in arcs:
            u, v = int(u), int(v)
            if not 0 <= u < v < m:
                if not (0 <= u < m and 0 <= v < m):
                    raise ValueError(f"arc ({u}, {v}) references a missing node")
                raise ValueError(
                    f"arc ({u}, {v}) violates topological order (cycle)"
                )
            arc_list.append((u, v))
        if not arc_list:
            raise ValueError("need at least one arc")
        ends = np.array(arc_list, dtype=np.intp)
        ends.flags.writeable = False
        self.num_nodes = m
        self.dimension = len(arc_list)
        self._ends = ends
        if self.enumeration_effort() == 0:
            raise ValueError("no source-to-sink path exists")

    @classmethod
    def _of_row(cls, num_nodes: int, arcs: np.ndarray) -> "DagPaths":
        """DagPaths(num_nodes, arcs) without the checks, for an (n, 2) intp
        array drawn as generation draws arcs.  The set reads arcs through a
        read-only view, arcs itself when it is one; a writable arcs stays
        writable, since a rejected set's redraw overwrites it for a new set."""
        X = cls.__new__(cls)
        X.num_nodes = num_nodes
        X.dimension = arcs.shape[0]
        if arcs.flags.writeable:
            arcs = arcs.view()
            arcs.flags.writeable = False
        X._ends = arcs
        return X

    @property
    def arcs(self) -> tuple[tuple[int, int], ...]:
        return tuple(map(tuple, self._ends.tolist()))

    def _contains(self, v: np.ndarray) -> bool:
        # a 0/1 choice whose arcs leave the source once and leave each inner
        # node as often as they enter it is one path, as a DAG has no cycle
        net = [0] * self.num_nodes
        for (u, w), b in zip(self._ends.tolist(), v.tolist()):
            if b != 0.0:
                if b != 1.0:
                    return False
                net[u] += 1
                net[w] -= 1
        return net[0] == 1 and not any(net[1:-1])

    def _path_counts(self) -> list[int]:
        """The exact number of paths from each node to the sink."""
        # in decreasing tail order, every arc out of v is counted before an
        # arc into v reads counts[v]
        counts = [0] * self.num_nodes
        counts[-1] = 1
        ends = self._ends.tolist()
        for k in _arc_order(self._ends[:, 0])[::-1].tolist():
            u, v = ends[k]
            counts[u] += counts[v]
        return counts

    def enumeration_effort(self) -> int:
        """The exact number of source-to-sink paths."""
        return self._path_counts()[0]

    def _member(self, counts: list[int], i: int) -> np.ndarray:
        """members()[i], bitwise, read-only and folded, without enumerating;
        counts is _path_counts() and 0 <= i < counts[0].

        From the source, the arcs out of the walk's node are met in index
        order: an arc (u, v) whose counts[v] paths all come before path i
        is skipped, and the first one holding path i is taken.
        """
        row, node = np.zeros(self.dimension), 0
        ends = self._ends.tolist()
        for k in _arc_order(self._ends[:, 0]).tolist():
            u, v = ends[k]
            if u != node:
                continue
            if i < counts[v]:
                row[k] = 1.0
                node = v
            else:
                i -= counts[v]
        row.flags.writeable = False
        return row

    def _enumerate(self) -> np.ndarray:
        m = self.num_nodes
        # (arc index, head) pairs out of each node, in arc-index order
        out: list[list[tuple[int, int]]] = [[] for _ in range(m)]
        for k, (u, v) in enumerate(self._ends.tolist()):
            out[u].append((k, v))
        reached = [False] * m
        reached[0] = True
        for u in range(m - 1):
            if reached[u]:
                for _, v in out[u]:
                    reached[v] = True
        # paths[u]: arc tuples of the u-to-sink paths, in the order a
        # depth-first walk from u meets them; only nodes the source reaches
        # are built, so no list outgrows the source's
        paths: list[list[tuple[int, ...]]] = [[] for _ in range(m)]
        paths[m - 1] = [()]
        for u in range(m - 2, -1, -1):
            if reached[u]:
                paths[u] = [(k,) + p for k, v in out[u] for p in paths[v]]
        found = paths[0]
        n = self.dimension
        rows = np.zeros((len(found), n))
        rows.reshape(-1)[[r * n + k for r, p in enumerate(found) for k in p]] = 1.0
        return rows

    @staticmethod
    def _cache_many(sets: Sequence["DagPaths"]) -> None:
        """Cache members() of distinct cold sets of one num_nodes and
        dimension, each bitwise its _enumerate(), in one batch.

        Each set's arcs are taken in _arc_order, as argmax relaxes them.
        One path-count pass runs over those slots backwards, across the
        batch at once; a count is held at cap + 1, so a set within the cap
        has the exact count at every node it reaches.
        The first set past DEFAULT_ENUMERATION_CAP is refused with its
        exact count, as members() would refuse it.  Then every path index
        of every set is unranked at once, as _member unranks one, and each
        set caches a read-only view of its rows of the batch.
        """
        k, m, n = len(sets), sets[0].num_nodes, sets[0].dimension
        cap = DEFAULT_ENUMERATION_CAP
        ends = np.array([X._ends for X in sets])  # as np.stack, twice as fast
        order = _arc_order(ends[:, :, 0])
        # node v of set r is entry r * m + v of the flat counts
        source = np.arange(0, k * m, m)
        tails = np.take_along_axis(ends[:, :, 0], order, axis=1) + source[:, None]
        heads = np.take_along_axis(ends[:, :, 1], order, axis=1) + source[:, None]
        counts = np.zeros(k * m, dtype=np.int64)
        counts[source + m - 1] = 1
        for tail, head in zip(tails.T[::-1], heads.T[::-1]):
            counts[tail] = np.minimum(counts[tail] + counts[head], cap + 1)
        totals = counts[source]
        refused = np.flatnonzero(totals > cap)
        if refused.size:
            # the first such set's exact count, which exceeds the cap
            _check_cap(sets[int(refused[0])].enumeration_effort(), cap)
        # path p is path rank[p] of set owner[p]; node[p] is where its walk is
        owner = np.repeat(np.arange(k), totals)
        first = np.cumsum(totals) - totals
        rank = np.arange(owner.size) - first[owner]
        node = source[owner]
        rows = np.zeros((owner.size, n))
        for j in range(n):
            head = heads[owner, j]
            below = counts[head]
            here = node == tails[owner, j]
            take = here & (rank < below)
            rank -= below * (here & ~take)
            node = np.where(take, head, node)
            taken = np.flatnonzero(take)
            rows[taken, order[owner[taken], j]] = 1.0
        rows.flags.writeable = False
        for X, start, total in zip(sets, first.tolist(), totals.tolist()):
            X._members_cache = rows[start:start + total]


def _fill_members(sets: Sequence[FeasibleSet]) -> None:
    """Fill every cold members() cache of sets, in order, as a members()
    call on each set would, refusing the first set past the cap.

    A set object that comes again is enumerated once.  Consecutive cold
    DagPaths sets of one num_nodes and dimension, at most _STACK_CHUNK of
    them, are enumerated in one DagPaths._cache_many batch, which stops
    before a set of another shape or family; any other cold set goes
    through members().
    """
    batch: dict[int, DagPaths] = {}  # the batch's sets by identity, in order
    shape = None
    for X in sets:
        if X._members_cache is not None or id(X) in batch:
            continue
        key = (X.num_nodes, X.dimension) if isinstance(X, DagPaths) else None
        if batch and (key != shape or len(batch) == _STACK_CHUNK):
            DagPaths._cache_many(list(batch.values()))
            batch.clear()
        if key is None:
            X.members()
        else:
            batch[id(X)] = X
            shape = key
    if batch:
        DagPaths._cache_many(list(batch.values()))


class _ObservationFields(NamedTuple):
    feasible_set: FeasibleSet
    agent_choice: np.ndarray


class Observation(_ObservationFields):
    """One round of interaction: the feasible set and the agent's choice.

    A round is its position in the stream, counted from 1.
    """

    __slots__ = ()

    def __new__(cls, feasible_set: FeasibleSet, agent_choice) -> "Observation":
        choice = as_vector(agent_choice)
        if choice.size != feasible_set.dimension:
            raise DimensionMismatchError(
                f"choice has dimension {choice.size}, "
                f"set has {feasible_set.dimension}"
            )
        if not feasible_set._contains(choice):
            raise MembershipError("agent choice is not in the feasible set")
        return super().__new__(cls, feasible_set, choice)

    @classmethod
    def _make(cls, values) -> "Observation":
        return cls(*values)

    @classmethod
    def _of_member(cls, feasible_set: FeasibleSet, choice: np.ndarray) -> "Observation":
        """Observation(feasible_set, choice) without the checks, for a
        read-only, folded member of the set: an oracle answer or a
        uniform_member row."""
        return tuple.__new__(cls, (feasible_set, choice))


class PredictionDomain:
    """Closed convex set that predictions are constrained to."""

    dimension: int
    norm_pair: NormPair

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        """Draw one point uniformly from the domain."""
        raise NotImplementedError


class Simplex(PredictionDomain):
    """Probability simplex, paired with the (linf, l1) norms.

    Never contains the all-zero vector, so suboptimality losses cannot be
    trivially zeroed out.
    """

    def __init__(self, n: int):
        n = int(n)
        if n < 1:
            raise ValueError("dimension must be at least 1")
        self.dimension = n
        self.norm_pair = NormPair.linf_l1()

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        return as_vector(rng.dirichlet(np.ones(self.dimension)))


class Ball(PredictionDomain):
    """Euclidean ball, paired with the (l2, l2) norms.

    The center must be farther than the radius from the origin so the domain
    excludes the all-zero objective.
    """

    def __init__(self, center, radius: float):
        center = as_vector(center)
        radius = float(radius)
        if not 0.0 < radius < math.inf:
            raise ValueError(f"radius must be positive and finite, got {radius!r}")
        if float(np.linalg.norm(center)) <= radius:
            raise ValueError(
                "center must be farther than the radius from the origin "
                "(the domain must exclude the all-zero objective)"
            )
        self.center = center
        self.radius = radius
        self.dimension = int(center.size)
        self.norm_pair = NormPair.l2_l2()

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        direction = rng.standard_normal(self.dimension)
        norm = float(np.linalg.norm(direction))
        while norm == 0.0:
            direction = rng.standard_normal(self.dimension)
            norm = float(np.linalg.norm(direction))
        r = self.radius * float(rng.random()) ** (1.0 / self.dimension)
        return as_vector(self.center + (r / norm) * direction)
