"""Shared numeric primitives: vectors, norm pairs, feasible sets, observations,
and prediction domains.

Everything in this module is immutable after construction and safe to share
across concurrent readers; all operations are pure functions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

TOL = 1e-9
DEFAULT_ENUMERATION_CAP = 2 ** 20
_BINARY = frozenset((0.0, 1.0))


class DimensionMismatchError(ValueError):
    """Operands live in different ambient dimensions."""


class MembershipError(ValueError):
    """A vector required to belong to a feasible set does not."""


class EnumerationRefusedError(RuntimeError):
    """Exact enumeration would exceed the configured element cap."""


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


def inner_product(a, b) -> float:
    """Standard inner product with a hard dimension check."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise DimensionMismatchError(f"shapes {a.shape} and {b.shape} differ")
    return _dot(a, b)


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


@dataclass(frozen=True)
class NormPair:
    """A primal norm on the action space paired with its dual on objectives.

    kind "linf-l1": primal sup norm, dual 1-norm.
    kind "l2-l2":   Euclidean on both sides (self-dual).
    """

    kind: str

    LINF_L1 = "linf-l1"
    L2_L2 = "l2-l2"

    def __post_init__(self):
        if self.kind not in (self.LINF_L1, self.L2_L2):
            raise ValueError(f"unknown norm pair kind {self.kind!r}")

    @classmethod
    def linf_l1(cls) -> "NormPair":
        return cls(cls.LINF_L1)

    @classmethod
    def l2_l2(cls) -> "NormPair":
        return cls(cls.L2_L2)

    def primal(self, v) -> float:
        v = np.asarray(v, dtype=np.float64)
        if self.kind == self.LINF_L1:
            return float(np.max(np.abs(v)))
        return float(np.linalg.norm(v))

    def dual(self, v) -> float:
        v = np.asarray(v, dtype=np.float64)
        if self.kind == self.LINF_L1:
            return float(np.sum(np.abs(v)))
        return float(np.linalg.norm(v))

    def dual_rows(self, m: np.ndarray) -> np.ndarray:
        """dual() of every row of a (T, n) float64 stack, bitwise."""
        if self.kind == self.LINF_L1:
            return np.sum(np.abs(m), axis=1)
        # np.linalg.norm of a vector is the square root of its dot with itself
        return np.sqrt(_row_dots(m, m))


class FeasibleSet:
    """A finite, nonempty action set with exact membership and enumeration.

    Subclasses are immutable; enumeration results are cached on first use
    (rebuilding the cache concurrently is idempotent, so sharing is safe).
    """

    dimension: int

    def __init__(self):
        self._members_cache: np.ndarray | None = None

    def contains(self, v) -> bool:
        """Exact membership test for this variant."""
        raise NotImplementedError

    def _contains(self, v: np.ndarray) -> bool:
        """contains() for a vector as_vector has already validated."""
        return self.contains(v)

    def enumeration_effort(self) -> int:
        """Number of candidates scanned by members(); used for cap gating."""
        raise NotImplementedError

    def _enumerate(self) -> np.ndarray:
        raise NotImplementedError

    def require_enumerable(self, cap: int = DEFAULT_ENUMERATION_CAP) -> None:
        """Raise EnumerationRefusedError when members(cap) would refuse."""
        effort = self.enumeration_effort()
        if effort > cap:
            raise EnumerationRefusedError(
                f"enumeration effort {effort} exceeds cap {cap}"
            )

    def members(self, cap: int = DEFAULT_ENUMERATION_CAP) -> np.ndarray:
        """All elements as rows of a read-only (m, n) float array.

        Refuses with EnumerationRefusedError when the enumeration effort
        exceeds ``cap``; callers then stay in oracle-only mode rather than
        receiving an approximation.
        """
        self.require_enumerable(cap)
        if self._members_cache is None:
            m = self._enumerate()
            m = m + 0.0
            m.flags.writeable = False
            self._members_cache = m
        return self._members_cache


class ExplicitVertices(FeasibleSet):
    """The set is exactly the given points, deduplicated, input order kept."""

    def __init__(self, vertices):
        super().__init__()
        m = np.asarray(vertices, dtype=np.float64)
        if m.ndim == 1:
            m = m.reshape(1, -1)
        if m.ndim != 2 or m.shape[0] == 0 or m.shape[1] == 0:
            raise ValueError("vertices must form a non-empty (m, n) array")
        if not np.isfinite(m).all():
            raise ValueError("vertex entries must be finite")
        m = np.ascontiguousarray(m + 0.0)
        # with -0.0 folded, rows whose first entries all differ are distinct,
        # so only a shared first entry calls for the full dedup
        lead = np.sort(m[:, 0])
        if (lead[1:] == lead[:-1]).any():
            # equal bytes mean equal rows: one void item per row
            rows = m.view(np.dtype((np.void, m.itemsize * m.shape[1]))).ravel()
            _, first = np.unique(rows, return_index=True)
            if first.size < m.shape[0]:
                m = m[np.sort(first)]
        m.flags.writeable = False
        self._vertices = m
        self.dimension = int(m.shape[1])

    @property
    def vertices(self) -> np.ndarray:
        return self._vertices

    def contains(self, v) -> bool:
        return self._contains(as_vector(v))

    def _contains(self, v: np.ndarray) -> bool:
        if v.size != self.dimension:
            return False
        return bool((self._vertices == v).all(axis=1).any())

    def enumeration_effort(self) -> int:
        return int(self._vertices.shape[0])

    def _enumerate(self) -> np.ndarray:
        return self._vertices.copy()


class Hypercube(FeasibleSet):
    """All 0/1 vectors of a given dimension."""

    def __init__(self, n: int):
        super().__init__()
        n = int(n)
        if n < 1:
            raise ValueError("dimension must be at least 1")
        self.dimension = n

    def contains(self, v) -> bool:
        v = np.asarray(v, dtype=np.float64)
        if v.shape != (self.dimension,):
            return False
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
        super().__init__()
        w = np.asarray(weights)
        wf = np.asarray(w, dtype=np.float64)
        if wf.ndim != 1 or wf.size == 0:
            raise ValueError("weights must be a non-empty 1-D sequence")
        if not np.all(np.isfinite(wf)) or np.any(wf != np.round(wf)):
            raise ValueError("weights must be integers")
        if np.any(wf < 0):
            raise ValueError("weights must be nonnegative")
        cap = int(capacity)
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

    def contains(self, v) -> bool:
        v = np.asarray(v, dtype=np.float64)
        if v.shape != (self.dimension,):
            return False
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
    """

    def __init__(self, num_nodes: int, arcs):
        super().__init__()
        m = int(num_nodes)
        if m < 2:
            raise ValueError("need at least two nodes (source and sink)")
        arc_list: list[tuple[int, int]] = []
        out: list[list[tuple[int, int]]] = [[] for _ in range(m)]
        for k, (u, v) in enumerate(arcs):
            u, v = int(u), int(v)
            if not 0 <= u < v < m:
                if not (0 <= u < m and 0 <= v < m):
                    raise ValueError(f"arc ({u}, {v}) references a missing node")
                raise ValueError(
                    f"arc ({u}, {v}) violates topological order (cycle)"
                )
            arc_list.append((u, v))
            out[u].append((k, v))
        if not arc_list:
            raise ValueError("need at least one arc")
        self.num_nodes = m
        self._arcs = tuple(arc_list)
        self._out = tuple(map(tuple, out))
        # path counts from each node to the sink, exact integers
        counts = [0] * m
        counts[m - 1] = 1
        for u in range(m - 2, -1, -1):
            total = 0
            for _, v in out[u]:
                total += counts[v]
            counts[u] = total
        if counts[0] == 0:
            raise ValueError("no source-to-sink path exists")
        self._path_count = counts[0]
        self.dimension = len(arc_list)

    @property
    def arcs(self) -> tuple[tuple[int, int], ...]:
        return self._arcs

    def out_arcs(self, node: int) -> tuple[tuple[int, int], ...]:
        """Outgoing (arc_index, head) pairs of a node, in arc-index order."""
        return self._out[node]

    def contains(self, v) -> bool:
        v = np.asarray(v, dtype=np.float64)
        if v.shape != (self.dimension,):
            return False
        x = v.tolist()
        # -0.0 equals 0.0 and nan equals neither
        if not _BINARY.issuperset(x):
            return False
        sink = self.num_nodes - 1
        cur = 0
        steps = 0
        while cur != sink:
            nxt = -1
            for k, w in self._out[cur]:
                if x[k] == 1.0:
                    nxt = w
            if nxt < 0:
                return False
            steps += 1
            cur = nxt
        # a second selected arc out of a walked node is never walked, so
        # it leaves the walk shorter than the selection
        return steps == x.count(1.0)

    def enumeration_effort(self) -> int:
        return self._path_count

    def _enumerate(self) -> np.ndarray:
        m = self.num_nodes
        reached = [False] * m
        reached[0] = True
        for u in range(m - 1):
            if reached[u]:
                for _, v in self._out[u]:
                    reached[v] = True
        # paths[u]: arc tuples of the u-to-sink paths, in the order a
        # depth-first walk from u meets them; only nodes the source reaches
        # are built, so no list outgrows the source's
        paths: list[list[tuple[int, ...]]] = [[] for _ in range(m)]
        paths[m - 1] = [()]
        for u in range(m - 2, -1, -1):
            if reached[u]:
                paths[u] = [(k,) + p for k, v in self._out[u] for p in paths[v]]
        found = paths[0]
        n = self.dimension
        rows = np.zeros((len(found), n))
        rows.reshape(-1)[[r * n + k for r, p in enumerate(found) for k in p]] = 1.0
        return rows


@dataclass(frozen=True, eq=False)
class Observation:
    """One round of interaction: the feasible set and the agent's choice."""

    feasible_set: FeasibleSet
    agent_choice: np.ndarray
    round_index: int

    def __post_init__(self):
        choice = as_vector(self.agent_choice)
        object.__setattr__(self, "agent_choice", choice)
        if int(self.round_index) != self.round_index or self.round_index < 1:
            raise ValueError("round_index must be a positive integer")
        if choice.size != self.feasible_set.dimension:
            raise DimensionMismatchError(
                f"choice has dimension {choice.size}, "
                f"set has {self.feasible_set.dimension}"
            )
        if not self.feasible_set._contains(choice):
            raise MembershipError("agent choice is not in the feasible set")


class PredictionDomain:
    """Closed convex set that predictions are constrained to."""

    dimension: int
    norm_pair: NormPair

    def contains(self, v, tol: float | None = None) -> bool:
        raise NotImplementedError

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

    def contains(self, v, tol: float | None = None) -> bool:
        v = np.asarray(v, dtype=np.float64)
        if v.shape != (self.dimension,):
            return False
        if tol is None:
            tol = tolerance(1.0)
        return bool(np.all(v >= -tol)) and abs(float(v.sum()) - 1.0) <= tol

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
        if radius <= 0.0:
            raise ValueError("radius must be positive")
        if float(np.linalg.norm(center)) <= radius:
            raise ValueError(
                "center must be farther than the radius from the origin "
                "(the domain must exclude the all-zero objective)"
            )
        self.center = center
        self.radius = radius
        self.dimension = int(center.size)
        self.norm_pair = NormPair.l2_l2()

    def contains(self, v, tol: float | None = None) -> bool:
        v = np.asarray(v, dtype=np.float64)
        if v.shape != (self.dimension,):
            return False
        if tol is None:
            tol = tolerance(self.radius)
        return float(np.linalg.norm(v - self.center)) <= self.radius + tol

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        direction = rng.standard_normal(self.dimension)
        norm = float(np.linalg.norm(direction))
        while norm == 0.0:
            direction = rng.standard_normal(self.dimension)
            norm = float(np.linalg.norm(direction))
        r = self.radius * float(rng.random()) ** (1.0 / self.dimension)
        return as_vector(self.center + (r / norm) * direction)
