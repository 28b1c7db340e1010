"""Small simple graphs on at most 64 vertices, stored as bitset adjacency rows.

A :class:`Graph` is an immutable value: every mutating operation returns a new
instance.  Vertices are integers 0..n-1.  Row ``u`` is a Python int whose bit
``v`` says whether uv is an edge, which makes neighbourhood algebra (unions,
intersections, differences of vertex sets) single integer operations.

Vertex sets are plain ints used as bitmasks, or any iterable of vertex
indices; helpers below convert between the two.

:meth:`Graph.edge_bits` and :meth:`Graph.from_edge_bits` map rows to and from
the one edge-bit code, shared by graph6 lines and canonical forms.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

MAX_VERTICES = 64


def mask_of(vertices: Iterable[int] | int) -> int:
    """Bitmask for a vertex collection (ints pass through unchanged)."""
    if isinstance(vertices, int):
        return vertices
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def bits(mask: int) -> Iterator[int]:
    """Iterate set bit positions of a mask in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _check_order(n: int) -> None:
    if not 1 <= n <= MAX_VERTICES:
        raise ValueError(f"vertex count {n} outside supported range 1..{MAX_VERTICES}")


def pair_count(n: int) -> int:
    return n * (n - 1) // 2


def pair_list(n: int) -> list[tuple[int, int]]:
    """All vertex pairs of an n-vertex graph in column order."""
    return [(i, j) for j in range(1, n) for i in range(j)]


class Graph:
    """Immutable simple graph with bitset adjacency rows."""

    __slots__ = ("n", "m", "_adj")

    def __init__(self, n: int, adj: tuple[int, ...]):
        _check_order(n)
        adj = tuple(adj)  # keep the rows that were checked, as a hashable value
        if len(adj) != n:
            raise ValueError("adjacency row count does not match n")
        full = (1 << n) - 1
        deg_total = 0
        for u, row in enumerate(adj):
            if row & ~full:
                raise ValueError(f"row {u} references vertices >= n")
            if (row >> u) & 1:
                raise ValueError(f"loop at vertex {u}")
            deg_total += row.bit_count()
        for u, row in enumerate(adj):
            for v in bits(row):
                if not (adj[v] >> u) & 1:
                    raise ValueError(f"asymmetric adjacency between {u} and {v}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "m", deg_total // 2)
        object.__setattr__(self, "_adj", adj)

    @classmethod
    def _trusted(cls, n: int, adj: tuple[int, ...], m: int) -> "Graph":
        """The graph on rows that the caller built valid, with none of
        ``__init__``'s checks: n in range, n symmetric loop-free rows, m edges."""
        g = object.__new__(cls)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "m", m)
        object.__setattr__(g, "_adj", adj)
        return g

    def __setattr__(self, name, value):
        raise AttributeError("Graph instances are immutable")

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self._adj == other._adj

    def __hash__(self) -> int:
        return hash((self.n, self._adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"

    # -- construction ------------------------------------------------------

    @classmethod
    def from_edge_list(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Build a graph from (u, v) pairs; duplicates collapse, loops are errors.
        The order is checked before ``edges`` is read."""
        _check_order(n)
        adj = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop edge ({u}, {v}) not allowed")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) references a vertex >= n={n}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return cls(n, tuple(adj))

    @classmethod
    def from_edge_bits(cls, n: int, code: int) -> "Graph":
        """Inverse of :meth:`edge_bits`; ``code`` must fit in n's vertex pairs."""
        _check_order(n)
        if not 0 <= code < 1 << pair_count(n):
            raise ValueError(f"edge code {code} does not fit {pair_count(n)} vertex pairs")
        adj = [0] * n
        for idx, (i, j) in enumerate(reversed(pair_list(n))):
            if (code >> idx) & 1:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
        return cls(n, tuple(adj))

    def edge_bits(self) -> int:
        """Upper triangle in column order, first pair most significant: the
        order of graph6's bit stream (unpadded) and of ``CanonicalForm.bits``."""
        code = 0
        for j, row in enumerate(self._adj):
            for i in range(j):
                code = (code << 1) | ((row >> i) & 1)
        return code

    # -- basic queries -----------------------------------------------------

    def adjacency_rows(self) -> tuple[int, ...]:
        return self._adj

    def degree(self, u: int) -> int:
        return self._adj[u].bit_count()

    def degrees(self) -> list[int]:
        return [row.bit_count() for row in self._adj]

    def min_degree(self) -> int:
        return min(self.degrees())

    def max_degree(self) -> int:
        return max(self.degrees())

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self._adj[u] >> v) & 1)

    def edges(self) -> list[tuple[int, int]]:
        """Edge list with u < v, sorted."""
        out = []
        for u, row in enumerate(self._adj):
            for v in bits(row >> (u + 1)):
                out.append((u, u + 1 + v))
        return out

    # -- edge surgery ------------------------------------------------------

    def add_edge(self, u: int, v: int) -> "Graph":
        if u == v:
            raise ValueError("cannot add a loop")
        if self.has_edge(u, v):
            raise ValueError(f"edge ({u}, {v}) already present")
        adj = list(self._adj)
        adj[u] |= 1 << v
        adj[v] |= 1 << u
        return Graph(self.n, tuple(adj))

    def delete_edge(self, u: int, v: int) -> "Graph":
        if not self.has_edge(u, v):
            raise ValueError(f"edge ({u}, {v}) not present")
        adj = list(self._adj)
        adj[u] &= ~(1 << v)
        adj[v] &= ~(1 << u)
        return Graph(self.n, tuple(adj))

    def induced_subgraph(self, vertices: Iterable[int] | int) -> "Graph":
        """Subgraph induced on the given vertices, relabelled 0..k-1 in sorted order."""
        keep = mask_of(vertices)
        if keep == 0:
            raise ValueError("induced subgraph on the empty vertex set is not defined")
        if keep & ~((1 << self.n) - 1):
            raise ValueError("vertex set references vertices >= n")
        kept = list(bits(keep))
        relabel = {v: i for i, v in enumerate(kept)}
        adj = [0] * len(kept)
        for v in kept:
            for w in bits(self._adj[v] & keep):
                adj[relabel[v]] |= 1 << relabel[w]
        return Graph(len(kept), tuple(adj))

    # -- connectivity-free structure --------------------------------------

    def component_masks(self) -> list[int]:
        """Vertex masks of the connected components, ordered by least vertex."""
        seen = 0
        comps = []
        full = (1 << self.n) - 1
        while seen != full:
            start = (~seen & full) & -(~seen & full)
            reach = start
            while True:
                ext = reach
                for v in bits(reach):
                    ext |= self._adj[v]
                if ext == reach:
                    break
                reach = ext
            comps.append(reach)
            seen |= reach
        return comps

    def is_connected(self) -> bool:
        return len(self.component_masks()) == 1

    def adjacency_matrix(self) -> np.ndarray:
        a = np.zeros((self.n, self.n), dtype=np.float64)
        for u, v in self.edges():
            a[u, v] = 1.0
            a[v, u] = 1.0
        return a


def neighbor_degree_sum(g: Graph, u: int) -> int:
    """Sum of deg(v) over neighbours v of u (0 for an isolated vertex)."""
    return sum(g.degree(v) for v in bits(g.adjacency_rows()[u]))


# -- edge-list text format -------------------------------------------------


def parse_edge_list(text: str) -> Graph:
    """Read the plain text format: first line "n m", then one "u v" line per edge."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty edge-list input")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError(f"header must be 'n m', got {lines[0]!r}")
    n, m = int(head[0]), int(head[1])
    if len(lines) - 1 != m:
        raise ValueError(f"header declares {m} edges but {len(lines) - 1} lines follow")
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"bad edge line {ln!r}")
        edges.append((int(parts[0]), int(parts[1])))
    return Graph.from_edge_list(n, edges)
