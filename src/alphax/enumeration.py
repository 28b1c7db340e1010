"""Isomorph-free enumeration of connectivity-defined graph classes.

Minimally 2-edge-connected graphs are grown, not scanned.  Two theorems make
that complete.  No cycle of such a graph has a chord (the paper's lemma),
and a vertex deletion cannot create one.  Every graph of minimum degree at
least 3 has a chorded cycle: the end of a longest path has all its
neighbours on the path, and three of them close a cycle with a chord (Posa;
Czipszer).  So every chorded-cycle-free graph loses a vertex of degree at
most 2 to one on a vertex fewer, and these graphs are grown from K_1 one
vertex at a time, joined to at most 2 others, deduplicated by canonical form
at each order.  A member has minimum degree exactly 2, so the members on n
vertices are found among order n-1 plus a vertex joined to exactly 2 others,
by the exact class predicate.

Every other class is scanned over labeled edge subsets.  Cheap necessary
conditions prune the scan: the minimum degree of a minimally
k-(edge-)connected graph equals k, a minimally 2-edge-connected graph has at
most 2n-2 edges, a minimally k-connected graph on n >= 3k-2 vertices has at
most k(n-k) edges (Mader, "Ecken vom Grad n in minimalen n-fach
zusammenhaengenden Graphen", Arch. Math. 23, 1972), and a connected graph
has at least n-1 edges.  Only labeled graphs whose vertices are in
non-increasing order of (degree, sum of neighbour degrees) are kept (the key
is isomorphism-invariant, so every class has such a labelling, nothing is
lost and the later dedup shrinks a lot).  Survivors then pass the exact
class predicate, are canonically labelled, deduplicated, and returned sorted
by canonical form.  For minimally k-connected classes the predicate
(connectivity.is_minimally_k_connected) first checks that the vertices of
degree above k induce a forest, since every cycle has a vertex of degree k
(Mader 1972, above); the edge classes fail that from n=9 on (see
connectivity.high_degree_forest).

Built-in generation covers n <= 12 (the canonical-form cap) for minimally
2-edge-connected graphs and n <= 8 for the scanned classes.  Larger orders
are ingested from graph6 files and pushed through the same predicate/dedup
pipeline.  The scan and the ingest path run the same class predicate, so
neither checks the other; the predicate is checked against brute-force and
networkx oracles in the tests, and the generator against a scan that uses
neither the chord lemma nor Mader's bounds.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import lru_cache

from . import connectivity, kernels
from .canonical import (
    MAX_CANONICAL_VERTICES,
    CanonicalForm,
    CapabilityError,
    canonical_form,
)
from .graph import Graph, pair_count

MAX_BUILTIN_N = 8  # cap of the labelled scan

ALL_CONNECTED = "all-connected"
_MIN_EDGE_RE = re.compile(r"^min-(\d+)-edge-connected$")
_MIN_VERTEX_RE = re.compile(r"^min-(\d+)-connected$")


@dataclass(frozen=True)
class ClassFilter:
    """A graph class: all-connected, min-k-edge-connected, or min-k-connected."""

    kind: str
    k: int = 1

    def __post_init__(self):
        if self.kind not in (ALL_CONNECTED, "min-edge", "min-vertex"):
            raise ValueError(f"unknown class kind {self.kind!r}")
        if self.k < 1:
            raise ValueError("k must be at least 1")

    @classmethod
    def parse(cls, name: str) -> "ClassFilter":
        name = name.strip().lower()
        if name == ALL_CONNECTED:
            return cls(ALL_CONNECTED)
        if m := _MIN_EDGE_RE.match(name):
            return cls("min-edge", int(m.group(1)))
        if m := _MIN_VERTEX_RE.match(name):
            return cls("min-vertex", int(m.group(1)))
        raise ValueError(
            f"unknown class name {name!r}; expected all-connected, "
            "min-K-edge-connected, or min-K-connected"
        )

    def describe(self) -> str:
        if self.kind == ALL_CONNECTED:
            return ALL_CONNECTED
        if self.kind == "min-edge":
            return f"min-{self.k}-edge-connected"
        return f"min-{self.k}-connected"

    def passes(self, g: Graph) -> bool:
        """Exact membership test via the connectivity module."""
        if self.kind == ALL_CONNECTED:
            return g.is_connected()
        if g.n < 2:
            return False
        if self.kind == "min-edge":
            return connectivity.is_minimally_k_edge_connected(g, self.k)
        return connectivity.is_minimally_k_connected(g, self.k)


MIN_2EC = ClassFilter("min-edge", 2)


def scan_plan(n: int, flt: ClassFilter) -> tuple[int, int, int, list[str]]:
    """(m_lo, m_hi, dmin) for the labeled scan plus the justifying facts."""
    emax = pair_count(n)
    if flt.kind == ALL_CONNECTED:
        return (
            max(n - 1, 0),
            emax,
            1 if n > 1 else 0,
            ["m >= n-1: every connected graph contains a spanning tree"],
        )
    k = flt.k
    notes = [
        f"delta >= {k}: a minimally {flt.describe().removeprefix('min-')} "
        f"graph has minimum degree exactly {k}",
        f"m >= ceil({k}n/2): forced by the degree floor",
    ]
    m_hi = emax
    if flt.kind == "min-edge" and k == 2:
        m_hi = min(m_hi, 2 * n - 2)
        notes.append("m <= 2n-2: edge count bound for minimally 2-edge-connected graphs")
    if flt.kind == "min-vertex":
        if n >= 3 * k - 2:
            m_hi = min(m_hi, k * (n - k))
            notes.append(f"m <= {k}(n-{k}): Mader's edge bound for minimally {k}-connected "
                         f"graphs on n >= {3 * k - 2} vertices")
        notes.append(f"vertices of degree > {k} induce a forest: every cycle has a vertex "
                     f"of degree {k} (Mader)")
    return math.ceil(k * n / 2), m_hi, k, notes


def builtin_cap(flt: ClassFilter) -> int:
    """Largest order that enumerate_class generates for the class."""
    return MAX_CANONICAL_VERTICES if flt == MIN_2EC else MAX_BUILTIN_N


def enumerate_class(n: int, flt: ClassFilter) -> list[Graph]:
    """All members of the class on n vertices, one canonical graph each.

    Output is sorted by canonical form.  Raises CapabilityError beyond the
    built-in range; use ingest_class with a graph6 file instead.  Each class
    is generated once per process; every call returns a fresh list.
    """
    if n < 1:
        raise ValueError("n must be positive")
    cap = builtin_cap(flt)
    if n > cap:
        raise CapabilityError(
            f"built-in generation of {flt.describe()} supports n <= {cap}; "
            "ingest a pre-generated graph6 file for larger orders"
        )
    if flt == MIN_2EC:
        return list(_grow_min2ec(n))
    return list(_scan_class(n, flt))


@lru_cache(maxsize=16)
def _scan_class(n: int, flt: ClassFilter) -> tuple[Graph, ...]:
    m_lo, m_hi, dmin, _ = scan_plan(n, flt)
    masks = kernels.scan_masks(n, m_lo, m_hi, dmin, flt.passes)
    return tuple(dedup_by_isomorphism(Graph.from_edge_mask(n, mask) for mask in masks))


def _join_new_vertex(g: Graph, nbrs: int) -> Graph:
    """g plus a new last vertex adjacent to the vertex set ``nbrs``."""
    n = g.n
    adj = [row | ((nbrs >> v) & 1) << n for v, row in enumerate(g.adjacency_rows())]
    return Graph(n + 1, (*adj, nbrs))


def _pairs(n: int) -> list[int]:
    return [(1 << i) | (1 << j) for j in range(n) for i in range(j)]


@lru_cache(maxsize=None)
def _chorded_cycle_free(n: int) -> tuple[Graph, ...]:
    """All graphs on n vertices in which no cycle has a chord, canonical and sorted.

    Connected or not: deleting a vertex may disconnect a graph.  A new vertex
    of degree 0 or 1 lies on no cycle, so only joins to 2 vertices are tested.
    """
    if n == 1:
        return (Graph(1, (0,)),)
    joins = [0, *(1 << v for v in range(n - 1))]
    pairs = _pairs(n - 1)
    forms: set[CanonicalForm] = set()
    for g in _chorded_cycle_free(n - 1):
        forms.update(canonical_form(_join_new_vertex(g, nbrs)) for nbrs in joins)
        for nbrs in pairs:
            h = _join_new_vertex(g, nbrs)
            if not connectivity.has_chorded_cycle(h):
                forms.add(canonical_form(h))
    return tuple(f.graph() for f in sorted(forms))


@lru_cache(maxsize=None)
def _grow_min2ec(n: int) -> tuple[Graph, ...]:
    """Minimally 2-edge-connected graphs: level n-1 plus a vertex of degree 2."""
    if n < 3:
        return ()
    pairs = _pairs(n - 1)
    grown = (_join_new_vertex(g, nbrs) for g in _chorded_cycle_free(n - 1) for nbrs in pairs)
    return tuple(dedup_by_isomorphism(h for h in grown if MIN_2EC.passes(h)))


def dedup_by_isomorphism(graphs) -> list[Graph]:
    """One canonical representative per isomorphism class, sorted."""
    forms: set[CanonicalForm] = {canonical_form(g) for g in graphs}
    return [f.graph() for f in sorted(forms)]


def ingest_class(graphs, n: int, flt: ClassFilter) -> list[Graph]:
    """Filter, dedup, and sort externally supplied graphs into a class list.

    Every input must have the requested vertex count.  Extra graphs that fail
    the class predicate are dropped, so a superset of the class is fine;
    missing members obviously cannot be recovered.
    """
    kept = []
    for i, g in enumerate(graphs):
        if g.n != n:
            raise ValueError(f"ingested graph {i} has {g.n} vertices, expected {n}")
        if flt.passes(g):
            kept.append(g)
    return dedup_by_isomorphism(kept)
