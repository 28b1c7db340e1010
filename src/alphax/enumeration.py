"""Isomorph-free enumeration of connectivity-defined graph classes.

Every class is grown one vertex at a time: the members on n vertices are the
graphs of a base level on n-1 vertices plus a vertex joined to exactly k of
them (every base vertex of degree below k among them) that pass the exact
class predicate, deduplicated by canonical form.  That finds every minimally
k-(edge-)connected graph G with m edges, because:

* G has a vertex v of degree k (Halin, JCT 7, 1969, for the vertex classes;
  Mader, Math. Ann. 191, 1971, for the edge classes).
* G-v is connected.  For the vertex classes kappa(G-v) >= k-1 (for k = 1, v
  is a leaf).  For the edge classes, if G-v split into parts A and B, one of
  the cuts (A, B+v) or (A+v, B) would have at most k/2 < k edges.
* G-v has m-k <= edge_bound-k edges: Mader's k(n-k) for minimally
  k-connected graphs on n >= 3k-2 vertices (Arch. Math. 23, 1972), the
  number of vertex pairs otherwise.
* Deleting a non-cut vertex, such as a leaf of a spanning tree, keeps a graph
  connected and adds no edge.  So the capped levels (connected graphs with at
  most m_max edges, grown from K_1 by joining each new vertex to a nonempty
  set within the edge room) are complete.

The base level is the capped level on n-1 vertices with edge_bound-k edges;
all-connected is a capped level itself.  Minimally 2-edge-connected graphs
grow from the chorded-cycle-free graphs instead: no cycle of a member has a
chord (the paper's lemma), nor after a vertex deletion, and a graph of
minimum degree 3 has a chorded cycle (Posa, Czipszer), so these graphs grow
from K_1 by vertices of degree at most 2.

Each base graph B is joined to one neighbour set per orbit of Aut(B) (the
generators come with B's canonical form): sigma in Aut(B) maps B+S
isomorphically onto B+sigma(S).  Every filter on S is Aut(B)-invariant, so
the candidate sets form whole orbits: the edge room (B's edge count plus
|S|), the size k, and ``S & low == low`` (``low``, the vertices of degree
below k, is a union of orbits).  Joins of different base graphs can still
be isomorphic, so every level is still deduplicated by canonical form.

Built-in generation covers n <= 12 (the canonical-form cap) for minimally
2-edge-connected graphs and n <= 8 for the other classes; larger orders are
ingested from graph6 files through the same predicate and dedup.  The tests
check the predicate against brute-force and networkx oracles, and the
generator against kernels.scan_masks, which uses none of the facts above.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from . import connectivity
from .canonical import (
    MAX_CANONICAL_VERTICES,
    CanonicalForm,
    CapabilityError,
    canonical_form,
)
from .graph import Graph, bits, pair_count

MAX_BUILTIN_N = 8  # cap of every class but min-2-edge-connected

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


def edge_bound(n: int, flt: ClassFilter) -> int:
    """Largest edge count of a class member on n vertices."""
    k = flt.k
    if flt.kind == "min-vertex" and n >= 3 * k - 2:
        return k * (n - k)  # Mader 1972
    return pair_count(n)


def generation_notes(n: int, flt: ClassFilter) -> list[str]:
    """The facts that make the built-in generation of the class complete."""
    levels = ("connected graphs with at most m edges grow from K_1: deleting a non-cut "
              "vertex (a leaf of a spanning tree) keeps a graph connected")
    if flt.kind == ALL_CONNECTED:
        return [levels]
    k, bound, vertex = flt.k, edge_bound(n, flt), flt.kind == "min-vertex"
    why = ((f"kappa(G-v) >= {k - 1}" if k > 1 else "v is a leaf") if vertex
           else f"else a cut (A, B+v) or (A+v, B) has at most {k}/2 < {k} edges")
    notes = [f"G has a vertex v of degree {k} ({'Halin 1969' if vertex else 'Mader 1971'})",
             f"G-v is connected: {why}"]
    if flt == MIN_2EC:
        return notes + ["no cycle of G-v has a chord (the paper's lemma), so it grows from "
                        "K_1 by vertices of degree at most 2 (Posa)"]
    if bound < pair_count(n):
        notes.append(f"m <= {k}(n-{k}) = {bound}: Mader's edge bound for n >= {3 * k - 2}")
    notes.append(f"G-v has at most {bound - k} edges; {levels}")
    if vertex:
        notes.append(f"vertices of degree > {k} induce a forest (Mader 1972)")
    return notes


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
    if n > (cap := builtin_cap(flt)):
        raise CapabilityError(
            f"built-in generation of {flt.describe()} supports n <= {cap}; "
            "ingest a pre-generated graph6 file for larger orders"
        )
    return [g for g, _ in _grow(n, flt)]


def _join_new_vertex(g: Graph, nbrs: int) -> Graph:
    """g plus a new last vertex adjacent to the vertex set ``nbrs``."""
    n = g.n
    adj = [row | ((nbrs >> v) & 1) << n for v, row in enumerate(g.adjacency_rows())]
    return Graph(n + 1, (*adj, nbrs))


@lru_cache(maxsize=None)
def _k_sets(n: int, k: int) -> tuple[int, ...]:
    """Every k-subset of n vertices, as a vertex mask."""
    return tuple(sum(1 << v for v in c) for c in combinations(range(n), k))


def _orbit_reps(sets, automorphisms) -> list[int]:
    """The first of the vertex masks ``sets`` in each orbit of <``automorphisms``>."""
    seen: set[int] = set()
    reps = []
    for s in sets:
        if s not in seen:
            reps.append(s)
            seen.add(s)
            orbit = [s]
            for t in orbit:  # grows while it is walked
                images = {sum(1 << gamma[v] for v in bits(t)) for gamma in automorphisms} - seen
                seen |= images
                orbit += images
    return reps


Level = tuple[tuple[Graph, tuple[tuple[int, ...], ...]], ...]
_K1: Level = ((Graph(1, (0,)), ()),)


def _level(graphs) -> Level:
    """(canonical graph, generators of its automorphism group) per isomorphism class, sorted."""
    forms: set[CanonicalForm] = {canonical_form(g) for g in graphs}
    return tuple((f.graph(), f.automorphisms) for f in sorted(forms))


@lru_cache(maxsize=None)
def _connected(n: int, m_max: int) -> Level:
    """All connected graphs on n vertices with at most m_max edges."""
    if m_max > pair_count(n):
        return _connected(n, pair_count(n))
    if n == 1:
        return _K1 if m_max >= 0 else ()
    grown = (_join_new_vertex(g, s) for g, autos in _connected(n - 1, m_max - 1)
             for s in _orbit_reps([nbrs for nbrs in range(1, 1 << (n - 1))
                                   if g.m + nbrs.bit_count() <= m_max], autos))
    return _level(grown)


@lru_cache(maxsize=None)
def _chorded_cycle_free(n: int) -> Level:
    """All graphs on n vertices in which no cycle has a chord.

    Connected or not: deleting a vertex may disconnect a graph.  A new vertex
    of degree 0 or 1 lies on no cycle, so only joins to 2 vertices are tested.
    """
    if n == 1:
        return _K1
    joins = (0, *(1 << v for v in range(n - 1)), *_k_sets(n - 1, 2))
    grown = (h for g, autos in _chorded_cycle_free(n - 1)
             for h in (_join_new_vertex(g, s) for s in _orbit_reps(joins, autos))
             if h.degree(n - 1) < 2 or not connectivity.has_chorded_cycle(h))
    return _level(grown)


@lru_cache(maxsize=None)
def _grow(n: int, flt: ClassFilter) -> Level:
    """The class on n vertices: a base level on n-1 vertices plus a vertex of degree k."""
    if flt.kind == ALL_CONNECTED:
        return _connected(n, pair_count(n))
    if n < 2:
        return ()
    k = flt.k
    base = (_chorded_cycle_free(n - 1) if flt == MIN_2EC
            else _connected(n - 1, edge_bound(n, flt) - k))
    members = []
    for g, autos in base:  # the new vertex must lift every base degree below k
        low = sum(1 << v for v, d in enumerate(g.degrees()) if d < k)
        sets = _orbit_reps((s for s in _k_sets(n - 1, k) if s & low == low), autos)
        members += filter(flt.passes, (_join_new_vertex(g, s) for s in sets))
    return _level(members)


def dedup_by_isomorphism(graphs) -> list[Graph]:
    """One canonical representative per isomorphism class, sorted."""
    return [g for g, _ in _level(graphs)]


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
