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

Every level holds only connected graphs, and each grows from the level below
by one new vertex joined to a nonempty set:

* The connected graphs on n vertices grow from those on n-1 by a vertex of
  any degree: deleting a non-cut vertex, such as a leaf of a spanning tree,
  keeps a graph connected.  This one level per order is all-connected, and
  the top base level is its joins within the edge room edge_bound-k.
* Minimally 2-edge-connected graphs grow from the connected chorded-cycle-free
  graphs instead: no cycle of a member has a chord (the paper's lemma), nor
  after a vertex deletion.  Such a graph has a vertex of degree 1 or 2 that
  is not a cut vertex: in a leaf block B, either B = K_2 with a leaf at its
  end off the cut vertex, or two copies of B glued at the cut vertex have no
  chorded cycle, and a graph of minimum degree 3 has one (Posa, Czipszer).
  So these graphs grow from K_1 by vertices of degree 1 or 2.

Only the base graphs that can be G-v are kept: their degrees are at least
k-1 and at most k of them are below k (G has minimum degree k, and deleting v
lowers only its k neighbours, by one each), and for the min-k-connected
classes the vertices of degree above k induce a forest (they have degree
above k in G, where such vertices induce a forest: Mader 1972).  This filter
runs before the base level's canonical dedup, and the degree conditions are
read off the degrees of the graph below and the join set before the joined
graph is built.  The lower levels stay complete.

Each base graph B is joined to one neighbour set per orbit of Aut(B) (the
generators come with B's canonical form): sigma in Aut(B) maps B+S
isomorphically onto B+sigma(S).  Every filter on S is Aut(B)-invariant, so
the candidate sets form whole orbits: the edge room (B's edge count plus
|S|), the size k, ``S & low == low`` (``low``, the vertices of degree
below k, is a union of orbits) and the base level's degree conditions (on
the degrees of B+S).  Joins of different base graphs can still
be isomorphic, so every level is still deduplicated by canonical form.

Built-in generation covers n <= 12 for minimally 2-edge-connected graphs and
n <= 8 for the other classes; larger orders, up to graph6's 62 vertices, are
ingested from graph6 files through the same predicate and dedup.  The tests
check the predicate against brute-force and networkx oracles, and the
generator against kernels.scan_masks, which uses none of the facts above.
"""

from __future__ import annotations

import re
from functools import lru_cache, partial
from itertools import combinations

from . import connectivity
from .canonical import CanonicalForm, canonical_form, orbit_reps
from .graph import Graph, pair_count

MAX_BUILTIN_N = 8  # cap of every class but min-2-edge-connected

ALL_CONNECTED = "all-connected"
_MIN_EDGE_RE = re.compile(r"^min-(\d+)-edge-connected$")
_MIN_VERTEX_RE = re.compile(r"^min-(\d+)-connected$")


class ClassFilter:
    """A graph class: all-connected, min-k-edge-connected, or min-k-connected."""

    __slots__ = ("kind", "k")

    def __init__(self, kind: str, k: int = 1):
        if kind not in (ALL_CONNECTED, "min-edge", "min-vertex"):
            raise ValueError(f"unknown class kind {kind!r}")
        if k < 1:
            raise ValueError("k must be at least 1")
        self.kind, self.k = kind, k

    def __repr__(self) -> str:
        return f"ClassFilter(kind={self.kind!r}, k={self.k})"

    def __eq__(self, other):
        if other.__class__ is not ClassFilter:
            return NotImplemented
        return self.kind == other.kind and self.k == other.k

    def __hash__(self) -> int:
        return hash((self.kind, self.k))

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
    # a measured limit (2-core Intel Xeon, Python 3.11.7): min-2-edge-connected
    # grows to n = 12 in 13.3 s and 42 MB, to n = 13 in 62 s and 83 MB
    return 12 if flt == MIN_2EC else MAX_BUILTIN_N


def enumerate_class(n: int, flt: ClassFilter) -> list[Graph]:
    """All members of the class on n vertices, one canonical graph each.

    Output is sorted by canonical form.  Raises ValueError beyond the
    built-in range; use ingest_class with a graph6 file instead.  Each class
    is generated once per process; every call returns a fresh list.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n > (cap := builtin_cap(flt)):
        raise ValueError(
            f"built-in generation of {flt.describe()} supports n <= {cap}; "
            "ingest a pre-generated graph6 file for larger orders"
        )
    return [g for g, _ in _grow(n, flt)]


def _join_new_vertex(g: Graph, nbrs: int) -> Graph:
    """g plus a new last vertex adjacent to the vertex set ``nbrs`` of g's vertices."""
    n = g.n
    adj = [row | ((nbrs >> v) & 1) << n for v, row in enumerate(g.adjacency_rows())]
    # symmetric by construction, so the generator skips Graph's checks
    return Graph._trusted(n + 1, (*adj, nbrs), g.m + nbrs.bit_count())


@lru_cache(maxsize=None)
def _k_sets(n: int, k: int) -> tuple[int, ...]:
    """Every k-subset of n vertices, as a vertex mask."""
    return tuple(sum(1 << v for v in c) for c in combinations(range(n), k))


Level = tuple[tuple[Graph, tuple[tuple[int, ...], ...]], ...]
_K1: Level = ((Graph(1, (0,)), ()),)


def _level(graphs) -> Level:
    """(canonical graph, generators of its automorphism group) per isomorphism class, sorted."""
    forms: set[CanonicalForm] = {canonical_form(g) for g in graphs}
    return tuple((f.graph(), f.automorphisms) for f in sorted(forms))


def _all_sets(g: Graph, sets):
    """The join-set sieve that keeps every set."""
    return sets


@lru_cache(maxsize=None)
def _connected(n: int) -> Level:
    """All connected graphs on n vertices."""
    return _K1 if n == 1 else _level(_connected_joins(n))


def _connected_joins(n: int, sieve=_all_sets):
    """Each graph of _connected(n-1) plus a vertex joined to one nonempty set per
    orbit that passes ``sieve(g, sets)``; deleting a non-cut vertex, such as a
    leaf of a spanning tree, keeps a graph connected."""
    return (_join_new_vertex(g, s) for g, autos in _connected(n - 1)
            for s in orbit_reps(sieve(g, range(1, 1 << (n - 1))), autos))


@lru_cache(maxsize=None)
def _chorded_cycle_free(n: int) -> Level:
    """All connected graphs on n vertices in which no cycle has a chord.

    Each has a vertex of degree 1 or 2 that is not a cut vertex (Posa, on a
    leaf block).  A new vertex of degree 1 lies on no cycle, so only joins to
    2 vertices are tested.
    """
    return _K1 if n == 1 else _level(_chorded_cycle_free_joins(n))


def _chorded_cycle_free_joins(n: int, sieve=_all_sets):
    """The graphs of _chorded_cycle_free(n), one or more per class, from the
    join sets of degree 1 or 2 that pass ``sieve(g, sets)``."""
    joins = (*(1 << v for v in range(n - 1)), *_k_sets(n - 1, 2))
    return (h for g, autos in _chorded_cycle_free(n - 1)
            for h in (_join_new_vertex(g, s) for s in orbit_reps(sieve(g, joins), autos))
            if h.degree(n - 1) < 2 or not connectivity.has_chorded_cycle(h))


def _liftable(g: Graph, sets, k: int, room: int) -> list[int]:
    """The sets s for which g+s has at most ``room`` edges, every degree of g+s
    is at least k-1 and at most k are below k (g+s has the degrees of g, plus
    one on s, and |s| for the new vertex)."""
    degs = g.degrees()
    if min(degs) < k - 2:
        return []
    need = sum(1 << u for u, d in enumerate(degs) if d == k - 2)  # below k-1 unless in s
    short = sum(1 << u for u, d in enumerate(degs) if d == k - 1)  # below k unless in s
    return [s for s in sets if s & need == need and k - 1 <= s.bit_count() <= room - g.m
            and need.bit_count() + (short & ~s).bit_count() + (s.bit_count() < k) <= k]


def _base(n: int, flt: ClassFilter) -> Level:
    """The base level of the class on n vertices: the graphs on n-1 vertices that
    can be G-v for a member G and a vertex v of degree k."""
    k = flt.k
    if n == 2:
        return _K1  # K_2 = K_1 plus a vertex of degree 1; for k > 1 nothing joins
    sieve = partial(_liftable, k=k, room=edge_bound(n, flt) - k)
    joins = (_chorded_cycle_free_joins if flt == MIN_2EC else _connected_joins)(n - 1, sieve)
    return _level(h for h in joins
                  if flt.kind != "min-vertex" or connectivity.high_degree_forest(h, k))


@lru_cache(maxsize=None)
def _grow(n: int, flt: ClassFilter) -> Level:
    """The class on n vertices: a base level on n-1 vertices plus a vertex of degree k."""
    if flt.kind == ALL_CONNECTED:
        return _connected(n)
    if n < 2:
        return ()
    k = flt.k
    members = []
    for g, autos in _base(n, flt):  # the new vertex must lift every base degree below k
        low = sum(1 << v for v, d in enumerate(g.degrees()) if d < k)
        sets = orbit_reps((s for s in _k_sets(n - 1, k) if s & low == low), autos)
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
