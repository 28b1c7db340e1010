"""Edge and vertex connectivity, and membership in minimally connected classes.

Connectivity values come from unit-capacity max-flow (Menger), with early
termination after a few augmenting paths for the threshold and per-edge
tests.  The vertex version runs over a reduced pair schedule: fix a
minimum-degree vertex v, then it is enough to probe v against its
non-neighbours plus every non-adjacent pair inside N(v).  Any minimum cut either misses v (so it separates v from one
of its non-neighbours) or contains v, in which case v has neighbours in two
different components of the cut and those two are a non-adjacent pair in N(v).

A graph is minimally k-(edge-)connected when it is k-(edge-)connected and
deleting any single edge destroys that property.  Minimality is decided edge
by edge, with paths counted on g itself and no edge-deleted copy, from two
facts (Menger; Mader 1971 for the edge version):

- the edge uv is one of the u-v paths, so g carries 1 + lambda_{G-uv}(u, v)
  edge-disjoint and 1 + kappa_{G-uv}(u, v) internally disjoint u-v paths;
- a cut of fewer than k edges in a connected graph is crossed by some edge,
  and separates that edge's ends.

So g is minimally k-edge-connected iff it is connected and every edge uv
carries exactly k edge-disjoint u-v paths: no global threshold pass is
needed.  A k-connected g is minimally k-connected iff no edge carries more
than k internally disjoint paths, and at k = 2 such an edge is a chord of a
cycle.
"""

from __future__ import annotations

from typing import NamedTuple

from . import _flow
from .graph import Graph, bits


def _require_multi_vertex(g: Graph) -> None:
    if g.n < 2:
        raise ValueError("connectivity is undefined for a single-vertex graph")


def edge_connectivity(g: Graph) -> int:
    """Smallest number of edges whose deletion disconnects g."""
    _require_multi_vertex(g)
    if not g.is_connected():
        return 0
    adj = g.adjacency_rows()
    best = g.n  # above every connectivity value
    for t in range(1, g.n):
        best = min(best, _flow.edge_disjoint_paths(adj, 0, t, limit=best))
    return best


def _vertex_pair_schedule(g: Graph) -> list[tuple[int, int]]:
    """Non-adjacent probe pairs that are guaranteed to witness a minimum cut."""
    n = g.n
    v = min(range(n), key=g.degree)
    row = g.adjacency_rows()[v]
    pairs = [(v, t) for t in bits(((1 << n) - 1) & ~(row | 1 << v))]
    nbrs = list(bits(row))
    for a_pos, a in enumerate(nbrs):
        for b in nbrs[a_pos + 1:]:
            if not g.has_edge(a, b):
                pairs.append((a, b))
    return pairs

def vertex_connectivity(g: Graph) -> int:
    """Smallest number of vertices whose deletion disconnects g (n-1 if complete)."""
    _require_multi_vertex(g)
    if not g.is_connected():
        return 0
    if g.m == g.n * (g.n - 1) // 2:
        return g.n - 1
    split = _flow.vertex_split(g.adjacency_rows())
    best = g.n  # above every connectivity value
    for s, t in _vertex_pair_schedule(g):
        best = min(best, _flow.vertex_disjoint_paths(split, s, t, limit=best))
    return best


def is_k_connected(g: Graph, k: int) -> bool:
    """Threshold test kappa(g) >= k."""
    _require_multi_vertex(g)
    if k <= 0:
        return True
    if g.m == g.n * (g.n - 1) // 2:
        return g.n - 1 >= k
    if g.min_degree() < k or not g.is_connected():
        return False
    split = _flow.vertex_split(g.adjacency_rows())
    return all(
        _flow.vertex_disjoint_paths(split, s, t, limit=k) >= k
        for s, t in _vertex_pair_schedule(g)
    )


def _edge_carries_more_than(g: Graph, k: int) -> bool:
    """Some edge uv, with both ends of degree above k, carries more than k
    internally disjoint u-v paths in g, so G - uv keeps k of them."""
    degrees = g.degrees()
    split = _flow.vertex_split(g.adjacency_rows())
    return any(
        degrees[u] > k and degrees[v] > k
        and _flow.vertex_disjoint_paths(split, u, v, limit=k + 1) > k
        for u, v in g.edges()
    )


def has_chorded_cycle(g: Graph) -> bool:
    """True iff some cycle of g has a chord.

    An edge xy is a chord of some cycle exactly when it carries three
    internally vertex-disjoint x-y paths: itself and two in g minus xy.
    """
    return _edge_carries_more_than(g, 2)


def is_minimally_k_edge_connected(g: Graph, k: int) -> bool:
    """lambda(g) >= k and every single edge deletion drops lambda below k,
    that is: g is connected and every edge uv carries exactly k edge-disjoint
    u-v paths (see the module docstring)."""
    if k < 1:
        raise ValueError("k must be at least 1")
    _require_multi_vertex(g)
    adj = g.adjacency_rows()
    return g.is_connected() and all(
        _flow.edge_disjoint_paths(adj, u, v, limit=k + 1) == k for u, v in g.edges()
    )


def induces_forest(g: Graph, vertices: int) -> bool:
    """The vertex mask ``vertices`` induces a forest in g; behind high_degree_forest
    and the lemma suite's Halin row.  Leaves are stripped until nothing is left
    (a forest) or a subgraph of minimum degree 2, which holds a cycle, remains."""
    adj = g.adjacency_rows()
    while vertices:
        leaves = 0
        for v in bits(vertices):
            if (adj[v] & vertices).bit_count() <= 1:
                leaves |= 1 << v
        if not leaves:
            return False
        vertices ^= leaves
    return True


def high_degree_forest(g: Graph, k: int) -> bool:
    """The vertices of degree above k induce a forest.

    Necessary for minimal k-connectivity, where every cycle has a vertex of
    degree k (Mader, "Ecken vom Grad n in minimalen n-fach
    zusammenhaengenden Graphen", Arch. Math. 23, 1972).  Not for the edge
    version: three triangles hung on the corners of a fourth are minimally
    2-edge-connected, yet the inner triangle's corners all have degree 4.
    """
    return induces_forest(g, sum(1 << v for v, d in enumerate(g.degrees()) if d > k))


def is_minimally_k_connected(g: Graph, k: int) -> bool:
    """kappa(g) >= k and every single edge deletion drops kappa below k.

    Mader's forest condition (high_degree_forest) is checked before any flow.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    return (high_degree_forest(g, k) and is_k_connected(g, k)
            and not _edge_carries_more_than(g, k))


class ClassMembership(NamedTuple):
    """Connectivity profile of a graph relative to a target k."""

    n: int
    m: int
    k: int
    vertex_connectivity: int
    edge_connectivity: int
    is_k_connected: bool
    is_k_edge_connected: bool
    is_minimally_k_connected: bool
    is_minimally_k_edge_connected: bool


def classify(g: Graph, k: int) -> ClassMembership:
    if k < 1:
        raise ValueError("k must be at least 1")
    _require_multi_vertex(g)
    kappa, lam = vertex_connectivity(g), edge_connectivity(g)
    return ClassMembership(
        n=g.n,
        m=g.m,
        k=k,
        vertex_connectivity=kappa,
        edge_connectivity=lam,
        is_k_connected=kappa >= k,
        is_k_edge_connected=lam >= k,
        is_minimally_k_connected=is_minimally_k_connected(g, k),
        is_minimally_k_edge_connected=is_minimally_k_edge_connected(g, k),
    )
