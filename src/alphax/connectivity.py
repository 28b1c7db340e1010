"""Edge and vertex connectivity, and membership in minimally connected classes.

Connectivity values come from unit-capacity max-flow (Menger), with early
termination after k augmenting paths for the threshold variants.  The vertex
version runs over a reduced pair schedule: fix a minimum-degree vertex v, then
it is enough to probe v against its non-neighbours plus every non-adjacent
pair inside N(v).  Any minimum cut either misses v (so it separates v from one
of its non-neighbours) or contains v, in which case v has neighbours in two
different components of the cut and those two are a non-adjacent pair in N(v).

A graph is minimally k-(edge-)connected when it is k-(edge-)connected and
deleting any single edge destroys that property.  By Menger's theorem an edge
uv of a k-(edge-)connected graph can be deleted without losing the property
exactly when G - uv still has k edge-disjoint (internally vertex-disjoint)
u-v paths, so each edge costs one flow capped at k instead of a full re-check.
The same local test finds chords of cycles (k=2).
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


def is_k_edge_connected(g: Graph, k: int) -> bool:
    """Threshold test lambda(g) >= k; flows stop after k augmentations."""
    _require_multi_vertex(g)
    if k <= 0:
        return True
    if g.min_degree() < k:
        return False  # lambda <= delta always
    if not g.is_connected():
        return False
    adj = g.adjacency_rows()
    return all(
        _flow.edge_disjoint_paths(adj, 0, t, limit=k) >= k for t in range(1, g.n)
    )


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
    adj = g.adjacency_rows()
    split = _flow.vertex_split(adj)
    best = g.n  # above every connectivity value
    for s, t in _vertex_pair_schedule(g):
        best = min(best, _flow.vertex_disjoint_paths(adj, s, t, limit=best, split=split))
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
    adj = g.adjacency_rows()
    split = _flow.vertex_split(adj)
    return all(
        _flow.vertex_disjoint_paths(adj, s, t, limit=k, split=split) >= k
        for s, t in _vertex_pair_schedule(g)
    )


def _paths_survive_deletion(adj, u: int, v: int, k: int, split: list[int] | None) -> bool:
    """G - uv still has k edge-disjoint u-v paths, or with ``split`` (G's
    vertex split network) k internally vertex-disjoint ones."""
    if adj[u].bit_count() <= k or adj[v].bit_count() <= k:
        return False  # an endpoint keeps fewer than k edges
    rows = list(adj)
    rows[u] ^= 1 << v
    rows[v] ^= 1 << u
    if split is None:
        return _flow.edge_disjoint_paths(rows, u, v, limit=k) >= k
    # G - uv's split network lacks exactly the arcs u_out -> v_in and v_out -> u_in
    split = split.copy()
    split[2 * u + 1] ^= 1 << (2 * v)
    split[2 * v + 1] ^= 1 << (2 * u)
    return _flow.vertex_disjoint_paths(rows, u, v, limit=k, split=split) >= k


def has_chorded_cycle(g: Graph) -> bool:
    """True iff some cycle of g has a chord.

    An edge xy is a chord of some cycle exactly when g minus xy still has two
    internally vertex-disjoint x-y paths.
    """
    adj = g.adjacency_rows()
    split = _flow.vertex_split(adj)
    return any(_paths_survive_deletion(adj, x, y, 2, split) for x, y in g.edges())


def is_minimally_k_edge_connected(g: Graph, k: int) -> bool:
    """lambda(g) >= k and every single edge deletion drops lambda below k."""
    if k < 1:
        raise ValueError("k must be at least 1")
    if not is_k_edge_connected(g, k):
        return False
    adj = g.adjacency_rows()
    return not any(_paths_survive_deletion(adj, u, v, k, None) for u, v in g.edges())


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
    if not high_degree_forest(g, k) or not is_k_connected(g, k):
        return False
    adj = g.adjacency_rows()
    split = _flow.vertex_split(adj)
    return not any(_paths_survive_deletion(adj, u, v, k, split) for u, v in g.edges())


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
