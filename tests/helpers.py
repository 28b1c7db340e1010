"""Shared brute-force oracles, samplers and report rows for the test suite.

The oracles are deliberately naive: permutation isomorphism, subset
deletion connectivity, dense eigensolves.  The point is independence from
the library's own algorithms.
"""

import itertools
from functools import lru_cache

import numpy as np

from alphax import verify
from alphax.graph import Graph, bits, mask_of, pair_count, pair_list
from alphax.spectral import validate_alpha

ALPHA_GRID = (0.0, 0.25, 0.5, 0.6, 0.75, 0.9)


def build_alpha_matrix(g: Graph, alpha: float) -> np.ndarray:
    a = validate_alpha(alpha)
    mat = (1.0 - a) * g.adjacency_matrix()
    mat[np.diag_indices(g.n)] += a * np.asarray(g.degrees(), dtype=np.float64)
    return mat


def eig_rho(g: Graph, alpha: float) -> float:
    """Dense symmetric eigensolve, the reference for every radius check."""
    return float(np.linalg.eigvalsh(build_alpha_matrix(g, alpha))[-1])


def cap_address_space():
    """``preexec_fn`` for a subprocess: a runaway allocation becomes a
    MemoryError instead of an exhausted host."""
    import resource
    cap = 2 << 30
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))


def iter_all_graphs(n: int):
    for mask in range(1 << pair_count(n)):
        yield Graph.from_edge_bits(n, mask)


def perm_apply(g: Graph, perm) -> Graph:
    return Graph.from_edge_list(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def brute_isomorphic(g: Graph, h: Graph) -> bool:
    if g.n != h.n or g.m != h.m:
        return False
    return any(perm_apply(g, p) == h for p in itertools.permutations(range(g.n)))


def disjoint_union(g1: Graph, g2: Graph) -> Graph:
    """The vertices of g1, then those of g2."""
    edges = g1.edges() + [(u + g1.n, v + g1.n) for u, v in g2.edges()]
    return Graph.from_edge_list(g1.n + g2.n, edges)


def join(g1: Graph, g2: Graph) -> Graph:
    """Disjoint union plus every edge between the two parts."""
    edges = disjoint_union(g1, g2).edges()
    edges += [(u, g1.n + v) for u in range(g1.n) for v in range(g2.n)]
    return Graph.from_edge_list(g1.n + g2.n, edges)


def all_cycles(g: Graph) -> list[tuple[int, ...]]:
    """Every simple cycle, once, as a vertex tuple starting at its least vertex.

    Exhaustive search: only intended for small graphs.  A cycle (s, v1, ..., vk)
    is emitted with s minimal and v1 < vk so each cycle appears in exactly one
    orientation.
    """
    out: list[tuple[int, ...]] = []
    n = g.n
    adj = g.adjacency_rows()

    def extend(start: int, path: list[int], used: int) -> None:
        last = path[-1]
        for w in bits(adj[last]):
            if w == start and len(path) >= 3:
                if path[1] < path[-1]:
                    out.append(tuple(path))
            elif w > start and not (used >> w) & 1:
                path.append(w)
                extend(start, path, used | (1 << w))
                path.pop()

    for s in range(n):
        extend(s, [s], 1 << s)
    return out


def chords_of_cycle(g: Graph, cycle: tuple[int, ...]) -> list[tuple[int, int]]:
    """Edges of g joining two non-consecutive vertices of the given cycle."""
    k = len(cycle)
    on_cycle = {(cycle[i], cycle[(i + 1) % k]) for i in range(k)}
    on_cycle |= {(b, a) for a, b in on_cycle}
    found = []
    for i in range(k):
        for j in range(i + 1, k):
            a, b = cycle[i], cycle[j]
            if g.has_edge(a, b) and (a, b) not in on_cycle:
                found.append((min(a, b), max(a, b)))
    return found


def switch_edges(g: Graph, u: int, v: int, nset) -> Graph:
    """Move the edges from v to a set N of its neighbours over to u.

    N must be a non-empty subset of N(v) avoiding u and all of u's
    neighbours, so the result is again simple with the same edge count.
    """
    nm = mask_of(nset)
    if nm == 0:
        raise ValueError("switch set must be non-empty")
    adj = list(g.adjacency_rows())
    if nm & ~adj[v]:
        raise ValueError("switch set must be a subset of N(v)")
    if nm & (adj[u] | 1 << u):
        raise ValueError("switch set must avoid u and its neighbourhood")
    for w in bits(nm):
        adj[v] &= ~(1 << w)
        adj[w] &= ~(1 << v)
        adj[u] |= 1 << w
        adj[w] |= 1 << u
    return Graph(g.n, tuple(adj))


def brute_edge_connectivity(g: Graph) -> int:
    """Smallest number of edge deletions that disconnects g."""
    if not g.is_connected():
        return 0
    edges = g.edges()
    for size in range(1, g.m + 1):
        for drop in itertools.combinations(edges, size):
            h = g
            for u, v in drop:
                h = h.delete_edge(u, v)
            if not h.is_connected():
                return size
    return g.m  # unreachable for n >= 2


def brute_vertex_connectivity(g: Graph) -> int:
    if not g.is_connected():
        return 0
    verts = range(g.n)
    for size in range(0, g.n - 1):
        for drop in itertools.combinations(verts, size):
            rest = [v for v in verts if v not in drop]
            if len(rest) >= 2 and not g.induced_subgraph(rest).is_connected():
                return size
    return g.n - 1


@lru_cache(maxsize=None)
def connected_class_reps(n: int):
    """One representative per isomorphism class of connected graphs on n vertices."""
    from alphax.canonical import canonical_form

    seen = {}
    for g in iter_all_graphs(n):
        if g.is_connected():
            seen.setdefault(canonical_form(g), g)
    return tuple(seen[key] for key in sorted(seen))


@lru_cache(maxsize=None)
def chorded_cycle_free_graphs(n: int) -> tuple[Graph, ...]:
    """Every graph on n vertices, connected or not, in which no cycle has a
    chord: one canonical graph per isomorphism class, sorted.

    Naive growth, with no orbit pruning: each graph on n-1 vertices plus a
    vertex joined to every set of at most 2 of them.  Complete because a graph
    of minimum degree 3 has a chorded cycle (Posa), and deleting a vertex
    creates no chord.
    """
    from alphax.canonical import canonical_form

    if n == 1:
        return (Graph(1, (0,)),)
    forms = set()
    for g in chorded_cycle_free_graphs(n - 1):
        for size in range(3):
            for s in itertools.combinations(range(n - 1), size):
                h = Graph.from_edge_list(n, [*g.edges(), *((v, n - 1) for v in s)])
                if not any(chords_of_cycle(h, c) for c in all_cycles(h)):
                    forms.add(canonical_form(h))
    return tuple(f.graph() for f in sorted(forms))


def random_graph(rng, n: int, p: float = 0.5) -> Graph:
    edges = [e for e in pair_list(n) if rng.random() < p]
    return Graph.from_edge_list(n, edges)


def random_connected_graph(rng, n: int, p: float = 0.5) -> Graph:
    while True:
        g = random_graph(rng, n, p)
        if g.is_connected():
            return g


def make_report(**overrides):
    """A verified thm11-odd row at n=7, alpha=1/2, with fields overridden."""
    base = dict(
        class_name="min-2-edge-connected",
        k=2,
        n=7,
        alpha=0.5,
        alpha_grid=(0.5,),
        class_size=11,
        max_value=3.686140661634507,
        argmax_canonical="F?qb?",
        argmax_matches_expected=True,
        expected_canonical="F?qb?",
        expected_value=3.686140661634507,
        runner_up_value=3.5,
        spectral_gap=0.18,
        ties_within_tolerance=0,
        pruning=("minimum degree is exactly 2",),
        source="builtin",
        certified_unique=True,
        runtime_ms=12,
    )
    base.update(overrides)
    return verify.SearchReport(**base)
