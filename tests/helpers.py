"""Shared brute-force oracles, samplers and report rows for the test suite.

The oracles are deliberately naive: permutation isomorphism, subset
deletion connectivity, dense eigensolves.  The point is independence from
the library's own algorithms.
"""

import itertools
from functools import lru_cache

import numpy as np

from alphax import verify
from alphax.graph import Graph, pair_count, pair_list
from alphax.spectral import build_alpha_matrix

ALPHA_GRID = (0.0, 0.25, 0.5, 0.6, 0.75, 0.9)


def eig_rho(g: Graph, alpha: float) -> float:
    """Dense symmetric eigensolve, the reference for every radius check."""
    return float(np.linalg.eigvalsh(build_alpha_matrix(g, alpha))[-1])


def iter_all_graphs(n: int):
    for mask in range(1 << pair_count(n)):
        yield Graph.from_edge_mask(n, mask)


def perm_apply(g: Graph, perm) -> Graph:
    return Graph.from_edge_list(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def brute_isomorphic(g: Graph, h: Graph) -> bool:
    if g.n != h.n or g.m != h.m:
        return False
    target = h.edge_mask()
    return any(perm_apply(g, p).edge_mask() == target for p in itertools.permutations(range(g.n)))


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
