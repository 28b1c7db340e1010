"""Seeded graph6 input for the ``ingest12`` workload, with its ground truth.

Members are built to be minimally 2-edge-connected.  A connected graph is
minimally 2-edge-connected exactly when every block is, and the generator
glues blocks of two kinds at cut vertices:

* a cycle C_L (L >= 3);
* a generalised theta: two poles joined by t >= 3 internally disjoint paths,
  each of length at least 2 (t paths of length 2 give K_{2,t}).  Deleting an
  edge of one path leaves the rest of that path hanging by bridges, which is
  why no path may be a single edge.

A near-miss is a member plus one edge between non-adjacent vertices.  It is
2-edge-connected and deleting the added edge leaves the member, which is
still 2-edge-connected, so it is never minimal.  K_{2,n-2}, the maximizer the
even-order theorem names, is always one of the members.  Every graph is
drawn from a seeded pool of members and randomly relabelled, so isomorphism
classes repeat under different labels.

The ground truth (member flags and the number of isomorphism classes among
the members) comes from the construction and from networkx, never from
alphax.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import networkx as nx

MEMBER_SHARE = 0.7


def _composition(rng: random.Random, total: int, parts: int) -> list[int]:
    """A uniformly random way to write ``total`` as ``parts`` positive integers."""
    cuts = sorted(rng.sample(range(1, total), parts - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [total])]


def _block(rng: random.Random, size: int, theta: bool) -> list[tuple[int, int]]:
    """Edges of one minimal 2-edge-connected block on local vertices 0..size-1."""
    if not theta:
        return [(i, (i + 1) % size) for i in range(size)]
    paths = rng.randint(3, size - 2)
    edges = []
    nxt = 2  # vertices 0 and 1 are the poles
    for inner in _composition(rng, size - 2, paths):
        chain = [0] + list(range(nxt, nxt + inner)) + [1]
        nxt += inner
        edges.extend(zip(chain, chain[1:]))
    return edges


def _first_blocks(n: int) -> list[tuple[int, bool]]:
    """Every (size, is_theta) the first block of an n-vertex member can take.

    A size of n-1 is left out: it would leave one vertex, and no block adds
    exactly one.  Thetas need at least 5 vertices.
    """
    sizes = [s for s in range(3, n + 1) if n - s != 1]
    return [(s, False) for s in sizes] + [(s, True) for s in sizes if s >= 5]


def random_member(rng: random.Random, n: int, first: tuple[int, bool]) -> list[tuple[int, int]]:
    """Edge list of a random minimally 2-edge-connected graph on 0..n-1.

    ``first`` fixes the size and kind of the first block; the blocks glued on
    afterwards, each at a random vertex, are random.
    """
    size, theta = first
    edges = _block(rng, size, theta)
    count = size
    while count < n:
        rest = n - count
        new = rng.choice([r for r in range(2, rest + 1) if rest - r != 1])
        local = list(range(new + 1))
        rng.shuffle(local)
        label = {local[0]: rng.randrange(count)}
        for i, loc in enumerate(local[1:]):
            label[loc] = count + i
        theta = new + 1 >= 5 and rng.random() < 0.5
        edges.extend((label[a], label[b]) for a, b in _block(rng, new + 1, theta))
        count += new
    return edges


def _relabel(rng: random.Random, n: int, edges) -> list[tuple[int, int]]:
    perm = list(range(n))
    rng.shuffle(perm)
    return [(perm[a], perm[b]) for a, b in edges]


def _nx_graph(n: int, edges) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    return g


def _add_random_edge(rng: random.Random, n: int, edges) -> list[tuple[int, int]]:
    present = {frozenset(e) for e in edges}
    missing = [(a, b) for a in range(n) for b in range(a + 1, n)
               if frozenset((a, b)) not in present]
    return list(edges) + [rng.choice(missing)]


@dataclass(frozen=True)
class IngestInput:
    """The graph6 file body plus what the construction guarantees about it.

    ``bases`` are the pool graphs the members were drawn from; every member
    is a relabelled copy of one of them, so they have the same classes.
    """

    text: str
    is_member: tuple[bool, ...]
    bases: tuple[nx.Graph, ...]


def generate(seed: int, count: int = 2000, n: int = 12, pool: int = 256) -> IngestInput:
    """``count`` labelled graphs on ``n`` vertices; the same seed gives the same bytes.

    Graphs are drawn from a pool of ``pool`` random members (the first is
    K_{2,n-2}), so that isomorphism classes repeat under different labels.
    Pool members cycle through every kind of first block and graphs cycle
    through the pool, so shapes that are costly to label, such as C_n, come
    up equally often for every seed.
    """
    rng = random.Random(seed)
    kinds = _first_blocks(n)
    shapes = [[(p, q) for p in (0, 1) for q in range(2, n)]]
    shapes += [random_member(rng, n, kinds[i % len(kinds)]) for i in range(pool - 1)]
    member_count = round(MEMBER_SHARE * count)
    graphs = []
    for i in range(count):
        member = i < member_count
        edges = shapes[i % pool]
        if not member:
            edges = _add_random_edge(rng, n, edges)
        graphs.append((member, _nx_graph(n, _relabel(rng, n, edges))))
    rng.shuffle(graphs)
    text = b"".join(nx.to_graph6_bytes(g, header=False) for _, g in graphs)
    return IngestInput(
        text=text.decode("ascii"),
        is_member=tuple(m for m, _ in graphs),
        bases=tuple(_nx_graph(n, edges) for edges in shapes[:member_count]),
    )


def isomorphism_class_count(graphs) -> int:
    """Number of isomorphism classes, by WL hash buckets and exact VF2 tests."""
    buckets: dict[str, list[nx.Graph]] = {}
    for g in graphs:
        reps = buckets.setdefault(nx.weisfeiler_lehman_graph_hash(g), [])
        if not any(nx.is_isomorphic(g, r) for r in reps):
            reps.append(g)
    return sum(len(reps) for reps in buckets.values())
