"""Canonical labelling for small graphs, and isomorphism testing built on it.

The canonical form of a graph is the smallest edge-bit code
(:meth:`Graph.edge_bits`, graph6's bit stream) over all vertex orderings the
search below generates.  The search respects iterated degree refinement: at
each position the next vertex must come from the lowest refinement colour
among unplaced vertices, the chosen vertex is individualized and the colouring
re-refined.  Because colours are computed from isomorphism-invariant data,
isomorphic graphs induce identical search trees and therefore identical
minimal bitstrings.

Refinement ranks each vertex v by its colour, then by the sorted tuple of
its neighbours' colours.  That pair is encoded as one integer,
``colors[v] * B**R - sum(B**(R-1-colors[u]) for u in N(v))`` with B = n+1 and
R = 2n above every colour id: the sum is a base-B word whose digits count
v's neighbours per colour.  Colours only ever refine the degree partition,
so vertices of equal colour have equal degree, and for sorted tuples of
equal length lexicographic order is the reverse of the order of their count
words.  The integer ranking is therefore exactly the tuple ranking.

Three prunings keep the search small without changing the minimum it finds:

* a branch is cut as soon as its bit prefix exceeds the best known one;
* at any node only one candidate per twin class is tried (swapping two twins
  is an automorphism that fixes every other vertex, so their subtrees are
  equal);
* orbit pruning, after McKay and Piperno, "Practical graph isomorphism, II"
  (J. Symb. Comput. 60, 2014): a leaf whose code equals the best one yields
  the automorphism best_order[i] -> order[i].  The search then resumes where
  the two orderings diverge, since the subtree it is in is the image of one
  already searched.  At every node a candidate is tried only if it comes
  first, in branch order, in its orbit (``orbit_reps``) under the automorphisms
  found so far that fix the prefix pointwise.  The orbits are built only when
  a node has a second branch, and again only after new automorphisms.

Once the colouring is discrete, the rest of the ordering is forced and is
completed without further refinement.

The returned form also carries generators of Aut(``form.graph()``) as
permutations of the canonical labels: each automorphism a leaf yielded and
the transposition of each twin pair.  Each is an automorphism by
construction; that they generate the whole group is checked against
networkx on every graph of at most 7 vertices and on a sample of symmetric
graphs on 13 to 30 vertices.
"""

from __future__ import annotations

from functools import lru_cache, total_ordering

from .graph import Graph, bits
from .graph6 import write_graph6


@total_ordering
class CanonicalForm:
    """Order-comparable fingerprint: vertex count plus canonical adjacency bits.

    ``bits`` is the edge-bit code of ``graph()`` (:meth:`Graph.edge_bits`),
    so integer order equals lexicographic order on bitstrings of equal
    length, and ``graph6()`` writes the same bits.  ``automorphisms`` generate
    Aut(``graph()``); they take no part in equality, order or hashing.
    """

    __slots__ = ("n", "bits", "automorphisms")

    def __init__(self, n: int, bits: int, automorphisms: tuple[tuple[int, ...], ...] = ()):
        self.n, self.bits, self.automorphisms = n, bits, automorphisms

    def __repr__(self) -> str:
        return f"CanonicalForm(n={self.n}, bits={self.bits}, automorphisms={self.automorphisms})"

    def __eq__(self, other):
        if other.__class__ is not CanonicalForm:
            return NotImplemented
        return self.n == other.n and self.bits == other.bits

    def __lt__(self, other):
        if other.__class__ is not CanonicalForm:
            return NotImplemented
        return (self.n, self.bits) < (other.n, other.bits)

    def __hash__(self) -> int:
        return hash((self.n, self.bits))

    def graph(self) -> Graph:
        return Graph.from_edge_bits(self.n, self.bits)

    def graph6(self) -> str:
        return write_graph6(self.graph())


def _twin_reps(n: int, adj: tuple[int, ...]) -> list[int]:
    """rep[v] = least vertex whose swap with v is an automorphism (possibly v)."""
    rep = list(range(n))
    for x in range(n):
        if rep[x] != x:
            continue
        for y in range(x + 1, n):
            if rep[y] != y:
                continue
            if adj[x] & ~(1 << y) == adj[y] & ~(1 << x):
                rep[y] = x
    return rep


def orbit_reps(sets, automorphisms) -> list[int]:
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


@lru_cache(maxsize=None)
def _weights(n: int) -> tuple[int, ...]:
    """(n+1) ** (2n-1-c) for every colour id c < 2n: a neighbour count is a
    base-(n+1) digit."""
    return tuple((n + 1) ** (2 * n - 1 - c) for c in range(2 * n))


def refine(colors: list[int], nbrs: list[list[int]]) -> list[int]:
    """Iterate colour refinement of the graph with neighbour lists ``nbrs`` to a
    fixpoint.  Colour ids must stay below 2n (individualization doubles them);
    the result's are rank-normalized.  From the unit partition, the result is
    the coarsest equitable partition."""
    weight = _weights(len(nbrs))
    top = weight[0] * (len(nbrs) + 1)
    cells = len(set(colors))
    while True:
        keys = [
            c * top - sum([weight[colors[u]] for u in nv])
            for c, nv in zip(colors, nbrs)
        ]
        ranking = {key: i for i, key in enumerate(sorted(set(keys)))}
        colors = [ranking[key] for key in keys]
        if len(ranking) == cells:  # cells only split, so none split: fixpoint
            return colors
        cells = len(ranking)


def canonical_form(g: Graph) -> CanonicalForm:
    n = g.n
    if n == 1:
        return CanonicalForm(1, 0)
    adj = g.adjacency_rows()
    nbrs = [list(bits(row)) for row in adj]
    rep = _twin_reps(n, adj)
    degs = g.degrees()
    degree_rank = {d: i for i, d in enumerate(sorted(set(degs)))}

    best: list[int] = []
    best_order: list[int] = []
    autos: list[list[int]] = []

    def dfs(colors: list[int], order: list[int], codes: list[int]) -> int:
        """Search below the node ``order``; return the depth to resume at."""
        nonlocal best, best_order
        pos = len(order)
        unplaced = [v for v in range(n) if v not in order]
        if len(set(colors)) == n:
            # discrete colouring: the rest of the ordering is forced
            order = order + sorted(unplaced, key=colors.__getitem__)
            codes = codes.copy()
            for i in range(pos, n):
                code = 0
                for w in order[:i]:
                    code = (code << 1) | ((adj[order[i]] >> w) & 1)
                if best and codes == best[:i] and code > best[i]:
                    return pos - 1
                codes.append(code)
            if codes != best:
                best, best_order = codes, order
                return pos - 1
            # best_order[i] -> order[i] preserves adjacency; it maps the
            # subtree where the two orderings diverge, already searched,
            # onto the one this leaf is in
            gamma = [0] * n
            for b, o in zip(best_order, order):
                gamma[b] = o
            autos.append(gamma)
            return next(i for i in range(n) if best_order[i] != order[i])
        low = min(colors[v] for v in unplaced)
        twin_tried: set[int] = set()
        branches = []
        for v in unplaced:
            if colors[v] != low or rep[v] in twin_tried:
                continue
            twin_tried.add(rep[v])
            code = 0
            for w in order:
                code = (code << 1) | ((adj[v] >> w) & 1)
            branches.append((code, v))
        branches.sort()
        known = 0  # len(autos) when reps was built
        reps = None  # first branch of each orbit of the prefix-fixing automorphisms
        for i, (code, v) in enumerate(branches):
            if best and codes == best[:pos] and code > best[pos]:
                break  # branches are sorted, everything after is worse
            if i and len(autos) > known:
                known = len(autos)
                gens = [gm for gm in autos if all(gm[x] == x for x in order)]
                reps = set(orbit_reps([1 << w for _, w in branches], gens))
            if reps is not None and 1 << v not in reps:
                continue  # an automorphism fixing the prefix maps an earlier branch here
            new_colors = [2 * c + 1 for c in colors]
            new_colors[v] -= 1
            order.append(v)
            codes.append(code)
            resume = dfs(refine(new_colors, nbrs), order, codes)
            order.pop()
            codes.pop()
            if resume < pos:
                return resume
        return pos - 1

    dfs(refine([degree_rank[d] for d in degs], nbrs), [], [])
    del dfs  # empties the closure cell through which dfs refers to itself, a cycle
    packed = 0
    for pos, code in enumerate(best):
        packed = (packed << pos) | code
    autos += ([y if v == x else x if v == y else v for v in range(n)]
              for y, x in enumerate(rep) if x != y)  # swapping twins x, y is an automorphism
    label = sorted(range(n), key=best_order.__getitem__)  # best_order[label[v]] == v
    gens = tuple(tuple(label[gm[v]] for v in best_order) for gm in autos)
    return CanonicalForm(n, packed, gens)
