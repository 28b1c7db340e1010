"""Unit-capacity max-flow on tiny graphs, used for local connectivity queries.

One augmenting-path core serves both path counts.  The network is a tuple of
bitmask rows: bit y of row x is a unit-capacity arc x -> y.  The flow is kept
as one flow-out and one flow-in mask per node, so the residual arcs leaving x
are ``(arcs[x] & ~out[x]) | into[x]`` and pushing against an existing flow
cancels it.  Every query takes an optional ``limit`` and stops as soon as
that many augmenting paths have been found, which is what threshold tests
(is the connectivity at least k?) need.
"""

_BIG = 1 << 20


def _unit_flow(arcs, s: int, t: int, limit: int) -> int:
    """Max s-t flow in the unit-capacity network ``arcs``, capped at ``limit``."""
    size = len(arcs)
    out = [0] * size
    into = [0] * size
    target = 1 << t
    flow = 0
    while flow < limit:
        # breadth-first search for a shortest augmenting path
        parent = [0] * size
        seen = 1 << s
        frontier = [s]
        while frontier and not seen & target:
            layer = []
            for x in frontier:
                fresh = ((arcs[x] & ~out[x]) | into[x]) & ~seen
                seen |= fresh
                while fresh:
                    low = fresh & -fresh
                    y = low.bit_length() - 1
                    parent[y] = x
                    layer.append(y)
                    fresh ^= low
            frontier = layer
        if not seen & target:
            break
        y = t
        while y != s:
            x = parent[y]
            if (into[x] >> y) & 1:  # cancel a unit flowing y -> x
                into[x] ^= 1 << y
                out[y] ^= 1 << x
            else:
                out[x] |= 1 << y
                into[y] |= 1 << x
            y = x
        flow += 1
    return flow


def edge_disjoint_paths(adj: tuple[int, ...], s: int, t: int, limit: int = _BIG) -> int:
    """Number of pairwise edge-disjoint s-t paths, capped at ``limit``.

    The adjacency rows are the network: each undirected edge is a pair of
    opposite unit arcs.
    """
    return _unit_flow(adj, s, t, limit)


def vertex_split(adj: tuple[int, ...]) -> list[int]:
    """The split network of ``adj`` (see vertex_disjoint_paths)."""
    split = []
    for v, row in enumerate(adj):
        heads = 0
        while row:
            low = row & -row
            heads |= 1 << (2 * low.bit_length() - 2)  # the in-node of that neighbour
            row ^= low
        split.append(1 << (2 * v + 1))
        split.append(heads)
    return split


def vertex_disjoint_paths(split: list[int], s: int, t: int, limit: int = _BIG) -> int:
    """Number of internally vertex-disjoint s-t paths, capped at ``limit``.

    Standard vertex splitting: v becomes v_in = 2v -> v_out = 2v+1, and edge
    uv becomes arcs u_out -> v_in and v_out -> u_in; the flow runs from s_out
    to t_in.  Unit edge arcs are exact, because every internal vertex passes
    at most one unit.  An edge st is the arc s_out -> t_in and counts as one
    path, so for adjacent s and t the count is 1 + kappa_{G - st}(s, t).
    ``split`` is ``vertex_split(adj)``, built once per graph.
    """
    return _unit_flow(split, 2 * s + 1, 2 * t, limit)
