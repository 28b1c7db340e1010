"""The labelled reference scan: every labelled edge subset, filtered.

Iterate every labeled graph on n vertices, keep those with minimum degree at
least dmin whose vertices are in lexicographically non-increasing order of
(degree, sum of neighbour degrees), an isomorphism-invariant key, and hand
each to the class predicate the caller passes, in a plain loop over the edge
masks.  No campaign calls the scan: enumeration grows every class, and the
tests check the generator against this scan with plain predicates.  A mask
is the edge-bit code of :meth:`Graph.edge_bits`, so bit 0 is the last pair
of graph.pair_list.
"""

from __future__ import annotations

from typing import Callable

from .graph import Graph, bits, pair_count, pair_list


def scan_masks(n: int, dmin: int, passes: Callable[[Graph], bool]) -> list[int]:
    """Edge masks of all labeled graphs passing the filters and ``passes``, ascending."""
    vertex_masks = [0] * n
    for idx, (i, j) in enumerate(reversed(pair_list(n))):
        vertex_masks[i] |= 1 << idx
        vertex_masks[j] |= 1 << idx
    masks: list[int] = []
    for mask in range(1 << pair_count(n)):
        # degree of vertex v is the popcount of the mask on the pairs
        # containing v; stop at the first vertex below dmin or above the one
        # before it
        prev = n
        for vm in vertex_masks:
            deg = (mask & vm).bit_count()
            if deg < dmin or deg > prev:
                break
            prev = deg
        else:
            g = Graph.from_edge_bits(n, mask)
            degs = g.degrees()
            keys = [(d, sum(degs[u] for u in bits(row)))
                    for d, row in zip(degs, g.adjacency_rows())]
            if keys == sorted(keys, reverse=True) and passes(g):
                masks.append(mask)
    return masks
