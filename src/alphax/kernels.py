"""The labelled reference scan: every labelled edge subset, filtered.

Iterate every labeled graph on n vertices, keep those with minimum degree at
least dmin whose vertices are in lexicographically non-increasing order of
(degree, sum of neighbour degrees), an isomorphism-invariant key, and hand
each to the class predicate the caller passes, in vectorized numpy over
chunks of edge masks.  No campaign calls the scan: enumeration grows every
class, and the tests check the generator against this scan with plain
predicates.  A mask is the edge-bit code of :meth:`Graph.edge_bits`, so bit 0
is the last pair of graph.pair_list.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .graph import Graph, pair_count, pair_list

_SCAN_CHUNK = 1 << 20


def _key_sorted(n: int, arr: np.ndarray, vertex_masks: np.ndarray) -> np.ndarray:
    """Rows whose (degree, neighbour-degree sum) is non-increasing along the labels.

    The sum is below n*n, so ``degree * n*n + sum`` orders both at once.
    """
    degs = np.stack([np.bitwise_count(arr & vm) for vm in vertex_masks], axis=1)
    degs = degs.astype(np.int64)
    key = degs * (n * n)
    for idx, (i, j) in enumerate(reversed(pair_list(n))):
        edge = (arr >> idx) & 1
        key[:, i] += edge * degs[:, j]
        key[:, j] += edge * degs[:, i]
    return np.all(key[:, :-1] >= key[:, 1:], axis=1)


def scan_masks(n: int, dmin: int, passes: Callable[[Graph], bool]) -> list[int]:
    """Edge masks of all labeled graphs passing the filters and ``passes``, ascending."""
    vertex_masks = np.zeros(n, dtype=np.int64)
    for idx, (i, j) in enumerate(reversed(pair_list(n))):
        vertex_masks[i] |= 1 << idx
        vertex_masks[j] |= 1 << idx
    masks: list[int] = []
    total = 1 << pair_count(n)
    for start in range(0, total, _SCAN_CHUNK):
        arr = np.arange(start, min(start + _SCAN_CHUNK, total), dtype=np.int64)
        # degree of vertex v in mask x is the popcount of x restricted to
        # the pairs containing v; rows are dropped vertex by vertex, so each
        # vertex is counted only on the rows the earlier ones passed
        prev = None
        for vm in vertex_masks:
            deg = np.bitwise_count(arr & vm)
            keep = deg >= dmin
            if prev is not None:
                keep &= prev >= deg
            arr, prev = arr[keep], deg[keep]
        arr = arr[_key_sorted(n, arr, vertex_masks)]
        for mask in arr.tolist():
            if passes(Graph.from_edge_bits(n, mask)):
                masks.append(mask)
    return masks
