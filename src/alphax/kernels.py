"""Hot numeric kernel: labeled edge-subset scanning.

Iterate every labeled graph on n vertices whose edge count lies in
[m_lo, m_hi], keep those with minimum degree at least dmin (optionally with a
non-increasing degree sequence, the symmetry reduction used before
isomorphism dedup), and hand each survivor of that cheap filter to the exact
class predicate the caller passes.  The filter is vectorized numpy over
chunks of edge masks.  enumerate_class passes ClassFilter.passes, the test
ingested graphs go through too, so the scan and the ingest path share one
predicate, and its correctness rests on the brute-force and networkx oracles
of the test suite.  Edge bit positions follow the column pair order of
graph.pair_list.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .graph import Graph, pair_count, pair_list

_SCAN_CHUNK = 1 << 20


def scan_masks(
    n: int,
    m_lo: int,
    m_hi: int,
    dmin: int,
    passes: Callable[[Graph], bool],
    require_sorted: bool = True,
) -> list[int]:
    """Edge masks of all labeled graphs passing the filters and ``passes``, ascending."""
    vertex_masks = np.zeros(n, dtype=np.int64)
    for idx, (i, j) in enumerate(pair_list(n)):
        vertex_masks[i] |= 1 << idx
        vertex_masks[j] |= 1 << idx
    masks: list[int] = []
    total = 1 << pair_count(n)
    for start in range(0, total, _SCAN_CHUNK):
        arr = np.arange(start, min(start + _SCAN_CHUNK, total), dtype=np.int64)
        pc = np.bitwise_count(arr)
        arr = arr[(pc >= m_lo) & (pc <= m_hi)]
        if arr.size == 0:
            continue
        # degree of vertex v in mask x is the popcount of x restricted to
        # the pairs containing v
        degs = np.stack([np.bitwise_count(arr & vm) for vm in vertex_masks], axis=1)
        keep = degs.min(axis=1) >= dmin
        if require_sorted:
            keep &= np.all(degs[:, :-1] >= degs[:, 1:], axis=1)
        for mask in arr[keep].tolist():
            if passes(Graph.from_edge_mask(n, mask)):
                masks.append(mask)
    return masks
