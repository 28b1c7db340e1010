"""Hot numeric kernel: labeled edge-subset scanning.

Two interchangeable backends live here.  The default uses numba @njit
functions; the fallback keeps the scan's cheap mask filtering in vectorized
numpy and delegates the exact class predicates to the pure-Python modules.
Select with the environment variable ALPHAX_KERNELS=numba|numpy (numba is the
default and quietly degrades to numpy when the package is unavailable), or
pass backend="..." explicitly.

Scan semantics, identical in both backends: iterate every labeled graph on n
vertices whose edge count lies in [m_lo, m_hi], keep those with minimum degree
at least dmin (optionally with a non-increasing degree sequence, the symmetry
reduction used before isomorphism dedup) that are connected and satisfy the
class predicate.  Edge bit positions follow the column pair order of
graph.pair_list.
"""

from __future__ import annotations

import os

import numpy as np

from .graph import Graph, pair_count, pair_list

try:
    from numba import njit

    HAS_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without numba
    HAS_NUMBA = False

    def njit(*args, **kwargs):  # type: ignore[misc]
        def wrap(fn):
            return fn

        if args and callable(args[0]):
            return args[0]
        return wrap


KIND_CONNECTED = 0
KIND_MIN_EDGE = 1
KIND_MIN_VERTEX = 2

_ENV_CHOICE = os.environ.get("ALPHAX_KERNELS", "numba").strip().lower()
DEFAULT_BACKEND = "numba" if (HAS_NUMBA and _ENV_CHOICE != "numpy") else "numpy"

_SCAN_CHUNK = 1 << 20


def _resolve(backend: str | None) -> str:
    b = DEFAULT_BACKEND if backend is None else backend
    if b not in ("numba", "numpy"):
        raise ValueError(f"unknown kernel backend {backend!r}")
    if b == "numba" and not HAS_NUMBA:
        raise RuntimeError("numba backend requested but numba is not installed")
    return b


# ---------------------------------------------------------------------------
# numba backend
# ---------------------------------------------------------------------------


@njit(cache=True)
def _build_adj(mask, E, eu, ev, adj, n):
    for i in range(n):
        adj[i] = 0
    for b in range(E):
        if (mask >> b) & 1:
            adj[eu[b]] |= 1 << ev[b]
            adj[ev[b]] |= 1 << eu[b]


@njit(cache=True)
def _connected_excl(adj, n, excluded):
    """Connectivity of the graph induced on vertices outside ``excluded``.

    Vertex sets with fewer than two members count as connected.
    """
    remaining = ((1 << n) - 1) & ~excluded
    extra = remaining & (remaining - 1)
    if extra == 0:
        return True
    reach = remaining & -remaining
    while True:
        grown = reach
        for v in range(n):
            if (reach >> v) & 1:
                grown |= adj[v] & remaining
        if grown == reach:
            break
        reach = grown
    return reach == remaining


@njit(cache=True)
def _edge_conn_at_least(mask, n, E, eu, ev, k, adj):
    """lambda of the n-vertex graph with edge bitmask ``mask`` is >= k.

    Tests every (k-1)-subset of present edges: a disconnecting set of fewer
    edges extends to one of exactly k-1 (removing extra edges cannot
    reconnect anything), so checking that single size suffices.
    """
    _build_adj(mask, E, eu, ev, adj, n)
    if not _connected_excl(adj, n, 0):
        return False
    if k <= 1:
        return True
    mcount = 0
    pos = np.empty(E, np.int64)
    for b in range(E):
        if (mask >> b) & 1:
            pos[mcount] = b
            mcount += 1
    if mcount < k:
        return False  # lambda <= m
    sub = (1 << (k - 1)) - 1
    end = 1 << mcount
    while True:
        removed = 0
        for i in range(mcount):
            if (sub >> i) & 1:
                removed |= 1 << pos[i]
        _build_adj(mask ^ removed, E, eu, ev, adj, n)
        if not _connected_excl(adj, n, 0):
            return False
        low = sub & -sub
        up = sub + low
        if up >= end:
            break
        sub = up | ((((sub ^ up) // low) >> 2))
    return True


@njit(cache=True)
def _vertex_conn_at_least(mask, n, E, eu, ev, k, adj):
    """kappa of the n-vertex graph with edge bitmask ``mask`` is >= k."""
    if k <= 0:
        return True
    _build_adj(mask, E, eu, ev, adj, n)
    complete = True
    full = (1 << n) - 1
    for v in range(n):
        if adj[v] != full ^ (1 << v):
            complete = False
            break
    if complete:
        return n - 1 >= k
    if n < k + 1:
        return False
    if not _connected_excl(adj, n, 0):
        return False
    for size in range(1, k):
        sub = (1 << size) - 1
        end = 1 << n
        while True:
            if not _connected_excl(adj, n, sub):
                return False
            low = sub & -sub
            up = sub + low
            if up >= end:
                break
            sub = up | ((((sub ^ up) // low) >> 2))
    return True


@njit(cache=True)
def _passes_class(mask, n, E, eu, ev, kind, k, adj):
    if kind == KIND_CONNECTED:
        _build_adj(mask, E, eu, ev, adj, n)
        return _connected_excl(adj, n, 0)
    if kind == KIND_MIN_EDGE:
        if not _edge_conn_at_least(mask, n, E, eu, ev, k, adj):
            return False
        for b in range(E):
            if (mask >> b) & 1:
                if _edge_conn_at_least(mask ^ (1 << b), n, E, eu, ev, k, adj):
                    return False
        return True
    if not _vertex_conn_at_least(mask, n, E, eu, ev, k, adj):
        return False
    for b in range(E):
        if (mask >> b) & 1:
            if _vertex_conn_at_least(mask ^ (1 << b), n, E, eu, ev, k, adj):
                return False
    return True


@njit(cache=True)
def _scan_m_nb(n, E, m, eu, ev, kind, k, dmin, require_sorted, deg, adj, out):
    """Scan all C(E, m) edge masks; write survivors into out, return the count.

    If the count exceeds out's capacity the extra survivors are dropped and
    the caller re-runs with a bigger buffer.
    """
    count = 0
    mask = (1 << m) - 1
    end = 1 << E
    while True:
        for i in range(n):
            deg[i] = 0
        for b in range(E):
            if (mask >> b) & 1:
                deg[eu[b]] += 1
                deg[ev[b]] += 1
        ok = True
        for i in range(n):
            if deg[i] < dmin:
                ok = False
                break
        if ok and require_sorted:
            for i in range(n - 1):
                if deg[i] < deg[i + 1]:
                    ok = False
                    break
        if ok and _passes_class(mask, n, E, eu, ev, kind, k, adj):
            if count < out.shape[0]:
                out[count] = mask
            count += 1
        low = mask & -mask
        up = mask + low
        if up >= end:
            break
        mask = up | ((((mask ^ up) // low) >> 2))
    return count


def _scan_numba(n, kind, k, m_lo, m_hi, dmin, require_sorted) -> list[int]:
    E = pair_count(n)
    pairs = pair_list(n)
    eu = np.array([p[0] for p in pairs], dtype=np.int64)
    ev = np.array([p[1] for p in pairs], dtype=np.int64)
    deg = np.zeros(max(n, 1), dtype=np.int64)
    adj = np.zeros(max(n, 1), dtype=np.int64)
    masks: list[int] = []
    for m in range(m_lo, m_hi + 1):
        cap = 1 << 16
        while True:
            out = np.empty(cap, dtype=np.int64)
            count = _scan_m_nb(
                n, E, m, eu, ev, kind, k, dmin, require_sorted, deg, adj, out
            )
            if count <= cap:
                break
            cap = count
        masks.extend(int(x) for x in out[:count])
    masks.sort()
    return masks


# ---------------------------------------------------------------------------
# numpy backend
# ---------------------------------------------------------------------------


def _class_predicate(kind: int, k: int):
    from . import connectivity  # deferred to keep import footprint small

    if kind == KIND_CONNECTED:
        return lambda g: g.is_connected()
    if kind == KIND_MIN_EDGE:
        return lambda g: connectivity.is_minimally_k_edge_connected(g, k)
    if kind == KIND_MIN_VERTEX:
        return lambda g: connectivity.is_minimally_k_connected(g, k)
    raise ValueError(f"unknown class kind code {kind}")


def _scan_numpy(n, kind, k, m_lo, m_hi, dmin, require_sorted) -> list[int]:
    """Reference scan: vectorized mask filtering, pure-Python exact predicates."""
    E = pair_count(n)
    vertex_masks = np.zeros(n, dtype=np.int64)
    for idx, (i, j) in enumerate(pair_list(n)):
        vertex_masks[i] |= 1 << idx
        vertex_masks[j] |= 1 << idx
    predicate = _class_predicate(kind, k)
    masks: list[int] = []
    total = 1 << E
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
            if predicate(Graph.from_edge_mask(n, mask)):
                masks.append(mask)
    return masks


def scan_masks(
    n: int,
    kind: int,
    k: int,
    m_lo: int,
    m_hi: int,
    dmin: int,
    require_sorted: bool = True,
    backend: str | None = None,
) -> list[int]:
    """Edge masks of all labeled graphs passing the filters, ascending."""
    E = pair_count(n)
    m_hi = min(m_hi, E)
    if n == 1:
        return [0] if (kind == KIND_CONNECTED and m_lo <= 0) else []
    if m_lo > m_hi:
        return []
    m_lo = max(m_lo, 1)  # n >= 2 connected needs an edge
    if _resolve(backend) == "numba":
        return _scan_numba(n, kind, k, m_lo, m_hi, dmin, require_sorted)
    return _scan_numpy(n, kind, k, m_lo, m_hi, dmin, require_sorted)
