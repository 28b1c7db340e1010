"""Isomorph-free enumeration of connectivity-defined graph classes.

Built-in generation scans labeled edge subsets with two layers of filtering.
Cheap necessary conditions prune the scan: the minimum degree of a minimally
k-(edge-)connected graph equals k, a minimally 2-edge-connected graph has at
most 2n-2 edges, and a connected graph has at least n-1 edges.  Only labeled
graphs whose vertices are in non-increasing order of (degree, sum of
neighbour degrees) are kept (the key is isomorphism-invariant, so every class
has such a labelling, nothing is lost and the later dedup shrinks a lot).
Survivors then pass the exact class predicate, are canonically labelled,
deduplicated, and returned sorted by canonical form.

Built-in generation covers n <= 8.  Larger orders are ingested from graph6
files and pushed through the same predicate/dedup pipeline.  The scan and the
ingest path run the same class predicate, so neither checks the other; the
predicate is checked against brute-force and networkx oracles in the tests.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import lru_cache

from . import connectivity, kernels
from .canonical import CanonicalForm, CapabilityError, canonical_form
from .graph import Graph, pair_count

MAX_BUILTIN_N = 8

ALL_CONNECTED = "all-connected"
_MIN_EDGE_RE = re.compile(r"^min-(\d+)-edge-connected$")
_MIN_VERTEX_RE = re.compile(r"^min-(\d+)-connected$")


@dataclass(frozen=True)
class ClassFilter:
    """A graph class: all-connected, min-k-edge-connected, or min-k-connected."""

    kind: str
    k: int = 1

    def __post_init__(self):
        if self.kind not in (ALL_CONNECTED, "min-edge", "min-vertex"):
            raise ValueError(f"unknown class kind {self.kind!r}")
        if self.k < 1:
            raise ValueError("k must be at least 1")

    @classmethod
    def parse(cls, name: str) -> "ClassFilter":
        name = name.strip().lower()
        if name == ALL_CONNECTED:
            return cls(ALL_CONNECTED)
        if m := _MIN_EDGE_RE.match(name):
            return cls("min-edge", int(m.group(1)))
        if m := _MIN_VERTEX_RE.match(name):
            return cls("min-vertex", int(m.group(1)))
        raise ValueError(
            f"unknown class name {name!r}; expected all-connected, "
            "min-K-edge-connected, or min-K-connected"
        )

    def describe(self) -> str:
        if self.kind == ALL_CONNECTED:
            return ALL_CONNECTED
        if self.kind == "min-edge":
            return f"min-{self.k}-edge-connected"
        return f"min-{self.k}-connected"

    def passes(self, g: Graph) -> bool:
        """Exact membership test via the connectivity module."""
        if self.kind == ALL_CONNECTED:
            return g.is_connected()
        if g.n < 2:
            return False
        if self.kind == "min-edge":
            return connectivity.is_minimally_k_edge_connected(g, self.k)
        return connectivity.is_minimally_k_connected(g, self.k)


def scan_plan(n: int, flt: ClassFilter) -> tuple[int, int, int, list[str]]:
    """(m_lo, m_hi, dmin) for the labeled scan plus the justifying facts."""
    emax = pair_count(n)
    if flt.kind == ALL_CONNECTED:
        return (
            max(n - 1, 0),
            emax,
            1 if n > 1 else 0,
            ["m >= n-1: every connected graph contains a spanning tree"],
        )
    k = flt.k
    notes = [
        f"delta >= {k}: a minimally {flt.describe().removeprefix('min-')} "
        f"graph has minimum degree exactly {k}",
        f"m >= ceil({k}n/2): forced by the degree floor",
    ]
    m_hi = emax
    if flt.kind == "min-edge" and k == 2:
        m_hi = min(m_hi, 2 * n - 2)
        notes.append("m <= 2n-2: edge count bound for minimally 2-edge-connected graphs")
    return math.ceil(k * n / 2), m_hi, k, notes


def enumerate_class(n: int, flt: ClassFilter) -> list[Graph]:
    """All members of the class on n vertices, one canonical graph each.

    Output is sorted by canonical form.  Raises CapabilityError beyond the
    built-in range; use ingest_class with a graph6 file instead.  Each class
    is generated once per process; every call returns a fresh list.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n > MAX_BUILTIN_N:
        raise CapabilityError(
            f"built-in generation supports n <= {MAX_BUILTIN_N}; "
            "ingest a pre-generated graph6 file for larger orders"
        )
    return list(_scan_class(n, flt))


@lru_cache(maxsize=16)
def _scan_class(n: int, flt: ClassFilter) -> tuple[Graph, ...]:
    m_lo, m_hi, dmin, _ = scan_plan(n, flt)
    masks = kernels.scan_masks(n, m_lo, m_hi, dmin, flt.passes)
    return tuple(dedup_by_isomorphism(Graph.from_edge_mask(n, mask) for mask in masks))


def dedup_by_isomorphism(graphs) -> list[Graph]:
    """One canonical representative per isomorphism class, sorted."""
    forms: set[CanonicalForm] = {canonical_form(g) for g in graphs}
    return [f.graph() for f in sorted(forms)]


def ingest_class(graphs, n: int, flt: ClassFilter) -> list[Graph]:
    """Filter, dedup, and sort externally supplied graphs into a class list.

    Every input must have the requested vertex count.  Extra graphs that fail
    the class predicate are dropped, so a superset of the class is fine;
    missing members obviously cannot be recovered.
    """
    kept = []
    for i, g in enumerate(graphs):
        if g.n != n:
            raise ValueError(f"ingested graph {i} has {g.n} vertices, expected {n}")
        if flt.passes(g):
            kept.append(g)
    return dedup_by_isomorphism(kept)
