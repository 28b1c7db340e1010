"""Named graph families, join/union constructions, and closed-form alpha-indices.

Vertex numbering is frozen so canonical comparisons and reports are stable:

* path and cycle: vertices 0..n-1 in walk order
* complete bipartite K_{a,b}: side A is 0..a-1, side B is a..a+b-1
* wheel W_n: hub 0, rim 1..n-1 in cycle order
* friendship F_k: hub 0, triangle i on vertices (2i+1, 2i+2)
* join: all vertices of the first argument before the second

FamilySpec strings name a family by a letter and its parameters, case
insensitive: "P5", "C7", "K6", "K2,6", "W7", "F3".
"""

from __future__ import annotations

import math
import re

from .graph import Graph
from .spectral import validate_alpha


def make_path(n: int) -> Graph:
    if n < 1:
        raise ValueError("path needs n >= 1")
    return Graph.from_edge_list(n, [(i, i + 1) for i in range(n - 1)])


def make_cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return Graph.from_edge_list(n, [(i, (i + 1) % n) for i in range(n)])


def make_complete(n: int) -> Graph:
    if n < 1:
        raise ValueError("complete graph needs n >= 1")
    return Graph.from_edge_list(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def make_complete_bipartite(a: int, b: int) -> Graph:
    if a < 1 or b < 1:
        raise ValueError("complete bipartite graph needs both sides non-empty")
    return Graph.from_edge_list(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def make_wheel(n: int) -> Graph:
    """Wheel on n vertices: a hub joined to a cycle on n-1 vertices."""
    if n < 4:
        raise ValueError("wheel needs n >= 4")
    edges = [(0, i) for i in range(1, n)]
    edges += [(i, i + 1) for i in range(1, n - 1)]
    edges.append((n - 1, 1))
    return Graph.from_edge_list(n, edges)


def make_friendship(k: int) -> Graph:
    """Friendship graph F_k: k triangles sharing one hub, 2k+1 vertices."""
    if k < 1:
        raise ValueError("friendship graph needs k >= 1")
    edges = []
    for i in range(k):
        a, b = 2 * i + 1, 2 * i + 2
        edges += [(0, a), (0, b), (a, b)]
    return Graph.from_edge_list(2 * k + 1, edges)


def disjoint_union(g1: Graph, g2: Graph) -> Graph:
    n = g1.n + g2.n
    edges = g1.edges() + [(u + g1.n, v + g1.n) for u, v in g2.edges()]
    return Graph.from_edge_list(n, edges)


def join(g1: Graph, g2: Graph) -> Graph:
    """Disjoint union plus every edge between the two parts."""
    base = disjoint_union(g1, g2)
    edges = base.edges()
    edges += [(u, g1.n + v) for u in range(g1.n) for v in range(g2.n)]
    return Graph.from_edge_list(base.n, edges)


_FAMILY_RE = re.compile(r"^\s*([PCKWF])\s*(\d+)\s*(?:,\s*(\d+))?\s*$", re.IGNORECASE)


def parse_family_spec(spec: str) -> Graph:
    """Build the graph named by a FamilySpec string such as "W7" or "K2,6"."""
    match = _FAMILY_RE.match(spec)
    if not match:
        raise ValueError(f"unrecognized family spec {spec!r}")
    letter = match.group(1).upper()
    a = int(match.group(2))
    b = match.group(3)
    if b is not None and letter != "K":
        raise ValueError(f"family {letter} takes a single parameter, got {spec!r}")
    if letter == "P":
        return make_path(a)
    if letter == "C":
        return make_cycle(a)
    if letter == "W":
        return make_wheel(a)
    if letter == "F":
        return make_friendship(a)
    if b is None:
        return make_complete(a)
    return make_complete_bipartite(a, int(b))


# -- closed forms ----------------------------------------------------------
#
# Each is the largest root of a quadratic.  The larger root of
# x^2 - T x + D = 0 with T > 0 is evaluated as (T + sqrt(T^2 - 4D)) / 2,
# which has no cancellation; only the smaller root would need the D/x trick.


def rho_join_regular(r1: int, n1: int, r2: int, n2: int, alpha: float) -> float:
    """alpha-index of G1 join G2 for an r1-regular G1 on n1 vertices and an
    r2-regular G2 on n2 vertices.

    Largest eigenvalue of the 2x2 quotient matrix
    [[r1 + a*n2, (1-a)^2 * n1 * n2], [1, r2 + a*n1]].
    """
    a = validate_alpha(alpha)
    for r, n in ((r1, n1), (r2, n2)):
        if n < 1 or not 0 <= r < n:
            raise ValueError(f"invalid regular part: degree {r} on {n} vertices")
    t11 = r1 + a * n2
    t22 = r2 + a * n1
    cross = (1.0 - a) ** 2 * n1 * n2
    disc = (t11 - t22) ** 2 + 4.0 * cross
    return 0.5 * (t11 + t22 + math.sqrt(disc))


def rho_complete_bipartite(a_side: int, b_side: int, alpha: float) -> float:
    """alpha-index of K_{a,b}; the sides may be given in either order."""
    a = validate_alpha(alpha)
    p, q = (a_side, b_side) if a_side >= b_side else (b_side, a_side)
    if q < 1:
        raise ValueError("complete bipartite graph needs both sides non-empty")
    # discriminant written as a^2 (p-q)^2 + 4 (1-a)^2 p q, nonnegative by inspection
    disc = (a * (p - q)) ** 2 + 4.0 * (1.0 - a) ** 2 * p * q
    return 0.5 * (a * (p + q) + math.sqrt(disc))


def rho_friendship(n: int, alpha: float) -> float:
    """alpha-index of the friendship graph of odd order n = 2k+1."""
    a = validate_alpha(alpha)
    if n < 3 or n % 2 == 0:
        raise ValueError(f"friendship graph order must be odd and >= 3, got {n}")
    disc = (a * n) ** 2 - 10.0 * a * n + 12.0 * a + 4.0 * n - 3.0
    return 0.5 * (a * n + 1.0 + math.sqrt(max(disc, 0.0)))
