"""Named graph families and their closed-form alpha-indices.

Vertex numbering is frozen so canonical comparisons and reports are stable:

* path and cycle: vertices 0..n-1 in walk order
* complete bipartite K_{a,b}: side A is 0..a-1, side B is a..a+b-1
* wheel W_n: hub 0, rim 1..n-1 in cycle order
* friendship F_k: hub 0, triangle i on vertices (2i+1, 2i+2)

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
    return Graph.from_edge_list(n, ((i, i + 1) for i in range(n - 1)))


def make_cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return Graph.from_edge_list(n, ((i, (i + 1) % n) for i in range(n)))


def make_complete(n: int) -> Graph:
    if n < 1:
        raise ValueError("complete graph needs n >= 1")
    return Graph.from_edge_list(n, ((i, j) for i in range(n) for j in range(i + 1, n)))


def make_complete_bipartite(a: int, b: int) -> Graph:
    if a < 1 or b < 1:
        raise ValueError("complete bipartite graph needs both sides non-empty")
    return Graph.from_edge_list(a + b, ((i, a + j) for i in range(a) for j in range(b)))


def make_wheel(n: int) -> Graph:
    """Wheel on n vertices: a hub joined to a cycle on n-1 vertices."""
    if n < 4:
        raise ValueError("wheel needs n >= 4")
    # spoke 0-i and rim edge i-(i+1), the rim closing from n-1 back to 1
    edges = (e for i in range(1, n) for e in ((0, i), (i, i % (n - 1) + 1)))
    return Graph.from_edge_list(n, edges)


def make_friendship(k: int) -> Graph:
    """Friendship graph F_k: k triangles sharing one hub, 2k+1 vertices."""
    if k < 1:
        raise ValueError("friendship graph needs k >= 1")
    edges = (e for a in range(1, 2 * k, 2) for e in ((0, a), (0, a + 1), (a, a + 1)))
    return Graph.from_edge_list(2 * k + 1, edges)


FAMILY_RE = re.compile(r"^\s*([PCKWF])\s*(\d+)\s*(?:,\s*(\d+))?\s*$", re.IGNORECASE)


def parse_family_spec(spec: str) -> Graph:
    """Build the graph named by a FamilySpec string such as "W7" or "K2,6"."""
    match = FAMILY_RE.match(spec)
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
# Every extremal family of the theorems is a join of two regular graphs:
# F_k = K_1 v kK_2, K_{p,q} = pK_1 v qK_1, W_n = K_1 v C_{n-1}.  Its
# alpha-index is the larger root of the 2x2 equitable quotient's
# x^2 - T x + D = 0, evaluated as (T + sqrt(T^2 - 4D)) / 2 with
# T^2 - 4D = (t11 - t22)^2 + 4 cross: a square plus a nonnegative product, so
# nothing cancels.


def rho_join_regular(r1: int, n1: int, r2: int, n2: int, alpha: float) -> float:
    """alpha-index of G1 join G2 for an r1-regular G1 on n1 vertices and an
    r2-regular G2 on n2 vertices.

    Largest eigenvalue of the 2x2 quotient matrix
    [[r1 + a*n2, (1-a)^2 * n1 * n2], [1, r2 + a*n1]].
    """
    a = validate_alpha(alpha)
    for r, n in ((r1, n1), (r2, n2)):
        if n < 1 or not 0 <= r < n or r * n % 2:
            raise ValueError(f"invalid regular part: degree {r} on {n} vertices")
    t11 = r1 + a * n2
    t22 = r2 + a * n1
    cross = (1.0 - a) ** 2 * (n1 * n2)  # exactly symmetric in the two parts
    disc = (t11 - t22) ** 2 + 4.0 * cross
    return 0.5 * (t11 + t22 + math.sqrt(disc))
