"""graph6 reader/writer for graphs on up to 62 vertices.

The format: one printable ASCII line per graph.  The first byte is n+63, the
rest are the edge-bit code of :meth:`Graph.edge_bits` (the upper triangle in
column order x(0,1), x(0,2), x(1,2), x(0,3), ..., first pair most
significant), zero-padded on the right to whole 6-bit groups, each group
offset by 63.  The optional ">>graph6<<" header is accepted and skipped.
Multi-byte vertex counts (n > 62) are rejected explicitly.
"""

from __future__ import annotations

from .graph import Graph, pair_count

HEADER = ">>graph6<<"


class Graph6Error(ValueError):
    """Malformed graph6 input; ``offset`` is the byte position of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


def write_graph6(g: Graph) -> str:
    if g.n > 62:
        raise Graph6Error(f"graph6 output supports at most 62 vertices, got {g.n}", 0)
    nbytes = (pair_count(g.n) + 5) // 6
    code = g.edge_bits() << (6 * nbytes - pair_count(g.n))
    return chr(g.n + 63) + "".join(
        chr(((code >> (6 * k)) & 63) + 63) for k in reversed(range(nbytes))
    )


def parse_graph6(line: str) -> Graph:
    """Decode one graph6 line (header tolerated, surrounding whitespace ignored)."""
    s = line.strip()
    base = 0
    if s.startswith(HEADER):
        base = len(HEADER)
        s = s[len(HEADER):]
    if not s:
        raise Graph6Error("empty graph6 line", base)
    first = ord(s[0])
    if first == 126:
        raise Graph6Error("multi-byte vertex counts (n > 62) not supported", base)
    if not 63 <= first <= 126:
        raise Graph6Error(f"invalid byte {first}", base)
    n = first - 63
    if n == 0:
        raise Graph6Error("graphs must have at least one vertex", base)
    need_bits = pair_count(n)
    need_bytes = (need_bits + 5) // 6
    payload = s[1:]
    if len(payload) < need_bytes:
        raise Graph6Error(
            f"truncated payload: need {need_bytes} bytes for n={n}, got {len(payload)}",
            base + 1 + len(payload),
        )
    if len(payload) > need_bytes:
        raise Graph6Error("trailing bytes after payload", base + 1 + need_bytes)
    code = 0
    for k, ch in enumerate(payload):
        val = ord(ch) - 63
        if not 0 <= val <= 63:
            raise Graph6Error(f"invalid byte {ord(ch)}", base + 1 + k)
        code = (code << 6) | val
    padding = 6 * need_bytes - need_bits
    if code & ((1 << padding) - 1):
        raise Graph6Error("nonzero padding bits", base + need_bytes)  # the last byte
    return Graph.from_edge_bits(n, code >> padding)


def parse_graph6_lines(text: str) -> list[Graph]:
    """Decode every non-empty line of a graph6 file."""
    graphs = []
    for ln in text.splitlines():
        if ln.strip():
            graphs.append(parse_graph6(ln))
    return graphs


def write_graph6_lines(graphs) -> str:
    return "".join(write_graph6(g) + "\n" for g in graphs)
