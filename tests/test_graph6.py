import random

import pytest

from alphax.graph import Graph
from alphax.graph6 import (
    Graph6Error,
    parse_graph6,
    parse_graph6_lines,
    write_graph6,
    write_graph6_lines,
)
from alphax.families import make_complete, make_cycle, make_path

from helpers import random_graph

nx = pytest.importorskip("networkx")


def test_k2_fixed_bytes():
    assert write_graph6(Graph.from_edge_list(2, [(0, 1)])) == "A_"


def test_single_vertex():
    g = Graph.from_edge_list(1, [])
    assert write_graph6(g) == "@"
    assert parse_graph6("@") == g


def test_small_known_encodings():
    # values independently checkable with any graph6 tool
    assert write_graph6(Graph.from_edge_list(2, [])) == "A?"
    assert parse_graph6("A_") == Graph.from_edge_list(2, [(0, 1)])
    assert parse_graph6(write_graph6(make_complete(4))) == make_complete(4)


def test_header_is_tolerated():
    g = make_cycle(5)
    assert parse_graph6(">>graph6<<" + write_graph6(g)) == g


def test_round_trip_random():
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randint(1, 30)
        g = random_graph(rng, n, rng.random())
        assert parse_graph6(write_graph6(g)) == g


def test_matches_networkx_bytes():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(1, 20)
        g = random_graph(rng, n, rng.random())
        ours = write_graph6(g)
        h = nx.Graph()
        h.add_nodes_from(range(n))
        h.add_edges_from(g.edges())
        theirs = nx.to_graph6_bytes(h, header=False).decode("ascii").strip()
        assert ours == theirs
        back = nx.from_graph6_bytes(ours.encode("ascii"))
        assert Graph.from_edge_list(n, list(back.edges())) == g


def test_write_rejects_large_orders():
    with pytest.raises(Graph6Error):
        write_graph6(Graph.from_edge_list(63, []))


def test_parse_rejects_multi_byte_orders():
    with pytest.raises(Graph6Error) as err:
        parse_graph6("~??~?????")
    assert err.value.offset == 0


def test_parse_error_offsets():
    # '!' (0x21) is below the printable graph6 range at position 1
    with pytest.raises(Graph6Error) as err:
        parse_graph6("B!")
    assert err.value.offset == 1

    with pytest.raises(Graph6Error) as err:
        parse_graph6("D")  # truncated: n=5 needs ceil(10/6)=2 data bytes
    assert err.value.offset == 1

    with pytest.raises(Graph6Error) as err:
        parse_graph6("A_X")  # trailing garbage
    assert err.value.offset == 2


def test_parse_rejects_nonzero_padding():
    # n=2 uses only the top bit of its payload byte; 63+0b100001 sets the
    # edge bit plus a padding bit and must be rejected
    with pytest.raises(Graph6Error) as err:
        parse_graph6("A" + chr(63 + 0b100001))
    assert err.value.offset == 1
    with pytest.raises(Graph6Error):
        parse_graph6("A" + chr(63 + 0b000001))
    # n=5 has 10 pair bits in 2 bytes; the low 2 bits of byte 2 are padding
    line = "D" + chr(63 + 0b111111) + chr(63 + 0b000010)
    with pytest.raises(Graph6Error, match="padding") as err:
        parse_graph6(line)
    assert err.value.offset == 2
    with pytest.raises(Graph6Error, match="padding") as err:
        parse_graph6(">>graph6<<" + line)
    assert err.value.offset == 12


def test_line_helpers():
    graphs = [make_path(3), make_cycle(4), make_complete(5)]
    text = write_graph6_lines(graphs)
    assert text.endswith("\n")
    assert parse_graph6_lines(text) == graphs
    assert parse_graph6_lines("") == []
    # blank lines are skipped, offsets reported per line
    assert parse_graph6_lines("@\n\n@\n") == [parse_graph6("@")] * 2
