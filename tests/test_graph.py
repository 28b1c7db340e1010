import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import alphax
from alphax import kernels
from alphax.connectivity import has_chorded_cycle
from alphax.enumeration import ClassFilter
from alphax.graph import Graph, bits, pair_list, parse_edge_list
from alphax.families import (
    make_complete,
    make_complete_bipartite,
    make_cycle,
    make_path,
    make_wheel,
)

from helpers import all_cycles, cap_address_space, chords_of_cycle, switch_edges

ROOT = Path(__file__).resolve().parent.parent


def test_from_edge_list_basic():
    g = Graph.from_edge_list(4, [(0, 1), (1, 2), (2, 3)])
    assert g.n == 4
    assert g.m == 3
    assert g.degrees() == [1, 2, 2, 1]
    assert g.has_edge(1, 2)
    assert not g.has_edge(0, 3)
    assert list(bits(g.adjacency_rows()[1])) == [0, 2]


def test_from_edge_list_checks_the_order_before_reading_edges():
    def edges():
        raise AssertionError("edges read for an oversized order")
        yield (0, 1)

    with pytest.raises(ValueError, match="vertex count 65 outside supported range 1..64"):
        Graph.from_edge_list(65, edges())


def test_from_edge_list_collapses_duplicates():
    g = Graph.from_edge_list(3, [(0, 1), (1, 0), (0, 1)])
    assert g.m == 1


def test_from_edge_list_rejects_bad_input():
    with pytest.raises(ValueError):
        Graph.from_edge_list(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph.from_edge_list(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph.from_edge_list(0, [])
    with pytest.raises(ValueError):
        Graph.from_edge_list(65, [])


def test_constructor_validates_adjacency():
    # asymmetric adjacency masks must be rejected
    with pytest.raises(ValueError):
        Graph(2, (0b10, 0b00))
    with pytest.raises(ValueError):
        Graph(2, (0b01, 0b00))  # loop at vertex 0


def test_edge_bits_column_order():
    # the upper triangle read column by column, first pair most significant:
    # (0,1) -> bit 2, (0,2) -> bit 1, (1,2) -> bit 0
    assert pair_list(3) == [(0, 1), (0, 2), (1, 2)]
    assert Graph.from_edge_bits(3, 0b100) == Graph.from_edge_list(3, [(0, 1)])
    assert Graph.from_edge_bits(3, 0b010) == Graph.from_edge_list(3, [(0, 2)])
    assert Graph.from_edge_bits(3, 0b101) == Graph.from_edge_list(3, [(0, 1), (1, 2)])
    assert Graph.from_edge_list(3, [(0, 1)]).edge_bits() == 0b100


def test_from_edge_bits_rejects_codes_that_do_not_fit():
    with pytest.raises(ValueError, match="edge code -1"):
        Graph.from_edge_bits(3, -1)
    with pytest.raises(ValueError, match="edge code 127"):
        Graph.from_edge_bits(3, 0b1111111)  # bits above the three pairs
    assert Graph.from_edge_bits(3, 0b111) == make_complete(3)


def test_from_edge_bits_checks_the_order_before_listing_pairs():
    # listing the pairs first would fill the capped address space
    code = "from alphax.graph import Graph; Graph.from_edge_bits(100000, 1)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         preexec_fn=cap_address_space)
    assert out.returncode == 1
    assert out.stderr.endswith(
        "ValueError: vertex count 100000 outside supported range 1..64\n")


def test_edge_bits_round_trip():
    g = make_wheel(6)
    pairs = pair_list(6)
    code = sum(1 << (len(pairs) - 1 - i) for i, (u, v) in enumerate(pairs) if g.has_edge(u, v))
    assert g.edge_bits() == code
    assert Graph.from_edge_bits(6, code) == g


def test_degree_helpers():
    star = make_complete_bipartite(1, 3)
    assert star.max_degree() == 3
    assert star.min_degree() == 1


def test_add_and_delete_edge_are_persistent():
    g = make_path(3)
    h = g.add_edge(0, 2)
    assert h.m == 3 and g.m == 2
    back = h.delete_edge(0, 2)
    assert back == g
    with pytest.raises(ValueError):
        g.add_edge(0, 1)  # already present
    with pytest.raises(ValueError):
        g.delete_edge(0, 2)  # absent


def test_induced_subgraph_relabels_sorted():
    p4 = make_path(4)
    sub = p4.induced_subgraph([1, 2, 3])
    assert sub == make_path(3)
    assert p4.induced_subgraph([3, 1, 2]) == sub  # order of the set is irrelevant
    with pytest.raises(ValueError):
        p4.induced_subgraph([])


def test_switch_edges_moves_neighbours():
    # path 0-1-2-3: move v=2's neighbour 3 over to u=0
    g = make_path(4)
    h = switch_edges(g, 0, 2, [3])
    assert h.m == g.m
    assert h.has_edge(0, 3) and not h.has_edge(2, 3)


def test_switch_edges_validation():
    g = make_path(4)
    with pytest.raises(ValueError):
        switch_edges(g, 0, 2, [])
    with pytest.raises(ValueError):
        switch_edges(g, 0, 2, [0])  # would create a loop at u
    with pytest.raises(ValueError):
        switch_edges(g, 0, 2, [1])  # 1 is already a neighbour of 0
    with pytest.raises(ValueError):
        switch_edges(g, 0, 1, [3])  # 3 is not a neighbour of v=1


def test_components_and_connectivity_flags():
    g = Graph.from_edge_list(5, [(0, 1), (2, 3)])
    masks = g.component_masks()
    assert sorted(masks) == [0b00011, 0b01100, 0b10000]
    assert not g.is_connected()
    assert make_cycle(4).is_connected()
    assert Graph.from_edge_list(1, []).is_connected()


def test_graph_layer_loads_no_numpy(tmp_path):
    # every module, the labelled scan included, imports and runs on the
    # standard library alone: the child has no site-packages (python -S)
    code = ("import importlib, pkgutil, alphax\n"
            "names = [m.name for m in pkgutil.iter_modules(alphax.__path__)]\n"
            "for name in names:\n"
            "    importlib.import_module('alphax.' + name)\n"
            "from alphax.enumeration import ClassFilter\n"
            "from alphax.kernels import scan_masks\n"
            "print(sorted(names))\n"
            "print(scan_masks(5, 2, ClassFilter.parse('min-2-edge-connected').passes))")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    names = sorted(m.name for m in pkgutil.iter_modules(alphax.__path__))
    assert "kernels" in names
    want = kernels.scan_masks(5, 2, ClassFilter.parse("min-2-edge-connected").passes)
    assert out.stdout.splitlines() == [str(names), str(want)]
    # nor does a campaign: one scan7 and one sweep8 command of the benchmark,
    # each in a fresh process through cli.main
    grid = ",".join(str(0.5 + i / 256) for i in range(128))
    for argv in (
        ["verify", "thm11-odd", "--n", "7", "--alphas", "0.5,0.6,0.75,0.9,0.99"],
        ["verify", "thm11-even", "--n", "8", "--in", str(ROOT / "data" / "min2ec_n8.g6"),
         "--alphas", grid, "--out", str(tmp_path / "sweep8.json")],
    ):
        code = f"import sys; from alphax.cli import main; print(main({argv!r}), 'numpy' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True)
        assert out.stdout.splitlines()[-1] == "0 False"


def test_edge_list_text_round_trip():
    g = make_wheel(5)
    text = f"{g.n} {g.m}\n" + "".join(f"{u} {v}\n" for u, v in g.edges())
    assert parse_edge_list(text) == g


def test_parse_edge_list_errors():
    with pytest.raises(ValueError):
        parse_edge_list("3 2\n0 1\n")  # count mismatch
    with pytest.raises(ValueError):
        parse_edge_list("3\n0 1\n")
    with pytest.raises(ValueError):
        parse_edge_list("3 1\n0 x\n")


def test_all_cycles_lists_each_once():
    assert len(all_cycles(make_cycle(5))) == 1
    assert len(all_cycles(make_path(4))) == 0
    # K_4: four triangles plus three 4-cycles
    assert len(all_cycles(make_complete(4))) == 7
    cycles = all_cycles(make_complete(4))
    assert len({tuple(c) for c in cycles}) == len(cycles)


def test_chords_of_cycle():
    w = make_wheel(5)
    # the rim 4-cycle of W_5 has no chords: its diagonals are not wheel edges
    assert chords_of_cycle(w, (1, 2, 3, 4)) == []
    # a 4-cycle through the hub is cut by the spoke to the opposite rim vertex
    assert chords_of_cycle(w, (0, 1, 2, 3)) == [(0, 2)]
    assert chords_of_cycle(make_cycle(4), (0, 1, 2, 3)) == []


def test_has_chorded_cycle():
    assert not has_chorded_cycle(make_cycle(6))
    assert not has_chorded_cycle(make_path(5))
    assert has_chorded_cycle(make_wheel(5))
    assert has_chorded_cycle(make_complete(4))
    # K_{2,3} has plenty of cycles but every chord candidate is missing
    assert not has_chorded_cycle(make_complete_bipartite(2, 3))


def test_graph_is_hashable():
    g = make_cycle(4)
    assert hash(g) == hash(make_cycle(4))
    assert g != make_path(4)


def test_list_rows_are_kept_as_a_tuple():
    rows = [0b10, 0b01]
    g = Graph(2, rows)
    assert g == Graph(2, (0b10, 0b01))
    assert hash(g) == hash(Graph(2, (0b10, 0b01)))
    rows[0] = rows[1] = 0  # the graph keeps the rows it checked
    assert g.adjacency_rows() == (0b10, 0b01)
    assert g == make_path(2)
