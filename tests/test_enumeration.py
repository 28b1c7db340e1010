import gc
from collections import Counter
from functools import lru_cache
from pathlib import Path

import networkx as nx
import pytest

from alphax import connectivity, enumeration, kernels
from alphax.canonical import canonical_form
from alphax.connectivity import high_degree_forest
from alphax.enumeration import (
    MAX_BUILTIN_N,
    ClassFilter,
    builtin_cap,
    dedup_by_isomorphism,
    edge_bound,
    enumerate_class,
    generation_notes,
    ingest_class,
)
from alphax.graph import Graph, bits
from alphax.graph6 import parse_graph6_lines, write_graph6, write_graph6_lines
from alphax.families import make_complete, make_cycle

from helpers import (
    all_cycles,
    brute_edge_connectivity,
    brute_vertex_connectivity,
    chorded_cycle_free_graphs,
    chords_of_cycle,
    connected_class_reps,
    iter_all_graphs,
    min2ec_without_chord_lemma,
)

DATA = Path(__file__).resolve().parent.parent / "data"
TEST_DATA = Path(__file__).resolve().parent / "data"

ALL_CONN = ClassFilter("all-connected", 1)
MIN_2EC = ClassFilter("min-edge", 2)
MIN_3C = ClassFilter("min-vertex", 3)
MIN_2C = ClassFilter("min-vertex", 2)
MIN_3EC = ClassFilter("min-edge", 3)
SMALL_K = [ClassFilter(kind, k) for k in range(1, 5) for kind in ("min-vertex", "min-edge")]


def _plain_minimal(flt: ClassFilter):
    """The class predicate with no shortcut: for the vertex classes, kappa is
    re-tested after every edge deletion instead of Mader's forest check."""
    k = flt.k
    if flt.kind == "all-connected":
        return Graph.is_connected
    if flt.kind == "min-edge":
        return lambda g: connectivity.is_minimally_k_edge_connected(g, k)
    return lambda g: connectivity.is_k_connected(g, k) and not any(
        connectivity.is_k_connected(g.delete_edge(u, v), k) for u, v in g.edges())


@lru_cache(maxsize=None)
def _labellings(n: int, k: int) -> tuple[Graph, ...]:
    """The labelled scan's graphs with minimum degree k, before any class
    predicate: one scan serves every class with this k."""
    return tuple(Graph.from_edge_bits(n, m) for m in kernels.scan_masks(n, k, lambda g: True))


@lru_cache(maxsize=None)
def _scanned(n: int, flt: ClassFilter) -> tuple[Graph, ...]:
    """The class from the labelled scan, which uses no lemma, degree-k vertex or
    edge bound: every labelling with minimum degree k (forced by
    k-(edge-)connectivity) meets the plain predicate."""
    passes = _plain_minimal(flt)
    return tuple(dedup_by_isomorphism(g for g in _labellings(n, flt.k) if passes(g)))


def test_filter_parsing():
    assert ClassFilter.parse("min-2-edge-connected") == MIN_2EC
    assert ClassFilter.parse("min-3-connected") == MIN_3C
    assert ClassFilter.parse("min-4-edge-connected").k == 4
    assert ClassFilter.parse("all-connected") == ALL_CONN
    for bad in ("min-0-connected", "connected", "min-edge", "min-x-connected", ""):
        with pytest.raises(ValueError):
            ClassFilter.parse(bad)


def test_filter_constructor_rejects_unknown_kind_and_small_k():
    with pytest.raises(ValueError, match="unknown class kind 'connected'"):
        ClassFilter("connected")
    with pytest.raises(ValueError, match="k must be at least 1"):
        ClassFilter("min-edge", 0)


def test_filter_describe_round_trips():
    for flt in (ALL_CONN, MIN_2EC, MIN_3C):
        assert ClassFilter.parse(flt.describe()) == flt


def test_edge_bound_and_generation_notes():
    # the generator's edge bound: Mader's k(n-k) for min-k-connected graphs
    # once n >= 3k-2, the number of vertex pairs otherwise
    assert edge_bound(6, MIN_2EC) == 15
    assert edge_bound(6, ALL_CONN) == 15
    assert edge_bound(7, MIN_3C) == 12
    assert edge_bound(6, MIN_3C) == 15  # below 3k-2 the bound is not claimed
    assert edge_bound(7, MIN_3EC) == 21
    for flt in (ALL_CONN, MIN_2EC, MIN_3C, MIN_3EC):
        assert generation_notes(7, flt)  # the facts behind generation are spelled out
    assert "m <= 3(n-3) = 12" in " ".join(generation_notes(7, MIN_3C))


def test_connected_counts():
    # classes of connected graphs: 1, 1, 2, 6, 21, 112
    for n, want in [(1, 1), (2, 1), (3, 2), (4, 6), (5, 21), (6, 112)]:
        assert len(enumerate_class(n, ALL_CONN)) == want


def test_minimal_class_counts():
    for n, want in [(3, 1), (4, 1), (5, 3), (6, 4), (7, 11)]:
        assert len(enumerate_class(n, MIN_2EC)) == want
    for n, want in [(4, 1), (5, 1), (6, 3), (7, 5)]:
        assert len(enumerate_class(n, MIN_3C)) == want
    for kind in ("min-vertex", "min-edge"):  # minimally 1-(edge-)connected: the trees
        trees = ClassFilter(kind, 1)
        assert [len(enumerate_class(n, trees)) for n in range(2, 8)] == [1, 1, 2, 3, 6, 11]


def test_triangle_is_the_smallest_member():
    assert enumerate_class(3, MIN_2EC) == [make_cycle(3)]
    assert enumerate_class(4, MIN_3C) == [make_complete(4)]
    only = enumerate_class(4, MIN_2EC)
    assert len(only) == 1
    assert canonical_form(only[0]) == canonical_form(make_cycle(4))


def test_output_is_canonical_and_sorted():
    members = enumerate_class(6, MIN_2EC)
    g6 = [write_graph6(g) for g in members]
    assert g6 == sorted(g6)
    for g in members:
        assert canonical_form(g).graph() == g
    assert enumerate_class(6, MIN_2EC) == members  # deterministic rerun


@pytest.mark.parametrize("flt", [ALL_CONN, MIN_2EC, MIN_3C], ids=lambda f: f.describe())
def test_matches_brute_force_oracle_n5(flt):
    for n in range(2, 6):
        oracle = dedup_by_isomorphism([g for g in iter_all_graphs(n) if flt.passes(g)])
        got = enumerate_class(n, flt)
        assert {canonical_form(g) for g in got} == {canonical_form(g) for g in oracle}


@pytest.mark.parametrize("flt", [MIN_2C, MIN_3EC], ids=lambda f: f.describe())
def test_matches_brute_force_oracle_n6(flt):
    # the acceptance suite covers the other classes up to n=6
    for n in range(2, 7):
        oracle = dedup_by_isomorphism([g for g in iter_all_graphs(n) if flt.passes(g)])
        assert enumerate_class(n, flt) == oracle


def test_repeat_calls_return_fresh_lists():
    first = enumerate_class(5, MIN_2EC)
    first.clear()
    assert len(enumerate_class(5, MIN_2EC)) == 3


def test_dedup_by_isomorphism():
    c5 = make_cycle(5)
    relabeled = c5.induced_subgraph(range(5))  # same graph
    out = dedup_by_isomorphism([c5, relabeled, make_complete(5)])
    assert len(out) == 2


def test_ingest_validates_and_filters():
    members = enumerate_class(5, MIN_2EC)
    assert ingest_class(members + members, 5, MIN_2EC) == members  # dedup
    mixed = members + [make_cycle(5).add_edge(0, 2)]  # has a chord, not minimal
    assert ingest_class(mixed, 5, MIN_2EC) == members
    with pytest.raises(ValueError):
        ingest_class([make_cycle(4)], 5, MIN_2EC)  # wrong order


def test_builtin_cap_points_to_ingestion():
    # min-2-edge-connected grows to its measured limit of 12, every other class to 8
    assert MAX_BUILTIN_N == 8
    for flt, n in [(MIN_3C, 9), (MIN_2EC, 13)]:
        assert builtin_cap(flt) == n - 1
        with pytest.raises(ValueError) as err:
            enumerate_class(n, flt)
        assert "ingest" in str(err.value).lower() or "graph6" in str(err.value).lower()


@pytest.mark.parametrize("n", range(3, 8))
def test_grown_class_matches_lemma_free_scan(n):
    for flt in (MIN_2EC, MIN_3EC, ALL_CONN, *(f for f in SMALL_K if f.k in (1, 4))):
        assert enumerate_class(n, flt) == list(_scanned(n, flt)), flt.describe()


@pytest.mark.parametrize("flt", SMALL_K, ids=ClassFilter.describe)
def test_base_level_keeps_every_member_minus_a_degree_k_vertex(flt):
    # the base filter's facts, checked on members found without them
    for n in range(2, 8):
        base = {g for g, _ in enumeration._base(n, flt)}
        for g in _scanned(n, flt):
            low = [v for v, d in enumerate(g.degrees()) if d == flt.k]
            assert low, write_graph6(g)  # Halin's / Mader's vertex of degree k
            for v in low:
                h = g.induced_subgraph(u for u in range(n) if u != v)
                assert canonical_form(h).graph() in base, (n, write_graph6(g), v)


def test_base_level_is_pruned_for_the_scan7_classes():
    # the top base level before the filter: 27 connected chorded-cycle-free
    # graphs on 6 vertices, and 80 connected ones with at most 3(7-3)-3 = 9 edges
    assert len(enumeration._chorded_cycle_free(6)) == 27
    assert len(enumeration._base(7, MIN_2EC)) == 19
    assert sum(g.m <= 9 for g, _ in enumeration._connected(6)) == 80
    assert len(enumeration._base(7, MIN_3C)) == 21


def test_joins_equal_checked_graphs():
    # _join_new_vertex skips Graph's checks: each join of a level graph to any
    # set of its vertices must be the graph the checked constructor builds
    levels = [enumeration._connected(n) for n in range(1, 7)]
    levels += [enumeration._chorded_cycle_free(n) for n in range(1, 8)]
    joins = 0
    for g, _ in (member for level in levels for member in level):
        n = g.n
        for s in range(1 << n):
            h = enumeration._join_new_vertex(g, s)
            want = Graph.from_edge_list(n + 1, [*g.edges(), *((v, n) for v in bits(s))])
            assert (h, h.m) == (want, want.m), (write_graph6(g), s)
            joins += 1
    assert joins == 20588  # sum of |level| * 2^n over the atlas counts


def test_growth_leaves_no_cyclic_garbage():
    # canonical_form's recursive search must not outlive a call in a reference
    # cycle, or every labelling leaves work for the cyclic collector
    enumeration._grow(7, MIN_2EC)  # the lower levels, cached
    gc.collect()
    gc.disable()
    try:
        enumeration._grow.__wrapped__(7, MIN_2EC)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_connected_levels_match_atlas_counts():
    want = [0] * 8
    for nxg in nx.graph_atlas_g()[1:]:
        want[nxg.number_of_nodes()] += nx.is_connected(nxg)
    sizes = [len(enumeration._connected(n)) for n in range(1, 8)]
    assert sizes == want[1:] == [1, 1, 2, 6, 21, 112, 853]


def test_every_level_is_connected():
    for n in range(1, 9):
        for level in (enumeration._connected(n), enumeration._chorded_cycle_free(n)):
            assert all(g.is_connected() for g, _ in level), n


@pytest.mark.parametrize(
    "name,flt,size",
    [
        ("min3c_n8.g6", MIN_3C, 18),
        ("min2c_n8.g6", MIN_2C, 12),
        ("min3ec_n8.g6", MIN_3EC, 34),
        ("min4c_n8.g6", ClassFilter("min-vertex", 4), 13),
        ("min4ec_n8.g6", ClassFilter("min-edge", 4), 17),
    ],
    ids=["min-3-connected", "min-2-connected", "min-3-edge-connected",
         "min-4-connected", "min-4-edge-connected"],
)
def test_grown_class_reproduces_scan_snapshot_n8(name, flt, size):
    # min3c, min2c and min3ec were written by the labelled scan before these
    # classes were grown; min4c and min4ec by the generator while its
    # predicates still ran the flows on edge-deleted copies of each graph
    text = write_graph6_lines(enumerate_class(8, flt))
    assert text == (TEST_DATA / name).read_text("ascii")
    assert text.count("\n") == size


@lru_cache(maxsize=None)
def _atlas_chorded_cycle_free() -> tuple[nx.Graph, ...]:
    """The connected atlas graphs (1-7 vertices) in which no cycle has a chord."""
    found = []
    for nxg in nx.graph_atlas_g()[1:]:
        g = Graph.from_edge_list(nxg.number_of_nodes(), nxg.edges())
        if nx.is_connected(nxg) and not any(chords_of_cycle(g, c) for c in all_cycles(g)):
            found.append(nxg)
    return tuple(found)


def test_chorded_cycle_free_levels_match_atlas():
    want = Counter(nxg.number_of_nodes() for nxg in _atlas_chorded_cycle_free())
    assert want == {1: 1, 2: 1, 3: 2, 4: 4, 5: 10, 6: 27, 7: 82}
    got = {n: len(enumeration._chorded_cycle_free(n)) for n in range(1, 8)}
    assert got == want


def test_chorded_cycle_free_graphs_have_a_non_cut_vertex_of_degree_1_or_2():
    # the fact that grows the connected chorded-cycle-free levels
    for nxg in _atlas_chorded_cycle_free():
        if nxg.number_of_nodes() >= 2:
            cut = set(nx.articulation_points(nxg))
            assert any(d in (1, 2) and v not in cut for v, d in nxg.degree()), nxg.edges()


def test_chorded_cycle_free_levels_match_naive_growth():
    # the naive grower keeps disconnected graphs and rests on Posa alone
    for n in range(1, 9):
        naive = [g for g in chorded_cycle_free_graphs(n) if g.is_connected()]
        assert naive == [g for g, _ in enumeration._chorded_cycle_free(n)], n


def _brute_minimal(g: Graph, k: int, conn) -> bool:
    return conn(g) >= k and all(conn(g.delete_edge(u, v)) < k for u, v in g.edges())


@pytest.mark.parametrize(
    "flt,conn",
    [(MIN_2EC, brute_edge_connectivity), (MIN_3EC, brute_edge_connectivity),
     (MIN_2C, brute_vertex_connectivity), (MIN_3C, brute_vertex_connectivity)],
    ids=["min-2-ec", "min-3-ec", "min-2-c", "min-3-c"],
)
def test_mader_checks_keep_every_member_n6(flt, conn):
    found = 0
    for n in range(2, 7):
        for g in connected_class_reps(n):
            if not _brute_minimal(g, flt.k, conn):
                continue
            found += 1
            assert g.m <= edge_bound(n, flt) and g.min_degree() == flt.k
            assert flt.passes(g)
            if flt.kind == "min-vertex":
                assert high_degree_forest(g, flt.k)
    assert found


def test_forest_check_is_not_valid_for_edge_classes():
    # three triangles hung on the corners of a fourth: minimally
    # 2-edge-connected, but the inner triangle's corners have degree 4
    edges = [(0, 1), (1, 2), (0, 2)]
    for corner, (a, b) in zip(range(3), [(3, 4), (5, 6), (7, 8)]):
        edges += [(corner, a), (corner, b), (a, b)]
    g = Graph.from_edge_list(9, edges)
    assert _brute_minimal(g, 2, brute_edge_connectivity)
    assert not high_degree_forest(g, 2)
    assert MIN_2EC.passes(g)
    assert canonical_form(g).graph() in enumerate_class(9, MIN_2EC)


@pytest.mark.parametrize("flt", [MIN_2C, MIN_3C], ids=lambda f: f.describe())
def test_grown_vertex_classes_match_plain_scan_n7(flt):
    assert enumerate_class(7, flt) == list(_scanned(7, flt))


def test_n9_class_file_regenerates_byte_identically():
    text = "".join(write_graph6(g) + "\n" for g in enumerate_class(9, MIN_2EC))
    assert text == (DATA / "min2ec_n9.g6").read_text("ascii")
    assert text.count("\n") == 63


def test_min2ec_grows_the_same_without_the_chord_lemma():
    # the generic growth from the connected levels, not the chorded-cycle-free ones
    for n in range(1, 10):
        grown = list(min2ec_without_chord_lemma(n))
        assert grown == enumerate_class(n, MIN_2EC), n
        if n >= 8:
            assert write_graph6_lines(grown) == (DATA / f"min2ec_n{n}.g6").read_text("ascii")


def test_n10_class_file_survives_ingestion():
    # the file predates orbit pruning, whose groups are largest at this order
    text = (DATA / "min2ec_n10.g6").read_text("ascii")
    assert write_graph6_lines(enumerate_class(10, MIN_2EC)) == text
    shipped = parse_graph6_lines(text)
    assert len(shipped) == 159
    assert ingest_class(shipped, 10, MIN_2EC) == shipped
