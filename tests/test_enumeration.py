import pytest

from alphax.canonical import CapabilityError, canonical_form
from alphax.enumeration import (
    MAX_BUILTIN_N,
    ClassFilter,
    dedup_by_isomorphism,
    enumerate_class,
    ingest_class,
    scan_plan,
)
from alphax.graph6 import write_graph6
from alphax.families import make_complete, make_cycle

from helpers import iter_all_graphs

ALL_CONN = ClassFilter("all-connected", 1)
MIN_2EC = ClassFilter("min-edge", 2)
MIN_3C = ClassFilter("min-vertex", 3)
MIN_2C = ClassFilter("min-vertex", 2)
MIN_3EC = ClassFilter("min-edge", 3)


def test_filter_parsing():
    assert ClassFilter.parse("min-2-edge-connected") == MIN_2EC
    assert ClassFilter.parse("min-3-connected") == MIN_3C
    assert ClassFilter.parse("min-4-edge-connected").k == 4
    assert ClassFilter.parse("all-connected") == ALL_CONN
    for bad in ("min-0-connected", "connected", "min-edge", "min-x-connected", ""):
        with pytest.raises(ValueError):
            ClassFilter.parse(bad)


def test_filter_describe_round_trips():
    for flt in (ALL_CONN, MIN_2EC, MIN_3C):
        assert ClassFilter.parse(flt.describe()) == flt


def test_scan_plan_windows():
    lo, hi, dmin, notes = scan_plan(6, MIN_2EC)
    assert (lo, hi, dmin) == (6, 10, 2)
    assert notes  # pruning facts are spelled out
    lo, hi, dmin, _ = scan_plan(6, ALL_CONN)
    assert (lo, hi, dmin) == (5, 15, 1)
    lo, hi, dmin, _ = scan_plan(7, MIN_3C)
    assert (lo, hi, dmin) == (11, 21, 3)


def test_connected_counts():
    # classes of connected graphs: 1, 1, 2, 6, 21, 112
    for n, want in [(1, 1), (2, 1), (3, 2), (4, 6), (5, 21), (6, 112)]:
        assert len(enumerate_class(n, ALL_CONN)) == want


def test_minimal_class_counts():
    for n, want in [(3, 1), (4, 1), (5, 3), (6, 4), (7, 11)]:
        assert len(enumerate_class(n, MIN_2EC)) == want
    for n, want in [(4, 1), (5, 1), (6, 3), (7, 5)]:
        assert len(enumerate_class(n, MIN_3C)) == want


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
    assert MAX_BUILTIN_N == 8
    with pytest.raises(CapabilityError) as err:
        enumerate_class(9, MIN_2EC)
    assert "ingest" in str(err.value).lower() or "graph6" in str(err.value).lower()
