import random

import networkx as nx
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from alphax import _flow
from alphax import connectivity as conn
from alphax.graph import Graph, pair_list
from alphax.families import (
    make_complete,
    make_complete_bipartite,
    make_cycle,
    make_path,
    make_wheel,
)

from helpers import (
    all_cycles,
    brute_edge_connectivity,
    brute_vertex_connectivity,
    chords_of_cycle,
    connected_class_reps,
    disjoint_union,
    random_graph,
)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_connectivity_matches_brute_force_exhaustive(n):
    """Flow-based kappa/lambda against subset-deletion oracles, all classes."""
    for g in connected_class_reps(n):
        assert conn.edge_connectivity(g) == brute_edge_connectivity(g)
        assert conn.vertex_connectivity(g) == brute_vertex_connectivity(g)


def test_connectivity_matches_brute_force_sampled_n6():
    rng = random.Random(601)
    for _ in range(60):
        g = random_graph(rng, 6, rng.uniform(0.3, 0.9))
        assert conn.edge_connectivity(g) == brute_edge_connectivity(g)
        assert conn.vertex_connectivity(g) == brute_vertex_connectivity(g)


def test_known_values():
    assert conn.vertex_connectivity(make_complete(5)) == 4
    assert conn.edge_connectivity(make_complete(5)) == 4
    assert conn.vertex_connectivity(make_cycle(6)) == 2
    assert conn.vertex_connectivity(make_path(4)) == 1
    assert conn.vertex_connectivity(make_wheel(7)) == 3
    assert conn.edge_connectivity(make_complete_bipartite(2, 6)) == 2
    disconnected = Graph.from_edge_list(4, [(0, 1), (2, 3)])
    assert conn.vertex_connectivity(disconnected) == 0
    assert conn.edge_connectivity(disconnected) == 0


def test_single_vertex_rejected():
    g = Graph.from_edge_list(1, [])
    for fn in (conn.vertex_connectivity, conn.edge_connectivity):
        with pytest.raises(ValueError):
            fn(g)
    for fn in (conn.is_minimally_k_edge_connected, conn.is_minimally_k_connected):
        for k in (1, 2):
            with pytest.raises(ValueError):
                fn(g, k)


def test_threshold_predicates_consistent():
    rng = random.Random(77)
    for _ in range(40):
        g = random_graph(rng, rng.randint(2, 6), rng.uniform(0.2, 0.9))
        kappa = conn.vertex_connectivity(g)
        lam = conn.edge_connectivity(g)
        for k in range(1, g.n):
            assert conn.is_k_connected(g, k) == (kappa >= k)
        # Whitney: kappa <= lambda <= delta
        assert kappa <= lam <= (g.min_degree() if g.n else 0)


def brute_minimally_k_edge(g, k):
    if brute_edge_connectivity(g) < k:
        return False
    return all(
        brute_edge_connectivity(g.delete_edge(u, v)) < k for u, v in g.edges()
    )


def brute_minimally_k_vertex(g, k):
    if brute_vertex_connectivity(g) < k:
        return False
    return all(
        brute_vertex_connectivity(g.delete_edge(u, v)) < k for u, v in g.edges()
    )


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_minimality_matches_brute_force(n, k):
    for g in connected_class_reps(n):
        assert conn.is_minimally_k_edge_connected(g, k) == brute_minimally_k_edge(g, k)
        assert conn.is_minimally_k_connected(g, k) == brute_minimally_k_vertex(g, k)


def test_minimality_examples():
    assert conn.is_minimally_k_edge_connected(make_cycle(7), 2)
    assert conn.is_minimally_k_connected(make_cycle(7), 2)
    assert conn.is_minimally_k_connected(make_wheel(6), 3)
    assert conn.is_minimally_k_connected(make_complete(4), 3)
    # K_5 is 3-connected but no single edge deletion drops it below 3
    assert not conn.is_minimally_k_connected(make_complete(5), 3)
    # trees are minimally 1-(edge-)connected
    assert conn.is_minimally_k_edge_connected(make_path(5), 1)
    assert conn.is_minimally_k_connected(make_path(5), 1)
    with pytest.raises(ValueError):
        conn.is_minimally_k_connected(make_cycle(4), 0)


def test_classify_summary():
    info = conn.classify(make_wheel(7), 3)
    assert info.n == 7 and info.m == 12
    assert info.vertex_connectivity == 3
    assert info.edge_connectivity == 3
    assert info.is_k_connected and info.is_k_edge_connected
    assert info.is_minimally_k_connected
    # every edge deletion leaves a degree-2 endpoint, so the edge version holds too
    assert info.is_minimally_k_edge_connected
    assert brute_minimally_k_edge(make_wheel(7), 3)


# -- property tests of the flow core and the local deletion test -----------


@st.composite
def graphs_2_to_9(draw, densities=(0.15, 0.3, 0.5, 0.7, 0.9)):
    n = draw(st.integers(2, 9))
    p = draw(st.sampled_from(densities))
    rng = draw(st.randoms(use_true_random=False))
    return Graph.from_edge_list(n, [e for e in pair_list(n) if rng.random() < p])


@st.composite
def flow_queries(draw):
    """A graph, two distinct vertices of it and a path-count cap."""
    g = draw(graphs_2_to_9())
    s, t = draw(st.lists(st.integers(0, g.n - 1), min_size=2, max_size=2, unique=True))
    return g, s, t, draw(st.integers(1, 4))


def to_nx(g):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(flow_queries())
def test_edge_disjoint_paths_match_networkx(query):
    g, s, t, limit = query
    want = nx.algorithms.connectivity.local_edge_connectivity(to_nx(g), s, t)
    assert _flow.edge_disjoint_paths(g.adjacency_rows(), s, t, limit) == min(limit, want)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(flow_queries())
def test_vertex_disjoint_paths_match_networkx(query):
    g, s, t, limit = query
    local = nx.algorithms.connectivity.local_node_connectivity
    if g.has_edge(s, t):  # the edge st is one path, the rest avoid it
        want = 1 + local(to_nx(g.delete_edge(s, t)), s, t)
    else:
        want = local(to_nx(g), s, t)
    got = _flow.vertex_disjoint_paths(_flow.vertex_split(g.adjacency_rows()), s, t, limit)
    assert got == min(limit, want)


def test_vertex_flow_cancels_a_unit_to_reroute():
    # random graphs this small rarely need an augmenting path that pushes
    # back along a used arc; here one does, and a core that adds the unit
    # instead of cancelling it counts 3 paths
    g = Graph.from_edge_list(11, [
        (0, 5), (0, 6), (0, 8), (0, 9), (0, 10), (1, 6), (1, 9), (2, 4), (2, 5),
        (2, 8), (3, 6), (3, 7), (4, 10), (5, 7), (5, 9), (6, 9), (7, 9),
    ])
    assert nx.algorithms.connectivity.local_node_connectivity(to_nx(g), 2, 6) == 2
    assert _flow.vertex_disjoint_paths(_flow.vertex_split(g.adjacency_rows()), 2, 6) == 2


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(flow_queries())
def test_path_counts_on_an_edge_match_networkx(query):
    # the per-edge counts on g are one more than the local connectivities of g - uv
    g, u, v, _ = query
    g = g if g.has_edge(u, v) else g.add_edge(u, v)
    rest = to_nx(g.delete_edge(u, v))
    local = nx.algorithms.connectivity
    adj = g.adjacency_rows()
    assert _flow.edge_disjoint_paths(adj, u, v) == 1 + local.local_edge_connectivity(rest, u, v)
    assert _flow.vertex_disjoint_paths(_flow.vertex_split(adj), u, v) == (
        1 + local.local_node_connectivity(rest, u, v)
    )


def is_k_edge_connected(g, k):
    return conn.edge_connectivity(g) >= k


def definition_minimal(is_k, g, k):
    return is_k(g, k) and all(not is_k(g.delete_edge(u, v), k) for u, v in g.edges())


@st.composite
def minimality_cases(draw):
    """A graph and k in 1..3; half the time pruned to a minimal member first."""
    g = draw(graphs_2_to_9(densities=(0.3, 0.5, 0.7, 0.9)))
    k = draw(st.integers(1, 3))
    is_k = draw(st.sampled_from((is_k_edge_connected, conn.is_k_connected)))
    if draw(st.booleans()) and is_k(g, k):
        edges = draw(st.permutations(g.edges()))
        for u, v in edges:  # greedy deletion ends in a minimal graph
            if is_k(g.delete_edge(u, v), k):
                g = g.delete_edge(u, v)
    return g, k


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(minimality_cases())
@example((make_wheel(7), 3))
@example((make_complete_bipartite(2, 6), 2))
@example((make_complete(5), 3))
# disconnected, yet every edge carries exactly k paths
@example((disjoint_union(make_complete(3), make_complete(3)), 2))
@example((disjoint_union(make_complete(4), make_complete(4)), 3))
def test_minimality_predicates_match_definition(case):
    g, k = case
    assert conn.is_minimally_k_edge_connected(g, k) == definition_minimal(
        is_k_edge_connected, g, k
    )
    assert conn.is_minimally_k_connected(g, k) == definition_minimal(
        conn.is_k_connected, g, k
    )


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(graphs_2_to_9(densities=(0.15, 0.25, 0.35, 0.5)))
@example(make_complete_bipartite(2, 5))
@example(make_wheel(5))
def test_has_chorded_cycle_matches_cycle_search(g):
    want = any(chords_of_cycle(g, c) for c in all_cycles(g))
    assert conn.has_chorded_cycle(g) == want
