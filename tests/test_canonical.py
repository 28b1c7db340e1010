import itertools
import random
from functools import reduce
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from alphax.canonical import CanonicalForm, canonical_form, orbit_reps
from alphax.graph import Graph, bits, pair_list
from alphax.graph6 import parse_graph6, write_graph6
from alphax.families import (
    make_complete,
    make_complete_bipartite,
    make_cycle,
    make_friendship,
    make_path,
    make_wheel,
)

from helpers import (
    brute_isomorphic,
    disjoint_union,
    iter_all_graphs,
    perm_apply,
    random_graph,
    switch_edges,
)


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return Graph.from_edge_list(10, outer + inner + spokes)


def icosahedron() -> Graph:
    top, upper, lower, bottom = 0, range(1, 6), range(6, 11), 11
    edges = [(top, u) for u in upper] + [(bottom, w) for w in lower]
    for i in range(5):
        edges += [(1 + i, 1 + (i + 1) % 5), (6 + i, 6 + (i + 1) % 5)]
        edges += [(1 + i, 6 + i), (1 + i, 6 + (i + 1) % 5)]
    return Graph.from_edge_list(12, edges)


GOLDEN = Path(__file__).resolve().parent / "data" / "canonical_golden.txt"


def golden_inputs() -> list[Graph]:
    """Seeded labelled graphs on 1..12 vertices, then symmetric families.

    Each symmetric graph comes as built and under two random relabellings,
    since those are where automorphism pruning changes the search.
    """
    rng = random.Random(20141)
    graphs = [random_graph(rng, 1 + i % 12, rng.random()) for i in range(400)]
    c3, c6, k4 = make_cycle(3), make_cycle(6), make_complete(4)
    symmetric = [
        petersen(),
        icosahedron(),
        make_cycle(11),
        make_cycle(12),
        make_wheel(12),
        make_complete_bipartite(6, 6),
        make_complete_bipartite(2, 10),
        make_friendship(5),
        disjoint_union(disjoint_union(k4, k4), k4),
        disjoint_union(disjoint_union(c3, c3), disjoint_union(c3, c3)),
        disjoint_union(c6, c6),
        make_complete(12),
        Graph.from_edge_list(12, []),
    ]
    for g in symmetric:
        graphs.append(g)
        for _ in range(2):
            perm = list(range(g.n))
            rng.shuffle(perm)
            graphs.append(perm_apply(g, perm))
    return graphs


def golden_text() -> str:
    """One line per input: its graph6, a space, its canonical graph6."""
    return "".join(
        f"{write_graph6(g)} {canonical_form(g).graph6()}\n" for g in golden_inputs()
    )


def test_golden_canonical_forms():
    """Reports and data/*.g6 depend on the exact lex-min form, not just on
    invariance, so the forms must match the recorded ones byte for byte.

    The file was written by ``GOLDEN.write_text(golden_text(), "ascii")``.
    """
    assert golden_text() == GOLDEN.read_text("ascii")


def test_canonical_code_is_the_graph6_payload():
    atlas = [Graph.from_edge_list(h.number_of_nodes(), h.edges())
             for h in nx.graph_atlas_g()[1:]]
    for g in atlas + golden_inputs():
        form = canonical_form(g)
        assert form.bits == form.graph().edge_bits()
        npairs = len(pair_list(form.n))
        assert form.bits >> npairs == 0
        # a leading 1 keeps the code's leading zeros in its binary string
        padded = bin(1 << npairs | form.bits)[3:] + "0" * (-npairs % 6)
        chunks = [padded[i:i + 6] for i in range(0, len(padded), 6)]
        payload = "".join(chr(63 + int(c, 2)) for c in chunks)
        assert write_graph6(form.graph()) == chr(63 + form.n) + payload


def test_invariant_under_relabeling_random():
    rng = random.Random(12345)
    for _ in range(120):
        n = rng.randint(1, 9)
        g = random_graph(rng, n, rng.random())
        perm = list(range(n))
        rng.shuffle(perm)
        assert canonical_form(g) == canonical_form(perm_apply(g, perm))


def test_invariant_under_relabeling_symmetric_graphs():
    rng = random.Random(5)
    for g in (petersen(), make_complete_bipartite(3, 3), make_wheel(9), make_complete(6)):
        for _ in range(10):
            perm = list(range(g.n))
            rng.shuffle(perm)
            assert canonical_form(g) == canonical_form(perm_apply(g, perm))


def test_distinct_classes_get_distinct_forms():
    forms = {canonical_form(g) for g in (make_path(4), make_cycle(4), make_complete(4))}
    assert len(forms) == 3


def test_partition_matches_brute_force_n4():
    """Canonical equality must induce exactly the permutation-orbit partition."""
    graphs = list(iter_all_graphs(4))
    by_form = {}
    for g in graphs:
        by_form.setdefault(canonical_form(g), []).append(g)
    assert len(by_form) == 11  # classes of graphs on 4 vertices
    for bucket in by_form.values():
        rep = bucket[0]
        assert all(brute_isomorphic(rep, g) for g in bucket[1:])
    reps = [b[0] for b in by_form.values()]
    for a, b in itertools.combinations(reps, 2):
        assert not brute_isomorphic(a, b)


def test_are_isomorphic_spot_checks():
    rng = random.Random(6)
    g = random_graph(rng, 7, 0.5)
    perm = list(range(7))
    rng.shuffle(perm)
    assert canonical_form(g) == canonical_form(perm_apply(g, perm))
    assert canonical_form(make_path(4)) != canonical_form(make_cycle(4))
    assert canonical_form(make_path(4)) != canonical_form(make_path(5))
    # same degree sequence, different graphs: C_6 vs two triangles
    two_triangles = Graph.from_edge_list(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert canonical_form(make_cycle(6)) != canonical_form(two_triangles)


def test_canonical_graph_and_graph6_agree():
    rng = random.Random(8)
    for _ in range(50):
        g = random_graph(rng, rng.randint(1, 9), rng.random())
        cf = canonical_form(g)
        rep = cf.graph()
        assert canonical_form(rep) == cf
        assert write_graph6(rep) == cf.graph6()
        assert parse_graph6(cf.graph6()) == rep


def test_forms_are_orderable_and_hashable():
    forms = sorted(canonical_form(g) for g in (make_cycle(5), make_path(5), make_complete(5)))
    assert len(set(forms)) == 3
    assert forms == sorted(forms)
    assert isinstance(forms[0], CanonicalForm)


def test_twin_heavy_graphs():
    # stars and complete bipartite graphs stress the twin pruning paths
    rng = random.Random(77)
    for g in (make_complete_bipartite(1, 8), make_complete_bipartite(4, 4), make_complete_bipartite(2, 6)):
        perm = list(range(g.n))
        rng.shuffle(perm)
        assert canonical_form(g) == canonical_form(perm_apply(g, perm))


@st.composite
def graphs_up_to(draw, max_n, min_n=1):
    n = draw(st.integers(min_n, max_n))
    p = draw(st.sampled_from((0.2, 0.35, 0.5, 0.65, 0.8)))
    rng = draw(st.randoms(use_true_random=False))
    return Graph.from_edge_list(n, [e for e in pair_list(n) if rng.random() < p])



def to_nx(g: Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


@st.composite
def relabelled_pairs(draw):
    g = draw(graphs_up_to(12))
    return g, perm_apply(g, draw(st.permutations(range(g.n))))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(relabelled_pairs())
@example((petersen(), perm_apply(petersen(), [3, 7, 0, 9, 5, 1, 8, 2, 6, 4])))
@example((icosahedron(), perm_apply(icosahedron(), [11, 4, 9, 0, 6, 2, 10, 7, 1, 5, 3, 8])))
def test_form_invariant_under_relabelling(pair):
    g, h = pair
    assert canonical_form(g) == canonical_form(h)


@st.composite
def degree_equivalent_pairs(draw):
    """A graph and a relabelled copy after a few degree-preserving edge swaps."""
    g = draw(graphs_up_to(12, min_n=5))  # smaller graphs admit few swaps
    h = g
    for _ in range(draw(st.integers(1, 4))):
        # ab, cd -> ad, cb keeps every degree
        swaps = [
            (a, b, c, d)
            for (a, b), (x, y) in itertools.combinations(h.edges(), 2)
            for c, d in ((x, y), (y, x))
            if len({a, b, c, d}) == 4 and not h.has_edge(a, d) and not h.has_edge(c, b)
        ]
        if not swaps:
            break
        a, b, c, d = draw(st.sampled_from(swaps))
        h = h.delete_edge(a, b).delete_edge(c, d).add_edge(a, d).add_edge(c, b)
    return g, perm_apply(h, draw(st.permutations(range(g.n))))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(degree_equivalent_pairs())
@example((make_cycle(6), Graph.from_edge_list(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])))
@example((make_complete_bipartite(3, 3), Graph.from_edge_list(6, [
    (0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5),
])))
def test_forms_separate_exactly_the_non_isomorphic_pairs(pair):
    g, h = pair
    assert sorted(g.degrees()) == sorted(h.degrees())
    assert (canonical_form(g) == canonical_form(h)) == nx.is_isomorphic(to_nx(g), to_nx(h))


def group_order(n: int, generators) -> int:
    """Size of the permutation group the generators generate, by closure."""
    identity = tuple(range(n))
    seen, queue = {identity}, [identity]
    for p in queue:
        for gamma in generators:
            q = tuple(gamma[v] for v in p)
            if q not in seen:
                seen.add(q)
                queue.append(q)
    return len(seen)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(graphs_up_to(10))
@example(make_complete_bipartite(2, 8))
@example(make_complete_bipartite(5, 5))
@example(make_complete(10))
@example(make_wheel(10))
@example(make_friendship(4))
@example(petersen())
@example(Graph.from_edge_list(9, []))
def test_generators_are_automorphisms_of_the_canonical_graph(g):
    form = canonical_form(g)
    canon = form.graph()
    for gamma in form.automorphisms:
        assert sorted(gamma) == list(range(g.n))
        assert perm_apply(canon, gamma) == canon


def test_generators_generate_the_whole_group_on_the_atlas():
    for nxg in nx.graph_atlas_g()[1:]:
        n = nxg.number_of_nodes()
        form = canonical_form(Graph.from_edge_list(n, nxg.edges()))
        want = sum(1 for _ in nx.vf2pp_all_isomorphisms(nxg, nxg))
        assert group_order(n, form.automorphisms) == want, list(nxg.edges())


def test_orbit_reps_are_the_first_of_each_orbit_on_the_atlas():
    # the full group by brute force: the permutations that keep every edge
    for nxg in nx.graph_atlas_g()[2:209]:  # 2 to 6 vertices
        n = nxg.number_of_nodes()
        form = canonical_form(Graph.from_edge_list(n, nxg.edges()))
        canon = form.graph()
        edges = canon.edges()
        group = [p for p in itertools.permutations(range(n))
                 if all(canon.has_edge(p[u], p[v]) for u, v in edges)]
        for size in (1, 2):
            sets = [sum(1 << v for v in c) for c in itertools.combinations(range(n), size)]
            index = {s: i for i, s in enumerate(sets)}
            first = [s for s in sets
                     if all(index[sum(1 << p[v] for v in bits(s))] >= index[s] for p in group)]
            assert orbit_reps(sets, form.automorphisms) == first, (list(nxg.edges()), size)


def test_generators_take_no_part_in_identity():
    form = canonical_form(make_wheel(6))
    assert form.automorphisms
    bare = CanonicalForm(form.n, form.bits)
    assert bare == form and hash(bare) == hash(form) and not bare < form


# -- past 12 vertices: the search has no order limit but Graph's 64 ----------


def from_nx(h: nx.Graph) -> Graph:
    return Graph.from_edge_list(h.number_of_nodes(), nx.convert_node_labels_to_integers(h).edges())


def copies(g: Graph, count: int) -> Graph:
    return reduce(disjoint_union, [g] * count)


def paley(p: int) -> Graph:
    """Vertices Z_p, i ~ j when i - j is a nonzero square mod the prime p = 1 (mod 4)."""
    squares = {x * x % p for x in range(1, p)}
    return Graph.from_edge_list(
        p, [(i, j) for i, j in itertools.combinations(range(p), 2) if (j - i) % p in squares])


def johnson(n: int, k: int) -> Graph:
    """The k-subsets of n points, adjacent when they share k - 1 points."""
    sets = [set(c) for c in itertools.combinations(range(n), k)]
    return Graph.from_edge_list(len(sets), [
        (a, b) for a, b in itertools.combinations(range(len(sets)), 2)
        if len(sets[a] & sets[b]) == k - 1])


def generalized_petersen(n: int, k: int) -> Graph:
    """GP(n, k): outer cycle i ~ i+1, inner star polygon n+i ~ n+(i+k), spokes i ~ n+i."""
    return Graph.from_edge_list(2 * n, [
        e for i in range(n) for e in ((i, (i + 1) % n), (n + i, n + (i + k) % n), (i, n + i))])


def shrikhande() -> Graph:
    """Cayley graph of Z_4 x Z_4 on +-(1, 0), +-(0, 1), +-(1, 1): an SRG(16, 6, 2, 2)."""
    return Graph.from_edge_list(16, [
        (4 * a + b, 4 * ((a + x) % 4) + (b + y) % 4)
        for a in range(4) for b in range(4) for x, y in ((1, 0), (0, 1), (1, 1))])


def rook_4x4() -> Graph:
    """K_4 box K_4, the other SRG(16, 6, 2, 2)."""
    return from_nx(nx.cartesian_product(nx.complete_graph(4), nx.complete_graph(4)))


def relabelled(g: Graph, rng: random.Random) -> Graph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return perm_apply(g, perm)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.integers(13, 40), st.sampled_from((0.2, 0.35, 0.5, 0.65, 0.8)), st.integers(0, 2**32))
def test_form_invariant_under_relabelling_past_12_vertices(n, p, seed):
    # edges from a drawn seed: drawing each of up to 780 pairs through
    # hypothesis would take most of the test's time
    rng = random.Random(seed)
    g = random_graph(rng, n, p)
    form = canonical_form(g)
    assert canonical_form(relabelled(g, rng)) == form
    canon = form.graph()
    assert nx.is_isomorphic(to_nx(canon), to_nx(g))
    for gamma in form.automorphisms:
        assert perm_apply(canon, gamma) == canon


PAST_12 = {
    **{f"Paley({p})": paley(p) for p in (13, 17, 29, 37, 41, 53, 61)},
    "Q5": from_nx(nx.hypercube_graph(5)),
    "Q6": from_nx(nx.hypercube_graph(6)),
    "K31,31": make_complete_bipartite(31, 31),
    "31K2": copies(make_complete(2), 31),
    "12C5": copies(make_cycle(5), 12),
    "6 Petersen": copies(petersen(), 6),
    "J(8,3)": johnson(8, 3),
    "co-(K8 box K7)": from_nx(nx.complement(
        nx.cartesian_product(nx.complete_graph(8), nx.complete_graph(7)))),
}


@pytest.mark.parametrize("name", PAST_12)
def test_named_families_past_12_vertices_relabelled(name):
    g = PAST_12[name]
    assert canonical_form(relabelled(g, random.Random(name))) == canonical_form(g)


def test_shrikhande_and_rook_graph_get_different_forms():
    # both SRG(16, 6, 2, 2): colour refinement alone cannot split them
    assert canonical_form(shrikhande()) != canonical_form(rook_4x4())


def test_switched_graphs_past_12_vertices_separate_exactly_the_non_isomorphic():
    rng = random.Random(1312)
    # moving every other leaf of K_{1,12} from the centre to a leaf gives K_{1,12} back
    cases = [(make_complete_bipartite(1, 12), 1, 0, range(2, 13))]
    while len(cases) < 40:
        g = random_graph(rng, rng.randint(13, 20), rng.uniform(0.2, 0.8))
        u, v = rng.sample(range(g.n), 2)
        rows = g.adjacency_rows()
        avail = list(bits(rows[v] & ~rows[u] & ~(1 << u)))
        if avail:
            cases.append((g, u, v, rng.sample(avail, rng.randint(1, len(avail)))))
    same = 0
    for g, u, v, nset in cases:
        h = relabelled(switch_edges(g, u, v, nset), rng)
        iso = nx.is_isomorphic(to_nx(g), to_nx(h))
        assert (canonical_form(g) == canonical_form(h)) == iso
        same += iso
    assert 0 < same < len(cases)


@pytest.mark.parametrize("g, order", [
    (paley(13), 78),
    (paley(17), 136),
    (from_nx(nx.dodecahedral_graph()), 120),
    (from_nx(nx.desargues_graph()), 240),
    (from_nx(nx.moebius_kantor_graph()), 96),
    (shrikhande(), 192),
    (rook_4x4(), 1152),
    (from_nx(nx.circulant_graph(13, [1, 5])), 52),
    (generalized_petersen(15, 4), 60),
], ids=["Paley(13)", "Paley(17)", "dodecahedral", "Desargues", "Moebius-Kantor",
        "Shrikhande", "rook 4x4", "C13(1,5)", "GP(15,4)"])
def test_generators_generate_the_whole_group_past_12_vertices(g, order):
    h = to_nx(g)
    assert sum(1 for _ in nx.vf2pp_all_isomorphisms(h, h)) == order
    assert group_order(g.n, canonical_form(g).automorphisms) == order
