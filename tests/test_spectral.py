import itertools
import math
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from alphax import spectral
from alphax.cli import main
from alphax.graph import Graph, pair_list
from alphax.graph6 import parse_graph6_lines, write_graph6
from alphax.spectral import (
    RESIDUAL_TOL,
    TIE_TOL,
    ConvergenceError,
    alpha_indices,
    bound_lower_delta,
    bound_upper_degree,
    bound_upper_edge,
    column_sum_certificate,
    spectral_radius,
    validate_alpha,
)
from alphax.families import (
    make_complete,
    make_complete_bipartite,
    make_cycle,
    make_friendship,
    make_path,
    make_wheel,
    rho_join_regular,
)

from helpers import (
    ALPHA_GRID,
    build_alpha_matrix,
    connected_class_reps,
    disjoint_union,
    eig_rho,
    neighbor_degree_sums,
    random_graph,
)

DATA_DIR = Path(__file__).resolve().parent.parent / "data"
DATA_FILE = DATA_DIR / "min2ec_n8.g6"


def test_build_alpha_matrix_entries():
    g = make_path(3)
    m = build_alpha_matrix(g, 0.25)
    assert m[0, 0] == 0.25 * 1 and m[1, 1] == 0.25 * 2
    assert m[0, 1] == 0.75 and m[0, 2] == 0.0
    assert np.allclose(m, m.T)


def test_alpha_validation():
    for bad in (-0.1, 1.5, float("nan")):
        with pytest.raises(ValueError):
            validate_alpha(bad)
    assert validate_alpha(0) == 0.0
    assert validate_alpha(1) == 1.0


@pytest.mark.parametrize("alpha", ALPHA_GRID)
def test_radius_matches_eigensolve_exhaustive(alpha):
    for n in (2, 3, 4, 5):
        for g in connected_class_reps(n):
            res = spectral_radius(g, alpha)
            assert abs(res.radius - eig_rho(g, alpha)) < 1e-8
            assert res.residual <= 1e-10


def test_radius_matches_eigensolve_random():
    rng = random.Random(314)
    for _ in range(150):
        g = random_graph(rng, rng.randint(2, 10), rng.uniform(0.1, 0.9))
        a = rng.choice(ALPHA_GRID)
        assert abs(spectral_radius(g, a).radius - eig_rho(g, a)) < 1e-8


def test_disconnected_takes_component_maximum():
    g = disjoint_union(make_cycle(3), make_complete(5))
    res = spectral_radius(g, 0.5)
    assert abs(res.radius - 4.0) < 1e-10  # K_5 wins: regular of degree 4
    # Perron weight sits on the winning component, zero elsewhere
    assert all(t == 0.0 for t in res.perron[:3])
    assert all(t > 0.0 for t in res.perron[3:])


def test_perron_positive_and_normalized():
    rng = random.Random(99)
    for _ in range(30):
        g = random_graph(rng, rng.randint(2, 8), 0.6)
        if not g.is_connected():
            continue
        res = spectral_radius(g, 0.75)
        assert min(res.perron) > 0
        assert abs(math.hypot(*res.perron) - 1.0) < 1e-9


def test_edgeless_graph_radius_zero():
    g = Graph.from_edge_list(3, [])
    assert spectral_radius(g, 0.5).radius == 0.0


def test_adding_edge_never_decreases_radius():
    rng = random.Random(5)
    for _ in range(25):
        g = random_graph(rng, 7, 0.4)
        missing = [
            (u, v)
            for u in range(7)
            for v in range(u + 1, 7)
            if not g.has_edge(u, v)
        ]
        if not missing:
            continue
        u, v = rng.choice(missing)
        a = rng.choice(ALPHA_GRID)
        assert spectral_radius(g.add_edge(u, v), a).radius >= spectral_radius(g, a).radius - 1e-10


def test_unreachable_tol_raises(monkeypatch, capsys):
    # P_4's Perron vector is irrational, so no float pair has residual 0
    monkeypatch.setattr(spectral, "RESIDUAL_TOL", 0.0)
    with pytest.raises(ConvergenceError) as err:
        spectral_radius(make_path(4), 0.0)
    assert err.value.residual > 0 and err.value.tol == 0.0
    with pytest.raises(ConvergenceError):
        alpha_indices([make_cycle(5), make_path(4)], [0.5, 0.0])
    assert main(["rho", "P4", "--alphas", "0"]) == 1
    assert capsys.readouterr().err.startswith("alphax: eigenpair residual ")


# -- batched solve and enclosures ------------------------------------------

PROPERTY_ALPHAS = (0.0, 0.25, 0.5, 0.9, 1.0)


@st.composite
def small_graphs(draw):
    """Graphs on 1..12 vertices, sparse enough to be often disconnected."""
    n = draw(st.integers(1, 12))
    p = draw(st.sampled_from((0.0, 0.1, 0.2, 0.35, 0.5, 0.8)))
    rng = draw(st.randoms(use_true_random=False))
    return Graph.from_edge_list(n, [e for e in pair_list(n) if rng.random() < p])


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(small_graphs(), st.sampled_from(PROPERTY_ALPHAS))
@example(Graph.from_edge_list(1, []), 0.5)
@example(Graph.from_edge_list(6, []), 0.0)
@example(disjoint_union(make_cycle(3), make_path(4)), 1.0)
@example(disjoint_union(make_path(5), make_complete(4)), 0.9)
def test_enclosure_contains_eigvalsh(g, alpha):
    ref = eig_rho(g, alpha)
    res = spectral_radius(g, alpha)
    assert res.lower <= ref <= res.upper
    assert res.lower <= res.radius <= res.upper
    assert abs(res.radius - ref) <= 1e-12
    assert min(res.perron) >= 0
    assert abs(math.hypot(*res.perron) - 1.0) < 1e-12


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.lists(small_graphs(), min_size=1, max_size=6))
# C_6 is pruned, and eigvalsh puts its alpha-index 1 ulp above 2, the exact bound
@example([make_complete(8), make_complete(7), make_cycle(6)])
def test_batched_solve_matches_single_graph_view(graphs):
    out = alpha_indices(graphs, PROPERTY_ALPHAS)
    for field in out:
        assert [len(row) for row in field] == [len(graphs)] * len(PROPERTY_ALPHAS)
    for i, a in enumerate(PROPERTY_ALPHAS):
        solved = [math.isfinite(v) for v in out.value[i]]
        assert sum(solved) >= min(2, len(graphs))
        runner_up = sorted(out.value[i])[-min(2, len(graphs))]
        for j, g in enumerate(graphs):
            assert out.upper[i][j] >= eig_rho(g, a)
            if solved[j]:
                res = spectral_radius(g, a)
                got = (out.value[i][j], out.lower[i][j], out.upper[i][j])
                assert all(abs(x - y) <= 1e-12
                           for x, y in zip(got, (res.radius, res.lower, res.upper)))
                # a one-alpha call starts cold, as spectral_radius does
                one = alpha_indices([g], [a]).residual[0][0]
                parts = [spectral._perron(c, a)[3] for c in spectral._components(g)]
                assert one == max(parts) >= res.residual
            else:
                assert out.upper[i][j] < runner_up - TIE_TOL
                assert out.value[i][j] == out.lower[i][j] == -math.inf


def test_only_contenders_are_solved(monkeypatch):
    members = parse_graph6_lines(DATA_FILE.read_text())
    solves = []
    perron = spectral._perron

    def counting_perron(comp, a, start):
        solves.append(comp)
        return perron(comp, a, start)

    monkeypatch.setattr(spectral, "_perron", counting_perron)
    out = alpha_indices(members, [0.5 + i / 256 for i in range(128)])
    # 384 of 128 * 23 = 2,944 (alpha, member) pairs: every member is connected
    assert len(solves) == sum(map(math.isfinite, itertools.chain(*out.value))) == 384
    assert all(comp.mask == (1 << 8) - 1 for comp in solves)  # one solve per member


@pytest.mark.parametrize("n", [8, 9])
def test_shipped_class_at_201_alphas(n):
    # the pivot floor and the stopping rule at work: the shift of many of
    # these solves lands on rho to the last bit
    alphas = [i / 200 for i in range(201)]
    for g in parse_graph6_lines((DATA_DIR / f"min2ec_n{n}.g6").read_text()):
        out = alpha_indices([g], alphas)  # a one-graph call solves every alpha
        for a, (value,), (residual,), (lower,), (upper,) in zip(alphas, *out):
            ref = eig_rho(g, a)
            assert abs(value - ref) <= 1e-12 * ref
            assert lower <= ref <= upper
            assert residual <= RESIDUAL_TOL


def test_each_solve_starts_where_the_last_one_ended(monkeypatch):
    ends = {}  # the quotient vector each component's last solve ended on
    perron = spectral._perron

    def checking_perron(comp, a, start):
        assert start is ends.get(id(comp))  # None: the first solve starts cold
        result = perron(comp, a, start)
        ends[id(comp)] = result[1]
        return result

    monkeypatch.setattr(spectral, "_perron", checking_perron)
    graphs = [disjoint_union(make_wheel(7), make_path(5)), make_friendship(3)]
    alpha_indices(graphs, [0.5, 0.9, 1.0, 0.7, 0.0])
    assert len(ends) == 3 and all(ends.values())


def test_alpha_order_does_not_change_the_values():
    # each solve starts from the vector the last one found, so the three
    # orders start every alpha from different vectors
    ascending = [i / 200 for i in range(201)]
    descending = ascending[::-1]
    shuffled = random.Random(27).sample(ascending, len(ascending))
    for g in parse_graph6_lines(DATA_FILE.read_text()):
        runs = []
        for alphas in (ascending, descending, shuffled):
            out = alpha_indices([g], alphas)
            for a, (lower,), (upper,) in zip(alphas, out.lower, out.upper):
                assert lower <= eig_rho(g, a) <= upper
            runs.append(dict(zip(alphas, (v for v, in out.value))))
        for a in ascending:
            values = [run[a] for run in runs]
            assert max(values) - min(values) <= 1e-14 * values[0]


@pytest.mark.parametrize("n", [11, 12])
def test_perron_vectors_spanning_nine_orders_near_alpha_one(n):
    # near alpha = 1 a Perron vector can fall from 1 at the hub to 1e-9; the
    # solve must eliminate the hub last, in any vertex labelling
    for g in parse_graph6_lines((DATA_DIR / f"min2ec_n{n}.g6").read_text()):
        hub_first = sorted(range(n), key=lambda v: -g.degree(v))
        label = {v: i for i, v in enumerate(hub_first)}
        h = Graph.from_edge_list(n, [(label[u], label[v]) for u, v in g.edges()])
        for a in (0.99, 0.999):
            ref = eig_rho(g, a)
            res = spectral_radius(h, a)
            assert abs(res.radius - ref) <= 1e-12 * ref
            assert res.lower <= ref <= res.upper


def test_shifted_solve_at_an_exact_shift():
    # K_2 at alpha = 0: sigma = rho = 1 makes sigma*I - A singular, and the
    # floored pivot turns the solve into an inverse-iteration step
    y = spectral._shifted_solve([[0.0, 1.0], [1.0, 0.0]], 1.0, [0.6, 0.8])
    assert all(math.isfinite(t) and t > 0 for t in y)
    assert y[0] / y[1] == pytest.approx(1.0, rel=1e-15, abs=0)


def _bipartite(rng, left: int, right: int, p: float) -> Graph:
    n = left + right
    return Graph.from_edge_list(n, [(u, v) for u in range(left) for v in range(left, n)
                                    if rng.random() < p])


@st.composite
def large_graphs(draw):
    """Graphs on 1..64 vertices, random or random bipartite, sparse enough
    to be often disconnected."""
    n = draw(st.integers(1, 64))
    p = draw(st.sampled_from((0.02, 0.05, 0.1, 0.3)))
    rng = draw(st.randoms(use_true_random=False))
    if draw(st.booleans()):
        left = rng.randrange(n + 1)
        return _bipartite(rng, left, n - left, p)
    return Graph.from_edge_list(n, [e for e in pair_list(n) if rng.random() < p])


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(large_graphs(), st.sampled_from(PROPERTY_ALPHAS))
@example(make_complete_bipartite(1, 63), 0.0)
@example(make_complete_bipartite(1, 63), 0.5)
@example(make_path(64), 0.0)
@example(make_path(64), 0.9)
@example(make_cycle(64), 0.0)
@example(make_complete_bipartite(32, 32), 0.0)
@example(_bipartite(random.Random(3), 20, 44, 0.1), 0.0)
@example(disjoint_union(make_complete(20), make_path(44)), 0.0)
@example(disjoint_union(make_complete_bipartite(1, 31), make_cycle(32)), 0.25)
@example(disjoint_union(make_path(32), make_path(32)), 0.5)
def test_solver_up_to_64_vertices(g, alpha):
    ref = eig_rho(g, alpha)
    res = spectral_radius(g, alpha)
    assert abs(res.radius - ref) <= 1e-12 * ref
    assert res.lower <= ref <= res.upper
    assert res.residual <= RESIDUAL_TOL


def test_alpha_one_is_max_degree_with_exact_enclosure():
    g = make_complete_bipartite(2, 5)
    res = spectral_radius(g, 1.0)
    assert res.radius == res.lower == res.upper == 5.0
    assert res.residual == 0.0
    # the degree-5 side carries the vector; the degree-2 side is zero
    assert all(t > 0 for t in res.perron[:2]) and all(t == 0 for t in res.perron[2:])


def test_enclosures_are_tight_on_the_shipped_class():
    # a one-graph call solves its graph at every alpha
    for g in parse_graph6_lines(DATA_FILE.read_text()):
        out = alpha_indices([g], [0.5, 0.75, 0.99])
        for (value,), (lower,), (upper,) in zip(out.value, out.lower, out.upper):
            assert 0 <= upper - lower < 1e-6 * value
            assert lower <= value <= upper


def test_known_radii():
    assert abs(spectral_radius(make_wheel(7), 0.5).radius - 4.0) < 1e-10
    assert abs(spectral_radius(make_complete_bipartite(2, 6), 0.5).radius - 4.0) < 1e-10
    assert abs(spectral_radius(make_complete_bipartite(2, 6), 0.0).radius - 2 * math.sqrt(3)) < 1e-9
    assert abs(spectral_radius(make_friendship(3), 0.5).radius - 3.6861407) < 1e-7
    # r-regular graphs have radius exactly r for every alpha
    for a in ALPHA_GRID:
        assert abs(spectral_radius(make_cycle(9), a).radius - 2.0) < 1e-10


# -- equitable quotients ---------------------------------------------------


def _cell_counts(comp, v):
    """Neighbours of v per cell."""
    counts = [0] * len(comp.size)
    for w in comp.nbrs[v]:
        counts[comp.cell[w]] += 1
    return counts


def _blocks(cell):
    return {frozenset(v for v, c in enumerate(cell) if c == i) for i in set(cell)}


def _stable_colouring(nbrs):
    """Colour refinement from the unit partition, with tuple keys."""
    colors = [0] * len(nbrs)
    while True:
        keys = [(c, tuple(sorted(colors[w] for w in nv))) for c, nv in zip(colors, nbrs)]
        ranking = {key: i for i, key in enumerate(sorted(set(keys)))}
        if len(ranking) == len(set(colors)):
            return colors
        colors = [ranking[key] for key in keys]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(small_graphs())
def test_components_carry_their_coarsest_equitable_partition(g):
    for comp in spectral._components(g):
        k = len(comp.size)
        assert sorted(set(comp.cell)) == list(range(k))
        assert comp.size == [comp.cell.count(i) for i in range(k)]
        rows = [_cell_counts(comp, comp.cell.index(i)) for i in range(k)]
        for v, c in enumerate(comp.cell):
            assert _cell_counts(comp, v) == rows[c]  # equitable
        assert comp.cdeg == [sum(row) for row in rows]
        assert comp.root == [[math.sqrt(rows[i][j] * rows[j][i]) for j in range(k)]
                             for i in range(k)]
        assert _blocks(comp.cell) == _blocks(_stable_colouring(comp.nbrs))  # coarsest


TWO_CELL_FAMILIES = [
    (make_complete_bipartite(2, 5), (0, 2, 0, 5)),
    (make_complete_bipartite(2, 10), (0, 2, 0, 10)),
    (make_complete_bipartite(3, 4), (0, 3, 0, 4)),
    (make_complete_bipartite(3, 9), (0, 3, 0, 9)),
    (make_friendship(3), (0, 1, 1, 6)),
    (make_friendship(5), (0, 1, 1, 10)),
    (make_wheel(7), (0, 1, 2, 6)),
    (make_wheel(12), (0, 1, 2, 11)),
]


@pytest.mark.parametrize("g, parts", TWO_CELL_FAMILIES,
                         ids=["K2,5", "K2,10", "K3,4", "K3,9", "F3", "F5", "W7", "W12"])
def test_named_maximizers_have_a_two_cell_quotient(g, parts):
    (comp,) = spectral._components(g)
    assert len(comp.size) == 2
    rng = random.Random(g.n)
    for a in [0.0, 0.5, *(rng.random() for _ in range(5))]:
        quotient = a * np.diag(comp.cdeg) + (1 - a) * np.array(comp.root)
        top = float(np.linalg.eigvalsh(quotient)[-1])
        assert abs(top - rho_join_regular(*parts, a)) <= 1e-12 * top
        assert abs(top - eig_rho(g, a)) <= 1e-12 * top


@pytest.mark.parametrize("g, cell", [
    (make_path(4), [0, 0, 0, 0]),
    (make_path(5), [1, 0, 0, 0, 1]),  # the degree partition: not equitable
    (make_complete_bipartite(2, 5), [0, 0, 1, 1, 1, 1, 0]),
], ids=["P4-one-cell", "P5-degrees", "K2,5-mixed"])
@pytest.mark.parametrize("alpha", [0.0, 0.5, 0.9])
def test_a_partition_that_is_not_equitable_is_caught(g, cell, alpha):
    # the quotient converges, but its lift is no eigenvector of A_alpha:
    # the residual is taken on the whole graph
    (comp,) = spectral._components(g)
    bad = spectral._component(comp.mask, comp.nbrs, cell)
    with pytest.raises(ConvergenceError):
        spectral._perron(bad, alpha)


# -- bounds ----------------------------------------------------------------


def test_degree_bound_values():
    assert abs(bound_upper_degree(make_cycle(7), 0.6) - 2.0) < 1e-12
    assert abs(bound_upper_degree(make_complete_bipartite(1, 3), 0.5) - 2.0) < 1e-12
    assert abs(bound_upper_degree(make_wheel(7), 0.5) - 4.5) < 1e-12


def test_edge_bound_values():
    assert abs(bound_upper_edge(make_cycle(5), 0.5) - 2.0) < 1e-12
    assert abs(bound_upper_edge(make_complete_bipartite(2, 6), 0.5) - 4.0) < 1e-12
    # P_3 = K_{1,2} is bipartite semi-regular, so the bound is exact:
    # both edges give sqrt(m(u) m(v)) = sqrt(2 * 1) = rho(P_3)
    assert abs(bound_upper_edge(make_path(3), 0.0) - math.sqrt(2)) < 1e-12
    assert abs(spectral_radius(make_path(3), 0.0).radius - math.sqrt(2)) < 1e-10


def test_lower_bound_values():
    assert abs(bound_lower_delta(make_wheel(7), 0.5) - 3.5) < 1e-12
    assert abs(bound_lower_delta(make_wheel(7), 0.75) - (4.5 + 0.0625 / 0.75)) < 1e-12
    # graphs with a dominating vertex at alpha = 1/2: exactly n/2
    for n in (5, 8):
        assert abs(bound_lower_delta(make_wheel(n), 0.5) - n / 2) < 1e-12


def test_upper_bounds_reject_isolated_vertices():
    g = Graph.from_edge_list(3, [(0, 1)])
    with pytest.raises(ValueError):
        bound_upper_degree(g, 0.5)
    with pytest.raises(ValueError):
        bound_upper_edge(g, 0.5)
    bound_lower_delta(g, 0.5)  # no degree requirement here


def test_sandwich_on_samples():
    rng = random.Random(21)
    count = 0
    while count < 40:
        g = random_graph(rng, rng.randint(2, 8), 0.5)
        if g.min_degree() < 1:
            continue
        count += 1
        for a in ALPHA_GRID:
            rho = spectral_radius(g, a).radius
            upper = min(bound_upper_degree(g, a), bound_upper_edge(g, a))
            assert bound_lower_delta(g, a) <= rho + 1e-8
            assert rho <= upper + 1e-8


@pytest.mark.parametrize("n", [1, 4], ids=["K1", "4K1"])
@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.9, 1.0])
def test_sandwich_on_edgeless_graphs(n, alpha):
    # A_alpha is the zero matrix: the lower bound must not exceed rho = 0
    g = Graph.from_edge_list(n, [])
    assert spectral_radius(g, alpha).radius == 0.0
    assert bound_lower_delta(g, alpha) == 0.0


def test_degree_bound_tight_only_on_regular():
    for n in (3, 4, 5):
        for g in connected_class_reps(n):
            for a in (0.6, 0.75):
                gap = bound_upper_degree(g, a) - spectral_radius(g, a).radius
                if min(g.degrees()) == max(g.degrees()):
                    assert abs(gap) < 1e-9
                else:
                    assert gap > 1e-8


# -- column-sum certificate ------------------------------------------------


def test_certificate_regular_closed_form():
    # any r-regular graph at alpha = 1/2: every column sums to r^2 - n*r/2
    c8 = make_cycle(8)
    assert column_sum_certificate(c8, [0.5])[0] == pytest.approx([-4.0] * 8, abs=1e-12)
    k5 = make_complete(5)
    assert column_sum_certificate(k5, [0.5])[0] == pytest.approx([16 - 10.0] * 5, abs=1e-12)


def test_certificate_bipartite_boundary_case():
    # K_{2,6} at alpha = 1/2 sits exactly on the boundary: every column sum 0
    sums = column_sum_certificate(make_complete_bipartite(2, 6), [0.5])[0]
    assert sums == pytest.approx([0.0] * 8, abs=1e-12)


def test_certificate_two_routes_agree():
    rng = random.Random(42)
    for _ in range(40):
        g = random_graph(rng, rng.randint(2, 10), rng.uniform(0.2, 0.9))
        a = rng.choice(ALPHA_GRID)
        sums = column_sum_certificate(g, [a])[0]
        n = g.n
        mat = build_alpha_matrix(g, a)
        b = mat @ mat - a * n * mat + 2 * (2 * a - 1) * (n - 2) * np.eye(n)
        assert np.max(np.abs(np.asarray(sums) - b.sum(axis=0))) <= 1e-9


def test_certificate_grid_matches_scalar_loop_exactly():
    # the grid keeps the scalar formula's operation order, so the floats
    # agree bit for bit, on the whole grid and on one-alpha grids
    rng = random.Random(7)
    grid = [0.0, 0.25, 0.5, 0.6, 0.75, 0.9, 1.0]
    for _ in range(10):
        g = random_graph(rng, rng.randint(2, 10), 0.5)
        n = g.n
        rows = column_sum_certificate(g, grid)
        sums = neighbor_degree_sums(g)
        for a, row in zip(grid, rows):
            assert column_sum_certificate(g, [a]) == [row]
            const = 2.0 * (2.0 * a - 1.0) * (n - 2)
            assert row == [
                a * g.degree(u) ** 2
                + (1.0 - a) * sums[u]
                - a * n * g.degree(u)
                + const
                for u in range(g.n)
            ]


def _float_certificate(g, alphas):
    """The certificate in floats: the closed form at every alpha, checked
    against the matrix route at that alpha to 1e-9."""
    n = g.n
    deg = g.degrees()
    sums = neighbor_degree_sums(g)
    nbrs = [[w for w in range(n) if g.has_edge(u, w)] for u in range(n)]
    out = []
    for a in alphas:
        b = 1.0 - a
        const = 2.0 * (2.0 * a - 1.0) * (n - 2)
        by_formula = [a * d**2 + b * s - a * n * d + const for d, s in zip(deg, sums)]
        diag = [a * d for d in deg]
        col = [x + b * d for x, d in zip(diag, deg)]
        for c, x, nb, f in zip(col, diag, nbrs, by_formula):
            by_matrix = c * x + b * sum([col[w] for w in nb]) - a * n * c + const
            assert abs(by_matrix - f) <= 1e-9
        out.append(by_formula)
    return out


def _bits_of(rows):
    return [[x.hex() for x in row] for row in rows]  # tells -0.0 from 0.0


def _certificate_cases():
    rng = random.Random(28)
    members = [g for n in (8, 9)
               for g in parse_graph6_lines((DATA_DIR / f"min2ec_n{n}.g6").read_text())]
    # K1, K2 and a path with an isolated vertex
    small = [make_path(1), make_path(2), Graph.from_edge_list(5, [(0, 1), (1, 2), (2, 3)])]
    return members + small + [random_graph(rng, rng.randint(2, 12), rng.random())
                              for _ in range(40)]


def test_certificate_floats_are_those_of_the_float_loop(capsys):
    # bit for bit, in the returned lists and in `certify-colsums GRAPH`'s lines
    grid = [0.0, -0.0, 0.5, 1.0] + [0.5 + i / 256 for i in range(128)]
    for g in _certificate_cases():
        want = _float_certificate(g, grid)
        assert _bits_of(column_sum_certificate(g, grid)) == _bits_of(want)
        code = main(["certify-colsums", write_graph6(g), "--alphas=" + ",".join(map(repr, grid))])
        lines = [f"alpha={a!r} colsums: " + " ".join(f"{s:.9g}" for s in row)
                 for a, row in zip(grid, want)]
        assert capsys.readouterr().out == "".join(line + "\n" for line in lines)
        assert code == (0 if all(max(row) < 0 for row in want) else 1)


@pytest.mark.parametrize("g", [make_cycle(5), make_complete_bipartite(2, 6), make_wheel(7)],
                         ids=["C5", "K2,6", "W7"])
def test_the_exact_check_catches_a_closed_form_off_by_one(monkeypatch, g):
    # S(1) one too large in the closed form; the matrix route reads the graph itself
    true_sums = spectral._neighbour_sums
    monkeypatch.setattr(spectral, "_neighbour_sums",
                        lambda h: [s + (u == 1) for u, s in enumerate(true_sums(h))])
    with pytest.raises(AssertionError, match="at vertex 1 "):
        column_sum_certificate(g, [0.5])
