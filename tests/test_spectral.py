import collections
import itertools
import math
import random
from fractions import Fraction
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
    column_sums_negative,
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
ASCENDING_128 = [0.5 + 0.49 * (i + 0.5) / 128 for i in range(128)]  # sweep8's range


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

    built = []
    components = spectral._components

    def counting_components(g):
        built.append(g)
        return components(g)

    monkeypatch.setattr(spectral, "_perron", counting_perron)
    monkeypatch.setattr(spectral, "_components", counting_components)
    out = alpha_indices(members, [0.5 + i / 256 for i in range(128)])
    # 384 of 128 * 23 = 2,944 (alpha, member) pairs: every member is connected
    assert len(solves) == sum(map(math.isfinite, itertools.chain(*out.value))) == 384
    assert all(comp.mask == (1 << 8) - 1 for comp in solves)  # one solve per member
    # quotients only for the 3 members ever solved, each once
    assert len(built) == sum(any(map(math.isfinite, col)) for col in zip(*out.value)) == 3


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


def _lagrange(points, a):
    """Neville's scheme: the polynomial through the (alpha, vector) points, at a."""
    table = [list(v) for _, v in points]
    ts = [t for t, _ in points]
    for width in range(1, len(points)):
        table = [[((a - ts[i + width]) * p + (ts[i] - a) * q) / (ts[i] - ts[i + width])
                  for p, q in zip(table[i], table[i + 1])] for i in range(len(table) - 1)]
    return table[0]


def _check_starts(monkeypatch, graphs, alphas):
    """Run alpha_indices, checking every start against the rule: the polynomial
    through the component's last solves, up to PATH_POINTS of them, while alpha
    moves one way, else (or if an entry is not positive) the last vector; the
    degree vector (None) on a first solve.  Solves at alpha = 1, and on K_1,
    record nothing.  Returns the kind of each start at alpha < 1, per alpha."""
    history = {}  # id(component) -> the (alpha, vector) each recorded solve ended on
    kinds = []
    perron = spectral._perron

    def checking_perron(comp, a, start):
        done = history.setdefault(id(comp), [])
        result = perron(comp, a, start)
        if a == 1.0:
            assert result[1] is None
            return result
        if not done:
            kind, want = "cold", None
        else:
            run = done[-1:]
            for point in reversed(done[:-1]):
                if len(run) == spectral.PATH_POINTS or (run[0][0] - point[0]) * (a - run[-1][0]) <= 0:
                    break
                run.insert(0, point)
            kind, want = "last", done[-1][1]
            if len(run) > 1 and (a - run[-1][0]) * (run[-1][0] - run[-2][0]) > 0:
                kind, want = "extrapolated", _lagrange(run, a)
                if min(want) <= 0:
                    kind, want = "fallback", done[-1][1]
        if kind == "extrapolated":
            assert start == pytest.approx(want, rel=1e-9, abs=0)
        else:
            assert start is want, kind
        kinds.append((a, kind))
        if result[1] is not None:
            done.append((a, result[1]))
        return result

    with monkeypatch.context() as patched:
        patched.setattr(spectral, "_perron", checking_perron)
        alpha_indices(graphs, alphas)
    return kinds, history


def test_a_monotone_run_starts_from_the_extrapolated_path(monkeypatch):
    members = parse_graph6_lines(DATA_FILE.read_text())
    for alphas in (ASCENDING_128, ASCENDING_128[::-1]):
        kinds, _ = _check_starts(monkeypatch, members, alphas)
        # a member's second solve starts from its first; no prediction here is negative
        assert collections.Counter(kind for _, kind in kinds) == {
            "cold": 3, "last": 3, "extrapolated": 378}


def test_a_reversal_or_a_repeated_alpha_keeps_only_the_last_point(monkeypatch):
    alphas = [0.5, 0.6, 0.7, 0.65, 0.6, 0.6, 0.5, 0.8, 0.9, 0.9]
    kinds, _ = _check_starts(monkeypatch, [make_wheel(7)], alphas)
    assert [kind for _, kind in kinds] == [
        "cold", "last", "extrapolated",
        "last", "extrapolated",  # 0.7 -> 0.65 reverses, 0.6 continues down
        "last", "last", "last",  # 0.6 repeats, 0.5 has one point behind it, 0.8 reverses
        "extrapolated", "last"]


def test_alpha_one_leaves_the_path_unchanged(monkeypatch):
    # 0.8, 0.7 run downwards; 0.6 continues that run across alpha = 1
    alphas = [0.9, 0.8, 1.0, 0.7, 1.0, 1.0, 0.6]
    kinds, _ = _check_starts(monkeypatch, [make_friendship(3)], alphas)
    assert [kind for _, kind in kinds] == ["cold", "last", "extrapolated", "extrapolated"]


def test_a_prediction_that_is_not_positive_falls_back_to_the_last_vector(monkeypatch):
    # the leaves' entries of K_{1,5} fall fast near alpha = 1; the line through
    # alpha = 0.5 and 0.9 is negative there at 0.99
    kinds, _ = _check_starts(monkeypatch, [make_complete_bipartite(1, 5)], [0.5, 0.9, 0.99])
    assert kinds == [(0.5, "cold"), (0.9, "last"), (0.99, "fallback")]
    path = [(0.5, [1.0, 0.2]), (0.6, [1.0, 0.1])]
    assert spectral._extrapolate(path, 0.8) is path[-1][1]
    assert spectral._extrapolate(path, 0.55) == pytest.approx([1.0, 0.15])
    assert spectral._extrapolate(path[:1], 0.8) is path[0][1]
    assert spectral._extrapolate([], 0.8) is None


def test_each_component_follows_its_own_path(monkeypatch):
    # two graphs, so both are solved at every alpha; K_1 records no solve
    graphs = [disjoint_union(disjoint_union(make_wheel(7), make_path(5)), make_path(1)),
              make_friendship(3)]
    alphas = [0.5, 0.6, 0.7, 1.0, 0.8, 0.75, 0.0]
    _, history = _check_starts(monkeypatch, graphs, alphas)
    assert sorted(map(len, history.values())) == [0, 6, 6, 6]


def test_warm_solves_take_about_one_noda_step(monkeypatch):
    # the sweep8 shape: every n = 8 member, 128 ascending alphas in [0.5, 0.99]
    members = parse_graph6_lines(DATA_FILE.read_text())
    steps = {"warm": 0, "shifted": 0}
    perron, shifted = spectral._perron, spectral._shifted_solve
    warm = False

    def counting_perron(comp, a, start):
        nonlocal warm
        warm = start is not None
        steps["warm"] += warm
        return perron(comp, a, start)

    def counting_shifted(mat, sigma, rhs):
        steps["shifted"] += warm
        return shifted(mat, sigma, rhs)

    monkeypatch.setattr(spectral, "_perron", counting_perron)
    monkeypatch.setattr(spectral, "_shifted_solve", counting_shifted)
    alpha_indices(members, ASCENDING_128)
    assert steps["warm"] == 381  # 384 solves, of which one cold per solved member
    assert steps["shifted"] / steps["warm"] <= 1.2


def test_alpha_order_does_not_change_the_values():
    # each solve starts from the component's path along alpha, so the three
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


def _exact_column_sums(g, a):
    """The column sums of B at the float a read exactly, from A_alpha built
    edge by edge in Fractions."""
    a = Fraction(a)
    n = g.n
    mat = [[a * g.degree(u) if u == w else (1 - a) * g.has_edge(u, w) for w in range(n)]
           for u in range(n)]
    const = 2 * (2 * a - 1) * (n - 2)
    sums = [0] * n
    for i in range(n):
        for j in range(n):
            entry = sum(mat[i][k] * mat[k][j] for k in range(n)) - a * n * mat[i][j]
            sums[j] += entry + const * (i == j)
    return sums


def test_certificate_floats_are_the_exact_sums_rounded_once():
    # every returned float is the exact column sum at the float alpha, rounded
    # once, on the whole grid and on one-alpha grids
    rng = random.Random(7)
    grid = [0.0, -0.0, 0.25, 0.5, 0.6, 0.75, 0.9, 1.0, 1 - 2**-53]
    seeded = random.Random(31)
    grid += [seeded.random() for _ in range(20)]
    for _ in range(10):
        g = random_graph(rng, rng.randint(2, 10), 0.5)
        rows = column_sum_certificate(g, grid)
        for a, row in zip(grid, rows):
            assert column_sum_certificate(g, [a]) == [row]
            assert _bits_of([row]) == _bits_of([[float(s) for s in _exact_column_sums(g, a)]])


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


def _float_verdict(g, alphas):
    """The per-alpha float rule that the exact verdict replaced."""
    return not any(max(sums) >= 0 for sums in column_sum_certificate(g, alphas))


VERDICT_GRIDS = ([0.5 + i / 256 for i in range(128)], [0.0, -0.0, 0.5, 1.0])


def test_the_exact_verdict_is_the_float_rule_on_the_class_files():
    # the grids' floats are exact here (small integers times 1/256), so the
    # per-alpha floats read the true signs
    files = [DATA_DIR / f"min2ec_n{n}.g6" for n in range(8, 13)]
    files += sorted((Path(__file__).resolve().parent / "data").glob("*_n8.g6"))
    verdicts = collections.Counter()
    for path in files:
        for g in parse_graph6_lines(path.read_text()):
            for grid in VERDICT_GRIDS:
                verdict = column_sums_negative(g, grid)
                assert verdict == _float_verdict(g, grid), (path.name, write_graph6(g), grid)
                verdicts[verdict] += 1
    assert verdicts[True] and verdicts[False]


def test_the_exact_verdict_is_the_float_rule_on_random_graphs():
    rng = random.Random(30)
    graphs = [random_graph(rng, rng.randint(2, 12), rng.random()) for _ in range(200)]
    for g in graphs + [make_path(1), make_cycle(4), make_complete_bipartite(3, 3)]:
        for grid in VERDICT_GRIDS:
            assert column_sums_negative(g, grid) == _float_verdict(g, grid)
            for a in grid[::16]:  # one alpha alone, its own smallest and largest
                assert column_sums_negative(g, [a]) == _float_verdict(g, [a])
    # exactly zero column sums are not negative
    for g in (make_cycle(4), make_complete_bipartite(3, 3)):
        assert column_sum_certificate(g, [0.5]) == [[0.0] * g.n]
        assert not column_sums_negative(g, [0.5])
        assert main(["certify-colsums", write_graph6(g), "--alphas", "0.5"]) == 1


def test_the_exact_verdict_reads_the_ends_of_the_grid():
    # every column sum of C_8 is S - 2(n-2) + (d^2 - S - n*d + 4(n-2))*alpha = -8 + 8*alpha
    g = make_cycle(8)
    assert set(spectral._column_sum_lines(g)) == {(-8, 8)}
    assert column_sums_negative(g, [0.5, 0.0, 1 - 2**-53])
    assert not column_sums_negative(g, [0.5, 1.0, 0.25])  # zero at alpha = 1
    assert column_sums_negative(g, [])  # no alpha, nothing to refute
    with pytest.raises(ValueError):
        column_sums_negative(g, [0.5, 1.5])


@pytest.mark.parametrize("g", [make_cycle(5), make_complete_bipartite(2, 6), make_wheel(7)],
                         ids=["C5", "K2,6", "W7"])
def test_the_exact_check_catches_a_closed_form_off_by_one(monkeypatch, g):
    # S(1) one too large in the closed form; the matrix route reads the graph itself
    true_sums = spectral._neighbour_sums
    monkeypatch.setattr(spectral, "_neighbour_sums",
                        lambda h: [s + (u == 1) for u, s in enumerate(true_sums(h))])
    for check in (column_sum_certificate, column_sums_negative):  # GRAPH mode, class mode
        with pytest.raises(AssertionError, match="at vertex 1 "):
            check(g, [0.5])
