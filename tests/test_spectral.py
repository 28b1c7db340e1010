import math
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from alphax.cli import main
from alphax.graph import Graph, neighbor_degree_sum, pair_list
from alphax.graph6 import parse_graph6_lines
from alphax.spectral import (
    CERT_TOL,
    ConvergenceError,
    alpha_indices,
    bound_lower_delta,
    bound_upper_degree,
    bound_upper_edge,
    build_alpha_matrix,
    column_sum_certificate,
    spectral_radius,
    validate_alpha,
)
from alphax.families import (
    disjoint_union,
    make_complete,
    make_complete_bipartite,
    make_cycle,
    make_friendship,
    make_path,
    make_wheel,
)

from helpers import ALPHA_GRID, connected_class_reps, eig_rho, random_graph

DATA_FILE = Path(__file__).resolve().parent.parent / "data" / "min2ec_n8.g6"


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
    assert np.all(res.perron[:3] == 0.0)
    assert np.all(res.perron[3:] > 0.0)


def test_perron_positive_and_normalized():
    rng = random.Random(99)
    for _ in range(30):
        g = random_graph(rng, rng.randint(2, 8), 0.6)
        if not g.is_connected():
            continue
        res = spectral_radius(g, 0.75)
        assert res.perron.min() > 0
        assert abs(np.linalg.norm(res.perron) - 1.0) < 1e-9


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


def test_unreachable_tol_raises(capsys):
    # P_4's Perron vector is irrational, so no float pair has residual 0
    with pytest.raises(ConvergenceError) as err:
        spectral_radius(make_path(4), 0.0, tol=0.0)
    assert err.value.residual > 0 and err.value.tol == 0.0
    with pytest.raises(ConvergenceError):
        alpha_indices([make_cycle(5), make_path(4)], [0.5, 0.0], tol=0.0)
    assert main(["rho", "P4", "--alphas", "0", "--tol", "0"]) == 1
    assert "residual" in capsys.readouterr().err


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
    assert res.perron.min() >= 0
    assert abs(np.linalg.norm(res.perron) - 1.0) < 1e-12


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.lists(small_graphs(), min_size=1, max_size=6))
def test_batched_solve_matches_single_graph_view(graphs):
    out = alpha_indices(graphs, PROPERTY_ALPHAS)
    assert out.value.shape == (len(PROPERTY_ALPHAS), len(graphs))
    for i, a in enumerate(PROPERTY_ALPHAS):
        for j, g in enumerate(graphs):
            res = spectral_radius(g, a)
            got = (out.value[i, j], out.lower[i, j], out.upper[i, j])
            assert np.allclose(got, (res.radius, res.lower, res.upper), rtol=0, atol=1e-12)
            assert out.residual[i, j] >= res.residual


def test_alpha_one_is_max_degree_with_exact_enclosure():
    g = make_complete_bipartite(2, 5)
    res = spectral_radius(g, 1.0)
    assert res.radius == res.lower == res.upper == 5.0
    assert res.residual == 0.0
    # the degree-5 side carries the vector; the degree-2 side is zero
    assert np.all(res.perron[:2] > 0) and np.all(res.perron[2:] == 0)


def test_enclosures_are_tight_on_the_shipped_class():
    members = parse_graph6_lines(DATA_FILE.read_text())
    out = alpha_indices(members, [0.5, 0.75, 0.99])
    width = out.upper - out.lower
    assert np.all(width >= 0) and np.max(width / out.value) < 1e-6
    assert np.all(out.lower <= out.value) and np.all(out.value <= out.upper)


def test_known_radii():
    assert abs(spectral_radius(make_wheel(7), 0.5).radius - 4.0) < 1e-10
    assert abs(spectral_radius(make_complete_bipartite(2, 6), 0.5).radius - 4.0) < 1e-10
    assert abs(spectral_radius(make_complete_bipartite(2, 6), 0.0).radius - 2 * math.sqrt(3)) < 1e-9
    assert abs(spectral_radius(make_friendship(3), 0.5).radius - 3.6861407) < 1e-7
    # r-regular graphs have radius exactly r for every alpha
    for a in ALPHA_GRID:
        assert abs(spectral_radius(make_cycle(9), a).radius - 2.0) < 1e-10


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
                if g.is_regular():
                    assert abs(gap) < 1e-9
                else:
                    assert gap > 1e-8


# -- column-sum certificate ------------------------------------------------


def test_certificate_regular_closed_form():
    # any r-regular graph at alpha = 1/2: every column sums to r^2 - n*r/2
    c8 = make_cycle(8)
    assert column_sum_certificate(c8, 0.5) == pytest.approx([-4.0] * 8, abs=1e-12)
    k5 = make_complete(5)
    assert column_sum_certificate(k5, 0.5) == pytest.approx([16 - 10.0] * 5, abs=1e-12)


def test_certificate_bipartite_boundary_case():
    # K_{2,6} at alpha = 1/2 sits exactly on the boundary: every column sum 0
    sums = column_sum_certificate(make_complete_bipartite(2, 6), 0.5)
    assert sums == pytest.approx([0.0] * 8, abs=1e-12)


def test_certificate_two_routes_agree():
    rng = random.Random(42)
    for _ in range(40):
        g = random_graph(rng, rng.randint(2, 10), rng.uniform(0.2, 0.9))
        a = rng.choice(ALPHA_GRID)
        sums = column_sum_certificate(g, a)
        n = g.n
        mat = build_alpha_matrix(g, a)
        b = mat @ mat - a * n * mat + 2 * (2 * a - 1) * (n - 2) * np.eye(n)
        assert np.max(np.abs(np.asarray(sums) - b.sum(axis=0))) <= CERT_TOL


def test_certificate_grid_matches_scalar_loop_exactly():
    # the numpy grid keeps the scalar formula's operation order, so the
    # floats agree bit for bit
    rng = random.Random(7)
    grid = [0.0, 0.25, 0.5, 0.6, 0.75, 0.9, 1.0]
    for _ in range(10):
        g = random_graph(rng, rng.randint(2, 10), 0.5)
        n = g.n
        rows = column_sum_certificate(g, grid)
        assert column_sum_certificate(g, grid[2]) == rows[2]
        for a, row in zip(grid, rows):
            const = 2.0 * (2.0 * a - 1.0) * (n - 2)
            assert row == [
                a * g.degree(u) ** 2
                + (1.0 - a) * neighbor_degree_sum(g, u)
                - a * n * g.degree(u)
                + const
                for u in range(g.n)
            ]

