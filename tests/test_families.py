import math

import pytest

from alphax.families import (
    make_complete,
    make_complete_bipartite,
    make_cycle,
    make_friendship,
    make_path,
    make_wheel,
    parse_family_spec,
    rho_complete_bipartite,
    rho_friendship,
    rho_join_regular,
)

from helpers import disjoint_union, eig_rho, join

GRID = (0.0, 0.25, 0.5, 0.75, 0.9)


def test_path_and_cycle_shapes():
    p = make_path(4)
    assert p.edges() == [(0, 1), (1, 2), (2, 3)]
    c = make_cycle(5)
    assert c.m == 5 and c.degrees() == [2] * 5
    assert c.has_edge(0, 4)
    with pytest.raises(ValueError):
        make_cycle(2)
    assert make_path(1).n == 1


def test_complete_and_bipartite_shapes():
    k5 = make_complete(5)
    assert k5.m == 10
    b = make_complete_bipartite(2, 3)
    assert b.m == 6
    # parts are 0..p-1 and p..p+q-1
    assert not b.has_edge(0, 1) and not b.has_edge(2, 3)
    assert b.has_edge(0, 2) and b.has_edge(1, 4)


def test_wheel_numbering():
    w = make_wheel(6)
    assert w.degree(0) == 5  # hub
    for v in range(1, 6):
        assert w.degree(v) == 3
    assert w.has_edge(1, 5)  # rim closes
    with pytest.raises(ValueError):
        make_wheel(3)
    # W_4 = K_4
    assert make_wheel(4) == make_complete(4)


def test_friendship_numbering():
    f = make_friendship(3)
    assert f.n == 7 and f.m == 9
    assert f.degree(0) == 6
    for i in range(3):
        assert f.has_edge(2 * i + 1, 2 * i + 2)
    with pytest.raises(ValueError):
        make_friendship(0)


def test_join_and_union_layout():
    g = join(make_path(1), make_cycle(5))  # this is W_6
    assert g == make_wheel(6)
    u = disjoint_union(make_path(2), make_path(2))
    assert u.n == 4 and u.m == 2
    assert u.has_edge(0, 1) and u.has_edge(2, 3)


# -- closed forms ----------------------------------------------------------


@pytest.mark.parametrize("alpha", GRID)
def test_join_formula_on_wheels(alpha):
    for n in range(4, 10):
        want = eig_rho(make_wheel(n), alpha)
        got = rho_join_regular(0, 1, 2, n - 1, alpha)
        assert abs(got - want) < 1e-10


@pytest.mark.parametrize("alpha", GRID)
def test_join_formula_on_regular_joins(alpha):
    # C_4 v C_3 and K_2 v C_5 exercise nontrivial r1, n1 combinations
    cases = [
        (2, 4, 2, 3, join(make_cycle(4), make_cycle(3))),
        (1, 2, 2, 5, join(make_complete(2), make_cycle(5))),
    ]
    for r1, n1, r2, n2, g in cases:
        assert abs(rho_join_regular(r1, n1, r2, n2, alpha) - eig_rho(g, alpha)) < 1e-10


@pytest.mark.parametrize("alpha", GRID)
def test_bipartite_formula(alpha):
    for p, q in [(1, 1), (1, 4), (2, 6), (3, 3), (4, 7)]:
        want = eig_rho(make_complete_bipartite(p, q), alpha)
        assert abs(rho_complete_bipartite(p, q, alpha) - want) < 1e-10
        assert rho_complete_bipartite(q, p, alpha) == rho_complete_bipartite(p, q, alpha)


@pytest.mark.parametrize("alpha", GRID)
def test_friendship_formula(alpha):
    for k in (1, 2, 3, 5):
        n = 2 * k + 1
        want = eig_rho(make_friendship(k), alpha)
        assert abs(rho_friendship(n, alpha) - want) < 1e-10


def test_friendship_known_values():
    assert abs(rho_friendship(7, 0.5) - (4.5 + math.sqrt(8.25)) / 2) < 1e-12
    assert abs(rho_friendship(7, 0.5) - 3.6861407) < 1e-7
    # honest evaluation of the same closed form at alpha = 3/4
    assert abs(rho_friendship(7, 0.75) - 4.6301993) < 1e-7


def test_wheel_known_values():
    assert abs(rho_join_regular(0, 1, 2, 6, 0.5) - 4.0) < 1e-12
    assert abs(rho_join_regular(0, 1, 2, 6, 0.0) - (1 + math.sqrt(7))) < 1e-12


def test_formula_validation():
    with pytest.raises(ValueError):
        rho_friendship(6, 0.5)  # even order
    with pytest.raises(ValueError):
        rho_friendship(1, 0.5)
    with pytest.raises(ValueError):
        rho_complete_bipartite(0, 3, 0.5)
    with pytest.raises(ValueError):
        rho_join_regular(2, 2, 1, 2, 0.5)  # r1 >= n1


# -- family spec strings ---------------------------------------------------


def test_parse_family_spec():
    assert parse_family_spec("W7") == make_wheel(7)
    assert parse_family_spec("p4") == make_path(4)
    assert parse_family_spec("C6") == make_cycle(6)
    assert parse_family_spec("K5") == make_complete(5)
    assert parse_family_spec("K2,6") == make_complete_bipartite(2, 6)
    assert parse_family_spec(" k 2 , 6 ") == make_complete_bipartite(2, 6)
    assert parse_family_spec("F3") == make_friendship(3)


def test_parse_family_spec_rejects():
    for bad in ("X5", "K", "P", "W3", "C2", "F0", "K0,3", "5", "", "P4,2"):
        with pytest.raises(ValueError):
            parse_family_spec(bad)
