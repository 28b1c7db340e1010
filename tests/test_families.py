import math
from fractions import Fraction

import pytest

from alphax.families import (
    make_complete,
    make_complete_bipartite,
    make_cycle,
    make_friendship,
    make_path,
    make_wheel,
    parse_family_spec,
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


def check_join_formula(cases, alpha):
    """rho_join_regular on each (r1, n1, r2, n2, graph) against eigvalsh, and
    exactly equal with its parts swapped."""
    for r1, n1, r2, n2, g in cases:
        got = rho_join_regular(r1, n1, r2, n2, alpha)
        assert abs(got - eig_rho(g, alpha)) < 1e-10
        assert rho_join_regular(r2, n2, r1, n1, alpha) == got


@pytest.mark.parametrize("alpha", GRID)
def test_join_formula_on_wheels(alpha):
    # W_n = K_1 v C_{n-1}
    check_join_formula([(0, 1, 2, n - 1, make_wheel(n)) for n in range(4, 10)], alpha)


@pytest.mark.parametrize("alpha", GRID)
def test_join_formula_on_regular_joins(alpha):
    # K_{3,n-3}, C_4 v C_3 and K_2 v C_5 exercise nontrivial r1, n1 combinations
    cases = [(0, 3, 0, n - 3, make_complete_bipartite(3, n - 3)) for n in range(4, 10)]
    cases += [
        (2, 4, 2, 3, join(make_cycle(4), make_cycle(3))),
        (1, 2, 2, 5, join(make_complete(2), make_cycle(5))),
    ]
    check_join_formula(cases, alpha)


@pytest.mark.parametrize("alpha", GRID)
def test_bipartite_formula(alpha):
    # K_{p,q} = pK_1 v qK_1
    pairs = [(1, 1), (1, 4), (2, 6), (3, 3), (4, 7)]
    check_join_formula([(0, p, 0, q, make_complete_bipartite(p, q)) for p, q in pairs], alpha)


@pytest.mark.parametrize("alpha", GRID)
def test_friendship_formula(alpha):
    # F_k = K_1 v kK_2
    check_join_formula([(0, 1, 1, 2 * k, make_friendship(k)) for k in (1, 2, 3, 5)], alpha)


def test_friendship_known_values():
    assert abs(rho_join_regular(0, 1, 1, 6, 0.5) - (4.5 + math.sqrt(8.25)) / 2) < 1e-12
    assert abs(rho_join_regular(0, 1, 1, 6, 0.5) - 3.6861407) < 1e-7
    # honest evaluation of the same closed form at alpha = 3/4
    assert abs(rho_join_regular(0, 1, 1, 6, 0.75) - 4.6301993) < 1e-7


def test_wheel_known_values():
    assert abs(rho_join_regular(0, 1, 2, 6, 0.5) - 4.0) < 1e-12
    assert abs(rho_join_regular(0, 1, 2, 6, 0.0) - (1 + math.sqrt(7))) < 1e-12


def test_formula_validation():
    with pytest.raises(ValueError):
        rho_join_regular(0, 1, 1, 5, 0.5)  # no 1-regular graph on 5 vertices
    with pytest.raises(ValueError):
        rho_join_regular(0, 0, 0, 3, 0.5)  # empty side
    with pytest.raises(ValueError):
        rho_join_regular(0, 1, 1, 0, 0.5)
    with pytest.raises(ValueError):
        rho_join_regular(2, 2, 1, 2, 0.5)  # r1 >= n1


def quotient(parts, alpha):
    """(T, D) of x^2 - T x + D, the 2x2 quotient's polynomial for the join of
    an r1-regular graph on n1 vertices and an r2-regular one on n2."""
    (r1, n1), (r2, n2) = parts
    t = r1 + r2 + alpha * (n1 + n2)
    d = (r1 + alpha * n2) * (r2 + alpha * n1) - (1 - alpha) ** 2 * n1 * n2
    return t, d


# (family leading below alpha*, family leading above, orders, alpha*(n));
# each family is given by its two regular parts (degree, order)
CROSSOVERS = [
    (lambda n: ((0, 2), (0, n - 2)), lambda n: ((0, 1), (1, n - 1)), range(7, 60, 2),
     lambda n: Fraction(n * n - 8 * n + 13, (n - 5) * (2 * n - 5))),
    (lambda n: ((0, 3), (0, n - 3)), lambda n: ((0, 1), (2, n - 1)), range(8, 60),
     lambda n: Fraction(n * n - 11 * n + 25, (n - 7) * (2 * n - 7))),
]


@pytest.mark.parametrize("low,high,orders,crossover", CROSSOVERS,
                         ids=["K2-vs-friendship", "K3-vs-wheel"])
def test_family_crossovers_are_exact(low, high, orders, crossover):
    rho = lambda parts, alpha: rho_join_regular(*parts[0], *parts[1], alpha)
    for n in orders:
        a = crossover(n)
        (t1, d1), (t2, d2) = quotient(low(n), a), quotient(high(n), a)
        # the common root of both quotient polynomials is the larger root of each
        x = (d1 - d2) / (t1 - t2)
        for t, d in ((t1, d1), (t2, d2)):
            assert x * x - t * x + d == 0 and 2 * x >= t
        below, above = float(a) - 1e-6, float(a) + 1e-6
        assert rho(low(n), below) > rho(high(n), below)
        assert rho(low(n), above) < rho(high(n), above)


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
