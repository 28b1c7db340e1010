"""End-to-end acceptance gate.

One test per shipped claim, each with its stated tolerance.  These are the
checks a release must pass; the unit test modules cover the same machinery
at finer grain.
"""

import ast
import itertools
import random
import time
from pathlib import Path

import numpy as np
import pytest

from alphax.canonical import canonical_form
from alphax.enumeration import ClassFilter, dedup_by_isomorphism, enumerate_class
from alphax.graph import Graph, bits, pair_count
from alphax.graph6 import parse_graph6, parse_graph6_lines, write_graph6
from alphax.families import (
    make_complete_bipartite,
    make_friendship,
    make_wheel,
    rho_join_regular,
)
from alphax.spectral import (
    bound_lower_delta,
    bound_upper_degree,
    bound_upper_edge,
    column_sum_certificate,
    spectral_radius,
)
from alphax import verify

from helpers import (
    build_alpha_matrix,
    connected_class_reps,
    iter_all_graphs,
    random_graph,
    switch_edges,
)

DATA_FILE = Path(__file__).resolve().parent.parent / "data" / "min2ec_n8.g6"
README = Path(__file__).resolve().parent.parent / "README.md"


@pytest.fixture(scope="module")
def min2ec8_members():
    """The full minimally 2-edge-connected class at n=8, via the built-in scan."""
    return enumerate_class(8, ClassFilter("min-edge", 2))


@pytest.fixture(scope="module")
def n8_reports_builtin():
    return verify.verify_theorem("thm11-even", 8, (0.5, 0.75))


def strip_volatile(report) -> dict:
    d = report.to_dict()
    for key in ("runtime_ms", "source", "pruning"):
        d.pop(key)
    return d


def test_criterion_01_closed_forms_match_solver():
    grid = (0.0, 0.25, 0.5, 0.75, 0.9)
    spectral_radius(make_wheel(4), 0.5)  # one untimed solve: the timing covers only the sweep
    start = time.perf_counter()
    worst = 0.0
    cases = 0
    for b, a in itertools.product(range(2, 11), grid):
        got = rho_join_regular(0, 2, 0, b, a)
        ref = spectral_radius(make_complete_bipartite(2, b), a).radius
        worst = max(worst, abs(got - ref))
        cases += 1
    for n, a in itertools.product((3, 5, 7, 9, 11), grid):
        got = rho_join_regular(0, 1, 1, n - 1, a)
        ref = spectral_radius(make_friendship((n - 1) // 2), a).radius
        worst = max(worst, abs(got - ref))
        cases += 1
    for n, a in itertools.product(range(4, 13), grid):
        got = rho_join_regular(0, 1, 2, n - 1, a)
        ref = spectral_radius(make_wheel(n), a).radius
        worst = max(worst, abs(got - ref))
        cases += 1
    elapsed = time.perf_counter() - start
    assert worst <= 1e-8
    assert elapsed < 5.0
    # anchor values
    assert abs(rho_join_regular(0, 1, 2, 6, 0.5) - 4.0) <= 1e-8
    assert abs(rho_join_regular(0, 2, 0, 6, 0.5) - 4.0) <= 1e-8
    assert abs(rho_join_regular(0, 1, 1, 6, 0.5) - 3.6861407) <= 5e-8
    print(f"criterion 01 closed forms: PASS ({cases} cases, worst gap {worst:.2e}, {elapsed:.2f}s)")


def test_criterion_02_odd_order_maximizer_is_friendship():
    reports = verify.verify_theorem("thm11-odd", 7, (0.5, 0.7, 0.9))
    assert verify.exit_code(reports) == 0
    for rep in reports:
        assert rep.class_size == 11
        assert rep.argmax_matches_expected is True
        assert rep.ties_within_tolerance == 0
        assert abs(rep.max_value - rho_join_regular(0, 1, 1, 6, rep.alpha)) <= 1e-8
    print("criterion 02 odd order n=7: PASS (unique maximizer F_3 at alpha 0.5/0.7/0.9)")


def test_criterion_03_wheel_maximizes_minimally_3_connected():
    reports = verify.verify_theorem("thm12", 7, (0.5, 0.75))
    assert verify.exit_code(reports) == 0
    for rep in reports:
        assert rep.class_size == 5
        assert rep.argmax_matches_expected is True
        assert rep.ties_within_tolerance == 0
        assert abs(rep.max_value - rho_join_regular(0, 1, 2, 6, rep.alpha)) <= 1e-8
    print("criterion 03 wheel n=7: PASS (unique maximizer W_7 at alpha 0.5/0.75)")


def test_criterion_04_even_order_both_paths_agree(min2ec8_members, n8_reports_builtin):
    builtin = n8_reports_builtin
    assert verify.exit_code(builtin) == 0
    want = write_graph6(canonical_form(make_complete_bipartite(2, 6)).graph())
    for rep in builtin:
        assert rep.argmax_matches_expected is True
        assert rep.ties_within_tolerance == 0
        assert rep.argmax_canonical == want
        assert abs(rep.max_value - rho_join_regular(0, 2, 0, 6, rep.alpha)) <= 1e-8
    assert builtin[0].class_size == 23

    # the shipped class file must be byte-identical to a fresh built-in scan
    shipped = DATA_FILE.read_text()
    assert "".join(write_graph6(g) + "\n" for g in min2ec8_members) == shipped

    ingested = verify.verify_theorem(
        "thm11-even", 8, (0.5, 0.75), source_graphs=parse_graph6_lines(shipped)
    )
    assert verify.exit_code(ingested) == 0
    assert ingested[0].source == "graph6-ingest"
    assert [strip_volatile(r) for r in ingested] == [strip_volatile(r) for r in builtin]
    print("criterion 04 even order n=8: PASS (K_{2,6} unique; scan and ingest reports identical)")


def test_criterion_05_structural_fact_suite_clean():
    checks = verify.verify_lemma_suite(7)
    bad = [c for c in checks if c.violations]
    assert bad == []
    total = sum(c.class_size for c in checks)
    assert total > 0
    assert verify.lemma_suite_exit_code(checks) == 0
    print(f"criterion 05 structural facts n<=7: PASS ({len(checks)} checks over {total} graphs)")


def test_criterion_06_bound_sandwich_and_regular_equality():
    grid = (0.0, 0.25, 0.5, 0.6, 0.75, 0.9)
    checked = 0
    for n in range(2, 7):
        for g in connected_class_reps(n):
            for a in grid:
                rho = spectral_radius(g, a).radius
                upper = min(bound_upper_degree(g, a), bound_upper_edge(g, a))
                assert bound_lower_delta(g, a) <= rho + 1e-8
                assert rho <= upper + 1e-8
                checked += 1
            for a in (0.6, 0.75):
                gap = bound_upper_degree(g, a) - spectral_radius(g, a).radius
                if min(g.degrees()) == max(g.degrees()):
                    assert abs(gap) <= 1e-8
                else:
                    assert gap > 1e-8
    print(f"criterion 06 bound sandwich n<=6: PASS ({checked} graph/alpha pairs)")


def _draw_switch_instance(rng, alpha):
    """A uniform-ish valid switching instance: perron[u] >= perron[v]."""
    while True:
        n = rng.randint(4, 8)
        while True:
            g = random_graph(rng, n, rng.uniform(0.3, 0.8))
            if g.is_connected():
                break
        x = spectral_radius(g, alpha).perron
        rows = g.adjacency_rows()
        verts = list(range(n))
        rng.shuffle(verts)
        for u in verts:
            for v in verts:
                if u == v or x[u] < x[v]:
                    continue
                avail = rows[v] & ~rows[u] & ~(1 << u)
                cand = list(bits(avail))
                if not cand:
                    continue
                nset = rng.sample(cand, rng.randint(1, len(cand)))
                return g, u, v, nset


def test_criterion_07_switching_strictly_increases_radius():
    rng = random.Random(20260825)
    worst = float("inf")
    for alpha in (0.5, 0.75):
        for _ in range(500):
            g, u, v, nset = _draw_switch_instance(rng, alpha)
            before = spectral_radius(g, alpha).radius
            after = spectral_radius(switch_edges(g, u, v, nset), alpha).radius
            gain = after - before
            assert gain > 1e-9
            worst = min(worst, gain)
    print(f"criterion 07 switching: PASS (1000 instances, smallest gain {worst:.2e})")


def test_criterion_08_column_sum_certificate(min2ec8_members):
    rng = random.Random(88)
    for _ in range(100):
        while True:
            g = random_graph(rng, rng.randint(2, 10), rng.uniform(0.3, 0.9))
            if g.is_connected():
                break
        a = rng.choice((0.0, 0.25, 0.5, 0.6, 0.75, 0.9))
        sums = column_sum_certificate(g, [a])[0]  # raises if the two routes disagree
        mat = build_alpha_matrix(g, a)
        b = mat @ mat - a * g.n * mat + 2 * (2 * a - 1) * (g.n - 2) * np.eye(g.n)
        assert np.max(np.abs(np.asarray(sums) - b.sum(axis=0))) <= 1e-9

    small_delta = [g for g in min2ec8_members if g.max_degree() <= 5]
    assert small_delta
    worst = -float("inf")
    for g in small_delta:
        for a in (0.5, 0.75):
            worst = max(worst, max(column_sum_certificate(g, [a])[0]))
    assert worst < 0
    print(
        f"criterion 08 certificate: PASS (100 random graphs; "
        f"{len(small_delta)} class members, largest column sum {worst:.3g})"
    )


def test_criterion_09_graph6_round_trip():
    rng = random.Random(9999)
    for _ in range(10_000):
        n = rng.randint(1, 20)
        mask = rng.getrandbits(pair_count(n))
        g = Graph.from_edge_bits(n, mask)
        assert parse_graph6(write_graph6(g)) == g
    assert write_graph6(Graph.from_edge_list(2, [(0, 1)])) == "A_"
    print("criterion 09 graph6: PASS (10000 round trips, K_2 byte-exact)")


def test_criterion_10_enumeration_matches_brute_force():
    filters = [
        ClassFilter("all-connected", 1),
        ClassFilter("min-edge", 2),
        ClassFilter("min-vertex", 3),
    ]
    total = 0
    for n in range(2, 7):
        labeled = list(iter_all_graphs(n))
        for flt in filters:
            oracle = dedup_by_isomorphism([g for g in labeled if flt.passes(g)])
            got = enumerate_class(n, flt)
            assert {canonical_form(g) for g in got} == {canonical_form(g) for g in oracle}
            total += len(got)
    print(f"criterion 10 oracle equivalence n<=6: PASS ({total} classes compared)")


def test_readme_library_example_states_true_values():
    # run the block statement by statement, keeping each bare expression's value
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace, values = {}, []
    for node in ast.parse(block).body:
        if isinstance(node, ast.Expr):
            values.append(eval(compile(ast.Expression(node.value), "README", "eval"), namespace))
        else:
            exec(compile(ast.Module([node], []), "README", "exec"), namespace)
    c5, w7, f3, k26, count = values
    assert abs(namespace["res"].radius - 4) <= 1e-12
    assert abs(w7 - 4) <= 1e-12 and abs(k26 - 4) <= 1e-12
    assert abs(f3 - 3.68614066) <= 1e-8
    assert abs(c5 - 2) <= 1e-12
    assert count == len(namespace["members"]) == 11
