import csv
import io
import json
import random
import re
import tracemalloc
from pathlib import Path

import networkx as nx
import numpy as np
import pytest

from alphax import cli, verify
from alphax.enumeration import ClassFilter, generation_notes
from alphax.families import (
    make_complete,
    make_complete_bipartite,
    make_friendship,
    make_wheel,
    rho_join_regular,
)
from alphax.graph import Graph
from alphax.graph6 import parse_graph6_lines, write_graph6
from alphax.spectral import TIE_TOL, alpha_indices

from helpers import all_cycles, make_report, random_graph

ROOT = Path(__file__).resolve().parent.parent
# Each golden run over GOLDEN_ALPHAS, as (theorem, n, class file or None for
# the built-in generator, file stem under tests/data).  The thm11-even JSON
# was written by the power-iteration solver that preceded the batched eigh
# solve, its CSV by the code that listed the report keys by hand before they
# were derived from SearchReport's fields.  The other two were written by the
# code that still kept a separate closed form for F_k and K_{p,q}.  Each JSON
# file later gained the certified_unique key from `alphax verify --out`, with
# every other byte kept.
GOLDEN_RUNS = [
    ("thm11-even", 8, "data/min2ec_n8.g6", "thm11_even_n8"),
    ("thm11-odd", 7, None, "thm11_odd_n7"),
    ("thm12", 7, None, "thm12_n7"),
]
GOLDEN_ALPHAS = (0.5, 0.53, 0.56, 0.59, 0.62, 0.65, 0.68, 0.71,
                 0.74, 0.77, 0.8, 0.83, 0.86, 0.89, 0.92, 0.95)


def strip_runtime(report_dicts):
    return [{k: v for k, v in d.items() if k != "runtime_ms"} for d in report_dicts]


def test_exit_codes():
    ok = make_report()
    assert verify.exit_code([ok]) == 0
    tied = make_report(ties_within_tolerance=1)
    assert verify.exit_code([ok, tied]) == 2
    wrong = make_report(argmax_matches_expected=False)
    assert verify.exit_code([ok, tied, wrong]) == 1
    off = make_report(expected_value=3.7)
    assert off.violation
    assert verify.exit_code([off]) == 1
    uncertified = make_report(certified_unique=False)
    assert verify.exit_code([ok, uncertified]) == 2
    assert verify.exit_code([uncertified, wrong]) == 1


@pytest.mark.parametrize(
    "lower,upper,expected",
    [
        ([3.0, 1.0, 2.0], [3.1, 1.5, 2.9], True),   # separated
        ([3.0, 1.0, 2.0], [3.1, 1.5, 3.0], False),  # touching: 3.0 is not > 3.0
        ([3.0, 1.0, 2.0], [3.1, 1.5, 3.05], False),  # overlapping
    ],
)
def test_certified_unique_rule(lower, upper, expected):
    assert verify.certified_unique(lower, upper, 0) is expected


def test_certified_unique_single_member():
    assert verify.certified_unique([2.0], [2.0], 0) is True


# tool and version, then SearchReport's fields in order, class_name as class
REPORT_KEYS = [
    "tool", "version", "class", "k", "n", "alpha", "alpha_grid", "class_size",
    "max_value", "argmax_canonical", "argmax_matches_expected",
    "expected_canonical", "expected_value", "runner_up_value", "spectral_gap",
    "ties_within_tolerance", "pruning", "source", "certified_unique",
    "runtime_ms",
]


def test_report_serialization_shapes():
    rep = make_report()
    d = rep.to_dict()
    assert list(d.keys()) == verify.CSV_COLUMNS == REPORT_KEYS
    assert d["tool"] == "alphax"
    assert d["alpha_grid"] == [0.5] and d["pruning"] == ["minimum degree is exactly 2"]
    # floats carry at most 9 significant digits
    assert d["max_value"] == float(f"{rep.max_value:.9g}")
    text = verify.reports_to_json([rep])
    assert json.loads(text)[0]["class"] == "min-2-edge-connected"

    rows = list(csv.DictReader(io.StringIO(verify.reports_to_csv([rep]))))
    assert len(rows) == 1
    assert rows[0]["alpha_grid"] == "0.5"
    assert rows[0]["ties_within_tolerance"] == "0"
    assert rows[0]["max_value"] == "3.68614066"

    single = make_report(runner_up_value=None, spectral_gap=None)
    assert single.to_dict()["spectral_gap"] is None
    row = next(csv.DictReader(io.StringIO(verify.reports_to_csv([single]))))
    assert row["runner_up_value"] == row["spectral_gap"] == ""


def test_verify_theorem_basic_report():
    reports = verify.verify_theorem("thm11-odd", 7, (0.6,))
    assert len(reports) == 1
    rep = reports[0]
    assert rep.class_size == 11
    assert rep.argmax_matches_expected is True
    assert rep.ties_within_tolerance == 0
    assert abs(rep.max_value - rho_join_regular(0, 1, 1, 6, 0.6)) < 1e-8
    assert rep.expected_canonical == rep.argmax_canonical
    assert rep.spectral_gap is not None and rep.spectral_gap > 0
    assert rep.source == "builtin"
    assert rep.pruning
    assert verify.exit_code(reports) == 0


def test_verify_theorem_deterministic_output():
    a = verify.verify_theorem("thm11-odd", 7, (0.5, 0.7))
    b = verify.verify_theorem("thm11-odd", 7, (0.5, 0.7))
    assert strip_runtime([r.to_dict() for r in a]) == strip_runtime([r.to_dict() for r in b])
    ja = re.sub(r'"runtime_ms": \d+', '"runtime_ms": 0', verify.reports_to_json(a))
    jb = re.sub(r'"runtime_ms": \d+', '"runtime_ms": 0', verify.reports_to_json(b))
    assert ja == jb


@pytest.fixture(scope="module", params=GOLDEN_RUNS, ids=lambda run: run[3])
def golden(request):
    """(reports, file stem) of one golden run."""
    name, n, path, stem = request.param
    members = parse_graph6_lines((ROOT / path).read_text()) if path else None
    return verify.verify_theorem(name, n, GOLDEN_ALPHAS, source_graphs=members), stem


def test_golden_report_reproduced_byte_for_byte(golden):
    reports, stem = golden
    assert all(r.certified_unique for r in reports)
    zero = lambda text: re.sub(r'"runtime_ms": \d+', '"runtime_ms": 0', text)
    got = zero(verify.reports_to_json(reports))
    assert got == zero((ROOT / "tests" / "data" / f"{stem}.json").read_text())


def test_golden_csv_reproduced_byte_for_byte(golden):
    reports, stem = golden
    # runtime_ms is the last column: blank it on every data row
    blank = lambda text: re.sub(r",\d+$", ",", text, flags=re.M)
    got = verify.reports_to_csv(reports)
    assert got.count("\n") == 1 + len(GOLDEN_ALPHAS)
    assert blank(got) == blank((ROOT / "tests" / "data" / f"{stem}.csv").read_text())


ORACLE_ALPHAS = tuple(0.5 + i / 128 for i in range(64))


@pytest.mark.parametrize("target,n,path", [
    ("thm11-even", 8, "data/min2ec_n8.g6"),
    ("thm11-odd", 9, "data/min2ec_n9.g6"),
    ("thm11-even", 10, "data/min2ec_n10.g6"),
    ("thm12", 8, "tests/data/min3c_n8.g6"),
])
def test_pruned_solve_reports_what_solving_every_member_alone_gives(target, n, path):
    members = verify.ingest_class(
        parse_graph6_lines((ROOT / path).read_text()), n, verify.THEOREMS[target].flt)
    reports = verify.verify_theorem(target, n, ORACLE_ALPHAS, source_graphs=members)
    # a one-graph call solves its graph at every alpha
    alone = [alpha_indices([g], ORACLE_ALPHAS) for g in members]
    value, lower, upper = (np.hstack([getattr(x, f) for x in alone])
                           for f in ("value", "lower", "upper"))
    assert np.all(np.isfinite(value))
    for row, rep in enumerate(reports):
        values = value[row].tolist()
        best = values.index(max(values))
        others = values[:best] + values[best + 1:]
        assert rep.argmax_canonical == write_graph6(members[best])
        assert rep.max_value == values[best]
        assert rep.runner_up_value == max(others)
        assert rep.ties_within_tolerance == sum(v > values[best] - TIE_TOL for v in others)
        assert rep.certified_unique == verify.certified_unique(lower[row], upper[row], best)


def test_json_writer_is_json_dumps():
    members = parse_graph6_lines((ROOT / "data" / "min2ec_n8.g6").read_text())
    odd = verify.verify_theorem("thm11-odd", 7, (0.5, 0.75))
    assert odd[0].pruning
    for reports in (
        verify.verify_theorem("thm11-even", 8, tuple(0.5 + i / 256 for i in range(128)),
                              source_graphs=members),
        odd,
        [make_report(runner_up_value=None, spectral_gap=None)],
        [],
    ):
        want = json.dumps([r.to_dict() for r in reports], indent=2) + "\n"
        assert verify.reports_to_json(reports) == want


@pytest.mark.parametrize("suffix", [".json", ".csv"])
def test_cli_streams_its_report(tmp_path, suffix):
    # every row repeats the alpha grid, so the text grows with its square and
    # a row with the grid alone: 512 alphas make a file of several MB
    path = tmp_path / f"r{suffix}"
    grid = ",".join(str(0.5 + i / 1024) for i in range(512))
    tracemalloc.start()
    try:
        code = cli.main(["verify", "thm11-odd", "--n", "7", "--alphas", grid, "--out", str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    text = path.read_text()
    assert peak < len(text) / 2
    if suffix == ".json":
        assert text == json.dumps(json.loads(text), indent=2) + "\n"
    else:
        reader = csv.DictReader(io.StringIO(text))
        assert reader.fieldnames == verify.CSV_COLUMNS and len(list(reader)) == 512


@pytest.mark.parametrize("target", ["thm11-odd", "thm12"])
def test_builtin_reports_name_the_generation_facts(target):
    flt = verify.THEOREMS[target].flt
    reports = verify.verify_theorem(target, 7, (0.5, 0.75))
    for row in json.loads(verify.reports_to_json(reports)):
        assert row["pruning"] == generation_notes(7, flt)
        joined = ";".join(row["pruning"])
        assert "m <= 2n-2" not in joined and "m >= ceil" not in joined  # no scan window
    csv_rows = list(csv.DictReader(io.StringIO(verify.reports_to_csv(reports))))
    assert csv_rows[0]["pruning"] == ";".join(generation_notes(7, flt))


def test_verify_theorem_ingested_source():
    members = verify.enumerate_class(7, ClassFilter("min-edge", 2))
    reports = verify.verify_theorem("thm11-odd", 7, (0.5,), source_graphs=members)
    assert reports[0].source == "graph6-ingest"
    builtin = verify.verify_theorem("thm11-odd", 7, (0.5,))
    keys = set(verify.CSV_COLUMNS) - {"runtime_ms", "source", "pruning"}
    for a, b in zip(reports, builtin):
        da, db = a.to_dict(), b.to_dict()
        assert {k: da[k] for k in keys} == {k: db[k] for k in keys}


def test_alpha_window_enforced():
    for bad in ((0.4,), (1.0,), (0.5, 0.95, 1.2), ()):
        with pytest.raises(verify.UsageError):
            verify.verify_theorem("thm11-odd", 7, bad)


def test_order_preconditions():
    with pytest.raises(verify.UsageError):
        verify.verify_theorem("thm11-odd", 8, (0.5,))
    with pytest.raises(verify.UsageError):
        verify.verify_theorem("thm11-odd", 5, (0.5,))
    with pytest.raises(verify.UsageError):
        verify.verify_theorem("thm11-even", 7, (0.5,))
    with pytest.raises(verify.UsageError):
        verify.verify_theorem("thm12", 6, (0.5,))


def test_expected_graph_is_the_friendship_graph():
    reports = verify.verify_theorem("thm11-odd", 7, (0.5,))
    from alphax.canonical import canonical_form

    want = write_graph6(canonical_form(make_friendship(3)).graph())
    assert reports[0].expected_canonical == want
    assert reports[0].argmax_canonical == want


def test_odd_order_nine_is_won_by_f4_builtin():
    reports = verify.verify_theorem("thm11-odd", 9, (0.5, 0.75, 0.95))
    from alphax.canonical import canonical_form

    want = write_graph6(canonical_form(make_friendship(4)).graph())
    for r in reports:
        assert r.source == "builtin" and r.class_size == 63
        assert r.argmax_canonical == want and r.argmax_matches_expected
        assert r.certified_unique and not r.violation
    assert verify.exit_code(reports) == 0


def test_lemma_suite_structure():
    checks = verify.verify_lemma_suite(5)
    assert checks
    names = {c.name for c in checks}
    assert len(names) >= 4
    assert all(c.violations == () for c in checks)
    assert sum(c.class_size for c in checks) > 0
    assert verify.lemma_suite_exit_code(checks) == 0


def _halin_oracle(g: Graph) -> bool:
    return any(sum(g.degree(v) == 3 for v in cyc) < 2 for cyc in all_cycles(g))


def test_halin_row_matches_cycle_search():
    flagged = 0
    for nxg in nx.graph_atlas_g()[1:]:
        g = Graph.from_edge_list(nxg.number_of_nodes(), nxg.edges())
        want = _halin_oracle(g)
        assert verify._cycle_without_two_degree_3(g) == want, list(nxg.edges())
        flagged += want
    assert flagged == 968
    rng = random.Random(1969)
    for _ in range(600):
        g = random_graph(rng, rng.randint(7, 10), rng.choice((0.2, 0.3, 0.4)))
        assert verify._cycle_without_two_degree_3(g) == _halin_oracle(g), g.edges()


@pytest.mark.parametrize("row", range(len(verify.LEMMAS)))
def test_each_lemma_row_flags_a_violator_and_passes_members(row):
    name, flt, violated = verify.LEMMAS[row]
    if name == "min-degree-equals-k":
        violator = make_complete(flt.k + 2)  # minimum degree k + 1
    elif name == "no-chorded-cycle":
        violator = make_complete(4)
    else:
        violator = make_complete(5)
    assert violated(violator)
    members = [g for g in (make_wheel(7), make_friendship(3), make_complete_bipartite(2, 6))
               if flt.passes(g)]
    assert members
    assert not any(violated(g) for g in members)


def test_round9():
    assert verify._round9(None) is None
    assert verify._round9(3.141592653589793) == 3.14159265
    assert verify._round9(4.0) == 4.0
