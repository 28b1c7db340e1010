import csv
import io
import json
import re
from pathlib import Path

import pytest

from alphax import verify
from alphax.enumeration import ClassFilter, generation_notes
from alphax.families import make_friendship, rho_friendship
from alphax.graph6 import parse_graph6_lines, write_graph6

from helpers import make_report

ROOT = Path(__file__).resolve().parent.parent
# verify thm11-even --n 8 --in data/min2ec_n8.g6 over this grid, written by
# the power-iteration solver that preceded the batched eigh solve
GOLDEN_REPORT = ROOT / "tests" / "data" / "thm11_even_n8.json"
# the same run written with --out as CSV, by the code that listed the report
# keys by hand before they were derived from SearchReport's fields
GOLDEN_CSV = ROOT / "tests" / "data" / "thm11_even_n8.csv"
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
    assert abs(rep.max_value - rho_friendship(7, 0.6)) < 1e-8
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


@pytest.fixture(scope="module")
def golden_reports():
    members = parse_graph6_lines((ROOT / "data" / "min2ec_n8.g6").read_text())
    return verify.verify_theorem("thm11-even", 8, GOLDEN_ALPHAS, source_graphs=members)


def test_golden_report_reproduced_byte_for_byte(golden_reports):
    assert all(r.certified_unique for r in golden_reports)
    rows = [
        {k: v for k, v in r.to_dict().items() if k != "certified_unique"}
        for r in golden_reports
    ]
    zero = lambda text: re.sub(r'"runtime_ms": \d+', '"runtime_ms": 0', text)
    got = zero(json.dumps(rows, indent=2) + "\n")
    assert got == zero(GOLDEN_REPORT.read_text())


def test_golden_csv_reproduced_byte_for_byte(golden_reports):
    # runtime_ms is the last column: blank it on every data row
    blank = lambda text: re.sub(r",\d+$", ",", text, flags=re.M)
    got = verify.reports_to_csv(golden_reports)
    assert got.count("\n") == 1 + len(GOLDEN_ALPHAS)
    assert blank(got) == blank(GOLDEN_CSV.read_text())


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


def test_round9():
    assert verify._round9(None) is None
    assert verify._round9(3.141592653589793) == 3.14159265
    assert verify._round9(4.0) == 4.0
