import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from alphax import spectral, verify
from alphax.canonical import canonical_form
from alphax.cli import main
from alphax.graph6 import parse_graph6_lines, write_graph6
from alphax.families import make_complete_bipartite, make_cycle, make_friendship, make_wheel

from helpers import cap_address_space, make_report, perm_apply

CLASS_FILE_N8 = Path(__file__).resolve().parent.parent / "data" / "min2ec_n8.g6"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_rho_on_family_spec(capsys):
    code, out, _ = run(capsys, "rho", "W7", "--alphas", "0.5")
    assert code == 0
    assert "rho=4" in out
    assert "upper(degree)=4.5" in out
    assert "lower(delta)=3.5" in out
    assert "residual=" in out and "enclosure=[" in out
    assert "iterations" not in out


def test_rho_on_graph6_literal(capsys):
    code, out, _ = run(capsys, "rho", write_graph6(make_cycle(5)), "--alphas", "0,0.5")
    assert code == 0
    assert out.count("rho=2") == 2  # regular: radius 2 at every alpha


def test_bounds_command(capsys):
    code, out, _ = run(capsys, "bounds", "C5", "--alphas", "0.75")
    assert code == 0
    assert "n=5 m=5" in out
    assert "upper(degree)=2" in out


def test_classify_command(capsys):
    code, out, _ = run(capsys, "classify", "C4", "--k", "2")
    assert code == 0
    assert out.splitlines() == [
        "n: 4",
        "m: 4",
        "k: 2",
        "vertex_connectivity: 2",
        "edge_connectivity: 2",
        "is_k_connected: True",
        "is_k_edge_connected: True",
        "is_minimally_k_connected: True",
        "is_minimally_k_edge_connected: True",
    ]


def test_enumerate_to_file_and_back(tmp_path, capsys):
    out_file = tmp_path / "c5.g6"
    code, _, err = run(
        capsys, "enumerate", "--n", "5", "--class", "min-2-edge-connected",
        "--out", str(out_file),
    )
    assert code == 0
    assert "3 graphs" in err
    graphs = parse_graph6_lines(out_file.read_text())
    assert len(graphs) == 3

    # feed the file back through the ingestion path
    code, out, err = run(
        capsys, "enumerate", "--n", "5", "--class", "min-2-edge-connected",
        "--in", str(out_file),
    )
    assert code == 0
    assert parse_graph6_lines(out) == graphs


def test_enumerate_count_line_is_singular_for_one_graph(capsys):
    code, out, err = run(capsys, "enumerate", "--n", "5", "--class", "min-4-connected")
    assert code == 0
    assert err == "min-4-connected n=5: 1 graph\n"
    assert out == "D~{\n"  # K_5


def test_verify_thm_target(tmp_path, capsys):
    out_file = tmp_path / "report.json"
    code, _, err = run(
        capsys, "verify", "thm11-odd", "--n", "7", "--alphas", "0.5",
        "--out", str(out_file),
    )
    assert code == 0
    data = json.loads(out_file.read_text())
    assert data[0]["argmax_matches_expected"] is True
    assert data[0]["class_size"] == 11
    assert err == "min-2-edge-connected n=7 alpha=0.5: size=11 max=3.68614066 argmax=F`?Nw ok\n"


def test_class_file_past_12_vertices_is_ingested(tmp_path, capsys):
    # F_6, K_{2,11} and C_13 are minimally 2-edge-connected; K_{3,10} is not
    graphs = [make_friendship(6), make_complete_bipartite(2, 11), make_cycle(13),
              make_complete_bipartite(3, 10)]
    rng = random.Random(13)
    path = tmp_path / "n13.g6"
    path.write_text("".join(
        write_graph6(perm_apply(g, rng.sample(range(13), 13))) + "\n"
        for g in graphs for _ in range(2)))

    code, out, err = run(capsys, "verify", "thm11-odd", "--n", "13", "--in", str(path),
                         "--alphas", "0.5,0.75,0.99")
    assert code == 0
    f6 = canonical_form(make_friendship(6)).graph6()
    assert f6 == "L`?G?C??G??@~~"
    assert [(r["class_size"], r["argmax_canonical"]) for r in json.loads(out)] == [(3, f6)] * 3
    assert [line.split()[-1] for line in err.splitlines()] == ["ok"] * 3

    code, out, err = run(capsys, "enumerate", "--n", "13", "--class", "min-2-edge-connected",
                         "--in", str(path))
    assert code == 0
    assert out.splitlines() == [f.graph6() for f in sorted(map(canonical_form, graphs[:3]))]
    assert err == "min-2-edge-connected n=13: 3 graphs\n"

    code, _, err = run(capsys, "enumerate", "--n", "13", "--class", "min-2-edge-connected")
    assert code == 64 and "ingest" in err  # built in only up to 12


def test_verify_reports_to_stdout_as_json(capsys):
    code, out, _ = run(capsys, "verify", "thm12", "--n", "7", "--alphas", "0.5")
    assert code == 0
    assert json.loads(out)[0]["class"] == "min-3-connected"


def test_verify_csv_output(tmp_path, capsys):
    out_file = tmp_path / "report.csv"
    code, *_ = run(
        capsys, "verify", "thm11-odd", "--n", "7", "--alphas", "0.5,0.7",
        "--out", str(out_file),
    )
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert lines[0].startswith("tool,version,class")
    assert len(lines) == 3


@pytest.mark.parametrize(
    "overrides,word,code",
    [
        ({}, "ok", 0),
        ({"ties_within_tolerance": 1}, "tie x1", 2),
        ({"certified_unique": False}, "uncertified", 2),
        ({"argmax_matches_expected": False}, "VIOLATION", 1),
    ],
    ids=["ok", "tie", "uncertified", "violation"],
)
def test_verify_prints_the_verdict_and_exits_by_it(monkeypatch, capsys, overrides, word, code):
    monkeypatch.setattr(verify, "verify_theorem",
                        lambda *args, **kwargs: [make_report(**overrides)])
    got, out, err = run(capsys, "verify", "thm11-odd", "--n", "7")
    assert got == code
    assert err == ("min-2-edge-connected n=7 alpha=0.5: size=11 max=3.68614066 "
                   f"argmax=F?qb? {word}\n")
    assert json.loads(out)[0]["runtime_ms"] == 12


def test_verify_rejects_a_report_suffix_before_the_campaign(monkeypatch, tmp_path, capsys):
    def campaign(*args, **kwargs):
        raise AssertionError("the campaign ran")

    monkeypatch.setattr(verify, "verify_theorem", campaign)
    out_file = str(tmp_path / "r.txt")
    code, out, err = run(capsys, "verify", "thm11-even", "--n", "10", "--alphas", "0.5",
                         "--out", out_file)
    assert code == 64
    assert out == ""
    assert err == f"alphax: error: report path must end in .json or .csv, got {out_file!r}\n"
    assert not any(tmp_path.iterdir())


def test_verify_residual_failure_exits_1_before_writing(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(spectral, "RESIDUAL_TOL", 0.0)
    out_file = tmp_path / "X.json"
    code, out, err = run(capsys, "verify", "thm11-odd", "--n", "7", "--alphas", "0.5",
                         "--out", str(out_file))
    assert code == 1
    assert out == ""
    assert err.startswith("alphax: eigenpair residual ")
    assert not out_file.exists()


def test_verify_lemmas(capsys):
    code, out, _ = run(capsys, "verify", "lemmas", "--n", "5")
    assert code == 0
    rows = ["min-degree-equals-k"] * 4 + [
        "edge-count-at-most-2n-2", "no-chorded-cycle", "every-cycle-has-two-degree-3-vertices"]
    lines = out.splitlines()
    assert [ln.split(" [")[0] for ln in lines] == rows * 3
    assert [ln.split(" n=")[1].split()[0] for ln in lines] == [n for n in "345" for _ in rows]
    assert all(ln.endswith(": ok") for ln in lines)


def test_certify_colsums_single_graph(capsys):
    code, out, _ = run(capsys, "certify-colsums", "C8", "--alphas", "0.5")
    assert code == 0
    assert "colsums" in out
    assert "-4" in out


def test_certify_colsums_boundary_graph_fails(capsys):
    # K_{2,6} at alpha=1/2 has all-zero column sums: not strictly negative
    code, out, _ = run(capsys, "certify-colsums", "K2,6", "--alphas", "0.5")
    assert code == 1


def test_certify_colsums_class_mode(capsys):
    code, out, _ = run(
        capsys, "certify-colsums", "--class", "min-2-edge-connected", "--n", "6",
        "--max-degree", "3", "--alphas", "0.5,0.75",
    )
    assert code == 0
    assert "all column sums negative" in out


def test_certify_colsums_counts_one_graph_and_one_alpha_in_the_singular(capsys):
    code, out, _ = run(
        capsys, "certify-colsums", "--class", "min-4-connected", "--n", "5", "--alphas", "0.5",
    )
    assert code == 1
    assert out == "checked 1 graph x 1 alpha: nonnegative column sum found\n"


def test_edge_list_file_input(tmp_path, capsys):
    path = tmp_path / "wheel.edges"
    w7 = make_wheel(7)
    path.write_text(f"{w7.n} {w7.m}\n" + "".join(f"{u} {v}\n" for u, v in w7.edges()))
    code, out, _ = run(capsys, "rho", str(path), "--alphas", "0.5")
    assert code == 0
    assert "rho=4" in out


def test_graph6_file_input(tmp_path, capsys):
    path = tmp_path / "one.g6"
    path.write_text(write_graph6(make_cycle(6)) + "\n")
    code, out, _ = run(capsys, "classify", str(path), "--k", "2")
    assert code == 0
    assert "edge_connectivity: 2" in out


def test_usage_errors_exit_64(capsys):
    assert run(capsys, "rho", "X9", "--alphas", "0.5")[0] == 64       # bad family
    assert run(capsys, "rho", "W7", "--alphas", "1.5")[0] == 64       # alpha range
    assert run(capsys, "rho", "A_X", "--alphas", "0.5")[0] == 64      # bad graph6
    assert run(capsys, "verify", "thm11-odd", "--n", "8", "--alphas", "0.5")[0] == 64
    assert run(capsys, "enumerate", "--n", "13", "--class", "min-2-edge-connected")[0] == 64
    assert run(capsys, "enumerate", "--n", "9", "--class", "min-3-connected")[0] == 64
    assert run(capsys, "certify-colsums", "--alphas", "0.5")[0] == 64  # no target


def test_alpha_out_of_range_exits_64_before_any_output(capsys):
    # the whole list is checked before the first alpha is solved and printed
    code, out, err = run(capsys, "rho", "W7", "--alphas", "0.5,1.5")
    assert (code, out) == (64, "")
    assert err == "alphax: error: alpha must lie in [0, 1], got 1.5\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "thm11-even", "--n", "8", "--in", "{tmp}/missing.g6"],  # not found
        ["rho", "{tmp}"],  # a directory as a graph file
        ["enumerate", "--n", "5", "--class", "min-2-edge-connected", "--in", "{tmp}"],
        ["verify", "thm11-even", "--n", "8", "--in", "{data}", "--alphas", "0.5",
         "--out", "{tmp}/no/such/dir/x.json"],  # unwritable report path
        ["enumerate", "--n", "4", "--class", "min-2-edge-connected",
         "--out", "{tmp}/no/such/dir/x.g6"],
    ],
)
def test_os_errors_exit_64(tmp_path, capsys, argv):
    code, _, err = run(capsys, *(a.format(tmp=tmp_path, data=CLASS_FILE_N8) for a in argv))
    assert code == 64
    assert err.startswith("alphax: error: [Errno")
    assert "Traceback" not in err


def test_os_error_in_a_fresh_process_has_no_traceback(tmp_path):
    out = subprocess.run(
        [sys.executable, "-m", "alphax.cli", "rho", str(tmp_path)],
        capture_output=True, text=True,
    )
    assert out.returncode == 64
    assert "Traceback" not in out.stderr
    assert "alphax: error:" in out.stderr


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["verify", "thm11-odd", "--n", "7", "--jobs", "2"], "--jobs"),
        (["rho", "W7", "--max-iters", "5"], "--max-iters"),
        # the certificate's n is the graph's order; nothing may override it
        (["certify-colsums", "C8", "--n-param", "9"], "--n-param"),
        (["certify-colsums", "--class", "min-2-edge-connected", "--n", "8",
          "--n-param", "8"], "--n-param"),
        (["bounds", "K2,6", "--tol", "5"], "--tol"),  # bounds solves nothing
        # the eigenpair residual bound is the fixed spectral.RESIDUAL_TOL
        (["verify", "lemmas", "--n", "4", "--tol", "1e-10"], "--tol"),
        (["rho", "C5", "--tol", "nan"], "--tol"),
        (["verify", "thm12", "--n", "7", "--tol", "-1"], "--tol"),
    ],
)
def test_removed_flags_exit_64(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 64
    err = capsys.readouterr().err
    assert f"unrecognized arguments: {flag}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "mode,argv",
    [
        ("verify lemmas", ["--in", "{tmp}/missing.g6"]),
        ("verify lemmas", ["--out", "{tmp}/lemmas.json"]),
        ("verify lemmas", ["--alphas", "0.5"]),
        ("certify-colsums GRAPH", ["--class", "min-3-connected"]),
        ("certify-colsums GRAPH", ["--n", "8"]),
        ("certify-colsums GRAPH", ["--in", "{tmp}/missing.g6"]),
        ("certify-colsums GRAPH", ["--max-degree", "1"]),
    ],
    ids=["lemmas-in", "lemmas-out", "lemmas-alphas",
         "colsums-class", "colsums-n", "colsums-in", "colsums-max-degree"],
)
def test_options_a_mode_ignores_exit_64(tmp_path, capsys, mode, argv):
    base = {"verify lemmas": ["verify", "lemmas", "--n", "4"],
            "certify-colsums GRAPH": ["certify-colsums", "C8"]}[mode]
    code, out, err = run(capsys, *base, *(a.format(tmp=tmp_path) for a in argv))
    assert code == 64
    assert out == ""
    assert err == f"alphax: error: {mode} takes no {argv[0]}\n"
    assert not any(tmp_path.iterdir())  # no report written


def test_unknown_subcommand_exits_64(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["flurp"])
    assert exc.value.code == 64


def test_installed_entry_point_runs():
    out = subprocess.run(
        [sys.executable, "-m", "alphax.cli", "rho", "K2,6", "--alphas", "0.5"],
        capture_output=True, text=True,
    )
    assert out.returncode == 0
    assert "rho=4" in out.stdout


# block-buffered standard streams, as in a pipeline, so that a lost flush shows
BUFFERED = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}


def fresh(*argv):
    """The CLI as its own process, entered through cli.run()."""
    return subprocess.run([sys.executable, "-m", "alphax.cli", *argv],
                          capture_output=True, text=True, env=BUFFERED)


@pytest.mark.parametrize(
    "argv,want",
    [
        (["bounds", "W7", "--alphas", "0.5"], 0),
        (["certify-colsums", "--class", "min-4-connected", "--n", "5", "--alphas", "0.5"], 1),
        (["verify", "thm12"], 64),  # main returns 64
        (["flurp"], 64),  # the parser exits inside main
    ],
    ids=["exit-0", "exit-1", "exit-64-returned", "exit-64-raised"],
)
def test_fresh_process_matches_in_process_main(capsys, argv, want):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    out = fresh(*argv)
    assert code == want
    assert (out.returncode, out.stdout, out.stderr) == (code, captured.out, captured.err)


def test_fresh_process_report_matches_in_process_main(tmp_path):
    argv = ["verify", "thm11-odd", "--n", "7", "--alphas", "0.5,0.75", "--out"]
    assert fresh(*argv, str(tmp_path / "fresh.json")).returncode == 0
    assert main([*argv, str(tmp_path / "main.json")]) == 0
    zero = lambda path: re.sub(r'"runtime_ms": \d+', '"runtime_ms": 0', path.read_text())
    assert zero(tmp_path / "fresh.json") == zero(tmp_path / "main.json")


def test_run_keeps_atexit_handlers():
    code = ("import atexit, sys; from alphax.cli import run; "
            "atexit.register(print, 'atexit ran'); "
            "sys.argv = ['alphax', 'bounds', 'C5', '--alphas', '0.75']; run()")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=BUFFERED)
    assert out.returncode == 0
    assert out.stdout.splitlines()[-1] == "atexit ran"
    assert out.stdout.startswith("n=5 m=5")


@pytest.mark.parametrize("preset,want", [(None, "1"), ("2", "2")])
def test_import_pins_blas_threads_unless_set(preset, want):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    out = subprocess.run(
        [sys.executable, "-c",
         "import os, alphax; print(os.environ['OPENBLAS_NUM_THREADS'])"],
        env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == want


def test_cli_import_generates_no_record_code():
    """The import every CLI process pays loads neither dataclasses (which
    compiles each record's methods) nor csv (which only CSV reports need),
    and still loads numpy and every alphax module the commands use."""
    code = "import sys, alphax.cli; alphax.cli.build_parser(); print(*sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    loaded = set(out.stdout.split())
    assert not {"dataclasses", "csv"} & loaded
    modules = ("_flow", "canonical", "cli", "connectivity", "enumeration", "families",
               "graph", "graph6", "spectral", "verify")
    assert {"numpy", "alphax", *(f"alphax.{m}" for m in modules)} <= loaded


@pytest.mark.parametrize(
    "argv,message",
    [
        (["verify", "lemmas", "--n", "0"], "lemma suite supports 3 <= n <= 7, got 0"),
        (["certify-colsums", "--class", "min-2-connected", "--n", "0"], "n must be positive"),
    ],
    ids=["verify-lemmas", "certify-colsums"],
)
def test_order_zero_is_rejected(capsys, argv, message):
    code, _, err = run(capsys, *argv)
    assert code == 64
    assert err == f"alphax: error: {message}\n"


@pytest.mark.parametrize("source", ["max-degree", "empty-file"])
def test_certify_colsums_with_no_graph_left_exits_64(tmp_path, capsys, source):
    argv = ["certify-colsums", "--class", "min-2-connected", "--n", "5"]
    if source == "max-degree":
        argv += ["--max-degree", "-1"]
    else:
        (tmp_path / "empty.g6").write_text("")
        argv += ["--in", str(tmp_path / "empty.g6")]
    code, out, err = run(capsys, *argv)
    assert code == 64
    assert out == ""
    assert err == "alphax: error: no min-2-connected graph on 5 vertices to check\n"


def test_enumerate_empty_class_file_exits_64(tmp_path, capsys):
    (tmp_path / "empty.g6").write_text("")
    code, out, err = run(capsys, "enumerate", "--n", "8", "--class", "min-2-edge-connected",
                         "--in", str(tmp_path / "empty.g6"))
    assert code == 64
    assert out == ""
    assert err == ("alphax: error: no min-2-edge-connected graph on 8 vertices in "
                   f"{tmp_path / 'empty.g6'}\n")


@pytest.mark.parametrize(
    "token,message",
    [
        ("C2", "cycle needs n >= 3"),
        ("K0", "complete graph needs n >= 1"),
        ("W70", "vertex count 70 outside supported range 1..64"),
    ],
    ids=["C2", "K0", "W70"],
)
def test_family_spec_errors_name_the_family_problem(capsys, token, message):
    code, _, err = run(capsys, "rho", token)
    assert code == 64
    assert err == f"alphax: error: {message}\n"


@pytest.mark.parametrize("token,n", [
    ("K100000", 100000),
    ("P1000000000", 1000000000),
    ("K2,1000000000", 1000000002),
    ("F1000000000", 2000000001),
    ("huge.edges", 1000000000000),
])
def test_oversized_order_exits_64_before_allocating(tmp_path, token, n):
    # a capped address space turns building the edge list first into a
    # MemoryError instead of an exhausted host
    if token.endswith(".edges"):
        token = str(tmp_path / token)
        Path(token).write_text("1000000000000 0\n")
    out = subprocess.run(
        [sys.executable, "-m", "alphax.cli", "rho", token, "--alphas", "0.5"],
        capture_output=True, text=True, preexec_fn=cap_address_space,
    )
    assert out.returncode == 64
    assert out.stderr == f"alphax: error: vertex count {n} outside supported range 1..64\n"
