import json
import subprocess
import sys

import pytest

from alphax.cli import main
from alphax.graph6 import parse_graph6_lines, write_graph6
from alphax.families import make_cycle, make_wheel
from alphax.graph import format_edge_list


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
    assert "is_minimally_k_edge_connected: True" in out
    assert "vertex_connectivity: 2" in out


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
    assert "verified" in err.lower() or "ok" in err.lower() or err


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


def test_verify_lemmas(capsys):
    code, out, _ = run(capsys, "verify", "lemmas", "--n", "5")
    assert code == 0
    assert "violation" in out.lower() or out.strip()


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


def test_edge_list_file_input(tmp_path, capsys):
    path = tmp_path / "wheel.edges"
    path.write_text(format_edge_list(make_wheel(7)))
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
    assert run(capsys, "enumerate", "--n", "9", "--class", "min-2-edge-connected")[0] == 64
    assert run(capsys, "certify-colsums", "--alphas", "0.5")[0] == 64  # no target


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["verify", "thm11-odd", "--n", "7", "--jobs", "2"], "--jobs"),
        (["rho", "W7", "--max-iters", "5"], "--max-iters"),
    ],
)
def test_removed_flags_exit_64(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 64
    err = capsys.readouterr().err
    assert f"unrecognized arguments: {flag}" in err
    assert "Traceback" not in err


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
