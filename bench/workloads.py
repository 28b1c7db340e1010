"""The three campaign workloads: seeded inputs, CLI commands and output checks.

Each workload is a list of alphax CLI commands that run one after another as
fresh processes.  The seed decides only the inputs (alpha grids, the ingest
file); the program sees nothing but the generated command lines and files.

* ``scan7``: the built-in labelled scan at n=7 for two classes.
* ``sweep8``: 23 shipped n=8 members over 128 alphas; the scan is bypassed
  and the spectral solve dominates.
* ``ingest12``: 2,000 seeded labelled graphs on 12 vertices, about 70 %
  members, pushed through the ingest path at the canonical-form size cap.
"""

from __future__ import annotations

import json
import random
import re
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# Canonical graph6 (alphax column order) of the maximizers the theorems name.
# test_bench.py checks with networkx that each string is the named graph.
F3 = "F`?Nw"          # friendship graph F_3, n=7
W7 = "FqG^w"          # wheel W_7
K2_6 = "G??F~w"       # K_{2,6}
K2_10 = "K???????F~~}"  # K_{2,10}

CLASS_FILE_N8 = "data/min2ec_n8.g6"
ALPHA_LO, ALPHA_HI = 0.5, 0.99
INGEST_COUNT = 2000
INGEST_N = 12
INGEST_ALPHAS = ["0.5", "0.75"]

_RUNTIME_MS = re.compile(r'"runtime_ms": \d+')


@dataclass(frozen=True)
class Command:
    """One CLI run.  ``check(exit_code, stdout, report)`` lists what is wrong."""

    label: str
    args: list[str]
    report_path: Path | None  # the --out file; None means the report is stdout
    check: Callable[[int, str, str], list[str]]


def normalized_report(text: str) -> str:
    """The report with its one run-dependent field blanked."""
    return _RUNTIME_MS.sub('"runtime_ms": 0', text)


def alpha_grid(rng: random.Random, count: int) -> list[str]:
    """One alpha drawn from each of ``count`` equal strata of [ALPHA_LO, ALPHA_HI].

    Stratifying keeps the spectral work of different seeds nearly equal.
    """
    width = (ALPHA_HI - ALPHA_LO) / count
    return [f"{ALPHA_LO + width * (i + rng.random()):.6f}" for i in range(count)]


def _check_reports(alphas, class_size: int, argmax: str):
    want = [float(a) for a in alphas]

    def check(code: int, stdout: str, report: str) -> list[str]:
        problems = [] if code == 0 else [f"exit code {code}"]
        try:
            reports = json.loads(report)
        except ValueError as exc:
            return problems + [f"report is not JSON ({exc})"]
        if [r.get("alpha") for r in reports] != want:
            problems.append("report alphas differ from the requested grid")
        sizes = {r.get("class_size") for r in reports} - {class_size}
        if sizes:
            problems.append(f"class sizes {sorted(sizes)}, expected {class_size}")
        wrong = {r.get("argmax_canonical") for r in reports
                 if r.get("argmax_canonical") != argmax
                 or r.get("argmax_matches_expected") is not True}
        if wrong:
            problems.append(f"argmax {sorted(map(str, wrong))}, expected {argmax!r}")
        return problems

    return check


def _check_colsums(graph_count: int, alpha_count: int):
    want = f"checked {graph_count} graphs x {alpha_count} alphas: all column sums negative"

    def check(code: int, stdout: str, report: str) -> list[str]:
        problems = [] if code == 0 else [f"exit code {code}"]
        if stdout.strip() != want:
            problems.append(f"certify-colsums printed {stdout.strip()!r}, expected {want!r}")
        return problems

    return check


def scan7(root: Path, tmp: Path, rng: random.Random) -> list[Command]:
    alphas = alpha_grid(rng, 5)
    grid = ",".join(alphas)
    return [
        Command("thm11-odd", ["verify", "thm11-odd", "--n", "7", "--alphas", grid],
                None, _check_reports(alphas, 11, F3)),
        Command("thm12", ["verify", "thm12", "--n", "7", "--alphas", grid],
                None, _check_reports(alphas, 5, W7)),
    ]


def sweep8(root: Path, tmp: Path, rng: random.Random) -> list[Command]:
    import networkx as nx

    alphas = alpha_grid(rng, 128)
    grid = ",".join(alphas)
    lines = [ln for ln in (root / CLASS_FILE_N8).read_text("ascii").splitlines() if ln.strip()]
    low_degree = sum(
        1 for ln in lines
        if max(d for _, d in nx.from_graph6_bytes(ln.encode()).degree()) <= 5
    )
    out = tmp / "sweep8.json"
    return [
        Command("thm11-even",
                ["verify", "thm11-even", "--n", "8", "--in", CLASS_FILE_N8,
                 "--alphas", grid, "--out", str(out)],
                out, _check_reports(alphas, len(lines), K2_6)),
        Command("certify-colsums",
                ["certify-colsums", "--class", "min-2-edge-connected", "--n", "8",
                 "--in", CLASS_FILE_N8, "--max-degree", "5", "--alphas", grid],
                None, _check_colsums(low_degree, len(alphas))),
    ]


def ingest12(root: Path, tmp: Path, rng: random.Random) -> list[Command]:
    import gen_ingest

    data = gen_ingest.generate(rng.randrange(1 << 32), INGEST_COUNT, INGEST_N)
    path = tmp / "ingest12.g6"
    path.write_text(data.text, "ascii")
    with warnings.catch_warnings():
        # networkx warns that its WL hashes changed in 3.5; only equality matters here
        warnings.simplefilter("ignore", UserWarning)
        classes = gen_ingest.isomorphism_class_count(data.bases)
    return [
        Command("thm11-even",
                ["verify", "thm11-even", "--n", str(INGEST_N), "--in", str(path),
                 "--alphas", ",".join(INGEST_ALPHAS)],
                None, _check_reports(INGEST_ALPHAS, classes, K2_10)),
    ]


WORKLOADS = {"scan7": scan7, "sweep8": sweep8, "ingest12": ingest12}
