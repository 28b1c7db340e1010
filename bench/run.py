"""alphax campaign benchmark: one closed-loop client, fresh CLI processes.

Usage (from the repository root):

    python3 bench/run.py --workload scan7 --seed 1 --seconds 40 --trace 0

Runs the working tree (PYTHONPATH=src, ALPHAX_JOBS and ALPHAX_KERNELS
cleared).  One pass runs every command of the workload in sequence, each as
a fresh ``python -m alphax.cli`` process; passes repeat while the next one
fits in ``--seconds``, and every output is checked.  Child times are scaled
to a reference host speed (bench/hostspeed.py).  With ``--trace 0`` the
last stdout line holds the end-to-end metrics (means over passes); with
``--trace 1`` traced passes (bench/tracer.py) alternate with untraced ones
and the last line holds the per-layer metrics.  Exits 1 if any output check
fails, and 2 without a result if the repository is not there to run.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from hostspeed import HostClock, Job
from workloads import WORKLOADS, Command, normalized_report

TRACER = Path(__file__).resolve().parent / "tracer.py"
SETUP_PER_ROUND = 3
SETUP_CODE = "import alphax.cli; alphax.cli.build_parser()"
REQUIRED = ("src/alphax/cli.py", "data/min2ec_n8.g6")
# counts that must repeat exactly between traced passes of one seed
EXACT_COUNTS = (
    "kernels.masks_scanned", "kernels.candidates", "kernels.survivors",
    "connectivity.predicate_calls", "connectivity.flow_calls", "canonical.calls",
    "canonical.classes", "spectral.solves", "spectral.iterations",
    "spectral.colsum_calls", "graph6.graphs_parsed",
)


@dataclass
class Pass:
    traced: bool
    wall_s: float = 0.0
    raw_wall_s: float = 0.0  # unscaled, for the log
    cpu_s: float = 0.0
    rss_kb: int = 0
    layers: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)


def child_env(root: Path) -> dict[str, str]:
    """The working tree on the path, and no ALPHAX_JOBS or ALPHAX_KERNELS."""
    env = {k: v for k, v in os.environ.items() if k not in ("ALPHAX_JOBS", "ALPHAX_KERNELS")}
    env["PYTHONPATH"] = str(root / "src")
    return env


class Bench:
    def __init__(self, tmp: Path, clock: HostClock):
        self.tmp = tmp
        self.clock = clock
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first_reports: dict[str, str] = {}

    def fail(self, what: str, problems: list[str]) -> None:
        """Record the problems of one operation; any problem fails it."""
        self.failed += bool(problems)
        self.problems.extend(f"{what}: {p}" for p in problems)

    def run_round(self, commands: list[Command], traced: bool,
                  setups: int) -> tuple[Pass, list[float]]:
        """``setups`` fresh CLI imports, then one pass, as one group of children
        between two host-speed samples.  Returns the pass and the import times."""
        setup_job = Job([sys.executable, "-c", SETUP_CODE],
                        self.tmp / "setup.out", self.tmp / "setup.err")
        jobs = [setup_job] * setups
        for cmd in commands:
            spans = self.tmp / f"{cmd.label}.spans.json"
            if traced:
                argv = [sys.executable, str(TRACER), str(spans), "--", *cmd.args]
            else:
                argv = [sys.executable, "-m", "alphax.cli", *cmd.args]
            if cmd.report_path:
                cmd.report_path.unlink(missing_ok=True)  # never check a stale report
            jobs.append(Job(argv, self.tmp / f"{cmd.label}.out", self.tmp / f"{cmd.label}.err"))
        timed = self.clock.run(jobs)
        self.attempted += len(jobs)
        for proc in timed[:setups]:
            if proc.code != 0:
                self.fail("setup", [f"exit code {proc.code}"])
        result = Pass(traced)
        for cmd, job, proc in zip(commands, jobs[setups:], timed[setups:]):
            result.wall_s += proc.wall_s
            result.raw_wall_s += proc.raw_wall_s
            result.cpu_s += proc.cpu_s
            result.rss_kb = max(result.rss_kb, proc.rss_kb)
            problems = self.check(cmd, proc.code, job.stdout)
            if traced and not problems:
                summary = json.loads((self.tmp / f"{cmd.label}.spans.json").read_text("ascii"))
                merge(result, summary)
            self.fail(f"{cmd.label}{' (traced)' if traced else ''}", problems)
        return result, [proc.wall_s for proc in timed[:setups]]

    def check(self, cmd: Command, code: int, stdout_path: Path) -> list[str]:
        stdout = stdout_path.read_text("ascii", errors="replace")
        try:
            report = cmd.report_path.read_text("ascii") if cmd.report_path else stdout
        except OSError as exc:
            return [f"exit code {code}, no report ({exc})"]
        problems = cmd.check(code, stdout, report)
        # reports must be byte-identical across passes, runtime_ms aside
        report = normalized_report(report)
        first = self.first_reports.setdefault(cmd.label, report)
        if report != first:
            problems.append("report differs from the first pass beyond runtime_ms")
        return problems


def merge(result: Pass, summary: dict) -> None:
    """Add one traced command's span summary to its pass."""
    for name, layer in summary["layers"].items():
        acc = result.layers.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for key in acc:
            acc[key] += layer[key]
    for name, value in summary["counts"].items():
        if name == "worst_residual":
            result.counts[name] = max(result.counts.get(name, 0.0), value)
        else:
            result.counts[name] = result.counts.get(name, 0) + value


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(p: Pass) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass, as (value, unit)."""
    L, C = p.layers, p.counts
    scan, pred, flow = L["kernels.scan"], L["connectivity.predicate"], L["connectivity.flow"]
    canon, solve, colsum = L["canonical"], L["spectral.solve"], L["spectral.colsum"]
    root = L["cli.main"]["total_s"]
    return {
        "kernels.scan_s": (scan["total_s"], "s"),
        "kernels.filter_self_s": (scan["self_s"], "s"),
        "kernels.masks_scanned": (C["masks_scanned"], "count"),
        "kernels.candidates": (C["candidates"], "count"),
        "kernels.survivors": (C["survivors"], "count"),
        "kernels.survivor_ratio": (_ratio(C["survivors"], C["candidates"]), "ratio"),
        "connectivity.predicate_calls": (pred["calls"], "count"),
        "connectivity.predicate_s": (pred["total_s"], "s"),
        "connectivity.accept_ratio": (_ratio(C["accepted"], pred["calls"]), "ratio"),
        "connectivity.flow_calls": (flow["calls"], "count"),
        "connectivity.flow_s": (flow["total_s"], "s"),
        "canonical.calls": (canon["calls"], "count"),
        "canonical.busy_s": (canon["total_s"], "s"),
        "canonical.classes": (C["classes"], "count"),
        "canonical.dedup_ratio": (_ratio(C["classes"], canon["calls"]), "ratio"),
        "spectral.solves": (solve["calls"], "count"),
        "spectral.busy_s": (solve["total_s"], "s"),
        "spectral.iterations": (C["iterations"], "count"),
        "spectral.worst_residual": (C["worst_residual"], "inf-norm"),
        "spectral.colsum_calls": (colsum["calls"], "count"),
        "spectral.colsum_s": (colsum["total_s"], "s"),
        "enumeration.self_s": (L["enumeration.class"]["self_s"], "s"),
        "graph6.parse_s": (L["graph6.parse"]["total_s"], "s"),
        "graph6.graphs_parsed": (C["graphs_parsed"], "count"),
        "verify.self_s": (L["cli.main"]["self_s"], "s"),
        "verify.report_s": (L["verify.report"]["total_s"], "s"),
        "verify.report_bytes": (C["report_bytes"], "bytes"),
        "share.kernels_filter": (_ratio(scan["self_s"], root), "ratio"),
        "share.connectivity": (_ratio(pred["total_s"], root), "ratio"),
        "share.canonical": (_ratio(canon["total_s"], root), "ratio"),
        "share.spectral": (_ratio(solve["total_s"] + colsum["total_s"], root), "ratio"),
    }


def measure(bench: Bench, commands: list[Command], seconds: float, trace: bool):
    """Closed loop: rounds back to back while the next one fits in ``seconds``.

    An untraced round times SETUP_PER_ROUND fresh CLI imports back to back,
    spread over the run so a slow spell of the host cannot skew them all,
    then one pass; a traced round is one pass.
    Traced runs alternate traced and untraced passes, starting and ending
    traced, so there are at least two traced passes to compare counts and
    one untraced pass for the overhead.  Returns (passes, setup times).
    """
    passes: list[Pass] = []
    setup: list[float] = []
    start = time.perf_counter()
    for traced in itertools.cycle([True, False] if trace else [False]):
        result, setup_times = bench.run_round(commands, traced, 0 if trace else SETUP_PER_ROUND)
        passes.append(result)
        setup.extend(setup_times)
        if bench.problems:
            break
        elapsed = time.perf_counter() - start
        if trace and (len(passes) < 3 or not traced):
            continue
        if elapsed + elapsed / len(passes) > seconds:
            break
    return passes, setup


def end_to_end(passes: list[Pass], setup: list[float]) -> dict[str, tuple[float, str]]:
    """Time and CPU per pass are means over the run's passes (its total over
    its pass count): with three to five passes of a slowly drifting host, the
    mean spreads less between runs than the median.  Set-up is the median of
    its many short samples."""
    return {
        "wall_s": (statistics.fmean(p.wall_s for p in passes), "s"),
        "cpu_s": (statistics.fmean(p.cpu_s for p in passes), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (statistics.median(p.rss_kb for p in passes) * 1024 / 1e6, "MB"),
    }


def per_layer(bench: Bench, passes: list[Pass]) -> dict[str, tuple[float, str]]:
    traced = [layer_metrics(p) for p in passes if p.traced]
    untraced_wall = statistics.median(p.wall_s for p in passes if not p.traced)
    traced_wall = statistics.median(p.wall_s for p in passes if p.traced)
    for name in EXACT_COUNTS:
        values = {t[name][0] for t in traced}
        if len(values) > 1:
            bench.fail("trace", [f"{name} differs between traced passes: {sorted(values)}"])
    out = {name: (statistics.median(t[name][0] for t in traced), unit)
           for name, (_, unit) in traced[0].items()}
    out["trace.overhead_ratio"] = (traced_wall / untraced_wall, "ratio")
    return out


def notes(root: Path) -> dict:
    """Machine and code facts recorded with every run, never gated on."""
    probe = subprocess.run(
        [sys.executable, "-c",
         "import importlib.util, numpy; "
         "print(numpy.__version__, importlib.util.find_spec('numba') is not None)"],
        capture_output=True, text=True, cwd=root, check=False)
    numpy_version, has_numba = (probe.stdout.split() + ["?", "?"])[:2]
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], capture_output=True, text=True,
            cwd=root, check=False,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent)),
        ).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    src_lines = sum(len(p.read_text("utf-8").splitlines())
                    for p in sorted((root / "src" / "alphax").glob("*.py")))
    return {"nproc": os.cpu_count(), "python": sys.version.split()[0],
            "numpy": numpy_version, "numba": has_numba, "commit": commit,
            "src_lines": src_lines}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    missing = [p for p in REQUIRED if not (root / p).is_file()]
    if missing:
        print(f"bench: run from the repository root; missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    scratch = root / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        info = notes(root)
        commands = WORKLOADS[args.workload](root, tmp, random.Random(args.seed))
        with HostClock(root, child_env(root)) as clock:
            bench = Bench(tmp, clock)
            bench.run_round([], False, 1)  # warm-up: fills the bytecode cache
            passes, setup = measure(bench, commands, args.seconds, args.trace == 1)
        if args.trace:
            metrics = {} if bench.problems else per_layer(bench, passes)
        else:
            metrics = end_to_end(passes, setup)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:  # another run still uses it
            pass

    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(passes)} setups={len(setup)} "
          + " ".join(f"{k}={v}" for k, v in info.items()))
    print("# pass wall_s (raw): " + " ".join(
        f"{p.wall_s:.3f}{'T' if p.traced else ''} ({p.raw_wall_s:.3f})" for p in passes))
    for problem in bench.problems:
        print(f"# FAILED {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(f"{args.workload} fail_ratio = {_ratio(bench.failed, bench.attempted):.6g} ratio")
    print(json.dumps({
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if not bench.problems else 1


if __name__ == "__main__":
    sys.exit(main())
