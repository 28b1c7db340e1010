"""Child-process timing corrected for the host's current speed.

The benchmark runs on shared virtual CPUs whose speed swings by tens of
percent within seconds and drifts over minutes, so raw wall times of the
same command spread too widely to compare two commits.  ``HostClock``
therefore takes a speed sample (the mean time of CAL_SAMPLES runs of a fixed
calibration job, in this process) after every group of children it runs,
and scales each child's times by CAL_REF_S over the mean of the samples just
before and just after its group.  That is the time the child would have
taken at the reference speed, at which the calibration job takes CAL_REF_S.
Samples are taken between children, never while one runs: on a shared
2-core VM two busy processes at once slow each other by up to a half.  Children are
started by bench/launcher.py, a small process, so that their peak RSS is
their own and not this process's.

The calibration job is the benchmark's own code, never the program's, so a
change to the program moves the scaled times as it moves the raw ones at a
steady host speed.  bench/README.md ("Host-speed scaling") gives the
spreads between runs with and without it.
"""

from __future__ import annotations

import itertools
import json
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

LAUNCHER = Path(__file__).resolve().parent / "launcher.py"
CAL_SAMPLES = 10    # calibration jobs per speed sample, about 1 s
CAL_REF_S = 0.085  # calibration job time at the reference speed: a typical spell of a 2-core Xeon VM

_CAL_N = 509
_CAL_GRAPH = [((v * 5 + 1) % _CAL_N, (v * 11 + 7) % _CAL_N, (v + 1) % _CAL_N)
              for v in range(_CAL_N)]
_CAL_EDGES = [(v, (3 * v + 1) % 9) for v in range(9)]
_CAL_MATRIX = np.add.outer(np.arange(24.0), np.arange(24.0)) % 5 + 1.0


def calibration_job() -> float:
    """Fixed work in three parts, each like one of the program's layers:
    breadth-first searches (connectivity), relabelling a small graph under
    permutations and keeping the least edge tuple (canonical labelling), and
    small numpy power iterations (spectral).  Returns its wall time.

    It allocates little: children are forked from this process, and a large
    heap here would show in their peak RSS."""
    t0 = time.perf_counter()
    reached = 0
    for source in range(0, _CAL_N, 2):
        seen = {source}
        frontier = [source]
        while frontier:
            nxt = []
            for v in frontier:
                for w in _CAL_GRAPH[v]:
                    if w not in seen:
                        seen.add(w)
                        nxt.append(w)
            frontier = nxt
        reached += len(seen)
    least = None
    for perm in itertools.islice(itertools.permutations(range(9)), 3000):
        edges = tuple(sorted((min(perm[a], perm[b]), max(perm[a], perm[b]))
                             for a, b in _CAL_EDGES))
        if least is None or edges < least:
            least = edges
    x = np.ones(len(_CAL_MATRIX))
    for _ in range(3000):
        x = _CAL_MATRIX @ x
        x /= np.abs(x).max()
    if (reached != len(range(0, _CAL_N, 2)) * _CAL_N or least is None
            or not np.isfinite(x).all()):
        raise RuntimeError("calibration job computed a wrong result")
    return time.perf_counter() - t0


@dataclass
class Job:
    argv: list[str]
    stdout: Path
    stderr: Path


@dataclass
class Timed:
    code: int
    wall_s: float  # spawn to exit, at the reference speed
    cpu_s: float   # user plus system, scaled like wall_s
    rss_kb: int
    raw_wall_s: float


class HostClock:
    """Runs children through bench/launcher.py and scales their times.

    Use as a context manager: leaving it closes the launcher and waits for
    it, or kills its process group if the benchmark stops early.
    """

    def __init__(self, cwd: Path, env: dict[str, str], warmup: int = 3):
        self.launcher = subprocess.Popen(
            [sys.executable, str(LAUNCHER)], cwd=cwd, env=env, text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, start_new_session=True)
        for _ in range(warmup):
            calibration_job()
        self.last = self.sample()

    def __enter__(self) -> HostClock:
        return self

    def __exit__(self, exc_type, *_) -> None:
        self.launcher.stdin.close()
        if exc_type is not None:
            try:
                os.killpg(self.launcher.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        self.launcher.wait()
        self.launcher.stdout.close()

    def sample(self) -> float:
        return sum(calibration_job() for _ in range(CAL_SAMPLES)) / CAL_SAMPLES

    def run(self, jobs: list[Job]) -> list[Timed]:
        """Run ``jobs`` one after another, then take a speed sample."""
        raw = [self._run_one(job) for job in jobs]
        before, self.last = self.last, self.sample()
        scale = CAL_REF_S / ((before + self.last) / 2)
        return [Timed(r["code"], r["wall_s"] * scale, r["cpu_s"] * scale, r["rss_kb"],
                      r["wall_s"])
                for r in raw]

    def _run_one(self, job: Job) -> dict:
        self.launcher.stdin.write(json.dumps(
            {"argv": job.argv, "stdout": str(job.stdout), "stderr": str(job.stderr)}) + "\n")
        self.launcher.stdin.flush()
        line = self.launcher.stdout.readline()
        if not line:
            raise RuntimeError(f"launcher exited with code {self.launcher.wait()}")
        return json.loads(line)
