"""Tests of the benchmark's own parts: input generator, constants, tracer.

Run from the repository root: python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import warnings
from pathlib import Path

import networkx as nx
import pytest

import gen_ingest
import workloads

ROOT = Path(__file__).resolve().parent.parent


def _graphs(text: str) -> list[nx.Graph]:
    return [nx.from_graph6_bytes(ln.encode()) for ln in text.splitlines()]


def _minimally_2_edge_connected(g: nx.Graph) -> bool:
    """networkx oracle: 2-edge-connected, and no edge can be spared."""
    if not nx.is_k_edge_connected(g, 2):
        return False
    for e in list(g.edges):
        h = g.copy()
        h.remove_edge(*e)
        if nx.is_k_edge_connected(h, 2):
            return False
    return True


def test_same_seed_same_bytes():
    a = gen_ingest.generate(5, count=300)
    b = gen_ingest.generate(5, count=300)
    assert a.text == b.text and a.is_member == b.is_member
    assert gen_ingest.generate(6, count=300).text != a.text


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_members_pass_and_near_misses_fail_the_oracle(n):
    data = gen_ingest.generate(n, count=120, n=n, pool=24)
    graphs = _graphs(data.text)
    assert len(graphs) == 120 and sum(data.is_member) == 84
    for g, member in zip(graphs, data.is_member):
        assert g.number_of_nodes() == n
        assert _minimally_2_edge_connected(g) == member


def test_k2_is_always_a_member_and_bases_give_the_class_count():
    data = gen_ingest.generate(9, count=200, n=8, pool=20)
    members = [g for g, m in zip(_graphs(data.text), data.is_member) if m]
    k2 = nx.complete_bipartite_graph(2, 6)
    assert any(nx.is_isomorphic(g, k2) for g in members)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        assert (gen_ingest.isomorphism_class_count(members)
                == gen_ingest.isomorphism_class_count(data.bases))


def test_maximizer_constants_are_the_named_graphs():
    friendship = nx.Graph([(0, i) for i in range(1, 7)] + [(1, 2), (3, 4), (5, 6)])
    expected = {
        workloads.F3: friendship,
        workloads.W7: nx.wheel_graph(7),
        workloads.K2_6: nx.complete_bipartite_graph(2, 6),
        workloads.K2_10: nx.complete_bipartite_graph(2, 10),
    }
    for text, graph in expected.items():
        assert nx.is_isomorphic(nx.from_graph6_bytes(text.encode()), graph)


def test_alpha_grid_is_stratified_and_seeded():
    grid = workloads.alpha_grid(random.Random(3), 128)
    assert grid == workloads.alpha_grid(random.Random(3), 128)
    values = [float(a) for a in grid]
    assert values == sorted(values)
    assert workloads.ALPHA_LO <= values[0] and values[-1] <= workloads.ALPHA_HI


def test_tracer_sees_every_layer_of_a_scan(tmp_path):
    spans = tmp_path / "spans.json"
    out = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "tracer.py"), str(spans), "--",
         "enumerate", "--n", "5", "--class", "min-2-edge-connected"],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, check=True,
    )
    summary = json.loads(spans.read_text())
    layers, counts = summary["layers"], summary["counts"]
    classes = len(out.stdout.splitlines())
    assert counts["classes"] == classes > 0
    assert layers["kernels.scan"]["calls"] == 1
    assert counts["candidates"] == layers["connectivity.predicate"]["calls"] > 0
    assert counts["survivors"] == counts["accepted"] == layers["canonical"]["calls"]
    assert layers["connectivity.flow"]["calls"] > 0
    assert counts["masks_scanned"] == 1 << 10
    for layer in layers.values():
        assert 0 <= layer["self_s"] <= layer["total_s"] + 1e-9


def test_metric_names_match_benchmark_json():
    import run
    import tracer

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {name for _, _, name in tracer.WRAPPED} | {tracer.ROOT}
    fake = run.Pass(traced=True)
    fake.layers = {name: {"calls": 1, "total_s": 1.0, "self_s": 0.5} for name in names}
    fake.counts = {key: 1 for key in tracer.Tracer().counts} | {"candidates": 1}
    layer = run.layer_metrics(fake)
    layer["trace.overhead_ratio"] = (1.0, "ratio")
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (_, unit) in layer.items()}
    e2e = run.end_to_end([run.Pass(traced=False, wall_s=1.0, cpu_s=1.0, rss_kb=1)], [1.0])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        name: unit for name, (_, unit) in e2e.items()}


def test_launcher_reports_the_childs_own_peak_rss_and_exit_code(tmp_path):
    import hostspeed

    ballast = bytearray(64 << 20)  # this process is now far larger than a bare interpreter
    ballast[::4096] = b"x" * len(ballast[::4096])
    jobs = [hostspeed.Job([sys.executable, "-c", f"raise SystemExit({code})"],
                          tmp_path / "out", tmp_path / "err") for code in (0, 3)]
    with hostspeed.HostClock(ROOT, dict(os.environ), warmup=0) as clock:
        timed = clock.run(jobs)
        launcher = clock.launcher
    assert launcher.returncode == 0
    assert [t.code for t in timed] == [0, 3]
    assert all(t.rss_kb < 48 << 10 for t in timed)
    assert all(t.wall_s > 0 and t.raw_wall_s > 0 for t in timed)


def test_scaled_times_follow_the_calibration_ratio(tmp_path, monkeypatch):
    import hostspeed

    samples = iter([0.2, 0.1])  # at start, after the group: mean 0.15
    monkeypatch.setattr(hostspeed.HostClock, "sample", lambda self: next(samples))
    job = hostspeed.Job([sys.executable, "-c", "pass"], tmp_path / "out", tmp_path / "err")
    with hostspeed.HostClock(ROOT, dict(os.environ), warmup=0) as clock:
        (timed,) = clock.run([job])
    assert timed.wall_s == pytest.approx(timed.raw_wall_s * hostspeed.CAL_REF_S / 0.15)
