import os
import subprocess
import sys

import pytest

from alphax import kernels
from alphax.graph import Graph
from alphax.enumeration import ClassFilter, scan_plan

BACKENDS = ["numpy"] + (["numba"] if kernels.HAS_NUMBA else [])

SCAN_CASES = [
    (4, kernels.KIND_CONNECTED, 1),
    (5, kernels.KIND_MIN_EDGE, 2),
    (6, kernels.KIND_MIN_EDGE, 2),
    (6, kernels.KIND_MIN_VERTEX, 3),
]


def plan_for(n, kind, k):
    name = {
        kernels.KIND_CONNECTED: "all-connected",
        kernels.KIND_MIN_EDGE: f"min-{k}-edge-connected",
        kernels.KIND_MIN_VERTEX: f"min-{k}-connected",
    }[kind]
    flt = ClassFilter.parse(name)
    lo, hi, dmin, _ = scan_plan(n, flt)
    return flt, lo, hi, dmin


@pytest.mark.skipif(not kernels.HAS_NUMBA, reason="numba not installed")
@pytest.mark.parametrize("n,kind,k", SCAN_CASES)
def test_scan_backends_agree_exactly(n, kind, k):
    _, lo, hi, dmin = plan_for(n, kind, k)
    a = kernels.scan_masks(n, kind, k, lo, hi, dmin, backend="numba")
    b = kernels.scan_masks(n, kind, k, lo, hi, dmin, backend="numpy")
    assert a == b
    assert a == sorted(a)


@pytest.mark.parametrize("backend", BACKENDS)
def test_scan_masks_decode_to_class_members(backend):
    flt, lo, hi, dmin = plan_for(5, kernels.KIND_MIN_EDGE, 2)
    masks = kernels.scan_masks(5, kernels.KIND_MIN_EDGE, 2, lo, hi, dmin, backend=backend)
    assert masks
    for mask in masks:
        g = Graph.from_edge_mask(5, mask)
        assert flt.passes(g)
        degs = g.degrees()
        assert degs == sorted(degs, reverse=True)  # the scan's labeling filter


def test_unsorted_scan_is_a_superset():
    flt, lo, hi, dmin = plan_for(5, kernels.KIND_MIN_EDGE, 2)
    small = set(kernels.scan_masks(5, 1, 2, lo, hi, dmin, backend="numpy"))
    full = set(
        kernels.scan_masks(5, 1, 2, lo, hi, dmin, require_sorted=False, backend="numpy")
    )
    assert small <= full
    # the full scan is exactly the labeled membership list
    want = {
        g.edge_mask()
        for g in (Graph.from_edge_mask(5, m) for m in range(1 << 10))
        if flt.passes(g)
    }
    assert full == want


def test_single_vertex_scan():
    assert kernels.scan_masks(1, kernels.KIND_CONNECTED, 1, 0, 0, 0) == [0]


def test_resolve_backend_names():
    assert kernels._resolve("numpy") == "numpy"
    with pytest.raises(ValueError):
        kernels._resolve("fortran")
    if kernels.HAS_NUMBA:
        assert kernels._resolve("numba") == "numba"
        assert kernels._resolve(None) in ("numba", "numpy")


def test_env_flag_selects_numpy_backend():
    code = (
        "from alphax import kernels; "
        "print(kernels.DEFAULT_BACKEND)"
    )
    env = dict(os.environ, ALPHAX_KERNELS="numpy")
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "numpy"
