"""Run one alphax CLI command in this process with per-layer spans.

Usage: python bench/tracer.py SPANS.json -- <alphax cli arguments>

The package is not modified.  Each layer's public function is replaced, at
the module attribute where its callers look it up, by a wrapper that records
a span (name, start, end, parent) in memory and a few counts taken from the
call's arguments or result.  Wrapping ``alphax.canonical.canonical_form``
alone would miss calls, because ``alphax.enumeration`` imports the name
directly; hence the (module, attribute) pairs below.  When the command ends,
the spans are reduced to per-layer calls, inclusive and self time, and
written to SPANS.json together with the counts; the report still goes to
stdout or to the command's ``--out`` file, as without tracing.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array

import numpy as np

# (module, attribute, span name); one span name may cover several functions
WRAPPED = [
    ("alphax.kernels", "scan_masks", "kernels.scan"),
    ("alphax.connectivity", "is_minimally_k_edge_connected", "connectivity.predicate"),
    ("alphax.connectivity", "is_minimally_k_connected", "connectivity.predicate"),
    ("alphax._flow", "edge_disjoint_paths", "connectivity.flow"),
    ("alphax._flow", "vertex_disjoint_paths", "connectivity.flow"),
    ("alphax.enumeration", "canonical_form", "canonical"),
    ("alphax.verify", "spectral_radius", "spectral.solve"),
    ("alphax.cli", "column_sum_certificate", "spectral.colsum"),
    ("alphax.verify", "enumerate_class", "enumeration.class"),
    ("alphax.verify", "ingest_class", "enumeration.class"),
    ("alphax.cli", "enumerate_class", "enumeration.class"),
    ("alphax.cli", "ingest_class", "enumeration.class"),
    ("alphax.cli", "parse_graph6_lines", "graph6.parse"),
    ("alphax.verify", "reports_to_json", "verify.report"),
]
ROOT = "cli.main"


def _count_result(counts: dict, name: str, args, result) -> None:
    """Counts that only the arguments or the result of a span can give."""
    if name == "kernels.scan":
        n = args[0]
        counts["masks_scanned"] += 1 << (n * (n - 1) // 2)
        counts["survivors"] += len(result)
    elif name == "connectivity.predicate":
        counts["accepted"] += bool(result)
    elif name == "spectral.solve":
        counts["iterations"] += result.iterations
        counts["worst_residual"] = max(counts["worst_residual"], result.residual)
    elif name == "enumeration.class":
        counts["classes"] += len(result)
    elif name == "graph6.parse":
        counts["graphs_parsed"] += len(result)
    elif name == "verify.report":
        counts["report_bytes"] += len(result)


class Tracer:
    """Spans kept in flat arrays: name id, parent index, start, end."""

    def __init__(self):
        self.name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counts = {
            "masks_scanned": 0, "survivors": 0, "accepted": 0, "iterations": 0,
            "worst_residual": 0.0, "classes": 0, "graphs_parsed": 0, "report_bytes": 0,
        }

    def wrap(self, fn, name: str):
        nid = self.name_ids.setdefault(name, len(self.name_ids))
        span_name, parent, start, end = self.span_name, self.parent, self.start, self.end
        stack, counts, clock = self.stack, self.counts, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(start)
            span_name.append(nid)
            parent.append(stack[-1] if stack else -1)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            _count_result(counts, name, args, result)
            return result

        return traced

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds."""
        names = np.frombuffer(self.span_name, dtype=np.int32)
        parents = np.frombuffer(self.parent, dtype=np.int64)
        dur = (np.frombuffer(self.end, dtype=np.float64)
               - np.frombuffer(self.start, dtype=np.float64))
        child = np.zeros(len(dur))
        nested = parents >= 0
        np.add.at(child, parents[nested], dur[nested])
        layers = {}
        for name, nid in self.name_ids.items():
            sel = names == nid
            layers[name] = {
                "calls": int(sel.sum()),
                "total_s": float(dur[sel].sum()),
                "self_s": float((dur[sel] - child[sel]).sum()),
            }
        # predicate calls made by the scan are the candidates its cheap filter passed
        under_scan = nested & (names[np.maximum(parents, 0)] == self.name_ids["kernels.scan"])
        pred = names == self.name_ids["connectivity.predicate"]
        candidates = int((under_scan & pred).sum())
        return {"layers": layers, "counts": dict(self.counts, candidates=candidates)}


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SPANS.json -- <alphax cli arguments>", file=sys.stderr)
        return 64
    out_path, cli_args = argv[0], argv[2:]
    tracer = Tracer()
    for module, attr, name in WRAPPED:
        mod = importlib.import_module(module)
        setattr(mod, attr, tracer.wrap(getattr(mod, attr), name))
    cli = importlib.import_module("alphax.cli")
    run = tracer.wrap(cli.main, ROOT)
    try:
        code = run(cli_args)
    except SystemExit as exc:  # argparse exits on usage errors
        code = exc.code if isinstance(exc.code, int) else 1
    sys.stdout.flush()
    with open(out_path, "w", encoding="ascii") as fh:
        json.dump(tracer.summary(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
