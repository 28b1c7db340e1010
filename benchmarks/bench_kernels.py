"""Compare the numba and numpy kernel backends.

Times the labeled edge-subset scan, the hot loop of class enumeration, on
both backends and prints a small table.

Usage:
    python3 benchmarks/bench_kernels.py [--scan-n 7] [--repeat 3]
"""

import argparse
import time

from alphax import kernels
from alphax.enumeration import ClassFilter, scan_plan


def time_call(fn, repeat):
    best = float("inf")
    result = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def bench_scan(n, class_name, backends, repeat):
    flt = ClassFilter.parse(class_name)
    lo, hi, dmin, _ = scan_plan(n, flt)
    rows = []
    baseline = None
    for backend in backends:
        fn = lambda: kernels.scan_masks(
            n, flt.kind_code(), flt.k, lo, hi, dmin, backend=backend
        )
        fn()  # warm up (jit compile / cache load)
        secs, masks = time_call(fn, repeat)
        if baseline is None:
            baseline = masks
        elif masks != baseline:
            raise SystemExit(f"backend disagreement in scan n={n} {class_name}")
        rows.append((f"scan {class_name} n={n}", backend, secs, f"{len(masks)} masks"))
    return rows


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--scan-n", type=int, default=7, help="order for the scan benchmark")
    ap.add_argument("--repeat", type=int, default=3, help="take the best of this many runs")
    args = ap.parse_args()

    backends = (["numba"] if kernels.HAS_NUMBA else []) + ["numpy"]
    if not kernels.HAS_NUMBA:
        print("note: numba unavailable, timing the numpy fallback only")

    rows = []
    rows += bench_scan(args.scan_n, "min-2-edge-connected", backends, args.repeat)
    rows += bench_scan(min(args.scan_n - 1, 6), "all-connected", backends, args.repeat)

    width = max(len(r[0]) for r in rows)
    print(f"{'task':<{width}}  {'backend':<7}  {'seconds':>9}  result")
    for task, backend, secs, note in rows:
        print(f"{task:<{width}}  {backend:<7}  {secs:>9.4f}  {note}")


if __name__ == "__main__":
    main()
