"""Run benchmark children one at a time for a parent that may grow large.

Usage: python bench/launcher.py  (jobs on stdin, results on stdout)

On Linux a child's peak RSS (``ru_maxrss``) starts at its parent's RSS at
fork time.  The benchmark driver holds numpy and networkx, so children
spawned by it would report at least its size.  This launcher imports almost
nothing, so the peak RSS it reports is the child's own.  Each stdin line is
a JSON job ``{"argv": [...], "stdout": path, "stderr": path}``; for each,
one JSON line ``{"code", "wall_s", "cpu_s", "rss_kb"}`` goes to stdout, with
wall time from spawn to exit and CPU time (user plus system) from wait4.
The working directory and environment are the launcher's own.  It exits at
the end of stdin.
"""

import json
import os
import subprocess
import sys
import time


def main() -> None:
    for line in sys.stdin:
        job = json.loads(line)
        with open(job["stdout"], "wb") as out, open(job["stderr"], "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(job["argv"], stdout=out, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        print(json.dumps({"code": os.waitstatus_to_exitcode(status), "wall_s": wall,
                          "cpu_s": usage.ru_utime + usage.ru_stime,
                          "rss_kb": usage.ru_maxrss}), flush=True)


if __name__ == "__main__":
    main()
