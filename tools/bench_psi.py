"""Time the transversal search: nodes and seconds for a fixed set of psi calls.

The package is imported from ``src/`` of the checkout holding this script:

    python3 tools/bench_psi.py

Each call runs REPEAT times in this one process, serially and unbudgeted,
with the default reduction.  Node counts do not depend on the machine, so
they compare across machines; the seconds are given with the core count and
the interpreter.  Each call's result is printed, and the whole is written as
JSON to BENCH_psi.json in the current directory.
"""
from __future__ import annotations

import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from modgrid.geometry import CollinearityMode  # noqa: E402
from modgrid.search import psi  # noqa: E402

UNIT, ANY = CollinearityMode.UNIT_LINE, CollinearityMode.ANY_LINE
REPEAT = 3

#: (n, mode): the calls of the psi_serial benchmark workload
CALLS = [(11, UNIT), (12, UNIT), (13, UNIT), (10, ANY)]


def main() -> int:
    rows = []
    for n, mode in CALLS:
        seconds = []
        for _ in range(REPEAT):
            start = time.perf_counter()
            out = psi(n, mode)
            seconds.append(time.perf_counter() - start)
        rows.append({
            "call": f"psi({n}, {mode.value})",
            "value": out.value,
            "exact": out.exact,
            "nodes": out.nodes_explored,
            "pruned": out.nodes_pruned,
            "median_s": round(statistics.median(seconds), 4),
            "seconds": [round(s, 4) for s in seconds],
        })
        print(json.dumps(rows[-1]), flush=True)
    result = {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "repeat": REPEAT,
        "calls": rows,
    }
    with open("BENCH_psi.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
