"""Time the grid-subset searches: nodes and seconds for a fixed set of calls.

The package is imported from ``src/`` of the checkout holding this script:

    python3 tools/bench_grid.py

Each call runs REPEAT times in this one process, unbudgeted.  Node counts
do not depend on the machine, so they compare across machines; the seconds
are given with the core count and the interpreter.  Each call's result is
printed, and the whole is written as JSON to BENCH_grid.json in the
current directory.
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
from modgrid.search import ct0_subsets, max_triple_free_subset  # noqa: E402

UNIT, ANY = CollinearityMode.UNIT_LINE, CollinearityMode.ANY_LINE
REPEAT = 3

#: (search, n, mode)
CALLS = [
    (max_triple_free_subset, 5, UNIT),
    (max_triple_free_subset, 5, ANY),
    (max_triple_free_subset, 6, UNIT),
    (max_triple_free_subset, 7, UNIT),
    (ct0_subsets, 4, UNIT),
    (ct0_subsets, 4, ANY),
    (ct0_subsets, 5, UNIT),
    (ct0_subsets, 5, ANY),
]


def main() -> int:
    rows = []
    for search, n, mode in CALLS:
        seconds = []
        for _ in range(REPEAT):
            start = time.perf_counter()
            out = search(n, mode)
            seconds.append(time.perf_counter() - start)
        rows.append({
            "call": f"{search.__name__}({n}, {mode.value})",
            "value": out.value,
            "exact": out.exact,
            "nodes": out.nodes_explored,
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
    with open("BENCH_grid.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
