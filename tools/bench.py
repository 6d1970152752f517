"""Time the searches: nodes and seconds for a fixed set of calls per topic.

The package is imported from ``src/`` of the checkout holding this script:

    python3 tools/bench.py

Each call of each topic in TOPICS runs REPEAT times in this one process,
serially and unbudgeted, with its defaults.  Node counts do not depend on
the machine, so they compare across machines; the seconds, and the nodes
per second of the median run, are given with the core count and the
interpreter.  Each call's result is printed, and
each topic is written as JSON to BENCH_<topic>.json in the current
directory.
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
from modgrid.search import (  # noqa: E402
    ct0_subsets, lex_least_with_count, max_triple_free_subset, psi,
)

UNIT, ANY = CollinearityMode.UNIT_LINE, CollinearityMode.ANY_LINE
REPEAT = 3

#: topic -> (search, n, mode) calls; the psi calls are those of the
#: psi_serial benchmark workload
TOPICS = {
    "psi": [
        (psi, 11, UNIT), (psi, 12, UNIT), (psi, 13, UNIT), (psi, 10, ANY),
        (lex_least_with_count, 11, UNIT), (lex_least_with_count, 13, UNIT),
    ],
    "grid": [
        (max_triple_free_subset, 5, UNIT), (max_triple_free_subset, 5, ANY),
        (max_triple_free_subset, 6, UNIT), (max_triple_free_subset, 7, UNIT),
        (ct0_subsets, 4, UNIT), (ct0_subsets, 4, ANY),
        (ct0_subsets, 5, UNIT), (ct0_subsets, 5, ANY),
    ],
}


def main() -> int:
    for topic, calls in TOPICS.items():
        rows = []
        for search, n, mode in calls:
            seconds = []
            for _ in range(REPEAT):
                start = time.perf_counter()
                out = search(n, mode=mode)
                seconds.append(time.perf_counter() - start)
            rows.append({
                "call": f"{search.__name__}({n}, {mode.value})",
                "value": out.value,
                "exact": out.exact,
                "nodes": out.nodes_explored,
                "pruned": out.nodes_pruned,
                "median_s": round(statistics.median(seconds), 4),
                "nodes_per_s": round(out.nodes_explored / statistics.median(seconds)),
                "seconds": [round(s, 4) for s in seconds],
            })
            print(json.dumps(rows[-1]), flush=True)
        result = {
            "cores": os.cpu_count(),
            "python": platform.python_version(),
            "repeat": REPEAT,
            "calls": rows,
        }
        with open(f"BENCH_{topic}.json", "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
