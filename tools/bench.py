"""Time the searches and the counts: seconds and work for fixed calls per topic.

The package is imported from ``src/`` of the checkout holding this script:

    python3 tools/bench.py [TOPIC ...]

With no TOPIC every topic in TOPICS runs.  Each call of a topic runs REPEAT
times in this one process, serially and unbudgeted, with its defaults; the
"deep" topic's psi calls, each several seconds, run once.  A
search row gives its nodes, which do not depend on the machine, so they
compare across machines, and the nodes per second of the median run; a
count row gives its pairs, C(m, 2) for m points, and the pairs per second.
The "large" topic instead runs each budgeted call of the README's memory
table REPEAT times, each in a fresh interpreter, and gives the seconds of
the whole child process and its peak RSS.  The "pack" topic runs its
``t_exact`` calls the same way, so the DP cache starts cold each time, and
also gives the median seconds of the calls alone (``call_s``).  The "cli"
topic runs each ``modgrid`` command line the same way and gives its exit
code.  The "import" topic runs ``import modgrid`` in REPEATS["import"] fresh
interpreters, each importing nothing else first, and gives the modules the
import adds and the median and quartiles of its milliseconds, timed in the
child.
The seconds are given with the core count and the interpreter.  Each call's
result is printed, and each topic is written as JSON to BENCH_<topic>.json
in the current directory.
"""
from __future__ import annotations

import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from math import comb
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
sys.path.insert(0, SRC)

from modgrid.census import count_quadruples, count_triples  # noqa: E402
from modgrid.constructions import inverse_permutation  # noqa: E402
from modgrid.geometry import CollinearityMode  # noqa: E402
from modgrid.search import (  # noqa: E402
    ct0_subsets, lex_least_with_count, max_triple_free_subset, psi,
)
from same_output import RANDOM_CASES, grid_cases, random_cases  # noqa: E402

UNIT, ANY = CollinearityMode.UNIT_LINE, CollinearityMode.ANY_LINE
REPEAT = 5
#: runs of each call of a topic, REPEAT where not listed
REPEATS = {"deep": 1, "import": 21}
#: seed of the random transversals of the census topic
SEED = 1


def _searches(calls):
    """(label, call, report) for each (search, n, mode): the report reads
    the outcome and the median seconds."""
    return [(f"{search.__name__}({n}, {mode.value})",
             lambda search=search, n=n, mode=mode: search(n, mode=mode),
             lambda out, s: {"value": out.value, "exact": out.exact,
                             "nodes": out.nodes_explored, "pruned": out.nodes_pruned,
                             "nodes_per_s": round(out.nodes_explored / s)})
            for search, n, mode in calls]


def _counts(sets):
    """(label, call, report) of count_triples and count_quadruples for each
    (name, sigma, mode) transversal."""
    rows = []
    for name, sigma, mode in sets:
        n, pts = len(sigma), list(enumerate(sigma))
        pairs = comb(n, 2)
        for count in (count_triples, count_quadruples):
            rows.append((f"{count.__name__}({name}, {n}, {mode.value})",
                         lambda count=count, pts=pts, n=n, mode=mode: count(pts, n, mode),
                         lambda out, s, pairs=pairs: {"value": out, "pairs": pairs,
                                                      "pairs_per_s": round(pairs / s)}))
    return rows


#: the child of a "large" call: argv[1] is the source directory, argv[2]
#: the call; it prints the outcome and its own peak RSS as JSON
_CHILD = """\
import json, resource, sys
sys.path.insert(0, sys.argv[1])
from modgrid.geometry import CollinearityMode
from modgrid.search import SearchBudget, ct0_subsets, max_triple_free_subset, psi
ANY = CollinearityMode.ANY_LINE
out = eval(sys.argv[2])
rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps({"value": out.value, "exact": out.exact, "nodes": out.nodes_explored,
                  "peak_rss_mb": round(rss / 1024, 1)}))
"""


def _fresh(calls):
    """(label, call, report) for each call, a Python expression run in a
    fresh interpreter (see _CHILD)."""
    return [(call,
             lambda call=call: json.loads(subprocess.run(
                 [sys.executable, "-c", _CHILD, SRC, call],
                 check=True, capture_output=True, text=True).stdout),
             lambda out, s: out)
            for call in calls]


#: the child of a "pack" call: argv[2] is a JSON list of (K, L); it prints
#: the optima found, the seconds of the calls and its own peak RSS as JSON
_PACK_CHILD = """\
import json, resource, sys, time
sys.path.insert(0, sys.argv[1])
from modgrid.packing import t_exact
start = time.perf_counter()
optima = sum(len(t_exact(K, L).optima) for K, L in json.loads(sys.argv[2]))
seconds = time.perf_counter() - start
rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps({"optima": optima, "call_s": round(seconds, 4),
                  "peak_rss_mb": round(rss / 1024, 1)}))
"""


def _pack(calls):
    """(label, call, report) for each (label, list of (K, L)), run in a
    fresh interpreter (see _PACK_CHILD); the report's ``call_s`` is the
    median over the runs."""
    rows = []
    for label, cases in calls:
        call_s: list[float] = []

        def call(cases=cases, call_s=call_s):
            out = json.loads(subprocess.run(
                [sys.executable, "-c", _PACK_CHILD, SRC, json.dumps(cases)],
                check=True, capture_output=True, text=True).stdout)
            call_s.append(out.pop("call_s"))
            return out

        rows.append((label, call,
                     lambda out, s, call_s=call_s: {**out, "call_s": statistics.median(call_s)}))
    return rows


def _cli(argvs):
    """(label, call, report) for each ``modgrid`` command line, run as
    ``python -m modgrid.cli`` in a fresh interpreter; the report is its
    exit code."""
    return [(f"modgrid {argv}",
             lambda argv=argv: subprocess.run(
                 [sys.executable, "-m", "modgrid.cli", *argv.split()],
                 env={**os.environ, "PYTHONPATH": SRC}, capture_output=True).returncode,
             lambda code, s: {"exit_code": code})
            for argv in argvs]


#: the child of the "import" call: argv[1] is the source directory; it
#: prints the seconds of ``import modgrid`` and the modules it added
_IMPORT_CHILD = """\
import sys, time
sys.path.insert(0, sys.argv[1])
before = len(sys.modules)
start = time.perf_counter()
import modgrid
print(time.perf_counter() - start, len(sys.modules) - before)
"""


def _import():
    """(label, call, report) of ``import modgrid`` in a fresh interpreter
    (see _IMPORT_CHILD); the report gives the modules added and the median
    and quartiles in ms of the import over the runs."""
    import_s: list[float] = []

    def call():
        seconds, modules = subprocess.run(
            [sys.executable, "-c", _IMPORT_CHILD, SRC],
            check=True, capture_output=True, text=True).stdout.split()
        import_s.append(float(seconds))
        return int(modules)

    def report(modules, s):
        q1, median, q3 = (round(q * 1000, 2) for q in statistics.quantiles(import_s, n=4))
        return {"modules": modules, "import_ms": median, "import_ms_q1": q1, "import_ms_q3": q3}

    return [("import modgrid", call, report)]


def _random_transversal(n: int) -> list[int]:
    return random.Random(SEED).sample(range(n), n)


#: topic -> calls; the psi calls are those of the psi_serial benchmark
#: workload, with every other count of test_tie_rule_node_counts (psi(9),
#: psi(10) and psi(9, any)) and lex_least_with_count at p = 11 and 13 and at
#: composite n = 12, and the census calls are its largest prime and composite cases.
#: The deep calls are the longest psi runs of the README's node table, and
#: the largest any-mode composite tree in it.
#: The large calls are those of the README's memory table, and the cli
#: calls are the CLI's end-to-end layer, with a pooled psi.  The pack calls
#: are the grid and the seeded random (K, L) of tools/same_output.py, and the
#: largest accepted input
TOPICS = {
    "psi": lambda: _searches([
        (psi, 9, UNIT), (psi, 10, UNIT), (psi, 11, UNIT), (psi, 12, UNIT), (psi, 13, UNIT),
        (psi, 9, ANY), (psi, 10, ANY),
        (lex_least_with_count, 11, UNIT), (lex_least_with_count, 13, UNIT),
        (lex_least_with_count, 12, UNIT),
    ]),
    "deep": lambda: _searches([(psi, 14, UNIT), (psi, 16, UNIT), (psi, 17, UNIT), (psi, 12, ANY)]),
    "grid": lambda: _searches([
        (max_triple_free_subset, 5, UNIT), (max_triple_free_subset, 5, ANY),
        (max_triple_free_subset, 6, UNIT), (max_triple_free_subset, 7, UNIT),
        (ct0_subsets, 4, UNIT), (ct0_subsets, 4, ANY),
        (ct0_subsets, 5, UNIT), (ct0_subsets, 5, ANY),
    ]),
    "census": lambda: _counts([
        ("inverse", inverse_permutation(503), UNIT),
        ("random", _random_transversal(503), UNIT),
        ("random", _random_transversal(60), UNIT),
        ("random", _random_transversal(60), ANY),
    ]),
    "large": lambda: _fresh([
        "psi(64, budget=SearchBudget(max_nodes=2000))",
        "psi(127, budget=SearchBudget(max_nodes=2000))",
        "psi(120, budget=SearchBudget(max_nodes=2000))",
        "psi(126, ANY, budget=SearchBudget(max_nodes=2000))",
        "ct0_subsets(120, budget=SearchBudget(max_nodes=10000))",
        "max_triple_free_subset(120, budget=SearchBudget(max_nodes=10000))",
    ]),
    "pack": lambda: _pack([
        ("t_exact grid L <= 60, K <= 3L", grid_cases()),
        (f"t_exact {RANDOM_CASES} random (K, L) <= (2000, 200)", random_cases()),
        ("t_exact(2000, 200)", [[2000, 200]]),
    ]),
    "cli": lambda: _cli(["verify --level quick", "psi --n 13", "psi --n 13 --workers 2",
                         "pack exact 2000 200"]),
    "import": _import,
}


def main(topics: list[str]) -> int:
    unknown = set(topics) - set(TOPICS)
    if unknown:
        print(f"unknown topics {sorted(unknown)}; the topics are {list(TOPICS)}", file=sys.stderr)
        return 2
    for topic in topics or TOPICS:
        rows = []
        repeat = REPEATS.get(topic, REPEAT)
        for label, call, report in TOPICS[topic]():
            seconds = []
            for _ in range(repeat):
                start = time.perf_counter()
                out = call()
                seconds.append(time.perf_counter() - start)
            median = statistics.median(seconds)
            rows.append({"call": label, **report(out, median),
                         "median_s": round(median, 4),
                         "seconds": [round(s, 4) for s in seconds]})
            print(json.dumps(rows[-1]), flush=True)
        result = {
            "cores": os.cpu_count(),
            "python": platform.python_version(),
            "repeat": repeat,
            "calls": rows,
        }
        with open(f"BENCH_{topic}.json", "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
