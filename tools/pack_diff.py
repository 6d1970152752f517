"""Compare ``t_exact`` of this checkout with that of another checkout.

    python3 tools/pack_diff.py OTHER_CHECKOUT

Each checkout's ``src/`` is imported in its own fresh interpreter, which
prints (value, optima, truncated) of ``t_exact`` for every case at optima
caps 1, 3 and 64.  The cases are the closed-form grid (L <= 60, K <= 3L),
K <= 400 in steps of 7 for L <= 20, RANDOM_CASES seeded random (K, L) up
to the bounds (2000, 200), and (2000, 200), (26, 2) and (28, 2).  One JSON
line gives the case count and the number of cases that differ, with the
first few of them; the exit code is 1 when any differ.
"""
from __future__ import annotations

import json
import random
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
CAPS = (1, 3, 64)
RANDOM_CASES = 300
#: seed of the random cases, shared with the "pack" topic of tools/bench.py
SEED = 1

_CHILD = """\
import json, sys
sys.path.insert(0, sys.argv[1])
from modgrid.packing import t_exact
out = []
for K, L, cap in json.load(sys.stdin):
    r = t_exact(K, L, optima_cap=cap)
    out.append([r.value, r.optima, r.truncated])
print(json.dumps(out))
"""


def random_cases() -> list[list[int]]:
    """RANDOM_CASES seeded random (K, L) with K <= 2000 and 1 <= L <= 200."""
    rng = random.Random(SEED)
    return [[rng.randint(0, 2000), rng.randint(1, 200)] for _ in range(RANDOM_CASES)]


def grid_cases() -> list[list[int]]:
    """The closed-form grid of the cli_cold workload: L <= 60, K <= 3L."""
    return [[K, L] for L in range(1, 61) for K in range(3 * L + 1)]


def cases() -> list[list[int]]:
    steps = [[K, L] for L in range(1, 21) for K in range(0, 401, 7)]
    fixed = [[2000, 200], [26, 2], [28, 2]]
    return [[K, L, cap] for K, L in grid_cases() + steps + random_cases() + fixed
            for cap in CAPS]


def outputs(checkout: Path, calls: list[list[int]]) -> list:
    return json.loads(subprocess.run(
        [sys.executable, "-c", _CHILD, str(checkout / "src")], input=json.dumps(calls),
        check=True, capture_output=True, text=True).stdout)


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    calls = cases()
    ours, theirs = outputs(HERE, calls), outputs(Path(argv[0]).resolve(), calls)
    differ = [call for call, a, b in zip(calls, ours, theirs) if a != b]
    print(json.dumps({"cases": len(calls), "differ": len(differ), "first": differ[:5]}))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
