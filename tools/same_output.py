"""Compare the outputs of this checkout with those of another checkout.

    python3 tools/same_output.py TOPIC OTHER_CHECKOUT

Each checkout's ``src/`` is imported in its own fresh interpreter, which
runs every case of TOPIC and prints one result per case.

``pack``: (value, optima, truncated) of ``t_exact`` at optima caps 1, 3
and 64.  The cases are the closed-form grid (L <= 60, K <= 3L), K <= 400 in
steps of 7 for L <= 20, RANDOM_CASES seeded random (K, L) up to the bounds
(2000, 200), and (2000, 200), (26, 2) and (28, 2).

``psi``: (value, witness, exact, nodes, pruned) of ``psi`` under
"canonical" and "full" for n <= 12 in both modes, and of ``psi(13)`` and
``psi(14)``; and a canonical run cut at a node budget, the checkpoint it
leaves, and the run resumed from it: for n = 9..12 in both modes at
INTERRUPT_NODES nodes, and for ``psi(13)`` at PSI13_CUTS nodes, where the
budget ends inside a bulk-counted node or one spans the end of a slice.
"full" at (12, any) takes about 45 s, so the topic takes about a minute.

``search``: (value, witness, exact, nodes, pruned) of the searches other
than psi: ``lex_least_with_count`` at p = 3, 5, 7, 11 and 13, at (7, 2)
and (7, 4), at composite n = 8, 9, 10 and 12 (unit) and 9 and 10 (any),
each at its default target and at psi's value (LEX_LEAST_PSI), and at the
targets outside 0..C(n, 3) (13, 287) and (7, -1);
``max_triples_quadfree_transversal`` for n <= 8 in both modes,
``ct0_subsets`` for n <= 5 (unit) and n <= 4 (any), and
``max_triple_free_subset`` for n = 2..7 in both modes.  The first two walk
the placement engine's tables outside psi, for anchor 0 and, in
``lex_least_with_count``, for the canonical anchors; the topic takes about
a second.

``cli``: (exit code, stdout, stderr) of ``modgrid`` command lines, run by
``modgrid.cli.main`` with the seconds set to 0, and the node counts too
where a pool ran: every command and ``pack`` subcommand, CSV output, pooled
and budgeted psi, checkpoints written and resumed, and usage and input
errors.  The command lines of a case run in order in one temporary
directory, which the output names as ``{tmp}``; the topic takes a few
seconds.

Each case's node and pruned counts are compared apart from the rest of
its output (value, witness, ``exact``, checkpoint, exit code, stdout and
stderr).  One JSON line gives the case count, the number of cases whose
output differs (``differ``) and the number whose output agrees but whose
counts differ (``counts_differ``), with the first few of each; the exit
code is 1 when any case differs.
"""
from __future__ import annotations

import json
import random
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
CAPS = (1, 3, 64)
RANDOM_CASES = 300
#: seed of the random cases, shared with the "pack" topic of tools/bench.py
SEED = 1
#: the node budget of the interrupted leg of the psi resume cases
INTERRUPT_NODES = 1000
#: the node budgets of the psi(13) resume cases: the bulk-count edges of
#: test_psi_budget_is_an_exact_cap_across_bulk_counted_nodes
PSI13_CUTS = (9, 4_098, 9_020)
#: psi's value at the composite (n, mode) of the lex_least_with_count cases
LEX_LEAST_PSI = {(8, "unit"): 0, (9, "unit"): 5, (10, "unit"): 2, (12, "unit"): 0,
                 (9, "any"): 12, (10, "any"): 60}

#: argv[1] is the source directory and argv[2] the topic; the cases are
#: read from stdin as a JSON list of argument lists
_CHILD = """\
import contextlib, io, json, os, re, sys, tempfile
sys.path.insert(0, sys.argv[1])
from modgrid.geometry import CollinearityMode
from modgrid.packing import t_exact
from modgrid import search
from modgrid.cli import main
from modgrid.search import SearchBudget, psi


def pack(K, L, cap):
    r = t_exact(K, L, optima_cap=cap)
    return [r.value, r.optima, r.truncated]


#: the node and pruned counts of the case being run, reported apart from
#: its output
COUNTS = []


def outcome(out):
    COUNTS.append([out.nodes_explored, out.nodes_pruned])
    return [out.value, out.witness, out.exact]


def run_psi(n, mode, reduction, max_nodes=None):
    mode = CollinearityMode(mode)
    if max_nodes is None:
        return outcome(psi(n, mode, reduction=reduction))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "ckpt.json")
        cut = psi(n, mode, SearchBudget(max_nodes=max_nodes), path, reduction)
        with open(path) as fh:
            written = json.load(fh)
        return [outcome(cut), written, outcome(psi(n, mode, checkpoint=path))]


def run_search(name, n, mode, *args):
    return outcome(getattr(search, name)(n, *args, mode=CollinearityMode(mode)))


def run_cli(*lines):
    outputs = []
    with tempfile.TemporaryDirectory() as tmp:
        for line in lines:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(line.replace("{tmp}", tmp).split())
            field = '("?(?:{})"?(?:: |,))([-0-9.e]+)'.format
            out = out.getvalue()
            # a pool's node counts depend on which worker ends first
            if "--workers" not in line:
                COUNTS.append(re.findall(field("nodes_explored|nodes_pruned"), out))
            out = re.sub(field("elapsed|elapsed_seconds|nodes_explored|nodes_pruned"),
                         r"\\g<1>0", out)
            outputs.append([code] + [text.replace(tmp, "{tmp}") for text in (out, err.getvalue())])
    return outputs


def run_case(case):
    COUNTS.clear()
    return [run(*case), COUNTS.copy()]


run = {"pack": pack, "psi": run_psi, "search": run_search, "cli": run_cli}[sys.argv[2]]
print(json.dumps([run_case(case) for case in json.load(sys.stdin)]))
"""


def random_cases() -> list[list[int]]:
    """RANDOM_CASES seeded random (K, L) with K <= 2000 and 1 <= L <= 200."""
    rng = random.Random(SEED)
    return [[rng.randint(0, 2000), rng.randint(1, 200)] for _ in range(RANDOM_CASES)]


def grid_cases() -> list[list[int]]:
    """The closed-form grid of the cli_cold workload: L <= 60, K <= 3L."""
    return [[K, L] for L in range(1, 61) for K in range(3 * L + 1)]


def pack_cases() -> list[list[int]]:
    steps = [[K, L] for L in range(1, 21) for K in range(0, 401, 7)]
    fixed = [[2000, 200], [26, 2], [28, 2]]
    return [[K, L, cap] for K, L in grid_cases() + steps + random_cases() + fixed
            for cap in CAPS]


def psi_cases() -> list[list]:
    modes = ("unit", "any")
    return ([[n, mode, red] for n in range(1, 13) for mode in modes
             for red in ("canonical", "full")]
            + [[13, "unit", "canonical"], [14, "unit", "canonical"]]
            + [[n, mode, "canonical", INTERRUPT_NODES] for n in range(9, 13) for mode in modes]
            + [[13, "unit", "canonical", cut] for cut in PSI13_CUTS])


def search_cases() -> list[list]:
    modes = ("unit", "any")
    return ([["lex_least_with_count", p, "unit"] for p in (3, 5, 7, 11, 13)]
            + [["lex_least_with_count", 7, "unit", target] for target in (2, 4)]
            + [["lex_least_with_count", n, mode, *target] for (n, mode), value
               in LEX_LEAST_PSI.items() for target in ((), (value,))]
            + [["lex_least_with_count", n, "unit", target] for n, target in ((13, 287), (7, -1))]
            + [["max_triples_quadfree_transversal", n, mode]
               for n in range(1, 9) for mode in modes]
            + [["ct0_subsets", n, "unit"] for n in range(1, 6)]
            + [["ct0_subsets", n, "any"] for n in range(1, 5)]
            + [["max_triple_free_subset", n, mode] for n in range(2, 8) for mode in modes])


def cli_cases() -> list[list[str]]:
    counts = [f"count --n {n} --transversal {sigma} --mode {mode}"
              for n, sigma in ((9, "[0,1,2,6,7,8,4,5,3]"), (10, "[0,1,3,7,2,6,5,9,4,8]"),
                               (11, "[0,1,2,7,5,4,10,3,9,8,6]"))
              for mode in ("unit", "any")]
    ckpt = "psi --n 12 --checkpoint {tmp}/c.json"
    return [[line] for line in counts + [
        "count --n 9 --transversal [0,1,2,6,7,8,4,5,3] --format csv",
        "count --n 4 --transversal [0,0,1,2]",
        "psi --n 9", "psi --n 10 --mode any", "psi --n 11 --workers 2",
        "psi --n 13 --workers 2 --format csv", "psi --n 12 --budget-nodes 1000",
        "psi --n 9 --workers 0", "psi --n 129", "psi --n 9 --checkpoint {tmp}",
        "table --max-n 8", "table --max-n 9 --mode any --format csv",
        "table --max-n 9 --out {tmp}/t.csv --budget-nodes 500",
        "construct --family inverse --n 11", "construct --family cubic --n 11",
        "construct --family g --n 13", "construct --family mobius --n 11 --params 1 2 3 4",
        "construct --family inverse --n 12",
        "pack exact 28 2", "pack exact 2000 200", "pack closed 25 10", "pack closed 100 10",
        "pack greedy 100 10", "pack jensen 100 10", "pack canonical 25 10",
        "verify --level quick", "frobnicate",
    ]] + [[f"{ckpt} --budget-nodes 1000", f"{ckpt} --workers 2", ckpt],
          [f"{ckpt} --budget-nodes 1000", f"{ckpt} --mode any"]]


TOPICS = {"pack": pack_cases, "psi": psi_cases, "search": search_cases, "cli": cli_cases}


def outputs(checkout: Path, topic: str, cases: list[list]) -> list:
    return json.loads(subprocess.run(
        [sys.executable, "-c", _CHILD, str(checkout / "src"), topic], input=json.dumps(cases),
        check=True, capture_output=True, text=True).stdout)


def main(argv: list[str]) -> int:
    if len(argv) != 2 or argv[0] not in TOPICS:
        print(__doc__, file=sys.stderr)
        return 2
    topic, other = argv[0], Path(argv[1]).resolve()
    cases = TOPICS[topic]()
    # the two checkouts run side by side, each in its own interpreter
    with ThreadPoolExecutor(2) as pool:
        ours, theirs = pool.map(lambda checkout: outputs(checkout, topic, cases), (HERE, other))
    # [output, counts] per case: cases whose outputs differ, and cases whose
    # outputs agree but whose node or pruned counts do not
    differ = [case for case, a, b in zip(cases, ours, theirs) if a[0] != b[0]]
    counts = [case for case, a, b in zip(cases, ours, theirs) if a[0] == b[0] and a[1] != b[1]]
    print(json.dumps({"cases": len(cases), "differ": len(differ), "counts_differ": len(counts),
                      "first": differ[:5], "first_counts": counts[:5]}))
    return 1 if differ or counts else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
