"""Command-line frontend.

Each command returns its parameters, result, exactness and a short human
summary.  ``main`` alone frames them: one structured report (JSON by
default) on stdout, the summary on stderr, and the exit code: 0 success,
1 verification failure, 2 usage or input error (argparse, a ModGridError
or an OSError), 3 search budget exhausted.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict
from typing import Optional, Sequence

from . import __version__
from .census import (
    count_quadruples,
    count_triples,
    line_decomposition,
    slope_histogram,
    transversal_points,
)
from .constructions import (
    MobiusParams,
    cubic_permutation,
    g_permutation,
    inverse_permutation,
    mobius_permutation,
)
from .errors import DegenerateInput, ModGridError, OutOfRange
from .geometry import DEFAULT_MODE, CollinearityMode
from .modring import is_prime
from .packing import (
    canonical_optimal_partition,
    greedy_packing,
    jensen_lower_bound,
    t_closed_form,
    t_exact,
    trip_cost,
)
from .search import SearchBudget, _check_bound, psi
from .verification import run_verification

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _parse_transversal(text: str) -> list[int]:
    text = text.strip()
    if text.startswith("[") and text.endswith("]"):
        text = text[1:-1]
    try:
        return [int(tok) for tok in text.replace(",", " ").split()]
    except ValueError as exc:
        raise DegenerateInput(f"bad transversal literal: {exc}") from None


def _parse_points_file(path: str, n: int) -> list[tuple[int, int]]:
    points = []
    seen = set()
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                x, y = map(int, line.split())
            except ValueError:
                raise DegenerateInput(
                    f"{path}:{lineno}: expected two integers, got {raw!r}") from None
            p = (x % n, y % n)
            if p in seen:
                raise DegenerateInput(f"{path}:{lineno}: duplicate point {p}")
            seen.add(p)
            points.append(p)
    return points


# ---------------------------------------------------------------------------
# subcommands: each returns (parameters, result, exact, summary), and table
# its CSV rows after them
# ---------------------------------------------------------------------------


def cmd_count(args):
    mode = CollinearityMode(args.mode)
    n = args.n
    # before a points file is reduced mod n
    if n < 1:
        raise OutOfRange(f"--n must be >= 1, got {n}")
    if args.transversal is not None:
        sigma = _parse_transversal(args.transversal)
        if len(sigma) != n:
            raise DegenerateInput(f"not a permutation of range({n}): {sigma}")
        points = transversal_points(sigma)
    elif args.points is not None:
        points = _parse_points_file(args.points, n)
    else:
        raise OutOfRange("cmd count needs --transversal or --points")
    result = {
        "n": n,
        "mode": mode.value,
        "points": points,
        "triples": count_triples(points, n, mode),
        "quadruples": count_quadruples(points, n, mode),
    }
    if is_prime(n):
        census = line_decomposition(points, n)
        result["lines"] = [
            {"a": ln.a, "b": ln.b, "c": ln.c, "points_on_line": k}
            for ln, k in census.lines
        ]
        if args.transversal is not None:
            hist = slope_histogram(sigma, n)
            result["slope_histogram"] = {str(k): v for k, v in sorted(
                hist.items(), key=lambda kv: str(kv[0]))}
    return ({"n": n, "mode": mode.value}, result, True,
            f"n={n} triples={result['triples']} quadruples={result['quadruples']}")


def cmd_psi(args):
    mode = CollinearityMode(args.mode)
    outcome = psi(args.n, mode=mode, checkpoint=args.checkpoint,
                  budget=SearchBudget(args.budget_nodes, args.budget_seconds, args.workers))
    kind = "" if outcome.exact else " (upper bound, budget exhausted)"
    return ({"n": args.n, "mode": mode.value, "workers": args.workers},
            {**asdict(outcome), "elapsed": round(outcome.elapsed, 6)}, outcome.exact,
            f"psi({args.n}) = {outcome.value}{kind}")


def cmd_table(args):
    # a table past the bound would fail at its last row, after all the others
    _check_bound(args.max_n)
    mode = CollinearityMode(args.mode)
    budget = SearchBudget(args.budget_nodes, args.budget_seconds, args.workers)
    # an unwritable path fails here, before the table is computed
    out = open(args.out, "w", encoding="utf-8") if args.out else None
    rows = []
    for n in range(1, args.max_n + 1):
        outcome = psi(n, mode=mode, budget=budget)
        rows.append({"n": n, "psi": outcome.value, "exact": outcome.exact})
    csv_rows = ["n,psi,exact"] + [
        f"{r['n']},{r['psi']},{str(r['exact']).lower()}" for r in rows
    ]
    if out:
        with out:
            out.write("\n".join(csv_rows) + "\n")
    return ({"max_n": args.max_n, "mode": mode.value}, {"mode": mode.value, "rows": rows},
            all(r["exact"] for r in rows),
            "psi table: " + " ".join(f"{r['n']}:{r['psi']}" for r in rows), csv_rows)


def cmd_construct(args):
    n, family = args.n, args.family
    if family == "mobius":
        if args.params is None:
            raise OutOfRange("mobius needs --params A B C D")
        sigma = mobius_permutation(n, MobiusParams(*args.params))
    else:
        sigma = {"inverse": inverse_permutation, "cubic": cubic_permutation,
                 "g": g_permutation}[family](n)
    predicted = {"triples": (n - 1) * (n - 2) // 6 if family == "cubic" else (n - 1) // 2,
                 "quadruples": 0}
    points = transversal_points(sigma)
    counted = {
        "triples": count_triples(points, n),
        "quadruples": count_quadruples(points, n),
    }
    result = {
        "family": family,
        "n": n,
        "sigma": sigma,
        "predicted": predicted,
        "counted": counted,
        "match": predicted == counted,
    }
    return ({"family": family, "n": n}, result, True,
            f"{family}({n}): triples={counted['triples']} "
            f"predicted={predicted['triples']} match={result['match']}")


def cmd_pack(args):
    K, L = args.K, args.L
    sub = args.subcommand
    if sub == "exact":
        res = t_exact(K, L)
        result = {
            "value": res.value,
            "optima": [list(p) for p in res.optima],
            "optima_truncated": res.truncated,
        }
        if K <= 3 * L:
            result["closed_form"] = t_closed_form(K, L)
            result["closed_form_matches"] = result["closed_form"] == res.value
        summary = f"T({K},{L}) = {res.value}"
    elif sub == "closed":
        value = t_closed_form(K, L)
        result = {"value": value, "dp_value": t_exact(K, L).value}
        result["closed_form_matches"] = result["value"] == result["dp_value"]
        summary = f"closed form T({K},{L}) = {value}"
    elif sub == "greedy":
        parts = greedy_packing(K, L)
        result = {
            "partition": list(parts),
            "cost": trip_cost(parts),
            "exact_value": t_exact(K, L).value,
        }
        summary = f"greedy({K},{L}) = {parts} cost {result['cost']}"
    elif sub == "jensen":
        bound = jensen_lower_bound(K, L)
        result = {"bound": bound, "exact_value": t_exact(K, L).value}
        summary = f"jensen({K},{L}) = {bound:.6f}"
    else:
        parts = canonical_optimal_partition(K, L)
        result = {"partition": list(parts), "cost": trip_cost(parts),
                  "closed_form": t_closed_form(K, L)}
        summary = f"canonical({K},{L}) = {parts}"
    return {"K": K, "L": L}, result, True, summary


def cmd_verify(args):
    checks, all_passed = run_verification(args.level)
    lines = [f"[{'PASS' if c.passed else 'FAIL'}] {c.name}: "
             f"expected {c.expected}, observed {c.observed}" for c in checks]
    lines.append(f"verify {args.level}: {sum(c.passed for c in checks)}/{len(checks)} "
                 f"checks passed")
    result = {
        "level": args.level,
        "passed": all_passed,
        "checks": [asdict(c) for c in checks],
    }
    return {"level": args.level}, result, True, "\n".join(lines)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_common(sub, mode=True) -> None:
    if mode:
        sub.add_argument("--mode", choices=["any", "unit"],
                         default=DEFAULT_MODE.value,
                         help="composite-modulus line semantics")
    sub.add_argument("--format", choices=["json", "csv"], default="json")


def _add_budget(sub) -> None:
    sub.add_argument("--workers", type=int, default=1)
    sub.add_argument("--budget-nodes", type=int, default=None)
    sub.add_argument("--budget-seconds", type=float, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modgrid",
        description="Exact collinear-triple computations over Z_n x Z_n.",
    )
    subs = parser.add_subparsers(dest="cmd", required=True)

    p = subs.add_parser("count", help="count collinear triples/quadruples")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--transversal", help="permutation literal, e.g. '[0,1,4,2,3]'")
    p.add_argument("--points", help="points file: two integers per line, # comments")
    _add_common(p)
    p.set_defaults(func=cmd_count)

    p = subs.add_parser("psi", help="minimum triple count over transversals")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--checkpoint", default=None)
    _add_common(p)
    _add_budget(p)
    p.set_defaults(func=cmd_psi)

    p = subs.add_parser("table", help="psi values for n = 1..max_n")
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--out", default=None, help="write CSV rows to this file")
    _add_common(p)
    _add_budget(p)
    p.set_defaults(func=cmd_table)

    p = subs.add_parser("construct", help="build a named permutation family")
    p.add_argument("--family", choices=["inverse", "cubic", "mobius", "g"],
                   required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--params", type=int, nargs=4, metavar=("A", "B", "C", "D"))
    _add_common(p, mode=False)
    p.set_defaults(func=cmd_construct)

    p = subs.add_parser("pack", help="pair-packing optimum and bounds")
    p.add_argument("subcommand",
                   choices=["exact", "closed", "greedy", "jensen", "canonical"])
    p.add_argument("K", type=int)
    p.add_argument("L", type=int)
    _add_common(p, mode=False)
    p.set_defaults(func=cmd_pack)

    p = subs.add_parser("verify", help="run the claim-verification suite")
    p.add_argument("--level", choices=["quick", "full"], default="quick")
    _add_common(p, mode=False)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    started = time.perf_counter()
    try:
        params, result, exact, summary, *csv = args.func(args)
        report = {
            "command": f"pack {args.subcommand}" if args.cmd == "pack" else args.cmd,
            "parameters": params,
            "result": result,
            "exact": exact,
            "elapsed_seconds": round(time.perf_counter() - started, 6),
            "version": __version__,
        }
        if csv:
            report["csv"] = csv[0]
        if args.format == "csv":
            print("\n".join(report.get("csv") or ["key,value"] + [
                f"{k},{json.dumps(v) if isinstance(v, (list, dict)) else v}"
                for k, v in result.items()]))
        else:
            print(json.dumps(report, indent=2, default=str))
        print(summary, file=sys.stderr)
    except (ModGridError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if not exact:
        return EXIT_BUDGET
    return EXIT_VERIFY_FAILED if args.cmd == "verify" and not result["passed"] else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
