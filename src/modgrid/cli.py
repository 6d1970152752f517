"""Command-line frontend.

One structured report (JSON by default) per invocation on stdout, a short
human summary on stderr.  Exit codes: 0 success, 1 verification failure,
2 usage/input error, 3 search budget exhausted.
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
from .errors import BoundExceeded, ModGridError
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
from .search import SEARCH_BOUND, SearchBudget, SearchOutcome, psi
from .verification import run_verification

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


class UsageError(Exception):
    pass


def _emit(report: dict, fmt: str, summary: str) -> None:
    if fmt == "csv":
        rows = report.get("csv")
        if rows is None:
            rows = ["key,value"] + [
                f"{k},{json.dumps(v) if isinstance(v, (list, dict)) else v}"
                for k, v in report.get("result", {}).items()
            ]
        print("\n".join(rows))
    else:
        print(json.dumps(report, indent=2, default=str))
    print(summary, file=sys.stderr)


def _report(command: str, params: dict, result: dict, started: float,
            exact: bool = True) -> dict:
    return {
        "command": command,
        "parameters": params,
        "result": result,
        "exact": exact,
        "elapsed_seconds": round(time.perf_counter() - started, 6),
        "version": __version__,
    }


def _parse_transversal(text: str) -> list[int]:
    text = text.strip()
    if text.startswith("[") and text.endswith("]"):
        text = text[1:-1]
    try:
        return [int(tok) for tok in text.replace(",", " ").split()]
    except ValueError as exc:
        raise UsageError(f"bad transversal literal: {exc}") from None


def _parse_points_file(path: str, n: int) -> list[tuple[int, int]]:
    points = []
    seen = set()
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise UsageError(f"{path}:{lineno}: expected two integers, got {raw!r}")
            try:
                p = (int(parts[0]) % n, int(parts[1]) % n)
            except ValueError:
                raise UsageError(f"{path}:{lineno}: expected two integers, got {raw!r}")
            if p in seen:
                raise UsageError(f"{path}:{lineno}: duplicate point {p}")
            seen.add(p)
            points.append(p)
    return points


def _budget_from_args(args) -> SearchBudget:
    return SearchBudget(
        max_nodes=args.budget_nodes,
        max_time=args.budget_seconds,
        workers=args.workers,
    )


def _outcome_dict(outcome: SearchOutcome) -> dict:
    d = asdict(outcome)
    d["elapsed"] = round(d["elapsed"], 6)
    return d


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_count(args) -> int:
    started = time.perf_counter()
    mode = CollinearityMode(args.mode)
    n = args.n
    if n < 1:
        raise UsageError(f"--n must be >= 1, got {n}")
    if args.transversal is not None:
        sigma = _parse_transversal(args.transversal)
        if len(sigma) != n or sorted(sigma) != list(range(n)):
            raise UsageError(f"not a permutation of range({n}): {sigma}")
        points = transversal_points(sigma)
    elif args.points is not None:
        points = _parse_points_file(args.points, n)
    else:
        raise UsageError("cmd count needs --transversal or --points")
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
    report = _report("count", {"n": n, "mode": mode.value}, result, started)
    _emit(report, args.format,
          f"n={n} triples={result['triples']} quadruples={result['quadruples']}")
    return EXIT_OK


def cmd_psi(args) -> int:
    started = time.perf_counter()
    mode = CollinearityMode(args.mode)
    outcome = psi(args.n, mode=mode, budget=_budget_from_args(args),
                  checkpoint=args.checkpoint)
    result = _outcome_dict(outcome)
    report = _report("psi", {"n": args.n, "mode": mode.value,
                             "workers": args.workers}, result, started,
                     exact=outcome.exact)
    kind = "" if outcome.exact else " (upper bound, budget exhausted)"
    _emit(report, args.format, f"psi({args.n}) = {outcome.value}{kind}")
    return EXIT_OK if outcome.exact else EXIT_BUDGET


def cmd_table(args) -> int:
    started = time.perf_counter()
    if args.max_n < 1:
        raise UsageError(f"--max-n must be >= 1, got {args.max_n}")
    # a table past the bound would fail at its last row, after all the others
    if args.max_n > SEARCH_BOUND:
        raise BoundExceeded(f"--max-n {args.max_n} exceeds the search bound {SEARCH_BOUND}")
    mode = CollinearityMode(args.mode)
    budget = _budget_from_args(args)
    # an unwritable path fails here, before the table is computed
    out = open(args.out, "w", encoding="utf-8") if args.out else None
    rows = []
    any_inexact = False
    for n in range(1, args.max_n + 1):
        outcome = psi(n, mode=mode, budget=budget)
        any_inexact = any_inexact or not outcome.exact
        rows.append({"n": n, "psi": outcome.value, "exact": outcome.exact})
    csv_rows = ["n,psi,exact"] + [
        f"{r['n']},{r['psi']},{str(r['exact']).lower()}" for r in rows
    ]
    result = {"mode": mode.value, "rows": rows}
    report = _report("table", {"max_n": args.max_n, "mode": mode.value},
                     result, started, exact=not any_inexact)
    report["csv"] = csv_rows
    if out:
        with out:
            out.write("\n".join(csv_rows) + "\n")
    _emit(report, args.format,
          "psi table: " + " ".join(f"{r['n']}:{r['psi']}" for r in rows))
    return EXIT_OK if not any_inexact else EXIT_BUDGET


def cmd_construct(args) -> int:
    started = time.perf_counter()
    n = args.n
    family = args.family
    if family == "inverse":
        sigma = inverse_permutation(n)
        predicted = {"triples": (n - 1) // 2, "quadruples": 0}
    elif family == "cubic":
        sigma = cubic_permutation(n)
        predicted = {"triples": (n - 1) * (n - 2) // 6, "quadruples": 0}
    elif family == "g":
        sigma = g_permutation(n)
        predicted = {"triples": (n - 1) // 2, "quadruples": 0}
    elif family == "mobius":
        if args.params is None or len(args.params) != 4:
            raise UsageError("mobius needs --params A B C D")
        sigma = mobius_permutation(n, MobiusParams(*args.params))
        predicted = {"triples": (n - 1) // 2, "quadruples": 0}
    else:  # pragma: no cover - argparse restricts choices
        raise UsageError(f"unknown family {family}")
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
    report = _report("construct", {"family": family, "n": n}, result, started)
    _emit(report, args.format,
          f"{family}({n}): triples={counted['triples']} "
          f"predicted={predicted['triples']} match={result['match']}")
    return EXIT_OK


def cmd_pack(args) -> int:
    started = time.perf_counter()
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
    elif sub == "canonical":
        parts = canonical_optimal_partition(K, L)
        result = {"partition": list(parts), "cost": trip_cost(parts),
                  "closed_form": t_closed_form(K, L)}
        summary = f"canonical({K},{L}) = {parts}"
    else:  # pragma: no cover
        raise UsageError(f"unknown pack subcommand {sub}")
    report = _report(f"pack {sub}", {"K": K, "L": L}, result, started)
    _emit(report, args.format, summary)
    return EXIT_OK


def cmd_verify(args) -> int:
    started = time.perf_counter()
    checks, all_passed = run_verification(args.level)
    result = {
        "level": args.level,
        "passed": all_passed,
        "checks": [asdict(c) for c in checks],
    }
    report = _report("verify", {"level": args.level}, result, started,
                     exact=True)
    failed = [c for c in checks if not c.passed]
    summary = (f"verify {args.level}: {len(checks) - len(failed)}/{len(checks)} "
               f"checks passed")
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        print(f"[{status}] {c.name}: expected {c.expected}, observed {c.observed}",
              file=sys.stderr)
    _emit(report, args.format, summary)
    return EXIT_OK if all_passed else EXIT_VERIFY_FAILED


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_common(sub, mode=True, fmt=True) -> None:
    if mode:
        sub.add_argument("--mode", choices=["any", "unit"],
                         default=DEFAULT_MODE.value,
                         help="composite-modulus line semantics")
    if fmt:
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
    _add_common(p)
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
    try:
        return args.func(args)
    except (UsageError, ModGridError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
