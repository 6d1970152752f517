"""One-shot verification suite behind `modgrid verify`.

Each check recomputes a documented claim from scratch and records the
expected and observed values.  `quick` keeps everything under a few
seconds; `full` extends the sweeps (psi table to 11, construction sweeps
to 503, the complete closed-form/DP grid).
"""
from __future__ import annotations

from dataclasses import dataclass

from .census import count_triples, line_decomposition, transversal_points
from .constructions import cubic_permutation, g_permutation, inverse_permutation
from .errors import OutOfRange
from .geometry import CollinearityMode
from .modring import is_prime
from .packing import (
    greedy_packing,
    jensen_lower_bound,
    psi_lower_bound,
    t_closed_form,
    t_exact,
    trip_cost,
)
from .search import (
    ct0_subsets,
    lex_least_with_count,
    max_triple_free_subset,
    max_triples_quadfree_transversal,
    psi,
    verify_theorem1,
)

__all__ = ["CheckResult", "run_verification"]

#: Reference minimum-triple counts for n = 1..17 and 19 under the
#: default mode; verify runs none from 14 up.  14 and 15: the "canonical"
#: reduction, ``workers=2`` and "full" agree; 16 and 17: "canonical" and
#: "full" agree, with the same witness; 19: "canonical" and ``workers=2``
#: agree.
PSI_TABLE = {1: 0, 2: 0, 3: 1, 4: 0, 5: 2, 6: 0, 7: 3, 8: 0, 9: 5, 10: 2,
             11: 5, 12: 0, 13: 6, 14: 9, 15: 6, 16: 4, 17: 8, 19: 9}

#: Regression fixture: Psi(9) under ANY_LINE semantics (the mode rejected
#: by the table experiment).
PSI_9_ANY_LINE = 12


@dataclass
class CheckResult:
    name: str
    expected: str
    observed: str
    passed: bool


def _check(results: list[CheckResult], name: str, expected, observed) -> None:
    results.append(
        CheckResult(name, str(expected), str(observed), expected == observed)
    )


def _primes_upto(limit: int) -> list[int]:
    return [p for p in range(3, limit + 1) if is_prime(p)]


def run_verification(level: str = "quick") -> tuple[list[CheckResult], bool]:
    if level not in ("quick", "full"):
        raise OutOfRange(f"level must be 'quick' or 'full', got {level!r}")
    full = level == "full"
    results: list[CheckResult] = []

    # psi table reproduction
    max_n = 11 if full else 8
    observed = [psi(n).value for n in range(1, max_n + 1)]
    _check(results, f"psi table n=1..{max_n}",
           [PSI_TABLE[n] for n in range(1, max_n + 1)], observed)

    if full:
        _check(results, "mode disambiguation: psi(9) unit", 5, psi(9).value)
        _check(results, "mode disambiguation: psi(9) any (fixture)",
               PSI_9_ANY_LINE, psi(9, mode=CollinearityMode.ANY_LINE).value)

    # construction sweeps
    p_limit = 503 if full else 101
    bad = []
    for p in _primes_upto(p_limit):
        pts = transversal_points(inverse_permutation(p))
        census = line_decomposition(pts, p)
        if census.triples != (p - 1) // 2 or census.quadruples != 0:
            bad.append(p)
    _check(results, f"inverse map: (p-1)/2 triples, 0 quadruples, p <= {p_limit}",
           [], bad)

    bad = []
    for p in _primes_upto(p_limit):
        if p % 3 != 2:
            continue
        pts = transversal_points(cubic_permutation(p))
        census = line_decomposition(pts, p)
        # a line through exactly two points holds one pair
        two_point_lines = list(census.pairs.values()).count(1)
        if (census.triples != (p - 1) * (p - 2) // 6 or census.quadruples != 0
                or two_point_lines != p - 1):
            bad.append(p)
    _check(results,
           f"cube map: (p-1)(p-2)/6 triples, 0 quadruples, p-1 two-point "
           f"lines, p = 2 mod 3 <= {p_limit}", [], bad)

    bad = []
    for p in _primes_upto(101 if full else 31):
        pts = transversal_points(g_permutation(p))
        if count_triples(pts, p) != (p - 1) // 2:
            bad.append(p)
    _check(results, "x/(x-1) map: (p-1)/2 triples", [], bad)

    # pair packing
    l_max = 60 if full else 20
    mismatches = [
        (K, L)
        for L in range(1, l_max + 1)
        for K in range(0, 3 * L + 1)
        if t_closed_form(K, L) != t_exact(K, L).value
    ]
    _check(results, f"closed form == DP for K <= 3L, L <= {l_max}", [], mismatches)

    res26 = t_exact(26, 2)
    _check(results, "T(26,2) = 39 with optima {(21,5),(20,6)}",
           (39, ((21, 5), (20, 6))), (res26.value, res26.optima))
    g26 = greedy_packing(26, 2)
    _check(results, "greedy(26,2) strictly suboptimal at cost 40",
           ((15, 11), 40), (g26, trip_cost(g26)))

    k_max = 200 if full else 60
    l_lim = 20 if full else 8
    violations = [
        (K, L)
        for L in range(1, l_lim + 1)
        for K in range(0, k_max + 1)
        if t_exact(K, L).value < jensen_lower_bound(K, L) - 1e-9
    ]
    _check(results, f"Jensen lower bound, K <= {k_max}, L <= {l_lim}", [], violations)

    # bounds sandwich and existence of a triple
    sandwich_primes = [3, 5, 7, 11] if full else [3, 5, 7]
    bad = []
    for p in sandwich_primes:
        v = psi(p).value
        if not (psi_lower_bound(p) <= v <= (p - 1) // 2 and v == (p - 1) // 2):
            bad.append((p, v))
    _check(results, f"ceil((p-1)/4) <= psi(p) = (p-1)/2 for p in {sandwich_primes}",
           [], bad)
    _check(results, f"psi(p) >= 1 for p in {sandwich_primes}",
           [True] * len(sandwich_primes),
           [verify_theorem1(p) for p in sandwich_primes])

    # lex-least conjecture comparison (reported either way)
    for p in ([3, 5, 7] if not full else [3, 5, 7, 11]):
        outcome = lex_least_with_count(p)
        _check(results, f"lex-least with (p-1)/2 triples equals x/(x-1) map, p={p}",
               g_permutation(p), outcome.witness)

    # small-search oracles
    _check(results, "ct0(2)", 0, ct0_subsets(2).value)
    _check(results, "ct0(3)", 12, ct0_subsets(3).value)
    if full:
        _check(results, "ct0(4)", 18, ct0_subsets(4).value)
    _check(results, "max triple-free subset, n=2", 4, max_triple_free_subset(2).value)
    _check(results, "max triple-free subset, n=3", 4, max_triple_free_subset(3).value)
    if full:
        # an arc of AG(2, p) has at most p + 1 points, and a conic has p + 1
        for p in (5, 7):
            _check(results, f"max triple-free subset, n={p} (= p + 1)", p + 1,
                   max_triple_free_subset(p).value)
    quad_ns = range(1, 8) if full else range(1, 7)
    bad = []
    for n in quad_ns:
        v = max_triples_quadfree_transversal(n).value
        if v > n * (n - 1) // 6:
            bad.append((n, v))
    _check(results, f"quadruple-free transversal triples <= floor(n(n-1)/6), "
           f"n in {list(quad_ns)}", [], bad)

    all_passed = all(c.passed for c in results)
    return results, all_passed
