"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every value asserted here is either an exact integer identity or a
float bound checked at tolerance 1e-9.
"""
import random
import time

import pytest

from modgrid.census import count_quadruples, count_triples, count_triples_naive, \
    line_decomposition, transversal_points
from modgrid.constructions import (
    MobiusParams,
    cubic_permutation,
    g_permutation,
    inverse_permutation,
    mobius_permutation,
)
from modgrid.geometry import CollinearityMode
from modgrid.modring import is_prime
from modgrid.packing import (
    greedy_packing,
    jensen_lower_bound,
    psi_lower_bound,
    t_closed_form,
    t_exact,
    trip_cost,
)
from modgrid.search import (
    SearchBudget,
    ct0_subsets,
    lex_least_with_count,
    max_triple_free_subset,
    max_triples_quadfree_transversal,
    psi,
    psi_brute_force,
)

PSI_REFERENCE = [0, 0, 1, 0, 2, 0, 3, 0, 5, 2, 5]  # n = 1..11, default mode


def _report(criterion: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] {criterion}{suffix}")


def test_criterion_1_minimum_triple_table():
    start = time.perf_counter()
    observed = [psi(n).value for n in range(1, 12)]
    elapsed = time.perf_counter() - start
    ok = observed == PSI_REFERENCE and elapsed < 1800
    _report(
        "criterion 1: psi(1..11) = 0,0,1,0,2,0,3,0,5,2,5",
        ok, f"observed {observed} in {elapsed:.1f}s",
    )
    assert ok

    # stretch values, still exact
    stretch = [psi(12).value, psi(13).value]
    _report("criterion 1 (stretch): psi(12) = 0, psi(13) = 6",
            stretch == [0, 6], f"observed {stretch}")
    assert stretch == [0, 6]


def test_criterion_2_mode_disambiguation():
    unit = psi(9, mode=CollinearityMode.UNIT_LINE).value
    any_ = psi(9, mode=CollinearityMode.ANY_LINE).value
    default = psi(9).value
    ok = default == unit == 5 and any_ == 12 and any_ != 5
    _report(
        "criterion 2: psi(9) is 5 under the default (unit) mode only",
        ok, f"unit={unit} any={any_} (regression fixture: any-mode value is 12)",
    )
    assert ok


def test_criterion_3_construction_sweeps():
    start = time.perf_counter()
    primes = [p for p in range(3, 504) if is_prime(p)]
    bad = []
    for p in primes:
        census = line_decomposition(transversal_points(inverse_permutation(p)), p)
        if census.triples != (p - 1) // 2 or census.quadruples != 0:
            bad.append(("inverse", p))
    for p in primes:
        if p % 3 != 2:
            continue
        census = line_decomposition(transversal_points(cubic_permutation(p)), p)
        two_point = sum(1 for _, k in census.lines if k == 2)
        if (census.triples != (p - 1) * (p - 2) // 6
                or census.quadruples != 0 or two_point != p - 1):
            bad.append(("cubic", p))
    rng = random.Random(3)
    for p in [q for q in primes if 7 <= q <= 101]:
        for _ in range(50):
            while True:
                a, b, d = (rng.randrange(p) for _ in range(3))
                c = rng.randrange(1, p)
                if (a * d - b * c) % p != 0:
                    break
            sigma = mobius_permutation(p, MobiusParams(a, b, c, d))
            if count_triples(transversal_points(sigma), p) != (p - 1) // 2:
                bad.append(("mobius", p, (a, b, c, d)))
                break
    elapsed = time.perf_counter() - start
    ok = not bad and elapsed < 120
    _report(
        "criterion 3: construction triple counts, primes to 503, "
        "50 random fractional-linear maps per prime 7..101",
        ok, f"{elapsed:.1f}s" + (f", failures {bad}" if bad else ""),
    )
    assert ok


def test_criterion_4_pair_packing():
    mismatch = [
        (K, L)
        for L in range(1, 61)
        for K in range(0, 3 * L + 1)
        if t_exact(K, L).value != t_closed_form(K, L)
    ]
    greedy28 = greedy_packing(28, 2)
    jensen_bad = [
        (K, L)
        for L in range(1, 21)
        for K in range(0, 201)
        if t_exact(K, L).value < jensen_lower_bound(K, L) - 1e-9
    ]
    res28 = t_exact(28, 2)
    literal_ok = res28.value == 39 and res28.optima == ((21, 5), (20, 6))
    ok = (not mismatch and trip_cost(greedy28) == 40 and not jensen_bad
          and literal_ok)
    _report(
        "criterion 4: closed form == DP (L <= 60), T(28,2) = 39 with optima "
        "{(21,5),(20,6)}, greedy(28,2) cost 40, Jensen bound to (200,20)",
        ok,
        f"T(28,2)={res28.value} optima={res28.optima}; the stated instance "
        f"is internally inconsistent (21+5=26): the DP gives T(26,2)=39 with "
        f"exactly those optima, while T(28,2)={res28.value}",
    )
    assert ok


def test_criterion_4_corrected_instance():
    # the self-consistent version of the same claim, kept green
    res26 = t_exact(26, 2)
    g26 = greedy_packing(26, 2)
    ok = (res26.value == 39 and res26.optima == ((21, 5), (20, 6))
          and trip_cost(g26) == 40 and trip_cost(greedy_packing(28, 2)) == 40)
    _report(
        "criterion 4 (corrected instance): T(26,2) = 39 with optima "
        "{(21,5),(20,6)}, greedy cost 40",
        ok, f"T(26,2)={res26.value} optima={res26.optima} greedy={g26}",
    )
    assert ok


def test_criterion_5_bounds_sandwich():
    rows = []
    ok = True
    for p in (3, 5, 7, 11):
        v = psi(p).value
        lo, hi = psi_lower_bound(p), (p - 1) // 2
        rows.append((p, lo, v, hi))
        ok = ok and lo <= v <= hi and v == hi
    _report(
        "criterion 5: ceil((p-1)/4) <= psi(p) = (p-1)/2 for p in {3,5,7,11}",
        ok, f"(p, lower, psi, upper) = {rows}",
    )
    assert ok


def test_criterion_6_every_prime_transversal_has_a_triple():
    values = {p: psi(p).value for p in (3, 5, 7, 11)}
    ok = all(v >= 1 for v in values.values())
    _report("criterion 6: psi(p) >= 1 for p in {3,5,7,11}, exhaustive",
            ok, f"{values}")
    assert ok


def test_criterion_7_lex_least_matches_g_map():
    rows = []
    ok = True
    for p in (3, 5, 7):
        found = lex_least_with_count(p, (p - 1) // 2).witness
        expected = g_permutation(p)
        rows.append((p, found == expected))
        ok = ok and found == expected
    _report(
        "criterion 7: lex-least transversal with (p-1)/2 triples equals the "
        "x/(x-1) map for p in {3,5,7}",
        ok, f"comparison per prime: {rows}",
    )
    assert ok


def test_criterion_8_small_search_oracles():
    ct0_2 = ct0_subsets(2).value
    ct0_3 = ct0_subsets(3).value
    tf = {n: max_triple_free_subset(n).value for n in (2, 3, 5)}
    quad = {n: max_triples_quadfree_transversal(n).value for n in range(1, 8)}
    quad_ok = all(v <= n * (n - 1) // 6 for n, v in quad.items())
    ok = (ct0_2 == 0 and ct0_3 == 12
          and tf[2] == 4 and tf[3] == 4 and tf[5] == 6 and tf[5] <= 7
          and quad_ok)
    _report(
        "criterion 8: ct0(2)=0, ct0(3)=12, max triple-free sizes 4/4/6, "
        "quadruple-free transversal triples within floor(n(n-1)/6) for n <= 7",
        ok, f"ct0=({ct0_2},{ct0_3}) triple_free={tf} quadfree={quad}",
    )
    assert ok


def test_criterion_9_equivalence_and_pruning_soundness():
    brute_ok = all(
        psi(n).value == psi_brute_force(n).value for n in range(1, 7)
    )

    rng = random.Random(9)
    count_ok = True
    for p in (3, 5, 7, 11, 13):
        grid = [(x, y) for x in range(p) for y in range(p)]
        for _ in range(40):  # 40 per prime, 200 total
            pts = rng.sample(grid, rng.randrange(3, min(p * p, 16)))
            if (line_decomposition(pts, p).triples
                    != count_triples_naive(pts, p)):
                count_ok = False

    worker_ok = all(
        psi(n).value == psi(n, budget=SearchBudget(workers=8)).value
        for n in (9, 10)
    )
    ok = brute_ok and count_ok and worker_ok
    _report(
        "criterion 9: pruned search == brute force (n <= 6), bucketed == "
        "naive counting (200 random subsets), 1-worker == 8-worker psi at "
        "n = 9, 10",
        ok, f"brute={brute_ok} counting={count_ok} workers={worker_ok}",
    )
    assert ok
