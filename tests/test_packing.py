import random
from functools import lru_cache
from math import comb, inf

import pytest
from hypothesis import given, strategies as st

from modgrid.errors import BoundExceeded, DegenerateInput, NonPrimeModulus, OutOfRange
from modgrid.modring import is_prime
from modgrid.packing import (
    canonical_optimal_partition,
    greedy_packing,
    jensen_lower_bound,
    psi_lower_bound,
    spread_report,
    t_closed_form,
    t_exact,
    tau,
    trip_cost,
)
from modgrid.verification import PSI_TABLE


def test_tau_examples():
    assert tau(0) == 0
    assert tau(1) == 2
    assert tau(2) == 3
    assert tau(3) == 3
    assert tau(4) == 4
    assert tau(10) == 5
    assert tau(11) == 6
    with pytest.raises(OutOfRange):
        tau(-1)


def test_tau_is_minimal():
    for m in range(0, 500):
        k = tau(m)
        assert comb(k, 2) >= m
        if k:
            assert comb(k - 1, 2) < m


def test_trip_cost_examples():
    assert trip_cost([21, 5]) == comb(7, 3) + comb(4, 3) == 39
    assert trip_cost([15, 13]) == comb(6, 3) + comb(6, 3) == 40
    assert trip_cost([1, 1, 0]) == 0
    assert trip_cost([3]) == 1
    with pytest.raises(DegenerateInput):
        trip_cost([2, -1])


def test_closed_form_examples():
    assert t_closed_form(0, 3) == 0
    assert t_closed_form(3, 3) == 0
    assert t_closed_form(4, 3) == 1
    assert t_closed_form(9, 3) == 3
    assert t_closed_form(10, 8) == 1
    with pytest.raises(OutOfRange):
        t_closed_form(10, 3)
    with pytest.raises(OutOfRange):
        t_closed_form(-1, 3)
    with pytest.raises(BoundExceeded):
        t_closed_form(5000, 200)


def test_closed_form_matches_dp_everywhere_in_range():
    for L in range(1, 61):
        for K in range(0, 3 * L + 1):
            assert t_closed_form(K, L) == t_exact(K, L).value, (K, L)


def test_canonical_partition_is_optimal_and_feasible():
    for L in range(1, 25):
        for K in range(0, 3 * L + 1):
            parts = canonical_optimal_partition(K, L)
            assert len(parts) == L and sum(parts) == K
            assert list(parts) == sorted(parts, reverse=True)
            assert trip_cost(parts) == t_closed_form(K, L)


def test_t_exact_examples():
    assert t_exact(0, 1).value == 0
    assert t_exact(3, 1).value == 1
    assert t_exact(6, 1).value == comb(4, 3) == 4
    res = t_exact(7, 2)
    assert res.value == 4
    assert (6, 1) in res.optima


def test_t_exact_counterexample_instance():
    # at K=26, L=2 the exact optimum beats the even greedy split
    res = t_exact(26, 2)
    assert res.value == 39
    assert res.optima == ((21, 5), (20, 6))
    assert not res.truncated
    greedy = greedy_packing(26, 2)
    assert greedy == (15, 11)
    assert trip_cost(greedy) == 40 > res.value

    # at K=28, L=2 the even split is optimal again
    res28 = t_exact(28, 2)
    assert res28.value == 40
    assert res28.optima == ((15, 13), (14, 14))
    assert trip_cost(greedy_packing(28, 2)) == 40 == res28.value


def test_t_exact_optima_are_genuine():
    rng = random.Random(17)
    for _ in range(30):
        L = rng.randrange(1, 6)
        K = rng.randrange(0, 12 * L)
        res = t_exact(K, L)
        for parts in res.optima:
            assert len(parts) == L and sum(parts) == K
            assert trip_cost(parts) == res.value
        assert len(set(res.optima)) == len(res.optima)


def test_t_exact_optima_cap():
    res = t_exact(28, 2, optima_cap=1)
    assert res.value == 40
    assert res.truncated
    assert len(res.optima) == 1


@pytest.mark.parametrize("K, L, cap", [(6, 2, 0), (6, 2, -1), (0, 0, 0), (28, 2, -64)])
def test_t_exact_optima_cap_below_one_raises(K, L, cap):
    with pytest.raises(OutOfRange):
        t_exact(K, L, optima_cap=cap)


def test_t_exact_at_the_bounds():
    # the deepest walks: one part per line, down to L_BOUND lines
    res = t_exact(2000, 200)
    assert (res.value, res.optima, res.truncated) == (2000, ((10,) * 200,), False)
    res = t_exact(2000, 37)
    assert res.value == 5970 and len(res.optima) == 34 and not res.truncated
    assert res.optima[0] == (66,) + (55,) * 34 + (36, 28)
    assert res.optima == tuple(sorted(res.optima, reverse=True))
    assert all(sum(parts) == 2000 and trip_cost(parts) == 5970 for parts in res.optima)


def _brute_force_t(K, L):
    @lru_cache(maxsize=None)
    def rec(k, l, cap):
        if l == 0:
            return 0 if k == 0 else inf
        return min(
            (trip_cost([m]) + rec(k - m, l - 1, m) for m in range(min(cap, k), -1, -1)),
            default=inf,
        )

    return rec(K, L, K)


def test_t_exact_against_small_brute_force():
    for L in range(1, 7):
        for K in range(0, 60):
            assert t_exact(K, L).value == _brute_force_t(K, L), (K, L)


def _all_optima(K, L):
    """Every nonincreasing L-tuple summing to K with the least trip cost."""
    def tuples(k, l, cap):
        if l == 0:
            if k == 0:
                yield ()
            return
        for m in range(min(cap, k), -(-k // l) - 1, -1):
            for rest in tuples(k - m, l - 1, m):
                yield (m,) + rest

    every = list(tuples(K, L, K))
    best = min(trip_cost(parts) for parts in every)
    return best, [parts for parts in every if trip_cost(parts) == best]


def _check_against_enumeration(K, L):
    # the optima, their order and the truncation flag, at several caps
    best, optima = _all_optima(K, L)
    expected = sorted(optima, reverse=True)
    for cap in (1, 2, 3, 64):
        res = t_exact(K, L, optima_cap=cap)
        assert res.value == best, (K, L)
        assert res.optima == tuple(expected[:cap]), (K, L, cap)
        assert res.truncated == (len(optima) > cap), (K, L, cap)


def test_t_exact_optima_against_enumeration():
    for L in range(1, 7):
        for K in range(0, 41):
            _check_against_enumeration(K, L)


def test_t_exact_closed_tail_against_enumeration():
    # up to K = 3L every optimum is one 3^a 2^b 1^c 0^d tail of parts <= 3;
    # past it the tails follow a part of 4 or more
    for L in range(7, 13):
        for K in range(0, 3 * L + 4):
            _check_against_enumeration(K, L)


def test_optimum_has_triangular_structure():
    # some optimum always uses only triangular-number parts C(k,2) on all
    # but possibly one line; verify by restricting the DP to triangular parts
    tri = [comb(k, 2) for k in range(30)]

    @lru_cache(maxsize=None)
    def tri_rec(k, l):
        if l == 0:
            return 0 if k == 0 else inf
        return min(
            (trip_cost([m]) + tri_rec(k - m, l - 1) for m in tri if m <= k),
            default=inf,
        )

    for L in range(1, 6):
        for K in range(0, 60):
            best = min(
                trip_cost([f]) + tri_rec(K - f, L - 1) for f in range(K + 1)
            )
            assert best == t_exact(K, L).value, (K, L)


def test_greedy_packing_examples():
    assert greedy_packing(26, 2) == (15, 11)
    assert greedy_packing(28, 2) == (15, 13)
    assert greedy_packing(6, 3) == (3, 3, 0) or sum(greedy_packing(6, 3)) == 6
    parts = greedy_packing(100, 7)
    assert sum(parts) == 100 and len(parts) == 7


def test_greedy_never_beats_exact():
    rng = random.Random(5)
    for _ in range(50):
        L = rng.randrange(1, 7)
        K = rng.randrange(0, 15 * L)
        assert trip_cost(greedy_packing(K, L)) >= t_exact(K, L).value


def test_jensen_lower_bound():
    assert jensen_lower_bound(0, 3) == 0.0
    assert jensen_lower_bound(3, 1) == pytest.approx(1.0)
    for L in range(1, 21):
        for K in range(0, 201):
            assert t_exact(K, L).value >= jensen_lower_bound(K, L) - 1e-9, (K, L)
    with pytest.raises(OutOfRange):
        jensen_lower_bound(3, 0)


@pytest.mark.parametrize("K,L", [(10**400, 1), (10**400, 10**399), (10**309, 10**308)])
def test_jensen_lower_bound_rejects_a_float_overflow(K, L):
    # K / L, or the bound, is too large for a float
    with pytest.raises(OutOfRange):
        jensen_lower_bound(K, L)


def test_psi_lower_bound():
    assert psi_lower_bound(3) == 1
    assert psi_lower_bound(5) == 1
    assert psi_lower_bound(7) == 2
    assert psi_lower_bound(11) == 3
    assert psi_lower_bound(13) == 3
    for p in (3, 5, 7, 11, 13, 17, 19):
        assert psi_lower_bound(p) == -(-(p - 1) // 4)
    with pytest.raises(NonPrimeModulus):
        psi_lower_bound(9)


def test_psi_table_primes_lie_between_the_bounds():
    # ceil((p-1)/4) from the packing, (p-1)/2 from the x -> 1/x family
    primes = [p for p in PSI_TABLE if p > 2 and is_prime(p)]
    assert primes == [3, 5, 7, 11, 13, 17, 19]
    for p in primes:
        assert psi_lower_bound(p) <= PSI_TABLE[p] <= (p - 1) // 2, p


def test_spread_report():
    rep = spread_report([4, 4, 5])
    assert rep.min_part == 4 and rep.max_part == 5
    assert rep.bound == pytest.approx(16.0)
    assert rep.satisfied
    assert not spread_report([1, 9]).satisfied
    with pytest.raises(DegenerateInput):
        spread_report([])
    with pytest.raises(DegenerateInput):
        spread_report([0, 2])


@given(st.lists(st.integers(min_value=0, max_value=60), min_size=1, max_size=8))
def test_trip_cost_is_order_invariant(parts):
    assert trip_cost(parts) == trip_cost(sorted(parts))
    assert trip_cost(parts) == trip_cost(sorted(parts, reverse=True))
