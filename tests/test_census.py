import random
import time
from itertools import combinations, permutations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modgrid.census import (
    count_quadruples,
    count_quadruples_naive,
    count_triples,
    count_triples_naive,
    line_decomposition,
    slope_histogram,
    transversal_points,
    validate_transversal,
)
from modgrid.constructions import cubic_permutation, inverse_permutation
from modgrid.errors import DegenerateInput, NonPrimeModulus, OutOfRange
from modgrid.geometry import INF, CollinearityMode, ModularLine, pair_slope
from modgrid.modring import is_prime


def identity_points(n):
    return [(x, x) for x in range(n)]


def test_validate_transversal():
    assert validate_transversal([2, 0, 1]) == [2, 0, 1]
    with pytest.raises(DegenerateInput):
        validate_transversal([0, 0, 1])


def test_count_triples_examples():
    assert count_triples(identity_points(5), 5) == 10
    assert count_triples(transversal_points(inverse_permutation(7)), 7) == 3
    assert count_triples([(0, 0), (1, 2)], 5) == 0


def test_count_quadruples_examples():
    assert count_quadruples(identity_points(5), 5) == 5
    assert count_quadruples(transversal_points(inverse_permutation(7)), 7) == 0
    assert count_quadruples(transversal_points(cubic_permutation(5)), 5) == 0


def test_duplicate_points_rejected():
    with pytest.raises(DegenerateInput):
        count_triples([(0, 0), (0, 0), (1, 1)], 5)


def _random_subset(rng, n, size):
    pts = [(x, y) for x in range(n) for y in range(n)]
    return rng.sample(pts, size)


@pytest.mark.parametrize("n", [3, 5, 7, 11, 13, 4, 6, 8, 9, 10, 12])
def test_fast_path_equals_naive(n):
    rng = random.Random(n)
    modes = [CollinearityMode.UNIT_LINE] if is_prime(n) else list(CollinearityMode)
    for _ in range(40):
        size = rng.randrange(2, min(n * n, 13))
        pts = _random_subset(rng, n, size)
        for mode in modes:
            naive = (count_triples_naive(pts, n, mode), count_quadruples_naive(pts, n, mode))
            assert (count_triples(pts, n, mode), count_quadruples(pts, n, mode)) == naive
        if is_prime(n):
            census = line_decomposition(pts, n)
            assert (census.triples, census.quadruples) == naive


def test_census_inverts_only_the_differences_that_occur():
    # a table of all p - 1 inverses would take minutes and gigabytes here
    p = 1_000_000_007
    pts = [(0, 0), (1, 1), (2, 2), (5, 7), (3, p - 1)]
    assert count_triples(pts, p) == 1
    assert count_quadruples(pts, p) == 0
    census = line_decomposition(pts, p)
    assert census.triples == 1 and census.quadruples == 0
    assert sum(comb(k, 2) for _, k in census.lines) == comb(5, 2)


def _collinear_by_slopes(pts, p):
    """Collinear 3- and 4-subsets at prime p by ``pair_slope``: a subset is
    collinear when its first point has one slope to all the others."""
    def collinear(sub):
        return len({pair_slope(sub[0], q, p) for q in sub[1:]}) == 1
    return tuple(sum(map(collinear, combinations(pts, r))) for r in (3, 4))


def test_census_inverse_table_is_sized_by_the_pairs():
    # x spans the whole range mod p: a table of inverses sized by n, or by
    # the span of x, would take minutes and gigabytes here
    p = 1_000_000_007
    h = p // 2
    pts = [(p - 1, 5), (h, h), (0, 0), (p - 2, p - 2), (h, 3), (p - 1, p - 1)]
    start = time.perf_counter()
    counts = (count_triples(pts, p), count_quadruples(pts, p))
    census = line_decomposition(pts, p)
    assert time.perf_counter() - start < 2
    assert counts == (census.triples, census.quadruples) == _collinear_by_slopes(pts, p) == (4, 1)
    assert sum(comb(k, 2) for _, k in census.lines) == comb(len(pts), 2)


PRIMES_TO_31 = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]


@st.composite
def _prime_sets(draw):
    """(p, points): distinct points mod a prime p <= 31 in a few columns, so
    that vertical lines occur, given unreduced and in no order."""
    p = draw(st.sampled_from(PRIMES_TO_31))
    columns = draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=5, unique=True))
    cells = draw(st.lists(st.tuples(st.sampled_from(columns), st.integers(0, p - 1)),
                          max_size=9, unique=True))
    shifts = st.tuples(st.integers(-2, 2), st.integers(-2, 2))
    pts = [(x + a * p, y + b * p) for (x, y), (a, b) in
           zip(cells, draw(st.lists(shifts, min_size=len(cells), max_size=len(cells))))]
    return p, draw(st.permutations(pts))


@settings(max_examples=60, deadline=None)
@given(case=_prime_sets())
def test_prime_census_equals_the_oracles_off_transversals(case):
    p, pts = case
    naive = (count_triples_naive(pts, p), count_quadruples_naive(pts, p))
    assert (count_triples(pts, p), count_quadruples(pts, p)) == naive
    census = line_decomposition(pts, p)
    assert (census.triples, census.quadruples) == naive
    assert census.lines == _lines_by_pair_scan([(x % p, y % p) for x, y in pts], p)


def _pair_slope_histogram(sigma, p):
    """Pairs per ``pair_slope`` of a transversal."""
    hist: dict = {}
    for a, b in combinations(transversal_points(sigma), 2):
        s = pair_slope(a, b, p)
        hist[s] = hist.get(s, 0) + 1
    return hist


@settings(max_examples=40, deadline=None)
@given(sigma=st.sampled_from(PRIMES_TO_31).flatmap(lambda p: st.permutations(range(p))))
def test_slope_histogram_equals_pair_slopes(sigma):
    assert slope_histogram(sigma, len(sigma)) == _pair_slope_histogram(sigma, len(sigma))


def test_pair_accounting_for_quadruple_free_sets():
    # 3 * triples + (pairs on no triple) = C(|S|, 2) when no line holds 4 points
    for p in (5, 7, 11, 13):
        pts = transversal_points(cubic_permutation(p)) if p % 3 == 2 else \
            transversal_points(inverse_permutation(p))
        census = line_decomposition(pts, p)
        assert census.quadruples == 0
        assert all(k <= 3 for _, k in census.lines)
        two_point_pairs = sum(1 for _, k in census.lines if k == 2)
        assert 3 * census.triples + two_point_pairs == comb(len(pts), 2)


def test_every_prime_transversal_has_a_triple():
    for n in (3, 5, 7):
        for perm in permutations(range(n)):
            assert count_triples(transversal_points(list(perm)), n) >= 1
    rng = random.Random(0)
    for n in (11, 13):
        base = list(range(n))
        for _ in range(50):
            rng.shuffle(base)
            assert count_triples(transversal_points(base), n) >= 1


def test_monotone_under_point_addition():
    rng = random.Random(42)
    for n in (5, 6, 9):
        for _ in range(20):
            pts = _random_subset(rng, n, rng.randrange(3, n * n))
            sub = pts[:-1]
            assert count_triples(sub, n) <= count_triples(pts, n)
            assert count_quadruples(sub, n) <= count_quadruples(pts, n)


def test_slope_histogram():
    assert slope_histogram([0, 1, 2, 3, 4], 5) == {1: 10}
    hist = slope_histogram(inverse_permutation(5), 5)
    assert sum(hist.values()) == 10
    assert set(hist) <= {1, 2, 3, 4}
    hist7 = slope_histogram([0, 1, 4, 5, 2, 3, 6], 7)
    assert sum(hist7.values()) == 21
    assert 0 not in hist7 and INF not in hist7
    with pytest.raises(NonPrimeModulus):
        slope_histogram([0, 1, 2, 3], 4)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19, 23, 29, 31])
def test_slope_histogram_matches_pair_slopes(p):
    rng = random.Random(p)
    for _ in range(5):
        sigma = rng.sample(range(p), p)
        assert slope_histogram(sigma, p) == _pair_slope_histogram(sigma, p)


@pytest.mark.parametrize("count", [
    count_triples, count_quadruples, count_triples_naive, count_quadruples_naive,
])
def test_counts_reject_n_below_one(count):
    for n in (0, -3):
        with pytest.raises(OutOfRange):
            count([(0, 0), (1, 1), (2, 2)], n)


def test_line_decomposition_examples():
    census = line_decomposition(identity_points(5), 5)
    assert census.triples == 10 and census.quadruples == 5
    assert [(k) for _, k in census.lines if k >= 3] == [5]

    inv7 = line_decomposition(transversal_points(inverse_permutation(7)), 7)
    assert sorted(k for _, k in inv7.lines if k >= 3) == [3, 3, 3]
    assert inv7.triples == 3

    # any transversal mod 5: its C(5,2) pairs lie on at most (5-1)^2/2 = 8 lines
    for sigma in permutations(range(5)):
        census = line_decomposition(transversal_points(list(sigma)), 5)
        assert len(census.lines) <= 8
        assert sum(comb(k, 2) for _, k in census.lines) == comb(5, 2)


def _lines_by_pair_scan(pts, p):
    """(line, k) for every line through two of the points, as ModularLine's
    canonical form, in order of (a, b, c): the eager construction."""
    lines = set()
    for (px, py), (qx, qy) in combinations(pts, 2):
        if px == qx:
            lines.add((1, 0, px))
        else:
            s = (qy - py) * pow(qx - px, -1, p) % p
            lines.add((-s % p, 1, (py - s * px) % p))
    return [(ModularLine(a, b, c, p), sum(ModularLine(a, b, c, p).contains(q) for q in pts))
            for a, b, c in sorted(lines)]


def test_lazy_lines_equal_the_pair_scan():
    rng = random.Random(11)
    for p in (5, 7, 11, 13, 31, 61):
        sigmas = [inverse_permutation(p)] + [rng.sample(range(p), p) for _ in range(4)]
        for sigma in sigmas:
            pts = transversal_points(sigma)
            assert line_decomposition(pts, p).lines == _lines_by_pair_scan(pts, p)


def test_line_decomposition_requires_prime():
    with pytest.raises(NonPrimeModulus):
        line_decomposition(identity_points(6), 6)


def test_composite_counts_respect_mode():
    pts = [(0, 0), (1, 0), (0, 2)]
    assert count_triples(pts, 6, CollinearityMode.ANY_LINE) == 1
    assert count_triples(pts, 6, CollinearityMode.UNIT_LINE) == 0
