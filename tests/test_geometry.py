import math
import random
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modgrid import geometry
from modgrid.errors import DegenerateInput, DegeneratePair, NonPrimeModulus, OutOfRange
from modgrid.geometry import (
    INF,
    CollinearityMode,
    ModularLine,
    collinear_by_minors,
    collinear_points,
    collinear_set,
    collinear_triple,
    line_through,
    pair_slope,
)

ANY = CollinearityMode.ANY_LINE
UNIT = CollinearityMode.UNIT_LINE


def test_pair_slope_examples():
    assert pair_slope((0, 0), (1, 3), 7) == 3
    assert pair_slope((2, 5), (2, 1), 7) == INF
    assert pair_slope((0, 0), (2, 1), 5) == 3  # 1 * 2^{-1} = 3 mod 5


def test_pair_slope_errors():
    with pytest.raises(DegeneratePair):
        pair_slope((1, 1), (1, 1), 7)
    with pytest.raises(NonPrimeModulus):
        pair_slope((0, 0), (1, 1), 6)


@pytest.mark.parametrize("n", [0, -3])
def test_predicates_reject_n_below_one(n):
    # unchecked, n = 0 divides by zero, and at n = -3 the closed form calls
    # (0, 0), (1, 1), (2, 2) collinear while the line scan does not
    calls = [
        lambda: collinear_triple((0, 0), (1, 1), (2, 2), n),
        lambda: collinear_points([(0, 0), (1, 1), (2, 2)], n),
        lambda: collinear_set([(0, 0), (1, 1), (2, 2)], n),
        lambda: ModularLine(1, 1, 0, n),
    ]
    for call in calls:
        with pytest.raises(OutOfRange):
            call()


@pytest.mark.parametrize("n", [0, -3])
def test_collinear_by_minors_rejects_n_below_one(n):
    # unchecked, n = 0 divides by zero in unit mode, and n = -3 returns False
    for mode in (ANY, UNIT):
        with pytest.raises(OutOfRange):
            collinear_by_minors(1, 1, n, mode)


def test_line_through_checks_its_points_once(monkeypatch):
    calls, require_prime = [], geometry.require_prime

    def spy(n, *args, **kwargs):
        calls.append(n)
        return require_prime(n, *args, **kwargs)

    monkeypatch.setattr(geometry, "require_prime", spy)
    assert line_through((0, 0), (1, 1), 5) == ModularLine(4, 1, 0, 5)
    assert calls == [5]
    with pytest.raises(DegeneratePair):
        line_through((1, 1), (6, 6), 5)
    with pytest.raises(NonPrimeModulus):
        line_through((0, 0), (1, 1), 6)
    assert calls == [5, 5, 6]


def test_line_through_examples():
    assert line_through((0, 0), (1, 1), 5) == ModularLine(4, 1, 0, 5)
    assert line_through((3, 0), (3, 2), 5) == ModularLine(1, 0, 3, 5)
    assert line_through((0, 2), (1, 2), 7) == ModularLine(0, 1, 2, 7)


def test_line_through_contains_endpoints_and_agrees_with_triple():
    rng = random.Random(7)
    for n in (3, 5, 7, 11):
        for _ in range(30):
            p = (rng.randrange(n), rng.randrange(n))
            q = (rng.randrange(n), rng.randrange(n))
            if p == q:
                continue
            line = line_through(p, q, n)
            assert line.contains(p) and line.contains(q)
            for r in line.points():
                if r not in (p, q):
                    assert collinear_triple(p, q, r, n)


def test_collinear_triple_examples():
    assert collinear_triple((0, 0), (1, 1), (2, 2), 5, ANY)
    assert not collinear_triple((0, 0), (1, 2), (2, 3), 4, ANY)
    assert collinear_triple((0, 0), (1, 0), (0, 2), 6, ANY)
    assert not collinear_triple((0, 0), (1, 0), (0, 2), 6, UNIT)


def test_collinear_triple_rejects_duplicates():
    with pytest.raises(DegenerateInput):
        collinear_triple((0, 0), (0, 0), (1, 1), 5)


def test_collinear_set_examples():
    assert collinear_set([(0, 0), (1, 1), (2, 2), (3, 3)], 7)
    assert not collinear_set([(0, 0), (1, 1), (2, 2), (3, 4)], 7)
    # every pair of distinct points is collinear, composite moduli included
    rng = random.Random(3)
    for n in (2, 4, 6, 9, 12):
        for _ in range(20):
            p = (rng.randrange(n), rng.randrange(n))
            q = (rng.randrange(n), rng.randrange(n))
            if p != q:
                assert collinear_set([p, q], n, UNIT)
                assert collinear_set([p, q], n, ANY)


def test_collinear_set_matches_triple_on_three_points():
    rng = random.Random(11)
    for n in (4, 5, 6, 9):
        for mode in (ANY, UNIT):
            for _ in range(40):
                pts = {(rng.randrange(n), rng.randrange(n)) for _ in range(3)}
                if len(pts) != 3:
                    continue
                pts = sorted(pts)
                assert collinear_set(pts, n, mode) == collinear_triple(*pts, n, mode)


def _scan_oracle(p1, p2, p3, n, mode):
    # independent reference: scan every (a, b) != (0, 0) allowed by the mode
    for a in range(n):
        for b in range(n):
            if a == 0 and b == 0:
                continue
            if mode is UNIT and math.gcd(math.gcd(a, b), n) != 1:
                continue
            c = (a * p1[0] + b * p1[1]) % n
            if (a * p2[0] + b * p2[1]) % n == c and (a * p3[0] + b * p3[1]) % n == c:
                return True
    return False


def _distinct_diff_pairs(n):
    origin = (0, 0)
    for d2x in range(n):
        for d2y in range(n):
            d2 = (d2x, d2y)
            if d2 == origin:
                continue
            for d3x in range(n):
                for d3y in range(n):
                    d3 = (d3x, d3y)
                    if d3 == origin or d3 == d2:
                        continue
                    yield d2, d3


@pytest.mark.parametrize("n", range(2, 13))
def test_anyline_determinant_equals_scan_oracle(n):
    # exhaustive over difference vectors; translation invariance reduces the
    # check to base point (0, 0)
    for d2, d3 in _distinct_diff_pairs(n):
        det = (d2[0] * d3[1] - d3[0] * d2[1]) % n
        fast = math.gcd(det, n) > 1
        assert fast == _scan_oracle((0, 0), d2, d3, n, ANY), (n, d2, d3)


@pytest.mark.parametrize("n", [2, 3, 5, 7])
def test_prime_modes_agree_exhaustive(n):
    for d2, d3 in _distinct_diff_pairs(n):
        assert (
            collinear_triple((0, 0), d2, d3, n, ANY)
            == _scan_oracle((0, 0), d2, d3, n, UNIT)
        )


@pytest.mark.parametrize("n", [11, 13])
def test_prime_modes_agree_large(n):
    # UNIT lines are a subset of ANY lines, so the predicates can only differ
    # where the determinant criterion holds; scan exactly those triples, plus
    # a random sample of the rest.
    for d2, d3 in _distinct_diff_pairs(n):
        det = (d2[0] * d3[1] - d3[0] * d2[1]) % n
        if det == 0:
            assert _scan_oracle((0, 0), d2, d3, n, UNIT), (n, d2, d3)
    rng = random.Random(n)
    checked = 0
    while checked < 200:
        d2 = (rng.randrange(n), rng.randrange(n))
        d3 = (rng.randrange(n), rng.randrange(n))
        if d2 == (0, 0) or d3 == (0, 0) or d2 == d3:
            continue
        if (d2[0] * d3[1] - d3[0] * d2[1]) % n != 0:
            assert not _scan_oracle((0, 0), d2, d3, n, UNIT)
            checked += 1


def test_translation_and_permutation_invariance():
    rng = random.Random(99)
    for n in (5, 6, 9):
        for mode in (ANY, UNIT):
            for _ in range(50):
                pts = set()
                while len(pts) < 3:
                    pts.add((rng.randrange(n), rng.randrange(n)))
                p1, p2, p3 = sorted(pts)
                base = collinear_triple(p1, p2, p3, n, mode)
                t = (rng.randrange(n), rng.randrange(n))
                shifted = [((x + t[0]) % n, (y + t[1]) % n) for x, y in (p1, p2, p3)]
                assert collinear_triple(*shifted, n, mode) == base
                for perm in permutations((p1, p2, p3)):
                    assert collinear_triple(*perm, n, mode) == base


class TestCollinearityKernel:
    """The triple predicate on difference vectors (d2, d3) = (p2 - p1, p3 - p1),
    computed in closed form, against the line scan ``collinear_set``."""

    def test_n2_all_false(self):
        for mode in (ANY, UNIT):
            for d2, d3 in _distinct_diff_pairs(2):
                assert not collinear_triple((0, 0), d2, d3, 2, mode)

    def test_examples(self):
        assert collinear_triple((0, 0), (1, 1), (2, 2), 5)
        assert collinear_triple((0, 0), (3, 0), (0, 3), 9, ANY)
        assert not collinear_triple((0, 0), (3, 0), (0, 3), 9, UNIT)
        assert collinear_points([(0, 0), (3, 0), (0, 3), (3, 3)], 9, ANY)
        assert not collinear_points([(0, 0), (3, 0), (0, 3), (3, 3)], 9, UNIT)

    @pytest.mark.parametrize("n", [2, 3, 4, 6, 8, 9, 12])
    @pytest.mark.parametrize("mode", [ANY, UNIT])
    def test_consistent_with_collinear_triple(self, n, mode):
        for d2, d3 in _distinct_diff_pairs(n):
            want = collinear_set([(0, 0), d2, d3], n, mode)
            assert collinear_triple((0, 0), d2, d3, n, mode) == want, (n, d2, d3)

    def test_translated_queries(self):
        assert collinear_triple((1, 1), (2, 2), (3, 3), 7)
        assert not collinear_triple((1, 1), (2, 2), (3, 4), 7)


@settings(max_examples=300, deadline=None)
@given(n=st.integers(2, 20), mode=st.sampled_from([ANY, UNIT]), data=st.data())
def test_closed_form_equals_line_scan(n, mode, data):
    # 3-, 4- and 5-point sets (at most 4 when n = 2)
    size = data.draw(st.integers(3, min(5, n * n)))
    cells = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    pts = data.draw(st.lists(cells, min_size=size, max_size=size, unique=True))
    assert collinear_points(pts, n, mode) == collinear_set(pts, n, mode)
