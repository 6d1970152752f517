"""Exact counting of collinear triples/quadruples and slope statistics.

Prime n: two distinct points lie on exactly one line, so one pass over the
pairs counts the pairs on each line, keyed s*n + c for the line
y = s*x + c and n*n + c for the vertical line x = c.  A line holding c pairs
holds k points with C(k, 2) = c, k = (1 + isqrt(1 + 8c)) / 2, and the set
has sum C(k, 3) collinear triples and sum C(k, 4) quadruples.  Slopes need
the inverses of the x-differences that occur, computed as they first occur.

Composite n: the line through two points need not be unique.  Each subset
is charged to its first point p0; for each p0 the differences of the later
points are taken once, every triple is the closed-form test of ``geometry``
on one 2x2 minor, and every quadruple extending a collinear triple one more
test on three minors: O(m^3) tests for triples.

``count_triples_naive`` and ``count_quadruples_naive`` scan subsets with
the line-scan predicate ``collinear_set`` alone, at O(n^2) per subset.  They
are the oracles the counts are tested against, for small n only.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
from math import comb
from typing import Sequence

from .errors import DegenerateInput, OutOfRange
from .geometry import (
    DEFAULT_MODE,
    INF,
    CollinearityMode,
    ModularLine,
    Point,
    collinear_by_minors,
    collinear_set,
)
from .modring import is_prime, require_prime

__all__ = [
    "validate_transversal",
    "transversal_points",
    "count_triples",
    "count_quadruples",
    "count_triples_naive",
    "count_quadruples_naive",
    "slope_histogram",
    "line_decomposition",
    "TripleCensus",
]


@dataclass
class TripleCensus:
    """Line-by-line census of a point set (prime modulus).

    ``lines`` holds every line meeting the set in k >= 2 points together
    with k, ordered by (a, b, c), built on first access from ``pairs`` (the
    pair count per line); triple/quadruple totals are binomial sums.
    """

    triples: int
    quadruples: int
    n: int
    pairs: Counter = field(repr=False)

    @cached_property
    def lines(self) -> list[tuple[ModularLine, int]]:
        n, vertical = self.n, self.n * self.n
        params = sorted(
            ((1, 0, key - vertical) if key >= vertical else ((-(key // n)) % n, 1, key % n), c)
            for key, c in self.pairs.items()
        )
        return [(ModularLine(a, b, c, n), _points_on(pairs)) for (a, b, c), pairs in params]


def validate_transversal(sigma: Sequence[int]) -> list[int]:
    """Check that sigma is a permutation of {0, ..., n-1}."""
    n = len(sigma)
    if sorted(sigma) != list(range(n)):
        raise DegenerateInput(f"not a permutation of range({n}): {list(sigma)}")
    return list(sigma)


def transversal_points(sigma: Sequence[int]) -> list[Point]:
    """The graph {(x, sigma[x])} of a permutation."""
    validate_transversal(sigma)
    return [(x, y) for x, y in enumerate(sigma)]


def _checked_points(points: Sequence[Point], n: int) -> list[Point]:
    # the entry check of every count
    if n < 1:
        raise OutOfRange(f"n must be >= 1, got {n}")
    pts = [(x % n, y % n) for x, y in points]
    if len(set(pts)) != len(pts):
        raise DegenerateInput("duplicate points in set")
    return pts


def count_triples_naive(
    points: Sequence[Point], n: int, mode: CollinearityMode = DEFAULT_MODE
) -> int:
    """O(|S|^3) scan over 3-subsets with ``collinear_set`` (test oracle)."""
    pts = _checked_points(points, n)
    return sum(1 for t in combinations(pts, 3) if collinear_set(t, n, mode))


def count_quadruples_naive(
    points: Sequence[Point], n: int, mode: CollinearityMode = DEFAULT_MODE
) -> int:
    """O(|S|^4) scan over 4-subsets with ``collinear_set`` (test oracle)."""
    pts = _checked_points(points, n)
    return sum(1 for q in combinations(pts, 4) if collinear_set(q, n, mode))


def _pairs_per_line(pts: list[Point], n: int) -> Counter:
    """Pairs of the point set on each line (prime n), keyed as in the
    module docstring."""
    inv: dict[int, int] = {}
    vertical = n * n
    keys = []
    for i, (px, py) in enumerate(pts):
        for qx, qy in pts[i + 1:]:
            dx = (qx - px) % n
            if dx:
                if dx not in inv:
                    inv[dx] = pow(dx, -1, n)
                s = (qy - py) * inv[dx] % n
                keys.append(s * n + (py - s * px) % n)
            else:
                keys.append(vertical + px)
    return Counter(keys)


def _points_on(pairs: int) -> int:
    """k with C(k, 2) == pairs."""
    return (1 + math.isqrt(1 + 8 * pairs)) // 2


def _binomial_sum(lines: Counter, r: int) -> int:
    """Sum of C(k, r) over the lines of a pair count."""
    return sum(comb(_points_on(c), r) * m for c, m in Counter(lines.values()).items())


def _composite_counts(
    pts: list[Point], n: int, mode: CollinearityMode, quadruples: bool
) -> tuple[int, int]:
    triples = quads = 0
    for i, (x0, y0) in enumerate(pts):
        d = [((x - x0) % n, (y - y0) % n) for x, y in pts[i + 1:]]
        g = [math.gcd(n, dx, dy) for dx, dy in d]
        for j, k in combinations(range(len(d)), 2):
            (ax, ay), (bx, by) = d[j], d[k]
            det = ax * by - bx * ay
            if not collinear_by_minors(det, math.gcd(g[j], g[k]), n, mode):
                continue
            triples += 1
            if quadruples:
                for l in range(k + 1, len(d)):
                    cx, cy = d[l]
                    minors = math.gcd(det, ax * cy - cx * ay, bx * cy - cx * by)
                    quads += collinear_by_minors(minors, math.gcd(g[j], g[k], g[l]), n, mode)
    return triples, quads


def line_decomposition(points: Sequence[Point], n: int) -> TripleCensus:
    """Full line census of a point set (prime n): every line with k >= 2."""
    require_prime(n, "line_decomposition")
    lines = _pairs_per_line(_checked_points(points, n), n)
    return TripleCensus(_binomial_sum(lines, 3), _binomial_sum(lines, 4), n, lines)


def count_triples(
    points: Sequence[Point], n: int, mode: CollinearityMode = DEFAULT_MODE
) -> int:
    """Exact number of collinear 3-subsets of the point set."""
    pts = _checked_points(points, n)
    if is_prime(n):
        return _binomial_sum(_pairs_per_line(pts, n), 3)
    return _composite_counts(pts, n, mode, quadruples=False)[0]


def count_quadruples(
    points: Sequence[Point], n: int, mode: CollinearityMode = DEFAULT_MODE
) -> int:
    """Exact number of collinear 4-subsets of the point set."""
    pts = _checked_points(points, n)
    if is_prime(n):
        return _binomial_sum(_pairs_per_line(pts, n), 4)
    return _composite_counts(pts, n, mode, quadruples=True)[1]


def slope_histogram(sigma: Sequence[int], n: int) -> dict:
    """Pair counts per slope class for a transversal (prime n).

    For a permutation graph, slopes 0 and INF never occur and the counts
    total C(n, 2).
    """
    require_prime(n, "slope_histogram")
    hist: dict = {}
    for key, pairs in _pairs_per_line(transversal_points(sigma), n).items():
        s = INF if key >= n * n else key // n
        hist[s] = hist.get(s, 0) + pairs
    return hist
