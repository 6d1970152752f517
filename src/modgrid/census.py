"""Exact counting of collinear triples/quadruples and slope statistics.

Prime n: one pass of slope classes.  Sort the points by x; for each point
P, group the later points in other columns by their slope from P.  A
collinear r-subset (r >= 2) off the vertical lines has r distinct x; its
x-least point P sees the other r - 1 in the class of the line's slope, and
any r - 1 points of a class lie on one line with P (two points lie on one
line).  So each is counted once, C(c, r - 1) per class of c points, plus
C(k, r) per column of k points.  The inverses of the x-differences are
taken for all of 1..n-1 when n is at most the number of pairs, else for
those that occur, so the table never costs more than the pass.
``line_decomposition`` keys the slope s from P by the line y = s*x + c, as
s*n + c (x = c as n*n + c): a line of k points collects its C(k, 2) pairs.

Composite n: the line through two points need not be unique.  Each subset
is charged to its first point p0, whose differences to the later points are
taken once; a triple is the closed-form test of ``geometry`` on one 2x2
minor, a quadruple extending a collinear triple one more on three minors.

``count_triples_naive`` and ``count_quadruples_naive``, the oracles of the
tests, scan subsets with the line scan ``collinear_set``, O(n^2) a subset.
"""
from __future__ import annotations

import math
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
from math import comb
from typing import Sequence

from .errors import DegenerateInput
from .geometry import (
    DEFAULT_MODE,
    CollinearityMode,
    ModularLine,
    Point,
    _by_minors,
    _checked_points,
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
    """Line-by-line census of a point set (prime modulus): ``lines`` holds
    every line meeting the set in k >= 2 points with k, ordered by (a, b, c),
    built on first access from ``pairs``, the pair count per line."""

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


def _slope_classes(pts: list[Point], n: int):
    """(px, py, slopes) for each point P of ``pts`` in x order: the slopes
    from P to the later points in other columns (prime n)."""
    pts = sorted(pts)
    xs = {x for x, _ in pts}
    diffs = range(1, n) if n <= comb(len(pts), 2) else {b - a for a in xs for b in xs if b > a}
    inv = {d: pow(d, -1, n) for d in diffs}
    for px, py in pts:
        yield px, py, [(qy - py) * inv[qx - px] % n
                       for qx, qy in pts[bisect_left(pts, (px + 1,)):]]


def _points_on(pairs: int) -> int:
    """k with C(k, 2) == pairs."""
    return (1 + math.isqrt(1 + 8 * pairs)) // 2


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
            if not _by_minors(det, math.gcd(g[j], g[k]), n, mode):
                continue
            triples += 1
            if quadruples:
                for l in range(k + 1, len(d)):
                    cx, cy = d[l]
                    minors = math.gcd(det, ax * cy - cx * ay, bx * cy - cx * by)
                    quads += _by_minors(minors, math.gcd(g[j], g[k], g[l]), n, mode)
    return triples, quads


def line_decomposition(points: Sequence[Point], n: int) -> TripleCensus:
    """Full line census of a point set (prime n): every line with k >= 2."""
    require_prime(n, "line_decomposition")
    pts = _checked_points(points, n)
    keys = []
    for px, py, slopes in _slope_classes(pts, n):
        keys += [s * n + (py - s * px) % n for s in slopes]
    lines = Counter(keys)
    lines.update({n * n + x: comb(k, 2) for x, k in Counter(x for x, _ in pts).items() if k > 1})
    pairs = Counter(lines.values())
    triples, quads = (sum(comb(_points_on(c), r) * m for c, m in pairs.items()) for r in (3, 4))
    return TripleCensus(triples, quads, n, lines)


def _count(points: Sequence[Point], n: int, mode: CollinearityMode, r: int) -> int:
    """Collinear r-subsets, r = 3 or 4 (see the module docstring)."""
    pts = _checked_points(points, n)
    if not is_prime(n):
        return _composite_counts(pts, n, mode, quadruples=r == 4)[r - 3]
    sizes: Counter = Counter()
    for _, _, slopes in _slope_classes(pts, n):
        sizes.update(Counter(slopes).values())
    return (sum(comb(c, r - 1) * m for c, m in sizes.items())
            + sum(comb(k, r) for k in Counter(x for x, _ in pts).values()))


def count_triples(
    points: Sequence[Point], n: int, mode: CollinearityMode = DEFAULT_MODE
) -> int:
    """Exact number of collinear 3-subsets of the point set."""
    return _count(points, n, mode, 3)


def count_quadruples(
    points: Sequence[Point], n: int, mode: CollinearityMode = DEFAULT_MODE
) -> int:
    """Exact number of collinear 4-subsets of the point set."""
    return _count(points, n, mode, 4)


def slope_histogram(sigma: Sequence[int], n: int) -> dict:
    """Pair counts per slope for a transversal (prime n): slopes 0 and INF
    never occur, and the counts total C(n, 2)."""
    require_prime(n, "slope_histogram")
    hist: Counter = Counter()
    for _, _, slopes in _slope_classes(transversal_points(sigma), n):
        hist.update(slopes)
    return dict(hist)
