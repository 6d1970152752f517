"""Points, lines, slopes and collinearity over Z_n x Z_n.

A "line" is the solution set of a*x + b*y = c (mod n) with (a, b) != (0, 0).
For composite n two reasonable readings exist, so the predicate is
mode-parameterized:

  ANY_LINE  - any nonzero (a, b) qualifies;
  UNIT_LINE - additionally require gcd(a, b, n) == 1.

For prime n the two modes coincide.  The package default is UNIT_LINE,
pinned by the Psi(9) = 5 table experiment (see tests/test_search.py).

Closed form.  For distinct points p0, ..., pk let d_i = p_i - p0, let M be
the gcd of all 2x2 minors of the d_i, and g = gcd(n, every entry of every
d_i).  Then

  UNIT_LINE-collinear  <=>  n*g divides M,
  ANY_LINE-collinear   <=>  gcd(M, n) > 1.

Why: both conditions split over the prime powers q = p^e exactly dividing n
by CRT, so take n = q.  A unit line through p0 is {t*u} for a primitive u,
a cyclic subgroup of order q, and every cyclic subgroup lies in one.  The
d_i generate Z_q/(s1) + Z_q/(s2), where s1 | s2 are the Smith invariants of
the 2 x k matrix of the d_i (s1 = gcd of its entries, s1*s2 = M); the group
is cyclic iff q | s2, which is q*gcd(q, s1) | M.  For ANY_LINE, a nonzero
(a, b) mod n kills every d_i iff for some prime p | n the d_i span at most
a line of (Z_p)^2, that is p | M.  Any representatives of the entries will
do: adding n to one changes M only by a multiple of n*g.  For a triple M is
the single minor, and for prime n both tests read det = 0 mod p.
``collinear_set``, a scan over all lines, is the reference the tests hold
the closed form to.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import chain, combinations
from typing import Iterable, Sequence

from .errors import DegenerateInput, DegeneratePair, OutOfRange
from .modring import mod_inverse, require_prime

__all__ = [
    "INF",
    "CollinearityMode",
    "DEFAULT_MODE",
    "ModularLine",
    "pair_slope",
    "line_through",
    "collinear_by_minors",
    "collinear_points",
    "collinear_triple",
    "collinear_set",
]

Point = tuple[int, int]

#: slope of a pair sharing an x-coordinate
INF = "inf"


class CollinearityMode(str, Enum):
    ANY_LINE = "any"
    UNIT_LINE = "unit"


#: Fixed by computing Psi(9) under both modes: UNIT_LINE yields the table
#: value 5 while ANY_LINE yields a strictly larger count (regression fixture
#: in tests/test_search.py).
DEFAULT_MODE = CollinearityMode.UNIT_LINE


@dataclass(frozen=True)
class ModularLine:
    """Parameters (a, b, c) of {(x, y): a*x + b*y = c mod n}.

    Canonical form (prime n): b == 1 when possible, else a == 1, b == 0.
    """

    a: int
    b: int
    c: int
    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise OutOfRange(f"n must be >= 1, got {self.n}")
        if (self.a % self.n, self.b % self.n) == (0, 0):
            raise DegenerateInput("(a, b) = (0, 0) does not define a line")

    def contains(self, p: Point) -> bool:
        return (self.a * p[0] + self.b * p[1] - self.c) % self.n == 0

    def points(self) -> list[Point]:
        return [
            (x, y)
            for x in range(self.n)
            for y in range(self.n)
            if self.contains((x, y))
        ]


def _reduce(p: Point, n: int) -> Point:
    return (p[0] % n, p[1] % n)


def _checked_points(points: Sequence[Point], n: int) -> list[Point]:
    # the entry check of every collinearity predicate and every count
    if n < 1:
        raise OutOfRange(f"n must be >= 1, got {n}")
    pts = [(x % n, y % n) for x, y in points]
    if len(set(pts)) != len(pts):
        raise DegenerateInput(f"points not pairwise distinct mod {n}")
    return pts


def _checked_pair(p: Point, q: Point, n: int, caller: str) -> tuple[Point, Point]:
    # the entry check of pair_slope and line_through
    require_prime(n, caller)
    p, q = _reduce(p, n), _reduce(q, n)
    if p == q:
        raise DegeneratePair(f"{caller} needs distinct points, got {p} twice")
    return p, q


def _slope(p: Point, q: Point, n: int):
    # p and q reduced and distinct, n prime
    dx = (q[0] - p[0]) % n
    if dx == 0:
        return INF
    return ((q[1] - p[1]) * mod_inverse(dx, n)) % n


def pair_slope(p: Point, q: Point, n: int):
    """Slope of the pair (rise over run): (qy-py)*(qx-px)^-1, or INF if vertical."""
    return _slope(*_checked_pair(p, q, n, "pair_slope"), n)


def line_through(p: Point, q: Point, n: int) -> ModularLine:
    """The unique canonical line through two distinct points (prime n only)."""
    p, q = _checked_pair(p, q, n, "line_through")
    s = _slope(p, q, n)
    if s == INF:
        return ModularLine(1, 0, p[0], n)
    # y = s*x + t  <=>  (-s)*x + y = t
    return ModularLine((-s) % n, 1, (p[1] - s * p[0]) % n, n)


def _by_minors(minors: int, g: int, n: int, mode: CollinearityMode) -> bool:
    # collinear_by_minors for n >= 1, the form the predicates and the
    # census loops call after their own entry check
    if mode == CollinearityMode.ANY_LINE:
        return math.gcd(minors, n) > 1
    return minors % (n * g) == 0


def collinear_by_minors(minors: int, g: int, n: int, mode: CollinearityMode) -> bool:
    """The closed-form collinearity test of the module docstring, for n >= 1
    (OutOfRange otherwise).

    ``minors`` is the gcd of the 2x2 minors of the differences d_i = p_i - p0
    and ``g`` the gcd of n and every entry of every d_i.
    """
    if n < 1:
        raise OutOfRange(f"n must be >= 1, got {n}")
    return _by_minors(minors, g, n, mode)


def collinear_points(
    points: Sequence[Point], n: int, mode: CollinearityMode = DEFAULT_MODE
) -> bool:
    """Whether distinct points lie on a common line (per mode), in closed form."""
    pts = _checked_points(points, n)
    if len(pts) < 2:
        raise DegenerateInput("collinear_points needs at least 2 points")
    x0, y0 = pts[0]
    d = [((x - x0) % n, (y - y0) % n) for x, y in pts[1:]]
    minors = 0
    for (ax, ay), (bx, by) in combinations(d, 2):
        minors = math.gcd(minors, ax * by - bx * ay)
    return _by_minors(minors, math.gcd(n, *chain.from_iterable(d)), n, mode)


def collinear_triple(
    p1: Point, p2: Point, p3: Point, n: int, mode: CollinearityMode = DEFAULT_MODE
) -> bool:
    """Whether three distinct points lie on a common line (per mode)."""
    (x0, y0), (x1, y1), (x2, y2) = _checked_points((p1, p2, p3), n)
    ax, ay, bx, by = x1 - x0, y1 - y0, x2 - x0, y2 - y0
    return _by_minors(ax * by - bx * ay, math.gcd(n, ax, ay, bx, by), n, mode)


def _mode_coeffs(n: int, mode: CollinearityMode) -> Iterable[tuple[int, int]]:
    for a in range(n):
        for b in range(n):
            if a == 0 and b == 0:
                continue
            if mode == CollinearityMode.UNIT_LINE and math.gcd(math.gcd(a, b), n) != 1:
                continue
            yield a, b


def collinear_set(
    points: Sequence[Point], n: int, mode: CollinearityMode = DEFAULT_MODE
) -> bool:
    """Reference predicate: some single line (per mode) contains every point.

    Scans all qualifying (a, b) with c forced by the first point, O(n^2) per
    call.  This is the semantics the closed form is tested against; the
    package computes with the closed form only.
    """
    pts = _checked_points(points, n)
    if len(pts) < 2:
        raise DegenerateInput("collinear_set needs at least 2 points")
    x0, y0 = pts[0]
    rest = pts[1:]
    for a, b in _mode_coeffs(n, mode):
        c = (a * x0 + b * y0) % n
        if all((a * x + b * y - c) % n == 0 for x, y in rest):
            return True
    return False
