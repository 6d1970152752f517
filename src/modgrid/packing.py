"""Pair packing: distribute K pairs among L lines minimizing forced triples.

tau(m) is the fewest vertices spanning m edges; the trip cost of a
distribution (m_1, ..., m_L) is sum C(tau(m_i), 3), and T(K, L) is its
minimum over all distributions.  A closed form covers K <= 3L; an exact
DP covers the rest at desk scale and arbitrates every other route.

``t_exact`` lists the optima by a walk that enters only tight states (the
cost so far plus the DP minimum of the rest equals the value), so the rest
costs exactly what is left.  That caps each part's own cost, and once the
parts are at most 3 the rest is closed: threes and twos cost 1 each, ones
and zeros nothing, one rest per count of threes (see ``t_exact``).
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from math import comb
from typing import Sequence

from .errors import BoundExceeded, DegenerateInput, OutOfRange
from .modring import require_prime

__all__ = [
    "tau",
    "trip_cost",
    "t_closed_form",
    "canonical_optimal_partition",
    "t_exact",
    "greedy_packing",
    "jensen_lower_bound",
    "psi_lower_bound",
    "spread_report",
    "PackingResult",
    "SpreadReport",
    "K_BOUND",
    "L_BOUND",
]

K_BOUND = 2000
L_BOUND = 200

DEFAULT_OPTIMA_CAP = 64


@dataclass
class PackingResult:
    """Exact optimum T(K, L) with its canonical optimal distributions.

    ``optima`` holds nonincreasing part tuples; ``truncated`` flags that the
    enumeration stopped at the cap, not that the set was exhausted.
    """

    value: int
    optima: tuple[tuple[int, ...], ...]
    truncated: bool


@dataclass
class SpreadReport:
    """Min part r, max part, and the 2*r^(3/2) spread bound (informational)."""

    min_part: int
    max_part: int
    bound: float
    satisfied: bool


def tau(m: int) -> int:
    """Least k with C(k, 2) >= m, by exact integer search around isqrt."""
    if m < 0:
        raise OutOfRange(f"tau needs m >= 0, got {m}")
    k = (1 + math.isqrt(1 + 8 * m)) // 2
    while k * (k - 1) // 2 < m:
        k += 1
    while k >= 1 and (k - 1) * (k - 2) // 2 >= m:
        k -= 1
    return k


@lru_cache(maxsize=1)
def _tables() -> tuple[list[int], list[int], list[int]]:
    """C(s, 2), C(s, 3) and tau(m) for the DP, built on its first call."""
    sizes = range(tau(K_BOUND) + 1)
    return ([comb(s, 2) for s in sizes], [comb(s, 3) for s in sizes],
            [tau(m) for m in range(K_BOUND + 1)])


def trip_cost(parts: Sequence[int]) -> int:
    """sum C(tau(m_i), 3) over the parts."""
    if any(m < 0 for m in parts):
        raise DegenerateInput(f"negative part in {parts}")
    return sum(comb(tau(m), 3) for m in parts)


def t_closed_form(K: int, L: int) -> int:
    """T(K, L) = max(ceil((K-L)/2), 0), valid only for K <= 3L."""
    _check_KL(K, L)
    if K > 3 * L:
        raise OutOfRange(f"closed form needs K <= 3L, got K={K}, L={L}")
    return max(-((L - K) // 2), 0)  # ceil((K-L)/2) via floor division


def canonical_optimal_partition(K: int, L: int) -> tuple[int, ...]:
    """The explicit optimal distribution for K <= 3L: threes, twos, ones, zeros."""
    _check_KL(K, L)
    if K > 3 * L:
        raise OutOfRange(f"canonical partition needs K <= 3L, got K={K}, L={L}")
    if K <= L:
        return tuple([1] * K + [0] * (L - K))
    threes = (K - L) // 2
    twos = (K - L) % 2
    ones = K - 3 * threes - 2 * twos
    zeros = L - threes - twos - ones
    return tuple([3] * threes + [2] * twos + [1] * ones + [0] * zeros)


def _check_KL(K: int, L: int) -> None:
    if K < 0 or L < 0:
        raise OutOfRange(f"K and L must be nonnegative, got K={K}, L={L}")
    if K > K_BOUND or L > L_BOUND:
        raise BoundExceeded(f"K={K}, L={L} beyond bounds ({K_BOUND}, {L_BOUND})")


@lru_cache(maxsize=None)
def _min_cost(k: int, l: int) -> int:
    """DP minimum of sum C(tau(m_i), 3) over l parts summing to k; l >= 1 or k = 0.

    The scan picks the largest line's size s: it spans at least ceil(k/l)
    pairs, and the other lines solve (k', l-1), so s >= tau(ceil(k/l)) keeps
    an optimum.  C(s, 3) grows with s: the scan stops once it reaches the best.
    """
    # parts <= 1 are free; once k <= l the answer is 0
    if k <= l:
        return 0
    c2, c3, taus = _tables()
    # a part costs C(tau(m), 3), and the remainder never costs more for
    # fewer pairs, so each line size s takes as many pairs as it spans;
    # the size tau(k) spans all k and leaves none to place
    best = c3[taus[k]]
    for s in range(taus[-(-k // l)], taus[k]):
        cost = c3[s]
        if cost >= best:
            break
        cost += _min_cost(k - c2[s], l - 1)
        if cost < best:
            best = cost
    return best


def t_exact(K: int, L: int, optima_cap: int = DEFAULT_OPTIMA_CAP) -> PackingResult:
    """Exact T(K, L) with canonical optima enumerated up to ``optima_cap``.

    The optima come in lex-descending order from a walk over nonincreasing
    parts that enters only tight states: the cost so far plus the DP
    minimum of the k pairs left on l lines equals the value, so the rest
    must cost exactly r = value - cost.  Two rules follow.  A part's own
    cost C(tau(m), 3) does not fall as m grows and no part costs less than
    0, so no part exceeds C(s, 2) for the largest s with C(s, 3) <= r.
    Once the parts are at most 3 (parts 0 and 1 cost 0, parts 2 and 3 cost
    1), the rest is 3^a 2^b 1^c 0^d with a + b = r and 3a + 2b + c = k,
    listed by a descending (a = 0 once the parts are at most 2).
    ``optima_cap`` below 1 raises ``OutOfRange``.
    """
    _check_KL(K, L)
    if optima_cap < 1:
        raise OutOfRange(f"optima_cap must be >= 1, got {optima_cap}")
    if L == 0:
        if K != 0:
            raise OutOfRange("cannot place pairs on zero lines")
        return PackingResult(0, ((),), False)
    c2, c3, taus = _tables()
    value = _min_cost(K, L)
    optima: list[tuple[int, ...]] = []
    truncated = False

    def extend(prefix: list[int], k: int, l: int, cap: int, cost: int) -> None:
        nonlocal truncated
        r = value - cost
        # the largest part whose own cost C(tau(m), 3) is at most r
        top = min(cap, k, c2[bisect_right(c3, r) - 1])
        if top <= 3:
            # 3^a 2^(r-a) 1^c 0^d: c >= 0 bounds a above, d >= 0 below
            for a in range(min(r if top == 3 else 0, k - 2 * r), max(k - r - l, 0) - 1, -1):
                if len(optima) == optima_cap:
                    truncated = True
                    return
                c = k - 2 * r - a
                optima.append(tuple(prefix) + (3,) * a + (2,) * (r - a)
                              + (1,) * c + (0,) * (l - r - c))
            return
        # nonincreasing parts: m in [ceil(k/l), top]
        for m in range(top, -(-k // l) - 1, -1):
            c = cost + c3[taus[m]]
            if c + _min_cost(k - m, l - 1) > value:
                continue
            prefix.append(m)
            extend(prefix, k - m, l - 1, m, c)
            prefix.pop()
            if truncated:
                return

    extend([], K, L, K, 0)
    return PackingResult(value, tuple(optima), truncated)


def greedy_packing(K: int, L: int) -> tuple[int, ...]:
    """Spread the remaining pairs evenly, rounding each line up to the
    nearest full clique; returns the parts in canonical nonincreasing order.
    """
    _check_KL(K, L)
    remaining = K
    parts = []
    for i in range(L):
        take = min(remaining, comb(tau(-(-remaining // (L - i))), 2))
        parts.append(take)
        remaining -= take
    if remaining:
        raise OutOfRange(f"K={K} does not fit on L={L} lines greedily")
    return tuple(sorted(parts, reverse=True))


def jensen_lower_bound(K: int, L: int) -> float:
    """Convexity lower bound L*g(K/L) with g(x) = (x/6)*(sqrt(1+8x) - 3).

    The package's one floating-point surface, compared with the exact DP
    at tolerance 1e-9; OutOfRange when K/L or the bound overflows a float.
    """
    if L < 1:
        raise OutOfRange(f"L must be >= 1, got L={L}")
    if K < 0:
        raise OutOfRange(f"K must be >= 0, got K={K}")
    try:
        x = K / L
        bound = L * (x / 6.0) * (math.sqrt(1.0 + 8.0 * x) - 3.0)
    except OverflowError:
        bound = math.inf
    if not math.isfinite(bound):
        raise OutOfRange("the Jensen bound of this K and L overflows a float")
    return bound


def psi_lower_bound(n: int) -> int:
    """ceil((n-1)/4) = T(K, L) at K = C(n,2), L = (n-1)^2/2, by the closed
    form ceil((K-L)/2): K <= 3L reads n <= 3(n-1), and K - L = (n-1)/2.
    It needs no DP, so none of the DP's bounds (L exceeds 200 from n = 23)."""
    require_prime(n, "psi_lower_bound", odd=True)
    K = n * (n - 1) // 2
    L = (n - 1) ** 2 // 2
    return -((L - K) // 2)


def spread_report(parts: Sequence[int]) -> SpreadReport:
    """Compare max part against 2*r^(3/2) where r is the smallest part."""
    if not parts or any(m <= 0 for m in parts):
        raise DegenerateInput(f"spread_report needs positive parts, got {parts}")
    r = min(parts)
    mx = max(parts)
    bound = 2.0 * r ** 1.5
    return SpreadReport(min_part=r, max_part=mx, bound=bound, satisfied=mx <= bound)
