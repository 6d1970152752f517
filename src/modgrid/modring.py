"""Exact modular arithmetic primitives.

Everything here is plain integer arithmetic; Python ints never overflow,
so intermediate products up to n^2 for n <= 10^6 are exact by construction.
"""
from __future__ import annotations

import math

from .errors import BoundExceeded, NonPrimeModulus, NotInvertible, OutOfRange

__all__ = ["mod_inverse", "is_prime", "require_prime"]


def mod_inverse(a: int, n: int) -> int:
    """Multiplicative inverse of a modulo n.

    Works for composite n whenever gcd(a, n) == 1; raises NotInvertible
    otherwise (expected for non-unit residues of composite moduli), and
    OutOfRange for n < 1 or a residue outside 0..n-1.
    """
    if n < 1:
        raise OutOfRange(f"modulus must be >= 1, got {n}")
    if not 0 <= a < n:
        raise OutOfRange(f"residue {a} not reduced mod {n}")
    try:
        return pow(a, -1, n)
    except ValueError:
        raise NotInvertible(
            f"{a} is not invertible mod {n} (gcd={math.gcd(a, n)})"
        ) from None


#: the first 13 primes: trial divisors and strong probable-prime bases
_SPRP_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

#: the least composite that is a strong probable prime to every base in
#: _SPRP_BASES (Sorenson & Webster, Math. Comp. 86, 2017)
_SPRP_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic primality in O(log n) multiplications: trial division
    by _SPRP_BASES, then a strong probable-prime test to each of them,
    which is exact for n < _SPRP_BOUND.  Raises BoundExceeded at or above it.
    """
    if n >= _SPRP_BOUND:
        raise BoundExceeded(f"primality of {n} is exact only below {_SPRP_BOUND}")
    if n < 2:
        return False
    for p in _SPRP_BASES:
        if n % p == 0:
            return n == p
    # a composite with no prime factor up to 41 is at least 43**2
    if n < 43 * 43:
        return True
    # n - 1 = d * 2**s with d odd
    s = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> s
    for a in _SPRP_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def require_prime(n: int, caller: str, odd: bool = False) -> None:
    """Raise NonPrimeModulus, naming ``caller``, unless n is prime (an odd
    prime with ``odd``)."""
    if not is_prime(n) or odd and n == 2:
        raise NonPrimeModulus(f"{caller} requires {'an odd' if odd else 'a'} prime, got {n}")
