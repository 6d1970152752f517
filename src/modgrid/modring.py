"""Exact modular arithmetic primitives.

Everything here is plain integer arithmetic; Python ints never overflow,
so intermediate products up to n^2 for n <= 10^6 are exact by construction.
"""
from __future__ import annotations

import math

from .errors import NonPrimeModulus, NotInvertible, OutOfRange

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


def is_prime(n: int) -> bool:
    """Deterministic primality by trial division; exact for all n >= 1."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0 or n % 3 == 0:
        return False
    f = 5
    while f * f <= n:
        if n % f == 0 or n % (f + 2) == 0:
            return False
        f += 6
    return True


def require_prime(n: int, caller: str, odd: bool = False) -> None:
    """Raise NonPrimeModulus, naming ``caller``, unless n is prime (an odd
    prime with ``odd``)."""
    if not is_prime(n) or odd and n == 2:
        raise NonPrimeModulus(f"{caller} requires {'an odd' if odd else 'a'} prime, got {n}")
