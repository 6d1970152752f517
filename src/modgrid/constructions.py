"""Explicit low-triple-count permutations of Z_n (n prime).

Families:
  * the self-inverse map x -> x^{-1} (0 -> 0), with (n-1)/2 triples;
  * general fractional-linear maps x -> (ax+b)/(cx+d) with the pole patched;
  * the specific map x -> x/(x-1) fixing 0 and 1;
  * the cube map x -> x^3 for n = 2 mod 3, quadruple-free with
    (n-1)(n-2)/6 triples.
"""
from __future__ import annotations

from dataclasses import dataclass

from .census import validate_transversal
from .errors import BadResidueClass, DegenerateParams
from .modring import mod_inverse, require_prime

__all__ = [
    "MobiusParams",
    "inverse_permutation",
    "mobius_permutation",
    "cubic_permutation",
    "g_permutation",
]


@dataclass(frozen=True)
class MobiusParams:
    """Coefficients of x -> (a*x + b) / (c*x + d) mod a prime n.

    Bijectivity needs c != 0 (so the pole patch applies) and ad - bc != 0.
    """

    a: int
    b: int
    c: int
    d: int


def inverse_permutation(n: int) -> list[int]:
    """x -> x^{-1} for x != 0, 0 -> 0; exactly (n-1)/2 triples, no quadruples."""
    require_prime(n, "inverse_permutation", odd=True)
    sigma = [0] + [pow(x, -1, n) for x in range(1, n)]
    return validate_transversal(sigma)


def mobius_permutation(n: int, params: MobiusParams) -> list[int]:
    """x -> (a*x + b)*(c*x + d)^{-1}, pole -d/c -> a/c; a bijection of Z_n."""
    require_prime(n, "mobius_permutation", odd=True)
    a, b, c, d = (params.a % n, params.b % n, params.c % n, params.d % n)
    if c == 0:
        raise DegenerateParams("c = 0: map is affine, pole patch undefined")
    if (a * d - b * c) % n == 0:
        raise DegenerateParams("ad - bc = 0 mod n: map is constant")
    c_inv = mod_inverse(c, n)
    pole = (-d * c_inv) % n
    sigma = []
    for x in range(n):
        if x == pole:
            sigma.append((a * c_inv) % n)
        else:
            sigma.append(((a * x + b) * mod_inverse((c * x + d) % n, n)) % n)
    return validate_transversal(sigma)


def cubic_permutation(n: int) -> list[int]:
    """x -> x^3 mod n for prime n = 2 mod 3; quadruple-free transversal."""
    require_prime(n, "cubic_permutation", odd=True)
    if n % 3 != 2:
        raise BadResidueClass(f"n = 2 mod 3 required for the cube map, got {n}")
    sigma = [pow(x, 3, n) for x in range(n)]
    return validate_transversal(sigma)


def g_permutation(n: int) -> list[int]:
    """x -> x/(x-1) for x != 1, 1 -> 1; the conjectured lex-least optimum."""
    require_prime(n, "g_permutation", odd=True)
    return mobius_permutation(n, MobiusParams(1, 0, 1, n - 1))
