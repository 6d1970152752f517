import math
import time

import pytest
from hypothesis import given, strategies as st

from modgrid.errors import BoundExceeded, NonPrimeModulus, NotInvertible, OutOfRange
from modgrid.modring import is_prime, mod_inverse, require_prime


def test_mod_inverse_examples():
    assert mod_inverse(3, 7) == 5
    assert mod_inverse(1, 5) == 1
    assert mod_inverse(1, 1000003) == 1
    with pytest.raises(NotInvertible):
        mod_inverse(2, 4)


def test_mod_inverse_rejects_unreduced():
    with pytest.raises(OutOfRange):
        mod_inverse(9, 7)
    with pytest.raises(OutOfRange):
        mod_inverse(0, 0)


@given(st.integers(min_value=2, max_value=500), st.integers(min_value=1, max_value=499))
def test_mod_inverse_involution_on_units(n, a):
    a %= n
    if a == 0 or math.gcd(a, n) != 1:
        return
    b = mod_inverse(a, n)
    assert (a * b) % n == 1
    assert mod_inverse(b, n) == a


def test_is_prime_examples():
    assert is_prime(7)
    assert not is_prime(1)
    assert not is_prime(9)
    assert is_prime(2) and is_prime(3)
    assert is_prime(1000003)


def test_is_prime_against_trial_division():
    def trial(n):
        return n >= 2 and all(n % d for d in range(2, n))

    for n in range(1, 10**4 + 1):
        assert is_prime(n) == trial(n), n


def test_is_prime_against_a_sieve():
    limit = 10**5
    sieve = [False, False] + [True] * (limit - 2)
    for p in range(2, int(limit**0.5) + 1):
        if sieve[p]:
            sieve[p * p::p] = [False] * len(range(p * p, limit, p))
    assert [n for n in range(limit) if is_prime(n)] == [n for n in range(limit) if sieve[n]]


def test_is_prime_at_large_n():
    start = time.perf_counter()
    assert is_prime(2**61 - 1)
    assert time.perf_counter() - start < 0.1
    # strong pseudoprimes to every base but 41, and to every base but 37 and 41
    assert not is_prime(318665857834031151167461)
    assert not is_prime(3825123056546413051)
    # the least strong pseudoprime to all 13 bases: the test is exact only below it
    with pytest.raises(BoundExceeded):
        is_prime(3317044064679887385961981)


def test_require_prime():
    for n in (1, 4, 9):
        for odd in (False, True):
            with pytest.raises(NonPrimeModulus):
                require_prime(n, "caller", odd=odd)
    with pytest.raises(NonPrimeModulus, match="caller requires an odd prime"):
        require_prime(2, "caller", odd=True)
    require_prime(2, "caller")
    require_prime(3, "caller", odd=True)
