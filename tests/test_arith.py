"""Shared arithmetic helpers: factoring against brute force, the exact solver."""

from fractions import Fraction

import pytest

from nhmf.arith import is_prime, prime_factors, prime_power_base, solve_exact
from nhmf.errors import DomainError

N_MAX = 2000


def brute_is_prime(n):
    return n >= 2 and all(n % d for d in range(2, n))


PRIMES = [p for p in range(N_MAX + 1) if brute_is_prime(p)]


def test_prime_factors_against_brute_force():
    for n in range(N_MAX + 1):
        factors = list(prime_factors(n))
        assert factors == sorted(factors)
        assert all(brute_is_prime(p) for p in factors)
        product = 1
        for p in factors:
            product *= p
        assert product == (n if n >= 1 else 1)


def test_is_prime_against_brute_force():
    for n in range(-3, N_MAX + 1):
        assert is_prime(n) == brute_is_prime(n), n


def test_prime_power_base_against_brute_force():
    powers = {}
    for p in PRIMES:
        q = p
        while q <= N_MAX:
            powers[q] = p
            q *= p
    for q in range(2, N_MAX + 1):
        if q in powers:
            assert prime_power_base(q) == powers[q]
        else:
            with pytest.raises(DomainError, match=f"^{q} is not a prime power$"):
                prime_power_base(q)
    for bad in (1, 0, -4, "9", 2.0):
        with pytest.raises(DomainError, match="prime power >= 2"):
            prime_power_base(bad)


class TestSolveExact:
    def test_unique_solution_int_keys(self):
        cols = [{0: Fraction(1), 1: Fraction(2)}, {1: Fraction(1), 2: Fraction(3)}]
        target = {0: Fraction(2), 1: Fraction(1), 2: Fraction(-9)}
        assert solve_exact(cols, target) == [Fraction(2), Fraction(-3)]

    def test_unique_solution_tuple_keys(self):
        cols = [
            {(0, 0): Fraction(1), (1, 0): Fraction(12)},
            {(0, 1): Fraction(1, 2), (1, 0): Fraction(1)},
            {(0, 1): Fraction(3)},
        ]
        x = [Fraction(-1, 3), Fraction(4), Fraction(5, 7)]
        target = {}
        for xi, col in zip(x, cols):
            for key, c in col.items():
                target[key] = target.get(key, Fraction(0)) + xi * c
        assert solve_exact(cols, target) == x

    def test_inconsistent_int_keys(self):
        cols = [{0: Fraction(1), 1: Fraction(1)}]
        assert solve_exact(cols, {0: Fraction(1), 1: Fraction(2)}) is None
        assert solve_exact(cols, {5: Fraction(1)}) is None

    def test_inconsistent_tuple_keys(self):
        cols = [{(0, 0): Fraction(1)}, {(1, 2): Fraction(2), (0, 3): Fraction(1)}]
        assert solve_exact(cols, {(1, 2): Fraction(2), (0, 3): Fraction(2)}) is None

    def test_free_columns_are_zero(self):
        cols = [{0: Fraction(1)}, {0: Fraction(2)}]
        assert solve_exact(cols, {0: Fraction(3)}) == [Fraction(3), Fraction(0)]
