"""Shared arithmetic helpers: factoring against brute force, the exact
solver, the reduced echelon form and the one-pass reduction by it."""

import random
import sys
import time
from fractions import Fraction
from math import gcd, isqrt, prod

import pytest

from nhmf.arith import (
    is_prime,
    prime_factors,
    prime_power_base,
    read_rational,
    reduce_by,
    reduced_echelon,
)
from nhmf.errors import DomainError, UsageError

from conftest import sequential_reduce_by, solve_exact

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
        with pytest.raises(DomainError, match="residue cardinality must be an integer >= 2"):
            prime_power_base(bad)


def trial_is_prime(n):
    return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))


# Primes near 1e9, above the 2^16 trial-division bound of prime_factors.
BIG_PRIMES = [p for p in range(10**9 - 130, 10**9 + 100) if trial_is_prime(p)]


def test_semiprimes_of_primes_near_1e9():
    assert len(BIG_PRIMES) >= 8
    for p, q in zip(BIG_PRIMES, BIG_PRIMES[1:]):
        assert list(prime_factors(p * q)) == [p, q]
        assert list(prime_factors(q * p * 12)) == [2, 2, 3, p, q]
    assert list(prime_factors(1000000016000000063)) == [1000000007, 1000000009]


def test_squares_and_cubes_of_large_primes():
    for p in BIG_PRIMES[:4] + [65537, 65539]:
        assert list(prime_factors(p * p)) == [p, p]
        assert list(prime_factors(7 * p * p)) == [7, p, p]
    assert list(prime_factors(65537**3)) == [65537] * 3


def test_carmichael_numbers():
    # Chernick numbers (6k+1)(12k+1)(18k+1) with all three factors prime are
    # Carmichael numbers; the last three have every factor above 2^16.
    for k in (1, 6, 35, 10975, 11045, 11060):
        factors = [6 * k + 1, 12 * k + 1, 18 * k + 1]
        assert all(trial_is_prime(p) for p in factors)
        n = prod(factors)
        assert all((n - 1) % (p - 1) == 0 for p in factors)  # Korselt
        assert list(prime_factors(n)) == factors
        assert not is_prime(n)
    for n, factors in ((561, [3, 11, 17]), (41041, [7, 11, 13, 41])):
        assert list(prime_factors(n)) == factors


def brute_factors(n):
    # Division by every d from 2 up to the square root of what is left.
    factors, d = [], 2
    while d * d <= n:
        while n % d == 0:
            factors.append(d)
            n //= d
        d += 1
    return factors + [n] if n > 1 else factors


@pytest.mark.parametrize(
    "n",
    [
        65521**2,  # the largest prime below the trial bound, squared
        65519 * 65521,
        65521 * 65537,  # the primes on either side of the trial bound
        65537**2,  # past (2^16 + 1)^2 - 1: to Pollard rho
        65537 * 65539,  # to Pollard rho, split there
        4294967279,  # primes just below 2^32
        4294967291,
        2**32,
        4294967311,  # a prime just above 2^32, below 65537^2
        6 * 4294967291,
        2 * 3 * 65521 * 65537,
    ],
)
def test_prime_factors_against_brute_force_across_the_trial_bound(n):
    assert list(prime_factors(n)) == brute_factors(n)


def test_large_primes_are_prime():
    for p in BIG_PRIMES + [2**31 - 1, 2**61 - 1, 4294967311]:
        assert list(prime_factors(p)) == [p]
        assert is_prime(p)
    assert list(prime_factors(2**64 + 1)) == [274177, 67280421310721]


def test_is_prime_against_trial_division_below_2e5():
    # A sieve is the trial-division oracle for every n at once.
    bound = 2 * 10**5
    sieve = bytearray([1]) * bound
    sieve[0] = sieve[1] = 0
    for d in range(2, isqrt(bound - 1) + 1):
        if sieve[d]:
            sieve[d * d :: d] = bytes(len(range(d * d, bound, d)))
    assert [n for n in range(bound) if is_prime(n)] == [n for n in range(bound) if sieve[n]]


def test_strong_pseudoprimes_and_carmichael_numbers_are_composite():
    # The smallest strong pseudoprimes to the first 1, 4, 11 and 12 prime
    # bases, and the two smallest Carmichael numbers.
    for n in (2047, 3215031751, 3825123056546413051, 318665857834031151167461, 561, 1105):
        assert not is_prime(n), n
        assert prod(prime_factors(n)) == n and len(list(prime_factors(n))) > 1
    assert is_prime(10000000000037)


def test_past_the_exact_miller_rabin_bound_is_refused_never_prime():
    # The smallest strong pseudoprime to the first 13 prime bases; both
    # factors are above the trial-division bound.
    n = 3317044064679887385961981
    assert n == 1287836182261 * 2575672364521
    for big in (n, 2**89 - 1, 3 * n):
        with pytest.raises(DomainError, match="primality is decided only below"):
            list(prime_factors(big))
    for call in (is_prime, prime_power_base):
        with pytest.raises(DomainError, match="primality is decided only below"):
            call(n)
    # A small factor settles the question before the cofactor is tested.
    assert not is_prime(3 * n)
    with pytest.raises(DomainError, match="is not a prime power"):
        prime_power_base(2 * n)
    # Just below the bound Miller-Rabin is exact.
    assert list(prime_factors(n - 2)) == [17, 1709, 1366183751, 83570142193]


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


def gauss_jordan_reference(columns, target):
    """Fraction Gauss-Jordan elimination over the sorted keys, free
    variables set to 0: the contract solve_exact must keep."""
    keys = sorted(set(target) | {k for col in columns for k in col})
    rows = [
        [col.get(k, Fraction(0)) for col in columns] + [target.get(k, Fraction(0))]
        for k in keys
    ]
    ncols, row, pivots = len(columns), 0, []
    for col in range(ncols):
        pivot = next((i for i in range(row, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[row], rows[pivot] = rows[pivot], rows[row]
        rows[row] = [v / rows[row][col] for v in rows[row]]
        for i in range(len(rows)):
            if i != row and rows[i][col]:
                c = rows[i][col]
                rows[i] = [a - c * b for a, b in zip(rows[i], rows[row])]
        pivots.append((row, col))
        row += 1
    if any(rows[i][ncols] for i in range(row, len(rows))):
        return None
    sol = [Fraction(0)] * ncols
    for r, c in pivots:
        sol[c] = rows[r][ncols]
    return sol


def test_solve_exact_matches_gauss_jordan_reference():
    # Small random systems with repeated, scaled and zero columns, and
    # targets both inside the span and (mostly) outside it.
    rng = random.Random(5)

    def value():
        return Fraction(rng.randrange(-4, 5), rng.choice([1, 1, 2, 3]))

    seen = {True: 0, False: 0}
    for _ in range(300):
        keys = rng.sample(range(8), rng.randrange(1, 6))
        columns = []
        for _ in range(rng.randrange(0, 5)):
            kind = rng.random()
            if columns and kind < 0.2:
                columns.append({k: v * 2 for k, v in rng.choice(columns).items()})
            elif kind < 0.3:
                columns.append({})
            else:
                columns.append({k: value() for k in keys if rng.random() < 0.7})
        if rng.random() < 0.5:
            target = {}
            for col in columns:
                x = value()
                for k, v in col.items():
                    target[k] = target.get(k, Fraction(0)) + x * v
        else:
            target = {k: value() for k in rng.sample(range(9), 3)}
        want = gauss_jordan_reference(columns, target)
        assert solve_exact(columns, target) == want
        seen[want is None] += 1
    assert seen[True] > 30 and seen[False] > 30


def fraction_rref(vectors, width):
    """The reduced row echelon form over Q, each row 1 at its pivot, as
    (pivot, row) pairs: pivots are sought among the first width entries."""
    rows = []
    for v in vectors:
        v = [Fraction(x) for x in v]
        for p, r in rows:
            if v[p]:
                v = [x - v[p] * y for x, y in zip(v, r)]
        pivot = next((i for i in range(width) if v[i]), None)
        if pivot is None:
            continue
        v = [x / v[pivot] for x in v]
        rows = [(p, [x - r[pivot] * y for x, y in zip(r, v)]) for p, r in rows]
        rows.append((pivot, v))
    return rows


def assert_reduced_echelon(rows, vectors, width):
    # Each row primitive, positive at its own pivot and 0 at every other
    # row's pivot; over Q, the rows are those of the reduced row echelon form.
    pivots = [p for p, _ in rows]
    for p, r in rows:
        assert gcd(*r) == 1 and r[p] > 0, (p, r)
        assert all(r[q] == 0 for q in pivots if q != p), (p, r)
    want = fraction_rref(vectors, width)
    assert [(p, [Fraction(x, r[p]) for x in r]) for p, r in rows] == want


def test_reduced_echelon_rows_are_primitive_and_positive_at_their_pivots():
    assert reduced_echelon([[2, 4, 6]], 3) == [(0, [1, 2, 3])]
    assert reduced_echelon([[2, 4, 6], [0, 3, 9]], 3) == [(0, [1, 0, -3]), (1, [0, 1, 3])]
    assert reduced_echelon([[0, -6, 4, 2]], 2) == [(1, [0, 3, -2, -1])]
    rng = random.Random(27)
    for _ in range(300):
        width, length = rng.randrange(1, 7), rng.randrange(7, 10)
        vectors = []
        for _ in range(rng.randrange(0, 6)):
            scale = rng.choice([1, -1, 2, -3, 6, 35])
            if vectors and rng.random() < 0.2:
                v = [scale * x for x in rng.choice(vectors)]
            else:
                v = [scale * rng.randrange(-5, 6) * (rng.random() < 0.7) for _ in range(length)]
            vectors.append(v)
        assert_reduced_echelon(reduced_echelon(vectors, width), vectors, width)


def random_echelon_rows(rng, width, length):
    """Rows of a reduced echelon form over the first width entries, pivot
    entries in 2..9 (never a unit), not necessarily primitive."""
    pivots = sorted(rng.sample(range(width), rng.randrange(0, width + 1)))
    rows = []
    for p in pivots:
        r = [0] * p + [rng.randrange(2, 10)]
        r += [0 if i in pivots else rng.randrange(-20, 21) for i in range(p + 1, length)]
        rows.append((p, r))
    return rows


def assert_positive_multiple(one, ref):
    # one == c * ref for an integer c > 0, or both zero.
    i = next((i for i, x in enumerate(ref) if x), None)
    if i is None:
        assert not any(one)
        return
    c, rest = divmod(one[i], ref[i])
    assert rest == 0 and c > 0 and one == [c * x for x in ref], (one, ref)


def test_reduce_by_is_a_positive_multiple_of_the_sequential_elimination():
    rng = random.Random(2027)
    in_span = 0
    for _ in range(400):
        width = rng.randrange(1, 9)
        length = width + rng.randrange(0, 4)
        rows = random_echelon_rows(rng, width, length)
        v = [rng.randrange(-30, 31) for _ in range(length)]
        if rows and rng.random() < 0.4:
            # An integer combination of the rows lies in their span.
            v = [0] * length
            for _, r in rows:
                c = rng.randrange(-4, 5)
                v = [x + c * y for x, y in zip(v, r)]
        one = reduce_by(rows, v)
        assert_positive_multiple(one, sequential_reduce_by(rows, v))
        assert all(one[p] == 0 for p, _ in rows)
        in_span += not any(one[:width])
    assert in_span > 100


def test_pollard_rho_budget_leaves_factors_near_1e10():
    # The step budget refuses 16-digit factor pairs (see test_cli) but not these.
    assert list(prime_factors(9999999967 * 10000000019)) == [9999999967, 10000000019]
    assert list(prime_factors(99999999977 * 100000000003)) == [99999999977, 100000000003]


class TestReadRational:
    @pytest.mark.parametrize(
        "literal",
        ["0", "-3/4", " 10/9 ", "0.1", "1.5e-3", "2E+3", "1_000", ".5e1", "-0e5", "12e-20", 7, -2, 0],
    )
    def test_reads_what_fraction_reads(self, literal):
        value = read_rational(literal, UsageError)
        assert type(value) is Fraction and value == Fraction(literal)

    @pytest.mark.parametrize(
        "literal", [True, False, None, 0.1, 1e400, [1], {}, "", "1/0", "1/2e3", "e5", "1e", "0x10"]
    )
    def test_refuses_what_is_no_exact_literal(self, literal):
        with pytest.raises(UsageError, match="bad rational literal"):
            read_rational(literal, UsageError)

    @pytest.mark.skipif(
        not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="no digit limit"
    )
    def test_a_value_past_the_digit_limit_is_refused_before_it_is_built(self):
        limit = sys.get_int_max_str_digits()
        accepted = {
            f"1e{limit - 1}": 10 ** (limit - 1),
            f"-1e-{limit - 1}": Fraction(-1, 10 ** (limit - 1)),
            "9" * limit: int("9" * limit),
            "0e10000000": 0,
            "-0.000e-99999999": 0,
        }
        refused = [
            f"1e{limit}", f"1e-{limit}", f"5e{3 * limit}", f"5e{3 * limit + 1}",
            "1e10000000", "-1.5e-10000000", "0.5e10000000", "9" * limit + "e1",
            "9" * (limit // 2 + 1) + "." + "9" * (limit // 2 + 1), 10**limit,
        ]
        for literal, want in accepted.items():
            start = time.perf_counter()
            assert read_rational(literal, UsageError) == want
            assert time.perf_counter() - start < 1.0
        for literal in refused:
            start = time.perf_counter()
            with pytest.raises(UsageError, match=f"more than {limit} digits"):
                read_rational(literal, UsageError)
            assert time.perf_counter() - start < 1.0
