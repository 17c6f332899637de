"""Exact arithmetic helpers shared by every layer.

Rational coercion and rendering, integer factoring (trial division, then
Pollard rho for large cofactors) and the one exact linear solver of the
package.  Nothing here knows about forms.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Optional

from .errors import DomainError


def as_fraction(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def is_integral(x: Fraction) -> bool:
    return x.denominator == 1


def frac_to_str(c: Fraction) -> str:
    c = as_fraction(c)
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


# Trial division stops below this bound; a cofactor it leaves composite goes
# to Pollard rho.  Every n <= 2^32 is factored by trial division alone.
_TRIAL_BOUND = 1 << 16

# Miller-Rabin with the first 13 prime bases is exact below _MR_EXACT_BOUND
# (Sorenson and Webster, 2015).  The bound itself is a strong pseudoprime to
# all 13 bases, so a cofactor at or above it that passes is refused instead
# of being reported as prime.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BOUND = 3317044064679887385961981


def prime_factors(n: int):
    """The prime factors of n in ascending order, with multiplicity; none for n < 2.

    DomainError when a factor left by trial division passes Miller-Rabin at
    or above _MR_EXACT_BOUND, where passing does not prove it prime.
    """
    if n < 2:
        return
    while n % 2 == 0:
        yield 2
        n //= 2
    d = 3
    while d * d <= n and d < _TRIAL_BOUND:
        while n % d == 0:
            yield d
            n //= d
        d += 2
    if d * d > n:
        if n > 1:
            yield n
    else:
        yield from sorted(_large_factors(n))


def _large_factors(n: int) -> list[int]:
    # n > 1 has no prime factor below _TRIAL_BOUND.
    if _is_strong_probable_prime(n):
        if n >= _MR_EXACT_BOUND:
            raise DomainError(
                f"cannot factor {n}: primality is decided only below {_MR_EXACT_BOUND}"
            )
        return [n]
    c = 1
    while (g := _pollard_rho(n, c)) == n:
        c += 1
    return _large_factors(g) + _large_factors(n // g)


def _is_strong_probable_prime(n: int) -> bool:
    # n odd and above every base.
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
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


def _pollard_rho(n: int, c: int) -> int:
    """A divisor of the odd composite n by Brent's cycle search on x^2 + c;
    n itself when this c fails."""
    y, r, q, g = 2, 1, 1, 1
    while g == 1:
        x = y
        for _ in range(r):
            y = (y * y + c) % n
        k = 0
        while k < r and g == 1:
            ys = y
            for _ in range(min(128, r - k)):
                y = (y * y + c) % n
                q = q * abs(x - y) % n
            g = gcd(q, n)
            k += 128
        r *= 2
    if g == n:
        # The batched product hit 0 mod n: redo the last batch one step at a time.
        g = 1
        while g == 1:
            ys = (ys * ys + c) % n
            g = gcd(abs(x - ys), n)
    return g


def is_prime(n: int) -> bool:
    return n >= 2 and next(prime_factors(n)) == n


def prime_power_base(q: int) -> int:
    """The prime p with q = p^e; DomainError if q is not a prime power."""
    if not isinstance(q, int) or q < 2:
        raise DomainError(f"residue cardinality must be a prime power >= 2, got {q}")
    p = next(prime_factors(q))
    n = q
    while n % p == 0:
        n //= p
    if n != 1:
        raise DomainError(f"{q} is not a prime power")
    return p


def solve_exact(columns, target) -> Optional[list[Fraction]]:
    """Solve target = sum x_i columns_i over Fraction dicts; None if outside.

    Columns and target map the same kind of key (an int, an (r, n) pair, ...)
    to coefficients; a missing key is 0.  Gauss-Jordan elimination with free
    variables set to 0, so an independent set of columns gives the unique
    solution.
    """
    keys = sorted(set(target) | {k for col in columns for k in col})
    rows = [
        [col.get(key, Fraction(0)) for col in columns] + [target.get(key, Fraction(0))]
        for key in keys
    ]
    ncols = len(columns)
    row = 0
    pivots = []
    for col in range(ncols):
        pivot = next((i for i in range(row, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[row], rows[pivot] = rows[pivot], rows[row]
        inv = 1 / rows[row][col]
        rows[row] = [v * inv for v in rows[row]]
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
