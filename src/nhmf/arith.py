"""Exact arithmetic helpers shared by every layer.

Rational coercion and rendering, integer factoring by trial division, and the
one exact linear solver of the package.  Nothing here knows about forms.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .errors import DomainError


def as_fraction(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def is_integral(x: Fraction) -> bool:
    return x.denominator == 1


def frac_to_str(c: Fraction) -> str:
    c = as_fraction(c)
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def prime_factors(n: int):
    """The prime factors of n in ascending order, with multiplicity; none for n < 2."""
    if n < 2:
        return
    while n % 2 == 0:
        yield 2
        n //= 2
    d = 3
    while d * d <= n:
        while n % d == 0:
            yield d
            n //= d
        d += 2
    if n > 1:
        yield n


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
