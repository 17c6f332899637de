"""Concrete generators: Eisenstein series, the level-1 basis, theta series.

Everything here is exact and deterministic.  The weight-two series carries the
normalization 12X - 1 + 24 sum sigma_1(n) q^n, i.e. its 1/y-part translates
the analytic term 3/(pi*y); this is the negative of the classical completion
E_2 - 3/(pi*y), chosen so the constant-term residue bookkeeping downstream
stays literal.  Classical objects are derived from it by negation.

Theta series use naive lattice enumeration, quadratic in the radius; fine at
desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, isqrt

from .errors import DomainError
from .series import NearlyHolomorphicForm


# B_0, B_1, ... as computed so far; odd indices above 1 hold 0.
_BERNOULLI = [Fraction(1), Fraction(-1, 2)]


def bernoulli(m: int) -> Fraction:
    """B_m with B_1 = -1/2, by the standard recurrence over the even indices."""
    if m < 0:
        raise DomainError(f"bernoulli requires m >= 0, got {m}")
    table = _BERNOULLI
    while len(table) <= m:
        j = len(table)
        if j % 2:
            table.append(Fraction(0))
            continue
        # sum_{i < j} C(j + 1, i) B_i, with B_i = 0 for odd i > 1
        acc = 1 - Fraction(j + 1, 2)
        for i in range(2, j, 2):
            acc += comb(j + 1, i) * table[i]
        table.append(-acc / (j + 1))
    return table[m]


def divisor_power_sum(n: int, e: int) -> int:
    """sigma_e(n) = sum of d^e over positive divisors d of n."""
    acc = 0
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            acc += d**e
            if d * d != n:
                acc += (n // d) ** e
    return acc


def _check_truncation(truncation: int) -> None:
    if not isinstance(truncation, int) or truncation < 0:
        raise DomainError(f"truncation must be a non-negative integer, got {truncation!r}")


def eisenstein(k: int, truncation: int) -> NearlyHolomorphicForm:
    """E_k = 1 - (2k/B_k) sum sigma_(k-1)(n) q^n for even k >= 4; depth 0."""
    if k % 2 or k < 4:
        raise DomainError(f"eisenstein requires even k >= 4, got {k}")
    _check_truncation(truncation)
    factor = Fraction(-2 * k) / bernoulli(k)
    p, d = factor.numerator, factor.denominator
    col = [d] + [p * divisor_power_sum(n, k - 1) for n in range(1, truncation + 1)]
    return NearlyHolomorphicForm._from_columns(k, truncation, d, [col])


def eisenstein2(truncation: int) -> NearlyHolomorphicForm:
    """The weight-two nearly holomorphic Eisenstein series 12X - 1 + 24 sum sigma_1(n) q^n."""
    _check_truncation(truncation)
    col = [-1] + [24 * divisor_power_sum(n, 1) for n in range(1, truncation + 1)]
    top = [12] + [0] * truncation
    return NearlyHolomorphicForm._from_columns(2, truncation, 1, [col, top])


def level1_basis(k: int, truncation: int) -> list[NearlyHolomorphicForm]:
    """The monomials E4^a E6^b with 4a + 6b = k, a spanning set of M_k(SL_2(Z)).

    Empty for k odd, k = 2 or k < 0; [1] for k = 0.  The powers of E4 and E6
    are built incrementally, one product per power, and each monomial with
    a, b > 0 takes one more product.
    """
    exponents = [(a, (k - 4 * a) // 6) for a in range(k // 4, -1, -1) if (k - 4 * a) % 6 == 0]
    if not exponents:
        return []
    one = NearlyHolomorphicForm.constant(1, truncation)

    def powers(w: int, top: int) -> list[NearlyHolomorphicForm]:
        # [1, E_w, E_w^2, ..., E_w^top]
        out = [one]
        if top:
            e = eisenstein(w, truncation)
            out.append(e)
            while len(out) <= top:
                out.append(out[-1] * e)
        return out

    e4 = powers(4, exponents[0][0])
    e6 = powers(6, exponents[-1][1])
    return [e4[a] * e6[b] if a and b else (e4[a] if a else e6[b]) for a, b in exponents]


def delta_cusp(truncation: int) -> NearlyHolomorphicForm:
    """The normalized weight-12 cusp form (E4^3 - E6^2)/1728."""
    e4 = eisenstein(4, truncation)
    e6 = eisenstein(6, truncation)
    return (e4 * e4 * e4 - e6 * e6) * Fraction(1, 1728)


@dataclass(frozen=True)
class BinaryForm:
    """The integral binary quadratic form a x^2 + b xy + c y^2."""

    a: int
    b: int
    c: int

    @property
    def discriminant(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    @property
    def is_positive_definite(self) -> bool:
        return self.a > 0 and self.discriminant < 0

    def __call__(self, x: int, y: int) -> int:
        return self.a * x * x + self.b * x * y + self.c * y * y


def theta_series(q_form: BinaryForm, truncation: int) -> NearlyHolomorphicForm:
    """sum over (x, y) in Z^2 of q^Q(x,y), truncated; weight 1, depth 0.

    Only positive definite forms are in scope (the anisotropic, signature
    (2,0) case); indefinite input is refused.
    """
    if not q_form.is_positive_definite:
        raise DomainError(f"theta series requires a positive definite form, got {q_form}")
    _check_truncation(truncation)
    disc = -q_form.discriminant
    # Q(x, y) >= disc*x^2/(4c) and >= disc*y^2/(4a), giving the search box.
    xmax = isqrt(4 * q_form.c * truncation // disc) + 1
    ymax = isqrt(4 * q_form.a * truncation // disc) + 1
    counts = [0] * (truncation + 1)
    for x in range(-xmax, xmax + 1):
        for y in range(-ymax, ymax + 1):
            v = q_form(x, y)
            if v <= truncation:
                counts[v] += 1
    return NearlyHolomorphicForm._from_columns(1, truncation, 1, [counts])
