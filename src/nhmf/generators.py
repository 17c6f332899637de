"""Concrete generators: Eisenstein series, the level-1 basis, theta series.

Everything here is exact and deterministic.  The weight-two series carries the
normalization 12X - 1 + 24 sum sigma_1(n) q^n, i.e. its 1/y-part translates
the analytic term 3/(pi*y); this is the negative of the classical completion
E_2 - 3/(pi*y), chosen so the constant-term residue bookkeeping downstream
stays literal.  Classical objects are derived from it by negation.

Theta series enumerate the lattice points in a box around the Gauss-reduced
form, quadratic in the radius; fine at desk scale.

The divisor sums behind the Eisenstein coefficients are built by
multiplicativity over one table of least prime factors, not by factoring
each n.

Every generator refuses, before any work, a weight (or Bernoulli index) that
is not an int or is above arith.MAX_WEIGHT, and a truncation that is not an
int in 0..arith.MAX_TRUNCATION, with DomainError from arith.check_int.  At
the bounds, on a 2-core x86 host with Python 3.11, a cold
bernoulli(MAX_WEIGHT) takes about 0.4 s, eisenstein(4, MAX_TRUNCATION)
about 0.01 s and eisenstein(MAX_WEIGHT, MAX_TRUNCATION) about 0.15 s more.
The products behind level1_basis multiply packed ints, two of about half
the size per pair of columns (Karatsuba, about the 1.6th power of the
size), and the size is the truncation times the coefficient length, which
grows with the weight.  level1_basis takes one product at weight k per
monomial, so level1_basis(24, 2000) takes about 0.1 s and
level1_basis(12, MAX_TRUNCATION) about 0.35 s, but level1_basis(100, 2000)
about 3 s, and level1_basis(MAX_WEIGHT, MAX_TRUNCATION) far longer.
delta_cusp(MAX_TRUNCATION) takes about 0.1 s.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, isqrt

from .arith import MAX_TRUNCATION, MAX_WEIGHT, FrozenRecord, check_int, check_type, shown
from .errors import DomainError
from .series import NearlyHolomorphicForm, _convolve_into

# B_0, B_1, ... as computed so far; odd indices above 1 hold 0.
_BERNOULLI = [Fraction(1), Fraction(-1, 2)]


def bernoulli(m: int) -> Fraction:
    """B_m with B_1 = -1/2, by the standard recurrence over the even indices."""
    check_int("Bernoulli index", m, 0, MAX_WEIGHT)
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


def _divisor_sums(e: int, truncation: int) -> list[int]:
    """[0, sigma_e(1), ..., sigma_e(truncation)], by multiplicativity.

    With p the least prime factor of n and p^a the power of p in n,
    sigma_e(n) = sigma_e(p^a) * sigma_e(n / p^a), and
    sigma_e(p^a) = 1 + p^e * sigma_e(p^(a-1)); p^e is computed once per prime.
    """
    least = list(range(truncation + 1))
    # Larger p first, so that the least prime factor of a multiple is written last.
    for p in range(isqrt(truncation), 1, -1):
        least[p * p :: p] = [p] * ((truncation - p * p) // p + 1)
    sums = [0] * (truncation + 1)
    power = [1] * (truncation + 1)  # the power of n's least prime factor in n
    if truncation:
        sums[1] = 1
    for n in range(2, truncation + 1):
        p = least[n]
        m = n // p
        pa = power[n] = power[m] * p if least[m] == p else p
        if pa == n:
            sums[n] = 1 + (n**e if m == 1 else sums[p] - 1) * sums[m]
        else:
            sums[n] = sums[pa] * sums[n // pa]
    return sums


def eisenstein(k: int, truncation: int) -> NearlyHolomorphicForm:
    """E_k = 1 - (2k/B_k) sum sigma_(k-1)(n) q^n for even k >= 4; depth 0."""
    check_int("weight", k, 4, MAX_WEIGHT)
    if k % 2:
        raise DomainError(f"eisenstein requires an even weight, got {k}")
    check_int("truncation", truncation, 0, MAX_TRUNCATION)
    factor = Fraction(-2 * k) / bernoulli(k)
    p, d = factor.numerator, factor.denominator
    col = [p * s for s in _divisor_sums(k - 1, truncation)]
    col[0] = d
    return NearlyHolomorphicForm._from_columns(k, truncation, d, [col])


def eisenstein2(truncation: int) -> NearlyHolomorphicForm:
    """The weight-two nearly holomorphic Eisenstein series 12X - 1 + 24 sum sigma_1(n) q^n."""
    check_int("truncation", truncation, 0, MAX_TRUNCATION)
    col = [24 * s for s in _divisor_sums(1, truncation)]
    col[0] = -1
    top = [12] + [0] * truncation
    return NearlyHolomorphicForm._from_columns(2, truncation, 1, [col, top])


# k mod 12 -> (a0, b0): E4^a0 E6^b0 has the least weight 4 a0 + 6 b0 that is
# k mod 12 (14 for k = 2 mod 12, where M_2 = 0).
_HEAD = {0: (0, 0), 2: (2, 1), 4: (1, 0), 6: (0, 1), 8: (2, 0), 10: (1, 1)}


def level1_basis(k: int, truncation: int) -> list[NearlyHolomorphicForm]:
    """The monomials E4^a E6^b with 4a + 6b = k, a spanning set of M_k(SL_2(Z)),
    in decreasing a.

    Empty for k odd, k = 2 or k < 0; [1] for k = 0.  Otherwise the exponents
    are a = a0 + 3i and b = b0 + 2j with i + j = m, m + 1 = dim M_k, so with
    head = E4^a0 E6^b0, u = E4^3 and v = E6^2 the monomials are
    (head u^i) v^(m-i).  E4^2, u and v are built once each, then the chains
    head u^i and v^j, one product per step; each monomial then takes one
    product at weight k, or none where a factor is 1.  That is about 3m + 4
    products in all, against about 6m to build every power of E4 and E6
    first (9 against 15 at k = 36).  A product costs more the higher its
    weight, as its packed slots widen, so the saving is mostly in the
    mid-weight powers that this does not build.
    """
    check_int("weight", k, high=MAX_WEIGHT)
    check_int("truncation", truncation, 0, MAX_TRUNCATION)
    if k % 2:
        return []
    a0, b0 = _HEAD[k % 12]
    m = (k - 4 * a0 - 6 * b0) // 12
    if m < 0:
        return []
    if k == 0:
        return [NearlyHolomorphicForm.constant(1, truncation)]

    def times(f, g):
        # f * g, where None stands for the constant 1 and takes no product
        return g if f is None else f if g is None else f * g

    e4 = eisenstein(4, truncation) if a0 or m else None
    e6 = eisenstein(6, truncation) if b0 or m else None
    e4e4 = e4 * e4 if a0 == 2 or m else None
    heads = [times((None, e4, e4e4)[a0], e6 if b0 else None)]  # head u^i
    vs = [None]  # v^j
    if m:
        u, v = e4e4 * e4, e6 * e6
        for _ in range(m):
            heads.append(times(heads[-1], u))
            vs.append(times(vs[-1], v))
    return [times(heads[m - j], vs[j]) for j in range(m + 1)]


def delta_cusp(truncation: int) -> NearlyHolomorphicForm:
    """The normalized weight-12 cusp form Delta = q prod (1 - q^n)^24, which
    is (E4^3 - E6^2)/1728.

    By Jacobi's identity prod (1 - q^n)^3 = J = sum over m >= 0 of
    (-1)^m (2m + 1) q^(m(m+1)/2), so Delta = q J^8: three squarings of a
    sparse column of small entries, with no Eisenstein series and no division.
    """
    check_int("truncation", truncation, 0, MAX_TRUNCATION)
    power = [0] * truncation  # J, then J^2, J^4, J^8, below q^truncation
    m = t = 0  # t = m(m + 1)/2
    while t < truncation:
        power[t] = (-1) ** m * (2 * m + 1)
        m += 1
        t += m
    for _ in range(3):
        square = [0] * truncation
        _convolve_into(square, power, power)
        power = square
    return NearlyHolomorphicForm._from_columns(12, truncation, 1, [[0] + power])


class BinaryForm(FrozenRecord):
    """The integral binary quadratic form a x^2 + b xy + c y^2."""

    __slots__ = ("a", "b", "c")

    def __init__(self, a: int, b: int, c: int):
        for name, value in zip(self._fields, (a, b, c)):
            check_int(f"coefficient {name}", value)
        self._freeze((a, b, c))

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
    check_type("q_form", q_form, BinaryForm)
    if not q_form.is_positive_definite:
        raise DomainError(f"theta series requires a positive definite form, got {shown(q_form)}")
    check_int("truncation", truncation, 0, MAX_TRUNCATION)
    disc = -q_form.discriminant
    # Gauss-reduce to |b| <= a <= c, by x -> x - k*y and swaps of x and y:
    # an equivalent form represents every integer equally often, and the
    # search box below, set by a and c, then does not grow with |b|.
    a, b, c = q_form.a, q_form.b, q_form.c
    while True:
        k = (b + a) // (2 * a)
        b, c = b - 2 * a * k, c - k * (b - a * k)
        if a <= c:
            break
        a, c = c, a
    reduced = BinaryForm(a, b, c)
    # Q(x, y) >= disc*x^2/(4c) and >= disc*y^2/(4a), giving the search box.
    xmax = isqrt(4 * c * truncation // disc) + 1
    ymax = isqrt(4 * a * truncation // disc) + 1
    counts = [0] * (truncation + 1)
    for x in range(-xmax, xmax + 1):
        for y in range(-ymax, ymax + 1):
            v = reduced(x, y)
            if v <= truncation:
                counts[v] += 1
    return NearlyHolomorphicForm._from_columns(1, truncation, 1, [counts])
