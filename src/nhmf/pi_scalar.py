"""Exact scalars in the ring  Q(i)[pi^(1/2), pi^(-1/2)].

A :class:`PiScalar` is a finite sum  sum_e (a_e + b_e i) pi^e  with half-integer
exponents e and Gaussian-rational coefficients.  This is the coefficient ring
for everything that leaves the rational world: archimedean gamma factors,
leading Laurent coefficients of constant terms, and the analytic normalization
of the raising/lowering operators (which carry factors of -4*pi and -1/(4*pi)).

The zero scalar is the empty sum; no stored coefficient is ever zero.
Addition and multiplication are exact and multiplication adds exponents.
Values are immutable and hashable.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain

from .arith import check_digits, read_rational
from .errors import DomainError


def _coeff(c) -> tuple[Fraction, Fraction]:
    if isinstance(c, tuple) and len(c) == 2:
        re, im = c
        return read_rational(re), read_rational(im)
    return read_rational(c), Fraction(0)


def _exponent(e) -> Fraction:
    e = read_rational(e)
    if e.denominator not in (1, 2):
        raise DomainError(f"pi-exponent {e} is not a half-integer")
    return e


def _summed(pairs) -> "PiScalar":
    """The sum of (exponent, (re, im)) pairs: coefficients added by
    exponent, zero sums dropped."""
    acc: dict[Fraction, tuple[Fraction, Fraction]] = {}
    for e, (re, im) in pairs:
        if e in acc:
            re, im = acc[e][0] + re, acc[e][1] + im
        acc[e] = (re, im)
    out = PiScalar.__new__(PiScalar)
    out._terms = {e: c for e, c in acc.items() if c[0] or c[1]}
    return out


class PiScalar:
    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        if not isinstance(terms, (dict, type(None))):
            raise DomainError(f"the terms of a PiScalar must be a dict, got {type(terms).__name__}")
        pairs = ((_exponent(e), _coeff(c)) for e, c in (terms or {}).items())
        self._terms = _summed(pairs)._terms

    # -- constructors ------------------------------------------------------

    @classmethod
    def pi_power(cls, e, coeff=1, imag=0) -> "PiScalar":
        return cls({e: (coeff, imag)})

    # -- structure ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def terms(self):
        """Sorted (exponent, (re, im)) pairs."""
        return sorted(self._terms.items())

    @property
    def is_real(self) -> bool:
        return all(im == 0 for _, im in self._terms.values())

    @property
    def is_imaginary(self) -> bool:
        return all(re == 0 for re, _ in self._terms.values())

    def as_fraction(self) -> Fraction:
        """The value as a plain rational; error if any pi or i survives."""
        if self.is_zero:
            return Fraction(0)
        if set(self._terms) != {Fraction(0)}:
            raise DomainError(f"{self} is not rational")
        re, im = self._terms[Fraction(0)]
        if im:
            raise DomainError(f"{self} is not real")
        return re

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, PiScalar):
            return NotImplemented
        return _summed(chain(self._terms.items(), other._terms.items()))

    def __neg__(self):
        return _summed((e, (-re, -im)) for e, (re, im) in self._terms.items())

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = PiScalar.pi_power(0, other)
        if not isinstance(other, PiScalar):
            return NotImplemented
        return _summed(
            (e1 + e2, (a * c - b * d, a * d + b * c))
            for e1, (a, b) in self._terms.items()
            for e2, (c, d) in other._terms.items()
        )

    __rmul__ = __mul__

    def invert(self) -> "PiScalar":
        """Reciprocal; defined only for monomials c*pi^e."""
        if len(self._terms) != 1:
            raise DomainError(f"cannot invert non-monomial scalar {self}")
        ((e, (re, im)),) = self._terms.items()
        norm = re * re + im * im
        return PiScalar({-e: (re / norm, -im / norm)})

    def __pow__(self, n: int) -> "PiScalar":
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.invert() ** (-n)
        out, square = PiScalar.pi_power(0), self
        while n:
            if n & 1:
                out = out * square
            n >>= 1
            if n:
                square = square * square
        return out

    # -- comparison / rendering --------------------------------------------

    def _key(self):
        return tuple(sorted(self._terms.items()))

    def __eq__(self, other):
        return isinstance(other, PiScalar) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __bool__(self):
        return not self.is_zero

    def _shown_terms(self):
        # The terms, refused as out-of-domain where a coefficient has more
        # digits than the interpreter converts to text.
        terms = self.terms()
        parts = (x for _, c in terms for part in c for x in part.as_integer_ratio())
        check_digits(*parts, what="a coefficient of a pi-scalar")
        return terms

    def render(self) -> str:
        """Human form like ``-3·π^-1`` or ``6·π^-2 + π^1/2``."""
        if self.is_zero:
            return "0"
        parts = []
        for e, (re, im) in self._shown_terms():
            if im == 0:
                coeff = str(re)
            elif re == 0:
                if im == 1:
                    coeff = "i"
                elif im == -1:
                    coeff = "-i"
                else:
                    coeff = f"({im})i"
            else:
                coeff = f"({re}{'+' if im > 0 else ''}{im}i)"
            if e == 0:
                parts.append(coeff)
            else:
                pi = "π" if e == 1 else f"π^{e}"
                if coeff == "1":
                    parts.append(pi)
                elif coeff == "-1":
                    parts.append(f"-{pi}")
                else:
                    parts.append(f"{coeff}·{pi}")
        return " + ".join(parts)

    def __repr__(self):
        return f"PiScalar({self.render()})"

    def to_json(self):
        """Loss-free JSON: list of [exponent, re, im] with "num/den" strings."""
        return [[str(e), str(re), str(im)] for e, (re, im) in self._shown_terms()]

    @classmethod
    def from_json(cls, data) -> "PiScalar":
        return cls({e: (re, im) for e, re, im in data})


MINUS_FOUR_PI = PiScalar.pi_power(1, -4)
MINUS_INV_FOUR_PI = PiScalar.pi_power(-1, Fraction(-1, 4))
