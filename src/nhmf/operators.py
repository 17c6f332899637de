"""The sl2 operator algebra on nearly holomorphic forms.

In X-coordinates the weight-raising and weight-lowering operators act by
integer monomial rules, extended linearly:

    raise_weight  (delta_k):  X^r q^n  ->  n X^r q^n + (r - k) X^(r+1) q^n
    lower_weight  (Lambda):   X^r q^n  ->  r X^(r-1) q^n

Both act column by column on the integer storage of :mod:`series`, over an
unchanged common denominator.

These are the rational-preserving normalizations.  The analytic operators

    R_k = k/y + 2i d/dz,      L_k = -2i y^2 d/dzbar

are exact scalar multiples:  R_k = -4*pi * delta_k  and  L_k = -1/(4*pi) * Lambda,
exposed through :func:`raise_analytic` / :func:`lower_analytic` which return a
PiScalar-times-form pair.

The Casimir element is normalized so a highest weight vector of weight w has
eigenvalue w^2 - 2w, which is invariant under the orbit w -> 2 - w; this is
what makes :class:`InfinitesimalCharacter` well defined.

All four operations reject nothing except genuinely malformed input: the zero
form (weight "any") maps to zero.  Sums across distinct weights cannot even be
represented here, so weight-indefinite input is impossible by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add, mul
from typing import NamedTuple

from .errors import NonEigenformError, NonRationalCharacterError
from .pi_scalar import MINUS_FOUR_PI, MINUS_INV_FOUR_PI, PiScalar
from .series import NearlyHolomorphicForm


def raise_weight(f: NearlyHolomorphicForm) -> NearlyHolomorphicForm:
    """delta_k: weight k -> k + 2, preserving rational coefficients."""
    if f.is_zero:
        return f
    k = f.weight
    cols = f._cols
    ns = range(f.truncation + 1)
    out = []
    for r, col in enumerate(cols):
        image = list(map(mul, ns, col))
        if r and r - 1 != k:
            image = list(map(add, image, map((r - 1 - k).__mul__, cols[r - 1])))
        out.append(image)
    out.append(list(map((len(cols) - 1 - k).__mul__, cols[-1])))
    return NearlyHolomorphicForm._from_columns(k + 2, f.truncation, f._den, out)


def lower_weight(f: NearlyHolomorphicForm) -> NearlyHolomorphicForm:
    """Lambda: weight k -> k - 2; annihilates exactly the holomorphic forms."""
    if f.is_zero:
        return f
    out = [list(map(r.__mul__, col)) for r, col in enumerate(f._cols) if r]
    return NearlyHolomorphicForm._from_columns(f.weight - 2, f.truncation, f._den, out)


def iterate_raise(f: NearlyHolomorphicForm, ell: int) -> NearlyHolomorphicForm:
    """delta^(l) = delta_(k+2l-2) o ... o delta_k; l = 0 is the identity."""
    if ell < 0:
        raise ValueError("iteration count must be >= 0")
    for _ in range(ell):
        f = raise_weight(f)
    return f


def iterate_lower(f: NearlyHolomorphicForm, ell: int) -> NearlyHolomorphicForm:
    if ell < 0:
        raise ValueError("iteration count must be >= 0")
    for _ in range(ell):
        f = lower_weight(f)
    return f


class ScaledForm(NamedTuple):
    """A PiScalar multiple of a form: the value is scalar * form."""

    scalar: PiScalar
    form: NearlyHolomorphicForm


def raise_analytic(f: NearlyHolomorphicForm) -> ScaledForm:
    """R_k f = (k/y + 2i d/dz) f, returned as (-4*pi) times the rational image."""
    return ScaledForm(MINUS_FOUR_PI, raise_weight(f))


def lower_analytic(f: NearlyHolomorphicForm) -> ScaledForm:
    """L_k f = -2i y^2 (d/dzbar) f, returned as (-1/(4*pi)) times the rational image."""
    return ScaledForm(MINUS_INV_FOUR_PI, lower_weight(f))


def casimir(f: NearlyHolomorphicForm) -> NearlyHolomorphicForm:
    """(k^2 - 2k) f + 4 delta_(k-2) Lambda f; commutes with raising and lowering."""
    if f.is_zero:
        return f
    k = f.weight
    return f * Fraction(k * k - 2 * k) + raise_weight(lower_weight(f)) * 4


@dataclass(frozen=True)
class InfinitesimalCharacter:
    """The character chi_lambda, stored by its orbit representative.

    chi_lambda = chi_mu iff mu in {lambda, 2 - lambda}; the representative is
    the orbit maximum, so lam >= 1 always.
    """

    lam: Fraction
    integral: bool

    @classmethod
    def of(cls, lam) -> "InfinitesimalCharacter":
        lam = Fraction(lam)
        rep = max(lam, 2 - lam)
        return cls(rep, rep.denominator == 1)

    @property
    def orbit(self) -> tuple[Fraction, Fraction]:
        return (self.lam, 2 - self.lam)

    def __repr__(self):
        return f"chi_{self.lam}"


def _rational_sqrt(c: Fraction) -> Fraction | None:
    if c < 0:
        return None
    rn = math.isqrt(c.numerator)
    rd = math.isqrt(c.denominator)
    if rn * rn == c.numerator and rd * rd == c.denominator:
        return Fraction(rn, rd)
    return None


def _leading_ratio(f: NearlyHolomorphicForm, g: NearlyHolomorphicForm) -> Fraction:
    # The c for which f and c*g agree at the first term of the nonzero g.
    (r, n), lead = g.terms()[0]
    return f.coefficient(r, n) / lead if not f.is_zero else Fraction(0)


def scalar_ratio(f: NearlyHolomorphicForm, g: NearlyHolomorphicForm) -> Fraction | None:
    """c with f = c*g coefficientwise, or None."""
    if g.is_zero:
        return Fraction(0) if f.is_zero else None
    c = _leading_ratio(f, g)
    return c if (f - g * c).is_zero else None


def casimir_eigenvalue(f: NearlyHolomorphicForm) -> Fraction:
    """The scalar c with casimir(f) = c*f; NonEigenformError otherwise."""
    if f.is_zero:
        raise NonEigenformError("zero form has no eigenvalue")
    cf = casimir(f)
    c = scalar_ratio(cf, f)
    if c is None:
        residual = cf - f * _leading_ratio(cf, f)
        raise NonEigenformError("form is not a Casimir eigenvector", residual=residual)
    return c


def infinitesimal_character(f: NearlyHolomorphicForm) -> InfinitesimalCharacter:
    """Solve lam^2 - 2*lam = eigenvalue and return the orbit representative."""
    c = casimir_eigenvalue(f)
    root = _rational_sqrt(1 + c)
    if root is None:
        raise NonRationalCharacterError(
            f"Casimir eigenvalue {c} has no rational character parameter",
            eigenvalue=c,
        )
    return InfinitesimalCharacter.of(1 + root)
