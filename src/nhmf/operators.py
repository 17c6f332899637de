"""The sl2 operator algebra on nearly holomorphic forms.

In X-coordinates the weight-raising and weight-lowering operators act by
integer monomial rules, extended linearly:

    raise_weight  (delta_k):  X^r q^n  ->  n X^r q^n + (r - k) X^(r+1) q^n
    lower_weight  (Lambda):   X^r q^n  ->  r X^(r-1) q^n

Both are the l = 1 case of a closed form for their l-fold iterates.  The
l-fold lowering is Lambda^(l):  X^r q^n  ->  r! / (r - l)! X^(r-l) q^n, zero
for r < l.  The l-fold raising delta^(l) = delta_(k+2l-2) o ... o delta_k has
a closed form too (Zagier, *The 1-2-3 of Modular Forms*, 5.2, in these
coordinates).  Write theta for q d/dq, which multiplies the coefficient of q^n
by n.  For the column f_r in front of X^r of a weight-k form,

    delta^(l) (f_r X^r) = sum_{j=0}^{l} b_j theta^(l-j) f_r X^(r+j),
    b_j = C(l, j) (a - l + 1) (a - l + 2) ... (a - l + j),   a = r - k.

Applying the monomial rule once more at weight kappa = k + 2l gives the
recurrence b_j <- b_j + (r + j - 1 - kappa) b_(j-1) (from b_0 = 1), which the
product solves.  For a holomorphic seed (r = 0) of weight w, b_l is c(w, l),
which :func:`leading_column_factor` reads off :func:`delta_coefficients`, the
one place the b_j are computed.  :func:`iterate_raise` and
:func:`iterate_lower` apply the closed forms in one pass, column by column on
the integer storage of :mod:`series` over an unchanged common denominator, so
their cost grows like l, not l^2.  They and :func:`casimir` are the only
column kernels of the sl2 action; the peel of :func:`nhmf.decompose.decompose`
subtracts a raised seed with the same b_j, column by column, without
building it.

These are the rational-preserving normalizations.  The analytic operators

    R_k = k/y + 2i d/dz,      L_k = -2i y^2 d/dzbar

are exact scalar multiples:  R_k = -4*pi * delta_k  and  L_k = -1/(4*pi) * Lambda,
exposed through :func:`raise_analytic` / :func:`lower_analytic` which return a
PiScalar-times-form pair.

The Casimir (k^2 - 2k) + 4 delta_(k-2) Lambda has a closed form too: on the
column f_s in front of X^s of a weight-k form the two monomial rules give

    Omega f = sum_s ((k^2 - 2k + 4 s (s + 1 - k)) f_s + 4 (s + 1) theta f_(s+1)) X^s,

which :func:`casimir` applies in one pass.  On the top X^m column of a
weight-k, depth-m form it acts by k^2 - 2k + 4m(m + 1 - k) = w^2 - 2w,
w = k - 2m.  So a Casimir eigenform has eigenvalue w^2 - 2w and
character chi_w, read off (w, m) with no search; and w^2 - 2w is invariant
under w -> 2 - w, which is what makes :class:`InfinitesimalCharacter` well
defined.

All four operations reject nothing except genuinely malformed input and a
raised image past the size bound of a form file: the zero form (weight "any")
maps to zero.  Sums across distinct weights cannot even be
represented here, so weight-indefinite input is impossible by construction.
"""

from __future__ import annotations

from fractions import Fraction
from math import perm
from operator import add, mul
from typing import TYPE_CHECKING, NamedTuple

from .arith import FrozenRecord, check_int, check_type, read_rational, shown
from .errors import DomainError, NonEigenformError
from .series import MAX_FILE_ENTRIES, NearlyHolomorphicForm

if TYPE_CHECKING:
    from .pi_scalar import PiScalar


def delta_coefficients(a: int, ell: int) -> list[int]:
    """b_0, ..., b_l of delta^(l) for the column in front of X^r of a weight-k
    form, a = r - k: b_j = C(l, j) (a - l + 1) ... (a - l + j)."""
    b = [1]
    for j in range(1, ell + 1):
        b.append(b[-1] * (ell - j + 1) * (a - ell + j) // j)
    return b


def leading_column_factor(w: int, ell: int) -> int:
    """c(w, l): the X^l column of delta^(l) g is c(w, l) * g for holomorphic g of weight w."""
    check_int("weight", w)
    check_int("iteration count", ell, 0)
    return delta_coefficients(-w, ell)[ell]


def raise_weight(f: NearlyHolomorphicForm) -> NearlyHolomorphicForm:
    """delta_k: weight k -> k + 2, preserving rational coefficients."""
    return iterate_raise(f, 1)


def lower_weight(f: NearlyHolomorphicForm) -> NearlyHolomorphicForm:
    """Lambda: weight k -> k - 2; annihilates exactly the holomorphic forms."""
    return iterate_lower(f, 1)


def iterate_raise(f: NearlyHolomorphicForm, ell: int) -> NearlyHolomorphicForm:
    """delta^(l) = delta_(k+2l-2) o ... o delta_k; l = 0 is the identity.

    One pass by the closed form of the module docstring: column r of f adds
    b_j * theta^(l-j) of itself to column r + j of the image.

    The image of a nonzero f of depth m and truncation N has depth at most
    m + l, so it stores up to (m + l + 1) * (N + 1) coefficients.  Past
    MAX_FILE_ENTRIES, the most a form file may hold, it is refused as
    out-of-domain before any column is built.
    """
    check_type("f", f, NearlyHolomorphicForm)
    check_int("iteration count", ell, 0)
    if not ell or f.is_zero:
        return f
    depth, n = f.depth + ell, f.truncation
    if (depth + 1) * (n + 1) > MAX_FILE_ENTRIES:
        raise DomainError(
            f"raising {shown(ell, str)} times gives a form of depth up to {shown(depth, str)} "
            f"and truncation {n}, past {MAX_FILE_ENTRIES} stored coefficients"
        )
    k = f.weight
    ns = range(n + 1)
    out = [None] * (len(f._cols) + ell)
    for r, col in enumerate(f._cols):
        if not any(col):
            continue
        b = delta_coefficients(r - k, ell)
        for j in range(ell, -1, -1):
            if b[j]:
                term = col if b[j] == 1 else list(map(b[j].__mul__, col))
                s = r + j
                out[s] = term if out[s] is None else list(map(add, out[s], term))
            if j:
                col = list(map(mul, ns, col))
    zero = [0] * len(ns)
    cols = [zero if col is None else col for col in out]
    return NearlyHolomorphicForm._from_columns(k + 2 * ell, f.truncation, f._den, cols)


def iterate_lower(f: NearlyHolomorphicForm, ell: int) -> NearlyHolomorphicForm:
    """Lambda^(l), weight k -> k - 2l; l = 0 is the identity.

    One pass by the closed form of the module docstring: column r >= l of f,
    times r! / (r - l)!, is column r - l of the image.
    """
    check_type("f", f, NearlyHolomorphicForm)
    check_int("iteration count", ell, 0)
    if not ell or f.is_zero:
        return f
    out = [list(map(perm(r, ell).__mul__, col)) for r, col in enumerate(f._cols[ell:], ell)]
    return NearlyHolomorphicForm._from_columns(f.weight - 2 * ell, f.truncation, f._den, out)


class ScaledForm(NamedTuple):
    """A PiScalar multiple of a form: the value is scalar * form."""

    scalar: PiScalar
    form: NearlyHolomorphicForm


def raise_analytic(f: NearlyHolomorphicForm) -> ScaledForm:
    """R_k f = (k/y + 2i d/dz) f, returned as (-4*pi) times the rational image."""
    from .pi_scalar import MINUS_FOUR_PI  # only the analytic operators load pi_scalar

    return ScaledForm(MINUS_FOUR_PI, raise_weight(f))


def lower_analytic(f: NearlyHolomorphicForm) -> ScaledForm:
    """L_k f = -2i y^2 (d/dzbar) f, returned as (-1/(4*pi)) times the rational image."""
    from .pi_scalar import MINUS_INV_FOUR_PI

    return ScaledForm(MINUS_INV_FOUR_PI, lower_weight(f))


def casimir(f: NearlyHolomorphicForm) -> NearlyHolomorphicForm:
    """(k^2 - 2k) f + 4 delta_(k-2) Lambda f; commutes with raising and lowering.

    One pass by the closed form of the module docstring: column s of the
    image is (k^2 - 2k + 4 s (s + 1 - k)) f_s + 4 (s + 1) theta f_(s+1).
    """
    check_type("f", f, NearlyHolomorphicForm)
    if f.is_zero:
        return f
    k, cols = f.weight, f._cols
    ns = range(f.truncation + 1)
    out = []
    for s, col in enumerate(cols):
        term = map((k * k - 2 * k + 4 * s * (s + 1 - k)).__mul__, col)
        if s + 1 < len(cols):
            term = map(add, term, map((4 * (s + 1)).__mul__, map(mul, ns, cols[s + 1])))
        out.append(list(term))
    return NearlyHolomorphicForm._from_columns(k, f.truncation, f._den, out)


class InfinitesimalCharacter(FrozenRecord):
    """The character chi_lambda, stored by its orbit representative.

    chi_lambda = chi_mu iff mu in {lambda, 2 - lambda}; the constructor takes
    any rational lambda and stores the orbit maximum, so lam >= 1 always.
    """

    __slots__ = ("lam",)

    def __init__(self, lam):
        lam = read_rational(lam)
        self._freeze((max(lam, 2 - lam),))

    @property
    def integral(self) -> bool:
        return self.lam.denominator == 1

    def __repr__(self):
        return f"chi_{self.lam}"


def _leading_ratio(f: NearlyHolomorphicForm, g: NearlyHolomorphicForm) -> Fraction:
    # The c for which f and c*g agree at the first term of the nonzero g.
    (r, n), lead = g.terms()[0]
    return f.coefficient(r, n) / lead if not f.is_zero else Fraction(0)


def scalar_ratio(f: NearlyHolomorphicForm, g: NearlyHolomorphicForm) -> Fraction | None:
    """c with f = c*g coefficientwise, or None."""
    check_type("f", f, NearlyHolomorphicForm)
    check_type("g", g, NearlyHolomorphicForm)
    if g.is_zero:
        return Fraction(0) if f.is_zero else None
    c = _leading_ratio(f, g)
    return c if (f - g * c).is_zero else None


def casimir_eigenvalue(f: NearlyHolomorphicForm) -> Fraction:
    """w^2 - 2w, w = k - 2m, if casimir(f) is that multiple of f;
    NonEigenformError otherwise."""
    check_type("f", f, NearlyHolomorphicForm)
    if f.is_zero:
        raise NonEigenformError("zero form has no eigenvalue")
    w = f.weight - 2 * f.depth
    c = Fraction(w * w - 2 * w)
    cf = casimir(f)
    if cf != f * c:
        residual = cf - f * _leading_ratio(cf, f)
        raise NonEigenformError("form is not a Casimir eigenvector", residual=residual)
    return c


def infinitesimal_character(f: NearlyHolomorphicForm) -> InfinitesimalCharacter:
    """chi_w, w = k - 2m, of a Casimir eigenform f; NonEigenformError otherwise."""
    casimir_eigenvalue(f)
    return InfinitesimalCharacter(f.weight - 2 * f.depth)
