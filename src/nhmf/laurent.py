"""Leading-term Laurent analysis of Eisenstein constant terms at special points.

The intertwined part of the constant term of a weight-ell Eisenstein section
factors, at the identity and in the unramified-outside-S normalization, as

    archimedean_factor(s, ell, d) * L^S(s, mu)/L^S(s+1, mu) * (local factors),

with the archimedean factor

    ( pi * (-i)^ell * 2^(1-s) * Gamma(s) / (Gamma(alpha) Gamma(beta)) )^d,
    alpha = (s + 1 + ell)/2,   beta = (s + 1 - ell)/2.

Only orders of vanishing and one leading coefficient are ever needed to decide
whether the second term vanishes, contributes a residue, or blows up, so a
:class:`LaurentScalar` stores exactly that: the expansion point, the order
(negative = pole, None = the zero function) and the first nonzero
coefficient as a :class:`PiScalar`.  Any computation that would require
subleading coefficients raises instead of guessing.

Values of the Riemann zeta ratio are built in exactly where they are rational
in pi (the simple pole at 1 and the value at 0); zeta at odd integers is
carried with exact=False, order certified, leading unknown.  Dedekind-zeta
data for degree d > 1 is order-certified only.  A constant-term report builds
a leading coefficient only when its zeta ratio is exact: an order-only ratio
leaves the product order-only, so then only the archimedean order is
computed.  The gamma germs behind it are closed forms on ints.  Haar-measure
normalizations at ramified places are never computed here; ramified local
factors are caller-supplied.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .arith import (
    MAX_DEGREE, MAX_WEIGHT, SHORT_BITS, FrozenRecord, _strip, check_digits, check_int,
    check_type, prime_power_base, read_rational, shown,
)
from .errors import (
    DomainError,
    InsufficientLaurentPrecisionError,
    PoleError,
)
from .pi_scalar import PiScalar


class LaurentScalar(FrozenRecord):
    """Order and leading coefficient of a meromorphic germ at a point.

    A nonzero germ without a leading coefficient certifies its order only
    (exact is False).  The zero germ has no order (None) and no leading
    coefficient, and is exact.  A point whose numerator or denominator has
    more digits than the interpreter converts to text, an order that is no
    int or None, or a leading coefficient that is no nonzero PiScalar, is a
    DomainError.
    """

    __slots__ = ("point", "order", "leading")

    def __init__(self, point, order: int | None, leading: PiScalar | None = None):
        point = read_rational(point)
        # A point within SHORT_BITS bits is within the digit limit; germ
        # arithmetic builds germs often, so only a longer one is checked.
        if point.numerator.bit_length() > SHORT_BITS or point.denominator.bit_length() > SHORT_BITS:
            check_digits(*point.as_integer_ratio(), what="the point of a germ")
        if order is not None:
            check_int("the order of a germ", order)
        if leading is not None and not (isinstance(leading, PiScalar) and leading and order is not None):
            raise DomainError("a leading coefficient must be a nonzero PiScalar, of a nonzero germ")
        self._freeze((point, order, leading))

    @property
    def is_zero(self) -> bool:
        return self.order is None

    @property
    def exact(self) -> bool:
        return self.leading is not None or self.is_zero

    def __mul__(self, other):
        if not isinstance(other, LaurentScalar):
            return NotImplemented
        if self.point != other.point:
            raise DomainError(
                f"cannot multiply germs at {shown(self.point, str)} and {shown(other.point, str)}"
            )
        if self.is_zero or other.is_zero:
            return LaurentScalar(self.point, None)
        leading = self.leading * other.leading if self.exact and other.exact else None
        return LaurentScalar(self.point, self.order + other.order, leading)

    def invert(self) -> "LaurentScalar":
        if self.is_zero:
            raise PoleError("reciprocal of the zero germ")
        if not self.exact:
            raise InsufficientLaurentPrecisionError(
                "cannot invert a germ whose leading coefficient is not certified"
            )
        return LaurentScalar(self.point, -self.order, self.leading.invert())

    def __pow__(self, n: int):
        if n < 0:
            return self.invert() ** (-n)
        if n == 0:
            return LaurentScalar(self.point, 0, PiScalar.pi_power(0))
        if self.is_zero:
            return self
        leading = self.leading**n if self.leading is not None else None
        return LaurentScalar(self.point, self.order * n, leading)

    def __add__(self, other):
        """Leading-term addition; raises when a cancellation would demand
        subleading coefficients."""
        if not isinstance(other, LaurentScalar):
            return NotImplemented
        if self.point != other.point:
            raise DomainError(f"cannot add germs at {shown(self.point, str)} and {shown(other.point, str)}")
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        if self.order != other.order:
            return self if self.order < other.order else other
        if not (self.exact and other.exact):
            raise InsufficientLaurentPrecisionError(
                "sum of equal-order germs with uncertified leadings"
            )
        s = self.leading + other.leading
        if s.is_zero:
            raise InsufficientLaurentPrecisionError(
                "leading coefficients cancel; subleading terms are out of scope"
            )
        return LaurentScalar(self.point, self.order, s)

    def to_json(self) -> dict:
        return {
            "point": str(self.point),
            "order": self.order,
            "zero": self.is_zero,
            "leading": self.leading.render() if self.leading is not None else None,
            "exact": self.exact,
        }


def _gamma(t: int) -> tuple[int, int, int, int]:
    """(order, num, den, t_e) with Gamma(s) ~ (num/den) * pi^(t_e/2) *
    (s - x)^order at the half-integer x = t/2; num/den need not be reduced.

    Poles at non-positive integers have order -1 and residue (-1)^n / n!;
    half-integer values are exact rational multiples of sqrt(pi).
    """
    n = t // 2  # x = n, or x = n + 1/2 for odd t
    if t % 2 == 0:
        if n > 0:
            return 0, math.factorial(n - 1), 1, 0
        return -1, (-1) ** -n, math.factorial(-n), 0
    if n >= 0:
        return 0, math.factorial(2 * n), 4**n * math.factorial(n), 1
    return 0, (-4) ** -n * math.factorial(-n), math.factorial(-2 * n), 1


def _point(s0) -> Fraction:
    """The point s0 as read_rational reads it; DomainError past |s0| <= MAX_WEIGHT."""
    s0 = read_rational(s0)
    n, d = s0.as_integer_ratio()
    check_int("ceil(|point|)", -(-abs(n) // d), high=MAX_WEIGHT)
    return s0


def gamma_at(s0) -> LaurentScalar:
    """Laurent data of Gamma(s) at a half-integer point, |s0| <= MAX_WEIGHT."""
    s0 = _point(s0)
    if s0.denominator > 2:
        raise DomainError(f"gamma Laurent data certified at half-integers only, got {shown(s0, str)}")
    order, num, den, t_e = _gamma(s0.numerator * (2 // s0.denominator))
    return LaurentScalar(s0, order, PiScalar.pi_power(Fraction(t_e, 2), Fraction(num, den)))


def zeta_ratio_at(
    s0,
    d: int = 1,
    character: str = "trivial",
    ramified_L_data: LaurentScalar | None = None,
) -> LaurentScalar:
    """Laurent data of L^S(s, mu)/L^S(s+1, mu) at s0, |s0| <= MAX_WEIGHT.

    Built in exactly for the degree-1 trivial character (the Riemann zeta
    ratio); other characters and degrees carry certified orders only, and
    points outside the certified range demand caller-supplied data.
    """
    check_int("degree d", d, 1, MAX_DEGREE)
    s0 = _point(s0)
    if character not in ("trivial", "nontrivial"):
        raise DomainError(f"unknown character family tag {shown(character)}")
    if ramified_L_data is not None:
        if ramified_L_data.point != s0:
            raise DomainError(
                f"supplied L-data expands at {shown(ramified_L_data.point, str)}, need {shown(s0, str)}"
            )
        return ramified_L_data
    if s0.denominator != 1:
        raise DomainError(
            f"zeta ratio is certified at integer points only, got {shown(s0, str)}; "
            "supply ramified_L_data"
        )
    n = s0.numerator
    exact = d == 1 and character == "trivial"
    if n >= 2 or (n == 1 and character == "nontrivial"):
        # Finite and nonzero: zeta(n)/zeta(n+1) has an odd argument, so its
        # value is not in the exact ring; a nontrivial unitary L(s, mu) is
        # entire and nonvanishing at real s >= 1.  Only the order is certified.
        return LaurentScalar(s0, 0)
    if n == 1:
        # zeta has residue 1 and zeta(2) = pi^2/6; a Dedekind zeta has a
        # simple pole with an uncertified residue.
        if exact:
            return LaurentScalar(s0, -1, PiScalar.pi_power(-2, 6))
        return LaurentScalar(s0, -1)
    if n == 0 and exact:
        # zeta(0) = -1/2 against the simple pole of zeta(s+1).
        return LaurentScalar(s0, 1, PiScalar.pi_power(0, Fraction(-1, 2)))
    if character == "nontrivial":
        raise DomainError("nontrivial-family L-ratio below s = 1 requires caller data")
    degree = "" if d == 1 else f"degree-{d} "
    raise DomainError(f"{degree}zeta ratio not certified at {shown(s0, str)}; supply ramified_L_data")


def archimedean_factor(s0, ell: int, d: int = 1) -> LaurentScalar:
    """Laurent data of the d-th power of
    pi * (-i)^ell * 2^(1-s) * Gamma(s) / (Gamma(alpha) Gamma(beta)) at s0.

    With Gamma ~ c_x pi^(e_x) (s - x)^(o_x) at x = s0, alpha(s0), beta(s0)
    and alpha - alpha(s0) = (s - s0)/2 (likewise beta), the bracket is
    c * i^(3 ell) * pi^(1 + e_s - e_a - e_b) * (s - s0)^(o_s - o_a - o_b),
    c = 2^(1 - s0 + o_a + o_b) c_s / (c_a c_b): one monomial, raised to d.
    """
    check_int("weight ell", ell, -MAX_WEIGHT, MAX_WEIGHT)
    check_int("degree d", d, 1, MAX_DEGREE)
    s0 = _point(s0)
    if s0.denominator != 1:
        raise DomainError(
            f"archimedean factor certified at integer points only, got {shown(s0, str)}"
        )
    n = s0.numerator
    # alpha = (n + 1 + ell)/2 and beta = (n + 1 - ell)/2, each as twice itself
    o_s, n_s, d_s, t_s = _gamma(2 * n)
    o_a, n_a, d_a, t_a = _gamma(n + 1 + ell)
    o_b, n_b, d_b, t_b = _gamma(n + 1 - ell)
    twos = 1 - n + o_a + o_b  # the power of 2 in c
    num, den = n_s * d_a * d_b << max(twos, 0), d_s * n_a * n_b << max(-twos, 0)
    c = Fraction(num, den) ** d
    # (-i)^(ell d) = i^(3 ell d), as (re, im) for each power of i
    re, im = ((c, 0), (0, c), (-c, 0), (0, -c))[3 * ell * d % 4]
    leading = PiScalar.pi_power(Fraction(d * (2 + t_s - t_a - t_b), 2), re, im)
    return LaurentScalar(s0, d * (o_s - o_a - o_b), leading)


def unramified_intertwining_constant(q: int, mu, s0) -> Fraction:
    """(1 - mu q^(-s0-1)) / (1 - mu q^(-s0)): the scalar by which the standard
    intertwining operator acts on the unramified vector, mu = value of the
    character at a uniformizer.

    Raises PoleError (order -1) when mu q^(-s0) = 1.
    """
    p = prime_power_base(q)
    e = _strip(q, p)[0]
    mu = read_rational(mu)
    if mu not in (1, -1):
        raise DomainError(
            f"only the rational roots of unity +-1 are supported, got {shown(mu, str)}"
        )
    s0 = _point(s0)
    exp = -s0 * e
    if exp.denominator != 1:
        raise DomainError(f"q^(-s0) is irrational for q = {shown(q, str)}, s0 = {shown(s0, str)}")
    t = Fraction(p) ** int(exp)
    denom = 1 - mu * t
    if denom == 0:
        raise PoleError(
            f"intertwining constant has a pole: mu * q^(-s0) = 1 at s0 = {shown(s0, str)}",
            order=-1,
        )
    return (1 - mu * t / q) / denom


def weight_parity(k: int) -> int:
    """(-1)^k: the sign at each real place of the characters that the
    weight-k Eisenstein sections are induced from."""
    return -1 if k % 2 else 1


class Verdict(FrozenRecord):
    __slots__ = ("kind", "leading", "exact", "order")

    def __init__(
        self,
        kind: str,  # PureSection | SectionPlusResidue | Pole
        leading: PiScalar | None = None,
        exact: bool = True,
        order: int | None = None,
    ):
        self._freeze((kind, leading, exact, order))

    @classmethod
    def of(cls, germ: LaurentScalar) -> "Verdict":
        """PureSection for the zero germ or order >= 1, SectionPlusResidue
        (carrying the value) at order 0, Pole below."""
        if germ.is_zero or germ.order >= 1:
            return cls("PureSection")
        if germ.order == 0:
            return cls("SectionPlusResidue", leading=germ.leading, exact=germ.exact)
        return cls("Pole", order=int(germ.order), exact=germ.exact)

    def to_json(self) -> dict:
        doc = {"kind": self.kind}
        if self.kind == "SectionPlusResidue":
            doc["leading"] = self.leading.render() if self.leading is not None else None
            doc["exact"] = self.exact
        if self.kind == "Pole":
            doc["order"] = self.order
        return doc


class ConstantTermReport(FrozenRecord):
    """Behavior of the weight-k Eisenstein constant term at its special point.

    The section contributes itself; the intertwined term contributes the
    germ stored in second_term, and the verdict is read off that germ.
    """

    __slots__ = ("k", "d", "character", "second_term")

    def __init__(self, k: int, d: int, character: str, second_term: LaurentScalar):
        check_int("weight k", k, 1, MAX_WEIGHT)
        check_type("second_term", second_term, LaurentScalar)
        self._freeze((k, d, character, second_term))

    @property
    def archimedean_parity(self) -> int:
        return weight_parity(self.k)

    @property
    def verdict(self) -> Verdict:
        return Verdict.of(self.second_term)

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "d": self.d,
            "character": {
                "family": self.character,
                "archimedean_parity": self.archimedean_parity,
            },
            "point": str(self.second_term.point),
            "second_term": self.second_term.to_json(),
            "verdict": self.verdict.to_json(),
        }


def constant_term_report(
    k: int,
    d: int = 1,
    character: str = "trivial",
    local_data=(),
) -> ConstantTermReport:
    """Multiply the archimedean factor, the L-ratio and the finite local data
    at s0 = k - 1 into the germ of the intertwined term.

    local_data: a list or tuple of germs at s0 for the finite places of the
    ramified set, e.g. an order-1 germ for a place where the intertwining
    operator kills the section.

    The zeta ratio comes first.  Only when it is exact is the archimedean
    factor's leading coefficient built; an order-only ratio makes the
    product order-only, so then only the archimedean order
    d * (o_s - o_a - o_b) is computed, from the gamma orders at s0,
    alpha = k and beta = 0.
    """
    check_int("weight k", k, 1, MAX_WEIGHT)
    check_type("local data", local_data, (list, tuple), "a list or tuple of LaurentScalar germs")
    s0 = Fraction(k - 1)
    zeta = zeta_ratio_at(s0, d, character)  # which checks d first
    if zeta.exact:
        total = archimedean_factor(s0, k, d) * zeta
    else:
        # s0 = k - 1, alpha = k and beta = 0, each as twice itself
        o_s, o_a, o_b = (_gamma(t)[0] for t in (2 * k - 2, 2 * k, 0))
        total = LaurentScalar(s0, d * (o_s - o_a - o_b) + zeta.order)
    for item in local_data:
        check_type("local data", item, LaurentScalar, "LaurentScalar germs")
        total = total * item
    return ConstantTermReport(k, d, character, total)
