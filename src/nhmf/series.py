"""Exact truncated q-expansions with near-holomorphy variable X = 1/(4*pi*y).

A nearly holomorphic form of weight k is a finite sum

    f = sum c(r, n) X^r q^n,      c(r, n) in Q,  0 <= n <= truncation,

where q = exp(2*pi*i*z) and X = 1/(4*pi*y) for z = x + i*y in the upper half
plane.  Storing the 1/y-dependence through X (rather than 1/y itself) keeps
every operator image rational: the weight-two Eisenstein term 3/(pi*y)
becomes 12*X, and the raising/lowering operators act with integer monomial
rules.  The analytic normalization is recovered through PiScalar wrappers.

The form is stored as one positive common denominator d and one dense integer
column per X-degree: column r holds d*c(r, 0), ..., d*c(r, truncation).  The
storage is canonical: gcd(d, every entry) = 1, the top column is nonzero, and
the zero form has no columns, so equality and hashing compare plain ints.
Sums, products, truncation and the operators of :mod:`operators` run on the
integer columns; Fractions appear only at the public accessors.

Truncation semantics: operations never extrapolate.  Mixing truncations
silently takes the minimum, because decomposition pipelines naturally mix
precisions.  The zero form has weight "any" (stored as None) so that graded
addition with zero always succeeds.

All values are immutable after construction; all operations are pure.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import add, neg

from .arith import frac_to_str
from .errors import FormFileError, WeightMismatchError


# A form file may describe at most this many stored coefficients,
# (depth + 1) * (truncation + 1), since the columns are stored densely.
MAX_FILE_ENTRIES = 10**6


def frac_from_str(s: str) -> Fraction:
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise FormFileError(f"bad rational literal {s!r}") from exc


def _scaled(col, s: int, length: int):
    """The first length entries of col, times s."""
    col = col[:length]
    return col if s == 1 else map(s.__mul__, col)


def _convolve_into(acc: list, a, b) -> None:
    """acc[n] += sum of a[i] * b[n - i] for every n < len(acc): one scaled
    shift of b per nonzero entry of a, the factor with more zero entries."""
    length = len(acc)
    a, b = a[:length], b[:length]
    if a.count(0) < b.count(0):
        a, b = b, a
    for i, x in enumerate(a):
        if x:
            acc[i:] = map(add, acc[i:], map(x.__mul__, b[: length - i]))


class NearlyHolomorphicForm:
    __slots__ = ("_weight", "_trunc", "_den", "_cols")

    def __init__(self, weight, truncation: int, coeffs=None):
        """The form sum of c * X^r q^n over coeffs {(r, n): c}, dropping n > truncation.

        Storage is dense: a nonzero form holds (depth + 1) * (truncation + 1)
        ints however few of its terms are nonzero, so even a monomial at a
        large truncation costs memory in proportion to that truncation.
        """
        if not isinstance(truncation, int) or truncation < 0:
            raise ValueError(f"truncation must be a non-negative integer, got {truncation!r}")
        data: dict[tuple[int, int], Fraction] = {}
        if coeffs:
            for (r, n), c in coeffs.items():
                if not (isinstance(r, int) and isinstance(n, int)) or r < 0 or n < 0:
                    raise ValueError(f"bad exponent pair ({r}, {n})")
                if n > truncation:
                    continue
                c = Fraction(c)
                if c:
                    data[(r, n)] = c
        if data and not isinstance(weight, int):
            raise ValueError(f"weight must be an integer, got {weight!r}")
        # The lcm of reduced denominators is already coprime to the numerators.
        den = lcm(*(c.denominator for c in data.values()))
        cols = [[0] * (truncation + 1) for _ in range(max((r for r, _ in data), default=-1) + 1)]
        for (r, n), c in data.items():
            cols[r][n] = c.numerator * (den // c.denominator)
        self._weight = weight if data else None
        self._trunc = truncation
        self._den = den
        self._cols = tuple(map(tuple, cols))

    @classmethod
    def _from_columns(cls, weight, truncation: int, den: int, cols) -> "NearlyHolomorphicForm":
        """Trusted constructor for kernel results: den > 0, cols a list of
        integer sequences of length truncation + 1, which this brings to the
        canonical storage."""
        while cols and not any(cols[-1]):
            cols.pop()
        out = object.__new__(cls)
        out._trunc = truncation
        if not cols:
            out._weight, out._den, out._cols = None, 1, ()
            return out
        g = gcd(den, *map(lambda col: gcd(*col), cols)) if den != 1 else 1
        if g != 1:
            den //= g
            cols = [map(g.__rfloordiv__, col) for col in cols]
        out._weight = weight
        out._den = den
        out._cols = tuple(map(tuple, cols))
        return out

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, truncation: int) -> "NearlyHolomorphicForm":
        return cls(None, truncation)

    @classmethod
    def constant(cls, c, truncation: int) -> "NearlyHolomorphicForm":
        """The constant c as a weight-zero form."""
        return cls(0, truncation, {(0, 0): Fraction(c)})

    @classmethod
    def monomial(cls, weight: int, truncation: int, r: int = 0, n: int = 0, c=1):
        return cls(weight, truncation, {(r, n): Fraction(c)})

    # -- structure ---------------------------------------------------------

    @property
    def weight(self):
        """Integer weight, or None for the zero form (weight "any")."""
        return self._weight

    @property
    def truncation(self) -> int:
        return self._trunc

    @property
    def is_zero(self) -> bool:
        return not self._cols

    @property
    def depth(self) -> int:
        """Maximal X-degree with a nonzero coefficient; 0 for the zero form."""
        return max(len(self._cols) - 1, 0)

    @property
    def is_holomorphic(self) -> bool:
        return self.depth == 0

    def coefficient(self, r: int, n: int) -> Fraction:
        if n > self._trunc:
            raise ValueError(f"coefficient q^{n} beyond truncation {self._trunc}")
        if 0 <= r < len(self._cols) and n >= 0:
            return Fraction(self._cols[r][n], self._den)
        return Fraction(0)

    def terms(self):
        """Sorted ((r, n), c) pairs, lexicographic in (r, n)."""
        den = self._den
        return [
            ((r, n), Fraction(c, den))
            for r, col in enumerate(self._cols)
            for n, c in enumerate(col)
            if c
        ]

    def x_column(self, r: int) -> dict[int, Fraction]:
        """The q-series sitting in front of X^r, as a dict n -> coefficient."""
        if not 0 <= r < len(self._cols):
            return {}
        den = self._den
        return {n: Fraction(c, den) for n, c in enumerate(self._cols[r]) if c}

    def is_constant_series(self) -> bool:
        """True if only the (0, 0) coefficient may be nonzero."""
        cols = self._cols
        return not cols or (len(cols) == 1 and not any(cols[0][1:]))

    # -- arithmetic --------------------------------------------------------

    def _common_weight(self, other) -> int | None:
        if self._weight is None:
            return other._weight
        if other._weight is None:
            return self._weight
        if self._weight != other._weight:
            raise WeightMismatchError(
                f"ungraded addition of weights {self._weight} and {other._weight}"
            )
        return self._weight

    def __add__(self, other):
        if not isinstance(other, NearlyHolomorphicForm):
            return NotImplemented
        weight = self._common_weight(other)
        trunc = min(self._trunc, other._trunc)
        length = trunc + 1
        den = lcm(self._den, other._den)
        s1, s2 = den // self._den, den // other._den
        a, b = self._cols, other._cols
        if len(a) < len(b):
            a, b, s1, s2 = b, a, s2, s1
        cols = [
            list(map(add, _scaled(a[r], s1, length), _scaled(b[r], s2, length)))
            if r < len(b)
            else list(_scaled(a[r], s1, length))
            for r in range(len(a))
        ]
        return NearlyHolomorphicForm._from_columns(weight, trunc, den, cols)

    def __neg__(self):
        out = object.__new__(NearlyHolomorphicForm)
        out._weight, out._trunc, out._den = self._weight, self._trunc, self._den
        out._cols = tuple(tuple(map(neg, col)) for col in self._cols)
        return out

    def __sub__(self, other):
        if not isinstance(other, NearlyHolomorphicForm):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            cols = [list(map(c.numerator.__mul__, col)) for col in self._cols]
            return NearlyHolomorphicForm._from_columns(
                self._weight, self._trunc, self._den * c.denominator, cols
            )
        if not isinstance(other, NearlyHolomorphicForm):
            return NotImplemented
        trunc = min(self._trunc, other._trunc)
        if self.is_zero or other.is_zero:
            return NearlyHolomorphicForm.zero(trunc)
        cols = [[0] * (trunc + 1) for _ in range(len(self._cols) + len(other._cols) - 1)]
        for r1, a in enumerate(self._cols):
            for r2, b in enumerate(other._cols):
                _convolve_into(cols[r1 + r2], a, b)
        return NearlyHolomorphicForm._from_columns(
            self._weight + other._weight, trunc, self._den * other._den, cols
        )

    __rmul__ = __mul__

    def truncate(self, new_truncation: int) -> "NearlyHolomorphicForm":
        """Re-truncate to a smaller bound; extrapolation is refused."""
        if new_truncation > self._trunc:
            raise ValueError(
                f"cannot extend truncation {self._trunc} to {new_truncation}"
            )
        if not isinstance(new_truncation, int) or new_truncation < 0:
            raise ValueError(
                f"truncation must be a non-negative integer, got {new_truncation!r}"
            )
        if new_truncation == self._trunc:
            return self
        length = new_truncation + 1
        return NearlyHolomorphicForm._from_columns(
            self._weight, new_truncation, self._den, [col[:length] for col in self._cols]
        )

    # -- comparison / rendering --------------------------------------------

    def _key(self):
        return (self._weight, self._trunc, self._den, self._cols)

    def __eq__(self, other):
        return (
            isinstance(other, NearlyHolomorphicForm) and self._key() == other._key()
        )

    def __hash__(self):
        return hash(self._key())

    def __bool__(self):
        return not self.is_zero

    def __repr__(self):
        if self.is_zero:
            return f"NearlyHolomorphicForm(0; trunc={self._trunc})"
        terms = self.terms()
        bits = []
        for (r, n), c in terms[:6]:
            mono = "".join(
                [f"X^{r}" if r > 1 else "X" * r, f"q^{n}" if n > 1 else "q" * n]
            )
            bits.append(f"{c}{'*' if mono else ''}{mono}")
        if len(terms) > 6:
            bits.append("...")
        return (
            f"NearlyHolomorphicForm(weight={self._weight}, trunc={self._trunc}: "
            + " + ".join(bits)
            + ")"
        )

    # -- form file format ----------------------------------------------------

    def to_doc(self) -> dict:
        """The interchange document; round-trips bit-exactly."""
        return {
            "weight": self._weight if self._weight is not None else 0,
            "truncation": self._trunc,
            "terms": [[r, n, frac_to_str(c)] for (r, n), c in self.terms()],
        }

    @classmethod
    def from_doc(cls, doc) -> "NearlyHolomorphicForm":
        if not isinstance(doc, dict):
            raise FormFileError("form document must be a JSON object")
        try:
            weight = doc["weight"]
            trunc = doc["truncation"]
            terms = doc["terms"]
        except (KeyError, TypeError) as exc:
            raise FormFileError(f"missing form field: {exc}") from exc
        if not isinstance(weight, int) or not isinstance(trunc, int) or trunc < 0:
            raise FormFileError("weight/truncation must be integers, truncation >= 0")
        coeffs: dict[tuple[int, int], Fraction] = {}
        for item in terms:
            try:
                r, n, c = item
            except (ValueError, TypeError) as exc:
                raise FormFileError(f"bad term entry {item!r}") from exc
            if not isinstance(r, int) or not isinstance(n, int):
                raise FormFileError(f"bad exponents in term {item!r}")
            if n > trunc or r < 0 or n < 0:
                raise FormFileError(f"term {item!r} outside the stated truncation")
            value = frac_from_str(c)
            if not value:
                raise FormFileError(f"explicit zero coefficient in term {item!r}")
            if (r, n) in coeffs:
                raise FormFileError(f"duplicate term at (r, n) = ({r}, {n})")
            coeffs[(r, n)] = value
        depth = max((r for r, _ in coeffs), default=0)
        if coeffs and (depth + 1) * (trunc + 1) > MAX_FILE_ENTRIES:
            raise FormFileError(
                f"form of depth {depth} and truncation {trunc} exceeds "
                f"{MAX_FILE_ENTRIES} stored coefficients"
            )
        return cls(weight if coeffs else None, trunc, coeffs)
