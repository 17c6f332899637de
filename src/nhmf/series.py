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
integer columns; Fractions appear only at the public accessors.  A product
multiplies each pair of columns by two-point Kronecker substitution
(_convolve_into): each column is evaluated at +2^(s/2) and at -2^(s/2) as
two ints, built from its even- and odd-index entries packed one per s-bit
slot; the two pairs of ints are multiplied, and the half-sum and the
half-difference of the two products hold the even- and the odd-index
coefficients of the product column, one per slot.  The slot is sized from
the entries so that no coefficient can overflow into its neighbour, which
keeps the product exact; it is the only product path.

A difference a - b is the same one pass over the columns as a sum, with the
entries of b subtracted in place of added, so it never builds -b.

Truncation semantics: operations never extrapolate.  Mixing truncations
silently takes the minimum, because decomposition pipelines naturally mix
precisions.  The zero form has weight "any" (stored as None) so that graded
addition with zero always succeeds.

All values are immutable after construction; all operations are pure.  A
public entry point that takes a form checks it once with arith.check_type,
never in a kernel loop.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import add, neg, sub

from .arith import check_int, is_int, read_rational, shown
from .errors import DomainError, FormFileError, WeightMismatchError


# A nonzero form built by the public constructor or read from a form file
# may store at most this many coefficients, (depth + 1) * (truncation + 1),
# since the columns are stored densely.
MAX_FILE_ENTRIES = 10**6


def _scaled(col, s: int, length: int):
    """The first length entries of col, times s."""
    col = col[:length]
    return col if s == 1 else map(s.__mul__, col)


def _stripped(col, length: int):
    """The first length entries of col, without trailing zeros."""
    col = col[:length]
    n = len(col)
    while n and not col[n - 1]:
        n -= 1
    return col[:n]


def _pop_zero_columns(cols: list) -> None:
    """Drop the zero columns at the top of cols in place; a stored form has none."""
    while cols and not any(cols[-1]):
        cols.pop()


def _pack(col, width: int, tops) -> list:
    """[E, O], the even- and odd-index entries of col packed at s = 8 * width
    bits a slot: E = sum of col[2i] * 2^(s * i) and O = sum of col[2i + 1] *
    2^(s * i), for entries in [-2^(s - 1), 2^(s - 1)).

    Each entry is written once as width bytes of two's complement, and the
    bytes of each half are joined and read back as one non-negative int.
    xor with that half's top (the sign bit of every slot) adds 2^(s - 1) to
    each entry, which is then taken off in one subtraction; each top spans
    at least its half's slots, and its slots past the end of the half come
    out 0.
    """
    chunks = [x.to_bytes(width, "little", signed=True) for x in col]
    from_bytes, join = int.from_bytes, b"".join
    return [(from_bytes(join(chunks[i::2]), "little") ^ top) - top for i, top in enumerate(tops)]


def _unpack(value: int, width: int, top: int) -> list:
    """[c[0], ..., c[count - 1]] for value = sum of c[i] * 2^(s * i), s =
    8 * width, where every c[i] lies in (-2^(s - 1), 2^(s - 1)) and top holds
    the sign bit of each of the count low slots, so that it has s * count
    bits.

    Adding top makes each of the count low slots a digit c[i] + 2^(s - 1) in
    [0, 2^s) with no borrow between slots, and the slots at and past count
    never reach them, so the low count slots read off exactly; xor with the
    same sign bits turns each digit into the two's complement of c[i], which
    is read back signed.
    """
    bits = top.bit_length()
    size = bits // 8
    data = (((value + top) & ((1 << bits) - 1)) ^ top).to_bytes(size, "little")
    from_bytes = int.from_bytes
    return [from_bytes(data[i : i + width], "little", signed=True) for i in range(0, size, width)]


def _convolve_into(acc: list, a, b) -> None:
    """acc[n] += sum of a[i] * b[n - i] for every n < len(acc).

    Two-point Kronecker substitution.  The convolution c = a * b, as
    polynomials, is c(x) = C_e(x^2) + x C_o(x^2), with C_e holding the
    even-index coefficients of c and C_o the odd ones; likewise a(x) =
    A_e(x^2) + x A_o(x^2).  With s = 8 * width and X = 2^(s / 2), each of
    A_e(X^2), A_o(X^2) is one int with one s-bit slot per entry (_pack), and
    a(+-X) = A_e(X^2) +- (A_o(X^2) << s / 2).  The two products
    P+- = a(+-X) * b(+-X) = C_e(X^2) +- X C_o(X^2) (squares when a is b)
    each have about half the digits of the one product a(X^2) * b(X^2) that
    packs every entry in its own slot, and CPython's Karatsuba makes two
    half-size products cheaper than one full one.  Then P+ + P- =
    2 C_e(X^2) and P+ - P- = 2 X C_o(X^2) exactly, so the shifts by 1 and
    by s / 2 + 1 divide exactly, and each quotient is a polynomial in
    X^2 = 2^s, one s-bit slot per coefficient of c, read off by _unpack.

    The slot is wide enough to be exact: |a[i]| < 2^bits(max|a|), |b[j]| <
    2^bits(max|b|), and a coefficient has at most min(len a, len b) terms,
    so it lies strictly between -2^(s - 1) and 2^(s - 1) once s >=
    bits(max|a|) + bits(max|b|) + bits(min(len a, len b)) + 1; the extra bit
    is the sign.
    """
    length = len(acc)
    same = a is b
    a = _stripped(a, length)
    b = a if same else _stripped(b, length)
    if not (a and b):
        return
    bits = (
        max(map(abs, a)).bit_length()
        + max(map(abs, b)).bit_length()
        + min(len(a), len(b)).bit_length()
        + 1
    )
    width = (bits + 7) // 8
    half = 4 * width
    out = min(length, len(a) + len(b) - 1)
    slot = b"\0" * (width - 1) + b"\x80"
    # one sign bit per slot of the even and of the odd indices below out
    tops = [int.from_bytes(slot * count, "little") for count in ((out + 1) // 2, out // 2)]
    even, odd = _pack(a, width, tops)
    odd <<= half
    plus, minus = even + odd, even - odd
    if same:
        plus, minus = plus * plus, minus * minus
    else:
        even, odd = _pack(b, width, tops)
        odd <<= half
        plus, minus = plus * (even + odd), minus * (even - odd)
    acc[0:out:2] = map(add, acc[0:out:2], _unpack((plus + minus) >> 1, width, tops[0]))
    acc[1:out:2] = map(add, acc[1:out:2], _unpack((plus - minus) >> (half + 1), width, tops[1]))


class NearlyHolomorphicForm:
    __slots__ = ("_weight", "_trunc", "_den", "_cols")

    def __init__(self, weight, truncation: int, coeffs=None):
        """The form sum of c * X^r q^n over coeffs {(r, n): c}, dropping n > truncation.

        Storage is dense: a nonzero form holds (depth + 1) * (truncation + 1)
        ints however few of its terms are nonzero, so even a monomial at a
        large truncation costs memory in proportion to that truncation, and
        a nonzero form past MAX_FILE_ENTRIES stored coefficients is refused
        as out-of-domain before any is allocated.
        """
        check_int("truncation", truncation, 0)
        data: dict[tuple[int, int], Fraction] = {}
        if coeffs:
            for (r, n), c in coeffs.items():
                if not (is_int(r) and is_int(n)) or r < 0 or n < 0:
                    raise DomainError(f"bad exponent pair ({shown(r, str)}, {shown(n, str)})")
                if n > truncation:
                    continue
                c = read_rational(c)
                if c:
                    data[(r, n)] = c
        if data:
            check_int("weight", weight)
        depth = max((r for r, _ in data), default=-1)
        if data and (depth + 1) * (truncation + 1) > MAX_FILE_ENTRIES:
            raise DomainError(
                f"form of depth {shown(depth, str)} and truncation {shown(truncation, str)} exceeds "
                f"{MAX_FILE_ENTRIES} stored coefficients"
            )
        # The lcm of reduced denominators is already coprime to the numerators.
        den = lcm(*(c.denominator for c in data.values()))
        cols = [[0] * (truncation + 1) for _ in range(depth + 1)]
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
        _pop_zero_columns(cols)
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
        return cls(0, truncation, {(0, 0): c})

    @classmethod
    def monomial(cls, weight: int, truncation: int, r: int = 0, n: int = 0, c=1):
        return cls(weight, truncation, {(r, n): c})

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
        """c(r, n), 0 off the stored terms; DomainError past the truncation."""
        check_int("X-exponent r", r)
        check_int("q-exponent n", n, high=self._trunc)
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
                f"ungraded addition of weights {shown(self._weight, str)} and {shown(other._weight, str)}"
            )
        return self._weight

    def _combine(self, other, sign: int) -> "NearlyHolomorphicForm":
        """self + sign * other (sign 1 or -1), column by column over the lcm
        of the denominators."""
        weight = self._common_weight(other)
        trunc = min(self._trunc, other._trunc)
        length = trunc + 1
        den = lcm(self._den, other._den)
        s1, s2 = den // self._den, den // other._den
        op = add if sign == 1 else sub
        a, b = self._cols, other._cols
        cols = [list(map(op, _scaled(x, s1, length), _scaled(y, s2, length))) for x, y in zip(a, b)]
        cols += [list(_scaled(x, s1, length)) for x in a[len(b):]]
        cols += [list(_scaled(y, sign * s2, length)) for y in b[len(a):]]
        return NearlyHolomorphicForm._from_columns(weight, trunc, den, cols)

    def __add__(self, other):
        if not isinstance(other, NearlyHolomorphicForm):
            return NotImplemented
        return self._combine(other, 1)

    def __neg__(self):
        out = object.__new__(NearlyHolomorphicForm)
        out._weight, out._trunc, out._den = self._weight, self._trunc, self._den
        out._cols = tuple(tuple(map(neg, col)) for col in self._cols)
        return out

    def __sub__(self, other):
        if not isinstance(other, NearlyHolomorphicForm):
            return NotImplemented
        return self._combine(other, -1)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = read_rational(other)
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
        check_int("truncation", new_truncation, 0, self._trunc)
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
            "terms": [[r, n, str(c)] for (r, n), c in self.terms()],
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
        if not (is_int(weight) and is_int(trunc)) or trunc < 0:
            raise FormFileError("weight/truncation must be integers, truncation >= 0")
        if not isinstance(terms, list):
            raise FormFileError("terms must be a list of [r, n, coefficient] entries")
        coeffs: dict[tuple[int, int], Fraction] = {}
        for item in terms:
            try:
                r, n, c = item
            except (ValueError, TypeError) as exc:
                raise FormFileError(f"bad term entry {shown(item)}") from exc
            if not (is_int(r) and is_int(n)):
                raise FormFileError(f"bad exponents in term {shown(item)}")
            if n > trunc or r < 0 or n < 0:
                raise FormFileError(f"term {shown(item)} outside the stated truncation")
            # A JSON float (0.1, 1e400) is inexact or infinite, and null, a
            # bool, a list or an object is no number at all.
            value = read_rational(c, FormFileError)
            if not value:
                raise FormFileError(f"explicit zero coefficient in term {shown(item)}")
            if (r, n) in coeffs:
                raise FormFileError(f"duplicate term at (r, n) = ({shown(r, str)}, {shown(n, str)})")
            coeffs[(r, n)] = value
        try:
            return cls(weight if coeffs else None, trunc, coeffs)
        except DomainError as exc:  # past the size bound: in a file, a bad form file
            raise FormFileError(str(exc)) from exc
