"""Exact truncated q-expansions with near-holomorphy variable X = 1/(4*pi*y).

A nearly holomorphic form of weight k is stored as a finite sum

    f = sum c(r, n) X^r q^n,      c(r, n) in Q,  0 <= n <= truncation,

where q = exp(2*pi*i*z) and X = 1/(4*pi*y) for z = x + i*y in the upper half
plane.  Storing the 1/y-dependence through X (rather than 1/y itself) keeps
every operator image rational: the weight-two Eisenstein term 3/(pi*y)
becomes 12*X, and the raising/lowering operators act with integer monomial
rules.  The analytic normalization is recovered through PiScalar wrappers.

Truncation semantics: operations never extrapolate.  Mixing truncations
silently takes the minimum, because decomposition pipelines naturally mix
precisions.  The zero form has weight "any" (stored as None) so that graded
addition with zero always succeeds.

All values are immutable after construction; all operations are pure.
"""

from __future__ import annotations

from fractions import Fraction

from .arith import frac_to_str
from .errors import FormFileError, WeightMismatchError


def frac_from_str(s: str) -> Fraction:
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise FormFileError(f"bad rational literal {s!r}") from exc


class NearlyHolomorphicForm:
    __slots__ = ("_weight", "_trunc", "_coeffs")

    def __init__(self, weight, truncation: int, coeffs=None):
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
        if data:
            if not isinstance(weight, int):
                raise ValueError(f"weight must be an integer, got {weight!r}")
            self._weight = weight
        else:
            self._weight = None
        self._trunc = truncation
        self._coeffs = data

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
        return not self._coeffs

    @property
    def depth(self) -> int:
        """Maximal X-degree with a nonzero coefficient; 0 for the zero form."""
        return max((r for r, _ in self._coeffs), default=0)

    @property
    def is_holomorphic(self) -> bool:
        return self.depth == 0

    def coefficient(self, r: int, n: int) -> Fraction:
        if n > self._trunc:
            raise ValueError(f"coefficient q^{n} beyond truncation {self._trunc}")
        return self._coeffs.get((r, n), Fraction(0))

    def terms(self):
        """Sorted ((r, n), c) pairs, lexicographic in (r, n)."""
        return sorted(self._coeffs.items())

    def x_column(self, r: int) -> dict[int, Fraction]:
        """The q-series sitting in front of X^r, as a dict n -> coefficient."""
        return {n: c for (rr, n), c in self._coeffs.items() if rr == r}

    def is_constant_series(self) -> bool:
        """True if only the (0, 0) coefficient may be nonzero."""
        return all(key == (0, 0) for key in self._coeffs)

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
        merged: dict[tuple[int, int], Fraction] = {}
        for src in (self._coeffs, other._coeffs):
            for key, c in src.items():
                if key[1] > trunc:
                    continue
                merged[key] = merged.get(key, Fraction(0)) + c
        return NearlyHolomorphicForm(weight if merged else None, trunc, merged)

    def __neg__(self):
        out = NearlyHolomorphicForm(None, self._trunc)
        out._weight = self._weight
        out._coeffs = {key: -c for key, c in self._coeffs.items()}
        return out

    def __sub__(self, other):
        if not isinstance(other, NearlyHolomorphicForm):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c0 = Fraction(other)
            if not c0:
                return NearlyHolomorphicForm.zero(self._trunc)
            out = NearlyHolomorphicForm(None, self._trunc)
            out._weight = self._weight
            out._coeffs = {key: c * c0 for key, c in self._coeffs.items()}
            return out
        if not isinstance(other, NearlyHolomorphicForm):
            return NotImplemented
        trunc = min(self._trunc, other._trunc)
        if self.is_zero or other.is_zero:
            return NearlyHolomorphicForm.zero(trunc)
        weight = self._weight + other._weight
        merged: dict[tuple[int, int], Fraction] = {}
        for (r1, n1), c1 in self._coeffs.items():
            if n1 > trunc:
                continue
            for (r2, n2), c2 in other._coeffs.items():
                n = n1 + n2
                if n > trunc:
                    continue
                key = (r1 + r2, n)
                merged[key] = merged.get(key, Fraction(0)) + c1 * c2
        return NearlyHolomorphicForm(weight, trunc, merged)

    __rmul__ = __mul__

    def truncate(self, new_truncation: int) -> "NearlyHolomorphicForm":
        """Re-truncate to a smaller bound; extrapolation is refused."""
        if new_truncation > self._trunc:
            raise ValueError(
                f"cannot extend truncation {self._trunc} to {new_truncation}"
            )
        return NearlyHolomorphicForm(self._weight, new_truncation, self._coeffs)

    # -- comparison / rendering --------------------------------------------

    def _key(self):
        return (self._weight, self._trunc, tuple(sorted(self._coeffs.items())))

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
        bits = []
        for (r, n), c in self.terms()[:6]:
            mono = "".join(
                [f"X^{r}" if r > 1 else "X" * r, f"q^{n}" if n > 1 else "q" * n]
            )
            bits.append(f"{c}{'*' if mono else ''}{mono}")
        if len(self._coeffs) > 6:
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
        return cls(weight if coeffs else None, trunc, coeffs)

