"""Exact arithmetic helpers shared by every layer.

read_rational, the one reader of a rational argument, which takes no float
or bool, and check_digits, its digit bound, which the p-adic helpers of
quadratic also put on the ints and Fractions they take as they are; integer
factoring (trial division, then Pollard rho with a step budget for large
cofactors), a primality test (Miller-Rabin, exact below its bound), _strip,
the one p-adic strip n = p^v * m (of quadratic, prime_power_base, laurent),
and the one elimination routine of the package: reduce_by, the one-pass
reduction of a vector by a reduced echelon form, which reduced_echelon also
clears its old rows with, on which decompose's span test and the membership
test of verify's quasimodular closure are built.  It also holds the domain
bounds MAX_WEIGHT, MAX_DEGREE and MAX_TRUNCATION, which every command loads
with this module; check_int, the one check of an integer argument and its
bounds, which every weight, degree, truncation, count and residue
cardinality of the package passes, so that each is refused with DomainError
in the same words; check_sign, the one check of a Hasse sign; check_type,
the one check of an argument's kind, which names the type it got and never
the value; shown, the one way a refusal shows a caller's value, which stays
text past the digit limit; and Record and FrozenRecord, the value semantics
of the package's small record classes: FrozenRecord._freeze is the one place
that stores a record's fields.
Nothing here knows about forms.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from itertools import count
from math import gcd, lcm
from operator import sub

from .errors import DomainError

# Largest weight, and Bernoulli index, a generator accepts; constant-term
# reports and the catalog accept no larger weight either, and the Laurent
# engine no point or weight larger in absolute value.
MAX_WEIGHT = 500

# Largest base degree d a constant-term report or the catalog accepts.
MAX_DEGREE = 10_000

# Largest q-truncation a generator accepts.
MAX_TRUNCATION = 10_000


def is_int(x) -> bool:
    """x is an int and not a bool (JSON true and false are not numbers)."""
    return isinstance(x, int) and not isinstance(x, bool)


def check_int(name: str, value, low=None, high=None) -> None:
    """DomainError unless value is an int, not a bool, in low..high; an end
    given as None is open.  name is the argument as the refusal calls it."""
    if is_int(value) and (low is None or value >= low) and (high is None or value <= high):
        return
    if low is None:
        domain = "" if high is None else f" <= {high}"
    else:
        domain = f" >= {low}" if high is None else f" in {low}..{high}"
    raise DomainError(f"{name} must be an integer{domain}, got {shown(value)}")


def check_sign(name: str, value) -> None:
    """DomainError unless value is 1 or -1, as an int that is not a bool."""
    if not (is_int(value) and value in (1, -1)):
        raise DomainError(f"{name} must be 1 or -1, got {shown(value)}")


def check_type(name: str, value, kinds, what: str = "") -> None:
    """DomainError unless isinstance(value, kinds), reading "name must be
    what, got T" for the type T of value; what is by default "a" and the
    name of the one class kinds.  The value itself is never shown."""
    if not isinstance(value, kinds):
        raise DomainError(f"{name} must be {what or 'a ' + kinds.__name__}, got {type(value).__name__}")


def shown(value, render=repr) -> str:
    """render(value), as a refusal shows a caller's value; where the
    interpreter refuses that conversion for a number past its digit limit,
    the type of value and the limit instead.  Called on a refusal path only."""
    try:
        return render(value)
    except ValueError:
        return f"{type(value).__name__} of more than {digit_limit()} digits"


# An interpreter with a digit limit L accepts no L below
# sys.int_info.str_digits_check_threshold (640) but 0, no limit at all, so an
# int of at most SHORT_BITS bits has fewer than 640 digits and is within any
# limit; an interpreter with no digit limit puts no bound on an int.
SHORT_BITS = 3 * getattr(sys.int_info, "str_digits_check_threshold", 1 << 60)


def digit_limit() -> int:
    """L = sys.get_int_max_str_digits(), the most digits the interpreter
    converts between an int and text; 0, no bound, where it has no limit."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def check_digits(
    *values: int, error: type[Exception] = DomainError, what: str = "a rational literal"
) -> None:
    """error unless every int has at most L = digit_limit() digits, the most
    the interpreter converts to text (no bound if L = 0); what names the
    value in the refusal."""
    limit = digit_limit()
    # 10^L has more than 3L bits, so only a longer int is compared with it.
    if limit and any(x.bit_length() > 3 * limit and abs(x) >= 10**limit for x in values):
        raise error(f"{what} has more than {limit} digits")


# The exponent of a literal such as "1.5e-3", as Fraction reads it.
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")


def read_rational(value, error: type[Exception] = DomainError) -> Fraction:
    """The exact value of a rational argument: a Fraction as it is, unbounded,
    an int that is not a bool, or a string as Fraction reads it ("-3/4", "0.1").

    Anything else raises error: a float, whose binary value is not the decimal
    it was written as, a bool, a Decimal or None.  So does an int or a string
    whose numerator or denominator would have more digits than
    L = sys.get_int_max_str_digits(), the most the interpreter converts to
    text.  Fraction reads each digit string of a literal as an int, which
    bounds it by L digits already, so without its exponent a literal's
    numerator is below 10^(2L) and its denominator at most 10^L.  An exponent
    e with |e| > 3L therefore puts one of them past L digits unless the value
    is 0, and such a literal is refused before 10^|e| is built.
    """
    if isinstance(value, Fraction):
        return value
    if is_int(value):
        if value.bit_length() > SHORT_BITS:
            check_digits(value, error=error)
        return Fraction(value)
    if not isinstance(value, str):
        raise error(f"bad rational literal {shown(value)}")
    limit = digit_limit()
    exponent = _EXPONENT.search(value)
    try:
        # Past 3L, the mantissa alone: its value times 10^e is 0 or too long.
        huge = limit and exponent and abs(int(exponent[1])) > 3 * limit
        result = Fraction(value[: exponent.start()] + "e0" if huge else value)
    except (ValueError, ZeroDivisionError) as exc:
        raise error(f"bad rational literal {value!r}") from exc
    if huge and result:
        raise error(f"a rational literal has more than {limit} digits")
    check_digits(*result.as_integer_ratio(), error=error)
    return result


# Trial division stops below this bound; a cofactor it leaves composite goes
# to Pollard rho.  Every n <= 2^32 is factored by trial division alone.
_TRIAL_BOUND = 1 << 16

# Miller-Rabin with the first 13 prime bases is exact below _MR_EXACT_BOUND
# (Sorenson and Webster, 2015).  The bound itself is a strong pseudoprime to
# all 13 bases, so a cofactor at or above it that passes is refused instead
# of being reported as prime.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BOUND = 3317044064679887385961981

# Pollard rho gives up on a cofactor after this many steps of x -> x^2 + c,
# refusing it as out of domain.  Rho takes about the square root of the
# smallest prime factor in steps, so factors up to about 10^10 are found;
# the refusal comes after about 0.5 s on a 2-core x86 host (Python 3.11).
_RHO_STEPS = 1 << 19


def prime_factors(n: int):
    """The prime factors of n in ascending order, with multiplicity; none for n < 2.

    DomainError when a factor left by trial division passes Miller-Rabin at
    or above _MR_EXACT_BOUND, where passing does not prove it prime, or when
    Pollard rho finds no factor in _RHO_STEPS steps, about 0.5 s.
    """
    if n < 2:
        return
    while n % 2 == 0:
        yield 2
        n //= 2
    d = 3
    while d * d <= n and d < _TRIAL_BOUND:
        while n % d == 0:
            yield d
            n //= d
        d += 2
    if d * d > n:
        if n > 1:
            yield n
    else:
        yield from sorted(_large_factors(n))


def _large_factors(n: int) -> list[int]:
    # n > 1 has no prime factor below _TRIAL_BOUND.
    if _is_strong_probable_prime(n):
        if n >= _MR_EXACT_BOUND:
            raise DomainError(
                f"cannot factor {shown(n, str)}: primality is decided only below {_MR_EXACT_BOUND}"
            )
        return [n]
    g = _pollard_rho(n)
    return _large_factors(g) + _large_factors(n // g)


def _is_strong_probable_prime(n: int) -> bool:
    # n odd and above every base.
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    """A proper divisor of the odd composite n by Brent's cycle search on
    x^2 + c for c = 1, 2, ...; DomainError once the search has taken
    _RHO_STEPS steps in all without one."""
    steps = 0
    for c in count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            if steps >= _RHO_STEPS:
                raise DomainError(
                    f"cannot factor {shown(n, str)}: no factor found in {_RHO_STEPS} Pollard rho steps"
                )
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += 128
            steps += 2 * r
            r *= 2
        if g == n:
            # The batched product hit 0 mod n: redo the last batch one step at a time.
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g


def is_prime(n: int) -> bool:
    """Whether n is prime: below _MR_EXACT_BOUND, division by the
    Miller-Rabin bases and then the strong probable prime test, exact there;
    at and above it, the first prime factor, which may refuse n as
    prime_factors does."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n < _MR_BASES[-1] ** 2:  # no prime factor up to the last base
        return True
    if n < _MR_EXACT_BOUND:
        return _is_strong_probable_prime(n)
    return next(prime_factors(n)) == n


def _strip(n: int, p: int) -> tuple[int, int]:
    # (v, n / p^v) for the largest v with p^v dividing n != 0.  Each pass
    # divides by p, p^2, p^4, ... for as long as they divide, so it takes
    # 2^t - 1 factors off in t + 1 trials, and each pass leaves less than
    # half of what is left: O(log(v)^2) divisions in place of v.
    v = 0
    while not n % p:
        q, e = p, 1
        while not n % q:
            n //= q
            v += e
            q, e = q * q, e + e
    return v, n


def prime_power_base(q: int) -> int:
    """The prime p with q = p^e; DomainError if q is not a prime power."""
    check_int("residue cardinality", q, 2)
    p = next(prime_factors(q))
    if _strip(q, p)[1] != 1:
        raise DomainError(f"{shown(q, str)} is not a prime power")
    return p


def reduced_echelon(vectors, width: int) -> list[tuple[int, list[int]]]:
    """The reduced echelon form of the span of integer vectors, as (pivot, row) pairs.

    Pivots are sought among the first width entries.  Each row is primitive,
    positive at its own pivot and 0 at every other row's pivot.  A vector
    that vanishes in the first width entries once reduced by the rows before
    it adds no row, so the rows come only from the vectors independent of
    those before them there.
    """
    rows: list[tuple[int, list[int]]] = []
    for v in vectors:
        v = reduce_by(rows, v)
        pivot = next((i for i in range(width) if v[i]), None)
        if pivot is None:
            continue
        row = [(pivot, _primitive(v, pivot))]
        rows = [(p, _primitive(reduce_by(row, r), p)) if r[pivot] else (p, r) for p, r in rows]
        rows += row
    return rows


def _primitive(v: list[int], pivot: int) -> list[int]:
    # v over the gcd of its entries, signed to be positive at the pivot.
    g = gcd(*v) if v[pivot] > 0 else -gcd(*v)
    return v if g == 1 else [x // g for x in v]


def reduce_by(rows, v) -> list[int]:
    """v less its components along the rows of a reduced echelon form, times
    a positive integer, as a new list.  Every pivot entry is cleared, so the
    result vanishes in the entries the pivots were sought in exactly when v
    lies in the span of the rows there.

    The rows vanish at each other's pivots, so no row changes v at another
    row's pivot and one pass does it: the result is
    D v - sum v[p] (D / r[p]) r over the rows r with v[p] != 0, D the lcm of
    their r[p] > 0.  It is not made primitive.
    """
    hits = [(v[p], r[p], r) for p, r in rows if v[p]]
    d = lcm(*(a for _, a, _ in hits))
    out = v if d == 1 else map(d.__mul__, v)
    for b, a, r in hits:
        out = map(sub, out, map((b * (d // a)).__mul__, r))
    return list(out)


class Record:
    """Equality and repr by field values, for a small record class.

    A subclass names its fields, in order, in _fields, and _key is the tuple
    of their values, read from the fields on each use.  Two records are equal
    when they are of the same class and their keys are equal, and the repr is
    Name(field=value, ...).  A Record defines __eq__ and no __hash__, so it
    is unhashable, as a record whose fields may change must be; a frozen one
    is a FrozenRecord.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    @property
    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key == other._key
        return NotImplemented

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._key))
        return f"{type(self).__qualname__}({fields})"


class FrozenRecord(Record):
    """A Record whose fields are set once, and which hashes as its key.

    A subclass with __slots__ and no _fields of its own takes its slots as
    _fields.  Its __init__ takes the fields as its positional parameters, in
    the order of _fields, and ends in _freeze, which stores them and their
    tuple as _key; assigning or deleting an attribute later raises
    AttributeError.  A copy or pickle is rebuilt by calling the class on the
    key, which passes the values through __init__ again.
    """

    __slots__ = ("_key",)

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "__slots__" in vars(cls) and "_fields" not in vars(cls):
            cls._fields = cls.__slots__

    def _freeze(self, values: tuple) -> None:
        store = object.__setattr__  # looked up once, not once per field
        for name, value in zip(self._fields, values):
            store(self, name, value)
        store(self, "_key", values)

    def __hash__(self):
        return hash(self._key)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._key
