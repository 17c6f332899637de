"""Exact local invariants of binary quadratic spaces over Q.

A binary space <a1, a2> (diagonal Gram matrix) is determined place by place
by the quadratic character attached to its discriminant Delta = -a1*a2 and
the Hasse invariant eps_v = (a1, a2)_v.  This module computes Hilbert symbols
by the classical closed formulas, tests local squares, detects whether a
family of local data is coherent (arises from a global space; equivalent to
the product formula on Hasse invariants once the discriminant class is
fixed), and enumerates the definite isometry classes with bounded ramification.

It also records the reducibility lattice of the degenerate principal series
attached to a unitary character and, for unramified quadratic characters, the
exact eigenvalue of the standard intertwining operator on the two theta
constituents.  Imaginary parts of the induction parameter are carried as
exact rational multiples of pi*i/log(q), so the lattice conditions are
decidable exactly.

The places a family of values can see are found by relevant_places, which
factors only what the primes found so far leave over; values go factors
first, so a discriminant -a1*a2 passed after a1 and a2 costs no factoring,
and is never refused when a1 and a2 factor.  The p-adic helpers work on
numerators and denominators as ints and build no Fraction.  So do
local_invariants and the witness scan of check_coherence: a space keeps the
terms of a1 and a2, each is split once per place, and the split of the
discriminant -a1*a2 is read off theirs, so -a1*a2 is never built; the scan's
candidates are ints, and it splits the discriminant at most once per place.
Past a first factor of p, _split takes p off with arith._strip.

Base field fixed to Q; the degree parameter elsewhere in the package is
purely symbolic.
"""

from __future__ import annotations

from collections.abc import Iterable
from fractions import Fraction
from functools import cache, cached_property, total_ordering
from itertools import combinations
from math import prod

from .arith import (
    _MR_EXACT_BOUND, SHORT_BITS, FrozenRecord, _strip, check_digits, check_int, check_sign,
    check_type, is_int, is_prime, prime_factors, prime_power_base, read_rational, shown,
)
from .errors import DomainError, InvariantViolationError


@total_ordering
class Place(FrozenRecord):
    """A place of Q: a finite prime or the real place.

    Places order by (kind, p): the finite ones by their prime, then the real one.
    A place is a value, so real() returns one shared instance, and finite()
    one per prime below _SHARED_BELOW: the places that nearly every value
    sees are built, and proved prime, once however many of them are held.
    """

    __slots__ = ("kind", "p")

    def __init__(self, kind: str, p: int | None = None):
        if kind == "finite":
            # No p past the exact Miller-Rabin bound is proved prime, so
            # such a p is refused before it is factored.
            check_int("the prime of a place", p, 2, _MR_EXACT_BOUND - 1)
            if not is_prime(p):
                raise DomainError(f"{p} is not prime")
        elif kind == "real":
            if p is not None:
                raise DomainError("real place carries no prime")
        else:
            raise DomainError(f"unknown place kind {shown(kind)}")
        self._freeze((kind, p))

    def __lt__(self, other):
        if other.__class__ is self.__class__:
            return self._key < other._key
        return NotImplemented

    @classmethod
    def finite(cls, p: int) -> "Place":
        place = _SHARED.get(p) if is_int(p) else None
        if place is None:
            place = cls("finite", p)
            _share(place)
        return place

    @classmethod
    def _proved(cls, p: int) -> "Place":
        """Trusted constructor for a finite place whose p is already proved
        prime, as prime_factors proves each factor it yields."""
        place = _SHARED.get(p)
        if place is None:
            place = object.__new__(cls)
            place._freeze(("finite", p))
            _share(place)
        return place

    @classmethod
    def real(cls) -> "Place":
        return _SHARED[None]

    def render(self) -> str:
        return "real" if self.kind == "real" else str(self.p)

    @classmethod
    def parse(cls, text: str) -> "Place":
        if text in ("real", "oo", "infinity"):
            return cls.real()
        try:
            return cls.finite(int(text))
        except ValueError as exc:
            raise DomainError(f"bad place {text!r}") from exc


# The shared places, keyed by p: the real place under None, and the finite
# place of each prime below _SHARED_BELOW built so far, at most the 6542
# primes below 2^16.
_SHARED_BELOW = 1 << 16
_SHARED: dict = {None: Place("real")}


def _share(place: Place) -> None:
    if place.p < _SHARED_BELOW:
        _SHARED[place.p] = place


def _terms(x) -> tuple[int, int]:
    # The numerator and denominator of a rational; an int or a Fraction
    # already carries them, read in one call, and read_rational reads
    # anything else.  Either is held to read_rational's digit bound, which
    # only a product n * d longer than SHORT_BITS can pass.
    if not (isinstance(x, Fraction) or is_int(x)):
        x = read_rational(x)
    terms = x.as_integer_ratio()
    if (terms[0] * terms[1]).bit_length() > SHORT_BITS:
        check_digits(*terms)
    return terms


def _split(n: int, d: int, p: int) -> tuple[int, int, int]:
    """(v, n', d') with n/d = p^v * n'/d' and p dividing neither n' nor d';
    n/d in lowest terms, so p is divided out of one of them only."""
    if n == 0:
        raise DomainError("valuation of zero")
    # v = 0 and v = +-1 are the common cases, and call no _strip.
    v = 0
    if not n % p:
        n //= p
        v = 1
        if not n % p:
            u, n = _strip(n, p)
            v += u
    elif not d % p:
        d //= p
        v = -1
        if not d % p:
            u, d = _strip(d, p)
            v -= u
    return v, n, d


def padic_valuation(x: Fraction, p: int) -> int:
    return _split(*_terms(x), p)[0]


def unit_part(x: Fraction, p: int) -> Fraction:
    _, n, d = _split(*_terms(x), p)
    return Fraction(n, d)


def _unit_mod(n: int, d: int, modulus: int) -> int:
    # n/d with d prime to modulus, reduced mod modulus.
    return n * pow(d, -1, modulus) % modulus


def _legendre(n: int, d: int, p: int) -> int:
    # (n/d | p) for n, d prime to the odd prime p; (1/d | p) = (d | p), so
    # n*d has the same symbol and no inverse is needed.
    return 1 if pow(n * d % p, (p - 1) // 2, p) == 1 else -1


def _split_symbol(a: tuple[int, int, int], b: tuple[int, int, int], p: int) -> int:
    # (a, b)_p from the splits (alpha, na, da) of a = p^alpha * na/da and
    # (beta, nb, db) of b, as _split returns them.
    alpha, na, da = a
    beta, nb, db = b
    if p != 2:
        symbol = -1 if (alpha * beta * (p - 1) // 2) % 2 else 1
        if alpha % 2:
            symbol *= _legendre(nb, db, p)
        if beta % 2:
            symbol *= _legendre(na, da, p)
        return symbol
    ra, rb = _unit_mod(na, da, 8), _unit_mod(nb, db, 8)
    eps_a, eps_b = (ra - 1) // 2 % 2, (rb - 1) // 2 % 2
    omega_a, omega_b = (ra * ra - 1) // 8 % 2, (rb * rb - 1) // 8 % 2
    exponent = eps_a * eps_b + alpha * omega_b + beta * omega_a
    return -1 if exponent % 2 else 1


def _split_square(x: tuple[int, int, int], p: int) -> bool:
    # Whether x is a square in Q_p, from its split (e, n, d): x = p^e * n/d
    # with p dividing neither n nor d.
    e, n, d = x
    if e % 2:
        return False
    if p == 2:
        return _unit_mod(n, d, 8) == 1
    return _legendre(n, d, p) == 1


def hilbert_symbol(a, b, v: Place) -> int:
    """The Hilbert symbol (a, b)_v for nonzero rationals.

    real:   -1 iff a < 0 and b < 0.
    odd p:  (-1)^(alpha*beta*(p-1)/2) (u_b|p)^alpha (u_a|p)^beta from the
            valuations alpha, beta and unit parts u_a, u_b.
    p = 2:  (-1)^(eps(u_a) eps(u_b) + alpha omega(u_b) + beta omega(u_a))
            with eps(u) = (u-1)/2 and omega(u) = (u^2-1)/8 mod 2.
    """
    check_type("place v", v, Place)
    (na, da), (nb, db) = _terms(a), _terms(b)
    if na == 0 or nb == 0:
        raise DomainError("Hilbert symbol needs nonzero arguments")
    if v.kind == "real":
        return -1 if (na < 0 and nb < 0) else 1
    p = v.p
    return _split_symbol(_split(na, da, p), _split(nb, db, p), p)


def is_local_square(x, v: Place) -> bool:
    check_type("place v", v, Place)
    n, d = _terms(x)
    if n == 0:
        raise DomainError("square test needs a nonzero argument")
    if v.kind == "real":
        return n > 0
    return _split_square(_split(n, d, v.p), v.p)


class QuadSpace2D(FrozenRecord):
    """Binary quadratic space over Q with diagonal Gram entries a1, a2.

    No __slots__: the cached discriminant and the cached terms of a1 and a2
    live in the instance dict.
    """

    _fields = ("a1", "a2")

    def __init__(self, a1, a2):
        a1, a2 = read_rational(a1), read_rational(a2)
        if a1 == 0 or a2 == 0:
            raise DomainError("degenerate quadratic space")
        self._freeze((a1, a2))

    @cached_property
    def discriminant(self) -> Fraction:
        """-a1*a2, computed on first use and kept; equality and hash read a1
        and a2 only."""
        return -self.a1 * self.a2

    @cached_property
    def _ints(self) -> tuple[int, int, int, int]:
        """The numerators and denominators of a1 and a2, read once and kept;
        like the discriminant, out of _fields."""
        return (*self.a1.as_integer_ratio(), *self.a2.as_integer_ratio())

    def to_json(self) -> dict:
        return {"a1": str(self.a1), "a2": str(self.a2)}


class LocalInvariant(FrozenRecord):
    """(chi_V nontrivial?, Hasse invariant) at one place.

    A two-dimensional space with locally trivial discriminant character has
    Hasse invariant +1; violating pairs are rejected.
    """

    __slots__ = ("place", "chi_nontrivial", "epsilon")

    def __init__(self, place: Place, chi_nontrivial: bool, epsilon: int):
        check_type("place", place, Place)
        check_sign("epsilon", epsilon)
        if not chi_nontrivial and epsilon == -1:
            raise InvariantViolationError(
                f"epsilon = -1 with locally square discriminant at {place.render()}"
            )
        self._freeze((place, chi_nontrivial, epsilon))


def local_invariants(space: QuadSpace2D, v: Place) -> LocalInvariant:
    """chi_V is nontrivial where the discriminant is not a local square, and
    the Hasse invariant is (a1, a2)_v.

    At a finite p, a1 = p^alpha u_a and a2 = p^beta u_b are split once, and
    the discriminant -a1*a2 = p^(alpha + beta) (-u_a u_b) is read off the two
    splits.  At the real place the discriminant is a non-square iff
    a1*a2 > 0.

    An invariant is a value, so at the shared places (the real place and
    each prime below _SHARED_BELOW) one instance per (place, chi_nontrivial,
    epsilon) is built, and checked, on first use and returned from then on:
    at most 3 * 6543 of them.  A larger prime gets a fresh instance.
    """
    check_type("space", space, QuadSpace2D)
    check_type("v", v, Place)
    n1, d1, n2, d2 = space._ints
    if v.kind == "real":
        return _shared_invariant(v, (n1 > 0) == (n2 > 0), -1 if n1 < 0 and n2 < 0 else 1)
    p = v.p
    a, b = _split(n1, d1, p), _split(n2, d2, p)
    chi = not _split_square((a[0] + b[0], -a[1] * b[1], a[2] * b[2]), p)
    epsilon = _split_symbol(a, b, p)
    if p < _SHARED_BELOW:
        return _shared_invariant(v, chi, epsilon)
    return LocalInvariant(v, chi, epsilon)


@cache
def _shared_invariant(v: Place, chi: bool, epsilon: int) -> LocalInvariant:
    # Called only at the shared places, so it holds at most 3 * 6543 values.
    return LocalInvariant(v, chi, epsilon)


def relevant_places(*values: Fraction) -> list[Place]:
    """2, the real place, and every odd prime dividing a numerator or
    denominator: outside these all symbols of the given values are +1.

    Each numerator and denominator is first divided by every prime already
    found, and only the cofactor left is factored.  So values go factors
    first: after a1 and a2, the discriminant -a1*a2 costs no factoring.
    prime_factors has proved each prime it yields, so no place proves it again.
    """
    primes = {2}
    for x in values:
        for m in map(abs, _terms(x)):
            if m == 0:  # a zero numerator has no primes, and p divides it forever
                continue
            for p in primes:
                while m % p == 0:
                    m //= p
            primes.update(prime_factors(m))
    return [Place.real()] + [Place._proved(p) for p in sorted(primes)]


class Collection(FrozenRecord):
    """A family of local binary-space data: global discriminant class plus
    Hasse signs at finitely many places (+1 off the listed support).

    epsilons holds (Place, sign) pairs sorted by place.
    """

    __slots__ = ("discriminant", "epsilons")

    def __init__(self, discriminant, epsilons):
        discriminant = read_rational(discriminant)
        if discriminant == 0:
            raise DomainError("discriminant must be nonzero")
        check_type("epsilons", epsilons, Iterable, "(place, sign) pairs")
        signs = {}
        for entry in epsilons:
            if not (isinstance(entry, (list, tuple)) and len(entry) == 2):
                raise DomainError(f"an epsilons entry must be a (place, sign) pair, got {shown(entry)}")
            place, sign = entry
            check_type("a Hasse sign", place, Place, "keyed by a Place")
            check_sign("epsilon", sign)
            if place in signs:
                raise DomainError(f"duplicate place {place.render()}")
            signs[place] = sign
        self._freeze((discriminant, tuple(sorted(signs.items()))))

    @classmethod
    def of(cls, discriminant, epsilons: dict) -> "Collection":
        return cls(discriminant, tuple(epsilons.items()))

    def epsilon_at(self, place: Place) -> int:
        for pl, e in self.epsilons:
            if pl == place:
                return e
        return 1

    def flip(self, place: Place) -> "Collection":
        """The collection with the Hasse sign at one place negated."""
        eps = dict(self.epsilons)
        eps[place] = -eps.get(place, 1)
        return Collection.of(self.discriminant, eps)

    def to_json(self) -> dict:
        return {
            "discriminant": str(self.discriminant),
            "epsilons": {pl.render(): e for pl, e in self.epsilons},
        }


def collection_of(space: QuadSpace2D) -> Collection:
    check_type("space", space, QuadSpace2D)
    # -a1*a2 has no prime that a1 or a2 has not.
    places = relevant_places(space.a1, space.a2)
    eps = {v: local_invariants(space, v).epsilon for v in places}
    return Collection.of(space.discriminant, eps)


class CoherenceResult(FrozenRecord):
    """The verdict of check_coherence: a witness space iff coherent."""

    __slots__ = ("witness",)

    def __init__(self, witness: QuadSpace2D | None):
        self._freeze((witness,))

    @property
    def coherent(self) -> bool:
        return self.witness is not None

    def __bool__(self) -> bool:
        return self.coherent

    def to_json(self) -> dict:
        return {
            "coherent": self.coherent,
            "witness": self.witness.to_json() if self.witness else None,
        }


_WITNESS_STEPS = 10**5


def _witness_search(delta: Fraction, minus_places: list[Place]) -> QuadSpace2D:
    # <a, -delta*a> has discriminant delta (mod squares) and Hasse invariant
    # (a, delta)_v; scan a for the required sign pattern.  At an odd target p
    # where delta is a unit, hence a non-square, (a, delta)_p = -1 forces
    # p | a; so a runs through +-s*P, P the product of those primes, in the
    # order of |a|, and s is capped.  The places are tested in a fixed list
    # order, so the number of symbols computed is the same in every process.
    # A candidate a is an int; each symbol comes from a's split and delta's,
    # and delta is split at most once per place.  Outside the places of
    # delta and the targets, a prime of s must give +1.
    targets = set(minus_places)
    check = [(v.p, v in targets) for v in dict.fromkeys([*relevant_places(delta), *minus_places])]
    checked = {p for p, _ in check}
    n, d = _terms(delta)
    splits = {}

    def delta_at(p: int) -> tuple[int, int, int]:
        if p not in splits:
            splits[p] = _split(n, d, p)
        return splits[p]

    step = prod(v.p for v in targets if v.p not in (None, 2) and delta_at(v.p)[0] == 0)

    def realizes(a: int, places) -> bool:
        for p, target in places:
            if p is None:
                minus = a < 0 and n < 0
            else:
                minus = _split_symbol(_split(a, 1, p), delta_at(p), p) == -1
            if minus != target:
                return False
        return True

    for s in range(1, _WITNESS_STEPS):
        for a in (s * step, -s * step):
            if realizes(a, check) and realizes(
                a, [(p, False) for p in dict.fromkeys(prime_factors(s)) if p not in checked]
            ):
                return QuadSpace2D(a, -delta * a)
    raise DomainError(f"coherent, but no witness a = +-s*{step} with s < {_WITNESS_STEPS}")


def check_coherence(collection: Collection) -> CoherenceResult:
    """Product-formula test: coherent iff the Hasse signs multiply to +1.

    Coherent collections come with a witness space realizing the data.
    Support entries with eps = -1 at places where the discriminant is a
    local square violate the two-dimensional invariant constraint.
    """
    check_type("collection", collection, Collection)
    minus = []
    for place, e in collection.epsilons:
        if e == -1:
            if is_local_square(collection.discriminant, place):
                raise InvariantViolationError(
                    f"epsilon = -1 at {place.render()} where the discriminant "
                    "is a local square"
                )
            minus.append(place)
    product = -1 if len(minus) % 2 else 1
    if product != 1:
        return CoherenceResult(None)
    return CoherenceResult(_witness_search(collection.discriminant, minus))


# enumerate_definite_spaces returns at most this many collections.
MAX_DEFINITE_SPACES = 2**12


def enumerate_definite_spaces(discriminant, support_bound: int) -> list[Collection]:
    """All coherent collections of definite type (signature (2,0) at the real
    place) with the given negative discriminant class and finite support in
    the primes <= support_bound.

    These are exactly the even-cardinality subsets of the c candidate primes,
    those where the discriminant character is locally nontrivial: 2^(c - 1)
    collections for c >= 1.  More than MAX_DEFINITE_SPACES is refused as
    out-of-domain as soon as the candidate scan has found enough primes to
    pass it, before any collection is built.
    """
    check_int("support bound", support_bound)
    delta = read_rational(discriminant)
    if delta >= 0:
        raise DomainError("definite binary spaces need a negative discriminant")
    candidates = []
    for p in range(2, support_bound + 1):
        if is_prime(p) and not is_local_square(delta, Place.finite(p)):
            candidates.append(p)
            if 2 ** (len(candidates) - 1) > MAX_DEFINITE_SPACES:
                raise DomainError(
                    f"more than {MAX_DEFINITE_SPACES} definite collections: "
                    f"at least {len(candidates)} candidate primes up to {shown(support_bound, str)}"
                )
    # combinations come in lexicographic order, so taking the sizes in
    # increasing order yields the collections sorted by size, then primes.
    return [
        Collection.of(delta, {Place.real(): 1, **{Place.finite(p): -1 for p in chosen}})
        for size in range(0, len(candidates) + 1, 2)
        for chosen in combinations(candidates, size)
    ]


# ---------------------------------------------------------------------------
# Degenerate principal series: reducibility points and intertwining eigenvalues.
# ---------------------------------------------------------------------------


class CharacterDescriptor(FrozenRecord):
    """A unitary character of a local field, up to what reducibility sees:
    order 1, 2 or "other", whether it is unramified, and at the real place
    the sign exponent."""

    __slots__ = ("order", "unramified", "real_sign")

    def __init__(self, order=1, unramified: bool = True, real_sign: int = 0):
        if order != "other":
            check_int("character order (or 'other')", order, 1, 2)
        check_int("real_sign", real_sign, 0, 1)
        if order == 1 and not unramified:
            raise DomainError("the trivial character is unramified")
        self._freeze((order, unramified, real_sign))


class ReducibilityVerdict(FrozenRecord):
    """I(mu, s) is reducible iff structure names how its constituents sit.

    residue is "real" or the residue cardinality; structure is None or one of
    direct_sum | steinberg_quotient | steinberg_sub | finite_quotient | trivial_sub.
    """

    __slots__ = ("residue", "constituents", "structure")

    def __init__(
        self, residue: str, constituents: tuple[str, ...] = (), structure: str | None = None
    ):
        self._freeze((residue, constituents, structure))

    @property
    def reducible(self) -> bool:
        return self.structure is not None

    @property
    def pfinite(self) -> bool | None:
        """Whether a lowering-finite vector exists: reducibility, at the real place only."""
        return self.reducible if self.residue == "real" else None

    def to_json(self) -> dict:
        doc = {
            "residue": self.residue,
            "reducible": self.reducible,
            "constituents": list(self.constituents),
            "structure": self.structure,
        }
        if self.pfinite is not None:
            doc["lowering_finite_vector"] = self.pfinite
        return doc


def reducibility(residue, mu: CharacterDescriptor, s_re, s_im=0) -> ReducibilityVerdict:
    """Reducibility of the degenerate principal series I(mu, s).

    Non-archimedean (residue = prime power q): s = s_re + s_im * pi*i/log q
    with both parts exact rationals.  I(mu, s) is reducible iff either
    mu is quadratic nontrivial and s lies in (pi*i/log q) Z, or mu is trivial
    and s lies in {+-1 + 2m pi*i/log q} or {(2m+1) pi*i/log q}; the quadratic
    points split as R(V+) + R(V-), the trivial points carry the Steinberg
    sequences.  Unramified quadratic characters are handled as the twist of
    the trivial one by the unramified sign character (a shift of s_im by 1).

    Archimedean (residue = "real"): reports whether a lowering-finite vector
    exists: s in 2 Z_{>=0} with mu = sgn, or s in -1 + 2 Z_{>=0} with mu
    trivial, together with the constituents.
    """
    check_type("mu", mu, CharacterDescriptor)
    sigma, tau = read_rational(s_re), read_rational(s_im)

    if residue == "real":
        # s = n with n >= -1, even for sgn and odd for the trivial character.
        if mu.order != "other" and sigma.denominator == 1 and tau == 0:
            n = int(sigma)
            if n >= -1 and n % 2 != mu.real_sign:
                if n == 0:
                    return ReducibilityVerdict("real", ("R(2,0)", "R(0,2)"), "direct_sum")
                if n == -1:
                    return ReducibilityVerdict(
                        "real", ("triv (sub)", "L(2) (+) L^-(2) (quotient)"), "trivial_sub"
                    )
                k = n + 1
                return ReducibilityVerdict(
                    "real", (f"L({k}) (+) L^-({k}) (sub)", f"F_{k} (quotient)"), "finite_quotient"
                )
        return ReducibilityVerdict("real")

    # An int with a decimal label, then a prime power.
    check_int("residue cardinality", residue, 2)
    check_digits(residue, what="the residue cardinality")
    prime_power_base(residue)
    label = str(residue)

    if mu.order == 2 and not mu.unramified:
        # Ramified quadratic: reducible on the full lattice sigma = 0, tau in Z.
        if sigma == 0 and tau.denominator == 1:
            return ReducibilityVerdict(label, ("R(V+)", "R(V-)"), "direct_sum")
    elif mu.order != "other":
        # Trivial or unramified quadratic: the latter is the trivial character
        # twisted by the unramified sign character, i.e. s_im shifted by 1.
        shift = 1 if mu.order == 2 else 0
        tau_eff = tau + shift
        t = int(tau_eff) % 2 if tau_eff.denominator == 1 else None
        if sigma == 0 and t == 1:
            return ReducibilityVerdict(label, ("R(V+)", "R(V-)"), "direct_sum")
        if abs(sigma) == 1 and t == 0:
            twist = " (x) chi_unr" if shift else ""
            if sigma == 1:
                return ReducibilityVerdict(
                    label, (f"St{twist} (sub)", f"triv{twist} (quotient)"), "steinberg_sub"
                )
            return ReducibilityVerdict(
                label, (f"triv{twist} (sub)", f"St{twist} (quotient)"), "steinberg_quotient"
            )
    return ReducibilityVerdict(label)


def unramified_eigenvalue(q: int, chi_nontrivial_unramified: bool, epsilon: int) -> Fraction:
    """eps * gamma(0, chi, psi) = eps * L(1, chi)/L(0, chi) for unramified
    quadratic data: 2q/(q+1) up to the Hasse sign.

    Trivial chi has L(0, chi) with a pole, so no eigenvalue is certified;
    ramified data (epsilon factors != 1) is out of the certified domain.
    """
    prime_power_base(q)
    check_sign("epsilon", epsilon)
    if not chi_nontrivial_unramified:
        raise DomainError(
            "intertwining eigenvalue certified for nontrivial unramified "
            "quadratic characters only (trivial chi hits the pole of L(0, chi))"
        )
    return Fraction(epsilon * 2 * q, q + 1)
