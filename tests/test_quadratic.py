"""Local quadratic invariants: symbols, coherence, reducibility, eigenvalues."""

import copy
import json
import os
import pickle
import random
import subprocess
import sys
import time
from fractions import Fraction
from itertools import permutations
from math import isqrt
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from nhmf import quadratic
from nhmf.arith import _MR_EXACT_BOUND, is_prime
from nhmf.cli import main
from nhmf.errors import DomainError, InvariantViolationError
from nhmf.quadratic import (
    CharacterDescriptor,
    CoherenceResult,
    Collection,
    Place,
    QuadSpace2D,
    check_coherence,
    collection_of,
    enumerate_definite_spaces,
    hilbert_symbol,
    is_local_square,
    local_invariants,
    reducibility,
    relevant_places,
    unramified_eigenvalue,
)
from nhmf.verify import solvability_oracle

REAL = Place.real()


class TestHilbertSymbol:
    def test_minus_one_twice_at_real(self):
        # z^2 = -x^2 - y^2 has no nonzero real solution.
        assert hilbert_symbol(-1, -1, REAL) == -1

    def test_two_five_at_five(self):
        assert solvability_oracle(2, 5, 5) == -1
        assert hilbert_symbol(2, 5, Place.finite(5)) == -1

    def test_one_with_anything(self):
        rng = random.Random(3)
        for _ in range(30):
            b = Fraction(rng.randrange(1, 50) * rng.choice([1, -1]), rng.randrange(1, 20))
            for v in relevant_places(b):
                assert hilbert_symbol(1, b, v) == 1

    def test_two_three_at_two(self):
        assert solvability_oracle(2, 3, 2) == -1
        assert hilbert_symbol(2, 3, Place.finite(2)) == -1

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            hilbert_symbol(0, 3, REAL)


def _longest_power_of_three(digits: int) -> int:
    # The largest e with 3^e below 10^digits, that is with at most digits digits.
    e = int(digits / 0.47712125472)
    while 3**e >= 10**digits:
        e -= 1
    while 3 ** (e + 1) < 10**digits:
        e += 1
    return e


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="no digit limit"
)
class TestDigitBoundOfIntsAndFractions:
    # An int or a Fraction goes to the symbol helpers as it is, held to the
    # digit bound read_rational puts on an int or a string: at most
    # L = sys.get_int_max_str_digits() digits in the numerator and the
    # denominator.  hilbert_symbol(3^40000, 5, 3) ran 0.64 s before it was
    # bounded, where QuadSpace2D(3^40000, 5) was refused at once.

    def test_a_value_at_the_bound_is_answered_at_once(self):
        e = _longest_power_of_three(sys.get_int_max_str_digits())
        three = Place.finite(3)
        start = time.perf_counter()
        # 5 is no square mod 3, so (3^e, 5)_3 = (5|3)^e = (-1)^e.
        for a in (3**e, -(3**e), Fraction(1, 3**e), Fraction(3**e, 7)):
            assert hilbert_symbol(a, 5, three) == hilbert_symbol(5, a, three) == (-1) ** e
            assert quadratic.padic_valuation(a, 3) == (e if a.numerator % 3 == 0 else -e)
            # Its unit part 1, -1 or 1/7 is a square mod 3 iff it is positive.
            assert is_local_square(a, three) == (e % 2 == 0 and a > 0)
        assert time.perf_counter() - start < 0.5

    @pytest.mark.parametrize(
        "value",
        ["power", "negative power", "denominator", "fraction"],
    )
    def test_a_value_one_digit_past_the_bound_is_refused_at_once(self, value):
        big = 3 ** (_longest_power_of_three(sys.get_int_max_str_digits()) + 1)
        a = {
            "power": big,
            "negative power": -big,
            "denominator": Fraction(1, big),
            "fraction": Fraction(big, 7),
        }[value]
        three = Place.finite(3)
        start = time.perf_counter()
        for call in (
            lambda: hilbert_symbol(a, 5, three),
            lambda: hilbert_symbol(5, a, REAL),
            lambda: is_local_square(a, three),
            lambda: quadratic.padic_valuation(a, 3),
            lambda: relevant_places(a),
        ):
            with pytest.raises(DomainError, match="digits") as err:
                call()
            assert err.value.code == "out-of-domain"
        assert time.perf_counter() - start < 0.5

    def test_a_space_whose_discriminant_alone_is_past_the_bound_is_answered(self):
        # -a1*a2 has twice the digits of a1 and a2, and no prime they lack,
        # so collection_of finds the places from a1 and a2 alone.
        e = _longest_power_of_three(sys.get_int_max_str_digits())
        space = QuadSpace2D(3**e, -2 * 3 ** (e - 1))
        places = [REAL, Place.finite(2), Place.finite(3)]
        assert relevant_places(space.a1, space.a2) == places
        eps = {v: local_invariants(space, v).epsilon for v in places}
        assert collection_of(space) == Collection.of(space.discriminant, eps)


def test_split_divides_out_the_prime_by_repeated_squaring():
    # Every valuation 0..70 at 2, 3 and 5, in the numerator or the
    # denominator, against one division at a time.
    for p in (2, 3, 5):
        for v in range(71):
            for unit in (1, -7, 11 * 13):
                for n, d, want in ((unit * p**v, 1, v), (unit, p**v * 17, -v)):
                    m, k = n, d
                    while m % p == 0:
                        m //= p
                    while k % p == 0:
                        k //= p
                    assert quadratic._split(n, d, p) == (want, m, k)


def test_a_large_valuation_costs_a_few_divisions():
    # With no digit limit, 7^40000 * 10 / 3 still splits at once; one
    # division at a time took about a second for a power of this size.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        a = Fraction(7**40000 * 10, 3)
        start = time.perf_counter()
        assert quadratic.padic_valuation(a, 7) == 40000
        assert quadratic.unit_part(a, 7) == Fraction(10, 3)
        assert quadratic.padic_valuation(1 / a, 7) == -40000
        assert hilbert_symbol(a, 3, Place.finite(7)) == 1
        assert time.perf_counter() - start < 0.5
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


rationals = st.fractions(min_value=-30, max_value=30, max_denominator=30).filter(
    lambda x: x != 0
)


@settings(max_examples=80, deadline=None)
@given(rationals, rationals, rationals)
def test_symbol_symmetry_bilinearity_square_invariance(a, b, c):
    for v in relevant_places(a, b, c):
        assert hilbert_symbol(a, b, v) == hilbert_symbol(b, a, v)
        assert hilbert_symbol(a, b * c, v) == hilbert_symbol(a, b, v) * hilbert_symbol(
            a, c, v
        )
        assert hilbert_symbol(a * c * c, b, v) == hilbert_symbol(a, b, v)


def test_reciprocity_random_pairs():
    rng = random.Random(71)
    for _ in range(200):
        a = Fraction(rng.randrange(1, 10**4) * rng.choice([1, -1]), rng.randrange(1, 10**4))
        b = Fraction(rng.randrange(1, 10**4) * rng.choice([1, -1]), rng.randrange(1, 10**4))
        product = 1
        for v in relevant_places(a, b):
            product *= hilbert_symbol(a, b, v)
        assert product == 1


def test_symbol_agrees_with_solvability_oracle():
    values = [Fraction(v) for v in (1, -1, 2, -2, 3, -3, 5, -5, 6, -6, 7, 10, 14, 30)]
    values += [Fraction(1, 2), Fraction(-3, 2), Fraction(5, 6), Fraction(-7, 10)]
    cache = {}
    from nhmf.quadratic import padic_valuation, unit_part

    for p in (2, 3, 5, 7):
        place = Place.finite(p)
        for a in values:
            for b in values:
                key = (
                    unit_part(a, p) * p ** (padic_valuation(a, p) % 2),
                    unit_part(b, p) * p ** (padic_valuation(b, p) % 2),
                    p,
                )
                if key not in cache:
                    cache[key] = solvability_oracle(key[0], key[1], p)
                assert cache[key] == hilbert_symbol(a, b, place), (a, b, p)


def trial_primes(n):
    """The distinct prime factors of n >= 0 by trial division; none for 0 and 1."""
    primes, d = set(), 2
    while d * d <= n:
        while n % d == 0:
            primes.add(d)
            n //= d
        d += 1
    return primes | ({n} if n > 1 else set())


def test_relevant_places_in_any_order_match_trial_division():
    rng = random.Random(616)
    for _ in range(60):
        values = [
            Fraction(rng.randrange(0, 10**6) * rng.choice([1, -1]), rng.randrange(1, 1001))
            for _ in range(3)
        ]
        values.append(-values[0] * values[1])
        primes = {2}.union(*(trial_primes(abs(x.numerator)) | trial_primes(x.denominator) for x in values))
        expected = [REAL] + [Place.finite(p) for p in sorted(primes)]
        for order in permutations(values):
            assert relevant_places(*order) == expected, order
    assert relevant_places(0, Fraction(15, 7), Fraction(0)) == [REAL] + [
        Place.finite(p) for p in (2, 3, 5, 7)
    ]


# Two primes whose product, the discriminant of <P, Q> up to sign, has no
# factor below 10^13: Pollard rho alone would give up on it.
P, Q = 10000000000037, 30000000000011
PLACES_PQ = [REAL] + [Place.finite(p) for p in (2, P, Q)]


def test_a_discriminant_after_its_factors_is_never_refactored(capsys):
    assert relevant_places(P, Q, -P * Q) == PLACES_PQ
    coll = collection_of(QuadSpace2D(P, Q))
    assert {v for v, _ in coll.epsilons} == set(PLACES_PQ)
    assert main(["local", "invariants", str(P), str(Q)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert [row["place"] for row in out["places"]] == ["real", "2", str(P), str(Q)]


def square_class_representatives(p):
    """One rational in each class of Q_p^* modulo squares."""
    if p == 2:
        return [1, -1, 5, -5, 2, -2, 10, -10]
    nonresidue = next(u for u in range(2, p) if all((z * z - u) % p for z in range(p)))
    return [1, nonresidue, p, nonresidue * p]


def test_symbols_and_squares_agree_with_solvability_oracle_on_random_rationals():
    # The Hilbert symbol is nondegenerate: x is a square in Q_p exactly when
    # (x, c)_p = 1 for every square class c.
    rng = random.Random(2718)

    def rational(p):
        num = rng.randrange(1, 10**6 + 1) * rng.choice([1, -1])
        return Fraction(num, rng.randrange(1, 1001)) * Fraction(p) ** rng.randrange(-2, 3)

    for p in (2, 3, 5, 7):
        place, classes = Place.finite(p), square_class_representatives(p)
        for _ in range(50):
            a, b = rational(p), rational(p)
            assert hilbert_symbol(a, b, place) == solvability_oracle(a, b, p), (a, b, p)
            for x in (a, a * b * b):
                square = all(solvability_oracle(x, c, p) == 1 for c in classes)
                assert is_local_square(x, place) == square, (x, p)
            assert is_local_square(a * a, place)


class TestLocalSquares:
    def test_minus_one_mod_five(self):
        # -1 = 4 mod 5 is a square; Hensel lifts it.
        assert is_local_square(-1, Place.finite(5))
        assert not is_local_square(-1, Place.finite(3))
        assert not is_local_square(-1, Place.finite(2))
        assert not is_local_square(-1, REAL)

    def test_two_adic_units(self):
        assert is_local_square(17, Place.finite(2))  # 17 = 1 mod 8
        assert not is_local_square(5, Place.finite(2))
        assert is_local_square(4, Place.finite(2))
        assert not is_local_square(8, Place.finite(2))


class TestLocalInvariants:
    def test_norm_form_at_real(self):
        inv = local_invariants(QuadSpace2D(1, 1), REAL)
        assert inv.chi_nontrivial and inv.epsilon == 1

    def test_norm_form_at_five(self):
        inv = local_invariants(QuadSpace2D(1, 1), Place.finite(5))
        assert not inv.chi_nontrivial and inv.epsilon == 1

    def test_two_three_at_two(self):
        inv = local_invariants(QuadSpace2D(2, 3), Place.finite(2))
        assert inv.epsilon == -1

    def test_discriminant_is_computed_once(self):
        space, fresh = QuadSpace2D(Fraction(2, 3), -5), QuadSpace2D(Fraction(2, 3), -5)
        assert space.discriminant == Fraction(10, 3)
        assert space.discriminant is space.discriminant
        # The kept value takes no part in equality, hash or repr.
        assert space == fresh and hash(space) == hash(fresh)
        assert repr(space) == repr(fresh) == "QuadSpace2D(a1=Fraction(2, 3), a2=Fraction(-5, 1))"
        assert space != QuadSpace2D(-5, Fraction(2, 3))

    def test_invariant_constraint_enforced(self):
        from nhmf.quadratic import LocalInvariant

        with pytest.raises(InvariantViolationError):
            LocalInvariant(REAL, False, -1)

    def test_the_kept_terms_take_no_part_in_equality(self):
        space, fresh = QuadSpace2D(Fraction(2, 3), -5), QuadSpace2D(Fraction(2, 3), -5)
        for v in relevant_places(space.a1, space.a2):
            local_invariants(space, v)
        assert space == fresh and hash(space) == hash(fresh) and repr(space) == repr(fresh)


@st.composite
def spaces_and_primes(draw):
    """A space whose entries have either sign, denominators, and a chosen
    prime p (2 among them) in numerators and denominators; one time in
    two the discriminant is a square."""
    p = draw(st.sampled_from([2, 3, 5, 7, 11]))

    def entry():
        num = draw(st.integers(1, 10**4)) * draw(st.sampled_from([1, -1]))
        den = draw(st.integers(1, 10**3)) * p ** draw(st.integers(0, 3))
        return Fraction(num * p ** draw(st.integers(0, 3)), den)

    a1 = entry()
    if draw(st.booleans()):
        r = Fraction(draw(st.integers(1, 50)), draw(st.integers(1, 50)))
        a2 = -a1 * r * r
    else:
        a2 = entry()
    return QuadSpace2D(a1, a2), p


@settings(max_examples=300, deadline=None)
@given(spaces_and_primes())
def test_local_invariants_on_ints_match_the_symbol_and_the_square_test(case):
    from nhmf.quadratic import LocalInvariant

    space, p = case
    for v in [REAL, Place.finite(p)] + relevant_places(space.a1, space.a2, Fraction(p)):
        want = LocalInvariant(
            v,
            not is_local_square(space.discriminant, v),
            hilbert_symbol(space.a1, space.a2, v),
        )
        assert local_invariants(space, v) == want, v


def test_relevant_places_prove_no_prime_twice(monkeypatch):
    # prime_factors has proved each prime it yields; Place.finite, for
    # outside input, still proves its own.
    monkeypatch.setattr(quadratic, "is_prime", lambda p: pytest.fail(f"is_prime({p})"))
    places = relevant_places(Fraction(41 * 41 * 1009, 7), -(10**6 + 3))
    monkeypatch.undo()
    assert places == [REAL] + [Place.finite(p) for p in (2, 7, 41, 1009, 10**6 + 3)]
    assert hash(places[-1]) == hash(Place("finite", 10**6 + 3))
    with pytest.raises(DomainError):
        Place.finite(41 * 41)


def test_the_invariants_at_the_shared_places_are_shared():
    # An invariant is a value: at the real place and at each prime below 2^16
    # one is built per (place, chi_nontrivial, epsilon).  The second space
    # scales the first by squares, so it has the same invariants everywhere.
    from nhmf.quadratic import LocalInvariant

    space, scaled = QuadSpace2D(3, -7 * 65521), QuadSpace2D(Fraction(3, 4), Fraction(-7 * 65521, 25))
    for v in relevant_places(space.a1, space.a2) + [Place.finite(5), Place("finite", 3)]:
        inv = local_invariants(space, v)
        assert local_invariants(scaled, v) is inv, v
        for twin in (copy.copy(inv), copy.deepcopy(inv), pickle.loads(pickle.dumps(inv))):
            assert twin == inv and hash(twin) == hash(inv), v
    assert local_invariants(space, Place.finite(3)) is local_invariants(space, Place("finite", 3))
    # A larger prime gets a fresh, equal invariant, and is not kept.
    space = QuadSpace2D(65537, 3)
    v = Place.finite(65537)
    kept = quadratic._shared_invariant.cache_info().currsize
    assert local_invariants(space, v) is not local_invariants(space, v)
    assert local_invariants(space, v) == LocalInvariant(v, True, -1)
    assert quadratic._shared_invariant.cache_info().currsize == kept
    # The check of each value still runs: the violating pair is refused,
    # also at a place whose valid invariants are shared.
    three = Place("finite", 3)
    assert local_invariants(QuadSpace2D(1, -1), three) == LocalInvariant(three, False, 1)
    with pytest.raises(InvariantViolationError):
        LocalInvariant(three, False, -1)


def test_the_real_place_and_the_small_finite_places_are_shared():
    # A place is a value: the real place and the place of each prime below
    # 2^16 are built once, and a place built again is equal to them.
    assert Place.real() is Place.real() is Place.parse("oo")
    assert Place.finite(7) is Place.finite(7) is relevant_places(Fraction(7, 2))[-1]
    assert relevant_places(65521)[-1] is Place.finite(65521)
    assert Place.finite(65537) is not Place.finite(65537)
    assert Place.finite(65537) == relevant_places(65537)[-1] == Place("finite", 65537)
    assert Place("finite", 7) == Place.finite(7) and hash(Place("finite", 7)) == hash(Place.finite(7))
    # A shared place takes nothing that is not the int prime.
    for p in (7.0, Fraction(7), True, "7", 49):
        with pytest.raises(DomainError):
            Place.finite(p)


# Composites past the exact Miller-Rabin bound with no factor below 2^16, of
# 340 and 1007 digits.  Place factored each before refusing it: 6.1 s for
# the first, 46 s for a 1000-digit one, and `local hilbert` 6.5 s.
PAST_THE_PRIME_BOUND = [(2**521 - 1) * (2**607 - 1), (2**3217 - 1) * (2**127 - 1)]


@pytest.mark.parametrize("n", PAST_THE_PRIME_BOUND, ids=["340-digits", "1007-digits"])
def test_a_place_past_the_prime_bound_is_refused_before_it_is_factored(n, capsys):
    start = time.perf_counter()
    with pytest.raises(DomainError, match="the prime of a place must be an integer in 2\\.\\.") as err:
        Place.finite(n)
    assert err.value.code == "out-of-domain"
    assert main(["local", "hilbert", "3", "5", str(n)]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "out-of-domain"
    assert time.perf_counter() - start < 0.5
    # The largest int that the bound lets in is refused as no prime.
    with pytest.raises(DomainError, match="is not prime"):
        Place("finite", _MR_EXACT_BOUND - 1)


class TestCoherence:
    def test_actual_spaces_are_coherent_with_matching_witness(self):
        rng = random.Random(8)
        for _ in range(15):
            space = QuadSpace2D(
                Fraction(rng.randrange(1, 20) * rng.choice([1, -1]), rng.randrange(1, 8)),
                Fraction(rng.randrange(1, 20) * rng.choice([1, -1]), rng.randrange(1, 8)),
            )
            result = check_coherence(collection_of(space))
            assert result.coherent and result.witness is not None
            witness = result.witness
            for v in relevant_places(
                space.a1, space.a2, witness.a1, witness.a2, space.discriminant
            ):
                a = local_invariants(space, v)
                b = local_invariants(witness, v)
                assert (a.chi_nontrivial, a.epsilon) == (b.chi_nontrivial, b.epsilon)

    def test_single_flip_incoherent(self):
        coll = collection_of(QuadSpace2D(1, 1))
        flipped = coll.flip(Place.finite(3))  # -1 is a nonsquare mod 3
        assert not check_coherence(flipped).coherent

    def test_empty_support_square_discriminant(self):
        coll = Collection.of(Fraction(4), {})
        result = check_coherence(coll)
        assert result.coherent and result.witness is not None
        assert not is_local_square(result.witness.discriminant / 4, REAL) or True

    def test_a_result_without_witness_is_incoherent(self):
        result = CoherenceResult(None)
        assert not result and not result.coherent
        assert result.to_json() == {"coherent": False, "witness": None}
        assert CoherenceResult(QuadSpace2D(1, 1)).coherent

    def test_invariant_violation_detected(self):
        # eps = -1 where the discriminant is a local square (at 5, -1 = 4).
        coll = Collection.of(Fraction(-1), {Place.finite(5): -1})
        with pytest.raises(InvariantViolationError):
            check_coherence(coll)

    def test_a_sign_keyed_by_no_place_is_refused(self):
        # Collection(1, ((2, 1),)) was built, and check_coherence on a
        # collection keyed by an int escaped as a raw AttributeError.
        for key in (2, "2", None, "real"):
            with pytest.raises(DomainError, match="must be keyed by a Place"):
                Collection(1, ((key, 1),))
            with pytest.raises(DomainError, match="must be keyed by a Place"):
                Collection.of(-1, {key: -1})
        assert Collection.of(-1, {Place.finite(2): -1, REAL: -1}).epsilon_at(REAL) == -1

    def test_epsilons_that_are_no_place_sign_pairs_are_refused(self):
        # Collection(1, (1,)) and Collection(1, 5) escaped as raw TypeErrors.
        for entry in (1, (REAL,), (REAL, 1, 1), "ab", None):
            with pytest.raises(DomainError, match="must be a \\(place, sign\\) pair") as err:
                Collection(1, (entry,))
            assert err.value.code == "out-of-domain"
        for epsilons in (5, None, 1.5):
            with pytest.raises(DomainError, match="must be \\(place, sign\\) pairs"):
                Collection(1, epsilons)
        # Any iterable of pairs is read once, a generator included, and a
        # pair given as a list is stored as a tuple, so the record hashes.
        want = Collection.of(-1, {Place.finite(3): -1, REAL: -1})
        assert Collection(-1, ((place, -1) for place in (REAL, Place.finite(3)))) == want
        listed = Collection(-1, [[REAL, -1], [Place.finite(3), -1]])
        assert listed == want and hash(listed) == hash(want)


def scan_witness_to_1e5(delta, minus_places):
    """The witness scan as it stood before it stepped by the forced prime
    product: every a = +-1, +-2, ... with |a| < 10^5, testing the places of
    delta, the targets and a; None when it finds nothing."""
    targets = set(minus_places)
    check = set(relevant_places(delta)) | targets
    for size in range(1, 100000):
        for a0 in (size, -size):
            a = Fraction(a0)
            places = check | set(relevant_places(a))
            if all((hilbert_symbol(a, delta, v) == -1) == (v in targets) for v in places):
                return QuadSpace2D(a, -delta * a)
    return None


def nonsquare_places(delta, candidates):
    return [v for v in candidates if not is_local_square(delta, v)]


def assert_witness_realizes(delta, targets, witness):
    """The witness has discriminant delta up to squares and Hasse sign -1
    exactly at the targets, checked at every place where it could differ."""
    ratio = witness.discriminant / delta
    assert isqrt(ratio.numerator) ** 2 == ratio.numerator
    assert isqrt(ratio.denominator) ** 2 == ratio.denominator
    for v in set(relevant_places(delta, witness.a1, witness.a2)) | set(targets):
        assert (hilbert_symbol(witness.a1, witness.a2, v) == -1) == (v in targets), v


SMALL_PLACES = [REAL] + [Place.finite(p) for p in (2, 3, 5, 7, 11, 13)]


def test_witnesses_match_the_scan_to_1e5():
    # A witness must be a multiple of the odd target primes prime to delta,
    # so stepping by their product meets the same first witness.
    rng = random.Random(4343)
    spaces = 0
    while spaces < 240:
        delta = Fraction(rng.randrange(1, 30) * rng.choice([1, -1]), rng.randrange(1, 12))
        minus = [v for v in nonsquare_places(delta, SMALL_PLACES) if rng.random() < 0.5]
        if len(minus) % 2:
            minus.pop()
        witness = check_coherence(Collection.of(delta, {v: -1 for v in minus})).witness
        assert witness == scan_witness_to_1e5(delta, minus), (delta, minus)
        spaces += 1


@pytest.mark.parametrize(
    "discriminant, primes",
    [
        ("-1", [3, 7, 11, 19, 23, 31]),
        ("-3", [2, 5, 11, 17, 23, 29]),
        ("-1", [103, 107, 127, 131, 139, 151, 163, 167]),
    ],
)
def test_witness_with_many_target_primes_is_found_quickly(discriminant, primes, capsys):
    # Past |a| < 10^5 from the product of the target primes; these once
    # crashed with an AssertionError after seconds of search.
    doc = {"discriminant": discriminant, "epsilons": {str(p): -1 for p in primes}}
    start = time.perf_counter()
    assert main(["local", "coherent", json.dumps(doc)]) == 0
    assert time.perf_counter() - start < 1.0
    out = json.loads(capsys.readouterr().out)
    assert out["coherent"] is True
    witness = QuadSpace2D(Fraction(out["witness"]["a1"]), Fraction(out["witness"]["a2"]))
    assert_witness_realizes(Fraction(discriminant), [Place.finite(p) for p in primes], witness)


def test_witness_search_past_its_bound_is_out_of_domain(monkeypatch):
    # -(3*5*...*23) puts eight conditions on a; no a = +-s with s < 20 meets them.
    monkeypatch.setattr(quadratic, "_WITNESS_STEPS", 20)
    delta = Fraction(-3 * 5 * 7 * 11 * 13 * 17 * 19 * 23)
    with pytest.raises(DomainError):
        check_coherence(Collection.of(delta, {REAL: -1, Place.finite(3): -1}))


COUNT_WITNESS_SYMBOLS = """
from fractions import Fraction
from nhmf import quadratic

calls = []
symbol = quadratic._split_symbol
quadratic._split_symbol = lambda *args: calls.append(1) or symbol(*args)
for num in range(1, 40):
    for coll in quadratic.enumerate_definite_spaces(Fraction(-num, 7), 14):
        quadratic.check_coherence(coll)
print(len(calls))
"""


def test_witness_search_computes_the_same_symbols_in_every_process():
    # The places are tested in list order: a set of places would iterate in
    # an order set by hashes, and hash(None) (the real place's p) is an
    # address, so the count of symbols differed between processes.  The
    # scan takes each finite symbol from _split_symbol, which is counted; a
    # count of 0 would mean the count misses the scan.
    src = str(Path(__file__).resolve().parents[1] / "src")
    counts = set()
    for hash_seed in ("0", "0", "1"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", COUNT_WITNESS_SYMBOLS], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        counts.add(int(proc.stdout))
    assert len(counts) == 1, counts
    assert counts.pop() > 0


PRIMES_TO_200 = [p for p in range(3, 200) if all(p % d for d in range(2, isqrt(p) + 1))]


@settings(max_examples=150, deadline=None)
@given(
    num=st.integers(-10**4, 10**4).filter(bool),
    den=st.integers(1, 10**3),
    places=st.lists(
        st.sampled_from([REAL, Place.finite(2)] + [Place.finite(p) for p in PRIMES_TO_200]),
        max_size=12,
        unique=True,
    ),
)
def test_coherent_collections_get_a_realizing_witness(num, den, places):
    delta = Fraction(num, den)
    targets = nonsquare_places(delta, places)
    if len(targets) % 2:
        targets.pop()
    result = check_coherence(Collection.of(delta, {v: -1 for v in targets}))
    assert result.coherent
    assert_witness_realizes(delta, targets, result.witness)


class TestEnumerateDefiniteSpaces:
    def test_discriminant_minus_one_bound_ten(self):
        classes = enumerate_definite_spaces(Fraction(-1), 10)
        supports = [
            frozenset(pl.p for pl, e in c.epsilons if e == -1) for c in classes
        ]
        assert frozenset() in supports
        assert frozenset({3, 7}) in supports
        # chi is locally nontrivial exactly at 2, 3, 7 below 10.
        assert sorted(map(sorted, supports)) == sorted(
            map(sorted, [set(), {2, 3}, {2, 7}, {3, 7}])
        )

    def test_all_enumerated_classes_are_coherent(self):
        for coll in enumerate_definite_spaces(Fraction(-1), 10):
            assert check_coherence(coll).coherent

    def test_square_class_invariance(self):
        a = enumerate_definite_spaces(Fraction(-1), 10)
        b = enumerate_definite_spaces(Fraction(-4), 10)
        assert [c.epsilons for c in a] == [c.epsilons for c in b]

    def test_at_the_bound_every_collection_is_returned(self):
        # 2, 3, 7, ..., 59: ten candidate primes, 2^9 even subsets; then 13.
        assert len(enumerate_definite_spaces(Fraction(-1), 60)) == 512
        assert len(enumerate_definite_spaces(Fraction(-1), 80)) == quadratic.MAX_DEFINITE_SPACES

    @pytest.mark.parametrize("bound", [90, 200, 10**12])
    def test_past_the_bound_the_enumeration_is_refused_quickly(self, bound):
        # (-1, 200) has 25 candidate primes, so 2^24 collections.
        start = time.perf_counter()
        with pytest.raises(DomainError) as err:
            enumerate_definite_spaces(Fraction(-1), bound)
        assert time.perf_counter() - start < 0.1
        assert err.value.code == "out-of-domain"
        assert str(quadratic.MAX_DEFINITE_SPACES) in str(err.value)

    def test_positive_discriminant_rejected(self):
        with pytest.raises(DomainError):
            enumerate_definite_spaces(Fraction(1), 10)

    def test_matches_the_sorted_subset_scan(self):
        def reference(delta, bound):
            # every subset of the candidate primes by bit mask, odd ones
            # dropped, then sorted by support size and places
            candidates = [
                p for p in range(2, bound + 1)
                if is_prime(p) and not is_local_square(delta, Place.finite(p))
            ]
            out = []
            for mask in range(1 << len(candidates)):
                chosen = [p for i, p in enumerate(candidates) if mask & (1 << i)]
                if len(chosen) % 2 == 0:
                    eps = {Place.real(): 1, **{Place.finite(p): -1 for p in chosen}}
                    out.append(Collection.of(delta, eps))
            out.sort(key=lambda c: (sum(1 for _, e in c.epsilons if e == -1), c.epsilons))
            return out

        total = 0
        for num in range(1, 41):
            for den in (1, 3):
                delta = Fraction(-num, den)
                for bound in (1, 2, 12, 30):
                    got = enumerate_definite_spaces(delta, bound)
                    assert got == reference(delta, bound), (delta, bound)
                    total += len(got)
        assert total >= 1000


TRIVIAL = CharacterDescriptor(order=1, unramified=True)
UNR_QUAD = CharacterDescriptor(order=2, unramified=True)
RAM_QUAD = CharacterDescriptor(order=2, unramified=False)
OTHER = CharacterDescriptor(order="other", unramified=False)


class TestReducibility:
    def test_quadratic_split_at_zero(self):
        verdict = reducibility(3, UNR_QUAD, 0, 0)
        assert verdict.reducible and verdict.structure == "direct_sum"
        assert verdict.constituents == ("R(V+)", "R(V-)")

    def test_trivial_at_half_irreducible(self):
        assert not reducibility(3, TRIVIAL, Fraction(1, 2), 0).reducible

    def test_real_sgn_at_zero(self):
        verdict = reducibility("real", CharacterDescriptor(real_sign=1), 0, 0)
        assert verdict.pfinite and verdict.constituents == ("R(2,0)", "R(0,2)")

    def test_trivial_steinberg_points(self):
        up = reducibility(5, TRIVIAL, 1, 0)
        assert up.reducible and up.structure == "steinberg_sub"
        down = reducibility(5, TRIVIAL, -1, 0)
        assert down.reducible and down.structure == "steinberg_quotient"

    def test_trivial_imaginary_lattice(self):
        assert reducibility(5, TRIVIAL, 0, 1).reducible  # odd tau
        assert reducibility(5, TRIVIAL, 0, 2).reducible is False
        assert reducibility(5, TRIVIAL, 1, 2).reducible  # sigma 1, tau even
        assert not reducibility(5, TRIVIAL, 1, 1).reducible

    def test_unramified_quadratic_lattice(self):
        assert reducibility(7, UNR_QUAD, 0, 2).reducible
        assert not reducibility(7, UNR_QUAD, 0, 1).reducible
        assert reducibility(7, UNR_QUAD, 1, 1).reducible  # twisted Steinberg
        assert not reducibility(7, UNR_QUAD, 1, 0).reducible

    def test_ramified_quadratic_full_lattice(self):
        for tau in (-2, -1, 0, 1, 2):
            assert reducibility(3, RAM_QUAD, 0, tau).reducible
        assert not reducibility(3, RAM_QUAD, 1, 0).reducible
        assert not reducibility(3, RAM_QUAD, 0, Fraction(1, 2)).reducible

    def test_other_character_irreducible(self):
        for s_re, s_im in [(0, 0), (1, 0), (0, 1), (2, 3)]:
            assert not reducibility(3, OTHER, s_re, s_im).reducible

    def test_real_lattices(self):
        sgn = CharacterDescriptor(real_sign=1)
        triv = CharacterDescriptor(real_sign=0)
        assert reducibility("real", sgn, 2, 0).pfinite
        assert not reducibility("real", sgn, 1, 0).pfinite
        assert reducibility("real", triv, -1, 0).structure == "trivial_sub"
        assert reducibility("real", triv, 1, 0).pfinite
        assert not reducibility("real", triv, 0, 0).pfinite
        assert not reducibility("real", triv, 1, 1).pfinite  # off the real axis

    def test_verdict_fields_agree(self):
        # reducible, constituents and structure say one thing; the
        # lowering-finite flag is reducibility at the real place, absent elsewhere.
        mus = [
            CharacterDescriptor(order, unramified, sign)
            for order in (1, 2, "other")
            for unramified in (True, False)
            for sign in (0, 1)
            if order != 1 or unramified
        ]
        lattice = [Fraction(n, 2) for n in range(-6, 7)]
        for residue in ("real", 2, 3, 4, 9):
            for mu in mus:
                for s_re in lattice:
                    for s_im in lattice[4:9]:
                        v = reducibility(residue, mu, s_re, s_im)
                        assert v.reducible == bool(v.constituents) == (v.structure is not None)
                        assert v.pfinite is (v.reducible if residue == "real" else None)
                        doc = v.to_json()
                        assert doc["reducible"] is v.reducible
                        assert doc.get("lowering_finite_vector") is v.pfinite


class TestUnramifiedEigenvalue:
    def test_value(self):
        assert unramified_eigenvalue(3, True, 1) == Fraction(3, 2)

    def test_sign_flip(self):
        assert unramified_eigenvalue(3, True, -1) == Fraction(-3, 2)

    def test_squares_agree(self):
        for q in (2, 3, 5, 7, 9):
            plus = unramified_eigenvalue(q, True, 1)
            minus = unramified_eigenvalue(q, True, -1)
            assert plus == -minus and plus * minus == -((Fraction(2 * q, q + 1)) ** 2)

    def test_split_eigenvalues_distinct(self):
        for q in (2, 3, 5, 7, 9, 11):
            verdict = reducibility(q, UNR_QUAD, 0, 0)
            assert verdict.structure == "direct_sum"
            assert unramified_eigenvalue(q, True, 1) != unramified_eigenvalue(
                q, True, -1
            )

    def test_trivial_character_rejected(self):
        with pytest.raises(DomainError):
            unramified_eigenvalue(3, False, 1)
