"""Structure decomposition: peeling, round-trips, error paths."""

import gc
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest

import nhmf.series
from nhmf.arith import reduce_by, reduced_echelon
from nhmf.decompose import (
    Decomposition,
    Level1Basis,
    _peel_coefficients,
    _seed,
    character_split,
    decompose,
    leading_column_factor,
    raised_e2,
    shared_level1_basis,
    top_seed,
)
from nhmf.errors import DecompositionError, DomainError, InsufficientTruncationError, NhmfError
from nhmf.generators import delta_cusp, eisenstein, eisenstein2, level1_basis
from nhmf.operators import delta_coefficients, infinitesimal_character, iterate_raise, raise_weight
from nhmf.series import NearlyHolomorphicForm
from nhmf.verify import random_decomposable

from conftest import oracle_raise, sequential_reduce_by, solve_exact
from test_arith import assert_positive_multiple
from test_operators import stepwise_raise


class TestIterateRaise:
    def test_zero_steps_is_identity(self):
        f = eisenstein(4, 6)
        assert iterate_raise(f, 0) == f

    def test_kills_weight_zero_constants(self):
        assert iterate_raise(NearlyHolomorphicForm.constant(1, 5), 1).is_zero

    def test_two_fold_matches_differentiation_oracle(self):
        f = eisenstein(4, 6)
        assert iterate_raise(f, 2) == oracle_raise(oracle_raise(f))

    def test_leading_column_factor(self):
        # c(w, l) from the monomial rule: the X^l column of the l-fold image.
        for w in (4, 6, 8):
            for ell in (1, 2, 3):
                g = eisenstein(w, 8)
                img = iterate_raise(g, ell)
                col = img.x_column(ell)
                c = leading_column_factor(w, ell)
                assert col == {n: c * v for n, v in g.x_column(0).items()}

    def test_factor_degenerates_only_at_weight_zero(self):
        assert leading_column_factor(0, 1) == 0
        assert leading_column_factor(0, 3) == 0
        assert leading_column_factor(1, 3) == -6
        assert leading_column_factor(4, 2) == 20

    def test_top_seed_inverts_raising(self):
        # The seed read off the top column is the seed that was raised,
        # for every seed weight whose factor c(w, l) is nonzero.
        for w in (-3, 1, 4, 7, 12):
            g = NearlyHolomorphicForm(w, 6, {(0, 0): Fraction(-2, 3), (0, 4): 5})
            for ell in range(4):
                if leading_column_factor(w, ell):
                    assert top_seed(iterate_raise(g, ell)) == g

    def test_the_one_pass_seed_is_stored_as_the_constructor_stores_it(self):
        # _seed divides the top column by one gcd with the sign of c(w, p)
        # in the division; the trusted constructor, given the column negated
        # where c(w, p) < 0, must store the same form.
        rng = random.Random(76)
        for _ in range(300):
            top = [rng.choice([0, 0, rng.randrange(-60, 61)]) for _ in range(rng.randrange(1, 9))]
            top[rng.randrange(len(top))] = rng.choice([-1, 1]) * rng.randrange(1, 90)
            den = rng.choice([1, 2, 6, 35, 360])
            factor = rng.choice([-1, 1]) * rng.choice([1, 2, 6, 20, 210, 5040])
            seed = _seed(4, factor, len(top) - 1, den, tuple(top))
            column = top if factor > 0 else [-x for x in top]
            want = NearlyHolomorphicForm._from_columns(4, len(top) - 1, den * abs(factor), [column])
            assert seed._key() == want._key(), (top, den, factor)
            assert type(seed._cols[0]) is tuple

    def test_the_peel_tables_hold_the_closed_form(self):
        # The b_j of each (w, p) are those of delta_coefficients, and the
        # shared basis holds the columns n^m, grown to the deepest step.
        for w in range(0, 30, 3):
            for p in range(9):
                assert _peel_coefficients(w, p) == tuple(delta_coefficients(-w, p))
        basis = Level1Basis(7)
        powers = basis.powers(3)
        assert powers == [tuple(n**m for n in range(8)) for m in range(4)]
        assert basis.powers(1) is powers and len(powers) == 4
        assert basis.powers(6)[6] == tuple(n**6 for n in range(8))


class TestDecomposeExamples:
    def test_weight_two_series_is_pure_seed(self):
        dec = decompose(eisenstein2(12))
        assert dec.terms == ()
        assert dec.e2_term == (0, Fraction(1))
        assert dec.reassemble() == eisenstein2(12)

    def test_raised_e4_plus_e6(self):
        trunc = 12
        e4, e6 = eisenstein(4, trunc), eisenstein(6, trunc)
        f = iterate_raise(e4, 1) + e6
        dec = decompose(f)
        assert dec.e2_term is None
        assert dec.terms == ((0, e6), (1, e4))
        assert dec.reassemble() == f

    def test_holomorphic_passthrough(self):
        e4 = eisenstein(4, 8)
        dec = decompose(e4)
        assert dec.terms == ((0, e4),)
        assert dec.e2_term is None

    def test_constant_summand(self):
        f = NearlyHolomorphicForm.constant(Fraction(7, 2), 6)
        dec = decompose(f)
        assert dec.terms == ((0, f),)

    def test_raised_weight_two_seed(self):
        trunc = 14
        f = iterate_raise(eisenstein2(trunc), 2) * Fraction(-3, 5)
        dec = decompose(f)
        assert dec.terms == ()
        assert dec.e2_term == (2, Fraction(-3, 5))
        assert dec.reassemble() == f

    def test_mixed_seed_and_basis(self):
        trunc = 16
        e4 = eisenstein(4, trunc)
        f = iterate_raise(eisenstein2(trunc), 1) + iterate_raise(e4, 0) * 2
        dec = decompose(f)
        assert dec.e2_term == (1, Fraction(1))
        assert dec.terms == ((0, e4 * 2),)
        assert dec.reassemble() == f


class TestDecomposeErrors:
    def test_weight_two_residual_not_decomposable(self):
        # A depth-0 weight-2 q-series is not spanned at level 1.
        f = NearlyHolomorphicForm(2, 8, {(0, 1): 1})
        with pytest.raises(DecompositionError) as err:
            decompose(f)
        assert not err.value.data["residual"].is_zero

    def test_non_modular_input_rejected_with_residual(self):
        # Top column q-series outside the weight-8 span.
        f = NearlyHolomorphicForm(8, 8, {(0, 1): 1, (0, 2): Fraction(1, 3)})
        with pytest.raises(DecompositionError) as err:
            decompose(f)
        assert err.value.data["residual"] == f

    def test_insufficient_truncation(self):
        # Weight 12 needs q-precision past the Sturm-type bound 12/12 + 1 = 2.
        f = NearlyHolomorphicForm(12, 1, {(0, 0): 1, (0, 1): 5})
        with pytest.raises(InsufficientTruncationError):
            decompose(f)

    def test_non_constant_weight_zero_type_top_column_rejected(self):
        # Depth 1 at weight 2 leaves residual weight 0, where only the
        # weight-two Eisenstein seed fits, and its top column is constant.
        f = NearlyHolomorphicForm(2, 6, {(1, 0): 12, (1, 1): 1})
        with pytest.raises(DecompositionError) as err:
            decompose(f)
        assert err.value.data["residual"] == f

    def test_user_basis_truncated_below_the_input(self):
        f = eisenstein(4, 10)
        with pytest.raises(InsufficientTruncationError):
            decompose(f, lambda w: level1_basis(w, 6))
        assert decompose(f, lambda w: level1_basis(w, 12)).reassemble() == f

    def test_zero_decomposes_to_nothing(self):
        dec = decompose(NearlyHolomorphicForm.zero(5))
        assert dec.terms == () and dec.e2_term is None
        assert dec.reassemble().is_zero


def test_roundtrip_random_sample():
    rng = random.Random(421)
    done = 0
    while done < 30:
        f = random_decomposable(rng, 30)
        if f.is_zero:
            continue
        done += 1
        dec = decompose(f)
        assert dec.reassemble() == f
        assert len({ell for ell, _ in dec.terms}) == len(dec.terms)
        for ell, g in dec.terms:
            assert g.depth == 0 and g.weight == f.weight - 2 * ell


def test_uniqueness_term_by_term():
    rng = random.Random(99)
    for _ in range(12):
        f = random_decomposable(rng, 26)
        if f.is_zero:
            continue
        d1 = decompose(f)
        d2 = decompose(NearlyHolomorphicForm(f.weight, f.truncation, dict(f.terms())))
        assert d1.terms == d2.terms and d1.e2_term == d2.e2_term


def test_is_holomorphic():
    assert eisenstein(4, 5).is_holomorphic
    assert not eisenstein2(5).is_holomorphic
    assert not raise_weight(eisenstein(4, 5)).is_holomorphic


def test_character_stratification_of_eigenforms():
    trunc = 20
    for f in (
        iterate_raise(eisenstein(4, trunc), 2),
        iterate_raise(eisenstein2(trunc), 1),
        eisenstein(6, trunc),
    ):
        char = infinitesimal_character(f)
        parts = character_split(f)
        assert set(parts) == {char}
        dec = decompose(f)
        for ell, g in dec.terms:
            assert infinitesimal_character(g) == char


def test_character_split_of_mixed_form():
    trunc = 18
    e4, e6 = eisenstein(4, trunc), eisenstein(6, trunc)
    mixed = iterate_raise(e4, 1) + e6
    parts = character_split(mixed)
    assert len(parts) == 2
    assert sum(parts.values(), NearlyHolomorphicForm.zero(trunc)) == mixed
    for char, piece in parts.items():
        assert infinitesimal_character(piece) == char


def test_user_supplied_basis_provider():
    # A weight-2 "higher level" basis makes weight-2 residuals decomposable.
    trunc = 10
    g2 = NearlyHolomorphicForm(2, trunc, {(0, n): Fraction(n + 1) for n in range(4)})

    class Provider:
        @staticmethod
        def sturm_bound(w):
            return 4

        def __call__(self, w):
            if w == 2:
                return [g2]
            return level1_basis(w, trunc)

    f = iterate_raise(g2, 1) * 3
    dec = decompose(f, Provider())
    assert dec.terms == ((1, g2 * 3),)
    assert dec.reassemble() == f


def test_basis_above_input_truncation():
    # A provider may hand out forms computed to a higher precision; the
    # solve must use only the coefficients up to the input's truncation.
    trunc = 12
    e4, e6 = eisenstein(4, trunc), eisenstein(6, trunc)
    f = iterate_raise(e4, 2) + iterate_raise(e6, 1) + e4 * e4
    dec = decompose(f, lambda w: level1_basis(w, trunc + 10))
    assert dec.terms == decompose(f).terms
    assert dec.reassemble() == f
    # Two forms that differ only past the truncation are dependent there.
    e8 = level1_basis(8, trunc + 10)[0]
    past = e8 + NearlyHolomorphicForm.monomial(8, trunc + 10, 0, trunc + 5)
    g = iterate_raise(e8.truncate(trunc), 2)
    dec = decompose(g, lambda w: [past, e8] if w == 8 else level1_basis(w, trunc + 10))
    assert dec.terms == decompose(g).terms == ((2, e8.truncate(trunc)),)


def test_the_shared_basis_is_its_own_reduced_echelon_form():
    # One form per pivot, the pivots those of the Miller basis q^i + O(q^dim),
    # each form zero at the other pivots; the monomials E4^a E6^b reduce to
    # zero against them.
    trunc = 60
    provider = shared_level1_basis(trunc)
    for w in range(0, 49, 2):
        basis = provider(w)
        dim = w // 12 + (0 if w % 12 == 2 else 1)
        pivots = [min(b.x_column(0)) for b in basis]
        assert all(b.weight == w and b.is_holomorphic for b in basis)
        assert sorted(pivots) == list(range(dim)), w
        for b, p in zip(basis, pivots):
            assert [c.coefficient(0, p) for c in basis if c is not b] == [0] * (dim - 1)
        for m in level1_basis(w, trunc):
            for b, p in zip(basis, pivots):
                m = m - b * (m.coefficient(0, p) / b.coefficient(0, p))
            assert m.is_zero, w


def test_the_basis_of_an_evicted_truncation_is_released():
    # shared_level1_basis keeps the bases of a few recent truncations; once a
    # truncation has left it, no form of that truncation stays alive.
    first = 113
    for trunc in range(first, first + shared_level1_basis.cache_info().maxsize + 2):
        f = iterate_raise(eisenstein(4, trunc), 4) + delta_cusp(trunc)
        f = f + iterate_raise(eisenstein2(trunc), 5)
        assert decompose(f).reassemble() == f
    del f
    gc.collect()
    kept = [o for o in gc.get_objects() if isinstance(o, NearlyHolomorphicForm)]
    assert [o for o in kept if o.truncation == first] == []


def test_shared_basis_does_not_leak_between_calls():
    rng = random.Random(7)
    forms = [f for f in (random_decomposable(rng, 30) for _ in range(6)) if not f.is_zero]
    before = [decompose(f).to_json() for f in forms]
    provider = shared_level1_basis(30)
    for w in range(0, 31, 2):
        provider(w).clear()
        provider(w).append(NearlyHolomorphicForm.zero(30))
        level1_basis(w, 30).clear()
    assert [decompose(f).to_json() for f in forms] == before
    assert [decompose(f).reassemble() for f in forms] == forms


def test_column_off_the_span_past_the_first_dim_coefficients_is_refused():
    # M_12 has dimension 2: E4^3 + q^20 agrees with E4^3 on q^0 and q^1 (so
    # on the Miller pivots), and leaves the span only at q^20.
    trunc = 30
    e4 = eisenstein(4, trunc)
    bad = e4 * e4 * e4 + NearlyHolomorphicForm.monomial(12, trunc, 0, 20)
    for p in (0, 1, 3):
        f = iterate_raise(bad, p) + iterate_raise(eisenstein(6, trunc), p + 3)
        with pytest.raises(DecompositionError) as err:
            decompose(f)
        assert err.value.data["residual"] == f - iterate_raise(eisenstein(6, trunc), p + 3)


def test_user_basis_with_linearly_dependent_forms():
    trunc = 30

    def provider(w):
        basis = level1_basis(w, trunc)
        zero = NearlyHolomorphicForm.zero(trunc)
        return [b * 3 for b in basis] + basis + [sum(basis, zero), zero]

    rng = random.Random(31)
    for _ in range(10):
        f = random_decomposable(rng, trunc)
        dec = decompose(f, provider)
        assert dec == decompose(f)
        assert dec.reassemble() == f
    off = iterate_raise(NearlyHolomorphicForm.monomial(8, trunc, 0, 20) + eisenstein(8, trunc), 2)
    with pytest.raises(DecompositionError):
        decompose(off, provider)


def test_user_basis_with_pivots_past_the_dimension():
    # Cusp forms only at weight 12 (pivot q^1), and a weight-2 "basis" of
    # q^3 + q^7 and q^5 - q^3 (pivots q^3 and q^5).
    trunc = 20
    g_a = NearlyHolomorphicForm(2, trunc, {(0, 3): 1, (0, 7): 1})
    g_b = NearlyHolomorphicForm(2, trunc, {(0, 5): 1, (0, 3): -1})

    class Provider:
        @staticmethod
        def sturm_bound(w):
            return 8

        def __call__(self, w):
            if w == 2:
                return [g_a, g_b]
            if w == 12:
                return [delta_cusp(trunc) * 5]
            return level1_basis(w, trunc)

    seed = g_a * 2 + g_b * Fraction(-1, 3)
    delta = delta_cusp(trunc)
    f = iterate_raise(seed, 5) + delta * 7
    dec = decompose(f, Provider())
    assert dec.terms == ((0, delta * 7), (5, seed))
    assert dec.reassemble() == f
    for bad in (
        iterate_raise(NearlyHolomorphicForm.monomial(2, trunc, 0, 3), 5),
        eisenstein(12, trunc),
    ):
        with pytest.raises(DecompositionError) as err:
            decompose(bad, Provider())
        assert err.value.data["residual"] == bad


def reference_decompose(f, provider):
    """The peeling of decompose with each seed solved by solve_exact over the
    Fraction q-series of the basis: (terms, e2_term), or the residual of a
    DecompositionError."""
    if f.is_zero:
        return (), None
    k, trunc, rem = f.weight, f.truncation, f
    terms, e2_term = [], None
    while not rem.is_zero:
        p = rem.depth
        w = k - 2 * p
        top = rem.x_column(p)
        if w == 0 and p >= 1:
            if any(top.keys() - {0}):
                raise DecompositionError("reference", residual=rem)
            c = top.get(0, Fraction(0)) / (12 * leading_column_factor(1, p - 1))
            e2_term = (p - 1, c)
            rem = rem - iterate_raise(eisenstein2(trunc), p - 1) * c
            continue
        basis = [b.truncate(trunc) for b in provider(w)] if w >= 0 else []
        x = solve_exact([b.x_column(0) for b in basis], top)
        if x is None:
            raise DecompositionError("reference", residual=rem)
        factor = leading_column_factor(w, p)
        g = sum((b * (xi / factor) for xi, b in zip(x, basis)), NearlyHolomorphicForm.zero(trunc))
        rem = rem - iterate_raise(g, p)
        assert rem.is_zero or rem.depth < p
        terms.append((p, g))
    return tuple(sorted(terms, key=lambda t: t[0])), e2_term


def test_decompose_agrees_with_solve_exact_reference():
    # Decomposable forms, and the same forms with one stray coefficient,
    # under the level-1 basis and a dependent provider.
    trunc = 30
    rng = random.Random(2718)
    providers = [
        lambda w: level1_basis(w, trunc),
        lambda w: level1_basis(w, trunc) + [b * -2 for b in level1_basis(w, trunc)],
    ]
    verdicts = {"ok": 0, "refused": 0}
    for i in range(60):
        f = random_decomposable(rng, trunc)
        if i % 2:
            r, n = rng.randrange(f.depth + 2), rng.randrange(trunc + 1)
            c = rng.choice([1, -2, Fraction(1, 3)])
            f = f + NearlyHolomorphicForm.monomial(f.weight or 4, trunc, r, n, c)
        provider = providers[i % 4 // 2]
        try:
            want = reference_decompose(f, provider)
        except DecompositionError as exc:
            with pytest.raises(DecompositionError) as err:
                decompose(f, provider)
            assert err.value.data["residual"] == exc.data["residual"]
            verdicts["refused"] += 1
        else:
            dec = decompose(f, provider)
            assert (dec.terms, dec.e2_term) == want
            verdicts["ok"] += 1
    assert verdicts["ok"] >= 20 and verdicts["refused"] >= 10


def parent_decompose(f, basis_provider):
    """decompose as it was when each peel step re-reduced the supplied basis,
    raised the seed one step at a time and subtracted by adding the
    negation: the oracle of the supplied-basis path."""
    if f.is_zero:
        return Decomposition(None, f.truncation, (), None)
    sturm = getattr(basis_provider, "sturm_bound", Level1Basis.sturm_bound)
    k, trunc, rem = f.weight, f.truncation, f
    terms, e2_term = [], None
    while not rem.is_zero:
        p = rem.depth
        w = k - 2 * p
        top = rem._cols[p]
        if w == 0 and p >= 1:
            if any(top[1:]):
                raise DecompositionError(
                    "depth-top column of weight-0 type is not constant; "
                    "not decomposable over supplied basis",
                    residual=rem,
                )
            raised = stepwise_raise(eisenstein2(trunc), p - 1)
            c = Fraction(top[0] * raised._den, rem._den * raised._cols[p][0])
            e2_term = (p - 1, c)
            rem = rem + (-(raised * c))
            continue
        if trunc < sturm(max(w, 0)):
            raise InsufficientTruncationError(
                f"truncation {trunc} below the dimension-detecting bound "
                f"{sturm(max(w, 0))} for weight {w}"
            )
        basis = basis_provider(w) if w >= 0 else []
        if any(b.truncation < trunc for b in basis):
            raise InsufficientTruncationError(
                f"basis for weight {w} truncated below the input truncation {trunc}"
            )
        cols = [t._cols[0] for t in (b.truncate(trunc) for b in basis) if not t.is_zero]
        if any(reduce_by(reduced_echelon(cols, trunc + 1), top)):
            raise DecompositionError("not decomposable over supplied basis", residual=rem)
        g = top_seed(rem)
        new_rem = rem + (-stepwise_raise(g, p))
        if not new_rem.is_zero and new_rem.depth >= p:
            raise DecompositionError("not decomposable over supplied basis", residual=rem)
        terms.append((p, g))
        rem = new_rem
    terms.sort(key=lambda t: t[0])
    return Decomposition(k, trunc, tuple(terms), e2_term)


def decompose_outcome(function, f, provider):
    try:
        return function(f, provider)
    except NhmfError as exc:
        return type(exc), str(exc), exc.data


def test_a_supplied_basis_decomposes_as_before():
    # The shared basis at the form's own truncation is read as stored rows;
    # every other provider goes through the adapter that checks, truncates
    # and reduces its basis.  Both must answer as the parent did: the same
    # Decomposition, or the same error type, message and residual.
    rng = random.Random(4242)
    seen = set()
    for trunc in (1, 2, 12, 30):
        providers = [
            Level1Basis(trunc + 7),
            Level1Basis(max(trunc - 1, 0)),
            lambda w, t=trunc: level1_basis(w, t + 3)[::-1] + [NearlyHolomorphicForm.zero(t)],
        ]
        for i in range(40):
            f = random_decomposable(rng, trunc)
            k = f.weight or 4
            if i % 4 == 1:
                r, n = rng.randrange(f.depth + 2), rng.randrange(trunc + 1)
                f = f + NearlyHolomorphicForm.monomial(k, trunc, r, n, Fraction(1, 3))
            elif i % 4 == 2:
                f = f + NearlyHolomorphicForm.monomial(k, trunc, f.depth, 0, 5)
            elif i % 4 == 3:
                # A top column of weight-0 type that is not constant.
                f = f + NearlyHolomorphicForm.monomial(k, trunc, k // 2, trunc, 1)
            want = decompose_outcome(parent_decompose, f, shared_level1_basis(trunc))
            assert decompose_outcome(decompose, f, None) == want, f
            for provider in providers:
                want = decompose_outcome(parent_decompose, f, provider)
                assert decompose_outcome(decompose, f, provider) == want, (f, provider)
                seen.add(want[1].split(" ")[0] if isinstance(want, tuple) else "ok")
    # Decompositions, refusals off the span, the Sturm-type bound and a basis
    # truncated below the form ("basis for weight ...").
    assert seen == {"ok", "not", "depth-top", "truncation", "basis"}, seen


def seeded_holomorphic(rng, w, trunc):
    """A seeded rational combination of the weight-w level-1 basis, nonzero
    where the basis is."""
    g = NearlyHolomorphicForm.zero(trunc)
    while g.is_zero and level1_basis(w, trunc):
        for b in level1_basis(w, trunc):
            g = g + b * Fraction(rng.randrange(-9, 10), rng.choice([1, 2, 3, 7]))
    return g


def deep_form(rng, k, depths, e2, trunc):
    """sum of R^p(g_p) over the depths, g_p seeded of weight k - 2p, plus a
    seeded multiple of R^(k/2 - 1)(E2) when e2."""
    f = NearlyHolomorphicForm.zero(trunc)
    for p in depths:
        f = f + iterate_raise(seeded_holomorphic(rng, k - 2 * p, trunc), p)
    if e2:
        f = f + iterate_raise(eisenstein2(trunc), k // 2 - 1) * Fraction(rng.randrange(1, 9), rng.choice([1, 5]))
    return f


@pytest.mark.parametrize("trunc", [12, 30, 100])
def test_deep_and_mixed_forms_decompose_as_before(trunc):
    # Weight 28 with a seed at every depth 0..12 and the E2 term at depth
    # 14 = k/2, and at each depth d a refusal: an off-span monomial X^d q^N
    # in the column that is on top when the peel reaches depth d, and, at
    # weight 2d, a weight-0 top column with a q^n term, n >= 1.  Both the
    # shared basis and a supplied one must answer as the parent did: the
    # same Decomposition, or the same error type, message and residual.
    rng = random.Random(trunc)

    def supplied(w):
        return level1_basis(w, trunc)

    full = deep_form(rng, 28, range(13), True, trunc)
    # (form, depth of the residual it is refused with, or None)
    cases = [(full, None)]
    for d in range(13):
        cases.append((full + NearlyHolomorphicForm.monomial(28, trunc, d, trunc, Fraction(1, 3)), d))
        if d:
            # Seeds of weight 2d - 2p >= 4 below depth d, the E2 term at depth d.
            partial = deep_form(rng, 2 * d, range(d - 1), True, trunc)
            cases.append((partial + NearlyHolomorphicForm.monomial(2 * d, trunc, d, rng.randrange(1, trunc + 1)), d))
    verdicts = []
    for f, depth in cases:
        for provider in (None, supplied):
            want = decompose_outcome(parent_decompose, f, provider or shared_level1_basis(trunc))
            assert decompose_outcome(decompose, f, provider) == want, (trunc, f)
        if depth is None:
            verdicts.append(len(want.terms))
        else:
            verdicts.append(want[1].split(" ")[0])
            assert want[2]["residual"].depth == depth
    # The full form peels all 13 seeds and the E2 term; each injected
    # refusal is of the kind put in, at the depth it was put.
    assert verdicts == [13, "not"] + ["not", "depth-top"] * 12
    assert decompose(full).e2_term[0] == 13
    assert decompose(full).reassemble() == full


def test_deep_form_with_fractional_seeds_and_e2_reassembles_exactly():
    # The peel takes no gcd between steps; seeds with denominators 2, 3 and
    # 7 at every depth and the E2 term on top still come back exactly.
    trunc, k = 40, 36
    rng = random.Random(36)
    seeds = {p: seeded_holomorphic(rng, k - 2 * p, trunc) for p in range(17)}
    f = sum((iterate_raise(g, p) for p, g in seeds.items()), NearlyHolomorphicForm.zero(trunc))
    f = f + iterate_raise(eisenstein2(trunc), 17) * Fraction(-7, 15)
    dec = decompose(f)
    assert dec.terms == tuple(sorted(seeds.items()))
    assert dec.e2_term == (17, Fraction(-7, 15))
    assert dec.reassemble() == f


def test_a_refusal_after_several_steps_reports_the_canonical_remainder():
    # Seeds at depths 0..12 and an off-span monomial in column 4: the peel
    # takes the seeds at depths 12..5 and refuses at depth 4, with f less
    # those raised seeds as the residual, stored canonically although the
    # remainder is never reduced between steps.
    trunc, k = 30, 28
    rng = random.Random(28)
    seeds = {p: seeded_holomorphic(rng, k - 2 * p, trunc) for p in range(13)}
    f = sum((iterate_raise(g, p) for p, g in seeds.items()), NearlyHolomorphicForm.zero(trunc))
    f = f + NearlyHolomorphicForm.monomial(k, trunc, 4, trunc, Fraction(1, 3))
    with pytest.raises(DecompositionError) as err:
        decompose(f)
    residual = err.value.data["residual"]
    want = f
    for p in range(5, 13):
        want = want - iterate_raise(seeds[p], p)
    assert residual == want and residual.depth == 4
    assert residual._den > 1
    assert gcd(residual._den, *(x for col in residual._cols for x in col)) == 1


def test_the_span_test_of_a_supplied_basis_reduces_in_one_pass(monkeypatch):
    # A supplied basis of random integer q-series has reduced echelon rows
    # with pivot entries other than 1.  Every span test decompose makes on
    # it must give a positive multiple of the sequential elimination's
    # result, on decompositions and refusals alike.
    trunc = 12
    rng = random.Random(12)
    bases = {}

    def provider(w):
        if w not in bases:
            bases[w] = [
                NearlyHolomorphicForm(w, trunc, {(0, n): rng.randrange(-6, 7) for n in range(trunc + 1)})
                for _ in range(rng.randrange(1, 4))
            ]
        return bases[w]

    calls = []

    def checked(rows, v):
        out = reduce_by(rows, v)
        assert_positive_multiple(out, sequential_reduce_by(rows, v))
        calls.append(any(v[p] and r[p] > 1 for p, r in rows))
        return out

    monkeypatch.setattr(sys.modules["nhmf.decompose"], "reduce_by", checked)
    verdicts = {"ok": 0, "refused": 0}
    for k in (8, 12, 16, 20):
        for i in range(6):
            seeds = {}
            for p in range(k // 2 - 1):
                combination = NearlyHolomorphicForm.zero(trunc)
                for b in provider(k - 2 * p):
                    combination = combination + b * Fraction(rng.randrange(-5, 6), rng.choice([1, 2, 3]))
                if not combination.is_zero:
                    seeds[p] = combination
            f = sum((iterate_raise(g, p) for p, g in seeds.items()), NearlyHolomorphicForm.zero(trunc))
            if f.is_zero:
                continue
            if i % 2:
                f = f + NearlyHolomorphicForm.monomial(k, trunc, rng.randrange(f.depth + 1), trunc, 1)
                with pytest.raises(DecompositionError):
                    decompose(f, provider)
                verdicts["refused"] += 1
            else:
                dec = decompose(f, provider)
                assert dec.terms == tuple(sorted(seeds.items()))
                assert dec.reassemble() == f
                verdicts["ok"] += 1
    assert verdicts["ok"] >= 10 and verdicts["refused"] >= 10, verdicts
    assert sum(calls) >= 20, (sum(calls), len(calls))


def test_a_basis_provider_that_returns_no_list_of_forms_is_refused():
    # [1] escaped as a raw AttributeError and 5 as a raw TypeError.
    f = eisenstein(4, 6)
    for provider in (lambda w: [1], lambda w: 5, lambda w: None, lambda w: iter(level1_basis(w, 6))):
        with pytest.raises(DomainError, match="for weight 4 must be a") as err:
            decompose(f, provider)
        assert err.value.code == "out-of-domain"
    for provider in (lambda w: level1_basis(w, 6), lambda w: tuple(level1_basis(w, 6))):
        assert decompose(f, provider).terms == ((0, f),)


def test_raised_e2_is_built_once_per_depth():
    for trunc in (0, 5, 30):
        for m in range(6):
            first = raised_e2(trunc, m)
            assert first._key() == stepwise_raise(eisenstein2(trunc), m)._key()
            assert raised_e2(trunc, m) is first
            assert shared_level1_basis(trunc).raised_e2(m) is first


_FRESH_DECOMPOSE = """
import json, sys
from nhmf.decompose import decompose
from nhmf.series import NearlyHolomorphicForm
docs = json.load(sys.stdin)
print(json.dumps([decompose(NearlyHolomorphicForm.from_doc(d)).to_json() for d in docs]))
"""


def test_decompose_across_truncations_matches_fresh_processes():
    # Decomposing at trunc 30 and then at trunc 12 in one process gives what
    # a fresh process gives for each truncation alone.
    rng = random.Random(12)
    forms = [f for f in (random_decomposable(rng, 30) for _ in range(5)) if not f.is_zero]
    in_process = {}
    for trunc in (30, 12):
        in_process[trunc] = [decompose(f.truncate(trunc)).to_json() for f in forms]
    src = str(Path(nhmf.series.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    for trunc in (30, 12):
        docs = [f.truncate(trunc).to_doc() for f in forms]
        proc = subprocess.run(
            [sys.executable, "-c", _FRESH_DECOMPOSE],
            input=json.dumps(docs),
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
            check=True,
        )
        assert json.loads(proc.stdout) == in_process[trunc]
