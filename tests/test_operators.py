"""Raising/lowering/Casimir against the symbolic-differentiation oracle."""

import math
import random
import time
from fractions import Fraction

import pytest

from nhmf.errors import DomainError, NonEigenformError
from nhmf.generators import delta_cusp, eisenstein, eisenstein2, level1_basis
from nhmf.operators import (
    InfinitesimalCharacter,
    casimir,
    casimir_eigenvalue,
    delta_coefficients,
    infinitesimal_character,
    iterate_lower,
    iterate_raise,
    leading_column_factor,
    lower_analytic,
    lower_weight,
    raise_analytic,
    raise_weight,
    scalar_ratio,
)
from nhmf.pi_scalar import PiScalar
from nhmf.series import MAX_FILE_ENTRIES, NearlyHolomorphicForm

from conftest import composed_casimir, oracle_lower, oracle_raise
from test_category_o import seeded_module_forms


def suite(trunc=14):
    out = []
    for w in (0, 4, 6, 8, 12):
        for g in level1_basis(w, trunc):
            for r in range(3):
                out.append(iterate_raise(g, r))
    e2 = eisenstein2(trunc)
    out += [iterate_raise(e2, r) for r in range(3)]
    return [f for f in out if not f.is_zero]


def random_forms(count=15, trunc=10, seed=5):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        coeffs = {
            (rng.randrange(4), rng.randrange(trunc + 1)): Fraction(
                rng.randrange(-9, 10), rng.randrange(1, 5)
            )
            for _ in range(5)
        }
        f = NearlyHolomorphicForm(rng.choice([0, 1, 2, 3, 4]), trunc, coeffs)
        if not f.is_zero:
            out.append(f)
    return out


class TestRaise:
    def test_kills_weight_zero_constant(self):
        one = NearlyHolomorphicForm.constant(1, 5)
        assert raise_weight(one).is_zero

    def test_delta2_q(self):
        q = NearlyHolomorphicForm.monomial(2, 5, n=1)
        image = raise_weight(q)
        # oracle: R_2 = 2/y + 2i d/dz applied to e^{2 pi i z}, back in X-coordinates
        assert image == oracle_raise(q)
        assert image == NearlyHolomorphicForm(4, 5, {(0, 1): 1, (1, 1): -2})

    def test_weight_two_series_top_column(self):
        image = raise_weight(eisenstein2(6))
        assert image.x_column(2) == {0: Fraction(-12)}

    def test_matches_oracle_on_random_forms(self):
        for f in random_forms():
            assert raise_weight(f) == oracle_raise(f)

    def test_analytic_wrapper(self):
        f = eisenstein(4, 6)
        scaled = raise_analytic(f)
        assert scaled.scalar == PiScalar.pi_power(1, -4)
        assert scaled.form == raise_weight(f)


class TestLower:
    def test_holomorphic_kernel(self):
        assert lower_weight(eisenstein(4, 8)).is_zero

    def test_monomial(self):
        m = NearlyHolomorphicForm.monomial(6, 5, r=2, n=3)
        image = lower_weight(m)
        assert image == oracle_lower(m)
        assert image == NearlyHolomorphicForm(4, 5, {(1, 3): 2})

    def test_weight_two_series_residue(self):
        # Lowering the weight-two Eisenstein series gives the constant 12;
        # in analytic normalization that is exactly -3/pi.
        e2 = eisenstein2(10)
        low = lower_weight(e2)
        assert low == NearlyHolomorphicForm.constant(12, 10)
        scaled = lower_analytic(e2)
        value = scaled.scalar * PiScalar.rational(scaled.form.coefficient(0, 0))
        assert value == PiScalar.pi_power(-1, -3)

    def test_matches_oracle_on_random_forms(self):
        for f in random_forms(seed=6):
            assert lower_weight(f) == oracle_lower(f)


class TestSl2Structure:
    def test_commutation_is_minus_weight(self):
        for f in suite():
            k = f.weight
            got = lower_weight(raise_weight(f)) - raise_weight(lower_weight(f))
            assert got == f * Fraction(-k)

    def test_kernel_iff_depth_zero(self):
        for f in suite():
            assert lower_weight(f).is_zero == (f.depth == 0)

    def test_depth_bookkeeping(self):
        for f in suite():
            assert raise_weight(f).depth <= f.depth + 1
            if f.depth >= 1:
                assert lower_weight(f).depth == f.depth - 1

    def test_nilpotence(self):
        for f in suite():
            assert iterate_lower(f, f.depth + 1).is_zero

    def test_casimir_centrality(self):
        for f in suite() + random_forms(seed=7):
            assert casimir(raise_weight(f)) == raise_weight(casimir(f))
            assert casimir(lower_weight(f)) == lower_weight(casimir(f))


class TestCasimir:
    def test_holomorphic_eigenvalue(self):
        e4 = eisenstein(4, 8)
        assert casimir(e4) == e4 * 8  # 4^2 - 2*4

    def test_weight_two_series_is_null(self):
        assert casimir(eisenstein2(8)).is_zero

    def test_commutes_past_raising(self):
        f = raise_weight(eisenstein(4, 8))
        assert casimir(f) == f * 8

    def test_closed_form_matches_the_composition(self):
        # The one column pass against (k^2 - 2k) f + 4 delta Lambda f built
        # from four form operations: the zero form, negative weights and
        # depths 0 to 5, stored the same way.
        zero = NearlyHolomorphicForm.zero(6)
        assert casimir(zero) is zero and composed_casimir(zero).is_zero
        rng = random.Random(300)
        depths = set()
        for _ in range(300):
            trunc, depth = rng.randrange(0, 13), rng.randrange(6)
            coeffs = {
                (rng.randrange(depth + 1), rng.randrange(trunc + 1)): Fraction(
                    rng.randrange(-9, 10), rng.choice([1, 2, 3, 5, 12])
                )
                for _ in range(rng.randrange(1, 8))
            }
            coeffs[(depth, rng.randrange(trunc + 1))] = Fraction(rng.choice([-3, 1, 7]), rng.choice([1, 4]))
            f = NearlyHolomorphicForm(rng.randrange(-12, 25), trunc, coeffs)
            depths.add(f.depth)
            assert casimir(f)._key() == composed_casimir(f)._key(), f
        assert depths == set(range(6))
        for f in suite():
            assert casimir(f)._key() == composed_casimir(f)._key()


class TestInfinitesimalCharacter:
    def test_orbit_normalization(self):
        assert InfinitesimalCharacter.of(4) == InfinitesimalCharacter.of(-2)
        assert InfinitesimalCharacter.of(Fraction(1, 2)) == InfinitesimalCharacter.of(
            Fraction(3, 2)
        )
        assert InfinitesimalCharacter.of(4).lam == 4
        assert InfinitesimalCharacter.of(4).integral

    def test_holomorphic_weights(self):
        assert infinitesimal_character(eisenstein(4, 8)).lam == 4
        assert infinitesimal_character(delta_cusp(14)).lam == 12

    def test_weight_two_series(self):
        assert infinitesimal_character(eisenstein2(8)).lam == 2

    def test_raising_preserves_character(self):
        for f in suite():
            base = infinitesimal_character(f)
            image = raise_weight(f)
            if not image.is_zero:
                assert infinitesimal_character(image) == base

    def test_non_eigenform_carries_residual(self):
        mixed = iterate_raise(eisenstein(4, 10), 1) + eisenstein(6, 10)
        with pytest.raises(NonEigenformError) as err:
            infinitesimal_character(mixed)
        residual = err.value.data["residual"]
        assert not residual.is_zero

    def test_monomial_eigenvalue_formula(self):
        # X^r at weight k is an eigenvector with 1 + eigenvalue = (k - 1 - 2r)^2,
        # so the representative is 1 + |k - 1 - 2r|.
        for k, r in [(1, 1), (4, 1), (6, 2), (3, 0)]:
            f = NearlyHolomorphicForm(k, 4, {(r, 0): 1})
            assert casimir_eigenvalue(f) == (k - 1 - 2 * r) ** 2 - 1
            assert infinitesimal_character(f).lam == 1 + abs(k - 1 - 2 * r)


class NonRationalCharacter(Exception):
    """Stands in for the error the reference raised on an irrational root."""


def _rational_sqrt(c: Fraction) -> Fraction | None:
    if c < 0:
        return None
    rn = math.isqrt(c.numerator)
    rd = math.isqrt(c.denominator)
    if rn * rn == c.numerator and rd * rd == c.denominator:
        return Fraction(rn, rd)
    return None


def reference_casimir_eigenvalue(f: NearlyHolomorphicForm) -> Fraction:
    """casimir_eigenvalue as it was when it searched for the ratio of
    casimir(f) to f, kept as the oracle of the closed form w^2 - 2w."""
    if f.is_zero:
        raise NonEigenformError("zero form has no eigenvalue")
    cf = casimir(f)
    c = scalar_ratio(cf, f)
    if c is None:
        (r, n), lead = f.terms()[0]
        ratio = cf.coefficient(r, n) / lead if not cf.is_zero else Fraction(0)
        residual = cf - f * ratio
        raise NonEigenformError("form is not a Casimir eigenvector", residual=residual)
    return c


def reference_infinitesimal_character(f: NearlyHolomorphicForm) -> InfinitesimalCharacter:
    """infinitesimal_character as it was when it solved lam^2 - 2 lam = c."""
    c = reference_casimir_eigenvalue(f)
    root = _rational_sqrt(1 + c)
    if root is None:
        raise NonRationalCharacter(f"Casimir eigenvalue {c} has no rational character parameter")
    return InfinitesimalCharacter.of(1 + root)


def character_inputs():
    """The identify reference's forms, then the operator suite, random forms
    and each of them perturbed by one monomial of its weight."""
    yield from seeded_module_forms()
    rng = random.Random(17)
    for f in suite() + random_forms(count=40, seed=17):
        yield f
        r, n = rng.randint(0, f.depth + 1), rng.randint(0, f.truncation)
        c = Fraction(rng.randint(1, 9), rng.randint(1, 4))
        yield f + NearlyHolomorphicForm.monomial(f.weight, f.truncation, r=r, n=n, c=c)


def outcome(function, f):
    try:
        value = function(f)
    except (NonEigenformError, NonRationalCharacter) as exc:
        return type(exc), str(exc), getattr(exc, "data", None)
    return type(value), value


class TestCharacterReference:
    def test_matches_the_square_root_reference(self):
        seen = set()
        for f in character_inputs():
            for function, reference in (
                (casimir_eigenvalue, reference_casimir_eigenvalue),
                (infinitesimal_character, reference_infinitesimal_character),
            ):
                expected = outcome(reference, f)
                assert outcome(function, f) == expected, (f, function.__name__)
                seen.add(expected[1] if len(expected) == 3 else "value")
        assert seen == {
            "value",
            "zero form has no eigenvalue",
            "form is not a Casimir eigenvector",
        }, seen


def stepwise_raise(f: NearlyHolomorphicForm, ell: int) -> NearlyHolomorphicForm:
    """iterate_raise as it was when it applied raise_weight ell times, kept
    as the oracle of the closed form."""
    for _ in range(ell):
        f = raise_weight(f)
    return f


def raise_coefficients(k: int, r: int, ell: int) -> list[int]:
    """b_0, ..., b_ell for column r of a weight-k form, by the recurrence of
    ell single raisings that the closed form in iterate_raise solves."""
    b = [1] + [0] * ell
    for i in range(ell):
        for j in range(i + 1, 0, -1):
            b[j] += (r + j - 1 - (k + 2 * i)) * b[j - 1]
    return b


def seeded_raise_inputs():
    """One seeded form per weight -6..30, depth 0..3 and truncation 0..12,
    each with a nonzero top column and its other columns dense, sparse or
    zero."""
    rng = random.Random(41)
    for k in range(-6, 31):
        for depth in range(4):
            for trunc in range(13):
                coeffs = {(depth, rng.randint(0, trunc)): Fraction(rng.randint(1, 9), rng.randint(1, 5))}
                for r in range(depth):
                    for n in rng.sample(range(trunc + 1), rng.randint(0, trunc + 1)):
                        coeffs[(r, n)] = Fraction(rng.randint(-30, 30), rng.randint(1, 7))
                yield NearlyHolomorphicForm(k, trunc, coeffs)


class TestIterateRaiseReference:
    def test_matches_the_stepwise_reference(self):
        count = 0
        for f in seeded_raise_inputs():
            reference = f
            for ell in range(9):
                assert iterate_raise(f, ell)._key() == reference._key(), (f, ell)
                reference = raise_weight(reference)
                count += 1
        assert count == 37 * 4 * 13 * 9

    def test_zero_form_and_the_weight_two_orbit(self):
        for trunc in (0, 3, 12):
            zero = NearlyHolomorphicForm.zero(trunc)
            e2 = eisenstein2(trunc)
            for ell in range(9):
                assert iterate_raise(zero, ell)._key() == zero._key()
                assert iterate_raise(e2, ell)._key() == stepwise_raise(e2, ell)._key()
                for m in range(4):
                    orbit = stepwise_raise(e2, m)
                    assert iterate_raise(orbit, ell)._key() == stepwise_raise(orbit, ell)._key()

    def test_a_column_where_r_minus_one_is_the_weight(self):
        # raise_weight adds nothing from column r - 1 into column r when
        # r - 1 == k; the closed form must agree there.  Weight 1, depth 2:
        # column 2 has r - 1 == k, and weight 0, depth 1: column 1.
        for k, depth in ((1, 2), (0, 1), (2, 3)):
            f = NearlyHolomorphicForm(k, 5, {(r, n): r + n + 1 for r in range(depth + 1) for n in range(6)})
            for ell in range(9):
                assert iterate_raise(f, ell)._key() == stepwise_raise(f, ell)._key(), (k, depth, ell)
        # The X^l column of a raised weight-w seed is c(w, l) times the seed,
        # which vanishes once l > -w: weight 0 at l = 1, weight -1 at l = 2.
        assert iterate_raise(NearlyHolomorphicForm.monomial(0, 4, n=3), 1).x_column(1) == {}
        assert iterate_raise(NearlyHolomorphicForm.monomial(-1, 4, n=3), 2).x_column(2) == {}

    def test_coefficients_of_a_monomial_and_the_leading_factor(self):
        # delta^(l) (X^r q^n) = sum_j b_j n^(l-j) X^(r+j) q^n, and for a
        # holomorphic seed of weight w, b_l = c(w, l).
        for k in range(-6, 13):
            for r in range(3):
                for ell in range(7):
                    b = raise_coefficients(k, r, ell)
                    if r == 0:
                        assert b[ell] == leading_column_factor(k, ell), (k, ell)
                    for n in (0, 1, 4):
                        image = iterate_raise(NearlyHolomorphicForm(k, 4, {(r, n): 1}), ell)
                        want = {(r + j, n): b[j] * n ** (ell - j) for j in range(ell + 1)}
                        assert dict(image.terms()) == {key: c for key, c in want.items() if c}

    def test_the_shared_coefficients_solve_the_recurrence(self):
        # delta_coefficients states b_0..b_l once, for iterate_raise and for
        # the peel of decompose, which subtracts b_j theta^(l-j) g from column
        # j of the remainder; at r = 0, b_l = c(w, l) is what the popped top
        # column holds.
        for k in range(-6, 31):
            for ell in range(9):
                for r in range(4):
                    assert delta_coefficients(r - k, ell) == raise_coefficients(k, r, ell), (k, r, ell)
                assert delta_coefficients(-k, ell)[ell] == leading_column_factor(k, ell), (k, ell)

    def test_a_negative_count_is_refused(self):
        with pytest.raises(DomainError, match="iteration count must be an integer >= 0"):
            iterate_raise(eisenstein(4, 3), -1)

    @pytest.mark.parametrize("ell", [True, 2.0])
    def test_a_count_that_is_no_int_is_refused(self, ell):
        # True was read as 1, and 2.0 raised a raw TypeError.
        with pytest.raises(DomainError, match="iteration count must be an integer >= 0"):
            iterate_raise(eisenstein(4, 3), ell)

    def test_an_image_past_the_form_file_bound_is_refused_before_any_work(self):
        # E4 at N = 10^4 raised 200 times would store 201 * 10001 = 2,010,201
        # coefficients, twice MAX_FILE_ENTRIES, which were all built before.
        f = eisenstein(4, 10**4)
        t0 = time.perf_counter()
        with pytest.raises(DomainError) as info:
            iterate_raise(f, 200)
        assert time.perf_counter() - t0 < 0.1
        assert info.value.code == "out-of-domain"

    def test_an_image_at_the_form_file_bound_still_answers(self):
        # q at N = 9999: depth 0 + 99 + 1 columns of 10^4 entries each are
        # MAX_FILE_ENTRIES exactly, and one more raising is past it.
        f = NearlyHolomorphicForm(4, 9999, {(0, 1): 1})
        assert (f.depth + 99 + 1) * (f.truncation + 1) == MAX_FILE_ENTRIES
        image = iterate_raise(f, 99)
        assert (image.weight, image.depth, image.truncation) == (202, 99, 9999)
        assert image.coefficient(99, 1) == leading_column_factor(4, 99)
        with pytest.raises(DomainError):
            iterate_raise(f, 100)


def seeded_operator_inputs():
    """The zero form, then one seeded form per weight -6..30 and depth 0..4,
    at a truncation in 0..8, each with a nonzero top column and its other
    columns dense, sparse or zero."""
    rng = random.Random(43)
    yield NearlyHolomorphicForm.zero(5)
    for k in range(-6, 31):
        for depth in range(5):
            trunc = rng.randint(0, 8)
            coeffs = {(depth, rng.randint(0, trunc)): Fraction(rng.randint(1, 9), rng.randint(1, 5))}
            for r in range(depth):
                for n in rng.sample(range(trunc + 1), rng.randint(0, trunc + 1)):
                    coeffs[(r, n)] = Fraction(rng.randint(-30, 30), rng.randint(1, 7))
            yield NearlyHolomorphicForm(k, trunc, coeffs)


class TestIterateLowerReference:
    def test_matches_the_analytic_oracle_applied_ell_times(self):
        # Lambda^(l) by its closed form against l applications of L_k,
        # differentiated term by term; l runs past the depth, where the
        # image is the zero form.
        count = 0
        for f in seeded_operator_inputs():
            reference = f
            for ell in range(7):
                got = iterate_lower(f, ell)
                assert got._key() == reference._key(), (f, ell)
                assert got.is_zero == (f.is_zero or ell > f.depth)
                reference = oracle_lower(reference)
                count += 1
        assert count == (1 + 37 * 5) * 7

    def test_raise_weight_matches_the_analytic_oracle(self):
        # raise_weight is the l = 1 case of the closed form of iterate_raise.
        for f in seeded_operator_inputs():
            assert raise_weight(f)._key() == oracle_raise(f)._key(), f

    def test_lowering_undoes_raising_up_to_the_leading_factor(self):
        # Lambda^m delta^(m) g = m! c(w, m) g for holomorphic g of weight w:
        # m lowerings keep only the top column X^m of delta^(m) g, which is
        # c(w, m) g, and multiply it by m!.
        count = 0
        for w in range(0, 25, 2):
            for g in level1_basis(w, 10):
                for m in range(7):
                    want = g * (math.factorial(m) * leading_column_factor(w, m))
                    assert iterate_lower(iterate_raise(g, m), m)._key() == want._key(), (w, m)
                    count += 1
        assert count == 7 * sum(len(level1_basis(w, 0)) for w in range(0, 25, 2))

    def test_a_negative_count_is_refused(self):
        with pytest.raises(DomainError, match="iteration count must be an integer >= 0"):
            iterate_lower(eisenstein(4, 3), -1)

    def test_a_count_that_is_no_int_is_refused(self):
        # 1.0 raised a raw TypeError.
        with pytest.raises(DomainError, match="iteration count must be an integer >= 0"):
            iterate_lower(eisenstein2(3), 1.0)
