"""Raising/lowering/Casimir against the symbolic-differentiation oracle."""

import math
import random
from fractions import Fraction

import pytest

from nhmf.errors import NonEigenformError
from nhmf.generators import delta_cusp, eisenstein, eisenstein2, level1_basis
from nhmf.operators import (
    InfinitesimalCharacter,
    casimir,
    casimir_eigenvalue,
    infinitesimal_character,
    iterate_lower,
    iterate_raise,
    lower_analytic,
    lower_weight,
    raise_analytic,
    raise_weight,
    scalar_ratio,
)
from nhmf.pi_scalar import PiScalar
from nhmf.series import NearlyHolomorphicForm

from conftest import oracle_lower, oracle_raise
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
