"""Exact series core: arithmetic, truncation semantics, file format."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nhmf.errors import FormFileError, WeightMismatchError
from nhmf.pi_scalar import PiScalar
from nhmf.series import NearlyHolomorphicForm
from nhmf.generators import eisenstein

from conftest import brute_divisor_sum


def form_of(weight, trunc, coeffs):
    return NearlyHolomorphicForm(weight, trunc, {k: Fraction(v) for k, v in coeffs.items()})


class TestAdd:
    def test_identity(self):
        f = form_of(2, 6, {(1, 0): 12, (0, 1): 24})
        assert f + NearlyHolomorphicForm.zero(6) == f

    def test_cancellation(self):
        f = form_of(2, 6, {(1, 0): 12, (0, 0): -1})
        one = form_of(2, 6, {(0, 0): 1})
        assert f + one == form_of(2, 6, {(1, 0): 12})

    def test_e4_plus_e4(self):
        e4 = eisenstein(4, 8)
        total = e4 + e4
        assert total.coefficient(0, 0) == 2
        # divisor-sum oracle: q-coefficient is 2 * 240 * sigma_3(1)
        assert total.coefficient(0, 1) == 2 * 240 * brute_divisor_sum(1, 3) == 480

    def test_weight_mismatch(self):
        with pytest.raises(WeightMismatchError):
            form_of(2, 4, {(0, 0): 1}) + form_of(4, 4, {(0, 0): 1})

    def test_zero_has_any_weight(self):
        z = NearlyHolomorphicForm.zero(9)
        for w in (0, 2, 7):
            f = form_of(w, 5, {(0, 1): 3})
            assert (f + z) == f.truncate(5)
            assert (z + f).weight == w


class TestMul:
    def test_identity(self):
        f = form_of(4, 6, {(2, 3): Fraction(5, 7)})
        one = form_of(0, 6, {(0, 0): 1})
        assert f * one == f

    def test_x_times_x(self):
        x = NearlyHolomorphicForm.monomial(2, 5, r=1)
        assert (x * x) == form_of(4, 5, {(2, 0): 1})

    def test_e4_squared_is_weight8_eisenstein(self):
        # convolution oracle to q^3 against 1 + 480 sum sigma_7(n) q^n
        e4 = eisenstein(4, 3)
        sq = e4 * e4
        assert sq.weight == 8
        assert sq.coefficient(0, 0) == 1
        for n in (1, 2, 3):
            assert sq.coefficient(0, n) == 480 * brute_divisor_sum(n, 7)

    def test_truncation_minimum(self):
        f = eisenstein(4, 10)
        g = eisenstein(6, 7)
        assert (f * g).truncation == 7
        assert (f + eisenstein(4, 7)).truncation == 7


class TestDepth:
    def test_holomorphic(self):
        assert eisenstein(4, 5).depth == 0

    def test_weight_two_series(self):
        from nhmf.generators import eisenstein2

        assert eisenstein2(5).depth == 1

    def test_monomial(self):
        assert NearlyHolomorphicForm.monomial(0, 5, r=2, n=3).depth == 2

    def test_zero(self):
        assert NearlyHolomorphicForm.zero(4).depth == 0


coeff_strategy = st.fractions(
    min_value=-10, max_value=10, max_denominator=6
).filter(lambda c: c != 0)


@st.composite
def forms(draw, weight=0, trunc=8):
    n_terms = draw(st.integers(0, 5))
    coeffs = {}
    for _ in range(n_terms):
        r = draw(st.integers(0, 3))
        n = draw(st.integers(0, trunc))
        coeffs[(r, n)] = draw(coeff_strategy)
    return NearlyHolomorphicForm(weight if coeffs else None, trunc, coeffs)


@settings(max_examples=60, deadline=None)
@given(forms(), forms(), forms())
def test_ring_axioms(f, g, h):
    assert (f + g) + h == f + (g + h)
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert f * g == g * f


def test_truncation_monotonicity():
    big, small = eisenstein(4, 50), eisenstein(4, 20)
    assert big.truncate(20) == small
    prod_big = eisenstein(4, 50) * eisenstein(6, 50)
    prod_small = eisenstein(4, 20) * eisenstein(6, 20)
    assert prod_big.truncate(20) == prod_small
    with pytest.raises(ValueError):
        small.truncate(30)  # never extrapolate


class TestPiScalar:
    def test_sqrt_pi_squares_to_pi(self):
        assert PiScalar.sqrt_pi() * PiScalar.sqrt_pi() == PiScalar.pi_power(1)

    def test_i_squared(self):
        i = PiScalar.imaginary_unit()
        assert i * i == PiScalar.rational(-1)

    def test_zero_is_empty(self):
        z = PiScalar.rational(3) - PiScalar.rational(3)
        assert z.is_zero and z == PiScalar.zero()

    def test_invert_monomial(self):
        x = PiScalar.pi_power(Fraction(3, 2), Fraction(-2, 5))
        assert x * x.invert() == PiScalar.one()
        with pytest.raises(ValueError):
            (PiScalar.one() + PiScalar.pi_power(1)).invert()

    def test_render(self):
        assert PiScalar.pi_power(-1, -3).render() == "-3·π^-1"
        assert PiScalar.pi_power(-2, 6).render() == "6·π^-2"
        assert PiScalar.sqrt_pi().render() == "π^1/2"

    def test_json_roundtrip(self):
        x = PiScalar({Fraction(1, 2): (Fraction(2, 3), Fraction(-1)), 0: 5})
        assert PiScalar.from_json(x.to_json()) == x

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(-4, 4),
                st.fractions(min_value=-5, max_value=5, max_denominator=4),
            ),
            max_size=4,
        ),
        st.lists(
            st.tuples(
                st.integers(-4, 4),
                st.fractions(min_value=-5, max_value=5, max_denominator=4),
            ),
            max_size=4,
        ),
    )
    def test_mul_commutative(self, xs, ys):
        a = PiScalar({Fraction(e, 2): c for e, c in xs if c})
        b = PiScalar({Fraction(e, 2): c for e, c in ys if c})
        assert a * b == b * a


class TestFormFile:
    def test_roundtrip_bit_exact(self):
        f = form_of(2, 6, {(1, 0): 12, (0, 0): -1, (0, 1): 24, (0, 5): Fraction(7, 3)})
        doc = f.to_doc()
        assert doc["terms"] == sorted(doc["terms"])  # lexicographic in (r, n)
        assert NearlyHolomorphicForm.from_doc(doc) == f
        assert NearlyHolomorphicForm.from_doc(doc).to_doc() == doc

    def test_rejects_zero_coefficient(self):
        with pytest.raises(FormFileError):
            NearlyHolomorphicForm.from_doc(
                {"weight": 2, "truncation": 3, "terms": [[0, 0, "0"]]}
            )

    def test_rejects_duplicates_and_overflow(self):
        with pytest.raises(FormFileError):
            NearlyHolomorphicForm.from_doc(
                {"weight": 2, "truncation": 3, "terms": [[0, 1, "1"], [0, 1, "2"]]}
            )
        with pytest.raises(FormFileError):
            NearlyHolomorphicForm.from_doc(
                {"weight": 2, "truncation": 3, "terms": [[0, 9, "1"]]}
            )

    def test_rejects_bad_rational(self):
        with pytest.raises(FormFileError):
            NearlyHolomorphicForm.from_doc(
                {"weight": 2, "truncation": 3, "terms": [[0, 0, "x"]]}
            )
