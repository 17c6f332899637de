"""Generators: Eisenstein series, level-1 basis, theta series."""

from fractions import Fraction
from math import comb

import pytest

from nhmf.errors import DomainError
from nhmf.generators import (
    BinaryForm,
    bernoulli,
    delta_cusp,
    divisor_power_sum,
    eisenstein,
    eisenstein2,
    level1_basis,
    theta_series,
)
from nhmf.operators import raise_weight
from nhmf.series import NearlyHolomorphicForm

from conftest import brute_divisor_sum, brute_theta_counts


def test_bernoulli_values():
    assert bernoulli(0) == 1
    assert bernoulli(1) == Fraction(-1, 2)
    assert bernoulli(4) == Fraction(-1, 30)
    assert bernoulli(6) == Fraction(1, 42)
    assert bernoulli(12) == Fraction(-691, 2730)

    # The plain recurrence over every index, B_m = -sum_{j<m} C(m+1, j) B_j / (m+1).
    reference = []
    for m in range(61):
        acc = sum((comb(m + 1, j) * reference[j] for j in range(m)), Fraction(0))
        reference.append(Fraction(1) if m == 0 else -acc / (m + 1))
    assert [bernoulli(m) for m in range(61)] == reference
    with pytest.raises(DomainError):
        bernoulli(-1)


def test_divisor_power_sum_against_brute_force():
    for n in range(1, 40):
        for e in (1, 3, 5, 7):
            assert divisor_power_sum(n, e) == brute_divisor_sum(n, e)


class TestEisenstein:
    def test_weight4(self):
        e4 = eisenstein(4, 4)
        assert [e4.coefficient(0, n) for n in range(5)] == [1, 240, 2160, 6720, 17520]
        assert e4.depth == 0 and e4.weight == 4

    def test_weight6(self):
        e6 = eisenstein(6, 2)
        assert e6.coefficient(0, 0) == 1
        assert e6.coefficient(0, 1) == -504
        assert e6.coefficient(0, 2) == -504 * brute_divisor_sum(2, 5)

    def test_constant_term_is_one(self):
        for k in (4, 6, 8, 10, 14):
            assert eisenstein(k, 2).coefficient(0, 0) == 1

    def test_rejects_bad_weight(self):
        for k in (2, 3, 5, 0, -4):
            with pytest.raises(DomainError):
                eisenstein(k, 3)


class TestEisenstein2:
    def test_coefficients(self):
        e2 = eisenstein2(5)
        assert e2.coefficient(1, 0) == 12  # the 3/(pi y) term: 3/pi * 4pi
        assert e2.coefficient(0, 0) == -1
        assert e2.coefficient(0, 1) == 24
        for n in range(1, 6):
            assert e2.coefficient(0, n) == 24 * brute_divisor_sum(n, 1)
        assert e2.weight == 2 and e2.depth == 1


class TestLevel1Basis:
    def test_weight12_has_two_elements(self):
        basis = level1_basis(12, 8)
        assert len(basis) == 2
        e4, e6 = eisenstein(4, 8), eisenstein(6, 8)
        assert basis[0] == e4 * e4 * e4
        assert basis[1] == e6 * e6

    def test_weight2_empty(self):
        assert level1_basis(2, 5) == []

    def test_weight0_is_unit(self):
        assert level1_basis(0, 5) == [NearlyHolomorphicForm.constant(1, 5)]

    def test_lengths_match_classical_dimension(self):
        # dim M_k(SL_2(Z)) = floor(k/12) + 1, minus 1 when k = 2 mod 12 (even k).
        for k in range(0, 40, 2):
            want = k // 12 + (0 if k % 12 == 2 else 1)
            assert len(level1_basis(k, 2)) == want
        for k in range(1, 30, 2):
            assert level1_basis(k, 2) == []


class TestTheta:
    def test_sum_of_two_squares(self):
        theta = theta_series(BinaryForm(1, 0, 1), 8)
        want = brute_theta_counts(1, 0, 1, 8)
        assert [theta.coefficient(0, n) for n in range(9)] == want
        assert want[:6] == [1, 4, 4, 0, 4, 8]

    def test_three_not_represented(self):
        assert theta_series(BinaryForm(1, 0, 1), 5).coefficient(0, 3) == 0

    def test_constant_term_one(self):
        for form in (BinaryForm(1, 0, 1), BinaryForm(1, 1, 1), BinaryForm(2, 1, 3)):
            assert theta_series(form, 6).coefficient(0, 0) == 1

    def test_weight_and_depth(self):
        theta = theta_series(BinaryForm(1, 1, 1), 6)
        assert theta.weight == 1 and theta.depth == 0
        assert [theta.coefficient(0, n) for n in range(7)] == brute_theta_counts(
            1, 1, 1, 6
        )

    def test_indefinite_rejected(self):
        with pytest.raises(DomainError):
            theta_series(BinaryForm(1, 0, -1), 5)
        with pytest.raises(DomainError):
            theta_series(BinaryForm(-1, 0, -1), 5)


def chi_minus4(d):
    return 0 if d % 2 == 0 else (1 if d % 4 == 1 else -1)


def test_siegel_weil_identity_norm_form():
    # Theta of x^2 + y^2 equals the weight-one Eisenstein series attached to
    # the discriminant character mod 4, coefficient by coefficient.
    n_max = 50
    theta = theta_series(BinaryForm(1, 0, 1), n_max)
    assert theta.coefficient(0, 0) == 1
    for n in range(1, n_max + 1):
        twisted = 4 * sum(chi_minus4(d) for d in range(1, n + 1) if n % d == 0)
        assert theta.coefficient(0, n) == twisted


def test_ramanujan_identity():
    trunc = 25
    p_star = -eisenstein2(trunc)
    lhs = raise_weight(p_star)
    rhs = (p_star * p_star - eisenstein(4, trunc)) * Fraction(1, 12)
    assert lhs == rhs


def test_delta_cusp_is_cuspidal():
    d = delta_cusp(6)
    assert d.coefficient(0, 0) == 0
    assert d.coefficient(0, 1) == 1
    assert d.coefficient(0, 2) == -24
    assert d.coefficient(0, 3) == 252


def test_quasimodular_closure_under_raising():
    # Images of the basis and of the weight-two series stay in the span of
    # X^r * (monomials in the completed weight-two series, E4, E6); checked
    # by exact linear algebra.
    from nhmf.verify import check_quasimodular_closure

    assert check_quasimodular_closure().passed
