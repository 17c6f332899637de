"""Generators: Eisenstein series, level-1 basis, theta series."""

import time
from fractions import Fraction
from math import comb

import pytest

from nhmf.arith import MAX_TRUNCATION, MAX_WEIGHT
from nhmf.errors import DomainError
from nhmf.generators import (
    BinaryForm,
    bernoulli,
    delta_cusp,
    eisenstein,
    eisenstein2,
    level1_basis,
    theta_series,
)
from nhmf.operators import raise_weight
from nhmf.series import NearlyHolomorphicForm

from conftest import (
    brute_divisor_sum,
    brute_theta_counts,
    divisor_power_sum,
    reference_delta_cusp,
    reference_level1_basis,
)


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
        for e in (0, 1, 3, 5, 7):
            assert divisor_power_sum(n, e) == brute_divisor_sum(n, e)
    assert divisor_power_sum(0, 3) == 0
    # Refused rather than answered inexactly (sigma_(-1)(3) = 4/3 as a float)
    # or with a raw ValueError from isqrt.
    for n, e in ((3, -1), (-5, 3), (4.0, 3), (4, 3.0), (True, 3), (4, True), (Fraction(4), 3)):
        with pytest.raises(DomainError) as info:
            divisor_power_sum(n, e)
        assert info.value.code == "out-of-domain"


@pytest.mark.parametrize("trunc", [0, 1, 2, 3, 16, 17, 121, 299, 300])
def test_sieved_eisenstein_columns_match_divisor_power_sum(trunc):
    # The Eisenstein columns come from divisor sums built by
    # multiplicativity; each coefficient must equal the trial-division
    # divisor_power_sum.
    for k in [*range(4, 25, 2), *((26, 100, 500) if trunc <= 121 else ())]:
        e = eisenstein(k, trunc)
        factor = Fraction(-2 * k) / bernoulli(k)
        assert e.truncation == trunc and e.coefficient(0, 0) == 1
        for n in range(1, trunc + 1):
            assert e.coefficient(0, n) == factor * divisor_power_sum(n, k - 1), (k, n)
    e2 = eisenstein2(trunc)
    assert e2.coefficient(0, 0) == -1 and e2.coefficient(1, 0) == 12
    for n in range(1, trunc + 1):
        assert e2.coefficient(0, n) == 24 * divisor_power_sum(n, 1), n
        assert e2.coefficient(1, n) == 0


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

    def test_matches_the_incremental_construction(self):
        # Every weight from -2 to 80 at small truncations, the truncations
        # of the qexp-kernel benchmark workload (QexpKernel.BASIS_N in
        # perfbench/workloads.py), and two larger weights.
        cases = [(k, n) for k in range(-2, 81) for n in (0, 1, 5, 30)]
        basis_n = {12: 192, 14: 192, 16: 152, 18: 153, 20: 123, 22: 127, 24: 116,
                   26: 109, 28: 108, 30: 108, 32: 108, 34: 108, 36: 108}
        cases += [*basis_n.items(), (48, 300), (100, 60)]
        for k, n in cases:
            assert level1_basis(k, n) == reference_level1_basis(k, n), (k, n)

    def test_weight24_at_truncation_2000_is_quick(self):
        # About 4 s with a schoolbook product, about 0.4 s with the
        # Kronecker-substitution one when every power of E4 and E6 was
        # built, about 0.2 s with one product at weight 24 per monomial,
        # and about 0.1 s with the two-point Kronecker substitution, two
        # half-size products per pair of columns (2-core x86, Python 3.11).
        start = time.perf_counter()
        basis = level1_basis(24, 2000)
        elapsed = time.perf_counter() - start
        assert len(basis) == 3 and basis[0].coefficient(0, 1) == 6 * 240
        assert elapsed < 2.0


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

    def test_a_skewed_form_has_the_theta_series_of_its_reduced_form(self):
        # x -> x - k*y carries a x^2 + b xy + c y^2 to
        # a x^2 + (b - 2ak) xy + (ak^2 - bk + c) y^2, and swapping x and y
        # exchanges a and c.  Equivalent forms represent each n equally often.
        for (a, b, c), k in (((1, 0, 1), 7), ((2, 1, 3), -5), ((1, 1, 1), 40)):
            skewed = BinaryForm(a, b - 2 * a * k, a * k * k - b * k + c)
            want = theta_series(BinaryForm(a, b, c), 30)
            assert theta_series(skewed, 30) == want
            swapped = BinaryForm(skewed.c, skewed.b, skewed.a)
            assert theta_series(swapped, 30) == want
            assert [want.coefficient(0, n) for n in range(31)] == brute_theta_counts(a, b, c, 30)

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


@pytest.mark.parametrize("truncation", [*range(41), 100, 201, 1000])
def test_delta_cusp_is_the_eisenstein_combination(truncation):
    # q J^8 from Jacobi's identity against (E4^3 - E6^2)/1728, every byte.
    assert delta_cusp(truncation) == reference_delta_cusp(truncation)


def test_ramanujan_tau_up_to_ten():
    tau = [1, -24, 252, -1472, 4830, -6048, -16744, 84480, -113643, -115920]
    d = delta_cusp(10)
    assert d.weight == 12 and d.truncation == 10
    assert [d.coefficient(0, n) for n in range(11)] == [0] + tau


def test_quasimodular_closure_under_raising():
    # Images of the basis and of the weight-two series stay in the span of
    # X^r * (monomials in the completed weight-two series, E4, E6); checked
    # by exact linear algebra.
    from nhmf.verify import check_quasimodular_closure

    assert check_quasimodular_closure() is True


@pytest.mark.parametrize(
    "call",
    [
        lambda: bernoulli(MAX_WEIGHT + 1),
        lambda: eisenstein(MAX_WEIGHT + 2, 2),
        lambda: level1_basis(MAX_WEIGHT + 2, 2),
        lambda: eisenstein(4, MAX_TRUNCATION + 1),
        lambda: eisenstein2(MAX_TRUNCATION + 1),
        lambda: level1_basis(12, MAX_TRUNCATION + 1),
        lambda: theta_series(BinaryForm(1, 0, 1), MAX_TRUNCATION + 1),
        lambda: delta_cusp(MAX_TRUNCATION + 1),
    ],
)
def test_past_the_size_bounds_is_out_of_domain(call):
    with pytest.raises(DomainError):
        call()


@pytest.mark.parametrize("truncation", [True, False])
def test_a_bool_is_no_truncation(truncation):
    # True is an int to isinstance, yet eisenstein(4, True).to_doc() wrote
    # "truncation": true, which from_doc refuses.
    calls = [
        lambda: eisenstein(4, truncation),
        lambda: eisenstein2(truncation),
        lambda: level1_basis(12, truncation),
        lambda: theta_series(BinaryForm(1, 0, 1), truncation),
        lambda: delta_cusp(truncation),
    ]
    for call in calls:
        with pytest.raises(DomainError, match="truncation must be an integer"):
            call()


@pytest.mark.parametrize("weight", [4.0, 12.0, Fraction(12), True, "4"])
def test_a_weight_that_is_no_int_is_out_of_domain(weight):
    # 4.0 and 12.0 raised a raw TypeError, Fraction(12) was accepted by
    # level1_basis and bernoulli(True) returned B_1.
    calls = [
        lambda: bernoulli(weight),
        lambda: eisenstein(weight, 10),
        lambda: level1_basis(weight, 10),
    ]
    for call in calls:
        with pytest.raises(DomainError) as info:
            call()
        assert info.value.code == "out-of-domain"


def test_at_the_size_bounds_generators_answer():
    assert eisenstein2(MAX_TRUNCATION).truncation == MAX_TRUNCATION
    assert eisenstein(4, MAX_TRUNCATION).coefficient(0, MAX_TRUNCATION) == 240 * divisor_power_sum(
        MAX_TRUNCATION, 3
    )
    assert eisenstein(MAX_WEIGHT, 1).coefficient(0, 0) == 1
    assert len(level1_basis(MAX_WEIGHT, 0)) == MAX_WEIGHT // 12 + 1
