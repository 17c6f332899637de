"""Laurent engine: gamma data, zeta ratios, the archimedean factor, reports.

Exact leadings are cross-checked against high-precision numeric evaluation at
s0 + 1e-6 (relative error < 1e-4).
"""

from fractions import Fraction

import pytest

from nhmf.errors import DomainError, InsufficientLaurentPrecisionError, PoleError
from nhmf.laurent import (
    INFINITE_ORDER,
    LaurentScalar,
    Verdict,
    archimedean_factor,
    constant_term_report,
    gamma_at,
    unramified_intertwining_constant,
    zeta_ratio_at,
)
from nhmf.pi_scalar import PiScalar

from conftest import assert_laurent_matches_numeric, pi_scalar_to_complex


class TestGamma:
    def test_at_one(self):
        g = gamma_at(1)
        assert (g.order, g.leading) == (0, PiScalar.one())

    def test_factorials(self):
        assert gamma_at(5).leading == PiScalar.rational(24)

    def test_pole_at_zero(self):
        g = gamma_at(0)
        assert g.order == -1 and g.leading == PiScalar.one()

    def test_pole_residues(self):
        assert gamma_at(-1).leading == PiScalar.rational(-1)
        assert gamma_at(-3).leading == PiScalar.rational(Fraction(-1, 6))

    def test_half(self):
        g = gamma_at(Fraction(1, 2))
        assert g.order == 0 and g.leading == PiScalar.pi_power(Fraction(1, 2))

    def test_positive_half_integers(self):
        # Gamma(n + 1/2) = (2n)! sqrt(pi) / (4^n n!)
        assert gamma_at(Fraction(5, 2)).leading == PiScalar.pi_power(
            Fraction(1, 2), Fraction(3, 4)
        )

    def test_negative_half_integers(self):
        assert gamma_at(Fraction(-3, 2)).leading == PiScalar.pi_power(
            Fraction(1, 2), Fraction(4, 3)
        )

    def test_numeric_cross_check(self, mp):
        for s0 in (1, 3, 0, -2, Fraction(1, 2), Fraction(-3, 2), Fraction(7, 2)):
            assert_laurent_matches_numeric(gamma_at(s0), mp.gamma)

    def test_out_of_domain(self):
        with pytest.raises(DomainError):
            gamma_at(Fraction(1, 3))


class TestZetaRatio:
    def test_pole_at_one(self):
        z = zeta_ratio_at(1)
        assert z.order == -1
        assert z.leading == PiScalar.pi_power(-2, 6)  # 1/zeta(2)

    def test_numeric_at_one(self, mp):
        assert_laurent_matches_numeric(
            zeta_ratio_at(1), lambda s: mp.zeta(s) / mp.zeta(s + 1)
        )

    def test_value_at_zero(self, mp):
        z = zeta_ratio_at(0)
        assert z.order == 1 and z.leading == PiScalar.rational(Fraction(-1, 2))
        assert_laurent_matches_numeric(z, lambda s: mp.zeta(s) / mp.zeta(s + 1))

    def test_odd_arguments_not_exact(self):
        for s0 in (2, 3, 5):
            z = zeta_ratio_at(s0)
            assert z.order == 0 and not z.exact and z.leading is None

    def test_higher_degree_orders_only(self):
        assert zeta_ratio_at(1, d=2).order == -1
        assert not zeta_ratio_at(1, d=2).exact
        assert zeta_ratio_at(3, d=3).order == 0

    def test_nontrivial_family(self):
        z = zeta_ratio_at(1, character="nontrivial")
        assert z.order == 0 and not z.exact
        with pytest.raises(DomainError):
            zeta_ratio_at(0, character="nontrivial")

    def test_caller_supplied_data_wins(self):
        germ = LaurentScalar.of(2, 1, PiScalar.rational(5))
        assert zeta_ratio_at(2, ramified_L_data=germ) is germ
        with pytest.raises(DomainError):
            zeta_ratio_at(3, ramified_L_data=germ)  # wrong point


class TestArchimedeanFactor:
    def test_weight_two_point(self, mp):
        # At s0 = 1, ell = 2: the beta gamma-factor pole forces a simple zero
        # with leading -pi/2.
        germ = archimedean_factor(1, 2, 1)
        assert germ.order == 1
        assert germ.leading == PiScalar.pi_power(1, Fraction(-1, 2))

        def func(s):
            alpha, beta = (s + 3) / 2, (s - 1) / 2
            return (
                mp.pi * (-1j) ** 2 * 2 ** (1 - s) * mp.gamma(s)
                / (mp.gamma(alpha) * mp.gamma(beta))
            )

        assert_laurent_matches_numeric(germ, func)

    def test_special_point_orders(self):
        # At s0 = k - 1 with section weight k the factor vanishes for k >= 2.
        for k in range(2, 11):
            assert archimedean_factor(k - 1, k, 1).order == 1
        for d in (2, 3):
            assert archimedean_factor(1, 2, d).order == d

    def test_self_dual_point_no_vanishing(self):
        germ = archimedean_factor(0, 1, 1)
        assert germ.order == 0
        assert germ.leading == PiScalar.pi_power(1, 0, -1)  # -i pi

    def test_numeric_cross_checks(self, mp):
        cases = [(1, 2, 1), (0, 1, 1), (3, 4, 1), (2, 3, 1), (1, 2, 2), (5, 6, 1)]
        for s0, ell, d in cases:

            def func(s, ell=ell, d=d):
                alpha, beta = (s + 1 + ell) / 2, (s + 1 - ell) / 2
                core = (
                    mp.pi * (-1j) ** ell * 2 ** (1 - s) * mp.gamma(s)
                    / (mp.gamma(alpha) * mp.gamma(beta))
                )
                return core**d

            assert_laurent_matches_numeric(archimedean_factor(s0, ell, d), func)

    def test_parity_grading(self):
        for ell in range(6):
            for s0 in (0, 1, 2, 3):
                try:
                    lead = archimedean_factor(s0, ell, 1).leading
                except DomainError:
                    continue
                assert lead.is_real if ell % 2 == 0 else lead.is_imaginary


class TestLaurentScalarAlgebra:
    def test_multiplicativity(self):
        a = LaurentScalar.of(1, -1, PiScalar.pi_power(-2, 6))
        b = LaurentScalar.of(1, 1, PiScalar.pi_power(1, Fraction(-1, 2)))
        prod = a * b
        assert prod.order == 0
        assert prod.leading == PiScalar.pi_power(-1, -3)

    def test_numeric_multiplicativity(self, mp):
        germs = [
            archimedean_factor(1, 2, 1),
            zeta_ratio_at(1),
            LaurentScalar.of(1, 0, PiScalar.rational(Fraction(3, 7))),
        ]
        prod = germs[0]
        for g in germs[1:]:
            prod = prod * g

        def func(s):
            alpha, beta = (s + 3) / 2, (s - 1) / 2
            xi = mp.pi * (-1j) ** 2 * 2 ** (1 - s) * mp.gamma(s) / (
                mp.gamma(alpha) * mp.gamma(beta)
            )
            return xi * mp.zeta(s) / mp.zeta(s + 1) * mp.mpf(3) / 7

        assert_laurent_matches_numeric(prod, func)

    def test_zero_absorbs(self):
        z = LaurentScalar.zero(1)
        a = LaurentScalar.of(1, 2, PiScalar.one())
        assert (z * a).is_zero and (a * z).is_zero

    def test_mismatched_points_rejected(self):
        with pytest.raises(DomainError):
            LaurentScalar.of(1, 0, PiScalar.one()) * LaurentScalar.of(
                2, 0, PiScalar.one()
            )

    def test_addition_leading_model(self):
        a = LaurentScalar.of(0, 0, PiScalar.rational(2))
        b = LaurentScalar.of(0, 1, PiScalar.rational(5))
        assert (a + b) == a  # lower order wins
        c = LaurentScalar.of(0, 0, PiScalar.rational(-2))
        with pytest.raises(InsufficientLaurentPrecisionError):
            a + c  # cancellation needs subleading data

    def test_inexact_propagates(self):
        a = LaurentScalar.order_only(2, 0)
        b = LaurentScalar.of(2, 1, PiScalar.one())
        prod = a * b
        assert prod.order == 1 and not prod.exact and prod.leading is None

    def test_zeroth_power_is_one(self):
        one = LaurentScalar.of(1, 0, PiScalar.one())
        assert LaurentScalar.order_only(1, 2) ** 0 == one
        assert LaurentScalar.zero(1) ** 0 == one
        assert LaurentScalar.of(1, -1, PiScalar.rational(3)) ** 0 == one

    def test_a_leading_coefficient_is_nonzero_on_a_nonzero_germ(self):
        for make in (
            lambda: LaurentScalar.of(1, 0, None),
            lambda: LaurentScalar.of(1, 0, PiScalar.zero()),
            lambda: LaurentScalar(Fraction(1), INFINITE_ORDER, PiScalar.one()),
        ):
            with pytest.raises(ValueError):
                make()
        assert LaurentScalar.zero(1).exact and not LaurentScalar.order_only(1, 2).exact


class TestIntertwiningConstant:
    def test_trivial_character(self):
        assert unramified_intertwining_constant(2, 1, 1) == Fraction(3, 2)

    def test_quadratic_character(self):
        assert unramified_intertwining_constant(3, -1, 0) == Fraction(2, 3)

    def test_pole(self):
        with pytest.raises(PoleError) as err:
            unramified_intertwining_constant(2, 1, 0)
        assert err.value.data["order"] == -1

    def test_string_tags(self):
        assert unramified_intertwining_constant(5, "-1", 1) == Fraction(
            1 + Fraction(1, 25), 1 + Fraction(1, 5)
        )

    def test_prime_power_validation(self):
        # q = 9:  (1 - 9^-2) / (1 - 9^-1) = 10/9.
        assert unramified_intertwining_constant(9, 1, 1) == Fraction(10, 9)
        with pytest.raises(DomainError):
            unramified_intertwining_constant(6, 1, 1)

    def test_irrational_power_rejected(self):
        with pytest.raises(DomainError):
            unramified_intertwining_constant(2, 1, Fraction(1, 2))
        # but q = p^2 admits half-integer points
        assert unramified_intertwining_constant(9, 1, Fraction(1, 2)) == Fraction(
            1 - Fraction(1, 27), 1 - Fraction(1, 3)
        )


class TestConstantTermReport:
    def test_weight_two_residue(self):
        report = constant_term_report(2, 1, "trivial")
        assert report.verdict.kind == "SectionPlusResidue"
        assert report.verdict.leading == PiScalar.pi_power(-1, -3)
        assert report.second_term.order == 0

    def test_weight_two_higher_degree_vanishes(self):
        for d in (2, 3, 5):
            report = constant_term_report(2, d, "trivial")
            assert report.verdict.kind == "PureSection"
            assert report.second_term.order == d - 1

    def test_higher_weights_vanish(self):
        for k in range(3, 11):
            for d in (1, 2, 3):
                assert constant_term_report(k, d, "trivial").verdict.kind == (
                    "PureSection"
                )

    def test_steinberg_local_datum_forces_vanishing(self):
        local = [LaurentScalar.order_only(1, 1)]
        report = constant_term_report(2, 1, "trivial", local)
        assert report.verdict.kind == "PureSection"

    def test_nontrivial_family_at_weight_two(self):
        report = constant_term_report(2, 1, "nontrivial")
        assert report.verdict.kind == "PureSection"

    def test_pole_verdict_shape(self):
        # A caller-supplied double pole drives the total order negative.
        local = [
            LaurentScalar.of(1, -2, PiScalar.one()),
        ]
        report = constant_term_report(2, 1, "trivial", local)
        assert report.verdict.kind == "Pole"
        assert report.verdict.order == -2

    def test_report_json(self):
        doc = constant_term_report(2, 1, "trivial").to_json()
        assert doc["verdict"] == {
            "kind": "SectionPlusResidue",
            "leading": "-3·π^-1",
            "exact": True,
        }
        assert doc["character"]["archimedean_parity"] == 1


class TestVerdictOf:
    def test_zero_germ_is_pure_section(self):
        assert Verdict.of(LaurentScalar.zero(1)) == Verdict("PureSection")

    def test_positive_order_is_pure_section(self):
        germ = LaurentScalar.of(1, 1, PiScalar.rational(Fraction(-1, 2)))
        assert Verdict.of(germ) == Verdict("PureSection")

    def test_exact_order_zero_carries_its_value(self):
        germ = LaurentScalar.of(1, 0, PiScalar.pi_power(-1, -3))
        verdict = Verdict.of(germ)
        assert verdict == Verdict("SectionPlusResidue", leading=germ.leading, exact=True)
        assert verdict.to_json() == {
            "kind": "SectionPlusResidue",
            "leading": "-3·π^-1",
            "exact": True,
        }

    def test_order_only_order_zero_has_no_value(self):
        verdict = Verdict.of(LaurentScalar.order_only(1, 0))
        assert verdict == Verdict("SectionPlusResidue", leading=None, exact=False)
        assert verdict.to_json() == {
            "kind": "SectionPlusResidue",
            "leading": None,
            "exact": False,
        }

    def test_order_only_local_datum_makes_an_inexact_pole(self):
        report = constant_term_report(2, 1, "trivial", [LaurentScalar.order_only(1, -1)])
        assert report.second_term == LaurentScalar.order_only(1, -1)
        assert report.verdict == Verdict.of(report.second_term)
        assert report.verdict == Verdict("Pole", order=-1, exact=False)
        assert report.verdict.to_json() == {"kind": "Pole", "order": -1}
