"""Laurent engine: gamma data, zeta ratios, the archimedean factor, reports.

Exact leadings are cross-checked against high-precision numeric evaluation at
s0 + 1e-6 (relative error < 1e-4).
"""

import json
import math
import re
import sys
import time
from fractions import Fraction

import pytest

import nhmf.pi_scalar
from nhmf.arith import MAX_DEGREE, MAX_WEIGHT, digit_limit
from nhmf.errors import DomainError, InsufficientLaurentPrecisionError, PoleError
from nhmf.laurent import (
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
        assert (g.order, g.leading) == (0, PiScalar.pi_power(0))

    def test_factorials(self):
        assert gamma_at(5).leading == PiScalar.pi_power(0, 24)

    def test_pole_at_zero(self):
        g = gamma_at(0)
        assert g.order == -1 and g.leading == PiScalar.pi_power(0)

    def test_pole_residues(self):
        assert gamma_at(-1).leading == PiScalar.pi_power(0, -1)
        assert gamma_at(-3).leading == PiScalar.pi_power(0, Fraction(-1, 6))

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
        assert z.order == 1 and z.leading == PiScalar.pi_power(0, Fraction(-1, 2))
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
        germ = LaurentScalar(2, 1, PiScalar.pi_power(0, 5))
        assert zeta_ratio_at(2, ramified_L_data=germ) is germ
        with pytest.raises(DomainError):
            zeta_ratio_at(3, ramified_L_data=germ)  # wrong point

    def test_an_unknown_family_is_refused_with_supplied_data_too(self):
        # The supplied data was returned before the tag was read, so an
        # unknown tag was answered with data and refused without.
        germ = LaurentScalar(2, 0)
        for data in (None, germ):
            with pytest.raises(DomainError, match="unknown character family tag 'bogus'"):
                zeta_ratio_at(2, character="bogus", ramified_L_data=data)
        assert zeta_ratio_at(2, character="nontrivial", ramified_L_data=germ) is germ


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
        a = LaurentScalar(1, -1, PiScalar.pi_power(-2, 6))
        b = LaurentScalar(1, 1, PiScalar.pi_power(1, Fraction(-1, 2)))
        prod = a * b
        assert prod.order == 0
        assert prod.leading == PiScalar.pi_power(-1, -3)

    def test_numeric_multiplicativity(self, mp):
        germs = [
            archimedean_factor(1, 2, 1),
            zeta_ratio_at(1),
            LaurentScalar(1, 0, PiScalar.pi_power(0, Fraction(3, 7))),
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
        z = LaurentScalar(1, None)
        a = LaurentScalar(1, 2, PiScalar.pi_power(0))
        assert (z * a).is_zero and (a * z).is_zero

    def test_the_zero_germ_has_no_order(self):
        # Its order was the float +inf, and its reciprocal's PoleError carried
        # -inf, which JSON has no value for.
        z = LaurentScalar(1, None)
        assert z.order is None and z.to_json()["order"] is None and z.to_json()["zero"]
        for n in (1, 2, 7):
            assert z**n == z
        for refused in (z.invert, lambda: z**-1):
            with pytest.raises(PoleError) as err:
                refused()
            json.dumps(err.value.data, allow_nan=False)

    def test_mismatched_points_rejected(self):
        with pytest.raises(DomainError):
            LaurentScalar(1, 0, PiScalar.pi_power(0)) * LaurentScalar(
                2, 0, PiScalar.pi_power(0)
            )

    def test_addition_leading_model(self):
        a = LaurentScalar(0, 0, PiScalar.pi_power(0, 2))
        b = LaurentScalar(0, 1, PiScalar.pi_power(0, 5))
        assert (a + b) == a  # lower order wins
        c = LaurentScalar(0, 0, PiScalar.pi_power(0, -2))
        with pytest.raises(InsufficientLaurentPrecisionError):
            a + c  # cancellation needs subleading data

    def test_inexact_propagates(self):
        a = LaurentScalar(2, 0)
        b = LaurentScalar(2, 1, PiScalar.pi_power(0))
        prod = a * b
        assert prod.order == 1 and not prod.exact and prod.leading is None

    def test_zeroth_power_is_one(self):
        one = LaurentScalar(1, 0, PiScalar.pi_power(0))
        assert LaurentScalar(1, 2) ** 0 == one
        assert LaurentScalar(1, None) ** 0 == one
        assert LaurentScalar(1, -1, PiScalar.pi_power(0, 3)) ** 0 == one

    def test_a_leading_coefficient_is_nonzero_on_a_nonzero_germ(self):
        for make in (
            lambda: LaurentScalar(1, 0, PiScalar()),
            lambda: LaurentScalar(Fraction(1), None, PiScalar.pi_power(0)),
        ):
            with pytest.raises(DomainError):
                make()
        assert LaurentScalar(1, None).exact and not LaurentScalar(1, 2).exact

    def test_an_order_or_leading_coefficient_of_the_wrong_kind_is_refused(self):
        # Each was built: the order "x" or 1.5 was stored, or the leading "x"
        # let a raw AttributeError out.
        for order in ("x", 1.5, True, Fraction(1)):
            with pytest.raises(DomainError, match="the order of a germ must be an integer"):
                LaurentScalar(1, order)
        with pytest.raises(DomainError, match="must be a nonzero PiScalar"):
            LaurentScalar(1, 0, "x")


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
        local = [LaurentScalar(1, 1)]
        report = constant_term_report(2, 1, "trivial", local)
        assert report.verdict.kind == "PureSection"

    def test_nontrivial_family_at_weight_two(self):
        report = constant_term_report(2, 1, "nontrivial")
        assert report.verdict.kind == "PureSection"

    def test_pole_verdict_shape(self):
        # A caller-supplied double pole drives the total order negative.
        local = [
            LaurentScalar(1, -2, PiScalar.pi_power(0)),
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
        assert Verdict.of(LaurentScalar(1, None)) == Verdict("PureSection")

    def test_positive_order_is_pure_section(self):
        germ = LaurentScalar(1, 1, PiScalar.pi_power(0, Fraction(-1, 2)))
        assert Verdict.of(germ) == Verdict("PureSection")

    def test_exact_order_zero_carries_its_value(self):
        germ = LaurentScalar(1, 0, PiScalar.pi_power(-1, -3))
        verdict = Verdict.of(germ)
        assert verdict == Verdict("SectionPlusResidue", leading=germ.leading, exact=True)
        assert verdict.to_json() == {
            "kind": "SectionPlusResidue",
            "leading": "-3·π^-1",
            "exact": True,
        }

    def test_order_only_order_zero_has_no_value(self):
        verdict = Verdict.of(LaurentScalar(1, 0))
        assert verdict == Verdict("SectionPlusResidue", leading=None, exact=False)
        assert verdict.to_json() == {
            "kind": "SectionPlusResidue",
            "leading": None,
            "exact": False,
        }

    def test_order_only_local_datum_makes_an_inexact_pole(self):
        report = constant_term_report(2, 1, "trivial", [LaurentScalar(1, -1)])
        assert report.second_term == LaurentScalar(1, -1)
        assert report.verdict == Verdict.of(report.second_term)
        assert report.verdict == Verdict("Pole", order=-1, exact=False)
        assert report.verdict.to_json() == {"kind": "Pole", "order": -1}


# -- the step-by-step assembly, kept as the reference for the closed forms --


def reference_gamma_at(s0) -> LaurentScalar:
    """Gamma germs: (-1)^n / n! residues at poles, factorials at positive
    integers, rational multiples of sqrt(pi) at half-integers."""
    s0 = Fraction(s0)
    if s0.denominator == 1:
        n = int(s0)
        if n > 0:
            return LaurentScalar(s0, 0, PiScalar.pi_power(0, math.factorial(n - 1)))
        residue = Fraction((-1) ** (-n), math.factorial(-n))
        return LaurentScalar(s0, -1, PiScalar.pi_power(0, residue))
    n = int(s0 - Fraction(1, 2))  # s0 = n + 1/2
    if n >= 0:
        c = Fraction(math.factorial(2 * n), 4**n * math.factorial(n))
    else:
        m = -n
        c = Fraction((-4) ** m * math.factorial(m), math.factorial(2 * m))
    return LaurentScalar(s0, 0, PiScalar.pi_power(Fraction(1, 2), c))


def reference_archimedean_factor(s0, ell, d) -> LaurentScalar:
    """The bracket as a product of germs: Gamma(s), the slope-adjusted germs
    of Gamma(alpha) and Gamma(beta) inverted, a table entry for (-i)^ell and
    pi * 2^(1 - s0); then the d-th power of the germ."""
    s0 = Fraction(s0)
    half = Fraction(1, 2)

    def slope_adjust(g: LaurentScalar) -> LaurentScalar:
        # alpha(s) has slope 1/2 in s: the leading picks up (1/2)^order.
        return LaurentScalar(g.point, g.order, g.leading * PiScalar.pi_power(0, half**g.order))

    g_s = reference_gamma_at(s0)
    g_a = slope_adjust(reference_gamma_at((s0 + 1 + ell) / 2))
    g_b = slope_adjust(reference_gamma_at((s0 + 1 - ell) / 2))
    i_power = [
        PiScalar.pi_power(0, 1),
        PiScalar.pi_power(0, 0, -1),
        PiScalar.pi_power(0, -1),
        PiScalar.pi_power(0, 0, 1),
    ][ell % 4]
    const = PiScalar.pi_power(1, Fraction(2) ** (1 - int(s0))) * i_power
    order = g_s.order - g_a.order - g_b.order
    leading = const * g_s.leading * g_a.leading.invert() * g_b.leading.invert()
    return LaurentScalar(s0, order, leading) ** d


def reference_zeta_ratio_at(s0, d, character) -> LaurentScalar:
    """The zeta ratio branch by branch: family first, then degree."""
    n = int(s0)
    if character == "nontrivial":
        if n >= 1:
            return LaurentScalar(s0, 0)
        raise DomainError("nontrivial-family L-ratio below s = 1 requires caller data")
    if d == 1:
        if n == 1:
            return LaurentScalar(s0, -1, PiScalar.pi_power(-2, 6))
        if n >= 2:
            return LaurentScalar(s0, 0)
        if n == 0:
            return LaurentScalar(s0, 1, PiScalar.pi_power(0, Fraction(-1, 2)))
        raise DomainError(f"zeta ratio not certified at {s0}; supply ramified_L_data")
    if n == 1:
        return LaurentScalar(s0, -1)
    if n >= 2:
        return LaurentScalar(s0, 0)
    raise DomainError(f"degree-{d} zeta ratio not certified at {s0}; supply ramified_L_data")


def outcome(call, *args):
    """(order, leading, to_json()) of the germ, or the refusal's type and message."""
    try:
        germ = call(*args)
    except DomainError as exc:
        return type(exc), str(exc)
    return germ.order, germ.leading, germ.to_json()


class TestClosedFormsMatchTheAssembly:
    def test_gamma_at_every_half_integer(self):
        for n in range(-30, 31):
            x = Fraction(n, 2)
            assert outcome(gamma_at, x) == outcome(reference_gamma_at, x), x

    def test_archimedean_factor_over_the_grid(self):
        for s0 in range(-12, 13):
            for ell in range(-9, 13):
                for d in (1, 2, 3):
                    want = outcome(reference_archimedean_factor, s0, ell, d)
                    assert outcome(archimedean_factor, s0, ell, d) == want, (s0, ell, d)

    def test_archimedean_factor_at_the_bounds(self):
        for s0, ell in ((MAX_WEIGHT, MAX_WEIGHT), (-MAX_WEIGHT, MAX_WEIGHT), (1, -MAX_WEIGHT)):
            for d in (1, 3):
                want = outcome(reference_archimedean_factor, s0, ell, d)
                assert outcome(archimedean_factor, s0, ell, d) == want, (s0, ell, d)

    def test_zeta_ratio_with_every_refusal(self):
        refusals = set()
        for n in range(-3, 5):
            for d in (1, 2, 5):
                for character in ("trivial", "nontrivial"):
                    want = outcome(reference_zeta_ratio_at, Fraction(n), d, character)
                    assert outcome(zeta_ratio_at, n, d, character) == want, (n, d, character)
                    if want[0] is DomainError:
                        refusals.add(want[1].split(" ")[0])
        assert refusals == {"nontrivial-family", "zeta", "degree-2", "degree-5"}

    def test_a_report_builds_a_pi_scalar_only_when_the_zeta_ratio_is_exact(self, monkeypatch):
        # Past weight two, and for d > 1 or the nontrivial family, the zeta
        # ratio is order-only, so the product keeps no leading coefficient
        # and a report builds no PiScalar.  At k = 2, d = 1 with the trivial
        # character it builds three: the archimedean leading coefficient,
        # the zeta ratio's 6 pi^-2, and their product.
        built = []
        summed = nhmf.pi_scalar._summed
        monkeypatch.setattr(nhmf.pi_scalar, "_summed", lambda pairs: built.append(1) or summed(pairs))
        for k in (3, 4, 12, 41):
            for d in (1, 2, 7):
                built.clear()
                constant_term_report(k, d, "trivial")
                assert len(built) == 0, (k, d)
        for k, d, character in ((2, 2, "trivial"), (2, 1, "nontrivial"), (MAX_WEIGHT, MAX_DEGREE, "trivial")):
            built.clear()
            constant_term_report(k, d, character)
            assert len(built) == 0, (k, d, character)
        built.clear()
        report = constant_term_report(2, 1, "trivial")
        assert len(built) == 3
        assert report.second_term.leading == PiScalar.pi_power(-1, -3)

    @pytest.mark.parametrize("character", ["trivial", "nontrivial"])
    def test_a_report_is_the_product_of_its_factors(self, character):
        # The report computes only the archimedean order when the zeta ratio
        # is order-only; the product of the two germs is the reference.
        def product(k, d, local_data=()):
            germ = archimedean_factor(k - 1, k, d) * zeta_ratio_at(k - 1, d, character)
            for item in local_data:
                germ = germ * item
            return germ

        def report(k, d, local_data=()):
            return constant_term_report(k, d, character, local_data).second_term

        cases = [(k, d) for k in range(1, 61) for d in (1, 2, 3)] + [(MAX_WEIGHT, MAX_DEGREE)]
        for k, d in cases:
            assert outcome(report, k, d) == outcome(product, k, d), (k, d)
            for local_data in (
                [LaurentScalar(k - 1, 1)],
                [LaurentScalar(k - 1, -1, PiScalar.pi_power(0, Fraction(-2, 3)))],
                [LaurentScalar(k - 1, 2, PiScalar.pi_power(1)), LaurentScalar(k - 1, None)],
            ):
                want = outcome(product, k, d, local_data)
                assert outcome(report, k, d, local_data) == want, (k, d, local_data)


class TestLaurentBounds:
    @pytest.mark.parametrize(
        "call",
        [
            lambda: gamma_at(MAX_WEIGHT),
            lambda: gamma_at(-MAX_WEIGHT),
            lambda: archimedean_factor(MAX_WEIGHT, 0),
            lambda: archimedean_factor(-MAX_WEIGHT, 0),
            lambda: archimedean_factor(0, MAX_WEIGHT),
            lambda: archimedean_factor(0, -MAX_WEIGHT),
            # alpha = MAX_WEIGHT + 1/2 lies past the bound of gamma_at
            lambda: archimedean_factor(MAX_WEIGHT, MAX_WEIGHT),
        ],
    )
    def test_at_the_bound_the_call_answers(self, call):
        assert not call().is_zero

    @pytest.mark.parametrize(
        "call",
        [
            lambda: gamma_at(MAX_WEIGHT + Fraction(1, 2)),
            lambda: gamma_at(-MAX_WEIGHT - Fraction(1, 2)),
            lambda: archimedean_factor(MAX_WEIGHT + 1, 0),
            lambda: archimedean_factor(-MAX_WEIGHT - 1, 0),
            lambda: archimedean_factor(0, MAX_WEIGHT + 1),
            lambda: archimedean_factor(0, -MAX_WEIGHT - 1),
            lambda: archimedean_factor(0, 200000),
        ],
    )
    def test_past_the_bound_the_call_is_refused_quickly(self, call):
        start = time.perf_counter()
        with pytest.raises(DomainError) as err:
            call()
        assert time.perf_counter() - start < 0.1
        assert err.value.code == "out-of-domain"
        assert str(MAX_WEIGHT) in str(err.value)

    @pytest.mark.parametrize(
        "args", [(0, 2.0), (0, 2, 2.0), (0, Fraction(2)), (0, "2"), (3, True, 1), (3, 4, True)]
    )
    def test_a_weight_or_degree_that_is_not_an_int_is_refused(self, args):
        with pytest.raises(DomainError) as err:
            archimedean_factor(*args)
        assert err.value.code == "out-of-domain"
        assert "must be an integer" in str(err.value)


def longest_int(germ: LaurentScalar) -> int:
    """The longest int that the germ's JSON shows."""
    return int(max(re.findall(r"\d+", json.dumps(germ.to_json())), key=len))


@pytest.mark.skipif(not digit_limit(), reason="the interpreter has no digit limit")
class TestTheDigitLimitOfTheArchimedeanFactor:
    @pytest.mark.parametrize("args", [(1, 4, MAX_DEGREE), (3, 4, MAX_DEGREE), (-7, 2, 5000)])
    def test_a_leading_past_the_digit_limit_is_refused_where_it_is_shown(self, args):
        germ = archimedean_factor(*args)  # in bound: the germ is built and its order read
        assert germ.exact and germ.order % args[2] == 0
        for show in (germ.to_json, lambda: repr(germ), germ.leading.to_json):
            start = time.perf_counter()
            with pytest.raises(DomainError) as err:
                show()
            assert time.perf_counter() - start < 0.1
            assert err.value.code == "out-of-domain"
            assert f"more than {digit_limit()} digits" in str(err.value)

    @pytest.mark.parametrize("s0, ell", [(-500, -500), (250, -250), (100, 37), (20, 3)])
    def test_a_power_is_refused_exactly_when_it_cannot_be_shown(self, s0, ell):
        # Along d, around the first power whose leading has more than L
        # digits; the reference is the JSON of the same power, assembled
        # from the germs with no digit limit.
        limit = digit_limit()
        t = math.ceil(limit / math.log10(longest_int(archimedean_factor(s0, ell, 1))))
        seen = set()
        for d in range(max(1, t - 4), t + max(8, t // 10)):
            try:
                shown = longest_int(archimedean_factor(s0, ell, d))
            except DomainError:
                shown = None
            sys.set_int_max_str_digits(0)
            try:
                unbounded = longest_int(reference_archimedean_factor(s0, ell, d))
            finally:
                sys.set_int_max_str_digits(limit)
            assert (shown is None) == (unbounded >= 10**limit), d
            assert shown in (None, unbounded), d
            seen.add(shown is None)
        assert seen == {True, False}

    def test_with_no_digit_limit_nothing_is_refused(self):
        limit = digit_limit()
        sys.set_int_max_str_digits(0)
        try:
            assert longest_int(archimedean_factor(20, 3, 2000)) >= 10**limit
        finally:
            sys.set_int_max_str_digits(limit)
