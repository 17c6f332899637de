"""Acceptance suite: one test per criterion, each printing a pass/fail line
and holding to its stated tolerance (exact equality throughout) and runtime.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from nhmf.category_o import ModuleClass, catalog, classify_block, identify_module
from nhmf.decompose import decompose
from nhmf.generators import (
    BinaryForm,
    eisenstein2,
    level1_basis,
    theta_series,
)
from nhmf.laurent import constant_term_report
from nhmf.operators import (
    casimir,
    infinitesimal_character,
    iterate_lower,
    iterate_raise,
    lower_analytic,
    lower_weight,
    raise_weight,
)
from nhmf.pi_scalar import PiScalar
from nhmf.quadratic import (
    CharacterDescriptor,
    Place,
    QuadSpace2D,
    check_coherence,
    collection_of,
    hilbert_symbol,
    is_local_square,
    local_invariants,
    reducibility,
    relevant_places,
    unramified_eigenvalue,
)
from nhmf.series import NearlyHolomorphicForm
from nhmf.verify import random_decomposable, solvability_oracle


@contextmanager
def criterion(number, label, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d} [{label}]: FAIL")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_seconds, f"criterion {number}: {elapsed:.2f}s over budget"
    print(f"criterion {number:2d} [{label}]: PASS ({elapsed:.2f}s < {budget_seconds}s)")


def test_criterion_01_weight_two_lowering_constant():
    with criterion(1, "weight-two lowering constant", 1.0):
        e2 = eisenstein2(20)
        lowered = lower_weight(e2)
        assert lowered == NearlyHolomorphicForm.constant(12, 20)

        # Analytic normalization: L_2 E_2 = -3/pi, as an exact PiScalar.
        scaled = lower_analytic(e2)
        route_one = scaled.scalar * PiScalar.pi_power(0, scaled.form.coefficient(0, 0))

        # Independent route: the residue in the Eisenstein constant term.
        report = constant_term_report(2, 1, "trivial")
        assert report.verdict.kind == "SectionPlusResidue"
        route_two = report.verdict.leading

        minus_three_over_pi = PiScalar.pi_power(-1, -3)
        assert route_one == minus_three_over_pi
        assert route_two == minus_three_over_pi
        assert route_one == route_two


def test_criterion_02_vanishing_orders():
    with criterion(2, "constant-term vanishing orders", 1.0):
        for k in range(3, 11):
            for d in (1, 2, 3):
                report = constant_term_report(k, d, "trivial")
                assert report.verdict.kind == "PureSection", (k, d)
        for d in (2, 3, 4, 5):
            assert constant_term_report(2, d, "trivial").verdict.kind == "PureSection"


def test_criterion_03_structure_roundtrip():
    with criterion(3, "structure decomposition round-trip x200", 30.0):
        rng = random.Random(20240926)
        done = 0
        while done < 200:
            f = random_decomposable(rng, 30)
            if f.is_zero:
                continue
            done += 1
            assert decompose(f).reassemble() == f
        dec = decompose(eisenstein2(30))
        assert dec.terms == () and dec.e2_term == (0, Fraction(1))


def test_criterion_04_sl2_suite():
    with criterion(4, "sl2 operator suite", 10.0):
        trunc = 16
        suite = []
        for w in (0, 4, 6, 8, 10, 12):
            for g in level1_basis(w, trunc):
                for r in range(4):
                    suite.append(iterate_raise(g, r))
        e2 = eisenstein2(trunc)
        suite += [iterate_raise(e2, r) for r in range(4)]
        suite = [f for f in suite if not f.is_zero]

        for f in suite:
            k = f.weight
            # commutation [lower, raise] = -weight
            got = lower_weight(raise_weight(f)) - raise_weight(lower_weight(f))
            assert got == f * Fraction(-k)
            # Casimir centrality
            assert casimir(raise_weight(f)) == raise_weight(casimir(f))
            assert casimir(lower_weight(f)) == lower_weight(casimir(f))
            # kernel of lowering = holomorphic
            assert lower_weight(f).is_zero == (f.depth == 0)
            # nilpotence
            assert iterate_lower(f, f.depth + 1).is_zero

        # character invariance under iterated raising
        for w in (4, 6, 8, 12):
            for g in level1_basis(w, trunc):
                base = infinitesimal_character(g)
                for r in (1, 2, 3):
                    assert infinitesimal_character(iterate_raise(g, r)) == base
        base = infinitesimal_character(e2)
        for r in (1, 2, 3):
            assert infinitesimal_character(iterate_raise(e2, r)) == base


def test_criterion_05_siegel_weil_desk_scale():
    with criterion(5, "theta = twisted Eisenstein to q^50", 1.0):
        theta = theta_series(BinaryForm(1, 0, 1), 50)

        def chi(dv):
            return 0 if dv % 2 == 0 else (1 if dv % 4 == 1 else -1)

        assert theta.coefficient(0, 0) == 1
        for n in range(1, 51):
            want = 4 * sum(chi(dv) for dv in range(1, n + 1) if n % dv == 0)
            assert theta.coefficient(0, n) == want


def test_criterion_06_hilbert_reciprocity_and_oracle():
    with criterion(6, "Hilbert reciprocity + solvability oracle", 20.0):
        rng = random.Random(424242)
        for _ in range(200):
            a = Fraction(
                rng.randrange(1, 10**4) * rng.choice([1, -1]), rng.randrange(1, 10**4)
            )
            b = Fraction(
                rng.randrange(1, 10**4) * rng.choice([1, -1]), rng.randrange(1, 10**4)
            )
            product = 1
            for v in relevant_places(a, b):
                product *= hilbert_symbol(a, b, v)
            assert product == 1, (a, b)

        from nhmf.quadratic import is_local_square, padic_valuation, unit_part

        cache = {}

        def oracle_check(a, b, p):
            ra = unit_part(a, p) * p ** (padic_valuation(a, p) % 2)
            rb = unit_part(b, p) * p ** (padic_valuation(b, p) % 2)
            key = (min(ra, rb), max(ra, rb), p)  # oracle is symmetric
            if key not in cache:
                cache[key] = solvability_oracle(key[0], key[1], p)
            assert cache[key] == hilbert_symbol(a, b, Place.finite(p)), (a, b, p)

        # Exhaustive over square-class representative pairs: every value of
        # the symbol is a function of the two square classes, and every class
        # appears below.
        for p in (3, 5, 7):
            nonres = next(
                u for u in range(2, p) if not is_local_square(u, Place.finite(p))
            )
            reps = [1, nonres, p, nonres * p]
            for a in reps:
                for b in reps:
                    oracle_check(Fraction(a), Fraction(b), p)
        for a in (1, -1, 2, -2, 5, -5, 10, -10):
            for b in (1, -1, 2, -2, 5, -5, 10, -10):
                oracle_check(Fraction(a), Fraction(b), 2)

        # Plus raw small rational pairs, |num|, |den| <= 30.
        for p in (2, 3, 5, 7):
            for _ in range(50):
                a = Fraction(
                    rng.randrange(1, 31) * rng.choice([1, -1]), rng.randrange(1, 31)
                )
                b = Fraction(
                    rng.randrange(1, 31) * rng.choice([1, -1]), rng.randrange(1, 31)
                )
                oracle_check(a, b, p)


def test_criterion_07_coherence():
    with criterion(7, "coherence detection with witnesses", 5.0):
        rng = random.Random(31337)
        flips_checked = 0
        for _ in range(12):
            space = QuadSpace2D(
                Fraction(rng.randrange(1, 15) * rng.choice([1, -1]), rng.randrange(1, 6)),
                Fraction(rng.randrange(1, 15) * rng.choice([1, -1]), rng.randrange(1, 6)),
            )
            coll = collection_of(space)
            result = check_coherence(coll)
            assert result.coherent and result.witness is not None
            witness = result.witness
            for v in relevant_places(
                space.a1, space.a2, witness.a1, witness.a2, space.discriminant
            ):
                inv_a = local_invariants(space, v)
                inv_b = local_invariants(witness, v)
                assert (inv_a.chi_nontrivial, inv_a.epsilon) == (
                    inv_b.chi_nontrivial,
                    inv_b.epsilon,
                )
            for place in [pl for pl, _ in coll.epsilons]:
                if is_local_square(coll.discriminant, place):
                    continue
                assert not check_coherence(coll.flip(place)).coherent
                flips_checked += 1
        assert flips_checked > 0


def test_criterion_08_reducibility_table():
    with criterion(8, "reducibility on a 60+ case grid", 1.0):
        trivial_mu = CharacterDescriptor(order=1, unramified=True)
        unr_quad = CharacterDescriptor(order=2, unramified=True)
        ram_quad = CharacterDescriptor(order=2, unramified=False)
        other = CharacterDescriptor(order="other", unramified=False)

        def is_int(x):
            return Fraction(x).denominator == 1

        # Independent restatement of the classification.
        def expected_finite(mu, sre, sim):
            sre, sim = Fraction(sre), Fraction(sim)
            if mu is trivial_mu:
                return (sre == 0 and is_int(sim) and int(sim) % 2 == 1) or (
                    abs(sre) == 1 and is_int(sim) and int(sim) % 2 == 0
                )
            if mu is unr_quad:
                return (sre == 0 and is_int(sim) and int(sim) % 2 == 0) or (
                    abs(sre) == 1 and is_int(sim) and int(sim) % 2 == 1
                )
            if mu is ram_quad:
                return sre == 0 and is_int(sim)
            return False

        points = [
            (0, 0), (1, 0), (-1, 0), (2, 0), (0, 1), (0, 2), (1, 1), (1, 2),
            (0, Fraction(1, 2)), (Fraction(1, 2), 0),
        ]
        cases = 0
        for q in (3, 4):
            for mu in (trivial_mu, unr_quad, ram_quad, other):
                for sre, sim in points:
                    got = reducibility(q, mu, sre, sim).reducible
                    assert got == expected_finite(mu, sre, sim), (q, mu, sre, sim)
                    cases += 1

        # The same verdicts through the CLI surface.
        from nhmf.cli import run

        order_flag = {trivial_mu: "1", unr_quad: "2", ram_quad: "2", other: "other"}
        for mu in (trivial_mu, unr_quad, ram_quad, other):
            for sre, sim in points[:5]:
                argv = [
                    "local", "reducible", "--q", "3",
                    "--mu-order", order_flag[mu],
                    "--s-re", str(sre), "--s-im", str(sim),
                ]
                if not mu.unramified:
                    argv.append("--ramified")
                result = run(argv)
                assert result.ok
                assert result.payload["reducible"] == expected_finite(mu, sre, sim)

        def expected_real(sign, sre, sim):
            if sim != 0 or Fraction(sre).denominator != 1:
                return False
            n = int(sre)
            if sign == 1:
                return n >= 0 and n % 2 == 0
            return n >= -1 and n % 2 == 1

        for sign in (0, 1):
            mu = CharacterDescriptor(real_sign=sign)
            for sre, sim in [(-1, 0), (0, 0), (1, 0), (2, 0), (3, 0), (0, 1),
                             (Fraction(1, 2), 0)]:
                got = reducibility("real", mu, sre, sim).pfinite
                assert got == expected_real(sign, sre, sim), (sign, sre, sim)
                cases += 1
        assert cases >= 60
        # Eigenvalue split sanity on the quadratic points.
        assert unramified_eigenvalue(3, True, 1) == Fraction(3, 2)
        assert unramified_eigenvalue(3, True, -1) == Fraction(-3, 2)


def test_criterion_09_module_identification():
    with criterion(9, "module identification", 5.0):
        trunc = 12
        assert identify_module(NearlyHolomorphicForm.constant(1, trunc)) == ModuleClass("trivial")
        assert identify_module(NearlyHolomorphicForm.constant(-7, trunc)) == ModuleClass("trivial")
        for w in (4, 6, 8, 10, 12):
            for g in level1_basis(w, trunc):
                assert identify_module(g) == ModuleClass("simple", w)
        e2 = eisenstein2(trunc)
        got = identify_module(e2)
        assert got == ModuleClass("dual_verma", 0)
        # Consistency with the block class list: the dual Verma at 0 is one of
        # the five indecomposables of the integral block through 2, and its
        # composition factors realize the extension of L(2) by the constants.
        block = classify_block(2)
        assert got in block.classes
        from nhmf.category_o import composition_factors

        assert set(composition_factors(got)) == {ModuleClass("trivial"), ModuleClass("simple", 2)}


GOLDEN_CATALOGS = {
    (1, 1): {
        "d": 1, "k": 1,
        "summands": [
            {
                "finite_part": {
                    "kind": "induced_family",
                    "family": {
                        "archimedean_parity": -1,
                        "constraints": ["non-quadratic", "associate-classes"],
                    },
                    "s": 0,
                },
                "archimedean": {"kind": "simple", "lambda": [1]},
            },
            {
                "finite_part": {
                    "kind": "space_enumeration",
                    "signature": [2, 0],
                    "hook": "enumerate_definite_spaces",
                },
                "archimedean": {"kind": "simple", "lambda": [1]},
            },
        ],
        "pi_extension": None,
        "space_enumeration": {"signature": [2, 0], "hook": "enumerate_definite_spaces"},
        "contains_trivial": False,
        "quotient_nearly_by_holomorphic": {"kind": "trivial_tensor_simple", "lambda": [2]},
    },
    (1, 2): {
        "d": 1, "k": 2,
        "summands": [
            {
                "finite_part": {
                    "kind": "induced_family",
                    "family": {"archimedean_parity": 1, "constraints": ["nontrivial"]},
                    "s": 1,
                },
                "archimedean": {"kind": "simple", "lambda": [2]},
            },
            {
                "finite_part": {
                    "kind": "extension",
                    "exact_sequence": {
                        "sub": {"kind": "trivial"},
                        "middle": "module generated by the weight-two Eisenstein series",
                        "quotient": {
                            "finite_part": {
                                "kind": "induced_family",
                                "family": {
                                    "archimedean_parity": 1,
                                    "constraints": ["trivial-only"],
                                },
                                "s": 1,
                            },
                            "archimedean": {"kind": "simple", "lambda": [2]},
                        },
                    },
                },
                "archimedean": {"kind": "dual_verma", "lambda": [0]},
            },
        ],
        "pi_extension": {
            "sub": {"kind": "trivial"},
            "middle": "module generated by the weight-two Eisenstein series",
            "quotient": {
                "finite_part": {
                    "kind": "induced_family",
                    "family": {"archimedean_parity": 1, "constraints": ["trivial-only"]},
                    "s": 1,
                },
                "archimedean": {"kind": "simple", "lambda": [2]},
            },
        },
        "space_enumeration": None,
        "contains_trivial": True,
        "quotient_nearly_by_holomorphic": {"kind": "trivial_tensor_simple", "lambda": [2]},
    },
    (1, 4): {
        "d": 1, "k": 4,
        "summands": [
            {
                "finite_part": {
                    "kind": "induced_family",
                    "family": {"archimedean_parity": 1, "constraints": []},
                    "s": 3,
                },
                "archimedean": {"kind": "simple", "lambda": [4]},
            }
        ],
        "pi_extension": None,
        "space_enumeration": None,
        "contains_trivial": False,
        "quotient_nearly_by_holomorphic": {"kind": "trivial_tensor_simple", "lambda": [2]},
    },
    (2, 2): {
        "d": 2, "k": 2,
        "summands": [
            {
                "finite_part": {
                    "kind": "induced_family",
                    "family": {"archimedean_parity": 1, "constraints": []},
                    "s": 1,
                },
                "archimedean": {"kind": "simple", "lambda": [2, 2]},
            },
            {
                "finite_part": {"kind": "trivial"},
                "archimedean": {"kind": "trivial"},
            },
        ],
        "pi_extension": None,
        "space_enumeration": None,
        "contains_trivial": True,
        "quotient_nearly_by_holomorphic": {"kind": "zero"},
    },
    (2, 3): {
        "d": 2, "k": 3,
        "summands": [
            {
                "finite_part": {
                    "kind": "induced_family",
                    "family": {"archimedean_parity": -1, "constraints": []},
                    "s": 2,
                },
                "archimedean": {"kind": "simple", "lambda": [3, 3]},
            }
        ],
        "pi_extension": None,
        "space_enumeration": None,
        "contains_trivial": False,
        "quotient_nearly_by_holomorphic": {"kind": "zero"},
    },
}


def test_criterion_10_catalog_branches():
    with criterion(10, "spectrum catalog branch structure", 1.0):
        for (d, k), golden in GOLDEN_CATALOGS.items():
            assert catalog(d, k).to_json() == golden, (d, k)
        # Branch markers: the extension exactly at (1, 2), the theta hook
        # exactly at k = 1, the trivial summand exactly at k = 2, and the
        # quotient of the full space by the holomorphic part only at d = 1.
        for d in (1, 2, 3):
            for k in (1, 2, 3, 4, 8):
                doc = catalog(d, k).to_json()
                assert (doc["pi_extension"] is not None) == (d == 1 and k == 2)
                assert (doc["space_enumeration"] is not None) == (k == 1)
                assert doc["contains_trivial"] == (k == 2)
                assert (
                    doc["quotient_nearly_by_holomorphic"]["kind"]
                    == ("trivial_tensor_simple" if d == 1 else "zero")
                )
