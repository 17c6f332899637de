"""Category-O bookkeeping: blocks, module identification, spectrum catalog."""

import random
import time
from fractions import Fraction

import pytest

import nhmf.operators
from nhmf.arith import MAX_DEGREE, MAX_WEIGHT
from nhmf.category_o import (
    BlockClassification,
    ModuleClass,
    catalog,
    classify_block,
    composition_factors,
    identify_module,
    integral_parallel_filter,
)
from nhmf.errors import AmbiguousModuleError, DomainError, NonEigenformError
from nhmf.generators import delta_cusp, eisenstein, eisenstein2, level1_basis
from nhmf.laurent import constant_term_report
from nhmf.operators import (
    InfinitesimalCharacter,
    infinitesimal_character,
    iterate_lower,
    iterate_raise,
    scalar_ratio,
)
from nhmf.series import NearlyHolomorphicForm


class TestModuleClassCanonicalization:
    def test_simple_zero_is_trivial(self):
        assert ModuleClass("simple", 0) == ModuleClass("trivial")

    def test_finite_two_is_trivial(self):
        assert ModuleClass("finite", 2) == ModuleClass("trivial")

    def test_negative_simple_is_finite(self):
        assert ModuleClass("simple", -2) == ModuleClass("finite", 4)
        assert ModuleClass("finite", 4).dimension == 3

    def test_irreducible_verma_is_simple(self):
        assert ModuleClass("verma", 4) == ModuleClass("simple", 4)
        assert ModuleClass("verma", Fraction(1, 2)) == ModuleClass("simple", Fraction(1, 2))
        assert ModuleClass("verma", 0) != ModuleClass("simple", 0)  # N(0) is reducible

    def test_projective_collapses_off_integral_blocks(self):
        assert ModuleClass("projective", 1) == ModuleClass("simple", 1)
        assert ModuleClass("projective", Fraction(3, 2)) == ModuleClass("simple", Fraction(3, 2))
        assert ModuleClass("projective", 5).kind == "projective"

    @pytest.mark.parametrize("kind", ["finite", "simple", "verma", "dual_verma", "projective"])
    def test_the_constructor_stores_one_canonical_form(self, kind):
        # ModuleClass stored its arguments as given: ModuleClass("simple", 0)
        # differed from ModuleClass("trivial"), which is L(0).  A class keeps
        # the character of its arguments, has a kind its lam allows, and is
        # rebuilt as itself from its fields.
        for lam in [Fraction(n, 2) for n in range(-9, 10)] + [Fraction(3, 4), -3, 5]:
            if kind == "finite" and not (Fraction(lam).denominator == 1 and lam >= 2):
                with pytest.raises(DomainError):
                    ModuleClass(kind, lam)
                continue
            mc = ModuleClass(kind, lam)
            assert ModuleClass(mc.kind, mc.lam) == mc, (kind, lam)
            assert mc.character == InfinitesimalCharacter(lam), (kind, lam)
            if mc.kind != "trivial":
                integral = mc.lam.denominator == 1
                allowed = {
                    "finite": integral and mc.lam >= 3,
                    "simple": not (integral and mc.lam <= 0),
                    "verma": integral and mc.lam <= 0,
                    "dual_verma": integral and mc.lam <= 0,
                    "projective": integral and mc.lam >= 2,
                }
                assert allowed[mc.kind], (kind, lam, mc)

    @pytest.mark.parametrize("kind, lam", [("bogus", 3), ("Simple", 3), ("trivial", 2), ("simple", None)])
    def test_an_unknown_kind_or_a_missing_lambda_is_refused(self, kind, lam):
        # ModuleClass("bogus", 3) was stored, and rendering it raised KeyError.
        with pytest.raises(DomainError):
            ModuleClass(kind, lam)


def reference_block(lam: Fraction) -> BlockClassification:
    """The block of chi_lam built afresh, by the list of the module docstring."""
    rep = max(lam, 2 - lam)
    low = 2 - rep
    if rep == 1:
        return BlockClassification(rep, (ModuleClass("simple", 1),), ())
    l_rep, l_low = ModuleClass("simple", rep), ModuleClass("simple", low)
    if rep.denominator != 1:
        return BlockClassification(rep, (l_rep, l_low), ())
    n_low, p_rep = ModuleClass("verma", low), ModuleClass("projective", rep)
    classes = (l_rep, l_low, n_low, ModuleClass("dual_verma", low), p_rep)
    sequences = ((l_rep, n_low, l_low), (l_rep, p_rep, n_low))
    return BlockClassification(rep, classes, sequences)


class TestClassifyBlock:
    def test_singular_point_single_class(self):
        block = classify_block(1)
        assert block.classes == (ModuleClass("simple", 1),)
        assert block.exact_sequences == ()

    def test_integral_regular_block_has_five_classes(self):
        block = classify_block(5)
        assert set(block.classes) == {
            ModuleClass("simple", 5),
            ModuleClass("simple", -3),
            ModuleClass("verma", -3),
            ModuleClass("dual_verma", -3),
            ModuleClass("projective", 5),
        }
        assert len(block.classes) == 5
        seqs = block.exact_sequences
        l5, l_3 = ModuleClass("simple", 5), ModuleClass("simple", -3)
        assert seqs[0] == (l5, ModuleClass("verma", -3), l_3)
        assert seqs[1] == (l5, ModuleClass("projective", 5), ModuleClass("verma", -3))

    def test_nonintegral_block_two_simple_vermas(self):
        block = classify_block(Fraction(1, 2))
        assert set(block.classes) == {
            ModuleClass("simple", Fraction(1, 2)), ModuleClass("simple", Fraction(3, 2)),
        }

    def test_orbit_symmetry(self):
        for lam in (Fraction(1, 2), 3, 5, Fraction(7, 3), 1, 0, -4):
            a, b = classify_block(lam), classify_block(2 - Fraction(lam))
            assert set(a.classes) == set(b.classes)

    @pytest.mark.parametrize(
        "lam",
        [1, 2, 5, 0, -4, -40, Fraction(1, 2), Fraction(-1, 2), Fraction(7, 2), Fraction(-9, 2),
         Fraction(7, 3), Fraction(-5, 3), "-13/6"],
    )
    def test_the_block_of_a_character_is_built_once(self, lam):
        lam = Fraction(lam)
        block = classify_block(lam)
        assert classify_block(2 - lam) is block and classify_block(str(lam)) is block
        assert block == reference_block(lam)

    def test_composition_factor_consistency(self):
        for lam in (2, 3, 5, 9):
            from collections import Counter

            block = classify_block(lam)
            for sub, mid, quot in block.exact_sequences:
                assert Counter(composition_factors(mid)) == Counter(
                    composition_factors(sub) + composition_factors(quot)
                )

    def test_verma_factors(self):
        l5, l_3 = ModuleClass("simple", 5), ModuleClass("simple", -3)
        assert set(composition_factors(ModuleClass("verma", -3))) == {l5, l_3}
        from collections import Counter

        assert Counter(composition_factors(ModuleClass("projective", 5))) == Counter([l5, l5, l_3])


class TestIdentifyModule:
    def test_holomorphic_forms_generate_simples(self):
        assert identify_module(eisenstein(4, 10)) == ModuleClass("simple", 4)
        assert identify_module(delta_cusp(12)) == ModuleClass("simple", 12)
        for g in level1_basis(8, 10):
            assert identify_module(g) == ModuleClass("simple", 8)

    def test_constants_generate_trivial(self):
        assert identify_module(NearlyHolomorphicForm.constant(5, 6)) == ModuleClass("trivial")

    def test_weight_two_series_generates_dual_verma(self):
        # Lowering reaches the constants (a submodule), the quotient is L(2).
        assert identify_module(eisenstein2(10)) == ModuleClass("dual_verma", 0)

    def test_raising_stability(self):
        for w in (4, 6, 12):
            for g in level1_basis(w, 12):
                for r in (1, 2, 3):
                    assert identify_module(iterate_raise(g, r)) == ModuleClass("simple", w)
        for r in (1, 2):
            assert identify_module(iterate_raise(eisenstein2(12), r)) == ModuleClass("dual_verma", 0)

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            identify_module(NearlyHolomorphicForm.zero(5))

    def test_non_eigenform_rejected(self):
        mixed = iterate_raise(eisenstein(4, 10), 1) + eisenstein(6, 10)
        with pytest.raises(NonEigenformError):
            identify_module(mixed)

    def test_the_budget_no_longer_refuses(self):
        # max_steps is ignored, by keyword and by position.
        f = iterate_raise(eisenstein(4, 12), 3)
        assert identify_module(f, max_steps=2) == ModuleClass("simple", 4)
        assert identify_module(f, 2) == ModuleClass("simple", 4)

    def test_deep_raised_eigenforms_answer_quickly(self):
        # One Casimir at any depth: R^m E4 generates L(4) for every m, with
        # the deprecated budget left at its default or set to 0, and each
        # call answers within a second (about 2 ms at m = 40, trunc 20, on a
        # 2-core x86 host).
        e4 = eisenstein(4, 20)
        for m in range(41):
            f = iterate_raise(e4, m)
            for kwargs in ({}, {"max_steps": 0}):
                start = time.perf_counter()
                assert identify_module(f, **kwargs) == ModuleClass("simple", 4), (m, kwargs)
                assert time.perf_counter() - start < 1.0, (m, kwargs)

    def test_impure_orbit_is_ambiguous(self):
        # Weight-2 eigenform that is not a multiple of the weight-two seed:
        # scalar ratio fails on the q^1 coefficient.
        e2 = eisenstein2(8)
        fake = NearlyHolomorphicForm(
            2, 8, {key: value for key, value in e2.terms() if key != (0, 1)}
        )
        with pytest.raises(AmbiguousModuleError) as err:
            identify_module(fake)
        assert str(err.value) == "form is not a multiple of the raised weight-two seed"

    def test_free_weight_zero_seed_is_verma(self):
        f = NearlyHolomorphicForm(0, 8, {(0, 0): 1, (0, 1): 1})
        assert identify_module(f) == ModuleClass("verma", 0)

    def test_negative_weight_constant_generates_finite_quotient(self):
        # delta^(1-w) kills a constant of weight w < 0: the module is F_(2-w).
        assert identify_module(NearlyHolomorphicForm.monomial(-2, 6)) == ModuleClass("finite", 4)
        assert identify_module(NearlyHolomorphicForm.monomial(-3, 6)) == ModuleClass("finite", 5)
        assert identify_module(NearlyHolomorphicForm.monomial(-2, 6, n=1)) == ModuleClass("verma", -2)

    def test_seed_is_read_off_the_top_column(self, monkeypatch):
        # The class is read off the weight, depth and top column, so the
        # Casimir of the eigenform check, one column pass, is the only
        # operator applied, at every depth and for a constant of negative
        # weight alike.
        seeds = (eisenstein(4, 8), delta_cusp(8), NearlyHolomorphicForm.monomial(1, 3, n=2))
        cases = [(iterate_raise(g, m), ModuleClass("simple", g.weight)) for g in seeds for m in range(7)]
        cases += [
            (NearlyHolomorphicForm.monomial(-2, 6), ModuleClass("finite", 4)),
            (NearlyHolomorphicForm.monomial(-5, 3, c=7), ModuleClass("finite", 7)),
        ]
        calls = []
        for name in ("casimir", "iterate_lower", "iterate_raise", "lower_weight", "raise_weight"):
            operator = getattr(nhmf.operators, name)

            def counting(f, name=name, operator=operator):
                calls.append(name)
                return operator(f)

            monkeypatch.setattr(nhmf.operators, name, counting)
        for f, want in cases:
            calls.clear()
            assert identify_module(f) == want
            assert calls == ["casimir"], (f.weight, f.depth, calls)


def reference_identify_module(f: NearlyHolomorphicForm, max_steps: int = 24):
    """identify_module as it was when it lowered the form to find its seed,
    kept as the oracle of the top-column version."""
    if f.is_zero:
        raise DomainError("the zero form generates no module")
    char = infinitesimal_character(f)  # raises on non-eigenforms
    block = classify_block(char.lam)
    k = f.weight
    m = f.depth
    w = k - 2 * m

    def ambiguous(msg):
        return AmbiguousModuleError(
            msg, candidates=[c.render() for c in block.classes]
        )

    # m lowers to the seed, then up to 2m more for the purity probe, plus the
    # finite-dimensionality probe for non-dominant seeds.
    budget = 3 * m + max(0, 1 - w)
    if budget > max_steps:
        raise ambiguous(
            f"needs {budget} operator applications, max_steps = {max_steps}"
        )

    seed = iterate_lower(f, m)  # holomorphic of weight w

    if w == 0 and m >= 1:
        # Candidate: the dual Verma N(0)^v generated by the weight-two
        # Eisenstein seed (socle = constants, quotient = L(2)).
        if not seed.is_constant_series():
            raise ambiguous("weight-0 lowered seed is not constant")
        e2_image = iterate_raise(eisenstein2(f.truncation), m - 1)
        c = scalar_ratio(f, e2_image)
        if c is None:
            raise ambiguous("form is not a multiple of the raised weight-two seed")
        return ModuleClass("dual_verma", 0)

    probe = iterate_raise(seed, m)
    ratio = scalar_ratio(iterate_lower(probe, m), seed)
    if ratio is None or ratio == 0:
        raise ambiguous("operator orbit is inconsistent with a cyclic seed")
    if scalar_ratio(f, probe) is None and m > 0:
        raise ambiguous("form is not a pure raised image of its lowered seed")

    if w >= 1:
        return ModuleClass("simple", w)
    if w == 0:
        # depth 0, weight 0: constants, or a free weight-0 seed.
        if seed.is_constant_series():
            return ModuleClass("trivial")
        return ModuleClass("verma", 0)
    # w < 0: a Verma with non-dominant highest weight, or its finite quotient.
    top = iterate_raise(seed, 1 - w)
    return ModuleClass("finite", 2 - w) if top.is_zero else ModuleClass("verma", w)


def seeded_module_forms(seed=12):
    """Raised seeds R^m(g) for w in -6..13, m in 0..4 and truncations 0, 1,
    3, 8, each plain, plus a monomial, and plus the raised partner seed of
    weight 2 - w that shares its Casimir eigenvalue; then raised and
    perturbed weight-two Eisenstein series."""
    rng = random.Random(seed)
    for trunc in (0, 1, 3, 8):
        for w in range(-6, 14):
            seeds = [
                NearlyHolomorphicForm.monomial(w, trunc, c=rng.randint(-5, 5) or 1),
                NearlyHolomorphicForm.monomial(w, trunc, n=trunc),
                NearlyHolomorphicForm(
                    w,
                    trunc,
                    {(0, n): Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for n in range(trunc + 1)},
                ),
            ]
            for g in seeds:
                for m in range(5):
                    f = iterate_raise(g, m)
                    yield f
                    k = w + 2 * m
                    r, n = rng.randint(0, m), rng.randint(0, trunc)
                    yield f + NearlyHolomorphicForm.monomial(k, trunc, r=r, n=n)
                    partner_depth = m + w - 1
                    if partner_depth >= 0:
                        h = NearlyHolomorphicForm.monomial(2 - w, trunc, n=rng.randint(0, trunc))
                        yield f + iterate_raise(h, partner_depth)
        e2 = eisenstein2(trunc)
        for m in range(5):
            raised = iterate_raise(e2, m)
            yield raised
            yield raised * Fraction(-7, 3)
            yield raised + NearlyHolomorphicForm.monomial(2 + 2 * m, trunc, n=trunc)
            yield raised + iterate_raise(NearlyHolomorphicForm.monomial(0, trunc, n=trunc), m + 1)
            yield raised + iterate_raise(NearlyHolomorphicForm.monomial(2, trunc, n=trunc), m)


def outcome(identify, f, max_steps):
    try:
        return identify(f, max_steps)
    except (AmbiguousModuleError, DomainError, NonEigenformError) as exc:
        return type(exc), str(exc), exc.data


class TestIdentifyModuleReference:
    def test_matches_the_lowering_reference(self):
        # Where the reference answers within max_steps, identify_module gives
        # the same outcome; where the reference's budget refuses ("needs ..."),
        # identify_module, which has no budget, gives the reference's outcome
        # at an unlimited budget.
        seen, lifted = set(), 0
        for f in seeded_module_forms():
            for max_steps in (2, 8, 24):
                expected = outcome(reference_identify_module, f, max_steps)
                if not isinstance(expected, ModuleClass) and expected[1].startswith("needs "):
                    expected = outcome(reference_identify_module, f, 10**9)
                    lifted += 1
                assert outcome(identify_module, f, max_steps) == expected, (f, max_steps)
                if isinstance(expected, ModuleClass):
                    seen.add(expected.kind)
                else:
                    seen.add(expected[1])
        assert lifted
        # Every class kind, and every refusal that a Casimir eigenform can
        # reach.
        assert seen >= {
            "simple",
            "trivial",
            "verma",
            "finite",
            "dual_verma",
            "the zero form generates no module",
            "form is not a Casimir eigenvector",
            "form is not a multiple of the raised weight-two seed",
            "operator orbit is inconsistent with a cyclic seed",
        }, seen


class TestCatalog:
    def test_regular_weight(self):
        doc = catalog(1, 4).to_json()
        assert doc["contains_trivial"] is False
        assert doc["pi_extension"] is None
        assert doc["space_enumeration"] is None
        [summand] = doc["summands"]
        assert summand["finite_part"]["kind"] == "induced_family"
        assert summand["finite_part"]["family"]["archimedean_parity"] == 1
        assert summand["finite_part"]["s"] == 3
        assert summand["archimedean"] == {"kind": "simple", "lambda": [4]}

    def test_odd_weight_parity(self):
        doc = catalog(2, 3).to_json()
        [summand] = doc["summands"]
        assert summand["finite_part"]["family"]["archimedean_parity"] == -1
        assert summand["archimedean"]["lambda"] == [3, 3]

    def test_weight_one_has_theta_hook(self):
        doc = catalog(1, 1).to_json()
        kinds = [s["finite_part"]["kind"] for s in doc["summands"]]
        assert kinds == ["induced_family", "space_enumeration"]
        family = doc["summands"][0]["finite_part"]["family"]
        assert family["constraints"] == ["non-quadratic", "associate-classes"]
        assert doc["space_enumeration"]["hook"] == "enumerate_definite_spaces"
        assert doc["space_enumeration"]["signature"] == [2, 0]

    def test_weight_two_degree_one_extension(self):
        doc = catalog(1, 2).to_json()
        assert doc["contains_trivial"] is True
        assert doc["pi_extension"]["sub"] == {"kind": "trivial"}
        quotient = doc["pi_extension"]["quotient"]
        assert quotient["archimedean"] == {"kind": "simple", "lambda": [2]}
        kinds = [s["finite_part"]["kind"] for s in doc["summands"]]
        assert kinds == ["induced_family", "extension"]
        assert doc["summands"][0]["finite_part"]["family"]["constraints"] == [
            "nontrivial"
        ]
        assert doc["summands"][1]["archimedean"] == {
            "kind": "dual_verma",
            "lambda": [0],
        }

    def test_weight_two_higher_degree_plain_trivial_summand(self):
        doc = catalog(2, 2).to_json()
        assert doc["contains_trivial"] is True
        assert doc["pi_extension"] is None
        kinds = [s["finite_part"]["kind"] for s in doc["summands"]]
        assert kinds == ["induced_family", "trivial"]
        assert doc["summands"][0]["finite_part"]["family"]["constraints"] == []

    def test_quotient_by_holomorphic(self):
        assert catalog(1, 4).to_json()["quotient_nearly_by_holomorphic"] == {
            "kind": "trivial_tensor_simple",
            "lambda": [2],
        }
        assert catalog(2, 4).to_json()["quotient_nearly_by_holomorphic"] == {
            "kind": "zero"
        }

    def test_trivial_summand_iff_weight_two(self):
        for d in (1, 2, 3):
            for k in (1, 2, 3, 4, 9):
                assert catalog(d, k).contains_trivial == (k == 2)

    def test_derived_fields_follow_the_summands(self):
        for d in range(1, 7):
            for k in range(1, 13):
                desc = catalog(d, k)
                assert (desc.pi_extension is not None) == ((d, k) == (1, 2)), (d, k)
                assert (desc.space_enumeration is not None) == (k == 1), (d, k)
                assert desc.contains_trivial == (k == 2), (d, k)
                assert desc.summands[0].finite_kind == "induced_family"
                assert desc.summands[0].family.archimedean_parity == (-1) ** k
                assert desc.summands[0].s == k - 1

    def test_extension_iff_the_constant_term_has_a_residue(self):
        grid = [(d, k) for d in (1, 2, 3) for k in range(2, MAX_WEIGHT + 1)]
        grid += [(MAX_DEGREE, k) for k in (2, 3, MAX_WEIGHT)]
        for d, k in grid:
            verdict = constant_term_report(k, d, "trivial").verdict
            assert (catalog(d, k).pi_extension is not None) == (
                verdict.kind == "SectionPlusResidue"
            ), (d, k)

    def test_weight_one_at_higher_degree(self):
        doc = catalog(3, 1).to_json()
        assert [s["archimedean"] for s in doc["summands"]] == [
            {"kind": "simple", "lambda": [1, 1, 1]}
        ] * 2
        assert doc["space_enumeration"] == {
            "signature": [2, 0],
            "hook": "enumerate_definite_spaces",
        }
        assert doc["pi_extension"] is None and doc["contains_trivial"] is False
        assert doc["quotient_nearly_by_holomorphic"] == {"kind": "zero"}

    def test_domain(self):
        with pytest.raises(DomainError):
            catalog(0, 4)
        with pytest.raises(DomainError):
            catalog(1, 0)

    @pytest.mark.parametrize(
        "call, args",
        [
            (catalog, (1, 2.5)),
            (catalog, (1.5, 3)),
            (catalog, (1, 4.0)),
            (catalog, (True, 2)),
            (catalog, (1, True)),
            (catalog, (Fraction(1), 4)),
            (catalog, (1, Fraction(4))),
            (catalog, ("1", 4)),
            (constant_term_report, (4.0,)),
            (constant_term_report, (True,)),
            (constant_term_report, (Fraction(4),)),
            (constant_term_report, (4, 1.0)),
            (constant_term_report, (4, True)),
            (constant_term_report, (2, Fraction(1))),
            (constant_term_report, ("4",)),
        ],
    )
    def test_a_weight_or_degree_that_is_not_an_int_is_refused(self, call, args):
        # A float, a bool or a Fraction of integral value is no weight or
        # degree: the call refuses it rather than answering with it, and a
        # string is refused before a comparison could raise TypeError.
        with pytest.raises(DomainError) as err:
            call(*args)
        assert err.value.code == "out-of-domain"
        assert "integer" in str(err.value)


class TestIntegralParallelFilter:
    def test_already_parallel(self):
        assert integral_parallel_filter([3, 3]) == (True, (3, 3))

    def test_needs_flip(self):
        assert integral_parallel_filter([3, -1]) == (True, (3, 3))

    def test_not_parallel(self):
        assert integral_parallel_filter([3, 4]) == (False, None)

    def test_non_integral(self):
        assert integral_parallel_filter([Fraction(1, 2), Fraction(1, 2)]) == (
            False,
            None,
        )

    def test_flip_to_at_least_one(self):
        # (0,) flips to 2 under the dot action: representative max(0, 2) = 2.
        assert integral_parallel_filter([0]) == (True, (2,))
        assert integral_parallel_filter([Fraction(-3)]) == (True, (5,))

    def test_degree_three(self):
        assert integral_parallel_filter([4, -2, 4]) == (True, (4, 4, 4))
        assert integral_parallel_filter([4, -2, 3]) == (False, None)


def reference_parallel_filter(lams):
    """The scan over all 2^d sign flips that the closed form replaced."""
    shifted = [Fraction(x) - 1 for x in lams]
    for mask in range(1 << len(shifted)):
        image = [(s if mask & (1 << i) == 0 else -s) + 1 for i, s in enumerate(shifted)]
        first = image[0]
        if all(v == first for v in image) and first.denominator == 1:
            return True, (int(max(first, 2 - first)),) * len(image)
    return False, None


def seeded_weight_tuples(count, seed=8):
    """Tuples of length <= 6 of integral and half-integral weights, each
    entry lam or 2 - lam of one base, sometimes with one entry replaced."""
    rng = random.Random(seed)
    for _ in range(count):
        d = rng.randint(1, 6)
        base = Fraction(rng.randint(-12, 12), rng.choice((1, 2)))
        lams = [base if rng.random() < 0.5 else 2 - base for _ in range(d)]
        if rng.random() < 0.3:
            lams[rng.randrange(d)] = Fraction(rng.randint(-12, 12), rng.choice((1, 2)))
        yield lams


class TestIntegralParallelClosedForm:
    def test_matches_the_sign_flip_scan(self):
        outcomes = {True: 0, False: 0}
        for lams in seeded_weight_tuples(10**4):
            expected = reference_parallel_filter(lams)
            assert integral_parallel_filter(lams) == expected, lams
            outcomes[expected[0]] += 1
        assert min(outcomes.values()) > 1000

    def test_large_degree_is_quick(self):
        d = 10**5
        for lams, expected in (
            ([7, -5] * (d // 2), (True, (7,) * d)),
            ([7] * (d - 1) + [6], (False, None)),
        ):
            start = time.perf_counter()
            answer = integral_parallel_filter(lams)
            assert time.perf_counter() - start < 1.0
            assert answer == expected

    def test_empty_tuple(self):
        with pytest.raises(DomainError):
            integral_parallel_filter([])
