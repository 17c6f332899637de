"""Exact series core: arithmetic, truncation semantics, file format."""

import json
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nhmf.errors import DomainError, FormFileError, WeightMismatchError
from nhmf.operators import casimir, lower_weight, raise_weight
from nhmf.pi_scalar import MINUS_INV_FOUR_PI, PiScalar
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


def seeded_pairs(seed=23):
    """Pairs of seeded forms of one weight, with truncations, depths and
    denominators drawn independently, each pair also with a zero form and
    with itself."""
    rng = random.Random(seed)

    def draw(weight):
        trunc = rng.randint(0, 9)
        coeffs = {
            (rng.randint(0, 3), rng.randint(0, trunc)): Fraction(rng.randint(-20, 20), rng.choice([1, 2, 3, 6, 35]))
            for _ in range(rng.randint(0, 7))
        }
        return NearlyHolomorphicForm(weight, trunc, coeffs)

    for _ in range(400):
        weight = rng.randint(-4, 12)
        a, b = draw(weight), draw(weight)
        yield a, b
        yield a, a
        yield a, NearlyHolomorphicForm.zero(rng.randint(0, 9))
        yield NearlyHolomorphicForm.zero(rng.randint(0, 9)), b


class TestSubtract:
    def test_matches_adding_the_negation(self):
        # a - b was a + (-b); the one-pass difference must store the same form.
        for a, b in seeded_pairs():
            assert (a - b)._key() == (a + (-b))._key(), (a, b)
            assert (b - a)._key() == (b + (-a))._key(), (a, b)

    def test_mixed_truncations_take_the_minimum(self):
        f, g = eisenstein(4, 10), eisenstein(4, 6) * Fraction(1, 3)
        for a, b in ((f, g), (g, f)):
            diff = a - b
            assert diff.truncation == 6
            assert diff._key() == (a + (-b))._key()
        assert (f - f.truncate(4)).is_zero and (f - f.truncate(4)).truncation == 4

    def test_weight_mismatch_is_refused_as_for_a_sum(self):
        a, b = form_of(2, 4, {(0, 0): 1}), form_of(4, 4, {(1, 0): 1})
        for x, y in ((a, b), (b, a)):
            with pytest.raises(WeightMismatchError) as want:
                x + (-y)
            with pytest.raises(WeightMismatchError) as got:
                x - y
            assert str(got.value) == str(want.value)

    def test_a_non_form_is_not_subtracted(self):
        with pytest.raises(TypeError):
            eisenstein(4, 3) - 1


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
    with pytest.raises(DomainError, match=r"truncation must be an integer in 0\.\.20, got 30"):
        small.truncate(30)  # never extrapolate


def test_a_bool_is_no_truncation_or_weight():
    # True is an int to isinstance, yet a form built with it would write
    # JSON true into its form file, which from_doc refuses.
    for weight, trunc in ((4, True), (4, False), (True, 4)):
        with pytest.raises(DomainError, match="must be an integer"):
            NearlyHolomorphicForm(weight, trunc, {(0, 0): 1})
    for trunc in (True, False):
        with pytest.raises(DomainError, match="truncation must be an integer"):
            eisenstein(4, 6).truncate(trunc)


def test_a_bool_is_no_exponent():
    # True is an int to isinstance: {(True, 0): 1} would be stored at r = 1,
    # and from_doc refuses JSON true as an exponent.
    for key in ((True, 0), (0, True), (False, 0), (0, False)):
        with pytest.raises(DomainError, match="bad exponent pair"):
            NearlyHolomorphicForm(4, 3, {key: 1})


def test_a_coefficient_outside_the_form_is_a_domain_error():
    # Past the truncation was a raw ValueError, and a str exponent a raw TypeError.
    f = NearlyHolomorphicForm.monomial(4, 3, 1, 2, 5)
    assert f.coefficient(1, 2) == 5 and f.coefficient(0, 3) == 0 and f.coefficient(7, 0) == 0
    for r, n in ((0, 4), (0, "a"), ("a", 0), (True, 0), (0, 1.0)):
        with pytest.raises(DomainError, match="must be an integer"):
            f.coefficient(r, n)


def test_truncate_checks_the_type_before_comparing():
    # The type is checked before the truncations are compared, so a str
    # raises DomainError, not TypeError.
    for trunc in ("3", 3.0, None, [3]):
        with pytest.raises(DomainError, match="truncation must be an integer"):
            eisenstein(4, 6).truncate(trunc)


class TestPiScalar:
    def test_sqrt_pi_squares_to_pi(self):
        sqrt_pi = PiScalar.pi_power(Fraction(1, 2))
        assert sqrt_pi * sqrt_pi == PiScalar.pi_power(1)

    def test_i_squared(self):
        i = PiScalar.gaussian(0, 1)
        assert i * i == PiScalar.rational(-1)

    def test_zero_is_empty(self):
        z = PiScalar.rational(3) - PiScalar.rational(3)
        assert z.is_zero and z == PiScalar.zero()

    def test_invert_monomial(self):
        x = PiScalar.pi_power(Fraction(3, 2), Fraction(-2, 5))
        assert x * x.invert() == PiScalar.one()
        with pytest.raises(DomainError, match="non-monomial"):
            (PiScalar.one() + PiScalar.pi_power(1)).invert()

    def test_as_fraction_refuses_pi_and_i(self):
        assert PiScalar.rational(Fraction(-3, 4)).as_fraction() == Fraction(-3, 4)
        assert PiScalar.zero().as_fraction() == 0
        with pytest.raises(DomainError, match="not rational"):
            PiScalar.pi_power(1).as_fraction()
        with pytest.raises(DomainError, match="not real"):
            PiScalar.gaussian(1, 2).as_fraction()

    def test_render(self):
        assert PiScalar.pi_power(-1, -3).render() == "-3·π^-1"
        assert PiScalar.pi_power(-2, 6).render() == "6·π^-2"
        assert PiScalar.pi_power(Fraction(1, 2)).render() == "π^1/2"

    def test_json_roundtrip(self):
        x = PiScalar({Fraction(1, 2): (Fraction(2, 3), Fraction(-1)), 0: 5})
        assert PiScalar.from_json(x.to_json()) == x

    @pytest.mark.parametrize(
        "x",
        [
            PiScalar.gaussian(1, 1),
            PiScalar({Fraction(-1, 2): (Fraction(2, 3), 1), 1: (0, Fraction(1, 2))}),
            PiScalar.pi_power(Fraction(1, 2)) - PiScalar.one(),
            PiScalar.zero(),
        ],
    )
    def test_pow_is_the_repeated_product(self, x):
        want = PiScalar.one()
        for n in range(41):
            assert x ** n == want, n
            want = want * x

    @pytest.mark.parametrize(
        "x", [PiScalar.pi_power(Fraction(3, 2), Fraction(-2, 5), 1), MINUS_INV_FOUR_PI]
    )
    def test_negative_pow_of_a_monomial_repeats_the_inverse(self, x):
        want = PiScalar.one()
        for n in range(41):
            assert x ** -n == want and x ** -n * x ** n == PiScalar.one(), n
            want = want * x.invert()

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

    def test_rejects_documents_past_the_dense_size_limit(self):
        for trunc, r in ((10**7, 0), (0, 10**6), (1000, 999)):
            with pytest.raises(FormFileError, match="stored coefficients"):
                NearlyHolomorphicForm.from_doc(
                    {"weight": 2, "truncation": trunc, "terms": [[r, 0, "1"]]}
                )
        # The zero form stores nothing, whatever its truncation.
        assert NearlyHolomorphicForm.from_doc(
            {"weight": 2, "truncation": 10**7, "terms": []}
        ).is_zero

    @pytest.mark.parametrize(
        "build",
        [
            lambda: NearlyHolomorphicForm.monomial(4, 10**9),
            lambda: NearlyHolomorphicForm.constant(1, 10**6),
            lambda: NearlyHolomorphicForm(2, 1000, {(999, 0): 1}),
            lambda: NearlyHolomorphicForm(2, 0, {(10**6, 0): 1}),
        ],
    )
    def test_the_constructor_refuses_forms_past_the_dense_size_limit_quickly(self, build):
        start = time.perf_counter()
        with pytest.raises(DomainError, match="stored coefficients") as err:
            build()
        assert time.perf_counter() - start < 0.1
        assert err.value.code == "out-of-domain"

    def test_the_constructor_accepts_forms_at_the_dense_size_limit(self):
        assert NearlyHolomorphicForm(2, 999, {(999, 0): 1}).depth == 999
        # The zero form stores nothing, whatever its truncation.
        assert NearlyHolomorphicForm.zero(10**9).is_zero
        assert NearlyHolomorphicForm(2, 10**9, {(0, 0): 0}).is_zero

    def test_rejects_bad_rational(self):
        with pytest.raises(FormFileError):
            NearlyHolomorphicForm.from_doc(
                {"weight": 2, "truncation": 3, "terms": [[0, 0, "x"]]}
            )

    @pytest.mark.parametrize(
        "text",
        [
            '{"weight": 4, "truncation": 2, "terms": [[0, 1, null]]}',
            '{"weight": 4, "truncation": 2, "terms": [[0, 1, 0.1]]}',
            '{"weight": 4, "truncation": 2, "terms": [[0, 1, 1e400]]}',
            '{"weight": 4, "truncation": 2, "terms": [[0, 1, 2.0]]}',
            '{"weight": 4, "truncation": 2, "terms": [[0, 1, true]]}',
            '{"weight": 4, "truncation": 2, "terms": [[0, 1, [1]]]}',
            '{"weight": 4, "truncation": 2, "terms": [[0, 1, {}]]}',
            '{"weight": true, "truncation": 2, "terms": [[0, 1, "1"]]}',
            '{"weight": 4, "truncation": true, "terms": [[0, 1, "1"]]}',
            '{"weight": 4, "truncation": 2, "terms": [[false, 1, "1"]]}',
            '{"weight": 4, "truncation": 2, "terms": [[0, true, "1"]]}',
            '{"weight": 4, "truncation": 5, "terms": [[false, false, null]]}',
            '{"weight": 4, "truncation": 2, "terms": 5}',
            '{"weight": 4, "truncation": 2, "terms": null}',
        ],
    )
    def test_refuses_inexact_and_non_numeric_values(self, text):
        # A JSON float is inexact (0.1 is not 1/10) or infinite (1e400), and
        # null, a bool, a list or an object is no number: each is refused as
        # a bad form file, never read as an approximation or a 0 or 1.
        with pytest.raises(FormFileError):
            NearlyHolomorphicForm.from_doc(json.loads(text))

    def test_reads_integer_and_string_coefficients_exactly(self):
        doc = {"weight": 4, "truncation": 2, "terms": [[0, 1, "0.1"], [1, 0, 3], [1, 2, "-2/6"]]}
        f = NearlyHolomorphicForm.from_doc(doc)
        assert dict(f.terms()) == {(0, 1): Fraction(1, 10), (1, 0): 3, (1, 2): Fraction(-1, 3)}


# -- the integer column core against a dict-of-Fraction reference model --------
#
# A model form is (weight, truncation, {(r, n): c}) with only nonzero c and
# n <= truncation; weight is None exactly for the zero form.


def model_of(weight, trunc, coeffs):
    data = {key: Fraction(c) for key, c in coeffs.items() if key[1] <= trunc and c}
    return (weight if data else None, trunc, data)


def model_add(f, g):
    weight = f[0] if f[0] is not None else g[0]
    trunc = min(f[1], g[1])
    data = {}
    for src in (f[2], g[2]):
        for key, c in src.items():
            data[key] = data.get(key, Fraction(0)) + c
    return model_of(weight, trunc, data)


def model_scale(f, c):
    return model_of(f[0], f[1], {key: v * c for key, v in f[2].items()})


def model_mul(f, g):
    trunc = min(f[1], g[1])
    data = {}
    for (r1, n1), c1 in f[2].items():
        for (r2, n2), c2 in g[2].items():
            key = (r1 + r2, n1 + n2)
            data[key] = data.get(key, Fraction(0)) + c1 * c2
    weight = f[0] + g[0] if f[2] and g[2] else None
    return model_of(weight, trunc, data)


def model_raise(f):
    k, data = f[0], {}
    for (r, n), c in f[2].items():
        data[(r, n)] = data.get((r, n), Fraction(0)) + n * c
        data[(r + 1, n)] = data.get((r + 1, n), Fraction(0)) + (r - k) * c
    return model_of(k + 2 if f[2] else None, f[1], data)


def model_lower(f):
    data = {(r - 1, n): r * c for (r, n), c in f[2].items() if r}
    return model_of(f[0] - 2 if data else None, f[1], data)


def model_casimir(f):
    if not f[2]:
        return f
    k = f[0]
    return model_add(model_scale(f, k * k - 2 * k), model_scale(model_raise(model_lower(f)), 4))


def matches(form, model):
    # Equal and equally hashed to the form built from the model's terms: the
    # storage of every result is canonical.
    weight, trunc, data = model
    built = NearlyHolomorphicForm(weight, trunc, data)
    return (
        form == built
        and hash(form) == hash(built)
        and form.weight == weight
        and form.truncation == trunc
        and form.terms() == sorted(data.items())
        and form.depth == max((r for r, _ in data), default=0)
        and all(form.x_column(r) == {n: c for (rr, n), c in data.items() if rr == r} for r in range(5))
    )


model_coeffs = st.one_of(
    st.integers(-3, 3).map(Fraction),
    st.fractions(min_value=-50, max_value=50, max_denominator=12),
)


@st.composite
def model_forms(draw, weight):
    trunc = draw(st.integers(0, 9))
    coeffs = draw(
        st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 12)), model_coeffs, max_size=8)
    )
    return model_of(weight, trunc, coeffs)


def form_from_model(model):
    return NearlyHolomorphicForm(model[0], model[1], model[2])


@settings(max_examples=150, deadline=None)
@given(
    st.integers(-2, 8).flatmap(lambda w: st.tuples(model_forms(w), model_forms(w))),
    model_forms(4),
    model_coeffs,
    st.integers(0, 9),
)
def test_integer_core_matches_reference_model(fg, h, c, t):
    mf, mg = fg
    f, g, hf = form_from_model(mf), form_from_model(mg), form_from_model(h)
    assert matches(f, mf) and matches(g, mg)
    assert matches(f + g, model_add(mf, mg))
    assert matches(f - g, model_add(mf, model_scale(mg, -1)))
    assert matches(f * c, model_scale(mf, c)) and matches(c * f, model_scale(mf, c))
    assert matches(f * 3, model_scale(mf, 3))
    assert matches(f * hf, model_mul(mf, h)) and matches(hf * f, model_mul(h, mf))
    if t <= f.truncation:
        assert matches(f.truncate(t), model_of(mf[0], t, mf[2]))
    assert matches(raise_weight(f), model_raise(mf))
    assert matches(lower_weight(f), model_lower(mf))
    assert matches(casimir(f), model_casimir(mf))
    # Equality and hashing follow the model exactly.
    assert (f == g) == (mf == mg)
    twin = NearlyHolomorphicForm(mf[0], mf[1], dict(f.terms()))
    assert twin == f and hash(twin) == hash(f)
    assert (f - f).is_zero and (f - f) == NearlyHolomorphicForm.zero(f.truncation)
    # The form file round trip.
    doc = f.to_doc()
    assert doc["terms"] == [[r, n, str(v)] for (r, n), v in sorted(mf[2].items())]
    assert NearlyHolomorphicForm.from_doc(doc) == f
    assert NearlyHolomorphicForm.from_doc(doc).to_doc() == doc
