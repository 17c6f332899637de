"""The integer, rational and sign arguments of every public entry point.

Each row of TABLE names an entry point, one of its integer arguments and that
argument's bounds, and calls the entry point with every other argument in
its domain.  A bool, a float and a Fraction of integral value, a value just
below the lower bound and a value just past the upper bound must each be
refused with DomainError, and the bounds themselves must be answered.  An end given as
None is open: nothing is refused there.

Each row of RATIONALS does the same for a rational argument, which a float,
a bool or None must not enter, and each row of SIGNS for a Hasse sign, an
int that is 1 or -1.  Each row of POINTS bounds a point s0 by MAX_WEIGHT in
absolute value.

Past the tables, a sweep calls every public callable with every tuple of a
fixed set of values: an answer or an NhmfError may come out, nothing else,
within SWEEP_SECONDS a call.
"""

import inspect
import itertools
import sys
import time
from fractions import Fraction

import pytest

import nhmf
from nhmf.arith import MAX_DEGREE, MAX_TRUNCATION, MAX_WEIGHT, check_int, prime_power_base
from nhmf.category_o import (
    ModuleClass,
    catalog,
    composition_factors,
    identify_module,
    integral_parallel_filter,
)
from nhmf.decompose import Decomposition, decompose
from nhmf.errors import DomainError, NhmfError
from nhmf.generators import (
    BinaryForm,
    bernoulli,
    delta_cusp,
    eisenstein,
    eisenstein2,
    level1_basis,
    theta_series,
)
from nhmf.laurent import (
    ConstantTermReport,
    LaurentScalar,
    archimedean_factor,
    constant_term_report,
    gamma_at,
    unramified_intertwining_constant,
    zeta_ratio_at,
)
from nhmf.operators import (
    InfinitesimalCharacter,
    casimir,
    casimir_eigenvalue,
    iterate_lower,
    iterate_raise,
    leading_column_factor,
    lower_weight,
    raise_weight,
    scalar_ratio,
)
from nhmf.pi_scalar import PiScalar
from nhmf.quadratic import (
    CharacterDescriptor,
    Collection,
    LocalInvariant,
    Place,
    QuadSpace2D,
    check_coherence,
    collection_of,
    enumerate_definite_spaces,
    hilbert_symbol,
    is_local_square,
    local_invariants,
    reducibility,
    unramified_eigenvalue,
)
from nhmf.series import NearlyHolomorphicForm

E4 = eisenstein(4, 6)
TRIVIAL = CharacterDescriptor()

# (entry point, argument, the call on a value of the argument, low, high).
# A point s0 is a rational, not an integer argument, and is left out.
TABLE = [
    ("bernoulli", "m", bernoulli, 0, MAX_WEIGHT),
    ("eisenstein", "k", lambda k: eisenstein(k, 2), 4, MAX_WEIGHT),
    ("eisenstein", "truncation", lambda n: eisenstein(4, n), 0, MAX_TRUNCATION),
    ("eisenstein2", "truncation", eisenstein2, 0, MAX_TRUNCATION),
    ("level1_basis", "k", lambda k: level1_basis(k, 0), None, MAX_WEIGHT),
    ("level1_basis", "truncation", lambda n: level1_basis(4, n), 0, MAX_TRUNCATION),
    ("delta_cusp", "truncation", delta_cusp, 0, MAX_TRUNCATION),
    ("theta_series", "truncation", lambda n: theta_series(BinaryForm(1, 0, 1), n), 0, MAX_TRUNCATION),
    ("BinaryForm", "a", lambda a: BinaryForm(a, 0, 1), None, None),
    ("BinaryForm", "b", lambda b: BinaryForm(1, b, 1), None, None),
    ("BinaryForm", "c", lambda c: BinaryForm(1, 0, c), None, None),
    ("NearlyHolomorphicForm", "weight", lambda k: NearlyHolomorphicForm(k, 2, {(0, 0): 1}), None, None),
    ("NearlyHolomorphicForm", "truncation", lambda n: NearlyHolomorphicForm(4, n), 0, None),
    ("truncate", "truncation", E4.truncate, 0, E4.truncation),
    ("iterate_raise", "ell", lambda ell: iterate_raise(E4, ell), 0, None),
    ("iterate_lower", "ell", lambda ell: iterate_lower(E4, ell), 0, None),
    ("leading_column_factor", "w", lambda w: leading_column_factor(w, 2), None, None),
    ("leading_column_factor", "ell", lambda ell: leading_column_factor(4, ell), 0, None),
    ("archimedean_factor", "ell", lambda ell: archimedean_factor(1, ell), -MAX_WEIGHT, MAX_WEIGHT),
    ("archimedean_factor", "d", lambda d: archimedean_factor(1, 4, d), 1, MAX_DEGREE),
    ("zeta_ratio_at", "d", lambda d: zeta_ratio_at(1, d), 1, MAX_DEGREE),
    ("constant_term_report", "k", constant_term_report, 1, MAX_WEIGHT),
    ("constant_term_report", "d", lambda d: constant_term_report(4, d), 1, MAX_DEGREE),
    ("catalog", "d", lambda d: catalog(d, 4), 1, MAX_DEGREE),
    ("catalog", "k", lambda k: catalog(1, k), 1, MAX_WEIGHT),
    ("prime_power_base", "q", prime_power_base, 2, None),
    ("reducibility", "residue", lambda q: reducibility(q, TRIVIAL, 0, 0), 2, None),
    ("unramified_eigenvalue", "q", lambda q: unramified_eigenvalue(q, True, 1), 2, None),
    ("unramified_intertwining_constant", "q",
     lambda q: unramified_intertwining_constant(q, 1, 1), 2, None),
    ("enumerate_definite_spaces", "support_bound",
     lambda bound: enumerate_definite_spaces(-4, bound), None, None),
    ("CharacterDescriptor", "order", lambda order: CharacterDescriptor(order=order), 1, 2),
    ("CharacterDescriptor", "real_sign", lambda sign: CharacterDescriptor(real_sign=sign), 0, 1),
]
IDS = [f"{name}-{argument}" for name, argument, *_ in TABLE]


def refusals(low, high):
    """The values each argument must refuse: the bools, an integral float
    and Fraction, and one value past each closed end."""
    inside = low if low is not None else high if high is not None else 3
    values = [True, False, float(inside), Fraction(inside)]
    if low is not None:
        values.append(low - 1)
    if high is not None:
        values.append(high + 1)
    return values


@pytest.mark.parametrize("name, argument, call, low, high", TABLE, ids=IDS)
def test_each_refusal_is_a_domain_error(name, argument, call, low, high):
    for value in refusals(low, high):
        with pytest.raises(DomainError) as err:
            call(value)
        assert err.value.code == "out-of-domain", (name, argument, value)


@pytest.mark.parametrize("name, argument, call, low, high", TABLE, ids=IDS)
def test_each_closed_end_is_answered(name, argument, call, low, high):
    if low is not None:
        call(low)
    if high is not None:
        call(high)


def test_a_float_residue_is_not_truncated():
    # int(7.9) is 7, so 7.9 was answered as the residue cardinality 7, and
    # the string "7" was read as 7.
    for residue in (7.9, 7.0, "7", Fraction(7)):
        with pytest.raises(DomainError, match="residue cardinality must be an integer"):
            reducibility(residue, TRIVIAL, 0, 0)
    assert reducibility(7, TRIVIAL, 1, 0).reducible


def test_a_coefficient_or_support_bound_that_is_no_int_is_refused():
    # Each raised a raw TypeError, or for True answered as 1.
    with pytest.raises(DomainError, match="support bound must be an integer"):
        enumerate_definite_spaces(-4, 10.5)
    with pytest.raises(DomainError, match="coefficient a must be an integer"):
        theta_series(BinaryForm(1.5, 0, 1), 5)
    with pytest.raises(DomainError, match="coefficient a must be an integer"):
        BinaryForm(True, 0, 1)


def test_leading_column_factor_answers_integers_only():
    # Each was answered: (1.5, 1) as -2.0 where c(3/2, 1) = -3/2, and
    # (Fraction(3, 2), 2) as 3 where c = 15/4, by the floor division of
    # delta_coefficients; (True, 2) as c(1, 2) and (4, -1) as 1.
    for w, ell in ((1.5, 1), (Fraction(3, 2), 2), (True, 2), (4, -1)):
        with pytest.raises(DomainError) as err:
            leading_column_factor(w, ell)
        assert err.value.code == "out-of-domain", (w, ell)
    assert [leading_column_factor(w, 2) for w in (-1, 0, 1, 4)] == [0, 0, 2, 20]


# (entry point, the call on a value that is not a form, a BinaryForm, a Place
# or the record the entry point takes).  Each let a raw AttributeError out,
# or for LocalInvariant built a record whose place was no Place.
WRONG_KIND = [
    ("raise_weight", raise_weight),
    ("lower_weight", lower_weight),
    ("iterate_raise", lambda f: iterate_raise(f, 2)),
    ("iterate_lower", lambda f: iterate_lower(f, 2)),
    ("casimir", casimir),
    ("casimir_eigenvalue", casimir_eigenvalue),
    ("scalar_ratio f", lambda f: scalar_ratio(f, E4)),
    ("scalar_ratio g", lambda g: scalar_ratio(E4, g)),
    ("decompose", decompose),
    ("identify_module", identify_module),
    ("theta_series", lambda q_form: theta_series(q_form, 5)),
    ("hilbert_symbol", lambda v: hilbert_symbol(3, 5, v)),
    ("is_local_square", lambda v: is_local_square(3, v)),
    ("LocalInvariant", lambda v: LocalInvariant(v, True, -1)),
    ("local_invariants space", lambda space: local_invariants(space, Place.real())),
    ("local_invariants v", lambda v: local_invariants(QuadSpace2D(1, 1), v)),
    ("collection_of", collection_of),
    ("check_coherence", check_coherence),
    ("reducibility", lambda mu: reducibility(3, mu, 0)),
    ("composition_factors", composition_factors),
    ("ConstantTermReport", lambda germ: ConstantTermReport(4, 1, "trivial", germ).to_json()),
]


@pytest.mark.parametrize("name, call", WRONG_KIND, ids=[name for name, _ in WRONG_KIND])
def test_an_argument_of_the_wrong_kind_is_a_domain_error(name, call):
    for value in (1, 7, None, "x", (1, 0, 1), [E4]):
        with pytest.raises(DomainError, match="must be a") as err:
            call(value)
        assert err.value.code == "out-of-domain", (name, value)


# Every value the sweep below passes as each argument.  No value lies in every
# domain, and each reached a raw attribute read or iteration of some entry
# point before that entry point checked its arguments.
SWEEP = (None, "x", 1.5, True, -1, 0, 3, (1, 2), [], eisenstein(4, 3))

# The longest a swept call may take; the slowest takes under 1 ms on x86-64.
SWEEP_SECONDS = 0.5


def _sweep(call, arity: int) -> list[str]:
    """The calls on every tuple of arity SWEEP values that raise an exception
    other than an NhmfError, each with what it raised, and those that take
    longer than SWEEP_SECONDS, each with its time."""
    escaped = []
    for args in itertools.product(SWEEP, repeat=arity):
        start = time.perf_counter()
        try:
            call(*args)
        except NhmfError:
            pass
        except Exception as exc:
            escaped.append(f"{args!r}: {type(exc).__name__}: {exc}")
        elapsed = time.perf_counter() - start
        if elapsed > SWEEP_SECONDS:
            escaped.append(f"{args!r}: took {elapsed:.3f} s")
    return escaped


def test_no_public_callable_lets_a_raw_exception_out_of_the_sweep():
    # Every callable of the package with at most three required positional
    # parameters, called with those alone.
    calls, escaped, wider = 0, {}, []
    for name in nhmf.__all__:
        call = getattr(nhmf, name)
        required = [p for p in inspect.signature(call).parameters.values()
                    if p.default is p.empty and p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)]
        if len(required) > 3:
            wider.append(name)
            continue
        calls += len(SWEEP) ** len(required)
        escaped[name] = _sweep(call, len(required))
    assert calls == 9903 and sorted(wider) == ["ConstantTermReport", "Decomposition"]
    assert {name: rows for name, rows in escaped.items() if rows} == {}


def test_a_constant_term_report_lets_no_raw_exception_out_of_the_sweep():
    # Four arguments, past the sweep above; a record that was built must also render.
    assert _sweep(lambda *args: ConstantTermReport(*args).to_json(), 4) == []


def test_a_decomposition_lets_no_raw_exception_out_of_the_sweep():
    # Four arguments, past the sweep above; a record that was built must also
    # render and reassemble.  9,800 of the 10,000 tuples let a raw TypeError
    # or ValueError out, from the constructor, to_json or reassemble.
    def build(*args):
        dec = Decomposition(*args)
        dec.to_json()
        dec.reassemble()

    assert _sweep(build, 4) == []


@pytest.mark.parametrize(
    "low, high, value, message",
    [
        (None, None, 1.0, "n must be an integer, got 1.0"),
        (0, None, -1, "n must be an integer >= 0, got -1"),
        (None, 5, 6, "n must be an integer <= 5, got 6"),
        (1, 5, True, "n must be an integer in 1..5, got True"),
        (1, 5, "3", "n must be an integer in 1..5, got '3'"),
    ],
)
def test_check_int_words_every_refusal_alike(low, high, value, message):
    with pytest.raises(DomainError) as err:
        check_int("n", value, low, high)
    assert str(err.value) == message and err.value.code == "out-of-domain"
    for inside in (low, high, 3):
        if inside is not None:
            assert check_int("n", inside, low, high) is None


# (entry point, argument, the call on a value of the argument, a value the
# call answers).  Each was answered for a float at its binary value, for a
# bool as 0 or 1, or raised a raw TypeError for None.
THREE = Place.finite(3)
RATIONALS = [
    ("gamma_at", "s0", gamma_at, Fraction(1, 2)),
    ("zeta_ratio_at", "s0", zeta_ratio_at, Fraction(2)),
    ("archimedean_factor", "s0", lambda s0: archimedean_factor(s0, 4), Fraction(3)),
    ("unramified_intertwining_constant", "mu",
     lambda mu: unramified_intertwining_constant(3, mu, 1), Fraction(-1)),
    ("unramified_intertwining_constant", "s0",
     lambda s0: unramified_intertwining_constant(9, 1, s0), Fraction(1, 2)),
    ("LaurentScalar", "point", lambda point: LaurentScalar(point, 0), Fraction(3, 4)),
    ("PiScalar", "exponent", PiScalar.pi_power, Fraction(1, 2)),
    ("PiScalar", "coefficient", lambda c: PiScalar.pi_power(0, c), Fraction(3, 4)),
    ("PiScalar", "imaginary part", lambda im: PiScalar.pi_power(0, 1, im), Fraction(3, 4)),
    ("PiScalar.from_json", "exponent", lambda e: PiScalar.from_json([[e, "1", "0"]]), Fraction(1, 2)),
    ("PiScalar.from_json", "coefficient", lambda c: PiScalar.from_json([["0", c, "0"]]), Fraction(3, 4)),
    ("InfinitesimalCharacter", "lam", InfinitesimalCharacter, Fraction(3, 4)),
    ("QuadSpace2D", "a1", lambda a1: QuadSpace2D(a1, 1), Fraction(3, 4)),
    ("QuadSpace2D", "a2", lambda a2: QuadSpace2D(1, a2), Fraction(3, 4)),
    ("Collection", "discriminant", lambda disc: Collection(disc, ()), Fraction(-3, 4)),
    ("Collection.of", "discriminant", lambda disc: Collection.of(disc, {}), Fraction(-3, 4)),
    ("enumerate_definite_spaces", "discriminant",
     lambda disc: enumerate_definite_spaces(disc, 10), Fraction(-3, 4)),
    ("hilbert_symbol", "a", lambda a: hilbert_symbol(a, 3, THREE), Fraction(3, 4)),
    ("hilbert_symbol", "b", lambda b: hilbert_symbol(3, b, THREE), Fraction(3, 4)),
    ("reducibility", "s_re", lambda s: reducibility(3, TRIVIAL, s, 0), Fraction(1)),
    ("reducibility", "s_im", lambda s: reducibility(3, TRIVIAL, 0, s), Fraction(3, 4)),
    ("NearlyHolomorphicForm", "coefficient",
     lambda c: NearlyHolomorphicForm(4, 2, {(0, 0): c}), Fraction(3, 4)),
    ("NearlyHolomorphicForm.constant", "c", lambda c: NearlyHolomorphicForm.constant(c, 2), Fraction(3, 4)),
    ("NearlyHolomorphicForm.monomial", "c",
     lambda c: NearlyHolomorphicForm.monomial(4, 2, c=c), Fraction(3, 4)),
    ("ModuleClass", "lam", lambda lam: ModuleClass("simple", lam), Fraction(3, 4)),
    ("integral_parallel_filter", "lams", lambda lam: integral_parallel_filter([lam]), Fraction(3, 4)),
]
RATIONAL_IDS = [f"{name}-{argument}" for name, argument, *_ in RATIONALS]


@pytest.mark.parametrize("name, argument, call, inside", RATIONALS, ids=RATIONAL_IDS)
def test_no_float_bool_or_none_enters_a_rational_argument(name, argument, call, inside):
    for value in (0.5, 1.0, True, None):
        with pytest.raises(DomainError, match="bad rational literal") as err:
            call(value)
        assert err.value.code == "out-of-domain", (name, argument, value)


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="no digit limit"
)
@pytest.mark.parametrize("name, argument, call, inside", RATIONALS, ids=RATIONAL_IDS)
def test_a_rational_argument_past_the_digit_limit_is_refused_at_once(name, argument, call, inside):
    # QuadSpace2D("1e10000000", 1) built a 33-million-bit int for 12.8 s.
    start = time.perf_counter()
    with pytest.raises(DomainError, match="digits"):
        call("1e10000000")
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("name, argument, call, inside", RATIONALS, ids=RATIONAL_IDS)
def test_a_fraction_and_its_string_are_answered_alike(name, argument, call, inside):
    assert type(inside) is Fraction
    assert call(inside) == call(str(inside))


def test_a_bool_scalar_is_refused():
    # Each answered as a product with 1.
    with pytest.raises(DomainError, match="bad rational literal"):
        E4 * True
    with pytest.raises(DomainError, match="bad rational literal"):
        PiScalar.pi_power(0) * True
    assert E4 * Fraction(3, 4) == E4 * 3 * Fraction(1, 4)


def test_the_string_three_quarters_is_read_exactly():
    assert QuadSpace2D("3/4", 1).a1 == Fraction(3, 4)
    assert InfinitesimalCharacter("3/4").lam == Fraction(5, 4)


# (entry point, the call on a point s0).  The point is a rational whose
# absolute value is at most MAX_WEIGHT; past it the call is refused at once.
# unramified_intertwining_constant had no bound and built p^(s0*e) exactly:
# 0.1 s at s0 = 10^6, growing faster than s0.  zeta_ratio_at had none
# either, and answered 10^9; past the bound, supplied data is refused too.
POINTS = [
    ("gamma_at", gamma_at),
    ("archimedean_factor", lambda s0: archimedean_factor(s0, 0)),
    ("zeta_ratio_at", lambda s0: zeta_ratio_at(s0, ramified_L_data=LaurentScalar(s0, 0))),
    ("unramified_intertwining_constant", lambda s0: unramified_intertwining_constant(3, -1, s0)),
]


@pytest.mark.parametrize("name, call", POINTS, ids=[name for name, _ in POINTS])
def test_a_point_is_bounded_by_the_largest_weight(name, call):
    for s0 in (MAX_WEIGHT, -MAX_WEIGHT):
        call(s0)
    for s0 in (MAX_WEIGHT + 1, -MAX_WEIGHT - 1, 10**7, -(10**7)):
        start = time.perf_counter()
        with pytest.raises(DomainError) as err:
            call(s0)
        assert err.value.code == "out-of-domain", (name, s0)
        assert time.perf_counter() - start < 1.0, (name, s0)


# (entry point, the call on a Hasse sign).  Each took True as the sign 1, and
# Collection took any value, which check_coherence alone refused.
SIGNS = [
    ("LocalInvariant", lambda e: LocalInvariant(THREE, True, e)),
    ("Collection", lambda e: Collection(-1, ((THREE, e),))),
    ("Collection.of", lambda e: Collection.of(-1, {THREE: e})),
    ("unramified_eigenvalue", lambda e: unramified_eigenvalue(3, True, e)),
]


@pytest.mark.parametrize("name, call", SIGNS, ids=[name for name, _ in SIGNS])
def test_a_hasse_sign_is_the_int_one_or_minus_one(name, call):
    for value in (True, 1.0, 0, 2, "1"):
        with pytest.raises(DomainError, match="epsilon must be 1 or -1") as err:
            call(value)
        assert err.value.code == "out-of-domain", (name, value)
    call(1)
    call(-1)
