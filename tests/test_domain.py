"""The integer arguments of every public entry point, at and past their bounds.

Each row names an entry point, one of its integer arguments and that
argument's bounds, and calls the entry point with every other argument in
its domain.  A bool, a float and a Fraction of integral value, a value just
below the lower bound and a value just past the upper bound must each be
refused with DomainError, and the bounds themselves must be answered.  An end given as
None is open: nothing is refused there.
"""

from fractions import Fraction

import pytest

from nhmf.arith import MAX_DEGREE, MAX_TRUNCATION, MAX_WEIGHT, check_int, prime_power_base
from nhmf.category_o import catalog
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
from nhmf.laurent import (
    archimedean_factor,
    constant_term_report,
    unramified_intertwining_constant,
)
from nhmf.operators import iterate_lower, iterate_raise
from nhmf.quadratic import (
    CharacterDescriptor,
    enumerate_definite_spaces,
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
    ("archimedean_factor", "ell", lambda ell: archimedean_factor(1, ell), -MAX_WEIGHT, MAX_WEIGHT),
    ("archimedean_factor", "d", lambda d: archimedean_factor(1, 4, d), 1, MAX_DEGREE),
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
