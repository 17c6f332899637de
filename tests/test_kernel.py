"""The Kronecker-substitution product kernel against a schoolbook convolution."""

from fractions import Fraction
import random

import pytest

from nhmf.series import NearlyHolomorphicForm, _convolve_into


def schoolbook(length, a, b):
    """[sum of a[i] * b[n - i] over i] for n < length, term by term."""
    out = [0] * length
    for i, x in enumerate(a[:length]):
        for j, y in enumerate(b[: length - i]):
            out[i + j] += x * y
    return out


def convolved(length, a, b, start=None):
    acc = list(start) if start is not None else [0] * length
    _convolve_into(acc, tuple(a), tuple(b))
    return acc


def check(length, a, b):
    assert convolved(length, a, b) == schoolbook(length, a, b)
    assert convolved(length, b, a) == schoolbook(length, a, b)


def edge(m):
    """2^(8m - 1) - 1: the largest entry an m-byte two's complement slot holds."""
    return (1 << (8 * m - 1)) - 1


def test_only_negative_entries():
    rng = random.Random(5)
    for length in (1, 2, 7, 40):
        a = [-rng.randrange(1, 10**6) for _ in range(length)]
        b = [-rng.randrange(1, 10**30) for _ in range(length)]
        check(length, a, b)
        check(length, a, [-1] * length)
        assert convolved(length, a, a) == schoolbook(length, a, a)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 8])
def test_entries_at_the_slot_edge(m):
    top = edge(m)
    for length in (1, 2, 3, 5, 16, 31, 33):
        for a in ([top] * length, [-top] * length, [(-1) ** i * top for i in range(length)]):
            for b in ([top] * length, [-top] * length, [-top - 1] * length, [(-1) ** (i // 2) * top for i in range(length)]):
                check(length, a, b)


def test_coefficients_that_fill_the_slot():
    # All entries of one magnitude 2^k - 1 and one sign: the middle
    # coefficient is min(len a, len b) * (2^k - 1)^2, as large as the slot
    # width bound allows, for every residue of the bound mod 8.
    for k in range(1, 20):
        for length in (1, 2, 3, 4, 7, 8, 15, 16, 17, 63, 64):
            big = (1 << k) - 1
            for sa, sb in ((1, 1), (1, -1), (-1, -1)):
                a, b = [sa * big] * length, [sb * big] * length
                assert convolved(2 * length - 1, a, b) == schoolbook(2 * length - 1, a, b)
                assert convolved(length, a, b) == schoolbook(length, a, b)


def test_entries_near_10_to_the_400():
    rng = random.Random(11)
    for length in (1, 3, 12, 50):
        a = [10**400 + rng.randrange(-10**6, 10**6) for _ in range(length)]
        b = [rng.choice((-1, 1)) * (10**400 - rng.randrange(10**6)) for _ in range(length)]
        check(length, a, b)
        check(length, a, [1] + [0] * (length - 1))
        check(length, [-x for x in a], [3, -2])


def test_zero_columns_and_zeros_at_the_ends():
    rng = random.Random(17)
    for length in (1, 2, 9, 30):
        zeros = [0] * length
        dense = [rng.randrange(-99, 100) or 1 for _ in range(length)]
        assert convolved(length, zeros, dense) == zeros
        assert convolved(length, dense, zeros) == zeros
        assert convolved(length, [], dense) == zeros
        assert convolved(length, zeros, zeros) == zeros
        for cut in range(length):
            front = [0] * cut + dense[cut:]
            back = dense[: length - cut] + [0] * cut
            check(length, front, dense)
            check(length, back, dense)
            check(length, front, back)
            check(length, back, back)
            check(length, front, front)


def test_accumulates_into_the_existing_entries():
    rng = random.Random(23)
    for length in (1, 4, 25):
        start = [rng.randrange(-10**9, 10**9) for _ in range(length)]
        a = [rng.randrange(-50, 50) for _ in range(length)]
        b = [rng.randrange(-10**20, 10**20) for _ in range(length)]
        want = [s + c for s, c in zip(start, schoolbook(length, a, b))]
        assert convolved(length, a, b, start) == want


def test_truncation_zero_and_columns_longer_than_the_accumulator():
    assert convolved(0, [1, 2], [3, 4]) == []
    assert convolved(1, [-7, 5, 1], [6, 9]) == [-42]
    rng = random.Random(29)
    for length in (1, 2, 5, 13):
        a = [rng.randrange(-10**12, 10**12) for _ in range(length + rng.randrange(12))]
        b = [rng.randrange(-5, 6) for _ in range(rng.randrange(1, 3 * length))]
        check(length, a, b)


def test_random_columns():
    rng = random.Random(31)
    for _ in range(400):
        length = rng.randrange(0, 40)
        bound = rng.choice((1, 2, 127, 128, 255, 2**31, 2**64, 10**50))
        a = [rng.randrange(-bound, bound + 1) * (rng.random() < 0.7) for _ in range(rng.randrange(45))]
        b = [rng.randrange(-bound, bound + 1) for _ in range(rng.randrange(45))]
        check(length, a, b)


# -- the form product --------------------------------------------------------------


def schoolbook_form_product(f, g):
    """f * g from the public terms, term by term."""
    trunc = min(f.truncation, g.truncation)
    out: dict[tuple[int, int], Fraction] = {}
    for (r1, n1), c1 in f.terms():
        for (r2, n2), c2 in g.terms():
            if n1 + n2 <= trunc:
                key = (r1 + r2, n1 + n2)
                out[key] = out.get(key, 0) + c1 * c2
    return NearlyHolomorphicForm(f.weight + g.weight, trunc, out)


def random_form(rng, weight, trunc, depth, bound):
    coeffs = {
        (r, n): Fraction(rng.randrange(-bound, bound + 1), rng.choice((1, 1, 2, 3, 12)))
        for r in range(depth + 1)
        for n in range(trunc + 1)
        if rng.random() < 0.6
    }
    coeffs[(depth, rng.randrange(trunc + 1))] = Fraction(rng.choice((-1, 1)) * bound)
    return NearlyHolomorphicForm(weight, trunc, coeffs)


def test_form_products_of_positive_depth_and_mismatched_truncations():
    rng = random.Random(37)
    for _ in range(60):
        f = random_form(rng, 2, rng.randrange(0, 25), rng.randrange(0, 4), rng.choice((3, 10**8, 10**400)))
        g = random_form(rng, 4, rng.randrange(0, 25), rng.randrange(0, 4), rng.choice((1, 10**5, 10**60)))
        want = schoolbook_form_product(f, g)
        assert f * g == want and g * f == want
        assert (f * g).truncation == min(f.truncation, g.truncation)
        assert f * f == schoolbook_form_product(f, f)


def test_form_products_at_truncation_zero():
    f = NearlyHolomorphicForm(2, 0, {(0, 0): Fraction(-3, 2), (2, 0): 5})
    g = NearlyHolomorphicForm(4, 7, {(0, 0): 4, (1, 0): Fraction(-1, 3), (0, 6): 9})
    assert f * g == schoolbook_form_product(f, g)
    assert (f * g).truncation == 0
    assert (f * g).coefficient(3, 0) == Fraction(-5, 3)
