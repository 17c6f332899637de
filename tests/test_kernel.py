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


# -- the two-point split: even- and odd-index halves -------------------------------


def squared(length, a, start=None):
    """The kernel's square of a, passing one tuple as both columns."""
    acc = list(start) if start is not None else [0] * length
    col = tuple(a)
    _convolve_into(acc, col, col)
    return acc


def slot_bytes(a, b):
    """The slot width in bytes that the kernel's bound gives for a and b."""
    bits = max(map(abs, a)).bit_length() + max(map(abs, b)).bit_length()
    return (bits + min(len(a), len(b)).bit_length() + 1 + 7) // 8


def test_every_parity_of_the_lengths():
    rng = random.Random(41)
    for len_a in range(1, 8):
        for len_b in range(1, 8):
            for length in range(1, len_a + len_b + 2):
                a = [rng.randrange(-10**6, 10**6) or 1 for _ in range(len_a)]
                b = [rng.randrange(-99, 100) or -1 for _ in range(len_b)]
                start = [rng.randrange(-10**9, 10**9) for _ in range(length)]
                want = [s + c for s, c in zip(start, schoolbook(length, a, b))]
                assert convolved(length, a, b, start) == want
                assert convolved(length, b, a, start) == want


def test_one_entry_columns_and_one_output_slot():
    # A one-entry column has an empty odd half, and out = 1 reads no odd slot.
    for x, y in ((1, 1), (-1, 1), (-5, -7), (10**40, -(10**40) + 3), (edge(3), -edge(3) - 1)):
        for length in (1, 2, 3, 4):
            check(length, [x], [y])
            check(length, [x], [y, -x, 2 * y])
            assert squared(length, [x]) == schoolbook(length, [x], [x])
        assert convolved(1, [x, y, 5], [y, x]) == [x * y]
        assert convolved(1, [x], [y], [9]) == [9 + x * y]
        assert squared(1, [x, y]) == [x * x]


def test_a_square_at_each_parity():
    rng = random.Random(43)
    for len_a in range(1, 10):
        for length in range(1, 2 * len_a + 2):
            for bound in (1, 200, 10**25):
                a = [rng.randrange(-bound, bound + 1) for _ in range(len_a)]
                a[rng.randrange(len_a)] = bound
                start = [rng.randrange(-50, 50) for _ in range(length)]
                want = [s + c for s, c in zip(start, schoolbook(length, a, a))]
                assert squared(length, a, start) == want
                assert convolved(length, a, a, start) == want


@pytest.mark.parametrize("m", [1, 3, 5])
def test_odd_slot_widths_where_the_half_slot_is_no_whole_byte(m):
    # s / 2 = 4m bits: the odd half is shifted by a whole number of bytes
    # only for even m.  Entries of one magnitude 2^k - 1, with k chosen so
    # that the bound asks for exactly m bytes, fill the slot as far as the
    # bound allows.
    rng = random.Random(47 + m)
    for len_a in (1, 2, 3, 4, 5):
        for len_b in (1, 2, 3, 6, 7):
            spare = 8 * m - min(len_a, len_b).bit_length() - 1
            for k in sorted({1, spare // 2, spare - 1}):
                big_a, big_b = (1 << k) - 1, (1 << (spare - k)) - 1
                for signs in range(4):
                    a = [(-1) ** (signs & 1) * big_a] * len_a
                    b = [(-1) ** (signs >> 1) * big_b] * len_b
                    assert slot_bytes(a, b) == m
                    for length in range(1, len_a + len_b + 1):
                        check(length, a, b)
                    mixed = [rng.choice((-1, 1)) * big_a for _ in range(len_a)]
                    check(len_a + len_b - 1, mixed, b)
                    if slot_bytes(mixed, mixed) == m:
                        for length in range(1, 2 * len_a):
                            assert squared(length, mixed) == schoolbook(length, mixed, mixed)


def divisor_sums_up_to(e, n_max):
    """[0, sigma_e(1), ..., sigma_e(n_max)], adding d^e to every multiple of d."""
    sums = [0] * (n_max + 1)
    for d in range(1, n_max + 1):
        power = d**e
        for n in range(d, n_max + 1, d):
            sums[n] += power
    return sums


def test_eisenstein_products_at_truncation_2000():
    # E4 E4 = E8 and E4 E6 = E10, the spaces being one-dimensional: long
    # columns, so the two half-size products run at Karatsuba sizes.
    n_max = 2000

    def series(c, e):
        # 1 + c sum sigma_e(n) q^n, of weight e + 1
        sums = divisor_sums_up_to(e, n_max)
        return NearlyHolomorphicForm(e + 1, n_max, {(0, n): c * x if n else 1 for n, x in enumerate(sums)})

    e4, e6, e8, e10 = series(240, 3), series(-504, 5), series(480, 7), series(-264, 9)
    assert e4 * e4 == e8
    assert e4 * e6 == e10 and e6 * e4 == e10


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
