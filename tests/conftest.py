"""Shared independent oracles for the test suite.

These recompute expected values from first principles (analytic operator
definitions, lattice enumeration, numeric evaluation) through code paths
disjoint from the library internals they check.  There are seven exceptions.
reference_level1_basis keeps an earlier construction of the library's
level-1 basis, one product per power of E4 and of E6, as the reference of
the current one, and reference_delta_cusp keeps the earlier construction of
Delta as (E4^3 - E6^2)/1728 as the reference of the library's q J^8 from
Jacobi's identity; both multiply with the library's form product, which
test_kernel checks against a schoolbook one.  solve_exact is an exact
linear solver over the library's reduced echelon form: test_arith checks it
against an independent Gauss-Jordan elimination, and the decompose and
verify tests use it as the reference of their span tests.
sequential_reduce_by keeps the earlier reduce_by, one primitive elimination
per pivot in turn, as the reference of the one-pass one, and
composed_casimir keeps the earlier Casimir, composed of four form
operations, as the reference of its closed form.
divisor_power_sum, sigma_e by trial division up to the square root, is a
second path to the divisor sums that the library builds by multiplicativity
for its Eisenstein series: test_generators checks it against
brute_divisor_sum and uses it as the reference of the library's.
reference_parser keeps the argparse front end that the CLI had before its
command table, as the reference of the table's parser in test_cli_parse.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Optional

import pytest

from nhmf.arith import check_int, read_rational, reduce_by, reduced_echelon
from nhmf.generators import eisenstein
from nhmf.operators import lower_weight, raise_weight
from nhmf.pi_scalar import PiScalar
from nhmf.series import NearlyHolomorphicForm

# Analytic ingredients, as PiScalar identities:
#   1/y = 4*pi*X,   dX/dz = 2*pi*i*X^2,   dX/dzbar = -2*pi*i*X^2,
#   d(q^n)/dz = 2*pi*i*n*q^n,   y^2 X^2 = 1/(16*pi^2).
FOUR_PI = PiScalar.pi_power(1, 4)
TWO_PI_I = PiScalar.pi_power(1, 0, 2)
TWO_I = PiScalar.gaussian(0, 2)


def oracle_raise(f: NearlyHolomorphicForm) -> NearlyHolomorphicForm:
    """Apply R_k = k/y + 2i d/dz term by term, then divide by -4*pi."""
    k = f.weight
    acc: dict[tuple[int, int], PiScalar] = {}

    def add(key, scalar):
        acc[key] = acc.get(key, PiScalar.zero()) + scalar

    for (r, n), c in f.terms():
        coeff = PiScalar.rational(c)
        # (k/y) X^r q^n = 4*pi*k X^(r+1) q^n
        add((r + 1, n), FOUR_PI * PiScalar.rational(k) * coeff)
        # 2i * r X^(r-1) (dX/dz) q^n = 2i * 2*pi*i * r X^(r+1) q^n
        if r:
            add((r + 1, n), TWO_I * TWO_PI_I * PiScalar.rational(r) * coeff)
        # 2i * X^r * 2*pi*i*n q^n
        if n:
            add((r, n), TWO_I * TWO_PI_I * PiScalar.rational(n) * coeff)
    inv = PiScalar.pi_power(1, -4).invert()  # 1 / (-4*pi)
    out = {}
    for key, scalar in acc.items():
        value = (scalar * inv).as_fraction()  # must land back in Q
        if value:
            out[key] = value
    return NearlyHolomorphicForm(k + 2 if out else None, f.truncation, out)


def oracle_lower(f: NearlyHolomorphicForm) -> NearlyHolomorphicForm:
    """Apply L_k = -2i y^2 d/dzbar term by term, then divide by -1/(4*pi)."""
    acc: dict[tuple[int, int], PiScalar] = {}
    minus_two_i = PiScalar.gaussian(0, -2)
    minus_two_pi_i = PiScalar.pi_power(1, 0, -2)
    inv_16_pi2 = PiScalar.pi_power(-2, Fraction(1, 16))  # y^2 X^2
    for (r, n), c in f.terms():
        if not r:
            continue  # q^n is anti-holomorphic-constant
        # -2i y^2 r X^(r-1) (dX/dzbar) q^n = -2i * -2*pi*i * r (y^2 X^2) X^(r-1) q^n
        scalar = (
            minus_two_i
            * minus_two_pi_i
            * PiScalar.rational(r * c)
            * inv_16_pi2
        )
        key = (r - 1, n)
        acc[key] = acc.get(key, PiScalar.zero()) + scalar
    inv = PiScalar.pi_power(-1, Fraction(-1, 4)).invert()  # 1 / (-1/(4*pi))
    out = {}
    for key, scalar in acc.items():
        value = (scalar * inv).as_fraction()
        if value:
            out[key] = value
    weight = f.weight - 2 if out else None
    return NearlyHolomorphicForm(weight, f.truncation, out)


def solve_exact(columns, target) -> Optional[list[Fraction]]:
    """Solve target = sum x_i columns_i over Fraction dicts; None if outside.

    Columns and target map the same kind of key (an int, an (r, n) pair, ...)
    to coefficients; a missing key is 0.  Free variables are set to 0, so an
    independent set of columns gives the unique solution.

    Each column i, times the lcm d_i of its denominators, is extended by its
    coordinates (d_i at slot i) and a 0; the target, times d, by zero
    coordinates and d.  Every vector (key part, coordinates, scale) then has
    key part = sum coordinates_i * columns_i + scale * target, and reducing
    the target by the reduced echelon form of the columns keeps that
    identity, so a target reduced to a zero key part gives
    target = sum (-coordinates_i / scale) * columns_i.
    """
    keys = sorted(set(target) | {k for col in columns for k in col})
    width, ncols = len(keys), len(columns)

    def cleared(col) -> tuple[list[int], int]:
        values = [read_rational(col.get(key, 0)) for key in keys]
        den = lcm(*(x.denominator for x in values))
        return [(x * den).numerator for x in values], den

    vectors = []
    for i, col in enumerate(columns):
        v, den = cleared(col)
        tail = [0] * (ncols + 1)
        tail[i] = den
        vectors.append(v + tail)
    t, den = cleared(target)
    rest = reduce_by(reduced_echelon(vectors, width), t + [0] * ncols + [den])
    if any(rest[:width]):
        return None
    return [Fraction(-x, rest[-1]) for x in rest[width:-1]]


def sequential_reduce_by(rows, v) -> list[int]:
    """v reduced by the rows of a reduced echelon form one pivot at a time:
    r[p] v - v[p] r at each pivot p with v[p] != 0, made primitive each
    time."""
    for p, r in rows:
        if v[p]:
            a, b = r[p], v[p]
            v = [a * x - b * y for x, y in zip(v, r)]
            g = gcd(*v)
            v = [x // g for x in v] if g > 1 else v
    return list(v)


def composed_casimir(f: NearlyHolomorphicForm) -> NearlyHolomorphicForm:
    """(k^2 - 2k) f + 4 delta_(k-2) Lambda f, composed of the form product
    by a scalar, lowering, raising and the form sum."""
    if f.is_zero:
        return f
    k = f.weight
    return f * Fraction(k * k - 2 * k) + raise_weight(lower_weight(f)) * 4


def reference_level1_basis(k: int, truncation: int) -> list[NearlyHolomorphicForm]:
    """The monomials E4^a E6^b with 4a + 6b = k, in decreasing a, from powers
    of E4 and E6 built incrementally, one product per power, and one more
    product for each monomial with a, b > 0."""
    exponents = [(a, (k - 4 * a) // 6) for a in range(k // 4, -1, -1) if (k - 4 * a) % 6 == 0]
    if not exponents:
        return []
    one = NearlyHolomorphicForm.constant(1, truncation)

    def powers(w: int, top: int) -> list[NearlyHolomorphicForm]:
        # [1, E_w, E_w^2, ..., E_w^top]
        out = [one]
        if top:
            e = eisenstein(w, truncation)
            out.append(e)
            while len(out) <= top:
                out.append(out[-1] * e)
        return out

    e4 = powers(4, exponents[0][0])
    e6 = powers(6, exponents[-1][1])
    return [e4[a] * e6[b] if a and b else (e4[a] if a else e6[b]) for a, b in exponents]


def reference_delta_cusp(truncation: int) -> NearlyHolomorphicForm:
    """The normalized weight-12 cusp form as (E4^3 - E6^2)/1728."""
    e4 = eisenstein(4, truncation)
    e6 = eisenstein(6, truncation)
    return (e4 * e4 * e4 - e6 * e6) * Fraction(1, 1728)


def divisor_power_sum(n: int, e: int) -> int:
    """sigma_e(n) = sum of d^e over positive divisors d of n; 0 for n = 0."""
    check_int("n", n, 0)
    check_int("e", e, 0)
    acc = 0
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            acc += d**e
            if d * d != n:
                acc += (n // d) ** e
    return acc


def brute_divisor_sum(n: int, e: int) -> int:
    return sum(d**e for d in range(1, n + 1) if n % d == 0)


def brute_theta_counts(a: int, b: int, c: int, n_max: int) -> list[int]:
    """Representation numbers by scanning the full |x|, |y| <= n_max box."""
    counts = [0] * (n_max + 1)
    box = n_max  # crude but safely contains {Q <= n_max} for the forms tested
    for x in range(-box, box + 1):
        for y in range(-box, box + 1):
            v = a * x * x + b * x * y + c * y * y
            if 0 <= v <= n_max:
                counts[v] += 1
    return counts


def mpf_of(x: Fraction):
    import mpmath

    x = Fraction(x)
    return mpmath.mpf(x.numerator) / mpmath.mpf(x.denominator)


def pi_scalar_to_complex(scalar: PiScalar):
    import mpmath

    total = mpmath.mpc(0)
    for e, (re, im) in scalar.terms():
        total += mpmath.mpc(mpf_of(re), mpf_of(im)) * mpmath.pi ** mpf_of(e)
    return total


def assert_laurent_matches_numeric(germ, func, rel_tol=1e-4, eps=1e-6):
    """Check func(s0 + eps) against leading * eps^order within rel_tol."""
    import mpmath

    mpmath.mp.dps = 40
    s = mpf_of(germ.point) + mpmath.mpf(eps)
    got = func(s)
    want = pi_scalar_to_complex(germ.leading) * mpmath.mpf(eps) ** germ.order
    assert abs(got - want) <= rel_tol * abs(want), (germ, got, want)


@pytest.fixture(scope="session")
def mp():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    return mpmath


def reference_parser():
    """The argparse front end of nhmf.cli before its command table, as the
    reference of the table's parser.  A command's handler is its name
    ("eis", "local hilbert"), None where a subcommand is missing; -h,
    --help and --version print to stdout and raise SystemExit(0)."""
    import argparse
    import re

    from nhmf import __version__
    from nhmf.errors import UsageError

    class Parser(argparse.ArgumentParser):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            # A negative fraction such as -3/4 is an argument wherever -3 is.
            self._negative_number_matcher = re.compile(r"^-\d+(/\d+)?$|^-\d*\.\d+$")

        def error(self, message):
            raise UsageError(message)

    parser = Parser(prog="nhmf")
    parser.add_argument("--version", action="version", version=f"nhmf {__version__}")
    sub = parser.add_subparsers(dest="command")
    parser.set_defaults(handler=None)

    def common(p, handler, with_trunc=False, with_in=False):
        p.set_defaults(handler=handler)
        p.add_argument("--out", default=None)
        p.add_argument("--json-indent", type=int, default=None)
        if with_trunc:
            p.add_argument("--trunc", type=int, required=True)
        if with_in:
            p.add_argument("--in", dest="infile", default="-")

    p = sub.add_parser("eis")
    p.add_argument("--k", type=int, required=True)
    common(p, "eis", with_trunc=True)
    common(sub.add_parser("e2"), "e2", with_trunc=True)
    p = sub.add_parser("theta")
    for name in ("--a", "--b", "--c"):
        p.add_argument(name, type=int, required=True)
    common(p, "theta", with_trunc=True)
    for name in ("raise", "lower"):
        p = sub.add_parser(name)
        common(p, name, with_in=True)
        p.add_argument("--analytic", action="store_true")
    common(sub.add_parser("casimir"), "casimir", with_in=True)
    common(sub.add_parser("decompose"), "decompose", with_in=True)
    common(sub.add_parser("identify"), "identify", with_in=True)
    p = sub.add_parser("constant-term")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--character", choices=["trivial", "sgn", "quadratic", "other"], default="trivial")
    p.add_argument("--local-order", type=int, action="append", default=[])
    common(p, "constant-term")
    p = sub.add_parser("local")
    p.set_defaults(handler=None)
    lsub = p.add_subparsers(dest="local_command")
    lp = lsub.add_parser("hilbert")
    for name in ("a", "b", "v"):
        lp.add_argument(name)
    common(lp, "local hilbert")
    lp = lsub.add_parser("invariants")
    lp.add_argument("a1")
    lp.add_argument("a2")
    common(lp, "local invariants")
    lp = lsub.add_parser("coherent")
    lp.add_argument("collection")
    common(lp, "local coherent")
    lp = lsub.add_parser("reducible")
    lp.add_argument("--q", required=True)
    lp.add_argument("--mu-order", choices=["1", "2", "other"], default="1")
    lp.add_argument("--ramified", action="store_true")
    lp.add_argument("--real-sign", type=int, choices=[0, 1], default=0)
    lp.add_argument("--s-re", default="0")
    lp.add_argument("--s-im", default="0")
    common(lp, "local reducible")
    p = sub.add_parser("catalog")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    common(p, "catalog")
    common(sub.add_parser("verify"), "verify")
    return parser
