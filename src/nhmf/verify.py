"""Self-contained invariant suite behind the ``verify`` CLI subcommand.

Each property is a deterministic check (fixed seeds, exact arithmetic) of one
of the structural laws the engine is built on.  The suite is a smaller,
dependency-free sibling of the test suite: everything here runs with the
standard library only and finishes in seconds.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .arith import Record, reduce_by, reduced_echelon
from .category_o import (
    catalog,
    classify_block,
    composition_factors,
    identify_module,
    simple,
    trivial,
)
from .decompose import character_split, decompose
from .generators import (
    BinaryForm,
    eisenstein,
    eisenstein2,
    level1_basis,
    theta_series,
)
from .laurent import LaurentScalar, archimedean_factor
from .operators import (
    casimir,
    infinitesimal_character,
    iterate_lower,
    iterate_raise,
    lower_weight,
    raise_weight,
)
from .pi_scalar import PiScalar
from .quadratic import (
    Place,
    QuadSpace2D,
    check_coherence,
    collection_of,
    hilbert_symbol,
    is_local_square,
    local_invariants,
    reducibility,
    relevant_places,
    unit_part,
    padic_valuation,
    unramified_eigenvalue,
    CharacterDescriptor,
)
from .series import NearlyHolomorphicForm


class PropertyResult(Record):
    _fields = ("name", "passed", "detail")

    def __init__(self, name: str, passed: bool, detail: str = ""):
        self.name = name
        self.passed = passed
        self.detail = detail

    def to_json(self) -> dict:
        return {"name": self.name, "pass": self.passed, "detail": self.detail}


# A check returns whether it passed, or (passed, detail); its name, less the
# "check_" prefix and with dashes for underscores, names the property.
Outcome = bool | tuple[bool, str]


def _random_form(rng: random.Random, weight: int, trunc: int, nterms=6):
    coeffs = {}
    for _ in range(nterms):
        r = rng.randrange(0, 4)
        n = rng.randrange(0, trunc + 1)
        coeffs[(r, n)] = Fraction(rng.randrange(-9, 10), rng.randrange(1, 7))
    return NearlyHolomorphicForm(weight, trunc, coeffs)


def _suite_forms(trunc: int = 16):
    """Raised level-1 seeds and the weight-two Eisenstein orbit."""
    out = []
    for w in (0, 4, 6, 8, 12):
        for g in level1_basis(w, trunc):
            for r in range(0, 3):
                out.append(iterate_raise(g, r))
    e2 = eisenstein2(trunc)
    for r in range(0, 3):
        out.append(iterate_raise(e2, r))
    return [f for f in out if not f.is_zero]


# -- individual properties ---------------------------------------------------


def check_series_ring_axioms() -> Outcome:
    rng = random.Random(101)
    for _ in range(25):
        w = rng.choice([0, 2, 4])
        f, g, h = (_random_form(rng, w, 12) for _ in range(3))
        if ((f * g) * h) != (f * (g * h)):
            return False, "associativity"
        if (f * (g + h)) != (f * g + f * h):
            return False, "distributivity"
        if f + g != g + f or f * g != g * f:
            return False, "commutativity"
    return True


def check_truncation_monotonicity() -> Outcome:
    pairs = [
        (eisenstein(4, 40), eisenstein(4, 25)),
        (eisenstein2(40), eisenstein2(25)),
        (theta_series(BinaryForm(1, 0, 1), 40), theta_series(BinaryForm(1, 0, 1), 25)),
        (eisenstein(4, 40) * eisenstein(6, 40), eisenstein(4, 25) * eisenstein(6, 25)),
    ]
    return all(big.truncate(25) == small for big, small in pairs)


def check_pi_scalar_axioms() -> Outcome:
    root_pi = PiScalar.pi_power(Fraction(1, 2))
    if root_pi * root_pi != PiScalar.pi_power(1):
        return False, "(sqrt pi)^2"
    i = PiScalar.gaussian(0, 1)
    if i * i != PiScalar.rational(-1):
        return False, "i^2"
    rng = random.Random(7)

    def sample():
        return PiScalar(
            {
                Fraction(rng.randrange(-4, 5), rng.choice([1, 2])): (
                    Fraction(rng.randrange(-5, 6)),
                    Fraction(rng.randrange(-5, 6)),
                )
                for _ in range(3)
            }
        )

    for _ in range(100):
        x, y = sample(), sample()
        if x * y != y * x:
            return False, "commutativity"
    return True


def check_sl2_commutation() -> Outcome:
    for f in _suite_forms():
        k = f.weight
        lhs = lower_weight(raise_weight(f)) - raise_weight(lower_weight(f))
        if lhs != f * Fraction(-k):
            return False, f"weight {k}"
    return True


def check_lowering_kernel() -> Outcome:
    return all(lower_weight(f).is_zero == (f.depth == 0) for f in _suite_forms())


def check_depth_bookkeeping() -> Outcome:
    for f in _suite_forms():
        if raise_weight(f).depth > f.depth + 1:
            return False, "raise"
        if f.depth >= 1 and lower_weight(f).depth != f.depth - 1:
            return False, "lower"
    return True


def check_casimir_centrality() -> Outcome:
    for f in _suite_forms():
        if casimir(raise_weight(f)) != raise_weight(casimir(f)):
            return False, "raise"
        if casimir(lower_weight(f)) != lower_weight(casimir(f)):
            return False, "lower"
    return True


def check_lowering_nilpotence() -> Outcome:
    return all(iterate_lower(f, f.depth + 1).is_zero for f in _suite_forms())


def check_character_raising_invariance() -> Outcome:
    for w in (4, 6, 12):
        for g in level1_basis(w, 14):
            base = infinitesimal_character(g)
            for r in (1, 2, 3):
                if infinitesimal_character(iterate_raise(g, r)) != base:
                    return False
    e2 = eisenstein2(14)
    base = infinitesimal_character(e2)
    return all(infinitesimal_character(iterate_raise(e2, r)) == base for r in (1, 2))


def chi_minus4(d: int) -> int:
    if d % 2 == 0:
        return 0
    return 1 if d % 4 == 1 else -1


def check_siegel_weil_desk() -> Outcome:
    n_max = 50
    theta = theta_series(BinaryForm(1, 0, 1), n_max)
    for n in range(n_max + 1):
        expected = (
            Fraction(1)
            if n == 0
            else 4 * sum(chi_minus4(d) for d in range(1, n + 1) if n % d == 0)
        )
        if theta.coefficient(0, n) != expected:
            return False, f"n = {n}"
    return True


def _quasimodular_monomials(weight: int, trunc: int):
    """Monomials X^r P^a E4^b E6^c of the given weight, P = -E2-series."""
    p_star = -eisenstein2(trunc)
    x_mono = NearlyHolomorphicForm.monomial(2, trunc, r=1)
    out = []
    for r in range(weight // 2 + 1):
        for a in range((weight - 2 * r) // 2 + 1):
            g = NearlyHolomorphicForm.constant(1, trunc)
            for _ in range(r):
                g = g * x_mono
            for _ in range(a):
                g = g * p_star
            out += [g * m for m in level1_basis(weight - 2 * r - 2 * a, trunc)]
    return out


def check_quasimodular_closure() -> Outcome:
    """R(E2), R(E4) and R(E6) lie in the span of the quasimodular monomials
    of their weight: reduced by the echelon form of the monomials' integer
    columns, laid end to end, each leaves nothing."""
    trunc = 12
    targets = [eisenstein2(trunc)] + level1_basis(4, trunc) + level1_basis(6, trunc)
    for f in targets:
        img = raise_weight(f)
        width = (img.weight // 2 + 1) * (trunc + 1)

        def flat(g):
            entries = [x for col in g._cols for x in col]
            return entries + [0] * (width - len(entries))

        rows = reduced_echelon(map(flat, _quasimodular_monomials(img.weight, trunc)), width)
        if any(reduce_by(rows, flat(img))):
            return False, f"weight {img.weight}"
    return True


def check_ramanujan_identity() -> Outcome:
    trunc = 20
    p_star = -eisenstein2(trunc)
    lhs = raise_weight(p_star)
    rhs = (p_star * p_star - eisenstein(4, trunc)) * Fraction(1, 12)
    return lhs == rhs


def random_decomposable(rng: random.Random, trunc: int) -> NearlyHolomorphicForm:
    """A seeded level-1 form of weight 4..24: up to three raised holomorphic
    seeds at distinct depths <= 5, plus a raised weight-two Eisenstein seed
    with probability 0.4 when its depth is <= 5.  May be zero."""
    weight = rng.choice(range(4, 26, 2))
    f = NearlyHolomorphicForm.zero(trunc)
    used = set()
    for _ in range(rng.randrange(1, 4)):
        ell = rng.randrange(0, min(5, max(0, (weight - 4) // 2)) + 1)
        w = weight - 2 * ell
        basis = level1_basis(w, trunc)
        if not basis or ell in used:
            continue
        used.add(ell)
        g = NearlyHolomorphicForm.zero(trunc)
        for b in basis:
            g = g + b * Fraction(rng.randrange(-6, 7), rng.choice([1, 2, 3]))
        f = f + iterate_raise(g, ell)
    if rng.random() < 0.4 and (weight - 2) // 2 <= 5:
        f = f + iterate_raise(eisenstein2(trunc), (weight - 2) // 2) * Fraction(
            rng.randrange(-4, 5), rng.choice([1, 2])
        )
    return f


def check_decompose_roundtrip() -> Outcome:
    rng = random.Random(2024)
    trunc = 30
    done = 0
    while done < 40:
        f = random_decomposable(rng, trunc)
        if f.is_zero:
            continue
        done += 1
        dec = decompose(f)
        if dec.reassemble() != f:
            return False, repr(f)
    e2 = eisenstein2(trunc)
    dec = decompose(e2)
    if dec.terms or dec.e2_term != (0, Fraction(1)):
        return False, "weight-two seed"
    return True


def check_decompose_uniqueness() -> Outcome:
    rng = random.Random(77)
    trunc = 26
    for _ in range(10):
        f = random_decomposable(rng, trunc)
        if f.is_zero:
            continue
        d1 = decompose(f)
        # Rebuild from raw coefficients (a fresh object) and re-peel.
        f2 = NearlyHolomorphicForm(f.weight, trunc, dict(f.terms()))
        d2 = decompose(f2)
        if d1.terms != d2.terms or d1.e2_term != d2.e2_term:
            return False
    return True


def check_character_stratification() -> Outcome:
    trunc = 20
    e4 = eisenstein(4, trunc)
    e6 = eisenstein(6, trunc)
    mixed = iterate_raise(e4, 1) + e6
    parts = character_split(mixed)
    if len(parts) != 2:
        return False, "split size"
    total = NearlyHolomorphicForm.zero(trunc)
    for char, piece in parts.items():
        total = total + piece
        if infinitesimal_character(piece) != char:
            return False, "component"
    if total != mixed:
        return False, "sum"
    # Eigenform decompositions stay in one character.
    for f in (iterate_raise(e4, 2), iterate_raise(eisenstein2(trunc), 1)):
        if len(character_split(f)) != 1:
            return False, "eigenform"
    return True


def check_laurent_multiplicativity() -> Outcome:
    rng = random.Random(5)
    point = Fraction(1)
    for _ in range(50):
        factors = []
        for _ in range(rng.randrange(2, 5)):
            order = rng.randrange(-2, 3)
            lead = PiScalar.pi_power(
                Fraction(rng.randrange(-2, 3)),
                Fraction(rng.randrange(1, 9)) * rng.choice([1, -1]),
            )
            factors.append(LaurentScalar.of(point, order, lead))
        prod = factors[0]
        for x in factors[1:]:
            prod = prod * x
        want_order = sum(x.order for x in factors)
        want_lead = PiScalar.one()
        for x in factors:
            want_lead = want_lead * x.leading
        if prod.order != want_order or prod.leading != want_lead:
            return False
    return True


def check_xi_parity() -> Outcome:
    # The (-i)^ell front factor makes leadings purely imaginary for odd ell
    # and purely real for even ell (Gaussian-rational grading).
    for ell in range(0, 6):
        for s0 in range(-1, 4):
            germ = archimedean_factor(s0, ell, 1)
            lead = germ.leading
            if ell % 2 == 0 and not lead.is_real:
                return False, f"ell={ell}, s0={s0}"
            if ell % 2 == 1 and not lead.is_imaginary:
                return False, f"ell={ell}, s0={s0}"
    return True


def check_xi_selfdual_point() -> Outcome:
    germ = archimedean_factor(0, 1, 1)
    return germ.order == 0 and not germ.is_zero, f"order {germ.order}"


def _random_rational(rng: random.Random, bound: int) -> Fraction:
    num = rng.randrange(1, bound + 1) * rng.choice([1, -1])
    den = rng.randrange(1, bound + 1)
    return Fraction(num, den)


def check_hilbert_symmetry_bilinearity() -> Outcome:
    rng = random.Random(31)
    for _ in range(120):
        a, b, c = (_random_rational(rng, 30) for _ in range(3))
        for v in relevant_places(a, b, c):
            if hilbert_symbol(a, b, v) != hilbert_symbol(b, a, v):
                return False, "symmetry"
            lhs = hilbert_symbol(a, b * c, v)
            rhs = hilbert_symbol(a, b, v) * hilbert_symbol(a, c, v)
            if lhs != rhs:
                return False, "bilinearity"
            if hilbert_symbol(a, b * c * c, v) != hilbert_symbol(a, b, v):
                return False, "square-class"
    return True


def check_hilbert_reciprocity() -> Outcome:
    rng = random.Random(13)
    for _ in range(200):
        a = _random_rational(rng, 10**4)
        b = _random_rational(rng, 10**4)
        prod = 1
        for v in relevant_places(a, b):
            prod *= hilbert_symbol(a, b, v)
        if prod != 1:
            return False, f"{a}, {b}"
    return True


def solvability_oracle(a, b, p: int) -> int:
    """Brute-force value of (a, b)_p: +-1 by searching primitive solutions of
    a x^2 + b y^2 = z^2 over Z/p^k.

    Denominators and even prime powers are removed by square scaling (a plain
    change of variables), leaving valuations in {0, 1}; a primitive solution
    mod p^3 (odd p; mod 2^6 at p = 2) then lifts by Hensel, so the search is
    exact.  Slow; intended for cross-checks only.
    """
    a, b = Fraction(a), Fraction(b)
    a = a * a.denominator**2
    b = b * b.denominator**2
    av, bv = padic_valuation(a, p), padic_valuation(b, p)
    a = int(a / Fraction(p) ** (av - av % 2))
    b = int(b / Fraction(p) ** (bv - bv % 2))
    k = 6 if p == 2 else 3
    mod = p**k
    squares = {(z * z) % mod for z in range(mod)}
    unit_squares = {(z * z) % mod for z in range(mod) if z % p}
    a_mod, b_mod = a % mod, b % mod
    by2 = [(b_mod * y * y) % mod for y in range(mod)]
    for x in range(mod):
        ax2 = (a_mod * x * x) % mod
        x_unit = x % p != 0
        for y in range(mod):
            v = (ax2 + by2[y]) % mod
            if x_unit or y % p:
                if v in squares:
                    return 1
            elif v in unit_squares:
                return 1
    return -1


def check_hilbert_oracle_agreement() -> Outcome:
    values = [Fraction(v) for v in (1, -1, 2, -2, 3, -3, 5, -5, 6, 10)] + [
        Fraction(1, 2),
        Fraction(-3, 2),
    ]
    cache = {}
    for p in (2, 3, 5, 7):
        place = Place.finite(p)
        for a in values:
            for b in values:
                key = (
                    unit_part(a, p) * p ** (padic_valuation(a, p) % 2),
                    unit_part(b, p) * p ** (padic_valuation(b, p) % 2),
                    p,
                )
                if key not in cache:
                    cache[key] = solvability_oracle(key[0], key[1], p)
                if cache[key] != hilbert_symbol(a, b, place):
                    return False, f"({a},{b})_{p}"
    return True


def check_coherence_realizability() -> Outcome:
    rng = random.Random(99)
    for _ in range(25):
        space = QuadSpace2D(_random_rational(rng, 20), _random_rational(rng, 20))
        coll = collection_of(space)
        result = check_coherence(coll)
        if not result.coherent or result.witness is None:
            return False, repr(space)
        witness = result.witness
        for v in relevant_places(space.a1, space.a2, witness.a1, witness.a2, space.discriminant):
            # Both invariants are taken at v, so they agree iff chi and epsilon do.
            if local_invariants(space, v) != local_invariants(witness, v):
                return False, f"{space} at {v.render()}"
    return True


def check_coherence_flip() -> Outcome:
    rng = random.Random(17)
    flips = 0
    for _ in range(40):
        space = QuadSpace2D(_random_rational(rng, 20), _random_rational(rng, 20))
        coll = collection_of(space)
        for place in [pl for pl, _ in coll.epsilons]:
            if is_local_square(coll.discriminant, place):
                continue
            flipped = coll.flip(place)
            if check_coherence(flipped).coherent:
                return False, place.render()
            flips += 1
    return flips > 0, f"{flips} flips"


def check_reducibility_eigenvalue_coherence() -> Outcome:
    for q in (2, 3, 5, 7, 9):
        verdict = reducibility(q, CharacterDescriptor(order=2, unramified=True), 0, 0)
        if not verdict.reducible or verdict.structure != "direct_sum":
            return False, str(q)
        plus = unramified_eigenvalue(q, True, 1)
        minus = unramified_eigenvalue(q, True, -1)
        if plus == minus:
            return False, f"q = {q}"
    return True


def check_block_self_consistency() -> Outcome:
    from collections import Counter

    for lam in (2, 3, 5, 12):
        block = classify_block(lam)
        n_sub, n_mid, n_quot = block.exact_sequences[0]
        if Counter(composition_factors(n_mid)) != Counter(
            composition_factors(n_sub) + composition_factors(n_quot)
        ):
            return False, f"lam {lam}"
        p_sub, p_mid, p_quot = block.exact_sequences[1]
        if Counter(composition_factors(p_mid)) != Counter(
            composition_factors(p_sub) + composition_factors(p_quot)
        ):
            return False, f"P({lam})"
    return True


def check_block_orbit_symmetry() -> Outcome:
    for lam in (Fraction(1, 2), Fraction(3), Fraction(5), Fraction(7, 3), Fraction(1)):
        a = classify_block(lam)
        b = classify_block(2 - lam)
        if set(a.classes) != set(b.classes):
            return False, str(lam)
    return True


def check_identify_raising_stable() -> Outcome:
    trunc = 14
    for w in (4, 6, 12):
        for g in level1_basis(w, trunc):
            want = identify_module(g)
            if want != simple(w):
                return False, f"seed {w}"
            for r in (1, 2):
                if identify_module(iterate_raise(g, r)) != want:
                    return False, f"w={w}, r={r}"
    if identify_module(NearlyHolomorphicForm.constant(3, trunc)) != trivial():
        return False, "constant"
    return True


def check_catalog_trivial_multiplicity() -> Outcome:
    for d in (1, 2, 3):
        for k in (1, 2, 3, 4, 7):
            if catalog(d, k).contains_trivial != (k == 2):
                return False, f"d={d}, k={k}"
    return True


# Every check_* function of this module, in definition order (check_coherence
# is imported from quadratic, and is not one).
ALL_CHECKS = [
    fn
    for name, fn in list(globals().items())
    if name.startswith("check_") and fn.__module__ == __name__
]


def run_all() -> list[PropertyResult]:
    results = []
    for check in ALL_CHECKS:
        try:
            outcome = check()
        except Exception as exc:  # a crash is a failure, not a silent skip
            outcome = False, f"exception: {exc!r}"
        passed, detail = outcome if isinstance(outcome, tuple) else (outcome, "")
        name = check.__name__.removeprefix("check_").replace("_", "-")
        results.append(PropertyResult(name, passed, detail))
    return results
