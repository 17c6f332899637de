"""The four benchmark workloads: seeded inputs, the timed operation, checks.

Every workload builds its whole input list from the seed during set-up and
hands the program nothing else.  Inputs come in rounds: a round holds a fixed
mix of operation kinds in a seeded order, and a run always ends on a round
boundary, so every run sees the same mix whatever its length.  Parameters
that drive the cost of an operation (truncation, weight) are spread over
their range by a golden-ratio sequence with a seeded start rather than drawn
independently, so the average cost of a run barely depends on the seed.

The program is reached only through the public names of the ``nhmf`` package,
looked up at call time, so the tracer's rebinding covers the benchmark too.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from tracer import TRACE_MARKER

GOLDEN = (math.sqrt(5) - 1) / 2
R2 = (0.7548776662466927, 0.5698402909980532)  # 2-D golden-ratio sequence steps
N_MIN, N_MAX = 100, 200  # q-truncation range of qexp-kernel


@dataclass
class Op:
    kind: str
    args: tuple
    invalid: bool = False  # the program must refuse it with a typed error code
    extra: dict = field(default_factory=dict)


class Golden:
    """Low-discrepancy stream in [0, 1) with a seeded start."""

    def __init__(self, rng: random.Random):
        self.u = rng.random()

    def __next__(self) -> float:
        self.u = (self.u + GOLDEN) % 1.0
        return self.u


# -- independent arithmetic used by the checks --------------------------------


def _bernoulli(m: int, _memo={0: Fraction(1)}) -> Fraction:
    if m not in _memo:
        _memo[m] = -sum(math.comb(m + 1, j) * _bernoulli(j) for j in range(m)) / (m + 1)
    return _memo[m]


def _eisenstein_q1(k: int) -> Fraction:
    """Coefficient of q in the normalized E_k: -2k / B_k."""
    return Fraction(-2 * k) / _bernoulli(k)


_SMALL_PRIMES = [p for p in range(2, 1001) if all(p % d for d in range(2, math.isqrt(p) + 1))]


def _prime_at_most(n: int) -> int:
    """Largest prime <= n, for 2 <= n <= 10^6."""
    while not (n in _SMALL_PRIMES or (n > 1000 and all(n % p for p in _SMALL_PRIMES))):
        n -= 1
    return n


def _sigma(n: int, e: int) -> int:
    return sum(d**e for d in range(1, n + 1) if n % d == 0)


def _prime_support(n: int) -> set[int]:
    """Primes dividing 0 < n <= 10^6, by trial division over primes <= 1000."""
    out = set()
    for p in _SMALL_PRIMES:
        if p * p > n:
            break
        if n % p == 0:
            out.add(p)
            while n % p == 0:
                n //= p
    if n > 1:
        out.add(n)
    return out


def _is_rational_square(x: Fraction) -> bool:
    return (
        x > 0
        and math.isqrt(x.numerator) ** 2 == x.numerator
        and math.isqrt(x.denominator) ** 2 == x.denominator
    )


# -- base class ------------------------------------------------------------------


class Workload:
    name = ""
    cyclic = False  # True: the rounds repeat; False: a run stops when they run out
    # Traced rounds in a traced run, interleaved with as many untraced; a
    # cyclic workload's 2 * trace_rounds is its pool, so both runs hash it all.
    trace_rounds = 1
    period = 1  # a run executes a multiple of this many rounds, its mix's cycle
    # Op time of one round on the reference machine, for a workload whose
    # run is a fixed number of rounds set by --seconds; None: a run stops
    # on the clock.
    round_s = None

    def __init__(self, program, seed: int, root: Path):
        self.P = program
        self.errors = sys.modules["nhmf.errors"]
        self.root = root
        self.rounds: list[list[Op]] = []

    def round_at(self, r: int):
        if self.cyclic:
            return self.rounds[r % len(self.rounds)]
        return self.rounds[r] if r < len(self.rounds) else None

    def warm_up(self):
        """Fill the program's lazy caches before timing."""

    def call(self, op: Op):
        raise NotImplementedError

    def check(self, op: Op, value, error) -> tuple[str, object]:
        """('ok' | 'wrong' | 'error', canonical result) for one finished op.

        'wrong' is an answer that fails its check; 'error' is an op that
        raised unexpectedly or refused without a typed NhmfError code.
        """
        raise NotImplementedError

    def typed_code(self, error):
        if isinstance(error, self.P.NhmfError) and error.code in self.errors.ERROR_CODES:
            return error.code
        return None


# -- decompose-roundtrip -------------------------------------------------------------


class DecomposeRoundtrip(Workload):
    """decompose(f) on assembled level-1 forms at trunc 30 (criterion 3)."""

    name = "decompose-roundtrip"
    cyclic = True
    trace_rounds = 20
    TRUNC = 30
    POOL_ROUNDS = 40
    WEIGHTS = tuple(range(4, 26, 2))

    def __init__(self, program, seed, root):
        super().__init__(program, seed, root)
        rng = random.Random(seed)
        self.raised = raised = raised_basis(self.P, self.TRUNC)
        # Each round has one form per weight.  Per weight, the number of
        # seed draws cycles through 1, 2, 3 and the E2 seed comes in 2 of
        # every 5 rounds, from seeded offsets: the criterion-3 frequencies,
        # stratified, since they set how many peeling steps decompose takes.
        offsets = {w: (rng.randrange(3), rng.randrange(5)) for w in self.WEIGHTS}
        for r in range(self.POOL_ROUNDS):
            weights = list(self.WEIGHTS)
            rng.shuffle(weights)
            round_ = []
            for weight in weights:
                draws = 1 + (r + offsets[weight][0]) % 3
                with_e2 = (r + offsets[weight][1]) % 5 < 2
                f = self.P.NearlyHolomorphicForm.zero(self.TRUNC)
                while f.is_zero:
                    f = assembled_form(self.P, rng, weight, self.TRUNC, raised, draws, with_e2)
                round_.append(Op("decompose", (f,)))
            self.rounds.append(round_)

    def warm_up(self):
        # Fixed forms, not seeded ones, so that set-up costs the same for
        # every seed: per weight, a holomorphic monomial plus the raised E2
        # seed where its depth is in range.
        P = self.P
        for weight in self.WEIGHTS:
            coeffs = dict(self.raised(weight, 0)[0])
            if (weight - 2) // 2 <= 5:
                for key, v in self.raised(2, (weight - 2) // 2)[0]:
                    coeffs[key] = coeffs.get(key, 0) + v
            P.decompose(P.NearlyHolomorphicForm(weight, self.TRUNC, coeffs))

    def call(self, op):
        return self.P.decompose(op.args[0])

    def check(self, op, value, error):
        if error is not None:
            return "error", {"error": self.typed_code(error) or type(error).__name__}
        ok = value.reassemble() == op.args[0]
        return ("ok" if ok else "wrong"), value.to_json()


def assembled_form(P, rng, weight, trunc, raised, draws=None, with_e2=None):
    """A sum of raised level-1 seeds, as in acceptance criterion 3.

    Up to three holomorphic seeds (draws: 1-3 seed draws) of depth <= 5 with
    small rational coordinates in the monomial basis, plus a raised
    weight-two Eisenstein seed (with_e2: probability 0.4); both are drawn
    here unless the caller stratifies them.  Raising is linear, so the form
    is the same combination of raised basis monomials, whose terms raised()
    computes once per set-up; the sum is accumulated here, times 6 so that it
    stays integral where the terms are, and handed to the constructor once.
    """
    coeffs: dict = {}

    def add(terms, c):
        c6 = int(6 * c)  # every coefficient's denominator divides 6
        for key, v in terms:
            coeffs[key] = coeffs.get(key, 0) + c6 * v

    used = set()
    for _ in range(rng.randrange(1, 4) if draws is None else draws):
        ell = rng.randrange(0, min(5, max(0, (weight - 4) // 2)) + 1)
        basis = raised(weight - 2 * ell, ell)
        if not basis or ell in used:
            continue
        used.add(ell)
        for terms in basis:
            add(terms, Fraction(rng.randrange(-6, 7), rng.choice([1, 2, 3])))
    if with_e2 is None:
        with_e2 = rng.random() < 0.4
    if with_e2 and (weight - 2) // 2 <= 5:
        add(raised(2, (weight - 2) // 2)[0], Fraction(rng.randrange(-4, 5), rng.choice([1, 2])))
    return P.NearlyHolomorphicForm(weight, trunc, {key: Fraction(v, 6) for key, v in coeffs.items()})


def raised_basis(P, trunc):
    """(w, ell) -> terms of iterate_raise of each level-1 basis monomial of
    weight w (w = 2: the weight-two Eisenstein series), computed on first use.
    Integral coefficients are kept as int, which sums faster."""
    cache: dict = {}
    seeds: dict = {}

    def raised(w, ell):
        if (w, ell) not in cache:
            if w not in seeds:
                seeds[w] = [P.eisenstein2(trunc)] if w == 2 else P.level1_basis(w, trunc)
            cache[w, ell] = [
                [(key, v.numerator if v.denominator == 1 else v) for key, v in P.iterate_raise(g, ell).terms()]
                for g in seeds[w]
            ]
        return cache[w, ell]

    return raised


# -- qexp-kernel ---------------------------------------------------------------------


class QexpKernel(Workload):
    """Large-truncation q-expansion calls; no (kind, weight, N) repeats in a run."""

    name = "qexp-kernel"
    trace_rounds = 4
    period = 7  # rounds per cycle over the seven level1_basis pairs
    ROUNDS = 100  # delta_cusp has only 101 distinct truncations
    DIM_ONE = ((4, 4), (4, 6), (4, 10), (6, 8))  # a + b in {8, 10, 14}
    BASIS_WEIGHTS = tuple(range(12, 38, 2))
    # Per round: the 4 dimension-one products, 5 other products, 2 raised
    # and 2 Casimir images of E2, 1 delta_cusp and 2 level1_basis calls.
    # The median op is then well inside the products and the 90th
    # percentile inside the basis calls.

    def __init__(self, program, seed, root):
        super().__init__(program, seed, root)
        rng = random.Random(seed)
        used: set = set()
        streams: dict = {}

        def pick_n(key) -> int:
            # Spread N over [100, 200] per kind; skip truncations already used.
            stream = streams.setdefault(key[0], Golden(rng))
            n = N_MIN + int(next(stream) * (N_MAX - N_MIN + 1))
            for step in range(N_MAX - N_MIN + 1):
                cand = N_MIN + (n - N_MIN + step) % (N_MAX - N_MIN + 1)
                if key + (cand,) not in used:
                    used.add(key + (cand,))
                    return cand
            raise RuntimeError(f"no unused truncation left for {key}")

        general = [
            (a, b)
            for a in range(4, 26, 2)
            for b in range(a, 26, 2)
            if a + b not in (8, 10, 14)
        ]
        # The two level1_basis calls of a round are a pair (k, 48 - k), taken
        # from a seeded cycle over the seven pairs, so rounds cost alike.
        basis_pairs: list[tuple[int, int]] = []
        # Distinct truncations per basis weight: each appears at most 15
        # times in 100 rounds, 24 twice as often (pair (24, 24)).
        basis_offsets = {k: rng.sample(range(-8, 9), 17) for k in self.BASIS_WEIGHTS}
        basis_offsets[24] = rng.sample(range(-16, 17), 33)
        for r in range(self.ROUNDS):
            ops = []
            for a, b in self.DIM_ONE:
                ops.append(Op("mul", (a, b, pick_n(("mul", a, b)))))
            for _ in range(5):
                a, b = rng.choice(general)
                ops.append(Op("mul", (a, b, pick_n(("mul", a, b)))))
            for kind, lo in (("raise", 1), ("casimir", 0)):
                for _ in range(2):
                    j = rng.randrange(lo, lo + 5)
                    ops.append(Op(kind, (j, pick_n((kind, j)))))
            ops.append(Op("delta", (pick_n(("delta",)),)))
            if not basis_pairs:
                basis_pairs = [(k, 48 - k) for k in range(12, 26, 2)]
                rng.shuffle(basis_pairs)
            for k in basis_pairs.pop():
                n = self.BASIS_N[k] + basis_offsets[k].pop()
                ops.append(Op("basis", (k, n)))
            rng.shuffle(ops)
            self.rounds.append(ops)

    # Centre of the N band (+-8, +-16 for k = 24) of level1_basis(k, N).
    # Chosen from measured costs so that most basis calls cost about the
    # same, about 260 ms with the initial dict-of-Fractions series on a
    # 2-core x86 host: op_p90_ms falls inside that cluster.  k = 14 stays
    # below it even at N = 192, and k >= 28 above it even at N = 108.
    BASIS_N = {12: 192, 14: 192, 16: 152, 18: 153, 20: 123, 22: 127, 24: 116,
               26: 109, 28: 108, 30: 108, 32: 108, 34: 108, 36: 108}

    def warm_up(self):
        P = self.P
        for a in range(4, 26, 2):
            P.eisenstein(a, 20)
        P.eisenstein(4, 20) * P.eisenstein(6, 20)
        P.level1_basis(12, 20)
        P.delta_cusp(20)
        P.casimir(P.iterate_raise(P.eisenstein2(20), 1))

    def call(self, op):
        P = self.P
        kind, args = op.kind, op.args
        if kind == "mul":
            a, b, n = args
            return P.eisenstein(a, n) * P.eisenstein(b, n)
        if kind == "basis":
            return P.level1_basis(*args)
        if kind == "delta":
            return P.delta_cusp(args[0])
        j, n = args
        raised = P.iterate_raise(P.eisenstein2(n), j)
        return raised if kind == "raise" else P.casimir(raised)

    def check(self, op, value, error):
        if error is not None:
            return "error", {"error": self.typed_code(error) or type(error).__name__}
        ok = getattr(self, "_check_" + op.kind)(value, *op.args)
        canon = [f.to_doc() for f in value] if op.kind == "basis" else value.to_doc()
        return ("ok" if ok else "wrong"), canon

    def _check_mul(self, f, a, b, n):
        if a + b in (8, 10, 14):  # one-dimensional space: E_a E_b = E_{a+b}
            c = _eisenstein_q1(a + b)
            return f.weight == a + b and f.truncation == n and f.terms() == [
                ((0, m), c * _sigma(m, a + b - 1) if m else Fraction(1)) for m in range(n + 1)
            ]
        ca, cb = _eisenstein_q1(a), _eisenstein_q1(b)
        q2 = ca * (1 + 2 ** (a - 1)) + cb * (1 + 2 ** (b - 1)) + ca * cb
        return (
            f.weight == a + b
            and f.truncation == n
            and f.depth == 0
            and f.coefficient(0, 0) == 1
            and f.coefficient(0, 1) == ca + cb
            and f.coefficient(0, 2) == q2
        )

    def _check_basis(self, forms, k, n):
        # E4^a E6^b = 1 + (240a - 504b) q + ...
        expected = sorted(
            240 * a - 504 * ((k - 4 * a) // 6) for a in range(k // 4 + 1) if (k - 4 * a) % 6 == 0
        )
        return sorted(f.coefficient(0, 1) for f in forms) == expected and all(
            f.weight == k and f.truncation == n and f.depth == 0 and f.coefficient(0, 0) == 1
            for f in forms
        )

    def _check_delta(self, f, n):
        tau = [f.coefficient(0, m) for m in range(n + 1)]
        if f.weight != 12 or f.truncation != n or tau[0] != 0 or tau[1] != 1 or tau[2] != -24:
            return False
        return all(
            tau[m] * tau[k] == tau[m * k]
            for m in range(2, n + 1)
            for k in range(m + 1, n // m + 1)
            if math.gcd(m, k) == 1
        )

    def _check_raise(self, f, j, n):
        top = {0: Fraction(12 * (-1) ** j * math.factorial(j))}
        return f.weight == 2 + 2 * j and f.truncation == n and f.depth == j + 1 and f.x_column(j + 1) == top

    def _check_casimir(self, f, j, n):
        # The weight-two Eisenstein orbit lies in the kernel of the Casimir.
        return f.is_zero and f.truncation == n


# -- local-arith ---------------------------------------------------------------------


class LocalArith(Workload):
    """Local quadratic, Laurent and category-O queries; no q-series."""

    name = "local-arith"
    cyclic = True
    trace_rounds = 300
    POOL_ROUNDS = 600
    PRIME_POWERS = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27, 49, 121)

    def __init__(self, program, seed, root):
        super().__init__(program, seed, root)
        P = self.P
        rng = random.Random(seed)

        def big():
            return Fraction(rng.randrange(1, 10**6 + 1) * rng.choice((1, -1)), rng.randrange(1, 1001))

        # relevant_places factors the discriminant by trial division, whose
        # cost is set by the second-largest prime of a1 * a2.  With uniform
        # numerators a few rare pairs of large primes would dominate the
        # run, and their number would depend on the seed.  So each
        # numerator is p * m: p the largest prime <= 10^(6x), x following a
        # fixed 2-D golden-ratio schedule over the pair (so every seed has
        # the same cost profile, from p = 2 to p near 10^6), m a random
        # 13-smooth cofactor keeping the numerator <= 10^6; the seed picks
        # p's exact size, m, the signs and the denominators.
        def invariants_entry(x):
            p = _prime_at_most(max(2, round(10 ** (6 * x) * (1 - rng.random() / 1000))))
            m = 1
            while rng.random() < 0.7 and p * m * 13 <= 10**6:
                m *= rng.choice((2, 3, 5, 7, 11, 13))
            return Fraction(p * m * rng.choice((1, -1)), rng.randrange(1, 1001))

        def small():
            return Fraction(rng.randrange(1, 100) * rng.choice((1, -1)), rng.randrange(1, 10))

        for r in range(self.POOL_ROUNDS):
            ops = []
            a, b = big(), big()
            places = self.expected_places(a, b)
            group: dict = {}  # place index -> symbol, shared by the group's ops
            for i, v in enumerate(places):
                ops.append(Op("hilbert", (a, b, v), extra={"pos": i, "size": len(places), "group": group}))
            a1, a2 = (invariants_entry((0.5 + r * step) % 1.0) for step in R2)
            ops.append(Op("invariants", (a1, a2), extra={"places": self.expected_places(a1, a2)}))
            ops.append(self._coherence_op(rng, small, coherent=r % 4 < 2))
            ops.append(self._reducibility_op(rng))
            q = rng.choice(self.PRIME_POWERS)
            ops.append(Op("unramified", (q, rng.random() < 0.8, rng.choice((1, -1)))))
            ops.append(Op("constant_term", (
                rng.randrange(1, 61), rng.randrange(1, 4), rng.choice(("trivial", "nontrivial")),
            )))
            ops.append(Op("catalog", (rng.randrange(1, 4), rng.randrange(1, 61))))
            ops.append(Op("classify_block", (Fraction(rng.randrange(-40, 41), rng.choice((1, 1, 2, 3))),)))
            # Keep each Hilbert group contiguous; shuffle the rest around it.
            rest = ops[len(places):]
            rng.shuffle(rest)
            at = rng.randrange(len(rest) + 1)
            self.rounds.append(rest[:at] + ops[: len(places)] + rest[at:])

    def expected_places(self, *values):
        """Real place, 2 and the odd primes of the numerators and denominators."""
        primes = {2}
        for x in values:
            primes |= _prime_support(abs(x.numerator)) | _prime_support(x.denominator)
        return [self.P.Place.real()] + [self.P.Place.finite(p) for p in sorted(primes)]

    def _coherence_op(self, rng, small, coherent):
        P = self.P
        space = P.QuadSpace2D(small(), small())
        coll = P.collection_of(space)
        if coherent:
            return Op("coherence", (coll,), extra={"coherent": True})
        flippable = [pl for pl, _ in coll.epsilons if not P.is_local_square(coll.discriminant, pl)]
        if not flippable:  # square discriminant: every flip violates the invariants
            return Op("coherence", (coll,), extra={"coherent": True})
        return Op("coherence", (coll.flip(rng.choice(flippable)),), extra={"coherent": False})

    def _reducibility_op(self, rng):
        P = self.P
        if rng.random() < 0.25:
            residue = "real"
            mu = P.CharacterDescriptor(order=rng.choice((1, 1, 2, "other")), real_sign=rng.choice((0, 1)))
            s_re = Fraction(rng.randrange(-3, 6), rng.choice((1, 1, 2)))
            s_im = Fraction(rng.choice((0, 0, 0, 1)))
        else:
            residue = rng.choice(self.PRIME_POWERS)
            order, unramified = rng.choice(((1, True), (2, True), (2, False), ("other", True)))
            mu = P.CharacterDescriptor(order=order, unramified=unramified)
            s_re = Fraction(rng.choice((-2, -1, -1, 0, 0, 1, 1, 2)), rng.choice((1, 1, 2)))
            s_im = Fraction(rng.randrange(-3, 4), rng.choice((1, 1, 3)))
        return Op("reducibility", (residue, mu, s_re, s_im))

    def warm_up(self):
        for op in self.rounds[0]:
            try:
                self.call(op)
            except self.P.NhmfError:  # certified refusals are part of the mix
                pass

    def call(self, op):
        P = self.P
        kind, args = op.kind, op.args
        if kind == "hilbert":
            return P.hilbert_symbol(*args)
        if kind == "invariants":
            a1, a2 = args
            places = P.relevant_places(a1, a2, -a1 * a2)
            space = P.QuadSpace2D(a1, a2)
            return [(v, P.local_invariants(space, v)) for v in places]
        if kind == "coherence":
            return P.check_coherence(args[0])
        if kind == "reducibility":
            return P.reducibility(*args)
        if kind == "unramified":
            return P.unramified_eigenvalue(*args)
        if kind == "constant_term":
            return P.constant_term_report(*args)
        if kind == "catalog":
            return P.catalog(*args)
        return P.classify_block(*args)

    def check(self, op, value, error):
        code = self.typed_code(error) if error is not None else None
        if error is not None and code is None:
            return "error", {"error": type(error).__name__}
        ok, canon = getattr(self, "_check_" + op.kind)(op, value, code)
        return ("ok" if ok else "wrong"), canon

    def _check_hilbert(self, op, symbol, code):
        # Hilbert reciprocity: the symbols over all places multiply to 1.
        if code is not None or symbol not in (1, -1):
            return False, {"error": code}
        group = op.extra["group"]
        group[op.extra["pos"]] = symbol
        if op.extra["pos"] < op.extra["size"] - 1:
            return True, symbol
        return len(group) == op.extra["size"] and math.prod(group.values()) == 1, symbol

    def _check_invariants(self, op, rows, code):
        if code is not None:
            return False, {"error": code}
        places = [v for v, _ in rows]
        product = math.prod(inv.epsilon for _, inv in rows)
        canon = [[v.render(), inv.chi_nontrivial, inv.epsilon] for v, inv in rows]
        return places == op.extra["places"] and product == 1, canon

    def _check_coherence(self, op, result, code):
        if code is not None:
            return False, {"error": code}
        if not op.extra["coherent"]:
            return not result.coherent, result.to_json()
        coll, w = op.args[0], result.witness
        if not result.coherent or w is None:
            return False, result.to_json()
        P = self.P
        places = set(P.relevant_places(w.a1, w.a2, coll.discriminant)) | {pl for pl, _ in coll.epsilons}
        same = _is_rational_square(w.discriminant / coll.discriminant) and all(
            P.local_invariants(w, v).epsilon == coll.epsilon_at(v) for v in places
        )
        return same, result.to_json()

    def _check_reducibility(self, op, verdict, code):
        if code is not None:
            return False, {"error": code}
        residue, mu, s_re, s_im = op.args
        return verdict.reducible == _reducible(residue, mu, s_re, s_im), verdict.to_json()

    def _check_unramified(self, op, value, code):
        q, nontrivial, eps = op.args
        if not nontrivial:  # certified refusal: trivial chi hits the pole of L(0, chi)
            return code is not None, {"error": code}
        return code is None and value == Fraction(eps * 2 * q, q + 1), str(value)

    def _check_constant_term(self, op, report, code):
        k, d, character = op.args
        if code is not None:  # certified refusals happen only at k = 1
            return k == 1, {"error": code}
        kind = report.verdict.kind
        if k >= 3:
            ok = kind == "PureSection" and report.second_term.order == d
        elif k == 2 and d == 1 and character == "trivial":
            ok = kind == "SectionPlusResidue" and report.verdict.leading == self.P.PiScalar.pi_power(-1, -3)
        else:
            ok = kind in ("PureSection", "SectionPlusResidue", "Pole")
        return ok and report.k == k and report.d == d, report.to_json()

    def _check_catalog(self, op, desc, code):
        if code is not None:
            return False, {"error": code}
        d, k = op.args
        doc = desc.to_json()
        ok = doc["d"] == d and doc["k"] == k and doc["contains_trivial"] == (k == 2)
        return ok and len(doc["summands"]) == (1 if k >= 3 else 2), doc

    def _check_classify_block(self, op, block, code):
        if code is not None:
            return False, {"error": code}
        lam = op.args[0]
        rep = max(lam, 2 - lam)
        size = 2 if rep.denominator != 1 else (1 if rep == 1 else 5)
        return block.representative == rep and len(block.classes) == size, block.to_json()


def _reducible(residue, mu, s_re: Fraction, s_im: Fraction) -> bool:
    """Reducibility points of the degenerate principal series I(mu, s)."""
    if residue == "real":
        if mu.order == "other" or s_re.denominator != 1 or s_im != 0:
            return False
        n = int(s_re)
        if mu.real_sign == 1:
            return n >= 0 and n % 2 == 0
        return n >= -1 and n % 2 == 1
    if mu.order == "other":
        return False
    if mu.order == 2 and not mu.unramified:
        return s_re == 0 and s_im.denominator == 1
    tau = s_im + (1 if mu.order == 2 else 0)
    if tau.denominator != 1:
        return False
    t = int(tau) % 2
    return (s_re == 0 and t == 1) or (abs(s_re) == 1 and t == 0)


# -- cli-cold ------------------------------------------------------------------------

class CliCold(Workload):
    """One fresh `python -m nhmf.cli` process per op, run one at a time."""

    name = "cli-cold"
    trace_rounds = 3
    # 20 invocations at about 170 ms.  The run length is fixed, not clocked,
    # so every run issues the same invocations, and the leaks among them,
    # whatever the host's speed.
    round_s = 3.4
    ROUNDS = 40
    TIMEOUT_S = 30
    THETA_FORMS = ((1, 0, 1), (1, 1, 1), (1, 0, 2), (1, 1, 2), (2, 1, 2), (1, 0, 3), (2, 2, 3))
    # Invalid invocations; rounds 0, 1, 4, 5, ... take one of LEAKS
    # (negative --trunc), which the CLI does not yet turn into a typed
    # error, so every run shows whether they still escape as a traceback.
    LEAKS = (
        ["eis", "--k", "4", "--trunc", "-{n}"],
        ["e2", "--trunc", "-{n}"],
        ["theta", "--a", "1", "--b", "0", "--c", "1", "--trunc", "-{n}"],
    )
    REFUSALS = (
        (["eis", "--k", "3", "--trunc", "{n}"], b""),
        (["theta", "--a", "1", "--b", "3", "--c", "1", "--trunc", "{n}"], b""),
        (["decompose"], b'{"weight": 4, "truncation": '),
        (["local", "hilbert", "0", "{n}", "3"], b""),
        (["catalog", "--d", "0", "--k", "{n}"], b""),
        (["frobnicate", "--k", "{n}"], b""),
        (["constant-term", "--k", "1", "--d", "2"], b""),
    )

    def __init__(self, program, seed, root):
        super().__init__(program, seed, root)
        P = self.P
        rng = random.Random(seed)
        raised = raised_basis(P, 10)

        def form():
            f = P.NearlyHolomorphicForm.zero(10)
            while f.is_zero:
                f = assembled_form(P, rng, rng.randrange(4, 18, 2), 10, raised)
            return json.dumps(f.to_doc()).encode()

        def module_seed():
            # A raised basis monomial or raised E2 generates one indecomposable module.
            w, ell = rng.choice((2, 4, 6, 8, 10, 12)), rng.randrange(0, 3)
            terms = rng.choice(raised(w, ell))
            return json.dumps(P.NearlyHolomorphicForm(w + 2 * ell, 10, dict(terms)).to_doc()).encode()

        def rat(limit):
            # argparse reads "-3/4" as an option, so negative values are integers.
            num = rng.randrange(1, limit)
            return str(-num) if rng.random() < 0.5 else str(Fraction(num, rng.randrange(1, 10)))

        leaks = rng.sample(self.LEAKS, len(self.LEAKS))
        refusals = rng.sample(self.REFUSALS, len(self.REFUSALS))
        for r in range(self.ROUNDS):
            n = str(rng.randrange(4, 13))
            a, b, c = rng.choice(self.THETA_FORMS)
            ops = [
                (["eis", "--k", str(rng.randrange(4, 14, 2)), "--trunc", n], b""),
                (["eis", "--k", str(rng.randrange(4, 14, 2)), "--trunc", str(rng.randrange(4, 13))], b""),
                (["e2", "--trunc", n], b""),
                (["theta", "--a", str(a), "--b", str(b), "--c", str(c), "--trunc", n], b""),
                (["raise"], form()),
                (["raise", "--analytic"], form()),
                (["lower"], form()),
                (["lower", "--analytic"], form()),
                (["casimir"], form()),
                (["decompose"], form()),
                (["decompose"], form()),
                (["identify"], module_seed()),
                (["constant-term", "--k", str(rng.randrange(2, 41)), "--d", str(rng.randrange(1, 4))], b""),
                (["local", "hilbert", rat(1000), rat(1000), rng.choice(("real", "2", "3", "5", "7"))], b""),
                (["local", "hilbert", rat(1000), rat(1000), rng.choice(("2", "3", "11", "13"))], b""),
                (["local", "invariants", rat(10**4), rat(10**4)], b""),
                (["local", "coherent", self._collection_arg(rng)], b""),
                ([
                    "local", "reducible",
                    "--q", str(rng.choice(LocalArith.PRIME_POWERS)),
                    "--mu-order", rng.choice(("1", "2", "other")),
                    "--s-re", str(rng.randrange(-2, 3)),
                    "--s-im", str(rng.randrange(-2, 3)),
                ], b""),
                (["catalog", "--d", str(rng.randrange(1, 4)), "--k", str(rng.randrange(1, 40))], b""),
            ]
            if r % 4 in (0, 1):
                argv, stdin = leaks[r // 2 % len(leaks)], b""
            else:
                argv, stdin = refusals[r // 2 % len(refusals)]
            ops.append((
                [part.replace("{n}", str(rng.randrange(1, 9))) for part in argv],
                stdin,
                True,
            ))
            round_ = [Op("cli", (argv, stdin), invalid=bool(rest)) for argv, stdin, *rest in ops]
            rng.shuffle(round_)
            self.rounds.append(round_)
        self.env = dict(os.environ)
        src = str(root / "src")
        if self.env.get("PYTHONPATH"):
            src += os.pathsep + self.env["PYTHONPATH"]
        self.env["PYTHONPATH"] = src
        self.command = [sys.executable, "-m", "nhmf.cli"]

    def _collection_arg(self, rng):
        P = self.P
        space = P.QuadSpace2D(
            Fraction(rng.randrange(1, 30) * rng.choice((1, -1)), rng.randrange(1, 6)),
            Fraction(rng.randrange(1, 30) * rng.choice((1, -1)), rng.randrange(1, 6)),
        )
        return json.dumps(P.collection_of(space).to_json(), sort_keys=True)

    def warm_up(self):
        self.call(Op("cli", (["catalog", "--d", "1", "--k", "4"], b"")))

    def call(self, op):
        argv, stdin = op.args
        return subprocess.run(
            self.command + argv,
            input=stdin,
            capture_output=True,
            env=self.env,
            cwd=self.root,
            timeout=self.TIMEOUT_S,
        )

    @staticmethod
    def split_trace(stderr: str):
        """(stderr without the probe's trace line, the trace document or None)."""
        kept, trace = [], None
        for line in stderr.split("\n"):
            if line.startswith(TRACE_MARKER):
                trace = json.loads(line[len(TRACE_MARKER):])
            else:
                kept.append(line)
        return "\n".join(kept), trace

    def check(self, op, proc, error):
        if error is not None:
            return "error", {"error": type(error).__name__}
        stdout = proc.stdout.decode()
        stderr, _ = self.split_trace(proc.stderr.decode())
        if op.invalid:
            try:
                code = json.loads(stderr).get("error")
            except (json.JSONDecodeError, AttributeError):
                code = None
            typed = proc.returncode != 0 and not stdout and code in self.errors.ERROR_CODES
            canon = {"exit": proc.returncode, "error": code if typed else "untyped"}
            return ("ok" if typed else "error"), canon
        if proc.returncode != 0:
            return "error", {"exit": proc.returncode}
        return ("ok" if stdout == self.expected(op) else "wrong"), stdout

    def expected(self, op) -> str:
        """The library's own result for a valid invocation, as the CLI prints it."""
        return json.dumps(self._library_doc(*op.args), sort_keys=True) + "\n"

    def _library_doc(self, argv, stdin):
        P = self.P
        cmd, rest = argv[0], argv[1:]
        opts = dict(zip(rest[::2], rest[1::2])) if cmd not in ("local",) else {}
        if cmd == "eis":
            return P.eisenstein(int(opts["--k"]), int(opts["--trunc"])).to_doc()
        if cmd == "e2":
            return P.eisenstein2(int(opts["--trunc"])).to_doc()
        if cmd == "theta":
            q = P.BinaryForm(int(opts["--a"]), int(opts["--b"]), int(opts["--c"]))
            return P.theta_series(q, int(opts["--trunc"])).to_doc()
        if cmd in ("raise", "lower", "casimir", "decompose", "identify"):
            f = P.NearlyHolomorphicForm.from_doc(json.loads(stdin))
            if cmd == "decompose":
                return P.decompose(f).to_json()
            if cmd == "identify":
                return P.identify_module(f, 24).to_json()
            if cmd == "casimir":
                return P.casimir(f).to_doc()
            if rest == ["--analytic"]:
                scaled = P.raise_analytic(f) if cmd == "raise" else P.lower_analytic(f)
                return {"scalar": scaled.scalar.to_json(), "form": scaled.form.to_doc()}
            return (P.raise_weight if cmd == "raise" else P.lower_weight)(f).to_doc()
        if cmd == "constant-term":
            return P.constant_term_report(int(opts["--k"]), int(opts["--d"]), "trivial", []).to_json()
        if cmd == "catalog":
            return P.catalog(int(opts["--d"]), int(opts["--k"])).to_json()
        return self._library_local(rest)

    def _library_local(self, rest):
        P = self.P
        sub = rest[0]
        if sub == "hilbert":
            a, b, v = Fraction(rest[1]), Fraction(rest[2]), P.Place.parse(rest[3])
            return {"a": str(a), "b": str(b), "place": v.render(), "symbol": P.hilbert_symbol(a, b, v)}
        if sub == "invariants":
            space = P.QuadSpace2D(Fraction(rest[1]), Fraction(rest[2]))
            return {
                "a1": str(space.a1),
                "a2": str(space.a2),
                "discriminant": str(space.discriminant),
                "places": [
                    {"place": v.render(), "chi_nontrivial": inv.chi_nontrivial, "epsilon": inv.epsilon}
                    for v in P.relevant_places(space.a1, space.a2, space.discriminant)
                    for inv in [P.local_invariants(space, v)]
                ],
            }
        if sub == "coherent":
            doc = json.loads(rest[1])
            eps = {P.Place.parse(key): int(val) for key, val in doc["epsilons"].items()}
            return P.check_coherence(P.Collection.of(Fraction(doc["discriminant"]), eps)).to_json()
        opts = dict(zip(rest[1::2], rest[2::2]))
        order = {"1": 1, "2": 2}.get(opts["--mu-order"], "other")
        mu = P.CharacterDescriptor(order=order, unramified=True, real_sign=0)
        verdict = P.reducibility(int(opts["--q"]), mu, Fraction(opts["--s-re"]), Fraction(opts["--s-im"]))
        return verdict.to_json()


WORKLOADS = {w.name: w for w in (DecomposeRoundtrip, QexpKernel, LocalArith, CliCold)}
