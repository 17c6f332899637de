"""Structure decomposition of nearly holomorphic forms.

Every nearly holomorphic modular form is a sum of iterated raising operators
applied to holomorphic forms, plus possibly one iterated raising of the
weight-two Eisenstein series.  This module makes that constructive by greedy
top-depth peeling: the X^p column of a depth-p form of weight k determines the
weight-(k-2p) holomorphic seed up to the combinatorial factor

    c(w, l) = prod_{j=0}^{l-1} (j - (w + 2j)) = prod_{j=0}^{l-1} -(w + j),

which is computed from the raising monomial rule itself and vanishes only for
seeds of weight w <= 0 with l > -w.  The seed is therefore the top column
over c(w, p), read off with no linear solve (top_seed).  It is never divided
by 0: weight 0 with p >= 1 is the weight-two Eisenstein step below, and a
negative seed weight, where no holomorphic form lives, is refused before any
seed is built.  Depth strictly decreases, so peeling ends in depth+1 steps.

The peel works on the remainder's integer storage: one common denominator
and a list of integer columns, as a form stores them.  A step reads the seed
g off the top column, pops that column, and subtracts b_j theta^(p-j) g from
each lower column j, the b_j of delta^(p) (operators.delta_coefficients),
after scaling both sides to lcm(denominator, denominator of g).  The raised
image delta^(p) g is never built: its X^p column is c(w, p) g, the popped
column itself.  A step reads its constants in one lookup, from the table
of its (w, p) that the shared basis of the truncation keeps
(Level1Basis.step): c(w, p) = b_p and the columns T_j = b_j n^(p-j) over
the q-indices n, j < p, built on first use from the columns n^m
(Level1Basis.powers), so that the X^j column of delta^(p) g is the
entrywise product T_j * g.  The step scales the seed once by s2 and
updates column j as s1 * col_j - T_j * (s2 * g), one chain of lazy maps
into one new list: a product and a difference per entry.  The tables are
kept while their entries stay within STEP_BUDGET ints in all; past it, a
step's T_j is a one-pass map of b_j over n^(p-j), the same update at the
cost of one more product per entry.  The seed is built in its canonical
storage in one pass (_seed): one gcd of den * |c(w, p)| and the top column,
with the sign of c(w, p) taken in the one division.  The remainder is not
reduced between steps: a step drops its zero top columns as a form does
(series._pop_zero_columns) and takes no gcd of the entries, so the
denominator and the entries may share a factor.  That costs little size: a
seed step scales the remainder by lcm(den, den_g) / den, which divides
c(w, p), and the weight-two step by the leading entry of the raised series
over its gcd with the top entry.  Each seed is made canonical when it is
built as a form, and a refusal's residual, the only remainder ever made a
form, is made canonical once, then.  The Decomposition is built from the
fields the peel made, as a seed is, without checking them again.

The seed must lie in the span of the basis of its weight.  The basis is put
in reduced echelon form, one primitive integer row per pivot q-index, and
the seed column, the top column over its gcd with den * c(w, p), is tested
against it over all truncation+1 coefficients, not only the first dim, by one
pass of arith.reduce_by: a column that agrees with a modular form up to
q^(dim-1) and not beyond is refused.  One routine, _echelon_rows, checks that
a basis is a list or tuple of forms that reach the truncation, truncates it
to it and puts it in that form.  The shared level-1 basis keeps its rows
(the Miller basis q^i + O(q^dim) up to scaling), built once per weight, and
the peel step reads them directly: they are never reduced again.  A supplied
basis is reduced once per weight in play (each peel step is at a new weight,
since the depth falls).

A weight-2 seed at the top depth cannot be matched at level 1 (there are no
holomorphic weight-two forms there); the weight-two Eisenstein series instead
surfaces as the unique seed whose X-column one step above the holomorphic
range is constant, i.e. at residual weight 0.  Its raised images come from
the shared basis, which keeps each one it has built.

decompose never returns a silently wrong answer: the supplied truncation must
reach the dimension-detecting bound of each weight in play (a Sturm-type
w/12 + 1 for level 1), and any residual outside the basis span raises with
the residual attached.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import mul, sub
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .arith import FrozenRecord, check_int, check_type, read_rational, reduce_by, reduced_echelon, shown
from .errors import DecompositionError, DomainError, InsufficientTruncationError
from .generators import eisenstein2, level1_basis
from .operators import (
    InfinitesimalCharacter,
    delta_coefficients,
    iterate_raise,
    leading_column_factor,
)
from .series import NearlyHolomorphicForm, _pop_zero_columns


# The most ints that the step tables of one Level1Basis keep, all (w, p)
# together; the Level1Basis docstring states what they take in bytes.
STEP_BUDGET = 1 << 16


def _seed(w: int, factor: int, truncation: int, den: int, top) -> NearlyHolomorphicForm:
    # The holomorphic g of weight w with delta^(p) g having the X^p column
    # top / den: top over den * factor, factor = c(w, p) nonzero, built in
    # its canonical storage in one pass: one gcd of den * |factor| and the
    # nonzero top, and the sign of factor taken in the one division.
    den *= abs(factor)
    g = gcd(den, *top)
    seed = object.__new__(NearlyHolomorphicForm)
    seed._weight, seed._trunc, seed._den = w, truncation, den // g
    if factor < 0:
        g = -g
    seed._cols = (tuple(top) if g == 1 else tuple(map(g.__rfloordiv__, top)),)
    return seed


def top_seed(f: NearlyHolomorphicForm) -> NearlyHolomorphicForm:
    """The holomorphic g of weight w = k - 2p whose p-fold raising has the top
    X^p column of f (k the weight, p the depth of the nonzero f): that column
    over c(w, p), which must be nonzero."""
    p = f.depth
    w = f.weight - 2 * p
    return _seed(w, leading_column_factor(w, p), f.truncation, f._den, f._cols[p])


class Level1Basis:
    """Default basis provider: weight w -> the reduced echelon basis of
    M_w(SL_2(Z)), one primitive integer q-series per pivot q-index (the
    Miller basis q^i + O(q^dim) up to scaling), spanning what the monomials
    E4^a E6^b span.  Every call returns a fresh list of the (immutable) forms
    made from the kept rows.

    An instance at truncation N keeps, for as long as it lives
    (shared_level1_basis keeps the bases of the 4 most recent truncations):
    - rows: each weight's reduced echelon rows, built once;
    - the weight-two Eisenstein series, and each raised image delta^(m) of
      it once built (raised_e2);
    - powers: the columns n^m over n = 0..N, to the deepest step asked for;
    - step tables: c(w, p) and the p columns b_j n^(p-j) of each seed step
      (w, p) with p >= 1 (step), while their entries, p (N + 1) per table,
      stay within STEP_BUDGET = 2^16 ints in all.
    An entry of a step table has at most p (1 + log2 max(N, w + p)) bits.
    With the seed weights w < 12 N that the level-1 Sturm-type bound admits,
    a full budget takes at most 8.4 MiB at N = 1000, 48 MiB at N = 100 and
    136 MiB at N = 30, and about 1.1 GiB at worst, at N = 1, as one table of
    depth 32768 whose nonzero entries are the b_j themselves.  A supplied
    basis with a smaller sturm_bound admits larger w, and so larger entries.
    """

    def __init__(self, truncation: int):
        self.truncation = truncation
        self.eisenstein2 = eisenstein2(truncation)
        self._rows: dict[int, list[tuple[int, tuple[int, ...]]]] = {}
        self._raised_e2: dict[int, NearlyHolomorphicForm] = {}
        self._powers: list[tuple[int, ...]] = [(1,) * (truncation + 1)]
        self._steps: dict[tuple[int, int], tuple[int, tuple[tuple[int, ...], ...]]] = {}
        self._step_entries = 0

    def rows(self, w: int) -> list[tuple[int, tuple[int, ...]]]:
        """The (pivot, row) pairs of the weight-w basis in reduced echelon form."""
        if w not in self._rows:
            self._rows[w] = _echelon_rows(w, level1_basis(w, self.truncation), self.truncation)
        return self._rows[w]

    def raised_e2(self, m: int) -> NearlyHolomorphicForm:
        """delta^(m) applied to the weight-two Eisenstein series."""
        if m not in self._raised_e2:
            self._raised_e2[m] = iterate_raise(self.eisenstein2, m)
        return self._raised_e2[m]

    def powers(self, depth: int) -> list[tuple[int, ...]]:
        """[n^0, ..., n^depth], each over n = 0..truncation, so that theta^m g
        is the entrywise product of g and the column n^m; the table grows to
        the deepest depth asked for and lives as long as the instance."""
        powers = self._powers
        ns = range(self.truncation + 1)
        while len(powers) <= depth:
            powers.append(tuple(map(mul, ns, powers[-1])))
        return powers

    def step(self, w: int, p: int) -> tuple[int, Sequence[Iterable[int]]]:
        """(c(w, p), [T_0, ..., T_(p-1)]) of a peel step at depth p and seed
        weight w: T_j = b_j n^(p-j) over n = 0..truncation, the b_j of
        delta^(p) (operators.delta_coefficients(-w, p)), b_p = c(w, p), so
        that the X^j column of delta^(p) g is T_j * g entrywise.  The table
        is kept if its p (truncation + 1) entries keep the kept ones within
        STEP_BUDGET; if not, each T_j is a one-pass map.  At p = 0 there is
        no column, and nothing is kept."""
        kept = self._steps.get((w, p))
        if kept is not None:
            return kept
        b = delta_coefficients(-w, p)
        powers = self.powers(p)
        table = [map(b[j].__mul__, powers[p - j]) for j in range(p)]
        size = p * (self.truncation + 1)
        if not 0 < size <= STEP_BUDGET - self._step_entries:
            return b[p], table
        self._step_entries += size
        kept = self._steps[w, p] = (b[p], tuple(map(tuple, table)))
        return kept

    def __call__(self, w: int) -> list[NearlyHolomorphicForm]:
        return [
            NearlyHolomorphicForm._from_columns(w, self.truncation, 1, [row])
            for _, row in self.rows(w)
        ]

    @staticmethod
    def sturm_bound(w: int) -> int:
        return w // 12 + 1


@lru_cache(maxsize=4)
def shared_level1_basis(truncation: int) -> Level1Basis:
    """The Level1Basis of a truncation shared by decompose, reassemble and
    character_split, kept for the few most recent truncations."""
    return Level1Basis(truncation)


class Decomposition(FrozenRecord):
    """Seeds of a structure decomposition.

    terms: pairs (ell, g) with g holomorphic of weight (input weight) - 2*ell,
    at most one per ell.  e2_term: optional (m, c) standing for c * delta^(m)
    applied to the weight-two Eisenstein series.  Reassembly reproduces the
    input to its truncation.  A field of the wrong kind is a DomainError: a
    weight that is no int or None, a truncation that is no int >= 0, terms
    that are no tuple of (int ell >= 0, form) pairs, an e2_term that is no
    (int m >= 0, rational) pair.
    """

    __slots__ = ("weight", "truncation", "terms", "e2_term")

    def __init__(
        self,
        weight: Optional[int],
        truncation: int,
        terms: tuple[tuple[int, NearlyHolomorphicForm], ...],
        e2_term: Optional[tuple[int, Fraction]],
    ):
        if weight is not None:
            check_int("the weight of a decomposition", weight)
        check_int("the truncation of a decomposition", truncation, 0)
        check_type("terms", terms, tuple, "a tuple of (ell, seed) pairs")
        for term in terms:
            if not (isinstance(term, tuple) and len(term) == 2):
                raise DomainError(f"a term must be an (ell, seed) pair, got {type(term).__name__}")
            check_int("the ell of a term", term[0], 0)
            check_type("the seed of a term", term[1], NearlyHolomorphicForm)
        if e2_term is not None:
            if not (isinstance(e2_term, tuple) and len(e2_term) == 2):
                raise DomainError(f"e2_term must be None or an (m, c) pair, got {type(e2_term).__name__}")
            check_int("the m of e2_term", e2_term[0], 0)
            e2_term = (e2_term[0], read_rational(e2_term[1]))
        self._freeze((weight, truncation, terms, e2_term))

    def pieces(self) -> Iterator[tuple[int, NearlyHolomorphicForm]]:
        """(seed weight, raised seed) per summand; the weight-two Eisenstein one last."""
        for ell, g in self.terms:
            yield g.weight, iterate_raise(g, ell)
        if self.e2_term is not None:
            m, c = self.e2_term
            yield 2, shared_level1_basis(self.truncation).raised_e2(m) * c

    def reassemble(self) -> NearlyHolomorphicForm:
        out = NearlyHolomorphicForm.zero(self.truncation)
        for _, piece in self.pieces():
            out = out + piece
        return out

    def to_json(self) -> dict:
        doc = {
            "terms": [{"ell": ell, "g": g.to_doc()} for ell, g in self.terms],
            "e2": None,
        }
        if self.e2_term is not None:
            m, c = self.e2_term
            doc["e2"] = {"m": m, "c": str(c)}
        return doc


def _echelon_rows(w: int, basis, trunc: int) -> list[tuple[int, tuple[int, ...]]]:
    """The (pivot, row) pairs, in reduced echelon form at truncation trunc, of
    the weight-w basis forms, which must reach trunc; DomainError unless
    the basis is a list or tuple of forms."""
    check_type(f"the basis for weight {w}", basis, (list, tuple), "a list or tuple of forms")
    for b in basis:
        check_type(f"a basis form for weight {w}", b, NearlyHolomorphicForm)
    if any(b.truncation < trunc for b in basis):
        raise InsufficientTruncationError(
            f"basis for weight {w} truncated below the input truncation {trunc}"
        )
    cols = [t._cols[0] for t in (b.truncate(trunc) for b in basis) if not t.is_zero]
    return [(p, tuple(row)) for p, row in reduced_echelon(cols, trunc + 1)]


def decompose(
    f: NearlyHolomorphicForm,
    basis_provider: Optional[Callable[[int], list[NearlyHolomorphicForm]]] = None,
) -> Decomposition:
    """Peel f into raising-operator images of holomorphic seeds.

    basis_provider maps a weight w to a list of depth-0 forms spanning the
    holomorphic forms of weight w in play; the default is the level-1
    monomial basis.  Residuals outside the span raise DecompositionError
    carrying the residual (the usual sign of a wrong level or basis).
    """
    check_type("f", f, NearlyHolomorphicForm)
    if f.is_zero:
        return Decomposition(None, f.truncation, (), None)
    k = f.weight
    trunc = f.truncation
    shared = shared_level1_basis(trunc)
    if basis_provider is None:
        basis_rows = shared.rows
    else:
        def basis_rows(w: int) -> list[tuple[int, tuple[int, ...]]]:
            return _echelon_rows(w, basis_provider(w), trunc)
    sturm = getattr(basis_provider, "sturm_bound", Level1Basis.sturm_bound)
    # The remainder: cols over den, stored as a form stores them.
    den, cols = f._den, list(f._cols)
    terms: list[tuple[int, NearlyHolomorphicForm]] = []
    e2_term: Optional[tuple[int, Fraction]] = None

    def refuse(message: str) -> DecompositionError:
        residual = NearlyHolomorphicForm._from_columns(k, trunc, den, list(cols))
        return DecompositionError(message, residual=residual)

    while cols:
        p = len(cols) - 1
        w = k - 2 * p
        top = cols[p]

        if w == 0 and p >= 1:
            # Only the weight-two Eisenstein seed can put a constant column
            # at this depth: record c * delta^(p-1) of it.
            if any(top[1:]):
                raise refuse(
                    "depth-top column of weight-0 type is not constant; "
                    "not decomposable over supplied basis"
                )
            m = p - 1
            raised = shared.raised_e2(m)
            a, b = raised._cols[p][0], top[0]
            e2_term = (m, Fraction(b * raised._den, den * a))
            # c * delta^(m) E2 is b / (den * a) times the raised columns;
            # a and b over their gcd, with a > 0, scale the remainder least.
            g = gcd(a, b) if a > 0 else -gcd(a, b)
            a, b = a // g, b // g
            cols.pop()
            for j in range(p):
                scaled = cols[j] if a == 1 else map(a.__mul__, cols[j])
                cols[j] = list(map(sub, scaled, map(b.__mul__, raised._cols[j])))
            den *= a
            _pop_zero_columns(cols)
            continue

        if trunc < sturm(max(w, 0)):
            raise InsufficientTruncationError(
                f"truncation {trunc} below the dimension-detecting bound "
                f"{shown(sturm(max(w, 0)), str)} for weight {shown(w, str)}"
            )
        if w < 0:
            # No holomorphic form of negative weight; and c(w, p) may vanish.
            raise refuse("not decomposable over supplied basis")
        # delta^(p) g has the popped column at X^p, T_j * g below, and
        # b_p = c(w, p), which is nonzero for w > 0 and for p = 0.
        factor, table = shared.step(w, p)
        g = _seed(w, factor, trunc, den, top)
        seed = g._cols[0]
        if any(reduce_by(basis_rows(w), seed)):
            raise refuse("not decomposable over supplied basis")
        terms.append((p, g))
        cols.pop()
        new_den = lcm(den, g._den)
        s1, s2 = new_den // den, new_den // g._den
        if s2 != 1:
            seed = tuple(map(s2.__mul__, seed))
        for j in range(p):
            scaled = cols[j] if s1 == 1 else map(s1.__mul__, cols[j])
            cols[j] = list(map(sub, scaled, map(mul, table[j], seed)))
        den = new_den
        _pop_zero_columns(cols)

    # The seeds were taken top-down, at strictly falling depths.  The fields
    # are well formed as made, so __init__ does not check them again.
    terms.reverse()
    out = object.__new__(Decomposition)
    out._freeze((k, trunc, tuple(terms), e2_term))
    return out


def character_split(
    f: NearlyHolomorphicForm,
) -> dict[InfinitesimalCharacter, NearlyHolomorphicForm]:
    """Split f into Casimir character components, via its decomposition over
    the level-1 basis.

    Each seed of weight w contributes to the chi_w component; the weight-two
    Eisenstein seed lands in chi_2.
    """
    parts: dict[InfinitesimalCharacter, NearlyHolomorphicForm] = {}
    for w, piece in decompose(f).pieces():
        char = InfinitesimalCharacter(w)
        parts[char] = parts.get(char, NearlyHolomorphicForm.zero(f.truncation)) + piece
    return parts
