"""Structure decomposition of nearly holomorphic forms.

Every nearly holomorphic modular form is a sum of iterated raising operators
applied to holomorphic forms, plus possibly one iterated raising of the
weight-two Eisenstein series.  This module makes that constructive by greedy
top-depth peeling: the X^p column of a depth-p form of weight k determines the
weight-(k-2p) holomorphic seed up to the combinatorial factor

    c(w, l) = prod_{j=0}^{l-1} (j - (w + 2j)) = prod_{j=0}^{l-1} -(w + j),

which is computed from the raising monomial rule itself and vanishes only for
weight-0 seeds with l >= 1 (and those contribute nothing, so it is never
divided by).  The seed is therefore the top column over c(w, p), read off
with no linear solve (top_seed).  Depth strictly decreases, so peeling ends
in depth+1 steps.

The seed must lie in the span of the basis of its weight.  The basis is put
in reduced echelon form, one primitive integer row per pivot q-index, and
the top column is tested against it by integer elimination over all
truncation+1 coefficients, not only the first dim: a column that agrees with
a modular form up to q^(dim-1) and not beyond is refused.  The shared level-1
basis keeps its rows in that form (the Miller basis q^i + O(q^dim) up to
scaling), built once per weight, and the peel step reads them directly: it is
never reduced again.  A supplied basis is checked against the truncation,
truncated to it and reduced once per weight in play (each peel step is at a
new weight, since the depth falls).

A weight-2 seed at the top depth cannot be matched at level 1 (there are no
holomorphic weight-two forms there); the weight-two Eisenstein series instead
surfaces as the unique seed whose X-column one step above the holomorphic
range is constant, i.e. at residual weight 0.

decompose never returns a silently wrong answer: the supplied truncation must
reach the dimension-detecting bound of each weight in play (a Sturm-type
w/12 + 1 for level 1), and any residual outside the basis span raises with
the residual attached.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterator, Optional

from .arith import FrozenRecord, reduce_by, reduced_echelon
from .errors import DecompositionError, InsufficientTruncationError
from .generators import eisenstein2, level1_basis
from .operators import InfinitesimalCharacter, iterate_raise, leading_column_factor
from .series import NearlyHolomorphicForm


def top_seed(f: NearlyHolomorphicForm) -> NearlyHolomorphicForm:
    """The holomorphic g of weight w = k - 2p whose p-fold raising has the top
    X^p column of f (k the weight, p the depth of the nonzero f): that column
    over c(w, p), which must be nonzero."""
    p = f.depth
    w = f.weight - 2 * p
    factor = leading_column_factor(w, p)
    top = f._cols[p]
    seed = list(top) if factor > 0 else [-x for x in top]
    return NearlyHolomorphicForm._from_columns(w, f.truncation, f._den * abs(factor), [seed])


class Level1Basis:
    """Default basis provider: weight w -> the reduced echelon basis of
    M_w(SL_2(Z)), one primitive integer q-series per pivot q-index (the
    Miller basis q^i + O(q^dim) up to scaling), spanning what the monomials
    E4^a E6^b span.

    Each weight's reduced echelon rows are built once (rows); every call
    returns a fresh list of the (immutable) forms made from them.  The
    instance also holds the weight-two Eisenstein series at its truncation.
    """

    def __init__(self, truncation: int):
        self.truncation = truncation
        self.eisenstein2 = eisenstein2(truncation)
        self._rows: dict[int, list[tuple[int, tuple[int, ...]]]] = {}

    def rows(self, w: int) -> list[tuple[int, tuple[int, ...]]]:
        """The (pivot, row) pairs of the weight-w basis in reduced echelon form."""
        if w not in self._rows:
            trunc = self.truncation
            cols = [b._cols[0] for b in level1_basis(w, trunc)]
            self._rows[w] = [(p, tuple(row)) for p, row in reduced_echelon(cols, trunc + 1)]
        return self._rows[w]

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


def raised_e2(truncation: int, m: int) -> NearlyHolomorphicForm:
    """delta^(m) applied to the weight-two Eisenstein series."""
    return iterate_raise(shared_level1_basis(truncation).eisenstein2, m)


class Decomposition(FrozenRecord):
    """Seeds of a structure decomposition.

    terms: pairs (ell, g) with g holomorphic of weight (input weight) - 2*ell,
    at most one per ell.  e2_term: optional (m, c) standing for c * delta^(m)
    applied to the weight-two Eisenstein series.  Reassembly reproduces the
    input to its truncation.
    """

    __slots__ = ("weight", "truncation", "terms", "e2_term")
    _fields = ("weight", "truncation", "terms", "e2_term")

    def __init__(
        self,
        weight: Optional[int],
        truncation: int,
        terms: tuple[tuple[int, NearlyHolomorphicForm], ...],
        e2_term: Optional[tuple[int, Fraction]],
    ):
        self._freeze((weight, truncation, terms, e2_term))

    def pieces(self) -> Iterator[tuple[int, NearlyHolomorphicForm]]:
        """(seed weight, raised seed) per summand; the weight-two Eisenstein one last."""
        for ell, g in self.terms:
            yield g.weight, iterate_raise(g, ell)
        if self.e2_term is not None:
            m, c = self.e2_term
            yield 2, raised_e2(self.truncation, m) * c

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


def _supplied_rows(
    provider: Callable[[int], list[NearlyHolomorphicForm]], trunc: int
) -> Callable[[int], list[tuple[int, list[int]]]]:
    """w -> the reduced echelon rows, at truncation trunc, of the basis the
    provider supplies for weight w, which must reach trunc."""

    def rows(w: int) -> list[tuple[int, list[int]]]:
        basis = provider(w)
        if any(b.truncation < trunc for b in basis):
            raise InsufficientTruncationError(
                f"basis for weight {w} truncated below the input truncation {trunc}"
            )
        cols = [t._cols[0] for t in (b.truncate(trunc) for b in basis) if not t.is_zero]
        return reduced_echelon(cols, trunc + 1)

    return rows


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
    if f.is_zero:
        return Decomposition(None, f.truncation, (), None)
    k = f.weight
    trunc = f.truncation
    if basis_provider is None:
        basis_rows = shared_level1_basis(trunc).rows
    else:
        basis_rows = _supplied_rows(basis_provider, trunc)
    sturm = getattr(basis_provider, "sturm_bound", Level1Basis.sturm_bound)
    rem = f
    terms: list[tuple[int, NearlyHolomorphicForm]] = []
    e2_term: Optional[tuple[int, Fraction]] = None

    while not rem.is_zero:
        p = rem.depth
        w = k - 2 * p
        top = rem._cols[p]

        if w == 0 and p >= 1:
            # Only the weight-two Eisenstein seed can put a constant column
            # at this depth: record c * delta^(p-1) of it.
            if any(top[1:]):
                raise DecompositionError(
                    "depth-top column of weight-0 type is not constant; "
                    "not decomposable over supplied basis",
                    residual=rem,
                )
            m = p - 1
            raised = raised_e2(trunc, m)
            c = Fraction(top[0] * raised._den, rem._den * raised._cols[p][0])
            e2_term = (m, c)
            rem = rem - raised * c
            continue

        if trunc < sturm(max(w, 0)):
            raise InsufficientTruncationError(
                f"truncation {trunc} below the dimension-detecting bound "
                f"{sturm(max(w, 0))} for weight {w}"
            )
        if any(reduce_by(basis_rows(w) if w >= 0 else [], top)):
            raise DecompositionError(
                "not decomposable over supplied basis", residual=rem
            )
        g = top_seed(rem)
        new_rem = rem - iterate_raise(g, p)
        if not new_rem.is_zero and new_rem.depth >= p:
            # The raised seed must cancel the whole top column.
            raise DecompositionError(
                "not decomposable over supplied basis", residual=rem
            )
        terms.append((p, g))
        rem = new_rem

    terms.sort(key=lambda t: t[0])
    return Decomposition(k, trunc, tuple(terms), e2_term)


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
        char = InfinitesimalCharacter.of(w)
        parts[char] = parts.get(char, NearlyHolomorphicForm.zero(f.truncation)) + piece
    return parts
