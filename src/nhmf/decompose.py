"""Structure decomposition of nearly holomorphic forms.

Every nearly holomorphic modular form is a sum of iterated raising operators
applied to holomorphic forms, plus possibly one iterated raising of the
weight-two Eisenstein series.  This module makes that constructive by greedy
top-depth peeling: the X^p column of a depth-p form of weight k determines the
weight-(k-2p) holomorphic seed up to the combinatorial factor

    c(w, l) = prod_{j=0}^{l-1} (j - (w + 2j)) = prod_{j=0}^{l-1} -(w + j),

which is computed from the raising monomial rule itself and vanishes only for
weight-0 seeds with l >= 1 (and those contribute nothing, so it is never
divided by).  Depth strictly decreases, so peeling ends in depth+1 steps.

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

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Optional

from .arith import frac_to_str, solve_exact
from .errors import DecompositionError, InsufficientTruncationError
from .generators import eisenstein2, level1_basis
from .operators import InfinitesimalCharacter, iterate_raise
from .series import NearlyHolomorphicForm


def leading_column_factor(w: int, ell: int) -> Fraction:
    """c(w, l): the X^l column of delta^(l) g is c(w, l) * g for holomorphic g of weight w."""
    acc = Fraction(1)
    for j in range(ell):
        acc *= -(w + j)
    return acc


def _e2_column_factor(m: int) -> Fraction:
    # Top X-column of delta^(m) applied to the weight-two Eisenstein series:
    # the seed column is 12 at depth 1, each step j multiplies by -(1 + j).
    acc = Fraction(12)
    for j in range(m):
        acc *= -(1 + j)
    return acc


class Level1Basis:
    """Default basis provider: weight w -> monomial basis of M_w(SL_2(Z)).

    Each weight's basis is built once; every call returns a fresh list of the
    (immutable) forms.  The instance also holds the weight-two Eisenstein
    series at its truncation.
    """

    def __init__(self, truncation: int):
        self.truncation = truncation
        self.eisenstein2 = eisenstein2(truncation)
        self._cache: dict[int, list[NearlyHolomorphicForm]] = {}

    def __call__(self, w: int) -> list[NearlyHolomorphicForm]:
        if w not in self._cache:
            self._cache[w] = level1_basis(w, self.truncation)
        return list(self._cache[w])

    @staticmethod
    def sturm_bound(w: int) -> int:
        return w // 12 + 1


@lru_cache(maxsize=4)
def shared_level1_basis(truncation: int) -> Level1Basis:
    """The Level1Basis of a truncation shared by decompose, reassemble and
    character_split, kept for the few most recent truncations."""
    return Level1Basis(truncation)


@dataclass(frozen=True)
class Decomposition:
    """Seeds of a structure decomposition.

    terms: pairs (ell, g) with g holomorphic of weight (input weight) - 2*ell,
    at most one per ell.  e2_term: optional (m, c) standing for c * delta^(m)
    applied to the weight-two Eisenstein series.  Reassembly reproduces the
    input to its truncation.
    """

    weight: Optional[int]
    truncation: int
    terms: tuple[tuple[int, NearlyHolomorphicForm], ...]
    e2_term: Optional[tuple[int, Fraction]]

    def reassemble(self) -> NearlyHolomorphicForm:
        out = NearlyHolomorphicForm.zero(self.truncation)
        for ell, g in self.terms:
            out = out + iterate_raise(g, ell)
        if self.e2_term is not None:
            m, c = self.e2_term
            e2 = shared_level1_basis(self.truncation).eisenstein2
            out = out + iterate_raise(e2, m) * c
        return out

    def to_json(self) -> dict:
        doc = {
            "terms": [{"ell": ell, "g": g.to_doc()} for ell, g in self.terms],
            "e2": None,
        }
        if self.e2_term is not None:
            m, c = self.e2_term
            doc["e2"] = {"m": m, "c": frac_to_str(c)}
        return doc


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
    if basis_provider is None:
        basis_provider = shared_level1_basis(f.truncation)
    sturm = getattr(basis_provider, "sturm_bound", Level1Basis.sturm_bound)

    k = f.weight
    trunc = f.truncation
    rem = f
    terms: list[tuple[int, NearlyHolomorphicForm]] = []
    e2_term: Optional[tuple[int, Fraction]] = None

    while not rem.is_zero:
        p = rem.depth
        w = k - 2 * p
        top = rem.x_column(p)

        if w == 0 and p >= 1:
            # Only the weight-two Eisenstein seed can put a constant column
            # at this depth: record c * delta^(p-1) of it.
            if any(n for n in top if n):
                raise DecompositionError(
                    "depth-top column of weight-0 type is not constant; "
                    "not decomposable over supplied basis",
                    residual=rem,
                )
            m = p - 1
            c = top.get(0, Fraction(0)) / _e2_column_factor(m)
            e2_term = (m, c)
            e2 = shared_level1_basis(trunc).eisenstein2
            rem = rem - iterate_raise(e2, m) * c
            continue

        if trunc < sturm(max(w, 0)):
            raise InsufficientTruncationError(
                f"truncation {trunc} below the dimension-detecting bound "
                f"{sturm(max(w, 0))} for weight {w}"
            )
        basis = basis_provider(w) if w >= 0 else []
        if any(b.truncation < trunc for b in basis):
            raise InsufficientTruncationError(
                f"basis for weight {w} truncated below the input truncation {trunc}"
            )
        basis = [b if b.truncation == trunc else b.truncate(trunc) for b in basis]
        factor = leading_column_factor(w, p)
        target = {n: c / factor for n, c in top.items()}
        solution = solve_exact([b.x_column(0) for b in basis], target) if basis else None
        if solution is None:
            if not any(top.values()):
                raise AssertionError("empty top column in peeling loop")
            raise DecompositionError(
                "not decomposable over supplied basis",
                residual=rem,
            )
        g = NearlyHolomorphicForm.zero(trunc)
        for x, b in zip(solution, basis):
            g = g + b * x
        if g.is_zero:
            raise DecompositionError(
                "not decomposable over supplied basis", residual=rem
            )
        new_rem = rem - iterate_raise(g, p)
        if not new_rem.is_zero and new_rem.depth >= p:
            # Top column matched only partially: seed not in span.
            raise DecompositionError(
                "not decomposable over supplied basis", residual=rem
            )
        terms.append((p, g))
        rem = new_rem

    terms.sort(key=lambda t: t[0])
    return Decomposition(k, trunc, tuple(terms), e2_term)


def character_split(
    f: NearlyHolomorphicForm,
    basis_provider: Optional[Callable[[int], list[NearlyHolomorphicForm]]] = None,
) -> dict[InfinitesimalCharacter, NearlyHolomorphicForm]:
    """Split f into Casimir character components, via its decomposition.

    Each seed of weight w contributes to the chi_w component; the weight-two
    Eisenstein seed lands in chi_2.
    """
    dec = decompose(f, basis_provider)
    parts: dict[InfinitesimalCharacter, NearlyHolomorphicForm] = {}

    def add(char: InfinitesimalCharacter, piece: NearlyHolomorphicForm):
        parts[char] = parts.get(char, NearlyHolomorphicForm.zero(f.truncation)) + piece

    for ell, g in dec.terms:
        add(InfinitesimalCharacter.of(g.weight), iterate_raise(g, ell))
    if dec.e2_term is not None:
        m, c = dec.e2_term
        e2 = shared_level1_basis(f.truncation).eisenstein2
        add(InfinitesimalCharacter.of(2), iterate_raise(e2, m) * c)
    return parts
