"""Symbolic category-O bookkeeping for sl2 and the non-cuspidal spectrum catalog.

Blocks of category O for sl2 are classified by the orbit {lam, 2 - lam} of the
infinitesimal character.  Outside integral walls a block is semisimple with
two (or one) simple Verma modules; at an integral parameter lam > 1 it has
exactly five indecomposables

    N(lam), L(2-lam), N(2-lam), N(2-lam)^v, P(lam)

linked by 0 -> N(lam) -> N(2-lam) -> L(2-lam) -> 0 and
0 -> N(lam) -> P(lam) -> N(2-lam) -> 0.  Here "highest weight" is taken with
respect to the Borel containing the lowering direction, so the weights of
N(lam) are lam, lam+2, lam+4, ... and the finite-dimensional simple L(2-k)
has dimension k - 1.

identify_module fingerprints the module generated by a concrete form against
this finite list, reading its class off the weight, depth and top X-column.
catalog(d, k) records the symbolic decomposition of the weight-k
non-cuspidal spectrum over a degree-d totally real base: character families
are descriptors with parity and constraint tags, never enumerated.
"""

from __future__ import annotations

from collections.abc import Iterable
from fractions import Fraction
from functools import lru_cache
from typing import Optional

from .arith import MAX_DEGREE, MAX_WEIGHT, FrozenRecord, check_int, read_rational
from .errors import AmbiguousModuleError, DomainError
from .laurent import constant_term_report, weight_parity
from .operators import (
    InfinitesimalCharacter, infinitesimal_character, leading_column_factor, scalar_ratio,
)
from .series import NearlyHolomorphicForm, check_form


# The notation of each kind of class with a parameter lam.
_NOTATION = {
    "verma": "N({})", "simple": "L({})", "dual_verma": "N({})^v",
    "projective": "P({})", "finite": "F_{}",
}


class ModuleClass(FrozenRecord):
    """Label of an indecomposable object: one of verma/simple/dual_verma/
    projective/finite/trivial, canonicalized here so aliases compare equal
    (e.g. Simple(0) is Trivial, and a simple Verma is stored as simple).
    An unknown kind, or a lam that is no rational, is a DomainError."""

    __slots__ = ("kind", "lam")

    def __init__(self, kind: str, lam=None):
        if kind == "trivial" and lam is None:
            kind, lam = "simple", 0  # triv is L(0)
        elif not (isinstance(kind, str) and kind in _NOTATION):
            raise DomainError(f"no module class {kind!r} with lambda {lam!r}")
        lam = read_rational(lam)
        integral = lam.denominator == 1
        if kind == "finite":
            if not integral or lam < 2:
                raise DomainError(f"finite-dimensional class needs integer k >= 2, got {lam}")
            kind, lam = "simple", 2 - lam  # F_k is L(2 - k)
        elif kind == "projective" and not (integral and lam >= 2):
            kind = "simple"  # semisimple block: P = N = L
        elif kind in ("verma", "dual_verma") and not (integral and lam <= 0):
            kind = "simple"  # irreducible Verma
        if kind == "simple" and integral and lam <= 0:
            kind, lam = ("finite", 2 - lam) if lam < 0 else ("trivial", None)
        self._freeze((kind, lam))

    @property
    def dimension(self) -> Optional[int]:
        if self.kind == "trivial":
            return 1
        if self.kind == "finite":
            return int(self.lam) - 1
        return None

    @property
    def character(self) -> InfinitesimalCharacter:
        if self.kind == "trivial":
            return InfinitesimalCharacter(2)
        return InfinitesimalCharacter(self.lam)

    def render(self) -> str:
        if self.kind == "trivial":
            return "triv"
        return _NOTATION[self.kind].format(self.lam)

    def __repr__(self):
        return f"ModuleClass({self.render()})"

    def to_json(self) -> dict:
        doc = {"kind": self.kind}
        if self.lam is not None:
            doc["lambda"] = str(self.lam)
        if self.dimension is not None:
            doc["dimension"] = self.dimension
        return doc


def composition_factors(mc: ModuleClass) -> tuple[ModuleClass, ...]:
    if not isinstance(mc, ModuleClass):
        raise DomainError(f"mc must be a ModuleClass, got {mc!r}")
    if mc.kind in ("trivial", "finite", "simple"):
        return (mc,)
    low, high = ModuleClass("simple", 2 - mc.lam), ModuleClass("simple", mc.lam)
    if mc.kind in ("verma", "dual_verma"):
        return (low, high)
    return (high, low, high)  # projective


class BlockClassification(FrozenRecord):
    __slots__ = ("representative", "classes", "exact_sequences")

    def __init__(
        self,
        representative: Fraction,
        classes: tuple[ModuleClass, ...],
        # each sequence records 0 -> sub -> middle -> quotient -> 0
        exact_sequences: tuple[tuple[ModuleClass, ModuleClass, ModuleClass], ...],
    ):
        self._freeze((representative, classes, exact_sequences))

    def to_json(self) -> dict:
        return {
            "representative": str(self.representative),
            "classes": [c.to_json() for c in self.classes],
            "exact_sequences": [
                {"sub": a.to_json(), "middle": b.to_json(), "quotient": c.to_json()}
                for a, b, c in self.exact_sequences
            ],
        }


def classify_block(lam) -> BlockClassification:
    """The indecomposables of the block of chi_lam, with its exact sequences.

    The block is a value of the orbit representative alone, built once for
    each of the last 1024 representatives asked for and then shared: the
    calls for lam and for 2 - lam return the same object.
    """
    return _block(InfinitesimalCharacter(lam).lam)


@lru_cache(maxsize=1024)
def _block(rep: Fraction) -> BlockClassification:
    # The block of chi_rep, for the orbit representative rep >= 1.
    l_rep = ModuleClass("simple", rep)
    if rep == 1:
        return BlockClassification(rep, (l_rep,), ())
    low = 2 - rep
    l_low = ModuleClass("simple", low)
    if rep.denominator != 1:
        return BlockClassification(rep, (l_rep, l_low), ())
    n_low, p_rep = ModuleClass("verma", low), ModuleClass("projective", rep)
    classes = (l_rep, l_low, n_low, ModuleClass("dual_verma", low), p_rep)
    sequences = ((l_rep, n_low, l_low), (l_rep, p_rep, n_low))
    return BlockClassification(rep, classes, sequences)


def identify_module(f: NearlyHolomorphicForm, max_steps: Optional[int] = None) -> ModuleClass:
    """The indecomposable class generated by a Casimir eigenform.

    Fingerprints the operator orbit of f against the class list of its
    block.  An eigenform of weight k and depth m is the m-fold raising of a
    seed of weight w = k - 2m, and its top X^m column is c(w, m) times that
    seed, so the class is read off w, m and that column.  The Casimir of the
    eigenform check is the only operator applied, apart from the raised
    weight-two Eisenstein series compared with at w = 0.  Forms whose orbit
    does not match a single class raise AmbiguousModuleError listing the
    candidates.

    max_steps is deprecated and ignored: the call does the same work at any
    depth, so no step budget applies.  It is still accepted, by position too.
    """
    from .decompose import shared_level1_basis, top_seed

    check_form("f", f)
    if f.is_zero:
        raise DomainError("the zero form generates no module")
    char = infinitesimal_character(f)  # raises on non-eigenforms
    block = classify_block(char.lam)
    k = f.weight
    m = f.depth
    w = k - 2 * m

    def ambiguous(msg):
        return AmbiguousModuleError(
            msg, candidates=[c.render() for c in block.classes]
        )

    if w == 0 and m >= 1:
        # Candidate: the dual Verma N(0)^v generated by the weight-two
        # Eisenstein seed (socle = constants, quotient = L(2)).
        if scalar_ratio(f, shared_level1_basis(f.truncation).raised_e2(m - 1)) is None:
            raise ambiguous("form is not a multiple of the raised weight-two seed")
        return ModuleClass("dual_verma", 0)

    # L^m R^m acts on a seed of weight w by m! c(w, m).
    if leading_column_factor(w, m) == 0:
        raise ambiguous("operator orbit is inconsistent with a cyclic seed")
    if w >= 1:
        return ModuleClass("simple", w)
    # w <= 0: R^(1 - w) kills the seed, the top column over c(w, m), iff
    # the seed is constant.  At w = 0 that is the trivial module, else a free
    # weight-0 seed; at w < 0 it is the finite quotient of the Verma with
    # non-dominant highest weight.
    if top_seed(f).is_constant_series():
        return ModuleClass("trivial") if w == 0 else ModuleClass("finite", 2 - w)
    return ModuleClass("verma", w)


# ---------------------------------------------------------------------------
# The symbolic spectrum catalog.
# ---------------------------------------------------------------------------


class CharacterFamily(FrozenRecord):
    """A family of Hecke characters, described but never enumerated.

    archimedean_parity is +1 for families trivial at every real place and -1
    for families that are the sign character at every real place; constraints
    are tags like "nontrivial", "non-quadratic", "associate-classes",
    "trivial-only".
    """

    __slots__ = ("archimedean_parity", "constraints")

    def __init__(self, archimedean_parity: int, constraints: tuple[str, ...] = ()):
        self._freeze((archimedean_parity, constraints))

    def to_json(self) -> dict:
        return {
            "archimedean_parity": self.archimedean_parity,
            "constraints": list(self.constraints),
        }


class Summand(FrozenRecord):
    """One summand: a finite-part tag tensored with an archimedean label.

    finite_kind is induced_family | space_enumeration | trivial | extension.
    """

    __slots__ = ("finite_kind", "archimedean", "family", "s", "detail")

    def __init__(
        self,
        finite_kind: str,
        archimedean: dict,
        family: Optional[CharacterFamily] = None,
        s: Optional[int] = None,
        detail: Optional[dict] = None,
    ):
        detail = {} if detail is None else detail  # a fresh dict per summand
        self._freeze((finite_kind, archimedean, family, s, detail))

    def to_json(self) -> dict:
        finite: dict = {"kind": self.finite_kind}
        if self.family is not None:
            finite["family"] = self.family.to_json()
        if self.s is not None:
            finite["s"] = self.s
        finite.update(self.detail)
        return {"finite_part": finite, "archimedean": self.archimedean}


class DecompositionDescriptor(FrozenRecord):
    """The summands of catalog(d, k); every other field is read off them."""

    __slots__ = ("d", "k", "summands")

    def __init__(self, d: int, k: int, summands: tuple[Summand, ...]):
        self._freeze((d, k, summands))

    def _detail(self, kind: str) -> Optional[dict]:
        return next((s.detail for s in self.summands if s.finite_kind == kind), None)

    @property
    def pi_extension(self) -> Optional[dict]:
        detail = self._detail("extension")
        return None if detail is None else detail["exact_sequence"]

    @property
    def space_enumeration(self) -> Optional[dict]:
        return self._detail("space_enumeration")

    @property
    def contains_trivial(self) -> bool:
        return any(s.finite_kind in ("trivial", "extension") for s in self.summands)

    @property
    def quotient_nearly_by_holomorphic(self) -> dict:
        if self.d == 1:
            return {"kind": "trivial_tensor_simple", "lambda": [2]}
        return {"kind": "zero"}

    def to_json(self) -> dict:
        return {
            "d": self.d,
            "k": self.k,
            "summands": [s.to_json() for s in self.summands],
            "pi_extension": self.pi_extension,
            "space_enumeration": self.space_enumeration,
            "contains_trivial": self.contains_trivial,
            "quotient_nearly_by_holomorphic": self.quotient_nearly_by_holomorphic,
        }


def _parallel_simple(k: int, d: int) -> dict:
    return {"kind": "simple", "lambda": [k] * d}


def _induced(k: int, d: int, *constraints: str) -> Summand:
    """The family induced at s = k - 1 from characters of parity (-1)^k,
    with archimedean part L(k)^d."""
    family = CharacterFamily(weight_parity(k), constraints)
    return Summand("induced_family", _parallel_simple(k, d), family=family, s=k - 1)


def catalog(d: int, k: int) -> DecompositionDescriptor:
    """Symbolic decomposition of the weight-k non-cuspidal spectrum at degree d.

    k >= 3: a single induced family of parity (-1)^k at s = k - 1.
    k = 1:  the non-quadratic associate-class family at s = 0 plus the
            enumeration of definite quadratic spaces (theta summands).
    k = 2:  the nontrivial-family block plus, where the trivial-character
            constant term has a residue (SectionPlusResidue, which is d = 1),
            the indecomposable extension of the induced block by the
            constants generated by the weight-two Eisenstein series, and
            where it has none a plain trivial summand instead.
    """
    check_int("degree d", d, 1, MAX_DEGREE)
    check_int("weight k", k, 1, MAX_WEIGHT)
    if k >= 3:
        summands = (_induced(k, d),)
    elif k == 1:
        enumeration = {"signature": [2, 0], "hook": "enumerate_definite_spaces"}
        summands = (
            _induced(1, d, "non-quadratic", "associate-classes"),
            Summand("space_enumeration", _parallel_simple(1, d), detail=enumeration),
        )
    elif constant_term_report(2, d, "trivial").verdict.kind == "SectionPlusResidue":
        # The residue of the constant term makes the constants a non-split
        # sub of the module the weight-two Eisenstein series generates.
        extension = {
            "sub": {"kind": "trivial"},
            "middle": "module generated by the weight-two Eisenstein series",
            "quotient": _induced(2, d, "trivial-only").to_json(),
        }
        summands = (
            _induced(2, d, "nontrivial"),
            Summand(
                "extension",
                {"kind": "dual_verma", "lambda": [0] * d},
                detail={"exact_sequence": extension},
            ),
        )
    else:
        summands = (_induced(2, d), Summand("trivial", {"kind": "trivial"}))
    return DecompositionDescriptor(d, k, summands)


def integral_parallel_filter(lams) -> tuple[bool, Optional[tuple[int, ...]]]:
    """Whether some sign-flip dot-action image of lams is integral and parallel.

    The dot action of a sign vector w is (w . lam)_i = eps_i (lam_i - 1) + 1.
    On success returns the parallel representative normalized into Z^d_{>=1}.
    """
    if not isinstance(lams, Iterable):
        raise DomainError(f"lams must be an iterable of rationals, got {lams!r}")
    lams = [read_rational(x) for x in lams]
    if not lams:
        raise DomainError("empty weight tuple")
    # w sends lam_i - 1 to +-(lam_i - 1): an image is parallel iff every lam_i
    # is lam_1 or 2 - lam_1, and its representative 1 + |lam_1 - 1| is
    # integral iff lam_1 is.
    pair = (lams[0], 2 - lams[0])
    if lams[0].denominator != 1 or any(x not in pair for x in lams):
        return False, None
    return True, (int(max(pair)),) * len(lams)
