"""The record classes keep the value semantics they had as dataclasses.

Equality within one class and a hash by the tuple of field values, the
Name(field=value, ...) repr, frozen fields, the order of places and fresh
default containers, now from the bases Record and FrozenRecord of arith.
"""

import ast
import copy
import importlib
import inspect
import pickle
import pkgutil
import textwrap
from fractions import Fraction
from functools import cached_property

import pytest

import nhmf
from nhmf.arith import FrozenRecord, Record
from nhmf.category_o import (
    BlockClassification,
    CharacterFamily,
    DecompositionDescriptor,
    ModuleClass,
    Summand,
)
from nhmf.cli import CommandResult, main
from nhmf.decompose import Decomposition
from nhmf.generators import BinaryForm, eisenstein
from nhmf.laurent import ConstantTermReport, LaurentScalar, Verdict
from nhmf.operators import InfinitesimalCharacter
from nhmf.pi_scalar import PiScalar
from nhmf.quadratic import (
    CharacterDescriptor,
    CoherenceResult,
    Collection,
    LocalInvariant,
    Place,
    QuadSpace2D,
    ReducibilityVerdict,
)
from nhmf.verify import PropertyResult

GERM = LaurentScalar(Fraction(3), 1, PiScalar.pi_power(-1, 2))
THREE, REAL = Place("finite", 3), Place("real")
LAM3 = ModuleClass("simple", Fraction(3))

# Per class: its field names in order, the arguments of one record, those of
# a record that differs from it, and that record's repr.
CASES = {
    CommandResult: (
        ("payload", "diagnostics", "code", "out_path", "json_indent", "text"),
        ({"a": 1},),
        ({"a": 1}, ["x"]),
        "CommandResult(payload={'a': 1}, diagnostics=[], code=None, out_path=None, json_indent=None, text='')",
    ),
    PropertyResult: (
        ("name", "passed", "detail"),
        ("x", True),
        ("x", False),
        "PropertyResult(name='x', passed=True, detail='')",
    ),
    LaurentScalar: (
        ("point", "order", "leading"),
        (Fraction(3), 1, PiScalar.pi_power(-1, 2)),
        (Fraction(3), 1),
        "LaurentScalar(point=Fraction(3, 1), order=1, leading=PiScalar(2·π^-1))",
    ),
    Verdict: (
        ("kind", "leading", "exact", "order"),
        ("Pole", None, False, -1),
        ("Pole", None, True, -1),
        "Verdict(kind='Pole', leading=None, exact=False, order=-1)",
    ),
    ConstantTermReport: (
        ("k", "d", "character", "second_term"),
        (4, 1, "trivial", GERM),
        (4, 2, "trivial", GERM),
        "ConstantTermReport(k=4, d=1, character='trivial', second_term="
        "LaurentScalar(point=Fraction(3, 1), order=1, leading=PiScalar(2·π^-1)))",
    ),
    BinaryForm: (("a", "b", "c"), (0, 0, 0), (1, 0, 1), "BinaryForm(a=0, b=0, c=0)"),
    Place: (("kind", "p"), ("finite", 3), ("finite", 5), "Place(kind='finite', p=3)"),
    QuadSpace2D: (
        ("a1", "a2"),
        (Fraction(2, 3), -5),
        (Fraction(2, 3), 5),
        "QuadSpace2D(a1=Fraction(2, 3), a2=Fraction(-5, 1))",
    ),
    LocalInvariant: (
        ("place", "chi_nontrivial", "epsilon"),
        (THREE, True, -1),
        (THREE, True, 1),
        "LocalInvariant(place=Place(kind='finite', p=3), chi_nontrivial=True, epsilon=-1)",
    ),
    Collection: (
        ("discriminant", "epsilons"),
        (-3, ((REAL, 1), (THREE, -1))),
        (-3, ((REAL, -1), (THREE, -1))),
        "Collection(discriminant=Fraction(-3, 1), epsilons=((Place(kind='finite', p=3), -1), "
        "(Place(kind='real', p=None), 1)))",
    ),
    CoherenceResult: (
        ("witness",),
        (QuadSpace2D(1, 1),),
        (None,),
        "CoherenceResult(witness=QuadSpace2D(a1=Fraction(1, 1), a2=Fraction(1, 1)))",
    ),
    CharacterDescriptor: (
        ("order", "unramified", "real_sign"),
        (2, False, 0),
        (2, True, 0),
        "CharacterDescriptor(order=2, unramified=False, real_sign=0)",
    ),
    ReducibilityVerdict: (
        ("residue", "constituents", "structure"),
        ("real", ("a", "b"), "direct_sum"),
        ("real",),
        "ReducibilityVerdict(residue='real', constituents=('a', 'b'), structure='direct_sum')",
    ),
    ModuleClass: (("kind", "lam"), ("simple", Fraction(4)), ("verma", Fraction(-4)), "ModuleClass(L(4))"),
    BlockClassification: (
        ("representative", "classes", "exact_sequences"),
        (Fraction(3), (LAM3,), ()),
        (Fraction(3), (), ()),
        "BlockClassification(representative=Fraction(3, 1), classes=(ModuleClass(L(3)),), exact_sequences=())",
    ),
    CharacterFamily: (
        ("archimedean_parity", "constraints"),
        (-1, ("nontrivial",)),
        (1, ("nontrivial",)),
        "CharacterFamily(archimedean_parity=-1, constraints=('nontrivial',))",
    ),
    Summand: (
        ("finite_kind", "archimedean", "family", "s", "detail"),
        ("trivial", {"kind": "trivial"}),
        ("trivial", {"kind": "simple"}),
        "Summand(finite_kind='trivial', archimedean={'kind': 'trivial'}, family=None, s=None, detail={})",
    ),
    DecompositionDescriptor: (
        ("d", "k", "summands"),
        (1, 4, ()),
        (1, 5, ()),
        "DecompositionDescriptor(d=1, k=4, summands=())",
    ),
    Decomposition: (
        ("weight", "truncation", "terms", "e2_term"),
        (4, 2, ((0, eisenstein(4, 2)),), None),
        (4, 2, (), None),
        "Decomposition(weight=4, truncation=2, terms=((0, NearlyHolomorphicForm(weight=4, trunc=2: "
        "1 + 240*q + 2160*q^2)),), e2_term=None)",
    ),
    InfinitesimalCharacter: (("lam",), (Fraction(3),), (Fraction(4),), "chi_3"),
}
MUTABLE = (CommandResult, PropertyResult)
FROZEN = [cls for cls in CASES if cls not in MUTABLE]


def fields_of(record) -> tuple:
    return tuple(getattr(record, name) for name in CASES[type(record)][0])


def test_the_twenty_record_classes():
    assert len(CASES) == 20
    assert all(issubclass(cls, Record) for cls in CASES)
    assert [cls for cls in CASES if issubclass(cls, FrozenRecord)] == FROZEN


def subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from subclasses(sub)


def test_every_record_class_of_the_package_is_a_case_and_leaves_the_layout_to_its_base():
    for module in pkgutil.iter_modules(nhmf.__path__):
        importlib.import_module(f"nhmf.{module.name}")
    package = [cls for cls in subclasses(Record) if cls.__module__.split(".")[0] == "nhmf"]
    assert FrozenRecord in package
    package.remove(FrozenRecord)
    assert set(package) == set(CASES)
    # _key and __hash__ come from Record and FrozenRecord alone.
    assert [cls for cls in package if "_key" in vars(cls) or "__hash__" in vars(cls)] == []


def stated(cls) -> set:
    """The names the class body of cls assigns."""
    body = ast.parse(textwrap.dedent(inspect.getsource(cls))).body[0].body
    return {t.id for node in body if isinstance(node, ast.Assign) for t in node.targets}


def test_each_frozen_record_states_its_fields_once():
    # As __slots__, which FrozenRecord takes as _fields, or, for the one
    # class with no slots, as _fields.
    for cls in FROZEN:
        assert len(stated(cls) & {"__slots__", "_fields"}) == 1, cls
        if "__slots__" in vars(cls):
            assert cls._fields == cls.__slots__ == CASES[cls][0], cls
    assert [cls for cls in FROZEN if "__slots__" not in vars(cls)] == [QuadSpace2D]


@pytest.mark.parametrize("cls", FROZEN, ids=lambda cls: cls.__name__)
def test_a_frozen_records_init_takes_its_fields_in_order(cls):
    # _freeze pairs the values with _fields, and __reduce__ calls the class
    # on _key, so the positional parameters must be the fields in order.
    params = list(inspect.signature(cls.__init__).parameters.values())[1:]
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params)
    assert tuple(p.name for p in params) == cls._fields


@pytest.mark.parametrize("cls", CASES, ids=lambda cls: cls.__name__)
def test_equality_is_by_field_values_within_one_class(cls):
    _, args, other_args, _ = CASES[cls]
    record = cls(*args)
    assert record == cls(*args) and not record != cls(*args)
    assert record != cls(*other_args)
    assert record != fields_of(record)  # a tuple of the same values is no record


@pytest.mark.parametrize("cls", CASES, ids=lambda cls: cls.__name__)
def test_a_frozen_record_hashes_as_its_field_tuple_and_a_mutable_one_not_at_all(cls):
    record = cls(*CASES[cls][1])
    if cls in MUTABLE:
        with pytest.raises(TypeError):
            hash(record)
        return
    try:
        expected = hash(fields_of(record))
    except TypeError:  # a dict among the fields
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == expected == hash(cls(*CASES[cls][1]))


@pytest.mark.parametrize("cls", CASES, ids=lambda cls: cls.__name__)
def test_the_repr_names_each_field(cls):
    _, args, _, text = CASES[cls]
    assert repr(cls(*args)) == text


def test_the_theta_refusal_shows_the_form_as_before(capsys):
    assert main(["theta", "--a", "0", "--b", "0", "--c", "0", "--trunc", "3"]) == 1
    message = capsys.readouterr().err
    assert "theta series requires a positive definite form, got BinaryForm(a=0, b=0, c=0)" in message


@pytest.mark.parametrize("cls", FROZEN, ids=lambda cls: cls.__name__)
def test_a_frozen_record_refuses_assignment_and_deletion(cls):
    names, args, _, _ = CASES[cls]
    record = cls(*args)
    before = fields_of(record)
    for name in (*names, "_key", "no_such_field"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert fields_of(record) == before


@pytest.mark.parametrize("cls", FROZEN, ids=lambda cls: cls.__name__)
def test_a_frozen_record_copies_and_pickles_to_an_equal_one(cls):
    record = cls(*CASES[cls][1])
    for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(twin) is cls and fields_of(twin) == fields_of(record)


def test_a_mutable_record_takes_assignment():
    result = CommandResult({"a": 1})
    result.code = "usage"
    assert not result.ok and result != CommandResult({"a": 1})


def test_places_order_by_kind_then_prime():
    places = [REAL, Place("finite", 7), THREE, Place("finite", 2)]
    assert sorted(places) == [Place("finite", 2), THREE, Place("finite", 7), REAL]
    assert THREE < REAL and THREE <= THREE and REAL > THREE and REAL >= REAL
    assert not REAL < REAL
    with pytest.raises(TypeError):
        THREE < (3,)


def test_default_containers_are_fresh_per_record():
    one, two = Summand("trivial", {}), Summand("trivial", {})
    assert one.detail == {} and one.detail is not two.detail
    one, two = CommandResult({}), CommandResult({})
    assert one.diagnostics == [] and one.diagnostics is not two.diagnostics


def test_the_quadratic_space_caches_its_discriminant_in_its_instance_dict():
    assert isinstance(vars(QuadSpace2D)["discriminant"], cached_property)
    assert "__slots__" not in vars(QuadSpace2D)
    space = QuadSpace2D(Fraction(2, 3), -5)
    assert space.discriminant == Fraction(10, 3) and vars(space)["discriminant"] is space.discriminant
    assert space == QuadSpace2D(Fraction(2, 3), -5) and hash(space) == hash((Fraction(2, 3), Fraction(-5)))
