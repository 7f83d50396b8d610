"""The result records behave as frozen value types: field-wise equality and
hash within one class, the ``Name(field=value, ...)`` repr, immutability,
pickle and copy round trips through the constructor, the constructors
that ``Record`` generates from each class's ``__slots__``, and the JSON
dict that ``Record`` derives from them."""

import copy
import json
import pickle

import pytest

from circleact._record import Record
from circleact.classifier import (
    ClassificationResult,
    DivisorReport,
    ManifoldInvariants,
    OrbitRecipe,
    ReasonCode,
    Witness,
    classify,
    required_divisor,
)
from circleact.genus import PontrjaginPolynomial, multiplicative_sequence
from circleact.gradedtop import (
    Family,
    GradedGroup,
    IntMatrix,
    OrbitModel,
    SNFResult,
    standard_orbit_model,
)
from circleact.selftest import SelfTestReport

_UNIT = "IntMatrix(rows=1, cols=1, entries=((1,),))"

# (make a fresh sample, its repr); each repr is the text the records had as
# dataclasses
SAMPLES = {
    "ManifoldInvariants": (
        lambda: ManifoldInvariants(n=7, b_n=1, l=0),
        "ManifoldInvariants(n=7, b_n=1, l=0)",
    ),
    "ManifoldInvariants-default": (
        lambda: ManifoldInvariants(13, 2),
        "ManifoldInvariants(n=13, b_n=2, l=0)",
    ),
    "DivisorReport": (
        lambda: required_divisor(7),
        "DivisorReport(n=7, k=2, a_k=1, kervaire=12, j_index=240, required=1440)",
    ),
    "Witness": (
        lambda: Witness(2, 2419200),
        "Witness(sphere_product_copies=2, bundle_divisibility=2419200)",
    ),
    "OrbitRecipe": (
        lambda: OrbitRecipe(15, Family.CPHALF_TIMES_SPHERE, 1, 2419200),
        "OrbitRecipe(n=15, family=<Family.CPHALF_TIMES_SPHERE: 'CPHALF_TIMES_SPHERE'>, "
        "handles=1, divisibility=2419200)",
    ),
    "ClassificationResult": (
        lambda: classify(ManifoldInvariants(5, 0)),
        "ClassificationResult(reason=<ReasonCode.N5_ALWAYS: 'N5_ALWAYS'>, divisors=None, "
        "witness=Witness(sphere_product_copies=0, bundle_divisibility=None), "
        "orbit=OrbitRecipe(n=5, family=<Family.CPN: 'CPN'>, handles=0, divisibility=None), "
        "notes=('b_n = 0: the manifold is a homotopy sphere; the standard free action on "
        "S^11 applies',))",
    ),
    "IntMatrix": (
        lambda: IntMatrix.from_rows([[1, 2], [3, 4]]),
        "IntMatrix(rows=2, cols=2, entries=((1, 2), (3, 4)))",
    ),
    "SNFResult": (lambda: SNFResult((1, 2)), "SNFResult(invariant_factors=(1, 2))"),
    "GradedGroup": (
        lambda: GradedGroup((1, 0, 1)),
        "GradedGroup(ranks=(1, 0, 1))",
    ),
    "OrbitModel": (
        lambda: standard_orbit_model(5, Family.CPN, 0),
        "OrbitModel(cohomology=GradedGroup("
        "ranks=(1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1)), cup_t=mappingproxy("
        f"{{0: {_UNIT}, 2: {_UNIT}, 4: {_UNIT}, 6: {_UNIT}, 8: {_UNIT}}}))",
    ),
    "PontrjaginPolynomial": (
        lambda: multiplicative_sequence(2),
        "PontrjaginPolynomial(degree=2, terms={(2,): Fraction(-1, 1440), "
        "(1, 1): Fraction(7, 5760)})",
    ),
    "SelfTestReport": (
        lambda: SelfTestReport(3, [("x", "AssertionError: y")]),
        "SelfTestReport(passed=3, failures=[('x', 'AssertionError: y')])",
    ),
}

# a field holds a dict, a mapping proxy or a list
UNHASHABLE = {OrbitModel, PontrjaginPolynomial, SelfTestReport}

sample = pytest.mark.parametrize("make", [m for m, _ in SAMPLES.values()], ids=list(SAMPLES))


def test_every_record_class_has_a_sample():
    assert {type(make()) for make, _ in SAMPLES.values()} == set(Record.__subclasses__())


@pytest.mark.parametrize("make, text", list(SAMPLES.values()), ids=list(SAMPLES))
def test_repr_is_the_dataclass_text(make, text):
    assert repr(make()) == text


@sample
def test_equal_fields_give_equal_records(make):
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b
    if type(a) in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)


@sample
def test_never_equal_to_a_tuple_or_another_class(make):
    record = make()
    cls, values = record.__reduce__()
    assert type(values) is tuple
    assert record != values and values != record
    twin = type("Twin", (cls,), {"__slots__": ()})(*values)
    assert twin == twin
    assert record != twin and twin != record
    assert repr(twin).startswith("Twin(")


RECORD_CLASSES = sorted(Record.__subclasses__(), key=lambda c: c.__name__)
# the records whose constructor is the generated store: they check nothing
PLAIN = {DivisorReport, Witness, ClassificationResult, SNFResult, SelfTestReport}
# a sample maker per record class
MAKE = {type(make()): make for make, _ in SAMPLES.values()}


@pytest.mark.parametrize("cls", RECORD_CLASSES, ids=lambda c: c.__name__)
def test_one_bound_setter_per_field(cls):
    # the generated store calls the __set__ of each field's slot, bound once
    # per class, in field order
    setters = [cls._store.__globals__[f"_set{i}"] for i in range(len(cls._fields))]
    assert setters == [getattr(cls, name).__set__ for name in cls._fields]
    # the unchecked build comes from the same exec, so it calls the same setters
    assert cls._make.__func__.__globals__ is cls._store.__globals__
    assert cls._make.__qualname__ == f"{cls.__qualname__}._make"
    # a twin adds no slot, so it generates nothing and keeps its base's
    twin = type("Twin", (cls,), {"__slots__": ()})
    assert twin._store is cls._store and twin.__init__ is cls.__init__
    values = MAKE[cls]()._values
    built = twin._make(*values)
    assert type(built) is twin and built._values == values


def test_plain_records_are_built_by_their_store():
    assert {cls for cls in RECORD_CLASSES if cls.__init__ is cls._store} == PLAIN


@sample
def test_positional_and_keyword_rebuilds_are_equal(make):
    record = make()
    cls = type(record)
    assert cls(*record._values) == record
    made = cls._make(*record._values)
    assert made == record and repr(made) == repr(record)
    if cls in PLAIN:
        assert cls(**dict(zip(cls._fields, record._values))) == record


@pytest.mark.parametrize(
    "build, field, default",
    [
        (lambda: Witness(2), "bundle_divisibility", None),
        (lambda: Witness(sphere_product_copies=3), "bundle_divisibility", None),
        (lambda: OrbitRecipe(5, Family.CPN, 0), "divisibility", None),
        (lambda: ClassificationResult(ReasonCode.N5_ALWAYS, None, None, None), "notes", ()),
    ],
    ids=["Witness", "Witness-keyword", "OrbitRecipe", "ClassificationResult"],
)
def test_omitted_defaults(build, field, default):
    assert getattr(build(), field) == default


@pytest.mark.parametrize(
    "cls, args, message",
    [
        (IntMatrix, (1, 1, ((1.5,),)), "matrix entry [0][0] must be of type int, got 1.5"),
        (IntMatrix, (2, 1, ((1,),)), "entry grid does not match declared dimensions"),
        (ManifoldInvariants, (7, True), "b_n must be of type int, got True"),
        (ManifoldInvariants, (7.0, 1), "n must be of type int, got 7.0"),
    ],
    ids=["IntMatrix-entry", "IntMatrix-grid", "ManifoldInvariants-b_n", "ManifoldInvariants-n"],
)
def test_twin_of_a_checked_record_keeps_its_checks(cls, args, message):
    twin = type("Twin", (cls,), {"__slots__": ()})
    for c in (cls, twin):
        with pytest.raises(ValueError) as info:
            c(*args)
        assert str(info.value) == message


def test_same_values_in_two_classes_differ():
    assert GradedGroup((1, 2)) != SNFResult((1, 2))
    assert SNFResult((1, 2)) != GradedGroup((1, 2))


@sample
def test_records_are_immutable(make):
    record = make()
    field = type(record).__slots__[0]
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, 0)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.not_a_field = 0
    assert getattr(record, field) == before


@sample
def test_pickle_and_copy_round_trip(make):
    record = make()
    for clone in (
        pickle.loads(pickle.dumps(record)),
        copy.copy(record),
        copy.deepcopy(record),
    ):
        assert type(clone) is type(record)
        assert clone == record


@sample
def test_unknown_keyword_is_a_type_error(make):
    cls, values = make().__reduce__()
    for call in (lambda: cls(*values, not_a_field=0), lambda: cls(*values, 0), lambda: cls()):
        with pytest.raises(TypeError) as info:
            call()
        # the generated constructors name the class as hand-written ones do
        assert str(info.value).startswith(f"{cls.__qualname__}.__init__()")


def test_orbit_model_is_unhashable():
    with pytest.raises(TypeError):
        hash(standard_orbit_model(7, Family.CPN, 1))


def test_orbit_recipe_takes_a_family_or_its_name():
    # a name is stored as its Family, so describe(), orbit_model() and
    # to_json_dict() read one family
    recipe = OrbitRecipe(7, "CPN", 1)
    assert recipe.family is Family.CPN
    assert recipe == OrbitRecipe(7, Family.CPN, 1)
    assert recipe.describe().startswith("#_1(S^7 x S^7) # CP^7, ")
    assert recipe.orbit_model() == standard_orbit_model(7, Family.CPN, 1)
    assert recipe.to_json_dict()["family"] == "CPN"
    assert OrbitRecipe(7, "CPHALF_TIMES_SPHERE", 1).family is Family.CPHALF_TIMES_SPHERE
    with pytest.raises(ValueError, match="'CPX' is not a valid Family"):
        OrbitRecipe(7, "CPX", 1)


@pytest.mark.parametrize(
    "args, message",
    [
        ((6, "CPN", -2, 5), "dimension out of scope"),
        ((3, "CPN", 0), "dimension out of scope"),
        ((7.0, "CPN", True), "n must be of type int, got 7.0"),
        ((True, "CPN", 0), "n must be of type int, got True"),
        ((7, "CPN", True), "handles must be of type int, got True"),
        ((7, "CPN", -1), "handle count must be nonnegative"),
        ((7, "CPHALF_TIMES_SPHERE", 1, 2.0), "divisibility must be of type int, got 2.0"),
        ((7, "CPHALF_TIMES_SPHERE", 1, -12), "divisibility must be nonnegative"),
    ],
    ids=["even-n", "small-n", "float-n", "bool-n", "bool-handles", "negative-handles",
         "float-divisibility", "negative-divisibility"],
)
def test_orbit_recipe_refuses_what_its_orbit_model_refuses(args, message):
    # a recipe that orbit_model() refuses must not build, or describe() and
    # to_json_dict() would read a recipe that orbit_model() cannot make
    with pytest.raises(ValueError) as info:
        OrbitRecipe(*args)
    assert str(info.value) == message


def test_orbit_recipe_admits_the_edges():
    for args in [(5, "CPN", 0), (5, "CPN", 0, 0), (9, "CPHALF_TIMES_SPHERE", 0, 0)]:
        recipe = OrbitRecipe(*args)
        assert recipe.orbit_model() == standard_orbit_model(*args[:3])


# the records whose to_json_dict is not the base's fields by name
SHAPED = {OrbitRecipe, ClassificationResult, GradedGroup, PontrjaginPolynomial}

_UNIT_JSON = {"rows": 1, "cols": 1, "entries": [[1]]}

# the JSON of each sample whose record takes the base's to_json_dict
PLAIN_JSON = {
    "ManifoldInvariants": {"n": 7, "b_n": 1, "l": 0},
    "ManifoldInvariants-default": {"n": 13, "b_n": 2, "l": 0},
    "DivisorReport": {
        "n": 7, "k": 2, "a_k": 1, "kervaire": 12, "j_index": 240, "required": 1440,
    },
    "Witness": {"sphere_product_copies": 2, "bundle_divisibility": 2419200},
    "IntMatrix": {"rows": 2, "cols": 2, "entries": [[1, 2], [3, 4]]},
    "SNFResult": {"invariant_factors": [1, 2]},
    "OrbitModel": {
        "cohomology": GradedGroup((1, 0) * 5 + (1,)).to_json_dict(),
        "cup_t": dict.fromkeys(["0", "2", "4", "6", "8"], _UNIT_JSON),
    },
    "SelfTestReport": {"passed": 3, "failures": [["x", "AssertionError: y"]]},
}


def test_only_the_shaped_records_write_their_own_json():
    assert {cls for cls in RECORD_CLASSES if "to_json_dict" in cls.__dict__} == SHAPED
    assert {name for name, (make, _) in SAMPLES.items() if type(make()) not in SHAPED} == set(
        PLAIN_JSON
    )


@sample
def test_json_dict_survives_a_json_round_trip(make):
    data = make().to_json_dict()
    assert json.loads(json.dumps(data)) == data


@pytest.mark.parametrize("name", list(PLAIN_JSON))
def test_plain_json_is_the_fields_by_name(name):
    record = SAMPLES[name][0]()
    data = record.to_json_dict()
    assert data == PLAIN_JSON[name]
    assert list(data) == list(record._fields)


def test_shaped_json_keeps_the_fields_in_the_middle():
    result = classify(ManifoldInvariants(15, 3, 2419200))
    recipe = result.orbit
    assert list(recipe.to_json_dict()) == [*OrbitRecipe._fields, "euler_class", "description"]
    assert list(result.to_json_dict()) == ["admits", *ClassificationResult._fields]
    assert result.to_json_dict()["orbit"] == recipe.to_json_dict()
    assert result.to_json_dict()["divisors"] == result.divisors.to_json_dict()
