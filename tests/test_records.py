"""The package's immutable records behave as value types.

Each of the eleven record classes has a repr naming every field, equality
only between instances of its own class (a record never equals the tuple of
its field values), the hash of that tuple, no attribute assignment or
deletion, and copies and pickles equal to the original.  Records that the
listings fill through ``_fill``, bypassing ``__init__``, keep the same
contract.  Each class's ``_fill`` takes the record and then exactly one
value per slot, in slot order.  A record's fields are its slots whose names
do not start with an underscore.
"""

import copy
import inspect
import pickle

import pytest

from weylstrata.atlas import AtlasRow, CarterLabel, RepLabel
from weylstrata.classical import (
    EigenOrbit,
    GroupDescriptor,
    OrbitKind,
    Series,
    SpectralDatum,
    StratumResult,
    enumerate_strata,
)
from weylstrata.errors import Record
from weylstrata.jordan import JordanFamily, LabeledPartition
from weylstrata.jordan_inverse import enumerate_jordan
from weylstrata.partitions import Bipartition, Partition
from weylstrata.verify import CheckResult
from weylstrata.weyl import SignedCycleType, WeylSeries, WeylType, enumerate_classes


def _rep():
    return RepLabel("e_8", 1050, 10, 2, 1)


def _carter():
    return CarterLabel("D_4(a_1)", 4)


def _orbit():
    return EigenOrbit("1", OrbitKind.INVOLUTIVE, Partition([2, 1, 1]))


def _listed(items, key):
    # the one listed record whose first field is key
    (record,) = [item for item in items if item._values(item)[0] == key]
    return record


# (build, field values, repr); build is called twice, for two equal instances.
# A name "Class/listing" is a record of Class filled through _fill.
RECORDS = {
    "RepLabel": (
        _rep,
        ("E8", 1050, 10, 2, 1),
        "RepLabel(group='E8', d=1050, n=10, star=2, synthetic_id=1)",
    ),
    "CarterLabel": (_carter, ("D_4(a_1)", 4), "CarterLabel(raw='D_4(a_1)', parsed_rank=4)"),
    "AtlasRow": (
        lambda: AtlasRow("E8", (_carter(),), _rep(), "note"),
        ("E8", (_carter(),), _rep(), "note"),
        "AtlasRow(group='E8', classes=(CarterLabel(raw='D_4(a_1)', parsed_rank=4),), "
        "rep=RepLabel(group='E8', d=1050, n=10, star=2, synthetic_id=1), note='note')",
    ),
    "GroupDescriptor": (
        lambda: GroupDescriptor("sp", 4, 2),
        (Series.SP, 4, 2),
        "GroupDescriptor(series=<Series.SP: 'Sp'>, dimension=4, characteristic=2)",
    ),
    "EigenOrbit": (
        _orbit,
        ("1", OrbitKind.INVOLUTIVE, Partition([2, 1, 1])),
        "EigenOrbit(ident='1', kind=<OrbitKind.INVOLUTIVE: 'involutive'>, jordan=(2, 1, 1))",
    ),
    "SpectralDatum": (
        lambda: SpectralDatum(GroupDescriptor(Series.SP, 4), [_orbit()]),
        (GroupDescriptor(Series.SP, 4), (_orbit(),)),
        "SpectralDatum(group=GroupDescriptor(series=<Series.SP: 'Sp'>, dimension=4, "
        "characteristic=0), orbits=(EigenOrbit(ident='1', kind=<OrbitKind.INVOLUTIVE: "
        "'involutive'>, jordan=(2, 1, 1)),))",
    ),
    "StratumResult": (
        lambda: StratumResult(Bipartition([2, 1]), 3, 10),
        (Bipartition([2, 1]), 3, 10, None),
        "StratumResult(bp=(2, 1), n_invariant=3, class_dim=10, pair_degenerate=None)",
    ),
    "LabeledPartition": (
        lambda: LabeledPartition([2, 2, 1, 1], {2: 1}),
        (Partition([2, 2, 1, 1]), ((2, 1),)),
        "LabeledPartition(parts=(2, 2, 1, 1), labels=((2, 1),))",
    ),
    "WeylType": (
        lambda: WeylType("c", 3),
        (WeylSeries.B, 3),
        "WeylType(series=<WeylSeries.B: 'B'>, rank=3)",
    ),
    "SignedCycleType": (
        lambda: SignedCycleType([2, 1], [1]),
        (Partition([2, 1]), Partition([1])),
        "SignedCycleType(positive=(2, 1), negative=(1,))",
    ),
    "CheckResult": (
        lambda: CheckResult("x", True, "ok", 0.5, 1.0),
        ("x", True, "ok", 0.5, 1.0),
        "CheckResult(name='x', passed=True, detail='ok', seconds=0.5, budget=1.0)",
    ),
    "StratumResult/enumerate_strata": (
        lambda: _listed(enumerate_strata(GroupDescriptor(Series.SP, 6)), (2, 1)),
        (Bipartition([2, 1]), 1, 16, None),
        "StratumResult(bp=(2, 1), n_invariant=1, class_dim=16, pair_degenerate=None)",
    ),
    "StratumResult/enumerate_strata SO_even": (
        lambda: _listed(enumerate_strata(GroupDescriptor(Series.SO_EVEN, 8)), (1, 1, 1, 1)),
        (Bipartition([1, 1, 1, 1]), 6, 12, True),
        "StratumResult(bp=(1, 1, 1, 1), n_invariant=6, class_dim=12, pair_degenerate=True)",
    ),
    "SignedCycleType/enumerate_classes": (
        lambda: _listed(
            [c for c in enumerate_classes(WeylType(WeylSeries.B, 4)) if c.negative == (1,)], (2, 1)
        ),
        (Partition([2, 1]), Partition([1])),
        "SignedCycleType(positive=(2, 1), negative=(1,))",
    ),
    "LabeledPartition/enumerate_jordan": (
        lambda: _listed(
            [nu for nu in enumerate_jordan(JordanFamily.SYMPLECTIC_CHAR2, 6) if nu.labels == ((2, 1),)],
            (2, 2, 1, 1),
        ),
        (Partition([2, 2, 1, 1]), ((2, 1),)),
        "LabeledPartition(parts=(2, 2, 1, 1), labels=((2, 1),))",
    ),
}


@pytest.mark.parametrize("name", RECORDS)
def test_record_repr_equality_and_hash(name):
    build, values, text = RECORDS[name]
    record = build()
    assert type(record).__name__ == name.split("/")[0]
    assert repr(record) == text
    assert record == build() and not record != build()
    assert hash(record) == hash(build()) == hash(values)
    assert record != values and values != record
    assert record.__eq__(values) is NotImplemented


@pytest.mark.parametrize("name", RECORDS)
def test_record_is_immutable(name):
    record = RECORDS[name][0]()
    field = repr(record).split("(", 1)[1].split("=", 1)[0]
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.not_a_field = 1
    assert repr(record) == RECORDS[name][2]


@pytest.mark.parametrize("name", RECORDS)
def test_record_copies_and_pickles_equal(name):
    record = RECORDS[name][0]()
    for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(twin) is type(record)
        assert twin == record and hash(twin) == hash(record) and repr(twin) == repr(record)


@pytest.mark.parametrize("name", RECORDS)
def test_record_keeps_its_fields_in_slots(name):
    record = RECORDS[name][0]()
    assert not hasattr(record, "__dict__")


def test_records_of_different_classes_are_unequal():
    assert CarterLabel("A_1", 1) != WeylType(WeylSeries.A, 1)
    assert LabeledPartition([2, 1, 1]) != SignedCycleType([2, 1, 1], [])


def test_spectral_datum_copy_keeps_the_orbit_runs():
    datum = RECORDS["SpectralDatum"][0]()
    assert copy.copy(datum)._orbit_runs == datum._orbit_runs


def _validated(record):
    # the same record, built by its class's validating constructor
    if type(record) is LabeledPartition:
        return LabeledPartition(record.parts, record.label_map())
    return type(record)(*record._values(record))


@pytest.mark.parametrize("name", [name for name in RECORDS if "/" in name])
def test_setter_filled_record_equals_its_validated_twin(name):
    record = RECORDS[name][0]()
    twin = _validated(record)
    assert twin == record and hash(twin) == hash(record) and repr(twin) == repr(record)


CLASSES = {type(build()) for build, _, _ in RECORDS.values()}


def test_every_record_class_is_listed():
    assert len(CLASSES) == 11 and CLASSES == set(Record.__subclasses__())


@pytest.mark.parametrize("cls", sorted(CLASSES, key=lambda cls: cls.__name__), ids=lambda cls: cls.__name__)
def test_fields_are_the_slots_without_an_underscore(cls):
    assert list(cls._fields) == [name for name in cls.__slots__ if not name.startswith("_")]


def test_hidden_slots_are_no_fields():
    assert SpectralDatum._fields == ("group", "orbits")
    assert LabeledPartition._fields == ("parts", "labels")


@pytest.mark.parametrize("cls", sorted(CLASSES, key=lambda cls: cls.__name__), ids=lambda cls: cls.__name__)
def test_fill_takes_the_slots_in_order(cls):
    parameters = inspect.signature(cls._fill).parameters.values()
    assert [(p.name, p.kind, p.default) for p in parameters] == [
        (name, inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.empty) for name in ("self", *cls.__slots__)
    ]
    record = RECORDS[cls.__name__][0]()
    values = [getattr(record, name) for name in cls.__slots__]
    twin = cls._fill(object.__new__(cls), *values)
    assert type(twin) is cls and [getattr(twin, name) for name in cls.__slots__] == values and twin == record
    for wrong in (values[:-1], [*values, None]):
        with pytest.raises(TypeError):
            cls._fill(object.__new__(cls), *wrong)
