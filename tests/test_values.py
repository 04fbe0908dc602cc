"""The value classes: equality, hashing, repr, immutability and
construction, as a frozen (or, for the two records, mutable) dataclass
would give them; and a CLI import that leaves ``dataclasses`` unloaded."""

import importlib
import os
import pkgutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import prymalg
from prymalg.abelian_group import FiniteAbelianGroup, SymbolicOrder
from prymalg.algebra import AlgebraElement, AlgebraSpec, NormalMonomial, Variant
from prymalg.cli import Table
from prymalg.errors import _Value
from prymalg.partitions import DWeightedPartition, JVector
from prymalg.rigidity import (
    AbelianSymplecticAction,
    LieSubalgebraReport,
    trivial_action,
)
from prymalg.series import DimensionTable, PutmanGapReport
from prymalg.symmetry import SrCharacter

SRC = str(Path(__file__).resolve().parent.parent / "src")

Z3 = FiniteAbelianGroup((3,))
ONE = Z3.element([1])
PARTITION = DWeightedPartition(Z3, (((1, 2), (ONE,)), ((3,), ())))
MONOMIAL = NormalMonomial(PARTITION, (1, 0))
ACTION = trivial_action(1)


def _samples():
    """(build, field names, frozen): build() makes a new, equal instance."""
    return [
        (lambda: FiniteAbelianGroup((2, 3)), ("cyclic_factors",), True),
        (lambda: SymbolicOrder(2, 3), ("level", "genus"), True),
        (lambda: DWeightedPartition(Z3, (((1, 2), (ONE,)), ((3,), ()))),
         ("group", "blocks"), True),
        (lambda: JVector((0, 1)), ("entries",), True),
        (lambda: AlgebraSpec(Variant.LEVEL_FULL, 3, Z3), ("variant", "r", "group"), True),
        (lambda: NormalMonomial(PARTITION, (1, 0)), ("partition", "exponents"), True),
        (lambda: AlgebraElement(((Fraction(2), MONOMIAL),)), ("terms",), True),
        (lambda: AbelianSymplecticAction(ACTION.h, ACTION.generators),
         ("h", "generators"), True),
        (lambda: LieSubalgebraReport(1, (), (0,)),
         ("dimension", "basis", "free_coordinates"), True),
        (lambda: DimensionTable("stable", {2: 5}, {2: True}, 1, 0, 2, 30),
         ("variant", "entries", "in_range", "r", "p", "level", "genus", "symbolic",
          "poly_entries"), False),
        (lambda: PutmanGapReport(1, 0, 2, 2, 30, 5, 5, False),
         ("r", "p", "k", "level", "genus", "lhs_dim", "rhs_dim", "differ"), True),
        (lambda: SrCharacter(2, (((1, 1), 1), ((2,), 1))), ("r", "values"), True),
        (lambda: Table(("k",), [[0]], {"r": 1}, "note"),
         ("columns", "rows", "metadata", "note", "code", "payload"), False),
    ]


SAMPLES = _samples()
IDS = [type(build()).__name__ for build, _, _ in SAMPLES]


def test_every_value_class_is_sampled():
    for module in pkgutil.iter_modules(prymalg.__path__):
        importlib.import_module("prymalg." + module.name)
    assert sorted(IDS) == sorted(cls.__name__ for cls in _Value.__subclasses__())


@pytest.mark.parametrize("build, fields, frozen", SAMPLES, ids=IDS)
def test_equality_is_by_fields_within_one_class(build, fields, frozen):
    x, y = build(), build()
    assert x is not y and x == y and not x != y
    values = tuple(getattr(x, f) for f in fields)
    # another class, even one holding the same values, is never equal
    assert x.__eq__(values) is NotImplemented
    assert x != values and values != x
    assert x != object()


@pytest.mark.parametrize("build, fields, frozen", SAMPLES, ids=IDS)
def test_hash_is_the_tuple_of_fields(build, fields, frozen):
    x = build()
    if frozen:
        assert hash(x) == hash(tuple(getattr(x, f) for f in fields))
        assert hash(x) == hash(build())
    else:
        with pytest.raises(TypeError):
            hash(x)


@pytest.mark.parametrize("build, fields, frozen", SAMPLES, ids=IDS)
def test_repr_names_the_fields(build, fields, frozen):
    x = build()
    body = ", ".join("%s=%r" % (f, getattr(x, f)) for f in fields)
    assert repr(x) == "%s(%s)" % (type(x).__name__, body)


@pytest.mark.parametrize("build, fields, frozen", SAMPLES, ids=IDS)
def test_frozen_classes_refuse_assignment_and_deletion(build, fields, frozen):
    x = build()
    value = getattr(x, fields[0])
    if frozen:
        with pytest.raises(AttributeError):
            setattr(x, fields[0], value)
        with pytest.raises(AttributeError):
            delattr(x, fields[0])
        with pytest.raises(AttributeError):
            x.not_a_field = 1
    else:
        setattr(x, fields[0], value)
        assert x == build()
        # slots: no attribute outside the declared ones
        with pytest.raises(AttributeError):
            x.not_a_field = 1


def test_one_field_classes_hash_a_one_tuple():
    x = JVector((0, 1))
    assert hash(x) == hash(((0, 1),)) != hash((0, 1))


def test_fields_outside_equality():
    group = FiniteAbelianGroup((2,))
    assert "_identity" not in repr(group)
    assert group.identity() == (0,)
    partition = DWeightedPartition(Z3, (((1, 2), (ONE,)), ((3,), ())))
    assert partition.r == 3
    assert repr(partition) == "DWeightedPartition(group=%r, blocks=%r)" % (
        Z3, partition.blocks
    )
    assert hash(partition) == hash((Z3, partition.blocks))


def test_keyword_construction():
    assert AlgebraSpec(variant=Variant.LEVEL_FULL, r=2, group=Z3).group == Z3
    # untwisted variants drop the group
    assert AlgebraSpec(variant=Variant.LOOIJENGA_FULL, r=2, group=Z3).group is None
    assert AlgebraSpec(Variant.LOOIJENGA_FULL, 2) == AlgebraSpec(
        variant=Variant.LOOIJENGA_FULL, r=2
    )
    order = SymbolicOrder(level=3, genus=2)
    assert (order.level, order.genus) == (3, 2)
    assert SymbolicOrder() == SymbolicOrder(level=None, genus=None)
    assert DWeightedPartition(group=Z3, blocks=((((1,), ())),)).r == 1
    report = PutmanGapReport(
        r=1, p=0, k=2, level=2, genus=30, lhs_dim=5, rhs_dim=5, differ=False
    )
    assert report == PutmanGapReport(1, 0, 2, 2, 30, 5, 5, False)
    table = Table(columns=("k",), rows=[], code=3)
    assert (table.metadata, table.note, table.code, table.payload) == (None, None, 3, None)


def test_dimension_table_defaults_are_per_instance():
    a = DimensionTable(variant="stable", p=1)
    b = DimensionTable(variant="stable", p=1)
    assert a == b
    assert (a.r, a.p, a.level, a.genus, a.symbolic) == (None, 1, None, None, False)
    a.entries[2] = 7
    a.in_range[2] = True
    a.poly_entries[2] = None
    assert b.entries == b.in_range == b.poly_entries == {}
    assert a != b


def test_post_init_checks_still_run():
    from prymalg.errors import InvalidParameterError

    with pytest.raises(InvalidParameterError):
        FiniteAbelianGroup((1,))
    with pytest.raises(InvalidParameterError):
        SymbolicOrder(level=2)
    with pytest.raises(InvalidParameterError):
        JVector((2,))
    with pytest.raises(InvalidParameterError):
        AbelianSymplecticAction(-1, ())
    with pytest.raises(InvalidParameterError):
        DWeightedPartition(Z3, (((1, 2), ()),))
    with pytest.raises(InvalidParameterError):
        AlgebraSpec(Variant.LEVEL_FULL, -1, Z3)
    with pytest.raises(InvalidParameterError):
        NormalMonomial(PARTITION, (1, -1))
    # construction canonicalizes
    assert FiniteAbelianGroup([2, 3]).cyclic_factors == (2, 3)
    assert NormalMonomial(PARTITION, [True, 0]).exponents == (1, 0)
    # every class but DWeightedPartition checks in its one __init__
    assert [
        cls.__name__ for cls in _Value.__subclasses__() if "__post_init__" in vars(cls)
    ] == ["DWeightedPartition"]


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    code = (
        "import sys, prymalg.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert proc.stdout.strip() == "[]"
