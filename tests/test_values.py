"""The value classes: equality, hashing, repr, immutability and
construction, as a frozen dataclass would give them; a CLI import that
leaves ``dataclasses`` unloaded; and the package's public names."""

import importlib
import os
import pkgutil
import subprocess
import sys
import types
from fractions import Fraction
from pathlib import Path

import pytest

import prymalg
from prymalg.abelian_group import FiniteAbelianGroup, SymbolicOrder
from prymalg.algebra import AlgebraElement, AlgebraSpec, NormalMonomial, Variant
from prymalg.cli import Table
from prymalg.errors import _Value
from prymalg.partitions import DWeightedPartition, JVector
from prymalg.polynomial import IntPoly
from prymalg.rigidity import AbelianSymplecticAction, trivial_action
from prymalg.series import DimensionTable, stable_cohomology_dims

SRC = str(Path(__file__).resolve().parent.parent / "src")

Z3 = FiniteAbelianGroup((3,))
ONE = Z3.element([1])
PARTITION = DWeightedPartition(Z3, (((1, 2), (ONE,)), ((3,), ())))
MONOMIAL = NormalMonomial(PARTITION, (1, 0))
ACTION = trivial_action(1)


def _samples():
    """(build, field names): build() makes a new, equal instance."""
    return [
        (lambda: FiniteAbelianGroup((2, 3)), ("cyclic_factors",)),
        (lambda: SymbolicOrder(2, 3), ("level", "genus")),
        (lambda: DWeightedPartition(Z3, (((1, 2), (ONE,)), ((3,), ()))),
         ("group", "blocks")),
        (lambda: JVector((0, 1)), ("entries",)),
        (lambda: AlgebraSpec(Variant.LEVEL_FULL, 3, Z3), ("variant", "r", "group")),
        (lambda: NormalMonomial(PARTITION, (1, 0)), ("partition", "exponents")),
        (lambda: AlgebraElement(((Fraction(2), MONOMIAL),)), ("terms",)),
        (lambda: AbelianSymplecticAction(ACTION.h, ACTION.generators),
         ("h", "generators")),
        (lambda: DimensionTable(1, 30, {2: IntPoly((5,))}, {2: 5}, {2: True}),
         ("r", "genus", "poly_entries", "entries", "in_range")),
        (lambda: Table(("k",), [[0]], {"r": 1}, "note"),
         ("columns", "rows", "metadata", "note", "code", "payload")),
    ]


SAMPLES = _samples()
IDS = [type(build()).__name__ for build, _ in SAMPLES]


PUBLIC_NAMES = (
    # errors
    "CapExceededError", "InvalidParameterError", "OracleMismatchError", "ParseError",
    "PrymAlgError",
    # abelian_group
    "FiniteAbelianGroup", "SymbolicOrder", "homology_group", "parse_group_literal",
    # partitions
    "DWeightedPartition", "JVector", "count_d_weighted_partitions",
    "enumerate_d_weighted_partitions", "enumerate_set_partitions", "relabel",
    # polynomial
    "IntPoly",
    # algebra
    "AlgebraElement", "AlgebraSpec", "NormalMonomial", "Variant", "basis",
    "graded_dimension", "in_subspace", "multiply", "oracle_graded_dimension",
    # series
    "DimensionTable", "StableRangeKind", "in_stable_range", "j_twisted_dims",
    "putman_gap", "stable_cohomology_dims", "stratum_census",
    "twisted_cohomology_dims",
    # symmetry
    "counted_character", "decompose", "permutation_character", "sr_character_table",
    # rigidity
    "AbelianSymplecticAction", "commutant_sp", "sp_dimension",
)


def test_public_names_are_pinned():
    # adding or removing an export is a deliberate edit of this list
    exported = {
        name
        for name, value in vars(prymalg).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(exported) == sorted(PUBLIC_NAMES)
    assert len(PUBLIC_NAMES) == len(set(PUBLIC_NAMES))


def test_every_value_class_is_sampled():
    for module in pkgutil.iter_modules(prymalg.__path__):
        importlib.import_module("prymalg." + module.name)
    assert sorted(IDS) == sorted(cls.__name__ for cls in _Value.__subclasses__())


@pytest.mark.parametrize("build, fields", SAMPLES, ids=IDS)
def test_equality_is_by_fields_within_one_class(build, fields):
    x, y = build(), build()
    assert x is not y and x == y and not x != y
    values = tuple(getattr(x, f) for f in fields)
    # another class, even one holding the same values, is never equal
    assert x.__eq__(values) is NotImplemented
    assert x != values and values != x
    assert x != object()


@pytest.mark.parametrize("build, fields", SAMPLES, ids=IDS)
def test_hash_is_the_tuple_of_fields(build, fields):
    x = build()
    try:
        expected = hash(tuple(getattr(x, f) for f in fields))
    except TypeError:
        # a dict or list field: unhashable, as in a frozen dataclass
        with pytest.raises(TypeError):
            hash(x)
    else:
        assert hash(x) == expected == hash(build())


@pytest.mark.parametrize("build, fields", SAMPLES, ids=IDS)
def test_repr_names_the_fields(build, fields):
    x = build()
    body = ", ".join("%s=%r" % (f, getattr(x, f)) for f in fields)
    assert repr(x) == "%s(%s)" % (type(x).__name__, body)


@pytest.mark.parametrize("build, fields", SAMPLES, ids=IDS)
def test_frozen_classes_refuse_assignment_and_deletion(build, fields):
    x = build()
    value = getattr(x, fields[0])
    with pytest.raises(AttributeError):
        setattr(x, fields[0], value)
    with pytest.raises(AttributeError):
        delattr(x, fields[0])
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
    # untwisted variants hold the trivial group in place of the given one
    untwisted = AlgebraSpec(variant=Variant.LOOIJENGA_FULL, r=2, group=Z3)
    assert untwisted.group == FiniteAbelianGroup(())
    assert AlgebraSpec(Variant.LOOIJENGA_FULL, 2) == AlgebraSpec(
        variant=Variant.LOOIJENGA_FULL, r=2
    )
    order = SymbolicOrder(level=3, genus=2)
    assert (order.level, order.genus) == (3, 2)
    assert SymbolicOrder() == SymbolicOrder(level=None, genus=None)
    assert DWeightedPartition(group=Z3, blocks=((((1,), ())),)).r == 1
    table = Table(columns=("k",), rows=[], code=3)
    assert (table.metadata, table.note, table.code, table.payload) == (None, None, 3, None)


def test_tables_refuse_assignment():
    # a table is built whole in one call, never filled in afterwards
    table = stable_cohomology_dims(1, 4)
    for field in ("r", "genus", "poly_entries", "entries", "in_range"):
        with pytest.raises(AttributeError, match="cannot assign"):
            setattr(table, field, getattr(table, field))
    result = Table(("k",), [])
    for field in ("note", "code"):
        with pytest.raises(AttributeError, match="cannot assign"):
            setattr(result, field, getattr(result, field))


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
