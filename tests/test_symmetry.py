import json
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from prymalg import cli
from prymalg.abelian_group import FiniteAbelianGroup, parse_group_literal
from prymalg.algebra import AlgebraSpec, Variant, basis, graded_dimension
from prymalg.errors import CapExceededError, InvalidParameterError, OracleMismatchError
from prymalg.partitions import enumerate_set_partitions
from prymalg.symmetry import (
    MAX_CHARACTER_R,
    centralizer_order,
    counted_character,
    cycle_types,
    decompose,
    fixed_point_count,
    murnaghan_nakayama,
    permutation_character,
    representative_permutation,
    sr_character_table,
)

from helpers import (
    all_abelian_groups,
    bell_walk_trace,
    class_size,
    permutation_with_cycle_type,
)

Z2 = FiniteAbelianGroup((2,))
Z3 = FiniteAbelianGroup((3,))
CHECK_GROUPS = tuple(
    parse_group_literal(text) for text in ("Z1", "Z2", "Z3", "Z4", "Z2xZ2", "Z6")
)


def _specs(r):
    """Every variant at r: the untwisted ones once, the twisted over CHECK_GROUPS."""
    for variant in Variant:
        for group in CHECK_GROUPS if variant.twisted else (None,):
            yield AlgebraSpec(variant, r, group)


def test_cycle_types_and_class_sizes():
    assert cycle_types(3) == [(1, 1, 1), (2, 1), (3,)]
    assert class_size((1, 1, 1)) == 1
    assert class_size((2, 1)) == 3
    assert class_size((3,)) == 2
    assert sum(class_size(ct) for ct in cycle_types(6)) == math.factorial(6)


def test_character_table_r2():
    table = sr_character_table(2)
    assert table[(2,)] == {(1, 1): 1, (2,): 1}
    assert table[(1, 1)] == {(1, 1): 1, (2,): -1}


def test_character_table_r3():
    table = sr_character_table(3)
    rows = {lam: [chi[ct] for ct in cycle_types(3)] for lam, chi in table.items()}
    assert rows[(3,)] == [1, 1, 1]
    assert rows[(1, 1, 1)] == [1, -1, 1]
    assert rows[(2, 1)] == [2, 0, -1]


def test_character_table_r1():
    table = sr_character_table(1)
    assert list(table) == [(1,)]
    assert table[(1,)] == {(1,): 1}


def test_dimension_hook_consistency():
    # chi_lam(identity) equals the hook-length-formula dimension
    def hook_dimension(lam):
        rows = list(lam)
        cols = [0] * (rows[0] if rows else 0)
        for width in rows:
            for j in range(width):
                cols[j] += 1
        n = sum(rows)
        value = math.factorial(n)
        for i, width in enumerate(rows):
            for j in range(width):
                value //= width - j + cols[j] - i - 1
        return value

    for r in range(1, 9):
        table = sr_character_table(r)
        for lam, chi in table.items():
            assert chi[(1,) * r] == hook_dimension(lam)


def test_orthogonality_up_to_r8():
    for r in range(1, 9):
        table = sr_character_table(r)
        cts = cycle_types(r)
        lams = list(table)
        for i, l1 in enumerate(lams):
            for l2 in lams[i:]:
                inner = sum(
                    class_size(ct) * table[l1][ct] * table[l2][ct]
                    for ct in cts
                )
                assert inner == (math.factorial(r) if l1 == l2 else 0)
        for c1 in cts:
            for c2 in cts:
                inner = sum(table[l][c1] * table[l][c2] for l in lams)
                assert inner == (centralizer_order(c1) if c1 == c2 else 0)


def test_murnaghan_nakayama_size_mismatch():
    with pytest.raises(Exception):
        murnaghan_nakayama((2, 1), (2, 2))


def test_permutation_character_examples():
    chi = permutation_character(AlgebraSpec(Variant.LEVEL_PRIME, 2, Z3), 2)
    assert chi == {(1, 1): 3, (2,): 1}
    chi2 = permutation_character(AlgebraSpec(Variant.LEVEL_PRIME, 2, Z2), 2)
    assert chi2 == {(1, 1): 2, (2,): 2}


def test_identity_trace_is_dimension():
    for variant in (Variant.LEVEL_PRIME, Variant.LEVEL_FULL):
        for r in range(1, 5):
            for group in (Z2, Z3):
                spec = AlgebraSpec(variant, r, group)
                for degree in (2, 4, 6, 8):
                    chi = permutation_character(spec, degree)
                    assert chi[(1,) * r] == graded_dimension(spec, degree)


def test_character_constant_on_conjugacy_classes():
    rng = random.Random(11)
    for r in (3, 4, 5):
        spec = AlgebraSpec(Variant.LEVEL_PRIME, r, Z2)
        degree = 6
        basis_list = basis(spec, degree)
        for ct in cycle_types(r):
            reference = fixed_point_count(
                spec, degree, representative_permutation(ct), basis_list
            )
            samples = 50 if r <= 4 else 10
            for _ in range(samples):
                sigma = permutation_with_cycle_type(ct, rng)
                assert (
                    fixed_point_count(spec, degree, sigma, basis_list) == reference
                ), (r, ct, sigma)


def test_swap_trace_equals_torsion_count():
    for group in all_abelian_groups(16):
        if group.order() < 2:
            continue
        chi = permutation_character(AlgebraSpec(Variant.LEVEL_PRIME, 2, group), 2)
        assert chi[(2,)] == group.torsion_count(2), group


def test_decompose_examples():
    chi = {(1, 1): 3, (2,): 1}
    assert decompose(chi) == {(2,): 2, (1, 1): 1}
    chi2 = {(1, 1): 2, (2,): 2}
    assert decompose(chi2) == {(2,): 2, (1, 1): 0}


def test_decompose_irreducibles_are_orthonormal():
    for r in range(1, 6):
        table = sr_character_table(r)
        for lam, chi in table.items():
            mults = decompose(chi)
            assert mults[lam] == 1
            assert all(v == 0 for key, v in mults.items() if key != lam)


def test_decompose_rejects_non_characters():
    fake = {(1, 1): 1, (2,): 2}  # fractional multiplicity
    with pytest.raises(OracleMismatchError):
        decompose(fake)
    negative = {(1, 1): 0, (2,): 2}  # negative on sign rep
    with pytest.raises(OracleMismatchError):
        decompose(negative)
    # a dict that misses a cycle type of its S_r, or holds one of another
    for partial in (
        {},
        {(1, 1): 3},
        {(2,): 1},
        {(1, 1, 1): 1, (2, 1): 1},
        {(1, 1): 3, (2,): 1, (3,): 1},
    ):
        with pytest.raises(InvalidParameterError, match="every cycle type"):
            decompose(partial)


def test_permutation_character_decompositions_are_nonnegative():
    for variant in (Variant.LEVEL_PRIME, Variant.LEVEL_FULL):
        for r in range(1, 4):
            for group in (Z2, Z3):
                spec = AlgebraSpec(variant, r, group)
                for degree in (2, 4, 6):
                    chi = permutation_character(spec, degree)
                    mults = decompose(chi)
                    assert all(m >= 0 for m in mults.values())
                    # reconstruction: sum of mult * irreducible equals chi
                    table = sr_character_table(r)
                    for ct in cycle_types(r):
                        back = sum(
                            mults[lam] * table[lam][ct] for lam in table
                        )
                        assert back == chi[ct]


def test_character_json_shape(capsys):
    assert cli.main(["character", "--r", "2", "--degree", "2", "--group", "Z3",
                     "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["r"] == 2 and payload["degree"] == 2
    assert payload["group"] == "Z3"
    assert {"cycle_type": [1, 1], "trace": 3} in payload["values"]
    assert {"partition": [2], "multiplicity": 2} in payload["decomposition"]


def test_counted_character_matches_enumeration():
    for r in range(0, 6):
        for spec in _specs(r):
            for degree in range(0, 9, 2):
                assert counted_character(spec, degree) == permutation_character(
                    spec, degree
                ), (spec, degree)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_counted_trace_equals_fixed_point_count(data):
    r = data.draw(st.integers(0, 5), label="r")
    spec = data.draw(st.sampled_from(list(_specs(r))), label="spec")
    degree = data.draw(st.sampled_from((0, 2, 4, 6, 8)), label="degree")
    cycle_type = data.draw(st.sampled_from(cycle_types(r)), label="cycle_type")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    sigma = permutation_with_cycle_type(cycle_type, random.Random(seed))
    assert counted_character(spec, degree)[cycle_type] == fixed_point_count(
        spec, degree, sigma
    )


WALK_GROUPS = tuple(
    parse_group_literal(text)
    for text in ("Z1", "Z2", "Z3", "Z4", "Z2xZ2", "Z2xZ4", "H1(g=2,l=2)")
)


def test_counted_trace_matches_bell_walk():
    """The cycle walk against the Bell walk it replaced: every cycle type,
    as a seeded permutation whose cycles interleave, at every degree."""
    cells = [
        (AlgebraSpec(variant, r, group), degree)
        for r in range(7)
        for variant in Variant
        for group in (WALK_GROUPS if variant.twisted else (None,))
        for degree in range(13)
    ]
    cells += [
        (AlgebraSpec(Variant.LEVEL_PRIME, 8, Z2), 12),
        (AlgebraSpec(Variant.LEVEL_FULL, 8, parse_group_literal("H1(g=50,l=3)")), 20),
        (AlgebraSpec(Variant.KAWAZUMI_DPRIME, 8), 12),
    ]
    rng = random.Random(26)
    partitions = {r: enumerate_set_partitions(r) for r in range(9)}
    for spec, degree in cells:
        character = counted_character(spec, degree)
        for cycle_type in cycle_types(spec.r):
            sigma = permutation_with_cycle_type(cycle_type, rng)
            expected = bell_walk_trace(spec, degree, sigma, partitions[spec.r])
            assert character[cycle_type] == expected, (spec, degree, sigma)


def test_counted_character_bounds_and_r_cap():
    spec = AlgebraSpec(Variant.LEVEL_FULL, 3, Z2)
    assert all(value == 0 for value in counted_character(spec, 5).values())
    with pytest.raises(InvalidParameterError):
        counted_character(spec, -2)
    with pytest.raises(CapExceededError):
        counted_character(spec, 66)
    # r above the cap is refused as a cap, not as bad input
    r = MAX_CHARACTER_R + 1
    spec = AlgebraSpec(Variant.LEVEL_PRIME, r, Z2)
    with pytest.raises(CapExceededError):
        counted_character(spec, 2)
    with pytest.raises(CapExceededError):
        permutation_character(spec, 2)
    with pytest.raises(CapExceededError):
        sr_character_table(r)
