import collections
import enum
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from prymalg.abelian_group import FiniteAbelianGroup, SymbolicOrder, parse_group_literal
from prymalg.algebra import AlgebraSpec, Variant, graded_dimension, parse_monomial
from prymalg.errors import CapExceededError, InvalidParameterError, ParseError
from prymalg.partitions import (
    DWeightedPartition,
    JVector,
    block_singleton_counts,
    count_d_weighted_partitions,
    enumerate_d_weighted_partitions,
    enumerate_set_partitions,
    format_partition,
    parse_block,
    parse_partition,
    relabel,
    stirling2_no_singletons,
    validate_permutation,
)
from prymalg.polynomial import IntPoly

from helpers import (
    bell_by_recurrence,
    bell_number,
    block_containing,
    compatible_with,
    enumerate_weighted_partitions,
    half_degree,
    stirling2,
)

TRIVIAL = FiniteAbelianGroup(())
Z2 = FiniteAbelianGroup((2,))
Z3 = FiniteAbelianGroup((3,))
Z4 = FiniteAbelianGroup((4,))
Z5 = FiniteAbelianGroup((5,))
Z22 = FiniteAbelianGroup((2, 2))


def test_set_partition_counts():
    assert enumerate_set_partitions(0) == [()]
    assert enumerate_set_partitions(2) == [((1, 2),), ((1,), (2,))]
    assert len(enumerate_set_partitions(3)) == 5
    # Bell(5) = 52 via the binomial recurrence
    assert bell_by_recurrence(5) == 52
    assert len(enumerate_set_partitions(5)) == 52
    for r in range(9):
        assert len(enumerate_set_partitions(r)) == bell_by_recurrence(r) == bell_number(r)


def test_set_partition_enumeration_is_canonical_and_deterministic():
    parts = enumerate_set_partitions(4)
    assert len(set(parts)) == len(parts)
    assert parts == enumerate_set_partitions(4)
    assert ((1, 3), (2, 4)) in parts
    for sp in parts:
        assert type(sp) is tuple
        for block in sp:
            assert type(block) is tuple
            assert list(block) == sorted(block)
        mins = [b[0] for b in sp]
        assert mins == sorted(mins)


def test_set_partition_cap():
    with pytest.raises(CapExceededError):
        enumerate_set_partitions(13)


def test_set_partition_validation():
    # overlapping blocks, and blocks that miss an index, are refused
    with pytest.raises(InvalidParameterError):
        DWeightedPartition(TRIVIAL, (((1, 2), ((),)), ((2, 3), ((),))))
    with pytest.raises(InvalidParameterError):
        DWeightedPartition(TRIVIAL, (((1, 3), ((),)),))
    # the deck-weighted constructor checks every weight
    one = Z3.element([1])
    assert DWeightedPartition(Z3, (((1, 2), (one,)),)).r == 2
    for weights in ((), (one, one), (1,), (Z22.element([1, 0]),)):
        with pytest.raises(InvalidParameterError):
            DWeightedPartition(Z3, (((1, 2), weights),))
    with pytest.raises(InvalidParameterError):
        DWeightedPartition(Z3, (((1, 2), ((4,),)),))  # not reduced


def test_weights_are_residue_tuples():
    # a reduced residue tuple is a group element as it stands
    p = DWeightedPartition(Z3, (((1, 2), ((1,),)), ((3,), ())))
    assert p.blocks[0][1] == (Z3.element([1]),) == ((1,),)
    assert p == DWeightedPartition(Z3, (((1, 2), (Z3.element([1]),)), ((3,), ())))
    refusals = [
        ([1], "weight [1] is not a group element"),
        (1, "weight 1 is not a group element"),
        ((1, 0), "weight (1,0) has wrong arity"),
        ((4,), "weight (4) is not reduced"),
        # entries that only compare equal to ints are not residues
        ((1.0,), "weight (1.0,) is not a group element"),
        ((True,), "weight (True,) is not a group element"),
    ]
    for w, message in refusals:
        with pytest.raises(InvalidParameterError) as err:
            DWeightedPartition(Z3, (((1, 2), (w,)),))
        assert str(err.value) == message
    assert format_partition(p) == "{1<2:d=(1)}|{3}"
    assert parse_partition("{1<2:d=(1)}|{3}", Z3) == p


def test_validate_permutation_takes_only_integers():
    assert validate_permutation([2, 1, 3], 3) == (2, 1, 3)
    assert validate_permutation((), 0) == ()
    # other integer types convert through operator.index
    two = enum.IntEnum("Two", "ONE TWO")
    entries = validate_permutation((two.TWO, two.ONE), 2)
    assert entries == (2, 1) and set(map(type, entries)) == {int}
    for sigma in (
        (1.5, 2.2), (1.0, 2.0), ("1", "2"), ("a", 2), 12, (True, 2), (2, False)
    ):
        with pytest.raises(InvalidParameterError):
            validate_permutation(sigma, 2)
    for sigma in ((1, 1), (1, 3), (1, 2, 3), (0, 1), (2,)):
        with pytest.raises(InvalidParameterError):
            validate_permutation(sigma, 2)
    for sigma in ((1.5, 2.2), (True, 2)):
        with pytest.raises(InvalidParameterError):
            relabel(enumerate_d_weighted_partitions(2, Z2)[0], sigma)


def test_count_polynomials():
    assert count_d_weighted_partitions(1) == IntPoly((1,))
    assert count_d_weighted_partitions(2) == IntPoly((1, 1))
    assert count_d_weighted_partitions(3) == IntPoly((1, 3, 1))
    for r in range(11):
        assert count_d_weighted_partitions(r).evaluate(1) == bell_by_recurrence(r)
    with pytest.raises(CapExceededError):
        count_d_weighted_partitions(31)


def test_stirling_identity():
    # column sums of Stirling numbers against the Bell recurrence
    for r in range(9):
        assert sum(stirling2(r, k) for k in range(r + 1)) == bell_by_recurrence(r)


def test_block_singleton_counts_match_enumeration():
    for r in range(10):
        seen = collections.Counter(
            (len(sp), sum(1 for b in sp if len(b) == 1))
            for sp in enumerate_set_partitions(r)
        )
        assert block_singleton_counts(r) == tuple(
            (b, s, seen[b, s]) for b, s in sorted(seen)
        )
        for k in range(-1, r + 2):
            assert stirling2_no_singletons(r, k) == seen[k, 0]
    # every count sums to a Bell number, past the enumeration cap too
    for r in range(31):
        assert sum(c for _, _, c in block_singleton_counts(r)) == bell_by_recurrence(r)


def test_enumerate_d_weighted_examples():
    got = enumerate_d_weighted_partitions(2, Z2)
    assert len(got) == 3
    texts = sorted(format_partition(p) for p in got)
    assert texts == ["{1<2:d=(0)}", "{1<2:d=(1)}", "{1}|{2}"]
    assert len(enumerate_d_weighted_partitions(3, Z2)) == 11
    assert len(enumerate_d_weighted_partitions(1, Z5)) == 1


def test_enumeration_matches_count_polynomial():
    for r in range(6):
        poly = count_d_weighted_partitions(r)
        for group in (TRIVIAL, Z2, Z3, Z4, Z22):
            got = enumerate_d_weighted_partitions(r, group)
            assert len(got) == poly.evaluate(group.order())
            assert len(set(got)) == len(got)


def test_enumeration_cap():
    with pytest.raises(CapExceededError):
        enumerate_d_weighted_partitions(9, Z2)
    with pytest.raises(CapExceededError):
        enumerate_d_weighted_partitions(6, FiniteAbelianGroup((31, 31)))


def test_relabel_swap_example():
    d = Z5.element([2])
    p = DWeightedPartition(Z5, (((1, 2), (d,)),))
    swapped = relabel(p, (2, 1))
    assert swapped.blocks == (((1, 2), (Z5.negate(d),)),)


def test_relabel_identity():
    for p in enumerate_d_weighted_partitions(3, Z3):
        assert relabel(p, (1, 2, 3)) == p


def test_relabel_three_cycle_example():
    d1, d2 = Z5.element([1]), Z5.element([3])
    p = DWeightedPartition(Z5, (((1, 2, 3), (d1, d2)),))
    # sigma: 1->2, 2->3, 3->1; new weights (-d2, d1-d2)
    got = relabel(p, (2, 3, 1))
    expected = DWeightedPartition(
        Z5, (((1, 2, 3), (Z5.element([-3]), Z5.element([1 - 3]))),)
    )
    assert got == expected
    # agrees with composing the two transpositions (1 2)(2 3)
    via_transpositions = relabel(relabel(p, (1, 3, 2)), (2, 1, 3))
    assert got == via_transpositions


def test_relabel_group_action_small():
    for group in (Z2, Z3):
        for p in enumerate_d_weighted_partitions(3, group):
            for sigma in itertools.permutations((1, 2, 3)):
                for tau in itertools.permutations((1, 2, 3)):
                    composed = tuple(sigma[tau[i - 1] - 1] for i in range(1, 4))
                    assert relabel(p, composed) == relabel(relabel(p, tau), sigma)


@st.composite
def _weighted_partitions(draw):
    """A deck-weighted partition of {1..r} over a small group."""
    group = parse_group_literal(draw(st.sampled_from(("Z1", "Z2", "Z3", "Z2xZ2", "Z5"))))
    r = draw(st.integers(0, 7))
    top = draw(st.integers(0, r))  # few labels make large blocks
    labels = draw(st.lists(st.integers(0, top), min_size=r, max_size=r))
    blocks = collections.defaultdict(list)
    for i, label in zip(range(1, r + 1), labels):
        blocks[label].append(i)
    residues = st.tuples(*(st.integers(0, f - 1) for f in group.cyclic_factors))
    return DWeightedPartition(group, tuple(sorted(
        (tuple(idx), tuple(group.element(draw(residues)) for _ in idx[1:]))
        for idx in blocks.values()
    )))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), p=_weighted_partitions())
def test_relabel_is_a_group_action(data, p):
    r = p.r
    sigma, tau = (tuple(data.draw(st.permutations(range(1, r + 1)))) for _ in range(2))
    composed = tuple(sigma[tau[i - 1] - 1] for i in range(1, r + 1))
    assert relabel(p, tuple(range(1, r + 1))) == p
    assert relabel(p, composed) == relabel(relabel(p, tau), sigma)


def test_relabel_preserves_shape_and_group():
    for p in enumerate_d_weighted_partitions(4, Z2):
        q = relabel(p, (4, 1, 3, 2))
        assert q.group == p.group
        assert sorted(len(b) for b, _ in q.blocks) == sorted(
            len(b) for b, _ in p.blocks
        )


def test_compatible_with_examples():
    # all singletons: vacuously compatible
    singletons = DWeightedPartition(Z3, tuple(((i,), ()) for i in (1, 2, 3)))
    assert compatible_with(singletons, JVector((1, 0)))
    # identity weight in block 1: incompatible
    p_id = DWeightedPartition(Z3, (((1, 2), (Z3.identity(),)), ((3,), ())))
    assert not compatible_with(p_id, JVector((0, 0)))
    assert not compatible_with(p_id, JVector((1, 1)))
    # nonzero weight but slot tag 1 on index 2: incompatible
    p_d = DWeightedPartition(Z3, (((1, 2), (Z3.element([1]),)), ((3,), ())))
    assert not compatible_with(p_d, JVector((1, 0)))
    assert compatible_with(p_d, JVector((0, 0)))
    with pytest.raises(InvalidParameterError):
        compatible_with(p_d, JVector((0,)))


def test_compatible_all_ones_reduction():
    j = JVector((1, 1))
    for p in enumerate_d_weighted_partitions(3, Z2):
        block1, _ = block_containing(p, 1)
        assert compatible_with(p, j) == (block1 == (1,))


def test_jvector_validation():
    with pytest.raises(InvalidParameterError):
        JVector((0, 2))
    assert len(JVector((1, 0, 1))) == 3


def test_trusted_partitions_equal_validated_ones():
    # enumeration and relabel skip validation; the public constructor must
    # accept what they build unchanged, with the same hash
    for group in (Z2, Z3, Z22):
        for r in range(5):
            perms = list(itertools.permutations(range(1, r + 1)))
            for p in enumerate_d_weighted_partitions(r, group):
                for q in [p] + [relabel(p, sigma) for sigma in perms]:
                    rebuilt = DWeightedPartition(q.group, q.blocks)
                    assert rebuilt == q and hash(rebuilt) == hash(q), q


def test_weighted_partition_order_is_pinned():
    # each set partition's weightings are contiguous and their weight
    # vectors strictly increase lexicographically
    for r in range(5):
        for bound in range(7):
            runs = []
            for wp in enumerate_weighted_partitions(r, bound):
                blocks = tuple(b for b, _ in wp)
                weights = tuple(w for _, w in wp)
                if runs and runs[-1][0] == blocks:
                    runs[-1][1].append(weights)
                else:
                    runs.append((blocks, [weights]))
            assert len({blocks for blocks, _ in runs}) == len(runs), (r, bound)
            for blocks, vectors in runs:
                assert all(a < b for a, b in zip(vectors, vectors[1:])), blocks


def test_kawazumi_enumeration_matches_dprime_dimensions():
    # weighted partitions graded by weight-plus-merge count match the
    # untwisted prime-variant table (cross-module check)
    for r in range(1, 4):
        spec = AlgebraSpec(Variant.KAWAZUMI_DPRIME, r)
        cap = 6
        by_degree = {}
        for wp in enumerate_weighted_partitions(r, cap):
            by_degree[half_degree(wp)] = by_degree.get(half_degree(wp), 0) + 1
        for q in range(cap + 1):
            assert by_degree.get(q, 0) == graded_dimension(spec, 2 * q), (r, q)


def test_kawazumi_r2_low_degrees():
    # half-degree 1: only ({1,2}, 0); half-degree 2: ({1,2},1) and ({1},1)({2},1)
    wps = enumerate_weighted_partitions(2, 4)
    assert sum(1 for w in wps if half_degree(w) == 1) == 1
    assert sum(1 for w in wps if half_degree(w) == 2) == 2


def test_text_roundtrip_frozen_example():
    p = DWeightedPartition(
        Z22, (((1, 2), (Z22.element([0, 1]),)), ((3,), ()))
    )
    assert format_partition(p) == "{1<2:d=(0,1)}|{3}"
    assert parse_partition("{1<2:d=(0,1)}|{3}", Z22) == p


def test_text_roundtrip_enumerated():
    for group in (Z22, Z4, TRIVIAL):
        for p in enumerate_d_weighted_partitions(3, group):
            assert parse_partition(format_partition(p), group) == p


def test_parse_partition_errors_name_token():
    with pytest.raises(ParseError) as err:
        parse_partition("{1<2:d=(0,1)}|{oops}", Z22)
    assert "oops" in str(err.value)
    with pytest.raises(ParseError):
        parse_partition("{1<2}", Z22)  # missing weights for a nontrivial group
    # residues that are not integers
    for token in ("{1<2:d=(a)}", "{1<2:d=(1.5)}"):
        with pytest.raises(ParseError) as err:
            parse_partition(token + "|{3}", Z3)
        assert str(err.value) == "non-integer residue in %r" % (token,)
    with pytest.raises(ParseError) as err:
        parse_monomial("a{1<2:d=(a)}", AlgebraSpec(Variant.LEVEL_FULL, 2, Z3))
    assert "{1<2:d=(a)}" in str(err.value)
    # residue tuples of the wrong arity
    for token in ("{1<2:d=(1,0)}", "{1<2:d=()}"):
        with pytest.raises(ParseError) as err:
            parse_partition(token + "|{3}", Z3)
        assert str(err.value) == "block %r needs 1 residues per weight" % (token,)
    # spaces inside and after a residue tuple
    expected = parse_partition("{1<2:d=(0,1)}", Z22)
    for text in ("{1<2:d=(0, 1)}", "{1<2:d=(0,1) }"):
        assert parse_partition(text, Z22) == expected


# a symbolic order or None has no elements to weight blocks with
NOT_GROUPS = (SymbolicOrder(), SymbolicOrder(level=2, genus=3), None)


def test_enumerate_d_weighted_partitions_requires_concrete_group():
    for group in NOT_GROUPS:
        with pytest.raises(InvalidParameterError, match="requires a concrete group"):
            enumerate_d_weighted_partitions(3, group)


def test_d_weighted_partition_requires_concrete_group():
    for group in NOT_GROUPS:
        with pytest.raises(InvalidParameterError, match="requires a concrete group"):
            DWeightedPartition(group, ())


def test_parse_partition_requires_concrete_group():
    for group in NOT_GROUPS:
        for text in ("{1}", "{}", "{1<2:d=(0)}"):
            with pytest.raises(InvalidParameterError, match="requires a concrete group"):
                parse_partition(text, group)
        with pytest.raises(InvalidParameterError, match="requires a concrete group"):
            parse_block("{1<2:d=(0)}", group)
