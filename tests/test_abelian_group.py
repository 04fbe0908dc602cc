import itertools

import pytest

from prymalg.abelian_group import (
    MAX_GROUP_RANK,
    MAX_ORDER_BITS,
    FiniteAbelianGroup,
    SymbolicOrder,
    concrete_order,
    homology_group,
    parse_group_literal,
)
from prymalg.errors import CapExceededError, InvalidParameterError, ParseError

from helpers import all_abelian_groups, torsion_count_brute


def test_homology_group_examples():
    assert homology_group(1, 2).cyclic_factors == (2, 2)
    assert homology_group(1, 2).order() == 4
    assert homology_group(0, 5).cyclic_factors == ()
    assert homology_group(0, 5).order() == 1
    assert homology_group(2, 3).order() == 81


def test_homology_group_rejects_bad_parameters():
    with pytest.raises(InvalidParameterError):
        homology_group(-1, 2)
    with pytest.raises(InvalidParameterError):
        homology_group(3, 1)


def test_order_examples_and_bigint():
    assert FiniteAbelianGroup(()).order() == 1
    assert FiniteAbelianGroup((2, 2)).order() == 4
    # big-integer exponentiation checked against repeated multiplication
    expected = 1
    for _ in range(48):
        expected *= 2
    assert homology_group(24, 2).order() == expected == 281474976710656


def test_order_matches_repeated_multiplication_grid():
    for g in range(9):
        for level in range(2, 8):
            expected = 1
            for _ in range(2 * g):
                expected *= level
            assert homology_group(g, level).order() == expected


def test_elements_enumeration():
    z3 = FiniteAbelianGroup((3,))
    elems = z3.elements()
    assert elems == [(0,), (1,), (2,)]
    assert elems[0] == z3.identity()
    assert z3.elements() == elems  # deterministic
    z22 = FiniteAbelianGroup((2, 2))
    assert len(z22.elements()) == 4
    assert len(set(z22.elements())) == 4


def test_elements_cap():
    big = FiniteAbelianGroup((2,) * 21)  # order 2^21 > 10^6
    with pytest.raises(CapExceededError):
        big.elements()


def test_add_negate_identity_examples():
    z3 = FiniteAbelianGroup((3,))
    assert z3.add(z3.element([1]), z3.element([2])) == z3.identity()
    z4 = FiniteAbelianGroup((4,))
    assert z4.negate(z4.element([1])) == z4.element([3])
    assert z4.identity() == (0,)


def test_group_axioms_exhaustive():
    for factors in ((6,), (2, 4), (3, 3)):
        group = FiniteAbelianGroup(factors)
        elems = group.elements()
        for x, y in itertools.product(elems, repeat=2):
            assert group.add(x, y) == group.add(y, x)
            assert group.add(x, group.negate(x)) == group.identity()
        for x, y, z in itertools.product(elems, repeat=3):
            assert group.add(group.add(x, y), z) == group.add(x, group.add(y, z))


def test_subtract_is_add_of_negation_exhaustive():
    for factors in ((4,), (2, 4), (3, 3)):
        group = FiniteAbelianGroup(factors)
        elems = group.elements()
        for x, y in itertools.product(elems, repeat=2):
            assert group.subtract(x, y) == group.add(x, group.negate(y))
        for x in elems:
            assert group.subtract(x, x) == group.identity()


def test_torsion_count_examples():
    assert FiniteAbelianGroup((3,)).torsion_count(2) == 1
    assert FiniteAbelianGroup((4, 4)).torsion_count(2) == 4
    for group in (FiniteAbelianGroup(()), FiniteAbelianGroup((5, 7))):
        assert group.torsion_count(1) == 1
    # the two examples re-derived by enumeration
    assert torsion_count_brute(FiniteAbelianGroup((3,)), 2) == 1
    assert torsion_count_brute(FiniteAbelianGroup((4, 4)), 2) == 4
    with pytest.raises(InvalidParameterError):
        FiniteAbelianGroup((3,)).torsion_count(0)


def test_torsion_count_matches_enumeration_up_to_256():
    for group in all_abelian_groups(256):
        elems = group.elements()
        for n in range(1, 13):
            brute = 0
            for x in elems:
                if all((n * a) % f == 0 for a, f in zip(x, group.cyclic_factors)):
                    brute += 1
            assert group.torsion_count(n) == brute, (group, n)


def test_element_reduction_idempotent():
    group = FiniteAbelianGroup((4, 6))
    e = group.element([7, 13])
    assert e == group.element(e) == group.element([3, 1])
    for residues in ([1], [1, 2, 3]):
        with pytest.raises(InvalidParameterError, match="expected 2 residues"):
            group.element(residues)


def test_parse_group_literals():
    assert parse_group_literal("Z2xZ2").cyclic_factors == (2, 2)
    assert parse_group_literal("Z3^4").cyclic_factors == (3, 3, 3, 3)
    assert parse_group_literal("H1(g=2,l=3)") == homology_group(2, 3)
    assert parse_group_literal("Z1").cyclic_factors == ()
    assert parse_group_literal("Z2xZ3^2").cyclic_factors == (2, 3, 3)


def test_group_rank_cap_counts_before_building():
    widest = parse_group_literal("Z3^%d" % MAX_GROUP_RANK)
    assert widest.cyclic_factors == (3,) * MAX_GROUP_RANK
    h1 = parse_group_literal("H1(g=%d,l=2)" % (MAX_GROUP_RANK // 2))
    assert h1.order() == 2**MAX_GROUP_RANK
    assert parse_group_literal("Z1^%d" % 10**12).cyclic_factors == ()
    for text in (
        "Z3^%d" % (MAX_GROUP_RANK + 1),
        "Z2^%dxZ3" % MAX_GROUP_RANK,
        "Z3^99999999999999",
        "H1(g=%d,l=3)" % (MAX_GROUP_RANK // 2 + 1),
        "H1(g=99999999999999,l=3)",
    ):
        with pytest.raises(CapExceededError):
            parse_group_literal(text)


def test_parse_errors_name_token():
    with pytest.raises(ParseError) as err:
        parse_group_literal("Z2xQ5")
    assert "Q5" in str(err.value)
    with pytest.raises(ParseError):
        parse_group_literal("")
    with pytest.raises(ParseError) as err:
        parse_group_literal("H1(g=two,l=3)")
    assert "H1" in str(err.value)
    with pytest.raises(ParseError):
        parse_group_literal("Z0")


def test_symbolic_order():
    unbound = SymbolicOrder()
    assert not unbound.is_bound
    assert concrete_order(unbound) is None
    bound = SymbolicOrder(level=3, genus=24)
    assert concrete_order(bound) == 3**48
    assert str(bound) == "m"


def test_bound_order_bits_are_capped_before_the_power():
    # 2 genus log2(level) bits at most; the cap's edge, a level with no
    # power-of-two shortcut, and values far past any float, none of them
    # raised to a power
    assert SymbolicOrder(level=2, genus=MAX_ORDER_BITS // 2).is_bound
    assert SymbolicOrder(level=2, genus=10**8).is_bound
    assert SymbolicOrder(level=10**1000, genus=1).is_bound
    for level, genus in (
        (2, MAX_ORDER_BITS // 2 + 1),
        (3, MAX_ORDER_BITS // 3),
        (2, 10**11),
        (10**1000, 10**6),
        (2, 10**400),
        (10**400, 10**400),
    ):
        with pytest.raises(CapExceededError, match="exceeds cap of %d bits" % MAX_ORDER_BITS):
            SymbolicOrder(level=level, genus=genus)
