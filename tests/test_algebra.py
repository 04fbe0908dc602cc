import collections
import functools
import itertools
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from prymalg.abelian_group import FiniteAbelianGroup, SymbolicOrder, parse_group_literal
from prymalg.algebra import (
    ORACLE_MAX_COLUMNS,
    AlgebraSpec,
    NormalMonomial,
    Variant,
    basis,
    check_oracle_cap,
    format_monomial,
    graded_dimension,
    in_subspace,
    multiply,
    oracle_graded_dimension,
    parse_monomial,
    relabel_monomial,
    _covers_all_indices,
    _oracle_columns,
    _oracle_generators,
    _oracle_ideal,
    _oracle_monomials,
    _oracle_relations,
)
from prymalg.errors import CapExceededError, InvalidParameterError, ParseError
from prymalg.linalg import RowReducer
from prymalg.partitions import (
    DWeightedPartition,
    enumerate_d_weighted_partitions,
    relabel,
)
from prymalg.polynomial import IntPoly
from prymalg.symmetry import counted_character

from helpers import (
    element_from_json,
    element_multiply,
    element_of_monomial,
    element_of_terms,
    element_to_json,
    graded_dimension_by_shapes,
    indices_to_packed,
    packed_monomials_of_degree,
    pair_monomials_of_degree,
    pair_oracle_rows,
    pair_to_indices,
    packed_to_indices,
    reference_degree,
    reference_multiply,
    reference_relabel,
    unit_monomial,
)

TRIVIAL = FiniteAbelianGroup(())
Z2 = FiniteAbelianGroup((2,))
Z3 = FiniteAbelianGroup((3,))
Z4 = FiniteAbelianGroup((4,))
Z22 = FiniteAbelianGroup((2, 2))


def spec_of(variant, r, group=None):
    return AlgebraSpec(variant, r, group if variant.twisted else None)


def test_spec_validation():
    with pytest.raises(InvalidParameterError):
        AlgebraSpec(Variant.LEVEL_FULL, 2)  # missing group
    # untwisted variants ignore the group field, whatever it holds
    s = AlgebraSpec(Variant.LOOIJENGA_FULL, 2, Z2)
    assert s.group == FiniteAbelianGroup(())
    assert AlgebraSpec(Variant.LOOIJENGA_FULL, 2, "Z2").group == FiniteAbelianGroup(())
    with pytest.raises(InvalidParameterError):
        AlgebraSpec(Variant.LEVEL_FULL, -1, Z2)
    # a twisted variant refuses a literal, an int or None when the spec is
    # built, not later as an AttributeError inside graded_dimension
    for variant in (v for v in Variant if v.twisted):
        for bad in ("Z2", 3):
            with pytest.raises(InvalidParameterError, match="got %r" % (bad,)):
                AlgebraSpec(variant, 2, bad)
        with pytest.raises(InvalidParameterError) as info:
            AlgebraSpec(variant, 2, None)
        assert str(info.value) == "%s requires a group or symbolic order" % variant.value


def test_multiply_merges_overlapping_blocks():
    spec = AlgebraSpec(Variant.LEVEL_FULL, 3, Z3)
    a12 = parse_monomial("a{1<2:d=(1)}", spec)
    a13 = parse_monomial("a{1<3:d=(2)}", spec)
    product = multiply(spec, a12, a13)
    assert [str(m) for _, m in product.terms] == ["a{1<2<3:d=(1),(2)}"]


def test_multiply_contradicting_weights_vanish():
    spec = AlgebraSpec(Variant.LEVEL_FULL, 2, Z3)
    a_d = parse_monomial("a{1<2:d=(1)}", spec)
    a_dprime = parse_monomial("a{1<2:d=(2)}", spec)
    assert multiply(spec, a_d, a_dprime).is_zero()


def test_multiply_square_produces_v_power():
    spec = AlgebraSpec(Variant.LEVEL_FULL, 2, Z3)
    a_d = parse_monomial("a{1<2:d=(1)}", spec)
    square = multiply(spec, a_d, a_d)
    assert [str(m) for _, m in square.terms] == ["v{1} * a{1<2:d=(1)}"]


def test_multiply_unit_and_commutativity():
    spec = AlgebraSpec(Variant.LEVEL_FULL, 3, Z2)
    one = unit_monomial(3, Z2)
    rng = random.Random(7)
    pool = basis(spec, 2) + basis(spec, 4)
    for x in rng.sample(pool, 12):
        assert multiply(spec, one, x) == element_of_monomial(x)
        for y in rng.sample(pool, 6):
            assert multiply(spec, x, y) == multiply(spec, y, x)


def test_multiply_spec_mismatch():
    spec = AlgebraSpec(Variant.LEVEL_FULL, 2, Z2)
    other = AlgebraSpec(Variant.LEVEL_FULL, 3, Z2)
    x = basis(spec, 2)[0]
    y = basis(other, 2)[0]
    with pytest.raises(InvalidParameterError):
        multiply(spec, x, y)


def test_primed_variants_multiply_via_full_algebra():
    prime = AlgebraSpec(Variant.LEVEL_PRIME, 2, Z2)
    full = AlgebraSpec(Variant.LEVEL_FULL, 2, Z2)
    x = basis(prime, 2)[0]
    with pytest.raises(InvalidParameterError):
        multiply(prime, x, x)
    product = multiply(full, x, x)
    ((_, mono),) = product.terms
    assert in_subspace(prime, mono) or not in_subspace(prime, mono)  # predicate total
    # v1 * v2 is in the prime subspace, v1 alone is not
    v1v2 = parse_monomial("v{1} * v{2}", full)
    v1 = parse_monomial("v{1}", full)
    assert in_subspace(prime, v1v2)
    assert not in_subspace(prime, v1)
    # a full variant has no minimum exponent, so it holds every monomial
    assert in_subspace(full, v1)


def test_confluence_and_associativity_random_triples():
    rng = random.Random(20250809)
    for group in (Z2, Z3):
        for r in (2, 3, 4):
            spec = AlgebraSpec(Variant.LEVEL_FULL, r, group)
            pool = basis(spec, 2) + basis(spec, 4)
            for _ in range(200 // (r * (group.order() - 1 or 1))):
                x, y, z = (rng.choice(pool) for _ in range(3))
                xy = multiply(spec, x, y)
                yz = multiply(spec, y, z)
                left = element_multiply(spec, xy, element_of_monomial(z))
                right = element_multiply(spec, element_of_monomial(x), yz)
                assert left == right
                shuffled = reference_multiply(spec, x, y, rng=rng)
                assert shuffled == xy


@functools.lru_cache(maxsize=None)
def _full_basis(variant, r, literal):
    spec = spec_of(variant, r, parse_group_literal(literal))
    return spec, basis(spec, 0) + basis(spec, 2) + basis(spec, 4) + basis(spec, 6)


@settings(max_examples=100, deadline=None)
@given(
    data=st.data(),
    variant=st.sampled_from((Variant.LEVEL_FULL, Variant.LOOIJENGA_FULL)),
    r=st.integers(1, 4),
    literal=st.sampled_from(("Z1", "Z2", "Z3", "Z4", "Z2xZ2")),
)
def test_multiply_is_associative_and_commutative(data, variant, r, literal):
    spec, pool = _full_basis(variant, r, literal)
    x, y, z = (data.draw(st.sampled_from(pool)) for _ in range(3))
    xy = multiply(spec, x, y)
    assert xy == multiply(spec, y, x)
    one = element_of_monomial
    assert element_multiply(spec, xy, one(z)) == element_multiply(
        spec, one(x), multiply(spec, y, z)
    )


def test_merge_order_invariance_exhaustive_small():
    rng = random.Random(99)
    spec = AlgebraSpec(Variant.LEVEL_FULL, 4, Z2)
    pool = basis(spec, 4)
    for _ in range(60):
        x, y = rng.choice(pool), rng.choice(pool)
        default = multiply(spec, x, y)
        for trial in range(4):
            assert reference_multiply(spec, x, y, rng=rng) == default


def test_product_and_relabel_match_references_exhaustive():
    # relabel against the offset-dict reference: every partition with
    # r <= 4 over each group, under every permutation
    for literal in ("Z1", "Z2", "Z3", "Z4", "Z2xZ2"):
        group = parse_group_literal(literal)
        for r in range(5):
            perms = list(itertools.permutations(range(1, r + 1)))
            for p in enumerate_d_weighted_partitions(r, group):
                for sigma in perms:
                    assert relabel(p, sigma) == reference_relabel(p, sigma), (p, sigma)
    # multiply against the pairwise-rescan reference on all ordered pairs
    for r, group, degree in ((4, Z2, 4), (3, Z3, 4), (3, Z22, 4)):
        spec = AlgebraSpec(Variant.LEVEL_FULL, r, group)
        pool = basis(spec, degree)
        nonzero = 0
        for x in pool:
            for y in pool:
                product = multiply(spec, x, y)
                assert product == reference_multiply(spec, x, y), (x, y)
                nonzero += not product.is_zero()
        assert 0 < nonzero < len(pool) ** 2


def test_relabel_matches_reference_on_every_bench_input():
    # all 742 partitions at r = 5 over Z3, the bench's relabel domain,
    # each under all 120 permutations
    group = parse_group_literal("Z3")
    perms = list(itertools.permutations(range(1, 6)))
    partitions = enumerate_d_weighted_partitions(5, group)
    assert len(partitions) == 742
    for p in partitions:
        for sigma in perms:
            assert relabel(p, sigma) == reference_relabel(p, sigma), (p, sigma)


def test_relabel_matches_reference_on_sampled_permutations():
    # every partition at r = 4 over the non-cyclic Z2xZ4, each under a
    # seeded sample of permutations; r = 5 over Z3 is checked exhaustively
    # by test_relabel_matches_reference_on_every_bench_input
    rng = random.Random(23)
    group = parse_group_literal("Z2xZ4")
    perms = list(itertools.permutations(range(1, 5)))
    for p in enumerate_d_weighted_partitions(4, group):
        for sigma in rng.sample(perms, 12):
            assert relabel(p, sigma) == reference_relabel(p, sigma), (p, sigma)


def test_degree_matches_block_sum_reference():
    for variant in Variant:
        for r in range(5):
            for literal in ("Z1", "Z2", "Z3"):
                spec = spec_of(variant, r, parse_group_literal(literal))
                for degree in range(9):
                    for mon in basis(spec, degree):
                        assert mon.degree == reference_degree(mon) == degree, mon


def test_graded_dimension_level_prime_r2():
    spec = AlgebraSpec(Variant.LEVEL_PRIME, 2, SymbolicOrder())
    assert graded_dimension(spec, 2) == IntPoly((0, 1))  # m
    for n in range(1, 11):
        assert graded_dimension(spec, 2 * n) == IntPoly((n - 1, 1))


def test_graded_dimension_examples():
    assert graded_dimension(AlgebraSpec(Variant.LEVEL_FULL, 2, Z2), 4) == 5
    kaw = AlgebraSpec(Variant.KAWAZUMI_DPRIME, 2)
    for n in range(1, 11):
        assert graded_dimension(kaw, 2 * n) == n
    # untwisted prime variant: singleton exponents start at 2
    lp = AlgebraSpec(Variant.LOOIJENGA_PRIME, 1)
    assert graded_dimension(lp, 2) == 0
    assert graded_dimension(lp, 4) == 1


def test_graded_dimension_odd_and_r0():
    for variant in Variant:
        spec = spec_of(variant, 3, Z2)
        for n in (1, 3, 5, 7):
            assert graded_dimension(spec, n) == 0
        spec0 = spec_of(variant, 0, Z2)
        assert graded_dimension(spec0, 0) == 1
        assert graded_dimension(spec0, 2) == 0


def test_specialization_at_m_equal_one():
    for r in range(6):
        for n in range(13):
            lf = graded_dimension(AlgebraSpec(Variant.LEVEL_FULL, r, SymbolicOrder()), n)
            assert lf.evaluate(1) == graded_dimension(
                AlgebraSpec(Variant.LOOIJENGA_FULL, r), n
            )
            lp = graded_dimension(AlgebraSpec(Variant.LEVEL_PRIME, r, SymbolicOrder()), n)
            assert lp.evaluate(1) == graded_dimension(
                AlgebraSpec(Variant.KAWAZUMI_DPRIME, r), n
            )


def test_r1_dimension_is_stable():
    sym = AlgebraSpec(Variant.LEVEL_PRIME, 1, SymbolicOrder())
    kaw = AlgebraSpec(Variant.KAWAZUMI_DPRIME, 1)
    for n in range(21):
        poly = graded_dimension(sym, n)
        assert poly.is_constant()
        assert poly == graded_dimension(kaw, n)


def test_graded_dimension_matches_shape_walk():
    # the (blocks, singletons) count against the walk over block-size shapes
    groups = (SymbolicOrder(), Z3, SymbolicOrder(level=2, genus=3))
    cells = 0
    for variant in Variant:
        for group in groups if variant.twisted else (None,):
            for r in range(13):
                spec = AlgebraSpec(variant, r, group)
                for n in range(41):
                    assert graded_dimension(spec, n) == graded_dimension_by_shapes(
                        spec, n
                    ), (variant, group, r, n)
                    cells += 1
    assert cells == 4797
    for variant in Variant:
        for r in (20, 24, 30):
            spec = spec_of(variant, r, SymbolicOrder())
            for n in (0, 2, 50, 100, 200):
                assert graded_dimension(spec, n) == graded_dimension_by_shapes(spec, n)


@settings(max_examples=200, deadline=None)
@given(
    variant=st.sampled_from(list(Variant)),
    r=st.integers(0, 12),
    q=st.integers(0, 20),
    literal=st.sampled_from(("Z1", "Z2", "Z3", "Z4", "Z2xZ2", "Z6")),
)
def test_symbolic_dimension_evaluates_to_concrete(variant, r, q, literal):
    group = parse_group_literal(literal)
    symbolic = graded_dimension(spec_of(variant, r, SymbolicOrder()), 2 * q)
    if isinstance(symbolic, IntPoly):
        symbolic = symbolic.evaluate(group.order())
    assert symbolic == graded_dimension(spec_of(variant, r, group), 2 * q)


def test_basis_examples():
    lp1 = AlgebraSpec(Variant.LEVEL_PRIME, 1, Z3)
    got = basis(lp1, 2)
    assert [str(m) for m in got] == ["v{1}"]
    lf2 = AlgebraSpec(Variant.LEVEL_FULL, 2, Z2)
    names = {str(m) for m in basis(lf2, 2)}
    assert names == {"v{1}", "v{2}", "a{1<2:d=(0)}", "a{1<2:d=(1)}"}
    assert basis(lf2, 1) == []
    assert basis(lf2, 2) == basis(lf2, 2)  # deterministic


def test_basis_length_matches_dimension():
    for variant in Variant:
        for r in range(4):
            for group in (TRIVIAL, Z2, Z3):
                spec = spec_of(variant, r, group)
                for n in range(0, 9):
                    expected = graded_dimension(spec, n)
                    if isinstance(expected, IntPoly):
                        expected = expected.evaluate(group.order())
                    assert len(basis(spec, n)) == expected


@settings(max_examples=100, deadline=None)
@given(
    variant=st.sampled_from(list(Variant)),
    r=st.integers(0, 4),
    degree=st.integers(0, 11),
    literal=st.sampled_from(("Z1", "Z2", "Z3", "Z4", "Z2xZ2", "Z5", "Z6")),
)
def test_graded_dimension_counts_the_basis(variant, r, degree, literal):
    spec = spec_of(variant, r, parse_group_literal(literal))
    assert graded_dimension(spec, degree) == len(basis(spec, degree))


def test_basis_requires_concrete_group():
    with pytest.raises(InvalidParameterError):
        basis(AlgebraSpec(Variant.LEVEL_FULL, 2, SymbolicOrder()), 2)


def test_basis_caps():
    with pytest.raises(CapExceededError):
        basis(AlgebraSpec(Variant.LOOIJENGA_FULL, 2), 70)
    # a slice over the enumeration cap is refused from its count, before
    # any monomial is listed
    spec = AlgebraSpec(Variant.LEVEL_FULL, 7, FiniteAbelianGroup((5,)))
    start = time.perf_counter()
    with pytest.raises(CapExceededError) as err:
        basis(spec, 10)
    assert time.perf_counter() - start < 2.0
    assert str(err.value) == "basis size 1334942 exceeds cap 1000000"


def test_one_degree_bound_for_basis_oracle_and_characters():
    # the same refusals, in the same order, from every bounded slice; the
    # oracle's cap check once failed on a negative degree with an
    # UnboundLocalError
    spec = AlgebraSpec(Variant.LEVEL_FULL, 2, Z2)
    for bounded in (basis, check_oracle_cap, oracle_graded_dimension, counted_character):
        with pytest.raises(InvalidParameterError, match="^degree must be >= 0$"):
            bounded(spec, -2)
        with pytest.raises(CapExceededError, match="^degree 66 exceeds cap 64$"):
            bounded(spec, 66)


def test_oracle_examples():
    assert oracle_graded_dimension(AlgebraSpec(Variant.LEVEL_FULL, 2, Z2), 4) == 5
    assert oracle_graded_dimension(AlgebraSpec(Variant.LEVEL_FULL, 2, TRIVIAL), 4) == 4
    for variant in Variant:
        assert oracle_graded_dimension(spec_of(variant, 2, Z2), 5) == 0


def test_oracle_caps():
    # each slice has more than ORACLE_MAX_COLUMNS monomials and is refused
    # before anything is built
    misses = _oracle_ideal.cache_info().misses
    for spec, degree in (
        (AlgebraSpec(Variant.LEVEL_FULL, 4, Z3), 10),  # 161 099 columns
        (AlgebraSpec(Variant.LEVEL_PRIME, 4, FiniteAbelianGroup((5,))), 12),
        (AlgebraSpec(Variant.LOOIJENGA_FULL, 6), 16),
        (AlgebraSpec(Variant.LEVEL_FULL, 2, FiniteAbelianGroup((10**6,))), 2),
    ):
        assert _oracle_columns(spec.r, spec.concrete_group().order(), degree) > (
            ORACLE_MAX_COLUMNS
        )
        with pytest.raises(CapExceededError):
            oracle_graded_dimension(spec, degree)
    assert _oracle_ideal.cache_info().misses == misses
    # cells beyond the former r, degree and |D| caps now fit the column cap
    for spec, degree in (
        (AlgebraSpec(Variant.LEVEL_FULL, 4, Z2), 2),
        (AlgebraSpec(Variant.LEVEL_FULL, 2, Z2), 12),
        (AlgebraSpec(Variant.LEVEL_FULL, 2, FiniteAbelianGroup((5,))), 2),
    ):
        assert oracle_graded_dimension(spec, degree) == graded_dimension(spec, degree)
    # generators and relation pairs are bounded by the slice, not by r or
    # |D|: these have a million generators or more in all degrees together
    Z1000 = FiniteAbelianGroup((1000,))
    start = time.perf_counter()
    for spec, degree in (
        (AlgebraSpec(Variant.LEVEL_FULL, 3, Z1000), 0),
        (AlgebraSpec(Variant.LEVEL_FULL, 3, Z1000), 1),
        (AlgebraSpec(Variant.LEVEL_FULL, 3, Z1000), 2),
        (AlgebraSpec(Variant.LEVEL_PRIME, 3, Z1000), 2),
        (AlgebraSpec(Variant.LOOIJENGA_FULL, 20), 2),
        (AlgebraSpec(Variant.LOOIJENGA_PRIME, 20), 4),
    ):
        assert oracle_graded_dimension(spec, degree) == graded_dimension(spec, degree)
    with pytest.raises(CapExceededError):
        oracle_graded_dimension(AlgebraSpec(Variant.LEVEL_FULL, 3, Z1000), 4)
    assert time.perf_counter() - start < 10.0


def test_oracle_column_count_matches_listing():
    for group, max_r in ((TRIVIAL, 5), (Z2, 4), (Z3, 3), (Z22, 3)):
        for r in range(max_r + 1):
            gens = _oracle_generators(r, group, 8)
            for degree in range(9):
                columns = _oracle_columns(r, group.order(), degree)
                width = (degree // 2).bit_length()
                listed = _oracle_monomials(gens, width, degree).get(degree, ())
                assert columns == len(listed), (
                    group,
                    r,
                    degree,
                )
                # each generator that fits, times a power of v_1, is a column
                if degree % 2 == 0 and degree >= 2:
                    assert len(_oracle_generators(r, group, degree)) <= columns
    assert _oracle_columns(5, 1, 12) == 80475
    assert _oracle_columns(3, 4, 10) == 24548


def test_one_listing_gives_every_even_degree_in_reference_order():
    # one call lists each even degree up to the slice's: as many monomials
    # as the count, in the order of the recursive reference search
    for group, max_r, degree in ((TRIVIAL, 5, 10), (Z2, 4, 8), (Z3, 3, 12), (Z22, 3, 10)):
        for r in range(max_r + 1):
            gens = _oracle_generators(r, group, degree)
            width = (degree // 2).bit_length()
            listed = _oracle_monomials(gens, width, degree)
            for n in range(0, degree + 1, 2):
                monomials = listed.get(n, ())
                assert len(monomials) == _oracle_columns(r, group.order(), n)
                reference = packed_monomials_of_degree(gens, width, n)
                assert list(monomials) == reference, (group, r, n)


def test_packed_rows_match_pair_form_reference():
    # the packed kernel against the (index, exponent) pair form: the same
    # columns and the same multiset of relation rows, each row a relation's
    # terms plus a complementary monomial
    for group in (TRIVIAL, Z2, Z3, Z4, Z22):
        for r in range(4):
            for degree in range(11):
                gens = tuple(_oracle_generators(r, group, degree))
                width = (degree // 2).bit_length()
                listed = _oracle_monomials(gens, width, degree)
                monomials = listed.get(degree, ())
                reference = pair_monomials_of_degree(gens, degree)
                assert len(set(monomials)) == len(monomials)
                assert {packed_to_indices(code, width) for code in monomials} == set(
                    map(pair_to_indices, reference)
                )
                # packing is one-to-one on the slice (checked just above),
                # so the rows compare in packed form
                rows = collections.Counter(
                    tuple(term + f for term in terms)
                    for rel_degree, terms in _oracle_relations(gens, group, degree, width)
                    for f in listed.get(degree - rel_degree, ())
                )
                expected = collections.Counter(
                    tuple(indices_to_packed(pair_to_indices(mon), width) for mon in row)
                    for row in pair_oracle_rows(group, degree, gens)
                )
                assert rows == expected, (group, r, degree)


def _packed_sums_decode(total, narrower):
    """Whether every packed x + y over Z2 at r = 3, with x and y slices of
    degrees summing to ``total``, decodes to sorted(x + y) at the width of
    the degree-``total`` slice less ``narrower`` bits."""
    gens = tuple(_oracle_generators(3, Z2, 12))
    width = (total // 2).bit_length() - narrower
    for a in range(0, total + 1, 2):
        xs = list(map(pair_to_indices, pair_monomials_of_degree(gens, a)))
        ys = list(map(pair_to_indices, pair_monomials_of_degree(gens, total - a)))
        for x in xs:
            px = indices_to_packed(x, width)
            for y in ys:
                code = px + indices_to_packed(y, width)
                if packed_to_indices(code, width) != tuple(sorted(x + y)):
                    return False
    return True


def test_packed_product_has_no_carry_at_the_slice_width():
    # exhaustive over Z2 at r = 3 to degree 12; one bit fewer carries
    # v_1^(d/2) out of its field from degree 4 on
    for total in range(0, 13, 2):
        assert _packed_sums_decode(total, 0), total
        if total >= 4:
            assert not _packed_sums_decode(total, 1), total


def test_oracle_fills_six_bit_fields_at_degree_64():
    # v_1^32 at degree 64 needs all 6 bits of its field, v_1^31 at 62 all 5
    for degree in (62, 64):
        for group in (TRIVIAL, Z2):
            for variant in Variant:
                if not variant.twisted and group != TRIVIAL:
                    continue
                for r in range(3):
                    spec = spec_of(variant, r, group)
                    closed = graded_dimension(spec, degree)
                    if isinstance(closed, IntPoly):
                        closed = closed.evaluate(group.order())
                    assert oracle_graded_dimension(spec, degree) == closed, (
                        variant,
                        group,
                        r,
                        degree,
                    )


def _pair_covers_all_indices(monomial, gens, r, minimum):
    exponents = dict(monomial)
    covered = {i for g in exponents if gens[g][0][0] == "a" for i in gens[g][0][1][0]}
    return all(i in covered or exponents.get(i - 1, 0) >= minimum for i in range(1, r + 1))


def _row_reduced_dimensions(r, group, degree):
    """Full and primed dimensions by exact elimination of the oracle's rows,
    built in the (index, exponent) pair form."""
    gens = tuple(_oracle_generators(r, group, degree))
    monomials = pair_monomials_of_degree(gens, degree)
    column = {mon: c for c, mon in enumerate(monomials)}
    reducer = RowReducer()
    for row in pair_oracle_rows(group, degree, gens):
        reducer.add(dict(zip(map(column.__getitem__, row), (Fraction(1), Fraction(-1)))))
    dims = {"full": len(monomials) - reducer.rank}
    for minimum in (1, 2):
        work = reducer.clone()
        dims[minimum] = sum(
            work.add({col: Fraction(1)})
            for col, mon in enumerate(monomials)
            if _pair_covers_all_indices(mon, gens, r, minimum)
        )
    return dims


def test_union_find_matches_row_reduction():
    for group in (TRIVIAL, Z2, Z3, Z4, Z22):
        variants = [v for v in Variant if v.twisted or group == TRIVIAL]
        for r in range(4):
            for degree in range(9):
                dims = _row_reduced_dimensions(r, group, degree)
                for variant in variants:
                    spec = spec_of(variant, r, group)
                    key = "full" if variant.is_full else variant.singleton_min_exponent
                    assert oracle_graded_dimension(spec, degree) == dims[key], (
                        variant,
                        group,
                        r,
                        degree,
                    )


def test_oracle_equivalence_quick_grid():
    for variant in Variant:
        for r in range(3):
            for group in (TRIVIAL, Z2):
                spec = spec_of(variant, r, group)
                for n in range(7):
                    closed = graded_dimension(spec, n)
                    if isinstance(closed, IntPoly):
                        closed = closed.evaluate(group.order())
                    assert closed == oracle_graded_dimension(spec, n), (
                        variant,
                        r,
                        group,
                        n,
                    )


def test_relabel_monomial_transports_exponents():
    spec = AlgebraSpec(Variant.LEVEL_FULL, 3, Z3)
    mon = parse_monomial("v{1}^2 * v{3} * a{1<2:d=(1)}", spec)
    moved = relabel_monomial(mon, (3, 2, 1))  # 1<->3
    assert str(moved) == "v{1} * v{2}^2 * a{2<3:d=(2)}"
    assert moved.degree == mon.degree


def _assert_rebuilds(mon):
    partition = DWeightedPartition(mon.partition.group, mon.partition.blocks)
    rebuilt = NormalMonomial(partition, mon.exponents)
    assert rebuilt == mon and hash(rebuilt) == hash(mon), mon


def test_trusted_monomials_equal_validated_ones():
    # basis, multiply and relabel_monomial skip validation; the public
    # constructors must accept what they build unchanged, with the same hash
    for group in (TRIVIAL, Z2, Z3):
        for r in range(4):
            twisted = bool(group.cyclic_factors)
            spec = spec_of(Variant.LEVEL_FULL if twisted else Variant.LOOIJENGA_FULL, r, group)
            _assert_rebuilds(unit_monomial(r, group))
            monomials = [mon for d in range(0, 5, 2) for mon in basis(spec, d)]
            perms = list(itertools.permutations(range(1, r + 1)))
            for x in monomials:
                _assert_rebuilds(x)
                for sigma in perms:
                    _assert_rebuilds(relabel_monomial(x, sigma))
                for y in monomials:
                    for _, mon in multiply(spec, x, y).terms:
                        _assert_rebuilds(mon)


def test_monomial_text_frozen_and_roundtrip():
    spec = AlgebraSpec(Variant.LEVEL_FULL, 2, Z2)
    mon = NormalMonomial(
        parse_monomial("a{1<2:d=(1)}", spec).partition, (2,)
    )
    assert format_monomial(mon) == "v{1}^2 * a{1<2:d=(1)}"
    assert parse_monomial("v{1}^2 * a{1<2:d=(1)}", spec) == mon
    # any representative index may name the v-class
    assert parse_monomial("v{2}^2 * a{1<2:d=(1)}", spec) == mon
    for n in range(0, 7):
        for m in basis(AlgebraSpec(Variant.LEVEL_FULL, 3, Z2), n):
            assert parse_monomial(format_monomial(m), AlgebraSpec(Variant.LEVEL_FULL, 3, Z2)) == m


def test_monomial_parse_errors():
    spec = AlgebraSpec(Variant.LEVEL_FULL, 2, Z2)
    with pytest.raises(ParseError):
        parse_monomial("w{1}", spec)
    with pytest.raises(ParseError):
        parse_monomial("v{5}", spec)
    with pytest.raises(ParseError):
        parse_monomial("v{1<2}", spec)  # no matching a-factor
    for text in (
        "a{1:d=}",  # an a-factor spans two or more indices
        "a{1<2:d=(1)} * a{1<2:d=(1)}",  # one a-factor per block
        "v{0}",  # indices start at 1
    ):
        with pytest.raises(ParseError):
            parse_monomial(text, spec)


def test_element_json_roundtrip():
    spec = AlgebraSpec(Variant.LEVEL_FULL, 2, Z2)
    x = parse_monomial("a{1<2:d=(1)}", spec)
    y = parse_monomial("v{1} * v{2}", spec)
    elt = element_of_terms([(3, x), ("-1/2", y)])
    data = element_to_json(elt)
    assert element_from_json(data, spec) == elt
    assert all(len(row) == 3 for row in data)
