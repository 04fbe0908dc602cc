import hashlib
import inspect
import itertools
import math
import operator
import time

import pytest
from hypothesis import given, settings, strategies as st

from prymalg import series
from prymalg.abelian_group import FiniteAbelianGroup, SymbolicOrder, concrete_order
from prymalg.algebra import AlgebraSpec, Variant, graded_dimension
from prymalg.errors import CapExceededError, InvalidParameterError
from prymalg.partitions import (
    MAX_COUNT_R,
    JVector,
    count_d_weighted_partitions,
    enumerate_d_weighted_partitions,
)
from prymalg.polynomial import M, IntPoly, at_order
from prymalg.series import (
    StableRangeKind,
    _m_degree,
    in_stable_range,
    j_factor_dimension,
    j_twisted_dims,
    putman_gap,
    stable_cohomology_dims,
    stratum_census,
    twisted_cohomology_dims,
)

from helpers import (
    compatible_with,
    j_factor_dimensions_by_walk,
    partition_count_brute,
    reference_stable_dims,
    table_to_json_dict,
    two_table_gap,
)

Z2 = FiniteAbelianGroup((2,))
Z3 = FiniteAbelianGroup((3,))


def test_stable_dims_closed_surface():
    table = stable_cohomology_dims(0, 6)
    assert [table.entries[k] for k in (0, 2, 4, 6)] == [1, 1, 2, 3]
    assert all(table.entries[k] == 0 for k in (1, 3, 5))


def test_stable_dims_match_partition_count_oracle():
    table = stable_cohomology_dims(0, 24)
    for q in range(13):
        assert table.entries[2 * q] == partition_count_brute(q)


def test_stable_dims_with_punctures():
    assert stable_cohomology_dims(1, 2).entries[2] == 2  # one Euler class + one kappa
    # p-fold convolution against a direct double sum
    p = 2
    table = stable_cohomology_dims(p, 12)
    base = stable_cohomology_dims(0, 12)
    for k in range(0, 13, 2):
        direct = 0
        for a in range(0, k + 1, 2):
            for b in range(0, k - a + 1, 2):
                # e1^i e2^j kappa-part; count pairs (a used by e1, b by e2)
                direct += base.entries[k - a - b]
        assert table.entries[k] == direct


def test_stable_dims_closed_form_matches_prefix_sums():
    for p in range(9):
        reference = reference_stable_dims(p, 200)
        for max_degree in range(201):
            table = stable_cohomology_dims(p, max_degree)
            assert [table.entries[k] for k in range(max_degree + 1)] == [
                reference[k // 2] if k % 2 == 0 else 0 for k in range(max_degree + 1)
            ], (p, max_degree)


def test_stable_dims_cost_does_not_grow_with_p():
    start = time.perf_counter()
    table = twisted_cohomology_dims(1, 10**9, max_k=200)
    assert time.perf_counter() - start < 1.0
    assert list(table.entries) == list(range(201))
    # degree 2: the p Euler classes and kappa_1; degree 4: e_i e_j, e_i kappa_1,
    # kappa_1^2 and kappa_2
    p = 10**9
    stable = stable_cohomology_dims(p, 4)
    assert stable.entries[2] == p + 1
    assert stable.entries[4] == math.comb(p + 1, 2) + p + 2


def test_stable_dims_validation():
    with pytest.raises(InvalidParameterError):
        stable_cohomology_dims(-1, 4)
    with pytest.raises(InvalidParameterError):
        stable_cohomology_dims(0, 300)


def test_int_poly_hash_degree_and_refusals():
    # a constant equals, and so hashes like, the plain int
    assert IntPoly.constant(7) == 7 and hash(IntPoly.constant(7)) == hash(7)
    assert hash(IntPoly.zero()) == hash(0)
    assert {IntPoly((1, 2)): "x"}[IntPoly((1, 2, 0))] == "x"
    assert [IntPoly(()).degree, IntPoly((5,)).degree, (M**3 + 1).degree] == [-1, 0, 3]
    assert 3 - M == IntPoly((3, -1))
    with pytest.raises(ValueError):
        M ** -1
    with pytest.raises(ValueError):
        IntPoly.monomial(1, -1)


def test_twisted_level_symbolic_entries():
    table = twisted_cohomology_dims(2, 0, mode="level", max_k=4)
    assert table.poly_entries[2] == IntPoly((0, 1))  # m
    assert table.poly_entries[4] == IntPoly((1, 2))  # 1 + 2m
    assert table.poly_entries[3] == IntPoly(())
    # m is unbound: no entry has a value
    assert set(table.entries.values()) == {None}
    assert [row["dim_at_concrete_m"] for row in table.rows()] == [None] * 5


def test_twisted_level_concrete_big_integer():
    table = twisted_cohomology_dims(2, 0, mode="level", level=2, genus=24, max_k=4)
    assert table.entries[2] == 2**48
    assert table.in_range[2] is True
    assert table.in_range[4] is False
    rows = {row["k"]: row for row in table.rows()}
    assert rows[2]["dim_polynomial_in_m"] == "m"
    assert rows[2]["dim_at_concrete_m"] == 281474976710656


@settings(max_examples=200, deadline=None)
@given(
    r=st.integers(0, 8),
    p=st.integers(0, 3),
    level=st.integers(2, 7),
    genus=st.integers(0, 40),
    max_k=st.integers(0, 40),
)
def test_symbolic_twisted_table_evaluates_to_concrete(r, p, level, genus, max_k):
    symbolic = twisted_cohomology_dims(r, p, mode="level", max_k=max_k)
    concrete = twisted_cohomology_dims(
        r, p, mode="level", level=level, genus=genus, max_k=max_k
    )
    m = level ** (2 * genus)
    assert symbolic.poly_entries == concrete.poly_entries
    assert {k: v.evaluate(m) for k, v in symbolic.poly_entries.items()} == concrete.entries
    assert {k: at_order(v, m) for k, v in concrete.poly_entries.items()} == concrete.entries


def test_large_genus_order_is_one_power():
    start = time.perf_counter()
    table = twisted_cohomology_dims(2, 0, level=2, genus=10**6, max_k=2)
    assert table.entries[2] == 2 ** (2 * 10**6)  # the 2-entry is m itself
    assert table.poly_entries[2] == M  # the factor itself keeps m unbound
    assert time.perf_counter() - start < 0.5
    with pytest.raises(InvalidParameterError, match="level must be >= 2"):
        twisted_cohomology_dims(1, 0, level=1, genus=24)
    with pytest.raises(InvalidParameterError, match="genus must be >= 0"):
        twisted_cohomology_dims(1, 0, level=2, genus=-1)


def test_level_and_genus_are_checked_in_one_place():
    # a level alone names no deck group: refused, not a silent symbolic table
    with pytest.raises(InvalidParameterError, match="level needs a genus"):
        twisted_cohomology_dims(1, 0, level=3)
    with pytest.raises(InvalidParameterError, match="level needs a genus"):
        j_twisted_dims(JVector((1,)), 3, None, max_k=2)
    with pytest.raises(InvalidParameterError, match="level needs a genus"):
        SymbolicOrder(level=3)
    # a negative genus is refused by name, with or without a level
    with pytest.raises(InvalidParameterError, match="genus must be >= 0"):
        SymbolicOrder(genus=-1)
    for mode in ("level", "full-mcg"):
        with pytest.raises(InvalidParameterError, match="genus must be >= 0"):
            twisted_cohomology_dims(0, 0, mode=mode, genus=-1, max_k=6)
    # a genus alone still fixes the stable-range flags, with m unbound
    table = twisted_cohomology_dims(1, 0, genus=3, max_k=4)
    assert table.entries[2] is None and table.in_range[2] is False
    assert twisted_cohomology_dims(1, 0, mode="full-mcg", genus=3, max_k=4).in_range[0]
    # j_twisted_dims and putman_gap share SymbolicOrder's texts
    for level, genus, text in ((1, 3, "level must be >= 2"), (2, -1, "genus must be >= 0")):
        with pytest.raises(InvalidParameterError, match=text):
            j_twisted_dims(JVector((1,)), level, genus, max_k=2)
        with pytest.raises(InvalidParameterError, match=text):
            putman_gap(1, 0, 2, level, genus)


def test_twisted_full_mcg():
    table = twisted_cohomology_dims(2, 0, mode="full-mcg", genus=24, max_k=4)
    assert table.entries[2] == 1
    assert table.entries[4] == 3  # kappa_1 * a + u1u2 + u_{12} a
    assert table.in_range[2] is True  # 2g >= 3k + 2 at g = 24, k = 2


def test_twisted_odd_degrees_vanish():
    for r in range(4):
        sym = twisted_cohomology_dims(r, 1, mode="level", max_k=9)
        for k in (1, 3, 5, 7, 9):
            assert sym.poly_entries[k] == IntPoly(())


def test_twisted_cohomological_degree_shift():
    table = twisted_cohomology_dims(2, 0, mode="level", level=2, genus=24, max_k=4)
    degrees = {row["k"]: row["cohomological_degree"] for row in table.rows()}
    assert (degrees[2], degrees[4]) == (0, 2)
    # the stable ring has no shift
    assert [row["cohomological_degree"] for row in stable_cohomology_dims(0, 2).rows()] == [
        0, 1, 2
    ]


def test_twisted_convolution_identity_reversed_order():
    # recompute each entry by summing over the algebra degree first
    r, p, max_k = 3, 1, 10
    table = twisted_cohomology_dims(r, p, mode="level", max_k=max_k)
    stable = stable_cohomology_dims(p, max_k)
    spec = AlgebraSpec(Variant.LEVEL_PRIME, r, SymbolicOrder())
    for k in range(max_k + 1):
        total = IntPoly(())
        for b in range(k, -1, -1):
            total = total + graded_dimension(spec, b) * stable.entries[k - b]
        assert table.poly_entries[k] == total


def test_twisted_degree_in_m_is_the_stability_dichotomy():
    # the paper's dichotomy, owned by _m_degree: a level entry is constant in
    # m for r <= 1 (stable) and grows with m for r >= 2 (unstable)
    for p in range(4):
        for r in range(31):
            table = twisted_cohomology_dims(r, p, max_k=60)
            for k, poly in table.poly_entries.items():
                assert poly.degree == _m_degree(r, k), (r, p, k)


def _grid_tables():
    for p in range(4):
        yield stable_cohomology_dims(p, 24)
    for r in range(7):
        for p in range(3):
            yield twisted_cohomology_dims(r, p, max_k=12)
            for genus in (0, 5, 24):
                yield twisted_cohomology_dims(r, p, genus=genus, max_k=12)
                for level in (2, 3):
                    yield twisted_cohomology_dims(r, p, level=level, genus=genus, max_k=12)
            for genus in (None, 0, 5, 24):
                yield twisted_cohomology_dims(r, p, mode="full-mcg", genus=genus, max_k=12)
    for j in ((), (0,), (1,), (0, 1), (1, 1, 0), (0, 0, 0, 1)):
        yield j_twisted_dims(j, 3, 5, max_k=12)


def test_table_rows_over_a_grid_match_recorded_digest():
    # stable, level (symbolic, concrete, lone genus), full-mcg and
    # j-twisted tables: their rows, keys, key order and value types
    digest = hashlib.sha256()
    for table in _grid_tables():
        digest.update(repr(table.rows()).encode())
    assert digest.hexdigest() == (
        "186a1dad968dc1f533fca397d9130b55f396dc9a4d76bd99ee2fda96e504c391"
    )


def test_twisted_has_no_boundary_parameter():
    names = set(inspect.signature(twisted_cohomology_dims).parameters)
    assert "b" not in names
    assert not any("boundary" in n for n in names)


def test_twisted_rejects_closed_surface():
    with pytest.raises(InvalidParameterError) as err:
        twisted_cohomology_dims(2, 0, mode="level", max_k=4, closed_surface=True)
    assert "closed" in str(err.value)
    with pytest.raises(InvalidParameterError):
        twisted_cohomology_dims(2, 3, mode="level", max_k=4, closed_surface=True)


def test_twisted_level_entries_have_nonnegative_coefficients():
    for r in range(5):
        table = twisted_cohomology_dims(r, 1, mode="level", max_k=12)
        for k in range(13):
            value = table.poly_entries[k]
            assert all(c >= 0 for c in value.coeffs)


def test_putman_gap_example_r2():
    lhs, rhs = putman_gap(2, 0, 2, 2, 24)
    assert (lhs, rhs, lhs != rhs) == (1, 2**48, True)
    lhs3, rhs3 = putman_gap(2, 0, 2, 3, 24)
    assert (lhs3, rhs3, lhs3 != rhs3) == (1, 3**48, True)


def test_putman_gap_r1_equal():
    # the verdict this pair gets is checked through the CLI in
    # tests/test_cli.py::test_gap_prints_each_verdict
    lhs, rhs = putman_gap(1, 0, 4, 5, 100)
    assert lhs == rhs


def test_putman_gap_differs_from_degree_two_ceil_half_r():
    # below degree 2*ceil(r/2) no block can carry a deck weight, so both
    # dimensions agree (often both 0) and that is no mismatch
    for r in range(11):
        for k in range(0, 13, 2):
            lhs, rhs = putman_gap(r, 1, k, 3, 400)
            assert (lhs != rhs) == (r >= 2 and k >= r + r % 2), (r, k)
    assert putman_gap(9, 0, 4, 8, 300)[1] == 0


def test_putman_gap_rejections():
    with pytest.raises(InvalidParameterError) as err:
        putman_gap(2, 0, 3, 2, 100)
    assert "odd" in str(err.value)
    with pytest.raises(InvalidParameterError):
        putman_gap(2, 0, 2, 2, 23)  # genus below 2k^2+7k+2 = 24
    with pytest.raises(InvalidParameterError):
        putman_gap(2, 0, 2, 1, 24)
    # past the degree cap, refused by its own name
    with pytest.raises(InvalidParameterError, match=r"^k must lie in \[0, 200\]$"):
        putman_gap(2, 0, 202, 2, 90000)


def test_putman_gap_matches_two_table_reference():
    for r, p, k, level in itertools.product(range(11), (0, 1, 3), range(0, 21, 2), (2, 3, 5)):
        genus = 2 * k * k + 7 * k + 2
        assert putman_gap(r, p, k, level, genus) == two_table_gap(r, p, k, level, genus), (
            r, p, k, level,
        )


def test_putman_gap_reads_one_table_with_m_unbound(monkeypatch):
    tables = []

    def recording(*args, **kwargs):
        tables.append(twisted_cohomology_dims(*args, **kwargs))
        return tables[-1]

    monkeypatch.setattr(series, "twisted_cohomology_dims", recording)
    for r, k, level, genus in ((2, 2, 2, 24), (1, 4, 5, 100), (6, 12, 3, 400)):
        tables.clear()
        lhs, rhs = putman_gap(r, 0, k, level, genus)
        assert len(tables) == 1 and tables[0].entries[k] is None
        poly = tables[0].poly_entries[k]
        assert (lhs, rhs) == (at_order(poly, 1), at_order(poly, level ** (2 * genus)))


def _brute_j_factors(length, group, degrees):
    """Count compatible-partition monomials of each degree by enumeration,
    for every J-vector of the length: {entries: [count per degree]}.  The
    partitions of {1..length+1} are enumerated once for all of them."""
    monomials = []
    for partition in enumerate_d_weighted_partitions(length + 1, group):
        mins = [
            1 if len(idx) == 1 and idx != (1,) else 0
            for idx, _ in partition.blocks
        ]
        base = sum(len(idx) - 1 for idx, _ in partition.blocks)
        b = partition.num_blocks
        per_degree = []
        for degree in degrees:
            t = degree // 2 - base - sum(mins)
            ok = degree % 2 == 0 and t >= 0
            per_degree.append(math.comb(t + b - 1, b - 1) if ok else 0)
        monomials.append((partition, per_degree))
    counts = {}
    for entries in _all_j(length):
        j_vector = JVector(entries)
        row = [0] * len(degrees)
        for partition, per_degree in monomials:
            if compatible_with(partition, j_vector):
                row = list(map(operator.add, row, per_degree))
        counts[entries] = row
    return counts


def test_j_factor_matches_brute_enumeration():
    degrees = range(0, 9)
    for group, max_length in ((Z2, 6), (Z3, 5)):
        for length in range(max_length + 1):
            for entries, brute in _brute_j_factors(length, group, degrees).items():
                j = JVector(entries)
                counted = [j_factor_dimension(j, d).evaluate(group.order()) for d in degrees]
                assert counted == brute, (group, entries)


def test_j_factor_matches_partition_walk():
    degrees = list(range(0, 13, 2))
    vectors = [e for r in range(7) for e in _all_j(r)]
    vectors += [(0,) * 7, (1,) * 7, (0, 1, 0, 1, 0, 1, 0)]
    for entries in vectors:
        j = JVector(entries)
        assert [j_factor_dimension(j, d) for d in degrees] == (
            j_factor_dimensions_by_walk(j, degrees)
        ), entries


def _all_j(r):
    if r == 0:
        return [()]
    out = []
    for bits in range(2**r):
        out.append(tuple((bits >> i) & 1 for i in range(r)))
    return out


def test_j_factor_all_ones_is_level_prime_with_free_generator():
    # compatible partitions pin {1} as a singleton, leaving a free
    # polynomial generator times the r-index prime algebra
    for r in range(0, 4):
        j = JVector((1,) * r)
        spec = AlgebraSpec(Variant.LEVEL_PRIME, r, SymbolicOrder())
        for q in range(0, 6):
            expected = IntPoly(())
            for a in range(q + 1):
                expected = expected + graded_dimension(spec, 2 * (q - a))
            assert j_factor_dimension(j, 2 * q) == expected


def test_j_vector_length_cap():
    # past the set-partition enumeration cap: all tagged slots pin {1} as a
    # singleton, so the slice is a sum of level-prime slices
    j = JVector((1,) * MAX_COUNT_R)
    spec = AlgebraSpec(Variant.LEVEL_PRIME, MAX_COUNT_R, SymbolicOrder())
    for q in (30, 45):
        expected = IntPoly(())
        for a in range(q + 1):
            expected = expected + graded_dimension(spec, 2 * (q - a))
        assert j_factor_dimension(j, 2 * q) == expected
    with pytest.raises(CapExceededError):
        j_factor_dimension(JVector((0,) * (MAX_COUNT_R + 1)), 2)


def test_j_twisted_all_ones_matches_level_pipeline():
    for r in range(0, 4):
        j = JVector((1,) * r)
        jt = j_twisted_dims(j, 2, 1, max_k=10)
        lv = twisted_cohomology_dims(r, 1, mode="level", level=2, genus=1, max_k=10)
        assert jt.entries == lv.entries


def test_j_twisted_r0_is_stable_table_with_one_puncture():
    jt = j_twisted_dims(JVector(()), 2, 3, max_k=8)
    st = stable_cohomology_dims(1, 8)
    assert jt.entries == st.entries


def test_j_single_zero_slot_degree_two():
    # blocks {1,2} with nonzero weight (m - 1 of them) plus the singleton term
    assert j_factor_dimension(JVector((0,)), 2) == IntPoly((0, 1))  # m


def test_stratum_census():
    assert stratum_census(3, 1) == IntPoly((0, 3))
    assert stratum_census(3, 2) == IntPoly((0, 0, 1))
    for r in (0, 1, 4, 7):
        assert stratum_census(r, 0) == IntPoly((1,))
    assert at_order(stratum_census(3, 1), concrete_order(Z2)) == 6
    with pytest.raises(InvalidParameterError):
        stratum_census(3, 4)


def test_stratum_census_sums_to_total_count():
    for r in range(8):
        total = IntPoly(())
        for codim in range(r + 1):
            total = total + stratum_census(r, codim)
        assert total == count_d_weighted_partitions(r)


def test_in_stable_range_examples():
    assert in_stable_range(StableRangeKind.PUTMAN, 41, 3) is True
    assert in_stable_range(StableRangeKind.PUTMAN, 40, 3) is False
    assert in_stable_range(StableRangeKind.LOOIJENGA, 4, 2) is True
    assert in_stable_range(StableRangeKind.LOOIJENGA, 3, 2) is False
    with pytest.raises(InvalidParameterError):
        in_stable_range(StableRangeKind.PUTMAN, -1, 3)
    with pytest.raises(InvalidParameterError, match="unknown stable range kind"):
        in_stable_range("putman", 41, 3)


def test_table_json_shape():
    table = twisted_cohomology_dims(2, 0, mode="level", level=2, genus=24, max_k=2)
    payload = table_to_json_dict(table)
    assert payload["metadata"]["r"] == 2
    assert payload["rows"][2]["dim_at_concrete_m"] == str(2**48)
