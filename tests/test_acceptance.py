"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one pass/fail line; timed criteria assert their runtime
bounds.  Run with `pytest tests/test_acceptance.py -v -s` to see the
per-criterion lines as they complete.
"""

import functools
import itertools
import math
import os
import subprocess
import sys
import time
from pathlib import Path

from prymalg.abelian_group import FiniteAbelianGroup, SymbolicOrder, homology_group
from prymalg.algebra import (
    AlgebraSpec,
    Variant,
    _oracle_ideal,
    graded_dimension,
    oracle_graded_dimension,
)
from prymalg.partitions import (
    count_d_weighted_partitions,
    enumerate_d_weighted_partitions,
    relabel,
)
from prymalg.polynomial import IntPoly
from prymalg.rigidity import (
    commutant_sp,
    plane_swap_action,
    scalar_action,
    sp_dimension,
    trivial_action,
)
from prymalg.series import (
    StableRangeKind,
    in_stable_range,
    putman_gap,
    stratum_census,
    twisted_cohomology_dims,
)
from prymalg.symmetry import (
    centralizer_order,
    counted_character,
    cycle_types,
    decompose,
    permutation_character,
    sr_character_table,
)
from prymalg import linalg

from helpers import (
    all_abelian_groups,
    class_size,
    kron,
    live_component_coverage,
    mat_inv,
    mat_vec,
    matrix_rank,
    random_symplectic,
    reference_oracle_ideal,
    tensor_square_embedding,
)

SRC = str(Path(__file__).resolve().parent.parent / "src")

TRIVIAL = FiniteAbelianGroup(())
Z2 = FiniteAbelianGroup((2,))
Z3 = FiniteAbelianGroup((3,))
Z4 = FiniteAbelianGroup((4,))
Z5 = FiniteAbelianGroup((5,))
Z22 = FiniteAbelianGroup((2, 2))


def criterion(number, name):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print("criterion %02d (%s): FAIL" % (number, name))
                raise
            print("criterion %02d (%s): PASS" % (number, name))

        return wrapper

    return deco


@criterion(1, "r=2 closed-form tables")
def test_criterion_01_r2_tables():
    start = time.perf_counter()
    prime = AlgebraSpec(Variant.LEVEL_PRIME, 2, SymbolicOrder())
    dprime = AlgebraSpec(Variant.KAWAZUMI_DPRIME, 2)
    for n in range(1, 11):
        assert graded_dimension(prime, 2 * n) == IntPoly((n - 1, 1))
        assert graded_dimension(dprime, 2 * n) == n
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, "runtime %.3fs exceeds 1 s" % elapsed


# (groups, r values, degrees); untwisted variants run on the trivial group
ORACLE_GRID = (
    ((TRIVIAL, Z2, Z3), range(4), range(11)),
    ((TRIVIAL, Z2), (4,), range(11)),
    ((Z3,), (4,), range(9)),
    ((TRIVIAL,), (5,), range(13)),  # 80 475 columns at degree 12
    ((Z4, Z22, Z5), range(4), range(11)),
    ((Z4, Z22), (4,), range(9)),  # 61 321 columns at degree 8
    ((Z2,), (5,), range(9)),  # 35 311 columns at degree 8
)


def oracle_grid_cells(variants=Variant):
    """(spec, group, degree) for every cell of ORACLE_GRID."""
    for variant, (groups, rs, degrees) in itertools.product(variants, ORACLE_GRID):
        variant_groups = groups if variant.twisted else [g for g in groups if g == TRIVIAL]
        for group in variant_groups:
            for r in rs:
                spec = AlgebraSpec(variant, r, group if variant.twisted else None)
                for degree in degrees:
                    yield spec, group, degree


@criterion(2, "oracle equivalence grid")
def test_criterion_02_oracle_equivalence():
    start = time.perf_counter()
    mismatches = []
    checked = 0
    for spec, group, degree in oracle_grid_cells():
        closed = graded_dimension(spec, degree)
        if isinstance(closed, IntPoly):
            closed = closed.evaluate(group.order())
        orc = oracle_graded_dimension(spec, degree)
        checked += 1
        if closed != orc:
            mismatches.append((spec.variant, group, spec.r, degree, closed, orc))
    # the pinned fixture
    assert oracle_graded_dimension(AlgebraSpec(Variant.LEVEL_FULL, 2, Z2), 4) == 5
    assert not mismatches, mismatches
    assert checked >= 5 * 4 * 9
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, "runtime %.1fs exceeds 60 s" % elapsed


def test_primed_oracle_tests_one_member_per_component():
    # coverage is constant on each live component, so the primed count
    # from component roots equals the count over every member
    primed = [v for v in Variant if not v.is_full]
    checked = 0
    for spec, _, degree in oracle_grid_cells(primed):
        coverage = live_component_coverage(spec, degree)
        assert all(len(values) == 1 for values in coverage.values()), (spec, degree)
        covered = sum(True in values for values in coverage.values())
        assert covered == oracle_graded_dimension(spec, degree), (spec, degree)
        checked += 1
    assert checked == 471


def test_oracle_ideal_matches_reference_kernel():
    # every distinct slice of ORACLE_GRID with r <= 4, plus the slices of
    # the benchmark's two oracle-grid commands (oracle-check --max-r 3
    # --max-degree 10 --groups Z1,Z2,Z3, and --max-degree 8 --groups
    # Z4,Z2xZ2): labels, rank, monomials in order and gens all equal
    slices = {
        (spec.r, spec.concrete_group(), degree)
        for spec, _, degree in oracle_grid_cells()
        if spec.r <= 4
    }
    slices.update((r, g, d) for g in (TRIVIAL, Z2, Z3) for r in range(4) for d in range(11))
    slices.update((r, g, d) for g in (Z4, Z22) for r in range(4) for d in range(9))
    for r, group, degree in slices:
        expected = reference_oracle_ideal(r, group, degree)
        assert _oracle_ideal(r, group, degree) == expected, (r, group, degree)
    assert len(slices) == 313


@criterion(3, "specialization at m=1")
def test_criterion_03_specialization():
    for r in range(6):
        full_sym = AlgebraSpec(Variant.LEVEL_FULL, r, SymbolicOrder())
        prime_sym = AlgebraSpec(Variant.LEVEL_PRIME, r, SymbolicOrder())
        for n in range(13):
            assert graded_dimension(full_sym, n).evaluate(1) == graded_dimension(
                AlgebraSpec(Variant.LOOIJENGA_FULL, r), n
            )
            assert graded_dimension(prime_sym, n).evaluate(1) == graded_dimension(
                AlgebraSpec(Variant.KAWAZUMI_DPRIME, r), n
            )


@criterion(4, "r=1 stability and r=2 gap")
def test_criterion_04_stability_vs_instability():
    # r = 1 level tables are constant in m and match the untwisted tables
    for p in (0, 1):
        sym = twisted_cohomology_dims(1, p, mode="level", max_k=12)
        full = twisted_cohomology_dims(1, p, mode="full-mcg", max_k=12)
        for k in range(13):
            poly = sym.poly_entries[k]
            assert poly.is_constant()
            assert poly == full.entries[k]
        for level, genus in ((2, 5), (3, 7), (5, 11)):
            conc = twisted_cohomology_dims(
                1, p, mode="level", level=level, genus=genus, max_k=12
            )
            assert conc.entries == full.entries
    # r = 2, k = 2 gap with the genus exactly at the threshold 2k^2+7k+2 = 24
    assert 2 * 2 * 2 + 7 * 2 + 2 == 24
    lhs2, rhs2 = putman_gap(2, 0, 2, 2, 24)
    assert (lhs2, rhs2, lhs2 != rhs2) == (1, 2**48, True)
    lhs3, rhs3 = putman_gap(2, 0, 2, 3, 24)
    assert (lhs3, rhs3, lhs3 != rhs3) == (1, 3**48, True)
    assert rhs3 == 79766443076872509863361


@criterion(5, "odd-degree vanishing")
def test_criterion_05_odd_degrees_vanish():
    for variant in Variant:
        for r in range(6):
            spec = AlgebraSpec(
                variant, r, SymbolicOrder() if variant.twisted else None
            )
            for degree in range(1, 21, 2):
                assert graded_dimension(spec, degree) == 0
    for r in range(4):
        table = twisted_cohomology_dims(r, 1, mode="level", max_k=20)
        for k in range(1, 21, 2):
            assert table.poly_entries[k] == IntPoly(())


@criterion(6, "partition combinatorics")
def test_criterion_06_partition_combinatorics():
    groups_by_order = {
        1: [TRIVIAL],
        2: [Z2],
        3: [Z3],
        4: [Z4, Z22],
    }
    for r in range(6):
        poly = count_d_weighted_partitions(r)
        for m, groups in groups_by_order.items():
            for group in groups:
                assert len(enumerate_d_weighted_partitions(r, group)) == poly.evaluate(m)
        # census sums to the total count
        total = IntPoly(())
        for codim in range(r + 1):
            total = total + stratum_census(r, codim)
        assert total == poly
    # relabel action axioms, exhaustively for r <= 4 and |D| <= 4
    for r in range(1, 5):
        perms = list(itertools.permutations(range(1, r + 1)))
        for group in (TRIVIAL, Z2, Z3, Z4, Z22):
            for partition in enumerate_d_weighted_partitions(r, group):
                for sigma in perms:
                    for tau in perms:
                        composed = tuple(sigma[tau[i - 1] - 1] for i in range(1, r + 1))
                        assert relabel(partition, composed) == relabel(
                            relabel(partition, tau), sigma
                        )
                identity = tuple(range(1, r + 1))
                assert relabel(partition, identity) == partition


@criterion(7, "characters")
def test_criterion_07_characters():
    # swap trace equals the 2-torsion count for every |D| <= 64
    for group in all_abelian_groups(64):
        chi = permutation_character(AlgebraSpec(Variant.LEVEL_PRIME, 2, group), 2)
        assert chi[(2,)] == group.torsion_count(2), group
    # all decompositions in the grid are nonnegative integers
    for variant in (Variant.LEVEL_PRIME, Variant.LEVEL_FULL):
        for r in range(1, 5):
            for group in (TRIVIAL, Z2, Z3):
                spec = AlgebraSpec(variant, r, group)
                for degree in range(0, 9, 2):
                    mults = decompose(permutation_character(spec, degree))
                    assert all(
                        isinstance(m, int) and m >= 0 for m in mults.values()
                    )
    # counted characters over the paper's deck group H1(g=50, l=3), far
    # beyond enumeration, still decompose into nonnegative integers
    h1 = homology_group(50, 3)
    for variant in (Variant.LEVEL_PRIME, Variant.LEVEL_FULL):
        for r in range(0, 7):
            spec = AlgebraSpec(variant, r, h1)
            for degree in range(0, 13, 2):
                mults = decompose(counted_character(spec, degree))
                assert all(isinstance(m, int) and m >= 0 for m in mults.values())
    # row and column orthogonality of the irreducible tables up to r = 8
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


@criterion(8, "rigidity linear algebra")
def test_criterion_08_rigidity():
    start = time.perf_counter()
    assert len(commutant_sp(trivial_action(2))) == 10
    assert len(commutant_sp(scalar_action(1))) == 3
    assert len(commutant_sp(plane_swap_action())) == 6
    rng_seed = 20250809
    import random

    rng = random.Random(rng_seed)
    for h in (1, 2, 3):
        basis = commutant_sp(trivial_action(h))
        vectors = [tensor_square_embedding(B) for B in basis]
        assert matrix_rank(vectors) == sp_dimension(h)
        F = random_symplectic(h, rng)
        FF = kron(F, F)
        Finv = mat_inv(F)
        for B in basis[:3]:
            conj = linalg.mat_mul(linalg.mat_mul(F, B), Finv)
            assert tensor_square_embedding(conj) == tuple(
                mat_vec(FF, tensor_square_embedding(B))
            )
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, "runtime %.2fs exceeds 5 s" % elapsed


@criterion(9, "stable-range predicates")
def test_criterion_09_stable_range_predicates():
    assert in_stable_range(StableRangeKind.PUTMAN, 41, 3) is True
    assert in_stable_range(StableRangeKind.PUTMAN, 40, 3) is False
    # CLI withholds out-of-range rows unless explicitly allowed
    plain = _run_cli(
        "twisted", "--r", "2", "--p", "0", "--level", "2", "--genus", "24",
        "--max-k", "4", "--format", "csv",
    )
    assert not any(
        line.startswith("4,") for line in plain.stdout.decode().splitlines()
    )
    assert b"allow-extrapolated" in plain.stderr
    allowed = _run_cli(
        "twisted", "--r", "2", "--p", "0", "--level", "2", "--genus", "24",
        "--max-k", "4", "--format", "csv", "--allow-extrapolated",
    )
    assert any(
        line.startswith("4,") and line.endswith("extrapolated")
        for line in allowed.stdout.decode().splitlines()
    )


ACCEPTANCE_COMMANDS = [
    ("dims", "--variant", "level-prime", "--r", "2", "--group", "Z3",
     "--max-degree", "8", "--format", "csv"),
    ("dims", "--variant", "level-full", "--r", "2", "--symbolic",
     "--max-degree", "8", "--format", "json"),
    ("twisted", "--r", "2", "--p", "0", "--level", "2", "--genus", "24",
     "--max-k", "4", "--format", "csv"),
    ("twisted", "--r", "1", "--p", "1", "--max-k", "8", "--format", "json",
     "--allow-extrapolated"),
    ("gap", "--r", "2", "--k", "2", "--level", "2", "--genus", "24",
     "--format", "json"),
    ("gap", "--r", "1", "--k", "4", "--level", "5", "--genus", "100",
     "--format", "pretty"),
    ("character", "--r", "2", "--degree", "2", "--group", "Z3",
     "--format", "json"),
    ("character", "--variant", "level-full", "--r", "3", "--degree", "4",
     "--group", "Z2", "--format", "csv"),
    ("commutant", "--h", "2", "--fixture", "plane-swap", "--format", "json"),
    ("commutant", "--h", "1", "--fixture", "scalar", "--format", "csv"),
    ("oracle-check", "--max-r", "2", "--max-degree", "6", "--groups", "Z1,Z2",
     "--format", "csv"),
    ("strata", "--r", "4", "--group", "Z3", "--format", "csv"),
    ("strata", "--r", "3", "--format", "pretty"),
]


def _run_cli(*args, workers=None, seed=None, check=True):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    argv = [sys.executable, "-m", "prymalg", *args]
    if seed is not None:
        argv += ["--seed", str(seed)]
    if workers is not None:
        argv += ["--workers", str(workers)]
    proc = subprocess.run(argv, capture_output=True, env=env)
    if check:
        assert proc.returncode == 0, (args, proc.returncode, proc.stderr)
    return proc


@criterion(10, "byte-identical determinism")
def test_criterion_10_determinism():
    for command in ACCEPTANCE_COMMANDS:
        runs = [
            _run_cli(*command, seed=17, workers=1),
            _run_cli(*command, seed=17, workers=1),
            _run_cli(*command, seed=17, workers=5),
        ]
        outputs = {proc.stdout for proc in runs}
        assert len(outputs) == 1, ("nondeterministic output", command)
