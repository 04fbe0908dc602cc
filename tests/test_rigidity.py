import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from prymalg import linalg
from prymalg.errors import CapExceededError, InvalidParameterError, ParseError
from prymalg.rigidity import (
    AbelianSymplecticAction,
    as_matrix,
    commutant_sp,
    commutes_with,
    fixture_action,
    format_matrix,
    is_symplectic,
    matrix_order,
    plane_swap_action,
    rotation_action,
    scalar_action,
    sp_dimension,
    standard_symplectic_form,
    trivial_action,
)

from prymalg.abelian_group import parse_group_literal

from helpers import (
    adjoint_matrix,
    cover_action,
    cover_commutant_dimension,
    dense_commutant_system,
    dense_determinant,
    dense_null_space,
    in_commutant_group,
    invariant_sp_dimension,
    kron,
    mat_inv,
    mat_vec,
    matrix_rank,
    preserves_form_infinitesimally,
    random_symplectic,
    tensor_square_embedding,
)


def test_sp_dimension():
    assert sp_dimension(0) == 0
    assert sp_dimension(1) == 3
    assert sp_dimension(2) == 10


def test_form_squares_to_minus_identity():
    for h in (1, 2, 3):
        J = standard_symplectic_form(h)
        n = 2 * h
        minus = tuple(tuple(-x for x in row) for row in linalg.identity(n))
        assert linalg.mat_mul(J, J) == minus
        assert linalg.transpose(J) == tuple(tuple(-x for x in row) for row in J)


def test_commutant_dimensions_fixed_cases():
    assert commutant_sp(trivial_action(2)).dimension == 10
    assert commutant_sp(scalar_action(1)).dimension == 3
    assert commutant_sp(plane_swap_action()).dimension == 6


def test_commutant_basis_satisfies_constraints():
    action = plane_swap_action()
    report = commutant_sp(action)
    for X in report.basis:
        assert preserves_form_infinitesimally(X)
        for M in action.generators:
            assert linalg.mat_mul(X, M) == linalg.mat_mul(M, X)


def test_swap_commutant_matches_eigenspace_split():
    # the swap splits the space into two 2-dimensional symplectic
    # eigenspaces, so the commutant is sp(2) + sp(2)
    assert commutant_sp(plane_swap_action()).dimension == 2 * sp_dimension(1)


def test_rotation_commutant():
    assert commutant_sp(rotation_action(1)).dimension == 1
    assert commutant_sp(rotation_action(2)).dimension == 4


def test_commutant_validation_names_constraint():
    not_symp = as_matrix([[2, 0], [0, 2]])
    with pytest.raises(InvalidParameterError) as err:
        AbelianSymplecticAction(1, (not_symp,))
    assert "symplectic" in str(err.value)

    swap = plane_swap_action().generators[0]
    other = as_matrix(
        [[0, 0, 1, 0], [0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1]]
    )  # rotation in the first plane: symplectic but does not commute with swap
    assert is_symplectic(other)
    with pytest.raises(InvalidParameterError) as err:
        AbelianSymplecticAction(2, (swap, other))
    assert "commute" in str(err.value)


def test_infinite_order_generator_hits_cap():
    shear = as_matrix([[1, 1], [0, 1]])
    assert is_symplectic(shear)
    with pytest.raises(CapExceededError):
        AbelianSymplecticAction(1, (shear,))
    assert matrix_order(as_matrix([[0, 1], [-1, 0]])) == 4


def test_commutant_dimension_invariant_under_conjugation():
    rng = random.Random(4242)
    for h in (1, 2, 3):
        base = scalar_action(h)
        expected = commutant_sp(base).dimension
        trials = 20 if h < 3 else 6
        for _ in range(trials):
            S = random_symplectic(h, rng)
            Sinv = mat_inv(S)
            gens = tuple(
                linalg.mat_mul(linalg.mat_mul(S, M), Sinv) for M in base.generators
            )
            conj = AbelianSymplecticAction(h, gens)
            assert commutant_sp(conj).dimension == expected
    # and for the swap action specifically
    swap = plane_swap_action()
    for _ in range(10):
        S = random_symplectic(2, rng)
        Sinv = mat_inv(S)
        gens = tuple(
            linalg.mat_mul(linalg.mat_mul(S, M), Sinv) for M in swap.generators
        )
        assert commutant_sp(AbelianSymplecticAction(2, gens)).dimension == 6


def _conjugate(action, S):
    Sinv = mat_inv(S)
    gens = tuple(linalg.mat_mul(linalg.mat_mul(S, M), Sinv) for M in action.generators)
    return AbelianSymplecticAction(action.h, gens)


def _scalar_and_rotation(h):
    gens = scalar_action(h).generators + rotation_action(h).generators
    return AbelianSymplecticAction(h, gens)


def test_commutant_dimension_matches_character_formula():
    actions = [plane_swap_action()]
    for h in (1, 2, 3, 4, 8):
        actions += [fixture_action(name, h) for name in ("trivial", "scalar", "rotation")]
    actions += [_scalar_and_rotation(h) for h in (1, 2, 3)]
    rng = random.Random(2024)
    for action in list(actions):
        if action.h <= 3:
            actions.append(_conjugate(action, random_symplectic(action.h, rng)))
    for action in actions:
        assert commutant_sp(action).dimension == invariant_sp_dimension(
            action.generators, 2 * action.h
        ), (action.h, action.generators)


def test_commutant_basis_matches_dense_reference():
    actions = [plane_swap_action()]
    for h in range(9):
        actions += [fixture_action(name, h) for name in ("trivial", "scalar", "rotation")]
    actions += [_scalar_and_rotation(h) for h in (1, 2, 3, 4)]
    rng = random.Random(16)
    for action in list(actions):
        if 1 <= action.h <= 3:
            actions.append(_conjugate(action, random_symplectic(action.h, rng)))
    for action in actions:
        n = 2 * action.h
        vectors, free = dense_null_space(dense_commutant_system(action), n * n)
        report = commutant_sp(action)
        assert report.basis == tuple(
            tuple(tuple(v[i * n : (i + 1) * n]) for i in range(n)) for v in vectors
        ), (action.h, action.generators)
        assert report.free_coordinates == tuple(free)


def test_commutant_of_cover_models():
    cases = [("Z2", 2), ("Z2", 3), ("Z3", 2), ("Z3", 3), ("Z4", 2), ("Z2xZ2", 2),
             ("Z2xZ4", 2), ("H1(g=2,l=2)", 2)]
    for literal, genus in cases:
        group = parse_group_literal(literal)
        action = cover_action(group, genus)
        assert action.h == 1 + group.order() * (genus - 1)
        dim = commutant_sp(action).dimension
        assert dim == cover_commutant_dimension(group, genus), (literal, genus)
        assert dim == invariant_sp_dimension(action.generators, 2 * action.h)
    assert cover_commutant_dimension(parse_group_literal("H1(g=2,l=2)"), 2) == 55


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(["trivial", "scalar", "rotation", "plane-swap", "scalar+rotation"]),
    h=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_commutant_of_random_conjugate(name, h, seed):
    if name == "scalar+rotation":
        action = _scalar_and_rotation(h)
    else:
        action = fixture_action(name, 2 if name == "plane-swap" else h)
    action = _conjugate(action, random_symplectic(action.h, random.Random(seed)))
    report = commutant_sp(action)
    assert report.dimension == invariant_sp_dimension(action.generators, 2 * action.h)
    for X in report.basis:
        assert preserves_form_infinitesimally(X)
        assert all(commutes_with(X, M) for M in action.generators)


def test_commutant_dimension_bounded_with_equality_for_scalars():
    cases = [
        (trivial_action(2), True),
        (scalar_action(2), True),
        (plane_swap_action(), False),
        (rotation_action(2), False),
    ]
    for action, expect_full in cases:
        dim = commutant_sp(action).dimension
        h = action.h
        assert dim <= sp_dimension(h)
        assert (dim == sp_dimension(h)) == expect_full


def test_adjoint_identity_and_center():
    action = plane_swap_action()
    report = commutant_sp(action)
    n = 2 * action.h
    ident = linalg.identity(n)
    neg = tuple(tuple(-x for x in row) for row in ident)
    assert adjoint_matrix(action, ident, report) == linalg.identity(report.dimension)
    assert adjoint_matrix(action, neg, report) == linalg.identity(report.dimension)


def _diagonal_sl2_in_swap_commutant(a, b, c, d):
    F = [[Fraction(0)] * 4 for _ in range(4)]
    for i in range(2):
        F[i][i] = Fraction(a)
        F[i][i + 2] = Fraction(b)
        F[i + 2][i] = Fraction(c)
        F[i + 2][i + 2] = Fraction(d)
    return tuple(tuple(row) for row in F)


def test_adjoint_respects_composition_and_trace():
    action = plane_swap_action()
    report = commutant_sp(action)
    F1 = _diagonal_sl2_in_swap_commutant(2, 1, 1, 1)
    F2 = _diagonal_sl2_in_swap_commutant(1, 2, 0, 1)
    assert in_commutant_group(action, F1) and in_commutant_group(action, F2)
    A1 = adjoint_matrix(action, F1, report)
    A2 = adjoint_matrix(action, F2, report)
    A12 = adjoint_matrix(action, linalg.mat_mul(F1, F2), report)
    assert linalg.mat_mul(A1, A2) == A12
    # conjugation preserves the trace form on the commutant, so det = +-1
    assert dense_determinant(A1) in (Fraction(1), Fraction(-1))
    assert dense_determinant(A2) in (Fraction(1), Fraction(-1))
    # determinant of a basis-change of conjugation is +-1; check via rank
    # and the direct-conjugation trace oracle
    F1inv = mat_inv(F1)
    direct_trace = Fraction(0)
    for j, B in enumerate(report.basis):
        image = linalg.mat_mul(linalg.mat_mul(F1, B), F1inv)
        flat = [x for row in image for x in row]
        direct_trace += flat[report.free_coordinates[j]]
    assert sum(A1[i][i] for i in range(report.dimension)) == direct_trace


def test_adjoint_rejects_outsiders():
    action = plane_swap_action()
    report = commutant_sp(action)
    rot_first_plane = as_matrix(
        [[0, 0, 1, 0], [0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1]]
    )
    with pytest.raises(InvalidParameterError) as err:
        adjoint_matrix(action, rot_first_plane, report)
    assert "commute" in str(err.value)
    with pytest.raises(InvalidParameterError):
        adjoint_matrix(action, as_matrix([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 1, 1]]), report)


def test_tensor_square_zero_and_frozen_example():
    zero = as_matrix([[0, 0], [0, 0]])
    assert tensor_square_embedding(zero) == (Fraction(0),) * 4
    X = as_matrix([[1, 0], [0, -1]])
    emb = tensor_square_embedding(X)
    # beta (x) alpha + alpha (x) beta = e2 (x) e1 + e1 (x) e2
    assert emb == (Fraction(0), Fraction(1), Fraction(1), Fraction(0))
    # X alpha = 0 and X beta = alpha, so the image is -alpha (x) alpha
    nilpotent = as_matrix([[0, 1], [0, 0]])
    assert tensor_square_embedding(nilpotent) == (-1, 0, 0, 0)
    with pytest.raises(InvalidParameterError):
        tensor_square_embedding(linalg.identity(2))


def test_tensor_square_rank_is_full():
    for h in (1, 2, 3):
        report = commutant_sp(trivial_action(h))
        vectors = [tensor_square_embedding(B) for B in report.basis]
        assert matrix_rank(vectors) == sp_dimension(h)


def test_tensor_square_equivariance_exact():
    rng = random.Random(77)
    for h in (1, 2, 3):
        report = commutant_sp(trivial_action(h))
        for _ in range(5):
            F = random_symplectic(h, rng)
            FF = kron(F, F)
            Finv = mat_inv(F)
            for B in report.basis[:4]:
                conj = linalg.mat_mul(linalg.mat_mul(F, B), Finv)
                left = tensor_square_embedding(conj)
                right = mat_vec(FF, tensor_square_embedding(B))
                assert left == tuple(right)


def test_matrix_text_forms():
    mat = as_matrix([["1/2", 3], [-1, "7/3"]])
    assert mat[0][0] == Fraction(1, 2)
    assert format_matrix(mat) == [["1/2", "3"], ["-1", "7/3"]]
    for bad in (
        [["x"]],
        [["1/0"]],
        [[True]],
        [[1.5]],
        [["1/2/3"]],
        [5],
        [[1, 2], [3]],
    ):
        with pytest.raises(ParseError):
            as_matrix(bad)


def test_fixture_selection():
    assert commutant_sp(fixture_action("trivial", 2)).dimension == 10
    assert commutant_sp(fixture_action("scalar", 1)).dimension == 3
    assert commutant_sp(fixture_action("plane-swap", 2)).dimension == 6
    with pytest.raises(InvalidParameterError):
        fixture_action("plane-swap", 3)
    with pytest.raises(InvalidParameterError):
        fixture_action("nope", 2)
