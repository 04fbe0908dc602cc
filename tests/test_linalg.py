"""The sparse eliminator against dense reference elimination."""

import random
from fractions import Fraction

import pytest

from prymalg import linalg
from prymalg.rigidity import (
    AbelianSymplecticAction,
    SymplecticSpace,
    commutant_sp,
    fixture_action,
    plane_swap_action,
    rotation_action,
    scalar_action,
)

from helpers import dense_determinant, dense_null_space, dense_rref, mat_vec, matrix_rank


def _commutant_systems():
    """The dense form of each sparse system ``commutant_sp`` solves."""
    actions = [plane_swap_action()]
    for h in (1, 2, 3, 4, 8):
        actions += [fixture_action(name, h) for name in ("trivial", "scalar", "rotation")]
    for h in (1, 2, 3, 4):
        gens = scalar_action(h).generators + rotation_action(h).generators
        actions.append(AbelianSymplecticAction(SymplecticSpace(h), gens))
    systems = []
    real = linalg.null_space

    def spy(rows, ncols):
        rows = list(rows)
        systems.append([[row.get(c, 0) for c in range(ncols)] for row in rows])
        return real(rows, ncols)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "null_space", spy)
        for action in actions:
            commutant_sp(action)
    assert len(systems) == len(actions)
    return systems


def _random_matrix(rng, nrows, ncols):
    density = rng.random()
    rows = [
        [
            Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            if rng.random() < density
            else Fraction(0)
            for _ in range(ncols)
        ]
        for _ in range(nrows)
    ]
    if nrows >= 3 and rng.random() < 0.4:
        # rank-deficient: one row is a combination of two others
        a, b = rng.randrange(nrows), rng.randrange(nrows)
        c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        rows[rng.randrange(nrows)] = [x + c * y for x, y in zip(rows[a], rows[b])]
    if nrows and rng.random() < 0.3:
        rows[rng.randrange(nrows)] = [Fraction(0)] * ncols
    return rows


def _random_matrices():
    rng = random.Random(13)
    shapes = [(0, 0), (1, 1), (0, 3)]
    for n in range(1, 8):
        shapes += [(n, n)] * 20
        shapes += [(n, rng.randint(n + 1, 9)) for _ in range(8)]
        shapes += [(rng.randint(n + 1, 9), n) for _ in range(8)]
    return [_random_matrix(rng, r, c) for r, c in shapes]


def _check_against_reference(rows):
    reduced, pivots = linalg.rref(rows)
    assert (reduced, pivots) == dense_rref(rows)
    assert matrix_rank(rows) == len(pivots)
    return pivots


def test_rref_matches_dense_reference_on_commutant_systems():
    for rows in _commutant_systems():
        _check_against_reference(rows)


def test_rref_and_determinant_match_dense_reference_on_random_matrices():
    for mat in _random_matrices():
        ncols = len(mat[0]) if mat else 0
        pivots = _check_against_reference(mat)
        # the echelon basis of the kernel
        basis, free = linalg.null_space([linalg.sparse_row(row) for row in mat], ncols)
        assert (basis, free) == dense_null_space(mat, ncols)
        assert free == [c for c in range(ncols) if c not in pivots]
        for f, vec in zip(free, basis):
            assert [vec[c] for c in free] == [int(c == f) for c in free]
            assert mat_vec(mat, vec) == (0,) * len(mat)
        if len(mat) == ncols:
            assert linalg.determinant(mat) == dense_determinant(mat)
            augmented = [list(row) + list(linalg.identity(ncols)[i]) for i, row in enumerate(mat)]
            _check_against_reference(augmented)


def test_mat_inv_inverts_and_rejects_singular_matrices():
    singular = 0
    for mat in _random_matrices():
        n = len(mat)
        if n != (len(mat[0]) if mat else 0):
            continue
        if linalg.determinant(mat) == 0:
            singular += 1
            with pytest.raises(ValueError):
                linalg.mat_inv(mat)
        else:
            assert linalg.mat_mul(linalg.mat_inv(mat), mat) == linalg.identity(n)
    assert singular > 0
