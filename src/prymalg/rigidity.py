"""Symplectic commutants of finite abelian actions, over exact rationals.

The ambient space is 2h-dimensional with the standard skew form
J = [[0, I], [-I, 0]].  All computation is rational: the dimension of a
null space cut out by rational equations does not change under field
extension, so every dimension reported here is also the real one.

Deck actions are supplied as explicit symplectic matrices.  The bundled
fixtures (trivial, scalar, plane swap, quarter-turn rotation) are
engineering samples for exercising the solver, not derived from any
particular cover.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import CapExceededError, InvalidParameterError, ParseError, _Value
from . import linalg

DEFAULT_ORDER_CAP = 24
MAX_COMMUTANT_H = 32


def standard_symplectic_form(h):
    J = [[Fraction(0)] * (2 * h) for _ in range(2 * h)]
    for i in range(h):
        J[i][h + i] = Fraction(1)
        J[h + i][i] = Fraction(-1)
    return tuple(tuple(row) for row in J)


def as_matrix(rows):
    """Coerce nested numbers / "num/den" strings to a Fraction matrix."""
    if not isinstance(rows, (list, tuple)):
        raise ParseError("matrix %r is not a list of rows" % (rows,))
    out = []
    width = None
    for row in rows:
        if not isinstance(row, (list, tuple)):
            raise ParseError("matrix row %r is not a list" % (row,))
        converted = tuple(_as_fraction(x) for x in row)
        if width is None:
            width = len(converted)
        elif len(converted) != width:
            raise ParseError("ragged matrix rows")
        out.append(converted)
    return tuple(out)


def _as_fraction(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        try:
            if "/" in x:
                num, den = x.split("/")
                return Fraction(int(num), int(den))
            return Fraction(int(x))
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError("bad matrix entry %r" % (x,)) from exc
    raise ParseError("bad matrix entry %r" % (x,))


def format_matrix(mat):
    """Nested lists of exact entry strings ("3" or "1/2")."""
    return [
        [str(x) if x.denominator == 1 else "%d/%d" % (x.numerator, x.denominator) for x in row]
        for row in mat
    ]


class SymplecticSpace(_Value):
    """2h-dimensional rational space with the standard skew form."""

    __slots__ = ("h",)

    def __init__(self, h: int):
        object.__setattr__(self, "h", h)
        self.__post_init__()

    def __post_init__(self):
        if self.h < 0:
            raise InvalidParameterError("h must be >= 0")

    @property
    def dim(self):
        return 2 * self.h

    @property
    def form(self):
        return standard_symplectic_form(self.h)


def is_symplectic(space, M):
    J = space.form
    return linalg.mat_mul(linalg.mat_mul(linalg.transpose(M), J), M) == J


def preserves_form_infinitesimally(space, X):
    """X^T J + J X = 0."""
    J = space.form
    lhs = linalg.mat_mul(linalg.transpose(X), J)
    rhs = linalg.mat_neg(linalg.mat_mul(J, X))
    return lhs == rhs


def commutes_with(A, B):
    return linalg.mat_mul(A, B) == linalg.mat_mul(B, A)


def matrix_order(M):
    """Multiplicative order, or a cap error for (apparently) infinite order."""
    n = len(M)
    ident = linalg.identity(n)
    power = M
    seen = {M}
    for k in range(1, DEFAULT_ORDER_CAP + 1):
        if power == ident:
            return k
        power = linalg.mat_mul(power, M)
        if power in seen:
            break
        seen.add(power)
    raise CapExceededError(
        "matrix order exceeds cap %d (infinite order?)" % DEFAULT_ORDER_CAP
    )


class AbelianSymplecticAction(_Value):
    """Commuting finite-order symplectic generators on a symplectic space."""

    __slots__ = ("space", "generators")

    def __init__(
        self,
        space: SymplecticSpace,
        generators: tuple[tuple[tuple[Fraction, ...], ...], ...],
    ):
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "generators", generators)
        self.__post_init__()

    def __post_init__(self):
        gens = tuple(as_matrix(g) for g in self.generators)
        object.__setattr__(self, "generators", gens)

    def validate(self):
        n = self.space.dim
        for i, M in enumerate(self.generators):
            if len(M) != n or any(len(row) != n for row in M):
                raise InvalidParameterError(
                    "generator #%d is not %dx%d" % (i, n, n)
                )
            if not is_symplectic(self.space, M):
                raise InvalidParameterError(
                    "generator #%d is not symplectic (M^T J M != J)" % i
                )
            matrix_order(M)
        for i in range(len(self.generators)):
            for j in range(i + 1, len(self.generators)):
                if not commutes_with(self.generators[i], self.generators[j]):
                    raise InvalidParameterError(
                        "generators #%d and #%d do not commute" % (i, j)
                    )


class LieSubalgebraReport(_Value):
    """Dimension and reduced-echelon basis of a commutant subalgebra."""

    __slots__ = ("dimension", "basis", "free_coordinates")

    def __init__(
        self,
        dimension: int,
        basis: tuple[tuple[tuple[Fraction, ...], ...], ...],
        free_coordinates: tuple[int, ...],
    ):
        object.__setattr__(self, "dimension", dimension)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "free_coordinates", free_coordinates)


def sp_dimension(h):
    """Dimension h(2h+1) of the full symplectic algebra."""
    if h < 0:
        raise InvalidParameterError("h must be >= 0")
    return h * (2 * h + 1)


def _flatten(M):
    return tuple(x for row in M for x in row)


def _unflatten(vec, n):
    return tuple(tuple(vec[i * n : (i + 1) * n]) for i in range(n))


def check_commutant_h(h):
    """Refuse h > MAX_COMMUTANT_H: the commutant system has (2h)^2
    columns and (2h)^2 rows per generator plus one.  On 2 vCPUs with
    CPython 3.11 a bundled fixture at h = 32 takes about 1 s and 160 MB,
    or 7 s and 1.5 GB with its basis printed as JSON; a dense rational
    action costs far more (about 7 s already at h = 8)."""
    if h > MAX_COMMUTANT_H:
        raise CapExceededError("h=%d exceeds commutant cap %d" % (h, MAX_COMMUTANT_H))


def _equation(terms):
    """One sparse row {column: coefficient} summing (column, coefficient)
    terms, without its zero entries."""
    row = {}
    for col, val in terms:
        row[col] = row.get(col, 0) + val
    return {c: v for c, v in row.items() if v}


def _rows_and_columns(M):
    """The nonzero entries of each row and of each column of M."""
    return (
        [linalg.sparse_row(r) for r in M],
        [linalg.sparse_row(c) for c in linalg.transpose(M)],
    )


def commutant_sp(action):
    """Null space of {X^T J + J X = 0} and {X M = M X for each generator}.

    Unknown a n + b is the entry X[a][b].  Each equation is one sparse
    row holding only its nonzero coefficients; the rows are solved by
    exact elimination, and the basis comes back in reduced echelon order.
    """
    check_commutant_h(action.space.h)
    action.validate()
    n = action.space.dim
    J_rows, J_cols = _rows_and_columns(action.space.form)
    rows = []
    # (X^T J + J X)[i][j] = sum_k X[k][i] J[k][j] + J[i][k] X[k][j]
    for i in range(n):
        for j in range(n):
            rows.append(_equation(
                [(k * n + i, v) for k, v in J_cols[j].items()]
                + [(k * n + j, v) for k, v in J_rows[i].items()]
            ))
    for M in action.generators:
        M_rows, M_cols = _rows_and_columns(M)
        # (X M - M X)[i][j] = sum_k X[i][k] M[k][j] - M[i][k] X[k][j]
        for i in range(n):
            for j in range(n):
                rows.append(_equation(
                    [(i * n + k, v) for k, v in M_cols[j].items()]
                    + [(k * n + j, -v) for k, v in M_rows[i].items()]
                ))
    vectors, free_cols = linalg.null_space(rows, n * n)
    basis = tuple(_unflatten(v, n) for v in vectors)
    return LieSubalgebraReport(
        dimension=len(basis), basis=basis, free_coordinates=tuple(free_cols)
    )


def adjoint_matrix(action, F, report):
    """Matrix of X -> F X F^(-1) in the commutant basis of the report."""
    F = as_matrix(F)
    if not is_symplectic(action.space, F):
        raise InvalidParameterError("F is not in the commutant group: not symplectic")
    for i, M in enumerate(action.generators):
        if not commutes_with(F, M):
            raise InvalidParameterError(
                "F is not in the commutant group: does not commute with generator #%d"
                % i
            )
    Finv = linalg.mat_inv(F)
    cols = []
    for B in report.basis:
        image = linalg.mat_mul(linalg.mat_mul(F, B), Finv)
        flat = _flatten(image)
        coords = [flat[c] for c in report.free_coordinates]
        # the basis is echelon over the free coordinates, so coordinates
        # read off directly; verify the residual vanishes exactly
        recon = [Fraction(0)] * len(flat)
        for coeff, vec in zip(coords, report.basis):
            fv = _flatten(vec)
            for t in range(len(flat)):
                recon[t] += coeff * fv[t]
        if tuple(recon) != flat:
            raise InvalidParameterError(
                "conjugation left the commutant; report basis does not match action"
            )
        cols.append(coords)
    n = len(report.basis)
    return tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))


def tensor_square_embedding(space, X):
    """Image of X in the tensor square, flattened row-major.

    The embedding sends X to sum_j beta_j (x) X alpha_j - alpha_j (x) X beta_j
    over the standard symplectic basis alpha_j = e_j, beta_j = e_(h+j), so
    X alpha_j and X beta_j are columns j and h + j of X; it is linear and
    injective and intertwines conjugation with the diagonal tensor-square
    action.
    """
    X = as_matrix(X)
    if not preserves_form_infinitesimally(space, X):
        raise InvalidParameterError("X is not in the symplectic Lie algebra")
    h, n = space.h, space.dim
    out = [Fraction(0)] * (n * n)
    for j in range(h):
        for k in range(n):
            out[(h + j) * n + k] = X[k][j]
            out[j * n + k] = -X[k][h + j]
    return tuple(out)


# ---------------------------------------------------------------------------
# Sample actions for the CLI and tests.
# ---------------------------------------------------------------------------


def trivial_action(h):
    return AbelianSymplecticAction(SymplecticSpace(h), ())


def scalar_action(h):
    """The order-2 action by -identity."""
    n = 2 * h
    neg = tuple(tuple(-x for x in row) for row in linalg.identity(n))
    return AbelianSymplecticAction(SymplecticSpace(h), (neg,))


def plane_swap_action():
    """Order-2 action on genus 2 exchanging the two hyperbolic planes."""
    swap = [[Fraction(0)] * 4 for _ in range(4)]
    swap[0][1] = swap[1][0] = Fraction(1)
    swap[2][3] = swap[3][2] = Fraction(1)
    return AbelianSymplecticAction(
        SymplecticSpace(2), (tuple(tuple(r) for r in swap),)
    )


def rotation_action(h):
    """Order-4 action by the standard form matrix itself."""
    return AbelianSymplecticAction(SymplecticSpace(h), (standard_symplectic_form(h),))


FIXTURES = {
    "trivial": lambda h: trivial_action(h),
    "scalar": lambda h: scalar_action(h),
    "plane-swap": lambda h: plane_swap_action(),
    "rotation": lambda h: rotation_action(h),
}


def fixture_action(name, h):
    if name not in FIXTURES:
        raise InvalidParameterError(
            "unknown fixture %r; choose from %s" % (name, ", ".join(sorted(FIXTURES)))
        )
    if name == "plane-swap" and h != 2:
        raise InvalidParameterError("plane-swap fixture is defined for h = 2")
    return FIXTURES[name](h)
