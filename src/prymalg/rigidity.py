"""Symplectic commutants of finite abelian actions, over exact rationals.

The ambient space is 2h-dimensional with the standard skew form
J = [[0, I], [-I, 0]].  All computation is rational: the dimension of a
null space cut out by rational equations does not change under field
extension, so every dimension reported here is also the real one.

Deck actions are supplied as explicit symplectic matrices, checked when
their ``AbelianSymplecticAction`` is built.  The bundled fixtures
(trivial, scalar, plane swap, quarter-turn rotation) are engineering
samples for exercising the solver, not derived from any particular cover.
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
    if isinstance(x, int) and not isinstance(x, bool):
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


def is_symplectic(M):
    """M^T J M = J, for J the standard form of M's size."""
    J = standard_symplectic_form(len(M) // 2)
    return linalg.mat_mul(linalg.mat_mul(linalg.transpose(M), J), M) == J


def commutes_with(A, B):
    return linalg.mat_mul(A, B) == linalg.mat_mul(B, A)


def matrix_order(M):
    """Multiplicative order, or a cap error for (apparently) infinite order.

    The generators passed here are symplectic, hence invertible, so the
    first power that repeats is the identity itself."""
    n = len(M)
    ident = linalg.identity(n)
    power = M
    for k in range(1, DEFAULT_ORDER_CAP + 1):
        if power == ident:
            return k
        power = linalg.mat_mul(power, M)
    raise CapExceededError(
        "matrix order exceeds cap %d (infinite order?)" % DEFAULT_ORDER_CAP
    )


class AbelianSymplecticAction(_Value):
    """Commuting finite-order symplectic generators on Q^(2h), checked when
    built: h >= 0, then each raw generator 2h x 2h, then each generator
    (coerced by ``as_matrix``) symplectic and of order at most
    DEFAULT_ORDER_CAP, then each pair commuting."""

    __slots__ = ("h", "generators")

    def __init__(
        self,
        h: int,
        generators: tuple[tuple[tuple[Fraction, ...], ...], ...],
    ):
        if h < 0:
            raise InvalidParameterError("h must be >= 0")
        n = 2 * h
        # the shape is read off the raw rows, so a huge matrix of the wrong
        # shape is refused before any entry is converted
        for i, g in enumerate(generators):
            if isinstance(g, (list, tuple)) and (
                len(g) != n
                or any(isinstance(row, (list, tuple)) and len(row) != n for row in g)
            ):
                raise InvalidParameterError("generator #%d is not %dx%d" % (i, n, n))
        gens = tuple(as_matrix(g) for g in generators)
        for i, M in enumerate(gens):
            if not is_symplectic(M):
                raise InvalidParameterError(
                    "generator #%d is not symplectic (M^T J M != J)" % i
                )
            matrix_order(M)
        for i in range(len(gens)):
            for j in range(i + 1, len(gens)):
                if not commutes_with(gens[i], gens[j]):
                    raise InvalidParameterError(
                        "generators #%d and #%d do not commute" % (i, j)
                    )
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "generators", gens)


def sp_dimension(h):
    """Dimension h(2h+1) of the full symplectic algebra."""
    if h < 0:
        raise InvalidParameterError("h must be >= 0")
    return h * (2 * h + 1)


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
    """Null space of {X^T J + J X = 0} and {X M = M X for each generator},
    as a tuple of basis matrices; its length is the commutant's dimension.

    Unknown a n + b is the entry X[a][b].  Each equation is one sparse
    row holding only its nonzero coefficients; the rows are solved by
    exact elimination, and the basis comes back in reduced echelon order.
    """
    check_commutant_h(action.h)
    n = 2 * action.h
    J_rows, J_cols = _rows_and_columns(standard_symplectic_form(action.h))
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
    vectors, _ = linalg.null_space(rows, n * n)
    return tuple(_unflatten(v, n) for v in vectors)


# ---------------------------------------------------------------------------
# Sample actions for the CLI and tests.
# ---------------------------------------------------------------------------


def trivial_action(h):
    return AbelianSymplecticAction(h, ())


def scalar_action(h):
    """The order-2 action by -identity."""
    n = 2 * h
    neg = tuple(tuple(-x for x in row) for row in linalg.identity(n))
    return AbelianSymplecticAction(h, (neg,))


def plane_swap_action():
    """Order-2 action on genus 2 exchanging the two hyperbolic planes."""
    swap = [[Fraction(0)] * 4 for _ in range(4)]
    swap[0][1] = swap[1][0] = Fraction(1)
    swap[2][3] = swap[3][2] = Fraction(1)
    return AbelianSymplecticAction(2, (tuple(tuple(r) for r in swap),))


def rotation_action(h):
    """Order-4 action by the standard form matrix itself."""
    return AbelianSymplecticAction(h, (standard_symplectic_form(h),))


FIXTURES = {
    "trivial": trivial_action,
    "scalar": scalar_action,
    "plane-swap": plane_swap_action,
    "rotation": rotation_action,
}


def fixture_action(name, h):
    if name not in FIXTURES:
        raise InvalidParameterError(
            "unknown fixture %r; choose from %s" % (name, ", ".join(sorted(FIXTURES)))
        )
    if name != "plane-swap":
        return FIXTURES[name](h)
    if h != 2:
        raise InvalidParameterError("plane-swap fixture is defined for h = 2")
    return plane_swap_action()
