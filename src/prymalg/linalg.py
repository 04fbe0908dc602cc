"""Exact rational linear algebra on one sparse eliminator, ``RowReducer``.

Everything runs over fractions.Fraction; no floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction


class RowReducer:
    """Incremental exact elimination over sparse rational rows.

    Rows are dicts column -> Fraction.  Pivot rows are kept normalized
    with leading coefficient 1, indexed by their leading column.  Rows
    are combined nowhere in this module but in ``_cancel``.
    """

    def __init__(self):
        self.pivots: dict[int, dict[int, Fraction]] = {}

    @property
    def rank(self):
        return len(self.pivots)

    @staticmethod
    def _cancel(row, col, pivot):
        """Subtract row[col] times pivot from row, in place."""
        factor = row[col]
        for c, val in pivot.items():
            new = row.get(c, 0) - factor * val
            if new:
                row[c] = new
            else:
                row.pop(c, None)

    def reduce(self, row):
        """Return the residual of row after elimination against the pivots.

        The residual differs from row by a combination of pivot rows, and
        its leading column is not a pivot column.
        """
        row = dict(row)
        while row:
            lead = min(row)
            pivot = self.pivots.get(lead)
            if pivot is None:
                return row
            self._cancel(row, lead, pivot)
        return row

    def add(self, row):
        """Insert a row; return True when it increased the rank."""
        residual = self.reduce(row)
        if not residual:
            return False
        lead = min(residual)
        inv = Fraction(1, 1) / residual[lead]
        self.pivots[lead] = {c: v * inv for c, v in residual.items()}
        return True

    def reduced_pivots(self):
        """The pivot rows in reduced echelon form, by ascending lead.

        Back-substitutes in descending lead order: a pivot row's entries in
        later pivot columns are cancelled by the already reduced rows,
        whose other entries all lie in free columns.
        """
        done = {}
        for lead in sorted(self.pivots, reverse=True):
            row = dict(self.pivots[lead])
            for col in [c for c in row if c in done]:
                self._cancel(row, col, done[col])
            done[lead] = row
        return dict(reversed(done.items()))

    def clone(self):
        other = RowReducer()
        other.pivots = {lead: dict(row) for lead, row in self.pivots.items()}
        return other


def sparse_row(row):
    """The nonzero entries of a dense row, as a dict column -> Fraction."""
    return {c: Fraction(v) for c, v in enumerate(row) if v}


def rref(rows):
    """Reduced row echelon form of a dense Fraction matrix.

    Returns (reduced_rows, pivot_columns); zero rows are dropped.
    """
    reducer = RowReducer()
    ncols = 0
    for row in rows:
        ncols = len(row)
        reducer.add(sparse_row(row))
    reduced = []
    for row in reducer.reduced_pivots().values():
        dense = [Fraction(0)] * ncols
        for c, v in row.items():
            dense[c] = v
        reduced.append(dense)
    return reduced, sorted(reducer.pivots)


def null_space(rows, ncols):
    """Basis of {x : A x = 0} in reduced echelon order.

    The rows of A are sparse (dicts column -> value).  Returns
    (basis_vectors, free_columns); basis vector i has entry 1 at
    free_columns[i] and 0 at every other free column.
    """
    reducer = RowReducer()
    for row in rows:
        reducer.add(row)
    reduced = reducer.reduced_pivots()
    free = [c for c in range(ncols) if c not in reduced]
    basis = {f: [Fraction(0)] * ncols for f in free}
    for f, vec in basis.items():
        vec[f] = Fraction(1)
    # every non-lead entry of a reduced pivot row lies in a free column
    for lead, row in reduced.items():
        for c, v in row.items():
            if c != lead:
                basis[c][lead] = -v
    return [tuple(vec) for vec in basis.values()], free


def identity(n):
    return tuple(
        tuple(Fraction(1) if i == j else Fraction(0) for j in range(n))
        for i in range(n)
    )


def transpose(mat):
    return tuple(zip(*mat))


def mat_mul(a, b):
    """Product a b; its cost follows the nonzero entries of a and b."""
    width = len(b[0]) if b else 0
    b_rows = [[(j, y) for j, y in enumerate(row) if y] for row in b]
    out = []
    for row in a:
        acc = [Fraction(0)] * width
        for x, b_row in zip(row, b_rows):
            if x:
                for j, y in b_row:
                    acc[j] += x * y
        out.append(tuple(acc))
    return tuple(out)


def mat_neg(a):
    return tuple(tuple(-x for x in row) for row in a)


def mat_inv(mat):
    """Inverse via Gauss-Jordan; raises ValueError on singular input."""
    n = len(mat)
    ident = identity(n)
    aug = [list(row) + list(ident[i]) for i, row in enumerate(mat)]
    reduced, pivots = rref(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return tuple(tuple(row[n:]) for row in reduced)


def determinant(mat):
    """Exact determinant of a square matrix by sparse elimination.

    Each row's residual differs from it by a combination of earlier rows,
    so the residuals have the same determinant; permuted into ascending
    lead order they are upper triangular.
    """
    reducer = RowReducer()
    det = Fraction(1)
    leads = []
    for row in mat:
        residual = reducer.reduce(sparse_row(row))
        if not residual:
            return Fraction(0)
        lead = min(residual)
        det *= residual[lead]
        leads.append(lead)
        reducer.add(residual)
    inversions = sum(
        1 for i, a in enumerate(leads) for b in leads[i + 1 :] if a > b
    )
    return -det if inversions % 2 else det
