"""Exact rational linear algebra: sparse rank tracking and dense null spaces.

Everything runs over fractions.Fraction; no floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction


class RowReducer:
    """Incremental rank computation over sparse rational rows.

    Rows are dicts column -> Fraction.  Pivot rows are kept normalized
    with leading coefficient 1, indexed by their leading column.
    """

    def __init__(self):
        self.pivots: dict[int, dict[int, Fraction]] = {}

    @property
    def rank(self):
        return len(self.pivots)

    def reduce(self, row):
        """Return the residual of row after elimination against the pivots."""
        row = dict(row)
        while row:
            lead = min(row)
            pivot = self.pivots.get(lead)
            if pivot is None:
                return row
            factor = row[lead]
            for col, val in pivot.items():
                new = row.get(col, 0) - factor * val
                if new:
                    row[col] = new
                else:
                    row.pop(col, None)
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

    def clone(self):
        other = RowReducer()
        other.pivots = {lead: dict(row) for lead, row in self.pivots.items()}
        return other


def rref(rows):
    """Reduced row echelon form of a dense Fraction matrix.

    Returns (reduced_rows, pivot_columns); zero rows are dropped.
    """
    rows = [list(map(Fraction, r)) for r in rows]
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivots = []
    rank = 0
    for col in range(ncols):
        pivot_row = None
        for i in range(rank, len(rows)):
            if rows[i][col] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        inv = Fraction(1, 1) / rows[rank][col]
        rows[rank] = [v * inv for v in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                factor = rows[i][col]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[rank])]
        pivots.append(col)
        rank += 1
    return rows[:rank], pivots


def null_space(rows, ncols):
    """Basis of {x : A x = 0} in reduced echelon order.

    Returns (basis_vectors, free_columns); basis vector i has entry 1 at
    free_columns[i] and 0 at every other free column.
    """
    reduced, pivots = rref(rows)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for f in free:
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for row, p in zip(reduced, pivots):
            vec[p] = -row[f]
        basis.append(tuple(vec))
    return basis, free


def matrix_rank(rows):
    reducer = RowReducer()
    for r in rows:
        reducer.add({i: Fraction(v) for i, v in enumerate(r) if v != 0})
    return reducer.rank


def identity(n):
    return tuple(
        tuple(Fraction(1) if i == j else Fraction(0) for j in range(n))
        for i in range(n)
    )


def transpose(mat):
    return tuple(zip(*mat))


def mat_mul(a, b):
    bt = transpose(b)
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def mat_neg(a):
    return tuple(tuple(-x for x in row) for row in a)


def mat_vec(a, v):
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def mat_inv(mat):
    """Inverse via Gauss-Jordan; raises ValueError on singular input."""
    n = len(mat)
    aug = [list(map(Fraction, row)) + list(identity(n)[i]) for i, row in enumerate(mat)]
    reduced, pivots = rref(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return tuple(tuple(row[n:]) for row in reduced)


def kron(a, b):
    """Kronecker product consistent with row-major flattening of u (x) v."""
    nb = len(b)
    return tuple(
        tuple(a[i][j] * b[k][l] for j in range(len(a[0])) for l in range(len(b[0])))
        for i in range(len(a))
        for k in range(nb)
    )


def determinant(mat):
    """Exact determinant by fraction elimination with partial pivoting."""
    n = len(mat)
    rows = [list(map(Fraction, r)) for r in mat]
    det = Fraction(1)
    for col in range(n):
        pivot = next((i for i in range(col, n) if rows[i][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det *= rows[col][col]
        inv = Fraction(1) / rows[col][col]
        for i in range(col + 1, n):
            if rows[i][col] == 0:
                continue
            factor = rows[i][col] * inv
            for j in range(col, n):
                rows[i][j] -= factor * rows[col][j]
    return det
