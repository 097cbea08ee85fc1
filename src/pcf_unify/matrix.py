"""Small exact matrices over any commutative ring the package uses.

Entries may be Fractions, Polys, RationalFunctions, or multivariate
rational functions; everything here only assumes ``+``, ``-``, ``*`` and
exact equality.  Matrices are immutable tuples of row tuples.  The sizes
in this domain never exceed 4x4, so no clever algorithms are warranted.
"""

from __future__ import annotations

from fractions import Fraction


class Mat:
    __slots__ = ("rows",)

    def __init__(self, rows):
        rows = tuple(tuple(r) for r in rows)
        if not rows or any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("matrix must be rectangular and nonempty")
        self.rows = rows

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0])

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __iter__(self):
        return iter(self.rows)

    def __eq__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __mul__(self, other):
        if isinstance(other, Mat):
            if self.ncols != other.nrows:
                raise ValueError(
                    f"dimension mismatch: {self.nrows}x{self.ncols} * "
                    f"{other.nrows}x{other.ncols}"
                )
            return Mat(
                tuple(
                    _dot(self.rows[i], other, j)
                    for j in range(other.ncols)
                )
                for i in range(self.nrows)
            )
        return self.map(lambda e: e * other)

    def __rmul__(self, other):
        return self.map(lambda e: other * e)

    def __add__(self, other):
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise ValueError("dimension mismatch in matrix addition")
        return Mat(
            tuple(a + b for a, b in zip(ra, rb))
            for ra, rb in zip(self.rows, other.rows)
        )

    def __sub__(self, other):
        return self + other.map(lambda e: -e)

    def map(self, f) -> "Mat":
        return Mat(tuple(f(e) for e in row) for row in self.rows)

    def shift(self, s: int) -> "Mat":
        """Entrywise index shift for matrices of polynomials/rational functions."""
        return self.map(lambda e: e.shift(s))

    def __str__(self) -> str:
        return "[" + "; ".join(", ".join(str(e) for e in row) for row in self.rows) + "]"

    def __repr__(self) -> str:
        return f"Mat({self})"


def _dot(row, other: Mat, j: int):
    acc = None
    for k, a in enumerate(row):
        term = a * other.rows[k][j]
        acc = term if acc is None else acc + term
    return acc


def identity(m: int, one=Fraction(1), zero=Fraction(0)) -> Mat:
    return Mat(
        tuple(one if i == j else zero for j in range(m)) for i in range(m)
    )


def det2(a: Mat):
    if a.nrows != 2 or a.ncols != 2:
        raise ValueError("det2 needs a 2x2 matrix")
    return a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]


def adjugate2(a: Mat) -> Mat:
    """Adjugate of a 2x2 matrix: adj(A) * A = det(A) * I exactly."""
    if a.nrows != 2 or a.ncols != 2:
        raise ValueError("adjugate2 needs a 2x2 matrix")
    return Mat([[a[1, 1], -a[0, 1]], [-a[1, 0], a[0, 0]]])


def mat_adjugate_inverse(a: Mat):
    """(adjugate, determinant) of a 2x2 matrix; raise if identically singular."""
    d = det2(a)
    if _is_zero(d):
        raise ZeroDivisionError("matrix is identically singular")
    return adjugate2(a), d


def projective_eq(a: Mat, b: Mat) -> bool:
    """Equality in the projective sense: a = c * b for some nonzero scalar.

    Checked by cross-multiplying every entry against one nonzero pivot, so it
    works over any integral domain without division.
    """
    if a.nrows != b.nrows or a.ncols != b.ncols:
        return False
    piv = None
    for i in range(a.nrows):
        for j in range(a.ncols):
            if not _is_zero(a[i, j]) or not _is_zero(b[i, j]):
                piv = (i, j)
                break
        if piv:
            break
    if piv is None:
        return True  # both zero
    pi, pj = piv
    if _is_zero(a[pi, pj]) or _is_zero(b[pi, pj]):
        return False
    for i in range(a.nrows):
        for j in range(a.ncols):
            if a[i, j] * b[pi, pj] != b[i, j] * a[pi, pj]:
                return False
    return True


def _is_zero(e) -> bool:
    if hasattr(e, "is_zero"):
        return e.is_zero()
    return e == 0
