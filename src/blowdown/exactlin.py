"""Exact rational and integer linear algebra.

Everything in this module (and the package) is exact: rational entries are
`fractions.Fraction`, integer entries are arbitrary-precision `int`.  There is
no floating point and no tolerance anywhere; equality checks are bit-exact.

One fraction-free (Bareiss 1968) forward elimination, `_eliminate`, serves
every square-matrix question.  Rational input is first scaled by one common
positive denominator L, which keeps symmetry and inertia and gives
det(g) = det(L*g) / L**n.  Its pivots are the leading principal minors, so
they give the determinant (the last pivot), negative definiteness
(Sylvester) and inertia (Jacobi: sign changes between consecutive minors);
carried right-hand columns and one back-substitution give `solve_linear` and
`invert`.  `smith_normal_form` (divisor class group quotients) is the only
other elimination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import SingularMatrixError

#: The exact rational scalar type used throughout the package.  The stdlib
#: class already enforces lowest terms and a positive denominator.
Rational = Fraction

RationalLike = int | Fraction


def _square(
    g: Sequence[Sequence[RationalLike]], symmetric: bool = False
) -> list[list[Fraction]]:
    rows = [[Fraction(x) for x in row] for row in g]
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError(f"matrix is not square: {n} rows of length {len(rows[0])}")
    if symmetric:
        for i in range(n):
            for j in range(i + 1, n):
                if rows[i][j] != rows[j][i]:
                    raise ValueError(f"matrix is not symmetric at ({i},{j})")
    return rows


def _scaled(rows: list[list[RationalLike]]) -> tuple[list[list[int]], int]:
    """Integer rows L*rows and the common denominator L > 0."""
    scale = math.lcm(*(x.denominator for row in rows for x in row))
    return [[x.numerator * (scale // x.denominator) for x in row] for row in rows], scale


def _eliminate(a: list[list[int]], n: int, symmetric: bool = False) -> tuple[int, list[int]]:
    """Bareiss elimination of the leading n columns of the integer rows a, in place.

    Rows may carry extra right-hand columns, which are reduced alongside.
    Afterwards row k holds, from column k on, the (k+1)-th leading minor
    bordered by each column, so pivot a[k][k] is that leading minor and every
    division is exact.  Returns (det, pivots), one pivot per index handled.

    A zero pivot is replaced by a row swap, or, when `symmetric`, by the
    congruence row_k += t*row_j, col_k += t*col_j, which keeps the
    determinant and the inertia.  With no nonzero entry below it the general
    mode stops (det 0, last pivot 0); the symmetric mode records pivot 0 for
    that index (its trailing row and column are zero, one zero eigenvalue)
    and goes on without it.
    """
    prev, sign, pivots = 1, 1, []
    for k in range(n):
        if a[k][k] == 0:
            j = next((j for j in range(k + 1, n) if a[j][k] != 0), None)
            if j is None:
                pivots.append(0)
                if symmetric:
                    continue
                return 0, pivots
            if symmetric:
                # the new pivot t^2*a[j][j] + 2t*a[j][k] is nonzero for this t
                t = 1 if a[j][j] != -2 * a[j][k] else -1
                a[k] = [x + t * y for x, y in zip(a[k], a[j])]
                for row in a[k:]:
                    row[k] += t * row[j]
            else:
                a[k], a[j] = a[j], a[k]
                sign = -sign
        p, top = a[k][k], a[k][k:]
        for row in a[k + 1 : n]:
            f = row[k]
            row[k:] = [(x * p - f * y) // prev for x, y in zip(row[k:], top)]
        prev = p
        pivots.append(p)
    return (0 if 0 in pivots else sign * prev), pivots


def _solve(a: list[list[Fraction]], rhs: list[list[RationalLike]]) -> list[list[Fraction]]:
    """X with a*X = rhs, from one elimination of the augmented rows [a | rhs].

    Back-substitution runs on y = det*X, which is integral (Cramer), so every
    division in it is exact; X = y/det at the end.
    """
    n = len(a)
    rows, _ = _scaled([row + r for row, r in zip(a, rhs)])
    det, _ = _eliminate(rows, n)
    if det == 0:
        raise SingularMatrixError("matrix is singular")
    y: list = [None] * n
    for k in reversed(range(n)):
        row = rows[k]
        acc = [det * x for x in row[n:]]
        for j in range(k + 1, n):
            if row[j]:
                acc = [s - row[j] * v for s, v in zip(acc, y[j])]
        y[k] = [s // row[k] for s in acc]
    return [[Fraction(v, det) for v in yk] for yk in y]


def solve_linear(
    g: Sequence[Sequence[RationalLike]], b: Sequence[RationalLike]
) -> list[Fraction]:
    """Solve g*x = b exactly; g must be square and nonsingular.

    Raises SingularMatrixError when no unique solution exists, which upstream
    signals a non-contractible curve configuration.
    """
    a = _square(g)
    rhs = [Fraction(x) for x in b]
    if len(rhs) != len(a):
        raise ValueError(
            f"dimension mismatch: {len(a)}x{len(a)} matrix, vector of length {len(rhs)}"
        )
    return [x for x, in _solve(a, [[x] for x in rhs])]


def invert(g: Sequence[Sequence[RationalLike]]) -> list[list[Fraction]]:
    """Exact inverse of a square nonsingular matrix.

    One elimination of [g | I] and one back-substitution for all columns.
    """
    a = _square(g)
    return _solve(a, [[int(i == j) for j in range(len(a))] for i in range(len(a))])


def determinant(g: Sequence[Sequence[RationalLike]]) -> Fraction:
    """Exact determinant: det(L*g) / L**n from the fraction-free elimination."""
    rows, scale = _scaled(_square(g))
    return Fraction(_eliminate(rows, len(rows))[0], scale ** len(rows))


def is_negative_definite(g: Sequence[Sequence[RationalLike]]) -> bool:
    """Whether all n eigenvalues are negative, read from `signature`.

    A negative definite matrix meets no zero pivot, so this is Sylvester's
    criterion on the elimination's pivots: the k-th leading minor is nonzero
    and has sign (-1)^k.

    Input must be symmetric (raises ValueError otherwise).  The empty matrix
    is vacuously negative definite, so an empty contraction is always legal.
    """
    return signature(g)[1] == len(g)


def signature(g: Sequence[Sequence[RationalLike]]) -> tuple[int, int, int]:
    """Inertia (n_plus, n_minus, n_zero) of a symmetric rational matrix.

    Read off the symmetric elimination's pivots: a sign change between
    consecutive nonzero leading minors is one negative eigenvalue, a sign
    kept is one positive, and each index skipped with a zero trailing row and
    column is one zero eigenvalue.  The congruence at zero pivots handles
    zero leading minors (as on the quadric's hyperbolic plane [[0,1],[1,0]]).
    """
    rows, _ = _scaled(_square(g, symmetric=True))
    _, pivots = _eliminate(rows, len(rows), symmetric=True)
    signs = [p > 0 for p in pivots if p]
    minus = sum(s != t for s, t in zip([True] + signs, signs))
    return len(signs) - minus, minus, len(pivots) - len(signs)


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix, entries in row-major order."""

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative dimensions")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError(
                f"{self.rows}x{self.cols} matrix needs {self.rows * self.cols} "
                f"entries, got {len(self.entries)}"
            )
        if not all(isinstance(e, int) for e in self.entries):
            raise ValueError("entries must be integers")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "IntMatrix":
        rows = [list(r) for r in rows]
        ncols = len(rows[0]) if rows else 0
        return cls(len(rows), ncols, tuple(x for row in rows for x in row))

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, tuple(int(i == j) for i in range(n) for j in range(n)))

    def __getitem__(self, ij: tuple[int, int]) -> int:
        i, j = ij
        return self.entries[i * self.cols + j]

    def to_rows(self) -> list[list[int]]:
        return [
            list(self.entries[i * self.cols : (i + 1) * self.cols])
            for i in range(self.rows)
        ]

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in product")
        a, b = self.to_rows(), other.to_rows()
        prod = [
            [sum(a[i][k] * b[k][j] for k in range(self.cols)) for j in range(other.cols)]
            for i in range(self.rows)
        ]
        return IntMatrix.from_rows(prod) if prod else IntMatrix(0, other.cols, ())

    def determinant(self) -> int:
        """Fraction-free determinant (square matrices only)."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        return _eliminate(self.to_rows(), self.rows)[0]

    def diagonal(self) -> tuple[int, ...]:
        return tuple(self[i, i] for i in range(min(self.rows, self.cols)))


@dataclass(frozen=True)
class SnfDecomposition:
    """U*M*V = D with U, V unimodular and D in Smith normal form."""

    u: IntMatrix
    d: IntMatrix
    v: IntMatrix

    def invariant_factors(self) -> tuple[int, ...]:
        return tuple(x for x in self.d.diagonal() if x != 0)

    def rank(self) -> int:
        return len(self.invariant_factors())


def smith_normal_form(m: IntMatrix | Sequence[Sequence[int]]) -> SnfDecomposition:
    """Smith normal form with unimodular transforms tracked.

    Normalization: diagonal entries nonnegative, each dividing the next;
    pivoting always brings the smallest nonzero absolute value to the corner.
    The returned decomposition is self-validated (U*M*V = D, det U, det V
    in {1, -1}), so a bug here raises rather than propagating silently.
    """
    if not isinstance(m, IntMatrix):
        m = IntMatrix.from_rows(m)
    a = m.to_rows()
    nrows, ncols = m.rows, m.cols
    u = IntMatrix.identity(nrows).to_rows()
    v = IntMatrix.identity(ncols).to_rows()

    def row_op(i: int, k: int, q: int) -> None:  # row i -= q * row k
        a[i] = [x - q * y for x, y in zip(a[i], a[k])]
        u[i] = [x - q * y for x, y in zip(u[i], u[k])]

    def col_op(j: int, k: int, q: int) -> None:  # col j -= q * col k
        for row in a:
            row[j] -= q * row[k]
        for row in v:
            row[j] -= q * row[k]

    def swap_rows(i: int, k: int) -> None:
        a[i], a[k] = a[k], a[i]
        u[i], u[k] = u[k], u[i]

    def swap_cols(j: int, k: int) -> None:
        for row in a:
            row[j], row[k] = row[k], row[j]
        for row in v:
            row[j], row[k] = row[k], row[j]

    t = 0
    while t < min(nrows, ncols):
        # bring the smallest nonzero absolute value of the submatrix to (t, t)
        best = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        while True:
            i, j = best
            if i != t:
                swap_rows(i, t)
            if j != t:
                swap_cols(j, t)
            dirty = False
            for i in range(t + 1, nrows):
                if a[i][t] != 0:
                    row_op(i, t, a[i][t] // a[t][t])
                    dirty = dirty or a[i][t] != 0
            for j in range(t + 1, ncols):
                if a[t][j] != 0:
                    col_op(j, t, a[t][j] // a[t][t])
                    dirty = dirty or a[t][j] != 0
            if dirty:
                best = min(
                    ((i, j) for i in range(t, nrows) for j in range(t, ncols) if a[i][j] != 0),
                    key=lambda ij: abs(a[ij[0]][ij[1]]),
                )
                continue
            # pivot must divide the remaining submatrix for the divisor chain
            offender = next(
                (
                    (i, j)
                    for i in range(t + 1, nrows)
                    for j in range(t + 1, ncols)
                    if a[i][j] % a[t][t] != 0
                ),
                None,
            )
            if offender is None:
                break
            row_op(t, offender[0], -1)  # fold the offending row into the pivot row
            best = (t, t)
        t += 1

    for k in range(min(nrows, ncols)):
        if a[k][k] < 0:
            a[k] = [-x for x in a[k]]
            u[k] = [-x for x in u[k]]

    u_m = IntMatrix.from_rows(u) if u else IntMatrix(0, 0, ())
    v_m = IntMatrix.from_rows(v) if v else IntMatrix(0, 0, ())
    d_m = IntMatrix.from_rows(a) if a else IntMatrix(0, ncols, ())
    _validate_snf(m, u_m, d_m, v_m)
    return SnfDecomposition(u_m, d_m, v_m)


def _validate_snf(m: IntMatrix, u: IntMatrix, d: IntMatrix, v: IntMatrix) -> None:
    if u.rows and abs(u.determinant()) != 1:
        raise AssertionError("left transform is not unimodular")
    if v.rows and abs(v.determinant()) != 1:
        raise AssertionError("right transform is not unimodular")
    if (u @ m @ v).entries != d.entries:
        raise AssertionError("U*M*V != D")
    diag = d.diagonal()
    for i in range(d.rows):
        for j in range(d.cols):
            if i != j and d[i, j] != 0:
                raise AssertionError("D is not diagonal")
    if any(x < 0 for x in diag):
        raise AssertionError("D has a negative entry")
    for x, y in zip(diag, diag[1:]):
        if x != 0 and y % x != 0:
            raise AssertionError("divisibility chain broken")
        if x == 0 and y != 0:
            raise AssertionError("zero before nonzero on the diagonal")
