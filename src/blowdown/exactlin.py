"""Exact rational and integer linear algebra.

Everything in this module (and the package) is exact: rational entries are
`fractions.Fraction`, integer entries are arbitrary-precision `int`.  There is
no floating point and no tolerance anywhere; equality checks are bit-exact.

`_eliminate`, one dense fraction-free (Bareiss 1968) forward elimination,
serves only the dense tools `determinant`, `is_negative_definite`,
`signature`, `solve_linear` and `invert`; neither the contraction (one sparse
elimination per block, in `blowdown.contraction`) nor the class group runs
them.  Rational input is first scaled by one common positive denominator L,
which keeps symmetry and inertia and gives det(g) = det(L*g) / L**n.  Its
pivots are the leading principal minors, so they give the determinant (the
last pivot), negative definiteness (Sylvester) and inertia (Jacobi: sign
changes between consecutive minors); carried right-hand columns and one
back-substitution give `solve_linear` and `invert`.

Class groups, the quotient of Z^n by the rows of M, come from two integer
eliminations and a merge, and each step checks its own result, so a bug
raises rather than giving a wrong group:

* `sparse_pivot_pass` eliminates, on the sparse rows of M, every pivot that
  divides its row and its column (every +-1 is one), in an approximate
  Markowitz order (Dumas, Saunders and Villard 2001).  Its certificate:
  U*M = A and U*U^-1 = I over the sparse rows, so |det U| = 1 without a
  determinant; the pivot rows form a triangular block with d_t on its
  diagonal and d_t divides its row; every non-pivot row is zero on the pivot
  columns.  So M is equivalent to diag(d_t) plus the non-pivot rows on the
  other columns.  `PivotPass.split` gives the |d_t| and, as the remainder,
  the nonzero non-pivot rows, sparse and renumbered onto the columns they
  meet; every other column is a free summand.  Extra rows need no pass over
  M again: `split(extra)` writes each in the pass's basis W (A = (D + R)*W)
  as the b with a = b*W, checks sum b[c_t]*W[c_t] + r = a in sparse integers,
  and adds b, less its unit-pivot columns, and the {c_t: d_t} rows it meets
  to the remainder, on which the same chain runs again.
* `smith_normal_form` takes the remainder, which is small: one loop that
  swaps the smallest nonzero entry of the trailing block to the corner,
  reduces its row and column by it, and folds in a row the pivot does not
  divide, applying each operation's inverse to U^-1 and V^-1.  `_validate_snf`
  checks U*U^-1 = I and V*V^-1 = I (so |det U| = |det V| = 1, as for the
  pass), U*M*V = D and the divisor chain.  It also serves direct callers.
* `divisor_chain` merges the factors of both into divisor-chain form by
  gcd/lcm exchanges, each checked in integers: x*a + y*b = g with g > 0
  dividing a and b implies U*diag(a, b)*V = diag(g, lcm), det U = det V = 1.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import NamedTuple, Sequence

from .errors import SingularMatrixError, _Frozen

RationalLike = int | Fraction


def _square(
    g: Sequence[Sequence[RationalLike]], symmetric: bool = False
) -> list[list[Fraction]]:
    rows = [[Fraction(x) for x in row] for row in g]
    n = len(rows)
    for i, row in enumerate(rows):
        if len(row) != n:
            raise ValueError(f"matrix is not square: {n} rows, row {i} of length {len(row)}")
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


class IntMatrix(_Frozen):
    """Immutable integer matrix, entries in row-major order."""

    __slots__ = _fields = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: tuple[int, ...]) -> None:
        if rows < 0 or cols < 0:
            raise ValueError("negative dimensions")
        if len(entries) != rows * cols:
            raise ValueError(
                f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(entries)}"
            )
        if not all(isinstance(e, int) for e in entries):
            raise ValueError("entries must be integers")
        self.rows, self.cols, self.entries = rows, cols, entries

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "IntMatrix":
        rows = [list(r) for r in rows]
        ncols = len(rows[0]) if rows else 0
        return cls(len(rows), ncols, tuple(x for row in rows for x in row))

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
        columns = [other.entries[j :: other.cols] for j in range(other.cols)]
        return IntMatrix(self.rows, other.cols, tuple(
            sum(map(operator.mul, row, col)) for row in self.to_rows() for col in columns
        ))

    def diagonal(self) -> tuple[int, ...]:
        return tuple(self[i, i] for i in range(min(self.rows, self.cols)))


class SnfDecomposition(NamedTuple):
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

    One loop fills the diagonal from (0, 0).  Each pass picks the nonzero
    entry of smallest absolute value in the trailing submatrix (the first in
    row-major order on a tie), swaps it to the corner and reduces its column
    and row by it.  A remainder starts the next pass with a smaller pivot; a
    trailing entry the pivot does not divide has its row folded into the
    pivot row, so the next pass reduces it; otherwise the corner is final.
    Normalization: diagonal entries nonnegative, each dividing the next.
    Each operation's inverse is applied to U^-1 and V^-1, carried beside U and
    V, so the returned decomposition is self-validated (U*M*V = D, U*U^-1 = I,
    V*V^-1 = I, D diagonal and a divisor chain): a bug here raises.
    """
    if not isinstance(m, IntMatrix):
        m = IntMatrix.from_rows(m)
    a = m.to_rows()
    nrows, ncols = m.rows, m.cols
    # U and V^-1 are kept by rows, U^-1 and V by columns, so that every
    # operation and its inverse replace whole lists
    u, u_inv, v, v_inv = _identity(nrows), _identity(nrows), _identity(ncols), _identity(ncols)

    def row_op(i: int, k: int, q: int) -> None:  # row i -= q * row k
        a[i] = [x - q * y for x, y in zip(a[i], a[k])]
        u[i] = [x - q * y for x, y in zip(u[i], u[k])]
        u_inv[k] = [x + q * y for x, y in zip(u_inv[k], u_inv[i])]

    def col_op(j: int, k: int, q: int) -> None:  # col j -= q * col k
        for row in a:
            row[j] -= q * row[k]
        v[j] = [x - q * y for x, y in zip(v[j], v[k])]
        v_inv[k] = [x + q * y for x, y in zip(v_inv[k], v_inv[j])]

    t = 0
    while t < min(nrows, ncols):
        smallest = min((abs(x) for row in a[t:] for x in row[t:] if x), default=None)
        if smallest is None:
            break
        i, j = next((i, j) for i in range(t, nrows) for j in range(t, ncols) if abs(a[i][j]) == smallest)
        for seq, other in ((a, i), (u, i), (u_inv, i), (v, j), (v_inv, j), *((row, j) for row in a)):
            seq[t], seq[other] = seq[other], seq[t]  # rows t and i, columns t and j
        for i in range(t + 1, nrows):
            if a[i][t]:
                row_op(i, t, a[i][t] // a[t][t])
        for j in range(t + 1, ncols):
            if a[t][j]:
                col_op(j, t, a[t][j] // a[t][t])
        if any(a[i][t] for i in range(t + 1, nrows)) or any(a[t][t + 1 :]):
            continue
        # the pivot must divide the trailing block for the divisor chain
        offender = next(
            (i for i in range(t + 1, nrows) if any(x % a[t][t] for x in a[i][t + 1 :])), None
        )
        if offender is None:
            t += 1
        else:
            row_op(t, offender, -1)  # fold the offending row into the pivot row

    for k in range(min(nrows, ncols)):
        if a[k][k] < 0:
            for rows in (a, u, u_inv):
                rows[k] = [-x for x in rows[k]]

    u_m, v_m = IntMatrix.from_rows(u), IntMatrix.from_rows(list(zip(*v)))
    d_m = IntMatrix.from_rows(a) if a else IntMatrix(0, ncols, ())
    u_inverse = IntMatrix.from_rows(list(zip(*u_inv))) if nrows else u_m  # empty: its own inverse
    v_inverse = IntMatrix.from_rows(v_inv) if ncols else v_m
    _validate_snf(m, u_m, d_m, v_m, u_inverse, v_inverse)
    return SnfDecomposition(u_m, d_m, v_m)


def _identity(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


#: A sparse integer row: {column: nonzero entry}.
SparseRow = dict[int, int]


def _subtract(target: SparseRow, q: int, source: SparseRow) -> list[int]:
    """target -= q*source in place, keeping only nonzero entries; returns the
    columns where target gained or lost an entry."""
    changed = []
    for j, x in source.items():
        if y := target.get(j, 0) - q * x:
            if j not in target:
                changed.append(j)
            target[j] = y
        else:
            del target[j]
            changed.append(j)
    return changed


def _combination(coeffs: SparseRow, rows: Sequence[SparseRow]) -> SparseRow:
    """The sparse row sum of coeffs[k] * rows[k]."""
    acc: SparseRow = {}
    for k, c in coeffs.items():
        for j, x in rows[k].items():
            acc[j] = acc.get(j, 0) + c * x
    return {j: x for j, x in acc.items() if x}


class PivotPass(NamedTuple):
    """U*M = A from exact integer row operations on the sparse rows of M.

    ``matrix`` is M and ``rows`` is A, one row per row of M; ``u`` and
    ``u_inverse`` are the rows of U and of its integer inverse.  ``pivots``
    lists (row, column) in pivot order: pivot t sits at A[row][column] = d_t,
    d_t divides its whole row, the row is zero on the columns of earlier
    pivots, and every non-pivot row is zero on all pivot columns.  So
    A = (D + R)*W, with D = diag(d_t) on the pivot columns, R the non-pivot
    rows on the other columns, and W the unimodular matrix whose row at the
    column of pivot t is that pivot's row divided by d_t and whose other rows
    are those of the identity (triangular in pivot order, with 1 on its
    diagonal).
    """

    matrix: tuple[SparseRow, ...]
    rows: tuple[SparseRow, ...]
    u: tuple[SparseRow, ...]
    u_inverse: tuple[SparseRow, ...]
    pivots: tuple[tuple[int, int], ...]

    def split(self, extra: Sequence[SparseRow] = ()) -> tuple[tuple[int, ...], list[SparseRow], int]:
        """(factors, rows, ncols) with M and the ``extra`` rows equivalent to
        diag(factors) plus the remainder ``rows`` plus zero columns.  Each extra
        row is written as its b in the basis W (`_in_w_basis`); the remainder is
        the nonzero non-pivot rows of A, a {c_t: d_t} row for each non-unit pivot
        that some b meets, and the nonzero b, renumbered onto the ``ncols``
        columns they meet, in order; the factors are the |d_t| of the other
        pivots.  Every other column is a free summand of the quotient."""
        done = {p for p, _ in self.pivots}
        reduced = [b for a in extra if (b := self._in_w_basis(a))]
        met = {c for b in reduced for c in b}
        rows = [row for i, row in enumerate(self.rows) if row and i not in done]
        rows += [{c: self.rows[p][c]} for p, c in self.pivots if c in met] + reduced
        cols = {j: k for k, j in enumerate(sorted({j for row in rows for j in row}))}
        factors = tuple(abs(self.rows[p][c]) for p, c in self.pivots if c not in met)
        return factors, [{cols[j]: x for j, x in row.items()} for row in rows], len(cols)

    def _in_w_basis(self, a: SparseRow) -> SparseRow:
        """b with a = b*W, less its entries on unit-pivot columns (zero in the
        quotient): from r = a, in pivot order, b[c_t] = r[c_t] and r -= b[c_t]*W[c_t]
        (W[c_t] = A[p_t]/d_t), and b is r on the other columns.  Checked in sparse
        integers before use: sum b[c_t]*W[c_t] + r = a, and r meets no pivot column."""
        a = {j: x for j, x in a.items() if x}
        r, terms = dict(a), []
        for p, c in self.pivots:
            if q := r.get(c):
                row = self.rows[p]
                _subtract(r, q, {j: x // row[c] for j, x in row.items()})
                terms.append((p, c, q))
        total = dict(r)
        for p, c, q in terms:
            for j, x in self.rows[p].items():
                total[j] = total.get(j, 0) + q * x // self.rows[p][c]
        if {j: x for j, x in total.items() if x} != a or any(c in r for _, c in self.pivots):
            raise AssertionError("extra row: b*W + r != a, or r meets a pivot column")
        return {c: q for p, c, q in terms if abs(self.rows[p][c]) != 1} | r


def sparse_pivot_pass(rows: Sequence[SparseRow], ncols: int) -> PivotPass:
    """Eliminate pivots of the sparse integer rows of M (Dumas, Saunders and
    Villard, J. Symbolic Comput. 32, 2001), then certify the result.

    A pivot is a live entry d that divides every entry of its row and of its
    column, so every +-1 is one.  Pivots are taken in an approximate
    Markowitz order: each round visits the live rows by length, shortest
    first, and takes in each row the candidate whose column has the fewest
    live entries (trying the columns in that order, so a long column is
    tested for divisibility only when no shorter one qualifies), which
    bounds the fill-in by
    (row length - 1)*(column length - 1).  The pivot's column is cleared from
    the other live rows by exact row operations, and the pivot row leaves the
    live set.  A row with no candidate waits for the next round; the pass
    ends with a round that pivots nothing.  See `PivotPass` for the result
    and `_certify_pivot_pass` for the checks it passes before it is returned.
    """
    matrix = tuple({j: x for j, x in row.items() if x} for row in rows)
    if any(not 0 <= j < ncols for row in matrix for j in row):
        raise ValueError(f"column index outside 0..{ncols - 1}")
    a = [dict(row) for row in matrix]
    u = [{i: 1} for i in range(len(a))]
    u_inverse = [{i: 1} for i in range(len(a))]
    live: dict[int, set[int]] = {}  # column -> the live rows nonzero there
    for i, row in enumerate(a):
        for j in row:
            live.setdefault(j, set()).add(i)
    pivots: list[tuple[int, int]] = []
    done: set[int] = set()
    progress = True
    while progress:
        progress = False
        for p in sorted((i for i, row in enumerate(a) if row and i not in done),
                        key=lambda i: len(a[i])):
            row = a[p]
            if not row:  # cancelled earlier in this round
                continue
            g = math.gcd(*row.values())
            candidates = sorted((j for j, x in row.items() if abs(x) == g), key=lambda j: len(live[j]))
            c = next((j for j in candidates if g == 1 or all(a[k][j] % g == 0 for k in live[j])), None)
            if c is None:
                continue
            pivots.append((p, c))
            done.add(p)
            progress = True
            for j in row:
                live[j].discard(p)
            for i in list(live[c]):
                q = a[i][c] // row[c]
                for j in _subtract(a[i], q, row):
                    if j in a[i]:
                        live.setdefault(j, set()).add(i)
                    else:
                        live[j].discard(i)
                _subtract(u[i], q, u[p])
                u_inverse[i][p] = q
    result = PivotPass(matrix, tuple(a), tuple(u), tuple(u_inverse), tuple(pivots))
    _certify_pivot_pass(result)
    return result


def _certify_pivot_pass(pp: PivotPass) -> None:
    """Check a pivot pass, raising AssertionError on failure.

    U*M = A and U*U^-1 = I row by row over the sparse rows, which with integer
    U and U^-1 proves |det U| = 1; the pivot rows form a triangular block with
    d_t on its diagonal and d_t divides its row; every non-pivot row is zero
    on the pivot columns.
    """
    m, a, u, u_inverse = pp.matrix, pp.rows, pp.u, pp.u_inverse
    if not len(m) == len(a) == len(u) == len(u_inverse):
        raise AssertionError("pivot pass rows of different counts")
    for i in range(len(a)):
        if _combination(u[i], m) != a[i]:
            raise AssertionError("U*M != A")
        if _combination(u[i], u_inverse) != {i: 1}:
            raise AssertionError("U*U^-1 != I")
    order = {j: t for t, (_, j) in enumerate(pp.pivots)}
    pivot_rows = {i for i, _ in pp.pivots}
    if len(order) != len(pp.pivots) or len(pivot_rows) != len(pp.pivots):
        raise AssertionError("pivots share a row or a column")
    for t, (i, j) in enumerate(pp.pivots):
        d = a[i].get(j, 0)
        if d == 0 or any(x % d for x in a[i].values()):
            raise AssertionError("pivot is zero or does not divide its row")
        if any(order.get(k, t) < t for k in a[i]):
            raise AssertionError("pivot rows are not triangular")
    for i in range(len(a)):
        if i not in pivot_rows and any(j in order for j in a[i]):
            raise AssertionError("a non-pivot row meets a pivot column")


def divisor_chain(factors: Sequence[int]) -> tuple[int, ...]:
    """The nonzero invariant factors of diag(factors), in divisor-chain form.

    Sorted by size, then each pair a, b with a not dividing b (a earlier) is
    exchanged for gcd, lcm: Z/a + Z/b = Z/gcd + Z/lcm.  Each exchange checks
    x*a + y*b = g with g > 0 dividing a and b, which implies the Bezout pair
    U*diag(a, b)*V = diag(g, lcm) with det U = det V = 1 (see `_exchange`).
    """
    f = sorted(abs(x) for x in factors if x)
    if all(b % a == 0 for a, b in zip(f, f[1:])):  # already a chain: nothing to exchange
        return tuple(f)
    for i in range(f.count(1), len(f)):  # a leading 1 divides everything
        for j in range(i + 1, len(f)):
            if f[j] % f[i]:
                f[i], f[j] = _exchange(f[i], f[j])
    return tuple(f)


def _exchange(a: int, b: int) -> tuple[int, int]:
    """(gcd, lcm) of a, b > 0 from x*a + y*b = g (extended Euclid), checked: with
    g > 0 dividing a and b, U = [[x, y], [-b/g, a/g]] and V = [[1, -y*b/g],
    [1, x*a/g]] are integral, det U = det V = 1 and U*diag(a, b)*V = diag(g, lcm)."""
    (g, x, y), (r, x1, y1) = (a, 1, 0), (b, 0, 1)
    while r:
        q = g // r
        (g, x, y), (r, x1, y1) = (r, x1, y1), (g - q * r, x - q * x1, y - q * y1)
    if not (g > 0 and x * a + y * b == g and a % g == 0 and b % g == 0):
        raise AssertionError("gcd/lcm exchange: x*a + y*b != g or g does not divide a and b")
    return g, a // g * b


def _validate_snf(m: IntMatrix, u: IntMatrix, d: IntMatrix, v: IntMatrix,
                  u_inverse: IntMatrix, v_inverse: IntMatrix) -> None:
    """Check U*M*V = D with D in Smith normal form, raising AssertionError on failure.
    Integral U*U^-1 = I and V*V^-1 = I prove |det U| = |det V| = 1, as in
    `_certify_pivot_pass` (an empty transform is skipped); given U*U^-1 = I,
    U*M*V = D is checked as M*V = U^-1*D, a product that keeps M's small entries."""
    diag = d.diagonal()
    if any(d[i, j] for i in range(d.rows) for j in range(d.cols) if i != j):
        raise AssertionError("D is not diagonal")
    if any(x < 0 for x in diag):
        raise AssertionError("D has a negative entry")
    for x, y in zip(diag, diag[1:]):
        if x != 0 and y % x != 0:
            raise AssertionError("divisibility chain broken")
        if x == 0 and y != 0:
            raise AssertionError("zero before nonzero on the diagonal")
    if u.rows and (u @ u_inverse).to_rows() != _identity(u.rows):
        raise AssertionError("U*U^-1 != I")
    if v.rows and (v @ v_inverse).to_rows() != _identity(v.rows):
        raise AssertionError("V*V^-1 != I")
    if (m @ v).entries != (u_inverse @ d).entries:
        raise AssertionError("U*M*V != D")
