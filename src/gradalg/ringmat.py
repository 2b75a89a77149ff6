"""Dense matrix kernel over a noncommutative scalar ring.

Grids are lists of row lists whose entries support +, -, *, ``is_zero``,
``inverse()`` and ``_dot(xs, ys)``, the sum of x*y over ``zip(xs, ys)``
(``scalars.RingElement``).  Every dot product of ``mat_mul`` and of
Berkowitz's powers and moments is one ``_dot`` call on the row's first
entry, so the scalar ring accumulates the whole sum exactly and normalizes
once.  Exact elimination shares one pivot search, the first entry at or
below the diagonal that is nonzero and whose ``inverse()`` succeeds,
mirroring the formal regime in which all needed inverses are assumed to
exist.  ``mat_inverse`` runs Gauss-Jordan in place, on the pivots it would
meet on [A | I], and serves every block operation.  ``commutative_det``
eliminates forward on the same pivot search, multiplies the pivots it finds
and hands the block left at the first column without one to Berkowitz.
Every row update goes through ``_axpy``, which forms each entry x - f*y as
the two-pair dot 1*x + (-f)*y, so the scalar ring normalizes it once
instead of after the product and again after the difference.
``bareiss_nonsingular`` decides grids of Python ints without fractions.
"""

from __future__ import annotations

import math

from .errors import NotInvertibleError


def zeros(ring, rows: int, cols: int):
    z = ring.zero()
    return [[z for _ in range(cols)] for _ in range(rows)]


def identity(ring, size: int):
    g = zeros(ring, size, size)
    one = ring.one()
    for i in range(size):
        g[i][i] = one
    return g


def copy_grid(grid):
    return [row[:] for row in grid]


def mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_neg(a):
    return [[-x for x in row] for row in a]


def _dot(xs, ys):
    # None for an empty sum; the entries stop at the shorter side
    return xs[0]._dot(xs, ys) if xs and ys else None


def mat_mul(a, b):
    if a and b and len(a[0]) != len(b):
        raise ValueError(f"inner dimension mismatch: {len(a[0])} vs {len(b)}")
    cols = list(zip(*b))
    return [[_dot(row, col) for col in cols] for row in a]


def mat_scale_left(s, a):
    return [[s * x for x in row] for row in a]


def grids_equal(a, b) -> bool:
    if len(a) != len(b):
        return False
    for ra, rb in zip(a, b):
        if len(ra) != len(rb):
            return False
        if any(x != y for x, y in zip(ra, rb)):
            return False
    return True


def is_zero_grid(a) -> bool:
    return all(x.is_zero for row in a for x in row)


def submatrix(grid, del_rows, del_cols):
    del_rows = set(del_rows)
    del_cols = set(del_cols)
    return [[x for c, x in enumerate(row) if c not in del_cols]
            for r, row in enumerate(grid) if r not in del_rows]


def _axpy(row, nf, pivot):
    """row + nf * pivot entrywise, each entry one ``_dot`` call; nf is the
    negated multiplier, formed once per row."""
    one, dot = nf._one(), nf._dot
    return [dot((one, nf), (x, y)) for x, y in zip(row, pivot)]


def _pivot(a, col):
    """(row, inverse) of the first entry a[r][col], r >= col, that is nonzero
    and invertible; NotInvertibleError when the column offers none."""
    for r in range(col, len(a)):
        x = a[r][col]
        if x.is_zero:
            continue
        try:
            return r, x.inverse()
        except NotInvertibleError:
            continue
    raise NotInvertibleError(f"no invertible pivot in column {col}")


def mat_inverse(grid, ring):
    """Exact inverse by Gauss-Jordan in place, with invertible-pivot search.

    Raises NotInvertibleError when some column offers no invertible pivot;
    over a division-ring scalar this happens exactly for singular input.

    Step k swaps rows (P_k) and left-multiplies by L_k, the identity but in
    column k: piv_inv on the diagonal, -f piv_inv off it.  Input column k
    becomes e_k, so L_k's column k, the inverse's, is stored there.  Columns
    not yet eliminated take the same row operations as on [A | I], so the
    pivot search meets the same candidates.  The grid ends as A^-1 P_1...P_n:
    all row work is left multiplication, so by associativity over any ring
    the swaps, undone as column swaps in reverse order, leave A^-1.
    """
    n = len(grid)
    if any(len(row) != n for row in grid):
        raise ValueError("matrix must be square")
    a, swaps, zero = copy_grid(grid), [], ring.zero()
    for col in range(n):
        piv_row, piv_inv = _pivot(a, col)
        if piv_row != col:
            a[col], a[piv_row] = a[piv_row], a[col]
            swaps.append((col, piv_row))
        # the pivot entry becomes piv_inv, the diagonal of column col of L_k
        pivot = a[col] = [piv_inv if c == col else piv_inv * x for c, x in enumerate(a[col])]
        for r, row in enumerate(a):
            f = row[col]
            if r == col or f.is_zero:
                continue
            # with row[col] read as zero, the update writes -f * piv_inv there
            row[col] = zero
            a[r] = _axpy(row, -f, pivot)
    for col, p in reversed(swaps):
        for row in a:
            row[col], row[p] = row[p], row[col]
    return a


def bareiss_nonsingular(rows) -> bool:
    """True exactly when the square matrix of Python ints ``rows`` is
    nonsingular over Q, by Bareiss's fraction-free elimination (Math. Comp.
    22, 1968).

    Step k swaps up the first row with a nonzero entry in column k, then
    replaces each lower row r by (p * a[r] - a[r][k] * a[k]) / prev, with p
    the pivot and prev the pivot before it (1 at the first step).  That is
    the rational elimination step row_r - (a[r][k] / p) row_k scaled by the
    nonzero p / prev, so the zero pattern, the pivot rows and the answer are
    those of Gaussian elimination over Q: a column with no nonzero candidate
    occurs iff the matrix is singular.  By Sylvester's identity every entry
    is then a minor of the row-permuted input, so the division is exact and
    no entry outgrows the minors.
    """
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("matrix must be square")
    a = [list(row) for row in rows]
    prev = 1
    for k in range(n):
        r = next((r for r in range(k, n) if a[r][k]), None)
        if r is None:
            return False
        if r != k:
            a[k], a[r] = a[r], a[k]
        p, tail = a[k][k], a[k][k + 1:]
        for row in a[k + 1:]:
            f = row[k]
            row[k + 1:] = [(p * x - f * y) // prev for x, y in zip(row[k + 1:], tail)]
        prev = p
    return True


def commutative_det(grid, ring):
    """Determinant of a matrix with pairwise commuting entries (the degree-0
    diagonal quasiminors) by forward elimination on unit pivots, with
    Berkowitz's division-free algorithm on the trailing block left at the
    first column that offers no invertible pivot.

    The inverse of a unit commutes with everything the unit commutes with,
    so the entries, pivots and pivot inverses generate a commutative ring,
    where a row swap negates the determinant and adding a multiple of one
    row to another keeps it.  Elimination therefore leaves a block upper
    triangular matrix [[T, *], [0, B]] with T upper triangular on the pivots
    and det X = (-1)^swaps * prod(pivots) * det B.  It divides only by units,
    so it is exact in any commutative ring, nilpotent entries included.
    Below 3 x 3 no inverse is formed: 2 x 2 is the one dot a d + b (-c),
    and a smaller grid goes to Berkowitz.
    """
    n = len(grid)
    if any(len(row) != n for row in grid):
        raise ValueError("matrix must be square")
    if n == 2:
        return grid[0][0]._dot(grid[0], (grid[1][1], -grid[1][0]))
    if n < 2:
        return _berkowitz(grid, ring)
    a = copy_grid(grid)
    pivots, swaps = [], 0
    for col in range(n):
        try:
            piv_row, piv_inv = _pivot(a, col)
        except NotInvertibleError:
            pivots.append(_berkowitz([row[col:] for row in a[col:]], ring))
            break
        if piv_row != col:
            a[col], a[piv_row] = a[piv_row], a[col]
            swaps += 1
        pivot = a[col]
        pivots.append(pivot[col])
        if col + 1 == n:
            break
        neg_inv, tail = -piv_inv, pivot[col + 1:]
        for row in a[col + 1:]:
            if not row[col].is_zero:
                # entries left of col + 1 are never read again
                row[col + 1:] = _axpy(row[col + 1:], row[col] * neg_inv, tail)
    det = math.prod(pivots[1:], start=pivots[0])
    return -det if swaps & 1 else det


def _berkowitz(grid, ring):
    """Determinant of a square commuting grid by Berkowitz's division-free
    algorithm, Inf. Process. Lett. 18 (1984); nilpotent entries need no
    division.

    With M the leading k x k block, c and r the rest of column and row k and
    a the corner, det(tI + [[M, c], [r, a]]) is the polynomial part of
    det(tI + M) (t + a - sum_j (-1)^j (r M^j c) t^(-j-1)).
    """
    n = len(grid)
    if n == 0:
        return ring.one()
    # p[m - 1] is the coefficient of t^(k-m) in det(tI + M); the leading 1
    # stays implicit, so nothing is multiplied by it
    p = [grid[0][0]]
    for k in range(1, n):
        # M^j c for j < k; zip in _dot stops at column k
        powers = [[row[k] for row in grid[:k]]]
        for _ in range(k - 1):
            powers.append([_dot(row, powers[-1]) for row in grid[:k]])
        moments = [_dot(w, grid[k]) for w in powers]
        new = []
        # coefficient i is p_i + a p_(i-1) - sum_j (-1)^j (r M^j c) p_(i-2-j)
        # with p_0 = 1; the last step forms only i = n, the determinant
        for i in range(k + 1 if k == n - 1 else 1, k + 2):
            acc = grid[k][k] if i == 1 else p[i - 2] * grid[k][k]
            if i <= k:
                acc = p[i - 1] + acc
            for j in range(i - 1):
                term = moments[j] if j == i - 2 else moments[j] * p[i - 3 - j]
                acc = acc + term if j & 1 else acc - term
            new.append(acc)
        p = new
    return p[-1]
