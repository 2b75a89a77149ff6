"""Quasideterminants and block UDL/LDU decompositions over a ring with an
inversion oracle.

A block partition is a tuple of positive sizes summing to the matrix
dimension, with blocks numbered consecutively.  All block arithmetic runs
through the flat elimination kernel with block-aware index maps, and both
decompositions and both determinant routes eliminate blocks through one
forward Schur sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

from .errors import NotInvertibleError, RegularityError, SubmatrixNotInvertibleError
from . import ringmat as rm


def quasidet(grid, i: int, j: int, ring):
    """|X|_{ij} = x_{ij} - r_i^j (X^{i,j})^{-1} c_j^i for square X.

    Defined whenever the complementary submatrix X^{i,j} is invertible, even
    if X itself is singular.
    """
    n = len(grid)
    if any(len(row) != n for row in grid):
        raise ValueError("quasideterminant needs a square matrix")
    return block_quasidet(grid, (1,) * n, i, j, ring)[0][0]


def block_quasidet(grid, sizes, k: int, u: int, ring):
    """Block-valued quasiminor |X|_{ku}: X_{ku} - R (X^{k,u})^{-1} C.

    The diagonal blocks of the partition must be square overall; the corner
    block X_{ku} itself may be rectangular.  Returns an r_k x s_u grid.
    """
    p = len(sizes)
    if not (0 <= k < p and 0 <= u < p):
        raise IndexError("block index out of range")
    off = list(accumulate(sizes, initial=0))
    rows_k = range(off[k], off[k + 1])
    cols_u = range(off[u], off[u + 1])
    corner = [[grid[r][c] for c in cols_u] for r in rows_k]
    if p == 1:
        return corner
    sub = rm.submatrix(grid, rows_k, cols_u)
    try:
        inv = rm.mat_inverse(sub, ring)
    except NotInvertibleError as exc:
        raise SubmatrixNotInvertibleError(
            f"block submatrix X^{{{k},{u}}} is not invertible") from exc
    rest_cols = [c for c in range(len(grid)) if c not in cols_u]
    rest_rows = [r for r in range(len(grid)) if r not in rows_k]
    R = [[grid[r][c] for c in rest_cols] for r in rows_k]
    C = [[grid[r][c] for c in cols_u] for r in rest_rows]
    return rm.mat_sub(corner, rm.mat_mul(R, rm.mat_mul(inv, C)))


def invert_2x2_block(grid, sizes, ring):
    """Inverse of a 2x2 block matrix ((y, d), (f, z)) via the corner formula
    built on z^{-1} and (y - d z^{-1} f)^{-1}."""
    if len(sizes) != 2:
        raise ValueError("expected a 2-block partition")
    off = list(accumulate(sizes, initial=0))
    if off[2] != len(grid):
        raise ValueError("partition does not match the matrix dimension")
    y = [row[: off[1]] for row in grid[: off[1]]]
    d = [row[off[1]:] for row in grid[: off[1]]]
    f = [row[: off[1]] for row in grid[off[1]:]]
    z = [row[off[1]:] for row in grid[off[1]:]]
    z_inv = rm.mat_inverse(z, ring)
    schur = rm.mat_sub(y, rm.mat_mul(d, rm.mat_mul(z_inv, f)))
    h = rm.mat_inverse(schur, ring)
    top_left = h
    top_right = rm.mat_neg(rm.mat_mul(h, rm.mat_mul(d, z_inv)))
    bottom_left = rm.mat_neg(rm.mat_mul(z_inv, rm.mat_mul(f, h)))
    bottom_right = rm.mat_add(
        z_inv, rm.mat_mul(z_inv, rm.mat_mul(f, rm.mat_mul(h, rm.mat_mul(d, z_inv)))))
    return _assemble([[top_left, top_right], [bottom_left, bottom_right]])


def invert_3block(grid, sizes, ring):
    """Inverse of W = ((A,0,B),(C,D,E),(F,0,G)) with zero (1,2) and (3,2)
    blocks, through D^{-1} and the inverse of the corner matrix ((A,B),(F,G))."""
    if len(sizes) != 3:
        raise ValueError("expected a 3-block partition")
    off = list(accumulate(sizes, initial=0))
    if off[3] != len(grid):
        raise ValueError("partition does not match the matrix dimension")

    def block(i, j):
        return [row[off[j]: off[j + 1]] for row in grid[off[i]: off[i + 1]]]

    if not (rm.is_zero_grid(block(0, 1)) and rm.is_zero_grid(block(2, 1))):
        raise ValueError("blocks (1,2) and (3,2) must vanish")
    A, B = block(0, 0), block(0, 2)
    C, D, E = block(1, 0), block(1, 1), block(1, 2)
    F, G = block(2, 0), block(2, 2)
    corner = _assemble([[A, B], [F, G]])
    corner_inv = rm.mat_inverse(corner, ring)
    s1, s3 = sizes[0], sizes[2]
    Ap = [row[:s1] for row in corner_inv[:s1]]
    Bp = [row[s1:] for row in corner_inv[:s1]]
    Fp = [row[:s1] for row in corner_inv[s1:]]
    Gp = [row[s1:] for row in corner_inv[s1:]]
    D_inv = rm.mat_inverse(D, ring)
    mid_left = rm.mat_neg(rm.mat_mul(D_inv, rm.mat_add(rm.mat_mul(C, Ap), rm.mat_mul(E, Fp))))
    mid_right = rm.mat_neg(rm.mat_mul(D_inv, rm.mat_add(rm.mat_mul(C, Bp), rm.mat_mul(E, Gp))))
    z12 = rm.zeros(ring, s1, sizes[1])
    z32 = rm.zeros(ring, s3, sizes[1])
    return _assemble([[Ap, z12, Bp], [mid_left, D_inv, mid_right], [Fp, z32, Gp]])


def _assemble(blocks):
    out = []
    for block_row in blocks:
        height = len(block_row[0])
        for r in range(height):
            row = []
            for blk in block_row:
                row.extend(blk[r])
            out.append(row)
    return out


@dataclass(frozen=True)
class TriangularFactors:
    """Unitriangular factors with the block-diagonal middle, plus the
    inverse-free companions: X = frak_u D^{-1} frak_l for the UDL order and
    X = frak_l D^{-1} frak_u for the LDU order."""

    U: list
    D: list
    L: list
    frak_u: list
    frak_l: list


def udl_decompose(grid, sizes, ring) -> TriangularFactors:
    """Block UDL decomposition: X = U D L with U upper and L lower
    unitriangular and D_kk the principal quasiminor |X^{1..k-1,1..k-1}|_{kk}.

    Requires the trailing principal submatrices to be invertible; the
    smallest one that is not is reported by name.  Reversing the block order
    turns a UDL factorization into an LDU one, and both are unique, so this
    is the LDU decomposition of the block-reversed matrix, reversed back.
    """
    _check_partition(grid, sizes)
    rsizes = sizes[::-1]
    f = _ldu(_block_reverse(grid, sizes), rsizes, ring, range(len(sizes))[::-1])
    return TriangularFactors(*(_block_reverse(M, rsizes)
                               for M in (f.L, f.D, f.U, f.frak_l, f.frak_u)))


def ldu_decompose(grid, sizes, ring) -> TriangularFactors:
    """Mirror decomposition X = L D U with D_kk the quasiminor of the leading
    k-block principal submatrix at its last block."""
    return _ldu(grid, sizes, ring, range(len(sizes)))


def _ldu(grid, sizes, ring, labels) -> TriangularFactors:
    """X = L D U read off the Schur sweep: the leading block row and block
    column of S_t are block row t of frak_u = D U and block column t of
    frak_l = L D, and their corner is D_tt."""
    _check_partition(grid, sizes)
    n = len(grid)
    U, L = rm.identity(ring, n), rm.identity(ring, n)
    D, frak_u, frak_l = (rm.zeros(ring, n, n) for _ in range(3))
    a = 0
    for s, S in zip(sizes, _schur_sweep(grid, sizes, ring, labels)):
        top, left = S[:s], [row[:s] for row in S]
        _paste(frak_u, a, a, top)
        _paste(frak_l, a, a, left)
        _paste(D, a, a, left[:s])
        if a + s < n:
            pivot_inv = rm.mat_inverse(left[:s], ring)
            _paste(U, a, a + s, rm.mat_mul(pivot_inv, [row[s:] for row in top]))
            _paste(L, a + s, a, rm.mat_mul(left[s:], pivot_inv))
        a += s
    return TriangularFactors(U, D, L, frak_u, frak_l)


def _paste(grid, r, c, block):
    """Overwrite ``grid`` with ``block`` from position (r, c)."""
    for i, row in enumerate(block):
        grid[r + i][c:c + len(row)] = row


def _schur_sweep(grid, sizes, ring, labels):
    """[S_0 = X, S_1, ...]: S_{t+1} is the Schur complement of the leading
    block of S_t.  By heredity that leading block is the quasiminor of the
    leading t+1 blocks of X at its last block, and it is the only submatrix
    inverted.  ``labels`` are the input's 0-based block numbers of the blocks
    of ``grid``, for naming a pivot that fails to invert.
    """
    steps = [grid]
    for t, s in enumerate(sizes[:-1]):
        try:
            steps.append(block_quasidet(steps[-1], (s, len(steps[-1]) - s), 1, 1, ring))
        except NotInvertibleError as exc:
            # deleting blocks a..b, numbered from 1, leaves the failed pivot's
            # principal submatrix
            a, b = min(labels[t + 1:]) + 1, max(labels[t + 1:]) + 1
            name = f"X^{{{a}..{b},{a}..{b}}}"
            raise RegularityError(f"principal block submatrix {name} is not invertible",
                                  principal=name) from exc
    return steps


def _block_reverse(grid, sizes):
    """The matrix with its block rows and block columns in reverse order."""
    off = list(accumulate(sizes, initial=0))
    order = [i for k in reversed(range(len(sizes))) for i in range(off[k], off[k + 1])]
    return [[grid[r][c] for c in order] for r in order]


def _check_partition(grid, sizes):
    if any(s <= 0 for s in sizes):
        raise ValueError("block sizes must be positive")
    if sum(sizes) != len(grid):
        raise ValueError("partition does not match the matrix dimension")
