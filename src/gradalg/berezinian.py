"""The graded Berezinian of invertible degree-0 matrices, the invertibility
test on residues mod the nilpotent ideal, and the Liouville identity over a
nilpotent extension."""

from __future__ import annotations

from functools import lru_cache
from math import lcm

from . import ringmat as rm
from .errors import NotInvertibleError, RegularityError
from .matrices import GradedMatrix, RankVector, matrix_inverse, require_homogeneous
from .determinant import (_degree_unit, _sandwich_check, _unit_conjugate, gdet_blocks,
                          gdet_blocks_ldu)
from .scalars import Element
from .series import NilpotentPoly, SeriesRing, nilpotent_exp
from .trace import gtr


def _gdet_either_route(grid, sizes, ring):
    """Both quasiminor chains compute the same polynomial; falling back to the
    mirror route when the first one hits a non-regular principal submatrix
    widens the computable domain."""
    try:
        return gdet_blocks(grid, sizes, ring).value
    except RegularityError:
        return gdet_blocks_ldu(grid, sizes, ring).value


def is_invertible0(X: GradedMatrix) -> bool:
    """True iff both parity-diagonal blocks are invertible modulo the odd
    ideal, which characterizes invertibility of a degree-0 matrix.

    Each corner is reduced entrywise to its residue (``RingElement.residue``:
    zeta -> 0 on a series, then mod the odd ideal).  Forward elimination on
    the residue grid with the pivot search of ``mat_inverse`` gives the
    answer of the same elimination on the corner itself, so it is whether
    ``invert0`` would succeed:

    - the residue map is a ring homomorphism, as a composite of two quotient
      maps, so it commutes with every row update;
    - an entry is invertible exactly when its residue is (``Element.inverse``
      and ``NilpotentPoly.inverse`` refuse exactly when the stripped constant
      term is zero or not invertible), so an entry whose residue is zero is
      never a pivot on either side;
    - a row update whose multiplier has a zero residue leaves the reduced row
      unchanged, which is the reduced side skipping that row.

    So, column by column, the reduced grid stays the residue of the full
    one, and both meet the same candidates and pick the same pivots.  Over
    A[zeta] no series inverse or series product is formed.

    That elimination is decided on integers.  Every even degree d is carried
    by exactly one blade b_d, so in a corner with weights w_i the residue of
    a homogeneous entry reads c_ij b_(w_i + w_j) with c_ij rational: the
    degree law.  Conjugation by the corner's degree units Q = diag(q_i)
    (``determinant._unit_conjugate``) takes each blade to a degree-0 sign
    S_ij = +-1, so the residue R satisfies Q R Q^-1 = S o C.  Follow the
    elimination on R with A_rc = q_pi(r) a_rc q_c^-1, where pi tracks the
    row swaps, so A starts as S o C.  While A is rational, every nonzero
    a_rc = q_pi(r)^-1 A_rc q_c is a unit, so ``_pivot`` takes the first
    nonzero candidate, as Gaussian elimination over Q does; and the update
    a_r - a_rk a_kk^-1 a_k conjugates to A_r - (A_rk / A_kk) A_k, which keeps
    A rational with the same zero pattern as R.  Hence the elimination on R
    finds a pivot in every column iff S o C is nonsingular over Q.  Scaling
    each row by a positive integer that clears its denominators keeps that,
    and ``ringmat.bareiss_nonsingular`` decides it on Python ints, forming
    no scalar inverse or product.  A corner with an entry off the law (several
    residue terms, or the wrong blade) is eliminated over its residues by
    ``ringmat.is_nonsingular``.

    The two corners are cut straight from the entries at the parity split,
    and the smaller one is tested first.  The answer is the conjunction of
    both tests, so their order cannot change it; a rejection sampler gains,
    because the cheaper test also rejects often (over extended H at ranks
    (1,1,1,1,1,1,0,0), 3000 draws at seed 5: the 2x2 odd corner 59%, the
    4x4 even corner 48%).
    """
    _require_degree0(X)
    rows = X.entries
    return all(_corner_nonsingular([row[lo:hi] for row in rows[lo:hi]], law)
               for lo, hi, law in _corner_laws(getattr(X.ring, "base", X.ring), X.row_ranks))


def _corner_nonsingular(corner, law) -> bool:
    ints = None if law is None else [_signed_row(row, r_law) for row, r_law in zip(corner, law)]
    if ints is None or None in ints:
        return rm.is_nonsingular([[v.residue() for v in row] for row in corner])
    return rm.bareiss_nonsingular(ints)


@lru_cache(maxsize=None)
def _corner_laws(alg, ranks):
    """(lo, hi, law) for the two parity corners, the smaller first.  law[i][j]
    is (k, S_ij): the basis index k of the blade b_(w_i + w_j) and the sign
    q_i b_k q_j^-1 of ``is_invertible0``; law is None when the algebra has
    no degree unit for the corner's weights."""
    n = ranks.total
    split = ranks.offsets[len(ranks.ranks) // 2]
    # the reduced matrix is block diagonal; eliminating on the full grid
    # would carry the zero off-diagonal blocks through every row operation
    corners = ((0, split), (split, n)) if split <= n - split else ((split, n), (0, split))
    return tuple((lo, hi, _degree_law(alg, ranks.weights[lo:hi])) for lo, hi in corners)


def _degree_law(alg, weights):
    try:
        blades = [[_degree_unit(alg, wi + wj) for wj in weights] for wi in weights]
        signs = _unit_conjugate(alg, weights, blades)
    except ValueError:
        return None
    return tuple(tuple((next(iter(b._num)), int(s.scalar_part())) for b, s in zip(brow, srow))
                 for brow, srow in zip(blades, signs))


def _signed_row(entries, row_law):
    """One row of S o C cleared of denominators, or None when an entry's
    residue is not a multiple of its blade.

    An Element's residue is its terms below index 2^n over its own
    denominator, read here from ``_num`` without building the residue; that
    fraction need not be reduced, which scales the row by a positive
    rational and keeps its singularity."""
    nums, dens = [], []
    for v, (k, sign) in zip(entries, row_law):
        if not isinstance(v, Element):
            v = v.residue()
        num = v._num
        c = num.get(k, 0)
        # numerators are never 0, so the law holds iff num is {} or {k: c}
        # once the odd terms (indices 2^n and up) are left out
        if len(num) != (c != 0):
            size = 1 << v.algebra.n
            if any(i != k and i < size for i in num):
                return None
        nums.append(sign * c)
        dens.append(v._den)
    den = lcm(*dens)
    return nums if den == 1 else [c * (den // d) for c, d in zip(nums, dens)]


def invert0(X: GradedMatrix) -> GradedMatrix:
    """Inverse of an invertible degree-0 matrix through the elimination kernel.

    The residue map is a ring homomorphism and an entry is invertible exactly
    when its residue is, so elimination picks the same pivots on X as on its
    residue and succeeds exactly when is_invertible0 holds; the nilpotent lift
    happens inside each pivot's inverse().
    """
    _require_degree0(X)
    return matrix_inverse(X)


def gber(X: GradedMatrix):
    """gdet(|X|_11) gdet(X_22)^{-1} under the parity redivision.

    The unique group homomorphism from invertible degree-0 matrices to the
    units of the commutative degree-0 scalars; on purely even matrices it
    degenerates to the graded determinant.
    """
    _require_degree0(X)
    require_homogeneous(X)
    if not is_invertible0(X):
        raise NotInvertibleError("graded Berezinian needs an invertible matrix")
    even_sizes = [s for s in X.row_ranks.even_sizes if s > 0]
    odd_sizes = [s for s in X.row_ranks.odd_sizes if s > 0]
    if not odd_sizes:
        return _gdet_either_route(X.grid(), even_sizes, X.ring)
    split, odd_ranks = _odd_corner(X.row_ranks)
    top, bottom = X.entries[:split], X.entries[split:]
    x22 = [list(row[split:]) for row in bottom]
    x22_inv = invert0(GradedMatrix(X.ring, odd_ranks, odd_ranks, X.degree, x22)).grid()
    if even_sizes:
        # each entry x - x12_r (x22^-1 x21)_c is one dot of (1, x12_r) with
        # (x, -(x22^-1 x21)_c), as in block_quasidet; zip stops at x11
        neg_cols = list(zip(*rm.mat_mul(rm.mat_neg(x22_inv), [row[:split] for row in bottom])))
        one = X.ring.one()
        lhs = [[one, *row[split:]] for row in top]
        corner = [[one._dot(x12, (x, *col)) for x, col in zip(row, neg_cols)]
                  for row, x12 in zip(top, lhs)]
        num = _gdet_either_route(corner, even_sizes, X.ring)
    else:
        num = X.ring.one()
    den = _gdet_either_route(x22, odd_sizes, X.ring)
    return num * den.inverse()


@lru_cache(maxsize=None)
def _odd_corner(ranks):
    """The parity split that cuts the corners from the entries, and x22's ranks."""
    half = len(ranks.ranks) // 2
    return ranks.offsets[half], RankVector(ranks.m, (0,) * half + ranks.ranks[half:])


def odd_sandwich_check(X: GradedMatrix, Y: GradedMatrix):
    """Both sides of gdet(I - X12 Y21) = gdet(I + Y21 X12) under the parity
    redivision, with one elementary odd factor; the sign flip against the
    even-halves identity comes from the oddness of the off-blocks."""
    return _sandwich_check(X, Y, "parity", rm.mat_sub)


# -- Liouville formula ------------------------------------------------------


def series_matrix(X: GradedMatrix, sring: SeriesRing, shift: int = 0) -> GradedMatrix:
    """Lift X into the truncated polynomial ring, multiplied by zeta^shift."""
    if getattr(X.ring, "base", None) is not None:
        raise ValueError("matrix is already series-valued")
    if sring.base != X.ring:
        raise ValueError("series ring must extend the matrix ring")
    pad = (X.ring.zero(),) * shift
    grid = [[NilpotentPoly(sring, pad + (v,)) for v in row] for row in X.entries]
    return GradedMatrix(sring, X.row_ranks, X.col_ranks, X.degree, grid)


def matrix_exp_zeta(X: GradedMatrix, sring: SeriesRing) -> GradedMatrix:
    """exp(zeta X) = sum_k zeta^k X^k / k!, exact in the truncated ring."""
    _require_degree0(X)
    n = X.row_ranks.total
    powers = [rm.identity(X.ring, n)]
    fact = 1
    coeff_grids = [powers[0]]
    for k in range(1, sring.order):
        powers.append(rm.mat_mul(powers[-1], X.grid()))
        fact *= k
        coeff_grids.append(rm.mat_scale_left(X.ring.scalar(1) / fact, powers[-1]))
    grid = [[NilpotentPoly(sring, (coeff_grids[k][i][j] for k in range(sring.order)))
             for j in range(n)] for i in range(n)]
    return GradedMatrix(sring, X.row_ranks, X.col_ranks, X.degree, grid)


def liouville_check(X: GradedMatrix, order: int = 6):
    """Both sides of gber(exp(zeta X)) = exp(gtr(zeta X)) in A[zeta]/(zeta^K).

    exp(zeta X) is congruent to the identity mod zeta, hence always lands in
    the invertible degree-0 matrices.
    """
    _require_degree0(X)
    sring = SeriesRing(X.ring, order)
    lhs = gber(matrix_exp_zeta(X, sring))
    zx = series_matrix(X, sring, shift=1)
    rhs = nilpotent_exp(gtr(zx))
    return lhs, rhs


def _require_degree0(X: GradedMatrix):
    if not X.is_square:
        raise ValueError("square matrix required")
    if not X.degree.is_zero:
        raise ValueError("degree-0 matrix required")
