"""The graded determinant of purely even matrices: the product of classical
determinants of principal quasiminors, its LDU mirror, the extension to
nonzero degree, row reduction helpers, and the interpolation oracle that
recovers permutation coefficients of the multilinear expansion."""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction

from . import ringmat as rm
from .errors import (DimensionNotAdmissibleError, GradAlgError, HomogeneityError,
                     OracleSamplingError)
from .grading import GroupElement
from .matrices import (GradedMatrix, mat_mul, redivide_2x2, require_homogeneous,
                       scalar_mul, unitriangular_g)
from .quasidet import _block_reverse, _check_partition, _schur_sweep


@dataclass(frozen=True)
class GdetResult:
    """Determinant value together with the block quasiminor determinants that
    produced it, in block order."""

    value: object
    factors: tuple


def gdet_blocks(grid, sizes, ring) -> GdetResult:
    """prod_k det |X^{1..k,1..k}|_{k+1,k+1} over the nonempty blocks.

    Entries of each diagonal quasiminor lie in the commutative degree-0 part,
    so the inner determinant is the classical one.  The quasiminors are the
    pivots of the Schur sweep over the block-reversed matrix, last block first.
    """
    sizes = _nonempty_blocks(grid, sizes)
    labels = range(len(sizes))[::-1]
    dets = _pivot_dets(_block_reverse(grid, sizes), sizes[::-1], ring, labels)[::-1]
    return GdetResult(math.prod(dets, start=ring.one()), dets)


def gdet_blocks_ldu(grid, sizes, ring) -> GdetResult:
    """The LDU route: prod_k det |X^{k+1..p,k+1..p}|_{kk} over leading
    principal submatrices; equals the UDL route wherever both are defined."""
    sizes = _nonempty_blocks(grid, sizes)
    dets = _pivot_dets(grid, sizes, ring, range(len(sizes)))
    return GdetResult(math.prod(dets, start=ring.one()), dets)


def _nonempty_blocks(grid, sizes):
    sizes = [s for s in sizes if s > 0]
    _check_partition(grid, sizes)
    return sizes


def _pivot_dets(grid, sizes, ring, labels):
    """det of every pivot of the Schur sweep, the leading block of each step."""
    return tuple(rm.commutative_det([row[:s] for row in S[:s]], ring)
                 for s, S in zip(sizes, _schur_sweep(grid, sizes, ring, labels)))


def _gdet_input(X: GradedMatrix):
    if not X.is_square:
        raise ValueError("determinant needs a square matrix")
    if not X.degree.is_zero:
        raise ValueError("gdet0 needs degree 0; use gdet_graded")
    if not X.row_ranks.is_purely_even:
        raise ValueError("graded determinant needs purely even ranks")
    require_homogeneous(X)
    return X.grid(), X.row_ranks.even_sizes


def gdet_certified(X: GradedMatrix, route: str = "udl") -> GdetResult:
    grid, sizes = _gdet_input(X)
    if route == "udl":
        return gdet_blocks(grid, sizes, X.ring)
    if route == "ldu":
        return gdet_blocks_ldu(grid, sizes, X.ring)
    raise ValueError(f"unknown route: {route}")


def gdet0(X: GradedMatrix):
    """Graded determinant of a degree-0 purely even matrix."""
    return gdet_certified(X, "udl").value


def gdet_ldu(X: GradedMatrix):
    """Graded determinant computed through the mirror decomposition."""
    return gdet_certified(X, "ldu").value


def gdet_graded(X: GradedMatrix, strict: bool = True):
    """Determinant of a homogeneous purely even matrix of any even degree.

    Factors X = q X0 with q the basis monomial of the declared degree and
    returns q^|r| gdet(X0); the value is independent of the chosen q.  For
    homogeneous X, Y of degrees x, y and n = |r| the exact law is
    gdet(XY) = (-1)^(<x,y> n(n-1)/2) gdet(X) gdet(Y): the sign is always +1
    when |r| is 0 or 1 mod 4, and at the other dimensions it is -1 exactly
    for factor degrees with odd scalar product.  Strict mode rejects those
    dimensions while lax mode warns and computes anyway.
    """
    if X.degree.is_zero:
        return gdet0(X)
    if not X.row_ranks.is_purely_even:
        raise ValueError("graded determinant needs purely even ranks")
    total = X.row_ranks.total
    if total % 4 in (2, 3):
        if strict:
            raise DimensionNotAdmissibleError(
                f"|r| = {total} is {total % 4} mod 4; nonzero-degree determinants "
                "are multiplicative there only up to the sign (-1)^(<x,y> n(n-1)/2), "
                "which is -1 for factor degrees with odd <x,y>")
        warnings.warn(
            f"nonzero-degree determinant at |r| = {total} is well-defined and "
            "multiplicative up to the sign (-1)^(<x,y> n(n-1)/2)", stacklevel=2)
    q = _degree_unit(X.ring, X.degree)
    X0 = scalar_mul(q.inverse(), X)
    return (q ** total) * gdet0(X0)


def _degree_unit(alg, degree: GroupElement):
    """The canonical invertible basis monomial of a given even degree: the
    Clifford blade whose generator set reads off the first n coordinates."""
    if degree.parity != 0:
        raise ValueError("purely even matrices carry even degrees")
    mask = degree.mask & ((1 << alg.n) - 1)
    blade = alg.blade(mask)
    if alg.monomial_degree(mask, 0) != degree:
        raise ValueError(f"degree {degree} is not realized by a Clifford blade")
    return blade


def row_reduce_g(X: GradedMatrix, alpha: int, beta: int, lam) -> GradedMatrix:
    """G_{alpha beta}(lam) X: adds lam times row beta to row alpha from the
    left; the graded determinant is unchanged."""
    if alpha == beta:
        raise ValueError("row reduction needs alpha != beta")
    w = X.row_ranks.weight(alpha) + X.row_ranks.weight(beta)
    if not lam.is_zero and lam.degree() != w:
        raise HomogeneityError("reduction scalar must have degree w_alpha + w_beta")
    g = unitriangular_g(alpha, beta, lam, X.row_ranks, X.ring)
    return mat_mul(g, X)


def elementary_sandwich_check(X: GradedMatrix, Y: GradedMatrix):
    """Both sides of gdet(I + frak_X12 frak_Y21) = gdet(I + frak_Y21 frak_X12)
    under the even-halves redivision; one of the two factors must be
    elementary (at most one nonzero entry)."""
    return _sandwich_check(X, Y, "even_halves", rm.mat_add)


def _sandwich_check(X, Y, mode, combine):
    """gdet(combine(I, X12 Y21)) and gdet(I + Y21 X12) under the ``mode``
    redivision, each over the blocks of its rows."""
    a = redivide_2x2(X, mode).x12
    b = redivide_2x2(Y, mode).x21
    if not (_is_elementary(a) or _is_elementary(b)):
        raise ValueError("one off-diagonal factor must be elementary")
    lhs_grid = combine(rm.identity(X.ring, a.shape[0]), rm.mat_mul(a.grid(), b.grid()))
    rhs_grid = rm.mat_add(rm.identity(X.ring, b.shape[0]), rm.mat_mul(b.grid(), a.grid()))
    return (gdet_blocks(lhs_grid, a.row_ranks.ranks, X.ring).value,
            gdet_blocks(rhs_grid, b.row_ranks.ranks, X.ring).value)


def _is_elementary(M: GradedMatrix) -> bool:
    return sum(1 for row in M.entries for v in row if not v.is_zero) <= 1


# -- multilinear coefficient oracle ---------------------------------------------

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
           67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137,
           139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199)

MAX_ORACLE_DIMENSION = 5
# Shifted generic fills the oracle tries per permutation.
ORACLE_FILLS = 8


def multilinear_coefficients(pattern: GradedMatrix) -> dict:
    """Coefficient c_sigma of every permutation monomial of gdet over a
    pattern of basis scalars.

    Writing x_{i sigma(i)} = t_{i sigma(i)} u_{i sigma(i)} with the pattern
    entries u, the determinant is a polynomial sum_sigma c_sigma prod_i
    t_{i sigma(i)}.  Each c_sigma is recovered by evaluating the determinant
    at t = indicator(sigma) + eps * fill for |r|+1 rational eps values and
    interpolating to eps = 0, which is sound because the determinant is
    multilinear per row.  Undefined samples trigger a shifted generic fill.
    A permutation through a zero pattern entry has coefficient 0 unsampled.
    """
    grid, sizes = _gdet_input(pattern)
    n = len(grid)
    if n > MAX_ORACLE_DIMENSION:
        raise ValueError(f"oracle patterns are limited to |r| <= {MAX_ORACLE_DIMENSION}")
    for row in grid:
        for v in row:
            if len(v.terms) > 1:
                raise ValueError("pattern entries must be basis monomials or zero")
    out = {}
    for sigma in itertools.permutations(range(n)):
        out[sigma] = _interpolated_coefficient(grid, sizes, pattern.ring, sigma)
    return out


def _interpolated_coefficient(grid, sizes, ring, sigma):
    n = len(grid)
    if any(grid[r][c].is_zero for r, c in enumerate(sigma)):
        # the monomial carries a zero pattern entry, so it cannot occur
        return ring.zero()
    npoints = n + 1
    for attempt in range(ORACLE_FILLS):
        fill = [[_PRIMES[(r * n + c + attempt) % len(_PRIMES)] for c in range(n)]
                for r in range(n)]
        samples = []
        eps = 0
        while len(samples) < npoints and eps < 4 * npoints:
            eps += 1
            e = Fraction(eps)
            trial = [[grid[r][c] * (Fraction(1 if sigma[r] == c else 0) + e * fill[r][c])
                      for c in range(n)] for r in range(n)]
            try:
                val = gdet_blocks(trial, sizes, ring).value
            except GradAlgError:
                continue
            samples.append((e, val))
        if len(samples) >= npoints:
            return _lagrange_at_zero(samples[:npoints], ring)
    raise OracleSamplingError(
        f"could not collect {npoints} defined samples for permutation {sigma}")


def _lagrange_at_zero(samples, ring):
    total = ring.zero()
    for t, (et, vt) in enumerate(samples):
        weight = Fraction(1)
        for s, (es, _) in enumerate(samples):
            if s != t:
                weight *= (-es) / (et - es)
        total = total + vt * weight
    return total


def row_monomial_product(pattern: GradedMatrix, sigma) -> object:
    """The row-ordered product u_{1 sigma(1)} ... u_{n sigma(n)} of the
    pattern monomials; the change of basis between concrete coefficient
    tables and the abstract signed expansion."""
    acc = pattern.ring.one()
    for r, c in enumerate(sigma):
        acc = acc * pattern.entries[r][c]
    return acc


def normalized_coefficients(pattern: GradedMatrix) -> dict:
    """Coefficients on the row-ordered products of the pattern monomials:
    c_sigma scaled by the inverse of the monomial product.  For patterns whose
    permutation products are invertible this is the sign table of the abstract
    expansion over a free graded-commutative realization."""
    coeffs = multilinear_coefficients(pattern)
    out = {}
    for sigma, c in coeffs.items():
        rho = row_monomial_product(pattern, sigma)
        if rho.is_zero:
            out[sigma] = pattern.ring.zero()
        else:
            out[sigma] = c * rho.inverse()
    return out
