"""The graded determinant of purely even matrices: the product of classical
determinants of principal quasiminors, its LDU mirror, the extension to
nonzero degree, row reduction helpers, and the permutation coefficients of
the multilinear expansion in closed form, through conjugation by degree
units."""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass

from . import ringmat as rm
from .errors import DimensionNotAdmissibleError, SchemaError
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


def _unit_conjugate(alg, weights, grid):
    """Q X Q^-1 for Q = diag(q_i), q_i the degree unit of w_i + w_1 and w_i
    the weights of X's rows.  Entry (i, j) of X has degree w_i + w_j, so
    that of Y = Q X Q^-1 has degree 0; the shift by w_1 keeps every q_i even
    also for odd weights.  A blade q has q^2 = +-1, so q^-1 = q^3.

    For purely even X of degree 0, gdet(X) = det(Y):
    1. |D X D^-1|_ij = d_i |X|_ij d_j^-1 for diagonal D, blockwise too
       (Gelfand, Gelfand, Retakh and Wilson, Adv. Math. 193, 2005), so the
       UDL chain of Y is defined exactly where that of X is.
    2. Q is the scalar q_k on block k, and each quasiminor of the chain has
       degree-0 entries, which are central: Y's quasiminors are X's.
    3. Y lies over the commutative degree-0 part, where the product of the
       Schur-complement determinants is det(Y).
    4. Both sides are polynomials in the entries (arXiv:1109.5877) that agree
       on the nonempty Zariski-open set where the UDL chain is defined.
    """
    units = [_degree_unit(alg, w + weights[0]) for w in weights]
    inverses = [q ** 3 for q in units]
    return [[qi * x * qj_inv for x, qj_inv in zip(row, inverses)]
            for row, qi in zip(grid, units)]


def row_reduce_g(X: GradedMatrix, alpha: int, beta: int, lam) -> GradedMatrix:
    """G_{alpha beta}(lam) X: adds lam times row beta to row alpha from the
    left; the graded determinant is unchanged."""
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


# -- multilinear coefficients ---------------------------------------------------

MAX_PATTERN_DIMENSION = 5


def multilinear_coefficients(pattern: GradedMatrix) -> dict:
    """Coefficient c_sigma of every permutation monomial of gdet over a
    homogeneous pattern u: gdet(t_ij u_ij) over rational t is
    sum_sigma c_sigma prod_i t_{i sigma(i)}.  By gdet(X) = det(Q X Q^-1)
    (``_unit_conjugate``) and Leibniz's formula,
    c_sigma = sgn(sigma) prod_i q_i u_{i sigma(i)} q_{sigma(i)}^-1, whose
    degree-0 factors commute, whether an entry has one term or several.  A
    permutation through a zero entry gives 0 and forms no product.
    """
    grid, _ = _gdet_input(pattern)
    n = len(grid)
    if n > MAX_PATTERN_DIMENSION:
        raise ValueError(f"patterns are limited to |r| <= {MAX_PATTERN_DIMENSION}")
    ring = pattern.ring
    conj = _unit_conjugate(ring, pattern.row_ranks.weights, grid)
    out = {}
    for sigma in itertools.permutations(range(n)):
        factors = [conj[r][c] for r, c in enumerate(sigma)]
        sign = (-1) ** sum(a > b for a, b in itertools.combinations(sigma, 2))
        out[sigma] = (ring.zero() if any(f.is_zero for f in factors)
                      else math.prod(factors, start=ring.scalar(sign)))
    return out


def row_monomial_product(pattern: GradedMatrix, sigma) -> object:
    """The row-ordered product u_{1 sigma(1)} ... u_{n sigma(n)} of the
    pattern monomials; the change of basis between concrete coefficient
    tables and the abstract signed expansion."""
    acc = pattern.ring.one()
    for r, c in enumerate(sigma):
        acc = acc * pattern.entries[r][c]
    return acc


def normalized_coefficients(pattern: GradedMatrix) -> dict:
    """Coefficients on the row-ordered products rho_sigma of the pattern
    monomials: the rational s_sigma with c_sigma = rho_sigma s_sigma, and 0
    where rho_sigma is 0.  Where the products are invertible this is the
    sign table of the abstract expansion over a free graded-commutative
    realization.  Basis monomials commute up to sign and each q_i meets its
    inverse once in c_sigma, so c_sigma and rho_sigma lie on one basis
    monomial: s_sigma is c_sigma rho_sigma^-1 where rho_sigma is invertible
    and stays defined where it is nilpotent, as through a theta_1 theta_2
    entry.  A pattern entry with several terms is a ``SchemaError``.
    """
    table = multilinear_coefficients(pattern)
    if any(len(v.terms) > 1 for row in pattern.entries for v in row):
        raise SchemaError("normalized coefficients need basis monomials or zeros")
    ring = pattern.ring
    out = {}
    for sigma, c in table.items():
        rho = row_monomial_product(pattern, sigma)
        if rho.is_zero:
            out[sigma] = ring.zero()
        else:
            (key, r), = rho.terms.items()
            out[sigma] = ring.scalar(c.terms[key] / r)
    return out
