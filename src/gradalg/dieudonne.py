"""Classical Dieudonne determinant of quaternionic matrices.  Its square is
Study's determinant, the ordinary determinant of the complex image, which
uses no quasiminors and so serves as an independent oracle for the absolute
value of the graded determinant.  Predeterminants, chained quasiminor
products whose norm is independent of the deletion order, give the same
norm wherever their chain is defined."""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

from .matrices import GradedMatrix
from .quasidet import quasidet
from .ringmat import commutative_det
from .scalars import Algebra, Element


def _require_quaternionic(alg):
    if (alg.p, alg.q) != (0, 2) or alg.num_odd:
        raise ValueError("Dieudonne determinants live over the quaternions")


def quat_conj(a: Element) -> Element:
    """Quaternionic conjugation: negate the i, j, k components."""
    _require_quaternionic(a.algebra)
    return Element(a.algebra,
                   {k: (v if k[0] == 0 else -v) for k, v in a.terms.items()})


def quat_norm_sq(a: Element) -> Fraction:
    """||a||^2 = a conj(a), always a rational."""
    prod = a * quat_conj(a)
    if not prod.is_rational():
        raise ValueError("norm square failed to collapse to a rational")
    return prod.scalar_part()


def _as_grid(X):
    if isinstance(X, GradedMatrix):
        _require_quaternionic(X.ring)
        return X.grid(), X.ring
    raise TypeError("expected a GradedMatrix over the quaternions")


def predeterminant(X, rows=None, cols=None) -> Element:
    """D_IJ(X) = |X|_{i1 j1} |X^{i1:j1}|_{i2 j2} ... x_{iN jN}.

    ``rows`` and ``cols`` are 0-based permutations; identity by default.  The
    t-th factor is the quasiminor at the surviving position of (i_t, j_t)
    after the earlier rows and columns have been deleted.  Factors multiply in
    chain order.
    """
    grid, ring = _as_grid(X)
    n = len(grid)
    rows = list(range(n)) if rows is None else list(rows)
    cols = list(range(n)) if cols is None else list(cols)
    if sorted(rows) != list(range(n)) or sorted(cols) != list(range(n)):
        raise ValueError("row and column orders must be permutations")
    live_rows = list(range(n))
    live_cols = list(range(n))
    work = grid
    acc = ring.one()
    for i, j in zip(rows, cols):
        r = live_rows.index(i)
        c = live_cols.index(j)
        acc = acc * quasidet(work, r, c, ring)
        live_rows.pop(r)
        live_cols.pop(c)
        work = [[work[a][b] for b in range(len(work)) if b != c]
                for a in range(len(work)) if a != r]
    return acc


def _complex_image(q: Element, C: Algebra):
    """The block [[z, w], [-conj(w), conj(z)]] of q = z + w j with z = a + b i
    and w = c + d i; in Cl_{0,2}, i = e2, j = e1 and k = -e1 e2."""
    a, b, c, e12 = (q.terms.get((mask, 0), Fraction(0)) for mask in (0, 2, 1, 3))
    d = -e12

    def cx(re, im):
        return Element(C, {(0, 0): re, (1, 0): im})

    return ((cx(a, b), cx(c, d)), (cx(-c, d), cx(a, -b)))


def ddet_squared(X) -> Fraction:
    """||D(X)||^2 as an exact rational: Study's determinant, the determinant
    of the 2n x 2n complex image of X over C = Cl_{0,1}; 0 exactly when X is
    singular."""
    grid, _ = _as_grid(X)
    C = Algebra(0, 1)
    image = []
    for row in grid:
        blocks = [_complex_image(q, C) for q in row]
        image.extend([x for blk in blocks for x in blk[half]] for half in (0, 1))
    det = commutative_det(image, C)
    if not det.is_rational():
        raise ValueError("Study determinant failed to collapse to a rational")
    return det.scalar_part()


def ddet(X) -> Fraction:
    """The Dieudonne determinant when its square is a perfect rational square;
    otherwise compare squared values via ddet_squared."""
    sq = ddet_squared(X)
    root = Fraction(isqrt(sq.numerator), isqrt(sq.denominator))
    if root * root != sq:
        raise ValueError("Dieudonne determinant is irrational; use ddet_squared")
    return root
