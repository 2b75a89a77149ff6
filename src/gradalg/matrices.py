"""Homogeneous graded matrices: block structure over a rank vector indexed by
the standard order, the signed scalar action, products, elementary matrices,
graded commutators and the 2x2 redivisions."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from . import ringmat as rm
from .errors import HomogeneityError
from .grading import GroupElement, StandardOrder, standard_order
from .scalars import Element


@dataclass(frozen=True)
class RankVector:
    """Block dimensions (r_1, ..., r_p), one per standard-order degree."""

    m: int
    ranks: tuple

    def __post_init__(self):
        object.__setattr__(self, "ranks", tuple(int(r) for r in self.ranks))
        if len(self.ranks) != 1 << self.m:
            raise ValueError(
                f"rank vector needs {1 << self.m} components for arity {self.m}")
        if any(r < 0 for r in self.ranks):
            raise ValueError("ranks must be nonnegative")

    @staticmethod
    def from_even_half(m: int, evens) -> "RankVector":
        evens = tuple(int(r) for r in evens)
        if len(evens) != 1 << (m - 1):
            raise ValueError("even half has wrong length")
        return RankVector(m, evens + (0,) * len(evens))

    @property
    def order(self) -> StandardOrder:
        return standard_order(self.m)

    @property
    def total(self) -> int:
        return sum(self.ranks)

    @cached_property
    def offsets(self) -> tuple:
        out = [0]
        for r in self.ranks:
            out.append(out[-1] + r)
        return tuple(out)

    def weight(self, flat: int) -> GroupElement:
        """w_alpha: the degree labelling the block that owns a flat index."""
        if not 0 <= flat < self.total:
            raise IndexError("flat index out of range")
        return self.weights[flat]

    @cached_property
    def weights(self) -> tuple:
        """``weight(i)`` for every flat index i."""
        order = self.order
        return tuple(order[k] for k, r in enumerate(self.ranks) for _ in range(r))

    @property
    def is_purely_even(self) -> bool:
        half = len(self.ranks) // 2
        return all(r == 0 for r in self.ranks[half:])

    @property
    def even_sizes(self) -> tuple:
        return self.ranks[: len(self.ranks) // 2]

    @property
    def odd_sizes(self) -> tuple:
        return self.ranks[len(self.ranks) // 2:]


@dataclass(frozen=True)
class GradedMatrix:
    """A homogeneous matrix of declared degree over a graded scalar ring.

    ``entries`` is a dense row-major tuple of tuples; block (k,u) holds the
    rows of block k against the columns of block u and its entries must be
    zero or homogeneous of degree w_k + w_u + degree.
    """

    ring: object
    row_ranks: RankVector
    col_ranks: RankVector
    degree: GroupElement
    entries: tuple

    def __post_init__(self):
        if self.row_ranks.m != self.col_ranks.m or self.degree.m != self.row_ranks.m:
            raise ValueError("grading arity mismatch between ranks and degree")
        rows = self.row_ranks.total
        cols = self.col_ranks.total
        ent = tuple(tuple(row) for row in self.entries)
        if len(ent) != rows or any(len(r) != cols for r in ent):
            raise ValueError(f"entry grid must be {rows}x{cols}")
        object.__setattr__(self, "entries", ent)

    # -- shape -------------------------------------------------------------

    @property
    def is_square(self) -> bool:
        return self.row_ranks == self.col_ranks

    @property
    def shape(self):
        return (self.row_ranks.total, self.col_ranks.total)

    def grid(self):
        return [list(row) for row in self.entries]

    def with_entries(self, grid, degree=None) -> "GradedMatrix":
        return GradedMatrix(self.ring, self.row_ranks, self.col_ranks,
                            degree if degree is not None else self.degree, grid)

    # -- operator sugar ------------------------------------------------------

    def __add__(self, other):
        return mat_add(self, other)

    def __sub__(self, other):
        return mat_add(self, mat_neg(other))

    def __neg__(self):
        return mat_neg(self)

    def __mul__(self, other):
        if isinstance(other, GradedMatrix):
            return mat_mul(self, other)
        return NotImplemented

    def __eq__(self, other):
        if not isinstance(other, GradedMatrix):
            return NotImplemented
        if (self.ring, self.row_ranks, self.col_ranks) != (other.ring, other.row_ranks, other.col_ranks):
            return False
        if self.entries == other.entries:
            # zero matrices compare equal whatever their declared degrees
            return self.degree == other.degree or rm.is_zero_grid(self.grid())
        return False

    __hash__ = None

    @property
    def is_zero(self) -> bool:
        return rm.is_zero_grid(self.grid())

    @cached_property
    def _homogeneous(self) -> bool:
        return _degree_law_holds(self)

    def __str__(self):
        body = "\n".join("  [" + ", ".join(str(x) for x in row) + "]" for row in self.entries)
        return f"GradedMatrix(degree={self.degree}, ranks={self.row_ranks.ranks})\n{body}"


# -- basic constructors --------------------------------------------------------


def zero_matrix(ring, ranks: RankVector, degree: GroupElement = None,
                col_ranks: RankVector = None) -> GradedMatrix:
    col_ranks = col_ranks or ranks
    deg = degree if degree is not None else GroupElement.zero(ranks.m)
    return GradedMatrix(ring, ranks, col_ranks, deg,
                        rm.zeros(ring, ranks.total, col_ranks.total))


def identity_matrix(ring, ranks: RankVector) -> GradedMatrix:
    return GradedMatrix(ring, ranks, ranks, GroupElement.zero(ranks.m),
                        rm.identity(ring, ranks.total))


def _ring_of(scalar):
    return getattr(scalar, "algebra", None) or scalar.ring


def elementary(alpha: int, beta: int, lam, ranks: RankVector, ring=None) -> GradedMatrix:
    """E_{alpha beta}(lam): lam at the flat position (alpha, beta), zero
    elsewhere.  Declared degree is w_alpha + w_beta + deg(lam)."""
    ring = ring if ring is not None else _ring_of(lam)
    n = ranks.total
    if not (0 <= alpha < n and 0 <= beta < n):
        raise IndexError("entry index out of range")
    w = ranks.weight(alpha) + ranks.weight(beta)
    if not lam.is_zero:
        d = lam.degree()
        if d is None:
            raise HomogeneityError("elementary matrix needs a homogeneous scalar")
        w = w + d
    grid = rm.zeros(ring, n, n)
    grid[alpha][beta] = lam
    return GradedMatrix(ring, ranks, ranks, w, grid)


def unitriangular_g(alpha: int, beta: int, lam, ranks: RankVector, ring=None) -> GradedMatrix:
    """G_{alpha beta}(lam) = I + E_{alpha beta}(lam) for alpha != beta; lam must
    carry degree w_alpha + w_beta so that G has degree zero."""
    if alpha == beta:
        raise ValueError("G-form needs alpha != beta")
    ring = ring if ring is not None else _ring_of(lam)
    if lam.is_zero:
        return identity_matrix(ring, ranks)
    if lam.degree() != ranks.weight(alpha) + ranks.weight(beta):
        raise HomogeneityError("scalar degree must equal w_alpha + w_beta")
    out = identity_matrix(ring, ranks).grid()
    out[alpha][beta] = lam
    return GradedMatrix(ring, ranks, ranks, GroupElement.zero(ranks.m), out)


# -- structure checks ----------------------------------------------------------


def check_homogeneous(X: GradedMatrix) -> bool:
    """True iff every entry is zero or homogeneous of its block-law degree;
    the verdict is cached on the frozen matrix, so each is checked once."""
    return X._homogeneous


def _degree_law_holds(X: GradedMatrix) -> bool:
    # one pass over each Element's basis indices; other entries use degree()
    m = X.degree.m
    alg = degrees = None
    # w_r + w_c + degree as masks, since (Z2)^m adds by XOR; the weights are
    # looked up once per row and column
    col_masks = [w.mask for w in X.col_ranks.weights]
    for row, wr in zip(X.entries, X.row_ranks.weights):
        target = wr.mask ^ X.degree.mask
        for v, wc in zip(row, col_masks):
            if isinstance(v, Element):
                if v.algebra is not alg:
                    alg = v.algebra
                    degrees = alg._degrees if alg.arity == m else None
                want = target ^ wc
                for i in v._num:
                    if degrees is None or degrees[i].mask != want:
                        return False
                continue
            if v.is_zero:
                continue
            d = v.degree()
            if d is None or d.m != m or d.mask ^ wc != target:
                return False
    return True


def require_homogeneous(X: GradedMatrix):
    if not check_homogeneous(X):
        raise HomogeneityError("matrix violates the block degree law")


# -- arithmetic ------------------------------------------------------------------


def mat_add(X: GradedMatrix, Y: GradedMatrix) -> GradedMatrix:
    _same_module(X, Y)
    if X.degree != Y.degree:
        # adding an all-zero matrix is allowed whatever its declared degree
        if X.is_zero:
            return Y.with_entries(rm.mat_add(X.grid(), Y.grid()))
        if Y.is_zero:
            return X.with_entries(rm.mat_add(X.grid(), Y.grid()))
        raise ValueError("matrix sum needs equal degrees")
    return X.with_entries(rm.mat_add(X.grid(), Y.grid()))


def mat_neg(X: GradedMatrix) -> GradedMatrix:
    return X.with_entries(rm.mat_neg(X.grid()))


def mat_mul(X: GradedMatrix, Y: GradedMatrix) -> GradedMatrix:
    if X.ring != Y.ring:
        raise ValueError("scalar ring mismatch")
    if X.col_ranks != Y.row_ranks:
        raise ValueError("rank mismatch in matrix product")
    return GradedMatrix(X.ring, X.row_ranks, Y.col_ranks, X.degree + Y.degree,
                        rm.mat_mul(X.grid(), Y.grid()))


def scalar_mul(a, X: GradedMatrix) -> GradedMatrix:
    """The graded module action: block row k picks up (-1)^<deg a, w_k> a."""
    if a.is_zero:
        return zero_matrix(X.ring, X.row_ranks, X.degree, X.col_ranks)
    d = a.degree()
    if d is None:
        raise HomogeneityError("scalar action needs a homogeneous scalar")
    grid = []
    for r, row in enumerate(X.entries):
        sign = d.pair(X.row_ranks.weight(r))
        if sign:
            grid.append([-(a * v) for v in row])
        else:
            grid.append([a * v for v in row])
    return GradedMatrix(X.ring, X.row_ranks, X.col_ranks, X.degree + d, grid)


def commutator(X: GradedMatrix, Y: GradedMatrix) -> GradedMatrix:
    """[X,Y] = XY - (-1)^<deg X, deg Y> YX for homogeneous square matrices."""
    if X.row_ranks != Y.row_ranks or not X.is_square or not Y.is_square:
        raise ValueError("commutator needs square matrices over equal ranks")
    xy = mat_mul(X, Y)
    yx = mat_mul(Y, X)
    if X.degree.pair(Y.degree):
        return mat_add(xy, yx)
    return mat_add(xy, mat_neg(yx))


def mat_pow(X: GradedMatrix, k: int) -> GradedMatrix:
    if k < 0:
        raise ValueError("negative powers go through matrix_inverse")
    acc = identity_matrix(X.ring, X.row_ranks)
    for _ in range(k):
        acc = mat_mul(acc, X)
    return acc


def matrix_inverse(X: GradedMatrix) -> GradedMatrix:
    """Inverse through the elimination kernel; the degree is unchanged since
    each degree is its own opposite."""
    if not X.is_square:
        raise ValueError("only square matrices invert")
    inv = rm.mat_inverse(X.grid(), X.ring)
    return X.with_entries(inv)


def decompose_elementary(X: GradedMatrix):
    """Write X as the signed sum of scalar multiples of E_{alpha beta}.

    Returns [(sign, entry, alpha, beta)] with X equal to the sum of
    sign * scalar_mul(entry, E_{alpha beta}(1)); the signs follow
    (-1)^<w_a + w_b + deg X, w_a>."""
    out = []
    for a, row in enumerate(X.entries):
        for b, v in enumerate(row):
            if v.is_zero:
                continue
            w = X.row_ranks.weight(a) + X.col_ranks.weight(b) + X.degree
            sign = -1 if w.pair(X.row_ranks.weight(a)) else 1
            out.append((sign, v, a, b))
    return out


# -- redivisions -----------------------------------------------------------------


@dataclass(frozen=True)
class Redivision:
    """The four corners of a 2x2 block redivision."""

    x11: GradedMatrix
    x12: GradedMatrix
    x21: GradedMatrix
    x22: GradedMatrix


def redivide_2x2(X: GradedMatrix, mode: str = "parity") -> Redivision:
    """Cut X into 2x2 blocks.

    mode "parity" separates even-degree blocks from odd ones (the Berezinian
    redivision); mode "even_halves" splits the even blocks of a purely even
    matrix into their first and second standard-order halves.
    """
    if not X.is_square:
        raise ValueError("redivision needs a square matrix")
    ranks = X.row_ranks
    p = len(ranks.ranks)
    if mode == "parity":
        cut = p // 2
    elif mode == "even_halves":
        if not ranks.is_purely_even:
            raise ValueError("even_halves redivision needs purely even ranks")
        if ranks.m < 2:
            raise ValueError("even_halves redivision needs arity >= 2")
        cut = p // 4
    else:
        raise ValueError(f"unknown redivision mode: {mode}")
    split = ranks.offsets[cut]

    def select(zero_out_from, zero_out_to):
        sel = list(ranks.ranks)
        for k in range(zero_out_from, zero_out_to):
            sel[k] = 0
        return RankVector(ranks.m, sel)

    top = select(cut, p)
    bottom = select(0, cut)
    grid = X.grid()
    n = len(grid)

    def corner(rr, cc, rows, cols):
        sub = [[grid[r][c] for c in cols] for r in rows]
        return GradedMatrix(X.ring, rr, cc, X.degree, sub)

    rows_top, rows_bot = range(split), range(split, n)
    return Redivision(
        corner(top, top, rows_top, rows_top),
        corner(top, bottom, rows_top, rows_bot),
        corner(bottom, top, rows_bot, rows_top),
        corner(bottom, bottom, rows_bot, rows_bot))


def _same_module(X: GradedMatrix, Y: GradedMatrix):
    if X.ring != Y.ring:
        raise ValueError("scalar ring mismatch")
    if X.row_ranks != Y.row_ranks or X.col_ranks != Y.col_ranks:
        raise ValueError("rank mismatch")
