"""Seeded generation of graded matrices for the property suites.

Entries are degree-respecting basis monomials times integers in [-9, 9];
invertibility is enforced by rejection sampling against the odd-ideal test.

The random stream is part of the contract, since seeded suites and pinned
digests replay it: entries are drawn in row-major order, each with one
``rng.randint(-bound, bound)`` call and, when that coefficient is nonzero,
one ``rng.choice`` over the monomials of the entry's degree sorted by
(clifford mask, odd mask).  Every degree an entry needs is checked before
the first number is drawn.
"""

from __future__ import annotations

import random
from functools import lru_cache

from .berezinian import is_invertible0
from .determinant import _degree_unit
from .errors import GradAlgError
from .grading import GroupElement
from .matrices import GradedMatrix, RankVector, scalar_mul
from .scalars import Algebra, _monomial

# Draws a rejection sampler makes before it gives up.
MAX_DRAWS = 500


@lru_cache(maxsize=None)
def _indices_by_mask(alg: Algebra) -> dict:
    # degree mask -> basis indices in monomials_by_degree's sorted order, one
    # map per algebra value as for the product table
    n = alg.n
    return {deg.mask: tuple(cl | (odd << n) for cl, odd in keys)
            for deg, keys in alg.monomials_by_degree().items()}


def _draw(rng: random.Random, alg: Algebra, row_masks, col_masks,
          degree: GroupElement, bound: int):
    """Grid whose entry (r, c) is a random multiple of one basis monomial of
    degree row_masks[r] ^ col_masks[c] ^ degree, in the stream order of the
    module docstring."""
    by_mask = _indices_by_mask(alg) if degree.m == alg.arity else {}
    d = degree.mask
    missing = next((wr ^ wc ^ d for wr in row_masks for wc in col_masks
                    if wr ^ wc ^ d not in by_mask), None)
    if missing is not None:
        want = GroupElement(degree.m, missing)
        raise GradAlgError(f"algebra realizes no monomial of degree {want}")
    randint, choice, zero = rng.randint, rng.choice, alg.zero
    return [[_monomial(alg, choice(by_mask[wr ^ wc ^ d]), c)
             if (c := randint(-bound, bound)) else zero() for wc in col_masks]
            for wr in row_masks]


def random_element(rng: random.Random, alg: Algebra, degree: GroupElement,
                   bound: int = 9):
    """A random multiple of one basis monomial of the requested degree."""
    return _draw(rng, alg, (0,), (0,), degree, bound)[0][0]


def random_matrix(rng: random.Random, alg: Algebra, ranks: RankVector,
                  degree: GroupElement = None, bound: int = 9) -> GradedMatrix:
    degree = degree if degree is not None else GroupElement.zero(ranks.m)
    if degree.m != ranks.m:
        raise ValueError(f"group arity mismatch: {ranks.m} vs {degree.m}")
    masks = [w.mask for w in ranks.weights]
    return GradedMatrix(alg, ranks, ranks, degree, _draw(rng, alg, masks, masks, degree, bound))


def random_invertible(rng: random.Random, alg: Algebra, ranks: RankVector) -> GradedMatrix:
    """A random invertible degree-0 matrix, by rejection."""
    for _ in range(MAX_DRAWS):
        X = random_matrix(rng, alg, ranks)
        if is_invertible0(X):
            return X
    raise GradAlgError("could not sample an invertible matrix")


def random_graded_invertible(rng: random.Random, alg: Algebra, ranks: RankVector,
                             degree: GroupElement) -> GradedMatrix:
    """A random invertible homogeneous matrix of the requested even degree,
    as a degree-unit multiple of an invertible degree-0 one."""
    if degree.is_zero:
        return random_invertible(rng, alg, ranks)
    q = _degree_unit(alg, degree)
    x0 = random_invertible(rng, alg, ranks)
    return scalar_mul(q, x0)
