"""Seeded generation of graded matrices for the property suites.

Entries are degree-respecting basis monomials times integers in [-9, 9];
invertibility is enforced by rejection sampling against the odd-ideal test.
"""

from __future__ import annotations

import random

from .berezinian import is_invertible0
from .determinant import _degree_unit
from .errors import GradAlgError
from .grading import GroupElement
from .matrices import GradedMatrix, RankVector, scalar_mul
from .scalars import Algebra

# Draws a rejection sampler makes before it gives up.
MAX_DRAWS = 500


def random_element(rng: random.Random, alg: Algebra, degree: GroupElement,
                   bound: int = 9):
    """A random multiple of one basis monomial of the requested degree."""
    monomials = alg.monomials_by_degree().get(degree)
    if not monomials:
        raise GradAlgError(f"algebra realizes no monomial of degree {degree}")
    c = rng.randint(-bound, bound)
    if c == 0:
        return alg.zero()
    cl, odd = rng.choice(monomials)
    return alg.monomial(cl, odd, c)


def random_matrix(rng: random.Random, alg: Algebra, ranks: RankVector,
                  degree: GroupElement = None, bound: int = 9) -> GradedMatrix:
    degree = degree if degree is not None else GroupElement.zero(ranks.m)
    n = ranks.total
    grid = []
    for r in range(n):
        wr = ranks.weight(r)
        row = []
        for c in range(n):
            want = wr + ranks.weight(c) + degree
            row.append(random_element(rng, alg, want, bound))
        grid.append(row)
    return GradedMatrix(alg, ranks, ranks, degree, grid)


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
