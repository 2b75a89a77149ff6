"""Graded determinant: the two quasiminor routes, the characterizing axioms,
the nonzero-degree extension with its dimension condition, row reduction, and
the interpolation oracle against the frozen coefficient tables."""

import itertools
import warnings
from fractions import Fraction

import pytest

from gradalg import (Algebra, DimensionNotAdmissibleError, GradedMatrix, GroupElement,
                     NotInvertibleError, block_quasidet, grassmann,
                     HomogeneityError, RankVector, RegularityError,
                     elementary_sandwich_check, gdet0,
                     gdet_certified, gdet_graded, gdet_ldu, identity_matrix,
                     mat_mul, multilinear_coefficients, normalized_coefficients,
                     ldu_decompose, row_monomial_product, row_reduce_g,
                     scalar_mul, udl_decompose, unitriangular_g)
from gradalg import ringmat as rm
from gradalg.randgen import random_invertible, random_matrix

from conftest import random_quaternion, random_rational
from reference_data import (QUATERNION_SIGNS_1111, ABSTRACT_SIGNS_1111, QUATERNION_SIGNS_0211, ZERO3,
                            diagonal_unit_matrix, embedding_matrix, rank_even,
                            unit_pattern_0211, unit_pattern_1111)


def sample_invertible_pair(rng, alg, rk):
    """An invertible pair whose three determinants all evaluate regularly."""
    while True:
        X = random_invertible(rng, alg, rk)
        Y = random_invertible(rng, alg, rk)
        try:
            return X, Y, gdet0(X), gdet0(Y), gdet0(mat_mul(X, Y))
        except RegularityError:
            continue


class TestAxioms:
    def test_identity(self, H):
        assert gdet0(identity_matrix(H, rank_even((1, 1, 1, 1)))) == H.one()
        assert gdet0(identity_matrix(H, rank_even((0, 2, 1, 1)))) == H.one()

    def test_block_diagonal_is_product_of_dets(self, H, rng):
        rk = rank_even((2, 1, 1, 1))
        X = random_matrix(rng, H, rk)
        grid = X.grid()
        offs = (0, 2, 3, 4, 5)
        for r in range(5):
            for c in range(5):
                rb = next(t for t in range(4) if offs[t] <= r < offs[t + 1])
                cb = next(t for t in range(4) if offs[t] <= c < offs[t + 1])
                if rb != cb:
                    grid[r][c] = H.zero()
        X = X.with_entries(grid)
        top = grid[0][0] * grid[1][1] - grid[0][1] * grid[1][0]
        want = top * grid[2][2] * grid[3][3] * grid[4][4]
        assert gdet0(X) == want

    def test_unitriangular_is_one(self, H, units, rng):
        i, j, k = units
        rk = rank_even((1, 1, 1, 1))
        grid = identity_matrix(H, rk).grid()
        grid[0][1] = i * rng.randint(1, 9)
        grid[0][2] = j * rng.randint(1, 9)
        grid[1][3] = j * rng.randint(1, 9)
        grid[2][3] = i * rng.randint(1, 9)
        X = GradedMatrix(H, rk, rk, ZERO3, grid)
        assert gdet0(X) == H.one()
        assert gdet_ldu(X) == H.one()

    def test_multiplicativity(self, H, rng):
        for evens in ((1, 1, 1, 1), (0, 2, 1, 1), (2, 1, 1, 1)):
            rk = rank_even(evens)
            for _ in range(8):
                _, _, gx, gy, gxy = sample_invertible_pair(rng, H, rk)
                assert gxy == gx * gy

    def test_multiplicativity_beyond_division_rings(self, EH, rng):
        # purely even matrices over the odd-generator extension: entries may
        # mix quaternion units with even theta products of the same degree
        rk = rank_even((1, 1, 1, 1))
        done = 0
        while done < 6:
            X = random_invertible(rng, EH, rk)
            Y = random_invertible(rng, EH, rk)
            try:
                gx, gy, gxy = gdet0(X), gdet0(Y), gdet0(mat_mul(X, Y))
            except RegularityError:
                continue
            done += 1
            assert gxy == gx * gy

    def test_multiplicativity_split_signature(self, rng):
        # the split two-generator algebra has zero divisors but the same
        # block structure; multiplicativity and route equality still hold
        from gradalg import Algebra
        alg = Algebra(1, 1)
        for evens in ((1, 1, 1, 1), (0, 2, 1, 1), (2, 1, 1, 1)):
            rk = rank_even(evens)
            done = 0
            while done < 8:
                X = random_invertible(rng, alg, rk)
                Y = random_invertible(rng, alg, rk)
                try:
                    gx, gy, gxy = gdet0(X), gdet0(Y), gdet0(mat_mul(X, Y))
                except RegularityError:
                    continue
                done += 1
                assert gxy == gx * gy
                try:
                    assert gdet_ldu(X) == gx
                except RegularityError:
                    pass

    def test_route_equality(self, H, rng):
        rk = rank_even((1, 1, 1, 1))
        done = 0
        while done < 15:
            X = random_matrix(rng, H, rk)
            try:
                assert gdet0(X) == gdet_ldu(X)
            except RegularityError:
                continue
            done += 1

    def test_even_halves_recursion(self, H, rng):
        # gdet(X) agrees with gdet(|XX|_11) gdet(XX_22) under the even-halves
        # redivision, each factor taken as a half-size graded determinant
        from gradalg import redivide_2x2
        from gradalg.determinant import gdet_blocks
        rk = rank_even((1, 1, 1, 1))
        done = 0
        while done < 10:
            X = random_invertible(rng, H, rk)
            r = redivide_2x2(X, "even_halves")
            try:
                whole = gdet0(X)
                x22_inv = rm.mat_inverse(r.x22.grid(), H)
                corner = rm.mat_sub(
                    r.x11.grid(),
                    rm.mat_mul(r.x12.grid(), rm.mat_mul(x22_inv, r.x21.grid())))
                split = gdet_blocks(corner, (1, 1), H).value \
                    * gdet_blocks(r.x22.grid(), (1, 1), H).value
            except (RegularityError, NotInvertibleError):
                continue
            done += 1
            assert whole == split

    def test_certificate_factors_multiply(self, H, rng):
        # factor k is det D_kk of the decomposition of the same block order
        rk = rank_even((0, 2, 1, 1))
        sizes = [s for s in rk.ranks if s > 0]
        off = (0, 2, 3, 4)
        routes = (("udl", udl_decompose), ("ldu", ldu_decompose))
        while True:
            X = random_invertible(rng, H, rk)
            try:
                results = [(gdet_certified(X, route), decompose(X.grid(), sizes, H))
                           for route, decompose in routes]
            except RegularityError:
                continue
            for res, fac in results:
                prod = H.one()
                for f in res.factors:
                    prod = prod * f
                assert prod == res.value
                assert len(res.factors) == len(sizes)
                for k, f in enumerate(res.factors):
                    block = [row[off[k]:off[k + 1]] for row in fac.D[off[k]:off[k + 1]]]
                    assert f == rm.commutative_det(block, H)
            return

    @pytest.mark.parametrize("alg_name,evens", [
        ("H", (2, 2, 2, 2)), ("EH", (1, 1, 1, 1)), ("EH", (2, 1, 1, 0))])
    def test_factors_match_defining_windows(self, alg_name, evens, request, rng):
        # independent of the elimination behind both routes: factor k is det
        # of the quasiminor at block k of its own principal window, the
        # trailing blocks k..p-1 for UDL and the leading 0..k for LDU
        alg = request.getfixturevalue(alg_name)
        rk = rank_even(evens)
        sizes = [s for s in evens if s > 0]
        p = len(sizes)
        off = list(itertools.accumulate(sizes, initial=0))
        windows = {"udl": [(k, p, k) for k in range(p)],
                   "ldu": [(0, k + 1, k) for k in range(p)]}

        def window_dets(grid, route):
            out = []
            for lo, hi, k in windows[route]:
                window = [row[off[lo]:off[hi]] for row in grid[off[lo]:off[hi]]]
                q = block_quasidet(window, sizes[lo:hi], k - lo, k - lo, alg)
                out.append(rm.commutative_det(q, alg))
            return out

        checked = {"udl": 0, "ldu": 0}
        # refusals are checked too; over EH most draws have a singular window
        for _ in range(80):
            if min(checked.values()) >= 8:
                break
            X = random_invertible(rng, alg, rk)
            for route in windows:
                try:
                    want = window_dets(X.grid(), route)
                except NotInvertibleError:
                    with pytest.raises(RegularityError):
                        gdet_certified(X, route)
                    continue
                res = gdet_certified(X, route)
                assert res.factors == tuple(want)
                prod = alg.one()
                for f in want:
                    prod = prod * f
                assert res.value == prod
                checked[route] += 1
        assert min(checked.values()) >= 8

    def test_requires_degree_zero_and_even(self, H, units, EH):
        i, _, _ = units
        X = scalar_mul(i, identity_matrix(H, rank_even((1, 1, 1, 1))))
        with pytest.raises(ValueError):
            gdet0(X)
        rk_odd = RankVector(3, (1, 1, 0, 0, 1, 0, 0, 0))
        with pytest.raises(ValueError):
            gdet0(identity_matrix(EH, rk_odd))

    def test_homogeneity_enforced(self, H, units):
        i, _, _ = units
        rk = rank_even((1, 1, 1, 1))
        grid = identity_matrix(H, rk).grid()
        grid[0][0] = i
        with pytest.raises(HomogeneityError):
            gdet0(GradedMatrix(H, rk, rk, ZERO3, grid))


class TestScalarEmbedding:
    @pytest.mark.parametrize("d", [1, 2])
    def test_norm_power(self, d, H, rng):
        for _ in range(4):
            parts = [random_rational(rng, -5, 5) for _ in range(4)]
            if not any(parts):
                parts[0] = Fraction(1)
            x, a, b, c = parts
            X = embedding_matrix(H, d, x, a, b, c)
            norm_sq = x * x + a * a + b * b + c * c
            try:
                assert gdet0(X) == H.scalar(norm_sq ** (2 * d))
            except RegularityError:
                continue


class TestClassicalDegeneration:
    def test_trivial_grading(self, Q, rng):
        rk = RankVector(1, (3, 0))
        X = random_matrix(rng, Q, rk)
        want = rm.commutative_det(X.grid(), Q)
        try:
            assert gdet0(X) == want
        except RegularityError:
            pytest.skip("sampled non-regular matrix")

    @pytest.mark.parametrize("p,q", [(1, 0), (0, 1)])
    def test_one_generator_commutative(self, p, q, rng):
        from gradalg import Algebra
        alg = Algebra(p, q)
        rk = RankVector(2, (1, 2, 0, 0))
        done = 0
        while done < 8:
            X = random_matrix(rng, alg, rk)
            want = rm.commutative_det(X.grid(), alg)
            try:
                assert gdet0(X) == want
            except RegularityError:
                continue
            done += 1


def leibniz_det(grid, ring):
    """sum over permutations of sign(sigma) prod_i x_{i, sigma(i)}."""
    n = len(grid)
    acc = ring.zero()
    for sigma in itertools.permutations(range(n)):
        inversions = sum(a > b for a, b in itertools.combinations(sigma, 2))
        term = ring.one()
        for i, s in enumerate(sigma):
            term = term * grid[i][s]
        acc = acc - term if inversions & 1 else acc + term
    return acc


class TestCommutativeDet:
    """commutative_det against the permutation sum, which shares no code with
    it, including rings with nilpotents where no division is available."""

    @staticmethod
    def _entries(name, rng):
        if name == "Q":
            ring = Algebra(0, 0)
            return ring, lambda: ring.scalar(random_rational(rng))
        if name == "C":
            ring = Algebra(0, 1)
            i = ring.generator(1)
            return ring, lambda: ring.scalar(rng.randint(-4, 4)) + i * rng.randint(-4, 4)
        ring = grassmann(4)
        theta = [ring.odd_generator(t) for t in range(1, 5)]
        pairs = [a * b for a, b in itertools.combinations(theta, 2)]
        top = theta[0] * theta[1] * theta[2] * theta[3]

        def even():
            x = ring.scalar(rng.randint(-3, 3))
            for m in pairs + [top]:
                if rng.random() < 0.4:
                    x = x + m * rng.randint(-3, 3)
            return x
        return ring, even

    @pytest.mark.parametrize("name", ["Q", "C", "grassmann4"])
    @pytest.mark.parametrize("n", range(7))
    def test_matches_leibniz(self, name, n, rng):
        ring, draw = self._entries(name, rng)
        for _ in range(2):
            grid = [[draw() for _ in range(n)] for _ in range(n)]
            assert rm.commutative_det(grid, ring) == leibniz_det(grid, ring)

    def test_single_block_gdet_of_lu_product(self, H, rng):
        # one 9 x 9 degree-0 block over H: gdet0 is commutative_det, and a
        # unit lower times an upper triangular matrix has det prod d_i
        n = 9
        one, zero = H.one(), H.zero()
        lower = [[H.scalar(rng.randint(-3, 3)) if c < r else (one if c == r else zero)
                  for c in range(n)] for r in range(n)]
        diag = [rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(n)]
        upper = [[H.scalar(diag[r]) if c == r else
                  (H.scalar(rng.randint(-3, 3)) if c > r else zero)
                  for c in range(n)] for r in range(n)]
        rk = RankVector(3, (n, 0, 0, 0, 0, 0, 0, 0))
        X = GradedMatrix(H, rk, rk, GroupElement.zero(3), rm.mat_mul(lower, upper))
        want = 1
        for d in diag:
            want *= d
        assert gdet0(X) == H.scalar(want)


class TestIntegerClosure:
    @pytest.mark.parametrize("evens", [(1, 1, 1, 1), (0, 2, 1, 1)])
    def test_integer_entries_integer_gdet(self, evens, H, rng):
        rk = rank_even(evens)
        done = 0
        while done < 12:
            X = random_matrix(rng, H, rk)
            try:
                value = gdet0(X)
            except RegularityError:
                continue
            done += 1
            assert value.scalar_part().denominator == 1


class TestRowReduction:
    def test_zero_reduction_fixes_matrix(self, H, rng):
        rk = rank_even((1, 1, 1, 1))
        X = random_matrix(rng, H, rk)
        assert row_reduce_g(X, 1, 0, H.zero()) == X

    def test_gdet_invariance(self, H, units, rng):
        rk = rank_even((1, 1, 1, 1))
        done = 0
        while done < 10:
            X = random_matrix(rng, H, rk)
            alpha, beta = rng.sample(range(4), 2)
            w = rk.weight(alpha) + rk.weight(beta)
            lam = random_quaternion(rng, H)
            lam = [t for _, t in lam.graded_parts() if t.degree() == w]
            lam = lam[0] if lam else None
            if lam is None:
                continue
            try:
                assert gdet0(row_reduce_g(X, alpha, beta, lam)) == gdet0(X)
            except RegularityError:
                continue
            done += 1

    def test_degree_mismatch_rejected(self, H, units, rng):
        i, j, _ = units
        rk = rank_even((1, 1, 1, 1))
        X = random_matrix(rng, H, rk)
        with pytest.raises(HomogeneityError):
            row_reduce_g(X, 0, 1, j)  # slot (1,2) carries the i degree

    def test_g_matrices_have_unit_gdet(self, H, units):
        i, _, _ = units
        rk = rank_even((1, 1, 1, 1))
        assert gdet0(unitriangular_g(0, 1, i * 7, rk)) == H.one()
        assert gdet0(unitriangular_g(1, 0, i * -3, rk)) == H.one()

    def test_first_column_elementary(self, H, rng):
        # a matrix whose first column is x_11, 0, ..., 0 factors the entry out
        rk5 = rank_even((2, 1, 1, 1))
        done = 0
        while done < 8:
            X = random_matrix(rng, H, rk5)
            grid = X.grid()
            for r in range(1, 5):
                grid[r][0] = H.zero()
            if grid[0][0].is_zero:
                continue
            X = X.with_entries(grid)
            sub = [row[1:] for row in grid[1:]]
            rk4 = rank_even((1, 1, 1, 1))
            Xsub = GradedMatrix(H, rk4, rk4, ZERO3, sub)
            try:
                assert gdet0(X) == grid[0][0] * gdet0(Xsub)
            except RegularityError:
                continue
            done += 1


class TestSandwichLemma:
    def test_zero_off_blocks(self, H, rng):
        rk = rank_even((1, 1, 1, 1))
        X = identity_matrix(H, rk)
        lhs, rhs = elementary_sandwich_check(X, X)
        assert lhs == H.one() and rhs == H.one()

    def test_elementary_factor(self, H, units, rng):
        rk = rank_even((1, 1, 1, 1))
        done = 0
        while done < 12:
            X = random_matrix(rng, H, rk)
            Y = random_matrix(rng, H, rk)
            grid = X.grid()
            keep = (rng.randrange(2), rng.randrange(2, 4))
            for r in range(2):
                for c in range(2, 4):
                    if (r, c) != keep:
                        grid[r][c] = H.zero()
            X = X.with_entries(grid)
            try:
                lhs, rhs = elementary_sandwich_check(X, Y)
            except (RegularityError, ValueError):
                continue
            assert lhs == rhs
            done += 1

    def test_requires_elementary(self, H, rng):
        rk = rank_even((1, 1, 1, 1))
        done = 0
        while done < 1:
            X = random_matrix(rng, H, rk)
            corner = [X.entries[r][c] for r in range(2) for c in range(2, 4)]
            if sum(1 for v in corner if not v.is_zero) <= 1:
                continue
            with pytest.raises(ValueError):
                elementary_sandwich_check(X, X)
            done += 1


class TestGradedDegree:
    def test_scalar_multiple_of_identity(self, H, units):
        i, _, _ = units
        X = scalar_mul(i, identity_matrix(H, rank_even((1, 1, 2, 1))))
        assert gdet_graded(X) == i  # i^5

    def test_diagonal_unit_tables(self, H, units):
        i, j, k = units
        rk = rank_even((1, 1, 1, 1))
        for unit in (i, j, k):
            assert gdet_graded(diagonal_unit_matrix(H, unit, rk)) == H.one()
        rk = rank_even((0, 2, 1, 1))
        assert gdet_graded(diagonal_unit_matrix(H, i, rk)) == H.one()
        assert gdet_graded(diagonal_unit_matrix(H, j, rk)) == H.scalar(-1)
        assert gdet_graded(diagonal_unit_matrix(H, k, rk)) == H.scalar(-1)

    def test_general_exponent_formula(self, H, units):
        i, j, k = units
        for evens in ((1, 2, 1, 1), (2, 1, 1, 1), (1, 1, 1, 2)):
            rk = rank_even(evens)
            r1, r2, r3, r4 = evens
            assert gdet_graded(diagonal_unit_matrix(H, i, rk)) == i ** (r1 + r2 - r3 - r4)
            assert gdet_graded(diagonal_unit_matrix(H, j, rk)) == j ** (r1 - r2 + r3 - r4)
            assert gdet_graded(diagonal_unit_matrix(H, k, rk)) == k ** (r1 - r2 - r3 + r4)

    def test_factor_independence(self, H, units, rng):
        # any invertible homogeneous factor gives the same value
        i, _, _ = units
        rk = rank_even((1, 1, 2, 1))
        X0 = random_invertible(rng, H, rk)
        X = scalar_mul(i, X0)
        alt = scalar_mul(i * Fraction(3, 2), scalar_mul((i * Fraction(3, 2)).inverse(), X))
        assert gdet_graded(X) == gdet_graded(alt)
        # direct check against the defining factorization
        assert gdet_graded(X) == (i ** 5) * gdet0(X0)

    def test_strict_mode_rejects_bad_dimension(self, H, units):
        i, _, _ = units
        for evens in ((1, 1, 0, 0), (1, 1, 1, 0)):
            X = scalar_mul(i, identity_matrix(H, rank_even(evens)))
            with pytest.raises(DimensionNotAdmissibleError):
                gdet_graded(X)

    def test_lax_mode_warns(self, H, units):
        i, _, _ = units
        X = scalar_mul(i, identity_matrix(H, rank_even((1, 1, 0, 0))))
        with pytest.warns(UserWarning):
            assert gdet_graded(X, strict=False) == H.scalar(-1)

    def test_multiplicativity_at_good_dimensions(self, H, units, rng):
        i, j, k = units
        for evens, da, db in (((1, 1, 1, 1), (0, 1, 1), (1, 0, 1)),
                              ((1, 1, 2, 1), (0, 1, 1), (1, 1, 0))):
            rk = rank_even(evens)
            done = 0
            while done < 5:
                qa = GroupElement.from_bits(da)
                qb = GroupElement.from_bits(db)
                from gradalg.randgen import random_graded_invertible
                X = random_graded_invertible(rng, H, rk, qa)
                Y = random_graded_invertible(rng, H, rk, qb)
                try:
                    gx, gy, gxy = (gdet_graded(X), gdet_graded(Y),
                                   gdet_graded(mat_mul(X, Y)))
                except RegularityError:
                    continue
                assert gxy == gx * gy
                done += 1

    def test_mixed_degree_multiplicativity(self, H, units, rng):
        # one nonzero-degree factor against a degree-0 one, |r| = 4
        i, _, _ = units
        rk = rank_even((1, 1, 1, 1))
        from gradalg.randgen import random_graded_invertible
        done = 0
        while done < 6:
            X = random_graded_invertible(rng, H, rk, i.degree())
            Y = random_invertible(rng, H, rk)
            try:
                assert gdet_graded(mat_mul(X, Y)) == gdet_graded(X) * gdet0(Y)
                assert gdet_graded(mat_mul(Y, X)) == gdet0(Y) * gdet_graded(X)
            except RegularityError:
                continue
            done += 1

    def test_dimension_two_obstruction(self, H, units):
        # at |r| = 2 multiplicativity fails exactly for anticommuting factors:
        # gdet((iI)(jI)) = -gdet(iI) gdet(jI), while the (i, i) pair stays
        # multiplicative since i commutes with itself
        i, j, _ = units
        rk = rank_even((1, 1, 0, 0))
        I2 = identity_matrix(H, rk)
        Xi, Yj = scalar_mul(i, I2), scalar_mul(j, I2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            gi = gdet_graded(Xi, strict=False)
            gj = gdet_graded(Yj, strict=False)
            flipped = gdet_graded(mat_mul(Xi, Yj), strict=False)
        assert flipped == -(gi * gj)
        same = gdet_graded(mat_mul(Xi, Xi))  # degree 0 product
        assert same == gi * gi


class TestCoefficientOracle:
    def test_classical_two_by_two(self, Q):
        rk = RankVector(1, (2, 0))
        one = Q.one()
        pattern = GradedMatrix(Q, rk, rk, GroupElement.zero(1),
                               [[one, one], [one, one]])
        coeffs = multilinear_coefficients(pattern)
        assert coeffs[(0, 1)] == Q.one()
        assert coeffs[(1, 0)] == Q.scalar(-1)

    def test_quaternionic_table_1111(self, H):
        coeffs = multilinear_coefficients(unit_pattern_1111(H))
        assert len(coeffs) == 24
        for sigma, sign in QUATERNION_SIGNS_1111.items():
            assert coeffs[sigma] == H.scalar(sign), f"mismatch at {sigma}"

    def test_quaternionic_table_0211(self, H):
        coeffs = multilinear_coefficients(unit_pattern_0211(H))
        for sigma, sign in QUATERNION_SIGNS_0211.items():
            assert coeffs[sigma] == H.scalar(sign), f"mismatch at {sigma}"

    def test_abstract_table_via_normalization(self, H):
        table = normalized_coefficients(unit_pattern_1111(H))
        for sigma, sign in ABSTRACT_SIGNS_1111.items():
            assert table[sigma] == H.scalar(sign), f"mismatch at {sigma}"

    def test_normalization_consistency(self, H):
        # c_sigma = abstract sign times the row-ordered monomial product
        pattern = unit_pattern_1111(H)
        coeffs = multilinear_coefficients(pattern)
        for sigma, sign in ABSTRACT_SIGNS_1111.items():
            rho = row_monomial_product(pattern, sigma)
            assert coeffs[sigma] == rho * sign

    def test_expansion_reconstructs_gdet(self, H, rng):
        # sum_sigma c_sigma prod_r t_{r sigma(r)} over random rational letters
        pattern = unit_pattern_1111(H)
        coeffs = multilinear_coefficients(pattern)
        letters = [[random_rational(rng, -4, 4) for _ in range(4)]
                   for _ in range(4)]
        grid = [[pattern.entries[r][c] * letters[r][c] for c in range(4)]
                for r in range(4)]
        X = pattern.with_entries(grid)
        total = H.zero()
        for sigma, c in coeffs.items():
            weight = Fraction(1)
            for r, cc in enumerate(sigma):
                weight *= letters[r][cc]
            total = total + c * weight
        try:
            assert gdet0(X) == total
        except RegularityError:
            pytest.skip("sampled non-regular letter matrix")

    def test_expansion_reconstructs_gdet_0211(self, H, rng):
        pattern = unit_pattern_0211(H)
        coeffs = multilinear_coefficients(pattern)
        letters = [[random_rational(rng, -4, 4) for _ in range(4)]
                   for _ in range(4)]
        grid = [[pattern.entries[r][c] * letters[r][c] for c in range(4)]
                for r in range(4)]
        X = pattern.with_entries(grid)
        total = H.zero()
        for sigma, c in coeffs.items():
            weight = Fraction(1)
            for r, cc in enumerate(sigma):
                weight *= letters[r][cc]
            total = total + c * weight
        try:
            assert gdet0(X) == total
        except RegularityError:
            pytest.skip("sampled non-regular letter matrix")

    def test_zero_pattern_entry_kills_permutations(self, H):
        pattern = unit_pattern_1111(H)
        grid = pattern.grid()
        grid[0][1] = H.zero()
        pattern = pattern.with_entries(grid)
        coeffs = multilinear_coefficients(pattern)
        normalized = normalized_coefficients(pattern)
        for sigma in coeffs:
            if sigma[0] == 1:
                assert coeffs[sigma].is_zero
                assert normalized[sigma].is_zero

    def test_oracle_dimension_cap(self, H):
        rk = rank_even((2, 2, 1, 1))
        with pytest.raises(ValueError):
            multilinear_coefficients(identity_matrix(H, rk))
