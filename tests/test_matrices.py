import random

import pytest

from gradalg import (GradedMatrix, HomogeneityError, RankVector,
                     check_homogeneous, commutator, decompose_elementary,
                     elementary, identity_matrix, mat_mul, mat_pow,
                     redivide_2x2, scalar_mul, unitriangular_g, zero_matrix)
from gradalg.randgen import random_matrix

from reference_data import ZERO3, rank_even, unit_pattern_1111


class TestRankVector:
    def test_even_half_padding(self):
        rk = RankVector.from_even_half(3, (1, 1, 1, 1))
        assert rk.ranks == (1, 1, 1, 1, 0, 0, 0, 0)
        assert rk.is_purely_even and rk.total == 4

    def test_weights_follow_standard_order(self):
        rk = RankVector.from_even_half(3, (0, 2, 1, 1))
        assert rk.weight(0).bits() == (0, 1, 1)
        assert rk.weight(1).bits() == (0, 1, 1)
        assert rk.weight(2).bits() == (1, 0, 1)
        assert rk.weight(3).bits() == (1, 1, 0)

    def test_length_validation(self):
        with pytest.raises(ValueError):
            RankVector(3, (1, 1, 1, 1))


class TestHomogeneity:
    def test_identity_even(self, H):
        I4 = identity_matrix(H, rank_even((1, 1, 1, 1)))
        assert check_homogeneous(I4)

    def test_worked_pattern(self, H):
        assert check_homogeneous(unit_pattern_1111(H))

    def test_misplaced_unit(self, H, units):
        i, _, _ = units
        rk = rank_even((1, 1, 1, 1))
        grid = identity_matrix(H, rk).grid()
        grid[0][0] = i
        X = GradedMatrix(H, rk, rk, ZERO3, grid)
        assert not check_homogeneous(X)

    @pytest.mark.parametrize("degree", [(0, 0, 0), (0, 1, 1)])
    def test_mismatch_in_last_block(self, H, units, degree):
        # only the bottom-right entry of the last block breaks the law
        from gradalg import GroupElement
        i, j, _ = units
        rk = rank_even((0, 2, 1, 2))
        d = GroupElement.from_bits(degree)
        X = random_matrix(random.Random(31), H, rk, d)
        assert check_homogeneous(X)
        n = rk.total
        grid = X.grid()
        want = rk.weight(n - 1) + rk.weight(n - 1) + d
        grid[n - 1][n - 1] = j if i.degree() == want else i
        assert not check_homogeneous(GradedMatrix(H, rk, rk, d, grid))
        grid[n - 1][n - 1] = H.zero()
        assert check_homogeneous(GradedMatrix(H, rk, rk, d, grid))

    def test_other_arity_never_matches(self, units):
        # a degree of another arity is not the block-law degree, even with
        # the same mask
        from gradalg import Algebra
        alg = Algebra(0, 3)
        rk = RankVector.from_even_half(3, (1, 0, 0, 0))
        X = GradedMatrix(alg, rk, rk, ZERO3, [[alg.one()]])
        assert not check_homogeneous(X) and X.entries[0][0].degree().mask == 0

    def test_agrees_with_entry_degrees(self):
        # the one-pass index scan against degree() entry by entry, on matrices
        # with one entry made mixed, moved off its degree or lifted to a series
        from gradalg import (Algebra, SeriesRing, extended_quaternions, grassmann,
                             quaternions, series_matrix)

        def reference(X):
            return all(v.is_zero or (v.degree() is not None and v.degree().m == X.degree.m
                                     and v.degree() == X.row_ranks.weight(r)
                                     + X.col_ranks.weight(c) + X.degree)
                       for r, row in enumerate(X.entries) for c, v in enumerate(row))
        rng = random.Random(2005)
        seen = set()
        for alg, rk in ((quaternions(), rank_even((1, 2, 0, 1))),
                        (extended_quaternions(), RankVector(3, (1, 1, 1, 1, 1, 1, 0, 0))),
                        (Algebra(1, 1), RankVector(3, (1, 1, 0, 1, 0, 0, 0, 0))),
                        (grassmann(2), RankVector(1, (2, 1)))):
            keys = [(cl, odd) for odd in range(1 << alg.num_odd) for cl in range(1 << alg.n)]
            for trial in range(30):
                X = random_matrix(rng, alg, rk)
                grid = X.grid()
                r, c = rng.randrange(rk.total), rng.randrange(rk.total)
                extra = alg.monomial(*rng.choice(keys), rng.randint(1, 3))
                grid[r][c] = extra if trial % 3 == 0 else grid[r][c] + extra
                Y = X.with_entries(grid)
                for M in (Y, series_matrix(Y, SeriesRing(alg, 2), trial % 2)):
                    want = reference(M)
                    assert check_homogeneous(M) is want
                    seen.add(want)
        assert seen == {True, False}


class TestScalarAction:
    def test_i_on_identity_1111(self, H, units):
        i, j, k = units
        X = scalar_mul(i, identity_matrix(H, rank_even((1, 1, 1, 1))))
        assert [X.entries[t][t] for t in range(4)] == [i, i, -i, -i]
        assert X.degree == i.degree()

    def test_j_on_identity_1111(self, H, units):
        i, j, k = units
        X = scalar_mul(j, identity_matrix(H, rank_even((1, 1, 1, 1))))
        assert [X.entries[t][t] for t in range(4)] == [j, -j, j, -j]

    def test_k_on_identity_1111(self, H, units):
        i, j, k = units
        X = scalar_mul(k, identity_matrix(H, rank_even((1, 1, 1, 1))))
        assert [X.entries[t][t] for t in range(4)] == [k, -k, -k, k]

    def test_units_on_identity_0211(self, H, units):
        i, j, k = units
        I4 = identity_matrix(H, rank_even((0, 2, 1, 1)))
        assert [scalar_mul(i, I4).entries[t][t] for t in range(4)] == [i, i, -i, -i]
        assert [scalar_mul(j, I4).entries[t][t] for t in range(4)] == [-j, -j, j, -j]
        assert [scalar_mul(k, I4).entries[t][t] for t in range(4)] == [-k, -k, -k, k]

    def test_one_acts_trivially(self, H, rng):
        X = random_matrix(rng, H, rank_even((1, 1, 1, 1)))
        assert scalar_mul(H.one(), X) == X

    def test_action_composes(self, H, units, rng):
        i, j, k = units
        X = random_matrix(rng, H, rank_even((0, 2, 1, 1)))
        for a, b in ((i, j), (j, k), (i, i)):
            assert scalar_mul(a, scalar_mul(b, X)) == scalar_mul(a * b, X)

    def test_mixed_product_rule(self, H, units, rng):
        # (aX)(bY) = (-1)^<deg b, deg X> (ab)(XY)
        i, j, k = units
        rk = rank_even((1, 1, 1, 1))
        for a, b in ((i, j), (k, i), (j, j)):
            X = random_matrix(rng, H, rk)
            Y = random_matrix(rng, H, rk)
            lhs = mat_mul(scalar_mul(a, X), scalar_mul(b, Y))
            rhs = scalar_mul(a * b, mat_mul(X, Y))
            if b.degree().pair(X.degree):
                rhs = -rhs
            assert lhs == rhs

    def test_needs_homogeneous_scalar(self, H, units):
        i, _, _ = units
        X = identity_matrix(H, rank_even((1, 1, 1, 1)))
        with pytest.raises(HomogeneityError):
            scalar_mul(H.one() + i, X)


class TestProductsAndElementaries:
    def test_unit_law(self, H, rng):
        rk = rank_even((1, 1, 1, 1))
        X = random_matrix(rng, H, rk)
        assert mat_mul(X, identity_matrix(H, rk)) == X

    def test_elementary_products(self, Q):
        rk = RankVector(1, (4, 0))
        one = Q.one()
        e12 = elementary(0, 1, one, rk)
        e23 = elementary(1, 2, one, rk)
        e34 = elementary(2, 3, one, rk)
        assert mat_mul(e12, e23) == elementary(0, 2, one, rk)
        assert mat_mul(e12, e34).is_zero

    def test_elementary_sum_is_identity(self, Q):
        rk = RankVector(1, (2, 0))
        one = Q.one()
        assert elementary(0, 0, one, rk) + elementary(1, 1, one, rk) \
            == identity_matrix(Q, rk)

    def test_g_of_zero_is_identity(self, H, units):
        rk = rank_even((1, 1, 1, 1))
        assert unitriangular_g(1, 0, H.zero(), rk, H) == identity_matrix(H, rk)

    def test_g_degree_enforced(self, H, units):
        i, j, _ = units
        rk = rank_even((1, 1, 1, 1))
        # w_1 + w_2 = (0,1,1): the i slot, so j is rejected
        assert unitriangular_g(0, 1, i, rk).degree.is_zero
        with pytest.raises(HomogeneityError):
            unitriangular_g(0, 1, j, rk)

    def test_associativity_and_distributivity(self, H, rng):
        rk = rank_even((1, 1, 1, 1))
        X, Y, Z = (random_matrix(rng, H, rk) for _ in range(3))
        assert mat_mul(mat_mul(X, Y), Z) == mat_mul(X, mat_mul(Y, Z))
        assert mat_mul(X, Y + Z) == mat_mul(X, Y) + mat_mul(X, Z)

    def test_degree_additivity(self, H, units, rng):
        i, j, _ = units
        rk = rank_even((1, 1, 1, 1))
        X = scalar_mul(i, random_matrix(rng, H, rk))
        Y = scalar_mul(j, random_matrix(rng, H, rk))
        assert mat_mul(X, Y).degree == X.degree + Y.degree
        assert check_homogeneous(mat_mul(X, Y))


class TestDecomposition:
    def test_signed_elementary_reconstruction(self, H, units, rng):
        # X = sum (-1)^<w_a+w_b+x, w_a> x_ab E_ab with the module action
        i, _, _ = units
        rk = rank_even((1, 1, 1, 1))
        for X in (random_matrix(rng, H, rk),
                  scalar_mul(i, random_matrix(rng, H, rk))):
            total = zero_matrix(H, rk, X.degree)
            for sign, v, a, b in decompose_elementary(X):
                term = scalar_mul(v, elementary(a, b, H.one(), rk))
                total = total + (term if sign > 0 else -term)
            assert total == X


class TestCommutator:
    def test_identity_commutes(self, H, rng):
        rk = rank_even((1, 1, 1, 1))
        X = random_matrix(rng, H, rk)
        assert commutator(identity_matrix(H, rk), X).is_zero

    def test_even_self_commutator_vanishes(self, H, rng):
        rk = rank_even((1, 1, 1, 1))
        X = random_matrix(rng, H, rk)
        assert commutator(X, X).is_zero

    def test_odd_self_commutator_doubles_square(self, EH):
        t1, t2 = EH.odd_generator(1), EH.odd_generator(2)
        rk = RankVector(3, (1, 1, 0, 0, 0, 0, 0, 0))
        X = elementary(0, 0, t1, rk) + elementary(0, 1, t2 * 2, rk)
        assert X.degree.parity == 1
        doubled = mat_pow(X, 2) + mat_pow(X, 2)
        assert commutator(X, X) == doubled

    def test_quaternionic_elementaries(self, H, units):
        rk = rank_even((1, 1, 1, 1))
        one = H.one()
        e12 = elementary(0, 1, one, rk)
        e21 = elementary(1, 0, one, rk)
        expected = elementary(0, 0, one, rk) - elementary(1, 1, one, rk)
        assert commutator(e12, e21) == expected


class TestRedivision:
    def test_purely_even_parity_split_has_empty_odd(self, H, rng):
        X = random_matrix(rng, H, rank_even((1, 1, 1, 1)))
        r = redivide_2x2(X, "parity")
        assert r.x12.shape == (4, 0) and r.x21.shape == (0, 4)
        assert r.x11 == X.with_entries(X.grid())

    def test_supermatrix_split(self, GR):
        rk = RankVector(1, (2, 1))
        X = identity_matrix(GR, rk)
        r = redivide_2x2(X, "parity")
        assert r.x11.shape == (2, 2) and r.x22.shape == (1, 1)

    def test_even_halves(self, H, rng):
        X = random_matrix(rng, H, rank_even((1, 1, 1, 1)))
        r = redivide_2x2(X, "even_halves")
        assert r.x11.shape == (2, 2) and r.x22.shape == (2, 2)
        assert r.x12.entries[0][0] == X.entries[0][2]

    def test_even_halves_needs_purely_even(self, EH):
        rk = RankVector(3, (1, 1, 1, 1, 1, 1, 0, 0))
        X = identity_matrix(EH, rk)
        with pytest.raises(ValueError):
            redivide_2x2(X, "even_halves")
