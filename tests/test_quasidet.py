"""Quasideterminant identities: the definition, heredity, the homological
relations in their sign-exact inverse form, the closed 2x2 and 3-block
inversion formulas, and block UDL/LDU decompositions."""

from fractions import Fraction

import pytest

from gradalg import (NotInvertibleError, RegularityError,
                     SubmatrixNotInvertibleError, block_quasidet, gdet_blocks,
                     invert_2x2_block, invert_3block, ldu_decompose, quasidet,
                     udl_decompose)
from gradalg import ringmat as rm
from gradalg.determinant import gdet_blocks_ldu

from conftest import random_quaternion, random_rational


def rational_grid(Q, rng, n, lo=-9, hi=9):
    return [[Q.scalar(random_rational(rng, lo, hi)) for _ in range(n)]
            for _ in range(n)]


def quaternion_grid(H, rng, n, bound=5):
    return [[random_quaternion(rng, H, bound) for _ in range(n)]
            for _ in range(n)]


def minor_quasidet(grid, del_row, del_col, r, c, ring):
    """Quasideterminant of a deletion submatrix at the surviving labels."""
    n = len(grid)
    sub = [[grid[a][b] for b in range(n) if b != del_col]
           for a in range(n) if a != del_row]
    return quasidet(sub, r - (r > del_row), c - (c > del_col), ring)


class TestQuasidetDefinition:
    def test_one_by_one(self, Q):
        assert quasidet([[Q.scalar(7)]], 0, 0, Q) == Q.scalar(7)

    def test_two_by_two_rational(self, Q):
        g = [[Q.scalar(1), Q.scalar(2)], [Q.scalar(3), Q.scalar(4)]]
        assert quasidet(g, 0, 0, Q) == Q.scalar(Fraction(-1, 2))

    def test_matches_inverse_entry(self, H, rng):
        # |X|_ij = ((X^{-1})_ji)^{-1} for invertible X
        done = 0
        while done < 10:
            g = quaternion_grid(H, rng, 3)
            try:
                inv = rm.mat_inverse(g, H)
                for i in range(3):
                    for j in range(3):
                        if inv[j][i].is_zero:
                            continue
                        assert quasidet(g, i, j, H) == inv[j][i].inverse()
            except (NotInvertibleError, SubmatrixNotInvertibleError):
                continue
            done += 1

    def test_full_formula_3x3(self, Q, rng):
        # |X|_11 = x - b z^-1 e - (a - b z^-1 f)(y - d z^-1 f)^-1 (c - d z^-1 e)
        done = 0
        while done < 10:
            x, a, b, c, y, d, e, f, z = (Q.scalar(random_rational(rng))
                                         for _ in range(9))
            grid = [[x, a, b], [c, y, d], [e, f, z]]
            try:
                zi = z.inverse()
                mid = (y - d * zi * f).inverse()
                want = x - b * zi * e - (a - b * zi * f) * mid * (c - d * zi * e)
                assert quasidet(grid, 0, 0, Q) == want
            except (NotInvertibleError, SubmatrixNotInvertibleError):
                continue
            done += 1

    def test_undefined_reports_submatrix(self, Q):
        g = [[Q.scalar(1), Q.scalar(2)], [Q.scalar(3), Q.zero()]]
        with pytest.raises(SubmatrixNotInvertibleError):
            quasidet(g, 0, 0, Q)


class TestHeredity:
    @pytest.mark.parametrize("alg_name,sizes", [
        ("Q", (2, 1)), ("Q", (1, 2)), ("H", (2, 1)), ("H", (2, 2))])
    def test_hp1(self, alg_name, sizes, Q, H, rng):
        alg = Q if alg_name == "Q" else H
        n = sum(sizes)
        base = 0  # block (1,1)
        done = 0
        while done < 12:
            g = (rational_grid(Q, rng, n) if alg is Q
                 else quaternion_grid(H, rng, n))
            try:
                inner = block_quasidet(g, sizes, 0, 0, alg)
                for a in range(sizes[0]):
                    for b in range(sizes[0]):
                        assert quasidet(inner, a, b, alg) \
                            == quasidet(g, base + a, base + b, alg)
            except (NotInvertibleError, SubmatrixNotInvertibleError):
                continue
            done += 1

    def test_hp_plus(self, H, rng):
        # |(|X|_kk)^{i,j}|_ab = |X^{i,j}|_ab inside block (1,1) of size 3
        sizes = (3, 1)
        done = 0
        while done < 10:
            g = quaternion_grid(H, rng, 4)
            try:
                inner = block_quasidet(g, sizes, 0, 0, H)
                for (i, j, a, b) in ((0, 0, 1, 1), (0, 1, 2, 2), (1, 2, 0, 0),
                                     (2, 0, 1, 2)):
                    lhs = minor_quasidet(inner, i, j, a, b, H)
                    rhs = minor_quasidet(g, i, j, a, b, H)
                    assert lhs == rhs
            except (NotInvertibleError, SubmatrixNotInvertibleError):
                continue
            done += 1

    def test_single_block_partition(self, H, rng):
        g = quaternion_grid(H, rng, 2)
        assert block_quasidet(g, (2,), 0, 0, H) == g

    def test_off_diagonal_block(self, H, rng):
        # |X|_{12} of a 2-block matrix: X_12 - X_11 X_21^-1 X_22
        done = 0
        while done < 8:
            g = quaternion_grid(H, rng, 2)
            x11, x12, x21, x22 = g[0][0], g[0][1], g[1][0], g[1][1]
            if x21.is_zero:
                continue
            got = block_quasidet(g, (1, 1), 0, 1, H)
            assert got[0][0] == x12 - x11 * x21.inverse() * x22
            done += 1

    def test_block_diagonal(self, H, rng):
        g = quaternion_grid(H, rng, 4)
        for r in range(2):
            for c in range(2, 4):
                g[r][c] = H.zero()
                g[c][r] = H.zero()
        want = [row[:2] for row in g[:2]]
        got = block_quasidet(g, (2, 2), 0, 0, H)
        assert rm.grids_equal(got, want)


class TestHomologicalRelations:
    @pytest.mark.parametrize("alg_name", ["Q", "H"])
    def test_sign_exact_forms(self, alg_name, Q, H, rng):
        alg = Q if alg_name == "Q" else H
        n = 3
        done = 0
        while done < 15:
            g = (rational_grid(Q, rng, n) if alg is Q
                 else quaternion_grid(H, rng, n))
            i, j = rng.randrange(n), rng.randrange(n)
            l = rng.choice([c for c in range(n) if c != j])
            r = rng.choice([a for a in range(n) if a != i])
            k = rng.choice([a for a in range(n) if a != i])
            s = rng.choice([c for c in range(n) if c != j])
            try:
                row_lhs = quasidet(g, i, j, alg) \
                    * minor_quasidet(g, i, l, r, j, alg).inverse()
                row_rhs = quasidet(g, i, l, alg) \
                    * minor_quasidet(g, i, j, r, l, alg).inverse()
                assert row_lhs == -row_rhs
                col_lhs = minor_quasidet(g, k, j, i, s, alg).inverse() \
                    * quasidet(g, i, j, alg)
                col_rhs = minor_quasidet(g, i, j, k, s, alg).inverse() \
                    * quasidet(g, k, j, alg)
                assert col_lhs == -col_rhs
            except (NotInvertibleError, SubmatrixNotInvertibleError):
                continue
            done += 1


class TestClosedInverses:
    def test_2x2_block_formula(self, H, rng):
        done = 0
        while done < 10:
            g = quaternion_grid(H, rng, 3)
            try:
                inv = invert_2x2_block(g, (1, 2), H)
            except NotInvertibleError:
                continue
            assert rm.grids_equal(rm.mat_mul(g, inv), rm.identity(H, 3))
            assert rm.grids_equal(rm.mat_mul(inv, g), rm.identity(H, 3))
            done += 1

    def test_2x2_diagonal(self, Q):
        g = [[Q.scalar(2), Q.zero()], [Q.zero(), Q.scalar(5)]]
        inv = invert_2x2_block(g, (1, 1), Q)
        assert inv[0][0] == Q.scalar(Fraction(1, 2))
        assert inv[1][1] == Q.scalar(Fraction(1, 5))

    def test_2x2_identity(self, H):
        g = rm.identity(H, 4)
        assert rm.grids_equal(invert_2x2_block(g, (2, 2), H), g)

    def test_2x2_matches_adjugate(self, Q, rng):
        done = 0
        while done < 15:
            a, b, c, d = (Q.scalar(random_rational(rng)) for _ in range(4))
            det = a * d - b * c
            if det.is_zero or d.is_zero:
                continue
            g = [[a, b], [c, d]]
            try:
                inv = invert_2x2_block(g, (1, 1), Q)
            except NotInvertibleError:
                continue
            di = det.inverse()
            want = [[d * di, -b * di], [-c * di, a * di]]
            assert rm.grids_equal(inv, want)
            done += 1

    def test_3block_formula(self, H, rng):
        done = 0
        while done < 10:
            g = quaternion_grid(H, rng, 4)
            for r in (0, 2, 3):  # blocks (1,2) and (3,2) vanish
                g[r][1] = H.zero()
            try:
                inv = invert_3block(g, (1, 1, 2), H)
            except NotInvertibleError:
                continue
            assert rm.grids_equal(rm.mat_mul(g, inv), rm.identity(H, 4))
            done += 1

    def test_3block_zero_pattern_in_inverse(self, Q, rng):
        done = 0
        while done < 5:
            g = rational_grid(Q, rng, 3)
            g[0][1] = Q.zero()
            g[2][1] = Q.zero()
            try:
                inv = invert_3block(g, (1, 1, 1), Q)
            except NotInvertibleError:
                continue
            assert inv[0][1].is_zero and inv[2][1].is_zero
            done += 1

    def test_3block_no_coupling_keeps_zeros(self, H, rng):
        # C = E = 0 makes the middle row of the inverse diag(0, D^-1, 0)
        done = 0
        while done < 5:
            g = quaternion_grid(H, rng, 3)
            g[0][1] = g[2][1] = H.zero()
            g[1][0] = g[1][2] = H.zero()
            try:
                inv = invert_3block(g, (1, 1, 1), H)
            except NotInvertibleError:
                continue
            assert inv[1][0].is_zero and inv[1][2].is_zero
            assert inv[1][1] == g[1][1].inverse()
            done += 1

    def test_3block_requires_zero_blocks(self, Q, rng):
        g = rational_grid(Q, rng, 3)
        g[0][1] = Q.scalar(1)
        with pytest.raises(ValueError):
            invert_3block(g, (1, 1, 1), Q)

    def test_3block_blockdiagonal(self, Q):
        g = [[Q.scalar(2), Q.zero(), Q.zero()],
             [Q.zero(), Q.scalar(3), Q.zero()],
             [Q.zero(), Q.zero(), Q.scalar(4)]]
        inv = invert_3block(g, (1, 1, 1), Q)
        assert inv[0][0] == Q.scalar(Fraction(1, 2))
        assert inv[1][1] == Q.scalar(Fraction(1, 3))
        assert inv[2][2] == Q.scalar(Fraction(1, 4))


class TestUDL:
    @pytest.mark.parametrize("sizes", [(1, 1, 1), (1, 2, 1), (2, 2), (1, 1, 1, 1)])
    def test_reconstruction(self, sizes, H, rng):
        n = sum(sizes)
        done = 0
        while done < 8:
            g = quaternion_grid(H, rng, n)
            try:
                fac = udl_decompose(g, sizes, H)
            except RegularityError:
                continue
            assert rm.grids_equal(rm.mat_mul(fac.U, rm.mat_mul(fac.D, fac.L)), g)
            lfac = ldu_decompose(g, sizes, H)
            assert rm.grids_equal(
                rm.mat_mul(lfac.L, rm.mat_mul(lfac.D, lfac.U)), g)
            done += 1

    def test_frak_forms(self, H, rng):
        done = 0
        while done < 6:
            g = quaternion_grid(H, rng, 3)
            try:
                fac = udl_decompose(g, (1, 1, 1), H)
                d_inv = rm.mat_inverse(fac.D, H)
            except (RegularityError, NotInvertibleError):
                continue
            assert rm.grids_equal(
                rm.mat_mul(fac.frak_u, rm.mat_mul(d_inv, fac.frak_l)), g)
            assert rm.grids_equal(fac.frak_u, rm.mat_mul(fac.U, fac.D))
            done += 1

    def test_frak_entries_are_quasiminors(self, H, rng):
        # frak_U_{ku} = |X^{1..k^..u, 1..(u-1)}|_{ku} for k <= u
        done = 0
        while done < 6:
            g = quaternion_grid(H, rng, 3)
            try:
                fac = udl_decompose(g, (1, 1, 1), H)
                # (1,2) entry: delete rows {1..2}\{1} = {2}, columns {1}
                sub12 = [[g[r][c] for c in (1, 2)] for r in (0, 2)]
                want12 = block_quasidet(sub12, (1, 1), 0, 0, H)[0][0]
                # (2,3) entry: delete rows {1..3}\{2} = {1,3}, columns {1,2}
                want23 = g[1][2]
                # diagonal of D: principal quasiminors
                want_d = (quasidet(g, 0, 0, H),
                          minor_quasidet(g, 0, 0, 1, 1, H),
                          g[2][2])
            except (RegularityError, NotInvertibleError,
                    SubmatrixNotInvertibleError):
                continue
            assert fac.frak_u[0][1] == want12
            assert fac.frak_u[1][2] == want23
            assert (fac.D[0][0], fac.D[1][1], fac.D[2][2]) == want_d
            done += 1

    def test_2x2_schur_shapes(self, H, rng):
        done = 0
        while done < 6:
            g = quaternion_grid(H, rng, 2)
            try:
                fac = udl_decompose(g, (1, 1), H)
                lfac = ldu_decompose(g, (1, 1), H)
            except RegularityError:
                continue
            # UDL middle: diag(a - b d^-1 c, d); LDU middle: diag(a, d - c a^-1 b)
            a, b, c, d = g[0][0], g[0][1], g[1][0], g[1][1]
            assert fac.D[0][0] == a - b * d.inverse() * c
            assert fac.D[1][1] == d
            assert lfac.D[0][0] == a
            assert lfac.D[1][1] == d - c * a.inverse() * b
            done += 1

    def test_block_diagonal_factors_trivial(self, H, rng):
        g = quaternion_grid(H, rng, 4)
        for r in range(2):
            for c in range(2, 4):
                g[r][c] = H.zero()
                g[c][r] = H.zero()
        try:
            fac = udl_decompose(g, (2, 2), H)
        except RegularityError:
            pytest.skip("sampled singular block")
        assert rm.grids_equal(fac.U, rm.identity(H, 4))
        assert rm.grids_equal(fac.L, rm.identity(H, 4))
        assert rm.grids_equal(fac.D, g)

    def test_uniqueness(self, H, rng):
        # build U D L explicitly, multiply, decompose, recover the factors
        done = 0
        while done < 8:
            u01, u02, u12 = (random_quaternion(rng, H) for _ in range(3))
            l10, l20, l21 = (random_quaternion(rng, H) for _ in range(3))
            d = [random_quaternion(rng, H, nonzero=True) for _ in range(3)]
            one, zero = H.one(), H.zero()
            U = [[one, u01, u02], [zero, one, u12], [zero, zero, one]]
            L = [[one, zero, zero], [l10, one, zero], [l20, l21, one]]
            D = [[d[0], zero, zero], [zero, d[1], zero], [zero, zero, d[2]]]
            X = rm.mat_mul(U, rm.mat_mul(D, L))
            try:
                fac = udl_decompose(X, (1, 1, 1), H)
            except RegularityError:
                continue
            assert rm.grids_equal(fac.U, U)
            assert rm.grids_equal(fac.D, D)
            assert rm.grids_equal(fac.L, L)
            done += 1

    @pytest.mark.parametrize("func", [udl_decompose, ldu_decompose],
                             ids=["udl_decompose", "ldu_decompose"])
    def test_empty_partition(self, func, H):
        # the 0x0 matrix factors into empty grids, as gdet_blocks gives it 1
        fac = func([], (), H)
        assert (fac.U, fac.D, fac.L, fac.frak_u, fac.frak_l) == ([], [], [], [], [])
        assert gdet_blocks([], (), H).value == H.one()

    @pytest.mark.parametrize("func,order", [
        (udl_decompose, "udl"), (gdet_blocks, "udl"),
        (ldu_decompose, "ldu"), (gdet_blocks_ldu, "ldu")],
        ids=["udl_decompose", "gdet_blocks", "ldu_decompose", "gdet_blocks_ldu"])
    def test_regularity_failure_names_submatrix(self, func, order, Q):
        # X^{a..b,a..b} deletes blocks a..b; what is left failed to invert
        zero, one = Q.zero(), Q.scalar(1)
        # all ones: blocks 1 and 3 invert, blocks 1..2 and 2..3 do not
        ones = [[one] * 3 for _ in range(3)]
        # a zero in the corner the route inverts first
        corner = ([[one, one], [one, zero]] if order == "udl"
                  else [[zero, one], [one, one]])
        want = {"udl": ("X^{1..1,1..1}", "X^{1..1,1..1}"),
                "ldu": ("X^{3..3,3..3}", "X^{2..2,2..2}")}[order]
        for grid, sizes, name in ((ones, (1, 1, 1), want[0]),
                                  (corner, (1, 1), want[1])):
            with pytest.raises(RegularityError) as info:
                func(grid, sizes, Q)
            assert info.value.principal == name
            assert name in str(info.value)
