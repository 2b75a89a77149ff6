"""Graded Berezinian: the odd-ideal invertibility test and the inverse it
admits, the defining axioms, multiplicativity, the classical reduction, and the
Liouville identity over the truncated zeta ring."""

from fractions import Fraction

import pytest

from gradalg import (GradedMatrix, GroupElement, NilpotentPoly,
                     NotInvertibleError, RankVector, RegularityError, SeriesRing,
                     gber, gdet0, gtr, identity_matrix, invert0, is_invertible0,
                     liouville_check, mat_add, mat_mul, matrix_exp_zeta,
                     odd_sandwich_check, quaternion_units, redivide_2x2, series_matrix)
from gradalg import ringmat as rm
from gradalg.randgen import random_invertible, random_matrix

from reference_data import rank_even

RK_EXT = RankVector(3, (1, 1, 1, 1, 1, 1, 0, 0))


def sample_gber_pair(rng, alg, rk):
    while True:
        X = random_invertible(rng, alg, rk)
        Y = random_invertible(rng, alg, rk)
        try:
            return X, Y, gber(X), gber(Y), gber(mat_mul(X, Y))
        except (RegularityError, NotInvertibleError):
            continue


class TestInvertibility:
    def test_identity(self, EH):
        assert is_invertible0(identity_matrix(EH, RK_EXT))

    def test_unitriangular_with_odd_blocks(self, EH, rng):
        X = random_matrix(rng, EH, RK_EXT)
        grid = X.grid()
        one = EH.one()
        for r in range(6):
            for c in range(6):
                if r == c:
                    grid[r][c] = one
                elif r > c:
                    grid[r][c] = EH.zero()
        X = X.with_entries(grid)
        assert is_invertible0(X)
        inv = invert0(X)
        assert rm.grids_equal(rm.mat_mul(X.grid(), inv.grid()),
                              rm.identity(EH, 6))

    def test_nilpotent_diagonal_fails(self, EH):
        # a diagonal entry from the odd ideal (here i theta1 theta2, which has
        # degree 0) strips to zero, so the matrix is singular
        from gradalg import check_homogeneous, quaternion_units
        i, _, _ = quaternion_units(EH)
        rk = RankVector(3, (0, 0, 0, 0, 1, 0, 0, 0))
        grid = [[i * EH.odd_generator(1) * EH.odd_generator(2)]]
        X = GradedMatrix(EH, rk, rk, GroupElement.zero(3), grid)
        assert check_homogeneous(X)
        assert not is_invertible0(X)
        with pytest.raises(NotInvertibleError):
            invert0(X)

    def test_nilpotent_entry_is_skipped_as_pivot(self, EH):
        # the (1,1) entry i theta1 theta2 is nonzero but strips to zero, so
        # elimination must take its pivot from the second row
        from gradalg import check_homogeneous, quaternion_units
        i, _, _ = quaternion_units(EH)
        t12 = EH.odd_generator(1) * EH.odd_generator(2)
        rk = RankVector(3, (0, 0, 0, 0, 1, 1, 0, 0))
        grid = [[i * t12, i * 2], [i * 3 + t12, EH.one() + i * t12 * 2]]
        X = GradedMatrix(EH, rk, rk, GroupElement.zero(3), grid)
        assert check_homogeneous(X)
        assert is_invertible0(X)
        inv = invert0(X).grid()
        assert rm.grids_equal(rm.mat_mul(X.grid(), inv), rm.identity(EH, 2))
        assert rm.grids_equal(rm.mat_mul(inv, X.grid()), rm.identity(EH, 2))

    @pytest.mark.parametrize("ranks", [(1, 1, 1, 1, 1, 1, 0, 0),
                                       (1, 0, 1, 1, 1, 1, 1, 0)])
    def test_refuses_exactly_the_singular(self, EH, ranks):
        # entries zeroed at random make both outcomes common
        import random
        rng = random.Random(4401)
        rk = RankVector(3, ranks)
        n = rk.total
        refused = 0
        for _ in range(24):
            grid = [[EH.zero() if rng.random() < 0.3 else v for v in row]
                    for row in random_matrix(rng, EH, rk).entries]
            X = GradedMatrix(EH, rk, rk, GroupElement.zero(3), grid)
            if not is_invertible0(X):
                refused += 1
                with pytest.raises(NotInvertibleError):
                    invert0(X)
                continue
            inv = invert0(X).grid()
            assert rm.grids_equal(rm.mat_mul(X.grid(), inv), rm.identity(EH, n))
            assert rm.grids_equal(rm.mat_mul(inv, X.grid()), rm.identity(EH, n))
        assert 0 < refused < 24

    def test_invert0_refuses_exactly_the_non_invertible(self, EH):
        # plain random_matrix draws, so singular matrices occur unfiltered
        import random
        rng = random.Random(4402)
        refused = 0
        for _ in range(200):
            X = random_matrix(rng, EH, RK_EXT)
            if is_invertible0(X):
                invert0(X)
                continue
            refused += 1
            with pytest.raises(NotInvertibleError):
                invert0(X)
        assert 0 < refused < 200

    def test_invertible_draws_are_pinned(self, H, EH):
        # SHA-256 of the draws as computed by the Gauss-Jordan test, so the
        # rejection sampler accepts the same matrices after the same draws
        import hashlib
        import random
        from gradalg.jsonio import canonical_json, matrix_to_json
        cases = [(H, rank_even((2, 2, 2, 2))), (H, rank_even((7, 1, 0, 0))),
                 (EH, RK_EXT)]
        rng = random.Random(1313)
        draws = [matrix_to_json(random_invertible(rng, alg, rk))
                 for alg, rk in cases for _ in range(8)]
        assert hashlib.sha256(canonical_json(draws).encode()).hexdigest() == (
            "bc2400d1efdadf3f4200e37b049456ae406b7a94bc5f21294efa59292812b249")

    def test_inverse_is_two_sided(self, EH, rng):
        for _ in range(5):
            X = random_invertible(rng, EH, RK_EXT)
            inv = invert0(X)
            assert rm.grids_equal(rm.mat_mul(X.grid(), inv.grid()),
                                  rm.identity(EH, 6))
            assert rm.grids_equal(rm.mat_mul(inv.grid(), X.grid()),
                                  rm.identity(EH, 6))

    def test_inverse_preserves_homogeneity(self, EH, rng):
        from gradalg import check_homogeneous
        X = random_invertible(rng, EH, RK_EXT)
        assert check_homogeneous(invert0(X))


def series_corner_answer(X):
    """is_invertible0 by elimination over the series entries themselves, each
    coefficient reduced mod the odd ideal: the test before the residue map."""
    def strip(v):
        if isinstance(v, NilpotentPoly):
            return NilpotentPoly(v.ring, (c.strip_odd() for c in v.coeffs))
        return v.strip_odd()
    r = redivide_2x2(X, "parity")
    return all(rm.is_nonsingular([[strip(v) for v in row] for row in corner.entries])
               for corner in (r.x11, r.x22))


def series_grid_matrix(sring, rk, grid):
    """Degree-0 matrix over sring from a grid of coefficient tuples."""
    return GradedMatrix(sring, rk, rk, GroupElement.zero(rk.m),
                        [[NilpotentPoly(sring, coeffs) for coeffs in row] for row in grid])


class TestResidueInvertibility:
    """is_invertible0 eliminates over the residues of the entries, with zeta
    and the odd symbols sent to 0; the answer must be the one elimination
    over the series entries gives."""

    def check(self, X, want):
        assert series_corner_answer(X) is want
        assert is_invertible0(X) is want

    def test_zeta_multiples_before_a_unit(self, H, units):
        # column 0 offers zeta, then zeta i, then the unit i: the first two
        # are nonzero series with zero residue and must be passed over
        i, _, _ = units
        ring = SeriesRing(H, 4)
        rk = rank_even((1, 2, 0, 0))
        z, one = H.zero(), H.one()
        grid = [[(z, one), (i,), ()],
                [(z, i), (one,), (one,)],
                [(i,), (), (one,)]]
        self.check(series_grid_matrix(ring, rk, grid), True)
        # rows 0 and 1 now agree mod zeta up to the left factor i
        grid[1] = [(z, i), (one,), (z, one)]
        grid[2] = [(i,), (z, one), (-one,)]
        self.check(series_grid_matrix(ring, rk, grid), False)

    def test_odd_nilpotent_tail_over_extended_h(self, EH):
        # constant terms i t1 t2 (residue 0, yet nonzero) and 1 + 2 i t1 t2
        # (residue 1), with zeta terms of the same degrees
        from gradalg import check_homogeneous, quaternion_units
        i, _, _ = quaternion_units(EH)
        t12 = EH.odd_generator(1) * EH.odd_generator(2)
        ring = SeriesRing(EH, 3)
        rk = RankVector(3, (0, 0, 0, 0, 1, 1, 0, 0))
        grid = [[(i * t12, EH.one()), (i * 2,)],
                [(i * 3 + t12, t12), (EH.one() + i * t12 * 2, EH.one(), i * t12)]]
        X = series_grid_matrix(ring, rk, grid)
        assert check_homogeneous(X)
        self.check(X, True)
        grid[1][0] = (t12, i)
        self.check(series_grid_matrix(ring, rk, grid), False)

    def test_repeated_row_is_singular(self, H):
        ring = SeriesRing(H, 3)
        one = H.one()
        grid = [[(one,), (H.zero(), one)], [(one,), (H.zero(), one)]]
        self.check(series_grid_matrix(ring, rank_even((2, 0, 0, 0)), grid), False)

    def test_zeta_alone(self, H):
        ring = SeriesRing(H, 2)
        self.check(series_grid_matrix(ring, rank_even((1, 0, 0, 0)),
                                      [[(H.zero(), H.one())]]), False)

    # zero_rate: share of constant terms zeroed; random extended-H matrices
    # with odd blocks are mostly singular already
    @pytest.mark.parametrize("alg_name, ranks, zero_rate", [
        ("H", (1, 1, 2, 1, 0, 0, 0, 0), 0.4),
        ("EH", (1, 1, 1, 1, 1, 1, 0, 0), 0.0),
        ("Cl11", (1, 1, 1, 0, 0, 0, 0, 0), 0.2)])
    def test_sweep_matches_series_elimination(self, alg_name, ranks, zero_rate, H, EH):
        import random
        from gradalg import Algebra
        alg = {"H": H, "EH": EH, "Cl11": Algebra(1, 1)}[alg_name]
        rk = RankVector(3, ranks)
        rng = random.Random(1415)
        seen = {True: 0, False: 0}
        for order in range(1, 7):
            ring = SeriesRing(alg, order)
            X = random_matrix(rng, alg, rk, bound=3)
            self.check(matrix_exp_zeta(X, ring), True)
            # a lift is invertible exactly when its zeta^0 part is
            self.check(series_matrix(X, ring), is_invertible0(X))
            self.check(series_matrix(X, ring, 1), False)
            for _ in range(8):
                # entries with a zero residue but a nonzero zeta part come
                # from zeroed constant terms and from pure odd ones
                coeffs = [random_matrix(rng, alg, rk, bound=3).entries
                          for _ in range(order)]
                grid = [[tuple(alg.zero() if k == 0 and rng.random() < zero_rate else c[r][col]
                               for k, c in enumerate(coeffs))
                         for col in range(rk.total)] for r in range(rk.total)]
                X = series_grid_matrix(ring, rk, grid)
                want = series_corner_answer(X)
                assert is_invertible0(X) is want
                seen[want] += 1
        assert min(seen.values()) >= 4

    def test_no_series_inverse_is_formed(self, H, rng, monkeypatch):
        def refuse(self):
            raise AssertionError("series inverse formed")
        X = random_matrix(rng, H, rank_even((1, 1, 2, 1)), bound=6)
        E = matrix_exp_zeta(X, SeriesRing(H, 6))
        monkeypatch.setattr(NilpotentPoly, "inverse", refuse)
        assert is_invertible0(E)


def redivided_answer(X):
    """is_invertible0 before its corners were sliced from the entries: the
    residues of redivide_2x2's x11 and then x22."""
    r = redivide_2x2(X, "parity")
    return all(rm.is_nonsingular([[v.residue() for v in row] for row in corner.entries])
               for corner in (r.x11, r.x22))


class TestSlicedCorners:
    """is_invertible0 cuts the corners at the parity split and tests the
    smaller first; the answer must be the redivision's."""

    @pytest.mark.parametrize("alg_name, ranks", [
        ("H", (2, 1, 1, 0, 0, 0, 0, 0)),     # no odd corner
        ("H", (0, 0, 0, 0, 1, 1, 1, 0)),     # no even corner
        ("EH", (1, 1, 1, 1, 1, 1, 0, 0)),    # even corner larger
        ("EH", (1, 0, 0, 0, 2, 1, 0, 0)),    # odd corner larger
        ("EH", (1, 0, 0, 0, 1, 0, 0, 0))])   # a tie
    def test_matches_redivision(self, alg_name, ranks, H, EH):
        import random
        alg = {"H": H, "EH": EH}[alg_name]
        rk = RankVector(3, ranks)
        rng = random.Random(1601)
        seen = {True: 0, False: 0}
        for k in range(60):
            X = random_matrix(rng, alg, rk, bound=2)
            want = redivided_answer(X)
            assert is_invertible0(X) is want
            seen[want] += 1
            ring = SeriesRing(alg, 1 + k % 4)
            for S in (series_matrix(X, ring), series_matrix(X, ring, 1),
                      matrix_exp_zeta(X, ring)):
                assert is_invertible0(S) is redivided_answer(S)
        assert min(seen.values()) >= 5


class TestIntegerCorners:
    """A corner whose residue obeys the degree law is decided by Bareiss on
    the signed rational image S o C; the answer must be the residue
    elimination's, and any other corner goes through that elimination."""

    @pytest.mark.parametrize("alg_name, ranks", [
        ("H", (1, 1, 2, 1, 0, 0, 0, 0)),
        ("H", (0, 0, 0, 0, 1, 1, 1, 0)),
        ("EH", (1, 1, 1, 1, 1, 1, 0, 0)),
        ("EH", (1, 0, 0, 0, 2, 1, 0, 0)),
        ("Cl11", (1, 1, 1, 0, 0, 0, 0, 0)),
        ("Cl11", (0, 0, 0, 0, 1, 0, 1, 1)),
        ("Cl03", (1, 0, 1, 1, 0, 0, 1, 0) + (0,) * 8),
        ("Cl03", (0,) * 8 + (1, 0, 0, 1, 0, 0, 1, 0)),
        ("GR", (2, 2)),
        ("GR", (3, 1))])
    @pytest.mark.parametrize("bound", [1, 2, 9])
    def test_matches_residue_elimination(self, alg_name, ranks, bound, H, EH, GR):
        import random
        from gradalg import Algebra
        alg = {"H": H, "EH": EH, "Cl11": Algebra(1, 1), "Cl03": Algebra(0, 3),
               "GR": GR}[alg_name]
        rk = RankVector(alg.arity, ranks)
        rng = random.Random(1802 + bound)
        weights = rk.weights
        seen = set()
        for k in range(40):
            X = random_matrix(rng, alg, rk, bound=bound)
            # a row copied onto a later row of the same weight makes a
            # singular corner that need not contain a zero entry
            r = next((r for r in range(1, len(weights)) if weights[r] == weights[0]), None)
            copied = X.grid()
            if r is not None:
                copied[r] = copied[0][:]
            mats = [X, X.with_entries(copied)]
            if k % 4 == 0:
                ring = SeriesRing(alg, 1 + k % 3)
                mats += [series_matrix(X, ring), series_matrix(X, ring, 1),
                         matrix_exp_zeta(X, ring)]
            for M in mats:
                want = redivided_answer(M)
                assert is_invertible0(M) is want
                seen.add(want)
        assert seen == {True, False}

    def test_sign_decides(self, H, units):
        # over weights 0 and deg i: S = [[1, 1], [-1, 1]] since i^2 = -1, so
        # [[1, i], [i, 1]] is invertible although C = [[1, 1], [1, 1]] is
        # singular, and [[1, i], [-i, 1]] is singular although C is not
        i = units[0]
        rk = rank_even((1, 1, 0, 0))
        one = H.one()
        for grid, want in (([[one, i], [i, one]], True), ([[one, i], [-i, one]], False),
                           ([[one, i * 2], [i, -one]], True), ([[one, i * 2], [-i, -one]], True)):
            X = GradedMatrix(H, rk, rk, GroupElement.zero(3), grid)
            assert redivided_answer(X) is want
            assert is_invertible0(X) is want

    def test_row_swap_and_denominators(self, H, units, monkeypatch):
        # the first column's leading residue is zero, and entries carry
        # different denominators within a row
        from gradalg import berezinian
        eliminate = berezinian.rm.bareiss_nonsingular
        kernel_calls = []
        monkeypatch.setattr(rm, "bareiss_nonsingular",
                            lambda rows: kernel_calls.append(rows) or eliminate(rows))
        i, j, k = units
        rk = rank_even((1, 1, 1, 0))
        z, half = H.zero(), Fraction(1, 2)
        grid = [[z, i * half, j * Fraction(1, 3)],
                [i * Fraction(2, 5), H.scalar(Fraction(1, 7)), k],
                [j, k * 3, H.scalar(half)]]
        X = GradedMatrix(H, rk, rk, GroupElement.zero(3), grid)
        assert is_invertible0(X) is redivided_answer(X) is True
        # k times row 1 is a row of row 2's weight, so this corner is singular
        grid[2] = [k * x for x in grid[1]]
        X = GradedMatrix(H, rk, rk, GroupElement.zero(3), grid)
        assert is_invertible0(X) is redivided_answer(X) is False
        # both matrices went to the kernel (after their empty odd corners);
        # row 2 of the second reads S o C = (-2/5, 1/7, -1), times 35
        assert [len(rows) for rows in kernel_calls] == [0, 3, 0, 3]
        assert kernel_calls[3][2] == [-14, 5, -35]

    def test_off_law_corner_uses_residue_elimination(self, H, units, monkeypatch):
        i, j, _ = units
        one = H.one()
        rk = rank_even((2, 0, 0, 0))
        calls = []
        eliminate = rm.is_nonsingular

        def counted(grid):
            calls.append(len(grid))
            return eliminate(grid)
        monkeypatch.setattr(rm, "is_nonsingular", counted)
        # 1 + i has two terms; i sits where the law wants a rational
        for grid in ([[one + i, one], [one, one - i]], [[one + i, one + i], [one, one]],
                     [[i, H.zero()], [H.zero(), one]], [[i, j], [j * i, one]]):
            X = GradedMatrix(H, rk, rk, GroupElement.zero(3), grid)
            calls.clear()
            got = is_invertible0(X)
            assert calls == [2]
            calls.clear()
            assert got is redivided_answer(X)
        X = GradedMatrix(H, rk, rk, GroupElement.zero(3), [[one, one], [one, -one]])
        calls.clear()
        assert is_invertible0(X) is True
        assert calls == []
        # ranks of another arity than H's give no degree units, hence no law
        rk1 = RankVector(1, (2, 0))
        X = GradedMatrix(H, rk1, rk1, GroupElement.zero(1), [[one, i], [i, one]])
        calls.clear()
        assert is_invertible0(X) is True
        assert calls == [2]

    def test_law_abiding_corner_forms_no_scalar_work(self, H, EH, monkeypatch):
        import random
        from gradalg import Element, berezinian
        rng = random.Random(1803)
        cases = []
        for alg, rk in ((H, rank_even((2, 1, 1, 2))), (EH, RK_EXT)):
            for _ in range(30):
                X = random_matrix(rng, alg, rk, bound=2)
                cases.append((X, redivided_answer(X)))
        assert {want for _, want in cases} == {True, False}

        def refuse(*args):
            raise AssertionError("scalar inverse, product or residue elimination formed")
        berezinian._corner_laws.cache_clear()
        monkeypatch.setattr(Element, "inverse", refuse)
        monkeypatch.setattr(Element, "_dot", refuse)
        monkeypatch.setattr(rm, "is_nonsingular", refuse)
        for X, want in cases:
            assert is_invertible0(X) is want

    def test_odd_terms_read_without_residue(self, EH, monkeypatch):
        import random
        from gradalg import Element, berezinian
        i, j, _ = quaternion_units(EH)
        t1, t2 = EH.odd_generator(1), EH.odd_generator(2)
        one, law = EH.one(), ((0, 1),)
        # the odd term stays in the denominator: 3/4 + (5/6) t1 t2 reads 9/12
        assert berezinian._signed_row([one * Fraction(3, 4) + t1 * t2 * Fraction(5, 6)],
                                      law) == [9]
        assert berezinian._signed_row([t1 * t2 * 5], law) == [0]
        assert berezinian._signed_row([one + i + t1 * t2], law) is None
        assert berezinian._signed_row([i * t1 * t2], law) == [0]
        # the same rows up to positive scaling as the residues give
        rng = random.Random(2004)
        cases = []
        for _ in range(60):
            X = random_matrix(rng, EH, RK_EXT, bound=2)
            cases.append((X, redivided_answer(X)))
        assert {want for _, want in cases} == {True, False}
        assert any(v._num and max(v._num) >= 4 for X, _ in cases for row in X.entries
                   for v in row)

        def refuse(*args):
            raise AssertionError("residue built for an Element entry")
        monkeypatch.setattr(Element, "strip_odd", refuse)
        monkeypatch.setattr(Element, "residue", refuse)
        for X, want in cases:
            assert is_invertible0(X) is want


class TestGberAxioms:
    def test_identity_maps_to_one(self, EH):
        assert gber(identity_matrix(EH, RK_EXT)) == EH.one()

    def test_block_unitriangular_is_one(self, EH, rng):
        # lower 2x2-block unitriangular under the parity redivision
        done = 0
        while done < 8:
            X = random_matrix(rng, EH, RK_EXT)
            grid = X.grid()
            one = EH.one()
            for r in range(6):
                for c in range(6):
                    if r == c:
                        grid[r][c] = one
                    elif (r < 4 and c < 4) or (r >= 4 and c >= 4) or (r < 4 <= c):
                        grid[r][c] = EH.zero() if r != c else one
            X = X.with_entries(grid)
            try:
                assert gber(X) == EH.one()
            except RegularityError:
                continue
            done += 1

    def test_block_diagonal_splits(self, EH, rng):
        done = 0
        while done < 6:
            X = random_invertible(rng, EH, RK_EXT)
            grid = X.grid()
            for r in range(6):
                for c in range(6):
                    if (r < 4) != (c < 4):
                        grid[r][c] = EH.zero()
            X = X.with_entries(grid)
            if not is_invertible0(X):
                continue
            even = [row[:4] for row in grid[:4]]
            odd = [[grid[r][c] for c in (4, 5)] for r in (4, 5)]
            from gradalg.determinant import gdet_blocks
            try:
                want = gdet_blocks(even, [1, 1, 1, 1], EH).value \
                    * gdet_blocks(odd, [1, 1], EH).value.inverse()
                assert gber(X) == want
            except RegularityError:
                continue
            done += 1

    def test_classical_berezinian_formula(self, GR, rng):
        # n = 1: gber equals det(A - B D^-1 C) det(D)^-1 over the even part
        rk = RankVector(1, (2, 2))
        done = 0
        while done < 10:
            grid = []
            t1, t2 = GR.odd_generator(1), GR.odd_generator(2)
            for r in range(4):
                row = []
                for c in range(4):
                    even_slot = (r < 2) == (c < 2)
                    if even_slot:
                        v = GR.scalar(rng.randint(-6, 6)) \
                            + t1 * t2 * rng.randint(-3, 3)
                    else:
                        v = t1 * rng.randint(-3, 3) + t2 * rng.randint(-3, 3)
                    row.append(v)
                grid.append(row)
            X = GradedMatrix(GR, rk, rk, GroupElement.zero(1), grid)
            if not is_invertible0(X):
                continue
            A = [row[:2] for row in grid[:2]]
            B = [row[2:] for row in grid[:2]]
            C = [row[:2] for row in grid[2:]]
            D = [row[2:] for row in grid[2:]]
            try:
                core = rm.mat_sub(A, rm.mat_mul(B, rm.mat_mul(
                    rm.mat_inverse(D, GR), C)))
                classical = rm.commutative_det(core, GR) \
                    * rm.commutative_det(D, GR).inverse()
                assert gber(X) == classical
            except NotInvertibleError:
                continue
            done += 1

    def test_purely_even_degenerates_to_gdet(self, H, rng):
        rk = rank_even((1, 1, 1, 1))
        done = 0
        while done < 6:
            X = random_invertible(rng, H, rk)
            try:
                assert gber(X) == gdet0(X)
            except RegularityError:
                continue
            done += 1

    def test_purely_even_needs_no_redivision(self, H, rng, monkeypatch):
        from gradalg import berezinian

        def refuse(*args):
            raise AssertionError("purely even input redivided")
        X = random_invertible(rng, H, rank_even((1, 1, 2, 1)))
        want = gdet0(X)
        monkeypatch.setattr(berezinian, "redivide_2x2", refuse)
        assert gber(X) == want

    def test_schur_corner_matches_product_then_difference(self, EH, rng):
        from gradalg.berezinian import _gdet_either_route
        done = 0
        while done < 6:
            X = random_invertible(rng, EH, RK_EXT)
            r = redivide_2x2(X, "parity")
            x22 = r.x22.grid()
            corner = rm.mat_sub(r.x11.grid(), rm.mat_mul(
                r.x12.grid(), rm.mat_mul(rm.mat_inverse(x22, EH), r.x21.grid())))
            try:
                want = (_gdet_either_route(corner, (1, 1, 1, 1), EH)
                        * _gdet_either_route(x22, (1, 1), EH).inverse())
            except RegularityError:
                with pytest.raises(RegularityError):
                    gber(X)
                continue
            assert gber(X) == want
            done += 1

    def test_multiplicativity(self, EH, rng):
        for _ in range(6):
            _, _, bx, by, bxy = sample_gber_pair(rng, EH, RK_EXT)
            assert bxy == bx * by

    def test_inverse_pairs_to_one(self, EH, rng):
        done = 0
        while done < 5:
            X = random_invertible(rng, EH, RK_EXT)
            try:
                assert gber(X) * gber(invert0(X)) == EH.one()
            except (RegularityError, NotInvertibleError):
                continue
            done += 1

    def test_noninvertible_rejected(self, EH):
        rk = RK_EXT
        X = identity_matrix(EH, rk)
        grid = X.grid()
        grid[0][0] = EH.zero()
        with pytest.raises(NotInvertibleError):
            gber(X.with_entries(grid))


class TestOddSandwich:
    def test_sign_flipped_identity(self, EH, rng):
        done = 0
        while done < 12:
            X = random_matrix(rng, EH, RK_EXT)
            Y = random_matrix(rng, EH, RK_EXT)
            grid = X.grid()
            keep = (rng.randrange(4), 4 + rng.randrange(2))
            for r in range(4):
                for c in range(4, 6):
                    if (r, c) != keep:
                        grid[r][c] = EH.zero()
            X = X.with_entries(grid)
            try:
                lhs, rhs = odd_sandwich_check(X, Y)
            except (RegularityError, NotInvertibleError):
                continue
            assert lhs == rhs
            done += 1


class TestDeterminantDerivative:
    def test_first_order_coefficient(self, H, rng):
        # gdet((I + zM)X) = gdet(X) + z gtr(M) gdet(X) in A[z]/(z^2)
        rk = rank_even((1, 1, 1, 1))
        ring2 = SeriesRing(H, 2)
        done = 0
        while done < 10:
            M = random_matrix(rng, H, rk)
            X = random_invertible(rng, H, rk)
            sM = series_matrix(M, ring2, shift=1)
            sX = series_matrix(X, ring2)
            prod = mat_mul(mat_add(identity_matrix(ring2, rk), sM), sX)
            try:
                value = gdet0(prod)
                base = gdet0(X)
            except RegularityError:
                continue
            assert value.coeff(0) == base
            assert value.coeff(1) == gtr(M) * base
            done += 1


class TestLiouville:
    def test_zero_matrix(self, H):
        rk = rank_even((1, 1, 1, 1))
        X = identity_matrix(H, rk).with_entries(
            [[H.zero()] * 4 for _ in range(4)])
        lhs, rhs = liouville_check(X, 4)
        assert lhs == rhs == SeriesRing(H, 4).one()

    def test_rank_one_projector(self, H):
        # X = E_11(1): both sides are the truncated scalar exponential
        from gradalg import elementary
        rk = rank_even((1, 1, 1, 1))
        X = elementary(0, 0, H.one(), rk)
        lhs, rhs = liouville_check(X, 4)
        want = (H.one(), H.one(), H.scalar(Fraction(1, 2)),
                H.scalar(Fraction(1, 6)))
        assert lhs.coeffs == want
        assert rhs.coeffs == want

    @pytest.mark.parametrize("evens", [(1, 1, 1, 1), (1, 1, 2, 1)])
    def test_random_quaternionic(self, evens, H, rng):
        rk = rank_even(evens)
        for _ in range(4):
            X = random_matrix(rng, H, rk, bound=5)
            lhs, rhs = liouville_check(X, 6)
            assert lhs == rhs

    def test_extension_with_odd_blocks(self, EH, rng):
        for k in range(12):
            X = random_matrix(rng, EH, RK_EXT, bound=3)
            lhs, rhs = liouville_check(X, 1 + k % 6)
            assert lhs == rhs

    def test_values_are_pinned(self, H, EH):
        # SHA-256 of both sides as computed when is_invertible0 eliminated
        # over the series entries, at the benchmark's shape (H (1,1,2,1),
        # order 6) and over extended H with odd blocks at order 4
        import hashlib
        import random
        from gradalg.jsonio import canonical_json, terms_to_json
        rng = random.Random(1414)
        sides = []
        for alg, rk, order in [(H, rank_even((1, 1, 2, 1)), 6), (EH, RK_EXT, 4)]:
            for _ in range(24):
                X = random_matrix(rng, alg, rk, bound=6)
                sides.append([[terms_to_json(c) for c in side.coeffs]
                              for side in liouville_check(X, order)])
        assert hashlib.sha256(canonical_json(sides).encode()).hexdigest() == (
            "5b23c38a2562fa984871f494e82de569d3f9c46cbf367d94c98125b721ce3fde")

    def test_exp_matches_scalar_series(self, H, units, rng):
        i, _, _ = units
        rk = rank_even((1, 1, 1, 1))
        ring = SeriesRing(H, 5)
        X = random_matrix(rng, H, rk)
        E = matrix_exp_zeta(X, ring)
        # constant coefficient is the identity, linear coefficient is X
        for r in range(4):
            for c in range(4):
                assert E.entries[r][c].coeff(0) == (H.one() if r == c else H.zero())
                assert E.entries[r][c].coeff(1) == X.entries[r][c]
