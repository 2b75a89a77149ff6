import importlib
from fractions import Fraction

import pytest

from gradalg import (GradedMatrix, GroupElement, NotInvertibleError, RankVector,
                     RegularityError, SubmatrixNotInvertibleError, ddet,
                     ddet_squared, gdet0, identity_matrix, mat_mul,
                     predeterminant, quat_conj, quat_norm_sq)
from gradalg.randgen import random_invertible

from conftest import random_quaternion
from reference_data import rank_even


def dense_quaternionic(H, rng, n, bound=4):
    """A fully generic quaternionic matrix; hosted on a single even block of
    the trivial-part grading so every entry degree law is satisfied."""
    rk = RankVector(3, (n, 0, 0, 0, 0, 0, 0, 0))
    grid = [[random_quaternion(rng, H, bound) for _ in range(n)]
            for _ in range(n)]
    return GradedMatrix(H, rk, rk, GroupElement.zero(3), grid)


class TestNorm:
    def test_conjugation(self, H, units):
        i, j, k = units
        q = H.scalar(2) + i * 3 + j * -4 + k * 5
        assert quat_conj(q) == H.scalar(2) - i * 3 + j * 4 - k * 5
        assert quat_conj(quat_conj(q)) == q

    def test_norm_square(self, H, units):
        i, j, k = units
        q = H.scalar(1) + i * 2 + j * 3 + k * 4
        assert quat_norm_sq(q) == Fraction(30)

    def test_norm_multiplicative(self, H, rng):
        for _ in range(15):
            a = random_quaternion(rng, H)
            b = random_quaternion(rng, H)
            assert quat_norm_sq(a * b) == quat_norm_sq(a) * quat_norm_sq(b)


class TestPredeterminant:
    def test_single_entry(self, H, rng):
        q = random_quaternion(rng, H, nonzero=True)
        rk = RankVector(3, (1, 0, 0, 0, 0, 0, 0, 0))
        X = GradedMatrix(H, rk, rk, GroupElement.zero(3), [[q]])
        assert predeterminant(X) == q

    def test_identity(self, H):
        X = identity_matrix(H, rank_even((1, 1, 1, 1)))
        assert predeterminant(X) == H.one()

    def test_diagonal_norms(self, H, rng):
        q1 = random_quaternion(rng, H, nonzero=True)
        q2 = random_quaternion(rng, H, nonzero=True)
        rk = RankVector(3, (2, 0, 0, 0, 0, 0, 0, 0))
        X = GradedMatrix(H, rk, rk, GroupElement.zero(3),
                         [[q1, H.zero()], [H.zero(), q2]])
        assert ddet_squared(X) == quat_norm_sq(q1) * quat_norm_sq(q2)

    def test_chain_breakdown_raises(self, H):
        # the (0,0) quasiminor needs the complementary (1,1) entry invertible
        rk = RankVector(3, (2, 0, 0, 0, 0, 0, 0, 0))
        X = GradedMatrix(H, rk, rk, GroupElement.zero(3),
                         [[H.one(), H.one()], [H.zero(), H.zero()]])
        with pytest.raises((SubmatrixNotInvertibleError, NotInvertibleError)):
            predeterminant(X)

    def test_permutation_independence(self, H, rng):
        for _ in range(6):
            X = dense_quaternionic(H, rng, 3)
            perms = []
            tries = 0
            while len(perms) < 3 and tries < 40:
                tries += 1
                rows = rng.sample(range(3), 3)
                cols = rng.sample(range(3), 3)
                try:
                    d = predeterminant(X, rows, cols)
                except (SubmatrixNotInvertibleError, NotInvertibleError):
                    continue
                perms.append(quat_norm_sq(d))
            assert len(set(perms)) <= 1

    def test_bad_permutation_rejected(self, H, rng):
        X = dense_quaternionic(H, rng, 2)
        with pytest.raises(ValueError):
            predeterminant(X, rows=(0, 0), cols=(0, 1))


class TestDdet:
    def test_identity(self, H):
        X = identity_matrix(H, rank_even((1, 1, 1, 1)))
        assert ddet_squared(X) == 1
        assert ddet(X) == 1

    def test_multiplicative(self, H, rng):
        done = 0
        while done < 8:
            X = dense_quaternionic(H, rng, 3)
            Y = dense_quaternionic(H, rng, 3)
            dx, dy = ddet_squared(X), ddet_squared(Y)
            assert ddet_squared(mat_mul(X, Y)) == dx * dy
            done += 1

    def test_singular_input_gives_zero(self, H):
        # the zero matrix breaks every predeterminant chain; the all-ones
        # matrix has rank one
        rk = RankVector(3, (2, 0, 0, 0, 0, 0, 0, 0))
        for entry in (H.zero(), H.one()):
            X = GradedMatrix(H, rk, rk, GroupElement.zero(3), [[entry] * 2] * 2)
            assert ddet_squared(X) == 0
            assert ddet(X) == 0

    def test_no_quasiminor_code(self, H, rng, monkeypatch):
        # gdet^2 = ||D||^2 is only an independent check if ddet_squared
        # never reaches the quasiminor kernel that gdet is built on
        rk = rank_even((1, 1, 1, 1))
        samples = [random_invertible(rng, H, rk) for _ in range(6)]
        want = [ddet_squared(X) for X in samples]

        def forbidden(*args, **kwargs):
            raise AssertionError("ddet_squared reached the quasiminor kernel")

        # the package re-exports the function quasidet over its module's name
        monkeypatch.setattr("gradalg.dieudonne.quasidet", forbidden)
        monkeypatch.setattr(importlib.import_module("gradalg.quasidet"),
                            "block_quasidet", forbidden)
        assert [ddet_squared(X) for X in samples] == want
        assert all(d > 0 for d in want)

    def test_irrational_value_reported(self, H, units):
        i, _, _ = units
        q = H.scalar(1) + i  # norm square 2
        rk = RankVector(3, (1, 0, 0, 0, 0, 0, 0, 0))
        X = GradedMatrix(H, rk, rk, GroupElement.zero(3), [[q]])
        assert ddet_squared(X) == 2
        with pytest.raises(ValueError):
            ddet(X)


class TestGdetRelation:
    @pytest.mark.parametrize("evens", [(1, 1, 1, 1), (0, 2, 1, 1)])
    def test_absolute_values_agree(self, evens, H, rng):
        rk = rank_even(evens)
        done = 0
        while done < 12:
            X = random_invertible(rng, H, rk)
            try:
                g = gdet0(X)
                d = ddet_squared(X)
            except (RegularityError, NotInvertibleError):
                continue
            assert g * g == H.scalar(d)
            done += 1

    def test_graded_predeterminants_are_real(self, H, rng):
        rk = rank_even((1, 1, 1, 1))
        done = 0
        while done < 8:
            X = random_invertible(rng, H, rk)
            try:
                d = predeterminant(X)
            except (SubmatrixNotInvertibleError, NotInvertibleError):
                continue
            assert d.is_rational()
            done += 1

    def test_gdet_is_signed_predeterminant(self, H, rng):
        rk = rank_even((1, 1, 1, 1))
        done = 0
        while done < 8:
            X = random_invertible(rng, H, rk)
            try:
                g = gdet0(X).scalar_part()
                d = predeterminant(X).scalar_part()
            except (RegularityError, SubmatrixNotInvertibleError,
                    NotInvertibleError):
                continue
            assert g == d or g == -d
            done += 1
