"""The in-place Gauss-Jordan ``mat_inverse`` against the textbook elimination
on the augmented grid [A | I], and the fused 2 x 2 ``commutative_det``
against Berkowitz."""

import itertools
import random

import pytest

from gradalg import Algebra, Element, extended_quaternions, grassmann
from gradalg import ringmat as rm
from gradalg.errors import NotInvertibleError
from gradalg.series import NilpotentPoly, SeriesRing


def reference_inverse(grid, ring):
    """Gauss-Jordan on [A | I]: the same pivot search, every pivot row scaled
    on both halves and every other row updated on both halves."""
    n = len(grid)
    a = [row[:] for row in grid]
    inv = rm.identity(ring, n)
    for col in range(n):
        for r in range(col, n):
            x = a[r][col]
            if x.is_zero:
                continue
            try:
                piv_row, piv_inv = r, x.inverse()
                break
            except NotInvertibleError:
                continue
        else:
            raise NotInvertibleError(f"no invertible pivot in column {col}")
        if piv_row != col:
            a[col], a[piv_row] = a[piv_row], a[col]
            inv[col], inv[piv_row] = inv[piv_row], inv[col]
        a[col] = [piv_inv * x for x in a[col]]
        inv[col] = [piv_inv * x for x in inv[col]]
        for r in range(n):
            f = a[r][col]
            if r == col or f.is_zero:
                continue
            a[r] = [x - f * y for x, y in zip(a[r], a[col])]
            inv[r] = [x - f * y for x, y in zip(inv[r], inv[col])]
    return inv


def _basis_drawer(ring, rng, zero_share=0.35):
    """Entries with one or two random Clifford terms and, in an extension,
    at times a term with odd symbols; zero at about zero_share."""
    size = 1 << ring.n

    def term(cl, odd=0):
        return ring.monomial(cl, odd, rng.choice([-3, -2, -1, 1, 2, 5]))

    def draw():
        if rng.random() < zero_share:
            return ring.zero()
        x = ring.zero()
        for cl in rng.sample(range(size), min(size, rng.randint(1, 2))):
            x = x + term(cl)
        if ring.num_odd and rng.random() < 0.6:
            x = x + term(rng.randrange(size), rng.randrange(1, 1 << ring.num_odd))
        return x
    return draw


GRIDS = 60
RINGS = ("H", "extended H", "Cl(1,1)", "grassmann(2)", "Q", "series")


def _ring(name, rng):
    if name == "series":
        # Q[zeta]/(zeta^3) over H; a zero constant term makes an entry nilpotent
        ring = SeriesRing(Algebra(0, 2), order=3)
        coeff = _basis_drawer(ring.base, rng, zero_share=0.5)
        return ring, lambda: NilpotentPoly(ring, [coeff() for _ in range(3)])
    ring = {"H": Algebra(0, 2), "extended H": extended_quaternions(),
            "Cl(1,1)": Algebra(1, 1), "grassmann(2)": grassmann(2),
            "Q": Algebra(0, 0)}[name]
    return ring, _basis_drawer(ring, rng)


def _outcome(fn, grid, ring):
    try:
        return fn(grid, ring)
    except NotInvertibleError as exc:
        return str(exc)


class TestInPlaceInverse:
    @pytest.mark.parametrize("name", RINGS)
    @pytest.mark.parametrize("n", range(1, 6))
    def test_matches_reference(self, name, n):
        rng = random.Random(f"mat_inverse:{name}:{n}")
        ring, draw = _ring(name, rng)
        refused = 0
        for _ in range(GRIDS):
            grid = [[draw() for _ in range(n)] for _ in range(n)]
            want = _outcome(reference_inverse, grid, ring)
            assert _outcome(rm.mat_inverse, grid, ring) == want
            refused += isinstance(want, str)
        # both outcomes occur, so refusals and inverses are both compared
        assert 0 < refused < GRIDS

    @pytest.mark.parametrize("name", ["H", "extended H", "Cl(1,1)", "series"])
    def test_same_candidate_sequence(self, name, monkeypatch):
        rng = random.Random(f"candidates:{name}")
        ring, draw = _ring(name, rng)
        cls = NilpotentPoly if name == "series" else Element
        seen, original = [], cls.inverse

        def spy(self):
            seen.append(self)
            try:
                out = original(self)
            except NotInvertibleError:
                seen.append("refused")
                raise
            return out
        monkeypatch.setattr(cls, "inverse", spy)
        for n in (2, 3, 4):
            for _ in range(6):
                grid = [[draw() for _ in range(n)] for _ in range(n)]
                want = _outcome(reference_inverse, grid, ring)
                ref_seen = seen[:]
                seen.clear()
                assert _outcome(rm.mat_inverse, grid, ring) == want
                assert seen == ref_seen
                seen.clear()

    def test_forced_row_swaps(self):
        Q = Algebra(0, 0)
        # every permutation grid swaps rows; its inverse is its transpose
        for perm in itertools.permutations(range(4)):
            grid = [[Q.scalar(int(c == perm[r])) for c in range(4)] for r in range(4)]
            want = [[Q.scalar(int(r == perm[c])) for c in range(4)] for r in range(4)]
            assert rm.mat_inverse(grid, Q) == want == reference_inverse(grid, Q)
        # scaled permutation with a swap in the first and the last column
        grid = [[Q.scalar(v) for v in row] for row in ([0, 2, 0], [0, 0, 3], [5, 0, 1])]
        assert rm.mat_inverse(grid, Q) == reference_inverse(grid, Q)
        assert rm.mat_mul(rm.mat_inverse(grid, Q), grid) == rm.identity(Q, 3)

    def test_zero_divisor_pivot_skipped(self):
        # over Cl(1,1) 1 + e1 is a nonzero zero divisor; the pivot search
        # passes over it to the unit below, swapping the rows
        C = Algebra(1, 1)
        e1, e2 = C.generator(1), C.generator(2)
        one, zero = C.one(), C.zero()
        grid = [[one + e1, e2, zero], [e2, one, e1], [one, zero, one + e2]]
        inv = rm.mat_inverse(grid, C)
        assert inv == reference_inverse(grid, C)
        assert rm.mat_mul(grid, inv) == rm.identity(C, 3)
        # a column whose only nonzero candidate is a zero divisor is refused
        # with the reference's message
        bad = [[one + e1, e2], [zero, one]]
        with pytest.raises(NotInvertibleError, match="column 0"):
            rm.mat_inverse(bad, C)

    def test_one_by_one_is_pivot_inverse(self):
        H = Algebra(0, 2)
        x = H.scalar(2) + H.generator(1) * 3
        assert rm.mat_inverse([[x]], H) == [[x.inverse()]]
        assert rm.mat_inverse([], H) == []


def _commuting(name, rng):
    if name == "Q":
        ring = Algebra(0, 0)
        return ring, lambda: ring.scalar(rng.choice([0, 0, 1, -2, 3, 7]))
    if name == "grassmann(2) even":
        ring = grassmann(2)
        pair = ring.odd_generator(1) * ring.odd_generator(2)
        return ring, lambda: ring.scalar(rng.choice([0, 1, -2])) + pair * rng.choice([0, 0, 1, 3])
    ring = SeriesRing(Algebra(0, 0), order=4)
    return ring, lambda: NilpotentPoly(ring, [ring.base.scalar(rng.choice([0, 0, 1, -2]))
                                              for _ in range(4)])


class TestFusedTwoByTwo:
    @pytest.mark.parametrize("name", ["Q", "grassmann(2) even", "series"])
    def test_matches_berkowitz(self, name, monkeypatch):
        rng = random.Random(f"det2:{name}")
        ring, draw = _commuting(name, rng)
        grids = [[[draw(), draw()], [draw(), draw()]] for _ in range(40)]
        zero = ring.zero()
        grids.append([[zero, zero], [zero, zero]])
        want = [rm._berkowitz(g, ring) for g in grids]

        def refuse(grid, ring):
            raise AssertionError("Berkowitz called on a 2 x 2 grid")
        monkeypatch.setattr(rm, "_berkowitz", refuse)
        assert [rm.commutative_det(g, ring) for g in grids] == want
        assert any(d.is_zero for d in want) and not all(d.is_zero for d in want)
