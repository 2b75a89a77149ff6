import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gradalg import (Algebra, GroupElement, NotInvertibleError, SeriesRing,
                     extended_quaternions, nilpotent_exp, quaternion_units,
                     quaternions)

from conftest import random_quaternion


class TestDegrees:
    def test_generator_degrees(self):
        alg = Algebra(1, 2)
        assert alg.generator(1).degree().bits() == (1, 0, 0, 1)
        assert alg.generator(2).degree().bits() == (0, 1, 0, 1)
        assert alg.generator(3).degree().bits() == (0, 0, 1, 1)

    def test_quaternion_degrees(self, H, units):
        i, j, k = units
        assert H.one().degree().bits() == (0, 0, 0)
        assert i.degree().bits() == (0, 1, 1)
        assert j.degree().bits() == (1, 0, 1)
        assert k.degree().bits() == (1, 1, 0)

    def test_all_clifford_monomials_even(self):
        alg = Algebra(2, 2)
        for mask in range(1 << 4):
            assert alg.monomial_degree(mask, 0).parity == 0

    def test_mixed_element_has_no_degree(self, H):
        a = H.one() + H.generator(1)
        assert a.degree() is None
        assert not a.is_homogeneous

    def test_degree_of_zero_undefined(self, H):
        with pytest.raises(ValueError):
            H.zero().degree()

    def test_product_degree_adds(self, H, units):
        i, j, k = units
        assert (i * j).degree() == i.degree() + j.degree()
        assert (i * j) == k


class TestQuaternions:
    def test_multiplication_table(self, H, units):
        i, j, k = units
        one = H.one()
        assert i * i == -one and j * j == -one and k * k == -one
        assert i * j == k and j * k == i and k * i == j
        assert j * i == -k and k * j == -i and i * k == -j

    def test_unit_law(self, H, rng):
        a = random_quaternion(rng, H)
        assert H.one() * a == a and a * H.one() == a

    def test_defining_relations(self):
        alg = Algebra(0, 2)
        e1, e2 = alg.generator(1), alg.generator(2)
        assert e1 * e2 == -(e2 * e1)
        assert e1 * e1 == alg.scalar(-1)


class TestGradedCommutativity:
    @pytest.mark.parametrize("p,q", [(0, 2), (1, 1), (2, 0), (1, 2), (2, 2), (0, 4)])
    def test_sign_rule_on_blades(self, p, q):
        alg = Algebra(p, q)
        rng = random.Random(p * 10 + q)
        for _ in range(60):
            a = alg.blade(rng.randrange(1 << alg.n), rng.randint(1, 4))
            b = alg.blade(rng.randrange(1 << alg.n), rng.randint(1, 4))
            sign = (-1) ** a.degree().pair(b.degree())
            assert b * a == (a * b if sign > 0 else -(a * b))

    def test_extension_sign_rule(self, EH):
        t1, t2 = EH.odd_generator(1), EH.odd_generator(2)
        i, j, k = quaternion_units(EH)
        assert t1 * t1 == EH.zero() and t2 * t2 == EH.zero()
        for a, b in itertools.product([t1, t2, i, j, k, t1 * i, t2 * k], repeat=2):
            sign = (-1) ** a.degree().pair(b.degree())
            assert b * a == (a * b if sign > 0 else -(a * b))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 7), st.integers(0, 7), st.integers(0, 3),
           st.integers(0, 3), st.data())
    def test_extension_associativity(self, m1, m2, t1, t2, data):
        alg = extended_quaternions()
        c = data.draw(st.integers(-3, 3))
        a = alg.monomial(m1 & 3, t1, 2)
        b = alg.monomial(m2 & 3, t2, 3)
        d = alg.monomial((m1 ^ m2) & 3, (t1 ^ t2) & 3, c) + alg.one()
        assert (a * b) * d == a * (b * d)


class TestInversion:
    def test_blade_fast_path(self):
        alg = Algebra(0, 2)
        e1 = alg.generator(1)
        assert e1.inverse() == -e1
        assert alg.scalar(2).inverse() == alg.scalar(Fraction(1, 2))

    def test_zero_divisor(self):
        alg = Algebra(1, 0)
        with pytest.raises(NotInvertibleError):
            (alg.one() + alg.generator(1)).inverse()

    def test_zero_not_invertible(self, H):
        with pytest.raises(NotInvertibleError):
            H.zero().inverse()

    def test_general_quaternion(self, H, rng):
        for _ in range(25):
            a = random_quaternion(rng, H, nonzero=True)
            assert a * a.inverse() == H.one()
            assert a.inverse() * a == H.one()
            assert a.inverse().inverse() == a

    @pytest.mark.parametrize("p,q", [(0, 1), (1, 0), (0, 2), (1, 1), (2, 0),
                                     (0, 3), (1, 2), (2, 1), (3, 0),
                                     (0, 4), (1, 3), (2, 2), (4, 0)])
    def test_graded_division_exhaustive(self, p, q):
        # every nonzero homogeneous element is a blade multiple, hence a unit
        alg = Algebra(p, q)
        for mask in range(1 << alg.n):
            for c in (Fraction(1), Fraction(-2), Fraction(1, 2), Fraction(5, 3)):
                a = alg.blade(mask, c)
                assert a * a.inverse() == alg.one()

    def test_extension_unit_with_nilpotent_tail(self, EH):
        i, j, k = quaternion_units(EH)
        t1, t2 = EH.odd_generator(1), EH.odd_generator(2)
        a = EH.scalar(2) + i * 3 + t1 * 5 + t1 * t2 * 7 + j * t2
        assert a * a.inverse() == EH.one()
        assert a.inverse() * a == EH.one()

    def test_pure_odd_not_invertible(self, EH):
        with pytest.raises(NotInvertibleError):
            EH.odd_generator(1).inverse()


class TestStripOdd:
    def test_clifford_fixed(self, H):
        a = H.scalar(3) + H.generator(1) * 2
        assert a.strip_odd() == a

    def test_theta_stripped(self, EH):
        t1, t2 = EH.odd_generator(1), EH.odd_generator(2)
        assert (EH.scalar(3) + t1 * 2).strip_odd() == EH.scalar(3)
        # even products of odd generators lie in the odd ideal too
        assert (EH.one() + t1 * t2).strip_odd() == EH.one()

    def test_zero(self, EH):
        assert EH.zero().strip_odd() == EH.zero()


class TestGradedParts:
    def test_parts_recombine(self, H, rng):
        a = random_quaternion(rng, H) + H.scalar(2)
        total = H.zero()
        for deg, part in a.graded_parts():
            assert part.degree() == deg
            total = total + part
        assert total == a


class TestNilpotentSeries:
    def test_exp_zero(self, H):
        ring = SeriesRing(H, 4)
        assert nilpotent_exp(ring.zero()) == ring.one()

    def test_exp_zeta_truncated(self, H):
        ring = SeriesRing(H, 3)
        e = nilpotent_exp(ring.zeta())
        assert e.coeffs == (H.one(), H.one(), H.scalar(Fraction(1, 2)))

    def test_exp_order_two(self, H, units):
        i, j, k = units
        ring = SeriesRing(H, 2)
        c = H.scalar(2) + i * 3
        assert nilpotent_exp(ring.zeta(c)) == ring.one() + ring.zeta(c)

    def test_exp_needs_zeta_multiple(self, H):
        ring = SeriesRing(H, 4)
        with pytest.raises(ValueError):
            nilpotent_exp(ring.one())

    def test_exp_inverse(self, H, units, rng):
        i, j, k = units
        ring = SeriesRing(H, 6)
        for _ in range(10):
            c = random_quaternion(rng, H)
            x = ring.zeta(c)
            assert nilpotent_exp(x) * nilpotent_exp(-x) == ring.one()

    def test_ring_laws(self, H, rng):
        ring = SeriesRing(H, 5)
        els = []
        for _ in range(3):
            coeffs = [random_quaternion(rng, H, 3) for _ in range(5)]
            els.append(sum((ring.zeta(c) ** k * c2 for k, (c, c2) in
                            enumerate(zip(coeffs, coeffs))), ring.zero()))
        a, b, c = els
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)

    def test_truncation(self, H):
        ring = SeriesRing(H, 4)
        z = ring.zeta()
        assert z ** 4 == ring.zero()
        assert z ** 3 != ring.zero()

    def test_series_inverse(self, H, units, rng):
        i, j, k = units
        ring = SeriesRing(H, 5)
        a = ring.scalar(2) + ring.zeta(i * 3) + ring.zeta(j).__mul__(ring.zeta(k))
        assert a * a.inverse() == ring.one()
        assert a.inverse() * a == ring.one()
        with pytest.raises(NotInvertibleError):
            ring.zeta().inverse()

    def test_default_order(self, H):
        assert SeriesRing(H).order == 8


def _ring_samples(kind):
    """(x, one, mixed, zero, subtrahends) for a scalar or a series ring."""
    if kind == "element":
        EH = extended_quaternions()
        i, j, k = quaternion_units(EH)
        t1, t2 = EH.odd_generator(1), EH.odd_generator(2)
        x = EH.scalar(2) + i * 3 + t1 * 5 + t1 * t2 * 7 + j * t2
        return x, EH.one(), EH.one() + i, EH.zero(), [3, Fraction(-2, 3)]
    H = quaternions()
    i, j, k = quaternion_units(H)
    ring = SeriesRing(H, 5)
    x = ring.scalar(2) + ring.zeta(i * 3) + ring.zeta(j) * ring.zeta(k)
    return (x, ring.one(), ring.one() + ring.zeta(i), ring.zero(),
            [3, Fraction(-2, 3), H.scalar(1) + k * 2])


@pytest.mark.parametrize("kind", ["element", "series"])
class TestSharedRingCode:
    def test_left_subtraction(self, kind):
        x, _, _, _, ks = _ring_samples(kind)
        for k in ks:
            assert k - x == -(x - k)

    def test_powers(self, kind):
        x, one, _, _, _ = _ring_samples(kind)
        assert x ** -2 == x.inverse() ** 2
        assert x ** -2 * x ** 2 == one
        assert x ** 0 == one

    def test_is_homogeneous(self, kind):
        x, one, mixed, zero, _ = _ring_samples(kind)
        assert not mixed.is_homogeneous
        assert zero.is_homogeneous
        assert one.is_homogeneous


class TestElementBasics:
    def test_algebra_mismatch(self, H, Q):
        with pytest.raises(ValueError):
            H.one() + Q.one()

    def test_rational_coercion(self, H):
        assert H.scalar(3) + 2 == H.scalar(5)
        assert 2 * H.scalar(3) == H.scalar(6)
        assert H.scalar(3) / 2 == H.scalar(Fraction(3, 2))

    def test_power(self, H, units):
        i, _, _ = units
        assert i ** 5 == i
        assert i ** 0 == H.one()
        assert i ** -2 == H.scalar(-1)

    def test_odd_degree_validation(self):
        with pytest.raises(ValueError):
            Algebra(0, 2, (GroupElement.from_bits((0, 1, 1)),))

    def test_formatting(self, H, EH):
        i, j, k = quaternion_units(H)
        assert str(H.zero()) == "0"
        assert str(H.one() + i * 2) in ("1 + 2*e2", "2*e2 + 1")
        assert "t1" in str(EH.odd_generator(1))
        ring = SeriesRing(H, 3)
        assert str(ring.zero()) == "0"
        assert "z" in str(ring.zeta() + ring.one())
