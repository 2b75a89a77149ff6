import functools
import itertools
import json
import math
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gradalg import (Algebra, Element, GroupElement, NotInvertibleError, SeriesRing,
                     extended_quaternions, grassmann, nilpotent_exp, quaternion_units,
                     quaternions, rationals)
from gradalg import ringmat as rm
from gradalg.series import NilpotentPoly
from gradalg.jsonio import canonical_json, element_from_json, element_to_json

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


KERNEL_ALGEBRAS = [rationals(), Algebra(1, 0), quaternions(), Algebra(1, 1), Algebra(1, 2),
                   Algebra(2, 2), extended_quaternions(), grassmann(4)]
KERNEL_IDS = ["Q", "Cl10", "H", "Cl11", "Cl12", "Cl22", "EH", "G4"]


def _basis_keys(alg):
    return [(cl, odd) for odd in range(1 << alg.num_odd) for cl in range(1 << alg.n)]


def _random_element(rng, alg, density=0.6, bound=6, den=4):
    terms = {key: Fraction(rng.randint(-bound, bound), rng.randint(1, den))
             for key in _basis_keys(alg) if rng.random() < density}
    return Element(alg, terms)


def _reference_product(x, y):
    """The dict-of-Fraction product: every pair of terms through _mul_monomials."""
    alg = x.algebra
    out = {}
    for k1, c1 in x.terms.items():
        for k2, c2 in y.terms.items():
            hit = alg._mul_monomials(k1, k2)
            if hit is not None:
                key, sign = hit
                out[key] = out.get(key, Fraction(0)) + sign * c1 * c2
    return {k: v for k, v in out.items() if v}


def _assert_canonical(x):
    num, den = x._num, x._den
    assert isinstance(den, int) and den > 0
    assert all(isinstance(v, int) and v for v in num.values())
    assert math.gcd(den, *num.values()) == 1
    if not num:
        assert den == 1


class TestConstructorValidation:
    def test_clifford_mask_out_of_range(self, H):
        with pytest.raises(ValueError):
            Element(H, {(4, 0): 1})
        with pytest.raises(ValueError):
            Element(H, {(-1, 0): 1})

    def test_odd_mask_out_of_range(self, H, EH):
        with pytest.raises(ValueError):
            Element(H, {(0, 1): 1})
        with pytest.raises(ValueError):
            Element(EH, {(1, 4): 1})

    def test_in_range_masks_accepted(self, EH):
        x = Element(EH, {(3, 3): 2, (0, 0): Fraction(1, 2), (1, 2): 0})
        assert x == EH.monomial(3, 3, 2) + EH.scalar(Fraction(1, 2))



class TestLargeAlgebras:
    @pytest.mark.parametrize("alg", [grassmann(20), Algebra(8, 7),
                                     Algebra(4, 4, tuple(GroupElement(9, 1 << 8) for _ in range(8)))],
                             ids=["G20", "Cl87", "Cl44+8"])
    def test_sparse_product_fills_only_touched_entries(self, alg):
        rng = random.Random(7600)
        width = alg.n + alg.num_odd
        filled = lambda: sum(len(row) for row in alg._table.values())
        before = filled()
        for _ in range(5):
            x, y = (Element(alg, {(rng.getrandbits(alg.n), rng.getrandbits(alg.num_odd)):
                                  rng.randint(1, 9) for _ in range(3)}) for _ in range(2))
            assert dict((x * y).terms) == _reference_product(x, y)
        assert width >= 15
        assert filled() - before <= 5 * 9


class TestProductTable:
    @pytest.mark.parametrize("alg", KERNEL_ALGEBRAS, ids=KERNEL_IDS)
    def test_table_matches_monomial_products(self, alg):
        n = alg.n
        for i, (cl1, odd1) in enumerate(_basis_keys(alg)):
            assert i == cl1 | (odd1 << n)
            row = alg._table[i]
            for j, key2 in enumerate(_basis_keys(alg)):
                hit = alg._mul_monomials((cl1, odd1), key2)
                if hit is None:
                    assert row[j] == 0
                else:
                    (cl, odd), sign = hit
                    assert row[j] == sign * ((cl | (odd << n)) + 1)

    def test_equal_algebras_share_one_table(self):
        assert Algebra(0, 2) is not quaternions()
        assert Algebra(0, 2)._table is quaternions()._table
        assert extended_quaternions()._table is extended_quaternions()._table

    @pytest.mark.parametrize("alg", KERNEL_ALGEBRAS, ids=KERNEL_IDS)
    def test_product_matches_reference(self, alg):
        rng = random.Random(7000 + alg.n * 10 + alg.num_odd)
        for _ in range(40):
            x, y = _random_element(rng, alg), _random_element(rng, alg)
            prod = x * y
            assert dict(prod.terms) == _reference_product(x, y)
            _assert_canonical(prod)

    def test_equal_algebra_operands(self):
        x = Algebra(0, 2).generator(1)
        y = quaternions().generator(2)
        assert x * y == quaternions().blade(3)


class TestCanonicalForm:
    @pytest.mark.parametrize("alg", KERNEL_ALGEBRAS, ids=KERNEL_IDS)
    def test_every_result_canonical(self, alg):
        rng = random.Random(7100 + alg.n * 10 + alg.num_odd)
        factors = [0, 1, -1, 3, -6, Fraction(2, 4), Fraction(-5, 3), Fraction(0, 7)]
        for _ in range(20):
            x, y = _random_element(rng, alg), _random_element(rng, alg)
            for z in (x + y, x - y, x * y, -x, x - x, y + (-y), 2 - x, x + 1):
                _assert_canonical(z)
            for c in factors:
                _assert_canonical(x * c)
                _assert_canonical(c * x)
                if c:
                    _assert_canonical(x / c)

    def test_division_by_zero(self, H):
        with pytest.raises(ZeroDivisionError):
            H.one() / 0

    def test_zero_has_unit_denominator(self, H):
        x = H.scalar(Fraction(1, 3))
        assert (x - x)._den == 1
        assert x * 0 == H.zero() and (x * 0)._den == 1

    def test_equal_values_compare_equal(self):
        rng = random.Random(7200)
        for alg in KERNEL_ALGEBRAS:
            x = _random_element(rng, alg)
            assert (x / 3) * 3 == x
            assert x * Fraction(2, 4) == x / 2
            assert (x + x) / 2 == x
            assert x * Fraction(-3, 9) == -(x / 3)
            assert x - x == alg.zero() and x - x == 0

    def test_terms_round_trip(self):
        rng = random.Random(7300)
        for alg in KERNEL_ALGEBRAS:
            x = _random_element(rng, alg)
            assert Element(alg, x.terms) == x

    def test_terms_view_is_read_only(self, H):
        x = H.scalar(2)
        with pytest.raises(TypeError):
            x.terms[(0, 0)] = Fraction(3)

    def test_json_round_trip(self):
        rng = random.Random(7400)
        for alg in KERNEL_ALGEBRAS:
            x = _random_element(rng, alg)
            obj = json.loads(canonical_json(element_to_json(x)))
            assert element_from_json(obj) == x


class TestCliffordInverse:
    @pytest.mark.parametrize("alg", KERNEL_ALGEBRAS[:6], ids=KERNEL_IDS[:6])
    def test_multi_term_two_sided_inverse(self, alg):
        rng = random.Random(7500 + alg.n * 10)
        inverted = 0
        for _ in range(30):
            x = _random_element(rng, alg, density=0.8)
            if x.is_zero:
                continue
            try:
                y = x.inverse()
            except NotInvertibleError:
                continue
            inverted += 1
            assert x * y == alg.one() and y * x == alg.one()
            _assert_canonical(y)
        assert inverted >= 20

    def test_zero_divisor_beyond_two_generators(self):
        alg = Algebra(1, 2)
        with pytest.raises(NotInvertibleError):
            (alg.one() + alg.generator(1)).inverse()


DOT_ALGEBRAS = [rationals(), quaternions(), extended_quaternions(), Algebra(1, 1), grassmann(3)]
DOT_IDS = ["Q", "H", "EH", "Cl11", "G3"]


def _dot_sample(rng, alg):
    """Zero, single-term or multi-term, with denominators up to 7."""
    shape = rng.random()
    if shape < 0.15:
        return alg.zero()
    if shape < 0.45:
        keys = _basis_keys(alg)
        return Element(alg, {rng.choice(keys): Fraction(rng.randint(-9, 9) or 1,
                                                        rng.randint(1, 7))})
    return _random_element(rng, alg, density=0.7, den=7)


def _reference_dot(xs, ys):
    """sum x*y over zip(xs, ys) as a dict of Fractions, term by term."""
    out = {}
    for x, y in zip(xs, ys):
        for key, c in _reference_product(x, y).items():
            out[key] = out.get(key, Fraction(0)) + c
    return {k: v for k, v in out.items() if v}


def _series_sample(rng, sring):
    length = rng.randint(0, sring.order + 2)  # the constructor truncates at K
    return NilpotentPoly(sring, [_dot_sample(rng, sring.base) for _ in range(length)])


class TestSumOfProducts:
    @pytest.mark.parametrize("alg", DOT_ALGEBRAS, ids=DOT_IDS)
    def test_dot_equals_fold(self, alg):
        rng = random.Random(9100 + alg.n * 10 + alg.num_odd)
        for _ in range(60):
            size = rng.randint(1, 6)
            xs = [_dot_sample(rng, alg) for _ in range(size)]
            ys = [_dot_sample(rng, alg) for _ in range(size)]
            dot = xs[0]._dot(xs, ys)
            fold = functools.reduce(operator.add, (x * y for x, y in zip(xs, ys)))
            assert dot._num == fold._num and dot._den == fold._den
            assert dict(dot.terms) == _reference_dot(xs, ys)
            _assert_canonical(dot)

    @pytest.mark.parametrize("alg", DOT_ALGEBRAS, ids=DOT_IDS)
    def test_one_pair_is_the_product(self, alg):
        rng = random.Random(9200 + alg.n * 10 + alg.num_odd)
        for _ in range(40):
            x, y = _dot_sample(rng, alg), _dot_sample(rng, alg)
            assert x._dot([x], [y]) == x * y
            assert dict((x * y).terms) == _reference_product(x, y)
            _assert_canonical(x * y)

    def test_cancellation_and_zero_sums(self, H, units):
        i, j, k = units
        half = H.scalar(Fraction(1, 2))
        dot = i._dot([i, j, half], [j, i, H.scalar(Fraction(2, 3))])
        assert dot == H.scalar(Fraction(1, 3)) and dot._den == 3
        zero = i._dot([i * Fraction(1, 3), j], [j * 3, i])  # k - k
        assert zero.is_zero and zero._den == 1 and zero._num == {}
        assert H.zero()._dot([H.zero()], [i]) == H.zero()

    def test_zip_truncation(self):
        rng = random.Random(9300)
        for alg in DOT_ALGEBRAS:
            xs = [_dot_sample(rng, alg) for _ in range(5)]
            ys = [_dot_sample(rng, alg) for _ in range(3)]
            assert xs[0]._dot(xs, ys) == xs[0]._dot(xs[:3], ys)
            assert ys[0]._dot(ys, xs) == ys[0]._dot(ys, xs[:3])
            assert rm._dot(xs, ys) == xs[0]._dot(xs[:3], ys)

    def test_empty_dot_is_none(self, H):
        assert rm._dot([], []) is None
        assert rm._dot([H.one()], []) is None

    def test_algebra_mismatch(self, H, Q):
        with pytest.raises(ValueError):
            H.one()._dot([H.one(), H.one()], [H.one(), Q.one()])
        with pytest.raises(ValueError):
            H.one()._dot([Q.one()], [H.one()])

    @pytest.mark.parametrize("alg", [quaternions(), extended_quaternions(), grassmann(3)],
                             ids=["H", "EH", "G3"])
    @pytest.mark.parametrize("order", [1, 3, 5])
    def test_series_product_is_truncated_convolution(self, alg, order):
        sring = SeriesRing(alg, order)
        rng = random.Random(9400 + order * 10 + alg.num_odd)
        for _ in range(25):
            x, y = _series_sample(rng, sring), _series_sample(rng, sring)
            coeffs = [alg.zero()] * order
            for a, ca in enumerate(x.coeffs):
                for b, cb in enumerate(y.coeffs):
                    if a + b < order:
                        coeffs[a + b] = coeffs[a + b] + ca * cb
            assert x * y == NilpotentPoly(sring, coeffs)
            assert x._dot([x], [y]) == x * y

    @pytest.mark.parametrize("alg", [quaternions(), extended_quaternions()], ids=["H", "EH"])
    def test_series_dot_equals_fold(self, alg):
        sring = SeriesRing(alg, 4)
        rng = random.Random(9500 + alg.num_odd)
        for _ in range(25):
            size = rng.randint(1, 4)
            xs = [_series_sample(rng, sring) for _ in range(size + 1)]
            ys = [_series_sample(rng, sring) for _ in range(size)]
            fold = functools.reduce(operator.add, (x * y for x, y in zip(xs, ys)))
            dot = xs[0]._dot(xs, ys)
            assert dot == fold
            assert all(c._num for c in dot.coeffs[-1:])  # trailing zeros trimmed
            assert rm._dot(xs, ys) == fold

    def test_series_dot_coerces_scalars(self, H, units):
        i, j, _ = units
        sring = SeriesRing(H, 3)
        z = sring.zeta()
        assert z._dot([z, z], [i, 2]) == z * i + z * 2
        assert sring.zero()._dot([sring.zero()], [z]) == sring.zero()


ONE_TERM_ALGEBRAS = [quaternions(), extended_quaternions(), Algebra(1, 1), Algebra(0, 3),
                     grassmann(2)]
ONE_TERM_IDS = ["H", "EH", "Cl11", "Cl03", "G2"]


def _coeff(rng, den):
    return Fraction(rng.randint(-9, 9) or 1, rng.randint(1, den))


def _pair_onto(rng, alg, key, den=7):
    """Two single-term operands whose product is a nonzero multiple of the
    basis monomial ``key``: the odd parts split key's odd part disjointly."""
    cl_k, odd_k = key
    t1 = odd_k & rng.randrange(1 << alg.num_odd)
    cl1 = rng.randrange(1 << alg.n)
    return (alg.monomial(cl1, t1, _coeff(rng, den)),
            alg.monomial(cl1 ^ cl_k, odd_k & ~t1, _coeff(rng, den)))


def _run_pairs(rng, alg, length, den):
    """Mostly single-term pairs onto one monomial, with now and then a switch
    of monomial, a zero operand, a multi-term operand or, with odd symbols,
    a product that vanishes."""
    keys = _basis_keys(alg)
    key = rng.choice(keys)
    xs, ys = [], []
    for _ in range(length):
        roll = rng.random()
        if roll < 0.08:
            key = rng.choice(keys)
        if roll < 0.7:
            x, y = _pair_onto(rng, alg, key, den)
        elif roll < 0.8:
            x, y = _pair_onto(rng, alg, key, den)
            x, y = (alg.zero(), y) if roll < 0.75 else (x, alg.zero())
        elif roll < 0.9:
            x, y = _pair_onto(rng, alg, key, den)
            multi = _random_element(rng, alg, density=0.7, den=den)
            x, y = (multi, y) if roll < 0.85 else (x, multi)
        elif alg.num_odd:
            t = 1 << rng.randrange(alg.num_odd)
            x = alg.monomial(rng.randrange(1 << alg.n), t, _coeff(rng, den))
            y = alg.monomial(rng.randrange(1 << alg.n), t, _coeff(rng, den))
        else:
            x, y = _pair_onto(rng, alg, rng.choice(keys), den)
        xs.append(x)
        ys.append(y)
    return xs, ys


def _assert_dot_is_fold(xs, ys):
    """The kernel against the left fold of x*y and against term-by-term
    Fraction arithmetic, structurally."""
    alg = xs[0].algebra
    dot = xs[0]._dot(xs, ys)
    fold = functools.reduce(operator.add, (x * y for x, y in zip(xs, ys)))
    want = Element(alg, _reference_dot(xs, ys))
    assert dot._num == fold._num == want._num
    assert dot._den == fold._den == want._den
    _assert_canonical(dot)
    return dot


class TestOneTermKernel:
    """``_sum_of_products`` keeps one numerator while every product is a
    single term on one basis index, and spills into the dict loop at the
    first operand with several terms or the first product elsewhere."""

    @pytest.mark.parametrize("alg", ONE_TERM_ALGEBRAS, ids=ONE_TERM_IDS)
    def test_runs_equal_fold(self, alg):
        rng = random.Random(2000 + alg.n * 10 + alg.num_odd)
        for trial in range(150):
            den = 7 if trial % 3 else 10 ** rng.randint(1, 20) + rng.randint(1, 99)
            _assert_dot_is_fold(*_run_pairs(rng, alg, rng.randint(1, 8), den))

    @pytest.mark.parametrize("alg", ONE_TERM_ALGEBRAS, ids=ONE_TERM_IDS)
    def test_one_index_runs_stay_in_one_term_mode(self, alg, monkeypatch):
        # the dict loop ends in _normalized; the one-term mode never calls it
        from gradalg import scalars

        def refuse(*args):
            raise AssertionError("a one-index run spilled into the dict loop")
        rng = random.Random(2100 + alg.n * 10 + alg.num_odd)
        keys = _basis_keys(alg)
        for _ in range(60):
            key = rng.choice(keys)
            pairs = [_pair_onto(rng, alg, key) for _ in range(rng.randint(1, 6))]
            if rng.random() < 0.3:
                pairs.insert(rng.randint(0, len(pairs)), (alg.zero(), pairs[0][1]))
            xs, ys = zip(*pairs)
            with monkeypatch.context() as patch:
                patch.setattr(scalars, "_normalized", refuse)
                dot = xs[0]._dot(xs, ys)
            assert dot == _assert_dot_is_fold(xs, ys)
        mixed = Element(alg, {keys[0]: 1, keys[1]: 1})
        with monkeypatch.context() as patch, pytest.raises(AssertionError):
            patch.setattr(scalars, "_normalized", refuse)
            mixed._dot([mixed], [alg.one()])

    def test_index_switch_midway(self, H, units):
        i, j, k = units
        # i*j = k and (2j)*i = -2k, then (1/3)*(3i) = i switches the index
        xs = [i, j * 2, H.scalar(Fraction(1, 3)), k]
        ys = [j * Fraction(1, 5), i, i * 3, H.one()]
        dot = _assert_dot_is_fold(xs, ys)
        assert dot == k * Fraction(-4, 5) + i
        # the running sum has cancelled to zero when the index switches
        dot = _assert_dot_is_fold([i, j, k], [j, i, H.scalar(Fraction(1, 2))])
        assert dot == k * Fraction(1, 2)
        dot = _assert_dot_is_fold([i, j, H.one()], [j, i, i * 4])
        assert dot == i * 4

    def test_multi_term_operand_first_middle_last(self, H, units):
        i, j, k = units
        mixed = H.one() + i * Fraction(1, 2)
        xs = [i * Fraction(1, 3), j, k * 5, i]
        ys = [j, i * Fraction(2, 7), H.one(), j * Fraction(3, 11)]
        for pos in range(4):
            for side in (0, 1):
                a, b = list(xs), list(ys)
                (a if side == 0 else b)[pos] = mixed
                _assert_dot_is_fold(a, b)
        _assert_dot_is_fold([mixed], [mixed])
        _assert_dot_is_fold([mixed, mixed], [i, j])

    def test_vanishing_products_are_skipped(self, EH):
        t1, t2 = EH.odd_generator(1), EH.odd_generator(2)
        i, j, k = quaternion_units(EH)
        # t1 t1 = 0 before, inside and after a one-index run
        for xs, ys in (([t1, i, j * 3], [t1 * 5, j, i]),
                       ([i, t1 * Fraction(1, 3), j], [j * Fraction(1, 7), t1, i]),
                       ([i, j, t2 * i], [j, i * Fraction(2, 9), t2])):
            _assert_dot_is_fold(xs, ys)
        zero = _assert_dot_is_fold([t1 * Fraction(1, 3), t2 * i], [t1, i * t2])
        assert zero._num == {} and zero._den == 1
        # a vanishing product that would have switched the index does not spill
        dot = _assert_dot_is_fold([i, t1], [j * Fraction(1, 2), t1 * j])
        assert dot == k * Fraction(1, 2)

    def test_zero_operands(self, H, units):
        i, j, _ = units
        z = H.zero()
        for xs, ys in (([z, i], [j, j]), ([i, z, j], [j, i, i]), ([i, j], [j, z]),
                       ([z, z], [i, j])):
            _assert_dot_is_fold(xs, ys)
        assert i._dot([z], [i])._num == {} and i._dot([z], [i])._den == 1

    def test_all_cancelling_sums_are_zero_over_one(self, H, units):
        i, j, k = units
        for xs, ys in (([i, j], [j, i]),
                       ([i * Fraction(1, 3), j * Fraction(1, 6)], [j * 2, i * 4]),
                       ([k * Fraction(5, 12), H.one(), i], [H.one(), k * Fraction(-1, 4),
                                                           j * Fraction(-1, 6)])):
            dot = _assert_dot_is_fold(xs, ys)
            assert dot._num == {} and dot._den == 1

    def test_denominators_near_1e40(self, H, units):
        i, j, k = units
        p, q, r = 10 ** 20 + 39, 10 ** 20 + 129, 10 ** 20 + 151
        xs = [i * Fraction(1, p), j * Fraction(3, q), k * Fraction(-7, p * q),
              H.scalar(Fraction(5, r))]
        ys = [j * Fraction(2, q), i * Fraction(1, r), H.scalar(Fraction(p, 3)), k * Fraction(1, p)]
        dot = _assert_dot_is_fold(xs, ys)
        assert dot._den > 10 ** 40
        # the same products in the other order, and an exact cancellation
        _assert_dot_is_fold(xs[::-1], ys[::-1])
        zero = _assert_dot_is_fold([i * Fraction(1, p * q), j * Fraction(1, p)],
                                   [j * Fraction(1, r), i * Fraction(1, q * r)])
        assert zero._num == {} and zero._den == 1

    def test_mismatch_raises_in_either_mode(self, H, Q, units):
        i, j, _ = units
        with pytest.raises(ValueError):
            i._dot([i, j, i], [j, i, Q.one()])  # one-term mode has started
        with pytest.raises(ValueError):
            i._dot([i, H.one() + i, i], [j, i, Q.one()])  # after the spill
        with pytest.raises(ValueError):
            i._dot([i, H.zero()], [j, Q.zero()])

    @pytest.mark.parametrize("alg", [quaternions(), extended_quaternions()], ids=["H", "EH"])
    def test_series_buckets(self, alg):
        sring = SeriesRing(alg, 4)
        rng = random.Random(2200 + alg.num_odd)
        keys = _basis_keys(alg)
        for _ in range(30):
            size = rng.randint(1, 4)
            xs, ys = [], []
            for _ in range(size):
                # coefficients of one degree multiply onto one monomial per
                # bucket only now and then; the kernel must agree either way
                key = rng.choice(keys)
                pairs = [_pair_onto(rng, alg, key) for _ in range(4)]
                xs.append(NilpotentPoly(sring, [a for a, _ in pairs[:rng.randint(1, 4)]]))
                ys.append(NilpotentPoly(sring, [b for _, b in pairs[:rng.randint(1, 4)]]))
            fold = functools.reduce(operator.add, (x * y for x, y in zip(xs, ys)))
            dot = xs[0]._dot(xs, ys)
            coeffs = [{} for _ in range(4)]
            for x, y in zip(xs, ys):
                for a, ca in enumerate(x.coeffs):
                    for b, cb in enumerate(y.coeffs):
                        if a + b < 4:
                            for key, c in _reference_product(ca, cb).items():
                                coeffs[a + b][key] = coeffs[a + b].get(key, 0) + c
            assert dot == fold == NilpotentPoly(sring, [Element(alg, c) for c in coeffs])
            for c in dot.coeffs:
                _assert_canonical(c)

    def test_combine_one_term(self):
        rng = random.Random(2300)
        for alg in ONE_TERM_ALGEBRAS:
            keys = _basis_keys(alg)
            for trial in range(40):
                key = rng.choice(keys)
                den = 7 if trial % 2 else 10 ** 20 + rng.randint(1, 99)
                a, b = _coeff(rng, den), _coeff(rng, den)
                if trial % 5 == 0:
                    b = a
                x, y = alg.monomial(*key, a), alg.monomial(*key, b)
                for got, want in ((x + y, a + b), (x - y, a - b), (y - x, b - a)):
                    ref = Element(alg, {key: want})
                    assert got._num == ref._num and got._den == ref._den
                    _assert_canonical(got)


def _inverts(grid, ring):
    try:
        rm.mat_inverse(grid, ring)
    except NotInvertibleError:
        return False
    return True


class TestNonsingular:
    """ringmat.is_nonsingular holds exactly when mat_inverse returns."""

    def _agrees(self, grid, ring, expected):
        assert _inverts(grid, ring) is expected
        assert rm.is_nonsingular(grid) is expected

    def test_empty_and_one_by_one(self, Q, EH):
        self._agrees([], Q, True)
        self._agrees([[Q.scalar(Fraction(-2, 3))]], Q, True)
        self._agrees([[Q.zero()]], Q, False)
        self._agrees([[EH.odd_generator(1) * EH.odd_generator(2)]], EH, False)

    def test_pivot_needs_a_row_swap(self, Q):
        one, zero = Q.one(), Q.zero()
        self._agrees([[zero, one], [one, one]], Q, True)
        self._agrees([[zero, one, Q.scalar(2)], [zero, Q.scalar(3), one], [one, zero, zero]],
                     Q, True)
        self._agrees([[zero, one, zero], [one, zero, zero], [one, zero, zero]], Q, False)

    def test_nilpotent_candidate_before_a_unit(self, EH):
        # theta1 theta2 is the first nonzero entry of column 0 but has no inverse
        one, zero = EH.one(), EH.zero()
        t12 = EH.odd_generator(1) * EH.odd_generator(2)
        self._agrees([[t12, one], [one, zero]], EH, True)
        self._agrees([[t12, one], [zero, t12]], EH, False)

    def test_zero_divisor_candidate_before_a_unit(self):
        # (1 + e1)(1 - e1) = 0 in Cl(1,1); after the swap 1 - (1 + e1) = -e1
        alg = Algebra(1, 1)
        one, e1 = alg.one(), alg.generator(1)
        self._agrees([[one + e1, one], [one, one]], alg, True)
        self._agrees([[one + e1, one - e1], [one - e1, one + e1]], alg, False)

    def test_duplicate_rows_and_zero_column(self, H, units):
        i, j, k = units
        row = [i, j + 2, k]
        self._agrees([row, [H.one(), H.zero(), i], row[:]], H, False)
        self._agrees([[H.zero(), i], [H.zero(), j]], H, False)

    def test_series_entries(self, H, units):
        sring = SeriesRing(H, 3)
        z, one, i = sring.zeta(), sring.one(), sring.lift(units[0])
        self._agrees([[z, one], [one, z]], sring, True)
        self._agrees([[z * i, one + z], [one, z]], sring, True)
        self._agrees([[one, z], [one, z]], sring, False)
        self._agrees([[z, z * z], [z * i, one]], sring, False)

    @pytest.mark.parametrize("alg", DOT_ALGEBRAS, ids=DOT_IDS)
    def test_random_grids(self, alg):
        rng = random.Random(9600 + alg.n * 10 + alg.num_odd)
        outcomes = set()
        for _ in range(150):
            n = rng.randint(1, 4)
            grid = [[_dot_sample(rng, alg) for _ in range(n)] for _ in range(n)]
            if rng.random() < 0.3:
                grid[rng.randrange(n)] = grid[rng.randrange(n)][:]
            expected = _inverts(grid, alg)
            assert rm.is_nonsingular(grid) is expected
            outcomes.add(expected)
        assert outcomes == {True, False}


def _reference_inverse(grid, ring):
    """mat_inverse with the row update x - f*y: a product, then a difference."""
    n = len(grid)
    a = rm.copy_grid(grid)
    inv = rm.identity(ring, n)
    for col in range(n):
        piv_row, piv_inv = rm._pivot(a, col)
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


def _reference_nonsingular(grid):
    """is_nonsingular with the row update x - f*y."""
    n = len(grid)
    a = rm.copy_grid(grid)
    for col in range(n):
        try:
            piv_row, piv_inv = rm._pivot(a, col)
        except NotInvertibleError:
            return False
        a[col], a[piv_row] = a[piv_row], a[col]
        for r in range(col + 1, n):
            if a[r][col].is_zero:
                continue
            f = a[r][col] * piv_inv
            a[r] = a[r][:col + 1] + [x - f * y for x, y in zip(a[r][col + 1:], a[col][col + 1:])]
    return True


class TestFusedUpdate:
    """Both elimination entry points form x - f*y as one two-pair dot; the
    results must be those of the product-then-difference update."""

    @pytest.mark.parametrize("ring", [quaternions(), extended_quaternions(),
                                      SeriesRing(quaternions(), 3)], ids=["H", "EH", "H[z]"])
    def test_matches_product_then_difference(self, ring):
        rng = random.Random(1602)
        series = isinstance(ring, SeriesRing)
        outcomes = set()
        for _ in range(80):
            n = rng.randint(1, 4)
            grid = [[ring.zero() if rng.random() < 0.3
                     else _series_sample(rng, ring) if series else _dot_sample(rng, ring)
                     for _ in range(n)] for _ in range(n)]
            try:
                want = _reference_inverse(grid, ring)
            except NotInvertibleError:
                want = None
                with pytest.raises(NotInvertibleError):
                    rm.mat_inverse(grid, ring)
            else:
                assert rm.grids_equal(rm.mat_inverse(grid, ring), want)
            assert rm.is_nonsingular(grid) is _reference_nonsingular(grid) is (want is not None)
            outcomes.add(want is not None)
        assert outcomes == {True, False}


class TestPivotNegation:
    def test_last_column_forms_no_negation(self, H, monkeypatch):
        # a pivot inverse is negated only for the rows below it, so a 2x2
        # grid negates once, in column 0
        count = [0]
        neg = Element.__neg__

        def counted(self):
            count[0] += 1
            return neg(self)
        monkeypatch.setattr(Element, "__neg__", counted)
        assert rm.is_nonsingular([[H.scalar(2), H.one()], [H.one(), H.one()]])
        assert count[0] == 1
        count[0] = 0
        assert rm.is_nonsingular([[H.scalar(3)]])
        assert count[0] == 0


def _fraction_det(rows):
    """Leibniz determinant over Q, the reference for the integer kernel."""
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[a] > perm[b] for a in range(n) for b in range(a + 1, n))
        total += (-1) ** inversions * math.prod(rows[r][perm[r]] for r in range(n))
    return total


class TestBareiss:
    """ringmat.bareiss_nonsingular decides nonsingularity over Q on ints."""

    def test_empty_and_one_by_one(self):
        assert rm.bareiss_nonsingular([]) is True
        assert rm.bareiss_nonsingular([[0]]) is False
        assert rm.bareiss_nonsingular([[-7]]) is True

    def test_required_row_swap(self):
        assert rm.bareiss_nonsingular([[0, 1], [1, 0]]) is True
        assert rm.bareiss_nonsingular([[0, 1, 2], [0, 3, 1], [1, 0, 0]]) is True
        assert rm.bareiss_nonsingular([[0, 1, 0], [1, 0, 0], [1, 0, 0]]) is False

    def test_singular_without_zero_entries(self):
        assert rm.bareiss_nonsingular([[1, 2, 3], [4, 5, 6], [7, 8, 9]]) is False
        assert rm.bareiss_nonsingular([[2, -3], [-4, 6]]) is False

    def test_large_entries(self):
        big = 10 ** 40
        assert rm.bareiss_nonsingular([[big + 1, big], [big, big - 1]]) is True   # det -1
        assert rm.bareiss_nonsingular([[big, 3 * big + 7], [2 * big, 6 * big + 14]]) is False
        rows = [[(r + 1) * big + c for c in range(4)] for r in range(4)]
        assert rm.bareiss_nonsingular(rows) is (_fraction_det(rows) != 0)

    def test_input_is_not_changed_and_must_be_square(self):
        rows = [[0, 2], [3, 4]]
        assert rm.bareiss_nonsingular(rows)
        assert rows == [[0, 2], [3, 4]]
        with pytest.raises(ValueError):
            rm.bareiss_nonsingular([[1, 2]])

    def test_matches_leibniz(self):
        rng = random.Random(1801)
        outcomes = set()
        for _ in range(300):
            n = rng.randint(1, 5)
            rows = [[rng.choice((0, 0, 1, -1, rng.randint(-9, 9))) for _ in range(n)]
                    for _ in range(n)]
            want = _fraction_det(rows) != 0
            assert rm.bareiss_nonsingular(rows) is want
            outcomes.add(want)
        assert outcomes == {True, False}
