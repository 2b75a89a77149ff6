"""Exact scalars: the Clifford algebra Cl_{p,q} over Q carrying the even
(Z2)^{n+1} grading, optionally extended by nilpotent generators of odd degree.

Basis monomials are pairs (clifford mask, odd mask).  Generator e_i squares to
+1 for i <= p and -1 otherwise, distinct generators anticommute, and the degree
of e_i has a 1 in coordinate i and in the last coordinate, so every Clifford
monomial is even.  Adjoined odd symbols square to zero and commute against
homogeneous elements through the sign (-1)^<deg,deg>.

An element is stored sparsely as integer numerators keyed by the basis index
``cl | (odd << n)`` over one positive denominator, kept canonical (no zero
numerator, numerators and denominator coprime, zero over 1) so that equality
is structural.  Products read a signed table shared by all equal algebras:
``table[i][j]`` is +(k+1) or -(k+1) when e_i e_j = +e_k or -e_k, and 0 when the
product vanishes (Dorst, Fontijne and Mann, Geometric Algebra for Computer
Science, 2007).  Entries are computed on first use, so a sparse product in an
algebra with many generators costs no more than the pairs it touches.

Every product and dot product goes through one kernel, ``_sum_of_products``.
Each even degree of Cl_{p,q} is carried by one blade, so the entries of a
homogeneous matrix, and the products and Schur complements built from them,
are single terms whose products in a dot product all land on one basis index;
while that holds the kernel keeps one integer numerator over a running
denominator, and it falls back to a dict of numerators at the first operand
or product that breaks it.  Sums of two single terms on one index take the
same shortcut.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, lcm
from types import MappingProxyType

from .errors import NotInvertibleError
from .grading import GroupElement
from .ringmat import mat_inverse


def _reorder_swaps(a: int, b: int) -> int:
    """Transpositions needed to merge sorted generator sets a then b."""
    total = 0
    a >>= 1
    while a:
        total += (a & b).bit_count()
        a >>= 1
    return total


@dataclass(frozen=True)
class Algebra:
    """Descriptor of Cl_{p,q} over Q, possibly with adjoined odd generators.

    The grading group is (Z2)^{p+q+1}.  ``odd_degrees`` assigns a degree of
    parity 1 to each adjoined nilpotent symbol; leaving it empty gives the
    plain Clifford algebra (and p = q = 0 gives Q itself, arity 1).
    """

    p: int
    q: int
    odd_degrees: tuple = ()

    def __post_init__(self):
        if self.p < 0 or self.q < 0:
            raise ValueError("signature counts must be nonnegative")
        if self.arity > 16:
            raise ValueError("grading arity beyond 16 is not supported")
        object.__setattr__(self, "odd_degrees", tuple(self.odd_degrees))
        for g in self.odd_degrees:
            if not isinstance(g, GroupElement) or g.m != self.arity:
                raise ValueError("odd generator degree has wrong arity")
            if g.parity != 1:
                raise ValueError("adjoined generators must have odd degree")

    @property
    def n(self) -> int:
        return self.p + self.q

    @property
    def arity(self) -> int:
        return self.p + self.q + 1

    @property
    def num_odd(self) -> int:
        return len(self.odd_degrees)

    def _index(self, cl_mask: int, odd_mask: int) -> int:
        """Basis index of the monomial (cl_mask, odd_mask), range-checked."""
        if not 0 <= odd_mask < (1 << self.num_odd):
            raise ValueError("odd mask out of range")
        if not 0 <= cl_mask < (1 << self.n):
            raise ValueError("generator mask out of range")
        return cl_mask | (odd_mask << self.n)

    # -- element factories ---------------------------------------------------

    def zero(self) -> "Element":
        return _element(self, {}, 1)

    def one(self) -> "Element":
        return _element(self, {0: 1}, 1)

    def scalar(self, c) -> "Element":
        return _monomial(self, 0, c)

    def blade(self, mask: int, coeff=1) -> "Element":
        return self.monomial(mask, 0, coeff)

    def generator(self, i: int) -> "Element":
        """e_i for 1 <= i <= n."""
        if not 1 <= i <= self.n:
            raise ValueError("generator index out of range")
        return self.blade(1 << (i - 1))

    def odd_generator(self, i: int) -> "Element":
        """The i-th adjoined odd symbol, 1-based."""
        if not 1 <= i <= self.num_odd:
            raise ValueError("odd generator index out of range")
        return self.monomial(0, 1 << (i - 1))

    def monomial(self, cl_mask: int, odd_mask: int = 0, coeff=1) -> "Element":
        return _monomial(self, self._index(cl_mask, odd_mask), coeff)

    # -- degrees -------------------------------------------------------------

    def monomial_degree(self, cl_mask: int, odd_mask: int = 0) -> GroupElement:
        return self._degrees[self._index(cl_mask, odd_mask)]

    @cached_property
    def _degrees(self):
        """Degree of each basis index, shared by equal algebras; equal degrees
        are one shared object."""
        return _degrees_of(self)

    @lru_cache(maxsize=None)
    def monomials_by_degree(self):
        """Map degree -> tuple of (cl_mask, odd_mask) basis monomials."""
        out = {}
        low = (1 << self.n) - 1
        for i, deg in enumerate(self._degrees):
            out.setdefault(deg, []).append((i & low, i >> self.n))
        return {deg: tuple(sorted(keys)) for deg, keys in out.items()}

    # -- monomial products ---------------------------------------------------

    @cached_property
    def _table(self):
        """Signed product table ``_table[i][j]``, shared by equal algebras."""
        return _table_of(self)

    def _product_index(self, i: int, j: int) -> int:
        """Table entry for basis indices i and j, from ``_mul_monomials``."""
        n = self.n
        low = (1 << n) - 1
        hit = self._mul_monomials((i & low, i >> n), (j & low, j >> n))
        if hit is None:
            return 0
        (cl, odd), sign = hit
        return sign * ((cl | (odd << n)) + 1)

    def _mul_monomials(self, key1, key2):
        """Product of two basis monomials; (key, sign) or None when it dies."""
        m1, t1 = key1
        m2, t2 = key2
        if t1 & t2:
            return None
        sign = 1
        # move the Clifford part of the right factor across the left odd part
        if t1 and m2:
            d_odd = self.monomial_degree(0, t1).mask
            d_cl = self.monomial_degree(m2, 0).mask
            if (d_odd & d_cl).bit_count() & 1:
                sign = -sign
        # Clifford product with signature signs on repeated generators
        if (_reorder_swaps(m1, m2) & 1):
            sign = -sign
        common = m1 & m2
        if self.q and common >> self.p:
            if ((common >> self.p).bit_count() & 1):
                sign = -sign
        # merge the odd parts, one pairwise sign per inversion
        if t1 and t2:
            for s in range(self.num_odd):
                if not (t1 >> s & 1):
                    continue
                lower = t2 & ((1 << s) - 1)
                if lower:
                    ds = self.odd_degrees[s].mask
                    for t in range(s):
                        if lower >> t & 1 and (ds & self.odd_degrees[t].mask).bit_count() & 1:
                            sign = -sign
        return (m1 ^ m2, t1 | t2), sign


class _Row(dict):
    """Row i of a product table; each entry is computed on first lookup, so
    the table holds only the products that were asked for."""

    __slots__ = ("algebra", "index")

    def __init__(self, algebra: Algebra, index: int):
        self.algebra = algebra
        self.index = index

    def __missing__(self, j):
        k = self[j] = self.algebra._product_index(self.index, j)
        return k


class _Table(dict):
    """Product table of one algebra, a dict of lazily filled rows."""

    __slots__ = ("algebra",)

    def __init__(self, algebra: Algebra):
        self.algebra = algebra

    def __missing__(self, i):
        row = self[i] = _Row(self.algebra, i)
        return row


@lru_cache(maxsize=None)
def _table_of(alg: Algebra) -> _Table:
    # one table per algebra value, so equal descriptors share filled entries
    return _Table(alg)


@lru_cache(maxsize=None)
def _degrees_of(alg: Algebra) -> tuple:
    # one tuple per algebra value, so a freshly parsed descriptor reuses it
    shared = {}
    degrees = []
    n = alg.n
    for i in range(1 << (n + alg.num_odd)):
        cl = i & ((1 << n) - 1)
        mask = cl | ((cl.bit_count() & 1) << n)
        for t, g in enumerate(alg.odd_degrees):
            if i >> (n + t) & 1:
                mask ^= g.mask
        degrees.append(shared.setdefault(mask, GroupElement(alg.arity, mask)))
    return tuple(degrees)


class RingElement:
    """Ring code shared by Element and series.NilpotentPoly; each subclass
    supplies ``_coerce``, ``+``, unary ``-``, ``*``, ``is_zero``, ``degree``,
    ``inverse``, ``_one``, ``_dot`` and ``residue``.

    ``x._dot(xs, ys)`` is sum x*y over ``zip(xs, ys)`` for entries of x's
    ring, equal to the left fold of the products; ``ringmat`` takes every dot
    product through it.

    ``x.residue()`` is the image of x modulo the nilpotent ideal (the odd
    symbols, and zeta on a series), a plain Clifford ``Element``.  The map is
    a ring homomorphism, and x is invertible exactly when its residue is.
    """

    __slots__ = ()

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        base = self
        if k < 0:
            base = self.inverse()
            k = -k
        acc = self._one()
        for _ in range(k):
            acc = acc * base
        return acc

    @property
    def is_homogeneous(self) -> bool:
        return self.is_zero or self.degree() is not None

    def _lift_inverse(self, core, core_inv, steps: int):
        """(c + N)^{-1} = sum_k (-c^{-1} N)^k c^{-1} for N = self - core,
        given core_inv = c^{-1} and (c^{-1} N)^(steps+1) = 0."""
        nil = self - core
        if nil.is_zero:
            return core_inv
        u = core_inv * nil
        acc = power = self._one()
        for _ in range(steps):
            power = power * (-u)
            if power.is_zero:
                break
            acc = acc + power
        return acc * core_inv


class Element(RingElement):
    """A finite Q-linear combination of basis monomials of one Algebra.

    ``Element(algebra, terms)`` takes a {(cl_mask, odd_mask): rational} dict;
    zero coefficients are dropped and masks out of range raise ValueError.
    """

    __slots__ = ("algebra", "_num", "_den")

    def __init__(self, algebra: Algebra, terms: dict):
        coeffs = {algebra._index(cl, odd): c if isinstance(c, (int, Fraction)) else Fraction(c)
                  for (cl, odd), c in terms.items()}
        # zero coefficients have denominator 1, so they leave the lcm alone
        den = lcm(*(c.denominator for c in coeffs.values()))
        self.algebra = algebra
        self._num = {i: v for i, c in coeffs.items() if (v := c.numerator * (den // c.denominator))}
        self._den = den

    @property
    def terms(self):
        """Read-only {(cl_mask, odd_mask): Fraction} view of the element."""
        n = self.algebra.n
        low = (1 << n) - 1
        den = self._den
        return MappingProxyType({(i & low, i >> n): Fraction(v, den)
                                 for i, v in self._num.items()})

    # -- ring structure --------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Element):
            if other.algebra is not self.algebra and other.algebra != self.algebra:
                raise ValueError("algebra descriptor mismatch")
            return other
        if isinstance(other, (int, Fraction)):
            return _monomial(self.algebra, 0, other)
        return None

    def _combine(self, other: "Element", sign: int) -> "Element":
        """self + sign * other over the least common denominator."""
        n2 = other._num
        if not n2:
            return self
        n1 = self._num
        if not n1:
            return other if sign > 0 else -other
        d1, d2 = self._den, other._den
        g = gcd(d1, d2)
        m1 = d2 // g
        m2 = sign * (d1 // g)
        if len(n1) == 1 and n1.keys() == n2.keys():
            # one term on both sides: one numerator, as in _sum_of_products
            k, = n1
            v = n1[k] * m1 + n2[k] * m2
            if not v:
                return _element(self.algebra, {}, 1)
            den = d1 * m1
            g = gcd(v, den)
            return _element(self.algebra, {k: v // g}, den // g)
        out = dict(n1) if m1 == 1 else {k: v * m1 for k, v in n1.items()}
        for k, v in n2.items():
            out[k] = out.get(k, 0) + v * m2
        return _normalized(self.algebra, out, d1 * m1)

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._combine(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._combine(other, -1)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other._combine(self, -1)

    def __neg__(self):
        return _element(self.algebra, {k: -v for k, v in self._num.items()}, self._den)

    def _scaled(self, p: int, q: int) -> "Element":
        """self * p / q for integers p and q > 0."""
        return _normalized(self.algebra, {k: v * p for k, v in self._num.items()},
                           self._den * q)

    def __mul__(self, other):
        if not isinstance(other, Element):
            if isinstance(other, (int, Fraction)):
                return self._scaled(other.numerator, other.denominator)
            return NotImplemented
        return _sum_of_products(self.algebra, ((self, other),))

    def _dot(self, xs, ys):
        return _sum_of_products(self.algebra, zip(xs, ys))

    __rmul__ = __mul__  # only rationals reach it, and they commute

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            p, q = other.numerator, other.denominator
            if not p:
                raise ZeroDivisionError("division of an Element by zero")
            return self._scaled(q, p) if p > 0 else self._scaled(-q, -p)
        return NotImplemented

    def _one(self):
        return self.algebra.one()

    def __eq__(self, other):
        if not isinstance(other, Element):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = _monomial(self.algebra, 0, other)
        return (self._num == other._num and self._den == other._den
                and (self.algebra is other.algebra or self.algebra == other.algebra))

    __hash__ = None

    # -- structure queries -------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._num

    def scalar_part(self) -> Fraction:
        return Fraction(self._num.get(0, 0), self._den)

    def is_rational(self) -> bool:
        return all(i == 0 for i in self._num)

    def degree(self):
        """Common degree of all terms, or None when the element is mixed.

        The degree of zero is undefined and raises ValueError.
        """
        if not self._num:
            raise ValueError("degree of zero is undefined")
        degrees = self.algebra._degrees
        indices = iter(self._num)
        deg = degrees[next(indices)]
        for i in indices:
            if degrees[i] is not deg:
                return None
        return deg

    def graded_parts(self):
        """List of (degree, homogeneous part) pairs, deterministic order."""
        degrees = self.algebra._degrees
        buckets = {}
        for i, v in self._num.items():
            buckets.setdefault(degrees[i], {})[i] = v
        return [(deg, _normalized(self.algebra, num, self._den))
                for deg, num in sorted(buckets.items(), key=lambda kv: kv[0].mask)]

    def strip_odd(self) -> "Element":
        """Reduction mod the ideal generated by odd elements, lifted back.

        Every monomial containing an adjoined odd symbol lies in that ideal
        (those of even degree are products of two odd ones), so this keeps
        exactly the pure Clifford terms.
        """
        alg = self.algebra
        size = 1 << alg.n
        if not alg.odd_degrees or max(self._num, default=0) < size:
            return self
        return _normalized(alg, {i: v for i, v in self._num.items() if i < size}, self._den)

    # an Element has no zeta, so its residue is its reduction mod the odd ideal
    residue = strip_odd

    # -- inversion ----------------------------------------------------------

    def inverse(self) -> "Element":
        """Two-sided inverse; raises NotInvertibleError if none exists."""
        if not self._num:
            raise NotInvertibleError("zero is not invertible")
        core = self.strip_odd()
        if core.is_zero:
            raise NotInvertibleError("element lies in the nilpotent odd ideal")
        core_inv = _clifford_inverse(core)
        if core is self:
            return core_inv
        return self._lift_inverse(core, core_inv, self.algebra.num_odd)

    # -- formatting ----------------------------------------------------------

    def __str__(self):
        if not self._num:
            return "0"
        bits = []
        for (cl, odd), c in sorted(self.terms.items()):
            name = ""
            if cl:
                name += "e" + "".join(str(i + 1) for i in range(self.algebra.n) if cl >> i & 1)
            if odd:
                name += "".join("t%d" % (i + 1) for i in range(self.algebra.num_odd) if odd >> i & 1)
            if not name:
                bits.append(str(c))
            elif c == 1:
                bits.append(name)
            elif c == -1:
                bits.append("-" + name)
            else:
                bits.append(f"{c}*{name}")
        return " + ".join(bits).replace("+ -", "- ")

    __repr__ = __str__


_new_object = object.__new__


def _element(alg: Algebra, num: dict, den: int) -> Element:
    """An Element from numerators and a denominator already in canonical form."""
    e = _new_object(Element)
    e.algebra = alg
    e._num = num
    e._den = den
    return e


def _normalized(alg: Algebra, num: dict, den: int) -> Element:
    """The canonical Element of num / den, for integer numerators and den > 0."""
    if 0 in num.values():
        num = {k: v for k, v in num.items() if v}
    if den != 1:
        if not num:
            den = 1
        else:
            g = gcd(den, *num.values())
            if g != 1:
                den //= g
                num = {k: v // g for k, v in num.items()}
    return _element(alg, num, den)


def _sum_of_products(alg: Algebra, pairs) -> Element:
    """The canonical Element of sum x*y over (x, y) pairs of Elements of alg.

    Products are read off the shared table and their integer numerators added
    over a running least common denominator, so the whole sum is normalized
    once.  While every pair's operands are single terms whose products land
    on one basis index k (the common case: each even degree of Cl(p,q) is
    one blade, so homogeneous entries and everything built from them are
    single terms), the sum is one integer ``acc`` over ``den`` times e_k and
    no dict is built.  The first operand with several terms, or the first
    product on another index, spills ``{k: acc}`` over ``den`` into a dict
    of numerators, and the dict loop carries on from that pair.  Zero
    operands and vanishing products are skipped in both modes, and a foreign
    operand raises in both.

    The result equals the left fold of ``x*y`` structurally (same ``_num``,
    same ``_den``, zero over 1):
    - each mode adds exact integer numerators over a common denominator:
      ``acc/den + c/d = (acc * (d/g) + c * (den/g)) / (den*d/g)`` with
      g = gcd(den, d), and the dict loop rescales every numerator the same
      way.  A spill happens before the pair's product is added, and the
      dict loop then takes that pair, so every product is added once and
      on return (numerators, den) represents the exact sum;
    - the returned Element is canonical (no zero numerator, numerators and
      den coprime, den > 0, zero over 1): ``_normalized`` ensures it in dict
      mode, and in one-term mode the numerator and den are divided by their
      gcd, with zero mapped to {} over 1;
    - a canonical form is unique: den is a multiple of the lcm D of the
      coefficients' reduced denominators, and den / D divides den and every
      numerator, so it is 1; thus den = D and each numerator is its
      coefficient times D;
    - ``x*y`` and ``+`` return canonical Elements too, so the fold and this
      sum, being equal in value, are equal in ``_num`` and ``_den``.
    """
    table = alg._table
    out = None  # the numerators by basis index, once the one-term mode ends
    acc = 0
    den = 1
    key = -1  # basis index of the one-term sum, -1 before its first product
    for x, y in pairs:
        if (x.algebra is not alg and x.algebra != alg) or (y.algebra is not alg
                                                           and y.algebra != alg):
            raise ValueError("algebra descriptor mismatch")
        left, right = x._num, y._num
        if not left or not right:
            continue
        d = x._den * y._den
        if out is None:
            if len(left) == 1 and len(right) == 1:
                i, = left
                j, = right
                k = table[i][j]
                if not k:
                    continue
                c = left[i] * right[j]
                if k > 0:
                    k -= 1
                else:
                    k = -k - 1
                    c = -c
                if key < 0:
                    key, acc, den = k, c, d
                    continue
                if k == key:
                    if d == den:
                        acc += c
                    else:
                        g = gcd(den, d)
                        acc = acc * (d // g) + c * (den // g)
                        den *= d // g
                    continue
            # spill: this pair is the first the one-term mode cannot take
            out = {key: acc} if key >= 0 else {}
        scale = 1
        if d != den:
            if out:
                den, scale = _common_denominator(out, den, d)
            else:
                den = d
        right = right.items()
        for i, a in left.items():
            if scale != 1:
                a *= scale
            row = table[i]
            for j, b in right:
                k = row[j]
                if k > 0:
                    k -= 1
                    out[k] = out.get(k, 0) + a * b
                elif k:
                    k = -k - 1
                    out[k] = out.get(k, 0) - a * b
    if out is not None:
        return _normalized(alg, out, den)
    if not acc:
        return _element(alg, {}, 1)
    g = gcd(acc, den)
    return _element(alg, {key: acc // g}, den // g)


def _common_denominator(num: dict, den: int, d: int):
    """Rescale the numerators ``num`` over ``den`` in place to lcm(den, d);
    return that lcm and the factor taking a numerator over d to it."""
    grow = d // gcd(den, d)
    if grow != 1:
        for k in num:
            num[k] *= grow
        den *= grow
    return den, den // d


def _monomial(alg: Algebra, index: int, coeff) -> Element:
    """coeff * e_index for a rational coeff (anything Fraction accepts)."""
    if not isinstance(coeff, (int, Fraction)):
        coeff = Fraction(coeff)
    if not coeff:
        return _element(alg, {}, 1)
    return _element(alg, {index: coeff.numerator}, coeff.denominator)


def _clifford_inverse(a: Element) -> Element:
    """Inverse of a pure Clifford element.

    A single monomial c e_m inverts directly from its square e_m^2 = s as
    (s / c) e_m.  Otherwise the 2^n x 2^n left-multiplication system is
    inverted over Q by ``ringmat.mat_inverse``, which refuses exactly when a
    is a zero divisor.
    """
    alg = a.algebra
    if len(a._num) == 1:
        (i, v), = a._num.items()
        num = alg._table[i][i] * a._den
        return _element(alg, {i: num if v > 0 else -num}, abs(v))
    Q = rationals()
    size = 1 << alg.n
    # rows[k][j] = numerator of the coefficient of e_k in a * e_j
    rows = [[0] * size for _ in range(size)]
    for i, v in a._num.items():
        row = alg._table[i]
        for j in range(size):
            k = row[j]
            rows[abs(k) - 1][j] += v if k > 0 else -v
    grid = [[Q.scalar(Fraction(x, a._den)) for x in row] for row in rows]
    # column 0 of the inverse solves a * x = 1
    inv = mat_inverse(grid, Q)
    return Element(alg, {(j, 0): inv[j][0].scalar_part() for j in range(size)})


# -- common algebras ---------------------------------------------------------


def rationals() -> Algebra:
    """Q as the trivial Clifford algebra, graded over (Z2)^1."""
    return Algebra(0, 0)


def quaternions() -> Algebra:
    """H realized as Cl_{0,2} under the even (Z2)^3 grading."""
    return Algebra(0, 2)


def quaternion_units(alg: Algebra):
    """The units i, j, k with degrees (0,1,1), (1,0,1), (1,1,0).

    In Cl_{0,2} that pins i to the second generator and j to the first;
    k = i*j then lands on the expected degree.
    """
    if (alg.p, alg.q) != (0, 2):
        raise ValueError("quaternion units need signature (0,2)")
    i = alg.generator(2)
    j = alg.generator(1)
    return i, j, i * j


def quaternion(alg: Algebra, x, a, b, c) -> Element:
    i, j, k = quaternion_units(alg)
    return alg.scalar(x) + i * Fraction(a) + j * Fraction(b) + k * Fraction(c)


def grassmann(k: int) -> Algebra:
    """Q with k anticommuting odd symbols of degree (1): the classical
    supercommutative test ring."""
    odd = tuple(GroupElement(1, 1) for _ in range(k))
    return Algebra(0, 0, odd)


def extended_quaternions(odd_degree_bits=((0, 0, 1), (0, 1, 0))) -> Algebra:
    """H with adjoined odd generators, for exercising odd matrix blocks."""
    odd = tuple(GroupElement.from_bits(bits) for bits in odd_degree_bits)
    return Algebra(0, 2, odd)
