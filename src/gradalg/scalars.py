"""Exact scalars: the Clifford algebra Cl_{p,q} over Q carrying the even
(Z2)^{n+1} grading, optionally extended by nilpotent generators of odd degree.

Basis monomials are pairs (clifford mask, odd mask).  Generator e_i squares to
+1 for i <= p and -1 otherwise, distinct generators anticommute, and the degree
of e_i has a 1 in coordinate i and in the last coordinate, so every Clifford
monomial is even.  Adjoined odd symbols square to zero and commute against
homogeneous elements through the sign (-1)^<deg,deg>.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import NotInvertibleError
from .grading import GroupElement


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

    # -- element factories ---------------------------------------------------

    def zero(self) -> "Element":
        return Element(self, {})

    def one(self) -> "Element":
        return self.scalar(1)

    def scalar(self, c) -> "Element":
        return Element(self, {(0, 0): Fraction(c)})

    def blade(self, mask: int, coeff=1) -> "Element":
        if not 0 <= mask < (1 << self.n):
            raise ValueError("generator mask out of range")
        return Element(self, {(mask, 0): Fraction(coeff)})

    def generator(self, i: int) -> "Element":
        """e_i for 1 <= i <= n."""
        if not 1 <= i <= self.n:
            raise ValueError("generator index out of range")
        return self.blade(1 << (i - 1))

    def odd_generator(self, i: int) -> "Element":
        """The i-th adjoined odd symbol, 1-based."""
        if not 1 <= i <= self.num_odd:
            raise ValueError("odd generator index out of range")
        return Element(self, {(0, 1 << (i - 1)): Fraction(1)})

    def monomial(self, cl_mask: int, odd_mask: int = 0, coeff=1) -> "Element":
        if not 0 <= odd_mask < (1 << self.num_odd):
            raise ValueError("odd mask out of range")
        if not 0 <= cl_mask < (1 << self.n):
            raise ValueError("generator mask out of range")
        return Element(self, {(cl_mask, odd_mask): Fraction(coeff)})

    # -- degrees -------------------------------------------------------------

    def monomial_degree(self, cl_mask: int, odd_mask: int = 0) -> GroupElement:
        return self._degree_table()[(cl_mask, odd_mask)]

    @lru_cache(maxsize=None)
    def _degree_table(self):
        table = {}
        for cl in range(1 << self.n):
            base = cl | ((cl.bit_count() & 1) << self.n)
            for odd in range(1 << self.num_odd):
                mask = base
                for t in range(self.num_odd):
                    if odd >> t & 1:
                        mask ^= self.odd_degrees[t].mask
                table[(cl, odd)] = GroupElement(self.arity, mask)
        return table

    @lru_cache(maxsize=None)
    def monomials_by_degree(self):
        """Map degree -> tuple of (cl_mask, odd_mask) basis monomials."""
        out = {}
        for key, deg in self._degree_table().items():
            out.setdefault(deg, []).append(key)
        return {deg: tuple(sorted(keys)) for deg, keys in out.items()}

    # -- monomial products ---------------------------------------------------

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


class RingElement:
    """Ring code shared by Element and series.NilpotentPoly; each subclass
    supplies ``_coerce``, ``+``, unary ``-``, ``*``, ``is_zero``, ``degree``,
    ``inverse`` and ``_one``."""

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
    """A finite Q-linear combination of basis monomials of one Algebra."""

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra: Algebra, terms: dict):
        self.algebra = algebra
        self.terms = {k: v for k, v in terms.items() if v != 0}

    # -- ring structure --------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Element):
            if other.algebra != self.algebra:
                raise ValueError("algebra descriptor mismatch")
            return other
        if isinstance(other, (int, Fraction)):
            return self.algebra.scalar(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms = dict(self.terms)
        for k, v in other.terms.items():
            terms[k] = terms.get(k, Fraction(0)) + v
        return Element(self.algebra, terms)

    __radd__ = __add__

    def __neg__(self):
        return Element(self.algebra, {k: -v for k, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            return Element(self.algebra, {k: v * c for k, v in self.terms.items()})
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        alg = self.algebra
        out = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                hit = alg._mul_monomials(k1, k2)
                if hit is None:
                    continue
                key, sign = hit
                out[key] = out.get(key, Fraction(0)) + (c1 * c2 if sign > 0 else -c1 * c2)
        return Element(alg, out)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.__mul__(other)
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            return Element(self.algebra, {k: v / c for k, v in self.terms.items()})
        return NotImplemented

    def _one(self):
        return self.algebra.one()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.algebra.scalar(other)
        if not isinstance(other, Element):
            return NotImplemented
        return self.algebra == other.algebra and self.terms == other.terms

    __hash__ = None

    # -- structure queries -------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def scalar_part(self) -> Fraction:
        return self.terms.get((0, 0), Fraction(0))

    def is_rational(self) -> bool:
        return all(k == (0, 0) for k in self.terms)

    def degree(self):
        """Common degree of all terms, or None when the element is mixed.

        The degree of zero is undefined and raises ValueError.
        """
        if not self.terms:
            raise ValueError("degree of zero is undefined")
        degs = {self.algebra.monomial_degree(*k) for k in self.terms}
        if len(degs) == 1:
            return next(iter(degs))
        return None

    def graded_parts(self):
        """List of (degree, homogeneous part) pairs, deterministic order."""
        buckets = {}
        for k, v in self.terms.items():
            buckets.setdefault(self.algebra.monomial_degree(*k), {})[k] = v
        return [(deg, Element(self.algebra, terms))
                for deg, terms in sorted(buckets.items(), key=lambda kv: kv[0].mask)]

    def strip_odd(self) -> "Element":
        """Reduction mod the ideal generated by odd elements, lifted back.

        Every monomial containing an adjoined odd symbol lies in that ideal
        (those of even degree are products of two odd ones), so this keeps
        exactly the pure Clifford terms.
        """
        return Element(self.algebra, {k: v for k, v in self.terms.items() if k[1] == 0})

    # -- inversion ----------------------------------------------------------

    def inverse(self) -> "Element":
        """Two-sided inverse; raises NotInvertibleError if none exists."""
        if not self.terms:
            raise NotInvertibleError("zero is not invertible")
        core = self.strip_odd()
        if core.is_zero:
            raise NotInvertibleError("element lies in the nilpotent odd ideal")
        return self._lift_inverse(core, _clifford_inverse(core), self.algebra.num_odd)

    # -- formatting ----------------------------------------------------------

    def __str__(self):
        if not self.terms:
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


def _clifford_inverse(a: Element) -> Element:
    """Inverse of a pure Clifford element.

    Single monomials invert directly from their square; otherwise solve the
    2^n x 2^n left-multiplication system over Q exactly.
    """
    alg = a.algebra
    if len(a.terms) == 1:
        (mask, _), c = next(iter(a.terms.items()))
        _, s = alg._mul_monomials((mask, 0), (mask, 0))
        return alg.blade(mask, Fraction(s) / c)
    dim = 1 << alg.n
    cols = list(range(dim))
    # rows[r][j] = coefficient of blade r in a * e_j
    rows = [[Fraction(0)] * dim for _ in range(dim)]
    for j in cols:
        for (m1, _), c1 in a.terms.items():
            hit = alg._mul_monomials((m1, 0), (j, 0))
            key, sign = hit
            rows[key[0]][j] += c1 if sign > 0 else -c1
    rhs = [Fraction(0)] * dim
    rhs[0] = Fraction(1)
    sol = _solve_rational(rows, rhs)
    if sol is None:
        raise NotInvertibleError("left-multiplication system is singular")
    terms = {(j, 0): sol[j] for j in cols if sol[j]}
    return Element(alg, terms)


def _solve_rational(matrix, rhs):
    """Exact Gaussian elimination over Q; None when the system is singular."""
    n = len(matrix)
    a = [row[:] + [rhs[i]] for i, row in enumerate(matrix)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [a[i][n] for i in range(n)]


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
