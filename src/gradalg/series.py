"""Truncated polynomials in a nilpotent degree-0 parameter over a graded
scalar ring.  A ring of order K satisfies zeta^K = 0 identically."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import NotInvertibleError
from .scalars import Algebra, Element, RingElement, _sum_of_products

DEFAULT_ORDER = 8


@dataclass(frozen=True)
class SeriesRing:
    base: Algebra
    order: int = DEFAULT_ORDER

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("truncation order must be >= 1")

    @property
    def arity(self) -> int:
        return self.base.arity

    def zero(self) -> "NilpotentPoly":
        return NilpotentPoly(self, ())

    def one(self) -> "NilpotentPoly":
        return NilpotentPoly(self, (self.base.one(),))

    def scalar(self, c) -> "NilpotentPoly":
        return NilpotentPoly(self, (self.base.scalar(c),))

    def lift(self, element: Element) -> "NilpotentPoly":
        return NilpotentPoly(self, (element,))

    def zeta(self, coeff=None) -> "NilpotentPoly":
        """zeta, or zeta times a base-ring element."""
        c = self.base.one() if coeff is None else coeff
        return NilpotentPoly(self, (self.base.zero(), c))


class NilpotentPoly(RingElement):
    """Coefficient list (zeta^0, ..., zeta^{K-1}) over the base algebra."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: SeriesRing, coeffs):
        coeffs = tuple(coeffs)[: ring.order]
        while coeffs and coeffs[-1].is_zero:
            coeffs = coeffs[:-1]
        self.ring = ring
        self.coeffs = coeffs

    def coeff(self, k: int) -> Element:
        if k < len(self.coeffs):
            return self.coeffs[k]
        return self.ring.base.zero()

    def constant_term(self) -> Element:
        return self.coeff(0)

    # -- ring structure --------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, NilpotentPoly):
            if other.ring is not self.ring and other.ring != self.ring:
                raise ValueError("series ring mismatch")
            return other
        if isinstance(other, Element):
            return self.ring.lift(other)
        if isinstance(other, (int, Fraction)):
            return self.ring.scalar(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return NilpotentPoly(self.ring, (self.coeff(k) + other.coeff(k) for k in range(n)))

    __radd__ = __add__

    def __neg__(self):
        return NilpotentPoly(self.ring, (-c for c in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return NilpotentPoly(self.ring, (c * other for c in self.coeffs))
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._dot((self,), (other,))

    def _dot(self, xs, ys):
        """sum x*y over zip(xs, ys): coefficient d of zeta^d is one scalar
        sum of products over every pair of coefficients with degrees a + b = d,
        truncated at the order K."""
        K = self.ring.order
        buckets = [[] for _ in range(K)]
        for x, y in zip(xs, ys):
            x, y = self._coerce(x), self._coerce(y)
            right = y.coeffs
            for a, ca in enumerate(x.coeffs):
                if ca.is_zero:
                    continue
                for d, cb in enumerate(right[:K - a], a):
                    buckets[d].append((ca, cb))
        while buckets and not buckets[-1]:
            buckets.pop()
        base = self.ring.base
        return NilpotentPoly(self.ring, [_sum_of_products(base, pairs) for pairs in buckets])

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.__mul__(other)
        if isinstance(other, Element):
            return self.ring.lift(other).__mul__(self)
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return NilpotentPoly(self.ring, (c / other for c in self.coeffs))
        return NotImplemented

    def _one(self):
        return self.ring.one()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, Element)):
            other = self._coerce(other)
        if not isinstance(other, NilpotentPoly):
            return NotImplemented
        return self.ring == other.ring and self.coeffs == other.coeffs

    __hash__ = None

    # -- structure queries -----------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self):
        """Common degree of every coefficient term (zeta itself has degree 0),
        or None for mixed elements; undefined on zero."""
        if self.is_zero:
            raise ValueError("degree of zero is undefined")
        degs = set()
        for c in self.coeffs:
            if c.is_zero:
                continue
            d = c.degree()
            if d is None:
                return None
            degs.add(d)
        if len(degs) == 1:
            return next(iter(degs))
        return None

    def graded_parts(self):
        buckets = {}
        for k, c in enumerate(self.coeffs):
            for deg, part in c.graded_parts():
                slot = buckets.setdefault(deg, [self.ring.base.zero()] * self.ring.order)
                slot[k] = slot[k] + part
        return [(deg, NilpotentPoly(self.ring, coeffs))
                for deg, coeffs in sorted(buckets.items(), key=lambda kv: kv[0].mask)]

    def residue(self) -> Element:
        """Image under zeta -> 0 followed by reduction mod the odd ideal."""
        return self.constant_term().strip_odd()

    def inverse(self) -> "NilpotentPoly":
        """(c0 + N)^{-1} = sum_k (-c0^{-1} N)^k c0^{-1}; needs c0 invertible."""
        if self.is_zero:
            raise NotInvertibleError("zero is not invertible")
        c0 = self.constant_term()
        if c0.is_zero:
            raise NotInvertibleError("constant term vanishes")
        return self._lift_inverse(c0, self.ring.lift(c0.inverse()), self.ring.order - 1)

    def __str__(self):
        if self.is_zero:
            return "0"
        bits = []
        for k, c in enumerate(self.coeffs):
            if c.is_zero:
                continue
            if k == 0:
                bits.append(str(c))
            else:
                z = "z" if k == 1 else f"z^{k}"
                bits.append(f"({c})*{z}")
        return " + ".join(bits)

    __repr__ = __str__


def nilpotent_exp(x: NilpotentPoly) -> NilpotentPoly:
    """exp of a multiple of zeta, truncated exactly: sum_{k<K} x^k / k!."""
    if not x.is_zero and not x.constant_term().is_zero:
        raise ValueError("exp needs a zeta multiple (zero constant term)")
    acc = x.ring.one()
    term = x.ring.one()
    for k in range(1, x.ring.order):
        term = term * x / k
        if term.is_zero:
            break
        acc = acc + term
    return acc
