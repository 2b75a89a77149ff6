"""The seeded sampler: its random stream is pinned, and a wrong arity or an
unrealized degree raises before any number is drawn."""

import hashlib
import random

import pytest

from gradalg import (Algebra, GradAlgError, GroupElement, RankVector,
                     extended_quaternions, grassmann, quaternions)
from gradalg.jsonio import canonical_json, matrix_digest, terms_to_json
from gradalg.randgen import random_element, random_invertible, random_matrix

H, EH, GR, CL11 = quaternions(), extended_quaternions(), grassmann(2), Algebra(1, 1)
RK_H = RankVector.from_even_half(3, (2, 1, 2, 1))
RK_EXT = RankVector(3, (1, 1, 1, 1, 1, 1, 0, 0))
RK_GR = RankVector(1, (2, 2))
RK_CL = RankVector.from_even_half(3, (1, 2, 1, 1))


def bits(*b):
    return GroupElement.from_bits(b)


# seed and one draw per case; each case is drawn six times from one generator
STREAMS = {
    "H": (101, lambda r: random_matrix(r, H, RK_H)),
    "H-bound3": (102, lambda r: random_matrix(r, H, RK_H, bound=3)),
    "H-degree": (103, lambda r: random_matrix(r, H, RK_H, bits(1, 1, 0))),
    "EH": (104, lambda r: random_matrix(r, EH, RK_EXT)),
    "EH-bound3": (105, lambda r: random_matrix(r, EH, RK_EXT, bound=3)),
    "EH-degree": (106, lambda r: random_matrix(r, EH, RK_EXT, bits(0, 0, 1))),
    "GR": (107, lambda r: random_matrix(r, GR, RK_GR)),
    "CL11": (108, lambda r: random_matrix(r, CL11, RK_CL, bound=3)),
    "inv-H": (109, lambda r: random_invertible(r, H, RK_H)),
    "inv-EH": (110, lambda r: random_invertible(r, EH, RK_EXT)),
    "inv-GR": (111, lambda r: random_invertible(r, GR, RK_GR)),
    "element-EH": (112, lambda r: canonical_json(terms_to_json(
        random_element(r, EH, bits(0, 1, 0), bound=3)))),
}

# SHA-256 over each draw's matrix_digest (or JSON) and the generator's next
# random() after it, as the per-entry GroupElement sampler drew them
PINNED = {
    "H": "ecc9ef0fb82c52fc27990f5cc675611a62b8702addbd1d06d247dadd54b64b8b",
    "H-bound3": "a6ff0c1febc7936797ef17c1dfb799020d63dfd5f375b75bee40394aaa42886e",
    "H-degree": "d413ad6668a3229199166c32dfb1538bb987d6e365974dd30cf1f3e2f934610e",
    "EH": "bbc9b09a1d9c7d059f4508f51b399ebd3421113e983f020f8d56a04135e7771f",
    "EH-bound3": "2c93c801445e6a926a27a7e5901c0f0561b9ebf19f7f76d7a6a18103a8d51bc7",
    "EH-degree": "cb3981a8393a22e37c11c590cee2577f6c6d9287874ec57fc9fd187ece6f2461",
    "GR": "fba4fd0d39181519f189002e3efa26515cce13d8b8dd896687400c238a874dd4",
    "CL11": "cc432f8793acaf62fc1bc415bf2d2c40e917e687ab34d5c0b514f24ac06d32ac",
    "inv-H": "67fbe7632ebfd4331293cf6e563a21892c40b1c71a95132d983bc274582f4e03",
    "inv-EH": "99e3d757892a2d900bec1845981cf8cb6b95aaa75c3a40f1e448c0e6daddb8cf",
    "inv-GR": "062e488ff15e6c7614e8adc54470f5c61fa9c88a6ecfcf2de5d37b5aa17ee485",
    "element-EH": "9be316bebb6fa2657cdd09a94e0fc4fb74f7a47ce70bc71331daa176fa1c1dac",
}


@pytest.mark.parametrize("name", sorted(STREAMS))
def test_stream_is_pinned(name):
    seed, draw = STREAMS[name]
    rng = random.Random(seed)
    h = hashlib.sha256()
    for _ in range(6):
        out = draw(rng)
        h.update((out if isinstance(out, str) else matrix_digest(out)).encode())
        h.update(repr(rng.random()).encode())
    assert h.hexdigest() == PINNED[name]


def test_equal_descriptors_share_degrees():
    # a freshly built descriptor reuses the degree list, so Element.degree's
    # identity test holds across equal algebras
    fresh = extended_quaternions()
    assert fresh is not EH and fresh._degrees is EH._degrees
    x = random_matrix(random.Random(5), fresh, RK_EXT).entries
    y = random_matrix(random.Random(5), EH, RK_EXT).entries
    assert all(a.degree() is b.degree() for ra, rb in zip(x, y)
               for a, b in zip(ra, rb) if not a.is_zero)


class TestErrors:
    """Each case raises as the per-entry sampler did, and leaves the
    generator untouched."""

    def raises(self, exc, message, draw):
        rng = random.Random(3)
        state = rng.getstate()
        with pytest.raises(exc) as info:
            draw(rng)
        assert str(info.value) == message
        assert rng.getstate() == state

    def test_element_degree_of_wrong_arity(self):
        self.raises(GradAlgError, "algebra realizes no monomial of degree (1,0)",
                    lambda r: random_element(r, H, GroupElement(2, 1)))

    def test_matrix_degree_of_wrong_arity(self):
        rk = RankVector.from_even_half(3, (1, 1, 0, 0))
        self.raises(ValueError, "group arity mismatch: 3 vs 2",
                    lambda r: random_matrix(r, H, rk, GroupElement(2, 0)))

    @pytest.mark.parametrize("m", [2, 4])
    def test_ranks_of_wrong_arity(self, m):
        rk = RankVector(m, (1,) + (0,) * ((1 << m) - 1))
        self.raises(GradAlgError, f"algebra realizes no monomial of degree {GroupElement(m)}",
                    lambda r: random_matrix(r, H, rk))

    def test_unrealized_element_degree(self):
        self.raises(GradAlgError, "algebra realizes no monomial of degree (1,0,0)",
                    lambda r: random_element(r, H, bits(1, 0, 0)))

    def test_unrealized_entry_degree(self):
        # H has no odd monomials; entry (0, 2) is the first odd one in
        # row-major order, and entries (0, 0) and (0, 1) come before it
        rk = RankVector(3, (1, 1, 0, 0, 0, 2, 0, 0))
        self.raises(GradAlgError, "algebra realizes no monomial of degree (0,1,0)",
                    lambda r: random_matrix(r, H, rk))
        odd = RankVector(3, (1, 0, 0, 0, 1, 0, 0, 0))
        self.raises(GradAlgError, "algebra realizes no monomial of degree (0,0,1)",
                    lambda r: random_invertible(r, H, odd))
