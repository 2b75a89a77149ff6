"""JSON schemas for scalars and matrices.

Group elements serialize as arrays of 0/1.  A scalar is a term list
[{"mask": int, "num": int, "den": int}, ...] with an optional "theta" mask per
term for extension algebras.  A matrix is
{"algebra": {"p": int, "q": int[, "odd_degrees": [[bits], ...]]},
 "ranks": [...], "degree": [bits], "entries": [[termlist, ...], ...]};
ranks may list all 2^m blocks or just the even half.
"""

from __future__ import annotations

import hashlib
import json
from functools import lru_cache
from math import gcd

from .errors import SchemaError
from .grading import GroupElement
from .matrices import GradedMatrix, RankVector, require_homogeneous
from .scalars import Algebra, Element, _common_denominator, _normalized


# one shared object per descriptor value, so its cached tables are built once
_algebra = lru_cache(maxsize=64)(Algebra)
_rank_vector = lru_cache(maxsize=64)(RankVector)


def _json_int(value, field):
    # int() would truncate 1.5 and parse "1"; bool is an int subclass
    if type(value) is not int:
        raise SchemaError(f'"{field}" must be a JSON integer, got {value!r}')
    return value


def group_element_to_json(g: GroupElement):
    return list(g.bits())


def group_element_from_json(obj, m=None) -> GroupElement:
    if not isinstance(obj, list) or not obj or any(
            _json_int(b, "group element") not in (0, 1) for b in obj):
        raise SchemaError("group element must be a nonempty array of 0/1")
    if m is not None and len(obj) != m:
        raise SchemaError(f"group element must have {m} coordinates")
    return GroupElement.from_bits(obj)


def algebra_to_json(alg: Algebra):
    out = {"p": alg.p, "q": alg.q}
    if alg.odd_degrees:
        out["odd_degrees"] = [group_element_to_json(g) for g in alg.odd_degrees]
    return out


def algebra_from_json(obj) -> Algebra:
    if not isinstance(obj, dict) or "p" not in obj or "q" not in obj:
        raise SchemaError('algebra descriptor must carry "p" and "q"')
    p, q = _json_int(obj["p"], "p"), _json_int(obj["q"], "q")
    try:
        odd = tuple(group_element_from_json(g, p + q + 1)
                    for g in obj.get("odd_degrees", []))
        return _algebra(p, q, odd)
    except (ValueError, TypeError) as exc:
        raise SchemaError(f"bad algebra descriptor: {exc}") from exc


def terms_to_json(e: Element):
    # the order and the reduced fractions of sorted(e.terms.items()), read
    # straight off the numerators over the shared denominator
    n = e.algebra.n
    low = (1 << n) - 1
    num, den = e._num, e._den
    out = []
    for i in sorted(num, key=lambda i: (i & low, i >> n)):
        g = gcd(num[i], den)
        term = {"mask": i & low, "num": num[i] // g, "den": den // g}
        if i >> n:
            term["theta"] = i >> n
        out.append(term)
    return out


def terms_from_json(obj, alg: Algebra) -> Element:
    return _term_reader(alg)(obj)


def _term_reader(alg: Algebra):
    """``terms_from_json`` for one algebra, whose bounds are read once."""
    n, size, odd_size = alg.n, 1 << alg.n, 1 << alg.num_odd

    def read(obj):
        if not isinstance(obj, list):
            raise SchemaError("scalar must be a term list")
        # integer numerators over a running least common denominator,
        # normalized once; repeated monomials add up
        nums, den = {}, 1
        for t in obj:
            if not isinstance(t, dict) or "mask" not in t or "num" not in t or "den" not in t:
                raise SchemaError('term must carry "mask", "num", "den"')
            mask = _json_int(t["mask"], "mask")
            odd = _json_int(t.get("theta", 0), "theta")
            num, d = _json_int(t["num"], "num"), _json_int(t["den"], "den")
            if d == 0:
                raise SchemaError("bad term: zero denominator")
            if not 0 <= mask < size:
                raise SchemaError(f"mask {mask} out of range for {n} generators")
            if not 0 <= odd < odd_size:
                raise SchemaError(f"theta mask {odd} out of range")
            if d < 0:
                num, d = -num, -d
            if d != den:
                den, scale = _common_denominator(nums, den, d)
                num *= scale
            key = mask | (odd << n)
            nums[key] = nums.get(key, 0) + num
        return _normalized(alg, nums, den)
    return read


def element_to_json(e: Element):
    return {"algebra": algebra_to_json(e.algebra), "terms": terms_to_json(e)}


def element_from_json(obj) -> Element:
    if not isinstance(obj, dict):
        raise SchemaError("scalar object expected")
    alg = algebra_from_json(obj.get("algebra"))
    return terms_from_json(obj.get("terms", []), alg)


def ranks_from_json(obj, m: int) -> RankVector:
    if not isinstance(obj, list) or not all(_json_int(r, "ranks") >= 0 for r in obj):
        raise SchemaError("ranks must be an array of nonnegative integers")
    if len(obj) == 1 << m:
        return _rank_vector(m, tuple(obj))
    if len(obj) == 1 << (m - 1):
        return _rank_vector(m, (*obj, *[0] * len(obj)))
    raise SchemaError(
        f"ranks must list {1 << m} blocks or the {1 << (m - 1)} even ones")


def matrix_to_json(X: GradedMatrix):
    return {
        "algebra": algebra_to_json(getattr(X.ring, "base", X.ring)),
        "ranks": list(X.row_ranks.ranks),
        "degree": group_element_to_json(X.degree),
        "entries": [[terms_to_json(v) for v in row] for row in X.entries],
    }


def matrix_from_json(obj) -> GradedMatrix:
    if not isinstance(obj, dict):
        raise SchemaError("matrix object expected")
    for key in ("algebra", "ranks", "degree", "entries"):
        if key not in obj:
            raise SchemaError(f'matrix is missing "{key}"')
    alg = algebra_from_json(obj["algebra"])
    m = alg.arity
    ranks = ranks_from_json(obj["ranks"], m)
    degree = group_element_from_json(obj["degree"], m)
    rows = obj["entries"]
    n = ranks.total
    if not isinstance(rows, list) or len(rows) != n or any(
            not isinstance(r, list) or len(r) != n for r in rows):
        raise SchemaError(f"entries must form an {n}x{n} grid of term lists")
    read = _term_reader(alg)
    grid = [[read(v) for v in row] for row in rows]
    X = GradedMatrix(alg, ranks, ranks, degree, grid)
    require_homogeneous(X)
    return X


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def matrix_digest(X: GradedMatrix) -> str:
    return hashlib.sha256(canonical_json(matrix_to_json(X)).encode()).hexdigest()
