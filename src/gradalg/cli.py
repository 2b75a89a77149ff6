"""Command-line front end: load and validate matrices, run the computations,
and drive seeded property sweeps with machine-readable reports.

Exit codes: 0 success, 1 property failure, 2 schema violation, 3 homogeneity
violation, 4 computation error, 5 internal error (an exception no input
should cause, reported with its traceback), 141 standard output closed by
its reader (128 + SIGPIPE, as a shell reports a writer killed by SIGPIPE).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys
import traceback

from . import ringmat as rm
from .berezinian import gber, liouville_check
from .determinant import (gdet0, gdet_certified, gdet_graded, multilinear_coefficients,
                          normalized_coefficients)
from .dieudonne import ddet_squared
from .errors import (GradAlgError, HomogeneityError, NotInvertibleError,
                     RegularityError, SchemaError)
from .jsonio import (canonical_json, matrix_digest, matrix_from_json,
                     ranks_from_json, terms_to_json)
from .matrices import mat_mul
from .quasidet import block_quasidet, quasidet, udl_decompose
from .randgen import MAX_DRAWS, random_invertible, random_matrix
from .scalars import quaternions
from .trace import gtr

EXIT_OK = 0
EXIT_PROPERTY = 1
EXIT_SCHEMA = 2
EXIT_HOMOGENEITY = 3
EXIT_COMPUTE = 4
EXIT_INTERNAL = 5
EXIT_BROKEN_PIPE = 141

PROPERTIES = ("multiplicativity", "heredity", "homological", "liouville",
              "dieudonne", "udl")
# Smallest total rank at which a property's trial has something to sample.
_MIN_TOTAL_RANK = {"heredity": 1, "homological": 2, "udl": 1}


def _load_matrix(path):
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON in {path}: {exc}") from exc
    return matrix_from_json(obj)


def _emit(obj):
    print(canonical_json(obj))


def _scalar_json(value):
    if hasattr(value, "coeffs"):
        return {"series": [terms_to_json(c) for c in value.coeffs]}
    return {"terms": terms_to_json(value)}


def cmd_gtr(args):
    X = _load_matrix(args.input)
    _emit({"gtr": _scalar_json(gtr(X))})
    return EXIT_OK


def cmd_gdet(args):
    X = _load_matrix(args.input)
    if X.degree.is_zero:
        result = gdet_certified(X, route=args.route)
        _emit({"gdet": _scalar_json(result.value),
               "factors": [_scalar_json(f) for f in result.factors],
               "route": args.route})
    else:
        value = gdet_graded(X, strict=not args.lax)
        _emit({"gdet": _scalar_json(value), "degree": list(X.degree.bits())})
    return EXIT_OK


def cmd_gdet_coeffs(args):
    pattern = _load_matrix(args.pattern)
    oracle = normalized_coefficients if args.normalized else multilinear_coefficients
    table = [{"perm": list(sigma), "coeff": _scalar_json(c)}
             for sigma, c in sorted(oracle(pattern).items())]
    _emit({"coefficients": table, "normalized": bool(args.normalized)})
    return EXIT_OK


def cmd_gber(args):
    X = _load_matrix(args.input)
    _emit({"gber": _scalar_json(gber(X))})
    return EXIT_OK


def cmd_ddet(args):
    X = _load_matrix(args.input)
    sq = ddet_squared(X)
    _emit({"ddet_squared": {"num": sq.numerator, "den": sq.denominator}})
    return EXIT_OK


def cmd_liouville(args):
    if args.order < 1:
        raise SchemaError(f"--order must be at least 1, got {args.order}")
    X = _load_matrix(args.input)
    lhs, rhs = liouville_check(X, order=args.order)
    passed = lhs == rhs
    _emit({"lhs": _scalar_json(lhs), "rhs": _scalar_json(rhs),
           "order": args.order, "result": "PASS" if passed else "FAIL"})
    return EXIT_OK if passed else EXIT_PROPERTY


def _draw_invertible_pair(rng, alg, ranks):
    return (random_invertible(rng, alg, ranks), random_invertible(rng, alg, ranks)), ()


def _draw_invertible(rng, alg, ranks):
    return (random_invertible(rng, alg, ranks),), ()


def _draw_matrix(rng, alg, ranks):
    return (random_matrix(rng, alg, ranks),), ()


def _draw_block(rng, alg, ranks):
    X = random_matrix(rng, alg, ranks)
    return (X,), (rng.randrange(len(_nonempty(ranks))),)


def _draw_homological(rng, alg, ranks):
    n = ranks.total
    X = random_matrix(rng, alg, ranks)
    i, j = rng.randrange(n), rng.randrange(n)
    l = rng.choice([c for c in range(n) if c != j])
    r = rng.choice([a for a in range(n) if a != i])
    s = rng.choice([c for c in range(n) if c != j])
    return (X,), (i, j, l, r, s)


def _nonempty(ranks):
    return [s for s in ranks.ranks if s > 0]


def _multiplicativity_holds(rng, alg, X, Y):
    return gdet0(mat_mul(X, Y)) == gdet0(X) * gdet0(Y)


def _heredity_holds(rng, alg, X, k):
    sizes = _nonempty(X.row_ranks)
    grid = X.grid()
    base = sum(sizes[:k])
    inner = block_quasidet(grid, sizes, k, k, alg)
    pairs = [(quasidet(inner, a, b, alg), quasidet(grid, base + a, base + b, alg))
             for a in range(sizes[k]) for b in range(sizes[k])]
    return all(lhs == rhs for lhs, rhs in pairs)


def _homological_holds(rng, alg, X, i, j, l, r, s):
    grid = X.grid()
    n = len(grid)

    def minor_q(di, dj, a, b):
        sub = [[grid[r2][c2] for c2 in range(n) if c2 != dj]
               for r2 in range(n) if r2 != di]
        return quasidet(sub, a - (a > di), b - (b > dj), alg)

    row_ok = (quasidet(grid, i, j, alg) * minor_q(i, l, r, j).inverse()
              == -(quasidet(grid, i, l, alg) * minor_q(i, j, r, l).inverse()))
    kk = rng.choice([a for a in range(n) if a != i])
    col_ok = (minor_q(kk, j, i, s).inverse() * quasidet(grid, i, j, alg)
              == -(minor_q(i, j, kk, s).inverse() * quasidet(grid, kk, j, alg)))
    return row_ok and col_ok


def _dieudonne_holds(rng, alg, X):
    g = gdet0(X)
    return g * g == alg.scalar(ddet_squared(X))


def _udl_holds(rng, alg, X):
    grid = X.grid()
    fac = udl_decompose(grid, _nonempty(X.row_ranks), alg)
    d_inv = rm.mat_inverse(fac.D, alg)
    ok = rm.grids_equal(rm.mat_mul(fac.U, rm.mat_mul(fac.D, fac.L)), grid)
    return ok and rm.grids_equal(rm.mat_mul(fac.frak_u, rm.mat_mul(d_inv, fac.frak_l)), grid)


def _sampled_trial(name, draw, holds, rng, alg, ranks):
    """Redraw until ``holds`` is defined on a sample, at most MAX_DRAWS times.

    ``draw`` returns (inputs, extra): the matrices the report lists, and the
    further random choices ``holds`` needs.  Returns (verdict, inputs).
    """
    for _ in range(MAX_DRAWS):
        inputs, extra = draw(rng, alg, ranks)
        try:
            return holds(rng, alg, *inputs, *extra), inputs
        except (RegularityError, NotInvertibleError):
            continue
    raise GradAlgError(f"{name}: no defined sample in {MAX_DRAWS} draws")


def _trial_liouville(rng, alg, ranks):
    X = random_matrix(rng, alg, ranks, bound=5)
    lhs, rhs = liouville_check(X, order=4)
    return lhs == rhs, (X,)


_TRIALS = {
    name: functools.partial(_sampled_trial, name, draw, holds)
    for name, draw, holds in (
        ("multiplicativity", _draw_invertible_pair, _multiplicativity_holds),
        ("heredity", _draw_block, _heredity_holds),
        ("homological", _draw_homological, _homological_holds),
        ("dieudonne", _draw_invertible, _dieudonne_holds),
        ("udl", _draw_matrix, _udl_holds))}
_TRIALS["liouville"] = _trial_liouville


def cmd_check(args):
    alg = quaternions()
    try:
        ranks = ranks_from_json([int(r) for r in args.ranks.split(",")], alg.arity)
    except ValueError as exc:
        raise SchemaError(f"bad ranks: {exc}") from exc
    if args.trials < 1:
        raise SchemaError(f"--trials must be at least 1, got {args.trials}")
    need = _MIN_TOTAL_RANK.get(args.property, 0)
    if ranks.total < need:
        raise SchemaError(f"{args.property} needs total rank at least {need}, "
                          f"got {ranks.total}")
    seed = args.seed
    env_seed = os.environ.get("GRADALG_SEED")
    if env_seed is not None:
        try:
            seed = int(env_seed)
        except ValueError as exc:
            raise SchemaError("GRADALG_SEED must be an integer") from exc
    rng = random.Random(seed)
    runner = _TRIALS[args.property]
    trials = []
    all_pass = True
    for index in range(args.trials):
        ok, matrices = runner(rng, alg, ranks)
        all_pass = all_pass and ok
        trials.append({
            "index": index,
            "inputs": [matrix_digest(M) for M in matrices],
            "pass": bool(ok),
        })
    report = {
        "property": args.property,
        "seed": seed,
        "ranks": list(ranks.ranks),
        "trials": trials,
        "all_pass": bool(all_pass),
    }
    _emit(report)
    return EXIT_OK if all_pass else EXIT_PROPERTY


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process; ``main`` looks each subcommand's
    handler up by name at call time, so the cached parser binds none."""
    parser = argparse.ArgumentParser(
        prog="gradalg",
        description="Exact graded linear algebra over Clifford algebras.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gtr", help="graded trace of a matrix")
    p.add_argument("--input", required=True)

    p = sub.add_parser("gdet", help="graded determinant")
    p.add_argument("--input", required=True)
    p.add_argument("--route", choices=("udl", "ldu"), default="udl")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--strict", action="store_true", default=True)
    mode.add_argument("--lax", action="store_true")

    p = sub.add_parser("gdet-coeffs", help="permutation coefficient table")
    p.add_argument("--pattern", required=True)
    p.add_argument("--normalized", action="store_true",
                   help="divide out the row-ordered monomial products")

    p = sub.add_parser("gber", help="graded Berezinian")
    p.add_argument("--input", required=True)

    p = sub.add_parser("ddet", help="squared Dieudonne determinant")
    p.add_argument("--input", required=True)

    p = sub.add_parser("liouville", help="check gber(exp(zX)) = exp(gtr(zX))")
    p.add_argument("--input", required=True)
    p.add_argument("--order", type=int, default=6)

    p = sub.add_parser("check", help="seeded property sweep")
    p.add_argument("--property", choices=PROPERTIES, required=True)
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--ranks", default="1,1,1,1")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = globals()["cmd_" + args.command.replace("-", "_")](args)
        # flush here, so a reader that went away is met inside this handler
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the recipe of the Python docs (signal module, "Note on SIGPIPE"):
        # point stdout at devnull, so the flush at exit cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except HomogeneityError as exc:
        print(f"homogeneity error: {exc}", file=sys.stderr)
        return EXIT_HOMOGENEITY
    except GradAlgError as exc:
        print(f"computation error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    except ValueError as exc:
        print(f"computation error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
