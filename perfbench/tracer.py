"""Span recorder for the traced run.

The library is instrumented from outside: each layer's public functions are
replaced, in every ``gradalg`` module that binds them, by a wrapper that
records a span (name, start, end, parent, op id) around the call.  Names
re-bound by ``from ... import`` are found by object identity, so
``determinant.block_quasidet`` or ``berezinian.gdet_blocks`` are wrapped
together with their home module's binding.  ``Element`` and
``NilpotentPoly`` arithmetic dunders are wrapped on the class.

Scalar and series spans are far too many to keep (tens of thousands per op),
so they are folded into per-name aggregates as they close; spans of the
layers above them are kept in memory and written out at the end.  Self time
is a span's duration minus the part covered by its recorded children.

Calls that stay inside one "collapsed" layer (scalars, series, jsonio, cli)
and recursive calls of one function are not recorded separately: counts are
calls that cross into a function or layer from outside.
"""

from __future__ import annotations

import contextlib
import json
import sys
from time import perf_counter

COLLAPSED_LAYERS = frozenset({"scalars", "series", "jsonio", "cli"})
UNSTORED_LAYERS = frozenset({"scalars", "series"})

# Module-level functions wrapped per layer.
LAYER_FUNCTIONS = {
    "ringmat": ("mat_inverse", "commutative_det", "mat_mul"),
    "quasidet": ("block_quasidet", "quasidet", "udl_decompose", "ldu_decompose",
                 "invert_2x2_block", "invert_3block"),
    "determinant": ("gdet_blocks", "gdet_blocks_ldu", "gdet_certified", "gdet0",
                    "gdet_ldu", "gdet_graded"),
    "matrices": ("check_homogeneous", "require_homogeneous", "mat_add", "mat_neg",
                 "mat_mul", "scalar_mul", "mat_pow", "matrix_inverse",
                 "redivide_2x2", "identity_matrix", "zero_matrix"),
    "berezinian": ("gber", "invert0", "is_invertible0", "matrix_exp_zeta",
                   "series_matrix", "liouville_check"),
    "trace": ("gtr",),
    "series": ("nilpotent_exp",),
    "jsonio": ("matrix_from_json", "matrix_to_json", "canonical_json",
               "terms_to_json", "terms_from_json", "algebra_from_json",
               "ranks_from_json", "group_element_from_json"),
    "cli": ("main", "cmd_gber"),
    "randgen": ("random_matrix", "random_invertible"),
}

# Class methods wrapped per layer, mapped to the counter group they feed.
_ARITH = {"__mul__": "mul", "__rmul__": "mul", "__add__": "addsub",
          "__radd__": "addsub", "__sub__": "addsub", "__rsub__": "addsub",
          "__neg__": "addsub", "inverse": "inverse"}
LAYER_METHODS = {
    ("scalars", "Element"): _ARITH,
    ("series", "NilpotentPoly"): _ARITH,
}
SIZED = "ringmat.mat_inverse"  # also sums the rows it is asked to invert


class Tracer:
    """Holds every span and aggregate of one traced run.

    ``phase`` separates input generation ("setup") from the measured ops
    ("ops"); aggregates are keyed by phase so set-up work never leaks into
    the per-op counts.
    """

    def __init__(self):
        self.enabled = False
        self.phase = "setup"
        self.op_id = -1
        self.stack = []   # frames: [key, layer, start, child_s, span_index]
        self.agg = {}     # (phase, key) -> [calls, self_s, size]
        self.errors = {}  # (phase, key, exception name) -> count
        self.edges = {}   # (phase, parent key, key) -> [calls, errors]
        self.spans = []   # [key, start, end, parent span index, op id]

    # -- recording ---------------------------------------------------------

    def _open(self, key, layer):
        stack = self.stack
        index = None
        if layer not in UNSTORED_LAYERS:
            index = len(self.spans)
            parent = next((f[4] for f in reversed(stack) if f[4] is not None), None)
            self.spans.append([key, 0.0, 0.0, parent, self.op_id])
        frame = [key, layer, perf_counter(), 0.0, index]
        stack.append(frame)
        return frame

    def _close(self, frame, args, error):
        end = perf_counter()
        stack = self.stack
        stack.pop()
        key = frame[0]
        dur = end - frame[2]
        phase = self.phase
        slot = self.agg.get((phase, key))
        if slot is None:
            slot = self.agg[(phase, key)] = [0, 0.0, 0]
        slot[0] += 1
        slot[1] += dur - frame[3]
        if key == SIZED:
            slot[2] += len(args[0])
        parent_key = stack[-1][0] if stack else None
        edge = self.edges.get((phase, parent_key, key))
        if edge is None:
            edge = self.edges[(phase, parent_key, key)] = [0, 0]
        edge[0] += 1
        if error is not None:
            edge[1] += 1
            ekey = (phase, key, error)
            self.errors[ekey] = self.errors.get(ekey, 0) + 1
        if stack:
            stack[-1][3] += dur
        if frame[4] is not None:
            span = self.spans[frame[4]]
            span[1] = frame[2]
            span[2] = end

    def wrap(self, key, layer, fn):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer.stack
            if stack:
                top = stack[-1]
                if top[0] == key or (top[1] == layer and layer in COLLAPSED_LAYERS):
                    return fn(*args, **kwargs)
            frame = tracer._open(key, layer)
            error = None
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                error = type(exc).__name__
                raise
            finally:
                tracer._close(frame, args, error)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", key)
        return traced

    @contextlib.contextmanager
    def root(self, key):
        """One benchmark-level span (an op, or set-up)."""
        frame = self._open(key, "bench")
        error = None
        try:
            yield
        except Exception as exc:
            error = type(exc).__name__
            raise
        finally:
            self._close(frame, (), error)

    # -- installation --------------------------------------------------------

    def install(self, package):
        """Wrap every listed function and method of an imported package;
        call once per process."""
        prefix = package.__name__
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == prefix or name.startswith(prefix + "."))]
        for layer, names in LAYER_FUNCTIONS.items():
            home = sys.modules[f"{prefix}.{layer}"]
            for name in names:
                original = getattr(home, name)
                wrapped = self.wrap(f"{layer}.{name}", layer, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapped)
        for (layer, cls_name), methods in LAYER_METHODS.items():
            cls = getattr(sys.modules[f"{prefix}.{layer}"], cls_name)
            for attr, group in methods.items():
                setattr(cls, attr, self.wrap(f"{layer}.{group}", layer, getattr(cls, attr)))

    # -- derived figures -------------------------------------------------------

    def calls(self, key, phase="ops"):
        return self.agg.get((phase, key), (0, 0.0, 0))[0]

    def self_s(self, key, phase="ops"):
        return self.agg.get((phase, key), (0, 0.0, 0))[1]

    def size(self, key, phase="ops"):
        return self.agg.get((phase, key), (0, 0.0, 0))[2]

    def layer_self_s(self, layer, phase="ops"):
        return sum(v[1] for (p, k), v in self.agg.items()
                   if p == phase and k.split(".", 1)[0] == layer)

    def error_count(self, key, error, phase="ops"):
        return self.errors.get((phase, key, error), 0)

    def edge(self, parent, key, phase="ops"):
        return self.edges.get((phase, parent, key), (0, 0))

    def inclusive_shares(self):
        """Share of op wall time spent inside each recorded function,
        children included (kept spans only, so not scalars or series)."""
        total = {}
        for key, start, end, _, op_id in self.spans:
            if op_id >= 0:
                total[key] = total.get(key, 0.0) + (end - start)
        ops = total.pop("bench.op", 0.0)
        return {k: v / ops for k, v in sorted(total.items())} if ops else {}

    def write_spans(self, path):
        with open(path, "w") as fh:
            for key, start, end, parent, op_id in self.spans:
                fh.write(json.dumps({"name": key, "start": start, "end": end,
                                     "parent": parent, "op": op_id}) + "\n")


def layer_metrics(tr: Tracer, n_ops: int) -> dict:
    """Per-op figures of the ops phase; set-up figures per generated input
    (each op has one input)."""

    def per_op(x):
        return x / n_ops

    def ms_per_op(seconds):
        return 1000.0 * seconds / n_ops

    def ratio(num, den):
        return num / den if den else 0.0

    pivots_tried = pivots_ok = 0
    for inverse in ("scalars.inverse", "series.inverse"):
        tried, refused = tr.edge("ringmat.mat_inverse", inverse)
        pivots_tried += tried
        pivots_ok += tried - refused
    udl_from_gber = tr.edge("berezinian.gber", "determinant.gdet_blocks")[0]
    ldu_from_gber = tr.edge("berezinian.gber", "determinant.gdet_blocks_ldu")[0]
    draws = tr.calls("randgen.random_matrix", "setup")
    nested = tr.edge("randgen.random_invertible", "randgen.random_matrix", "setup")[0]
    accepts = tr.calls("randgen.random_invertible", "setup") + draws - nested

    out = {
        "scalars.mul.calls": per_op(tr.calls("scalars.mul")),
        "scalars.addsub.calls": per_op(tr.calls("scalars.addsub")),
        "scalars.inverse.calls": per_op(tr.calls("scalars.inverse")),
        "scalars.inverse.refused": per_op(
            tr.error_count("scalars.inverse", "NotInvertibleError")),
        "scalars.self_ms": ms_per_op(tr.layer_self_s("scalars")),
        "series.mul.calls": per_op(tr.calls("series.mul")),
        "series.inverse.calls": per_op(tr.calls("series.inverse")),
        "series.self_ms": ms_per_op(tr.layer_self_s("series")),
        "ringmat.mat_inverse.calls": per_op(tr.calls("ringmat.mat_inverse")),
        "ringmat.mat_inverse.rows": per_op(tr.size("ringmat.mat_inverse")),
        "ringmat.mat_inverse.self_ms": ms_per_op(tr.self_s("ringmat.mat_inverse")),
        "ringmat.pivot_accept_ratio": ratio(pivots_ok, pivots_tried),
        "ringmat.commutative_det.calls": per_op(tr.calls("ringmat.commutative_det")),
        "ringmat.commutative_det.self_ms": ms_per_op(tr.self_s("ringmat.commutative_det")),
        "ringmat.mat_mul.calls": per_op(tr.calls("ringmat.mat_mul")),
        "ringmat.mat_mul.self_ms": ms_per_op(tr.self_s("ringmat.mat_mul")),
        "quasidet.block_quasidet.calls": per_op(tr.calls("quasidet.block_quasidet")),
        "quasidet.block_quasidet.self_ms": ms_per_op(tr.self_s("quasidet.block_quasidet")),
        "determinant.gdet_blocks.calls": per_op(tr.calls("determinant.gdet_blocks")),
        "determinant.gdet_blocks_ldu.calls": per_op(tr.calls("determinant.gdet_blocks_ldu")),
        "determinant.regularity_errors": per_op(
            tr.error_count("determinant.gdet_blocks", "RegularityError")
            + tr.error_count("determinant.gdet_blocks_ldu", "RegularityError")),
        "determinant.self_ms": ms_per_op(tr.layer_self_s("determinant")),
        "matrices.self_ms": ms_per_op(tr.layer_self_s("matrices")),
        "berezinian.gber.self_ms": ms_per_op(tr.self_s("berezinian.gber")),
        "berezinian.invert0.calls": per_op(tr.calls("berezinian.invert0")),
        "berezinian.invert0.self_ms": ms_per_op(tr.self_s("berezinian.invert0")),
        "berezinian.is_invertible0.self_ms": ms_per_op(tr.self_s("berezinian.is_invertible0")),
        "berezinian.ldu_fallback_ratio": ratio(ldu_from_gber, udl_from_gber),
        "berezinian.matrix_exp_zeta.self_ms": ms_per_op(tr.self_s("berezinian.matrix_exp_zeta")),
        "trace.gtr.self_ms": ms_per_op(tr.self_s("trace.gtr")),
        "jsonio.matrix_from_json.self_ms": ms_per_op(tr.self_s("jsonio.matrix_from_json")),
        "jsonio.canonical_json.self_ms": ms_per_op(tr.self_s("jsonio.canonical_json")),
        "cli.self_ms": ms_per_op(tr.layer_self_s("cli")),
        "randgen.draws_per_accept": ratio(draws, accepts),
        "randgen.self_ms": ms_per_op(tr.layer_self_s("randgen", "setup")),
    }
    return out
