"""The four workloads: seeded input generation, one op, and the exact gate.

Inputs come in chunks; chunk ``c`` of a run with seed ``s`` is drawn from
``random.Random(f"{name}:{s}:{c}")``, so a seed fixes every input whatever
order or number of chunks a run generates.  Each op gets a distinct input.

Every successful op is verified by an exact identity before it counts:

* ``gdet-*``: multiplicativity over the (X, Y, XY) triple when all three
  succeed; otherwise agreement with the LDU route.
* ``gber-cli``: multiplicativity over complete triples; otherwise the second
  Schur-complement formula gber(X) = gdet(X11) gdet(X22 - X21 X11^-1 X12)^-1.
* ``liouville-series``: lhs == rhs.

A wrong value raises ``Mismatch``; it is never counted as a refusal.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random

REFUSALS = ("RegularityError", "NotInvertibleError")
EXIT_COMPUTE = 4


class Mismatch(Exception):
    """An op returned a value that its identity contradicts."""


def _triple_outputs(triple, values):
    return all(values[i] is not None for i in triple)


class Workload:
    name = ""
    why = ""
    chunk_size = 1     # inputs per generated chunk
    est_op_s = 1.0     # typical op time on the reference machine, sizes the pool
    trace_chunks = 1   # chunks in the traced run's fixed input set

    def __init__(self, g, workdir):
        self.g = g     # namespace holding the imported gradalg modules
        self.workdir = workdir

    def rng(self, seed, chunk):
        return random.Random(f"{self.name}:{seed}:{chunk}")

    def make_chunk(self, seed, chunk, first_index):
        """Inputs of one chunk: list of (group, payload)."""
        raise NotImplementedError

    def run(self, payload):
        """One op: ("ok", value) or ("refused", None)."""
        raise NotImplementedError

    def verify(self, inputs, values, start=0):
        """Flags of verified results for ops ``start`` onwards, where
        ``start`` is a chunk boundary; raises Mismatch on a wrong value."""
        raise NotImplementedError

    def output_json(self, value):
        raise NotImplementedError

    def close(self):
        pass


class GdetWorkload(Workload):
    """gdet0 over H on random invertible triples (X, Y, XY)."""

    triples_per_chunk = 1
    evens = ()

    @property
    def chunk_size(self):
        return 3 * self.triples_per_chunk

    def make_chunk(self, seed, chunk, first_index):
        g = self.g
        rng = self.rng(seed, chunk)
        alg = g.scalars.quaternions()
        ranks = g.matrices.RankVector.from_even_half(3, self.evens)
        out = []
        for t in range(self.triples_per_chunk):
            X = g.randgen.random_invertible(rng, alg, ranks)
            Y = g.randgen.random_invertible(rng, alg, ranks)
            XY = g.matrices.mat_mul(X, Y)
            base = first_index + 3 * t
            group = (base, base + 1, base + 2)
            out += [(group, X), (group, Y), (group, XY)]
        return out

    def run(self, payload):
        e = self.g.errors
        try:
            return "ok", self.g.determinant.gdet0(payload)
        except (e.RegularityError, e.NotInvertibleError):
            return "refused", None

    def verify(self, inputs, values, start=0):
        e = self.g.errors
        flags = [False] * (len(values) - start)
        for i in range(start, len(values)):
            group, payload = inputs[i]
            if values[i] is None:
                continue
            if group[2] < len(values) and _triple_outputs(group, values):
                x, y, xy = (values[j] for j in group)
                if xy != x * y:
                    raise Mismatch(f"{self.name}: gdet(XY) != gdet(X) gdet(Y) at input {i}")
                flags[i - start] = True
                continue
            try:
                other = self.g.determinant.gdet_ldu(payload)
            except (e.RegularityError, e.NotInvertibleError):
                continue
            if other != values[i]:
                raise Mismatch(f"{self.name}: UDL and LDU routes disagree at input {i}")
            flags[i - start] = True
        return flags

    def output_json(self, value):
        return self.g.jsonio.terms_to_json(value)


class GdetBlocks(GdetWorkload):
    name = "gdet-blocks"
    why = ("gdet0 over H at ranks (2,2,2,2): time is in block_quasidet and "
           "mat_inverse on the complements; exercises the block-elimination sweep")
    evens = (2, 2, 2, 2)
    triples_per_chunk = 30
    est_op_s = 0.0115
    trace_chunks = 2


class GdetWide(GdetWorkload):
    name = "gdet-wide"
    why = ("gdet0 over H at ranks (7,1,0,0): time is in cofactor commutative_det; "
           "bypasses block elimination")
    evens = (7, 1, 0, 0)
    triples_per_chunk = 6
    est_op_s = 0.125


class GberCli(Workload):
    """`gradalg gber --input FILE` in-process, on extended-H triples."""

    name = "gber-cli"
    why = ("gradalg gber via cli.main on unfiltered extended-H invertibles at ranks "
           "(1,1,1,1,1,1,0,0): odd blocks, invert0, the LDU fallback, jsonio; about half refused")
    triples_per_chunk = 40
    chunk_size = 120
    est_op_s = 0.0093
    ranks = (1, 1, 1, 1, 1, 1, 0, 0)

    def __init__(self, g, workdir):
        super().__init__(g, workdir)
        self.paths = []
        os.makedirs(workdir, exist_ok=True)

    def make_chunk(self, seed, chunk, first_index):
        g = self.g
        rng = self.rng(seed, chunk)
        alg = g.scalars.extended_quaternions()
        ranks = g.matrices.RankVector(3, self.ranks)
        out = []
        for t in range(self.triples_per_chunk):
            X = g.randgen.random_invertible(rng, alg, ranks)
            Y = g.randgen.random_invertible(rng, alg, ranks)
            XY = g.matrices.mat_mul(X, Y)
            base = first_index + 3 * t
            group = (base, base + 1, base + 2)
            for k, M in enumerate((X, Y, XY)):
                path = os.path.join(self.workdir, f"in-{base + k}.json")
                with open(path, "w") as fh:
                    fh.write(g.jsonio.canonical_json(g.jsonio.matrix_to_json(M)))
                self.paths.append(path)
                out.append((group, (path, M)))
        return out

    def run(self, payload):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.g.cli.main(["gber", "--input", payload[0]])
        if code == 0:
            return "ok", out.getvalue()
        message = err.getvalue()
        if code == EXIT_COMPUTE and any(name in message for name in REFUSALS):
            return "refused", None
        raise RuntimeError(f"gradalg gber exited {code}: {message.strip()}")

    def _parse(self, text):
        obj = json.loads(text)
        alg = self.g.scalars.extended_quaternions()
        return self.g.jsonio.terms_from_json(obj["gber"]["terms"], alg)

    def _schur22(self, X):
        """gdet(X11) gdet(X22 - X21 X11^-1 X12)^-1, either route."""
        g = self.g
        rm = g.ringmat
        r = g.matrices.redivide_2x2(X, "parity")
        a_inv = g.berezinian.invert0(r.x11).grid()
        corner = rm.mat_sub(r.x22.grid(),
                            rm.mat_mul(r.x21.grid(), rm.mat_mul(a_inv, r.x12.grid())))
        even = [s for s in X.row_ranks.even_sizes if s > 0]
        odd = [s for s in X.row_ranks.odd_sizes if s > 0]
        return self._gdet(r.x11.grid(), even, X.ring) * self._gdet(corner, odd, X.ring).inverse()

    def _gdet(self, grid, sizes, ring):
        d = self.g.determinant
        try:
            return d.gdet_blocks(grid, sizes, ring).value
        except self.g.errors.RegularityError:
            return d.gdet_blocks_ldu(grid, sizes, ring).value

    def verify(self, inputs, values, start=0):
        e = self.g.errors
        parsed = [None] * start + [None if v is None else self._parse(v)
                                   for v in values[start:]]
        flags = [False] * (len(values) - start)
        for i in range(start, len(values)):
            group, (_, X) = inputs[i]
            if parsed[i] is None:
                continue
            if group[2] < len(values) and _triple_outputs(group, parsed):
                x, y, xy = (parsed[j] for j in group)
                if xy != x * y:
                    raise Mismatch(f"gber-cli: gber(XY) != gber(X) gber(Y) at input {i}")
                flags[i - start] = True
                continue
            try:
                other = self._schur22(X)
            except (e.RegularityError, e.NotInvertibleError):
                continue
            if other != parsed[i]:
                raise Mismatch(f"gber-cli: Schur-complement formulas disagree at input {i}")
            flags[i - start] = True
        return flags

    def output_json(self, value):
        return json.loads(value)

    def close(self):
        for path in self.paths:
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)
        self.paths = []
        with contextlib.suppress(OSError):
            os.rmdir(self.workdir)


class LiouvilleSeries(Workload):
    name = "liouville-series"
    why = ("liouville_check(X, order=6) over H at ranks (1,1,2,1): the same kernels "
           "on NilpotentPoly entries, so scalar changes show on the series ring")
    chunk_size = 12
    est_op_s = 0.100
    evens = (1, 1, 2, 1)

    def make_chunk(self, seed, chunk, first_index):
        g = self.g
        rng = self.rng(seed, chunk)
        alg = g.scalars.quaternions()
        ranks = g.matrices.RankVector.from_even_half(3, self.evens)
        return [((first_index + k,), g.randgen.random_matrix(rng, alg, ranks, bound=6))
                for k in range(self.chunk_size)]

    def run(self, payload):
        e = self.g.errors
        try:
            return "ok", self.g.berezinian.liouville_check(payload, order=6)
        except (e.RegularityError, e.NotInvertibleError):
            return "refused", None

    def verify(self, inputs, values, start=0):
        flags = [False] * (len(values) - start)
        for i in range(start, len(values)):
            if values[i] is None:
                continue
            lhs, rhs = values[i]
            if lhs != rhs:
                raise Mismatch(f"liouville-series: lhs != rhs at input {i}")
            flags[i - start] = True
        return flags

    def output_json(self, value):
        return [self.g.jsonio.terms_to_json(c) for c in value[0].coeffs]


WORKLOADS = {w.name: w for w in (GdetBlocks, GdetWide, GberCli, LiouvilleSeries)}

