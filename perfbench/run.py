"""gradalg benchmark: four exact workloads, end-to-end metrics and traced
per-layer counts.

Run from the root of a checkout:

    python3 perfbench/run.py --workload gdet-blocks --seed 1 --seconds 16 --trace 0
    python3 perfbench/run.py --workload gdet-blocks --seed 1 --seconds 16 --trace 1
    python3 perfbench/run.py --compare parent.jsonl change.jsonl

Load is one caller in a closed loop: one process, one thread, each op
starting when the previous one returns.  Inputs are generated from the seed
before timing starts and every op gets a distinct input.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json:
  ops_per_s       verified results per second of timed wall time; time spent
                  on refused ops counts, refused ops yield nothing
  latency_p50_ms, latency_p90_ms
                  per-op latency of answered ops (sample count printed)
  answered_frac   1 - fail_frac: ops answered over ops attempted; refused
                  means RegularityError, NotInvertibleError or CLI exit 4
  setup_s         median import time + chunks x median chunk-generation time
  peak_rss_mib    peak resident set size of this process

``--trace 1`` runs the workload's fixed traced input set twice, untraced
then traced, and prints the per-layer metrics (counts per op, self times in
ms per op, ratios, and the tracing overhead).

Every run appends a full record (metrics, sample counts, output digest,
environment and steadiness stamp) to perfbench/out/runs.jsonl; the last line
of standard output is the JSON result.  A wrong value exits 3 without a
result line.

In the result line ``failed`` is 0: an op either returns a value, which is
verified, or a documented refusal, which is a deterministic property of its
input and is reported by ``answered_frac`` (and as ``refused`` in the record);
any other outcome aborts the run.  Counting refusals there instead would make
``failed`` scale with how many ops fit in the timed window.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import types
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SUBMODULES = ("errors", "grading", "scalars", "series", "ringmat", "matrices",
              "quasidet", "determinant", "trace", "berezinian", "dieudonne",
              "jsonio", "randgen", "cli")
IMPORT_REPEATS = 5
POOL_MARGIN = 1.05
MIN_CHUNKS = 3
WINDOWS = 8
SHARE_KEYS = ("quasidet.block_quasidet", "ringmat.mat_inverse", "ringmat.commutative_det",
              "ringmat.mat_mul", "berezinian.gber", "cli.main")


class BenchError(Exception):
    """The benchmark cannot run here (missing library or definition)."""


def load_definition():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path} not found")
    with open(path) as fh:
        return json.load(fh)


def import_library():
    """Import gradalg from this checkout's src/ several times; return the
    modules and the median import time."""
    src = ROOT / "src"
    if not (src / "gradalg" / "__init__.py").is_file():
        raise BenchError(f"no gradalg package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    times = []
    for _ in range(IMPORT_REPEATS):
        for name in [n for n in sys.modules if n == "gradalg" or n.startswith("gradalg.")]:
            del sys.modules[name]
        t0 = perf_counter()
        mods = {name: importlib.import_module(f"gradalg.{name}") for name in SUBMODULES}
        times.append(perf_counter() - t0)
    package = sys.modules["gradalg"]
    if Path(package.__file__).resolve().parent != (src / "gradalg").resolve():
        raise BenchError(f"gradalg imported from {package.__file__}, not {src}")
    return types.SimpleNamespace(package=package, **mods), statistics.median(times)


# -- statistics ----------------------------------------------------------------


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def spread(values):
    """Quartile distance over the median; 0 for fewer than two values."""
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else 0.0


def environment():
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": model,
            "platform": platform.platform()}


def digest(w, values, limit):
    """SHA-256 of the canonical JSON of the successful outputs among the
    first ``limit`` ops, so later changes can show their values held."""
    rows = [[i, w.output_json(v)] for i, v in enumerate(values[:limit]) if v is not None]
    text = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# -- runs ---------------------------------------------------------------------------


def settle():
    """Move the input pool out of the collector's sight, so that garbage
    collections during ops do not scan the benchmark's own inputs."""
    gc.collect()
    gc.freeze()


def generate(w, seed, chunks, inputs):
    """Append the given chunks to ``inputs``; return each chunk's time.

    Finished chunks are frozen, so a collection while drawing the next chunk
    does not rescan every input drawn so far."""
    times = []
    for c in chunks:
        t0 = perf_counter()
        inputs += w.make_chunk(seed, c, len(inputs))
        times.append(perf_counter() - t0)
        gc.freeze()
    return times


def timed_run(w, seed, seconds, import_s):
    """Closed loop over the seeded pool for ``seconds`` of timed wall time."""
    n_chunks = max(MIN_CHUNKS, math.ceil(POOL_MARGIN * seconds / (w.est_op_s * w.chunk_size)))
    inputs = []
    chunk_times = generate(w, seed, range(n_chunks), inputs)
    setup_s = import_s + n_chunks * statistics.median(chunk_times)
    settle()

    latencies, values, flags = [], [], []
    extra_chunks, paused = 0, 0.0
    start = perf_counter()
    while perf_counter() - start - paused < seconds:
        i = len(values)
        if i == len(inputs):
            # The pool ran out: with the clock stopped, verify and drop the
            # inputs used so far, so that a faster program does not hold a
            # larger pool, then draw the next chunk.
            t0 = perf_counter()
            done = len(flags)
            flags += w.verify(inputs, values, done)
            for k in range(done, i):
                inputs[k] = (inputs[k][0], None)
            generate(w, seed, [n_chunks + extra_chunks], inputs)
            extra_chunks += 1
            settle()
            paused += perf_counter() - t0
        t0 = perf_counter()
        status, value = w.run(inputs[i][1])
        latencies.append(perf_counter() - t0)
        values.append(value if status == "ok" else None)
    timed_s = perf_counter() - start - paused

    flags += w.verify(inputs, values, len(flags))
    attempted = len(values)
    refused = sum(v is None for v in values)
    verified = sum(flags)
    answered_lat = sorted(latencies[i] for i, v in enumerate(values) if v is not None)
    if not answered_lat or not verified:
        raise BenchError(f"{w.name}: no verified result in {attempted} ops")
    metrics = {
        "ops_per_s": verified / timed_s,
        "latency_p50_ms": 1000.0 * statistics.median(answered_lat),
        "latency_p90_ms": 1000.0 * percentile(answered_lat, 0.9),
        "answered_frac": (attempted - refused) / attempted,
        "setup_s": setup_s,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }

    windows = {k: [] for k in ("ops_per_s", "latency_p50_ms", "latency_p90_ms", "answered_frac")}
    size = max(1, attempted // WINDOWS)
    for lo in range(0, size * WINDOWS, size):
        idx = range(lo, min(lo + size, attempted))
        if not idx:
            continue
        lat = sorted(latencies[i] for i in idx if values[i] is not None)
        windows["ops_per_s"].append(sum(flags[i] for i in idx) / sum(latencies[i] for i in idx))
        windows["answered_frac"].append(sum(values[i] is not None for i in idx) / len(idx))
        if lat:
            windows["latency_p50_ms"].append(1000.0 * statistics.median(lat))
            windows["latency_p90_ms"].append(1000.0 * percentile(lat, 0.9))
    steadiness = {k: spread(v) for k, v in windows.items()}
    steadiness["setup_s"] = spread(chunk_times)

    info = {
        "attempted": attempted, "refused": refused, "verified": verified,
        "unverified_answers": attempted - refused - verified,
        "latency_samples": len(answered_lat),
        "beyond_p90": sum(x > percentile(answered_lat, 0.9) for x in answered_lat),
        "import_s": import_s, "timed_s": timed_s, "pool_chunks": n_chunks, "extra_chunks": extra_chunks,
        "digest_ops": min(attempted, w.trace_chunks * w.chunk_size),
        "digest": digest(w, values, w.trace_chunks * w.chunk_size),
        "steadiness_iqr_over_median": steadiness,
    }
    return metrics, info


def traced_run(w, seed, g):
    """Fixed input set, untraced then traced; per-layer figures per op."""
    inputs = []
    generate(w, seed, range(w.trace_chunks), inputs)
    settle()
    t0 = perf_counter()
    for _, payload in inputs:
        w.run(payload)
    untraced_s = perf_counter() - t0

    tr = tracing.Tracer()
    tr.install(g.package)
    tr.enabled, tr.phase = True, "setup"
    inputs = []
    with tr.root("bench.setup"):
        generate(w, seed, range(w.trace_chunks), inputs)
    settle()
    tr.phase = "ops"
    values = []
    t0 = perf_counter()
    for i, (_, payload) in enumerate(inputs):
        tr.op_id = i
        with tr.root("bench.op"):
            status, value = w.run(payload)
        values.append(value if status == "ok" else None)
    traced_s = perf_counter() - t0
    tr.enabled = False

    w.verify(inputs, values)
    metrics = tracing.layer_metrics(tr, len(inputs))
    metrics["trace_overhead_ratio"] = traced_s / untraced_s
    refused = sum(v is None for v in values)
    info = {"attempted": len(values), "refused": refused,
            "untraced_s": untraced_s, "traced_s": traced_s,
            "spans_kept": len(tr.spans),
            "inclusive_share": {k: round(v, 4) for k, v in tr.inclusive_shares().items()
                                if k in SHARE_KEYS},
            "digest_ops": len(values), "digest": digest(w, values, len(values))}
    return metrics, info, tr


def run_workload(args, definition):
    g, import_s = import_library()
    OUT.mkdir(exist_ok=True)
    w = workloads.WORKLOADS[args.workload](g, str(OUT / f"inputs-{os.getpid()}"))
    try:
        if args.trace:
            metrics, info, tr = traced_run(w, args.seed, g)
            tr.write_spans(OUT / f"spans-{args.workload}-{args.seed}.jsonl")
            wanted = definition["per_layer"]
        else:
            metrics, info = timed_run(w, args.seed, args.seconds, import_s)
            wanted = definition["end_to_end"]
    finally:
        w.close()
    names = [m["name"] for m in wanted]
    if sorted(names) != sorted(metrics):
        raise BenchError("metric set does not match BENCHMARK.json")
    result = {
        "correct": True,
        "attempted": info["attempted"],
        "failed": 0,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "result": result, "info": info, "env": environment()}
    with open(OUT / "runs.jsonl", "a") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    summary = {k: v for k, v in info.items() if k != "steadiness_iqr_over_median"}
    print(f"# {args.workload} seed={args.seed} trace={args.trace} " + json.dumps(summary, sort_keys=True))
    print(json.dumps(result))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"),
                        help="compare two runs.jsonl files instead of running")
    args = parser.parse_args(argv)
    try:
        definition = load_definition()
        if args.compare:
            compare.report(definition, *args.compare)
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        if args.seconds is None:
            args.seconds = definition["run_seconds"]
        if args.seconds <= 0:
            parser.error("--seconds must be positive")
        run_workload(args, definition)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    except workloads.Mismatch as exc:
        print(f"perfbench: WRONG VALUE: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
