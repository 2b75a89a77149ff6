"""Compare two sets of runs (runs.jsonl files) metric by metric.

For each workload and end-to-end metric it prints each side's median and
quartiles and one label, in its own row:

  better      the change wins at least nine tenths of all pairs (ties count
              for neither) and the medians differ by more than the parent's
              quartile distance
  worse       the change's median is worse than the parent's by more than the
              metric's bound
  unresolved  the parent's own spread is wider than the bound, and not every
              run of the change beats every run of the parent
  same        none of the above

Runs are paired by seed where both sides ran it, otherwise by order.
"""

from __future__ import annotations

import json
import statistics

WIN_SHARE = 0.9


def load_runs(path):
    """{workload: {seed: {metric: value}}} of the untraced runs in a file."""
    out = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            if rec.get("trace"):
                continue
            metrics = {k: v["value"] for k, v in rec["result"]["metrics"].items()}
            out.setdefault(rec["workload"], {})[rec["seed"]] = metrics
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def label(parent, change, better, bound):
    """One of better / worse / unresolved / same for paired value lists."""
    sign = 1.0 if better == "higher" else -1.0
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    pairs = list(zip(parent, change))
    wins = sum(sign * (c - p) > 0 for p, c in pairs)
    if pairs and wins >= WIN_SHARE * len(pairs) and abs(cm - pm) > (p3 - p1):
        return "better"
    if sign * (pm - cm) > bound * abs(pm):
        return "worse"
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if pm and (p3 - p1) / abs(pm) > bound and not all_better:
        return "unresolved"
    return "same"


def _paired(parent_runs, change_runs):
    common = sorted(set(parent_runs) & set(change_runs))
    if common:
        return [parent_runs[s] for s in common], [change_runs[s] for s in common]
    p = [parent_runs[s] for s in sorted(parent_runs)]
    c = [change_runs[s] for s in sorted(change_runs)]
    n = min(len(p), len(c))
    return p[:n], c[:n]


def _cell(values):
    q1, med, q3 = quartiles(values)
    return f"{med:.5g} [{q1:.5g}, {q3:.5g}]"


def report(definition, parent_path, change_path):
    parent, change = load_runs(parent_path), load_runs(change_path)
    row = "{:<18} {:<15} {:>36} {:>36} {:>3}  {}"
    print(row.format("workload", "metric", "parent median [q1, q3]",
                     "change median [q1, q3]", "n", "label"))
    for workload in [w["name"] for w in definition["workloads"]]:
        if workload not in parent or workload not in change:
            print(f"{workload:<18} missing on one side")
            continue
        p_runs, c_runs = _paired(parent[workload], change[workload])
        if not p_runs:
            print(f"{workload:<18} no runs to pair")
            continue
        for m in definition["end_to_end"]:
            p = [r[m["name"]] for r in p_runs]
            c = [r[m["name"]] for r in c_runs]
            print(row.format(workload, m["name"], _cell(p), _cell(c), len(p),
                             label(p, c, m["better"], m["bound"])))
