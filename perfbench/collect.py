"""Summarise the result files in perfbench/_work/ into one baseline document.

    python3 perfbench/collect.py > perfbench/BASELINE.json

Per workload: the median and quartiles of each end-to-end metric over the
untraced runs, the median raw (unscaled) pass time, and the per-layer table
averaged over the traced runs (``traced.overhead_s`` in it is the tracing
overhead), and the failures of any run that had some.
"""

import json
import statistics
import sys
from pathlib import Path

WORK = Path(__file__).resolve().parent / "_work"


def _summary(values):
    values = sorted(values)
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2],
            "spread": (q[2] - q[0]) / statistics.median(values), "runs": len(values)}


def main() -> None:
    runs = [json.loads(p.read_text()) for p in sorted(WORK.glob("result-*.json"))]
    out = {"workloads": {}}
    for workload in sorted({r["stamp"]["workload"] for r in runs}):
        mine = [r for r in runs if r["stamp"]["workload"] == workload]
        plain = [r for r in mine if not r["stamp"]["trace"]]
        traced = [r for r in mine if r["stamp"]["trace"]]
        doc = {"sizes": mine[0]["stamp"]["sizes"],
               "seeds_untraced": sorted(r["stamp"]["seed"] for r in plain),
               "seeds_traced": sorted(r["stamp"]["seed"] for r in traced)}
        if plain:
            names = plain[0]["metrics"]
            doc["end_to_end"] = {
                name: {**_summary([r["metrics"][name]["value"] for r in plain]),
                       "unit": names[name]["unit"]}
                for name in names}
            doc["raw_pass_s_median"] = statistics.median(
                statistics.median(r["walls"]) for r in plain)
        if traced:
            names = traced[0]["metrics"]
            doc["per_layer"] = {
                name: statistics.mean(r["metrics"][name]["value"] for r in traced)
                for name in names if any(r["metrics"][name]["value"] for r in traced)}
        failing = {r["stamp"]["seed"]: r["failures"] for r in mine if r["failed"]}
        if failing:
            doc["failures_by_seed"] = failing
        out["workloads"][workload] = doc
    first = runs[0]["stamp"]
    out["stamp"] = {k: first[k] for k in ("nproc", "python", "numpy", "scipy", "commit", "seconds")}
    json.dump(out, sys.stdout, indent=1, sort_keys=True)
    print()


if __name__ == "__main__":
    main()
