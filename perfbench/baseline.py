"""Repeat benchmark runs over seeds and record the baseline.

    python3 perfbench/baseline.py [--workloads a,b] [--seeds 10] [--out FILE]

For each workload: one untraced run of BENCHMARK.json's ``run_seconds``
per seed 0 .. seeds-1, then one traced run at seed 0.  Prints, per end-to-end metric, the median and quartiles of
the per-run values and their spread (interquartile distance over the
median) against a third of the metric's bound in BENCHMARK.json, and
merges the figures into ``perfbench/baseline.json`` (or ``--out``), keyed
by workload.  Workloads default to those BENCHMARK.json lists.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

import run    # noqa: E402  (sibling module of this script)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def stats(values: list) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("nan"),
            "values": values}


def measure_workload(name: str, seeds: int, seconds: float,
                     bounds: dict) -> dict:
    runs = []
    for seed in range(seeds):
        res = run.run(name, seed, seconds, trace=False)
        runs.append(res)
        print(f"  {name} seed {seed}: " + "  ".join(
            f"{k} {v[0]:.4f}" for k, v in res["metrics"].items())
            + f"  failed {res['failed']}/{res['attempted']}", flush=True)
    entry = {
        "runs": len(runs),
        "seeds": list(range(seeds)),
        "samples_per_run": [len(r["samples"]) for r in runs],
        "fields": sorted({tuple(f) for r in runs for f in r["fields"]}),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "failure_witnesses": max(r["witnesses"] for r in runs),
        "end_to_end": {},
    }
    entry["failed_frac"] = entry["failed"] / entry["attempted"]
    for metric in runs[0]["metrics"]:
        unit = runs[0]["metrics"][metric][1]
        row = stats([r["metrics"][metric][0] for r in runs])
        row["unit"] = unit
        row["samples"] = sum(r["metrics"][metric][2] for r in runs)
        bound = bounds.get(metric)
        row["bound"] = bound
        entry["end_to_end"][metric] = row
        mark = ""
        if bound is not None:
            mark = "ok" if row["spread"] < bound / 3 else "WIDE"
        print(f"  {metric:12s} median {row['median']:10.4f} {unit:3s} "
              f"q1 {row['q1']:10.4f} q3 {row['q3']:10.4f} "
              f"spread {row['spread']:.4f} (bound/3 "
              f"{bound / 3 if bound else float('nan'):.4f}) {mark}  "
              f"{row['samples']} samples", flush=True)
    print(f"  failed_frac {entry['failed_frac']:.4f} ({entry['failed']} of "
          f"{entry['attempted']} checks)  failure_witnesses "
          f"{entry['failure_witnesses']}", flush=True)
    res = run.run(name, 0, seconds, trace=True)
    entry["per_layer_seed0"] = {
        k: {"value": v, "unit": u} for k, (v, u, _) in res["metrics"].items()}
    entry["traced_samples"] = len(res["samples"]) // 2
    print(f"  traced: overhead {res['metrics']['trace.overhead.s'][0]:.3f} s"
          f", wrapper cost {res['metrics']['trace.wrapper_cost.s'][0]:.3f} s"
          f" over {entry['traced_samples']} traced samples", flush=True)
    return entry


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--out", default=os.path.join(HERE, "baseline.json"))
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    doc = {"workloads": {}}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            doc = json.load(fh)
    doc["machine"] = {"cpu": cpu_model(), "cores": os.cpu_count(),
                      "blas_threads": run.blas_threads(),
                      "python": platform.python_version()}
    for name in args.workloads.split(","):
        seconds = bench["run_seconds"]
        print(f"{name}: {args.seeds} runs of {seconds} s", flush=True)
        entry = measure_workload(name, args.seeds, seconds, bounds)
        entry["run_seconds"] = seconds
        entry["measured"] = time.strftime("%Y-%m-%d")
        doc["workloads"][name] = entry
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
