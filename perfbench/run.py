"""Benchmark entry point for ``blobcell``.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; nothing needs installing.  Every
sample runs in a fresh interpreter (``sample.py``), one at a time, so each
pays the cold caches a command-line user pays.  BLAS and OpenMP threads
are capped at the number of usable cores.

``--trace 0`` times untraced samples between two rounds of set-up-only
probes, while the next sample and the closing probes are expected to end
within ``--seconds`` (at least one sample), and reports the medians of
``wall_s``, ``setup_s`` (over the probes and the samples), ``cpu_s`` and
``peak_rss_mb``.  ``--trace 1`` alternates untraced and traced samples
in the same way (at least one of each), reports the per-layer metrics of
the traced ones and the tracing overhead, and writes the spans to
``.perfbench/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; ``attempted`` and
``failed`` count checks (verify suites, or certifying calls of a pipeline,
plus output checks) over all samples.  The lines before it repeat every
metric with its unit and sample count, ``failed_frac``,
``failure_witnesses`` (per sample, the most any sample returned), the
seed and the field it chose.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import tracing   # noqa: E402  (sibling modules of this script)
import workloads as W   # noqa: E402

SETUP_PROBES = 10       # set-up-only samples before and again after the run
RUN_LIMIT_S = 170.0     # a run must end within 180 s


def blas_threads() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    env = dict(os.environ)
    cap = str(blas_threads())
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS"):
        env[var] = cap
    return env


class Runner:
    def __init__(self, name: str, seed: int, seconds: float):
        self.name = name
        self.wl = W.WORKLOADS[name]
        self.seed = seed
        self.seconds = seconds
        self.p, self.q = W.field_for_seed(self.wl, seed)
        self.env = child_env()
        self.started = time.monotonic()

    def spawn(self, *flags: str) -> dict:
        cmd = [sys.executable, os.path.join(HERE, "sample.py"),
               "--workload", self.name]
        if self.p is not None:
            cmd += ["--p", str(self.p), "--q", str(self.q)]
        cmd += list(flags)
        budget = RUN_LIMIT_S - (time.monotonic() - self.started)
        cmd += ["--t0", str(time.time_ns())]
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  env=self.env, cwd=ROOT,
                                  timeout=max(budget, 1.0))
        except subprocess.TimeoutExpired:
            return {"error": "sample timed out", "timed_out": True}
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"sample process failed ({proc.returncode}): "
                               f"{proc.stderr.strip()[-2000:]}")
        return json.loads(lines[-1])

    def elapsed(self) -> float:
        return time.monotonic() - self.started


def tally(wl: W.Workload, samples: list[dict]) -> tuple[int, int, int]:
    """(attempted, failed) summed over samples, and the most failure
    witnesses one sample returned; a sample without results (it timed
    out) fails every check."""
    attempted = failed = witnesses = 0
    for s in samples:
        checks = s.get("checks")
        attempted += len(wl.checks)
        if checks is None:
            failed += len(wl.checks)
        else:
            failed += sum(1 for name in wl.checks if not checks.get(name))
        witnesses = max(witnesses, s.get("witnesses", 0))
    return attempted, failed, witnesses


def probe_setup(runner: Runner) -> list[float]:
    setups = []
    for _ in range(SETUP_PROBES):
        s = runner.spawn("--setup-only")
        if s.get("timed_out"):
            break
        setups.append(s["setup_s"])
    return setups


def measure(runner: Runner) -> tuple[list, dict]:
    runner.spawn("--setup-only")    # fills the bytecode cache; not timed
    t = time.monotonic()
    setups = probe_setup(runner)
    closing = time.monotonic() - t
    samples = []
    last = 0.0
    while (not samples
           or runner.elapsed() + last + closing <= runner.seconds):
        t = time.monotonic()
        s = runner.spawn()
        last = time.monotonic() - t
        samples.append(s)
        if "setup_s" in s:
            setups.append(s["setup_s"])
        if s.get("timed_out"):
            break
    setups += probe_setup(runner)
    timed = [s for s in samples if "wall_s" in s]
    if not timed:
        raise RuntimeError("no sample finished within the run limit")
    metrics = {"setup_s": (median(setups), "s", len(setups))}
    for key, unit in (("wall_s", "s"), ("cpu_s", "s"),
                      ("peak_rss_mb", "MB")):
        metrics[key] = (median([s[key] for s in timed]), unit, len(timed))
    return samples, metrics


def measure_traced(runner: Runner) -> tuple[list, dict]:
    runner.spawn("--setup-only")
    plain, traced = [], []
    last = 0.0
    while not traced or runner.elapsed() + last <= runner.seconds:
        t = time.monotonic()
        plain.append(runner.spawn())
        if plain[-1].get("timed_out"):
            break
        traced.append(runner.spawn("--trace"))
        if traced[-1].get("timed_out"):
            break
        last = time.monotonic() - t
    done = [s for s in traced if "spans" in s]
    if not done:
        raise RuntimeError("no traced sample finished within the run limit")
    per_sample = [tracing.layer_metrics(s["spans"], s["counters"])
                  for s in done]
    metrics = {}
    for name in per_sample[0]:
        metrics[name] = (median([m[name] for m in per_sample]),
                         tracing.metric_unit(name), len(per_sample))
    # every traced sample follows a finished untraced one
    metrics["trace.overhead.s"] = (
        median([s["wall_s"] for s in done])
        - median([s["wall_s"] for s in plain[:len(done)]]), "s", len(done))
    metrics["trace.wrapper_cost.s"] = (
        median([s["wrapper_cost_s"] for s in done]), "s", len(done))
    write_trace(runner, done)
    return plain + traced, metrics


def write_trace(runner: Runner, traced: list) -> None:
    out_dir = os.path.join(ROOT, ".perfbench")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"trace_{runner.name}_seed{runner.seed}.json")
    doc = {"workload": runner.name, "seed": runner.seed,
           "samples": [{"sample": i, "p": s["p"], "q": s["q"],
                        "wall_s": s["wall_s"],
                        "summary": tracing.summary(s["spans"]),
                        "counters": s["counters"],
                        "spans": s["spans"]}
                       for i, s in enumerate(traced)]}
    with open(path, "w") as fh:
        json.dump(doc, fh)


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; raises RuntimeError if a sample process fails
    (the program cannot be imported or set up) or none finishes in time."""
    runner = Runner(name, seed, seconds)
    samples, metrics = (measure_traced if trace else measure)(runner)
    attempted, failed, witnesses = tally(runner.wl, samples)
    return {"workload": name, "seed": seed, "trace": int(trace),
            "fields": sorted({(s["p"], s["q"]) for s in samples if "p" in s}),
            "samples": samples, "metrics": metrics, "attempted": attempted,
            "failed": failed, "witnesses": witnesses}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "blobcell", "cli.py")):
        print(f"error: no blobcell sources under {ROOT}/src",
              file=sys.stderr)
        return 2
    try:
        res = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except RuntimeError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 1
    attempted, failed = res["attempted"], res["failed"]
    print(f"workload {args.workload}  seed {args.seed}  (p, q) "
          f"{', '.join(map(str, res['fields']))}  "
          f"blas_threads {blas_threads()}  samples {len(res['samples'])}  "
          f"trace {args.trace}")
    for name, (value, unit, count) in res["metrics"].items():
        print(f"  {name:34s} {value:14.6f} {unit:6s} median of {count}")
    print(f"  {'failed_frac':34s} {failed / attempted:14.6f} ratio  "
          f"{failed} of {attempted} checks")
    print(f"  {'failure_witnesses':34s} {res['witnesses']:14d} count  "
          f"most in one of {len(res['samples'])} samples")
    if args.trace:
        walls = [s["wall_s"] for s in res["samples"]
                 if "wall_s" in s and "spans" not in s]
        overhead = res["metrics"]["trace.overhead.s"][0]
        if len(walls) < 2 or abs(overhead) <= max(walls) - min(walls):
            print("  trace.overhead.s is unresolved: within the spread of "
                  f"{len(walls)} untraced samples; trace.wrapper_cost.s "
                  "estimates the tracer's cost")
    for s in res["samples"]:
        if s.get("error"):
            print(f"  sample error: {s['error']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in res["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
