"""One benchmark sample, run in a fresh interpreter by ``run.py``.

    python3 perfbench/sample.py --workload NAME --t0 NS [--p P --q Q]
                                [--trace] [--setup-only]

``--t0`` is the wall clock (``time.time_ns``) just before ``run.py``
started this process, so ``setup_s`` covers interpreter start, importing
``blobcell`` and validating the parameters.  ``wall_s`` and ``cpu_s`` run
from there to the program's result; the output checks run after it.
Prints one JSON object as the last line of standard output.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

import workloads as W   # noqa: E402  (sibling module of this script)


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0      # ru_maxrss is in KiB on Linux


def verify_argv(wl: W.Workload, p, q) -> list[str]:
    argv = ["verify", "--n", str(wl.n), "--l", str(wl.l)]
    if wl.suite != "all":
        argv += ["--suite", wl.suite]
    if p is not None:
        argv += ["--p", str(p), "--q", str(q)]
    return argv


def run_verify(wl: W.Workload, p, q, outcome: dict) -> None:
    from blobcell import cli
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(verify_argv(wl, p, q))
    outcome["code"] = code
    outcome["report"] = json.loads(buf.getvalue()) if buf.getvalue() else None


def run_pipeline(params, outcome: dict) -> None:
    """One certified pass.  Each result lands in ``outcome`` as soon as it
    exists, so a raise leaves the later checks without their result."""
    from blobcell import blob as B
    A = B.build_blob(params)
    outcome["dim_B"] = A.dim
    images = B.KLRImages(A)
    outcome["relations"] = [str(f) for f in images.relation_failures()]
    basis = B.build_cellular_basis(A, images)
    outcome["cellular_basis"] = True
    outcome["cellularity"] = list(B.check_cellularity(A, basis))
    jm = B.jm_images(A, images)
    outcome["jm"] = list(B.check_jm(A, basis, jm))
    modules = B.cell_modules(A, basis)
    outcome["cell_modules"] = [(m.dim, m.gram_rank) for m in modules]


def check_verify(wl: W.Workload, outcome: dict) -> tuple[dict, int]:
    """Pass/fail per suite, plus the consistency of the report's flags
    with the failures it lists and with the exit code."""
    report = outcome.get("report")
    if report is None:
        return {name: False for name in wl.checks}, 0
    suites = report.get("suites", {})
    results, witnesses = {}, 0
    for name in wl.checks[:-1]:
        suite = suites.get(name)
        fails = suite["failures"] if suite else None
        results[name] = suite is not None and not fails and suite["passed"]
        witnesses += len(fails or ())
    flags_agree = (
        set(suites) == set(wl.checks[:-1])
        and all(s["passed"] == (not s["failures"]) for s in suites.values())
        and report["passed"] == all(s["passed"] for s in suites.values())
        and outcome["code"] == (0 if report["passed"] else 1))
    results["report"] = flags_agree
    return results, witnesses


def check_pipeline(wl: W.Workload, outcome: dict) -> tuple[dict, int]:
    from blobcell import combinatorics as comb
    dim_b = sum(len(comb.std_tableaux(lam)) ** 2
                for lam in comb.one_column_shapes(wl.n, wl.l))
    modules = outcome.get("cell_modules")
    relations = outcome.get("relations")
    results = {
        "build_blob": "dim_B" in outcome,
        "dim_B": outcome.get("dim_B") == dim_b,
        "relations": relations == [],
        "cellular_basis": "cellular_basis" in outcome,
        "cellularity": outcome.get("cellularity") == [],
        "jm": outcome.get("jm") == [],
        "cell_modules": modules is not None,
        "cell_dims": modules is not None
                     and sum(d * d for d, _ in modules) == dim_b,
        "gram_ranks": modules is not None
                      and tuple(r for _, r in modules) == W.GRAM_RANKS.get(
                          (wl.n, wl.l)),
    }
    witnesses = sum(len(outcome.get(name) or ())
                    for name in ("relations", "cellularity", "jm"))
    return results, witnesses


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    ap.add_argument("--t0", type=int, required=True)
    ap.add_argument("--p", type=int)
    ap.add_argument("--q", type=int)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    wl = W.WORKLOADS[args.workload]

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import blobcell.cli  # noqa: F401  (imports every module of the package)
    from blobcell import hecke
    params = hecke.default_params(wl.n, wl.l, p=args.p, q=args.q)
    params.validate()
    setup_s = (time.time_ns() - args.t0) / 1e9
    result = {"setup_s": setup_s, "p": params.p, "q": params.q}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    outcome: dict = {}
    error = None
    cpu0, t0 = _cpu_seconds(), time.perf_counter()
    try:
        if wl.kind == "verify":
            run_verify(wl, args.p, args.q, outcome)
        else:
            run_pipeline(params, outcome)
    except Exception as ex:     # a raise fails the checks still pending
        error = f"{type(ex).__name__}: {ex}"
    wall_s = time.perf_counter() - t0
    cpu_s = _cpu_seconds() - cpu0
    if tracer is not None:
        tracer.uninstall()

    check = check_verify if wl.kind == "verify" else check_pipeline
    results, witnesses = check(wl, outcome)
    result.update({
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": _peak_rss_mb(),
        "checks": results,
        "witnesses": witnesses,
        "error": error,
    })
    if tracer is not None:
        result["spans"] = tracer.spans
        result["counters"] = dict(tracer.counters)
        result["wrapper_cost_s"] = tracer.wrapper_cost()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
