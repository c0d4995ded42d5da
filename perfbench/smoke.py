"""Smoke test of the benchmark harness at (n, l) = (2, 2); takes seconds.

    python3 perfbench/smoke.py

Checks that every metric named in BENCHMARK.json is emitted with its
unit, that an exception raised inside a sample fails the checks still
pending and so shows in ``failed_frac``, and that traced spans nest.
Exits 0 when all hold.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run        # noqa: E402  (sibling modules of this script)
import sample     # noqa: E402
import tracing    # noqa: E402
import workloads as W   # noqa: E402


def run_command(workload: str, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0.5", "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=120, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def check_metrics_emitted() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    for workload in ("pipeline_n2_l2", "verify_n2_l2"):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            res = run_command(workload, trace)
            assert set(res) == {"correct", "attempted", "failed", "metrics"}
            assert res["correct"] and res["failed"] == 0, res
            assert res["attempted"] >= 1
            want = {m["name"]: m["unit"] for m in bench[section]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            assert got == want, (workload, section,
                                 set(got) ^ set(want))
            for name, v in res["metrics"].items():
                assert isinstance(v["value"], (int, float)), name


def sample_in_process(*flags: str) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = sample.main(["--workload", "pipeline_n2_l2",
                            "--t0", str(time.time_ns()), *flags])
    assert code == 0
    return json.loads(buf.getvalue().splitlines()[-1])


def check_forced_exception() -> None:
    from blobcell import blob

    def broken(*args, **kwargs):
        raise RuntimeError("forced failure")

    original = blob.check_cellularity
    blob.check_cellularity = broken
    try:
        res = sample_in_process()
    finally:
        blob.check_cellularity = original
    wl = W.WORKLOADS["pipeline_n2_l2"]
    assert res["error"] == "RuntimeError: forced failure", res["error"]
    attempted, failed, _ = run.tally(wl, [res])
    pending = wl.checks[wl.checks.index("cellularity"):]
    assert attempted == len(wl.checks) and failed == len(pending), res
    assert all(not res["checks"][name] for name in pending)
    # a sample that timed out has no results: all of its checks fail
    assert run.tally(wl, [res, {"timed_out": True}])[1] == \
        failed + len(wl.checks)


def check_span_nesting() -> None:
    from blobcell import blob, exactfield
    res = sample_in_process("--trace")
    spans = res["spans"]
    assert spans and not res["error"]
    for i, (name, parent, start, end, _) in enumerate(spans):
        assert start <= end, name
        if parent >= 0:
            assert parent < i, name
            _, _, pstart, pend, _ = spans[parent]
            assert pstart <= start and end <= pend, (name, spans[parent][0])
    assert min(tracing.self_times(spans)) > -1e-9
    names = [s[0] for s in spans]
    for i, name in enumerate(names):
        if name == "hecke.class_idempotent_vector":
            assert tracing._has_ancestor(
                spans, i, {"blob.KLRImages.__init__",
                           "hecke.e2_idempotents"}), i
        if name == "blob.build_blob":
            assert spans[i][1] == -1
    metrics = tracing.layer_metrics(spans, res["counters"])
    assert metrics["hecke.murphy.calls"] > 0
    assert metrics["exactfield.rref.calls"] > 0
    assert metrics["blob.klr_images.s"] <= sum(
        e - s for n, _, s, e, _ in spans if n == "blob.KLRImages.__init__")
    # every wrapper is gone again
    assert blob.rref is exactfield.rref
    assert not hasattr(exactfield.rref, "__wrapped__")


def main() -> int:
    t0 = time.perf_counter()
    for check in (check_metrics_emitted, check_forced_exception,
                  check_span_nesting):
        check()
        print(f"ok  {check.__name__}")
    print(f"smoke test passed in {time.perf_counter() - t0:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
