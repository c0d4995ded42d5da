"""The benchmark's own pass (``perfbench/sample.py``) at small scales:
every check it makes holds and it finds no witness.  A change to a name
or a signature that the benchmark calls fails here, not only when the
benchmark runs."""

import importlib.util
import pathlib
import sys

import pytest

from blobcell import hecke as H

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def sample():
    """``perfbench/sample.py`` loaded by path, with its sibling module
    ``workloads`` importable while it loads."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location(
            "sample", PERFBENCH / "sample.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(PERFBENCH))
    return module


@pytest.mark.parametrize("name", ["pipeline_n2_l2", "pipeline_n3_l3"])
def test_pipeline_pass(sample, name):
    wl = sample.W.WORKLOADS[name]
    params = H.default_params(wl.n, wl.l)
    params.validate()
    outcome = {}
    sample.run_pipeline(params, outcome)
    results, witnesses = sample.check_pipeline(wl, outcome)
    assert results == dict.fromkeys(wl.checks, True)
    assert witnesses == 0


@pytest.mark.parametrize("name", ["verify_n2_l2", "verify_n3_l2"])
def test_verify_pass(sample, name):
    # verify_n3_l2 is the benchmark's gated workload: every suite, the
    # hecke suite included, through cli.main
    wl = sample.W.WORKLOADS[name]
    outcome = {}
    sample.run_verify(wl, None, None, outcome)
    results, witnesses = sample.check_verify(wl, outcome)
    assert results == dict.fromkeys(wl.checks, True)
    assert witnesses == 0
