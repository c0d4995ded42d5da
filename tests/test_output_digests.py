"""Each command's report, held by the SHA-256 of its JSON with the
``timestamp`` field removed.  A change that claims to leave the outputs
as they were is checked against these digests, and a change that alters
an output on purpose updates its digest here and says why."""

import hashlib
import json

import pytest

from blobcell import cli

DIGESTS = {
    ("verify", 2, 2): "26a28ffd300a2a148f0561315a388bd2dcc68c302da2e51a7821e9f0c74b29d5",
    ("basis", 2, 2): "2425981294d0294c8935dca386e9f1e42263839d9d2d592ea78c5540429d4c48",
    ("cell", 2, 2): "bf09155f357cfb473b900e444c49604c113c842ceaa2f0eda75c2c1aca4c5e9d",
    ("verify", 3, 2): "56fab89b7acc470bd4a3c2619e4852f2db67fbdee01451bf96d41b114d75d6e0",
    ("basis", 3, 2): "9a9dbe2ca457d2e685935673e699857ee629e615d344bab5306b7cc73f321d8b",
    ("cell", 3, 2): "246e9b586810ae3b7c5773be7988dc13d302c7ad73e856d59da4a85d44dd6bdc",
    ("verify", 2, 3): "237ba9b4341c6ff575c5e91fcf87b873a90502f1be329ad9fc28c65ebbcb8dd9",
    ("basis", 2, 3): "918495e4c0ea4aa7eae3c383b6c5bd2bc0953c4e72b38ba5200ba289c6655e39",
    ("cell", 2, 3): "37c82ac37650c71845470129c4e13a17f1be9496f1f3cba9f458095cbea5474b",
}

TRACE_DIGESTS = {
    1: "016a444b4f2347d0122766aae624a7b5c537d3bf2bd3c87073001ed19c465205",
    2: "d3b1141f8c58073c3281029a1885277eaef997ad1b5e0ecb6e04490f38594e39",
    3: "ba3896433dc2a98f232e58419f167fc157b70d40687cfd66fda5fa19f1d19785",
}


def report_digest(argv, tmp_path) -> str:
    """Run a command that must exit 0 and return the SHA-256 of its JSON
    report without ``timestamp``, in the layout ``emit`` writes."""
    out = tmp_path / "report.json"
    assert cli.main(argv + ["--out", str(out)]) == 0
    report = json.loads(out.read_text())
    del report["timestamp"]
    text = json.dumps(report, indent=2, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("command,n,l", list(DIGESTS),
                         ids=[f"{c}-{n}{l}" for c, n, l in DIGESTS])
def test_report_digest(command, n, l, tmp_path):
    argv = [command, "--n", str(n), "--l", str(l)]
    assert report_digest(argv, tmp_path) == DIGESTS[command, n, l]


@pytest.mark.parametrize("k", list(TRACE_DIGESTS))
def test_trace_digest(k, tmp_path):
    argv = ["trace", "--n", "3", "--l", "2", "--k", str(k)]
    assert report_digest(argv, tmp_path) == TRACE_DIGESTS[k]
