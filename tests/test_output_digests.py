"""Each command's report, held by the SHA-256 of its JSON with the
``timestamp`` field removed, and the matrices the pipeline holds, by the
SHA-256 of their entries.  A change that claims to leave the outputs or
the matrices as they were is checked against these digests, and a change
that alters one on purpose updates its digest here and says why."""

import hashlib
import json

import numpy as np
import pytest

from blobcell import blob as B
from blobcell import cli
from blobcell import hecke as H

DIGESTS = {
    ("verify", 2, 2): "7c16a5590151fe047dc03b38d820b5fb37372f0683b3010f6f3f0b4955ff9880",
    ("basis", 2, 2): "2425981294d0294c8935dca386e9f1e42263839d9d2d592ea78c5540429d4c48",
    ("cell", 2, 2): "63a61ba17e837c98bbee23cc27246ef3e91e41c94cafcd25bdd83bf66b751b83",
    ("verify", 3, 2): "7f9ed8203105eed87e6d40bfbfebd457f6a1d1fcd11eb05954c355b84726d1bd",
    ("basis", 3, 2): "9a9dbe2ca457d2e685935673e699857ee629e615d344bab5306b7cc73f321d8b",
    ("cell", 3, 2): "ceef447d18e96ac4a67cceec68a8e96a388a296fe2c88a6c3f40fe3014f6ad19",
    ("verify", 2, 3): "53190d6cc0cf46efe7cd05b51eb50c9fc12067dcad0fff7c66a3f9258d55fea8",
    ("basis", 2, 3): "918495e4c0ea4aa7eae3c383b6c5bd2bc0953c4e72b38ba5200ba289c6655e39",
    ("cell", 2, 3): "7a96915cab6d96754ab2ef55cb436bc0869013cedd45c9695033672d95c19b97",
    ("verify", 3, 3): "7f3f64c089d16da5db848833f35613609f81ab2320d1dd127b33438a082212bf",
    ("basis", 3, 3): "30e22bcab3622bb2917084f888ae77cc7431929cd5eca766c6e37650e10446af",
    ("cell", 3, 3): "b40ba54ffed0b62d81b8943b0ef1732254601ae0b07f7eb7e340b2c5450de67f",
    ("verify --oracle off", 3, 2): "02a2c70e13430b3ff6b793a194e57b7166bfccbf6788172b5c4e291becb15e0d",
}

TRACE_DIGESTS = {
    1: "016a444b4f2347d0122766aae624a7b5c537d3bf2bd3c87073001ed19c465205",
    2: "d3b1141f8c58073c3281029a1885277eaef997ad1b5e0ecb6e04490f38594e39",
    3: "ba3896433dc2a98f232e58419f167fc157b70d40687cfd66fda5fa19f1d19785",
}

HELD_DIGESTS = {
    (2, 2): {
        "ideal_rows": "96aa67b516fb4a594f6c0fd6801bb3ad9bfc133657826251623dc6bee9d044cf",
        "quotient_map": "d6ac439524abae1ce79e092d3e1df5085ca5745ca9c848e0155d83375c94fef8",
        "C": "7286b6b3d72908ab3ed7c26582bc952a0a070c5b718de4a04f7deedda4fd2b5d",
        "Cinv": "6dbf8d8b25d0eff66e5a60467db5f04db7d8224eec91af9f5d5a49dfa5bcba6c",
        "E": "68b89a4f6a0c23bf7f5ed2db818c8305f25b7923318fbbee6b1ce8dbd28bf035",
        "Y": "6b51d431df5d7f141cbececcf79edf3dd861c3b4069f0b11661a3eefacbba918",
        "PSI": "33fd8fab8f3fcc88af2d839d2a17bd3e09c82635241f337e17a5011bec3700fa",
        "T": "cc67bb1378ea92d319dc8854cec063451e67b55d55831dc28e9fc099946a9810",
        "L": "88cf50d787cab1c97ea5d7f90b0a849ebb3d09b084c6d5d22161fdcfabf8af4b",
        "sigma": "507ffcc43f731354fbf3b84ae95dd9a404a032e88797ba2081fc587bfa33f5d2",
        "basis": "127067d3ff5a2f3ff67cbdfacf88859203943641e8658f81e4a17884b4e391ed",
        "gram": "8b1bcbac18c2b5f8b4bb846f86af5504cdd60a646f91ba1d05bebc23479acd1e",
        "inv": "7b47504e5d22e30e9b271d18ddb9ee5c301c63cb62e569e6045fdc9c4a3f0d52",
    },
    (3, 2): {
        "ideal_rows": "c6618efe2cd6bc649e2e486d3a75446eab079126e5544138c5c40fd7a1d3bb16",
        "quotient_map": "76110b979ac9f3bc78c792144f769a0628316f1ed769544d3fd6598bb9f19f91",
        "C": "3c99576e45f308e5151ca17ece15964b4d43144aa680844421781bc6ae1d21ae",
        "Cinv": "eaa92f45b7d0bfe02c669430d785a7bdd1395469002ff5d1641e27f35dcb29b7",
        "E": "201ed303d9abc269af69402637756ea697c4a84285e7ffb531e4996582d9f8ad",
        "Y": "9f3dc70f55a63c1ea2a8ac72cc4d8f0981035375a54f16be7c970ef56e1e8e84",
        "PSI": "0c5bbab0036840a957d45334ed7de2b953325567a26877dc0a659d51d4c4d13a",
        "T": "1c5fda16a88c8880a74edbf95b1ccb9aa16afc6bd58ffe36fe75b1fac73df7d0",
        "L": "50bde9c7819e8b0c8e2571f790ff53f47986d52864c0857c15442595cec46a12",
        "sigma": "85710d1d6043fe1f0555c36c6a452cc56a5ce8a2f3fea483c01d5b50b533ffae",
        "basis": "f14ec7f0e5db2c79a4800e3e9e6c61df752349db2e237c3965f3baa2888a06fc",
        "gram": "b38116e5e7363fadde3204e9b47415c6547ed121336a1db0dbbd0328ac0c7cf9",
        "inv": "c7d2723788441f11327b27af77bbc00240ceabc539435faa1337f80a58c93029",
    },
    (2, 3): {
        "ideal_rows": "80d4a97034066c7f118930691a06865a5edbdcd52f7c72133cd289fd05b57171",
        "quotient_map": "2a7e20416d06b810c46de4556cc7b79ebc8e7861ff59fe813bfc7d2bbc083a0e",
        "C": "df37e619e8131dd154a5eb96748f88df92eed6289b5cb8b386cb30116d1afb85",
        "Cinv": "2fe8146a16735bd560138dc761d945fd9da4753bcc4d67ae298af5791eaed757",
        "E": "1c0cf8db8eae8f9d7e13966c839cc7e871cf2ba43eb6f61cc0017c54af30e866",
        "Y": "6b51d431df5d7f141cbececcf79edf3dd861c3b4069f0b11661a3eefacbba918",
        "PSI": "dae57aaaaba1b4dfe712abb12ba2fd7557a094b0d9f2b8543ef8ecb8f412cc1d",
        "T": "f0792ac119910f8ec25960235981fd15d725e4f2f3dd90fe4ed7f44388e2af7b",
        "L": "dbf18d32aebde767ff222a6bc159bf3b95033f5f37b45f81a0a481e454cac5de",
        "sigma": "dfed42495afa604b2e44656e954fd61cd510c146cb7e72b39b1e7e49333bb1ca",
        "basis": "0e489e6c78f1a505922637e2dfac645882847ee9982ba145f59adec042740fef",
        "gram": "1e48c61007c99521090588620d11f6bbcdb429070ddf002382d085d3028cf7cb",
        "inv": "6a370aec4527263466565759bc059d7323c8f131ed11ed2b80f3f40f6fbcb484",
    },
    (3, 3): {
        "ideal_rows": "096b8201e9911905e9703c96afe9ebe54c93195b9cb6098d925c07e4dfed3149",
        "quotient_map": "f95d3222c65fed1ccd6f47b7c273793de13017a54893d4f80dba1c76bf9a66bc",
        "C": "c1bc573968afd1bbf20c0c4b526b94d95bbd9455cc811518491ace76cd9d7a1d",
        "Cinv": "0daf8223f35b6f1a97e9c9b9ec8dad0a23774402e679ca30bc046aa5fe54c480",
        "E": "a73d04b5bbf04cba74d7f1842314b8d72f51adb49c30aeba4254897ecb1ffcdb",
        "Y": "bf7970bc991b3289dbe4708eacaedfa3d8a4dd5ccb0826573318cb0ef64dcfb1",
        "PSI": "f621a04f2abda2614b55a89086e7cd83e4ef0bb8c267902b2b141ef8b1f68dd4",
        "T": "65409aaa300430eac2ee4cbe837c3e256e9fdb65e2870df6b8f45e2668fa101c",
        "L": "73aef0ec8000b95cf997aec88b8eec7adaf93ee20bc42f7ac4914c86e39e858a",
        "sigma": "c775b4c98e3448673521de9bd0c5c94ae97472b1bd09ef63ec82fb26e5feb187",
        "basis": "305f6afa0a5d811ff9517400e63ad6e47577aac5b3ce5e8103de7d551eb9de31",
        "gram": "6e6df7047726db9dd9ec98a31e94a3bc7666b69ec8d74c59e76c93594eff2d14",
        "inv": "5d8fac616774717019746c1b2a1e05b1ded1b5ecf79635b2cf53517063480557",
    },
}


# the generator images inside H itself: KLRImages(regular_rep(params))
H_DIGESTS = {
    (2, 2): {
        "C": "12c2b4ed70530f02c7292c729dee681e46fd1bc266cf5ed077da860ca5039376",
        "Cinv": "c34528727a318eea2f12e6491127e8c36d5292471f2abdd1b2eed65ba0882a85",
        "E": "84c9f877eea2304efdb18c03fa63bb7c5bc5a9582c619010cb90d086adfb71eb",
        "Y": "6b51d431df5d7f141cbececcf79edf3dd861c3b4069f0b11661a3eefacbba918",
        "PSI": "0e930754b0917a8e6bc02060b3600349b748330d10c69f6bf2f8d955fe819619",
        "T": "9446b4b14902f81645f228586c819a0d8f80e83629a64718b66f0c70608b3667",
        "L": "2b85835e856134740c9166e2b8ca424063c9ec46c76ddc8917569df5b731328e",
        "sigma": "c47698037e5c6f1a80998d4f95c368164e73d3bcf6b1f2c7d384e96dd3a21987",
    },
    (3, 2): {
        "C": "fd1af48fbdb6604b86dcc05c168d3aaccd57dbaf5495a2a5de47a5aae80723fd",
        "Cinv": "8e036b05b2db2a34267f0b997bad4b3b2d70eea3c56326fbd4220ee64d1a8f4a",
        "E": "5ffa50c703ec283a7089dfef245725b16ed7bca99a5147a47e3e7206e2f4532b",
        "Y": "0ddd441f8c4e6b329235ecf547ec2b5da67087d325fc88be01e9168188023de5",
        "PSI": "c4d28267c5fd7883d54d24b39e0aa190008bea52e37827212c838c96ce2188a1",
        "T": "4c17521e31019246ad9c37312e14a24422f2fd8d241b471dcd6584ac482dc8e3",
        "L": "bd49c045cc106d73697b9022d0337d4f6ce52e0a115fa67e4bef88492adc630b",
        "sigma": "b21c735bf8d70af3feefd77a664b4f74128c955248f9305612a722f2dc29d51e",
    },
    (2, 3): {
        "C": "84a33e2afb57346a378447eb0213c62e6dec851c3f1b44b4400bfd51ec3772cf",
        "Cinv": "5efc98a7cca124e788c3ba216c0940ed563ee77309ec494f38db6c4fdeccddf2",
        "E": "2384703845840e4061e7fad70fda09359239012284670c1d5b221e9ffe1acd65",
        "Y": "6b51d431df5d7f141cbececcf79edf3dd861c3b4069f0b11661a3eefacbba918",
        "PSI": "83815dfdfb80d5822c78b2151bba2f0518476e33338e873a5f0e0133d03b50db",
        "T": "a981e475714cbcd26b52cbd2a3c821dfe1a6bcf3e14a58f51012ed15d7fa60bd",
        "L": "978ea732b9cffe62aa18f729d95e4752af82eff1bf1f27d05f3aa49b9e947385",
        "sigma": "d38f46b886cbf1ae88bab5fff4c5e316dba06add337014f73d113b759c34aefa",
    },
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


@pytest.mark.parametrize("command,n,l", list(DIGESTS), ids=[
    f"{c.replace(' --', '-').replace(' ', '-')}-{n}{l}" for c, n, l in DIGESTS])
def test_report_digest(command, n, l, tmp_path):
    argv = [*command.split(), "--n", str(n), "--l", str(l)]
    assert report_digest(argv, tmp_path) == DIGESTS[command, n, l]


@pytest.mark.parametrize("k", list(TRACE_DIGESTS))
def test_trace_digest(k, tmp_path):
    argv = ["trace", "--n", "3", "--l", "2", "--k", str(k)]
    assert report_digest(argv, tmp_path) == TRACE_DIGESTS[k]


def matrix_digest(value) -> str:
    """SHA-256 of a matrix, a list of matrices or a dict of them (nested
    dicts of held blocks included): each matrix as its shape and its
    entries as little-endian int64, each dict in sorted key order with
    its keys."""
    h = hashlib.sha256()

    def feed(x):
        if isinstance(x, dict):
            for key in sorted(x):
                h.update(repr(key).encode())
                feed(x[key])
        elif isinstance(x, list):
            for item in x:
                feed(item)
        else:
            M = np.ascontiguousarray(x, dtype="<i8")
            h.update(repr(M.shape).encode())
            h.update(M.tobytes())

    feed(value)
    return h.hexdigest()


def image_matrices(images) -> dict:
    """{name: matrix or held form} of generator images: C, C^-1, the held
    E, Y, psi, T and L, and sigma's adapted form."""
    return {"C": images.C, "Cinv": images._Cinv,
            **{name: getattr(images, name)
               for name in ("E", "Y", "PSI", "T", "L")},
            "sigma": images._held_sigma()}


def held_matrices(n, l) -> dict:
    """{name: matrix or held form} of one certified pass at (n, l)."""
    A = B.build_blob(H.default_params(n, l))
    images = B.klr_images(A)
    basis = B.build_cellular_basis(A, images)
    return {"ideal_rows": A.ideal_rows, "quotient_map": A.quotient_map,
            **image_matrices(images), "basis": basis.matrix,
            "gram": [m.gram for m in B.cell_modules(A, basis)],
            "inv": basis._inv}


@pytest.mark.parametrize("n,l", list(HELD_DIGESTS),
                         ids=[f"{n}{l}" for n, l in HELD_DIGESTS])
def test_held_matrix_digests(n, l):
    digests = {name: matrix_digest(value)
               for name, value in held_matrices(n, l).items()}
    assert digests == HELD_DIGESTS[n, l]


@pytest.mark.parametrize("n,l", list(H_DIGESTS),
                         ids=[f"{n}{l}" for n, l in H_DIGESTS])
def test_h_carrier_digests(n, l):
    images = B.KLRImages(H.regular_rep(H.default_params(n, l)))
    digests = {name: matrix_digest(value)
               for name, value in image_matrices(images).items()}
    assert digests == H_DIGESTS[n, l]
