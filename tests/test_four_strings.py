"""Four strings at level two: the first scale whose realized classes have
equal adjacent residues and a braid triple (a, a+1, a), so the first where
the sign of the same-residue crossing and the sign of the braid correction
are checked.  Triples (a, a-1, a) occur only before the quotient, so the
generator images of the unquotiented algebra are built too.  Each build
is made once for the module."""

import itertools

import pytest

from blobcell import blob as B
from blobcell import hecke as H
from blobcell import klrcalc as K
from blobcell.exactfield import block_equal
from conftest import weight_split_misses


@pytest.fixture(scope="module")
def built():
    params = H.default_params(4, 2)
    A = B.build_blob(params)
    images = B.KLRImages(A)
    basis = B.build_cellular_basis(A, images)
    return params, A, images, basis


@pytest.fixture(scope="module")
def full():
    """The generator images inside the unquotiented algebra."""
    return B.KLRImages(H.regular_rep(H.default_params(4, 2)))


def _triples(images, sign):
    """(i, r) with (i_r, i_{r+1}, i_{r+2}) = (a, a + sign, a)."""
    e = images.e
    return [(iseq, r) for iseq in images.E for r in range(1, images.n - 1)
            if iseq[r - 1] == iseq[r + 1]
            and (iseq[r] - iseq[r - 1]) % e == sign % e]


def test_sign_sensitive_classes_are_realized(built, full):
    _, _, images, _ = built
    assert any(iseq[r] == iseq[r + 1] for iseq in images.E
               for r in range(images.n - 1))
    assert _triples(images, 1) and not _triples(images, -1)
    assert _triples(full, -1)


def test_kept_classes_are_the_nonzero_ones(built, nonzero_classes):
    params, A, images, _ = built
    assert set(images.E) == nonzero_classes(A)
    assert len(images.E) == 13 < len(H.class_partition(params)) == 46


def test_sigma_is_the_family_swap(built, family_swap):
    _, A, images, _ = built
    assert images.sigma.tobytes() == family_swap(A, images).tobytes()


def test_relations(built):
    _, A, images, _ = built
    assert images.relation_failures() == []
    assert weight_split_misses(A, images) == []
    assert images.degree_violations() == []


def test_cellularity(built):
    _, A, _, basis = built
    assert B.check_cellularity(A, basis) == []


def test_jucys_murphy(built):
    _, A, images, basis = built
    assert B.check_jm(A, basis, B.jm_images(A, images)) == []


def test_cell_modules(built):
    _, A, _, basis = built
    modules = B.cell_modules(A, basis)
    assert sum(m.dim ** 2 for m in modules) == A.dim
    assert [m.gram_rank for m in modules] == [1, 4, 5, 3, 1]


def test_braid_and_dot_crossing_rewrites_sound(built):
    """Every application of the braid and dot-crossing rules to a word of
    two or three crossings and dots above a realized class keeps its
    matrix; the corrections of both rules are reached."""
    params, _, images, _ = built
    n, p = params.n, params.p
    pool = [("psi", r) for r in range(1, n)] + \
        [("y", k) for k in range(1, n + 1)]
    corrected = {"braid": 0, "dot-crossing": 0}
    for iseq in images.E:
        for m in (2, 3):
            for tokens in itertools.product(pool, repeat=m):
                w = K.DiagramWord(1, tokens, iseq)
                before = None
                for rule in corrected:
                    for pos in range(m):
                        try:
                            out = K.local_rewrite(w, rule, pos, params.mc)
                        except K.PatternMismatch:
                            continue
                        if before is None:
                            before = w.evaluate(images)
                        after = K.evaluate_sum(out, images)
                        assert block_equal(before, after, p), \
                            (iseq, tokens, rule, pos)
                        if any(len(x.tokens) < m for x in out):
                            corrected[rule] += 1
    assert corrected["braid"] > 0 and corrected["dot-crossing"] > 0


def test_triple_resolution_sound(full):
    """The straightener's resolution of a traveling residue at (X, X-1, X)
    expands e(i) into words whose matrices add up to e(i)."""
    for iseq, r in _triples(full, -1):
        eng = K._Straightener(full.params.mc)
        eng.ibot = iseq
        start = K._State(1, (), iseq, r + 2, False, ())
        words = [eng.word_of(st) for st in eng._triple(start, r)]
        assert block_equal(K.evaluate_sum(words, full), full.E[iseq],
                           full.p), (iseq, r)
