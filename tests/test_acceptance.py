"""Acceptance gate: one test per headline claim, all exact arithmetic
(zero tolerance).  Run with ``pytest -v`` for one pass/fail line per
criterion."""

import itertools
import math
import random

import numpy as np
import pytest

from blobcell import blob as B
from blobcell import combinatorics as C
from blobcell import exactfield as xf
from blobcell import hecke as H
from blobcell import klrcalc as K
from conftest import dense_generators, eigenvalue_system_seeds

SCALES = [(2, 2), (3, 2), (2, 3)]
MC22 = C.Multicharge((0, 22, 44, 67), 10)


@pytest.fixture(scope="module")
def built():
    out = {}
    for n, l in SCALES:
        params = H.default_params(n, l)
        A = B.build_blob(params)
        images = B.klr_images(A)
        basis = B.build_cellular_basis(A, images)
        out[(n, l)] = (params, A, images, basis)
    return out


def test_criterion_01_dimension_law():
    """dim B(n,l) = l^n n! - rank(ideal) = sum of squared standard-tableau
    counts, at five scales.  (At (2,3) the cyclotomic algebra has
    dimension 18 and the quotient 15.)"""
    expected = {(2, 2): 6, (3, 2): 20, (4, 2): 70, (2, 3): 15, (3, 3): 93}
    for (n, l), dim in expected.items():
        A = B.build_blob(H.default_params(n, l))
        assert A.dim == dim
        assert A.dim == l ** n * math.factorial(n) - A.ideal_rank
        assert A.dim == sum(len(C.std_tableaux(lam)) ** 2
                            for lam in C.one_column_shapes(n, l))
    assert H.generic_normal_form(H.default_params(2, 3)).dim == 18


def test_criterion_02_relation_suites(built):
    """Every defining relation holds exactly: both cyclotomic models, the
    quiver-Hecke images in the quotient, and the same suite minus the
    vanishing pattern before the quotient."""
    for n, l in SCALES:
        params, _, images, _ = built[(n, l)]
        assert H.RegularRep(params).relation_failures() == []
        assert H.SeminormalModel(params).relation_failures() == []
        assert images.relation_failures() == []
        full = B.KLRImages(H.regular_rep(params))
        assert full.relation_failures() == []


def test_criterion_03_murphy_idempotents():
    """The product-formula elements are seminormal matrix units; the
    class sums form an exact partition of unity generically."""
    for n, l in SCALES:
        params = H.default_params(n, l)
        sm = H.SeminormalModel(params)
        for S in H.standard_tableaux_all(n, l):
            assert sm.murphy_is_matrix_unit(S)
        nf = H.generic_normal_form(params)
        total: dict = {}
        for vec in H.murphy_engine(params).class_vectors().values():
            for bk, v in vec.items():
                if isinstance(v, xf.Poly):
                    v = xf.RatFunc.of_poly(v)
                total[bk] = v if bk not in total else total[bk] + v
        one = xf.RatFunc.const(params.p, 1)
        for bk, v in total.items():
            want = one if bk == nf.identity_key \
                else xf.RatFunc.const(params.p, 0)
            assert (v - want).is_zero()
    # orthogonality of the individual generic idempotents, smallest scale
    params = H.default_params(2, 2)
    nf = H.generic_normal_form(params)
    vecs = H.murphy_engine(params).murphy_vectors()
    tabs = list(vecs)
    for S in tabs:
        for T in tabs:
            prod = nf.multiply(vecs[S], vecs[T])
            assert nf.equal(prod, vecs[S] if S == T else {})


def test_criterion_04_integrality_of_class_idempotents():
    """Every class idempotent, written in cyclotomic coordinates over the
    generic field, specializes at the root of unity without a pole."""
    for n, l in [(2, 2), (3, 2), (2, 3), (3, 3), (4, 2)]:
        params = H.default_params(n, l)
        for vec in H.murphy_engine(params).class_vectors().values():
            H.specialize_vector(vec, params)   # raises on any pole


def test_criterion_05_cellular_basis(built):
    """The homogeneous pairs form a basis (full rank), are star-symmetric,
    and satisfy the cellularity coefficient condition with zero
    violations at (3,2)."""
    for n, l in SCALES:
        params, A, images, basis = built[(n, l)]
        assert xf.rank(basis.matrix, A.p) == A.dim
        for _, S, T in basis.index:
            assert np.array_equal(images.sigma @ basis.vector(S, T) % A.p,
                                  basis.vector(T, S))
    _, A, _, basis = built[(3, 2)]
    assert B.check_cellularity(A, basis) == []


def test_criterion_06_jucys_murphy(built):
    """The commuting family equals the quotient image of the cyclotomic
    Jucys-Murphy elements and acts triangularly with the predicted
    eigenvalue q^{res} on the diagonal, at (3,2)."""
    _, A, images, basis = built[(3, 2)]
    jm = B.jm_images(A, images)
    for k in jm:
        assert np.array_equal(images.dense(jm[k]), A.L[k])
    assert B.check_jm(A, basis, jm) == []


def test_criterion_07_gradedness(built):
    """Every generator acts homogeneously with its table degree, and
    deg m_{S,T} - deg m_{S,T^lam} does not depend on S."""
    for n, l in SCALES:
        _, A, _, basis = built[(n, l)]
        assert not [line for line in B.check_cellularity(A, basis)
                    if "has a component of degree" in line]
        for lam in basis.shapes:
            tl = basis.t_lam[lam]
            for T in basis.std[lam]:
                diffs = {basis.degree(S, T) - basis.degree(S, tl)
                         for S in basis.std[lam]}
                assert len(diffs) == 1


def test_criterion_08_combinatorial_theorems():
    """Brute-force verification of the order-theoretic results: the
    Bruhat/row-comparison equivalence, the counting criterion for
    dominance, the Garnir characterization, and the displayed posets."""
    rnd = random.Random(11)
    thetas = [C.theta_zero(2), C.theta_sep(2, 4),
              (rnd.randint(-5, 5), rnd.randint(-5, 5)),
              (rnd.randint(-5, 5), rnd.randint(-5, 5))]
    for lam in C.one_column_shapes(4, 2):
        tabs = C.all_tableaux(lam)
        for th in thetas:
            for s in tabs:
                for t in tabs:
                    assert C.ehresmann_agree(s, t, th)
    for n in range(0, 6):
        for lam in C.one_column_shapes(n, 2):
            for mu in C.one_column_shapes(n, 2):
                assert C.dominates(mu, lam, thetas[0]) == \
                    C.exists_dominating_bijection(lam, mu, thetas[0])
    for n in range(2, 7):
        for lam in C.one_column_shapes(n, 2):
            for t in C.all_tableaux(lam):
                assert C.is_garnir(t) == C.is_garnir_characterized(t)

    def cols(*h):
        return C.one_column_shape(h)

    chain = [cols(0, 3), cols(3, 0), cols(1, 2), cols(2, 1)]
    for lo, hi in zip(chain, chain[1:]):
        assert C.strictly_dominates(hi, lo, C.theta_zero(2))
    th3 = C.theta_zero(3)
    A_ = cols(1, 1, 1); B_ = cols(2, 1, 0); C_ = cols(1, 2, 0)
    D_ = cols(2, 0, 1); E_ = cols(1, 0, 2); F_ = cols(0, 2, 1)
    G_ = cols(3, 0, 0); H_ = cols(0, 1, 2); I_ = cols(0, 3, 0)
    J_ = cols(0, 0, 3)
    expected = {(A_, B_), (B_, C_), (B_, D_), (C_, E_), (C_, F_),
                (D_, E_), (D_, F_), (E_, G_), (E_, H_), (F_, H_),
                (G_, I_), (H_, I_), (I_, J_)}
    shapes = C.one_column_shapes(3, 3)
    assert len(shapes) == 10
    assert C.hasse_edges(shapes, th3) == expected


def test_criterion_09_rewrite_soundness(built):
    """Local rules and both straightening procedures are invariant under
    the matrix oracle, exhaustively on short words and on randomized
    words; the maximal-shape dots straighten to zero at every scale, and
    the 22-string walkthrough reproduces symbolically."""
    params, A, images, basis = built[(3, 2)]
    mc, p = params.mc, params.p
    pool = [("psi", 1), ("psi", 2), ("y", 1), ("y", 2), ("y", 3)]
    applied = 0
    for iseq in images.E:
        pool_e = pool + [("e", iseq)]
        for m in range(1, 4):
            for tokens in itertools.product(pool_e, repeat=m):
                try:
                    w = K.DiagramWord(1, tokens, iseq)
                except ValueError:
                    continue
                before = w.evaluate(images)
                for rule in K.RULES:
                    for pos in range(len(tokens) + 1):
                        try:
                            out = K.local_rewrite(w, rule, pos, mc)
                        except K.PatternMismatch:
                            continue
                        after = K.evaluate_sum(out, images)
                        assert xf.block_equal(before, after, p)
                        applied += 1
    assert applied >= 1000
    rng = np.random.default_rng(3)
    checked = 0
    classes = list(images.E)
    while checked < 1000:
        iseq = classes[rng.integers(0, len(classes))]
        toks = tuple(pool[j] for j in rng.integers(0, len(pool),
                                                   size=rng.integers(1, 6)))
        try:
            w = K.DiagramWord(1, toks, iseq)
        except ValueError:
            continue
        before = w.evaluate(images)
        rule = K.RULES[rng.integers(0, len(K.RULES))]
        pos = int(rng.integers(0, len(toks) + 1))
        try:
            out = K.local_rewrite(w, rule, pos, mc)
        except K.PatternMismatch:
            continue
        assert xf.block_equal(before, K.evaluate_sum(out, images), p)
        checked += 1
    for n, l in SCALES:
        params2, A2, images2, _ = built[(n, l)]
        gens = dense_generators(images2)
        mumax = C.mu_max(n, l)
        ilam = C.i_lambda(mumax, params2.mc)
        for k in range(1, n + 1):
            res = K.straighten_dot(k, mumax, params2.mc)
            assert res.zero
            assert not (gens.Y[k] @ gens.E[ilam] % params2.p).any()
            assert K.straighten_dot(k, mumax, params2.mc,
                                    symbolic=True).zero
    # Garnir straightening against the certified basis at (3,2)
    params, A, images, basis = built[(3, 2)]
    for shape in C.one_column_shapes(3, 2):
        S = C.std_tableaux(shape)[0]
        for datum in C.garnir_enumerate(shape):
            K.straighten_garnir(S, datum.tableau, params.mc, basis=basis)
    # the 22-string walkthrough: fifth dot, symbolic, ends in zero
    res = K.straighten_dot(5, C.mu_max(22, 4), MC22, symbolic=True)
    assert res.zero
    rules = {s.rule for s in res.trace.steps}
    assert "dot-jump" in rules and "concatenation-reduction" in rules


def test_criterion_10_two_string_idempotents(built):
    """The two-string idempotents agree exactly with the normalised
    solutions of their eigenvalue systems, and the class-idempotent
    support in the quotient is exactly the standard-tableau classes."""
    for l in (2, 3):
        params = H.default_params(2, l)
        reg = H.regular_rep(params)
        seeds = H.e2_idempotents(params)
        assert len(seeds) == l
        for seed, vectors in zip(seeds, eigenvalue_system_seeds(params)):
            assert len(vectors) == 1
            assert np.array_equal(vectors[0], reg.coefficients(seed))
    for n, l in SCALES:
        params, _, images, _ = built[(n, l)]
        std_classes = {C.residue_seq(T, params.mc)
                       for lam in C.one_column_shapes(n, l)
                       for T in C.std_tableaux(lam)}
        assert set(images.E) == std_classes
        for iseq in images.E:
            assert iseq[0] % params.e in set(params.kappa)
            if n >= 2:
                assert iseq[1] % params.e != (iseq[0] + 1) % params.e
