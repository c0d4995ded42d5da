"""Tests for the generalized blob algebra: quotient construction,
quiver-Hecke generator images and the defining relation suite, the graded
cellular basis, Jucys-Murphy triangularity, and cell modules."""

import numpy as np
import pytest

from blobcell import blob as B
from blobcell import combinatorics as C
from blobcell import hecke as H
from blobcell.exactfield import mat_pow, matmul, rref

SCALES = [(2, 2), (3, 2), (2, 3)]


@pytest.fixture(scope="module")
def built():
    """Quotient algebra, generator images, and cellular basis per scale."""
    out = {}
    for n, l in SCALES:
        params = H.default_params(n, l)
        A = B.build_blob(params)
        images = B.klr_images(A)
        basis = B.build_cellular_basis(A, images)
        out[(n, l)] = (params, A, images, basis)
    return out


@pytest.fixture(scope="module")
def built_full():
    """The same generator images inside the unquotiented algebra."""
    out = {}
    for n, l in SCALES:
        params = H.default_params(n, l)
        A = B.BlobAlgebra(params, quotient=False)
        out[(n, l)] = (params, A, B.KLRImages(A))
    return out


def stacked_closure(reg, seeds):
    """The reference closure: rref of the seeds' right ideals (the columns
    of their dense left-multiplication matrices), then of the whole basis
    restacked with its left multiples by T_i and L_1, until the rank stops
    growing."""
    p = reg.p
    R, piv = rref(np.vstack([reg.matrix_of(s).T for s in seeds]), p)
    R = R[:len(piv)]
    gens = [reg.T[i] for i in reg.T] + [reg.L[1]]
    while True:
        stacked = np.vstack([R] + [matmul((R, g.T), p) for g in gens])
        R2, piv2 = rref(stacked, p)
        R2 = R2[:len(piv2)]
        if len(piv2) == len(piv):
            return R2, piv2
        R, piv = R2, piv2


class TestIdealClosure:
    @pytest.mark.parametrize("n,l", SCALES + [(3, 3)])
    def test_matches_stacked_closure(self, n, l):
        params = H.default_params(n, l)
        reg = H.regular_rep(params)
        seeds = [H.embed_two_string(params, f)
                 for f in H.e2_idempotents(params)]
        rows, piv = B._ideal_closure(reg, seeds)
        ref_rows, ref_piv = stacked_closure(reg, seeds)
        assert piv == ref_piv
        assert rows.dtype == ref_rows.dtype and rows.shape == ref_rows.shape
        assert rows.tobytes() == ref_rows.tobytes()
        assert B.build_blob(params).ideal_rows.tobytes() == ref_rows.tobytes()


class TestQuotient:
    @pytest.mark.parametrize("n,l,dim", [(2, 2, 6), (3, 2, 20), (2, 3, 15),
                                         (3, 4, 256)])
    def test_dimension(self, built, n, l, dim):
        A = (built[(n, l)][1] if (n, l) in built
             else B.build_blob(H.default_params(n, l)))
        assert A.dim == dim
        assert A.dim == B.one_column_dimension(n, l)
        assert A.ideal_rank == A.reg.dim - dim

    def test_dimension_law_oracle(self, built):
        # independent oracle: sum of squared standard-tableau counts over
        # one-column shapes, via the hook-free recursive enumeration
        for n, l in SCALES:
            _, A, _, _ = built[(n, l)]
            expected = sum(len(C.std_tableaux(lam)) ** 2
                           for lam in C.one_column_shapes(n, l))
            assert A.dim == expected

    def test_quotient_map_shape(self, built):
        _, A, _, _ = built[(2, 2)]
        assert A.quotient_map.shape == (A.dim, A.reg.dim)
        # the map kills the ideal and is a left inverse of the lift
        assert not (A.quotient_map @ A.ideal_rows.T % A.p).any()
        assert np.array_equal(A.quotient_map[:, A._nonpiv], A.identity)

    def test_quotient_is_algebra_map(self, built):
        params, A, _, _ = built[(3, 2)]
        rng = np.random.default_rng(5)
        for _ in range(3):
            x = rng.integers(0, A.p, A.reg.dim)
            y = rng.integers(0, A.p, A.reg.dim)
            xy = B.left_mult_matrix(A.reg, x) @ y % A.p
            lhs = A.quotient_map @ xy % A.p
            rhs = A.lmat(A.quotient_map @ x % A.p) @ \
                (A.quotient_map @ y % A.p) % A.p
            assert np.array_equal(lhs, rhs)

    def test_left_mult_matrix_matches_dict_route(self):
        params = H.default_params(2, 2)
        reg = H.RegularRep(params)
        rng = np.random.default_rng(7)
        v = rng.integers(0, params.p, reg.dim)
        assert np.array_equal(B.left_mult_matrix(reg, v),
                              reg.matrix_of(v))


class TestRelationSuite:
    @pytest.mark.parametrize("n,l", SCALES)
    def test_full_suite_in_quotient(self, built, n, l):
        _, _, images, _ = built[(n, l)]
        assert images.relation_failures() == []

    @pytest.mark.parametrize("n,l", SCALES)
    def test_suite_before_quotient(self, built_full, n, l):
        # everything except the quotient-defining vanishing pattern
        # already holds inside the unquotiented algebra
        _, _, images = built_full[(n, l)]
        assert images.relation_failures(blob_defining=False) == []

    def test_vanishing_pattern_fails_before_quotient(self, built_full):
        # the distinguishing relation: before the quotient there are
        # nonzero idempotents whose second residue is one above the first
        _, _, images = built_full[(3, 2)]
        fails = images.relation_failures(blob_defining=True)
        assert fails
        assert all("second residue" in f.relation for f in fails)

    @pytest.mark.parametrize("n,l", SCALES)
    def test_eigenspace_projections(self, built, built_full, n, l):
        _, _, images, _ = built[(n, l)]
        assert images.eigenprojection_failures() == []
        assert built_full[(n, l)][2].eigenprojection_failures() == []

    @pytest.mark.parametrize("n,l", SCALES)
    def test_degree_table_homogeneous(self, built, n, l):
        _, _, images, _ = built[(n, l)]
        assert images.degree_violations() == []

    def test_realized_classes_are_one_column(self, built):
        params, _, images, _ = built[(3, 2)]
        expected = set()
        for lam in C.one_column_shapes(3, 2):
            for T in C.std_tableaux(lam):
                expected.add(C.residue_seq(T, params.mc))
        assert set(images.E) == expected

    def test_first_residue_support(self, built):
        # supports of e(i): first residue in the multicharge, second never
        # one above the first
        params, _, images, _ = built[(3, 2)]
        kap = {k % params.e for k in params.mc.kappa}
        for iseq in images.E:
            assert iseq[0] % params.e in kap
            assert iseq[1] % params.e != (iseq[0] + 1) % params.e

    def test_relation_failure_reported(self, built):
        _, A, _, _ = built[(2, 2)]
        broken = B.KLRImages(A)
        iseq = next(iter(broken.E))
        broken.E[iseq] = (broken.E[iseq] + 1) % A.p
        fails = broken.relation_failures()
        assert fails and isinstance(fails[0], B.RelationFailure)
        assert fails[0].witness is not None
        with pytest.raises(B.RelationFailure):
            raise fails[0]


def dense_relation_failures(images, blob_defining):
    """The relation suite on the dense matrices, one full product per
    factor: the reference that the block suite is compared against."""
    p, e, n = images.p, images.e, images.n
    I = images.algebra.identity
    zero = np.zeros_like(I)
    E, Y = images.E, images.Y
    kap = {k % e for k in images.params.mc.kappa}
    fails = []

    def check(name, lhs, rhs, witness):
        if not np.array_equal(matmul(lhs, p), matmul(rhs, p)):
            fails.append((name, witness))

    total = zero
    for iseq, Ei in E.items():
        total = (total + Ei) % p
        for jseq, Ej in E.items():
            check("e(i)e(j) = delta e(i)", (Ei, Ej),
                  (Ei if iseq == jseq else zero,), (iseq, jseq))
        if iseq[0] % e not in kap:
            fails.append(("e(i) = 0 for unsupported first residue", iseq))
        if blob_defining and n >= 2 and iseq[1] % e == (iseq[0] + 1) % e:
            fails.append(("e(i) = 0 for second residue one above the "
                          "first", iseq))
        check("y_1 e(i) = 0", (Y[1], Ei), (zero,), iseq)
    check("sum of e(i) = 1", (total,), (I,), "all")
    for k in Y:
        for m in Y:
            check("y_k y_m commute", (Y[k], Y[m]), (Y[m], Y[k]), (k, m))
        for iseq, Ei in E.items():
            check("y_k e(i) = e(i) y_k", (Y[k], Ei), (Ei, Y[k]), (k, iseq))
        check("y_k nilpotent", (mat_pow(Y[k], len(I) + 1, p),), (zero,), k)
    fails += [(f.relation, f.witness) for f in images._sigma_failures()]
    for r, P in images.PSI.items():
        for s, Ps in images.PSI.items():
            if abs(r - s) > 1:
                check("distant psi commute", (P, Ps), (Ps, P), (r, s))
        for k in Y:
            if k not in (r, r + 1):
                check("psi_r y_k commute", (P, Y[k]), (Y[k], P), (r, k))
        for iseq, Ei in E.items():
            ir, ir1 = iseq[r - 1], iseq[r]
            Ej = E.get(iseq[:r - 1] + (ir1, ir) + iseq[r + 1:], zero)
            check("psi_r e(i) = e(s_r i) psi_r", (P, Ei), (Ej, P, Ei),
                  (r, iseq))
            delta = I if ir == ir1 else zero
            YP = (matmul((Y[r], P), p) + delta) % p
            PY = (matmul((P, Y[r]), p) + delta) % p
            check("psi_r y_{r+1} e(i) = (y_r psi_r + delta) e(i)",
                  (P, Y[r + 1], Ei), (YP, Ei), (r, iseq))
            check("y_{r+1} psi_r e(i) = (psi_r y_r + delta) e(i)",
                  (Y[r + 1], P, Ei), (PY, Ei), (r, iseq))
            d = (ir1 - ir) % e
            rhs = ((zero,) if ir == ir1 else
                   ((Y[r + 1] - Y[r]) % p, Ei) if d == 1 else
                   ((Y[r] - Y[r + 1]) % p, Ei) if d == e - 1 else (Ei,))
            check("psi_r^2 e(i)", (P, P, Ei), rhs, (r, iseq))
    for r in range(1, n - 1):
        P, Pn = images.PSI[r], images.PSI[r + 1]
        lhs = (matmul((P, Pn, P), p) - matmul((Pn, P, Pn), p)) % p
        for iseq, Ei in E.items():
            a, b, c = iseq[r - 1], iseq[r], iseq[r + 1]
            rhs = (Ei if a == c and (b - a) % e == 1 else
                   (-Ei) % p if a == c and (b - a) % e == e - 1 else zero)
            check("braid correction", (lhs, Ei), (rhs,), (r, iseq))
    return fails


def _failures(images):
    return [(f.relation, f.witness) for f in images.relation_failures()]


def _tamper_in_block(images, name, key, row, col):
    """Add 1 at (row, col) of the adapted form of a generator image."""
    mats = getattr(images, name)
    Xt = images._adapt(mats[key])
    Xt[row, col] = (Xt[row, col] + 1) % images.p
    mats[key] = images._dense(Xt)


class TestAdaptedCoordinates:
    @pytest.mark.parametrize("n,l", SCALES)
    def test_block_suite_matches_dense_suite(self, built, built_full, n, l):
        _, _, images, _ = built[(n, l)]
        assert _failures(images) == dense_relation_failures(images, True)
        full = built_full[(n, l)][2]
        assert [(f.relation, f.witness) for f in full.relation_failures(
            blob_defining=True)] == dense_relation_failures(full, True)

    def test_generators_in_adapted_form(self, built):
        _, A, images, _ = built[(3, 2)]
        for iseq, Ei in images.E.items():
            P = np.zeros_like(A.identity)
            sl = images.blocks[iseq]
            P[sl, sl] = np.eye(sl.stop - sl.start, dtype=np.int64)
            assert np.array_equal(images._adapt(Ei), P)
            for k, Yk in images.Y.items():
                assert not images._leaves_block(images._adapt(Yk), iseq)

    def test_small_inversions_and_one_push_per_nonzero_class(
            self, built, monkeypatch):
        _, A, _, _ = built[(3, 2)]
        sizes, pushes = [], []
        invert, push = B.invert_matrix, B.BlobAlgebra.push

        def counted_invert(M, p):
            sizes.append(M.shape[0])
            return invert(M, p)

        def counted_push(self, el):
            pushes.append(el)
            return push(self, el)

        monkeypatch.setattr(B, "invert_matrix", counted_invert)
        monkeypatch.setattr(B.BlobAlgebra, "push", counted_push)
        images = B.KLRImages(A)
        largest = max(sl.stop - sl.start for sl in images.blocks.values())
        assert sizes.count(A.dim) == 1
        assert max(x for x in sizes if x != A.dim) <= largest < A.dim
        assert len(pushes) == len(images.E) < len(images.classes)

    @pytest.mark.parametrize("name,key,relation", [
        ("E", (0, 2, 4), "e(i) is the block projection"),
        ("Y", 2, "y_k e(i) = e(i) y_k"),
        ("PSI", 2, "psi_r e(i) = e(s_r i) psi_r")])
    def test_changed_entry_names_its_relation(self, built, name, key,
                                              relation):
        _, A, _, _ = built[(3, 2)]
        images = B.KLRImages(A)
        mats = getattr(images, name)
        mats[key] = mats[key].copy()
        mats[key][0, 0] = (mats[key][0, 0] + 1) % A.p
        fails = _failures(images)
        assert any(rel == relation and key in (w, w[0])
                   for rel, w in fails if isinstance(w, tuple))

    def test_change_inside_a_block_matches_dense_suite(self, built):
        _, A, _, _ = built[(3, 2)]
        for name, key in (("Y", 2), ("PSI", 1)):
            images = B.KLRImages(A)
            iseq = next(i for i in images.blocks
                        if C.swap_entries(i, 1) in images.blocks)
            target = iseq if name == "Y" else C.swap_entries(iseq, 1)
            row = images.blocks[target]
            _tamper_in_block(images, name, key, row.start,
                             images.blocks[iseq].start)
            fails = _failures(images)
            assert fails and fails == dense_relation_failures(images, True)


class TestJucysMurphy:
    @pytest.mark.parametrize("n,l", SCALES)
    def test_images_agree_and_commute(self, built, n, l):
        _, A, images, _ = built[(n, l)]
        jm = B.jm_images(A, images)
        for k in jm:
            assert np.array_equal(jm[k], A.L[k])

    def test_nilpotent_part(self, built):
        _, A, images, _ = built[(3, 2)]
        jm = B.jm_images(A, images)
        for iseq, Ei in images.E.items():
            for k in jm:
                N = (jm[k] - pow(A.q, iseq[k - 1], A.p)
                     * A.identity) @ Ei % A.p
                assert not mat_pow(N, A.dim + 1, A.p).any()

    def test_redundant_generator(self, built):
        # the second Jucys-Murphy element is recovered from the first:
        # q^{-1} T_1 L_1 T_1
        _, A, images, _ = built[(2, 2)]
        jm = B.jm_images(A, images)
        rebuilt = pow(A.q, -1, A.p) * (A.T[1] @ A.L[1] @ A.T[1]) % A.p
        assert np.array_equal(jm[2], rebuilt)

    @pytest.mark.parametrize("n,l", SCALES)
    def test_triangular_action(self, built, n, l):
        _, A, images, basis = built[(n, l)]
        jm = B.jm_images(A, images)
        assert B.check_jm(A, basis, jm) == []


class TestCellularBasis:
    @pytest.mark.parametrize("n,l", SCALES)
    def test_built_and_certified(self, built, n, l):
        _, A, _, basis = built[(n, l)]
        assert len(basis.index) == A.dim

    def test_basis_vector_count_small(self, built):
        _, A, _, basis = built[(2, 2)]
        assert basis.matrix.shape == (6, 6)

    def test_maximal_pair_is_idempotent(self, built):
        _, A, images, basis = built[(3, 2)]
        for lam in basis.shapes:
            tl = basis.t_lam[lam]
            assert np.array_equal(
                basis.vector(tl, tl),
                images.E[basis.i_lam[lam]] @ A.unit % A.p)

    @pytest.mark.parametrize("n,l", SCALES)
    def test_star_symmetry(self, built, n, l):
        _, A, images, basis = built[(n, l)]
        sig = images.sigma
        for _, S, T in basis.index:
            assert np.array_equal(sig @ basis.vector(S, T) % A.p,
                                  basis.vector(T, S))

    def test_identity_expansion(self, built):
        # the identity expands with coefficient 1 on every maximal pair and
        # only diagonal pairs otherwise, all with coefficient 1
        for n, l in SCALES:
            _, A, _, basis = built[(n, l)]
            c = basis.expand(A.unit)
            for lam in basis.shapes:
                tl = basis.t_lam[lam]
                assert c[basis.column[(tl, tl)]] == 1
            for idx in np.nonzero(c % A.p)[0]:
                _, S, T = basis.index[idx]
                assert S == T and c[idx] == 1
            assert np.array_equal(basis.matrix @ c % A.p, A.unit)

    def test_expansion_roundtrip(self, built):
        _, A, _, basis = built[(3, 2)]
        rng = np.random.default_rng(11)
        v = rng.integers(0, A.p, A.dim)
        assert np.array_equal(basis.matrix @ basis.expand(v) % A.p,
                              v % A.p)

    def test_rank_deficiency_aborts(self, built):
        # zeroed crossing images collapse the family; the constructor
        # must refuse to certify it
        _, A, images, _ = built[(2, 2)]
        broken = B.KLRImages(A)
        broken.PSI = {r: np.zeros_like(A.identity) for r in broken.PSI}
        with pytest.raises(ValueError, match="rank"):
            B.CellularBasis(A, broken)

    def test_degrees_match_tableau_degrees(self, built):
        params, _, _, basis = built[(3, 2)]
        for lam, S, T in basis.index:
            assert basis.degree(S, T) == \
                C.tableau_degree(S, params.mc) + \
                C.tableau_degree(T, params.mc)

    def test_degree_difference_independent_of_first_index(self, built):
        _, _, _, basis = built[(3, 2)]
        for lam in basis.shapes:
            tl = basis.t_lam[lam]
            for T in basis.std[lam]:
                diffs = {basis.degree(S, T) - basis.degree(S, tl)
                         for S in basis.std[lam]}
                assert len(diffs) == 1


class TestOfficialWords:
    def test_identity_word(self):
        assert B.official_word(C.perm_identity(3)) == ()

    def test_lengths_s4(self):
        for w in __import__("itertools").permutations(range(1, 5)):
            assert len(B.official_word(w)) == C.perm_length(w)

    def test_psi_of_identity(self, built):
        _, A, images, _ = built[(2, 2)]
        assert np.array_equal(images.psi_of(()), A.identity)

    def test_alternate_reduced_word_support(self, built):
        # replacing the official word of d(T) by another reduced word of
        # the same permutation perturbs m_{S,T} only by basis pairs that
        # are strictly higher (in shape, or in either tableau)
        params, A, images, basis = built[(3, 2)]
        w0, alt = (1, 2, 1), (2, 1, 2)
        theta = basis.theta
        # at this scale no realized residue sequence meets the braid
        # correction pattern, so the two products agree on the nose
        for iseq, Ei in images.E.items():
            a, b, c = iseq
            correction = a == c and (b - a) % params.e in (1, params.e - 1)
            assert not correction
            assert np.array_equal(images.psi_of(w0) @ Ei % A.p,
                                  images.psi_of(alt) @ Ei % A.p)
        for lam in basis.shapes:
            for T in basis.std[lam]:
                if basis.word[T] != w0:
                    continue
                for S in basis.std[lam]:
                    mv = images.psi_of(tuple(reversed(basis.word[S]))) @ \
                        images.E[basis.i_lam[lam]] @ images.psi_of(alt) @ \
                        A.unit % A.p
                    d = basis.expand((mv - basis.vector(S, T)) % A.p)
                    for idx in np.nonzero(d % A.p)[0]:
                        mu, U, V = basis.index[idx]
                        assert (mu in basis._above[lam] or
                                C.tableau_strictly_dominates(U, S, theta) or
                                C.tableau_strictly_dominates(V, T, theta))


class TestCellularity:
    @pytest.mark.parametrize("n,l", SCALES)
    def test_full_sweep(self, built, n, l):
        _, A, _, basis = built[(n, l)]
        assert B.check_cellularity(A, basis) == []

    def test_idempotent_acts_as_delta(self, built):
        _, A, images, basis = built[(3, 2)]
        for lam in basis.shapes:
            tl = basis.t_lam[lam]
            Ei = images.E[basis.i_lam[lam]]
            for T in basis.std[lam]:
                assert np.array_equal(Ei @ basis.vector(tl, T) % A.p,
                                      basis.vector(tl, T))

    def test_dot_on_maximal_pair_lands_higher(self, built):
        # a dot on the maximal pair is supported on strictly dominating
        # shapes only
        _, A, images, basis = built[(3, 2)]
        for lam in basis.shapes:
            tl = basis.t_lam[lam]
            for k in images.Y:
                c = basis.expand(images.Y[k] @ basis.vector(tl, tl) % A.p)
                for idx in np.nonzero(c % A.p)[0]:
                    mu, _, _ = basis.index[idx]
                    assert mu in basis._above[lam]


class TestCellModules:
    @pytest.mark.parametrize("n,l", SCALES)
    def test_dimension_identity(self, built, n, l):
        _, A, _, basis = built[(n, l)]
        mods = B.cell_modules(A, basis)
        assert sum(m.dim ** 2 for m in mods) == A.dim
        for m in mods:
            assert len(C.std_tableaux(m.shape)) == m.dim
            assert np.array_equal(m.gram, m.gram.T)
            assert 0 <= m.radical_dim <= m.dim

    def test_singleton_modules(self, built):
        _, A, _, basis = built[(2, 2)]
        mods = B.cell_modules(A, basis)
        for m in mods:
            if m.dim == 1:
                assert m.gram[0, 0] % A.p != 0

    def test_action_matrices_represent(self, built):
        # the action matrices from the cellularity coefficients compose
        # like the generators do on the cell module basis
        _, A, images, basis = built[(3, 2)]
        mods = B.cell_modules(A, basis)
        p = A.p
        for m in mods:
            lam = m.shape
            tl = basis.t_lam[lam]
            above = basis._above[lam]
            for name, G in B._named_generators(images):
                for j, S in enumerate(m.tableaux):
                    v = G @ basis.vector(S, tl) % p
                    c = basis.expand(v)
                    for i, U in enumerate(m.tableaux):
                        assert c[basis.column[(U, tl)]] % p == \
                            m.action[name][i, j] % p


class TestMaxShapeVanishing:
    @pytest.mark.parametrize("n,l", SCALES)
    def test_dots_kill_maximal_idempotent(self, built, n, l):
        params, A, images, _ = built[(n, l)]
        imax = C.i_lambda(C.mu_max(n, l), params.mc)
        E = images.E[imax]
        for k in images.Y:
            assert not (images.Y[k] @ E % A.p).any()
            assert not (E @ images.Y[k] % A.p).any()

    def test_concatenation_vanishing(self, built):
        # appending a residue to the maximal sequence of size 2 gives a
        # nonzero idempotent at size 3 exactly when the result is the
        # maximal sequence of some one-column shape
        params3, _, images3, _ = built[(3, 2)]
        params2, _, _, _ = built[(2, 2)]
        imax2 = C.i_lambda(C.mu_max(2, 2), params2.mc)
        lam_seqs = {C.i_lambda(lam, params3.mc)
                    for lam in C.one_column_shapes(3, 2)}
        for iota in range(params3.e):
            iseq = imax2 + (iota,)
            assert (iseq in images3.E) == (iseq in lam_seqs)
