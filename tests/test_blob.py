"""Tests for the generalized blob algebra: quotient construction,
quiver-Hecke generator images and the defining relation suite, the graded
cellular basis, Jucys-Murphy triangularity, and cell modules."""

import ast
import copy
import functools
import json
import os

import numpy as np
import pytest

from blobcell import blob as B
from blobcell import cli
from blobcell import combinatorics as C
from blobcell import hecke as H
from blobcell.exactfield import (block_equal, block_split, invert_matrix,
                                 mat_pow, matmul, rank, rref)
from conftest import (changed_inverse, conjugated_carrier, dense_generators,
                      held_inverse, mixed_split, product_shapes,
                      star_conjugates, swapped_columns, weight_split_misses)

SCALES = [(2, 2), (3, 2), (2, 3)]


def tampered(images, **held):
    """A copy of ``images`` with the named held operators replaced.  Its
    sigma is rebuilt from the changed operators on each call, unless
    ``_held_sigma`` is named."""
    out = copy.copy(images)
    for name, value in held.items():
        setattr(out, name, value)
    return out


def moved_basis(basis, **held):
    """A copy of ``basis`` with the named attributes replaced, which
    writes its generators on the basis afresh: the ``generators`` table
    of ``basis`` is not carried over."""
    out = copy.copy(basis)
    out.__dict__.pop("generators", None)
    for name, value in held.items():
        setattr(out, name, value)
    return out


def as_quotient(images):
    """A copy of ``images`` whose carrier is a copy that claims to be the
    quotient, so that the relation suite checks the vanishing pattern."""
    carrier = copy.copy(images.algebra)
    carrier.is_quotient = True
    return tampered(images, algebra=carrier)


def adapted(images, X):
    """C^-1 X C, the adapted form of a dense matrix X, as a dense matrix:
    the form ``images._held_sigma()`` returns."""
    return matmul((images._Cinv, X, images.C), images.p)


def held(images, X):
    """The held form of a dense matrix X: the nonzero blocks of C^-1 X C,
    cut out one by one."""
    Xt, blocks = adapted(images, X), images.blocks
    return {(j, i): Xt[sj, si] for j, sj in blocks.items()
            for i, si in blocks.items() if Xt[sj, si].any()}


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
        A = H.regular_rep(params)
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

    @pytest.mark.parametrize("n,l", SCALES + [(3, 3), (4, 2)])
    def test_ideal_is_stable(self, n, l):
        # the reference for the closure's induction: the quotient map
        # kills the ideal's rows moved by the star, L_1 and every T_i
        A = B.build_blob(H.default_params(n, l))
        reg, rows = A.reg, A.ideal_rows
        assert len(rows)
        for M in (reg.star_mat, reg.L[1], *reg.T.values()):
            assert not matmul((A.quotient_map, M, rows.T), A.p).any()

    @pytest.mark.parametrize("n,l", [(3, 3), (4, 2)])
    def test_build_forms_no_stability_product(self, n, l, monkeypatch):
        # no D x D x rank product moves the ideal's rows once it is closed
        params = H.default_params(n, l)
        D = H.regular_rep(params).dim
        shapes = product_shapes(monkeypatch)
        A = B.build_blob(params)
        assert A.ideal_rank and shapes.count((D, D, A.ideal_rank)) == 0


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
        assert np.array_equal(A.quotient_map[:, A._nonpiv],
                              np.eye(A.dim, dtype=np.int64))

    def test_quotient_is_algebra_map(self, built):
        params, A, _, _ = built[(3, 2)]
        rng = np.random.default_rng(5)
        for _ in range(3):
            x = rng.integers(0, A.p, A.reg.dim)
            y = rng.integers(0, A.p, A.reg.dim)
            xy = A.reg.product(x, y)
            lhs = A.quotient_map @ xy % A.p
            rhs = A.push(x) @ (A.quotient_map @ y % A.p) % A.p
            assert np.array_equal(lhs, rhs)

    def test_left_mult_matrix_matches_dict_route(self):
        # H's walk with right multiplication by each generator g, the star
        # conjugate S g S, from u = v gives the columns v b
        params = H.default_params(2, 2)
        reg = H.regular_rep(params)
        rng = np.random.default_rng(7)
        v = rng.integers(0, params.p, reg.dim)
        p, S = reg.p, reg.star_mat
        right = {kind: {i: matmul((S, X, S), p) for i, X in ops.items()}
                 for kind, ops in (("T", reg.T), ("L", reg.L))}
        assert np.array_equal(reg.times_basis(right, v), reg.matrix_of(v))

    @pytest.mark.parametrize("n,l", SCALES)
    def test_right_mult_matches_lifted_star_conjugates(self, built, n, l):
        # the quotient's star conjugates against those formed at dim H
        _, A, _, _ = built[(n, l)]
        reg, p, S = A.reg, A.p, A.reg.star_mat
        right = star_conjugates(A)
        for i in reg.T:
            assert np.array_equal(right.RT[i],
                                  A._q(matmul((S, reg.T[i], S), p)))
        for k in reg.L:
            assert np.array_equal(right.RL[k],
                                  A._q(matmul((S, reg.L[k], S), p)))

    def test_closure_rejects_seed_the_star_moves(self):
        reg = H.regular_rep(H.default_params(2, 2))
        seed = {((1, 0), (2, 1)): 1}   # L_1 T_1, whose star is T_1 L_1
        with pytest.raises(ValueError, match="seed 0"):
            B._ideal_closure(reg, [seed])


class TestStatedCarrier:
    """The generator images and the cellular layer read only the carrier
    names that :class:`B.KLRImages` lists, so B in another basis gives
    the same cellular structure."""

    @pytest.mark.parametrize("n,l", SCALES + [(3, 3)])
    def test_every_suite_on_a_conjugated_carrier(self, n, l):
        params = H.default_params(n, l)
        A = B.build_blob(params)
        rng = np.random.default_rng(n + 10 * l)
        P = rng.integers(0, A.p, (A.dim, A.dim))
        while rank(P, A.p) < A.dim:
            P = rng.integers(0, A.p, (A.dim, A.dim))
        seen = []
        for X in (A, conjugated_carrier(A, P)):
            images = B.klr_images(X)
            basis = B.build_cellular_basis(X, images)
            assert B.check_cellularity(X, basis) == []
            assert B.check_jm(X, basis, B.jm_images(X, images)) == []
            assert cli._suite_rewrite(params, lambda: (X, images, []),
                                      True) == []
            seen.append((images.C, {
                name: M.tobytes() for name, M in basis.generators.items()},
                [(m.dim, m.gram_rank, m.gram.tobytes())
                 for m in B.cell_modules(X, basis)]))
        (C, coords, cells), (C_P, coords_P, cells_P) = seen
        assert not np.array_equal(C, C_P)
        assert coords == coords_P and cells == cells_P


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
        assert images.relation_failures() == []

    def test_vanishing_pattern_fails_before_quotient(self, built_full):
        # the distinguishing relation: before the quotient there are
        # nonzero idempotents whose second residue is one above the first
        _, _, images = built_full[(3, 2)]
        fails = as_quotient(images).relation_failures()
        assert fails
        assert all("second residue" in f.relation for f in fails)

    @pytest.mark.parametrize("n,l", SCALES)
    def test_eigenspace_projections(self, built, built_full, n, l):
        for A, images in (built[(n, l)][1:3], built_full[(n, l)][1:]):
            assert weight_split_misses(A, images) == []

    @pytest.mark.parametrize("n,l", SCALES)
    def test_relabelled_split_fails_the_suite(self, built, monkeypatch, n, l):
        # two weight spaces of one size with their labels swapped: the L_k
        # stay block-diagonal, so only the eigenvalues tell them apart, and
        # "y_k nilpotent" fails, unless a block that psi_r inverts is
        # singular first, which is reported at one of the swapped labels
        _, A, images, _ = built[(n, l)]
        width = {i: sl.stop - sl.start for i, sl in images.blocks.items()}
        pairs = [(i, j) for i in width for j in width
                 if i < j and width[i] == width[j]]
        assert pairs
        for i, j in pairs:
            swap = {i: j, j: i}
            blocks = {swap.get(k, k): sl for k, sl in images.blocks.items()}
            monkeypatch.setattr(B, "weight_spaces",
                                lambda L, params: (images.C, blocks))
            try:
                fails = B.KLRImages(A).relation_failures()
            except B.RelationFailure as ex:
                assert ex.relation == "psi_r e(i) defined", (i, j)
                assert ex.witness[0] in images.PSI, (i, j)
                assert ex.witness[1] in (i, j), (i, j)
                continue
            assert "y_k nilpotent" in {f.relation for f in fails}, (i, j)

    @pytest.mark.parametrize("n,l", SCALES)
    def test_mixed_split_is_rejected(self, built, monkeypatch, n, l):
        # a column mixed across two weight spaces leaves the first of
        # them no longer stable under the L_k
        _, A, images, _ = built[(n, l)]
        monkeypatch.setattr(B, "weight_spaces", lambda L, params: mixed_split(
            images.C, images.blocks, params.p))
        with pytest.raises(B.RelationFailure) as err:
            B.KLRImages(A)
        assert err.value.relation == "y_k e(i) = e(i) y_k"

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
        images = B.KLRImages(A)
        iseq = next(iter(images.E))
        broken = tampered(images, E={**images.E, iseq: held(
            images, (images.dense(images.E[iseq]) + 1) % A.p)})
        fails = broken.relation_failures()
        assert fails and isinstance(fails[0], B.RelationFailure)
        assert fails[0].witness is not None
        with pytest.raises(B.RelationFailure):
            raise fails[0]


STAR_RELATIONS = {"star is an involution", "star fixes the generators",
                  "star reverses products"}


def _sigma_report(images, sigma) -> list[tuple]:
    """The certificate's failures for ``sigma`` put in place of the
    anti-involution of a copy of ``images``."""
    S = adapted(images, sigma)
    changed = tampered(images, _held_sigma=lambda: S)
    return [(f.relation, f.witness) for f in changed._sigma_failures()]


@pytest.fixture
def bases_made(monkeypatch):
    """A list that gains an entry for every CellularBasis built."""
    made = []
    init = B.CellularBasis.__init__
    monkeypatch.setattr(B.CellularBasis, "__init__",
                        lambda self, *a: made.append(1) or init(self, *a))
    return made


class TestAntiInvolution:
    """sigma from one walk of the basis tree, in B and in H, and the exact
    certificate that reverses products generator by generator."""

    @pytest.mark.parametrize("n,l", SCALES)
    def test_sigma_is_the_family_swap(self, built, family_swap, n, l):
        _, A, images, _ = built[(n, l)]
        assert images.sigma.tobytes() == family_swap(A, images).tobytes()

    @pytest.mark.parametrize("n,l", [(3, 2), (3, 3)])
    def test_quotient_sigma_builds_no_family(self, bases_made, n, l):
        A = B.build_blob(H.default_params(n, l))
        images = B.KLRImages(A)
        assert images.relation_failures() == []
        assert bases_made == []

    @pytest.mark.parametrize("n,l", [(2, 2), (3, 3)])
    def test_unquotiented_sigma_is_certified(self, built_full, n, l):
        # the same closed form and walk serve H itself
        images = (built_full[(n, l)][2] if (n, l) in built_full else
                  B.KLRImages(H.regular_rep(H.default_params(n, l))))
        assert images._sigma_failures() == []
        assert images.relation_failures() == []

    def test_zeroed_crossings_fail_by_name(self, built):
        # sigma(T_r) is read off the held crossings: zeroed ones give a
        # sigma that the certificate rejects by name, and nothing raises;
        # the failing pair {T_1, L_1} is tested once, named by T_1
        _, A, images, _ = built[(2, 2)]
        broken = tampered(images, PSI={r: {} for r in images.PSI})
        assert [(f.relation, f.witness) for f in broken._sigma_failures()] \
            == [("star is an involution", "sigma"),
                ("star reverses products", "T_1")]

    def test_certificate_and_jm_push_nothing(self, monkeypatch):
        # sigma is certified, and the JM elements checked on both sides,
        # from held left multiplications
        A = B.build_blob(H.default_params(3, 2))
        images = B.KLRImages(A)

        def unexpected(self, el):
            raise AssertionError("push called")
        monkeypatch.setattr(B.BlobAlgebra, "push", unexpected)
        assert images.relation_failures() == []
        jm = B.jm_images(A, images)
        assert B.check_jm(A, B.build_cellular_basis(A, images), jm) == []

    def test_images_form_nothing_after_the_constructor(self):
        # sigma is formed on each call and kept nowhere: the certified
        # pipeline leaves every attribute of the images as it was
        A = B.build_blob(H.default_params(3, 2))
        images = B.KLRImages(A)
        before = dict(vars(images))
        assert images.relation_failures() == []
        basis = B.build_cellular_basis(A, images)
        assert B.check_jm(A, basis, B.jm_images(A, images)) == []
        B.cell_modules(A, basis)
        assert vars(images).keys() == before.keys()
        assert all(getattr(images, name) is value
                   for name, value in before.items())

    def test_one_basis_per_call(self, bases_made):
        A = B.build_blob(H.default_params(2, 2))
        images = B.KLRImages(A)
        assert images.relation_failures() == []
        first = B.build_cellular_basis(A, images)
        assert len(bases_made) == 1
        assert B.build_cellular_basis(A, images) is not first
        assert B.build_cellular_basis(A, images, (0, 1)) is not first
        assert len(bases_made) == 3

    @pytest.mark.parametrize("n,l", SCALES)
    def test_hecke_star_does_not_fix_the_crossings(self, built, n, l):
        # the star of H reverses products and fixes e(i) and y_k, but not
        # psi_r: only the generator check fails, at every crossing
        _, A, images, _ = built[(n, l)]
        assert _sigma_report(images, star_conjugates(A).star) == [
            ("star fixes the generators", f"psi_{r}") for r in images.PSI]

    @pytest.mark.parametrize("n,l", SCALES)
    def test_swapped_columns_break_the_certificate(self, built, n, l):
        # the certificate refuses it, naming every generator
        _, A, images, _ = built[(n, l)]
        S = images.sigma.copy()
        S[:, [0, 1]] = S[:, [1, 0]]
        got = _sigma_report(images, S)
        assert {rel for rel, _ in got} <= STAR_RELATIONS
        assert ("star is an involution", "sigma") in got
        gens = [f"T_{i}" for i in A.T] + ["L_1"]
        assert [w for rel, w in got if rel == "star reverses products"] \
            == ["1"] + gens


def dense_relation_failures(images, blob_defining):
    """The relation suite on the dense matrices, one full product per
    factor: the reference that the block suite is compared against."""
    p, e, n = images.p, images.e, images.n
    I = np.eye(images.algebra.dim, dtype=np.int64)
    zero = np.zeros_like(I)
    gens = dense_generators(images)
    E, Y, PSI = gens.E, gens.Y, gens.PSI
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
            if k < m:
                check("y_k y_m commute", (Y[k], Y[m]), (Y[m], Y[k]), (k, m))
        for iseq, Ei in E.items():
            check("y_k e(i) = e(i) y_k", (Y[k], Ei), (Ei, Y[k]), (k, iseq))
        check("y_k nilpotent", (mat_pow(Y[k], len(I) + 1, p),), (zero,), k)
    fails += [(f.relation, f.witness) for f in images._sigma_failures()]
    for r, P in PSI.items():
        for s, Ps in PSI.items():
            if s > r + 1:
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
        P, Pn = PSI[r], PSI[r + 1]
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
    """A copy of ``images`` with 1 added at (row, col) of the adapted form
    of a generator image."""
    ops = getattr(images, name)
    Xt = images._assemble(ops[key])
    Xt[row, col] = (Xt[row, col] + 1) % images.p
    return tampered(images, **{name: {**ops, key: held(
        images, matmul((images.C, Xt, images._Cinv), images.p))}})


class TestAdaptedCoordinates:
    @pytest.mark.parametrize("n,l", SCALES)
    def test_block_suite_matches_dense_suite(self, built, built_full, n, l):
        _, _, images, _ = built[(n, l)]
        assert _failures(images) == dense_relation_failures(images, True)
        full = as_quotient(built_full[(n, l)][2])
        assert _failures(full) == dense_relation_failures(full, True)

    def test_generators_in_adapted_form(self, built):
        _, A, images, _ = built[(3, 2)]
        gens = dense_generators(images)
        for iseq, Ei in gens.E.items():
            P = np.zeros((A.dim, A.dim), dtype=np.int64)
            sl = images.blocks[iseq]
            P[sl, sl] = np.eye(sl.stop - sl.start, dtype=np.int64)
            assert np.array_equal(adapted(images, Ei), P)
            assert block_equal(held(images, Ei), images.E[iseq], A.p)
            for k, Yk in gens.Y.items():
                assert not B._leaves_block(held(images, Yk), iseq)

    def test_small_inversions_and_no_push(self, built, monkeypatch):
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
        # E[i] comes from C and C^-1, not from an element of H
        assert pushes == []

    @pytest.mark.parametrize("n,l", SCALES + [(3, 3), (4, 2)])
    def test_inverse_of_c(self, n, l):
        # the reference for the constructor's exact inverse of the square C
        images = B.KLRImages(B.build_blob(H.default_params(n, l)))
        assert np.array_equal(matmul((images._Cinv, images.C), images.p),
                              np.eye(images.algebra.dim, dtype=np.int64))

    def test_kept_classes_are_the_nonzero_ones(self, built, built_full,
                                               nonzero_classes):
        # B has weight spaces only for the one-column classes, H for all
        for n, l in SCALES:
            params, A, images, _ = built[(n, l)]
            assert set(images.E) == nonzero_classes(A), (n, l)
            _, A_full, full = built_full[(n, l)]
            assert set(full.E) == set(H.class_partition(params)), (n, l)

    def test_kept_classes_at_three_strings_level_three(self, nonzero_classes):
        A = B.build_blob(H.default_params(3, 3))
        assert set(B.KLRImages(A).E) == nonzero_classes(A)

    def test_idempotents_only_for_kept_classes(self, built, monkeypatch):
        # 7 of the 16 classes of H have a weight space in B, and no class
        # idempotent of H is formed to find them
        params, A, _, _ = built[(3, 2)]
        calls = []
        murphy = H.class_idempotent_vector

        def counted(params, tabs):
            calls.append(tabs)
            return murphy(params, tabs)

        monkeypatch.setattr(H, "class_idempotent_vector", counted)
        assert len(B.KLRImages(A).E) == 7 and calls == []
        assert len(H.class_partition(params)) == 16

    def test_one_projection_certificate_per_pass(self, built, monkeypatch):
        # the constructor leaves the certificate to relation_failures
        _, A, _, _ = built[(3, 2)]
        calls = []
        certify = B.KLRImages._projection_failures

        def counted(self):
            calls.append(self)
            return certify(self)

        monkeypatch.setattr(B.KLRImages, "_projection_failures", counted)
        images = B.KLRImages(A)
        assert not images.relation_failures()
        assert len(calls) == 1

    def test_dropped_class_breaks_the_sum(self, built, monkeypatch):
        # the kept set is certified: without one of its weight spaces
        # the images of the e(i) no longer add up to 1
        _, A, images, _ = built[(3, 2)]
        first = next(iter(images.blocks.values()))
        split = H.joint_eigenspaces
        monkeypatch.setattr(H, "joint_eigenspaces", lambda *args: dict(
            list(split(*args).items())[1:]))
        with pytest.raises(B.RelationFailure) as err:
            B.KLRImages(A)
        assert err.value.relation == "sum of e(i) = 1"
        assert err.value.witness == (
            f"the images of the e(i) have {A.dim - first.stop} dimensions, "
            f"not {A.dim}")

    @pytest.mark.parametrize("name,key,relation", [
        ("E", (0, 2, 4), "e(i) is the block projection"),
        ("Y", 2, "y_k e(i) = e(i) y_k"),
        ("PSI", 2, "psi_r e(i) = e(s_r i) psi_r")])
    def test_changed_entry_names_its_relation(self, built, name, key,
                                              relation):
        _, A, _, _ = built[(3, 2)]
        images = B.KLRImages(A)
        ops = getattr(images, name)
        X = images.dense(ops[key])
        X[0, 0] = (X[0, 0] + 1) % A.p
        ops[key] = held(images, X)
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
            images = _tamper_in_block(images, name, key, row.start,
                                      images.blocks[iseq].start)
            fails = _failures(images)
            assert fails and fails == dense_relation_failures(images, True)

    def test_non_commuting_dots_are_reported_once(self, built):
        # y_2 changed inside the one block on which y_3 is not zero: the
        # pair (2, 3) fails, and only in that order
        _, A, _, _ = built[(3, 2)]
        images = B.KLRImages(A)
        sl = max(images.blocks.values(), key=lambda b: b.stop - b.start)
        images = _tamper_in_block(images, "Y", 2, sl.start, sl.start)
        fails = _failures(images)
        assert [w for rel, w in fails if rel == "y_k y_m commute"] == [(2, 3)]
        assert fails == dense_relation_failures(images, True)

    @pytest.mark.parametrize("n,l", SCALES + [(3, 3)])
    def test_every_dot_and_crossing_tampering_matches_dense_suite(
            self, built, built33, n, l):
        # one entry changed at a time, inside a held block of each y_k and
        # psi_r and off their pattern: the held suite reports what dense
        # products do, names and witness order included.  At (3,3), where
        # one dense suite takes most of a second, one held block per
        # operator is changed, drawn at random.
        rng = np.random.default_rng(10 * n + l)
        images = _scale(built, built33, n, l)[2]
        sample = (n, l) == (3, 3)
        blocks = images.blocks
        for name in ("Y", "PSI"):
            for key, X in getattr(images, name).items():
                off = [(j, i) for j in blocks for i in blocks
                       if (j, i) not in X]
                inside = list(X)
                if sample and inside:
                    inside = [inside[rng.integers(len(inside))]]
                for j, i in inside + [off[rng.integers(len(off))]]:
                    row, col = (int(rng.integers(blocks[b].start,
                                                 blocks[b].stop))
                                for b in (j, i))
                    changed = _tamper_in_block(images, name, key, row, col)
                    fails = _failures(changed)
                    assert fails, (name, key, row, col)
                    assert fails == dense_relation_failures(changed, True), \
                        (name, key, row, col)


class TestWeightIdempotents:
    @pytest.mark.parametrize("n,l", SCALES)
    def test_equal_the_specialized_product_formula(self, built, built_full,
                                                   n, l):
        # each E[i] is the push of the F_p(t) class sum E_[i] at t = q
        # to B, and its matrix in H; the classes B drops push to zero there
        params = built[(n, l)][0]
        eng = H.murphy_engine(params)
        for A, images in (built[(n, l)][1:3], built_full[(n, l)][1:]):
            E = dense_generators(images).E
            push = A.push if A.is_quotient else A.matrix_of
            for iseq, tabs in H.class_partition(params).items():
                want = push(H.specialize_vector(eng.class_vector(tabs),
                                                params))
                got = E.get(iseq, np.zeros_like(want))
                assert np.array_equal(got, want), (A.is_quotient, iseq)


class TestJucysMurphy:
    @pytest.mark.parametrize("n,l", SCALES)
    def test_images_agree_and_commute(self, built, n, l):
        _, A, images, _ = built[(n, l)]
        jm = B.jm_images(A, images)
        for k in jm:
            assert np.array_equal(images.dense(jm[k]), A.L[k])
            for m in jm:
                assert np.array_equal(matmul((A.L[k], A.L[m]), A.p),
                                      matmul((A.L[m], A.L[k]), A.p))

    def test_nilpotent_part(self, built):
        _, A, images, _ = built[(3, 2)]
        jm = {k: images.dense(M) for k, M in B.jm_images(A, images).items()}
        for iseq, Ei in dense_generators(images).E.items():
            for k in jm:
                N = (jm[k] - pow(A.q, iseq[k - 1], A.p)
                     * np.eye(A.dim, dtype=np.int64)) @ Ei % A.p
                assert not mat_pow(N, A.dim + 1, A.p).any()

    def test_redundant_generator(self, built):
        # the second Jucys-Murphy element is recovered from the first:
        # q^{-1} T_1 L_1 T_1
        _, A, images, _ = built[(2, 2)]
        jm = B.jm_images(A, images)
        rebuilt = pow(A.q, -1, A.p) * (A.T[1] @ A.L[1] @ A.T[1]) % A.p
        assert np.array_equal(images.dense(jm[2]), rebuilt)

    @pytest.mark.parametrize("n,l", SCALES)
    def test_triangular_action(self, built, n, l):
        _, A, images, basis = built[(n, l)]
        jm = B.jm_images(A, images)
        assert B.check_jm(A, basis, jm) == []

    @pytest.mark.parametrize("k", [1, 2])
    def test_zeroed_action_fails(self, built, k):
        # a zero JM_k leaves every diagonal coefficient 0, never q^res; the
        # left action is checked, and it is the per-vector left report
        _, A, images, basis = built[(2, 2)]
        jm = {**B.jm_images(A, images), k: {}}
        fails = B.check_jm(A, basis, jm)
        assert fails and all("diagonal coefficient 0," in f for f in fails)
        assert fails == sided(per_vector_jm(A, basis, jm), "left")

    def test_changed_element_is_reported(self, built):
        # check_jm reads the JM elements it is given: JM_2 replaced by JM_1
        # (fixed by both stars) breaks the diagonal of JM_2, as the left
        # lines of the per-vector reference find
        _, A, images, basis = built[(3, 2)]
        jm = B.jm_images(A, images)
        jm[2] = jm[1]
        fails = B.check_jm(A, basis, jm)
        assert fails == sided(per_vector_jm(A, basis, jm), "left")
        assert fails and all(f.startswith("JM_2 left ") for f in fails)

    def test_zeroed_action_reports_each_pair_once(self, built):
        # the right action is not checked again: with JM_1 zeroed at (3,2)
        # every pair fails its diagonal, and is reported once
        _, A, images, basis = built[(3, 2)]
        jm = {**B.jm_images(A, images), 1: {}}
        pairs = [f.split(":")[0].split(" on ")[1]
                 for f in B.check_jm(A, basis, jm)]
        assert sorted(pairs) == sorted(f"({S}, {T})"
                                       for _, S, T in basis.index)

    @pytest.mark.parametrize("case,n,l", [
        ("zeroed", 3, 2), ("swapped", 3, 2), ("changed inverse", 3, 2),
        ("changed inverse", 2, 3)])
    def test_right_report_mirrors_the_left(self, built, case, n, l):
        # the argument check_jm rests on, on the independent reference:
        # the right lines of per_vector_jm, with (S, T) and (U, V)
        # swapped, are its left lines
        _, A, images, basis = built[(n, l)]
        jm = B.jm_images(A, images)
        if case == "zeroed":
            jm[1] = {}
        elif case == "swapped":
            jm[1], jm[2] = jm[2], jm[1]
        else:
            basis = moved_basis(
                basis, _inv=held_inverse(basis, changed_inverse(basis)))
        ref = per_vector_jm(A, basis, jm)
        right = sided(ref, "right")
        assert right and sorted(map(mirrored, right)) == \
            sorted(sided(ref, "left"))


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
        E = dense_generators(images).E
        for lam in basis.shapes:
            tl = basis.t_lam[lam]
            assert np.array_equal(basis.vector(tl, tl),
                                  E[basis.i_lam[lam]] @ A.unit % A.p)
            # the adapted column is e(i^lam) 1 itself: d(T^lam) = 1
            assert np.array_equal(
                basis._adapted[:, basis.column[(tl, tl)]],
                images._apply(images.E[basis.i_lam[lam]], images._unit))

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
        # zeroed crossing images collapse the family; the certificate
        # must refuse it
        _, A, images, _ = built[(2, 2)]
        broken = B.KLRImages(A)
        broken.PSI = {r: {} for r in broken.PSI}
        with pytest.raises(ValueError, match="rank"):
            B.build_cellular_basis(A, broken)

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
        assert C.official_word(C.perm_identity(3)) == ()

    def test_lengths_s4(self):
        for w in __import__("itertools").permutations(range(1, 5)):
            assert len(C.official_word(w)) == C.perm_length(w)

    def test_alternate_reduced_word_support(self, built):
        # replacing the official word of d(T) by another reduced word of
        # the same permutation perturbs m_{S,T} only by basis pairs that
        # are strictly higher (in shape, or in either tableau)
        params, A, images, basis = built[(3, 2)]
        gens = dense_generators(images)
        w0, alt = (1, 2, 1), (2, 1, 2)
        theta = basis.theta
        # at this scale no realized residue sequence meets the braid
        # correction pattern, so the two products agree on the nose
        for iseq, Ei in gens.E.items():
            a, b, c = iseq
            correction = a == c and (b - a) % params.e in (1, params.e - 1)
            assert not correction
            assert np.array_equal(gens.psi_of(w0) @ Ei % A.p,
                                  gens.psi_of(alt) @ Ei % A.p)
        for lam in basis.shapes:
            for T in basis.std[lam]:
                if basis.word[T] != w0:
                    continue
                for S in basis.std[lam]:
                    mv = gens.psi_of(tuple(reversed(basis.word[S]))) @ \
                        gens.E[basis.i_lam[lam]] @ \
                        gens.psi_of(alt) @ \
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
        E = dense_generators(images).E
        for lam in basis.shapes:
            tl = basis.t_lam[lam]
            Ei = E[basis.i_lam[lam]]
            for T in basis.std[lam]:
                assert np.array_equal(Ei @ basis.vector(tl, T) % A.p,
                                      basis.vector(tl, T))

    def test_dot_on_maximal_pair_lands_higher(self, built):
        # a dot on the maximal pair is supported on strictly dominating
        # shapes only
        _, A, images, basis = built[(3, 2)]
        Y = dense_generators(images).Y
        for lam in basis.shapes:
            tl = basis.t_lam[lam]
            for k, Yk in Y.items():
                c = basis.expand(Yk @ basis.vector(tl, tl) % A.p)
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
                    v = images.dense(G) @ basis.vector(S, tl) % p
                    c = basis.expand(v)
                    for i, U in enumerate(m.tableaux):
                        assert c[basis.column[(U, tl)]] % p == \
                            m.action[name][i, j] % p


class TestMaxShapeVanishing:
    @pytest.mark.parametrize("n,l", SCALES)
    def test_dots_kill_maximal_idempotent(self, built, n, l):
        params, A, images, _ = built[(n, l)]
        imax = C.i_lambda(C.mu_max(n, l), params.mc)
        gens = dense_generators(images)
        E = gens.E[imax]
        for Yk in gens.Y.values():
            assert not (Yk @ E % A.p).any()
            assert not (E @ Yk % A.p).any()

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


# ---------------------------------------------------------------------------
# Per-vector references for the checks written on the cellular basis
# ---------------------------------------------------------------------------


def per_vector_cellularity(A, basis):
    """Cellularity, one expanded column and one basis pair at a time,
    followed by the grading lines of :func:`per_vector_grading`."""
    p, report = A.p, []
    for name, M in B._named_generators(basis.images):
        X = basis.expand(matmul((basis.images.dense(M), basis.matrix), p))
        for lam in basis.shapes:
            std, tl = basis.std[lam], basis.t_lam[lam]
            above = basis._above[lam]
            for S in std:
                r_u = {u: X[basis.column[(u, tl)], basis.column[(S, tl)]]
                       for u in std}
                for T in std:
                    c = X[:, basis.column[(S, T)]]
                    for idx, (mu, U, V) in enumerate(basis.index):
                        if mu in above:
                            continue
                        want = r_u[U] if mu == lam and V == T else 0
                        if c[idx] != want:
                            report.append(
                                f"{name} at (S, T) = ({S}, {T}): "
                                f"coefficient on ({U}, {V}) is {c[idx]}, "
                                f"expected {want}")
                            break
    return report + per_vector_grading(A, basis)


def per_vector_grading(A, basis):
    """The degree of every nonzero coefficient of every generator times
    every basis vector, with the residue sequence read per pair."""
    p, e, gens = A.p, basis.params.e, dense_generators(basis.images)
    degs = np.array([basis.degree(S, T) for _, S, T in basis.index])
    elements = [(f"y_{k}", Yk, lambda iS: 2) for k, Yk in gens.Y.items()]
    elements += [(f"e({i})", Ei, lambda iS: 0) for i, Ei in gens.E.items()]
    elements += [(f"psi_{r}", P,
                  lambda iS, r=r: C.psi_degree(iS[r - 1], iS[r], e))
                 for r, P in gens.PSI.items()]
    report = []
    for name, M, degree in elements:
        X = basis.expand(matmul((M, basis.matrix), p))
        for (_, S, T), c in zip(basis.index, X.T):
            target = basis.degree(S, T) + degree(C.residue_seq(S, basis.mc))
            for idx in np.nonzero(c)[0]:
                if degs[idx] != target:
                    report.append(
                        f"{name}.m_({S},{T}) has a component of degree "
                        f"{degs[idx]}, expected {target}")
    return report


def per_vector_jm(A, basis, jm):
    """JM triangularity, expanding JM_k times one basis vector at a time
    on either side, with right multiplication by the star conjugate S J S
    of J = JM_k, for the star S of H, which fixes every L_k."""
    p, q, theta, report = A.p, A.q, basis.theta, []
    star = star_conjugates(A).star
    for k, J in jm.items():
        left = basis.images.dense(J)
        right = matmul((star, left, star), p)
        for lam, S, T in basis.index:
            above, own = basis._above[lam], basis.column[(S, T)]
            for side, Mv, moved, fixed in (
                    ("right", matmul((right, basis.vector(S, T)), p), T, S),
                    ("left", matmul((left, basis.vector(S, T)), p), S, T)):
                c = basis.expand(Mv)
                diag = pow(q, C.residue_seq(moved, basis.mc)[k - 1], p)
                for idx, (mu, U, V) in enumerate(basis.index):
                    if mu in above or not (c[idx] or idx == own):
                        continue
                    Umoved, Ufixed = (V, U) if side == "right" else (U, V)
                    if not (mu == lam and Ufixed == fixed and
                            (Umoved == moved or C.tableau_strictly_dominates(
                                Umoved, moved, theta))):
                        report.append(f"JM_{k} {side} on ({S}, {T}): stray "
                                      f"component on ({U}, {V})")
                    elif Umoved == moved and c[idx] != diag:
                        report.append(
                            f"JM_{k} {side} on ({S}, {T}): diagonal "
                            f"coefficient {c[idx]}, expected {diag}")
    return report


def sided(lines, side):
    """The lines of a JM report on one side, "left" or "right"."""
    return [line for line in lines if line.split()[1] == side]


def mirrored(line):
    """The left line that a right line of a JM report mirrors through
    sigma: (S, T) and (U, V) swapped."""
    head, rest = line.split(": ", 1)
    name, _, _, pair = head.split(" ", 3)
    S, T = ast.literal_eval(pair)
    stray = "stray component on "
    if rest.startswith(stray):
        U, V = ast.literal_eval(rest[len(stray):])
        rest = f"{stray}({V}, {U})"
    return f"{name} left on ({T}, {S}): {rest}"


def per_vector_cell_modules(A, basis):
    """(shape, action, Gram matrix, Gram rank) per shape, each Gram entry
    from the left-multiplication matrix (``A.push`` of its lift to H) of
    m_{T^lam,S} applied to one m_{T,T^lam}; raises ValueError on a product
    with a component off m_{T^lam,T^lam} and the shapes strictly above,
    which a cellular input never has."""
    p, out = A.p, []
    for lam in basis.shapes:
        std, tl = basis.std[lam], basis.t_lam[lam]
        col_tt = basis.column[(tl, tl)]
        top = [basis.column[(S, tl)] for S in std]
        action = {name: basis.expand(matmul((basis.images.dense(M),
                                             basis.matrix[:, top]), p))[top]
                  for name, M in B._named_generators(basis.images)}
        gram = np.zeros((len(std), len(std)), dtype=np.int64)
        for a, S in enumerate(std):
            lift = np.zeros(A.reg.dim, dtype=np.int64)
            lift[A._nonpiv] = basis.vector(tl, S)
            left = A.push(lift)
            for b, T in enumerate(std):
                c = basis.expand(matmul((left, basis.vector(T, tl)), p))
                gram[a, b] = c[col_tt]
                for idx, (mu, U, V) in enumerate(basis.index):
                    if mu not in basis._above[lam] and c[idx] and \
                            idx != col_tt:
                        raise ValueError(
                            f"half-basis product at shape {lam} has a stray "
                            f"component on ({U}, {V})")
        out.append((lam, action, gram, rank(gram, p)))
    return out


def assert_modules_match(A, basis):
    ref = per_vector_cell_modules(A, basis)
    mods = B.cell_modules(A, basis)
    assert len(mods) == len(ref)
    for m, (lam, action, gram, grank) in zip(mods, ref):
        assert m.shape == lam and m.gram_rank == grank
        assert m.gram.tobytes() == gram.tobytes()
        assert m.action.keys() == action.keys()
        assert all(m.action[k].tobytes() == action[k].tobytes()
                   for k in action)


def changed_after_the_basis(images):
    """A copy of ``images`` with three generators changed: y_2 gains an
    idempotent, an idempotent gains y_1, and psi_2 gains y_3, which takes
    it off its block pattern."""
    p, gens = images.p, dense_generators(images)
    first = next(iter(images.E))
    Y = {**images.Y, 2: held(images, (gens.Y[2] + gens.E[first]) % p)}
    E = {**images.E, first: held(images, (gens.E[first] + gens.Y[1]) % p)}
    PSI = {**images.PSI, 2: held(images, (gens.PSI[2] + gens.Y[3]) % p)}
    return tampered(images, E=E, Y=Y, PSI=PSI)


class TestCellularBasisMatrices:
    """The checks on the matrices of operators on the cellular basis give
    the reports of the per-vector references, in order."""

    @pytest.mark.parametrize("n,l", SCALES)
    def test_certified_bases(self, built, n, l):
        _, A, images, basis = built[(n, l)]
        jm = B.jm_images(A, images)
        assert B.check_cellularity(A, basis) == \
            per_vector_cellularity(A, basis) == []
        assert B.check_jm(A, basis, jm) == per_vector_jm(A, basis, jm) == []
        assert_modules_match(A, basis)

    @pytest.mark.parametrize("n,l,theta", [
        (2, 2, (0, 1)), (2, 3, (0, 3, 1)), (2, 3, (0, 0, 1)), (3, 2, (1, 0)),
        (3, 2, (0, 1))])
    def test_other_weightings(self, built, n, l, theta):
        # i^lam and d(S) are read off the same t^lam_theta: each family
        # is a basis, with the Gram ranks of the zero weighting, and JM
        # triangularity holds
        _, A, images, basis0 = built[(n, l)]
        basis = B.build_cellular_basis(A, images, theta)
        assert [m.gram_rank for m in B.cell_modules(A, basis)] == \
            [m.gram_rank for m in B.cell_modules(A, basis0)]
        jm = B.jm_images(A, images)
        got = B.check_jm(A, basis, jm)
        assert got == per_vector_jm(A, basis, jm) == []
        assert basis.i_lam == {lam: C.residue_seq(tl, basis.mc)
                               for lam, tl in basis.t_lam.items()}
        assert B.check_cellularity(A, basis) == \
            per_vector_cellularity(A, basis) == []
        assert_modules_match(A, basis)

    def test_images_changed_after_the_basis(self, built):
        _, A, images, basis = built[(3, 2)]
        changed = changed_after_the_basis(images)
        moved = moved_basis(basis, images=changed)
        # the changed psi_2 leaves the block pattern
        assert changed.PSI[2].keys() - {
            (C.swap_entries(i, 2), i) for i in images.blocks}
        lines = B.check_cellularity(A, moved)
        grading = [line for line in lines
                   if "has a component of degree" in line]
        assert grading == per_vector_grading(A, moved)
        assert len(grading) == 4
        assert {line.split(".")[0] for line in grading} == {"y_2", "psi_2"}
        assert lines == per_vector_cellularity(A, moved)
        assert len(lines) == 4
        assert_modules_match(A, moved)

    @pytest.mark.parametrize("n,l", [(3, 2), (2, 3)])
    def test_changed_inverse(self, built, n, l):
        # the row of an (S, S) pair gains the row of (T^lam, T^lam), so an
        # expansion on (T^lam, T^lam) also lands on (S, S)
        _, A, images, basis = built[(n, l)]
        moved = moved_basis(
            basis, _inv=held_inverse(basis, changed_inverse(basis)))
        with pytest.raises(ValueError, match="stray component"):
            per_vector_cell_modules(A, moved)
        # check_cellularity writes no e(i); the psi_1 lines still catch
        # the changed inverse
        cells = B.check_cellularity(A, moved)
        assert cells == [line for line in per_vector_cellularity(A, moved)
                         if not line.startswith("e(")]
        assert len(cells) == {(3, 2): 2, (2, 3): 1}[n, l]
        assert all(line.startswith("psi_1") for line in cells)
        jm = B.jm_images(A, images)
        assert B.check_jm(A, moved, jm) == \
            sided(per_vector_jm(A, moved, jm), "left")

    @pytest.mark.parametrize("n,l", SCALES)
    def test_jm_images_equal_per_class_sum(self, built, n, l):
        _, A, images, _ = built[(n, l)]
        p, I = A.p, np.eye(A.dim, dtype=np.int64)
        gens = dense_generators(images)
        for k, M in B.jm_images(A, images).items():
            want = np.zeros_like(I)
            for iseq, Ei in gens.E.items():
                N = matmul(((I - gens.Y[k]) % p, Ei), p)
                want = (want + pow(A.q, iseq[k - 1], p) * N) % p
            assert images.dense(M).tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# The dense routes the block path replaced, kept as references
# ---------------------------------------------------------------------------


def dense_coords(basis, inv, M):
    """An operator M on the cellular basis by the dense route: the inverse
    of the family times M times the family."""
    return matmul((inv, M, basis.matrix), basis.algebra.p)


def dense_projection_failures(images):
    """The rank-based projection certificate: each dense E[i] has rank
    d_i and fixes the columns of block i, and the E[i] add up to 1."""
    p, C = images.p, images.C
    fails, total = [], np.zeros_like(C)
    for iseq, Ei in dense_generators(images).E.items():
        sl = images.blocks[iseq]
        total = (total + Ei) % p
        if rank(Ei, p) != sl.stop - sl.start or \
                not np.array_equal(matmul((Ei, C[:, sl]), p), C[:, sl]):
            fails.append(("e(i) is the block projection", iseq))
    if not np.array_equal(total, np.eye(len(C), dtype=np.int64)):
        fails.append(("sum of e(i) = 1", "all"))
    return fails


def dense_jm_images(A, images):
    """The Jucys-Murphy elements and their checks on the dense matrices."""
    p, q, I = A.p, A.q, np.eye(A.dim, dtype=np.int64)
    gens, jm = dense_generators(images), {}
    for k in range(1, A.params.n + 1):
        M = np.zeros_like(I)
        for iseq, Ei in gens.E.items():
            M = (M + pow(q, iseq[k - 1], p) * Ei) % p
        M = matmul(((I - gens.Y[k]) % p, M), p)
        if not np.array_equal(M, A.L[k]):
            raise ValueError(f"rebuilt Jucys-Murphy element {k} differs "
                             f"from the image of L_{k}")
        v = matmul((M, A.unit), p)
        if not np.array_equal(matmul((images.sigma, v), p), v):
            raise ValueError(f"Jucys-Murphy element {k} is not star-fixed")
        jm[k] = M
    for k in jm:
        for m in jm:
            if k < m and not np.array_equal(matmul((jm[k], jm[m]), p),
                                            matmul((jm[m], jm[k]), p)):
                raise ValueError(f"Jucys-Murphy elements {k}, {m} do not "
                                 f"commute")
    return jm


@pytest.fixture(scope="module")
def built33():
    params = H.default_params(3, 3)
    A = B.build_blob(params)
    images = B.klr_images(A)
    return params, A, images, B.build_cellular_basis(A, images)


def _scale(built, built33, n, l):
    return built33 if (n, l) == (3, 3) else built[(n, l)]


def dense_operators(A, images):
    """(name, dense matrix) of every generator and of L_k, RT_i, RL_k."""
    out = [(name, images.dense(X)) for name, X in B._named_generators(images)]
    right = star_conjugates(A)
    out += [(f"L_{k}", X) for k, X in A.L.items()]
    out += [(f"RT_{i}", X) for i, X in right.RT.items()]
    out += [(f"RL_{k}", X) for k, X in right.RL.items()]
    return out


class TestBlockPath:
    """The block path against the dense routes it replaced, byte for byte,
    also on images and inverses that leave the block pattern."""

    @pytest.mark.parametrize("n,l", SCALES + [(3, 3)])
    def test_coords_and_expand(self, built, built33, n, l):
        _, A, images, basis = _scale(built, built33, n, l)
        inv = invert_matrix(basis.matrix, A.p)
        for name, M in dense_operators(A, images):
            assert basis.coords(held(images, M)).tobytes() == \
                dense_coords(basis, inv, M).tobytes(), name
        # right multiplication by L_k is left multiplication swapped by
        # sigma, on the cellular basis
        right, sw = star_conjugates(A).RL, swapped_columns(basis)
        for k in A.L:
            assert block_equal(images.L[k], held(images, A.L[k]), A.p)
            assert basis.coords(held(images, right[k])).tobytes() == \
                basis.coords(images.L[k])[np.ix_(sw, sw)].tobytes()
        rng = np.random.default_rng(n + l)
        for X in list(A.T.values()) + [
                rng.integers(0, A.p, (A.dim, A.dim))]:
            assert block_equal(images._adapt(X), held(images, X), A.p)
        for v in (A.unit, A.T[1], np.eye(A.dim, dtype=np.int64)):
            assert basis.expand(v).tobytes() == \
                matmul((inv, v), A.p).tobytes()

    def test_coords_of_changed_images(self, built):
        _, A, images, basis = built[(3, 2)]
        changed = changed_after_the_basis(images)
        inv = invert_matrix(basis.matrix, A.p)
        for name, X in B._named_generators(changed):
            assert basis.coords(X).tobytes() == dense_coords(
                basis, inv, changed.dense(X)).tobytes(), name

    @pytest.mark.parametrize("n,l", [(3, 2), (2, 3)])
    def test_changed_block_inverse(self, built, n, l):
        _, A, images, basis = built[(n, l)]
        inv = changed_inverse(basis)
        moved = moved_basis(basis, _inv=held_inverse(basis, inv))
        assert any(g != i for g, i in moved._inv)
        for name, M in dense_operators(A, images):
            assert moved.coords(held(images, M)).tobytes() == \
                dense_coords(basis, inv, M).tobytes(), name
        assert moved.expand(np.eye(A.dim, dtype=np.int64)).tobytes() == \
            inv.tobytes()

    @pytest.mark.parametrize("n,l", [(2, 2), (2, 3)])
    def test_family_off_the_weight_spaces(self, built, n, l, tmp_path,
                                          monkeypatch):
        # psi_1 + 1 takes m_{S,T} out of e(i^S)B; the relation suite
        # refuses it, so verify builds no basis on it
        _, A, images, _ = built[(n, l)]
        changed = tampered(images, PSI={**images.PSI, 1: held(
            images, (images.dense(images.PSI[1])
                     + np.eye(A.dim, dtype=np.int64)) % A.p)})
        family = B.CellularBasis(A, changed)
        order = np.concatenate(list(family.members.values()))
        assert any(i != g for i, g in block_split(
            family._adapted[:, order], images.blocks, family._slots))
        fails = changed.relation_failures()
        assert "psi_r e(i) = e(s_r i) psi_r" in {f.relation for f in fails}

        def unexpected(*args):
            raise AssertionError("cellular family built")

        monkeypatch.setattr(B, "KLRImages", lambda algebra: changed)
        monkeypatch.setattr(B, "CellularBasis", unexpected)
        for suite in ("cellular", "jm"):
            out = tmp_path / f"{suite}.json"
            assert cli.main(["verify", "--n", str(n), "--l", str(l),
                             "--suite", suite, "--out", str(out)]) == 1
            assert json.loads(out.read_text())["suites"][suite] == {
                "passed": False, "failures": [
                    f"generator images fail {len(fails)} relations"]}

    @pytest.mark.parametrize("n,l", SCALES + [(3, 3)])
    def test_projection_certificate(self, built, built33, n, l):
        _, A, images, _ = _scale(built, built33, n, l)

        def certificate(images):
            return [(f.relation, f.witness)
                    for f in images._projection_failures()]

        assert certificate(images) == dense_projection_failures(images) == []
        first, last = list(images.E)[0], list(images.E)[-1]
        plus_one = (images.dense(images.E[first]) + 1) % A.p
        for E in ({**images.E, first: held(images, plus_one)},
                  {**images.E, first: images.E[last]}):
            broken = tampered(images, E=E)
            assert certificate(broken) == \
                dense_projection_failures(broken) != []

    @pytest.mark.parametrize("n,l", SCALES + [(3, 3)])
    def test_jm_images(self, built, built33, n, l):
        _, A, images, _ = _scale(built, built33, n, l)
        want = dense_jm_images(A, images)
        got = B.jm_images(A, images)
        assert {k: images.dense(M).tobytes() for k, M in got.items()} == \
            {k: M.tobytes() for k, M in want.items()}


class TestCertifiedFactsNotRechecked:
    """The cellular layer writes on the basis only what no certificate
    proves already: the y_k and psi_r, not the e(i); and the cellular
    suite builds no cell module to re-check the Gram symmetry."""

    @pytest.fixture
    def written(self, monkeypatch):
        """The ids of the operators that ``CellularBasis.coords`` writes
        on a basis from now on, in order."""
        written, coords = [], B.CellularBasis.coords

        def counted(self, M):
            written.append(id(M))
            return coords(self, M)

        monkeypatch.setattr(B.CellularBasis, "coords", counted)
        return written

    def test_cellularity_writes_dots_and_crossings(self, built33, written):
        # cell_modules reads the table check_cellularity wrote
        _, A, images, basis = built33
        basis = moved_basis(basis)
        assert B.check_cellularity(A, basis) == []
        B.cell_modules(A, basis)
        assert len(written) == 5
        assert set(written) == {id(M) for M in (*images.Y.values(),
                                                *images.PSI.values())}

    def test_cell_writes_each_generator_once(self, written):
        assert cli.main(["cell", "--n", "3", "--l", "3", "--out",
                         os.devnull]) == 0
        assert len(written) == 5

    def test_cellular_suite_builds_no_cell_modules(self, monkeypatch):
        def unexpected(algebra, basis):
            raise AssertionError("cell_modules called")

        monkeypatch.setattr(B, "cell_modules", unexpected)
        assert cli.main(["verify", "--n", "3", "--l", "2", "--suite",
                         "cellular", "--out", os.devnull]) == 0


class TestNoDenseProducts:
    """At (3,3), after the relation suite, the cellular and Jucys-Murphy
    layers and the rewrite oracle form no product with two dimensions of
    size D, the cellular layer no elimination of D rows, and the relation
    suite no rank of size D and five products of size D x D x D."""

    @pytest.fixture
    def recorded(self, monkeypatch):
        calls = []
        real = {name: getattr(B, name)
                for name in ("matmul", "rank_and_inverse", "rank")}

        def product(factors, p):
            out = factors[-1]
            for M in reversed(factors[:-1]):
                width = out.shape[1] if out.ndim == 2 else 1
                calls.append(("matmul", (*M.shape, width)))
                out = real["matmul"]((M, out), p)
            return out

        def elimination(name):
            def wrapped(M, p):
                calls.append((name, M.shape))
                return real[name](M, p)
            return wrapped

        monkeypatch.setattr(B, "matmul", product)
        for name in ("rank_and_inverse", "rank"):
            monkeypatch.setattr(B, name, elimination(name))
        return calls

    def test_cellular_layer(self, recorded):
        A = B.build_blob(H.default_params(3, 3))
        D = A.dim
        images = B.KLRImages(A)
        recorded.clear()
        assert images.relation_failures() == []
        assert not [c for c in recorded if c[0] == "rank" and c[1][0] >= D]
        recorded.clear()
        jm = B.jm_images(A, images)
        basis = B.build_cellular_basis(A, images)
        assert B.check_cellularity(A, basis) == []
        assert B.check_jm(A, basis, jm) == []
        B.cell_modules(A, basis)
        assert recorded and all(
            list(dims).count(D) < 2 if name == "matmul" else dims[0] < D
            for name, dims in recorded)

    def test_cellular_family_eliminations(self, built33, recorded):
        # one rank_and_inverse per weight space, no rank of the family
        _, A, images, _ = built33
        B.build_cellular_basis(A, images)
        assert [name for name, _ in recorded if name != "matmul"] == \
            ["rank_and_inverse"] * len(images.blocks) == \
            ["rank_and_inverse"] * 25

    def test_relation_suite_products(self, monkeypatch):
        # sigma's adapted form, sigma^2 and one star conjugate per
        # generator T_1, T_2, L_1; C^-1 C = I holds by construction
        A = B.build_blob(H.default_params(3, 3))
        images = B.KLRImages(A)
        shapes = product_shapes(monkeypatch)
        assert images.relation_failures() == []
        assert shapes.count((A.dim,) * 3) == 5

    def test_rewrite_oracle(self, monkeypatch):
        params = H.default_params(3, 3)
        build = functools.cache(functools.partial(cli._build, params))
        A, _, relation_fails = build()
        assert relation_fails == []
        shapes = product_shapes(monkeypatch)
        assert cli._suite_rewrite(params, build, True) == []
        assert shapes and all(dims.count(A.dim) < 2 for dims in shapes)
