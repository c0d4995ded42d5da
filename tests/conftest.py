"""Shared test references."""

from types import SimpleNamespace

import numpy as np
import pytest

from blobcell import blob as B
from blobcell import exactfield as xf
from blobcell import hecke as H
from blobcell.exactfield import (invert_matrix, mat_pow, matmul,
                                 nullspace, rank)


def _nonzero_classes(algebra) -> set:
    """Every residue class of H whose idempotent is nonzero in the
    carrier, found the long way: compute each class idempotent and reduce
    it by the quotient map."""
    p, index = algebra.p, algebra.reg.nf.index
    out = set()
    for iseq, tabs in H.class_partition(algebra.params).items():
        v = np.zeros(algebra.reg.dim, dtype=np.int64)
        for key, c in H.class_idempotent_vector(algebra.params,
                                                tabs).items():
            v[index[key]] = c
        if matmul((algebra.quotient_map, v), p).any():
            out.add(iseq)
    return out


def eigenvalue_system_seeds(params) -> list:
    """The reference for :func:`H.e2_idempotents`: for each component j,
    the basis of the vectors v of the two-string regular representation
    with L_1 v = q^(kappa_j) v, L_2 v = q^(kappa_j + 1) v and T_1 v = q v,
    each scaled by 1 / beta for v^2 = beta v (None where v^2 is not on
    the line of v)."""
    p, q = params.p, params.q
    reg = H.regular_rep(H.HeckeParams(n=2, l=params.l, e=params.e, p=p,
                                      q=q, hat_kappa=params.hat_kappa))
    I = reg.identity()
    out = []
    for kj in params.mc.kappa:
        vectors = []
        for v in nullspace(np.vstack([
                (reg.L[1] - pow(q, kj, p) * I) % p,
                (reg.L[2] - pow(q, kj + 1, p) * I) % p,
                (reg.T[1] - q * I) % p]), p):
            v2 = reg.product(v, v)
            pos = np.flatnonzero(v)[0]
            beta = int(v2[pos]) * pow(int(v[pos]), -1, p) % p
            vectors.append(pow(beta, -1, p) * v % p if beta and
                           np.array_equal(v2, beta * v % p) else None)
        out.append(vectors)
    return out


def dense_generators(images) -> SimpleNamespace:
    """``E``, ``Y`` and ``PSI`` of the held generator images as dense
    matrices on the carrier's basis (:meth:`KLRImages.dense`), and
    ``psi_of(word)``, the product of the crossings along a word, in order
    (the identity for the empty word)."""
    gens = SimpleNamespace(**{name: {
        key: images.dense(X) for key, X in getattr(images, name).items()}
        for name in ("E", "Y", "PSI")})
    gens.psi_of = lambda word: matmul(
        [gens.PSI[r] for r in word], images.p) if word else \
        np.eye(images.algebra.dim, dtype=np.int64)
    return gens


def weight_split_misses(algebra, images) -> list:
    """The dense reference for the weight split: "rank" unless the columns
    of C are independent, and (k, i) wherever (L_k - q^(i_k))^dim does not
    kill block i of C.  With none, block i is the joint generalized
    eigenspace of the L_k at q^i."""
    A, p, C = algebra, algebra.p, images.C
    out = [] if rank(C, p) == A.dim else ["rank"]
    for k, L in A.L.items():
        for iseq, sl in images.blocks.items():
            N = mat_pow((L - pow(A.q, iseq[k - 1], p)
                         * np.eye(A.dim, dtype=np.int64)) % p, A.dim, p)
            if matmul((N, C[:, sl]), p).any():
                out.append((k, iseq))
    return out


def conjugated_carrier(A, P) -> SimpleNamespace:
    """The carrier B in the basis b'_j = sum_k P[k, j] b_k, for an
    invertible P, with only the names that :class:`B.KLRImages` lists: T
    and L become P^-1 X P, the unit P^-1 u, and ``times_basis`` the walk
    of B times P.  A layer that reads any other name of its carrier
    raises AttributeError on it."""
    p, Pinv = A.p, invert_matrix(P, A.p)
    return SimpleNamespace(
        params=A.params, p=p, q=A.q, dim=A.dim, is_quotient=A.is_quotient,
        unit=matmul((Pinv, A.unit), p),
        T={i: matmul((Pinv, X, P), p) for i, X in A.T.items()},
        L={k: matmul((Pinv, X, P), p) for k, X in A.L.items()},
        times_basis=lambda ops, u: matmul((A.times_basis(ops, u), P), p))


def mixed_split(C, blocks, p):
    """The weight split (C, blocks) with the first column of the first
    block replaced by its sum with the first column of the second: C is
    still invertible, but the first block is no longer a weight space."""
    first, second = list(blocks.values())[:2]
    C = C.copy()
    C[:, first.start] = (C[:, first.start] + C[:, second.start]) % p
    return C, blocks


def star_conjugates(algebra) -> SimpleNamespace:
    """The reference for right multiplication in the carrier: ``star``,
    the star of H reduced by the quotient map, and the star conjugates
    ``RT[i]`` = S T_i S and ``RL[k]`` = S L_k S formed with it, right
    multiplication by T_i and L_k since the star fixes each generator and
    reverses products."""
    p, S = algebra.p, algebra._q(algebra.reg.star_mat)
    return SimpleNamespace(star=S, **{name: {
        i: matmul((S, X, S), p) for i, X in ops.items()}
        for name, ops in (("RT", algebra.T), ("RL", algebra.L))})


def changed_inverse(basis):
    """The dense inverse of the family with the row of an (S, S) pair
    increased by the row of (T^lam, T^lam), at the first shape with two
    tableaux."""
    inv = invert_matrix(basis.matrix, basis.algebra.p)
    lam = next(lam for lam in basis.shapes if len(basis.std[lam]) >= 2)
    tl = basis.t_lam[lam]
    S = next(S for S in basis.std[lam] if S != tl)
    i, j = basis.column[(S, S)], basis.column[(tl, tl)]
    inv[i] = (inv[i] + inv[j]) % basis.algebra.p
    return inv


def held_inverse(basis, inv):
    """The held form of a dense inverse of the family: the nonzero blocks
    of inv C, rows grouped as the pairs and columns as the weight
    spaces."""
    images = basis.images
    X = matmul((inv, images.C), images.p)
    out = {}
    for g, js in basis.members.items():
        for i, sl in images.blocks.items():
            if X[js, sl].any():
                out[g, i] = X[js, sl]
    return out


def swapped_columns(basis) -> list:
    """The column of (T, S) for the pair (S, T) of each column."""
    return [basis.column[(T, S)] for _, S, T in basis.index]


def _family_swap(algebra, images):
    """The independent reference for the anti-involution of B: the swap
    m_{S,T} -> m_{T,S} on the zero-weighting family, M[:, swapped] M^-1."""
    fam = B.CellularBasis(algebra, images)
    return matmul((fam.matrix[:, swapped_columns(fam)],
                   invert_matrix(fam.matrix, algebra.p)), algebra.p)


def product_shapes(monkeypatch) -> list:
    """The shapes (m, k, n) of the dense products that
    ``exactfield._product`` forms from now on, in order; n = 1 for a
    vector."""
    shapes, product = [], xf._product

    def recorded(M, N, p):
        shapes.append((*M.shape, N.shape[1] if N.ndim == 2 else 1))
        return product(M, N, p)

    monkeypatch.setattr(xf, "_product", recorded)
    return shapes


@pytest.fixture(scope="session")
def nonzero_classes():
    return _nonzero_classes


@pytest.fixture(scope="session")
def family_swap():
    return _family_swap
