"""The generalized blob algebra and its graded cellular structure.

The specialized cyclotomic algebra H (see :mod:`.hecke`) has a distinguished
two-sided ideal generated, for each level component j, by the rank-one
idempotent of the two-string subalgebra whose `L`-eigenvalues are
``(q^{kappa_j}, q^{kappa_j + 1})``.  The quotient by this ideal is the
generalized blob algebra B.  This module

* builds B as an explicit quotient of the regular representation
  (:class:`BlobAlgebra`, :func:`build_blob`),
* realizes the quiver-Hecke generators ``e(i)``, ``y_k``, ``psi_r`` inside
  B -- or, for comparison, inside H itself -- and verifies the complete
  defining relation suite (:class:`KLRImages`, :func:`klr_images`),
* constructs the homogeneous cellular basis ``m_{S,T}`` indexed by pairs of
  standard one-column tableaux (:class:`CellularBasis`,
  :func:`build_cellular_basis`) and machine-checks cellularity, the
  Jucys-Murphy triangularity, the grading, and the cell-module/Gram-matrix
  structure.

All arithmetic is exact, over the prime field F_p fixed by the parameters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import combinatorics as comb
from .exactfield import (RowSpace, invert_matrix, mat_pow, matmul,
                         nullspace, rank, rref)
from .hecke import (HeckeParams, RegularRep, class_partition,
                    class_idempotent_vector, e2_idempotents,
                    embed_two_string, regular_rep)

official_word = comb.official_word


class RelationFailure(Exception):
    """A defining relation fails; carries the relation name and a witness."""

    def __init__(self, relation: str, witness):
        self.relation = relation
        self.witness = witness
        super().__init__(f"relation {relation} fails at witness {witness}")


# ---------------------------------------------------------------------------
# Dimension bookkeeping
# ---------------------------------------------------------------------------


def one_column_dimension(n: int, l: int) -> int:
    """Sum of squared standard-tableau counts over one-column shapes."""
    return sum(len(comb.std_tableaux(lam)) ** 2
               for lam in comb.one_column_shapes(n, l))


# ---------------------------------------------------------------------------
# Dense left-multiplication matrices
# ---------------------------------------------------------------------------


def _times_basis(reg: RegularRep, carrier, u: np.ndarray) -> np.ndarray:
    """Columns u L^a T_w for every basis key (a, w) of H, where u is a
    reduced vector of ``carrier`` (H itself, or a quotient of it) and
    ``carrier.RT``, ``carrier.RL`` are its right multiplications by the
    generators.  The products follow ``reg.spanning_tree``: one
    matrix-vector product per key."""
    p = reg.p
    cols = np.zeros((len(u), reg.dim), dtype=np.int64)
    cols[:, reg.id_index] = u
    for j, parent, name, i in reg.spanning_tree:
        cols[:, j] = matmul((getattr(carrier, name)[i], cols[:, parent]), p)
    return cols


def left_mult_matrix(reg: RegularRep, v: np.ndarray) -> np.ndarray:
    """Left-multiplication matrix of the element with coefficient vector v:
    column (a, w) is v L^a T_w, so the whole matrix costs dim
    matrix-vector products."""
    return _times_basis(reg, reg, v % reg.p)


# ---------------------------------------------------------------------------
# The quotient algebra
# ---------------------------------------------------------------------------


def _ideal_closure(reg: RegularRep, seeds: list[dict]):
    """Reduced row echelon basis and pivots of the two-sided ideal HsH
    generated by the seeds.

    The closure is semi-naive.  It starts from the seed vectors, and each
    round multiplies only the rows the previous round added, on the left
    by T_i and L_1 (``reg.T``, ``reg.L``) and on the right by the same
    generators (``reg.RT``, ``reg.RL``); ``RowSpace.extend`` absorbs the
    products.  The frontier suffices: write V_k for the space after round
    k and N_k for the rows it absorbed, so V_k = V_(k-1) + span N_k.  If
    every generator g maps V_(k-1) into V_k, then g V_k lies in
    V_k + span(g N_k) = V_(k+1), so by induction g V_k lies in V_(k+1)
    for every k.  A round that adds nothing therefore leaves a space that
    holds the seeds and is stable under left and right multiplication by
    T_1, ..., T_(n-1), L_1.  These generate H as an algebra, so that space
    is HsH, and its reduced echelon form is the one of any spanning set."""
    p = reg.p
    gens = [reg.T[i] for i in reg.T] + [reg.L[1]]
    gens += [reg.RT[i] for i in reg.RT] + [reg.RL[1]]
    space = RowSpace(reg.dim, p)
    new = space.extend(np.array([reg.coefficients(s) for s in seeds]))
    while len(new):
        new = space.extend(np.vstack([matmul((new, g.T), p) for g in gens]))
    return space.matrix(), space.pivots


class BlobAlgebra:
    """The quotient B = H / (two-string rank-one idempotents), presented on
    an explicit coordinate basis.

    With ``quotient=False`` the same interface wraps H itself (trivial
    ideal), so that the quiver-Hecke generator images can be compared
    before and after passing to the quotient.

    Attributes: ``dim``; ``quotient_map`` (dim x dim_H matrix taking
    H-coordinates to B-coordinates); generator image matrices ``T``, ``L``
    with right-multiplication companions ``RT``, ``RL``; the
    anti-involution matrix ``star``; the coordinate vector ``unit`` of the
    identity."""

    def __init__(self, params: HeckeParams, quotient: bool = True):
        params.validate()
        self.params = params
        self.is_quotient = quotient
        self.reg = reg = regular_rep(params)
        self.p, self.q, self.e = params.p, params.q, params.e
        p = self.p
        D = reg.dim
        if quotient and params.n >= 2:
            seeds = [embed_two_string(params, f)
                     for f in e2_idempotents(params)]
            rows, piv = _ideal_closure(reg, seeds)
        else:
            rows = np.zeros((0, D), dtype=np.int64)
            piv = []
        self.ideal_rows = rows
        self.ideal_rank = len(piv)
        self.dim = D - self.ideal_rank
        if quotient:
            expected = one_column_dimension(params.n, params.l)
            if self.dim != expected:
                raise ValueError(
                    f"quotient dimension {self.dim} differs from the "
                    f"standard-tableau count {expected} at "
                    f"(n, l) = ({params.n}, {params.l})")
        pivset = set(piv)
        nonpiv = [j for j in range(D) if j not in pivset]
        # reduction mod the ideal sends v to v - rows^T . v[pivots]; the
        # quotient coordinates are the non-pivot entries of the result
        Pi = np.zeros((self.dim, D), dtype=np.int64)
        Pi[np.arange(self.dim), nonpiv] = 1
        if piv:
            Pi[:, piv] = (Pi[:, piv] - rows[:, nonpiv].T) % p
        self.quotient_map = Pi
        self._nonpiv = np.array(nonpiv, dtype=np.int64)
        if piv:
            stab = [("star", reg.star_mat), ("L_1", reg.L[1])]
            stab += [(f"T_{i}", reg.T[i]) for i in reg.T]
            for name, M in stab:
                if matmul((Pi, M, rows.T), p).any():
                    raise ValueError(f"ideal is not stable under {name}")
        self.T = {i: self._q(reg.T[i]) for i in reg.T}
        self.L = {k: self._q(reg.L[k]) for k in reg.L}
        self.RT = {i: self._q(reg.RT[i]) for i in reg.RT}
        self.RL = {k: self._q(reg.RL[k]) for k in reg.RL}
        self.star = self._q(reg.star_mat)
        self.unit = matmul((Pi, reg.unit_vector()), p)
        self.identity = np.eye(self.dim, dtype=np.int64)

    def _q(self, M: np.ndarray) -> np.ndarray:
        """The quotient matrix of M: reduce its columns at the lifts of
        the quotient basis, which are the non-pivot basis vectors."""
        return matmul((self.quotient_map, M[:, self._nonpiv]), self.p)

    def push(self, el) -> np.ndarray:
        """Quotient left-multiplication matrix of an element of H, given
        as a coefficient dict or vector on the normal-form basis: column j
        is u times the j-th quotient basis element, the image of the j-th
        non-pivot key, for the quotient vector u of the element.  The
        products are taken in the quotient itself, along the spanning tree
        of the basis of H."""
        u = matmul((self.quotient_map, self.reg.coefficients(el)), self.p)
        return _times_basis(self.reg, self, u)[:, self._nonpiv]

    def lmat(self, v: np.ndarray) -> np.ndarray:
        """Left-multiplication matrix of the element with reduced quotient
        coordinate vector v, through its lift to H: v placed at the
        non-pivot coordinates."""
        lift = np.zeros(self.reg.dim, dtype=np.int64)
        lift[self._nonpiv] = v
        return self.push(lift)


def build_blob(params: HeckeParams) -> "BlobAlgebra":
    """Construct the quotient algebra B with certified dimension."""
    return BlobAlgebra(params, quotient=True)


# ---------------------------------------------------------------------------
# Quiver-Hecke generator images
# ---------------------------------------------------------------------------


class KLRImages:
    """Images of the quiver-Hecke generators inside the given algebra.

    ``E[i]`` (for realized residue sequences i) are the specialized class
    idempotents; ``Y[k]`` are the nilpotent parts of the Jucys-Murphy
    elements; ``PSI[r]`` are the intertwiners, normalized so that the
    complete defining relation suite holds.  All are square matrices
    acting on the coordinate basis of the carrier algebra.

    **Adapted coordinates.**  Every generator respects the weight-space
    decomposition A = sum_i e(i)A: e(i) projects onto its summand, y_k
    keeps each summand and psi_r maps e(i)A into e(s_r i)A.  The columns
    of ``C`` are bases of the images of the E[i], stacked in the order of
    ``E``; ``blocks[i]`` is the slice of the d_i columns of summand i.
    The construction certifies that C^-1 E[i] C is the projection P_i
    onto block i and that C^-1 L_k C is block-diagonal (raising
    :class:`RelationFailure` otherwise).  Then y_k is one d_i x d_i block
    per class, psi_r e(i) is one column block, and the only inverses
    taken are of C and of d_i x d_i normalizers.  The dense ``Y`` and
    ``PSI`` are assembled once from the blocks.

    :meth:`relation_failures` conjugates the held ``E``, ``Y`` and
    ``PSI`` by C and checks the relations block by block.  Conjugation by
    C is an algebra isomorphism, so a relation holds for the dense
    matrices exactly when it holds for their conjugates.  The support
    pattern (C^-1 E[i] C = P_i, y_k block-diagonal, psi_r taking block i
    to block s_r i) is certified first.  Where it holds, every product
    in a relation, restricted to a column block, passes through one
    block per factor, so the block checks report the same failures with
    the same witnesses as dense products would."""

    def __init__(self, algebra: BlobAlgebra):
        self.algebra = A = algebra
        params = A.params
        self.params = params
        p, q, n = A.p, A.q, params.n
        self.p, self.q, self.e, self.n = p, q, A.e, n
        classes = class_partition(params)
        self.classes = classes
        self.E: dict = {}
        index = A.reg.nf.index
        for iseq in sorted(classes):
            v = np.zeros(A.reg.dim, dtype=np.int64)
            for key, c in class_idempotent_vector(params,
                                                  classes[iseq]).items():
                v[index[key]] = c
            # a class is zero in A exactly when its quotient vector is
            if matmul((A.quotient_map, v), p).any():
                self.E[iseq] = A.push(v)
        self.C, self.blocks = self._adapted_basis()
        fails = self._projection_failures()
        if fails:
            raise fails[0]
        # the certificate gives E[i] C = C P_i, which makes C invertible:
        # a relation among its columns, times E[i], is one among block i's
        self._Cinv = invert_matrix(self.C, p)
        Lt = {k: self._adapt(A.L[k]) for k in A.L}
        for k, X in Lt.items():
            for iseq in self.blocks:
                if self._leaves_block(X, iseq):
                    raise RelationFailure("y_k e(i) = e(i) y_k", (k, iseq))
        self._L = {k: {iseq: X[sl, sl] for iseq, sl in self.blocks.items()}
                   for k, X in Lt.items()}
        self.Y = {}
        for k in range(1, n + 1):
            Yt = np.zeros_like(A.identity)
            for iseq, sl in self.blocks.items():
                c = pow(q, -iseq[k - 1], p)
                Yt[sl, sl] = (np.eye(sl.stop - sl.start, dtype=np.int64)
                              - c * self._L[k][iseq]) % p
            self.Y[k] = self._dense(Yt)
        self.PSI = {r: self._psi(r) for r in range(1, n)}
        self._sigma = None

    # -- adapted coordinates -------------------------------------------------

    def _adapted_basis(self) -> tuple[np.ndarray, dict]:
        """C, whose column blocks are bases of the images of the E[i], and
        the slice of each block."""
        p, dim = self.p, self.algebra.dim
        cols, blocks, start = [], {}, 0
        for iseq, Ei in self.E.items():
            R, piv = rref(Ei.T, p)
            cols.append(R[:len(piv)])
            blocks[iseq] = slice(start, start + len(piv))
            start += len(piv)
        if start != dim:
            raise RelationFailure(
                "sum of e(i) = 1",
                f"the images of the e(i) have {start} dimensions, not {dim}")
        return np.vstack(cols).T, blocks

    def _adapt(self, X: np.ndarray) -> np.ndarray:
        """C^-1 X C."""
        return matmul((self._Cinv, X, self.C), self.p)

    def _dense(self, Xt: np.ndarray) -> np.ndarray:
        """C Xt C^-1, the matrix with adapted form Xt."""
        return matmul((self.C, Xt, self._Cinv), self.p)

    def _projection_failures(self) -> list[RelationFailure]:
        """Certificate of C^-1 E[i] C = P_i for every i: each E[i] has
        rank d_i and fixes the columns of block i, so its image is block i
        and it is idempotent; and the E[i] add up to 1.  Idempotents that
        add up to 1 with ranks adding up to the dimension are orthogonal.
        This costs O(dim^3) in all, where checking E[i] C = C P_i costs
        that per class."""
        p, C = self.p, self.C
        fails = []
        total = np.zeros_like(C)
        for iseq, Ei in self.E.items():
            sl = self.blocks[iseq]
            total = (total + Ei) % p
            if rank(Ei, p) != sl.stop - sl.start or \
                    not np.array_equal(matmul((Ei, C[:, sl]), p), C[:, sl]):
                fails.append(RelationFailure("e(i) is the block projection",
                                             iseq))
        if not np.array_equal(total, self.algebra.identity):
            fails.append(RelationFailure("sum of e(i) = 1", "all"))
        return fails

    def _leaves_block(self, Xt: np.ndarray, iseq) -> bool:
        """Whether the adapted matrix Xt has an entry outside the diagonal
        block of class i in the row or the column block of i, i.e. whether
        it fails to commute with P_i."""
        sl = self.blocks[iseq]
        col, row = Xt[:, sl].copy(), Xt[sl].copy()
        col[sl] = 0
        row[:, sl] = 0
        return bool(col.any() or row.any())

    # -- the anti-involution fixing the generator images ------------------

    def _star_left(self, G: np.ndarray) -> np.ndarray:
        """Left-multiplication matrix of S(g), where g is the element with
        left-multiplication matrix G and S the Hecke-side anti-involution
        (used here purely as linear algebra): G itself when S(g) = g, as
        for e(i) and y_k.  Right multiplication by g is x -> S(S(g) S(x))."""
        A, p = self.algebra, self.p
        g = matmul((G, A.unit), p)
        Sg = matmul((A.star, g), p)
        return G if np.array_equal(Sg, g) else A.lmat(Sg)

    @property
    def sigma(self) -> np.ndarray:
        """Matrix of the anti-involution that fixes e(i), y_k, psi_r.

        Built by spanning the algebra with words in the generator images:
        a word and its reversal are star-images of each other.  The result
        is certified by :meth:`relation_failures` (involution,
        anti-multiplicativity, generator fixing)."""
        if self._sigma is None:
            A, p = self.algebra, self.p
            gens = [G for _, G in _named_generators(self)]
            lefts = [self._star_left(G) for G in gens]
            space = RowSpace(A.dim, p)
            space.add(A.unit)
            cols, rcols = [A.unit], [A.unit]
            frontier = [(A.unit, A.unit)]
            while len(cols) < A.dim and frontier:
                nxt = []
                for v, vr in frontier:
                    for G, SG in zip(gens, lefts):
                        w = matmul((G, v), p)
                        if not space.add(w):
                            continue
                        # the reversed word: vr g = S(S(g) S(vr))
                        wr = matmul((A.star, SG, A.star, vr), p)
                        cols.append(w)
                        rcols.append(wr)
                        nxt.append((w, wr))
                        if len(cols) == A.dim:
                            break
                    if len(cols) == A.dim:
                        break
                frontier = nxt
            if len(cols) < A.dim:
                raise ValueError("generator images do not span the algebra")
            W = np.array(cols, dtype=np.int64).T
            Wr = np.array(rcols, dtype=np.int64).T
            self._sigma = matmul((Wr, invert_matrix(W, p)), p)
        return self._sigma

    # -- the crossings, column block by column block ------------------------

    def _psi(self, r: int) -> np.ndarray:
        """psi_r, whose adapted column block i is psi_r e(i): an
        intertwiner against the inverse of a d_i x d_i normalizer."""
        p, q, e = self.p, self.q, self.e
        Tt = self._adapt(self.algebra.T[r])
        Pt = np.zeros_like(Tt)
        for iseq, sl in self.blocks.items():
            x, z = self._L[r][iseq], self._L[r + 1][iseq]
            ir, ir1 = iseq[r - 1], iseq[r]
            if ir == ir1:
                # same residue i on both strands: (T_r + 1) against
                # Brundan-Kleshchev's Q_r(i) = 1 - q + q y_{r+1} - y_r
                # (Invent. Math. 2009, section 4), which is
                # q^-i (L_r - q L_{r+1}) on the block since y_k = 1 -
                # q^-i L_k there.  Its negative would flip psi_r e(i) and
                # break the dot relations, which fix psi_r on equal
                # residues as f -> (f - s_r f) / (y_{r+1} - y_r) in the
                # polynomial representation.
                U = Tt[:, sl].copy()
                U[sl] = (U[sl] + np.eye(sl.stop - sl.start,
                                        dtype=np.int64)) % p
                N = pow(q, -ir, p) * ((x - q * z) % p) % p
            else:
                # distinct residues: intertwiner against a case normalizer
                inv = invert_matrix((z - x) % p, p)
                U = Tt[:, sl].copy()
                U[sl] = (U[sl] - matmul(((q - 1) * z % p, inv), p)) % p
                d = (ir1 - ir) % e
                if d == 1:
                    N = matmul(((x - q * z) % p, inv), p)
                elif d == e - 1:
                    N = pow(q, ir, p) * invert_matrix((x - z) % p, p) % p
                else:
                    N = matmul(((q * x - z) % p, inv), p)
            Pt[:, sl] = matmul((U, invert_matrix(N, p)), p)
        return self._dense(Pt)

    def psi_of(self, word) -> np.ndarray:
        """Product of crossing images along a word, in order."""
        mats = [self.PSI[r] for r in word]
        return matmul(mats, self.p) if mats else self.algebra.identity

    # -- relation suite ---------------------------------------------------

    def relation_failures(self, blob_defining: bool | None = None
                          ) -> list[RelationFailure]:
        """Exact check of every defining relation; ``blob_defining``
        controls whether the vanishing pattern that distinguishes the
        quotient from the full quiver-Hecke algebra is included (defaults
        to the carrier being the quotient).

        The checks run in the adapted coordinates of the class docstring.
        The support pattern stands in for the relations it implies.
        C^-1 e(i) C = P_i stands in for e(i) e(j) = delta_ij e(i) and
        sum_i e(i) = 1; it fails as "e(i) is the block projection" at a
        class i or as "sum of e(i) = 1".  y_k block-diagonal stands in for
        y_k e(i) = e(i) y_k, and psi_r mapping block i into block s_r i
        for psi_r e(i) = e(s_r i) psi_r; these fail under the names and
        witnesses of those relations.  Every other relation is compared
        column block by column block, each factor acting through the one
        block its pattern allows."""
        if blob_defining is None:
            blob_defining = self.algebra.is_quotient
        p, e, n = self.p, self.e, self.n
        blocks = self.blocks
        kap = set(k % e for k in self.params.mc.kappa)
        fails: list[RelationFailure] = []
        eye = {i: np.eye(sl.stop - sl.start, dtype=np.int64)
               for i, sl in blocks.items()}
        Yt = {k: self._adapt(X) for k, X in self.Y.items()}
        Pt = {r: self._adapt(X) for r, X in self.PSI.items()}
        # block operators: column block i -> (row block, matrix); a
        # missing column block acts as zero
        Y = {k: {i: (i, X[sl, sl]) for i, sl in blocks.items()}
             for k, X in Yt.items()}
        P: dict = {r: {} for r in Pt}
        for r, X in Pt.items():
            for i, sl in blocks.items():
                j = comb.swap_entries(i, r)
                if j in blocks:
                    P[r][i] = (j, X[blocks[j], sl])

        def value(terms, i) -> dict:
            """Column block i of a sum of scaled products of block
            operators, as {row block: nonzero matrix}."""
            out: dict = {}
            for c, chain in terms:
                t, M = i, eye[i]
                for op in reversed(chain):
                    if t not in op:
                        break
                    t, Bm = op[t]
                    M = matmul((Bm, M), p)
                else:
                    out[t] = (out.get(t, 0) + c * M) % p
            return {t: M for t, M in out.items() if M.any()}

        def check(name, lhs, rhs, witness, cols=blocks):
            """Record a failure unless the two sums agree on every listed
            column block."""
            for i in cols:
                a, b = value(lhs, i), value(rhs, i)
                if a.keys() != b.keys() or \
                        not all(np.array_equal(a[t], b[t]) for t in a):
                    fails.append(RelationFailure(name, witness))
                    return

        fails += self._projection_failures()
        for iseq in self.E:
            if iseq[0] % e not in kap:
                fails.append(RelationFailure(
                    "e(i) = 0 for unsupported first residue", iseq))
            if blob_defining and n >= 2 and \
                    iseq[1] % e == (iseq[0] + 1) % e:
                fails.append(RelationFailure(
                    "e(i) = 0 for second residue one above the first",
                    iseq))
            check("y_1 e(i) = 0", [(1, (Y[1],))], [], iseq, (iseq,))
        for k in Y:
            for m in Y:
                check("y_k y_m commute", [(1, (Y[k], Y[m]))],
                      [(1, (Y[m], Y[k]))], (k, m))
            for iseq in self.E:
                if self._leaves_block(Yt[k], iseq):
                    fails.append(RelationFailure("y_k e(i) = e(i) y_k",
                                                 (k, iseq)))
            if any(mat_pow(M, M.shape[0], p).any()
                   for _, M in Y[k].values()):
                fails.append(RelationFailure("y_k nilpotent", k))
        fails += self._sigma_failures()
        for r, Pr in P.items():
            for s, Ps in P.items():
                if abs(r - s) > 1:
                    check("distant psi commute", [(1, (Pr, Ps))],
                          [(1, (Ps, Pr))], (r, s))
            for k in Y:
                if k not in (r, r + 1):
                    check("psi_r y_k commute", [(1, (Pr, Y[k]))],
                          [(1, (Y[k], Pr))], (r, k))
            for iseq, sl in blocks.items():
                j = comb.swap_entries(iseq, r)
                col = Pt[r][:, sl].copy()
                if j in blocks:
                    col[blocks[j]] = 0
                if col.any():
                    fails.append(RelationFailure(
                        "psi_r e(i) = e(s_r i) psi_r", (r, iseq)))
                ir, ir1 = iseq[r - 1], iseq[r]
                delta = [(1, ())] if ir == ir1 else []
                check("psi_r y_{r+1} e(i) = (y_r psi_r + delta) e(i)",
                      [(1, (Pr, Y[r + 1]))], [(1, (Y[r], Pr))] + delta,
                      (r, iseq), (iseq,))
                check("y_{r+1} psi_r e(i) = (psi_r y_r + delta) e(i)",
                      [(1, (Y[r + 1], Pr))], [(1, (Pr, Y[r]))] + delta,
                      (r, iseq), (iseq,))
                d = (ir1 - ir) % e
                if ir == ir1:
                    rhs = []
                elif d == 1:
                    rhs = [(1, (Y[r + 1],)), (-1, (Y[r],))]
                elif d == e - 1:
                    rhs = [(1, (Y[r],)), (-1, (Y[r + 1],))]
                else:
                    rhs = [(1, ())]
                check("psi_r^2 e(i)", [(1, (Pr, Pr))], rhs, (r, iseq),
                      (iseq,))
        # braid correction: in the polynomial representation, the dot
        # relations make psi_r act on equal residues as f -> (f - s_r f) /
        # (y_{r+1} - y_r) and the quadratic relation fixes the product of
        # the two crossings of an adjacent pair; composing them gives
        # (psi_r psi_{r+1} psi_r - psi_{r+1} psi_r psi_{r+1}) e(i) = +e(i)
        # at (a, a+1, a) and -e(i) at (a, a-1, a)
        for r in range(1, n - 1):
            Pr, Pn = P[r], P[r + 1]
            for iseq in blocks:
                a, b, c = iseq[r - 1], iseq[r], iseq[r + 1]
                if a == c and b % e == (a + 1) % e:
                    rhs = [(1, ())]
                elif a == c and b % e == (a - 1) % e:
                    rhs = [(-1, ())]
                else:
                    rhs = []
                check("braid correction", [(1, (Pr, Pn, Pr)),
                                           (-1, (Pn, Pr, Pn))],
                      rhs, (r, iseq), (iseq,))
        return fails

    def _sigma_failures(self) -> list[RelationFailure]:
        """Certify the anti-involution: squares to the identity, fixes
        every generator, and reverses random products."""
        A, p = self.algebra, self.p
        fails = []
        try:
            S = self.sigma
        except ValueError as exc:
            return [RelationFailure("anti-involution exists", str(exc))]
        if not np.array_equal(matmul((S, S), p), A.identity):
            fails.append(RelationFailure("star is an involution", "sigma"))
        fails += [RelationFailure("star fixes the generators", name)
                  for name, G in _named_generators(self)
                  if not np.array_equal(matmul((S, G, A.unit), p),
                                        matmul((G, A.unit), p))]
        rng = np.random.default_rng(20260826)
        for _ in range(5):
            x = rng.integers(0, p, A.dim)
            y = rng.integers(0, p, A.dim)
            lhs = matmul((S, A.lmat(x), y), p)
            rhs = matmul((A.lmat(matmul((S, y), p)), S, x), p)
            if not np.array_equal(lhs, rhs):
                fails.append(RelationFailure(
                    "star reverses products", "random pair"))
                break
        return fails

    def eigenprojection_failures(self) -> list[str]:
        """Cross-check: e(i) must be the projection onto the simultaneous
        generalized eigenspace of (L_1..L_n) at (q^{i_1},..,q^{i_n})."""
        A, p, q, n = self.algebra, self.p, self.q, self.n
        I = A.identity
        spaces = {}
        for iseq in self.E:
            Ms = [mat_pow((A.L[k] - pow(q, iseq[k - 1], p) * I) % p,
                          A.dim, p) for k in range(1, n + 1)]
            spaces[iseq] = nullspace(np.vstack(Ms), p)
        fails = []
        if sum(V.shape[0] for V in spaces.values()) != A.dim:
            fails.append("generalized eigenspaces do not fill the algebra")
        for iseq, Ei in self.E.items():
            for jseq, V in spaces.items():
                got = matmul((Ei, V.T), p)
                want = V.T if iseq == jseq else np.zeros_like(got)
                if not np.array_equal(got, want):
                    fails.append(f"e({iseq}) is not the projection onto "
                                 f"the eigenspace of {jseq}")
        return fails

    def degree_violations(self) -> list[str]:
        """Homogeneity of every defining relation under the degree table
        (0 for idempotents, 2 for dots, -2/1/0 for crossings), checked
        combinatorially over the realized residue sequences."""
        e = self.e
        out = []
        for iseq in self.E:
            for r in range(1, self.n):
                ir, ir1 = iseq[r - 1], iseq[r]
                d = comb.psi_degree(ir, ir1, e)
                # dot-exchange: psi y' and y psi share degree d + 2; the
                # correction term has degree 0 and appears iff residues match
                if ir == ir1 and d + 2 != 0:
                    out.append(f"dot-exchange inhomogeneous at {iseq}, {r}")
                # square: degree 2d must match the correction terms
                dd = (ir1 - ir) % e
                if dd in (1, e - 1) and 2 * d != 2:
                    out.append(f"square inhomogeneous at {iseq}, {r}")
                if ir != ir1 and dd not in (1, e - 1) and 2 * d != 0:
                    out.append(f"square inhomogeneous at {iseq}, {r}")
            for r in range(1, self.n - 1):
                w1, w2 = (r, r + 1, r), (r + 1, r, r + 1)
                d1 = comb.word_degree(iseq, w1, e)
                d2 = comb.word_degree(iseq, w2, e)
                if d1 != d2:
                    out.append(f"braid inhomogeneous at {iseq}, {r}")
                a, b, c = iseq[r - 1], iseq[r], iseq[r + 1]
                if a == c and (b - a) % e in (1, e - 1) and d1 != 0:
                    out.append(f"braid correction inhomogeneous at "
                               f"{iseq}, {r}")
        return out


def klr_images(algebra: BlobAlgebra) -> KLRImages:
    """Build the generator images and certify the full relation suite;
    raises :class:`RelationFailure` on the first violation."""
    images = KLRImages(algebra)
    fails = images.relation_failures()
    if fails:
        raise fails[0]
    return images


def jm_images(algebra: BlobAlgebra, images: KLRImages) -> dict:
    """The Jucys-Murphy elements, rebuilt from the generator images as
    ``JM_k = sum_i q^{i_k} (1 - y_k) e(i)`` and cross-checked against the
    quotient images of the L_k."""
    A, p, q = algebra, algebra.p, algebra.q
    I = A.identity
    jm = {}
    for k in range(1, A.params.n + 1):
        M = np.zeros_like(I)
        for iseq, Ei in images.E.items():
            N = matmul(((I - images.Y[k]) % p, Ei), p)
            M = (M + pow(q, iseq[k - 1], p) * N) % p
        if not np.array_equal(M, A.L[k]):
            raise ValueError(f"rebuilt Jucys-Murphy element {k} differs "
                             f"from the image of L_{k}")
        v = matmul((M, A.unit), p)
        if not np.array_equal(matmul((images.sigma, v), p), v):
            raise ValueError(f"Jucys-Murphy element {k} is not star-fixed")
        jm[k] = M
    for k in jm:
        for m in jm:
            if not np.array_equal(matmul((jm[k], jm[m]), p),
                                  matmul((jm[m], jm[k]), p)):
                raise ValueError(f"Jucys-Murphy elements {k}, {m} do not "
                                 f"commute")
    return jm


# ---------------------------------------------------------------------------
# The cellular basis
# ---------------------------------------------------------------------------


@dataclass
class CellModule:
    """A cell module: basis indexed by the standard tableaux of its shape,
    generator action matrices, and the Gram matrix of the bilinear form."""
    shape: tuple
    tableaux: list
    action: dict
    gram: np.ndarray
    gram_rank: int

    @property
    def dim(self) -> int:
        return len(self.tableaux)

    @property
    def radical_dim(self) -> int:
        return self.dim - self.gram_rank


class CellularBasis:
    """The homogeneous basis ``m_{S,T}`` of B, indexed by pairs of standard
    tableaux of a common one-column shape: the star of the crossing word of
    d(S), the class idempotent of the shape's maximal residue sequence, and
    the crossing word of d(T)."""

    def __init__(self, algebra: BlobAlgebra, images: KLRImages,
                 theta=None):
        self.algebra = A = algebra
        self.images = images
        params = A.params
        self.params = params
        p = A.p
        l, n = params.l, params.n
        self.theta = comb.theta_zero(l) if theta is None else theta
        self.mc = params.mc
        self.shapes = comb.one_column_shapes(n, l)
        self.i_lam = {lam: comb.i_lambda(lam, self.mc)
                      for lam in self.shapes}
        self.std = {lam: comb.std_tableaux(lam) for lam in self.shapes}
        self.t_lam = {lam: comb.t_lambda(lam, self.theta)
                      for lam in self.shapes}
        self.index: list[tuple] = []   # (shape, S, T)
        self.column: dict = {}
        self.word = {S: comb.official_word(comb.d_perm(S, self.theta))
                     for lam in self.shapes for S in self.std[lam]}
        cols = []
        # m_{S,T} times the unit, as a chain of matrix-vector products
        PSI = images.PSI
        for lam in self.shapes:
            Elam = images.E[self.i_lam[lam]]
            for S in self.std[lam]:
                left = [PSI[r] for r in reversed(self.word[S])] + [Elam]
                for T in self.std[lam]:
                    v = matmul(left + [PSI[r] for r in self.word[T]]
                               + [A.unit], p)
                    self.column[(S, T)] = len(self.index)
                    self.index.append((lam, S, T))
                    cols.append(v)
        self.matrix = np.array(cols, dtype=np.int64).T
        if len(self.index) != A.dim or \
                rank(self.matrix, p) != A.dim:
            raise ValueError(
                f"cellular family of size {len(self.index)} has rank "
                f"{rank(self.matrix, p)}, expected {A.dim}")
        self._inv = invert_matrix(self.matrix, p)
        # strictly-dominating shape comparisons, for the cell order
        self._above = {
            lam: {mu for mu in self.shapes
                  if comb.strictly_dominates(mu, lam, self.theta)}
            for lam in self.shapes}

    def vector(self, S, T) -> np.ndarray:
        return self.matrix[:, self.column[(S, T)]]

    def expand(self, v: np.ndarray) -> np.ndarray:
        """Coefficients of a reduced vector on the cellular basis."""
        return matmul((self._inv, v), self.algebra.p)

    def degree(self, S, T) -> int:
        lam = comb.shape_of(S)
        ilam = self.i_lam[lam]
        return comb.word_degree(ilam, self.word[S], self.params.e) + \
            comb.word_degree(ilam, self.word[T], self.params.e)


def build_cellular_basis(algebra: BlobAlgebra, images: KLRImages,
                         theta=None) -> CellularBasis:
    """Construct and certify the cellular basis: full rank, star-symmetry,
    and the maximal-pair normalization m_{T^lam, T^lam} = e(i^lam)."""
    basis = CellularBasis(algebra, images, theta)
    A, p = algebra, algebra.p
    for lam in basis.shapes:
        tl = basis.t_lam[lam]
        want = matmul((images.E[basis.i_lam[lam]], A.unit), p)
        if not np.array_equal(basis.vector(tl, tl), want):
            raise ValueError(f"maximal pair at shape {lam} is not the "
                             f"class idempotent")
    sig = images.sigma
    for lam, S, T in basis.index:
        if not np.array_equal(matmul((sig, basis.vector(S, T)), p),
                              basis.vector(T, S)):
            raise ValueError(f"star does not swap the pair at {lam}")
    return basis


# ---------------------------------------------------------------------------
# Cellularity, Jucys-Murphy triangularity, grading
# ---------------------------------------------------------------------------


def _named_generators(images: KLRImages) -> list[tuple[str, np.ndarray]]:
    out = [(f"e({iseq})", Ei) for iseq, Ei in images.E.items()]
    out += [(f"y_{k}", images.Y[k]) for k in images.Y]
    out += [(f"psi_{r}", images.PSI[r]) for r in images.PSI]
    return out


def check_cellularity(algebra: BlobAlgebra, basis: CellularBasis,
                      elements=None) -> list[str]:
    """Condition (ii) of cellularity, with exact coefficients: for each
    generator a and each S, the coefficients of a.m_{S,T} on same-shape
    basis pairs must be r_{u,S,a} on column (u, T) -- extracted once at
    T = T^lam and reproduced for every other T -- with everything else
    supported on strictly dominating shapes.  Also checks that every
    nonzero expansion term of psi_r . m is concentrated in a single
    degree, deg a + deg m."""
    A, p = algebra, algebra.p
    images = basis.images
    if elements is None:
        elements = _named_generators(images)
    report = []
    for name, M in elements:
        for lam in basis.shapes:
            std = basis.std[lam]
            tl = basis.t_lam[lam]
            above = basis._above[lam]
            for S in std:
                ref = basis.expand(matmul((M, basis.vector(S, tl)), p))
                r_u = {u: ref[basis.column[(u, tl)]] for u in std}
                for T in std:
                    c = basis.expand(matmul((M, basis.vector(S, T)), p))
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
    report += _grading_violations(algebra, basis)
    return report


def _grading_violations(algebra: BlobAlgebra, basis: CellularBasis
                        ) -> list[str]:
    A, p = algebra, algebra.p
    images = basis.images
    e = basis.params.e
    degs = np.array([basis.degree(S, T) for _, S, T in basis.index])
    report = []
    elements = [(f"y_{k}", images.Y[k], lambda iS: 2) for k in images.Y]
    elements += [(f"e({i})", Ei, lambda iS: 0) for i, Ei in images.E.items()]
    elements += [(f"psi_{r}", images.PSI[r],
                  lambda iS, r=r: comb.psi_degree(iS[r - 1], iS[r], e))
                 for r in images.PSI]
    for name, M, degree in elements:
        for lam, S, T in basis.index:
            c = basis.expand(matmul((M, basis.vector(S, T)), p))
            target = basis.degree(S, T) + \
                degree(comb.residue_seq(S, basis.mc))
            for idx in np.nonzero(c)[0]:
                if degs[idx] != target:
                    report.append(
                        f"{name}.m_({S},{T}) has a component of degree "
                        f"{degs[idx]}, expected {target}")
    return report


def check_jm(algebra: BlobAlgebra, basis: CellularBasis, jm: dict
             ) -> list[str]:
    """Triangularity of the Jucys-Murphy action on the cellular basis:
    acting on the right of m_{S,T}, JM_k has diagonal coefficient
    q^{residue of k in T} and otherwise moves T strictly up in dominance
    (modulo strictly dominating shapes); symmetrically on the left for S."""
    A, p, q = algebra, algebra.p, algebra.q
    report = []
    theta = basis.theta
    for k in jm:
        right = A.RL[k]
        left = A.L[k]
        for lam, S, T in basis.index:
            above = basis._above[lam]
            for side, Mv, moved, fixed in (
                    ("right", matmul((right, basis.vector(S, T)), p), T, S),
                    ("left", matmul((left, basis.vector(S, T)), p), S, T)):
                c = basis.expand(Mv)
                res = comb.residue_seq(moved, basis.mc)[k - 1]
                diag = pow(q, res, p)
                for idx, (mu, U, V) in enumerate(basis.index):
                    if mu in above or not c[idx]:
                        continue
                    Umoved, Ufixed = (V, U) if side == "right" else (U, V)
                    ok = (mu == lam and Ufixed == fixed and
                          (Umoved == moved or
                           comb.tableau_strictly_dominates(
                               Umoved, moved, theta)))
                    if not ok:
                        report.append(
                            f"JM_{k} {side} on ({S}, {T}): stray "
                            f"component on ({U}, {V})")
                        continue
                    if Umoved == moved and c[idx] != diag:
                        report.append(
                            f"JM_{k} {side} on ({S}, {T}): diagonal "
                            f"coefficient {c[idx]}, expected {diag}")
    return report


def cell_modules(algebra: BlobAlgebra, basis: CellularBasis
                 ) -> list[CellModule]:
    """Cell modules with generator action (coefficients r_{u,S,a} read off
    at T = T^lam) and Gram matrices extracted from products of half-basis
    elements; raises on any coefficient outside the allowed support."""
    A, p = algebra, algebra.p
    images = basis.images
    out = []
    for lam in basis.shapes:
        std = basis.std[lam]
        tl = basis.t_lam[lam]
        above = basis._above[lam]
        col_tt = basis.column[(tl, tl)]
        action = {}
        for name, M in _named_generators(images):
            mat = np.zeros((len(std), len(std)), dtype=np.int64)
            for j, S in enumerate(std):
                c = basis.expand(matmul((M, basis.vector(S, tl)), p))
                for i, U in enumerate(std):
                    mat[i, j] = c[basis.column[(U, tl)]]
            action[name] = mat
        gram = np.zeros((len(std), len(std)), dtype=np.int64)
        for a, S in enumerate(std):
            left = A.lmat(basis.vector(tl, S))
            for b, T in enumerate(std):
                c = basis.expand(matmul((left, basis.vector(T, tl)), p))
                gram[a, b] = c[col_tt]
                for idx, (mu, U, V) in enumerate(basis.index):
                    if mu in above or not c[idx] or idx == col_tt:
                        continue
                    raise ValueError(
                        f"half-basis product at shape {lam} has a stray "
                        f"component on ({U}, {V})")
        if not np.array_equal(gram, gram.T):
            raise ValueError(f"Gram matrix at shape {lam} is not symmetric")
        out.append(CellModule(shape=lam, tableaux=std, action=action,
                              gram=gram, gram_rank=rank(gram, p)))
    if sum(m.dim ** 2 for m in out) != A.dim:
        raise ValueError("cell-module dimensions do not account for the "
                         "algebra dimension")
    return out
