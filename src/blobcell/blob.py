"""The generalized blob algebra and its graded cellular structure.

The specialized cyclotomic algebra H (see :mod:`.hecke`) has a distinguished
two-sided ideal generated, for each level component j, by the rank-one
idempotent of the two-string subalgebra whose `L`-eigenvalues are
``(q^{kappa_j}, q^{kappa_j + 1})``.  The quotient by this ideal is the
generalized blob algebra B.  This module

* builds B as an explicit quotient of the regular representation
  (:class:`BlobAlgebra`, :func:`build_blob`),
* realizes the quiver-Hecke generators ``e(i)``, ``y_k``, ``psi_r`` inside
  a carrier that states the names :class:`KLRImages` lists -- B, or for
  comparison H itself (:class:`~.hecke.RegularRep`) -- with the
  anti-involution sigma that fixes them, built by the carrier's walk of
  its basis, and verifies the complete defining relation suite
  (:class:`KLRImages`, :func:`klr_images`),
* builds the one-column family ``m_{S,T}`` indexed by pairs of standard
  one-column tableaux (:class:`CellularBasis`), certifies it as a
  homogeneous cellular basis (:func:`build_cellular_basis`) and
  machine-checks cellularity, the Jucys-Murphy triangularity, the grading,
  and the cell-module/Gram-matrix structure.

After :class:`KLRImages`, every operator is held in the weight-space
coordinates of B, where it is block-sparse, and the cellular layer takes
one small product per block; dense matrices on the basis of B are formed
only for the callers that need them.  All arithmetic is exact, over the
prime field F_p fixed by the parameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import combinatorics as comb
# rref is bound here as well: perfbench/smoke.py checks that the tracer
# restores it in this module
from .exactfield import (RowSpace, block_equal, block_lincomb, block_matmul,
                         block_split, invert_matrix, matmul, rank,
                         rank_and_inverse, rref)
from .hecke import (HeckeParams, RegularRep, e2_idempotents,
                    embed_two_string, regular_rep, weight_spaces)


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
    return sum(comb.std_tableaux_count(lam) ** 2
               for lam in comb.one_column_shapes(n, l))


# ---------------------------------------------------------------------------
# The quotient algebra
# ---------------------------------------------------------------------------


def _ideal_closure(reg: RegularRep, seeds: list[dict]):
    """Reduced row echelon basis and pivots of the two-sided ideal HsH
    generated by star-fixed seeds; raises ValueError on a seed s* != s.

    The closure is semi-naive: each round multiplies only the rows the
    previous round added, by T_i, L_1 and the star (``reg.T``, ``reg.L``,
    ``reg.star_mat``), and ``RowSpace.extend`` absorbs the products.
    Write V_k for the space after round k and N_k for the rows it
    absorbed.  If each of these maps g sends V_(k-1) into V_k, then g V_k
    lies in V_k + span(g N_k) = V_(k+1), so by induction the space V left
    by a round that adds nothing is stable under all of them: it holds
    the seeds and is a star-stable left ideal, since T_i and L_1 generate
    H.  It is two-sided, as x h = (h* x*)*, so it contains HsH; and HsH
    is a star-stable left ideal, as (a s b)* = b* s a*, so V = HsH, whose
    reduced echelon form is the one of any spanning set."""
    p = reg.p
    start = np.array([reg.coefficients(s) for s in seeds])
    for j, v in enumerate(start):
        if not np.array_equal(matmul((reg.star_mat, v), p), v):
            raise ValueError(f"seed {j} is not fixed by the star")
    gens = [reg.T[i] for i in reg.T] + [reg.L[1], reg.star_mat]
    space = RowSpace(reg.dim, p)
    new = space.extend(start)
    while len(new):
        new = space.extend(np.vstack([matmul((new, g.T), p) for g in gens]))
    return space.matrix(), space.pivots


class BlobAlgebra:
    """The quotient B = H / (two-string rank-one idempotents), presented on
    an explicit coordinate basis: the non-pivot keys of the ideal's
    reduced echelon form.  It is B as a carrier of :class:`KLRImages` (the
    names listed there); H itself is :class:`~.hecke.RegularRep`.

    Attributes: ``dim``; ``quotient_map`` (dim x dim_H matrix taking
    H-coordinates to B-coordinates); the generator image matrices ``T``,
    ``L`` (left multiplication, and no right one); the coordinate vector
    ``unit`` of the identity.  The ideal is stable under the star, L_1
    and every T_i by the closure's induction (:func:`_ideal_closure`), so
    quotient matrices multiply as lifts do."""

    is_quotient = True

    def __init__(self, params: HeckeParams):
        params.validate()
        self.params = params
        self.reg = reg = regular_rep(params)
        self.p, self.q = params.p, params.q
        p, D = self.p, reg.dim
        if params.n >= 2:
            seeds = [embed_two_string(params, f)
                     for f in e2_idempotents(params)]
            rows, piv = _ideal_closure(reg, seeds)
        else:
            rows, piv = np.zeros((0, D), dtype=np.int64), []
        self.ideal_rows = rows
        self.ideal_rank = len(piv)
        self.dim = D - self.ideal_rank
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
        self.T = {i: self._q(reg.T[i]) for i in reg.T}
        self.L = {k: self._q(reg.L[k]) for k in reg.L}
        self.unit = matmul((Pi, reg.unit), p)

    def _q(self, M: np.ndarray) -> np.ndarray:
        """The quotient matrix of M: reduce its columns at the lifts of
        the quotient basis, which are the non-pivot basis vectors."""
        return matmul((self.quotient_map, M[:, self._nonpiv]), self.p)

    def times_basis(self, ops: dict, u: np.ndarray) -> np.ndarray:
        """The walk :meth:`~.hecke.RegularRep.times_basis` of H, kept at
        the non-pivot keys, the basis of B."""
        return self.reg.times_basis(ops, u)[:, self._nonpiv]

    def push(self, el) -> np.ndarray:
        """Quotient left-multiplication matrix of an element of H, given
        as a coefficient dict or vector on the normal-form basis: column j
        is u times the j-th quotient basis element, the image of the j-th
        non-pivot key, for the quotient vector u of the element.  The
        products are taken in the quotient itself: :meth:`times_basis`
        with right multiplication by the generators, the star conjugates
        S g S of the quotient star S, formed on each call: the tests'
        reference; the pipeline forms no right multiplication."""
        p, S = self.p, self._q(self.reg.star_mat)
        right = {kind: {i: matmul((S, X, S), p) for i, X in ops.items()}
                 for kind, ops in (("T", self.T), ("L", self.L))}
        u = matmul((self.quotient_map, self.reg.coefficients(el)), p)
        return self.times_basis(right, u)


def build_blob(params: HeckeParams) -> "BlobAlgebra":
    """Construct the quotient algebra B with certified dimension."""
    return BlobAlgebra(params)


# ---------------------------------------------------------------------------
# Quiver-Hecke generator images
# ---------------------------------------------------------------------------


def _leaves_block(X: dict, iseq) -> bool:
    """Whether the block-sparse X has a block off the diagonal in the row
    or the column block of class i, i.e. fails to commute with P_i."""
    return any(j != i and iseq in (j, i) for j, i in X)


class KLRImages:
    """Images of the quiver-Hecke generators inside the given algebra,
    held in its weight-space coordinates.

    **The carrier.**  This class and the cellular layer read from
    ``algebra`` only ``params``, ``p``, ``q``, ``dim``, ``unit`` (the
    coordinate vector of 1), ``T`` and ``L`` (dense left multiplication
    by T_r and L_k), ``is_quotient`` (whether B's vanishing pattern is
    checked) and ``times_basis(ops, u)``: the columns X(b), b running over
    the carrier's basis, of the linear map X with X(1) = u and X(b g) =
    ops[kind][i] X(b) for each generator g = T_i (kind "T") or L_i (kind
    "L").  :class:`BlobAlgebra` (B) and :class:`~.hecke.RegularRep` (H)
    state them.

    **Weight-space coordinates.**  The columns of ``C`` are the bases of
    the nonzero joint generalized eigenspaces of the images of L_1, ...,
    L_n at (q^(i_1), ..., q^(i_n)), which :func:`~.hecke.weight_spaces`
    splits off; ``blocks[i]`` is the slice of the d_i columns of class i.
    Weights that are not powers of q leave the blocks short of the
    dimension, which raises "sum of e(i) = 1".  In B only the residue
    sequences of one-column tableaux have nonzero weight spaces.

    Every operator X is held as C^-1 X C in block-sparse form, {(row
    block j, column block i): the nonzero d_j x d_i block}, so a changed
    operator is still held exactly.  ``E[i]`` is the weight idempotent
    e(i), the projection P_i onto block i, as the Brundan-Kleshchev
    isomorphism defines it; ``T[r]`` and ``L[k]`` are left multiplication
    by T_r and L_k (no right multiplication is held: the cellular layer
    reads it off sigma); ``Y[k]`` is y_k, the block 1 - q^(-i_k) L_k on
    each class; ``PSI[r]`` is psi_r (:meth:`_psi`), taking block i to
    block s_r i.  The only inverses taken are of C and of d_i x d_i
    blocks.  The construction certifies
    that the L_k are block-diagonal (raising :class:`RelationFailure`
    otherwise), and :meth:`relation_failures` the presentation, whose
    residue cases it reads, as :mod:`.klrcalc` does, off ``square_terms``
    and ``braid_sign`` of :mod:`.combinatorics`; :mod:`.klrcalc` evaluates
    its words on the same held forms.  Only :meth:`dense` (C X C^-1 for a
    held X) and :attr:`sigma`, for the tests, form matrices on the
    carrier's basis; no attribute is set after the constructor.

    **The anti-involution.**  sigma fixes e(i), y_k and psi_r.
    :meth:`_psi` keeps the blocks of Q_r(i) and P_r(i) in T_r e(i) =
    psi_r Q_r(i) e(i) - P_r(i) e(i), so sigma(T_r) is known in closed
    form in any carrier, and sigma is filled along ``times_basis``.
    It maps e(i)A onto A e(i), so its adapted form, formed on each call
    of :meth:`_held_sigma`, is a dense matrix.  Only its certificate,
    :meth:`_sigma_failures` in :meth:`relation_failures`, reads it; the
    cellular layer relies on what that proves."""

    def __init__(self, algebra: BlobAlgebra):
        self.algebra = A = algebra
        self.params = params = A.params
        p, q, n = A.p, A.q, params.n
        self.p, self.q, self.e, self.n = p, q, params.e, n
        self.C, self.blocks = weight_spaces(A.L, params)
        if self.C.shape[1] != A.dim:
            raise RelationFailure(
                "sum of e(i) = 1", f"the images of the e(i) have "
                f"{self.C.shape[1]} dimensions, not {A.dim}")
        # the weight spaces are independent, so the square C is invertible
        self._Cinv = invert_matrix(self.C, p)
        self._unit = matmul((self._Cinv, A.unit), p)
        self.identity = {(i, i): np.eye(sl.stop - sl.start, dtype=np.int64)
                         for i, sl in self.blocks.items()}
        self.E = {i: {(i, i): self.identity[i, i]} for i in self.blocks}
        self.T = {r: self._adapt(X) for r, X in A.T.items()}
        self.L = {k: self._adapt(X) for k, X in A.L.items()}
        for k, X in self.L.items():
            for iseq in self.blocks:
                if _leaves_block(X, iseq):
                    raise RelationFailure("y_k e(i) = e(i) y_k", (k, iseq))
        self.Y = {k: block_lincomb([(1, self.identity)] + [
            (-pow(q, -i[k - 1], p), {(i, i): self.L[k].get((i, i), 0)})
            for i in self.blocks], p) for k in range(1, n + 1)}
        self.PSI, self._QP = {}, {}
        for r in range(1, n):
            self.PSI[r], self._QP[r] = self._psi(r)

    # -- weight-space coordinates --------------------------------------------

    def _adapt(self, X: np.ndarray) -> dict:
        """The held form of a dense matrix X: the nonzero blocks of
        C^-1 X C."""
        return block_split(matmul((self._Cinv, X, self.C), self.p),
                           self.blocks, self.blocks)

    def _assemble(self, X: dict) -> np.ndarray:
        """The dense adapted matrix of the held X."""
        out = np.zeros_like(self.C)
        for (j, i), M in X.items():
            out[self.blocks[j], self.blocks[i]] = M
        return out

    def _apply(self, X: dict, v: np.ndarray) -> np.ndarray:
        """X v for the held X and adapted coordinates v (a vector, or
        columns); a block of v that is zero is skipped."""
        p, out = self.p, np.zeros_like(v)
        for (j, i), M in X.items():
            vi, sj = v[self.blocks[i]], self.blocks[j]
            if vi.any():
                out[sj] = (out[sj] + matmul((M, vi), p)) % p
        return out

    def dense(self, X: dict) -> np.ndarray:
        """C X C^-1, the matrix on the carrier's basis of the held X, one
        product per block."""
        p, C, Cinv = self.p, self.C, self._Cinv
        out = np.zeros_like(C)
        for (j, i), M in X.items():
            out = (out + matmul((C[:, self.blocks[j]], M,
                                 Cinv[self.blocks[i]]), p)) % p
        return out

    def _projection_failures(self) -> list[RelationFailure]:
        """Certificate of C^-1 E[i] C = P_i for every i: each held E[i] is
        the identity block of class i and nothing else, and the E[i] add
        up to the held identity.  The constructor's exact inverse of the
        square C then makes the dense e(i) = C P_i C^-1 orthogonal
        idempotents adding up to 1."""
        p, I = self.p, self.identity
        fails = [RelationFailure("e(i) is the block projection", i)
                 for i, Ei in self.E.items()
                 if not block_equal(Ei, {(i, i): I[i, i]}, p)]
        total = block_lincomb([(1, Ei) for Ei in self.E.values()], p)
        if not block_equal(total, I, p):
            fails.append(RelationFailure("sum of e(i) = 1", "all"))
        return fails

    # -- the crossings, column block by column block ------------------------

    def _psi(self, r: int) -> tuple[dict, dict]:
        """The held psi_r, whose column block i is psi_r e(i), and {i: the
        d_i x d_i blocks of Q_r(i) and P_r(i)} for :meth:`_held_sigma`.  On
        block i, T_r e(i) = psi_r Q_r(i) e(i) - P_r(i) e(i)
        (Brundan-Kleshchev, Invent. Math. 2009, section 4), where the
        normalizer Q_r(i) and the correction P_r(i) are functions of L_r
        and L_(r+1) on the block; psi_r e(i) is (T_r + P_r(i)) e(i)
        against the inverse of the block of Q_r(i); a singular block (a
        mislabelled split) raises "psi_r e(i) defined" at (r, i)."""
        p, q, e, Tt = self.p, self.q, self.e, self.T[r]
        psi, QP = {}, {}

        def inverse(M):
            try:
                return invert_matrix(M, p)
            except ValueError:   # singular mod p
                raise RelationFailure("psi_r e(i) defined", (r, iseq)) \
                    from None
        for iseq, sl in self.blocks.items():
            x, z = self.L[r][iseq, iseq], self.L[r + 1][iseq, iseq]
            ir, ir1 = iseq[r - 1], iseq[r]
            if ir == ir1:
                # same residue i on both strands: (T_r + 1) against
                # Brundan-Kleshchev's Q_r(i) = 1 - q + q y_{r+1} - y_r,
                # which is q^-i (L_r - q L_{r+1}) on the block since y_k =
                # 1 - q^-i L_k there.  Its negative would flip psi_r e(i)
                # and break the dot relations, which fix psi_r on equal
                # residues as f -> (f - s_r f) / (y_{r+1} - y_r) in the
                # polynomial representation.
                P = np.eye(sl.stop - sl.start, dtype=np.int64)
                N = pow(q, -ir, p) * ((x - q * z) % p) % p
            else:
                # distinct residues: P_r(i) = (1 - q) L_{r+1} (L_{r+1} -
                # L_r)^-1 on the block, and one normalizer per case of
                # i_{r+1} - i_r
                inv = inverse((z - x) % p)
                P = matmul(((1 - q) % p * z % p, inv), p)
                d = (ir1 - ir) % e
                if d == 1:
                    N = matmul(((x - q * z) % p, inv), p)
                elif d == e - 1:
                    N = pow(q, ir, p) * inverse((x - z) % p) % p
                else:
                    N = matmul(((q * x - z) % p, inv), p)
            U = {(j, i): M for (j, i), M in Tt.items() if i == iseq}
            U[iseq, iseq] = (Tt.get((iseq, iseq), 0) + P) % p
            Ninv = inverse(N)
            psi.update({key: matmul((M, Ninv), p) for key, M in U.items()})
            QP[iseq] = (N, P)
        return {key: M for key, M in psi.items() if M.any()}, QP

    # -- the anti-involution fixing the generator images ------------------

    def _held_sigma(self) -> np.ndarray:
        """The adapted form C^-1 sigma C of the anti-involution that fixes
        e(i), y_k and psi_r, the cellular one (m_{S,T} -> m_{T,S};
        Graham-Lehrer, Hu-Mathas for the quiver-Hecke case), built the
        same way in every carrier.

        It fixes each L_k, a combination of the e(i) and y_k.  By
        :meth:`_psi` it sends T_r to sum_i e(i) Q_r(i) psi_r - P_r(i) e(i),
        whose adapted rows of block i are the block of Q_r(i) times row
        block i of psi_r, less the block of P_r(i) in column block i.  So
        sigma(1) = 1 and sigma(b g) = sigma(g) sigma(b) fill the adapted
        coordinates of its columns along the carrier's ``times_basis``.
        This assumes that sigma exists; :meth:`_sigma_failures` certifies
        the result: an involution, fixing every generator, and reversing
        every product."""
        p, left = self.p, {}
        for r, QP in self._QP.items():
            X = block_lincomb(
                [(1, {(j, i): matmul((QP[j][0], M), p)
                      for (j, i), M in self.PSI[r].items()}),
                 (-1, {(i, i): P for i, (_, P) in QP.items()})], p)
            left[r] = self._assemble(X)
        L = {k: self._assemble(X) for k, X in self.L.items()}
        cols = self.algebra.times_basis({"T": left, "L": L}, self._unit)
        return matmul((cols, self.C), p)

    @property
    def sigma(self) -> np.ndarray:
        return matmul((self.C, self._held_sigma(), self._Cinv), self.p)

    # -- relation suite ---------------------------------------------------

    def relation_failures(self) -> list[RelationFailure]:
        """Exact check of every defining relation, with the vanishing
        pattern that distinguishes the quotient from the full quiver-Hecke
        algebra when the carrier is the quotient.

        The checks run on the held forms, conjugate by C to the dense
        matrices.  C^-1 e(i) C = P_i stands in for e(i) e(j) = delta_ij
        e(i) and sum_i e(i) = 1, and fails as "e(i) is the block
        projection" at a class i or as "sum of e(i) = 1".  Then X e(i) = Z
        e(i) for all i is one held identity X = Z, Z a sum against the e(i)
        where the right side depends on i (``comb.square_terms``,
        ``comb.braid_sign``), failing at the column blocks where X - Z is
        not zero, as dense products would.  y_k e(i) = e(i) y_k fails where
        y_k leaves row or column block i, psi_r e(i) = e(s_r i) psi_r where
        column block i of psi_r leaves row block s_r i.

        So e(i) is certified, with no eigenspace recomputed, as the
        projection onto the joint generalized eigenspace of the L_k at q^i:
        the construction makes every L_k block-diagonal, "y_k nilpotent"
        (block i of y_k is 1 - q^(-i_k) L_k) puts block i inside it, the
        constructor's exact inverse of the square C makes the blocks fill
        the algebra, and q has order e, so distinct i give distinct
        eigenvalues and block i is all of it."""
        p, e, n = self.p, self.e, self.n
        Y, PSI, blocks = self.Y, self.PSI, self.blocks
        kap = set(k % e for k in self.params.mc.kappa)

        def broken(*terms) -> set:
            """The column blocks of sum c (chain) that are not zero, over
            the (c, chain of held operators) of ``terms``."""
            return {i for _, i in block_lincomb(
                [(c, block_matmul(chain, p)) for c, chain in terms], p)}

        def minus(right: dict) -> list:
            """-sum_i sum c y_(k_1) ... y_(k_m) e(i) over the (c, (k_1, ...,
            k_m)) of right[i], as terms of ``broken``: one per dot run."""
            by_dots: dict = {}
            for i, terms in right.items():
                for c, dots in terms:
                    by_dots.setdefault(dots, []).append(
                        (c, {(i, i): self.identity[i, i]}))
            return [(-1, tuple(Y[k] for k in dots) + (block_lincomb(X, p),))
                    for dots, X in by_dots.items()]

        fails = self._projection_failures()
        killed = broken((1, (Y[1],)))
        for iseq in self.E:
            if iseq[0] % e not in kap:
                fails.append(RelationFailure(
                    "e(i) = 0 for unsupported first residue", iseq))
            if self.algebra.is_quotient and n >= 2 and \
                    iseq[1] % e == (iseq[0] + 1) % e:
                fails.append(RelationFailure(
                    "e(i) = 0 for second residue one above the first",
                    iseq))
            if iseq in killed:
                fails.append(RelationFailure("y_1 e(i) = 0", iseq))
        for k in Y:
            fails += [RelationFailure("y_k y_m commute", (k, m)) for m in Y
                      if k < m and broken((1, (Y[k], Y[m])),
                                          (-1, (Y[m], Y[k])))]
            fails += [RelationFailure("y_k e(i) = e(i) y_k", (k, iseq))
                      for iseq in self.E if _leaves_block(Y[k], iseq)]
            power = Y[k]
            for _ in range(self.algebra.dim.bit_length()):   # 2^m > dim
                power = block_matmul((power, power), p)
            if power:
                fails.append(RelationFailure("y_k nilpotent", k))
        fails += self._sigma_failures()
        for r, Pr in PSI.items():
            fails += [RelationFailure("distant psi commute", (r, s))
                      for s, Ps in PSI.items()
                      if s > r + 1 and broken((1, (Pr, Ps)), (-1, (Ps, Pr)))]
            fails += [RelationFailure("psi_r y_k commute", (r, k)) for k in Y
                      if k not in (r, r + 1) and
                      broken((1, (Pr, Y[k])), (-1, (Y[k], Pr)))]
            delta = minus({i: [(1, ())] for i in blocks if i[r - 1] == i[r]})
            named = [
                ("psi_r e(i) = e(s_r i) psi_r",
                 {i for j, i in Pr if j != comb.swap_entries(i, r)}),
                ("psi_r y_{r+1} e(i) = (y_r psi_r + delta) e(i)",
                 broken((1, (Pr, Y[r + 1])), (-1, (Y[r], Pr)), *delta)),
                ("y_{r+1} psi_r e(i) = (psi_r y_r + delta) e(i)",
                 broken((1, (Y[r + 1], Pr)), (-1, (Pr, Y[r])), *delta)),
                ("psi_r^2 e(i)", broken((1, (Pr, Pr)), *minus(
                    {i: comb.square_terms(i, r, e) for i in blocks})))]
            fails += [RelationFailure(name, (r, iseq)) for iseq in blocks
                      for name, cols in named if iseq in cols]
        for r in range(1, n - 1):
            Pr, Pn = PSI[r], PSI[r + 1]
            cols = broken((1, (Pr, Pn, Pr)), (-1, (Pn, Pr, Pn)), *minus(
                {i: [(comb.braid_sign(i, r, e), ())] for i in blocks}))
            fails += [RelationFailure("braid correction", (r, iseq))
                      for iseq in blocks if iseq in cols]
        return fails

    def _sigma_failures(self) -> list[RelationFailure]:
        """Exact certificate of sigma on held operators: sigma^2 = 1, it
        fixes each generator image, and it reverses products, as sigma(1)
        = 1 and sigma L_g sigma commutes with L_h for g, h in {T_r, L_1}
        (proof at :meth:`~.hecke.RegularRep.relation_failures`, L_x being
        left multiplication by x).  Each unordered pair {g, h} is tested
        once, as conjugating the commutator by sigma swaps g and h.  A
        failure names the pair's first g in {T_r, L_1}."""
        p, S, one = self.p, self._held_sigma(), self._unit
        fails = []
        if not np.array_equal(matmul((S, S), p), np.eye(len(S))):
            fails.append(RelationFailure("star is an involution", "sigma"))
        images = [(name, self._apply(G, one))
                  for name, G in _named_generators(self)]
        fails += [RelationFailure("star fixes the generators", name)
                  for name, v in images
                  if not np.array_equal(matmul((S, v), p), v)]
        if not np.array_equal(matmul((S, one), p), one):
            fails.append(RelationFailure("star reverses products", "1"))
        gens = [(f"T_{r}", X) for r, X in self.T.items()]
        gens.append(("L_1", self.L[1]))
        for a, (name, G) in enumerate(gens):
            # R = sigma G sigma, held; each unordered pair once
            R = block_split(matmul((S, self._apply(G, S)), p), self.blocks,
                            self.blocks)
            if any(not block_equal(block_matmul((R, X), p),
                                   block_matmul((X, R), p), p)
                   for _, X in gens[a:]):
                fails.append(RelationFailure("star reverses products", name))
        return fails

    def degree_violations(self) -> list[str]:
        """Homogeneity of every defining relation under the degree table
        (0 for idempotents, 2 for dots, -2/1/0 for crossings), checked
        combinatorially over the realized residue sequences."""
        e = self.e
        out = []
        for iseq in self.E:
            for r in range(1, self.n):
                d = comb.psi_degree(iseq[r - 1], iseq[r], e)
                # dot-exchange: psi y' and y psi share degree d + 2; the
                # correction term has degree 0 and appears iff residues match
                if iseq[r - 1] == iseq[r] and d + 2 != 0:
                    out.append(f"dot-exchange inhomogeneous at {iseq}, {r}")
                # square: degree 2d must be 2 per dot of every term
                if any(len(dots) != d for _, dots in
                       comb.square_terms(iseq, r, e)):
                    out.append(f"square inhomogeneous at {iseq}, {r}")
            for r in range(1, self.n - 1):
                d1, d2 = (comb.word_degree(iseq, w, e)
                          for w in ((r, r + 1, r), (r + 1, r, r + 1)))
                if d1 != d2:
                    out.append(f"braid inhomogeneous at {iseq}, {r}")
                if comb.braid_sign(iseq, r, e) and d1 != 0:
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
    """{k: held JM_k = (1 - y_k) sum_i q^{i_k} e(i)}, Brundan-Kleshchev's
    y_k read backwards, for ``images`` whose relation suite is empty.
    JM_k is the image of L_k, as :class:`KLRImages` sets y_k = 1 -
    q^(-i_k) L_k on each block and raises unless L_k is block-diagonal;
    sigma fixes it, fixing e(i) and y_k and reversing products; and the
    JM_k commute by the suite's "y_k y_m commute" and "y_k e(i) = e(i)
    y_k"."""
    p, q = images.p, images.q
    return {k: block_matmul((
        block_lincomb([(1, images.identity), (-1, images.Y[k])], p),
        block_lincomb([(pow(q, iseq[k - 1], p), Ei)
                       for iseq, Ei in images.E.items()], p)), p)
        for k in range(1, algebra.params.n + 1)}


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
    """The one-column family ``m_{S,T}`` of a weighting theta (zero by
    default) in the carrier of ``images``, indexed by pairs of standard
    tableaux of a common one-column shape: the star of the crossing word
    of d(S), the idempotent e(i^lam) of the residue sequence of
    t^lam_theta, and the crossing word of d(T), where t^lam_theta d(S) =
    S.  ``below[i, j]`` says that the shape of pair i is not strictly
    above that of pair j, so the cell order keeps a coefficient at (i, j);
    ``residues[S]`` is i^S.

    **Held form.**  For images whose relation suite is empty, m_{S,T}
    lies in e(i^S)B: the projection certificate makes E[i] the identity
    block of class i, and "psi_r e(i) = e(s_r i) psi_r" takes block i to
    block s_r i.  So the pairs are grouped by i^S (``members[g]``: the
    places in ``index`` of the pairs of group g), and C^-1 (family),
    which ``_adapted`` holds, is its diagonal blocks (:meth:`_blocks`).
    A class the carrier drops has e(i^lam) = 0 there, so its pairs give
    zero columns.  ``rank`` is the sum of the blocks' ranks and ``_inv``,
    when that is dim B = the number of pairs (else None), the inverse of
    each block, {(group, weight block): block}; :meth:`coords` takes one
    small product per block.  ``matrix``, column j the family's j-th pair
    of ``index`` on the carrier's basis, is formed on first use.

    The constructor certifies nothing: :func:`build_cellular_basis` checks
    the rank, and the swap by sigma holds by construction."""

    def __init__(self, algebra: BlobAlgebra, images: KLRImages,
                 theta=None):
        self.algebra = A = algebra
        self.images = images
        self.params = params = A.params
        p, l = A.p, params.l
        self.theta = comb.theta_zero(l) if theta is None else theta
        self.mc = mc = params.mc
        self.shapes = shapes = comb.one_column_shapes(params.n, l)
        self.t_lam = {lam: comb.t_lambda(lam, self.theta) for lam in shapes}
        # i^lam is read off the same t^lam_theta as the d(S)
        self.i_lam = {lam: comb.residue_seq(t, mc)
                      for lam, t in self.t_lam.items()}
        self.std = std = {lam: comb.std_tableaux(lam) for lam in shapes}
        self.index = index = [(lam, S, T) for lam in shapes
                              for S in std[lam] for T in std[lam]]
        self.column = {(S, T): j for j, (_, S, T) in enumerate(index)}
        self.word = word = {
            S: comb.official_word(comb.d_perm(S, self.theta))
            for lam in shapes for S in std[lam]}
        self.residues = residues = {S: comb.residue_seq(S, mc)
                                    for lam in shapes for S in std[lam]}
        members: dict = {}
        for j, (_, S, _) in enumerate(index):
            members.setdefault(residues[S], []).append(j)
        self.members = {g: np.array(js) for g, js in members.items()}
        # the groups laid end to end, and the place of each pair there
        order = np.concatenate(list(self.members.values()))
        ends = np.cumsum([len(js) for js in members.values()])
        self._slots = {g: slice(b - len(js), b)
                       for (g, js), b in zip(members.items(), ends)}
        self._place = np.argsort(order)
        # C^-1 m_{S,T} 1 = psi_{d(S)}^* (e(i^lam) psi_{d(T)} C^-1 1): the
        # bracket is one column per T, the crossings of d(S) act on all
        cols = []
        for lam in shapes:
            heads = []
            for T in std[lam]:
                X = images.E.get(self.i_lam[lam], {})
                for r in word[T]:
                    X = block_matmul((X, images.PSI[r]), p)
                heads.append(images._apply(X, images._unit))
            for S in std[lam]:
                V = np.array(heads).T
                for r in word[S]:
                    V = images._apply(images.PSI[r], V)
                cols.append(V)
        self._adapted = np.hstack(cols)
        # one elimination per weight block
        found = {g: rank_and_inverse(M, p)
                 for (g, _), M in self._blocks().items()}
        self.rank = sum(r for r, _ in found.values())
        self._inv = {(g, g): inv for g, (_, inv) in found.items()} \
            if self.rank == A.dim == len(index) else None
        # strictly-dominating shape comparisons, for the cell order
        self._above = {
            lam: {mu for mu in shapes
                  if comb.strictly_dominates(mu, lam, self.theta)}
            for lam in shapes}
        lams = [lam for lam, _, _ in index]
        self.below = np.array([[mu not in self._above[lam] for lam in lams]
                               for mu in lams])

    def _blocks(self) -> dict:
        """The diagonal blocks {(g, g): block} of C^-1 (family), cut out of
        ``_adapted``: all of it for images whose relation suite is empty."""
        blocks = self.images.blocks
        return {(g, g): self._adapted[blocks[g], js]
                for g, js in self.members.items() if g in blocks}

    def _pairs(self, X: dict, cols: dict, width: int) -> np.ndarray:
        """The dense matrix of a block-sparse X whose row blocks are
        groups, with its rows in the order of ``index`` and its column
        block c at the columns ``cols[c]``."""
        out = np.zeros((len(self.index), width), dtype=np.int64)
        for (g, c), M in X.items():
            out[self._slots[g], cols[c]] = M
        return out[self._place]

    @cached_property
    def matrix(self) -> np.ndarray:
        """The family on the carrier's basis, C times its adapted form."""
        return matmul((self.images.C, self._adapted), self.algebra.p)

    def vector(self, S, T) -> np.ndarray:
        return self.matrix[:, self.column[(S, T)]]

    def expand(self, v: np.ndarray) -> np.ndarray:
        """Coefficients of a reduced vector (or of columns) on the cellular
        basis, through the dense inverse C^-1 of the held one."""
        inv = self._pairs(self._inv, self.images.blocks, len(v))
        return matmul((inv, self.images._Cinv, v), self.algebra.p)

    def coords(self, M: dict) -> np.ndarray:
        """The held operator M written on the cellular basis: column j
        holds the coefficients of M m_j, for the j-th pair of ``index``;
        one product per block."""
        X = block_matmul((self._inv, M, self._blocks()), self.algebra.p)
        return self._pairs(X, self._slots, len(self.index))[:, self._place]

    @cached_property
    def generators(self) -> dict:
        """{name: :meth:`coords` of the held image} for each y_k and psi_r,
        the one table that the cellularity and cell-module checks read."""
        Y, PSI = self.images.Y, self.images.PSI
        return {**{f"y_{k}": self.coords(M) for k, M in Y.items()},
                **{f"psi_{r}": self.coords(M) for r, M in PSI.items()}}

    def degree(self, S, T) -> int:
        lam = comb.shape_of(S)
        ilam = self.i_lam[lam]
        return comb.word_degree(ilam, self.word[S], self.params.e) + \
            comb.word_degree(ilam, self.word[T], self.params.e)


def build_cellular_basis(algebra: BlobAlgebra, images: KLRImages,
                         theta=None) -> CellularBasis:
    """Construct the cellular basis for ``images`` whose relation suite is
    empty, and certify it: dim B pairs of full rank.  The rest holds by
    construction.  The projection certificate and "psi_r e(i) = e(s_r i)
    psi_r" put m_{S,T} in e(i^S)B, so the weight blocks hold the family
    (:class:`CellularBasis`).  sigma reverses products and fixes e(i) and
    psi_r (:meth:`KLRImages._sigma_failures`), and m_{S,T} =
    psi_{d(S)}^* e(i^lam) psi_{d(T)}, d(S) acting on the left last letter
    first, so sigma(m_{S,T}) = m_{T,S}; and d(t^lam_theta) = 1, so
    m_{T^lam,T^lam} = e(i^lam)."""
    A = algebra
    basis = CellularBasis(A, images, theta)
    if basis._inv is None:
        raise ValueError(
            f"cellular family of size {len(basis.index)} has rank "
            f"{basis.rank}, expected {A.dim}")
    return basis


# ---------------------------------------------------------------------------
# Cellularity, Jucys-Murphy triangularity, grading
# ---------------------------------------------------------------------------


def _named_generators(images: KLRImages) -> list[tuple[str, dict]]:
    """(name, held image) of every generator e(i), y_k, psi_r."""
    out = [(f"e({iseq})", Ei) for iseq, Ei in images.E.items()]
    out += [(f"y_{k}", images.Y[k]) for k in images.Y]
    out += [(f"psi_{r}", images.PSI[r]) for r in images.PSI]
    return out


def check_cellularity(algebra: BlobAlgebra, basis: CellularBasis
                      ) -> list[str]:
    """Condition (ii) of cellularity, with exact coefficients, as a block
    identity: the matrix X of each generator a on the cellular basis
    (:meth:`CellularBasis.coords`) is r_a (x) 1 on the pairs of each shape
    lambda, with r_a[u, S] read off at T = T^lam and the identity running
    over T, and vanishes on the other rows of shapes not strictly above
    lambda.  A column breaking this is reported at its first such row.
    The same X gives the grading lines: every nonzero coefficient of
    a m_{S,T} must have degree deg a + deg m_{S,T}.  The cellularity
    lines of y_k and psi_r come before their grading lines.

    Only y_k and psi_r are written on the basis.  E[i] is the identity
    block of class i (:meth:`KLRImages._projection_failures`) and
    ``_inv`` the exact blockwise inverse of the family, block-diagonal by
    weight (:class:`CellularBasis`), so the X of e(i) is the
    diagonal selecting the pairs with i^S = i: 1 (x) 1 on each shape and
    of degree 0, it gives no line."""
    images, e, index = basis.images, basis.params.e, basis.index
    degs = np.array([basis.degree(S, T) for _, S, T in index])
    # m_{S,T} lies in e(i^S) B, where psi_r has degree psi_degree(i^S)
    table = [(f"y_{k}", degs + 2) for k in images.Y]
    table += [(f"psi_{r}", degs + [comb.psi_degree(
        *basis.residues[S][r - 1:r + 1], e) for _, S, _ in index])
        for r in images.PSI]
    # W = r (x) 1: W[(U, V), (S, T)] = X[(U, T^lam), (S, T^lam)] when both
    # pairs have shape lam and V = T, i.e. when their keys agree; else 0
    top = [basis.column[(U, basis.t_lam[lam])] for lam, U, _ in index]
    ids: dict = {}
    key = np.array([ids.setdefault((lam, V), len(ids)) for lam, _, V in index])
    cells, grading = [], []
    for name, target in table:
        X = basis.generators[name]
        W = np.where(key[:, None] == key, X[np.ix_(top, top)], 0)
        bad = (X != W) & basis.below
        for j in np.flatnonzero(bad.any(axis=0)):
            i = bad[:, j].argmax()
            cells.append(f"{name} at (S, T) = {index[j][1:]}: coefficient "
                         f"on {index[i][1:]} is {X[i, j]}, expected {W[i, j]}")
        bad = (X != 0) & (degs[:, None] != target)
        grading += [f"{name}.m_({index[j][1]},{index[j][2]}) has a component "
                    f"of degree {degs[i]}, expected {target[j]}"
                    for j, i in zip(*np.nonzero(bad.T))]
    return cells + grading


def check_jm(algebra: BlobAlgebra, basis: CellularBasis, jm: dict
             ) -> list[str]:
    """Triangularity of the Jucys-Murphy action on the cellular basis:
    acting on the left of m_{S,T}, JM_k has diagonal coefficient
    q^{residue of k in S} and otherwise moves S strictly up in dominance
    (modulo strictly dominating shapes).  The images of ``basis`` must
    pass their relation suite.  Each JM_k is written on the basis once,
    X = ``coords(jm[k])``; column j is read at its nonzero and diagonal
    entries, on rows of shapes not strictly above.

    This covers the right action too: sigma fixes L_k, reverses products
    (:meth:`KLRImages._sigma_failures`) and swaps m_{S,T} and m_{T,S}
    (:func:`build_cellular_basis`), so m_{S,T} L_k = sigma(L_k m_{T,S})
    has on m_{U,V} the coefficient of L_k m_{T,S} on m_{V,U}: the right
    condition at (S, T) is the left one at (T, S)."""
    p, q = algebra.p, algebra.q
    report = []
    for k, M in jm.items():
        X = basis.coords(M)
        for j, (lam, S, T) in enumerate(basis.index):
            diag = pow(q, basis.residues[S][k - 1], p)
            # the diagonal coefficient is compared even when zero
            seen = X[:, j] != 0
            seen[j] = True
            for i in np.flatnonzero(seen & basis.below[:, j]):
                mu, U, V = basis.index[i]
                if not (mu == lam and V == T and (
                        U == S or comb.tableau_strictly_dominates(
                            U, S, basis.theta))):
                    report.append(f"JM_{k} left on ({S}, {T}): stray "
                                  f"component on ({U}, {V})")
                elif U == S and X[i, j] != diag:
                    report.append(f"JM_{k} left on ({S}, {T}): diagonal "
                                  f"coefficient {X[i, j]}, expected {diag}")
    return report


def cell_modules(algebra: BlobAlgebra, basis: CellularBasis
                 ) -> list[CellModule]:
    """Cell modules with the generator action rho(a) (the coefficients
    r_{u,S,a} of a m_{S,T^lam} read off at T = T^lam) and Gram matrices.
    The action of every shape is read off the y_k and psi_r on the basis
    (:attr:`CellularBasis.generators`, which :func:`check_cellularity`
    reads too); rho(e(i)) selects the S with i^S = i (proof there).

    Row S of the Gram matrix is row T^lam of rho(e(i^lam)) rho(psi_(r_1))
    ... rho(psi_(r_m)), for the word r_1 ... r_m of d(S): m_{T^lam,S}
    m_{T,T^lam} = e(i^lam) psi_{d(S)} m_{T,T^lam} has coefficient <S, T>
    on m_{T^lam,T^lam}.  This reads a product in the cell module, so it
    rests on rho being a representation modulo the pairs of shapes
    strictly above lambda, which the r (x) 1 identity of
    :func:`check_cellularity` gives: each generator keeps their span and
    acts on the pairs of shape lambda as r_a (x) 1.  sigma, a certified
    anti-involution swapping m_{U,V} and m_{V,U}, takes m_{T^lam,S}
    m_{T,T^lam} = <S, T> m_{T^lam,T^lam} (modulo higher shapes) to
    <T, S> = <S, T>, so the Gram matrix is symmetric.  The squared module
    dimensions add up to dim B, one pair per dimension
    (:func:`build_cellular_basis`)."""
    p, images = algebra.p, basis.images
    out = []
    for lam in basis.shapes:
        std, tl = basis.std[lam], basis.t_lam[lam]
        top = [basis.column[(S, tl)] for S in std]
        res = [basis.residues[S] for S in std]
        action = {f"e({i})": np.diag([r == i for r in res]).astype(np.int64)
                  for i in images.E}
        action.update({name: M[np.ix_(top, top)]
                       for name, M in basis.generators.items()})
        e, t = action[f"e({basis.i_lam[lam]})"], std.index(tl)
        gram = np.array([
            matmul([e] + [action[f"psi_{r}"] for r in basis.word[S]], p)[t]
            for S in std])
        out.append(CellModule(shape=lam, tableaux=std, action=action,
                              gram=gram, gram_rank=rank(gram, p)))
    return out
