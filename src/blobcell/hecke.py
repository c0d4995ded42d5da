"""Cyclotomic Hecke algebras of type G(l,1,n) in two exact models.

* A *normal-form* model over the rational function field F_p(t): the
  algebra is free with basis ``L_1^{a_1} ... L_n^{a_n} T_w``
  (0 <= a_k < l, w in S_n), the parameter is q-hat = t, the cyclotomic
  roots are t^{hat_kappa_j}, and left multiplication by the generators
  is exact rewriting (``NormalForm``).  This is the one rewriting model.
  ``RegularRep`` is its specialization at a primitive e-th root of unity
  q: dense matrices mod p whose entries are the rewriting's polynomial
  entries evaluated at t = q.  Only T_i, L_1 and the star are rewritten
  key by key; the numerator arrays of t^{k-1} L_k come from the
  Jucys-Murphy recursion t^k L_{k+1} = T_k (t^{k-1} L_k) T_k, as sparse
  products over F_p[t] (``exactfield.poly_matmul``), and ``RegularRep``
  shares them with the Murphy engine.  ``RegularRep.relation_failures``
  checks the Ariki-Koike presentation in T_0 = L_1, ..., T_(n-1), each
  relation once (L_r L_s = L_s L_r at (1, 2) only), and certifies the star.

* A *seminormal* block model over F_p(t): one block per multipartition of
  n, with basis indexed by standard tableaux, the L_k acting diagonally
  through contents and the T_r acting through the classical two-term
  formulas, held as a numerator matrix over F_p[t] and one denominator.
  Its relations are checked with the denominators cleared, as polynomial
  identities.

On top of these sit the weight idempotents e(i), the projections onto the
joint generalized eigenspaces of L_1, ..., L_n at (q^(i_1), ..., q^(i_n))
(Brundan-Kleshchev), split off by :func:`~.exactfield.joint_eigenspaces`;
the tableau idempotents F_S of the product formula and their residue-class
sums E_[i] over F_p(t), which specialize at t = q to the e(i); and the
rank-one idempotents of the two-row/two-string subalgebra used to present
the blob quotient, each the weight idempotent of a singleton class.

``class_idempotent_vector`` reads e(i) 1 in H off one cached eigenspace
decomposition of the L_k of :func:`regular_rep` (:func:`weight_units`).
The product formula is kept only as the generic oracle over F_p(t)
(``MurphyEngine.murphy_vectors``, ``class_vector``, ``class_vectors``)
that the tests compare against: each F_S has a pole at t = q that cancels
in E_[i].  Only that oracle needs scipy (its sparse degree layers,
``MurphyEngine.ops``), and imports it on first use.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations, permutations, product
from math import factorial, gcd

import numpy as np

from . import combinatorics as comb
from .exactfield import (INT64_MAX, Poly, RatFunc, cyclic_subgroup,
                         has_order, invert_matrix, is_prime,
                         joint_eigenspaces, matmul, poly_matmul,
                         product_bound, root_of_unity)


# ---------------------------------------------------------------------------
# Parameters
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HeckeParams:
    """Numerical data for one algebra: size n, level l, quantum
    characteristic e, coefficient prime p, root of unity q, and the
    integral multicharge."""

    n: int
    l: int
    e: int
    p: int
    q: int
    hat_kappa: tuple[int, ...]

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"p = {self.p} is not prime")
        if not has_order(self.q, self.e, self.p):
            raise ValueError(f"q = {self.q} does not have order {self.e} mod {self.p}")
        if len(self.hat_kappa) != self.l:
            raise ValueError("multicharge length differs from the level")

    @property
    def mc(self) -> comb.Multicharge:
        return comb.Multicharge(tuple(self.hat_kappa), self.e)

    @property
    def kappa(self) -> tuple[int, ...]:
        return self.mc.kappa

    def validate(self) -> None:
        """Raise ValueError naming the violated multicharge condition."""
        msg = comb.multicharge_violation(self.mc, self.n)
        if msg is not None:
            raise ValueError(msg)

    def validate_exact(self) -> None:
        """:meth:`validate`, and reject a negative hat_kappa_j, a p too
        large for exact int64 matrices of size D = dim H = l^n n!, or a D
        whose 2n dense int64 matrices (T_i, L_k and the star of
        :class:`RegularRep`) would not fit in physical memory."""
        self.validate()
        if any(k < 0 for k in self.hat_kappa):
            raise ValueError(f"hat_kappa = {list(self.hat_kappa)}: the regular"
                             f" representation needs each Q_j = t^hat_kappa_j"
                             f" to be a polynomial")
        D = self.l ** self.n * factorial(self.n)
        if product_bound(D, self.p) > INT64_MAX:
            raise ValueError(
                f"p = {self.p} is too large for exact int64 products at "
                f"dim H = {D}: the product bound D (p - 1)^2 + p - 1 "
                f"exceeds 2^63 - 1")
        need = 16 * self.n * D * D
        have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        if need > have:
            raise ValueError(
                f"dim H = {D} is too large: the {2 * self.n} dense "
                f"D x D int64 matrices of the regular representation take "
                f"{need / 1e9:.1f} GB, more than the {have / 1e9:.1f} GB "
                f"of physical memory")


_DEFAULTS = {
    2: {"e": 5, "p": 11, "kappa": (0, 2)},
    3: {"e": 7, "p": 29, "kappa": (0, 2, 4)},
    4: {"e": 9, "p": 19, "kappa": (0, 2, 4, 6)},
}


def default_params(n: int, l: int, e: int | None = None, p: int | None = None,
                   q: int | None = None,
                   hat_kappa: tuple[int, ...] | None = None) -> HeckeParams:
    """Presets for levels 2, 3 and 4; any field can be overridden."""
    preset = _DEFAULTS.get(l, {})
    if e is None:
        e = preset.get("e")
    if e is None:
        raise ValueError(f"no preset for level {l}; pass e, p, hat_kappa explicitly")
    if e < 1:
        raise ValueError(f"e = {e}: need a quantum characteristic e >= 1")
    if p is None:
        p = preset.get("p")
        if p is None or (p - 1) % e:
            raise ValueError(f"no preset prime with e | p-1 for level {l}")
    if q is None:
        q = root_of_unity(p, e)
    if hat_kappa is None:
        kap = preset.get("kappa")
        if kap is None:
            kap = tuple(2 * j for j in range(l))
        # lift residues to a widely separated increasing multicharge
        lift = []
        lo = 0
        for r in kap:
            k = r + e * max(0, -(-(lo - r) // e))
            lift.append(k)
            lo = k + max(n, 1)
        hat_kappa = tuple(lift)
    params = HeckeParams(n=n, l=l, e=e, p=p, q=q % p, hat_kappa=tuple(hat_kappa))
    params.validate()
    return params


# ---------------------------------------------------------------------------
# Normal-form model over F_p(t)
# ---------------------------------------------------------------------------


def tpow(p: int, m: int) -> RatFunc:
    """t^m in F_p(t), any sign of m."""
    if m >= 0:
        return RatFunc.of_poly(Poly.monomial(p, 1, m))
    return RatFunc.make(Poly.const(p, 1), Poly.monomial(p, 1, -m))


class NormalForm:
    """The free model over F_p(t) on the basis L^a T_w, with q-hat = t and
    cyclotomic parameters Q_j = t^{hat_kappa_j}, and rewriting-based left
    multiplication by the generators.  Elements are dicts mapping basis
    keys (a, w) to RatFunc values.

    T_i, L_1, the star and the unnormalized t^{k-1} L_k
    (:meth:`lmul_l_unnorm`) take polynomials to polynomials when every
    Q_j is a nonnegative power of t (``validate_exact``); :class:`RegularRep`
    evaluates their entries at t = q.  Only L_k itself (:meth:`lmul_l`, k >
    1) divides, by t^{k-1}."""

    def __init__(self, n: int, l: int, p: int, hat_kappa):
        self.n = n
        self.l = l
        self.p = p
        self.zero = RatFunc.const(p, 0)
        self.one = RatFunc.const(p, 1)
        self.q = tpow(p, 1)
        self.Q = [tpow(p, kj) for kj in hat_kappa]
        if len(self.Q) != l:
            raise ValueError("need l cyclotomic parameters")
        self.perms = sorted(permutations(range(1, n + 1)))
        self.exps = list(product(range(l), repeat=n))
        self.basis = [(a, w) for a in self.exps for w in self.perms]
        self.index = {key: j for j, key in enumerate(self.basis)}
        self.dim = l ** n * factorial(n)
        self.identity_key = ((0,) * n, comb.perm_identity(n))
        self.qm1 = self.q - self.one
        # expand prod_j (x - Q_j) = x^l + sum_j cyclo_neg[j] x^j, so that
        # x^l = sum_j cyclo[j] x^j with cyclo[j] = -cyclo_neg[j]
        coeffs = [self.one]
        for Qj in self.Q:
            nxt = [self.zero] * (len(coeffs) + 1)
            for d, c in enumerate(coeffs):
                nxt[d + 1] = nxt[d + 1] + c
                nxt[d] = nxt[d] - c * Qj
            coeffs = nxt
        self.cyclo = [-coeffs[j] for j in range(l)]
        self._lengths = {w: comb.perm_length(w) for w in self.perms}

    # -- element helpers ----------------------------------------------------

    def unit(self):
        return {self.identity_key: self.one}

    def unit_at(self, key):
        return {key: self.one}

    def _accum(self, out, key, c):
        if key in out:
            s = out[key] + c
            if s.is_zero():
                del out[key]
            else:
                out[key] = s
        elif not c.is_zero():
            out[key] = c

    def add(self, x, y):
        out = dict(x)
        for key, c in y.items():
            self._accum(out, key, c)
        return out

    def scale(self, c, x):
        if c.is_zero():
            return {}
        return {key: c * v for key, v in x.items()}

    def sub(self, x, y):
        return self.add(x, self.scale(-self.one, y))

    def equal(self, x, y) -> bool:
        return not self.sub(x, y)

    # -- left multiplication by generators ----------------------------------

    def lmul_t(self, i: int, el):
        """Left multiply by T_i, 1 <= i <= n-1."""
        si = comb.simple(self.n, i)
        out: dict = {}
        for (a, w), c in el.items():
            alpha, beta = a[i - 1], a[i]
            terms = []  # (exponents, coeff, carries a T_i factor)
            swapped = list(a)
            swapped[i - 1], swapped[i] = beta, alpha
            terms.append((tuple(swapped), c, True))
            if alpha > beta:
                cc = -(c * self.qm1)
                for j in range(alpha - beta):
                    ex = list(a)
                    ex[i - 1], ex[i] = beta + j, alpha - j
                    terms.append((tuple(ex), cc, False))
            elif alpha < beta:
                cc = c * self.qm1
                for j in range(beta - alpha):
                    ex = list(a)
                    ex[i - 1], ex[i] = alpha + j, beta - j
                    terms.append((tuple(ex), cc, False))
            for ex, cc, with_t in terms:
                if not with_t:
                    self._accum(out, (ex, w), cc)
                    continue
                siw = comb.perm_mult(si, w)
                if self._lengths[siw] > self._lengths[w]:
                    self._accum(out, (ex, siw), cc)
                else:
                    self._accum(out, (ex, siw), self.q * cc)
                    self._accum(out, (ex, w), self.qm1 * cc)
        return out

    def lmul_l1(self, el):
        """Left multiply by L_1, folding the cyclotomic relation."""
        out: dict = {}
        for (a, w), c in el.items():
            if a[0] + 1 < self.l:
                self._accum(out, ((a[0] + 1,) + a[1:], w), c)
            else:
                for j in range(self.l):
                    self._accum(out, ((j,) + a[1:], w), c * self.cyclo[j])
        return out

    def lmul_l_unnorm(self, k: int, el):
        """Left multiply by t^{k-1} L_k = T_{k-1}...T_1 L_1 T_1...T_{k-1}.

        Denominator-free: polynomial inputs give polynomial outputs.  Its
        numerator arrays on the basis equal :attr:`RegularRep.entries`,
        which are formed from the same recursion on operator arrays, not
        by this rewriting; this is the generic model's operation and the
        tests' reference for them."""
        for i in range(k - 1, 0, -1):
            el = self.lmul_t(i, el)
        el = self.lmul_l1(el)
        for i in range(1, k):
            el = self.lmul_t(i, el)
        return el

    def lmul_l(self, k: int, el):
        """Left multiply by L_k = t^{1-k} (t^{k-1} L_k)."""
        el = self.lmul_l_unnorm(k, el)
        return self.scale(tpow(self.p, 1 - k), el) if k > 1 else el

    def lmul_word(self, word, el):
        """Left multiply by T_{word} = T_{word[0]} ... T_{word[-1]}."""
        for i in reversed(word):
            el = self.lmul_t(i, el)
        return el

    def lmul_basis(self, key, el):
        """Left multiply by the basis element L^a T_w."""
        a, w = key
        el = self.lmul_word(comb.official_word(w), el)
        for k in range(self.n, 0, -1):
            for _ in range(a[k - 1]):
                el = self.lmul_l(k, el)
        return el

    def multiply(self, x, y):
        out: dict = {}
        for key, c in x.items():
            out = self.add(out, self.scale(c, self.lmul_basis(key, y)))
        return out

    def star(self, el):
        """The anti-involution fixing every T_i and L_k."""
        out: dict = {}
        for (a, w), c in el.items():
            piece = self.unit_at((a, comb.perm_identity(self.n)))
            piece = self.lmul_word(comb.official_word(comb.perm_inverse(w)), piece)
            out = self.add(out, self.scale(c, piece))
        return out


# ---------------------------------------------------------------------------
# Specialized regular representation (mod p, numpy matrices)
# ---------------------------------------------------------------------------


class RegularRep:
    """Left regular representation of the specialized algebra over F_p,
    as dense integer matrices mod p: the generic normal form ``nf`` over
    F_p(t) specialized at t = q.

    It holds left multiplication by the generators (``T``, ``L``) and the
    anti-involution ``star_mat`` only, and forms no right multiplication:
    :meth:`relation_failures` certifies the star from left ones.

    T_i and ``star_mat`` are the polynomial entries of the generic
    rewriting evaluated at q, one basis key at a time.  ``entries[k]``
    holds the numerator of t^{k-1} L_k (:meth:`NormalForm.lmul_l_unnorm`)
    as coordinate arrays (degree a, row i, column j, value), the
    coefficient of t^a in row i of the image of basis element j; L_k is
    q^{1-k} sum_a q^a A_a.  Only ``entries[1]``
    (L_1) is rewritten key by key; the others follow from the
    Jucys-Murphy recursion L_{k+1} = t^{-1} T_k L_k T_k as
    ``entries[k+1]`` = T_k ``entries[k]`` T_k, two sparse products over
    F_p[t] (:func:`~.exactfield.poly_matmul`).  The
    :class:`MurphyEngine` of the same parameters expands its factors from
    these arrays, so L_k is formed once per algebra."""

    def __init__(self, params: HeckeParams):
        params.validate_exact()
        self.params = params
        p, q = params.p, params.q
        self.nf = nf = generic_normal_form(params)
        self.dim = nf.dim
        self.p = p
        self.id_index = nf.index[nf.identity_key]
        t_entries = {i: self._entries(nf.lmul_t, i)
                     for i in range(1, params.n)}
        # t^k L_(k+1) = T_k (t^(k-1) L_k) T_k
        self.entries = {1: self._entries(nf.lmul_l1)}
        for k in range(1, params.n):
            self.entries[k + 1] = poly_matmul(
                poly_matmul(t_entries[k], self.entries[k], p), t_entries[k], p)
        self.T = {i: self._at_q(t_entries[i]) for i in t_entries}
        self.L = {k: self._at_q(self.entries[k]) * pow(q, 1 - k, p) % p
                  for k in self.entries}
        self.star_mat = self._at_q(self._entries(nf.star))

    def _entries(self, op, *args) -> tuple[np.ndarray, ...]:
        """The polynomial operator ``op(*args, el)`` of the generic normal
        form as coordinate arrays (degree a, row i, column j, value): the
        coefficient of t^a in row i of the image of basis element j."""
        nf = self.nf
        quads = []
        for j, key in enumerate(nf.basis):
            for okey, c in op(*args, nf.unit_at(key)).items():
                i = nf.index[okey]
                quads.extend((a, i, j, cv)
                             for a, cv in enumerate(c.num.coeffs) if cv)
        return tuple(np.array(col, dtype=np.int64) for col in zip(*quads))

    def _at_q(self, entries) -> np.ndarray:
        """The dense matrix sum_a q^a A_a mod p of coordinate arrays."""
        p, q = self.p, self.params.q
        deg, rows, cols, vals = entries
        qpow = np.array([pow(q, a, p) for a in range(deg.max() + 1)],
                        dtype=np.int64)
        M = np.zeros((self.dim, self.dim), dtype=np.int64)
        np.add.at(M, (rows, cols), vals * qpow[deg] % p)
        return M % p

    def identity(self) -> np.ndarray:
        return np.eye(self.dim, dtype=np.int64)

    def unit_vector(self) -> np.ndarray:
        v = np.zeros(self.dim, dtype=np.int64)
        v[self.id_index] = 1
        return v

    def matrix_of(self, el) -> np.ndarray:
        """Left-multiplication matrix of an element given as a dict or a
        coefficient vector on the normal-form basis: its :meth:`product`
        with the identity matrix.  The tests' dense oracle: the program
        multiplies with :meth:`product` and the generator matrices."""
        return self.product(self.coefficients(el), self.identity())

    @cached_property
    def spanning_tree(self) -> list[tuple[str, int, np.ndarray, np.ndarray]]:
        """The basis as a tree under right multiplication by generators,
        one level at a time: (generator kind "T" or "L", generator index,
        indices of keys, indices of their parents), with key = parent *
        T_i or parent * L_k, by increasing depth sum(a) + length(w) of
        the key L^a T_w, so that each parent sits at a lower level than
        its keys."""
        n, index = self.params.n, self.nf.index
        ident = comb.perm_identity(n)
        levels: dict = {}
        for a, w in self.nf.basis:
            depth = sum(a) + comb.perm_length(w)
            if not depth:
                continue
            if w != ident:
                word = comb.official_word(w)
                parent = (a, comb.perm_from_word(n, word[:-1]))
                gen = ("T", word[-1])
            else:
                k = next(j for j in range(n) if a[j])
                parent = (a[:k] + (a[k] - 1,) + a[k + 1:], w)
                gen = ("L", k + 1)
            keys, parents = levels.setdefault((depth,) + gen, ([], []))
            keys.append(index[(a, w)])
            parents.append(index[parent])
        return [(kind, i, np.array(keys), np.array(parents))
                for (_, kind, i), (keys, parents) in sorted(levels.items())]

    def product(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Coefficient vector of x * y for reduced coefficient vectors x, y,
        from matrix-vector products only: the sum over the basis keys
        L^a T_w of x_(a,w) L^a (T_w y), with T_w y formed once per w.  A
        matrix y gives the products with each of its columns."""
        p, n = self.p, self.params.n
        out = np.zeros(y.shape, dtype=np.int64)
        tw_y: dict = {}
        for j in np.nonzero(x)[0]:
            a, w = self.nf.basis[j]
            if w not in tw_y:
                tw_y[w] = matmul([self.T[i] for i in comb.official_word(w)]
                                 + [y], p)
            mats = [self.L[k] for k in range(1, n + 1)
                    for _ in range(a[k - 1])]
            out = (out + int(x[j]) * matmul(mats + [tw_y[w]], p)) % p
        return out

    def coefficients(self, el) -> np.ndarray:
        """Reduced coefficient vector of an element given as a dict or a
        coefficient vector on the normal-form basis."""
        if not isinstance(el, dict):
            return np.asarray(el, dtype=np.int64) % self.p
        v = np.zeros(self.dim, dtype=np.int64)
        for key, c in el.items():
            v[self.nf.index[key]] = c % self.p
        return v

    def relation_failures(self) -> list[str]:
        """Exact matrix checks of the Ariki-Koike presentation in T_0 =
        L_1, T_1, ..., T_(n-1), each relation once: the quadratic and
        braid relations, T_i T_j = T_j T_i for i < j - 1, L_1 L_2 = L_2
        L_1 (the type-B braid relation T_0 T_1 T_0 T_1 = T_1 T_0 T_1 T_0),
        T_r L_1 = L_1 T_r for r >= 2 and the cyclotomic relation.

        The rest follows.  ``entries[k+1]`` is T_k ``entries[k]`` T_k over
        F_p[t], and evaluation at q is a ring map, so L_(r+1) = q^-1 T_r
        L_r T_r; with T_r^2 = (q - 1) T_r + q, T_r L_r = L_(r+1) (T_r - q
        + 1).  By induction on s from the checked s = 1 and (1, 2), T_r L_s
        = L_s T_r for r not in {s - 1, s} and L_r L_s = L_s L_r for r < s:
        T_r for r < s - 2 or r > s, and L_r for r < s - 1, commute with
        each factor of L_s = q^-1 T_(s-1) L_(s-1) T_(s-1).  For r = s - 2,
        L_s = q^-2 T_(s-1) T_r L_r T_r T_(s-1), and the braid relation
        carries T_r past T_(s-1) T_r as T_(s-1), which commutes with L_r.
        For r = s - 1 and j = r - 1, L_r L_s and L_s L_r are both q^-3 T_j
        T_r T_j L_j T_j L_j T_r T_j by the braid relation, T_r L_j = L_j
        T_r and L_j L_r = L_r L_j.

        Then an exact certificate from left multiplications L_x (by x)
        alone that the star S is an anti-involution fixing each g in G =
        {T_i, L_1}: S^2 = 1, S(1) = 1, S(g) = g, and R_g = S L_g S
        commutes with L_h for all g, h in G.  As G generates H, R_g
        commutes with every L_x, so R_g x = x R_g(1) = x S(g), and x =
        S(y) gives S(g y) = S(y) S(g); by induction on the length of a
        word w in G, S(w y) = S(y) S(w), for all y.  Each unordered pair
        {g, h} is tested once: with S^2 = 1, conjugating [R_g, L_h] by S
        gives -[R_h, L_g].  A failure names the pair's first g in G."""
        p, q, n = self.p, self.params.q, self.params.n
        I = self.identity()
        T, L, S = self.T, self.L, self.star_mat
        fails = []

        def check(name, lhs, rhs):
            """Record a failure unless the two chains of factors agree."""
            if not np.array_equal(matmul(lhs, p), matmul(rhs, p)):
                fails.append(name)

        zero = (np.zeros_like(I),)
        for i in T:
            check(f"quadratic T_{i}", ((T[i] + I) % p, (T[i] - q * I) % p),
                  zero)
        for i, j in combinations(T, 2):
            if j > i + 1:
                check(f"commuting T_{i} T_{j}", (T[i], T[j]), (T[j], T[i]))
        for i in range(1, n - 1):
            check(f"braid T_{i} T_{i+1} T_{i}", (T[i], T[i + 1], T[i]),
                  (T[i + 1], T[i], T[i + 1]))
        if n >= 2:
            check("commuting L_1 L_2", (L[1], L[2]), (L[2], L[1]))
        for r in range(2, n):
            check(f"commuting T_{r} L_1", (T[r], L[1]), (L[1], T[r]))
        check("cyclotomic relation for L_1",
              [(L[1] - pow(q, kj, p) * I) % p
               for kj in self.params.hat_kappa], zero)
        check("star is an involution", (S, S), (I,))
        one = self.unit_vector()
        check("star anti-multiplicativity on 1", (S, one), (one,))
        gens = [(f"T_{i}", T[i]) for i in T] + [("L_1", L[1])]
        for a, (name, G) in enumerate(gens):
            g, R = G[:, self.id_index], matmul((S, G, S), p)
            if not np.array_equal(matmul((S, g), p), g) or any(
                    not np.array_equal(matmul((R, X), p), matmul((X, R), p))
                    for _, X in gens[a:]):
                fails.append(f"star anti-multiplicativity on {name}")
        return fails


@lru_cache(maxsize=8)
def regular_rep(params: HeckeParams) -> RegularRep:
    return RegularRep(params)


# ---------------------------------------------------------------------------
# Seminormal block model over F_p(t)
# ---------------------------------------------------------------------------


class DegenerateContents(Exception):
    pass


def _poly_product(one: Poly, factors) -> Poly:
    out = one
    for f in factors:
        out = out * f
    return out


@dataclass
class Block:
    shape: tuple
    std: list
    index: dict
    contents: list  # contents[s][k-1] = integer exponent of t
    nums: dict      # i -> d x d list of lists of Poly, the numerator N_i
    dens: dict      # i -> Poly, the denominator d_i: T_i = N_i / d_i


class SeminormalModel:
    """One block per multipartition; rows/columns indexed by standard
    tableaux; matrices record right multiplication, so that the map
    into the direct sum of matrix blocks is an algebra homomorphism.
    The tableaux and their contents are those of
    :func:`tableau_contents`, grouped by shape.

    Each block holds T_i over F_p(t) as a numerator matrix N_i over F_p[t]
    and one denominator d_i != 0, T_i = N_i / d_i.  The two-term formulas
    divide by (t^(c_T) - t^(c_S))^2 for a pair S, T = S s_i; taken apart
    from its power of t this is (t^m - 1)^2, m = |c_T - c_S|, and d_i is
    the product of (t^m - 1)^2 over the distances m of the block's pairs.
    :meth:`relation_failures` checks every relation with these
    denominators cleared, as polynomial identities."""

    def __init__(self, params: HeckeParams):
        params.validate()
        self.params = params
        p, n, l = params.p, params.n, params.l
        self.zero = RatFunc.const(p, 0)
        self.one = RatFunc.const(p, 1)
        theta = comb.theta_sep(l, n)
        table = tableau_contents(params)
        by_shape: dict = {}
        for t in table:
            by_shape.setdefault(comb.shape_of(t), []).append(t)
        self.blocks: dict = {}
        for lam, std in by_shape.items():
            idx = {t: s for s, t in enumerate(std)}
            contents = [table[t] for t in std]
            nums, dens = {}, {}
            for i in range(1, n):
                nums[i], dens[i] = self._two_term(std, idx, contents, i,
                                                  theta)
            self.blocks[lam] = Block(lam, std, idx, contents, nums, dens)
        self.csets = content_sets(params)

    def _two_term(self, std, idx, contents, i: int, theta):
        """(N_i, d_i) of one block.  For S with c = c_S(i), c' = c_S(i+1)
        and T = S s_i standard, put x = t^(c - m0), y = t^(c' - m0) with
        m0 = min(c, c'), so that (y - x)^2 = (t^m - 1)^2, m = |c - c'|.
        Then T_i has diagonal entry (t - 1) y / (y - x) at S, and entry 1
        at (S, T) when S dominates T, (t x - y)(x - t y) / (y - x)^2
        otherwise; with T not standard, the entry at S is t (same row) or
        -1 (same column)."""
        p = self.params.p
        t = Poly.monomial(p, 1, 1)
        one = Poly.const(p, 1)
        square = {}
        for s, S in enumerate(std):
            if comb.is_standard(comb.apply_simple(S, i)):
                m = abs(contents[s][i] - contents[s][i - 1])
                f = Poly.monomial(p, 1, m) - one
                square[m] = f * f
        den = _poly_product(one, square.values())
        cofactor = {m: _poly_product(one, (f for m2, f in square.items()
                                           if m2 != m))
                    for m in square}
        d = len(std)
        N = [[Poly(p, ())] * d for _ in range(d)]
        for s, S in enumerate(std):
            T = comb.apply_simple(S, i)
            c, c2 = contents[s][i - 1], contents[s][i]
            if comb.is_standard(T):
                m0 = min(c, c2)
                x = Poly.monomial(p, 1, c - m0)
                y = Poly.monomial(p, 1, c2 - m0)
                cof = cofactor[abs(c - c2)]
                N[s][s] = (t - one) * y * (y - x) * cof
                N[s][idx[T]] = (
                    den if comb.tableau_strictly_dominates(S, T, theta)
                    else (t * x - y) * (x - t * y) * cof)
            else:
                ni, nj = comb.node_map(S)[i], comb.node_map(S)[i + 1]
                same_row = ni[0] == nj[0] and ni[2] == nj[2]
                N[s][s] = t * den if same_row else -den
        return N, den

    # -- structural checks ---------------------------------------------------

    @staticmethod
    def _mat_mul(A, B):
        """The product of two square matrices of Polys."""
        d = len(A)
        zero = Poly(A[0][0].p, ())
        out = [[zero] * d for _ in range(d)]
        for i in range(d):
            rowO = out[i]
            for k in range(d):
                a = A[i][k]
                if a.is_zero():
                    continue
                rowB = B[k]
                for j in range(d):
                    if not rowB[j].is_zero():
                        rowO[j] = rowO[j] + a * rowB[j]
        return out

    @staticmethod
    def _scaled(c, A):
        return [[c * x for x in row] for row in A]

    @staticmethod
    def _plus_diag(A, c):
        """A + c I."""
        return [[x + c if i == j else x for j, x in enumerate(row)]
                for i, row in enumerate(A)]

    def relation_failures(self) -> list[str]:
        """The defining relations in every block, each with its
        denominators cleared (N_i = d_i T_i, L_k shifted by t^sh so that
        every exponent is nonnegative), as identities over F_p[t]:

        * quadratic: (N_i + d_i)(N_i - t d_i) = 0,
        * braid: d_(i+1) N_i N_(i+1) N_i = d_i N_(i+1) N_i N_(i+1),
        * commuting: N_i N_j = N_j N_i for |i - j| > 1,
        * mixed: N_r L_r = L_(r+1) (N_r + (1 - t) d_r),
        * cyclotomic: prod_j (L_1 - t^(hat_kappa_j)) = 0.

        Each is the relation of the T_i = N_i / d_i multiplied by a power
        of t and a product of the d_i, which are nonzero in F_p[t], so it
        holds exactly when the relation does.  Nothing is divided."""
        p, n = self.params.p, self.params.n
        t = Poly.monomial(p, 1, 1)
        one = Poly.const(p, 1)
        fails = []
        for lam, b in self.blocks.items():
            N, den = b.nums, b.dens
            d = len(b.std)
            for i in range(1, n):
                lhs = self._mat_mul(self._plus_diag(N[i], den[i]),
                                    self._plus_diag(N[i], -(t * den[i])))
                if any(not x.is_zero() for row in lhs for x in row):
                    fails.append(f"quadratic T_{i} in block {lam}")
            for i in range(1, n - 1):
                lhs = self._mat_mul(self._mat_mul(N[i], N[i + 1]), N[i])
                rhs = self._mat_mul(self._mat_mul(N[i + 1], N[i]), N[i + 1])
                if (self._scaled(den[i + 1], lhs)
                        != self._scaled(den[i], rhs)):
                    fails.append(f"braid T_{i} in block {lam}")
            for i in range(1, n):
                for j in range(i + 2, n):
                    if (self._mat_mul(N[i], N[j])
                            != self._mat_mul(N[j], N[i])):
                        fails.append(f"commuting T_{i} T_{j} in block {lam}")
            # T_r L_r = L_{r+1} (T_r - q + 1) on diagonal L action
            sh = max(0, -min(min(c) for c in b.contents))
            L = {k: [Poly.monomial(p, 1, c[k - 1] + sh) for c in b.contents]
                 for k in range(1, n + 1)}
            for r in range(1, n):
                rhs = self._plus_diag(N[r], (one - t) * den[r])
                if any(N[r][i][j] * L[r][j] != L[r + 1][i] * rhs[i][j]
                       for i in range(d) for j in range(d)):
                    fails.append(f"mixed relation T_{r} L_{r} in block {lam}")
            # cyclotomic relation on L_1
            for s in range(d):
                val = self.one
                for kj in self.params.hat_kappa:
                    val = val * (tpow(p, b.contents[s][0]) - tpow(p, kj))
                if not val.is_zero():
                    fails.append(f"cyclotomic L_1 in block {lam}")
                    break
        return fails

    # -- Murphy idempotents in the block model -------------------------------

    def murphy_eigenvalue(self, S, U) -> RatFunc:
        """Eigenvalue of the product-formula idempotent of S on the
        seminormal basis vector of U."""
        p = self.params.p
        bS = self.blocks[comb.shape_of(S)]
        bU = self.blocks[comb.shape_of(U)]
        cS = bS.contents[bS.index[S]]
        cU = bU.contents[bU.index[U]]
        sets = self.csets
        # F_p(t) is a field: the product is zero iff a factor has c = c_U(k)
        if any(cU[k] != cS[k] and cU[k] in sets[k]
               for k in range(self.params.n)):
            return self.zero
        val = self.one
        for k in range(self.params.n):
            if cU[k] == cS[k]:  # every factor of level k is 1
                continue
            for c in sets[k]:
                if c != cS[k]:
                    val = val * ((tpow(p, cU[k]) - tpow(p, c))
                                 / (tpow(p, cS[k]) - tpow(p, c)))
        return val

    def murphy_is_matrix_unit(self, S) -> bool:
        """The product formula applied in the block model must give the
        diagonal matrix unit at (S, S)."""
        for b in self.blocks.values():
            for U in b.std:
                val = self.murphy_eigenvalue(S, U)
                want = self.one if U == S else self.zero
                if not (val - want).is_zero():
                    return False
        return True


# ---------------------------------------------------------------------------
# Murphy / class idempotents in normal-form coordinates (generic mode)
# ---------------------------------------------------------------------------


def standard_tableaux_all(n: int, l: int) -> list:
    out = []
    for lam in comb.all_multipartitions(n, l):
        out.extend(comb.std_tableaux(lam))
    return out


@lru_cache(maxsize=8)
def tableau_contents(params: HeckeParams) -> dict:
    """Standard tableau T of size n -> its hat-content vector (c_T(1),
    ..., c_T(n)), in :func:`standard_tableaux_all` order: the one table
    the seminormal model, the Murphy product formula and the residue
    classes read.  Raises DegenerateContents when two tableaux share a
    vector.  The dict is shared; callers must not change it."""
    mc = params.mc
    table = {}
    for T in standard_tableaux_all(params.n, params.l):
        nm = comb.node_map(T)
        table[T] = tuple(comb.hat_content(nm[k], mc)
                         for k in range(1, params.n + 1))
    if len(set(table.values())) != len(table):
        raise DegenerateContents("content vectors do not separate "
                                 "standard tableaux")
    return table


def content_sets(params: HeckeParams) -> list[list[int]]:
    """C(k): every integral content an entry k can have in a standard
    tableau of any multipartition of n."""
    vecs = tableau_contents(params).values()
    return [sorted({c[k] for c in vecs}) for k in range(params.n)]


def generic_normal_form(params: HeckeParams) -> NormalForm:
    """Normal-form model over F_p(t) with q-hat = t and Q_j =
    t^{hat_kappa_j}.  ``RegularRep`` holds one and specializes it at
    t = q: it rewrites T_i, L_1 and the star key by key and forms
    t^{k-1} L_k, kept as ``entries``, by the Jucys-Murphy recursion on
    their arrays; L_k and the Murphy engine's factors are read from
    these."""
    return NormalForm(params.n, params.l, params.p, params.hat_kappa)


def _div_by_binomial(num: np.ndarray, d: int, p: int):
    """Exact quotient of the coefficient array by t^d - 1, or None if
    the division leaves a remainder.  Writing the array in blocks of d
    coefficients, divisibility means the blocks sum to zero, and the
    quotient blocks are the negated partial sums."""
    pad = (-len(num)) % d
    if pad:
        num = np.concatenate([num, np.zeros(pad, dtype=np.int64)])
    blocks = num.reshape(-1, d)
    partial = np.cumsum(blocks, axis=0) % p
    if partial[-1].any():
        return None
    quo = (-partial[:-1]).reshape(-1) % p
    nz = np.flatnonzero(quo)
    return quo[:nz[-1] + 1] if len(nz) else quo[:1]


def _mul_by_binomial(vec: np.ndarray, d: int, p: int) -> np.ndarray:
    """Multiply every row of a coefficient matrix by t^d - 1."""
    rows, width = vec.shape
    out = np.zeros((rows, width + d), dtype=np.int64)
    out[:, d:] = vec
    out[:, :width] -= vec
    return out % p


class MurphyEngine:
    """The generic oracle over F_p(t): the product-formula idempotents
    F_T = prod_k prod_{c != c_T(k)} (L_k - t^c) / (t^{c_T(k)} - t^c) and
    their residue-class sums E_[i] = sum of F_T, in normal-form
    coordinates (:meth:`murphy_vectors`, :meth:`class_vector`,
    :meth:`class_vectors`).  The tests compare the weight idempotents of
    :func:`class_idempotent_vector` against these specialized at t = q;
    the pipeline does not use them.

    The n operators t^{k-1} L_k have polynomial entries in the generic
    normal form.  The engine does not rewrite them: it takes the normal
    form ``nf`` and the numerator arrays ``entries`` from the cached
    :func:`regular_rep` of the same parameters, the arrays from which
    ``RegularRep.L`` is evaluated, and builds its operators from them on
    first use: scipy sparse matrices indexed by coefficient degree
    (:attr:`ops`, scipy imported then).  Its tableaux ``tabs``, their
    contents ``content_of`` and the content sets ``csets`` are read from
    the cached :func:`tableau_contents`.  Tableaux sharing an initial
    segment of contents share the corresponding partial products through
    one prefix-tree walk, :meth:`_walk`.  A vector is a dense int64
    matrix with one column per power of t and a power-of-t offset,
    denominator-free until the leaves, which are reduced by exact
    division against the factored denominator."""

    def __init__(self, params: HeckeParams):
        reg = regular_rep(params)
        self.params = params
        self.p = params.p
        self.nf, self.entries = reg.nf, reg.entries
        self.content_of = tableau_contents(params)
        self.tabs = list(self.content_of)
        self.csets = content_sets(params)
        self._powcache: dict[int, np.ndarray] = {}
        self._rootcache: dict[int, tuple] = {}
        self._dencache: dict = {}

    @cached_property
    def ops(self) -> dict:
        """The generic oracle's operators, k -> :meth:`_op_layers`,
        built on first use: only this oracle needs scipy."""
        return {k: self._op_layers(k) for k in range(1, self.params.n + 1)}

    def _op_layers(self, k: int):
        """t^{k-1} L_k as (degree, sparse matrix) layers from
        ``entries[k]``, grouped in chunks whose rows hold at most dim
        nonzeros together."""
        from scipy import sparse
        dim = len(self.nf.basis)
        deg, rows, cols, vals = self.entries[k]
        chunks, terms = [], dim
        for a in np.unique(deg):
            at = deg == a
            A = sparse.csr_matrix((vals[at], (rows[at], cols[at])),
                                  shape=(dim, dim), dtype=np.int64)
            nnz = int(np.diff(A.indptr).max())
            if terms + nnz > dim:
                chunks.append([])
                terms = 0
            chunks[-1].append((int(a), A))
            terms += nnz
        return chunks

    def _pows(self, x: int, length: int) -> np.ndarray:
        """Array of x^j mod p for j < length, cached and grown on demand."""
        arr = self._powcache.get(x)
        if arr is None or len(arr) < length:
            p = self.p
            out = [0] * max(length, 256)
            y = 1
            for j in range(len(out)):
                out[j] = y
                y = y * x % p
            arr = np.array(out, dtype=np.int64)
            self._powcache[x] = arr
        return arr

    def _apply_factor(self, vec: np.ndarray, k: int, ck: int,
                      c: int) -> tuple[np.ndarray, int]:
        """The step of the generic oracle: vec -> t^m (L_k - t^c) vec with
        m = max(k-1, -c) >= 0; returns the new matrix and the offset
        increment m.  The denominator, which depends on ck, is left to the
        leaf.  Reduced after each chunk, an entry stays within
        :func:`product_bound`."""
        p = self.p
        m = max(k - 1, -c)
        s_op = m - (k - 1)
        s_id = m + c
        dim, width = vec.shape
        chunks = self.ops[k]
        top = max(s_op + chunks[-1][-1][0], s_id) + width
        out = np.zeros((dim, top), dtype=np.int64)
        out[:, s_id:s_id + width] -= vec
        for chunk in chunks:
            for a, A in chunk:
                out[:, s_op + a:s_op + a + width] += A @ vec
            out %= p
        nz = np.flatnonzero(out.any(axis=0))
        return out[:, :nz[-1] + 1] if len(nz) else out[:, :1], m

    def _leaf_ratfuncs(self, T, vec: np.ndarray, offset: int) -> dict:
        """Divide the polynomial vector by the full denominator.

        The denominator is known in factored form, sign * t^M times a
        product of binomials t^d - 1, so instead of a generic gcd each
        coordinate is reduced by exact division against those factors
        and then by the linear factors t - x at every root x of the
        remaining denominator in F_p.  The result may retain a common
        irreducible factor of degree > 1, but it is exact, and
        specialization and pole detection at any point of F_p are
        unaffected (every shared linear factor has been cancelled)."""
        tpows, fac, sign = self._leaf_factors(self.content_of[T])
        return self._reduce_matrix(vec, offset + tpows, fac, sign)

    def _leaf_factors(self, cS) -> tuple[int, dict, int]:
        """Denominator of the product formula at content vector cS in
        factored form: (power of t, {binomial degree d: multiplicity},
        overall sign), the denominator being sign * t^pow * prod of
        (t^d - 1)^mult."""
        tpows = 0
        sign = 1
        fac: dict[int, int] = {}
        for k in range(1, self.params.n + 1):
            for c in self.csets[k - 1]:
                if c == cS[k - 1]:
                    continue
                tpows += min(cS[k - 1], c)
                d = abs(cS[k - 1] - c)
                fac[d] = fac.get(d, 0) + 1
                if cS[k - 1] < c:
                    sign = -sign
        return tpows, fac, sign

    def _reduce_matrix(self, vec: np.ndarray, tpows: int, fac: dict,
                       sign: int) -> dict:
        out = {}
        for i in np.flatnonzero(vec.any(axis=1)):
            rf = self._reduce(vec[i], tpows, fac, sign)
            if not rf.is_zero():
                out[self.nf.basis[i]] = rf
        return out

    def _roots(self, d: int) -> tuple[list[int], int]:
        """The roots of t^d - 1 in F_p and their common multiplicity.
        With d = p^a d0 and p not dividing d0, t^d - 1 = (t^d0 - 1)^(p^a),
        whose roots are the subgroup of order gcd(d, p - 1): O(d) work."""
        if d not in self._rootcache:
            p, pa = self.p, 1
            while d % (pa * p) == 0:
                pa *= p
            self._rootcache[d] = (cyclic_subgroup(p, gcd(d, p - 1)), pa)
        return self._rootcache[d]

    def _den_poly(self, tpows: int, fac_items: tuple,
                  cancels: tuple) -> Poly:
        """t^tpows * prod (t^d - 1)^m / prod (t - x)^c, cached."""
        key = (tpows, fac_items, cancels)
        den = self._dencache.get(key)
        if den is None:
            p = self.p
            den = Poly.monomial(p, 1, tpows)
            for d, m in fac_items:
                f = Poly.monomial(p, 1, d) - Poly.const(p, 1)
                for _ in range(m):
                    den = den * f
            for x, cnt in cancels:
                lin = Poly.of(p, [-x, 1])
                for _ in range(cnt):
                    den = den // lin
            self._dencache[key] = den
        return den

    def _div_linear(self, num: np.ndarray, x: int):
        """Exact quotient of the coefficient array by t - x, or None
        if x is not a root; computed by a vectorized synthetic
        division (reversed cumulative sums of n_j x^j)."""
        p = self.p
        width = len(num)
        w = num * self._pows(x, width)[:width] % p
        partial = np.flip(np.cumsum(np.flip(w))) % p
        if partial[0]:
            return None
        inv = pow(x, -1, p)
        quo = partial[1:] * self._pows(inv, width)[1:width] % p
        nz = np.flatnonzero(quo)
        return quo[:nz[-1] + 1] if len(nz) else quo[:1]

    def _reduce(self, num: np.ndarray, tpows: int, fac: dict,
                sign: int) -> RatFunc:
        p = self.p
        num = np.asarray(num, dtype=np.int64) % p
        if not num.any():
            return RatFunc.of_poly(Poly.const(p, 0))
        nz = np.flatnonzero(num)
        num = num[:nz[-1] + 1]
        s = min(int(nz[0]), tpows)
        if s:
            num = num[s:]
            tpows -= s
        res = dict(fac)
        mult: dict[int, int] = {}
        for d in sorted(res):
            # 1 is a root of every t^d - 1, so a nonzero value there
            # rules out all further whole-binomial divisions.
            while res[d] and num.sum() % p == 0:
                quo = _div_by_binomial(num, d, p)
                if quo is None:
                    break
                num = quo
                res[d] -= 1
            if res[d]:
                roots, pa = self._roots(d)
                for x in roots:
                    mult[x] = mult.get(x, 0) + res[d] * pa
        cancels = []
        for x in sorted(mult):
            cnt = 0
            while cnt < mult[x]:
                quo = self._div_linear(num, x)
                if quo is None:
                    break
                num = quo
                cnt += 1
            if cnt:
                cancels.append((x, cnt))
        den = self._den_poly(
            tpows, tuple((d, m) for d, m in sorted(res.items()) if m),
            tuple(cancels))
        numP = Poly.of(p, (num if sign == 1 else (-num) % p).tolist())
        inv = pow(den.leading(), -1, p)
        return RatFunc(numP.scale(inv), den.monic())

    def _walk(self, tabs, k, vec, offset, step, leaf, out):
        """The prefix-tree walk: apply the factors of level k, grouped by
        the content c_T(k), once per group, and recurse.  ``step(vec, k,
        ck, c)`` returns the new vector and the increment of ``offset``;
        at a leaf, ``out[T] = leaf(T, vec, offset)``."""
        if k > self.params.n:
            T = tabs[0]
            out[T] = leaf(T, vec, offset)
            return
        groups: dict = {}
        for T in tabs:
            groups.setdefault(self.content_of[T][k - 1], []).append(T)
        for ck, sub in sorted(groups.items()):
            v, off = vec, offset
            for c in self.csets[k - 1]:
                if c == ck:
                    continue
                v, m = step(v, k, ck, c)
                off += m
            self._walk(sub, k + 1, v, off, step, leaf, out)

    def _unit(self, width: int) -> np.ndarray:
        """The identity element as a coefficient matrix of the given
        width (its only nonzero column is the first)."""
        unit = np.zeros((len(self.nf.basis), width), dtype=np.int64)
        unit[self.nf.index[self.nf.identity_key], 0] = 1
        return unit

    # -- the generic oracle over F_p(t) ------------------------------------

    def murphy_vectors(self, tabs=None) -> dict:
        """Tableau -> {basis key -> RatFunc} for the given tableaux
        (default: all standard tableaux of size n)."""
        if tabs is None:
            tabs = self.tabs
        out: dict = {}
        self._walk(list(tabs), 1, self._unit(1), 0, self._apply_factor,
                   self._leaf_ratfuncs, out)
        return out

    def class_vector(self, tabs) -> dict:
        """Normal-form coordinates over F_p(t) of E_[i] = sum of F_T over
        the tableaux ``tabs`` of one residue class.

        Only these tableaux are walked.  Their idempotents are summed
        before any reduction, in the factored common-denominator form:
        each raw leaf numerator is scaled up to the classwise least
        common denominator by shift-and-subtract binomial
        multiplications, the matrices are added, and the sum is reduced
        once."""
        p = self.p
        raw: dict = {}
        self._walk(list(tabs), 1, self._unit(1), 0, self._apply_factor,
                   lambda T, vec, offset: (vec, offset), raw)
        dens = {}
        for T, (_, offset) in raw.items():
            tpows, fac, sign = self._leaf_factors(self.content_of[T])
            dens[T] = (tpows + offset, fac, sign)
        top = max(tp for tp, _, _ in dens.values())
        lcm: dict[int, int] = {}
        for _, fac, _ in dens.values():
            for d, m in fac.items():
                lcm[d] = max(lcm.get(d, 0), m)
        acc = None
        for T, (vec, _) in raw.items():
            tp, fac, sign = dens[T]
            W = vec if sign == 1 else (-vec) % p
            if tp < top:
                W = np.concatenate(
                    [np.zeros((vec.shape[0], top - tp), dtype=np.int64), W],
                    axis=1)
            for d, m in lcm.items():
                for _ in range(m - fac.get(d, 0)):
                    W = _mul_by_binomial(W, d, p)
            if acc is None:
                acc = W.copy() if W is vec else W
            elif acc.shape[1] >= W.shape[1]:
                acc[:, :W.shape[1]] += W
                acc %= p
            else:
                W = W.copy() if W is vec else W
                W[:, :acc.shape[1]] += acc
                acc = W % p
        return self._reduce_matrix(acc, top, lcm, 1)

    def class_vectors(self) -> dict:
        """Residue sequence -> normal-form coordinates over F_p(t) of
        E_[i], one :meth:`class_vector` per class of
        :func:`class_partition`."""
        return {i: self.class_vector(tabs)
                for i, tabs in class_partition(self.params).items()}


@lru_cache(maxsize=8)
def murphy_engine(params: HeckeParams) -> MurphyEngine:
    return MurphyEngine(params)


def class_partition(params: HeckeParams) -> dict:
    """Standard tableaux of size n grouped by residue sequence, the
    hat-contents mod e."""
    classes: dict = {}
    for t, c in tableau_contents(params).items():
        classes.setdefault(tuple(x % params.e for x in c), []).append(t)
    return classes


def weight_spaces(L: dict, params: HeckeParams) -> tuple[np.ndarray, dict]:
    """C, whose column blocks are bases of the nonzero joint generalized
    eigenspaces of the commuting matrices L[1], ..., L[n] at (q^(i_1),
    ..., q^(i_n)), stacked in the order of the residue sequences i, and
    the slice of each i's block.  C has fewer columns than rows when some
    eigenvalue is not a power of q.  The residue sequences of the
    standard tableaux (every weight of H and of its quotients is one) are
    probed first."""
    labels = {pow(params.q, r, params.p): r for r in range(params.e)}
    spaces = joint_eigenspaces([L[k] for k in sorted(L)], labels, params.p,
                               class_partition(params))
    blocks, start = {}, 0
    for i, V in spaces.items():
        blocks[i] = slice(start, start + V.shape[1])
        start = blocks[i].stop
    return np.hstack(list(spaces.values())), blocks


@lru_cache(maxsize=8)
def weight_units(params: HeckeParams) -> dict:
    """Residue sequence i -> coefficient vector of e(i) = e(i) 1 in
    :func:`regular_rep`, for each nonzero weight idempotent: e(i) is
    C[:, block i] C^-1[block i, :] for the C of :func:`weight_spaces`.
    Raises ValueError when the weight spaces do not fill H."""
    reg = regular_rep(params)
    C, blocks = weight_spaces(reg.L, params)
    if C.shape[1] != reg.dim:
        raise ValueError(f"the weight spaces of H have {C.shape[1]} "
                         f"dimensions, not {reg.dim}")
    unit = invert_matrix(C, params.p)[:, reg.id_index]
    return {i: matmul((C[:, sl], unit[sl]), params.p)
            for i, sl in blocks.items()}


def class_idempotent_vector(params: HeckeParams, tabs) -> dict:
    """The weight idempotent e(i) of the residue class ``tabs`` (read off
    its first tableau) in normal-form coordinates over F_p, {basis key:
    coefficient in [1, p)}, from the cached :func:`weight_units`.  It is
    E_[i] = sum of F_T over the class at t = q, which the tests check
    against :meth:`MurphyEngine.class_vector`."""
    i = tuple(c % params.e for c in tableau_contents(params)[tabs[0]])
    v = weight_units(params).get(i)
    basis = regular_rep(params).nf.basis
    return {} if v is None else {basis[j]: int(v[j])
                                 for j in np.flatnonzero(v)}


def specialize_vector(vec: dict, params: HeckeParams) -> dict:
    """Evaluate a generic coefficient vector at t = q; raises
    PoleAtSpecialization on any pole."""
    out = {}
    for key, val in vec.items():
        c = val.specialize(params.q)
        if c % params.p:
            out[key] = c % params.p
    return out


# ---------------------------------------------------------------------------
# Rank-one idempotents of the two-string subalgebra
# ---------------------------------------------------------------------------


def _two_string_params(params: HeckeParams) -> HeckeParams:
    return HeckeParams(n=2, l=params.l, e=params.e, p=params.p,
                       q=params.q, hat_kappa=params.hat_kappa)


def e2_idempotents(params: HeckeParams) -> list[dict]:
    """For each level component j, the idempotent of the two-string
    subalgebra projecting onto its one-dimensional module with
    L_1, L_2, T_1 eigenvalues q^{kappa_j}, q^{kappa_j + 1}, q: the weight
    idempotent of (L_1, L_2) at (q^{kappa_j}, q^{kappa_j + 1}), whose
    residue class is the one row tableau of component j.  The tests
    compare it with the normalised solution of the eigenvalue system of
    L_1, L_2 and T_1 in the regular representation.
    Returned as dicts on the two-string normal-form basis; the keys
    embed verbatim into any larger normal-form basis by appending
    zero exponents and fixed points."""
    if params.n < 2:
        raise ValueError("needs n >= 2")
    p2 = _two_string_params(params)
    p2.validate()
    classes = class_partition(p2)
    out = []
    for kj in p2.mc.kappa:
        # the class of the component's row tableau must be a singleton
        key = (kj % p2.e, (kj + 1) % p2.e)
        tabs = classes[key]
        if len(tabs) != 1:
            raise ValueError(f"class {key} is not a singleton; bad multicharge")
        out.append(class_idempotent_vector(p2, tabs))
    return out


def embed_two_string(params: HeckeParams, el2: dict) -> dict:
    """Embed an element of the two-string subalgebra into the size-n
    normal-form basis."""
    n = params.n
    out = {}
    for (a, w), c in el2.items():
        a_n = tuple(a) + (0,) * (n - 2)
        w_n = tuple(w) + tuple(range(3, n + 1))
        out[(a_n, w_n)] = c
    return out
