"""Cyclotomic Hecke algebras of type G(l,1,n) in two exact models.

Two complementary realizations are provided.

* A *normal-form* model: the algebra is free with basis
  ``L_1^{a_1} ... L_n^{a_n} T_w`` (0 <= a_k < l, w in S_n), and left
  multiplication by the generators is implemented by exact rewriting.
  The scalar ring is pluggable: integers mod p (specialized), or
  rational functions in a parameter t over F_p (generic).
  In the generic mode the parameter is q-hat = t and the cyclotomic
  roots are t^{hat_kappa_j}; specializing t at a primitive e-th root of
  unity q recovers the mod-p algebra.

* A *seminormal* block model over the rational function field: one
  block per multipartition of n, with basis indexed by standard
  tableaux, the L_k acting diagonally through contents and the T_r
  acting through the classical two-term formulas.

On top of these sit the tableau idempotents F_S (product formula), the
residue-class idempotents E_[i] = sum of F_S over one residue class, and
the rank-one idempotents of the two-row/two-string subalgebra used to
present the blob quotient.

Each F_S has a pole at t = q; E_[i] does not, and the pipeline needs only
its value there.  ``class_idempotent_vector`` computes that value directly
in truncated Laurent series in s = t - q: the leaves of the product
formula are carried to the exact precision the s^0 term needs, added, and
certified pole-free by checking that every term of negative order
cancels (``PoleAtSpecialization`` otherwise).  The same idempotents over
F_p(t) (``MurphyEngine.murphy_vectors``, ``class_vector``,
``class_vectors``) are kept as the generic oracle that the tests compare
against; the pipeline does not use them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property, lru_cache
from itertools import permutations, product
from math import comb as binomial, factorial, gcd

import numpy as np
from scipy import sparse

from . import combinatorics as comb
from .exactfield import (INT64_MAX, PoleAtSpecialization, Poly, RatFunc,
                         cyclic_subgroup, has_order, is_prime, matmul,
                         nullspace, product_bound, root_of_unity)


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
        mc = self.mc
        kap = mc.kappa
        for i in range(self.l - 1):
            if self.hat_kappa[i + 1] - self.hat_kappa[i] < self.n:
                raise ValueError(
                    "multicharge condition i) violated: consecutive entries "
                    f"{self.hat_kappa[i]}, {self.hat_kappa[i + 1]} differ by less than n = {self.n}"
                )
        for i in range(self.l):
            for j in range(self.l):
                if i != j and (kap[i] - kap[j]) % self.e in (0, 1, self.e - 1):
                    raise ValueError(
                        "multicharge condition ii) violated: residues "
                        f"{kap[i]}, {kap[j]} are equal or adjacent mod e"
                    )
        if self.l > 1 and kap[0] % self.e == (kap[-1] + 2) % self.e:
            raise ValueError(
                "multicharge condition iii) violated: first residue equals last + 2 mod e"
            )
        if any(kap[i] >= kap[i + 1] for i in range(self.l - 1)):
            raise ValueError(
                "multicharge condition iv) violated: residues not strictly increasing"
            )

    def validate_exact(self) -> None:
        """:meth:`validate`, and reject a p too large for exact int64
        matrices of size D = dim H = l^n n!."""
        self.validate()
        D = self.l ** self.n * factorial(self.n)
        if product_bound(D, self.p) > INT64_MAX:
            raise ValueError(
                f"p = {self.p} is too large for exact int64 products at "
                f"dim H = {D}: the product bound D (p - 1)^2 + p - 1 "
                f"exceeds 2^63 - 1")


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
            while k < lo:
                k += e
            lift.append(k)
            lo = k + max(n, 1)
        hat_kappa = tuple(lift)
    params = HeckeParams(n=n, l=l, e=e, p=p, q=q % p, hat_kappa=tuple(hat_kappa))
    params.validate()
    return params


# ---------------------------------------------------------------------------
# Scalar backends
# ---------------------------------------------------------------------------


class FpScalars:
    """Integers mod p."""

    def __init__(self, p: int):
        self.p = p
        self.zero = 0
        self.one = 1

    def add(self, x, y):
        return (x + y) % self.p

    def sub(self, x, y):
        return (x - y) % self.p

    def mul(self, x, y):
        return (x * y) % self.p

    def neg(self, x):
        return (-x) % self.p

    def inv(self, x):
        return pow(x, -1, self.p)

    def is_zero(self, x) -> bool:
        return x % self.p == 0


class RatScalars:
    """F_p(t)."""

    def __init__(self, p: int):
        self.p = p
        self.zero = RatFunc.const(p, 0)
        self.one = RatFunc.const(p, 1)

    def add(self, x, y):
        return x + y

    def sub(self, x, y):
        return x - y

    def mul(self, x, y):
        return x * y

    def neg(self, x):
        return -x

    def inv(self, x):
        return x.inverse()

    def is_zero(self, x) -> bool:
        return x.is_zero()


def tpow(p: int, m: int) -> RatFunc:
    """t^m in F_p(t), any sign of m."""
    if m >= 0:
        return RatFunc.of_poly(Poly.monomial(p, 1, m))
    return RatFunc.make(Poly.const(p, 1), Poly.monomial(p, 1, -m))


# ---------------------------------------------------------------------------
# Normal-form model
# ---------------------------------------------------------------------------


class NormalForm:
    """The free model on the basis L^a T_w with rewriting-based left
    multiplication by the generators.  Elements are dicts mapping basis
    keys (a, w) to scalars of the chosen backend."""

    def __init__(self, n: int, l: int, sc, q, Q):
        self.n = n
        self.l = l
        self.sc = sc
        self.q = q
        self.Q = list(Q)
        if len(self.Q) != l:
            raise ValueError("need l cyclotomic parameters")
        self.perms = sorted(permutations(range(1, n + 1)))
        self.exps = list(product(range(l), repeat=n))
        self.basis = [(a, w) for a in self.exps for w in self.perms]
        self.index = {key: j for j, key in enumerate(self.basis)}
        self.dim = l ** n * factorial(n)
        self.identity_key = ((0,) * n, comb.perm_identity(n))
        self.qm1 = sc.sub(q, sc.one)
        # expand prod_j (x - Q_j) = x^l + sum_j cyclo_neg[j] x^j, so that
        # x^l = sum_j cyclo[j] x^j with cyclo[j] = -cyclo_neg[j]
        coeffs = [sc.one]
        for Qj in self.Q:
            nxt = [sc.zero] * (len(coeffs) + 1)
            for d, c in enumerate(coeffs):
                nxt[d + 1] = sc.add(nxt[d + 1], c)
                nxt[d] = sc.sub(nxt[d], sc.mul(c, Qj))
            coeffs = nxt
        self.cyclo = [sc.neg(coeffs[j]) for j in range(l)]
        self._lengths = {w: comb.perm_length(w) for w in self.perms}

    # -- element helpers ----------------------------------------------------

    def unit(self):
        return {self.identity_key: self.sc.one}

    def unit_at(self, key):
        return {key: self.sc.one}

    def _accum(self, out, key, c):
        if key in out:
            s = self.sc.add(out[key], c)
            if self.sc.is_zero(s):
                del out[key]
            else:
                out[key] = s
        elif not self.sc.is_zero(c):
            out[key] = c

    def add(self, x, y):
        out = dict(x)
        for key, c in y.items():
            self._accum(out, key, c)
        return out

    def scale(self, c, x):
        if self.sc.is_zero(c):
            return {}
        return {key: self.sc.mul(c, v) for key, v in x.items()}

    def sub(self, x, y):
        return self.add(x, self.scale(self.sc.neg(self.sc.one), y))

    def equal(self, x, y) -> bool:
        return not self.sub(x, y)

    # -- left multiplication by generators ----------------------------------

    def lmul_t(self, i: int, el):
        """Left multiply by T_i, 1 <= i <= n-1."""
        sc, n = self.sc, self.n
        si = comb.simple(n, i)
        out: dict = {}
        for (a, w), c in el.items():
            alpha, beta = a[i - 1], a[i]
            terms = []  # (exponents, coeff, carries a T_i factor)
            swapped = list(a)
            swapped[i - 1], swapped[i] = beta, alpha
            terms.append((tuple(swapped), c, True))
            if alpha > beta:
                cc = sc.neg(sc.mul(c, self.qm1))
                for j in range(alpha - beta):
                    ex = list(a)
                    ex[i - 1], ex[i] = beta + j, alpha - j
                    terms.append((tuple(ex), cc, False))
            elif alpha < beta:
                cc = sc.mul(c, self.qm1)
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
                    self._accum(out, (ex, siw), sc.mul(self.q, cc))
                    self._accum(out, (ex, w), sc.mul(self.qm1, cc))
        return out

    def lmul_l1(self, el):
        """Left multiply by L_1, folding the cyclotomic relation."""
        out: dict = {}
        for (a, w), c in el.items():
            if a[0] + 1 < self.l:
                self._accum(out, ((a[0] + 1,) + a[1:], w), c)
            else:
                for j in range(self.l):
                    self._accum(out, ((j,) + a[1:], w),
                                self.sc.mul(c, self.cyclo[j]))
        return out

    def lmul_l_unnorm(self, k: int, el):
        """Left multiply by q^{k-1} L_k = T_{k-1}...T_1 L_1 T_1...T_{k-1}.

        Denominator-free: over F_p(t), polynomial inputs give polynomial
        outputs (every Q_j is a nonnegative power of t)."""
        for i in range(k - 1, 0, -1):
            el = self.lmul_t(i, el)
        el = self.lmul_l1(el)
        for i in range(1, k):
            el = self.lmul_t(i, el)
        return el

    def lmul_l(self, k: int, el):
        """Left multiply by L_k (needs invertible scalars for k > 1)."""
        el = self.lmul_l_unnorm(k, el)
        if k > 1:
            qinv = self.sc.inv(self.q)
            c = self.sc.one
            for _ in range(k - 1):
                c = self.sc.mul(c, qinv)
            el = self.scale(c, el)
        return el

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
    as dense integer matrices mod p."""

    def __init__(self, params: HeckeParams):
        params.validate_exact()
        self.params = params
        p, q = params.p, params.q
        sc = FpScalars(p)
        Q = [pow(q, kj, p) for kj in params.mc.kappa]
        self.nf = NormalForm(params.n, params.l, sc, q % p, Q)
        self.dim = self.nf.dim
        self.p = p
        self.id_index = self.nf.index[self.nf.identity_key]
        self.T = {i: self._gen_matrix(lambda el, i=i: self.nf.lmul_t(i, el))
                  for i in range(1, params.n)}
        self.L = {k: self._gen_matrix(lambda el, k=k: self.nf.lmul_l(k, el))
                  for k in range(1, params.n + 1)}
        self.star_mat = self._gen_matrix(self.nf.star)
        # right multiplication via x*z = (z* x*)*
        S = self.star_mat
        self.RT = {i: matmul((S, self.T[i], S), p) for i in self.T}
        self.RL = {k: matmul((S, self.L[k], S), p) for k in self.L}
        self._word_cache: dict = {}

    def _gen_matrix(self, op) -> np.ndarray:
        D = self.dim
        M = np.zeros((D, D), dtype=np.int64)
        for j, key in enumerate(self.nf.basis):
            for out_key, c in op(self.nf.unit_at(key)).items():
                M[self.nf.index[out_key], j] = c % self.p
        return M

    def identity(self) -> np.ndarray:
        return np.eye(self.dim, dtype=np.int64)

    def unit_vector(self) -> np.ndarray:
        v = np.zeros(self.dim, dtype=np.int64)
        v[self.id_index] = 1
        return v

    def t_word_matrix(self, word: tuple[int, ...]) -> np.ndarray:
        if word not in self._word_cache:
            self._word_cache[word] = (matmul([self.T[i] for i in word], self.p)
                                      if word else self.identity())
        return self._word_cache[word]

    def matrix_of(self, el: dict) -> np.ndarray:
        """Left-multiplication matrix of an element given as a dict or a
        coefficient vector on the normal-form basis, as a sum of dense
        D x D chain products.  The tests' dense oracle: the program
        multiplies with :meth:`product` and the generator matrices."""
        if isinstance(el, np.ndarray):
            el = {self.nf.basis[j]: int(el[j]) for j in np.nonzero(el)[0]}
        out = np.zeros((self.dim, self.dim), dtype=np.int64)
        for (a, w), c in el.items():
            mats = [self.L[k] for k in range(1, self.params.n + 1)
                    for _ in range(a[k - 1])]
            mats.append(self.t_word_matrix(comb.official_word(w)))
            out = (out + c * matmul(mats, self.p)) % self.p
        return out

    @cached_property
    def spanning_tree(self) -> list[tuple[int, int, str, int]]:
        """The basis as a tree under right multiplication by generators:
        one (index of key, index of its parent, "RT" or "RL", generator
        index) per key but the identity, with key = parent * T_i or
        parent * L_k, parents first."""
        n, index = self.params.n, self.nf.index
        ident = comb.perm_identity(n)
        keys = sorted(self.nf.basis,
                      key=lambda key: (comb.perm_length(key[1]), sum(key[0])))
        tree = []
        for a, w in keys[1:]:
            if w != ident:
                word = comb.official_word(w)
                parent = (a, comb.perm_from_word(n, word[:-1]))
                gen = ("RT", word[-1])
            else:
                k = next(j for j in range(n) if a[j])
                parent = (a[:k] + (a[k] - 1,) + a[k + 1:], w)
                gen = ("RL", k + 1)
            tree.append((index[(a, w)], index[parent]) + gen)
        return tree

    def product(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Coefficient vector of x * y for reduced coefficient vectors x, y,
        from matrix-vector products only: the sum over the basis keys
        L^a T_w of x_(a,w) L^a (T_w y), with T_w y formed once per w."""
        p, n = self.p, self.params.n
        out = np.zeros(self.dim, dtype=np.int64)
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

    def vector_of(self, M: np.ndarray) -> np.ndarray:
        """Coefficient vector of the element with reduced matrix M."""
        return M[:, self.id_index]

    def relation_failures(self, rng=None, samples: int = 5) -> list[str]:
        """Exact matrix checks of every defining relation."""
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
        for i in T:
            for j in T:
                if abs(i - j) > 1:
                    check(f"commuting T_{i} T_{j}", (T[i], T[j]), (T[j], T[i]))
        for i in range(1, n - 1):
            check(f"braid T_{i} T_{i+1} T_{i}", (T[i], T[i + 1], T[i]),
                  (T[i + 1], T[i], T[i + 1]))
        for r in L:
            for s in L:
                check(f"commuting L_{r} L_{s}", (L[r], L[s]), (L[s], L[r]))
        for r in T:
            check(f"T_{r} L_{r} = L_{r+1}(T_{r} - q + 1)", (T[r], L[r]),
                  (L[r + 1], (T[r] - q * I + I) % p))
            TLT = matmul((T[r], L[r], T[r]), p)
            check(f"L_{r+1} = q^-1 T_{r} L_{r} T_{r}", (L[r + 1],),
                  (pow(q, -1, p) * TLT % p,))
            for s in L:
                if abs(r - s) > 1 and s != r + 1:
                    check(f"commuting T_{r} L_{s}", (T[r], L[s]), (L[s], T[r]))
        check("cyclotomic relation for L_1",
              [(L[1] - Qj * I) % p for Qj in self.nf.Q], zero)
        check("star is an involution", (S, S), (I,))
        if rng is None:
            rng = np.random.default_rng(20260826)
        for _ in range(samples):
            x = rng.integers(0, p, self.dim)
            y = rng.integers(0, p, self.dim)
            Sx, Sy = (matmul((S, v), p) for v in (x, y))
            check("star anti-multiplicativity on a random pair",
                  (S, self.product(x, y)), (self.product(Sy, Sx),))
        return fails


@lru_cache(maxsize=8)
def regular_rep(params: HeckeParams) -> RegularRep:
    return RegularRep(params)


# ---------------------------------------------------------------------------
# Seminormal block model over F_p(t)
# ---------------------------------------------------------------------------


class DegenerateContents(Exception):
    pass


@dataclass
class Block:
    shape: tuple
    std: list
    index: dict
    contents: list  # contents[s][k-1] = integer exponent of t
    tmats: dict     # i -> d x d list of lists of RatFunc


class SeminormalModel:
    """One block per multipartition; rows/columns indexed by standard
    tableaux; matrices record right multiplication, so that the map
    into the direct sum of matrix blocks is an algebra homomorphism."""

    def __init__(self, params: HeckeParams):
        params.validate()
        self.params = params
        p, n, l = params.p, params.n, params.l
        self.sc = RatScalars(p)
        mc = params.mc
        theta = comb.theta_sep(l, n)
        self.blocks: dict = {}
        seen_contents = set()
        for lam in comb.all_multipartitions(n, l):
            std = comb.std_tableaux(lam)
            idx = {t: s for s, t in enumerate(std)}
            contents = []
            for t in std:
                nm = comb.node_map(t)
                vec = tuple(comb.hat_content(nm[k], mc) for k in range(1, n + 1))
                if vec in seen_contents:
                    raise DegenerateContents(
                        f"content vector collision at shape {lam}")
                seen_contents.add(vec)
                contents.append(vec)
            tmats = {}
            for i in range(1, n):
                d = len(std)
                M = [[self.sc.zero] * d for _ in range(d)]
                for s, S in enumerate(std):
                    T = comb.apply_simple(S, i)
                    cs = tpow(p, contents[s][i - 1])
                    ct = tpow(p, comb.hat_content(comb.node_map(S)[i + 1], mc))
                    qq = tpow(p, 1)  # the generic parameter itself
                    if comb.is_standard(T):
                        tt = idx[T]
                        # the common diagonal coefficient
                        diag = (qq - self.sc.one) * ct / (ct - cs)
                        M[s][s] = M[s][s] + diag
                        if comb.tableau_strictly_dominates(S, T, theta):
                            M[s][tt] = M[s][tt] + self.sc.one
                        else:
                            off = ((qq * cs - ct) * (cs - qq * ct)
                                   / ((ct - cs) * (ct - cs)))
                            M[s][tt] = M[s][tt] + off
                    else:
                        ni = comb.node_map(S)[i]
                        nj = comb.node_map(S)[i + 1]
                        if ni[0] == nj[0] and ni[2] == nj[2]:  # same row
                            M[s][s] = M[s][s] + qq
                        else:  # same column
                            M[s][s] = M[s][s] - self.sc.one
                tmats[i] = M
            self.blocks[lam] = Block(lam, std, idx, contents, tmats)
        self.csets = content_sets(params)

    # -- structural checks ---------------------------------------------------

    def total_dimension(self) -> int:
        return sum(len(b.std) ** 2 for b in self.blocks.values())

    def _mat_mul(self, A, B):
        d = len(A)
        zero = self.sc.zero
        out = [[zero] * d for _ in range(d)]
        for i in range(d):
            for k in range(d):
                a = A[i][k]
                if a.is_zero():
                    continue
                rowB = B[k]
                rowO = out[i]
                for j in range(d):
                    if not rowB[j].is_zero():
                        rowO[j] = rowO[j] + a * rowB[j]
        return out

    def _mat_eq(self, A, B) -> bool:
        return all((A[i][j] - B[i][j]).is_zero()
                   for i in range(len(A)) for j in range(len(A)))

    def _ldiag(self, block: Block, k: int):
        p = self.params.p
        return [tpow(p, block.contents[s][k - 1]) for s in range(len(block.std))]

    def relation_failures(self) -> list[str]:
        p, q, n = self.params.p, self.params.q, self.params.n
        fails = []
        for lam, b in self.blocks.items():
            d = len(b.std)
            zero = [[self.sc.zero] * d for _ in range(d)]
            ident = [[self.sc.one if i == j else self.sc.zero
                      for j in range(d)] for i in range(d)]
            qr = tpow(p, 1)

            def smul(c, A):
                return [[c * x for x in row] for row in A]

            def madd(A, B):
                return [[A[i][j] + B[i][j] for j in range(d)] for i in range(d)]

            for i in range(1, n):
                Ti = b.tmats[i]
                lhs = self._mat_mul(madd(Ti, ident),
                                    madd(Ti, smul(-qr, ident)))
                if not self._mat_eq(lhs, zero):
                    fails.append(f"quadratic T_{i} in block {lam}")
            for i in range(1, n - 1):
                lhs = self._mat_mul(self._mat_mul(b.tmats[i], b.tmats[i + 1]),
                                    b.tmats[i])
                rhs = self._mat_mul(self._mat_mul(b.tmats[i + 1], b.tmats[i]),
                                    b.tmats[i + 1])
                if not self._mat_eq(lhs, rhs):
                    fails.append(f"braid T_{i} in block {lam}")
            for i in range(1, n):
                for j in range(i + 2, n):
                    lhs = self._mat_mul(b.tmats[i], b.tmats[j])
                    rhs = self._mat_mul(b.tmats[j], b.tmats[i])
                    if not self._mat_eq(lhs, rhs):
                        fails.append(f"commuting T_{i} T_{j} in block {lam}")
            # T_r L_r = L_{r+1} (T_r - q + 1) on diagonal L action
            for r in range(1, n):
                Lr = self._ldiag(b, r)
                Lr1 = self._ldiag(b, r + 1)
                Tr = b.tmats[r]
                lhs = [[Tr[i][j] * Lr[j] for j in range(d)] for i in range(d)]
                rhs = [[Lr1[i] * (Tr[i][j] + (self.sc.one - qr)
                                  * (self.sc.one if i == j else self.sc.zero))
                        for j in range(d)] for i in range(d)]
                if not self._mat_eq(lhs, rhs):
                    fails.append(f"mixed relation T_{r} L_{r} in block {lam}")
            # cyclotomic relation on L_1
            for s in range(d):
                val = self.sc.one
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
        val = self.sc.one
        for k in range(self.params.n):
            for c in sets[k]:
                if c == cS[k]:
                    continue
                if cU[k] == c:
                    return self.sc.zero
                val = val * ((tpow(p, cU[k]) - tpow(p, c))
                             / (tpow(p, cS[k]) - tpow(p, c)))
        return val

    def murphy_is_matrix_unit(self, S) -> bool:
        """The product formula applied in the block model must give the
        diagonal matrix unit at (S, S)."""
        one = self.sc.one
        for b in self.blocks.values():
            for U in b.std:
                val = self.murphy_eigenvalue(S, U)
                want = one if U == S else self.sc.zero
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


def content_sets(params: HeckeParams) -> list[list[int]]:
    """C(k): every integral content an entry k can have in a standard
    tableau of any multipartition of n."""
    mc = params.mc
    sets: list[set] = [set() for _ in range(params.n)]
    for t in standard_tableaux_all(params.n, params.l):
        nm = comb.node_map(t)
        for k in range(1, params.n + 1):
            sets[k - 1].add(comb.hat_content(nm[k], mc))
    return [sorted(s) for s in sets]


def generic_normal_form(params: HeckeParams) -> NormalForm:
    """Normal-form model over F_p(t) with q-hat = t and Q_j =
    t^{hat_kappa_j}; specializing t at q recovers ``RegularRep``."""
    p = params.p
    return NormalForm(params.n, params.l, RatScalars(p), tpow(p, 1),
                      [tpow(p, kj) for kj in params.hat_kappa])


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


# -- truncated power series in s = t - q: coefficient lists mod s^K --------


def shifted_binomial(q: int, d: int, p: int) -> tuple[int, list[int]]:
    """t^d - 1 at t = q + s as s^v u(s) over F_p, returned as (v, the
    coefficients of u), with u(0) != 0 (d >= 1).  The valuation v is the
    multiplicity of the root q of t^d - 1, read off the coefficients: 0
    unless the order e of q divides d, and p^a when it does and p^a
    exactly divides d, since then t^d - 1 = (t^(d/p^a) - 1)^(p^a)."""
    c = _series_pow(q, d, d + 1, p)
    c[0] = (c[0] - 1) % p
    v = next(j for j, x in enumerate(c) if x)
    return v, c[v:]


def _series_pow(q: int, m: int, K: int, p: int) -> list[int]:
    """(q + s)^m mod s^K over F_p, for any integer m."""
    def choose(j):  # the binomial coefficient m choose j, any sign of m
        return (binomial(m, j) if m >= 0
                else (-1) ** j * binomial(j - m - 1, j))
    return [choose(j) * pow(q, m - j, p) % p for j in range(K)]


def _series_mul(a: list[int], b: list[int], K: int, p: int) -> list[int]:
    """a b mod s^K over F_p."""
    return [sum(a[i] * b[j - i] for i in range(j + 1)
                if i < len(a) and j - i < len(b)) % p for j in range(K)]


def _series_inv(u: list[int], K: int, p: int) -> list[int]:
    """1 / u mod s^K over F_p, for u(0) != 0 given to K terms."""
    inv0 = pow(u[0], -1, p)
    w = [inv0]
    for j in range(1, K):
        acc = sum(u[i] * w[j - i] for i in range(1, j + 1))
        w.append(-acc * inv0 % p)
    return w


def _toeplitz(c: list[int], K: int) -> np.ndarray:
    """The K x K matrix of multiplication by the series c on coefficient
    rows: (V @ T)[:, j] = sum over i <= j of V[:, i] c[j - i]."""
    T = np.zeros((K, K), dtype=np.int64)
    for i in range(K):
        T[i, i:] = c[:K - i]
    return T


class MurphyEngine:
    """The product-formula idempotents F_T = prod_k prod_{c != c_T(k)}
    (L_k - t^c) / (t^{c_T(k)} - t^c) and their residue-class sums
    E_[i] = sum of F_T, in normal-form coordinates.

    The n operators t^{k-1} L_k have polynomial entries in the generic
    normal form; their numerators are expanded once, at construction,
    into sparse matrices indexed by coefficient degree.  Tableaux sharing
    an initial segment of contents share the corresponding partial
    products through one prefix-tree walk, :meth:`_walk`, which takes the
    factor step as a parameter.  Two steps use it.

    * The series path, :meth:`class_value`: E_[i] at t = q, which is all
      the pipeline needs.  With s = t - q every vector is a dim x K
      integer array of the coefficients of s^0, ..., s^(K-1), together
      with a pole order N, so that it stands for s^(-N) times that
      truncated series.  L_k becomes the stack of its s-coefficient
      matrices B_b, and a factor step multiplies by the series inverse of
      the unit part of its denominator and adds the denominator's
      s-adic valuation to N.  Each F_T has a pole at q; the class sum
      does not, and the integrality certificate is that every term of
      negative order in the sum vanishes.  No polynomial in t is formed
      and nothing is divided.
    * The generic oracle over F_p(t), :meth:`murphy_vectors`,
      :meth:`class_vector` and :meth:`class_vectors`: a vector is a dense
      int64 matrix with one column per power of t and a power-of-t
      offset, denominator-free until the leaves, which are reduced by
      exact division against the factored denominator.  The acceptance
      criteria on the generic idempotents and the tests of the series
      path use it; the pipeline does not."""

    def __init__(self, params: HeckeParams):
        params.validate_exact()
        self.params = params
        self.p = params.p
        self.nf = generic_normal_form(params)
        self.csets = content_sets(params)
        self.tabs = standard_tableaux_all(params.n, params.l)
        mc = params.mc
        self.content_of = {}
        for T in self.tabs:
            nm = comb.node_map(T)
            self.content_of[T] = tuple(comb.hat_content(nm[k], mc)
                                       for k in range(1, params.n + 1))
        if len(set(self.content_of.values())) != len(self.tabs):
            raise DegenerateContents("content vectors do not separate "
                                     "standard tableaux")
        self.key_index = {key: i for i, key in enumerate(self.nf.basis)}
        self.entries = {k: self._op_entries(k)
                        for k in range(1, params.n + 1)}
        self.ops = {k: self._op_layers(k) for k in range(1, params.n + 1)}
        # pole order at t = q of each product formula: the sum of the
        # s-adic valuations of its denominators
        val = cache(lambda d: shifted_binomial(params.q, d, self.p)[0])
        self.pole_order = {
            T: sum(val(abs(cT[k] - c)) for k in range(params.n)
                   for c in self.csets[k] if c != cT[k])
            for T, cT in self.content_of.items()}
        self.K = 1 + max(self.pole_order.values())
        self._powcache: dict[int, np.ndarray] = {}
        self._rootcache: dict[int, tuple] = {}
        self._dencache: dict = {}
        self._laycache: dict = {}
        self._stepcache: dict = {}

    def _op_entries(self, k: int) -> tuple[np.ndarray, ...]:
        """t^{k-1} L_k as coordinate arrays (degree a, row i, column j,
        value): the coefficient of t^a in the polynomial numerator of
        the basis-j column of the operator, row i.  Raises ValueError on
        an entry with a denominator."""
        quads = []
        for key in self.nf.basis:
            j = self.key_index[key]
            el = self.nf.lmul_l_unnorm(k, self.nf.unit_at(key))
            for okey, c in el.items():
                if not c.is_poly():
                    raise ValueError(
                        f"t^{k - 1} L_{k} has a non-polynomial entry {c!r}")
                i = self.key_index[okey]
                quads.extend((a, i, j, cv)
                             for a, cv in enumerate(c.num.coeffs) if cv)
        return tuple(np.array(col, dtype=np.int64) for col in zip(*quads))

    def _op_layers(self, k: int):
        """t^{k-1} L_k as (degree, sparse matrix) layers from
        :meth:`_op_entries`, grouped in chunks whose rows hold at most dim
        nonzeros together."""
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
        unit[self.key_index[self.nf.identity_key], 0] = 1
        return unit

    # -- the series path at t = q ------------------------------------------

    def _series_layers(self, k: int, K: int):
        """L_k = t^{-(k-1)} sum_a A_a t^a at t = q + s, as the sparse stack
        [B_0; ...; B_{K-1}] of its s^b coefficients, reduced mod p and
        cached.  Each B_b is dim x dim, so a row holds at most dim
        nonzeros and B_b times a reduced vector stays within
        :func:`product_bound`."""
        B = self._laycache.get((k, K))
        if B is None:
            p, q, dim = self.p, self.params.q, len(self.nf.basis)
            deg, rows, cols, vals = self.entries[k]
            # coef[a, b]: the coefficient of s^b in (q + s)^(a - k + 1)
            coef = np.array([_series_pow(q, a - k + 1, K, p)
                             for a in range(int(deg.max()) + 1)],
                            dtype=np.int64)
            w = vals[:, None] * coef[deg] % p
            B = sparse.csr_matrix(
                (w.T.ravel(), (np.concatenate([rows + b * dim
                                               for b in range(K)]),
                               np.tile(cols, K))),
                shape=(K * dim, dim), dtype=np.int64)
            B.sum_duplicates()
            B.data %= p
            B.eliminate_zeros()
            self._laycache[(k, K)] = B
        return B

    def _step_scalars(self, ck: int, c: int) -> tuple:
        """The scalar part of the factor (L_k - t^c) / (t^ck - t^c) at
        t = q + s, cached: (Toeplitz matrix of 1/u, Toeplitz matrix of
        t^c / u, v), where the denominator is s^v u with u(0) != 0, to
        the engine's largest truncation order.  The denominator is
        +-t^min (t^d - 1) with d = |ck - c|, and v is the valuation of
        t^d - 1 at q (:func:`shifted_binomial`)."""
        hit = self._stepcache.get((ck, c))
        if hit is None:
            p, q, K = self.p, self.params.q, self.K
            v, unit = shifted_binomial(q, abs(ck - c), p)
            den = _series_mul(_series_pow(q, min(ck, c), K, p), unit, K, p)
            if ck < c:
                den = [-x % p for x in den]
            inv = _series_inv(den, K, p)
            hit = (_toeplitz(inv, K),
                   _toeplitz(_series_mul(_series_pow(q, c, K, p), inv, K, p),
                             K),
                   v)
            self._stepcache[(ck, c)] = hit
        return hit

    def _series_step(self, V: np.ndarray, k: int, ck: int,
                     c: int) -> tuple[np.ndarray, int]:
        """The step of the series path: V -> (L_k - t^c) V / u mod s^K,
        where t^ck - t^c = s^v u; returns the new array and the pole
        order increment v."""
        p = self.p
        dim, K = V.shape
        inv, c_inv, v = self._step_scalars(ck, c)
        P = self._series_layers(k, K) @ V % p
        LV = P[:dim].copy()
        for b in range(1, K):
            LV[:, b:] += P[b * dim:(b + 1) * dim, :K - b]
        W = (matmul((LV % p, inv[:K, :K]), p)
             - matmul((V, c_inv[:K, :K]), p)) % p
        return W, v

    def class_value(self, tabs) -> dict:
        """E_[i] = sum of F_T over the tableaux ``tabs`` of one residue
        class, at t = q: {basis key: coefficient in [1, p)}.

        The leaves of the prefix tree are carried as truncated Laurent
        series in s = t - q to order K = 1 + the largest pole order of
        the class, which is the exact precision of the s^0 term.  They
        are aligned by pole order and added; every term of negative order
        must cancel, otherwise PoleAtSpecialization is raised naming the
        class, a basis key and the order.  The s^0 column is the value."""
        p, dim = self.p, len(self.nf.basis)
        K = 1 + max(self.pole_order[T] for T in tabs)
        leaves: dict = {}
        self._walk(list(tabs), 1, self._unit(K), 0, self._series_step,
                   lambda T, V, N: (V, N), leaves)
        top = K - 1
        acc = np.zeros((dim, K), dtype=np.int64)
        for V, N in leaves.values():
            acc[:, top - N:] += V[:, :N + 1]
        acc %= p
        bad = np.argwhere(acc[:, :top])
        if len(bad):
            i, j = bad[0]
            seq = comb.residue_seq(tabs[0], self.params.mc)
            raise PoleAtSpecialization(
                f"class {seq}: coordinate {self.nf.basis[i]} has a "
                f"nonzero term of order s^{j - top} at t = q")
        return {self.nf.basis[i]: int(acc[i, top])
                for i in np.flatnonzero(acc[:, top])}

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
    """Standard tableaux of size n grouped by residue sequence mod e."""
    mc = params.mc
    classes: dict = {}
    for t in standard_tableaux_all(params.n, params.l):
        classes.setdefault(comb.residue_seq(t, mc), []).append(t)
    return classes


def class_idempotent_vector(params: HeckeParams, tabs) -> dict:
    """E_[i] = sum of F_T over the class ``tabs``, at t = q, in
    normal-form coordinates over F_p: :meth:`MurphyEngine.class_value` of
    the cached engine at ``params``.  Raises PoleAtSpecialization if the
    sum has a pole at q."""
    return murphy_engine(params).class_value(tabs)


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
    L_1, L_2, T_1 eigenvalues q^{kappa_j}, q^{kappa_j + 1}, q.

    Computed two independent ways -- specializing the generic class
    idempotent, and solving the eigenvalue system in the regular
    representation of the two-string algebra -- and cross-checked.
    Returned as dicts on the two-string normal-form basis; the keys
    embed verbatim into any larger normal-form basis by appending
    zero exponents and fixed points."""
    if params.n < 2:
        raise ValueError("needs n >= 2")
    p2 = _two_string_params(params)
    p2.validate()
    p, q, e = p2.p, p2.q, p2.e
    classes = class_partition(p2)
    reg = RegularRep(p2)
    out = []
    for j in range(params.l):
        kj = p2.mc.kappa[j]
        # route (a): the class of the row tableau of component j is a
        # singleton; specialize its class idempotent
        key = (kj % e, (kj + 1) % e)
        tabs = classes[key]
        if len(tabs) != 1:
            raise ValueError(f"class {key} is not a singleton; bad multicharge")
        va = class_idempotent_vector(p2, tabs)
        # route (b): eigenvalue system in the regular representation
        I = reg.identity()
        stack = np.vstack([
            (reg.L[1] - pow(q, kj, p) * I) % p,
            (reg.L[2] - pow(q, kj + 1, p) * I) % p,
            (reg.T[1] - q * I) % p,
        ])
        ns = nullspace(stack, p)
        if ns.shape[0] != 1:
            raise ValueError(f"eigenvalue system solution space has "
                             f"dimension {ns.shape[0]}, expected 1")
        v = ns[0]
        v2 = reg.product(v, v)
        # v^2 = beta v on a one-dimensional block; normalize
        pos = int(np.nonzero(v)[0][0])
        beta = v2[pos] * pow(int(v[pos]), -1, p) % p
        if not np.array_equal(v2, beta * v % p):
            raise ValueError("eigenvalue system vector does not square "
                             "into its own line")
        vb = pow(int(beta), -1, p) * v % p
        vb_dict = {reg.nf.basis[i]: int(vb[i]) for i in np.nonzero(vb)[0]}
        if vb_dict != va:
            raise ValueError(f"the two constructions of the rank-one "
                             f"idempotent disagree at component {j}")
        out.append(va)
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
