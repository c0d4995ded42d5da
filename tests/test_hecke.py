import copy
import math
import re
from itertools import combinations

import numpy as np
import pytest

from blobcell import blob as B
from blobcell import combinatorics as C
from blobcell import exactfield as xf
from blobcell import hecke as H
from blobcell.exactfield import (PoleAtSpecialization, Poly, RatFunc,
                                 matmul)
from conftest import eigenvalue_system_seeds

P22 = H.default_params(2, 2)
P32 = H.default_params(3, 2)
P23 = H.default_params(2, 3)

ZERO = RatFunc.const(P22.p, 0)


class TestParams:
    def test_composite_modulus_rejected(self):
        with pytest.raises(ValueError, match="not prime"):
            H.HeckeParams(n=2, l=2, e=5, p=12, q=3, hat_kappa=(0, 2))

    def test_wrong_order_rejected(self):
        with pytest.raises(ValueError, match="order"):
            H.HeckeParams(n=2, l=2, e=5, p=11, q=10, hat_kappa=(0, 2))

    def test_multicharge_length(self):
        with pytest.raises(ValueError, match="length"):
            H.HeckeParams(n=2, l=2, e=5, p=11, q=3, hat_kappa=(0, 2, 4))

    def test_condition_i_gap(self):
        pa = H.HeckeParams(n=3, l=2, e=7, p=29, q=16, hat_kappa=(0, 2))
        with pytest.raises(ValueError, match="condition i\\)"):
            pa.validate()

    def test_condition_ii_adjacent_residues(self):
        pa = H.HeckeParams(n=3, l=2, e=7, p=29, q=16, hat_kappa=(0, 8))
        with pytest.raises(ValueError, match="condition ii\\)"):
            pa.validate()

    def test_defaults_validate(self):
        for pa in (P22, P32, P23, H.default_params(4, 2),
                   H.default_params(3, 3)):
            pa.validate()
            assert (pow(pa.q, pa.e, pa.p) == 1
                    and all(pow(pa.q, m, pa.p) != 1
                            for m in range(1, pa.e)))
            gaps = [b - a for a, b in zip(pa.hat_kappa, pa.hat_kappa[1:])]
            assert all(g >= pa.n for g in gaps)

    def test_five_strings_fit_in_memory(self):
        # the 10 dense matrices of dim H = 3840 take 1.2 GB
        H.default_params(5, 2).validate_exact()

    @pytest.mark.parametrize("e", [0, -5])
    def test_quantum_characteristic_below_one(self, e):
        for fields in ({}, {"p": 11, "q": 1, "hat_kappa": (0, 5)}):
            with pytest.raises(ValueError, match=f"e = {e}: "):
                H.default_params(2, 2, e=e, **fields)
        with pytest.raises(ValueError, match=f"order {e} mod 11"):
            H.HeckeParams(n=2, l=2, e=e, p=11, q=1, hat_kappa=(0, 5))

    def test_override_multicharge(self):
        pa = H.default_params(2, 2, hat_kappa=(1, 8))
        assert pa.hat_kappa == (1, 8)

    def test_prime_beyond_product_bound_rejected(self):
        # at (2,2), dim H = 8 and 8 (p - 1)^2 passes 2^63 for p near 2^31;
        # rejected with the bound named, before anything is built
        pa = H.default_params(2, 2, p=2147483951)
        with pytest.raises(ValueError, match="product bound"):
            pa.validate_exact()
        with pytest.raises(ValueError, match="product bound"):
            H.RegularRep(pa)
        with pytest.raises(ValueError, match="product bound"):
            H.MurphyEngine(pa)
        H.default_params(2, 2, p=1000151).validate_exact()


class TestNormalForm:
    def test_basis_size(self):
        # the free module has rank l^n n!
        assert H.generic_normal_form(P32).dim == 48
        assert H.generic_normal_form(P23).dim == 18

    def test_multiplication_unital_generic(self):
        nf = H.generic_normal_form(P22)
        for key in nf.basis:
            x = nf.unit_at(key)
            assert nf.equal(nf.multiply(nf.unit(), x), x)
            assert nf.equal(nf.multiply(x, nf.unit()), x)

    def test_multiplication_associative_sample(self):
        nf = H.generic_normal_form(P22)
        rng = np.random.default_rng(7)
        keys = [nf.basis[i] for i in rng.integers(0, nf.dim, 6)]
        for a, b, c in zip(keys[::3], keys[1::3], keys[2::3]):
            x, y, z = (nf.unit_at(k) for k in (a, b, c))
            assert nf.equal(nf.multiply(nf.multiply(x, y), z),
                            nf.multiply(x, nf.multiply(y, z)))

    def test_star_involution_and_antihomomorphism(self):
        nf = H.generic_normal_form(P22)
        rng = np.random.default_rng(11)
        keys = [nf.basis[i] for i in rng.integers(0, nf.dim, 8)]
        for a, b in zip(keys[::2], keys[1::2]):
            x, y = nf.unit_at(a), nf.unit_at(b)
            assert nf.equal(nf.star(nf.star(x)), x)
            assert nf.equal(nf.star(nf.multiply(x, y)),
                            nf.multiply(nf.star(y), nf.star(x)))

    def test_generic_l_action_is_rational(self):
        # L_k for k > 1 needs q-hat = t inverted; the values lie in the
        # same field F_p(t) as the Murphy idempotents
        nf = H.generic_normal_form(P22)
        out = nf.lmul_l(2, nf.unit())
        assert out and all(isinstance(v, RatFunc) for v in out.values())
        out = nf.lmul_l(2, nf.unit_at(((0, 1), (1, 2))))
        assert any(not v.is_poly() for v in out.values())

    def test_unnormalized_l_action_scaling(self):
        # lmul_l_unnorm computes t^{k-1} L_k
        nf = H.generic_normal_form(P23)
        x = nf.unit()
        lhs = nf.lmul_l_unnorm(2, x)
        rhs = nf.scale(H.tpow(P23.p, 1), nf.lmul_l(2, x))
        assert nf.equal(lhs, rhs)


class TestRegularRep:
    @pytest.mark.parametrize("pa", [P22, P32, P23], ids=["22", "32", "23"])
    def test_relation_suite(self, pa):
        assert H.RegularRep(pa).relation_failures() == []

    @pytest.mark.parametrize("pa", [P22, P32, P23], ids=["22", "32", "23"])
    def test_star_certificate_names_the_generators(self, pa):
        # a star with two columns swapped fails the exact certificate at
        # every generator, and at 1 when the unit's column moves; only the
        # involution check may fail besides
        reg = copy.copy(H.regular_rep(pa))
        gens = [f"T_{i}" for i in reg.T] + ["L_1"]
        a, b = [j for j in range(reg.dim) if j != reg.id_index][-2:]
        for j, k in ((reg.id_index, a), (a, b)):
            reg.star_mat = H.regular_rep(pa).star_mat.copy()
            reg.star_mat[:, [j, k]] = reg.star_mat[:, [k, j]]
            want = ["1"] * (j == reg.id_index) + gens
            fails = reg.relation_failures()
            assert [f for f in fails if f != "star is an involution"] == [
                f"star anti-multiplicativity on {g}" for g in want]

    def test_dimension(self):
        assert H.RegularRep(P32).dim == 48

    def test_vector_matrix_roundtrip(self):
        reg = H.RegularRep(P22)
        rng = np.random.default_rng(3)
        v = rng.integers(0, reg.p, reg.dim)
        assert np.array_equal(reg.matrix_of(v)[:, reg.id_index], v % reg.p)

    @pytest.mark.parametrize("pa", [P22, P32, P23], ids=["22", "32", "23"])
    def test_l_from_entries_matches_normalized_rewriting(self, pa):
        # L_k = q^{1-k} sum_a q^a A_a from the arrays of t^{k-1} L_k,
        # against the generic L_k (divided by t^{k-1}) specialized at q
        reg = H.regular_rep(pa)
        nf = reg.nf
        for k in reg.L:
            for j, key in enumerate(nf.basis):
                col = H.specialize_vector(nf.lmul_l(k, nf.unit_at(key)), pa)
                assert np.array_equal(reg.L[k][:, j],
                                      reg.coefficients(col)), (k, key)

    @pytest.mark.parametrize("n,l", [(2, 2), (3, 2), (2, 3), (3, 3),
                                     (4, 2)])
    def test_entries_follow_the_recursion(self, n, l):
        # the arrays composed as T_k entries[k] T_k, against the generic
        # rewriting of t^{k-1} L_k key by key
        reg = H.regular_rep(H.default_params(n, l))
        for k in reg.entries:
            assert entry_set(reg.entries[k]) == entry_set(
                reg._entries(reg.nf.lmul_l_unnorm, k)), k

    def test_entries_at_the_largest_admitted_prime(self):
        # the largest p = 1 mod 5 within the product bound at dim H = 48
        # (the next, 438353281, is refused): the composed products and
        # sums stay exact
        pa = H.default_params(3, 2, p=438353261, q=166042506)
        pa.validate_exact()
        with pytest.raises(ValueError, match="product bound"):
            H.default_params(3, 2, p=438353281).validate_exact()
        reg = H.RegularRep(pa)
        for k in reg.entries:
            assert entry_set(reg.entries[k]) == entry_set(
                reg._entries(reg.nf.lmul_l_unnorm, k)), k

    def test_construction_does_not_rewrite_l_k(self, monkeypatch):
        calls = []
        orig = H.NormalForm.lmul_l_unnorm

        def spy(self, k, el):
            calls.append(k)
            return orig(self, k, el)
        monkeypatch.setattr(H.NormalForm, "lmul_l_unnorm", spy)
        reg = H.RegularRep(P32)
        assert calls == [] and sorted(reg.entries) == [1, 2, 3]

    def test_each_commuting_l_pair_is_checked_once(self):
        # L_2 replaced by T_1, which commutes with L_3 but not with L_1:
        # the one pair checked, (1, 2), fails once; the other pairs follow
        # from it by induction and are not formed
        reg = copy.copy(H.regular_rep(P32))
        reg.L = dict(reg.L)
        reg.L[2] = reg.T[1]
        fails = [f for f in reg.relation_failures()
                 if f.startswith("commuting L_")]
        assert fails == ["commuting L_1 L_2"]

    def test_t_r_l_1_is_checked_from_r_2(self):
        # L_1 replaced by T_1, which commutes with no T_2
        reg = copy.copy(H.regular_rep(P32))
        reg.L = {**reg.L, 1: reg.T[1]}
        assert "commuting T_2 L_1" in reg.relation_failures()

    def test_each_commuting_t_pair_is_checked_once(self):
        # T_3 replaced by T_2, which does not commute with T_1
        reg = copy.copy(H.regular_rep(H.default_params(4, 2)))
        reg.T = {**reg.T, 3: reg.T[2]}
        fails = reg.relation_failures()
        assert [f for f in fails if re.fullmatch(r"commuting T_\d T_\d", f)] \
            == ["commuting T_1 T_3"]

    def test_relation_suite_products(self, monkeypatch):
        # at (3,3): 2 quadratic, 4 braid, 2 for L_1 L_2, 2 for T_2 L_1,
        # 2 cyclotomic, 1 for S^2, and 2 per star conjugate S L_g S and
        # per unordered pair {g, h} of T_1, T_2, L_1; at (4,2): 3
        # quadratic, 2 for T_1 T_3, 8 braid, 2 for L_1 L_2, 4 for T_r L_1,
        # 1 cyclotomic, 1 for S^2, and 2 per S L_g S and pair of T_1, T_2,
        # T_3, L_1
        shapes, product = [], xf._product

        def recorded(M, N, p):
            shapes.append((*M.shape, N.shape[1] if N.ndim == 2 else 1))
            return product(M, N, p)

        monkeypatch.setattr(xf, "_product", recorded)
        for n, l, count in [(3, 3, 31), (4, 2, 49)]:
            reg = H.regular_rep(H.default_params(n, l))
            shapes.clear()
            assert reg.relation_failures() == []
            assert shapes.count((reg.dim,) * 3) == count, (n, l)

    @pytest.mark.parametrize("n,l", [(3, 2), (2, 3), (3, 3), (4, 2)])
    def test_every_l_pair_commutes(self, n, l):
        # the pairs the suite leaves to the induction from L_1 L_2
        reg = H.regular_rep(H.default_params(n, l))
        for r, s in combinations(reg.L, 2):
            assert np.array_equal(matmul((reg.L[r], reg.L[s]), reg.p),
                                  matmul((reg.L[s], reg.L[r]), reg.p)), (r, s)

    def test_spanning_tree_levels(self):
        # every key but the identity once, each the product of a parent
        # reached at a lower level with the level's generator
        reg = H.regular_rep(P32)
        n, index = reg.params.n, reg.nf.index
        ident = C.perm_identity(n)
        reached = {reg.id_index}
        for kind, i, keys, parents in reg.spanning_tree:
            assert reached.issuperset(parents.tolist())
            assert reached.isdisjoint(keys.tolist())
            gen = np.zeros(reg.dim, dtype=np.int64)
            gen[index[((0,) * n, C.perm_from_word(n, [i]))] if kind == "T"
                else index[(tuple(int(j == i - 1) for j in range(n)),
                            ident)]] = 1
            for key, parent in zip(keys, parents):
                x = np.zeros(reg.dim, dtype=np.int64)
                x[parent] = 1
                y = reg.product(x, gen)
                assert np.flatnonzero(y).tolist() == [key] and y[key] == 1
            reached.update(keys.tolist())
        assert reached == set(range(reg.dim))

    def test_regular_rep_is_faithful(self):
        # matrix_of is injective: an element is recovered from its
        # column at the identity, so the matrix determines the element
        reg = H.RegularRep(P22)
        M = reg.matrix_of(reg.unit_vector())
        assert np.array_equal(M, reg.identity())


def entry_set(entries) -> set:
    """Coordinate arrays as a set of (degree, row, column, value)."""
    return set(zip(*(v.tolist() for v in entries)))


def two_term_ratfuncs(sm, lam, i):
    """T_i of block lam over F_p(t) from the two-term formulas, on
    canonical RatFuncs: the diagonal (t - 1) t^c' / (t^c' - t^c) and the
    entry (t t^c - t^c')(t^c - t t^c') / (t^c' - t^c)^2 or 1 at (S, S s_i),
    with c = c_S(i), c' = c_S(i+1); t or -1 when S s_i is not standard."""
    p = sm.params.p
    b = sm.blocks[lam]
    theta = C.theta_sep(sm.params.l, sm.params.n)
    one, t = RatFunc.const(p, 1), H.tpow(p, 1)
    d = len(b.std)
    M = [[RatFunc.const(p, 0)] * d for _ in range(d)]
    for s, S in enumerate(b.std):
        T = C.apply_simple(S, i)
        cs = H.tpow(p, b.contents[s][i - 1])
        ct = H.tpow(p, b.contents[s][i])
        if C.is_standard(T):
            M[s][s] = M[s][s] + (t - one) * ct / (ct - cs)
            if C.tableau_strictly_dominates(S, T, theta):
                off = one
            else:
                off = (t * cs - ct) * (cs - t * ct) / ((ct - cs) * (ct - cs))
            M[s][b.index[T]] = M[s][b.index[T]] + off
        else:
            ni, nj = C.node_map(S)[i], C.node_map(S)[i + 1]
            same_row = ni[0] == nj[0] and ni[2] == nj[2]
            M[s][s] = M[s][s] + (t if same_row else -one)
    return M


def block_ratfuncs(sm, b):
    """i -> T_i = N_i / d_i of block b as canonical RatFuncs."""
    return {i: [[RatFunc.make(x, b.dens[i]) for x in row]
                for row in b.nums[i]] for i in b.nums}


def ratfunc_relation_failures(sm) -> list[str]:
    """The seminormal relation suite on T_i = N_i / d_i over F_p(t),
    dividing in every product: the reference for the denominator-free
    suite of ``SeminormalModel.relation_failures``."""
    p, n = sm.params.p, sm.params.n
    zero, one, qr = RatFunc.const(p, 0), RatFunc.const(p, 1), H.tpow(p, 1)

    def mul(A, B):
        d = len(A)
        return [[sum((A[i][k] * B[k][j] for k in range(d)), zero)
                 for j in range(d)] for i in range(d)]

    def eq(A, B):
        return all((x - y).is_zero() for ra, rb in zip(A, B)
                   for x, y in zip(ra, rb))

    fails = []
    for lam, b in sm.blocks.items():
        d = len(b.std)
        T = block_ratfuncs(sm, b)
        ident = [[one if i == j else zero for j in range(d)]
                 for i in range(d)]
        zeros = [[zero] * d for _ in range(d)]

        def plus(A, c):
            return [[A[i][j] + c * ident[i][j] for j in range(d)]
                    for i in range(d)]

        for i in range(1, n):
            if not eq(mul(plus(T[i], one), plus(T[i], -qr)), zeros):
                fails.append(f"quadratic T_{i} in block {lam}")
        for i in range(1, n - 1):
            if not eq(mul(mul(T[i], T[i + 1]), T[i]),
                      mul(mul(T[i + 1], T[i]), T[i + 1])):
                fails.append(f"braid T_{i} in block {lam}")
        for i in range(1, n):
            for j in range(i + 2, n):
                if not eq(mul(T[i], T[j]), mul(T[j], T[i])):
                    fails.append(f"commuting T_{i} T_{j} in block {lam}")
        for r in range(1, n):
            Lr = [H.tpow(p, c[r - 1]) for c in b.contents]
            Lr1 = [H.tpow(p, c[r]) for c in b.contents]
            lhs = [[T[r][i][j] * Lr[j] for j in range(d)] for i in range(d)]
            rhs = [[Lr1[i] * x for x in row]
                   for i, row in enumerate(plus(T[r], one - qr))]
            if not eq(lhs, rhs):
                fails.append(f"mixed relation T_{r} L_{r} in block {lam}")
        for s in range(d):
            val = one
            for kj in sm.params.hat_kappa:
                val = val * (H.tpow(p, b.contents[s][0]) - H.tpow(p, kj))
            if not val.is_zero():
                fails.append(f"cyclotomic L_1 in block {lam}")
                break
    return fails


def per_factor_eigenvalue(sm, S, U):
    """The eigenvalue of F_S on the seminormal vector of U as the product
    of every factor (t^{c_U(k)} - t^c) / (t^{c_S(k)} - t^c), c != c_S(k),
    the unit ones included."""
    def contents(X):
        b = sm.blocks[C.shape_of(X)]
        return b.contents[b.index[X]]
    p = sm.params.p
    cS, cU = contents(S), contents(U)
    val = RatFunc.const(p, 1)
    for k in range(sm.params.n):
        for c in sm.csets[k]:
            if c == cS[k]:
                continue
            if cU[k] == c:
                return RatFunc.const(p, 0)
            val = val * ((H.tpow(p, cU[k]) - H.tpow(p, c))
                         / (H.tpow(p, cS[k]) - H.tpow(p, c)))
    return val


class TestSeminormal:
    @pytest.mark.parametrize("pa", [P22, P32, P23], ids=["22", "32", "23"])
    def test_total_dimension(self, pa):
        sm = H.SeminormalModel(pa)
        assert sum(len(b.std) ** 2 for b in sm.blocks.values()) == \
            pa.l ** pa.n * math.factorial(pa.n)

    @pytest.mark.parametrize("pa", [P22, P32, P23], ids=["22", "32", "23"])
    def test_relation_suite(self, pa):
        assert H.SeminormalModel(pa).relation_failures() == []

    @pytest.mark.parametrize("n,l", [(2, 2), (3, 2), (2, 3), (3, 3)])
    def test_numerators_match_the_two_term_formulas(self, n, l):
        sm = H.SeminormalModel(H.default_params(n, l))
        for lam, b in sm.blocks.items():
            assert block_ratfuncs(sm, b) == {
                i: two_term_ratfuncs(sm, lam, i) for i in b.nums}, lam

    @pytest.mark.parametrize("n,l", [(2, 2), (3, 2), (2, 3), (3, 3)])
    def test_cleared_suite_matches_ratfunc_reference(self, n, l):
        sm = H.SeminormalModel(H.default_params(n, l))
        assert sm.relation_failures() == ratfunc_relation_failures(sm) == []

    @pytest.mark.parametrize("what", ["numerator", "denominator"])
    def test_perturbations_are_named_like_the_reference(self, what):
        # one entry of one block's N_1, or its d_1, moved by one: both
        # suites report the same failures under the same names
        sm = H.SeminormalModel(P32)
        lam = next(lam for lam, b in sm.blocks.items() if len(b.std) > 1)
        b = sm.blocks[lam]
        one = Poly.const(P32.p, 1)
        if what == "numerator":
            b.nums[1] = [list(row) for row in b.nums[1]]
            b.nums[1][0][0] = b.nums[1][0][0] + one
        else:
            b.dens[1] = b.dens[1] + one
        fails = sm.relation_failures()
        assert f"quadratic T_1 in block {lam}" in fails
        assert fails == ratfunc_relation_failures(sm)

    def test_cleared_suite_takes_no_gcd(self, monkeypatch):
        sm = H.SeminormalModel(P32)
        calls = []
        orig = Poly.gcd

        def counted(self, other):
            calls.append(1)
            return orig(self, other)
        monkeypatch.setattr(Poly, "gcd", counted)
        assert sm.relation_failures() == []
        assert calls == []

    @pytest.mark.parametrize("pa", [P32, P23], ids=["32", "23"])
    def test_eigenvalue_skips_unit_factors(self, pa):
        # the eigenvalue without the levels k where c_U(k) = c_S(k)
        # equals the full per-factor product, as canonical RatFuncs
        sm = H.SeminormalModel(pa)
        tabs = H.standard_tableaux_all(pa.n, pa.l)
        for S in tabs:
            for U in tabs:
                assert sm.murphy_eigenvalue(S, U) == \
                    per_factor_eigenvalue(sm, S, U), (S, U)

    @pytest.mark.parametrize("pa", [P22, P32, P23], ids=["22", "32", "23"])
    def test_product_formula_gives_matrix_units(self, pa):
        sm = H.SeminormalModel(pa)
        for S in H.standard_tableaux_all(pa.n, pa.l):
            assert sm.murphy_is_matrix_unit(S)


class TestMurphyIdempotents:
    """The product-formula idempotents expanded in normal-form
    coordinates over F_p(t), checked against exact generic arithmetic."""

    def _vectors(self, pa):
        eng = H.murphy_engine(pa)
        return eng, eng.murphy_vectors()

    def test_pairwise_products(self):
        pa = P22
        nf = H.generic_normal_form(pa)
        _, vecs = self._vectors(pa)
        tabs = list(vecs)
        els = {S: {k: v for k, v in vecs[S].items()} for S in tabs}
        for S in tabs:
            for T in tabs:
                prod = nf.multiply(els[S], els[T])
                want = els[S] if S == T else {}
                assert nf.equal(prod, want), (S, T)

    def test_completeness(self):
        pa = P22
        nf = H.generic_normal_form(pa)
        _, vecs = self._vectors(pa)
        total: dict = {}
        for fv in vecs.values():
            total = nf.add(total, fv)
        assert nf.equal(total, nf.unit())

    def test_content_eigenvalue(self):
        # L_k F_S = t^{c_S(k)} F_S generically
        pa = P22
        nf = H.generic_normal_form(pa)
        eng, vecs = self._vectors(pa)
        for S, fv in vecs.items():
            for k in (1, 2):
                lhs = nf.lmul_l(k, fv)
                rhs = nf.scale(H.tpow(pa.p, eng.content_of[S][k - 1]), fv)
                assert nf.equal(lhs, rhs)

    def test_star_fixes_idempotents(self):
        pa = P22
        nf = H.generic_normal_form(pa)
        _, vecs = self._vectors(pa)
        for S, fv in vecs.items():
            assert nf.equal(nf.star(fv), fv), S

    @pytest.mark.parametrize("pa", [P22, P32, P23], ids=["22", "32", "23"])
    def test_class_partition_of_unity_generic(self, pa):
        cv = H.murphy_engine(pa).class_vectors()
        total: dict = {}
        for vec in cv.values():
            for bk, v in vec.items():
                total[bk] = v if bk not in total else total[bk] + v
        idk = H.generic_normal_form(pa).identity_key
        one = RatFunc.const(pa.p, 1)
        for bk, v in total.items():
            want = one if bk == idk else ZERO
            assert (v - want).is_zero()

    @pytest.mark.parametrize("pa", [P22, P32, P23], ids=["22", "32", "23"])
    def test_class_idempotents_specialize_pole_free(self, pa):
        cv = H.murphy_engine(pa).class_vectors()
        total = np.zeros(pa.l ** pa.n * int(math.factorial(pa.n)),
                         dtype=np.int64)
        reg = H.RegularRep(pa)
        mats = {}
        for key, vec in cv.items():
            sp = H.specialize_vector(vec, pa)  # raises on any pole
            mats[key] = reg.matrix_of(
                {bk: c for bk, c in sp.items()})
        # specialized class idempotents are a complete orthogonal family
        keys = list(mats)
        acc = np.zeros_like(reg.identity())
        for ka in keys:
            acc = (acc + mats[ka]) % pa.p
            assert np.array_equal(matmul((mats[ka], mats[ka]), reg.p),
                                  mats[ka])
        assert np.array_equal(acc, reg.identity())
        for ka in keys:
            for kb in keys:
                if ka != kb:
                    assert not matmul((mats[ka], mats[kb]), reg.p).any()

    def test_single_tableau_idempotent_has_pole(self):
        # a non-singleton class exists at (3,2); its individual tableau
        # idempotents each have a pole at t = q which cancels in the sum
        pa = P32
        eng = H.murphy_engine(pa)
        classes = H.class_partition(pa)
        key, tabs = next((k, ts) for k, ts in sorted(classes.items())
                         if len(ts) > 1)
        vecs = eng.murphy_vectors(tabs)
        for T in tabs:
            assert any(v.has_pole_at(pa.q) for v in vecs[T].values()), T
            with pytest.raises(PoleAtSpecialization):
                H.specialize_vector(vecs[T], pa)
        generic = eng.class_vector(tabs)
        assert H.class_idempotent_vector(pa, tabs) == \
            H.specialize_vector(generic, pa)

    @pytest.mark.parametrize("pa", [P32, P23], ids=["32", "23"])
    def test_class_idempotent_matches_tableau_sum(self, pa):
        # oracle: the F_p(t) sum of the reduced tableau idempotents
        eng = H.murphy_engine(pa)
        for key, tabs in H.class_partition(pa).items():
            vecs = eng.murphy_vectors(tabs)
            want: dict = {}
            for T in tabs:
                for bk, v in vecs[T].items():
                    want[bk] = v if bk not in want else want[bk] + v
            got = eng.class_vector(tabs)
            for bk in set(want) | set(got):
                assert (got.get(bk, ZERO) - want.get(bk, ZERO)).is_zero(), \
                    (key, bk)
            assert H.specialize_vector(got, pa) == \
                H.specialize_vector(want, pa), key
            assert H.class_idempotent_vector(pa, tabs) == \
                H.specialize_vector(got, pa), key

    @pytest.mark.parametrize("n,l,p", [(2, 2, 11), (2, 2, 31), (3, 2, 11),
                                       (3, 2, 31), (2, 3, 29), (2, 3, 43)])
    def test_series_value_matches_generic_oracle(self, n, l, p):
        # the weight idempotent at t = q against the F_p(t) class sum
        # specialized at q, on every class
        pa = H.default_params(n, l, p=p)
        eng = H.murphy_engine(pa)
        for key, tabs in H.class_partition(pa).items():
            assert H.class_idempotent_vector(pa, tabs) == \
                H.specialize_vector(eng.class_vector(tabs), pa), key

    def test_pipeline_makes_no_polynomial_division(self, monkeypatch):
        # the class idempotents of the pipeline never divide in F_p[t]
        calls = {"divmod": 0, "gcd": 0}
        for name in calls:
            orig = getattr(Poly, name)

            def counted(self, other, name=name, orig=orig):
                calls[name] += 1
                return orig(self, other)
            monkeypatch.setattr(Poly, name, counted)
        for cached in (H.regular_rep, H.murphy_engine, H.weight_units):
            cached.cache_clear()
        B.KLRImages(B.build_blob(H.default_params(3, 2)))
        assert calls == {"divmod": 0, "gcd": 0}

    def test_tableaux_walked_once_per_parameter_set(self, monkeypatch):
        # the algebra and its two-string subalgebra each walk their
        # standard tableaux once, into the shared content table that the
        # weight spaces (whose splitter probes the residue sequences
        # first), the seminormal model, the residue classes and the
        # Murphy engine read
        calls = []
        walk = H.standard_tableaux_all

        def counted(n, l):
            calls.append((n, l))
            return walk(n, l)
        monkeypatch.setattr(H, "standard_tableaux_all", counted)
        for cached in (H.regular_rep, H.murphy_engine, H.tableau_contents,
                       H.weight_units):
            cached.cache_clear()
        B.KLRImages(B.build_blob(P32))
        assert calls == [(2, 2), (3, 2)]
        H.SeminormalModel(P32)
        H.class_partition(P32)
        eng = H.murphy_engine(P32)
        assert sorted(calls) == [(2, 2), (3, 2)]
        assert eng.content_of is H.tableau_contents(P32)

    def test_engine_shares_the_rewriting(self):
        # t^{k-1} L_k is rewritten once, by RegularRep, for both layers
        H.regular_rep.cache_clear()
        H.murphy_engine.cache_clear()
        for pa in (P22, P32, P23):
            eng = H.murphy_engine(pa)
            assert eng.entries is H.regular_rep(pa).entries
            assert eng.nf is H.regular_rep(pa).nf

    @pytest.mark.parametrize("e,p", [(5, 11), (7, 29), (5, 71)])
    def test_binomial_roots_match_scan(self, e, p):
        # roots of t^d - 1 with multiplicity, against a scan of F_p that
        # divides out t - x while x stays a root
        eng = H.MurphyEngine(H.default_params(2, 2, e=e, p=p))
        for d in range(1, 2 * p + 2):
            roots, mult = eng._roots(d)
            f = Poly.monomial(p, 1, d) - Poly.const(p, 1)
            want = {x: f.valuation_at(x) for x in range(1, p)}
            assert sorted(roots) == [x for x, v in want.items() if v], d
            assert all(want[x] == mult for x in roots), d

    def test_generic_oracle_layers_are_built_on_first_use(self):
        eng = H.MurphyEngine(P32)
        assert "ops" not in vars(eng)
        eng.class_vector(H.class_partition(P32)[(0, 2, 1)])
        assert sorted(vars(eng)["ops"]) == [1, 2, 3]

    def test_class_partition_matches_residues(self):
        pa = P32
        for key, tabs in H.class_partition(pa).items():
            for t in tabs:
                assert C.residue_seq(t, pa.mc) == key


class TestTwoStringIdempotents:
    @pytest.mark.parametrize("pa", [P22, P23], ids=["l2", "l3"])
    def test_cross_checked_construction(self, pa):
        # each weight idempotent spans the one-dimensional solution space
        # of its eigenvalue system, normalised by v^2 = beta v
        reg = H.regular_rep(H.HeckeParams(n=2, l=pa.l, e=pa.e, p=pa.p,
                                          q=pa.q, hat_kappa=pa.hat_kappa))
        seeds = H.e2_idempotents(pa)
        refs = eigenvalue_system_seeds(pa)
        assert len(seeds) == len(refs) == pa.l
        for seed, vectors in zip(seeds, refs):
            assert len(vectors) == 1
            assert np.array_equal(vectors[0], reg.coefficients(seed))

    @pytest.mark.parametrize("pa", [P22, P23], ids=["l2", "l3"])
    def test_idempotent_orthogonal_family(self, pa):
        p2 = H.HeckeParams(n=2, l=pa.l, e=pa.e, p=pa.p, q=pa.q,
                           hat_kappa=pa.hat_kappa)
        reg = H.RegularRep(p2)
        mats = [reg.matrix_of(reg.matrix_of(e) @ reg.unit_vector() % reg.p)
                for e in H.e2_idempotents(pa)]
        for j, M in enumerate(mats):
            assert np.array_equal(matmul((M, M), reg.p), M)
            for k, N in enumerate(mats):
                if j != k:
                    assert not matmul((M, N), reg.p).any()

    def test_defining_eigenvalues(self):
        pa = P22
        p, q = pa.p, pa.q
        p2 = H.HeckeParams(n=2, l=2, e=pa.e, p=p, q=q,
                           hat_kappa=pa.hat_kappa)
        reg = H.RegularRep(p2)
        for j, e2 in enumerate(H.e2_idempotents(pa)):
            kj = pa.mc.kappa[j]
            M = reg.matrix_of(e2)
            assert np.array_equal(matmul((reg.L[1], M), reg.p),
                                  pow(q, kj, p) * M % p)
            assert np.array_equal(matmul((reg.L[2], M), reg.p),
                                  pow(q, kj + 1, p) * M % p)
            assert np.array_equal(matmul((reg.T[1], M), reg.p), q * M % p)

    def test_embedding_into_three_strings(self):
        pa = P32
        reg = H.RegularRep(pa)
        for e2 in H.e2_idempotents(pa):
            M = reg.matrix_of(H.embed_two_string(pa, e2))
            assert np.array_equal(matmul((M, M), reg.p), M)
            # strings beyond the first two are untouched
            assert np.array_equal(matmul((reg.L[3], M), reg.p),
                                  matmul((M, reg.L[3]), reg.p))


class TestCrossModelAgreement:
    def test_trace_of_l2_matches_seminormal(self):
        # trace of L_2 in the regular representation equals dim times
        # nothing fancy -- compare the multiset of content eigenvalues
        # instead: charpoly roots of L_2 are q^{c_T(2)} over tableaux,
        # each with multiplicity dim of its block
        pa = P22
        reg = H.RegularRep(pa)
        sm = H.SeminormalModel(pa)
        p = pa.p
        want = 0
        for b in sm.blocks.values():
            d = len(b.std)
            for vec in b.contents:
                want += d * pow(pa.q, vec[1], p)
        assert int(np.trace(reg.L[2]) % p) == want % p
