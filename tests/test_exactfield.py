import ast
import math
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from blobcell.exactfield import (FLOAT_EXACT, INT64_MAX, NoRoot,
                                 PoleAtSpecialization, Poly, RatFunc,
                                 RowSpace, block_matmul, cyclic_subgroup,
                                 float_bound, has_order, invert_matrix,
                                 is_prime, joint_eigenspaces, mat_pow,
                                 matmul, nullspace, poly_matmul,
                                 product_bound, rank, rank_and_inverse,
                                 root_of_unity, rref)

P = 11


def element_order(x: int, p: int) -> int:
    """Oracle: the multiplicative order of x in F_p^* by successive
    powers."""
    k, y = 1, x % p
    while y != 1:
        y = y * x % p
        k += 1
    return k


def rref_per_step(M, p):
    """Oracle: reduced row echelon form over F_p with the whole matrix
    reduced after every pivot step."""
    A = np.asarray(M, dtype=np.int64) % p
    rows, cols = A.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        nz = np.nonzero(A[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            A[[r, i]] = A[[i, r]]
        inv = pow(int(A[r, c]), -1, p)
        A[r] = A[r] * inv % p
        col = A[:, c].copy()
        col[r] = 0
        A -= np.outer(col, A[r])
        A %= p
        pivots.append(c)
        r += 1
    return A, pivots


def nullspace_oracle(M, p):
    """Oracle: the nullspace basis from ``rref_per_step``, entry by
    entry."""
    R, piv = rref_per_step(M, p)
    cols = R.shape[1]
    free = [c for c in range(cols) if c not in piv]
    basis = np.zeros((len(free), cols), dtype=np.int64)
    for k, fc in enumerate(free):
        basis[k, fc] = 1
        for r, c in enumerate(piv):
            basis[k, c] = (-int(R[r, fc])) % p
    return basis


def exact_product(A, B, p):
    """Oracle: A B mod p on Python integers."""
    return (np.asarray(A).astype(object).dot(np.asarray(B).astype(object))
            % p).astype(np.int64)


def poly(coeffs, p=P):
    return Poly.of(p, coeffs)


class TestRootOfUnity:
    def test_examples(self):
        # oracle: recompute the order by successive powers
        for p, e, expected in [(11, 5, 3), (29, 7, 7), (11, 10, 2)]:
            q = root_of_unity(p, e)
            assert q == expected
            assert element_order(q, p) == e

    def test_smallest(self):
        q = root_of_unity(29, 7)
        assert all(element_order(x, 29) != 7 for x in range(1, q))

    def test_no_root(self):
        with pytest.raises(NoRoot):
            root_of_unity(7, 5)

    def test_not_prime(self):
        with pytest.raises(ValueError):
            root_of_unity(10, 3)

    def test_is_prime(self):
        assert [x for x in range(2, 30) if is_prime(x)] == \
            [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]

    def test_is_prime_matches_trial_division(self):
        def trial(n):
            return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))
        assert all(is_prime(n) == trial(n) for n in range(20000))

    def test_is_prime_on_large_inputs(self):
        # Mersenne primes and their neighbours, in microseconds
        assert is_prime(2 ** 61 - 1) and is_prime(2 ** 31 - 1)
        assert not is_prime(2 ** 61 + 1) and not is_prime((2 ** 31 - 1) ** 2)
        # 3215031751 = 151 * 751 * 28351 fools the bases 2, 3, 5 and 7
        assert not is_prime(3215031751)
        with pytest.raises(ValueError, match="primality test"):
            is_prime(2 ** 127 - 1)

    def test_matches_scan(self):
        # oracle: the smallest x whose successive powers first reach 1
        # after exactly e steps
        for p in (2, 3, 11, 29, 31, 71):
            for e in range(1, p):
                if (p - 1) % e == 0:
                    want = min(x for x in range(1, p)
                               if element_order(x, p) == e)
                    assert root_of_unity(p, e) == want, (p, e)

    def test_large_prime_is_fast(self):
        p = 2147483951          # prime near 2^31 with 5 | p - 1
        start = time.perf_counter()
        q = root_of_unity(p, 5)
        assert time.perf_counter() - start < 1.0
        assert pow(q, 5, p) == 1 and q != 1

    def test_has_order_matches_element_order(self):
        # no x has an order below 1: x^0 = 1, and x^-e is an inverse's power
        for p in (11, 29, 71):
            for x in range(1, p):
                for e in range(-5, p):
                    assert has_order(x, e, p) == (element_order(x, p) == e)

    def test_cyclic_subgroup_matches_scan(self):
        for p in (11, 29, 71):
            for m in range(1, p):
                if (p - 1) % m == 0:
                    assert sorted(cyclic_subgroup(p, m)) == \
                        [x for x in range(1, p) if pow(x, m, p) == 1]


coeff_lists = st.lists(st.integers(0, P - 1), max_size=8)


class TestPoly:
    @given(coeff_lists, coeff_lists, coeff_lists)
    @settings(max_examples=60)
    def test_ring_axioms(self, a, b, c):
        f, g, h = poly(a), poly(b), poly(c)
        assert (f + g) + h == f + (g + h)
        assert f + g == g + f
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h

    @given(coeff_lists, coeff_lists)
    @settings(max_examples=60)
    def test_divmod(self, a, b):
        f, g = poly(a), poly(b)
        if g.is_zero():
            return
        q, r = f.divmod(g)
        assert q * g + r == f
        assert r.degree() < g.degree()

    @given(coeff_lists, coeff_lists)
    @settings(max_examples=60)
    def test_gcd_divides(self, a, b):
        f, g = poly(a), poly(b)
        d = f.gcd(g)
        if d.is_zero():
            assert f.is_zero() and g.is_zero()
        else:
            assert (f % d).is_zero() and (g % d).is_zero()

    def test_eval_and_valuation(self):
        f = poly([0, 0, 1]) * poly([-3, 1])  # t^2 (t - 3)
        assert f(3) == 0
        assert f.valuation_at(0) == 2
        assert f.valuation_at(3) == 1
        assert f.valuation_at(1) == 0

    def test_bigint_fallback_matches(self):
        f, g = poly([3, 1, 4, 1, 5]), poly([9, 2, 6])
        assert f._mul_bigint(g) == f * g

    @given(st.lists(st.integers(0, 10), max_size=2), coeff_lists)
    @settings(max_examples=60)
    def test_short_factor_products(self, a, b):
        # one or two coefficients take the plain-Python path, also at a
        # p whose squares overflow int64
        for p in (P, 2 ** 61 - 1):
            f, g = Poly.of(p, a), Poly.of(p, [c * 977 for c in b])
            assert f * g == g * f == f._mul_bigint(g)


class TestRatFunc:
    def test_removable_singularity(self):
        # (t^2 - 1)/(t - 1) == t + 1 in canonical form
        x = RatFunc.make(poly([-1, 0, 1]), poly([-1, 1]))
        assert x == RatFunc.of_poly(poly([1, 1]))
        assert x.specialize(3) == 4

    def test_pole(self):
        q = 3
        x = RatFunc.make(poly([1]), poly([-q, 1]))
        assert x.has_pole_at(q)
        with pytest.raises(PoleAtSpecialization):
            x.specialize(q)

    @given(coeff_lists, coeff_lists, coeff_lists)
    @settings(max_examples=40)
    def test_canonical_form(self, a, b, c):
        f, g, h = poly(a), poly(b), poly(c)
        if g.is_zero() or h.is_zero():
            return
        # f/g constructed directly and via an extra common factor h
        assert RatFunc.make(f, g) == RatFunc.make(f * h, g * h)

    @given(coeff_lists, coeff_lists, coeff_lists, coeff_lists)
    @settings(max_examples=40)
    def test_field_ops(self, a, b, c, d):
        f, g = poly(a), poly(b)
        h, k = poly(c), poly(d)
        if g.is_zero() or k.is_zero():
            return
        x, y = RatFunc.make(f, g), RatFunc.make(h, k)
        assert x + y == y + x
        assert x * y == y * x
        if not y.is_zero():
            assert (x / y) * y == x

    @given(coeff_lists, coeff_lists)
    @settings(max_examples=60)
    def test_polynomial_fast_path(self, a, b):
        # sums and products of denominator-1 values skip the gcd; they
        # must still be the canonical forms built by make
        f, g = poly(a), poly(b)
        one = poly([1])
        x, y = RatFunc.of_poly(f), RatFunc.of_poly(g)
        assert x + y == RatFunc.make(f + g, one)
        assert x * y == RatFunc.make(f * g, one)
        assert (x + y).is_poly() and (x * y).is_poly()

    def test_laurent(self):
        # t^{-2} * t^3 = t
        x = RatFunc.make(poly([1]), poly([0, 0, 1]))
        y = RatFunc.of_poly(poly([0, 0, 0, 1]))
        assert x * y == RatFunc.of_poly(poly([0, 1]))


rng = np.random.default_rng(20260826)


class TestLinalg:
    def test_identity_rank(self):
        assert rank(np.eye(7, dtype=np.int64), P) == 7

    def test_rank_nullity(self):
        for _ in range(20):
            m, n = rng.integers(1, 9, size=2)
            M = rng.integers(0, P, size=(m, n))
            assert rank(M, P) + nullspace(M, P).shape[0] == n

    def test_nullspace_annihilates(self):
        M = rng.integers(0, P, size=(6, 9))
        N = nullspace(M, P)
        assert not np.any(M @ N.T % P)

    def test_invert(self):
        for _ in range(10):
            n = int(rng.integers(1, 7))
            M = rng.integers(0, P, size=(n, n))
            if rank(M, P) < n:
                continue
            Minv = invert_matrix(M, P)
            assert not np.any((M @ Minv - np.eye(n, dtype=np.int64)) % P)

    def test_rref_deterministic(self):
        M = rng.integers(0, P, size=(8, 8))
        R1, p1 = rref(M, P)
        R2, p2 = rref(M.copy(), P)
        assert np.array_equal(R1, R2) and p1 == p2

    def test_rowspace_matches_rank(self):
        for _ in range(15):
            m, n = rng.integers(1, 10, size=2)
            M = rng.integers(0, P, size=(m, n))
            rs = RowSpace(int(n), P)
            for row in M:
                rs.extend(row)
            assert rs.rank() == rank(M, P)
            for row in M:
                assert rs.extend(row).shape == (0, n)

    def test_rowspace_extend_matches_rref(self):
        # blocks drawn from a random subspace, so that most of them are
        # partly or wholly dependent on what the space already holds
        for _ in range(20):
            n, r = int(rng.integers(1, 10)), int(rng.integers(1, 10))
            basis = rng.integers(0, P, size=(r, n))
            blocks = [rng.integers(0, P, size=(int(rng.integers(0, 5)), r))
                      @ basis % P for _ in range(4)]
            rs, seq = RowSpace(n, P), RowSpace(n, P)
            for blk in blocks:
                held = rs.pivots
                N = rs.extend(blk)
                new = [c for c in rs.pivots if c not in held]
                assert N.shape == (len(new), n)
                assert rs.rank() == len(held) + len(new)
                assert np.array_equal(
                    N, rs.matrix()[[rs.pivots.index(c) for c in new]])
                assert rs.extend(blk).shape == (0, n)
                for row in blk:
                    seq.extend(row)
            R, piv = rref(np.vstack(blocks), P)
            assert rs.pivots == seq.pivots == piv == sorted(piv)
            assert np.array_equal(rs.matrix(), R[:len(piv)])
            assert np.array_equal(seq.matrix(), R[:len(piv)])

    def test_matmul_chain_is_exact(self):
        # p = 1000003 at width 8: an unreduced chain of three products
        # would pass 2^63; the kernel must still equal the exact product
        p, D = 1000003, 8
        mats = [rng.integers(0, p, size=(D, D)) for _ in range(3)]
        v = rng.integers(0, p, size=D)
        exact = v.astype(object)
        for M in reversed(mats):
            exact = M.astype(object).dot(exact) % p
        assert matmul(mats + [v], p).tolist() == exact.tolist()
        M = matmul(mats, p)
        assert M.min() >= 0 and M.max() < p

    def test_product_bound(self):
        p, D = 1000003, 8
        full = np.full((D, D), p - 1, dtype=np.int64)
        assert int((full @ full).max()) + p - 1 == product_bound(D, p)
        assert product_bound(D, p) <= INT64_MAX
        assert product_bound(8, 2147483951) > INT64_MAX

    def test_mat_pow(self):
        M = rng.integers(0, P, size=(5, 5))
        acc = np.eye(5, dtype=np.int64)
        for k in range(9):
            assert np.array_equal(mat_pow(M, k, P), acc)
            acc = matmul((acc, M), P)

    def test_rank_and_inverse(self):
        for _ in range(20):
            m, n = (int(x) for x in rng.integers(1, 7, size=2))
            M = rng.integers(0, P, size=(m, n))
            r, inv = rank_and_inverse(M, P)
            assert r == rank(M, P)
            if m == n == r:
                assert np.array_equal(inv, invert_matrix(M, P))
            else:
                assert inv is None

    def test_rowspace_reduce_idempotent(self):
        M = rng.integers(0, P, size=(5, 8))
        rs = RowSpace(8, P)
        for row in M:
            rs.extend(row)
        v = rng.integers(0, P, size=(1, 8))
        w = rs._residual(v)
        assert np.array_equal(rs._residual(w), w)


def blocks_on_basis(spec, p):
    """Commuting X, Y in block-diagonal form: a block (a, b, d) is a I + N
    and b I + 2 N for the d x d nilpotent shift N, a block (None, d) the
    companion matrix of an irreducible x^2 - d beside the identity."""
    dim = sum(2 if s[0] is None else s[2] for s in spec)
    X = np.zeros((dim, dim), dtype=np.int64)
    Y = np.zeros_like(X)
    at = 0
    for s in spec:
        if s[0] is None:
            X[at:at + 2, at:at + 2] = [[0, s[1]], [1, 0]]
            Y[at:at + 2, at:at + 2] = np.eye(2, dtype=np.int64)
            at += 2
            continue
        a, b, d = s
        N = np.eye(d, k=1, dtype=np.int64)
        X[at:at + d, at:at + d] = (a * np.eye(d, dtype=np.int64) + N) % p
        Y[at:at + d, at:at + d] = (b * np.eye(d, dtype=np.int64) + 2 * N) % p
        at += d
    return X, Y


class TestJointEigenspaces:
    def test_splits_a_conjugated_block_form(self):
        # Jordan blocks, a repeated joint eigenvalue, an F_p eigenvalue
        # outside the labels and an irreducible quadratic block; the
        # spaces are the reduced column echelon forms of the blocks'
        # columns in the conjugating basis
        p = 11
        spec = [(3, 1, 3), (1, 3, 2), (None, 2), (3, 1, 1), (3, 9, 2),
                (5, 1, 1), (1, 1, 1)]
        X0, Y0 = blocks_on_basis(spec, p)
        dim = len(X0)
        while True:
            Pm = rng.integers(0, p, size=(dim, dim))
            if rank(Pm, p) == dim:
                break
        Pinv = invert_matrix(Pm, p)
        X, Y = (matmul((Pm, M, Pinv), p) for M in (X0, Y0))
        labels = {1: 0, 3: 1, 9: 2}
        want: dict = {}
        at = 0
        for s in spec:
            d = 2 if s[0] is None else s[2]
            if s[0] in labels and s[1] in labels:
                key = (labels[s[0]], labels[s[1]])
                want[key] = want.get(key, []) + list(range(at, at + d))
            at += d
        got = joint_eigenspaces([X, Y], labels, p, ())
        assert list(got) == sorted(want) == [(0, 0), (0, 1), (1, 0), (1, 2)]
        for key, cols in want.items():
            R, piv = rref(Pm[:, cols].T, p)
            assert np.array_equal(got[key], R[:len(piv)].T), key
        assert sum(V.shape[1] for V in got.values()) == dim - 3


def poly_matmul_reference(A, B, p):
    """{(degree, row, column): value} of A B on Python integers, entry
    pair by entry pair."""
    out: dict = {}
    for a, i, k, x in zip(*(v.tolist() for v in A)):
        for b, k2, j, y in zip(*(v.tolist() for v in B)):
            if k == k2:
                out[(a + b, i, j)] = (out.get((a + b, i, j), 0) + x * y) % p
    return {key: v for key, v in out.items() if v}


class TestPolyMatmul:
    @pytest.mark.parametrize("p", [2, 11, 438353261, 2147483647])
    def test_product_is_exact(self, p):
        # duplicate positions in the inputs, cancelling sums, and rows of
        # B that no column of A reaches
        for trial in range(4):
            A = [rng.integers(0, 4, 30), rng.integers(0, 6, 30),
                 rng.integers(0, 5, 30), rng.integers(1, p, 30)]
            B = [rng.integers(0, 3, 25), rng.integers(0, 7, 25),
                 rng.integers(0, 6, 25), rng.integers(1, p, 25)]
            if trial == 0:
                A[3][:] = 1
                B[3][:] = p - 1
            got = poly_matmul(A, B, p)
            assert all(v.dtype == np.int64 for v in got)
            keys = list(zip(*(v.tolist() for v in got[:3])))
            assert keys == sorted(set(keys))
            assert dict(zip(keys, got[3].tolist())) == \
                poly_matmul_reference(A, B, p)

    def test_empty_and_too_large(self):
        one = [np.array([0]), np.array([0]), np.array([1]), np.array([1])]
        far = [np.array([0]), np.array([2]), np.array([0]), np.array([1])]
        assert [len(v) for v in poly_matmul(one, far, 11)] == [0] * 4
        with pytest.raises(ValueError, match="too large"):
            poly_matmul(one, one, 2 ** 33 + 1)


def random_of_rank(m, n, r, p):
    """A random m x n matrix of rank at most r over F_p."""
    return exact_product(rng.integers(0, p, size=(m, r)),
                         rng.integers(0, p, size=(r, n)), p)


# p = 16777213 is the largest prime below 2^24: D (p - 1)^2 < 2^53
# exactly for D <= 32
P24, D24 = 16777213, 32


class TestKernel:
    @pytest.fixture
    def einsum_calls(self, monkeypatch):
        calls = []
        einsum = np.einsum

        def spy(*args, **kwargs):
            calls.append(args[0])
            return einsum(*args, **kwargs)
        monkeypatch.setattr(np, "einsum", spy)
        return calls

    def test_float_bound_is_tight(self):
        assert float_bound(D24, P24) < FLOAT_EXACT
        assert float_bound(D24 + 1, P24) > FLOAT_EXACT
        assert float_bound(D24, P24 + 4) == FLOAT_EXACT

    @pytest.mark.parametrize("D, route", [(D24, 1), (D24 + 1, 0)])
    def test_products_at_the_float_bound(self, einsum_calls, D, route):
        # entries near p - 1, so that past the bound the float sums would
        # round; both sides must give the exact integers
        p = P24
        A = rng.integers(p - 1000, p, size=(40, D))
        B = rng.integers(p - 1000, p, size=(D, 30))
        want = exact_product(A, B, p)
        assert np.array_equal(matmul((A, B), p), want)
        assert np.array_equal(mat_pow(A[:D], 3, p),
                              exact_product(A[:D], exact_product(
                                  A[:D], A[:D], p), p))
        assert len(einsum_calls) == 3 * route
        assert block_matmul(({(0, 0): A}, {(0, 1): B}), p)[0, 1].tolist() \
            == want.tolist()

    def test_products_at_a_prime_near_2_to_31(self, einsum_calls):
        # width 2 is the widest an int64 product admits at this p
        p = 2147483647
        assert product_bound(2, p) <= INT64_MAX < product_bound(3, p)
        A = rng.integers(0, p, size=(150, 2))
        B = rng.integers(0, p, size=(2, 120))
        A[:3], B[:, :3] = p - 1, p - 1
        assert np.array_equal(matmul((A, B), p), exact_product(A, B, p))
        assert not einsum_calls

    def test_small_and_narrow_products_stay_int64(self, einsum_calls):
        p = 29
        for m, D, n in [(20, 20, 20), (93, 93, 1), (93, 93, 8)]:
            A = rng.integers(0, p, size=(m, D))
            B = rng.integers(0, p, size=(D, n))
            assert np.array_equal(matmul((A, B), p), exact_product(A, B, p))
            assert np.array_equal(matmul((A, B[:, 0]), p),
                                  exact_product(A, B[:, 0], p))
        assert not einsum_calls

    def test_a_3_3_sized_product_takes_the_float_route(self, einsum_calls):
        # dim B = 93 and dim H = 162 at (3,3) with its preset p = 29
        p = 29
        A = rng.integers(0, p, size=(93, 162))
        B = rng.integers(0, p, size=(162, 93))
        got = matmul((A, B), p)
        assert einsum_calls == ["ij,jk->ik"]
        assert got.dtype == np.int64
        assert np.array_equal(got, exact_product(A, B, p))

    @pytest.mark.parametrize("p", [11, 1000003, 1073741789, 2147483647])
    def test_elimination_matches_the_per_step_oracle(self, p):
        # both sides of the size gate of the lazy form; at p near 2^30 it
        # reduces the whole matrix once every few steps, near 2^31 at
        # every step
        for m, n in [(1, 1), (5, 9), (9, 5), (31, 33), (32, 33), (45, 60),
                     (60, 45)]:
            for r in {0, 1, min(m, n) // 2, min(m, n) - 1}:
                M = random_of_rank(m, n, r, p) if r else \
                    np.zeros((m, n), dtype=np.int64)
                R, piv = rref(M, p)
                want, want_piv = rref_per_step(M, p)
                assert piv == want_piv and len(piv) <= max(r, 0)
                assert R.dtype == np.int64
                assert np.array_equal(R, want), (p, m, n, r)
                assert np.array_equal(nullspace(M, p),
                                      nullspace_oracle(M, p))
                assert rank(M, p) == len(want_piv)

    @pytest.mark.parametrize("p", [11, 1000003, 2147483647])
    def test_inverse_matches_the_per_step_oracle(self, p):
        for n in (1, 6, 31, 33, 50):
            while True:
                M = rng.integers(0, p, size=(n, n))
                if rank(M, p) == n:
                    break
            R, _ = rref_per_step(np.hstack(
                [M, np.eye(n, dtype=np.int64)]), p)
            assert np.array_equal(invert_matrix(M, p), R[:, n:])
            with pytest.raises(ValueError, match="singular"):
                invert_matrix(random_of_rank(n + 1, n + 1, n, p), p)


def _calls(tree: ast.AST):
    """(called name, call node) of every call by attribute or name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            f = node.func
            yield (f.attr if isinstance(f, ast.Attribute)
                   else getattr(f, "id", None)), node


def _float_types(tree: ast.AST) -> list[ast.AST]:
    """The nodes that name a float type: ``float``, ``np.float64``, a
    dtype string ``"float..."``."""
    return [node for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and node.attr.startswith("float")
            or isinstance(node, ast.Name) and node.id == "float"
            or isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and node.value.startswith("float")]


def test_products_stay_in_the_kernel():
    # every dense product of these modules goes through exactfield.matmul,
    # which reduces after each product; a bare ``@`` would bypass the bound
    src = Path(__file__).resolve().parents[1] / "src" / "blobcell"
    for name in ("blob.py", "cli.py", "klrcalc.py"):
        tree = ast.parse((src / name).read_text())
        lines = [node.lineno for node in ast.walk(tree)
                 if isinstance(node, (ast.BinOp, ast.AugAssign))
                 and isinstance(node.op, ast.MatMult)]
        assert not lines, (name, lines)
    # exactfield owns the 2^53 bound of the float route: no other module
    # names a float type or calls einsum.  No module calls a product that
    # routes to BLAS (dot, matmul, tensordot, vdot, inner, einsum with
    # optimize); in exactfield a float array is only ever an argument of
    # an einsum whose result is cast straight back to int64, so no ``@``
    # meets a float operand
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        calls = list(_calls(tree))
        blas = [node.lineno for name, node in calls
                if name in ("dot", "tensordot", "vdot", "inner")
                or name == "matmul"
                and getattr(node.func, "value", None) is not None
                and getattr(node.func.value, "id", None) in ("np", "numpy")
                or name == "einsum"
                and any(k.arg == "optimize" for k in node.keywords)]
        assert not blas, (path.name, blas)
        if path.name != "exactfield.py":
            einsum = [node.lineno for name, node in calls if name == "einsum"]
            assert not einsum, (path.name, einsum)
            floats = [node.lineno for node in _float_types(tree)]
            assert not floats, (path.name, floats)
    tree = ast.parse((src / "exactfield.py").read_text())
    parent = {child: node for node in ast.walk(tree)
              for child in ast.iter_child_nodes(node)}
    floats = _float_types(tree)
    assert floats
    for node in floats:
        cast = parent[node]
        assert isinstance(cast, ast.Call) and cast.args == [node] \
            and cast.func.attr == "astype", node.lineno
        einsum = parent[cast]
        assert isinstance(einsum, ast.Call) and einsum.func.attr == "einsum"
        back = parent[parent[einsum]]
        assert isinstance(back, ast.Call) and back.func.attr == "astype"
        assert back.args[0].attr == "int64", node.lineno
