import ast
import math
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from blobcell.exactfield import (INT64_MAX, NoRoot, PoleAtSpecialization,
                                 Poly, RatFunc, RowSpace, cyclic_subgroup,
                                 has_order, invert_matrix,
                                 is_prime, mat_pow, matmul, nullspace,
                                 product_bound, rank, root_of_unity, rref,
                                 solve, specialize)

P = 11


def element_order(x: int, p: int) -> int:
    """Oracle: the multiplicative order of x in F_p^* by successive
    powers."""
    k, y = 1, x % p
    while y != 1:
        y = y * x % p
        k += 1
    return k


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
        for p in (11, 29, 71):
            for x in range(1, p):
                for e in range(1, p):
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

    def test_shifted_eval(self):
        f = poly([2, 5, 7, 1])
        v, q = f.shifted_eval(4)
        assert v == f(4)
        assert q * poly([-4, 1]) + poly([v]) == f

    def test_bigint_fallback_matches(self):
        f, g = poly([3, 1, 4, 1, 5]), poly([9, 2, 6])
        assert f._mul_bigint(g) == f * g


class TestRatFunc:
    def test_removable_singularity(self):
        # (t^2 - 1)/(t - 1) == t + 1 in canonical form
        x = RatFunc.make(poly([-1, 0, 1]), poly([-1, 1]))
        assert x == RatFunc.of_poly(poly([1, 1]))
        assert specialize(x, 3) == 4

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

    def test_solve_residual(self):
        for _ in range(20):
            m, n = rng.integers(1, 8, size=2)
            M = rng.integers(0, P, size=(m, n))
            x0 = rng.integers(0, P, size=n)
            b = M @ x0 % P
            x = solve(M, b, P)
            assert x is not None
            assert not np.any((M @ x - b) % P)

    def test_solve_inconsistent(self):
        M = np.array([[1, 0], [1, 0]])
        assert solve(M, np.array([1, 2]), P) is None

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
                rs.add(row)
            assert rs.rank() == rank(M, P)
            for row in M:
                assert rs.contains(row)

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
                    seq.add(row)
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

    def test_rowspace_reduce_idempotent(self):
        M = rng.integers(0, P, size=(5, 8))
        rs = RowSpace(8, P)
        for row in M:
            rs.add(row)
        v = rng.integers(0, P, size=8)
        w = rs.reduce(v)
        assert np.array_equal(rs.reduce(w), w)


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
