"""Exact arithmetic over prime fields F_p and the rational function field F_p(t).

Everything downstream of this module is exact.  Floating point appears in
one place only, the float64 route of the dense product (``_product``),
and there it computes exact integers:

* it is taken only when every partial sum is an integer below 2^53,
  ``float_bound(D, p) = D (p - 1)^2 < FLOAT_EXACT``, checked per product
  for the inner width D, so the float sums are the int64 sums;
* and only for a product large enough to pay for the casts, m D n >= 24^3
  with at least 24 columns; matrix-vector products, small blocks and any
  p past the bound stay on int64 ``@``;
* it multiplies with ``np.einsum``, numpy's own SIMD loop, not with float
  ``@``: that calls BLAS, whose worker threads cost more CPU time than
  they save at these sizes.

The pieces provided here are

* ``root_of_unity(p, e)`` -- a primitive e'th root of unity in F_p, found
  in O(e) steps through ``cyclic_subgroup``, the subgroup of order e,
* ``Poly`` -- dense univariate polynomials over F_p,
* ``RatFunc`` -- rational functions over F_p in canonical (reduced, monic
  denominator) form, with pole-aware specialization,
* the matrix kernel ``matmul``/``mat_pow``: products of int64 matrices
  with entries in [0, p), reduced mod p after every product, all through
  ``_product``, and ``block_split``, ``block_matmul``, ``block_lincomb``
  and ``block_equal``: the block-sparse form of a matrix and its
  arithmetic,
* ``poly_matmul`` -- the product of two sparse matrices over F_p[t] in
  coordinate form, from which ``RegularRep`` builds t^(k-1) L_k,
* mod-p linear algebra on numpy int64 matrices (``rank``, ``rref``,
  ``nullspace``, ``invert_matrix``, ``rank_and_inverse``) with
  deterministic pivot choice,
* ``joint_eigenspaces`` -- the joint generalized eigenspaces of commuting
  matrices at labelled eigenvalues in F_p, from which the weight
  idempotents e(i) are built, and
* ``RowSpace`` -- an incremental reduced echelon form, used to close
  two-sided ideals a block of new vectors at a time.

The kernel does not reduce its inputs: callers keep stored matrices in
[0, p) and reduce a linear combination where they form it.  Before a
reduction an int64 entry is then at most ``product_bound(D, p)``, one
product of D-wide factors plus one reduced addend; the generic Murphy
oracle's chunked layer sums keep to it too, and
``HeckeParams.validate_exact`` rejects a p that breaks it at D = dim H.
``poly_matmul`` reduces each product before it sums, and the lazy
``rref`` reduces as often as its count of unreduced updates requires.  An
accepted p is below 2^32, so a cumulative sum of w reduced values stays
below w 2^32.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Collection, Iterable, Sequence

import numpy as np


class PoleAtSpecialization(Exception):
    """Raised when a rational function is evaluated at a zero of its
    denominator (in lowest terms)."""


class NoRoot(ValueError):
    """Raised when F_p contains no element of the requested order."""


# The first 12 primes: as Miller-Rabin bases they decide primality of
# every n below 3317044064679887385961981 (about 3.3 10^24).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_LIMIT = 3317044064679887385961981


def is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin test over the bases ``_MR_BASES``;
    raises ValueError for p >= ``_MR_LIMIT``, where they no longer
    decide."""
    if p < 2:
        return False
    if p in _MR_BASES:
        return True
    if any(p % b == 0 for b in _MR_BASES):
        return False
    if p >= _MR_LIMIT:
        raise ValueError(f"p = {p} is beyond the range of the deterministic "
                         f"primality test (p < {_MR_LIMIT})")
    d, r = p - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for b in _MR_BASES:
        x = pow(b, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(r - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def has_order(x: int, e: int, p: int) -> bool:
    """True when x has order exactly e >= 1 in F_p^*: x^e = 1 but
    x^(e/r) != 1 for each prime r | e, found by trial division."""
    if e < 1 or x % p == 0 or pow(x, e, p) != 1:
        return False
    m, r = e, 2
    while m > 1:
        r = r if r * r <= m else m
        if m % r == 0 and pow(x, e // r, p) == 1:
            return False
        while m % r == 0:
            m //= r
        r += 1
    return True


def cyclic_subgroup(p: int, m: int) -> list[int]:
    """The m-th roots of unity in F_p (m | p - 1) as g^0, ..., g^(m-1)
    for a generator g, found among the (p - 1)/m-th powers."""
    g = next(y for y in (pow(x, (p - 1) // m, p) for x in range(1, p))
             if has_order(y, m, p))
    return [pow(g, k, p) for k in range(m)]


def root_of_unity(p: int, e: int) -> int:
    """Smallest element of F_p^* of multiplicative order exactly e: the
    least g^k with gcd(k, e) = 1 in the subgroup of order e.

    >>> root_of_unity(11, 5)
    3
    >>> root_of_unity(29, 7)
    7
    >>> root_of_unity(11, 10)
    2
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if e < 1 or (p - 1) % e != 0:
        raise NoRoot(f"F_{p} has no element of order {e}")
    return min(x for k, x in enumerate(cyclic_subgroup(p, e))
               if gcd(k, e) == 1)


# ---------------------------------------------------------------------------
# Polynomials over F_p
# ---------------------------------------------------------------------------


# factors this short are multiplied in plain Python (``Poly.__mul__``)
_SHORT = 2


def _trim(coeffs: Sequence[int]) -> tuple[int, ...]:
    n = len(coeffs)
    while n > 0 and coeffs[n - 1] == 0:
        n -= 1
    return tuple(coeffs[:n])


@dataclass(frozen=True)
class Poly:
    """Dense polynomial over F_p; ``coeffs[k]`` is the coefficient of t^k.

    The zero polynomial has empty coefficient tuple.  All coefficients are
    stored reduced mod p.
    """

    p: int
    coeffs: tuple[int, ...]

    @staticmethod
    def of(p: int, coeffs: Iterable[int]) -> "Poly":
        return Poly(p, _trim([c % p for c in coeffs]))

    @staticmethod
    def const(p: int, c: int) -> "Poly":
        return Poly.of(p, [c])

    @staticmethod
    def monomial(p: int, c: int, k: int) -> "Poly":
        return Poly.of(p, [0] * k + [c])

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def leading(self) -> int:
        if self.is_zero():
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __add__(self, other: "Poly") -> "Poly":
        p = self.p
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = (out[i] + c) % p
        return Poly(p, _trim(out))

    def __neg__(self) -> "Poly":
        return Poly(self.p, tuple((-c) % self.p for c in self.coeffs))

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        p, a, b = self.p, self.coeffs, other.coeffs
        if not a or not b:
            return Poly(p, ())
        if min(len(a), len(b)) <= _SHORT:
            # schoolbook on Python ints: exact at any p, and cheaper than
            # numpy for the short factors (t, t - 1, constants) of the
            # rewriting
            if len(a) > len(b):
                a, b = b, a
            out = [0] * (len(a) + len(b) - 1)
            for i, x in enumerate(a):
                for j, y in enumerate(b, i):
                    out[j] += x * y
            return Poly(p, _trim([c % p for c in out]))
        a = np.array(a, dtype=np.int64)
        b = np.array(b, dtype=np.int64)
        # Coefficients are < p <= a few thousand, so int64 convolution is
        # exact as long as min(len) * p^2 < 2^63; chunk the longer factor
        # if that ever fails.
        if min(len(a), len(b)) * (self.p - 1) ** 2 >= (1 << 62):
            return self._mul_bigint(other)
        conv = np.convolve(a, b) % self.p
        return Poly(self.p, _trim(conv.tolist()))

    def _mul_bigint(self, other: "Poly") -> "Poly":
        # Exact fallback via big-integer packing (never needed at desk scale).
        shift = ((min(len(self.coeffs), len(other.coeffs)) * (self.p - 1) ** 2)
                 .bit_length() + 1)
        x = sum(c << (shift * i) for i, c in enumerate(self.coeffs))
        y = sum(c << (shift * i) for i, c in enumerate(other.coeffs))
        z = x * y
        mask = (1 << shift) - 1
        out = []
        while z:
            out.append((z & mask) % self.p)
            z >>= shift
        return Poly(self.p, _trim(out))

    def scale(self, c: int) -> "Poly":
        c %= self.p
        if c == 0:
            return Poly(self.p, ())
        return Poly(self.p, _trim([a * c % self.p for a in self.coeffs]))

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        inv = pow(self.leading(), -1, self.p)
        return self.scale(inv)

    def divmod(self, other: "Poly") -> tuple["Poly", "Poly"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        p = self.p
        rem = list(self.coeffs)
        d = other.degree()
        inv = pow(other.leading(), -1, p)
        quo = [0] * max(len(rem) - d, 0)
        for i in range(len(rem) - 1, d - 1, -1):
            c = rem[i] % p
            if c == 0:
                continue
            f = c * inv % p
            quo[i - d] = f
            for j, oc in enumerate(other.coeffs):
                rem[i - d + j] = (rem[i - d + j] - f * oc) % p
        return Poly(p, _trim(quo)), Poly(p, _trim(rem))

    def __floordiv__(self, other: "Poly") -> "Poly":
        return self.divmod(other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return self.divmod(other)[1]

    def gcd(self, other: "Poly") -> "Poly":
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic() if not a.is_zero() else a

    def __call__(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * x + c) % self.p
        return acc

    def valuation_at(self, x: int) -> int:
        """Multiplicity of the root t = x (0 if not a root; -1 conventionally
        never returned, the zero polynomial raises)."""
        if self.is_zero():
            raise ValueError("zero polynomial has infinite valuation")
        v = 0
        f = self
        lin = Poly.of(self.p, [-x, 1])
        while f(x) == 0:
            f = f // lin
            v += 1
        return v

    def __repr__(self) -> str:
        if self.is_zero():
            return "0"
        terms = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                terms.append(str(c))
            elif k == 1:
                terms.append(f"{c}*t" if c != 1 else "t")
            else:
                terms.append(f"{c}*t^{k}" if c != 1 else f"t^{k}")
        return " + ".join(terms)


# ---------------------------------------------------------------------------
# Rational functions over F_p
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RatFunc:
    """Rational function num/den over F_p, kept in lowest terms with monic
    denominator.  Laurent polynomials in t appear as the special case of a
    denominator t^k."""

    num: Poly
    den: Poly

    @staticmethod
    def make(num: Poly, den: Poly) -> "RatFunc":
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero():
            return RatFunc(num, Poly.const(num.p, 1))
        g = num.gcd(den)
        if g.degree() > 0:
            num, den = num // g, den // g
        inv = pow(den.leading(), -1, num.p)
        return RatFunc(num.scale(inv), den.monic())

    @staticmethod
    def of_poly(f: Poly) -> "RatFunc":
        return RatFunc(f, Poly.const(f.p, 1))

    @staticmethod
    def const(p: int, c: int) -> "RatFunc":
        return RatFunc.of_poly(Poly.const(p, c))

    @property
    def p(self) -> int:
        return self.num.p

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_poly(self) -> bool:
        """True when the denominator is 1 (the canonical form of a
        polynomial)."""
        return len(self.den.coeffs) == 1

    def __add__(self, other: "RatFunc") -> "RatFunc":
        if self.is_poly() and other.is_poly():
            # A denominator 1 is already lowest terms and monic.
            return RatFunc(self.num + other.num, self.den)
        return RatFunc.make(self.num * other.den + other.num * self.den,
                            self.den * other.den)

    def __neg__(self) -> "RatFunc":
        return RatFunc(-self.num, self.den)

    def __sub__(self, other: "RatFunc") -> "RatFunc":
        return self + (-other)

    def __mul__(self, other: "RatFunc") -> "RatFunc":
        if self.is_poly() and other.is_poly():
            return RatFunc(self.num * other.num, self.den)
        # Cross-reduce before multiplying to keep degrees small.
        g1 = self.num.gcd(other.den)
        g2 = other.num.gcd(self.den)
        n1 = self.num // g1 if g1.degree() > 0 else self.num
        d2 = other.den // g1 if g1.degree() > 0 else other.den
        n2 = other.num // g2 if g2.degree() > 0 else other.num
        d1 = self.den // g2 if g2.degree() > 0 else self.den
        return RatFunc.make(n1 * n2, d1 * d2)

    def inverse(self) -> "RatFunc":
        if self.is_zero():
            raise ZeroDivisionError("inverting zero rational function")
        return RatFunc.make(self.den, self.num)

    def __truediv__(self, other: "RatFunc") -> "RatFunc":
        return self * other.inverse()

    def specialize(self, x: int) -> int:
        """Evaluate at t = x; raises PoleAtSpecialization at a genuine pole."""
        dv = self.den(x)
        if dv == 0:
            raise PoleAtSpecialization(
                f"pole at t = {x} (denominator {self.den!r})")
        return self.num(x) * pow(dv, -1, self.p) % self.p

    def has_pole_at(self, x: int) -> bool:
        return self.den(x) == 0

    def __repr__(self) -> str:
        if self.is_poly():
            return repr(self.num)
        return f"({self.num!r})/({self.den!r})"


# ---------------------------------------------------------------------------
# The matrix kernel: products of reduced int64 matrices
# ---------------------------------------------------------------------------

INT64_MAX = int(np.iinfo(np.int64).max)


def product_bound(D: int, p: int) -> int:
    """Largest int64 entry met before a reduction: one product of two
    D-wide factors with entries in [0, p), D (p - 1)^2, plus one value in
    (-p, p), a carried partial sum or a reduced term."""
    return D * (p - 1) ** 2 + p - 1


def poly_matmul(A: tuple, B: tuple, p: int) -> tuple[np.ndarray, ...]:
    """The product A B of two sparse matrices over F_p[t], each given as
    coordinate arrays (degree a, row i, column j, value in [1, p)): the
    coefficient of t^a at (i, j).  Returns the same form, with the
    positions unique, the zero entries dropped and the arrays sorted by
    (degree, row, column).

    The entries are joined on the inner index; each joined pair adds its
    degrees and multiplies its values.  Bound: a product of two values in
    [0, p) is at most (p - 1)^2 <= ``product_bound(1, p)``, which fits in
    int64 for every p that ``HeckeParams.validate_exact`` admits.  Each
    product is reduced before the sums, so a sum of m terms stays below
    m p; m is at most the number of products formed, and a count with
    m (p - 1) past 2^63 - 1 is refused."""
    adeg, arow, acol, aval = A
    bdeg, brow, bcol, bval = B
    order = np.argsort(brow, kind="stable")
    bdeg, brow, bcol, bval = (x[order] for x in (bdeg, brow, bcol, bval))
    starts = np.searchsorted(brow, acol, side="left")
    counts = np.searchsorted(brow, acol, side="right") - starts
    total = int(counts.sum())
    if (p - 1) ** 2 > INT64_MAX or total * (p - 1) > INT64_MAX:
        raise ValueError(f"p = {p} is too large for an exact int64 sum of "
                         f"{total} products")
    if not total:
        return tuple(np.zeros(0, dtype=np.int64) for _ in range(4))
    ia = np.repeat(np.arange(len(acol)), counts)
    ends = np.cumsum(counts)
    ib = np.repeat(starts - (ends - counts), counts) + np.arange(total)
    rows, cols = arow[ia], bcol[ib]
    nrows, ncols = int(rows.max()) + 1, int(cols.max()) + 1
    key = ((adeg[ia] + bdeg[ib]) * nrows + rows) * ncols + cols
    order = np.argsort(key, kind="stable")
    key = key[order]
    vals = aval[ia[order]] * bval[ib[order]] % p
    first = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
    sums = np.add.reduceat(vals, first) % p
    keep = sums != 0
    rest, cols = np.divmod(key[first][keep], ncols)
    deg, rows = np.divmod(rest, nrows)
    return deg, rows, cols, sums[keep]


def float_bound(D: int, p: int) -> int:
    """Largest magnitude in a product of two D-wide factors with entries in
    (-p, p), D (p - 1)^2: every partial sum of :func:`_product`'s float
    route is an integer of at most this size, exact in float64 while it
    stays below ``FLOAT_EXACT``."""
    return D * (p - 1) ** 2


FLOAT_EXACT = 1 << 53
# the smallest product worth the casts to float64 and back: m D n at
# least 24^3, and at least 24 columns, the length of einsum's inner loop
_FLOAT_MIN_WORK = 24 ** 3
_FLOAT_MIN_COLS = 24


def _product(A: np.ndarray, B: np.ndarray, p: int) -> np.ndarray:
    """A B mod p for int64 factors with entries in (-p, p), B a matrix or
    a vector; the result has entries in [0, p).  A large matrix product
    within ``float_bound`` takes the float64 route of the module
    docstring, the rest int64 ``@``, exact within ``product_bound``; both
    give the same integers."""
    if (B.ndim == 2 and B.shape[1] >= _FLOAT_MIN_COLS
            and A.shape[0] * A.shape[1] * B.shape[1] >= _FLOAT_MIN_WORK
            and float_bound(A.shape[1], p) < FLOAT_EXACT):
        return np.einsum("ij,jk->ik", A.astype(np.float64),
                         B.astype(np.float64)).astype(np.int64) % p
    return A @ B % p


def matmul(factors: Sequence[np.ndarray], p: int) -> np.ndarray:
    """Product of a chain of int64 matrices with entries in [0, p), the
    last of which may be a vector, reduced mod p after every product and
    evaluated from the right (a chain ending in a vector costs only
    matrix-vector products).  The inputs are not reduced again."""
    out = factors[-1]
    for M in reversed(factors[:-1]):
        out = _product(M, out, p)
    return out


def block_matmul(factors: Sequence[dict], p: int) -> dict:
    """Product of a chain of block-sparse matrices, each {(row block,
    column block): matrix with entries in [0, p)}, a missing block being
    zero, evaluated from the right.  Each block product is reduced before
    it is added, and the blocks that come out zero are dropped."""
    out = factors[-1]
    for X in reversed(factors[:-1]):
        by_col: dict = {}
        for (j, k), M in X.items():
            by_col.setdefault(k, []).append((j, M))
        acc: dict = {}
        for (k, i), N in out.items():
            for j, M in by_col.get(k, ()):
                P = _product(M, N, p)
                acc[j, i] = (acc[j, i] + P) % p if (j, i) in acc else P
        out = {key: M for key, M in acc.items() if M.any()}
    return out


def block_split(X: np.ndarray, rows: dict, cols: dict) -> dict:
    """The block-sparse form {(a, b): X[rows[a], cols[b]]} of a matrix X,
    its nonzero blocks, for slices ``rows`` and ``cols`` that tile its
    rows and its columns in order."""
    r, c = list(rows), list(cols)
    nonzero = np.add.reduceat(np.add.reduceat(
        X != 0, [rows[a].start for a in r], axis=0),
        [cols[b].start for b in c], axis=1)
    return {(r[a], c[b]): X[rows[r[a]], cols[c[b]]]
            for a, b in zip(*np.nonzero(nonzero))}


def block_lincomb(terms, p: int) -> dict:
    """sum of c X over the (c, X) of ``terms``, X block-sparse as in
    :func:`block_matmul`; the zero blocks are dropped."""
    out: dict = {}
    for c, X in terms:
        for key, M in X.items():
            out[key] = (out.get(key, 0) + c * M) % p
    return {key: M for key, M in out.items() if M.any()}


def block_equal(X: dict, Y: dict, p: int) -> bool:
    """Whether two block-sparse matrices are equal."""
    return not block_lincomb([(1, X), (-1, Y)], p)


def mat_pow(M: np.ndarray, k: int, p: int) -> np.ndarray:
    """M^k over F_p by repeated squaring (M with entries in [0, p)),
    with no product by the identity and no square past the top bit."""
    out = None
    while k:
        if k & 1:
            out = M % p if out is None else _product(out, M, p)
        k >>= 1
        if k:
            M = _product(M, M, p)
    return np.eye(M.shape[0], dtype=np.int64) if out is None else out


# ---------------------------------------------------------------------------
# Linear algebra over F_p (numpy int64 matrices, entries reduced mod p)
# ---------------------------------------------------------------------------


def _as_modp(M: np.ndarray, p: int) -> np.ndarray:
    return np.asarray(M, dtype=np.int64) % p


# the most entries of a matrix that ``rref`` reduces at every step: on
# these the per-step form costs fewer numpy calls than the lazy one
_RREF_STEPWISE = 32 * 32


def rref(M: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form over F_p.

    Pivot choice is deterministic (first nonzero entry in the column), so
    repeated runs produce byte-identical results.  Returns (R, pivots).

    A large matrix is reduced lazily.  The step at pivot column c updates
    only the columns >= c, as the pivot row is zero before c.  It reduces
    only the pivot column and the pivot row and subtracts products of at
    most (p - 1)^2 from the rest; the whole matrix is reduced once in
    ``every`` steps, as often as int64 requires (at every step for p
    near 2^31).  A small matrix keeps the per-step form, which takes
    fewer numpy calls.  Each entry stays congruent to the one of the
    per-step form, so the pivots and the result are the same."""
    A = _as_modp(M, p)
    rows, cols = A.shape
    lazy = rows * cols > _RREF_STEPWISE
    every = max(1, (INT64_MAX - p) // (p - 1) ** 2) if lazy else 1
    pivots: list[int] = []
    r = since = 0
    for c in range(cols):
        if r >= rows:
            break
        if since:
            A[:, c] %= p
        nz = A[r:, c].nonzero()[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            A[[r, i]] = A[[i, r]]
        rest = A[:, c:] if lazy else A
        row = rest[r]
        if since:
            row %= p
        row *= pow(int(A[r, c]), -1, p)
        row %= p
        col = A[:, c, None].copy()
        col[r] = 0
        rest -= col * row
        since += 1
        if since == every:
            rest %= p
            since = 0
        pivots.append(c)
        r += 1
    if since:
        A %= p
    return A, pivots


def rank(M: np.ndarray, p: int) -> int:
    if M.size == 0:
        return 0
    return len(rref(M, p)[1])


def nullspace(M: np.ndarray, p: int) -> np.ndarray:
    """Basis of the right nullspace over F_p, as rows of the result: one
    row per free column f, 1 at f and minus column f of the reduced rows
    at the pivots."""
    R, piv = rref(M, p)
    cols = R.shape[1]
    is_free = np.ones(cols, dtype=bool)
    is_free[piv] = False
    free = np.flatnonzero(is_free)
    basis = np.zeros((len(free), cols), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    basis[:, piv] = -R[:len(piv), free].T % p
    return basis


def rank_and_inverse(M: np.ndarray, p: int) -> tuple[int, np.ndarray | None]:
    """The rank of M and, when M is square and invertible, its inverse
    (None otherwise), from one rref of [M | I]: its pivots in the columns
    of M are those of an rref of M."""
    A = _as_modp(M, p)
    rows, cols = A.shape
    R, piv = rref(np.hstack([A, np.eye(rows, dtype=np.int64)]), p)
    r = sum(c < cols for c in piv)
    return r, (R[:, cols:] if r == rows == cols else None)


def invert_matrix(M: np.ndarray, p: int) -> np.ndarray:
    inv = rank_and_inverse(M, p)[1]
    if inv is None:
        raise ValueError("matrix is singular mod p")
    return inv


def joint_eigenspaces(ops: Sequence[np.ndarray], labels: dict[int, int],
                      p: int, expected: Collection[tuple]
                      ) -> dict[tuple, np.ndarray]:
    """The nonzero joint generalized eigenspaces of commuting square
    matrices ``ops`` (entries in [0, p)) at the eigenvalues in ``labels``
    {c: label}: {label tuple: basis}, sorted by label tuple, the k-th
    label naming the eigenvalue of ``ops[k]``.  Each basis V is in
    reduced column echelon form, V[pivots] = I, so it depends only on
    the space.  Eigenvalues outside ``labels`` get no space; the widths
    then add up to less than the dimension.

    The pieces start as the whole space and are split by one operator at
    a time.  A piece V is stable under every operator L, so L V = V M
    with M = (L V)[pivots].  Take D = M^(p^m) with p^m >= dim V.  In
    characteristic p, (S + N)^(p^m) = S^(p^m) for the commuting
    semisimple and nilpotent parts of M, and Frobenius fixes exactly the
    elements of F_p, so for c in F_p the generalized eigenspace of M at
    c is ker(D - c), whichever such p^m is taken.  The kernels are taken
    until they fill the piece: first at the labels that some tuple of
    ``expected`` puts after the piece's key, then at the others.  Each
    basis depends only on its space, so the order changes no result."""
    dim = ops[0].shape[0]
    pieces = {(): (np.eye(dim, dtype=np.int64), np.arange(dim))}
    for L in ops:
        split = {}
        for key, (V, piv) in pieces.items():
            power = p
            while power < len(piv):
                power *= p
            D = mat_pow(matmul((L, V), p)[piv], power, p)
            I = np.eye(len(piv), dtype=np.int64)
            likely = {s[len(key)] for s in expected
                      if len(s) > len(key) and s[:len(key)] == key}
            probes = sorted(labels.items(),
                            key=lambda cl: cl[1] not in likely)
            width = 0
            for c, label in probes:
                if width == len(piv):
                    break
                # W in reduced row echelon form keeps V W^T reduced,
                # with pivots piv[pivots of W]
                W, wpiv = rref(nullspace(D - c * I, p), p)
                if wpiv:
                    split[key + (label,)] = (matmul((V, W.T), p), piv[wpiv])
                    width += len(wpiv)
        pieces = split
    return {key: V for key, (V, _) in sorted(pieces.items())}


class RowSpace:
    """Incrementally maintained row space over F_p.

    The rows are kept in reduced row echelon form with pivot columns in
    increasing order, so the stored matrix depends only on the space
    spanned.  ``extend`` absorbs a block of vectors at once: the block is
    reduced against the held rows in one kernel product, only the residual
    is row-reduced, and the held rows are cleared at its pivots.  Used to
    close two-sided ideals under multiplication.
    """

    def __init__(self, dim: int, p: int):
        self.dim = dim
        self.p = p
        self._R = np.zeros((0, dim), dtype=np.int64)
        self._piv = np.zeros(0, dtype=np.intp)

    def _residual(self, X: np.ndarray) -> np.ndarray:
        """X - X[:, pivots] R for reduced rows X: each row minus its
        component along the held rows, zero at every pivot column."""
        if not len(self._piv):
            return X
        return (X - matmul((X[:, self._piv], self._R), self.p)) % self.p

    def extend(self, block: np.ndarray) -> np.ndarray:
        """Insert the rows of ``block``; returns the rows this absorbed, in
        reduced echelon form: the held rows at the new pivots, a
        (0, dim) array when the block already lies in the space."""
        X = self._residual(_as_modp(block, self.p).reshape(-1, self.dim))
        X = X[X.any(axis=1)]
        if not len(X):
            return X
        N, piv = rref(X, self.p)
        N = N[:len(piv)]
        # N vanishes at the held pivots, so clearing the held rows at the
        # new pivots keeps both parts reduced
        R = (self._R - matmul((self._R[:, piv], N), self.p)) % self.p
        pivots = np.concatenate([self._piv, piv])
        order = np.argsort(pivots)
        self._R = np.vstack([R, N])[order]
        self._piv = pivots[order]
        return N

    @property
    def pivots(self) -> list[int]:
        return self._piv.tolist()

    def rank(self) -> int:
        return len(self._piv)

    def matrix(self) -> np.ndarray:
        return self._R.copy()


def dump_matrix_csv(path: str, M: np.ndarray) -> None:
    np.savetxt(path, np.asarray(M, dtype=np.int64), fmt="%d", delimiter=",")
