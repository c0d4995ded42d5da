"""Exact arithmetic over prime fields F_p and the rational function field F_p(t).

Everything downstream of this module is exact: no floating point appears
anywhere.  The pieces provided here are

* ``root_of_unity(p, e)`` -- a primitive e'th root of unity in F_p, found
  in O(e) steps through ``cyclic_subgroup``, the subgroup of order e,
* ``Poly`` -- dense univariate polynomials over F_p,
* ``RatFunc`` -- rational functions over F_p in canonical (reduced, monic
  denominator) form, with pole-aware specialization,
* the matrix kernel ``matmul``/``mat_pow``: products of int64 matrices
  with entries in [0, p), reduced mod p after every product,
* mod-p linear algebra on numpy int64 matrices (``rank``, ``rref``,
  ``solve``, ``nullspace``) with deterministic pivot choice, and
* ``RowSpace`` -- an incremental reduced echelon form, used to close
  two-sided ideals a block of new vectors at a time and to certify
  spanning ranks.

The kernel does not reduce its inputs: callers keep stored matrices in
[0, p) and reduce a linear combination where they form it.  Before a
reduction an int64 entry is then at most ``product_bound(D, p)``, one
product of D-wide factors plus one reduced addend; the Murphy engine's
chunked layer sums and its series layers keep to it too, and
``HeckeParams.validate_exact`` rejects a p that breaks it at D = dim H.
An accepted p is below 2^32, so a cumulative sum of w reduced values
stays below w 2^32.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Iterable, Optional, Sequence

import numpy as np


class PoleAtSpecialization(Exception):
    """Raised when a rational function is evaluated at a zero of its
    denominator (in lowest terms)."""


class NoRoot(Exception):
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
    """True when x has multiplicative order exactly e in F_p^*: x^e = 1
    but x^(e/r) != 1 for each prime r | e, found by trial division."""
    if x % p == 0 or pow(x, e, p) != 1:
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
        if self.is_zero() or other.is_zero():
            return Poly(self.p, ())
        a = np.array(self.coeffs, dtype=np.int64)
        b = np.array(other.coeffs, dtype=np.int64)
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

    def shifted_eval(self, x: int) -> tuple[int, "Poly"]:
        """Return (f(x), f // (t-x)) computed by one synthetic division."""
        p = self.p
        out = [0] * max(len(self.coeffs) - 1, 0)
        acc = 0
        for i in range(len(self.coeffs) - 1, -1, -1):
            acc = (acc * x + self.coeffs[i]) % p
            if i > 0:
                out[i - 1] = acc
        return acc, Poly(p, _trim(out))

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


def specialize(x: RatFunc, q: int) -> int:
    """Evaluate a rational function at t = q in F_p (module-level alias)."""
    return x.specialize(q)


# ---------------------------------------------------------------------------
# The matrix kernel: products of reduced int64 matrices
# ---------------------------------------------------------------------------

INT64_MAX = int(np.iinfo(np.int64).max)


def product_bound(D: int, p: int) -> int:
    """Largest int64 entry met before a reduction: one product of two
    D-wide factors with entries in [0, p), D (p - 1)^2, plus one value in
    (-p, p), a carried partial sum or a reduced term."""
    return D * (p - 1) ** 2 + p - 1


def matmul(factors: Sequence[np.ndarray], p: int) -> np.ndarray:
    """Product of a chain of int64 matrices with entries in [0, p), the
    last of which may be a vector, reduced mod p after every product and
    evaluated from the right (a chain ending in a vector costs only
    matrix-vector products).  The inputs are not reduced again."""
    out = factors[-1]
    for M in reversed(factors[:-1]):
        out = M @ out % p
    return out


def mat_pow(M: np.ndarray, k: int, p: int) -> np.ndarray:
    """M^k over F_p by repeated squaring (M with entries in [0, p))."""
    out = np.eye(M.shape[0], dtype=np.int64)
    while k:
        if k & 1:
            out = out @ M % p
        M = M @ M % p
        k >>= 1
    return out


# ---------------------------------------------------------------------------
# Linear algebra over F_p (numpy int64 matrices, entries reduced mod p)
# ---------------------------------------------------------------------------


def _as_modp(M: np.ndarray, p: int) -> np.ndarray:
    return np.asarray(M, dtype=np.int64) % p


def rref(M: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form over F_p.

    Pivot choice is deterministic (first nonzero entry in the column), so
    repeated runs produce byte-identical results.  Returns (R, pivots).
    """
    A = _as_modp(M, p).copy()
    rows, cols = A.shape
    pivots: list[int] = []
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


def rank(M: np.ndarray, p: int) -> int:
    if M.size == 0:
        return 0
    return len(rref(M, p)[1])


def solve(M: np.ndarray, b: np.ndarray, p: int) -> Optional[np.ndarray]:
    """One solution of M x = b over F_p, or None if inconsistent."""
    A = _as_modp(M, p)
    bb = _as_modp(b, p).reshape(-1, 1)
    R, piv = rref(np.hstack([A, bb]), p)
    if len(piv) > 0 and piv[-1] == A.shape[1]:
        return None
    x = np.zeros(A.shape[1], dtype=np.int64)
    for r, c in enumerate(piv):
        x[c] = R[r, -1]
    return x


def nullspace(M: np.ndarray, p: int) -> np.ndarray:
    """Basis of the right nullspace over F_p, as rows of the result."""
    A = _as_modp(M, p)
    R, piv = rref(A, p)
    cols = A.shape[1]
    free = [c for c in range(cols) if c not in piv]
    basis = np.zeros((len(free), cols), dtype=np.int64)
    for k, fc in enumerate(free):
        basis[k, fc] = 1
        for r, c in enumerate(piv):
            basis[k, c] = (-int(R[r, fc])) % p
    return basis


def invert_matrix(M: np.ndarray, p: int) -> np.ndarray:
    A = _as_modp(M, p)
    n = A.shape[0]
    R, piv = rref(np.hstack([A, np.eye(n, dtype=np.int64)]), p)
    if piv[: n] != list(range(n)):
        raise ValueError("matrix is singular mod p")
    return R[:, n:]


class RowSpace:
    """Incrementally maintained row space over F_p.

    The rows are kept in reduced row echelon form with pivot columns in
    increasing order, so the stored matrix depends only on the space
    spanned.  ``extend`` absorbs a block of vectors at once: the block is
    reduced against the held rows in one kernel product, only the residual
    is row-reduced, and the held rows are cleared at its pivots.  Used to
    close two-sided ideals under multiplication and to certify ranks of
    spanning sets without materializing huge matrices.
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

    def reduce(self, v: np.ndarray) -> np.ndarray:
        return self._residual(_as_modp(v, self.p)[None, :])[0]

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

    def add(self, v: np.ndarray) -> bool:
        """Insert v; returns True if it enlarged the space."""
        return len(self.extend(v)) > 0

    @property
    def pivots(self) -> list[int]:
        return self._piv.tolist()

    def rank(self) -> int:
        return len(self._piv)

    def contains(self, v: np.ndarray) -> bool:
        return not np.any(self.reduce(v))

    def matrix(self) -> np.ndarray:
        return self._R.copy()


def dump_matrix_csv(path: str, M: np.ndarray) -> None:
    np.savetxt(path, np.asarray(M, dtype=np.int64), fmt="%d", delimiter=",")
