"""Exact arithmetic in prime fields GF(p) and their extensions GF(p^k).

An element of GF(p^k) is stored as an integer code ``n = sum_i c_i * p**i``
where ``(c_0, ..., c_{k-1})`` are the coordinates in the power basis of a
fixed monic irreducible modulus polynomial.  Scalar and element-wise
operations are table driven: full q x q tables for small fields, discrete
logs for multiplication and digit vectors for addition above that.  The
field also stores the reduction tensor of its power basis, so a matrix
product can run as one integer product over GF(p) on the digit planes (see
``linalg.matmul``).  Every computation built on top of this module is exact.

Every field value in ``superlie`` is such an integer code: ``Field``
methods do the scalar arithmetic on single codes and the ``*_arr`` methods
do it element-wise on numpy arrays of codes.  A code carries no field, so
the caller keeps track of which field its codes belong to.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

_SMALL_TABLE_MAX = 512  # build full q x q scalar tables below this order
# The largest field order q that superlie builds, checked before any modulus
# search or table.  A field's tables cost about 500 bytes per element: GF(7^7),
# q = 823,543, takes 1.2 s CPU and 407 MB peak RSS to build (Intel Xeon vCPU,
# Python 3.11, numpy 2.4).  2^20 admits the weight field GF(p^p) up to p = 7;
# the next one, GF(11^11), would hold 2.9e11 codes.
MAX_FIELD_ORDER = 2 ** 20

# Fewest elements at which x − p·(x // p) beats np.remainder: numpy divides
# int64 by a scalar through libdivide (multiplication by a precomputed
# inverse, Granlund and Montgomery 1994), np.remainder does not.  Single-
# threaded on a 2-vCPU Xeon, numpy 2.4, mod 3, in place: 95 elements 1.0
# (remainder) vs 1.8 µs, 384 2.2 vs 2.5 µs, 640 3.2 vs 3.2 µs, 1,024 4.9 vs
# 4.1 µs, 6,480 27 vs 17 µs, 30,000 122 vs 64 µs; mod 1,048,573 the same.
MOD_DIV_MIN_SIZE = 640


def mod_p(x: np.ndarray, p: int) -> np.ndarray:
    """The exact integers of x reduced mod p, as int64, reduced in place; on
    all of int64, since x − p·(x // p) lies in [0, p) even where int64 wraps."""
    x = x.astype(np.int64, copy=False)
    if x.size < MOD_DIV_MIN_SIZE:
        return np.remainder(x, p, out=x)
    quotient = x // p
    quotient *= p
    x -= quotient
    return x


def is_prime(n: int) -> bool:
    return n >= 2 and _prime_divisors(n) == [n]


def _prime_divisors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


# ---------------------------------------------------------------------------
# Polynomials over GF(p).
#
# A polynomial is a list/tuple of integer coefficients in ascending degree
# order, normalized so that the last entry is nonzero (the zero polynomial
# is the empty list).
# ---------------------------------------------------------------------------

def poly_trim(f: Sequence[int]) -> list[int]:
    f = list(f)
    while f and f[-1] == 0:
        f.pop()
    return f


def poly_add(f: Sequence[int], g: Sequence[int], p: int) -> list[int]:
    n = max(len(f), len(g))
    out = [0] * n
    for i, c in enumerate(f):
        out[i] = c % p
    for i, c in enumerate(g):
        out[i] = (out[i] + c) % p
    return poly_trim(out)


def poly_sub(f: Sequence[int], g: Sequence[int], p: int) -> list[int]:
    return poly_add(f, [(-c) % p for c in g], p)


def poly_mul(f: Sequence[int], g: Sequence[int], p: int) -> list[int]:
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a == 0:
            continue
        for j, b in enumerate(g):
            out[i + j] = (out[i + j] + a * b) % p
    return poly_trim(out)


def poly_divmod(f: Sequence[int], g: Sequence[int], p: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder of f by g over GF(p).

    Args:
        f: dividend coefficients (ascending degree).
        g: divisor coefficients; must be nonzero.
        p: field characteristic.
    """
    g = poly_trim(g)
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    rem = poly_trim(f)
    dg = len(g) - 1
    lead_inv = pow(g[-1], -1, p)
    quo = [0] * max(len(rem) - dg, 0)
    while len(rem) - 1 >= dg and rem:
        shift = len(rem) - 1 - dg
        coeff = (rem[-1] * lead_inv) % p
        quo[shift] = coeff
        for i, c in enumerate(g):
            rem[shift + i] = (rem[shift + i] - coeff * c) % p
        rem = poly_trim(rem)
    return poly_trim(quo), rem


def poly_mod(f: Sequence[int], g: Sequence[int], p: int) -> list[int]:
    return poly_divmod(f, g, p)[1]


def poly_gcd(f: Sequence[int], g: Sequence[int], p: int) -> list[int]:
    """Monic greatest common divisor over GF(p)."""
    a, b = poly_trim(f), poly_trim(g)
    while b:
        a, b = b, poly_mod(a, b, p)
    if a:
        inv = pow(a[-1], -1, p)
        a = [(c * inv) % p for c in a]
    return a


def poly_powmod(f: Sequence[int], e: int, mod: Sequence[int], p: int) -> list[int]:
    """Compute f**e modulo mod over GF(p) by binary exponentiation."""
    result = [1]
    base = poly_mod(f, mod, p)
    while e > 0:
        if e & 1:
            result = poly_mod(poly_mul(result, base, p), mod, p)
        base = poly_mod(poly_mul(base, base, p), mod, p)
        e >>= 1
    return result


def is_irreducible(f: Sequence[int], p: int) -> bool:
    """Rabin irreducibility test for a monic polynomial over GF(p)."""
    f = poly_trim(f)
    k = len(f) - 1
    if k <= 0:
        return False
    if k == 1:
        return True
    x = [0, 1]
    for ell in _prime_divisors(k):
        s = poly_powmod(x, p ** (k // ell), f, p)
        if len(poly_gcd(poly_sub(s, x, p), f, p)) != 1:
            return False
    s = poly_powmod(x, p ** k, f, p)
    return poly_sub(s, x, p) == []


def smallest_irreducible_modulus(p: int, k: int) -> tuple[int, ...]:
    """The lexicographically smallest monic irreducible of degree k over GF(p).

    Candidates x^k + c_{k-1} x^{k-1} + ... + c_0 are scanned in increasing
    order of the integer sum_i c_i p^i, so smaller low-degree coefficients
    win first (GF(9) gets x^2 + 1, GF(25) gets x^2 + 2).
    """
    for m in range(p ** k):
        coeffs = [(m // p ** i) % p for i in range(k)] + [1]
        if is_irreducible(coeffs, p):
            return tuple(coeffs)
    raise RuntimeError(f"no irreducible polynomial of degree {k} over GF({p})")


class Field:
    """The finite field GF(p^k) with table-driven exact arithmetic.

    Use :func:`field_create` rather than instantiating directly; it caches
    one instance per (p, k).  The modulus is always the smallest irreducible
    one, so (p, k) fixes the field and its codes.
    """

    def __init__(self, p: int, k: int = 1):
        if k < 1:
            raise ValueError(f"extension degree k = {k} must be >= 1")
        if p ** k > MAX_FIELD_ORDER:
            raise ValueError(f"GF({p}^{k}) has order {p ** k}, above "
                             f"MAX_FIELD_ORDER = {MAX_FIELD_ORDER}")
        if not is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        if p == 2:
            raise ValueError("characteristic 2 is not supported")
        self.p = p
        self.k = k
        self.q = p ** k
        self.modulus = smallest_irreducible_modulus(p, k)
        self._build_tables()

    # -- construction helpers -------------------------------------------------

    def _build_tables(self) -> None:
        p, k, q = self.p, self.k, self.q
        pows = p ** np.arange(k, dtype=np.int64)
        codes = np.arange(q, dtype=np.int64)
        self._digits = (codes[:, None] // pows[None, :]) % p  # (q, k)
        self._pows = pows

        # reduction tensor: x^i · x^j ≡ sum_t W[i, j, t] x^t mod the modulus
        reduced = [poly_mod([0] * d + [1], self.modulus, p) for d in range(2 * k - 1)]
        W = np.zeros((k, k, k), dtype=np.int64)
        for i in range(k):
            for j in range(k):
                W[i, j, : len(reduced[i + j])] = reduced[i + j]
        self._mul_tensor = W

        # generator: the first code c with c^((q−1)/ℓ) ≠ 1 for each prime ℓ | q − 1
        cofactors = [(q - 1) // ell for ell in _prime_divisors(q - 1)]
        gen = next(c for c in range(2, q) if all(
            poly_powmod(self._digits[c].tolist(), e, self.modulus, p) != [1]
            for e in cofactors))
        # exp by doubling: the digits of g^0 … g^(2^j − 1) times the k x k
        # GF(p)-matrix of multiplication by g^(2^j) are those of the next 2^j powers
        block = np.eye(1, k, dtype=np.int64)
        step = (self._digits[gen] @ W.reshape(k, k * k)).reshape(k, k) % p
        while block.shape[0] < q - 1:
            block = np.concatenate([block, block[: q - 1 - block.shape[0]] @ step % p])
            step = step @ step % p
        exp = block @ pows
        log = np.full(q, -1, dtype=np.int64)
        log[exp] = np.arange(q - 1)
        self.generator = gen
        self._exp = exp
        self._log = log

        # unary tables
        self._neg = self._encode_arr((-self._digits) % p)
        inv = np.zeros(q, dtype=np.int64)
        inv[1:] = exp[(q - 1 - log[np.arange(1, q)]) % (q - 1)]
        self._inv = inv
        frob = np.zeros(q, dtype=np.int64)
        frob[1:] = exp[(log[np.arange(1, q)] * p) % (q - 1)]
        self._frob = frob

        # scalar fast paths
        self._exp_l = exp.tolist()
        self._log_l = log.tolist()
        self._neg_l = self._neg.tolist()
        self._inv_l = inv.tolist()
        self._digit_tuples = list(zip(*self._digits.T.tolist()))
        if q <= _SMALL_TABLE_MAX:
            add_np = self._encode_arr((self._digits[:, None, :] + self._digits[None, :, :]) % p)
            mul_np = np.zeros((q, q), dtype=np.int64)
            nz = self._exp[(self._log[1:, None] + self._log[None, 1:]) % (q - 1)]
            mul_np[1:, 1:] = nz
            self._add_np: Optional[np.ndarray] = add_np
            self._mul_np: Optional[np.ndarray] = mul_np
            self._add_l = [row.tolist() for row in add_np]
            self._mul_l = [row.tolist() for row in mul_np]
        else:
            self._add_np = None
            self._mul_np = None
            self._add_l = None
            self._mul_l = None

    def _encode_arr(self, digits: np.ndarray) -> np.ndarray:
        return (digits * self._pows).sum(axis=-1)

    # -- scalar operations on integer codes -----------------------------------

    def add(self, a: int, b: int) -> int:
        if self._add_l is not None:
            return self._add_l[a][b]
        da = self._digit_tuples[a]
        db = self._digit_tuples[b]
        p = self.p
        code = 0
        mult = 1
        for i in range(self.k):
            code += ((da[i] + db[i]) % p) * mult
            mult *= p
        return code

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self._neg_l[b])

    def neg(self, a: int) -> int:
        return self._neg_l[a]

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        if self._mul_l is not None:
            return self._mul_l[a][b]
        return self._exp_l[(self._log_l[a] + self._log_l[b]) % (self.q - 1)]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero field element")
        return self._inv_l[a]

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow_int(self, a: int, e: int) -> int:
        if a == 0:
            if e == 0:
                return 1
            if e < 0:
                raise ZeroDivisionError("negative power of zero field element")
            return 0
        e_red = e % (self.q - 1)
        return self._exp_l[(self._log_l[a] * e_red) % (self.q - 1)]

    # -- vectorized operations on numpy arrays of codes ------------------------

    def add_arr(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if self._add_np is not None:
            return self._add_np[a, b]
        da = self._digits[a]
        db = self._digits[b]
        return self._encode_arr(mod_p(da + db, self.p))

    def sub_arr(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self.add_arr(a, self._neg[b])

    def neg_arr(self, a: np.ndarray) -> np.ndarray:
        return self._neg[a]

    def mul_arr(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if self._mul_np is not None:
            return self._mul_np[a, b]
        a = np.asarray(a)
        b = np.asarray(b)
        out = self._exp[(self._log[a] + self._log[b]) % (self.q - 1)]
        zero = (a == 0) | (b == 0)
        return np.where(zero, 0, out)

    def smul_arr(self, c: int, a: np.ndarray) -> np.ndarray:
        if c == 0:
            return np.zeros_like(np.asarray(a))
        if c == 1:
            return np.asarray(a).copy()
        if self._mul_np is not None:
            return self._mul_np[c, a]
        a = np.asarray(a)
        out = self._exp[(self._log_l[c] + self._log[a]) % (self.q - 1)]
        return np.where(a == 0, 0, out)

    def __repr__(self) -> str:
        if self.k == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.k})"


_FIELD_CACHE: dict[tuple[int, int], Field] = {}


def field_create(p: int, k: int = 1) -> Field:
    """Return the cached GF(p^k) with the canonical (smallest) modulus."""
    key = (p, k)
    if key not in _FIELD_CACHE:
        _FIELD_CACHE[key] = Field(p, k)
    return _FIELD_CACHE[key]

