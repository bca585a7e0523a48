"""Exact linear algebra over GF(p^k) on integer-code numpy matrices.

Matrices are 2-D ``int64`` arrays whose entries are field codes for a given
:class:`~superlie.gf.Field`.  A matrix product is one exact product mod p,
of the codes of a prime field or of the digit planes of GF(p^k): in float64
through BLAS if large and every sum stays below 2⁵³, else in ``int64``,
reduced by ``gf.mod_p`` in place.  Over GF(p^k), (n, m) x (m, r) expands
its k² digit products on whichever face is smallest: n·m, with the left
factor as the GF(p)-matrix of multiplication by its entries; m·r, the same
for the right factor; or n·r, where all k² plane products come out of one
product and the reduction tensor of the power basis folds them into k
digits.  ``_right_factor`` expands a right factor once for many products.
Gauss elimination updates rows mod p over a prime field, else through the
field's tables; ``nonsingular`` runs it on a stack of small square matrices.

Every subspace is computed one way: ``rref`` gives ranks, kernels, solutions
and row-space bases, and ``EchelonBasis`` reduces and extends a basis kept
in reduced echelon form.  Operators come as one (K, n, n) ``int64`` stack,
and every invariant subspace is a closure under it, each round mapping its
whole frontier by one product with the stack, expanded once per call: the
largest stable subspace is the annihilator of the closure of the ambient's
annihilator under the transposed stack, a view.  Systems are assembled from
whole arrays; the odd supercommutant of a simple module is spun from one
seed, in the unknowns of T·e_0 its caller names, not n².
"""

from __future__ import annotations

import math

import numpy as np

from .gf import Field, mod_p


class InvariantViolation(Exception):
    """An internal cross-check failed; never reported as skipped.

    Not a ``RuntimeError``: that type marks documented scope limits, which
    callers may record as out of scope.
    """


def zeros(shape) -> np.ndarray:
    return np.zeros(shape, dtype=np.int64)


def eye(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.int64)


def check_int64_matmul(p: int, a_shape, b_shape) -> None:
    """Raise OverflowError unless an int64 product of codes mod p is exact.

    A sum of m products of residues below p stays under m·(p−1)²; int64
    holds it only while that is below 2⁶³.
    """
    m = a_shape[1]
    if m * (p - 1) ** 2 >= 2 ** 63:
        raise OverflowError(
            f"int64 matmul over GF({p}) of shapes {tuple(a_shape)} x {tuple(b_shape)} "
            f"breaks the bound m·(p−1)² < 2⁶³ (m = {m})"
        )


def fits_float64(p: int, m: int) -> bool:
    """Whether float64 holds every sum of m products of residues mod p exactly."""
    return m * (p - 1) ** 2 < 2 ** 53


# Fewest multiply-adds n·m·r at which a float64 (BLAS) product beats int64.
# Single-threaded on a 2-vCPU Xeon, int64 vs float64, each reduced mod 3 in
# place: 12³ 6.0 vs 7.4 µs, 16³ 8.9 vs 8.2 µs, (12, 12, 108) 24.9 vs 14.6 µs,
# 32³ 37.7 vs 15.1 µs, but (108, 108, 1) 15.0 vs 16.3 µs.  At 2¹² kw_heads
# ran 4% faster and ideal_survey 2.5% slower, each in 5 of 6 bench pairs.
FLOAT64_MIN_MACS = 2 ** 14


def _right_factor(F: Field, b: np.ndarray, rows: int):
    """x ↦ x·b over F for b of shape (m, …), its trailing axes read as one,
    expanded once: over GF(p^k) its digit planes, row (j, s) digit j of b[s].
    Float64 when x·b of ``rows`` rows makes FLOAT64_MIN_MACS multiply-adds
    and every sum stays below 2⁵³, else int64."""
    k, p = F.k, F.p
    m, r = b.shape[0], math.prod(b.shape[1:])
    large = rows * k * k * m * r >= FLOAT64_MIN_MACS and fits_float64(p, k * m)
    if not large:
        check_int64_matmul(p, (rows * k, k * m), (k * m, r))
    dtype = np.float64 if large else np.int64
    rhs = np.ascontiguousarray(b if k == 1 else F._digits.T[:, b], dtype=dtype).reshape(k * m, r)

    def times(x: np.ndarray) -> np.ndarray:
        n = x.shape[0]
        if k > 1:  # (digits @ W)[..., j, t] is digit t of (entry · x^j)
            x = (F._digits[x] @ F._mul_tensor.reshape(k, k * k)).reshape(n, m, k, k).transpose(0, 3, 2, 1)
            x = mod_p(x.reshape(n * k, k * m), p)  # row (i, t), column (j, s)
        out = mod_p(x.astype(dtype, copy=False) @ rhs, p)
        return out if k == 1 else out.reshape(n, k, r).transpose(0, 2, 1) @ F._pows

    return times


def _sub_scaled(F: Field, x: np.ndarray, y: np.ndarray, c=None) -> np.ndarray:
    """x − c·y element-wise over F (x − y without c): over a prime field, whose
    codes are the residues, (x − c·y) mod p in int64, exact as c·y < p² ≤ 2⁴⁰."""
    if F.k == 1:
        return mod_p(x - (y if c is None else c * y), F.p)
    return F.sub_arr(x, y if c is None else F.mul_arr(c, y))


def matmul(F: Field, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product over F; (n, m) x (m, r) -> (n, r)."""
    a = np.asarray(a)
    b = np.asarray(b)
    n, m = a.shape
    m2, r = b.shape
    if m != m2:
        raise ValueError(f"shape mismatch {a.shape} x {b.shape}")
    # GF(p^k) as k digit planes over GF(p): the k² digit products expand the
    # smallest face, n·r on ties, else n·m; m·r is n·m of (a·b)ᵀ = bᵀ·aᵀ
    if F.k == 1 or n * r > min(n * m, m * r):
        return _right_factor(F, b, n)(a) if F.k == 1 or n <= r else _right_factor(F, a.T, r)(b.T).T
    # n·r: every plane product, then the reduction tensor W on the result
    k, p = F.k, F.p
    lhs = F._digits[a].transpose(2, 0, 1).reshape(k * n, m)  # row (j, i)
    rhs = F._digits[b].reshape(m, r * k)  # column (c, t)
    W = F._mul_tensor.reshape(k * k, k)
    # each result sums k²·m digit products (< (p−1)²) times an entry of W (< p)
    if fits_float64(p, k * k * m * (p - 1)):
        planes = lhs.astype(np.float64) @ rhs.astype(np.float64)
        W = W.astype(np.float64)
    else:
        check_int64_matmul(p, lhs.shape, rhs.shape)
        planes = mod_p(lhs @ rhs, p)
    planes = planes.reshape(k, n, r, k).transpose(1, 2, 0, 3).reshape(n * r, k * k)
    return mod_p(planes @ W, p).reshape(n, r, k) @ F._pows


def matvec(F: Field, a: np.ndarray, v: np.ndarray) -> np.ndarray:
    return matmul(F, a, np.asarray(v)[:, None])[:, 0]


def rref(F: Field, mat: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form; returns (reduced matrix, pivot columns).

    A pivot clears its column by one ``_sub_scaled`` row update: mod p on the
    residues over a prime field, through the field's tables over GF(p^k)."""
    m = np.array(mat, dtype=np.int64)
    if m.ndim != 2:
        raise ValueError("rref expects a 2-D matrix")
    rows, cols = m.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = m[r:, c].nonzero()[0]
        if nz.size == 0:
            continue
        t = r + int(nz[0])
        if t != r:
            m[[r, t]] = m[[t, r]]
        piv = int(m[r, c])
        if piv != 1:
            m[r] = F.smul_arr(F.inv(piv), m[r])
        other = m[:, c].nonzero()[0]
        other = other[other != r]
        if other.size:
            m[other] = _sub_scaled(F, m[other], m[r], m[other, c][:, None])
        pivots.append(c)
        r += 1
    return m, pivots


def rank(F: Field, mat: np.ndarray) -> int:
    mat = np.asarray(mat)
    if mat.size == 0:
        return 0
    return len(rref(F, mat)[1])


def nonsingular(F: Field, stack: np.ndarray) -> np.ndarray:
    """Whether each matrix of a (B, s, s) stack is invertible, as bool (B,).

    Gauss elimination on the whole stack at once, one column at a time: the
    first nonzero entry at or below the diagonal is swapped up, and the rows
    below subtract its row times their entry over it.  A matrix with no such
    entry is singular; its zero pivot clears nothing, and its verdict stays.
    """
    m = np.array(stack, dtype=np.int64)
    B, s = m.shape[:2]
    ok = np.ones(B, dtype=bool)
    batch = np.arange(B)
    for c in range(s):
        below = m[:, c:, c] != 0
        ok &= below.any(axis=1)
        if c + 1 == s:
            break
        t = c + below.argmax(axis=1)
        m[batch, c], m[batch, t] = m[batch, t], m[batch, c]
        factors = F.mul_arr(m[:, c + 1:, c], F._inv[m[:, c, c]][:, None])
        elim = F.mul_arr(factors[:, :, None], m[:, None, c, c + 1:])
        m[:, c + 1:, c + 1:] = F.sub_arr(m[:, c + 1:, c + 1:], elim)
    return ok


def nullspace(F: Field, mat: np.ndarray) -> np.ndarray:
    """Basis (rows) of the right kernel {v : mat v = 0}."""
    mat = np.asarray(mat)
    if mat.size == 0:
        return eye(mat.shape[1]) if mat.ndim == 2 else zeros((0, 0))
    red, pivots = rref(F, mat)
    free = np.delete(np.arange(mat.shape[1]), pivots)
    basis = zeros((free.size, mat.shape[1]))
    basis[np.arange(free.size), free] = 1
    basis[:, pivots] = F.neg_arr(red[: len(pivots), free].T)
    return basis


def row_space_basis(F: Field, mat: np.ndarray) -> np.ndarray:
    """Independent rows of mat, in reduced echelon form."""
    mat = np.asarray(mat)
    if mat.size == 0:
        return zeros((0, mat.shape[1] if mat.ndim == 2 else 0))
    red, pivots = rref(F, mat)
    return red[: len(pivots)]


class EchelonBasis:
    """Rows in reduced echelon form together with their pivot columns.

    Blocks of vectors are reduced against the rows all at once, by one product
    and one ``_sub_scaled`` row update (mod p over a prime field), and the
    nonzero rest is appended in echelon form (the echelonised spinning of
    Parker's Meat-Axe).  ``rows`` must be in reduced echelon form already;
    zero rows are dropped.
    """

    def __init__(self, F: Field, rows: np.ndarray):
        rows = np.asarray(rows, dtype=np.int64)
        self.F = F
        self.rows = rows[rows.any(axis=1)]
        self.pivots = (self.rows != 0).argmax(axis=1) if rows.shape[1] else zeros(0)

    def reduce(self, block: np.ndarray) -> np.ndarray:
        """``block − block[:, pivots] · rows``: zero at every pivot column."""
        block = np.asarray(block, dtype=np.int64)
        return _sub_scaled(self.F, block, matmul(self.F, block[:, self.pivots], self.rows))

    def extend(self, block: np.ndarray) -> np.ndarray:
        """Add the span of ``block``; returns the new echelon rows."""
        F = self.F
        res = self.reduce(block)
        res = res[res.any(axis=1)]
        if not res.shape[0]:
            return res
        red, piv = rref(F, res)
        new = red[: len(piv)]
        old = _sub_scaled(F, self.rows, matmul(F, self.rows[:, piv], new))
        pivots = np.concatenate([self.pivots, piv])
        order = np.argsort(pivots)
        self.rows = np.concatenate([old, new])[order]
        self.pivots = pivots[order]
        return new


def in_row_space(F: Field, basis_rref: np.ndarray, v: np.ndarray) -> bool:
    """Membership test against a basis already in reduced echelon form."""
    return not EchelonBasis(F, basis_rref).reduce(np.asarray(v)[None]).any()


def closure_under_operators(F: Field, seed_rows: np.ndarray, ops: np.ndarray) -> np.ndarray:
    """Smallest subspace stable under the (K, n, n) operator stack ``ops``
    that contains the seed rows.

    Operators act on column vectors; rows of the result are an echelon basis.
    Each round maps the rows the previous round added (the frontier) under
    every operator with one product, frontier · [A_1ᵀ | … | A_Kᵀ], its right
    factor expanded once, straight from the stack or its view, until no
    image leaves the current span or the span is the whole space.  A round
    whose K·f images (f frontier rows) total at most n rows extends the
    basis once with all of them, a larger one once per operator; both add
    the same span, hence the same echelon rows.  The rule is measured: in a
    large round most images already lie in the span, and reducing each
    operator's images against the rows the earlier ones added drops them by
    one product before the elimination, whose Python loop over pivots then
    runs on few rows (with one extension per round, the ideal_survey bench,
    K = 11, spent 0.23 s in its check instead of 0.12 s, check_cpu_norm_s,
    single-threaded on a 2-vCPU Xeon); a small round saves K − 1 eliminations.
    """
    seed_rows = np.asarray(seed_rows, dtype=np.int64)
    K, n = ops.shape[0], seed_rows.shape[1]
    times = _right_factor(F, ops.transpose(2, 0, 1), 1)  # x ↦ x·[A_1ᵀ | … | A_Kᵀ]
    basis = EchelonBasis(F, zeros((0, n)))
    frontier = basis.extend(seed_rows)
    while frontier.shape[0] and basis.rows.shape[0] < n:
        f = frontier.shape[0]
        images = times(frontier).reshape(f, K, n).transpose(1, 0, 2)
        if K * f <= n:
            frontier = basis.extend(images.reshape(K * f, n))
        else:
            frontier = np.concatenate([frontier[:0], *map(basis.extend, images)])
    return basis.rows


def largest_stable_subspace(F: Field, ambient_rows: np.ndarray, ops: np.ndarray) -> np.ndarray:
    """Largest subspace of the row-span of ambient_rows stable under the
    (K, n, n) operator stack ``ops``.

    Rows of the result are its reduced echelon basis, which is unique.  By
    duality: S is stable under A exactly when its annihilator S⊥ is stable
    under Aᵀ, and S ⊆ W exactly when S⊥ ⊇ W⊥.  So the largest A-stable S
    inside W is the annihilator of the smallest Aᵀ-stable space containing
    W⊥: one closure under the transposed stack, a view, between two kernels
    (the transposed spin of Norton's irreducibility test in the MeatAxe).
    """
    dual = closure_under_operators(F, nullspace(F, ambient_rows), ops.transpose(0, 2, 1))
    return row_space_basis(F, nullspace(F, dual))


def supercommutant_basis(F: Field, even_ops: np.ndarray, odd_ops: np.ndarray,
                         parity_op: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """A (d, n, n) stack spanning the odd supercommuting T of the even and odd
    (K, n, n) operator stacks with u = T·e_0 on the coordinates ``coords``
    alone, on a module that e_0 generates.

    T·A_a = s_a·A_a·T for every operator A_a and the parity involution, with
    s_a = −1 for the odd operators and the involution, else 1.

    Solved by spinning (Parker's Meat-Axe).  The seed v = e_0 spins into a
    basis B = [b_i], each round by one product Xᵀ·[A_1ᵀ | … | A_Kᵀ] with the
    stack expanded once.  Where b_i = A_a·b_j, T·b_i = s_a·A_a·T·b_j, so
    T·b_i = M_i·u for word matrices M_i, with r = len(coords) columns, the
    unknowns of u.  With C_a = B⁻¹·A_a·B the relations read
    Σ_i C_a[i, j]·M_i·u = s_a·A_a·M_j·u, and T = [M_i·u]·B⁻¹.  With no
    coordinates the spin runs alone, a certificate with no word columns.  A
    spin that stops short of n raises ``InvariantViolation``: a simple module
    is generated by any nonzero vector.
    """
    n, r = parity_op.shape[0], len(coords)
    if n == 0:
        return zeros((0, 0, 0))
    ops = np.concatenate([even_ops, odd_ops, parity_op[None]])
    K = ops.shape[0]
    times = _right_factor(F, ops.transpose(2, 0, 1), 1)  # x ↦ x·[A_1ᵀ | … | A_Kᵀ]
    signed = np.arange(K) >= len(even_ops)  # s_a = −1
    # each spun vector b_i beside its word matrix M_i: aug[i] = [b_i | M_i]
    aug, fresh, rounds = np.concatenate([eye(n)[:, :1], eye(n)[:, coords]], axis=1)[None], [0], []
    while True:
        m = aug.shape[0]
        if m == n and not r:
            return zeros((0, n, n))
        # A_a·b_j beside s_a·A_a·M_j for the frontier, in one product
        f = len(fresh)
        images = times(aug[fresh].transpose(0, 2, 1).reshape(-1, n)).reshape(f, -1, K, n)
        images = images.transpose(2, 3, 0, 1)  # [a, i, j, c]
        images[signed, :, :, 1:] = F.neg_arr(images[signed, :, :, 1:])
        rounds.append(images)
        if m == n:  # a last round only records the images
            break
        cand = images[:, :, :, 0].transpose(1, 0, 2).reshape(n, K * f)  # column a·f + j
        picked = np.array(rref(F, np.concatenate([aug[:, :, 0].T, cand], axis=1))[1][m:], dtype=int) - m
        if not picked.size:
            raise InvariantViolation(f"the spin of e_0 stops at dimension {m} of {n}: "
                                     "the module is not simple")
        a, j = divmod(picked, f)
        aug = np.concatenate([aug, images[a, :, j]])
        fresh = list(range(m, m + picked.size))
    spun, basis, words = np.concatenate(rounds, axis=2), aug[:, :, 0].T, aug[:, :, 1:]
    rhs = spun[:, :, :, 1:].transpose(0, 2, 1, 3)  # [a, j, row, c]
    # [B | A_a·B | I] reduces to [I | C_a | B⁻¹]
    op_basis = spun[:, :, :, 0].transpose(1, 0, 2).reshape(n, K * n)
    red = rref(F, np.concatenate([basis, op_basis, eye(n)], axis=1))[0]
    c_a, inverse = red[:, n:-n].reshape(n, K, n), red[:, -n:]
    lhs = matmul(F, c_a.transpose(1, 2, 0).reshape(K * n, n), words.reshape(n, -1))
    lhs, rhs = lhs.reshape(-1, r), rhs.reshape(-1, r)
    live = lhs.any(axis=1) | rhs.any(axis=1)  # most rows are zero on both sides
    cond = F.sub_arr(lhs[live], rhs[live])
    ker = nullspace(F, cond[cond.any(axis=1)])
    values = matmul(F, words.reshape(n * n, -1), ker.T).reshape(n, n, -1)  # [i, row, d]
    ts = matmul(F, values.transpose(2, 1, 0).reshape(-1, n), inverse)
    return ts.reshape(-1, n, n)
