"""Exact linear algebra over GF(p^k) on integer-code numpy matrices.

Matrices are 2-D ``int64`` arrays whose entries are field codes for a given
:class:`~superlie.gf.Field`.  A matrix product is one exact product mod p,
of the codes of a prime field or the stacked digit planes of GF(p^k): in
float64 through BLAS if large and every sum stays below 2⁵³, else in
``int64``.  Gauss elimination uses the field's element-wise operations.

Every subspace is computed one way: ``rref`` gives ranks, kernels, solutions
and row-space bases, and ``EchelonBasis`` reduces and extends a basis kept
in reduced echelon form.  The systems fed to them are assembled from whole
arrays (Kronecker products for the commutant), not entry by entry.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .gf import Field


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
# Single-threaded on a 2-vCPU Xeon, int64 vs float64: 12³ 6.2 vs 9.2 µs, 32³ 38 vs 25 µs.
FLOAT64_MIN_MACS = 2 ** 14


def _residue_product(p: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b mod p`` for matrices of residues mod p, exact."""
    if a.shape[0] * a.shape[1] * b.shape[1] >= FLOAT64_MIN_MACS and fits_float64(p, a.shape[1]):
        out = a.astype(np.float64) @ b.astype(np.float64)
        return np.fmod(out, p, out=out).astype(np.int64)
    check_int64_matmul(p, a.shape, b.shape)
    return a.astype(np.int64, copy=False) @ b.astype(np.int64, copy=False) % p


def matmul(F: Field, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product over F; (n, m) x (m, r) -> (n, r)."""
    a = np.asarray(a)
    b = np.asarray(b)
    n, m = a.shape
    m2, r = b.shape
    if m != m2:
        raise ValueError(f"shape mismatch {a.shape} x {b.shape}")
    if F.k == 1:
        return _residue_product(F.p, a, b)  # prime-field codes are the residues
    # GF(p^k) as k digit planes over GF(p).  The smaller side becomes the
    # GF(p)-matrix of multiplication by its entries, the other side stacks its
    # planes along the inner dimension: one product mod p with k·m terms.
    # W is symmetric in its first two indices, so one reshape serves both
    # sides: (digits @ Wk)[..., j, t] is digit t of (entry · x^j).
    k, p = F.k, F.p
    Wk = F._mul_tensor.reshape(k, k * k)
    if n <= r:
        lhs = (F._digits[a] @ Wk).reshape(n, m, k, k).transpose(0, 3, 1, 2)
        lhs = lhs.reshape(n * k, m * k) % p  # row (i, t), column (s, j)
        rhs = F._digits[b].transpose(0, 2, 1).reshape(m * k, r)
        out = _residue_product(p, lhs, rhs).reshape(n, k, r).transpose(0, 2, 1)
    else:
        lhs = F._digits[a].reshape(n, m * k)
        rhs = (F._digits[b] @ Wk).reshape(m, r, k, k).transpose(0, 2, 1, 3)
        rhs = rhs.reshape(m * k, r * k) % p  # row (s, j), column (c, t)
        out = _residue_product(p, lhs, rhs).reshape(n, r, k)
    return out @ F._pows


def matvec(F: Field, a: np.ndarray, v: np.ndarray) -> np.ndarray:
    return matmul(F, a, np.asarray(v)[:, None])[:, 0]


def rref(F: Field, mat: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form; returns (reduced matrix, pivot columns)."""
    m = np.array(mat, dtype=np.int64)
    if m.ndim != 2:
        raise ValueError("rref expects a 2-D matrix")
    rows, cols = m.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(m[r:, c])[0]
        if nz.size == 0:
            continue
        t = r + int(nz[0])
        if t != r:
            m[[r, t]] = m[[t, r]]
        piv = int(m[r, c])
        if piv != 1:
            m[r] = F.smul_arr(F.inv(piv), m[r])
        other = np.nonzero(m[:, c])[0]
        other = other[other != r]
        if other.size:
            elim = F.mul_arr(m[other, c][:, None], m[r][None, :])
            m[other] = F.sub_arr(m[other], elim)
        pivots.append(c)
        r += 1
    return m, pivots


def rank(F: Field, mat: np.ndarray) -> int:
    mat = np.asarray(mat)
    if mat.size == 0:
        return 0
    return len(rref(F, mat)[1])


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


def solve(F: Field, mat: np.ndarray, rhs: np.ndarray) -> Optional[np.ndarray]:
    """One solution of mat x = rhs, or None if inconsistent."""
    mat = np.asarray(mat)
    rhs = np.asarray(rhs)
    aug = np.concatenate([mat, rhs[:, None]], axis=1)
    red, pivots = rref(F, aug)
    cols = mat.shape[1]
    if cols in pivots:
        return None
    x = zeros(cols)
    for r, c in enumerate(pivots):
        x[c] = red[r, cols]
    return x


def row_space_basis(F: Field, mat: np.ndarray) -> np.ndarray:
    """Independent rows of mat, in reduced echelon form."""
    mat = np.asarray(mat)
    if mat.size == 0:
        return zeros((0, mat.shape[1] if mat.ndim == 2 else 0))
    red, pivots = rref(F, mat)
    return red[: len(pivots)]


class EchelonBasis:
    """Rows in reduced echelon form together with their pivot columns.

    Blocks of vectors are reduced against the rows all at once, and the
    nonzero residue is appended in echelon form (the echelonised spinning of
    Parker's Meat-Axe).  ``rows`` must already be in reduced echelon form;
    zero rows are dropped.
    """

    def __init__(self, F: Field, rows: np.ndarray):
        rows = np.asarray(rows, dtype=np.int64)
        self.F = F
        self.rows = rows[rows.any(axis=1)]
        self.pivots = (self.rows != 0).argmax(axis=1)

    def reduce(self, block: np.ndarray) -> np.ndarray:
        """``block − block[:, pivots] · rows``: zero at every pivot column."""
        block = np.asarray(block, dtype=np.int64)
        return self.F.sub_arr(block, matmul(self.F, block[:, self.pivots], self.rows))

    def extend(self, block: np.ndarray) -> np.ndarray:
        """Add the span of ``block``; returns the new echelon rows."""
        F = self.F
        res = self.reduce(block)
        res = res[res.any(axis=1)]
        if not res.shape[0]:
            return res
        red, piv = rref(F, res)
        new = red[: len(piv)]
        old = F.sub_arr(self.rows, matmul(F, self.rows[:, piv], new))
        pivots = np.concatenate([self.pivots, piv])
        order = np.argsort(pivots)
        self.rows = np.concatenate([old, new])[order]
        self.pivots = pivots[order]
        return new


def in_row_space(F: Field, basis_rref: np.ndarray, v: np.ndarray) -> bool:
    """Membership test against a basis already in reduced echelon form."""
    return not EchelonBasis(F, basis_rref).reduce(np.asarray(v)[None]).any()


def closure_under_operators(
    F: Field,
    seed_rows: np.ndarray,
    operators: Sequence[np.ndarray],
    dim_cap: Optional[int] = None,
) -> np.ndarray:
    """Smallest operator-stable subspace containing the seed rows.

    Operators act on column vectors; rows of the result are an echelon basis.
    Each round applies every operator to the rows the previous round added
    (the frontier) until no image leaves the current span (or the span
    reaches ``dim_cap``, when provided, allowing early exit at full space).
    A round whose images total at most n rows extends the basis once, a larger
    one per operator; both add the same span, hence the same echelon rows.
    """
    seed_rows = np.asarray(seed_rows, dtype=np.int64)
    n = seed_rows.shape[1]
    basis = EchelonBasis(F, zeros((0, n)))
    frontier = basis.extend(seed_rows)
    while frontier.shape[0]:
        images = [matmul(F, frontier, op.T) for op in operators]
        if len(images) * frontier.shape[0] <= n:
            images = [np.concatenate([frontier[:0], *images])]
        frontier = np.concatenate([frontier[:0], *map(basis.extend, images)])
        if dim_cap is not None and basis.rows.shape[0] >= dim_cap:
            break
    return basis.rows


def largest_stable_subspace(
    F: Field, ambient_rows: np.ndarray, operators: Sequence[np.ndarray]
) -> np.ndarray:
    """Largest subspace of the row-span of ambient_rows stable under all operators.

    Shrinking iteration on a basis B (rows) of the candidate space.  The rows
    of K span the functionals that vanish on the span of B, so a vector c·B
    stays in that span under op exactly when K·op·(c·B)ᵀ = 0.  Each step keeps
    the coefficient vectors c that satisfy this for every operator.  The
    dimension falls at every step until the span is stable.
    """
    basis = row_space_basis(F, np.asarray(ambient_rows))
    n = basis.shape[1]
    while basis.shape[0]:
        # functionals vanishing on the current span: f with basis · f = 0
        K = nullspace(F, basis)
        if K.shape[0] == 0:
            # span is the whole ambient coordinate space; it is stable
            return basis
        # constraints K · op · basisᵀ · c = 0 on the coefficient vector c
        blocks = [matmul(F, matmul(F, K, op), basis.T) for op in operators]
        stacked = np.concatenate([zeros((0, basis.shape[0])), *blocks])
        coeffs = nullspace(F, stacked)  # rows of coefficient vectors
        if coeffs.shape[0] == basis.shape[0]:
            return basis  # already stable
        if coeffs.shape[0] == 0:
            return zeros((0, n))
        basis = row_space_basis(F, matmul(F, coeffs, basis))
    return basis


def _commutation_constraint(F: Field, op: np.ndarray, s: int) -> np.ndarray:
    """Rows of the linear system T·op − s·op·T = 0 in the flattened unknown T.

    T is flattened row-major, so vec(T·op) = (I ⊗ opᵀ)·vec(T) and
    vec(op·T) = (op ⊗ I)·vec(T).  The two Kronecker products share nonzero
    positions only on the diagonal, so only the diagonal needs field
    addition; elsewhere the integer sum of the codes is the field sum.
    """
    n = op.shape[0]
    ident = eye(n)
    scaled = F.neg_arr(op) if s == 1 else op
    block = np.kron(ident, op.T) + np.kron(scaled, ident)
    diag = np.arange(n * n)
    block[diag, diag] = F.add_arr(np.tile(op.diagonal(), n), np.repeat(scaled.diagonal(), n))
    return block


def supercommutant_basis(
    F: Field,
    even_ops: Sequence[np.ndarray],
    odd_ops: Sequence[np.ndarray],
    parity_op: np.ndarray,
    odd_part: bool,
) -> list[np.ndarray]:
    """Matrices spanning the even or odd part of the supercommutant.

    An even T commutes with every operator and with the parity involution;
    an odd T satisfies T·rho(a) = (−1)^{|a|}·rho(a)·T and anticommutes with
    the parity involution.
    """
    sign = -1 if odd_part else 1
    n = parity_op.shape[0]
    rows = [_commutation_constraint(F, op, 1) for op in even_ops]
    rows += [_commutation_constraint(F, op, sign) for op in odd_ops]
    rows.append(_commutation_constraint(F, parity_op, sign))
    ker = nullspace(F, np.concatenate(rows, axis=0))
    return [vec.reshape(n, n) for vec in ker]

