"""Slow reference implementations kept as oracles for the linalg kernels.

These are the original per-column product, the per-vector operator closure,
the loop-built kernel basis and the intersection-based graded codimensions
that ``superlie`` replaced with the int64 prime-field product, the
block-echelon closure, one fancy-index assignment and the pivot counts of
reduced echelon rows.
They use only the field's element-wise operations and ``linalg.rref``, so
they are independent of the new kernels.  The commutant is kept three times:
the entry-by-entry constraint system; the Kronecker solve in all n² entries
of T that spinning replaced, which reads its kernel with ``linalg.nullspace``
and solves either part; and the spin of e_0 in all n unknowns of u = T·e_0,
whose word matrices are n × n.  ``linalg.supercommutant_basis`` solves only
the odd part, on a module that e_0 generates, with u on the coordinates its
caller names, which ``verma.walls_type`` reads off e_0's weight space.
``rref_tables`` and ``EchelonBasisTables`` keep the elimination and the
echelon updates with every row update through the field's tables, which
prime fields replaced with updates on residues mod p.
``mod_p_remainder`` is the reduction mod p as ``np.remainder`` alone, before
large arrays were reduced by floor division.
The largest stable subspace is kept as the shrinking iteration that the
annihilator of one transposed closure replaced; it solves a new kernel with
``linalg.nullspace`` at every step and never calls the closure.  ``solve``
returns one solution of a linear system; the reference oracles call it, and
the package itself no longer needs it.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from superlie import linalg as la
from superlie.gf import Field


def matmul_loop(F: Field, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product over F, one column of ``a`` at a time."""
    a = np.asarray(a)
    b = np.asarray(b)
    n, m = a.shape
    m2, r = b.shape
    if m != m2:
        raise ValueError(f"shape mismatch {a.shape} x {b.shape}")
    out = la.zeros((n, r))
    for i in range(m):
        col = a[:, i]
        nz = np.nonzero(col)[0]
        if nz.size == 0:
            continue
        out[nz] = F.add_arr(out[nz], F.mul_arr(col[nz, None], b[i][None, :]))
    return out


def mod_p_remainder(x: np.ndarray, p: int) -> np.ndarray:
    """The exact integers of x reduced mod p, as int64, by ``np.remainder``."""
    return np.remainder(np.asarray(x).astype(np.int64), p)


def row_space_basis(F: Field, mat: np.ndarray) -> np.ndarray:
    mat = np.asarray(mat)
    if mat.size == 0:
        return la.zeros((0, mat.shape[1] if mat.ndim == 2 else 0))
    red, pivots = la.rref(F, mat)
    return red[: len(pivots)]


def in_row_space_per_row(F: Field, basis_rref: np.ndarray, v: np.ndarray) -> bool:
    """Membership by reducing ``v`` against one echelon row at a time."""
    v = np.array(v, dtype=np.int64)
    for row in basis_rref:
        nz = np.nonzero(row)[0]
        if nz.size == 0:
            continue
        c = int(nz[0])
        if v[c] != 0:
            v = F.sub_arr(v, F.smul_arr(int(v[c]), row))
    return not v.any()


def closure_per_vector(
    F: Field,
    seed_rows: np.ndarray,
    operators: Sequence[np.ndarray],
) -> np.ndarray:
    """Operator closure testing each image on its own, re-echelonising the
    basis after every accepted row."""
    basis = row_space_basis(F, np.asarray(seed_rows))
    frontier = basis
    while frontier.shape[0]:
        new_rows = []
        for op in operators:
            images = matmul_loop(F, frontier, op.T)
            for img in images:
                if img.any() and not in_row_space_per_row(F, basis, img):
                    new_rows.append(img.copy())
                    basis = row_space_basis(F, np.concatenate([basis, img[None, :]]))
        if not new_rows:
            break
        frontier = np.array(new_rows, dtype=np.int64)
    return basis


def largest_stable_subspace_shrinking(
    F: Field, ambient_rows: np.ndarray, operators: Sequence[np.ndarray]
) -> np.ndarray:
    """Largest subspace of the row-span of ambient_rows stable under all operators.

    Shrinking iteration on a basis B (rows) of the candidate space.  The rows
    of K span the functionals that vanish on the span of B, so a vector c·B
    stays in that span under op exactly when K·op·(c·B)ᵀ = 0.  Each step keeps
    the coefficient vectors c that satisfy this for every operator.  The
    dimension falls at every step until the span is stable.
    """
    basis = la.row_space_basis(F, np.asarray(ambient_rows))
    n = basis.shape[1]
    while basis.shape[0]:
        # functionals vanishing on the current span: f with basis · f = 0
        K = la.nullspace(F, basis)
        if K.shape[0] == 0:
            # span is the whole ambient coordinate space; it is stable
            return basis
        # constraints K · op · basisᵀ · c = 0 on the coefficient vector c
        blocks = [la.matmul(F, la.matmul(F, K, op), basis.T) for op in operators]
        stacked = np.concatenate([la.zeros((0, basis.shape[0])), *blocks])
        coeffs = la.nullspace(F, stacked)  # rows of coefficient vectors
        if coeffs.shape[0] == basis.shape[0]:
            return basis  # already stable
        if coeffs.shape[0] == 0:
            return la.zeros((0, n))
        basis = la.row_space_basis(F, la.matmul(F, coeffs, basis))
    return basis


def commutation_constraint_loop(F: Field, op: np.ndarray, s: int) -> np.ndarray:
    """Rows of T·op − s·op·T = 0 in the row-major flattened T, entry by entry."""
    n = op.shape[0]
    block = la.zeros((n * n, n * n))
    for i in range(n):
        for j in range(n):
            r = i * n + j
            # (T·op)_{ij} = sum_k T_{ik}·op_{kj}
            block[r, i * n : (i + 1) * n] = op[:, j]
            # −s·(op·T)_{ij} = −s·sum_k op_{ik}·T_{kj}
            idx = np.arange(n) * n + j
            contrib = F.neg_arr(op[i, :]) if s == 1 else op[i, :].copy()
            block[r, idx] = F.add_arr(block[r, idx], contrib)
    return block


def commutation_constraint(F: Field, op: np.ndarray, s: int) -> np.ndarray:
    """Rows of the linear system T·op − s·op·T = 0 in the flattened unknown T.

    T is flattened row-major, so vec(T·op) = (I ⊗ opᵀ)·vec(T) and
    vec(op·T) = (op ⊗ I)·vec(T).  The two Kronecker products share nonzero
    positions only on the diagonal, so only the diagonal needs field
    addition; elsewhere the integer sum of the codes is the field sum.
    """
    n = op.shape[0]
    ident = la.eye(n)
    scaled = F.neg_arr(op) if s == 1 else op
    block = np.kron(ident, op.T) + np.kron(scaled, ident)
    diag = np.arange(n * n)
    block[diag, diag] = F.add_arr(np.tile(op.diagonal(), n), np.repeat(scaled.diagonal(), n))
    return block


def supercommutant_kronecker(
    F: Field,
    even_ops: Sequence[np.ndarray],
    odd_ops: Sequence[np.ndarray],
    parity_op: np.ndarray,
    odd_part: bool,
) -> list[np.ndarray]:
    """Matrices spanning the even or odd part of the supercommutant, from
    one Kronecker system in all n² entries of T.

    An even T commutes with every operator and with the parity involution;
    an odd T satisfies T·rho(a) = (−1)^{|a|}·rho(a)·T and anticommutes with
    the parity involution.
    """
    sign = -1 if odd_part else 1
    n = parity_op.shape[0]
    rows = [commutation_constraint(F, op, 1) for op in even_ops]
    rows += [commutation_constraint(F, op, sign) for op in odd_ops]
    rows.append(commutation_constraint(F, parity_op, sign))
    ker = la.nullspace(F, np.concatenate(rows, axis=0))
    return [vec.reshape(n, n) for vec in ker]


def supercommutant_spin_full(F: Field, even_ops: np.ndarray, odd_ops: np.ndarray,
                             parity_op: np.ndarray) -> np.ndarray:
    """A (d, n, n) stack spanning the odd part of the supercommutant, spun
    from e_0 with u = T·e_0 free in all n coordinates: the solve that
    ``linalg.supercommutant_basis`` restricted to the coordinates T·e_0 can
    reach, whose memory grows as K·n³.

    The seed e_0 spins into a basis B = [b_i], each beside its word matrix
    M_i with T·b_i = M_i·u: where b_i = A_a·b_j, T·b_i = s_a·A_a·M_j·u.  With
    C_a = B⁻¹·A_a·B the relations read Σ_i C_a[i, j]·M_i·u = s_a·A_a·M_j·u,
    and T = [M_i·u]·B⁻¹.  A spin that stops short of n raises
    ``InvariantViolation``.
    """
    n = parity_op.shape[0]
    if n == 0:
        return la.zeros((0, 0, 0))
    stacked = np.concatenate([even_ops, odd_ops, parity_op[None]]).reshape(-1, n).astype(np.int64)
    K = stacked.shape[0] // n
    signed = np.arange(K) >= len(even_ops)  # s_a = −1
    # each spun vector b_i beside its word matrix M_i: aug[i] = [b_i | M_i]
    aug, fresh, rounds = np.concatenate([la.eye(n)[:, :1], la.eye(n)], axis=1)[None], [0], []
    while True:
        m = aug.shape[0]
        f = len(fresh)
        images = la.matmul(F, stacked, aug[fresh].transpose(1, 0, 2).reshape(n, -1)).reshape(K, n, f, -1)
        images[signed, :, :, 1:] = F.neg_arr(images[signed, :, :, 1:])
        rounds.append(images)
        if m == n:  # a last round only records the images
            break
        cand = images[:, :, :, 0].transpose(1, 0, 2).reshape(n, K * f)  # column a·f + j
        picked = np.array(la.rref(F, np.concatenate([aug[:, :, 0].T, cand], axis=1))[1][m:], dtype=int) - m
        if not picked.size:
            raise la.InvariantViolation(f"the spin of e_0 stops at dimension {m} of {n}: "
                                        "the module is not simple")
        a, j = divmod(picked, f)
        aug = np.concatenate([aug, images[a, :, j]])
        fresh = list(range(m, m + picked.size))
    spun, basis, words = np.concatenate(rounds, axis=2), aug[:, :, 0].T, aug[:, :, 1:]
    rhs = spun[:, :, :, 1:].transpose(0, 2, 1, 3)  # [a, j, row, c]
    # [B | A_a·B | I] reduces to [I | C_a | B⁻¹]
    op_basis = spun[:, :, :, 0].transpose(1, 0, 2).reshape(n, K * n)
    red = la.rref(F, np.concatenate([basis, op_basis, la.eye(n)], axis=1))[0]
    coords, inverse = red[:, n:-n].reshape(n, K, n), red[:, -n:]
    lhs = la.matmul(F, coords.transpose(1, 2, 0).reshape(K * n, n), words.reshape(n, -1))
    lhs, rhs = lhs.reshape(-1, n), rhs.reshape(-1, n)
    live = lhs.any(axis=1) | rhs.any(axis=1)  # most rows are zero on both sides
    cond = F.sub_arr(lhs[live], rhs[live])
    ker = la.nullspace(F, cond[cond.any(axis=1)])
    values = la.matmul(F, words.reshape(n * n, -1), ker.T).reshape(n, n, -1)  # [i, row, d]
    ts = la.matmul(F, values.transpose(2, 1, 0).reshape(-1, n), inverse)
    return ts.reshape(-1, n, n)


def rref_tables(F: Field, mat: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """``linalg.rref`` with every row update through the field's element-wise
    tables, as it ran before prime fields updated rows on residues mod p."""
    m = np.array(mat, dtype=np.int64)
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
        m[r] = F.smul_arr(F.inv(int(m[r, c])), m[r])
        other = np.nonzero(m[:, c])[0]
        other = other[other != r]
        if other.size:
            m[other] = F.sub_arr(m[other], F.mul_arr(m[other, c][:, None], m[r][None, :]))
        pivots.append(c)
        r += 1
    return m, pivots


class EchelonBasisTables(la.EchelonBasis):
    """``linalg.EchelonBasis`` with its reduction and its update of the old
    rows subtracted through the field's tables, and ``rref_tables`` for the
    new rows."""

    def reduce(self, block: np.ndarray) -> np.ndarray:
        block = np.asarray(block, dtype=np.int64)
        return self.F.sub_arr(block, la.matmul(self.F, block[:, self.pivots], self.rows))

    def extend(self, block: np.ndarray) -> np.ndarray:
        F = self.F
        res = self.reduce(block)
        res = res[res.any(axis=1)]
        if not res.shape[0]:
            return res
        red, piv = rref_tables(F, res)
        new = red[: len(piv)]
        old = F.sub_arr(self.rows, la.matmul(F, self.rows[:, piv], new))
        pivots = np.concatenate([self.pivots, piv])
        order = np.argsort(pivots)
        self.rows = np.concatenate([old, new])[order]
        self.pivots = pivots[order]
        return new


def solve(F: Field, mat: np.ndarray, rhs: np.ndarray) -> Optional[np.ndarray]:
    """One solution of mat x = rhs, or None if inconsistent."""
    mat = np.asarray(mat)
    rhs = np.asarray(rhs)
    aug = np.concatenate([mat, rhs[:, None]], axis=1)
    red, pivots = la.rref(F, aug)
    cols = mat.shape[1]
    if cols in pivots:
        return None
    x = la.zeros(cols)
    for r, c in enumerate(pivots):
        x[c] = red[r, cols]
    return x


def nullspace_loop(F: Field, mat: np.ndarray) -> np.ndarray:
    """Kernel basis filled one free column and one pivot at a time."""
    mat = np.asarray(mat)
    if mat.size == 0:
        return la.eye(mat.shape[1]) if mat.ndim == 2 else la.zeros((0, 0))
    red, pivots = la.rref(F, mat)
    cols = mat.shape[1]
    free = [c for c in range(cols) if c not in pivots]
    basis = la.zeros((len(free), cols))
    for i, fc in enumerate(free):
        basis[i, fc] = 1
        for r, pc in enumerate(pivots):
            basis[i, pc] = F.neg(int(red[r, fc]))
    return basis


def intersect_row_spaces(F: Field, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Basis of the intersection of two row spaces."""
    a = row_space_basis(F, np.asarray(a))
    b = row_space_basis(F, np.asarray(b))
    if a.shape[0] == 0 or b.shape[0] == 0:
        return la.zeros((0, a.shape[1]))
    # v in both spans: v = x·a = y·b  ->  [a^T | -b^T]·(x,y) = 0
    stacked = np.concatenate([a.T, F.neg_arr(b.T)], axis=1)
    ker = nullspace_loop(F, stacked)
    if ker.shape[0] == 0:
        return la.zeros((0, a.shape[1]))
    return row_space_basis(F, la.matmul(F, ker[:, : a.shape[0]], a))


def graded_codims_intersect(F: Field, parities: np.ndarray,
                            ideal_rows: np.ndarray) -> tuple[int, int, int]:
    """(even, odd, total) codimensions from the intersections of the subspace
    with the even and the odd coordinate subspaces."""
    n = parities.size
    even_idx = np.nonzero(parities == 0)[0]
    odd_idx = np.nonzero(parities == 1)[0]
    if ideal_rows.shape[0] == 0:
        return even_idx.size, odd_idx.size, n
    even_part = intersect_row_spaces(F, ideal_rows, la.eye(n)[even_idx])
    odd_part = intersect_row_spaces(F, ideal_rows, la.eye(n)[odd_idx])
    c0 = even_idx.size - even_part.shape[0]
    c1 = odd_idx.size - odd_part.shape[0]
    total = n - la.rank(F, ideal_rows)
    if c0 + c1 != total:
        raise RuntimeError("subspace is not graded")
    return c0, c1, total
