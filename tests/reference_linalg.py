"""Slow reference implementations kept as oracles for the linalg kernels.

These are the original per-column product and the per-vector operator
closure that ``superlie.linalg`` replaced with the int64 prime-field product
and the block-echelon closure.  They use only the field's element-wise
operations and ``linalg.rref``, so they are independent of the new kernels.
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
    dim_cap: Optional[int] = None,
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
        if dim_cap is not None and basis.shape[0] >= dim_cap:
            break
    return basis
