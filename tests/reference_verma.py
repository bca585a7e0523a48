"""Slow reference implementations and cross-checks for ``verma``.

``lambda_set_scan`` is the original weight solver that ``verma.lambda_set``
replaced with the per-coordinate Artin-Schreier solve.  It writes the whole
system lambda(h)^p - lambda(h^{[p]}) = chi(h)^p, for any Cartan p-map matrix
P, as one linear system on the GF(p)-digit coordinates of lambda over
GF(p^k), and grows k = 1, 2, ... until all p^rank solutions appear.

The other functions check a baby Verma module from outside the pipeline:
its defining relations on the action matrices, the simplicity of its head,
its maximal submodule by brute force, and a module of Walls type Q built by
gluing a module to its parity shift.
"""

from __future__ import annotations

import itertools
from typing import Optional, Sequence

import numpy as np

from superlie import linalg as la
from superlie.gf import Field, field_create
from superlie.liesuper import LieSuperalgebra, PCharacter
from superlie.verma import BabyVerma, LambdaSet, cartan_p_matrix, lambda_residual
from tooling import random_codes


def lambda_set_scan(g: LieSuperalgebra, chi: PCharacter, k_max: int = 8) -> LambdaSet:
    """Solve the weight equations, extending GF(p) until all p^rank appear."""
    if g.F.k != 1:
        raise ValueError("lambda solving expects the algebra over the prime field")
    p, r = g.p, g.rank
    P = cartan_p_matrix(g)
    chi_h = [int(v) for v in chi.cartan_values()]
    Fp = field_create(p, 1)
    for k in range(1, k_max + 1):
        F = g.F if k == 1 else field_create(p, k)
        n = r * k
        M = la.zeros((n, n))
        rhs = la.zeros(n)
        for j in range(r):
            for d in range(k):
                col = j * k + d
                e = p ** d  # code of the d-th power-basis element
                fr = F.frob(e)
                for dd, dig in enumerate(F._digit_tuples[fr]):
                    M[j * k + dd, col] = (M[j * k + dd, col] + dig) % p
                for i in range(r):
                    c = int(P[i, j])
                    if c:
                        prod = F.mul(c, e)
                        for dd, dig in enumerate(F._digit_tuples[prod]):
                            M[i * k + dd, col] = (M[i * k + dd, col] - dig) % p
        for i in range(r):
            cp = F.pow_int(chi_h[i], p)
            for dd, dig in enumerate(F._digit_tuples[cp]):
                rhs[i * k + dd] = dig
        part = la.solve(Fp, M, rhs)
        if part is None:
            continue
        ker = la.nullspace(Fp, M)
        if ker.shape[0] != r:
            continue
        weights = []
        for combo in itertools.product(range(p), repeat=ker.shape[0]):
            digits = part.copy()
            for c, row in zip(combo, ker):
                if c:
                    digits = (digits + c * row) % p
            weights.append(tuple(
                int(sum(int(digits[i * k + d]) * p ** d for d in range(k)))
                for i in range(r)
            ))
        weights = sorted(set(weights))
        if len(weights) != p ** r:
            raise RuntimeError("weight enumeration lost solutions")
        for lam in weights:
            if any(lambda_residual(g, F, lam, chi_h, P)):
                raise RuntimeError("weight fails its defining equation")
        return LambdaSet(g, chi, F, weights)
    raise RuntimeError(
        f"no full weight set within extension degree {k_max}; raise k_max"
    )


def verify_relations(Z: BabyVerma) -> dict:
    """Bracket and p-th power relations on the action matrices of Z."""
    g, F = Z.g, Z.F
    failures = []
    mats = Z.all_action_matrices()
    for i in range(g.dim):
        for j in range(g.dim):
            lhs = la.zeros((Z.dim, Z.dim))
            for t in np.nonzero(g.bracket_tensor[i, j])[0]:
                lhs = F.add_arr(lhs, F.smul_arr(int(g.bracket_tensor[i, j][t]), mats[t]))
            rhs = la.matmul(F, mats[i], mats[j])
            other = la.matmul(F, mats[j], mats[i])
            if g.parities[i] and g.parities[j]:
                rhs = F.add_arr(rhs, other)
            else:
                rhs = F.sub_arr(rhs, other)
            if not (lhs == rhs).all():
                failures.append(f"bracket({i},{j})")
    for i in range(g.dim):
        if g.parities[i] == 0:
            powm = la.eye(Z.dim)
            for _ in range(g.p):
                powm = la.matmul(F, powm, mats[i])
            target = la.zeros((Z.dim, Z.dim))
            for t in np.nonzero(g.p_map[i])[0]:
                target = F.add_arr(target, F.smul_arr(int(g.p_map[i][t]), mats[t]))
            cst = F.pow_int(int(Z.chi.values[i]), g.p)
            target = F.add_arr(target, F.smul_arr(cst, la.eye(Z.dim)))
            if not (powm == target).all():
                failures.append(f"p-power({i})")
    return {"passed": not failures, "failures": failures[:10]}


def certify_head(Z: BabyVerma, rng: Optional[np.random.Generator] = None,
                 samples: int = 3) -> bool:
    """Spanning closure of every quotient basis vector (and random vectors)
    regenerates the full head, certifying its simplicity."""
    F = Z.F
    mats, _, _ = Z.quotient_representation()
    hdim = mats[0].shape[0]
    probes = [np.eye(hdim, dtype=np.int64)[i] for i in range(hdim)]
    if rng is not None:
        for _ in range(samples):
            v = random_codes(F, rng, hdim)
            if v.any():
                probes.append(v)
    for v in probes:
        closed = la.closure_under_operators(F, v[None, :], mats, dim_cap=hdim)
        if closed.shape[0] != hdim:
            return False
    return True


def exhaustive_max_submodule(Z: BabyVerma, cap: int = 300000) -> np.ndarray:
    """Brute-force cross-check: the span of all proper cyclic submodules.

    Enumerates every vector of the module (so only feasible when q^dim is
    small) and closes each; the union span of the proper closures must be
    the unique maximal submodule.
    """
    F = Z.F
    total = F.q ** Z.dim
    if total > cap:
        raise ValueError(f"state space {total} exceeds cap {cap}")
    rows = la.zeros((0, Z.dim))
    for code in range(1, total):
        vec = la.zeros(Z.dim)
        c = code
        for i in range(Z.dim):
            vec[i] = c % F.q
            c //= F.q
        closed = Z.submodule_closure(vec[None, :])
        if closed.shape[0] < Z.dim:
            rows = la.row_space_basis(F, np.concatenate([rows, closed]))
    return rows


def parity_shift_glue(F: Field, action_matrices: Sequence[np.ndarray],
                      parity_op: np.ndarray, parities: Sequence[int]):
    """A module glued to its parity shift; carries a designed odd symmetry.

    The shifted copy negates the odd action matrices, so the swap of the
    two copies is an odd endomorphism and the glued module has type Q.
    """
    n = parity_op.shape[0]
    glued = []
    for m, pr in zip(action_matrices, parities):
        b = la.zeros((2 * n, 2 * n))
        b[:n, :n] = m
        b[n:, n:] = F.neg_arr(m) if pr else m
        glued.append(b)
    gp = la.zeros((2 * n, 2 * n))
    gp[:n, :n] = parity_op
    gp[n:, n:] = F.neg_arr(parity_op)
    return glued, gp
