"""Slow reference implementation kept as an oracle for ``verma.lambda_set``.

This is the original weight solver that ``verma.lambda_set`` replaced with
the per-coordinate Artin-Schreier solve.  It writes the whole system
lambda(h)^p - lambda(h^{[p]}) = chi(h)^p, for any Cartan p-map matrix P, as
one linear system on the GF(p)-digit coordinates of lambda over GF(p^k),
and grows k = 1, 2, ... until all p^rank solutions appear.
"""

from __future__ import annotations

import itertools

from superlie import linalg as la
from superlie.gf import field_create
from superlie.liesuper import LieSuperalgebra, PCharacter
from superlie.verma import LambdaSet, cartan_p_matrix, lambda_residual


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
