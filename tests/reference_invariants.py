"""The dictionary algebra F(g, q) kept as the oracle for ``superlie.invariants``.

This is how ``CoinducedAlgebra`` multiplied and acted before its operator
stack was read off tables: functionals are dicts {coset exponents: coeff},
a product evaluates both factors on the coproduct of every basis monomial
again, and the g-action evaluates f on e·x straightened by the tuple-keyed
reference engine of ``reference_envelope``.  It shares with the package
only the coproduct, the coset basis and ``CoinducedAlgebra.evaluate``.
"""

from __future__ import annotations

import math

from superlie import linalg as la
from superlie.invariants import CoinducedAlgebra, comultiply_monomial

from reference_envelope import ReferenceAlgebra


class ReferenceCoinduced:
    """F(g, q) of a ``CoinducedAlgebra`` on dicts, one product at a time."""

    def __init__(self, C: CoinducedAlgebra):
        self.C = C
        self.F = C.F
        self.R = ReferenceAlgebra(C.g, C.g.chi_zero(), lam=1, order=C.U.order)
        self._norms = [self._norm(b) for b in C.basis]
        self._parities = [self._parity(b) for b in C.basis]

    def _norm(self, coset_exps: tuple) -> int:
        total = 1
        for e in coset_exps:
            total = (total * math.factorial(e)) % self.C.g.p
        return total % self.F.q

    def _parity(self, coset_exps: tuple) -> int:
        par = 0
        for s, e in zip(self.C.coset_slots, coset_exps):
            if e and self.R.slot_parity[s]:
                par ^= e & 1
        return par

    def dual_basis_element(self, coset_exps: tuple) -> dict:
        return {tuple(coset_exps): 1}

    def _homogeneous_parts(self, f: dict) -> list[tuple[int, dict]]:
        C = self.C
        parts: dict = {0: {}, 1: {}}
        for b, c in f.items():
            parts[self._parities[C.index[b]]][b] = c
        return [(par, el) for par, el in parts.items() if el]

    def _put(self, out: dict, e: tuple, val: int) -> None:
        """out[e] += val / N_e, dropping zeros."""
        F = self.F
        coeff = F.div(val, self._norms[self.C.index[e]])
        cur = out.get(e)
        nv = F.add(cur, coeff) if cur is not None else coeff
        if nv:
            out[e] = nv
        elif cur is not None:
            del out[e]

    def multiply(self, f1: dict, f2: dict) -> dict:
        C, F = self.C, self.F
        out: dict = {}
        for par2, g2 in self._homogeneous_parts(f2):
            for _, g1 in self._homogeneous_parts(f1):
                for e in C.basis:
                    val = 0
                    for (m1, m2), c in comultiply_monomial(C.U, C.full_monomial(e)).items():
                        v1 = C.evaluate(g1, {m1: 1})
                        if not v1:
                            continue
                        v2 = C.evaluate(g2, {m2: 1})
                        if not v2:
                            continue
                        term = F.mul(c, F.mul(v1, v2))
                        if par2 and C.U.monomial_parity(m1):
                            term = F.neg(term)
                        val = F.add(val, term)
                    if val:
                        self._put(out, e, val)
        return out

    def act(self, basis_idx: int, f: dict) -> dict:
        """(x . f)(e) = (-1)^{|x|(|f| + |e|)} f(e x)."""
        C, F = self.C, self.F
        px = int(C.g.parities[basis_idx])
        out: dict = {}
        for parf, part in self._homogeneous_parts(f):
            for e in C.basis:
                shifted = self.R.mul_by_gen({C.full_monomial(e): 1}, basis_idx)
                val = C.evaluate(part, shifted)
                if not val:
                    continue
                if px and (parf ^ self._parities[C.index[e]]):
                    val = F.neg(val)
                self._put(out, e, val)
        return out

    def operator_stack(self):
        """The (n + dim g + 1, n, n) stack of ``CoinducedAlgebra.operator_model``:
        multiplications by f_a, the g-action, then sigma."""
        C, F = self.C, self.F
        n, d = len(C.basis), C.g.dim
        duals = [self.dual_basis_element(b) for b in C.basis]
        ops = la.zeros((n + d + 1, n, n))
        for k in range(n + d):
            for j, f in enumerate(duals):
                out = self.multiply(duals[k], f) if k < n else self.act(k - n, f)
                for bb, c in out.items():
                    ops[k, C.index[bb], j] = c
        for j, par in enumerate(self._parities):
            ops[-1, j, j] = F.neg(1) if par else 1
        return ops
