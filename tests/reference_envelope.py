"""Tuple-keyed PBW straightening kept as the oracle for ``superlie.envelope``.

This is the engine ``DeformedAlgebra`` used before it moved to integer PBW
indices: monomials are exponent tuples, the memo is keyed by
``(monomial, slot)``, every coefficient goes through the field's scalar
``mul``/``add``, and the structure constants are read from the algebra's
tensors at each step.  It shares no code with the indexed engine, so equal
products from the two are an independent check.

``multiply_per_monomial`` folds a through every monomial of b on its own,
letter by letter, with the indexed engine's one-letter fold: it groups none
of b's monomials, so it is the oracle for the engine's Horner's rule, which
sums the monomials that end in the same letter before folding through it.
"""

from __future__ import annotations

import itertools
from typing import Optional, Sequence

import numpy as np

from superlie import linalg as la
from superlie.envelope import DeformedAlgebra
from superlie.liesuper import LieSuperalgebra, PCharacter


def multiply_per_monomial(U: DeformedAlgebra, a: dict, b: dict) -> dict:
    """a * b in U, for elements keyed by PBW index, folding a separately
    through each monomial of b, letter by letter, with U's one-letter fold
    ``_fold``."""
    out: dict = {}
    for m, c in b.items():
        letters = [s for s, e in enumerate(U._exponents(m)) for _ in range(e)]
        if not letters:
            U._accum(out, a, c)
            continue
        part = a
        for s in letters[:-1]:
            part = U._fold(part.items(), s, {})
        U._fold(part.items(), letters[-1], out, c)
    return out


class ReferenceAlgebra:
    """U_{xi,lam}(g) in a PBW basis, straightened on exponent tuples."""

    def __init__(self, g: LieSuperalgebra, xi: Optional[PCharacter] = None,
                 lam: int = 1, order: Optional[Sequence[int]] = None):
        self.g = g
        self.F = g.F
        self.p = g.p
        self.xi = g.chi_zero() if xi is None else xi
        self.lam = int(lam) % self.F.q
        self.order = tuple(range(g.dim) if order is None else order)
        self.slot_of = [0] * g.dim
        for s, b in enumerate(self.order):
            self.slot_of[b] = s
        self.slot_parity = tuple(int(g.parities[b]) for b in self.order)
        self.slot_cap = tuple(2 if par else self.p for par in self.slot_parity)
        self.n_slots = g.dim
        self._memo: dict = {}
        self._xi_p = [self.F.pow_int(int(self.xi.values[b]), self.p) for b in range(g.dim)]
        self._half_lam = self.F.div(self.lam, 2 % self.p)
        self._lam_pm1 = self.F.pow_int(self.lam, self.p - 1)

    def one(self) -> dict:
        return {(0,) * self.n_slots: 1}

    def gen(self, basis_idx: int) -> dict:
        m = [0] * self.n_slots
        m[self.slot_of[basis_idx]] = 1
        return {tuple(m): 1}

    def _accum(self, out: dict, src: dict, coeff: int) -> None:
        F = self.F
        for m, v in src.items():
            c = F.mul(coeff, v) if coeff != 1 else v
            cur = out.get(m)
            new = F.add(cur, c) if cur is not None else c
            if new:
                out[m] = new
            elif cur is not None:
                del out[m]

    def _mul_mono_slot(self, m: tuple, s: int) -> dict:
        """Right-multiply the PBW monomial m by the generator in engine slot s."""
        key = (m, s)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        F = self.F
        t = -1
        for i in range(self.n_slots - 1, -1, -1):
            if m[i]:
                t = i
                break
        out: dict = {}
        if t <= s:
            e = m[s]
            if e + 1 < self.slot_cap[s]:
                lst = list(m)
                lst[s] += 1
                out[tuple(lst)] = 1
            elif self.slot_parity[s]:
                lst = list(m)
                lst[s] = 0
                m1 = tuple(lst)
                b = self.order[s]
                if self._half_lam:
                    br = self.g.bracket_tensor[b, b]
                    for k in np.nonzero(br)[0]:
                        c = F.mul(self._half_lam, int(br[k]))
                        self._accum(out, self._mul_mono_slot(m1, self.slot_of[int(k)]), c)
            else:
                lst = list(m)
                lst[s] = 0
                m2 = tuple(lst)
                b = self.order[s]
                if self._lam_pm1:
                    for k in np.nonzero(self.g.p_map[b])[0]:
                        c = F.mul(self._lam_pm1, int(self.g.p_map[b][k]))
                        self._accum(out, self._mul_mono_slot(m2, self.slot_of[int(k)]), c)
                if self._xi_p[b]:
                    self._accum(out, {m2: 1}, self._xi_p[b])
        else:
            j = t
            lst = list(m)
            lst[j] -= 1
            m1 = tuple(lst)
            bj, bs = self.order[j], self.order[s]
            sign_neg = self.slot_parity[j] and self.slot_parity[s]
            for mono, c in self._mul_mono_slot(m1, s).items():
                cc = F.neg(c) if sign_neg else c
                self._accum(out, self._mul_mono_slot(mono, j), cc)
            if self.lam:
                br = self.g.bracket_tensor[bj, bs]
                for k in np.nonzero(br)[0]:
                    c = F.mul(self.lam, int(br[k]))
                    self._accum(out, self._mul_mono_slot(m1, self.slot_of[int(k)]), c)
        self._memo[key] = out
        return out

    def mul_by_gen(self, a: dict, basis_idx: int) -> dict:
        s = self.slot_of[basis_idx]
        out: dict = {}
        for m, c in a.items():
            self._accum(out, self._mul_mono_slot(m, s), c)
        return out

    def _letters(self, m: tuple) -> list[int]:
        out = []
        for s, e in enumerate(m):
            out.extend([s] * e)
        return out

    def _fold_letter(self, a: dict, s: int) -> dict:
        out: dict = {}
        for mono, v in a.items():
            self._accum(out, self._mul_mono_slot(mono, s), v)
        return out

    def multiply(self, a: dict, b: dict) -> dict:
        out: dict = {}
        for m, c in b.items():
            part = a
            for s in self._letters(m):
                part = self._fold_letter(part, s)
            self._accum(out, part, c)
        return out

    def act(self, basis_idx: int, a: dict) -> dict:
        """x . u = sum over letter positions of u with [x, letter] substituted."""
        F = self.F
        px = int(self.g.parities[basis_idx])
        out: dict = {}
        for m, c in a.items():
            letters = self._letters(m)
            for i in range(len(letters)):
                sign = 1
                if px and sum(self.slot_parity[s] for s in letters[:i]) & 1:
                    sign = -1
                br = self.g.bracket_tensor[basis_idx, self.order[letters[i]]]
                prefix = [0] * self.n_slots
                for s in letters[:i]:
                    prefix[s] += 1
                for k in np.nonzero(br)[0]:
                    coeff = F.mul(c, int(br[k]))
                    if sign == -1:
                        coeff = F.neg(coeff)
                    term = self.mul_by_gen({tuple(prefix): coeff}, int(k))
                    for s in letters[i + 1:]:
                        term = self._fold_letter(term, s)
                    self._accum(out, term, 1)
        return out

    def basis_monomials(self) -> list[tuple]:
        return [tuple(m) for m in itertools.product(*[range(c) for c in self.slot_cap])]

    def _op_matrix(self, fn) -> np.ndarray:
        index = {m: i for i, m in enumerate(self.basis_monomials())}
        mat = la.zeros((len(index), len(index)))
        for m, i in index.items():
            for mono, c in fn({m: 1}).items():
                mat[index[mono], i] = c
        return mat

    def left_mult_matrix(self, basis_idx: int) -> np.ndarray:
        gen = self.gen(basis_idx)
        return self._op_matrix(lambda el: self.multiply(gen, el))

    def right_mult_matrix(self, basis_idx: int) -> np.ndarray:
        return self._op_matrix(lambda el: self.mul_by_gen(el, basis_idx))

    def action_matrix(self, basis_idx: int) -> np.ndarray:
        return self._op_matrix(lambda el: self.act(basis_idx, el))
