"""Reduced enveloping and symmetric superalgebras, and the family joining them.

For a restricted Lie superalgebra g with p-character xi, the two-parameter
family U_{xi,lam} is generated by a copy of g subject to

    x y - (-1)^{|x||y|} y x = lam [x, y]
    x^p  = lam^{p-1} x^{[p]} + xi(x)^p      (x even)
    y^2  = (lam/2) [y, y]                   (y odd)

so lam = 1 gives the reduced enveloping algebra U_xi and lam = 0 the reduced
symmetric algebra S_xi.  Elements are stored in the PBW basis determined by a
chosen total order on the basis of g: even exponents below p, odd exponents
below 2.  All products are straightened through a memoized rewriting engine.
"""

from __future__ import annotations

import itertools
import sys
from typing import Optional, Sequence

import numpy as np

from . import linalg as la
from .liesuper import LieSuperalgebra, PCharacter

_MATRIX_DIM_CAP = 4096

if sys.getrecursionlimit() < 50000:
    sys.setrecursionlimit(50000)


class DeformedAlgebra:
    """U_{xi,lam}(g) in a PBW basis over a chosen ordering of g's basis."""

    def __init__(
        self,
        g: LieSuperalgebra,
        xi: Optional[PCharacter] = None,
        lam: int = 1,
        order: Optional[Sequence[int]] = None,
    ):
        self.g = g
        self.F = g.F
        self.p = g.p
        if xi is None:
            xi = g.chi_zero()
        if xi.g is not g:
            raise ValueError("xi belongs to a different algebra instance")
        self.xi = xi
        self.lam = int(lam) % self.F.q
        if order is None:
            order = list(range(g.dim))
        if sorted(order) != list(range(g.dim)):
            raise ValueError("order must be a permutation of the basis indices")
        self.order = tuple(order)
        self.slot_of = [0] * g.dim
        for s, b in enumerate(self.order):
            self.slot_of[b] = s
        self.slot_parity = tuple(int(g.parities[b]) for b in self.order)
        self.slot_cap = tuple(2 if par else self.p for par in self.slot_parity)
        self.n_slots = g.dim
        self._memo: dict = {}
        self._xi_p = [self.F.pow_int(int(xi.values[b]), self.p) for b in range(g.dim)]
        self._half_lam = self.F.div(self.lam, 2 % self.p)
        self._lam_pm1 = self.F.pow_int(self.lam, self.p - 1)

    # -- element helpers -------------------------------------------------------

    def one(self) -> dict:
        return {(0,) * self.n_slots: 1}

    def gen(self, basis_idx: int) -> dict:
        m = [0] * self.n_slots
        m[self.slot_of[basis_idx]] = 1
        return {tuple(m): 1}

    def scale(self, c: int, a: dict) -> dict:
        c = int(c) % self.F.q
        if c == 0:
            return {}
        F = self.F
        return {m: F.mul(c, v) for m, v in a.items()}

    def add(self, a: dict, b: dict) -> dict:
        out = dict(a)
        self._accum(out, b, 1)
        return out

    def sub(self, a: dict, b: dict) -> dict:
        out = dict(a)
        self._accum(out, b, self.F.neg(1))
        return out

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

    def equal(self, a: dict, b: dict) -> bool:
        return self.sub(a, b) == {}

    def monomial_parity(self, m: tuple) -> int:
        par = 0
        for s, e in enumerate(m):
            if e and self.slot_parity[s]:
                par ^= e & 1
        return par

    def degree(self, m: tuple) -> int:
        return int(sum(m))

    # -- straightening core ----------------------------------------------------

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
            cap = self.slot_cap[s]
            if e + 1 < cap:
                lst = list(m)
                lst[s] += 1
                out[tuple(lst)] = 1
            elif self.slot_parity[s]:
                # odd square: x^2 = (lam/2) [x, x]
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
                # even p-th power: x^p = lam^{p-1} x^{[p]} + xi(x)^p
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
            # peel the rightmost letter x_j past x_s
            j = t
            lst = list(m)
            lst[j] -= 1
            m1 = tuple(lst)
            bj, bs = self.order[j], self.order[s]
            sign_neg = self.slot_parity[j] and self.slot_parity[s]
            a = self._mul_mono_slot(m1, s)
            for mono, c in a.items():
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
        """a * x_b for a basis generator."""
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

    def multiply(self, a: dict, b: dict) -> dict:
        out: dict = {}
        for m, c in b.items():
            part = a
            for s in self._letters(m):
                nxt: dict = {}
                for mono, v in part.items():
                    self._accum(nxt, self._mul_mono_slot(mono, s), v)
                part = nxt
            self._accum(out, part, c)
        return out

    # -- g-action by superderivations -----------------------------------------

    def act(self, basis_idx: int, a: dict) -> dict:
        """x . u = sum over letter positions of u with [x, letter] substituted."""
        F = self.F
        px = int(self.g.parities[basis_idx])
        out: dict = {}
        for m, c in a.items():
            letters = self._letters(m)
            for i in range(len(letters)):
                sign = 1
                if px:
                    pref_par = sum(self.slot_parity[s] for s in letters[:i]) & 1
                    if pref_par:
                        sign = -1
                br = self.g.bracket_tensor[basis_idx, self.order[letters[i]]]
                nz = np.nonzero(br)[0]
                if nz.size == 0:
                    continue
                prefix = [0] * self.n_slots
                for s in letters[:i]:
                    prefix[s] += 1
                for k in nz:
                    coeff = F.mul(c, int(br[k]))
                    if sign == -1:
                        coeff = F.neg(coeff)
                    term = self.mul_by_gen({tuple(prefix): coeff}, int(k))
                    for s in letters[i + 1:]:
                        term = self._fold_letter(term, s)
                    self._accum(out, term, 1)
        return out

    def _fold_letter(self, a: dict, s: int) -> dict:
        out: dict = {}
        for mono, v in a.items():
            self._accum(out, self._mul_mono_slot(mono, s), v)
        return out

    # -- basis enumeration and operator matrices -------------------------------

    def dimension(self) -> int:
        d = 1
        for cap in self.slot_cap:
            d *= cap
        return d

    def basis_monomials(self) -> list[tuple]:
        dim = self.dimension()
        if dim > _MATRIX_DIM_CAP:
            raise ValueError(
                f"dimension {dim} exceeds the dense-basis cap {_MATRIX_DIM_CAP}"
            )
        ranges = [range(cap) for cap in self.slot_cap]
        return [tuple(m) for m in itertools.product(*ranges)]

    def monomial_index(self) -> dict:
        return {m: i for i, m in enumerate(self.basis_monomials())}

    def _op_matrix(self, fn, index: dict) -> np.ndarray:
        n = len(index)
        mat = la.zeros((n, n))
        for m, i in index.items():
            out = fn({m: 1})
            for mono, c in out.items():
                mat[index[mono], i] = c
        return mat

    def left_mult_matrix(self, basis_idx: int, index: dict) -> np.ndarray:
        gen = self.gen(basis_idx)
        return self._op_matrix(lambda el: self.multiply(gen, el), index)

    def right_mult_matrix(self, basis_idx: int, index: dict) -> np.ndarray:
        return self._op_matrix(lambda el: self.mul_by_gen(el, basis_idx), index)

    def action_matrix(self, basis_idx: int, index: dict) -> np.ndarray:
        return self._op_matrix(lambda el: self.act(basis_idx, el), index)

    def parity_matrix(self, index: dict) -> np.ndarray:
        n = len(index)
        mat = la.zeros((n, n))
        one = 1
        minus = self.F.neg(1)
        for m, i in index.items():
            mat[i, i] = minus if self.monomial_parity(m) else one
        return mat

    def describe(self) -> dict:
        return {
            "algebra": self.g.label,
            "p": self.p,
            "lam": self.lam,
            "xi": self.xi.describe(),
            "dimension": self.dimension(),
        }


def reduced_enveloping(g: LieSuperalgebra, chi: Optional[PCharacter] = None,
                       order: Optional[Sequence[int]] = None) -> DeformedAlgebra:
    return DeformedAlgebra(g, chi, lam=1, order=order)


def reduced_symmetric(g: LieSuperalgebra, chi: Optional[PCharacter] = None,
                      order: Optional[Sequence[int]] = None) -> DeformedAlgebra:
    return DeformedAlgebra(g, chi, lam=0, order=order)


def theta_map(src: DeformedAlgebra, t: int) -> tuple[DeformedAlgebra, "ThetaMap"]:
    """The rescaling isomorphism U_{xi,lam} -> U_{t xi, t lam}, x |-> t^{-1} x."""
    F = src.F
    t = int(t) % F.q
    if t == 0:
        raise ValueError("theta needs invertible t")
    dst = DeformedAlgebra(src.g, src.xi.scale(t), F.mul(t, src.lam), order=list(src.order))
    return dst, ThetaMap(src, dst, t)


class ThetaMap:
    """Basis map e^(a) |-> t^(-deg a) e^(a) between two members of the family."""

    def __init__(self, src: DeformedAlgebra, dst: DeformedAlgebra, t: int):
        self.src = src
        self.dst = dst
        self.t = t
        self._tinv = src.F.inv(t)

    def apply(self, a: dict) -> dict:
        F = self.src.F
        out: dict = {}
        for m, c in a.items():
            scale = F.pow_int(self._tinv, self.src.degree(m))
            dst_c = F.mul(c, scale)
            if dst_c:
                out[m] = dst_c
        return out

    def verify(self, rng: Optional[np.random.Generator] = None, samples: int = 20) -> dict:
        """Check that the map is an algebra isomorphism on generators and samples."""
        src, dst, F = self.src, self.dst, self.src.F
        report = {"generator_products": True, "p_powers": True, "random_products": True}
        for i in range(src.g.dim):
            gi = src.gen(i)
            for j in range(src.g.dim):
                gj = src.gen(j)
                lhs = self.apply(src.multiply(gi, gj))
                rhs = dst.multiply(self.apply(gi), self.apply(gj))
                if not dst.equal(lhs, rhs):
                    report["generator_products"] = False
        for i in range(src.g.dim):
            gi = src.gen(i)
            power_src = src.one()
            power_dst = dst.one()
            img = self.apply(gi)
            for _ in range(src.p):
                power_src = src.multiply(power_src, gi)
                power_dst = dst.multiply(power_dst, img)
            if not dst.equal(self.apply(power_src), power_dst):
                report["p_powers"] = False
        if rng is None:
            rng = np.random.default_rng(0)
        for _ in range(samples):
            a = _random_element(src, rng, terms=3)
            b = _random_element(src, rng, terms=3)
            lhs = self.apply(src.multiply(a, b))
            rhs = dst.multiply(self.apply(a), self.apply(b))
            if not dst.equal(lhs, rhs):
                report["random_products"] = False
        report["passed"] = all(report.values())
        return report


def _random_element(alg: DeformedAlgebra, rng: np.random.Generator, terms: int = 3) -> dict:
    out: dict = {}
    for _ in range(terms):
        m = tuple(int(rng.integers(0, cap)) for cap in alg.slot_cap)
        c = int(rng.integers(0, alg.F.q))
        if c:
            alg._accum(out, {m: 1}, c)
    return out
