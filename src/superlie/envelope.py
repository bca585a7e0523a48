"""Reduced enveloping and symmetric superalgebras, and the family joining them.

For a restricted Lie superalgebra g with p-character xi, the two-parameter
family U_{xi,lam} is generated by a copy of g subject to

    x y - (-1)^{|x||y|} y x = lam [x, y]
    x^p  = lam^{p-1} x^{[p]} + xi(x)^p      (x even)
    y^2  = (lam/2) [y, y]                   (y odd)

so lam = 1 gives the reduced enveloping algebra U_xi and lam = 0 the reduced
symmetric algebra S_xi.  Elements are stored in the PBW basis determined by a
chosen total order on the basis of g: even exponents below p, odd exponents
below 2.  An element is a dict {PBW index: coeff}, where a monomial's index is
its mixed-radix number, slot n-1 least significant, and so its position in
``basis_monomials()``; ``_exponents`` reads a monomial's exponents off it.

The straightening engine works on these integers.  The memo is one row table
per generator slot: ``_memo[s][m]`` is the product of monomial m with the
generator in slot s, as a tuple of (index, coeff) pairs, which for the common
one-term row takes under half the memory of a dict; it is filled recursively
the first time a product is asked for.  A row folds the defining relations it
needs inline, from lists of (slot, code) pairs: lam [x_j, x_s] per pair of
slots, and each slot's odd square or p-th power relation.

A product a * b uses Horner's rule on b's last letters: a * b = b(1) a +
sum_j (a * b_j) x_j, where b_j holds b's monomials ending in x_j, less that
letter, so a sum of monomials that end alike is folded through x_j once.
"""

from __future__ import annotations

import functools
import itertools
from typing import Optional, Sequence

import numpy as np

from . import linalg as la
from .liesuper import LieSuperalgebra, PCharacter

_MATRIX_DIM_CAP = 4096


class _OpTable:
    """A field operation shaped as a scalar table: table[a][b] == op(a, b)."""

    def __init__(self, op, a: Optional[int] = None):
        self.op, self.a = op, a

    def __getitem__(self, i: int):
        return _OpTable(self.op, i) if self.a is None else self.op(self.a, i)


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
        F = self.F = g.F
        self.p = g.p
        if xi is None:
            xi = g.chi_zero()
        if xi.g is not g:
            raise ValueError("xi belongs to a different algebra instance")
        self.xi = xi
        self.lam = int(lam) % F.q
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
        n = self.n_slots = g.dim
        self._memo: list[dict[int, tuple]] = [{} for _ in range(n)]
        self._degree: dict[int, int] = {}  # PBW degree of each index a ThetaMap scaled
        # the weight of slot s in a monomial's index
        self._weight = [1] * n
        for s in range(n - 2, -1, -1):
            self._weight[s] = self._weight[s + 1] * self.slot_cap[s + 1]
        # scalar tables when the field has them, else the field's own add/mul
        if F._add_l is not None:
            self._add_l, self._mul_l = F._add_l, F._mul_l
        else:
            self._add_l, self._mul_l = _OpTable(F.add), _OpTable(F.mul)
        self._neg_l = F._neg_l
        # _bracket[b][s]: [x_b, generator in slot s] as (slot, code) pairs
        self._bracket = [[[] for _ in range(n)] for _ in range(g.dim)]
        for b, c, k in zip(*np.nonzero(g.bracket_tensor)):
            self._bracket[b][self.slot_of[c]].append(
                (self.slot_of[k], int(g.bracket_tensor[b, c, k])))
        # _lam_bracket[j][s]: lam [generator in slot j, generator in slot s]
        self._lam_bracket = [[[(k, self._mul_l[self.lam][c]) for k, c in self._bracket[b][s]]
                              if self.lam else [] for s in range(n)] for b in self.order]
        # _top[s]: the generator in slot s raised to its cap, as (slot, coeff)
        # terms of degree one, and _top_const[s] its constant term
        half_lam = F.div(self.lam, 2 % self.p)
        lam_pm1 = F.pow_int(self.lam, self.p - 1)
        self._top = []
        for s, b in enumerate(self.order):
            if self.slot_parity[s]:
                terms = [(k, F.mul(half_lam, c)) for k, c in self._bracket[b][s]]
            else:
                terms = [(self.slot_of[k], F.mul(lam_pm1, int(g.p_map[b, k])))
                         for k in np.nonzero(g.p_map[b])[0]]
            self._top.append([(k, c) for k, c in terms if c])
        # xi vanishes on the odd part, so odd slots get no constant
        self._top_const = [F.pow_int(int(xi.values[b]), self.p) for b in self.order]

    # -- element helpers -------------------------------------------------------

    def one(self) -> dict:
        return {0: 1}

    def gen(self, basis_idx: int) -> dict:
        return {self._weight[self.slot_of[basis_idx]]: 1}

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
        """a == b: no element the engine builds holds a zero coefficient."""
        return a == b

    def monomial_parity(self, m: tuple) -> int:
        par = 0
        for s, e in enumerate(m):
            if e and self.slot_parity[s]:
                par ^= e & 1
        return par

    # -- PBW indices -----------------------------------------------------------

    def _exponents(self, idx: int) -> tuple:
        m = [0] * self.n_slots
        for s in range(self.n_slots - 1, -1, -1):
            idx, m[s] = divmod(idx, self.slot_cap[s])
        return tuple(m)

    # -- straightening core ----------------------------------------------------

    def _fold(self, terms, s: int, out: dict, coeff: int = 1) -> dict:
        """out += coeff * (sum of the (index, coeff) terms) * x_s; returns out."""
        memo, mul_l, add_l = self._memo[s], self._mul_l, self._add_l
        get = out.get
        row_c = mul_l[coeff]
        for mono, v in terms:
            row = memo.get(mono)
            if row is None:
                row = self._mul_mono_slot(mono, s)
            row_v = mul_l[row_c[v]]
            for m2, w in row:
                # the term is nonzero, so a zero sum means m2 was already in out
                w = add_l[get(m2, 0)][row_v[w]]
                if w:
                    out[m2] = w
                else:
                    del out[m2]
        return out

    def _mul_mono_slot(self, m: int, s: int) -> tuple:
        """Right-multiply the PBW monomial with index m by the generator in slot s.

        Returns the memo row: the product's (index, coeff) terms.
        """
        w_s = self._weight[s]
        cap = self.slot_cap
        out: dict = {}
        if m % w_s == 0:
            # no letter right of slot s
            e = m // w_s % cap[s]
            if e + 1 < cap[s]:
                row = self._memo[s][m] = ((m + w_s, 1),)
                return row
            # odd square x^2 = (lam/2) [x, x]; even power x^p = lam^{p-1} x^{[p]} + xi(x)^p
            m0, relation, const = m - e * w_s, self._top[s], self._top_const[s]
        else:
            # peel the rightmost letter x_j past x_s; x_j x_s = +-x_s x_j + lam [x_j, x_s]
            j, rest = self.n_slots - 1, m
            while rest % cap[j] == 0:
                rest //= cap[j]
                j -= 1
            m0 = m - self._weight[j]
            sign = self._neg_l[1] if self.slot_parity[j] and self.slot_parity[s] else 1
            a = self._memo[s].get(m0)
            if a is None:
                a = self._mul_mono_slot(m0, s)
            self._fold(a, j, out, sign)
            relation, const = self._lam_bracket[j][s], 0
        # out += c * m0 * x_k over the relation's degree-one terms (k, c), then its constant
        mul_l, add_l, get = self._mul_l, self._add_l, out.get
        for k, c in relation:
            row = self._memo[k].get(m0)
            if row is None:
                row = self._mul_mono_slot(m0, k)
            row_c = mul_l[c]
            for m2, w in row:
                w = add_l[get(m2, 0)][row_c[w]]
                if w:
                    out[m2] = w
                else:
                    del out[m2]
        if const:
            self._accum(out, {m0: 1}, const)
        row = self._memo[s][m] = tuple(out.items())
        return row

    def _horner(self, a: dict, b: dict, out: dict) -> dict:
        """out += a * b by Horner's rule on the last letters of b's monomials."""
        cap, weight, parts = self.slot_cap, self._weight, {}
        for m, c in b.items():
            if m == 0:
                self._accum(out, a, c)
                continue
            # the rightmost letter x_j of m, peeled as in _mul_mono_slot
            j, rest = self.n_slots - 1, m
            while rest % cap[j] == 0:
                rest //= cap[j]
                j -= 1
            parts.setdefault(j, {})[m - weight[j]] = c
        for j, part in parts.items():
            # a monomial that is x_j alone folds a straight through x_j
            lone = len(part) == 1 and part.get(0)
            self._fold((a if lone else self._horner(a, part, {})).items(), j, out, lone or 1)
        return out

    # -- products and the g-action by superderivations -------------------------

    def multiply(self, a: dict, b: dict) -> dict:
        return self._horner(a, b, {})

    def act(self, basis_idx: int, a: dict) -> dict:
        """x . u = sum over letter positions of u with [x, letter] substituted."""
        odd_x, brackets = int(self.g.parities[basis_idx]), self._bracket[basis_idx]
        out: dict = {}
        for m, c in a.items():
            # Horner's rule on m's letters x_s: part * x_s + prefix [x, x_s] is the next part
            part, prefix, par = {}, 0, 0
            for s, e in enumerate(self._exponents(m)):
                for _ in range(e):
                    part = self._fold(part.items(), s, {})
                    signed = self._mul_l[self._neg_l[c] if odd_x and par else c]
                    for k, v in brackets[s]:
                        self._fold(((prefix, 1),), k, part, signed[v])
                    prefix += self._weight[s]
                    par ^= self.slot_parity[s]
            self._accum(out, part, 1)
        return out

    # -- basis enumeration and operator matrices -------------------------------

    def dimension(self) -> int:
        d = 1
        for cap in self.slot_cap:
            d *= cap
        return d

    def _dense_dimension(self) -> int:
        """The dimension, refused above the dense-basis cap."""
        dim = self.dimension()
        if dim > _MATRIX_DIM_CAP:
            raise ValueError(
                f"dimension {dim} exceeds the dense-basis cap {_MATRIX_DIM_CAP}"
            )
        return dim

    def basis_monomials(self) -> list[tuple]:
        """The PBW monomials' exponents in index order."""
        self._dense_dimension()
        return list(itertools.product(*[range(cap) for cap in self.slot_cap]))

    def _op_matrix(self, fn) -> np.ndarray:
        """Matrix of a linear operator on elements, in index order, by one scatter."""
        n = self._dense_dimension()
        entries = [(m, i, c) for i in range(n) for m, c in fn({i: 1}).items()]
        rows, cols, codes = np.array(entries, dtype=np.int64).reshape(-1, 3).T
        mat = la.zeros((n, n))
        mat[rows, cols] = codes
        return mat

    def right_mult_matrix(self, basis_idx: int) -> np.ndarray:
        s = self.slot_of[basis_idx]
        return self._op_matrix(lambda el: self._fold(el.items(), s, {}))

    def action_matrix(self, basis_idx: int) -> np.ndarray:
        return self._op_matrix(lambda el: self.act(basis_idx, el))


def reduced_enveloping(g: LieSuperalgebra, chi: Optional[PCharacter] = None) -> DeformedAlgebra:
    return DeformedAlgebra(g, chi, lam=1)


def reduced_symmetric(g: LieSuperalgebra, chi: Optional[PCharacter] = None) -> DeformedAlgebra:
    return DeformedAlgebra(g, chi, lam=0)


def theta_map(src: DeformedAlgebra, t: int) -> tuple[DeformedAlgebra, "ThetaMap"]:
    """The rescaling isomorphism U_{xi,lam} -> U_{t xi, t lam}, x |-> t^{-1} x."""
    F = src.F
    t = int(t) % F.q
    if t == 0:
        raise ValueError("theta needs invertible t")
    # U_{1 xi, 1 lam} is U_{xi, lam}
    dst = src if t == 1 else DeformedAlgebra(src.g, src.xi.scale(t), F.mul(t, src.lam), src.order)
    return dst, ThetaMap(src, dst, t)


class ThetaMap:
    """Basis map e^(a) |-> t^(-deg a) e^(a) between two members of the family."""

    def __init__(self, src: DeformedAlgebra, dst: DeformedAlgebra, t: int):
        self.src = src
        self.dst = dst
        self.t = t
        tinv = src.F.inv(t)
        # the scalar table row of t^{-d} for every PBW degree d
        self._scale = [src._mul_l[src.F.pow_int(tinv, d)]
                       for d in range(sum(src.slot_cap) - src.n_slots + 1)]

    def apply(self, a: dict) -> dict:
        degree, out = self.src._degree, {}
        for m, c in a.items():
            d = degree.get(m)
            if d is None:  # a term's degree is the sum of its exponents
                d = degree[m] = sum(self.src._exponents(m))
            out[m] = self._scale[d][c]
        return out

    def _respects(self, a: dict, b: dict) -> bool:
        """theta(a b) == theta(a) theta(b)."""
        return self.dst.equal(self.apply(self.src.multiply(a, b)),
                              self.dst.multiply(self.apply(a), self.apply(b)))

    def _respects_power(self, x: dict) -> bool:
        """theta(x^p) == theta(x)^p."""
        src, dst = self.src, self.dst
        power_src, power_dst, img = src.one(), dst.one(), self.apply(x)
        for _ in range(src.p):
            power_src = src.multiply(power_src, x)
            power_dst = dst.multiply(power_dst, img)
        return dst.equal(self.apply(power_src), power_dst)

    @functools.cached_property
    def _on_generators(self) -> dict:
        """The generator product and p-th power checks, run once per map."""
        gens = [self.src.gen(i) for i in range(self.src.g.dim)]
        return {
            "generator_products": all([self._respects(a, b) for a in gens for b in gens]),
            "p_powers": all([self._respects_power(x) for x in gens]),
        }

    def verify(self, pairs: Sequence[tuple[dict, dict]]) -> dict:
        """Check that the map is an algebra isomorphism on generators, p-th
        powers and the products a * b of the given pairs; every check runs,
        those on generators once per map."""
        report = dict(self._on_generators,
                      random_products=all([self._respects(a, b) for a, b in pairs]))
        report["passed"] = all(report.values())
        return report


def _random_element(alg: DeformedAlgebra, rng: np.random.Generator) -> dict:
    """A random element with at most three PBW terms."""
    out: dict = {}
    for _ in range(3):
        m = sum(int(rng.integers(0, cap)) * w for cap, w in zip(alg.slot_cap, alg._weight))
        c = int(rng.integers(0, alg.F.q))
        if c:
            alg._accum(out, {m: 1}, c)
    return out
