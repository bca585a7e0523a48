"""Comultiplication, coinduced function algebras, and invariant ideals.

The unshuffle coproduct on a PBW basis sends each monomial to the signed sum
of its two-block splits, with binomial coefficients on even letters and
Koszul signs on odd ones.  Dualizing over a restricted subalgebra q yields
the function algebra F(g, q) on the coset side, with multiplication carried
through the coproduct and a g-action by right translation.  The ideal
machinery locates g-invariant ideals of these and of the reduced symmetric
algebras through the ``linalg`` kernel (largest stable subspace, operator
closure) on one (K, n, n) operator stack per algebra: the multiplications
from one side, the g-action, then the parity involution.  Both stacks are
read off tables the engine already has: F(g, q)'s from one coproduct per
coset monomial and U's right multiplications, S_xi's from its right
multiplications and derivations.  It reports graded and total codimensions
from three ranks: those of the ideal's projections to the even and the odd
coordinates, and its own.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Optional, Sequence

import numpy as np

from . import linalg as la
from .envelope import DeformedAlgebra
from .gf import Field
from .liesuper import LieSuperalgebra
from .rootsys import InvariantViolation

# ---------------------------------------------------------------------------
# comultiplication


def comultiply_monomial(U: DeformedAlgebra, m: tuple) -> dict:
    """Delta(e^m) as {(m1, m2): coefficient} with exact Koszul signs."""
    F = U.F
    zero = (0,) * U.n_slots
    terms = {(zero, zero): (1, 0)}  # (m1, m2) -> (coeff, parity of factor 2 so far)
    # Each split of a slot gives its own (m1, m2), and no coefficient vanishes:
    # C(e, a1) is prime to p for e < p.  So terms neither merge nor cancel.
    for s in range(U.n_slots):
        e = m[s]
        if not e:
            continue
        new: dict = {}
        if U.slot_parity[s] == 0:
            for (m1, m2), (c, par2) in terms.items():
                for a1 in range(e + 1):
                    coeff = F.mul(c, math.comb(e, a1) % U.p)
                    n1, n2 = list(m1), list(m2)
                    n1[s] += a1
                    n2[s] += e - a1
                    new[(tuple(n1), tuple(n2))] = (coeff, par2)
        else:
            for (m1, m2), (c, par2) in terms.items():
                # letter to factor 1: hops over the odd part of factor 2
                c1 = F.neg(c) if par2 else c
                n1 = list(m1)
                n1[s] = 1
                new[(tuple(n1), m2)] = (c1, par2)
                # letter to factor 2
                n2 = list(m2)
                n2[s] = 1
                new[(m1, tuple(n2))] = (c, par2 ^ 1)
        terms = new
    return {k: c for k, (c, _) in terms.items()}


def check_coassociativity(U: DeformedAlgebra, monomials: Sequence[tuple]) -> bool:
    F = U.F
    # Delta of each monomial once per call
    delta_of = functools.lru_cache(maxsize=None)(lambda m: comultiply_monomial(U, m))
    for m in monomials:
        left: dict = {}
        right: dict = {}
        for (m1, m2), c in delta_of(m).items():
            for (a, b), v in delta_of(m1).items():
                key = (a, b, m2)
                left[key] = F.add(left.get(key, 0), F.mul(c, v))
            for (a, b), v in delta_of(m2).items():
                key = (m1, a, b)
                right[key] = F.add(right.get(key, 0), F.mul(c, v))
        left = {k: v for k, v in left.items() if v}
        right = {k: v for k, v in right.items() if v}
        if left != right:
            return False
    return True


# ---------------------------------------------------------------------------
# coinduced function algebras


class CoinducedAlgebra:
    """F(g, q): q-linear functionals on U_chi(g), an algebra under the coproduct.

    Here chi = 0, so the one-dimensional trivial q-module exists; the PBW
    order puts q first, and the dual basis f_(a,b) over coset monomials
    satisfies f_(a,b)(e^(a',b')) = a! * delta.
    """

    def __init__(self, g: LieSuperalgebra, q_indices: Sequence[int]):
        self.g = g
        self.F = g.F
        q_indices = list(q_indices)
        if len(set(q_indices)) != len(q_indices):
            raise ValueError("duplicate indices in the subalgebra")
        self._validate_subalgebra(q_indices)
        coset = [i for i in range(g.dim) if i not in set(q_indices)]
        coset_even = [i for i in coset if g.parities[i] == 0]
        coset_odd = [i for i in coset if g.parities[i] == 1]
        order = q_indices + coset_even + coset_odd
        self.n_q = len(q_indices)
        self.U = DeformedAlgebra(g, g.chi_zero(), lam=1, order=order)
        self.coset_slots = list(range(self.n_q, g.dim))
        caps = [self.U.slot_cap[s] for s in self.coset_slots]
        self.basis = [tuple(t) for t in itertools.product(*[range(c) for c in caps])]
        self.index = {b: i for i, b in enumerate(self.basis)}
        # N_b = b! and the parity of f_b, for every coset monomial b
        self._norms = [math.prod(map(math.factorial, b)) % g.p for b in self.basis]
        self._parities = [self.U.monomial_parity(self.full_monomial(b)) for b in self.basis]

    def _validate_subalgebra(self, idxs: Sequence[int]) -> None:
        g = self.g
        inside = set(idxs)
        for i in idxs:
            for j in idxs:
                support = set(int(k) for k in np.nonzero(g.bracket_tensor[i, j])[0])
                if not support <= inside:
                    raise ValueError("indices do not span a subalgebra")
            if g.parities[i] == 0:
                support = set(int(k) for k in np.nonzero(g.p_map[i])[0])
                if not support <= inside:
                    raise ValueError("subalgebra is not closed under the p-power map")

    # -- indexing helpers ------------------------------------------------------

    def full_monomial(self, coset_exps: tuple) -> tuple:
        m = [0] * self.U.n_slots
        for s, e in zip(self.coset_slots, coset_exps):
            m[s] = e
        return tuple(m)

    def split(self, m: tuple) -> Optional[tuple]:
        """Coset exponents if the q-part of m is trivial, else None."""
        if any(m[s] for s in range(self.n_q)):
            return None
        return tuple(m[s] for s in self.coset_slots)

    def dimension(self) -> int:
        return len(self.basis)

    # -- evaluation and the operator model -------------------------------------

    def evaluate(self, f: dict, u: dict) -> int:
        """Apply the functional f, as {coset index: coeff} over the dual basis,
        to an element u of U_chi(g).  The q slots come first in the PBW order,
        so the monomials of U with trivial q-part are its indices below n, each
        the coset monomial of the same index, and f vanishes on the others."""
        F = self.F
        total = 0
        for m, c in u.items():
            fv = f.get(m)
            if fv:
                total = F.add(total, F.mul(F.mul(c, fv), self._norms[m]))
        return total

    def duality_check(self) -> bool:
        """f_(a,b)(e^(a',b')) = a! delta on the full dual-basis grid."""
        n = len(self.basis)
        for i in range(n):
            for j in range(n):
                expected = self._norms[i] if i == j else 0
                if self.evaluate({i: 1}, {j: 1}) != expected:
                    return False
        return True

    def operator_model(self) -> "OperatorModel":
        """The stack read off one coproduct per coset monomial and U's
        right multiplications.

        With N = diag(a!) over the coset monomials, f_a·f_b = Σ_c M[c,a,b]·f_c,
        where M[c,a,b] is the coefficient of e^a ⊗ e^b in Δ(e^c), negated when
        a and b are both odd, times N_a·N_b/N_c; and
        x·f_b = Σ_c (−1)^{|x|(|b|+|c|)}·R_x[b,c]·N_b/N_c·f_c, where R_x[b,c] is
        the coefficient of e^b in e^c·x.  The q slots come first in the PBW
        order, so a coset monomial's index in U is its index here, and a
        monomial of U lies in the coset block exactly when its index is below n.
        """
        F, U, norms, par = self.F, self.U, self._norms, self._parities
        n, d = len(self.basis), self.g.dim
        ops = la.zeros((n + d + 1, n, n))  # multiplications, the g-action, then sigma
        for c, mono in enumerate(self.basis):
            inv_c = F.inv(norms[c])
            for (m1, m2), v in comultiply_monomial(U, self.full_monomial(mono)).items():
                a, b = self.index[self.split(m1)], self.index[self.split(m2)]
                v = F.mul(F.mul(v, inv_c), F.mul(norms[a], norms[b]))
                ops[a, c, b] = F.neg(v) if par[a] and par[b] else v
            for x in range(d):
                odd_x = self.g.parities[x]
                for b, v in U._fold(((c, 1),), U.slot_of[x], {}).items():
                    if b < n:
                        v = F.mul(v, F.mul(norms[b], inv_c))
                        ops[n + x, c, b] = F.neg(v) if odd_x and par[b] != par[c] else v
        parities = np.array(par, dtype=np.int64)
        aug = la.zeros(n)
        aug[0] = 1  # f |-> f(1) reads the coefficient of f_0, the unit
        return OperatorModel(self.F, parities, ops, aug)

    def is_g_simple(self) -> bool:
        model = self.operator_model()
        ideal = largest_proper_invariant_ideal(model)
        return ideal.shape[0] == 0


# ---------------------------------------------------------------------------
# invariant ideals through operator models


class OperatorModel:
    """A finite-dimensional algebra-with-g-action given by one operator stack.

    ``ops`` is the (K, n, n) stack of the multiplications from one side,
    then the g-action, then the parity involution sigma, which the model
    writes into the last slot from the basis parities.  One side suffices:
    both algebras modelled here are supercommutative, so x·u = ±u·x gives
    L_x = R_x∘σ^{|x|}, and a subspace stable under the right (or left)
    multiplications and σ is stable under the other side too.  Being
    σ-stable, every such subspace is graded.  aug_vector is the augmentation
    functional cutting out the maximal ideal.
    """

    def __init__(self, F: Field, parities: np.ndarray, ops: np.ndarray, aug_vector: np.ndarray):
        ops[-1] = np.diag(np.where(parities == 1, F.neg(1), 1))
        self.F = F
        self.n = parities.size
        self.parities = parities
        self.ops = ops
        self.aug_vector = aug_vector

    def max_ideal_rows(self) -> np.ndarray:
        return la.nullspace(self.F, self.aug_vector.reshape(1, -1))


def operator_model_from_symmetric(S: DeformedAlgebra) -> OperatorModel:
    """Operator model of a reduced symmetric algebra S_xi (lam must be 0)."""
    if S.lam != 0:
        raise ValueError("augmentation requires the symmetric member lam = 0")
    F, d = S.F, S.g.dim
    monomials = S.basis_monomials()
    n = len(monomials)
    ops = la.zeros((2 * d + 1, n, n))  # right multiplications, the g-action, sigma
    for i in range(d):
        ops[i], ops[d + i] = S.right_mult_matrix(i), S.action_matrix(i)
    parities = np.zeros(n, dtype=np.int64)
    aug = la.zeros(n)
    for i, m in enumerate(monomials):
        parities[i] = S.monomial_parity(m)
        if parities[i] == 0 and all(
            e == 0 for s, e in enumerate(m) if S.slot_parity[s]
        ):
            val = 1
            for s, e in enumerate(m):
                if e:
                    val = F.mul(val, F.pow_int(int(S.xi.values[S.order[s]]), e))
            aug[i] = val
        # monomials with odd letters evaluate to zero under the augmentation
    return OperatorModel(F, parities, ops, aug)


def largest_proper_invariant_ideal(model: OperatorModel) -> np.ndarray:
    """Largest g-stable graded ideal inside the maximal ideal, as row basis."""
    ambient = model.max_ideal_rows()
    return la.largest_stable_subspace(model.F, ambient, model.ops)


def invariant_ideal_closure(model: OperatorModel, seed_rows: np.ndarray) -> np.ndarray:
    """Smallest g-stable graded ideal containing the seed vectors."""
    return la.closure_under_operators(model.F, seed_rows, model.ops)


def graded_codims(model: OperatorModel, ideal_rows: np.ndarray) -> tuple[int, int, int]:
    """(even codim, odd codim, total codim) of a graded subspace.

    A subspace I is graded exactly when it is the sum of its projections to
    the even and the odd coordinates, that is when their ranks r0 and r1 add
    up to rank(I); then r0 and r1 are the dimensions of its two parts.
    Ideals and closures of an ``OperatorModel`` are sigma-stable, hence
    graded, so a subspace that is not breaks the model's own invariant.
    """
    n = model.n
    even_idx = np.nonzero(model.parities == 0)[0]
    odd_idx = np.nonzero(model.parities == 1)[0]
    r0 = la.rank(model.F, ideal_rows[:, even_idx])
    r1 = la.rank(model.F, ideal_rows[:, odd_idx])
    r = la.rank(model.F, ideal_rows)
    if r0 + r1 != r:
        raise InvariantViolation("subspace is not graded, though every operator "
                                 "stack holds the parity involution")
    return even_idx.size - r0, odd_idx.size - r1, n - r


def ideal_survey(S: DeformedAlgebra, divisor: int, d_pair: tuple[int, int],
                 seeds: int, rng: np.random.Generator) -> dict:
    """Codimension report for the largest invariant ideal and random closures.

    divisor and d_pair = (d0, d1) come from the centralizer of xi; each
    closure codimension is tested for divisibility by divisor, and the
    largest-ideal codimensions are compared to the graded bound.
    """
    model = operator_model_from_symmetric(S)
    top = largest_proper_invariant_ideal(model)
    c0, c1, total = graded_codims(model, top)
    d0, d1 = d_pair
    report = {
        "algebra": S.g.label,
        "p": S.p,
        "dim": model.n,
        "largest_ideal_codim": total,
        "largest_ideal_codim_even": c0,
        "largest_ideal_codim_odd": c1,
        "graded_bound_holds": bool(c0 >= d0 and c1 >= d1),
        "divisor": divisor,
        "largest_divisible": total % divisor == 0,
        "closures": [],
    }
    ambient = model.max_ideal_rows()
    for nseed in range(seeds):
        # alternate seeds from the maximal ideal and from the largest
        # invariant ideal, so some closures have nontrivial codimension
        pool = top if (nseed % 2 and top.shape[0]) else ambient
        coeffs = rng.integers(0, S.F.q, pool.shape[0])
        seed = la.matmul(S.F, coeffs[None, :], pool)[0]
        if not seed.any():
            seed = pool[0].copy()
        closure = invariant_ideal_closure(model, seed.reshape(1, -1))
        cc0, cc1, ctotal = graded_codims(model, closure)
        report["closures"].append({
            "codim": ctotal,
            "codim_even": cc0,
            "codim_odd": cc1,
            "divisible": ctotal % divisor == 0,
        })
    report["all_closures_divisible"] = all(c["divisible"] for c in report["closures"])
    return report
