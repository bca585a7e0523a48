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
multiplications and derivations.  F(g, q)'s stack is checked against the
relations it must satisfy: g's brackets and p-th powers (chi = 0) on the
g-action rows, and supercommutativity and associativity, the dual of the
coproduct's coassociativity, on the multiplication rows.  Each relation
is checked for every pair at once, from stacked products, and a failure
is reported by the name of the first relation broken.  Associativity
multiplies n^2 x n^2 matrices for n = dim F(g, q), so ``coinduced_dimension``
refuses an F(g, q) with n^2 above the dense-basis cap before it is built;
U's own PBW basis, never built here, is not bounded.  It reports graded
and total codimensions read off the ideal's reduced echelon rows: each row
is homogeneous, and the even and the odd pivots count the dimensions of
the two parts.
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence

import numpy as np

from . import linalg as la
from .envelope import _MATRIX_DIM_CAP, DeformedAlgebra
from .gf import Field
from .liesuper import LieSuperalgebra, _negate_where
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


# ---------------------------------------------------------------------------
# coinduced function algebras


def coinduced_dimension(g: LieSuperalgebra, q_indices: Sequence[int]) -> int:
    """n = dim F(g, q), p per even and 2 per odd basis element outside q;
    ``ValueError`` when n^2, the size of the associativity product, is above
    the dense-basis cap."""
    coset = np.delete(g.parities, list(q_indices))
    n = g.p ** int((coset == 0).sum()) * 2 ** int(coset.sum())
    if n * n > _MATRIX_DIM_CAP:
        raise ValueError(f"coinduced needs F(g, q) of dimension {n}, whose associativity check has "
                         f"n^2 = {n * n} rows, above the dense-basis cap {_MATRIX_DIM_CAP}")
    return n


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
        coinduced_dimension(g, q_indices)
        coset = [i for i in range(g.dim) if i not in set(q_indices)]
        coset_even = [i for i in coset if g.parities[i] == 0]
        coset_odd = [i for i in coset if g.parities[i] == 1]
        order = q_indices + coset_even + coset_odd
        self.n_q = len(q_indices)
        self.U = DeformedAlgebra(g, g.chi_zero(), lam=1, order=order)
        self.basis = list(itertools.product(*map(range, self.U.slot_cap[self.n_q:])))
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
        """The exponents in U of a coset monomial: the q slots come first."""
        return (0,) * self.n_q + tuple(coset_exps)

    def dimension(self) -> int:
        return len(self.basis)

    # -- the operator model and its relations ----------------------------------

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
            # the coproduct splits the letters of e^c, so neither factor has a q-letter
            for (m1, m2), v in comultiply_monomial(U, self.full_monomial(mono)).items():
                a, b = self.index[m1[self.n_q:]], self.index[m2[self.n_q:]]
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

    def relation_count(self) -> int:
        """How many relations ``relation_failures`` checks: g's brackets and even
        p-th powers, then supercommutativity and associativity of each pair."""
        return self.g.dim ** 2 + self.g.dim_even + 2 * self.dimension() ** 2

    def relation_failures(self, model: "OperatorModel") -> list[str]:
        """The relations that the stack of ``operator_model`` breaks, as names,
        in order: g's defining relations on the g-action rows
        (``LieSuperalgebra.relation_failures``), then, on the multiplication
        rows L_a, f_a·f_b = (−1)^{|a||b|}·f_b·f_a and L_a·L_b = Σ_c (f_a·f_b)_c·L_c
        for every pair.  This associativity is dual to the coassociativity of
        Δ, so a wrong Koszul sign in ``comultiply_monomial`` breaks it."""
        F, n, g = self.F, self.dimension(), self.g
        failures = g.relation_failures(model.ops[n:n + g.dim])
        mults, odd = model.ops[:n], model.parities == 1
        prods = mults.transpose(0, 2, 1)  # prods[a, b]: the coordinates of f_a·f_b
        swapped = _negate_where(F, np.outer(odd, odd), prods.transpose(1, 0, 2))
        failures += [f"supercommutative({a},{b})"
                     for a, b in np.argwhere((prods != swapped).any(axis=2))]
        left = la.pairwise_products(F, mults).reshape(n * n, n * n)
        bad = (left != la.matmul(F, prods.reshape(n * n, n), mults.reshape(n, n * n))).any(axis=1)
        return failures + [f"associative({a},{b})" for a, b in np.argwhere(bad.reshape(n, n))]


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

    A subspace is graded exactly when every row of its reduced echelon basis,
    which is unique, is homogeneous; then its even and its odd pivots count
    the dimensions of its two parts.  The rows are eliminated once, and only
    when they are not reduced already (in any order): ``closure_under_operators``
    and ``largest_stable_subspace`` return reduced rows.  Ideals and closures
    of an ``OperatorModel`` are sigma-stable, hence graded, so a row that
    mixes parities breaks the model's own invariant.
    """
    rows, par = np.asarray(ideal_rows, dtype=np.int64), model.parities
    lead = (rows != 0).argmax(axis=1) if rows.size else la.zeros(0)
    if lead.size < len(rows) or (rows[:, lead] != la.eye(lead.size)).any():
        red, lead = la.rref(model.F, rows)
        rows, lead = red[: len(lead)], np.array(lead, dtype=np.int64)
    if ((rows != 0) & (par != par[lead][:, None])).any():
        raise InvariantViolation("subspace is not graded, though every operator "
                                 "stack holds the parity involution")
    r1, n1 = int(par[lead].sum()), int(par.sum())
    r0, n0 = lead.size - r1, model.n - n1
    return n0 - r0, n1 - r1, model.n - lead.size


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
