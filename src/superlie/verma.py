"""Baby Verma modules over reduced enveloping superalgebras.

For a simple system Pi with positive roots alpha_1 < ... < alpha_N in
height order, the module Z_chi(lambda) has PBW basis

    X_{-alpha_1}^{c_1} ... X_{-alpha_N}^{c_N} . v   with 0 <= c_i <= m_i,

where m_i = p-1 for even roots and 1 for odd roots.  The highest vector v
is killed by every positive root vector and the Cartan acts on it through
lambda.  Generator actions are obtained by straightening inside the
reduced enveloping algebra (engine order: negative root vectors, Cartan,
positive root vectors) and then evaluating Cartan exponents at lambda and
positive exponents at zero.

The weight lattice Lambda_chi = {lambda : lambda(h)^p - lambda(h^{[p]}) =
chi(h)^p} is solved exactly.  On every supported algebra the p-map is the
identity on the Cartan basis, so each coordinate t = lambda(h) solves the
Artin-Schreier equation t^p - t = chi(h)^p on its own.  The map
t -> t^p - t is GF(p)-linear, and its equation has p roots over GF(p^k)
exactly when the trace of chi(h)^p to GF(p) vanishes there; for chi(h) in
GF(p) that is k = 1 when chi(h) = 0 and k = p otherwise.  Lambda_chi is
the product of the per-coordinate roots over the one field that holds
them all, p^rank weights.

Irreducibility is decided two independent ways and compared:
  * oracle: the spanning closure of the lowest vector under all action
    matrices (every nonzero submodule contains the lowest vector);
  * criterion: the Harish-Chandra-style product
    prod_even((lambda+rho|alpha)^{p-1} - 1) * prod_odd((lambda+rho|beta))
    evaluated through coroots.

The maximal proper submodule (hence the simple head) is computed by the
shrinking-iteration of the largest action-stable subspace.  The ambient
space that provably contains every proper submodule depends on chi:

  * chi = 0 on the negative nilradical: the PBW coefficient algebra
    A = U_chi(n^-) is local with maximal ideal spanned by the nonconstant
    monomials, so every proper submodule avoids the v-coordinate.
  * chi nonzero on n^- but vanishing on [n^-, n^-]: replacing each even
    letter x by x - chi(x) yields generators with the same brackets and
    zero p-th powers, so A is local in the shifted monomial basis.
  * A commutative (rank-one supports in small algebras): the nilradical
    of A is the kernel of an iterated p-th power map, which is
    GF(p)-linear in digit coordinates; A is local iff A/nilrad has a
    one-dimensional Berlekamp subalgebra, and then every proper submodule
    lies inside nilrad . v.

Each strategy certifies its own applicability and raises otherwise.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple, Optional, Sequence

import numpy as np

from . import linalg as la
from .envelope import DeformedAlgebra
from .gf import Field, FieldElement, field_create
from .liesuper import LieSuperalgebra, PCharacter
from .rootsys import SimpleSystem, Weight, format_weight, phi_prime_eval


# ---------------------------------------------------------------------------
# the weight set Lambda_chi


class LambdaSet:
    """All weights lambda with lambda(h)^p - lambda(h^{[p]}) = chi(h)^p."""

    def __init__(self, g: LieSuperalgebra, chi: PCharacter, field: Field,
                 weights: list[tuple[int, ...]]):
        self.g = g
        self.chi = chi
        self.field = field
        self.k = field.k
        self.weights = list(weights)
        self._set = set(self.weights)

    def __len__(self) -> int:
        return len(self.weights)

    def __iter__(self):
        return iter(self.weights)

    def __contains__(self, lam: tuple) -> bool:
        return tuple(int(v) for v in lam) in self._set

    def describe(self) -> dict:
        return {
            "algebra": self.g.label,
            "p": self.g.p,
            "k": self.k,
            "chi": list(self.chi.cartan_values()),
            "count": len(self.weights),
        }


def cartan_p_matrix(g: LieSuperalgebra) -> np.ndarray:
    """Matrix P with h_i^{[p]} = sum_j P[i,j] h_j on the Cartan basis."""
    r = g.rank
    P = la.zeros((r, r))
    for i, ci in enumerate(g.cartan):
        vec = g.p_map[ci]
        outside = [j for j in range(g.dim) if j not in g.cartan]
        if vec[outside].any():
            raise RuntimeError("Cartan is not closed under the p-th power map")
        for j, cj in enumerate(g.cartan):
            P[i, j] = vec[cj]
    return P


def lambda_residual(g: LieSuperalgebra, F: Field, lam: Sequence[int],
                    chi_h: Sequence[int], P: np.ndarray) -> list[int]:
    """lambda(h_i)^p - lambda(h_i^{[p]}) - chi(h_i)^p per Cartan index."""
    p, r = g.p, g.rank
    out = []
    for i in range(r):
        total = F.pow_int(int(lam[i]), p)
        for j in range(r):
            if P[i, j]:
                total = F.sub(total, F.mul(int(P[i, j]), int(lam[j])))
        out.append(F.sub(total, F.pow_int(int(chi_h[i]), p)))
    return out


class ArtinSchreierResult(NamedTuple):
    solutions: tuple[FieldElement, ...]
    extension_required: bool


def artin_schreier_solve(c: FieldElement, field: Optional[Field] = None) -> ArtinSchreierResult:
    """Solve t^p - t = c inside the field of c.

    The map t -> t^p - t is GF(p)-linear, so the equation reduces to a
    linear system over GF(p) in the power-basis coordinates.  When no
    solution exists in the field the result is empty with
    ``extension_required=True``; solutions then live in the extension of
    degree p (additive Hilbert 90: solvable iff the trace to GF(p) is 0).
    """
    if field is not None and field != c.field:
        raise ValueError("c does not belong to the given field")
    F = c.field
    p, k = F.p, F.k
    Fp = field_create(p, 1)
    # column j: the digits of x^j mapped through t -> t^p - t
    mat = np.array([F._digit_tuples[F.sub(F.frob(p ** j), p ** j)] for j in range(k)],
                   dtype=np.int64).T
    particular = la.solve(Fp, mat, np.array(F._digit_tuples[c.code], dtype=np.int64))
    if particular is None:
        return ArtinSchreierResult((), True)
    kernel = la.nullspace(Fp, mat)
    if kernel.shape[0] != 1:
        raise RuntimeError("Artin-Schreier kernel should be the prime field")
    sols = [F.from_code(int(((particular + t * kernel[0]) % p) @ F._pows)) for t in range(p)]
    return ArtinSchreierResult(tuple(sorted(sols, key=lambda e: e.code)), False)


def artin_schreier_min_extension(c: FieldElement) -> int:
    """Smallest j such that t^p - t = c is solvable over GF(p^(k*j))."""
    return 1 if c.field.trace(c.code) == 0 else c.field.p


class PMapNotIdentity(RuntimeError):
    """The Cartan p-map is not the identity, so lambda(h) do not decouple."""


class InvariantViolation(Exception):
    """An internal cross-check failed; never reported as skipped.

    Not a ``RuntimeError``: that type marks documented scope limits, which
    callers may record as out of scope.
    """


def lambda_set(g: LieSuperalgebra, chi: PCharacter, k_max: int = 8) -> LambdaSet:
    """Solve the weight equations coordinate by coordinate (Artin-Schreier).

    With h_i^{[p]} = h_i each lambda(h_i) is a root of t^p - t = chi(h_i)^p.
    The field is GF(p^k) for the least k that holds the roots of every
    coordinate; ``k_max`` caps k.  Only the Cartan values of chi enter the
    equations.  The base algebra must live over the prime field so that its
    structure codes embed unchanged into every extension.
    """
    if g.F.k != 1:
        raise ValueError("lambda solving expects the algebra over the prime field")
    p, r = g.p, g.rank
    P = cartan_p_matrix(g)
    if not (P == la.eye(r)).all():
        raise PMapNotIdentity(
            f"the p-map of {g.label} is not the identity on the Cartan; "
            "the weight equations do not decouple"
        )
    chi_h = [int(v) for v in chi.cartan_values()]
    rhs = [g.F.pow_int(c, p) for c in chi_h]
    k = max(artin_schreier_min_extension(g.F.from_code(c)) for c in rhs)
    if k > k_max:
        raise RuntimeError(
            f"no full weight set within extension degree {k_max}; raise k_max"
        )
    F = g.F if k == 1 else field_create(p, k)
    # prime-field codes embed unchanged into F; roots come sorted by code
    roots = [[t.code for t in artin_schreier_solve(F.from_code(c)).solutions] for c in rhs]
    weights = list(itertools.product(*roots))
    if len(weights) != p ** r:
        raise RuntimeError("weight enumeration lost solutions")
    for lam in weights:
        if any(lambda_residual(g, F, lam, chi_h, P)):
            raise RuntimeError("weight fails its defining equation")
    return LambdaSet(g, chi, F, weights)


def shift_lambda(g: LieSuperalgebra, F: Field, lam: Sequence[int], w: Weight,
                 sign: int = 1) -> tuple[int, ...]:
    """lambda + sign * w restricted to the Cartan, as field codes."""
    vals = g.weight_on_cartan(w)
    out = []
    for lv, wv in zip(lam, vals):
        out.append(F.add(int(lv), F.mul(sign % F.p, int(wv))))
    return tuple(out)


# ---------------------------------------------------------------------------
# the module template (one straightening pass shared by every lambda)


class VermaSystem:
    """Template for all Z_chi(lambda) over one (algebra, chi, simple system).

    The straightening engine runs over the prime field; every structure
    code stays below p, so the symbolic action templates remain valid over
    any extension and the per-lambda modules only evaluate them.
    """

    def __init__(self, g: LieSuperalgebra, chi: PCharacter,
                 ss: Optional[SimpleSystem] = None):
        if g.F.k != 1:
            raise ValueError("module templates expect the algebra over the prime field")
        if chi.g is not g:
            raise ValueError("chi belongs to a different algebra instance")
        self.g = g
        self.chi = chi
        self.ss = ss if ss is not None else g.distinguished
        self.positives = list(self.ss.positive_roots)
        self.N = len(self.positives)
        for a in self.positives:
            idx = g.root_index[a]
            if chi.values[idx]:
                raise ValueError(
                    f"chi does not vanish on the positive root vector X_{format_weight(a)}"
                )
        # engine slots: X_{-alpha_N}, ..., X_{-alpha_1}, Cartan, X_{alpha_1}, ...
        self.neg_indices = [g.root_index[-a] for a in reversed(self.positives)]
        self.pos_indices = [g.root_index[a] for a in self.positives]
        order = self.neg_indices + list(g.cartan) + self.pos_indices
        self.U = DeformedAlgebra(g, xi=chi, lam=1, order=order)
        self.caps = list(self.U.slot_cap[: self.N])
        self.slot_parities = [int(g.parities[b]) for b in self.neg_indices]
        self.basis = list(itertools.product(*[range(c) for c in self.caps]))
        self.index = {m: i for i, m in enumerate(self.basis)}
        self.dim = len(self.basis)
        self.highest_index = self.index[(0,) * self.N]
        self.chi_h = [int(v) for v in chi.cartan_values()]
        self._P = cartan_p_matrix(g)
        self._templates: dict[tuple[int, tuple], tuple] = {}
        self._mult_templates: dict[tuple[tuple, tuple], tuple] = {}

    def template(self, gen_idx: int, mono: tuple) -> tuple:
        """Symbolic expansion of x_gen . (mono . v) before lambda evaluation.

        Entries are (negative part, Cartan exponents, prime-field code);
        monomials with positive-part letters are dropped since they kill v.
        """
        key = (gen_idx, mono)
        hit = self._templates.get(key)
        if hit is not None:
            return hit
        g, N, r = self.g, self.N, self.g.rank
        full = mono + (0,) * (self.U.n_slots - N)
        prod = self.U.multiply(self.U.gen(gen_idx), {full: 1})
        entries = []
        for fm, code in prod.items():
            if any(fm[N + r:]):
                continue
            entries.append((fm[:N], fm[N:N + r], int(code)))
        out = tuple(entries)
        self._templates[key] = out
        return out

    def neg_product(self, m1: tuple, m2: tuple) -> tuple:
        """Symbolic product (m1 . m2) inside U(n^-), as (monomial, code) pairs."""
        key = (m1, m2)
        hit = self._mult_templates.get(key)
        if hit is not None:
            return hit
        N = self.N
        pad = (0,) * (self.U.n_slots - N)
        prod = self.U.multiply({m1 + pad: 1}, {m2 + pad: 1})
        entries = []
        for fm, code in prod.items():
            if any(fm[N:]):
                raise InvariantViolation("negative part is not closed under products")
            entries.append((fm[:N], int(code)))
        out = tuple(entries)
        self._mult_templates[key] = out
        return out

    def module(self, lam: Sequence[int], field: Optional[Field] = None) -> "BabyVerma":
        F = field if field is not None else self.g.F
        lam = tuple(int(v) % F.q for v in lam)
        if any(lambda_residual(self.g, F, lam, self.chi_h, self._P)):
            raise ValueError("lambda violates lambda(h)^p - lambda(h^[p]) = chi(h)^p")
        return BabyVerma(self, lam, F)


class BabyVerma:
    """Z_chi(lambda) with explicit action matrices over a chosen field."""

    def __init__(self, system: VermaSystem, lam: tuple, F: Field):
        self.system = system
        self.g = system.g
        self.ss = system.ss
        self.chi = system.chi
        self.lam = lam
        self.F = F
        self.dim = system.dim
        self.basis = system.basis
        self.index = system.index
        self.highest_index = system.highest_index
        self._action: dict[int, np.ndarray] = {}
        self._max_submodule: Optional[np.ndarray] = None
        self._lowest: Optional[np.ndarray] = None

    # -- actions ---------------------------------------------------------------

    def _evaluate_cartan(self, cart: tuple, code: int) -> int:
        F = self.F
        out = code % F.p  # prime-subfield code embeds unchanged
        for lv, e in zip(self.lam, cart):
            if e:
                out = F.mul(out, F.pow_int(int(lv), e))
        return out

    def action_matrix(self, gen_idx: int) -> np.ndarray:
        M = self._action.get(gen_idx)
        if M is not None:
            return M
        F = self.F
        M = la.zeros((self.dim, self.dim))
        for src, mono in enumerate(self.basis):
            for neg, cart, code in self.system.template(gen_idx, mono):
                c = self._evaluate_cartan(cart, code)
                if c:
                    tgt = self.index[neg]
                    M[tgt, src] = F.add(int(M[tgt, src]), c)
        self._action[gen_idx] = M
        return M

    def all_action_matrices(self) -> list[np.ndarray]:
        return [self.action_matrix(i) for i in range(self.g.dim)]

    def act(self, gen_idx: int, vec: np.ndarray) -> np.ndarray:
        return la.matvec(self.F, self.action_matrix(gen_idx), vec)

    def monomial_parity(self, mono: tuple) -> int:
        return sum(e * sp for e, sp in zip(mono, self.system.slot_parities)) & 1

    # -- distinguished vectors -------------------------------------------------

    def highest_vector(self) -> np.ndarray:
        v = la.zeros(self.dim)
        v[self.highest_index] = 1
        return v

    def _exponent(self, root_idx: int) -> int:
        return self.g.p - 1 if self.g.parities[root_idx] == 0 else 1

    def lowest_vector(self) -> np.ndarray:
        """X_{-alpha_1}^{m_1} ... X_{-alpha_N}^{m_N} . v (rightmost acts first)."""
        if self._lowest is None:
            vec = self.highest_vector()
            for a in reversed(self.system.positives):
                idx = self.g.root_index[-a]
                for _ in range(self._exponent(idx)):
                    vec = self.act(idx, vec)
            if not vec.any():
                raise InvariantViolation("lowest vector vanished — PBW violation")
            vec.flags.writeable = False  # shared by every later call
            self._lowest = vec
        return self._lowest

    def phi_via_module(self) -> int:
        """Coefficient of v in X_{alpha_1}^{m_1} ... X_{alpha_N}^{m_N} . lowest."""
        vec = self.lowest_vector()
        for a in reversed(self.system.positives):
            idx = self.g.root_index[a]
            for _ in range(self._exponent(idx)):
                vec = self.act(idx, vec)
        return int(vec[self.highest_index])

    # -- submodules ------------------------------------------------------------

    def submodule_closure(self, rows: np.ndarray) -> np.ndarray:
        return la.closure_under_operators(
            self.F, rows, self.all_action_matrices(), dim_cap=self.dim
        )

    def is_irreducible_oracle(self) -> bool:
        closed = self.submodule_closure(self.lowest_vector()[None, :])
        return closed.shape[0] == self.dim

    def _neg_chi_values(self) -> list[int]:
        return [int(self.chi.values[b]) for b in self.system.neg_indices]

    def _chi_kills_neg_brackets(self) -> bool:
        chi = self.chi
        for bi in self.system.neg_indices:
            for bj in self.system.neg_indices:
                if chi.value(self.g.bracket_tensor[bi, bj]):
                    return False
        return True

    def _shifted_monomial_rows(self) -> np.ndarray:
        """Rows of prod_s (x_s - chi(x_s))^{e_s} for e != 0 in the PBW basis.

        With chi([n^-, n^-]) = 0 the shifted letters satisfy the original
        brackets and have zero p-th powers, so they generate a local
        algebra whose maximal ideal is spanned by these rows.
        """
        F = self.F
        shifts = self._neg_chi_values()
        for s, par in enumerate(self.system.slot_parities):
            if par and shifts[s]:
                raise InvariantViolation("cannot shift an odd letter by a nonzero constant")
        rows = []
        for e in self.basis:
            if not any(e):
                continue
            row = la.zeros(self.dim)
            for f in self.basis:
                if any(fv > ev for fv, ev in zip(f, e)):
                    continue
                c = 1
                for s, (ev, fv) in enumerate(zip(e, f)):
                    if ev == fv:
                        continue
                    binco = math.comb(ev, fv) % F.p
                    c = F.mul(c, binco)
                    c = F.mul(c, F.pow_int(F.neg(shifts[s] % F.p), ev - fv))
                if c:
                    row[self.index[f]] = c
            rows.append(row)
        return np.array(rows, dtype=np.int64)

    def _coefficient_algebra_tables(self):
        """Multiplication and p-th-power tables of A = U_chi(n^-) (prime codes)."""
        sysm = self.system
        mult = {}
        commutative = True
        for m1 in self.basis:
            for m2 in self.basis:
                mult[(m1, m2)] = sysm.neg_product(m1, m2)
        for m1 in self.basis:
            for m2 in self.basis:
                if dict(mult[(m1, m2)]) != dict(mult[(m2, m1)]):
                    commutative = False
        powers = {}
        for m in self.basis:
            cur = {m: 1}
            for _ in range(self.g.p - 1):
                nxt: dict = {}
                for mono, c in cur.items():
                    for tgt, code in mult[(mono, m)]:
                        v = (nxt.get(tgt, 0) + c * code) % self.g.p
                        if v:
                            nxt[tgt] = v
                        elif tgt in nxt:
                            del nxt[tgt]
                cur = nxt
            powers[m] = cur
        return mult, powers, commutative

    @property
    def N(self) -> int:
        return self.system.N

    def _commutative_radical_rows(self) -> np.ndarray:
        """Nilradical of commutative A = U_chi(n^-), certified local.

        The p-th power map is GF(p)-linear in digit coordinates; iterating
        it past dim A cuts out exactly the nilpotent elements.  Locality
        is certified by a one-dimensional Berlekamp subalgebra of A/nilrad.
        """
        F = self.F
        p, k = F.p, F.k
        mult, powers, commutative = self._coefficient_algebra_tables()
        if not commutative:
            raise RuntimeError(
                "no certified maximal-submodule ambient: chi has constants in "
                "odd squares and the coefficient algebra is noncommutative"
            )
        d = self.dim
        n = d * k

        def p_power_matrix() -> np.ndarray:
            # a |-> a^p as a GF(p)-linear map on digit coordinates
            M = la.zeros((n, n))
            for t, m in enumerate(self.basis):
                pw = powers[m]
                for dd in range(k):
                    col = t * k + dd
                    cp = F.frob(p ** dd)
                    for tgt, code in pw.items():
                        val = F.mul(cp, code % p)
                        s = self.index[tgt]
                        for d2, dig in enumerate(F._digit_tuples[val]):
                            M[s * k + d2, col] = (M[s * k + d2, col] + dig) % p
            return M

        Fp = field_create(p, 1)
        P1 = p_power_matrix()
        reps = 1
        while p ** reps < d:  # a^(p^reps) = 0 for every nilpotent a once p^reps >= dim A
            reps += 1
        PM = P1
        for _ in range(reps - 1):
            PM = la.matmul(Fp, P1, PM)
        ker = la.nullspace(Fp, PM)
        rad_rows = []
        for row in ker:
            vec = la.zeros(d)
            for t in range(d):
                code = sum(int(row[t * k + dd]) * p ** dd for dd in range(k))
                vec[t] = code
            rad_rows.append(vec)
        rad = la.row_space_basis(F, np.array(rad_rows, dtype=np.int64)) \
            if rad_rows else la.zeros((0, d))
        # certify locality: Berlekamp subalgebra of A/nilrad is 1-dimensional
        rad_basis = la.EchelonBasis(F, rad)
        compl = [t for t in range(d) if t not in rad_basis.pivots]
        if not compl:
            raise InvariantViolation("coefficient algebra has zero quotient")

        images = []
        for t in compl:
            e = la.zeros(d)
            e[t] = 1
            cur = e
            for _ in range(k):  # q-th power = p-th power iterated k times
                nxt = la.zeros(d)
                # a^p via the table: expand in basis and use powers + cross terms
                # For commutative A in char p, (sum c_i m_i)^p = sum c_i^p m_i^p.
                for i in np.nonzero(cur)[0]:
                    cp = F.frob(int(cur[i]))
                    for tgt, code in powers[self.basis[int(i)]].items():
                        ti = self.index[tgt]
                        nxt[ti] = F.add(int(nxt[ti]), F.mul(cp, code % F.p))
                cur = nxt
            images.append(F.sub_arr(cur, e))
        B = rad_basis.reduce(np.array(images))[:, compl].T
        berlekamp_kernel = la.nullspace(F, B)
        if berlekamp_kernel.shape[0] != 1:
            raise RuntimeError(
                "coefficient algebra is not local over this field; the maximal "
                "submodule is not unique and the head is left uncomputed"
            )
        return rad

    def maximal_submodule(self) -> np.ndarray:
        """Echelon rows of the unique maximal proper submodule."""
        if self._max_submodule is not None:
            return self._max_submodule
        F = self.F
        neg_chi = self._neg_chi_values()
        if not any(neg_chi):
            ident = la.eye(self.dim)
            rows = np.array(
                [ident[i] for i in range(self.dim) if i != self.highest_index],
                dtype=np.int64,
            )
        elif self._chi_kills_neg_brackets():
            rows = self._shifted_monomial_rows()
        else:
            rows = self._commutative_radical_rows()
        if rows.shape[0] == 0:
            sub = la.zeros((0, self.dim))
        else:
            sub = la.largest_stable_subspace(F, rows, self.all_action_matrices())
        self._max_submodule = sub
        return sub

    def head_dim(self) -> int:
        return self.dim - self.maximal_submodule().shape[0]

    def quotient_representation(self) -> tuple[list[np.ndarray], np.ndarray, list[int]]:
        """Action matrices on Z / maximal submodule, with the induced parity.

        Returns (matrices, parity involution, parities of the quotient basis).
        """
        F = self.F
        sub = la.EchelonBasis(F, self.maximal_submodule())
        compl = [i for i in range(self.dim) if i not in sub.pivots]
        # columns of each action matrix, projected along the submodule
        mats = [sub.reduce(self.action_matrix(idx)[:, compl].T)[:, compl].T
                for idx in range(self.g.dim)]
        pars = [self.monomial_parity(self.basis[i]) for i in compl]
        S = la.zeros((len(compl), len(compl)))
        for i, pr in enumerate(pars):
            S[i, i] = 1 if pr == 0 else F.neg(1)
        return mats, S, pars

    # -- verdicts --------------------------------------------------------------

    def criterion_value(self) -> int:
        return criterion_value(self.g, self.ss, self.lam, self.F)

    def verdict(self, with_head: bool = True) -> dict:
        phi_m = self.phi_via_module()
        phi_c = self.criterion_value()
        out = {
            "algebra": self.g.label,
            "p": self.g.p,
            "k": self.F.k,
            "chi": list(self.chi.cartan_values()),
            "lambda": list(self.lam),
            "dimZ": self.dim,
            "phi_module": phi_m,
            "phi_product": phi_c,
            "irreducible_oracle": self.is_irreducible_oracle(),
            "irreducible_criterion": phi_c != 0,
        }
        if with_head:
            out["head_dim"] = self.head_dim()
        return out

    # -- reflection helpers ----------------------------------------------------

    def singular_vector(self, delta: Weight) -> tuple[np.ndarray, str]:
        """The singular vector attached to the simple reflection at delta.

        type i (even delta): X_{-delta}^{p-1} v; type ii (isotropic odd):
        X_{-delta} v; type iii (odd with 2delta a root):
        X_{-delta} X_{-2delta}^{p-1} v.
        """
        kind, _ = self.ss.classify(delta)
        g = self.g
        vec = self.highest_vector()
        if kind == "type_i":
            idx = g.root_index[-delta]
            for _ in range(g.p - 1):
                vec = self.act(idx, vec)
        elif kind == "type_ii":
            vec = self.act(g.root_index[-delta], vec)
        else:
            idx2 = g.root_index[-(delta.scale(2))]
            for _ in range(g.p - 1):
                vec = self.act(idx2, vec)
            vec = self.act(g.root_index[-delta], vec)
        return vec, kind

    def check_singular(self, delta: Weight) -> dict:
        """Annihilation of the singular vector by the reflected positives."""
        vec, kind = self.singular_vector(delta)
        new_ss = self.ss.reflect(delta)
        killed = []
        for a in new_ss.positive_roots:
            img = self.act(self.g.root_index[a], vec)
            killed.append(not img.any())
        return {
            "reflection_type": kind,
            "nonzero": bool(vec.any()),
            "annihilated": all(killed),
            "new_positive_count": len(killed),
        }


# ---------------------------------------------------------------------------
# the Walls type of a simple module


def walls_type(F: Field, action_matrices: Sequence[np.ndarray],
               parity_op: np.ndarray, parities: Sequence[int],
               check_simple: bool = True) -> str:
    """"Q" when the module admits an odd endomorphism, else "M".

    An odd endomorphism T satisfies T rho(a) = (-1)^|a| rho(a) T and
    anticommutes with the parity involution.  With ``check_simple`` the
    input is screened for visible reducibility: every basis vector must
    generate the whole space under the action (direct sums and radical
    vectors fail this; the callers' heads are simple by construction).
    """
    n = parity_op.shape[0]
    if check_simple:
        for i in range(n):
            seed = la.eye(n)[i][None, :]
            closed = la.closure_under_operators(F, seed, action_matrices, dim_cap=n)
            if closed.shape[0] != n:
                raise ValueError(
                    f"basis vector {i} generates a proper submodule — input is reducible"
                )
    even_ops = [m for m, pr in zip(action_matrices, parities) if pr == 0]
    odd_ops = [m for m, pr in zip(action_matrices, parities) if pr == 1]
    odd = la.supercommutant_basis(F, even_ops, odd_ops, parity_op, odd_part=True)
    return "Q" if odd else "M"


def head_of(Z: BabyVerma) -> tuple[int, str]:
    """(head dimension, Walls type) via the certified maximal submodule."""
    mats, parity_op, _ = Z.quotient_representation()
    hdim = mats[0].shape[0]
    wtype = walls_type(Z.F, mats, parity_op, list(Z.g.parities), check_simple=False)
    return hdim, wtype


# ---------------------------------------------------------------------------
# the product criterion


def pairing_at(g: LieSuperalgebra, F: Field, lam: Sequence[int],
               shift_rho: Optional[SimpleSystem] = None):
    """Callable root -> (lam (+rho) | root) as a field element over F.

    Coroot coordinates live in the prime subfield, so base-field coroots
    evaluate unchanged over any extension.
    """
    vals = list(int(v) for v in lam)
    if shift_rho is not None:
        rho_vals = g.weight_on_cartan(shift_rho.rho)
        vals = [F.add(a, int(b)) for a, b in zip(vals, rho_vals)]

    def pair(root: Weight):
        H = g.coroots[root]
        total = 0
        for ci, v in zip(g.cartan, vals):
            total = F.add(total, F.mul(int(H[ci]), int(v)))
        return F.from_code(total)

    return pair


def criterion_value(g: LieSuperalgebra, ss: SimpleSystem, lam: Sequence[int],
                    F: Field) -> int:
    """The product prod_even((lam+rho|a)^{p-1}-1) * prod_odd((lam+rho|b))."""
    pair = pairing_at(g, F, lam, shift_rho=ss)
    return phi_prime_eval(ss, g.p, pair).code


def phi_prime_value(g: LieSuperalgebra, ss: SimpleSystem, lam: Sequence[int],
                    F: Field) -> int:
    """The unshifted product at lam itself (system-dependent only up to a
    global constant)."""
    pair = pairing_at(g, F, lam, shift_rho=None)
    return phi_prime_eval(ss, g.p, pair).code


# ---------------------------------------------------------------------------
# sweeps and reports


def proportionality_report(system: VermaSystem, lset: LambdaSet) -> dict:
    """phi_via_module vs the criterion product across every lambda.

    The two must vanish together, and on the common support their ratio
    must be one fixed nonzero constant.
    """
    F = lset.field
    constant = None
    agree = True
    vanish_match = True
    for lam in lset:
        Z = system.module(lam, F)
        m = Z.phi_via_module()
        c = Z.criterion_value()
        if (m == 0) != (c == 0):
            vanish_match = False
            agree = False
            continue
        if c:
            ratio = F.div(m, c)
            if constant is None:
                constant = ratio
            elif constant != ratio:
                agree = False
    return {
        "algebra": system.g.label,
        "p": system.g.p,
        "chi": list(system.chi.cartan_values()),
        "constant": constant,
        "single_constant": agree,
        "vanishing_match": vanish_match,
        "count": len(lset),
    }


def agreement_sweep(g: LieSuperalgebra, chi: PCharacter,
                    ss: Optional[SimpleSystem] = None, k_max: int = 8,
                    with_heads: bool = False) -> dict:
    """Oracle vs criterion over the full weight set of one character."""
    system = VermaSystem(g, chi, ss)
    lset = lambda_set(g, chi, k_max)
    verdicts = []
    discrepancies = []
    for lam in lset:
        Z = system.module(lam, lset.field)
        v = Z.verdict(with_head=with_heads)
        verdicts.append(v)
        if v["irreducible_oracle"] != v["irreducible_criterion"]:
            discrepancies.append(v)
    return {
        "algebra": g.label,
        "p": g.p,
        "k": lset.k,
        "chi": list(chi.cartan_values()),
        "lambda_count": len(lset),
        "verdicts": verdicts,
        "discrepancies": discrepancies,
        "all_agree": not discrepancies,
    }


def standard_characters(g: LieSuperalgebra) -> dict:
    """The zero / regular-semisimple / non-regular sweep buckets.

    Rank-one algebras have no nonzero non-regular character supported on
    the Cartan; the zero character then represents the non-regular bucket.
    A type with no regular semisimple character over GF(p) (gl(2|2) and
    sl(3|1) at p = 3) has no regular bucket.
    """
    out = {"zero": g.chi_zero()}
    try:
        out["regular_semisimple"] = g.chi_regular_semisimple()
    except RuntimeError:
        pass
    nonreg = g.chi_nonregular_nonzero()
    out["nonregular"] = nonreg if nonreg is not None else g.chi_zero()
    return out


def semisimplicity_check(g: LieSuperalgebra, chi: PCharacter,
                         ss: Optional[SimpleSystem] = None, k_max: int = 8) -> dict:
    """Semisimplicity of U_chi via the full Verma sweep.

    Semisimple iff every baby Verma is irreducible and the Wedderburn
    dimension count matches: sum over lambda of (dim head)^2 weighted by 1
    for type M and 1/2 for type Q equals dim U_chi = p^{n0} 2^{n1}.
    """
    if not chi.is_standard_form():
        raise ValueError("the semisimplicity sweep needs chi in standard form")
    system = VermaSystem(g, chi, ss)
    lset = lambda_set(g, chi, k_max)
    F = lset.field
    dims = []
    types = []
    all_irred = True
    for lam in lset:
        Z = system.module(lam, F)
        if Z.is_irreducible_oracle():
            dims.append(Z.dim)
            types.append(head_of(Z)[1])
        else:
            all_irred = False
            dims.append(Z.head_dim())
            types.append(None)
    target = g.p ** g.dim_even * 2 ** g.dim_odd
    accounted = None
    sum_matches = False
    if all_irred:
        total = 0
        halves = 0
        for d, t in zip(dims, types):
            if t == "Q":
                halves += d * d
            else:
                total += d * d
        if halves % 2 == 0:
            accounted = total + halves // 2
            sum_matches = accounted == target
    verdict = all_irred and sum_matches
    expected = g.is_regular_semisimple(chi)
    return {
        "algebra": g.label,
        "p": g.p,
        "k": lset.k,
        "chi": list(chi.cartan_values()),
        "lambda_count": len(lset),
        "dims": dims,
        "types": types,
        "all_irreducible": all_irred,
        "dimension_sum": accounted,
        "dimension_target": target,
        "semisimple": verdict,
        "expected_regular_semisimple": expected,
        "verdict_matches": verdict == expected,
    }


_REFLECTION_SHIFT = {"type_i": 1, "type_ii": -1, "type_iii": 1}


def reflection_report(g: LieSuperalgebra, chi: PCharacter, delta: Weight,
                      ss: Optional[SimpleSystem] = None, k_max: int = 8) -> dict:
    """Everything the simple reflection at delta must satisfy.

    * the singular vector in Z(lambda) for the reflected system is nonzero
      and annihilated by every reflected-positive root vector;
    * phi computed in the reflected module at the singular-vector weight
      (lambda + delta for types i/iii, lambda - delta for type ii) is
      proportional to phi in the original module, one constant for all
      lambda, with matching vanishing sets;
    * the unshifted products of the two systems are pointwise proportional.
    """
    ss = ss if ss is not None else g.distinguished
    system = VermaSystem(g, chi, ss)
    lset = lambda_set(g, chi, k_max)
    F = lset.field
    kind, _ = ss.classify(delta)
    new_ss = ss.reflect(delta)
    reflected = VermaSystem(g, chi, new_ss)
    shift_sign = _REFLECTION_SHIFT[kind]
    singular_ok = True
    shift_constant = None
    shift_single = True
    shift_vanish = True
    prime_constant = None
    prime_single = True
    for lam in lset:
        Z = system.module(lam, F)
        rep = Z.check_singular(delta)
        if not (rep["nonzero"] and rep["annihilated"]):
            singular_ok = False
        lam2 = shift_lambda(g, F, lam, delta, sign=shift_sign)
        if lam2 not in lset:
            raise RuntimeError("weight set is not stable under the root shift")
        Z2 = reflected.module(lam2, F)
        m1 = Z.phi_via_module()
        m2 = Z2.phi_via_module()
        if (m1 == 0) != (m2 == 0):
            shift_vanish = False
            shift_single = False
        elif m1:
            ratio = F.div(m2, m1)
            if shift_constant is None:
                shift_constant = ratio
            elif shift_constant != ratio:
                shift_single = False
        f1 = phi_prime_value(g, ss, lam, F)
        f2 = phi_prime_value(g, new_ss, lam, F)
        if (f1 == 0) != (f2 == 0):
            prime_single = False
        elif f1:
            ratio = F.div(f2, f1)
            if prime_constant is None:
                prime_constant = ratio
            elif prime_constant != ratio:
                prime_single = False
    return {
        "algebra": g.label,
        "p": g.p,
        "chi": list(chi.cartan_values()),
        "delta": format_weight(delta),
        "reflection_type": kind,
        "singular_vectors_ok": singular_ok,
        "module_shift_constant": shift_constant,
        "module_shift_single_constant": shift_single,
        "module_shift_vanishing_match": shift_vanish,
        "product_constant": prime_constant,
        "product_single_constant": prime_single,
        "count": len(lset),
    }
