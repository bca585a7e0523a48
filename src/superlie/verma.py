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

Every operator is affine in lambda, rho_lambda(x) = C_0(x) +
sum_i lambda(h_i) C_i(x) with fixed C_i over GF(p): straightening
x . (m . v) moves the one letter x rightward through the negative letters
of m, each bracket replaces x by one basis element, and brackets among
negative letters, odd squares and p-th powers give negative letters or
constants.  So a term carries at most one Cartan letter, which meets v as
lambda(h_i).  A module evaluates its whole operator stack from the sparse
(position, slot, code) triples of its system at once.  By PBW, Z is the
coefficient algebra A = U_chi(n^-) as a left A-module, so the C_0 of the
negative letters are A's faithful left-regular representation, free of
lambda: A is commutative iff they pairwise commute.

The weight lattice Lambda_chi = {lambda : lambda(h)^p - lambda(h^{[p]}) =
chi(h)^p} is read off the Frobenius table.  On every supported algebra the
p-map is the identity on the Cartan basis, so each coordinate t = lambda(h)
solves t^p - t = c with c = chi(h)^p in GF(p) on its own.  That equation has
its p roots in GF(p) when c = 0 and first in GF(p^p) otherwise, so the
weight field is GF(p) when chi vanishes on the Cartan and GF(p^p) when it
does not, never a setting.  The roots of one equation form a coset of the
kernel GF(p) of t -> t^p - t, so they are p consecutive codes.  Lambda_chi
is the product of the per-coordinate roots, p^rank weights.  As everywhere
in the package, field values are integer codes of a ``gf.Field``: a weight
is a tuple of codes.  The Frobenius sigma(x) = x^p fixes the GF(p) data of
the equations, so it permutes Lambda_chi, sigma(lambda)_i = lambda_i +
chi(h_i)^p: every orbit has p weights when chi is nonzero on the Cartan and
one otherwise.  The weight set walks its orbits once through the Frobenius
table and raises if an image falls outside it.

Irreducibility is decided two independent ways and compared:
  * oracle: is the head of Z all of Z?  The head comes from one pairing
    matrix per module (below).  h acts diagonally on the PBW basis, with
    lambda-free h-weight grades mod p, and where chi vanishes on n^- the
    pairing matrix is block diagonal over them with square blocks: it is
    certified zero off them, and Z is irreducible iff each block is
    nonsingular, tested in one stacked call per block size;
  * criterion: the Harish-Chandra-style product
    prod_even((lambda+rho|alpha)^{p-1} - 1) * prod_odd((lambda+rho|beta))
    evaluated through coroots, from the codes of the pairings with the
    positive roots.  Roots are indices of the algebra's root system.

The maximal proper submodule (hence the simple head) is read off the same
pairing matrix.  Let A = U_chi(n^-) with radical I.  Z = A . v is free of
rank one over A; when A is local, A / I is a field, and a proper submodule
N with N + IZ = Z would be Z by Nakayama, so every proper submodule lies in
IZ.  Let pi : Z -> Z/IZ.  A acts on Z/IZ through the field A/I and h
through the grade projections, and U_chi(g) = A U_chi(n^+) U_chi(h), so the
maximal submodule is the direct sum over the grades mu of the kernels of
S[:, Z_mu], where S has the rows pi . e^a for the PBW words e^a of n^+
(the Shapovalov form where pi is the coefficient of v), all from one pass
of the transposed letters; phi is the top row of the pass from the
coefficient of v, times the lowest vector.  pi depends on chi:

  * chi vanishing on [n^-, n^-]: replacing each even letter x by
    x - chi(x) yields generators with the same brackets and zero p-th
    powers, so A is local with maximal ideal spanned by the shifted
    nonconstant monomials, and pi is the character x -> chi(x) of A: one
    row, pi(f^b . v) = prod_s chi(x_s)^{b_s}.  When chi = 0 on n^- pi is
    the coefficient of v.
  * A commutative (rank-one supports in small algebras): let P be the matrix
    of m -> m^p on the monomials, read off the letters' operators; its
    entries lie in GF(p).  Then a^(p^r) = 0 exactly when P^r a = 0, so the
    nilradical is the kernel of P^r once p^r >= dim A.  A is local over
    GF(q) = GF(p^k) iff A/nilrad has a one-dimensional Berlekamp subalgebra,
    the kernel of Q - 1 for the q-th power map Q = P^k, and then pi is the
    annihilator of nilrad . v.  The test needs Q and not P: P alone tests
    locality over GF(p), and a residue field GF(p^e) of A stays a field
    over GF(q) only when gcd(e, k) = 1.  The residue fields reached
    today are GF(p) and GF(p^2) (osp(1|2) with chi on X_{-2delta}), and k is
    1 or the odd prime p, so the two tests agree there and the reference
    oracle cannot tell them apart.

Each strategy certifies its own applicability and raises otherwise.

The reports of one run read a ``VermaLedger`` per (chi, simple system),
which computes the system, the weight set and each module's phi, criterion
value, oracle verdict, head dimension and head Walls type at most once, and
only when a report shows it.  Every template code lies in GF(p), so the
stack at sigma(lambda) is sigma of the stack at lambda, entrywise, and so
are the pairing matrix, its kernels and the head (pi's rows are fixed by
sigma, and reduced echelon forms commute with a field automorphism).
So the oracle verdict, the head dimension and the Walls type are constant on
each orbit, and phi, a GF(p)-polynomial in lambda, satisfies phi(sigma
lambda) = sigma(phi(lambda)).  The ledger computes these facts at one
representative per orbit and carries them to the other weights, exactly:
the criterion, cheap and independent, is computed at every weight.  Each
ledger first certifies stack(sigma . rep) = sigma(stack(rep)) on one orbit,
which a template code outside GF(p) breaks.
"""

from __future__ import annotations

import itertools
from typing import Optional, Sequence

import numpy as np

from . import linalg as la
from .envelope import DeformedAlgebra
from .gf import MAX_FIELD_ORDER, Field, field_create, mod_p
from .liesuper import LieSuperalgebra, PCharacter
from .rootsys import InvariantViolation, SimpleSystem, phi_prime_eval


# ---------------------------------------------------------------------------
# the weight set Lambda_chi


class LambdaSet:
    """All weights lambda with lambda(h)^p - lambda(h^{[p]}) = chi(h)^p, with
    their orbits under the Frobenius sigma, which permutes them."""

    def __init__(self, field: Field, weights: list[tuple[int, ...]]):
        self.field = field
        self.k = field.k
        self.weights = list(weights)
        self._set = set(self.weights)
        self._orbits: Optional[dict[tuple, tuple[tuple, int]]] = None

    def orbit(self, lam: tuple) -> tuple[tuple, int]:
        """(rep, j) with lam = sigma^j(rep), rep the first weight of lam's
        sigma-orbit in the set's order."""
        if self._orbits is None:
            self._orbits = self._walk()
        return self._orbits[lam]

    def _walk(self) -> dict[tuple, tuple[tuple, int]]:
        """Each weight's orbit, walked once through ``Field._frob``; a sigma
        image outside the set raises ``InvariantViolation``."""
        frob, orbits = self.field._frob, {}
        for rep in self.weights:
            lam, j = rep, 0
            while lam not in orbits:  # sigma is injective, so the walk closes at rep
                orbits[lam] = rep, j
                image = tuple(frob[list(lam)].tolist())
                if image not in self._set:
                    raise InvariantViolation(f"sigma({list(lam)}) = {list(image)} is not "
                                             "in the weight set")
                lam, j = image, j + 1
        return orbits

    def __len__(self) -> int:
        return len(self.weights)

    def __iter__(self):
        return iter(self.weights)

    def __contains__(self, lam: tuple) -> bool:
        return tuple(int(v) for v in lam) in self._set


def cartan_p_matrix(g: LieSuperalgebra) -> np.ndarray:
    """Matrix P with h_i^{[p]} = sum_j P[i,j] h_j on the Cartan basis."""
    rows = g.p_map[g.cartan]
    if np.delete(rows, g.cartan, axis=1).any():
        raise RuntimeError("Cartan is not closed under the p-th power map")
    return rows[:, g.cartan]


def lambda_residual(g: LieSuperalgebra, F: Field, lam: Sequence[int],
                    chi_h: Sequence[int], P: np.ndarray) -> np.ndarray:
    """lambda(h_i)^p - lambda(h_i^{[p]}) - chi(h_i)^p per Cartan index, for
    one weight or for each row of an array of weights (one product)."""
    lam = np.asarray(lam, dtype=np.int64)
    rows = lam.reshape(-1, lam.shape[-1])
    lhs = F.sub_arr(F._frob[rows], la.matmul(F, rows, P.T))
    return F.sub_arr(lhs, F._frob[np.asarray(chi_h, dtype=np.int64)]).reshape(lam.shape)


class PMapNotIdentity(RuntimeError):
    """The Cartan p-map is not the identity, so lambda(h) do not decouple."""


class ExtensionCapExceeded(RuntimeError):
    """The weight set needs a field of order above ``gf.MAX_FIELD_ORDER``."""


class IncompatibleBorel(ValueError):
    """chi does not vanish on the positive nilradical of the simple system."""


def coset_roots(F: Field, values: Sequence[int]) -> list[range]:
    """The codes of the roots in F of t^p - t = c, for each code c of values.

    t -> t^p - t is additive with kernel GF(p), so the roots of one equation
    form a coset t_0 + GF(p).  Adding a prime-field constant changes only the
    constant digit, so the coset holds exactly one code with constant digit
    0, its least, and the roots are that code and the p - 1 codes after it.
    One difference of the Frobenius table over the q / p codes of constant
    digit 0 finds every such code; a value with no root in F raises."""
    bases = np.arange(0, F.q, F.p)
    images = F.sub_arr(F._frob[bases], bases)
    roots = []
    for c in values:
        hit = bases[images == c]
        if hit.size != 1:
            raise InvariantViolation(f"t^p - t = {c} has {hit.size} roots of "
                                     f"constant digit 0 in {F}, not one")
        roots.append(range(int(hit[0]), int(hit[0]) + F.p))
    return roots


def lambda_set(g: LieSuperalgebra, chi: PCharacter) -> LambdaSet:
    """Read the weight set off the Frobenius table, coordinate by coordinate.

    With h_i^{[p]} = h_i each lambda(h_i) is a root of t^p - t = chi(h_i)^p.
    The field is GF(p) when every chi(h_i) is 0 and GF(p^p) otherwise, the
    least that holds the roots of every coordinate; above
    ``gf.MAX_FIELD_ORDER`` it raises ``ExtensionCapExceeded``.  Only the
    Cartan values of chi enter the equations.  The base algebra must live
    over the prime field so that its structure codes embed unchanged into
    every extension.  Every weight is certified by ``lambda_residual``.
    """
    if g.F.k != 1:
        raise ValueError("lambda solving expects the algebra over the prime field")
    p = g.p
    P = cartan_p_matrix(g)
    if not (P == la.eye(g.rank)).all():
        raise PMapNotIdentity(
            f"the p-map of {g.label} is not the identity on the Cartan; "
            "the weight equations do not decouple"
        )
    chi_h = [int(v) for v in chi.cartan_values()]
    rhs = [g.F.pow_int(c, p) for c in chi_h]
    k = p if any(rhs) else 1
    if p ** k > MAX_FIELD_ORDER:
        raise ExtensionCapExceeded(
            f"the weight set needs GF({p}^{k}), of order {p ** k}, above "
            f"MAX_FIELD_ORDER = {MAX_FIELD_ORDER}"
        )
    F = g.F if k == 1 else field_create(p, k)
    # prime-field codes embed unchanged into F; roots come sorted by code
    weights = list(itertools.product(*coset_roots(F, rhs)))
    if lambda_residual(g, F, weights, chi_h, P).any():
        raise InvariantViolation("weight fails its defining equation")
    return LambdaSet(F, weights)


def shift_lambda(F: Field, lam: Sequence[int], values: Sequence[int],
                 sign: int = 1) -> tuple[int, ...]:
    """lambda + sign * w on the Cartan, as field codes, for the values of w
    on the Cartan basis."""
    shift = F.smul_arr(sign % F.p, np.asarray(values, dtype=np.int64))
    return tuple(F.add_arr(np.asarray(lam, dtype=np.int64), shift).tolist())


# ---------------------------------------------------------------------------
# the module template (one straightening pass shared by every lambda)


def _pbw_words(F: Field, letters: np.ndarray, exponents: np.ndarray,
               cols: np.ndarray) -> np.ndarray:
    """Column j of ``cols`` times the PBW word prod_s letters[s]^exponents[j, s],
    in place: the rightmost letter acts first, one product per (slot, power)."""
    for s in reversed(range(len(letters))):
        for e in range(1, int(exponents[:, s].max()) + 1):
            hit = exponents[:, s] >= e
            cols[:, hit] = la.matmul(F, letters[s], cols[:, hit])
    return cols


def _all_words(F: Field, letters: np.ndarray, caps: Sequence[int], start: np.ndarray) -> np.ndarray:
    """Every PBW word prod_s letters[s]^{b_s}, b_s < caps[s], times the columns
    of ``start``, as column b * r + j for basis index b and start column j:
    the rightmost letter acts first, and each slot takes the powers of all
    the words the later slots formed at once, one product per power."""
    cols = start
    for s in reversed(range(len(letters))):
        powers = [cols]
        for _ in range(caps[s] - 1):
            powers.append(la.matmul(F, letters[s], powers[-1]))
        cols = np.concatenate(powers, axis=1)
    return cols


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
                raise IncompatibleBorel(
                    f"chi does not vanish on the positive root vector X_{g.rs.labels[a]}"
                )
        # engine slots: X_{-alpha_N}, ..., X_{-alpha_1}, Cartan, X_{alpha_1}, ...
        self.neg_indices = [g.root_index[g.rs.neg[a]] for a in reversed(self.positives)]
        self.pos_indices = [g.root_index[a] for a in self.positives]
        order = self.neg_indices + list(g.cartan) + self.pos_indices
        self.U = DeformedAlgebra(g, xi=chi, lam=1, order=order)
        self.caps = list(self.U.slot_cap[: self.N])
        self.slot_parities = [int(g.parities[b]) for b in self.neg_indices]
        self.basis = list(itertools.product(*[range(c) for c in self.caps]))
        self.index = {m: i for i, m in enumerate(self.basis)}
        self.dim = len(self.basis)
        self.exponents = np.array(self.basis, dtype=np.int64).reshape(self.dim, self.N)
        self.parities = self.exponents @ self.slot_parities & 1  # of each basis vector
        self.highest_index = self.index[(0,) * self.N]
        self._templates: dict[tuple[int, tuple], tuple] = {}
        self._affine: Optional[tuple[np.ndarray, ...]] = None
        self._pis: dict[Field, np.ndarray] = {}
        self._lowest: Optional[np.ndarray] = None
        self.chi_kills_neg = not any(self._neg_chi_values())
        self._blocks: Optional[tuple] = None

    def template(self, gen_idx: int, mono: tuple) -> tuple:
        """Symbolic expansion of x_gen . (mono . v) before lambda evaluation.

        Entries are (negative part, Cartan exponents, prime-field code);
        monomials with positive-part letters are dropped since they kill v.
        """
        key = (gen_idx, mono)
        hit = self._templates.get(key)
        if hit is not None:
            return hit
        U, N, r = self.U, self.N, self.g.rank
        prod = U.multiply(U.gen(gen_idx), {self.index[mono] * U._weight[N - 1]: 1})
        entries = []
        for i, code in prod.items():
            fm = U._exponents(i)
            if any(fm[N + r:]):
                continue
            entries.append((fm[:N], fm[N:N + r], int(code)))
        out = tuple(entries)
        self._templates[key] = out
        return out

    def _affine_template(self) -> tuple[np.ndarray, ...]:
        """Every template entry as a sparse affine triple, flattened once.

        Returns (positions, where, slots, codes): entry e adds
        codes[e] * (1, lambda_1, ..., lambda_r)[slots[e]] at the flat index
        positions[where[e]] of the (dim g, dim, dim) operator stack.
        """
        if self._affine is None:
            n = self.dim
            pos, slots, codes = [], [], []
            for gen in range(self.g.dim):
                for src, mono in enumerate(self.basis):
                    for neg, cart, code in self.template(gen, mono):
                        if sum(cart) > 1:
                            raise InvariantViolation(f"the template of generator {gen} "
                                                     "is not affine in lambda")
                        pos.append((gen * n + self.index[neg]) * n + src)
                        slots.append(cart.index(1) + 1 if any(cart) else 0)
                        codes.append(code)
            positions, where = np.unique(np.array(pos, dtype=np.int64), return_inverse=True)
            self._affine = (positions, where, np.array(slots, dtype=np.int64),
                            np.array(codes, dtype=np.int64))
            self._templates.clear()  # a system kept for a run holds only the arrays
        return self._affine

    def evaluate(self, F: Field, lam: Sequence[int]) -> np.ndarray:
        """The read-only stack (dim g, dim, dim) of every generator's operator
        on Z_chi(lam) over F: one gather of (1, lam), one product, and one sum
        over repeated positions on the digit planes."""
        positions, where, slots, codes = self._affine_template()
        values = F.mul_arr(codes, np.array((1, *lam), dtype=np.int64)[slots])
        digits = la.zeros((positions.size, F.k))
        np.add.at(digits, where, F._digits[values])
        stack = la.zeros(self.g.dim * self.dim ** 2)
        stack[positions] = mod_p(digits, F.p) @ F._pows
        stack = stack.reshape(self.g.dim, self.dim, self.dim)
        stack.flags.writeable = False
        return stack

    def _neg_chi_values(self) -> list[int]:
        return [int(self.chi.values[b]) for b in self.neg_indices]

    def _chi_kills_neg_brackets(self) -> bool:
        neg = self.neg_indices
        return not self.chi.value(self.g.bracket_tensor[np.ix_(neg, neg)]).any()

    def _negative_letters(self) -> np.ndarray:
        """The negative letters' operators over GF(p) in slot order, free of lambda."""
        positions, where, slots, _ = self._affine_template()
        on_letters = np.isin(positions[where] // self.dim ** 2, self.neg_indices)
        if slots[on_letters].any():
            raise InvariantViolation("lambda enters the action of a negative root vector")
        return self.evaluate(self.g.F, (0,) * self.g.rank)[self.neg_indices]

    def lowest_vector(self) -> np.ndarray:
        """w = X_{-alpha_1}^{m_1} ... X_{-alpha_N}^{m_N} . v over GF(p), read-only:
        the letters are free of lambda, so w is that of every module."""
        if self._lowest is None:
            # X_{-alpha_1}, ..., X_{-alpha_N}, the last acting first
            vec = _pbw_words(self.g.F, self._negative_letters()[::-1], self.exponents[-1:, ::-1],
                             la.eye(self.dim)[:, [self.highest_index]])[:, 0]
            if not vec.any():
                raise InvariantViolation("lowest vector vanished — PBW violation")
            vec.flags.writeable = False
            self._lowest = vec
        return self._lowest

    def pairing_blocks(self) -> tuple[np.ndarray, dict]:
        """The lambda-free h-weight grades mod p of the PBW basis as blocks of
        the pairing matrix: (mask of the entries off every block, {s: (B_s, s)
        indices of the grades of size s}).

        With beta_s the weight of the positive root whose negative sits in
        slot s, basis vector f^b . v has grade -sum b_s beta_s.  Where pi is
        the coefficient of v, row a of the pairing matrix has the grade of
        column a."""
        if self._blocks is None:
            beta = self.g.root_weights[self.positives[::-1]]
            keys = -self.exponents @ beta % self.g.p @ self.g.p ** np.arange(self.g.rank)
            counts = np.unique(keys, return_counts=True)[1]
            order, starts = np.argsort(keys, kind="stable"), np.cumsum(counts) - counts
            blocks = {s: order[starts[counts == s][:, None] + np.arange(s)]
                      for s in sorted(set(counts.tolist()))}  # np.unique(counts) imports numpy.ma: 0.5 MB
            self._blocks = keys[:, None] != keys[None, :], blocks
        return self._blocks

    def _coefficient_algebra(self) -> tuple[np.ndarray, bool]:
        """(P, commutative) for A = U_chi(n^-) from the letters' operators L_s:
        L_m = L_1^{e_1} ... L_N^{e_N} carries the unit to m, and column m of
        the p-th-power matrix P is L_m^p applied to the unit (prime codes)."""
        Fp, d, N = self.g.F, self.dim, self.N
        L = self._negative_letters()
        # one product: LL[s, :, t, :] = L_s L_t
        LL = la.matmul(Fp, L.reshape(N * d, d), L.transpose(1, 0, 2).reshape(d, N * d))
        LL = LL.reshape(N, d, N, d)
        commutative = bool((LL == LL.transpose(2, 1, 0, 3)).all())
        P = la.zeros((d, d))
        P[self.highest_index] = 1  # every column starts at the unit of A
        for rnd in range(self.g.p):  # column m: m, m^2, ..., m^p
            _pbw_words(Fp, L, self.exponents, P)
            if rnd == 0 and not np.array_equal(P, la.eye(d)):
                raise InvariantViolation("the letters do not carry 1 to every PBW monomial")
        return P, commutative

    def _commutative_radical_rows(self, F: Field) -> np.ndarray:
        """Nilradical of commutative A = U_chi(n^-), certified local.

        For commutative A in characteristic p, (sum c_i m_i)^p =
        sum c_i^p m_i^p, and the p-th powers of the monomials have
        prime-field coefficients.  So with P the matrix of m -> m^p,
        a^(p^r) = 0 iff P^r a = 0, and r with p^r >= dim A cuts out exactly
        the nilpotent elements.  Over GF(q) the q-th power map is linear,
        with matrix P^k, and locality is certified by a one-dimensional
        Berlekamp subalgebra ker(P^k - 1) of A/nilrad.
        """
        P, commutative = self._coefficient_algebra()
        if not commutative:
            raise RuntimeError(
                "no certified maximal-submodule ambient: chi has constants in "
                "odd squares and the coefficient algebra is noncommutative"
            )
        d = self.dim

        def power(e: int) -> np.ndarray:
            out = P
            for _ in range(e - 1):
                out = la.matmul(F, out, P)
            return out

        r = 1
        while F.p ** r < d:
            r += 1
        rad = la.row_space_basis(F, la.nullspace(F, power(r)))
        rad_basis = la.EchelonBasis(F, rad)
        compl = [t for t in range(d) if t not in rad_basis.pivots]
        if not compl:
            raise InvariantViolation("coefficient algebra has zero quotient")
        # one row e_t^q - e_t per monomial t outside the radical's pivots
        images = F.sub_arr(power(F.k), la.eye(d))[:, compl].T
        B = rad_basis.reduce(images)[:, compl].T
        if la.nullspace(F, B).shape[0] != 1:
            raise RuntimeError(
                "coefficient algebra is not local over this field; the maximal "
                "submodule is not unique and the head is left uncomputed"
            )
        return rad

    def _pi_rows(self, F: Field) -> np.ndarray:
        """Rows over F of pi : Z -> Z/IZ for the radical I of A, one row or, with
        A local over a larger residue field, more; built once per field and
        shared read-only.

        With chi([n^-, n^-]) = 0 the letters x_s - c_s, c_s = chi(x_s), span
        the maximal ideal of A, so pi is the character x_s -> c_s of A:
        pi(f^b . v) = prod_s c_s^{b_s}, with 0^0 = 1, the PBW words of the
        scalars c_s on 1.  A p-character vanishes on the odd letters."""
        rows = self._pis.get(F)
        if rows is None:
            if self._chi_kills_neg_brackets():
                scalars = np.array(self._neg_chi_values())[:, None, None]
                rows = _all_words(self.g.F, scalars, self.caps, la.eye(1))
            else:
                rows = la.nullspace(F, self._commutative_radical_rows(F))
            rows.flags.writeable = False
            self._pis[F] = rows
        return rows


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
        self._stack: Optional[np.ndarray] = None
        self._last_words: Optional[tuple[np.ndarray, np.ndarray]] = None
        self._singular: Optional[list] = None
        self._max_submodule: Optional[np.ndarray] = None

    # -- actions ---------------------------------------------------------------

    def operators(self) -> np.ndarray:
        """The read-only (dim g, dim, dim) stack of every generator's operator."""
        if self._stack is None:
            self._stack = self.system.evaluate(self.F, self.lam)
        return self._stack

    def action_matrix(self, gen_idx: int) -> np.ndarray:
        return self.operators()[gen_idx]

    def act(self, gen_idx: int, vec: np.ndarray) -> np.ndarray:
        return la.matvec(self.F, self.action_matrix(gen_idx), vec)

    # -- distinguished vectors -------------------------------------------------

    def highest_vector(self) -> np.ndarray:
        v = la.zeros(self.dim)
        v[self.highest_index] = 1
        return v

    def lowest_vector(self) -> np.ndarray:
        """X_{-alpha_1}^{m_1} ... X_{-alpha_N}^{m_N} . v, shared by the system."""
        return self.system.lowest_vector()

    def phi_via_module(self) -> int:
        """Coefficient of v in X_{alpha_1}^{m_1} ... X_{alpha_N}^{m_N} . lowest:
        the top row of the words on the coefficient of v, times the lowest
        vector."""
        top = self._words(la.eye(self.dim)[[self.highest_index]])[-1:]
        return int(la.matmul(self.F, top, self.lowest_vector()[:, None])[0, 0])

    # -- submodules ------------------------------------------------------------

    def _words(self, rows: np.ndarray) -> np.ndarray:
        """[rows_i . e^a] for every PBW word e^a of n^+ read in n^+ order, as
        row a * len(rows) + i, from one pass of the transposed n^+ letters in
        reverse order.  The last pass is kept: where pi is the coefficient of
        v, phi and the pairing matrix share it."""
        if self._last_words is None or not np.array_equal(self._last_words[0], rows):
            letters = self.operators()[self.system.pos_indices].transpose(0, 2, 1)[::-1]
            self._last_words = rows, _all_words(self.F, letters, self.system.caps, rows.T).T
        return self._last_words[1]

    def pairing_matrix(self) -> np.ndarray:
        """S with row (a, i) = pi_i . e^a, for pi : Z -> Z/IZ."""
        return self._words(self.system._pi_rows(self.F))

    def _singular_grades(self) -> list[tuple]:
        """(columns, S[:, columns]) of S, the pairing matrix, over each grade
        where it has a kernel.  Where chi vanishes on n^-, S is certified zero
        off its square grade blocks, and the singular ones are found in one
        stacked test per block size, with no elimination."""
        if self._singular is None:
            F, S = self.F, self.pairing_matrix()
            off, blocks = self.system.pairing_blocks()
            if not self.system.chi_kills_neg:
                self._singular = [(at, S[:, at]) for idx in blocks.values() for at in idx
                                  if la.rank(F, S[:, at]) < at.size]
            elif S[off].any():
                raise InvariantViolation(f"the pairing matrix at lambda = {list(self.lam)} is "
                                         "not block diagonal over the weight grades")
            else:  # one call per block size, always
                squares = {s: S[idx[:, :, None], idx[:, None, :]] for s, idx in blocks.items()}
                self._singular = [(blocks[s][i], squares[s][i]) for s in blocks
                                  for i in np.flatnonzero(~la.nonsingular(F, squares[s]))]
        return self._singular

    def is_irreducible_oracle(self) -> bool:
        """Whether every grade block of the pairing matrix has full rank, so
        that the maximal submodule is zero."""
        return not self._singular_grades()

    def maximal_submodule(self) -> np.ndarray:
        """Echelon rows of the unique maximal proper submodule: the direct sum
        over the grades mu of the kernels of S[:, Z_mu]."""
        if self._max_submodule is None:
            kernels = [la.zeros((0, self.dim))] + [
                la.nullspace(self.F, block) @ la.eye(self.dim)[cols]  # in Z's coordinates
                for cols, block in self._singular_grades()]
            self._max_submodule = la.row_space_basis(self.F, np.concatenate(kernels))
        return self._max_submodule

    def head_dim(self) -> int:
        return self.dim - self.maximal_submodule().shape[0]

    def quotient_representation(self) -> tuple[np.ndarray, np.ndarray]:
        """(operator stack, parity involution) of Z / maximal submodule."""
        F, n = self.F, self.dim
        sub = la.EchelonBasis(F, self.maximal_submodule())
        compl = np.delete(np.arange(n), sub.pivots)
        # every generator's kept columns, projected along the submodule at once
        kept = self.operators()[:, :, compl].transpose(0, 2, 1).reshape(-1, n)
        reduced = sub.reduce(kept)[:, compl].reshape(self.g.dim, compl.size, compl.size)
        S = np.diag(np.where(self.system.parities[compl], F.neg(1), 1))
        return reduced.transpose(0, 2, 1), S

    def head_type(self) -> str:
        """The Walls type of the head, via the certified maximal submodule."""
        return walls_type(self.F, *self.quotient_representation(), self.g.parities, self.g.cartan)

    # -- verdicts --------------------------------------------------------------

    def criterion_value(self) -> int:
        return criterion_value(self.g, self.ss, self.lam, self.F)

    # -- reflection helpers ----------------------------------------------------

    def singular_vector(self, delta: int) -> tuple[np.ndarray, str]:
        """The singular vector attached to the simple reflection at delta.

        type i (even delta): X_{-delta}^{p-1} v; type ii (isotropic odd):
        X_{-delta} v; type iii (odd with 2delta a root):
        X_{-delta} X_{-2delta}^{p-1} v.
        """
        kind, star = self.ss.classify(delta)  # star: (delta,) or (delta, 2 delta)
        idx = [self.g.root_index[self.g.rs.neg[a]] for a in star]
        exps = np.array([[1 if self.g.parities[i] else self.g.p - 1 for i in idx]])
        vec = _pbw_words(self.F, self.operators()[idx], exps, self.highest_vector()[:, None])
        return vec[:, 0], kind

    def check_singular(self, delta: int) -> dict:
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


def walls_type(F: Field, ops: np.ndarray, parity_op: np.ndarray, parities: np.ndarray,
               cartan: Sequence[int]) -> str:
    """"Q" when the simple module admits an odd endomorphism, else "M".

    ops stacks the generators' operators; the parities array splits it.  An
    odd T satisfies T rho(a) = (-1)^|a| rho(a) T and anticommutes with the
    parity involution, so T e_0 has the other parity and lies in e_0's weight
    space under the Cartan operators ops[cartan], read off their diagonals
    (``InvariantViolation`` if they or the involution are not diagonal).
    T -> T e_0 is a bijection onto the kernel ``linalg.supercommutant_basis``
    solves on those coordinates alone, none on most heads.  The spin of e_0
    runs even then: a head that e_0 does not span raises ``InvariantViolation``.
    """
    diagonal = np.concatenate([ops[list(cartan)], parity_op[None]])
    if (diagonal * (1 - la.eye(parity_op.shape[0]))).any():
        raise InvariantViolation("a Cartan operator or the parity involution is not diagonal")
    d = diagonal.diagonal(axis1=1, axis2=2)
    reach = np.flatnonzero((d[:-1] == d[:-1, :1]).all(axis=0) & (d[-1] != d[-1, :1]))
    odd = la.supercommutant_basis(F, ops[parities == 0], ops[parities == 1], parity_op, reach)
    return "Q" if len(odd) else "M"


# ---------------------------------------------------------------------------
# the product criterion


def pairing_at(g: LieSuperalgebra, ss: SimpleSystem, lam: Sequence[int],
               F: Field) -> list[int]:
    """(lam | a) for every positive root a of ss, as codes over F, aligned
    with ``ss.positive_roots``."""
    return g.coroot_value(F, lam, ss.positive_roots).tolist()


def criterion_value(g: LieSuperalgebra, ss: SimpleSystem, lam: Sequence[int],
                    F: Field) -> int:
    """The product prod_even((lam+rho|a)^{p-1}-1) * prod_odd((lam+rho|b))."""
    shifted = shift_lambda(F, lam, g.weight_on_cartan(*ss.rho))
    return phi_prime_eval(ss, F, pairing_at(g, ss, shifted, F))


def phi_prime_value(g: LieSuperalgebra, ss: SimpleSystem, lam: Sequence[int],
                    F: Field) -> int:
    """The unshifted product at lam itself (system-dependent only up to a
    global constant)."""
    return phi_prime_eval(ss, F, pairing_at(g, ss, lam, F))


# ---------------------------------------------------------------------------
# the ledger: each module's facts, computed once per run


def _recall(memo: dict, key, compute):
    """memo[key], computed on first use; a computation that raised raises the
    same exception again."""
    if key not in memo:
        try:
            memo[key] = compute()
        except Exception as exc:
            memo[key] = exc
    if isinstance(memo[key], Exception):
        raise memo[key]
    return memo[key]


# The facts read off the operator stack.  stack(sigma . lambda) is sigma of
# stack(lambda) entrywise, so ranks, dimensions and Walls types are the same
# along a sigma-orbit, and phi, a GF(p)-polynomial in lambda, goes through the
# Frobenius.  Any other fact (the criterion) is computed at its own weight.
# Facts are matched by method name, which a functools.wraps wrapper keeps.
_SIGMA_INVARIANT = ("head_dim", "is_irreducible_oracle", "head_type")
_SIGMA_EQUIVARIANT = ("phi_via_module",)


class VermaLedger:
    """One run's facts about every Z_chi(lambda) over one (chi, simple system).

    The system, the weight set (given when another system's ledger already
    holds it, orbits included) and each module's scalar facts are computed
    on first request.  A fact read off the operator stack is computed at the
    representative of lambda's sigma-orbit and carried to lambda, after one
    certificate per ledger that the stack is sigma-equivariant.  A module is
    built only for a missing fact and kept until another lambda's module is
    built.
    """

    def __init__(self, g: LieSuperalgebra, chi: PCharacter, *,
                 ss: Optional[SimpleSystem] = None, lset: Optional[LambdaSet] = None):
        self.g, self.chi = g, chi
        self.ss = ss if ss is not None else g.distinguished
        self._memo: dict = {} if lset is None else {"lset": lset}
        self._facts: dict[tuple, dict] = {}
        self._module: Optional[BabyVerma] = None

    @property
    def system(self) -> VermaSystem:
        return _recall(self._memo, "system", lambda: VermaSystem(self.g, self.chi, self.ss))

    @property
    def lset(self) -> LambdaSet:
        return _recall(self._memo, "lset", lambda: lambda_set(self.g, self.chi))

    def module(self, lam: tuple) -> BabyVerma:
        """Z(lam) for a weight of the set, which needs no second check."""
        if self._module is None or self._module.lam != lam:
            self._module = BabyVerma(self.system, lam, self.lset.field)
        return self._module

    def facts(self, lam: tuple, *methods) -> list:
        """The values at Z(lam), lam a weight of the set, of the given scalar
        ``BabyVerma`` methods."""
        rep, j = self.lset.orbit(lam)
        frob = self.lset.field._frob
        out = []
        for m in methods:
            if m.__name__ not in _SIGMA_INVARIANT + _SIGMA_EQUIVARIANT:
                out.append(self._fact(lam, m))
                continue
            value = self._fact(rep, m, stacked=True)
            if m.__name__ in _SIGMA_EQUIVARIANT:
                for _ in range(j):
                    value = int(frob[value])
            out.append(value)
        return out

    def _fact(self, lam: tuple, m, stacked: bool = False):
        memo = self._facts.setdefault(lam, {})
        if stacked and m not in memo:
            image = tuple(self.lset.field._frob[list(lam)].tolist())
            if image != lam:
                _recall(self._memo, "equivariance", lambda: self._certify(lam, image))
        return _recall(memo, m, lambda: m(self.module(lam)))

    def _certify(self, rep: tuple, image: tuple) -> bool:
        """stack(sigma . rep) = sigma(stack(rep)) entrywise, on the first orbit
        of size > 1 whose facts are computed; the stack at rep is the one its
        facts read, so the certificate costs one evaluation."""
        F = self.lset.field
        if not np.array_equal(F._frob[self.module(rep).operators()],
                              self.system.evaluate(F, image)):
            raise InvariantViolation(f"the stack at sigma(lambda) = {list(image)} is not sigma "
                                     f"of the stack at lambda = {list(rep)}")
        return True


# ---------------------------------------------------------------------------
# sweeps and reports


def _proportionality(F: Field, pairs) -> tuple[Optional[int], bool, bool]:
    """(constant, single constant, vanishing match) of (num, den) pairs.

    num and den must vanish together, and where neither vanishes num / den
    must be one constant; a vanishing mismatch also breaks the constant.
    """
    constant, single, vanish = None, True, True
    for num, den in pairs:
        if (num == 0) != (den == 0):
            single = vanish = False
        elif den:
            ratio = F.div(num, den)
            if constant is None:
                constant = ratio
            elif constant != ratio:
                single = False
    return constant, single, vanish


def proportionality_report(ledger: VermaLedger) -> dict:
    """phi_via_module vs the criterion product across every lambda.

    The two must vanish together, and on the common support their ratio
    must be one fixed nonzero constant.
    """
    system, lset = ledger.system, ledger.lset
    pairs = [ledger.facts(lam, BabyVerma.phi_via_module, BabyVerma.criterion_value)
             for lam in lset]
    constant, single, vanish = _proportionality(lset.field, pairs)
    return {
        "algebra": system.g.label,
        "p": system.g.p,
        "constant": constant,
        "single_constant": single,
        "vanishing_match": vanish,
        "count": len(lset),
    }


def agreement_sweep(ledger: VermaLedger) -> dict:
    """Oracle vs criterion over the full weight set of one character."""
    g, system, lset = ledger.g, ledger.system, ledger.lset
    common = {"algebra": g.label, "p": g.p, "k": lset.k, "chi": list(ledger.chi.cartan_values())}
    verdicts = []
    for lam in lset:
        phi_m, phi_c, oracle = ledger.facts(lam, BabyVerma.phi_via_module,
                                            BabyVerma.criterion_value,
                                            BabyVerma.is_irreducible_oracle)
        verdicts.append({**common, "lambda": list(lam), "dimZ": system.dim,
                         "phi_module": phi_m, "phi_product": phi_c,
                         "irreducible_oracle": oracle, "irreducible_criterion": phi_c != 0})
    discrepancies = [v for v in verdicts
                     if v["irreducible_oracle"] != v["irreducible_criterion"]]
    return {**common, "lambda_count": len(lset), "verdicts": verdicts,
            "discrepancies": discrepancies, "all_agree": not discrepancies}


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


def semisimplicity_check(ledger: VermaLedger) -> dict:
    """Semisimplicity of U_chi via the full Verma sweep.

    Semisimple iff every baby Verma is irreducible and the Wedderburn
    dimension count matches: sum over lambda of (dim head)^2 weighted by 1
    for type M and 1/2 for type Q equals dim U_chi = p^{n0} 2^{n1}.
    """
    g, chi = ledger.g, ledger.chi
    if not chi.is_standard_form():
        raise ValueError("the semisimplicity sweep needs chi in standard form")
    system, lset = ledger.system, ledger.lset
    dims, types = [], []  # the Walls type only of the simple modules
    for lam in lset:
        (hdim,) = ledger.facts(lam, BabyVerma.head_dim)
        dims.append(hdim)
        types.append(ledger.facts(lam, BabyVerma.head_type)[0] if hdim == system.dim else None)
    all_irred = None not in types
    target = g.p ** g.dim_even * 2 ** g.dim_odd
    halves = sum(d * d for d, t in zip(dims, types) if t == "Q")
    accounted = None
    if all_irred and halves % 2 == 0:
        accounted = sum(d * d for d, t in zip(dims, types) if t != "Q") + halves // 2
    verdict = all_irred and accounted == target
    expected = g.is_regular_semisimple(chi)
    return {
        "algebra": g.label,
        "p": g.p,
        "k": lset.k,
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


def reflection_report(ledger: VermaLedger, delta: int) -> dict:
    """Everything the simple reflection at delta must satisfy.

    * the singular vector in Z(lambda) for the reflected system is nonzero
      and annihilated by every reflected-positive root vector;
    * phi computed in the reflected module at the singular-vector weight
      (lambda + delta for types i/iii, lambda - delta for type ii) is
      proportional to phi in the original module, one constant for all
      lambda, with matching vanishing sets;
    * the unshifted products of the two systems are pointwise proportional.
    """
    g, ss, lset = ledger.g, ledger.ss, ledger.lset
    F = lset.field
    kind, _ = ss.classify(delta)
    reflected = VermaLedger(g, ledger.chi, ss=ss.reflect(delta), lset=lset)
    shift_sign = _REFLECTION_SHIFT[kind]
    singular_ok = True
    shift_pairs = []
    prime_pairs = []
    for lam in lset:
        # the singular vector at sigma . lambda is sigma of the one at lambda
        if lset.orbit(lam)[1] == 0:
            rep = ledger.module(lam).check_singular(delta)
            if not (rep["nonzero"] and rep["annihilated"]):
                singular_ok = False
        lam2 = shift_lambda(F, lam, g.root_weights[delta], sign=shift_sign)
        if lam2 not in lset:
            raise RuntimeError("weight set is not stable under the root shift")
        shift_pairs.append((*reflected.facts(lam2, BabyVerma.phi_via_module),
                            *ledger.facts(lam, BabyVerma.phi_via_module)))
        prime_pairs.append((phi_prime_value(g, reflected.ss, lam, F),
                            phi_prime_value(g, ss, lam, F)))
    shift_constant, shift_single, shift_vanish = _proportionality(F, shift_pairs)
    prime_constant, prime_single, _ = _proportionality(F, prime_pairs)
    return {
        "algebra": g.label,
        "p": g.p,
        "delta": g.rs.labels[delta],
        "reflection_type": kind,
        "singular_vectors_ok": singular_ok,
        "module_shift_constant": shift_constant,
        "module_shift_single_constant": shift_single,
        "module_shift_vanishing_match": shift_vanish,
        "product_constant": prime_constant,
        "product_single_constant": prime_single,
        "count": len(lset),
    }
