"""Concrete restricted Lie superalgebras over GF(p^k).

Each algebra is realized by explicit matrices inside a general linear
superalgebra whose first rows form the even block.  A model is data: its
size and even block, the model rows that carry eps_i and delta_j, the
Cartan diagonals with their names, and each root vector as (row, column,
entry) triples.  gl and sl take the unit matrix E_ab for the root
mu_a - mu_b; osp(1|2) and osp(2|2) list their triples, keyed by the
integer rows of their roots.  A weight, an integer row w over a
denominator D, takes the value w(h) = sum_c w_c h[row_c, row_c] / D on a
Cartan diagonal h; the values of every root come from one integer product
of the root rows with the model's Cartan diagonals.

The structure comes from whole arrays.  One product of the stacked basis
matrices gives every M_i M_j: the supercommutators take their signs from
the parities, and the supertrace form is read from the diagonals of the
same products.  The p-th power map is the matrix p-th power on the even
part, taken matrix by matrix.  One rref against the flattened basis gives
the coordinates of every bracket and every p-th power.
``relation_failures`` checks that a stack of operators represents g at
chi = 0, from stacked products of the operators.  ``validate`` checks super
skew-symmetry and an even, supersymmetric, invariant, nondegenerate form as
identities between whole arrays, and runs ``relation_failures`` on ad: given
skew-symmetry, ad satisfies g's relations exactly when super Jacobi and
restrictedness hold.

The basis is ordered Cartan first, then positive root vectors by height,
then negative root vectors in the mirrored order, which downstream modules
rely on for deterministic PBW bases.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

import numpy as np

from . import linalg as la
from .gf import Field
from .rootsys import build_root_system


class _Model(NamedTuple):
    """A matrix model inside gl(size); rows below ``even`` are even."""

    size: int
    even: int
    rows: tuple[int, ...]  # model rows of eps_1, ..., eps_m, delta_1, ..., delta_n
    cartan: Sequence[tuple[str, Sequence[int]]]  # (name, diagonal) per Cartan element
    roots: dict  # the integer row of a root -> ((row, column, entry), ...)


_OSP_MODELS = {
    "osp(1|2)": _Model(3, 1, (1,), (("h", (0, 1, -1)),), {
        (2,): ((1, 2, 1),),
        (-2,): ((2, 1, 1),),
        (1,): ((1, 0, 1), (0, 2, -1)),
        (-1,): ((2, 0, 1), (0, 1, 1)),
    }),
    "osp(2|2)": _Model(4, 2, (0, 2), (("h_e", (1, -1, 0, 0)), ("h_d", (0, 0, 1, -1))), {
        (0, 2): ((2, 3, 1),),
        (0, -2): ((3, 2, 1),),
        (-1, 1): ((2, 0, 1), (1, 3, -1)),
        (-1, -1): ((3, 0, 1), (1, 2, 1)),
        (1, 1): ((2, 1, 1), (0, 3, -1)),
        (1, -1): ((3, 1, 1), (0, 2, 1)),
    }),
}


def _gl_model(label: str, m: int, n: int) -> _Model:
    """gl(m|n) with the diagonal Cartan, or sl(m|n) with the simple coroots."""
    size = m + n
    unit = np.eye(size, dtype=np.int64)
    if label.startswith("gl("):
        cartan = [(f"E{a + 1}{a + 1}", unit[a]) for a in range(size)]
    else:  # E_aa - E_{a+1,a+1}, except E_mm + E_{m+1,m+1} across the blocks
        signs = ["-"] * (size - 1)
        signs[m - 1] = "+"
        cartan = [(f"E{a + 1}{a + 1}{s}E{a + 2}{a + 2}",
                   unit[a] + (1 if s == "+" else -1) * unit[a + 1])
                  for a, s in enumerate(signs)]
    roots = {tuple((unit[a] - unit[b]).tolist()): ((a, b, 1),)  # E_ab: mu_a - mu_b
             for a in range(size) for b in range(size) if a != b}
    return _Model(size, m, tuple(range(size)), cartan, roots)


def _negate_where(F: Field, mask: np.ndarray, arr: np.ndarray) -> np.ndarray:
    """-arr where mask holds, arr elsewhere; mask covers the leading axes of arr."""
    return np.where(mask.reshape(mask.shape + (1,) * (arr.ndim - mask.ndim)), F.neg_arr(arr), arr)


def _supercommutators(F: Field, prod: np.ndarray, odd: np.ndarray) -> np.ndarray:
    """M_i M_j - (-1)^{|i||j|} M_j M_i from prod[i, j] = M_i M_j, where M_i
    has parity odd[i]."""
    return F.add_arr(prod, _negate_where(F, ~np.outer(odd, odd), prod.transpose(1, 0, 2, 3)))


def _pth_powers(F: Field, mats: np.ndarray, p: int) -> np.ndarray:
    """The p-th power of every matrix of a stack (n, s, s), one matrix at a time."""
    powers = []
    for m in mats:
        out = m
        for _ in range(p - 1):
            out = la.matmul(F, out, m)
        powers.append(out)
    return np.array(powers, dtype=np.int64).reshape(mats.shape)


def _normalize_label(type_label: str) -> tuple[str, str]:
    """Returns (algebra label, root-system label)."""
    label = type_label.replace(" ", "")
    if label in ("osp(1|2)", "B(0,1)"):
        return "osp(1|2)", "B(0,1)"
    if label in ("osp(2|2)", "C(2)"):
        return "osp(2|2)", "C(2)"
    if label.startswith(("gl(", "sl(")):
        return label, label
    raise ValueError(
        f"structure constants for {type_label!r} are not supported; "
        f"exceptional and large types are root-combinatorics only"
    )


class PCharacter:
    """A p-character: linear functional on the even part, zero on the odd part."""

    def __init__(self, g: "LieSuperalgebra", values: Sequence[int]):
        self.g = g
        vals = np.array([int(v) % g.F.q for v in values], dtype=np.int64)
        if vals.shape != (g.dim,):
            raise ValueError(f"need {g.dim} coordinates, got {vals.shape}")
        if vals[g.parities == 1].any():
            raise ValueError("a p-character must vanish on the odd part")
        self.values = vals

    def value(self, coords: np.ndarray) -> np.ndarray:
        """chi on elements given by basis coordinates along the last axis, as
        field codes."""
        coords = np.asarray(coords)
        flat = coords.reshape(-1, self.g.dim)
        return la.matvec(self.g.F, flat, self.values).reshape(coords.shape[:-1])

    def is_zero(self) -> bool:
        return not self.values.any()

    def is_standard_form(self) -> bool:
        """True when chi is supported on the Cartan subalgebra."""
        outside = [i for i in range(self.g.dim) if i not in self.g.cartan]
        return not self.values[outside].any()

    def cartan_values(self) -> tuple[int, ...]:
        return tuple(int(self.values[i]) for i in self.g.cartan)

    def scale(self, t: int) -> "PCharacter":
        F = self.g.F
        return PCharacter(self.g, [F.mul(t % F.q, int(v)) for v in self.values])

    def describe(self) -> dict:
        return {
            name: int(v)
            for name, v in zip(self.g.basis_names, self.values)
            if v
        }

    def __repr__(self) -> str:
        if self.is_zero():
            return "PCharacter(0)"
        terms = ", ".join(f"{k}={v}" for k, v in self.describe().items())
        return f"PCharacter({terms})"


class Centralizer(NamedTuple):
    """The graded codimension pair d0|d1 of the stabilizer g_chi."""

    d0: int
    d1: int


class LieSuperalgebra:
    """A matrix-realized restricted Lie superalgebra with root data."""

    def __init__(self, label: str, F: Field):
        self.label, rs_label = _normalize_label(label)
        self.F = F
        self.p = F.p
        self.rs = build_root_system(rs_label)
        self.rs.validate_prime(F.p)
        self._build_model()
        self._build_structure()
        self._build_root_dictionary()
        report = self.validate()
        if not report["passed"]:
            raise RuntimeError(f"algebra validation failed: {report}")

    # -- model construction ----------------------------------------------------

    def _build_model(self) -> None:
        ss = self.rs.distinguished_simple_system()
        self.distinguished = ss
        model = _OSP_MODELS.get(self.label) or _gl_model(self.label, self.rs.m, self.rs.n)
        self.model_size = model.size
        self._even_size = model.even
        self.rank = len(model.cartan)
        self.cartan = list(range(self.rank))
        diagonals = np.array([diag for _, diag in model.cartan], dtype=np.int64)
        self._weight_matrix = diagonals[:, list(model.rows)]  # h_i[row_c, row_c]
        names = [name for name, _ in model.cartan]
        rs = self.rs
        roots = [None] * self.rank + list(ss.positive_roots) + [rs.neg[r] for r in ss.positive_roots]
        ints = np.zeros((len(roots), model.size, model.size), dtype=np.int64)
        ints[:self.rank] = [np.diag(diag) for diag in diagonals]
        for b, root in enumerate(roots[self.rank:], self.rank):
            for row, col, entry in model.roots[tuple(rs.roots[root].tolist())]:
                ints[b, row, col] = entry
            names.append(f"X[{rs.labels[root]}]")
        # the model entries are 0 and +-1
        self.matrices = self.F.sub_arr(np.maximum(ints, 0), np.maximum(-ints, 0))  # (d, s, s)
        self.basis_names = names
        self.parities = np.array([0] * self.rank + [rs.parities[r] for r in roots[self.rank:]],
                                 dtype=np.int64)
        self.basis_roots = roots
        self.dim = len(roots)
        self.dim_even = int((self.parities == 0).sum())
        self.dim_odd = int((self.parities == 1).sum())

    # -- structure constants ---------------------------------------------------

    def _build_structure(self) -> None:
        F, d, s, basis = self.F, self.dim, self.model_size, self.matrices
        odd = self.parities == 1
        # one product of the stacked matrices: prod[i, j] = M_i M_j
        prod = la.pairwise_products(F, basis)
        brackets = _supercommutators(F, prod, odd)
        even = np.flatnonzero(~odd)
        powers = la.zeros((d, s, s))
        powers[even] = _pth_powers(F, basis[even], self.p)
        # coordinates of all d^2 brackets and d p-th powers by one rref
        targets = np.concatenate([brackets.reshape(d * d, s * s), powers.reshape(d, s * s)])
        red, pivots = la.rref(F, np.concatenate([basis.reshape(d, s * s).T, targets.T], axis=1))
        if pivots[:d] != list(range(d)):
            raise RuntimeError("basis matrices are linearly dependent")
        if len(pivots) > d:
            raise ValueError("matrix outside the span of the algebra basis")
        coords = red[:d, d:].T
        self.bracket_tensor = coords[:d * d].reshape(d, d, d)
        self.p_map = coords[d * d:]
        # ad_i maps coords of y to coords of [x_i, y]
        self.ad_matrices = np.ascontiguousarray(self.bracket_tensor.transpose(0, 2, 1))
        # supertrace form: the diagonals of the same products against the signs of the rows
        signs = np.array([1] * self._even_size + [F.neg(1)] * (s - self._even_size))
        diagonals = np.diagonal(prod, axis1=2, axis2=3).reshape(d * d, s)
        self.form = la.matvec(F, diagonals, signs).reshape(d, d)

    # -- root dictionary -------------------------------------------------------

    def weight_on_cartan(self, rows: np.ndarray, denominator: int) -> np.ndarray:
        """Values w(h_i) = sum_c w_c h_i[row_c, row_c] / denominator on the
        Cartan basis, as field codes, for the integer row w (or each row of
        a 2-d array)."""
        p = self.p
        scale = pow(denominator, -1, p)
        return np.asarray(rows, dtype=np.int64) @ self._weight_matrix.T % p * scale % p

    def _build_root_dictionary(self) -> None:
        F, r, rs = self.F, self.rank, self.rs
        vectors = self.basis_roots[r:]
        self.root_index: dict[int, int] = {root: idx for idx, root in enumerate(vectors, r)}
        # root_weights[a]: the values of root a on the Cartan basis
        self.root_weights = self.weight_on_cartan(rs.roots, rs.denominator)
        values = self.root_weights[vectors]
        # ad-weights: [h_i, X_a] = a(h_i) X_a for every Cartan h_i and root vector X_a
        expected = la.zeros((r, len(vectors), self.dim))
        k = np.arange(len(vectors))
        expected[:, k, k + r] = values.T
        bad = (self.bracket_tensor[self.cartan][:, r:] != expected).any(axis=(0, 2))
        if bad.any():
            raise RuntimeError(f"ad-weight mismatch for root {rs.labels[vectors[bad.argmax()]]}")
        # coroots H_a on the Cartan: solve (t_a, h_j) = a(h_j) for every root at once, then normalize
        rhs = self.root_weights
        red, pivots = la.rref(F, np.concatenate([self.form[np.ix_(self.cartan, self.cartan)], rhs.T], axis=1))
        if pivots[:r] != list(range(r)):
            raise RuntimeError("degenerate Cartan form")
        t = red[:r, r:].T
        norms = np.diagonal(la.matmul(F, t, rhs.T))  # a(t_a)
        isotropic = norms == 0
        if (isotropic != (np.diagonal(rs.gram) == 0)).any():
            raise RuntimeError("isotropy mismatch between form and root system")
        scale = [1 if iso else F.div(2 % F.p, int(norm)) for iso, norm in zip(isotropic, norms)]
        coroots = la.zeros((len(rhs), self.dim))
        coroots[:, self.cartan] = F.mul_arr(t, np.array(scale)[:, None])
        # sanity: a(H_a) = 2 for non-isotropic roots
        bad = ~isotropic & (np.diagonal(la.matmul(F, coroots[:, self.cartan], rhs.T)) != 2 % F.p)
        if bad.any():
            raise RuntimeError(f"coroot normalization failed for {rs.labels[bad.argmax()]}")
        self.coroots = coroots  # row a: H_a for the root with index a

    def coroot_value(self, F: Field, functionals: np.ndarray, roots: Sequence[int]) -> np.ndarray:
        """(f | H_a) for every row f of a (W, rank) array of Cartan-coordinate
        functional values (codes over F) and every root index a of ``roots``,
        as a (W, len(roots)) array of codes from one product.  Coroot
        coordinates lie in the prime subfield, so they pair unchanged with
        values over any extension F of the base field.
        """
        H = self.coroots[np.asarray(roots, dtype=np.int64)][:, self.cartan]
        return la.matmul(F, np.asarray(functionals, dtype=np.int64), H.T)

    # -- validation ------------------------------------------------------------

    def validate(self) -> dict:
        F, d = self.F, self.dim
        T = self.bracket_tensor
        odd = self.parities == 1
        both_odd = np.outer(odd, odd)
        failures: list[str] = []

        def flag(kind: str, bad: np.ndarray) -> None:
            failures.extend(f"{kind}({','.join(map(str, idx))})" for idx in np.argwhere(bad))

        # super skew-symmetry: [x_i, x_j] = -(-1)^{|i||j|} [x_j, x_i]
        flag("skew", (T != _negate_where(F, ~both_odd, T.transpose(1, 0, 2))).any(axis=2))
        # with skew-symmetry, ad is a restricted representation exactly when
        # super Jacobi and ad(x^[p]) = (ad x)^p hold
        failures += self.relation_failures(T.transpose(0, 2, 1))
        # form: even, supersymmetric, invariant, nondegenerate
        form = self.form
        flag("form-odd", (odd[:, None] != odd[None, :]) & (form != 0))
        flag("form-sym", form != np.where(both_odd, F.neg_arr(form.T), form.T))
        bracket_then_form = la.matmul(F, T.reshape(d * d, d), form).reshape(d, d, d)
        form_of_bracket = la.matmul(F, form, T.reshape(d * d, d).T).reshape(d, d, d)
        flag("form-inv", bracket_then_form != form_of_bracket)
        if la.rank(F, form) != d:
            failures.append("form-degenerate")
        return {"passed": not failures, "failures": failures[:20]}

    def relation_failures(self, ops: np.ndarray) -> list[str]:
        """The defining relations at chi = 0 that x_i |-> ops[i], a (dim, n, n)
        stack, breaks, as names, in order: the super bracket
        ops_i ops_j - (-1)^{|i||j|} ops_j ops_i = sum_k T[i, j, k] ops_k of every
        pair, then ops_i^p = sum_k x_i^[p]_k ops_k of every even x_i.  Every
        pair comes from two stacked products."""
        F, d, n, names = self.F, self.dim, ops.shape[-1], self.basis_names
        odd = self.parities == 1
        flat = ops.reshape(d, n * n)
        brackets = _supercommutators(F, la.pairwise_products(F, ops), odd).reshape(d * d, n * n)
        want = la.matmul(F, self.bracket_tensor.reshape(d * d, d), flat)
        bad = (brackets != want).any(axis=1).reshape(d, d)
        failures = [f"bracket({names[i]},{names[j]})" for i, j in np.argwhere(bad)]
        even = np.flatnonzero(~odd)
        powers = _pth_powers(F, ops[even], self.p).reshape(len(even), n * n)
        bad = (powers != la.matmul(F, self.p_map[even], flat)).any(axis=1)
        return failures + [f"p-power({names[i]})" for i in even[bad]]

    # -- characters ------------------------------------------------------------

    def chi_zero(self) -> PCharacter:
        return PCharacter(self, [0] * self.dim)

    def chi_from_cartan(self, values: Sequence[int]) -> PCharacter:
        if len(values) != self.rank:
            raise ValueError(f"need {self.rank} Cartan values")
        vals = [0] * self.dim
        for ci, v in zip(self.cartan, values):
            vals[ci] = int(v) % self.F.q
        return PCharacter(self, vals)

    def chi_regular_semisimple(self) -> PCharacter:
        """First Cartan-value tuple (lexicographic scan) with all chi(H_a) != 0."""
        for chi in self._scan_standard():
            if self.is_regular_semisimple(chi):
                return chi
        raise RuntimeError("no regular semisimple character found")

    def chi_nonregular_nonzero(self) -> Optional[PCharacter]:
        """First nonzero standard-form chi killed by some coroot, if any exists."""
        for chi in self._scan_standard():
            if chi.is_zero() or self.is_regular_semisimple(chi):
                continue
            return chi
        return None

    def _scan_standard(self):
        q = self.F.q
        r = self.rank
        for code in range(q**r):
            vals = [(code // q**i) % q for i in reversed(range(r))]
            yield self.chi_from_cartan(vals)

    def nilpotent_root_character(self, root) -> PCharacter:
        """chi = form(X_root, .) for a root, given by its index or its label."""
        if isinstance(root, str):
            root = self.rs.index(root)
        idx = self.root_index[root]
        if self.parities[idx] != 0:
            raise ValueError("nilpotent characters come from even root vectors")
        return self.character_from_element(la.eye(self.dim)[idx])

    def character_from_element(self, coords: Sequence[int]) -> PCharacter:
        coords = np.array([int(c) % self.F.q for c in coords], dtype=np.int64)
        if coords[self.parities == 1].any():
            raise ValueError("character_from_element needs an even element")
        vals = la.matvec(self.F, self.form.T, coords)
        vals[self.parities == 1] = 0
        return PCharacter(self, vals)

    def centralizer(self, chi: PCharacter) -> Centralizer:
        d = self.dim
        pair = la.matvec(self.F, self.bracket_tensor.reshape(d * d, d), chi.values).reshape(d, d)
        # y is in g_chi when chi([y, -]) = 0; the conditions decouple by the
        # parity of y, so each codimension is the rank of that parity's rows
        d0 = la.rank(self.F, pair[self.parities == 0])
        d1 = la.rank(self.F, pair[self.parities == 1])
        if d0 % 2 != 0:
            raise la.InvariantViolation(f"even centralizer codimension {d0} is odd — artifact bug")
        return Centralizer(d0, d1)

    def is_regular_semisimple(self, chi: PCharacter) -> bool:
        if not chi.is_standard_form():
            raise ValueError(
                "chi must vanish on all root vectors (conjugation into standard form "
                "is not supported)"
            )
        roots = np.arange(len(self.coroots))
        return bool(self.coroot_value(self.F, chi.values[self.cartan][None], roots).all())

    def __repr__(self) -> str:
        return f"LieSuperalgebra({self.label}, {self.F!r})"


def build_algebra(type_label: str, F: Field) -> LieSuperalgebra:
    """Build a supported algebra over F, with post-construction validation."""
    return LieSuperalgebra(type_label, F)
