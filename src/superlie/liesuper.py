"""Concrete restricted Lie superalgebras over GF(p^k).

Each algebra is realized by explicit matrices inside a general linear
superalgebra; the bracket is the supercommutator, the p-th power map is the
matrix p-th power on the even part, and the invariant form is the
supertrace form.  The basis is ordered Cartan first, then positive root
vectors by height, then negative root vectors in the mirrored order, which
downstream modules rely on for deterministic PBW bases.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

import numpy as np

from . import linalg as la
from .gf import Field
from .rootsys import (
    Weight,
    build_root_system,
    format_weight,
    fraction_to_field,
    parse_root_label,
)

_SUPPORTED = ("gl", "sl", "osp(1|2)", "osp(2|2)")


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

    def value(self, coords: np.ndarray) -> int:
        """chi applied to an element given by basis coordinates (a field code)."""
        F = self.g.F
        total = 0
        for i in np.nonzero(coords)[0]:
            total = F.add(total, F.mul(int(coords[i]), int(self.values[i])))
        return total

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
        rs = self.rs
        label = self.label
        ss = rs.distinguished_simple_system()
        self.distinguished = ss
        if label.startswith(("gl(", "sl(")):
            m, n = rs.m, rs.n
            size = m + n
            self._even_size = m

            def unit(i, j):
                M = np.zeros((size, size), dtype=np.int64)
                M[i, j] = 1
                return M

            def slot(idx: int) -> int:
                return idx  # eps i -> row i, delta j -> row m + j

            cartan_mats = []
            cartan_names = []
            weight_table = []
            if label.startswith("gl("):
                for i in range(size):
                    cartan_mats.append(unit(i, i))
                    cartan_names.append(f"E{i + 1}{i + 1}")
                    eps_vals = [Fraction(int(t == i)) for t in range(m)]
                    delta_vals = [Fraction(int(m + t == i)) for t in range(n)]
                    weight_table.append((eps_vals, delta_vals))
            else:
                for i in range(m - 1):
                    cartan_mats.append(unit(i, i) - unit(i + 1, i + 1))
                    cartan_names.append(f"E{i + 1}{i + 1}-E{i + 2}{i + 2}")
                    eps_vals = [Fraction(int(t == i)) - Fraction(int(t == i + 1)) for t in range(m)]
                    weight_table.append((eps_vals, [Fraction(0)] * n))
                cartan_mats.append(unit(m - 1, m - 1) + unit(m, m))
                cartan_names.append(f"E{m}{m}+E{m + 1}{m + 1}")
                weight_table.append(
                    ([Fraction(int(t == m - 1)) for t in range(m)],
                     [Fraction(int(t == 0)) for t in range(n)])
                )
                for j in range(n - 1):
                    cartan_mats.append(unit(m + j, m + j) - unit(m + j + 1, m + j + 1))
                    cartan_names.append(f"E{m + j + 1}{m + j + 1}-E{m + j + 2}{m + j + 2}")
                    delta_vals = [Fraction(int(t == j)) - Fraction(int(t == j + 1)) for t in range(n)]
                    weight_table.append(([Fraction(0)] * m, delta_vals))

            def root_matrix(root: Weight) -> np.ndarray:
                src = dst = None
                for i, c in enumerate(root.eps):
                    if c == 1:
                        dst = slot(i)
                    elif c == -1:
                        src = slot(i)
                for j, c in enumerate(root.delta):
                    if c == 1:
                        dst = m + j
                    elif c == -1:
                        src = m + j
                return unit(dst, src)

        elif label == "osp(1|2)":
            size = 3
            self._even_size = 1

            def unit(i, j):
                M = np.zeros((size, size), dtype=np.int64)
                M[i, j] = 1
                return M

            h = unit(1, 1) - unit(2, 2)
            cartan_mats = [h]
            cartan_names = ["h"]
            weight_table = [([], [Fraction(1)])]
            dl = Weight([], [1])
            mats = {
                dl.scale(2): unit(1, 2),
                dl.scale(-2): unit(2, 1),
                dl: unit(1, 0) - unit(0, 2),
                -dl: unit(2, 0) + unit(0, 1),
            }

            def root_matrix(root: Weight) -> np.ndarray:
                return mats[root]

        else:  # osp(2|2)
            size = 4
            self._even_size = 2

            def unit(i, j):
                M = np.zeros((size, size), dtype=np.int64)
                M[i, j] = 1
                return M

            cartan_mats = [unit(0, 0) - unit(1, 1), unit(2, 2) - unit(3, 3)]
            cartan_names = ["h_e", "h_d"]
            weight_table = [([Fraction(1)], [Fraction(0)]), ([Fraction(0)], [Fraction(1)])]
            ep = Weight([1], [0])
            dl = Weight([0], [1])
            mats = {
                dl.scale(2): unit(2, 3),
                dl.scale(-2): unit(3, 2),
                dl - ep: unit(2, 0) - unit(1, 3),
                -ep - dl: unit(3, 0) + unit(1, 2),
                ep + dl: unit(2, 1) - unit(0, 3),
                ep - dl: unit(3, 1) + unit(0, 2),
            }

            def root_matrix(root: Weight) -> np.ndarray:
                return mats[root]

        self.model_size = size
        self.cartan = list(range(len(cartan_mats)))
        self.rank = len(cartan_mats)
        self._weight_table = weight_table

        matrices = list(cartan_mats)
        names = list(cartan_names)
        parities = [0] * len(cartan_mats)
        roots_in_order: list[Optional[Weight]] = [None] * len(cartan_mats)
        for sign in (1, -1):
            for r in ss.positive_roots:
                root = r if sign == 1 else -r
                matrices.append(root_matrix(root))
                names.append(f"X[{format_weight(root)}]")
                parities.append(self.rs.parity(root))
                roots_in_order.append(root)
        self.matrices = [M % self.p for M in matrices]
        self.basis_names = names
        self.parities = np.array(parities, dtype=np.int64)
        self.basis_roots = roots_in_order
        self.dim = len(matrices)
        self.dim_even = int((self.parities == 0).sum())
        self.dim_odd = int((self.parities == 1).sum())

    def supertrace(self, M: np.ndarray) -> int:
        F = self.F
        total = 0
        for i in range(self.model_size):
            v = int(M[i, i])
            total = F.add(total, v if i < self._even_size else F.neg(v))
        return total

    # -- structure constants ---------------------------------------------------

    def _to_coords(self, M: np.ndarray) -> np.ndarray:
        x = la.solve(self.F, self._flat_basis.T, M.reshape(-1))
        if x is None:
            raise ValueError("matrix outside the span of the algebra basis")
        return x

    def _build_structure(self) -> None:
        F = self.F
        self._flat_basis = np.stack([M.reshape(-1) for M in self.matrices])  # (dim, size^2)
        if la.rank(F, self._flat_basis) != self.dim:
            raise RuntimeError("basis matrices are linearly dependent")
        dim = self.dim
        self.bracket_tensor = np.zeros((dim, dim, dim), dtype=np.int64)
        for i in range(dim):
            for j in range(dim):
                br = self.bracket_matrices(self.matrices[i], self.matrices[j],
                                           int(self.parities[i]), int(self.parities[j]))
                self.bracket_tensor[i, j] = self._to_coords(br)
        self.ad_matrices = [
            np.array([self.bracket_tensor[i, j] for j in range(dim)]).T for i in range(dim)
        ]  # ad_i maps coords of y to coords of [x_i, y]
        self.p_map = np.zeros((dim, dim), dtype=np.int64)
        for i in range(dim):
            if self.parities[i] == 0:
                M = self.matrices[i]
                P = np.eye(self.model_size, dtype=np.int64)
                for _ in range(self.p):
                    P = la.matmul(F, P, M)
                self.p_map[i] = self._to_coords(P)
        self.form = np.zeros((dim, dim), dtype=np.int64)
        for i in range(dim):
            for j in range(dim):
                prod = la.matmul(F, self.matrices[i], self.matrices[j])
                self.form[i, j] = self.supertrace(prod)

    def bracket_matrices(self, A: np.ndarray, B: np.ndarray, pa: int, pb: int) -> np.ndarray:
        F = self.F
        AB = la.matmul(F, A, B)
        BA = la.matmul(F, B, A)
        if pa == 1 and pb == 1:
            return F.add_arr(AB, BA)
        return F.sub_arr(AB, BA)

    def bracket_coords(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Bracket of two elements given by basis coordinates."""
        F = self.F
        out = la.zeros(self.dim)
        for i in np.nonzero(x)[0]:
            row = la.zeros(self.dim)
            for j in np.nonzero(y)[0]:
                c = F.mul(int(x[i]), int(y[j]))
                row = F.add_arr(row, F.smul_arr(c, self.bracket_tensor[i, j]))
            out = F.add_arr(out, row)
        return out

    # -- root dictionary -------------------------------------------------------

    def weight_on_cartan(self, w: Weight) -> list[int]:
        """Values w(h_i) on the Cartan basis, as field codes."""
        out = []
        for eps_vals, delta_vals in self._weight_table:
            total = Fraction(0)
            for c, v in zip(w.eps, eps_vals):
                total += c * v
            for c, v in zip(w.delta, delta_vals):
                total += c * v
            out.append(fraction_to_field(self.F, total))
        return out

    def _build_root_dictionary(self) -> None:
        F = self.F
        self.root_index: dict[Weight, int] = {}
        for idx, root in enumerate(self.basis_roots):
            if root is not None:
                self.root_index[root] = idx
        # verify ad-weights: [h_i, X_a] = a(h_i) X_a for all Cartan h_i
        for root, idx in self.root_index.items():
            vals = self.weight_on_cartan(root)
            for ci, hval in zip(self.cartan, vals):
                lhs = self.bracket_tensor[ci, idx]
                rhs = la.zeros(self.dim)
                rhs[idx] = hval
                if not (lhs == rhs).all():
                    raise RuntimeError(f"ad-weight mismatch for root {format_weight(root)}")
        # coroots H_a on the Cartan: solve (t_a, h_j) = a(h_j), then normalize
        r = self.rank
        cartan_form = self.form[np.ix_(self.cartan, self.cartan)]
        self.coroots: dict[Weight, np.ndarray] = {}
        for root in self.rs.all_roots:
            rhs = np.array(self.weight_on_cartan(root), dtype=np.int64)
            t = la.solve(F, cartan_form, rhs)
            if t is None:
                raise RuntimeError("degenerate Cartan form")
            norm = 0  # a(t_a)
            for code, val in zip(t, rhs):
                norm = F.add(norm, F.mul(int(code), int(val)))
            iso_alg = norm == 0
            if iso_alg != self.rs.is_isotropic(root):
                raise RuntimeError("isotropy mismatch between form and root system")
            coords = la.zeros(self.dim)
            if iso_alg:
                for ci, c in zip(self.cartan, t):
                    coords[ci] = c
            else:
                scale = F.div(2 % F.p, norm)
                for ci, c in zip(self.cartan, t):
                    coords[ci] = F.mul(scale, int(c))
                # sanity: a(H_a) = 2 for non-isotropic roots
                check = 0
                for ci, val in zip(self.cartan, rhs):
                    check = F.add(check, F.mul(int(coords[ci]), int(val)))
                if check != 2 % F.p:
                    raise RuntimeError(f"coroot normalization failed for {format_weight(root)}")
            self.coroots[root] = coords

    def coroot_value(self, F: Field, chi_or_lam: Sequence[int], root: Weight) -> int:
        """Pair Cartan-coordinate functional values (codes over F) against H_root.

        Coroot coordinates lie in the prime subfield, so they pair unchanged
        with values over any extension F of the base field.
        """
        H = self.coroots[root]
        total = 0
        for ci, lam_v in zip(self.cartan, chi_or_lam):
            total = F.add(total, F.mul(int(H[ci]), int(lam_v)))
        return total

    # -- validation ------------------------------------------------------------

    def validate(self) -> dict:
        F = self.F
        dim = self.dim
        par = self.parities
        failures = []
        # super skew-symmetry
        for i in range(dim):
            for j in range(dim):
                lhs = self.bracket_tensor[i, j]
                rhs = self.bracket_tensor[j, i]
                if par[i] == 1 and par[j] == 1:
                    ok = (lhs == rhs).all()
                else:
                    ok = (lhs == F.neg_arr(rhs)).all()
                if not ok:
                    failures.append(f"skew({i},{j})")
        # super Jacobi on all triples
        for i in range(dim):
            for j in range(dim):
                for k in range(dim):
                    s1 = F.neg(1) if par[i] and par[k] else 1
                    s2 = F.neg(1) if par[j] and par[i] else 1
                    s3 = F.neg(1) if par[k] and par[j] else 1
                    t1 = F.smul_arr(s1, self.bracket_coords(_unitvec(dim, i), self.bracket_tensor[j, k]))
                    t2 = F.smul_arr(s2, self.bracket_coords(_unitvec(dim, j), self.bracket_tensor[k, i]))
                    t3 = F.smul_arr(s3, self.bracket_coords(_unitvec(dim, k), self.bracket_tensor[i, j]))
                    if F.add_arr(F.add_arr(t1, t2), t3).any():
                        failures.append(f"jacobi({i},{j},{k})")
        # restrictedness: ad(x^[p]) = (ad x)^p for even x
        for i in range(dim):
            if par[i] == 0:
                adp = la.eye(dim)
                for _ in range(self.p):
                    adp = la.matmul(F, adp, self.ad_matrices[i])
                target = la.zeros((dim, dim))
                for j in np.nonzero(self.p_map[i])[0]:
                    target = F.add_arr(target, F.smul_arr(int(self.p_map[i][j]), self.ad_matrices[j]))
                if not (adp == target).all():
                    failures.append(f"restricted({i})")
        # form: even, supersymmetric, invariant, nondegenerate
        for i in range(dim):
            for j in range(dim):
                if par[i] != par[j] and self.form[i, j] != 0:
                    failures.append(f"form-odd({i},{j})")
                sym = self.form[j, i] if not (par[i] and par[j]) else F.neg(int(self.form[j, i]))
                if self.form[i, j] != sym:
                    failures.append(f"form-sym({i},{j})")
        for i in range(dim):
            for j in range(dim):
                for k in range(dim):
                    lhs = rhs = 0
                    for t in np.nonzero(self.bracket_tensor[i, j])[0]:
                        lhs = F.add(lhs, F.mul(int(self.bracket_tensor[i, j][t]), int(self.form[t, k])))
                    for t in np.nonzero(self.bracket_tensor[j, k])[0]:
                        rhs = F.add(rhs, F.mul(int(self.form[i, t]), int(self.bracket_tensor[j, k][t])))
                    if lhs != rhs:
                        failures.append(f"form-inv({i},{j},{k})")
        if la.rank(F, self.form) != dim:
            failures.append("form-degenerate")
        return {"passed": not failures, "failures": failures[:20]}

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
        """chi = form(X_root, .) for a root (given as Weight or label)."""
        if not isinstance(root, Weight):
            root = parse_root_label(str(root), self.rs.m, self.rs.n)
        idx = self.root_index.get(root)
        if idx is None:
            raise ValueError(f"{format_weight(root)} is not a root")
        if self.parities[idx] != 0:
            raise ValueError("nilpotent characters come from even root vectors")
        return self.character_from_element(_unitvec(self.dim, idx))

    def character_from_element(self, coords: Sequence[int]) -> PCharacter:
        coords = np.array([int(c) % self.F.q for c in coords], dtype=np.int64)
        if coords[self.parities == 1].any():
            raise ValueError("character_from_element needs an even element")
        F = self.F
        vals = []
        for j in range(self.dim):
            total = 0
            for i in np.nonzero(coords)[0]:
                total = F.add(total, F.mul(int(coords[i]), int(self.form[i, j])))
            vals.append(total if self.parities[j] == 0 else 0)
        return PCharacter(self, vals)

    def centralizer(self, chi: PCharacter) -> Centralizer:
        dim = self.dim
        pair = la.zeros((dim, dim))
        for i in range(dim):
            for j in range(dim):
                pair[i, j] = chi.value(self.bracket_tensor[i, j])
        # y is in g_chi when chi([y, -]) = 0; the conditions decouple by the
        # parity of y, so each codimension is the rank of that parity's rows
        d0 = la.rank(self.F, pair[self.parities == 0])
        d1 = la.rank(self.F, pair[self.parities == 1])
        if d0 % 2 != 0:
            raise RuntimeError(f"even centralizer codimension {d0} is odd — artifact bug")
        return Centralizer(d0, d1)

    def is_regular_semisimple(self, chi: PCharacter) -> bool:
        if not chi.is_standard_form():
            raise ValueError(
                "chi must vanish on all root vectors (conjugation into standard form "
                "is not supported)"
            )
        lam = [int(chi.values[ci]) for ci in self.cartan]
        return all(self.coroot_value(self.F, lam, root) != 0 for root in self.rs.all_roots)

    # -- misc ------------------------------------------------------------------

    def __repr__(self) -> str:
        return f"LieSuperalgebra({self.label}, {self.F!r})"


def _unitvec(dim: int, i: int) -> np.ndarray:
    v = la.zeros(dim)
    v[i] = 1
    return v


def build_algebra(type_label: str, F: Field) -> LieSuperalgebra:
    """Build a supported algebra over F, with post-construction validation."""
    return LieSuperalgebra(type_label, F)
