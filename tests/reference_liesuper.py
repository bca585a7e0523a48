"""Loop-based reference construction of the matrix-realized Lie superalgebras.

``ReferenceLieSuperalgebra`` builds every structure array entry by entry: three
hand-written model branches with a table of ``Fraction`` weights, one
``la.solve`` per bracket and per p-th power, and a supertrace per pair.
Roots are the ``Fraction`` weights of ``reference_rootsys``, whose
``all_roots[i]`` is root i of the package.  The root dictionary checks
each ad-weight entry by entry and solves for each coroot with its own
``la.solve``.  ``loop_validate`` checks the
algebra identities one pair or triple at a time.  The package builds the
same arrays from whole-array products and one rref; the tests compare the
two array for array.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from superlie import linalg as la
from superlie.liesuper import LieSuperalgebra
from reference_rootsys import Weight, as_weight, format_weight, fraction_to_field, reference_root_system


def bracket_coords(g: LieSuperalgebra, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Bracket of two elements given by basis coordinates."""
    F = g.F
    out = la.zeros(g.dim)
    for i in np.nonzero(x)[0]:
        row = la.zeros(g.dim)
        for j in np.nonzero(y)[0]:
            c = F.mul(int(x[i]), int(y[j]))
            row = F.add_arr(row, F.smul_arr(c, g.bracket_tensor[i, j]))
        out = F.add_arr(out, row)
    return out


class ReferenceLieSuperalgebra(LieSuperalgebra):
    """The same algebra, with its model and structure built by loops."""

    def _build_model(self) -> None:
        rs = self.rs
        label = self.label
        ss = rs.distinguished_simple_system()
        self.distinguished = ss
        self._ref = reference_root_system(rs.label)
        weights = list(self._ref.all_roots)
        if label.startswith(("gl(", "sl(")):
            m, n = rs.m, rs.n
            size = m + n
            self._even_size = m

            def unit(i, j):
                M = np.zeros((size, size), dtype=np.int64)
                M[i, j] = 1
                return M

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
                        dst = i
                    elif c == -1:
                        src = i
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

            cartan_mats = [unit(1, 1) - unit(2, 2)]
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
        roots_in_order = [None] * len(cartan_mats)
        for sign in (1, -1):
            for r in ss.positive_roots:
                root = weights[r] if sign == 1 else -weights[r]
                matrices.append(root_matrix(root))
                names.append(f"X[{format_weight(root)}]")
                parities.append(int(self._ref.is_odd_root(root)))
                roots_in_order.append(weights.index(root))
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

    def _to_coords(self, M: np.ndarray) -> np.ndarray:
        x = la.solve(self.F, self._flat_basis.T, M.reshape(-1))
        if x is None:
            raise ValueError("matrix outside the span of the algebra basis")
        return x

    def bracket_matrices(self, A: np.ndarray, B: np.ndarray, pa: int, pb: int) -> np.ndarray:
        F = self.F
        AB = la.matmul(F, A, B)
        BA = la.matmul(F, B, A)
        if pa == 1 and pb == 1:
            return F.add_arr(AB, BA)
        return F.sub_arr(AB, BA)

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

    def _build_root_dictionary(self) -> None:
        F = self.F
        weights = self._ref.all_roots
        self.root_index: dict[int, int] = {}
        for idx, root in enumerate(self.basis_roots):
            if root is not None:
                self.root_index[root] = idx
        self.root_weights = np.array([self._weight_values(w) for w in weights], dtype=np.int64)
        # verify ad-weights: [h_i, X_a] = a(h_i) X_a for all Cartan h_i
        for root, idx in self.root_index.items():
            vals = self._weight_values(weights[root])
            for ci, hval in zip(self.cartan, vals):
                lhs = self.bracket_tensor[ci, idx]
                rhs = la.zeros(self.dim)
                rhs[idx] = hval
                if not (lhs == rhs).all():
                    raise RuntimeError(f"ad-weight mismatch for root {format_weight(weights[root])}")
        # coroots H_a on the Cartan: solve (t_a, h_j) = a(h_j), then normalize
        cartan_form = self.form[np.ix_(self.cartan, self.cartan)]
        self.coroots = la.zeros((len(weights), self.dim))
        for i, root in enumerate(weights):
            rhs = np.array(self._weight_values(root), dtype=np.int64)
            t = la.solve(F, cartan_form, rhs)
            if t is None:
                raise RuntimeError("degenerate Cartan form")
            norm = 0  # a(t_a)
            for code, val in zip(t, rhs):
                norm = F.add(norm, F.mul(int(code), int(val)))
            iso_alg = norm == 0
            if iso_alg != self._ref.is_isotropic(root):
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
            self.coroots[i] = coords

    def weight_on_cartan(self, rows: np.ndarray, denominator: int) -> np.ndarray:
        rows = np.asarray(rows)
        flat = rows.reshape(-1, rows.shape[-1])
        out = [self._weight_values(as_weight(self.rs, row, denominator)) for row in flat]
        return np.array(out, dtype=np.int64).reshape(rows.shape[:-1] + (self.rank,))

    def _weight_values(self, w: Weight) -> list[int]:
        out = []
        for eps_vals, delta_vals in self._weight_table:
            total = Fraction(0)
            for c, v in zip(w.eps, eps_vals):
                total += c * v
            for c, v in zip(w.delta, delta_vals):
                total += c * v
            out.append(fraction_to_field(self.F, total))
        return out


def _unitvec(dim: int, i: int) -> np.ndarray:
    v = la.zeros(dim)
    v[i] = 1
    return v


def loop_validate(g: LieSuperalgebra) -> dict:
    """``validate`` one pair or triple at a time: the same failure names, in
    index order within each kind, and the same first 20."""
    F = g.F
    dim = g.dim
    par = g.parities
    failures = []
    # super skew-symmetry
    for i in range(dim):
        for j in range(dim):
            lhs = g.bracket_tensor[i, j]
            rhs = g.bracket_tensor[j, i]
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
                t1 = F.smul_arr(s1, bracket_coords(g, _unitvec(dim, i), g.bracket_tensor[j, k]))
                t2 = F.smul_arr(s2, bracket_coords(g, _unitvec(dim, j), g.bracket_tensor[k, i]))
                t3 = F.smul_arr(s3, bracket_coords(g, _unitvec(dim, k), g.bracket_tensor[i, j]))
                if F.add_arr(F.add_arr(t1, t2), t3).any():
                    failures.append(f"jacobi({i},{j},{k})")
    # restrictedness: ad(x^[p]) = (ad x)^p for even x
    for i in range(dim):
        if par[i] == 0:
            adp = la.eye(dim)
            for _ in range(g.p):
                adp = la.matmul(F, adp, g.ad_matrices[i])
            target = la.zeros((dim, dim))
            for j in np.nonzero(g.p_map[i])[0]:
                target = F.add_arr(target, F.smul_arr(int(g.p_map[i][j]), g.ad_matrices[j]))
            if not (adp == target).all():
                failures.append(f"restricted({i})")
    # form: even, supersymmetric, invariant, nondegenerate
    for i in range(dim):
        for j in range(dim):
            if par[i] != par[j] and g.form[i, j] != 0:
                failures.append(f"form-odd({i},{j})")
    for i in range(dim):
        for j in range(dim):
            sym = g.form[j, i] if not (par[i] and par[j]) else F.neg(int(g.form[j, i]))
            if g.form[i, j] != sym:
                failures.append(f"form-sym({i},{j})")
    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                lhs = rhs = 0
                for t in np.nonzero(g.bracket_tensor[i, j])[0]:
                    lhs = F.add(lhs, F.mul(int(g.bracket_tensor[i, j][t]), int(g.form[t, k])))
                for t in np.nonzero(g.bracket_tensor[j, k])[0]:
                    rhs = F.add(rhs, F.mul(int(g.form[i, t]), int(g.bracket_tensor[j, k][t])))
                if lhs != rhs:
                    failures.append(f"form-inv({i},{j},{k})")
    if la.rank(F, g.form) != dim:
        failures.append("form-degenerate")
    return {"passed": not failures, "failures": failures[:20]}
