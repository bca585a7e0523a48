"""Small constructors the tests share; the package itself never needs them."""

from __future__ import annotations

import copy
from typing import Sequence

import numpy as np

import reference_linalg as ref
from superlie import linalg as la
from superlie.envelope import DeformedAlgebra, _random_element
from superlie.gf import Field
from superlie.rootsys import RootSystem, build_root_system
from superlie.verma import BabyVerma, VermaSystem, lambda_set


def random_codes(F: Field, rng: np.random.Generator, size=None) -> np.ndarray:
    """Uniform random field codes of the given shape."""
    return rng.integers(0, F.q, size=size, dtype=np.int64)


def spy_on_right_factors(monkeypatch) -> list:
    """One [shape, products] entry for every right factor that
    ``linalg._right_factor`` expands from now on: the factor's shape, and
    how many products were made with its expansion so far."""
    expansions = []
    right_factor = la._right_factor

    def spy(F, b, rows):
        times, entry = right_factor(F, b, rows), [b.shape, 0]
        expansions.append(entry)

        def counted(x):
            entry[1] += 1
            return times(x)

        return counted

    monkeypatch.setattr(la, "_right_factor", spy)
    return expansions


def pbw_indexed(U: DeformedAlgebra, a: dict) -> dict:
    """The element a of U, given as {exponent tuple: coeff}, as {PBW index: coeff}."""
    return {sum(e * w for e, w in zip(m, U._weight)): c for m, c in a.items()}


def pbw_tuples(U: DeformedAlgebra, a: dict) -> dict:
    """The element a of U as {exponent tuple: coeff}, the tuple-keyed oracles' format."""
    return {U._exponents(i): c for i, c in a.items()}


def tuple_random_element(U: DeformedAlgebra, rng: np.random.Generator) -> dict:
    """``envelope._random_element``'s draw, made on exponent tuples: the same
    rng calls in the same order, with the tuple element as the result."""
    out: dict = {}
    for _ in range(3):
        m = tuple(int(rng.integers(0, cap)) for cap in U.slot_cap)
        c = int(rng.integers(0, U.F.q))
        if c:
            U._accum(out, {m: 1}, c)
    return out


def pbw_add(U: DeformedAlgebra, a: dict, b: dict) -> dict:
    """The sum a + b of two PBW elements of U."""
    out = dict(a)
    U._accum(out, b, 1)
    return out


def pbw_sub(U: DeformedAlgebra, a: dict, b: dict) -> dict:
    """The difference a - b of two PBW elements of U."""
    out = dict(a)
    U._accum(out, b, U.F.neg(1))
    return out


def pbw_scale(U: DeformedAlgebra, c: int, a: dict) -> dict:
    """The multiple c * a of a PBW element of U, for a field code c."""
    c = int(c) % U.F.q
    return {m: U.F.mul(c, v) for m, v in a.items()} if c else {}


def from_coords(U: DeformedAlgebra, coords: Sequence[int]) -> dict:
    """The element sum_b coords[b] x_b of U, from basis coordinates of g."""
    out: dict = {}
    for b, c in enumerate(coords):
        if c:
            out = pbw_add(U, out, pbw_scale(U, int(c), U.gen(b)))
    return out


def to_vector(a: dict, index: dict) -> np.ndarray:
    """Coordinates of a tuple-keyed PBW element against a monomial index."""
    v = la.zeros(len(index))
    for m, c in a.items():
        v[index[m]] = c
    return v


def corrupted(g, array: str, index: tuple, rng: np.random.Generator):
    """A shallow copy of the algebra g with one entry of one structure array
    changed by a random nonzero field element, and its ad matrices rebuilt."""
    h = copy.copy(g)
    arr = getattr(g, array).copy()
    arr[index] = g.F.add(int(arr[index]), int(rng.integers(1, g.F.q)))
    setattr(h, array, arr)
    h.ad_matrices = np.ascontiguousarray(h.bracket_tensor.transpose(0, 2, 1))
    return h


def random_pairs(U: DeformedAlgebra, rng: np.random.Generator, n: int) -> list[tuple[dict, dict]]:
    """n pairs of random three-term elements of U, drawn a then b."""
    return [(_random_element(U, rng), _random_element(U, rng)) for _ in range(n)]


def gl21_with_corrupt_reflection() -> RootSystem:
    """gl(2|1) with one entry of its reflection table wrong: the reflection
    at e1-e2 fixes e2-d1 instead of sending it to e1-d1."""
    rs = build_root_system("gl(2|1)")
    at, image = rs.index("e1-e2"), rs.index("e2-d1")
    tables = rs._reflections
    mirror = list(tables.mirror)
    perm = list(mirror[at])
    perm[image] = image
    mirror[at] = tuple(perm)
    rs._reflections = tables._replace(mirror=tuple(mirror))
    return rs


def cartan_p_matrix(g) -> np.ndarray:
    """P with h_i^{[p]} = sum_j P[i, j] h_j, read off the p-map's Cartan rows;
    a row that leaves the Cartan raises."""
    rows = g.p_map[g.cartan]
    if np.delete(rows, g.cartan, axis=1).any():
        raise ValueError("the Cartan is not closed under the p-th power map")
    return rows[:, g.cartan]


def weight_residual(g, F: Field, lam: Sequence[int], chi_h: Sequence[int],
                    P: np.ndarray) -> list[int]:
    """lambda(h_i)^p - lambda(h_i^{[p]}) - chi(h_i)^p per Cartan index, for
    the Cartan p-map matrix P, one scalar at a time."""
    out = []
    for i in range(g.rank):
        image = 0
        for j in range(g.rank):
            image = F.add(image, F.mul(int(P[i, j]), int(lam[j])))
        out.append(F.sub(F.sub(F.pow_int(int(lam[i]), F.p), image),
                         F.pow_int(int(chi_h[i]), F.p)))
    return out


def module(system: VermaSystem, lam: Sequence[int], F: Field | None = None) -> BabyVerma:
    """Z_chi(lam) of the system over F, the algebra's field by default; a
    weight that fails lambda(h)^p - lambda(h^[p]) = chi(h)^p is refused."""
    g = system.g
    F = F if F is not None else g.F
    lam = tuple(int(v) % F.q for v in lam)
    chi_h = [int(v) for v in system.chi.cartan_values()]
    if any(weight_residual(g, F, lam, chi_h, cartan_p_matrix(g))):
        raise ValueError("lambda violates lambda(h)^p - lambda(h^[p]) = chi(h)^p")
    return BabyVerma(system, lam, F)


def baby_vermas(g, chi):
    """The baby Verma module of every weight of chi, over its weight set's field."""
    system = VermaSystem(g, chi)
    lset = lambda_set(g, chi)
    for lam in lset:
        yield module(system, lam, lset.field)


def top_weight_coords(ops: np.ndarray, parity_op: np.ndarray, cartan) -> np.ndarray:
    """The coordinates that T·e_0 can reach for an odd T: those whose diagonal
    entry in every Cartan operator ops[c] equals e_0's and whose parity
    differs from e_0's, read one coordinate at a time."""
    n = parity_op.shape[0]
    return np.array([i for i in range(n) if parity_op[i, i] != parity_op[0, 0]
                     and all(ops[c][i, i] == ops[c][0, 0] for c in cartan)], dtype=int)


def head_solve(Z: BabyVerma) -> tuple[np.ndarray, np.ndarray]:
    """(word matrices, odd supercommutant stack) of Z's head as
    ``BabyVerma.head_type`` solves it: the last argument and the result of
    its one ``linalg.supercommutant_basis`` call."""
    calls, solve = [], la.supercommutant_basis

    def spy(F, even, odd, parity_op, words):
        calls.append((words, solve(F, even, odd, parity_op, words)))
        return calls[-1][1]

    la.supercommutant_basis = spy
    try:
        Z.head_type()
    finally:
        la.supercommutant_basis = solve
    (call,) = calls
    return call


def spun_commutant(F: Field, even_ops: np.ndarray, odd_ops: np.ndarray, parity_op: np.ndarray,
                   coords: Sequence[int]) -> np.ndarray:
    """The odd supercommutant as ``linalg.supercommutant_basis`` solves it on
    the module in its spun word basis (``reference_linalg.spin_words``, with
    T·e_0 on the coordinates ``coords``), carried back to the module's own
    basis: T = B·T'·B⁻¹."""
    n = parity_op.shape[0]
    if n == 0:
        return la.zeros((0, 0, 0))
    basis, words = ref.spin_words(F, even_ops, odd_ops, parity_op, coords)
    inverse = la.rref(F, np.concatenate([basis, la.eye(n)], axis=1))[0][:, n:]

    def spun(stack):  # B⁻¹·A·B for each A of a (K, n, n) stack, and B⁻¹·M for words
        left = la.matmul(F, inverse, stack.transpose(1, 0, 2).reshape(n, -1))
        return left.reshape(n, len(stack), stack.shape[2]).transpose(1, 0, 2)

    conj = [la.matmul(F, spun(ops).reshape(-1, n), basis).reshape(-1, n, n)
            for ops in (even_ops, odd_ops, parity_op[None])]
    ts = la.supercommutant_basis(F, conj[0], conj[1], conj[2][0], spun(words))
    return np.array([la.matmul(F, la.matmul(F, basis, t), inverse) for t in ts],
                    dtype=np.int64).reshape(-1, n, n)


def odd_commutant_dims(Z: BabyVerma) -> tuple[int, int, int]:
    """Dimensions of the odd supercommutant of Z's simple head: as
    ``BabyVerma.head_type`` solves it, in the head's PBW word basis with T on
    the image of v in its weight space; in the head's spun word basis with
    T·e_0 on every coordinate of the other parity; and as the n²-unknown
    Kronecker oracle solves it."""
    F, (ops, parity_op) = Z.F, Z.quotient_representation()
    even, odd = ops[Z.g.parities == 0], ops[Z.g.parities == 1]
    return (len(head_solve(Z)[1]),
            len(spun_commutant(F, even, odd, parity_op, top_weight_coords(ops, parity_op, []))),
            len(ref.supercommutant_kronecker(F, even, odd, parity_op, odd_part=True)))