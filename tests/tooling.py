"""Small constructors the tests share; the package itself never needs them."""

from __future__ import annotations

import copy
from typing import Sequence

import numpy as np

from superlie import linalg as la
from superlie.envelope import DeformedAlgebra, _random_element
from superlie.gf import Field
from superlie.rootsys import RootSystem, build_root_system
from superlie.verma import VermaSystem, lambda_set


def random_codes(F: Field, rng: np.random.Generator, size=None) -> np.ndarray:
    """Uniform random field codes of the given shape."""
    return rng.integers(0, F.q, size=size, dtype=np.int64)


def from_coords(U: DeformedAlgebra, coords: Sequence[int]) -> dict:
    """The element sum_b coords[b] x_b of U, from basis coordinates of g."""
    out: dict = {}
    for b, c in enumerate(coords):
        if c:
            out = U.add(out, U.scale(int(c), U.gen(b)))
    return out


def to_vector(a: dict, index: dict) -> np.ndarray:
    """Coordinates of a PBW element against a monomial index."""
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


def baby_vermas(g, chi):
    """The baby Verma module of every weight of chi, over its weight set's field."""
    system = VermaSystem(g, chi)
    lset = lambda_set(g, chi)
    for lam in lset:
        yield system.module(lam, lset.field)


def simple_heads(g, chi):
    """(field, operator stack, parity involution) of the head of every baby
    Verma of chi, over its whole weight set, as the kw sweep harvests them."""
    for Z in baby_vermas(g, chi):
        ops, parity_op = Z.quotient_representation()
        yield Z.F, ops, parity_op


def commutant_dims(solve, F: Field, ops: np.ndarray, parity_op: np.ndarray,
                   parities: np.ndarray) -> tuple[int, int]:
    """(even, odd) dimensions of the supercommutant that ``solve`` spans, for
    a solve with the signature of ``linalg.supercommutant_basis``, of the
    (dim g, n, n) stack ``ops`` split by the parity array."""
    even, odd = ops[parities == 0], ops[parities == 1]
    return tuple(len(solve(F, even, odd, parity_op, odd_part)) for odd_part in (False, True))
