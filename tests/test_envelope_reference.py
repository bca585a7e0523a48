"""The indexed straightening engine against the tuple-keyed reference engine.

Both engines straighten in the same PBW basis, which has unique normal
forms, so every product, action and operator matrix must agree exactly.
The cases cover prime fields, a field with scalar tables (GF(9)) and one
without them (GF(5^5)), random characters, lam and PBW orders.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from superlie.envelope import DeformedAlgebra
from superlie.gf import field_create
from superlie.liesuper import PCharacter, build_algebra

from reference_envelope import ReferenceAlgebra, multiply_per_monomial
from tooling import pbw_add

PRODUCT_CASES = [
    ("gl(1|1)", 3, 1), ("gl(1|1)", 5, 1),
    ("osp(1|2)", 3, 1), ("osp(1|2)", 5, 1),
    ("osp(2|2)", 3, 1), ("osp(2|2)", 5, 1),
    ("osp(1|2)", 3, 2), ("osp(1|2)", 5, 5),
]
# operator matrices are dense over the whole PBW basis: small cases only
MATRIX_CASES = [("gl(1|1)", 3, 1), ("gl(1|1)", 5, 1), ("osp(1|2)", 3, 1),
                ("gl(1|1)", 3, 2), ("gl(1|1)", 5, 5)]

_algebras: dict = {}


def _algebra(label, p, k):
    key = (label, p, k)
    if key not in _algebras:
        _algebras[key] = build_algebra(label, field_create(p, k))
    return _algebras[key]


def _engines(data, cases):
    """The same U_{xi,lam} in both engines, over a drawn case, xi, lam and order."""
    g = _algebra(*data.draw(st.sampled_from(cases)))
    q = g.F.q
    values = [0 if g.parities[b] else data.draw(st.integers(0, q - 1))
              for b in range(g.dim)]
    xi = PCharacter(g, values)
    lam = data.draw(st.one_of(st.sampled_from([0, 1]), st.integers(0, q - 1)))
    order = data.draw(st.permutations(range(g.dim)))
    return DeformedAlgebra(g, xi, lam, order), ReferenceAlgebra(g, xi, lam, order)


def _element(data, U, terms=3):
    out = {}
    for _ in range(data.draw(st.integers(1, terms))):
        m = tuple(data.draw(st.integers(0, cap - 1)) for cap in U.slot_cap)
        out[m] = data.draw(st.integers(1, U.F.q - 1))
    return out


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_products_match_reference(data):
    U, R = _engines(data, PRODUCT_CASES)
    a, b = _element(data, U), _element(data, U)
    x = data.draw(st.integers(0, U.g.dim - 1))
    assert U.multiply(a, b) == R.multiply(a, b)
    assert U.multiply(a, U.gen(x)) == R.mul_by_gen(a, x)
    assert U.multiply(U.gen(x), a) == R.multiply(R.gen(x), a)
    assert U.act(x, a) == R.act(x, a)
    # p-th powers of a generator and of a one-term element
    for base in (U.gen(x), _element(data, U, terms=1)):
        power_u, power_r = U.one(), R.one()
        for _ in range(U.p):
            power_u = U.multiply(power_u, base)
            power_r = R.multiply(power_r, base)
        assert power_u == power_r


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_prefix_shared_fold_matches_per_monomial_fold(data):
    """Right factors with many terms sharing letter prefixes, some of them
    ending where another goes on: b * c and b * c + b + 1."""
    U, _ = _engines(data, PRODUCT_CASES)
    a, b, c = (_element(data, U) for _ in range(3))
    bc = U.multiply(b, c)
    for right in (bc, pbw_add(U, pbw_add(U, bc, b), U.one())):
        assert U.multiply(a, right) == multiply_per_monomial(U, a, right)


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_operator_matrices_match_reference(data):
    U, R = _engines(data, MATRIX_CASES)
    assert U.basis_monomials() == R.basis_monomials()
    x = data.draw(st.integers(0, U.g.dim - 1))
    index = {m: i for i, m in enumerate(U.basis_monomials())}
    left = np.zeros((len(index), len(index)), dtype=np.int64)
    for m, i in index.items():
        for mono, c in U.multiply(U.gen(x), {m: 1}).items():
            left[index[mono], i] = c
    assert np.array_equal(left, R.left_mult_matrix(x))
    assert np.array_equal(U.right_mult_matrix(x), R.right_mult_matrix(x))
    assert np.array_equal(U.action_matrix(x), R.action_matrix(x))


# prime fields, GF(9) with scalar tables and GF(5^5) without them
ROW_CASES = [("gl(1|1)", 3, 1), ("gl(1|1)", 5, 1), ("osp(1|2)", 3, 1),
             ("gl(1|1)", 3, 2), ("gl(1|1)", 5, 5)]


@pytest.mark.parametrize("case", ROW_CASES, ids=[f"{a}-GF({p}^{k})" for a, p, k in ROW_CASES])
def test_every_row_of_the_slot_tables_matches_reference(case):
    """Every (monomial, slot) row m * x_s of the straightening tables, for
    lam = 0, 1, 2, a nonzero xi and the default and reversed PBW orders."""
    g = _algebra(*case)
    xi = PCharacter(g, [0 if g.parities[b] else 1 + b % 2 for b in range(g.dim)])
    for lam in (0, 1, 2):
        for order in (range(g.dim), range(g.dim - 1, -1, -1)):
            U, R = DeformedAlgebra(g, xi, lam, order), ReferenceAlgebra(g, xi, lam, order)
            dim = U.dimension()
            for s in range(U.n_slots):
                for m in range(dim):
                    if m not in U._memo[s]:
                        U._mul_mono_slot(m, s)
            for s, table in enumerate(U._memo):
                assert sorted(table) == list(range(dim))
                for m, row in table.items():
                    assert U._monomials(dict(row)) == R._mul_mono_slot(U._exponents(m), s)
