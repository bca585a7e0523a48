"""The indexed straightening engine against the tuple-keyed reference engine.

Both engines straighten in the same PBW basis, which has unique normal
forms, so every product, action and operator matrix must agree exactly.
Elements cross from the engine's {PBW index: coeff} to the reference's
{exponent tuple: coeff} through the converters of ``tooling``.
The cases cover prime fields, a field with scalar tables (GF(9)) and one
without them (GF(5^5)), random characters, lam and PBW orders.
"""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from superlie.cli import parse_config, run_experiment
from superlie.envelope import DeformedAlgebra, _random_element, theta_map
from superlie.gf import field_create
from superlie.liesuper import PCharacter, build_algebra

from reference_envelope import ReferenceAlgebra, multiply_per_monomial
from tooling import pbw_add, pbw_indexed, pbw_tuples, tuple_random_element

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


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_products_match_reference(data):
    U, R = _engines(data, PRODUCT_CASES)
    a, b = _element(data, U), _element(data, U)
    x = data.draw(st.integers(0, U.g.dim - 1))
    ia, ib = pbw_indexed(U, a), pbw_indexed(U, b)
    assert pbw_tuples(U, U.multiply(ia, ib)) == R.multiply(a, b)
    assert pbw_tuples(U, U.multiply(ia, U.gen(x))) == R.mul_by_gen(a, x)
    assert pbw_tuples(U, U.multiply(U.gen(x), ia)) == R.multiply(R.gen(x), a)
    assert pbw_tuples(U, U.act(x, ia)) == R.act(x, a)
    # p-th powers of a generator and of a one-term element
    for base in (pbw_tuples(U, U.gen(x)), _element(data, U, terms=1)):
        power_u, power_r = U.one(), R.one()
        for _ in range(U.p):
            power_u = U.multiply(power_u, pbw_indexed(U, base))
            power_r = R.multiply(power_r, base)
        assert pbw_tuples(U, power_u) == power_r


@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_horner_fold_matches_per_monomial_fold(data):
    """Right factors with many terms, many of them ending in the same letter
    and some a prefix of another: b * c and b * c + b + 1; and a one-word
    right factor, which Horner's rule peels one letter at a time."""
    U, _ = _engines(data, PRODUCT_CASES)
    a, b, c = (pbw_indexed(U, _element(data, U)) for _ in range(3))
    word = pbw_indexed(U, _element(data, U, terms=1))
    bc = U.multiply(b, c)
    for right in (bc, pbw_add(U, pbw_add(U, bc, b), U.one()), word):
        assert U.multiply(a, right) == multiply_per_monomial(U, a, right)


def test_family_check_products_match_per_monomial_fold(monkeypatch):
    """Every product the family check of the golden osp(2|2), p = 5 config
    (seed 3, 6 samples) asks for: the theta pairs on both sides, a * b, b * c,
    (a * b) * c and a * (b * c), and the generator products and powers."""
    multiply, seen = DeformedAlgebra.multiply, []

    def checked(U, a, b):
        out = multiply(U, a, b)
        assert out == multiply_per_monomial(U, a, b)
        seen.append(len(b))
        return out
    monkeypatch.setattr(DeformedAlgebra, "multiply", checked)
    cfg = parse_config((Path(__file__).parent / "golden" / "osp22_p5_family.ini").read_text())
    code, bundle, _ = run_experiment(cfg)
    assert code == 0 and bundle["family"]["report"]["associativity_verified"] == cfg.samples
    # the right factors b * c of a * (b * c) have tens of terms
    assert len(seen) > 4 * cfg.samples and max(seen) >= 10


@settings(max_examples=20, deadline=None, derandomize=True)
@given(data=st.data())
def test_operator_matrices_match_reference(data):
    U, R = _engines(data, MATRIX_CASES)
    assert U.basis_monomials() == R.basis_monomials()
    x = data.draw(st.integers(0, U.g.dim - 1))
    index = {m: i for i, m in enumerate(U.basis_monomials())}
    left = np.zeros((len(index), len(index)), dtype=np.int64)
    for m, i in index.items():
        for mono, c in pbw_tuples(U, U.multiply(U.gen(x), pbw_indexed(U, {m: 1}))).items():
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
                    assert pbw_tuples(U, dict(row)) == R._mul_mono_slot(U._exponents(m), s)


INDEX_CASES = [("gl(1|1)", 3, 1), ("gl(1|1)", 5, 1), ("osp(1|2)", 3, 1)]


@pytest.mark.parametrize("case", INDEX_CASES, ids=[f"{a}-GF({p})" for a, p, _ in INDEX_CASES])
def test_indices_round_trip_against_exponent_tuples(case):
    """On every PBW index, in the default and the reversed order: the
    exponents, both converters, the degree theta_t scales by, and the
    generators and the unit against the reference engine's tuple forms."""
    g = _algebra(*case)
    F = g.F
    for order in (range(g.dim), range(g.dim - 1, -1, -1)):
        U, R = DeformedAlgebra(g, order=order), ReferenceAlgebra(g, order=order)
        monomials = U.basis_monomials()
        assert len(monomials) == U.dimension()
        tinv = F.inv(2)
        _, theta = theta_map(U, 2)
        for i, m in enumerate(monomials):
            assert U._exponents(i) == m
            assert pbw_indexed(U, {m: 1}) == {i: 1}
            assert pbw_tuples(U, {i: 1}) == {m: 1}
            assert theta.apply({i: 1}) == {i: F.pow_int(tinv, sum(m))}
        whole = {m: 1 + i % (F.q - 1) for i, m in enumerate(monomials)}
        assert pbw_tuples(U, pbw_indexed(U, whole)) == whole
        assert pbw_tuples(U, U.one()) == R.one()
        assert pbw_indexed(U, R.one()) == U.one()
        for b in range(g.dim):
            assert pbw_tuples(U, U.gen(b)) == R.gen(b)
            assert pbw_indexed(U, R.gen(b)) == U.gen(b)


# the family check's algebra (osp(2|2), p = 5) and two small ones
DRAW_CASES = [("osp(2|2)", 5, 1), ("gl(1|1)", 3, 1), ("osp(1|2)", 3, 1)]


@pytest.mark.parametrize("case", DRAW_CASES, ids=[f"{a}-GF({p})" for a, p, _ in DRAW_CASES])
def test_random_elements_are_the_tuple_draws(case):
    """For seeds 0-9, ``_random_element`` converts to exactly the element the
    tuple-keyed draw makes from the same generator, and leaves the generator
    in the same state: ``check_family``'s samples at every seed, not only
    at a golden file's."""
    g = _algebra(*case)
    U = DeformedAlgebra(g, g.chi_regular_semisimple())
    for seed in range(10):
        rng, oracle = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(12):
            assert pbw_tuples(U, _random_element(U, rng)) == tuple_random_element(U, oracle)
        assert rng.bit_generator.state == oracle.bit_generator.state
