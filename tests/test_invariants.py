"""Tests for comultiplication, coinduced algebras, and invariant ideals."""

from collections import Counter

import numpy as np
import pytest

import reference_linalg as ref
from reference_envelope import ReferenceAlgebra
from reference_invariants import ReferenceCoinduced
from superlie import invariants
from superlie import linalg as la
from superlie.gf import field_create
from superlie.liesuper import build_algebra
from superlie.rootsys import InvariantViolation
from superlie.envelope import DeformedAlgebra, reduced_enveloping, reduced_symmetric
from superlie.invariants import (
    CoinducedAlgebra,
    OperatorModel,
    check_coassociativity,
    comultiply_monomial,
    graded_codims,
    ideal_survey,
    invariant_ideal_closure,
    largest_proper_invariant_ideal,
    operator_model_from_symmetric,
)

F3 = field_create(3, 1)
F5 = field_create(5, 1)


def borel(g):
    pos = [i for i, r in enumerate(g.basis_roots)
           if r is not None and g.distinguished.is_positive(r)]
    return list(g.cartan) + pos


# ---------------------------------------------------------------------------
# comultiplication


def test_generators_are_primitive():
    g = build_algebra("gl(1|1)", F3)
    U = reduced_enveloping(g)
    zero = (0,) * 4
    for i in range(4):
        m = [0] * 4
        m[U.slot_of[i]] = 1
        m = tuple(m)
        assert comultiply_monomial(U, m) == {(m, zero): 1, (zero, m): 1}


def test_coproduct_frozen_odd_signs():
    """Delta(y1 y2) = y1y2 (x) 1 + y1 (x) y2 - y2 (x) y1 + 1 (x) y1y2."""
    g = build_algebra("gl(1|1)", F3)
    U = reduced_enveloping(g)
    m = (0, 0, 1, 1)
    d = comultiply_monomial(U, m)
    assert d == {
        ((0, 0, 1, 1), (0, 0, 0, 0)): 1,
        ((0, 0, 1, 0), (0, 0, 0, 1)): 1,
        ((0, 0, 0, 1), (0, 0, 1, 0)): 2,  # the Koszul sign
        ((0, 0, 0, 0), (0, 0, 1, 1)): 1,
    }


def test_coproduct_binomials_on_even_powers():
    g = build_algebra("osp(1|2)", F5)
    U = reduced_enveloping(g)
    m = [0] * 5
    m[U.slot_of[0]] = 3  # h^3
    d = comultiply_monomial(U, tuple(m))
    # binom(3, j) pattern 1 3 3 1
    coeffs = sorted(d.values())
    assert coeffs == [1, 1, 3, 3]


def test_counit_property():
    """Terms with trivial first factor reproduce the monomial, and dually."""
    g = build_algebra("osp(1|2)", F3)
    U = reduced_enveloping(g)
    zero = (0,) * 5
    rng = np.random.default_rng(0)
    for _ in range(10):
        m = tuple(int(rng.integers(0, cap)) for cap in U.slot_cap)
        d = comultiply_monomial(U, m)
        assert d.get((zero, m)) == 1
        assert d.get((m, zero)) == 1


def test_supercocommutativity():
    g = build_algebra("gl(1|1)", F3)
    U = reduced_enveloping(g)
    rng = np.random.default_rng(1)
    F = U.F
    for _ in range(15):
        m = tuple(int(rng.integers(0, cap)) for cap in U.slot_cap)
        d = comultiply_monomial(U, m)
        flipped = {}
        for (m1, m2), c in d.items():
            sign = F.neg(1) if U.monomial_parity(m1) and U.monomial_parity(m2) else 1
            flipped[(m2, m1)] = F.mul(sign, c)
        assert flipped == d


def test_coassociativity_across_algebras():
    for label, F in [("gl(1|1)", F3), ("osp(1|2)", F5), ("osp(2|2)", F3)]:
        g = build_algebra(label, F)
        U = reduced_enveloping(g)
        rng = np.random.default_rng(2)
        monomials = [tuple(int(rng.integers(0, cap)) for cap in U.slot_cap)
                     for _ in range(6)]
        assert check_coassociativity(U, monomials)


def test_coassociativity_takes_each_coproduct_once_and_sees_a_flipped_sign(monkeypatch):
    """One Delta per monomial within a call; a Delta whose Koszul sign is
    flipped (an odd letter sent to the first factor gets an extra -1, so
    Delta(y) = -y (x) 1 + 1 (x) y) still fails the check."""
    U = reduced_enveloping(build_algebra("osp(1|2)", F3))
    monomials = U.basis_monomials()
    exact = invariants.comultiply_monomial
    calls = Counter()

    def counted(U, m):
        calls[m] += 1
        return exact(U, m)
    monkeypatch.setattr(invariants, "comultiply_monomial", counted)
    assert check_coassociativity(U, monomials)
    assert set(calls) == set(monomials) and set(calls.values()) == {1}

    def flipped(U, m):
        return {(m1, m2): U.F.neg(c) if U.monomial_parity(m1) else c
                for (m1, m2), c in exact(U, m).items()}
    monkeypatch.setattr(invariants, "comultiply_monomial", flipped)
    assert not check_coassociativity(U, monomials)
    assert not check_coassociativity(U, [m for m in monomials if sum(m) > 1])


# ---------------------------------------------------------------------------
# coinduced algebras


def _pairs():
    g1 = build_algebra("gl(1|1)", F3)
    g2 = build_algebra("osp(1|2)", F3)
    return [
        (g1, borel(g1)),
        (g2, borel(g2)),
        (g1, [i for i in range(g1.dim) if g1.parities[i] == 0]),
    ]


def test_coinduced_dimensions():
    dims = [CoinducedAlgebra(g, q).dimension() for g, q in _pairs()]
    assert dims == [2, 6, 4]


def test_duality_exhaustive():
    for g, q in _pairs():
        assert CoinducedAlgebra(g, q).duality_check()


def _left(F, ops, v):
    """sum_a v[a] ops[a]: with the multiplications, the product by the
    element with coordinates v."""
    k, n = v.size, ops.shape[-1]
    return la.matmul(F, v[None, :], ops[:k].reshape(k, n * n)).reshape(n, n)


def test_identity_and_nilpotents():
    g, q = _pairs()[0]
    C = CoinducedAlgebra(g, q)
    ops, eye = C.operator_model().ops, la.eye(C.dimension())
    y, one = C.index[(1,)], C.index[(0,)]
    assert not ops[y][:, y].any()  # f_y f_y = 0
    assert np.array_equal(ops[one], eye)  # 1 f = f for every f
    assert np.array_equal(ops[y][:, one], eye[y])  # f_y 1 = f_y


def test_function_algebra_is_associative_supercommutative():
    for g, q in _pairs():
        C = CoinducedAlgebra(g, q)
        F, n, par = C.F, C.dimension(), C._parities
        ops = C.operator_model().ops
        for a in range(n):
            for b in range(n):
                # f_a f_b = (-1)^{|a||b|} f_b f_a
                ba = ops[b][:, a]
                assert np.array_equal(ops[a][:, b], F.neg_arr(ba) if par[a] and par[b] else ba)
                # (f_a f_b) f = f_a (f_b f) for every f
                assert np.array_equal(_left(F, ops, ops[a][:, b]),
                                      la.matmul(F, ops[a], ops[b]))


def test_coinduced_action_is_module_structure():
    """[x_i, x_j] acts as x_i x_j - (-1)^{|i||j|} x_j x_i."""
    for g, q in _pairs():
        C = CoinducedAlgebra(g, q)
        F, n = C.F, C.dimension()
        act = C.operator_model().ops[n:n + g.dim]
        for i in range(g.dim):
            for j in range(g.dim):
                lhs = _left(F, act, g.bracket_tensor[i, j])
                swap = la.matmul(F, act[j], act[i])
                rhs = (F.add_arr if g.parities[i] and g.parities[j] else F.sub_arr)(
                    la.matmul(F, act[i], act[j]), swap)
                assert np.array_equal(lhs, rhs)


def test_coinduced_action_by_superderivations():
    """x (f_a f) = (x f_a) f + (-1)^{|x||a|} f_a (x f) for every f."""
    g, q = _pairs()[1]  # osp(1|2), borel
    C = CoinducedAlgebra(g, q)
    F, n = C.F, C.dimension()
    ops = C.operator_model().ops
    for i in range(g.dim):
        act = ops[n + i]
        for a in range(n):
            t2 = la.matmul(F, ops[a], act)
            if g.parities[i] and C._parities[a]:
                t2 = F.neg_arr(t2)
            assert np.array_equal(la.matmul(F, act, ops[a]),
                                  F.add_arr(_left(F, ops, act[:, a]), t2))


TABLE_CASES = [(label, p, q) for label in ("gl(1|1)", "osp(1|2)", "gl(2|1)")
               for p in (3, 5) for q in ("borel", "even")]
TABLE_CASES += [("osp(2|2)", 3, "borel"), ("osp(2|2)", 3, "even")]


@pytest.mark.parametrize("label,p,q", TABLE_CASES)
def test_table_stack_matches_dict_algebra(label, p, q):
    """The stack read off the coproduct and U's right multiplications equals
    the one the dictionary algebra builds product by product."""
    g = build_algebra(label, field_create(p, 1))
    sub = borel(g) if q == "borel" else [i for i in range(g.dim) if g.parities[i] == 0]
    C = CoinducedAlgebra(g, sub)
    assert np.array_equal(C.operator_model().ops, ReferenceCoinduced(C).operator_stack())


def test_g_simplicity_of_coinduced_pairs():
    for g, q in _pairs():
        assert CoinducedAlgebra(g, q).is_g_simple()


def test_subalgebra_validation():
    g = build_algebra("gl(1|1)", F3)
    with pytest.raises(ValueError):
        CoinducedAlgebra(g, [2, 3])  # [E12, E21] escapes the span
    with pytest.raises(ValueError):
        CoinducedAlgebra(g, [0, 0, 1])


# ---------------------------------------------------------------------------
# invariant ideals in reduced symmetric algebras


def test_operator_model_requires_symmetric():
    g = build_algebra("gl(1|1)", F3)
    with pytest.raises(ValueError):
        operator_model_from_symmetric(reduced_enveloping(g))


def test_plain_symmetric_algebra_augmentation_ideal():
    """With xi = 0 the largest invariant ideal is the whole augmentation ideal."""
    g = build_algebra("gl(1|1)", F3)
    S = reduced_symmetric(g)
    model = operator_model_from_symmetric(S)
    # the parity involution is -1 exactly on the odd monomials, and squares to 1
    signs = [F3.neg(1) if S.monomial_parity(m) else 1 for m in S.basis_monomials()]
    sigma = model.ops[-1]
    assert (np.diag(sigma) == signs).all()
    assert (la.matmul(F3, sigma, sigma) == la.eye(model.n)).all()
    top = largest_proper_invariant_ideal(model)
    c0, c1, total = graded_codims(model, top)
    assert (c0, c1, total) == (1, 0, 1)


def test_graded_codims_rejects_a_non_graded_subspace():
    g = build_algebra("gl(1|1)", F3)
    model = operator_model_from_symmetric(reduced_symmetric(g))
    even, odd = np.nonzero(model.parities == 0)[0][0], np.nonzero(model.parities == 1)[0][0]
    row = la.zeros((1, model.n))
    row[0, [even, odd]] = 1  # spans neither its even nor its odd part
    with pytest.raises(InvariantViolation, match="not graded"):
        graded_codims(model, row)
    assert graded_codims(model, la.eye(model.n)[[even, odd]]) == (
        model.n - model.parities.sum() - 1, model.parities.sum() - 1, model.n - 2)


def test_ideal_survey_gl11():
    g = build_algebra("gl(1|1)", F3)
    chi = g.chi_from_cartan([1, 0])
    cent = g.centralizer(chi)
    divisor = 3 ** (cent.d0 // 2) * 2 ** (cent.d1 // 2)
    S = reduced_symmetric(g, chi)
    rep = ideal_survey(S, divisor, (cent.d0, cent.d1),
                       seeds=6, rng=np.random.default_rng(5))
    assert rep["largest_ideal_codim"] == 4
    assert (rep["largest_ideal_codim_even"], rep["largest_ideal_codim_odd"]) == (2, 2)
    assert rep["graded_bound_holds"]
    assert rep["largest_divisible"]
    assert rep["all_closures_divisible"]
    # the alternating seed scheme produces at least one nontrivial closure
    assert any(c["codim"] >= 4 for c in rep["closures"])


def test_largest_ideal_matches_shrinking_reference():
    """The top ideal of the osp(1|2), p = 3, xi = explicit:1 survey (the sym
    bench config) has the same rows from the transposed closure as from the
    shrinking iteration."""
    g = build_algebra("osp(1|2)", F3)
    model = operator_model_from_symmetric(reduced_symmetric(g, g.chi_from_cartan([1])))
    top = largest_proper_invariant_ideal(model)
    want = ref.largest_stable_subspace_shrinking(model.F, model.max_ideal_rows(), list(model.ops))
    assert np.array_equal(top, want)
    assert model.n - top.shape[0] == 36


def test_invariant_ideal_closure_stays_inside_top_ideal():
    g = build_algebra("gl(1|1)", F3)
    chi = g.chi_from_cartan([1, 0])
    S = reduced_symmetric(g, chi)
    model = operator_model_from_symmetric(S)
    top = largest_proper_invariant_ideal(model)
    closure = invariant_ideal_closure(model, top[:1])
    for row in closure:
        assert la.in_row_space(S.F, top, row)


SYM_CASES = [("osp(1|2)", 3, [1]), ("gl(1|1)", 3, [1, 0]), ("gl(1|1)", 5, [1, 0])]


@pytest.mark.parametrize("label,p,cartan", SYM_CASES)
def test_left_multiplications_add_nothing_to_the_sym_stack(label, p, cartan):
    """S_xi is supercommutative, so L_x = R_x sigma^{|x|}: appending the
    reference engine's left multiplications to the stack changes neither
    the largest ideal nor any seeded closure."""
    g = build_algebra(label, field_create(p, 1))
    xi = g.chi_from_cartan(cartan)
    model = operator_model_from_symmetric(reduced_symmetric(g, xi))
    F, d = model.F, g.dim
    R = ReferenceAlgebra(g, xi, lam=0)
    lefts = np.stack([R.left_mult_matrix(i) for i in range(d)])
    sigma = model.ops[-1]
    for x in range(d):
        want = la.matmul(F, model.ops[x], sigma) if g.parities[x] else model.ops[x]
        assert np.array_equal(lefts[x], want)
    full = OperatorModel(F, model.parities, np.concatenate([lefts, model.ops]),
                         model.aug_vector)
    top = largest_proper_invariant_ideal(model)
    assert 0 < top.shape[0] < model.n - 1
    assert np.array_equal(top, largest_proper_invariant_ideal(full))
    rng = np.random.default_rng(11)
    for pool in (model.max_ideal_rows(), top):
        for _ in range(3):
            seed = la.matmul(F, rng.integers(0, F.q, (1, pool.shape[0])), pool)
            got = invariant_ideal_closure(model, seed)
            want = invariant_ideal_closure(full, seed)
            assert np.array_equal(la.row_space_basis(F, got), la.row_space_basis(F, want))
