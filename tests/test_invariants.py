"""Tests for comultiplication, coinduced algebras, and invariant ideals."""

import numpy as np
import pytest

import reference_linalg as ref
from superlie import linalg as la
from superlie.gf import field_create
from superlie.liesuper import build_algebra
from superlie.envelope import DeformedAlgebra, reduced_enveloping, reduced_symmetric
from superlie.invariants import (
    CoinducedAlgebra,
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


def test_identity_and_nilpotents():
    g, q = _pairs()[0]
    C = CoinducedAlgebra(g, q)
    fy = C.dual_basis_element((1,))
    assert C.multiply(fy, fy) == {}
    one = C.dual_basis_element((0,))
    assert C.multiply(one, fy) == fy
    assert C.multiply(fy, one) == fy


def test_function_algebra_is_associative_supercommutative():
    for g, q in _pairs():
        C = CoinducedAlgebra(g, q)
        F = C.F
        els = [C.dual_basis_element(b) for b in C.basis]
        for a, pa in zip(els, C._parities):
            for b, pb in zip(els, C._parities):
                ab = C.multiply(a, b)
                ba = C.multiply(b, a)
                if pa and pb:
                    ba = {k: F.neg(v) for k, v in ba.items()}
                assert ab == ba
        for a in els[:3]:
            for b in els[:3]:
                for c in els[:3]:
                    assert C.multiply(C.multiply(a, b), c) == C.multiply(a, C.multiply(b, c))


def test_coinduced_action_is_module_structure():
    for g, q in _pairs():
        C = CoinducedAlgebra(g, q)
        F = C.F
        for i in range(g.dim):
            for j in range(g.dim):
                for b in C.basis:
                    f = C.dual_basis_element(b)
                    lhs: dict = {}
                    for k in np.nonzero(g.bracket_tensor[i, j])[0]:
                        for kk, v in C.act(int(k), f).items():
                            c = F.mul(int(g.bracket_tensor[i, j][int(k)]), v)
                            nv = F.add(lhs.get(kk, 0), c)
                            lhs[kk] = nv
                    lhs = {k2: v for k2, v in lhs.items() if v}
                    r1 = C.act(i, C.act(j, f))
                    r2 = C.act(j, C.act(i, f))
                    rhs = dict(r1)
                    for kk, v in r2.items():
                        c = v if (g.parities[i] and g.parities[j]) else F.neg(v)
                        nv = F.add(rhs.get(kk, 0), c)
                        if nv:
                            rhs[kk] = nv
                        elif kk in rhs:
                            del rhs[kk]
                    assert lhs == {k2: v for k2, v in rhs.items() if v}


def test_coinduced_action_by_superderivations():
    g, q = _pairs()[1]  # osp(1|2), borel
    C = CoinducedAlgebra(g, q)
    F = C.F
    for i in range(g.dim):
        for b1 in C.basis:
            for b2 in C.basis:
                f1 = C.dual_basis_element(b1)
                f2 = C.dual_basis_element(b2)
                lhs = C.act(i, C.multiply(f1, f2))
                t1 = C.multiply(C.act(i, f1), f2)
                t2 = C.multiply(f1, C.act(i, f2))
                if g.parities[i] and C._parities[C.index[b1]]:
                    t2 = {k: F.neg(v) for k, v in t2.items()}
                rhs = dict(t1)
                for kk, v in t2.items():
                    nv = F.add(rhs.get(kk, 0), v)
                    if nv:
                        rhs[kk] = nv
                    elif kk in rhs:
                        del rhs[kk]
                assert lhs == {k: v for k, v in rhs.items() if v}


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
    with pytest.raises(RuntimeError, match="not graded"):
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
