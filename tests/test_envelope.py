"""Tests for the deformed enveloping-algebra family U_{xi,lam}."""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from superlie import linalg as la
from superlie.gf import field_create
from superlie.liesuper import build_algebra
from superlie.envelope import (
    DeformedAlgebra,
    ThetaMap,
    _random_element,
    reduced_enveloping,
    reduced_symmetric,
    theta_map,
)
from reference_envelope import ReferenceAlgebra
from tooling import (from_coords, pbw_add, pbw_indexed, pbw_scale, pbw_sub, pbw_tuples,
                     random_pairs, to_vector)

F3 = field_create(3, 1)
F5 = field_create(5, 1)


def test_dimensions():
    g = build_algebra("gl(1|1)", F3)
    assert reduced_enveloping(g).dimension() == 36
    g5 = build_algebra("osp(1|2)", F5)
    assert reduced_enveloping(g5).dimension() == 500
    g21 = build_algebra("gl(2|1)", F3)
    assert reduced_enveloping(g21).dimension() == 3888


def test_identity_element():
    g = build_algebra("osp(1|2)", F3)
    U = reduced_enveloping(g, g.chi_regular_semisimple())
    rng = np.random.default_rng(3)
    for _ in range(10):
        a = _random_element(U, rng)
        assert U.equal(U.multiply(U.one(), a), a)
        assert U.equal(U.multiply(a, U.one()), a)


def test_commutator_relations_all_pairs():
    g = build_algebra("gl(1|1)", F3)
    for lam in (0, 1, 2):
        U = DeformedAlgebra(g, g.chi_zero(), lam=lam)
        for i in range(g.dim):
            for j in range(g.dim):
                xi_, xj = U.gen(i), U.gen(j)
                lhs = U.multiply(xi_, xj)
                ba = U.multiply(xj, xi_)
                if g.parities[i] and g.parities[j]:
                    lhs = pbw_add(U, lhs, ba)
                else:
                    lhs = pbw_sub(U, lhs, ba)
                rhs = pbw_scale(U, lam, from_coords(U, g.bracket_tensor[i, j]))
                assert U.equal(lhs, rhs)


def test_p_power_relation_even_generators():
    g = build_algebra("gl(1|1)", F3)
    chi = g.chi_from_cartan([1, 0])
    for lam in (1, 2):
        U = DeformedAlgebra(g, chi, lam=lam)
        for i in range(g.dim):
            if g.parities[i]:
                continue
            power = U.one()
            for _ in range(g.p):
                power = U.multiply(power, U.gen(i))
            lam_pm1 = F3.pow_int(lam, g.p - 1)
            rhs = pbw_scale(U, lam_pm1, from_coords(U, g.p_map[i]))
            chi_p = F3.pow_int(int(chi.values[i]), g.p)
            rhs = pbw_add(U, rhs, pbw_scale(U, chi_p, U.one()))
            assert U.equal(power, rhs)


def test_p_power_frozen_example():
    g = build_algebra("gl(1|1)", F3)
    U = reduced_enveloping(g, g.chi_from_cartan([1, 0]))
    h = U.gen(0)
    h3 = U.multiply(U.multiply(h, h), h)
    expected = pbw_add(U, U.gen(0), U.one())  # E11 + chi(E11)^3 = E11 + 1
    assert U.equal(h3, expected)


def test_odd_square_relation():
    g = build_algebra("osp(1|2)", F3)
    ix = g.root_index[g.rs.index("d1")]
    for lam in (0, 1, 2):
        U = DeformedAlgebra(g, g.chi_zero(), lam=lam)
        x = U.gen(ix)
        sq = U.multiply(x, x)
        half = F3.div(lam % 3, 2)
        rhs = pbw_scale(U, half, from_coords(U, g.bracket_tensor[ix, ix]))
        assert U.equal(sq, rhs)


def test_associativity_random_triples():
    rng = np.random.default_rng(11)
    count = 0
    for label, F, chi_kind in [("gl(1|1)", F3, "rs"), ("osp(1|2)", F5, "rs"),
                               ("osp(2|2)", F3, "zero")]:
        g = build_algebra(label, F)
        chi = g.chi_regular_semisimple() if chi_kind == "rs" else g.chi_zero()
        U = reduced_enveloping(g, chi)
        for _ in range(75):
            a = _random_element(U, rng)
            b = _random_element(U, rng)
            c = _random_element(U, rng)
            lhs = U.multiply(U.multiply(a, b), c)
            rhs = U.multiply(a, U.multiply(b, c))
            assert U.equal(lhs, rhs)
            count += 1
    assert count >= 200


def test_words_ending_in_one_letter_fold_through_it_once(monkeypatch):
    """a * (x_0 x_j + x_1 x_j + ... + x_{j-1} x_j), j the last slot: the words
    share no prefix, so Horner's rule folds a through x_0, ..., x_{j-1} once
    each and their sum through x_j once, N + 1 folds where folding a along
    each word takes 2N."""
    g = build_algebra("osp(2|2)", F5)
    U = reduced_enveloping(g, g.chi_regular_semisimple())
    j = U.n_slots - 1
    b = {U._weight[s] + U._weight[j]: 1 + s % 4 for s in range(j)}
    a = _random_element(U, np.random.default_rng(5))
    assert len(b) >= 3 and len(a) >= 2
    # warm the memo, so that every fold of the counted product is one of multiply's
    want = U.multiply(a, b)
    folds = []
    fold = U._fold

    def counted(terms, s, out, coeff=1):
        folds.append(s)
        return fold(terms, s, out, coeff)
    monkeypatch.setattr(U, "_fold", counted)
    assert U.multiply(a, b) == want
    assert folds.count(j) == 1
    assert sorted(folds) == list(range(j + 1))


def test_supercommutativity_at_lambda_zero():
    g = build_algebra("osp(2|2)", F3)
    S = reduced_symmetric(g, g.chi_regular_semisimple())
    rng = np.random.default_rng(4)
    for i in range(g.dim):
        for j in range(g.dim):
            a, b = S.gen(i), S.gen(j)
            ab, ba = S.multiply(a, b), S.multiply(b, a)
            if g.parities[i] and g.parities[j]:
                assert S.equal(ab, pbw_scale(S, F3.neg(1), ba))
            else:
                assert S.equal(ab, ba)
    # odd squares vanish at lam = 0
    for i in range(g.dim):
        if g.parities[i]:
            assert S.multiply(S.gen(i), S.gen(i)) == {}
    del rng


def test_theta_isomorphism_and_composition():
    g = build_algebra("gl(1|1)", F3)
    chi = g.chi_from_cartan([1, 2])
    U = DeformedAlgebra(g, chi, lam=2)
    rng = np.random.default_rng(5)
    for t in (1, 2):
        dst, th = theta_map(U, t)
        assert dst.lam == F3.mul(2, t)
        assert th.verify(random_pairs(U, rng, 8))["passed"]
    # normalization to lam = 1: t = lam^{-1}
    dst, th = theta_map(U, F3.inv(2))
    assert dst.lam == 1
    assert (dst.xi.values == chi.scale(F3.inv(2)).values).all()
    assert th.verify(random_pairs(U, rng, 8))["passed"]
    # composition theta_{t'} . theta_t = theta_{t' t}
    d1, th1 = theta_map(U, 2)
    d2, th2 = theta_map(d1, 2)
    d3, th3 = theta_map(U, F3.mul(2, 2))
    for _ in range(10):
        a = _random_element(U, rng)
        assert d2.equal(th2.apply(th1.apply(a)), th3.apply(a))


def test_theta_verify_fails_on_a_wrong_scaling():
    g = build_algebra("gl(1|1)", F3)
    U = DeformedAlgebra(g, g.chi_from_cartan([1, 2]), lam=1)
    dst, _ = theta_map(U, 2)
    # the identity map U_{xi,1} -> U_{2xi,2} breaks x y - y x = lam [x, y]
    report = ThetaMap(U, dst, 1).verify(random_pairs(U, np.random.default_rng(9), 4))
    assert not report["generator_products"]
    assert not report["passed"]


def test_theta_rejects_zero():
    g = build_algebra("gl(1|1)", F3)
    with pytest.raises(ValueError):
        theta_map(reduced_enveloping(g), 0)


def test_action_is_module_structure():
    """act([x,y], u) = act(x, act(y, u)) -+ act(y, act(x, u))."""
    g = build_algebra("gl(1|1)", F3)
    U = reduced_enveloping(g, g.chi_from_cartan([1, 0]))
    rng = np.random.default_rng(6)
    for i in range(g.dim):
        for j in range(g.dim):
            for _ in range(3):
                u = _random_element(U, rng)
                lhs = U.act(i, U.act(j, u))
                swap = U.act(j, U.act(i, u))
                if g.parities[i] and g.parities[j]:
                    lhs = pbw_add(U, lhs, swap)
                else:
                    lhs = pbw_sub(U, lhs, swap)
                rhs = {}
                for k in np.nonzero(g.bracket_tensor[i, j])[0]:
                    rhs = pbw_add(U, rhs, pbw_scale(U, int(g.bracket_tensor[i, j][k]),
                                                    U.act(int(k), u)))
                assert U.equal(lhs, rhs)


def test_action_leibniz_on_products():
    g = build_algebra("osp(1|2)", F3)
    U = reduced_enveloping(g)
    rng = np.random.default_rng(7)
    for x in range(g.dim):
        for _ in range(5):
            # u must be parity-homogeneous for the graded Leibniz rule
            m = tuple(int(rng.integers(0, cap)) for cap in U.slot_cap)
            u = pbw_indexed(U, {m: 1 + int(rng.integers(0, U.F.q - 1))})
            v = _random_element(U, rng)
            lhs = U.act(x, U.multiply(u, v))
            t1 = U.multiply(U.act(x, u), v)
            t2 = U.multiply(u, U.act(x, v))
            if g.parities[x] and U.monomial_parity(m):
                t2 = pbw_scale(U, U.F.neg(1), t2)
            assert U.equal(lhs, pbw_add(U, t1, t2))


def test_operator_matrices_consistency():
    g = build_algebra("gl(1|1)", F3)
    U = reduced_enveloping(g, g.chi_from_cartan([1, 0]))
    index = {m: i for i, m in enumerate(U.basis_monomials())}
    n = len(index)
    assert n == 36
    R = ReferenceAlgebra(g, U.xi, lam=1)
    lefts = [R.left_mult_matrix(i) for i in range(g.dim)]
    rights = [U.right_mult_matrix(i) for i in range(g.dim)]
    # left and right multiplications commute (associativity)
    for L in lefts:
        for R in rights:
            assert (la.matmul(U.F, L, R) == la.matmul(U.F, R, L)).all()
    # action matrix agrees with direct action
    rng = np.random.default_rng(8)
    A = U.action_matrix(0)
    for _ in range(5):
        u = _random_element(U, rng)
        vec = to_vector(pbw_tuples(U, u), index)
        direct = to_vector(pbw_tuples(U, U.act(0, u)), index)
        assert (la.matvec(U.F, A, vec) == direct).all()


def test_matrix_cap_enforced():
    g = build_algebra("gl(2|2)", F3)
    U = reduced_enveloping(g)
    assert U.dimension() == 3**8 * 2**8
    with pytest.raises(ValueError):
        U.basis_monomials()
    with pytest.raises(ValueError):
        U.right_mult_matrix(0)


def test_custom_engine_order():
    g = build_algebra("osp(1|2)", F3)
    neg = [i for i, r in enumerate(g.basis_roots)
           if r is not None and not g.distinguished.is_positive(r)]
    pos = [i for i, r in enumerate(g.basis_roots)
           if r is not None and g.distinguished.is_positive(r)]
    order = neg + list(g.cartan) + pos
    U = DeformedAlgebra(g, g.chi_zero(), lam=1, order=order)
    assert U.dimension() == 3 ** 3 * 2 ** 2
    # relations still hold in the reordered engine
    for i in range(g.dim):
        for j in range(g.dim):
            lhs = U.multiply(U.gen(i), U.gen(j))
            ba = U.multiply(U.gen(j), U.gen(i))
            if g.parities[i] and g.parities[j]:
                lhs = pbw_add(U, lhs, ba)
            else:
                lhs = pbw_sub(U, lhs, ba)
            assert U.equal(lhs, from_coords(U, g.bracket_tensor[i, j]))
    with pytest.raises(ValueError):
        DeformedAlgebra(g, order=[0, 0, 1, 2, 3])


def test_xi_instance_mismatch_rejected():
    g1 = build_algebra("gl(1|1)", F3)
    g2 = build_algebra("gl(1|1)", F3)
    with pytest.raises(ValueError):
        DeformedAlgebra(g1, g2.chi_zero())


SRC = Path(__file__).resolve().parent.parent / "src"


def _fresh_python(code: str) -> str:
    """Run code in a fresh interpreter with superlie importable; its stdout."""
    proc = subprocess.run([sys.executable, "-c", f"import sys\nsys.path.insert(0, {str(SRC)!r})\n"
                           + code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_leaves_recursion_limit_unchanged():
    out = _fresh_python(
        "before = sys.getrecursionlimit()\n"
        "import superlie, superlie.cli\n"
        "print(before, sys.getrecursionlimit())\n"
    )
    before, after = out.split()
    assert before == after


def test_cold_generator_times_top_monomial_under_default_limit():
    # the deepest straightening the engine meets: x_b times the top monomial
    # of gl(2|2) at p = 3, each on an empty memo
    out = _fresh_python(
        "from superlie.gf import field_create\n"
        "from superlie.liesuper import build_algebra\n"
        "from superlie.envelope import reduced_enveloping\n"
        "g = build_algebra('gl(2|2)', field_create(3))\n"
        "chi = g.chi_from_cartan([1, 2, 0, 1])\n"
        "for b in range(g.dim):\n"
        "    U = reduced_enveloping(g, chi)\n"
        "    top = {U.dimension() - 1: 1}  # the top monomial's index\n"
        "    U.multiply(U.gen(b), top)\n"
        "print(sys.getrecursionlimit())\n"
    )
    assert out.split() == ["1000"]
