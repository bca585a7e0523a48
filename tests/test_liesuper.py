"""Tests for the concrete matrix-realized Lie superalgebras."""

import numpy as np
import pytest

from superlie import linalg as la
from superlie.gf import field_create
from superlie.liesuper import build_algebra
from reference_liesuper import bracket_coords
from reference_verma import verify_relations
from tooling import baby_vermas, corrupted

F3 = field_create(3, 1)
F5 = field_create(5, 1)


# ---------------------------------------------------------------------------
# construction, dimensions, rejection


def test_dimension_table():
    expected = {
        ("gl(1|1)", 3): (2, 2),
        ("gl(2|1)", 3): (5, 4),
        ("gl(2|2)", 3): (8, 8),
        ("sl(2|1)", 3): (4, 4),
        ("osp(1|2)", 3): (3, 2),
        ("osp(1|2)", 5): (3, 2),
        ("osp(2|2)", 3): (4, 4),
    }
    for (label, p), (d0, d1) in expected.items():
        g = build_algebra(label, field_create(p, 1))
        assert (g.dim_even, g.dim_odd) == (d0, d1)
        assert g.dim == d0 + d1
        report = g.validate()
        assert report["passed"], report


def test_unsupported_types_rejected():
    with pytest.raises(ValueError):
        build_algebra("B(1,1)", F3)
    with pytest.raises(ValueError):
        build_algebra("D(2,1;a)", F3)
    with pytest.raises(ValueError):
        build_algebra("F(4)", F5)


def test_prime_rejections():
    # sl(m|n) needs p not dividing m - n
    with pytest.raises(ValueError):
        build_algebra("sl(1|1)", F3)
    with pytest.raises(ValueError):
        build_algebra("sl(4|1)", F3)


def test_basis_order_cartan_then_roots_by_height():
    g = build_algebra("gl(2|1)", F3)
    assert g.cartan == [0, 1, 2]
    roots = [g.basis_roots[i] for i in range(3, 9)]
    assert roots == [g.rs.index(label) for label in [
        "e1-e2", "e2-d1", "e1-d1",
        "-e1+e2", "-e2+d1", "-e1+d1",
    ]]


# ---------------------------------------------------------------------------
# frozen bracket relations


def test_gl11_frozen_relations():
    g = build_algebra("gl(1|1)", F3)
    ix = g.root_index[g.rs.index("e1-d1")]
    iy = g.root_index[g.rs.index("-e1+d1")]
    # [E12, E21] = E11 + E22 (anticommutator of odd elements)
    expected = la.zeros(4)
    expected[0] = expected[1] = 1
    assert (g.bracket_tensor[ix, iy] == expected).all()
    # [E11, X] = X, [E22, X] = -X
    assert g.bracket_tensor[0, ix][ix] == 1
    assert g.bracket_tensor[1, ix][ix] == 2
    # restricted powers of the diagonal
    assert (g.p_map[0] == np.array([1, 0, 0, 0])).all()
    assert (g.p_map[1] == np.array([0, 1, 0, 0])).all()


def test_osp12_frozen_relations():
    for F in (F3, F5):
        g = build_algebra("osp(1|2)", F)
        ih = 0
        ix, ie, iy, if_ = (g.root_index[g.rs.index(label)] for label in ("d1", "2d1", "-d1", "-2d1"))

        def expect(vec, **kw):
            out = la.zeros(5)
            for idx, c in kw.items():
                out[int(idx)] = c % F.p
            assert (vec == out).all()

        expect(g.bracket_tensor[ix, iy], **{str(ih): 1})       # [x, y] = h
        expect(g.bracket_tensor[ih, ix], **{str(ix): 1})       # [h, x] = x
        expect(g.bracket_tensor[ih, iy], **{str(iy): -1})      # [h, y] = -y
        expect(g.bracket_tensor[ix, ix], **{str(ie): -2})      # [x, x] = -2e
        expect(g.bracket_tensor[iy, iy], **{str(if_): 2})      # [y, y] = 2f
        expect(g.bracket_tensor[ie, iy], **{str(ix): 1})       # [e, y] = x
        expect(g.bracket_tensor[if_, ix], **{str(iy): 1})      # [f, x] = y
        expect(g.bracket_tensor[ie, if_], **{str(ih): 1})      # [e, f] = h


def test_ad_weights_match_cartan_table():
    for label, F in [("gl(2|1)", F3), ("osp(1|2)", F5), ("osp(2|2)", F3), ("sl(2|1)", F3)]:
        g = build_algebra(label, F)
        for root, idx in g.root_index.items():
            vals = g.weight_on_cartan(g.rs.roots[root], g.rs.denominator)
            for ci, v in zip(g.cartan, vals):
                got = g.bracket_tensor[ci, idx]
                expected = la.zeros(g.dim)
                expected[idx] = v
                assert (got == expected).all()


# ---------------------------------------------------------------------------
# coroots


def test_coroot_frozen_values():
    g = build_algebra("gl(1|1)", F3)
    H = g.coroots[g.rs.index("e1-d1")]
    assert (H == np.array([1, 1, 0, 0])).all()  # E11 + E22

    o = build_algebra("osp(1|2)", F5)
    assert (o.coroots[o.rs.index("d1")] == np.array([2, 0, 0, 0, 0])).all()   # H_d = 2h
    assert (o.coroots[o.rs.index("2d1")] == np.array([1, 0, 0, 0, 0])).all()  # H_2d = h

    g21 = build_algebra("gl(2|1)", F3)
    assert (g21.coroots[g21.rs.index("e1-e2")][:3] == np.array([1, 2, 0])).all()
    assert (g21.coroots[g21.rs.index("e1-d1")][:3] == np.array([1, 0, 1])).all()
    assert (g21.coroots[g21.rs.index("e2-d1")][:3] == np.array([0, 1, 1])).all()


def test_coroot_normalization_identity():
    """a(H_a) = 2 for non-isotropic roots; H_a = t_a for isotropic ones."""
    for label, F in [("gl(2|2)", F3), ("osp(1|2)", F5), ("osp(2|2)", F3)]:
        g = build_algebra(label, F)
        for root, row in enumerate(g.rs.roots):
            vals = g.weight_on_cartan(row, g.rs.denominator)
            (pairing,) = g.coroot_value(F, [vals_to_cartan(g, vals)], [root])[0]
            if g.rs.gram[root, root] != 0:
                assert pairing == 2 % F.p
            else:
                assert pairing == 0  # isotropic: (a|a) = a(t_a) = 0


def vals_to_cartan(g, vals):
    return list(vals)


# ---------------------------------------------------------------------------
# characters and centralizers


def test_centralizer_examples():
    g = build_algebra("gl(1|1)", F3)
    c = g.centralizer(g.chi_zero())
    assert (c.d0, c.d1) == (0, 0)
    c = g.centralizer(g.chi_from_cartan([1, 0]))
    assert (c.d0, c.d1) == (0, 2)

    o = build_algebra("osp(1|2)", F3)
    c = o.centralizer(o.chi_regular_semisimple())
    assert (c.d0, c.d1) == (2, 2)
    c = o.centralizer(o.nilpotent_root_character("2d1"))
    assert (c.d0, c.d1) == (2, 1)

    g21 = build_algebra("gl(2|1)", F3)
    c = g21.centralizer(g21.chi_regular_semisimple())
    assert (c.d0, c.d1) == (2, 4)


def test_chi_scans():
    g = build_algebra("gl(1|1)", F3)
    assert g.chi_nonregular_nonzero().cartan_values() == (1, 2)
    assert g.chi_regular_semisimple().cartan_values() == (0, 1)

    g21 = build_algebra("gl(2|1)", F3)
    assert g21.chi_regular_semisimple().cartan_values() == (0, 1, 1)
    nr = g21.chi_nonregular_nonzero()
    assert nr is not None and not nr.is_zero()
    assert not g21.is_regular_semisimple(nr)

    o = build_algebra("osp(1|2)", F3)
    assert o.chi_nonregular_nonzero() is None
    assert o.chi_regular_semisimple().cartan_values() == (1,)


def test_regular_semisimple_predicate():
    g = build_algebra("gl(2|1)", F3)
    assert g.is_regular_semisimple(g.chi_from_cartan([0, 1, 1]))
    assert not g.is_regular_semisimple(g.chi_from_cartan([1, 1, 0]))  # chi1 == chi2
    assert g.is_regular_semisimple(g.chi_from_cartan([1, 2, 0]))
    assert not g.is_regular_semisimple(g.chi_zero())
    with pytest.raises(ValueError):
        g.is_regular_semisimple(g.nilpotent_root_character("e1-e2"))


def test_nilpotent_root_character():
    o = build_algebra("osp(1|2)", F3)
    chi = o.nilpotent_root_character("2d1")
    # vanishes on the Cartan and on positive root vectors
    assert chi.values[0] == 0
    for root, idx in o.root_index.items():
        if o.distinguished.is_positive(root):
            assert chi.values[idx] == 0
    assert not chi.is_zero()
    g = build_algebra("gl(1|1)", F3)
    with pytest.raises(ValueError):
        g.nilpotent_root_character("e1-d1")  # odd root vector


def test_character_from_element_matches_form():
    g = build_algebra("gl(1|1)", F3)
    coords = [1, 0, 0, 0]  # E11
    chi = g.character_from_element(coords)
    assert chi.cartan_values() == (1, 0)
    with pytest.raises(ValueError):
        g.character_from_element([0, 0, 1, 0])  # odd element


def test_character_scale():
    g = build_algebra("gl(2|1)", F3)
    chi = g.chi_regular_semisimple()
    assert chi.scale(2).cartan_values() == tuple((2 * v) % 3 for v in chi.cartan_values())
    assert chi.scale(0).is_zero()


# ---------------------------------------------------------------------------
# conjugation invariance of centralizer dimensions


def _exp_ad(g, idx):
    """exp(ad X) for a nilpotent even basis element, as a matrix on g."""
    F = g.F
    N = g.ad_matrices[idx]
    terms = [la.eye(g.dim)]
    cur = la.eye(g.dim)
    fact = 1
    j = 0
    while True:
        cur = la.matmul(F, cur, N)
        j += 1
        if not cur.any():
            break
        fact = (fact * j) % F.p
        assert fact != 0, "nilpotency degree too large for exp at this prime"
        terms.append(F.smul_arr(F.inv(fact), cur))
    out = la.zeros((g.dim, g.dim))
    for t in terms:
        out = F.add_arr(out, t)
    return out


def test_exp_ad_is_automorphism_and_preserves_centralizer_dims():
    rng = np.random.default_rng(7)
    for label, F in [("gl(2|1)", F3), ("osp(1|2)", F5), ("osp(2|2)", F3)]:
        g = build_algebra(label, F)
        # first even positive root vector
        idx = next(i for i, r in enumerate(g.basis_roots)
                   if r is not None and g.parities[i] == 0)
        u = _exp_ad(g, idx)
        # automorphism: u[a, b] = [ua, ub] on random pairs
        for _ in range(20):
            a = rng.integers(0, F.q, g.dim)
            b = rng.integers(0, F.q, g.dim)
            lhs = la.matvec(F, u, bracket_coords(g, a, b))
            rhs = bracket_coords(g, la.matvec(F, u, a), la.matvec(F, u, b))
            assert (lhs == rhs).all()
        # centralizer dimensions are conjugation invariants
        for chi in (g.chi_regular_semisimple(), g.chi_zero()):
            vals2 = la.matvec(F, u.T, chi.values)
            chi2 = type(chi)(g, vals2)
            c1, c2 = g.centralizer(chi), g.centralizer(chi2)
            assert (c1.d0, c1.d1) == (c2.d0, c2.d1)


# ---------------------------------------------------------------------------
# export


def test_supertrace_form_nondegenerate_and_even():
    for label, F in [("gl(2|2)", F5), ("sl(2|1)", F3), ("osp(2|2)", F3)]:
        g = build_algebra(label, F)
        assert la.rank(F, g.form) == g.dim
        for i in range(g.dim):
            for j in range(g.dim):
                if g.parities[i] != g.parities[j]:
                    assert g.form[i, j] == 0


# ---------------------------------------------------------------------------
# validate catches corrupted structure arrays


@pytest.mark.parametrize("label,p", [("gl(2|1)", 3), ("osp(1|2)", 5), ("osp(2|2)", 3)])
def test_validate_flags_each_corrupted_entry(label, p):
    g = build_algebra(label, field_create(p, 1))
    rng = np.random.default_rng(11)
    even = np.flatnonzero(g.parities == 0)
    cases = []
    for _ in range(8):
        cases.append(("bracket_tensor", tuple(rng.integers(0, g.dim, 3)), ("skew(", "bracket(")))
        cases.append(("p_map", (rng.choice(even), rng.integers(0, g.dim)), ("p-power(",)))
        cases.append(("form", tuple(rng.integers(0, g.dim, 2)), ("form-",)))
    for array, index, kinds in cases:
        report = corrupted(g, array, index, rng).validate()
        assert not report["passed"], (array, index)
        assert any(name.startswith(kinds) for name in report["failures"]), (array, index, report)


# ---------------------------------------------------------------------------
# the relation check on operator stacks


@pytest.mark.parametrize("label", ["gl(1|1)", "gl(2|1)", "sl(2|1)", "osp(1|2)", "osp(2|2)",
                                   "gl(2|2)"])
@pytest.mark.parametrize("p", [3, 5])
def test_relation_check_accepts_ad_and_sees_a_corrupted_p_map(label, p):
    """ad is a representation of g, so it satisfies every relation; after
    one row of p_map is changed, ad breaks that row's p-th power relation."""
    g = build_algebra(label, field_create(p, 1))
    assert g.relation_failures(g.ad_matrices) == []
    rng = np.random.default_rng(5)
    for i in np.flatnonzero(g.parities == 0):
        h = corrupted(g, "p_map", (i, rng.integers(0, g.dim)), rng)
        assert h.relation_failures(h.ad_matrices) == [f"p-power({g.basis_names[i]})"]


def test_relation_check_agrees_with_the_loop_reference_on_baby_vermas():
    """On every chi = 0 baby Verma of gl(2|1), p = 3, intact and with one
    random entry of its stack changed, the stacked check fails the same
    relations, in the same order, as the pair-by-pair ``verify_relations``."""
    g = build_algebra("gl(2|1)", F3)
    rng = np.random.default_rng(3)
    names = {f"bracket({i},{j})": f"bracket({a},{b})"
             for i, a in enumerate(g.basis_names) for j, b in enumerate(g.basis_names)}
    names.update({f"p-power({i})": f"p-power({a})" for i, a in enumerate(g.basis_names)})
    modules = 0
    for Z in baby_vermas(g, g.chi_zero()):
        for broken in (False, True):
            if broken:
                stack = Z.operators().copy()
                index = tuple(rng.integers(0, n) for n in stack.shape)
                stack[index] = g.F.add(int(stack[index]), int(rng.integers(1, g.F.q)))
                Z._stack = stack
            want = verify_relations(Z)
            got = g.relation_failures(Z.operators())
            assert (not got) == want["passed"]
            assert got[:10] == [names[name] for name in want["failures"]]
            assert got or not broken
        modules += 1
    assert modules == 27
