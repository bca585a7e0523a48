"""Tests for baby Verma modules, their weight sets, and irreducibility."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_verma as ref
from superlie import linalg as la
from superlie import verma
from superlie.gf import field_create
from superlie.liesuper import build_algebra
from superlie.rootsys import parse_root_label
from superlie.verma import (
    BabyVerma,
    VermaSystem,
    agreement_sweep,
    criterion_value,
    lambda_set,
    pairing_at,
    proportionality_report,
    reflection_report,
    semisimplicity_check,
    shift_lambda,
    standard_characters,
)

F3 = field_create(3, 1)
F5 = field_create(5, 1)


# ---------------------------------------------------------------------------
# weight sets


def test_lambda_set_zero_character_is_prime_grid():
    g = build_algebra("gl(1|1)", F3)
    ls = lambda_set(g, g.chi_zero())
    assert ls.k == 1 and len(ls) == 9
    assert sorted(ls.weights) == sorted(itertools.product(range(3), repeat=2))


def test_lambda_set_sizes_and_fields():
    cases = [
        ("gl(1|1)", 3, "regular_semisimple", 9, 3),
        ("osp(1|2)", 3, "regular_semisimple", 3, 3),
        ("gl(2|1)", 3, "zero", 27, 1),
        ("osp(1|2)", 5, "regular_semisimple", 5, 5),
    ]
    for label, p, which, count, k in cases:
        g = build_algebra(label, field_create(p, 1))
        chi = standard_characters(g)[which]
        ls = lambda_set(g, chi)
        assert len(ls) == count, (label, p, which)
        assert ls.k == k, (label, p, which)


def test_lambda_set_satisfies_defining_equation():
    g = build_algebra("gl(1|1)", F3)
    chi = g.chi_regular_semisimple()
    ls = lambda_set(g, chi)
    F = ls.field
    chi_h = chi.cartan_values()
    for lam in ls:
        for lv, cv in zip(lam, chi_h):
            # h^{[p]} = h on this Cartan, so the equation is lam^p - lam = chi^p
            assert F.sub(F.pow_int(lv, 3), lv) == F.pow_int(cv, 3)


def test_lambda_set_stable_under_root_shifts():
    g = build_algebra("gl(2|1)", F3)
    chi = g.chi_regular_semisimple()
    ls = lambda_set(g, chi)
    F = ls.field
    for delta in g.distinguished.simple_roots:
        for lam in ls:
            assert shift_lambda(g, F, lam, delta, 1) in ls
            assert shift_lambda(g, F, lam, delta, -1) in ls


# Every algebra whose Cartan p-map is the identity; gl(2|2) and sl(3|1) at
# p = 3 have no regular semisimple character in the prime field.
LAMBDA_TYPES = ["gl(1|1)", "gl(2|1)", "gl(2|2)", "sl(2|1)", "sl(3|1)",
                "osp(1|2)", "osp(2|2)"]
NO_STANDARD_BUCKETS = {("gl(2|2)", 3), ("sl(3|1)", 3)}


def _same_lambda_sets(g, chi):
    new, old = lambda_set(g, chi), ref.lambda_set_scan(g, chi)
    assert (new.field.p, new.field.k, new.weights) == (old.field.p, old.field.k, old.weights)
    assert new.field is old.field


@pytest.mark.parametrize("label", LAMBDA_TYPES)
@pytest.mark.parametrize("p", [3, 5])
def test_lambda_set_matches_scan_on_standard_buckets(label, p):
    g = build_algebra(label, field_create(p, 1))
    if (label, p) in NO_STANDARD_BUCKETS:
        chis = [g.chi_zero()]
    else:
        chis = list(standard_characters(g).values())
    for chi in chis:
        _same_lambda_sets(g, chi)


@settings(max_examples=60, deadline=None)
@given(label=st.sampled_from(LAMBDA_TYPES), p=st.sampled_from([3, 5]), data=st.data())
def test_lambda_set_matches_scan_on_explicit_chi(label, p, data):
    g = build_algebra(label, field_create(p, 1))
    vals = data.draw(st.lists(st.integers(0, p - 1), min_size=g.rank, max_size=g.rank))
    _same_lambda_sets(g, g.chi_from_cartan(vals))


def test_lambda_set_k_max_below_p_raises():
    g = build_algebra("gl(1|1)", F5)
    chi = g.chi_regular_semisimple()
    with pytest.raises(RuntimeError, match="extension degree 4; raise k_max"):
        lambda_set(g, chi, k_max=4)
    assert lambda_set(g, chi, k_max=5).k == 5
    assert lambda_set(g, g.chi_zero(), k_max=1).k == 1


def test_lambda_set_rejects_non_identity_p_map(monkeypatch):
    g = build_algebra("gl(1|1)", F3)
    monkeypatch.setattr(verma, "cartan_p_matrix", lambda g_: 2 * la.eye(g_.rank))
    with pytest.raises(verma.PMapNotIdentity):
        lambda_set(g, g.chi_zero())


# ---------------------------------------------------------------------------
# module construction


def test_module_dimensions():
    for label, p, dim in [
        ("gl(1|1)", 3, 2),
        ("osp(1|2)", 3, 6),
        ("osp(1|2)", 5, 10),
        ("gl(2|1)", 3, 12),
        ("gl(2|1)", 5, 20),
    ]:
        g = build_algebra(label, field_create(p, 1))
        Z = VermaSystem(g, g.chi_zero()).module((0,) * g.rank)
        assert Z.dim == dim, (label, p)


def test_rejects_chi_on_positive_root_vectors():
    g = build_algebra("osp(1|2)", F3)
    chi = g.nilpotent_root_character(parse_root_label("-2d1", 0, 1))
    with pytest.raises(ValueError):
        VermaSystem(g, chi)


def test_rejects_invalid_lambda():
    g = build_algebra("osp(1|2)", F3)
    chi = g.chi_regular_semisimple()
    system = VermaSystem(g, chi)
    with pytest.raises(ValueError):
        system.module((0,))  # chi needs lambda outside the prime field


def test_action_relations_hold():
    for label, p in [("gl(1|1)", 3), ("osp(1|2)", 3), ("gl(2|1)", 3)]:
        g = build_algebra(label, field_create(p, 1))
        for chi in (g.chi_zero(), g.chi_regular_semisimple()):
            ls = lambda_set(g, chi)
            Z = VermaSystem(g, chi).module(ls.weights[0], ls.field)
            report = ref.verify_relations(Z)
            assert report["passed"], (label, chi.cartan_values(), report)


def test_highest_vector_properties():
    g = build_algebra("gl(2|1)", F3)
    chi = g.chi_regular_semisimple()
    ls = lambda_set(g, chi)
    system = VermaSystem(g, chi)
    lam = ls.weights[5]
    Z = system.module(lam, ls.field)
    v = Z.highest_vector()
    for a in system.positives:
        assert not Z.act(g.root_index[a], v).any()
    for i, ci in enumerate(g.cartan):
        img = Z.act(ci, v)
        expect = la.zeros(Z.dim)
        expect[Z.highest_index] = lam[i]
        assert (img == expect).all()


def test_lowest_vector_frozen_coordinates():
    g = build_algebra("gl(1|1)", F3)
    Z = VermaSystem(g, g.chi_zero()).module((1, 2))
    low = Z.lowest_vector()
    expect = la.zeros(2)
    expect[Z.index[(1,)]] = 1
    assert (low == expect).all()

    g2 = build_algebra("osp(1|2)", F5)
    Z2 = VermaSystem(g2, g2.chi_zero()).module((3,))
    low2 = Z2.lowest_vector()
    expect2 = la.zeros(10)
    # slots are (X_{-2delta}, X_{-delta}); the two letters commute
    expect2[Z2.index[(4, 1)]] = 1
    assert (low2 == expect2).all()


def test_lowest_vector_is_built_once_per_module(monkeypatch):
    g = build_algebra("osp(1|2)", F5)
    Z = VermaSystem(g, g.chi_zero()).module((3,))
    acts = []
    act = BabyVerma.act
    monkeypatch.setattr(BabyVerma, "act", lambda self, i, v: acts.append(i) or act(self, i, v))
    low = Z.lowest_vector()
    chain = len(acts)
    Z.verdict()
    assert Z.lowest_vector() is low and not low.flags.writeable
    # the verdict adds only phi's raising chain, as long as the lowering one
    assert chain > 0 and len(acts) == 2 * chain


# ---------------------------------------------------------------------------
# irreducibility: product criterion vs closure oracle


def test_phi_gl11_matches_coroot_sum():
    g = build_algebra("gl(1|1)", F3)
    chi = g.chi_regular_semisimple()
    ls = lambda_set(g, chi)
    F = ls.field
    system = VermaSystem(g, chi)
    beta = system.positives[0]
    for lam in ls:
        Z = system.module(lam, F)
        expect = pairing_at(g, F, lam)(beta).code
        assert Z.phi_via_module() == expect
        assert Z.criterion_value() == expect  # rho pairs to zero with H_beta


def test_oracle_gl11_head_dimensions():
    g = build_algebra("gl(1|1)", F3)
    chi = g.chi_nonregular_nonzero()  # chi(H_beta) = 0 so some Phi vanish
    ls = lambda_set(g, chi)
    system = VermaSystem(g, chi)
    seen = {1: 0, 2: 0}
    for lam in ls:
        Z = system.module(lam, ls.field)
        hd = Z.head_dim()
        seen[hd] += 1
        assert Z.is_irreducible_oracle() == (hd == 2)
    assert seen == {2: 6, 1: 3}


def test_exhaustive_submodule_cross_check():
    g = build_algebra("gl(1|1)", F3)
    chi = g.chi_nonregular_nonzero()
    ls = lambda_set(g, chi)
    system = VermaSystem(g, chi)
    reducible = next(
        lam for lam in ls
        if not system.module(lam, ls.field).is_irreducible_oracle()
    )
    Z = system.module(reducible, ls.field)
    brute = ref.exhaustive_max_submodule(Z)
    assert (brute == Z.maximal_submodule()).all()
    assert brute.shape[0] == 1


def test_agreement_smoke():
    for label, p in [("osp(1|2)", 3), ("gl(2|1)", 3), ("gl(1|1)", 5)]:
        g = build_algebra(label, field_create(p, 1))
        for name, chi in standard_characters(g).items():
            sweep = agreement_sweep(g, chi)
            assert sweep["all_agree"], (label, p, name, sweep["discrepancies"][:2])


def test_osp_zero_character_all_reducible():
    g = build_algebra("osp(1|2)", F3)
    sweep = agreement_sweep(g, g.chi_zero())
    assert sweep["lambda_count"] == 3
    assert all(not v["irreducible_oracle"] for v in sweep["verdicts"])
    assert all(v["phi_module"] == 0 and v["phi_product"] == 0
               for v in sweep["verdicts"])
    rep = proportionality_report(VermaSystem(g, g.chi_zero()),
                                 lambda_set(g, g.chi_zero()))
    assert rep["single_constant"] and rep["vanishing_match"]
    assert rep["constant"] is None


def test_proportionality_constant_gl11():
    g = build_algebra("gl(1|1)", F3)
    chi = g.chi_regular_semisimple()
    rep = proportionality_report(VermaSystem(g, chi), lambda_set(g, chi))
    assert rep["single_constant"] and rep["vanishing_match"]
    assert rep["constant"] == 1


def test_verdict_keys():
    g = build_algebra("gl(1|1)", F3)
    chi = g.chi_zero()
    Z = VermaSystem(g, chi).module((1, 1))
    v = Z.verdict(with_head=True)
    assert set(v) == {
        "algebra", "p", "k", "chi", "lambda", "dimZ", "phi_module",
        "phi_product", "irreducible_oracle", "irreducible_criterion",
        "head_dim",
    }
    assert v["dimZ"] == 2 and v["algebra"] == "gl(1|1)"


# ---------------------------------------------------------------------------
# semisimplicity


def test_semisimple_osp_regular():
    g = build_algebra("osp(1|2)", F3)
    rep = semisimplicity_check(g, g.chi_regular_semisimple())
    assert rep["all_irreducible"]
    assert rep["dims"] == [6, 6, 6]
    assert rep["types"] == ["M", "M", "M"]
    assert rep["dimension_sum"] == 108 == rep["dimension_target"]
    assert rep["semisimple"] and rep["verdict_matches"]


def test_not_semisimple_osp_zero():
    g = build_algebra("osp(1|2)", F3)
    rep = semisimplicity_check(g, g.chi_zero())
    assert not rep["all_irreducible"]
    assert not rep["semisimple"]
    assert rep["verdict_matches"]


def test_semisimple_gl11():
    g = build_algebra("gl(1|1)", F3)
    rep = semisimplicity_check(g, g.chi_from_cartan((1, 0)))
    assert rep["lambda_count"] == 9 and rep["k"] == 3
    assert rep["all_irreducible"] and rep["dims"] == [2] * 9
    assert rep["dimension_sum"] == 36 == rep["dimension_target"]
    assert rep["semisimple"] and rep["verdict_matches"]


def test_not_semisimple_gl11_nonregular():
    g = build_algebra("gl(1|1)", F3)
    chi = g.chi_from_cartan((1, 2))  # chi(H_beta) = 0
    rep = semisimplicity_check(g, chi)
    assert not rep["semisimple"]
    assert rep["verdict_matches"]


# ---------------------------------------------------------------------------
# odd reflections


def test_singular_vectors_gl21():
    g = build_algebra("gl(2|1)", F3)
    ss = g.distinguished
    kinds = {}
    for chi in (g.chi_zero(), g.chi_regular_semisimple()):
        ls = lambda_set(g, chi)
        system = VermaSystem(g, chi)
        for delta in ss.simple_roots:
            for lam in ls.weights[::5]:
                Z = system.module(lam, ls.field)
                rep = Z.check_singular(delta)
                kinds[rep["reflection_type"]] = True
                assert rep["nonzero"] and rep["annihilated"], (delta, lam)
    assert set(kinds) == {"type_i", "type_ii"}


def test_singular_vector_osp_type_iii():
    g = build_algebra("osp(1|2)", F3)
    delta = g.distinguished.simple_roots[0]
    for chi in (g.chi_zero(), g.chi_regular_semisimple()):
        ls = lambda_set(g, chi)
        system = VermaSystem(g, chi)
        for lam in ls:
            rep = system.module(lam, ls.field).check_singular(delta)
            assert rep["reflection_type"] == "type_iii"
            assert rep["nonzero"] and rep["annihilated"]


def test_reflection_report_gl21_type_ii():
    g = build_algebra("gl(2|1)", F3)
    delta = g.distinguished.simple_roots[1]  # odd isotropic
    for chi in (g.chi_zero(), g.chi_regular_semisimple()):
        rep = reflection_report(g, chi, delta)
        assert rep["reflection_type"] == "type_ii"
        assert rep["singular_vectors_ok"]
        assert rep["module_shift_single_constant"]
        assert rep["module_shift_vanishing_match"]
        assert rep["product_single_constant"]


def test_reflection_report_osp_type_iii():
    g = build_algebra("osp(1|2)", F3)
    delta = g.distinguished.simple_roots[0]
    rep = reflection_report(g, g.chi_regular_semisimple(), delta)
    assert rep["reflection_type"] == "type_iii"
    assert rep["singular_vectors_ok"]
    assert rep["module_shift_single_constant"]
    assert rep["product_single_constant"]


# ---------------------------------------------------------------------------
# nonstandard chi: nilpotent characters


def test_nilpotent_osp_p3_head():
    g = build_algebra("osp(1|2)", F3)
    chi = g.nilpotent_root_character(parse_root_label("2d1", 0, 1))
    assert chi.values[g.root_index[parse_root_label("-2d1", 0, 1)]] != 0
    ls = lambda_set(g, chi)
    assert ls.k == 1 and len(ls) == 3
    system = VermaSystem(g, chi)
    for lam in ls:
        Z = system.module(lam, ls.field)
        assert ref.verify_relations(Z)["passed"]
        sub = Z.maximal_submodule()
        brute = ref.exhaustive_max_submodule(Z)
        assert (sub == brute).all()
        assert Z.head_dim() % 3 == 0  # divisor p for this nilpotent orbit


def test_nilpotent_osp_p5_not_local():
    g = build_algebra("osp(1|2)", F5)
    chi = g.nilpotent_root_character(parse_root_label("2d1", 0, 1))
    Z = VermaSystem(g, chi).module((0,) * g.rank)
    with pytest.raises(RuntimeError):
        Z.maximal_submodule()


def test_nilpotent_gl21_shifted_strategy():
    g = build_algebra("gl(2|1)", F3)
    chi = g.nilpotent_root_character(parse_root_label("e1-e2", 2, 1))
    ls = lambda_set(g, chi)
    system = VermaSystem(g, chi)
    Z = system.module(ls.weights[0], ls.field)
    assert ref.verify_relations(Z)["passed"]
    assert any(Z._neg_chi_values()) and Z._chi_kills_neg_brackets()
    sub = Z.maximal_submodule()
    assert sub.shape[0] < Z.dim
    assert Z.head_dim() + sub.shape[0] == Z.dim
    assert ref.certify_head(Z, np.random.default_rng(7))
