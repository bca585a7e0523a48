"""Tests for baby Verma modules, their weight sets, and irreducibility."""

import copy
import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_verma as ref
from reference_linalg import largest_stable_subspace_shrinking
from superlie import linalg as la
from superlie import gf, verma
from superlie.cli import main
from superlie.gf import field_create
from superlie.liesuper import PCharacter, build_algebra
from superlie.verma import (
    BabyVerma,
    IncompatibleBorel,
    InvariantViolation,
    VermaLedger,
    VermaSystem,
    _proportionality,
    agreement_sweep,
    coset_roots,
    criterion_value,
    lambda_set,
    pairing_at,
    proportionality_report,
    reflection_report,
    semisimplicity_check,
    shift_lambda,
    standard_characters,
)
from tooling import baby_vermas, module

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
            assert shift_lambda(F, lam, g.root_weights[delta], 1) in ls
            assert shift_lambda(F, lam, g.root_weights[delta], -1) in ls


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


def test_lambda_set_above_field_cap_raises(monkeypatch):
    g = build_algebra("gl(1|1)", F5)
    chi = g.chi_regular_semisimple()
    monkeypatch.setattr(verma, "MAX_FIELD_ORDER", 5 ** 5 - 1)
    with pytest.raises(verma.ExtensionCapExceeded,
                       match=r"GF\(5\^5\), of order 3125, above MAX_FIELD_ORDER = 3124"):
        lambda_set(g, chi)
    assert lambda_set(g, g.chi_zero()).k == 1
    monkeypatch.setattr(verma, "MAX_FIELD_ORDER", 5 ** 5)
    assert lambda_set(g, chi).k == 5


@pytest.fixture
def drop_gf77():
    """GF(7^7) holds about 400 MB of tables; take it out of the field cache
    once the test that built it ends."""
    yield
    gf._FIELD_CACHE.pop((7, 7), None)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_coset_roots_match_artin_schreier_oracle(p, drop_gf77):
    # every c in GF(p), over GF(p) and over GF(p^p)
    for F in (field_create(p, 1), field_create(p, p)):
        for c in range(p):
            want = ref.artin_schreier_solve(F, c).solutions
            if want:
                (got,) = coset_roots(F, [c])
                assert tuple(got) == want, (F, c)
            else:
                with pytest.raises(InvariantViolation, match="has 0 roots"):
                    coset_roots(F, [c])


@pytest.mark.parametrize("label,p", [(label, p) for p in (3, 5) for label in
                                     ("gl(1|1)", "gl(2|1)", "sl(2|1)", "osp(1|2)", "osp(2|2)")]
                         + [("gl(1|1)", 7)])
def test_lambda_set_matches_artin_schreier_weights(label, p, drop_gf77):
    """The same weights, in the same order and over the same field, as one
    Artin-Schreier solve per coordinate."""
    g = build_algebra(label, field_create(p, 1))
    for chi in standard_characters(g).values():
        new, old = lambda_set(g, chi), ref.lambda_set_artin_schreier(g, chi)
        assert new.field is old.field and new.weights == old.weights, (label, p)


def test_lambda_set_rejects_non_identity_p_map(monkeypatch):
    g = build_algebra("gl(1|1)", F3)
    monkeypatch.setattr(verma, "cartan_p_matrix", lambda g_: 2 * la.eye(g_.rank))
    with pytest.raises(verma.PMapNotIdentity):
        lambda_set(g, g.chi_zero())


def test_cartan_p_matrix_rejects_p_map_leaving_the_cartan():
    g = build_algebra("gl(2|1)", F3)
    assert np.array_equal(verma.cartan_p_matrix(g), la.eye(g.rank))
    h = copy.copy(g)
    h.p_map = g.p_map.copy()
    h.p_map[g.cartan[-1], g.dim - 1] = 1
    with pytest.raises(RuntimeError, match="not closed under the p-th power map"):
        verma.cartan_p_matrix(h)


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
        Z = module(VermaSystem(g, g.chi_zero()), (0,) * g.rank)
        assert Z.dim == dim, (label, p)


def test_rejects_chi_on_positive_root_vectors():
    g = build_algebra("osp(1|2)", F3)
    chi = g.nilpotent_root_character("-2d1")
    with pytest.raises(ValueError):
        VermaSystem(g, chi)


def test_rejects_invalid_lambda():
    g = build_algebra("osp(1|2)", F3)
    chi = g.chi_regular_semisimple()
    system = VermaSystem(g, chi)
    with pytest.raises(ValueError):
        module(system, (0,))  # chi needs lambda outside the prime field


def test_action_relations_hold():
    for label, p in [("gl(1|1)", 3), ("osp(1|2)", 3), ("gl(2|1)", 3)]:
        g = build_algebra(label, field_create(p, 1))
        for chi in (g.chi_zero(), g.chi_regular_semisimple()):
            ls = lambda_set(g, chi)
            Z = module(VermaSystem(g, chi), ls.weights[0], ls.field)
            report = ref.verify_relations(Z)
            assert report["passed"], (label, chi.cartan_values(), report)


def test_highest_vector_properties():
    g = build_algebra("gl(2|1)", F3)
    chi = g.chi_regular_semisimple()
    ls = lambda_set(g, chi)
    system = VermaSystem(g, chi)
    lam = ls.weights[5]
    Z = module(system, lam, ls.field)
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
    Z = module(VermaSystem(g, g.chi_zero()), (1, 2))
    low = Z.lowest_vector()
    expect = la.zeros(2)
    expect[Z.index[(1,)]] = 1
    assert (low == expect).all()

    g2 = build_algebra("osp(1|2)", F5)
    Z2 = module(VermaSystem(g2, g2.chi_zero()), (3,))
    low2 = Z2.lowest_vector()
    expect2 = la.zeros(10)
    # slots are (X_{-2delta}, X_{-delta}); the two letters commute
    expect2[Z2.index[(4, 1)]] = 1
    assert (low2 == expect2).all()


def test_lowest_vector_is_built_once_per_system(monkeypatch):
    """One read-only lowest vector over GF(p) for every weight of the system,
    here over GF(5^5), equal to each module's letter-by-letter one."""
    g = build_algebra("osp(1|2)", F5)
    chi = g.chi_regular_semisimple()
    ls = lambda_set(g, chi)
    system = VermaSystem(g, chi)
    builds = []
    letters = VermaSystem._negative_letters
    monkeypatch.setattr(VermaSystem, "_negative_letters",
                        lambda self: builds.append(self) or letters(self))
    low = system.lowest_vector()
    chain = len(builds)
    assert ls.k == 5 and len(ls) == 5
    for lam in ls:
        Z = module(system, lam, ls.field)
        Z.phi_via_module()
        Z.is_irreducible_oracle()
        assert Z.lowest_vector() is low and not low.flags.writeable
        assert np.array_equal(low, ref.lowest_by_letters(Z)), lam
    # phi and the oracle of every weight evaluate the letters no second time
    assert chain > 0 and len(builds) == chain


# ---------------------------------------------------------------------------
# irreducibility: product criterion vs closure oracle


def test_phi_gl11_matches_coroot_sum():
    g = build_algebra("gl(1|1)", F3)
    chi = g.chi_regular_semisimple()
    ls = lambda_set(g, chi)
    F = ls.field
    system = VermaSystem(g, chi)
    assert len(system.positives) == 1  # beta
    for lam in ls:
        Z = module(system, lam, F)
        (expect,) = pairing_at(g, system.ss, lam, F)
        assert Z.phi_via_module() == expect
        assert Z.criterion_value() == expect  # rho pairs to zero with H_beta


def test_oracle_gl11_head_dimensions():
    g = build_algebra("gl(1|1)", F3)
    chi = g.chi_nonregular_nonzero()  # chi(H_beta) = 0 so some Phi vanish
    ls = lambda_set(g, chi)
    system = VermaSystem(g, chi)
    seen = {1: 0, 2: 0}
    for lam in ls:
        Z = module(system, lam, ls.field)
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
        if not module(system, lam, ls.field).is_irreducible_oracle()
    )
    Z = module(system, reducible, ls.field)
    brute = ref.exhaustive_max_submodule(Z)
    assert (brute == Z.maximal_submodule()).all()
    assert brute.shape[0] == 1


def test_agreement_smoke():
    for label, p in [("osp(1|2)", 3), ("gl(2|1)", 3), ("gl(1|1)", 5)]:
        g = build_algebra(label, field_create(p, 1))
        for name, chi in standard_characters(g).items():
            sweep = agreement_sweep(VermaLedger(g, chi))
            assert sweep["all_agree"], (label, p, name, sweep["discrepancies"][:2])


def test_osp_zero_character_all_reducible():
    g = build_algebra("osp(1|2)", F3)
    ledger = VermaLedger(g, g.chi_zero())
    sweep = agreement_sweep(ledger)
    assert sweep["lambda_count"] == 3
    assert all(not v["irreducible_oracle"] for v in sweep["verdicts"])
    assert all(v["phi_module"] == 0 and v["phi_product"] == 0
               for v in sweep["verdicts"])
    rep = proportionality_report(ledger)
    assert rep["single_constant"] and rep["vanishing_match"]
    assert rep["constant"] is None


def test_proportionality_vanishing_mismatch():
    # one side vanishing alone breaks both flags; the other pairs still fix the constant
    assert _proportionality(F5, [(2, 1), (0, 3), (4, 2)]) == (2, False, False)
    assert _proportionality(F5, [(2, 1), (3, 0)]) == (2, False, False)
    assert _proportionality(F5, [(0, 0), (0, 0)]) == (None, True, True)


def test_proportionality_two_constants():
    # 2/1 = 2 but 1/2 = 3 over GF(5): two ratios, vanishing sets still match
    assert _proportionality(F5, [(2, 1), (0, 0), (1, 2)]) == (2, False, True)
    assert _proportionality(F5, [(2, 1), (4, 2), (1, 3)]) == (2, True, True)


def test_proportionality_constant_gl11():
    g = build_algebra("gl(1|1)", F3)
    chi = g.chi_regular_semisimple()
    rep = proportionality_report(VermaLedger(g, chi))
    assert rep["single_constant"] and rep["vanishing_match"]
    assert rep["constant"] == 1


def test_verdict_keys():
    g = build_algebra("gl(1|1)", F3)
    sweep = agreement_sweep(VermaLedger(g, g.chi_zero()))
    v = next(v for v in sweep["verdicts"] if v["lambda"] == [1, 1])
    assert set(v) == {
        "algebra", "p", "k", "chi", "lambda", "dimZ", "phi_module",
        "phi_product", "irreducible_oracle", "irreducible_criterion",
    }
    assert v["dimZ"] == 2 and v["algebra"] == "gl(1|1)"


# ---------------------------------------------------------------------------
# semisimplicity


def test_semisimple_osp_regular():
    g = build_algebra("osp(1|2)", F3)
    rep = semisimplicity_check(VermaLedger(g, g.chi_regular_semisimple()))
    assert rep["all_irreducible"]
    assert rep["dims"] == [6, 6, 6]
    assert rep["types"] == ["M", "M", "M"]
    assert rep["dimension_sum"] == 108 == rep["dimension_target"]
    assert rep["semisimple"] and rep["verdict_matches"]


def test_not_semisimple_osp_zero():
    g = build_algebra("osp(1|2)", F3)
    rep = semisimplicity_check(VermaLedger(g, g.chi_zero()))
    assert not rep["all_irreducible"]
    assert not rep["semisimple"]
    assert rep["verdict_matches"]


def test_semisimple_gl11():
    g = build_algebra("gl(1|1)", F3)
    rep = semisimplicity_check(VermaLedger(g, g.chi_from_cartan((1, 0))))
    assert rep["lambda_count"] == 9 and rep["k"] == 3
    assert rep["all_irreducible"] and rep["dims"] == [2] * 9
    assert rep["dimension_sum"] == 36 == rep["dimension_target"]
    assert rep["semisimple"] and rep["verdict_matches"]


def test_not_semisimple_gl11_nonregular():
    g = build_algebra("gl(1|1)", F3)
    chi = g.chi_from_cartan((1, 2))  # chi(H_beta) = 0
    rep = semisimplicity_check(VermaLedger(g, chi))
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
                Z = module(system, lam, ls.field)
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
            rep = module(system, lam, ls.field).check_singular(delta)
            assert rep["reflection_type"] == "type_iii"
            assert rep["nonzero"] and rep["annihilated"]


def test_reflection_report_gl21_type_ii():
    g = build_algebra("gl(2|1)", F3)
    delta = g.distinguished.simple_roots[1]  # odd isotropic
    for chi in (g.chi_zero(), g.chi_regular_semisimple()):
        rep = reflection_report(VermaLedger(g, chi), delta)
        assert rep["reflection_type"] == "type_ii"
        assert rep["singular_vectors_ok"]
        assert rep["module_shift_single_constant"]
        assert rep["module_shift_vanishing_match"]
        assert rep["product_single_constant"]


def test_reflection_report_osp_type_iii():
    g = build_algebra("osp(1|2)", F3)
    delta = g.distinguished.simple_roots[0]
    rep = reflection_report(VermaLedger(g, g.chi_regular_semisimple()), delta)
    assert rep["reflection_type"] == "type_iii"
    assert rep["singular_vectors_ok"]
    assert rep["module_shift_single_constant"]
    assert rep["product_single_constant"]


# ---------------------------------------------------------------------------
# nonstandard chi: nilpotent characters


def test_nilpotent_osp_p3_head():
    g = build_algebra("osp(1|2)", F3)
    chi = g.nilpotent_root_character("2d1")
    assert chi.values[g.root_index[g.rs.index("-2d1")]] != 0
    ls = lambda_set(g, chi)
    assert ls.k == 1 and len(ls) == 3
    system = VermaSystem(g, chi)
    for lam in ls:
        Z = module(system, lam, ls.field)
        assert ref.verify_relations(Z)["passed"]
        sub = Z.maximal_submodule()
        brute = ref.exhaustive_max_submodule(Z)
        assert (sub == brute).all()
        assert Z.head_dim() % 3 == 0  # divisor p for this nilpotent orbit


# (p, t) with a split coefficient algebra for chi = t * chi_{2delta} on osp(1|2)
SPLIT_NILPOTENT_OSP = {(3, 2), (5, 1), (5, 4)}


@pytest.mark.parametrize("p,t", [(p, t) for p in (3, 5) for t in range(1, p)])
def test_nilpotent_osp_not_local_only_where_split(p, t):
    g = build_algebra("osp(1|2)", field_create(p, 1))
    chi = g.nilpotent_root_character("2d1").scale(t)
    Z = module(VermaSystem(g, chi), (0,) * g.rank)
    if (p, t) in SPLIT_NILPOTENT_OSP:
        with pytest.raises(RuntimeError, match="not local"):
            Z.maximal_submodule()
    else:
        assert Z.head_dim() + Z.maximal_submodule().shape[0] == Z.dim
        assert ref.certify_head(Z, np.random.default_rng(7))


def test_nilpotent_gl21_shifted_strategy():
    g = build_algebra("gl(2|1)", F3)
    chi = g.nilpotent_root_character("e1-e2")
    ls = lambda_set(g, chi)
    system = VermaSystem(g, chi)
    Z = module(system, ls.weights[0], ls.field)
    assert ref.verify_relations(Z)["passed"]
    assert any(system._neg_chi_values()) and system._chi_kills_neg_brackets()
    sub = Z.maximal_submodule()
    assert sub.shape[0] < Z.dim
    assert Z.head_dim() + sub.shape[0] == Z.dim
    assert ref.certify_head(Z, np.random.default_rng(7))


# ---------------------------------------------------------------------------
# pi and the maximal submodule against the three-branch reference ambient


AMBIENT_CASES = [("gl(1|1)", 3), ("gl(2|1)", 3), ("osp(1|2)", 3), ("osp(2|2)", 3),
                 ("sl(2|1)", 3), ("gl(1|1)", 5), ("osp(1|2)", 5)]


def _ambient_characters(g):
    """Standard characters plus every multiple of each even-root nilpotent one."""
    nilpotent = [g.chi_zero()]
    for a in g.distinguished.positive_roots:
        if g.parities[g.root_index[a]] == 0:
            nilpotent += [g.nilpotent_root_character(a).scale(t) for t in range(1, g.p)]
    cartan = {tuple(c.values): c for c in standard_characters(g).values()}
    return [PCharacter(g, c.values + n.values) for c in cartan.values() for n in nilpotent]


def _ambient_or_error(build):
    try:
        return build()
    except (RuntimeError, InvariantViolation) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("label,p", AMBIENT_CASES, ids=[f"{t}-p{p}" for t, p in AMBIENT_CASES])
def test_ambient_matches_reference(label, p):
    """pi's rows span the annihilator of the reference ambient IZ, or both
    raise the same error; pi has one row except where the residue field of
    A is larger than the module's field (osp(1|2) with chi on X_{-2delta})."""
    g = build_algebra(label, field_create(p, 1))
    radical, rows = set(), set()
    for chi in _ambient_characters(g):
        ls = lambda_set(g, chi)
        system = VermaSystem(g, chi)
        for lam in ls:
            Z = module(system, lam, ls.field)
            new = _ambient_or_error(lambda: system._pi_rows(Z.F))
            old = _ambient_or_error(lambda: la.nullspace(Z.F, ref.ambient_rows(Z)))
            if isinstance(old, tuple):
                assert isinstance(new, tuple) and new == old, (chi.values, lam)
            else:
                assert isinstance(new, np.ndarray), (chi.values, lam)
                assert np.array_equal(la.row_space_basis(Z.F, new),
                                      la.row_space_basis(Z.F, old)), (chi.values, lam)
                # one pi per system and field, shared read-only by its modules
                assert system._pi_rows(Z.F) is new and not new.flags.writeable
                rows.add(new.shape[0])
            if not system._chi_kills_neg_brackets():
                radical.add((ls.field.q, isinstance(old, tuple)))
    if label == "osp(1|2)":
        # Berlekamp's test both certifies and refuses locality over GF(p^p)
        assert {(p ** p, False), (p ** p, True)} <= radical
    assert rows == ({1, 2} if label == "osp(1|2)" else {1})


def test_gl21_p5_maximal_submodules_match_shrinking_reference():
    """Every 5th of the 375 gl(2|1), p = 5 baby Vermas of the three standard
    characters (the verma_sweep bench config, over GF(5) and GF(5^5)) gets
    the same maximal-submodule rows from the pairing matrix as from the
    shrinking iteration inside the reference ambient."""
    g = build_algebra("gl(2|1)", F5)
    modules = [Z for chi in standard_characters(g).values() for Z in baby_vermas(g, chi)]
    assert len(modules) == 375 and {Z.F.k for Z in modules} == {1, 5}
    for Z in modules[::5]:
        want = largest_stable_subspace_shrinking(Z.F, ref.ambient_rows(Z), list(Z.operators()))
        assert np.array_equal(Z.maximal_submodule(), want), Z.lam


# the nilpotent characters on which the pairing matrix is checked, beside
# the standard ones; osp(1|2) at p = 3 has a two-row pi
NILPOTENT_CASES = {("gl(2|1)", 3): "e1-e2", ("gl(2|1)", 5): "e1-e2",
                   ("osp(2|2)", 3): "2d1", ("osp(1|2)", 3): "2d1"}
HEAD_CASES = [(label, p) for label in ("gl(1|1)", "osp(1|2)", "gl(2|1)", "sl(2|1)", "osp(2|2)")
              for p in (3, 5)]


@pytest.mark.parametrize("label,p", HEAD_CASES, ids=[f"{t}-p{p}" for t, p in HEAD_CASES])
def test_maximal_submodule_matches_shrinking_reference(label, p):
    """Every module of every standard character, and of the listed nilpotent
    one: the maximal submodule read off the pairing matrix has the rows of
    the largest stable subspace inside the reference ambient, and the oracle
    says whether it is zero."""
    g = build_algebra(label, field_create(p, 1))
    chis = list(standard_characters(g).values())
    if (label, p) in NILPOTENT_CASES:
        chis.append(g.nilpotent_root_character(NILPOTENT_CASES[label, p]))
    for chi in chis:
        for Z in baby_vermas(g, chi):
            want = largest_stable_subspace_shrinking(Z.F, ref.ambient_rows(Z), list(Z.operators()))
            assert np.array_equal(Z.maximal_submodule(), want), (chi.values, Z.lam)
            assert Z.is_irreducible_oracle() == (want.shape[0] == 0), (chi.values, Z.lam)


@pytest.mark.parametrize("label", ["gl(1|1)", "osp(1|2)", "gl(2|1)", "osp(2|2)"])
@pytest.mark.parametrize("p", [3, 5])
def test_phi_matches_letter_chain(label, p):
    """phi, the top row of the words on the coefficient of v times the lowest
    vector, is the letter-by-letter chain's on every standard character."""
    g = build_algebra(label, field_create(p, 1))
    for chi in standard_characters(g).values():
        for Z in baby_vermas(g, chi):
            assert Z.phi_via_module() == ref.phi_by_letters(Z), (chi.values, Z.lam)


def test_nilpotent_oracle_is_the_lowest_vector_spin():
    """gl(2|1), p = 3, chi on X_{-(e1-e2)}: on all 27 modules the oracle says
    irreducible exactly when the lowest vector spins to all of Z."""
    g = build_algebra("gl(2|1)", F3)
    modules = list(baby_vermas(g, g.nilpotent_root_character("e1-e2")))
    assert len(modules) == 27
    verdicts = [Z.is_irreducible_oracle() for Z in modules]
    assert verdicts == [ref.lowest_vector_closure(Z).shape[0] == Z.dim for Z in modules]
    assert set(verdicts) == {True, False}


# ---------------------------------------------------------------------------
# the operator stack and the coefficient algebra against the entry loops


STACK_CASES = AMBIENT_CASES + [("gl(2|1)", 5), ("osp(2|2)", 5)]


@pytest.mark.parametrize("label,p", STACK_CASES, ids=[f"{t}-p{p}" for t, p in STACK_CASES])
def test_operator_stack_matches_entry_loop(label, p):
    """Every operator of one evaluation of the affine template equals the
    per-entry sum: every character of ``_ambient_characters`` and every
    lambda at p = 3, a stride of lambda at p = 5, over GF(p) and GF(p^p)."""
    g = build_algebra(label, field_create(p, 1))
    stride = 1 if (label, p) in AMBIENT_CASES else 4
    fields = set()
    for chi in _ambient_characters(g):
        ls = lambda_set(g, chi)
        system = VermaSystem(g, chi)
        for lam in ls.weights[::stride]:
            Z = module(system, lam, ls.field)
            mats = Z.operators()
            assert not mats.flags.writeable
            for i, m in enumerate(mats):
                assert np.array_equal(m, ref.action_matrix(Z, i)), (chi.values, lam, i)
            fields.add(ls.field.k)
    assert fields == {1, p}


def test_quotient_representation_matches_per_generator_reduction():
    g = build_algebra("gl(2|1)", F3)
    chis = [g.nilpotent_root_character("e1-e2"), g.chi_nonregular_nonzero(), g.chi_zero()]
    for chi in chis:
        for Z in baby_vermas(g, chi):
            mats, S = Z.quotient_representation()
            want, want_S = ref.quotient_representation(Z)
            assert len(mats) == len(want) and np.array_equal(S, want_S), (chi.values, Z.lam)
            assert all(np.array_equal(a, b) for a, b in zip(mats, want)), (chi.values, Z.lam)


# (commutative, chi([n^-, n^-]) = 0) of the coefficient algebras of
# ``_ambient_characters``; the radical path is (True, False)
ALGEBRA_CLASSES = {"gl(1|1)": {(True, True)}, "osp(1|2)": {(True, True), (True, False)}}


@pytest.mark.parametrize("label,p", STACK_CASES, ids=[f"{t}-p{p}" for t, p in STACK_CASES])
def test_coefficient_algebra_matches_tables(label, p):
    """The p-th-power matrix and the commutativity flag read off the letters'
    operators equal those of the straightened multiplication tables."""
    g = build_algebra(label, field_create(p, 1))
    seen = set()
    for chi in _ambient_characters(g):
        system = VermaSystem(g, chi)
        P, commutative = system._coefficient_algebra()
        _, _, want = ref.coefficient_algebra_tables(system)
        assert commutative == want, chi.values
        assert np.array_equal(P, ref.pth_power_matrix(system)), chi.values
        seen.add((commutative, system._chi_kills_neg_brackets()))
    assert seen == ALGEBRA_CLASSES.get(label, {(False, True)})


# ---------------------------------------------------------------------------
# the oracle against the reference word matrix and spins


@pytest.fixture
def oracle_spins(monkeypatch):
    """The (operator count, echelon rows) of every closure run after the
    fixture is set up, in order."""
    spins = []
    closure = la.closure_under_operators

    def spy(F, seed_rows, ops):
        rows = closure(F, seed_rows, ops)
        spins.append((ops.shape[0], rows))
        return rows
    monkeypatch.setattr(la, "closure_under_operators", spy)
    return spins


def _check_oracle(Z, spins):
    """The oracle runs no closure, and its verdict says whether the maximal
    submodule is zero.  Where chi vanishes on n^-, the verdict is the dense
    rank of the word matrix, which spans the n^+ spin of the reference;
    elsewhere it is whether the all-operator spin of the lowest vector is Z,
    or, where A is not local, the oracle raises the reference ambient's
    error.  The lowest vector and phi are the letter-by-letter ones.
    Returns whether chi vanishes on n^-."""
    spins.clear()
    verdict = _ambient_or_error(Z.is_irreducible_oracle)
    kills = not any(Z.system._neg_chi_values())
    assert spins == [], (Z.chi.values, Z.lam)
    if isinstance(verdict, tuple):
        assert not kills and verdict == _ambient_or_error(lambda: ref.ambient_rows(Z))
    elif kills:
        assert verdict == ref.word_rank_verdict(Z), (Z.chi.values, Z.lam)
        rows = la.row_space_basis(Z.F, ref.word_matrix(Z).T)
        assert np.array_equal(rows, ref.positive_spin_closure(Z)), (Z.chi.values, Z.lam)
    else:
        assert verdict == (ref.lowest_vector_closure(Z).shape[0] == Z.dim), (Z.chi.values, Z.lam)
    if not isinstance(verdict, tuple):
        assert verdict == (Z.maximal_submodule().shape[0] == 0), (Z.chi.values, Z.lam)
    assert np.array_equal(Z.lowest_vector(), ref.lowest_by_letters(Z)), (Z.chi.values, Z.lam)
    assert Z.phi_via_module() == ref.phi_by_letters(Z), (Z.chi.values, Z.lam)
    return kills


@pytest.mark.parametrize("label,p", STACK_CASES, ids=[f"{t}-p{p}" for t, p in STACK_CASES])
def test_oracle_spin_matches_all_operator_reference(oracle_spins, label, p):
    """Every character of ``_ambient_characters``, whose nilpotent multiples
    are nonzero on n^-, so that both kinds of pi occur (gl(1|1) has no even
    root and no such multiple); every lambda at p = 3, every third of each
    character's weights at p = 5."""
    g = build_algebra(label, field_create(p, 1))
    branches = set()
    for chi in _ambient_characters(g):
        ls = lambda_set(g, chi)
        system = VermaSystem(g, chi)
        for lam in ls.weights[:: 1 if p == 3 else len(ls) // 3]:
            branches.add(_check_oracle(module(system, lam, ls.field), oracle_spins))
    assert branches == ({True} if label == "gl(1|1)" else {True, False})


@pytest.mark.parametrize("label", [t for t, p in AMBIENT_CASES if p == 3])
def test_oracle_spin_on_every_compatible_system(oracle_spins, label):
    """p = 3: the zero and the nonregular standard characters and the
    nilpotent character of each even positive root, on every simple system
    other than the distinguished one whose n^+ chi kills."""
    g = build_algebra(label, F3)
    standard = standard_characters(g)
    chis = [standard["zero"], standard["nonregular"]] + [
        g.nilpotent_root_character(a) for a in g.distinguished.positive_roots
        if g.parities[g.root_index[a]] == 0]
    distinguished = set(g.distinguished.positive_roots)
    others = [ss for ss in g.rs.all_simple_systems() if set(ss.positive_roots) != distinguished]
    skipped = 0
    for chi in chis:
        ls = lambda_set(g, chi)
        for ss in others:
            try:
                system = VermaSystem(g, chi, ss)
            except IncompatibleBorel:
                skipped += 1
                continue
            for lam in ls:
                _check_oracle(module(system, lam, ls.field), oracle_spins)
    assert (skipped > 0) == (label != "gl(1|1)")


def test_oracle_branch_is_pinned(oracle_spins, monkeypatch):
    """The oracle tests the pairing matrix's weight blocks in one stacked
    call per block size, six 1 x 1 and three 2 x 2 blocks, on the standard
    characters of gl(2|1) and osp(2|2) (dim Z 12 at p = 3), and makes no
    such call on osp(1|2), p = 3, with chi on X_{-2delta}; no oracle runs a
    closure.  The graded verdicts are the dense rank's, the others the
    all-operator spin's."""
    stacks = []
    nonsingular = la.nonsingular
    monkeypatch.setattr(la, "nonsingular",
                        lambda F, blocks: stacks.append(blocks.shape) or nonsingular(F, blocks))
    cases = []
    for label in ("gl(2|1)", "osp(2|2)"):
        g = build_algebra(label, F3)
        cases += [(g, chi, [(6, 1, 1), (3, 2, 2)]) for chi in standard_characters(g).values()]
    osp = build_algebra("osp(1|2)", F3)
    cases.append((osp, osp.nilpotent_root_character("2d1"), []))
    for g, chi, blocks in cases:
        oracle_spins.clear()
        stacks.clear()
        modules = list(baby_vermas(g, chi))
        verdicts = [Z.is_irreducible_oracle() for Z in modules]
        assert oracle_spins == [], (g.label, chi.values)
        assert stacks == blocks * g.p ** g.rank, (g.label, chi.values)
        want = ref.word_rank_verdict if blocks else (
            lambda Z: ref.lowest_vector_closure(Z).shape[0] == Z.dim)
        assert verdicts == [want(Z) for Z in modules], (g.label, chi.values)


# ---------------------------------------------------------------------------
# the weight grades of the pairing matrix


@pytest.mark.parametrize("label,p,census", [
    ("gl(2|1)", 5, {1: 10, 2: 5}), ("osp(2|2)", 5, {1: 10, 2: 5}),
    ("sl(2|1)", 5, {1: 10, 2: 5}), ("gl(2|1)", 3, {1: 6, 2: 3}),
    ("osp(1|2)", 5, {2: 5}), ("gl(2|2)", 5, {1: 50, 4: 50, 6: 25})])
def test_grade_block_census(label, p, census):
    """Blocks per size on every standard character; they tile the matrix,
    the mask marks exactly the entries off them, and each block is one
    eigenspace of the Cartan, whose operators are diagonal."""
    g = build_algebra(label, field_create(p, 1))
    for chi in standard_characters(g).values():
        system = VermaSystem(g, chi)
        off, blocks = system.pairing_blocks()
        assert {s: idx.shape[0] for s, idx in blocks.items()} == census
        on = np.zeros_like(off)
        for idx in blocks.values():
            on[idx[:, :, None], idx[:, None, :]] = True
        assert on.sum() == sum(B * s * s for s, B in census.items())
        assert np.array_equal(on, ~off)
        ls = lambda_set(g, chi)
        cartan = module(system, ls.weights[-1], ls.field).operators()[g.cartan]
        diagonal = np.einsum("kii->ik", cartan)
        assert np.array_equal(cartan, np.einsum("ik,ij->kij", diagonal, la.eye(system.dim)))
        weights = [{tuple(diagonal[i]) for i in at} for idx in blocks.values() for at in idx]
        assert all(len(w) == 1 for w in weights) and len(set.union(*weights)) == len(weights)


def _leak_off_block(monkeypatch):
    """Every pairing matrix gets a nonzero entry off its weight blocks."""
    pairing_matrix = BabyVerma.pairing_matrix

    def leaky(self):
        S = pairing_matrix(self).copy()
        off, _ = self.system.pairing_blocks()
        S[tuple(np.argwhere(off)[0])] = 1
        return S
    monkeypatch.setattr(BabyVerma, "pairing_matrix", leaky)


def test_word_matrix_off_its_blocks_raises(monkeypatch):
    """The pairing matrix, which replaced the word matrix, off its blocks."""
    g = build_algebra("gl(2|1)", F3)
    _leak_off_block(monkeypatch)
    Z = next(baby_vermas(g, g.chi_zero()))
    with pytest.raises(InvariantViolation, match="not block diagonal"):
        Z.is_irreducible_oracle()


def test_word_matrix_off_its_blocks_is_fail(monkeypatch, tmp_path, capsys):
    """The same leak fails the verma check with the certificate's text."""
    _leak_off_block(monkeypatch)
    (tmp_path / "v.cfg").write_text("algebra = gl(2|1)\np = 3\nchi = zero\nchecks = verma\n")
    assert main(["run", str(tmp_path / "v.cfg")]) == 1
    out = capsys.readouterr().out
    assert "skipped" not in out and "PASS" not in out
    assert re.search(r"^verma +FAIL$", out, re.M)
    assert "not block diagonal over the weight grades" in out


# ---------------------------------------------------------------------------
# mutations of the pairing matrix's inputs change a head or raise

# standard and nilpotent characters with reducible and simple modules: (algebra, p, chi spec)
MUTATION_CASES = [("gl(2|1)", 3, "zero"), ("gl(2|1)", 3, "regular_semisimple"),
                  ("gl(2|1)", 3, "nonregular"), ("gl(2|1)", 3, "e1-e2"),
                  ("gl(2|1)", 5, "regular_semisimple"), ("gl(2|1)", 5, "e1-e2"),
                  ("osp(2|2)", 3, "2d1"), ("osp(1|2)", 3, "2d1"), ("osp(1|2)", 5, "zero"),
                  ("sl(2|1)", 5, "nonregular")]


def _submodules(label, p, spec):
    """The maximal submodule of every module of the case, or the exception
    the first one raised."""
    g = build_algebra(label, field_create(p, 1))
    buckets = standard_characters(g)
    chi = buckets[spec] if spec in buckets else g.nilpotent_root_character(spec)
    try:
        return [Z.maximal_submodule() for Z in baby_vermas(g, chi)]
    except InvariantViolation as exc:
        return exc


def _changed(label, p, spec, mutate, monkeypatch):
    """Whether the mutation changes a maximal submodule of the case (True),
    raises a broken invariant ("raised"), or leaves every one as it is."""
    want = _submodules(label, p, spec)
    with monkeypatch.context() as mp:
        mutate(mp)
        got = _submodules(label, p, spec)
    if isinstance(got, InvariantViolation):
        return "raised"
    return any(not np.array_equal(a, b) for a, b in zip(want, got))


def test_dropping_one_grade_kernel_changes_a_head(monkeypatch):
    """Every case with a reducible module loses a head's rows when the first
    singular grade is dropped."""
    grades = BabyVerma._singular_grades
    outcomes = {}
    for label, p, spec in MUTATION_CASES:
        reducible = any(S.shape[0] for S in _submodules(label, p, spec))
        outcomes[label, p, spec] = reducible, _changed(
            label, p, spec,
            lambda mp: mp.setattr(BabyVerma, "_singular_grades", lambda self: grades(self)[1:]),
            monkeypatch)
    assert all(changed is True for reducible, changed in outcomes.values() if reducible), outcomes
    assert sum(reducible for reducible, _ in outcomes.values()) >= 6, outcomes


def test_a_wrong_pi_changes_a_head(monkeypatch):
    """On each nilpotent case, the coefficient of v in place of pi changes a
    head, and so does dropping one of the two rows of osp(1|2)'s pi.  pi of
    the character scaled by 2, pi_2(f^b . v) = 2^{|b|} pi(f^b . v), is one
    scalar times pi on each grade there, so it changes none."""
    pi_rows = VermaSystem._pi_rows

    def scaled(self, F):
        weights = np.array([F.pow_int(2, int(n)) for n in self.exponents.sum(axis=1)])
        return F.mul_arr(pi_rows(self, F), weights[None, :])
    mutations = {"v": lambda self, F: la.eye(self.dim)[[self.highest_index]],
                 "one row": lambda self, F: pi_rows(self, F)[:1], "scaled": scaled}
    outcomes = {}
    for label, p, spec in MUTATION_CASES:
        if spec in ("e1-e2", "2d1"):
            for name, wrong in mutations.items():
                outcomes[label, p, name] = _changed(
                    label, p, spec, lambda mp: mp.setattr(VermaSystem, "_pi_rows", wrong), monkeypatch)
    assert outcomes == {(label, p, name): name == "v" or (label, name) == ("osp(1|2)", "one row")
                        for label, p, name in outcomes}, outcomes
    assert len(outcomes) == 12


def test_perturbing_a_positive_letter_changes_a_head_or_raises(monkeypatch):
    """One entry of the first n^+ letter's operator changed: where chi
    vanishes on n^-, the block certificate raises; elsewhere a head changes,
    except on osp(1|2), p = 3, whose three modules are simple and stay so."""
    operators = BabyVerma.operators

    def perturbed(self):
        ops = operators(self).copy()
        pos = self.system.pos_indices[0]
        ops[pos, 0, -1] = self.F.add(int(ops[pos, 0, -1]), 1)
        return ops
    for label, p, spec in MUTATION_CASES:
        outcome = _changed(label, p, spec, lambda mp: mp.setattr(BabyVerma, "operators", perturbed),
                           monkeypatch)
        standard = spec in ("zero", "regular_semisimple", "nonregular")
        assert outcome == ("raised" if standard else label != "osp(1|2)"), (label, p, spec)


def _template_with(extra):
    """A ``VermaSystem.template`` that appends ``extra(self, gen_idx, mono)``."""
    template = VermaSystem.template

    def patched(self, gen_idx, mono):
        return template(self, gen_idx, mono) + extra(self, gen_idx, mono)
    return patched


@pytest.mark.parametrize("cart", [(1, 1), (2, 0)])
def test_template_with_two_cartan_letters_raises(monkeypatch, cart):
    g = build_algebra("gl(1|1)", F3)
    monkeypatch.setattr(VermaSystem, "template", _template_with(
        lambda self, i, mono: ((mono, cart, 1),) if i == self.pos_indices[0] else ()))
    Z = module(VermaSystem(g, g.chi_zero()), (1, 2))
    with pytest.raises(InvariantViolation, match="not affine in lambda"):
        Z.action_matrix(0)


def test_lambda_on_a_negative_letter_raises(monkeypatch):
    g = build_algebra("osp(1|2)", F3)
    monkeypatch.setattr(VermaSystem, "template", _template_with(
        lambda self, i, mono: ((mono, (1,), 1),) if i == self.neg_indices[-1] else ()))
    system = VermaSystem(g, g.nilpotent_root_character("2d1"))
    module(system, (0,)).operators()  # the stack itself is well defined
    with pytest.raises(InvariantViolation, match="lambda enters the action"):
        system._coefficient_algebra()


def test_letters_that_miss_a_monomial_raise(monkeypatch):
    g = build_algebra("gl(1|1)", F3)
    evaluate = VermaSystem.evaluate
    monkeypatch.setattr(VermaSystem, "evaluate", lambda self, F, lam: evaluate(self, F, lam) * 0)
    with pytest.raises(InvariantViolation, match="do not carry 1 to every PBW monomial"):
        VermaSystem(g, g.chi_zero())._coefficient_algebra()
