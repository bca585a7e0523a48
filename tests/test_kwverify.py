"""Tests for the dimension-divisibility sweep over simple heads."""

import json

import numpy as np
import pytest

import reference_linalg as ref
from reference_verma import ambient_rows, parity_shift_glue, screen_simple
from superlie.cli import main
from superlie.gf import field_create
from superlie.liesuper import build_algebra
from superlie.rootsys import InvariantViolation
from superlie.kwverify import KWReport, verify_superkw_sweep, walls_type
from superlie.verma import VermaLedger, VermaSystem, lambda_set, standard_characters
from tooling import baby_vermas, odd_commutant_dims, simple_heads

F3 = field_create(3, 1)
F5 = field_create(5, 1)


def test_divisor_examples():
    for label, p in [("gl(1|1)", 3), ("osp(1|2)", 3), ("gl(2|1)", 5)]:
        g = build_algebra(label, field_create(p, 1))
        assert KWReport(g, g.chi_zero()).divisor == 1
    g = build_algebra("osp(1|2)", F5)
    assert KWReport(g, g.chi_regular_semisimple()).divisor == 10
    g = build_algebra("osp(1|2)", F3)
    assert KWReport(g, g.chi_regular_semisimple()).divisor == 6
    g = build_algebra("gl(1|1)", F3)
    chi = g.character_from_element([1, 0, 0, 0])  # chi(E11)=1, chi(E22)=0
    cent = g.centralizer(chi)
    assert (cent.d0, cent.d1) == (0, 2)
    assert KWReport(g, chi).divisor == 2
    g = build_algebra("gl(2|1)", F3)
    assert KWReport(g, g.chi_regular_semisimple()).divisor == 12  # d = 2|4
    g = build_algebra("osp(1|2)", F3)
    nil = g.nilpotent_root_character("2d1")
    cent = g.centralizer(nil)
    assert (cent.d0, cent.d1) == (2, 1)
    assert KWReport(g, nil).divisor == 3
    assert KWReport(g, nil).divisor_ceiling == 6


def test_divisor_scale_invariant():
    g = build_algebra("gl(2|1)", F3)
    for chi in (g.chi_regular_semisimple(),
                g.nilpotent_root_character("e1-e2")):
        for t in (1, 2):
            assert KWReport(g, chi.scale(t)).divisor == KWReport(g, chi).divisor


def test_walls_type_trivial_module_is_M():
    g = build_algebra("gl(1|1)", F3)
    Z = VermaSystem(g, g.chi_zero()).module((0, 0))
    mats, parity_op = Z.quotient_representation()
    assert mats[0].shape[0] == 1
    screen_simple(F3, mats)
    assert walls_type(F3, mats, parity_op, g.parities) == "M"


def test_walls_type_gl11_head_is_M():
    g = build_algebra("gl(1|1)", F3)
    chi = g.chi_regular_semisimple()
    ls = lambda_set(g, chi)
    Z = VermaSystem(g, chi).module(ls.weights[0], ls.field)
    mats, parity_op = Z.quotient_representation()
    assert mats[0].shape[0] == 2
    screen_simple(ls.field, mats)
    assert walls_type(ls.field, mats, parity_op, g.parities) == "M"


def test_walls_type_rejects_reducible():
    g = build_algebra("gl(1|1)", F3)
    chi = g.chi_nonregular_nonzero()
    ls = lambda_set(g, chi)
    system = VermaSystem(g, chi)
    reducible = next(lam for lam in ls
                     if not system.module(lam, ls.field).is_irreducible_oracle())
    Z = system.module(reducible, ls.field)
    with pytest.raises(ValueError, match="input is reducible"):
        screen_simple(ls.field, Z.operators())


def test_walls_type_rejects_parity_shift_glue():
    # V + Pi V has an odd endomorphism, the swap, but V + 0 is a submodule:
    # the spin of e_0 stops at dim V, and no type is given
    g = build_algebra("gl(1|1)", F3)
    chi = g.chi_regular_semisimple()
    ls = lambda_set(g, chi)
    Z = VermaSystem(g, chi).module(ls.weights[0], ls.field)
    mats, parity_op = Z.quotient_representation()
    glued, gp = parity_shift_glue(ls.field, mats, parity_op, list(g.parities))
    with pytest.raises(InvariantViolation, match="stops at dimension 2 of 4"):
        walls_type(ls.field, np.array(glued), gp, g.parities)


def test_kw_heads_commutants_match_kronecker_reference():
    """The 81 heads of the gl(2|1), p = 3 kw sweep (the kw_heads bench config)
    have the same odd supercommutant dimension under spinning as under the
    n²-unknown Kronecker solve."""
    g = build_algebra("gl(2|1)", F3)
    heads = 0
    for chi in standard_characters(g).values():
        for F, mats, parity_op in simple_heads(g, chi):
            spun, oracle = odd_commutant_dims(F, mats, parity_op, g.parities)
            assert spun == oracle
            heads += 1
    assert heads == 81


def test_kw_heads_maximal_submodules_match_shrinking_reference():
    """The 81 baby Vermas of the gl(2|1), p = 3 kw sweep (the kw_heads bench
    config) get the same maximal-submodule rows from the pairing matrix as
    from the shrinking iteration inside the reference ambient."""
    g = build_algebra("gl(2|1)", F3)
    modules = [Z for chi in standard_characters(g).values() for Z in baby_vermas(g, chi)]
    assert len(modules) == 81
    for Z in modules:
        want = ref.largest_stable_subspace_shrinking(
            Z.F, ambient_rows(Z), list(Z.operators()))
        assert np.array_equal(Z.maximal_submodule(), want), Z.lam


def test_sweep_osp_p5_regular():
    g = build_algebra("osp(1|2)", F5)
    (rep,) = verify_superkw_sweep([VermaLedger(g, g.chi_regular_semisimple())])
    assert rep.skipped is None
    assert rep.divisor == 10
    assert [d for _, d, _ in rep.simple_dims] == [10] * 5
    assert all(t == "M" for _, _, t in rep.simple_dims)
    assert rep.all_divisible and rep.accounting_ok


def test_sweep_osp_p3_zero():
    g = build_algebra("osp(1|2)", F3)
    (rep,) = verify_superkw_sweep([VermaLedger(g, g.chi_zero())])
    assert rep.divisor == 1
    dims = [d for _, d, _ in rep.simple_dims]
    assert len(dims) == 3 and 1 in dims
    assert rep.all_divisible


def test_sweep_gl11_regular():
    g = build_algebra("gl(1|1)", F3)
    (rep,) = verify_superkw_sweep([VermaLedger(g, g.chi_regular_semisimple())])
    assert rep.divisor == 2
    assert [d for _, d, _ in rep.simple_dims] == [2] * 9
    assert rep.all_divisible and rep.accounting_ok


def test_sweep_nilpotent_osp():
    g3 = build_algebra("osp(1|2)", F3)
    nil3 = g3.nilpotent_root_character("2d1")
    (rep3,) = verify_superkw_sweep([VermaLedger(g3, nil3)])
    assert rep3.skipped is None and rep3.divisor == 3
    assert all(d % 3 == 0 for _, d, _ in rep3.simple_dims)
    assert rep3.all_divisible

    g5 = build_algebra("osp(1|2)", F5)
    nil5 = g5.nilpotent_root_character("2d1")
    (rep5,) = verify_superkw_sweep([VermaLedger(g5, nil5)])
    assert rep5.skipped is not None and "local" in rep5.skipped


def test_sweep_skips_bad_borel():
    g = build_algebra("osp(1|2)", F3)
    bad = g.nilpotent_root_character("-2d1")
    (rep,) = verify_superkw_sweep([VermaLedger(g, bad)])
    assert rep.skipped is not None and "Borel" in rep.skipped


def test_jsonl_deterministic(tmp_path):
    cfg = tmp_path / "kw.ini"
    cfg.write_text("algebra = gl(1|1)\np = 3\nchi = zero\nchi = regular_semisimple\n"
                   "checks = kw\n")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", str(cfg), "--out", str(out1)]) == 0
    assert main(["run", str(cfg), "--out", str(out2)]) == 0
    jsonl = (out1 / "kw.jsonl").read_bytes()
    assert jsonl == (out2 / "kw.jsonl").read_bytes()
    # one line per character, each the report that kw.json holds
    report = json.loads((out1 / "kw.json").read_text())["report"]
    assert [json.loads(line) for line in jsonl.decode().splitlines()] == report["reports"]
    assert len(report["reports"]) == 2
    assert "pass" in report["table"] and "FAIL" not in report["table"]
