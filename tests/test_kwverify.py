"""Tests for the dimension-divisibility sweep over simple heads."""

import json

import numpy as np
import pytest

import reference_linalg as ref
from reference_verma import ambient_rows, parity_shift_glue, screen_simple
from superlie.cli import main
from superlie import linalg as la
from superlie.gf import field_create
from superlie.liesuper import build_algebra
from superlie.rootsys import InvariantViolation
from superlie.kwverify import KWReport, verify_superkw_sweep, walls_type
from superlie.verma import BabyVerma, VermaLedger, VermaSystem, lambda_set, standard_characters
from tooling import baby_vermas, head_solve, module, odd_commutant_dims, top_weight_coords

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
    Z = module(VermaSystem(g, g.chi_zero()), (0, 0))
    mats, parity_op = Z.quotient_representation()
    assert mats[0].shape[0] == 1
    screen_simple(F3, mats)
    assert Z.head_type() == "M"


def test_walls_type_gl11_head_is_M():
    g = build_algebra("gl(1|1)", F3)
    chi = g.chi_regular_semisimple()
    ls = lambda_set(g, chi)
    Z = module(VermaSystem(g, chi), ls.weights[0], ls.field)
    mats, parity_op = Z.quotient_representation()
    assert mats[0].shape[0] == 2
    screen_simple(ls.field, mats)
    assert Z.head_type() == "M"


def test_walls_type_rejects_reducible():
    g = build_algebra("gl(1|1)", F3)
    chi = g.chi_nonregular_nonzero()
    ls = lambda_set(g, chi)
    system = VermaSystem(g, chi)
    reducible = next(lam for lam in ls
                     if not module(system, lam, ls.field).is_irreducible_oracle())
    Z = module(system, reducible, ls.field)
    with pytest.raises(ValueError, match="input is reducible"):
        screen_simple(ls.field, Z.operators())


def test_walls_type_rejects_parity_shift_glue():
    # V + Pi V has an odd endomorphism, the swap, but V + 0 is a submodule:
    # the two PBW words on v do not span the glued module, and no type is given
    g = build_algebra("gl(1|1)", F3)
    chi = g.chi_regular_semisimple()
    ls = lambda_set(g, chi)
    system = VermaSystem(g, chi)
    Z = module(system, ls.weights[0], ls.field)
    mats, parity_op = Z.quotient_representation()
    glued, gp = parity_shift_glue(ls.field, mats, parity_op, list(g.parities))
    with pytest.raises(InvariantViolation, match="basis of the 4-dimensional head at its 2 kept "
                                                 "PBW indices: v does not generate it"):
        walls_type(ls.field, np.array(glued), gp, g.parities, g.cartan, system.neg_indices,
                   system.caps, np.arange(2), la.eye(4)[0])


def test_head_type_rejects_a_scaled_letter(monkeypatch):
    # twice an n^- letter carries v to twice a kept PBW vector: the words on
    # v are not the head's basis, whatever the operators' other relations
    g = build_algebra("gl(2|1)", F3)
    system = VermaSystem(g, g.chi_zero())
    letter = system.neg_indices[0]
    quotient = BabyVerma.quotient_representation

    def scaled(self):
        ops, parity_op = quotient(self)
        ops = ops.copy()
        ops[letter] = F3.smul_arr(2, ops[letter])
        return ops, parity_op

    assert module(system, (0, 1, 0)).head_type() == "M"
    monkeypatch.setattr(BabyVerma, "quotient_representation", scaled)
    with pytest.raises(InvariantViolation, match="v does not generate it"):
        module(system, (0, 1, 0)).head_type()


def test_kw_heads_commutants_match_kronecker_reference():
    """The 81 heads of the gl(2|1), p = 3 kw sweep (the kw_heads bench config)
    have the same odd supercommutant dimension in their PBW word basis, with
    T on the image of v in its weight space, and in their spun word basis,
    with T·e_0 anywhere, as under the n²-unknown Kronecker solve.  The weight
    space of e_0 holds no odd vector in any of them, so the head's solve has
    no unknowns."""
    g = build_algebra("gl(2|1)", F3)
    heads = 0
    for chi in standard_characters(g).values():
        for Z in baby_vermas(g, chi):
            mats, parity_op = Z.quotient_representation()
            assert top_weight_coords(mats, parity_op, g.cartan).size == 0
            restricted, spun, oracle = odd_commutant_dims(Z)
            assert restricted == spun == oracle
            heads += 1
    assert heads == 81


@pytest.mark.parametrize("p, bucket, with_odd", [(3, "zero", 1), (3, "regular_semisimple", 3),
                                                   (5, "zero", 2), (5, "regular_semisimple", 5)])
def test_osp12_odd_top_weight_heads_match_kronecker_reference(p, bucket, with_odd):
    """Every osp(1|2) head whose top weight space (e_0's, under the Cartan
    operators) holds an odd vector, at p = 3 and 5 and χ = 0 and regular:
    the head's solve on those odd vectors alone, the spun solve with T·e_0
    anywhere and the Kronecker oracle agree, and so does the Walls type."""
    g = build_algebra("osp(1|2)", field_create(p, 1))
    found = 0
    for Z in baby_vermas(g, standard_characters(g)[bucket]):
        mats, parity_op = Z.quotient_representation()
        if top_weight_coords(mats, parity_op, g.cartan).size:
            restricted, spun, oracle = odd_commutant_dims(Z)
            assert restricted == spun == oracle
            assert Z.head_type() == "MQ"[oracle > 0]
            found += 1
    assert found == with_odd


def test_gl22_odd_top_weight_heads_match_full_spin_reference():
    """Heads of gl(2|2), p = 3, χ = 0 whose top weight space holds odd
    vectors: the head's solve for T on the image of v, in its PBW word basis
    with those odd vectors alone as unknowns, spans the same odd
    supercommutant as the spin with T·e_0 free in all n coordinates."""
    g = build_algebra("gl(2|2)", F3)
    system = VermaSystem(g, g.chi_zero())
    for lam, n, coords in [((0, 1, 1, 0), 52, [51]), ((1, 0, 1, 2), 52, [51]),
                           ((0, 1, 0, 2), 96, [83, 91])]:
        Z = module(system, lam, F3)
        mats, parity_op = Z.quotient_representation()
        assert mats.shape[1] == n
        reach = top_weight_coords(mats, parity_op, g.cartan)
        assert reach.tolist() == coords
        even, odd = mats[g.parities == 0], mats[g.parities == 1]
        words, got = head_solve(Z)
        assert words.shape == (n, n, len(coords))
        want = ref.supercommutant_spin_full(F3, even, odd, parity_op)
        assert len(got) == len(want)
        span = [la.row_space_basis(F3, ts.reshape(len(ts), n * n)) for ts in (got, want)]
        assert np.array_equal(*span)


def test_head_type_rejects_off_diagonal_cartan(monkeypatch):
    # the head in a basis that mixes two even coordinates of different
    # weights: its Cartan operators are no longer diagonal
    g = build_algebra("gl(2|1)", F3)
    system = VermaSystem(g, g.chi_zero())
    mats, parity_op = module(system, (0, 1, 0)).quotient_representation()  # dim 12
    assert module(system, (0, 1, 0)).head_type() == "M"
    d, even = np.diagonal(mats[g.cartan], axis1=1, axis2=2), parity_op.diagonal() == 1
    i, j = next((i, j) for i in range(len(even)) for j in range(i)
                if even[i] and even[j] and (d[:, i] != d[:, j]).any())
    P, P_inv = la.eye(len(even)), la.eye(len(even))
    P[i, j], P_inv[i, j] = 1, F3.neg(1)
    quotient = BabyVerma.quotient_representation
    monkeypatch.setattr(BabyVerma, "quotient_representation", lambda self: (
        np.array([la.matmul(F3, la.matmul(F3, P_inv, m), P) for m in quotient(self)[0]]),
        parity_op))
    with pytest.raises(InvariantViolation, match="not diagonal"):
        module(system, (0, 1, 0)).head_type()


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
