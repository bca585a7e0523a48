"""One Verma ledger per character and run: each module's facts are computed
once and read by every Verma check (verma, phi, reflect, kw, semisimple)."""

import functools
import json
from collections import Counter

import numpy as np
import pytest

from superlie import linalg as la
from superlie import verma
from superlie.cli import ExperimentConfig, run_experiment
from superlie.gf import field_create
from superlie.liesuper import build_algebra
from superlie.verma import BabyVerma, VermaLedger, lambda_residual
from tooling import cartan_p_matrix, weight_residual

FIVE = ("verma", "phi", "reflect", "kw", "semisimple")
BUCKETS = ["zero", "regular_semisimple", "nonregular"]


def _count(mp, counts, owner, name, key):
    orig = getattr(owner, name)

    @functools.wraps(orig)  # the ledger reads a fact's orbit rule off its name
    def counted(*args, **kwargs):
        counts[key] += 1
        return orig(*args, **kwargs)
    mp.setattr(owner, name, counted)


def _run_counted(label, p, checks):
    """(exit code, bundle, work counts) of one run of the three buckets."""
    counts = Counter()
    with pytest.MonkeyPatch.context() as mp:
        _count(mp, counts, verma.VermaSystem, "__init__", "systems")
        _count(mp, counts, verma, "lambda_set", "lambda_sets")
        _count(mp, counts, verma, "lambda_residual", "residual_products")
        _count(mp, counts, BabyVerma, "is_irreducible_oracle", "oracles")
        _count(mp, counts, BabyVerma, "pairing_matrix", "pairing_matrices")
        _count(mp, counts, la, "supercommutant_basis", "commutants")
        _count(mp, counts, BabyVerma, "singular_vectors_ok", "singular_checks")
        _count(mp, counts, verma.VermaSystem, "evaluate", "stacks")
        cfg = ExperimentConfig(algebra=label, p=p, chi_specs=list(BUCKETS), checks=list(checks))
        code, bundle, _ = run_experiment(cfg)
    return code, bundle, dict(counts)


_run = functools.lru_cache(maxsize=None)(_run_counted)


def _report(bundle, check) -> str:
    return json.dumps(bundle[check], sort_keys=True, indent=1)


def test_five_checks_do_each_modules_work_once():
    """gl(2|1), p = 3: 3 distinguished and 6 reflected systems, one weight set
    per character checked in one product, and one oracle verdict, one
    commutant and one singular-vector fact, covering every simple root, for
    each of the 45 sigma-orbit representatives among the 81 distinguished
    modules (27 of the zero character over GF(3), 9 orbits of 3 for each
    character over GF(27)).  The pairing matrix is built once per module
    object: for the oracle by the verma check and again for the head by the
    kw check, since the ledger keeps one module.  The 240 stacks: the verma
    check's 45, 2 certificates and 3 systems' letters; reflect's 45 for the
    singular vectors and, per simple root, 45 for the reflected phi, 2
    certificates and 3 systems' letters; kw's 45."""
    code, _, counts = _run("gl(2|1)", 3, FIVE)
    assert code == 0
    assert counts == {"systems": 9, "lambda_sets": 3, "residual_products": 3,
                      "oracles": 45, "pairing_matrices": 90, "commutants": 45,
                      "singular_checks": 45, "stacks": 240}


def test_no_stack_is_built_off_the_orbit_representatives(monkeypatch):
    """Every stack of the five checks on gl(2|1), p = 3, is evaluated at a
    sigma-orbit representative, at lambda = 0 over GF(3) for a system's
    letters, or, once per system over GF(27), at the certificate's sigma . rep."""
    g = build_algebra("gl(2|1)", field_create(3, 1))
    seen = {}
    evaluate = verma.VermaSystem.evaluate

    def recorded(self, F, lam):
        seen.setdefault(self, set()).add((F.q, tuple(lam)))
        return evaluate(self, F, lam)
    monkeypatch.setattr(verma.VermaSystem, "evaluate", recorded)
    cfg = ExperimentConfig(algebra="gl(2|1)", p=3, chi_specs=list(BUCKETS), checks=list(FIVE))
    assert run_experiment(cfg)[0] == 0
    lsets = {tuple(chi.cartan_values()): verma.lambda_set(g, chi)
             for chi in verma.standard_characters(g).values()}
    assert len(seen) == 9
    for system, weights in seen.items():
        lset = lsets[tuple(system.chi.cartan_values())]
        F = lset.field
        reps = {(F.q, lam) for lam in lset if lset.orbit(lam)[1] == 0}
        images = {(F.q, tuple(F._frob[list(lam)].tolist())) for _, lam in reps}
        off = weights - reps - {(3, (0, 0, 0))}
        assert off <= images and len(off) == (lset.k > 1), (system.ss, off)


def test_semisimple_alone_types_only_the_simple_modules():
    """semisimple reports the Walls type of the 42 irreducible modules and
    solves a commutant only for the 18 among the orbit representatives,
    reads irreducibility off the head dimension, with no separate oracle
    verdict, and builds each of the 45 representatives' pairing matrices
    and stacks once, with one more stack for each certificate."""
    code, bundle, counts = _run("gl(2|1)", 3, ("semisimple",))
    assert code == 0
    types = [t for rep in bundle["semisimple"]["report"]["characters"] for t in rep["types"]]
    assert len(types) == 81 and sum(t is not None for t in types) == 42
    assert counts == {"systems": 3, "lambda_sets": 3, "residual_products": 3,
                      "pairing_matrices": 45, "commutants": 18, "stacks": 47}


@pytest.mark.parametrize("label,p", [("gl(2|1)", 3), ("gl(1|1)", 5)])
@pytest.mark.parametrize("check", FIVE)
def test_combined_report_equals_the_check_run_alone(label, p, check):
    code, combined, _ = _run(label, p, FIVE)
    assert code == 0
    assert _report(combined, check) == _report(_run(label, p, (check,))[1], check)


def test_a_second_run_recomputes_everything():
    first = _run_counted("gl(1|1)", 3, FIVE)
    second = _run_counted("gl(1|1)", 3, FIVE)
    assert first == second and first[2]["oracles"] == 9 + 3 + 3  # orbit representatives


def test_a_fact_that_raised_raises_again(monkeypatch):
    """osp(1|2), p = 5, chi on X_{2delta}: the coefficient algebra is not
    local, so the head raises; asked again, the ledger raises the same
    exception without computing it again."""
    g = build_algebra("osp(1|2)", field_create(5, 1))
    ledger = VermaLedger(g, g.nilpotent_root_character("2d1"))
    quotients = []
    quotient = BabyVerma.quotient_representation
    monkeypatch.setattr(BabyVerma, "quotient_representation",
                        lambda self: quotients.append(self.lam) or quotient(self))
    lam = ledger.lset.weights[0]
    with pytest.raises(RuntimeError, match="not local") as first:
        ledger.facts(lam, BabyVerma.head_type)
    with pytest.raises(RuntimeError) as again:
        ledger.facts(lam, BabyVerma.phi_via_module, BabyVerma.head_type)
    assert again.value is first.value and quotients == [lam]


def test_lambda_residual_of_a_weight_array_matches_each_row():
    """Each row of the array residual is the residual of its weight alone, and
    equals the scalar residual through the Cartan p-map matrix P = 1."""
    g = build_algebra("gl(2|1)", field_create(3, 1))
    lset = VermaLedger(g, g.chi_regular_semisimple()).lset
    F, P = lset.field, cartan_p_matrix(g)
    assert np.array_equal(P, la.eye(g.rank))
    rng = np.random.default_rng(16)
    lams = rng.integers(0, F.q, size=(40, g.rank))
    chi_h = [1, 0, 2]
    rows = lambda_residual(F, lams, chi_h)
    assert rows.shape == lams.shape
    for lam, row in zip(lams, rows):
        assert np.array_equal(lambda_residual(F, lam, chi_h), row)
        assert row.tolist() == weight_residual(g, F, lam, chi_h, P)
    assert not lambda_residual(F, lset.weights, g.chi_regular_semisimple().cartan_values()).any()
