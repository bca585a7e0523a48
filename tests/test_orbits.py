"""Baby Verma facts by Frobenius orbits: the weight set's sigma-orbits, the
ledger's derivation of every fact from the orbit representatives, checked
against the full per-lambda sweep, and the two certificates it rests on."""

import numpy as np
import pytest

import reference_verma as ref
from superlie.cli import resolve_chi
from superlie.gf import field_create
from superlie.liesuper import build_algebra
from superlie.verma import (
    BabyVerma,
    InvariantViolation,
    LambdaSet,
    VermaLedger,
    lambda_set,
    standard_characters,
)

FACTS = (BabyVerma.phi_via_module, BabyVerma.criterion_value, BabyVerma.is_irreducible_oracle,
         BabyVerma.head_dim, BabyVerma.head_type)
ALGEBRAS = ["gl(1|1)", "osp(1|2)", "gl(2|1)", "sl(2|1)", "osp(2|2)"]


def _orbit_sizes(lset):
    sizes = {}
    for lam in lset:
        rep = lset.orbit(lam)[0]
        sizes[rep] = sizes.get(rep, 0) + 1
    return sorted(sizes.values())


@pytest.mark.parametrize("label,p,orbits", [("gl(2|1)", 3, 9), ("gl(2|1)", 5, 25),
                                            ("osp(2|2)", 5, 5), ("sl(2|1)", 5, 5),
                                            ("osp(1|2)", 5, 1)])
def test_every_orbit_has_p_weights_off_the_prime_field(label, p, orbits):
    """sigma(lambda)_i = lambda_i + chi(h_i)^p, so a character nonzero on
    the Cartan has orbits of exactly p weights; over GF(p) each weight is
    its own orbit.  The weight at sigma-power j is sigma^j of its
    representative, the first weight of its orbit."""
    g = build_algebra(label, field_create(p, 1))
    for chi in standard_characters(g).values():
        lset = lambda_set(g, chi)
        if lset.k == 1:
            assert all(lset.orbit(lam) == (lam, 0) for lam in lset)
            continue
        assert _orbit_sizes(lset) == [p] * orbits
        frob = lset.field._frob
        for lam in lset:
            rep, j = lset.orbit(lam)
            image = np.array(rep)
            for _ in range(j):
                image = frob[image]
            assert tuple(image.tolist()) == lam
            assert lset.weights.index(rep) <= lset.weights.index(lam)


def _matches_direct(g, chi, facts, weights=None):
    ledger = VermaLedger(g, chi)
    weights = list(ledger.lset) if weights is None else weights
    want = ref.direct_facts(g, chi, facts, weights)
    return {lam: ledger.facts(lam, *facts) for lam in weights} == want


@pytest.mark.parametrize("p", [3, 5])
@pytest.mark.parametrize("label", ALGEBRAS)
def test_derived_facts_match_the_direct_sweep(label, p):
    """Every fact of every standard character, read through the ledger
    (computed at orbit representatives, carried along each orbit), equals
    the fact of the module built and computed at its own weight.

    On gl(2|1) at p = 5 the Walls type, an odd-commutant solve over GF(5^5)
    of about 40 ms per module, is compared on the first five orbits of each
    character over GF(5^5), 25 of its 125 weights, to keep the test inside
    the suite's time; every other fact there is compared at every weight."""
    g = build_algebra(label, field_create(p, 1))
    for chi in standard_characters(g).values():
        if (label, p) != ("gl(2|1)", 5) or chi.is_zero():
            assert _matches_direct(g, chi, FACTS), chi.cartan_values()
            continue
        lset = lambda_set(g, chi)
        first = [lam for lam in lset if lset.orbit(lam)[1] == 0][:5]
        orbits = [lam for lam in lset if lset.orbit(lam)[0] in first]
        assert _matches_direct(g, chi, FACTS[:-1]), chi.cartan_values()
        assert _matches_direct(g, chi, FACTS[-1:], orbits), chi.cartan_values()


def test_derived_facts_match_the_direct_sweep_on_an_explicit_character():
    g = build_algebra("gl(2|1)", field_create(3, 1))
    chi = resolve_chi(g, "explicit:2,0,1")
    assert lambda_set(g, chi).k == 3
    assert _matches_direct(g, chi, FACTS)


def test_a_weight_set_that_is_not_sigma_stable_raises():
    """One weight dropped from gl(2|1)'s regular weight set at p = 3: the
    walk finds a sigma-image outside the set, before any fact is derived."""
    g = build_algebra("gl(2|1)", field_create(3, 1))
    chi = g.chi_regular_semisimple()
    full = lambda_set(g, chi)
    cut = LambdaSet(full.field, full.weights[1:])
    with pytest.raises(InvariantViolation, match="is not in the weight set"):
        cut.orbit(cut.weights[0])
    ledger = VermaLedger(g, chi, lset=cut)
    with pytest.raises(InvariantViolation, match="is not in the weight set"):
        ledger.facts(cut.weights[0], BabyVerma.head_dim)


def _perturbed_ledger(label, p):
    """A ledger of the regular character whose system has one constant
    template code replaced by the code p, the generator of GF(p^p) over GF(p)."""
    g = build_algebra(label, field_create(p, 1))
    ledger = VermaLedger(g, g.chi_regular_semisimple())
    positions, where, slots, codes = ledger.system._affine_template()
    codes = codes.copy()
    codes[np.flatnonzero(slots == 0)[0]] = p
    ledger.system._affine = positions, where, slots, codes
    return ledger


@pytest.mark.parametrize("label,p", [("gl(2|1)", 3), ("osp(1|2)", 5)])
def test_a_template_code_outside_the_prime_field_breaks_the_certificate(label, p):
    """The stack at sigma . rep is then not sigma of the stack at rep: the
    first fact computed at a representative raises, and so does every fact
    derived from one, through every method that reads the stack."""
    ledger = _perturbed_ledger(label, p)
    lset = ledger.lset
    rep, other = lset.weights[0], next(lam for lam in lset if lset.orbit(lam)[1])
    with pytest.raises(InvariantViolation, match="is not sigma of the stack") as first:
        ledger.facts(rep, BabyVerma.head_dim)
    for m in (BabyVerma.phi_via_module, BabyVerma.is_irreducible_oracle, BabyVerma.head_type):
        with pytest.raises(InvariantViolation) as again:
            ledger.facts(other, m)
        assert again.value is first.value


def test_the_criterion_needs_no_certificate():
    """The criterion is computed at its own weight and reads no stack, so a
    broken template leaves it as it is."""
    ledger = _perturbed_ledger("gl(2|1)", 3)
    g = build_algebra("gl(2|1)", field_create(3, 1))
    clean = VermaLedger(g, g.chi_regular_semisimple())
    assert ([ledger.facts(lam, BabyVerma.criterion_value) for lam in ledger.lset]
            == [clean.facts(lam, BabyVerma.criterion_value) for lam in clean.lset])
