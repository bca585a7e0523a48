"""check_family's straightening work: one algebra per member of the family it
samples, and each rescaling map's generator and p-th power checks computed
once however many samples share the map."""

import functools
from collections import Counter, defaultdict

import pytest

from superlie import cli, envelope
from superlie.cli import ExperimentConfig, run_experiment

# osp(1|2), p = 5, seed 0 draws t = 1 once, t = 2 five times, t = 3 three
# times and t = 4 once
CFG = dict(algebra="osp(1|2)", p=5, chi_specs=["zero"], checks=["family"], samples=10, seed=0)
DIM = 5


def _count(mp, counts, owner, name, key):
    orig = getattr(owner, name)

    def counted(*args, **kwargs):
        counts[key] += 1
        return orig(*args, **kwargs)
    mp.setattr(owner, name, counted)


def _break_one_bracket(dst):
    """Double lam [x_j, x_s] for the first slots s < j that have a bracket,
    which straightening x_j * x_s in dst reads."""
    for j, row in enumerate(dst._lam_bracket):
        for s in range(j):
            if row[s]:
                row[s] = [(k, dst.F.mul(2, c)) for k, c in row[s]]
                return
    raise AssertionError("no bracket to break")


def _break_one_power(dst):
    """Add 1 to the constant xi(x)^p of x^p for the first even slot, which
    straightening x^p in dst reads."""
    s = dst.slot_parity.index(0)
    dst._top_const[s] = dst.F.add(dst._top_const[s], 1)


BREAKS = {"bracket": _break_one_bracket, "power": _break_one_power}


@functools.lru_cache(maxsize=None)
def _run_counted(tamper_t=None, tamper=None):
    """(exit code, family report, work counts, the verify report of each
    sample per t) of one run, with the target algebra of theta_{tamper_t}
    broken by BREAKS[tamper]."""
    counts, reports_at = Counter(), defaultdict(list)
    with pytest.MonkeyPatch.context() as mp:
        _count(mp, counts, envelope.DeformedAlgebra, "__init__", "algebras")
        _count(mp, counts, envelope.ThetaMap, "_respects", "product_checks")
        _count(mp, counts, envelope.ThetaMap, "_respects_power", "power_checks")
        _count(mp, counts, envelope.DeformedAlgebra, "multiply", "multiplies")
        verify = envelope.ThetaMap.verify

        def verify_counted(self, pairs):
            reports_at[self.t].append(verify(self, pairs))
            return reports_at[self.t][-1]
        mp.setattr(envelope.ThetaMap, "verify", verify_counted)
        theta_map = cli.theta_map

        def tampered(src, t):
            dst, tm = theta_map(src, t)
            if t == tamper_t:
                BREAKS[tamper](dst)
            return dst, tm
        mp.setattr(cli, "theta_map", tampered)
        code, bundle, _ = run_experiment(ExperimentConfig(**CFG))
    return code, bundle["family"]["report"], dict(counts), dict(reports_at)


def test_one_algebra_per_member_and_generator_checks_once_per_map():
    code, report, counts, reports_at = _run_counted()
    assert code == 0 and report["theta_verified"] == CFG["samples"]
    samples_at = {t: len(reports) for t, reports in reports_at.items()}
    assert samples_at == {1: 1, 2: 5, 3: 3, 4: 1}
    # U (which theta_1 maps to itself), U_{t xi, t} for t = 2, 3, 4, and S
    assert counts["algebras"] == 5
    assert counts["power_checks"] == DIM * len(samples_at)
    assert counts["product_checks"] == DIM * DIM * len(samples_at) + 3 * CFG["samples"]


def test_multiply_is_called_once_per_product_the_check_asks_for():
    """The bench tracer times envelope.multiply by wrapping the public
    ``multiply``, so its call count is the check's products: two per theta
    check (theta(a b) and theta(a) theta(b)), p per side of a p-th power
    check, four per associativity sample and two per pair of S's generators."""
    _, _, counts, reports_at = _run_counted()
    maps, p = len(reports_at), CFG["p"]
    theta = 2 * (DIM * DIM * maps + 3 * CFG["samples"]) + 2 * p * DIM * maps
    assert counts["multiplies"] == theta + 4 * CFG["samples"] + 2 * DIM * DIM == 550


@pytest.mark.parametrize("t", [2, 3, 4])
def test_a_broken_target_fails_every_sample_of_its_map(t):
    code, report, _, reports_at = _run_counted(t, "bracket")
    assert code != 0
    assert report["theta_verified"] == CFG["samples"] - len(reports_at[t])
    assert report["associativity_verified"] == CFG["samples"]
    assert not any(rep["generator_products"] for rep in reports_at[t])


@pytest.mark.parametrize("t", [2, 3, 4])
def test_a_wrong_power_constant_fails_the_p_power_check_of_its_map(t):
    code, report, _, reports_at = _run_counted(t, "power")
    assert code != 0
    assert report["theta_verified"] == CFG["samples"] - len(reports_at[t])
    assert report["associativity_verified"] == CFG["samples"]
    assert all(not rep["p_powers"] and rep["generator_products"] for rep in reports_at[t])
