"""check_family's straightening work: one algebra per member of the family it
samples, and each rescaling map's generator and p-th power checks computed
once however many samples share the map."""

import functools
from collections import Counter

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
    """Double [x_j, x_s] for the first slots s < j that have a bracket, which
    straightening x_j * x_s in dst reads."""
    for j in range(dst.n_slots):
        row = dst._bracket[dst.order[j]]
        for s in range(j):
            if row[s]:
                row[s] = [(k, dst.F.mul(2, c)) for k, c in row[s]]
                return
    raise AssertionError("no bracket to break")


@functools.lru_cache(maxsize=None)
def _run_counted(tamper_t=None):
    """(exit code, family report, work counts, samples per t) of one run,
    with the target algebra of theta_{tamper_t} given a wrong bracket."""
    counts, samples_at = Counter(), Counter()
    with pytest.MonkeyPatch.context() as mp:
        _count(mp, counts, envelope.DeformedAlgebra, "__init__", "algebras")
        _count(mp, counts, envelope.ThetaMap, "_respects", "product_checks")
        _count(mp, counts, envelope.ThetaMap, "_respects_power", "power_checks")
        verify = envelope.ThetaMap.verify

        def verify_counted(self, pairs):
            samples_at[self.t] += 1
            return verify(self, pairs)
        mp.setattr(envelope.ThetaMap, "verify", verify_counted)
        theta_map = cli.theta_map

        def tampered(src, t):
            dst, tm = theta_map(src, t)
            if t == tamper_t:
                _break_one_bracket(dst)
            return dst, tm
        mp.setattr(cli, "theta_map", tampered)
        code, bundle, _ = run_experiment(ExperimentConfig(**CFG))
    return code, bundle["family"]["report"], dict(counts), dict(samples_at)


def test_one_algebra_per_member_and_generator_checks_once_per_map():
    code, report, counts, samples_at = _run_counted()
    assert code == 0 and report["theta_verified"] == CFG["samples"]
    assert samples_at == {1: 1, 2: 5, 3: 3, 4: 1}
    # U (which theta_1 maps to itself), U_{t xi, t} for t = 2, 3, 4, and S
    assert counts["algebras"] == 5
    assert counts["power_checks"] == DIM * len(samples_at)
    assert counts["product_checks"] == DIM * DIM * len(samples_at) + 3 * CFG["samples"]


@pytest.mark.parametrize("t", [2, 3, 4])
def test_a_broken_target_fails_every_sample_of_its_map(t):
    code, report, _, samples_at = _run_counted(t)
    assert code != 0
    assert report["theta_verified"] == CFG["samples"] - samples_at[t]
    assert report["associativity_verified"] == CFG["samples"]
