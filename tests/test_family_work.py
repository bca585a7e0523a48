"""check_family's straightening work: one algebra per member of the family it
samples, each rescaling map's generator and p-th power checks computed once
however many samples share the map, and the cyclic collector paused for the
whole check, which makes no reference cycles."""

import functools
import gc
from collections import Counter, defaultdict
from pathlib import Path

import pytest

from superlie import cli, envelope
from superlie.cli import ExperimentConfig, parse_config, run_experiment
from superlie.verma import VermaLedger

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


GOLDEN_FAMILY = Path(__file__).resolve().parent / "golden" / "osp22_p5_family.ini"
ACYCLIC = {
    "golden-osp(2|2)-p5": lambda: parse_config(GOLDEN_FAMILY.read_text()),
    "osp(1|2)-p5-zero": lambda: ExperimentConfig(**CFG),
    "gl(2|1)-p3-regular": lambda: ExperimentConfig(**dict(
        CFG, algebra="gl(2|1)", p=3, chi_specs=["regular_semisimple"], samples=3)),
}


def _family_args(cfg):
    """check_family's arguments for cfg, built as run_experiment builds them."""
    g = cli.build_for(cfg.algebra, cfg.p)
    return g, [(spec, VermaLedger(g, cli.resolve_chi(g, spec))) for spec in cfg.chi_specs], cfg


@pytest.fixture
def collector_on():
    """The collector on at the start of the test and again after it."""
    gc.enable()
    yield
    gc.enable()


@pytest.mark.parametrize("name", ACYCLIC)
def test_the_family_check_leaves_no_cyclic_garbage(name, collector_on):
    """The premise of pausing the collector: with it off, the check's
    algebras, memos and elements are all freed by reference counting."""
    args = _family_args(ACYCLIC[name]())
    gc.collect()
    gc.disable()
    ok, _ = cli.check_family(*args)
    assert ok
    assert gc.collect() == 0


@pytest.mark.parametrize("caller_on", [True, False])
def test_every_product_runs_with_the_collector_off_and_its_state_returns(
        caller_on, monkeypatch, collector_on):
    seen = []
    multiply = envelope.DeformedAlgebra.multiply

    def recorded(self, a, b):
        seen.append(gc.isenabled())
        return multiply(self, a, b)
    monkeypatch.setattr(envelope.DeformedAlgebra, "multiply", recorded)
    args = _family_args(ExperimentConfig(**CFG))
    if not caller_on:
        gc.disable()
    ok, _ = cli.check_family(*args)
    assert ok and len(seen) == 550 and not any(seen)
    assert gc.isenabled() == caller_on


def test_the_collector_is_on_again_after_the_check_raises(monkeypatch, collector_on):
    class Boom(Exception):
        pass

    def failing(self, a, b):
        assert not gc.isenabled()
        raise Boom
    monkeypatch.setattr(envelope.DeformedAlgebra, "multiply", failing)
    with pytest.raises(Boom):
        cli.check_family(*_family_args(ExperimentConfig(**CFG)))
    assert gc.isenabled()
