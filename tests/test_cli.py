"""Tests for the command-line front-end."""

import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from superlie.cli import (
    ExperimentConfig,
    UsageError,
    build_for,
    main,
    parse_config,
    resolve_chi,
    run_experiment,
)
from superlie.rootsys import RootSystem
from superlie.verma import BabyVerma, VermaSystem
from tooling import gl21_with_corrupt_reflection


def test_parse_config_full():
    cfg = parse_config(
        """
        # an experiment
        algebra = osp(1|2)
        p = 5
        k_max = 6
        chi = zero
        chi = regular_semisimple
        chi = nilpotent_root:2d1
        checks = verma, kw
        samples = 7
        seed = 42
        """
    )
    assert cfg.algebra == "osp(1|2)" and cfg.p == 5 and cfg.k_max == 6
    assert cfg.chi_specs == ["zero", "regular_semisimple", "nilpotent_root:2d1"]
    assert cfg.checks == ["verma", "kw"]
    assert cfg.samples == 7 and cfg.seed == 42


def test_parse_config_errors():
    with pytest.raises(UsageError):
        parse_config("p = 3\n")  # missing algebra
    with pytest.raises(UsageError):
        parse_config("algebra = gl(1|1)\np = 3\nchecks = verma, bogus\n")
    with pytest.raises(UsageError):
        parse_config("algebra = gl(1|1)\np = three\n")


def test_run_experiment_verma_phi():
    cfg = ExperimentConfig(algebra="gl(1|1)", p=3,
                           chi_specs=["zero", "regular_semisimple"],
                           checks=["verma", "phi"])
    code, bundle, lines = run_experiment(cfg)
    assert code == 0
    assert bundle["verma"]["passed"] and bundle["phi"]["passed"]
    counts = [e["lambda_count"] for e in bundle["verma"]["report"]["characters"]]
    assert counts == [9, 9]
    assert all("PASS" in line for line in lines)


def test_spec_example_osp_p5(tmp_path):
    (tmp_path / "exp.cfg").write_text(
        "algebra = osp(1|2)\np = 5\nchi = regular_semisimple\nchecks = verma, kw\n"
    )
    code = main(["run", str(tmp_path / "exp.cfg"), "--out", str(tmp_path / "out")])
    assert code == 0
    kw = json.loads((tmp_path / "out" / "kw.json").read_text())
    assert kw["passed"]
    (report,) = kw["report"]["reports"]
    assert report["divisor"] == 10
    assert all(d == 10 for _, d, _ in report["simple_dims"])
    assert (tmp_path / "out" / "kw.jsonl").exists()


def test_p2_usage_error(capsys):
    code = main(["verma", "--type", "gl(1|1)", "--p", "2"])
    assert code == 2
    assert "usage error" in capsys.readouterr().err


def test_nonprime_usage_error():
    assert main(["verma", "--type", "gl(1|1)", "--p", "9"]) == 2


def test_list_catalog(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "gl(1|1)" in out and "osp(1|2)" in out
    assert "G(3)" in out and "p > 3" in out
    assert "root combinatorics only" in out
    assert "sl(m|n)" in out and "does not divide m-n" in out


def test_reflect_root_only(capsys):
    for label, count in (("F(4)", 576), ("G(3)", 96), ("D(2,1;a)", 32)):
        assert main(["reflect", "--type", label]) == 0
        assert capsys.readouterr().out == (
            f"{label}: {count} simple systems, all reflection identities verified\n")


def test_reflect_reports_a_broken_reflection_identity(monkeypatch, capsys):
    """A corrupt reflection table is an invariant violation on both paths:
    the root-level closure exits 1 with the message, and the model-level
    check reports FAIL through the run loop."""
    import superlie.cli as cli
    import superlie.liesuper as liesuper

    monkeypatch.setattr(cli, "build_root_system", lambda label: gl21_with_corrupt_reflection())
    assert main(["reflect", "--type", "gl(2|1)"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("gl(2|1): invariant violation: ") and "Traceback" not in out
    monkeypatch.undo()

    monkeypatch.setattr(liesuper, "build_root_system", lambda label: gl21_with_corrupt_reflection())
    assert main(["reflect", "--type", "gl(2|1)", "--p", "3"]) == 1
    out = capsys.readouterr().out
    assert "reflect      FAIL" in out and "invariant violation: " in out


def test_reflect_enumerates_simple_systems_once(monkeypatch, capsys):
    """With or without --p, one closure gives the count that the summary prints."""
    calls = []
    enumerate_systems = RootSystem.all_simple_systems

    def counted(self):
        calls.append(self)
        return enumerate_systems(self)

    monkeypatch.setattr(RootSystem, "all_simple_systems", counted)
    for argv in (["reflect", "--type", "gl(2|1)"], ["reflect", "--type", "gl(2|1)", "--p", "3"]):
        calls.clear()
        assert main(argv) == 0
        assert len(calls) == 1, argv
        assert capsys.readouterr().out.startswith(
            "gl(2|1): 6 simple systems, all reflection identities verified\n")


def test_reflect_with_model():
    assert main(["reflect", "--type", "osp(1|2)", "--p", "3"]) == 0


def test_kw_subcommand(capsys):
    assert main(["kw", "--type", "osp(1|2)", "--p", "3"]) == 0
    out = capsys.readouterr().out
    assert "divisor" in out and "pass" in out


def test_kw_invariant_violation_is_fail(monkeypatch, capsys):
    # a closure oracle that contradicts the head is a broken invariant: the
    # sweep must fail and name the weight, not report the character skipped
    monkeypatch.setattr(BabyVerma, "is_irreducible_oracle", lambda self: False)
    assert main(["kw", "--type", "gl(1|1)", "--p", "3"]) == 1
    out = capsys.readouterr().out
    assert "skipped" not in out and "PASS" not in out
    assert re.search(r"^kw +FAIL$", out, re.M)
    assert "head/oracle disagreement on standard chi at lambda = [" in out


def test_kw_pbw_violation_is_fail(monkeypatch, capsys):
    # a vanishing lowest vector breaks PBW: an internal failure, not a scope limit
    monkeypatch.setattr(BabyVerma, "act", lambda self, idx, vec: np.zeros_like(vec))
    assert main(["kw", "--type", "gl(1|1)", "--p", "3"]) == 1
    out = capsys.readouterr().out
    assert "skipped" not in out and "PASS" not in out
    assert re.search(r"^kw +FAIL$", out, re.M)
    assert "lowest vector vanished — PBW violation" in out


def test_kw_zero_quotient_is_fail(monkeypatch, capsys):
    # every element nilpotent: the radical is all of the coefficient algebra,
    # a broken invariant raised from inside the real radical computation
    monkeypatch.setattr(VermaSystem, "_coefficient_algebra",
                        lambda self: (np.zeros((self.dim, self.dim), dtype=np.int64), True))
    monkeypatch.setattr(BabyVerma, "maximal_submodule",
                        lambda self: self.system._commutative_radical_rows(self.F))
    assert main(["kw", "--type", "gl(1|1)", "--p", "3"]) == 1
    out = capsys.readouterr().out
    assert "skipped" not in out and "PASS" not in out
    assert re.search(r"^kw +FAIL$", out, re.M)
    assert "coefficient algebra has zero quotient" in out


def test_standard_buckets_without_a_regular_character():
    g = build_for("gl(2|2)", 3)  # no regular semisimple character over GF(3)
    assert resolve_chi(g, "zero").is_zero()
    assert resolve_chi(g, "nonregular").cartan_values() == (0, 0, 0, 1)
    with pytest.raises(UsageError, match="no regular semisimple character over GF"):
        resolve_chi(g, "regular_semisimple")


GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("name", ["gl11_p5_verma_phi", "gl21_p3_kw", "osp22_p5_family",
                                  "gl21_p3_reflect_semisimple", "osp12_p3_sym_coinduced"])
def test_reports_match_golden_files(name, tmp_path):
    # the first two run the extension-field kernels over GF(5^5) and GF(3^3);
    # the family config runs PBW straightening and the rescaling maps theta_t;
    # the last two read the invariant form, the coroots and the centralizer
    assert main(["run", str(GOLDEN / f"{name}.ini"), "--out", str(tmp_path)]) == 0
    want = sorted(path.name for path in (GOLDEN / name).iterdir())
    assert sorted(path.name for path in tmp_path.iterdir()) == want
    for fname in want:
        assert (tmp_path / fname).read_bytes() == (GOLDEN / name / fname).read_bytes(), fname


def test_sym_subcommand():
    code = main(["sym", "--type", "gl(1|1)", "--p", "3",
                 "--xi", "explicit:1,0", "--samples", "6"])
    assert code == 0


def test_verma_subcommand_lambda_flag():
    assert main(["verma", "--type", "gl(1|1)", "--p", "3",
                 "--chi", "nonregular"]) == 0
    assert main(["verma", "--type", "gl(1|1)", "--p", "3",
                 "--lambda", "one"]) == 2


def test_semisimple_via_config(tmp_path):
    (tmp_path / "s.cfg").write_text(
        "algebra = osp(1|2)\np = 3\nchi = zero\nchi = regular_semisimple\n"
        "checks = semisimple\n"
    )
    code = main(["run", str(tmp_path / "s.cfg"), "--format", "structured"])
    assert code == 0


def test_byte_identical_reports(tmp_path, capsys):
    (tmp_path / "d.cfg").write_text(
        "algebra = gl(1|1)\np = 3\nchi = explicit:1,0\n"
        "checks = verma, phi, sym, family\nsamples = 5\nseed = 11\n"
    )
    outs = []
    for sub in ("r1", "r2"):
        out = tmp_path / sub
        assert main(["run", str(tmp_path / "d.cfg"), "--out", str(out),
                     "--format", "structured"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    for name in ("verma", "phi", "sym", "family"):
        b1 = (tmp_path / "r1" / f"{name}.json").read_bytes()
        b2 = (tmp_path / "r2" / f"{name}.json").read_bytes()
        assert b1 == b2


README = Path(__file__).resolve().parent.parent / "README.md"


def _readme_blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```", README.read_text(), re.M | re.S)


def _readme_commands():
    return [line for block in _readme_blocks("sh") for line in block.splitlines()
            if line.startswith("superlie ")]


def test_readme_lists_every_subcommand():
    used = {shlex.split(line)[1] for line in _readme_commands()}
    assert used == {"verma", "kw", "reflect", "sym", "run"}


@pytest.mark.parametrize("line", _readme_commands(), ids=lambda line: shlex.split(line)[1])
def test_readme_command_exits_zero(line, tmp_path, monkeypatch):
    """Each fenced ``superlie`` line of the README runs as written."""
    argv = shlex.split(line)[1:]
    if argv[0] == "run":
        (config,) = _readme_blocks("ini")
        (tmp_path / argv[1]).write_text(config)
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0


# what the message must name, for rows whose command line contains the key
NAMED = {
    "--k-max 1": "k_max",
    "gl(2|1) --p 5": "dense-basis cap 4096",
    "checks = coinduced": "dense-basis cap 4096",
    "F(4) --p 5": "not supported",
    "--p 4": "is not prime",
}


@pytest.mark.parametrize("argv,config", [
    (["run", "{cfg}"], "algebra = gl(1|1)\np = 3\nchecks = family\nsamples = 0\n"),
    (["run", "{cfg}"], "algebra = gl(1|1)\np = 3\nchecks = sym\nsamples = abc\n"),
    (["run", "{cfg}", "--k-max", "0"], "algebra = gl(1|1)\np = 3\n"),
    (["run", "{tmp}/missing.ini"], None),
    (["sym", "--type", "gl(1|1)", "--p", "3", "--samples", "0"], None),
    (["sym", "--type", "gl(1|1)", "--p", "3", "--samples", "-1"], None),
    (["kw", "--type", "gl(1|1)", "--p", "3", "--chi", "explicit:9,9,9"], None),
    (["kw", "--type", "gl(1|1)", "--p", "3", "--chi", "explicit:a,1"], None),
    (["kw", "--type", "gl(1|1)", "--p", "3", "--chi", "nilpotent_root:zz"], None),
    (["run", "{cfg}"], "algebra = gl(1|1)\np = 3\nchecks =\n"),
    # a weight set beyond k_max
    (["verma", "--type", "gl(1|1)", "--p", "3", "--chi", "regular_semisimple", "--k-max", "1"], None),
    (["kw", "--type", "gl(1|1)", "--p", "3", "--k-max", "1"], None),
    (["reflect", "--type", "gl(1|1)", "--p", "3", "--k-max", "1"], None),
    # a PBW basis above the dense-basis cap
    (["sym", "--type", "gl(2|1)", "--p", "5"], None),
    (["run", "{cfg}"], "algebra = gl(2|1)\np = 5\nchecks = coinduced\n"),
    # reflect checks the type and p before the simple-system closure
    (["reflect", "--type", "F(4)", "--p", "5"], None),
    (["reflect", "--type", "gl(2|1)", "--p", "4"], None),
])
def test_bad_input_is_a_usage_error(argv, config, tmp_path, capsys):
    """Bad input exits 2 with one message line: no check passes vacuously,
    no traceback, and nothing on stdout."""
    cfg = tmp_path / "bad.ini"
    if config is not None:
        cfg.write_text(config)
    code = main([a.format(cfg=cfg, tmp=tmp_path) for a in argv])
    out, err = capsys.readouterr()
    assert code == 2
    assert "PASS" not in out and "Traceback" not in err
    assert err.startswith("usage error: ") and err.count("\n") == 1
    assert out == ""
    line = " ".join(argv + [config or ""]).replace("\n", " ")
    for key, named in NAMED.items():
        if key in line:
            assert named in err, key
