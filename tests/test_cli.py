"""Tests for the command-line front-end."""

import json
import re
import shlex
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from superlie import cli, invariants, liesuper, linalg as la, rootsys, verma
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
from superlie.verma import BabyVerma, LambdaSet, VermaSystem
from tooling import gl21_with_corrupt_reflection


def test_parse_config_full():
    cfg = parse_config(
        """
        # an experiment
        algebra = osp(1|2)
        p = 5
        chi = zero
        chi = regular_semisimple
        chi = nilpotent_root:2d1
        checks = verma, kw
        samples = 7
        seed = 42
        """
    )
    assert cfg.algebra == "osp(1|2)" and cfg.p == 5
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
    # a misspelt key is named, not ignored in favour of the defaults
    with pytest.raises(UsageError, match="line 3: unknown config key 'chek'"):
        parse_config("algebra = gl(1|1)\np = 3\nchek = kw\nseeed = 4\n")
    with pytest.raises(UsageError, match="unknown config key 'k_max'"):
        parse_config("algebra = gl(1|1)\np = 3\nk_max = 6\n")
    # only chi may repeat
    with pytest.raises(UsageError, match="line 4: config key 'seed' repeats"):
        parse_config("algebra = gl(1|1)\np = 3\nseed = 1\nseed = 2\n")
    with pytest.raises(UsageError, match="config key 'p' repeats"):
        parse_config("algebra = gl(1|1)\np = 3\np = 5\n")
    # a check runs once, so naming it twice is a mistake, not a request
    with pytest.raises(UsageError, match=r"checks names \['phi'\] more than once"):
        parse_config("algebra = gl(1|1)\np = 3\nchecks = phi,verma,phi\n")
    # so is a character: it would be swept twice
    with pytest.raises(UsageError, match="line 5: chi 'zero' repeats"):
        parse_config("algebra = gl(1|1)\np = 3\nchi = zero\nchi = nonregular\nchi = zero\n")


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


def test_reflect_line_says_when_an_identity_fails(monkeypatch, capsys):
    # a wrong type-ii shift breaks the module-shift proportionality: the
    # header line must not claim the identities verified
    monkeypatch.setitem(verma._REFLECTION_SHIFT, "type_ii", 1)
    assert main(["reflect", "--type", "gl(2|1)", "--p", "3"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("gl(2|1): 6 simple systems, a reflection identity failed\n")
    assert re.search(r"^reflect +FAIL$", out, re.M) and "verified" not in out


CAP_MESSAGE = "simple-system closure exceeded MAX_SIMPLE_SYSTEMS = 2"


def test_reflect_line_names_the_out_of_scope_reason(monkeypatch, capsys):
    monkeypatch.setattr(rootsys, "MAX_SIMPLE_SYSTEMS", 2)
    assert main(["reflect", "--type", "gl(2|1)", "--p", "3"]) == 1
    assert capsys.readouterr().out == (f"gl(2|1): out of scope: {CAP_MESSAGE}\n"
                                       "reflect      FAIL\n"
                                       f"  out of scope: {CAP_MESSAGE}\n")


@pytest.mark.parametrize("fmt", ["text", "structured"])
def test_root_only_reflect_at_the_cap_is_out_of_scope(monkeypatch, capsys, fmt):
    # gl(m|n) has (m+n)! simple systems, so gl(5|4) passes the real cap
    monkeypatch.setattr(rootsys, "MAX_SIMPLE_SYSTEMS", 2)
    assert main(["reflect", "--type", "gl(2|1)", "--format", fmt]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    if fmt == "text":
        assert captured.out == f"gl(2|1): out of scope: {CAP_MESSAGE}\n"
    else:
        assert json.loads(captured.out) == {"out_of_scope": CAP_MESSAGE}


# each preset, and the run config it stands for
PRESET_RUNS = {
    "verma": (["--type", "gl(1|1)", "--p", "3", "--chi", "regular_semisimple"],
              "algebra = gl(1|1)\np = 3\nchi = regular_semisimple\nchecks = verma,phi\n"),
    "kw": (["--type", "gl(1|1)", "--p", "3"],
           "algebra = gl(1|1)\np = 3\nchi = zero\nchi = regular_semisimple\n"
           "chi = nonregular\nchecks = kw\n"),
    "sym": (["--type", "gl(1|1)", "--p", "3", "--xi", "explicit:1,0", "--samples", "3"],
            "algebra = gl(1|1)\np = 3\nchi = explicit:1,0\nchecks = sym\nsamples = 3\n"),
    "reflect": (["--type", "gl(1|1)", "--p", "3"],
                "algebra = gl(1|1)\np = 3\nchi = zero\nchi = regular_semisimple\n"
                "checks = reflect\n"),
}


@pytest.mark.parametrize("preset", sorted(PRESET_RUNS))
def test_preset_equals_run(preset, tmp_path, capsys):
    """A preset writes the same report files, and exits with the same code,
    as ``superlie run`` on its config."""
    flags, config = PRESET_RUNS[preset]
    (tmp_path / "run.ini").write_text(config)
    code = main([preset, *flags, "--out", str(tmp_path / "preset")])
    assert main(["run", str(tmp_path / "run.ini"), "--out", str(tmp_path / "run")]) == code
    names = sorted(path.name for path in (tmp_path / "run").iterdir())
    assert sorted(path.name for path in (tmp_path / "preset").iterdir()) == names
    for name in names:
        assert ((tmp_path / "preset" / name).read_bytes()
                == (tmp_path / "run" / name).read_bytes()), name


@pytest.mark.parametrize("argv", [[preset, *PRESET_RUNS[preset][0]] for preset in sorted(PRESET_RUNS)]
                         + [["reflect", "--type", "gl(2|1)"]], ids=" ".join)
def test_structured_stdout_is_json(argv, capsys):
    """In structured format stdout is one JSON document, with no text line
    before it: the run bundle, or the count report of the root-only reflect."""
    assert main([*argv, "--format", "structured"]) == 0
    out = json.loads(capsys.readouterr().out)
    if "--p" in argv:
        assert out["config"]["checks"] == parse_config(PRESET_RUNS[argv[0]][1]).checks
    else:
        assert out == {"simple_system_count": 6}


def test_kw_subcommand(capsys):
    assert main(["kw", "--type", "osp(1|2)", "--p", "3"]) == 0
    out = capsys.readouterr().out
    assert "divisor" in out and "pass" in out


def test_kw_invariant_violation_is_fail(monkeypatch, capsys):
    # a pairing matrix with an entry off its weight blocks is a broken
    # invariant: the sweep must fail and name the weight, not report the
    # character skipped
    pairing_matrix = BabyVerma.pairing_matrix

    def leaky(self):
        S = pairing_matrix(self).copy()
        S[tuple(np.argwhere(self.system.pairing_blocks()[0])[0])] = 1
        return S
    monkeypatch.setattr(BabyVerma, "pairing_matrix", leaky)
    assert main(["kw", "--type", "gl(1|1)", "--p", "3"]) == 1
    out = capsys.readouterr().out
    assert "skipped" not in out and "PASS" not in out
    assert re.search(r"^kw +FAIL$", out, re.M)
    assert re.search(r"^  invariant violation: the pairing matrix at lambda = \[\d+, \d+\] is not "
                     r"block diagonal over the weight grades$", out, re.M)


def test_kw_reducible_head_is_fail(tmp_path, monkeypatch, capsys):
    # a head H + H is not simple: the PBW words on the image of v, one per
    # kept index of H, cannot be its basis, and the broken invariant fails the
    # check instead of skipping the character
    quotient = BabyVerma.quotient_representation

    def doubled(self):
        ops, parity_op = quotient(self)
        return np.kron(np.eye(2, dtype=np.int64), ops), np.kron(np.eye(2, dtype=np.int64), parity_op)

    monkeypatch.setattr(BabyVerma, "quotient_representation", doubled)
    cfg = tmp_path / "kw.ini"
    cfg.write_text("algebra = gl(1|1)\np = 3\nchecks = kw\n")
    assert main(["run", str(cfg)]) == 1
    out = capsys.readouterr().out
    assert "skipped" not in out and "PASS" not in out
    assert re.search(r"^kw +FAIL$", out, re.M)
    assert re.search(r"^  invariant violation: the n\^- words on the image of v are not the basis "
                     r"of the 2-dimensional head at its 1 kept PBW indices: v does not generate it$",
                     out, re.M)


def test_an_odd_even_centralizer_codimension_is_an_invariant_violation(monkeypatch, capsys):
    # chi([., .]) on g_0 is alternating, so its rank d0 is even; an odd rank
    # is a broken invariant, never a scope limit
    build = cli.build_for

    def built(*args):
        g = build(*args)  # validated with the true ranks
        odd_rank = SimpleNamespace(**{**vars(la), "rank": lambda F, mat: la.rank(F, mat) | 1})
        monkeypatch.setattr(liesuper, "la", odd_rank)
        return g

    monkeypatch.setattr(cli, "build_for", built)
    assert main(["kw", "--type", "gl(1|1)", "--p", "3"]) == 1
    out = capsys.readouterr().out
    assert "out of scope" not in out and "PASS" not in out
    assert re.search(r"^kw +FAIL$", out, re.M)
    assert re.search(r"^  invariant violation: even centralizer codimension 1 is odd — artifact bug$",
                     out, re.M)


def test_a_weight_set_unstable_under_a_root_shift_is_an_invariant_violation(monkeypatch, capsys):
    # root weights lie in GF(p), so every coset weight set is stable under
    # the root shifts; a weight set that is not breaks an invariant
    monkeypatch.setattr(LambdaSet, "__contains__", lambda self, lam: False)
    assert main(["reflect", "--type", "gl(1|1)", "--p", "3"]) == 1
    out = capsys.readouterr().out
    assert "out of scope" not in out and "PASS" not in out
    assert re.search(r"^reflect +FAIL$", out, re.M)
    assert re.search(r"^  invariant violation: weight set is not stable under the root shift$",
                     out, re.M)


def test_pbw_violation_is_fail(monkeypatch, capsys):
    # a vanishing lowest vector breaks PBW: an internal failure, not a scope limit;
    # zero letters reach the raise in the system's own lowest-vector computation,
    # which phi reads, in the verma check and in the phi check
    monkeypatch.setattr(VermaSystem, "_negative_letters",
                        lambda self: np.zeros((self.N, self.dim, self.dim), dtype=np.int64))
    assert main(["verma", "--type", "gl(1|1)", "--p", "3"]) == 1
    out = capsys.readouterr().out
    assert "skipped" not in out and "PASS" not in out
    assert re.search(r"^verma +FAIL$", out, re.M) and re.search(r"^phi +FAIL$", out, re.M)
    assert out.count("lowest vector vanished — PBW violation") == 2


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
                                  "gl21_p3_reflect_semisimple", "osp12_p3_sym_coinduced",
                                  "osp12_p3_sym_bench_s3", "osp12_p3_sym_bench_s101"])
def test_reports_match_golden_files(name, tmp_path):
    # the first two run the extension-field kernels over GF(5^5) and GF(3^3);
    # the family config runs PBW straightening and the rescaling maps theta_t;
    # the next two read the invariant form, the coroots and the centralizer;
    # the last two are the ideal_survey bench config at program seeds 3 and
    # 101: ten seeded closures in the 108-dimensional S_xi over GF(3)
    assert main(["run", str(GOLDEN / f"{name}.ini"), "--out", str(tmp_path)]) == 0
    want = sorted(path.name for path in (GOLDEN / name).iterdir())
    assert sorted(path.name for path in tmp_path.iterdir()) == want
    for fname in want:
        assert (tmp_path / fname).read_bytes() == (GOLDEN / name / fname).read_bytes(), fname


def test_sym_subcommand():
    code = main(["sym", "--type", "gl(1|1)", "--p", "3",
                 "--xi", "explicit:1,0", "--samples", "6"])
    assert code == 0


def test_sym_non_graded_ideal_is_fail(monkeypatch, capsys):
    # every operator stack holds sigma, so a non-graded ideal is a broken
    # invariant: the check fails and says so, with no traceback
    def non_graded(model):
        row = la.zeros((1, model.n))
        row[0, [np.nonzero(model.parities == par)[0][0] for par in (0, 1)]] = 1
        return row
    monkeypatch.setattr(invariants, "largest_proper_invariant_ideal", non_graded)
    assert main(["sym", "--type", "gl(1|1)", "--p", "3",
                 "--xi", "explicit:1,0", "--samples", "2"]) == 1
    out = capsys.readouterr().out
    assert re.search(r"^sym +FAIL$", out, re.M)
    assert "invariant violation: subspace is not graded" in out


def test_coinduced_gl21_p3_takes_under_a_second():
    """The coinduced check reads one operator stack of F(g, Borel); the
    coassociativity sweep over U's 3,888 PBW monomials that it replaced took
    90 s CPU on a 2-vCPU Xeon VM."""
    cfg = parse_config("algebra = gl(2|1)\np = 3\nchecks = coinduced\n")
    t0 = time.process_time()
    code, bundle, lines = run_experiment(cfg)
    elapsed = time.process_time() - t0
    assert code == 0 and lines == ["coinduced    PASS"]
    rep = bundle["coinduced"]["report"]
    assert rep["chi"] == "zero" and rep["dim"] == 12 and rep["g_simple"]
    assert (rep["relations"], rep["relations_failed"]) == (374, 0)
    assert elapsed < 1.0, f"coinduced on gl(2|1), p = 3 took {elapsed:.2f} s CPU"


@pytest.mark.parametrize("label,n", [("gl(2|1)", 20), ("osp(2|2)", 20)])
def test_coinduced_passes_where_only_u_is_above_the_cap(label, n, capsys, tmp_path):
    """At p = 5, U's PBW basis (50,000 and 10,000 monomials) is above the
    dense-basis cap, but the check reads only F(g, Borel)'s stack: n^2 is
    under the cap, and the check runs and passes."""
    cfg = tmp_path / "c.ini"
    cfg.write_text(f"algebra = {label}\np = 5\nchecks = coinduced\n")
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert re.search(r"^coinduced +PASS$", capsys.readouterr().out, re.M)
    rep = json.loads((tmp_path / "out" / "coinduced.json").read_text())["report"]
    assert rep["dim"] == n and rep["relations_failed"] == 0 and rep["g_simple"]


def test_coinduced_broken_bracket_is_fail_naming_the_relation(monkeypatch, capsys, tmp_path):
    class Broken(invariants.CoinducedAlgebra):
        """F(g, Borel) whose straightening doubles every bracket of its last letter."""

        def __init__(self, g, q):
            super().__init__(g, q)
            table = self.U._lam_bracket
            table[-1] = [[(k, g.F.add(c, c)) for k, c in row] for row in table[-1]]
    monkeypatch.setattr(cli, "CoinducedAlgebra", Broken)
    cfg = tmp_path / "c.ini"
    cfg.write_text("algebra = gl(2|1)\np = 3\nchecks = coinduced\n")
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 1
    out = capsys.readouterr().out
    assert re.search(r"^coinduced +FAIL$", out, re.M)
    first = re.search(r"^  first failure: (bracket\(.+\))$", out, re.M)
    assert first
    rep = json.loads((tmp_path / "out" / "coinduced.json").read_text())["report"]
    assert rep["first_failure"] == first.group(1) and rep["relations_failed"] > 0


def test_verma_subcommand_lambda_flag():
    # the sweep always covers every lambda, so there is no --lambda flag
    assert main(["verma", "--type", "gl(1|1)", "--p", "3",
                 "--chi", "nonregular"]) == 0
    with pytest.raises(SystemExit) as exc:
        main(["verma", "--type", "gl(1|1)", "--p", "3", "--lambda", "all"])
    assert exc.value.code == 2


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


def test_readme_python_snippet_runs():
    """The README's library example runs as written."""
    (snippet,) = _readme_blocks("python")
    exec(compile(snippet, str(README), "exec"), {})


# what the message must name, for rows whose command line contains the key
NAMED = {
    "nilpotent_root:-e1+e2": "positive root vector X_e1-e2",
    "--p 11": "MAX_FIELD_ORDER",
    "--p 1048583": "MAX_FIELD_ORDER",
    "chek = kw": "unknown config key 'chek'",
    "gl(2|1) --p 5": "dense-basis cap 4096",
    "checks = coinduced": "dense-basis cap 4096",
    "F(4) --p 5": "not supported",
    "--p 4": "is not prime",
    "chi = zero chi = zero": "chi 'zero' repeats",
    "chi = regular_semisimple checks = family": "zero, regular_semisimple",
    "F(4) --out": "--out, --seed and --samples need --p",
    "F(4) --seed": "--out, --seed and --samples need --p",
    "F(4) --samples": "--out, --seed and --samples need --p",
}


@pytest.mark.parametrize("argv,config", [
    (["run", "{cfg}"], "algebra = gl(1|1)\np = 3\nchecks = family\nsamples = 0\n"),
    (["run", "{cfg}"], "algebra = gl(1|1)\np = 3\nchecks = sym\nsamples = abc\n"),
    (["run", "{cfg}", "--samples", "0"], "algebra = gl(1|1)\np = 3\n"),
    (["run", "{tmp}/missing.ini"], None),
    (["sym", "--type", "gl(1|1)", "--p", "3", "--samples", "0"], None),
    (["sym", "--type", "gl(1|1)", "--p", "3", "--samples", "-1"], None),
    (["kw", "--type", "gl(1|1)", "--p", "3", "--chi", "explicit:9,9,9"], None),
    (["kw", "--type", "gl(1|1)", "--p", "3", "--chi", "explicit:a,1"], None),
    (["kw", "--type", "gl(1|1)", "--p", "3", "--chi", "nilpotent_root:zz"], None),
    (["run", "{cfg}"], "algebra = gl(1|1)\np = 3\nchecks =\n"),
    # a field above MAX_FIELD_ORDER: the weight field GF(11^11) of a regular
    # character (reflect always sweeps one), and the first prime above 2^20
    (["verma", "--type", "gl(1|1)", "--p", "11", "--chi", "regular_semisimple"], None),
    (["kw", "--type", "gl(1|1)", "--p", "1048583"], None),
    (["reflect", "--type", "gl(1|1)", "--p", "11"], None),
    # a PBW basis above the dense-basis cap, and an F(g, Borel) of dimension
    # n = 144 whose associativity check multiplies n^2 x n^2 matrices
    (["sym", "--type", "gl(2|1)", "--p", "5"], None),
    (["run", "{cfg}"], "algebra = gl(2|2)\np = 3\nchecks = coinduced\n"),
    # reflect checks the type and p before the simple-system closure
    (["reflect", "--type", "F(4)", "--p", "5"], None),
    (["reflect", "--type", "gl(2|1)", "--p", "4"], None),
    # chi nonzero on a positive root vector of the distinguished Borel
    (["verma", "--type", "gl(2|1)", "--p", "3", "--chi", "nilpotent_root:-e1+e2"], None),
    (["run", "{cfg}"], "algebra = gl(2|1)\np = 3\nchi = nilpotent_root:-e1+e2\nchecks = verma\n"),
    (["run", "{cfg}"], "algebra = gl(2|1)\np = 3\nchi = nilpotent_root:-e1+e2\nchecks = phi\n"),
    (["run", "{cfg}"], "algebra = gl(2|1)\np = 3\nchi = nilpotent_root:-e1+e2\nchecks = kw,phi\n"),
    # misspelt config keys, which used to run the default checks
    (["run", "{cfg}"], "algebra = gl(1|1)\np = 3\nchek = kw\nseeed = 4\n"),
    # every weight field is read before any check: no zero-character sweep first
    (["kw", "--type", "gl(2|1)", "--p", "11"], None),
    # a character named twice, which would be swept twice
    (["run", "{cfg}"], "algebra = gl(1|1)\np = 3\nchi = zero\nchi = zero\nchecks = kw\n"),
    # root-only reflect writes no report and draws nothing: each flag that
    # would need one is refused, and no directory is made
    (["reflect", "--type", "F(4)", "--out", "{tmp}/out", "--seed", "3"], None),
    (["reflect", "--type", "F(4)", "--seed", "3"], None),
    (["reflect", "--type", "F(4)", "--samples", "5"], None),
    # family checks one character: a second one would go unchecked
    (["run", "{cfg}"],
     "algebra = gl(1|1)\np = 3\nchi = zero\nchi = regular_semisimple\nchecks = family\n"),
])
def test_bad_input_is_a_usage_error(argv, config, tmp_path, capsys, monkeypatch):
    """Bad input exits 2 with one message line: no check passes vacuously,
    no traceback, nothing on stdout, and no kw sweep starts."""
    cfg = tmp_path / "bad.ini"
    if config is not None:
        cfg.write_text(config)
    sweeps, check_kw = [], cli.check_kw
    monkeypatch.setattr(cli, "check_kw", lambda *args: sweeps.append(args) or check_kw(*args))
    code = main([a.format(cfg=cfg, tmp=tmp_path) for a in argv])
    out, err = capsys.readouterr()
    assert code == 2
    assert not sweeps
    assert "PASS" not in out and "Traceback" not in err
    assert err.startswith("usage error: ") and err.count("\n") == 1
    assert out == ""
    assert not (tmp_path / "out").exists()
    line = " ".join(argv + [config or ""]).replace("\n", " ")
    for key, named in NAMED.items():
        if key in line:
            assert named in err, key
