"""Batch command-line front-end for the verification pipelines.

Subcommands
-----------
run <config>   execute the checks named in a flat key=value config file
list           print the catalog of supported types, primes, and checks
verma          preset: checks verma, phi; --chi, default zero
reflect        preset: check reflect on zero and regular_semisimple; without
               --p, only the simple-system closure of the root system
kw             preset: check kw; --chi, default zero, regular_semisimple,
               nonregular
sym            preset: check sym; --xi, default zero

A preset (``PRESETS``) is ``run`` on ``--type``, ``--p`` and its checks, with
the one character its flag names or else its default characters.  With
``--format structured`` stdout is one JSON document.

Every check takes ``(g, ledgers, cfg)`` and returns ``(passed, report)``, and
``run_experiment`` writes every report file.  Config files are flat
``key = value`` lines (``#`` comments allowed); the keys are ``algebra``,
``p``, ``chi``, ``checks``, ``samples`` and ``seed``, only ``chi`` may
repeat, and no check may be named twice.  Character descriptors: ``zero``,
``regular_semisimple``, ``nonregular``, ``explicit:c1,c2,...`` (Cartan
values), ``nilpotent_root:LABEL`` (for example ``2d1`` or ``e1-e2``).

Reports are JSON with sorted keys and no timestamps, so identical config
and seed give byte-identical output.  Randomness uses the counter-based
Philox generator keyed by (seed, check index), so checks draw independent,
reproducible streams regardless of execution order.  The exit code is 0
exactly when every executed check passes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from .envelope import (
    _MATRIX_DIM_CAP,
    _random_element,
    gc_paused,
    reduced_enveloping,
    reduced_symmetric,
    theta_map,
)
from .gf import MAX_FIELD_ORDER, field_create, is_prime
from .invariants import (
    CoinducedAlgebra,
    coinduced_dimension,
    ideal_survey,
    largest_proper_invariant_ideal,
)
from .kwverify import summary_table, verify_superkw_sweep
from .liesuper import LieSuperalgebra, PCharacter, _normalize_label, build_algebra
from .rootsys import InvariantViolation, build_root_system
from .verma import (
    ExtensionCapExceeded,
    IncompatibleBorel,
    VermaLedger,
    agreement_sweep,
    proportionality_report,
    reflection_report,
    semisimplicity_check,
    standard_characters,
)

CHECK_ORDER = ("verma", "phi", "reflect", "sym", "coinduced", "family",
               "kw", "semisimple")

# (label, prime rule, scope) — scope "full" means structure constants and
# the whole module pipeline; "roots" means root combinatorics only.
CATALOG = (
    ("gl(1|1)", "p > 2", "full"),
    ("gl(2|1)", "p > 2", "full"),
    ("gl(m|n)", "p > 2", "full"),
    ("sl(m|n)", "p > 2, p does not divide m-n", "full"),
    ("osp(1|2)", "p > 2", "full"),
    ("osp(2|2)", "p > 2", "full"),
    ("B(m,n)", "p > 2", "roots"),
    ("C(n)", "p > 2", "roots"),
    ("D(m,n)", "p > 2", "roots"),
    ("D(2,1;a)", "p > 3", "roots"),
    ("F(4)", "p > 2", "roots"),
    ("G(3)", "p > 3", "roots"),
)


class UsageError(Exception):
    pass


@dataclass
class ExperimentConfig:
    algebra: str
    p: int
    chi_specs: list = field(default_factory=lambda: ["zero"])
    checks: list = field(default_factory=lambda: ["verma", "phi"])
    samples: int = 20
    seed: int = 0


def parse_config(text: str) -> ExperimentConfig:
    values: dict = {}
    chi_specs: list[str] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"line {lineno}: expected key = value, got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in ("algebra", "p", "chi", "checks", "samples", "seed"):
            raise UsageError(f"line {lineno}: unknown config key {key!r}")
        if key == "chi":
            if val in chi_specs:
                raise UsageError(f"line {lineno}: chi {val!r} repeats")
            chi_specs.append(val)
        elif key in values:
            raise UsageError(f"line {lineno}: config key {key!r} repeats")
        else:
            values[key] = val
    if "algebra" not in values or "p" not in values:
        raise UsageError("config needs at least 'algebra' and 'p'")
    ints = {}
    for key in [k for k in ("p", "samples", "seed") if k in values]:
        try:
            ints[key] = int(values[key])
        except ValueError:
            raise UsageError(f"{key} must be an integer, got {values[key]!r}")
    cfg = ExperimentConfig(algebra=values["algebra"], **ints)
    if chi_specs:
        cfg.chi_specs = chi_specs
    if "checks" in values:
        cfg.checks = [c.strip() for c in values["checks"].split(",") if c.strip()]
        if not cfg.checks:
            raise UsageError("checks names no check")
        repeated = sorted({c for c in cfg.checks if cfg.checks.count(c) > 1})
        if repeated:
            raise UsageError(f"checks names {repeated} more than once")
    unknown = set(cfg.checks) - set(CHECK_ORDER)
    if unknown:
        raise UsageError(f"unknown checks: {sorted(unknown)}")
    return cfg


def build_for(cfg_algebra: str, p: int) -> LieSuperalgebra:
    if p > MAX_FIELD_ORDER:
        raise UsageError(f"p = {p} is above MAX_FIELD_ORDER = {MAX_FIELD_ORDER}")
    if not is_prime(p):
        raise UsageError(f"p = {p} is not prime")
    try:
        return build_algebra(cfg_algebra, field_create(p, 1))
    except ValueError as exc:
        raise UsageError(str(exc))


def resolve_chi(g: LieSuperalgebra, spec: str) -> PCharacter:
    spec = spec.strip()
    if spec in ("zero", "regular_semisimple", "nonregular"):
        buckets = standard_characters(g)
        if spec not in buckets:
            raise UsageError(f"{g.label} has no regular semisimple character over GF({g.p})")
        return buckets[spec]
    kind, _, arg = spec.partition(":")
    try:
        if kind == "explicit":
            return g.chi_from_cartan([int(v) for v in arg.split(",") if v.strip()])
        if kind == "nilpotent_root":
            return g.nilpotent_root_character(g.rs.index(arg))
    except ValueError as exc:
        raise UsageError(f"bad chi {spec!r}: {exc}")
    raise UsageError(f"unknown chi descriptor {spec!r}")


def _rng(cfg: ExperimentConfig, check: str) -> np.random.Generator:
    key = np.array([cfg.seed % 2 ** 64, CHECK_ORDER.index(check)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


# ---------------------------------------------------------------------------
# the individual checks: each takes (g, ledgers, cfg), where ledgers holds one
# (chi spec, VermaLedger) pair per configured character, and returns
# (passed, report-dict)


def _passed(reports, test) -> bool:
    """Sets each report's ``passed`` to ``test(report)``; True when all pass."""
    for rep in reports:
        rep["passed"] = test(rep)
    return all(rep["passed"] for rep in reports)


def check_verma(g, ledgers, cfg):
    expected = g.p ** g.rank
    per_chi = []
    for spec, ledger in ledgers:
        sweep = agreement_sweep(ledger)
        per_chi.append({
            "chi": spec,
            "chi_cartan": sweep["chi"],
            "k": sweep["k"],
            "lambda_count": sweep["lambda_count"],
            "lambda_count_expected": expected,
            "all_agree": sweep["all_agree"],
            "irreducible_count": sum(
                v["irreducible_oracle"] for v in sweep["verdicts"]),
            "discrepancies": sweep["discrepancies"],
        })
    ok = all(e["all_agree"] and e["lambda_count"] == expected for e in per_chi)
    return ok, {"characters": per_chi}


def check_phi(g, ledgers, cfg):
    per_chi = [dict(proportionality_report(ledger), chi=spec) for spec, ledger in ledgers]
    ok = _passed(per_chi, lambda rep: (rep["single_constant"] and rep["vanishing_match"]
                                       and rep["constant"] != 0))
    return ok, {"characters": per_chi}


def check_reflect(g, ledgers, cfg):
    report = {"simple_system_count": len(g.rs.all_simple_systems()), "characters": []}
    ok = True
    for spec, ledger in ledgers:
        if not ledger.chi.is_standard_form():
            report["characters"].append({"chi": spec, "skipped": "nonstandard chi"})
            continue
        reps = [dict(reflection_report(ledger, delta), chi=spec)
                for delta in g.distinguished.simple_roots]
        ok = _passed(reps, lambda rep: (rep["singular_vectors_ok"]
                                        and rep["module_shift_single_constant"]
                                        and rep["module_shift_vanishing_match"]
                                        and rep["product_single_constant"])) and ok
        report["characters"] += reps
    return ok, report


def check_sym(g, ledgers, cfg):
    rng = _rng(cfg, "sym")
    per_chi = []
    for spec, ledger in ledgers:
        cent = g.centralizer(ledger.chi)
        divisor = g.p ** cent.d0 * 2 ** cent.d1
        S = reduced_symmetric(g, ledger.chi)
        rep = ideal_survey(S, divisor, (cent.d0, cent.d1),
                           seeds=cfg.samples, rng=rng)
        per_chi.append(dict(rep, chi=spec))
    ok = _passed(per_chi, lambda rep: (rep["largest_ideal_codim"] == rep["divisor"]
                                       and rep["all_closures_divisible"]))
    return ok, {"characters": per_chi}


def _borel(g: LieSuperalgebra) -> list[int]:
    """The distinguished Borel's basis indices: Cartan, then positive roots."""
    return list(g.cartan) + [i for i, r in enumerate(g.basis_roots)
                             if r is not None and g.distinguished.is_positive(r)]


def check_coinduced(g, ledgers, cfg):
    C = CoinducedAlgebra(g, _borel(g))
    model = C.operator_model()
    failures = C.relation_failures(model)
    rep = {
        "chi": "zero",
        "subalgebra": "borel",
        "dim": C.dimension(),
        "relations": C.relation_count(),
        "relations_failed": len(failures),
        "g_simple": largest_proper_invariant_ideal(model).shape[0] == 0,
    }
    if failures:
        rep["first_failure"] = failures[0]
    return not failures and rep["g_simple"], rep


@gc_paused()
def check_family(g, ledgers, cfg):
    rng = _rng(cfg, "family")
    F = g.F
    [(_, ledger)] = ledgers
    chi = ledger.chi
    U = reduced_enveloping(g, chi)
    # each sample's t, then its three (a, b) pairs
    draws = [(int(rng.integers(1, F.q)),
              [(_random_element(U, rng), _random_element(U, rng)) for _ in range(3)])
             for _ in range(cfg.samples)]
    # one target U_{t xi, t} per value of t, kept only while its samples run
    theta_ok = 0
    for t in sorted({t for t, _ in draws}):
        _, tm = theta_map(U, t)
        theta_ok += sum(tm.verify(pairs)["passed"] for t2, pairs in draws if t2 == t)
    assoc_ok = 0
    for _ in range(cfg.samples):
        a, b, c = (_random_element(U, rng) for _ in range(3))
        left = U.multiply(U.multiply(a, b), c)
        right = U.multiply(a, U.multiply(b, c))
        if U.equal(left, right):
            assoc_ok += 1
    S = reduced_symmetric(g, chi)
    comm_ok = True
    for i in range(g.dim):
        for j in range(g.dim):
            x, y = S.gen(i), S.gen(j)
            lhs = S.multiply(x, y)
            rhs = S.multiply(y, x)
            if g.parities[i] and g.parities[j]:
                rhs = {m: F.neg(c) for m, c in rhs.items()}
            if not S.equal(lhs, rhs):
                comm_ok = False
    rep = {
        "theta_verified": theta_ok,
        "theta_samples": cfg.samples,
        "associativity_verified": assoc_ok,
        "associativity_samples": cfg.samples,
        "symmetric_supercommutative": comm_ok,
    }
    ok = theta_ok == cfg.samples and assoc_ok == cfg.samples and comm_ok
    return ok, rep


def check_kw(g, ledgers, cfg):
    reports = verify_superkw_sweep([ledger for _, ledger in ledgers])
    ok = all(rep.skipped is not None or (rep.all_divisible and rep.accounting_ok)
             for rep in reports)
    return ok, {
        "reports": [rep.to_dict() for rep in reports],
        "table": summary_table(reports),
    }


def check_semisimple(g, ledgers, cfg):
    per_chi = []
    ok = True
    for spec, ledger in ledgers:
        if not ledger.chi.is_standard_form():
            per_chi.append({"chi": spec, "skipped": "nonstandard chi"})
            continue
        rep = dict(semisimplicity_check(ledger), chi=spec)
        ok = ok and rep["verdict_matches"]
        per_chi.append(rep)
    return ok, {"characters": per_chi}


def run_experiment(cfg: ExperimentConfig, out_dir=None):
    """Run the configured checks; returns (exit_code, bundle, summary_lines)."""
    if cfg.samples < 1:
        raise UsageError(f"samples must be at least 1, got {cfg.samples}")
    if "family" in cfg.checks and len(cfg.chi_specs) > 1:
        raise UsageError(f"family checks one character; the config names "
                         f"{len(cfg.chi_specs)}: {', '.join(cfg.chi_specs)}")
    g = build_for(cfg.algebra, cfg.p)
    pbw_dim = g.p ** g.dim_even * 2 ** g.dim_odd
    if "sym" in cfg.checks and pbw_dim > _MATRIX_DIM_CAP:
        raise UsageError(f"sym needs a dense PBW basis of dimension {pbw_dim}, "
                         f"above the dense-basis cap {_MATRIX_DIM_CAP}")
    if "coinduced" in cfg.checks:
        try:
            coinduced_dimension(g, _borel(g))
        except ValueError as exc:
            raise UsageError(str(exc))
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
    # the checks of this run share one ledger per character; a weight field
    # above the cap is bad input, refused before any check runs
    ledgers = [(spec, VermaLedger(g, resolve_chi(g, spec))) for spec in cfg.chi_specs]
    if {"verma", "phi", "reflect", "kw", "semisimple"} & set(cfg.checks):
        try:
            for _, ledger in ledgers:
                ledger.lset
        except ExtensionCapExceeded as exc:
            raise UsageError(str(exc))
    bundle = {"config": {
        "algebra": cfg.algebra, "p": cfg.p, "chi": list(cfg.chi_specs),
        "checks": list(cfg.checks), "samples": cfg.samples, "seed": cfg.seed,
    }}
    lines = []
    all_ok = True
    # looked up on each run, so that a wrapper set on cli.check_<name> is called
    checks = {"verma": check_verma, "phi": check_phi, "reflect": check_reflect,
              "sym": check_sym, "coinduced": check_coinduced, "family": check_family,
              "kw": check_kw, "semisimple": check_semisimple}
    for name in CHECK_ORDER:
        if name not in cfg.checks:
            continue
        try:
            ok, rep = checks[name](g, ledgers, cfg)
        except InvariantViolation as exc:
            ok, rep = False, {"invariant_violation": str(exc)}
        except RuntimeError as exc:  # a documented scope limit: U_chi(n^-) not local, say
            ok, rep = False, {"out_of_scope": str(exc)}
        except IncompatibleBorel as exc:
            raise UsageError(str(exc))
        bundle[name] = {"passed": ok, "report": rep}
        lines.append(f"{name:<12} {'PASS' if ok else 'FAIL'}")
        for key in ("invariant_violation", "out_of_scope", "first_failure"):
            if key in rep:
                lines.append(f"  {key.replace('_', ' ')}: {rep[key]}")
        all_ok = all_ok and ok
    if out_dir is not None:
        for name in cfg.checks:
            path = os.path.join(out_dir, f"{name}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(bundle[name], fh, sort_keys=True, indent=1)
                fh.write("\n")
        # one line per character; a kw check that raised has no reports
        if "kw" in cfg.checks and "reports" in bundle["kw"]["report"]:
            with open(os.path.join(out_dir, "kw.jsonl"), "w", encoding="utf-8") as fh:
                for rep in bundle["kw"]["report"]["reports"]:
                    fh.write(json.dumps(rep, sort_keys=True, separators=(",", ":")) + "\n")
    return (0 if all_ok else 1), bundle, lines


# ---------------------------------------------------------------------------
# subcommand entry points

# the shortcut subcommands, as presets of ``run`` (see the module docstring)
# name: (help, checks, default characters, character flag)
PRESETS = {
    "verma": ("irreducibility sweep for one character", ("verma", "phi"), ("zero",), "--chi"),
    "reflect": ("simple-system reflection suite", ("reflect",),
                ("zero", "regular_semisimple"), None),
    "kw": ("dimension-divisibility sweep", ("kw",),
           ("zero", "regular_semisimple", "nonregular"), "--chi"),
    "sym": ("invariant-ideal survey for S_xi", ("sym",), ("zero",), "--xi"),
}


def _reflect_line(label: str, passed: bool, report: dict) -> str:
    """The reflect header: the verdict, or why there is none."""
    for key in ("invariant_violation", "out_of_scope"):
        if key in report:
            return f"{label}: {key.replace('_', ' ')}: {report[key]}"
    verdict = "all reflection identities verified" if passed else "a reflection identity failed"
    return f"{label}: {report['simple_system_count']} simple systems, {verdict}"


def _run(cfg: ExperimentConfig, args) -> int:
    """Runs ``cfg`` with the ``--seed`` and ``--samples`` overrides and prints
    the bundle, or in text format the summary lines after any preset header."""
    for key in ("seed", "samples"):
        if getattr(args, key) is not None:
            setattr(cfg, key, getattr(args, key))
    code, bundle, lines = run_experiment(cfg, out_dir=args.out)
    if args.format == "structured":
        print(json.dumps(bundle, sort_keys=True, indent=1))
        return code
    if args.command == "reflect":
        print(_reflect_line(args.type, bundle["reflect"]["passed"], bundle["reflect"]["report"]))
    if args.command == "kw" and "table" in bundle["kw"]["report"]:
        print(bundle["kw"]["report"]["table"])
    for line in lines:
        print(line)
    return code


def cmd_run(args) -> int:
    try:
        with open(args.config, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config: {exc}")
    return _run(parse_config(text), args)


def cmd_list(args) -> int:
    print(f"{'type':<10} {'primes':<34} scope")
    for label, rule, scope in CATALOG:
        scope_text = ("structure constants + module pipeline"
                      if scope == "full" else "root combinatorics only")
        print(f"{label:<10} {rule:<34} {scope_text}")
    return 0


def _reflect_roots(args) -> int:
    """``reflect`` without ``--p``: the simple-system closure of the root system."""
    if any(getattr(args, key) is not None for key in ("out", "seed", "samples")):
        raise UsageError("--out, --seed and --samples need --p: reflect without it writes no report")
    try:
        _, rs_label = _normalize_label(args.type)
    except ValueError:
        rs_label = args.type  # pure root-system types (B/C/D/F/G labels)
    try:
        rs = build_root_system(rs_label)
    except ValueError as exc:
        raise UsageError(str(exc))
    try:
        code, report = 0, {"simple_system_count": len(rs.all_simple_systems())}
    except InvariantViolation as exc:
        code, report = 1, {"invariant_violation": str(exc)}
    except RuntimeError as exc:  # the MAX_SIMPLE_SYSTEMS cap
        code, report = 1, {"out_of_scope": str(exc)}
    if args.format == "structured":
        print(json.dumps(report, sort_keys=True, indent=1))
    else:
        print(_reflect_line(args.type, code == 0, report))
    return code


def cmd_preset(args) -> int:
    _, checks, chis, _ = PRESETS[args.command]
    if args.p is None:  # only reflect leaves --p optional
        return _reflect_roots(args)
    cfg = ExperimentConfig(algebra=args.type, p=args.p, checks=list(checks),
                           chi_specs=[args.chi] if getattr(args, "chi", None) else list(chis))
    return _run(cfg, args)


def _add_common(sp):
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--samples", type=int, default=None)
    sp.add_argument("--out", default=None, metavar="DIR")
    sp.add_argument("--format", choices=("text", "structured"), default="text")


def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="superlie",
        description="verification pipelines for restricted Lie superalgebras",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("run", help="execute a config file")
    sp.add_argument("config")
    _add_common(sp)
    sp.set_defaults(func=cmd_run)

    sp = sub.add_parser("list", help="print the supported-type catalog")
    sp.set_defaults(func=cmd_list)

    for name, (help_text, _, _, chi_flag) in PRESETS.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--type", required=True)
        # reflect without --p checks the root system alone
        sp.add_argument("--p", type=int, required=name != "reflect")
        if chi_flag is not None:
            sp.add_argument(chi_flag, dest="chi", default=None, metavar=chi_flag[2:].upper())
        _add_common(sp)
        sp.set_defaults(func=cmd_preset)
    return ap


def main(argv=None) -> int:
    ap = make_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
