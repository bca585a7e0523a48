"""Batch command-line front-end for the verification pipelines.

Subcommands
-----------
run <config>   execute the checks named in a flat key=value config file
list           print the catalog of supported types, primes, and checks
verma          irreducibility sweep for one algebra and character
reflect        simple-system reflection suite (root level and module level)
kw             dimension-divisibility sweep over the standard characters
sym            invariant-ideal survey of the reduced symmetric algebra

Config files are flat ``key = value`` lines (``#`` comments allowed); the
``chi`` key may repeat.  Character descriptors: ``zero``,
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
    reduced_enveloping,
    reduced_symmetric,
    theta_map,
)
from .gf import field_create, is_prime
from .invariants import (
    CoinducedAlgebra,
    check_coassociativity,
    ideal_survey,
)
from .kwverify import summary_table, verify_superkw_sweep, write_jsonl
from .liesuper import LieSuperalgebra, PCharacter, _normalize_label, build_algebra
from .rootsys import InvariantViolation, build_root_system
from .verma import (
    ExtensionCapExceeded,
    VermaSystem,
    agreement_sweep,
    lambda_set,
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
    k_max: int = 8
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
        if key == "chi":
            chi_specs.append(val)
        else:
            values[key] = val
    if "algebra" not in values or "p" not in values:
        raise UsageError("config needs at least 'algebra' and 'p'")
    ints = {}
    for key in [k for k in ("p", "k_max", "samples", "seed") if k in values]:
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
    unknown = set(cfg.checks) - set(CHECK_ORDER)
    if unknown:
        raise UsageError(f"unknown checks: {sorted(unknown)}")
    return cfg


def build_for(cfg_algebra: str, p: int) -> LieSuperalgebra:
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
# the individual checks; each returns (passed, report-dict)


def check_verma(g, chis, cfg):
    per_chi = []
    ok = True
    for spec, chi in chis:
        sweep = agreement_sweep(g, chi, k_max=cfg.k_max)
        expected = g.p ** g.rank
        entry = {
            "chi": spec,
            "chi_cartan": list(chi.cartan_values()),
            "k": sweep["k"],
            "lambda_count": sweep["lambda_count"],
            "lambda_count_expected": expected,
            "all_agree": sweep["all_agree"],
            "irreducible_count": sum(
                v["irreducible_oracle"] for v in sweep["verdicts"]),
            "discrepancies": sweep["discrepancies"],
        }
        ok = ok and sweep["all_agree"] and sweep["lambda_count"] == expected
        per_chi.append(entry)
    return ok, {"characters": per_chi}


def check_phi(g, chis, cfg):
    per_chi = []
    ok = True
    for spec, chi in chis:
        rep = proportionality_report(VermaSystem(g, chi),
                                     lambda_set(g, chi, cfg.k_max))
        rep = dict(rep, chi=spec)
        good = rep["single_constant"] and rep["vanishing_match"] and (
            rep["constant"] is None or rep["constant"] != 0)
        rep["passed"] = good
        ok = ok and good
        per_chi.append(rep)
    return ok, {"characters": per_chi}


def check_reflect(g, chis, cfg):
    report = {"simple_system_count": len(g.rs.all_simple_systems()), "characters": []}
    ok = True
    for spec, chi in chis:
        if not chi.is_standard_form():
            report["characters"].append({"chi": spec, "skipped": "nonstandard chi"})
            continue
        for delta in g.distinguished.simple_roots:
            rep = reflection_report(g, chi, delta, k_max=cfg.k_max)
            rep = dict(rep, chi=spec)
            good = (rep["singular_vectors_ok"]
                    and rep["module_shift_single_constant"]
                    and rep["module_shift_vanishing_match"]
                    and rep["product_single_constant"])
            rep["passed"] = good
            ok = ok and good
            report["characters"].append(rep)
    return ok, report


def check_sym(g, chis, cfg):
    rng = _rng(cfg, "sym")
    per_chi = []
    ok = True
    for spec, chi in chis:
        cent = g.centralizer(chi)
        divisor = g.p ** cent.d0 * 2 ** cent.d1
        S = reduced_symmetric(g, chi)
        rep = ideal_survey(S, divisor, (cent.d0, cent.d1),
                           seeds=cfg.samples, rng=rng)
        rep = dict(rep, chi=spec)
        good = (rep["largest_ideal_codim"] == divisor
                and rep["all_closures_divisible"])
        rep["passed"] = good
        ok = ok and good
        per_chi.append(rep)
    return ok, {"characters": per_chi}


def check_coinduced(g, chis, cfg):
    borel = list(g.cartan) + [
        i for i, r in enumerate(g.basis_roots)
        if r is not None and g.distinguished.is_positive(r)
    ]
    C = CoinducedAlgebra(g, borel)
    U = reduced_enveloping(g)
    monomials = U.basis_monomials()
    rep = {
        "subalgebra": "borel",
        "dim": C.dimension(),
        "duality": C.duality_check(),
        "g_simple": C.is_g_simple(),
        "coassociative_monomials": len(monomials),
        "coassociative": check_coassociativity(U, monomials),
    }
    ok = rep["duality"] and rep["g_simple"] and rep["coassociative"]
    return ok, rep


def check_family(g, chis, cfg):
    rng = _rng(cfg, "family")
    F = g.F
    chi = chis[0][1]
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


def check_kw(g, chis, cfg, out_dir=None):
    reports = verify_superkw_sweep(g, [chi for _, chi in chis], k_max=cfg.k_max)
    if out_dir is not None:
        write_jsonl(reports, os.path.join(out_dir, "kw.jsonl"))
    ok = all(rep.skipped is not None or (rep.all_divisible and rep.accounting_ok)
             for rep in reports)
    return ok, {
        "reports": [rep.to_dict() for rep in reports],
        "table": summary_table(reports),
    }


def check_semisimple(g, chis, cfg):
    per_chi = []
    ok = True
    for spec, chi in chis:
        if not chi.is_standard_form():
            per_chi.append({"chi": spec, "skipped": "nonstandard chi"})
            continue
        rep = dict(semisimplicity_check(g, chi, k_max=cfg.k_max), chi=spec)
        ok = ok and rep["verdict_matches"]
        per_chi.append(rep)
    return ok, {"characters": per_chi}


def run_experiment(cfg: ExperimentConfig, out_dir=None):
    """Run the configured checks; returns (exit_code, bundle, summary_lines)."""
    if cfg.samples < 1 or cfg.k_max < 1:
        raise UsageError(f"samples and k_max must be at least 1, got {cfg.samples}, {cfg.k_max}")
    g = build_for(cfg.algebra, cfg.p)
    dense = [name for name in ("sym", "coinduced") if name in cfg.checks]
    pbw_dim = g.p ** g.dim_even * 2 ** g.dim_odd
    if dense and pbw_dim > _MATRIX_DIM_CAP:
        raise UsageError(f"{', '.join(dense)} needs a dense PBW basis of dimension {pbw_dim}, "
                         f"above the dense-basis cap {_MATRIX_DIM_CAP}")
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
    chis = [(spec, resolve_chi(g, spec)) for spec in cfg.chi_specs]
    bundle = {"config": {
        "algebra": cfg.algebra, "p": cfg.p, "k_max": cfg.k_max,
        "chi": list(cfg.chi_specs), "checks": list(cfg.checks),
        "samples": cfg.samples, "seed": cfg.seed,
    }}
    lines = []
    all_ok = True
    runners = {
        "verma": check_verma,
        "phi": check_phi,
        "reflect": check_reflect,
        "sym": check_sym,
        "coinduced": check_coinduced,
        "family": check_family,
        "kw": lambda g_, c_, f_: check_kw(g_, c_, f_, out_dir),
        "semisimple": check_semisimple,
    }
    for name in CHECK_ORDER:
        if name not in cfg.checks:
            continue
        try:
            ok, rep = runners[name](g, chis, cfg)
        except InvariantViolation as exc:
            ok, rep = False, {"invariant_violation": str(exc)}
        except ExtensionCapExceeded as exc:
            raise UsageError(str(exc))
        bundle[name] = {"passed": ok, "report": rep}
        lines.append(f"{name:<12} {'PASS' if ok else 'FAIL'}")
        if "invariant_violation" in rep:
            lines.append(f"  invariant violation: {rep['invariant_violation']}")
        all_ok = all_ok and ok
    if out_dir is not None:
        for name in cfg.checks:
            path = os.path.join(out_dir, f"{name}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(bundle[name], fh, sort_keys=True, indent=1)
                fh.write("\n")
    return (0 if all_ok else 1), bundle, lines


def _emit(bundle, lines, fmt):
    if fmt == "structured":
        print(json.dumps(bundle, sort_keys=True, indent=1))
    else:
        for line in lines:
            print(line)


# ---------------------------------------------------------------------------
# subcommand entry points


def _with_flags(cfg: ExperimentConfig, args) -> ExperimentConfig:
    """``--seed``, ``--k-max`` and ``--samples`` override the config."""
    for key in ("seed", "k_max", "samples"):
        if getattr(args, key, None) is not None:
            setattr(cfg, key, getattr(args, key))
    return cfg


def cmd_run(args) -> int:
    try:
        with open(args.config, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config: {exc}")
    cfg = _with_flags(parse_config(text), args)
    code, bundle, lines = run_experiment(cfg, out_dir=args.out)
    _emit(bundle, lines, args.format)
    return code


def cmd_list(args) -> int:
    print(f"{'type':<10} {'primes':<34} scope")
    for label, rule, scope in CATALOG:
        scope_text = ("structure constants + module pipeline"
                      if scope == "full" else "root combinatorics only")
        print(f"{label:<10} {rule:<34} {scope_text}")
    return 0


def _single_chi_config(args, checks) -> ExperimentConfig:
    cfg = ExperimentConfig(algebra=args.type, p=args.p, checks=list(checks))
    cfg.chi_specs = [args.chi] if getattr(args, "chi", None) else ["zero"]
    return _with_flags(cfg, args)


def cmd_verma(args) -> int:
    if args.lam != "all":
        raise UsageError("only '--lambda all' is supported")
    cfg = _single_chi_config(args, ["verma", "phi"])
    code, bundle, lines = run_experiment(cfg, out_dir=args.out)
    _emit(bundle, lines, args.format)
    return code


def cmd_reflect(args) -> int:
    if args.p is not None:
        # the module-level suite first, so that a bad type or p fails before any
        # output; its report holds the simple-system count
        cfg = _single_chi_config(args, ["reflect"])
        cfg.chi_specs = ["zero", "regular_semisimple"]
        code, bundle, lines = run_experiment(cfg, out_dir=args.out)
        report = bundle["reflect"]["report"]
    else:
        try:
            _, rs_label = _normalize_label(args.type)
        except ValueError:
            rs_label = args.type  # pure root-system types (B/C/D/F/G labels)
        try:
            rs = build_root_system(rs_label)
        except ValueError as exc:
            raise UsageError(str(exc))
        code, bundle = 0, None
        try:
            report = {"simple_system_count": len(rs.all_simple_systems())}
        except InvariantViolation as exc:
            code, report = 1, {"invariant_violation": str(exc)}
    if "invariant_violation" in report:
        print(f"{args.type}: invariant violation: {report['invariant_violation']}")
    else:
        print(f"{args.type}: {report['simple_system_count']} simple systems, "
              f"all reflection identities verified")
    if bundle is not None:
        _emit(bundle, lines, args.format)
    return code


def cmd_kw(args) -> int:
    cfg = _single_chi_config(args, ["kw"])
    if not getattr(args, "chi", None):
        cfg.chi_specs = ["zero", "regular_semisimple", "nonregular"]
    code, bundle, lines = run_experiment(cfg, out_dir=args.out)
    if args.format == "text" and "table" in bundle["kw"]["report"]:
        print(bundle["kw"]["report"]["table"])
    _emit(bundle, lines, args.format)
    return code


def cmd_sym(args) -> int:
    cfg = _single_chi_config(args, ["sym"])
    if args.xi:
        cfg.chi_specs = [args.xi]
    code, bundle, lines = run_experiment(cfg, out_dir=args.out)
    _emit(bundle, lines, args.format)
    return code


def _add_common(sp):
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--k-max", type=int, default=None, dest="k_max")
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

    sp = sub.add_parser("verma", help="irreducibility sweep for one character")
    sp.add_argument("--type", required=True)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--chi", default="zero")
    sp.add_argument("--lambda", dest="lam", default="all")
    _add_common(sp)
    sp.set_defaults(func=cmd_verma)

    sp = sub.add_parser("reflect", help="simple-system reflection suite")
    sp.add_argument("--type", required=True)
    sp.add_argument("--p", type=int, default=None)
    _add_common(sp)
    sp.set_defaults(func=cmd_reflect)

    sp = sub.add_parser("kw", help="dimension-divisibility sweep")
    sp.add_argument("--type", required=True)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--chi", default=None)
    _add_common(sp)
    sp.set_defaults(func=cmd_kw)

    sp = sub.add_parser("sym", help="invariant-ideal survey for S_xi")
    sp.add_argument("--type", required=True)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--xi", default=None)
    _add_common(sp)
    sp.set_defaults(func=cmd_sym)
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
