"""Span tracing of one superlie process, installed from outside the package.

The tracer replaces public functions and methods of the ``superlie`` modules
with timing wrappers.  A module-level function is replaced on its defining
module and on every ``superlie`` module that imported it by name (``cli``
imports ``agreement_sweep`` directly, while ``verma`` calls
``la.closure_under_operators`` through the module), so every call path is
seen.  Nothing under ``src/`` is edited.

Spans are kept in memory as ``[name, start, end, parent, run, leaf_s]``
lists, appended when they open, so a parent always precedes its children.
``parent`` is the index of the enclosing span (-1 at the top) and ``run`` is
the run id shared by every span of the process.  The element-wise field
operations (``Field.add_arr`` and friends) are called about a million times
per run, too often to keep one span each: they are aggregated into counters,
and their time is added to ``leaf_s`` of the enclosing span, so self times
stay exact.  The whole trace is written as one JSON file at the end.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter

# Element-wise field ops on fields of at most this order use the q x q
# addition and multiplication tables; larger fields take the digit-encode
# path.  This is the seed's cut-off (gf._SMALL_TABLE_MAX), fixed here so the
# table/digit split means the same thing on every commit.
TABLE_MAX_Q = 512

ARR_METHODS = ("add_arr", "sub_arr", "mul_arr", "smul_arr")

# Checks of ``superlie run`` whose time the per-layer breakdown reports.
REPORTED_CHECKS = ("verma", "phi", "kw", "sym", "family")


class Tracer:
    """In-memory span recorder for one process (single-threaded).

    ``clock`` reads the span times: ``time.perf_counter`` for a traced run,
    ``time.process_time`` for a timed run, whose stage times then leave out
    the time the process waited for a CPU.
    """

    def __init__(self, run_id: str, clock=time.perf_counter):
        self.run_id = run_id
        self.clock = clock
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._in_arr = False

    def open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        rec = [name, self.clock(), 0.0, parent, self.run_id, 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def close(self, rec: list) -> None:
        rec[2] = self.clock()
        self._stack.pop()

    def parent_name(self):
        return self.spans[self._stack[-1]][0] if self._stack else None

    def wrap(self, name, fn, before=None, after=None):
        """Span around ``fn``; ``before(args)`` runs first, ``after(result,
        args, pre)`` after it returns, to update counters."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            pre = before(args) if before is not None else None
            rec = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(rec)
            if after is not None:
                after(result, args, pre)
            return result

        return traced

    def wrap_arr(self, fn):
        """Aggregating wrapper for an element-wise field op.

        Only the outermost op is counted (``sub_arr`` calls ``add_arr``).
        """
        tracer = self
        clock = self.clock
        counters = self.counters

        @functools.wraps(fn)
        def traced(field, *args):
            if tracer._in_arr:
                return fn(field, *args)
            tracer._in_arr = True
            t0 = clock()
            try:
                out = fn(field, *args)
            finally:
                tracer._in_arr = False
            dt = clock() - t0
            if tracer._stack:
                tracer.spans[tracer._stack[-1]][5] += dt
            counters["gf.arr.calls"] += 1
            counters["gf.arr.self_s"] += dt
            if field.q <= TABLE_MAX_Q:
                counters["gf.arr.elems_table"] += out.size
            else:
                counters["gf.arr.elems_digit"] += out.size
            return out

        return traced

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "run": self.run_id,
                "fields": ["name", "start", "end", "parent", "run", "leaf_s"],
                "spans": self.spans,
                "counters": dict(self.counters),
            }, fh)


def replace_function(owner, name: str, wrapper) -> int:
    """Put ``wrapper`` in place of ``owner.name`` on every superlie module
    that holds the same function object; returns how many names it replaced."""
    orig = getattr(owner, name)
    replaced = 0
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "superlie" or mod_name.startswith("superlie.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, wrapper)
                replaced += 1
    if not replaced:
        raise RuntimeError(f"{owner.__name__}.{name} is not bound in any superlie module")
    return replaced


def _wrap_function(tracer, owner, name, span, before=None, after=None):
    replace_function(owner, name, tracer.wrap(span, getattr(owner, name), before, after))


def _wrap_method(tracer, cls, name, span, before=None, after=None):
    setattr(cls, name, tracer.wrap(span, cls.__dict__[name], before, after))


def install_cli(tracer: Tracer, cli) -> None:
    """Stage spans of ``superlie run``: set-up calls, each check, the run.

    These few spans also time the untraced runs.
    """
    _wrap_function(tracer, cli, "build_for", "cli.build_for")
    _wrap_function(tracer, cli, "resolve_chi", "cli.resolve_chi")
    _wrap_function(tracer, cli, "run_experiment", "cli.run_experiment")
    for check in cli.CHECK_ORDER:
        _wrap_function(tracer, cli, f"check_{check}", f"cli.check.{check}")


def install_layers(tracer: Tracer) -> None:
    """Spans and counters at the public functions of every layer."""
    from superlie import envelope, gf, invariants, kwverify, liesuper, linalg, verma

    c = tracer.counters

    def field_built(result, args, cache_size):
        c["gf.field_create.built"] += len(gf._FIELD_CACHE) - cache_size

    _wrap_function(tracer, gf, "field_create", "gf.field_create",
                   before=lambda args: len(gf._FIELD_CACHE), after=field_built)
    for name in ARR_METHODS:
        setattr(gf.Field, name, tracer.wrap_arr(gf.Field.__dict__[name]))

    def matmul_macs(result, args, pre):
        (n, m), r = args[1].shape, args[2].shape[1]
        c["linalg.matmul.macs"] += n * m * r

    def rref_cells(result, args, pre):
        shape = getattr(args[1], "shape", None)
        c["linalg.rref.cells"] += shape[0] * shape[1] if shape and len(shape) == 2 else 0

    def row_test(result, args, pre):
        if tracer.parent_name() == "linalg.closure":
            c["linalg.closure.row_tests"] += 1
            c["linalg.closure.rows_added"] += not result

    def closure_dim(result, args, pre):
        c["linalg.closure.dim_out"] += result.shape[0]

    def commutant_size(result, args, pre):
        even_ops, odd_ops, parity_op = args[1], args[2], args[3]
        n2 = parity_op.shape[0] ** 2
        c["linalg.commutant.unknowns"] += n2
        c["linalg.commutant.rows"] += n2 * (len(even_ops) + len(odd_ops) + 1)

    _wrap_function(tracer, linalg, "matmul", "linalg.matmul", after=matmul_macs)
    _wrap_function(tracer, linalg, "rref", "linalg.rref", after=rref_cells)
    _wrap_function(tracer, linalg, "in_row_space", "linalg.in_row_space", after=row_test)
    _wrap_function(tracer, linalg, "closure_under_operators", "linalg.closure",
                   after=closure_dim)
    _wrap_function(tracer, linalg, "largest_stable_subspace", "linalg.stable")
    _wrap_function(tracer, linalg, "supercommutant_basis", "linalg.commutant",
                   after=commutant_size)

    def terms_out(result, args, pre):
        c["envelope.multiply.terms_out"] += len(result)

    _wrap_method(tracer, envelope.DeformedAlgebra, "__init__", "envelope.build")
    _wrap_method(tracer, envelope.DeformedAlgebra, "multiply", "envelope.multiply",
                 after=terms_out)
    _wrap_method(tracer, envelope.ThetaMap, "verify", "envelope.theta_verify")

    def lambda_fields(result, args, pre):
        # lambda_set tries k = 1, 2, ... and returns at the first k that works
        c["verma.lambda_set.fields_tried"] += result.k
        c["verma.lambda_set.k_final"] = max(c["verma.lambda_set.k_final"], result.k)

    def template_hit(args):
        system, gen_idx, mono = args
        return (gen_idx, mono) in system._templates

    def template_count(result, args, hit):
        c["verma.template.hits" if hit else "verma.template.distinct"] += 1

    _wrap_function(tracer, verma, "lambda_set", "verma.lambda_set", after=lambda_fields)
    _wrap_method(tracer, verma.VermaSystem, "template", "verma.template",
                 before=template_hit, after=template_count)
    _wrap_method(tracer, verma.BabyVerma, "action_matrix", "verma.action_matrix")
    _wrap_method(tracer, verma.BabyVerma, "is_irreducible_oracle", "verma.oracle")
    _wrap_method(tracer, verma.BabyVerma, "phi_via_module", "verma.phi_module")
    _wrap_method(tracer, verma.BabyVerma, "quotient_representation", "verma.quotient")

    _wrap_function(tracer, kwverify, "walls_type", "kwverify.walls_type")
    _wrap_method(tracer, kwverify.KWReport, "add_head", "kwverify.heads")

    def distinct_codims(result, args, pre):
        c["invariants.distinct_codims"] += len({cl["codim"] for cl in result["closures"]})

    _wrap_function(tracer, invariants, "operator_model_from_symmetric", "invariants.model")
    _wrap_function(tracer, invariants, "largest_proper_invariant_ideal",
                   "invariants.largest_ideal")
    _wrap_function(tracer, invariants, "invariant_ideal_closure", "invariants.closure")
    _wrap_function(tracer, invariants, "ideal_survey", "invariants.survey",
                   after=distinct_codims)

    _wrap_function(tracer, liesuper, "build_algebra", "liesuper.build_algebra")


def span_stats(spans) -> dict:
    """Per span name: [calls, total_s, self_s].

    A span's self time is its duration minus the time its child spans and
    its aggregated leaf calls cover.  ``total_s`` counts only spans with no
    enclosing span of the same name, so recursion is not counted twice.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _run, _leaf in spans:
        if parent >= 0:
            child[parent] += end - start
    stats: dict[str, list] = {}
    for i, (name, start, end, parent, _run, leaf) in enumerate(spans):
        dur = end - start
        st = stats.setdefault(name, [0, 0.0, 0.0])
        st[0] += 1
        st[2] += dur - child[i] - leaf
        anc = parent
        while anc >= 0 and spans[anc][0] != name:
            anc = spans[anc][3]
        if anc < 0:
            st[1] += dur
    return stats


def layer_self_times(trace: dict) -> dict:
    """Self time per layer (the span-name prefix up to the first dot)."""
    out: dict[str, float] = {}
    for name, st in span_stats(trace["spans"]).items():
        layer = name.split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + st[2]
    out["gf"] = out.get("gf", 0.0) + trace["counters"].get("gf.arr.self_s", 0.0)
    return out


def stage_times(spans) -> dict:
    """End-to-end stages of one ``superlie run`` from the cli spans."""
    stats = span_stats(spans)

    def total(name):
        return stats.get(name, [0, 0.0, 0.0])[1]

    checks = {name[len("cli.check."):]: st[1] for name, st in stats.items()
              if name.startswith("cli.check.")}
    run_end = max((s[2] for s in spans if s[0] == "cli.run_experiment"), default=0.0)
    checks_end = max((s[2] for s in spans if s[0].startswith("cli.check.")),
                     default=run_end)
    return {
        "setup_s": total("cli.import") + total("cli.build_for") + total("cli.resolve_chi"),
        "check_s": sum(checks.values()),
        "checks": checks,
        "report_write_s": run_end - checks_end,
    }


def unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    return "ratio" if metric.endswith("_ratio") else "count"


def layer_metrics(trace: dict) -> dict:
    """The per-layer metrics of one traced run, all present, 0 when untouched."""
    stats = span_stats(trace["spans"])
    c = Counter(trace["counters"])

    def calls(name):
        return stats.get(name, [0, 0.0, 0.0])[0]

    def total(name):
        return stats.get(name, [0, 0.0, 0.0])[1]

    def self_s(name):
        return stats.get(name, [0, 0.0, 0.0])[2]

    def ratio(num, den):
        return num / den if den else 0.0

    template_calls = calls("verma.template")
    stages = stage_times(trace["spans"])
    m = {
        "gf.field_create.calls": calls("gf.field_create"),
        "gf.field_create.built": c["gf.field_create.built"],
        "gf.field_create.total_s": total("gf.field_create"),
        "gf.arr.calls": c["gf.arr.calls"],
        "gf.arr.self_s": c["gf.arr.self_s"],
        "gf.arr.elems_table": c["gf.arr.elems_table"],
        "gf.arr.elems_digit": c["gf.arr.elems_digit"],
        "linalg.matmul.calls": calls("linalg.matmul"),
        "linalg.matmul.self_s": self_s("linalg.matmul"),
        "linalg.matmul.macs": c["linalg.matmul.macs"],
        "linalg.rref.calls": calls("linalg.rref"),
        "linalg.rref.self_s": self_s("linalg.rref"),
        "linalg.rref.cells": c["linalg.rref.cells"],
        "linalg.in_row_space.calls": calls("linalg.in_row_space"),
        "linalg.in_row_space.self_s": self_s("linalg.in_row_space"),
        "linalg.closure.calls": calls("linalg.closure"),
        "linalg.closure.total_s": total("linalg.closure"),
        "linalg.closure.self_s": self_s("linalg.closure"),
        "linalg.closure.dim_out": c["linalg.closure.dim_out"],
        "linalg.closure.useful_ratio": ratio(c["linalg.closure.rows_added"],
                                             c["linalg.closure.row_tests"]),
        "linalg.stable.calls": calls("linalg.stable"),
        "linalg.stable.total_s": total("linalg.stable"),
        "linalg.commutant.calls": calls("linalg.commutant"),
        "linalg.commutant.total_s": total("linalg.commutant"),
        "linalg.commutant.unknowns": c["linalg.commutant.unknowns"],
        "linalg.commutant.rows": c["linalg.commutant.rows"],
        "envelope.multiply.calls": calls("envelope.multiply"),
        "envelope.multiply.self_s": self_s("envelope.multiply"),
        "envelope.multiply.terms_out": c["envelope.multiply.terms_out"],
        "envelope.build.total_s": total("envelope.build"),
        "envelope.theta_verify.total_s": total("envelope.theta_verify"),
        "verma.lambda_set.calls": calls("verma.lambda_set"),
        "verma.lambda_set.total_s": total("verma.lambda_set"),
        "verma.lambda_set.fields_tried": c["verma.lambda_set.fields_tried"],
        "verma.lambda_set.k_final": c["verma.lambda_set.k_final"],
        "verma.template.calls": template_calls,
        "verma.template.distinct": c["verma.template.distinct"],
        "verma.template.hit_ratio": ratio(c["verma.template.hits"], template_calls),
        "verma.action_matrix.calls": calls("verma.action_matrix"),
        "verma.action_matrix.total_s": total("verma.action_matrix"),
        "verma.oracle.calls": calls("verma.oracle"),
        "verma.oracle.total_s": total("verma.oracle"),
        "verma.phi_module.total_s": total("verma.phi_module"),
        "verma.quotient.calls": calls("verma.quotient"),
        "verma.quotient.total_s": total("verma.quotient"),
        "kwverify.walls_type.calls": calls("kwverify.walls_type"),
        "kwverify.walls_type.total_s": total("kwverify.walls_type"),
        "kwverify.heads": calls("kwverify.heads"),
        "invariants.model.total_s": total("invariants.model"),
        "invariants.largest_ideal.total_s": total("invariants.largest_ideal"),
        "invariants.closure.calls": calls("invariants.closure"),
        "invariants.closure.total_s": total("invariants.closure"),
        "invariants.distinct_codims": c["invariants.distinct_codims"],
        "liesuper.build_algebra.total_s": total("liesuper.build_algebra"),
    }
    for check in REPORTED_CHECKS:
        m[f"cli.check.{check}.total_s"] = stages["checks"].get(check, 0.0)
    m["cli.report_write_s"] = stages["report_write_s"]
    return m
