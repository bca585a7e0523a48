"""Correctness gate for one ``superlie run`` process.

A check of a process counts as failed when any of these holds:

- the process exited with a code other than 0, or the check's report file
  is missing or unreadable, or its ``passed`` flag is not true;
- a KW report has ``skipped`` set (``superlie run`` counts a skipped KW
  report as a pass, so the gate must catch it);
- a verdict field differs from the reference stored in ``reference.json``:
  lambda counts, irreducible counts, ``all_agree``, KW ``simple_dims`` and
  ``divisor``, ``largest_ideal_codim`` with the closure codimensions, and
  the theta and associativity counts, which must equal ``samples``;
- a report file differs, byte for byte, from the same file written by the
  first process of the run that had the same config, and so the same seed.
"""

from __future__ import annotations

import json
import os

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def mismatches(ref, got, path: str = "") -> list[str]:
    """Paths where ``got`` differs from ``ref``.

    Dicts match on the keys of ``ref`` only; lists must have the same length
    and match element by element; anything else must be equal.
    """
    if isinstance(ref, dict):
        if not isinstance(got, dict):
            return [path or "/"]
        out = []
        for key, val in ref.items():
            if key not in got:
                out.append(f"{path}/{key} missing")
            else:
                out.extend(mismatches(val, got[key], f"{path}/{key}"))
        return out
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return [f"{path} length"]
        out = []
        for i, (r, g) in enumerate(zip(ref, got)):
            out.extend(mismatches(r, g, f"{path}/{i}"))
        return out
    return [] if ref == got and type(ref) is type(got) else [f"{path}: {got!r} != {ref!r}"]


def report_files(out_dir: str) -> dict[str, bytes]:
    files = {}
    if os.path.isdir(out_dir):
        for name in sorted(os.listdir(out_dir)):
            with open(os.path.join(out_dir, name), "rb") as fh:
                files[name] = fh.read()
    return files


def check_process(reference: dict, exit_code: int, files: dict[str, bytes],
                  first_files: dict[str, bytes] | None = None) -> dict[str, list[str]]:
    """Problems per check (an empty list is a pass) for one process."""
    problems: dict[str, list[str]] = {}
    for check, ref in reference.items():
        found = problems.setdefault(check, [])
        if exit_code != 0:
            found.append(f"exit code {exit_code}")
        raw = files.get(f"{check}.json")
        if raw is None:
            found.append("report missing")
            continue
        try:
            report = json.loads(raw)
        except ValueError:
            found.append("report is not JSON")
            continue
        if report.get("passed") is not True:
            found.append("check did not pass")
        if check == "kw":
            for i, rep in enumerate(report.get("report", {}).get("reports", [])):
                if rep.get("skipped") is not None:
                    found.append(f"kw report {i} skipped: {rep['skipped']}")
        found.extend(mismatches(ref, report))
        if first_files is not None:
            for name in (f"{check}.json", f"{check}.jsonl"):
                if files.get(name) != first_files.get(name):
                    found.append(f"{name} differs from the first process on its config")
    return problems
