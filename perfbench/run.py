"""superlie benchmark: timed ``superlie run`` processes on four fixed configs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; the package is imported from ``src/``.

Each timed run is one fresh single-threaded process (``OMP_NUM_THREADS=1``,
``OPENBLAS_NUM_THREADS=1``) through ``superlie.cli.main(["run", CONFIG,
"--out", DIR])``.  Fresh processes matter: the field cache, the Verma
template memos and the straightening memos live in the process, so every
user invocation pays for them.  Processes run one at a time.

``--trace 0`` repeats the workload's process for about ``--seconds`` seconds
(at least twice), each time with the next of SEEDS_PER_RUN program seeds
derived from ``--seed``, with ten set-up-only processes spread over the run,
and reports

- ``run_cpu_norm_s``: the mean CPU time of a process, from its start until
  its report files are written;
- ``setup_s``: the median CPU time of importing ``superlie.cli`` plus
  ``build_for`` and ``resolve_chi``, over every process of the run;
- ``check_cpu_norm_s``: the mean CPU time a process spends in the checks;
- ``peak_rss_mb``: the median peak resident memory of a process.

They are CPU times, not wall-clock times, because other processes on the
host take the CPU from the run at times: a process is single-threaded and
waits on nothing else, so on a quiet machine the two are the same.  The
three times are scaled to a nominal CPU speed: each is divided by how much
slower than nominal child.py's speed probe ran during the run's processes
(see ``PROBE_NOMINAL_S``).  The wall-clock times are in the line before the
result.

``--trace 1`` runs the workload untraced, then with the per-layer spans of
``tracing.py``, then untraced again, and reports the per-layer metrics and
``trace.overhead_s`` (traced minus the mean untraced CPU time of a process).

Every process passes through the correctness gate of ``gate.py``;
``failed / attempted`` counts checks, and is the run's failure fraction.
The line before the result holds the unscaled medians with the highest
percentile that has ten samples beyond it (when a run has that many), the
probe's times and the slowdown, the sample counts, the traced run's check
of the workload's predicted dominant span, and the environment.  The last
line is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import gate
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
WORK = os.path.join(ROOT, ".perfbench_work")

THREAD_VARS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}
MIN_PROCESSES = 2
# A run's processes take the program seeds SEEDS_PER_RUN * seed + k for
# k = 0, 1, ... in turn.  The cost of deformation_family depends on the
# program seed (some seeds take a quarter longer, however many samples), so
# a run averages over several.
SEEDS_PER_RUN = 4
SETUP_PROBES = 10
# every run must end well inside the 180 s a run may take
BUDGET_S = 165.0
# The host changes how fast this machine's CPUs run, by up to a half, for
# seconds to minutes at a time.  The run times are divided by the run's
# slowdown: the mean CPU time of child.py's speed probe over every process
# of the run, over PROBE_NOMINAL_S, about what the probe took on a quiet
# Intel Xeon vCPU with Python 3.11.  Probe times above PROBE_OUTLIER times
# the run's median probe time were interrupted, by a page fault or an
# interrupt handler, and are left out: a slow speed state is never that
# much slower.
PROBE_NOMINAL_S = 3.0e-4
PROBE_OUTLIER = 4.0

# Each workload is one `superlie run` config; a program seed derived from
# the run's seed is appended as its `seed` key.  `predicted` is the span that should take at least half of the
# check time; the traced run reports whether it does.
WORKLOADS = {
    "verma_sweep": {
        "config": "algebra = gl(2|1)\np = 5\nchi = zero\nchi = regular_semisimple\n"
                  "chi = nonregular\nchecks = verma,phi\n",
        "predicted": "linalg.closure",
        "uses_seed": False,
    },
    "kw_heads": {
        "config": "algebra = gl(2|1)\np = 3\nchi = zero\nchi = regular_semisimple\n"
                  "chi = nonregular\nchecks = kw\n",
        "predicted": "linalg.commutant",
        "uses_seed": False,
    },
    "ideal_survey": {
        "config": "algebra = osp(1|2)\np = 3\nchi = explicit:1\nchecks = sym\nsamples = 10\n",
        "predicted": "linalg.closure",
        "uses_seed": True,
    },
    "deformation_family": {
        "config": "algebra = osp(2|2)\np = 5\nchi = regular_semisimple\nchecks = family\n"
                  "samples = 40\n",
        "predicted": "envelope.multiply",
        "uses_seed": True,
    },
}


def run_process(work: str, run_id: str, config: str, env: dict, deadline: float, *,
                trace: bool = False, setup_only: bool = False) -> dict:
    """Run child.py once; returns its timings, exit code and report files."""
    out = os.path.join(work, run_id)
    timings_path = out + ".timings.json"
    trace_path = out + ".trace.json"
    cmd = [sys.executable, CHILD, "--config", config, "--out", out,
           "--timings", timings_path, "--run-id", run_id]
    if trace:
        cmd += ["--trace", trace_path]
    if setup_only:
        cmd.append("--setup-only")
    spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=max(1.0, deadline - spawn))
    except subprocess.TimeoutExpired:
        print(f"{run_id}: timed out", file=sys.stderr)
        return {"exit_code": -1, "timed_out": True, "config": config, "files": {}}
    result = {"exit_code": proc.returncode, "timed_out": False, "config": config}
    if proc.returncode != 0:
        sys.stderr.write(f"{run_id}: exit code {proc.returncode}\n")
        sys.stderr.write(proc.stderr.decode(errors="replace")[-2000:])
    try:
        with open(timings_path, encoding="utf-8") as fh:
            result.update(json.load(fh))
        result["wall_s"] = result["done_monotonic"] - spawn
    except (OSError, ValueError, KeyError):
        pass
    result["files"] = gate.report_files(out)
    if trace and os.path.exists(trace_path):
        with open(trace_path, encoding="utf-8") as fh:
            result["trace"] = json.load(fh)
    return result


def tail(values: list[float]):
    """Highest percentile with at least ten samples above it, or None."""
    xs = sorted(values)
    i = len(xs) - 11
    if i < 0:
        return None
    return {"pct": 100.0 * i / (len(xs) - 1), "value": xs[i]}


def describe(values: list[float]) -> dict:
    return {"median": statistics.median(values), "tail": tail(values), "n": len(values),
            "samples": values}


def environment() -> dict:
    model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    try:
        # the ceiling keeps git from finding a repository above the checkout
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        res = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True, timeout=10)
        if res.returncode == 0:
            commit = res.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(os.path.join(SRC, "superlie")):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "threads": dict(THREAD_VARS),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def measure_timed(work, configs, env, deadline, seconds):
    """Full processes for about ``seconds`` (at least MIN_PROCESSES), taking
    the configs in turn, and set-up probes."""
    procs, setups = [], []
    config = configs[0]
    measure_start = time.monotonic()
    while True:
        cycle_start = time.monotonic()
        p = run_process(work, f"p{len(procs)}", configs[len(procs) % len(configs)], env,
                        deadline)
        procs.append(p)
        if p["timed_out"]:
            break
        # set-up probes are spread over the run, two after each process
        for _ in range(min(2, SETUP_PROBES - len(setups))):
            setups.append(run_process(work, f"setup{len(setups)}", config, env, deadline,
                                      setup_only=True))
        # once there are MIN_PROCESSES samples, start no process that would
        # end more than half a cycle after `seconds`, so runs average `seconds`
        now = time.monotonic()
        cycle = now - cycle_start
        if len(procs) >= MIN_PROCESSES and now - measure_start + cycle / 2 > seconds:
            break
        if now + 1.5 * cycle > deadline:
            break
    while len(setups) < SETUP_PROBES and time.monotonic() + 10.0 < deadline:
        setups.append(run_process(work, f"setup{len(setups)}", config, env, deadline,
                                  setup_only=True))
    return procs, setups


def gate_processes(reference, procs, setups):
    """(attempted, failed, problems): checks across every process of the run."""
    attempted = failed = 0
    problems = []
    first_files = {}
    for i, p in enumerate(procs):
        # a process's reports must match those of the first one run on its config
        first = first_files.setdefault(p["config"], p["files"])
        found = gate.check_process(reference, p["exit_code"], p["files"],
                                   None if first is p["files"] else first)
        for check, issues in found.items():
            attempted += 1
            if issues:
                failed += 1
                problems.append({"process": i, "check": check, "issues": issues[:5]})
        if "wall_s" not in p:
            problems.append({"process": i, "issues": ["no timings"]})
    for p in setups:
        if p["exit_code"] != 0 or "setup_s" not in p:
            problems.append({"setup_probe_exit_code": p["exit_code"]})
    return attempted, failed, problems


def timed_metrics(procs, setups, summary):
    """The run's metrics, with the times scaled to the nominal speed."""
    samples = {
        "wall_s": [p["wall_s"] for p in procs],
        "cpu_s": [p["cpu_s"] for p in procs],
        "setup_s": [p["setup_s"] for p in procs + setups if "setup_s" in p],
        "check_s": [p["check_s"] for p in procs],
        "peak_rss_mb": [p["peak_rss_mb"] for p in procs],
    }
    summary["stats"] = {name: describe(vals) for name, vals in samples.items()}
    probe = [t for p in procs + setups for t in p.get("probe_s", ())]
    cutoff = PROBE_OUTLIER * statistics.median(probe)
    kept = [t for t in probe if t <= cutoff]
    slowdown = statistics.mean(kept) / PROBE_NOMINAL_S
    summary["probe"] = {"n": len(probe), "dropped": len(probe) - len(kept),
                        "mean_s": statistics.mean(kept), "min_s": min(probe),
                        "slowdown": slowdown}
    return {
        "run_cpu_norm_s": {"value": statistics.mean(samples["cpu_s"]) / slowdown, "unit": "s"},
        "setup_s": {"value": statistics.median(samples["setup_s"]) / slowdown, "unit": "s"},
        "check_cpu_norm_s": {"value": statistics.mean(samples["check_s"]) / slowdown,
                             "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(samples["peak_rss_mb"]), "unit": "MB"},
    }


def traced_metrics(procs, traced, predicted, summary):
    trace = traced["trace"]
    metrics = {name: {"value": value, "unit": tracing.unit(name)}
               for name, value in tracing.layer_metrics(trace).items()}
    untraced_s = statistics.mean(p["cpu_s"] for p in procs if p is not traced)
    metrics["trace.overhead_s"] = {"value": traced["cpu_s"] - untraced_s, "unit": "s"}
    share = tracing.span_stats(trace["spans"]).get(predicted, [0, 0.0, 0.0])[1] \
        / traced["check_s"]
    summary["prediction"] = {"span": predicted, "share_of_check_s": share,
                             "holds": share >= 0.5}
    summary["layer_self_s"] = tracing.layer_self_times(trace)
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="superlie benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "superlie", "cli.py")):
        print(f"no superlie sources under {SRC}", file=sys.stderr)
        return 2
    start = time.monotonic()
    deadline = start + BUDGET_S
    spec = WORKLOADS[args.workload]
    env = dict(os.environ, **THREAD_VARS)
    env.pop("PYTHONPATH", None)
    work = os.path.join(WORK, f"{args.workload}-s{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        configs = []
        for k in range(SEEDS_PER_RUN):
            configs.append(os.path.join(work, f"workload{k}.cfg"))
            with open(configs[-1], "w", encoding="utf-8") as fh:
                fh.write(spec["config"] + f"seed = {args.seed * SEEDS_PER_RUN + k}\n")
        config = configs[0]

        # untimed: compiles the package's bytecode once for this checkout
        run_process(work, "warmup", config, env, deadline, setup_only=True)
        setups, traced = [], None
        if args.trace:
            # untraced runs on both sides of the traced one cancel a linear drift
            # of machine speed out of the overhead
            procs = [run_process(work, "untraced0", config, env, deadline)]
            traced = run_process(work, "traced", config, env, deadline, trace=True)
            procs += [traced, run_process(work, "untraced1", config, env, deadline)]
        else:
            procs, setups = measure_timed(work, configs, env, deadline, args.seconds)

        attempted, failed, problems = gate_processes(
            gate.load_reference()[args.workload], procs, setups)
        complete = [p for p in procs if "wall_s" in p]
        summary = {
            "workload": args.workload,
            "seed": args.seed,
            "seed_used_by_program": spec["uses_seed"],
            "trace": args.trace,
            "processes": len(procs),
            "fail_frac": failed / attempted,
            "problems": problems[:10],
            "environment": dict(environment(), numpy=complete[0]["numpy"] if complete else None),
        }
        if not complete or (traced is not None and "trace" not in traced):
            print(json.dumps({"summary": summary}))
            return 1
        if traced is not None:
            metrics = traced_metrics(complete, traced, spec["predicted"], summary)
        else:
            metrics = timed_metrics(complete, setups, summary)
        summary["elapsed_s"] = time.monotonic() - start
        print(json.dumps({"summary": summary}))
        print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                          "metrics": metrics}))
        return 0 if not problems else 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
