"""One timed ``superlie run CONFIG --out DIR`` in a fresh process.

    python3 perfbench/child.py --config CFG --out DIR --timings FILE
                               [--run-id ID] [--trace FILE] [--setup-only]

The run goes through ``superlie.cli.main``, the same path as
``python -m superlie.cli run CONFIG --out DIR``.  The package is imported
from ``src/`` of the checkout that holds this file.  Stage times come from a
handful of spans at the cli boundary (import, ``build_for``,
``resolve_chi``, each check, ``run_experiment``); ``--trace`` also installs
the per-layer spans and writes them to FILE.  ``--setup-only`` stops after
set-up: it imports the cli, builds the algebra and resolves the characters.

The timings file holds the stage times, the process's CPU time when the
reports were written, the peak resident memory, the ``time.monotonic()``
reading when the reports were written (a system-wide clock on Linux, so the
caller can subtract its own spawn time), the speed probe's times and the
versions of Python and numpy that ran.  Without ``--trace`` the stage times
are CPU times of the process; with it they are wall-clock times.

The speed probe times a fixed pure-Python loop, in CPU time, from a timer
signal every PROBE_INTERVAL_S while the run goes on, on whatever CPU the run
is using at that moment, so the caller can tell how fast the machine ran
during the run.  It adds under 1% to the run.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import signal
import sys
import time

import tracing

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

PROBE_INTERVAL_S = 0.1
PROBE_ITERS = 2000


def probe_loop(iters: int) -> None:
    """The fixed pure-Python loop whose time the speed probe takes."""
    counts = {}
    for i in range(iters):
        k = i % 97
        counts[k] = counts.get(k, 0) + (i * i) % 7


def start_probe(samples: list) -> None:
    def on_alarm(signum, frame):
        # a collection inside the loop would time the program's heap
        enabled = gc.isenabled()
        gc.disable()
        t0 = time.process_time()
        probe_loop(PROBE_ITERS)
        samples.append(time.process_time() - t0)
        if enabled:
            gc.enable()

    signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--config", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--timings", required=True)
    ap.add_argument("--run-id", default="run")
    ap.add_argument("--trace", default=None, metavar="FILE")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    probe_s: list[float] = []
    start_probe(probe_s)
    sys.path.insert(0, SRC)
    tracer = tracing.Tracer(args.run_id,
                            time.perf_counter if args.trace else time.process_time)
    rec = tracer.open("cli.import")
    import superlie.cli as cli
    tracer.close(rec)
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        print(f"superlie imported from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 3
    import numpy

    tracing.install_cli(tracer, cli)
    if args.trace:
        tracing.install_layers(tracer)
    if args.setup_only:
        with open(args.config, encoding="utf-8") as fh:
            cfg = cli.parse_config(fh.read())
        g = cli.build_for(cfg.algebra, cfg.p)
        for spec in cfg.chi_specs:
            cli.resolve_chi(g, spec)
        code = 0
    else:
        code = cli.main(["run", args.config, "--out", args.out])
    done = time.monotonic()
    cpu = time.process_time()
    signal.setitimer(signal.ITIMER_REAL, 0)

    timings = tracing.stage_times(tracer.spans)
    timings.update({
        "exit_code": code,
        "done_monotonic": done,
        "cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "probe_s": probe_s,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    })
    with open(args.timings, "w", encoding="utf-8") as fh:
        json.dump(timings, fh)
    if args.trace:
        tracer.dump(args.trace)
    return code


if __name__ == "__main__":
    sys.exit(main())
