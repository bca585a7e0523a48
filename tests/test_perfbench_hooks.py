"""The benchmark's tracer must still find every name it wraps in superlie,
and a traced run must still call through every wrapper."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

INSTALL = """
import sys
sys.path[:0] = [{src!r}, {root!r}]
from perfbench.tracing import Tracer, install_cli, install_layers
from superlie import cli
tracer = Tracer("t")
install_cli(tracer, cli)
install_layers(tracer)
"""

# every check of the module pipeline on gl(1|1), then the family check, each
# well under a second; a wrapper that binds a changed signature crashes them
RUNS = """
import os, tempfile
configs = [
    "algebra = gl(1|1)\\np = 3\\nchi = zero\\nchi = regular_semisimple\\n"
    "checks = verma,phi,reflect,sym,coinduced,kw,semisimple\\nsamples = 2\\n",
    "algebra = osp(1|2)\\np = 3\\nchecks = family\\nsamples = 2\\n",
]
with tempfile.TemporaryDirectory() as tmp:
    for i, text in enumerate(configs):
        path = os.path.join(tmp, f"run{{i}}.ini")
        with open(path, "w") as fh:
            fh.write(text)
        code = cli.main(["run", path])
        if code:
            sys.exit(f"{{path}} exited {{code}}")
missing = {{"linalg.commutant", "kwverify.walls_type", "verma.quotient", "linalg.closure",
            "envelope.multiply"}} - {{rec[0] for rec in tracer.spans}}
if missing:
    sys.exit(f"no span {{sorted(missing)}}")
"""


def _fresh(code: str) -> subprocess.CompletedProcess:
    # a fresh interpreter, so the wrappers never touch this test session
    return subprocess.run([sys.executable, "-c", code.format(src=str(ROOT / "src"), root=str(ROOT))],
                          capture_output=True, text=True, timeout=120)


def test_tracer_installs_on_current_names():
    proc = _fresh(INSTALL)
    assert proc.returncode == 0, proc.stderr


def test_traced_runs_pass():
    proc = _fresh(INSTALL + RUNS)
    assert proc.returncode == 0, proc.stderr + proc.stdout
    assert proc.stdout.count("PASS") == 8 and "FAIL" not in proc.stdout, proc.stdout
