"""The benchmark's tracer must still find every name it wraps in superlie."""

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


def test_tracer_installs_on_current_names():
    # a fresh interpreter, so the wrappers never touch this test session
    code = INSTALL.format(src=str(ROOT / "src"), root=str(ROOT))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
