"""The benchmark still runs against the package: its per-layer tracer finds
every function it wraps, and its smoke test passes."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCRIPT = """
import sys
sys.path[:0] = [{src!r}, {bench!r}]
import qrmat.cli
from layertrace import Tracer
Tracer().install()
"""


def test_tracer_installs_against_the_package():
    # install() raises when a wrapped name is gone, so a rename in src/
    # that would silently break `perfbench/run.py --trace 1` fails here
    script = SCRIPT.format(src=os.path.join(ROOT, "src"),
                           bench=os.path.join(ROOT, "perfbench"))
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_benchmark_smoke_test_passes():
    # every workload on its tiny deck, traced and untraced, checked against
    # the reference digests: a kernel change that alters an answer fails here
    proc = subprocess.run([sys.executable, os.path.join("perfbench", "smoke.py")],
                          capture_output=True, text=True, timeout=600, cwd=ROOT)
    assert proc.returncode == 0, proc.stdout + proc.stderr
