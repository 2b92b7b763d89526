"""zesolver never imports scipy.

A fresh interpreter imports every zesolver module, runs the four commands
and then finds no scipy module loaded.  The check needs its own
interpreter, since the test session itself imports scipy.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import importlib
import pkgutil
import sys
from pathlib import Path

import zesolver
import zesolver.cli as cli
from zesolver import MixtureParams, ScenarioSolver

scipy_modules = lambda: sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
for mod in pkgutil.iter_modules(zesolver.__path__):
    importlib.import_module(f"zesolver.{mod.name}")
solver = ScenarioSolver(MixtureParams(mu1=5, mu2=8, q1=2, q2=10, x1=-1, x2=1))
for t in (0.005, 0.014, 0.05, 0.1, 0.3, 1.0):
    solver.profile_at(t, n=256)
out = Path(sys.argv[1])
cfg = out / "readme.ini"
cfg.write_text("[mixture]\\nmu1 = 5\\nmu2 = 8\\nq1 = 2\\nq2 = 10\\nx1 = -1\\nx2 = 1\\n"
               "[general]\\nbreakpoints = -1, 1\\nr1_values = 5, 2, 5\\n"
               "r2_values = 8, 10, 8\\ndomain = -21, 21\\nwindow = -2, 6\\n")
for argv in (["timeline"], ["profile", "--times", "0.05,0.3"],
             ["compare", "--times", "0.05", "--cells", "100,200"],
             ["general", "--times", "0.018,0.05"]):
    assert cli.main([*argv, "--config", str(cfg), "--out", str(out / argv[0])]) == 0
print("after zesolver:", scipy_modules())
# The probe sees scipy once something imports it.
import scipy.special
print("after import scipy.special:", "scipy.special" in scipy_modules())
"""


def test_zesolver_never_imports_scipy(tmp_path):
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (str(SRC), path)))}
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    probes = [line for line in proc.stdout.splitlines() if line.startswith("after ")]
    assert probes == ["after zesolver: []", "after import scipy.special: True"]
