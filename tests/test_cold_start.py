"""Commands on the piecewise built-ins and the atom pair leave
``scipy.special`` unloaded; a Gaussian solve loads it.

Each case runs a fresh interpreter: ``oracles`` imports scipy when the suite
is collected, so this process has it loaded whatever the package does.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# Runs ``advbayes`` with the given arguments (none: only the import), then
# prints on stderr's last line whether scipy.special was loaded.
PROBE = """
import sys
from advbayes import cli
code = cli.main(sys.argv[1:]) if sys.argv[1:] else 0
print("scipy.special" in sys.modules, file=sys.stderr)
sys.exit(code)
"""


def loads_scipy_special(*args: str, exit_code: int = 0) -> bool:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", PROBE, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == exit_code, proc.stderr
    return {"True": True, "False": False}[proc.stderr.splitlines()[-1]]


@pytest.mark.parametrize("args, exit_code", [
    ((), 0),
    (("solve", "--example", "degenerate", "--eps", "0.05"), 0),
    (("sweep", "--example", "degenerate", "--eps-min", "0.01", "--eps-max", "0.2", "--steps", "5"),
     0),
    # Exit 2: its support is not an interval, so each row warns of a widened
    # window.  Samples where both densities underflow are read in log space.
    (("sweep", "--example", "deg_eta_0_1_counterexample", "--eps-min", "0.01",
      "--eps-max", "0.5", "--steps", "8"), 2),
    (("certify", "--example", "degenerate", "--eps", "0.05"), 0),
    (("examples", "degenerate", "--eps", "0.05"), 0),
    (("certify", "--example", "non_equiv", "--eps", "0.3"), 0),
], ids=["import", "solve", "sweep", "sweep-deg-eta", "certify", "examples", "certify-atoms"])
def test_piecewise_and_atom_runs_leave_scipy_unloaded(args, exit_code):
    assert not loads_scipy_special(*args, exit_code=exit_code)


def test_gaussian_solve_loads_scipy_special():
    assert loads_scipy_special("solve", "--example", "gaussians_equal_variances", "--eps", "0.5")
