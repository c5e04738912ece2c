"""Importing the package loads numpy and dperm, and nothing from scipy.

scipy.stats takes about a second to import and serves one call,
``chi_square_gof``, which imports it on first use.  Every CLI run and every
benchmark set-up pays the package import, so a module-level scipy import
anywhere under ``src/dperm`` makes this test fail.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

CHILD = """
import sys

import numpy as np

import dperm
import dperm.cli

loaded = sorted(k for k in sys.modules if k == "scipy" or k.startswith("scipy."))
assert not loaded, f"importing dperm loaded {loaded[:5]}"

from dperm.analysis import GofResult, chi_square_gof

result = chi_square_gof(np.array([0.5, 0.3, 0.2]), np.array([52, 28, 20]))
assert isinstance(result, GofResult), result
assert result.bins == 3 and result.dof == 2, result
assert 0.0 <= result.pvalue <= 1.0 and result.statistic >= 0.0, result
print("ok")
"""


def test_import_leaves_scipy_out_until_the_first_gof_call():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    child = subprocess.run([sys.executable, "-c", CHILD], env=env,
                           capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    assert child.stdout.strip() == "ok"
