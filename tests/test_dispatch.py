"""Pinned bytes on every NumPy dispatch target this CPU can emulate.

``test_golden_reports.py`` checks the running target's bytes in process.
Here it runs again in a child ``python -m pytest`` under each
``NPY_DISABLE_CPU_FEATURES`` setting of :func:`dispatch.disable_settings`,
which reaches the targets below the one NumPy picks for this CPU; the
variable is set for the child only.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from dispatch import disable_settings

TESTS = Path(__file__).resolve().parent


@pytest.mark.parametrize("setting", disable_settings())
def test_golden_reports_under_disabled_cpu_features(setting):
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=setting)
    child = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         str(TESTS / "test_golden_reports.py")],
        cwd=TESTS.parent, env=env, capture_output=True, text=True, timeout=600)
    assert child.returncode == 0, child.stdout[-4000:] + child.stderr[-2000:]
