"""Time one cold start of doleans and print it, with the machine's speed.

A cold start imports the package, builds the three example models and
runs one verdict.  ``run.py`` runs this in a fresh process for ``setup_s``.
Prints the cold start's seconds, then the calibration kernel's seconds
measured right after it.
"""

import sys
import time
from pathlib import Path

start = time.perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import doleans  # noqa: E402

models = {name: factory() for name, factory in doleans.EXAMPLE_MODELS.items()}
spec = doleans.ConditionSpec("theorem1", doleans.PredictableControl.constant(1.0))
report = doleans.evaluate_condition(models["example1"], spec)
elapsed = time.perf_counter() - start
if report.verdict != "finite":
    sys.exit(f"warm-up verdict is {report.verdict!r}, expected 'finite'")

from calibration import calibrate  # noqa: E402

print(repr(elapsed), repr(calibrate()))
