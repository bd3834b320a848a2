"""Cold-start guard: importing the package loads no scipy module.

The default pipeline (FFT low-pass), the simulator, the CLI and the
serving tier run on numpy alone; only ``fir_lowpass`` (and
``LinkBudget.read_success_probability``) import scipy, on first use.
Every interpreter that imports ``repro`` — the CLI, each supervised
fabric worker — would otherwise load some 500 scipy modules it never
runs.  The check needs a fresh interpreter: this process already has
scipy loaded.
"""

import json
import os
import subprocess
import sys

import repro

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

_PROBE = """
import json, sys
import numpy as np
import repro, repro.cli, repro.serve.worker, repro.sim.engine, repro.core.pipeline

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

after_import = scipy_modules()
from repro.core.filters import fir_lowpass
from repro.streams import TimeSeries
t = np.arange(0.0, 30.0, 0.1)
out = fir_lowpass(TimeSeries(t, np.sin(2 * np.pi * 0.25 * t)))
print(json.dumps({
    "after_import": after_import,
    "signal_after_fir": "scipy.signal" in sys.modules,
    "finite": bool(np.isfinite(out.values).all()) and len(out) == len(t),
}))
"""


def test_import_loads_no_scipy_until_fir_lowpass():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [_SRC] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    proc = subprocess.run([sys.executable, "-c", _PROBE], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    probe = json.loads(proc.stdout.strip().splitlines()[-1])
    assert probe["after_import"] == []
    assert probe["signal_after_fir"]
    assert probe["finite"]
