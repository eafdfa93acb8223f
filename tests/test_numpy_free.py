"""The closed-form commands (the paper channel and white noise) never
import numpy; the array work (the simulator, MA(q >= 2) spectra) still
does.  Each case runs in a fresh interpreter, since this test process has
numpy loaded already."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")

# Runs gfcap.cli.main on each argv list of sys.argv[1], output discarded,
# and prints whether numpy was loaded after `import gfcap` and after each.
SCRIPT = """
import contextlib, io, json, sys
import gfcap
loaded = ["numpy" in sys.modules]
from gfcap.cli import main
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(main(argv))
    loaded.append("numpy" in sys.modules)
print(json.dumps({"codes": codes, "numpy": loaded}))
"""


def run_fresh(*argvs):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", SCRIPT, json.dumps(argvs)],
                          capture_output=True, text=True, env=env,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_closed_form_commands_never_import_numpy():
    result = run_fresh(
        ["counterexample"],
        ["counterexample", "--power-sweep", "0.5..2:10"],
        ["bounds", "--power", "1"],
        ["sk-rate", "--power", "1"],
        ["capacity", "--power", "1", "--psd", "paper"],
        ["capacity", "--power", "1", "--psd", "white:2"],
    )
    assert result["codes"] == [0] * 6
    # after `import gfcap`, then after each command
    assert result["numpy"] == [False] * 7


def test_array_commands_still_load_numpy(tmp_path):
    spec = tmp_path / "ma3.json"
    spec.write_text(json.dumps({"type": "ma",
                                "coeffs": [1.0, 0.5, -0.3, 0.2]}))
    simulate = ["simulate", "--power", "1", "--trials", "50",
                "--trace-out", str(tmp_path / "trace.csv")]
    capacity = ["capacity", "--power", "1", "--psd", str(spec)]
    for argv in (simulate, capacity):
        assert run_fresh(argv) == {"codes": [0], "numpy": [False, True]}
