"""The closed-form commands (the paper channel and white noise) never
import numpy; the array work (the simulator, MA(q >= 2) spectra) still
does.  Nor does gfcap import dataclasses, or inspect, which dataclasses
imports: its records are plain slotted classes, and only numpy loads
inspect.  Each case runs in a fresh interpreter, since this test process
has all three loaded already."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")

# Runs gfcap.cli.main on each argv list of sys.argv[1], output discarded,
# and prints which of the watched modules were loaded after `import gfcap`
# and after each.  A module loaded before `import gfcap` (a site hook may
# preload one) is not counted.
SCRIPT = """
import contextlib, io, json, sys
absent = [m for m in ("dataclasses", "inspect", "numpy")
          if m not in sys.modules]
import gfcap
loaded = [[m for m in absent if m in sys.modules]]
from gfcap.cli import main
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(main(argv))
    loaded.append([m for m in absent if m in sys.modules])
print(json.dumps({"codes": codes, "loaded": loaded}))
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
    assert result["loaded"] == [[]] * 7


def test_array_commands_still_load_numpy(tmp_path):
    spec = tmp_path / "ma3.json"
    spec.write_text(json.dumps({"type": "ma",
                                "coeffs": [1.0, 0.5, -0.3, 0.2]}))
    simulate = ["simulate", "--power", "1", "--trials", "50",
                "--trace-out", str(tmp_path / "trace.csv")]
    capacity = ["capacity", "--power", "1", "--psd", str(spec)]
    for argv in (simulate, capacity):
        result = run_fresh(argv)
        assert result["codes"] == [0]
        # numpy loads inspect itself; nothing loads dataclasses
        assert result["loaded"][0] == []
        assert "numpy" in result["loaded"][1]
        assert "dataclasses" not in result["loaded"][1]
