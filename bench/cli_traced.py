"""Runs one `gfcap.cli.main(argv)` in this fresh process with the tracer's
wrappers installed, then saves its spans and a JSON summary.

    python3 bench/cli_traced.py SUMMARY.json SPANS.npz OP_ID ARGV...
"""

import json
import sys
import time

_t0 = time.perf_counter()
import gfcap.cli  # noqa: E402  (import time is measured)
IMPORT_S = time.perf_counter() - _t0

from tracer import Tracer  # noqa: E402


def main():
    summary_path, spans_path, op_id = sys.argv[1:4]
    tracer = Tracer()
    tracer.op_id = int(op_id)
    tracer.install()
    try:
        code = gfcap.cli.main(sys.argv[4:])
    finally:
        tracer.restore()
        tracer.save(spans_path)
        summary = tracer.summary()
        summary["cli.import_s"] = IMPORT_S
        with open(summary_path, "w") as fh:
            json.dump(summary, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
