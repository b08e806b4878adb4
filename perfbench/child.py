"""Subprocess entry of the benchmark.

Reads one JSON request on stdin and prints one JSON reply as the last
line of stdout.  Two modes:

* ``setup`` — one set-up sample: the seconds from the top of this
  script to the end of :func:`perfbench.workloads.setup`;
* ``reference`` — compile the given inputs directly with the driver,
  traced when asked, and check each output with the interpreter.  The
  parent starts this process under another ``PYTHONHASHSEED`` than its
  own, so comparing the replies is also the determinism guard.
"""

import time

START = time.perf_counter()

import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from perfbench import workloads  # noqa: E402
from perfbench.tracing import Recorder, installed  # noqa: E402


def main() -> None:
    request = json.load(sys.stdin)
    spec = workloads.SPECS[request["workload"]]
    if request["mode"] == "setup":
        workloads.setup(spec, warm_pool=True)
        reply = {"setup_s": time.perf_counter() - START}
    else:
        state = workloads.setup(spec, warm_pool=False)
        inputs = request["inputs"]
        recorder = Recorder() if request["trace"] else None
        with installed(recorder) if recorder else contextlib.nullcontext():
            compiled = workloads.reference_compile(state, inputs, recorder)
        reply = {
            "results": workloads.reference_results(inputs, compiled),
            "trace": recorder.as_dict() if recorder else None,
        }
    print(json.dumps(reply))


if __name__ == "__main__":
    main()
