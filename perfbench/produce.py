"""Set-up child: write one workload's artifacts in a fresh interpreter.

    python3 perfbench/produce.py <workload> <seed> <out dir> <trace 0|1>

run.py starts this once per set-up; the environment it inherits carries the
BLAS pin. When traced, the spans and counters go to ``<out dir>/spans.json``
for run.py to merge.
"""

import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import layers  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


def main(workload: str, seed: int, out: str, trace: bool) -> None:
    tracer = None
    if trace:
        tracer = Tracer()
        layers.register(tracer)
        tracer.install()
    workloads.WORKLOADS[workload].produce(seed, out)
    if tracer is not None:
        tracer.uninstall()
        with open(os.path.join(out, "spans.json"), "w") as fh:
            json.dump({"spans": tracer.spans, "counts": tracer.export_counts()}, fh)


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4] == "1")
