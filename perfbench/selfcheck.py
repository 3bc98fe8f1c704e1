"""Self-check of the benchmark: metric lists, exact counts, determinism.

    python3 perfbench/selfcheck.py [--seed 7]

For every workload, runs ``run.py --trace 1`` twice with one seed and checks:

- both runs are correct and report exactly the per-layer metrics that
  BENCHMARK.json lists, and the end-to-end list matches ``run.END_TO_END``;
- every count in ``layers.EXACT_COUNTS`` and the digest of the traced
  outputs are identical between the two runs;
- the layer self times of a traced sample add up to the traced sample time,
  and the traced time exceeds the untraced one by the reported overhead.

Exits 1 on the first kind of mismatch it reports, 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import layers  # noqa: E402
import run  # noqa: E402

# Layer self times plus the probes' own spans; every span belongs to one of these.
SELF_TIMES = tuple(f"{layer}.self_ms" for layer in layers.LAYERS) + ("trace.self_ms",)


def traced(workload: str, seed: int) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    out = ROOT / ".perfbench_out" / workload / f"seed{seed}-trace1" / "result.json"
    result["details"] = json.loads(out.read_text())
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="benchmark self-check")
    p.add_argument("--seed", type=int, default=7)
    args = p.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    if [m["name"] for m in bench["end_to_end"]] != list(run.END_TO_END):
        problems.append("BENCHMARK.json end_to_end differs from run.END_TO_END")
    listed = [m["name"] for m in bench["per_layer"]]
    if listed != list(layers.PER_LAYER):
        problems.append("BENCHMARK.json per_layer differs from layers.PER_LAYER")

    for workload in (w["name"] for w in bench["workloads"]):
        first, second = traced(workload, args.seed), traced(workload, args.seed)
        for n, result in enumerate((first, second), 1):
            if not result["correct"]:
                problems.append(f"{workload}: traced run {n} not correct")
            if sorted(result["metrics"]) != sorted(listed):
                problems.append(f"{workload}: traced run {n} reports other metrics")
        for name in layers.EXACT_COUNTS:
            a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
            if a != b:
                problems.append(f"{workload}: {name} differs between runs: {a} vs {b}")
        if first["details"]["digest"] != second["details"]["digest"]:
            problems.append(f"{workload}: traced outputs differ between runs")

        m = {k: v["value"] for k, v in first["metrics"].items()}
        layer_sum = sum(m[k] for k in SELF_TIMES)
        traced_ms, untraced_ms = m["trace.traced_sample_ms"], m["trace.untraced_sample_ms"]
        print(f"{workload}: counts "
              + ", ".join(f"{k}={m[k]:g}" for k in layers.EXACT_COUNTS)
              + f"; layer self sum {layer_sum:.3f} ms, traced {traced_ms:.3f} ms, "
              f"untraced {untraced_ms:.3f} ms, overhead {m['trace.overhead_pct']:.2f}%")
        # Bench-loop time outside any probe is the only unattributed part.
        if abs(traced_ms - layer_sum) > 0.01 * traced_ms:
            problems.append(f"{workload}: layer self times cover {layer_sum:.3f} of "
                            f"{traced_ms:.3f} ms per sample")

    for problem in problems:
        print("FAIL " + problem)
    print("selfcheck: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
