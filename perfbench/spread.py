"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload adapt-align --seeds 1-10

Runs ``run.py --trace 0`` once per seed, one run at a time, and prints for
each end-to-end metric the median and the distance between the first and
third quartiles (``statistics.quantiles(values, n=4)``) as a share of the
median, next to the metric's bound from BENCHMARK.json. The raw results go
to ``.perfbench_out/spread-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(spec: str) -> list[int]:
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [
        sys.executable, str(ROOT / "perfbench" / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="run-to-run spread of end-to-end metrics")
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10", help="'1-10' or '3,5,8'")
    args = p.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    results = []
    for seed in seeds(args.seeds):
        result = run_once(args.workload, seed, bench["run_seconds"])
        results.append({"seed": seed, **result})
        values = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']} {values}",
              flush=True)

    out = ROOT / ".perfbench_out" / f"spread-{args.workload}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(results, indent=1) + "\n")

    all_correct = all(r["correct"] for r in results)
    print(f"{args.workload}: {len(results)} runs, all correct: {all_correct}")
    print(f"  {'metric':16s} {'median':>12s} {'IQR/median':>11s} {'bound':>6s}  within")
    for name, bound in bounds.items():
        median, share = spread([r["metrics"][name]["value"] for r in results])
        verdict = "bound/3" if share < bound / 3 else ("bound" if share <= bound else "NO")
        print(f"  {name:16s} {median:12.4f} {share:11.4f} {bound:6.2f}  {verdict}")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
