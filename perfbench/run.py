"""Benchmark launcher: one workload, one seed, one result line.

    python3 perfbench/run.py --workload adapt-align --seed 1 --seconds 15 --trace 0

Run from the repository root; ttalign is imported from ``src/``. BLAS is
pinned to one thread here, before numpy is first imported.

``--trace 0`` measures end to end: set-up three times (median reported), then
closed-loop calls with one caller until ``--seconds`` have passed and the
workload's minimum sample count is reached. ``--trace 1`` runs a fixed number
of calls, each once untraced and once with every layer probe installed, and
reports the per-layer metrics of ``layers.PER_LAYER``. The last line of
standard output is the result object; the run's details, the machine record
and (traced) the spans go to ``.perfbench_out/`` under the repository root.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
N_SETUPS = 3
END_TO_END = {
    "samples_per_s": "1/s",
    "call_p50_ms": "ms",
    "call_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def blas_threads():
    """Threads the loaded OpenBLAS reports, or None if it cannot be asked."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_record() -> dict:
    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "blas_pin": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


def set_up(wl, workload_cls, seed: int, run_dir: Path, tracer) -> list[float]:
    """Produce the artifacts in a fresh interpreter and load them, N_SETUPS times.

    The child inherits this process's environment, BLAS pin included.
    """
    times = []
    for k in range(N_SETUPS):
        out = run_dir / f"setup{k}"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        t0 = time.perf_counter()
        child = subprocess.run([
            sys.executable, str(Path(__file__).with_name("produce.py")),
            workload_cls.name, str(seed), str(out), str(int(tracer is not None)),
        ])
        if child.returncode != 0:
            raise RuntimeError(f"set-up process exited with code {child.returncode}")
        wl.load(str(out))
        times.append(time.perf_counter() - t0)
        if tracer is not None:
            with open(out / "spans.json") as fh:
                recorded = json.load(fh)
            tracer.absorb(recorded["spans"], recorded["counts"])
        shutil.rmtree(out)
    return times


def call(wl, i: int, failures: list):
    """One timed operation; an exception counts the operation as failed."""
    try:
        return wl.op(i)
    except Exception:  # noqa: BLE001 - the benchmark must report, not stop
        traceback.print_exc()
        failures.append(i)
        return None


def measure(wl, seconds: float):
    """Closed loop with one caller until time and sample count are both met."""
    results, latencies, raised = [], [], []
    samples = 0
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        results.append(call(wl, len(results), raised))
        latencies.append(time.perf_counter() - t0)
        samples += wl.per_op
        if time.perf_counter() - start >= seconds and samples >= wl.min_samples:
            break
    return results, latencies, samples, time.perf_counter() - start, raised


def checked(wl, results, raised) -> int:
    failed = wl.per_op * len(raised)
    return failed + sum(wl.failures(r) for r in results if r is not None)


def run_untraced(wl, args, setup_times):
    # An untimed warm-up call; the timed phase starts with the same call,
    # whose outputs (summary included) must be identical.
    warm_raised: list[int] = []
    warm = call(wl, 0, warm_raised)
    results, latencies, samples, elapsed, raised = measure(wl, args.seconds)
    failed = checked(wl, results, raised)
    deterministic = (
        warm is not None
        and results[0] is not None
        and wl.fingerprint(warm) == wl.fingerprint(results[0])
    )
    failed += wl.final_check()
    ms = [1e3 * t for t in latencies]
    metrics = {
        "samples_per_s": samples / elapsed,
        "call_p50_ms": statistics.median(ms),
        "call_p90_ms": statistics.quantiles(ms, n=10, method="inclusive")[8],
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    scored = [r for r in results if r is not None]
    details = {
        "calls": len(results),
        "timed_s": elapsed,
        "error_rate": failed / samples,
        "warm_up_matches_call_0": deterministic,
        "setup_s": setup_times,
        **(wl.score(scored) if scored else {}),
        "call_ms": ms,
    }
    return metrics, details, samples, failed, deterministic


def run_traced(wl, tracer, setup_times, run_dir: Path):
    import hashlib

    import layers
    from tracing import SETUP

    untraced_s = traced_s = 0.0
    failed = 0
    agree = True
    digest = hashlib.sha256()
    raised: list[int] = []
    call(wl, 0, raised)  # untimed warm-up, as in the untraced run
    for i in range(wl.trace_ops):
        outputs = {}
        # Alternate which pass goes first, so warm-up favours neither.
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if traced:
                tracer.install()
                tracer.op = i
            t0 = time.perf_counter()
            outputs[traced] = call(wl, i, raised)
            dt = time.perf_counter() - t0
            tracer.uninstall()
            tracer.op = SETUP
            if traced:
                traced_s += dt
            else:
                untraced_s += dt
        if outputs[True] is None or outputs[False] is None:
            failed += wl.per_op
            agree = False
            continue
        failed += wl.failures(outputs[True])
        same = wl.fingerprint(outputs[True]) == wl.fingerprint(outputs[False])
        if not same:
            failed += wl.per_op
            agree = False
        digest.update(wl.fingerprint(outputs[True]).encode())
    samples = wl.trace_ops * wl.per_op
    metrics = layers.summarize(tracer, samples, N_SETUPS, untraced_s, traced_s)
    with open(run_dir / "spans.jsonl", "w") as fh:
        for name, start, end, parent, op in tracer.spans:
            fh.write(json.dumps([name, start, end, parent, op]) + "\n")
    details = {
        "calls": wl.trace_ops,
        "spans": len(tracer.spans),
        "setup_s": setup_times,
        "traced_equals_untraced": agree,
        "digest": digest.hexdigest(),
        "error_rate": failed / samples,
    }
    return metrics, details, samples, failed, agree


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import numpy  # noqa: F401
        import ttalign
    except ImportError as exc:
        print(f"perfbench: cannot import ttalign from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if Path(ttalign.__file__).resolve().parent != ROOT / "src" / "ttalign":
        print(f"perfbench: ttalign resolved to {ttalign.__file__}, not this checkout's src/",
              file=sys.stderr)
        return 2

    import layers
    import workloads
    from tracing import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload_cls = workloads.WORKLOADS[args.workload]
    wl = workload_cls(args.seed)
    run_dir = ROOT / ".perfbench_out" / args.workload / f"seed{args.seed}-trace{args.trace}"
    run_dir.mkdir(parents=True, exist_ok=True)

    tracer = None
    if args.trace:
        tracer = Tracer()
        layers.register(tracer)
        tracer.install()
    setup_times = set_up(wl, workload_cls, args.seed, run_dir, tracer)
    if tracer is None:
        metrics, details, samples, failed, ok = run_untraced(wl, args, setup_times)
        units = END_TO_END
    else:
        tracer.uninstall()
        metrics, details, samples, failed, ok = run_traced(wl, tracer, setup_times, run_dir)
        units = {name: unit for name, (unit, _) in layers.PER_LAYER.items()}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "sample": workload_cls.sample,
        "samples": samples,
        "failed": failed,
        "machine": machine_record(),
        **details,
        "metrics": metrics,
    }
    with open(run_dir / "result.json", "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")

    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{samples} x {workload_cls.sample}, {failed} failed")
    print("machine " + json.dumps(record["machine"], sort_keys=True))
    print("details " + json.dumps({k: v for k, v in details.items() if k != "call_ms"},
                                  sort_keys=True))
    for name, value in metrics.items():
        print(f"  {name:32s} {value:14.6f} {units[name]}")
    result = {
        "correct": bool(ok and failed == 0),
        "attempted": samples,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
