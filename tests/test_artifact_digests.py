"""SHA-256 digests of the tiny CLI pipeline's artifacts and the float-hex
errors of a short gradient suite, pinned against a table.

The pipeline runs in a child process with OpenBLAS at one thread: gen-data,
pretrain, compute-stats (``--max-order 5``), then an ``l1`` and a ``cmd-5``
eval. A refactor that must not move bits keeps every entry equal. The bits
depend on numpy and on the BLAS kernel, so the table is keyed by (numpy
version, OpenBLAS core, machine architecture); on a key it does not hold, the
test warns with that key and still runs the pipeline.

Run as a script, ``python tests/test_artifact_digests.py WORKDIR`` prints the
key and the digests as JSON.
"""

import hashlib
import json
import os
import platform
import subprocess
import sys
import warnings
from pathlib import Path

CFG_TEXT = """
image_size=16
patch_size=8
embed_dim_v=16
embed_dim_t=16
feature_dim=16
n_vision_layers=3
n_text_layers=2
n_heads=2
mlp_ratio=2
prompt_depth=2
class_names=ripple,checker,grid
n_source=72
n_test=18
noise_sigma=0.25
n_views=6
learning_rate=0.005
"""

EVALS = ("l1", "cmd-5")

# (numpy version, OpenBLAS core, machine) -> artifact digests and the
# gradient-suite errors in float hex.
EXPECTED = {
    ("2.4.6", "SkylakeX", "x86_64"): {
        "digests": {
            "checkpoint.bin":
                "96527f53e60a5cbe8e487423f094be0dc151de5007028c0fbe3b40b716529822",
            "stats.bin":
                "e89ac2dd2c9ace55094cd12e1e00d472b821e6e52cdacfde5ee409028931f099",
            "stats.json":
                "c6915f8a9a9c754937baaff58bcd89810f95b23535cb6a5bb7b00c02f4968d51",
            "l1/records.jsonl":
                "7d1885f54913ad72c1decb9c6de332233ff4b3dfd537c11abffd92a10145ef72",
            "l1/summary.json":
                "a6c772a4b48bbd22d5864ee3c9f660ae18558cfed6f1dacade318635bcc55378",
            "cmd-5/records.jsonl":
                "50269960ff56c4332ba6c6ef5f71b8170d4b206b18c231442dd0a8b1da097272",
            "cmd-5/summary.json":
                "2bd36fbb6ba6ef3a0f92cc34b855a34d53b60bc55a61d5ed77498f262535ae5c",
        },
        "grad_errors": {
            "align_cmd5": "0x1.416311e2518dcp-26",
            "align_kl": "0x1.55c0ad1300000p-28",
            "align_l1": "0x1.1b73e9a712694p-27",
            "align_l2": "0x1.fce205619dfe8p-27",
            "entropy": "0x1.a3c9315de47c5p-24",
            "final": "0x1.b3c9f8d05eff8p-27",
        },
    },
}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def collect(root: Path) -> dict:
    """Run the pipeline under ``root`` and return its key and digests."""
    import numpy as np

    from ttalign import harness
    from ttalign.cli import main
    from ttalign.tta import gradient_suite

    cfg = root / "run.cfg"
    cfg.write_text(CFG_TEXT)
    head = ["--seed", "7", "--config", str(cfg)]
    data, model, stats = root / "data", root / "model", root / "stats"
    steps = [
        [*head, "--out", str(data), "gen-data", "--shift-magnitude", "0.6"],
        [*head, "--out", str(model), "pretrain", "--data", str(data / "source"),
         "--epochs", "4"],
        [*head, "--out", str(stats), "compute-stats", "--ckpt", str(model / "checkpoint.bin"),
         "--data", str(data / "source"), "--max-order", "5"],
    ] + [
        [*head, "--out", str(root / name), "eval", "--ckpt", str(model / "checkpoint.bin"),
         "--data", str(data / "test"), "--stats", str(stats / "stats.bin"),
         "--align-loss", name]
        for name in EVALS
    ]
    for argv in steps:
        if main(argv) != 0:
            raise RuntimeError(f"ttalign {' '.join(argv)} failed")

    digests = {
        "checkpoint.bin": _sha256(model / "checkpoint.bin"),
        "stats.bin": _sha256(stats / "stats.bin"),
        "stats.json": _sha256(stats / "stats.json"),
    }
    for name in EVALS:
        for file in ("records.jsonl", "summary.json"):
            digests[f"{name}/{file}"] = _sha256(root / name / file)
    errors = gradient_suite(n_episodes=2)
    blas = harness.blas_runtime()
    return {
        "key": [np.__version__, blas["blas_core"], platform.machine()],
        "digests": digests,
        "grad_errors": {name: float(err).hex() for name, err in sorted(errors.items())},
    }


def test_artifact_digests(tmp_path):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, __file__, str(tmp_path)],
                         env=env, capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr
    got = json.loads(run.stdout.splitlines()[-1])
    key = tuple(got["key"])
    if key not in EXPECTED:
        warnings.warn(f"no pinned artifact digests for {key}; compared nothing")
        return
    want = EXPECTED[key]
    assert got["digests"] == want["digests"]
    assert got["grad_errors"] == want["grad_errors"]


if __name__ == "__main__":
    print(json.dumps(collect(Path(sys.argv[1]))))
