"""The benchmark's workloads: set-up, one timed operation, and output checks.

Each workload drives ttalign's public API in one thread. Set-up runs in two
parts: ``produce`` in a fresh interpreter (``produce.py``) writes the
artifacts a user would have on disk, then ``load`` reads them back in the measuring process, so the
measuring process's peak memory reflects the timed phase and not set-up.
Every input derives from the workload seed.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import replace

import numpy as np

import ttalign as tl
from ttalign import harness, model, stats, tta

CHECKPOINT = "checkpoint.bin"
STATS = "stats.bin"
DATASET = "data"


def _derive(seed: int, stream: int) -> int:
    """A 63-bit seed for one input stream of a workload seed."""
    digest = hashlib.sha256(f"{seed}:{stream}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


class AdaptAlign:
    """Episodic ``run_eval`` with the paper recipe on the acceptance toy model.

    One timed call is ``run_eval`` over one sample of the shifted test split,
    i.e. one ``adapt_and_predict`` episode including its final prediction.
    """

    name = "adapt-align"
    sample = "test episode"
    per_op = 1
    min_samples = 100  # so p90 has ten samples beyond it
    trace_ops = 12
    gen = harness.GenConfig(
        n_source=512,
        n_test=256,
        noise_sigma=0.25,
        shift=harness.ShiftSpec("mean-offset", 0.5),
    )
    recipe = tl.TTAConfig(
        beta=100.0,
        n_views=64,
        n_steps=1,
        align_layers=(1, 2, 3),
        align_loss="l1",
        learning_rate=5e-3,
        mode="episodic",
    )

    def __init__(self, seed: int):
        self.seed = seed

    @classmethod
    def produce(cls, seed: int, out: str) -> None:
        source, test = harness.gen_synthetic(cls.gen, seed=_derive(seed, 0))
        net = tl.DualEncoder(tl.ModelConfig(), seed=_derive(seed, 1))
        model.pretrain_backbone(
            net, source.images, source.labels,
            epochs=6, seed=_derive(seed, 2), lr=1e-3, batch_size=32,
        )
        src = stats.source_stats(source.images, net, dataset_id="toy-source")
        tl.save_checkpoint(net, os.path.join(out, CHECKPOINT))
        tl.save_stats(src, os.path.join(out, STATS))
        tl.save_dataset(test, os.path.join(out, DATASET))

    def load(self, out: str) -> None:
        self.model = model.load_checkpoint(os.path.join(out, CHECKPOINT))
        self.stats = stats.load_stats(
            os.path.join(out, STATS), expected_model_hash=self.model.frozen_hash()
        )
        self.test = harness.load_dataset(os.path.join(out, DATASET))

    def op(self, i: int):
        j = i % self.test.meta.n_samples
        one = harness.DatasetBundle(
            meta=replace(self.test.meta, n_samples=1),
            images=self.test.images[j : j + 1],
            labels=self.test.labels[j : j + 1],
        )
        config = replace(self.recipe, seed=_derive(self.seed, 1000 + j))
        return harness.run_eval(self.model, one, self.stats, config, prompt_seed=0, workers=1)

    @staticmethod
    def failures(report) -> int:
        bad = 0
        for record in report.records:
            probs = np.asarray(record["probs"], dtype=np.float64)
            ok = (
                probs.shape == (AdaptAlign.gen.n_classes,)
                and bool(np.all(np.isfinite(probs)))
                and abs(float(np.sum(probs)) - 1.0) <= 1e-12
                and record["predicted"] == int(np.argmax(probs))
                and record["correct"] == (record["predicted"] == record["label"])
            )
            bad += not ok
        return bad

    @staticmethod
    def fingerprint(report) -> str:
        return json.dumps([report.summary_dict(), report.records], sort_keys=True)

    @classmethod
    def score(cls, reports) -> dict:
        """Top-1 over the first ``min_samples`` episodes, which every run completes."""
        records = [r for rep in reports for r in rep.records][: cls.min_samples]
        return {"top1": sum(r["correct"] for r in records) / len(records), "top1_n": len(records)}

    def final_check(self) -> int:
        return 0


class SourceStatsSweep:
    """``source_stats`` of a default-size frozen model over a source split.

    The split holds 2048 images; one timed call covers the next 32 of them, so
    the timed phase sweeps the split in order and wraps around.
    """

    name = "source-stats"
    sample = "source image"
    min_samples = 1
    trace_ops = 16
    block = per_op = 32
    n_images = 2048

    def __init__(self, seed: int):
        self.seed = seed

    @classmethod
    def produce(cls, seed: int, out: str) -> None:
        gen = harness.GenConfig(n_source=cls.n_images, n_test=0)
        source, _ = harness.gen_synthetic(gen, seed=_derive(seed, 0))
        # Cost does not depend on the weights, so the model stays untrained.
        net = tl.DualEncoder(tl.ModelConfig(), seed=_derive(seed, 1))
        net.freeze()
        tl.save_checkpoint(net, os.path.join(out, CHECKPOINT))
        tl.save_dataset(source, os.path.join(out, DATASET))

    def load(self, out: str) -> None:
        self.model = model.load_checkpoint(os.path.join(out, CHECKPOINT))
        self.source = harness.load_dataset(os.path.join(out, DATASET))

    def _images(self, i: int) -> np.ndarray:
        lo = (i * self.block) % self.n_images
        return self.source.images[lo : lo + self.block]

    def op(self, i: int):
        return stats.source_stats(self._images(i), self.model, dataset_id=f"block-{i}")

    def failures(self, result) -> int:
        ok = (
            result.sample_count == self.block
            and result.model_hash == self.model.frozen_hash()
            and all(np.all(np.isfinite(m)) for m in result.mu)
            and all(np.all(np.isfinite(v)) and np.all(v >= 0.0) for v in result.var)
        )
        return 0 if ok else self.block

    @staticmethod
    def fingerprint(result) -> str:
        return hashlib.sha256(
            b"".join(a.tobytes() for a in result.mu + result.var)
        ).hexdigest()

    @staticmethod
    def score(results) -> dict:
        return {}

    def final_check(self) -> int:
        """Streaming stats of the first block against a two-pass numpy oracle.

        The oracle runs over the same token matrices, read from a prompt-free
        forward of each image; 1e-10 is acceptance criterion 4's tolerance.
        """
        images = self._images(0)
        result = stats.source_stats(images, self.model)
        idx = self.model.token_indices(prompted=False)
        layers = None
        with tl.no_grad():
            for img in images.astype(np.float64):
                _, tokens = self.model.encode_image(img)
                rows = [t.data[:, idx].reshape(-1, t.shape[-1]) for t in tokens]
                layers = rows if layers is None else [
                    np.concatenate([a, b]) for a, b in zip(layers, rows)
                ]
        worst = 0.0
        for layer, x in enumerate(layers):
            mu = x.sum(axis=0) / x.shape[0]
            var = ((x - mu) ** 2).sum(axis=0) / x.shape[0]
            worst = max(
                worst,
                float(np.max(np.abs(result.mu[layer] - mu))),
                float(np.max(np.abs(result.var[layer] - var))),
            )
        return 0 if worst < 1e-10 else self.block


class GradSuite:
    """``gradient_suite`` on its own small config, one episode per call."""

    name = "grad-suite"
    sample = "gradient-check episode"
    per_op = 1
    min_samples = 5  # one call takes seconds; fewer would leave p90 at the maximum
    trace_ops = 2

    def __init__(self, seed: int):
        self.seed = seed

    @classmethod
    def produce(cls, seed: int, out: str) -> None:
        """Nothing to write: ``gradient_suite`` builds its model per call."""

    def load(self, out: str) -> None:
        pass

    def op(self, i: int):
        return tta.gradient_suite(n_episodes=1, seed=_derive(self.seed, 1000 + i))

    @staticmethod
    def failures(errors) -> int:
        worst = max(errors.values())
        # grad-check's own exit rule
        return 0 if np.isfinite(worst) and worst < 1e-4 else 1

    @staticmethod
    def fingerprint(errors) -> str:
        return json.dumps(errors, sort_keys=True)

    @staticmethod
    def score(results) -> dict:
        return {"max_rel_error": max(max(e.values()) for e in results)}

    def final_check(self) -> int:
        return 0


WORKLOADS = {w.name: w for w in (AdaptAlign, SourceStatsSweep, GradSuite)}

