"""Per-layer probes and the metrics a traced run derives from them.

Layers are ttalign's modules. Each probe wraps the name its caller looks up,
so the package itself is not modified. ``PER_LAYER`` is the metric list that
BENCHMARK.json repeats; README.md gives, for each metric, the end-to-end
metric it should move and the workloads on which it is predicted flat.

Unit of normalisation: a metric of the timed phase is per sample (one test
episode, one source image or one gradient-check episode). A ``.ms`` metric of
a function that runs only during set-up is per set-up.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from tracing import SETUP, Tracer

LAYERS = ("autodiff", "model", "augment", "stats", "tta", "optim", "harness")

# name -> (unit, better)
PER_LAYER = {
    "autodiff.backward.ms": ("ms", "lower"),
    "autodiff.backward.calls": ("count", "lower"),
    "autodiff.tape_nodes": ("count", "lower"),
    "autodiff.tape_mb": ("MiB", "lower"),
    "autodiff.grad_check_many.ms": ("ms", "lower"),
    "autodiff.fd_evals": ("count", "lower"),
    "autodiff.self_ms": ("ms", "lower"),
    "model.encode_image.ms": ("ms", "lower"),
    "model.encode_image.calls": ("count", "lower"),
    "model.encode_image.rows": ("count", "lower"),
    "model.encode_text.ms": ("ms", "lower"),
    "model.encode_text.calls": ("count", "lower"),
    "model.classify.ms": ("ms", "lower"),
    "model.pretrain_backbone.ms": ("ms", "lower"),
    "model.load_checkpoint.ms": ("ms", "lower"),
    "model.self_ms": ("ms", "lower"),
    "augment.generate_views.ms": ("ms", "lower"),
    "augment.views": ("count", "lower"),
    "augment.self_ms": ("ms", "lower"),
    "stats.view_stats.ms": ("ms", "lower"),
    "stats.source_stats.ms": ("ms", "lower"),
    "stats.running_moments_add.ms": ("ms", "lower"),
    "stats.load_stats.ms": ("ms", "lower"),
    "stats.self_ms": ("ms", "lower"),
    "tta.adapt_and_predict.self_ms": ("ms", "lower"),
    "tta.align_loss.ms": ("ms", "lower"),
    "tta.entropy_loss.ms": ("ms", "lower"),
    "tta.confidence_filter.ms": ("ms", "lower"),
    "tta.kept_view_ratio": ("ratio", "higher"),
    "tta.self_ms": ("ms", "lower"),
    "optim.step.ms": ("ms", "lower"),
    "optim.step.calls": ("count", "lower"),
    "optim.self_ms": ("ms", "lower"),
    "harness.run_eval.self_ms": ("ms", "lower"),
    "harness.gen_synthetic.ms": ("ms", "lower"),
    "harness.load_dataset.ms": ("ms", "lower"),
    "harness.self_ms": ("ms", "lower"),
    "trace.self_ms": ("ms", "lower"),
    "trace.untraced_sample_ms": ("ms", "lower"),
    "trace.traced_sample_ms": ("ms", "lower"),
    "trace.overhead_pct": ("%", "lower"),
}

# Counts that must repeat exactly between two traced runs of one seed.
EXACT_COUNTS = (
    "augment.views",
    "model.encode_image.rows",
    "autodiff.tape_nodes",
    "autodiff.fd_evals",
    "optim.step.calls",
    "tta.kept_view_ratio",
)


def tape_size(loss) -> tuple[int, int]:
    """Grad-carrying nodes reachable from ``loss`` and the bytes of their values."""
    if not loss.requires_grad:
        return 0, 0
    seen: set[int] = set()
    stack = [loss]
    nodes = nbytes = 0
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        nodes += 1
        nbytes += node.data.nbytes
        stack.extend(p for p in node._parents if p.requires_grad)
    return nodes, nbytes


def _arg(args, kwargs, position: int, name: str):
    return args[position] if len(args) > position else kwargs[name]


def register(tracer: Tracer) -> None:
    """Declare every probe; ``tracer.install()`` puts them in place."""
    from ttalign import autodiff, harness, model, optim, stats, tta

    def walk_tape(tr, args, kwargs):
        walk = tr.open("trace.tape_walk")
        nodes, nbytes = tape_size(_arg(args, kwargs, 0, "loss"))
        tr.close(walk)
        tr.count("autodiff.tape_nodes", nodes)
        tr.count("autodiff.tape_bytes", nbytes)
        return args, kwargs

    def count_evals(tr, args, kwargs):
        f = _arg(args, kwargs, 0, "f")

        def counted():
            tr.count("autodiff.fd_evals")
            return f()

        kwargs = {k: v for k, v in kwargs.items() if k != "f"}
        return (counted,) + tuple(args[1:]), kwargs

    def image_rows(tr, args, kwargs, result):
        image = _arg(args, kwargs, 1, "image")
        rows = 1 if np.ndim(image) == 3 else int(np.shape(image)[0])
        tr.count("model.encode_image.rows", rows)
        if result[0].requires_grad:
            tr.count("taped_rows", rows)

    def views(tr, args, kwargs, result):
        tr.count("augment.views", result.n_views)

    def kept(tr, args, kwargs, result):
        if result.requires_grad:
            tr.count("kept_views", len(_arg(args, kwargs, 1, "kept_indices")))

    probes = [
        (autodiff, "backward", "autodiff.backward", walk_tape, None),
        (autodiff, "grad_check_many", "autodiff.grad_check_many", count_evals, None),
        (model.DualEncoder, "encode_image", "model.encode_image", None, image_rows),
        (model.DualEncoder, "encode_text", "model.encode_text", None, None),
        (tta, "classify", "model.classify", None, None),
        (model, "pretrain_backbone", "model.pretrain_backbone", None, None),
        (model, "load_checkpoint", "model.load_checkpoint", None, None),
        (tta, "generate_views", "augment.generate_views", None, views),
        (tta, "view_stats", "stats.view_stats", None, None),
        (tta, "source_stats", "stats.source_stats", None, None),
        (stats, "source_stats", "stats.source_stats", None, None),
        (stats.RunningMoments, "add", "stats.running_moments_add", None, None),
        (stats, "load_stats", "stats.load_stats", None, None),
        (harness, "adapt_and_predict", "tta.adapt_and_predict", None, None),
        (tta, "gradient_suite", "tta.gradient_suite", None, None),
        (tta, "align_loss", "tta.align_loss", None, None),
        (tta, "entropy_loss", "tta.entropy_loss", None, kept),
        (tta, "confidence_filter", "tta.confidence_filter", None, None),
        (optim.AdamW, "step", "optim.step", None, None),
        (harness, "run_eval", "harness.run_eval", None, None),
        (harness, "gen_synthetic", "harness.gen_synthetic", None, None),
        (harness, "load_dataset", "harness.load_dataset", None, None),
    ]
    for owner, attr, name, enter, leave in probes:
        tracer.probe(owner, attr, name, enter, leave)


def summarize(
    tracer: Tracer,
    n_samples: int,
    n_setups: int,
    untraced_s: float,
    traced_s: float,
) -> dict[str, float]:
    """Every metric in ``PER_LAYER`` from the spans and counters of a run."""
    timed_ms: dict[str, float] = defaultdict(float)
    setup_ms: dict[str, float] = defaultdict(float)
    self_ms: dict[str, float] = defaultdict(float)
    layer_self_ms: dict[str, float] = defaultdict(float)
    for name, op, incl, own in tracer.durations():
        if op == SETUP:
            setup_ms[name] += 1e3 * incl
        else:
            timed_ms[name] += 1e3 * incl
            self_ms[name] += 1e3 * own
            layer_self_ms[name.split(".", 1)[0]] += 1e3 * own
    counts: dict[str, float] = defaultdict(float)
    for (name, op), amount in tracer.counts.items():
        if op != SETUP:
            counts[name] += amount

    def per(value: float, base: float) -> float:
        return value / base if base else 0.0

    def ms(fn: str) -> float:
        if fn in timed_ms:
            return per(timed_ms[fn], n_samples)
        return per(setup_ms[fn], n_setups)

    backward_calls = counts["autodiff.backward.calls"]
    out: dict[str, float] = {}
    for metric in PER_LAYER:
        layer, rest = metric.split(".", 1)
        if rest == "self_ms":
            value = per(layer_self_ms[layer], n_samples)
        elif rest.endswith(".self_ms"):
            value = per(self_ms[metric[: -len(".self_ms")]], n_samples)
        elif rest.endswith(".ms"):
            value = ms(metric[: -len(".ms")])
        else:
            value = per(counts[metric], n_samples)
        out[metric] = value
    out["autodiff.tape_nodes"] = per(counts["autodiff.tape_nodes"], backward_calls)
    out["autodiff.tape_mb"] = per(counts["autodiff.tape_bytes"], backward_calls) / 2**20
    out["tta.kept_view_ratio"] = per(counts["kept_views"], counts["taped_rows"])
    out["trace.untraced_sample_ms"] = per(1e3 * untraced_s, n_samples)
    out["trace.traced_sample_ms"] = per(1e3 * traced_s, n_samples)
    out["trace.overhead_pct"] = 100.0 * per(traced_s - untraced_s, untraced_s)
    return out
