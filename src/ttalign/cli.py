"""Command-line entry point.

Subcommands: gen-data, pretrain, compute-stats, adapt, eval, ablate,
grad-check. Global flags ``--seed``, ``--config`` (flat key=value file) and
``--out``. Precedence: built-in defaults < config file < command-line flags.
Every value, from the file, a flag or ``ablate --values``, takes the type of
its field's default in ModelConfig, TTAConfig or GenConfig. Commands that
load a checkpoint take the model from it: a ModelConfig key that disagrees
with the checkpoint's, or a dataset whose image size, channels or class names
differ from the checkpoint's, is an error.
Exit codes: 0 success; 1 usage error (unknown command or flag, a config
line without ``=``); 2 bad config key or value, data or compatibility error.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from . import harness, model as model_mod, stats as stats_mod, tta
from .errors import ConfigurationError, TTAlignError
from .harness import GenConfig, ShiftSpec
from .model import DualEncoder, ModelConfig, PromptState
from .tta import TTAConfig


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with 2; spec wants 1
        raise _UsageError(message)


# Every config key and its default. A key shared by two classes (class_names,
# image_size, channels) has the same type in both.
_DEFAULTS = {
    f.name: f.default
    for cls in (ModelConfig, TTAConfig, GenConfig)
    for f in dataclasses.fields(cls)
}
_BOOLS = {
    **dict.fromkeys(("1", "true", "yes", "on"), True),
    **dict.fromkeys(("0", "false", "no", "off"), False),
}

# The flags that set a config field: (flag names, class, field, extra
# add_argument options). Flag values are strings that _coerce parses like
# config-file values; a store_const flag sets its field to the constant.
_FLAGS = (
    (("--beta",), TTAConfig, "beta", {}),
    (("--n-views",), TTAConfig, "n_views", {}),
    (("--filter-ratio",), TTAConfig, "filter_ratio", {}),
    (("--lr", "--learning-rate"), TTAConfig, "learning_rate", {}),
    (("--n-steps",), TTAConfig, "n_steps", {}),
    (("--align-layers",), TTAConfig, "align_layers", {"help": "comma-separated, e.g. 1,2,3"}),
    (("--align-loss",), TTAConfig, "align_loss", {"help": "l1 | l2 | kl | cmd-K"}),
    (("--tta-mode",), TTAConfig, "mode", {}),
    (("--prompt-reg-lambda",), TTAConfig, "prompt_reg_lambda", {}),
    (("--optimizer",), TTAConfig, "optimizer", {}),
    (("--weight-decay",), TTAConfig, "weight_decay", {}),
    (("--freeze-coupling",), TTAConfig, "update_coupling",
     {"action": "store_const", "const": "false"}),
    (("--include-cls-in-stats",), TTAConfig, "include_cls_in_stats",
     {"action": "store_const", "const": "true"}),
    (("--n-source",), GenConfig, "n_source", {}),
    (("--n-test",), GenConfig, "n_test", {}),
    (("--noise-sigma",), GenConfig, "noise_sigma", {}),
)


def _parse_config_file(path: str) -> dict[str, str]:
    kv: dict[str, str] = {}
    try:
        with open(path) as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise _UsageError(f"{path}:{lineno}: expected key=value")
                key, val = line.split("=", 1)
                kv[key.strip()] = val.strip()
    except OSError as exc:
        raise _UsageError(f"cannot read config file: {exc}") from exc
    return kv


def _coerce(key: str, raw: str):
    """Parse ``raw`` as the type of config field ``key``'s default; a tuple
    default takes a comma list of its element type."""
    if key not in _DEFAULTS:
        raise ConfigurationError(f"unknown config key {key!r}")
    default = _DEFAULTS[key]
    try:
        if isinstance(default, tuple):
            return tuple(type(default[0])(x) for x in raw.split(",") if x)
        if isinstance(default, bool):
            return _BOOLS[raw.lower()]
        if isinstance(default, (int, float, str)):
            return type(default)(raw)
    except (KeyError, ValueError) as exc:
        raise ConfigurationError(f"bad value for {key}: {raw!r}") from exc
    raise ConfigurationError(f"{key} cannot be set from a flag or config file")


def _config_values(args) -> dict:
    """Parsed config values: the config file, then every flag given."""
    kv = _parse_config_file(args.config) if args.config else {}
    for key in ("seed", *(field for _, _, field, _ in _FLAGS)):
        if getattr(args, key, None) is not None:
            kv[key] = getattr(args, key)
    return {key: _coerce(key, raw) for key, raw in kv.items()}


def _build(cls, values: dict):
    return cls(**{f.name: values[f.name] for f in dataclasses.fields(cls) if f.name in values})


def _add_config_flags(p: argparse.ArgumentParser, cls) -> None:
    for names, owner, field, extra in _FLAGS:
        if owner is cls:
            p.add_argument(*names, dest=field, **extra)


def _add_tta_flags(p: argparse.ArgumentParser) -> None:
    _add_config_flags(p, TTAConfig)
    p.add_argument("--prompt-seed", type=int, default=0, dest="prompt_seed")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--limit", type=int, default=None)


def _build_parser() -> _Parser:
    parser = _Parser(prog="ttalign", description=__doc__)
    parser.add_argument("--seed", default=None)
    parser.add_argument("--config", type=str, default=None, help="flat key=value file")
    parser.add_argument("--out", type=str, default="out")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate synthetic source/val/test datasets")
    _add_config_flags(p, GenConfig)
    p.add_argument("--shift-kind", type=str, default="mean-offset",
                   choices=harness.SHIFT_KINDS, dest="shift_kind")
    p.add_argument("--shift-magnitude", type=float, default=0.0, dest="shift_magnitude")

    p = sub.add_parser("pretrain", help="train and freeze the backbone")
    p.add_argument("--data", type=str, required=True, help="source dataset directory")
    p.add_argument("--val-data", type=str, default=None, dest="val_data")
    p.add_argument("--epochs", type=int, default=8)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--batch-size", type=int, default=32, dest="batch_size")

    p = sub.add_parser("compute-stats", help="precompute source token statistics")
    p.add_argument("--ckpt", type=str, required=True)
    p.add_argument("--data", type=str, required=True)
    p.add_argument("--max-order", type=int, default=2, dest="max_order")
    p.add_argument("--include-cls", action="store_true", dest="include_cls")

    p = sub.add_parser("adapt", help="adapt to a single sample, verbose losses")
    p.add_argument("--ckpt", type=str, required=True)
    p.add_argument("--data", type=str, required=True)
    p.add_argument("--stats", type=str, default=None)
    p.add_argument("--index", type=int, default=0)
    _add_tta_flags(p)

    p = sub.add_parser("eval", help="run adaptation over a dataset")
    p.add_argument("--ckpt", type=str, required=True)
    p.add_argument("--data", type=str, required=True)
    p.add_argument("--stats", type=str, default=None)
    _add_tta_flags(p)

    p = sub.add_parser("ablate", help="sweep one config axis")
    p.add_argument("--ckpt", type=str, required=True)
    p.add_argument("--data", type=str, required=True)
    p.add_argument("--stats", type=str, default=None)
    p.add_argument("--axis", type=str, required=True)
    p.add_argument("--values", type=str, required=True,
                   help="comma-separated; tuple values use '+', e.g. 1+2+3,1+2")
    _add_tta_flags(p)

    p = sub.add_parser("grad-check", help="finite-difference gradient suite")
    p.add_argument("--episodes", type=int, default=20)
    p.add_argument("--step", type=float, default=1e-5)

    return parser


def _load_model_and_data(args, kv: dict):
    """The checkpoint and dataset of a run, checked against each other and
    against the ModelConfig keys of the config values."""
    mdl = model_mod.load_checkpoint(args.ckpt)
    for f in dataclasses.fields(ModelConfig):
        if f.name in kv and kv[f.name] != getattr(mdl.config, f.name):
            raise ConfigurationError(
                f"config sets {f.name}={kv[f.name]!r}, but the checkpoint has "
                f"{getattr(mdl.config, f.name)!r}"
            )
    bundle = harness.load_dataset(args.data)
    harness.check_dataset_fits(mdl.config, bundle.meta)
    return mdl, bundle


def _load_stats_checked(args, model: DualEncoder, config: TTAConfig):
    if args.stats is None:
        if config.beta > 0.0:
            raise TTAlignError(
                "beta > 0 requires --stats (precomputed source statistics); "
                "pass --stats or set --beta 0 for the entropy-only path"
            )
        return None
    return stats_mod.load_stats(args.stats, expected_model_hash=model.frozen_hash())


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1

    try:
        return _dispatch(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except TTAlignError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    kv = _config_values(args)
    seed = kv.get("seed", TTAConfig.seed)
    os.makedirs(args.out, exist_ok=True)

    if args.command == "gen-data":
        kv["shift"] = ShiftSpec(kind=args.shift_kind, magnitude=args.shift_magnitude)
        config = _build(GenConfig, kv)
        source, test = harness.gen_synthetic(config, seed)
        val = harness.gen_source_val(config, seed)
        harness.save_dataset(source, os.path.join(args.out, "source"))
        harness.save_dataset(val, os.path.join(args.out, "val"))
        harness.save_dataset(test, os.path.join(args.out, "test"))
        print(f"wrote {source.meta.n_samples} source / {val.meta.n_samples} val / "
              f"{test.meta.n_samples} test samples to {args.out}")
        return 0

    if args.command == "pretrain":
        bundle = harness.load_dataset(args.data)
        kv.setdefault("class_names", bundle.meta.class_names)
        kv.setdefault("image_size", bundle.meta.height)
        kv.setdefault("channels", bundle.meta.channels)
        mdl = DualEncoder(_build(ModelConfig, kv), seed=seed)
        harness.check_dataset_fits(mdl.config, bundle.meta)
        history = model_mod.pretrain_backbone(
            mdl, bundle.images, bundle.labels,
            epochs=args.epochs, seed=seed, lr=args.lr, batch_size=args.batch_size,
        )
        ckpt = os.path.join(args.out, "checkpoint.bin")
        model_mod.save_checkpoint(mdl, ckpt)
        print(f"pretrained {args.epochs} epochs, final loss {history[-1]:.4f}")
        if args.val_data:
            val = harness.load_dataset(args.val_data)
            acc = harness.zero_shot_top1(mdl, val, prompt_seed=None)
            print(f"source-val top1 (no prompts): {acc:.4f}")
        print(f"wrote {ckpt} (hash {mdl.frozen_hash()[:12]}...)")
        return 0

    if args.command == "compute-stats":
        mdl, bundle = _load_model_and_data(args, kv)
        stats = stats_mod.source_stats(
            bundle.images, mdl,
            max_order=args.max_order,
            dataset_id=f"{bundle.meta.split}:{bundle.meta.n_samples}",
            include_cls=args.include_cls,
        )
        path = os.path.join(args.out, "stats.bin")
        stats_mod.save_stats(stats, path)
        stats_mod.write_stats_json(stats, os.path.join(args.out, "stats.json"))
        print(f"wrote {path} ({stats.n_layers} layers, dim {stats.dim}, "
              f"max order {stats.max_order})")
        return 0

    if args.command in ("adapt", "eval", "ablate"):
        mdl, bundle = _load_model_and_data(args, kv)
        config = _build(TTAConfig, kv)
        stats = _load_stats_checked(args, mdl, config)

        if args.command == "adapt":
            idx = args.index
            if not 0 <= idx < bundle.meta.n_samples:
                raise _UsageError(f"--index {idx} outside dataset of {bundle.meta.n_samples}")
            prompts = PromptState(mdl.config, seed=args.prompt_seed)
            episode = tta.adapt_and_predict(
                bundle.images[idx].astype(np.float64), mdl, prompts, stats, config,
                view_seed=harness._mix_seed(config.seed, idx),
            )
            label = int(bundle.labels[idx])
            print(f"sample {idx}: label={label} predicted={episode.predicted} "
                  f"({'correct' if episode.predicted == label else 'wrong'})")
            for s, (le, la, lf) in enumerate(
                zip(episode.entropy_losses, episode.align_losses, episode.final_losses)
            ):
                print(f"  step {s}: entropy={le:.6f} align={la:.6f} final={lf:.6f} "
                      f"kept={episode.kept_views[s]}")
            print("  probs: " + " ".join(f"{p:.4f}" for p in episode.probs))
            return 0

        if args.command == "eval":
            report = harness.run_eval(
                mdl, bundle, stats, config,
                prompt_seed=args.prompt_seed, workers=args.workers, limit=args.limit,
            )
            harness.write_report(report, args.out)
            print(f"top1 {report.top1:.4f} on {report.n_samples} samples "
                  f"({report.runtime_s:.1f}s); report in {args.out}")
            return 0

        values = [_coerce(args.axis, v.replace("+", ",")) for v in args.values.split(",") if v]
        result = harness.run_ablation(
            mdl, bundle, stats, config, args.axis, values,
            prompt_seed=args.prompt_seed, workers=args.workers, limit=args.limit,
        )
        harness.write_ablation(result, args.out)
        print(harness.format_ablation_table(result))
        return 0

    if args.command == "grad-check":
        errors = tta.gradient_suite(n_episodes=args.episodes, seed=seed, step=args.step)
        worst = max(errors.values())
        for name, err in sorted(errors.items()):
            print(f"{name:>12}: max relative error {err:.3e}")
        print(f"{'overall':>12}: max relative error {worst:.3e}")
        return 0 if worst < 1e-4 else 2

    raise _UsageError(f"unknown command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
