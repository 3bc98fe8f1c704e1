"""Command-line entry point.

Subcommands: gen-data, pretrain, compute-stats, adapt, eval, ablate,
grad-check. Global flags ``--seed``, ``--config`` (flat key=value file) and
``--out``. Precedence: built-in defaults < config file < command-line flags.
Exit codes: 0 success, 1 usage error, 2 data or compatibility error.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from . import harness, model as model_mod, stats as stats_mod, tta
from .errors import TTAlignError
from .harness import GenConfig, ShiftSpec
from .model import DualEncoder, ModelConfig, PromptState
from .tta import TTAConfig


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with 2; spec wants 1
        raise _UsageError(message)


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


def _coerce(key: str, raw: str, default):
    if key == "align_layers":
        return tuple(int(x) for x in raw.split(",") if x)
    if key == "class_names":
        return tuple(x for x in raw.split(",") if x)
    if isinstance(default, bool):
        if raw.lower() in ("1", "true", "yes", "on"):
            return True
        if raw.lower() in ("0", "false", "no", "off"):
            return False
        raise _UsageError(f"bad boolean for {key}: {raw!r}")
    if isinstance(default, int):
        return int(raw)
    if isinstance(default, float):
        return float(raw)
    return raw


def _config_overrides(cls, kv: dict[str, str]) -> dict:
    defaults = cls()
    out = {}
    for f in dataclasses.fields(cls):
        if f.name in kv:
            out[f.name] = _coerce(f.name, kv[f.name], getattr(defaults, f.name))
    return out


def _build_model_config(kv: dict[str, str]) -> ModelConfig:
    return ModelConfig(**_config_overrides(ModelConfig, kv))


def _build_tta_config(kv: dict[str, str], args) -> TTAConfig:
    overrides = _config_overrides(TTAConfig, kv)
    flag_map = {
        "beta": args.beta,
        "n_views": args.n_views,
        "filter_ratio": args.filter_ratio,
        "learning_rate": args.learning_rate,
        "n_steps": args.n_steps,
        "align_loss": args.align_loss,
        "mode": args.tta_mode,
        "prompt_reg_lambda": args.prompt_reg_lambda,
        "optimizer": args.optimizer,
        "weight_decay": args.weight_decay,
    }
    for key, val in flag_map.items():
        if val is not None:
            overrides[key] = val
    if args.align_layers is not None:
        overrides["align_layers"] = _coerce("align_layers", args.align_layers, ())
    if args.freeze_coupling:
        overrides["update_coupling"] = False
    if args.include_cls_in_stats:
        overrides["include_cls_in_stats"] = True
    if args.seed is not None:
        overrides["seed"] = args.seed
    return TTAConfig(**overrides)


def _add_tta_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--n-views", type=int, default=None, dest="n_views")
    p.add_argument("--filter-ratio", type=float, default=None, dest="filter_ratio")
    p.add_argument("--lr", "--learning-rate", type=float, default=None, dest="learning_rate")
    p.add_argument("--n-steps", type=int, default=None, dest="n_steps")
    p.add_argument("--align-layers", type=str, default=None, dest="align_layers",
                   help="comma-separated 1-indexed layers, e.g. 1,2,3")
    p.add_argument("--align-loss", type=str, default=None, dest="align_loss",
                   help="l1 | l2 | kl | cmd-K")
    p.add_argument("--tta-mode", type=str, default=None, dest="tta_mode",
                   choices=("episodic", "continuous"))
    p.add_argument("--prompt-reg-lambda", type=float, default=None, dest="prompt_reg_lambda")
    p.add_argument("--optimizer", type=str, default=None, choices=("adamw", "sgd"))
    p.add_argument("--weight-decay", type=float, default=None, dest="weight_decay")
    p.add_argument("--freeze-coupling", action="store_true", dest="freeze_coupling")
    p.add_argument("--include-cls-in-stats", action="store_true", dest="include_cls_in_stats")
    p.add_argument("--prompt-seed", type=int, default=0, dest="prompt_seed")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--limit", type=int, default=None)


def _build_parser() -> _Parser:
    parser = _Parser(prog="ttalign", description=__doc__)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--config", type=str, default=None, help="flat key=value file")
    parser.add_argument("--out", type=str, default="out")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate synthetic source/val/test datasets")
    p.add_argument("--n-source", type=int, default=None, dest="n_source")
    p.add_argument("--n-test", type=int, default=None, dest="n_test")
    p.add_argument("--noise-sigma", type=float, default=None, dest="noise_sigma")
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


def _parse_axis_values(axis: str, raw: str):
    parts = [x for x in raw.split(",") if x]
    if axis in ("beta", "prompt_reg_lambda"):
        return [float(x) for x in parts]
    if axis in ("n_views", "n_steps"):
        return [int(x) for x in parts]
    if axis == "align_layers":
        return [tuple(int(y) for y in x.split("+")) for x in parts]
    return parts  # align_loss, mode


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
    kv = _parse_config_file(args.config) if args.config else {}
    os.makedirs(args.out, exist_ok=True)

    if args.command == "gen-data":
        overrides = _config_overrides(GenConfig, kv)
        for key in ("n_source", "n_test", "noise_sigma"):
            val = getattr(args, key)
            if val is not None:
                overrides[key] = val
        overrides["shift"] = ShiftSpec(kind=args.shift_kind, magnitude=args.shift_magnitude)
        config = GenConfig(**overrides)
        source, test = harness.gen_synthetic(config, args.seed)
        val = harness.gen_source_val(config, args.seed)
        harness.save_dataset(source, os.path.join(args.out, "source"))
        harness.save_dataset(val, os.path.join(args.out, "val"))
        harness.save_dataset(test, os.path.join(args.out, "test"))
        print(f"wrote {source.meta.n_samples} source / {val.meta.n_samples} val / "
              f"{test.meta.n_samples} test samples to {args.out}")
        return 0

    if args.command == "pretrain":
        bundle = harness.load_dataset(args.data)
        cfg_kv = dict(kv)
        cfg_kv.setdefault("class_names", ",".join(bundle.meta.class_names))
        cfg_kv.setdefault("image_size", str(bundle.meta.height))
        cfg_kv.setdefault("channels", str(bundle.meta.channels))
        config = _build_model_config(cfg_kv)
        mdl = DualEncoder(config, seed=args.seed)
        history = model_mod.pretrain_backbone(
            mdl, bundle.images, bundle.labels,
            epochs=args.epochs, seed=args.seed, lr=args.lr, batch_size=args.batch_size,
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
        mdl = model_mod.load_checkpoint(args.ckpt)
        bundle = harness.load_dataset(args.data)
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
        mdl = model_mod.load_checkpoint(args.ckpt)
        config = _build_tta_config(kv, args)
        stats = _load_stats_checked(args, mdl, config)
        bundle = harness.load_dataset(args.data)

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

        values = _parse_axis_values(args.axis, args.values)
        result = harness.run_ablation(
            mdl, bundle, stats, config, args.axis, values,
            prompt_seed=args.prompt_seed, workers=args.workers, limit=args.limit,
        )
        harness.write_ablation(result, args.out)
        print(harness.format_ablation_table(result))
        return 0

    if args.command == "grad-check":
        errors = tta.gradient_suite(n_episodes=args.episodes, seed=args.seed, step=args.step)
        worst = max(errors.values())
        for name, err in sorted(errors.items()):
            print(f"{name:>12}: max relative error {err:.3e}")
        print(f"{'overall':>12}: max relative error {worst:.3e}")
        return 0 if worst < 1e-4 else 2

    raise _UsageError(f"unknown command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
