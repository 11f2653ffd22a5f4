"""Command-line interface: gen, train, eval, ablate, sweep.

Exit codes: 0 success, 2 usage, configuration, input or output problem, 3 numeric
failure during training, 130 interrupted (Ctrl-C). Every command's outputs
are reproducible from its arguments and seed.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

from . import __version__
from .data import SynthSpec, generate_dataset, load_dataset, save_dataset
from .errors import ConfigError, DataError, MetricError, TrainingError
from .recordio import replacing
from .students import ArchConfig
from .trainer import TrainConfig, evaluate, load_checkpoint, run_training

# config keys -------------------------------------------------------------
#
# Keys are the field names of TrainConfig and ArchConfig. Each key parses as
# the type of its default. input_hw is not a key: the training data decides
# it.

def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("1", "true", "on", "yes"):
        return True
    if low in ("0", "false", "off", "no"):
        return False
    raise ConfigError(f"expected a boolean, got {raw!r}")


def _parse_ints(raw: str) -> tuple:
    return tuple(int(v) for v in raw.split(","))


def _flatten(cfg):
    """(key, value) pairs of a config dataclass."""
    return [(f.name, getattr(cfg, f.name)) for f in fields(cfg) if f.name != "input_hw"]


def _build(cls, values, **fixed):
    """A config dataclass from key values; absent keys keep defaults."""
    return cls(**fixed, **{f.name: values[f.name] for f in fields(cls) if f.name in values})


_PARSERS = {bool: _parse_bool, int: int, float: float, tuple: _parse_ints}
_KEYS = {key: _PARSERS[type(value)] for cfg in (TrainConfig(), ArchConfig()) for key, value in _flatten(cfg)}
# keys that are also command-line flags; booleans become --x / --no-x
_FLAG_KEYS = ("seed", "steps", "batch_size", "alpha", "beta", "gamma", "eval_every", "checkpoint_every", "sgd_lr", "adamw_lr", "region_bsd_on")


def parse_config_file(path) -> dict:
    """Line-based `key = value` with # comments; unknown keys are errors."""
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    values = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected `key = value`, got {line!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in _KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            values[key] = _KEYS[key](raw)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value {raw!r} for {key!r}") from exc
    return values


def resolve_configs(args, input_hw) -> tuple:
    """(ArchConfig, TrainConfig): defaults, then the --config file, then flags."""
    values = parse_config_file(args.config) if args.config else {}
    values.update({key: getattr(args, key) for key in _FLAG_KEYS if getattr(args, key) is not None})
    return _build(ArchConfig, values, input_hw=input_hw), _build(TrainConfig, values)


def build_tag() -> str:
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True,
            text=True,
            timeout=5,
            cwd=Path(__file__).resolve().parent,
        )
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return f"codistill-{__version__}"


def write_manifest(path, acfg, tcfg, meta) -> None:
    """The resolved configuration as a valid --config file; meta lines are comments."""
    lines = [f"# {key} = {value}" for key, value in {"build_tag": build_tag(), **meta}.items()]
    for key, value in (*_flatten(tcfg), *_flatten(acfg)):
        lines.append(f"{key} = {','.join(map(str, value)) if isinstance(value, tuple) else value}")
    with replacing(path) as fh:
        fh.write(("\n".join(lines) + "\n").encode("utf-8"))


def _out_dir(path) -> Path:
    """The --out directory, created with its parents if missing."""
    path = Path(path)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {path}: {exc.strerror or exc}") from exc
    return path


# commands ---------------------------------------------------------------

def cmd_gen(args) -> int:
    spec = SynthSpec(
        height=args.size,
        width=args.size,
        num_classes=args.classes,
        min_shapes=args.min_shapes,
        max_shapes=args.max_shapes,
        noise=args.noise,
        seed=args.seed,
    )
    save_dataset(args.out, generate_dataset(spec, args.n))
    print(f"wrote {args.n} samples to {args.out}")
    return 0


def _check_image_hw(dataset, where, hw) -> None:
    h, w = dataset[0][0].shape[1:]
    if (h, w) != hw:
        raise DataError(f"{where}: images are {h}x{w}, expected {hw[0]}x{hw[1]}")


def _prepare(args) -> tuple:
    """((train set, eval set or None), ArchConfig, TrainConfig) for a training command."""
    train_set = load_dataset(args.data)
    hw = train_set[0][0].shape[1:]
    eval_set = load_dataset(args.eval_data) if args.eval_data else None
    if eval_set is not None:
        _check_image_hw(eval_set, args.eval_data, hw)
    return (train_set, eval_set), *resolve_configs(args, hw)


def _run_one_training(args, datasets, acfg, tcfg, out_dir):
    out_dir = _out_dir(out_dir)
    meta = {"data": args.data, "eval_data": args.eval_data or args.data, "out": out_dir}
    write_manifest(out_dir / "manifest.txt", acfg, tcfg, meta)
    return run_training(*datasets, acfg, tcfg, out_dir=out_dir)


def cmd_train(args) -> int:
    result = _run_one_training(args, *_prepare(args), args.out)
    print(f"final miou_c={result.miou_c:.9g} miou_v={result.miou_v:.9g}")
    return 0


def cmd_eval(args) -> int:
    ckpt = Path(args.checkpoint)
    if not ckpt.exists():
        raise ConfigError(f"checkpoint not found: {ckpt}")
    acfg, params_c, params_v, _ = load_checkpoint(ckpt)
    dataset = load_dataset(args.data)
    _check_image_hw(dataset, args.data, acfg.input_hw)
    miou_c, miou_v = evaluate(params_c, params_v, acfg, dataset)
    print(f"miou_c={miou_c:.9g} miou_v={miou_v:.9g}")
    return 0


_TOGGLE_GRID = [(h, r, p) for h in (False, True) for r in (False, True) for p in (False, True)]


def cmd_ablate(args) -> int:
    datasets, acfg, base = _prepare(args)
    out_dir = Path(args.out)
    rows = []
    for hfd, region, pixel in _TOGGLE_GRID:
        # a component is off when its weight is 0; region BSD keeps its toggle
        tcfg = replace(base, beta=base.beta if hfd else 0.0, alpha=base.alpha if pixel else 0.0, region_bsd_on=region)
        cell = out_dir / f"cell_hfd{int(hfd)}_r{int(region)}_p{int(pixel)}"
        result = _run_one_training(args, datasets, acfg, tcfg, cell)
        rows.append((hfd, region, pixel, result.miou_c, result.miou_v))
    base_sum = rows[0][3] + rows[0][4]  # all-off cell
    header = "hfd\tregion\tpixel\tmiou_c\tmiou_v\tdelta"
    lines = [header]
    for hfd, region, pixel, miou_c, miou_v in rows:
        delta = miou_c + miou_v - base_sum
        lines.append(f"{int(hfd)}\t{int(region)}\t{int(pixel)}\t{miou_c:.9g}\t{miou_v:.9g}\t{delta:.9g}")
    table = "\n".join(lines)
    (out_dir / "ablation.tsv").write_text(table + "\n")
    print(table)
    return 0


def cmd_sweep(args) -> int:
    datasets, acfg, base = _prepare(args)
    out_dir = Path(args.out)
    try:
        points = [float(v) for v in args.values.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"bad sweep values {args.values!r}: {exc}") from exc
    if not points:
        raise ConfigError("sweep needs at least one value")
    vanilla = replace(base, beta=0.0, gamma=0.0)
    cells = [(value, replace(base, **{args.param: value})) for value in points]  # every config is checked before any run
    result_v = _run_one_training(args, datasets, acfg, vanilla, out_dir / "vanilla")
    base_sum = result_v.miou_c + result_v.miou_v
    lines = [f"{args.param}\tmiou_c\tmiou_v\tdelta"]
    for value, tcfg in cells:
        cell = out_dir / f"{args.param}_{value:g}"
        result = _run_one_training(args, datasets, acfg, tcfg, cell)
        lines.append(f"{value:g}\t{result.miou_c:.9g}\t{result.miou_v:.9g}\t{result.miou_c + result.miou_v - base_sum:.9g}")
    table = "\n".join(lines)
    (out_dir / f"sweep_{args.param}.tsv").write_text(table + "\n")
    print(table)
    return 0


# argument parsing ---------------------------------------------------------

def _add_train_flags(p):
    p.add_argument("--config", help="key = value config file")
    for key in _FLAG_KEYS:
        if _KEYS[key] is _parse_bool:
            p.add_argument(f"--{key.removesuffix('_on').replace('_', '-')}", dest=key, action=argparse.BooleanOptionalAction)
        else:
            p.add_argument(f"--{key.replace('_', '-')}", dest=key, type=_KEYS[key])
    p.add_argument("--data", required=True, help="training dataset file")
    p.add_argument("--eval-data", dest="eval_data", help="held-out dataset file")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="codistill", description="Collaborative two-student segmentation distillation")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic dataset file")
    p.add_argument("--classes", type=int, default=4)
    p.add_argument("--size", type=int, default=32)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--noise", type=float, default=0.05)
    p.add_argument("--min-shapes", dest="min_shapes", type=int, default=1)
    p.add_argument("--max-shapes", dest="max_shapes", type=int, default=2)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("train", help="run collaborative training")
    _add_train_flags(p)
    p.add_argument("--out", required=True, help="run directory (manifest, metrics, checkpoints)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", help="run the 2x2x2 loss-toggle grid")
    _add_train_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("sweep", help="sweep alpha, beta or gamma over a value list")
    _add_train_flags(p)
    p.add_argument("--param", choices=("alpha", "beta", "gamma"), required=True)
    p.add_argument("--values", required=True, help="comma-separated values")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, DataError, MetricError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TrainingError as exc:
        print(f"training failed: {exc}", file=sys.stderr)
        return 3
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
