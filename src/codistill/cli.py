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
from itertools import product
from pathlib import Path

import numpy as np

from . import __version__
from .data import SynthSpec, generate_dataset, load_dataset, save_dataset
from .errors import ConfigError, DataError, TrainingError
from .losses import IGNORE_LABEL, check_labels
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
_FLAG_KEYS = tuple(f.name for f in fields(TrainConfig))


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
    try:
        samples = generate_dataset(_build(SynthSpec, vars(args)), args.n)
    except FloatingPointError as exc:  # the noise term is gen's one product that can overflow
        raise ConfigError(f"--noise {args.noise} overflows the image values: {exc}") from None
    save_dataset(args.out, samples)
    print(f"wrote {args.n} samples to {args.out}")
    return 0


def _check_dataset(dataset, where, acfg) -> None:
    """The image size and labels of a loaded dataset fit the architecture."""
    h, w = dataset[0][0].shape[1:]
    if (h, w) != acfg.input_hw:
        raise DataError(f"{where}: images are {h}x{w}, expected {acfg.input_hw[0]}x{acfg.input_hw[1]}")
    try:
        check_labels(np.stack([labels for _, labels in dataset]), acfg.num_classes)
    except DataError as exc:
        raise DataError(f"{where}: {exc}") from None


def _check_labelled(dataset, where) -> None:
    """The set has a pixel to evaluate: mIoU on it is defined."""
    if all((labels == IGNORE_LABEL).all() for _, labels in dataset):
        raise DataError(f"{where}: every pixel has the ignore label {IGNORE_LABEL}, so mIoU is undefined")


def _prepare(args) -> tuple:
    """((train set, eval set, eval set's path), ArchConfig, TrainConfig) for a
    training command, with both sets checked against the configuration."""
    train_set = load_dataset(args.data)
    # without --eval-data a run evaluates on its training set, the same list
    eval_set, eval_path = (load_dataset(args.eval_data), args.eval_data) if args.eval_data else (train_set, args.data)
    acfg, tcfg = resolve_configs(args, train_set[0][0].shape[1:])
    _check_dataset(train_set, args.data, acfg)
    if eval_set is not train_set:
        _check_dataset(eval_set, eval_path, acfg)
    _check_labelled(eval_set, eval_path)
    return (train_set, eval_set, eval_path), acfg, tcfg


def _run_one_training(args, sets, acfg, tcfg, out_dir):
    train_set, eval_set, eval_path = sets
    out_dir = _out_dir(out_dir)
    write_manifest(out_dir / "manifest.txt", acfg, tcfg, {"data": args.data, "eval_data": eval_path, "out": out_dir})
    try:
        return run_training(train_set, eval_set, acfg, tcfg, out_dir)
    except FloatingPointError as exc:  # a step's is a TrainingError: this one is the evaluated set's
        raise TrainingError(f"{eval_path}: {exc} evaluating the students on this set") from None


def cmd_train(args) -> int:
    result = _run_one_training(args, *_prepare(args), args.out)
    print(f"final miou_c={result.miou_c:.9g} miou_v={result.miou_v:.9g}")
    return 0


def cmd_eval(args) -> int:
    acfg, params_c, params_v, _ = load_checkpoint(args.checkpoint)
    dataset = load_dataset(args.data)
    _check_dataset(dataset, args.data, acfg)
    _check_labelled(dataset, args.data)
    try:
        miou_c, miou_v = evaluate(params_c, params_v, acfg, dataset)
    except FloatingPointError as exc:
        raise DataError(f"{args.data}: {exc} evaluating the checkpoint on this --data set") from None
    print(f"miou_c={miou_c:.9g} miou_v={miou_v:.9g}")
    return 0


def _write_table(path, key_header, rows, reference) -> None:
    """Write and print a results table: a line per (key, RunResult) row, its
    delta the row's mIoU sum less the reference run's. The table replaces
    `path` only once complete, like every other artifact."""
    base_sum = reference.miou_c + reference.miou_v
    lines = [f"{key_header}\tmiou_c\tmiou_v\tdelta"]
    lines += [f"{key}\t{r.miou_c:.9g}\t{r.miou_v:.9g}\t{r.miou_c + r.miou_v - base_sum:.9g}" for key, r in rows]
    table = "\n".join(lines)
    with replacing(path) as fh:
        fh.write((table + "\n").encode("utf-8"))
    print(table)


def cmd_ablate(args) -> int:
    sets, acfg, base = _prepare(args)
    out_dir = Path(args.out)
    rows = []
    for hfd, region, pixel in product((0, 1), repeat=3):
        # a component is off when its weight is 0; region BSD keeps its toggle
        tcfg = replace(base, beta=base.beta if hfd else 0.0, alpha=base.alpha if pixel else 0.0, region_bsd_on=bool(region))
        cell = out_dir / f"cell_hfd{hfd}_r{region}_p{pixel}"
        rows.append((f"{hfd}\t{region}\t{pixel}", _run_one_training(args, sets, acfg, tcfg, cell)))
    _write_table(out_dir / "ablation.tsv", "hfd\tregion\tpixel", rows, rows[0][1])  # against the all-off cell
    return 0


def cmd_sweep(args) -> int:
    sets, acfg, base = _prepare(args)
    out_dir = Path(args.out)
    raw = [v.strip() for v in args.values.split(",") if v.strip() != ""]
    try:
        points = [float(v) for v in raw]
    except ValueError as exc:
        raise ConfigError(f"bad sweep values {args.values!r}: {exc}") from exc
    if not points:
        raise ConfigError("sweep needs at least one value")
    cell_names = {}  # a value's run directory and table row are named by {value:g}
    for text, value in zip(raw, points):
        name = f"{args.param}_{value:g}"
        if name in cell_names:
            raise ConfigError(f"sweep values {cell_names[name]} and {text} both name cell {name}")
        cell_names[name] = text
    vanilla = replace(base, beta=0.0, gamma=0.0)
    cells = [(value, replace(base, **{args.param: value})) for value in points]  # every config is checked before any run
    result_v = _run_one_training(args, sets, acfg, vanilla, out_dir / "vanilla")
    rows = [(f"{value:g}", _run_one_training(args, sets, acfg, tcfg, out_dir / f"{args.param}_{value:g}")) for value, tcfg in cells]
    _write_table(out_dir / f"sweep_{args.param}.tsv", args.param, rows, result_v)
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
    for f in fields(SynthSpec):
        p.add_argument(f"--{f.name.replace('_', '-')}", type=type(f.default), default=f.default)
    p.add_argument("--n", type=int, required=True)
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
        # overflow, invalid operations and division by zero raise instead of
        # warning; underflow stays silent, as attention's exp underflows by design
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return args.func(args)
    except (ConfigError, DataError, OSError, FloatingPointError) as exc:
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
