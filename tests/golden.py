"""Digests of a short fixed run of the whole program, for the byte-identity check.

``tests/golden.json`` holds SHA-256 digests of two generated datasets and of
every cell's metrics log and checkpoints and the table of a 20-step ablation
grid, the tape and attention node counts of one default step, and the two
objective values of one step at non-unit selective weights. Manifests are
left out: they record paths and a build tag. The digests depend on numpy and
the BLAS, so the file records both. ``python3 scripts/update_golden.py``
rewrites it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import platform
from pathlib import Path

import numpy as np

from codistill import trainer
from codistill.cli import main
from codistill.data import SynthSpec, generate_dataset
from codistill.students import ArchConfig
from codistill.trainer import TrainConfig, make_train_state, train_step

GOLDEN = Path(__file__).with_name("golden.json")
DATASETS = (("train.bin", 16, 1), ("eval.bin", 8, 2))  # (file, --n, --seed)
ABLATE = ("--steps", "20", "--eval-every", "10", "--checkpoint-every", "10")
STEPS = (("full", {}), ("ce_only", dict(beta=0.0, gamma=0.0)))
# A regrouping such as gamma * L_r + gamma * alpha * L_p for
# gamma * (L_r + alpha * L_p) sends L_r and L_p the same gradient products,
# so only the objective values move, and no written output holds them; at
# alpha = gamma = 1 not even those move.
OBJECTIVE_WEIGHTS = dict(alpha=0.6, gamma=0.7)


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):  # numpy before show_config(mode=...)
        blas_name = "unknown"
    return {"numpy": np.__version__, "blas": blas_name, "machine": platform.machine()}


def _tape(loss):
    """Backward closure of every recorded node reachable from a loss (leaves are not nodes)."""
    seen, stack, closures = set(), [loss._node], []
    while stack:
        node = stack.pop()
        if id(node) not in seen and node._parents:
            seen.add(id(node))
            closures.append(node._backward)
            stack.extend(node._parents)
    return closures


def step_tape(**kw):
    """The tape of one default batch-8 step, walked inside the objective
    before backward consumes it, and the step's two objective values."""
    closures, values, objective = [], [], trainer.total_objective

    def capture(*args):
        out = objective(*args)
        for loss in out[:2]:
            closures.extend(_tape(loss))
            values.append(loss.item())
        return out

    tcfg = TrainConfig(**kw)
    trainer.total_objective = capture
    try:
        train_step(generate_dataset(SynthSpec(), 8), make_train_state(ArchConfig(), tcfg), tcfg)
    finally:
        trainer.total_objective = objective
    return closures, values


def _cli(*argv) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(list(argv))
    if code != 0:
        raise RuntimeError(f"codistill {' '.join(argv)} exited {code}")


def digests(workdir) -> dict:
    """Run the fixed commands under workdir and digest what they write."""
    work = Path(workdir)
    for name, n, seed in DATASETS:
        _cli("gen", "--n", str(n), "--seed", str(seed), "--out", str(work / name))
    grid = work / "ablate"
    _cli("ablate", "--data", str(work / DATASETS[0][0]), "--eval-data", str(work / DATASETS[1][0]), *ABLATE, "--out", str(grid))
    files = [work / name for name, _, _ in DATASETS]
    files += sorted(p for p in grid.rglob("*") if p.is_file() and p.name != "manifest.txt")
    tape = {}
    for name, kw in STEPS:
        ops = [fn.__qualname__.split(".")[0] for fn in step_tape(**kw)[0]]
        tape[name] = {"nodes": len(ops), "attention": ops.count("attention")}
    return {
        "files": {p.relative_to(work).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest() for p in files},
        "tape": tape,
        "objectives": [v.hex() for v in step_tape(**OBJECTIVE_WEIGHTS)[1]],
    }


def write(workdir) -> dict:
    record = {"environment": environment(), **digests(workdir)}
    GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return record
