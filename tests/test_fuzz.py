"""A fixed table of malformed inputs run through the CLI.

Each dataset mutation is run as the training data of `train`, as its
`--eval-data`, and as the data of `eval`; each checkpoint mutation through
`eval`. Whatever the input, the command ends in a defined exit:

  * the exit code is 0, 2 or 3;
  * a failure prints exactly one stderr line, which names the mutated
    file, or the step when a training step fails on it; numpy warns of
    nothing;
  * an exit 2 leaves nothing under `--out`;
  * an `eval` that succeeds prints finite mIoUs.

The table is deterministic: the same values and shapes every run.
"""

import math
import warnings

import numpy as np
import pytest

from codistill import cli
from codistill.cli import main
from codistill.recordio import read_archive, write_archive

VALUES = {
    "nan": np.nan,
    "inf": np.inf,
    "-inf": -np.inf,
    "1e300": 1e300,
    "-1e300": -1e300,
    "-1": -1.0,
    "0": 0.0,
    "0.5": 0.5,
    "3": 3.0,
    "255": 255.0,
    "256": 256.0,
    "2^53": 2.0**53,
    "5e-324": 5e-324,
    "1e9": 1e9,
}
SHAPES = {
    "flat": lambda a: a.ravel(),
    "first": lambda a: a[0],
    "wrapped": lambda a: a[None],
    "empty": lambda a: a[:0],
    "narrow": lambda a: a[..., :8],
    "one_row": lambda a: a[:, :1],
}


def _set_one(value):
    def mutate(a):
        a = a.copy()
        a.flat[-1] = value
        return a

    return mutate


def _record_mutations(record, shapes):
    """(id, records -> records) pairs that change one record's values or shape."""
    changes = [(f"one-{name}", _set_one(value)) for name, value in VALUES.items()]
    changes += [(f"all-{name}", lambda a, value=value: np.full_like(a, value)) for name, value in VALUES.items()]
    changes += [(f"shape-{name}", SHAPES[name]) for name in shapes]
    return [(f"{record}:{cid}", lambda recs, record=record, change=change: {**recs, record: change(recs[record])}) for cid, change in changes]


def _structure_mutations(records):
    """Each record dropped, and one extra record."""
    drops = [(f"drop:{name}", lambda recs, name=name: {k: v for k, v in recs.items() if k != name}) for name in records]
    return drops + [("extra", lambda recs: {**recs, "extra": np.zeros(3)})]


DATASET_MUTATIONS = (
    _record_mutations("images", SHAPES) + _record_mutations("labels", SHAPES) + _structure_mutations(("images", "labels"))
)
CHECKPOINT_MUTATIONS = (
    _record_mutations("config/num_heads", ("flat", "first", "wrapped", "empty"))
    + _record_mutations("vit/s1_wq", SHAPES)
    + _structure_mutations(("config/num_heads", "cnn/conv1_w"))
)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """(dataset path, its records, checkpoint path, its records): a 4-image
    16×16 set and a 1-step checkpoint trained on it."""
    root = tmp_path_factory.mktemp("fuzz")
    data, run = root / "data", root / "run"
    assert main(["gen", "--size", "16", "--n", "4", "--seed", "1", "--out", str(data)]) == 0
    assert main(["train", "--data", str(data), "--out", str(run), "--steps", "1", "--checkpoint-every", "0"]) == 0
    ckpt = run / "ckpt_final.bin"
    return data, read_archive(data), ckpt, read_archive(ckpt)


def _run(argv, capsys):
    """(exit code, stdout, stderr lines, numpy warnings) of main(argv)."""
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err.splitlines(), [str(w.message) for w in caught]


def _check_contract(argv, capsys, bad, out_dir=None, trains_on_bad=False):
    code, stdout, err, caught = _run(argv, capsys)
    where = " ".join(argv)
    assert code in (0, 2, 3), f"{where}: exit {code}"
    assert not caught, f"{where}: numpy warned {caught}"
    if code == 0:
        assert err == [], f"{where}: exit 0 with stderr {err}"
    else:
        assert len(err) == 1, f"{where}: exit {code} with {len(err)} stderr lines: {err}"
        blamed = " at step " if code == 3 and trains_on_bad else str(bad)
        assert blamed in err[0], f"{where}: {err[0]!r} does not name {blamed!r}"
    if code == 2 and out_dir is not None:
        assert not out_dir.exists(), f"{where}: exit 2 wrote {out_dir}"
    if code == 0 and argv[0] == "eval":
        values = [float(field.split("=")[1]) for field in stdout.split()]
        assert len(values) == 2 and all(map(math.isfinite, values)), f"{where}: printed {stdout!r}"


@pytest.fixture(autouse=True)
def _fixed_build_tag(monkeypatch):
    # the manifest's git describe is not under test and costs a process per run
    monkeypatch.setattr(cli, "build_tag", lambda: "fuzz")


@pytest.mark.parametrize("mutate", [m for _, m in DATASET_MUTATIONS], ids=[i for i, _ in DATASET_MUTATIONS])
def test_dataset_mutation(inputs, tmp_path, capsys, mutate):
    data, records, ckpt, _ = inputs
    bad = tmp_path / "bad"
    write_archive(bad, mutate(records).items())
    train = ["train", "--steps", "2", "--eval-every", "1", "--checkpoint-every", "0"]
    argv = [*train, "--data", str(bad), "--out", str(tmp_path / "as_data")]
    _check_contract(argv, capsys, bad, tmp_path / "as_data", trains_on_bad=True)
    argv = [*train, "--data", str(data), "--eval-data", str(bad), "--out", str(tmp_path / "as_eval_data")]
    _check_contract(argv, capsys, bad, tmp_path / "as_eval_data")
    _check_contract(["eval", "--checkpoint", str(ckpt), "--data", str(bad)], capsys, bad)


@pytest.mark.parametrize("mutate", [m for _, m in CHECKPOINT_MUTATIONS], ids=[i for i, _ in CHECKPOINT_MUTATIONS])
def test_checkpoint_mutation(inputs, tmp_path, capsys, mutate):
    data, _, _, records = inputs
    bad = tmp_path / "bad.bin"
    write_archive(bad, mutate(records).items())
    _check_contract(["eval", "--checkpoint", str(bad), "--data", str(data)], capsys, bad)
