"""Tests of the benchmark itself: output schema, and that every correctness
check rejects a deliberately wrong input.

    python3 -m pytest perfbench -q

The schema tests run each workload once per trace mode (about two minutes).
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import checks  # noqa: E402
from codistill import trainer  # noqa: E402
from codistill.data import SynthSpec, generate_dataset  # noqa: E402
from codistill.students import ArchConfig  # noqa: E402
from workloads import checkpoint_arrays, program_logits  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd, workload, trace, seconds=1):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3", "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_output_schema(workload, trace):
    out = run_bench(ROOT, workload, trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, out.stderr
    assert result["attempted"] >= 1 and result["failed"] == 0
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}
    for metric in result["metrics"].values():
        assert set(metric) == {"value", "unit"} and math.isfinite(metric["value"])


def test_refuses_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = run_bench(tmp_path, "eval", 0)
    assert out.returncode != 0
    assert "correct" not in out.stdout


# correctness checks against wrong inputs -----------------------------------

@pytest.fixture(scope="module")
def probe():
    """A trained-from-init state, a batch, the program's logits and a step's parts."""
    acfg = ArchConfig()
    tcfg = trainer.TrainConfig(seed=5)
    state = trainer.make_train_state(acfg, tcfg)
    batch = generate_dataset(SynthSpec(seed=5), 2)
    logits_c, logits_v = program_logits(state.params_c, state.params_v, acfg, [x for x, _ in batch])
    parts = trainer.train_step(batch, state, tcfg)
    labels = [lab for _, lab in batch]
    return acfg, state, batch, labels, logits_c, logits_v, parts


def test_probe_check_rejects_flipped_counts_and_ce(probe):
    acfg, _, _, labels, logits_c, logits_v, parts = probe
    expected = checks.probe_expectation(logits_c, logits_v, labels, acfg.vit_feature_hw("fl"))
    assert checks.check_probe(parts, expected, selective=True) == []
    assert checks.check_probe({**parts, "m_hat": parts["m_hat"] + 0.5}, expected, selective=True)
    assert checks.check_probe({**parts, "m": parts["m"] - 0.5}, expected, selective=True)
    assert checks.check_probe({**parts, "l_ce_v": parts["l_ce_v"] * (1 + 1e-6)}, expected, selective=True)
    # without selective distillation any non-zero count is wrong
    assert parts["m"] > 0 and checks.check_probe(parts, expected, selective=False)


def test_probe_counts_follow_perturbed_logits(probe):
    acfg, _, _, labels, logits_c, logits_v, parts = probe
    worse = [lc.copy() for lc in logits_c]
    worse[0][:, :8, :8] = -worse[0][:, :8, :8]
    expected = checks.probe_expectation(worse, logits_v, labels, acfg.vit_feature_hw("fl"))
    assert checks.check_probe(parts, expected, selective=True)


def test_step_check_rejects_non_finite_and_distillation_terms(probe):
    parts = probe[-1]
    assert checks.check_step(parts, ce_only=False) == []
    assert checks.check_step({**parts, "l_p_v": float("nan")}, ce_only=False)
    assert checks.check_step({**parts, **dict.fromkeys(checks.DISTILL_TERMS, 0.0)}, ce_only=True) == []
    assert checks.check_step({**parts, **dict.fromkeys(checks.DISTILL_TERMS, 0.0), "l_hfd_c": 1e-300}, ce_only=True)


def test_reference_forward_rejects_perturbed_logit(probe, tmp_path):
    acfg, state, batch, _, logits_c, logits_v, _ = probe
    path = tmp_path / "ckpt.bin"
    trainer.save_checkpoint(path, acfg, state.params_c, state.params_v, state.adapters)
    arrays = checks.read_archive(path.read_bytes())
    image = batch[0][0]
    program_c, program_v = program_logits(state.params_c, state.params_v, acfg, [image])
    ref_c, ref_v = checks.reference_cnn(arrays, image), checks.reference_vit(arrays, image)
    assert checks.check_logits("cnn", ref_c, program_c[0]) == []
    assert checks.check_logits("vit", ref_v, program_v[0]) == []
    bumped = program_v[0].copy()
    bumped[2, 5, 7] += 1e-7
    assert checks.check_logits("vit", ref_v, bumped)
    assert checks.check_logits("cnn", ref_c, program_c[0][:, :-1])


def test_roundtrip_check_rejects_changed_byte(probe, tmp_path):
    acfg, state, *_ = probe
    path = tmp_path / "ckpt.bin"
    trainer.save_checkpoint(path, acfg, state.params_c, state.params_v, state.adapters)
    saved = checkpoint_arrays(state.params_c, state.params_v, state.adapters)
    loaded = checkpoint_arrays(*trainer.load_checkpoint(path)[1:])
    assert checks.check_roundtrip(saved, loaded) == []
    loaded["vit/s2_wq"] = np.nextafter(loaded["vit/s2_wq"], np.inf)
    assert checks.check_roundtrip(saved, loaded)
    del loaded["cnn/head_b"]
    assert checks.check_roundtrip(saved, loaded)
    with pytest.raises(ValueError):
        checks.read_archive(path.read_bytes()[:-8])


def test_miou_checks_reject_wrong_values(probe):
    acfg, _, _, labels, logits_c, _, _ = probe
    own = checks.miou(checks.confusion(logits_c, labels, acfg.num_classes))
    assert checks.check_miou("cnn", own, logits_c, labels, acfg.num_classes) == []
    assert checks.check_miou("cnn", own + 1e-9, logits_c, labels, acfg.num_classes)
    flipped = [lab.copy() for lab in labels]
    flipped[0][flipped[0] == 0] = 1
    assert checks.check_miou("cnn", own, logits_c, flipped, acfg.num_classes)
    assert checks.check_miou_value("vit", 0.5) == []
    assert checks.check_miou_value("vit", 0.0) and checks.check_miou_value("vit", float("nan"))


def test_learning_check_rejects_stalled_training():
    first = {"l_ce_c": 1.4, "l_ce_v": 1.2}
    assert checks.check_learning(first, {"l_ce_c": 0.6, "l_ce_v": 0.4}, 0.2, 0.5, 0.2) == []
    assert checks.check_learning(first, {"l_ce_c": 1.1, "l_ce_v": 0.4}, 0.2, 0.5, 0.2)
    assert checks.check_learning(first, {"l_ce_c": 0.6, "l_ce_v": 0.4}, 0.2, 0.2, 0.2)
    assert checks.check_learning(first, {"l_ce_c": 0.6, "l_ce_v": 0.4}, 0.19, 0.5, 0.2)


def test_background_miou_counts_every_class():
    labels = [np.array([[0, 0], [1, 2]], dtype=np.uint8)]
    # class 0: 2 of 4 pixels predicted 0 are right; classes 1 and 2 score 0
    assert checks.background_miou(labels, 4) == pytest.approx(0.5 / 3)


def test_traced_run_checks_reject_differences():
    parts = {"l_ce_c": 0.5, "m": 3.0}
    assert checks.check_identical("step", parts, dict(parts)) == []
    assert checks.check_identical("step", parts, {**parts, "l_ce_c": np.nextafter(0.5, 1.0)})
    assert checks.check_reconcile(0.98, 1.0, 0.03) == []
    assert checks.check_reconcile(0.9, 1.0, 0.03)
    assert checks.check_reconcile(1.01, 1.0, 0.03)
