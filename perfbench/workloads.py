"""The benchmark's three workloads on the reference task.

Reference task: 4 classes, 32x32 synthetic images, ``ArchConfig`` and
``TrainConfig`` defaults, batch 8, single BLAS thread. The workload seed
drives the inputs: the training set is ``SynthSpec(seed=2*seed)``, the
held-out set ``SynthSpec(seed=2*seed+1)``, and the batch order is the
seed's ``shuffle`` sub-stream. Weight init keeps the default
``TrainConfig.seed``: the ViT's mIoU after 125 steps spreads about 18%
(interquartile range over median) across init seeds and about 10% across
data seeds alone.

* ``train-full`` / ``train-ce``: collaborative training at the cadence of
  ``run_training``: evaluate the students on the held-out set every
  ``TrainConfig().eval_every`` steps and write a checkpoint every
  ``checkpoint_every`` steps; nothing is read back inside the timed loop.
  Training runs for at least MIN_STEPS steps, then until the run length is
  spent, and stops after an evaluation. mIoU is read from the state after
  QUALITY_STEPS steps, so it does not depend on how fast the machine is.
* ``eval``: set-up trains a short ``run_training`` and loads its final
  checkpoint; the timed loop calls ``evaluate`` on one batch-sized chunk
  of the held-out set at a time, in whole passes over the set.

Tracing off, a run reports the end-to-end metrics. Tracing on, every
segment (every pass, for ``eval``) is traced and the run reports the
per-layer split (see README.md).
"""

from __future__ import annotations

import copy
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import nullcontext
from dataclasses import replace
from pathlib import Path
from time import perf_counter

import numpy as np

from codistill import data, trainer
from codistill.errors import TrainingError
from codistill.seeding import substream
from codistill.students import ArchConfig, detach_params
from codistill.tensor import Tensor

import checks
import tracer

BATCH = 8
TRAIN_IMAGES = 64
HELD_OUT_TRAIN = 32  # the reference held-out size, evaluated every eval_every steps
QUALITY_IMAGES = 128  # held-out images behind the reported mIoU of train-*
HELD_OUT_EVAL = 64  # larger than the reference, so a pass is 8 chunks
SEGMENT_STEPS = 25  # the timed loop pauses for its checks only between segments
QUALITY_STEPS = 125  # mIoU and the learning checks are read after this many steps
MIN_STEPS = 150
EVAL_SETUP_STEPS = 4
SETUP_SAMPLES = 8
PROBE_IMAGES = 3  # held-out images run through the numpy reference forward
RECONCILE_TOLERANCE = 0.03
OVERHEAD_PAIRS = 10

# metric names and units, as the benchmark declares them
SPEC = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())

# layers timed per call (inclusive): they run a few times per run, some only
# in set-up; every other traced layer is self time per step
CALL_LAYERS = ("recordio.write", "recordio.read", "data.load")
STEP_LAYERS = tuple(name for name in tracer.LAYERS if name not in CALL_LAYERS)


class Run:
    def __init__(self, workload, seed, seconds, trace, out):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.out = out
        self.tracer = tracer.Tracer()
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def op(self, problems):
        """Count one operation; it failed if its own check found problems."""
        self.attempted += 1
        if problems:
            self.failed += 1
            report(problems)

    def check(self, problems):
        self.problems += problems

    def traced_if(self, on, in_loop=True):
        if not on:
            return nullcontext()
        self.tracer.in_loop = in_loop
        return self.tracer.installed()


def report(problems):
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)


def peak_rss_mib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def ms(seconds):
    return 1000.0 * seconds


def percentile(values, q):
    return float(np.percentile(np.asarray(values), q))


def checkpoint_arrays(params_c, params_v, adapters) -> dict:
    """Parameter arrays under their checkpoint record names."""
    arrays = {f"cnn/{k}": p.data for k, p in params_c.items()}
    arrays.update({f"vit/{k}": p.data for k, p in params_v.items()})
    arrays.update({name: p.data for name, p in adapters.cnn_side() + adapters.vit_side()})
    return arrays


def check_checkpoint(path, acfg, saved: dict, loaded) -> list:
    """load_checkpoint and an independent parse of the file both return the saved arrays."""
    problems = [] if loaded[0] == acfg else [f"{path.name}: config {loaded[0]} != {acfg}"]
    problems += checks.check_roundtrip(saved, checkpoint_arrays(*loaded[1:]))
    on_disk = {k: v for k, v in checks.read_archive(path.read_bytes()).items() if not k.startswith("config/")}
    return problems + checks.check_roundtrip(saved, on_disk)


def program_logits(params_c, params_v, acfg, images):
    """The program's forward logits for each image (untracked parameters)."""
    frozen_c, frozen_v = detach_params(params_c), detach_params(params_v)
    out_c = [trainer.cnn_forward(Tensor(x), frozen_c, acfg).prediction.data for x in images]
    out_v = [trainer.vit_forward(Tensor(x), frozen_v, acfg).prediction.data for x in images]
    return out_c, out_v


def make_datasets(seed, out, held_out):
    """Generate, write and load back the two sets, as `codistill gen` then `train` would."""
    for name, spec_seed, n in (("train", 2 * seed, TRAIN_IMAGES), ("held_out", 2 * seed + 1, held_out)):
        data.save_dataset(out / name, data.generate_dataset(data.SynthSpec(seed=spec_seed), n))
    return data.load_dataset(out / "train"), data.load_dataset(out / "held_out")


def train_config(workload):
    tcfg = trainer.TrainConfig()
    return replace(tcfg, beta=0.0, gamma=0.0) if workload == "train-ce" else tcfg


def setup(workload, seed, out):
    """A workload's set-up: everything before its first timed operation."""
    acfg = ArchConfig()
    if workload != "eval":
        train_set, held_out = make_datasets(seed, out, QUALITY_IMAGES)
        return train_set, held_out, trainer.make_train_state(acfg, train_config(workload))
    train_set, held_out = make_datasets(seed, out, HELD_OUT_EVAL)
    tcfg = trainer.TrainConfig(steps=EVAL_SETUP_STEPS, eval_every=EVAL_SETUP_STEPS, checkpoint_every=0)
    result = trainer.run_training(train_set, held_out, acfg, tcfg, out_dir=out / "run")
    return held_out, result, trainer.load_checkpoint(out / "run" / "ckpt_final.bin")


def fresh_setup_seconds(run) -> float:
    """Seconds from starting a fresh interpreter until it has imported the
    program and finished the workload's set-up."""
    out = run.out / "setup_sample"
    code = "import sys; sys.path[:0] = sys.argv[1:3]; import workloads; workloads.setup_child(*sys.argv[3:])"
    here = Path(__file__).resolve().parent
    args = [str(here.parent / "src"), str(here), run.workload, str(run.seed), str(out)]
    t0 = perf_counter()
    with subprocess.Popen([sys.executable, "-c", code, *args], stdout=subprocess.PIPE, text=True) as child:
        ready = child.stdout.readline()
        elapsed = perf_counter() - t0
    shutil.rmtree(out, ignore_errors=True)
    if child.returncode or ready != "ready\n":
        raise RuntimeError(f"set-up in a fresh interpreter failed with code {child.returncode}")
    return elapsed


def setup_child(workload, seed, out):
    """What a fresh_setup_seconds child runs; "ready" marks the end of its set-up."""
    setup(workload, int(seed), Path(out))
    print("ready", flush=True)


class SetupClock:
    """setup_s: the fastest of SETUP_SAMPLES fresh-interpreter set-ups
    (fresh_setup_seconds). They run in child processes, so they leave this
    process's state and peak RSS alone, one at a time in the timed loop's
    untimed pauses once the loop passes evenly spaced marks: back-to-back
    samples all land in one stretch of host speed: on a shared 2-vCPU host
    the import alone moved between 0.21 and 0.32 s from one such stretch to
    the next. No samples when tracing."""

    def __init__(self, run):
        self.run = run
        self.times = []

    def due(self, timed):
        if not self.run.trace and len(self.times) < SETUP_SAMPLES and timed >= len(self.times) * self.run.seconds / SETUP_SAMPLES:
            self.times.append(fresh_setup_seconds(self.run))

    def seconds(self):
        while len(self.times) < SETUP_SAMPLES:
            self.times.append(fresh_setup_seconds(self.run))
        return min(self.times)


def setup_in_process(run):
    """The set-up whose products the run uses (traced once when tracing)."""
    with run.traced_if(run.trace, in_loop=False):
        return setup(run.workload, run.seed, run.out)


# Timing statistics. On a shared host the speed of a run switches between
# an undisturbed and a disturbed mode for seconds at a time, and the share
# of each mode differs from run to run. A median flips with whichever mode
# holds the majority, so its spread across runs is 15-23%; a fast-side
# quantile only moves when a run is disturbed almost throughout (5-8%).
def fast_throughput(images, seconds) -> float:
    """Images per second of the fast stretches: the 90th percentile over stretches."""
    return percentile([n / s for n, s in zip(images, seconds)], 90)


def window_throughput(step_end, window) -> float:
    """fast_throughput over every run of `window` consecutive steps, from the
    timed seconds at which each step (with its evaluation and checkpoint) ended."""
    ends = [0.0] + step_end
    spans = [ends[k] - ends[k - window] for k in range(window, len(ends))]
    return fast_throughput([BATCH * window] * len(spans), spans)


def timing(run, step_s, what) -> dict:
    """step_ms_p10, after printing the sample count and the other percentiles."""
    p10, p50, p90 = (ms(percentile(step_s, q)) for q in (10, 50, 90))
    print(f"{run.workload}: {len(step_s)} {what}; ms p10 {p10:.2f}, p50 {p50:.2f}, p90 {p90:.2f}")
    return {"step_ms_p10": p10}


def batch_order(seed, n):
    """Epochs of random permutations from the `shuffle` sub-stream, as run_training draws them."""
    shuffle = substream(seed, "shuffle")
    while True:
        for i in shuffle.permutation(n):
            yield int(i)


# training workloads --------------------------------------------------------

def run_train(run, ce_only):
    tcfg = train_config(run.workload)
    acfg = ArchConfig()
    # any checkpoint_every consecutive steps hold the same evaluations and
    # checkpoint writes as a run_training run does per step
    window = math.lcm(tcfg.eval_every, tcfg.checkpoint_every)

    clock = SetupClock(run)
    train_set, held_out, state = setup_in_process(run)
    eval_set = held_out[:HELD_OUT_TRAIN]
    order = batch_order(run.seed, len(train_set))
    step_s = []
    step_end = []
    step_parts = []
    step = 0
    timed = 0.0
    while step < MIN_STEPS or step % tcfg.eval_every or timed < run.seconds:
        clock.due(timed)
        t_segment = perf_counter()
        with run.traced_if(run.trace):
            for _ in range(SEGMENT_STEPS):
                step += 1
                batch = [train_set[next(order)] for _ in range(BATCH)]
                t0 = perf_counter()
                try:
                    parts = trainer.train_step(batch, state, tcfg)
                except TrainingError as exc:
                    run.op([str(exc)])
                else:
                    step_s.append(perf_counter() - t0)
                    step_parts.append(parts)
                    run.op(checks.check_step(parts, ce_only))
                if step % tcfg.eval_every == 0:
                    miou = trainer.evaluate(state.params_c, state.params_v, acfg, eval_set)
                    run.op(checks.check_miou_value("miou_cnn", miou[0]) + checks.check_miou_value("miou_vit", miou[1]))
                if step % tcfg.checkpoint_every == 0:
                    path = run.out / f"ckpt_{step:06d}.bin"
                    trainer.save_checkpoint(path, acfg, state.params_c, state.params_v, state.adapters)
                step_end.append(timed + perf_counter() - t_segment)
        timed += perf_counter() - t_segment
        # untimed: the checkpoint just written, and the state behind the reported mIoU
        if step % tcfg.checkpoint_every == 0:
            saved = checkpoint_arrays(state.params_c, state.params_v, state.adapters)
            run.check(check_checkpoint(path, acfg, saved, trainer.load_checkpoint(path)))
        if step == QUALITY_STEPS:
            quality_state = copy.deepcopy(state)
    peak_rss = peak_rss_mib()
    print(f"{run.workload}: {len(step_s)} steps, {len(step_end) - window + 1} windows of {window}, {timed:.2f}s timed")

    # mIoU after QUALITY_STEPS steps on the whole held-out set (untimed; 128
    # images rather than 32 halve its spread across seeds), recomputed from
    # the program's argmax labels
    quality_c, quality_v = quality_state.params_c, quality_state.params_v
    miou_c, miou_v = trainer.evaluate(quality_c, quality_v, acfg, held_out)
    labels = [lab for _, lab in held_out]
    logits_c, logits_v = program_logits(quality_c, quality_v, acfg, [x for x, _ in held_out])
    run.check(checks.check_miou("miou_cnn", miou_c, logits_c, labels, acfg.num_classes))
    run.check(checks.check_miou("miou_vit", miou_v, logits_v, labels, acfg.num_classes))
    first = step_parts[0]
    quality = step_parts[QUALITY_STEPS - SEGMENT_STEPS : QUALITY_STEPS]
    late = {key: statistics.fmean(p[key] for p in quality) for key in ("l_ce_c", "l_ce_v")}
    run.check(checks.check_learning(first, late, miou_c, miou_v, checks.background_miou(labels, acfg.num_classes)))

    # probe step: CE and direction counts recomputed from the students' logits
    probe_batch = train_set[:BATCH]
    pc, pv = program_logits(quality_c, quality_v, acfg, [x for x, _ in probe_batch])
    expected = checks.probe_expectation(pc, pv, [lab for _, lab in probe_batch], acfg.vit_feature_hw("fl"))
    parts = trainer.train_step(probe_batch, copy.deepcopy(quality_state), tcfg)
    run.check(checks.check_probe(parts, expected, selective=not ce_only))

    if not run.trace:
        return {
            "setup_s": clock.seconds(),
            "imgs_per_s": window_throughput(step_end, window),
            **timing(run, step_s, "train steps"),
            "miou_cnn": miou_c,
            "miou_vit": miou_v,
            "peak_rss_mib": peak_rss,
        }

    def probe_step():
        stepped = copy.deepcopy(quality_state)
        t0 = perf_counter()
        out = trainer.train_step(probe_batch, stepped, tcfg)
        elapsed = perf_counter() - t0
        return elapsed, {**out, **checkpoint_arrays(stepped.params_c, stepped.params_v, stepped.adapters)}

    overhead = paired_overhead(run, "probe step", probe_step)
    return layer_metrics(run, len(step_s), timed, path.stat().st_size, overhead)


# evaluation workload -------------------------------------------------------

def run_eval(run):
    acfg = ArchConfig()
    clock = SetupClock(run)
    held_out, result, loaded = setup_in_process(run)
    ckpt = run.out / "run" / "ckpt_final.bin"
    state = result.state
    run.check(check_checkpoint(ckpt, acfg, checkpoint_arrays(state.params_c, state.params_v, state.adapters), loaded))
    for record in result.records:
        run.check([f"set-up step {record['step']}: {p}" for p in checks.check_step(record, ce_only=False)])

    ckpt_acfg, params_c, params_v, _ = loaded
    chunks = [held_out[i : i + BATCH] for i in range(0, len(held_out), BATCH)]
    first_pass = []
    step_s = []
    pass_s = []
    passes = 0
    timed = 0.0
    while passes < 1 or timed < run.seconds:
        clock.due(timed)
        t_pass = perf_counter()
        with run.traced_if(run.trace):
            for i, chunk in enumerate(chunks):
                t0 = perf_counter()
                miou = trainer.evaluate(params_c, params_v, ckpt_acfg, chunk)
                step_s.append(perf_counter() - t0)
                problems = checks.check_miou_value("miou_cnn", miou[0]) + checks.check_miou_value("miou_vit", miou[1])
                if passes == 0:
                    first_pass.append(miou)
                elif miou != first_pass[i]:
                    problems.append(f"chunk {i}: pass {passes + 1} gave {miou}, the first pass {first_pass[i]}")
                run.op(problems)
        pass_s.append(perf_counter() - t_pass)
        timed += pass_s[-1]
        passes += 1
    peak_rss = peak_rss_mib()
    print(f"eval: {len(step_s)} chunks of {BATCH} in {passes} passes, {timed:.2f}s timed")

    # the program's logits against a plain-numpy forward from the checkpoint file
    arrays = checks.read_archive(ckpt.read_bytes())
    images = [x for x, _ in held_out]
    labels = [lab for _, lab in held_out]
    logits_c, logits_v = program_logits(params_c, params_v, ckpt_acfg, images)
    for i in range(PROBE_IMAGES):
        run.check(checks.check_logits(f"cnn image {i}", checks.reference_cnn(arrays, images[i]), logits_c[i]))
        run.check(checks.check_logits(f"vit image {i}", checks.reference_vit(arrays, images[i]), logits_v[i]))

    # mIoU per chunk and over the whole set, from the program's argmax labels
    for i, (mc, mv) in enumerate(first_pass):
        part = slice(i * BATCH, (i + 1) * BATCH)
        run.check(checks.check_miou(f"chunk {i} miou_cnn", mc, logits_c[part], labels[part], acfg.num_classes))
        run.check(checks.check_miou(f"chunk {i} miou_vit", mv, logits_v[part], labels[part], acfg.num_classes))
    miou_c, miou_v = trainer.evaluate(params_c, params_v, ckpt_acfg, held_out)
    run.check(checks.check_miou("miou_cnn", miou_c, logits_c, labels, acfg.num_classes))
    run.check(checks.check_miou("miou_vit", miou_v, logits_v, labels, acfg.num_classes))

    if not run.trace:
        return {
            "setup_s": clock.seconds(),
            "imgs_per_s": fast_throughput([len(held_out)] * len(pass_s), pass_s),
            **timing(run, step_s, "evaluate chunks"),
            "miou_cnn": miou_c,
            "miou_vit": miou_v,
            "peak_rss_mib": peak_rss,
        }

    def probe_chunk():
        t0 = perf_counter()
        out = trainer.evaluate(params_c, params_v, ckpt_acfg, chunks[0])
        return perf_counter() - t0, dict(zip(("miou_cnn", "miou_vit"), out))

    overhead = paired_overhead(run, "evaluate chunk", probe_chunk)
    return layer_metrics(run, len(step_s), sum(pass_s), ckpt.stat().st_size, overhead)


# per-layer split -------------------------------------------------------------

def paired_overhead(run, what, call) -> float:
    """Median extra seconds tracing adds to one call, from interleaved
    untraced/traced pairs of the same call on the same inputs (so drift in
    machine speed cancels); each pair must agree bit for bit."""
    extra = []
    for i in range(OVERHEAD_PAIRS):
        timed = {}
        for traced in (False, True) if i % 2 == 0 else (True, False):
            with run.traced_if(traced, in_loop=False):
                timed[traced] = call()
        run.check(checks.check_identical(what, timed[False][1], timed[True][1]))
        extra.append(timed[True][0] - timed[False][0])
    return statistics.median(extra)


def layer_metrics(run, steps, traced_wall, ckpt_bytes, overhead_s) -> dict:
    traced = run.tracer
    attributed = sum(traced.self_s.values()) + traced.hidden_s
    run.check(checks.check_reconcile(attributed, traced_wall, RECONCILE_TOLERANCE))
    print(f"trace: {steps} traced steps; span self times cover {attributed / traced_wall:.2%} of the traced loop")
    metrics = {f"{name}_ms": ms(traced.self_s.get(name, 0.0) / steps) for name in STEP_LAYERS}
    for name in CALL_LAYERS:
        calls = traced.calls.get(name)
        metrics[f"{name}_ms"] = ms(statistics.median(calls)) if calls else 0.0
    # over the steps every run traces, so the count does not depend on machine speed
    counted = traced.step_nodes[:MIN_STEPS]
    metrics["tensor.nodes_per_step"] = statistics.median_low(counted) if counted else 0
    metrics["recordio.bytes"] = ckpt_bytes
    metrics["trace.overhead_ms"] = ms(overhead_s)
    return metrics


def run(workload, seed, seconds, trace, out_root) -> dict:
    out = out_root / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    bench = Run(workload, seed, seconds, trace, out)
    try:
        if workload == "eval":
            values = run_eval(bench)
        else:
            values = run_train(bench, ce_only=workload == "train-ce")
    finally:
        shutil.rmtree(out, ignore_errors=True)
    report(bench.problems)
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    return {
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in wanted},
    }
