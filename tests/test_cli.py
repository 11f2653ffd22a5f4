import shlex
import subprocess
from pathlib import Path

import numpy as np
import pytest

import codistill
from codistill import recordio, trainer
from codistill.cli import _KEYS, _parse_bool, _parse_ints, main, make_parser, parse_config_file, resolve_configs
from codistill.data import load_dataset
from codistill.errors import ConfigError
from codistill.recordio import read_archive, write_archive
from codistill.losses import pixel_ce
from codistill.seeding import substream
from codistill.students import ArchConfig, cnn_forward, init_cnn_params, init_vit_params, vit_forward
from codistill.tensor import Tensor, log_softmax, zero_grads
from codistill.trainer import (
    AdamW,
    SgdMomentum,
    TrainConfig,
    make_train_state,
    parse_metrics_line,
    save_checkpoint,
)


def read_metrics(path):
    lines = path.read_text().splitlines()
    return [parse_metrics_line(line) for line in lines if not line.startswith("#")]


def gen_args(out, n=12, seed=3, size=16):
    return ["gen", "--classes", "4", "--size", str(size), "--n", str(n), "--seed", str(seed), "--noise", "0.05", "--out", str(out)]


def train_args(data, out, steps=6, seed=1, extra=()):
    return ["train", "--data", str(data), "--out", str(out), "--steps", str(steps), "--seed", str(seed), "--batch-size", "4", "--eval-every", "100", "--checkpoint-every", "0", *extra]


def assert_exit_2(argv, capsys, match):
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and match in err[0]


@pytest.fixture()
def dataset_dir(tmp_path):
    out = tmp_path / "data"
    assert main(gen_args(out)) == 0
    return out


class TestGen:
    def test_writes_n_records(self, tmp_path):
        out = tmp_path / "d"
        assert main(gen_args(out, n=9)) == 0
        assert len(load_dataset(out)) == 9

    def test_rerun_same_seed_identical_files(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(gen_args(a)) == 0
        assert main(gen_args(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_rerun_with_fewer_samples_replaces_set(self, tmp_path):
        out, fresh = tmp_path / "d", tmp_path / "fresh"
        assert main(gen_args(out, n=5, seed=1)) == 0
        assert main(gen_args(out, n=2, seed=2)) == 0
        assert main(gen_args(fresh, n=2, seed=2)) == 0
        assert len(load_dataset(out)) == 2
        assert out.read_bytes() == fresh.read_bytes()

    def test_interrupted_gen_keeps_earlier_file(self, tmp_path, monkeypatch):
        out = tmp_path / "d"
        assert main(gen_args(out, n=3)) == 0
        before = out.read_bytes()

        def open_interrupted_midway(path, mode):
            fh = open(path, mode)
            write = fh.write

            def write_then_interrupt(data):
                write(data)
                if fh.tell() > 1000:
                    raise KeyboardInterrupt

            fh.write = write_then_interrupt
            return fh

        monkeypatch.setattr(recordio, "open", open_interrupted_midway, raising=False)
        assert main(gen_args(out, n=5, seed=2)) == 130
        assert out.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["d"]

    def test_rerun_into_same_directory(self, tmp_path):
        out = tmp_path / "d"
        assert main(gen_args(out, n=3)) == 0
        assert main(gen_args(out, n=3)) == 0
        assert main(gen_args(out, n=4)) == 0
        assert len(load_dataset(out)) == 4

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        assert_exit_2(gen_args(tmp_path / "d", seed=-1), capsys, "seed")
        assert not any(tmp_path.iterdir())

    def test_class_count_above_255_exits_2(self, tmp_path, capsys):
        assert_exit_2(gen_args(tmp_path / "d") + ["--classes", "256"], capsys, "num_classes")
        assert not any(tmp_path.iterdir())

    def test_class_coverage(self, tmp_path):
        out = tmp_path / "d"
        main(gen_args(out, n=40, seed=0) + ["--min-shapes", "2", "--max-shapes", "3"])
        counts = np.zeros(4, dtype=int)
        for _, labels in load_dataset(out):
            for c in range(4):
                counts[c] += int((labels == c).sum())
        assert np.all(counts > 0)


class TestTrain:
    def test_manifest_holds_paper_defaults(self, dataset_dir, tmp_path):
        out = tmp_path / "run"
        assert main(train_args(dataset_dir, out)) == 0
        manifest = dict(
            line.split(" = ", 1) for line in (out / "manifest.txt").read_text().splitlines()
        )
        assert float(manifest["alpha"]) == 1.0
        assert float(manifest["beta"]) == 0.1
        assert float(manifest["gamma"]) == 1.0
        # the optimizer recipe is fixed in code, not a config key
        assert (trainer.SGD_MOMENTUM, trainer.SGD_WEIGHT_DECAY) == (0.9, 5e-4)
        assert (trainer.ADAMW_BETA1, trainer.ADAMW_BETA2, trainer.ADAMW_EPS, trainer.ADAMW_WEIGHT_DECAY) == (0.9, 0.999, 1e-8, 0.01)
        assert not {"sgd_momentum", "sgd_weight_decay", "adamw_beta1", "adamw_beta2", "adamw_eps", "adamw_weight_decay"} & manifest.keys()

    def test_git_describe_timeout_falls_back_to_version_tag(self, dataset_dir, tmp_path, monkeypatch):
        def time_out(cmd, **kwargs):
            raise subprocess.TimeoutExpired(cmd, kwargs.get("timeout"))

        monkeypatch.setattr(subprocess, "run", time_out)
        out = tmp_path / "run"
        assert main(train_args(dataset_dir, out, steps=1)) == 0
        assert f"# build_tag = codistill-{codistill.__version__}" in (out / "manifest.txt").read_text().splitlines()

    def test_one_metric_line_per_step(self, dataset_dir, tmp_path):
        out = tmp_path / "run"
        assert main(train_args(dataset_dir, out, steps=9)) == 0
        records = read_metrics(out / "metrics.log")
        assert [r["step"] for r in records] == list(range(1, 10))

    def test_identical_args_reproduce_log_bytes(self, dataset_dir, tmp_path):
        outs = [tmp_path / "r1", tmp_path / "r2"]
        for out in outs:
            assert main(train_args(dataset_dir, out)) == 0
        assert (outs[0] / "metrics.log").read_bytes() == (outs[1] / "metrics.log").read_bytes()

    def test_vanilla_flags_reduce_to_independent_ce_training(self, dataset_dir, tmp_path):
        """--beta 0 --gamma 0 must match solo per-student CE loops bitwise."""
        out = tmp_path / "run"
        steps, batch, seed = 5, 4, 2
        assert main(train_args(dataset_dir, out, steps=steps, seed=seed, extra=["--beta", "0", "--gamma", "0"])) == 0
        paired = read_metrics(out / "metrics.log")

        samples = load_dataset(dataset_dir)
        acfg = ArchConfig(input_hw=samples[0][0].shape[1:])

        def solo_run(init_fn, stream, forward, optimizer):
            params = init_fn(acfg, substream(seed, stream))
            opt = optimizer(list(params.items()))
            shuffle = substream(seed, "shuffle")

            def index_stream():
                while True:
                    for i in shuffle.permutation(len(samples)):
                        yield int(i)

            indices = index_stream()
            losses = []
            for _ in range(steps):
                batch_samples = [samples[next(indices)] for _ in range(batch)]
                zero_grads(params.values())
                total = None
                for image, labels in batch_samples:
                    loss, _ = pixel_ce(log_softmax(forward(Tensor(image), params, acfg).prediction, axis=-3), labels)
                    total = loss if total is None else total + loss
                (total * (1.0 / batch)).backward()
                opt.step()
                losses.append(total.item() / batch)
            return losses

        t = TrainConfig()
        solo_c = solo_run(init_cnn_params, "init_cnn", cnn_forward, lambda p: SgdMomentum(p, t.sgd_lr))
        solo_v = solo_run(init_vit_params, "init_vit", vit_forward, lambda p: AdamW(p, t.adamw_lr))
        # the log stores 9 significant digits, so compare at that precision
        for record, expect_c, expect_v in zip(paired, solo_c, solo_v):
            assert record["l_ce_c"] == float(format(expect_c, ".9g"))
            assert record["l_ce_v"] == float(format(expect_v, ".9g"))

    def test_unknown_config_key_exits_2_naming_key(self, dataset_dir, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("alpha = 1.0\nlernrate = 0.1\n")
        code = main(train_args(dataset_dir, tmp_path / "run", extra=["--config", str(cfg)]))
        assert code == 2
        with pytest.raises(ConfigError, match="lernrate"):
            parse_config_file(cfg)

    def test_config_file_with_comments_parses(self, tmp_path):
        cfg = tmp_path / "ok.cfg"
        cfg.write_text("# a comment\nalpha = 0.5  # trailing comment\nsteps = 7\nregion_bsd_on = false\n")
        values = parse_config_file(cfg)
        assert values == {"alpha": 0.5, "steps": 7, "region_bsd_on": False}

    @pytest.mark.parametrize(
        "text, match",
        [
            ("alpha = 0.5\nsteps = abc\n", r"bad.cfg:2: .*'steps'"),
            ("region_bsd_on = maybe\n", r"bad.cfg:1: .*'region_bsd_on'"),
            ("cnn_channels = 8,x,24\n", r"bad.cfg:1: .*'cnn_channels'"),
            ("input_size = 64\n", r"bad.cfg:1: unknown config key 'input_size'"),
            # keys of manifests written before the optimizer recipe and two toggles became fixed
            ("hfd_on = True\n", r"bad.cfg:1: unknown config key 'hfd_on'"),
            ("alpha = 1.0\nsgd_momentum = 0.9\n", r"bad.cfg:2: unknown config key 'sgd_momentum'"),
            (None, "cannot read config file .*bad.cfg"),
        ],
    )
    def test_bad_config_file_exits_2_naming_place(self, dataset_dir, tmp_path, capsys, text, match):
        cfg = tmp_path / "bad.cfg"
        if text is not None:
            cfg.write_text(text)
        with pytest.raises(ConfigError, match=match):
            parse_config_file(cfg)
        assert main(train_args(dataset_dir, tmp_path / "run", extra=["--config", str(cfg)])) == 2
        assert len(capsys.readouterr().err.strip().splitlines()) == 1

    def test_eval_data_size_mismatch_exits_2(self, dataset_dir, tmp_path, capsys):
        big = tmp_path / "big"
        assert main(gen_args(big, n=2, size=32)) == 0
        capsys.readouterr()
        assert main(train_args(dataset_dir, tmp_path / "run", extra=["--eval-data", str(big)])) == 2
        assert "32x32, expected 16x16" in capsys.readouterr().err

    def test_manifest_is_a_config_reproducing_the_run(self, dataset_dir, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(train_args(dataset_dir, a, extra=["--alpha", "0.7", "--beta", "0", "--adamw-lr", "3e-4"])) == 0
        assert main(["train", "--data", str(dataset_dir), "--out", str(b), "--config", str(a / "manifest.txt")]) == 0
        assert (a / "metrics.log").read_bytes() == (b / "metrics.log").read_bytes()
        body = [line for line in (b / "manifest.txt").read_text().splitlines() if not line.startswith("#")]
        assert body == [line for line in (a / "manifest.txt").read_text().splitlines() if not line.startswith("#")]

    def test_no_flags_resolve_to_library_defaults(self, dataset_dir, tmp_path):
        args = make_parser().parse_args(["train", "--data", str(dataset_dir), "--out", str(tmp_path / "run")])
        assert resolve_configs(args, (16, 16)) == (ArchConfig(input_hw=(16, 16)), TrainConfig())

    @pytest.mark.parametrize("flag, value", [("alpha", "nan"), ("beta", "inf"), ("sgd-lr", "nan"), ("adamw-lr", "inf")])
    def test_non_finite_flag_exits_2_naming_key(self, dataset_dir, tmp_path, capsys, flag, value):
        out = tmp_path / "run"
        assert_exit_2(train_args(dataset_dir, out, steps=1, extra=[f"--{flag}", value]), capsys, flag.replace("-", "_"))
        assert not out.exists()

    def test_negative_seed_exits_2(self, dataset_dir, tmp_path, capsys):
        out = tmp_path / "run"
        assert_exit_2(train_args(dataset_dir, out, steps=1, seed=-1), capsys, "seed")
        assert not out.exists()

    def test_zero_heads_exits_2(self, dataset_dir, tmp_path, capsys):
        cfg = tmp_path / "heads.cfg"
        cfg.write_text("num_heads = 0\n")
        out = tmp_path / "run"
        assert_exit_2(train_args(dataset_dir, out, steps=1, extra=["--config", str(cfg)]), capsys, "num_heads")
        assert not out.exists()

    def test_config_keys_are_the_readme_list(self):
        """Every config key, in manifest order, with the parser its value goes through."""
        expected = [
            ("alpha", float), ("beta", float), ("gamma", float), ("steps", int), ("batch_size", int), ("seed", int),
            ("sgd_lr", float), ("adamw_lr", float), ("region_bsd_on", _parse_bool),
            ("eval_every", int), ("checkpoint_every", int),
            ("num_classes", int), ("cnn_channels", _parse_ints), ("vit_dims", _parse_ints),
            ("patch_size", int), ("num_heads", int), ("ffn_ratio", int),
        ]
        assert list(_KEYS.items()) == expected
        readme = " ".join((Path(__file__).parents[1] / "README.md").read_text().split())
        assert ", ".join(key for key, _ in expected) + "." in readme

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_numeric_failure_exits_3(self, dataset_dir, tmp_path):
        code = main(train_args(dataset_dir, tmp_path / "run", steps=6, extra=["--sgd-lr", "1e200"]))
        assert code == 3

    def test_interrupt_exits_130_keeping_completed_steps(self, dataset_dir, tmp_path, capsys, monkeypatch):
        real_step = trainer.train_step

        def interrupted_at_3(batch, state, tcfg):
            if state.step == 2:
                raise KeyboardInterrupt
            return real_step(batch, state, tcfg)

        monkeypatch.setattr(trainer, "train_step", interrupted_at_3)
        out = tmp_path / "run"
        capsys.readouterr()
        assert main(train_args(dataset_dir, out, steps=6, extra=["--checkpoint-every", "1"])) == 130
        assert capsys.readouterr().err.splitlines() == ["interrupted"]
        assert [r["step"] for r in read_metrics(out / "metrics.log")] == [1, 2]
        assert sorted(p.name for p in out.glob("ckpt_*")) == ["ckpt_000001.bin", "ckpt_000002.bin"]
        assert not list(out.glob("*.tmp"))


class TestEval:
    def test_matches_final_in_training_eval(self, dataset_dir, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(train_args(dataset_dir, out, extra=["--eval-data", str(dataset_dir)])) == 0
        final = read_metrics(out / "metrics.log")[-1]
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(out / "ckpt_final.bin"), "--data", str(dataset_dir)]) == 0
        printed = capsys.readouterr().out.strip()
        got = dict(part.split("=") for part in printed.split())
        assert float(got["miou_c"]) == final["miou_c"]
        assert float(got["miou_v"]) == final["miou_v"]

    def test_memorization_beats_untrained(self, dataset_dir, tmp_path, capsys):
        untrained = tmp_path / "untrained.bin"
        samples = load_dataset(dataset_dir)
        acfg = ArchConfig(input_hw=samples[0][0].shape[1:])
        state = make_train_state(acfg, TrainConfig(seed=1))
        save_checkpoint(untrained, acfg, state.params_c, state.params_v, state.adapters)

        out = tmp_path / "run"
        assert main(train_args(dataset_dir, out, steps=40, extra=["--sgd-lr", "0.05", "--adamw-lr", "2e-3"])) == 0
        capsys.readouterr()

        def eval_sum(ckpt):
            assert main(["eval", "--checkpoint", str(ckpt), "--data", str(dataset_dir)]) == 0
            got = dict(part.split("=") for part in capsys.readouterr().out.strip().split())
            return float(got["miou_c"]) + float(got["miou_v"])

        assert eval_sum(out / "ckpt_final.bin") > eval_sum(untrained)

    def test_missing_checkpoint_exits_2(self, dataset_dir, tmp_path):
        assert main(["eval", "--checkpoint", str(tmp_path / "nope.bin"), "--data", str(dataset_dir)]) == 2


    def test_image_size_mismatch_exits_2(self, dataset_dir, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(train_args(dataset_dir, out, steps=1)) == 0
        big = tmp_path / "big"
        assert main(gen_args(big, n=2, size=32)) == 0
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(out / "ckpt_final.bin"), "--data", str(big)]) == 2
        assert "32x32" in capsys.readouterr().err

    def test_zero_heads_checkpoint_exits_2(self, dataset_dir, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(train_args(dataset_dir, out, steps=1)) == 0
        ckpt = out / "ckpt_final.bin"
        write_archive(ckpt, [(name, np.zeros(1) if name == "config/num_heads" else arr) for name, arr in read_archive(ckpt).items()])
        assert_exit_2(["eval", "--checkpoint", str(ckpt), "--data", str(dataset_dir)], capsys, "num_heads")

    @pytest.mark.parametrize("damage", ["cut_10", "cut_1000", "drop_config/num_classes", "drop_cnn/head_b", "shrink_vit/s1_wq", "shrink_adapter_cl/weight"])
    def test_damaged_checkpoint_exits_2(self, dataset_dir, tmp_path, capsys, damage):
        out = tmp_path / "run"
        assert main(train_args(dataset_dir, out, steps=1)) == 0
        ckpt = out / "ckpt_final.bin"
        kind, arg = damage.split("_", 1)
        if kind == "cut":
            ckpt.write_bytes(ckpt.read_bytes()[: int(arg)])
        elif kind == "shrink":
            write_archive(ckpt, [(name, arr[:-1] if name == arg else arr) for name, arr in read_archive(ckpt).items()])
        else:
            write_archive(ckpt, [(name, arr) for name, arr in read_archive(ckpt).items() if name != arg])
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(ckpt), "--data", str(dataset_dir)]) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert ("truncated" if kind == "cut" else arg) in err


class TestAblate:
    def test_grid_structure_and_reruns(self, dataset_dir, tmp_path, capsys):
        out = tmp_path / "grid"
        assert main(["ablate", "--data", str(dataset_dir), "--out", str(out), "--steps", "4", "--seed", "5", "--batch-size", "4", "--eval-every", "100", "--checkpoint-every", "0"]) == 0
        capsys.readouterr()
        table = (out / "ablation.tsv").read_text().splitlines()
        assert len(table) == 9  # header + 8 rows
        rows = [line.split("\t") for line in table[1:]]
        assert [r[:3] for r in rows] == [[str(int(h)), str(int(g)), str(int(p))] for h in (0, 1) for g in (0, 1) for p in (0, 1)]
        assert float(rows[0][5]) == 0.0  # all-off delta
        off = (out / "cell_hfd0_r0_p0" / "manifest.txt").read_text().splitlines()
        assert {"alpha = 0.0", "beta = 0.0", "region_bsd_on = False"} <= set(off)

        # all-off and all-on cells equal fresh cmd_train runs, bitwise
        for toggles, cell in ((["--beta", "0", "--gamma", "0"], "cell_hfd0_r0_p0"), ([], "cell_hfd1_r1_p1")):
            ref = tmp_path / f"ref_{cell}"
            assert main(train_args(dataset_dir, ref, steps=4, seed=5, extra=toggles)) == 0
            assert (out / cell / "metrics.log").read_bytes() == (ref / "metrics.log").read_bytes()


class TestSweep:
    def test_alpha_sweep_emits_five_rows(self, dataset_dir, tmp_path, capsys):
        out = tmp_path / "sweep"
        assert main(["sweep", "--param", "alpha", "--values", "0.1,0.5,1.0,2.0,5.0", "--data", str(dataset_dir), "--out", str(out), "--steps", "3", "--seed", "4", "--batch-size", "4", "--eval-every", "100", "--checkpoint-every", "0"]) == 0
        capsys.readouterr()
        table = (out / "sweep_alpha.tsv").read_text().splitlines()
        assert len(table) == 6
        assert [row.split("\t")[0] for row in table[1:]] == ["0.1", "0.5", "1", "2", "5"]

    def test_single_point_sweep_equals_train(self, dataset_dir, tmp_path, capsys):
        out = tmp_path / "sweep"
        assert main(["sweep", "--param", "gamma", "--values", "1.0", "--data", str(dataset_dir), "--out", str(out), "--steps", "4", "--seed", "6", "--batch-size", "4", "--eval-every", "100", "--checkpoint-every", "0"]) == 0
        capsys.readouterr()
        ref = tmp_path / "ref"
        assert main(train_args(dataset_dir, ref, steps=4, seed=6)) == 0
        assert (out / "gamma_1" / "metrics.log").read_bytes() == (ref / "metrics.log").read_bytes()

    def test_bad_values_exit_2(self, dataset_dir, tmp_path):
        assert main(["sweep", "--param", "alpha", "--values", "a,b", "--data", str(dataset_dir), "--out", str(tmp_path / "s"), "--steps", "1"]) == 2

    def test_invalid_cell_fails_before_any_run(self, dataset_dir, tmp_path, capsys):
        out = tmp_path / "s"
        assert_exit_2(["sweep", "--param", "alpha", "--values", "0.5,-1", "--data", str(dataset_dir), "--out", str(out), "--steps", "1"], capsys, "alpha")
        assert not out.exists()


class TestOsErrors:
    """An unusable path on the command line exits 2 with a one-line error, not a traceback."""

    def test_eval_checkpoint_is_a_directory(self, dataset_dir, tmp_path, capsys):
        (tmp_path / "ckpt").mkdir()
        assert_exit_2(["eval", "--checkpoint", str(tmp_path / "ckpt"), "--data", str(dataset_dir)], capsys, "ckpt")

    def test_train_out_is_a_file(self, dataset_dir, tmp_path, capsys):
        (tmp_path / "taken").write_text("")
        assert_exit_2(train_args(dataset_dir, tmp_path / "taken", steps=1), capsys, "taken")

    def test_gen_out_is_a_directory(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.mkdir()
        (taken / "keep.txt").write_text("kept")
        assert_exit_2(gen_args(taken, n=1), capsys, "taken")
        assert [p.name for p in tmp_path.iterdir()] == ["taken"]
        assert [p.name for p in taken.iterdir()] == ["keep.txt"] and (taken / "keep.txt").read_text() == "kept"

    def test_gen_out_under_a_file(self, tmp_path, capsys):
        (tmp_path / "taken").write_text("")
        assert_exit_2(gen_args(tmp_path / "taken" / "set", n=1), capsys, "taken")
        assert [p.name for p in tmp_path.iterdir()] == ["taken"]

    @pytest.mark.parametrize("taken, every", [("metrics.log", "0"), ("ckpt_000001.bin", "1")])
    def test_run_output_is_a_directory(self, dataset_dir, tmp_path, capsys, taken, every):
        out = tmp_path / "run"
        (out / taken).mkdir(parents=True)
        assert_exit_2(train_args(dataset_dir, out, steps=1, extra=["--checkpoint-every", every]), capsys, taken)
        assert not list(out.glob("*.tmp"))

    def test_train_data_is_a_directory(self, tmp_path, capsys):
        (tmp_path / "old_records").mkdir()
        assert_exit_2(train_args(tmp_path / "old_records", tmp_path / "run", steps=1), capsys, "old_records")
        assert not (tmp_path / "run").exists()


class TestBadDataset:
    """A dataset that is not N×3×H×W images with N×H×W labels exits 2 before any run starts."""

    @pytest.fixture()
    def one_channel(self, tmp_path):
        path = tmp_path / "gray"
        write_archive(path, [("images", np.zeros((4, 1, 16, 16))), ("labels", np.zeros((4, 16, 16)))])
        return path

    def test_train_on_one_channel_images(self, one_channel, tmp_path, capsys):
        assert_exit_2(train_args(one_channel, tmp_path / "run", steps=1), capsys, "N×3×H×W")
        assert not (tmp_path / "run").exists()

    def test_eval_on_one_channel_images(self, dataset_dir, one_channel, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(train_args(dataset_dir, out, steps=1)) == 0
        assert_exit_2(["eval", "--checkpoint", str(out / "ckpt_final.bin"), "--data", str(one_channel)], capsys, "N×3×H×W")

    def test_train_on_zero_size_images(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        write_archive(empty, [("images", np.zeros((2, 3, 0, 0))), ("labels", np.zeros((2, 0, 0)))])
        assert_exit_2(train_args(empty, tmp_path / "run", steps=1), capsys, "0x0")
        assert not (tmp_path / "run").exists()

    def test_train_with_eval_set_of_another_size(self, dataset_dir, tmp_path, capsys):
        big = tmp_path / "big"
        assert main(gen_args(big, n=2, size=32)) == 0
        assert_exit_2(train_args(dataset_dir, tmp_path / "run", steps=1, extra=["--eval-data", str(big)]), capsys, "32x32")
        assert not (tmp_path / "run").exists()


class TestUsage:
    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_required_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--n", "4"])  # no --out
        assert exc.value.code == 2

    def test_recipe_commands_parse(self, tmp_path):
        """Every `codistill …` line of the recipe scripts is accepted by the CLI parser."""
        scripts = sorted((Path(__file__).parents[1] / "scripts").glob("*.sh"))
        assert len(scripts) == 3
        for script in scripts:
            lines = [line for line in script.read_text().splitlines() if line.startswith("codistill ")]
            assert lines, script.name
            for line in lines:
                argv = shlex.split(line.replace("$OUT", str(tmp_path)))[1:]
                assert make_parser().parse_args(argv).command == argv[0]
