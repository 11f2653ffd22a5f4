import shlex
from pathlib import Path

import numpy as np
import pytest

from codistill.cli import main, make_parser, parse_config_file, resolve_configs
from codistill.data import load_dataset
from codistill.errors import ConfigError
from codistill.recordio import read_archive, write_archive
from codistill.losses import pixel_ce
from codistill.seeding import substream
from codistill.students import ArchConfig, cnn_forward, init_cnn_params, init_vit_params, vit_forward
from codistill.tensor import Tensor, log_softmax, zero_grads
from codistill.trainer import (
    AdamW,
    AdamWConfig,
    SGDConfig,
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


@pytest.fixture()
def dataset_dir(tmp_path):
    out = tmp_path / "data"
    assert main(gen_args(out)) == 0
    return out


class TestGen:
    def test_writes_n_records(self, tmp_path):
        out = tmp_path / "d"
        assert main(gen_args(out, n=9)) == 0
        assert len(sorted(out.glob("*.bin"))) == 9

    def test_rerun_same_seed_identical_files(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(gen_args(a))
        main(gen_args(b))
        for fa, fb in zip(sorted(a.glob("*.bin")), sorted(b.glob("*.bin"))):
            assert fa.read_bytes() == fb.read_bytes()

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
        assert float(manifest["sgd_momentum"]) == 0.9
        assert float(manifest["sgd_weight_decay"]) == 5e-4
        assert float(manifest["adamw_weight_decay"]) == 0.01

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

        solo_c = solo_run(init_cnn_params, "init_cnn", cnn_forward, lambda p: SgdMomentum(p, SGDConfig()))
        solo_v = solo_run(init_vit_params, "init_vit", vit_forward, lambda p: AdamW(p, AdamWConfig()))
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
        cfg.write_text("# a comment\nalpha = 0.5  # trailing comment\nsteps = 7\nhfd_on = false\n")
        values = parse_config_file(cfg)
        assert values == {"alpha": 0.5, "steps": 7, "hfd_on": False}

    @pytest.mark.parametrize(
        "text, match",
        [
            ("alpha = 0.5\nsteps = abc\n", r"bad.cfg:2: .*'steps'"),
            ("hfd_on = maybe\n", r"bad.cfg:1: .*'hfd_on'"),
            ("cnn_channels = 8,x,24\n", r"bad.cfg:1: .*'cnn_channels'"),
            ("input_size = 64\n", r"bad.cfg:1: unknown config key 'input_size'"),
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
        assert main(train_args(dataset_dir, a, extra=["--alpha", "0.7", "--no-hfd", "--adamw-lr", "3e-4"])) == 0
        assert main(["train", "--data", str(dataset_dir), "--out", str(b), "--config", str(a / "manifest.txt")]) == 0
        assert (a / "metrics.log").read_bytes() == (b / "metrics.log").read_bytes()
        body = [line for line in (b / "manifest.txt").read_text().splitlines() if not line.startswith("#")]
        assert body == [line for line in (a / "manifest.txt").read_text().splitlines() if not line.startswith("#")]

    def test_no_flags_resolve_to_library_defaults(self, dataset_dir, tmp_path):
        args = make_parser().parse_args(["train", "--data", str(dataset_dir), "--out", str(tmp_path / "run")])
        assert resolve_configs(args, (16, 16)) == (ArchConfig(input_hw=(16, 16)), TrainConfig())

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_numeric_failure_exits_3(self, dataset_dir, tmp_path):
        code = main(train_args(dataset_dir, tmp_path / "run", steps=6, extra=["--sgd-lr", "1e200"]))
        assert code == 3


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
        assert "hfd_on = False" in (out / "cell_hfd0_r0_p0" / "manifest.txt").read_text()

        # all-off and all-on cells equal fresh cmd_train runs, bitwise
        for toggles, cell in ((["--no-hfd", "--no-region-bsd", "--no-pixel-bsd"], "cell_hfd0_r0_p0"), ([], "cell_hfd1_r1_p1")):
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
