import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from helpers import (MALFORMED_MANIFESTS, SHORT_IHDR, make_dataset_tree,
                     rewrite_manifest, stand_in_pillow, write_jpeg_stub, write_png)
from leafnet import data as D
from leafnet import layers as L
from leafnet import metrics as MET
from leafnet import models as M
from leafnet import tensor as T
from leafnet import training as TR
from leafnet.cli import main

TWO_CLASS = {"blight": (170, 110, 30), "healthy": (40, 200, 40)}

REDUCED = ["--input", "16", "--filters", "4,8", "--dense", "16"]

# Sizes numpy refuses before it allocates anything ("Maximum allowed
# dimension exceeded"), with the layer whose parameters they size.
HUGE = "99999999999999999999"
OVERSIZED = pytest.mark.parametrize("arch, flag, layer", [
    ("cnn", "--filters", "conv2d"), ("cnn", "--dense", "dense"),
    ("lstm", "--hidden", "lstm"), ("lstm", "--dense", "dense")])


@pytest.fixture
def tree(tmp_path):
    return make_dataset_tree(tmp_path / "data", TWO_CLASS, n_train=4, n_valid=2)


def train_fixture_model(tree, out, epochs=10, seed=7, extra=()):
    rc = main(["train", str(tree), "--arch", "cnn", *REDUCED,
               "--epochs", str(epochs), "--batch", "4", "--lr", "0.003",
               "--seed", str(seed), "--out", str(out), *extra])
    assert rc == 0
    return out / "model.leaf"


class TestSummary:
    def test_cnn_totals_line(self, capsys):
        assert main(["summary", "--arch", "cnn"]) == 0
        out = capsys.readouterr().out
        assert "Total params: 7,842,762" in out
        assert "Non-trainable params: 0" in out

    def test_lstm_totals_line(self, capsys):
        assert main(["summary", "--arch", "lstm"]) == 0
        assert "Total params: 742,822" in capsys.readouterr().out

    def test_incompatible_input_names_failing_layer(self, capsys):
        rc = main(["summary", "--arch", "cnn", "--input", "64"])
        assert rc == 2
        assert "conv2d_9" in capsys.readouterr().err

    def test_config_echo_printed(self, capsys):
        main(["summary", "--arch", "cnn"])
        assert capsys.readouterr().out.startswith("leafnet summary:")

    @OVERSIZED
    def test_oversized_flag_exit_2(self, capsys, arch, flag, layer):
        rc = main(["summary", "--arch", arch, flag, HUGE])
        assert rc == 2
        assert f"error: layer {layer}: cannot allocate" in capsys.readouterr().err

    def test_unallocatable_layer_exit_2(self, capsys, monkeypatch):
        """numpy's MemoryError for a layer too large to draw (the dense
        weights behind a 100000-pixel input, 54.5 TiB) names that layer. The
        draw of any such size is refused here, so nothing that large is
        requested."""
        draw = L.he_uniform

        def refusing(shape, fan_in, rng):
            if math.prod(shape) > 1 << 30:
                raise MemoryError(f"Unable to allocate an array with shape {shape}")
            return draw(shape, fan_in, rng)

        monkeypatch.setattr(L, "he_uniform", refusing)
        rc = main(["summary", "--input", "100000"])
        assert rc == 2
        assert "error: layer dense: cannot allocate" in capsys.readouterr().err


class TestTrain:
    def test_writes_model_and_history(self, tree, tmp_path, capsys):
        out = tmp_path / "run"
        rc = main(["train", str(tree), "--arch", "cnn", *REDUCED,
                   "--epochs", "3", "--batch", "4", "--lr", "0.003",
                   "--seed", "7", "--out", str(out)])
        assert rc == 0
        assert (out / "model.leaf").exists()
        history = (out / "history.csv").read_text().strip().split("\n")
        assert history[0] == "epoch,train_loss,train_acc,val_loss,val_acc"
        assert len(history) == 4  # header + 3 epochs
        stdout = capsys.readouterr().out
        assert "seed=7" in stdout
        assert "epoch 3:" in stdout

    def test_seeded_runs_byte_identical(self, tree, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        train_fixture_model(tree, out1, epochs=2)
        train_fixture_model(tree, out2, epochs=2)
        assert (out1 / "history.csv").read_bytes() == (out2 / "history.csv").read_bytes()
        assert (out1 / "model.leaf").read_bytes() == (out2 / "model.leaf").read_bytes()

    def test_seeded_runs_byte_identical_without_the_worker(self, tree, tmp_path, monkeypatch):
        """The split points do not depend on the worker: every split run
        inline on the calling thread gives the same bytes."""
        out1, out2 = tmp_path / "worker", tmp_path / "inline"
        train_fixture_model(tree, out1, epochs=2)
        monkeypatch.setattr(T, "_pool", None)
        train_fixture_model(tree, out2, epochs=2)
        assert (out1 / "history.csv").read_bytes() == (out2 / "history.csv").read_bytes()
        assert (out1 / "model.leaf").read_bytes() == (out2 / "model.leaf").read_bytes()

    def test_missing_dataset_exit_2(self, tmp_path, capsys):
        rc = main(["train", str(tmp_path / "nowhere"), "--out", str(tmp_path)])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_lstm_path_trains(self, tree, tmp_path):
        out = tmp_path / "lrun"
        rc = main(["train", str(tree), "--arch", "lstm", "--input", "8",
                   "--timesteps", "4", "--hidden", "8", "--dense", "8",
                   "--epochs", "2", "--batch", "4", "--lr", "0.003",
                   "--seed", "3", "--out", str(out)])
        assert rc == 0
        assert (out / "model.leaf").exists()

    def test_out_naming_a_file_exit_2_before_training(self, tree, tmp_path, capsys,
                                                       monkeypatch):
        """An unusable --out fails before the hours of training, not after."""
        taken = tmp_path / "taken"
        taken.write_text("not a directory")

        def never(*_):
            raise AssertionError("training ran before --out was created")

        monkeypatch.setattr(TR, "train", never)
        rc = main(["train", str(tree), "--arch", "cnn", *REDUCED, "--epochs", "1",
                   "--out", str(taken)])
        assert rc == 2
        assert "taken" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow is the point
    def test_divergence_exit_3(self, tree, tmp_path, capsys):
        rc = main(["train", str(tree), "--arch", "cnn", *REDUCED,
                   "--epochs", "2", "--batch", "4", "--lr", "1e30",
                   "--out", str(tmp_path / "div")])
        assert rc == 3
        err = capsys.readouterr().err
        assert "epoch" in err and "batch" in err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_found_by_validation_exit_3(self, tree, tmp_path, capsys):
        """One batch per epoch: the first non-finite values show in
        validation, which is still a numeric failure of training."""
        rc = main(["train", str(tree), "--arch", "cnn", *REDUCED,
                   "--epochs", "2", "--batch", "8", "--lr", "1e30",
                   "--out", str(tmp_path / "div")])
        assert rc == 3
        assert "validation" in capsys.readouterr().err.split("at epoch 1")[0]


    @pytest.mark.parametrize("lr", ["nan", "inf", "-0.003"])
    def test_bad_learning_rate_exit_2_before_reading_data(self, tmp_path, capsys, lr):
        rc = main(["train", str(tmp_path / "nowhere"), "--lr", lr,
                   "--out", str(tmp_path / "run")])
        assert rc == 2
        assert "learning rate" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("arch, flag", [
        ("cnn", "--input"), ("cnn", "--dense"), ("lstm", "--input"),
        ("lstm", "--hidden"), ("lstm", "--timesteps"), ("lstm", "--dense")])
    def test_zero_size_flag_exit_2(self, tree, tmp_path, capsys, arch, flag):
        """0 is a value to validate, not a request for the stock size."""
        rc = main(["train", str(tree), "--arch", arch, flag, "0", "--epochs", "1",
                   "--out", str(tmp_path / "run")])
        assert rc == 2
        assert "error" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @OVERSIZED
    def test_oversized_flag_exit_2(self, tree, tmp_path, capsys, arch, flag, layer):
        """A size too large to allocate is a typed error naming its layer."""
        rc = main(["train", str(tree), "--arch", arch, flag, HUGE, "--epochs", "1",
                   "--out", str(tmp_path / "run")])
        assert rc == 2
        assert f"error: layer {layer}: cannot allocate" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_negative_lstm_input_exit_2(self, capsys):
        """-8 squares to the pixel count of 8, which must not pass for it."""
        rc = main(["summary", "--arch", "lstm", "--input", "-8", "--timesteps", "4"])
        assert rc == 2
        assert "--input -8" in capsys.readouterr().err


class TestEval:
    def test_overfit_model_full_accuracy_on_train(self, tree, tmp_path, capsys):
        out = tmp_path / "run"
        model = train_fixture_model(tree, out, epochs=12)
        rc = main(["eval", str(model), str(tree), "--split", "train",
                   "--out", str(out)])
        assert rc == 0
        assert "accuracy: 1.0000" in capsys.readouterr().out
        report = (out / "report.txt").read_text()
        assert "macro avg" in report and "weighted avg" in report
        # a perfect 2-class result fully determines the report text
        expected_cm = MET.ConfusionMatrix(np.diag([4, 4]).astype(np.int64),
                                          ["blight", "healthy"])
        assert report == MET.format_report(MET.class_report(expected_cm))
        assert (out / "confusion.csv").read_text() == MET.cm_to_csv(expected_cm)

    def test_report_layout_on_valid(self, tree, tmp_path):
        out = tmp_path / "run"
        model = train_fixture_model(tree, out, epochs=2)
        assert main(["eval", str(model), str(tree), "--out", str(out)]) == 0
        lines = (out / "report.txt").read_text().splitlines()
        assert lines[0].split() == ["precision", "recall", "f1-score", "support"]
        assert any(l.strip().startswith("blight") for l in lines)
        csv_lines = (out / "confusion.csv").read_text().strip().split("\n")
        assert csv_lines[0] == "blight,healthy"
        assert len(csv_lines) == 3

    def test_label_map_mismatch_exit_2(self, tree, tmp_path, capsys):
        out = tmp_path / "run"
        model = train_fixture_model(tree, out, epochs=1)
        other = make_dataset_tree(tmp_path / "other", {"different": (5, 5, 5)},
                                  n_train=1, n_valid=1)
        rc = main(["eval", str(model), str(other), "--out", str(out)])
        assert rc == 2
        assert "different" in capsys.readouterr().err

    def test_corrupt_model_exit_2(self, tree, tmp_path, capsys):
        bad = tmp_path / "bad.leaf"
        bad.write_bytes(b"LEAFgarbage")
        rc = main(["eval", str(bad), str(tree), "--out", str(tmp_path)])
        assert rc == 2

    def test_out_naming_a_file_exit_2_before_predicting(self, tree, tmp_path, capsys,
                                                         monkeypatch):
        model = train_fixture_model(tree, tmp_path / "run", epochs=1)
        taken = tmp_path / "taken"
        taken.write_text("not a directory")

        def never(*_):
            raise AssertionError("eval predicted before --out was created")

        monkeypatch.setattr(TR, "predictions", never)
        rc = main(["eval", str(model), str(tree), "--out", str(taken)])
        assert rc == 2
        assert "taken" in capsys.readouterr().err

    def test_lstm_eval_and_predict(self, tree, tmp_path, capsys):
        """The LSTM loader serves eval and predict as it serves train."""
        out = tmp_path / "lrun"
        assert main(["train", str(tree), "--arch", "lstm", "--input", "8",
                     "--timesteps", "4", "--hidden", "8", "--dense", "8",
                     "--epochs", "2", "--batch", "4", "--lr", "0.003",
                     "--seed", "3", "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["eval", str(out / "model.leaf"), str(tree), "--out", str(out)]) == 0
        n_valid = D.scan_dataset(tree).counts()["valid"]
        assert f"(n={n_valid})" in capsys.readouterr().out
        header = (out / "confusion.csv").read_text().split("\n")[0]
        assert header == ",".join(sorted(TWO_CLASS))
        image = next((tree / "valid" / "healthy").iterdir())
        assert main(["predict", str(out / "model.leaf"), str(image)]) == 0
        name, conf = capsys.readouterr().out.strip().split("\n")[-1].split("\t")
        assert name in TWO_CLASS
        assert 0.0 < float(conf) <= 1.0

    def test_empty_split_exit_2(self, tree, tmp_path, capsys):
        out = tmp_path / "run"
        model = train_fixture_model(tree, out, epochs=1)
        for f in (tree / "valid").rglob("*.ppm"):
            f.unlink()
        rc = main(["eval", str(model), str(tree), "--out", str(out)])
        assert rc == 2
        assert "valid" in capsys.readouterr().err


class TestPredict:
    def test_prints_class_and_confidence(self, tree, tmp_path, capsys):
        out = tmp_path / "run"
        model = train_fixture_model(tree, out, epochs=12)
        image = next((tree / "valid" / "healthy").iterdir())
        rc = main(["predict", str(model), str(image)])
        assert rc == 0
        line = capsys.readouterr().out.strip().split("\n")[-1]
        name, conf = line.split("\t")
        assert name in TWO_CLASS
        float(conf)
        assert len(conf.split(".")[1]) == 4

    def test_missing_image_exit_2_mentions_path(self, tree, tmp_path, capsys):
        out = tmp_path / "run"
        model = train_fixture_model(tree, out, epochs=1)
        rc = main(["predict", str(model), str(tmp_path / "ghost.ppm")])
        assert rc == 2
        assert "ghost.ppm" in capsys.readouterr().err

    def test_undecodable_image_exit_2(self, tree, tmp_path, capsys):
        out = tmp_path / "run"
        model = train_fixture_model(tree, out, epochs=1)
        junk = tmp_path / "junk.ppm"
        junk.write_bytes(b"this is not an image")
        assert main(["predict", str(model), str(junk)]) == 2

    def test_ppm_sample_above_maxval_exit_2(self, tree, tmp_path, capsys):
        out = tmp_path / "run"
        model = train_fixture_model(tree, out, epochs=1)
        bright = tmp_path / "bright.ppm"
        bright.write_bytes(b"P6 1 1 15\n" + bytes([15, 200, 15]))
        assert main(["predict", str(model), str(bright)]) == 2
        assert "bright.ppm" in capsys.readouterr().err

    def test_short_ihdr_png_exit_2(self, tree, tmp_path, capsys):
        out = tmp_path / "run"
        model = train_fixture_model(tree, out, epochs=1)
        short = tmp_path / "short.png"
        write_png(short, np.zeros((4, 4, 3), np.uint8), ihdr=SHORT_IHDR)
        assert main(["predict", str(model), str(short)]) == 2
        assert "short.png" in capsys.readouterr().err

    def test_jpeg_without_pillow_exit_2(self, tree, tmp_path, capsys, monkeypatch):
        model = train_fixture_model(tree, tmp_path / "run", epochs=1)
        monkeypatch.setitem(sys.modules, "PIL", None)
        assert main(["predict", str(model), str(write_jpeg_stub(tmp_path / "x.jpg"))]) == 2
        assert "x.jpg: JPEG decoding needs pillow" in capsys.readouterr().err

    def test_oversized_jpeg_exit_2(self, tree, tmp_path, capsys, monkeypatch):
        model = train_fixture_model(tree, tmp_path / "run", epochs=1)
        converted = stand_in_pillow(monkeypatch, (20000, 20000))
        assert main(["predict", str(model), str(write_jpeg_stub(tmp_path / "x.jpg"))]) == 2
        assert "x.jpg: JPEG size 20000x20000 is too large" in capsys.readouterr().err
        assert converted == []

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_fifo_model_exit_2(self, tree, tmp_path, capsys):
        fifo = tmp_path / "pipe.leaf"
        os.mkfifo(fifo)
        writer = os.open(fifo, os.O_RDWR | os.O_NONBLOCK)  # so the read end opens (Linux)
        try:
            image = next((tree / "valid" / "healthy").iterdir())
            assert main(["predict", str(fifo), str(image)]) == 2
        finally:
            os.close(writer)
        assert "pipe.leaf: not a regular file" in capsys.readouterr().err

    @pytest.mark.parametrize("case", sorted(MALFORMED_MANIFESTS))
    def test_malformed_manifest_exit_2(self, tree, tmp_path, capsys, case):
        model = M.build_cnn(M.CnnConfig(input_size=16, filters=(4, 8), dense_units=16,
                                        classes=2))
        model.label_map = sorted(TWO_CLASS)
        D.save_model(model, tmp_path / "m.leaf")
        bad = tmp_path / "bad.leaf"
        rewrite_manifest(tmp_path / "m.leaf", bad, MALFORMED_MANIFESTS[case])
        image = next((tree / "valid" / "healthy").iterdir())
        assert main(["predict", str(bad), str(image)]) == 2
        assert "bad.leaf" in capsys.readouterr().err


def test_failed_text_write_leaves_no_temp_file(tmp_path):
    target = tmp_path / "report.txt"
    target.mkdir()  # the temp file is written, then cannot replace a directory
    (target / "keep").write_text("x")
    with pytest.raises(OSError):
        D.write_atomic(target, [b"report"])
    assert sorted(p.name for p in tmp_path.iterdir()) == ["report.txt"]


def test_failed_text_write_keeps_old_file(tmp_path):
    target = tmp_path / "report.txt"
    target.write_text("old report")

    def blocks():
        yield b"new rep"
        raise OSError("disk full")

    with pytest.raises(OSError, match="disk full"):
        D.write_atomic(target, blocks())
    assert [p.name for p in tmp_path.iterdir()] == ["report.txt"]
    assert target.read_text() == "old report"
    D.write_atomic(target, [b"new report"])
    assert [p.name for p in tmp_path.iterdir()] == ["report.txt"]
    assert target.read_text() == "new report"


class TestUsage:
    def test_no_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2

    def test_unknown_arch_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["summary", "--arch", "resnet"])
        assert err.value.code == 2

    def test_bad_filters_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["summary", "--arch", "cnn", "--filters", "a,b"])
        assert err.value.code == 2

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        """TrainConfig alone checks the seed, before the dataset is scanned
        and before --out is created."""
        rc = main(["train", str(tmp_path / "nowhere"), "--seed", "-3",
                   "--out", str(tmp_path / "run")])
        assert rc == 2
        assert "error: seed must be >= 0, got -3" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.skipif(shutil.which("leafnet") is None,
                        reason="console script not installed")
    def test_console_script(self):
        proc = subprocess.run(["leafnet", "summary", "--arch", "lstm"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "Total params: 742,822" in proc.stdout
