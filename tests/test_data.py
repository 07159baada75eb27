import os
import struct
import sys
import tracemalloc

import numpy as np
import pytest

from helpers import (MALFORMED_MANIFESTS, SHORT_IHDR, declaring, make_dataset_tree,
                     reference_resize, rewrite_manifest, stand_in_pillow, write_jpeg_stub,
                     write_png, write_ppm)
from leafnet import data as D
from leafnet import layers as L
from leafnet import models as M
from leafnet import training as TR
from leafnet.errors import (ConfigError, DatasetError, DecodeError,
                            ModelFormatError, ModelStateError)

TWO_CLASS = {"blight": (170, 110, 30), "healthy": (40, 200, 40)}


class TestScanDataset:
    def test_fixture_tree(self, tmp_path):
        make_dataset_tree(tmp_path, TWO_CLASS, n_train=3, n_valid=1)
        index = D.scan_dataset(tmp_path)
        assert index.label_map == ["blight", "healthy"]
        assert len(index.records) == 8
        assert index.counts() == {"train": 6, "valid": 2}

    def test_label_map_sorted_bytewise(self, tmp_path):
        make_dataset_tree(tmp_path, {"b_class": (0, 0, 0), "A_class": (9, 9, 9)},
                          n_train=1, n_valid=1)
        index = D.scan_dataset(tmp_path)
        assert index.label_map == ["A_class", "b_class"]  # byte order, not casefold

    def test_missing_split_rejected(self, tmp_path):
        (tmp_path / "train" / "a").mkdir(parents=True)
        with pytest.raises(DatasetError, match="valid"):
            D.scan_dataset(tmp_path)

    def test_valid_only_class_warns_but_mapped(self, tmp_path):
        make_dataset_tree(tmp_path, {"a": (1, 2, 3)}, n_train=1, n_valid=1)
        extra = tmp_path / "valid" / "zz_only"
        extra.mkdir()
        write_ppm(extra / "x.ppm", np.zeros((4, 4, 3), np.uint8))
        with pytest.warns(D.DatasetWarning, match="zz_only"):
            index = D.scan_dataset(tmp_path)
        assert "zz_only" in index.label_map

    def test_empty_class_dir_kept_in_map(self, tmp_path):
        make_dataset_tree(tmp_path, {"a": (1, 2, 3)}, n_train=1, n_valid=1)
        (tmp_path / "train" / "empty_class").mkdir()
        (tmp_path / "valid" / "empty_class").mkdir()
        index = D.scan_dataset(tmp_path)
        assert "empty_class" in index.label_map
        empty_id = index.label_map.index("empty_class")
        assert not any(r.label == empty_id for r in index.records)

    def test_non_image_files_ignored(self, tmp_path):
        make_dataset_tree(tmp_path, {"a": (1, 2, 3)}, n_train=1, n_valid=1)
        (tmp_path / "train" / "a" / "notes.txt").write_text("skip me")
        index = D.scan_dataset(tmp_path)
        assert len(index.records) == 2


class TestDecoding:
    def test_solid_ppm_to_all_ones(self, tmp_path):
        write_ppm(tmp_path / "w.ppm", np.full((10, 10, 3), 255, np.uint8))
        x = D.load_image(tmp_path / "w.ppm", (128, 128, 3))
        assert x.shape == (128, 128, 3)
        assert x.dtype == np.float32
        assert np.all(x == 1.0)

    def test_ppm_with_comments(self, tmp_path):
        body = np.arange(12, dtype=np.uint8).tobytes()
        (tmp_path / "c.ppm").write_bytes(b"P6\n# a comment\n2 2\n# more\n255\n" + body)
        img = D.decode_image(tmp_path / "c.ppm")
        assert img.shape == (2, 2, 3)
        np.testing.assert_array_equal(img.ravel(), np.arange(12))

    def test_ppm_maxval_15_white_loads_as_ones(self, tmp_path):
        (tmp_path / "w15.ppm").write_bytes(b"P6 2 1 15\n" + bytes([15] * 6))
        np.testing.assert_array_equal(D.decode_image(tmp_path / "w15.ppm"), 255)
        assert np.all(D.load_image(tmp_path / "w15.ppm", (4, 4, 3)) == 1.0)

    def test_ppm_maxval_15_rescales_every_level(self, tmp_path):
        levels = np.arange(16, dtype=np.uint8)
        (tmp_path / "r.ppm").write_bytes(b"P6 16 1 15\n" + np.repeat(levels, 3).tobytes())
        img = D.decode_image(tmp_path / "r.ppm")
        assert img.dtype == np.uint8
        np.testing.assert_array_equal(img[0, :, 0], [(v * 255 + 7) // 15 for v in range(16)])
        assert img[0, 0, 0] == 0 and img[0, 15, 0] == 255

    def test_ppm_maxval_1_is_black_and_white(self, tmp_path):
        (tmp_path / "bw.ppm").write_bytes(b"P6 2 1 1\n" + bytes([0, 1, 0, 1, 1, 1]))
        np.testing.assert_array_equal(D.decode_image(tmp_path / "bw.ppm"),
                                      [[[0, 255, 0], [255, 255, 255]]])

    def test_ppm_maxval_255_bytes_unchanged(self, tmp_path):
        raw = np.random.default_rng(6).integers(0, 256, (3, 5, 3)).astype(np.uint8)
        write_ppm(tmp_path / "f.ppm", raw)
        np.testing.assert_array_equal(D.decode_image(tmp_path / "f.ppm"), raw)

    def test_ppm_sample_above_maxval_rejected(self, tmp_path):
        (tmp_path / "hi.ppm").write_bytes(b"P6 2 1 15\n" + bytes([15, 15, 15, 15, 16, 15]))
        with pytest.raises(DecodeError, match="hi.ppm.*above maxval 15"):
            D.decode_image(tmp_path / "hi.ppm")

    def test_truncated_ppm_rejected_with_path(self, tmp_path):
        (tmp_path / "bad.ppm").write_bytes(b"P6\n4 4\n255\nxx")
        with pytest.raises(DecodeError, match="bad.ppm"):
            D.decode_image(tmp_path / "bad.ppm")

    @pytest.mark.parametrize("header", [
        b"P6#c\n2 1 255\n", b"P6 2#c\n1 255\n", b"P6\r\n2\v1\f255\n",
        b"P6 02 01 255 ", b"P6\t2 1 255\r", b"P6 #\n# x\n 2 #a#b\n1\n255\n"])
    def test_ppm_header_grammar_accepted(self, tmp_path, header):
        """Whitespace is any of the six ASCII space bytes; a comment may
        follow the magic or a number directly and runs to the end of its
        line; numbers may have leading zeros."""
        (tmp_path / "h.ppm").write_bytes(header + bytes(range(6)))
        np.testing.assert_array_equal(D.decode_image(tmp_path / "h.ppm"),
                                      np.arange(6).reshape(1, 2, 3))

    @pytest.mark.parametrize("header", [
        b"P6 +2 1 255\n", b"P6 2_0 1 255\n", b"P6 2 1 255", b"P6 2 1 255#c\n",
        b"P6 2 1 +255\n", b"P6 2 1 # no newline", b"P6x 2 1 255\n", b"P62 1 255\n",
        b"P6 2 1 2\xd9\xa55\n", b"P6 2 1 " + b"0" * 5000 + b"255\n"])
    def test_ppm_header_grammar_refused_with_path(self, tmp_path, header):
        """Signs, underscores and non-ASCII digits are not decimal numbers; a
        comment without its newline, or no whitespace byte after maxval, ends
        the header early. The file holds pixels enough for int()'s reading of
        the numbers (2_0 is 20)."""
        (tmp_path / "h.ppm").write_bytes(header + bytes(range(6)) * 20)
        with pytest.raises(DecodeError, match="h.ppm: bad PPM header"):
            D.decode_image(tmp_path / "h.ppm")

    def test_png_rgb_exact(self, tmp_path):
        rgb = np.random.default_rng(0).integers(0, 256, (5, 7, 3)).astype(np.uint8)
        write_png(tmp_path / "t.png", rgb)
        np.testing.assert_array_equal(D.decode_image(tmp_path / "t.png"), rgb)

    def test_png_grayscale_replicated(self, tmp_path):
        gray = np.random.default_rng(1).integers(0, 256, (4, 6)).astype(np.uint8)
        write_png(tmp_path / "g.png", gray)
        img = D.decode_image(tmp_path / "g.png")
        assert img.shape == (4, 6, 3)
        for c in range(3):
            np.testing.assert_array_equal(img[:, :, c], gray)

    def test_png_alpha_dropped(self, tmp_path):
        rgba = np.random.default_rng(2).integers(0, 256, (4, 4, 4)).astype(np.uint8)
        write_png(tmp_path / "a.png", rgba)
        np.testing.assert_array_equal(D.decode_image(tmp_path / "a.png"), rgba[:, :, :3])

    def test_zero_sized_ppm_rejected(self, tmp_path):
        (tmp_path / "empty.ppm").write_bytes(b"P6 0 0 255\n")
        with pytest.raises(DecodeError, match="empty.ppm"):
            D.load_image(tmp_path / "empty.ppm", (128, 128, 3))

    @pytest.mark.parametrize("shape", [(0, 4, 3), (4, 0, 3)])
    def test_zero_sized_png_rejected(self, tmp_path, shape):
        write_png(tmp_path / "empty.png", np.zeros(shape, np.uint8))
        with pytest.raises(DecodeError, match="empty.png"):
            D.load_image(tmp_path / "empty.png", (128, 128, 3))

    def test_short_ihdr_png_rejected(self, tmp_path):
        write_png(tmp_path / "short.png", np.zeros((4, 4, 3), np.uint8), ihdr=SHORT_IHDR)
        with pytest.raises(DecodeError, match="short.png.*IHDR"):
            D.load_image(tmp_path / "short.png", (128, 128, 3))

    def test_jpeg_decoded_by_pillow(self, tmp_path, monkeypatch):
        """The JPEG path with a stand-in pillow: decode_image returns what
        convert("RGB") gives, and load_image resizes and scales it exactly
        as it does the same pixels read from a PPM."""
        pixels = np.random.default_rng(3).integers(0, 256, (5, 7, 3)).astype(np.uint8)
        converted = stand_in_pillow(monkeypatch, (7, 5), pixels)
        jpeg = write_jpeg_stub(tmp_path / "leaf.jpg")
        np.testing.assert_array_equal(D.decode_image(jpeg), pixels)
        write_ppm(tmp_path / "leaf.ppm", pixels)
        got = D.load_image(jpeg, (8, 8, 3))
        assert got.tobytes() == D.load_image(tmp_path / "leaf.ppm", (8, 8, 3)).tobytes()
        assert converted == ["RGB", "RGB"]

    @pytest.mark.parametrize("fail, message", [("open", "cannot identify image file"),
                                               ("convert", "image file is truncated")])
    def test_jpeg_pillow_error_names_file(self, tmp_path, monkeypatch, fail, message):
        stand_in_pillow(monkeypatch, (4, 4), np.zeros((4, 4, 3), np.uint8), fail=fail)
        with pytest.raises(DecodeError, match=f"leaf.jpg: {message}"):
            D.decode_image(write_jpeg_stub(tmp_path / "leaf.jpg"))

    def test_jpeg_without_pillow_rejected(self, tmp_path, monkeypatch):
        monkeypatch.setitem(sys.modules, "PIL", None)
        with pytest.raises(DecodeError, match="leaf.jpg: JPEG decoding needs pillow"):
            D.decode_image(write_jpeg_stub(tmp_path / "leaf.jpg"))

    @pytest.mark.parametrize("size", [(20000, 20000), (D.MAX_PIXELS + 1, 1)])
    def test_oversized_jpeg_rejected_before_convert(self, tmp_path, monkeypatch, size):
        """A JPEG header over MAX_PIXELS is refused before pillow decodes a
        pixel, as a PPM or PNG header is; the path is named once."""
        converted = stand_in_pillow(monkeypatch, size)
        jpeg = write_jpeg_stub(tmp_path / "big.jpg")
        with pytest.raises(DecodeError, match="too large") as err:
            D.decode_image(jpeg)
        assert converted == []
        assert str(err.value).count("big.jpg") == 1

    def test_jpeg_at_max_pixels_decoded(self, tmp_path, monkeypatch):
        converted = stand_in_pillow(monkeypatch, (D.MAX_PIXELS, 1), np.zeros((1, 2, 3), np.uint8))
        D.decode_image(write_jpeg_stub(tmp_path / "wide.jpg"))
        assert converted == ["RGB"]

    def test_unknown_format_rejected(self, tmp_path):
        (tmp_path / "junk.ppm").write_bytes(b"not an image at all")
        with pytest.raises(DecodeError, match="junk.ppm"):
            D.decode_image(tmp_path / "junk.ppm")

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(DecodeError, match="nope.ppm"):
            D.decode_image(tmp_path / "nope.ppm")

    def test_unknown_target_rejected_before_reading(self, tmp_path):
        """A shape no square RGB image fills is refused before the (missing)
        file is read; a model input shape gets as far as reading it."""
        for shape in [(8, 8, 1), (7, 100), (8, 6, 3), (0, 3), ()]:
            with pytest.raises(ConfigError, match="no square RGB image"):
                D.load_image(tmp_path / "nope.ppm", shape)
        for shape in [(8, 8, 3), (4, 48)]:
            with pytest.raises(DecodeError, match="nope.ppm"):
                D.load_image(tmp_path / "nope.ppm", shape)


class TestResize:
    def test_identity_when_sizes_match(self, tmp_path):
        rng = np.random.default_rng(3)
        raw = rng.integers(0, 256, (128, 128, 3)).astype(np.uint8)
        write_ppm(tmp_path / "i.ppm", raw)
        x = D.load_image(tmp_path / "i.ppm", (128, 128, 3))
        np.testing.assert_array_equal(x, (raw / 255.0).astype(np.float32))

    def test_checkerboard_matches_scalar_bilinear_formula(self):
        board = np.zeros((2, 2, 1))
        board[0, 1, 0] = 255.0
        board[1, 0, 0] = 255.0
        out = D.bilinear_resize(board, 4, 4)
        # independent reference: sample position (1,1) maps to source
        # (0.25, 0.25); interpolate the four corners by hand
        ty = tx = 0.25
        a00, a01, a10, a11 = 0.0, 255.0, 255.0, 0.0
        expected = ((1 - ty) * ((1 - tx) * a00 + tx * a01)
                    + ty * ((1 - tx) * a10 + tx * a11))
        assert abs(out[1, 1, 0] - expected) < 1e-9
        # center of symmetry: position (2,2) maps to (0.75, 0.75)
        ty = tx = 0.75
        expected = ((1 - ty) * ((1 - tx) * a00 + tx * a01)
                    + ty * ((1 - tx) * a10 + tx * a11))
        assert abs(out[2, 2, 0] - expected) < 1e-9

    # (source [H, W, C], output H, output W): up, down, 1-pixel sides, odd
    # and non-square sizes, the LSTM's 80x80, four-channel sources
    CASES = [((9, 13, 3), 32, 32), ((256, 256, 3), 128, 128), ((100, 90, 3), 80, 80),
             ((1, 1, 3), 5, 5), ((1, 7, 3), 4, 3), ((6, 1, 3), 1, 1), ((5, 5, 3), 1, 9),
             ((37, 53, 3), 19, 41), ((3, 2, 1), 7, 5), ((31, 17, 4), 64, 9)]

    @pytest.mark.parametrize("shape,out_h,out_w", CASES, ids=[
        f"{'x'.join(map(str, shape))}-to-{h}x{w}" for shape, h, w in CASES])
    def test_matches_float64_reference(self, shape, out_h, out_w):
        img = np.random.default_rng(list(shape)).integers(0, 256, shape, dtype=np.uint8)
        for src in (img, img[:, :, :3]):    # the sliced view is how RGBA decodes
            out = D.bilinear_resize(src, out_h, out_w)
            ref = reference_resize(src, out_h, out_w)
            assert out.dtype == np.float64 and out.shape == ref.shape
            assert out.tobytes() == ref.tobytes()

    def test_float_input_matches_float64_reference(self):
        board = np.zeros((2, 2, 1), dtype=np.float32)
        board[0, 1, 0] = board[1, 0, 0] = 255.0
        for out in (4, 3, 1):
            assert D.bilinear_resize(board, out, out).tobytes() == \
                reference_resize(board, out, out).tobytes()

    def test_load_image_memory_follows_output_size(self, tmp_path):
        """A 2000x2000 PPM resizes to 128x128 without a float64 copy of the
        whole image: the traced peak stays under 1.5x the file's size."""
        raw = np.random.default_rng(6).integers(0, 256, (2000, 2000, 3), dtype=np.uint8)
        write_ppm(tmp_path / "big.ppm", raw)
        size = (tmp_path / "big.ppm").stat().st_size
        tracemalloc.start()
        try:
            x = D.load_image(tmp_path / "big.ppm", (128, 128, 3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert x.shape == (128, 128, 3)
        assert peak < 1.5 * size, f"load_image peaked at {peak / size:.2f}x the file size"

    def test_values_stay_in_range(self, tmp_path):
        rng = np.random.default_rng(4)
        write_ppm(tmp_path / "r.ppm", rng.integers(0, 256, (9, 13, 3)).astype(np.uint8))
        x = D.load_image(tmp_path / "r.ppm", (32, 32, 3))
        assert x.min() >= 0.0 and x.max() <= 1.0


class TestSequenceTensor:
    def test_shape_and_bijection(self, tmp_path):
        rng = np.random.default_rng(5)
        raw = rng.integers(0, 256, (100, 90, 3)).astype(np.uint8)
        write_ppm(tmp_path / "s.ppm", raw)
        seq = D.load_image(tmp_path / "s.ppm", (15, 1280))
        assert seq.shape == (15, 1280)
        img = (D.bilinear_resize(raw, 80, 80) / 255.0).astype(np.float32)
        np.testing.assert_array_equal(seq.reshape(-1), img.reshape(-1))

    def test_invalid_timestep_split_rejected(self, tmp_path):
        write_ppm(tmp_path / "s.ppm", np.zeros((10, 10, 3), np.uint8))
        with pytest.raises(ConfigError):
            D.load_image(tmp_path / "s.ppm", (7, 100))

    def test_default_dims_factor(self, tmp_path):
        """The stock LSTM input reads an 80x80 image: one that size is not resized."""
        raw = np.random.default_rng(7).integers(0, 256, (80, 80, 3)).astype(np.uint8)
        write_ppm(tmp_path / "s.ppm", raw)
        shape = M.lstm_spec(M.LstmConfig()).input_shape
        assert shape == (15, 1280) and 15 * 1280 == 80 * 80 * 3
        seq = D.load_image(tmp_path / "s.ppm", shape)
        np.testing.assert_array_equal(seq.reshape(80, 80, 3), (raw / 255.0).astype(np.float32))


class TestBatches:
    def make_index(self, tmp_path, n_train=10):
        make_dataset_tree(tmp_path, {"a": (10, 10, 10)}, n_train=n_train, n_valid=2,
                          size=8)
        return D.scan_dataset(tmp_path)

    def test_batch_sizes_include_short_final(self, tmp_path):
        ds = D.DiskDataset(self.make_index(tmp_path, n_train=10), "train",
                           lambda p: D.load_image(p, (8, 8, 3)))
        assert [len(labels) for _, labels in ds.batches(4, 0, 0)] == [4, 4, 2]

    def test_same_seed_epoch_same_order(self, tmp_path):
        ds = D.DiskDataset(self.make_index(tmp_path), "train", lambda p: np.zeros(1, np.float32))
        order1 = [tuple(lbls) for _, lbls in ds.batches(3, 5, 2)]
        order2 = [tuple(lbls) for _, lbls in ds.batches(3, 5, 2)]
        assert order1 == order2

    def test_different_epochs_different_order(self, tmp_path):
        make_dataset_tree(tmp_path, {"a": (0, 0, 0), "b": (50, 50, 50)},
                          n_train=6, n_valid=1, size=8)
        ds = D.DiskDataset(D.scan_dataset(tmp_path), "train", lambda p: np.zeros(1, np.float32))
        e0 = [l for _, lbls in ds.batches(12, 7, 0) for l in lbls]
        e1 = [l for _, lbls in ds.batches(12, 7, 1) for l in lbls]
        assert e0 != e1

    def test_seed_and_epoch_seed_as_a_pair(self):
        """seed 42 / epoch 1 and seed 43 / epoch 0 shuffle differently
        (42 ^ 1 == 43 ^ 0 once seeded both alike)."""
        ds = D.MemoryDataset([np.zeros(1, np.float32)] * 50, list(range(50)), ["a"])
        order = lambda seed, epoch: [y for _, ys in ds.batches(50, seed, epoch) for y in ys]
        assert sorted(order(42, 1)) == list(range(50))
        assert order(42, 1) != order(43, 0)
        assert order(42, 1) == order(42, 1)

    def test_empty_split_rejected(self, tmp_path):
        index = self.make_index(tmp_path)
        index.records = [r for r in index.records if r.split != "valid"]
        with pytest.raises(ConfigError):
            next(D.DiskDataset(index, "valid", lambda p: p.name).batches(2, 0, 0))
        with pytest.raises(ConfigError):
            next(D.MemoryDataset([], [], []).batches(2, 0, 0))

    def test_batch_size_below_one_rejected(self, tmp_path):
        for ds in (D.DiskDataset(self.make_index(tmp_path), "train", lambda p: p.name),
                   D.MemoryDataset([np.zeros(1, np.float32)], [0], ["a"])):
            with pytest.raises(ConfigError):
                next(ds.batches(0, 0, 0))

    def test_disk_and_memory_datasets_batch_alike(self, tmp_path):
        """One shuffle path: the same samples batch alike on either kind."""
        disk = D.DiskDataset(self.make_index(tmp_path), "train", lambda p: p.name)
        memory = D.MemoryDataset([x for x, _ in disk.samples()], disk.labels, ["a"])
        assert list(disk.batches(3, 4, 1)) == list(memory.batches(3, 4, 1))


class TestSynthDataset:
    def test_counts_and_labels(self):
        ds = D.synth_dataset(4, 2, seed=0)
        assert len(ds) == 8
        assert sorted(set(ds.labels)) == [0, 1, 2, 3]
        assert ds.class_names == ["class_0", "class_1", "class_2", "class_3"]

    def test_nearest_base_color_classifier_is_perfect(self):
        ds = D.synth_dataset(5, 4, seed=3, size=16)
        anchors = D._base_colors(5)
        for x, y in ds.samples():
            mean_color = x.mean(axis=(0, 1))
            nearest = int(np.argmin(((anchors - mean_color) ** 2).sum(axis=1)))
            assert nearest == y

    def test_same_seed_identical_pixels(self):
        a = D.synth_dataset(3, 2, seed=9)
        b = D.synth_dataset(3, 2, seed=9)
        for xa, xb in zip(a.inputs, b.inputs):
            assert np.array_equal(xa, xb)

    def test_too_few_classes_rejected(self):
        with pytest.raises(ConfigError):
            D.synth_dataset(1, 2, seed=0)


class TestModelFile:
    def small_model(self):
        cfg = M.CnnConfig(input_size=14, channels=3, filters=(2, 3), dense_units=5,
                          classes=3)
        model = M.build_cnn(cfg, seed=1)
        model.label_map = ["a", "b", "c"]
        return model

    def test_round_trip_bit_exact(self, tmp_path):
        model = self.small_model()
        D.save_model(model, tmp_path / "m.leaf")
        loaded = D.load_model(tmp_path / "m.leaf")
        for a, b in zip(model.params, loaded.params):
            assert set(a) == set(b)
            for key in a:
                assert np.array_equal(a[key], b[key])
        assert loaded.label_map == model.label_map
        assert loaded.spec.config == model.spec.config

    def test_round_trip_default_lstm(self, tmp_path):
        model = M.build_lstm(M.LstmConfig(timesteps=2, features=4, hidden=3,
                                          dense_units=4, classes=3), seed=2)
        model.label_map = ["x", "y", "z"]
        D.save_model(model, tmp_path / "l.leaf")
        loaded = D.load_model(tmp_path / "l.leaf")
        for a, b in zip(model.params, loaded.params):
            for key in a:
                assert np.array_equal(a[key], b[key])

    def test_summary_identical_after_load(self, tmp_path):
        model = self.small_model()
        D.save_model(model, tmp_path / "m.leaf")
        assert M.summary(D.load_model(tmp_path / "m.leaf")) == M.summary(model)

    def test_predict_identical_after_load(self, tmp_path):
        model = self.small_model()
        x = np.random.default_rng(0).random(model.spec.input_shape, dtype=np.float32)
        before = M.predict(model, x)
        D.save_model(model, tmp_path / "m.leaf")
        assert M.predict(D.load_model(tmp_path / "m.leaf"), x) == before

    def test_truncated_file_rejected(self, tmp_path):
        model = self.small_model()
        D.save_model(model, tmp_path / "m.leaf")
        blob = (tmp_path / "m.leaf").read_bytes()
        for cut in (2, 10, len(blob) // 2, len(blob) - 3):
            (tmp_path / "cut.leaf").write_bytes(blob[:cut])
            with pytest.raises(ModelFormatError, match="offset"):
                D.load_model(tmp_path / "cut.leaf")

    def test_bad_magic_rejected(self, tmp_path):
        model = self.small_model()
        D.save_model(model, tmp_path / "m.leaf")
        blob = bytearray((tmp_path / "m.leaf").read_bytes())
        blob[:4] = b"NOPE"
        (tmp_path / "bad.leaf").write_bytes(bytes(blob))
        with pytest.raises(ModelFormatError, match="magic"):
            D.load_model(tmp_path / "bad.leaf")

    def test_trailing_garbage_rejected(self, tmp_path):
        model = self.small_model()
        D.save_model(model, tmp_path / "m.leaf")
        blob = (tmp_path / "m.leaf").read_bytes() + b"extra"
        (tmp_path / "g.leaf").write_bytes(blob)
        with pytest.raises(ModelFormatError, match="trailing"):
            D.load_model(tmp_path / "g.leaf")

    @pytest.mark.parametrize("case", sorted(MALFORMED_MANIFESTS))
    def test_malformed_manifest_rejected(self, tmp_path, case):
        D.save_model(self.small_model(), tmp_path / "m.leaf")
        rewrite_manifest(tmp_path / "m.leaf", tmp_path / "bad.leaf", MALFORMED_MANIFESTS[case])
        with pytest.raises(ModelFormatError, match="bad.leaf"):
            D.load_model(tmp_path / "bad.leaf")

    @pytest.mark.parametrize("field", ["format", "config"])
    def test_deeply_nested_manifest_rejected(self, tmp_path, field):
        manifest = b'{"arch": "cnn", "%s": %s}' % (field.encode(), b"[" * 10 ** 5 + b"]" * 10 ** 5)
        (tmp_path / "deep.leaf").write_bytes(
            D.MAGIC + struct.pack("<II", D.FORMAT_VERSION, len(manifest)) + manifest)
        with pytest.raises(ModelFormatError, match="deep.leaf"):
            D.load_model(tmp_path / "deep.leaf")

    def test_manifest_integer_over_the_digit_limit_rejected(self, tmp_path):
        """json.loads refuses an integer of more than 4300 digits with a
        ValueError that is not a JSONDecodeError."""
        D.save_model(self.small_model(), tmp_path / "m.leaf")
        blob = (tmp_path / "m.leaf").read_bytes()
        mlen, = struct.unpack("<I", blob[8:12])
        manifest = blob[12:12 + mlen].replace(b'"version": 1', b'"version": ' + b"1" * 5000)
        (tmp_path / "big.leaf").write_bytes(blob[:8] + struct.pack("<I", len(manifest))
                                            + manifest + blob[12 + mlen:])
        with pytest.raises(ModelFormatError, match="big.leaf: manifest unreadable"):
            D.load_model(tmp_path / "big.leaf")

    @pytest.mark.parametrize("change", [lambda b: b[:-1], lambda b: b + b"\0"],
                             ids=["one-byte-short", "one-byte-long"])
    def test_one_byte_off_rejected(self, tmp_path, change):
        D.save_model(self.small_model(), tmp_path / "m.leaf")
        (tmp_path / "bad.leaf").write_bytes(change((tmp_path / "m.leaf").read_bytes()))
        with pytest.raises(ModelFormatError, match="offset"):
            D.load_model(tmp_path / "bad.leaf")

    def test_loaded_parameters_writable_aligned_native_float32(self, tmp_path):
        D.save_model(self.small_model(), tmp_path / "m.leaf")
        for params in D.load_model(tmp_path / "m.leaf").params:
            for p in params.values():
                assert p.dtype == np.float32 and p.dtype.isnative
                assert p.flags.writeable and p.flags.aligned and p.flags.c_contiguous

    def test_adam_step_after_load_bit_identical(self, tmp_path):
        model = self.small_model()
        D.save_model(model, tmp_path / "m.leaf")
        loaded = D.load_model(tmp_path / "m.leaf")
        for m in (model, loaded):
            rng = np.random.default_rng(3)
            grads = [{key: rng.standard_normal(p.shape).astype(np.float32)
                      for key, p in params.items()} for params in m.params]
            TR.adam_step(m.params, grads, TR.AdamState.for_params(m.params, lr=0.01))
        for a, b in zip(model.params, loaded.params):
            for key in a:
                assert a[key].tobytes() == b[key].tobytes()

    def test_load_allocates_the_parameter_bytes_once(self, tmp_path):
        model = M.build_cnn(M.CnnConfig(input_size=14, filters=(2, 3), dense_units=50_000,
                                        classes=3), seed=1)
        D.save_model(model, tmp_path / "m.leaf")
        tracemalloc.start()
        try:
            D.load_model(tmp_path / "m.leaf")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4 * model.total_params + 2 ** 20

    def test_huge_declared_model_rejected_before_allocating(self, tmp_path):
        D.save_model(self.small_model(), tmp_path / "m.leaf")
        # 12 flattened features -> 2**36 units -> 3 classes: about 2**40 parameters
        rewrite_manifest(tmp_path / "m.leaf", tmp_path / "bad.leaf",
                         declaring("cnn", dense_units=2 ** 36))
        tracemalloc.start()
        try:
            with pytest.raises(ModelFormatError, match="truncated"):
                D.load_model(tmp_path / "bad.leaf")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    def test_load_draws_no_parameters(self, tmp_path, monkeypatch):
        model = self.small_model()
        D.save_model(model, tmp_path / "m.leaf")
        monkeypatch.setattr(M.L, "he_uniform", None)
        monkeypatch.setattr(M.L, "glorot_uniform", None)
        loaded = D.load_model(tmp_path / "m.leaf")
        for a, b in zip(model.params, loaded.params):
            assert list(a) == list(b)
            for key in a:
                assert np.array_equal(a[key], b[key])

    def test_wrong_shaped_parameter_refused_before_writing(self, tmp_path):
        model = self.small_model()
        model.params[0]["kernels"] = model.params[0]["kernels"][..., :1]
        with pytest.raises(ModelStateError, match="spec"):
            D.save_model(model, tmp_path / "m.leaf")
        assert not list(tmp_path.iterdir())

    def test_no_partial_file_on_save(self, tmp_path):
        model = self.small_model()
        D.save_model(model, tmp_path / "m.leaf")
        assert not list(tmp_path.glob("*.tmp"))

    def test_failed_save_leaves_no_temp_file(self, tmp_path):
        model = self.small_model()
        model.params[-1]["bias"] = np.full(3, "not a number", dtype=object)
        with pytest.raises(ValueError):
            D.save_model(model, tmp_path / "m.leaf")
        assert not list(tmp_path.iterdir())

    def test_save_over_existing_file(self, tmp_path):
        first, second = self.small_model(), self.small_model()
        second.params[0]["bias"] = second.params[0]["bias"] + 1
        D.save_model(first, tmp_path / "m.leaf")
        D.save_model(second, tmp_path / "m.leaf")
        assert [p.name for p in tmp_path.iterdir()] == ["m.leaf"]
        loaded = D.load_model(tmp_path / "m.leaf")
        assert np.array_equal(loaded.params[0]["bias"], second.params[0]["bias"])

    def test_failed_save_keeps_existing_file(self, tmp_path):
        model = self.small_model()
        D.save_model(model, tmp_path / "m.leaf")
        before = (tmp_path / "m.leaf").read_bytes()
        model.params[-1]["bias"] = np.full(3, "not a number", dtype=object)
        with pytest.raises(ValueError):
            D.save_model(model, tmp_path / "m.leaf")
        assert [p.name for p in tmp_path.iterdir()] == ["m.leaf"]
        assert (tmp_path / "m.leaf").read_bytes() == before

    def test_save_onto_directory_fails_and_keeps_it(self, tmp_path):
        (tmp_path / "m.leaf").mkdir()
        with pytest.raises(OSError):
            D.save_model(self.small_model(), tmp_path / "m.leaf")
        assert [p.name for p in tmp_path.iterdir()] == ["m.leaf"]
        assert (tmp_path / "m.leaf").is_dir()

    def test_failed_rename_restores_existing_file(self, tmp_path, monkeypatch):
        model = self.small_model()
        D.save_model(model, tmp_path / "m.leaf")
        before = (tmp_path / "m.leaf").read_bytes()
        replace = os.replace

        def failing_replace(src, dst):
            if str(src).endswith(".tmp"):
                raise OSError("rename failed")
            replace(src, dst)

        model.params[0]["bias"] = model.params[0]["bias"] + 1
        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError, match="rename failed"):
            D.save_model(model, tmp_path / "m.leaf")
        assert [p.name for p in tmp_path.iterdir()] == ["m.leaf"]
        assert (tmp_path / "m.leaf").read_bytes() == before

    def test_wire_format_layout(self, tmp_path):
        import json
        import struct

        model = self.small_model()
        D.save_model(model, tmp_path / "m.leaf")
        blob = (tmp_path / "m.leaf").read_bytes()
        assert blob[:4] == b"LEAF"
        version, mlen = struct.unpack("<II", blob[4:12])
        assert version == 1
        manifest = json.loads(blob[12:12 + mlen].decode("utf-8"))
        assert manifest["arch"] == "cnn"
        assert manifest["gate_order"] == L.GATE_ORDER == "ifgo"
        assert manifest["label_map"] == ["a", "b", "c"]
        assert [e["name"] for e in manifest["layers"]] == \
            [s.name for s in model.spec.layers]
        assert len(blob) == 12 + mlen + 4 * model.total_params
