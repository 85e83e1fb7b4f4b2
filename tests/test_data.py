"""Dataset loading, synthetic generation, splits, and the test suite's margin oracle."""

import gzip
import math
import struct
from dataclasses import replace

import numpy as np
import pytest
from click.testing import CliRunner
from conftest import margin_oracle, tiny_idx_pair

from adval import nn
from adval.cli import main
from adval.config import CsvData, load_experiment_config
from adval.data import (
    Dataset,
    SyntheticSpec,
    gen_blobs,
    load_csv,
    load_idx,
    stratified_split,
    stratified_subsample,
)
from adval.errors import ConfigError, FormatError, InputError
from adval.experiments import read_metrics
from adval.nn import Dense, NetworkSpec, TrainConfig


def write_csv(dataset, path):
    with open(path, "w", encoding="utf-8") as f:
        for label, values in zip(dataset.labels, dataset.inputs.reshape(len(dataset), -1)):
            f.write(str(int(label)) + "," + ",".join(repr(float(v)) for v in values) + "\n")


class TestIdx:
    def test_known_bytes(self, tmp_path):
        pixels = np.array([[[0, 255], [255, 0]], [[255, 255], [0, 0]]], dtype=np.uint8)
        img, lab = tiny_idx_pair(tmp_path, pixels, [1, 0])
        ds = load_idx(img, lab)
        assert len(ds) == 2 and ds.input_shape == (2, 2)
        np.testing.assert_array_equal(ds.inputs[0], [[0.0, 1.0], [1.0, 0.0]])
        np.testing.assert_array_equal(ds.labels, [1, 0])

    def test_bad_magic_names_offset(self, tmp_path):
        img, lab = tiny_idx_pair(tmp_path, np.zeros((1, 2, 2), dtype=np.uint8), [0])
        with pytest.raises(FormatError, match="byte 0"):
            load_idx(lab, lab)  # label magic where image magic expected

    def test_truncated_payload(self, tmp_path):
        img = tmp_path / "short.idx"
        with open(img, "wb") as f:
            f.write(struct.pack(">4I", 0x803, 2, 2, 2))
            f.write(b"\x00\x01\x02")  # 3 of 8 expected bytes
        _, lab = tiny_idx_pair(tmp_path, np.zeros((2, 2, 2), dtype=np.uint8), [0, 1])
        with pytest.raises(FormatError, match="truncated payload"):
            load_idx(img, lab)

    @pytest.mark.parametrize("packed", [False, True], ids=["plain", "gzip"])
    @pytest.mark.parametrize(
        "header",
        [(0x803, 2**31, 2**31, 4), (0x803, 2**20, 2**10, 2**10), (0x801, 2**32 - 1)],
        ids=["images-beyond-the-index-range", "images-beyond-memory", "labels"],
    )
    def test_header_claiming_more_than_the_file_holds(self, tmp_path, header, packed):
        # the payload is read in bounded blocks, so no claimed size reaches f.read
        data = struct.pack(f">{len(header)}I", *header)
        path = tmp_path / "claims.idx"
        path.write_bytes(gzip.compress(data) if packed else data)
        img, lab = tiny_idx_pair(tmp_path, np.zeros((1, 2, 2), dtype=np.uint8), [0])
        pair = (path, lab) if header[0] == 0x803 else (img, path)
        with pytest.raises(FormatError) as caught:
            load_idx(*pair)
        claimed = math.prod(header[1:])
        assert str(caught.value) == f"{path}: truncated payload at byte {len(data)}, expected {claimed} bytes"

    def test_count_mismatch(self, tmp_path):
        img, _ = tiny_idx_pair(tmp_path, np.zeros((2, 2, 2), dtype=np.uint8), [0, 1], "a_")
        _, lab = tiny_idx_pair(tmp_path, np.zeros((3, 2, 2), dtype=np.uint8), [0, 1, 2], "b_")
        with pytest.raises(FormatError, match="count mismatch"):
            load_idx(img, lab)

    def test_roundtrip_exact_on_255_grid(self, tmp_path):
        rng = np.random.default_rng(0)
        inputs = rng.integers(0, 256, size=(5, 3, 4)).astype(float) / 255.0
        ds = Dataset(inputs, rng.integers(0, 3, size=5).astype(np.int64), 3)
        back = load_idx(*tiny_idx_pair(tmp_path, np.round(inputs * 255.0), ds.labels))
        np.testing.assert_array_equal(back.inputs, ds.inputs)
        np.testing.assert_array_equal(back.labels, ds.labels)

    @pytest.mark.filterwarnings("error")  # an unclosed file handle warns (ResourceWarning)
    def test_gzip_transparent(self, tmp_path):
        pixels = np.full((1, 2, 2), 128, dtype=np.uint8)
        img, lab = tiny_idx_pair(tmp_path, pixels, [0])
        gz_img = tmp_path / "imgs.idx.gz"
        gz_lab = tmp_path / "labels.idx.gz"
        gz_img.write_bytes(gzip.compress(img.read_bytes()))
        gz_lab.write_bytes(gzip.compress(lab.read_bytes()))
        ds = load_idx(gz_img, gz_lab)
        np.testing.assert_allclose(ds.inputs[0], 128 / 255.0)


class TestCsv:
    def test_two_rows(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("0,0.0,0.0\n1,1.0,1.0\n")
        ds = load_csv(path, class_count=2)
        assert len(ds) == 2 and ds.input_shape == (2,)
        np.testing.assert_array_equal(ds.labels, [0, 1])

    def test_header_detected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("label,x,y\n0,0.5,0.5\n")
        assert len(load_csv(path, class_count=2)) == 1

    def test_ragged_row_names_row_number(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("0,0.0,0.0\n1,1.0\n")
        with pytest.raises(FormatError, match="row 2"):
            load_csv(path, class_count=2)

    def test_non_numeric_value(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("0,0.0,oops\n")
        with pytest.raises(FormatError, match="row 1"):
            load_csv(path, class_count=2)

    def test_label_out_of_range(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("5,0.0,0.0\n")
        with pytest.raises(FormatError, match="row 1"):
            load_csv(path, class_count=2)

    @pytest.mark.parametrize("label", ["nan", "inf", "-inf"])
    def test_non_finite_label_names_file_and_row(self, tmp_path, label):
        path = tmp_path / "d.csv"
        path.write_text(f"0,0.0,0.0\n{label},0.0,0.0\n")
        with pytest.raises(FormatError, match="d.csv: row 2 label"):
            load_csv(path, class_count=2)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_feature_names_file_and_row(self, tmp_path, value):
        path = tmp_path / "d.csv"
        path.write_text(f"0,0.0,0.0\n1,0.0,{value}\n")
        with pytest.raises(FormatError, match="d.csv: non-finite feature value in row 2"):
            load_csv(path, class_count=2)

    def test_byte_order_mark_keeps_the_first_row(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("\ufeff0,0.0,0.0\n1,1.0,1.0\n0,2.0,2.0\n", encoding="utf-8")
        ds = load_csv(path, class_count=2)
        np.testing.assert_array_equal(ds.labels, [0, 1, 0])
        np.testing.assert_array_equal(ds.inputs[:, 0], [0.0, 1.0, 2.0])

    def test_roundtrip(self, tmp_path):
        ds = gen_blobs(SyntheticSpec(class_count=3, points_per_class=20, seed=5))
        write_csv(ds, tmp_path / "blobs.csv")
        back = load_csv(tmp_path / "blobs.csv", class_count=3)
        np.testing.assert_allclose(back.inputs, ds.inputs, atol=1e-9)
        np.testing.assert_array_equal(back.labels, ds.labels)


class TestBlobs:
    def test_zero_scale_collapses_to_centers(self):
        spec = SyntheticSpec(class_count=4, points_per_class=10, cov_scale=1e-12, seed=0)
        ds = gen_blobs(spec)
        for c in range(4):
            angle = 2 * np.pi * c / 4
            center = 2.0 * np.array([np.cos(angle), np.sin(angle)])
            assert np.abs(ds.inputs[ds.labels == c] - center).max() < 1e-9

    def test_counts_and_class_presence(self):
        ds = gen_blobs(SyntheticSpec(class_count=4, points_per_class=250, seed=1))
        assert len(ds) == 1000
        assert ds.missing_classes() == []

    def test_deterministic(self):
        spec = SyntheticSpec(class_count=3, points_per_class=15, seed=9)
        a, b = gen_blobs(spec), gen_blobs(spec)
        np.testing.assert_array_equal(a.inputs, b.inputs)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_well_separated_two_class_is_linearly_learnable(self):
        spec = SyntheticSpec(class_count=2, points_per_class=60, cov_scale=0.2, seed=2)
        ds = gen_blobs(spec)
        net_spec = NetworkSpec((2,), (Dense(2, 2),), 2, init_seed=0)
        state = nn.train(
            nn.init_network(net_spec),
            list(zip(ds.inputs, ds.labels)),
            TrainConfig(learning_rate=0.05, epochs=60, seed=0),
        )
        assert nn.accuracy(state, ds.inputs, ds.labels) == 1.0

    def test_higher_dimensions_keep_circle_in_first_two(self):
        spec = SyntheticSpec(class_count=3, points_per_class=50, dimension=5, cov_scale=1e-12, seed=0)
        ds = gen_blobs(spec)
        np.testing.assert_allclose(ds.inputs[:, 2:], 0.0, atol=1e-9)

    def test_invalid_spec_rejected(self):
        with pytest.raises(ConfigError):
            SyntheticSpec(class_count=1, points_per_class=5)
        with pytest.raises(ConfigError):
            SyntheticSpec(class_count=2, points_per_class=5, cov_scale=0.0)
        with pytest.raises(ConfigError, match="^seed"):
            SyntheticSpec(class_count=2, points_per_class=5, seed=-1)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("name", ["center_radius", "cov_scale"])
    def test_non_finite_scale_rejected_by_name(self, name, value):
        with pytest.raises(ConfigError, match=f"^{name} must be finite, got {value}$"):
            SyntheticSpec(3, 5, **{name: value})


class TestSplits:
    def test_cap_equals_size_is_identity(self):
        ds = gen_blobs(SyntheticSpec(class_count=2, points_per_class=10, seed=0))
        out = stratified_subsample(ds, len(ds), seed=1)
        np.testing.assert_array_equal(out.inputs, ds.inputs)

    def test_balance_within_one(self):
        ds = gen_blobs(SyntheticSpec(class_count=3, points_per_class=40, seed=0))
        out = stratified_subsample(ds, 25, seed=1)
        counts = np.bincount(out.labels, minlength=3)
        assert counts.max() - counts.min() <= 1
        assert counts.sum() == 25

    def test_deterministic(self):
        ds = gen_blobs(SyntheticSpec(class_count=3, points_per_class=40, seed=0))
        a = stratified_subsample(ds, 30, seed=4)
        b = stratified_subsample(ds, 30, seed=4)
        np.testing.assert_array_equal(a.inputs, b.inputs)

    def test_cap_below_class_count_rejected(self):
        ds = gen_blobs(SyntheticSpec(class_count=3, points_per_class=5, seed=0))
        with pytest.raises(ConfigError):
            stratified_subsample(ds, 2)

    def test_fraction_split_disjoint_and_stratified(self):
        ds = gen_blobs(SyntheticSpec(class_count=4, points_per_class=50, seed=3))
        train, test = stratified_split(ds, test_fraction=0.2, seed=0)
        assert len(train) + len(test) == len(ds)
        counts = np.bincount(test.labels, minlength=4)
        np.testing.assert_array_equal(counts, [10, 10, 10, 10])

    def test_fraction_leaving_no_test_rows_rejected(self):
        # 20 rows per class: 0.01 of each rounds to 0, so no test row and NaN accuracies
        ds = gen_blobs(SyntheticSpec(class_count=4, points_per_class=20, seed=3))
        with pytest.raises(ConfigError, match="data.test_fraction"):
            stratified_split(ds, test_fraction=0.01, seed=0)
        _, test = stratified_split(ds, test_fraction=0.03, seed=0)  # 0.6 rounds to 1
        assert len(test) == 4

    def test_fraction_split_with_pool_cap(self, tmp_path):
        ds = gen_blobs(SyntheticSpec(class_count=2, points_per_class=30, seed=3))
        write_csv(ds, tmp_path / "blobs.csv")
        source = CsvData(tmp_path / "blobs.csv", 2, test_fraction=0.2, pool_cap=20)
        train, test = source.load()
        assert len(train) == 20 and len(test) == 12
        np.testing.assert_array_equal(np.bincount(train.labels), [10, 10])
        _, uncapped_test = replace(source, pool_cap=None).load()
        np.testing.assert_array_equal(test.inputs, uncapped_test.inputs)


class TestMarginOracle:
    def test_linear_analytic_distance(self):
        spec = NetworkSpec((2,), (Dense(2, 2),), 2)
        state = nn.NetworkState(
            spec, ({"W": np.array([[0.0, 3.0], [0.0, 4.0]]), "b": np.zeros(2)},)
        )
        d = margin_oracle(state, np.array([1.0, 1.0]), radius_max=4.0)
        assert abs(d - 1.4) < 1e-3

    def test_no_flip_within_radius_is_infinite(self):
        spec = NetworkSpec((2,), (Dense(2, 2),), 2)
        state = nn.NetworkState(
            spec, ({"W": np.array([[0.0, 3.0], [0.0, 4.0]]), "b": np.zeros(2)},)
        )
        assert margin_oracle(state, np.array([1.0, 1.0]), radius_max=0.5) == np.inf

    def test_bisection_brackets_flip_tightly(self):
        spec = NetworkSpec((2,), (Dense(2, 2),), 2)
        state = nn.NetworkState(
            spec, ({"W": np.array([[0.0, 1.0], [0.0, 0.0]]), "b": np.zeros(2)},)
        )
        # boundary is the line x0 = 0; from (0.7321, 0) the distance is 0.7321
        d = margin_oracle(state, np.array([0.7321, 0.0]), radius_max=2.0)
        assert abs(d - 0.7321) < 1e-4

    def test_high_dimension_rejected(self, trained3):
        with pytest.raises(InputError):
            margin_oracle(trained3, np.zeros(4), radius_max=1.0)

    def test_1d_model(self):
        spec = NetworkSpec((1,), (Dense(1, 2),), 2)
        state = nn.NetworkState(
            spec, ({"W": np.array([[0.0, 2.0]]), "b": np.array([1.0, 0.0])},)
        )
        # logit1 - logit0 = 2x - 1: flips at x = 0.5, so from x=2 distance 1.5
        d = margin_oracle(state, np.array([2.0]), radius_max=3.0)
        assert abs(d - 1.5) < 1e-3


class TestDatasetValidation:
    def test_length_mismatch(self):
        with pytest.raises(InputError):
            Dataset(np.zeros((2, 2)), np.zeros(3, dtype=np.int64), 2)

    def test_label_range(self):
        with pytest.raises(InputError):
            Dataset(np.zeros((2, 2)), np.array([0, 5]), 2)

    def test_nonfinite_inputs(self):
        with pytest.raises(InputError):
            Dataset(np.array([[np.nan, 0.0]]), np.array([0]), 2)


# A run small enough for a few dozen rows: round 0, then one query round.
QUICK_RUN = """
[network]
arch = arch-B

[active]
candidates = 10
n_query = 3
initial_labeled = 6
budget = 9
base_steps = 5

[experiment]
strategies = random
seeds = 0
"""


class TestConfigSources:
    """The csv and idx ``[data]`` kinds, loaded through the config file."""

    def csv_config(self, tmp_path, **keys):
        ds = gen_blobs(SyntheticSpec(class_count=3, points_per_class=20, seed=5))
        write_csv(ds, tmp_path / "blobs.csv")
        keys = {"path": tmp_path / "blobs.csv", "class_count": 3, **keys}
        lines = "".join(f"{k} = {v}\n" for k, v in keys.items())
        config = tmp_path / "csv.ini"
        config.write_text(f"[data]\nkind = csv\n{lines}{QUICK_RUN}")
        return config

    def idx_config(self, tmp_path, **keys):
        rng = np.random.default_rng(3)
        paths = {}
        for split, n in (("train", 10), ("test", 5)):  # n samples per class, 3 classes
            pixels = rng.integers(0, 256, size=(3 * n, 4, 4))
            labels = rng.permutation(np.repeat(np.arange(3), n))
            img, lab = tiny_idx_pair(tmp_path, pixels, labels, prefix=f"{split}_")
            paths[f"{split}_images"], paths[f"{split}_labels"] = img, lab
        lines = "".join(f"{k} = {v}\n" for k, v in {**paths, **keys}.items())
        config = tmp_path / "idx.ini"
        config.write_text(f"[data]\nkind = idx\n{lines}{QUICK_RUN}")
        return config

    def test_idx_header_beyond_the_index_range_names_the_file(self, tmp_path):
        config = self.idx_config(tmp_path)
        images = tmp_path / "train_imgs.idx"
        images.write_bytes(struct.pack(">4I", 0x803, 2**31, 2**31, 4))
        args = ["timing", "--config", str(config), "--sizes", "6", "--out", str(tmp_path / "o")]
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 2
        assert result.stderr.strip().splitlines() == [
            f"E_FORMAT: {images}: truncated payload at byte 16, expected {2**64} bytes"
        ]

    def test_csv_split_is_stratified_and_capped(self, tmp_path):
        config = self.csv_config(tmp_path, test_fraction=0.25, pool_cap=24, seed=4)
        train, test = load_experiment_config(config).data.load()
        np.testing.assert_array_equal(np.bincount(test.labels), [5, 5, 5])
        np.testing.assert_array_equal(np.bincount(train.labels), [8, 8, 8])
        split = stratified_split(load_csv(tmp_path / "blobs.csv", 3), test_fraction=0.25, seed=4)
        want_train, want_test = stratified_subsample(split[0], 24, seed=5), split[1]
        np.testing.assert_array_equal(train.inputs, want_train.inputs)
        np.testing.assert_array_equal(test.inputs, want_test.inputs)

    def test_csv_defaults(self, tmp_path):
        train, test = load_experiment_config(self.csv_config(tmp_path)).data.load()
        np.testing.assert_array_equal(np.bincount(test.labels), [4, 4, 4])  # test_fraction 0.2
        assert len(train) == 48  # no pool_cap

    def test_idx_caps_subsample_with_seed_and_seed_plus_one(self, tmp_path):
        config = self.idx_config(tmp_path, pool_cap=12, test_cap=6, seed=5)
        train, test = load_experiment_config(config).data.load()
        np.testing.assert_array_equal(np.bincount(train.labels), [4, 4, 4])
        np.testing.assert_array_equal(np.bincount(test.labels), [2, 2, 2])
        full_train = load_idx(tmp_path / "train_imgs.idx", tmp_path / "train_labels.idx")
        full_test = load_idx(tmp_path / "test_imgs.idx", tmp_path / "test_labels.idx")
        np.testing.assert_array_equal(
            train.inputs, stratified_subsample(full_train, 12, seed=5).inputs
        )
        np.testing.assert_array_equal(
            test.inputs, stratified_subsample(full_test, 6, seed=6).inputs
        )

    def test_idx_without_caps_keeps_every_sample(self, tmp_path):
        train, test = load_experiment_config(self.idx_config(tmp_path)).data.load()
        assert (len(train), len(test)) == (30, 15)

    @pytest.mark.parametrize("kind", ["csv", "idx"])
    def test_one_run_round(self, tmp_path, kind):
        config = getattr(self, f"{kind}_config")(tmp_path)
        out = tmp_path / "out"
        result = CliRunner().invoke(main, ["run", "--config", str(config), "--out", str(out)])
        assert result.exit_code == 0, result.output
        rows = read_metrics(out / "metrics.csv")
        assert [(r["round"], r["annotations"]) for r in rows] == [(0, 6), (1, 9)]

    @pytest.mark.parametrize("kind", ["csv", "idx"])
    def test_relative_paths_resolve_against_config_directory(self, tmp_path, monkeypatch, kind):
        sub = tmp_path / "sub"
        sub.mkdir()
        files = {"path": "blobs.csv"} if kind == "csv" else {
            f"{split}_{what}": f"{split}_{stem}.idx"
            for split in ("train", "test")
            for what, stem in (("images", "imgs"), ("labels", "labels"))
        }
        getattr(self, f"{kind}_config")(sub, **files)
        monkeypatch.chdir(tmp_path)  # the data files are not in the working directory
        result = CliRunner().invoke(main, ["run", "--config", f"sub/{kind}.ini", "--out", "out"])
        assert result.exit_code == 0, result.output
        assert len(read_metrics(tmp_path / "out" / "metrics.csv")) == 2

    @pytest.mark.parametrize(
        "key, value",
        [("test_fraction", 1.5), ("test_fraction", 0), ("pool_cap", 2),
         ("class_count", 1), ("class_count", 0)],
    )
    def test_csv_rule_breach_is_load_time_config_error(self, tmp_path, key, value):
        config = self.csv_config(tmp_path, **{key: value})
        with pytest.raises(ConfigError, match=f"^data.{key} "):
            load_experiment_config(config)

    @pytest.mark.parametrize("path", ["", "."])
    def test_path_that_is_no_file_is_load_time_config_error(self, tmp_path, path):
        config = self.csv_config(tmp_path, path=path)
        with pytest.raises(ConfigError, match="^data.path: file does not exist"):
            load_experiment_config(config)

    @pytest.mark.parametrize("key", ["pool_cap", "test_cap"])
    def test_idx_cap_below_class_count_names_key(self, tmp_path, key):
        config = self.idx_config(tmp_path, **{key: 2})
        load_experiment_config(config)  # the class count is in the label files
        out = tmp_path / "out"
        result = CliRunner().invoke(main, ["run", "--config", str(config), "--out", str(out)])
        assert result.exit_code == 2
        err = result.stderr.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"E_CONFIG: data.{key}") and "class count 3" in err[0]

    def test_csv_pool_cap_classes_cannot_fill_names_key(self, tmp_path):
        # 40/4/16 rows per class: after the 0.2 test split, class 1 keeps 3 of the 10
        # that a balanced cap of 30 needs
        labels = np.repeat([0, 1, 2], [40, 4, 16])
        inputs = np.random.default_rng(0).normal(size=(60, 2))
        write_csv(Dataset(inputs, labels, 3), tmp_path / "uneven.csv")
        config = tmp_path / "csv.ini"
        config.write_text(
            f"[data]\nkind = csv\npath = {tmp_path / 'uneven.csv'}\nclass_count = 3\n"
            f"pool_cap = 30\n{QUICK_RUN}"
        )
        result = CliRunner().invoke(main, ["run", "--config", str(config), "--out", str(tmp_path)])
        assert result.exit_code == 2
        assert result.stderr.strip().splitlines() == [
            "E_CONFIG: data.pool_cap: class 1 has 3 samples, need 10 for a balanced pool"
        ]
