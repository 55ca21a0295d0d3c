import numpy as np
import pytest

from sobnat.data import (
    Dataset,
    gen_two_moons,
    load_csv,
    normalize,
    train_test_split,
    write_csv,
)
from sobnat.errors import InconsistentWidth, ParseError


class TestTwoMoons:
    def test_noiseless_points_on_half_circles(self):
        ds = gen_two_moons(200, noise=0.0, seed=1)
        upper = ds.features[ds.targets == 0]
        lower = ds.features[ds.targets == 1]
        np.testing.assert_allclose(np.linalg.norm(upper, axis=1), 1.0, atol=1e-12)
        assert np.all(upper[:, 1] >= -1e-12)
        np.testing.assert_allclose(
            np.linalg.norm(lower - np.array([1.0, 0.5]), axis=1), 1.0, atol=1e-12
        )
        assert np.all(lower[:, 1] <= 0.5 + 1e-12)
        assert np.min(lower[:, 1]) == pytest.approx(-0.5, abs=1e-3)  # dips to (1, -0.5)

    def test_deterministic_per_seed(self):
        a = gen_two_moons(100, noise=0.1, seed=7)
        b = gen_two_moons(100, noise=0.1, seed=7)
        assert a.features.tobytes() == b.features.tobytes()
        assert a.targets.tobytes() == b.targets.tobytes()
        c = gen_two_moons(100, noise=0.1, seed=8)
        assert a.features.tobytes() != c.features.tobytes()

    def test_count_validation(self):
        with pytest.raises(ValueError):
            gen_two_moons(1, 0.0, 0)

    @pytest.mark.parametrize("noise", [-0.1, np.nan, np.inf])
    def test_noise_outside_zero_to_infinity_rejected(self, noise):
        # nan fails both noise < 0 and noise > 0, so it must not pass as no noise.
        with pytest.raises(ValueError, match="noise"):
            gen_two_moons(10, noise, 3)


class TestCsv:
    def test_label_first_row(self, tmp_path):
        path = tmp_path / "tiny.csv"
        path.write_text("1,0.5,0.25\n")
        ds = load_csv(path, schema="label_first")
        assert ds.targets.tolist() == [1]
        np.testing.assert_allclose(ds.features, [[0.5, 0.25]])

    def test_crlf_and_header(self, tmp_path):
        path = tmp_path / "win.csv"
        path.write_bytes(b"label,f1\r\n0,1.5\r\n1,-2.5\r\n")
        ds = load_csv(path, schema="label_first", skip_header=True)
        assert ds.targets.tolist() == [0, 1]

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ParseError):
            load_csv(path)

    def test_malformed_field_reports_position(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,1.0,2.0\n1,oops,3.0\n")
        with pytest.raises(ParseError) as err:
            load_csv(path)
        assert err.value.line == 2
        assert err.value.column == 2

    @pytest.mark.parametrize(
        "text, line, column",
        [("0,1.0,2.0\n1,nan,3.0\n", 2, 2), ("0,1.0,2.0\n\ninf,1.0,3.0\n", 3, 1)],
    )
    def test_non_finite_field_reports_position(self, tmp_path, text, line, column):
        path = tmp_path / "nonfinite.csv"
        path.write_text(text)
        with pytest.raises(ParseError) as err:
            load_csv(path)
        assert (err.value.line, err.value.column) == (line, column)

    def test_near_integer_label_is_rejected(self, tmp_path):
        # 0.999999 would truncate to class 0.
        path = tmp_path / "near.csv"
        path.write_text("1,1.0\n0.999999,2.0\n")
        with pytest.raises(ParseError) as err:
            load_csv(path)
        assert (err.value.line, err.value.column) == (2, 1)

    @pytest.mark.parametrize("label", ["-1", "1e20"])
    def test_negative_label_is_rejected(self, tmp_path, label):
        # -1, or 1e20 cast to int64, would index a class from the end.
        path = tmp_path / "negative.csv"
        path.write_text(f"0,1.0\n1,2.0\n{label},3.0\n")
        with pytest.raises(ParseError) as err:
            load_csv(path)
        assert (err.value.line, err.value.column) == (3, 1)

    def test_label_error_names_first_offending_line(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("label,f1\n0,1.0\n1.0,2.0\n\n2.5,3.0\n-2,4.0\n")
        with pytest.raises(ParseError) as err:
            load_csv(path, skip_header=True)
        assert (err.value.line, err.value.column) == (5, 1)
        assert "2.5" in str(err.value)

    def test_inconsistent_width(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("0,1.0,2.0\n1,3.0\n")
        with pytest.raises(InconsistentWidth) as err:
            load_csv(path)
        assert err.value.line == 2

    def test_round_trip_label_first(self, tmp_path):
        rng = np.random.default_rng(3)
        ds = Dataset(features=rng.normal(size=(20, 4)), targets=rng.integers(0, 3, size=20))
        path = tmp_path / "roundtrip.csv"
        write_csv(ds, path, schema="label_first")
        back = load_csv(path, schema="label_first")
        np.testing.assert_array_equal(back.features, ds.features)
        np.testing.assert_array_equal(back.targets, ds.targets)

    def test_round_trip_targets_last(self, tmp_path):
        rng = np.random.default_rng(4)
        ds = Dataset(features=rng.normal(size=(10, 2)), targets=rng.normal(size=(10, 2)))
        path = tmp_path / "reg.csv"
        write_csv(ds, path, schema="targets_last")
        back = load_csv(path, schema="targets_last", target_dim=2)
        np.testing.assert_array_equal(back.features, ds.features)
        np.testing.assert_array_equal(back.targets, ds.targets)

    @pytest.mark.parametrize("target_dim", [0, -1, 3])
    def test_target_dim_outside_the_columns_is_an_argument_error(self, tmp_path, target_dim):
        # A well-formed 3-column file: 0 and -1 would split off every column
        # or two of them, and 3 would leave no feature column.
        path = tmp_path / "reg.csv"
        path.write_text("1.0,2.0,3.0\n4.0,5.0,6.0\n")
        with pytest.raises(ValueError, match=rf"^target_dim={target_dim} must be in \[1, 2\] for a 3-column file"):
            load_csv(path, schema="targets_last", target_dim=target_dim)


class TestNormalize:
    def test_train_statistics_applied_to_both_splits(self):
        rng = np.random.default_rng(5)
        ds = Dataset(features=rng.normal(3.0, 2.0, size=(100, 3)), targets=np.zeros(100, dtype=np.int64))
        ds = train_test_split(ds, 0.3, seed=0)
        normed = normalize(ds)
        train_feats = normed.features[normed.train_idx]
        assert np.all(np.abs(train_feats.mean(axis=0)) <= 1e-8)
        assert np.all(np.abs(train_feats.std(axis=0) - 1.0) <= 1e-6)
        # Test rows use the train statistics, so they are not exactly standard.
        manual = (ds.features[ds.test_idx] - normed.feature_mean) / normed.feature_std
        np.testing.assert_allclose(normed.features[normed.test_idx], manual)

    def test_constant_column_left_alone(self):
        feats = np.column_stack([np.full(50, 2.0), np.arange(50.0)])
        ds = Dataset(features=feats, targets=np.zeros(50, dtype=np.int64))
        normed = normalize(ds)
        assert normed.feature_std[0] == 1.0
        np.testing.assert_allclose(normed.features[:, 0], 0.0)

