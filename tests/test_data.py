import bz2
import errno
import gc
import gzip
import io
import lzma
import random
import warnings

import numpy as np
import pytest

from sobnat import cli
from sobnat.data import (
    Dataset,
    gen_two_moons,
    load_csv,
    normalize,
    train_test_split,
)
from sobnat.errors import DimensionMismatch, InconsistentWidth, ParseError


def write_csv(ds, path, schema):
    """Write ds in the layout load_csv reads back under schema, each float as
    its repr so the round trip is exact."""
    with open(path, "w", newline="\n") as fh:
        for features, target in zip(ds.features, ds.targets):
            feats = [repr(float(v)) for v in features]
            if schema == "label_first":
                fh.write(",".join([str(int(target))] + feats) + "\n")
            else:
                fh.write(",".join(feats + [repr(float(v)) for v in np.atleast_1d(target)]) + "\n")


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


    def test_header_only_file_raises_without_warning(self, tmp_path):
        path = tmp_path / "header.csv"
        path.write_text("label,f1,f2\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParseError) as err:
                load_csv(path, skip_header=True)
        assert (err.value.line, err.value.column) == (0, 0)
        assert str(err.value) == "line 0, column 0: no data rows"

    def test_byte_order_mark_is_skipped(self, tmp_path):
        path = tmp_path / "excel.csv"
        path.write_bytes(b"\xef\xbb\xbf0,1.5\r\n1,2.5\r\n")
        ds = load_csv(path)
        assert ds.targets.tolist() == [0, 1]
        np.testing.assert_array_equal(ds.features, [[1.5], [2.5]])

    @pytest.mark.parametrize("skip_header", [False, True])
    def test_undecodable_byte_names_its_line(self, tmp_path, skip_header):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"0,1.0,2.0\n1,2.0,\xff3\n")
        with pytest.raises(ParseError) as err:
            load_csv(path, skip_header=skip_header)
        assert (err.value.line, err.value.column) == (2, 3)
        assert "0xff" in str(err.value)

    def test_undecodable_header_is_reported(self, tmp_path):
        path = tmp_path / "header.csv"
        path.write_bytes(b"caf\xe9,x\n0,1.0\n")
        with pytest.raises(ParseError) as err:
            load_csv(path, skip_header=True)
        assert (err.value.line, err.value.column) == (1, 1)


COMPRESSORS = {
    ".gz": gzip.compress,
    ".bz2": bz2.compress,
    ".xz": lzma.compress,
    ".lzma": lambda raw: lzma.compress(raw, format=lzma.FORMAT_ALONE),
}


class TestCsvPath:
    """numpy reads load_csv's file by path, and its reader would fetch a URL,
    decompress a .gz or fall back to a .gz sibling: load_csv reads only the
    local file it is named."""

    @pytest.fixture(autouse=True)
    def no_handle_left_open(self):
        # As under -W error::ResourceWarning: a handle left open fails the test.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            yield
            gc.collect()
        assert [str(w.message) for w in caught if issubclass(w.category, ResourceWarning)] == []

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError) as err:
            load_csv(tmp_path / "missing.csv")
        assert err.value.errno == errno.ENOENT

    def test_missing_file_on_the_command_line(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            cli.main(["train", "--dataset", "csv:missing.csv"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            "sobnat train: error: --dataset: cannot read missing.csv: No such file or directory"
        )

    def test_directory(self, tmp_path):
        with pytest.raises(IsADirectoryError):
            load_csv(tmp_path)

    def test_url_shaped_name_is_a_local_path(self, tmp_path, monkeypatch):
        def no_fetch(url, *args, **kwargs):
            raise AssertionError(f"fetched {url}")

        monkeypatch.setattr("urllib.request.urlopen", no_fetch)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "http:" / "host").mkdir(parents=True)
        (tmp_path / "http:" / "host" / "x.csv").write_text("1,0.5\n0,0.25\n")
        ds = load_csv("http://host/x.csv")
        assert ds.targets.tolist() == [1, 0]
        np.testing.assert_array_equal(ds.features, [[0.5], [0.25]])

    @pytest.mark.parametrize("suffix", sorted(COMPRESSORS))
    def test_compressed_file_is_refused(self, tmp_path, suffix):
        path = tmp_path / f"x.csv{suffix}"
        path.write_bytes(COMPRESSORS[suffix](b"0,1.0\n1,2.0\n"))
        with pytest.raises(ParseError) as err:
            load_csv(path)
        assert (err.value.line, err.value.column) == (1, 1)
        assert suffix in str(err.value)

    def test_compressed_sibling_is_not_read(self, tmp_path):
        (tmp_path / "x.csv.gz").write_bytes(gzip.compress(b"0,1.0\n1,2.0\n"))
        with pytest.raises(FileNotFoundError):
            load_csv(tmp_path / "x.csv")


def reference_load_csv(path, schema="label_first", target_dim=1, skip_header=False):
    """The row-by-row parser load_csv used before it read through np.loadtxt,
    kept as the reference for the differential tests; only its decoding
    (UTF-8 with an optional BOM) is load_csv's present one."""
    def parse_row(fields, line_no):
        row = []
        for col, text in enumerate(fields):
            text = text.strip()
            try:
                row.append(float(text))
            except ValueError:
                raise ParseError(line_no, col + 1, f"cannot parse {text!r} as a number") from None
        return row

    rows, line_nos = [], []
    width = None
    with open(path, "r", newline="", encoding="utf-8-sig") as fh:
        for line_no, raw in enumerate(fh, start=1):
            if skip_header and line_no == 1:
                continue
            stripped = raw.rstrip("\r\n")
            if stripped == "":
                continue
            fields = stripped.split(",")
            if width is None:
                width = len(fields)
                if width < 2:
                    raise ParseError(line_no, 1, "need at least two columns")
            elif len(fields) != width:
                raise InconsistentWidth(line_no, width, len(fields))
            rows.append(parse_row(fields, line_no))
            line_nos.append(line_no)
    if not rows:
        raise ParseError(0, 0, "no data rows")
    arr = np.asarray(rows, dtype=np.float64)
    bad = np.argwhere(~np.isfinite(arr))
    if bad.size:
        row, col = bad[0]
        raise ParseError(line_nos[row], int(col) + 1, f"non-finite value {float(arr[row, col])!r}")
    if schema == "label_first":
        labels = arr[:, 0]
        bad = np.flatnonzero((labels != np.floor(labels)) | (labels < 0) | (labels >= 2.0**63))
        if bad.size:
            row = bad[0]
            raise ParseError(
                line_nos[row], 1, f"label {float(labels[row])!r} is not a non-negative int64"
            )
        return Dataset(features=arr[:, 1:], targets=labels.astype(np.int64))
    width = arr.shape[1]
    if not 1 <= target_dim < width:
        raise ValueError(
            f"target_dim={target_dim} must be in [1, {width - 1}] for a {width}-column file"
        )
    return Dataset(features=arr[:, :-target_dim], targets=arr[:, -target_dim:])


PADDING = ["", "", "", " ", "  ", "\t", "\u00a0", "\u2003", "\u3000", "\x0b", "\x0c", "\x85"]
NON_FINITE = ["nan", "-nan", "inf", "-inf", "infinity", "INFINITY", "+Inf", "1e400"]
BAD_FIELDS = ["", '"1"', "#1", "abc", "1 2", "0x10", "1e", "--1", "nan(1)", "1.2.3", "\u200b1"]
BAD_LABELS = ["-1", "1.5", "1e20", "0.999999", "-0.5"]


def random_number(rng):
    kind = rng.randrange(6)
    if kind == 0:
        return str(rng.randrange(-50, 50))
    if kind == 1:
        return repr(rng.gauss(0.0, 10.0))
    if kind == 2:
        return f"{rng.uniform(-1, 1):.3e}"
    return rng.choice(["0", "-0", "+.5", "5.", "1e-3", "2E+2", "-0.0", "3.25", "007", "1e-400"])


def random_csv(rng):
    """(text, schema, target_dim, skip_header, line_field): a CSV mixing line
    ends, blank and whitespace-only lines, padding, non-finite and malformed
    fields, ragged rows and bad labels; line_field[i] is the (line, column) of
    the i-th field written, for swapping one in."""
    schema = rng.choice(["label_first", "targets_last"])
    width = rng.choice([1, 2, 2, 3, 3, 4]) if rng.random() < 0.1 else rng.choice([2, 3, 4])
    target_dim = rng.choice([1, 1, 1, 2, 3])
    skip_header = rng.random() < 0.3
    faulty = rng.random() < 0.6
    lines = []
    if skip_header:
        lines.append(rng.choice([",".join(f"c{i}" for i in range(width)), "", "0,1", "x"]))
    for _ in range(rng.randrange(0, 9)):
        r = rng.random()
        if r < 0.1:
            lines.append("")
            continue
        if r < 0.13 and faulty:
            lines.append(rng.choice([" ", "\t", "  "]))
            continue
        n = width
        if faulty and rng.random() < 0.05:
            n += rng.choice([-1, 1])
        fields = []
        for col in range(n):
            if col == 0 and schema == "label_first":
                text = str(rng.randrange(4))
                if faulty and rng.random() < 0.08:
                    text = rng.choice(BAD_LABELS)
            else:
                text = random_number(rng)
            if faulty and rng.random() < 0.03:
                text = rng.choice(NON_FINITE)
            if faulty and rng.random() < 0.03:
                text = rng.choice(BAD_FIELDS)
            fields.append(rng.choice(PADDING) + text + rng.choice(PADDING))
        lines.append(fields)
    ends = [rng.choice(["\n", "\r\n", "\r"])] if rng.random() < 0.7 else ["\n", "\r\n", "\r"]
    text, line_field, line_no = "", [], 1
    for k, line in enumerate(lines):
        if isinstance(line, list):
            for col in range(len(line)):
                line_field.append((line_no, col + 1))
            line = ",".join(line)
        end = rng.choice(ends)
        if k == len(lines) - 1 and rng.random() < 0.3:
            end = ""
        elif end == "\r" and k + 1 < len(lines) and lines[k + 1] == "":
            end = "\r\n"  # a CR before an empty line's LF would join them
        text += line + end
        line_no += 1
    return text, schema, target_dim, skip_header, line_field


def outcome(load, path, schema, target_dim, skip_header):
    try:
        ds = load(path, schema=schema, target_dim=target_dim, skip_header=skip_header)
    except (ParseError, InconsistentWidth, ValueError) as exc:
        return type(exc), getattr(exc, "line", None), getattr(exc, "column", None), str(exc)
    return ds.features, ds.targets


class TestCsvAgainstRowParser:
    """load_csv accepts what the row parser accepts, with equal arrays, and
    rejects the rest with the same error type, line, column and message."""

    @pytest.mark.parametrize("seed", range(12))
    def test_same_arrays_or_same_error(self, tmp_path, seed):
        rng = random.Random(seed)
        path = tmp_path / "mixed.csv"
        for _ in range(40):
            text, schema, target_dim, skip_header, _ = random_csv(rng)
            bom = "\ufeff" if rng.random() < 0.2 else ""
            path.write_bytes((bom + text).encode("utf-8"))
            want = outcome(reference_load_csv, path, schema, target_dim, skip_header)
            got = outcome(load_csv, path, schema, target_dim, skip_header)
            if isinstance(want[0], np.ndarray):
                np.testing.assert_array_equal(got[0], want[0], err_msg=repr(text))
                np.testing.assert_array_equal(got[1], want[1], err_msg=repr(text))
                assert got[1].dtype == want[1].dtype
            else:
                assert got == want, repr(text)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("field", ["1_5", "١", "١٢", "1_000.0"])
    def test_digit_separators_and_non_ascii_digits_are_rejected(self, tmp_path, seed, field):
        # float() reads these, so the row parser accepted them; loadtxt does not.
        rng = random.Random(seed)
        path = tmp_path / "narrow.csv"
        while True:
            text, schema, target_dim, skip_header, line_field = random_csv(rng)
            path.write_text(text, encoding="utf-8", newline="")
            clean = outcome(reference_load_csv, path, schema, target_dim, skip_header)
            if isinstance(clean[0], np.ndarray):
                break
        line, column = rng.choice(line_field)
        lines = io.StringIO(text, newline="").readlines()  # split as a file reads
        body = lines[line - 1].rstrip("\r\n")
        fields = body.split(",")
        fields[column - 1] = " " + field
        lines[line - 1] = ",".join(fields) + lines[line - 1][len(body):]
        path.write_text("".join(lines), encoding="utf-8", newline="")
        assert isinstance(outcome(reference_load_csv, path, schema, target_dim, skip_header)[0], np.ndarray)
        with pytest.raises(ParseError) as err:
            load_csv(path, schema=schema, target_dim=target_dim, skip_header=skip_header)
        assert (err.value.line, err.value.column) == (line, column)
        assert f"cannot parse {field!r} as a number" in str(err.value)


class TestSplit:
    def test_split_without_training_rows_raises_naming_rows_and_fraction(self):
        ds = gen_two_moons(4, 0.1, seed=0)
        for fraction in (0.9, 0.875):  # round(3.5) = 4 test rows too
            message = rf"^test fraction {fraction} leaves none of the 4 rows for training$"
            with pytest.raises(ValueError, match=message):
                train_test_split(ds, fraction, seed=0)
        assert len(train_test_split(ds, 0.7, seed=0).train_idx) == 1


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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_empty_train_split_is_named_before_any_arithmetic(self):
        # The mean and std of no rows are nan, with RuntimeWarnings, so the
        # split is refused before either is taken.
        ds = Dataset(features=np.arange(6.0).reshape(3, 2), targets=np.zeros(3, dtype=np.int64),
                     train_idx=np.zeros(0, dtype=np.int64), test_idx=np.arange(3))
        with pytest.raises(DimensionMismatch, match="^the train split is empty"):
            normalize(ds)

    def test_constant_column_left_alone(self):
        feats = np.column_stack([np.full(50, 2.0), np.arange(50.0)])
        ds = Dataset(features=feats, targets=np.zeros(50, dtype=np.int64))
        normed = normalize(ds)
        assert normed.feature_std[0] == 1.0
        np.testing.assert_allclose(normed.features[:, 0], 0.0)

