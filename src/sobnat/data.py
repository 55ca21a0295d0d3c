"""Dataset generation, CSV ingestion, splitting and normalization."""

from __future__ import annotations

import math
import re
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import DimensionMismatch, InconsistentWidth, ParseError, SobnatError

__all__ = [
    "Dataset",
    "gen_two_moons",
    "train_test_split",
    "normalize",
    "load_csv",
]

LABEL_FIRST = "label_first"
TARGETS_LAST = "targets_last"


@dataclass
class Dataset:
    features: np.ndarray  # (B_total, n)
    targets: np.ndarray  # int labels (B_total,) or float (B_total, m)
    train_idx: np.ndarray = None
    test_idx: np.ndarray = None
    feature_mean: np.ndarray = None
    feature_std: np.ndarray = None

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        if self.train_idx is None:
            self.train_idx = np.arange(self.features.shape[0])
        if self.test_idx is None:
            self.test_idx = np.zeros(0, dtype=np.int64)

    @property
    def input_dim(self) -> int:
        return self.features.shape[1]

    @property
    def classification(self) -> bool:
        return np.issubdtype(self.targets.dtype, np.integer)

    @property
    def num_classes(self) -> int:
        return int(np.max(self.targets)) + 1

    def train(self):
        return self.features[self.train_idx], self.targets[self.train_idx]

    def test(self):
        return self.features[self.test_idx], self.targets[self.test_idx]


def gen_two_moons(count: int, noise: float, seed: int) -> Dataset:
    """Two interleaved half-circles, the second offset to dip to (1, -0.5).

    Deterministic per seed; labels are 0 (upper moon) and 1 (lower moon).
    """
    if count < 2:
        raise ValueError("count must be >= 2")
    if not 0 <= noise < math.inf:  # nan fails the comparison
        raise ValueError(f"noise must be non-negative and finite, got {noise}")
    n_upper = count // 2
    n_lower = count - n_upper
    t_upper = np.linspace(0.0, np.pi, n_upper)
    t_lower = np.linspace(0.0, np.pi, n_lower)
    upper = np.column_stack([np.cos(t_upper), np.sin(t_upper)])
    lower = np.column_stack([1.0 - np.cos(t_lower), 0.5 - np.sin(t_lower)])
    features = np.vstack([upper, lower])
    labels = np.concatenate([np.zeros(n_upper, dtype=np.int64), np.ones(n_lower, dtype=np.int64)])
    rng = np.random.default_rng(seed)
    if noise > 0:
        features = features + rng.normal(scale=noise, size=features.shape)
    perm = rng.permutation(count)
    return Dataset(features=features[perm], targets=labels[perm])


def train_test_split(ds: Dataset, test_fraction: float, seed: int) -> Dataset:
    """Seeded split with round(test_fraction * rows) test rows; ValueError if none is left to train."""
    rows = ds.features.shape[0]
    perm = np.random.default_rng(seed).permutation(rows)
    n_test = int(round(test_fraction * rows))
    if n_test >= rows:
        raise ValueError(f"test fraction {test_fraction} leaves none of the {rows} rows for training")
    return replace(ds, test_idx=np.sort(perm[:n_test]), train_idx=np.sort(perm[n_test:]))


def normalize(ds: Dataset) -> Dataset:
    """Standardize features to zero mean, unit std.

    Statistics come from the train split only and are applied to every row;
    constant columns keep std 1 so they pass through unchanged.  An empty
    train split has none and raises DimensionMismatch.
    """
    train_feats = ds.features[ds.train_idx]
    if len(train_feats) == 0:
        raise DimensionMismatch("the train split is empty: no rows to take statistics from")
    mean = np.mean(train_feats, axis=0)
    std = np.std(train_feats, axis=0)
    std = np.where(std < 1e-12, 1.0, std)
    return replace(
        ds,
        features=(ds.features - mean) / std,
        feature_mean=mean,
        feature_std=std,
    )


def load_csv(path, schema: str = LABEL_FIRST, target_dim: int = 1, skip_header: bool = False) -> Dataset:
    """Load a numeric CSV, skipping its first line when skip_header is set.

    Grammar: UTF-8 text with an optional byte-order mark; LF, CRLF or CR
    line ends; blank lines are skipped.  Every other line holds the same
    number (at least two) of comma-separated fields, each an ASCII
    '.'-decimal float with optional whitespace around it: no quotes, no
    digit separators such as '1_000', no non-ASCII digits.
    schema "label_first": first column is a class label, an integer in
    [0, 2^63), the rest are features.  schema "targets_last": the last
    target_dim columns are float targets, and at least one column must be
    left for the features (else ValueError).  Malformed rows, undecodable
    bytes, nan/inf fields and out-of-range labels are rejected with their
    line and column.
    """
    if schema not in (LABEL_FIRST, TARGETS_LAST):
        raise ValueError(f"unknown schema {schema!r}")
    try:
        with open(path, encoding="utf-8-sig", newline="") as fh, warnings.catch_warnings():
            # A file without data rows is named by _located_fault, not warned of.
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            arr = np.loadtxt(fh, delimiter=",", comments=None, dtype=np.float64, ndmin=2,
                             skiprows=1 if skip_header else 0)
    except ValueError as exc:  # UnicodeDecodeError included
        raise _located_fault(path, schema, skip_header, str(exc)) from None
    if arr.shape[1] < 2:
        raise _located_fault(path, schema, skip_header, "fewer than two columns")
    fault = _value_fault(arr, schema)
    if fault is not None:
        raise _located_fault(path, schema, skip_header, fault[2])
    if schema == LABEL_FIRST:
        return Dataset(features=arr[:, 1:], targets=arr[:, 0].astype(np.int64))
    width = arr.shape[1]
    if not 1 <= target_dim < width:
        raise ValueError(
            f"target_dim={target_dim} must be in [1, {width - 1}] for a {width}-column file"
        )
    return Dataset(features=arr[:, :-target_dim], targets=arr[:, -target_dim:])


def _value_fault(arr: np.ndarray, schema: str):
    """(row, column, message) of the first non-finite value or, failing that,
    of the first label that is not a non-negative int64; None if neither."""
    finite = np.isfinite(arr)
    if not finite.all():
        row, col = np.argwhere(~finite)[0]
        return row, int(col) + 1, f"non-finite value {float(arr[row, col])!r}"
    if schema == LABEL_FIRST:
        labels = arr[:, 0]
        # Negative labels, and labels past int64 that cast to negative ones,
        # would index classes from the end.
        bad = np.flatnonzero((labels != np.floor(labels)) | (labels < 0) | (labels >= 2.0**63))
        if bad.size:
            return bad[0], 1, f"label {float(labels[bad[0]])!r} is not a non-negative int64"
    return None


# Bytes that are not UTF-8 decode to these under errors="surrogateescape".
_UNDECODABLE = re.compile("[\udc80-\udcff]")


def _located_fault(path, schema: str, skip_header: bool, reason: str) -> SobnatError:
    """The error for a file that load_csv rejected for reason: its first
    fault in file order, a ParseError or InconsistentWidth with the line and
    column, or a ParseError carrying reason should the scan find none.

    The scan runs row by row in Python, so load_csv calls it only once it
    has rejected the file.
    """
    rows, line_nos = [], []
    width = None
    with open(path, encoding="utf-8-sig", errors="surrogateescape", newline="") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.rstrip("\r\n")
            bad = _UNDECODABLE.search(line)
            if bad:
                byte = ord(bad.group()) - 0xDC00
                return ParseError(line_no, line.count(",", 0, bad.start()) + 1,
                                  f"byte {byte:#04x} is not UTF-8")
            if (skip_header and line_no == 1) or line == "":
                continue
            fields = line.split(",")
            if width is None:
                width = len(fields)
                if width < 2:
                    return ParseError(line_no, 1, "need at least two columns")
            elif len(fields) != width:
                return InconsistentWidth(line_no, width, len(fields))
            row = [_number(text) for text in fields]
            if None in row:
                col = row.index(None)
                return ParseError(line_no, col + 1, f"cannot parse {fields[col].strip()!r} as a number")
            rows.append(row)
            line_nos.append(line_no)
    if not rows:
        return ParseError(0, 0, "no data rows")
    fault = _value_fault(np.asarray(rows), schema)
    if fault is not None:
        row, col, message = fault
        return ParseError(line_nos[row], col, message)
    return ParseError(0, 0, f"rejected, with no fault found row by row: {reason}")


def _number(text: str):
    """The float an ASCII '.'-decimal field reads as, else None.  float()
    alone also reads '1_000' and non-ASCII digits, which loadtxt rejects."""
    text = text.strip()
    if text.isascii() and "_" not in text:
        try:
            return float(text)
        except ValueError:
            pass
    return None

