"""Dataset generation, CSV ingestion, splitting and normalization."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import InconsistentWidth, ParseError

__all__ = [
    "Dataset",
    "gen_two_moons",
    "train_test_split",
    "normalize",
    "load_csv",
    "write_csv",
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
    rng = np.random.default_rng(seed)
    perm = rng.permutation(ds.features.shape[0])
    n_test = int(round(test_fraction * ds.features.shape[0]))
    return replace(ds, test_idx=np.sort(perm[:n_test]), train_idx=np.sort(perm[n_test:]))


def normalize(ds: Dataset) -> Dataset:
    """Standardize features to zero mean, unit std.

    Statistics come from the train split only and are applied to every row;
    constant columns keep std 1 so they pass through unchanged.
    """
    train_feats = ds.features[ds.train_idx]
    mean = np.mean(train_feats, axis=0)
    std = np.std(train_feats, axis=0)
    std = np.where(std < 1e-12, 1.0, std)
    return replace(
        ds,
        features=(ds.features - mean) / std,
        feature_mean=mean,
        feature_std=std,
    )


def _parse_row(fields, line_no: int):
    row = []
    for col, text in enumerate(fields):
        text = text.strip()
        try:
            row.append(float(text))
        except ValueError:
            raise ParseError(line_no, col + 1, f"cannot parse {text!r} as a number") from None
    return row


def load_csv(path, schema: str = LABEL_FIRST, target_dim: int = 1, skip_header: bool = False) -> Dataset:
    """Load a numeric CSV ('.'-decimal, LF or CRLF, optional single header).

    schema "label_first": first column is a class label, an integer in
    [0, 2^63), the rest are features.  schema "targets_last": the last
    target_dim columns are float targets, and at least one column must be
    left for the features (else ValueError).  Malformed rows, nan/inf
    fields and out-of-range labels are rejected with their line and column.
    """
    if schema not in (LABEL_FIRST, TARGETS_LAST):
        raise ValueError(f"unknown schema {schema!r}")
    rows, line_nos = [], []
    width = None
    with open(path, "r", newline="") as fh:
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
            rows.append(_parse_row(fields, line_no))
            line_nos.append(line_no)
    if not rows:
        raise ParseError(0, 0, "no data rows")
    arr = np.asarray(rows, dtype=np.float64)
    bad = np.argwhere(~np.isfinite(arr))
    if bad.size:
        row, col = bad[0]
        raise ParseError(line_nos[row], int(col) + 1, f"non-finite value {float(arr[row, col])!r}")
    if schema == LABEL_FIRST:
        labels = arr[:, 0]
        # Negative labels, and labels past int64 that cast to negative ones,
        # would index classes from the end.
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


def write_csv(ds: Dataset, path, schema: str = LABEL_FIRST) -> None:
    """Inverse of load_csv for the same schema."""
    with open(path, "w", newline="\n") as fh:
        for i in range(ds.features.shape[0]):
            feats = [repr(float(v)) for v in ds.features[i]]
            if schema == LABEL_FIRST:
                fh.write(",".join([str(int(ds.targets[i]))] + feats) + "\n")
            elif schema == TARGETS_LAST:
                tgt = np.atleast_1d(ds.targets[i])
                fh.write(",".join(feats + [repr(float(v)) for v in tgt]) + "\n")
            else:
                raise ValueError(f"unknown schema {schema!r}")
