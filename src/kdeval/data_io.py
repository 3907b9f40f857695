"""Dataset ingestion: headerless CSV, whitespace-delimited text, and a small
ARFF subset, plus synthetic blob generation for tests and demos."""

import math
import re

import numpy as np

from .density import _check_choice, _check_count
from .partitions import canonicalize

FORMATS = ("csv", "whitespace", "arff")


class DataError(Exception):
    """Base class for dataset ingestion problems (CLI maps these to exit code 2)."""


class ParseError(DataError):
    """Malformed content; message carries the 1-based line number."""


class EmptyDataError(DataError):
    """File contains no data rows."""


class Dataset:
    """Immutable point set with optional reference labels.

    points       : (n, d) float64 array, all finite, d >= 1
    reference_labels : (n,) int array or None; any hashable raw labels (class
                   names, say) are remapped to 0..k-1 by first occurrence
    id           : short name used in reports
    """

    def __init__(self, points, reference_labels=None, id="dataset"):
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim == 1:
            pts = pts.reshape(-1, 1)
        if pts.ndim != 2 or pts.shape[0] < 1 or pts.shape[1] < 1:
            raise ValueError(f"points must be a non-empty 2-D array, got shape {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise ValueError("points contain non-finite coordinates")
        pts = pts.copy()
        pts.flags.writeable = False
        self.points = pts
        if reference_labels is not None:
            labels = np.asarray(reference_labels)
            if labels.shape != (pts.shape[0],):
                raise ValueError(
                    f"reference_labels length {labels.shape} does not match n={pts.shape[0]}"
                )
            self.reference_labels = canonicalize(labels).labels
        else:
            self.reference_labels = None
        self.id = str(id)

    @property
    def n(self):
        return self.points.shape[0]

    @property
    def d(self):
        return self.points.shape[1]

    def __repr__(self):
        lab = "with labels" if self.reference_labels is not None else "unlabeled"
        return f"Dataset({self.id!r}, n={self.n}, d={self.d}, {lab})"


def _feature(field, lineno):
    """One coordinate; non-numeric and non-finite values are parse errors."""
    try:
        value = float(field)
    except ValueError:
        raise ParseError(f"line {lineno}: non-numeric feature value {field!r}") from None
    if not math.isfinite(value):
        raise ParseError(f"line {lineno}: non-finite feature value {field!r}")
    return value


# One ARFF value, quoted with ' or " (it may then hold commas) or bare, and the
# comma or line end after it.
_ARFF_VALUE = re.compile(r"""\s*(?:'([^']*)'|"([^"]*)"|([^,'"]*))\s*(,|$)""")


def _split_line(line, fmt, lineno):
    if fmt == "whitespace":
        return line.split()
    if fmt == "csv":
        return [field.strip() for field in line.split(",")]
    fields, pos = [], 0
    while True:
        m = _ARFF_VALUE.match(line, pos)
        if m is None:
            raise ParseError(f"line {lineno}: unclosed or stray quote")
        fields.append(next(v for v in m.groups() if v is not None).strip())
        if not m.group(4):
            return fields
        pos = m.end()


def _parse_delimited(lines, fmt, label_column, dataset_id, width=None, nominal=(None, ())):
    """Rows of `width` fields (the first row's count when None).  The one row
    reader for every format: the label column, ragged rows, '?', non-finite
    values and the values of the nominal column (its index and declared
    values) are each checked here."""
    first_lineno = lines[0][0]
    nominal_col, declared = nominal
    width = width or len(_split_line(lines[0][1], fmt, first_lineno))
    col = label_column
    if col is not None:
        col = col if col >= 0 else width + col
        if not 0 <= col < width:
            raise ParseError(
                f"line {first_lineno}: label column {label_column} out of range for {width} columns"
            )
    rows = []
    raw_labels = []
    for lineno, text in lines:
        fields = _split_line(text, fmt, lineno)
        if len(fields) != width:
            raise ParseError(
                f"line {lineno}: expected {width} columns, found {len(fields)} (ragged row)"
            )
        coords = []
        for j, field in enumerate(fields):
            if field == "?":
                raise ParseError(f"line {lineno}: missing value '?' is not supported")
            if j == nominal_col and field not in declared:
                raise ParseError(f"line {lineno}: nominal value {field!r} is not declared")
            if j == col:
                raw_labels.append(field)
            else:
                coords.append(_feature(field, lineno))
        rows.append(coords)
    labels = raw_labels if col is not None else None
    return Dataset(np.array(rows), reference_labels=labels, id=dataset_id)


_ARFF_ATTR = re.compile(r"""@attribute\s+('[^']*'|"[^"]*"|[^'"\s]\S*)\s+(.+)$""", re.IGNORECASE)


def _parse_arff(lines, label_column, dataset_id):
    """Read the header (attribute count, nominal class index), then hand the
    data rows to the common row reader."""
    n_attrs = 0
    nominal = (None, ())
    for pos, (lineno, text) in enumerate(lines):
        lowered = text.lower()
        if lowered.startswith("@relation"):
            continue
        if lowered.startswith("@attribute"):
            m = _ARFF_ATTR.match(text)
            if m is None:
                raise ParseError(f"line {lineno}: malformed @attribute declaration")
            kind = m.group(2).strip()
            if kind.startswith("{"):
                if not kind.endswith("}"):
                    raise ParseError(f"line {lineno}: unclosed nominal declaration {kind!r}")
                if nominal[0] is not None:
                    raise ParseError(
                        f"line {lineno}: more than one nominal attribute; only a single class attribute is supported"
                    )
                nominal = (n_attrs, set(_split_line(kind[1:-1], "arff", lineno)))
            elif kind.lower() not in ("numeric", "real", "integer"):
                raise ParseError(f"line {lineno}: unsupported attribute type {kind!r}")
            n_attrs += 1
            continue
        if lowered.startswith("@data"):
            if not n_attrs:
                raise ParseError(f"line {lineno}: @data before any @attribute")
            data_rows = lines[pos + 1:]
            if not data_rows:
                raise EmptyDataError(f"line {lineno}: ARFF file has no data rows after @data")
            if label_column is None:
                label_column = nominal[0]
            return _parse_delimited(data_rows, "arff", label_column, dataset_id, width=n_attrs,
                                    nominal=nominal)
        raise ParseError(f"line {lineno}: unexpected content in ARFF header: {text!r}")
    raise ParseError(f"line {lines[-1][0]}: missing @data section (the file ends here)")


def load_dataset(path, format="csv", label_column=None, id=None):
    """Load a dataset file.

    format: one of 'csv' (headerless, comma), 'whitespace', 'arff' (numeric
    attributes plus at most one nominal class attribute).  label_column, when
    given, selects the label column by index (negative counts from the end).
    Raises ParseError with a line number on malformed content and
    EmptyDataError on files with no data rows.
    """
    _check_choice("format", format, FORMATS)
    path = str(path)
    dataset_id = id if id is not None else _stem(path)
    with open(path, "r", encoding="utf-8-sig") as fh:
        raw = fh.read().split("\n")
    lines = []
    for lineno, text in enumerate(raw, start=1):
        stripped = text.strip()
        if not stripped or stripped.startswith("%") and format == "arff":
            continue
        lines.append((lineno, stripped))
    if not lines:
        raise EmptyDataError(f"{path}: file contains no data")
    if format == "arff":
        return _parse_arff(lines, label_column, dataset_id)
    return _parse_delimited(lines, format, label_column, dataset_id)


def _stem(path):
    name = path.replace("\\", "/").rsplit("/", 1)[-1]
    return name.rsplit(".", 1)[0] if "." in name else name


def save_dataset_csv(dataset, path):
    """Write points (and labels, when present) as headerless CSV.

    Floats use the shortest round-trip representation, so reloading
    reproduces coordinates bit-exactly.  Rows are newline-terminated and use
    '.' as the decimal separator.
    """
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(dataset.n):
            fields = [repr(float(v)) for v in dataset.points[i]]
            if dataset.reference_labels is not None:
                fields.append(str(int(dataset.reference_labels[i])))
            fh.write(",".join(fields) + "\n")


def make_blobs(k, per_cluster, centers, sigma, seed, id=None):
    """Sample isotropic Gaussian blobs around the given centers.

    Returns a Dataset whose reference labels are the generating component.
    Deterministic for a fixed seed.
    """
    _check_count("k", k, 1)
    _check_count("per_cluster", per_cluster, 1)
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    centers = [np.asarray(c, dtype=np.float64).ravel() for c in centers]
    if len(centers) != k:
        raise ValueError(f"expected {k} centers, got {len(centers)}")
    d = centers[0].shape[0]
    for c in centers:
        if c.shape[0] != d:
            raise ValueError("centers have mismatched dimensions")
    rng = np.random.default_rng(seed)
    points = np.concatenate(
        [center + sigma * rng.standard_normal((per_cluster, d)) for center in centers]
    )
    labels = np.repeat(np.arange(k), per_cluster)
    name = id if id is not None else f"blobs-k{k}-n{k * per_cluster}-seed{seed}"
    return Dataset(points, reference_labels=labels, id=name)
