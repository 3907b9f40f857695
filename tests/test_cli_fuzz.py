"""Fuzz of every input the loaders and the config accept, through cli.main.

Each case writes one small CSV, whitespace or ARFF file (duplicate points,
d=1, n at and below k_min, CRLF line ends, magnitudes from 1e-300 to 1e300,
odd class names) and a config file with [run], [kdi] and [bandwidth]
sections, some of whose values are out of range.  Whatever the input, the
run ends with exit code 0, 1 or 2 and no traceback; a run that succeeds
writes KDI scores in [0, 1], one permutation per rank column, and the same
bytes again when it is repeated.
"""

import contextlib
import csv
import io
import math
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kdeval import cli

SCALES = (1.0, 1e-20, 1e20, 1e-100, 1e100, 1e-170, 1e-300, 1e155, 1e300)
CLASS_NAMES = ("a", "B", "0", "-1", "1e3", "1.5", "nan", "é", "x_y", "'q'", "'q,r'", "#", "a%")
KDI_PREFIXES = ("new", "ia_", "is_")


def _option(key, values):
    """Either nothing or one (key, value) drawn from values."""
    return st.one_of(st.none(), st.tuples(st.just(key), st.sampled_from(values)))


EXTENSIONS = {"csv": "csv", "whitespace": "txt", "arff": "arff"}
OPTIONS = {
    "run": (
        _option("k_min", ("1", "2", "3")),
        _option("k_max", ("3", "4")),
        _option("indices", ("new", "ch,sc", "db,new", "sc")),
        _option("generators", ("kmeans", "gmm", "agg-single", "kmeans,agg-average", "agg-ward,agg-complete")),
        _option("include_variants", ("true", "false")),
        _option("boundary_mix_weight", ("0", "0.3", "1")),
        _option("emit_svg", ("yes", "no")),
    ),
    "kdi": (
        _option("delta", ("0", "0.5", "1")),
        _option("alpha1", ("0", "0.5", "3")),
        _option("beta2", ("0", "2")),
        _option("rho", ("0", "0.5", "5")),
        _option("min_cluster_size", ("0", "3", "100")),
        _option("ambiguous_variant", ("main", "v1", "v2", "v3")),
        _option("similarity_variant", ("main", "v1", "v2", "v3")),
        _option("pair_local", ("true", "false")),
        _option("boundary_members_only", ("true", "false")),
        _option("s_v3_center", ("mean", "median")),
        _option("s_v3_metric", ("abs", "squared")),
        _option("s_v3_normalize", ("true", "false")),
    ),
    "bandwidth": (
        _option("grid", ("0.5,1,2", "1e-300,1e300", "3")),
        _option("folds", ("2", "3", "5")),
    ),
}
# one of these, in a quarter of the configs, makes the run a usage error
INVALID = (
    ("run", "seed", "-1"), ("run", "k_max", "0"), ("run", "generators", ""),
    ("run", "boundary_mix_weight", "2"), ("run", "colour", "red"), ("kdi", "delta", "7"),
    ("kdi", "beta2", "-1"), ("kdi", "s_v3_center", "mode"), ("bandwidth", "grid", "0,1"),
    ("bandwidth", "folds", "1"), ("cluster", "k", "2"),
)


@st.composite
def data_files(draw):
    """(format, file text, label column flag or None)."""
    fmt = draw(st.sampled_from(("csv", "whitespace", "arff")))
    n, d = draw(st.sampled_from((8, 5, 3, 2, 1))), draw(st.integers(1, 3))
    scale = draw(st.sampled_from(SCALES))
    # few distinct coordinates, so duplicate points are common
    coordinate = st.one_of(st.integers(-3, 3), st.floats(-3.0, 3.0, width=32))
    rows = [[repr(float(v) * scale) for v in draw(st.lists(coordinate, min_size=d, max_size=d))]
            for _ in range(n)]
    labelled = draw(st.booleans())
    label_flag = None
    if labelled:
        names = [draw(st.sampled_from(CLASS_NAMES)) for _ in range(n)]
        first = fmt != "arff" and draw(st.booleans())
        label_flag = "0" if first else "-1"
        rows = [[name] + row if first else row + [name] for row, name in zip(rows, names)]
    sep = " " if fmt == "whitespace" else ","
    lines = [sep.join(row) for row in rows]
    if fmt == "arff":
        header = ["% fuzz", "@relation fuzz"]
        header += [f"@attribute x{j} numeric" for j in range(d)]
        if labelled:
            header.append("@attribute class {" + ",".join(sorted(set(names))) + "}")
        lines = header + ["@data"] + lines
        label_flag = None
    newline = "\r\n" if draw(st.booleans()) else "\n"
    return fmt, newline.join(lines) + newline, label_flag


@st.composite
def config_files(draw):
    """(config text, {key: value} of the options it sets)."""
    sections = {
        name: dict(pair for pair in (draw(option) for option in options) if pair is not None)
        for name, options in OPTIONS.items()
    }
    # the Monte-Carlo variant's default 20000 samples would dominate the budget
    sections["kdi"]["mc_samples"] = draw(st.sampled_from(("1", "50", "300")))
    if draw(st.booleans()):
        sections["run"]["seed"] = "5"
    if draw(st.booleans()) and draw(st.booleans()):
        section, key, value = draw(st.sampled_from(INVALID))
        sections.setdefault(section, {})[key] = value
    text = []
    for name, pairs in sections.items():
        if pairs or draw(st.booleans()):
            text.append(f"[{name}]")
            text += [f"{key} = {value}" for key, value in pairs.items()]
    chosen = {key: value for pairs in sections.values() for key, value in pairs.items()}
    return "\n".join(text) + "\n", chosen


def _run(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


def _tree(root):
    """{relative path: bytes} of every deterministic output file."""
    out = {}
    for dirpath, _dirs, files in os.walk(root):
        for name in files:
            if name != "runtime.txt":
                path = os.path.join(dirpath, name)
                with open(path, "rb") as fh:
                    out[os.path.relpath(path, root)] = fh.read()
    return out


def _check_report(path, unbounded_similarity):
    with open(path, newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    assert rows
    for j, column in enumerate(header):
        cells = [row[j] for row in rows]
        if column.startswith("rank_"):
            assert sorted(map(int, cells)) == list(range(1, len(rows) + 1)), column
        elif column.startswith(KDI_PREFIXES):
            # similarity_v3 without its min-max scaling is unbounded above
            top = math.inf if unbounded_similarity and column in ("new", "new_is", "new3", "is_v3") else 1.0
            for cell in cells:
                assert 0.0 <= float(cell) <= top, (column, cell)


# data near the float limits overflows on purpose; those warnings are expected
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=data_files(), config=config_files(), flags=st.fixed_dictionaries({
    "seed": st.sampled_from((True, True, True, False)), "k": st.booleans(),
    "variants": st.booleans(), "svg": st.booleans(),
}))
def test_cli_fails_loudly_or_writes_valid_reproducible_reports(data, config, flags):
    fmt, text, label_flag = data
    config_text, chosen = config
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, f"fuzz.{EXTENSIONS[fmt]}")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        config_path = os.path.join(tmp, "run.ini")
        with open(config_path, "w", encoding="utf-8") as fh:
            fh.write(config_text)
        argv = ["evaluate", path, "--config", config_path]
        argv += ["--seed", "3"] if flags["seed"] else []
        argv += ["--k-min", "2", "--k-max", "3"] if flags["k"] else []
        argv += ["--variants"] if flags["variants"] else []
        argv += ["--svg"] if flags["svg"] else []
        argv += ["--label-column", label_flag] if label_flag is not None else []
        outs = [os.path.join(tmp, "out1"), os.path.join(tmp, "out2")]
        code, err = _run(argv + ["--out", outs[0]])
        assert code in (0, 1, 2), (code, err)
        assert "Traceback" not in err
        if code != 0:
            return
        unbounded = chosen.get("s_v3_normalize") == "false"
        _check_report(os.path.join(outs[0], "report.csv"), unbounded)
        assert _run(argv + ["--out", outs[1]]) == (0, err)
        assert _tree(outs[0]) == _tree(outs[1])
