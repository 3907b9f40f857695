import re

import numpy as np
import pytest

from kdeval import cli
from kdeval.data_io import (
    Dataset,
    EmptyDataError,
    ParseError,
    load_dataset,
    make_blobs,
    save_dataset_csv,
)


def test_csv_no_labels(tmp_path):
    path = tmp_path / "a.csv"
    path.write_text("0,0\n1,1\n")
    ds = load_dataset(path, "csv")
    assert ds.n == 2 and ds.d == 2
    assert ds.reference_labels is None
    np.testing.assert_array_equal(ds.points, [[0, 0], [1, 1]])


def test_csv_with_label_column(tmp_path):
    path = tmp_path / "a.csv"
    path.write_text("0,0,0\n5,5,1\n")
    ds = load_dataset(path, "csv", label_column=2)
    assert ds.n == 2 and ds.d == 2
    np.testing.assert_array_equal(ds.reference_labels, [0, 1])


def test_whitespace_format(tmp_path):
    path = tmp_path / "a.txt"
    path.write_text("1.5  2.5\t3\n4 5 6\n")
    ds = load_dataset(path, "whitespace")
    assert ds.n == 2 and ds.d == 3


ARFF = """\
% a comment
@RELATION toy
@ATTRIBUTE x NUMERIC
@attribute y numeric
@attribute class {1,2}
@DATA
0.0,0.0,1
0.5,0.5,1
5.0,5.0,2
5.5,5.5,2
"""


def test_arff_fixture(tmp_path):
    path = tmp_path / "toy.arff"
    path.write_text(ARFF)
    ds = load_dataset(path, "arff")
    assert ds.n == 4 and ds.d == 2
    # nominal class values {1,2} remapped to {0,1} by first occurrence
    np.testing.assert_array_equal(ds.reference_labels, [0, 0, 1, 1])
    np.testing.assert_allclose(ds.points[2], [5.0, 5.0])


def test_arff_missing_value_is_error(tmp_path):
    path = tmp_path / "m.arff"
    path.write_text("@relation r\n@attribute x numeric\n@data\n1\n?\n")
    with pytest.raises(ParseError, match="line 5"):
        load_dataset(path, "arff")


def test_ragged_row_reports_line(tmp_path):
    path = tmp_path / "a.csv"
    path.write_text("0,0\n1,1,9\n")
    with pytest.raises(ParseError, match="line 2"):
        load_dataset(path, "csv")


def test_non_numeric_reports_line(tmp_path):
    path = tmp_path / "a.csv"
    path.write_text("0,0\n1,zap\n")
    with pytest.raises(ParseError, match="line 2"):
        load_dataset(path, "csv")


@pytest.mark.parametrize("value", ["nan", "inf", "-Infinity", "1e400"])
def test_non_finite_reports_line(tmp_path, value):
    path = tmp_path / "a.csv"
    path.write_text(f"0,0\n1,1\n2,{value}\n3,nan\n")
    with pytest.raises(ParseError, match="line 3: non-finite"):
        load_dataset(path, "csv")
    arff = tmp_path / "a.arff"
    arff.write_text(f"@relation r\n@attribute x numeric\n@data\n1\n{value}\n")
    with pytest.raises(ParseError, match="line 5: non-finite"):
        load_dataset(arff, "arff")


def test_empty_file_distinct_error(tmp_path):
    path = tmp_path / "a.csv"
    path.write_text("")
    with pytest.raises(EmptyDataError):
        load_dataset(path, "csv")


def test_no_rows_dropped(tmp_path):
    path = tmp_path / "a.csv"
    rows = 23
    path.write_text("".join(f"{i},{i}\n" for i in range(rows)) + "\n\n")
    assert load_dataset(path, "csv").n == rows


def test_label_remap_first_occurrence(tmp_path):
    path = tmp_path / "a.csv"
    path.write_text("0,7\n1,3\n2,7\n3,9\n")
    ds = load_dataset(path, "csv", label_column=1)
    np.testing.assert_array_equal(ds.reference_labels, [0, 1, 0, 2])


def test_csv_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    ds = Dataset(rng.standard_normal((17, 3)) * 1e3, reference_labels=rng.integers(0, 3, 17))
    path = tmp_path / "rt.csv"
    save_dataset_csv(ds, path)
    back = load_dataset(path, "csv", label_column=3)
    assert np.array_equal(ds.points, back.points)  # bit-exact
    np.testing.assert_array_equal(ds.reference_labels, back.reference_labels)


def test_make_blobs_shape_and_labels():
    ds = make_blobs(1, 3, [(0, 0)], sigma=1.0, seed=7)
    assert ds.n == 3 and ds.d == 2
    np.testing.assert_array_equal(ds.reference_labels, [0, 0, 0])


def test_make_blobs_stays_near_centers():
    ds = make_blobs(2, 2, [(0, 0), (100, 100)], sigma=0.1, seed=1)
    centers = np.array([(0, 0), (0, 0), (100, 100), (100, 100)])
    # 10 sigma: violation probability < 1e-20
    assert np.all(np.linalg.norm(ds.points - centers, axis=1) < 1.0)


def test_make_blobs_deterministic():
    a = make_blobs(3, 5, [(0, 0), (5, 5), (9, 0)], sigma=0.5, seed=42)
    b = make_blobs(3, 5, [(0, 0), (5, 5), (9, 0)], sigma=0.5, seed=42)
    assert np.array_equal(a.points, b.points)


def test_make_blobs_center_dimension_mismatch():
    with pytest.raises(ValueError):
        make_blobs(2, 3, [(0, 0), (1, 1, 1)], sigma=1.0, seed=0)


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset([[np.inf, 0.0]])
    with pytest.raises(ValueError):
        Dataset([[0.0, 0.0]], reference_labels=[0, 1])


def test_csv_and_arff_give_the_same_dataset(tmp_path):
    rows = ["0.5,-1.25,setosa", "1e-3,7,virginica", "2.0,2.5,setosa", "-3,0.125,versicolor"]
    csv = tmp_path / "same.csv"
    csv.write_text("\n".join(rows) + "\n")
    arff = tmp_path / "same.arff"
    arff.write_text(
        "@relation same\n@attribute x numeric\n@attribute y real\n"
        "@attribute class {setosa,virginica,versicolor}\n@data\n" + "\n".join(rows) + "\n"
    )
    a = load_dataset(csv, "csv", label_column=-1)
    b = load_dataset(arff, "arff")
    assert np.array_equal(a.points, b.points)
    np.testing.assert_array_equal(a.reference_labels, [0, 1, 0, 2])
    np.testing.assert_array_equal(a.reference_labels, b.reference_labels)


def test_arff_quoted_value_keeps_its_comma(tmp_path):
    arff = tmp_path / "quoted.arff"
    arff.write_text(
        "@relation r\n@attribute x numeric\n@attribute class {'q,r',b}\n@data\n"
        "1.0,'q,r'\n2.0, b\n3.0,'q,r'\n"
    )
    ds = load_dataset(arff, "arff")
    np.testing.assert_array_equal(ds.points, [[1.0], [2.0], [3.0]])
    np.testing.assert_array_equal(ds.reference_labels, [0, 1, 0])
    # CSV keeps its plain split: the same row there has three fields
    csv = tmp_path / "quoted.csv"
    csv.write_text("1.0,'q,r'\n")
    with pytest.raises(ParseError, match="line 1: non-numeric"):
        load_dataset(csv, "csv", label_column=-1)


def test_arff_attribute_names_may_be_quoted(tmp_path):
    arff = tmp_path / "names.arff"
    arff.write_text(
        "@relation r\n@attribute 'x y' numeric\n@attribute \"z w\" real\n"
        "@attribute 'the class' {a,b}\n@data\n1,2,a\n3,4,b\n"
    )
    ds = load_dataset(arff, "arff")
    np.testing.assert_array_equal(ds.points, [[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_array_equal(ds.reference_labels, [0, 1])


def test_arff_double_quoted_value_keeps_its_comma(tmp_path):
    arff = tmp_path / "double.arff"
    arff.write_text(
        "@relation r\n@attribute x numeric\n@attribute y numeric\n"
        "@attribute class {\"q,r\",b,'s,t'}\n@data\n1,2,\"q,r\"\n3,4, b\n5,6,'s,t'\n7,8,\"q,r\"\n"
    )
    ds = load_dataset(arff, "arff")
    np.testing.assert_array_equal(ds.points, [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0], [7.0, 8.0]])
    np.testing.assert_array_equal(ds.reference_labels, [0, 1, 2, 0])


@pytest.mark.parametrize("row", ["1,'q", '1,"q', "1,q'r", "'1'2,q"])
def test_arff_unclosed_quote_names_its_line(tmp_path, row):
    arff = tmp_path / "open.arff"
    arff.write_text(f"@relation r\n@attribute x numeric\n@attribute c {{q,b}}\n@data\n2,b\n{row}\n")
    with pytest.raises(ParseError, match="line 6: unclosed or stray quote"):
        load_dataset(arff, "arff")


@pytest.mark.parametrize("declared, row, message", [
    ("{a,b}", "2,zzz", "line 6: nominal value 'zzz' is not declared"),
    ("{a,b}", "3,{b}", "line 6: nominal value '{b}' is not declared"),
    ("{a,b", "2,a", "line 3: unclosed nominal declaration"),
])
def test_arff_nominal_values_match_their_declaration(tmp_path, declared, row, message):
    arff = tmp_path / "nominal.arff"
    arff.write_text(f"@relation r\n@attribute x numeric\n@attribute c {declared}\n@data\n1,a\n{row}\n")
    with pytest.raises(ParseError, match=re.escape(message)):
        load_dataset(arff, "arff")


def test_missing_label_is_parse_error(tmp_path):
    csv = tmp_path / "q.csv"
    csv.write_text("0,0,a\n1,1,?\n")
    with pytest.raises(ParseError, match="line 2: missing value"):
        load_dataset(csv, "csv", label_column=2)
    arff = tmp_path / "q.arff"
    arff.write_text("@relation r\n@attribute x numeric\n@attribute c {a,b}\n@data\n0,a\n1,?\n")
    with pytest.raises(ParseError, match="line 6: missing value"):
        load_dataset(arff, "arff")


def test_arff_errors_name_their_line(tmp_path):
    arff = tmp_path / "r.arff"
    arff.write_text("@relation r\n@attribute x numeric\n@attribute c {a,b}\n@data\n0,a\n1\n")
    with pytest.raises(ParseError, match="line 6: expected 2 columns, found 1"):
        load_dataset(arff, "arff")
    with pytest.raises(ParseError, match="line 5: label column 4 out of range for 2 columns"):
        load_dataset(arff, "arff", label_column=4)


@pytest.mark.parametrize("fmt", ["csv", "whitespace", "arff"])
def test_byte_order_mark_is_not_data(tmp_path, fmt):
    # editors on Windows start UTF-8 files with U+FEFF; it was read as part of
    # the first value ('\ufeff1' is not numeric)
    text = {"csv": "1,2,0\n3,4,1\n", "whitespace": "1 2 0\n3 4 1\n", "arff": ARFF}[fmt]
    plain, marked = tmp_path / "plain", tmp_path / "marked"
    plain.mkdir()
    marked.mkdir()
    (plain / "a.dat").write_text(text, encoding="utf-8")
    (marked / "a.dat").write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    label = None if fmt == "arff" else -1
    a = load_dataset(plain / "a.dat", fmt, label_column=label)
    b = load_dataset(marked / "a.dat", fmt, label_column=label)
    assert a.id == b.id
    assert np.array_equal(a.points, b.points)
    assert np.array_equal(a.reference_labels, b.reference_labels)


@pytest.mark.parametrize(
    "header, error, message",
    [
        ("@relation r\n@attribute x\n@data\n1\n", ParseError,
         "line 2: malformed @attribute declaration"),
        ("@relation r\n@attribute c {a,b}\n@attribute d {x,y}\n@data\na,x\n", ParseError,
         "line 3: more than one nominal attribute"),
        ("@relation r\n@attribute x numeric\n@attribute s string\n@data\n1,a\n", ParseError,
         "line 3: unsupported attribute type 'string'"),
        ("% comment\n@relation r\n@data\n1\n", ParseError,
         "line 3: @data before any @attribute"),
        ("@relation r\n@attribute x numeric\n@data\n% no rows\n", EmptyDataError,
         "line 3: ARFF file has no data rows after @data"),
        ("@relation r\n@attribute x numeric\nx y\n@data\n1\n", ParseError,
         "line 3: unexpected content in ARFF header: 'x y'"),
        ("@relation r\n@attribute x numeric\n\n", ParseError,
         "line 2: missing @data section"),
    ],
)
def test_arff_header_errors_name_their_line(tmp_path, capsys, header, error, message):
    path = tmp_path / "h.arff"
    path.write_text(header)
    with pytest.raises(error, match=re.escape(message)):
        load_dataset(path, "arff")
    capsys.readouterr()
    assert cli.main(["evaluate", str(path), "--seed", "1", "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith(f"data error: {message}")
