import ast
import bz2
import gzip
import lzma
import math
import os
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import photonmix
from photonmix import tables
from photonmix.errors import DataFormatError
from photonmix.tables import read_table, write_table


class TestWriteTable:
    def test_floats_print_as_repr(self, tmp_path):
        path = tmp_path / "t.csv"
        write_table(path, ("x", "y"), [np.array([0.1, 1e-05]), np.array([2, 3])])
        # the int column joins a float table, so 2 prints as 2.0
        assert path.read_bytes() == b"x,y\n0.1,2.0\n1e-05,3.0\n"

    def test_int_table_prints_integers(self, tmp_path):
        path = tmp_path / "t.csv"
        write_table(path, ("tau_ps", "counts"), [np.array([-25, 0]), np.array([12, 7])])
        assert path.read_bytes() == b"tau_ps,counts\n-25,12\n0,7\n"

    def test_no_header_for_tags(self, tmp_path):
        path = tmp_path / "t.csv"
        write_table(path, None, [np.array([1, 2]), np.array([1000, 1500])])
        assert path.read_bytes() == b"1,1000\n2,1500\n"

    def test_long_table_written_in_blocks(self, tmp_path):
        path = tmp_path / "t.csv"
        n = 200_001
        write_table(path, None, [np.ones(n, dtype=np.int64), np.arange(n)])
        lines = path.read_text().splitlines()
        assert len(lines) == n
        assert lines[0] == "1,0" and lines[-1] == f"1,{n - 1}"

    def test_round_trip_is_exact(self, tmp_path):
        path = tmp_path / "t.csv"
        values = np.random.default_rng(1).normal(size=(3, 50))
        write_table(path, ("a", "b", "c"), values)
        header, rows = read_table(path, [("a", "b", "c")])
        assert header == ("a", "b", "c")
        assert np.array_equal(rows, values.T)


class TestReadTable:
    def test_bad_header_reports_line_one(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("x,z\n1,2\n")
        with pytest.raises(DataFormatError, match="expected header 'x,y' or 'u,v'") as err:
            read_table(path, [("x", "y"), ("u", "v")])
        assert err.value.line == 1

    def test_returns_the_matching_header(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("u, v\n1,2\n")
        header, rows = read_table(path, [("x", "y"), ("u", "v")])
        assert header == ("u", "v")
        assert rows.tolist() == [[1.0, 2.0]]

    def test_short_row_reports_its_line(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("x,y\n1,2\n\n3\n")
        with pytest.raises(DataFormatError, match="expected 2 columns, got 1") as err:
            read_table(path, [("x", "y")])
        assert err.value.line == 4

    def test_non_numeric_field_reports_its_line(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("value\n1.5\n# comment\n")
        with pytest.raises(DataFormatError) as err:
            read_table(path, [("value",)])
        assert err.value.line == 3

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("x,y\n\n1,2\n   \n3,4\n\n")
        _, rows = read_table(path, [("x", "y")])
        assert rows.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_header_only_gives_empty_rows(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("x,y\n")
        _, rows = read_table(path, [("x", "y")])
        assert rows.shape == (0, 2)

    def test_non_utf8_is_data_error(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(b"value\n\xff\xfe\n")
        with pytest.raises(DataFormatError, match="not UTF-8"):
            read_table(path, [("value",)])

    @pytest.mark.parametrize("field", ["nan", "inf", "-inf"])
    def test_non_finite_field_reports_its_line(self, tmp_path, field):
        path = tmp_path / "t.csv"
        path.write_text(f"x,y\n1,2\n\n3,{field}\n")
        with pytest.raises(DataFormatError, match="non-finite value") as err:
            read_table(path, [("x", "y")])
        assert err.value.line == 4

    def test_one_column_table_skips_blank_lines(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("value\n\n0.5\n  \n0.25\n\n")
        _, rows = read_table(path, [("value",)])
        assert rows.tolist() == [[0.5], [0.25]]


class TestHeaderlessIntTable:
    def test_integers_stay_exact(self, tmp_path):
        path = tmp_path / "t.csv"
        big = 2**62 + 1  # not representable as a float
        path.write_text(f"1,{big}\n\n2,-{big}\n")
        header, rows = read_table(path, None, int)
        assert header is None
        assert rows.dtype == np.int64
        assert rows.tolist() == [[1, big], [2, -big]]

    def test_first_row_sets_the_width(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("\n1,2,3\n4,5\n")
        with pytest.raises(DataFormatError, match="expected 3 columns, got 2") as err:
            read_table(path, None, int)
        assert err.value.line == 3

    def test_float_field_is_not_an_integer(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("1,10\n\n2,1.5\n")
        with pytest.raises(DataFormatError, match="expected int fields") as err:
            read_table(path, None, int)
        assert err.value.line == 3

    @pytest.mark.parametrize("field", ["nan", "inf", "-inf"])
    def test_non_finite_field_is_not_an_integer(self, tmp_path, field):
        path = tmp_path / "t.csv"
        path.write_text(f"1,10\n\n2,{field}\n")
        with pytest.raises(DataFormatError) as err:
            read_table(path, None, int)
        assert str(err.value) == f"line 3: expected int fields in row '2,{field}'"

    def test_empty_file_gives_no_rows(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("\n\n")
        _, rows = read_table(path, None, int)
        assert rows.size == 0


# Table bodies (the lines after the header, if any) at the edges of what
# np.loadtxt and the line loop accept; both readers must agree on each one.
CORPUS = {
    "signs and spaces": " +1 ,\t-2\n-3, 4 \n",
    "int64 max": "1,9223372036854775807\n",
    "int64 max + 1": "1,9223372036854775808\n",
    "int64 min - 1": "1,-9223372036854775809\n",
    "empty lines": "\n1,2\n\n3,4\n\n",
    "whitespace-only line": "1,2\n \t\n3,4\n",
    "crlf": "1,2\r\n3,4\r\n",
    "cr only": "1,2\r3,4\r",
    "mixed crlf and lf": "1,2\r\n3,4\n5,6\r\n",
    "vertical tab in a row": "1,2\x0b3,4\n",
    "form feed in a row": "1,2\x0c3,4\n",
    "file separator in a row": "1,2\x1c3,4\n",
    "next line in a row": "1,2\x853,4\n",
    "line separator in a row": "1,2\u20283,4\n",
    "form feed line": "1,2\n\x0c\n3,4\n",
    "blank line after the header": "\n1,2",
    "no final newline": "1,2\n3,4",
    "trailing comma": "1,2,\n",
    "hash line": "# tags\n1,2\n",
    "decimal point": "1,2.5\n",
    "exponent": "1,1e3\n",
    "nan": "1,2\n3,nan\n",
    "inf": "1,2\n3,inf\n",
    "float overflow": "1,1e400\n",
    "underscore": "1,5_000\n",
    "arabic-indic digits": "1,\u0661\u0662\n",
    "byte order mark": "\ufeff1,2\n",
    "negative zero": "-0,0\n",
    "short row": "1,2\n3\n",
    "long row": "1,2\n3,4,5\n",
    "one column": "1\n2\n",
    "not utf-8": b"1,2\n3,\xff4\n",
    "empty": "",
    "blank lines only": "\n\n",
}


def outcome(reader, path, headers, kind):
    """What a reader makes of a file: its rows, bit for bit, or its error and line."""
    try:
        header, rows = reader(path, headers, kind)
    except DataFormatError as exc:
        return "error", str(exc), exc.line
    return "rows", header, rows.dtype, rows.shape, rows.tobytes()


def write_body(path, headers, body):
    data = body if isinstance(body, bytes) else body.encode("utf-8")
    path.write_bytes(b"x,y\n" + data if headers else data)


def fast_path_only():
    """Fail the enclosed ``read_table`` calls if they fall back to the line loop."""
    return mock.patch.object(tables, "_read_table_loop", side_effect=AssertionError("fell back to the loop"))


def assert_paths_agree(path, headers, kind):
    assert outcome(read_table, path, headers, kind) == outcome(tables._read_table_loop, path, headers, kind)


@pytest.mark.parametrize("kind", [int, float])
@pytest.mark.parametrize("headers", [None, [("x", "y")]], ids=["headerless", "headed"])
@pytest.mark.parametrize("body", CORPUS.values(), ids=CORPUS.keys())
def test_fast_path_agrees_with_the_loop(tmp_path, body, headers, kind):
    path = tmp_path / "t.csv"
    write_body(path, headers, body)
    assert_paths_agree(path, headers, kind)


# np.loadtxt would decompress these suffixes; a table is plain UTF-8 text
COMPRESSORS = {
    ".gz": gzip.compress,
    ".bz2": bz2.compress,
    ".xz": lzma.compress,
    ".lzma": lambda data: lzma.compress(data, format=lzma.FORMAT_ALONE),
}


@pytest.mark.parametrize("suffix", COMPRESSORS)
def test_compressed_table_is_not_text(tmp_path, suffix):
    path = tmp_path / f"tags.csv{suffix}"
    path.write_bytes(COMPRESSORS[suffix](b"1,10\n2,20\n"))
    with pytest.raises(DataFormatError, match="is not UTF-8 text"):
        read_table(path, None, int)
    assert_paths_agree(path, None, int)


def test_url_shaped_path_reads_the_local_file(tmp_path, monkeypatch):
    # numpy opens a string that parses as a URL with urlopen
    (tmp_path / "http:" / "host").mkdir(parents=True)
    (tmp_path / "http:" / "host" / "t.csv").write_text("1,10\n2,20\n")
    monkeypatch.chdir(tmp_path)
    with fast_path_only(), mock.patch("urllib.request.urlopen", side_effect=AssertionError("opened a URL")):
        _, rows = read_table("http://host/t.csv", None, int)
    assert rows.tolist() == [[1, 10], [2, 20]]
    assert [p.name for p in tmp_path.iterdir()] == ["http:"]


def test_dotdot_after_a_symlink_reads_the_file_open_reads(tmp_path, monkeypatch):
    # os.path.abspath would drop "link/.." before the symlink is followed
    (tmp_path / "real" / "sub").mkdir(parents=True)
    (tmp_path / "real" / "t.csv").write_text("1,10\n")
    (tmp_path / "t.csv").write_text("2,20\n")
    (tmp_path / "link").symlink_to(tmp_path / "real" / "sub")
    monkeypatch.chdir(tmp_path)
    with fast_path_only():
        _, rows = read_table("link/../t.csv", None, int)
    assert rows.tolist() == [[1, 10]]


def read_pipe(text, headers):
    """``read_table`` on a pipe holding ``text``, named through /dev/fd."""
    r, w = os.pipe()
    try:
        os.write(w, text.encode())
        os.close(w)
        return read_table(f"/dev/fd/{r}", headers, int)
    finally:
        os.close(r)


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd to name a pipe")
def test_pipe_is_read_from_its_start():
    # the header check and loadtxt each open the file; a second open of a pipe
    # would start where the first one's buffered read stopped
    _, rows = read_pipe("x,y\n" + "".join(f"{i},{i}\n" for i in range(3000)), [("x", "y")])
    assert rows.tolist() == [[i, i] for i in range(3000)]


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd to name a pipe")
def test_bad_row_in_a_pipe_is_reported_without_its_line():
    # the line number comes from a rescan, and a pipe cannot be read twice
    with pytest.raises(DataFormatError, match="^expected int fields in row '2,x'$") as err:
        read_pipe("2,10\n2,x\n", None)
    assert err.value.line is None


def test_tag_table_reaches_loadtxt_as_a_path(tmp_path):
    # given a file object, loadtxt takes one Python string per line at about twice the time
    path = tmp_path / "tags.csv"
    path.write_text("1,10\n2,20\n")
    with fast_path_only(), mock.patch.object(np, "loadtxt", wraps=np.loadtxt) as spy:
        read_table(path, None, int)
    source = spy.call_args.args[0]
    assert isinstance(source, str) and os.path.samefile(source, path)


INT64 = st.integers(-(2**63), 2**63 - 1)


@given(pairs=st.lists(st.tuples(INT64, INT64), min_size=1))
@settings(max_examples=100, deadline=None)
def test_fast_path_reads_int64_exactly(tmp_path_factory, pairs):
    path = tmp_path_factory.getbasetemp() / "ints.csv"
    path.write_text("".join(f"{a},{b}\n" for a, b in pairs))
    with fast_path_only():
        _, rows = read_table(path, None, int)
    assert rows.tolist() == [list(pair) for pair in pairs]


# reprs round-trip; long decimal strings exercise rounding to the nearest double
FINITE_FLOAT_TEXT = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.from_regex(r"[+-]?[0-9]{1,25}(\.[0-9]{0,25})?([eE][+-]?[0-9]{1,3})?", fullmatch=True),
).filter(lambda text: math.isfinite(float(text)))


@given(fields=st.lists(FINITE_FLOAT_TEXT, min_size=1))
@settings(max_examples=100, deadline=None)
def test_fast_path_rounds_like_float(tmp_path_factory, fields):
    path = tmp_path_factory.getbasetemp() / "floats.csv"
    path.write_text("value\n" + "".join(f"{f}\n" for f in fields))
    with fast_path_only():
        _, rows = read_table(path, [("value",)])
    assert rows.tobytes() == np.array([[float(f)] for f in fields]).tobytes()


# characters of numbers, separators and the words nan and inf, plus a non-ASCII digit
TABLE_TEXT = st.text(alphabet="0123456789+-.eE_ ,\t\r\n#naif\u0661", max_size=40)


@given(text=TABLE_TEXT, kind=st.sampled_from([int, float]))
@settings(max_examples=300, deadline=None)
def test_fast_path_agrees_on_any_text(tmp_path_factory, text, kind):
    path = tmp_path_factory.getbasetemp() / "fuzz.csv"
    for headers in (None, [("x", "y")]):
        write_body(path, headers, text)
        assert_paths_agree(path, headers, kind)


def test_tag_table_parses_in_bounded_memory(tmp_path):
    # the line loop holds a Python int per field, about 4x the array it
    # returns; np.loadtxt fills the array in place
    path = tmp_path / "tags.csv"
    n = 200_000
    rng = np.random.default_rng(5)
    write_table(path, None, [rng.integers(1, 5, n), np.cumsum(rng.integers(0, 10**6, n))])
    tracemalloc.start()
    try:
        _, rows = read_table(path, None, int)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rows.shape == (n, 2)
    assert peak <= 2 * rows.nbytes


FILE_FUNCTIONS = {"open", "loadtxt", "savetxt", "genfromtxt", "read_text", "write_text", "read_bytes", "write_bytes"}


def test_only_tables_and_cli_open_files():
    """The file format is decided in one module: no other package module opens files.

    ``cli`` is the exception for its JSON config and JSON outputs.
    """
    package = Path(photonmix.__file__).parent
    offenders = []
    for module in sorted(package.glob("*.py")):
        if module.stem in ("tables", "cli"):
            continue
        for node in ast.walk(ast.parse(module.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in FILE_FUNCTIONS:
                    offenders.append(f"{module.name}:{node.lineno} {name}")
    assert offenders == []
