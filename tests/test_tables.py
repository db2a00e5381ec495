import ast
from pathlib import Path

import numpy as np
import pytest

import photonmix
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

    def test_empty_file_gives_no_rows(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("\n\n")
        _, rows = read_table(path, None, int)
        assert rows.size == 0


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
