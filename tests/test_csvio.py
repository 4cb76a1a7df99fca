import hashlib
import math

import numpy as np
import pytest

import sparsedyn.csvio as csvio
from sparsedyn.csvio import number, read_table, require_complete, table_blocks, write_text
from sparsedyn.errors import DataError

from reference import EDGE_COMMENTS, EDGE_ROWS, B, edge_values


def test_table_blocks_golden_bytes():
    rows = np.array([[1, 0.1], [2**52, -1e-300]])
    text = "".join(table_blocks(["k", "v"], [rows], comments=["a", "b: 1"]))
    assert text == (
        "# a\n"
        "# b: 1\n"
        "k,v\n"
        "1,0.10000000000000001\n"
        "4503599627370496,-1e-300\n"
    )
    assert number(math.pi) == "3.1415926535897931"


def test_read_table_round_trips_what_it_writes():
    values = np.array([[0.0, 1 / 3, -2.5e-17], [0.5, math.e, 1e300]])
    table = read_table("".join(table_blocks(["t", "a", "b"], [values], comments=["c"])))
    assert table.header == ["t", "a", "b"]
    assert table.header_line == 2
    assert table.lines == [3, 4]
    assert table.keys == ["0", "0.5"]
    assert np.array_equal(table.values, values)


def test_read_table_marks_cells_that_are_not_finite_numbers():
    table = read_table("\n# c\n date , A ,B\n\n2024-01-02, 1 ,\n# c\n3,nan,-inf\n4,x,5\n")
    assert table.header == ["date", "A", "B"]
    assert table.lines == [5, 7, 8]
    assert table.keys == ["2024-01-02", "3", "4"]
    expected = [[np.nan, 1.0, np.nan], [3.0, np.nan, np.nan], [4.0, np.nan, 5.0]]
    assert np.array_equal(table.values, expected, equal_nan=True)
    with pytest.raises(DataError, match="^line 5: missing value in column 'B'$"):
        require_complete(table)


def test_table_blocks_at_block_edges_join_to_the_pinned_bytes():
    assert csvio._BLOCK_ROWS == B
    digest = hashlib.sha256()
    for rows in EDGE_ROWS:
        for comments in EDGE_COMMENTS:
            values = edge_values(rows, 3)
            blocks = list(table_blocks(["k", "a", "b"], [values[:, 0], values[:, 1:]], comments))
            assert len(blocks) == 1 + -(-rows // B)
            assert all(block.count("\n") == B for block in blocks[1:-1])
            text = "".join(table_blocks(["k", "a", "b"], [values], comments))
            assert "".join(blocks) == text
            digest.update(text.encode())
    # Pinned: no block size or change to the formatter may move these bytes.
    assert digest.hexdigest() == "99b6f6927e30b86bab41c3382be1f7e5140a910c0040fefa095ae87fd071fadb"


@pytest.mark.parametrize("columns", [
    [np.zeros((3, 4))], [np.zeros(3), np.zeros((3, 4))], [np.zeros(3), np.zeros((2, 5))],
    [np.zeros((3, 2, 3))], [np.float64(1.0)], []])
def test_table_blocks_rejects_columns_that_do_not_fill_the_header(columns):
    with pytest.raises(ValueError):
        table_blocks(["a", "b", "c", "d", "e", "f"], columns)


@pytest.mark.parametrize("comment", ["a\n", "\n", "a\nb", "a\r\nb", "a\rb", "a\vb", "a\fb",
                                     "a\x1cb", "a\x1db", "a\x1eb", "a\x85b", "a\u2028b",
                                     "a\u2029b"])
def test_table_blocks_rejects_a_comment_that_splitlines_would_split(comment):
    # Such a comment is two lines, or a comment line and a blank one, on reading.
    with pytest.raises(ValueError, match="holds a line break"):
        table_blocks(["k", "v"], [np.zeros((1, 2))], comments=["ok", comment])


def test_a_comment_without_a_line_break_reads_as_one_comment_line():
    comments = ["", " ", "a\tb", "#", "k,v", "é\u2027"]
    table = read_table("".join(table_blocks(["k", "v"], [np.ones((1, 2))], comments)))
    assert table.header_line == len(comments) + 1
    assert table.values.tolist() == [[1.0, 1.0]]


def test_write_table_rejects_rows_of_another_width():
    # Writing a table is the join of its blocks.
    with pytest.raises(ValueError):
        "".join(table_blocks(["a", "b", "c", "d", "e", "f"], [np.zeros((3, 4))]))


def test_a_table_of_another_width_leaves_no_file(tmp_path):
    # The check runs when the blocks are asked for, before the file is opened.
    out = tmp_path / "sub" / "table.csv"
    with pytest.raises(ValueError):
        write_text(out, table_blocks(["a", "b"], [np.zeros((3, 4))]))
    assert not out.exists() and not out.parent.exists()


@pytest.mark.parametrize("content", ["é,1\n", ["# note\n", "a,b\n", "", "1,2\n"]],
                         ids=["text", "blocks"])
def test_write_text_returns_the_digest_of_the_bytes_on_disk(tmp_path, content):
    out = tmp_path / "sub" / "out.csv"
    digest = write_text(out, content)
    text = content if isinstance(content, str) else "".join(content)
    assert out.read_bytes() == text.encode("utf-8")
    assert digest == hashlib.sha256(out.read_bytes()).digest()


def test_read_table_names_the_line_with_the_wrong_field_count():
    with pytest.raises(DataError, match="^line 4: expected 2 fields, got 3$"):
        read_table("a,b\n1,2\n\n3,4,5\n")


def test_read_table_without_rows():
    for text in ("", "# only a comment\n", "a,b\n"):
        table = read_table(text)
        assert table.values.shape == (0, len(table.header))
        assert table.lines == []
