import contextlib
import csv
import errno
import io
import os
import sys
import threading
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from docnids import cli, data, pipeline, workers
from docnids.errors import DataError


needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")


def write_csv(path, text):
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadCsv:
    def test_drops_identifier_columns(self, tmp_path):
        p = write_csv(
            tmp_path / "d.csv",
            "src_ip,bytes,Label\n1.2.3.4,10,0\n5.6.7.8,20,1\n9.9.9.9,30,0\n",
        )
        ds = data.load_csv(p, drop_columns=["src_ip"])
        assert ds.columns == ["bytes"]
        assert ds.rows.shape == (3, 1)

    def test_label_string_mapping(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", "x,Label\n1,Benign\n2,Exploits\n")
        ds = data.load_csv(p, drop_columns=[])
        assert list(ds.labels) == [0, 1]

    def test_bad_numeric_names_row_index(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", "x,Label\n1,0\nabc,0\n3,1\n")
        with pytest.raises(DataError, match="indices 1"):
            data.load_csv(p, drop_columns=[])

    def test_missing_label_column(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", "x,y\n1,2\n")
        with pytest.raises(DataError, match="label column"):
            data.load_csv(p, drop_columns=[])

    def test_empty_file(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", "")
        with pytest.raises(DataError, match="empty"):
            data.load_csv(p, drop_columns=[])

    def test_category_column_retained(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", "x,Label,Attack\n1,1,DoS\n2,0,Benign\n")
        ds = data.load_csv(p, drop_columns=[])
        assert ds.categories == ["DoS", "Benign"]
        assert ds.columns == ["x"]

    def test_roundtrip_preserves_values(self, tmp_path, rng):
        ds = data.synth_generate(20, 5, 3, 0.4, seed=9)
        out = tmp_path / "rt.csv"
        data.save_csv(ds, out)
        back = data.load_csv(out, drop_columns=[])
        assert np.array_equal(back.rows, ds.rows)
        assert np.array_equal(back.labels, ds.labels)
        assert back.columns == ds.columns


def per_row_load(path, label_column="Label", drop_columns=(), category_column="Attack"):
    """Oracle: the row-by-row csv.reader + float() parse that load_csv's
    whole-table path must reproduce exactly. A row is bad unless it has
    as many cells as the header; a header cell with no name, or a header
    that leaves no feature column, is an error."""
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        header = next(reader)
        label_idx = header.index(label_column)
        cat_idx = header.index(category_column) if category_column in header else None
        skip = {label_column, category_column, *drop_columns}
        feature_idx = [i for i, name in enumerate(header) if name not in skip]
        for i, name in enumerate(header):
            if not name:
                raise DataError(f"header cell {i} (counting from 0) has no name")
        if not feature_idx:
            raise DataError(
                "no feature column left: the header holds only label, category and dropped columns"
            )
        rows, labels, categories, bad_rows = [], [], [], []
        for rownum, rec in enumerate(reader):
            try:
                if len(rec) != len(header):
                    raise ValueError
                values = [float(rec[i]) for i in feature_idx]
                if not all(np.isfinite(values)):
                    raise ValueError
                label = data._parse_label(rec[label_idx])
            except ValueError:
                bad_rows.append(rownum)
                continue
            rows.append(values)
            labels.append(label)
            categories.append(rec[cat_idx] if cat_idx is not None else "")
    if bad_rows:
        shown = ", ".join(map(str, bad_rows[:20]))
        raise DataError(f"{path}: unparseable rows at indices {shown}")
    if not rows:
        raise DataError(f"{path}: no data rows")
    return (
        [header[i] for i in feature_idx],
        np.array(rows, dtype=np.float64),
        np.array(labels, dtype=np.int64),
        categories if cat_idx is not None else None,
    )


def per_row_save(ds, path):
    """Oracle: the csv.writer + repr writer that save_csv must match byte for byte."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f, lineterminator="\n")
        header = list(ds.columns) + ["Label"]
        if ds.categories is not None:
            header.append("Attack")
        writer.writerow(header)
        for i in range(len(ds.rows)):
            rec = [repr(float(v)) for v in ds.rows[i]] + [str(int(ds.labels[i]))]
            if ds.categories is not None:
                rec.append(ds.categories[i])
            writer.writerow(rec)


LOAD_CASES = {
    "clean": "a,b,Label,Attack\n1,2.5,0,Benign\n-3e2,4,1,DoS\n",
    "blank_line": "a,b,Label\n1,2,0\n\n3,4,1\n",
    "blank_last_line": "a,b,Label\n1,2,0\n\n",
    "hash_line": "a,b,Label\n1,2,0\n# note\n3,4,1\n",
    "hash_cell": "a,b,Label\n#1,2,0\n",
    "nan": "a,b,Label\n1,nan,0\n3,4,1\n",
    "inf": "a,b,Label\ninf,2,0\n3,-inf,1\n",
    "underscore": "a,b,Label\n1_0,2,0\n3,4,1\n",
    "spaces": "a,b,Label\n 1,2 ,0\n3,\t4\t, 1 \n",
    "quoted_number": 'a,b,Label\n"1.5",2,0\n3,"4",1\n',
    "quoted_category_comma": 'a,Label,Attack\n1,1,"DoS, slow"\n2,0," Benign "\n',
    "quoted_category_quote": 'a,Label,Attack\n1,1,"say ""hi"""\n2,0,Benign\n',
    "quoted_line_break": 'a,Label,Attack\n1,1,"two\nlines"\n2,0,Benign\n',
    "short_row": "a,b,Label\n1,2,0\n3,4\n",
    "extra_columns": "a,b,Label\n1,2,0,x,y\n3,4,1\n",
    "crlf": "a,b,Label,Attack\r\n1,2,0,Benign\r\n3,4,1,DoS\r\n",
    "cr_only": "a,b,Label\r1,2,0\r3,4,1\r",
    "no_trailing_newline": "a,b,Label\n1,2,0\n3,4,1",
    "header_only": "a,b,Label\n",
    "header_without_newline": "a,b,Label",
    "text_labels": "a,Label\n1,Benign\n2, benign\n3,Exploits\n4,1\n",
    "dropped_column": "IPV4_SRC_ADDR,a,Label\n10.0.0.1,1,0\n10.0.0.2,2,1\n",
    "no_feature_columns": "IPV4_SRC_ADDR,Label\n10.0.0.1,0\n10.0.0.2,1\n",
    "unnamed_last_column": "a,b,Label,\n1,2,0,\n3,4,1,\n",
    "unnamed_index_column": ",a,b,Label\n0,1,2,0\n1,3,4,1\n",
    "unnamed_columns": "a,,,Label\n1,2,3,0\n",
    "label_and_category_only": "Label,Attack\n0,Benign\n1,DoS\n",
    "many_bad_rows": "a,Label\n" + "x,0\n" * 25 + "1,0\n",
    "header_line_break": 'a,"b\nc",Label\n1,2,0\n3,4,1\n',
    "ascii_separator": "a,b,Label\n\x1c1,2,0\n3,4,1\n",
    "label_not_last": "a,Label,b\n1,0,2\n3,Exploits,4\n",
    "label_first": "Label,a,Attack\n1,1,DoS\n0,2,Benign\n",
    "category_before_label": "a,Attack,b,Label\n1,DoS,2,1\n3,Benign,4,0\n",
}

# Rows missing only their category cell, with load_csv's error.
SHORT_ROW_CASES = {
    "missing_category": (
        "f0,f1,Label,Attack\n0.1,0.2,0,Benign\n0.4,0.3,0\n",
        "unparseable rows at indices 1",
    ),
    "missing_category_first_and_last": (
        "f0,Label,Attack\n1,0\n2,1,DoS\n3,0,Benign\n4,1\n",
        "unparseable rows at indices 0, 3",
    ),
}


class TestLoadCsvMatchesPerRowOracle:
    @pytest.mark.parametrize("case", sorted(LOAD_CASES))
    def test_same_result_or_same_error(self, tmp_path, case):
        p = tmp_path / "d.csv"
        p.write_bytes(LOAD_CASES[case].encode("utf-8"))
        try:
            expected = per_row_load(p, drop_columns=data.DEFAULT_DROP_COLUMNS)
        except DataError as e:
            with pytest.raises(DataError) as got:
                data.load_csv(p)
            assert str(got.value) == str(e)
            return
        ds = data.load_csv(p)
        columns, rows, labels, categories = expected
        assert ds.columns == columns
        assert ds.rows.dtype == np.float64 and ds.rows.shape == rows.shape
        assert np.array_equal(ds.rows, rows)
        assert ds.labels.dtype == np.int64 and np.array_equal(ds.labels, labels)
        assert ds.categories == categories

    @pytest.mark.parametrize("case", sorted(SHORT_ROW_CASES))
    def test_missing_category_cell_is_a_bad_row(self, tmp_path, case):
        text, message = SHORT_ROW_CASES[case]
        p = write_csv(tmp_path / "d.csv", text)
        with pytest.raises(DataError) as got:
            data.load_csv(p)
        assert str(got.value) == f"{p}: {message}"

    def test_many_bad_rows_list_is_truncated(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text(LOAD_CASES["many_bad_rows"], encoding="utf-8")
        with pytest.raises(DataError, match=r"indices 0, 1, .*, 19$"):
            data.load_csv(p)

    def test_clean_table_skips_the_per_row_loop(self, tmp_path, monkeypatch):
        p = tmp_path / "d.csv"
        ds = data.synth_generate(300, 30, 4, 0.5, seed=2)
        data.save_csv(ds, p)

        def fail(*args):
            raise AssertionError("csv path ran on a clean table")

        monkeypatch.setattr(data, "_csv_chunks", fail)
        back = data.load_csv(p)
        assert np.array_equal(back.rows, ds.rows)
        assert back.categories == ds.categories


class TestLoadCsvHoldsOneCopy:
    """``load_csv`` writes each chunk into one growing buffer and keeps one
    ``str`` per distinct category."""

    def test_a_table_that_turns_to_csv_partway(self, tmp_path, monkeypatch):
        # chunk 0 is raw lines; the quote in chunk 1 sends it and chunk 2 to csv
        monkeypatch.setattr(data, "CHUNK_ROWS", 4)
        rows = [f"{i},{i}.5,{i % 2},{'DoS' if i % 2 else 'Benign'}" for i in range(11)]
        rows[5] = '5,5.5,1,"DoS, slow"'
        p = write_csv(tmp_path / "d.csv", "a,b,Label,Attack\n" + "".join(r + "\n" for r in rows))
        paths = []
        real = data._csv_chunks

        def csv_chunks(rest, lines, start, feature_idx):
            paths.append(start)
            yield from real(rest, lines, start, feature_idx)

        monkeypatch.setattr(data, "_csv_chunks", csv_chunks)
        ds = data.load_csv(p)
        assert paths == [4]
        columns, expected, labels, categories = per_row_load(p)
        assert ds.columns == columns
        assert ds.rows.tobytes() == expected.tobytes()
        assert ds.labels.tolist() == labels.tolist()
        assert ds.categories == categories

    def test_categories_share_one_object_per_value(self, tmp_path):
        p = tmp_path / "d.csv"
        data.save_csv(data.synth_generate(300, 30, 4, 0.5, seed=2), p)
        back = data.load_csv(p)
        assert len(back.categories) == 330
        assert len({id(c) for c in back.categories}) == len(set(back.categories)) == 2

    def test_allocates_about_its_result(self, tmp_path):
        p = tmp_path / "d.csv"
        data.save_csv(data.synth_generate(95_000, 5_000, 16, 0.6, seed=3), p)
        with open(p, encoding="utf-8") as f:
            chunk = sum(len(line) for _, line in zip(range(1 + data.CHUNK_ROWS), f))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            ds = data.load_csv(p)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        # keeping every chunk's array, then a vstack copy, next to lists of
        # 100,000 label and category strings, peaked at 2.5 times the result
        result = ds.rows.nbytes + ds.labels.nbytes + sys.getsizeof(ds.categories)
        assert ds.rows.shape == (100_000, 16)
        # the buffers' last growth step (1/32) and the text of a few chunks
        assert peak < result + result // 32 + 10 * chunk


def raw_lines(lines, width=3):
    """``lines`` as ``read_chunks`` takes them: the text after a header
    of ``width`` cells."""
    return data.CsvRest(iter([line + "\n" for line in lines]), width, line_num=1)


class TestReadChunks:
    def test_chunks_split_good_and_bad_records(self):
        lines = [f"{i},{i}.5,0" for i in range(130)]
        lines[0] = "x,0.5,0"
        lines[63] = "nan,1,0"
        lines[64] = "64,1"  # short of width 3
        lines[129] = ",1,0"
        with mock.patch.object(data, "CHUNK_ROWS", 64):
            chunks = list(data.read_chunks(raw_lines(lines), [0, 1]))
        assert [start for start, *_ in chunks] == [0, 64, 128]
        assert [len(records) for _, _, records, _, _ in chunks] == [64, 64, 2]
        assert [bad for *_, bad in chunks] == [[0, 63], [64], [129]]
        x = np.vstack([x for _, _, _, x, _ in chunks])
        good = [i for i in range(130) if i not in (0, 63, 64, 129)]
        assert x.dtype == np.float64
        assert np.array_equal(x, [[i, i + 0.5] for i in good])

    def test_raw_lines_until_the_first_chunk_csv_must_read(self):
        lines = [f"{i},{i}.5,0" for i in range(200)]
        lines[150] = '"150",150.5,0'
        lines[199] = "199,199.5"  # no final newline
        rest = raw_lines(lines)
        with mock.patch.object(data, "CHUNK_ROWS", 64):
            chunks = list(data.read_chunks(rest, [0, 1]))
        assert [start for start, *_ in chunks] == [0, 64, 128, 192]
        # the first two chunks come as raw lines, the rest through csv
        assert [records is None for _, _, records, _, _ in chunks] == [True, True, False, False]
        assert chunks[1][1] == [line + "\n" for line in lines[64:128]]
        assert chunks[2][2][150 - 128] == ["150", "150.5", "0"]
        assert [bad for *_, bad in chunks] == [[], [], [], [199]]
        assert rest.line_num == 1 + 128

    @pytest.mark.parametrize(
        "line",
        ['"1",2,0', "1,2,0\r", "\x001,2,0", "\x1c1,2,0", "1,2\x1f,0", "1_0,2,0", "1,nan,0", "1,2",
         "1,2,0,x"],
    )
    def test_a_line_raw_parsing_may_misread_goes_to_csv(self, line):
        (chunk,) = data.read_chunks(raw_lines(["1,2,0"] * 3 + [line]), [0, 1])
        assert chunk[1] is None and chunk[2] is not None

    def test_open_csv_names_the_file_on_unreadable_text(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_bytes(b"a,Label\n1,0\n\xff,1\n")
        with pytest.raises(DataError, match=r"d\.csv: not UTF-8 text"):
            with data.open_csv(p) as (header, rest):
                list(data.read_chunks(rest, [0]))
        p.write_text("a,Label\n1,0\n2," + "x" * 140_000 + "\n")
        with pytest.raises(DataError, match=r"d\.csv: line 3: field larger than field limit"):
            with data.open_csv(p) as (header, rest):
                list(data.read_chunks(rest, [0]))

    def test_csv_error_line_counts_the_raw_lines_before_it(self, tmp_path):
        p = tmp_path / "d.csv"
        rows = [f"{i},0\n" for i in range(100)]
        rows[70] = "70," + "x" * 140_000 + "\n"
        p.write_text('"a\nb",Label\n' + "".join(rows))
        with pytest.raises(DataError, match=r"d\.csv: line 73: field larger than field limit"):
            with data.open_csv(p) as (header, rest):
                list(data.read_chunks(rest, [0]))

    @pytest.mark.parametrize("chunk", [1, 3, 64, 256])
    def test_csv_error_line_is_exact_at_every_chunk_size(self, tmp_path, chunk):
        p = tmp_path / "d.csv"
        rows = [f"{i},0\n" for i in range(100)]
        rows[5] = '5,"x\ny"\n'
        rows[10:20] = [f"{i},0\r\n" for i in range(10, 20)]
        rows[70] = "70," + "x" * 140_000 + "\n"
        p.write_bytes(('"a\nb",Label\n' + "".join(rows)).encode("utf-8"))
        with mock.patch.object(data, "CHUNK_ROWS", chunk):
            with pytest.raises(DataError, match=r"d\.csv: line 74: field larger than field limit"):
                with data.open_csv(p) as (header, rest):
                    list(data.read_chunks(rest, [0]))


def per_row_score(path, model):
    """Oracle: score's stdout, exit code and stderr by csv.reader, float()
    and csv.writer row by row. It writes the rows before the first bad
    one, then names that one; a row is bad unless it has as many cells
    as the header."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        header = next(reader)
        feature_idx = data.feature_indices(header, "Label", "Attack", data.DEFAULT_DROP_COLUMNS)
        writer.writerow(header + ["score", "verdict"])
        for n, rec in enumerate(reader):
            try:
                if len(rec) != len(header):
                    raise ValueError
                x = np.array([[float(rec[i]) for i in feature_idx]])
            except ValueError:
                x = np.array([[np.nan]])
            if not np.isfinite(x).all():
                return out.getvalue(), 3, f"error: {path}: unparseable row at index {n}\n"
            score = float(pipeline.score_batch(model, x)[0])
            writer.writerow(rec + [score, pipeline.verdict_labels(model, score)])
    return out.getvalue(), 0, ""


HEADERS = [["a", "b", "Label", "Attack"], ["Label", "a", "b"]]
NUMBER = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr), st.integers(-999, 999).map(str)
)
TEXT = {"Label": st.sampled_from(["0", "1", "Benign", " benign", "DoS"]),
        "Attack": st.sampled_from(["Benign", "DoS", "Port scan"])}
# Cells that csv.reader, float and np.loadtxt might each read otherwise.
ODD_CELLS = {
    "feature": ["1_0", "nan", "inf", "-inf", "\x00", "1\x00", "\x1c1", "2\x1f", "\x1e",
                "\xa01", "\u0661", " 3 ", "", "abc", '"4"', '"5,6"', '"7\n8"', '9"0'],
    "Attack": ['"DoS, slow"', '"say ""hi"""', '"two\nlines"', "", "\x1d"],
}


@st.composite
def csv_files(draw):
    """A small CSV text: clean rows, one to three odd ones anywhere, LF
    line ends or a mix of LF, CRLF and CR, and maybe no final newline.
    An odd row has an odd cell, no cells, or fewer or more cells than
    the header."""
    header = draw(st.sampled_from(HEADERS))

    def row():
        return [draw(TEXT.get(name, NUMBER)) for name in header]

    rows = [row() for _ in range(draw(st.integers(0, 20)))]
    for _ in range(draw(st.integers(1, 3))):
        cells = row()
        kind = draw(st.sampled_from(["feature", "Attack", "blank", "short", "long"]))
        if kind == "blank":
            cells = []
        elif kind == "short":
            cells = cells[: draw(st.integers(1, len(header) - 1))]
        elif kind == "long":
            cells += [draw(NUMBER) for _ in range(draw(st.integers(1, 2)))]
        elif kind in header:
            cells[header.index(kind)] = draw(st.sampled_from(ODD_CELLS[kind]))
        else:
            cells[header.index(draw(st.sampled_from(["a", "b"])))] = draw(
                st.sampled_from(ODD_CELLS["feature"])
            )
        rows.insert(draw(st.integers(0, len(rows))), cells)
    ends = ["\n"] * (len(rows) + 1)
    if draw(st.booleans()):
        ends = [draw(st.sampled_from(["\n", "\n", "\r\n", "\r"])) for _ in ends]
    text = "".join(",".join(cells) + end for cells, end in zip([header, *rows], ends))
    return text[: -len(ends[-1])] if draw(st.booleans()) else text


@pytest.fixture(scope="module")
def ab_model(tmp_path_factory):
    d = tmp_path_factory.mktemp("ab")
    r = np.random.default_rng(0)
    rows = "".join(f"{a!r},{b!r},0,Benign\n" for a, b in r.random((200, 2)).tolist())
    (d / "train.csv").write_text("a,b,Label,Attack\n" + rows)
    argv = ["train", "--input", str(d / "train.csv"), "--out", str(d / "m.doc"),
            "--epochs", "2", "--layer-dims", "2,4,2"]
    assert cli.main(argv) == 0
    return d / "m.doc"


def assert_load_csv_and_score_match_the_oracles(model_path, p):
    try:
        expected = per_row_load(p, drop_columns=data.DEFAULT_DROP_COLUMNS)
    except (DataError, csv.Error) as e:
        # csv.Error: a NUL byte before Python 3.11
        with pytest.raises(DataError) as got:
            data.load_csv(p)
        assert str(got.value).endswith(str(e).split(": ")[-1])
    else:
        ds = data.load_csv(p)
        assert ds.columns == expected[0]
        assert np.array_equal(ds.rows, expected[1])
        assert np.array_equal(ds.labels, expected[2])
        assert ds.categories == expected[3]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["score", "--model", str(model_path), "--input", str(p)])
    try:
        expected_out, expected_code, expected_err = per_row_score(p, pipeline.load(model_path))
    except csv.Error:
        assert code == 3 and "line" in err.getvalue()
        return
    assert (out.getvalue(), code, err.getvalue()) == (expected_out, expected_code, expected_err)


def mixed_table(odd_rows: dict, end: str = "\n", n: int = 12) -> str:
    """``n`` clean rows ending in ``end``, with the lines in ``odd_rows``
    (row index to the line, its end included) in their place."""
    r = np.random.default_rng(1)
    rows = [f"{a!r},{b!r},0,Benign{end}" for a, b in r.random((n, 2)).tolist()]
    for i, line in odd_rows.items():
        rows[i] = line
    return f"a,b,Label,Attack{end}" + "".join(rows)


# Tables read in 3-line chunks, with each chunk's path in order: raw lines
# (True) up to the first chunk that holds an odd line, csv (False) from it.
MIXED_TABLES = {
    "quoted_number_in_the_first_chunk": (
        mixed_table({2: '"0.25",0.5,0,Benign\n', 7: '0.25,"0.5",0,Benign\n'}),
        [False, False, False, False],
    ),
    "quoted_number_in_a_later_chunk": (
        mixed_table({7: '0.25,"0.5",0,Benign\n'}),
        [True, True, False, False],
    ),
    # csv chunks count records, so the quoted line break adds no chunk
    "quoted_line_break": (
        mixed_table({7: '0.25,0.5,1,"two\nlines"\n'}),
        [True, True, False, False],
    ),
    "lf_rows_in_crlf": (
        mixed_table({2: "0.25,0.5,0,Benign\n", 7: "0.25,0.5,0,Benign\n"}, end="\r\n"),
        [False, False, False, False],
    ),
    "bad_last_row": (
        mixed_table({11: "abc,0.5,0,Benign\n"}),
        [True, True, True, False],
    ),
}


class TestRawLinesMatchCsvReader:
    @settings(max_examples=300, deadline=None)
    @given(text=csv_files(), chunk=st.integers(1, 5))
    def test_load_csv_and_score_match_the_per_row_oracles(self, ab_model, text, chunk):
        self.check(ab_model, text, chunk, cores=1)

    @needs_fork
    @settings(max_examples=300, deadline=None)
    @given(text=csv_files(), chunk=st.integers(1, 5))
    def test_load_csv_and_score_match_the_per_row_oracles_on_two_cores(
        self, ab_model, text, chunk
    ):
        # the first chunk of a regular file, if full and raw, forks a worker
        self.check(ab_model, text, chunk, cores=2)

    @staticmethod
    def check(model_path, text, chunk, cores):
        p = model_path.parent / "d.csv"
        p.write_bytes(text.encode("utf-8"))
        # small chunks put chunk boundaries on each side of the odd rows
        with mock.patch.object(data, "CHUNK_ROWS", chunk), mock.patch.object(
            os, "sched_getaffinity", lambda pid: set(range(cores)), create=True
        ):
            assert_load_csv_and_score_match_the_oracles(model_path, p)

    @pytest.mark.parametrize("case", sorted(MIXED_TABLES))
    def test_raw_chunks_then_csv_chunks(self, ab_model, tmp_path, case):
        text, paths = MIXED_TABLES[case]
        p = tmp_path / "d.csv"
        p.write_bytes(text.encode("utf-8"))
        seen = []

        def read_chunks(*args):
            for chunk in chunks(*args):
                seen.append(chunk[2] is None)
                yield chunk

        chunks = data.read_chunks
        with mock.patch.object(data, "CHUNK_ROWS", 3), \
                mock.patch.object(data, "read_chunks", read_chunks):
            assert_load_csv_and_score_match_the_oracles(ab_model, p)
        assert seen == paths + paths  # load_csv's, then score's


def quoting_table():
    return data.LabeledDataset(
        columns=["a", "b"],
        rows=np.array([[0.1, 1e-300], [2.0, -0.0], [1 / 3, 5e20]]),
        labels=np.array([1, 0, 1]),
        categories=['DoS, slow', 'say "hi"', ""],
    )


class TestSaveCsvMatchesPerRowOracle:
    @pytest.mark.parametrize("with_categories", [True, False])
    def test_bytes_equal_oracle(self, tmp_path, with_categories):
        ds = data.synth_generate(200, 40, 5, 0.6, seed=3)
        if not with_categories:
            ds.categories = None
        data.save_csv(ds, tmp_path / "new.csv")
        per_row_save(ds, tmp_path / "oracle.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()

    def test_categories_that_need_quoting(self, tmp_path):
        ds = quoting_table()
        data.save_csv(ds, tmp_path / "new.csv")
        per_row_save(ds, tmp_path / "oracle.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()
        back = data.load_csv(tmp_path / "new.csv", drop_columns=[])
        assert np.array_equal(back.rows, ds.rows)
        assert back.categories == ds.categories


def usable_cores(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def count_forks(monkeypatch, fail_from=None):
    """Wrap os.fork: the pids it returns in this process, and an OSError
    instead of a fork from call ``fail_from`` on."""
    real_fork, pids = os.fork, []

    def fork():
        if fail_from is not None and len(pids) >= fail_from:
            raise OSError(errno.EAGAIN, "no fork today")
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


def assert_reaped(pids):
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


@needs_fork
class TestSaveCsvParts:
    """save_csv cuts the rows into one range per usable core and forks a
    worker for each range after the first; the bytes must not change."""

    TABLES = {
        "synth": lambda: data.synth_generate(200, 40, 5, 0.6, seed=3),
        "quoting": quoting_table,
    }

    @pytest.mark.parametrize("table", TABLES)
    @pytest.mark.parametrize("cores", [1, 2, 3])
    def test_bytes_equal_oracle_at_every_part_count(self, tmp_path, monkeypatch, table, cores):
        ds = self.TABLES[table]()
        usable_cores(monkeypatch, cores)
        pids = count_forks(monkeypatch)
        data.save_csv(ds, tmp_path / "new.csv")
        per_row_save(ds, tmp_path / "oracle.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()
        assert len(pids) == cores - 1
        assert_reaped(pids)

    def test_more_cores_than_rows(self, tmp_path, monkeypatch):
        ds = quoting_table()
        usable_cores(monkeypatch, 8)
        pids = count_forks(monkeypatch)
        data.save_csv(ds, tmp_path / "new.csv")
        per_row_save(ds, tmp_path / "oracle.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()
        assert len(pids) == len(ds.rows) - 1
        assert_reaped(pids)

    @pytest.mark.parametrize("fail_from", [0, 1])
    def test_a_failed_fork_formats_its_range_here(self, tmp_path, monkeypatch, fail_from):
        ds = data.synth_generate(200, 40, 5, 0.6, seed=3)
        usable_cores(monkeypatch, 3)
        pids = count_forks(monkeypatch, fail_from)
        data.save_csv(ds, tmp_path / "new.csv")
        per_row_save(ds, tmp_path / "oracle.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()
        assert len(pids) == fail_from
        assert_reaped(pids)

    def test_a_failed_worker_formats_its_range_here(self, tmp_path, monkeypatch, failing_workers):
        ds = data.synth_generate(200, 40, 5, 0.6, seed=3)
        usable_cores(monkeypatch, 1)
        data.save_csv(ds, tmp_path / "one_core.csv")
        usable_cores(monkeypatch, 3)
        pids = count_forks(monkeypatch)
        data.save_csv(ds, tmp_path / "new.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "one_core.csv").read_bytes()
        assert len(pids) == 2
        assert_reaped(pids)

    def test_forking_warns_of_nothing(self, tmp_path, monkeypatch):
        # Python 3.12 and later warn when a process with more than one thread
        # forks. Recorded, not made errors, so the check does not depend on
        # what os.fork does with a warning that a filter makes an error.
        usable_cores(monkeypatch, 2)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            data.save_csv(data.synth_generate(200, 40, 5, 0.6, seed=3), tmp_path / "new.csv")
        assert [str(w.message) for w in caught] == []


def score_and_load(model_path, p):
    """``score``'s stdout, exit code and stderr on ``p``, and what
    ``load_csv`` returns for it or the message of the DataError it raises."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["score", "--model", str(model_path), "--input", str(p)])
    try:
        ds = data.load_csv(p)
        loaded = (ds.columns, ds.rows.tobytes(), ds.labels.tolist(), ds.categories)
    except DataError as e:
        loaded = str(e)
    return out.getvalue(), code, err.getvalue(), loaded


class ClosedAfterOneWrite(io.StringIO):
    """A stdout whose reader leaves after the first write, as ``| head -1``
    does; ``fileno`` is a file descriptor that ``cli.main`` may point at
    /dev/null."""

    def __init__(self, fd):
        super().__init__()
        self.fd = fd

    def fileno(self):
        return self.fd

    def write(self, text):
        if self.getvalue():
            raise BrokenPipeError(errno.EPIPE, "reader gone")
        return super().write(text)


@needs_fork
class TestReadChunksParts:
    """With P usable cores, read_chunks has chunk c (of 4 lines here)
    parsed by process c mod P, this one being process 0; what score writes
    and load_csv returns must not depend on P or on what the workers do."""

    # Row 21 is in chunk 5, which a worker owns at 2 and at 3 cores; so is
    # the last chunk of the 30-row table. Row 25 is in chunk 6, which this
    # process owns at 1, 2 and 3 cores. From the quoted row 13 on, every
    # row takes the csv path.
    TABLES = {
        "clean": mixed_table({}, n=40),
        "crlf": mixed_table({21: "0.25,0.5,0,Benign\r\n"}, n=40),
        "quoted": mixed_table({21: '0.25,"0.5",0,Benign\n'}, n=40),
        "bad_row": mixed_table({21: "abc,0.5,0,Benign\n"}, n=40),
        "short_row": mixed_table({21: "0.25\n"}, n=40),
        "no_final_newline": mixed_table({}, n=30)[:-1],
        "no_category": mixed_table({21: "0.25,0.5,0\n"}, n=40),
        "one_more_cell": mixed_table({21: "0.25,0.5,0,Benign,x\n"}, n=40),
        "no_category_here": mixed_table({25: "0.25,0.5,0\n"}, n=40),
        "one_more_cell_here": mixed_table({25: "0.25,0.5,0,Benign,\n"}, n=40),
        "quoted_then_no_category": mixed_table(
            {13: '0.25,"0.5",0,Benign\n', 21: "0.25,0.5,0\n"}, n=40
        ),
        "quoted_then_one_more_cell": mixed_table(
            {13: '0.25,"0.5",0,Benign\n', 21: "0.25,0.5,0,Benign,x\n"}, n=40
        ),
    }
    # The tables that score and load_csv stop at, at row 21 or 25.
    BAD = {name for name in TABLES if name not in ("clean", "crlf", "quoted", "no_final_newline")}

    def table(self, tmp_path, name):
        p = tmp_path / "d.csv"
        p.write_bytes(self.TABLES[name].encode("utf-8"))
        return p

    @pytest.mark.parametrize("name", sorted(TABLES))
    def test_output_does_not_depend_on_the_core_count(
        self, ab_model, tmp_path, monkeypatch, name
    ):
        p = self.table(tmp_path, name)
        monkeypatch.setattr(data, "CHUNK_ROWS", 4)
        results = {}
        for cores in [1, 2, 3]:
            usable_cores(monkeypatch, cores)
            pids = count_forks(monkeypatch)
            results[cores] = score_and_load(ab_model, p)
            # score and load_csv each fork a worker for each other core,
            # and reap them all, after a bad row too
            assert len(pids) == 2 * (cores - 1)
            assert_reaped(pids)
        assert results[2] == results[1] and results[3] == results[1]
        assert results[1][1] == (3 if name in self.BAD else 0)

    @pytest.mark.parametrize("cores, here", [(1, 10), (2, 5), (3, 4)])
    def test_workers_parse_the_chunks_they_own(self, tmp_path, monkeypatch, cores, here):
        # 10 chunks: this process parses chunks 0, P, 2P, ... itself
        p = self.table(tmp_path, "clean")
        monkeypatch.setattr(data, "CHUNK_ROWS", 4)
        usable_cores(monkeypatch, cores)
        pid, raw_features, parsed = os.getpid(), data._raw_features, []

        def count(lines, *args):
            if os.getpid() == pid:
                parsed.append(len(lines))
            return raw_features(lines, *args)

        monkeypatch.setattr(data, "_raw_features", count)
        data.load_csv(p)
        assert parsed == [4] * here

    @pytest.mark.parametrize("fail_from", [0, 1])
    @pytest.mark.parametrize("name", ["clean", "bad_row"])
    def test_a_failed_fork_parses_here(self, ab_model, tmp_path, monkeypatch, fail_from, name):
        p = self.table(tmp_path, name)
        monkeypatch.setattr(data, "CHUNK_ROWS", 4)
        usable_cores(monkeypatch, 1)
        expected = score_and_load(ab_model, p)
        usable_cores(monkeypatch, 3)
        pids = count_forks(monkeypatch, fail_from)
        assert score_and_load(ab_model, p) == expected
        assert len(pids) == fail_from
        assert_reaped(pids)

    @pytest.mark.parametrize("cores", [2, 3])
    @pytest.mark.parametrize("name", sorted(["clean", *BAD]))
    def test_a_failed_worker_changes_nothing(
        self, ab_model, tmp_path, monkeypatch, failing_workers, cores, name
    ):
        p = self.table(tmp_path, name)
        monkeypatch.setattr(data, "CHUNK_ROWS", 4)
        usable_cores(monkeypatch, 1)
        expected = score_and_load(ab_model, p)
        usable_cores(monkeypatch, cores)
        pids = count_forks(monkeypatch)
        assert score_and_load(ab_model, p) == expected
        assert len(pids) == 2 * (cores - 1)
        assert_reaped(pids)

    def test_a_frame_for_other_lines_is_not_used(self, ab_model, tmp_path, monkeypatch):
        # the workers read a longer copy of the file: every frame is for
        # other lines, so this process parses the chunk itself
        p = self.table(tmp_path, "clean")
        monkeypatch.setattr(data, "CHUNK_ROWS", 4)
        usable_cores(monkeypatch, 1)
        expected = score_and_load(ab_model, p)
        usable_cores(monkeypatch, 2)
        parse_part = data._parse_part

        def longer(path, file_id, skip, *args):
            return parse_part(path, file_id, skip - 1, *args)

        monkeypatch.setattr(data, "_parse_part", longer)
        pids = count_forks(monkeypatch)
        assert score_and_load(ab_model, p) == expected
        assert len(pids) == 2
        assert_reaped(pids)

    @pytest.mark.parametrize("keep", ["half_the_head", "half_the_features"])
    def test_a_frame_cut_short_is_not_used(self, ab_model, tmp_path, monkeypatch, keep):
        # each worker dies in the middle of its first frame
        p = self.table(tmp_path, "clean")
        monkeypatch.setattr(data, "CHUNK_ROWS", 4)
        usable_cores(monkeypatch, 1)
        expected = score_and_load(ab_model, p)
        usable_cores(monkeypatch, 3)
        write = workers._write

        def cut(fd, frame):
            size = workers._HEAD.size
            write(fd, frame[: size // 2 if keep == "half_the_head" else size + 16])
            raise RuntimeError("worker dies")

        monkeypatch.setattr(workers, "_write", cut)
        pids = count_forks(monkeypatch)
        assert score_and_load(ab_model, p) == expected
        assert len(pids) == 4
        assert_reaped(pids)

    def test_a_worker_parses_no_other_file(self, ab_model, tmp_path, monkeypatch):
        # as if the path named another file by the time the worker opens
        # it, one with the same line lengths: the worker finds another
        # inode and writes nothing, so this process parses its chunks
        p = self.table(tmp_path, "clean")
        other = tmp_path / "other.csv"
        other.write_text(self.TABLES["clean"].replace("0.", "1."))
        monkeypatch.setattr(data, "CHUNK_ROWS", 4)
        usable_cores(monkeypatch, 1)
        expected = score_and_load(ab_model, p)
        usable_cores(monkeypatch, 2)
        parse_part = data._parse_part
        monkeypatch.setattr(data, "_parse_part", lambda path, *args: parse_part(other, *args))
        pids = count_forks(monkeypatch)
        assert score_and_load(ab_model, p) == expected
        assert len(pids) == 2
        assert_reaped(pids)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no os.mkfifo")
    def test_a_fifo_forks_nothing(self, ab_model, tmp_path, monkeypatch):
        p = self.table(tmp_path, "clean")
        monkeypatch.setattr(data, "CHUNK_ROWS", 4)
        usable_cores(monkeypatch, 2)
        expected = score_and_load(ab_model, p)[:3]
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        feeder = threading.Thread(target=lambda: fifo.write_bytes(p.read_bytes()))
        feeder.start()
        pids = count_forks(monkeypatch)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["score", "--model", str(ab_model), "--input", str(fifo)])
        feeder.join(timeout=60)
        assert not feeder.is_alive()
        assert (out.getvalue(), code, err.getvalue()) == expected
        assert pids == []

    def test_a_table_shorter_than_a_chunk_forks_nothing(self, ab_model, tmp_path, monkeypatch):
        p = tmp_path / "d.csv"
        p.write_text(mixed_table({}, n=3))
        monkeypatch.setattr(data, "CHUNK_ROWS", 4)
        usable_cores(monkeypatch, 2)
        pids = count_forks(monkeypatch)
        assert score_and_load(ab_model, p)[1] == 0
        assert pids == []

    def test_a_closed_stdout_reaps_every_worker(self, ab_model, tmp_path, monkeypatch):
        p = self.table(tmp_path, "clean")
        monkeypatch.setattr(data, "CHUNK_ROWS", 4)
        usable_cores(monkeypatch, 3)
        pids = count_forks(monkeypatch)
        fd = os.open(os.devnull, os.O_WRONLY)
        try:
            # the header is written; the first chunk, after the forks, is not
            with contextlib.redirect_stdout(ClosedAfterOneWrite(fd)):
                code = cli.main(["score", "--model", str(ab_model), "--input", str(p)])
        finally:
            os.close(fd)
        assert code == 0
        assert len(pids) == 2
        assert_reaped(pids)

    def test_forking_warns_of_nothing(self, ab_model, tmp_path, monkeypatch):
        # as TestSaveCsvParts.test_forking_warns_of_nothing, after a BLAS
        # call has started the BLAS library's threads, if it has any
        p = self.table(tmp_path, "clean")
        monkeypatch.setattr(data, "CHUNK_ROWS", 4)
        usable_cores(monkeypatch, 2)
        pids = count_forks(monkeypatch)
        a = np.ones((64, 64))
        assert (a @ a)[0, 0] == 64.0
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            data.load_csv(p)
        assert [str(w.message) for w in caught] == []
        assert len(pids) == 1


class TestScaler:
    def test_basic_scaling(self):
        p = data.fit_scaler(np.array([[0.0], [5.0], [10.0]]))
        out = data.apply_scaler(p, np.array([[0.0], [5.0], [10.0]]))
        assert np.allclose(out.ravel(), [0.0, 0.5, 1.0])

    def test_constant_feature_maps_to_zero(self):
        p = data.fit_scaler(np.array([[7.0], [7.0]]))
        assert np.allclose(data.apply_scaler(p, np.array([[7.0], [9.0]])), 0.0)

    def test_out_of_range_clamps(self):
        p = data.fit_scaler(np.array([[0.0], [10.0]]))
        assert data.apply_scaler(p, np.array([[15.0]]))[0, 0] == 1.0
        assert data.apply_scaler(p, np.array([[-5.0]]))[0, 0] == 0.0

    def test_values_near_the_float64_limit_clamp_without_a_warning(self):
        # spans below 1, so dividing by them overflows
        p = data.fit_scaler(np.array([[0.0, -0.1], [0.5, 0.1]]))
        big = np.finfo(np.float64).max
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = data.apply_scaler(p, np.array([[big, big], [-big, -big]]))
        assert out.tolist() == [[1.0, 1.0], [0.0, 0.0]]

    @pytest.mark.parametrize("given_out", [False, True], ids=["new_array", "out"])
    def test_writes_only_its_result(self, rng, given_out):
        rows = rng.normal(size=(50, 4)) * 10
        rows[:, 2] = 3.0  # a constant feature
        p = data.fit_scaler(rows[:30])
        before = rows.copy()
        out = np.full_like(rows, np.nan) if given_out else None
        scaled = data.apply_scaler(p, rows, out=out)
        assert rows.tobytes() == before.tobytes()
        assert scaled is out if given_out else not np.shares_memory(scaled, rows)
        span = np.where(p.maxs > p.mins, p.maxs - p.mins, 1.0)
        want = np.clip((rows - p.mins) / span, 0.0, 1.0)
        want[:, 2] = 0.0
        assert scaled.tobytes() == want.tobytes()

    def test_training_data_lands_in_unit_cube(self, rng):
        train = rng.normal(size=(30, 4)) * 10
        p = data.fit_scaler(train)
        out = data.apply_scaler(p, train)
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_feature_count_mismatch(self):
        p = data.fit_scaler(np.zeros((2, 3)))
        with pytest.raises(DataError):
            data.apply_scaler(p, np.zeros((2, 4)))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_a_value_that_is_not_finite_is_a_data_error(self, value):
        p = data.fit_scaler(np.zeros((2, 3)))
        rows = np.ones((4, 3))
        rows[2, 1] = value
        with pytest.raises(DataError, match=r"^rows hold a value that is not finite"):
            data.apply_scaler(p, rows)

    def test_a_range_past_the_float64_limit_is_a_data_error(self):
        big = np.finfo(np.float64).max
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match=r"^feature 1 ranges from -1\.79.*e\+308 to"):
                data.fit_scaler(np.array([[0.0, -big], [1.0, big]]))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_a_value_that_is_not_finite_is_left_to_apply_scaler(self, value):
        rows = np.array([[0.0, value], [1.0, 2.0]])
        p = data.fit_scaler(rows)
        with pytest.raises(DataError, match=r"^rows hold a value that is not finite"):
            data.apply_scaler(p, rows)

    @pytest.mark.parametrize("shape", [(3,), (2, 1, 3), ()])
    def test_rows_that_are_not_a_matrix_are_a_data_error(self, shape):
        p = data.fit_scaler(np.zeros((2, 3)))
        with pytest.raises(DataError, match=r"^rows must be an \(n, d\) matrix, got shape"):
            data.apply_scaler(p, np.zeros(shape))


class TestSplitBenign:
    """``split_benign_indices``, which ``train --train-fraction`` and
    ``evaluate --protocol holdout`` split the rows with."""

    def _labels(self, n_benign, n_attack):
        # attack rows between the benign ones, not only after them
        return np.random.default_rng(0).permutation([0] * n_benign + [1] * n_attack)

    def test_counts(self):
        labels = self._labels(10, 3)
        train, test = data.split_benign_indices(labels, 0.7, seed=1)
        assert len(train) == 7
        assert (labels[test] == 0).sum() == 3 and (labels[test] == 1).sum() == 3

    def test_train_has_no_attacks(self):
        labels = self._labels(10, 3)
        train, test = data.split_benign_indices(labels, 0.7, seed=1)
        assert (labels[train] == 0).all()
        assert set(np.flatnonzero(labels == 1)) <= set(test)

    def test_partition_of_benign(self):
        labels = self._labels(11, 2)
        train, test = data.split_benign_indices(labels, 0.6, seed=4)
        recovered = np.concatenate([train, test[labels[test] == 0]])
        assert sorted(recovered) == list(np.flatnonzero(labels == 0))

    def test_deterministic(self):
        labels = self._labels(10, 3)
        t1 = data.split_benign_indices(labels, 0.7, seed=5)
        t2 = data.split_benign_indices(labels, 0.7, seed=5)
        assert all(np.array_equal(a, b) for a, b in zip(t1, t2))

    def test_rejects_no_benign(self):
        with pytest.raises(DataError):
            data.split_benign_indices(self._labels(0, 3), 0.7, seed=0)

    def test_fraction_bounds(self):
        with pytest.raises(ValueError):
            data.split_benign_indices(self._labels(10, 3), 1.0, seed=0)


class TestSynthGenerate:
    def test_deterministic(self):
        a = data.synth_generate(30, 10, 4, 0.5, seed=3)
        b = data.synth_generate(30, 10, 4, 0.5, seed=3)
        assert np.array_equal(a.rows, b.rows)
        assert np.array_equal(a.labels, b.labels)

    def test_counts_and_range(self):
        ds = data.synth_generate(30, 10, 4, 0.5, seed=3)
        assert ds.n_benign == 30 and ds.n_attack == 10
        assert ds.rows.min() >= 0.0 and ds.rows.max() <= 1.0

    def test_zero_shift_matches_benign_distribution(self):
        # indistinguishable classes: a centroid scorer should be near chance
        from docnids.evaluation import roc_auc

        ds = data.synth_generate(2000, 2000, 8, 0.0, seed=11)
        c = ds.rows[ds.labels == 0].mean(axis=0)
        scores = ((ds.rows - c) ** 2).sum(axis=1)
        assert abs(roc_auc(ds.labels, scores) - 0.5) < 0.05

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            data.synth_generate(0, 10, 4, 0.5, seed=3)
        with pytest.raises(ValueError):
            data.synth_generate(10, 10, 4, -0.1, seed=3)

    def test_standard_fixture_separable_by_centroid_oracle(self, fixture_ds):
        from docnids.evaluation import roc_auc

        benign = fixture_ds.rows[fixture_ds.labels == 0]
        c = benign.mean(axis=0)
        scores = ((fixture_ds.rows - c) ** 2).sum(axis=1)
        assert roc_auc(fixture_ds.labels, scores) > 0.9
