import argparse
import builtins
import csv
import hashlib
import io
import json
import os
import math
import random
import re
import subprocess
import sys
from pathlib import Path
from typing import Optional

import numpy as np
import pytest

import granule
from granule import cli
from granule.ball_kmeans import lloyd_run
from granule.cli import (
    EXIT_INGEST,
    EXIT_INVARIANT,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFY,
    IngestionError,
    _build_parser,
    _sanitize,
    load_csv,
    main,
)
from granule.existential import format_system_file, parse_system_file
from granule.granular_ball import LabeledDataset

from conftest import two_blob_labeled
from fixtures_axioms import pt2_violation


try:  # decoded as `open` decodes by default
    DECODES_0XFF = bool(io.TextIOWrapper(io.BytesIO(b"\xff")).read())
except UnicodeDecodeError:
    DECODES_0XFF = False


def write_csv(path, rows, header=None):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        if header:
            writer.writerow(header)
        writer.writerows(rows)
    return str(path)


@pytest.fixture
def blob_csv(tmp_path):
    x, labels = two_blob_labeled(n_per=40, seed=5)
    rows = [
        [f"{row[0]:.6f}", f"{row[1]:.6f}", "pos" if lab else "neg"]
        for row, lab in zip(x, labels)
    ]
    return write_csv(tmp_path / "blobs.csv", rows, header=["x", "y", "class"])


class TestLoadCsv:
    def test_plain_numeric(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", [[1, 2], [3, 4], [5, 6]])
        ds, _ = load_csv(path)
        assert ds.points.n == 3 and ds.points.d == 2
        assert all(l is None for l in ds.labels)

    def test_label_column_with_gaps(self, tmp_path):
        path = write_csv(
            tmp_path / "d.csv",
            [[0.0, 1.0, "1"], [1.0, 2.0, ""], [2.0, 3.0, "0"], [3.0, 4.0, ""]],
            header=["a", "b", "class"],
        )
        ds, _ = load_csv(path, "class")
        assert ds.points.d == 2
        assert ds.labels == (1, None, 0, None)

    def test_label_column_by_index(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", [["7", 0.5], ["9", 1.5]])
        ds, _ = load_csv(path, "0")
        assert ds.points.d == 1
        assert ds.labels == (7, 9)

    def test_string_labels_encoded_sorted(self, tmp_path):
        path = write_csv(
            tmp_path / "d.csv",
            [[0.0, "z"], [1.0, "a"], [2.0, "z"]],
            header=["v", "class"],
        )
        ds, _ = load_csv(path, "class")
        assert ds.labels == (1, 0, 1)

    def test_bad_feature_names_row(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", [[0.0, 1.0], ["abc", 2.0]], header=["a", "b"])
        with pytest.raises(IngestionError, match="row 3"):
            load_csv(path)

    def test_ragged_row_rejected(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", [[0.0, 1.0], [2.0]])
        with pytest.raises(IngestionError, match="row 2"):
            load_csv(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("")
        with pytest.raises(IngestionError, match="empty"):
            load_csv(str(path))

    def test_unknown_label_column(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", [[0.0, 1.0]], header=["a", "b"])
        with pytest.raises(IngestionError, match="label column"):
            load_csv(path, "missing")


def loop_load_csv(path: str, label_column: Optional[str] = None) -> LabeledDataset:
    """Reference: the per-cell ingestion loop that `load_csv` replaced.

    It drops blank lines before numbering rows, so its error texts agree with
    `load_csv` only on files without blank lines.
    """
    try:
        with open(path, newline="") as fh:
            rows = [row for row in csv.reader(fh)]
    except OSError as exc:
        raise IngestionError(f"cannot read {path}: {exc}") from exc
    rows = [row for row in rows if any(cell.strip() for cell in row)]
    if not rows:
        raise IngestionError(f"{path}: empty input")

    def numeric(cell: str) -> bool:
        try:
            float(cell)
            return True
        except ValueError:
            return False

    has_header = not all(numeric(c) for c in rows[0])
    header = [c.strip() for c in rows[0]] if has_header else None
    data_rows = rows[1:] if has_header else rows
    if not data_rows:
        raise IngestionError(f"{path}: no data rows")
    width = len(data_rows[0])

    label_idx: Optional[int] = None
    if label_column is not None:
        if label_column.lstrip("-").isdigit():
            label_idx = int(label_column)
            if not (0 <= label_idx < width):
                raise IngestionError(f"label column index {label_idx} out of range")
        else:
            if header is None:
                raise IngestionError("named label column requires a header row")
            if label_column not in header:
                raise IngestionError(f"label column {label_column!r} not in header {header}")
            label_idx = header.index(label_column)

    features: list[list[float]] = []
    raw_labels: list[Optional[str]] = []
    for rno, row in enumerate(data_rows, start=2 if has_header else 1):
        if len(row) != width:
            raise IngestionError(f"row {rno}: expected {width} cells, got {len(row)}")
        feats = []
        for cno, cell in enumerate(row):
            if cno == label_idx:
                continue
            cell = cell.strip()
            if not numeric(cell):
                raise IngestionError(f"row {rno}: non-numeric feature {cell!r} in column {cno}")
            feats.append(float(cell))
        if not feats:
            raise IngestionError(f"row {rno}: no feature columns left")
        features.append(feats)
        raw_labels.append(row[label_idx].strip() if label_idx is not None else None)

    labels: list[Optional[int]] = [None] * len(raw_labels)
    present = [(i, lab) for i, lab in enumerate(raw_labels) if lab]
    if present:
        if all(lab.lstrip("-").isdigit() for _, lab in present):
            for i, lab in present:
                labels[i] = int(lab)
        else:
            codes = {lab: code for code, lab in enumerate(sorted({lab for _, lab in present}))}
            for i, lab in present:
                labels[i] = codes[lab]
    return LabeledDataset.build(np.asarray(features, dtype=float), labels)


ARABIC_INDIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")
FULLWIDTH = str.maketrans("0123456789", "０１２３４５６７８９")


def corpus_number(rng: random.Random) -> str:
    """A finite feature cell in one of the spellings float() accepts."""
    value = round(rng.uniform(-50, 50), rng.randint(0, 4))
    style = rng.choice(("plain", "padded", "exponent", "underscore", "unicode", "plus", "int"))
    if style == "padded":
        return f"{' ' * rng.randint(1, 2)}{value}{' ' * rng.randint(0, 2)}"
    if style == "exponent":
        return f"{value / 1000:.3e}".upper() if rng.random() < 0.5 else f"{value:.2e}"
    if style == "underscore":
        return f"{rng.randint(1, 9)}_{rng.randint(100, 999)}.5"
    if style == "unicode":
        digits = str(rng.randint(0, 999))
        return digits.translate(ARABIC_INDIC if rng.random() < 0.5 else FULLWIDTH)
    if style == "plus":
        return f"+{abs(value)}"
    if style == "int":
        return str(int(value))
    return repr(value)


def corpus_label(rng: random.Random, kind: str) -> str:
    if rng.random() < 0.15:
        return rng.choice(("", "  "))
    if kind == "int":
        return rng.choice(("0", "1", "-3", "12", "٣", " 7 "))
    return rng.choice(("cat", "dog", "Ünï", "b 2", "-x", "10a"))


def corpus_case(seed: int):
    """One seeded CSV file: its bytes, the --labels value, and whether it is malformed."""
    rng = random.Random(seed)
    n_feat = rng.randint(1, 4)
    n_rows = rng.randint(1, 12)
    label_pos = rng.randint(0, n_feat) if rng.random() < 0.7 else None
    width = n_feat + (label_pos is not None)
    has_header = rng.random() < 0.5
    label_kind = rng.choice(("int", "str"))
    header = [f"f{c}" for c in range(n_feat)]
    if label_pos is not None:
        header.insert(label_pos, "class")
    rows = []
    for _ in range(n_rows):
        row = [corpus_number(rng) for _ in range(n_feat)]
        if label_pos is not None:
            row.insert(label_pos, corpus_label(rng, label_kind))
        rows.append(row)
    malformed = rng.random() < 0.35
    if malformed:
        bad = rows[rng.randrange(n_rows)]
        if rng.random() < 0.5:
            if len(bad) > 1 and rng.random() < 0.5:
                bad.pop()
            else:
                bad.append(corpus_number(rng))
        else:
            cols = [c for c in range(width) if c != label_pos]
            bad[rng.choice(cols)] = rng.choice(("abc", "1.2.3", "1e", "--1", "0x1F", "²", "1__0"))
    buf = io.StringIO()
    quoting = csv.QUOTE_ALL if rng.random() < 0.25 else csv.QUOTE_MINIMAL
    writer = csv.writer(buf, quoting=quoting, lineterminator=rng.choice(("\n", "\r\n")))
    if has_header:
        writer.writerow(header)
    for row in rows:
        writer.writerow(row)
        if not malformed and rng.random() < 0.1:
            buf.write(rng.choice(("\n", "\r\n", ",\n", "  \n")))
    label = None
    if label_pos is not None:
        label = "class" if has_header and rng.random() < 0.5 else str(label_pos)
    return buf.getvalue().encode(), label, malformed


def ingest_outcome(loader, path, label):
    try:
        ds = loader(path, label)
    except IngestionError as exc:
        return ("error", str(exc))
    pts = ds.points.points
    return (pts.shape, pts.tobytes(), ds.labels)


def parent_load_csv(path: str, label_column: Optional[str] = None) -> LabeledDataset:
    """Reference: the csv row loop `load_csv` ran on every file before the whole-file parse.

    Copied from it with two changes only: one leading U+FEFF is dropped from
    the decoded text, and a csv error is an ingestion error naming its line.
    """
    with open(path, "rb") as fh:
        text = io.TextIOWrapper(io.BytesIO(fh.read()), newline="").read().removeprefix("\ufeff")
    reader = csv.reader(io.StringIO(text, newline=""))
    rows, lines = [], []
    try:
        for row in reader:
            if any(cell.strip() for cell in row):
                rows.append(row)
                lines.append(reader.line_num)
    except csv.Error as exc:
        raise IngestionError(f"row {reader.line_num}: {exc}") from exc
    if not rows:
        raise IngestionError(f"{path}: empty input")

    def is_number(cell: str) -> bool:
        try:
            float(cell)
            return True
        except ValueError:
            return False

    def is_int(text: str) -> bool:
        return text.removeprefix("-").isdecimal()

    has_header = not all(is_number(c) for c in rows[0])
    header = [c.strip() for c in rows[0]] if has_header else None
    if has_header:
        rows, lines = rows[1:], lines[1:]
    if not rows:
        raise IngestionError(f"{path}: no data rows")
    width = len(rows[0])

    label_idx: Optional[int] = None
    if label_column is not None:
        if is_int(label_column):
            label_idx = int(label_column)
            if not (0 <= label_idx < width):
                raise IngestionError(f"label column index {label_idx} out of range")
        else:
            if header is None:
                raise IngestionError("named label column requires a header row")
            if label_column not in header:
                raise IngestionError(f"label column {label_column!r} not in header {header}")
            label_idx = header.index(label_column)
        if width == 1:
            raise IngestionError(f"row {lines[0]}: no feature columns left")

    cells = rows if label_idx is None else [r[:label_idx] + r[label_idx + 1 :] for r in rows]
    try:
        features = np.array(cells, dtype=float)
    except ValueError:
        features = None
    if features is None or not np.isfinite(features).all() or len(set(map(len, rows))) > 1:
        for line, row in zip(lines, rows):
            if len(row) != width:
                raise IngestionError(f"row {line}: expected {width} cells, got {len(row)}")
            for cno, cell in enumerate(row):
                if cno == label_idx:
                    continue
                cell = cell.strip()
                if not is_number(cell):
                    raise IngestionError(f"row {line}: non-numeric feature {cell!r} in column {cno}")
                if not math.isfinite(float(cell)):
                    raise IngestionError(f"row {line}: non-finite feature {cell!r} in column {cno}")

    labels: list[Optional[int]] = [None] * len(rows)
    if label_idx is not None:
        raw = [row[label_idx].strip() for row in rows]
        present = sorted({lab for lab in raw if lab})
        as_int = all(is_int(lab) for lab in present)
        codes = {lab: int(lab) if as_int else code for code, lab in enumerate(present)}
        labels = [codes.get(lab) for lab in raw]
    return LabeledDataset.build(features, labels)


BOM = b"\xef\xbb\xbf"
DECODES_BOM = io.TextIOWrapper(io.BytesIO(BOM)).read() == "\ufeff"
# cells that float() reads and np.loadtxt refuses, or that only look odd
ODD_CELLS = ("1_0", "１", "٣", "٣.5", "\u20032", "1\x0c", "+.5", "-0", "5.", "1E3", "0.1e-2")
BLANK_LINES = ("  ", "\t", ",", ",,", " , ")


def plain_number(rng: random.Random) -> str:
    value = round(rng.uniform(-50, 50), rng.randint(0, 17))
    return rng.choice((repr(value), f"{value:.17g}", f" {value}", f"{value:.3e}", str(int(value))))


def hostile_case(seed: int):
    """One seeded CSV file of plain cells with up to three loadtxt-hostile changes.

    Returns its bytes and the --labels value.  The changes: quoted cells, bare
    CR or CRLF line ends, '#' lines, cells such as `1_0`, `１` and `٣`,
    whitespace-only, comma-only, empty and trailing-comma lines, NUL bytes, a
    BOM; files have one or more columns and rows, and the label column, if
    any, is first, middle or last.
    """
    rng = random.Random(10_000 + seed)
    n_feat, n_rows = rng.randint(1, 3), rng.choice((1, 1, 2, 3, 5))
    label_pos = rng.choice((None, 0, n_feat // 2, n_feat))
    header = [f"f{c}" for c in range(n_feat)]
    rows = [[plain_number(rng) for _ in range(n_feat)] for _ in range(n_rows)]
    if label_pos is not None:
        header.insert(label_pos, "class")
        kind = rng.choice(("int", "str"))
        for row in rows:
            row.insert(label_pos, corpus_label(rng, kind))
    if rng.random() < 0.5:
        rows.insert(0, header)
    changes = rng.sample(("quote", "cr", "crlf", "hash", "odd", "blank", "empty", "trailing", "nul", "bom"),
                         rng.randint(0, 3))
    if "odd" in changes:
        row = rng.choice(rows)
        cols = [c for c in range(len(row)) if c != label_pos]
        row[rng.choice(cols)] = rng.choice(ODD_CELLS)
    if "nul" in changes:
        row = rng.choice(rows)
        c = rng.randrange(len(row))
        row[c] = row[c] + "\0"
    if "trailing" in changes:
        for row in rows if rng.random() < 0.5 else [rng.choice(rows)]:
            row.append("")
    if "quote" in changes:
        row = rng.choice(rows)
        c = rng.randrange(len(row))
        row[c] = f'"{row[c]}"'
    lines = [",".join(row) for row in rows]
    if "hash" in changes:
        lines.insert(rng.randint(0, len(lines)), rng.choice(("# note", "#1,2", "#")))
    if "blank" in changes:
        lines.insert(rng.randint(0, len(lines)), rng.choice(BLANK_LINES))
    if "empty" in changes:
        lines.insert(rng.randint(1, len(lines)), "")
    end = "\r" if "cr" in changes else "\r\n" if "crlf" in changes else "\n"
    text = end.join(lines) + (end if rng.random() < 0.8 else "")
    label = None
    if label_pos is not None:
        label = "class" if rows[0] == header and rng.random() < 0.5 else str(label_pos)
    return (BOM if "bom" in changes else b"") + text.encode(), label


PLAIN_CELL = re.compile(r" *[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)? *", re.ASCII)


def is_clean(data: bytes, label: Optional[str], outcome) -> bool:
    """Whether a file that loads is one the whole-file parse must serve itself.

    That is: no quote, NUL or bare CR, no line that is blank without being
    empty, and every feature cell a plain ASCII decimal.
    """
    if outcome[0] == "error":
        return False
    text = data.removeprefix(BOM).decode().replace("\r\n", "\n")
    lines = [line.split(",") for line in text.split("\n") if line]
    if any(c in text for c in '"\0\r') or not all(any(c.strip() for c in cells) for cells in lines):
        return False
    (n, d), header = outcome[0], None
    if len(lines) == n + 1:
        header, lines = [c.strip() for c in lines[0]], lines[1:]
    width = len(lines[0])
    skip = None if width == d else int(label) if label.isdigit() else header.index(label)
    return all(PLAIN_CELL.fullmatch(c) for cells in lines for j, c in enumerate(cells) if j != skip)


class TestLoadCsvOracle:
    def test_matches_loop_on_seeded_corpus(self, tmp_path):
        seen = {"ok": 0, "error": 0, "malformed": 0}
        for seed in range(240):
            data, label, malformed = corpus_case(seed)
            path = tmp_path / f"c{seed}.csv"
            path.write_bytes(data)
            expected = ingest_outcome(loop_load_csv, str(path), label)
            got = ingest_outcome(lambda p, l: load_csv(p, l)[0], str(path), label)
            assert got == expected, (seed, data, label)
            seen["error" if expected[0] == "error" else "ok"] += 1
            seen["malformed"] += malformed
        assert seen["ok"] >= 120 and seen["error"] >= 50 and seen["malformed"] >= 60, seen

    def test_fast_path_serves_every_clean_file_and_matches_both_loops(self, tmp_path, monkeypatch):
        served = []
        whole = cli._parse_whole

        def spy(text, label_column):
            result = whole(text, label_column)
            served.append(result is not None)
            return result

        monkeypatch.setattr(cli, "_parse_whole", spy)
        seen = {"clean": 0, "fast": 0, "loop": 0, "error": 0}
        cases = [("seeded", *corpus_case(seed)[:2]) for seed in range(240)]
        cases += [("hostile", *hostile_case(seed)) for seed in range(400)]
        for i, (corpus, data, label) in enumerate(cases):
            path = tmp_path / f"c{i}.csv"
            path.write_bytes(data)
            got = ingest_outcome(lambda p, l: load_csv(p, l)[0], str(path), label)
            assert got == ingest_outcome(parent_load_csv, str(path), label), (corpus, data, label)
            if corpus == "hostile":
                # The older loop keeps a BOM, numbers rows by count rather than by file
                # line, and tests a row's cells before the lone label column of a file.
                path.write_bytes(data.removeprefix(BOM) if DECODES_BOM else data)
                try:
                    loop = ingest_outcome(loop_load_csv, str(path), label)
                except csv.Error:  # NUL bytes before Python 3.11
                    loop = ("error", None)
                blank = any(not line.replace(",", "").strip() for line in data.removeprefix(BOM).decode().splitlines())
                if "error" not in (got[0], loop[0]):
                    assert got == loop, (data, label)
                elif blank or loop[1] is None or not DECODES_BOM or got[1].endswith("no feature columns left"):
                    assert got[0] == loop[0] == "error", (data, label)
                else:
                    assert got == loop, (data, label)
            clean = DECODES_BOM and is_clean(data, label, got)
            assert served[-1] or not clean, (corpus, data, label)
            seen["clean"] += clean
            seen["fast" if served[-1] else "loop"] += 1
            seen["error"] += got[0] == "error"
        assert len(served) == len(cases)
        assert seen["clean"] >= 120 and seen["loop"] >= 300 and seen["error"] >= 150, seen

    def test_loadtxt_reads_no_cell_that_float_refuses(self):
        rng = random.Random(35)
        alphabet = "0123456789+-.eE_ \t\x0c\x85\u2003１٣infatyINFATYxj"
        cells = list(ODD_CELLS) + ["".join(rng.choice(alphabet) for _ in range(rng.randint(1, 6)))
                                   for _ in range(3000)]
        bits = np.random.default_rng(35).integers(0, 2**64, size=600, dtype=np.uint64)
        values = [rng.choice((1e-300, 1e-5, 1.0, 1e5, 1e300)) * rng.gauss(0, 1) for _ in range(600)]
        values += bits.view(np.float64).tolist()  # every exponent, subnormals, inf and nan
        cells += [f"{v:.17g}" for v in values] + [repr(v) for v in values]
        read = 0
        for cell in cells:
            try:
                value = np.loadtxt([cell], delimiter=",", comments=None, dtype=float, ndmin=2)[0, 0]
            except ValueError:
                continue
            read += 1
            expected = float(cell.strip())
            assert (np.float64(expected).tobytes() == value.tobytes()) or not np.isfinite([expected, value]).any(), cell
        assert read >= 2500


class TestIngestRefusals:
    def test_rows_are_numbered_by_file_line(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_bytes(b"1,2\n\n\n3,x\n")
        with pytest.raises(IngestionError, match=r"^row 4: non-numeric feature 'x' in column 1$"):
            load_csv(str(path))

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity", "1e400"])
    def test_non_finite_feature_is_an_ingestion_error(self, tmp_path, cell):
        path = tmp_path / "d.csv"
        path.write_text(f"a,b,c\n1,2,x\n3,{cell},y\n")
        with pytest.raises(IngestionError, match=rf"^row 3: non-finite feature '{cell}' in column 1$"):
            load_csv(str(path), "c")
        assert main(["cluster", "--input", str(path), "--labels", "c", "--k", "1"]) == EXIT_INGEST

    def test_labels_that_int_cannot_read_are_ranked(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1,2,1\n3,4,--5\n5,6,²\n7,8,\n")
        ds, _ = load_csv(str(path), "2")
        assert ds.labels == (1, 0, 2, None)  # lexicographic rank of "--5" < "1" < "²"
        code = main(["gb", "--input", str(path), "--labels", "2", "--purity", "1",
                     "--out", str(tmp_path / "gb.json")])
        assert code == EXIT_OK
        with pytest.raises(IngestionError, match="named label column requires a header row"):
            load_csv(str(path), "²")


    @pytest.mark.skipif(not DECODES_BOM, reason="the default encoding does not decode a BOM to U+FEFF")
    def test_bom_keeps_the_first_row_of_a_headerless_file(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_bytes(BOM + b"1.0,2\n3,4\n")
        ds, digest = load_csv(str(path))
        assert ds.points.points.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        assert digest == hashlib.sha256(path.read_bytes()).hexdigest()

    @pytest.mark.skipif(not DECODES_BOM, reason="the default encoding does not decode a BOM to U+FEFF")
    def test_bom_header_names_its_first_column(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_bytes(BOM + b'class,x\r\n1,0.5\r\n0,1.5\r\n')
        ds, _ = load_csv(str(path), "class")
        assert ds.labels == (1, 0) and ds.points.points.tolist() == [[0.5], [1.5]]
        path.write_bytes(BOM + b'"class",x\n1,0.5\n0,1.5\n')  # the quote sends it to the row loop
        assert load_csv(str(path), "class")[0].labels == (1, 0)

    def test_cell_past_the_csv_field_limit_names_its_line(self, tmp_path):
        limit = csv.field_size_limit()
        path = tmp_path / "d.csv"
        path.write_text(f"1,2\n3,{'0' * (limit - 1)}4\n")
        assert load_csv(str(path))[0].points.points.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        path.write_text(f"1,2\n3,4\n\n5,{'0' * limit}6\n7,8\n")
        with pytest.raises(IngestionError, match=rf"^row 4: field larger than field limit \({limit}\)$"):
            load_csv(str(path))

    def test_cell_past_the_csv_field_limit_exits_3(self, tmp_path, capsys):
        path = tmp_path / "d.csv"
        path.write_text(f"x,y\n1,2\n3,{'7' * (csv.field_size_limit() + 1)}\n")
        out = tmp_path / "c.json"
        assert main(["cluster", "--input", str(path), "--k", "1", "--out", str(out)]) == EXIT_INGEST
        assert "ingestion error: row 3: field larger than field limit" in capsys.readouterr().err
        assert not out.exists()


def run_to_file(args, out):
    code = main(args + ["--out", str(out)])
    return code, out.read_bytes()


class TestCommands:
    def test_cluster_report_fields(self, blob_csv, tmp_path):
        code, raw = run_to_file(
            ["cluster", "--input", blob_csv, "--labels", "class", "--k", "2", "--seed", "3"],
            tmp_path / "r.json",
        )
        assert code == EXIT_OK
        report = json.loads(raw)
        for key in (
            "assignments",
            "centers",
            "radii",
            "iterations",
            "distance_computations",
            "prunings_fired",
            "converged",
        ):
            assert key in report
        assert report["converged"] is True
        assert len(report["assignments"]) == 80

    def test_cluster_matches_lloyd(self, blob_csv, tmp_path):
        _, fast = run_to_file(
            ["cluster", "--input", blob_csv, "--labels", "class", "--k", "2", "--seed", "3"],
            tmp_path / "fast.json",
        )
        _, naive = run_to_file(
            ["lloyd", "--input", blob_csv, "--labels", "class", "--k", "2", "--seed", "3"],
            tmp_path / "naive.json",
        )
        assert json.loads(fast)["assignments"] == json.loads(naive)["assignments"]

    def test_bench(self, blob_csv, tmp_path):
        code, raw = run_to_file(
            [
                "bench", "--input", blob_csv, "--labels", "class",
                "--k", "2", "--seed", "3", "--repeats", "2",
            ],
            tmp_path / "bench.json",
        )
        assert code == EXIT_OK
        report = json.loads(raw)
        assert report["all_partitions_equal"] is True
        assert report["acceleration_holds"] is True
        assert len(report["repeats"]) == 2
        assert report["repeats"][0] == report["repeats"][1]
        assert "timing" not in report
        exact = {"histories_equal": True, "first_differing_iteration": None, "ties_equal": True}
        assert {key: report["repeats"][0][key] for key in exact} == exact

    def test_bench_names_the_first_differing_iteration(self, blob_csv, tmp_path, monkeypatch, capsys):
        # the naive side's second iteration moved point 0 elsewhere: the partitions may still agree
        def skewed(ds, cfg, record_history=False):
            clustering, stats = lloyd_run(ds, cfg, record_history=record_history)
            clustering.history[2] = clustering.history[2].copy()
            clustering.history[2][0] = 1 - clustering.history[2][0]
            return clustering, stats

        monkeypatch.setattr(cli, "lloyd_run", skewed)
        code, raw = run_to_file(
            ["bench", "--input", blob_csv, "--labels", "class", "--k", "2", "--seed", "3"], tmp_path / "b.json"
        )
        assert code == EXIT_INVARIANT
        repeat = json.loads(raw)["repeats"][0]
        assert (repeat["histories_equal"], repeat["first_differing_iteration"]) == (False, 2)
        assert "runs differ" in capsys.readouterr().err

    def test_gb(self, blob_csv, tmp_path):
        code, raw = run_to_file(
            [
                "gb", "--input", blob_csv, "--labels", "class",
                "--purity", "0.95", "--seed", "7",
            ],
            tmp_path / "gb.json",
        )
        assert code == EXIT_OK
        report = json.loads(raw)
        assert report["all_splits_major_minor"] is True
        members = sorted(i for ball in report["balls"] for i in ball["members"])
        assert members == list(range(80))

    @pytest.mark.parametrize(
        "flags, sha256",
        [
            ([], "db18f099da3ff5ff09454fbc736c3d6880d6c0780d8da3b87a113174089e2bd1"),
            (["--overlap-resolution"], "694508479d3e15a23ba954312c3de954e8d92d573caaece2d620c5f8d5762125"),
        ],
    )
    def test_gb_report_bytes_pinned(self, tmp_path, flags, sha256):
        # four 4-D classes with 5% of labels redrawn, so overlap resolution splits further; the
        # manifest carries the artifact version, so a version bump re-pins these digests
        rng = np.random.default_rng(1)
        centers = rng.uniform(0.0, 7.0, (4, 4))
        y = rng.integers(0, 4, 200)
        x = rng.normal(centers[y], 1.0)
        y = np.where(rng.random(200) < 0.05, rng.integers(0, 4, 200), y)
        path = write_csv(tmp_path / "noisy.csv", [[f"{v:.6f}" for v in row] + [c] for row, c in zip(x, y)])
        argv = ["gb", "--input", path, "--labels", "4", "--purity", "0.95", "--min-points", "4", "--seed", "2"]
        code, raw = run_to_file(argv + flags, tmp_path / "gb.json")
        assert code == EXIT_OK
        assert json.loads(raw)["splits"] == (31 if flags else 19)
        assert hashlib.sha256(raw).hexdigest() == sha256

    @pytest.mark.parametrize(
        "command, argv, ties, sha256",
        [
            ("cluster", ["BLOBS", "--labels", "class", "--k", "2", "--seed", "3"], 0,
             "5ae9fabfd8ca88794bd01651f73f193e7e7356b777096f74ca0ef7f590b19b74"),
            ("lloyd", ["BLOBS", "--labels", "class", "--k", "2", "--seed", "3"], 0,
             "47815a1823c2cd08a176a7c4f696b586311011349d8ce37639012833b5b2c3da"),
            ("cluster", ["LINE", "--k", "3", "--seed", "0", "--init", "plusplus"], 1,
             "493e66b564d70ac1adbe107416eb4f9c538b72033319d43d8f15c03f50a34267"),
            ("lloyd", ["LINE", "--k", "3", "--seed", "0", "--init", "plusplus"], 1,
             "047fb37e3fd656015b46a82eb16f6f89fe4b5dc480a4462ef7fdba8093e20c8d"),
        ],
    )
    def test_cluster_report_bytes_pinned(self, blob_csv, tmp_path, command, argv, ties, sha256):
        # the blob fixture, and the points 0..6 on a line, where ++ leaves point 3 tied between two centers
        line = write_csv(tmp_path / "line.csv", [[v] for v in range(7)])
        argv = ["--input", {"BLOBS": blob_csv, "LINE": line}[argv[0]], *argv[1:]]
        code, raw = run_to_file([command, *argv], tmp_path / "r.json")
        assert code == EXIT_OK
        assert len(json.loads(raw)["ties"]) == ties
        assert hashlib.sha256(raw).hexdigest() == sha256

    def test_sanitize_walks_only_non_finite_float_arrays(self):
        report = {
            "f": np.array([[1.5, np.inf], [-np.inf, np.nan]]),
            "g": np.array([0.1, -0.0]),
            "i": np.arange(3, dtype=np.int32),
            "b": np.array([True, False]),
            "s": [{frozenset({2, 1}), np.float64(np.nan), np.int64(4)}],
        }
        assert json.dumps(_sanitize(report), sort_keys=True) == (
            '{"b": [true, false], "f": [[1.5, "inf"], ["-inf", "nan"]], "g": [0.1, -0.0], '
            '"i": [0, 1, 2], "s": [[4, [1, 2], "nan"]]}'
        )

    @pytest.mark.parametrize(
        "argv, sha256",
        [
            (
                ["--universe", "1,2,3,4,5", "--partition", "1,2|3|4,5"],
                "69d4409a55d4fb589f50b4489026a5f95bd60442264a5d5bae946df20572fcbc",
            ),
            (
                ["--input", "BLOBS", "--labels", "class", "--k", "2", "--seed", "3"],
                "201b059640987812983465cc13362f0deb2605a240682445748f26d586d91a3f",
            ),
            (
                ["--input", "BLOBS", "--labels", "class", "--k", "3", "--seed", "1"],
                "39d547cedc545798440a5db76a1fe54c8275ab7d7199e069deffbcd8358d0567",
            ),
        ],
    )
    def test_crrf_demo_report_bytes_pinned(self, blob_csv, tmp_path, argv, sha256):
        # both modes: the partition tables (exhaustive checks) and the clustering trace over 80
        # points (sampled checks); a report that followed frozenset hash order would not pin
        argv = [blob_csv if a == "BLOBS" else a for a in argv]
        code, raw = run_to_file(["crrf-demo", *argv], tmp_path / "crrf.json")
        assert code == EXIT_OK
        assert hashlib.sha256(raw).hexdigest() == sha256

    def test_verify_metric_pass_and_fail(self, blob_csv, tmp_path):
        code, raw = run_to_file(
            ["verify-metric", "--input", blob_csv, "--labels", "class", "--metric", "euclidean"],
            tmp_path / "m1.json",
        )
        assert code == EXIT_OK and json.loads(raw)["pass"] is True
        code, raw = run_to_file(
            [
                "verify-metric", "--input", blob_csv, "--labels", "class",
                "--metric", "sqeuclidean", "--declare", "metric",
            ],
            tmp_path / "m2.json",
        )
        assert code == EXIT_VERIFY
        report = json.loads(raw)
        assert report["pass"] is False and report["flags"]["triangle"] is False
        assert "triangle" in report["counterexamples"]

    def test_verify_algebra(self, tmp_path):
        code, raw = run_to_file(
            ["verify-algebra", "--center", "0", "--radius", "3"],
            tmp_path / "alg.json",
        )
        assert code == EXIT_OK
        report = json.loads(raw)
        assert report["pass"] is True
        assert report["dom_contained"] is True
        assert report["properness_witness"] is not None

    def test_verify_algebra_with_v_csv(self, tmp_path):
        path = write_csv(tmp_path / "v.csv", [[float(t)] for t in range(-2, 3)])
        code, raw = run_to_file(
            ["verify-algebra", "--center", "0", "--radius", "2", "--v-csv", path],
            tmp_path / "alg2.json",
        )
        assert code == EXIT_OK and json.loads(raw)["pass"] is True

    def test_verify_axioms_partition(self, tmp_path):
        code, raw = run_to_file(
            ["verify-axioms", "--universe", "1,2,3", "--partition", "1,2|3", "--suite", "ggs"],
            tmp_path / "ax.json",
        )
        assert code == EXIT_OK and json.loads(raw)["pass"] is True

    def test_verify_axioms_bytes_do_not_depend_on_the_hash_seed(self):
        # frozenset witnesses iterate in hash order; the report must not
        args = ["verify-axioms", "--universe", "1,2,3,4", "--partition", "1,2,3,4", "--suite", "ggs"]
        src = str(Path(granule.__file__).resolve().parents[1])
        outputs = []
        for seed in ("1", "2"):
            path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
            env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path}
            proc = subprocess.run([sys.executable, "-m", "granule.cli", *args], env=env, capture_output=True, timeout=120)
            assert proc.returncode == EXIT_VERIFY, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0])["axioms"]["FU"]["witness"] == ["{1,2,3,4}", "{1,2,3,4}"]

    def test_verify_axioms_system_file(self, tmp_path):
        sys_, _ = pt2_violation()
        path = tmp_path / "system.txt"
        path.write_text(format_system_file(sys_))
        code, raw = run_to_file(
            ["verify-axioms", "--system", str(path), "--suite", "ggs"],
            tmp_path / "ax2.json",
        )
        assert code == EXIT_VERIFY
        report = json.loads(raw)
        assert report["axioms"]["PT2"]["passed"] is False
        # the same file under pre-ggs must pass (the axiom is excluded)
        code, raw = run_to_file(
            ["verify-axioms", "--system", str(path), "--suite", "pre-ggs"],
            tmp_path / "ax3.json",
        )
        assert code == EXIT_OK

    def test_system_file_round_trip_through_cli(self, tmp_path):
        sys_, _ = pt2_violation()
        text = format_system_file(sys_)
        back = parse_system_file(text)
        assert back.n == sys_.n

    def test_crrf_demo_partition(self, tmp_path):
        code, raw = run_to_file(
            ["crrf-demo", "--universe", "1,2,3", "--partition", "1,2|3"],
            tmp_path / "crrf.json",
        )
        assert code == EXIT_OK
        report = json.loads(raw)
        assert report["mode"] == "partition"
        assert all(report["space_axioms"].values())
        assert report["xi"]["xi1"]["type1_ok"] is True

    def test_crrf_demo_clustering(self, blob_csv, tmp_path):
        code, raw = run_to_file(
            ["crrf-demo", "--input", blob_csv, "--labels", "class", "--k", "2", "--seed", "3"],
            tmp_path / "crrf2.json",
        )
        assert code == EXIT_OK
        report = json.loads(raw)
        assert report["mode"] == "clustering-trace"
        assert report["all_spaces_pass_axioms"] is True
        assert report["final_entry_fixed_point"] is True

    def test_missing_input_is_ingestion_error(self, tmp_path):
        code = main(["cluster", "--input", str(tmp_path / "nope.csv"), "--k", "2", "--seed", "0"])
        assert code == EXIT_INGEST

    @pytest.mark.parametrize(
        "command, size, message",
        [("crrf-demo", 15, "exhaustion limit 14"), ("verify-axioms", 11, "capped at 10 base elements")],
    )
    def test_budget_error_is_usage_error(self, tmp_path, capsys, command, size, message):
        universe = ",".join(str(i) for i in range(1, size + 1))
        partition = "1,2|" + ",".join(str(i) for i in range(3, size + 1))
        code = main([command, "--universe", universe, "--partition", partition, "--out", str(tmp_path / "r.json")])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("budget error: ") and message in err and err.count("\n") == 1
        assert not (tmp_path / "r.json").exists()


class TestDeterminism:
    def test_reruns_are_byte_identical(self, blob_csv, tmp_path):
        args = ["cluster", "--input", blob_csv, "--labels", "class", "--k", "2", "--seed", "3"]
        _, first = run_to_file(args, tmp_path / "a.json")
        _, second = run_to_file(args, tmp_path / "b.json")
        assert first == second

    def test_bench_reruns_are_byte_identical(self, blob_csv, tmp_path):
        args = ["bench", "--input", blob_csv, "--labels", "class", "--k", "2", "--seed", "3"]
        _, first = run_to_file(args, tmp_path / "a.json")
        _, second = run_to_file(args, tmp_path / "b.json")
        assert first == second


class TestFlagRefusals:
    def test_missing_system_file_is_ingestion_error(self, tmp_path):
        code = main(["verify-axioms", "--system", str(tmp_path / "nope.txt")])
        assert code == EXIT_INGEST

    def test_negative_max_sample_refused(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", [[0, 0], [1, 1]])
        out = tmp_path / "m.json"
        assert main(["verify-metric", "--input", path, "--max-sample", "-1", "--out", str(out)]) == EXIT_USAGE
        assert not out.exists()
        assert main(["verify-metric", "--input", path, "--max-sample", "0", "--out", str(out)]) == EXIT_OK
        assert json.loads(out.read_bytes())["sample_size"] == 2  # 0 means no cap

    def test_negative_seed_refused(self, tmp_path, capsys):
        path = write_csv(tmp_path / "d.csv", [[0, 0], [1, 1]])
        assert main(["cluster", "--input", path, "--k", "1", "--seed", "-1"]) == EXIT_USAGE
        assert "seed must be non-negative, got -1" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["-1", "nan"])
    def test_tol_outside_finite_nonnegative_refused(self, tmp_path, tol):
        path = write_csv(tmp_path / "d.csv", [[0, 0], [1, 1]])
        algebra = ["verify-algebra", "--center", "0,0", "--radius", "2", "--tol", tol]
        assert main(algebra) == EXIT_USAGE
        assert main(["verify-metric", "--input", path, "--tol", tol]) == EXIT_USAGE

    @pytest.mark.skipif(DECODES_0XFF, reason="the default encoding decodes every byte")
    def test_undecodable_csv_is_ingestion_error(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"x,y\n1,2\n\xff,3\n")
        assert main(["cluster", "--input", str(path), "--k", "1"]) == EXIT_INGEST
        assert f"cannot decode {path}" in capsys.readouterr().err

    @pytest.mark.skipif(DECODES_0XFF, reason="the default encoding decodes every byte")
    def test_undecodable_system_file_is_ingestion_error(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_bytes(format_system_file(pt2_violation()[0]).encode() + b"# \xff\n")
        assert main(["verify-axioms", "--system", str(path)]) == EXIT_INGEST
        assert f"cannot decode {path}" in capsys.readouterr().err

    def test_plus_plus_overflow_is_usage_error(self, tmp_path, capsys):
        x = np.random.default_rng(0).normal(0, 1, (200, 3)) * 1e160  # squared distances overflow to inf
        path = write_csv(tmp_path / "big.csv", [[f"{v:.17g}" for v in row] for row in x])
        out = tmp_path / "c.json"
        with np.errstate(over="ignore"):
            assert main(["cluster", "--input", path, "--k", "3", "--init", "plusplus", "--out", str(out)]) == EXIT_USAGE
        assert "k-means++ squared distances overflow float64" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_repeats_refused(self, blob_csv, tmp_path):
        out = tmp_path / "b.json"
        args = ["bench", "--input", blob_csv, "--labels", "class", "--k", "2", "--out", str(out)]
        assert main(args + ["--repeats", "0"]) == EXIT_USAGE
        assert not out.exists()


def file_commands(csv_path, v_path, system_path):
    """Every command that reads a file, with the file it reads."""
    lab = ["--labels", "class"]
    return {
        "cluster": (csv_path, ["cluster", "--input", csv_path, *lab, "--k", "2"]),
        "lloyd": (csv_path, ["lloyd", "--input", csv_path, *lab, "--k", "2"]),
        "bench": (csv_path, ["bench", "--input", csv_path, *lab, "--k", "2"]),
        "gb": (csv_path, ["gb", "--input", csv_path, *lab, "--purity", "0.95"]),
        "verify-metric": (csv_path, ["verify-metric", "--input", csv_path, *lab]),
        "verify-algebra": (v_path, ["verify-algebra", "--center", "0", "--radius", "2", "--v-csv", v_path]),
        "crrf-demo": (csv_path, ["crrf-demo", "--input", csv_path, *lab, "--k", "2"]),
        "verify-axioms": (system_path, ["verify-axioms", "--system", system_path]),
    }


@pytest.mark.parametrize(
    "name",
    ["cluster", "lloyd", "bench", "gb", "verify-metric", "verify-algebra", "crrf-demo", "verify-axioms"],
)
def test_input_is_read_once_and_digested(name, blob_csv, tmp_path, monkeypatch):
    v_path = write_csv(tmp_path / "v.csv", [[float(t)] for t in range(-2, 3)])
    system_path = tmp_path / "system.txt"
    system_path.write_bytes(format_system_file(pt2_violation()[0]).encode())
    path, argv = file_commands(blob_csv, v_path, str(system_path))[name]
    opened = []
    real_open = builtins.open

    def spy_open(file, *args, **kwargs):
        opened.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", spy_open)
    out = tmp_path / "r.json"
    main(argv + ["--out", str(out)])
    monkeypatch.undo()
    report = json.loads(out.read_bytes())
    with open(path, "rb") as fh:
        assert report["manifest"]["input_digest"] == hashlib.sha256(fh.read()).hexdigest()
    assert opened.count(path) == 1


# Every subcommand's flags at the parser refactor: (default, choices, required, type).
FLAG_PIN = {
    "cluster": {
        "--input": (None, None, True, None),
        "--labels": (None, None, False, None),
        "--out": (None, None, False, None),
        "--k": (None, None, True, "int"),
        "--seed": (0, None, False, "int"),
        "--max-iter": (200, None, False, "int"),
        "--init": ("random", ("random", "plusplus"), False, None),
    },
    "lloyd": {
        "--input": (None, None, True, None),
        "--labels": (None, None, False, None),
        "--out": (None, None, False, None),
        "--k": (None, None, True, "int"),
        "--seed": (0, None, False, "int"),
        "--max-iter": (200, None, False, "int"),
        "--init": ("random", ("random", "plusplus"), False, None),
    },
    "bench": {
        "--input": (None, None, True, None),
        "--labels": (None, None, False, None),
        "--out": (None, None, False, None),
        "--k": (None, None, True, "int"),
        "--seed": (0, None, False, "int"),
        "--max-iter": (200, None, False, "int"),
        "--init": ("random", ("random", "plusplus"), False, None),
        "--repeats": (1, None, False, "int"),
        "--timing": (False, None, False, None),
    },
    "gb": {
        "--input": (None, None, True, None),
        "--labels": (None, None, False, None),
        "--out": (None, None, False, None),
        "--purity": (None, None, True, "float"),
        "--min-points": (1, None, False, "int"),
        "--split-k": (2, None, False, "int"),
        "--max-depth": (32, None, False, "int"),
        "--seed": (0, None, False, "int"),
        "--overlap-resolution": (False, None, False, None),
    },
    "verify-metric": {
        "--input": (None, None, True, None),
        "--labels": (None, None, False, None),
        "--out": (None, None, False, None),
        "--metric": (
            "euclidean",
            ("chebyshev", "euclidean", "forward-gap", "manhattan", "sqeuclidean"),
            False,
            None,
        ),
        "--declare": (
            None,
            ("general", "pseudometric", "semimetric", "metric", "quasimetric", "weak-quasimetric"),
            False,
            None,
        ),
        "--tol": (1e-09, None, False, "float"),
        "--max-sample": (64, None, False, "int"),
    },
    "verify-algebra": {
        "--center": (None, None, True, None),
        "--radius": (None, None, True, "float"),
        "--v-csv": (None, None, False, None),
        "--grid": (None, None, False, None),
        "--tol": (1e-09, None, False, "float"),
        "--out": (None, None, False, None),
    },
    "verify-axioms": {
        "--system": (None, None, False, None),
        "--universe": (None, None, False, None),
        "--partition": (None, None, False, None),
        "--suite": ("ggs", ("mash", "ggs", "pre-ggs", "pre-star-ggs"), False, None),
        "--out": (None, None, False, None),
    },
    "crrf-demo": {
        "--universe": (None, None, False, None),
        "--partition": (None, None, False, None),
        "--input": (None, None, False, None),
        "--labels": (None, None, False, None),
        "--k": (2, None, False, "int"),
        "--seed": (0, None, False, "int"),
        "--max-iter": (200, None, False, "int"),
        "--out": (None, None, False, None),
    },
}


def test_flags_match_pin():
    sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    flags = {
        name: {
            a.option_strings[0]: (
                a.default,
                None if a.choices is None else tuple(a.choices),
                a.required,
                getattr(a.type, "__name__", None),
            )
            for a in parser._actions
            if not isinstance(a, argparse._HelpAction)
        }
        for name, parser in sub.choices.items()
    }
    assert flags == FLAG_PIN
