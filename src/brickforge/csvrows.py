"""The text of the rows of the store's CSV files, written as csv.writer
writes them, and their two readers.

A file of a store whose manifest.txt carries the export mark (see store)
holds the bytes export wrote.  Such a file is split into lines and read by
`export_lines` when a split at line ends and commas reads it as csv.reader
would; its rows are kept as lines until read.  Any other file is read by
csv.reader with every row parsed (`records`)."""
from __future__ import annotations

import csv
import io
import itertools
from fractions import Fraction
from operator import itemgetter

from .ecq import CurvePoint

HIT_COLUMNS = ("id", "a", "b", "m", "n", "x", "y", "z", "g_scale",
               "provenance", "family_tags", "f1_status")
FACTOR_COLUMNS = ("hit_id", "prime", "exponent", "is_residual")
FIBRE_COLUMNS = ("m", "n", "torsion_d1", "torsion_d2", "rank_lb", "generators")


def tuple_key(t) -> str:
    """(a, b, m, n) as a master_hits.csv row holds it: "a,b,m,n"."""
    return ",".join(map(str, t))


def serialize_points(points) -> str:
    return ";".join(f"{p.X.numerator}/{p.X.denominator}:{p.Y.numerator}/{p.Y.denominator}"
                    for p in points)


def parse_points(text: str) -> tuple:
    points = []
    for chunk in text.split(";"):
        if not chunk:
            continue
        xs, ys = chunk.split(":")
        xn, xd = xs.split("/")
        yn, yd = ys.split("/")
        if int(xd) == 0 or int(yd) == 0:
            raise ValueError(f"point {chunk} has a zero denominator")
        points.append(CurvePoint(Fraction(int(xn), int(xd)), Fraction(int(yn), int(yd))))
    return tuple(points)


def csv_line(fields) -> str:
    """One row as csv.writer writes it, without the line end."""
    # the rare row with a comma, quote or line break in a field goes to csv.writer
    line = ",".join(map(str, fields))
    if line.count(",") != len(fields) - 1 or '"' in line or "\r" in line or "\n" in line:
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerow(fields)
        line = buf.getvalue()[:-1]
    return line


_CHUNK_LINES = 4096


def csv_chunks(header, lines) -> list[bytes]:
    """A file's bytes, header and lines each ended by a line end, as chunks
    of _CHUNK_LINES lines encoded at a time: the file is never held both as
    text and as bytes."""
    chunks = [(",".join(header) + "\n").encode("ascii")]
    lines = iter(lines)
    while batch := list(itertools.islice(lines, _CHUNK_LINES)):
        batch.append("")
        chunks.append("\n".join(batch).encode("ascii"))
    return chunks


def export_lines(name: str, data: dict, columns) -> list[str] | None:
    """The lines after the header of file `name`, popped from `data` and
    decoded, if a split at line ends and commas reads the file as csv.reader
    would: its header is `columns`, it ends with a line end and it holds no
    quote or carriage return.  Else None, the file left in `data`."""
    raw = data[name]
    if (raw.startswith((",".join(columns) + "\n").encode("ascii")) and raw.endswith(b"\n")
            and b'"' not in raw and b"\r" not in raw):
        lines = data.pop(name).decode("ascii").split("\n")  # its bytes freed
        del lines[0], lines[-1]  # the header and the empty tail
        return lines
    return None


def records(name: str, data: dict, columns, parse):
    """`parse` of the named columns of each row of file `name`, popped from
    `data` and read by csv.reader, a blank line skipped; an error in a row,
    from csv.reader or from `parse`, is raised again as a ValueError naming
    the file and the row (for csv.reader, the line it stopped at)."""
    # decoded a chunk at a time: a StringIO of the whole file costs 4 bytes a character
    rows = csv.reader(io.TextIOWrapper(io.BytesIO(data.pop(name)), encoding="ascii",
                                       newline=""))
    try:
        header = next(rows, [])
        for col in columns:
            if col not in header:
                raise ValueError(f"{name}: no column {col!r}")
        pick = itemgetter(*(header.index(col) for col in columns))
        for number, row in enumerate(rows, start=2):
            if len(row) != len(header):
                if not row:  # a blank line
                    continue
                raise ValueError(f"{name} row {number}: {len(row)} fields, "
                                 f"expected {len(header)}")
            try:
                parsed = parse(pick(row))
            except ValueError as err:
                raise ValueError(f"{name} row {number}: {err}") from None
            yield parsed
    except csv.Error as err:
        raise ValueError(f"{name} line {rows.line_num}: {err}") from None
