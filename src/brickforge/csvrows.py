"""The text of the rows of the store's CSV files, and their one reader.

A row is one line of fields joined by commas: no field holds a comma, a
quote or a line break, and `csv_line` refuses one that would.  `read_lines`
splits a file into the lines after its header.  A file whose manifest.txt
carries the export mark (see store) must hold exactly the bytes export
writes; any other may also have CRLF line ends, blank lines and no final
line end, which are normalised, and each of its rows is parsed once by
`parse_rows`, naming the row of a fault.  Either way a file whose header is
not export's, or that holds a quote or a bare carriage return, is refused
naming it."""
from __future__ import annotations

import itertools
from fractions import Fraction

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
    """One row as export writes it, without the line end; a field holding a
    comma, quote or line break is refused, as `read_lines` could not read it back."""
    line = ",".join(map(str, fields))
    if line.count(",") != len(fields) - 1 or '"' in line or "\r" in line or "\n" in line:
        bad = next(text for text in map(str, fields) if any(c in text for c in ',"\r\n'))
        raise ValueError(f"store field {bad!r} holds a comma, quote or line break")
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


def read_lines(name: str, data: dict, columns, marked: bool) -> list[str]:
    """The lines after the header of file `name`, its ASCII bytes popped
    from `data`; `marked` if it is under the export mark.  A refused file
    raises ValueError naming it: see the module docstring."""
    text = data.pop(name).decode("ascii")  # its bytes freed
    if not marked:
        text = text.replace("\r\n", "\n").rstrip("\n") + "\n"
    for char in ('"', "\r"):
        at = text.find(char)
        if at >= 0:
            line = text.count("\n", 0, at) + 1
            raise ValueError(f"{name} line {line}: a quote or a carriage return, "
                             "which no store field holds")
    header = ",".join(columns)
    if not text.startswith(header + "\n"):
        raise ValueError(f"{name}: the header is not {header}")
    rows = text.split("\n")
    if marked and rows.count("") != 1:  # a blank line, or none at the end
        raise ValueError(f"{name}: not the bytes export writes, though manifest.txt "
                         "carries the export mark")
    del rows[0], rows[-1]  # the header and the empty tail
    return rows


def parse_rows(name: str, lines, columns, parse):
    """`parse` of the fields of each of the `lines` of file `name`, a blank
    line skipped; a row with other than len(columns) fields, or one `parse`
    refuses, raises ValueError naming the file and the row."""
    for number, line in enumerate(lines, start=2):
        if not line:
            continue
        fields = line.split(",")
        if len(fields) != len(columns):
            raise ValueError(f"{name} row {number}: {len(fields)} fields, "
                             f"expected {len(columns)}")
        try:
            row = parse(fields)
        except ValueError as err:
            raise ValueError(f"{name} row {number}: {err}") from None
        yield row
