"""The text of the rows of the store's CSV files, written as csv.writer
writes them.  A row export would write back unchanged is kept as its line:
its integers read 0|-?[1-9][0-9]*, a hit row's tags are sorted, distinct
and non-empty, a fibre row's fractions are reduced with d > 0.

Each file has two readers.  A file whose every row is in that form is read
by one findall (`rows_in_export_form`), its rows kept as lines: Python work
per row is left for the family tags and generators that are not empty.
Any other file, and every f1_factors.csv, is read by csv.reader with every
row parsed (`records`)."""
from __future__ import annotations

import csv
import io
import itertools
import re
from fractions import Fraction
from math import gcd
from operator import itemgetter

from .ecq import CurvePoint

HIT_COLUMNS = ("id", "a", "b", "m", "n", "x", "y", "z", "g_scale",
               "provenance", "family_tags", "f1_status")
FACTOR_COLUMNS = ("hit_id", "prime", "exponent", "is_residual")
FIBRE_COLUMNS = ("m", "n", "torsion_d1", "torsion_d2", "rank_lb", "generators")

# an integer field export writes back as it is: str(int(s)) == s
_INT = r"(?:0|-?[1-9][0-9]*)"
_TEXT = r'[^,"\r\n]*'
# groups: id, "a,b,m,n" and the family tags
_HIT_LINE = rf"({_INT}),({_INT}(?:,{_INT}){{3}})(?:,{_INT}){{4}},{_TEXT},({_TEXT}),{_TEXT}"
_POINT = rf"{_INT}/[1-9][0-9]*:{_INT}/[1-9][0-9]*"
# groups: m, n and the generators
_FIBRE_LINE = rf"({_INT}),({_INT}),{_INT},{_INT},{_INT}?,((?:{_POINT}(?:;{_POINT})*)?)"
# every such line of a file, whole: groups the line, then those above
HIT_ROWS = re.compile(rf"^({_HIT_LINE})$", re.M)
FIBRE_ROWS = re.compile(rf"^({_FIBRE_LINE})$", re.M)
_POINT_SEPARATORS = re.compile("[/:;]")


def tuple_key(t) -> str:
    """(a, b, m, n) as a master_hits.csv row holds it: "a,b,m,n"."""
    return ",".join(map(str, t))


def kept_tags(tags: str) -> bool:
    """Whether export writes a hit row's family tags back as they are."""
    return tags == ";".join(sorted(set(filter(None, tags.split(";")))))


def kept_points(generators: str) -> bool:
    """Whether each fraction of a fibre row's generators, a field FIBRE_ROWS
    matched, is reduced."""
    ints = list(map(int, _POINT_SEPARATORS.split(generators)))
    return set(map(gcd, ints[::2], ints[1::2])) <= {1}


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


def rows_in_export_form(name: str, data: dict, columns, rows: re.Pattern,
                        kept) -> tuple | None:
    """One findall of `rows` over file `name`, popped from `data`, as a
    tuple per group (the lines first), if the file is in export form: its
    header is `columns`, each line ends with a line end and is a match, and
    `kept` holds for each last group that is not empty.  A match count equal
    to the line count proves the form, as no match spans a line end and the
    header is none; nor does a match hold a quote or a carriage return, so
    a line csv.reader would split otherwise is never one.  Else None, and
    the file's bytes go back into `data` for records."""
    text = data.pop(name).decode("ascii")  # its bytes freed
    if text.startswith(",".join(columns) + "\n") and text.endswith("\n"):
        found = rows.findall(text)
        if (len(found) == text.count("\n") - 1
                and all(map(kept, filter(None, map(itemgetter(-1), found))))):
            del text  # the lines hold what is kept of it
            return tuple(zip(*found)) or ((),) * rows.groups
    data[name] = text.encode("ascii")
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
