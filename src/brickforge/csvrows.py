"""The text of the rows of the store's CSV files, written as csv.writer
writes them.  A row export would write back unchanged is kept as its line:
its integers read 0|-?[1-9][0-9]*, a hit row's tags are sorted, distinct
and non-empty, a fibre row's fractions are reduced with d > 0.

A file whose every row is in that form is read by one findall
(`rows_in_export_form`): Python work per row is left for the family tags
and generators that are not empty.  Any other file is read a row at a
time (`records`)."""
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
_HIT_LINE = re.compile(
    rf"({_INT}),({_INT}(?:,{_INT}){{3}})(?:,{_INT}){{4}},{_TEXT},({_TEXT}),{_TEXT}")
_POINT = rf"{_INT}/[1-9][0-9]*:{_INT}/[1-9][0-9]*"
# groups: m, n and the generators
_FIBRE_LINE = re.compile(rf"({_INT}),({_INT}),{_INT},{_INT},{_INT}?,((?:{_POINT}(?:;{_POINT})*)?)")
# every such line of a file, whole: groups the line, then those above
HIT_ROWS = re.compile(rf"^({_HIT_LINE.pattern})$", re.M)
FIBRE_ROWS = re.compile(rf"^({_FIBRE_LINE.pattern})$", re.M)
_POINT_SEPARATORS = re.compile("[/:;]")


def tuple_key(t) -> str:
    """(a, b, m, n) as a master_hits.csv row holds it: "a,b,m,n"."""
    return ",".join(map(str, t))


def kept_tags(tags: str) -> bool:
    """Whether export writes a hit row's family tags back as they are."""
    return tags == ";".join(sorted(set(filter(None, tags.split(";")))))


def kept_points(generators: str) -> bool:
    """Whether each fraction of a fibre row's generators, a field _FIBRE_LINE
    matched, is reduced."""
    ints = list(map(int, _POINT_SEPARATORS.split(generators)))
    return set(map(gcd, ints[::2], ints[1::2])) <= {1}


def kept_hit(line: str):
    """The match of a master_hits.csv line export would write back as it
    is, or None; its groups are the id, "a,b,m,n" and the tags."""
    found = _HIT_LINE.fullmatch(line)
    if found and found[3] and not kept_tags(found[3]):
        return None
    return found


def kept_fibre(line: str):
    """The match of a fibers.csv line export would write back as it is, or
    None; its groups are m, n and the generators."""
    found = _FIBRE_LINE.fullmatch(line)
    if found and found[3] and not kept_points(found[3]):
        return None
    return found


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


def _decode(name: str, data: dict) -> bool:
    """Decodes file `name` in `data` in place, its bytes freed, unless it
    holds a quote or a carriage return: only csv.reader splits such a file
    as csv.writer meant, so it is left as bytes and False returned."""
    if type(data[name]) is str:
        return True
    if b'"' in data[name] or b"\r" in data[name]:
        return False
    data[name] = data[name].decode("ascii")
    return True


def rows_in_export_form(name: str, data: dict, columns, rows: re.Pattern,
                        kept) -> tuple | None:
    """One findall of `rows` over file `name`, popped from `data`, as a
    tuple per group (the lines first), if the file is in export form: its
    header is `columns`, each line ends with a line end and is a match, and
    `kept` holds for each last group that is not empty.  A match count equal
    to the line count proves the form, as no match spans a line end and the
    header is none.  Else None, and the file, decoded if it can be, stays
    in `data` for records."""
    if not _decode(name, data):
        return None
    text = data[name]
    if not (text.startswith(",".join(columns) + "\n") and text.endswith("\n")):
        return None
    found = rows.findall(text)
    if (len(found) != text.count("\n") - 1
            or not all(map(kept, filter(None, map(itemgetter(-1), found))))):
        return None
    del data[name], text  # the lines hold what is kept of it
    return tuple(zip(*found)) or ((),) * rows.groups


def records(name: str, data: dict, columns, parse, keep=None):
    """Each row of one file: what `keep` returns for its fields joined by
    commas (tried when the header is exactly `columns`), unless None, else
    `parse` of its named columns, a ValueError from it raised again naming
    the file and row.  A file with no quote and no carriage return is split
    on line ends, as csv.reader would split it; any other goes through it."""
    if _decode(name, data):  # the text is freed once split
        lines = data.pop(name).split("\n")
        header = lines[0].split(",")
        rows = ((line, None) for line in itertools.islice(lines, 1, None))
    else:
        # decoded a chunk at a time: a StringIO of the whole file costs 4 bytes a character
        rows = csv.reader(io.TextIOWrapper(io.BytesIO(data.pop(name)), encoding="ascii",
                                           newline=""))
        header = next(rows, [])
        rows = ((",".join(row), row) for row in rows)
    for col in columns:
        if col not in header:
            raise ValueError(f"{name}: no column {col!r}")
    pick = itemgetter(*(header.index(col) for col in columns))
    if header != list(columns):
        keep = None
    for number, (line, row) in enumerate(rows, start=2):
        kept = keep(line) if keep else None
        if kept:
            yield kept
            continue
        if row is None:
            row = line.split(",") if line else []
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
