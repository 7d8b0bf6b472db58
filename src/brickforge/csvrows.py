"""The text of the rows of the store's CSV files, written as csv.writer
writes them.  A row export would write back unchanged is kept as its line:
its integers read 0|-?[1-9][0-9]*, a hit row's tags are sorted, distinct
and non-empty, a fibre row's fractions are reduced with d > 0."""
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


def tuple_key(t) -> str:
    """(a, b, m, n) as a master_hits.csv row holds it: "a,b,m,n"."""
    return ",".join(map(str, t))


def kept_hit(line: str):
    """The match of a master_hits.csv line export would write back as it
    is, or None; its groups are the id, "a,b,m,n" and the tags."""
    found = _HIT_LINE.fullmatch(line)
    tags = found and found[3]
    if tags and tags != ";".join(sorted(set(filter(None, tags.split(";"))))):
        return None
    return found


def kept_fibre(line: str):
    """The match of a fibers.csv line export would write back as it is, or
    None; its groups are m, n and the generators."""
    found = _FIBRE_LINE.fullmatch(line)
    if found and found[3]:
        ints = list(map(int, re.split("[/:;]", found[3])))
        if any(gcd(n, d) != 1 for n, d in zip(ints[::2], ints[1::2])):
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


def csv_bytes(header, lines) -> bytes:
    return "\n".join([",".join(header), *lines, ""]).encode("ascii")


def records(name: str, data: dict[str, bytes], columns, keep=None):
    """Each row of one file: what `keep` returns for its fields joined by
    commas (tried when the header is exactly `columns`), unless None, else
    its named columns.  A file with no quote and no carriage return is split
    on line ends, as csv.reader would split it; any other goes through it."""
    if b'"' in data[name] or b"\r" in data[name]:
        # decoded a chunk at a time: a StringIO of the whole file costs 4 bytes a character
        rows = csv.reader(io.TextIOWrapper(io.BytesIO(data.pop(name)), encoding="ascii",
                                           newline=""))
        header = next(rows, [])
        rows = ((",".join(row), row) for row in rows)
    else:  # the bytes are freed once decoded, the text once split
        lines = data.pop(name).decode("ascii").split("\n")
        header = lines[0].split(",")
        rows = ((line, None) for line in itertools.islice(lines, 1, None))
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
        yield pick(row)
