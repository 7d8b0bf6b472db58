"""In-memory hit database with byte-stable CSV export.

Records are keyed by the slot-swap canonical form of their tuple, so a
rediscovery under sigma never creates a second row and never overwrites
the first writer's provenance.  Every row is held as its line of export
text, from import to export.  A read parses the lines it needs at each
call and returns frozen snapshots; the four setters (`insert_hit`,
`set_factorization`, `set_family_tags`, `upsert_fibre`) are the only way a
row changes.  `insert_hit` forms a new hit's line from its canonical tuple,
as the key's text, and `master.row_fields`, with no record built to be
formatted.  Its g_scale is gcd(U1, U2), as the triples are primitive:
gcd(x, y) = U2 and gcd(x, z) = U1, so gcd(x, y, z) = gcd(U1, U2).

An export replaces each file atomically, manifest.txt first, and an import
checks every file against the sha256 listed in manifest.txt, so a torn
export or a damaged file is rejected rather than loaded.  A store without
a manifest.txt still loads, unchecked.  The first line of the manifest
export writes, EXPORT_MARK, says that every file listed below it holds
exactly the bytes export would write for its lines.  Under it a file's
lines are kept as they are; without it each row is parsed once at import
and kept as the line export writes for it.  Export builds and writes a CSV
only when a setter put a different line into it since this store read or
wrote it, or when it was not known at import to hold export's bytes: no
mark, or keys not ascending.  So the mark holds by induction.
"""
from __future__ import annotations

import contextlib
import hashlib
import itertools
import operator
import os
import re
import sys
from dataclasses import dataclass, replace
from math import prod
from operator import itemgetter, methodcaller

from . import csvrows, master
from .ecq import TORSION_STRUCTURE, on_curve
from .families import FAMILY_TAGS
from .fibration import build_fibre
from .master import MasterTuple
from .ntkernel import Factorization, is_prime

F1_STATUSES = ("none", "partial", "full")
_PROVENANCE = re.compile(r"Exhaustive-Bound-\d+|Rathbun-Search|Saunderson-Generator|MW-\d+-\d+")
CSV_NAMES = ("master_hits.csv", "f1_factors.csv", "fibers.csv")
# the first line of manifest.txt as export writes it: see the module docstring
EXPORT_MARK = "brickforge-export 1"


@dataclass(frozen=True)
class HitRecord:
    id: int
    a: int
    b: int
    m: int
    n: int
    x: int
    y: int
    z: int
    g_scale: int
    provenance: str
    family_tags: frozenset = frozenset()
    f1_status: str = "none"

    @property
    def tuple(self) -> MasterTuple:
        return MasterTuple(self.a, self.b, self.m, self.n)


@dataclass(frozen=True)
class FactorRow:
    hit_id: int
    prime: int
    exponent: int
    is_residual: bool


@dataclass(frozen=True)
class FibreRow:
    m: int
    n: int
    torsion_d1: int
    torsion_d2: int
    rank_lb: int | None = None
    generators: tuple = ()


class Store:
    def __init__(self):
        # CPython caps int<->str conversion length; lifted tuples exceed it
        if hasattr(sys, "set_int_max_str_digits"):
            sys.set_int_max_str_digits(max(sys.get_int_max_str_digits(), 2_000_000))
        # each row as its line of export text: a hit's by its id
        self._hits: dict[int, str] = {}
        # "a,b,m,n" of a sigma-canonical tuple, as a row holds it -> hit id
        self._by_tuple: dict[str, int] = {}
        # a hit's factor rows as their lines joined by "\n", a fibre's by its pair
        self._factors: dict[int, str] = {}
        self._fibres: dict[tuple, str] = {}
        self._next_id = 1
        # file name -> (sha256, stat signature) of a file known to hold the bytes
        # export would write: last read or written here, no line of it changed since
        self._on_disk: dict[str, tuple[str, tuple]] = {}

    def __len__(self) -> int:
        return len(self._hits)

    def _put(self, name: str, rows: dict, key, line: str | None) -> None:
        """Sets rows[key], a line of file `name` (None drops it), which export then builds again."""
        if rows.get(key) != line:
            rows[key] = line
            if line is None:  # a hit set to status none holds no factor rows
                del rows[key]
            self._on_disk.pop(name, None)

    def hits(self) -> list[HitRecord]:
        return [self.get(i) for i in sorted(self._hits)]

    def get(self, hit_id: int) -> HitRecord:
        return _hit_record(self._hits[hit_id].split(","))

    def find(self, t: MasterTuple):
        hit_id = self._by_tuple.get(csvrows.tuple_key(master.sigma_canonical(t)))
        return None if hit_id is None else self.get(hit_id)

    def factor_rows(self, hit_id: int) -> list[FactorRow]:
        rows, lines = [], self._factors[hit_id].split("\n") if hit_id in self._factors else []
        for i, line in enumerate(lines):
            try:
                rows.append(_factor_row(line.split(","), self._hits))
            except ValueError as err:
                # the row as loaded: after the rows of every smaller hit id
                row = 2 + i + sum(r.count("\n") + 1 for h, r in self._factors.items() if h < hit_id)
                raise ValueError(f"f1_factors.csv row {row}: {err}") from None
        return rows

    def fibres(self) -> list[FibreRow]:
        return [_fibre_row(self._fibres[key].split(",")) for key in sorted(self._fibres)]

    def insert_hit(self, t: MasterTuple, provenance: str) -> tuple[int, bool]:
        """Returns (id, created); created is False for a sigma-duplicate,
        whose original provenance is retained untouched."""
        canon = master.sigma_canonical(t)
        key = csvrows.tuple_key(canon)
        hit_id = self._by_tuple.get(key, self._next_id)
        _refuse(_provenance_faults(hit_id, provenance))
        x, y, z, g_scale, dyz = master.row_fields(canon)
        if dyz is None:
            raise ValueError(f"{tuple(t)} is not a Master-Hit")
        if key in self._by_tuple:
            return hit_id, False
        self._put("master_hits.csv", self._hits, hit_id,
                  _hit_line(hit_id, key.split(","), x, y, z, g_scale, provenance, "", "none"))
        self._by_tuple[key] = hit_id
        self._next_id += 1
        return hit_id, True

    def set_factorization(self, hit_id: int, fact: Factorization) -> None:
        """Refuses, changing nothing, a row a read refuses (naming the hit) and
        the first finding of `_factor_faults`, which proves no prime factor() proved."""
        rec = replace(self.get(hit_id), f1_status=fact.status)
        pieces = [(p, e, 0) for p, e in fact.factors] + [(fact.residual, 1, 1)] * (fact.residual > 1)
        try:
            rows = sorted((_factor_row((hit_id, *piece), self._hits) for piece in pieces), key=_factor_order)
        except ValueError as err:
            raise ValueError(f"hit {hit_id}: {err}") from None
        _refuse(_factor_faults(rec, rows, fact.proved))
        self._put("f1_factors.csv", self._factors, hit_id, "\n".join(map(_line, rows)) or None)
        self._put("master_hits.csv", self._hits, hit_id, _line(rec))

    def factorization_of(self, rec: HitRecord) -> Factorization | None:
        """The factorization of `rec`, its status read from it; refused as `_read_faults` finds."""
        rows = self.factor_rows(rec.id)
        _refuse(_read_faults(rec, rows))
        if rec.f1_status == "none":
            return None
        return Factorization(factors=[(r.prime, r.exponent) for r in rows if not r.is_residual],
                             residual=prod(r.prime ** r.exponent for r in rows if r.is_residual),
                             status=rec.f1_status)

    def set_family_tags(self, hit_id: int, tags) -> None:
        """Refuses a tag `_tag_faults` finds; changes only the tags field of the hit's line."""
        tags = sorted(set(tags))
        _refuse(_tag_faults(hit_id, tags))
        head, _, status = self._hits[hit_id].rsplit(",", 2)
        self._put("master_hits.csv", self._hits, hit_id, f"{head},{';'.join(tags)},{status}")

    def upsert_fibre(self, row: FibreRow) -> None:
        _refuse(_fibre_faults(row))
        self._put("fibers.csv", self._fibres, (row.m, row.n), _line(row))


def validate_consistency(store: Store) -> list[str]:
    """Re-derives every identity field and lists violations by id; rows by the setters' rules."""
    bad: list[str] = []
    for rec in store.hits():
        try:  # row_fields tests admissibility once; the reason is sought only for a refusal
            x, y, z, g_scale, dyz = master.row_fields(rec.tuple)
        except ValueError:
            bad.append(f"hit {rec.id}: inadmissible ({master.is_admissible(*rec.tuple)[1]})")
            continue
        if (rec.m, rec.n) < (rec.a, rec.b):  # sigma_canonical would swap the pairs
            bad.append(f"hit {rec.id}: not sigma-canonical")
        if dyz is None:
            bad.append(f"hit {rec.id}: M is not a square")
            continue
        stored = (rec.x, rec.y, rec.z, rec.g_scale)
        for name, want, got in zip(("x", "y", "z", "g_scale"), (x, y, z, g_scale), stored):
            if want != got:
                bad.append(f"hit {rec.id}: {name} is {got}, derived {want}")
        bad += _provenance_faults(rec.id, rec.provenance)
        if rec.family_tags:
            bad += _tag_faults(rec.id, rec.family_tags)
        if rec.f1_status != "none" or rec.id in store._factors:  # else the rule finds nothing
            bad += _factor_faults(rec, store.factor_rows(rec.id))
    for row in store.fibres():
        bad.extend(_fibre_faults(row))
    return bad


def _refuse(faults: list[str]) -> None:
    """A setter's refusal: the first finding of its rule, as `verify consistency` prints it."""
    if faults:
        raise ValueError(faults[0])


def _provenance_faults(hit_id: int, provenance: str) -> list[str]:
    return [] if _PROVENANCE.fullmatch(provenance) else [f"hit {hit_id}: bad provenance {provenance!r}"]


def _tag_faults(hit_id: int, tags) -> list[str]:
    # no name in FAMILY_TAGS is empty or holds ";" or ",": every tag reads back
    return [] if set(tags) <= set(FAMILY_TAGS) else [f"hit {hit_id}: unknown family tags"]


def _read_faults(rec: HitRecord, rows: list[FactorRow]) -> list[str]:
    """The faults of a hit's status and factor rows that cost no is_prime,
    which every read refuses: a bad status, rows under status none, no rows,
    a repeated prime, full with a residual row, partial without one, and a
    product that is not f1."""
    status = rec.f1_status
    if status not in F1_STATUSES:
        return [f"hit {rec.id}: bad f1_status {status!r}"]
    if status == "none":
        return [f"hit {rec.id}: factor rows without factorization status"] if rows else []
    if not rows:
        return [f"hit {rec.id}: status {status} but no factor rows"]
    bad = []
    primes = [r.prime for r in rows if not r.is_residual]
    if len(set(primes)) != len(primes):
        bad.append(f"hit {rec.id}: repeated prime rows")
    if status == "full" and len(primes) < len(rows):
        bad.append(f"hit {rec.id}: full status with a residual row")
    if status == "partial" and len(primes) == len(rows):
        bad.append(f"hit {rec.id}: partial status without a residual row")
    if prod(row.prime ** row.exponent for row in rows) != master.f1(rec.tuple):
        bad.append(f"hit {rec.id}: factor rows do not multiply back to f1")
    return bad


def _factor_faults(rec: HitRecord, rows: list[FactorRow], proved=()) -> list[str]:
    """`_read_faults`, then the two findings that need is_prime: a composite
    marked prime (unless `proved` holds it), and a partial's prime residual."""
    # every row has prime >= 2 and exponent >= 1: a read refuses any other
    return [*_read_faults(rec, rows),
            *(f"hit {rec.id}: composite {row.prime} marked prime" for row in rows
              if not (row.is_residual or row.prime in proved or is_prime(row.prime))),
            # factor() gives a piece up only after is_prime refuses it
            *(f"hit {rec.id}: residual {row.prime} is prime" for row in rows
              if row.is_residual and rec.f1_status == "partial" and is_prime(row.prime))]


def _fibre_faults(row: FibreRow) -> list[str]:
    reason = master.pair_fault(row.m, row.n, "mn")
    if reason:
        return [f"fibre ({row.m},{row.n}): inadmissible ({reason})"]
    bad = []
    if (row.torsion_d1, row.torsion_d2) != TORSION_STRUCTURE:
        bad.append(f"fibre ({row.m},{row.n}): bad torsion ({row.torsion_d1},{row.torsion_d2})")
    c = build_fibre(row.m, row.n)
    bad.extend(f"fibre ({row.m},{row.n}): generator off curve"
               for pt in row.generators if not on_curve(c, pt))
    return bad


def export_csv(store: Store, dirpath) -> list[tuple[str, str]]:
    """Writes the three CSVs plus manifest.txt; returns (filename, sha256)
    pairs.  Ordering and formatting are fixed, so equal stores export
    byte-identical trees.

    A CSV not built under the rule of the module docstring is still the
    file this store last read or wrote (same device, inode, size and
    mtime), and its known sha256 is listed.  A built file is chunks of
    encoded lines, hashed chunk by chunk, written to `<name>.tmp` and moved
    over the old file with os.replace, manifest.txt first.  A crash at the
    manifest leaves the old store; a crash after it leaves old files that
    do not match the new manifest, which import_csv rejects.
    """
    on_disk, store._on_disk = store._on_disk, {}  # a failed export leaves nothing known
    manifest, files = [], {}
    for name, columns, rows in zip(CSV_NAMES, (csvrows.HIT_COLUMNS, csvrows.FACTOR_COLUMNS,
                                               csvrows.FIBRE_COLUMNS),
                                   (store._hits, store._factors, store._fibres)):
        known = on_disk.get(name)
        if known is not None and known[1] == _stat(os.path.join(dirpath, name)):
            manifest.append((name, known[0]))
            continue
        chunks = csvrows.csv_chunks(columns, map(rows.__getitem__, sorted(rows)))
        digest = hashlib.sha256()
        for chunk in chunks:
            digest.update(chunk)
        manifest.append((name, digest.hexdigest()))
        files[name] = chunks
    listed = "".join(f"{d}  {name}\n" for name, d in manifest)
    files = {"manifest.txt": [f"{EXPORT_MARK}\n{listed}".encode("ascii")], **files}
    os.makedirs(dirpath, exist_ok=True)
    paths = [os.path.join(dirpath, name) for name in files]
    try:
        for path, chunks in zip(paths, files.values()):
            with open(path + ".tmp", "wb") as fh:
                fh.writelines(chunks)
        for path in paths:
            os.replace(path + ".tmp", path)
    except OSError as err:
        for path in paths:
            with contextlib.suppress(OSError):
                os.remove(path + ".tmp")
        raise OSError(f"export to {dirpath} failed: {err}") from err
    store._on_disk = {name: (digest, _stat(os.path.join(dirpath, name)))
                      for name, digest in manifest}
    return manifest


def _stat(path) -> tuple | None:
    try:
        return _signature(os.stat(path))
    except OSError:
        return None


def _signature(st) -> tuple:
    return (st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns)


def _line(row) -> str:
    """A row as export writes it."""
    if type(row) is HitRecord:
        return _hit_line(row.id, (row.a, row.b, row.m, row.n), row.x, row.y, row.z, row.g_scale,
                         row.provenance, ";".join(sorted(row.family_tags)), row.f1_status)
    if type(row) is FibreRow:
        fields = (row.m, row.n, row.torsion_d1, row.torsion_d2,
                  "" if row.rank_lb is None else row.rank_lb,
                  csvrows.serialize_points(row.generators))
    else:
        fields = (row.hit_id, row.prime, row.exponent, int(row.is_residual))
    return csvrows.csv_line(fields)


def _hit_line(hit_id, t, x, y, z, g_scale, provenance, tags, status) -> str:
    """A hit row as export writes it, t its a, b, m, n: the one statement of HIT_COLUMNS' order."""
    return csvrows.csv_line((hit_id, *t, x, y, z, g_scale, provenance, tags, status))


def _factor_order(row: FactorRow) -> tuple:
    """Where export writes a factor row: by hit, primes before the residual."""
    return row.hit_id, row.is_residual, row.prime


def import_csv(dirpath) -> Store:
    """Loads an exported store, reading each file once.

    When manifest.txt is present, every CSV must match the digest it lists
    there; a store without a manifest (built by hand) loads unchecked.
    Either way a repeated hit id, a repeated (a, b, m, n) row or a repeated
    fibre is rejected, and so is a factor row whose hit id names no hit.  A
    damaged or inconsistent file raises ValueError naming it, and the row
    where there is one; a missing one raises OSError.

    Under EXPORT_MARK ids and keys are taken by C-level maps over
    line.split, with no Python call per row.  Without it every row is
    parsed once, so a field that is no integer, a zero denominator or an
    impossible factor row is refused here, naming the row.  A byte that is
    not ASCII, in any of the four files, is refused naming the file, its
    offset there and its line.
    """
    data, stats = {}, {}
    for name in CSV_NAMES:
        data[name], stats[name] = _read(os.path.join(dirpath, name))
    digests = {name: hashlib.sha256(raw).hexdigest() for name, raw in data.items()}
    manifest = os.path.join(dirpath, "manifest.txt")
    marked = os.path.exists(manifest) and _check_manifest(_read(manifest)[0], digests)
    for name, raw in data.items():
        _ascii(name, raw)
    store = Store()
    ascending = (_import_hits(store, data, marked), _import_factors(store, data, marked),
                 _import_fibres(store, data, marked))
    store._next_id = max(1, max(store._hits, default=0) + 1)
    # a marked file whose keys ascend holds the bytes export would write
    store._on_disk = {name: (digests[name], stats[name])
                      for name, known in zip(CSV_NAMES, ascending) if marked and known}
    return store


def _lines(name: str, data: dict, columns, marked: bool, parse, order=None) -> list[str]:
    """The rows of file `name` as lines: as they are under the mark, else
    each parsed once by `parse`, sorted by `order` if given, and written as
    export writes it."""
    lines = csvrows.read_lines(name, data, columns, marked)
    if marked:
        return lines
    rows = csvrows.parse_rows(name, lines, columns, parse)
    return list(map(_line, rows if order is None else sorted(rows, key=order)))


def _import_hits(store: Store, data: dict, marked: bool) -> bool:
    """Loads master_hits.csv; True if its ids ascend."""
    lines = _lines("master_hits.csv", data, csvrows.HIT_COLUMNS, marked, _hit_record)
    # (id, [a, b, m, n]) of each line: the rest of it is not held
    heads = list(map(itemgetter(0, slice(1, 5)), map(methodcaller("split", ",", 5), lines)))
    ids = list(map(int, map(itemgetter(0), heads)))
    keys = list(map(",".join, map(itemgetter(1), heads)))
    del heads
    store._hits, store._by_tuple = dict(zip(ids, lines)), dict(zip(keys, ids))
    if not len(store._hits) == len(store._by_tuple) == len(ids):  # name the first repeat
        seen, first = set(), {}
        for hit_id, key in zip(ids, keys):
            if hit_id in seen:
                raise ValueError(f"master_hits.csv: duplicate hit id {hit_id}")
            if key in first:
                raise ValueError(f"master_hits.csv: tuple ({key.replace(',', ', ')}) in hits "
                                 f"{first[key]} and {hit_id}")
            seen.add(hit_id)
            first[key] = hit_id
    return all(map(operator.lt, ids, ids[1:]))


def _import_factors(store: Store, data: dict, marked: bool) -> bool:
    """Loads f1_factors.csv; True if its hit ids do not descend."""
    lines = _lines("f1_factors.csv", data, csvrows.FACTOR_COLUMNS, marked,
                   lambda fields: _factor_row(fields, store._hits), _factor_order)
    ids = list(map(int, map(itemgetter(0), map(methodcaller("split", ",", 1), lines))))
    # export writes a hit's rows together; the stable sort costs a pass when they are
    store._factors = {hit_id: "\n".join(map(itemgetter(1), rows)) for hit_id, rows in
                      itertools.groupby(sorted(zip(ids, lines), key=itemgetter(0)), itemgetter(0))}
    orphans = store._factors.keys() - store._hits.keys()
    if orphans:  # under the mark: `_factor_row` refused any other at import
        row = min(map(ids.index, orphans))
        raise ValueError(f"f1_factors.csv row {row + 2}: factor row for hit id {ids[row]}, "
                         "which names no hit")
    return all(map(operator.le, ids, ids[1:]))


def _import_fibres(store: Store, data: dict, marked: bool) -> bool:
    """Loads fibers.csv; True if its pairs ascend."""
    lines = _lines("fibers.csv", data, csvrows.FIBRE_COLUMNS, marked, _fibre_row)
    keys = [tuple(map(int, line.split(",", 2)[:2])) for line in lines]  # one row a fibre
    store._fibres = dict(zip(keys, lines))
    if len(store._fibres) != len(keys):  # name the first repeat
        m, n = next(key for i, key in enumerate(keys) if keys.index(key) < i)
        raise ValueError(f"fibers.csv: duplicate fibre ({m},{n})")
    return all(map(operator.lt, keys, keys[1:]))


def _hit_record(fields) -> HitRecord:
    """The one parse of a master_hits.csv row, its fields in HIT_COLUMNS order."""
    i, a, b, m, n, x, y, z, g, provenance, tags, status = fields
    return HitRecord(
        id=int(i), a=int(a), b=int(b), m=int(m), n=int(n),
        x=int(x), y=int(y), z=int(z), g_scale=int(g),
        provenance=provenance,
        family_tags=frozenset(filter(None, tags.split(";"))),
        f1_status=status,
    )


def _factor_row(fields, hits) -> FactorRow:
    """The one parse of an f1_factors.csv row, its fields in FACTOR_COLUMNS
    order; a row no factorization can hold, or one whose hit id is not a
    key of `hits`, is refused (export writes factor rows per hit, so it
    would drop that row)."""
    hit_id, prime, exponent, is_residual = map(int, fields)
    if prime < 2 or exponent < 1 or is_residual not in (0, 1):
        raise ValueError(f"prime {prime}, exponent {exponent}, is_residual {is_residual}; "
                         "a factor row needs prime >= 2, exponent >= 1, is_residual 0 or 1")
    if hit_id not in hits:
        raise ValueError(f"factor row for hit id {hit_id}, which names no hit")
    return FactorRow(hit_id, prime, exponent, bool(is_residual))


def _fibre_row(fields) -> FibreRow:
    """The one parse of a fibers.csv row, its fields in FIBRE_COLUMNS order."""
    m, n, d1, d2, rank_lb, generators = fields
    return FibreRow(m=int(m), n=int(n), torsion_d1=int(d1), torsion_d2=int(d2),
                    rank_lb=None if rank_lb == "" else int(rank_lb),
                    generators=csvrows.parse_points(generators))


def _read(path) -> tuple[bytes, tuple]:
    """The bytes of a file and its stat signature as read."""
    try:
        with open(path, "rb") as fh:
            return fh.read(), _signature(os.fstat(fh.fileno()))
    except OSError as err:
        raise OSError(f"import from {path} failed: {err}") from err


def _ascii(name: str, raw: bytes) -> bytes:
    """raw, refused naming the file, offset and line of a byte not ASCII."""
    if not raw.isascii():  # decoded only to name the first such byte
        try:
            raw.decode("ascii")
        except UnicodeDecodeError as err:
            line = raw.count(b"\n", 0, err.start) + 1
            raise ValueError(f"{name}: {err} (line {line})") from None
    return raw


def _check_manifest(text: bytes, digests: dict[str, str]) -> bool:
    """Checks every digest the manifest lists; True if its first line is EXPORT_MARK."""
    lines = _ascii("manifest.txt", text).decode("ascii").splitlines()
    marked = lines[:1] == [EXPORT_MARK]
    listed = {}
    for line in lines[marked:]:
        digest, sep, name = line.partition("  ")
        if not sep or name not in digests or name in listed:
            raise ValueError(f"manifest.txt: unexpected line {line!r}")
        listed[name] = digest
    for name, digest in digests.items():
        if name not in listed:
            raise ValueError(f"manifest.txt does not list {name}")
        if digest != listed[name]:
            raise ValueError(f"{name} does not match its sha256 in manifest.txt")
    return marked
