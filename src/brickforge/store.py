"""In-memory hit database with byte-stable CSV export.

Records are keyed by the slot-swap canonical form of their tuple, so a
rediscovery under sigma never creates a second row and never overwrites
the first writer's provenance.  Export ordering and number formatting
are fixed to make repeated exports byte-identical.

An export replaces each file atomically, manifest.txt first, and an import
checks every file against the sha256 listed in manifest.txt, so a torn
export or a damaged file is rejected rather than loaded.  A store without
a manifest.txt still loads, unchecked.

The first line of the manifest export writes, EXPORT_MARK, says that every
file listed below it holds exactly the bytes export would write for its
rows.  That holds by induction: export formats a parsed row canonically,
writes a line it kept only if the line came from such a file, and leaves a
file in place only when its sha256 is the one it would write.  So a command
pays only for the rows it reads and adds.  Under the mark each hit row is
kept as its line (csvrows.export_lines), known by its id and tuple, each
fibre row by its pair and a hit's factor rows as one block, until a getter
or setter reads them.  Any other file, and every file under a manifest
without the mark (written before it, or by hand), is read by csv.reader,
every row parsed once.  Export writes a kept line as it is, skips a file
still the one this store read or wrote whose bytes would not change, and
does not build master_hits.csv while it is the file as loaded under the
mark, ids ascending, with no hit row read or inserted since.
"""
from __future__ import annotations

import contextlib
import csv
import hashlib
import itertools
import operator
import os
import re
import sys
from dataclasses import dataclass, field
from math import gcd
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


def _unlock_big_decimals() -> None:
    # CPython caps int<->str conversion length; lifted tuples exceed it
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(max(sys.get_int_max_str_digits(), 2_000_000))
    # and csv.reader caps a field's length
    csv.field_size_limit(max(csv.field_size_limit(), 2_000_000))


@dataclass
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
    family_tags: set = field(default_factory=set)
    f1_status: str = "none"

    @property
    def tuple(self) -> MasterTuple:
        return MasterTuple(self.a, self.b, self.m, self.n)

    @property
    def x_prim(self) -> int:
        return self.x // self.g_scale

    @property
    def y_prim(self) -> int:
        return self.y // self.g_scale

    @property
    def z_prim(self) -> int:
        return self.z // self.g_scale


@dataclass(frozen=True)
class FactorRow:
    hit_id: int
    prime: int
    exponent: int
    is_residual: bool


@dataclass
class FibreRow:
    m: int
    n: int
    torsion_d1: int
    torsion_d2: int
    rank_lb: int | None = None
    generators: tuple = ()


class Store:
    def __init__(self):
        # a loaded row stays its CSV line until it is read
        self._hits: dict[int, HitRecord | str] = {}
        # "a,b,m,n" of a sigma-canonical tuple, as a row holds it -> hit id
        self._by_tuple: dict[str, int] = {}
        # a hit's factor rows, or the block of their lines until they are read
        self._factors: dict[int, list[FactorRow] | str] = {}
        self._fibres: dict[tuple, FibreRow | str] = {}
        self._next_id = 1
        # file name -> (sha256, stat signature) of the file last read or written
        self._on_disk: dict[str, tuple[str, tuple]] = {}
        # sha256 of the master_hits.csv export would write, known while it is
        # the file as loaded: no hit row read or inserted since
        self._hits_digest: str | None = None

    def __len__(self) -> int:
        return len(self._hits)

    def _record(self, hit_id: int) -> HitRecord:
        rec = self._hits[hit_id]
        if type(rec) is str:
            rec = self._hits[hit_id] = _hit_record(rec.split(","))
            self._hits_digest = None
        return rec

    def hits(self) -> list[HitRecord]:
        return [self._record(i) for i in sorted(self._hits)]

    def get(self, hit_id: int) -> HitRecord:
        return self._record(hit_id)

    def find(self, t: MasterTuple):
        hit_id = self._by_tuple.get(csvrows.tuple_key(master.sigma_canonical(t)))
        return None if hit_id is None else self._record(hit_id)

    def factor_rows(self, hit_id: int) -> list[FactorRow]:
        return list(self._factor_rows(hit_id)) if hit_id in self._factors else []

    def _factor_rows(self, hit_id: int) -> list[FactorRow]:
        rows = self._factors[hit_id]
        if type(rows) is str:
            parsed = []
            for i, line in enumerate(rows.split("\n")):
                try:
                    parsed.append(_factor_row(line.split(","), self._hits))
                except ValueError as err:
                    # the row as loaded: after the rows of every smaller hit id
                    row = 2 + i + sum(r.count("\n") + 1 if type(r) is str else len(r)
                                      for h, r in self._factors.items() if h < hit_id)
                    raise ValueError(f"f1_factors.csv row {row}: {err}") from None
            rows = self._factors[hit_id] = parsed
        return rows

    def fibres(self) -> list[FibreRow]:
        for key, row in self._fibres.items():
            if type(row) is str:
                self._fibres[key] = _fibre_row(row.split(","))
        return [self._fibres[key] for key in sorted(self._fibres)]

    def insert_hit(self, t: MasterTuple, provenance: str) -> tuple[int, bool]:
        """Returns (id, created); created is False for a sigma-duplicate,
        whose original provenance is retained untouched."""
        if not _PROVENANCE.fullmatch(provenance):
            raise ValueError(f"unrecognized provenance {provenance!r}")
        canon = master.sigma_canonical(t)
        brick = master.edges(canon)
        if brick.dyz is None:
            raise ValueError(f"{tuple(t)} is not a Master-Hit")
        key = csvrows.tuple_key(canon)
        if key in self._by_tuple:
            return self._by_tuple[key], False
        rec = HitRecord(
            id=self._next_id,
            a=canon.a, b=canon.b, m=canon.m, n=canon.n,
            x=brick.x, y=brick.y, z=brick.z,
            g_scale=gcd(gcd(brick.x, brick.y), brick.z),
            provenance=provenance,
        )
        self._hits[rec.id] = rec
        self._by_tuple[key] = rec.id
        self._next_id += 1
        self._hits_digest = None
        return rec.id, True

    def set_factorization(self, hit_id: int, fact: Factorization) -> None:
        rec = self._record(hit_id)
        if fact.product() != master.f1(rec.tuple):
            raise ValueError(f"factorization does not multiply back to f1 of hit {hit_id}")
        rows = [FactorRow(hit_id, p, e, False) for p, e in fact.factors]
        if fact.residual > 1:
            rows.append(FactorRow(hit_id, fact.residual, 1, True))
        self._factors[hit_id] = rows
        rec.f1_status = fact.status

    def factorization_of(self, hit_id: int) -> Factorization | None:
        rec = self._record(hit_id)
        if rec.f1_status == "none":
            return None
        if hit_id not in self._factors:  # the fault `validate_consistency` names
            raise ValueError(f"hit {hit_id}: status {rec.f1_status} but no factor rows")
        factors = []
        residual = 1
        for row in self._factor_rows(hit_id):
            if row.is_residual:
                residual *= row.prime ** row.exponent
            else:
                factors.append((row.prime, row.exponent))
        return Factorization(factors=factors, residual=residual, status=rec.f1_status)

    def set_family_tags(self, hit_id: int, tags) -> None:
        self._record(hit_id).family_tags = set(tags)

    def upsert_fibre(self, row: FibreRow) -> None:
        self._fibres[(row.m, row.n)] = row


def validate_consistency(store: Store) -> list[str]:
    """Re-derives every identity field and lists violations by id."""
    bad: list[str] = []
    for rec in store.hits():
        t = rec.tuple
        ok, reason = master.is_admissible(*t)
        if not ok:
            bad.append(f"hit {rec.id}: inadmissible ({reason})")
            continue
        if tuple(master.sigma_canonical(t)) != tuple(t):
            bad.append(f"hit {rec.id}: not sigma-canonical")
        brick = master.edges(t)
        if brick.dyz is None:
            bad.append(f"hit {rec.id}: M is not a square")
            continue
        # the primitive edges are derived from these, so they agree too
        derived = (brick.x, brick.y, brick.z, gcd(gcd(brick.x, brick.y), brick.z))
        stored = (rec.x, rec.y, rec.z, rec.g_scale)
        for name, want, got in zip(("x", "y", "z", "g_scale"), derived, stored):
            if want != got:
                bad.append(f"hit {rec.id}: {name} is {got}, derived {want}")
        if not _PROVENANCE.fullmatch(rec.provenance):
            bad.append(f"hit {rec.id}: bad provenance {rec.provenance!r}")
        if not set(rec.family_tags) <= set(FAMILY_TAGS):
            bad.append(f"hit {rec.id}: unknown family tags")
        if rec.f1_status not in F1_STATUSES:
            bad.append(f"hit {rec.id}: bad f1_status {rec.f1_status!r}")
            continue
        bad.extend(_check_factor_rows(rec, store.factor_rows(rec.id)))
    for row in store.fibres():
        reason = master.pair_fault(row.m, row.n, "mn")
        if reason:
            bad.append(f"fibre ({row.m},{row.n}): inadmissible ({reason})")
            continue
        if (row.torsion_d1, row.torsion_d2) != TORSION_STRUCTURE:
            bad.append(f"fibre ({row.m},{row.n}): bad torsion ({row.torsion_d1},{row.torsion_d2})")
        c = build_fibre(row.m, row.n)
        for pt in row.generators:
            if not on_curve(c, pt):
                bad.append(f"fibre ({row.m},{row.n}): generator off curve")
    return bad


def _check_factor_rows(rec: HitRecord, rows: list[FactorRow]) -> list[str]:
    bad: list[str] = []
    if rec.f1_status == "none":
        if rows:
            bad.append(f"hit {rec.id}: factor rows without factorization status")
        return bad
    if not rows:
        bad.append(f"hit {rec.id}: status {rec.f1_status} but no factor rows")
        return bad
    primes = [r.prime for r in rows if not r.is_residual]
    if len(set(primes)) != len(primes):
        bad.append(f"hit {rec.id}: repeated prime rows")
    for row in rows:
        if row.exponent < 1 or row.prime < 2:
            bad.append(f"hit {rec.id}: degenerate factor row ({row.prime}, {row.exponent})")
        elif not row.is_residual and not is_prime(row.prime):
            bad.append(f"hit {rec.id}: composite {row.prime} marked prime")
    residuals = [r for r in rows if r.is_residual]
    if rec.f1_status == "full" and residuals:
        bad.append(f"hit {rec.id}: full status with a residual row")
    if rec.f1_status == "partial":
        if not residuals:
            bad.append(f"hit {rec.id}: partial status without a residual row")
        # factor() gives a piece up only after is_prime refuses it
        bad.extend(f"hit {rec.id}: residual {r.prime} is prime" for r in residuals if is_prime(r.prime))
    product = 1
    for row in rows:
        product *= row.prime ** row.exponent
    if product != master.f1(rec.tuple):
        bad.append(f"hit {rec.id}: factor rows do not multiply back to f1")
    return bad


def export_csv(store: Store, dirpath) -> list[tuple[str, str]]:
    """Writes the three CSVs plus manifest.txt; returns (filename, sha256)
    pairs.  Ordering and formatting are fixed, so equal stores export
    byte-identical trees.

    Each file is built in memory as chunks of encoded lines, hashed chunk
    by chunk, written to `<name>.tmp` and moved over the old file with
    os.replace, manifest.txt first.  A crash at the manifest leaves the old
    store; a crash after it leaves old files that do not match the new
    manifest, which import_csv rejects, whether or not the old store had a
    manifest.  A CSV is not written at all when the file there is still the
    one this store last read or wrote (same device, inode, size and mtime)
    and its sha256 would not change; it already matches the new manifest,
    so the rule above still holds (nor is master_hits.csv built while its
    sha256 is known: see the module docstring).
    """
    _unlock_big_decimals()
    on_disk, store._on_disk = store._on_disk, {}  # a failed export leaves nothing known
    manifest, files = [], {}
    for name, build in zip(CSV_NAMES, (_hits_csv, _factors_csv, _fibres_csv)):
        known = on_disk.get(name)
        if known is not None and known[1] != _stat(os.path.join(dirpath, name)):
            known = None  # replaced since
        if known is not None and name == "master_hits.csv" and known[0] == store._hits_digest:
            manifest.append((name, known[0]))
            continue
        chunks = build(store)
        digest = hashlib.sha256()
        for chunk in chunks:
            digest.update(chunk)
        manifest.append((name, digest.hexdigest()))
        if known is None or known[0] != manifest[-1][1]:
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


def _hits_csv(store: Store) -> list[bytes]:
    return csvrows.csv_chunks(csvrows.HIT_COLUMNS,
                              (_line(store._hits[i]) for i in sorted(store._hits)))


def _factors_csv(store: Store) -> list[bytes]:
    groups = (store._factors[hit_id] for hit_id in sorted(store._factors))
    return csvrows.csv_chunks(csvrows.FACTOR_COLUMNS, (_line(row) for rows in groups for row in (
        [rows] if type(rows) is str else sorted(rows, key=lambda r: (r.is_residual, r.prime)))))


def _fibres_csv(store: Store) -> list[bytes]:
    return csvrows.csv_chunks(csvrows.FIBRE_COLUMNS,
                              (_line(store._fibres[key]) for key in sorted(store._fibres)))


def _stat(path) -> tuple | None:
    try:
        return _signature(os.stat(path))
    except OSError:
        return None


def _signature(st) -> tuple:
    return (st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns)


def _line(row) -> str:
    """A row as export writes it: a kept line as it is, else its fields."""
    if type(row) is str:
        return row
    if type(row) is HitRecord:
        row = (row.id, row.a, row.b, row.m, row.n, row.x, row.y, row.z, row.g_scale,
               row.provenance, ";".join(sorted(row.family_tags)), row.f1_status)
    elif type(row) is FibreRow:
        rank_lb = "" if row.rank_lb is None else row.rank_lb
        row = (row.m, row.n, row.torsion_d1, row.torsion_d2, rank_lb,
               csvrows.serialize_points(row.generators))
    elif type(row) is FactorRow:
        row = (row.hit_id, row.prime, row.exponent, int(row.is_residual))
    return csvrows.csv_line(row)


def import_csv(dirpath) -> Store:
    """Loads an exported store, reading each file once.

    When manifest.txt is present, every CSV must match the digest it lists
    there; a store without a manifest (built by hand) loads unchecked.
    Either way a repeated hit id, a repeated (a, b, m, n) row or a repeated
    fibre is rejected, and so is a factor row whose hit id names no hit.  A
    damaged or inconsistent file raises ValueError naming it, and the row
    where there is one; a missing one raises OSError.

    Under EXPORT_MARK a file csvrows.export_lines splits is kept as lines,
    its ids and keys taken by C-level maps over line.split, with no Python
    call per row.  Any other file is read by csv.reader (csvrows.records),
    every row parsed, so a field that is no integer, a zero denominator or
    a factor row with a prime below 2, an exponent below 1 or is_residual
    outside {0, 1} is refused here, naming the row.  A byte that is not
    ASCII, in any of the four files, is refused naming the file, its offset
    there and its line.  Each file's bytes are freed once decoded.
    """
    _unlock_big_decimals()
    data, stats = {}, {}
    for name in CSV_NAMES:
        data[name], stats[name] = _read(os.path.join(dirpath, name))
    digests = {name: hashlib.sha256(raw).hexdigest() for name, raw in data.items()}
    manifest = os.path.join(dirpath, "manifest.txt")
    marked = os.path.exists(manifest) and _check_manifest(_read(manifest)[0], digests)
    for name, raw in data.items():
        _ascii(name, raw)
    store = Store()
    tidy = _import_hits(store, data, marked)
    store._next_id = max(1, max(store._hits, default=0) + 1)
    _import_factors(store, data, marked)
    _import_fibres(store, data, marked)
    store._on_disk = {name: (digests[name], stats[name]) for name in CSV_NAMES}
    store._hits_digest = digests["master_hits.csv"] if tidy else None
    return store


def _import_hits(store: Store, data: dict, marked: bool) -> bool:
    """Loads master_hits.csv; True if its rows are kept as lines, the ids
    ascending from 1."""
    lines = csvrows.export_lines("master_hits.csv", data, csvrows.HIT_COLUMNS) if marked else None
    if lines is None:
        rows = list(csvrows.records("master_hits.csv", data, csvrows.HIT_COLUMNS, _hit_record))
        ids = [rec.id for rec in rows]
        keys = [csvrows.tuple_key(rec.tuple) for rec in rows]
    else:
        # (id, [a, b, m, n]) of each line: the rest of it is not held
        heads = list(map(itemgetter(0, slice(1, 5)), map(methodcaller("split", ",", 5), lines)))
        rows, ids = lines, list(map(int, map(itemgetter(0), heads)))
        keys = list(map(",".join, map(itemgetter(1), heads)))
        del heads
    store._hits, store._by_tuple = dict(zip(ids, rows)), dict(zip(keys, ids))
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
    return lines is not None and all(map(operator.lt, [0, *ids], ids))


def _import_factors(store: Store, data: dict, marked: bool) -> None:
    lines = csvrows.export_lines("f1_factors.csv", data, csvrows.FACTOR_COLUMNS) if marked else None
    if lines is None:
        for frow in csvrows.records("f1_factors.csv", data, csvrows.FACTOR_COLUMNS,
                                    lambda fields: _factor_row(fields, store._hits)):
            store._factors.setdefault(frow.hit_id, []).append(frow)
        return
    ids = list(map(int, map(itemgetter(0), map(methodcaller("split", ",", 1), lines))))
    # export writes a hit's rows together; the stable sort costs a pass when they are
    store._factors = {hit_id: "\n".join(map(itemgetter(1), rows)) for hit_id, rows in
                      itertools.groupby(sorted(zip(ids, lines), key=itemgetter(0)), itemgetter(0))}
    orphans = store._factors.keys() - store._hits.keys()
    if orphans:
        row = min(map(ids.index, orphans))
        raise ValueError(f"f1_factors.csv row {row + 2}: factor row for hit id {ids[row]}, "
                         "which names no hit")


def _import_fibres(store: Store, data: dict, marked: bool) -> None:
    lines = csvrows.export_lines("fibers.csv", data, csvrows.FIBRE_COLUMNS) if marked else None
    if lines is None:
        rows = list(csvrows.records("fibers.csv", data, csvrows.FIBRE_COLUMNS, _fibre_row))
        keys = [(row.m, row.n) for row in rows]
    else:
        rows, heads = lines, list(map(itemgetter(0, 1), map(methodcaller("split", ",", 2), lines)))
        keys = list(zip(map(int, map(itemgetter(0), heads)), map(int, map(itemgetter(1), heads))))
        del heads
    store._fibres = dict(zip(keys, rows))
    if len(store._fibres) != len(keys):  # name the first repeat
        m, n = next(key for i, key in enumerate(keys) if keys.index(key) < i)
        raise ValueError(f"fibers.csv: duplicate fibre ({m},{n})")


def _hit_record(fields) -> HitRecord:
    """The one parse of a master_hits.csv row, its fields in HIT_COLUMNS order."""
    i, a, b, m, n, x, y, z, g, provenance, tags, status = fields
    return HitRecord(
        id=int(i), a=int(a), b=int(b), m=int(m), n=int(n),
        x=int(x), y=int(y), z=int(z), g_scale=int(g),
        provenance=provenance,
        family_tags=set(filter(None, tags.split(";"))),
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
