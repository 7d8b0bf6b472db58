"""In-memory hit database with byte-stable CSV export.

Records are keyed by the slot-swap canonical form of their tuple, so a
rediscovery under sigma never creates a second row and never overwrites
the first writer's provenance.  Export ordering and number formatting
are fixed to make repeated exports byte-identical.

An export replaces each file atomically, manifest.txt first, and an import
checks every file against the sha256 listed in manifest.txt, so a torn
export or a damaged file is rejected rather than loaded.  A store without
a manifest.txt still loads, unchecked.

A command pays only for the rows it reads and adds.  Import keeps a row
that export would write back unchanged as its line (see csvrows), parsed
only for its id and tuple, or its pair, until get, find, hits, fibres,
factorization_of or a setter reads it.  Export writes an unread line as it
is, skips a file still the one this store read or wrote whose bytes would
not change, and does not even build master_hits.csv while it is the file
as loaded, in export form (this header, ids ascending, no blank line, a
final line end), with no hit row read or inserted since.
"""
from __future__ import annotations

import contextlib
import hashlib
import os
import re
import sys
from dataclasses import dataclass, field
from math import gcd

from . import csvrows, master
from .ecq import on_curve
from .families import FAMILY_TAGS
from .fibration import build_fibre
from .master import MasterTuple
from .ntkernel import Factorization, is_prime

F1_STATUSES = ("none", "partial", "full")
_PROVENANCE = re.compile(r"Exhaustive-Bound-\d+|Rathbun-Search|Saunderson-Generator|MW-\d+-\d+")
CSV_NAMES = ("master_hits.csv", "f1_factors.csv", "fibers.csv")


def _unlock_big_decimals() -> None:
    # CPython caps int<->str conversion length; lifted tuples exceed it
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(max(sys.get_int_max_str_digits(), 2_000_000))


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
        self._factors: dict[int, list[FactorRow]] = {}
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
        return list(self._factors.get(hit_id, ()))

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
        factors = []
        residual = 1
        for row in self._factors[hit_id]:
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
        ok, reason = master.is_admissible(row.m, row.n, row.m, row.n)
        if not ok:
            bad.append(f"fibre ({row.m},{row.n}): inadmissible ({reason})")
            continue
        if not (1 <= row.torsion_d1 <= row.torsion_d2 and row.torsion_d2 % row.torsion_d1 == 0):
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
    if rec.f1_status == "partial" and not residuals:
        bad.append(f"hit {rec.id}: partial status without a residual row")
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

    Each file is built and hashed in memory, written to `<name>.tmp` and
    moved over the old file with os.replace, manifest.txt first.  A crash
    at the manifest leaves the old store; a crash after it leaves old files
    that do not match the new manifest, which import_csv rejects, whether
    or not the old store had a manifest.  A CSV is not written at all when
    the file there is still the one this store last read or wrote (same
    device, inode, size and mtime) and its sha256 would not change; it
    already matches the new manifest, so the rule above still holds (nor is
    master_hits.csv built while its sha256 is known: see the module docstring).
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
        data = build(store)
        manifest.append((name, hashlib.sha256(data).hexdigest()))
        if known is None or known[0] != manifest[-1][1]:
            files[name] = data
    files = {"manifest.txt": "".join(f"{d}  {name}\n" for name, d in manifest).encode("ascii"),
             **files}
    os.makedirs(dirpath, exist_ok=True)
    paths = [os.path.join(dirpath, name) for name in files]
    try:
        for path, data in zip(paths, files.values()):
            with open(path + ".tmp", "wb") as fh:
                fh.write(data)
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


def _hits_csv(store: Store) -> bytes:
    return csvrows.csv_bytes(csvrows.HIT_COLUMNS,
                             (_line(store._hits[i]) for i in sorted(store._hits)))


def _factors_csv(store: Store) -> bytes:
    rows = sorted((row for hit_id, group in store._factors.items() if hit_id in store._hits
                   for row in group), key=lambda r: (r.hit_id, r.is_residual, r.prime))
    return csvrows.csv_bytes(csvrows.FACTOR_COLUMNS, (
        _line((r.hit_id, r.prime, r.exponent, int(r.is_residual))) for r in rows))


def _fibres_csv(store: Store) -> bytes:
    return csvrows.csv_bytes(csvrows.FIBRE_COLUMNS,
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
    return csvrows.csv_line(row)


def import_csv(dirpath) -> Store:
    """Loads an exported store, reading each file once.

    When manifest.txt is present, every CSV must match the digest it lists
    there; a store without a manifest (built by hand) loads unchecked.
    Either way a repeated hit id, a repeated (a, b, m, n) row, a repeated
    fibre or a factor row whose hit id names no hit is rejected.  A damaged
    or inconsistent file raises ValueError naming it; a missing one raises
    OSError.  A row export would write back as it is stays its line (see
    csvrows); any other row is parsed here, so a field that is no integer
    is refused here.
    """
    _unlock_big_decimals()
    data, stats = {}, {}
    for name in CSV_NAMES:
        data[name], stats[name] = _read(os.path.join(dirpath, name))
    digests = {name: hashlib.sha256(raw).hexdigest() for name, raw in data.items()}
    if os.path.exists(os.path.join(dirpath, "manifest.txt")):
        _check_manifest(_read(os.path.join(dirpath, "manifest.txt"))[0], digests)
    raw = data["master_hits.csv"]
    # in export form, too, if every row is kept and the ids ascend
    tidy = (raw.startswith(",".join(csvrows.HIT_COLUMNS).encode("ascii") + b"\n")
            and raw.endswith(b"\n") and not any(s in raw for s in (b"\n\n", b'"', b"\r")))
    del raw
    store = Store()
    for row in csvrows.records("master_hits.csv", data, csvrows.HIT_COLUMNS, csvrows.kept_hit):
        if type(row) is tuple:
            row = _hit_record(row)
            hit_id, key, tidy = row.id, csvrows.tuple_key(row.tuple), False
        else:
            hit_id, key, row = int(row[1]), row[2], row[0]
        if hit_id in store._hits:
            raise ValueError(f"master_hits.csv: duplicate hit id {hit_id}")
        if key in store._by_tuple:
            raise ValueError(f"master_hits.csv: tuple ({key.replace(',', ', ')}) in hits "
                             f"{store._by_tuple[key]} and {hit_id}")
        store._hits[hit_id] = row
        store._by_tuple[key] = hit_id
        tidy = tidy and hit_id >= store._next_id
        store._next_id = max(store._next_id, hit_id + 1)
    for hit_id, prime, exponent, is_residual in csvrows.records("f1_factors.csv", data,
                                                                csvrows.FACTOR_COLUMNS):
        frow = FactorRow(int(hit_id), int(prime), int(exponent), bool(int(is_residual)))
        if frow.hit_id not in store._hits:
            # export writes factor rows per hit, so this row would be dropped
            raise ValueError(f"f1_factors.csv: factor row for hit id {frow.hit_id}, "
                             "which names no hit")
        store._factors.setdefault(frow.hit_id, []).append(frow)
    for row in csvrows.records("fibers.csv", data, csvrows.FIBRE_COLUMNS, csvrows.kept_fibre):
        if type(row) is tuple:
            row = _fibre_row(row)
            key = (row.m, row.n)
        else:
            row, key = row[0], (int(row[1]), int(row[2]))
        if key in store._fibres:
            raise ValueError(f"fibers.csv: duplicate fibre ({key[0]},{key[1]})")
        store._fibres[key] = row
    store._on_disk = {name: (digests[name], stats[name]) for name in CSV_NAMES}
    store._hits_digest = digests["master_hits.csv"] if tidy else None
    return store


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


def _check_manifest(text: bytes, digests: dict[str, str]) -> None:
    listed = {}
    for line in text.decode("ascii").splitlines():
        digest, sep, name = line.partition("  ")
        if not sep or name not in digests or name in listed:
            raise ValueError(f"manifest.txt: unexpected line {line!r}")
        listed[name] = digest
    for name, digest in digests.items():
        if name not in listed:
            raise ValueError(f"manifest.txt does not list {name}")
        if digest != listed[name]:
            raise ValueError(f"{name} does not match its sha256 in manifest.txt")
