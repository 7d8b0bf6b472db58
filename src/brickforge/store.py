"""In-memory hit database with byte-stable CSV export.

Records are keyed by the slot-swap canonical form of their tuple, so a
rediscovery under sigma never creates a second row and never overwrites
the first writer's provenance.  Export ordering and number formatting
are fixed to make repeated exports byte-identical.
"""
from __future__ import annotations

import csv
import hashlib
import os
import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

from . import master
from .ecq import CurvePoint, on_curve
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
    x_prim: int
    y_prim: int
    z_prim: int
    provenance: str
    family_tags: set = field(default_factory=set)
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
        self._hits: dict[int, HitRecord] = {}
        self._by_tuple: dict[tuple, int] = {}
        self._factors: dict[int, list[FactorRow]] = {}
        self._fibres: dict[tuple, FibreRow] = {}
        self._next_id = 1

    def __len__(self) -> int:
        return len(self._hits)

    def hits(self) -> list[HitRecord]:
        return [self._hits[i] for i in sorted(self._hits)]

    def get(self, hit_id: int) -> HitRecord:
        return self._hits[hit_id]

    def find(self, t: MasterTuple):
        key = tuple(master.sigma_canonical(t))
        hit_id = self._by_tuple.get(key)
        return None if hit_id is None else self._hits[hit_id]

    def factor_rows(self, hit_id: int) -> list[FactorRow]:
        return list(self._factors.get(hit_id, ()))

    def fibres(self) -> list[FibreRow]:
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
        key = tuple(canon)
        if key in self._by_tuple:
            return self._by_tuple[key], False
        g = gcd(gcd(brick.x, brick.y), brick.z)
        rec = HitRecord(
            id=self._next_id,
            a=canon.a, b=canon.b, m=canon.m, n=canon.n,
            x=brick.x, y=brick.y, z=brick.z,
            g_scale=g,
            x_prim=brick.x // g, y_prim=brick.y // g, z_prim=brick.z // g,
            provenance=provenance,
        )
        self._hits[rec.id] = rec
        self._by_tuple[key] = rec.id
        self._next_id += 1
        return rec.id, True

    def set_factorization(self, hit_id: int, fact: Factorization) -> None:
        rec = self._hits[hit_id]
        if fact.product() != master.f1(rec.tuple):
            raise ValueError(f"factorization does not multiply back to f1 of hit {hit_id}")
        rows = [FactorRow(hit_id, p, e, False) for p, e in fact.factors]
        if fact.residual > 1:
            rows.append(FactorRow(hit_id, fact.residual, 1, True))
        self._factors[hit_id] = rows
        rec.f1_status = fact.status

    def factorization_of(self, hit_id: int) -> Factorization | None:
        rec = self._hits[hit_id]
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
        self._hits[hit_id].family_tags = set(tags)

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
        g = gcd(gcd(brick.x, brick.y), brick.z)
        derived = (brick.x, brick.y, brick.z, g, brick.x // g, brick.y // g, brick.z // g)
        stored = (rec.x, rec.y, rec.z, rec.g_scale, rec.x_prim, rec.y_prim, rec.z_prim)
        for name, want, got in zip(
            ("x", "y", "z", "g_scale", "x_prim", "y_prim", "z_prim"), derived, stored
        ):
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


def _serialize_points(points) -> str:
    return ";".join(
        f"{p.X.numerator}/{p.X.denominator}:{p.Y.numerator}/{p.Y.denominator}"
        for p in points
    )


def _parse_points(text: str) -> tuple:
    points = []
    for chunk in text.split(";"):
        if not chunk:
            continue
        xs, ys = chunk.split(":")
        xn, xd = xs.split("/")
        yn, yd = ys.split("/")
        points.append(CurvePoint(Fraction(int(xn), int(xd)), Fraction(int(yn), int(yd))))
    return tuple(points)


def export_csv(store: Store, dirpath) -> list[tuple[str, str]]:
    """Writes the three CSVs plus manifest.txt; returns (filename, sha256)
    pairs.  Ordering and formatting are fixed, so equal stores export
    byte-identical trees."""
    _unlock_big_decimals()
    os.makedirs(dirpath, exist_ok=True)
    try:
        _write_csv(
            os.path.join(dirpath, "master_hits.csv"),
            ("id", "a", "b", "m", "n", "x", "y", "z", "g_scale",
             "provenance", "family_tags", "f1_status"),
            (
                (rec.id, rec.a, rec.b, rec.m, rec.n, rec.x, rec.y, rec.z,
                 rec.g_scale, rec.provenance, ";".join(sorted(rec.family_tags)),
                 rec.f1_status)
                for rec in store.hits()
            ),
        )
        factor_rows = [row for rec in store.hits() for row in store.factor_rows(rec.id)]
        factor_rows.sort(key=lambda r: (r.hit_id, r.is_residual, r.prime))
        _write_csv(
            os.path.join(dirpath, "f1_factors.csv"),
            ("hit_id", "prime", "exponent", "is_residual"),
            ((r.hit_id, r.prime, r.exponent, int(r.is_residual)) for r in factor_rows),
        )
        _write_csv(
            os.path.join(dirpath, "fibers.csv"),
            ("m", "n", "torsion_d1", "torsion_d2", "rank_lb", "generators"),
            (
                (row.m, row.n, row.torsion_d1, row.torsion_d2,
                 "" if row.rank_lb is None else row.rank_lb,
                 _serialize_points(row.generators))
                for row in store.fibres()
            ),
        )
        manifest = []
        for name in CSV_NAMES:
            with open(os.path.join(dirpath, name), "rb") as fh:
                manifest.append((name, hashlib.sha256(fh.read()).hexdigest()))
        with open(os.path.join(dirpath, "manifest.txt"), "w", encoding="ascii") as fh:
            for name, digest in manifest:
                fh.write(f"{digest}  {name}\n")
    except OSError as err:
        raise OSError(f"export to {dirpath} failed: {err}") from err
    return manifest


def _write_csv(path, header, rows) -> None:
    with open(path, "w", encoding="ascii", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def import_csv(dirpath) -> Store:
    _unlock_big_decimals()
    store = Store()
    for row in _read_csv(os.path.join(dirpath, "master_hits.csv")):
        g = int(row["g_scale"])
        rec = HitRecord(
            id=int(row["id"]),
            a=int(row["a"]), b=int(row["b"]), m=int(row["m"]), n=int(row["n"]),
            x=int(row["x"]), y=int(row["y"]), z=int(row["z"]),
            g_scale=g,
            x_prim=int(row["x"]) // g, y_prim=int(row["y"]) // g, z_prim=int(row["z"]) // g,
            provenance=row["provenance"],
            family_tags=set(filter(None, row["family_tags"].split(";"))),
            f1_status=row["f1_status"],
        )
        store._hits[rec.id] = rec
        store._by_tuple[tuple(rec.tuple)] = rec.id
        store._next_id = max(store._next_id, rec.id + 1)
    for row in _read_csv(os.path.join(dirpath, "f1_factors.csv")):
        frow = FactorRow(int(row["hit_id"]), int(row["prime"]),
                         int(row["exponent"]), bool(int(row["is_residual"])))
        store._factors.setdefault(frow.hit_id, []).append(frow)
    for row in _read_csv(os.path.join(dirpath, "fibers.csv")):
        store.upsert_fibre(FibreRow(
            m=int(row["m"]), n=int(row["n"]),
            torsion_d1=int(row["torsion_d1"]), torsion_d2=int(row["torsion_d2"]),
            rank_lb=None if row["rank_lb"] == "" else int(row["rank_lb"]),
            generators=_parse_points(row["generators"]),
        ))
    return store


def _read_csv(path) -> list[dict]:
    try:
        with open(path, encoding="ascii", newline="") as fh:
            return list(csv.DictReader(fh))
    except OSError as err:
        raise OSError(f"import from {path} failed: {err}") from err
