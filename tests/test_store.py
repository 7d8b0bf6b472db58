import contextlib
import csv
import hashlib
import io
import os
import random
import re
import shutil
from dataclasses import FrozenInstanceError, replace

import pytest

from brickforge import cli, csvrows, master
from brickforge import store as store_module
from brickforge.ecq import CurvePoint
from brickforge.families import FAMILY_TAGS
from brickforge.master import MasterTuple
from brickforge.mw import seeds_from_hits
from brickforge.ntkernel import Factorization, factor, is_prime
from brickforge.store import (
    CSV_NAMES,
    EXPORT_MARK,
    FactorRow,
    FibreRow,
    Store,
    export_csv,
    import_csv,
    validate_consistency,
)
from conftest import bench_walk, put_lines, random_admissible, reference_hit_line

GOLDEN = MasterTuple(55, 48, 44, 9)
STORE_FILES = (*CSV_NAMES, "manifest.txt")


def golden_store() -> Store:
    db = Store()
    hit_id, created = db.insert_hit(GOLDEN, "Rathbun-Search")
    assert created
    db.set_factorization(hit_id, factor(master.f1(GOLDEN)))
    db.insert_hit(MasterTuple(835, 88, 160, 89), "Exhaustive-Bound-1000")
    return db


def test_insert_assigns_sequential_ids():
    db = golden_store()
    assert [rec.id for rec in db.hits()] == [1, 2]


def test_sigma_duplicate_is_discarded():
    db = Store()
    first, created = db.insert_hit(GOLDEN, "Rathbun-Search")
    assert created
    swapped = MasterTuple(44, 9, 55, 48)
    second, created = db.insert_hit(swapped, "Exhaustive-Bound-9")
    assert (second, created) == (first, False)
    assert db.get(first).provenance == "Rathbun-Search"
    assert len(db) == 1


def test_insert_rejects_non_hit():
    db = Store()
    with pytest.raises(ValueError):
        db.insert_hit(MasterTuple(2, 1, 2, 1), "Rathbun-Search")


def test_insert_rejects_unknown_provenance():
    # verify consistency's finding, naming the id the hit would get
    for db, t, hit_id in ((Store(), GOLDEN, 1), (golden_store(), MasterTuple(40, 33, 41, 32), 3)):
        before = dict(db._hits)
        with pytest.raises(ValueError, match=f"^hit {hit_id}: bad provenance 'Handwritten'$"):
            db.insert_hit(t, "Handwritten")
        assert db._hits == before and db._next_id == hit_id


def test_insert_writes_the_line_of_the_reference_rule():
    # the fibre-deep walk's hits in a random order, each in a random slot
    # order and with a random provenance
    rng = random.Random(30)
    hits = list(bench_walk(3))
    rng.shuffle(hits)
    db = Store()
    for t in hits:
        if rng.random() < 0.5:
            t = MasterTuple(t.m, t.n, t.a, t.b)
        provenance = rng.choice(("Rathbun-Search", "Saunderson-Generator",
                                 f"MW-{rng.randrange(2, 100)}-{rng.randrange(1, 100)}",
                                 f"Exhaustive-Bound-{rng.randrange(10 ** 6)}"))
        hit_id, created = db.insert_hit(t, provenance)
        assert created and db._hits[hit_id] == reference_hit_line(hit_id, t, provenance)
    assert len(db) == 1059 and validate_consistency(db) == []


def test_derived_fields():
    # the canonical orientation of the golden tuple leads with (44, 9)
    rec = golden_store().get(1)
    assert (rec.a, rec.b, rec.m, rec.n) == (44, 9, 55, 48)
    assert (rec.x, rec.y, rec.z) == (1337455, 571032, 9794400)
    assert rec.g_scale == 7
    assert (rec.x // rec.g_scale, rec.y // rec.g_scale,
            rec.z // rec.g_scale) == (191065, 81576, 1399200)


def test_factor_rows_and_status():
    db = golden_store()
    rows = db.factor_rows(1)
    assert [(r.prime, r.exponent) for r in rows] == [(7, 2), (13, 3), (61, 1), (1597, 1), (9349, 1)]
    assert not any(r.is_residual for r in rows)
    assert db.get(1).f1_status == "full"
    assert db.get(2).f1_status == "none"


def test_set_factorization_rejects_mismatch():
    db = golden_store()
    with pytest.raises(ValueError):
        db.set_factorization(2, Factorization(factors=[(3, 1)], residual=1, status="full"))


@pytest.mark.parametrize("factors, residual, status, message", [
    ([(11, 0)], 1, "full",
     "prime 11, exponent 0, is_residual 0; a factor row needs prime >= 2, exponent >= 1, "
     "is_residual 0 or 1"),
    ([(1, 5)], 1, "full",
     "prime 1, exponent 5, is_residual 0; a factor row needs prime >= 2, exponent >= 1, "
     "is_residual 0 or 1"),
])
def test_set_factorization_refuses_what_a_read_would_refuse(factors, residual, status, message):
    # a product that still multiplies back to f1, but a line every later
    # read would refuse, naming the hit: the store is left as it was
    db = golden_store()
    fact = db.factorization_of(db.get(1))
    fact = Factorization(factors=sorted(fact.factors + factors), residual=residual, status=status)
    assert fact.product() == master.f1(GOLDEN)
    state = (dict(db._hits), dict(db._factors), dict(db._on_disk))
    with pytest.raises(ValueError, match=f"^{re.escape(f'hit 1: {message}')}$"):
        db.set_factorization(1, fact)
    assert (db._hits, db._factors, db._on_disk) == state
    assert validate_consistency(db) == []


def test_factorization_roundtrip_with_residual():
    db = golden_store()
    assert db.factorization_of(db.get(2)) is None  # not factored yet
    f1 = master.f1(db.get(2).tuple)
    partial = Factorization(factors=[(3, 2)], residual=f1 // 9, status="partial")
    db.set_factorization(2, partial)
    assert db.factorization_of(db.get(2)) == partial
    assert db.factor_rows(2)[-1].is_residual


def test_validate_clean_store():
    assert validate_consistency(golden_store()) == []
    assert validate_consistency(Store()) == []


def test_validate_flags_corrupted_edge():
    db = golden_store()
    put_lines(db, 2, rec=replace(db.get(2), y=db.get(2).y + 1))
    problems = validate_consistency(db)
    assert len(problems) == 1 and problems[0].startswith("hit 2: y")


def test_validate_flags_noncanonical_record():
    db = golden_store()
    put_lines(db, 1, rec=replace(db.get(1), a=55, b=48, m=44, n=9))
    problems = validate_consistency(db)
    assert any("sigma" in p for p in problems)


def test_validate_flags_bad_factor_rows():
    db = golden_store()
    put_lines(db, 1, factors=[FactorRow(1, 49, 1, False), *db.factor_rows(1)[1:]])
    assert any("composite 49" in p for p in validate_consistency(db))
    db = golden_store()
    put_lines(db, 1, factors=db.factor_rows(1)[:-1])
    assert any("multiply back" in p for p in validate_consistency(db))


def _set(**fields):
    def corrupt(db):
        put_lines(db, 1, rec=replace(db.get(1), **fields))
    return corrupt


def _split_square(db):
    # f1 of GOLDEN holds 7^2: two rows of 7^1 multiply back to it
    rows = db.factor_rows(1)
    i = rows.index(FactorRow(1, 7, 2, False))
    rows[i:i + 1] = [FactorRow(1, 7, 1, False)] * 2
    put_lines(db, 1, factors=rows)


def _merge_primes(db):
    # 61 * 1597 = 97417 as one row marked prime
    rows = [row for row in db.factor_rows(1) if row.prime not in (61, 1597)]
    put_lines(db, 1, factors=[*rows, FactorRow(1, 97417, 1, False)])


def _prime_as_residual(db):
    rows = db.factor_rows(1)
    i = next(i for i, row in enumerate(rows) if row.exponent == 1)
    rows[i] = FactorRow(1, rows[i].prime, 1, True)
    put_lines(db, 1, factors=rows)


# one corruption each, the one finding validate_consistency gives for it and
# the exit code of verify consistency on the store as export writes it; a
# degenerate factor row is refused by every read of it instead, naming the row
# as verify consistency prints it (exit 2), in memory as on disk
CORRUPTIONS = {
    "inadmissible record": (_set(a=9, b=44), "hit 1: inadmissible (a <= b)", 1),
    "M not a square": (_set(a=3, b=2, m=3, n=2), "hit 1: M is not a square", 1),
    "bad provenance": (_set(provenance="Guesswork"), "hit 1: bad provenance 'Guesswork'", 1),
    "unknown tags": (_set(family_tags={"Bogus"}), "hit 1: unknown family tags", 1),
    "bad f1_status": (_set(f1_status="maybe"), "hit 1: bad f1_status 'maybe'", 1),
    "inadmissible fibre": (lambda db: put_lines(db, fibre=FibreRow(4, 4, 2, 4)),
                           "fibre (4,4): inadmissible (m <= n)", 1),
    "rows without status": (lambda db: put_lines(db, 2, factors=[FactorRow(2, 3, 1, False)]),
                            "hit 2: factor rows without factorization status", 1),
    "status without rows": (lambda db: put_lines(db, 1, factors=[]),
                            "hit 1: status full but no factor rows", 1),
    "repeated prime": (_split_square, "hit 1: repeated prime rows", 1),
    "composite marked prime": (_merge_primes, "hit 1: composite 97417 marked prime", 1),
    "degenerate row": (lambda db: put_lines(db, 1, factors=[*db.factor_rows(1),
                                                             FactorRow(1, 11, 0, False)]),
                       "f1_factors.csv row 7: prime 11, exponent 0, is_residual 0; a factor row "
                       "needs prime >= 2, exponent >= 1, is_residual 0 or 1", 2),
    "full with residual": (_prime_as_residual, "hit 1: full status with a residual row", 1),
    "partial without residual": (_set(f1_status="partial"),
                                 "hit 1: partial status without a residual row", 1),
    "prime residual": (lambda db: (_prime_as_residual(db), _set(f1_status="partial")(db)),
                       "hit 1: residual 61 is prime", 1),
    "wrong product": (lambda db: put_lines(db, 1, factors=db.factor_rows(1)[:-1]),
                      "hit 1: factor rows do not multiply back to f1", 1),
}


@pytest.mark.parametrize("corrupt, finding, code", CORRUPTIONS.values(), ids=CORRUPTIONS)
def test_validate_flags_each_corruption(tmp_path, capsys, corrupt, finding, code):
    db = golden_store()
    corrupt(db)
    if code == 1:
        assert validate_consistency(db) == [finding]
    else:
        with pytest.raises(ValueError, match=f"^{re.escape(finding)}$"):
            validate_consistency(db)
    export_csv(db, tmp_path)
    assert cli.main(["verify", "consistency", "--db", str(tmp_path)]) == code
    out, err = capsys.readouterr()
    if code == 1:
        assert out == f"records=2 violations=1\n{finding}\n"
    else:
        assert err == f"error: {finding}\n"


# each corruption of CORRUPTIONS that costs no is_prime to find, and the hit
# it is in: every read of that hit's factorization refuses it
READ_FAULTS = {"bad f1_status": 1, "rows without status": 2, "status without rows": 1,
               "repeated prime": 1, "full with residual": 1, "partial without residual": 1,
               "wrong product": 1}


@pytest.mark.parametrize("name", [*READ_FAULTS, "composite marked prime", "prime residual"])
def test_a_read_refuses_what_verify_consistency_finds_without_is_prime(monkeypatch, name):
    db = golden_store()
    corrupt, finding, _ = CORRUPTIONS[name]
    corrupt(db)
    monkeypatch.setattr(store_module, "is_prime", None)  # a read proves nothing prime
    rec = db.get(READ_FAULTS.get(name, 1))
    if name in READ_FAULTS:
        with pytest.raises(ValueError, match=f"^{re.escape(finding)}$"):
            db.factorization_of(rec)
    else:  # only verify consistency, which proves the rows prime, finds these
        assert db.factorization_of(rec).product() == master.f1(GOLDEN)


GOLDEN_FACTORS = [(7, 2), (13, 3), (61, 1), (1597, 1), (9349, 1)]


def _factorize(hit_id, factors, residual=1, status="full"):
    return lambda db: db.set_factorization(hit_id, Factorization(factors, residual, status))


# each corruption of CORRUPTIONS a setter can write, as its call
BY_SETTER = {
    "bad provenance": lambda db: db.insert_hit(GOLDEN, "Guesswork"),
    "unknown tags": lambda db: db.set_family_tags(1, {"Bogus"}),
    "bad f1_status": _factorize(1, GOLDEN_FACTORS, status="maybe"),
    "inadmissible fibre": lambda db: db.upsert_fibre(FibreRow(4, 4, 2, 4)),
    "rows without status": _factorize(2, [(3, 1)], status="none"),
    "status without rows": _factorize(1, []),
    "repeated prime": _factorize(1, [(7, 1), (7, 1), *GOLDEN_FACTORS[1:]]),
    "composite marked prime": _factorize(1, [(7, 2), (13, 3), (97417, 1), (9349, 1)]),
    "full with residual": _factorize(1, GOLDEN_FACTORS[:2] + GOLDEN_FACTORS[3:], 61),
    "partial without residual": _factorize(1, GOLDEN_FACTORS, status="partial"),
    "prime residual": _factorize(1, GOLDEN_FACTORS[:2] + GOLDEN_FACTORS[3:], 61, "partial"),
}


def _refused_unchanged(db, dirpath, monkeypatch, setter, finding) -> None:
    """`setter(db)` raises exactly `finding` and changes no line of `db`, last
    exported to `dirpath`: the next export rewrites only manifest.txt."""
    before = _tree(dirpath)
    state = (dict(db._hits), dict(db._factors), dict(db._fibres), dict(db._on_disk))
    with pytest.raises(ValueError, match=f"^{re.escape(finding)}$"):
        setter(db)
    assert (db._hits, db._factors, db._fibres, db._on_disk) == state
    replaced = _record_replaces(monkeypatch)
    export_csv(db, dirpath)
    assert replaced == ["manifest.txt"] and _tree(dirpath) == before


@pytest.mark.parametrize("name", BY_SETTER)
def test_a_setter_refuses_what_verify_consistency_reports(tmp_path, monkeypatch, name):
    db = golden_store()
    export_csv(db, tmp_path)
    _refused_unchanged(db, tmp_path, monkeypatch, BY_SETTER[name], CORRUPTIONS[name][1])


def test_set_factorization_proves_only_the_primes_factor_did_not(monkeypatch):
    proofs = []
    monkeypatch.setattr(store_module, "is_prime", lambda n: proofs.append(n) or is_prime(n))
    db = golden_store()
    fact = factor(master.f1(GOLDEN))
    db.set_factorization(1, fact)
    assert proofs == []
    # built by hand, the same factorization goes through the whole rule
    db.set_factorization(1, Factorization(fact.factors, fact.residual, fact.status))
    assert proofs == [p for p, _ in GOLDEN_FACTORS]
    # a factor that factor() did not prove is proved: a composite is refused as before
    with pytest.raises(ValueError, match="^hit 1: composite 97417 marked prime$"):
        db.set_factorization(1, replace(fact, factors=[(7, 2), (13, 3), (97417, 1), (9349, 1)]))


def test_status_none_drops_the_factor_rows(tmp_path):
    db = golden_store()
    _factorize(1, [], status="none")(db)
    assert (db.get(1).f1_status, db.factor_rows(1), validate_consistency(db)) == ("none", [], [])
    export_csv(db, tmp_path)
    assert (tmp_path / "f1_factors.csv").read_text() == "hit_id,prime,exponent,is_residual\n"
    assert validate_consistency(import_csv(tmp_path)) == []


def test_fibre_row_upsert_and_validation():
    _, seeds = _fibre_with_seed()
    good = FibreRow(m=44, n=9, torsion_d1=2, torsion_d2=4, generators=tuple(seeds))
    P = seeds[0]
    off = CurvePoint(P.X, P.Y + 1)
    # every fibre's torsion is Z/2 x Z/4 (ecq.torsion_subgroup): a row
    # otherwise is refused by upsert_fibre, and reported once written
    for row, finding in [
        (replace(good, generators=(P, off)), "fibre (44,9): generator off curve"),
        (FibreRow(m=4, n=2, torsion_d1=2, torsion_d2=4), "fibre (4,2): inadmissible (gcd(m,n) = 2)"),
        *((replace(good, torsion_d1=d1, torsion_d2=d2, generators=()),
           f"fibre (44,9): bad torsion ({d1},{d2})")
          for d1, d2 in ((2, 3), (2, 8), (1, 4), (4, 4), (2, 2))),
        (replace(good, torsion_d2=8, generators=(off,)), "fibre (44,9): bad torsion (2,8)"),
    ]:
        db = golden_store()
        db.upsert_fibre(good)
        assert validate_consistency(db) == []
        with pytest.raises(ValueError, match=f"^{re.escape(finding)}$"):
            db.upsert_fibre(row)
        assert db.fibres() == [good]
        put_lines(db, fibre=row)
        assert validate_consistency(db)[0] == finding
    db.upsert_fibre(replace(good, rank_lb=1))  # an upsert replaces the row of its pair
    assert db.fibres() == [replace(good, rank_lb=1)]


def _fibre_with_seed():
    from brickforge.fibration import build_fibre

    c = build_fibre(44, 9)
    seeds = seeds_from_hits(c, [(55, 48)])
    return c, seeds


def test_export_is_deterministic(tmp_path):
    db = golden_store()
    m1 = export_csv(db, tmp_path / "one")
    m2 = export_csv(db, tmp_path / "two")
    assert m1 == m2
    for name, _ in m1:
        assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()


def test_manifest_matches_digests(tmp_path):
    manifest = export_csv(golden_store(), tmp_path)
    listed = dict(manifest)
    mark, *lines = (tmp_path / "manifest.txt").read_text().splitlines()
    assert mark == EXPORT_MARK == "brickforge-export 1"
    assert len(lines) == len(CSV_NAMES)
    for line in lines:
        digest, name = line.split("  ")
        assert listed[name] == digest
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest


def full_store() -> Store:
    """Factor rows, a residual row, family tags and fibre generators."""
    db = golden_store()
    f1 = master.f1(db.get(2).tuple)
    db.set_factorization(2, Factorization(factors=[(3, 2)], residual=f1 // 9, status="partial"))
    _, seeds = _fibre_with_seed()
    db.upsert_fibre(FibreRow(m=44, n=9, torsion_d1=2, torsion_d2=4,
                             rank_lb=1, generators=tuple(seeds)))
    db.upsert_fibre(FibreRow(m=2, n=1, torsion_d1=2, torsion_d2=4))
    db.set_family_tags(1, {"Sporadic", "Euler"})
    db.set_family_tags(2, {"Sporadic"})
    return db


def _csv_writer_export(store: Store) -> dict[str, bytes]:
    """The three files as csv.writer writes them, row for row."""
    def table(header, rows):
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        return buf.getvalue().encode("ascii")

    factor_rows = sorted((row for rec in store.hits() for row in store.factor_rows(rec.id)),
                         key=lambda r: (r.hit_id, r.is_residual, r.prime))
    return {
        "master_hits.csv": table(
            ("id", "a", "b", "m", "n", "x", "y", "z", "g_scale",
             "provenance", "family_tags", "f1_status"),
            [(r.id, r.a, r.b, r.m, r.n, r.x, r.y, r.z, r.g_scale, r.provenance,
              ";".join(sorted(r.family_tags)), r.f1_status) for r in store.hits()]),
        "f1_factors.csv": table(
            ("hit_id", "prime", "exponent", "is_residual"),
            [(r.hit_id, r.prime, r.exponent, int(r.is_residual)) for r in factor_rows]),
        "fibers.csv": table(
            ("m", "n", "torsion_d1", "torsion_d2", "rank_lb", "generators"),
            [(f.m, f.n, f.torsion_d1, f.torsion_d2, "" if f.rank_lb is None else f.rank_lb,
              ";".join(f"{p.X.numerator}/{p.X.denominator}:{p.Y.numerator}/{p.Y.denominator}"
                       for p in f.generators)) for f in store.fibres()]),
    }


def _tree(dirpath) -> dict[str, bytes]:
    return {name: (dirpath / name).read_bytes() for name in STORE_FILES}


def test_roundtrip_preserves_everything(tmp_path):
    db = full_store()
    export_csv(db, tmp_path / "a")
    back = import_csv(tmp_path / "a")
    export_csv(back, tmp_path / "b")
    assert _tree(tmp_path / "a") == _tree(tmp_path / "b")
    assert sorted(os.listdir(tmp_path / "a")) == sorted(STORE_FILES)  # no .tmp left
    assert validate_consistency(back) == []
    assert back.get(2).family_tags == {"Sporadic"}
    assert back.factorization_of(back.get(2)) == db.factorization_of(db.get(2))
    assert [row.rank_lb for row in back.fibres()] == [None, 1]
    assert back.fibres()[1].generators == db.fibres()[1].generators != ()


def test_export_matches_csv_writer(tmp_path):
    db = full_store()
    export_csv(db, tmp_path)
    for name, data in _csv_writer_export(db).items():
        assert (tmp_path / name).read_bytes() == data, name


@pytest.mark.parametrize("text", ["a,b", 'c"d', "e\nf", 'g,"h"', "i\rj"])
def test_a_field_with_a_comma_quote_or_line_break_is_refused(tmp_path, monkeypatch, text):
    # no store file holds such a field, as a split at line ends and commas
    # could not read it back: the line of a record that would hold one is
    # refused, and a setter refuses it, as no family tag holds one
    export_csv(full_store(), tmp_path)
    db = import_csv(tmp_path)
    for field in ("provenance", "f1_status"):
        with pytest.raises(ValueError, match="holds a comma, quote or line break$"):
            store_module._line(replace(db.get(2), **{field: text}))
    _refused_unchanged(db, tmp_path, monkeypatch, lambda db: db.set_family_tags(1, {"Euler", text}),
                       "hit 1: unknown family tags")


@pytest.mark.parametrize("tags, bad", [({"Saunderson;Euler"}, "Saunderson;Euler"),
                                       ({""}, ""), ({"Euler", ""}, "")])
def test_a_family_tag_that_would_not_read_back_is_refused(tmp_path, monkeypatch, tags, bad):
    # ";" separates the tags of a row, and an empty tag is dropped on read:
    # no family tag is empty or holds ";"
    assert bad not in FAMILY_TAGS
    export_csv(full_store(), tmp_path)
    db = import_csv(tmp_path)
    _refused_unchanged(db, tmp_path, monkeypatch, lambda db: db.set_family_tags(1, tags),
                       "hit 1: unknown family tags")
    assert db.get(1).family_tags == {"Euler", "Sporadic"}


def test_imported_record_exposes_primitive_edges(tmp_path):
    export_csv(golden_store(), tmp_path)
    rec = import_csv(tmp_path).get(1)
    assert (rec.x // rec.g_scale, rec.y // rec.g_scale,
            rec.z // rec.g_scale) == (191065, 81576, 1399200)
    assert (rec.x, rec.y, rec.z) == (7 * 191065, 7 * 81576, 7 * 1399200)


@pytest.mark.parametrize("name", ["master_hits.csv", "f1_factors.csv", "fibers.csv"])
def test_import_rejects_flipped_byte(tmp_path, name):
    export_csv(full_store(), tmp_path)
    data = bytearray((tmp_path / name).read_bytes())
    data[len(data) // 2] ^= 0x01
    (tmp_path / name).write_bytes(bytes(data))
    with pytest.raises(ValueError, match=f"{name} does not match"):
        import_csv(tmp_path)


def test_import_rejects_truncated_hits(tmp_path):
    export_csv(full_store(), tmp_path)
    path = tmp_path / "master_hits.csv"
    data = path.read_bytes()
    path.write_bytes(data[: data.rindex(b"\n", 0, -1) + 1])  # the last row is gone
    with pytest.raises(ValueError, match="master_hits.csv does not match"):
        import_csv(tmp_path)
    path.write_bytes(data[:-20])  # cut inside the last row
    with pytest.raises(ValueError, match="master_hits.csv does not match"):
        import_csv(tmp_path)
    # without the manifest, a row cut short is still refused
    (tmp_path / "manifest.txt").unlink()
    with pytest.raises(ValueError, match="master_hits.csv row 3"):
        import_csv(tmp_path)


def _rewrite_manifest(dirpath, marked=False) -> None:
    """A manifest of the files as they are, as sha256sum writes one, or
    under the export mark."""
    lines = [f"{hashlib.sha256((dirpath / n).read_bytes()).hexdigest()}  {n}\n" for n in CSV_NAMES]
    (dirpath / "manifest.txt").write_text("".join([EXPORT_MARK + "\n"] * marked + lines))


def test_import_rejects_duplicated_rows(tmp_path):
    export_csv(full_store(), tmp_path)
    path = tmp_path / "master_hits.csv"
    header, first, second = path.read_text().splitlines()
    path.write_text("\n".join([header, first, second, first]) + "\n")
    _rewrite_manifest(tmp_path)  # the digests match; the duplicate is what fails
    with pytest.raises(ValueError, match="duplicate hit id 1"):
        import_csv(tmp_path)
    path.write_text("\n".join([header, first, second, "3" + first[1:]]) + "\n")
    _rewrite_manifest(tmp_path)
    with pytest.raises(ValueError, match=r"tuple \(44, 9, 55, 48\) in hits 1 and 3"):
        import_csv(tmp_path)
    path.write_text("\n".join([header, first, second]) + "\n")
    fibres = tmp_path / "fibers.csv"
    fibres.write_text(fibres.read_text() + fibres.read_text().splitlines()[1] + "\n")
    _rewrite_manifest(tmp_path)
    with pytest.raises(ValueError, match=r"duplicate fibre \(2,1\)"):
        import_csv(tmp_path)


@pytest.mark.parametrize("manifest", [True, False])
def test_import_rejects_orphan_factor_rows(tmp_path, manifest):
    # a factor row for a hit id that names no hit would be dropped by the next export
    export_csv(golden_store(), tmp_path)
    path = tmp_path / "f1_factors.csv"
    path.write_text(path.read_text() + "7,3,1,0\n")
    if manifest:
        _rewrite_manifest(tmp_path)  # the digests match; the orphan is what fails
    else:
        (tmp_path / "manifest.txt").unlink()
    with pytest.raises(ValueError, match="f1_factors.csv row 7: factor row for hit id 7, "
                                         "which names no hit"):
        import_csv(tmp_path)


def test_import_without_manifest_loads(tmp_path):
    export_csv(full_store(), tmp_path / "a")
    (tmp_path / "a" / "manifest.txt").unlink()
    export_csv(import_csv(tmp_path / "a"), tmp_path / "b")
    for name in CSV_NAMES:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_import_reads_crlf_and_blank_lines(tmp_path):
    # a store saved with CRLF line ends or blank lines still loads
    export_csv(full_store(), tmp_path / "a")
    want = _tree(tmp_path / "a")
    (tmp_path / "a" / "manifest.txt").unlink()
    path = tmp_path / "a" / "master_hits.csv"
    for text in (want["master_hits.csv"].replace(b"\n", b"\r\n"),
                 want["master_hits.csv"].replace(b"\n", b"\n\n")):
        path.write_bytes(text)
        export_csv(import_csv(tmp_path / "a"), tmp_path / "b")
        assert _tree(tmp_path / "b") == want


def test_import_rejects_bad_manifest(tmp_path):
    export_csv(full_store(), tmp_path)
    manifest = tmp_path / "manifest.txt"
    lines = manifest.read_text().splitlines(keepends=True)
    manifest.write_text("".join(lines[:3]))  # the mark, then two of the three files
    with pytest.raises(ValueError, match="does not list fibers.csv"):
        import_csv(tmp_path)
    manifest.write_text("".join(lines) + "0" * 64 + "  extra.csv\n")
    with pytest.raises(ValueError, match="unexpected line"):
        import_csv(tmp_path)


@pytest.mark.parametrize("start", ["manifest", "no manifest", "empty"])
@pytest.mark.parametrize("fail_at", range(4))
def test_export_interrupted_at_each_replace(tmp_path, monkeypatch, start, fail_at):
    if start != "empty":
        export_csv(golden_store(), tmp_path)
    if start == "no manifest":
        (tmp_path / "manifest.txt").unlink()
    before = {name: (tmp_path / name).read_bytes() for name in os.listdir(tmp_path)}
    new = full_store()  # differs from the old store in every file
    real_replace = os.replace
    replaced = []

    def failing_replace(src, dst):
        if len(replaced) == fail_at:
            raise OSError("injected fault")
        replaced.append(os.path.basename(dst))
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="injected fault"):
        export_csv(new, tmp_path)
    monkeypatch.undo()
    assert replaced == ["manifest.txt", *CSV_NAMES][:fail_at]  # the manifest goes first
    left = {name: (tmp_path / name).read_bytes() for name in os.listdir(tmp_path)}
    if fail_at == 0:
        assert left == before  # still the old store
        if start != "empty":
            import_csv(tmp_path)
    elif start == "empty":
        # the new manifest without all the new files: a file is missing
        with pytest.raises(OSError, match=CSV_NAMES[fail_at - 1]):
            import_csv(tmp_path)
    else:
        # new and old files side by side: the new manifest refuses the mix
        with pytest.raises(ValueError, match=f"{CSV_NAMES[fail_at - 1]} does not match"):
            import_csv(tmp_path)
    assert not [name for name in left if name.endswith(".tmp")]


def test_roundtrip_random_hits(tmp_path):
    rng = random.Random(20)
    db = Store()
    found = 0
    while found < 3:
        t = random_admissible(rng, 2, 60)
        if master.is_master_hit(t) is None:
            continue
        _, created = db.insert_hit(t, f"Exhaustive-Bound-{60}")
        found += 1 if created else 0
    for rec in db.hits():
        db.set_factorization(rec.id, factor(master.f1(rec.tuple)))
    export_csv(db, tmp_path)
    back = import_csv(tmp_path)
    assert [tuple(r.tuple) for r in back.hits()] == [tuple(r.tuple) for r in db.hits()]
    assert validate_consistency(back) == []


# -- rows kept as their lines, parsed when read, files left alone when unchanged --

def _mw_argv(m, n, height, K, db):
    return ["mw", "run", "--m", str(m), "--n", str(n), "--seed-height", str(height),
            "--K", str(K), "--db", str(db)]


@pytest.fixture(scope="module")
def k2_store(tmp_path_factory):
    """The 346-record store of mw run (22,17) H=80 K=2."""
    db = tmp_path_factory.mktemp("k2")
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(_mw_argv(22, 17, 80, 2, db)) == 0
    return db


class _Count:
    def __init__(self, fn):
        self.fn, self.args = fn, []

    @property
    def calls(self) -> int:
        return len(self.args)

    def __call__(self, *args):
        self.args.append(args)
        return self.fn(*args)


def _hits_builds(count: _Count) -> int:
    """How many of the csv_chunks calls `count` saw built master_hits.csv."""
    return sum(args[0] == csvrows.HIT_COLUMNS for args in count.args)


def test_mw_run_parses_no_loaded_row(k2_store, tmp_path, monkeypatch, capsys):
    db = shutil.copytree(k2_store, tmp_path / "db")
    parse = _Count(store_module._hit_record)
    monkeypatch.setattr(store_module, "_hit_record", parse)
    for m, n, height in ((6, 5, 60), (6, 5, 60), (2, 1, 60), (22, 17, 30)):
        assert cli.main(_mw_argv(m, n, height, 2, db)) == 0  # inserts, then dedup only
    assert "inserted=30" in capsys.readouterr().out
    assert parse.calls == 0
    back = import_csv(db)
    assert parse.calls == 0 and len(back) == 376
    back.hits()  # the count is real: every row parses at each read
    back.hits()
    assert parse.calls == 2 * 376


def _reference_rows(data: bytes) -> list[tuple]:
    """Each master_hits.csv row parsed field by field with int() and a tag set."""
    rows = csv.reader(io.StringIO(data.decode("ascii"), newline=""))
    next(rows)
    return [(*map(int, r[:9]), r[9], set(filter(None, r[10].split(";"))), r[11])
            for r in rows if r]


def _reference_hits_csv(rows) -> bytes:
    """master_hits.csv as csv.writer writes the parsed rows, one field at a time."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("id", "a", "b", "m", "n", "x", "y", "z", "g_scale",
                     "provenance", "family_tags", "f1_status"))
    writer.writerows((*r[:10], ";".join(sorted(r[10])), r[11]) for r in rows)
    return buf.getvalue().encode("ascii")


def _values(rec) -> tuple:
    return (rec.id, rec.a, rec.b, rec.m, rec.n, rec.x, rec.y, rec.z, rec.g_scale,
            rec.provenance, rec.family_tags, rec.f1_status)


def _edit_field(column: int, edit):
    def apply(text: bytes) -> bytes:
        header, first, second = text.decode("ascii").splitlines()
        fields = second.split(",")
        fields[column] = edit(fields[column])
        return "\n".join([header, first, ",".join(fields), ""]).encode("ascii")
    return apply


NONCANONICAL = {
    "leading zero": _edit_field(5, lambda x: "0" + x),
    "leading zero id": _edit_field(0, lambda i: "0" + i),
    "plus sign": _edit_field(1, lambda a: "+" + a),
    "minus zero": _edit_field(8, lambda g: "-0"),
    "leading space": _edit_field(6, lambda y: " " + y),
    "trailing space": _edit_field(4, lambda n: n + " "),
    "underscore": _edit_field(7, lambda z: z[:1] + "_" + z[1:]),
    "unsorted tags": _edit_field(10, lambda t: "Sporadic;Euler"),
    "repeated tags": _edit_field(10, lambda t: "Euler;Euler"),
    "empty tag segments": _edit_field(10, lambda t: ";Euler;;Sporadic;"),
    "crlf": lambda text: text.replace(b"\n", b"\r\n"),
    "blank lines": lambda text: text.replace(b"\n", b"\n\n"),
    "quoted provenance": _edit_field(9, lambda p: f'"{p}"'),
}
# only csv.reader read a quoted field, and no command writes one: such a file
# is refused at import, naming the file and the line
REFUSED = {"quoted provenance": "master_hits.csv line 3: a quote or a carriage return, "
                                "which no store field holds"}


def _drop_manifest(dirpath) -> None:
    (dirpath / "manifest.txt").unlink()


@pytest.mark.parametrize("case", sorted(NONCANONICAL))
def test_noncanonical_row_reads_and_exports_as_before(tmp_path, monkeypatch, case):
    _noncanonical_hits(tmp_path, monkeypatch, case, _drop_manifest)


@pytest.mark.parametrize("case", sorted(NONCANONICAL))
def test_noncanonical_row_under_a_manifest_without_the_mark(tmp_path, monkeypatch, case):
    _noncanonical_hits(tmp_path, monkeypatch, case, _rewrite_manifest)


def _noncanonical_hits(tmp_path, monkeypatch, case, manifest) -> None:
    """A hit row edited by NONCANONICAL[case], the manifest then dropped or
    rewritten by `manifest`: each row parsed at import and exported
    canonically, or the file refused for a case in REFUSED."""
    edit = NONCANONICAL[case]
    export_csv(full_store(), tmp_path / "a")
    want = _tree(tmp_path / "a")
    data = edit(want["master_hits.csv"])
    (tmp_path / "a" / "master_hits.csv").write_bytes(data)
    manifest(tmp_path / "a")
    if case in REFUSED:
        with pytest.raises(ValueError, match=f"^{re.escape(REFUSED[case])}$"):
            import_csv(tmp_path / "a")
        return
    parse = _Count(store_module._hit_record)
    monkeypatch.setattr(store_module, "_hit_record", parse)
    back = import_csv(tmp_path / "a")
    assert parse.calls == 2  # each of its rows parsed once
    export_csv(back, tmp_path / "b")
    ref = _reference_rows(data)
    got = _tree(tmp_path / "b")
    assert got["master_hits.csv"] == _reference_hits_csv(ref)
    assert [got[name] for name in CSV_NAMES[1:]] == [want[name] for name in CSV_NAMES[1:]]
    assert [_values(rec) for rec in back.hits()] == ref


def test_record_changed_in_place_is_exported(tmp_path):
    # a record of the store changed by its setters, not a snapshot a read returned
    export_csv(full_store(), tmp_path)
    before = (tmp_path / "master_hits.csv").read_bytes()
    back = import_csv(tmp_path)
    export_csv(back, tmp_path)  # nothing changed: nothing rewritten
    assert (tmp_path / "master_hits.csv").read_bytes() == before
    back.set_family_tags(1, back.hits()[0].family_tags | {"Lenhart"})
    f1 = master.f1(back.get(2).tuple)
    back.set_factorization(2, Factorization(factors=[], residual=f1, status="partial"))
    export_csv(back, tmp_path)
    assert (tmp_path / "master_hits.csv").read_bytes() == \
        _csv_writer_export(back)["master_hits.csv"] != before
    again = import_csv(tmp_path)
    assert again.get(1).family_tags == {"Euler", "Lenhart", "Sporadic"}
    assert again.factorization_of(again.get(2)).residual == f1
    # changed back, the file goes back too, though the store last wrote other bytes
    again.set_family_tags(1, {"Euler", "Sporadic"})
    again.set_factorization(2, Factorization(factors=[(3, 2)], residual=f1 // 9, status="partial"))
    export_csv(again, tmp_path)
    assert (tmp_path / "master_hits.csv").read_bytes() == before


@pytest.mark.parametrize("column", range(9))
@pytest.mark.parametrize("text", ["x1", "1.5", ""])
def test_import_rejects_non_integer_field(tmp_path, column, text):
    export_csv(full_store(), tmp_path)
    path = tmp_path / "master_hits.csv"
    path.write_bytes(_edit_field(column, lambda _: text)(path.read_bytes()))
    _rewrite_manifest(tmp_path)
    with pytest.raises(ValueError, match=re.escape(f"invalid literal for int() with base 10: {text!r}")):
        import_csv(tmp_path)


@pytest.mark.parametrize("canonical", [True, False])
def test_import_rejects_duplicates_written_either_way(tmp_path, canonical):
    # the repeated row is canonical text, kept as it is, or parsed at import
    export_csv(full_store(), tmp_path)
    path = tmp_path / "master_hits.csv"
    header, first, second = path.read_text().splitlines()
    again = first if canonical else "0" + first
    path.write_text("\n".join([header, first, second, again]) + "\n")
    _rewrite_manifest(tmp_path)
    with pytest.raises(ValueError, match="master_hits.csv: duplicate hit id 1"):
        import_csv(tmp_path)
    fields = first.split(",")
    fields[0] = "3" if canonical else "03"
    path.write_text("\n".join([header, first, second, ",".join(fields)]) + "\n")
    _rewrite_manifest(tmp_path)
    with pytest.raises(ValueError, match=r"tuple \(44, 9, 55, 48\) in hits 1 and 3"):
        import_csv(tmp_path)
    path.write_text("\n".join([header, first, second + ",extra"]) + "\n")
    _rewrite_manifest(tmp_path)
    with pytest.raises(ValueError, match="master_hits.csv row 3: 13 fields, expected 12"):
        import_csv(tmp_path)


def _record_replaces(monkeypatch) -> list[str]:
    replaced = []
    real_replace = os.replace

    def recording_replace(src, dst):
        replaced.append(os.path.basename(dst))
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", recording_replace)
    return replaced


def test_mw_run_rewrites_only_changed_files(k2_store, tmp_path, monkeypatch, capsys):
    db = shutil.copytree(k2_store, tmp_path / "db")
    replaced = _record_replaces(monkeypatch)
    for argv, files in (
        (_mw_argv(2, 1, 60, 2, db), ["manifest.txt", "fibers.csv"]),  # a new fibre row only
        (_mw_argv(6, 5, 60, 2, db), ["manifest.txt", "master_hits.csv", "fibers.csv"]),
        (_mw_argv(6, 5, 60, 2, db), ["manifest.txt"]),  # a rerun changes nothing
        (_mw_argv(22, 17, 30, 2, db), ["manifest.txt", "fibers.csv"]),  # dedup, fewer seeds
    ):
        del replaced[:]
        before = _tree(db)
        assert cli.main(argv) == 0
        assert replaced == files
        assert [name for name in CSV_NAMES if _tree(db)[name] != before[name]] == files[1:]
        assert sorted(os.listdir(db)) == sorted(STORE_FILES)
    assert "inserted=30" in capsys.readouterr().out
    del replaced[:]
    export_csv(import_csv(db), tmp_path / "other")
    assert replaced == ["manifest.txt", *CSV_NAMES]  # a new directory gets every file
    assert _tree(tmp_path / "other") == _tree(db)


def test_export_rewrites_a_file_replaced_since_it_was_read(tmp_path, monkeypatch):
    export_csv(full_store(), tmp_path / "a")
    export_csv(golden_store(), tmp_path / "b")
    back = import_csv(tmp_path / "a")
    want = _tree(tmp_path / "a")
    shutil.copy(tmp_path / "b" / "fibers.csv", tmp_path / "a" / "fibers.csv")
    replaced = _record_replaces(monkeypatch)
    export_csv(back, tmp_path / "a")
    assert replaced == ["manifest.txt", "fibers.csv"]
    assert _tree(tmp_path / "a") == want


@pytest.mark.parametrize("change", ["hits", "fibres", "nothing"])
def test_export_with_skipped_files_interrupted_at_each_replace(tmp_path, monkeypatch, change):
    db = tmp_path / "db"
    export_csv(full_store(), db)
    before = _tree(db)
    written = ["manifest.txt"] + {"hits": ["master_hits.csv"], "fibres": ["fibers.csv"],
                                  "nothing": []}[change]

    def changed_store() -> Store:
        new = import_csv(db)
        if change == "hits":
            new.insert_hit(MasterTuple(40, 33, 41, 32), "MW-41-32")
        elif change == "fibres":
            new.upsert_fibre(FibreRow(m=4, n=1, torsion_d1=2, torsion_d2=4))
        return new

    for fail_at in range(len(written)):
        new = changed_store()
        real_replace = os.replace
        replaced = []

        def failing_replace(src, dst):
            if len(replaced) == fail_at:
                raise OSError("injected fault")
            replaced.append(os.path.basename(dst))
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError, match="injected fault"):
            export_csv(new, db)
        monkeypatch.undo()
        assert replaced == written[:fail_at]
        assert sorted(os.listdir(db)) == sorted(STORE_FILES)  # no .tmp left
        if fail_at == 0:
            assert _tree(db) == before  # still the old store
            import_csv(db)
        else:
            # the new manifest and a file it does not list yet: refused
            with pytest.raises(ValueError, match=f"{written[fail_at]} does not match"):
                import_csv(db)
            for name, data in before.items():
                (db / name).write_bytes(data)
        replaced = _record_replaces(monkeypatch)
        export_csv(new, db)  # after a failed export, every file is written
        monkeypatch.undo()
        assert replaced == ["manifest.txt", *CSV_NAMES]
        assert _tree(db) == _tree_of(new, tmp_path / "fresh")
        for name, data in before.items():
            (db / name).write_bytes(data)


def _tree_of(store: Store, dirpath) -> dict[str, bytes]:
    export_csv(store, dirpath)
    return _tree(dirpath)


# -- fibre rows kept as their lines, master_hits.csv not rebuilt when unchanged --

def test_mw_run_that_inserts_nothing_builds_no_hits_file(k2_store, tmp_path, monkeypatch,
                                                         capsys):
    db = shutil.copytree(k2_store, tmp_path / "db")
    builds = _Count(csvrows.csv_chunks)
    parses = _Count(csvrows.parse_points)
    monkeypatch.setattr(csvrows, "csv_chunks", builds)
    monkeypatch.setattr(csvrows, "parse_points", parses)
    assert cli.main(_mw_argv(6, 5, 60, 2, db)) == 0  # inserts, and adds generators
    assert "inserted=30" in capsys.readouterr().out
    assert (_hits_builds(builds), parses.calls) == (1, 0)
    for m, n, height in ((6, 5, 60), (2, 1, 60), (22, 17, 30)):
        assert cli.main(_mw_argv(m, n, height, 2, db)) == 0
        assert "inserted=0" in capsys.readouterr().out
    assert (_hits_builds(builds), parses.calls) == (1, 0)
    assert len(import_csv(db).fibres()) == 3
    assert parses.calls == 3  # the count is real: each kept row parses when read
    assert validate_consistency(import_csv(db)) == []


def fibre_store() -> Store:
    """full_store with fibre rows whose generators are fractions."""
    from brickforge.fibration import build_fibre
    from brickforge.mw import naive_quartic_search

    db = full_store()
    for m, n in ((6, 5), (13, 2), (22, 17)):
        c = build_fibre(m, n)
        gens = seeds_from_hits(c, naive_quartic_search(c, 60))
        db.upsert_fibre(FibreRow(m=m, n=n, torsion_d1=2, torsion_d2=4, generators=tuple(gens)))
    return db


def _edit_fibre(column: int, edit, key=("22", "17")):
    def apply(text: bytes) -> bytes:
        lines = text.decode("ascii").split("\n")
        for i, line in enumerate(lines):
            fields = line.split(",")
            if tuple(fields[:2]) == key:
                fields[column] = edit(fields[column])
                lines[i] = ",".join(fields)
        return "\n".join(lines).encode("ascii")
    return apply


def _first_fraction(edit):
    # the first fraction n/d of the generators field that is not an integer
    def apply(generators: str) -> str:
        head, sep, tail = generators.partition("/9:")
        assert sep, generators
        cut = max(head.rfind(";"), head.rfind(":")) + 1
        return head[:cut] + edit(int(head[cut:]), 9) + ":" + tail
    return apply


FIBRE_NONCANONICAL = {
    "2/4": _edit_fibre(5, _first_fraction(lambda n, d: f"{2 * n}/{2 * d}")),
    "1/-2": _edit_fibre(5, _first_fraction(lambda n, d: f"{-n}/-{d}")),
    "+3": _edit_fibre(5, _first_fraction(lambda n, d: f"+{n}/{d}")),
    "-0": _edit_fibre(4, lambda rank: "-0"),
    "leading zero": _edit_fibre(0, lambda m: "0" + m),
    "leading zero denominator": _edit_fibre(5, _first_fraction(lambda n, d: f"{n}/0{d}")),
    "space": _edit_fibre(3, lambda d2: " " + d2),
    "empty generator": _edit_fibre(5, lambda g: g.replace(";", ";;", 1) + ";"),
}


def _reference_fibres(data: bytes) -> list[tuple]:
    """Each fibers.csv row parsed field by field with int() and Fraction."""
    from fractions import Fraction

    rows = csv.reader(io.StringIO(data.decode("ascii"), newline=""))
    next(rows)
    out = []
    for m, n, d1, d2, rank_lb, gens in (r for r in rows if r):
        points = []
        for chunk in filter(None, gens.split(";")):
            (xn, xd), (yn, yd) = (part.split("/") for part in chunk.split(":"))
            points.append((Fraction(int(xn), int(xd)), Fraction(int(yn), int(yd))))
        out.append((int(m), int(n), int(d1), int(d2),
                    None if rank_lb == "" else int(rank_lb), tuple(points)))
    return sorted(out, key=lambda r: r[:2])


def _reference_fibres_csv(rows) -> bytes:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("m", "n", "torsion_d1", "torsion_d2", "rank_lb", "generators"))
    writer.writerows((*r[:4], "" if r[4] is None else r[4],
                      ";".join(f"{x.numerator}/{x.denominator}:{y.numerator}/{y.denominator}"
                               for x, y in r[5])) for r in rows)
    return buf.getvalue().encode("ascii")


@pytest.mark.parametrize("case", sorted(FIBRE_NONCANONICAL))
def test_noncanonical_fibre_row_reads_and_exports_as_before(tmp_path, monkeypatch, case):
    _noncanonical_fibres(tmp_path, monkeypatch, case, _drop_manifest)


@pytest.mark.parametrize("case", sorted(FIBRE_NONCANONICAL))
def test_noncanonical_fibre_row_under_a_manifest_without_the_mark(tmp_path, monkeypatch, case):
    _noncanonical_fibres(tmp_path, monkeypatch, case, _rewrite_manifest)


def _noncanonical_fibres(tmp_path, monkeypatch, case, manifest) -> None:
    """_noncanonical_hits for a fibre row edited by FIBRE_NONCANONICAL[case]."""
    export_csv(fibre_store(), tmp_path / "a")
    want = _tree(tmp_path / "a")
    data = FIBRE_NONCANONICAL[case](want["fibers.csv"])
    assert data != want["fibers.csv"]
    (tmp_path / "a" / "fibers.csv").write_bytes(data)
    manifest(tmp_path / "a")
    parse = _Count(store_module._fibre_row)
    monkeypatch.setattr(store_module, "_fibre_row", parse)
    back = import_csv(tmp_path / "a")
    assert parse.calls == 5  # each of its rows parsed once
    export_csv(back, tmp_path / "b")
    ref = _reference_fibres(data)
    got = _tree(tmp_path / "b")
    assert got["fibers.csv"] == _reference_fibres_csv(ref)
    assert [got[name] for name in CSV_NAMES[:2]] == [want[name] for name in CSV_NAMES[:2]]
    assert [(f.m, f.n, f.torsion_d1, f.torsion_d2, f.rank_lb,
             tuple((P.X, P.Y) for P in f.generators)) for f in back.fibres()] == ref


def test_mixed_kept_and_parsed_rows_export_like_csv_writer(tmp_path):
    # lines kept from a file under the mark, lines of rows parsed from one
    # without it, and lines the setters put among them
    export_csv(fibre_store(), tmp_path / "a")
    shutil.copytree(tmp_path / "a", tmp_path / "u")
    _rewrite_manifest(tmp_path / "u")
    kept, parsed, ref = import_csv(tmp_path / "a"), import_csv(tmp_path / "u"), fibre_store()
    steps = [
        lambda db: None,
        lambda db: db.set_family_tags(2, {"Euler"}),
        lambda db: db.insert_hit(MasterTuple(40, 33, 41, 32), "MW-41-32"),
        lambda db: db.upsert_fibre(FibreRow(m=4, n=1, torsion_d1=2, torsion_d2=4)),
        lambda db: db.upsert_fibre(FibreRow(m=13, n=2, torsion_d1=2, torsion_d2=4, rank_lb=1)),
    ]
    for i, step in enumerate(steps):
        for db in (kept, parsed, ref):
            step(db)
        want = _csv_writer_export(ref)
        for name, db in (("kept", kept), ("parsed", parsed)):
            got = _tree_of(db, tmp_path / f"{name}{i}")
            assert {name: got[name] for name in CSV_NAMES} == want, (name, i)


def test_export_of_several_chunks_writes_the_bytes_csv_writer_writes(tmp_path):
    # three chunks of lines and a bit, with leading zeros in the rows at
    # the first chunk boundary; no manifest, so every row is parsed at import
    size = 3 * csvrows._CHUNK_LINES + 5
    edge = {csvrows._CHUNK_LINES - 1, csvrows._CHUNK_LINES, csvrows._CHUNK_LINES + 1}
    rows = [f"{i},{i + 1},{i},{i + 3},{i + 2},{'0' if i in edge else ''}{7 * i},{11 * i},"
            f"{13 * i},1,MW-22-17,{'Sporadic' if i % 3 else ''},none" for i in range(1, size + 1)]
    data = "\n".join([",".join(csvrows.HIT_COLUMNS), *rows, ""]).encode("ascii")
    (tmp_path / "a").mkdir()
    (tmp_path / "a" / "master_hits.csv").write_bytes(data)
    (tmp_path / "a" / "f1_factors.csv").write_text(",".join(csvrows.FACTOR_COLUMNS) + "\n")
    (tmp_path / "a" / "fibers.csv").write_text(",".join(csvrows.FIBRE_COLUMNS) + "\n")
    back = import_csv(tmp_path / "a")
    assert all(type(r) is str for r in back._hits.values())
    manifest = dict(export_csv(back, tmp_path / "b"))
    got = (tmp_path / "b" / "master_hits.csv").read_bytes()
    assert got == _reference_hits_csv(_reference_rows(data))
    assert manifest["master_hits.csv"] == hashlib.sha256(got).hexdigest()
    assert len(csvrows.csv_chunks(csvrows.HIT_COLUMNS, rows)) == 5  # the header and four


@pytest.mark.parametrize("form", ["lines", "csv.reader"])
@pytest.mark.parametrize("name,row,message", [
    ("master_hits.csv", "3,1,2", "master_hits.csv row 4: 3 fields, expected 12"),
    ("f1_factors.csv", "1,7,2,0,5", "f1_factors.csv row 9: 5 fields, expected 4"),
    ("fibers.csv", "4,1,2,4,,,", "fibers.csv row 4: 7 fields, expected 6"),
    ("fibers.csv", "4,1,2,x,,", "invalid literal for int() with base 10: 'x'"),
    ("fibers.csv", "4,1,2,4,,1/2", "not enough values to unpack"),
])
def test_import_reports_bad_rows_the_same_either_way(tmp_path, form, name, row, message):
    # the same bad row with line ends \n and (form "csv.reader") \r\n: both
    # are read, and the errors read the same
    export_csv(full_store(), tmp_path)
    (tmp_path / "manifest.txt").unlink()
    path = tmp_path / name
    text = path.read_text() + row + "\n"
    if form == "csv.reader":
        text = text.replace("\n", "\r\n")
    path.write_text(text, newline="")
    with pytest.raises(ValueError, match=re.escape(message)):
        import_csv(tmp_path)


def test_loaded_hits_file_in_export_form_is_not_rebuilt(tmp_path, monkeypatch):
    export_csv(full_store(), tmp_path)
    builds = _Count(csvrows.csv_chunks)
    monkeypatch.setattr(csvrows, "csv_chunks", builds)
    back = import_csv(tmp_path)
    back.find(GOLDEN)  # a read changes no line
    export_csv(back, tmp_path)
    assert builds.calls == 0
    path = tmp_path / "master_hits.csv"
    want = path.read_bytes()
    header, *rows = want.decode("ascii").splitlines()
    # not known to hold export's bytes: no export mark, or ids out of order
    for text, marked in (("\n".join([header, *rows]), False),  # no final line end
                         ("\n".join([header, *reversed(rows), ""]), False),
                         ("\n".join([header, rows[0], "", *rows[1:], ""]), False),  # a blank line
                         ("\n".join([header, *reversed(rows), ""]), True)):
        path.write_text(text)
        _rewrite_manifest(tmp_path, marked)
        back = import_csv(tmp_path)
        export_csv(back, tmp_path)
        assert path.read_bytes() == want
    assert _hits_builds(builds) == 4


# -- a file under the export mark kept as its lines, any other parsed row by row --

def _renumber(ids: dict):
    """Gives hit i the id text ids[i], in master_hits.csv and f1_factors.csv."""
    def apply(files):
        for row in files["master_hits.csv"][1:]:
            row[0] = ids.get(int(row[0]), row[0])
        for row in files["f1_factors.csv"][1:]:
            row[0] = str(int(ids.get(int(row[0]), row[0])))
    return apply


def _set_tags(files):
    files["master_hits.csv"][1][10] = "Sporadic;Euler"


def _unreduce(files):
    for row in files["fibers.csv"][1:]:
        if row[:2] == ["13", "2"]:
            row[5] = _first_fraction(lambda n, d: f"{2 * n}/{2 * d}")(row[5])


QUIRKS = {
    "007": [_renumber({1: "007"})],
    "unsorted tags": [_set_tags],
    "unreduced fraction": [_unreduce],
    "ids out of order": [_renumber({1: "9", 2: "4"})],
    "id 0": [_renumber({1: "0", 2: "1"})],
    "all": [_renumber({1: "007", 2: "0"}), _set_tags, _unreduce],
}


def _write_files(dirpath, files, order) -> None:
    dirpath.mkdir()
    for name, rows in files.items():
        (dirpath / name).write_text("".join(",".join(order(row)) + "\n" for row in rows))


@pytest.mark.parametrize("quirk", sorted(QUIRKS))
def test_import_reads_the_same_rows_either_way(tmp_path, monkeypatch, quirk):
    # the same rows under a manifest without the export mark, and with CRLF
    # line ends and no manifest: every row parsed either way
    export_csv(fibre_store(), tmp_path / "a")
    files = {name: [line.split(",") for line in (tmp_path / "a" / name).read_text().splitlines()]
             for name in CSV_NAMES}
    for edit in QUIRKS[quirk]:
        edit(files)
    _write_files(tmp_path / "export", files, lambda row: row)
    _write_files(tmp_path / "crlf", files, lambda row: [*row[:-1], row[-1] + "\r"])
    _rewrite_manifest(tmp_path / "export")
    hit_parse, fibre_parse = _Count(store_module._hit_record), _Count(store_module._fibre_row)
    monkeypatch.setattr(store_module, "_hit_record", hit_parse)
    monkeypatch.setattr(store_module, "_fibre_row", fibre_parse)
    one = import_csv(tmp_path / "export")
    assert (hit_parse.calls, fibre_parse.calls) == (2, 5)
    other = import_csv(tmp_path / "crlf")
    assert one.hits() == other.hits()
    assert one.fibres() == other.fibres()
    for t in (*(rec.tuple for rec in one.hits()), GOLDEN, MasterTuple(40, 33, 41, 32)):
        assert one.find(t) == other.find(t)
    new_id = max(1, max(rec.id for rec in one.hits()) + 1)
    assert one.insert_hit(MasterTuple(40, 33, 41, 32), "MW-41-32") == (new_id, True)
    assert other.insert_hit(MasterTuple(40, 33, 41, 32), "MW-41-32") == (new_id, True)
    assert _tree_of(one, tmp_path / "one") == _tree_of(other, tmp_path / "other")


def test_import_in_export_form_makes_no_call_per_row(tmp_path, monkeypatch):
    db = full_store()
    for m, n in ((4, 1), (6, 5)):
        db.upsert_fibre(FibreRow(m=m, n=n, torsion_d1=2, torsion_d2=4, rank_lb=m // 4 or None))
    export_csv(db, tmp_path)
    rows = len((tmp_path / "f1_factors.csv").read_text().splitlines()) - 1
    counts = {name: _Count(getattr(store_module, name))
              for name in ("_hit_record", "_factor_row", "_fibre_row")}
    for name, count in counts.items():
        monkeypatch.setattr(store_module, name, count)
    back = import_csv(tmp_path)
    assert {name: count.calls for name, count in counts.items()} == dict.fromkeys(counts, 0)
    assert (len(back), len(back._factors), len(back._fibres)) == (2, 2, 4)
    # the counts are real: under a manifest without the export mark every
    # row is parsed once
    _rewrite_manifest(tmp_path)
    import_csv(tmp_path)
    assert {name: count.calls for name, count in counts.items()} == {
        "_hit_record": 2, "_factor_row": rows, "_fibre_row": 4}


def test_store_written_by_the_commands_reimports_with_no_parse_per_row(tmp_path, monkeypatch,
                                                                       capsys):
    db = tmp_path / "db"
    db.mkdir()
    for argv in (_mw_argv(44, 9, 60, 2, db), _mw_argv(6, 5, 60, 1, db),
                 ["factorize", "--budget", "0.05", "--db", str(db)],
                 ["families", "build", "--saunderson-max", "50", "--lenhart-max", "13",
                  "--db", str(db)],
                 ["families", "classify", "--db", str(db)]):
        assert cli.main(argv) == 0
    assert "Sporadic: 11" in capsys.readouterr().out  # every row has family tags
    counts = {name: _Count(getattr(store_module, name)) for name in ("_hit_record", "_fibre_row")}
    for name, count in counts.items():
        monkeypatch.setattr(store_module, name, count)
    back = import_csv(db)
    assert {name: count.calls for name, count in counts.items()} == {
        "_hit_record": 0, "_fibre_row": 0}
    assert (len(back), len(back._fibres)) == (11, 2)
    assert set(back._on_disk) == set(CSV_NAMES)  # export need not build any of them


def test_crlf_store_with_a_big_factor_row_loads(tmp_path, capsys):
    # a field above csv.reader's default limit, 131,072 characters
    export_csv(golden_store(), tmp_path)
    (tmp_path / "manifest.txt").unlink()
    path = tmp_path / "f1_factors.csv"
    text = path.read_text() + "2,1" + "0" * 139_998 + "1,1,1\n"
    path.write_bytes(text.replace("\n", "\r\n").encode("ascii"))
    back = import_csv(tmp_path)
    assert back.factor_rows(2) == [FactorRow(2, 10 ** 139_999 + 1, 1, True)]
    assert cli.main(["verify", "theorem", "--db", str(tmp_path)]) == 0
    assert "verified=1" in capsys.readouterr().out


# -- the export mark: which files are trusted to hold the bytes export writes --

@pytest.mark.parametrize("name", CSV_NAMES)
@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_marked_store_with_a_flipped_byte_is_refused(tmp_path, name, where):
    export_csv(fibre_store(), tmp_path)
    assert (tmp_path / "manifest.txt").read_text().startswith(EXPORT_MARK + "\n")
    path = tmp_path / name
    data = bytearray(path.read_bytes())
    data[{"first": 0, "middle": len(data) // 2, "last": -1}[where]] ^= 0x01
    path.write_bytes(bytes(data))
    with pytest.raises(ValueError, match=f"^{name} does not match its sha256 in manifest.txt$"):
        import_csv(tmp_path)


def test_store_without_the_mark_reads_the_same_and_its_first_mw_run_marks_it(
        tmp_path, monkeypatch, capsys):
    db = tmp_path / "db"
    db.mkdir()
    for argv in (_mw_argv(44, 9, 60, 2, db), _mw_argv(6, 5, 60, 1, db),
                 ["factorize", "--budget", "0.05", "--db", str(db)]):
        assert cli.main(argv) == 0
    marked = import_csv(db)
    want = (marked.hits(), [marked.factor_rows(i) for i in range(1, len(marked) + 1)],
            marked.fibres())
    _rewrite_manifest(db)  # the manifest as export wrote it before the mark
    before = _tree(db)
    rows = len(before["f1_factors.csv"].splitlines()) - 1
    counts = {name: _Count(getattr(store_module, name))
              for name in ("_hit_record", "_factor_row", "_fibre_row")}
    for name, count in counts.items():
        monkeypatch.setattr(store_module, name, count)
    back = import_csv(db)
    assert {name: count.calls for name, count in counts.items()} == {
        "_hit_record": 11, "_factor_row": rows, "_fibre_row": 2}
    assert (back.hits(), [back.factor_rows(i) for i in range(1, len(back) + 1)],
            back.fibres()) == want
    assert cli.main(_mw_argv(44, 9, 60, 2, db)) == 0
    assert "inserted=0" in capsys.readouterr().out
    after = _tree(db)
    assert [after[name] for name in CSV_NAMES[:2]] == [before[name] for name in CSV_NAMES[:2]]
    assert after["manifest.txt"] == before["manifest.txt"].replace(
        b"", (EXPORT_MARK + "\n").encode("ascii"), 1)
    monkeypatch.undo()
    assert validate_consistency(import_csv(db)) == []


def test_factorization_of_parses_only_the_rows_of_its_record(tmp_path, monkeypatch):
    db = full_store()
    export_csv(db, tmp_path)
    back = import_csv(tmp_path)
    want, rows = db.factorization_of(db.get(2)), db.factor_rows(1)
    sizes = [len(db.factor_rows(hit_id)) for hit_id in (1, 2)]
    assert min(sizes) >= 2
    parse = _Count(store_module._factor_row)
    monkeypatch.setattr(store_module, "_factor_row", parse)
    assert back.factorization_of(back.get(2)) == want
    assert parse.calls == sizes[1]
    assert back.factorization_of(back.get(2)) == want  # parsed again: no parsed row is held
    assert parse.calls == 2 * sizes[1]
    assert back.factor_rows(1) == rows
    assert parse.calls == 2 * sizes[1] + sizes[0]


def test_marked_store_refuses_repeats_and_orphans_it_keeps_as_lines(tmp_path, monkeypatch):
    export_csv(full_store(), tmp_path)
    want = _tree(tmp_path)
    for name in ("_hit_record", "_factor_row", "_fibre_row"):  # no row is parsed
        monkeypatch.setattr(store_module, name, None)
    header, first, second = want["master_hits.csv"].decode("ascii").splitlines()
    fibre = want["fibers.csv"].decode("ascii").splitlines()[1]
    for name, text, message in (
        ("master_hits.csv", [header, first, second, first], "master_hits.csv: duplicate hit id 1"),
        ("master_hits.csv", [header, first, second, "3" + first[1:]],
         r"master_hits.csv: tuple \(44, 9, 55, 48\) in hits 1 and 3"),
        ("fibers.csv", [*want["fibers.csv"].decode("ascii").splitlines(), fibre],
         r"fibers.csv: duplicate fibre \(2,1\)"),
        ("f1_factors.csv", [*want["f1_factors.csv"].decode("ascii").splitlines(), "7,3,1,0"],
         "f1_factors.csv row 9: factor row for hit id 7, which names no hit"),
    ):
        (tmp_path / name).write_text("\n".join(text) + "\n")
        _rewrite_manifest(tmp_path, marked=True)
        with pytest.raises(ValueError, match=f"^{message}$"):
            import_csv(tmp_path)
        (tmp_path / name).write_bytes(want[name])
    _rewrite_manifest(tmp_path, marked=True)
    assert _tree(tmp_path) == want
    import_csv(tmp_path)


@pytest.mark.parametrize("hit_id", [1, 2])
def test_a_factor_row_kept_as_text_is_refused_naming_its_row_when_read(tmp_path, hit_id):
    # export writes a degenerate row it holds; parsed at import under no
    # mark, and when its record is read under the mark, with the same message
    db = full_store()
    put_lines(db, hit_id, factors=[*db.factor_rows(hit_id), FactorRow(hit_id, 11, 0, False)])
    export_csv(db, tmp_path)
    lines = (tmp_path / "f1_factors.csv").read_text().splitlines()
    row = lines.index(f"{hit_id},11,0,0") + 1
    message = (f"f1_factors.csv row {row}: prime 11, exponent 0, is_residual 0; "
               "a factor row needs prime >= 2, exponent >= 1, is_residual 0 or 1")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        db.factor_rows(hit_id)
    back = import_csv(tmp_path)
    assert back.factor_rows(3 - hit_id) == db.factor_rows(3 - hit_id)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        back.factor_rows(hit_id)
    _rewrite_manifest(tmp_path)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        import_csv(tmp_path)


# -- one form: every row a line, reads return frozen snapshots, setters change rows --

def _held_lines(db) -> list:
    return [*db._hits.values(), *db._factors.values(), *db._fibres.values()]


def test_every_row_is_held_as_a_line(tmp_path):
    export_csv(fibre_store(), tmp_path / "marked")
    shutil.copytree(tmp_path / "marked", tmp_path / "unmarked")
    _rewrite_manifest(tmp_path / "unmarked")
    for name in ("marked", "unmarked"):
        db = import_csv(tmp_path / name)
        assert len(_held_lines(db)) == 9 and all(type(v) is str for v in _held_lines(db)), name
        hit_id, _ = db.insert_hit(MasterTuple(40, 33, 41, 32), "MW-41-32")
        db.set_factorization(hit_id, factor(master.f1(db.get(hit_id).tuple)))
        db.set_family_tags(hit_id, {"Sporadic"})
        db.upsert_fibre(FibreRow(m=4, n=1, torsion_d1=2, torsion_d2=4))
        assert len(_held_lines(db)) == 12 and all(type(v) is str for v in _held_lines(db)), name


def test_a_read_returns_a_frozen_snapshot():
    db = full_store()
    rec, fibre = db.get(2), db.fibres()[1]
    with pytest.raises(FrozenInstanceError):
        rec.y += 1
    with pytest.raises(FrozenInstanceError):
        db.find(GOLDEN).provenance = "MW-44-9"
    with pytest.raises(FrozenInstanceError):
        fibre.generators = ()
    with pytest.raises(AttributeError):
        rec.family_tags.add("Lenhart")
    assert (db.get(2), db.fibres()[1]) == (rec, fibre)


def test_export_after_reading_every_record_builds_no_file(tmp_path, monkeypatch):
    export_csv(fibre_store(), tmp_path)
    before = _tree(tmp_path)
    builds = _Count(csvrows.csv_chunks)
    monkeypatch.setattr(csvrows, "csv_chunks", builds)
    back = import_csv(tmp_path)
    for rec in back.hits():
        assert back.find(rec.tuple) == back.get(rec.id) == rec
        back.factorization_of(rec)
    assert back.fibres() and validate_consistency(back) == []
    export_csv(back, tmp_path)
    assert builds.calls == 0
    assert _tree(tmp_path) == before


def test_a_setter_that_writes_the_same_line_rebuilds_no_file(tmp_path, monkeypatch):
    export_csv(fibre_store(), tmp_path)
    before = _tree(tmp_path)
    back = import_csv(tmp_path)
    builds = _Count(csvrows.csv_chunks)
    monkeypatch.setattr(csvrows, "csv_chunks", builds)
    replaced = _record_replaces(monkeypatch)
    assert back.insert_hit(GOLDEN, "MW-44-9") == (1, False)
    for rec in back.hits():
        back.set_factorization(rec.id, back.factorization_of(rec))
        back.set_family_tags(rec.id, set(rec.family_tags))
    for row in back.fibres():
        back.upsert_fibre(row)
    export_csv(back, tmp_path)
    assert (builds.calls, replaced) == (0, ["manifest.txt"])
    assert _tree(tmp_path) == before
    back.set_family_tags(2, {"Euler"})  # the count is real: a different line is built
    export_csv(back, tmp_path)
    assert (_hits_builds(builds), replaced) == (1, ["manifest.txt"] * 2 + ["master_hits.csv"])


@pytest.mark.parametrize("edit", ["blank line", "no final line end", "crlf"])
def test_marked_file_not_as_export_writes_it_is_refused(tmp_path, edit):
    export_csv(fibre_store(), tmp_path)
    path = tmp_path / "fibers.csv"
    text = path.read_text()
    path.write_text({"blank line": text.replace("\n", "\n\n", 2), "no final line end": text[:-1],
                     "crlf": text.replace("\n", "\r\n")}[edit], newline="")
    _rewrite_manifest(tmp_path, marked=True)
    message = {"crlf": "fibers.csv line 1: a quote or a carriage return, which no store field holds"
               }.get(edit, "fibers.csv: not the bytes export writes, though manifest.txt carries "
                           "the export mark")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        import_csv(tmp_path)
    _rewrite_manifest(tmp_path)  # without the mark the same bytes load
    assert len(import_csv(tmp_path).fibres()) == 5
