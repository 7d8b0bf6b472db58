import csv
import hashlib
import io
import os
import random

import pytest

from brickforge import master
from brickforge.ecq import CurvePoint
from brickforge.master import MasterTuple
from brickforge.mw import seeds_from_hits
from brickforge.ntkernel import Factorization, factor
from brickforge.store import (
    CSV_NAMES,
    FactorRow,
    FibreRow,
    Store,
    export_csv,
    import_csv,
    validate_consistency,
)
from conftest import random_admissible

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
    db = Store()
    with pytest.raises(ValueError):
        db.insert_hit(GOLDEN, "Handwritten")


def test_derived_fields():
    # the canonical orientation of the golden tuple leads with (44, 9)
    rec = golden_store().get(1)
    assert (rec.a, rec.b, rec.m, rec.n) == (44, 9, 55, 48)
    assert (rec.x, rec.y, rec.z) == (1337455, 571032, 9794400)
    assert rec.g_scale == 7
    assert (rec.x_prim, rec.y_prim, rec.z_prim) == (191065, 81576, 1399200)


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


def test_factorization_roundtrip_with_residual():
    db = golden_store()
    f1 = master.f1(db.get(2).tuple)
    partial = Factorization(factors=[(3, 2)], residual=f1 // 9, status="partial")
    db.set_factorization(2, partial)
    assert db.factorization_of(2) == partial
    assert db.factor_rows(2)[-1].is_residual


def test_validate_clean_store():
    assert validate_consistency(golden_store()) == []
    assert validate_consistency(Store()) == []


def test_validate_flags_corrupted_edge():
    db = golden_store()
    db.get(2).y += 1
    problems = validate_consistency(db)
    assert len(problems) == 1 and problems[0].startswith("hit 2: y")


def test_validate_flags_noncanonical_record():
    db = golden_store()
    rec = db.get(1)
    rec.a, rec.b, rec.m, rec.n = 55, 48, 44, 9
    problems = validate_consistency(db)
    assert any("sigma" in p for p in problems)


def test_validate_flags_bad_factor_rows():
    db = golden_store()
    db._factors[1][0] = FactorRow(1, 49, 1, False)
    assert any("composite 49" in p for p in validate_consistency(db))
    db = golden_store()
    db._factors[1].pop()
    assert any("multiply back" in p for p in validate_consistency(db))


def test_fibre_row_upsert_and_validation():
    db = golden_store()
    c, seeds = _fibre_with_seed()
    db.upsert_fibre(FibreRow(m=44, n=9, torsion_d1=2, torsion_d2=4,
                             generators=tuple(seeds.points)))
    assert validate_consistency(db) == []
    P = seeds.points[0]
    off = CurvePoint(P.X, P.Y + 1)
    db.upsert_fibre(FibreRow(m=44, n=9, torsion_d1=2, torsion_d2=4, generators=(P, off)))
    assert validate_consistency(db) == ["fibre (44,9): generator off curve"]
    db.upsert_fibre(FibreRow(m=44, n=9, torsion_d1=2, torsion_d2=3))
    assert len(db.fibres()) == 1
    assert any("bad torsion" in p for p in validate_consistency(db))


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
    for line in (tmp_path / "manifest.txt").read_text().splitlines():
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
                             rank_lb=1, generators=tuple(seeds.points)))
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
    assert back.factorization_of(2) == db.factorization_of(2)
    assert [row.rank_lb for row in back.fibres()] == [None, 1]
    assert back.fibres()[1].generators == db.fibres()[1].generators != ()


def test_export_matches_csv_writer(tmp_path):
    db = full_store()
    export_csv(db, tmp_path)
    for name, data in _csv_writer_export(db).items():
        assert (tmp_path / name).read_bytes() == data, name


@pytest.mark.parametrize("text", ["a,b", 'c"d', "e\nf", 'g,"h"', "i\rj"])
def test_export_quotes_text_fields_like_csv_writer(tmp_path, text):
    # import_csv accepts any text in these fields (validate_consistency flags
    # it); a row with a comma, quote or line break in one goes through
    # csv.writer, so it is written exactly as before
    for field in ("provenance", "family_tags", "f1_status"):
        db = full_store()
        setattr(db.get(2), field, {text} if field == "family_tags" else text)
        export_csv(db, tmp_path / "a")
        assert _tree(tmp_path / "a")["master_hits.csv"] == \
            _csv_writer_export(db)["master_hits.csv"], field
        if "\r" in text:
            continue  # csv.writer leaves a lone CR unquoted, so it does not read back
        back = import_csv(tmp_path / "a")
        assert getattr(back.get(2), field) == getattr(db.get(2), field)
        export_csv(back, tmp_path / "b")
        assert _tree(tmp_path / "a") == _tree(tmp_path / "b")


def test_imported_record_exposes_primitive_edges(tmp_path):
    export_csv(golden_store(), tmp_path)
    rec = import_csv(tmp_path).get(1)
    assert (rec.x_prim, rec.y_prim, rec.z_prim) == (191065, 81576, 1399200)
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


def _rewrite_manifest(dirpath) -> None:
    lines = [f"{hashlib.sha256((dirpath / n).read_bytes()).hexdigest()}  {n}\n" for n in CSV_NAMES]
    (dirpath / "manifest.txt").write_text("".join(lines))


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
    with pytest.raises(ValueError, match="f1_factors.csv: factor row for hit id 7"):
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
    manifest.write_text("".join(lines[:2]))
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
