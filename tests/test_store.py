import contextlib
import csv
import hashlib
import io
import os
import random
import re
import shutil

import pytest

from brickforge import cli, csvrows, master
from brickforge import store as store_module
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


# -- rows kept as their fields until read, files left alone when unchanged -----

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
        self.fn, self.calls = fn, 0

    def __call__(self, *args):
        self.calls += 1
        return self.fn(*args)


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
    back.hits()  # the count is real: every row parses once, when read
    back.hits()
    assert parse.calls == 376


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
    "leading zero": (_edit_field(5, lambda x: "0" + x), 1),
    "leading zero id": (_edit_field(0, lambda i: "0" + i), 1),
    "plus sign": (_edit_field(1, lambda a: "+" + a), 1),
    "minus zero": (_edit_field(8, lambda g: "-0"), 1),
    "leading space": (_edit_field(6, lambda y: " " + y), 1),
    "trailing space": (_edit_field(4, lambda n: n + " "), 1),
    "underscore": (_edit_field(7, lambda z: z[:1] + "_" + z[1:]), 1),
    "unsorted tags": (_edit_field(10, lambda t: "Sporadic;Euler"), 1),
    "repeated tags": (_edit_field(10, lambda t: "Euler;Euler"), 1),
    "empty tag segments": (_edit_field(10, lambda t: ";Euler;;Sporadic;"), 1),
    "crlf": (lambda text: text.replace(b"\n", b"\r\n"), 0),
    "blank lines": (lambda text: text.replace(b"\n", b"\n\n"), 0),
    "quoted provenance": (_edit_field(9, lambda p: f'"{p}"'), 0),
}


@pytest.mark.parametrize("case", sorted(NONCANONICAL))
def test_noncanonical_row_reads_and_exports_as_before(tmp_path, monkeypatch, case):
    edit, parsed = NONCANONICAL[case]
    export_csv(full_store(), tmp_path / "a")
    want = _tree(tmp_path / "a")
    (tmp_path / "a" / "manifest.txt").unlink()
    data = edit(want["master_hits.csv"])
    (tmp_path / "a" / "master_hits.csv").write_bytes(data)
    parse = _Count(store_module._hit_record)
    monkeypatch.setattr(store_module, "_hit_record", parse)
    back = import_csv(tmp_path / "a")
    assert parse.calls == parsed  # only a row export would not write back as it is
    export_csv(back, tmp_path / "b")
    ref = _reference_rows(data)
    got = _tree(tmp_path / "b")
    assert got["master_hits.csv"] == _reference_hits_csv(ref)
    assert [got[name] for name in CSV_NAMES[1:]] == [want[name] for name in CSV_NAMES[1:]]
    assert [_values(rec) for rec in back.hits()] == ref


def test_record_changed_in_place_is_exported(tmp_path):
    export_csv(full_store(), tmp_path)
    before = (tmp_path / "master_hits.csv").read_bytes()
    back = import_csv(tmp_path)
    export_csv(back, tmp_path)  # nothing changed: nothing rewritten
    assert (tmp_path / "master_hits.csv").read_bytes() == before
    back.get(2).y += 1
    back.hits()[0].family_tags.add("Lenhart")
    back.find(GOLDEN).provenance = "MW-44-9"
    export_csv(back, tmp_path)
    assert (tmp_path / "master_hits.csv").read_bytes() == \
        _csv_writer_export(back)["master_hits.csv"] != before
    again = import_csv(tmp_path)
    assert again.get(2).y == back.get(2).y
    assert again.get(1).family_tags == {"Euler", "Lenhart", "Sporadic"}
    assert again.get(1).provenance == "MW-44-9"
    # changed back, the file goes back too, though the store last wrote other bytes
    again.get(2).y -= 1
    again.get(1).family_tags.discard("Lenhart")
    again.get(1).provenance = "Rathbun-Search"
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
    builds = _Count(store_module._hits_csv)
    parses = _Count(csvrows.parse_points)
    monkeypatch.setattr(store_module, "_hits_csv", builds)
    monkeypatch.setattr(csvrows, "parse_points", parses)
    assert cli.main(_mw_argv(6, 5, 60, 2, db)) == 0  # inserts, and adds generators
    assert "inserted=30" in capsys.readouterr().out
    assert (builds.calls, parses.calls) == (1, 0)
    for m, n, height in ((6, 5, 60), (2, 1, 60), (22, 17, 30)):
        assert cli.main(_mw_argv(m, n, height, 2, db)) == 0
        assert "inserted=0" in capsys.readouterr().out
    assert (builds.calls, parses.calls) == (1, 0)
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
        gens = seeds_from_hits(c, naive_quartic_search(c, 60)).points
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
    export_csv(fibre_store(), tmp_path / "a")
    want = _tree(tmp_path / "a")
    (tmp_path / "a" / "manifest.txt").unlink()
    data = FIBRE_NONCANONICAL[case](want["fibers.csv"])
    assert data != want["fibers.csv"]
    (tmp_path / "a" / "fibers.csv").write_bytes(data)
    parse = _Count(store_module._fibre_row)
    monkeypatch.setattr(store_module, "_fibre_row", parse)
    back = import_csv(tmp_path / "a")
    assert parse.calls == 1  # only the row export would not write back as it is
    export_csv(back, tmp_path / "b")
    ref = _reference_fibres(data)
    got = _tree(tmp_path / "b")
    assert got["fibers.csv"] == _reference_fibres_csv(ref)
    assert [got[name] for name in CSV_NAMES[:2]] == [want[name] for name in CSV_NAMES[:2]]
    assert [(f.m, f.n, f.torsion_d1, f.torsion_d2, f.rank_lb,
             tuple((P.X, P.Y) for P in f.generators)) for f in back.fibres()] == ref


def test_mixed_kept_and_parsed_rows_export_like_csv_writer(tmp_path):
    export_csv(fibre_store(), tmp_path / "a")
    (tmp_path / "a" / "manifest.txt").unlink()
    # one row of each file parsed at import, between rows kept as lines
    hits = tmp_path / "a" / "master_hits.csv"
    hits.write_bytes(_edit_field(5, lambda x: "0" + x)(hits.read_bytes()))
    fibres = tmp_path / "a" / "fibers.csv"
    fibres.write_bytes(FIBRE_NONCANONICAL["2/4"](fibres.read_bytes()))
    back, ref = import_csv(tmp_path / "a"), import_csv(tmp_path / "a")
    assert [type(r) for r in back._hits.values()] == [str, store_module.HitRecord]
    assert [type(r) for _, r in sorted(back._fibres.items())] == [str, str, str, FibreRow, str]
    steps = [
        lambda db: None,
        lambda db: setattr(db.get(2), "y", db.get(2).y + 1),  # an in-place edit
        lambda db: db.insert_hit(MasterTuple(40, 33, 41, 32), "MW-41-32"),
        lambda db: db.upsert_fibre(FibreRow(m=4, n=1, torsion_d1=2, torsion_d2=4)),
        lambda db: db.upsert_fibre(FibreRow(m=13, n=2, torsion_d1=2, torsion_d2=8)),
    ]
    for i, step in enumerate(steps):
        step(back)
        step(ref)
        export_csv(back, tmp_path / f"b{i}")
        assert type(back._hits[1]) is str and type(back._fibres[(6, 5)]) is str
        got = _tree(tmp_path / f"b{i}")
        assert {name: got[name] for name in CSV_NAMES} == _csv_writer_export(ref), i


@pytest.mark.parametrize("form", ["lines", "csv.reader"])
@pytest.mark.parametrize("name,row,message", [
    ("master_hits.csv", "3,1,2", "master_hits.csv row 4: 3 fields, expected 12"),
    ("f1_factors.csv", "1,7,2,0,5", "f1_factors.csv row 9: 5 fields, expected 4"),
    ("fibers.csv", "4,1,2,4,,,", "fibers.csv row 4: 7 fields, expected 6"),
    ("fibers.csv", "4,1,2,x,,", "invalid literal for int() with base 10: 'x'"),
    ("fibers.csv", "4,1,2,4,,1/2", "not enough values to unpack"),
])
def test_import_reports_bad_rows_the_same_either_way(tmp_path, form, name, row, message):
    # a file with a quote or a carriage return goes through csv.reader,
    # any other is split into lines; the errors read the same
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
    builds = _Count(store_module._hits_csv)
    monkeypatch.setattr(store_module, "_hits_csv", builds)
    export_csv(import_csv(tmp_path), tmp_path)
    assert builds.calls == 0
    back = import_csv(tmp_path)
    back.find(GOLDEN)  # a row read may be changed in place: built again
    export_csv(back, tmp_path)
    assert builds.calls == 1
    path = tmp_path / "master_hits.csv"
    want = path.read_bytes()
    header, *rows = want.decode("ascii").splitlines()
    for text in ("\n".join([header, *rows]),  # no final line end
                 "\n".join([header, *reversed(rows), ""]),  # ids out of order
                 "\n".join([header, rows[0], "", *rows[1:], ""])):  # a blank line
        path.write_text(text)
        _rewrite_manifest(tmp_path)
        back = import_csv(tmp_path)
        export_csv(back, tmp_path)
        assert path.read_bytes() == want
    assert builds.calls == 4
