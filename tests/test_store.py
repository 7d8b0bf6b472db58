import random

import pytest

from brickforge import master
from brickforge.ecq import CurvePoint
from brickforge.master import MasterTuple
from brickforge.mw import seeds_from_hits
from brickforge.ntkernel import Factorization, factor
from brickforge.store import (
    FactorRow,
    FibreRow,
    Store,
    export_csv,
    import_csv,
    validate_consistency,
)
from conftest import random_admissible

GOLDEN = MasterTuple(55, 48, 44, 9)


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
    import hashlib

    manifest = export_csv(golden_store(), tmp_path)
    listed = dict(manifest)
    for line in (tmp_path / "manifest.txt").read_text().splitlines():
        digest, name = line.split("  ")
        assert listed[name] == digest
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest


def test_roundtrip_preserves_everything(tmp_path):
    db = golden_store()
    _, seeds = _fibre_with_seed()
    db.upsert_fibre(FibreRow(m=44, n=9, torsion_d1=2, torsion_d2=4,
                             rank_lb=1, generators=tuple(seeds.points)))
    db.set_family_tags(2, {"Sporadic"})
    export_csv(db, tmp_path / "a")
    back = import_csv(tmp_path / "a")
    export_csv(back, tmp_path / "b")
    for name in ("master_hits.csv", "f1_factors.csv", "fibers.csv", "manifest.txt"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    assert validate_consistency(back) == []
    assert back.get(2).family_tags == {"Sporadic"}
    assert back.fibres()[0].rank_lb == 1
    assert back.fibres()[0].generators == tuple(seeds.points)


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
