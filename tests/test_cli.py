import concurrent.futures
import contextlib
import csv
import functools
import hashlib
import io
import itertools
import math
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest

from conftest import bench_walk, put_lines
from brickforge import cli, master
from brickforge import store as store_module
from brickforge.families import primitive_sorted
from brickforge.master import MasterTuple
from brickforge.ntkernel import Factorization
from brickforge.store import CSV_NAMES, EXPORT_MARK, Store, export_csv, import_csv

GOLDEN = MasterTuple(55, 48, 44, 9)
SCALED_SAUNDERSON = MasterTuple(11, 2, 8, 5)


@pytest.fixture
def db(tmp_path, monkeypatch):
    monkeypatch.setenv("BRICKFORGE_DB", str(tmp_path))
    return tmp_path


def seeded_db(db, factored=True):
    store = Store()
    store.insert_hit(GOLDEN, "Rathbun-Search")
    store.insert_hit(SCALED_SAUNDERSON, "Saunderson-Generator")
    if factored:
        for rec in store.hits():
            store.set_factorization(rec.id, master.factor_f1(rec.tuple))
    export_csv(store, db)
    return store


def test_missing_db_is_operational_error(monkeypatch, capsys):
    monkeypatch.delenv("BRICKFORGE_DB", raising=False)
    assert cli.main(["verify", "perfect"]) == 2
    assert "BRICKFORGE_DB" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["verify", "theorem"],
    ["factorize", "--budget", "1"],
    ["families", "build", "--saunderson-max", "5", "--lenhart-max", "5"],
])
def test_mistyped_db_is_operational_error(tmp_path, capsys, argv):
    missing = tmp_path / "no" / "such"
    assert cli.main([*argv, "--db", str(missing)]) == 2
    assert "does not exist" in capsys.readouterr().err
    assert not (tmp_path / "no").exists()


def test_verify_on_empty_store(db, capsys):
    for check in ("theorem", "perfect", "consistency", "single-blocker", "e1"):
        assert cli.main(["verify", check]) == 0
    out = capsys.readouterr().out
    assert "verified=0 violated=0" in out
    assert "records=0 perfect_cuboids=0" in out


def test_verify_suite_on_seeded_store(db, capsys):
    seeded_db(db)
    assert cli.main(["verify", "theorem"]) == 0
    assert cli.main(["verify", "perfect"]) == 0
    assert cli.main(["verify", "consistency"]) == 0
    assert cli.main(["verify", "single-blocker"]) == 0
    assert cli.main(["verify", "e1"]) == 0
    out = capsys.readouterr().out
    assert "verified=2 violated=0 undecidable_partial=0" in out
    assert "records=2 perfect_cuboids=0" in out
    assert "records=2 violations=0" in out


def test_verify_perfect_flags_fake_square_record(db, capsys):
    store = seeded_db(db)
    put_lines(store, 1, rec=replace(store.get(1), x=1, y=2, z=2))
    export_csv(store, db)
    assert cli.main(["verify", "perfect"]) == 1
    assert "perfect ids: 1" in capsys.readouterr().out
    assert cli.main(["verify", "consistency"]) == 1


def test_verify_perfect_finds_no_perfect_cuboid_among_paper_hits(db, capsys):
    # the golden hit, a single-blocker row and an even-largest row of the paper
    store = Store()
    for t in ((55, 48, 44, 9), (835, 88, 160, 89), (1770, 1219, 1408, 477)):
        store.insert_hit(MasterTuple(*t), "Rathbun-Search")
    export_csv(store, db)
    assert cli.main(["verify", "perfect"]) == 0
    assert capsys.readouterr().out == "records=3 perfect_cuboids=0\n"


def test_factorize_and_idempotence(db, capsys):
    seeded_db(db, factored=False)
    assert cli.main(["factorize", "--budget", "30"]) == 0
    assert "factored=2 full=2" in capsys.readouterr().out
    store = import_csv(db)
    assert [rec.f1_status for rec in store.hits()] == ["full", "full"]
    assert (7, 2) in [(r.prime, r.exponent) for r in store.factor_rows(1)]
    assert cli.main(["factorize", "--budget", "30"]) == 0
    assert "factored=0 full=0 partial=0 already_full=2" in capsys.readouterr().out


def test_factorize_parallel_matches_serial(db, tmp_path_factory, monkeypatch, capsys):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # --jobs 2 on a one-CPU host too
    seeded_db(db, factored=False)
    assert cli.main(["factorize", "--budget", "30", "--jobs", "2"]) == 0
    parallel = import_csv(db)
    other = tmp_path_factory.mktemp("serial")
    monkeypatch.setenv("BRICKFORGE_DB", str(other))
    seeded_db(other, factored=False)
    assert cli.main(["factorize", "--budget", "30"]) == 0
    serial = import_csv(other)
    for hit_id in (1, 2):
        assert parallel.factor_rows(hit_id) == serial.factor_rows(hit_id)


@pytest.mark.parametrize("jobs", [1, 2])
def test_pmap_yields_each_result_in_order_as_it_is_taken(jobs):
    # an iterator, not a list of every result: a pool's results are yielded
    # from inside its with block, one at a time
    results = cli._pmap(jobs, abs, range(-40, 0))
    assert iter(results) is results
    assert next(results) == 40
    assert list(results) == list(map(abs, range(-39, 0)))


@pytest.mark.parametrize("argv,message", [
    (["factorize", "--budget", "-1"], "--budget must be a finite number above 0"),
    (["factorize", "--budget", "0"], "--budget must be a finite number above 0"),
    (["factorize", "--budget", "nan"], "--budget must be a finite number above 0"),
    (["factorize", "--budget", "inf"], "--budget must be a finite number above 0"),
    (["factorize", "--jobs", "0"], "--jobs must be at least 1"),
    (["factorize", "--jobs", "-4"], "--jobs must be at least 1"),
], ids=" ".join)
def test_bad_budget_or_jobs_is_operational_error(db, capsys, argv, message):
    seeded_db(db, factored=False)
    before = {path.name: path.read_bytes() for path in db.iterdir()}
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n" and captured.out == ""
    assert {path.name: path.read_bytes() for path in db.iterdir()} == before


def test_factorize_jobs_above_the_cpu_count_is_operational_error(db, capsys, monkeypatch):
    # a fork pool starts all its workers at the first submit: the limit is
    # checked before any pool is made
    seeded_db(db, factored=False)
    before = {path.name: path.read_bytes() for path in db.iterdir()}
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", None)
    assert cli.main(["factorize", "--jobs", "4"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: --jobs must be at most 3, the CPU count\n"
    assert captured.out == ""
    assert {path.name: path.read_bytes() for path in db.iterdir()} == before


def test_mw_run_computes_the_torsion_once(db, monkeypatch, capsys):
    from brickforge import ecq

    calls = []
    inner = ecq.torsion_subgroup

    def counted(c):
        calls.append((c.m, c.n))
        return inner(c)
    for name, module in list(sys.modules.items()):
        if name.startswith("brickforge") and getattr(module, "torsion_subgroup", None) is inner:
            monkeypatch.setattr(module, "torsion_subgroup", counted)
    argv = ["mw", "run", "--m", "44", "--n", "9", "--seed-height", "60", "--K", "1"]
    assert cli.main(argv) == 0
    assert calls == [(44, 9)]
    assert cli.main(argv) == 0
    assert calls == [(44, 9)] * 2
    assert "torsion=(2, 4)" in capsys.readouterr().out


def test_mw_run_inserts_sigma_form(db, capsys):
    code = cli.main(["mw", "run", "--m", "44", "--n", "9",
                     "--seed-height", "60", "--K", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "torsion=(2, 4)" in out
    assert "inserted=" in out
    store = import_csv(db)
    assert any(tuple(rec.tuple) == (44, 9, 55, 48) for rec in store.hits())
    assert all(rec.provenance == "MW-44-9" for rec in store.hits())
    row = store.fibres()[0]
    assert (row.m, row.n, row.torsion_d1, row.torsion_d2) == (44, 9, 2, 4)


def test_mw_run_rerun_inserts_nothing(db, capsys):
    argv = ["mw", "run", "--m", "44", "--n", "9", "--seed-height", "60", "--K", "1"]
    assert cli.main(argv) == 0
    before = len(import_csv(db).hits())
    assert cli.main(argv) == 0
    assert "inserted=0" in capsys.readouterr().out
    assert len(import_csv(db).hits()) == before


def test_mw_run_rejects_bad_pair_and_bad_K(db, capsys):
    assert cli.main(["mw", "run", "--m", "4", "--n", "2",
                     "--seed-height", "20", "--K", "1"]) == 2
    assert "inadmissible" in capsys.readouterr().err
    assert cli.main(["mw", "run", "--m", "4", "--n", "4",
                     "--seed-height", "20", "--K", "1"]) == 2
    assert capsys.readouterr().err == "error: pair (4,4) inadmissible (m <= n)\n"
    assert cli.main(["mw", "run", "--m", "44", "--n", "9",
                     "--seed-height", "20", "--K", "0"]) == 2


def test_mw_run_bad_seed_file_is_operational_error(db, tmp_path_factory, capsys):
    seeded_db(db)
    before = {path.name: path.read_bytes() for path in db.iterdir()}
    seeds = tmp_path_factory.mktemp("seeds") / "seeds.txt"
    seeds.write_text("1/0 3\n")
    assert cli.main(["mw", "run", "--m", "44", "--n", "9",
                     "--seeds", str(seeds), "--K", "1"]) == 2
    assert "seeds.txt:1" in capsys.readouterr().err
    assert {path.name: path.read_bytes() for path in db.iterdir()} == before


def test_mw_run_empty_fibre(db, capsys):
    assert cli.main(["mw", "run", "--m", "2", "--n", "1",
                     "--seed-height", "20", "--K", "2"]) == 0
    assert "seeds=0 candidates=0" in capsys.readouterr().out


def test_families_build_and_classify(db, capsys):
    seeded_db(db)
    assert cli.main(["families", "build", "--saunderson-max", "50",
                     "--lenhart-max", "13"]) == 0
    out = capsys.readouterr().out
    assert "Saunderson: 2 bricks" in out
    assert "Lenhart: 2 bricks" in out
    assert cli.main(["families", "classify"]) == 0
    out = capsys.readouterr().out
    assert "Saunderson: 1" in out
    assert "Sporadic: 1" in out
    store = import_csv(db)
    assert store.find(SCALED_SAUNDERSON).family_tags == {"Saunderson"}
    assert store.find(GOLDEN).family_tags == {"Sporadic"}


def test_families_classify_parses_each_record_once(db, monkeypatch, capsys):
    seeded_db(db)
    assert cli.main(["families", "build", "--saunderson-max", "50", "--lenhart-max", "13"]) == 0
    parse, calls = store_module._hit_record, []
    monkeypatch.setattr(store_module, "_hit_record", lambda fields: calls.append(1) or parse(fields))
    assert cli.main(["families", "classify"]) == 0
    assert "Saunderson: 1" in capsys.readouterr().out
    assert len(calls) == 2


def test_families_classify_without_tables(db, capsys):
    seeded_db(db)
    before = {path.name: path.read_bytes() for path in db.iterdir()}
    assert cli.main(["families", "classify"]) == 2
    assert capsys.readouterr().err == (
        f"error: no family tables directory {db / 'families'}: `families build` makes it\n")
    assert {path.name: path.read_bytes() for path in db.iterdir()} == before


def test_families_classify_rejects_unknown_table(db, capsys):
    seeded_db(db)
    assert cli.main(["families", "build", "--saunderson-max", "50",
                     "--lenhart-max", "13"]) == 0
    rec = import_csv(db).find(GOLDEN)
    brick = primitive_sorted(rec.x, rec.y, rec.z)
    (db / "families" / "notes;x.txt").write_text(f"{brick[0]} {brick[1]} {brick[2]}\n")
    before = {path.name: path.read_bytes() for path in db.iterdir() if path.is_file()}
    assert cli.main(["families", "classify"]) == 2
    assert "'notes;x' is not a family tag" in capsys.readouterr().err
    assert {path.name: path.read_bytes() for path in db.iterdir() if path.is_file()} == before



@pytest.mark.parametrize("line", ["1 2", "44 117 240 7", "44 117 x"])
def test_families_classify_rejects_a_malformed_table_line(db, capsys, line):
    seeded_db(db)
    assert cli.main(["families", "build", "--saunderson-max", "50",
                     "--lenhart-max", "13"]) == 0
    table = db / "families" / "Saunderson.txt"
    table.write_text(table.read_text() + f"{line}\n")
    lineno = table.read_text().count("\n")
    before = {path.name: path.read_bytes() for path in db.iterdir() if path.is_file()}
    assert cli.main(["families", "classify"]) == 2
    assert f"Saunderson.txt:{lineno}: expected three integers" in capsys.readouterr().err
    assert {path.name: path.read_bytes() for path in db.iterdir() if path.is_file()} == before

def test_report_k_distribution(db, capsys):
    seeded_db(db)
    assert cli.main(["report", "--what", "k-distribution"]) == 0
    out = capsys.readouterr().out
    assert "k=5 count=1" in out
    assert "k=undefined count=1" in out


def test_report_blockers_and_fibres(db, capsys):
    seeded_db(db)
    assert cli.main(["report", "--what", "blockers"]) == 0
    out = capsys.readouterr().out
    assert "num_blockers=2 count=1" in out
    assert "num_blockers=4 count=1" in out
    assert cli.main(["report", "--what", "fibres"]) == 0
    assert "44 9 hits=1" in capsys.readouterr().out


def mixed_db(db):
    """One full, one partial and one unfactored record."""
    store = Store()
    full = store.insert_hit(GOLDEN, "Rathbun-Search")[0]
    partial = store.insert_hit(SCALED_SAUNDERSON, "Saunderson-Generator")[0]
    store.insert_hit(MasterTuple(19, 16, 6, 5), "MW-6-5")
    store.set_factorization(full, master.factor_f1(GOLDEN))
    store.set_factorization(partial, Factorization(
        factors=[(3, 2), (5, 2), (13, 2)], residual=29 * 101, status="partial"))
    export_csv(store, db)


@pytest.mark.parametrize("argv, lines", [
    (["verify", "theorem"], ["verified=1 violated=0 undecidable_partial=0 skipped_not_full=2"]),
    (["verify", "single-blocker"],
     ["single_blocker=0 strictly_semiscaled=0 fails=0 skipped_not_full=2"]),
    (["report", "--what", "blockers"], ["num_blockers=4 count=1", "skipped_not_full=2"]),
    (["report", "--what", "k-distribution"], ["k=undefined count=1", "skipped_not_full=2"]),
])
def test_verdicts_count_the_records_they_skip(db, capsys, argv, lines):
    # only fully factored records are examined, and the rest are counted
    mixed_db(db)
    assert cli.main(argv) == 0
    assert capsys.readouterr().out.splitlines() == lines


def test_usage_error_exit_code(db):
    with pytest.raises(SystemExit) as exc:
        cli.main(["report", "--what", "nonsense"])
    assert exc.value.code == 2


def test_verify_theorem_has_no_jobs_option(db, capsys):
    seeded_db(db)
    before = {path.name: path.read_bytes() for path in db.iterdir()}
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "theorem", "--jobs", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err
    assert {path.name: path.read_bytes() for path in db.iterdir()} == before


def test_module_entry_point_runs_main(db, tmp_path):
    seeded_db(db)
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "brickforge.cli", *argv],
                              capture_output=True, text=True, env=env)

    missing = run("verify", "theorem", "--db", str(tmp_path / "missing"))
    assert missing.returncode == 2 and "does not exist" in missing.stderr
    perfect = run("verify", "perfect", "--db", str(db))
    assert perfect.returncode == 0 and "records=2 perfect_cuboids=0" in perfect.stdout


def test_corrupted_store_is_operational_error(db, capsys):
    seeded_db(db)
    path = db / "f1_factors.csv"
    path.write_bytes(path.read_bytes().replace(b"1597", b"1598"))
    assert cli.main(["verify", "consistency"]) == 2
    assert "f1_factors.csv does not match" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["mw", "run", "--m", "16", "--n", "11", "--seed-height", "20", "--K", "1"],
    ["factorize", "--budget", "1"],
    ["verify", "theorem"],
])
@pytest.mark.parametrize("kept", [("f1_factors.csv", "fibers.csv", "manifest.txt"),
                                  ("manifest.txt",)])
def test_store_missing_a_file_is_operational_error(db, capsys, argv, kept):
    # master_hits.csv deleted, or a first export torn after its manifest: the
    # store is refused, not loaded as empty and written over the rest
    seeded_db(db)
    for path in db.iterdir():
        if path.name not in kept:
            path.unlink()
    before = {path.name: path.read_bytes() for path in db.iterdir()}
    assert cli.main(argv) == 2
    assert "master_hits.csv" in capsys.readouterr().err
    assert {path.name: path.read_bytes() for path in db.iterdir()} == before


def test_orphan_factor_row_is_operational_error(db, capsys):
    seeded_db(db)
    (db / "manifest.txt").unlink()
    path = db / "f1_factors.csv"
    path.write_text(path.read_text() + "9,5,1,0\n")
    assert cli.main(["verify", "consistency"]) == 2
    assert "hit id 9, which names no hit" in capsys.readouterr().err


def test_hits_file_without_a_column_is_operational_error(db, capsys):
    seeded_db(db)
    (db / "manifest.txt").unlink()
    path = db / "master_hits.csv"
    path.write_text(path.read_text().replace("g_scale", "scale", 1))
    assert cli.main(["verify", "consistency"]) == 2
    assert capsys.readouterr().err == (
        "error: master_hits.csv: the header is not "
        "id,a,b,m,n,x,y,z,g_scale,provenance,family_tags,f1_status\n")


@pytest.mark.parametrize("edit", ["quoted field", "reversed columns"])
def test_a_hand_built_hits_file_only_csv_reader_reads_is_refused(db, capsys, edit):
    # a quoted field, or columns in another order than export's: no command
    # writes either, so a store file holding one is refused naming it
    seeded_db(db)
    (db / "manifest.txt").unlink()
    path = db / "master_hits.csv"
    rows = [line.split(",") for line in path.read_text().splitlines()]
    if edit == "quoted field":
        rows[2][9] = f'"{rows[2][9]}"'
    else:
        rows = [row[::-1] for row in rows]
    path.write_text("".join(",".join(row) + "\n" for row in rows))
    assert cli.main(["verify", "consistency"]) == 2
    assert capsys.readouterr().err == {
        "quoted field": "error: master_hits.csv line 3: a quote or a carriage return, "
                        "which no store field holds\n",
        "reversed columns": "error: master_hits.csv: the header is not "
                            "id,a,b,m,n,x,y,z,g_scale,provenance,family_tags,f1_status\n"}[edit]


def test_zero_denominator_in_a_fibre_row_is_operational_error(db, capsys):
    seeded_db(db)
    (db / "manifest.txt").unlink()
    path = db / "fibers.csv"
    path.write_text(path.read_text() + "4,1,2,4,,1/0:1/1\n")
    for argv in (["verify", "consistency"], ["report", "--what", "fibres"],
                 ["mw", "run", "--m", "2", "--n", "1", "--seed-height", "20", "--K", "1"]):
        assert cli.main(argv) == 2
        assert ("fibers.csv row 2: point 1/0:1/1 has a zero denominator"
                in capsys.readouterr().err)


@pytest.mark.parametrize("row", ["1,0,1,0", "1,1,1,0", "1,-7,1,0", "1,7,0,0", "1,7,-1,0",
                                 "1,7,1,2", "1,7,1,-1"])
def test_impossible_factor_row_is_operational_error(db, capsys, row):
    seeded_db(db)
    (db / "manifest.txt").unlink()
    path = db / "f1_factors.csv"
    lines = path.read_text().splitlines()
    path.write_text("\n".join([*lines, row, ""]))
    for argv in (["verify", "theorem"], ["report", "--what", "blockers"],
                 ["verify", "consistency"]):
        assert cli.main(argv) == 2
        assert f"f1_factors.csv row {len(lines) + 1}: prime " in capsys.readouterr().err


@pytest.mark.parametrize("name", ["master_hits.csv", "f1_factors.csv", "fibers.csv"])
def test_non_ascii_byte_in_a_store_file_is_operational_error(db, capsys, name):
    seeded_db(db)
    (db / "manifest.txt").unlink()
    path = db / name
    path.write_bytes(path.read_bytes() + "caf\u00e9\n".encode("utf-8"))
    assert cli.main(["verify", "consistency"]) == 2
    assert f"error: {name}: 'ascii' codec can't decode byte 0xc3" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["master_hits.csv", "f1_factors.csv"])
def test_non_ascii_byte_deep_in_a_store_file_is_named_where_it_is(db, capsys, name):
    # the offset is the file's, wherever in it the byte is
    store = Store()
    for t in bench_walk(2):
        store.set_factorization(store.insert_hit(t, "MW-22-17")[0], master.factor_f1(t, 0))
    export_csv(store, db)
    (db / "manifest.txt").unlink()
    path = db / name
    raw = bytearray(path.read_bytes())
    assert len(raw) > 50_000
    raw[20_000] = 0xC3
    path.write_bytes(raw)
    line = raw.count(b"\n", 0, 20_000) + 1
    assert line > 100 and raw.count(b"\n") > line
    assert cli.main(["verify", "theorem"]) == 2
    assert capsys.readouterr().err == (
        f"error: {name}: 'ascii' codec can't decode byte 0xc3 in position 20000: "
        f"ordinal not in range(128) (line {line})\n")


def test_non_ascii_byte_in_the_manifest_is_named_where_it_is(db, capsys):
    seeded_db(db)
    path = db / "manifest.txt"
    raw = path.read_bytes()
    assert raw.count(b"\n") == 4  # the export mark and three files
    path.write_bytes(raw + b"\xc3")
    assert cli.main(["verify", "theorem"]) == 2
    assert capsys.readouterr().err == (
        f"error: manifest.txt: 'ascii' codec can't decode byte 0xc3 in position {len(raw)}: "
        f"ordinal not in range(128) (line 5)\n")


def test_verify_theorem_lists_a_violated_record(db, capsys, monkeypatch):
    bad = seeded_db(db).get(2).tuple
    monkeypatch.setattr(cli, "verify_blocker_conjecture", lambda t, fact: SimpleNamespace(
        verdict="violated" if t == bad else "verified"))
    assert cli.main(["verify", "theorem"]) == 1
    assert capsys.readouterr().out == ("verified=1 violated=1 undecidable_partial=0 "
                                       "skipped_not_full=0\nviolated ids: 2\n")


def single_blocker_db(db):
    """The paper's single-blocker row, factored."""
    store = Store()
    t = MasterTuple(835, 88, 160, 89)
    store.set_factorization(store.insert_hit(t, "Exhaustive-Bound-1000")[0],
                            master.factor_f1(t))
    export_csv(store, db)


def test_verify_single_blocker_counts_the_paper_row(db, capsys):
    single_blocker_db(db)
    assert cli.main(["verify", "single-blocker"]) == 0
    assert capsys.readouterr().out == (
        "single_blocker=1 strictly_semiscaled=1 fails=0 skipped_not_full=0\n")


def test_verify_single_blocker_lists_a_failing_record(db, capsys, monkeypatch):
    single_blocker_db(db)
    monkeypatch.setattr(cli, "is_strictly_semiscaled", lambda t: False)
    assert cli.main(["verify", "single-blocker"]) == 1
    assert capsys.readouterr().out == (
        "single_blocker=1 strictly_semiscaled=0 fails=1 skipped_not_full=0\nfailing ids: 1\n")


def test_verify_e1_lists_a_failing_record(db, capsys, monkeypatch):
    bad = seeded_db(db).get(1).tuple
    monkeypatch.setattr(cli, "verify_E1", lambda t: t != bad)
    assert cli.main(["verify", "e1"]) == 1
    assert capsys.readouterr().out == "records=2 e1_failures=1\nfailing ids: 1\n"


# every command's stdout on the store of mw run (44,9) at seed height 60, K=3,
# then factorize, as the commands printed it when each formatted its own line
SMALL_STORE_STDOUT = (
    (["mw", "run", "--m", "44", "--n", "9", "--seed-height", "60", "--K", "3"],
     "fibre=(44,9) torsion=(2, 4) seeds=1 candidates=24 certified=6 skipped_large=0 "
     "inserted=3\n"),
    (["factorize", "--budget", "1"], "factored=3 full=3 partial=0 already_full=0\n"),
    (["verify", "theorem"], "verified=3 violated=0 undecidable_partial=0 skipped_not_full=0\n"),
    (["verify", "perfect"], "records=3 perfect_cuboids=0\n"),
    (["verify", "consistency"], "records=3 violations=0\n"),
    (["verify", "single-blocker"],
     "single_blocker=0 strictly_semiscaled=0 fails=0 skipped_not_full=0\n"),
    (["verify", "e1"], "records=3 e1_failures=0\n"),
    (["report", "--what", "k-distribution"], "k=1 count=2\nk=undefined count=1\n"
                                             "skipped_not_full=0\n"),
    (["report", "--what", "blockers"], "num_blockers=4 count=1\nnum_blockers=7 count=1\n"
                                       "num_blockers=9 count=1\nskipped_not_full=0\n"),
    (["report", "--what", "fibres"], "44 9 hits=3 torsion=(2, 4)\n55 48 hits=1\n"
                                     "9343840 548887 hits=1\n"
                                     "16463161213657264 10922441581030155 hits=1\n"),
)


def test_every_command_prints_the_recorded_lines(db, capsys):
    for argv, out in SMALL_STORE_STDOUT:
        assert (cli.main(argv), capsys.readouterr().out) == (0, out), argv


def test_a_record_without_its_factor_rows_is_operational_error(db, capsys):
    # a full record whose rows are gone: exit 2 naming the hit, as verify
    # consistency words it, not a KeyError traceback and exit 1
    for argv in (["mw", "run", "--m", "44", "--n", "9", "--seed-height", "60", "--K", "2"],
                 ["factorize", "--budget", "1"]):
        assert cli.main(argv) == 0
    first = next(rec.id for rec in import_csv(db).hits() if rec.f1_status == "full")
    path = db / "f1_factors.csv"
    path.write_text(path.read_text().splitlines(keepends=True)[0])
    (db / "manifest.txt").unlink()
    capsys.readouterr()
    for argv in (["verify", "theorem"], ["verify", "single-blocker"],
                 ["report", "--what", "blockers"]):
        assert cli.main(argv) == 2, argv
        assert capsys.readouterr().err == (
            f"error: hit {first}: status full but no factor rows\n"), argv


@pytest.mark.parametrize("argv", [["verify", "theorem"], ["verify", "single-blocker"],
                                  ["report", "--what", "k-distribution"],
                                  ["report", "--what", "blockers"]], ids=" ".join)
def test_a_verdict_command_refuses_repeated_prime_rows(db, capsys, argv):
    # 7^2 of f1 as two rows of 7: a factorization no factor() gives, which
    # verify consistency reports (exit 1) and a verdict refuses to read (exit 2)
    store = seeded_db(db)
    rows = store.factor_rows(1)
    assert (rows[0].prime, rows[0].exponent) == (7, 2)
    put_lines(store, 1, factors=[replace(rows[0], exponent=1)] * 2 + rows[1:])
    export_csv(store, db)
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == "error: hit 1: repeated prime rows\n"
    assert cli.main(["verify", "consistency"]) == 1
    assert capsys.readouterr().out.splitlines()[1:] == ["hit 1: repeated prime rows"]


def hand_built_golden(db, rows) -> None:
    """A store of GOLDEN alone, status full, whose f1_factors.csv holds `rows`
    ("prime,exponent,is_residual") and which has no manifest, as a store
    written by hand is loaded: unchecked."""
    store = Store()
    store.set_factorization(store.insert_hit(GOLDEN, "Rathbun-Search")[0],
                            master.factor_f1(GOLDEN))
    export_csv(store, db)
    (db / "manifest.txt").unlink()
    (db / "f1_factors.csv").write_text(
        "hit_id,prime,exponent,is_residual\n" + "".join(f"1,{row}\n" for row in rows))


GOLDEN_ROWS = ["7,2,0", "13,3,0", "61,1,0", "1597,1,0", "9349,1,0"]

# each fault of a full record's factor rows that costs no is_prime, its rows
# and the first line verify consistency prints for it
FULL_ROW_FAULTS = {
    "no rows": ([], "hit 1: status full but no factor rows"),
    "repeated prime": (["7,1,0", "7,1,0", *GOLDEN_ROWS[1:]], "hit 1: repeated prime rows"),
    # 61 * 1597 * 9349 as a residual under status full: read as no witness, violated
    "residual row": (["7,2,0", "13,3,0", f"{61 * 1597 * 9349},1,1"],
                     "hit 1: full status with a residual row"),
    # one forged row: read as its own witness, verified
    "wrong product": (["1000033,1,0"], "hit 1: factor rows do not multiply back to f1"),
}


@pytest.mark.parametrize("argv", [["verify", "theorem"], ["verify", "single-blocker"],
                                  ["report", "--what", "k-distribution"],
                                  ["report", "--what", "blockers"]], ids=" ".join)
@pytest.mark.parametrize("fault", FULL_ROW_FAULTS)
def test_a_verdict_command_refuses_what_verify_consistency_reports(db, capsys, fault, argv):
    # a full record is read only through its rows: a verdict on rows verify
    # consistency rejects would be a false verdict, so it is refused (exit 2)
    # in the words verify consistency prints (exit 1)
    rows, finding = FULL_ROW_FAULTS[fault]
    hand_built_golden(db, rows)
    assert (cli.main(argv), tuple(capsys.readouterr())) == (2, ("", f"error: {finding}\n"))
    assert cli.main(["verify", "consistency"]) == 1
    assert finding in capsys.readouterr().out.splitlines()[1:]


# two one-hit (55,48,44,9) stores whose rows multiply to f1 with every row
# marked prime: 91 = 7 * 13 in A, 169 = 13^2 in B, where 13^3 divides f1
# exactly; each with the refusal of the verdict commands and the composite
# verify consistency proves
COMPOSITE_ROW_STORES = {
    "A": (["7,1,0", "13,2,0", "61,1,0", "91,1,0", "1597,1,0", "9349,1,0"],
          "blocker 7 = 3 mod 4 on (44, 9, 55, 48), impossible for a two-square norm", 91),
    "B": (["7,2,0", "13,1,0", "61,1,0", "169,1,0", "1597,1,0", "9349,1,0"],
          "row 13^1 does not divide f1 exactly on (44, 9, 55, 48)", 169),
}


def test_a_composite_row_with_the_right_product_is_no_traceback(db, capsys):
    # every verdict command reads the odd-exponent rows through blockers(t, f),
    # which checks each against f1: the 3 mod 4 row 7 and the row 13^1 are
    # refused (exit 2, naming the hit), not raised as an AssertionError (exit 1)
    # nor counted as blockers (exit 0)
    for name, (rows, refusal, composite) in COMPOSITE_ROW_STORES.items():
        hand_built_golden(db, rows)
        for argv in (["verify", "theorem"], ["verify", "single-blocker"],
                     ["report", "--what", "k-distribution"], ["report", "--what", "blockers"]):
            assert (cli.main(argv), tuple(capsys.readouterr())) == (
                2, ("", f"error: hit 1: {refusal}\n")), (name, argv)
        assert cli.main(["verify", "consistency"]) == 1
        assert capsys.readouterr().out.splitlines()[1:] == [
            f"hit 1: composite {composite} marked prime"], name


def test_verify_theorem_derives_each_full_record_six_times(factored_k2, monkeypatch, capsys):
    # two pair gates for the read's f1, two for the hit check and f1 of the
    # verdict, two for the parameter set
    full = sum(rec.f1_status == "full" for rec in import_csv(factored_k2).hits())
    gate, calls = master._pair_entries, []
    monkeypatch.setattr(master, "_pair_entries", lambda a, b: calls.append(1) or gate(a, b))
    assert cli.main(["verify", "theorem", "--db", str(factored_k2)]) == 0
    assert f"verified={full} " in capsys.readouterr().out
    assert len(calls) == 6 * full


def test_a_reader_that_closes_the_pipe_ends_the_command_quietly(db):
    seeded_db(db)
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    with subprocess.Popen([sys.executable, "-m", "brickforge.cli", "report", "--what", "fibres"],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env={**os.environ, "PYTHONPATH": path}) as proc:
        proc.stdout.close()  # before the command has printed anything
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    assert (code, err) == (141, b"")


def test_factor_field_above_the_csv_field_limit_is_operational_error(db, capsys):
    # the store's field limit is int()'s cap on the digits of a decimal, 2,000,000
    seeded_db(db)
    (db / "manifest.txt").unlink()
    path = db / "f1_factors.csv"
    lines = path.read_text().splitlines()
    path.write_text("\n".join([*lines, "1," + "7" * 2_000_001 + ",1,1", ""]))
    assert cli.main(["verify", "theorem"]) == 2
    assert capsys.readouterr().err.startswith(
        f"error: f1_factors.csv row {len(lines) + 1}: Exceeds the limit (2000000 digits) "
        "for integer string conversion")


# mw run (22,17) H=80 K=2, then these fibres at H=60 K=2: inserts, fibres without
# seeds, a rerun that inserts nothing and a rerun of the first fibre
GUARD_FIBRES = ((4, 3), (6, 5), (8, 3), (2, 1), (13, 2), (16, 5), (7, 2), (18, 7), (21, 8),
                (3, 2), (24, 1), (6, 5), (31, 8), (22, 17), (10, 1))
GUARD_INSERTED = (346, 2, 30, 6, 0, 30, 6, 0, 29, 2, 0, 5, 0, 3, 0, 1)
GUARD_STDOUT_SHA256 = "7fd942ad7b3294758ada68778a2460c1f6b4fe67972091b6404d0727fcce5d4a"
GUARD_FILES_SHA256 = {
    "master_hits.csv": "e6f3f70e8ec400fb8160fb44d3c5971dbed2ce3bc812f28f3129825315d83115",
    "f1_factors.csv": "c2c73759eb81b7c0cdeeb7aff446a0813c1c25c00789fea819197dd09ac084bc",
    "fibers.csv": "21662e7327eff26122d0075250270c8a1e52f84aa6f884d3b6dcfbc556774ea7",
    # the export mark, then the digests of the three files above
    "manifest.txt": "43afc8bc79468047f8ca4a6739b133a0fbfff838032915c969a6d4d12689b6dc",
}


def test_fibre_sweep_output_is_byte_stable(db, capsys):
    # digests of a run before store rows were kept as text; any change to the
    # store or the walk has to keep these bytes
    outs = []
    for m, n, height in ((22, 17, 80), *((m, n, 60) for m, n in GUARD_FIBRES)):
        assert cli.main(["mw", "run", "--m", str(m), "--n", str(n),
                         "--seed-height", str(height), "--K", "2"]) == 0
        outs.append(capsys.readouterr().out)
    assert tuple(int(out.split("inserted=")[1]) for out in outs) == GUARD_INSERTED
    assert hashlib.sha256("".join(outs).encode("ascii")).hexdigest() == GUARD_STDOUT_SHA256
    assert {name: hashlib.sha256((db / name).read_bytes()).hexdigest()
            for name in GUARD_FILES_SHA256} == GUARD_FILES_SHA256


DATA = Path(__file__).parent / "data"
# the (22,17) K=2 store after one `factorize --budget 0.05 --jobs 1`, whose
# factor rows are kept in data/k2_f1_factors.csv
FACTORED_K2_SHA256 = {
    "master_hits.csv": "85b780ef65479af52d56eef5bd0346144b1a5b47ce0050e5ac970611218ed018",
    "f1_factors.csv": "adea3c736fdf162d5748032e62a769605e6834cf9d216791ac46a66041b96720",
}
# every read command of the factor-audit workload, in its order
READS = (["verify", "theorem"], ["verify", "perfect"], ["verify", "consistency"],
         ["verify", "single-blocker"], ["verify", "e1"], ["families", "build"],
         ["families", "classify"], ["report", "--what", "k-distribution"],
         ["report", "--what", "blockers"], ["report", "--what", "fibres"],
         ["verify", "consistency"])


@pytest.fixture(scope="module")
def factored_k2(tmp_path_factory):
    db = tmp_path_factory.mktemp("factored_k2")
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["mw", "run", "--m", "22", "--n", "17", "--seed-height", "80",
                         "--K", "2", "--db", str(db)]) == 0
    store = import_csv(db)
    with open(DATA / "k2_f1_factors.csv", newline="") as fh:
        rows = [tuple(map(int, row)) for row in itertools.islice(csv.reader(fh), 1, None)]
    for hit_id, group in itertools.groupby(rows, key=lambda row: row[0]):
        group = list(group)
        residual = math.prod(p ** e for _, p, e, is_residual in group if is_residual)
        store.set_factorization(hit_id, Factorization(
            factors=[(p, e) for _, p, e, is_residual in group if not is_residual],
            residual=residual, status="partial" if residual > 1 else "full"))
    export_csv(store, db)
    assert {name: hashlib.sha256((db / name).read_bytes()).hexdigest()
            for name in FACTORED_K2_SHA256} == FACTORED_K2_SHA256
    return db


@pytest.mark.parametrize("marked", [True, False])
def test_read_commands_print_what_they_printed_on_the_factored_store(factored_k2, tmp_path,
                                                                     capsys, marked):
    # stdout recorded while every row was parsed at import; a store under
    # the export mark keeps its rows as text, one without it is parsed
    db = tmp_path / "db"
    shutil.copytree(factored_k2, db)
    if not marked:
        (db / "manifest.txt").write_text("".join(
            f"{hashlib.sha256((db / name).read_bytes()).hexdigest()}  {name}\n"
            for name in CSV_NAMES))
    assert ((db / "manifest.txt").read_text().startswith(EXPORT_MARK + "\n")) == marked
    out = []
    for argv in READS:
        rc = cli.main([*argv, "--db", str(db)])
        out.append(f"$ {' '.join(argv)} -> {rc}\n{capsys.readouterr().out}")
    assert "".join(out) == (DATA / "k2_factored_reads.txt").read_text()


@pytest.mark.parametrize("argv", [["verify", "theorem"], ["verify", "single-blocker"],
                                  ["report", "--what", "k-distribution"],
                                  ["report", "--what", "blockers"]], ids=" ".join)
def test_a_verdict_command_parses_each_record_once(factored_k2, monkeypatch, capsys, argv):
    # the record read for its status is the one whose factorization is read
    store = import_csv(factored_k2)
    assert 0 < sum(rec.f1_status == "full" for rec in store.hits()) < len(store)
    parse, calls = store_module._hit_record, []
    monkeypatch.setattr(store_module, "_hit_record",
                        lambda fields: calls.append(1) or parse(fields))
    assert cli.main([*argv, "--db", str(factored_k2)]) == 0
    assert "skipped_not_full=" in capsys.readouterr().out
    assert len(calls) == len(store)


HELP_AND_USAGE = [[], ["--help"], ["nope"], ["verif"], ["--db", "x", "mw"], ["mw"],
                  ["mw", "--help"], ["mw", "run", "--help"], ["mw", "run"], ["mw", "rn"],
                  ["verify", "--help"], ["verify", "theorem", "--help"], ["verify", "bogus"],
                  ["factorize", "--help"], ["factorize", "--budget", "x"],
                  ["families", "build", "--help"], ["report", "--what", "x"]]


@pytest.mark.parametrize("argv", HELP_AND_USAGE, ids=" ".join)
def test_one_command_parser_prints_what_the_full_parser_prints(db, monkeypatch, capsys, argv):
    # main's parser, built once and reused by every call, prints what a
    # parser built afresh prints
    def printed(parse):
        with pytest.raises(SystemExit) as exc:
            parse(argv)
        return exc.value.code, capsys.readouterr()

    monkeypatch.setenv("COLUMNS", "80")
    assert printed(cli.main) == printed(cli._parser.__wrapped__().parse_args)


def test_main_builds_the_parser_once(db, tmp_path, monkeypatch, capsys):
    built = []
    build = cli._parser.__wrapped__
    monkeypatch.setattr(cli, "_parser", functools.cache(lambda: built.append(1) or build()))
    seeded_db(db)
    for _ in range(5):
        assert cli.main(["mw", "run", "--m", "2", "--n", "1", "--seed-height", "20", "--K", "2"]) == 0
        assert cli.main(["report", "--what", "fibres"]) == 0
        assert cli.main(["verify", "consistency"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "records=2 violations=0"
    # the store directory is read from the environment at each call
    other = tmp_path / "other"
    other.mkdir()
    monkeypatch.setenv("BRICKFORGE_DB", str(other))
    assert cli.main(["verify", "consistency"]) == 0
    assert capsys.readouterr().out == "records=0 violations=0\n"
    assert built == [1]
