import hashlib

import pytest

from brickforge import cli, master
from brickforge.master import MasterTuple
from brickforge.ntkernel import factor
from brickforge.store import Store, export_csv, import_csv

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
            store.set_factorization(rec.id, factor(master.f1(rec.tuple)))
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
    rec = store.get(1)
    rec.x, rec.y, rec.z = 1, 2, 2
    export_csv(store, db)
    assert cli.main(["verify", "perfect"]) == 1
    assert "perfect ids: 1" in capsys.readouterr().out
    assert cli.main(["verify", "consistency"]) == 1


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


@pytest.mark.parametrize("argv,message", [
    (["factorize", "--budget", "-1"], "--budget must be a finite number above 0"),
    (["factorize", "--budget", "0"], "--budget must be a finite number above 0"),
    (["factorize", "--budget", "nan"], "--budget must be a finite number above 0"),
    (["factorize", "--budget", "inf"], "--budget must be a finite number above 0"),
    (["factorize", "--jobs", "0"], "--jobs must be at least 1"),
    (["factorize", "--jobs", "-4"], "--jobs must be at least 1"),
    (["verify", "theorem", "--jobs", "0"], "--jobs must be at least 1"),
    (["verify", "theorem", "--jobs", "-4"], "--jobs must be at least 1"),
], ids=" ".join)
def test_bad_budget_or_jobs_is_operational_error(db, capsys, argv, message):
    seeded_db(db, factored=False)
    before = {path.name: path.read_bytes() for path in db.iterdir()}
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n" and captured.out == ""
    assert {path.name: path.read_bytes() for path in db.iterdir()} == before


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
    assert cli.main(["mw", "run", "--m", "44", "--n", "9",
                     "--seed-height", "20", "--K", "0"]) == 2


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


def test_families_classify_without_tables(db):
    seeded_db(db)
    assert cli.main(["families", "classify"]) == 2


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


def test_usage_error_exit_code(db):
    with pytest.raises(SystemExit) as exc:
        cli.main(["report", "--what", "nonsense"])
    assert exc.value.code == 2


def test_corrupted_store_is_operational_error(db, capsys):
    seeded_db(db)
    path = db / "f1_factors.csv"
    path.write_bytes(path.read_bytes().replace(b"1597", b"1598"))
    assert cli.main(["verify", "consistency"]) == 2
    assert "f1_factors.csv does not match" in capsys.readouterr().err


def test_orphan_factor_row_is_operational_error(db, capsys):
    seeded_db(db)
    (db / "manifest.txt").unlink()
    path = db / "f1_factors.csv"
    path.write_text(path.read_text() + "9,5,1,0\n")
    assert cli.main(["verify", "consistency"]) == 2
    assert "hit id 9, which names no hit" in capsys.readouterr().err


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
    "manifest.txt": "5713666bdf3794a243d746fb7a873e1be2232efbffe24a206cb18005bbdc8ec0",
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


def _count_builds(monkeypatch) -> list[str]:
    built = []
    for name, add in list(cli._COMMANDS.items()):
        monkeypatch.setitem(cli._COMMANDS, name,
                            lambda sub, parent, name=name, add=add: built.append(name) or add(sub, parent))
    return built


HELP_AND_USAGE = [[], ["--help"], ["nope"], ["verif"], ["--db", "x", "mw"], ["mw"],
                  ["mw", "--help"], ["mw", "run", "--help"], ["mw", "run"], ["mw", "rn"],
                  ["verify", "--help"], ["verify", "theorem", "--help"], ["verify", "bogus"],
                  ["factorize", "--help"], ["factorize", "--budget", "x"],
                  ["families", "build", "--help"], ["report", "--what", "x"]]


@pytest.mark.parametrize("argv", HELP_AND_USAGE, ids=" ".join)
def test_one_command_parser_prints_what_the_full_parser_prints(db, monkeypatch, capsys, argv):
    def printed(parser):
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(argv)
        return exc.value.code, capsys.readouterr()

    monkeypatch.setenv("COLUMNS", "80")
    full = printed(cli._parser())
    built = _count_builds(monkeypatch)
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert (exc.value.code, capsys.readouterr()) == full
    if argv and argv[0] in cli._COMMANDS:
        assert built == [argv[0]]
    else:
        assert built == list(cli._COMMANDS)


def test_main_builds_only_the_chosen_command(db, monkeypatch):
    built = _count_builds(monkeypatch)
    assert cli.main(["mw", "run", "--m", "2", "--n", "1", "--seed-height", "20", "--K", "2"]) == 0
    assert cli.main(["report", "--what", "fibres"]) == 0
    assert cli.main(["verify", "consistency"]) == 0
    assert built == ["mw", "report", "verify"]
