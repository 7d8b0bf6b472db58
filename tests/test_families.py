from math import gcd

import pytest

from brickforge import families
from brickforge.families import (
    LENHART,
    SAUNDERSON,
    SPORADIC,
    build_tables,
    classify,
    himane_import,
    is_body_cuboid,
    lenhart_generate,
    load_tables,
    primitive_sorted,
    saunderson_generate,
    save_tables,
)


def test_saunderson_first_brick():
    out = saunderson_generate(5)
    assert out == [((44, 117, 240), (3, 4, 5))]


def test_saunderson_bound_50():
    out = saunderson_generate(50)
    bricks = [brick for brick, _ in out]
    assert bricks == [(44, 117, 240), (15939, 18460, 48720)]


def test_saunderson_lopsided_triangles_dropped():
    # legs 5,12 fail the positivity filter in both orders
    generators = {g for _, g in saunderson_generate(20)}
    assert (5, 12, 13) not in generators
    assert (12, 5, 13) not in generators


def test_saunderson_all_bricks_valid():
    for brick, (u, v, w) in saunderson_generate(120):
        assert u * u + v * v == w * w
        assert is_body_cuboid(*brick)


def test_saunderson_bound_too_small():
    with pytest.raises(ValueError):
        saunderson_generate(4)


def test_lenhart_first_solutions():
    out = lenhart_generate(13)
    raw = {
        (19, 22, 13): (60480, 282568, 155610),
        (22, 19, 13): (60480, 282568, 109824),
    }
    assert [g for _, g in out] == list(raw)
    for brick, g in out:
        x, y, z = raw[g]
        d = gcd(gcd(x, y), z)
        assert brick == tuple(sorted((x // d, y // d, z // d)))


def test_lenhart_slot_order_matters():
    bricks = {brick for brick, _ in lenhart_generate(13)}
    assert len(bricks) == 2


def test_lenhart_all_bricks_valid():
    out = lenhart_generate(60)
    assert len(out) >= 2
    for brick, (u, v, w) in out:
        assert u * u + v * v == 5 * w * w
        assert u != w and v != w
        assert is_body_cuboid(*brick)


def test_lenhart_degenerate_scan_is_empty():
    # every solution below w = 13 hits a zero or negative edge
    assert lenhart_generate(12) == []


def test_himane_import_roundtrip(tmp_path):
    p = tmp_path / "rows.txt"
    p.write_text("44 117 240\n240 117 44 T2\n# comment\n\n88 234 480 T1\n")
    rows = himane_import(p)
    assert rows == [
        ((44, 117, 240), "Himane-T1"),
        ((44, 117, 240), "Himane-T2"),
        ((44, 117, 240), "Himane-T1"),
    ]


def test_himane_import_reports_bad_lines(tmp_path):
    p = tmp_path / "rows.txt"
    p.write_text("44 117 240\n1 2 3\nnot a row\n")
    with pytest.raises(ValueError) as err:
        himane_import(p)
    assert "line 2" in str(err.value)
    assert "line 3" in str(err.value)


def test_himane_import_empty_file(tmp_path):
    p = tmp_path / "rows.txt"
    p.write_text("")
    assert himane_import(p) == []


def test_classify_known_and_sporadic():
    tables = build_tables(saunderson_max=50, lenhart_max=50)
    assert classify(117, 44, 240, tables) == {SAUNDERSON}
    assert classify(234, 88, 480, tables) == {SAUNDERSON}
    x, y, z = 60480, 282568, 155610
    assert classify(x, y, z, tables) == {LENHART}
    assert classify(240, 44, 117 * 2, tables) == {SPORADIC}


def test_classify_dual_tag(tmp_path):
    p = tmp_path / "rows.txt"
    p.write_text("117 44 240 T3\n")
    tables = build_tables(saunderson_max=50, lenhart_max=13, himane_path=p)
    assert classify(44, 117, 240, tables) == {SAUNDERSON, "Himane-T3"}


def test_tables_roundtrip(tmp_path):
    tables = build_tables(saunderson_max=50, lenhart_max=30)
    save_tables(tables, tmp_path / "families")
    assert load_tables(tmp_path / "families") == tables
    # a file that is no .txt table and a blank line are skipped
    (tmp_path / "families" / "notes.md").write_text("not a table\n")
    with open(tmp_path / "families" / f"{SAUNDERSON}.txt", "a") as fh:
        fh.write("\n")
    assert load_tables(tmp_path / "families") == tables


def test_primitive_sorted():
    assert primitive_sorted(6, 10, 4) == (2, 3, 5)
    assert primitive_sorted(240, 117, 44) == (44, 117, 240)
