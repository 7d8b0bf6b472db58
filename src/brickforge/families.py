"""Closed-form brick generators and family classification.

Two generators are implemented from their published parametrisations;
tabulated bricks from other sources are import-only.  Matching is done
on sorted primitive edge triples, because one brick can admit several
tuple preimages but has only one shape.
"""
from __future__ import annotations

import os
from math import gcd, isqrt

from .ntkernel import is_perfect_square

SAUNDERSON = "Saunderson"
LENHART = "Lenhart"
HIMANE_T1 = "Himane-T1"
HIMANE_T2 = "Himane-T2"
HIMANE_T3 = "Himane-T3"
EULER = "Euler"
SPORADIC = "Sporadic"

FAMILY_TAGS = (SAUNDERSON, LENHART, HIMANE_T1, HIMANE_T2, HIMANE_T3, EULER, SPORADIC)
_HIMANE_BY_SUFFIX = {"T1": HIMANE_T1, "T2": HIMANE_T2, "T3": HIMANE_T3}


def is_body_cuboid(x: int, y: int, z: int) -> bool:
    """All three face diagonals integral (the space diagonal may not be)."""
    if min(x, y, z) <= 0:
        return False
    return all(
        is_perfect_square(p * p + q * q) is not None
        for p, q in ((x, y), (x, z), (y, z))
    )


def primitive_sorted(x: int, y: int, z: int) -> tuple[int, int, int]:
    g = gcd(gcd(x, y), z)
    return tuple(sorted((x // g, y // g, z // g)))


def saunderson_generate(max_g: int):
    """Bricks u(3v^2-u^2), v(3u^2-v^2), 4uvw over primitive Pythagorean
    legs, both leg orders, hypotenuse at most max_g.  Each distinct
    primitive brick is emitted once with its first generator triple."""
    if max_g < 5:
        raise ValueError("max_g below the smallest hypotenuse")
    out: list[tuple[tuple[int, int, int], tuple[int, int, int]]] = []
    seen: set[tuple[int, int, int]] = set()
    for p in range(2, isqrt(max_g) + 1):
        for q in range(1, p):
            if (p - q) % 2 == 0 or gcd(p, q) != 1:
                continue
            w = p * p + q * q
            if w > max_g:
                continue
            legs = (p * p - q * q, 2 * p * q)
            for u, v in (legs, legs[::-1]):
                x = u * (3 * v * v - u * u)
                y = v * (3 * u * u - v * v)
                z = 4 * u * v * w
                if x <= 0 or y <= 0:
                    continue  # too lopsided a triangle
                if not is_body_cuboid(x, y, z):
                    raise AssertionError(f"Saunderson triple ({u},{v},{w}) made a non-brick")
                brick = primitive_sorted(x, y, z)
                if brick not in seen:
                    seen.add(brick)
                    out.append((brick, (u, v, w)))
    return out


def lenhart_generate(max_w: int):
    """Bricks (u^2-w^2)(v^2-w^2), 4uvw^2, 2uw(v^2-w^2) over integer
    solutions of u^2 + v^2 = 5 w^2 with w at most max_w; the two slots
    of (u, v) are not interchangeable and are scanned as ordered pairs."""
    if max_w < 1:
        raise ValueError("max_w must be positive")
    out: list[tuple[tuple[int, int, int], tuple[int, int, int]]] = []
    seen: set[tuple[int, int, int]] = set()
    for w in range(1, max_w + 1):
        for u in range(1, isqrt(5 * w * w) + 1):
            v2 = 5 * w * w - u * u
            v = isqrt(v2)
            if v < 1 or v * v != v2:
                continue
            if u == w or v == w:
                continue  # a zero edge
            x = (u * u - w * w) * (v * v - w * w)
            y = 4 * u * v * w * w
            z = 2 * u * w * (v * v - w * w)
            if x <= 0 or z <= 0:
                continue
            if not is_body_cuboid(x, y, z):
                raise AssertionError(f"Lenhart triple ({u},{v},{w}) made a non-brick")
            brick = primitive_sorted(x, y, z)
            if brick not in seen:
                seen.add(brick)
                out.append((brick, (u, v, w)))
    return out


def himane_import(path):
    """Rows `x y z` (optionally suffixed T1/T2/T3) as primitive bricks.

    Every malformed or non-cuboid row is collected and reported with
    its line number; nothing is imported from a file with bad rows.
    """
    rows: list[tuple[tuple[int, int, int], str]] = []
    bad: list[str] = []
    with open(path, encoding="ascii") as fh:
        for lineno, line in enumerate(fh, start=1):
            tokens = line.split("#")[0].split()
            if not tokens:
                continue
            tag = HIMANE_T1
            if tokens[-1] in _HIMANE_BY_SUFFIX:
                tag = _HIMANE_BY_SUFFIX[tokens[-1]]
                tokens = tokens[:-1]
            try:
                x, y, z = (int(tok) for tok in tokens)
            except ValueError:
                bad.append(f"line {lineno}: not an integer triple")
                continue
            if not is_body_cuboid(x, y, z):
                bad.append(f"line {lineno}: no integer face diagonals")
                continue
            rows.append((primitive_sorted(x, y, z), tag))
    if bad:
        raise ValueError(f"{path}: " + "; ".join(bad))
    return rows


def build_tables(saunderson_max=500, lenhart_max=300, himane_path=None):
    tables: dict[str, set[tuple[int, int, int]]] = {
        SAUNDERSON: {brick for brick, _ in saunderson_generate(saunderson_max)},
        LENHART: {brick for brick, _ in lenhart_generate(lenhart_max)},
    }
    if himane_path is not None:
        for brick, tag in himane_import(himane_path):
            tables.setdefault(tag, set()).add(brick)
    return tables


def classify(x: int, y: int, z: int, tables) -> set[str]:
    """Family tags whose table contains the brick's primitive shape."""
    brick = primitive_sorted(x, y, z)
    tags = {tag for tag, table in tables.items() if brick in table}
    return tags or {SPORADIC}


def save_tables(tables, dirpath) -> None:
    os.makedirs(dirpath, exist_ok=True)
    for tag, table in sorted(tables.items()):
        with open(os.path.join(dirpath, f"{tag}.txt"), "w", encoding="ascii") as fh:
            for brick in sorted(table):
                fh.write(f"{brick[0]} {brick[1]} {brick[2]}\n")


def load_tables(dirpath):
    tables: dict[str, set[tuple[int, int, int]]] = {}
    for name in sorted(os.listdir(dirpath)):
        if not name.endswith(".txt"):
            continue
        tag = name[:-4]
        if tag not in FAMILY_TAGS:
            raise ValueError(f"{os.path.join(dirpath, name)}: {tag!r} is not a family tag")
        path = os.path.join(dirpath, name)
        table = tables[tag] = set()
        with open(path, encoding="ascii") as fh:
            for lineno, line in enumerate(fh, start=1):
                tokens = line.split()
                if not tokens:
                    continue
                try:
                    x, y, z = map(int, tokens)
                except ValueError:
                    raise ValueError(f"{path}:{lineno}: expected three integers") from None
                table.add((x, y, z))
    return tables
