"""End-to-end acceptance checks, one test per criterion.

Every test emits a single `criterion N: pass|FAIL` line; the lines are
replayed after the run summary (see conftest).  Budgets are wall-clock
and generous; a budget miss is a failure, a slow-but-correct run is not.
"""
import random
import time
from fractions import Fraction
from math import gcd

from brickforge import cli, master
from brickforge.blockers import (
    blockers,
    canonical_decomposition,
    is_strictly_semiscaled,
    padic_profile,
    semiscaled,
    twelve_formulas,
    verify_E1,
    verify_blocker_conjecture,
)
from brickforge.ecq import CurvePoint, torsion_subgroup
from brickforge.families import (
    build_tables,
    classify,
    is_body_cuboid,
    lenhart_generate,
    saunderson_generate,
)
from brickforge.fibration import build_fibre, phi, quartic_rhs, tau, tau_phi_identity
from brickforge.master import MasterTuple
from brickforge.mw import seeds_from_hits
from brickforge.ntkernel import is_square_rational, valuation
from brickforge.store import FibreRow, Store, export_csv, import_csv, validate_consistency
from conftest import (
    ACCEPTANCE_LINES, EVEN_LARGEST_ROWS, GOLDEN, SINGLE_BLOCKER_ROWS, halve, random_admissible,
    random_pair,
)

_FACTS: dict = {}


def _verdict(num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num}: {'pass' if ok else 'FAIL'} ({detail})"
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


def full_fact(row, budget=600.0):
    key = tuple(row)
    if key not in _FACTS:
        _FACTS[key] = master.factor_f1(MasterTuple(*key), budget=budget)
    return _FACTS[key]


def outside_P(t: MasterTuple, p: int) -> bool:
    return all(v % p for v in master.canonical_expressions(t))


def test_criterion_01_golden_end_to_end():
    t = MasterTuple(*GOLDEN)
    admissible, _ = master.is_admissible(*t)
    start = time.monotonic()
    fact = full_fact(t, budget=60.0)
    elapsed = time.monotonic() - start
    odd_outside = [p for p, e in fact.factors if e % 2 and outside_P(t, p)]
    coords = semiscaled(t)
    checks = (
        admissible,
        master.master_norm(t) == 9811032 ** 2,
        master.edges(t)[:3] == (1337455, 9794400, 571032),
        fact.status == "full" and elapsed < 60,
        (13, 3) in fact.factors,
        min(odd_outside) == 13,
        verify_blocker_conjecture(t, fact).verdict == "verified",
        canonical_decomposition(t).g0 == 7,
        (coords.g_plus, coords.g_minus) == (1, 7),
        verify_E1(t),
    )
    _verdict(1, all(checks), f"golden tuple, f1 full in {elapsed:.2f}s")


def test_criterion_02_single_blocker_rows():
    problems, notes = [], []
    for idx, (row, k) in enumerate(SINGLE_BLOCKER_ROWS, start=1):
        t = MasterTuple(*row)
        if master.is_master_hit(t) is None:
            problems.append(f"row {idx} not a hit")
            continue
        fact = full_fact(t)
        if fact.status != "full":
            # a budget miss is reported; only the first row must finish
            notes.append(f"row {idx} not fully factored")
            if idx == 1:
                problems.append("first row must reach full status")
            continue
        bl = blockers(t, fact)
        if not (len(bl) == 1 and bl[0][1] == 1 and outside_P(t, bl[0][0])):
            problems.append(f"row {idx} blocker shape wrong: {bl}")
        if not is_strictly_semiscaled(t):
            problems.append(f"row {idx} not strictly semi-scaled")
        value = master.f1(t)
        if not any(value % (D * D) == 0 for D in twelve_formulas(t, k)):
            problems.append(f"row {idx} has no D^2 | f1 with k={k}")
    detail = "; ".join(problems + notes) or "4 rows: single exponent-1 blocker, modifiers hold"
    _verdict(2, not problems, detail)


def test_criterion_03_even_largest_rows():
    problems, notes = [], []
    for idx, row in enumerate(EVEN_LARGEST_ROWS, start=1):
        t = MasterTuple(*row)
        if master.is_master_hit(t) is None:
            problems.append(f"row {idx} not a hit")
            continue
        fact = full_fact(t)
        if fact.status != "full":
            notes.append(f"row {idx} not fully factored")
            continue
        outs = {p: e for p, e in fact.factors if outside_P(t, p)}
        if not outs:
            problems.append(f"row {idx}: no outside primes at all")
            continue
        largest = max(outs)
        if outs[largest] % 2:
            problems.append(f"row {idx}: largest outside prime {largest} has odd exponent")
        if not any(e == 1 for e in outs.values()):
            problems.append(f"row {idx}: no exponent-one blocker")
    detail = "; ".join(problems + notes) or "3 rows: largest outside prime even, exponent-1 blocker present"
    _verdict(3, not problems, detail)


def test_criterion_04_torsion_benchmark():
    start = time.monotonic()
    structure = torsion_subgroup(build_fibre(88, 7)).structure
    elapsed = time.monotonic() - start
    _verdict(4, structure == (2, 4) and elapsed < 60,
             f"fibre (88,7) torsion {structure} in {elapsed:.1f}s")


def test_criterion_05_universal_four_torsion():
    rng = random.Random(505)
    exceptions = 0
    for _ in range(100):
        m, n = random_pair(rng, 2, 501)
        c = build_fibre(m, n)
        halves = halve(c, CurvePoint(Fraction(c.e2), Fraction(0)))
        good = bool(halves) and all(tau(c, H) == 1 for H in halves)
        d1, d2 = torsion_subgroup(c).structure
        exceptions += not (good and d1 % 2 == 0 and d2 % 4 == 0)
    _verdict(5, exceptions == 0, f"100 fibres, {exceptions} exceptions")


def test_criterion_06_tau_phi_identity():
    rng = random.Random(606)
    symbolic = sum(tau_phi_identity(build_fibre(*random_pair(rng, 2, 400))) for _ in range(50))
    numeric = 0
    for row in [GOLDEN] + [r for r, _ in SINGLE_BLOCKER_ROWS] + EVEN_LARGEST_ROWS:
        a, b, m, n = row
        c = build_fibre(m, n)
        tval = Fraction(a, b)
        s = is_square_rational(quartic_rhs(c, tval))
        numeric += s is not None and tau(c, phi(c, tval, s)) == tval ** 2
    _verdict(6, symbolic == 50 and numeric == 8,
             f"{symbolic}/50 exact identity proofs, {numeric}/8 seed numerics")


def test_criterion_07_generator_soundness(tmp_path, capsys):
    start = time.monotonic()
    code = cli.main(["mw", "run", "--m", "44", "--n", "9",
                     "--seed-height", "60", "--K", "3", "--db", str(tmp_path)])
    elapsed = time.monotonic() - start
    hits = import_csv(tmp_path).hits()
    certified = sum(master.is_master_hit(rec.tuple) is not None for rec in hits)
    capsys.readouterr()
    # verify consistency proves the stored x, y, z equal those the tuple
    # derives, so verify perfect tests the brick of each hit
    checks = [cli.main(["verify", what, "--db", str(tmp_path)])
              for what in ("consistency", "perfect")]
    out = capsys.readouterr().out
    ok = (code == 0 and elapsed < 300 and len(hits) >= 1 and certified == len(hits)
          and checks == [0, 0] and out == f"records={len(hits)} violations=0\n"
                                           f"records={len(hits)} perfect_cuboids=0\n")
    _verdict(7, ok, f"{len(hits)} hits in {elapsed:.1f}s, {certified} certified, "
                    f"verify consistency and perfect: {' | '.join(out.splitlines())}")


def test_criterion_08_structural_identities():
    rng = random.Random(808)
    exceptions = 0
    for _ in range(10000):
        t = random_admissible(rng, 2, 10 ** 6)
        try:
            value = master.f1(t)
            if value % 2 == 0:
                raise AssertionError("f1 even")
            d = canonical_decomposition(t)
            if value != d.g0 ** 2 * (d.xi ** 2 + d.eta ** 2) or gcd(d.xi, d.eta) != 1:
                raise AssertionError("canonical decomposition fails")
            semiscaled(t)  # asserts its identities internally
            for p in (3, 5, 7, 11, 13, 17):
                alpha, beta, predicted = padic_profile(t, p)
                if alpha != beta and valuation(value, p) != predicted:
                    raise AssertionError(f"p-adic case (i) fails at {p}")
        except AssertionError:
            exceptions += 1
    _verdict(8, exceptions == 0, f"10000 tuples, {exceptions} exceptions")


def test_criterion_09_family_generators():
    sa = saunderson_generate(50)
    le = lenhart_generate(50)
    problems = []
    if not all(is_body_cuboid(*brick) for brick, _ in sa + le):
        problems.append("unverified brick")
    if (44, 117, 240) not in {brick for brick, _ in sa}:
        problems.append("(44,117,240) missing")
    recovered = 0
    for brick, _ in sa:
        for t, _scale in master.recover_master_tuple_scaled(*brick):
            recovered += 1
            if not is_strictly_semiscaled(t):
                problems.append(f"{tuple(t)} not strictly semi-scaled")
    _verdict(9, not problems and recovered > 0,
             "; ".join(problems) or f"{len(sa)}+{len(le)} bricks verified, "
                                    f"{recovered} recovered tuples strictly semi-scaled")


def test_criterion_10_store_determinism(tmp_path):
    db = Store()
    for row in [GOLDEN] + [r for r, _ in SINGLE_BLOCKER_ROWS] + EVEN_LARGEST_ROWS:
        hit_id, _ = db.insert_hit(MasterTuple(*row), "Rathbun-Search")
        db.set_factorization(hit_id, full_fact(row))
    tables = build_tables(saunderson_max=50, lenhart_max=13)
    for rec in db.hits():
        db.set_family_tags(rec.id, classify(rec.x, rec.y, rec.z, tables))
    seeds = seeds_from_hits(build_fibre(44, 9), [(55, 48)])
    db.upsert_fibre(FibreRow(m=44, n=9, torsion_d1=2, torsion_d2=4,
                             generators=tuple(seeds)))
    export_csv(db, tmp_path / "a")
    back = import_csv(tmp_path / "a")
    export_csv(back, tmp_path / "b")
    identical = all(
        (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        for name in ("master_hits.csv", "f1_factors.csv", "fibers.csv", "manifest.txt")
    )
    violations = validate_consistency(db) + validate_consistency(back)
    _verdict(10, identical and not violations,
             f"roundtrip byte-identical={identical}, {len(violations)} violations")


def test_criterion_11_observational_v5():
    cases = [key for key, fact in sorted(_FACTS.items())
             if fact.status == "full"
             and next((e for p, e in fact.factors if p == 5), 0) == 1]
    for key in cases:
        line = f"PUBLISHABLE FINDING: v5(f1) = 1 at {key}"
        ACCEPTANCE_LINES.append(line)
        print(line)
    _verdict(11, True, f"{len(_FACTS)} factored hits, {len(cases)} with v5(f1)=1 (report-only)")
