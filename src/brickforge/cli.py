"""Batch command surface over the hit store.

Exit codes are uniform across commands: 0 all checks pass, 1 a
mathematical violation was found, 2 operational error (bad usage,
unreadable store, malformed input).
"""
from __future__ import annotations

import argparse
import math
import os
import sys
from collections import Counter
from concurrent.futures import ProcessPoolExecutor

from . import master
from .blockers import blockers, is_strictly_semiscaled, k_invariant, verify_E1, verify_blocker_conjecture
from .ecq import torsion_subgroup
from .families import build_tables, classify, load_tables, save_tables
from .fibration import build_fibre
from .master import MasterTuple
from .mw import enumerate_and_certify, load_seed_file, naive_quartic_search, seeds_from_hits
from .ntkernel import DEFAULT_BUDGET, factor, is_perfect_square
from .store import FibreRow, Store, export_csv, import_csv, validate_consistency


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parser(argv[0] if argv else None).parse_args(argv)
    if args.db is None:
        print("error: no store directory (pass --db or set BRICKFORGE_DB)", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except (OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


def _parser(command=None) -> argparse.ArgumentParser:
    """The parser of one command, or of every command when `command` names
    none (help, a typo, no argument), so usage and errors read the same."""
    db = argparse.ArgumentParser(add_help=False)
    db.add_argument("--db", default=os.environ.get("BRICKFORGE_DB"),
                    help="store directory (default: $BRICKFORGE_DB)")

    top = argparse.ArgumentParser(prog="brickforge")
    sub = top.add_subparsers(dest="command", required=True)
    for name, add in _COMMANDS.items():
        if command == name or command not in _COMMANDS:
            add(sub, db)
    return top


def _add_verify(sub, db) -> None:
    verify = sub.add_parser("verify", help="run store-wide checks")
    vsub = verify.add_subparsers(dest="check", required=True)
    p = vsub.add_parser("theorem", parents=[db])
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=_cmd_verify_theorem)
    vsub.add_parser("perfect", parents=[db]).set_defaults(func=_cmd_verify_perfect)
    vsub.add_parser("consistency", parents=[db]).set_defaults(func=_cmd_verify_consistency)
    vsub.add_parser("single-blocker", parents=[db]).set_defaults(func=_cmd_verify_single_blocker)
    vsub.add_parser("e1", parents=[db]).set_defaults(func=_cmd_verify_e1)


def _add_factorize(sub, db) -> None:
    p = sub.add_parser("factorize", parents=[db], help="factor f1 of unfinished records")
    p.add_argument("--budget", type=float, default=DEFAULT_BUDGET)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=_cmd_factorize)


def _add_mw(sub, db) -> None:
    mw = sub.add_parser("mw", help="fibre-by-fibre generation")
    msub = mw.add_subparsers(dest="action", required=True)
    p = msub.add_parser("run", parents=[db])
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--K", type=int, required=True)
    seeds = p.add_mutually_exclusive_group(required=True)
    seeds.add_argument("--seed-height", type=int)
    seeds.add_argument("--seeds", metavar="FILE")
    p.set_defaults(func=_cmd_mw_run)


def _add_families(sub, db) -> None:
    fam = sub.add_parser("families", help="closed-form family tables")
    fsub = fam.add_subparsers(dest="action", required=True)
    p = fsub.add_parser("build", parents=[db])
    p.add_argument("--saunderson-max", type=int, default=500)
    p.add_argument("--lenhart-max", type=int, default=300)
    p.add_argument("--himane", metavar="FILE")
    p.set_defaults(func=_cmd_families_build)
    fsub.add_parser("classify", parents=[db]).set_defaults(func=_cmd_families_classify)


def _add_report(sub, db) -> None:
    p = sub.add_parser("report", parents=[db], help="text reports over the store")
    p.add_argument("--what", required=True,
                   choices=("k-distribution", "blockers", "fibres"))
    p.set_defaults(func=_cmd_report)


_COMMANDS = {"verify": _add_verify, "factorize": _add_factorize, "mw": _add_mw,
             "families": _add_families, "report": _add_report}


def _require_store_dir(dirpath) -> None:
    # a mistyped --db must not pass as, or start, a new empty store
    if not os.path.isdir(dirpath):
        raise OSError(f"store directory {dirpath} does not exist")


def _load(dirpath) -> Store:
    _require_store_dir(dirpath)
    if not os.path.exists(os.path.join(dirpath, "master_hits.csv")):
        return Store()
    return import_csv(dirpath)


def _pmap(jobs, fn, items):
    items = list(items)
    if jobs <= 1 or len(items) < 2:
        return [fn(item) for item in items]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items, chunksize=max(1, len(items) // (4 * jobs))))


def _theorem_verdict(item):
    t, fact = item
    return verify_blocker_conjecture(MasterTuple(*t), fact).verdict


def _cmd_verify_theorem(args) -> int:
    if args.jobs < 1:
        raise ValueError("--jobs must be at least 1")
    db = _load(args.db)
    full = [rec for rec in db.hits() if rec.f1_status == "full"]
    jobs = [(tuple(rec.tuple), db.factorization_of(rec.id)) for rec in full]
    counts = Counter({"verified": 0, "violated": 0, "undecidable_partial": 0})
    violated = []
    for rec, verdict in zip(full, _pmap(args.jobs, _theorem_verdict, jobs)):
        counts[verdict] += 1
        if verdict == "violated":
            violated.append(rec.id)
    print(f"verified={counts['verified']} violated={counts['violated']} "
          f"undecidable_partial={counts['undecidable_partial']}")
    if violated:
        print("violated ids: " + " ".join(map(str, violated)))
        return 1
    return 0


def _cmd_verify_perfect(args) -> int:
    db = _load(args.db)
    found = [rec.id for rec in db.hits()
             if is_perfect_square(rec.x ** 2 + rec.y ** 2 + rec.z ** 2) is not None]
    print(f"records={len(db)} perfect_cuboids={len(found)}")
    if found:
        print("perfect ids: " + " ".join(map(str, found)))
        return 1
    return 0


def _cmd_verify_consistency(args) -> int:
    db = _load(args.db)
    problems = validate_consistency(db)
    print(f"records={len(db)} violations={len(problems)}")
    for line in problems:
        print(line)
    return 1 if problems else 0


def _cmd_verify_single_blocker(args) -> int:
    db = _load(args.db)
    checked = holds = skipped = 0
    fails = []
    for rec in db.hits():
        if rec.f1_status != "full":
            skipped += 1
            continue
        if len(blockers(db.factorization_of(rec.id))) != 1:
            continue
        checked += 1
        if is_strictly_semiscaled(rec.tuple):
            holds += 1
        else:
            fails.append(rec.id)
    print(f"single_blocker={checked} strictly_semiscaled={holds} "
          f"fails={len(fails)} skipped_not_full={skipped}")
    if fails:
        print("failing ids: " + " ".join(map(str, fails)))
        return 1
    return 0


def _cmd_verify_e1(args) -> int:
    db = _load(args.db)
    fails = [rec.id for rec in db.hits() if not verify_E1(rec.tuple)]
    print(f"records={len(db)} e1_failures={len(fails)}")
    if fails:
        print("failing ids: " + " ".join(map(str, fails)))
        return 1
    return 0


def _factor_f1(item):
    t, budget = item
    return factor(master.f1(MasterTuple(*t)), budget=budget)


def _cmd_factorize(args) -> int:
    if not 0 < args.budget < math.inf:
        raise ValueError("--budget must be a finite number above 0")
    if args.jobs < 1:
        raise ValueError("--jobs must be at least 1")
    db = _load(args.db)
    todo = [rec for rec in db.hits() if rec.f1_status != "full"]
    results = _pmap(args.jobs, _factor_f1,
                    [(tuple(rec.tuple), args.budget) for rec in todo])
    for rec, fact in zip(todo, results):
        db.set_factorization(rec.id, fact)
    export_csv(db, args.db)
    full = sum(1 for rec in todo if rec.f1_status == "full")
    print(f"factored={len(todo)} full={full} partial={len(todo) - full} "
          f"already_full={len(db) - len(todo)}")
    return 0


def _cmd_mw_run(args) -> int:
    ok, reason = master.is_admissible(args.m, args.n, args.m, args.n)
    if not ok:
        print(f"error: pair ({args.m},{args.n}) inadmissible ({reason})", file=sys.stderr)
        return 2
    if args.K < 1:
        print("error: --K must be at least 1", file=sys.stderr)
        return 2
    db = _load(args.db)
    c = build_fibre(args.m, args.n)
    torsion = torsion_subgroup(c)
    if args.seeds is not None:
        gens = load_seed_file(args.seeds, c, torsion=torsion)
    else:
        pairs = naive_quartic_search(c, args.seed_height)
        gens = seeds_from_hits(c, pairs, torsion=torsion)
    run = enumerate_and_certify(gens, args.K, torsion)
    inserted = 0
    for t in run.outputs:
        _, created = db.insert_hit(t, run.provenance)
        inserted += int(created)
    db.upsert_fibre(FibreRow(
        m=args.m, n=args.n,
        torsion_d1=torsion.structure[0], torsion_d2=torsion.structure[1],
        generators=tuple(gens.points),
    ))
    export_csv(db, args.db)
    s = run.stats
    print(f"fibre=({args.m},{args.n}) torsion={torsion.structure} seeds={len(gens.points)} "
          f"candidates={s.candidates} certified={s.certified} "
          f"skipped_large={s.skipped_large} inserted={inserted}")
    return 0


def _cmd_families_build(args) -> int:
    _require_store_dir(args.db)
    tables = build_tables(args.saunderson_max, args.lenhart_max, args.himane)
    save_tables(tables, os.path.join(args.db, "families"))
    for tag in sorted(tables):
        print(f"{tag}: {len(tables[tag])} bricks")
    return 0


def _cmd_families_classify(args) -> int:
    db = _load(args.db)
    tables = load_tables(os.path.join(args.db, "families"))
    hist: Counter = Counter()
    for rec in db.hits():
        tags = classify(rec.x, rec.y, rec.z, tables)
        db.set_family_tags(rec.id, tags)
        hist.update(tags)
    export_csv(db, args.db)
    for tag in sorted(hist):
        print(f"{tag}: {hist[tag]}")
    return 0


def _cmd_report(args) -> int:
    db = _load(args.db)
    if args.what == "k-distribution":
        hist: Counter = Counter()
        for rec in db.hits():
            if rec.f1_status != "full":
                continue
            split = k_invariant(rec.tuple, db.factorization_of(rec.id))
            hist[str(split[2]) if split else "undefined"] += 1
        _print_table("k", hist, key=lambda k: (k == "undefined", len(k), k))
    elif args.what == "blockers":
        hist = Counter(
            len(blockers(db.factorization_of(rec.id)))
            for rec in db.hits() if rec.f1_status == "full"
        )
        _print_table("num_blockers", hist, key=int)
    else:
        hist = Counter()
        for rec in db.hits():
            for pair in {(rec.a, rec.b), (rec.m, rec.n)}:
                hist[pair] += 1
        torsion = {(row.m, row.n): (row.torsion_d1, row.torsion_d2) for row in db.fibres()}
        for pair in sorted(hist):
            extra = ""
            if pair in torsion:
                extra = f" torsion={torsion[pair]}"
            print(f"{pair[0]} {pair[1]} hits={hist[pair]}{extra}")
    return 0


def _print_table(label, hist: Counter, key) -> None:
    for value in sorted(hist, key=key):
        print(f"{label}={value} count={hist[value]}")
