"""Batch command surface over the hit store.

Exit codes are uniform across commands: 0 all checks pass, 1 a
mathematical violation was found, 2 operational error (bad usage,
unreadable store, malformed input), 141 (128 + SIGPIPE, as a shell
reports a writer a closed pipe ended) the reader of stdout closed it
early, as `head` does; nothing more is printed then.
"""
from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from collections import Counter

from . import master
from .blockers import blockers, is_strictly_semiscaled, k_invariant, verify_E1, verify_blocker_conjecture
from .ecq import TORSION_STRUCTURE
from .families import build_tables, classify, load_tables, save_tables
from .fibration import build_fibre
from .mw import enumerate_and_certify, load_seed_file, naive_quartic_search, seeds_from_hits
from .ntkernel import DEFAULT_BUDGET, is_perfect_square
from .store import CSV_NAMES, FibreRow, Store, export_csv, import_csv, validate_consistency


def main(argv=None) -> int:
    args = _parser().parse_args(sys.argv[1:] if argv is None else argv)
    if args.db is None:
        args.db = os.environ.get("BRICKFORGE_DB")
    if args.db is None:
        print("error: no store directory (pass --db or set BRICKFORGE_DB)", file=sys.stderr)
        return 2
    try:
        code = args.func(args)
        sys.stdout.flush()  # so a closed pipe is met here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the rest of the output, and the flush at exit, go to nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of every command, built once per process: parsing leaves
    it unchanged, and `main` reads $BRICKFORGE_DB at each call."""
    db = argparse.ArgumentParser(add_help=False)
    db.add_argument("--db", help="store directory (default: $BRICKFORGE_DB)")

    top = argparse.ArgumentParser(prog="brickforge")
    sub = top.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run store-wide checks")
    vsub = verify.add_subparsers(dest="check", required=True)
    vsub.add_parser("theorem", parents=[db]).set_defaults(func=_cmd_verify_theorem)
    vsub.add_parser("perfect", parents=[db]).set_defaults(func=_cmd_verify_perfect)
    vsub.add_parser("consistency", parents=[db]).set_defaults(func=_cmd_verify_consistency)
    vsub.add_parser("single-blocker", parents=[db]).set_defaults(func=_cmd_verify_single_blocker)
    vsub.add_parser("e1", parents=[db]).set_defaults(func=_cmd_verify_e1)

    p = sub.add_parser("factorize", parents=[db], help="factor f1 of unfinished records")
    p.add_argument("--budget", type=float, default=DEFAULT_BUDGET)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=_cmd_factorize)

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

    fam = sub.add_parser("families", help="closed-form family tables")
    fsub = fam.add_subparsers(dest="action", required=True)
    p = fsub.add_parser("build", parents=[db])
    p.add_argument("--saunderson-max", type=int, default=500)
    p.add_argument("--lenhart-max", type=int, default=300)
    p.add_argument("--himane", metavar="FILE")
    p.set_defaults(func=_cmd_families_build)
    fsub.add_parser("classify", parents=[db]).set_defaults(func=_cmd_families_classify)

    p = sub.add_parser("report", parents=[db], help="text reports over the store")
    p.add_argument("--what", required=True,
                   choices=("k-distribution", "blockers", "fibres"))
    p.set_defaults(func=_cmd_report)
    return top


def _require_store_dir(dirpath) -> None:
    # a mistyped --db must not pass as, or start, a new empty store
    if not os.path.isdir(dirpath):
        raise OSError(f"store directory {dirpath} does not exist")


def _load(dirpath) -> Store:
    """The store in dirpath, empty only where none of its files exists: a
    store that lacks one is refused by `import_csv`, which names it."""
    _require_store_dir(dirpath)
    names = (*CSV_NAMES, "manifest.txt")
    if not any(os.path.exists(os.path.join(dirpath, name)) for name in names):
        return Store()
    return import_csv(dirpath)


def _pmap(jobs, fn, items):
    items = list(items)
    if jobs <= 1 or len(items) < 2:
        return map(fn, items)  # each result made as the caller takes it, and then freed
    from concurrent.futures import ProcessPoolExecutor  # imported here: no other command needs it

    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items, chunksize=max(1, len(items) // (4 * jobs))))


def _factored(db: Store) -> list:
    """(record, factorization) of each record whose f1 is fully factored: the
    only ones a verdict on the blockers examines; each command prints how many it skipped."""
    return [(rec, db.factorization_of(rec)) for rec in db.hits() if rec.f1_status == "full"]


def _summary(counts: dict, failing: str = "", ids=()) -> int:
    """Print `counts` as key=value pairs on one line, then `<failing> ids: …`
    when `ids` is not empty; the exit code, 1 exactly then, else 0."""
    print(" ".join(f"{key}={value}" for key, value in counts.items()))
    if ids:
        print(f"{failing} ids: " + " ".join(map(str, ids)))
        return 1
    return 0


def _cmd_verify_theorem(args) -> int:
    db = _load(args.db)
    full = _factored(db)
    counts = dict.fromkeys(("verified", "violated", "undecidable_partial"), 0)
    violated = []
    for rec, fact in full:
        verdict = verify_blocker_conjecture(rec.tuple, fact).verdict
        counts[verdict] += 1
        if verdict == "violated":
            violated.append(rec.id)
    counts["skipped_not_full"] = len(db) - len(full)
    return _summary(counts, "violated", violated)


def _cmd_verify_perfect(args) -> int:
    db = _load(args.db)
    found = [rec.id for rec in db.hits()
             if is_perfect_square(rec.x ** 2 + rec.y ** 2 + rec.z ** 2) is not None]
    return _summary({"records": len(db), "perfect_cuboids": len(found)}, "perfect", found)


def _cmd_verify_consistency(args) -> int:
    db = _load(args.db)
    problems = validate_consistency(db)
    _summary({"records": len(db), "violations": len(problems)})
    for line in problems:
        print(line)
    return 1 if problems else 0


def _cmd_verify_single_blocker(args) -> int:
    db = _load(args.db)
    full = _factored(db)
    single = [rec for rec, fact in full if len(blockers(fact)) == 1]
    fails = [rec.id for rec in single if not is_strictly_semiscaled(rec.tuple)]
    return _summary({"single_blocker": len(single),
                     "strictly_semiscaled": len(single) - len(fails),
                     "fails": len(fails), "skipped_not_full": len(db) - len(full)},
                    "failing", fails)


def _cmd_verify_e1(args) -> int:
    db = _load(args.db)
    fails = [rec.id for rec in db.hits() if not verify_E1(rec.tuple)]
    return _summary({"records": len(db), "e1_failures": len(fails)}, "failing", fails)


def _cmd_factorize(args) -> int:
    if not 0 < args.budget < math.inf:
        raise ValueError("--budget must be a finite number above 0")
    if args.jobs < 1:
        raise ValueError("--jobs must be at least 1")
    cpus = os.cpu_count() or 1
    if args.jobs > cpus:  # a fork pool starts all its workers at the first submit
        raise ValueError(f"--jobs must be at most {cpus}, the CPU count")
    db = _load(args.db)
    todo = [rec for rec in db.hits() if rec.f1_status != "full"]
    results = _pmap(args.jobs, functools.partial(master.factor_f1, budget=args.budget),
                    [rec.tuple for rec in todo])
    full = 0
    for rec, fact in zip(todo, results):
        db.set_factorization(rec.id, fact)
        full += fact.status == "full"
    export_csv(db, args.db)
    return _summary({"factored": len(todo), "full": full, "partial": len(todo) - full,
                     "already_full": len(db) - len(todo)})


def _cmd_mw_run(args) -> int:
    reason = master.pair_fault(args.m, args.n, "mn")
    if reason:
        raise ValueError(f"pair ({args.m},{args.n}) inadmissible ({reason})")
    if args.K < 1:
        raise ValueError("--K must be at least 1")
    db = _load(args.db)
    c = build_fibre(args.m, args.n)
    if args.seeds is not None:
        seeds = load_seed_file(args.seeds, c)
    else:
        seeds = seeds_from_hits(c, naive_quartic_search(c, args.seed_height))
    run = enumerate_and_certify(c, seeds, args.K)
    inserted = 0
    for t in run.outputs:
        _, created = db.insert_hit(t, run.provenance)
        inserted += int(created)
    db.upsert_fibre(FibreRow(
        m=args.m, n=args.n,
        torsion_d1=TORSION_STRUCTURE[0], torsion_d2=TORSION_STRUCTURE[1],
        generators=tuple(seeds),
    ))
    export_csv(db, args.db)
    s = run.stats
    return _summary({"fibre": f"({args.m},{args.n})", "torsion": TORSION_STRUCTURE,
                     "seeds": len(seeds), "candidates": s.candidates, "certified": s.certified,
                     "skipped_large": s.skipped_large, "inserted": inserted})


def _cmd_families_build(args) -> int:
    _require_store_dir(args.db)
    tables = build_tables(args.saunderson_max, args.lenhart_max, args.himane)
    save_tables(tables, os.path.join(args.db, "families"))
    for tag in sorted(tables):
        print(f"{tag}: {len(tables[tag])} bricks")
    return 0


def _cmd_families_classify(args) -> int:
    db = _load(args.db)
    path = os.path.join(args.db, "families")
    if not os.path.isdir(path):
        raise OSError(f"no family tables directory {path}: `families build` makes it")
    tables = load_tables(path)
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
    if args.what == "fibres":
        hist = Counter(pair for rec in db.hits() for pair in {(rec.a, rec.b), (rec.m, rec.n)})
        torsion = {(row.m, row.n): (row.torsion_d1, row.torsion_d2) for row in db.fibres()}
        for pair in sorted(hist):
            extra = f" torsion={torsion[pair]}" if pair in torsion else ""
            print(f"{pair[0]} {pair[1]} hits={hist[pair]}{extra}")
        return 0
    full = _factored(db)
    if args.what == "k-distribution":
        hist = Counter()
        for rec, fact in full:
            split = k_invariant(rec.tuple, fact)
            hist[str(split[2]) if split else "undefined"] += 1
        _print_table("k", hist, key=lambda k: (k == "undefined", len(k), k))
    else:
        hist = Counter(len(blockers(fact)) for _, fact in full)
        _print_table("num_blockers", hist, key=int)
    return _summary({"skipped_not_full": len(db) - len(full)})


def _print_table(label, hist: Counter, key) -> None:
    for value in sorted(hist, key=key):
        print(f"{label}={value} count={hist[value]}")


if __name__ == "__main__":
    sys.exit(main())
