#!/usr/bin/env python3
"""Regenerate perfbench/reference.json and BENCHMARK.json from the program.

    python3 perfbench/make_reference.py

The reference holds what the benchmark's output checks compare against:
the fibre-deep counts and export digest, the base stores of the sweep and
the audit, and for every fibre of the sweep pool the rows that ``mw run``
adds when run alone on it.  Regenerate it only when a change is meant to
alter the program's output, and say so in that change.  It takes about a
minute.
"""
from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run

POOL_M_BELOW = 100


def _mw_store(session, fibres, work) -> tuple[run.Result, Path]:
    db = Path(tempfile.mkdtemp(dir=work))
    res = None
    for fibre in fibres:
        res = session.run(run.mw_argv(*fibre), db)
    return res, db


def _deep(session, fibre, work) -> dict:
    res, db = _mw_store(session, [fibre], work)
    out = {key: res.field(key) for key in ("candidates", "certified", "inserted")}
    out["master_hits_sha256"] = run.sha256_file(db / "master_hits.csv")
    shutil.rmtree(db)
    return out


def _base(session, fibres, work) -> dict:
    _, db = _mw_store(session, fibres, work)
    ids, hits, fibre_rows = run.store_rows(db)
    shutil.rmtree(db)
    return {"records": len(ids), "hits": hits, "fibres": fibre_rows}


def _sweep(session, work) -> dict:
    from brickforge.master import is_admissible
    table = {}
    for m in range(2, POOL_M_BELOW):
        for n in range(1, m):
            if (m, n) == run.FULL.base[0][:2] or not is_admissible(m, n, m, n)[0]:
                continue
            res, db = _mw_store(session, [(m, n, run.SWEEP_HEIGHT, run.SWEEP_K)], work)
            _, hits, fibre_rows = run.store_rows(db)
            shutil.rmtree(db)
            table[f"{m},{n}"] = {"seeds": res.field("seeds"), "hits": hits, "fibre": fibre_rows[0]}
    return {"height": run.SWEEP_HEIGHT, "K": run.SWEEP_K, "m_below": POOL_M_BELOW,
            "fibres": table}


def benchmark_json() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": run.RUN_SECONDS,
        "workloads": [{"name": k, "why": v} for k, v in run.WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": x}
                       for n, u, b, x in run.END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in run.PER_LAYER],
    }


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    run.WORK.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=run.WORK))
    session = run.Session()
    try:
        ref = {
            "about": "Recorded outputs the benchmark checks against; see make_reference.py. "
                     "Hit rows are hashed without id and provenance. factor-audit has no "
                     "digest: its factor rows depend on the wall-clock budget, so it checks "
                     "validity only.",
            "deep": _deep(session, run.FULL.deep, work),
            "smoke_deep": _deep(session, run.SMOKE.deep, work),
            "base": _base(session, run.FULL.base, work),
            "smoke_base": _base(session, run.SMOKE.base, work),
            "sweep": _sweep(session, work),
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if session.failed:
        print("\n".join(session.problems), file=sys.stderr)
        return 1
    with open(run.REFERENCE, "w", encoding="ascii") as fh:
        json.dump(ref, fh, indent=None, separators=(",", ":"), sort_keys=True)
        fh.write("\n")
    with open(run.ROOT / "BENCHMARK.json", "w", encoding="ascii") as fh:
        json.dump(benchmark_json(), fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
