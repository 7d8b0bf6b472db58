#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the brickforge batch pipeline.

    python3 perfbench/run.py --workload fibre-deep --seed 1 --seconds 34 --trace 0
    python3 perfbench/run.py                   # every workload
    python3 perfbench/run.py --smoke --seconds 0.3

Run it from the root of a checkout.  Every command goes through
``brickforge.cli.main`` inside this one fresh process, against stores under
``.bench_build/perfbench`` in the checkout; nothing is installed or built.

Each workload is a closed loop with one client.  An iteration is a fixed
sequence of commands on a fresh copy of the workload's store, each command
starting when the previous one returns; iterations repeat while the next
one is expected to end within ``--seconds``, and at least one runs.  Timings
are medians over the iterations of the run.

* ``fibre-deep``: ``mw run`` (22,17) at seed height 80, K=3 on an empty
  store, then ``verify consistency``.  The group law, lifting and
  re-certification do nearly all the work.  The input does not depend on
  the seed, so the export is compared byte for byte with a recorded digest.
* ``fibre-sweep``: from the (22,17) K=2 store built in set-up, one ``mw run``
  at seed height 60, K=2 per fibre on 300 admissible fibres with m < 100,
  drawn from the seed and stratified by seed count.  Torsion, the naive
  search and the store round trip of every command dominate.  The final
  store is compared with a content digest composed from recorded per-fibre
  references, so it holds for any draw.
* ``factor-audit``: on the same 346-record store, ``factorize --budget 0.05
  --jobs 1`` and then every read command.  Factoring and its budget
  dominate.  The factor rows depend on the wall clock, so this workload
  checks validity (consistency and theorem verdicts), not a digest.

``--trace 0`` measures the end-to-end metrics with no instrumentation.  The
gated times, ``setup_s`` and ``wall_norm_s``, are rescaled to a reference
host speed sampled during the run (see ``SpeedProbe``); the raw times are
printed beside them.
``--trace 1`` runs each iteration twice on the same input, first plain and
then with the public functions of every layer wrapped (see ``spans.py``),
and reports per-layer metrics per traced iteration plus the tracing
overhead, traced minus plain wall time.  A failed command or output check is
counted, never fatal.  The last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

Without ``--workload`` every workload runs, untraced and traced, each in its
own process, and the run fails unless every metric is reported and no
command failed.  ``--smoke`` shrinks every workload to a few commands: a
fibre (44,9) at K=1, a 5-fibre sweep and a 10-record audit.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from spans import LAYERS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
REFERENCE = HERE / "reference.json"

RUN_SECONDS = 34
SETUP_REPEATS = 5
SWEEP_HEIGHT, SWEEP_K = 60, 2
AUDIT_BUDGET = "0.05"
READ_COMMANDS = (
    ("verify", "theorem"),
    ("verify", "consistency"),
    ("verify", "single-blocker"),
    ("verify", "perfect"),
    ("verify", "e1"),
    ("families", "build"),
    ("families", "classify"),
    ("report", "--what", "k-distribution"),
    ("report", "--what", "blockers"),
    ("report", "--what", "fibres"),
)
WORKLOADS = {
    "fibre-deep": "mw run (22,17) H=80 K=3 on an empty store, then verify consistency: "
                  "group law, lift and re-certification; export checked byte for byte",
    "fibre-sweep": "mw run H=60 K=2 on 300 fibres with m<100 drawn from the seed, over the (22,17) "
                   "K=2 store: torsion, naive search and the per-command store round trip",
    "factor-audit": "factorize --budget 0.05 --jobs 1, then every read command, on the "
                    "346-record store: ntkernel and its budget; checks validity, not a digest "
                    "(wall-clock rows)",
}


@dataclass(frozen=True)
class Scale:
    deep: tuple[int, int, int, int]            # m, n, seed height, K
    base: tuple[tuple[int, int, int, int], ...]  # mw runs that build the sweep/audit store
    sweep_fibres: int


FULL = Scale(deep=(22, 17, 80, 3), base=((22, 17, 80, 2),), sweep_fibres=300)
SMOKE = Scale(deep=(44, 9, 80, 1), base=((44, 9, 80, 2), (16, 11, 80, 2), (10, 1, 80, 1)),
              sweep_fibres=5)

# (name, unit, better, bound) measured with tracing off.  Only metrics that
# every workload measures, and that are never 0, can gate a change; the
# workload-specific ones in USER_METRICS are printed, not gated.  The raw
# times are printed too, but a shared host's speed moves them by 20-30%
# between runs, so setup_s and wall_norm_s are rescaled to a reference
# host speed (see SpeedProbe).
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("wall_norm_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

CLI_COMMANDS = ("mw_run", "factorize", "verify_theorem", "verify_consistency",
                "verify_single_blocker", "verify_perfect", "verify_e1",
                "families_build", "families_classify", "report")
_CALLS_SELF = (
    "ecq.add", "ecq.on_curve", "ecq.cubic_rhs", "ecq.torsion_subgroup", "ecq.count_points_mod_p",
    "fibration.lift_point", "fibration.tau", "ntkernel.is_square_rational",
    "master.is_master_hit", "master.master_norm", "master.f1", "master.edges",
    "mw.naive_quartic_search", "mw.enumerate_and_certify",
    "ntkernel.factor", "ntkernel.is_prime", "ntkernel.is_perfect_square",
    "blockers.verify_blocker_conjecture", "blockers.k_invariant", "blockers.verify_E1",
    "families.classify", "store.import_csv", "store.export_csv", "store.validate_consistency",
    "store.Store.insert_hit", "store.Store.set_factorization",
) + tuple(f"cli.{c}" for c in CLI_COMMANDS)
_CALLS_ONLY = ("ecq.neg", "ecq.halve", "fibration.phi", "fibration.build_fibre",
               "master.sigma_canonical", "blockers.is_strictly_semiscaled")
_SELF_ONLY = ("mw.seeds_from_hits", "families.build_tables")
# (name, unit, better) reported by the traced run, per traced iteration.
# Which end-to-end figure each layer should move, and where:
#   ecq group law, fibration.lift_point, mw enumeration -> mw_run_s,
#       candidates_per_s, hits_per_s on fibre-deep; not on factor-audit
#   ecq.torsion_subgroup, mw.naive_quartic_search, store import/export
#       -> sweep_cmd_p50_s, fibres_per_s on fibre-sweep
#   ntkernel -> factorize_s, f1_full_share, theorem_coverage on factor-audit;
#       not on fibre-deep
#   blockers, families, store reads -> audit_s on factor-audit
#   master -> hits_per_s, fibres_per_s on fibre-deep and fibre-sweep
#   cli (glue outside every wrapped layer) -> wall_s everywhere
PER_LAYER = (
    tuple((f"{fn}.calls", "count", "lower") for fn in _CALLS_SELF + _CALLS_ONLY)
    + tuple((f"{fn}.self_s", "s", "lower") for fn in _CALLS_SELF + _SELF_ONLY)
    + tuple((f"{layer}.self_s", "s", "lower") for layer in LAYERS)
    + (
        ("ecq.torsion_subgroup.lower_bound_only", "count", "lower"),
        ("fibration.lift_point.lifted", "count", "higher"),
        ("mw.enumerate_and_certify.candidates", "count", "lower"),
        ("mw.enumerate_and_certify.lifted", "count", "higher"),
        ("mw.enumerate_and_certify.certified", "count", "higher"),
        ("mw.enumerate_and_certify.skipped_large", "count", "lower"),
        ("mw.enumerate_and_certify.outputs", "count", "higher"),
        ("ntkernel.factor.full", "count", "higher"),
        ("ntkernel.factor.overrun_max_s", "s", "lower"),
        ("blockers.verify_blocker_conjecture.verified", "count", "higher"),
        ("blockers.verify_blocker_conjecture.violated", "count", "lower"),
        ("blockers.verify_blocker_conjecture.undecidable_partial", "count", "lower"),
        ("store.import_csv.bytes", "B", "lower"),
        ("store.export_csv.bytes", "B", "lower"),
        ("store.Store.insert_hit.created", "count", "higher"),
        ("trace.wall_s", "s", "lower"),
        ("trace.untraced_wall_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
        ("trace.spans", "count", "lower"),
    )
)


# ---------------------------------------------------------------------------
# host speed

PROBE_PERIOD = 0.2
PROBE_REFERENCE_S = 0.001


def probe_loop() -> int:
    """A fixed millisecond of the work the pipeline does: exact fractions,
    and integers printed to and parsed from decimal text."""
    x = Fraction(1, 3)
    for i in range(1, 90):
        x = (x * Fraction(i + 1, i + 2) + Fraction(1, i)) / 2
    text = ",".join(str(x.numerator * k) for k in range(1, 40))
    return sum(int(tok) for tok in text.split(","))


def probe_once() -> float:
    t0 = time.perf_counter()
    probe_loop()
    return time.perf_counter() - t0


class SpeedProbe:
    """Samples the host's speed while the measured commands run.

    On a shared host the same command takes 20-30% more or less time from
    one minute to the next, and a fixed loop moves with it.  A SIGALRM
    handler times probe_loop every PROBE_PERIOD seconds in the main thread,
    which costs about 0.5% of the run.  wall_norm_s rescales an iteration's
    CPU-bound commands to a host where probe_loop takes PROBE_REFERENCE_S,
    by the mean speed (reference / probe time) over the probes taken during
    that iteration.  A command that runs against a wall-clock budget
    (factorize) lasts as long as the clock says, so it counts at face value.
    """

    def __init__(self):
        self.samples: list[float] = []

    def _tick(self, signum, frame):
        self.samples.append(probe_once())

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD, PROBE_PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def speed_since(self, first: int) -> tuple[float, float]:
        """(median probe in ms, mean speed) over the samples from `first` on;
        with none yet, five probes taken now."""
        probes = self.samples[first:] or [probe_once() for _ in range(5)]
        return (1000 * statistics.median(probes),
                statistics.fmean(PROBE_REFERENCE_S / p for p in probes))

    def normalize(self, iterate):
        """Wraps an iteration so its row also holds probe_ms and wall_norm_s."""
        def run(i):
            first = len(self.samples)
            row = iterate(i)
            row["probe_ms"], speed = self.speed_since(first)
            budgeted = row.get("budget_s", 0.0)
            row["wall_norm_s"] = (row["wall_s"] - budgeted) * speed + budgeted
            return row
        return run


# ---------------------------------------------------------------------------
# running commands


@dataclass
class Result:
    argv: tuple
    rc: int | None
    out: str
    seconds: float
    failed: bool = False

    def field(self, key: str) -> int | None:
        """The integer after ``key=`` in the output, if present."""
        for token in self.out.replace("\n", " ").split(" "):
            if token.startswith(key + "="):
                try:
                    return int(token[len(key) + 1:])
                except ValueError:
                    return None
        return None


class Session:
    """Issues CLI commands, times them and counts commands that failed."""

    def __init__(self, tracer=None):
        from brickforge import cli
        self._main = cli.main
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run(self, argv, db) -> Result:
        self.attempted += 1
        out, err = io.StringIO(), io.StringIO()
        span = self.tracer.open("cli." + command_name(argv)) if self.tracer else None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self._main([*map(str, argv), "--db", str(db)])
        except Exception:  # a crash is one failed command, not the end of the run
            rc = None
            err.write(traceback.format_exc())
        seconds = time.perf_counter() - t0
        if span is not None:
            self.tracer.close(span)
        res = Result(tuple(argv), rc, out.getvalue(), seconds)
        self.expect(res, rc == 0, f"exit {rc}: {err.getvalue().strip()[-300:]}")
        return res

    def expect(self, res: Result, ok: bool, what: str) -> None:
        """Marks the command failed (once) when an output check does not hold."""
        if ok:
            return
        self.problems.append(f"{' '.join(map(str, res.argv))}: {what}")
        if not res.failed:
            res.failed = True
            self.failed += 1


def command_name(argv) -> str:
    words = [str(a) for a in argv[:2] if not str(a).startswith("-")]
    if words[0] in ("factorize", "report"):
        words = words[:1]
    return "_".join(words).replace("-", "_")


def mw_argv(m, n, height, K):
    return ("mw", "run", "--m", m, "--n", n, "--seed-height", height, "--K", K)


def sha256_file(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _row_hash(text: str) -> str:
    return hashlib.sha256(text.encode("ascii")).hexdigest()[:16]


def store_rows(db) -> tuple[list[int], list[str], list[str]]:
    """Ids, hit-row hashes and fibre-row hashes of an exported store.

    A hit row is hashed without its id and provenance, which depend on the
    order in which fibres were run; everything derived from the tuple stays.
    """
    ids, hits, fibres = [], [], []
    with open(os.path.join(db, "master_hits.csv"), encoding="ascii") as fh:
        next(fh)
        for line in fh:
            fields = line.rstrip("\n").split(",")
            ids.append(int(fields[0]))
            hits.append(_row_hash(",".join(fields[1:9] + fields[10:])))
    with open(os.path.join(db, "fibers.csv"), encoding="ascii") as fh:
        next(fh)
        fibres = [_row_hash(line.rstrip("\n")) for line in fh]
    return ids, hits, fibres


def content_digest(hits, fibres) -> str:
    text = "\n".join(sorted(hits)) + "\n#\n" + "\n".join(sorted(fibres))
    return hashlib.sha256(text.encode("ascii")).hexdigest()


# ---------------------------------------------------------------------------
# workloads: each iteration returns its per-iteration figures


def fresh_dir(work: Path, base: Path | None) -> Path:
    d = Path(tempfile.mkdtemp(dir=work))
    if base is not None:
        shutil.copytree(base, d, dirs_exist_ok=True)
    return d


def deep_iteration(s: Session, scale: Scale, want: dict, work: Path) -> dict:
    db = fresh_dir(work, None)
    mw = s.run(mw_argv(*scale.deep), db)
    for key in ("candidates", "certified", "inserted"):
        s.expect(mw, mw.field(key) == want[key], f"{key}={mw.field(key)}, want {want[key]}")
    if mw.rc == 0:
        digest = sha256_file(db / "master_hits.csv")
        s.expect(mw, digest == want["master_hits_sha256"], f"master_hits.csv sha256 {digest}")
    check = s.run(("verify", "consistency"), db)
    s.expect(check, check.field("violations") == 0, "violations reported")
    shutil.rmtree(db)
    return {
        "wall_s": mw.seconds + check.seconds,
        "mw_run_s": mw.seconds,
        "candidates_per_s": (mw.field("candidates") or 0) / mw.seconds,
        "hits_per_s": (mw.field("inserted") or 0) / mw.seconds,
    }


def sweep_draw(ref: dict, scale: Scale, seed: int, index: int) -> list[tuple[int, int]]:
    """Fibres for one iteration: the same number from each seed-count class
    every time, so draws differ in which fibres they hold, not in their mix."""
    base = {(m, n) for m, n, _, _ in scale.base}
    classes: dict[int, list[tuple[int, int]]] = {}
    for key, entry in sorted(ref["sweep"]["fibres"].items()):
        m, n = map(int, key.split(","))
        if (m, n) not in base:
            classes.setdefault(entry["seeds"], []).append((m, n))
    pool = sum(len(v) for v in classes.values())
    quota = {k: scale.sweep_fibres * len(v) // pool for k, v in classes.items()}
    # largest remainders fill up to the target count
    rest = sorted(classes, key=lambda k: (-(scale.sweep_fibres * len(classes[k]) % pool), k))
    for k in rest[: scale.sweep_fibres - sum(quota.values())]:
        quota[k] += 1
    rng = random.Random(f"fibre-sweep/{seed}/{index}")
    picked = [f for k in sorted(classes) for f in rng.sample(classes[k], quota[k])]
    rng.shuffle(picked)
    return picked


def sweep_iteration(s: Session, ref: dict, work: Path, base: Path,
                    fibres: list[tuple[int, int]]) -> dict:
    db = fresh_dir(work, base)
    times, inserted, last = [], 0, None
    for m, n in fibres:
        last = s.run(mw_argv(m, n, SWEEP_HEIGHT, SWEEP_K), db)
        times.append(last.seconds)
        inserted += last.field("inserted") or 0
    table = ref["sweep"]["fibres"]
    want_hits = set(ref["base"]["hits"])
    want_fibres = set(ref["base"]["fibres"])
    for m, n in fibres:
        want_hits.update(table[f"{m},{n}"]["hits"])
        want_fibres.add(table[f"{m},{n}"]["fibre"])
    ids, hits, fibre_rows = store_rows(db)
    s.expect(last, ids == list(range(1, len(ids) + 1)), "hit ids are not 1..N")
    s.expect(last, content_digest(hits, fibre_rows) == content_digest(want_hits, want_fibres),
             "final store differs from the recorded per-fibre references")
    shutil.rmtree(db)
    mw_s = sum(times)
    return {
        "wall_s": mw_s,
        "hits_per_s": inserted / mw_s,
        "fibres_per_s": len(fibres) / mw_s,
        "sweep_cmd_s": times,
    }


def audit_iteration(s: Session, work: Path, base: Path, records: int) -> dict:
    db = fresh_dir(work, base)
    fact = s.run(("factorize", "--budget", AUDIT_BUDGET, "--jobs", "1"), db)
    s.expect(fact, fact.field("factored") == records, f"factored={fact.field('factored')}")
    reads = {}
    for argv in READ_COMMANDS:
        reads[argv] = s.run(argv, db)
    theorem = reads[("verify", "theorem")]
    s.expect(theorem, theorem.field("violated") == 0, "violated records")
    s.expect(theorem, theorem.field("verified") == fact.field("full"),
             "verified count differs from the full factorizations")
    consistency = reads[("verify", "consistency")]
    s.expect(consistency, consistency.field("violations") == 0, "violations reported")
    shutil.rmtree(db)
    audit_s = sum(r.seconds for r in reads.values())
    decided = (theorem.field("verified") or 0) + (theorem.field("violated") or 0)
    return {
        "wall_s": fact.seconds + audit_s,
        "budget_s": fact.seconds,
        "factorize_s": fact.seconds,
        "f1_full_share": (fact.field("full") or 0) / records,
        "theorem_coverage": decided / records,
        "audit_s": audit_s,
    }


# ---------------------------------------------------------------------------
# set-up


def setup(s: Session, workload: str, scale: Scale, ref: dict, work: Path):
    """One set-up: a fresh interpreter importing the package, a store
    directory and, for the sweep and the audit, the base store."""
    t0 = time.perf_counter()
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, "-c", "import brickforge.cli"], env=env, check=True,
                   cwd=ROOT)
    db = fresh_dir(work, None)
    if workload != "fibre-deep":
        res = None
        for fibre in scale.base:
            res = s.run(mw_argv(*fibre), db)
        ids, hits, fibres = store_rows(db)
        want = ref["base"]
        s.expect(res, len(ids) == want["records"], f"{len(ids)} records, want {want['records']}")
        s.expect(res, content_digest(hits, fibres) == content_digest(want["hits"], want["fibres"]),
                 "base store differs from its reference")
    return time.perf_counter() - t0, db


# ---------------------------------------------------------------------------
# statistics and output


def percentile(values: list[float], p: int) -> tuple[float, int]:
    """Nearest-rank p-th percentile and the number of samples beyond it."""
    xs = sorted(values)
    rank = max(1, -(-len(xs) * p // 100))
    return xs[rank - 1], len(xs) - rank


def tail(values: list[float]):
    """(p, value) for the highest of p99/p95/p90/p75/p50 with at least ten
    samples beyond it, else None."""
    for p in (99, 95, 90, 75, 50):
        value, beyond = percentile(values, p)
        if beyond >= 10:
            return p, value
    return None


def describe(name: str, values: list[float], unit: str) -> str:
    text = f"{name} = {statistics.median(values):.6g} {unit} (median, n={len(values)}"
    t = tail(values)
    if t is not None:
        text += f"; p{t[0]} = {t[1]:.6g}"
    return text + ")"


# what a user of the pipeline sees; each workload measures the ones that
# apply to it, and the ones measured on every workload go into BENCHMARK.json
USER_METRICS = (
    ("setup_raw_s", "s"), ("setup_s", "s"), ("wall_s", "s"), ("wall_norm_s", "s"),
    ("probe_ms", "ms"), ("mw_run_s", "s"), ("candidates_per_s", "1/s"),
    ("hits_per_s", "1/s"), ("sweep_cmd_p50_s", "s"), ("sweep_cmd_p95_s", "s"),
    ("fibres_per_s", "1/s"), ("factorize_s", "s"), ("f1_full_share", "ratio"),
    ("theorem_coverage", "ratio"), ("audit_s", "s"), ("peak_rss_mb", "MB"),
    ("failed_share", "ratio"),
)


def print_user_metrics(rows: list[dict], setups: list[float], setup_speed: float,
                       rss_mb: float, s) -> None:
    series = {"setup_raw_s": setups, "setup_s": [t * setup_speed for t in setups]}
    series.update((key, [r[key] for r in rows]) for key in rows[0]
                  if key not in ("sweep_cmd_s", "budget_s"))
    commands = [t for r in rows for t in r.get("sweep_cmd_s", ())]
    for name, unit in USER_METRICS:
        if name in series:
            print(describe(name, series[name], unit))
        elif name.startswith("sweep_cmd_") and commands:
            value, beyond = percentile(commands, int(name[len("sweep_cmd_p"):-2]))
            print(f"{name} = {value:.6g} s (n={len(commands)}, {beyond} beyond)")
        elif name == "peak_rss_mb":
            print(f"peak_rss_mb = {rss_mb:.6g} MB (whole run)")
        elif name == "failed_share":
            print(f"failed_share = {s.failed / s.attempted:.6g} ratio "
                  f"({s.failed} of {s.attempted} commands)")
        else:
            print(f"{name}: not measured on this workload")


def closed_loop(iterate, seconds: float) -> list[dict]:
    """Iterations back to back for `seconds`: one more starts only while the
    mean iteration so far still fits in the time left.  At least one runs."""
    rows: list[dict] = []
    t0 = time.perf_counter()
    while True:
        rows.append(iterate(len(rows)))
        elapsed = time.perf_counter() - t0
        if elapsed + elapsed / len(rows) > seconds:
            return rows


def per_layer(tracer: Tracer, rows: list[dict]) -> dict:
    """Medians over the traced iterations; rows pair each traced iteration
    with the untraced one run just before it on the same input."""
    times = tracer.self_times()
    values: dict[str, list[float]] = {name: [] for name, _, _ in PER_LAYER}
    for run, row in enumerate(rows):
        spans = times.get(run, {})
        counts = tracer.counts.get(run, {})
        maxima = tracer.maxima.get(run, {})
        layer_self = dict.fromkeys(LAYERS, 0.0)
        for name, (_, self_s) in spans.items():
            layer_self[name.split(".")[0]] += self_s
        for name in values:
            fn, _, what = name.rpartition(".")
            if fn == "trace":
                continue
            if what == "calls":
                v = spans.get(fn, (0, 0.0))[0]
            elif what == "self_s" and fn in LAYERS:
                v = layer_self[fn]
            elif what == "self_s":
                v = spans.get(fn, (0, 0.0))[1]
            elif name in maxima:
                v = maxima[name]
            else:
                v = counts.get(name, 0)
            values[name].append(v)
        values["trace.wall_s"].append(row["traced"])
        values["trace.untraced_wall_s"].append(row["untraced"])
        values["trace.overhead_s"].append(row["traced"] - row["untraced"])
        values["trace.spans"].append(sum(c for c, _ in spans.values()))
    return {name: statistics.median(v) for name, v in values.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS),
                    help="default: every workload, traced and untraced, each in its own process")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="run at a tiny scale")
    args = ap.parse_args(argv)
    if not (SRC / "brickforge" / "cli.py").is_file() or not REFERENCE.is_file():
        print(f"error: no brickforge sources or reference data under {ROOT}", file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(args)
    sys.path.insert(0, str(SRC))
    with open(REFERENCE, encoding="ascii") as fh:
        ref = json.load(fh)
    if args.smoke:
        ref = dict(ref, deep=ref["smoke_deep"], base=ref["smoke_base"])
    scale = SMOKE if args.smoke else FULL
    WORK.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK))
    try:
        return run_workload(args, scale, ref, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run_workload(args, scale: Scale, ref: dict, work: Path) -> int:
    s = Session()
    setups, base = [], None
    with SpeedProbe() as probe:
        for _ in range(SETUP_REPEATS):
            if base is not None:
                shutil.rmtree(base)
            seconds, base = setup(s, args.workload, scale, ref, work)
            setups.append(seconds)
        setup_speed = probe.speed_since(0)[1]
    iterate = {
        "fibre-deep": lambda i: deep_iteration(s, scale, ref["deep"], work),
        "fibre-sweep": lambda i: sweep_iteration(
            s, ref, work, base, sweep_draw(ref, scale, args.seed, i)),
        "factor-audit": lambda i: audit_iteration(s, work, base, ref["base"]["records"]),
    }[args.workload]

    if args.trace:
        tracer = Tracer()

        def traced_pair(i):
            untraced = iterate(i)["wall_s"]
            tracer.run_id = i
            s.tracer = tracer
            tracer.install()
            try:
                traced = iterate(i)["wall_s"]
            finally:
                tracer.uninstall()
                s.tracer = None
            return {"untraced": untraced, "traced": traced}

        rows = closed_loop(traced_pair, args.seconds)
        metrics = per_layer(tracer, rows)
        tracer.write(WORK / f"spans-{args.workload}.tsv")
        units = {name: unit for name, unit, _ in PER_LAYER}
        ranked = sorted(((v, k) for k, v in metrics.items()
                         if k.endswith(".self_s") and k.count(".") >= 2), reverse=True)
        for v, k in ranked[:12]:
            print(f"{k} = {v:.6g} s ({v / metrics['trace.wall_s']:.1%} of traced wall)")
        print(f"trace.overhead_s = {metrics['trace.overhead_s']:.6g} s (traced wall "
              f"{metrics['trace.wall_s']:.6g} s, "
              f"untraced {metrics['trace.untraced_wall_s']:.6g} s)")
    else:
        with SpeedProbe() as speed:
            rows = closed_loop(speed.normalize(iterate), args.seconds)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {
            "setup_s": statistics.median(setups) * setup_speed,
            "wall_norm_s": statistics.median(r["wall_norm_s"] for r in rows),
            "peak_rss_mb": rss_mb,
        }
        units = {name: unit for name, unit, _, _ in END_TO_END}
        print_user_metrics(rows, setups, setup_speed, rss_mb, s)
    for line in s.problems[:20]:
        print(f"FAILED {line}")
    print(json.dumps({
        "correct": s.failed == 0,
        "attempted": s.attempted,
        "failed": s.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload, untraced and traced, each in a fresh process: relays
    their metrics and fails unless every metric is reported and no command
    failed.  With --smoke this is the benchmark's own smoke test."""
    bad = []
    for workload in WORKLOADS:
        for trace, names in ((0, [n for n, *_ in END_TO_END]), (1, [n for n, *_ in PER_LAYER])):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            if args.smoke:
                cmd.append("--smoke")
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            for line in lines[:-1]:
                print(f"[{workload} trace={trace}] {line}")
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                bad.append(f"{workload} trace={trace}: no result, exit {proc.returncode}\n"
                           f"{proc.stderr[-2000:]}")
                continue
            missing = sorted(set(names) - set(result["metrics"]))
            extra = sorted(set(result["metrics"]) - set(names))
            if proc.returncode or missing or extra or result["failed"]:
                bad.append(f"{workload} trace={trace}: exit {proc.returncode}, missing {missing}, "
                           f"extra {extra}, failed {result['failed']}")
    for line in bad:
        print(f"FAILED {line}", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
