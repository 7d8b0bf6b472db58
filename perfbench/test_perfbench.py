"""Tests of the benchmark itself: python3 -m pytest perfbench"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import make_reference
import run
from spans import Tracer


def test_benchmark_json_matches_the_metric_definitions():
    with open(run.ROOT / "BENCHMARK.json", encoding="ascii") as fh:
        assert json.load(fh) == make_reference.benchmark_json()


def test_self_time_subtracts_covered_child_time():
    tr = Tracer()
    outer = tr.open("a.outer")
    inner = tr.open("a.inner")
    tr.close(inner)
    tr.close(outer)
    tr.start[outer], tr.end[outer] = 0, 100
    tr.start[inner], tr.end[inner] = 10, 40
    times = tr.self_times()[0]
    assert times["a.outer"] == (1, 70e-9)
    assert times["a.inner"] == (1, 30e-9)


def test_wrappers_replace_every_binding_and_restore_it():
    sys.path.insert(0, str(run.SRC))
    from brickforge import ecq, mw
    original = ecq.add
    tr = Tracer()
    tr.install()
    try:
        assert ecq.add is not original and mw.add is ecq.add
    finally:
        tr.uninstall()
    assert ecq.add is original and mw.add is original


def test_tail_needs_ten_samples_beyond():
    assert run.tail(list(range(19))) is None
    assert run.tail(list(range(20)))[0] == 50
    assert run.tail(list(range(1, 201)))[0] == 95


def test_smoke_reports_every_metric_without_failures():
    proc = subprocess.run([sys.executable, str(Path(run.__file__)), "--smoke", "--seconds", "0.3"],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
