"""Tests of the benchmark's own logic (not of the package it measures)."""

from __future__ import annotations

import itertools
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from layers import PER_LAYER_UNITS
from spans import Tracer, self_times, totals
from worker import (
    CAL_REF_S,
    WORKLOADS,
    fail_frac,
    on_grid_index,
    rank_and_regret,
    run_calls,
    to_reference,
)

HERE = Path(__file__).resolve().parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

OPTIMUM_BATCH = 61.997552488659736
OPTIMUM_SINGLE = 61.99755248867308  # same point, single-run path


def test_rank_and_regret_locate_the_incumbent_by_grid_point():
    table = [62.5, OPTIMUM_BATCH, 70.0, 563.5]
    assert OPTIMUM_SINGLE != OPTIMUM_BATCH
    # by cost, the optimum would rank below its own table entry
    assert sum(c < OPTIMUM_SINGLE for c in table) == 1
    assert rank_and_regret(table, 1) == (0, 0.0)
    rank, regret = rank_and_regret(table, 3)
    assert rank == 3
    assert regret == pytest.approx((563.5 - OPTIMUM_BATCH) / OPTIMUM_BATCH)
    # ties with the incumbent are not counted as better
    assert rank_and_regret([5.0, 5.0, 7.0], 1) == (0, 0.0)


def test_self_time_subtracts_children_including_generator_spans():
    clock = itertools.count()  # every reading advances one unit
    t = Tracer(clock=lambda: float(next(clock)))

    def produce():
        yield "a"
        yield "b"

    traced = t.wrap_generator(produce, "gen")
    seen = []
    with t.span("outer"):
        with t.span("inner"):
            pass
        for item in traced():
            with t.span("consumer"):
                seen.append(item)

    assert seen == ["a", "b"]
    names = [s[0] for s in t.spans]
    # two items plus the final, empty next()
    assert names == ["outer", "inner", "gen", "consumer", "gen", "consumer", "gen"]
    # the consumer's work runs between items, so it is never a child of gen
    assert [s[3] for s in t.spans] == [-1, 0, 0, 0, 0, 0, 0]
    selfs = self_times(t.spans)
    assert selfs == [13.0 - 6.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]
    assert totals(t.spans, "gen") == (3, 3.0, 3.0)
    assert totals(t.spans, "outer") == (1, 13.0, 7.0)


def test_wrap_times_the_call_and_observes_outside_the_span():
    clock = itertools.count()
    t = Tracer(clock=lambda: float(next(clock)))
    seen = []

    def work(x):
        with t.span("child"):
            return 2 * x

    traced = t.wrap(work, "parent", after=lambda a, k, r: seen.append((a, r)))
    assert traced(4) == 8
    assert seen == [((4,), 8)]
    assert self_times(t.spans) == [2.0, 1.0]


def test_metric_and_workload_names_follow_the_grammar():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    for name in names + list(run.QUALITY_UNITS):
        assert NAME.fullmatch(name), name
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert declared == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.fullmatch(m["unit"]), m
        assert m["better"] in ("lower", "higher")
    for m in spec["end_to_end"]:
        assert 0.0 < m["bound"] <= 0.25
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_a_failing_cli_call_counts_in_fail_frac(tmp_path):
    def fake_main(argv):
        kind = argv[0]
        if kind == "ok":
            return 0
        if kind == "usage":
            return 2
        if kind == "argparse":
            raise SystemExit(2)
        raise RuntimeError("boom")

    calls = [["ok"], ["usage"], ["argparse"], ["crash"], ["ok"]]
    outs = [tmp_path / f"call{i}" for i in range(len(calls))]
    results = run_calls(fake_main, calls, outs, tmp_path / "cli.log")
    assert [r["rc"] for r in results] == [0, 2, 2, None, 0]
    assert results[3]["error"] == "RuntimeError: boom"
    assert results[0]["argv"] == ["ok", "--out", str(outs[0])]
    assert fail_frac(results) == 3 / 5


def test_times_scale_by_the_calibration_loops_around_them(tmp_path):
    # a host twice as slow as the reference halves the reported time
    assert to_reference(10.0, 2 * CAL_REF_S, 2 * CAL_REF_S) == 5.0
    assert to_reference(10.0, CAL_REF_S, 3 * CAL_REF_S) == 5.0
    cals = iter([0.3, 0.4])
    results = run_calls(lambda argv: 0, [["a"], ["b"]],
                        [tmp_path / "a", tmp_path / "b"], tmp_path / "cli.log",
                        after=lambda: next(cals))
    assert [r["cal_s"] for r in results] == [0.3, 0.4]


def test_incumbent_lookup_inverts_the_reset_time_axis():
    from axistune.presets import FEASIBLE_PRESETS

    fset = FEASIBLE_PRESETS["plc"]
    flat = 1234
    gains = [float(v) for v in fset.canonical(fset.point_at(flat))[0]]
    assert on_grid_index(fset, gains) == flat
    kp, kv, ki = gains
    assert on_grid_index(fset, [kp, kv, ki * (1.0 + 1e-15)]) is None
    assert on_grid_index(fset, [kp * 1.5, kv, ki]) is None


def test_without_the_package_source_the_run_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "desk-grid",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    assert not (tmp_path / ".perfbench_work").exists()
