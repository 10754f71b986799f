"""Tests of the benchmark itself (not of the program it measures)."""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import checks, layers, run

ROOT = Path(__file__).resolve().parents[1]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


class FakeClock:
    """A clock the test advances by hand."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_folds_nested_calls_into_the_innermost_layer():
    fake = FakeClock()
    clock = layers.LayerClock(clock=fake)

    def leaf():
        fake.now += 2.0
        return [1, 2, 3]

    wrapped_leaf = clock.wrap("store.get", leaf, (("store.hits", layers._one),))

    def middle():
        fake.now += 1.0
        wrapped_leaf()
        fake.now += 0.5
        wrapped_leaf()

    wrapped_middle = clock.wrap("experiments.context", middle)

    def outer():
        fake.now += 3.0
        wrapped_middle()
        # Re-entering a layer already open further up the stack.
        clock.wrap("experiments.context", lambda: setattr(fake, "now", fake.now + 0.25))()

    clock.wrap("cli.main", outer)()
    assert clock.self_s == {"cli.main": 3.0, "experiments.context": 1.75, "store.get": 4.0}
    assert sum(clock.self_s.values()) == fake.now
    assert clock.counts == {"store.hits": 2}
    assert clock.snapshot() == {
        "cli.main_s": 3.0,
        "experiments.context_s": 1.75,
        "store.get_s": 4.0,
        "store.hits": 2,
    }


def test_self_time_is_recorded_when_the_call_raises():
    fake = FakeClock()
    clock = layers.LayerClock(clock=fake)

    def failing():
        fake.now += 1.0
        raise ValueError("boom")

    with pytest.raises(ValueError):
        clock.wrap("store.put", failing)()
    assert clock.self_s == {"store.put": 1.0}


def test_metric_names_and_units_are_well_formed():
    metrics = BENCH["end_to_end"] + BENCH["per_layer"]
    names = [metric["name"] for metric in metrics]
    assert len(names) == len(set(names))
    for metric in metrics:
        assert NAME.fullmatch(metric["name"]), metric["name"]
        assert UNIT.fullmatch(metric["unit"]), metric["unit"]
        assert metric["better"] in ("lower", "higher")


def test_every_printed_metric_is_declared_with_unit_direction_and_bound():
    declared_e2e = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    declared_layer = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert dict(run.END_TO_END) == declared_e2e
    assert dict(layers.layer_metrics()) == declared_layer
    for metric in BENCH["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
    for metric in BENCH["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    assert sorted(w["name"] for w in BENCH["workloads"]) == sorted(run.WORKLOADS)

    rep = run.Rep(wall_s=2.0, cpu_s=3.0, rss_mb=10.0, attempted=1)
    assert set(run.end_to_end_metrics(0.5, [rep])) == set(declared_e2e)
    traced = run.Rep(wall_s=2.0, attempted=1, layers={"cli.main_s": 0.5, "store.hits": 3})
    split = run.layer_split([traced])
    assert set(split) == set(declared_layer)
    assert split["store.hits"] == 3
    assert split["trace.unattributed_s"] == pytest.approx(1.5)


def test_result_line_reports_attempted_and_failed_counts():
    reps = [run.Rep(wall_s=1.0, attempted=10, failed=1), run.Rep(wall_s=1.5, attempted=10)]
    metrics = run.end_to_end_metrics(0.25, reps)
    line = json.loads(run.result_line(True, reps, metrics, dict(run.END_TO_END)))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert (line["correct"], line["attempted"], line["failed"]) == (True, 20, 1)
    assert line["metrics"]["wall_s"] == {"value": 1.25, "unit": "s"}


def test_plain_python_recomputations():
    subscribers = [1, 1, 1, 2, 2, 3]
    ips = ["a", "b", "c", "a", "x", "b"]
    assert checks.scanner_lines(subscribers, ips, {"a", "b", "c"}, 2) == {1}
    assert checks.scanner_lines(subscribers, ips, {"a", "b", "c"}, 3) == set()
    shares = checks.continent_shares(["EU", "NA", "EU"], [1.0, 2.0, 3.0], [1.0, 0.0, 1.0])
    assert shares == {"EU": 0.75, "NA": 0.25}


def test_traced_command_prints_the_untraced_output(tmp_path):
    env = run.child_env()
    args = ["patterns", "--small"]
    plain = subprocess.run(
        [sys.executable, "-m", "repro.cli", *args], cwd=ROOT, env=env, capture_output=True,
        check=True,
    )
    trace = tmp_path / "trace.json"
    traced = subprocess.run(
        [sys.executable, run.CHILD, "cli", "--trace", str(trace), "--", *args],
        cwd=ROOT, env=env, capture_output=True, check=True,
    )
    assert traced.stdout == plain.stdout
    stats = json.loads(trace.read_text(encoding="utf-8"))
    assert "simulation.build_world_calls" in stats
    assert stats["experiments.patterns_s"] > 0
    assert stats["cli.main_s"] > 0


def test_run_fails_without_the_program_source(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-cold", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
