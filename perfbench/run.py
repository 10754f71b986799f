"""End-to-end benchmark of the IoT-backend reproduction.

    python3 perfbench/run.py --workload paper-cold --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout.  Each workload is set up once, then
repeated back to back, each repetition in fresh processes, until ``--seconds``
of repetitions have run; every repetition's output is checked.  The last line
of stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and the
metrics -- the end-to-end metrics with ``--trace 0``, the per-layer split
(see ``layers.py``) with ``--trace 1``.  Progress goes to stderr.

Workloads (``--seed`` is the scenario seed):

* ``paper-cold``: one process runs all ten experiment commands against an
  empty artifact store.
* ``commands-warm``: each of the ten commands as its own
  ``python3 -m repro.cli <cmd> --store DIR`` process against a store filled
  during set-up; every stdout must equal the set-up's cold output.
* ``sweep-small``: one ``sweep`` over six ``--small`` scenarios, two worker
  processes, no store.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from perfbench import layers  # noqa: E402
from perfbench.child import COMMANDS  # noqa: E402

CHILD = str(ROOT / "perfbench" / "child.py")

#: End-to-end metrics printed with ``--trace 0``, as (name, unit).
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"))

#: Worker processes of the sweep workload (the reference host has 2 CPUs).
SWEEP_WORKERS = 2

#: A child still running this long after the benchmark started is killed and
#: counted as failed, so that a hung program cannot keep a run from ending.
RUN_LIMIT_S = 170.0
_STARTED = time.perf_counter()

#: Set-up repetitions whose median is ``setup_s``, where set-up is cheap.  A
#: slow phase of the host lasts seconds, so the probes span several seconds.
SETUP_REPEATS = 21


class SetupError(RuntimeError):
    """Set-up failed; the run ends without a result."""


@dataclass
class Measured:
    """Wall, CPU and peak RSS of one finished child process (and its children)."""

    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int
    started: float
    ended: float


@dataclass
class Rep:
    """One repetition of a workload."""

    wall_s: float = 0.0
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    #: What the repetition printed, by command or scenario (None if it crashed).
    outputs: Optional[Dict[str, object]] = None
    layers: Dict[str, float] = field(default_factory=dict)
    #: Files the checks read after the timed region (store, outputs, ledger).
    files: Dict[str, Path] = field(default_factory=dict)

    def add(self, measured: Measured) -> None:
        self.cpu_s += measured.cpu_s
        self.rss_mb = max(self.rss_mb, measured.rss_mb)

    def add_layers(self, trace_path: Path, measured: Measured) -> None:
        """Add one traced process's layer metrics and its interpreter start-up and exit."""
        stats = json.loads(trace_path.read_text(encoding="utf-8"))
        stats["process.startup_s"] = stats.pop("process.start") - measured.started
        stats["process.exit_s"] = measured.ended - stats.pop("process.end")
        for name, value in stats.items():
            self.layers[name] = self.layers.get(name, 0) + value


def child_env() -> Dict[str, str]:
    """The environment of every child: this checkout's ``src`` and no store/kernel overrides."""
    env = {key: value for key, value in os.environ.items() if not key.startswith("IOT_REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_process(argv: Sequence[str], stdout: Path) -> Measured:
    """Run one child to completion; rusage comes from ``wait4`` on that child.

    ``wait4`` folds in the descendants the child reaped, so a sweep's pool
    workers count towards its CPU time and peak RSS.
    """
    stderr = stdout.with_suffix(".err")
    with stdout.open("wb") as out, stderr.open("wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(list(argv), cwd=ROOT, env=child_env(), stdout=out, stderr=err)
        timer = threading.Timer(RUN_LIMIT_S - (start - _STARTED), proc.kill)
        timer.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        end = time.perf_counter()
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    if code != 0:
        tail = stderr.read_text(encoding="utf-8", errors="replace")[-2000:]
        print(f"[perfbench] {' '.join(argv[1:4])} exited {code}:\n{tail}", file=sys.stderr)
    cpu = usage.ru_utime + usage.ru_stime
    return Measured(end - start, cpu, usage.ru_maxrss / 1024.0, code, start, end)


def timed_loop(seconds: float, rep: Callable[[], Rep]) -> List[Rep]:
    """Repeat until the repetitions' wall time reaches ``seconds`` (at least once)."""
    reps = [rep()]
    while sum(r.wall_s for r in reps) < seconds:
        reps.append(rep())
    return reps


class Workload:
    """Set-up, one repetition and the checks of one workload."""

    name = ""

    def __init__(self, seed: int, work: Path) -> None:
        self.seed = seed
        self.work = work
        self._count = 0
        self.problems: List[str] = []

    def path(self, stem: str) -> Path:
        self._count += 1
        return self.work / f"{self._count:04d}-{stem}"

    def import_probe(self, modules: str) -> float:
        """Median wall time of fresh processes importing the program."""
        times = []
        for _ in range(SETUP_REPEATS):
            measured = run_process([sys.executable, "-c", f"import {modules}"], self.path("probe"))
            if measured.code != 0:
                raise SetupError(f"importing {modules} failed")
            times.append(measured.wall_s)
        return statistics.median(times)

    def setup(self) -> float:
        raise NotImplementedError

    def rep(self, traced: bool) -> Rep:
        raise NotImplementedError

    def same_outputs(self, reference: Rep, other: Rep) -> None:
        """Every output both repetitions produced must be identical."""
        if reference.outputs is None or other.outputs is None:
            return
        for key in sorted(reference.outputs.keys() & other.outputs.keys()):
            if reference.outputs[key] != other.outputs[key]:
                self.problems.append(f"{self.name}: {key} differs between repetitions")

    def check(self, reference: Rep) -> None:
        """Independent checks of the first repetition, outside the timed region."""

    def cleanup(self, rep: Rep) -> None:
        """Drop what a repetition left that later checks do not need."""


class PaperCold(Workload):
    """All ten experiment commands in one fresh process, against an empty store."""

    name = "paper-cold"

    def setup(self) -> float:
        return self.import_probe("repro.cli")

    def rep(self, traced: bool) -> Rep:
        store = self.path("store")
        out = self.path("outputs.json")
        trace = self.path("trace.json")
        argv = [sys.executable, CHILD, "paper", "--seed", str(self.seed)]
        argv += ["--store", str(store), "--out", str(out)]
        if traced:
            argv += ["--trace", str(trace)]
        measured = run_process(argv, self.path("stdout"))
        rep = Rep(wall_s=measured.wall_s, attempted=1)
        rep.add(measured)
        rep.files["store"] = store
        if measured.code != 0:
            rep.failed = 1
            return rep
        rep.outputs = json.loads(out.read_text(encoding="utf-8"))
        rep.files["outputs"] = out
        if traced:
            rep.add_layers(trace, measured)
        return rep

    def cleanup(self, rep: Rep) -> None:
        shutil.rmtree(rep.files["store"], ignore_errors=True)

    def check(self, reference: Rep) -> None:
        report_file = self.path("check")
        argv = [sys.executable, CHILD, "check-paper", "--seed", str(self.seed)]
        argv += ["--store", str(reference.files["store"])]
        argv += ["--outputs", str(reference.files["outputs"])]
        if run_process(argv, report_file).code != 0:
            self.problems.append("paper-cold: the check process failed")
            return
        report = json.loads(report_file.read_text(encoding="utf-8"))
        print(
            f"[perfbench] paper-cold check: scanners={report['scanner_lines']} "
            f"recall={report['recall']} figure14={report['figure14']}",
            file=sys.stderr,
        )
        self.problems.extend(report["problems"])


class CommandsWarm(Workload):
    """Each experiment command as its own CLI process against a filled store."""

    name = "commands-warm"

    def setup(self) -> float:
        self.store = self.work / "store"
        out = self.path("cold.json")
        argv = [sys.executable, CHILD, "paper", "--seed", str(self.seed)]
        argv += ["--store", str(self.store), "--out", str(out)]
        measured = run_process(argv, self.path("stdout"))
        if measured.code != 0:
            raise SetupError("the cold run that fills the store failed")
        self.cold = {
            command: text.encode("utf-8")
            for command, text in json.loads(out.read_text(encoding="utf-8")).items()
        }
        return measured.wall_s

    def rep(self, traced: bool) -> Rep:
        rep = Rep(attempted=len(COMMANDS), outputs={})
        start = time.perf_counter()
        for command in COMMANDS:
            cli_args = [command, "--seed", str(self.seed), "--store", str(self.store)]
            trace = self.path(f"{command}.trace.json")
            if traced:
                argv = [sys.executable, CHILD, "cli", "--trace", str(trace), "--", *cli_args]
            else:
                argv = [sys.executable, "-m", "repro.cli", *cli_args]
            stdout = self.path(f"{command}.stdout")
            measured = run_process(argv, stdout)
            rep.add(measured)
            if measured.code != 0:
                rep.failed += 1
                continue
            if traced:
                rep.add_layers(trace, measured)
            # The store is a cache: a warm command must print its cold output.
            rep.outputs[command] = stdout.read_bytes()
            if rep.outputs[command] != self.cold[command]:
                rep.failed += 1
                print(f"[perfbench] {command}: warm output differs from cold", file=sys.stderr)
        rep.wall_s = time.perf_counter() - start
        return rep


class SweepSmall(Workload):
    """One sweep over six small scenarios with two worker processes."""

    name = "sweep-small"
    metrics = "traffic,discovery,outage"

    def __init__(self, seed: int, work: Path) -> None:
        super().__init__(seed, work)
        seeds = ",".join(str(3 * seed + offset) for offset in range(3))
        self.axes = ["--axis", f"seed={seeds}", "--axis", "sampling_ratio=1,10"]
        self.scenarios = 6

    def setup(self) -> float:
        return self.import_probe("repro.cli, repro.sweeps")

    def rep(self, traced: bool) -> Rep:
        ledger = self.path("ledger.jsonl")
        trace = self.path("trace.json")
        sweep_args = ["sweep", "--small", "--seed", str(self.seed), *self.axes]
        sweep_args += ["--metrics", self.metrics, "--ledger", str(ledger)]
        if traced:
            # One worker keeps every scenario in the traced process.
            argv = [sys.executable, CHILD, "cli", "--trace", str(trace), "--"]
            argv += [*sweep_args, "--workers", "1"]
        else:
            argv = [sys.executable, "-m", "repro.cli", *sweep_args]
            argv += ["--workers", str(SWEEP_WORKERS)]
        measured = run_process(argv, self.path("stdout"))
        rep = Rep(wall_s=measured.wall_s, attempted=self.scenarios)
        rep.add(measured)
        rows = []
        if ledger.exists():
            rows = [json.loads(line) for line in ledger.read_text(encoding="utf-8").splitlines()]
        ok = [row for row in rows if row["status"] == "ok"]
        rep.failed = self.scenarios - len(ok)
        rep.files["ledger"] = ledger
        # The ledger fields every run must reproduce (timing and placement excluded).
        rep.outputs = {
            row["scenario_id"]: {key: row[key] for key in ("axes", "config_digest", "metrics")}
            for row in ok
        }
        if traced and measured.code == 0:
            rep.add_layers(trace, measured)
        return rep

    def check(self, reference: Rep) -> None:
        if not reference.outputs:
            return
        picked = random.Random(self.seed).choice(sorted(reference.outputs))
        scenario = {"base_seed": self.seed, "scenario_id": picked}
        report_file = self.path("check")
        argv = [sys.executable, CHILD, "check-sweep", "--ledger", str(reference.files["ledger"])]
        argv += ["--scenario", json.dumps(scenario)]
        if run_process(argv, report_file).code != 0:
            self.problems.append("sweep-small: the check process failed")
            return
        report = json.loads(report_file.read_text(encoding="utf-8"))
        print(f"[perfbench] sweep-small check of {report['scenario']}", file=sys.stderr)
        self.problems.extend(report["problems"])


WORKLOADS = {cls.name: cls for cls in (PaperCold, CommandsWarm, SweepSmall)}


def end_to_end_metrics(setup_s: float, reps: Sequence[Rep]) -> Dict[str, float]:
    """Set-up time and the median of each repetition metric."""
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(r.wall_s for r in reps),
        "cpu_s": statistics.median(r.cpu_s for r in reps),
        "peak_rss_mb": statistics.median(r.rss_mb for r in reps),
    }


def layer_split(reps: Sequence[Rep]) -> Dict[str, float]:
    """Mean per-layer metrics of traced repetitions, every declared metric present."""
    units = dict(layers.layer_metrics())
    split: Dict[str, float] = {}
    for name, unit in units.items():
        values = [r.layers.get(name, 0) for r in reps]
        split[name] = statistics.fmean(values) if unit != "count" else values[0]
    split["trace.wall_s"] = statistics.fmean(r.wall_s for r in reps)
    explained = sum(
        value
        for name, value in split.items()
        if units[name] == "s" and name not in ("trace.wall_s", "trace.unattributed_s")
    )
    split["trace.unattributed_s"] = split["trace.wall_s"] - explained
    return split


def result_line(correct: bool, reps: Sequence[Rep], metrics: Dict[str, float], units) -> str:
    """The JSON result object the benchmark prints last."""
    return json.dumps(
        {
            "correct": correct,
            "attempted": sum(r.attempted for r in reps),
            "failed": sum(r.failed for r in reps),
            "metrics": {
                name: {"value": metrics[name], "unit": units[name]} for name in sorted(metrics)
            },
        }
    )


def run(workload: Workload, seconds: float, traced: bool) -> str:
    setup_s = workload.setup()
    print(f"[perfbench] {workload.name} set-up {setup_s:.3f}s", file=sys.stderr)

    def one(trace: bool) -> Rep:
        rep = workload.rep(trace)
        print(
            f"[perfbench] {workload.name} {'traced ' if trace else ''}repetition "
            f"{rep.wall_s:.3f}s cpu {rep.cpu_s:.3f}s rss {rep.rss_mb:.1f}MB "
            f"failed {rep.failed}/{rep.attempted}",
            file=sys.stderr,
        )
        return rep

    if traced:
        # An untraced repetition first: the traced outputs must equal it.
        first = one(False)
        budget = max(seconds - first.wall_s, 0.0)
        reps = [first] + timed_loop(budget, lambda: one(True))
    else:
        reps = timed_loop(seconds, lambda: one(False))
        first = reps[0]
    for rep in reps[1:]:
        workload.same_outputs(first, rep)
        workload.cleanup(rep)
    if first.failed == 0:
        workload.check(first)
    for problem in workload.problems:
        print(f"[perfbench] CHECK FAILED: {problem}", file=sys.stderr)
    correct = not workload.problems
    if traced:
        traced_reps = reps[1:]
        return result_line(correct, reps, layer_split(traced_reps), dict(layers.layer_metrics()))
    return result_line(correct, reps, end_to_end_metrics(setup_s, reps), dict(END_TO_END))


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="End-to-end benchmark of the reproduction.")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"[perfbench] no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, work)
        line = run(workload, args.seconds, bool(args.trace))
    except SetupError as error:
        print(f"[perfbench] set-up failed: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
