"""Programs the benchmark starts as fresh processes.

``python3 perfbench/child.py paper --seed S --store DIR --out FILE [--trace FILE]``
    Runs the ten experiment commands in CLI order in this one process,
    through ``repro.cli.main``, and writes each command's stdout to ``FILE``
    as JSON.

``python3 perfbench/child.py cli --trace FILE -- <repro.cli arguments>``
    Runs one ``repro.cli`` invocation with the layer wrappers installed; the
    command's stdout is this process's stdout.

``python3 perfbench/child.py check-paper --seed S --store DIR --outputs FILE``
``python3 perfbench/child.py check-sweep --ledger FILE --scenario JSON``
    Correctness checks, run after the timed repetitions (see ``checks.py``).

With ``--trace FILE`` the process records its layer self times and counts
(see ``layers.py``) and writes them to ``FILE`` as JSON.  Nothing of
``repro`` is imported before ``repro.cli``, so ``cli.import_s`` measures the
program's own import.
"""

import time

#: When this process started running Python code; the benchmark counts the
#: time before it (interpreter start-up) and after the process's last stamp
#: (interpreter exit) as process overhead.
STARTED = time.perf_counter()

import argparse
import contextlib
import io
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench import checks, layers  # noqa: E402  (standard library only)

#: The experiment commands in CLI order.
COMMANDS = (
    "table1",
    "patterns",
    "discovery",
    "sources",
    "stability",
    "validation",
    "traffic",
    "outage",
    "disruptions",
    "ablations",
)


def _import_cli():
    start = time.perf_counter()
    import repro.cli

    return repro.cli, time.perf_counter() - start


def _start_trace(trace_path):
    """Install the layer wrappers when tracing; returns (clock, install seconds)."""
    if trace_path is None:
        return None, 0.0
    start = time.perf_counter()
    clock = layers.LayerClock()
    layers.install(clock)
    return clock, time.perf_counter() - start


def _write_trace(trace_path, clock, import_s, install_s, store_root, bytes_before) -> None:
    stats = clock.snapshot()
    stats["cli.import_s"] = import_s
    stats["trace.install_s"] = install_s
    stats["store.bytes_written_mb"] = (layers.store_bytes(store_root) - bytes_before) / 1e6
    stats["process.start"] = STARTED
    stats["process.end"] = time.perf_counter()
    Path(trace_path).write_text(json.dumps(stats), encoding="utf-8")


def run_paper(args) -> int:
    cli, import_s = _import_cli()
    clock, install_s = _start_trace(args.trace)
    bytes_before = layers.store_bytes(args.store)
    outputs = {}
    for command in COMMANDS:
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = cli.main([command, "--seed", str(args.seed), "--store", args.store])
        if code != 0:
            print(f"{command} exited with {code}", file=sys.stderr)
            return 1
        outputs[command] = buffer.getvalue()
    Path(args.out).write_text(json.dumps(outputs), encoding="utf-8")
    if clock is not None:
        _write_trace(args.trace, clock, import_s, install_s, args.store, bytes_before)
    return 0


def run_cli(args) -> int:
    cli, import_s = _import_cli()
    clock, install_s = _start_trace(args.trace)
    argv = list(args.argv)
    store_root = argv[argv.index("--store") + 1] if "--store" in argv else None
    bytes_before = layers.store_bytes(store_root)
    code = cli.main(argv)
    sys.stdout.flush()
    _write_trace(args.trace, clock, import_s, install_s, store_root, bytes_before)
    return code


def run_check_paper(args) -> int:
    outputs = json.loads(Path(args.outputs).read_text(encoding="utf-8"))
    report = checks.check_paper(args.seed, args.store, outputs)
    print(json.dumps(report))
    return 0


def run_check_sweep(args) -> int:
    report = checks.check_sweep(args.ledger, json.loads(args.scenario))
    print(json.dumps(report))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    paper = sub.add_parser("paper")
    paper.add_argument("--seed", type=int, required=True)
    paper.add_argument("--store", required=True)
    paper.add_argument("--out", required=True)
    paper.add_argument("--trace", default=None)
    cli = sub.add_parser("cli")
    cli.add_argument("--trace", required=True)
    cli.add_argument("argv", nargs=argparse.REMAINDER)
    check_paper = sub.add_parser("check-paper")
    check_paper.add_argument("--seed", type=int, required=True)
    check_paper.add_argument("--store", required=True)
    check_paper.add_argument("--outputs", required=True)
    check_sweep = sub.add_parser("check-sweep")
    check_sweep.add_argument("--ledger", required=True)
    check_sweep.add_argument("--scenario", required=True)
    args = parser.parse_args(argv)
    if args.mode == "cli" and args.argv[:1] == ["--"]:
        args.argv = args.argv[1:]
    runners = {
        "paper": run_paper,
        "cli": run_cli,
        "check-paper": run_check_paper,
        "check-sweep": run_check_sweep,
    }
    return runners[args.mode](args)


if __name__ == "__main__":
    sys.exit(main())
