"""Correctness checks, recomputed apart from the program's own analysis code.

The recomputations read the program's tables column by column and redo the
arithmetic in plain Python (no ``FlowTable`` aggregation kernel, no
``repro.core.traffic`` analysis), then compare with what the program
reported.  They run after the timed repetitions, in their own process.
"""

from __future__ import annotations

import json
import math
from typing import Dict, Iterable, List, Set

#: Relative tolerance for shares and byte sums the program adds up in another
#: order (per-group sums, numpy pairwise summation).
REL_TOL = 1e-9


def scanner_lines(
    subscribers: Iterable[int], server_ips: Iterable[str], backend_ips: Set[str], threshold: int
) -> Set[int]:
    """Lines contacting more than ``threshold`` distinct backend addresses."""
    contacts: Dict[int, Set[str]] = {}
    for line, ip in zip(subscribers, server_ips):
        if ip in backend_ips:
            contacts.setdefault(line, set()).add(ip)
    return {line for line, ips in contacts.items() if len(ips) > threshold}


def continent_shares(continents: Iterable[str], down: Iterable[float], up: Iterable[float]):
    """Share of downstream plus upstream bytes per server continent."""
    volume: Dict[str, List[float]] = {}
    for continent, d, u in zip(continents, down, up):
        volume.setdefault(continent, []).extend((d, u))
    totals = {continent: math.fsum(values) for continent, values in volume.items()}
    grand = math.fsum(totals.values())
    return {continent: total / grand for continent, total in sorted(totals.items())}


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-12)


def _clean_matches_raw(raw, clean, scanners: Set[int], problems: List[str]) -> None:
    """The clean table is the raw table minus every row of a scanner line."""
    subscribers = raw.column("subscriber_id")
    keep = [line not in scanners for line in subscribers]
    if len(clean) != sum(keep):
        problems.append(f"clean table has {len(clean)} rows, raw minus scanners has {sum(keep)}")
    for name in ("bytes_down", "bytes_up"):
        expected = math.fsum(value for value, kept in zip(raw.column(name), keep) if kept)
        got = math.fsum(clean.column(name))
        if expected != got:
            problems.append(f"clean {name} total {got!r} != raw minus scanners {expected!r}")


def check_paper(seed: int, store_root: str, outputs: Dict[str, str]) -> Dict[str, object]:
    """Check a paper run of the default scenario against its filled store."""
    from repro.core.traffic import DEFAULT_SCANNER_THRESHOLD
    from repro.experiments import build_context, disruption_experiments, traffic_experiments
    from repro.simulation.config import ScenarioConfig
    from repro.store.artifacts import ArtifactStore

    problems: List[str] = []
    context = build_context(ScenarioConfig(seed=seed), store=ArtifactStore(store_root))
    raw = context.raw_table()
    dedicated = context.result.dedicated.ips()

    scanners = scanner_lines(
        raw.column("subscriber_id"), raw.column("server_ip"), dedicated, DEFAULT_SCANNER_THRESHOLD
    )
    if scanners != context.scanner_lines():
        problems.append(
            f"scanner_lines() gives {len(context.scanner_lines())} lines, "
            f"the threshold rule gives {len(scanners)}"
        )
    clean = context.clean_table()
    _clean_matches_raw(raw, clean, scanners, problems)

    figure13 = traffic_experiments.fig13_fig14_region_crossing(context)
    expected = continent_shares(
        clean.column("server_continent"), clean.column("bytes_down"), clean.column("bytes_up")
    )
    reported = figure13.report.traffic_by_continent
    if sorted(reported) != sorted(expected) or not all(
        _close(reported[c], expected[c]) for c in expected
    ):
        problems.append(f"Figure 14 shares {reported} != recomputed {expected}")
    figure11 = traffic_experiments.fig11_port_mix(context)
    for label, shares in figure11.mix.items():
        if not _close(math.fsum(shares.values()), 1.0):
            problems.append(f"Figure 11 port shares of {label} sum to {math.fsum(shares.values())}")
    for figure in (figure13, figure11):
        if figure.render() not in outputs["traffic"]:
            problems.append(f"{type(figure).__name__} differs from the traffic command's output")

    servers = context.world.all_servers()
    unknown = dedicated - {server.ip for server in servers}
    if unknown:
        problems.append(f"{len(unknown)} discovered dedicated IPs are no server of the world")
    truth = {server.ip for server in servers if server.dedicated_iot}

    outage = disruption_experiments.fig15_fig16_outage(context)
    drops = (outage.traffic_drop_us_east(), outage.traffic_drop_eu(), outage.line_drop_us_east())
    if not all(0.0 <= drop <= 1.0 for drop in drops):
        problems.append(f"outage drops {drops} outside [0, 1]")
    if outage.render("15") + "\n\n" + outage.render("16") + "\n" != outputs["outage"]:
        problems.append("outage result differs from the outage command's output")
    return {
        "ok": not problems,
        "problems": problems,
        "scanner_lines": len(scanners),
        "recall": f"{len(dedicated & truth)}/{len(truth)}",
        "figure14": expected,
    }


def check_sweep(ledger_path: str, scenario: Dict[str, object]) -> Dict[str, object]:
    """Recompute one sweep scenario's ``traffic`` row over its clean table.

    ``scenario`` holds the base seed of the ``--small`` grid (``base_seed``)
    and the id of the scenario to check (``scenario_id``).
    """
    from repro.core.traffic import DEFAULT_SCANNER_THRESHOLD
    from repro.experiments import build_context
    from repro.simulation.config import ScenarioConfig
    from repro.store.artifacts import config_digest

    problems: List[str] = []
    with open(ledger_path, encoding="utf-8") as ledger:
        rows = [json.loads(line) for line in ledger if line.strip()]
    row = next(r for r in rows if r["scenario_id"] == scenario["scenario_id"])
    config = ScenarioConfig.small(seed=scenario["base_seed"]).with_overrides(**row["axes"])
    if config_digest(config) != row["config_digest"]:
        problems.append(f"{row['scenario_id']}: rebuilt config has another digest")
    context = build_context(config, use_cache=False)
    raw = context.raw_table()
    clean = context.clean_table()
    scanners = scanner_lines(
        raw.column("subscriber_id"),
        raw.column("server_ip"),
        context.result.dedicated.ips(),
        DEFAULT_SCANNER_THRESHOLD,
    )
    _clean_matches_raw(raw, clean, scanners, problems)
    subscribers = clean.column("subscriber_id")
    expected = {
        "clean_flows": len(subscribers),
        "bytes_down": math.fsum(clean.column("bytes_down")),
        "bytes_up": math.fsum(clean.column("bytes_up")),
        "distinct_server_ips": len(set(clean.column("server_ip"))),
        "active_subscriber_lines": len(set(subscribers)),
        "scanner_lines_excluded": len(scanners),
    }
    metrics = row["metrics"]
    for name, value in expected.items():
        if not _close(float(metrics[name]), float(value)):
            problems.append(f"{row['scenario_id']}: {name} {metrics[name]!r} != {value!r}")
    return {"ok": not problems, "problems": problems, "scenario": row["scenario_id"]}
