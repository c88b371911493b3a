"""taxdc-7: the paper's workflow, ``DCatch(...).run()`` with triggering,
on the seven TaxDC benchmark bugs."""

from __future__ import annotations

import random
import statistics
import time
from typing import Dict, List

import common
import layers
from ledger import Ledger

#: Static verdict counts per bug (harmful, benign, serial) at the
#: default monitored seed.  The pipeline is deterministic, so a changed
#: count is a wrong answer.
EXPECTED: Dict[str, Dict[str, int]] = {
    "CA-1011": {"harmful": 1, "benign": 1, "serial": 0},
    "HB-4539": {"harmful": 1, "benign": 1, "serial": 0},
    "MR-3274": {"harmful": 1, "benign": 1, "serial": 0},
    "ZK-1144": {"harmful": 1, "benign": 2, "serial": 0},
    "HB-4729": {"harmful": 2, "benign": 2, "serial": 2},
    "MR-4637": {"harmful": 1, "benign": 3, "serial": 0},
    "ZK-1270": {"harmful": 1, "benign": 2, "serial": 0},
}


#: Campaigns per measured run; ``wall_s`` is their median.
CAMPAIGNS = 2


def campaign(bugs: List[str], outcome: common.Outcome) -> Dict[str, object]:
    """Run every bug once; gate each result."""
    from repro.detect.report import Verdict
    from repro.pipeline import DCatch, PipelineConfig
    from repro.systems.registry import workload_by_id

    records = 0
    kept = pre = confirmed = 0
    started = time.perf_counter()
    for bug in bugs:
        result = DCatch(workload_by_id(bug), PipelineConfig(trigger=True)).run()
        counts = result.verdict_counts()
        outcome.check(
            not result.stage_failures and counts == EXPECTED[bug],
            f"{bug}: verdicts {counts} (expected {EXPECTED[bug]}), "
            f"stage failures {result.stage_failures}",
        )
        records += len(result.trace)
        if result.prune_result is not None:
            kept += len(result.prune_result.kept)
            pre += len(result.reports_pre_prune)
        confirmed += sum(1 for o in result.outcomes if o.verdict is Verdict.HARMFUL)
    return {
        "wall": time.perf_counter() - started,
        "records": records,
        "kept": kept,
        "pre_prune": pre,
        "confirmed": confirmed,
    }


def run(bugs: List[str], seed: int, seconds: float, trace: bool) -> None:
    outcome = common.Outcome()
    # The seed orders the campaign; every bug runs once either way.
    order = list(bugs)
    random.Random(seed).shuffle(order)
    setups: List[float] = []
    for _ in range(common.SETUP_REPEATS):
        started = time.perf_counter()
        common.worker("taxdc-setup", *order)
        setups.append(time.perf_counter() - started)

    allowed = common.pin_to_one_cpu()
    try:
        runs: List[Dict[str, object]] = []
        started = time.perf_counter()
        wanted = 1 if trace else CAMPAIGNS
        while len(runs) < wanted or (
            not trace and time.perf_counter() - started < seconds
        ):
            runs.append(campaign(order, outcome))
        if trace:
            ledger = Ledger()
            layers.install_taxdc(ledger)
            try:
                traced = campaign(order, outcome)
            finally:
                ledger.uninstall()
    finally:
        common.unpin(allowed)

    fingerprint = {
        "workload": "taxdc-7",
        "seed": seed,
        "host": common.host_fingerprint(),
        "input": {
            "bugs": order,
            "records": runs[0]["records"],
            "streams": None,
        },
        "campaigns": len(runs),
        "pinned_cpu": min(allowed),
    }
    walls = [float(r["wall"]) for r in runs]
    if not trace:
        wall = statistics.median(walls)
        metrics = {
            "setup_s": statistics.median(setups),
            "records_per_s": int(runs[0]["records"]) / wall,
            "wall_s": wall,
            "peak_rss_mb": common.peak_rss_mb(),
        }
        table = [
            f"campaigns: {', '.join(f'{w:.3f}s' for w in walls)}; "
            f"setups: {', '.join(f'{s:.3f}s' for s in setups)}"
        ]
        common.emit(outcome, metrics, layers.END_TO_END, fingerprint, table)
        return
    rows = ledger.snapshot()
    counters = ledger.counters
    traced_wall = float(traced["wall"])
    base = rows.get("runtime.scheduler.base", {"total_s": 0.0})["total_s"]
    tracer = rows.get("trace.tracer.traced", {"total_s": 0.0})["total_s"]
    extra = {
        "runtime.scheduler.steps": counters.get("steps", 0),
        "runtime.scheduler.steps_per_s": counters.get("base_steps", 0) / base,
        "trace.tracer.overhead_ratio": (tracer - base) / base,
        "analysis.pruner.kept_ratio": int(traced["kept"]) / int(traced["pre_prune"]),
        "trigger.reruns": counters.get("cluster_runs", 0) - 2 * len(order),
        "trigger.confirmed": traced["confirmed"],
    }
    metrics = layers.per_layer_metrics(rows, traced_wall, traced_wall, walls[0], extra)
    table = layers.ledger_table(rows, traced_wall, "traced campaign wall")
    table.append(
        f"tracing overhead: traced {traced_wall:.3f}s vs untraced "
        f"{walls[0]:.3f}s ({traced_wall / walls[0] - 1:+.1%})"
    )
    common.emit(outcome, metrics, layers.PER_LAYER, fingerprint, table)
