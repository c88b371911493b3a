"""stream-medium / stream-handoff: offline ``detect_races_streaming``
over a generated WAL directory."""

from __future__ import annotations

import os
import statistics
import time
from typing import Dict, List

import common
import layers
from ledger import Ledger

SYSTEM = "minimr"

#: Measured passes per run, one after each set-up (more while under
#: ``--seconds``); ``wall_s`` is their median.
PASSES = 3


def _check(outcome: common.Outcome, result, planted: set, records: int) -> None:
    pairs = set(result.candidate_seq_pairs())
    outcome.check(
        pairs == planted
        and len(result.candidates) == len(planted)
        and result.confidence == "full"
        and result.records_consumed == records,
        f"stream pass: {len(pairs)} candidates vs {len(planted)} planted, "
        f"confidence {result.confidence}, "
        f"{result.records_consumed}/{records} records",
    )


def _pinned_pass(wal_dir: str):
    from repro.detect import streaming

    allowed = common.pin_to_one_cpu()
    try:
        return streaming.detect_races_streaming(wal_dir=wal_dir, window=common.WINDOW)
    finally:
        common.unpin(allowed)


def _pass(outcome: common.Outcome, wal_dir: str, planted: set, records: int) -> float:
    """One untraced, gated pass; returns its wall time."""
    t0 = time.perf_counter()
    result = _pinned_pass(wal_dir)
    wall = time.perf_counter() - t0
    _check(outcome, result, planted, records)
    return wall


def run(shape: str, seed: int, seconds: float, trace: bool) -> None:
    from repro.workload import load_ground_truth

    outcome = common.Outcome()
    work = common.run_dir(f"stream-{shape}")
    try:
        # Each of the first PASSES set-ups is followed by a pass over its
        # input, so the passes sample the host several seconds apart.
        setups: List[float] = []
        walls: List[float] = []
        summary: Dict[str, object] = {}
        traced = traced_wall = ledger = None
        for attempt in range(common.SETUP_REPEATS):
            out = os.path.join(work, f"input-{attempt}")
            generated = common.generate(SYSTEM, shape, seed, out)
            setups.append(float(generated["seconds"]))
            if not summary:
                summary = generated
                truth = load_ground_truth(str(generated["ground_truth"]))
                planted = {
                    (p["first_seq"], p["second_seq"]) for p in truth["planted_races"]
                }
                records = int(generated["records"])
            else:
                outcome.check(
                    generated["records"] == records,
                    "generator is not deterministic in its seed",
                )
            wal_dir = str(generated["wal_dir"])
            if attempt == 0 or (attempt < PASSES and not trace):
                walls.append(_pass(outcome, wal_dir, planted, records))
            elif attempt == 1 and trace:
                ledger = Ledger()
                layers.install_stream(ledger)
                try:
                    t0 = time.perf_counter()
                    traced = _pinned_pass(wal_dir)
                    traced_wall = time.perf_counter() - t0
                finally:
                    ledger.uninstall()
                _check(outcome, traced, planted, records)
            if attempt < common.SETUP_REPEATS - 1:
                common.remove_tree(out)
        while not trace and sum(walls) < seconds:
            walls.append(_pass(outcome, wal_dir, planted, records))

        fingerprint = {
            "workload": f"stream-{shape}",
            "seed": seed,
            "host": common.host_fingerprint(),
            "input": {
                "system": SYSTEM,
                "spec": summary["spec"],
                "records": records,
                "streams": summary["streams"],
                "planted_races": summary["planted"],
            },
            "passes": len(walls),
            "pinned_cpu": min(os.sched_getaffinity(0)),
        }
        if not trace:
            wall = statistics.median(walls)
            metrics = {
                "setup_s": statistics.median(setups),
                "records_per_s": records / wall,
                "wall_s": wall,
                "peak_rss_mb": common.peak_rss_mb(),
            }
            table = [
                f"passes: {', '.join(f'{w:.3f}s' for w in walls)}; "
                f"setups: {', '.join(f'{s:.3f}s' for s in setups)}"
            ]
            common.emit(outcome, metrics, layers.END_TO_END, fingerprint, table)
            return
        rows = ledger.snapshot()
        wal_bytes = layers.dir_bytes(wal_dir)
        extra = {
            "trace.wal.bytes_per_record": wal_bytes / records,
            "trace.records.decoded": ledger.counters.get("decoded", 0),
            "detect.streaming.pairs_examined": traced.pairs_examined,
            "detect.streaming.candidates": len(traced.candidates),
            "detect.streaming.hit_ratio": (
                len(traced.candidates) / traced.pairs_examined
                if traced.pairs_examined
                else 0.0
            ),
            "detect.streaming.compactions": traced.compactions,
            "detect.streaming.evictions": traced.evictions,
            "detect.streaming.active_high_water": traced.active_high_water,
            "hb.incremental.clock_entries": ledger.counters.get(
                "clock_entries", 0
            ),
        }
        metrics = layers.per_layer_metrics(
            rows, traced_wall, traced_wall, walls[0], extra
        )
        table = layers.ledger_table(rows, traced_wall, "traced pass wall")
        table.append(
            f"tracing overhead: traced {traced_wall:.3f}s vs untraced "
            f"{walls[0]:.3f}s ({traced_wall / walls[0] - 1:+.1%})"
        )
        common.emit(outcome, metrics, layers.PER_LAYER, fingerprint, table)
    finally:
        common.remove_tree(work)
