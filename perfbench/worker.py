"""Subprocess entry points for the benchmark's set-up and oracle work.

Run with ``src`` on ``PYTHONPATH``; each subcommand prints one JSON
line.  They run in their own interpreters so that the benchmark's
measured process never carries the generator's memory, and so that two
of them can run side by side on a 2-CPU host.

    worker.py generate <system> <shape> <seed> <out_dir>
    worker.py oracle <wal_dir> <window> <out_prefix> <tenant>...
    worker.py taxdc-setup <bug-id>...
"""

from __future__ import annotations

import json
import sys

from common import SHAPES


def _generate(system: str, shape: str, seed: str, out: str) -> dict:
    from repro.workload import WorkloadSpec, generate_workload

    fields = dict(SHAPES[shape])
    preset = fields["preset"] if len(fields) == 1 else WorkloadSpec(**fields)
    generated = generate_workload(system, preset, int(seed), out)
    return {
        "system": system,
        "shape": shape,
        "spec": generated.spec.describe(),
        "wal_dir": generated.wal_dir,
        "ground_truth": generated.ground_truth_path,
        "records": generated.records,
        "streams": generated.streams,
        "planted": len(generated.planted_races),
    }


def _oracle(wal_dir: str, window: str, out_prefix: str, *tenants: str) -> dict:
    """The offline single pass a service report must equal byte for
    byte, rendered for each tenant id (the id is part of the report)
    to ``<out_prefix><tenant>.json``."""
    from repro.detect.streaming import detect_races_streaming
    from repro.service.report import render_report, report_from_stream_result

    result = detect_races_streaming(wal_dir=wal_dir, window=int(window))
    for tenant in tenants:
        with open(f"{out_prefix}{tenant}.json", "wb") as fh:
            fh.write(render_report(report_from_stream_result(tenant, result)))
    return {"records": result.records_consumed, "tenants": len(tenants)}


def _taxdc_setup(*bug_ids: str) -> dict:
    """Cold start of a campaign: import the pipeline and build each
    bug's workload and simulated cluster."""
    import repro.pipeline  # noqa: F401
    from repro.systems.registry import workload_by_id

    nodes = 0
    for bug in bug_ids:
        cluster = workload_by_id(bug).cluster(None)
        nodes += len(cluster.nodes)
    return {"bugs": len(bug_ids), "nodes": nodes}


COMMANDS = {"generate": _generate, "oracle": _oracle,
            "taxdc-setup": _taxdc_setup}

if __name__ == "__main__":
    print(json.dumps(COMMANDS[sys.argv[1]](*sys.argv[2:])))
