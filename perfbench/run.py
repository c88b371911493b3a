"""DCatch benchmark: one command, four workloads, correctness-gated.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads (see NOTES.md for why each exists):

* ``stream-medium``  offline streaming detection, generated minimr medium;
* ``serve-2tenant``  two closed-loop tenants shipping to ``dcatch serve``;
* ``taxdc-7``        the paper's pipeline with triggering on seven bugs;
* ``stream-handoff`` the stream call on a dense-clock hand-off scenario
  (runnable, but not in ``BENCHMARK.json``: see NOTES.md).

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs once
untraced and once with the per-layer ledger installed and prints the
per-layer metrics.  The last stdout line is the JSON result.  Work files
go under ``.perfbench_work/`` at the checkout root and are removed.
"""

from __future__ import annotations

import argparse
import sys

import common

sys.path.insert(0, str(common.SRC))

WORKLOADS = ("stream-medium", "stream-handoff", "serve-2tenant", "taxdc-7")

TAXDC_BUGS = [
    "CA-1011",
    "HB-4539",
    "MR-3274",
    "ZK-1144",
    "HB-4729",
    "MR-4637",
    "ZK-1270",
]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (common.SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {common.SRC}", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    if args.workload == "stream-medium":
        import stream_wl

        stream_wl.run("medium", args.seed, args.seconds, trace)
    elif args.workload == "stream-handoff":
        import stream_wl

        stream_wl.run("handoff", args.seed, args.seconds, trace)
    elif args.workload == "serve-2tenant":
        import serve_wl

        serve_wl.run(("minimr", "minizk"), "serve-quarter", args.seed, args.seconds, trace)
    else:
        import taxdc_wl

        taxdc_wl.run(TAXDC_BUGS, args.seed, args.seconds, trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
