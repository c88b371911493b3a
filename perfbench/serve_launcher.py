"""Start ``dcatch serve`` for the benchmark, optionally with the ledger.

    serve_launcher.py [--cpu N] [--ledger OUT.json] serve <data_dir> [serve flags]

Runs ``repro.cli.main`` with the remaining arguments.  ``--cpu`` pins
the server to one CPU before any thread starts.  With ``--ledger`` the
service layers' entry points are wrapped first (thread CPU clock) and,
after the server has shut down, the ledger rows and session bounds are
written to ``OUT.json``.
"""

from __future__ import annotations

import json
import os
import sys
import time


def main(argv) -> int:
    ledger_out = None
    while argv and argv[0].startswith("--"):
        flag, value, argv = argv[0], argv[1], argv[2:]
        if flag == "--cpu":
            os.sched_setaffinity(0, {int(value)})
        elif flag == "--ledger":
            ledger_out = value
        else:
            raise SystemExit(f"unknown launcher flag {flag}")
    session = ledger = None
    if ledger_out is not None:
        import layers
        from ledger import Ledger

        ledger = Ledger(clock=time.thread_time)
        session = layers.install_serve(ledger)
    from repro.cli import main as cli_main

    code = cli_main(argv)
    if ledger is not None:
        doc = {
            "layers": ledger.snapshot(),
            "counters": ledger.counters,
            "cpu_end": time.process_time(),
            "first_hello_wall": session.first_hello_wall,
            "first_hello_cpu": session.first_hello_cpu,
            "last_report_wall": session.last_report_wall,
            "last_report_cpu": session.last_report_cpu,
            "stop_wall_s": session.stop_wall_s,
        }
        tmp = ledger_out + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(doc, fh)
        os.replace(tmp, ledger_out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
