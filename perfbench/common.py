"""Shared plumbing: input shapes, set-up subprocesses, host fingerprint,
CPU pinning, percentiles and the result line."""

from __future__ import annotations

import json
import math
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
WORKER = str(BENCH_DIR / "worker.py")

#: Set-up repetitions per run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: Streaming-detector compaction window used by every stream and serve
#: pass (the detector's default; the service report records it).
WINDOW = 8192

#: Generated input shapes.  ``small`` (smoke test only) and ``medium``
#: are generator presets; the others are explicit ``WorkloadSpec`` fields.
SHAPES: Dict[str, Dict[str, object]] = {
    "small": {"preset": "small"},
    "medium": {"preset": "medium"},
    # Dense clocks: 400 streams, a 390-long hand-off chain per phase,
    # 8 racers -> ~3M ordered pair checks on ~143k records.
    "handoff": {
        "preset": "handoff",
        "workers": 400,
        "phases": 40,
        "local_ops": 2,
        "chain_len": 390,
        "racers": 8,
    },
    # The medium scenario over 38 of its 150 phases with 256-record
    # segments: a quarter of the records, the same 121 streams and the
    # same 276 segment uploads per tenant (552 ACKs per session).
    "serve-quarter": {
        "preset": "serve-quarter",
        "workers": 120,
        "phases": 38,
        "local_ops": 6,
        "chain_len": 6,
        "segment_records": 256,
    },
}


def src_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def run_dir(label: str) -> str:
    WORK_ROOT.mkdir(exist_ok=True)
    return tempfile.mkdtemp(prefix=f"{label}-", dir=str(WORK_ROOT))


def remove_tree(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)


def worker(*args: str, timeout: float = 170.0) -> Dict[str, object]:
    """Run one ``worker.py`` subcommand; its last stdout line is JSON."""
    proc = subprocess.run(
        [sys.executable, WORKER, *args],
        env=src_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        timeout=timeout,
        check=False,
    )
    if proc.returncode != 0:
        tail = proc.stderr.decode(errors="replace").strip().splitlines()[-3:]
        raise RuntimeError(f"worker {args[0]} failed: {' | '.join(tail)}")
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def start_workers(argvs: Sequence[Sequence[str]]) -> List[subprocess.Popen]:
    return [
        subprocess.Popen(
            [sys.executable, WORKER, *argv],
            env=src_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        for argv in argvs
    ]


def finish_workers(
    procs: Sequence[subprocess.Popen], timeout: float = 170.0
) -> List[Dict[str, object]]:
    """Wait for workers started together; kill the rest on failure."""
    results = []
    try:
        for proc in procs:
            out, err = proc.communicate(timeout=timeout)
            if proc.returncode != 0:
                tail = err.decode(errors="replace").strip().splitlines()[-3:]
                raise RuntimeError(f"worker failed: {' | '.join(tail)}")
            results.append(json.loads(out.decode().strip().splitlines()[-1]))
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    return results


def generate(system: str, shape: str, seed: int, out: str) -> Dict[str, object]:
    """Generate one input in a fresh interpreter; returns its summary
    plus ``seconds`` (the subprocess wall time, interpreter start
    included -- that is what a user pays)."""
    started = time.perf_counter()
    summary = worker("generate", system, shape, str(seed), out)
    summary["seconds"] = time.perf_counter() - started
    return summary


# -- host -----------------------------------------------------------------


def host_fingerprint() -> Dict[str, object]:
    mem_kb = 0
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemTotal:"):
                    mem_kb = int(line.split()[1])
                    break
    except OSError:
        pass
    return {
        "cpu_count": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "ram_mb": mem_kb // 1024,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
    }


def pin_to_one_cpu() -> Optional[set]:
    """Pin this process to the lowest allowed CPU; returns the previous
    set for :func:`unpin`.  The simulator and the service hand control
    between OS threads constantly; keeping them on one CPU removes
    cross-CPU wake-ups, the largest source of run-to-run spread."""
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    return allowed


def unpin(allowed: Optional[set]) -> None:
    if allowed:
        os.sched_setaffinity(0, allowed)


def peak_rss_mb(pid: int = 0) -> float:
    """VmHWM (peak resident set) of a process, in MB."""
    path = f"/proc/{pid or 'self'}/status"
    with open(path) as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in {path}")


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (q in 0..1)."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("no samples")
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


# -- output ---------------------------------------------------------------


class Outcome:
    """Operation accounting for one run: a wrong answer is a failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def check(self, ok: bool, problem: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)
        return ok

    def fail(self, count: int, problem: str) -> None:
        """``count`` attempted operations that did not succeed."""
        self.attempted += count
        self.failed += count
        self.problems.append(problem)


def emit(
    outcome: Outcome,
    metrics: Dict[str, object],
    units: Dict[str, str],
    fingerprint: Dict[str, object],
    table: Sequence[str] = (),
) -> None:
    """Print the human-readable lines, then the one-line JSON result."""
    print("fingerprint " + json.dumps(fingerprint, sort_keys=True))
    for line in table:
        print(line)
    for problem in outcome.problems:
        print(f"FAILED: {problem}")
    rate = outcome.failed / outcome.attempted if outcome.attempted else 1.0
    print(f"error_rate {rate:.6f} ({outcome.failed}/{outcome.attempted})")
    result = {
        "correct": outcome.failed == 0 and outcome.attempted > 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]}
            for name in units
        },
    }
    print(json.dumps(result), flush=True)
