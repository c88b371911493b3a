"""Smoke test for the benchmark itself (not part of the repo's tests).

    python3 perfbench/smoke.py

Runs each workload's code path on small inputs -- the ``small`` preset
stream, one TaxDC bug, one small serve tenant -- in both modes, and
checks the result line's schema, that the metric names and units are
exactly those in ``BENCHMARK.json``, and that the correctness gates
pass (and fail on a wrong expected answer).  Takes about a minute.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import common

sys.path.insert(0, str(common.SRC))

import layers  # noqa: E402
import serve_wl  # noqa: E402
import stream_wl  # noqa: E402
import taxdc_wl  # noqa: E402


def _declared():
    with open(common.ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    return end_to_end, per_layer


def _result(fn, *args) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        fn(*args)
    last = out.getvalue().strip().splitlines()[-1]
    return json.loads(last)


def _check(label: str, result: dict, units: dict, correct: bool = True) -> None:
    """Schema, names, units and the gate verdict; end-to-end metrics
    must never read 0."""
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, label
    assert isinstance(result["failed"], int), label
    metrics = result["metrics"]
    assert set(metrics) == set(units), (label, set(metrics) ^ set(units))
    for name, unit in units.items():
        assert set(metrics[name]) == {"value", "unit"}, (label, name)
        assert metrics[name]["unit"] == unit, (label, name)
        assert isinstance(metrics[name]["value"], (int, float)), (label, name)
        if units is not layers.PER_LAYER:
            assert metrics[name]["value"] > 0, (label, name)
    assert result["correct"] is correct, (label, result["failed"])
    assert (result["failed"] == 0) is correct, label
    print(f"ok  {label}: attempted {result['attempted']}, failed {result['failed']}")


def main() -> int:
    end_to_end, per_layer = _declared()
    assert end_to_end == layers.END_TO_END, "BENCHMARK.json end_to_end drifted"
    assert per_layer == layers.PER_LAYER, "BENCHMARK.json per_layer drifted"

    for trace, units in ((False, layers.END_TO_END), (True, layers.PER_LAYER)):
        mode = f"trace={int(trace)}"
        _check(f"stream small {mode}",
               _result(stream_wl.run, "small", 3, 0.1, trace), units)
        _check(f"taxdc MR-3274 {mode}",
               _result(taxdc_wl.run, ["MR-3274"], 3, 0.1, trace), units)
        _check(f"serve small {mode}",
               _result(serve_wl.run, ("minizk",), "small", 3, 0.1, trace), units)

    expected = taxdc_wl.EXPECTED["MR-3274"]
    taxdc_wl.EXPECTED["MR-3274"] = dict(expected, harmful=expected["harmful"] + 1)
    try:
        _check("taxdc gate rejects a wrong verdict count",
               _result(taxdc_wl.run, ["MR-3274"], 3, 0.1, False),
               layers.END_TO_END, correct=False)
    finally:
        taxdc_wl.EXPECTED["MR-3274"] = expected
    print("smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
