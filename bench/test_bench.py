"""Smoke tests of the benchmark itself, on tiny inputs.

    python -m pytest bench/test_bench.py
"""

import dataclasses
import json

import pytest

import inputs
import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def tiny(workload, trace=False):
    return run.measure(workload, seed=3, seconds=0.0, trace=trace, sizes=inputs.TINY,
                       startup_repeats=1)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_clean_run_reports_every_end_to_end_metric_without_failures(workload):
    record = tiny(workload)
    assert record["failed_frac"] == 0, record["problems"]
    assert set(record["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(entry["value"] > 0 for entry in record["metrics"].values())


def _last_reserve_negative(call):
    lines = call.out.splitlines()
    cells = lines[-1].split(",")
    cells[2] = "-" + cells[2]
    return dataclasses.replace(call, out="\n".join(lines[:-1] + [",".join(cells)]) + "\n")


CORRUPTIONS = {
    "replay": _last_reserve_negative,
    "analytics": lambda call: dataclasses.replace(call, out=call.out.rsplit("\n", 2)[0] + "\n"),
    "cli_calls": lambda call: dataclasses.replace(call, code=3, err="internal error: boom\n"),
}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_corrupted_output_raises_failed_frac(workload, monkeypatch):
    honest = run.Processes.cpamm
    monkeypatch.setattr(run.Processes, "cpamm",
                        lambda self, argv: CORRUPTIONS[workload](honest(self, argv)))
    record = tiny(workload)
    assert record["failed_frac"] > 0
    assert not record["correct"]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_counts_repeat_between_runs(workload):
    first, second = tiny(workload, trace=True), tiny(workload, trace=True)
    assert first["failed_frac"] == 0, first["problems"]
    assert set(first["metrics"]) == {m["name"] for m in SPEC["per_layer"]}

    def counts(record):
        return {name: entry["value"] for name, entry in record["metrics"].items()
                if entry["unit"] in ("count", "bytes")}

    assert counts(first) == counts(second)
    assert counts(first)["pool.quote.calls"] > 0
