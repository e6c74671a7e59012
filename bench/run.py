"""Benchmark of the cpamm command-line program.

    python3 bench/run.py --workload replay --seed 1 --seconds 30 --trace 0 [--out results.jsonl]

Run it from the root of a checkout; it puts that checkout's ``src`` on
``PYTHONPATH``.  Each workload is a closed loop: one client, one cpamm
process at a time, inputs generated from ``--seed`` (see ``inputs.py``).

* ``replay``: ``run-scenario`` on a 100k-event script.  Pool and scenario do
  the work; compounding and figures do none.
* ``analytics``: the five figures at 20k rows, then ``roi`` by RK4 at step
  1e-5 and by the implicit root.  Compounding, analytics and figures do the
  work; the pool does none.
* ``cli_calls``: a seeded mix of one-shot commands, about 10% of them
  invalid.  Interpreter start-up, import and argparse dominate.
* ``all``: the three in turn, for reading by eye.

``--trace 0`` times real processes and reports the end-to-end metrics, the
same five on every workload: ``setup_s`` (a fresh interpreter importing
``cpamm.cli``), ``work_per_s`` (script events, figure rows plus RK4 steps,
or calls, per second), ``call_p50_s`` and ``call_tail_s`` (median and p90
wall time of one cpamm process) and ``peak_rss_mb`` (the largest child
``ru_maxrss``).  Times are scaled to nominal host speed (see
``measure_processes``); the raw wall-clock figures, ``events_per_s``,
``figure_rows_per_s``, ``rk4_steps_per_s`` and the ``wall_*`` ones, are
reported beside them.
``--trace 1`` replays the same work in this process, with every cpamm layer
wrapped (see ``tracing.py``), and reports the per-layer metrics.  Every
output is checked; a wrong one counts as failed.  The last line of stdout is
``{"correct", "attempted", "failed", "metrics"}``; the lines before it are a
human-readable report.  ``--out`` appends the full record, with the
environment and input fingerprints, to a JSON-lines file that
``compare.py`` reads.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, List, Optional

import checks
import inputs
from launcher import REFERENCE_NOMINAL_S
from tracing import MAIN, Summary, Tracer, layer_metrics, unit_of

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("replay", "analytics", "cli_calls")
#: Interpreter start-ups timed in a traced run.
STARTUP_REPEATS = 9
#: Most measured work between two timings of the host-speed reference loop.
REFERENCE_EVERY_S = 0.5
#: The percentile ``call_tail_s`` reports.
TAIL_PERCENTILE = 90
#: Calls per round of ``cli_calls``; ``work_per_s`` is a median over rounds.
CALLS_PER_ROUND = 10
#: Calls in one traced pass of ``cli_calls``.
TRACED_CALLS = 200
#: Work-item kinds, and the name and unit each one's rate is reported under.
RATES = {"events": ("events_per_s", "events/s"), "rows": ("figure_rows_per_s", "rows/s"),
         "steps": ("rk4_steps_per_s", "steps/s"), "calls": ("calls_per_s", "1/s")}
END_TO_END_UNITS = {"setup_s": "s", "work_per_s": "1/s", "call_p50_s": "s",
                    "call_tail_s": "s", "peak_rss_mb": "MB"}


@dataclass
class Call:
    code: int
    out: str
    err: str
    wall_s: float
    rss_mb: float


@dataclass
class Op:
    """One cpamm invocation, what it produces and how to check it."""

    argv: tuple
    kind: Optional[str]  # key of RATES, or None when it yields no work items
    items: int
    check: Callable[[Call], Optional[str]]


@dataclass
class Plan:
    rounds: Iterator[List[Op]]  # endless; the untraced run takes rounds until time is up
    traced_pass: List[Op]  # the fixed work of one traced pass
    inputs: dict  # sizes and fingerprints, for the result record


class Processes:
    """Runs Python processes one at a time, through ``launcher.py``, and measures each."""

    def __init__(self, work_dir: Path):
        self.work_dir = work_dir
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))
        self.launcher = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("launcher.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)

    def __enter__(self) -> "Processes":
        return self

    def __exit__(self, *exc) -> None:
        self.launcher.stdin.close()  # the launcher exits once its current child has
        self.launcher.wait()

    def _ask(self, request: dict) -> dict:
        self.launcher.stdin.write(json.dumps(request) + "\n")
        self.launcher.stdin.flush()
        return json.loads(self.launcher.stdout.readline())

    def reference_s(self) -> float:
        """How long the launcher's fixed reference loop takes right now."""
        return self._ask({"reference": True})["reference_s"]

    def python(self, *args: str) -> Call:
        out, err = self.work_dir / "stdout", self.work_dir / "stderr"
        reply = self._ask({"argv": [sys.executable, *args], "out": str(out), "err": str(err)})
        return Call(reply["code"], out.read_text(encoding="utf-8", errors="replace"),
                    err.read_text(encoding="utf-8", errors="replace"), reply["wall_s"],
                    reply["rss_kb"] / 1024)

    def cpamm(self, argv) -> Call:
        return self.python("-m", "cpamm.cli", *argv)

    def startup_s(self, code: str) -> float:
        """Wall time of a fresh interpreter running ``code``."""
        call = self.python("-c", code)
        if call.code != 0:
            sys.exit(f"bench: python -c {code!r} failed:\n{call.err}")
        return call.wall_s


class InProcess:
    """Calls a cpamm ``main`` in this process and captures what it prints."""

    def __init__(self, main):
        self.main = main

    def cpamm(self, argv) -> Call:
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.main(list(argv))
            except SystemExit as exc:
                code = exc.code
            except Exception:  # a process would die with this traceback and exit 1
                traceback.print_exc()
                code = 1
        return Call(code, out.getvalue(), err.getvalue(), time.perf_counter() - start, 0.0)


# -- workload plans -----------------------------------------------------------

def _write(work_dir: Path, name: str, doc: dict) -> str:
    path = work_dir / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _expect_ok(check: Callable[[str], Optional[str]]):
    return lambda call: checks.exit_status(call.code, call.err, 0) or check(call.out)


def plan_replay(seed: int, sizes: dict, work_dir: Path) -> Plan:
    script = inputs.replay_script(seed, sizes["replay_events"])
    text = json.dumps(script)
    path = _write(work_dir, "replay.json", script)
    op = Op(("run-scenario", path), "events", len(script["events"]),
            _expect_ok(lambda out: checks.replay_csv(out, script)))
    return Plan(itertools.repeat([op]), [op],
                {"events": len(script["events"]), "script_bytes": len(text),
                 "script_sha": inputs.digest(text)})


def plan_analytics(seed: int, sizes: dict, work_dir: Path) -> Plan:
    jobs = inputs.analytics_jobs(seed, sizes["figure_rows"])
    ops = [Op(job.argv, "rows", job.grid[2],
              _expect_ok(lambda out, job=job: checks.figure_csv(out, job.figure_id, job.grid)))
           for job in jobs]
    rk4 = {}

    def keep_rk4(out):
        rk4["out"] = out
        return None

    ops.append(Op(tuple(inputs.rk4_argv(sizes["rk4_steps"])), "steps", sizes["rk4_steps"],
                  _expect_ok(keep_rk4)))
    ops.append(Op(tuple(inputs.implicit_argv()), None, 0,
                  _expect_ok(lambda out: checks.roi_pair(rk4.pop("out", ""), out))))
    argvs = json.dumps([op.argv for op in ops])
    return Plan(itertools.repeat(ops), ops,
                {"figure_rows": sizes["figure_rows"], "rk4_steps": sizes["rk4_steps"],
                 "grids": {job.figure_id: job.grid for job in jobs},
                 "argv_sha": inputs.digest(argvs)})


def plan_cli_calls(seed: int, sizes: dict, work_dir: Path) -> Plan:
    docs = inputs.tiny_scripts(seed)
    scripts = {
        "valid": [_write(work_dir, f"tiny-{i}.json", doc) for i, doc in enumerate(docs["valid"])],
        "backwards": _write(work_dir, "backwards.json", docs["backwards"]),
        "missing": str(work_dir / "missing.json"),
    }
    jobs = inputs.cli_call_jobs(seed, sizes["calls"], scripts)

    def check_for(job):
        if job.expect == 0:
            return _expect_ok(lambda out: checks.one_shot(out, job.head))
        return lambda call: checks.exit_status(call.code, call.err, job.expect)

    ops = [Op(job.argv, "calls", 1, check_for(job)) for job in jobs]
    rounds = [ops[i:i + CALLS_PER_ROUND] for i in range(0, len(ops), CALLS_PER_ROUND)]
    # Paths differ between checkouts, so the fingerprint names scripts by role.
    fingerprint = json.dumps([job.argv[:-1] if job.argv[0] == "run-scenario" else job.argv
                              for job in jobs]) + json.dumps(docs)
    return Plan(itertools.cycle(rounds), ops[:TRACED_CALLS],
                {"calls": len(jobs), "invalid": sum(job.expect != 0 for job in jobs),
                 "sequence_sha": inputs.digest(fingerprint)})


PLANS = {"replay": plan_replay, "analytics": plan_analytics, "cli_calls": plan_cli_calls}


# -- measurement --------------------------------------------------------------

def percentile(values: List[float], pct: float) -> float:
    """Linear-interpolated percentile, ``statistics.quantiles`` inclusive style."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * pct / 100
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


class Tally:
    """Operations attempted and failed, with the first few failures for the report."""

    def __init__(self):
        self.attempted = 0
        self.problems = []

    def record(self, op: Op, call: Call) -> None:
        self.attempted += 1
        problem = op.check(call)
        if problem:
            self.problems.append(f"{' '.join(op.argv)[:120]}: {problem}")


def measure_processes(plan: Plan, procs: Processes, seconds: float) -> dict:
    """Untraced run: ``python -m cpamm.cli`` processes until ``seconds`` have passed.

    The launcher's reference loop is timed whenever ``REFERENCE_EVERY_S`` of
    measured work has passed since it last ran.  Each process's time is
    divided by how much slower than nominal the loop ran on either side of
    it, so the timing metrics read as if the host always ran at the speed
    where the loop takes ``REFERENCE_NOMINAL_S``; the raw wall-clock figures
    go to the detail.  One set-up sample, with a reference timing right
    after it, opens each round, so set-up is sampled across the whole run.
    """
    tally = Tally()
    setup, walls, rates, peak_rss = [], [], [], 0.0
    raw_setup, raw_walls, raw_rates = [], [], defaultdict(list)
    references = [procs.reference_s()]
    unscaled = []  # (list, index) of times still waiting for the next reference

    def scale_unscaled():
        references.append(procs.reference_s())
        slowdown = (references[-2] + references[-1]) / 2 / REFERENCE_NOMINAL_S
        for times, i in unscaled:
            times[i] /= slowdown
        unscaled.clear()

    deadline = time.perf_counter() + seconds
    for ops in plan.rounds:
        round_setup = [procs.startup_s("import cpamm.cli")]
        raw_setup += round_setup
        unscaled.append((round_setup, 0))
        scale_unscaled()
        items, wall, round_walls, since = Counter(), Counter(), [], 0.0
        for op in ops:
            call = procs.cpamm(op.argv)
            tally.record(op, call)
            peak_rss = max(peak_rss, call.rss_mb)
            items[op.kind] += op.items
            wall[op.kind] += call.wall_s
            raw_walls.append(call.wall_s)
            round_walls.append(call.wall_s)
            unscaled.append((round_walls, len(round_walls) - 1))
            since += call.wall_s
            if since >= REFERENCE_EVERY_S:
                scale_unscaled()
                since = 0.0
        if unscaled:
            scale_unscaled()
        setup += round_setup
        walls += round_walls
        rates.append(sum(items.values()) / sum(round_walls))
        for kind in RATES:
            if items[kind]:
                raw_rates[kind].append(items[kind] / wall[kind])
        if time.perf_counter() >= deadline:
            break

    def entry(name, value, n, unit=None):
        return name, {"value": value, "unit": unit or END_TO_END_UNITS[name], "n": n}

    metrics = dict([
        entry("setup_s", statistics.median(setup), len(setup)),
        entry("work_per_s", statistics.median(rates), len(rates)),
        entry("call_p50_s", statistics.median(walls), len(walls)),
        entry("call_tail_s", percentile(walls, TAIL_PERCENTILE), len(walls)),
        entry("peak_rss_mb", peak_rss, len(walls)),
    ])
    detail = dict([
        *(entry(RATES[kind][0], statistics.median(r), len(r), RATES[kind][1])
          for kind, r in raw_rates.items()),
        entry("wall_setup_s", statistics.median(raw_setup), len(raw_setup), "s"),
        entry("wall_call_p50_s", statistics.median(raw_walls), len(raw_walls), "s"),
        entry(f"wall_call_p{TAIL_PERCENTILE}_s", percentile(raw_walls, TAIL_PERCENTILE),
              len(raw_walls), "s"),
        entry("reference_s", statistics.median(references), len(references), "s"),
    ])
    return {"tally": tally, "metrics": metrics, "detail": detail}


def probe_ops(work_dir: Path) -> List[Op]:
    """Tiny calls into every layer, traced once at the start of every traced run,
    so each per-layer metric is measured on every workload."""
    script = _write(work_dir, "probe.json", inputs.replay_script(0, 20))
    argvs = [
        ["quote", "--x", "100", "--y", "100", "--direction", "y2x", "--amount", "5",
         "--max-spread", "0.01"],
        ["il", "--delta-x", "1", "--delta-y", "4", "--replay-check"],
        ["evolve", "--delta-x", "1", "--delta-y", "4"],
        ["roi", "--method", "rk4"],
        ["emit-figure", "--figure", "il_one_coin"],
        ["emit-figure", "--figure", "fee_model_comparison"],
        ["emit-figure", "--figure", "roi_comparison"],
        ["run-scenario", script],
    ]
    return [Op(tuple(argv), None, 0, _expect_ok(lambda out: None)) for argv in argvs]


def _run_pass(runner, ops: List[Op], tally: Tally):
    """Run ``ops`` once; returns their summed wall time and stdout bytes."""
    wall = 0.0
    out_bytes = 0
    for op in ops:
        call = runner.cpamm(op.argv)
        tally.record(op, call)
        wall += call.wall_s
        out_bytes += len(call.out.encode())
    return wall, out_bytes


def measure_layers(plan: Plan, procs: Processes, seconds: float, startup_repeats: int,
                   work_dir: Path) -> dict:
    """Traced run: untraced and traced in-process passes, alternating, until ``seconds``."""
    interpreter, imported = [], []
    for _ in range(startup_repeats):  # alternating, so drift in host speed hits both alike
        interpreter.append(procs.startup_s("pass"))
        imported.append(procs.startup_s("import cpamm.cli"))
    interpreter, imported = statistics.median(interpreter), statistics.median(imported)
    sys.path.insert(0, str(SRC))
    import cpamm.cli

    tally = Tally()
    tracer = Tracer()
    plain = InProcess(cpamm.cli.main)
    traced = InProcess(tracer.wrap(MAIN, cpamm.cli.main))
    with tracer.installed():
        _run_pass(traced, probe_ops(work_dir), tally)
    probe = tracer.drain()
    plain_walls, traced_walls, passes = [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        plain_walls.append(_run_pass(plain, plan.traced_pass, tally)[0])
        with tracer.installed():
            wall, out_bytes = _run_pass(traced, plan.traced_pass, tally)
        traced_walls.append(wall)
        passes.append(tracer.drain())
        if time.perf_counter() >= deadline:
            break
    for i, summary in enumerate(passes[1:], 1):
        if summary.work() != passes[0].work():
            tally.problems.append(f"traced pass {i} did different work from pass 0")
    work, timed = Summary(), Summary()
    work += probe
    work += passes[0]
    for summary in [probe, *passes]:
        timed += summary
    metrics = layer_metrics(work, timed)
    metrics["cli.interpreter_s"] = interpreter
    metrics["cli.import_s"] = imported - interpreter
    metrics["cli.output_bytes"] = out_bytes
    metrics["trace.overhead_frac"] = statistics.median(traced_walls) / statistics.median(plain_walls) - 1
    detail = {"passes": {"value": len(passes), "unit": "count", "n": len(passes)}}
    return {"tally": tally, "detail": detail,
            "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()}}


# -- environment and results ----------------------------------------------------

def _git_commit() -> Optional[str]:
    """HEAD of the checkout, read from ``.git`` directly; None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    cpu = None
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    source = hashlib.sha256()
    for path in sorted((SRC / "cpamm").glob("*.py")):
        source.update(path.name.encode() + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu or platform.machine(),
        "commit": _git_commit(),
        "source_sha": source.hexdigest()[:16],
        "interpreter": [sys.executable, "-m", "cpamm.cli"],
    }


def measure(workload: str, seed: int, seconds: float, trace: bool,
            sizes: dict = inputs.FULL, startup_repeats: int = STARTUP_REPEATS) -> dict:
    """One run of one workload; returns the full result record."""
    with tempfile.TemporaryDirectory(prefix=".work-", dir=Path(__file__).parent) as tmp:
        work_dir = Path(tmp)
        with Processes(work_dir) as procs:
            plan = PLANS[workload](seed, sizes, work_dir)
            if trace:
                measured = measure_layers(plan, procs, seconds, startup_repeats, work_dir)
            else:
                measured = measure_processes(plan, procs, seconds)
    tally = measured["tally"]
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "env": environment(),
        "inputs": plan.inputs,
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": len(tally.problems),
        "failed_frac": len(tally.problems) / tally.attempted,
        "problems": tally.problems[:10],
        "metrics": measured["metrics"],
        "detail": measured["detail"],
    }


def report(record: dict) -> None:
    """The human-readable lines printed before the result line."""
    print(f"workload={record['workload']} seed={record['seed']} seconds={record['seconds']} "
          f"trace={record['trace']}")
    print("env " + " ".join(f"{k}={v}" for k, v in record["env"].items()))
    print("inputs " + json.dumps(record["inputs"]))
    for name, entry in {**record["metrics"], **record["detail"]}.items():
        samples = f"  n={entry['n']}" if "n" in entry else ""
        print(f"  {name:<40} {entry['value']:>14.6g} {entry['unit']}{samples}")
    print(f"  {'failed_frac':<40} {record['failed_frac']:>14.6g} ratio "
          f"({record['failed']}/{record['attempted']})")
    for problem in record["problems"]:
        print(f"  FAILED {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", help="append each full result record to this JSON-lines file")
    args = parser.parse_args(argv)
    if not (SRC / "cpamm" / "cli.py").is_file():
        print(f"bench: no cpamm source under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    for workload in workloads:
        record = measure(workload, args.seed, args.seconds, bool(args.trace))
        report(record)
        records.append(record)
        if args.out:
            with open(args.out, "a", encoding="utf-8") as handle:
                handle.write(json.dumps(record) + "\n")
    prefix = len(records) > 1
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {(f"{r['workload']}." if prefix else "") + name:
                    {"value": entry["value"], "unit": entry["unit"]}
                    for r in records for name, entry in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
