"""Replay benchmark for repeton.

    python3 perfbench/run.py --workload calc-replay --seed 1 --seconds 25 --trace 0

Run from the root of a repeton checkout. With ``--trace 0`` it replays
tasks for ``--seconds`` seconds with tracing off and reports the
end-to-end metrics; the workload is set up several times, spread over
that window, and the median set-up time is reported. With ``--trace 1``
it spends the first half of the time untraced and the second half
traced, and reports the per-layer metrics, including the tracing
overhead (traced minus untraced median task time). Either way every
task is checked against its frozen outcome, events and diff, and the
command exits 1 if any differs. Readable lines go first; the last line
of stdout is one JSON object; metric names and units are the ones
``BENCHMARK.json`` declares. All temporary files live under one
directory in ``.perfbench/`` that is removed on exit; spans of a traced
run are written to ``.perfbench/spans-<workload>-<seed>.jsonl``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
from pathlib import Path

CHECKOUT = Path(__file__).resolve().parent.parent
# Set up at least three times and for at least two seconds, so that a
# set-up of a few milliseconds still gets a steady median. The machine's
# speed can swing 2x within ten seconds, so the set-ups are spread over
# the measured window rather than timed in one block before it.
SETUP_REPEATS = 3
SETUP_MIN_SECONDS = 2.0
MB = 1_000_000


def _load_program():
    """Import the program and the fixtures it is checked against."""
    needed = (CHECKOUT / "src" / "repeton" / "__init__.py", CHECKOUT / "tests" / "calcfix.py")
    if not all(path.is_file() for path in needed):
        raise SystemExit(f"error: no repeton sources under {CHECKOUT}; run from a full checkout")
    sys.path[:0] = [str(CHECKOUT / "src"), str(CHECKOUT / "tests"), str(Path(__file__).parent)]
    import layertrace
    import workloads

    return workloads, layertrace


def tail(values: list[float]) -> tuple[float, str]:
    """The highest percentile with at least ten samples beyond it, or the
    maximum when fewer than 20 samples leave no such percentile at or
    above the median."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 20:
        return ordered[-1], f"max of {n}"
    return ordered[n - 11], f"p{100 * (n - 10) / n:.1f} of {n}"


def measure(workload, prepared, seconds: float, work_root: Path, ids, between=None):
    """Closed loop: whole cycles until ``seconds`` of cycles have passed.
    After each cycle ``between(share of seconds done)`` runs, if given,
    outside the clock. Returns the records and the wall and CPU seconds
    spent inside repeton."""
    records, busy, cpu, elapsed = [], 0.0, 0.0, 0.0
    while elapsed < seconds:
        start = time.perf_counter()
        cycle = workload.cycle(prepared, work_root, ids)
        elapsed += time.perf_counter() - start
        records += cycle.records
        busy += cycle.busy_s
        cpu += cycle.cpu_s
        if between:
            between(elapsed / seconds)
    return records, busy, cpu


def end_to_end(workload, seed: int, seconds: float, tmp: Path):
    setups: list[float] = []

    def set_up():
        workdir = tmp / f"setup-{len(setups)}"
        start = time.perf_counter()
        prepared = workload.setup(seed, workdir)
        setups.append(time.perf_counter() - start)
        return prepared, workdir

    def keep_pace(done: float) -> None:
        """Set up again until set-up time keeps pace with the measured share."""
        while sum(setups) < budget * min(done, 1) or (done >= 1 and len(setups) < SETUP_REPEATS):
            shutil.rmtree(set_up()[1])

    prepared, _workdir = set_up()
    budget = max(SETUP_MIN_SECONDS, SETUP_REPEATS * setups[0])
    records, busy, _cpu = measure(
        workload, prepared, seconds, tmp / "work", itertools.count(1), keep_pace)
    times = [r.seconds for r in records]
    tail_value, tail_name = tail(times)
    n = len(records)
    metrics = {
        "task_s.p50": (statistics.median(times), f"n={n}"),
        "task_s.tail": (tail_value, tail_name),
        "tasks_per_s": (n / busy, f"{n} tasks in {busy:.2f} s"),
        "disk_mb_per_task": (statistics.fmean(r.disk_bytes for r in records) / MB, f"n={n}"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MB, "n=1"),
        "setup_s": (statistics.median(setups), f"median of {len(setups)}"),
    }
    return records, metrics, []


def per_layer(layertrace, workload, seed: int, seconds: float, tmp: Path, spans_path: Path):
    prepared = workload.setup(seed, tmp / "setup")
    ids = itertools.count(1)
    plain, _busy, cpu = measure(workload, prepared, seconds / 2, tmp / "work", ids)
    tracer = layertrace.Tracer()
    tracer.install(str(CHECKOUT))
    try:
        traced, _busy, _cpu = measure(workload, prepared, seconds / 2, tmp / "work", ids)
    finally:
        tracer.uninstall()
    tracer.write(spans_path)

    roots = sorted(s.task for s in tracer.spans if s.name == "orchestrator.run_irv")
    if roots != sorted(r.instance_id for r in traced):
        # Without one run_irv span per task no span can be attributed.
        raise SystemExit(f"error: {len(roots)} traced run_irv spans for {len(traced)} tasks")
    layers = layertrace.layer_metrics(tracer.spans)
    untraced_p50 = statistics.median(r.seconds for r in plain)
    traced_p50 = statistics.median(r.seconds for r in traced)
    layers["bench.cpu_s_per_task"] = cpu / len(plain)
    layers["trace.task_s.p50"] = traced_p50
    layers["trace.overhead_s"] = traced_p50 - untraced_p50
    problems = [
        f"{name} per task is {layers[name]:.0f}, below the floor of {floor}"
        for name, floor in prepared.floors.items()
        if layers[name] < floor
    ]
    metrics = {name: (value, f"{len(traced)} traced tasks") for name, value in layers.items()}
    return plain + traced, metrics, problems


def main(argv: list[str] | None = None) -> int:
    workloads, layertrace = _load_program()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]

    base = CHECKOUT / ".perfbench"
    base.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=base))
    # A terminated run still removes its temporary directory.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        if args.trace:
            spans_path = base / f"spans-{args.workload}-{args.seed}.jsonl"
            records, metrics, problems = per_layer(
                layertrace, workload, args.seed, args.seconds, tmp, spans_path)
        else:
            records, metrics, problems = end_to_end(
                workload, args.seed, args.seconds, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    declared = json.loads((CHECKOUT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(metrics):
        raise SystemExit(f"error: metrics {sorted(set(units) ^ set(metrics))} "
                         "are not both measured and declared in BENCHMARK.json")
    failures = [r for r in records if r.failure]
    print(f"workload {args.workload}, seed {args.seed}, {len(records)} tasks")
    for name in units:
        value, note = metrics[name]
        print(f"  {name:32s} {value:14.6f} {units[name]:6s} ({note})")
    print(f"  {'failed_ratio':32s} {len(failures) / len(records):14.6f} ratio  "
          f"({len(failures)} of {len(records)})")
    for record in failures[:5]:
        print(f"  FAILED {record.instance_id}: {record.failure}")
    for problem in problems:
        print(f"  FAILED check: {problem}")
    correct = not failures and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name][0], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
