"""The repository benchmark: four workloads, end-to-end and per-layer
metrics, measured from outside the program.

Run every workload, each in a fresh process, and print the end-to-end
metrics (``--traced`` prints the per-layer budget instead)::

    python bench/run.py [--seed 1979] [--traced] [--smoke] [--out FILE]

Run one workload in this process, for a fixed time, and print its
result as one JSON object on the last line of standard output::

    python bench/run.py --workload inventory-journaled --seed 7 \\
        --seconds 15 --trace 0

``BENCHMARK.json`` at the repository root names the workloads and the
metrics, with their units, directions and regression bounds; this
script reads it, so the names it prints cannot drift from it.  The
program is imported from ``src/`` next to this directory and nowhere
else: in a directory without it the command exits 2 before measuring.
Durable files (checkpoints, the service spool) go to a scratch
directory under ``.bench_work/`` in the same checkout.  Flush policy:
the program's every ``os.fsync`` is still called and counted, but
returns without waiting for the device, as it does on tmpfs (see
:class:`FlushPolicy`).

Exit status: 0 when every output check passed, 1 when a check failed
(the result is still printed, with ``"correct": false``), 2 when the
benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parents[1]
SOURCE = ROOT / "src"
BENCHMARK = ROOT / "BENCHMARK.json"
WORK_ROOT = ROOT / ".bench_work"

#: Fresh set-ups per run, ``setup_s`` being their median: at least
#: ``SETUPS``, more while they have taken under ``SETUP_BUDGET`` seconds
#: in all, at most ``MAX_SETUPS``.  A set-up of a few milliseconds is
#: repeated more often, so that its median is as steady as a longer
#: one's.
SETUPS = 3
MAX_SETUPS = 15
SETUP_BUDGET = 2.0

#: Durations of at least this many ops are taken even when one op
#: outlasts the time budget, so that a median exists.
MIN_OPS = 2


def fail(message: str) -> None:
    """Stop with exit status 2: the benchmark cannot run here."""
    print(f"bench: {message}", file=sys.stderr)
    raise SystemExit(2)


def load_benchmark() -> dict[str, Any]:
    """The benchmark description at the repository root."""
    return json.loads(BENCHMARK.read_text())


def import_program() -> None:
    """Put this checkout's ``src/`` first on the path and import the
    program from it, or exit 2."""
    if not (SOURCE / "repro" / "__init__.py").is_file():
        fail(f"no program source at {SOURCE}; run the benchmark from a "
             f"checkout of the repository")
    sys.path[:0] = [str(SOURCE), str(ROOT)]
    import repro

    if Path(repro.__file__).resolve().parent != SOURCE / "repro":
        fail(f"imported repro from {repro.__file__}, not from {SOURCE}")


#: How the benchmark treats the program's flushes (see FlushPolicy).
FLUSH_POLICY = ("every os.fsync is called and counted; it returns without "
                "waiting for the device, as on tmpfs")


class FlushPolicy:
    """Counts ``os.fsync`` calls and answers them without a device flush.

    A flush on a shared virtual disk takes anywhere from a fraction of
    a millisecond to tens of milliseconds, which moved identical
    journaled batches by up to 40%.  Like a spool on tmpfs, the
    benchmark keeps every flush call (checked against the descriptor
    and counted) but not the device's latency.  Worker processes of the
    parallel engine start from a fresh interpreter and flush for real;
    they write one shard per chunk of 64 programs.
    """

    def __init__(self) -> None:
        self.calls = 0
        self._lock = threading.Lock()
        self._original = os.fsync

    def fsync(self, fd: Any) -> None:
        os.fstat(fd if isinstance(fd, int) else fd.fileno())
        with self._lock:
            self.calls += 1

    def __enter__(self) -> "FlushPolicy":
        os.fsync = self.fsync
        return self

    def __exit__(self, *exc_info: object) -> None:
        os.fsync = self._original


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def spread(values: list[float]) -> dict[str, float]:
    """Median, quartiles and count of a sample."""
    if len(values) > 1:
        q1, _q2, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"value": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def peak_rss_mb() -> float:
    """The largest resident set of this process and of any child it has
    waited for, in MiB (``ru_maxrss`` is KiB on Linux)."""
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024


def end_to_end(setups: list[float], ops: list[dict]) -> dict[str, dict]:
    """The end-to-end metrics of one run."""
    seconds = [op["seconds"] for op in ops]
    rates = [op["items"] / op["seconds"] for op in ops]
    latency = spread([value * 1e3 for value in seconds])
    throughput = spread(rates)
    throughput["value"] = sum(op["items"] for op in ops) / sum(seconds)
    rss = peak_rss_mb()
    return {
        "setup_s": spread(setups),
        "op_p50_ms": latency,
        "programs_per_s": throughput,
        "peak_rss_mb": {"value": rss, "q1": rss, "q3": rss, "n": 1},
    }


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------


def entry_metrics(snapshot: dict, ops: int, wall: float) -> dict[str, float]:
    """``<entry>.self_share`` and ``<entry>.calls`` for every timed
    entry point: self time as a share of the ops' wall time, and calls
    per op."""
    from bench.timers import entry_names

    metrics = {}
    for name in entry_names():
        calls, _total, own = snapshot.get(name, (0, 0.0, 0.0))
        metrics[f"{name}.self_share"] = own / wall
        metrics[f"{name}.calls"] = calls / ops
    return metrics


def layer_metrics(workload: Any, plain: list[dict], traced: list[dict],
                  snapshot: dict, counters: dict[str, int],
                  registry: dict[str, int],
                  reference: tuple[dict, int, float, dict] | None
                  ) -> dict[str, float]:
    """Every per-layer metric of one traced run.  Entry points and
    registry counters the traced ops never reached are taken from the
    workload's traced ``reference`` run, if it has one."""
    from bench.timers import entry_names
    from bench.workloads import (
        EXTRA_LAYER_METRICS,
        FAILED_STATUSES,
        STAGE_OUTCOMES,
        OpClock,
    )

    ops = len(traced)
    _calls, wall, root_self = snapshot[OpClock.ROOT]
    metrics = entry_metrics(snapshot, ops, wall)
    if reference is not None:
        ref_snapshot, ref_ops, ref_wall, ref_registry = reference
        from_reference = entry_metrics(ref_snapshot, ref_ops, ref_wall)
        for name in entry_names():
            if snapshot.get(name, (0,))[0] == 0 \
                    and ref_snapshot.get(name, (0,))[0] > 0:
                for stat in ("self_share", "calls"):
                    key = f"{name}.{stat}"
                    metrics[key] = from_reference[key]
        registry = dict(registry)
        for name, value in ref_registry.items():
            if not registry.get(name):
                registry[name] = value / ref_ops * ops

    executor = snapshot.get("service.execute")
    if executor:
        # The service converts on its executor thread, concurrently with
        # the client's wait: reconcile that thread's busy time instead.
        other = executor[2] / executor[1]
    else:
        other = root_self / wall
    metrics["trace.op_wall_s"] = wall / ops
    metrics["trace.ops"] = float(ops)
    metrics["trace.other_share"] = other
    metrics["observe.trace_overhead"] = (
        statistics.median(op["seconds"] for op in traced)
        / statistics.median(op["seconds"] for op in plain) - 1.0)

    items = statistics.mean(op["items"] for op in traced)
    journal = counters.get("batch.journal.bytes_written", 0) / ops
    final = workload.final_checkpoint_bytes()
    metrics["batch.journal.bytes_written"] = journal
    metrics["batch.journal.bytes_per_program"] = journal / items
    metrics["batch.journal.write_amplification"] = \
        journal / final if final else 0.0
    metrics["jsonio.bytes_written"] = \
        counters.get("jsonio.bytes_written", 0) / ops
    metrics["jsonio.fsyncs"] = registry.get("jsonio.fsyncs", 0) / ops
    for key in ("parallel.sent_bytes", "parallel.received_bytes"):
        metrics[key] = counters.get(key, 0) / ops
    for key in ("cost.rewrite_skips", "supervision.respawns",
                "supervision.chunks_redealt", "supervision.quarantined",
                "supervision.timeouts"):
        metrics[key] = registry.get(key, 0) / ops

    summaries = workload.summaries
    count = len(summaries) or 1
    outcomes = dict.fromkeys(STAGE_OUTCOMES, 0)
    for summary in summaries:
        for stage in summary["stages"]:
            outcomes[stage["outcome"]] = outcomes.get(stage["outcome"], 0) + 1
    for outcome in STAGE_OUTCOMES:
        metrics[f"strategies.cascade.outcome.{outcome}"] = \
            outcomes[outcome] / count
    metrics["strategies.cascade.rewrite_frac"] = sum(
        1 for summary in summaries if summary["strategy"] == "rewrite") / count
    metrics["strategies.cascade.failed_frac"] = sum(
        1 for summary in summaries
        if summary["status"] in FAILED_STATUSES) / count
    metrics.update(dict.fromkeys(EXTRA_LAYER_METRICS, 0.0))
    metrics.update(workload.layer_extras(plain, traced, metrics))
    return metrics


# ---------------------------------------------------------------------------
# One workload, in this process
# ---------------------------------------------------------------------------


def measure(workload: Any, budget: float, timers: Any = None,
            flush: FlushPolicy | None = None
            ) -> tuple[list[dict], list[dict], dict[str, int]]:
    """Time ops for about ``budget`` seconds: another op starts only if
    it should end within half an op of the budget.

    With ``timers``, ops alternate between untraced and traced (timers
    installed for that op only), the traced op repeating its untraced
    partner's inputs, so that both kinds see the same inputs and host
    conditions.  Returns the untraced ops, the traced ops, and the
    registry counters and flushes that moved during traced ops.
    """
    from bench.workloads import OpClock, counter_movement
    from repro.observe.registry import get_registry

    registry = get_registry()
    plain: list[dict] = []
    traced: list[dict] = []
    moved: dict[str, int] = {}
    least = MIN_OPS if timers is None else 2 * MIN_OPS
    started = time.perf_counter()
    while True:
        tracing = timers is not None and len(plain) > len(traced)
        clock = OpClock(timers if tracing else None)
        if tracing:
            before, fsyncs = registry.snapshot(), flush.calls
            timers.install()
            try:
                record = workload.op(clock, repeat=True)
            finally:
                timers.uninstall()
            delta = counter_movement(before, registry.snapshot())
            delta["jsonio.fsyncs"] = flush.calls - fsyncs
            for name, value in delta.items():
                moved[name] = moved.get(name, 0) + value
        else:
            record = workload.op(clock)
        record["seconds"] = clock.seconds
        (traced if tracing else plain).append(record)
        done = len(plain) + len(traced)
        elapsed = time.perf_counter() - started
        mean = elapsed / done
        if done >= least and elapsed + mean > budget + mean / 2:
            break
    return plain, traced, moved


def want_setup(setups: list[float], smoke: bool) -> bool:
    """Whether to time another fresh set-up, given those timed so far
    (a smoke run sets up once)."""
    if not setups:
        return True
    if smoke:
        return False
    if len(setups) < SETUPS:
        return True
    return len(setups) < MAX_SETUPS and sum(setups) < SETUP_BUDGET


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool, corrupt_reference: bool) -> dict[str, Any]:
    """Set up, measure and check one workload; the full run record."""
    from bench.timers import LayerTimers
    from bench.workloads import WORKLOADS

    started = time.perf_counter()
    work = WORK_ROOT / f"{name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[name](seed, smoke, work, corrupt_reference)
    record: dict[str, Any] = {"workload": name, "seed": seed,
                              "sizes": workload.sizes(), "smoke": smoke,
                              "durable_dir": str(work.relative_to(ROOT)),
                              "durable_fs": filesystem_type(work),
                              "flush_policy": FLUSH_POLICY}
    timers = LayerTimers() if trace else None
    with FlushPolicy() as flush:
        try:
            workload.make_inputs()
            setups: list[float] = []
            while want_setup(setups, smoke):
                if setups:
                    workload.teardown()
                begun = time.perf_counter()
                workload.setup()
                setups.append(time.perf_counter() - begun)
            workload.warm_up()
            plain, traced, moved = measure(workload, seconds, timers, flush)
            problems = workload.check()
            if timers is not None:
                snapshot, counters = timers.snapshot(), dict(timers.counters)
                reference = workload.traced_reference(timers)
                record["layers"] = layer_metrics(workload, plain, traced,
                                                 snapshot, counters, moved,
                                                 reference)
            record["report_lines"] = workload.report_lines(plain)
        finally:
            workload.teardown()
            stop_resource_tracker()
            shutil.rmtree(work, ignore_errors=True)
    # After the teardown, so that the pool's workers have been reaped
    # and count towards the peak resident set.
    record["end_to_end"] = end_to_end(setups, plain)
    every = plain + traced
    record.update({
        "setup_samples": setups,
        "ops": {"untraced": len(plain), "traced": len(traced)},
        "op_seconds": [op["seconds"] for op in plain],
        "attempted": sum(op["items"] for op in every),
        "failed": sum(op["failed"] for op in every),
        "problems": problems,
        "correct": not problems,
        "run_seconds": time.perf_counter() - started,
    })
    return record


def stop_resource_tracker() -> None:
    """Stop the resource tracker process that multiprocessing starts
    with the pool's first worker, and wait for it to end.

    Left alone, the tracker outlives this process until it notices its
    pipe closing.  The closed pool's queues are released first: their
    feeder threads are waited for, so that every queue semaphore is
    freed and unregistered while the tracker still runs (a later
    unregistration would start a new tracker).
    """
    import gc
    from multiprocessing import resource_tracker

    gc.collect()
    for thread in threading.enumerate():
        if thread.name == "QueueFeederThread":
            thread.join(timeout=10)
    gc.collect()
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def filesystem_type(path: Path) -> str:
    """The type of the filesystem holding ``path``, from the mount
    table (``unknown`` where there is none)."""
    best, kind = "", "unknown"
    try:
        mounts = Path("/proc/mounts").read_text().splitlines()
    except OSError:
        return kind
    resolved = str(path.resolve())
    for line in mounts:
        fields = line.split()
        if len(fields) < 3:
            continue
        point = fields[1]
        inside = resolved == point or resolved.startswith(
            point.rstrip("/") + "/")
        if inside and len(point) > len(best):
            best, kind = point, fields[2]
    return kind


def selected_metrics(record: dict[str, Any], trace: bool,
                     benchmark: dict[str, Any]) -> dict[str, dict]:
    """The metrics the last output line carries, named and united as in
    ``BENCHMARK.json``."""
    if trace:
        values = record["layers"]
        declared = benchmark["per_layer"]
    else:
        values = {name: entry["value"]
                  for name, entry in record["end_to_end"].items()}
        declared = benchmark["end_to_end"]
    missing = [metric["name"] for metric in declared
               if metric["name"] not in values]
    if missing:
        raise KeyError(f"metrics not measured: {missing}")
    return {metric["name"]: {"value": values[metric["name"]],
                             "unit": metric["unit"]}
            for metric in declared}


def print_table(record: dict[str, Any], metrics: dict[str, dict]) -> None:
    name = record["workload"]
    print(f"{name}: {record['ops']['untraced']} untraced op(s), "
          f"{record['ops']['traced']} traced op(s), "
          f"{record['attempted']} program(s), {record['failed']} failed, "
          f"outputs {'correct' if record['correct'] else 'INCORRECT'}")
    for metric, entry in metrics.items():
        detail = record.get("end_to_end", {}).get(metric)
        extra = ""
        if detail and detail["n"] > 1:
            extra = (f"  (IQR {detail['q1']:.6g}..{detail['q3']:.6g}, "
                     f"n={detail['n']})")
        print(f"  {name:<20} {metric:<48} {entry['value']:>14.6g} "
              f"{entry['unit']}{extra}")
    for line in record.get("report_lines", ()):
        print(f"  {name:<20} {line}")
    for problem in record["problems"]:
        print(f"  {name:<20} CHECK FAILED: {problem}")


def main_workload(args: argparse.Namespace) -> int:
    benchmark = load_benchmark()
    names = [workload["name"] for workload in benchmark["workloads"]]
    if args.workload not in names:
        fail(f"unknown workload {args.workload!r}; choose from {names}")
    seconds = args.seconds if args.seconds is not None \
        else benchmark["run_seconds"]
    record = run_workload(args.workload, args.seed, seconds,
                          bool(args.trace), args.smoke,
                          args.corrupt_reference)
    metrics = selected_metrics(record, bool(args.trace), benchmark)
    if args.detail:
        Path(args.detail).write_text(json.dumps(record, indent=2) + "\n")
    print_table(record, metrics)
    print(json.dumps({"correct": record["correct"],
                      "attempted": record["attempted"],
                      "failed": record["failed"],
                      "metrics": metrics}), flush=True)
    return 0 if record["correct"] else 1


# ---------------------------------------------------------------------------
# Every workload, each in a fresh process
# ---------------------------------------------------------------------------


def git_head() -> str | None:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def main_all(args: argparse.Namespace) -> int:
    benchmark = load_benchmark()
    seconds = args.seconds if args.seconds is not None \
        else (1.0 if args.smoke else benchmark["run_seconds"])
    started = time.perf_counter()
    WORK_ROOT.mkdir(parents=True, exist_ok=True)
    result: dict[str, Any] = {
        "provenance": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "git_head": git_head(),
            "seed": args.seed,
            "seconds_per_run": seconds,
            "traced": bool(args.trace),
            "smoke": args.smoke,
        },
        "workloads": {},
    }
    status = 0
    for workload in benchmark["workloads"]:
        name = workload["name"]
        detail = WORK_ROOT / f"detail-{name}-{os.getpid()}.json"
        command = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(seconds),
                   "--trace", str(args.trace),
                   "--detail", str(detail)]
        if args.smoke:
            command.append("--smoke")
        if args.corrupt_reference:
            command.append("--corrupt-reference")
        done = subprocess.run(command, capture_output=True, text=True)
        lines = done.stdout.splitlines()
        if lines and lines[-1].startswith("{"):
            lines.pop()
        for line in lines:
            print(line)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            status = max(status, done.returncode)
        if detail.exists():
            result["workloads"][name] = json.loads(detail.read_text())
            detail.unlink()
        else:
            result["workloads"][name] = {"correct": False,
                                         "exit_code": done.returncode}
    provenance = result["provenance"]
    durable = [record.get("durable_fs") for record in
               result["workloads"].values() if record.get("durable_fs")]
    provenance["durable_dir"] = str(WORK_ROOT.relative_to(ROOT))
    provenance["durable_fs"] = durable[0] if durable else None
    provenance["total_run_seconds"] = time.perf_counter() - started
    out = Path(args.out) if args.out else WORK_ROOT / "result.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=2) + "\n")
    print(f"result written to {out}")
    return status


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="Run the repository benchmark (see bench/README.md).")
    parser.add_argument("--workload",
                        help="run only this workload, in this process, and "
                             "print its result as JSON on the last line")
    parser.add_argument("--seed", type=int, default=1979,
                        help="seed every input is generated from")
    parser.add_argument("--seconds", type=float,
                        help="measured seconds per workload (default: "
                             "run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: measure the per-layer metrics (a traced "
                             "run) instead of the end-to-end ones")
    parser.add_argument("--traced", dest="trace", action="store_const",
                        const=1, help="the same as --trace 1")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and a one-second budget")
    parser.add_argument("--out",
                        help="result file of a run of every workload "
                             "(default: .bench_work/result.json)")
    parser.add_argument("--detail",
                        help="with --workload: write the full run record "
                             "to this file")
    parser.add_argument("--corrupt-reference", action="store_true",
                        help="corrupt every reference digest, so the output "
                             "checks must fail (the self-test's proof that "
                             "they can)")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not BENCHMARK.is_file():
        fail(f"{BENCHMARK} is missing")
    import_program()
    if args.workload:
        return main_workload(args)
    return main_all(args)


if __name__ == "__main__":
    sys.exit(main())
