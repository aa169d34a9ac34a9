"""The benchmark's four workloads.

Each workload drives the program through its public modules only
(:mod:`repro.api`, :mod:`repro.workloads`, the strategies, and the
embeddable :class:`~repro.service.server.ConversionService`) and splits
its work into *ops*, the unit a user waits for:

=====================  ==================================================
workload               one op
=====================  ==================================================
inventory-journaled    a checkpointed serial batch (the CLI's
                       ``repro convert --checkpoint``)
inventory-parallel     a checkpointed two-worker batch on a warm pool
service-closed-loop    one served job, from the POST being sent to the
                       end of its event stream
strategy-sweep         one pass of the COMPANY corpus natively and under
                       rewrite, emulation and bridge
=====================  ==================================================

The runner (``bench/run.py``) times set-up, warms up, times ops for a
fixed number of seconds, then calls :meth:`Workload.check`, which
compares the outputs against references and returns the mismatches.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import math
import random
import statistics
import time
from pathlib import Path
from typing import Any

from repro import api
from repro.batch import CHECKPOINT_VERSION
from repro.core.analyzer_db import ConversionAnalyzer
from repro.engine.metrics import MetricsScope
from repro.jsonio import write_json_atomic
from repro.observe.registry import get_registry
from repro.options import ConversionOptions
from repro.programs import interpreter
from repro.programs.ast import render_program
from repro.programs.interpreter import ProgramInputs
from repro.programs.parser import parse_program
from repro.restructure import restructure_database
from repro.service.server import ConversionService
from repro.service.sse import parse_events
from repro.strategies import BridgeStrategy, EmulationStrategy, RewriteStrategy
from repro.workloads import company
from repro.workloads.inventory import InventorySpec, inventory_ddl

from bench.inputs import (
    TERMINAL_INPUTS,
    inventory_corpus,
    loader_text,
    restructuring_spec,
    sweep_corpus,
)

#: Report statuses that count as a failed program.
FAILED_STATUSES = ("failed", "quarantined")

#: Per-layer metrics of :meth:`Workload.layer_extras`; a workload that
#: does not exercise the layer reports 0.
EXTRA_LAYER_METRICS = (
    "strategies.native.access_cost", "strategies.native.pass_share",
    "strategies.rewrite.wall_ratio", "strategies.rewrite.cost_ratio",
    "strategies.emulation.wall_ratio", "strategies.emulation.cost_ratio",
    "strategies.bridge.wall_ratio", "strategies.bridge.cost_ratio",
    "engine.emulation_mappings", "engine.bridge_materializations",
    "parallel.seed_bytes", "parallel.speedup_vs_serial",
    "parallel.coordinator_other_share", "service.submit_rtt_share",
    "service.queue_wait_share", "service.job_tail_over_p50",
    "service.spool.bytes_per_job", "service.sse.events_per_job",
)

#: Cascade stage outcomes, counted per report in the traced run.
STAGE_OUTCOMES = ("validated", "validated-reordered", "unconverted", "error",
                  "divergent")


def digest(data: bytes) -> str:
    """The SHA-256 hex digest the correctness checks compare."""
    return hashlib.sha256(data).hexdigest()


def counter_movement(before: dict[str, int], after: dict[str, int]
                     ) -> dict[str, int]:
    """Registry counter growth between two snapshots.  Worker deltas
    are held weakly by the registry and may vanish, so a counter never
    moves below zero."""
    return {name: max(0, value - before.get(name, 0))
            for name, value in after.items()}


def summaries_bytes(summaries: list[dict]) -> bytes:
    """Report summaries as canonical bytes, independent of dict order."""
    return json.dumps(summaries, sort_keys=True).encode("utf-8")


class OpClock:
    """Times one op; for a traced op it also opens the root span the
    layer timers reconcile against."""

    ROOT = "bench.op"

    def __init__(self, timers: Any = None) -> None:
        self.timers = timers
        self.seconds = 0.0
        self._span: Any = None
        self._start = 0.0

    def __enter__(self) -> "OpClock":
        if self.timers is not None:
            self._span = self.timers.span(self.ROOT)
            self._span.__enter__()
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.seconds = time.perf_counter() - self._start
        if self._span is not None:
            self._span.__exit__(*exc_info)
            self._span = None


class Workload:
    """One named workload: inputs, set-up, ops, and the output checks."""

    name = ""

    def __init__(self, seed: int, smoke: bool, work: Path,
                 corrupt_reference: bool = False) -> None:
        self.seed = seed
        self.smoke = smoke
        self.work = work
        self.corrupt_reference = corrupt_reference
        #: Report summaries for the traced run's outcome counts.
        self.summaries: list[dict] = []

    def reference_digest(self, data: bytes) -> str:
        """The digest of a reference output; a deliberately corrupted
        one when the self-test asks the gate to prove it fails."""
        if self.corrupt_reference:
            return "0" * 64
        return digest(data)

    def sizes(self) -> dict[str, Any]:
        """The input sizes recorded in the result's provenance."""
        raise NotImplementedError

    def make_inputs(self) -> None:
        """Generate every input from the seed (not timed)."""

    def setup(self) -> None:
        """One fresh set-up, until the workload is ready (timed)."""
        raise NotImplementedError

    def teardown(self) -> None:
        """Release what :meth:`setup` started."""

    def warm_up(self) -> None:
        """Fill caches before the first timed op."""

    def op(self, clock: OpClock, repeat: bool = False) -> dict[str, Any]:
        """Run one op with its timed part under ``clock``; ``repeat``
        runs the previous op's inputs again.  Returns at least ``items``
        (programs processed) and ``failed`` (programs that failed)."""
        raise NotImplementedError

    def check(self) -> list[str]:
        """Compare outputs with references; one line per mismatch."""
        return []

    def traced_reference(self, timers: Any
                         ) -> tuple[dict, int, float, dict] | None:
        """For layers the workload's own ops cannot see (parallel
        workers): the timer snapshot, op count, wall seconds and
        registry movement of a traced reference run.  ``None`` when the
        ops see every layer they exercise."""
        return None

    def final_checkpoint_bytes(self) -> int:
        """Size of the latest op's final checkpoint (0: none)."""
        return 0

    def layer_extras(self, plain: list[dict], traced: list[dict],
                     layers: dict[str, float]) -> dict[str, float]:
        """Workload-specific per-layer metrics, given the untraced and
        traced ops and the generic per-layer metrics."""
        return {}

    def report_lines(self, plain: list[dict]) -> list[str]:
        """Extra human-readable lines for the results table."""
        return []


# ---------------------------------------------------------------------------
# Inventory batches
# ---------------------------------------------------------------------------


class InventoryJournaled(Workload):
    """A checkpointed serial batch at inventory scale."""

    name = "inventory-journaled"
    pathology_rate = 0.25

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.programs_count = 40 if self.smoke else 300
        self.warm_up_count = 8 if self.smoke else 30
        self.options = ConversionOptions(
            inputs=ProgramInputs(terminal=list(TERMINAL_INPUTS)))
        self.op_digests: list[tuple[str, str]] = []
        self.first_summaries: list[dict] = []
        self.last_checkpoint_size = 0

    def sizes(self) -> dict[str, Any]:
        return {"programs": self.programs_count,
                "pathology_rate": self.pathology_rate,
                "warm_up_programs": self.warm_up_count}

    def make_inputs(self) -> None:
        spec = InventorySpec(seed=self.seed, programs=self.programs_count,
                             pathology_rate=self.pathology_rate)
        self.programs = [item.program for item in inventory_corpus(spec)]
        self.names = [program.name for program in self.programs]
        self.ddl = inventory_ddl(spec)
        self.restructuring = restructuring_spec()
        self.loader = loader_text(spec)

    def build_cascade(self) -> Any:
        return api.build_cascade(self.ddl, self.restructuring,
                                 data=self.loader, options=self.options)

    def setup(self) -> None:
        self.cascade = self.build_cascade()

    def warm_up(self) -> None:
        path = self.work / "warm-up-checkpoint.json"
        api.convert_batch(self.cascade, self.programs[: self.warm_up_count],
                          self.options.replace(checkpoint=path))
        path.unlink()

    def convert(self, checkpoint: Path) -> Any:
        return api.convert_batch(self.cascade, self.programs,
                                 self.options.replace(checkpoint=checkpoint))

    def op(self, clock: OpClock, repeat: bool = False) -> dict[str, Any]:
        path = self.work / f"checkpoint-{len(self.op_digests)}.json"
        with clock:
            batch = self.convert(path)
        self.summaries = [report.to_summary() for report in batch.reports]
        if not self.op_digests:
            self.first_summaries = self.summaries
        data = path.read_bytes()
        self.last_checkpoint_size = len(data)
        self.op_digests.append((digest(summaries_bytes(self.summaries)),
                                digest(data)))
        path.unlink()
        failed = sum(1 for entry in self.summaries
                     if entry["status"] in FAILED_STATUSES)
        return {"items": len(self.programs), "failed": failed}

    def final_checkpoint_bytes(self) -> int:
        return self.last_checkpoint_size

    def compare_batches(self, summaries: list[dict], source: str
                        ) -> list[str]:
        """Every timed batch's reports and final checkpoint against a
        reference batch's report summaries.  The reference checkpoint is
        the canonical journal document of those summaries, written once
        through the program's atomic writer."""
        if not self.op_digests:
            return ["no batch was converted"]
        path = self.work / "reference-checkpoint.json"
        write_json_atomic({"version": CHECKPOINT_VERSION,
                           "programs": self.names,
                           "completed": summaries}, path)
        canonical = self.reference_digest(path.read_bytes())
        path.unlink()
        expected = self.reference_digest(summaries_bytes(summaries))
        problems = []
        for index, (reports, checkpoint) in enumerate(self.op_digests):
            if reports != expected:
                problems.append(f"batch {index}: reports differ from "
                                f"{source}")
            if checkpoint != canonical:
                problems.append(f"batch {index}: checkpoint bytes differ "
                                f"from the journal document of {source}")
        return problems

    def check(self) -> list[str]:
        return self.compare_batches(self.first_summaries, "batch 0")


class InventoryParallel(InventoryJournaled):
    """A checkpointed two-worker batch on a warm pool."""

    name = "inventory-parallel"
    pathology_rate = 0.75
    jobs = 2
    priming_programs = 4

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.programs_count = 64 if self.smoke else 1200
        # parallel_threshold=1 pins the pool path for every batch size.
        self.options = self.options.replace(jobs=self.jobs,
                                            parallel_threshold=1)
        self.pool: Any = None
        self.serial_seconds = 0.0

    def sizes(self) -> dict[str, Any]:
        return {"programs": self.programs_count,
                "pathology_rate": self.pathology_rate, "jobs": self.jobs,
                "priming_programs": self.priming_programs}

    def setup(self) -> None:
        self.cascade = self.build_cascade()
        self.pool = api.WorkerPool(self.cascade, self.options,
                                   jobs=self.jobs)
        path = self.work / "priming-checkpoint.json"
        api.convert_batch(self.cascade,
                          self.programs[: self.priming_programs],
                          self.options.replace(checkpoint=path),
                          pool=self.pool)
        path.unlink()

    def teardown(self) -> None:
        if self.pool is not None:
            self.pool.close()
            self.pool = None

    def warm_up(self) -> None:
        """The priming batch in :meth:`setup` already warmed the pool."""

    def convert(self, checkpoint: Path) -> Any:
        return api.convert_batch(self.cascade, self.programs,
                                 self.options.replace(checkpoint=checkpoint),
                                 pool=self.pool)

    def serial_reference(self) -> tuple[list[dict], float]:
        started = time.perf_counter()
        batch = api.convert_batch(self.cascade, self.programs,
                                  self.options.replace(jobs=1))
        seconds = time.perf_counter() - started
        return [report.to_summary() for report in batch.reports], seconds

    def check(self) -> list[str]:
        # The reference is a serial run of the same corpus, without a
        # checkpoint.
        summaries, self.serial_seconds = self.serial_reference()
        return self.compare_batches(summaries, "the serial reference")

    def traced_reference(self, timers: Any
                         ) -> tuple[dict, int, float, dict] | None:
        # Worker processes are never traced: their layers are timed on
        # the same corpus through the same convert_one, serially.
        registry = get_registry()
        before = registry.snapshot()
        timers.reset()
        timers.install()
        clock = OpClock(timers)
        try:
            with clock:
                self.serial_reference()
        finally:
            timers.uninstall()
        moved = counter_movement(before, registry.snapshot())
        return timers.snapshot(), 1, clock.seconds, moved

    def layer_extras(self, plain: list[dict], traced: list[dict],
                     layers: dict[str, float]) -> dict[str, float]:
        median_op = statistics.median(op["seconds"] for op in plain)
        return {
            "parallel.seed_bytes": float(len(self.pool.seed_blob)),
            "parallel.speedup_vs_serial": self.serial_seconds / median_op,
            # Coordinator time outside every timed entry point, chunk
            # pickling included, is the facade call's own time.
            "parallel.coordinator_other_share":
                layers["api.convert_batch.self_share"],
        }


# ---------------------------------------------------------------------------
# The conversion service
# ---------------------------------------------------------------------------


class ServiceClosedLoop(Workload):
    """One client submitting jobs to an in-process service, one at a
    time, each followed on its event stream to the end."""

    name = "service-closed-loop"
    #: The served job's options: a serial conversion.
    job_options = {"jobs": 1}

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.programs_per_job = 5 if self.smoke else 25
        self.distinct_jobs = 8 if self.smoke else 200
        self.warm_up_jobs = 2 if self.smoke else 5
        self.sample_jobs = 3 if self.smoke else 20
        self.service: Any = None
        self.spool = self.work
        self.setups = 0
        self.next_job = 0
        self.jobs: list[dict] = []

    def sizes(self) -> dict[str, Any]:
        return {"programs_per_job": self.programs_per_job,
                "distinct_jobs": self.distinct_jobs,
                "warm_up_jobs": self.warm_up_jobs,
                "sample_jobs": self.sample_jobs, "client_threads": 1}

    def make_inputs(self) -> None:
        # Slice 0 is the cold set-up job, then the warm-up jobs, then
        # the distinct timed jobs, which repeat if time remains.
        slices = 1 + self.warm_up_jobs + self.distinct_jobs
        spec = InventorySpec(seed=self.seed,
                             programs=slices * self.programs_per_job)
        self.corpus = inventory_corpus(spec)
        self.ddl = inventory_ddl(spec)
        self.restructuring = restructuring_spec()
        self.loader = loader_text(spec)

    def job_texts(self, index: int) -> list[str]:
        first = 1 + self.warm_up_jobs
        if index >= first:
            index = first + (index - first) % self.distinct_jobs
        start = index * self.programs_per_job
        return [render_program(item.program) for item in
                self.corpus[start:start + self.programs_per_job]]

    def payload(self, index: int) -> bytes:
        return json.dumps({
            "ddl": self.ddl,
            "spec": self.restructuring,
            "data": self.loader,
            "programs": self.job_texts(index),
            "inputs": list(TERMINAL_INPUTS),
            "options": self.job_options,
        }).encode("utf-8")

    def setup(self) -> None:
        self.spool = self.work / f"spool-{self.setups}"
        self.setups += 1
        self.service = ConversionService(self.spool, port=0).start()
        self.host, self.port = self.service.address
        self.connection = http.client.HTTPConnection(self.host, self.port,
                                                     timeout=120)
        # The first job of a fresh service pays the cold cascade build.
        self.submit(self.payload(0), OpClock())

    def teardown(self) -> None:
        if self.service is not None:
            self.connection.close()
            self.service.stop()
            self.service = None

    def warm_up(self) -> None:
        for index in range(1, 1 + self.warm_up_jobs):
            self.submit(self.payload(index), OpClock())
        self.next_job = 1 + self.warm_up_jobs

    def submit(self, body: bytes, clock: OpClock) -> dict:
        """POST one job and follow its event stream to the end."""
        job: dict[str, Any] = {"events": 0, "state": None, "programs": []}
        conn = self.connection
        with clock:
            sent = time.perf_counter()
            conn.request("POST", "/jobs", body=body,
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            accepted = json.loads(response.read())
            job["submit_rtt_s"] = time.perf_counter() - sent
            job["status"] = response.status
            if response.status == 202:
                job["id"] = accepted["id"]
                conn.request("GET", f"/jobs/{job['id']}/events")
                stream = conn.getresponse()
                for event, data in parse_events(stream):
                    job["events"] += 1
                    if event == "job":
                        job["state"] = data["state"]
                        if data["state"] == "running" \
                                and "queue_wait_s" not in job:
                            job["queue_wait_s"] = (time.perf_counter()
                                                   - sent
                                                   - job["submit_rtt_s"])
                    elif event == "program":
                        job["programs"].append(data["status"])
                stream.close()
        conn.close()
        job["seconds"] = clock.seconds
        return job

    def op(self, clock: OpClock, repeat: bool = False) -> dict[str, Any]:
        if not repeat:
            self.next_job += 1
        index = self.next_job - 1
        body = self.payload(index)
        job = self.submit(body, clock)
        job["index"] = index
        job["items"] = self.programs_per_job
        if job["status"] != 202 or job["state"] != "completed":
            job["failed"] = self.programs_per_job
        else:
            job["failed"] = sum(1 for status in job["programs"]
                                if status in FAILED_STATUSES)
        self.jobs.append(job)
        return job

    def fetch(self, path: str) -> bytes:
        self.connection.request("GET", path)
        response = self.connection.getresponse()
        return response.read()

    def check(self) -> list[str]:
        problems = []
        for job in self.jobs:
            if job["status"] != 202 or job["state"] != "completed":
                problems.append(f"job {job['index']}: HTTP {job['status']}, "
                                f"state {job['state']}")
        served = [job for job in self.jobs if "id" in job]
        if not served:
            return problems + ["no job was served"]
        sample = random.Random(self.seed).sample(
            served, min(self.sample_jobs, len(served)))
        cascade = api.build_cascade(self.ddl, self.restructuring,
                                    data=self.loader)
        options = ConversionOptions(
            inputs=ProgramInputs(terminal=list(TERMINAL_INPUTS)))
        for job in sorted(sample, key=lambda entry: entry["index"]):
            report = self.fetch(f"/jobs/{job['id']}/report")
            path = self.work / "reference-report.json"
            programs = [parse_program(text)
                        for text in self.job_texts(job["index"])]
            api.convert_batch(cascade, programs,
                              options.replace(report_json=path))
            expected = self.reference_digest(path.read_bytes())
            path.unlink()
            if digest(report) != expected:
                problems.append(f"job {job['index']}: served report differs "
                                f"from a CLI-equivalent conversion")
            self.summaries.extend(json.loads(report)["reports"])
        self.connection.close()
        return problems

    def layer_extras(self, plain: list[dict], traced: list[dict],
                     layers: dict[str, float]) -> dict[str, float]:
        served = [job for job in plain if "queue_wait_s" in job]
        if not served:
            return {}
        seconds = sorted(job["seconds"] for job in plain)
        p50 = statistics.median(seconds)
        spool = 0
        for job in served:
            job_dir = self.spool / job["id"]
            spool += sum(path.stat().st_size for path in job_dir.iterdir())
        return {
            "service.submit_rtt_share": statistics.median(
                job["submit_rtt_s"] / job["seconds"] for job in served),
            "service.queue_wait_share": statistics.median(
                job["queue_wait_s"] / job["seconds"] for job in served),
            "service.job_tail_over_p50":
                percentile(seconds, tail_quantile(len(seconds))) / p50,
            "service.spool.bytes_per_job": spool / len(served),
            "service.sse.events_per_job": statistics.fmean(
                job["events"] for job in served),
        }

    def report_lines(self, plain: list[dict]) -> list[str]:
        seconds = sorted(op["seconds"] for op in plain)
        q = tail_quantile(len(seconds))
        beyond = len(seconds) - math.ceil(q * len(seconds))
        return [f"job latency p{q * 100:.0f} "
                f"{percentile(seconds, q) * 1e3:.1f} ms over "
                f"{len(seconds)} jobs ({beyond} beyond it)"]


def percentile(ordered: list[float], q: float) -> float:
    """The nearest-rank ``q`` quantile of sorted values."""
    rank = max(0, min(len(ordered) - 1, math.ceil(q * len(ordered)) - 1))
    return ordered[rank]


def tail_quantile(count: int) -> float:
    """The highest whole-percent quantile of ``count`` samples with at
    least ten samples beyond it (the median for fewer than 20)."""
    return max(0.5, math.floor(100 * (1 - 10 / count)) / 100)


# ---------------------------------------------------------------------------
# Strategy sweep
# ---------------------------------------------------------------------------


class StrategySweep(Workload):
    """The COMPANY corpus natively and under the three strategies."""

    name = "strategy-sweep"
    strategies = ("native", "rewrite", "emulation", "bridge")

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.employees_per_division = 80 if self.smoke else 640
        self.programs_count = 4 if self.smoke else 12
        self.first_pass: dict[str, list[str]] | None = None
        self.mismatches: list[str] = []

    def sizes(self) -> dict[str, Any]:
        return {"programs": self.programs_count,
                "employees_per_division": self.employees_per_division,
                "strategies": list(self.strategies)}

    def make_inputs(self) -> None:
        self.programs = sweep_corpus(self.seed, self.programs_count)

    def setup(self) -> None:
        schema = company.figure_42_schema()
        operator = company.figure_44_operator()
        catalog = ConversionAnalyzer().analyze_operator(schema, operator)
        self.source = company.company_db(
            seed=self.seed,
            employees_per_division=self.employees_per_division)
        _schema, self.target = restructure_database(self.source, operator)
        self.runners = {
            "rewrite": RewriteStrategy(self.target, schema, operator),
            "emulation": EmulationStrategy(self.target, catalog),
            "bridge": BridgeStrategy(self.target, operator, catalog),
        }

    def warm_up(self) -> None:
        # Rewrite converts each program once and reuses the result; the
        # warm-up pass's traces are the ones every timed pass repeats.
        self.op(OpClock())

    def run_one(self, name: str, item: Any) -> tuple[Any, int, Any]:
        inputs = ProgramInputs(terminal=list(item.terminal_inputs))
        if name == "native":
            with MetricsScope(self.source.metrics) as scope:
                trace = interpreter.run_program(item.program, self.source,
                                                inputs, consistent=False)
            return trace, (scope.delta.total_accesses()
                           + scope.delta.emulation_mappings
                           + scope.delta.bridge_materializations), None
        run = self.runners[name].run(item.program, inputs)
        return run.trace, run.cost(), run.metrics

    def op(self, clock: OpClock, repeat: bool = False) -> dict[str, Any]:
        seconds = dict.fromkeys(self.strategies, 0.0)
        cost = dict.fromkeys(self.strategies, 0)
        traces: dict[str, list[Any]] = {name: [] for name in self.strategies}
        mappings = materializations = 0
        with clock:
            for index, item in enumerate(self.programs):
                # Rotate the strategy order so that none always runs
                # first, on caches the previous one left cold.
                shift = index % len(self.strategies)
                order = self.strategies[shift:] + self.strategies[:shift]
                for name in order:
                    db = self.source if name == "native" else self.target
                    savepoint = db.savepoint()
                    started = time.perf_counter()
                    trace, access, metrics = self.run_one(name, item)
                    seconds[name] += time.perf_counter() - started
                    db.rollback(savepoint)
                    if name == "bridge":
                        # Retranslation rebuilds the bridge's target;
                        # every pass starts from the original one.
                        self.runners[name].target_db = self.target
                    traces[name].append(trace)
                    cost[name] += access
                    if metrics is not None:
                        mappings += metrics.emulation_mappings
                        materializations += metrics.bridge_materializations
        self.last = {"strategy_seconds": seconds, "cost": cost,
                     "emulation_mappings": mappings,
                     "bridge_materializations": materializations}
        rendered = {name: [trace.render() for trace in runs]
                    for name, runs in traces.items()}
        self.compare(rendered)
        return {"items": len(self.programs) * len(self.strategies),
                "failed": 0, "strategy_seconds": seconds}

    def compare(self, rendered: dict[str, list[str]]) -> None:
        native = rendered["native"]
        for name in ("rewrite", "emulation", "bridge"):
            for item, trace, expected in zip(self.programs, rendered[name],
                                             native):
                if name == "rewrite":
                    # Rewrite may reorder a scan (the order-dependence
                    # warning): compare each program's lines as a
                    # multiset.
                    same = sorted(trace.splitlines()) \
                        == sorted(expected.splitlines())
                else:
                    same = trace == expected
                if not same:
                    self.mismatches.append(
                        f"{name} trace of {item.program.name} differs from "
                        f"the native run")
        if self.first_pass is None:
            self.first_pass = rendered
            if self.corrupt_reference:
                self.first_pass = {name: [""] * len(runs)
                                   for name, runs in rendered.items()}
        elif rendered != self.first_pass:
            self.mismatches.append("a pass produced different traces from "
                                   "the first pass")

    def check(self) -> list[str]:
        return sorted(set(self.mismatches))

    def layer_extras(self, plain: list[dict], traced: list[dict],
                     layers: dict[str, float]) -> dict[str, float]:
        ms = {name: statistics.median(op["strategy_seconds"][name]
                                      for op in plain)
              for name in self.strategies}
        cost = self.last["cost"]
        extras = {
            "strategies.native.access_cost": float(cost["native"]),
            "strategies.native.pass_share": ms["native"] / statistics.median(
                op["seconds"] for op in plain),
            "engine.emulation_mappings": float(
                self.last["emulation_mappings"]),
            "engine.bridge_materializations": float(
                self.last["bridge_materializations"]),
        }
        for name in ("rewrite", "emulation", "bridge"):
            extras[f"strategies.{name}.wall_ratio"] = ms[name] / ms["native"]
            extras[f"strategies.{name}.cost_ratio"] = \
                cost[name] / cost["native"]
        return extras

    def report_lines(self, plain: list[dict]) -> list[str]:
        parts = []
        for name in self.strategies:
            value = statistics.median(op["strategy_seconds"][name]
                                      for op in plain)
            parts.append(f"{name} {value * 1e3:.1f} ms")
        return ["median per-pass run time: " + ", ".join(parts)]


#: The workloads by name, in the order the benchmark runs them.
WORKLOADS: dict[str, type[Workload]] = {
    workload.name: workload for workload in (
        InventoryJournaled, InventoryParallel, ServiceClosedLoop,
        StrategySweep)
}
