"""Self-test of the benchmark: run with ``python -m pytest bench/tests -q``.

The end-to-end checks run the benchmark command itself at smoke size
(tiny inputs, a one-second budget per workload); the rest exercise the
layer timers and the generated inputs in this process.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "bench" / "run.py"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in BENCHMARK["workloads"]]

sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from bench.inputs import loader_text, restructuring_spec  # noqa: E402
from bench.timers import (  # noqa: E402
    ENTRY_POINTS,
    LayerTimers,
    resolve_entry,
    stored_attribute,
)


def run_bench(*args: str, timeout: float = 300) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(RUN), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=timeout)


def printed_with_unit(stdout: str, workload: str, metric: dict) -> bool:
    """A table row reads ``<workload> <metric> <value> <unit> ...``."""
    expected = [workload, metric["name"], metric["unit"]]
    return any(fields[:2] + fields[3:4] == expected
               for fields in map(str.split, stdout.splitlines()))


@pytest.fixture(scope="module")
def untraced(tmp_path_factory: pytest.TempPathFactory) -> tuple:
    out = tmp_path_factory.mktemp("untraced") / "result.json"
    done = run_bench("--smoke", "--out", str(out))
    return done, json.loads(out.read_text())


@pytest.fixture(scope="module")
def traced(tmp_path_factory: pytest.TempPathFactory) -> tuple:
    out = tmp_path_factory.mktemp("traced") / "result.json"
    done = run_bench("--smoke", "--traced", "--out", str(out))
    return done, json.loads(out.read_text())


def test_every_end_to_end_metric_is_printed_with_its_unit(untraced):
    done, result = untraced
    assert done.returncode == 0, done.stdout + done.stderr
    for workload in WORKLOADS:
        assert result["workloads"][workload]["correct"]
        for metric in BENCHMARK["end_to_end"]:
            assert printed_with_unit(done.stdout, workload, metric), \
                (workload, metric["name"])


def test_result_records_provenance(untraced):
    _done, result = untraced
    provenance = result["provenance"]
    for key in ("cpu_count", "python", "git_head", "durable_dir",
                "durable_fs", "seed", "total_run_seconds"):
        assert key in provenance
    for record in result["workloads"].values():
        assert record["sizes"] and record["ops"]["untraced"] >= 1
        assert record["flush_policy"]


def test_traced_run_reconciles(traced):
    done, result = traced
    assert done.returncode == 0, done.stdout + done.stderr
    for workload in WORKLOADS:
        for metric in BENCHMARK["per_layer"]:
            assert printed_with_unit(done.stdout, workload, metric), \
                (workload, metric["name"])
    layers = {name: record["layers"]
              for name, record in result["workloads"].items()}
    # Self times under each root add up to its wall time; what no timed
    # entry point covers must stay small.
    for workload in ("inventory-journaled", "strategy-sweep",
                     "service-closed-loop"):
        assert 0 <= layers[workload]["trace.other_share"] <= 0.05, workload
    assert layers["inventory-parallel"]["parallel.coordinator_other_share"] > 0
    assert layers["inventory-parallel"]["parallel.received_bytes"] > 0
    for workload in WORKLOADS:
        assert "observe.trace_overhead" in layers[workload]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_reference_fails_the_command(workload):
    done = run_bench("--workload", workload, "--smoke", "--seconds", "0.3",
                     "--corrupt-reference")
    assert done.returncode == 1, done.stdout + done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is False
    assert "CHECK FAILED" in done.stdout


def session_processes(session: int) -> list[str]:
    """Command lines of the live processes in a session (Linux /proc)."""
    found = []
    for entry in Path("/proc").iterdir():
        try:
            stat = (entry / "stat").read_text()
            if int(stat.rsplit(")", 1)[1].split()[3]) == session:
                found.append((entry / "cmdline").read_bytes()
                             .replace(b"\0", b" ").decode())
        except (OSError, ValueError, IndexError):
            continue
    return found


@pytest.mark.skipif(not Path("/proc/self/stat").exists(),
                    reason="needs Linux /proc")
def test_no_process_outlives_a_parallel_run():
    # The pool's workers and the resource tracker multiprocessing starts
    # with them must all have ended when the command exits.
    proc = subprocess.Popen(
        [sys.executable, str(RUN), "--workload", "inventory-parallel",
         "--smoke", "--seconds", "0.3"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True)
    out, err = proc.communicate(timeout=300)
    assert proc.returncode == 0, out + err
    assert err == ""
    assert session_processes(proc.pid) == []


def test_missing_program_source_exits_before_measuring(tmp_path):
    (tmp_path / "bench").mkdir()
    for name in ("run.py", "__init__.py"):
        (tmp_path / "bench" / name).write_text(
            (ROOT / "bench" / name).read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode == 2
    assert done.stdout == ""


def test_uninstall_restores_every_original_object():
    entries = [resolve_entry(module, path)
               for module, path, _name, _hook in ENTRY_POINTS]
    originals = [stored_attribute(owner, attr) for owner, attr in entries]
    timers = LayerTimers()
    timers.install()
    try:
        for (owner, attr), original in zip(entries, originals):
            assert stored_attribute(owner, attr) is not original, attr
    finally:
        timers.uninstall()
    for (owner, attr), original in zip(entries, originals):
        assert stored_attribute(owner, attr) is original, attr


def test_timers_reconcile_nested_calls():
    timers = LayerTimers()
    inner = timers.timed("inner", lambda: sum(range(20_000)))
    outer = timers.timed("outer", lambda: [inner() for _ in range(3)])
    with timers.span("root"):
        outer()
    snapshot = timers.snapshot()
    total = snapshot["root"][1]
    assert snapshot["inner"][0] == 3 and snapshot["outer"][0] == 1
    assert sum(own for _c, _t, own in snapshot.values()) \
        == pytest.approx(total)


def test_loader_rebuilds_the_inventory_database():
    from repro import api
    from repro.workloads.inventory import (
        InventorySpec,
        inventory_database,
        inventory_ddl,
    )

    spec = InventorySpec(seed=7, programs=1)
    loaded = api.build_cascade(inventory_ddl(spec), restructuring_spec(),
                               data=loader_text(spec)).source_db
    built = inventory_database(spec)

    # The content state_fingerprint() digests.  The digest itself is of
    # a pickle, which also records which equal strings are one object:
    # the builder reuses its vocabulary strings, the parser makes new
    # ones, so the digests differ although every record is equal.
    def state(db):
        schema = db.schema
        return (tuple(db.store(name).state_fingerprint_data()
                      for name in schema.records),
                tuple(db.set_store(name).state_fingerprint_data()
                      for name in schema.sets))

    assert state(loaded) == state(built)
    assert loaded.count("EMP") == spec.divisions * spec.employees_per_division
