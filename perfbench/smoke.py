"""Smoke test of the benchmark itself, at a tiny run length.

Run from the root of a checkout::

    python3 perfbench/smoke.py

Checks, for every workload BENCHMARK.json lists, that ``--trace 0``
emits every end-to-end metric and ``--trace 1`` every per-layer metric,
each with its unit, with no failed operation, ``error_rate`` 0 and a
``sim.native_share`` that matches the backends the provenance names.  Then
it proves the checks bite: a corrupted oracle expectation is counted as
a failed operation, a killed server child turns the remaining
operations into failures instead of a hang, and a directory holding
only the benchmark (no program) exits non-zero without a result line.
Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import run

SECONDS = "1"


def bench_command(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    spec = json.loads((cwd / "BENCHMARK.json").read_text())
    cmd = spec["command"] + [
        "--workload", workload, "--seed", "7", "--seconds", SECONDS,
        "--trace", str(trace),
    ]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"smoke: FAILED: {message}")


def check_metrics() -> None:
    from workloads import WORKLOADS, native_share

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    listed = [w["name"] for w in spec["workloads"]]
    check(set(listed) == set(WORKLOADS), f"workloads {listed} vs {sorted(WORKLOADS)}")
    for workload in listed:
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            out = bench_command(run.ROOT, workload, trace)
            check(out.returncode == 0, f"{workload} trace {trace}: {out.stderr[-2000:]}")
            *_, line, last = out.stdout.strip().splitlines()
            provenance = json.loads(line)["provenance"]
            result = json.loads(last)
            check(
                set(result) == {"correct", "attempted", "failed", "metrics"},
                f"{workload}: result keys {sorted(result)}",
            )
            check(result["correct"] and result["failed"] == 0, f"{workload}: {result}")
            metrics = result["metrics"]
            for metric in wanted:
                got = metrics.get(metric["name"])
                check(got is not None, f"{workload} trace {trace}: no {metric['name']}")
                check(got["unit"] == metric["unit"], f"{workload}: unit of {metric['name']}")
            check(len(metrics) == len(wanted), f"{workload}: extra metrics")
            if trace:
                check(metrics["error_rate"]["value"] == 0.0, f"{workload}: error_rate")
                backends = provenance["backends"]
                check(backends and all(backends.values()), f"{workload}: {backends}")
                native = metrics["sim.native_share"]["value"]
                check(native == native_share(backends), f"{workload}: native share")
                print(f"smoke: {workload} backends {backends}", flush=True)
            print(f"smoke: {workload} trace {trace}: {len(metrics)} metrics ok", flush=True)


def check_corrupted_expectation() -> None:
    from corpus import build_corpus
    from workloads import FeedDense

    corpus = build_corpus(
        FeedDense.name, 7, FeedDense.plan, root=run.ROOT, cache_dir=run.WORK / "oracle"
    )
    stream = corpus.streams[0]
    cycle, state, code = stream.expected[0]
    stream.expected[0] = (cycle, state, f"not-{code}")
    workload = FeedDense(corpus, 7, run.WORK)
    sut = workload.setup()
    try:
        tally = workload.drive(sut, 1.0)
    finally:
        sut.close()
    check(tally.failed >= 1, "a corrupted expectation was not caught")
    check("reports differ from the oracle" in tally.errors, "mismatch not reported")
    print(f"smoke: corrupted expectation caught ({tally.failed} failed)", flush=True)


def check_killed_child() -> None:
    from corpus import build_corpus
    from workloads import CLIENT_TIMEOUT_S, WireSolo

    corpus = build_corpus(
        WireSolo.name, 7, WireSolo.plan, root=run.ROOT, cache_dir=run.WORK / "oracle"
    )
    workload = WireSolo(corpus, 7, run.WORK)
    sut = workload.setup()
    procs = list(sut.children.procs)
    results = []
    try:
        loop_thread = threading.Thread(
            target=lambda: results.append(workload.drive(sut, 3.0))
        )
        began = time.perf_counter()
        loop_thread.start()
        time.sleep(1.0)
        sut.node.kill()
        loop_thread.join(timeout=3.0 + CLIENT_TIMEOUT_S + 5.0)
        check(not loop_thread.is_alive(), "the loop hung after its server was killed")
        elapsed = time.perf_counter() - began
    finally:
        sut.close()
    check(all(not proc.running for proc in procs), "a child outlived teardown")
    tally = results[0]
    check(tally.failed >= 1, "a killed child produced no failed operation")
    print(
        f"smoke: killed child -> {tally.failed}/{tally.attempted} failed, "
        f"loop ended after {elapsed:.1f} s",
        flush=True,
    )


def check_without_program() -> None:
    bare = run.WORK / "tmp" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(Path(__file__).parent, bare / "perfbench")
    try:
        out = bench_command(bare, "feed-dense", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    check(out.returncode != 0, "ran without the program")
    check('"correct"' not in out.stdout, "printed a result without the program")
    print("smoke: no program -> exit code", out.returncode, flush=True)


def main() -> int:
    run.prepare_environment()
    check_without_program()
    check_corrupted_expectation()
    check_killed_child()
    check_metrics()
    print("smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
