"""perfbench: the repository's layered benchmark, one workload per run.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload feed-dense --seed 1 --seconds 20 --trace 0

``--trace 0`` runs the workload's closed loop for ``--seconds`` and
prints the end-to-end metrics; ``setup_s`` is the median of five cold
starts of the system under test, three before the loop (the last one
serves it) and two after.  ``--trace 1`` starts it once, runs
the untraced loop for half the time and a traced replay through every
layer for the other half, and prints the per-layer metrics.  Every
operation is checked against the oracle in ``tests/oracle.py``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it records the run's provenance (seed, input digest, resolved backend
per shard, nproc, Python, commit).  Result and spans are also written
under ``.perfbench/`` in the checkout, which holds everything a run
writes.  See ``perfbench/layers.json`` for what each metric means.
"""

from __future__ import annotations

import argparse
import faulthandler
import hashlib
import json
import os
import platform
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORK = ROOT / ".perfbench"
#: cold starts before and after the loop: host speed drifts over tens of
#: seconds, so set-ups spread over the run vary less than back-to-back ones
SETUPS_BEFORE, SETUPS_AFTER = 3, 2
WATCHDOG_S = 170


def metric_units() -> tuple[dict[str, str], dict[str, str]]:
    """``{name: unit}`` of the end-to-end and per-layer metrics, as
    BENCHMARK.json names them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return tuple(
        {metric["name"]: metric["unit"] for metric in spec[key]}
        for key in ("end_to_end", "per_layer")
    )


def prepare_environment() -> None:
    """Keep every file a run writes inside the checkout."""
    if not (ROOT / "src" / "repro").is_dir() or not (
        ROOT / "tests" / "oracle.py"
    ).is_file():
        raise SystemExit(
            f"perfbench: {ROOT} holds no src/repro and tests/oracle.py; "
            f"run from the root of a repository checkout"
        )
    for sub in ("tmp", "native", "oracle", "results"):
        (WORK / sub).mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(WORK / "tmp")
    os.environ["REPRO_NATIVE_CACHE"] = str(WORK / "native")
    tempfile.tempdir = None
    sys.path.insert(0, str(ROOT / "src"))

    def on_sigterm(signum, frame):
        sys.exit(128 + signum)  # unwinds, so every child is torn down

    signal.signal(signal.SIGTERM, on_sigterm)
    # A process the program forks (a Dispatcher pool worker) must die on
    # SIGTERM as by default: Pool.terminate relies on that, and a worker
    # blocked in C never runs an inherited Python handler, so terminate
    # would wait for it forever.
    os.register_at_fork(
        after_in_child=lambda: signal.signal(signal.SIGTERM, signal.SIG_DFL)
    )


def arm_watchdog() -> None:
    """Never outlive the 180 s a run may take, even if the program hangs.

    First SIGTERM, which unwinds and tears the children down; if that
    hangs too, dump every thread's stack and exit non-zero.
    """
    timer = threading.Timer(
        WATCHDOG_S - 10, os.kill, (os.getpid(), signal.SIGTERM)
    )
    timer.daemon = True
    timer.start()
    faulthandler.enable()
    faulthandler.dump_traceback_later(WATCHDOG_S, exit=True)


def git_commit() -> str | None:
    """HEAD of the checkout, or None when it is not a git repository."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest() -> str:
    """sha256 over the program's sources, for checkouts without git."""
    h = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*")):
        if path.suffix in (".py", ".c") and path.is_file():
            h.update(str(path.relative_to(src)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def untraced_metrics(tally, sut) -> dict:
    from spans import median

    latencies = tally.latencies or [0.0]
    return {
        "throughput_mbps": tally.verified_bytes / tally.window_s / 1e6,
        "latency_p50_ms": median(latencies) * 1e3,
        "peak_rss_mb": sut.peak_rss_mb(),
    }


def latency_tail(tally) -> dict:
    """Tail percentiles of op latency with their sample count.

    Recorded in the provenance, not as gated metrics: on a shared 2-core
    box their run-to-run spread is wider than any allowed bound.
    """
    from spans import percentile

    if not tally.latencies:
        return {"samples": 0}
    return {
        "samples": len(tally.latencies),
        "p90_ms": percentile(tally.latencies, 0.90) * 1e3,
        "p99_ms": percentile(tally.latencies, 0.99) * 1e3,
    }


def cold_setup(workload):
    """One timed cold start, with the process-wide successor-table cache
    of earlier set-ups emptied first."""
    from repro.sim.backends.base import clear_csr_cache

    clear_csr_cache()
    began = time.perf_counter()
    sut = workload.setup()
    return sut, time.perf_counter() - began


def timed_setups(workload, count: int) -> list[float]:
    """``count`` cold starts, each torn down again; their durations."""
    took = []
    for _ in range(count):
        sut, seconds = cold_setup(workload)
        sut.close()
        took.append(seconds)
    return took


def run(name: str, seed: int, seconds: float, trace: bool):
    from corpus import build_corpus
    from spans import Tracer, median
    from workloads import WORKLOADS, Tally, native_share

    end_to_end, per_layer = metric_units()
    cls = WORKLOADS[name]
    corpus = build_corpus(
        name, seed, cls.plan, root=ROOT, cache_dir=WORK / "oracle"
    )
    workload = cls(corpus, seed, WORK)
    tag = f"{name}-seed{seed}-trace{int(trace)}"
    provenance = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "input_digest": corpus.digest,
        "input_bytes": corpus.total_bytes,
        "streams": len(corpus.streams),
        "rulesets": [r.name for r in corpus.rulesets],
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": git_commit(),
    }
    if provenance["git_commit"] is None:
        provenance["source_digest"] = source_digest()
    if not trace:
        setups = timed_setups(workload, SETUPS_BEFORE - 1)
        sut, took = cold_setup(workload)
        setups.append(took)
        try:
            provenance["backends"] = sut.backends()
            tally = workload.drive(sut, seconds)
            metrics = untraced_metrics(tally, sut)
        finally:
            sut.close()
        setups += timed_setups(workload, SETUPS_AFTER)
        metrics["setup_s"] = median(setups)
        provenance["setup_runs_s"] = setups
        provenance["window_s"] = tally.window_s
        provenance["latency_tail"] = latency_tail(tally)
        units = end_to_end
    else:
        tracer = Tracer()
        tally = Tally()
        sut, _ = cold_setup(workload)
        try:
            metrics = dict.fromkeys(per_layer, 0.0)
            metrics.update(workload.compile_metrics(sut))
            backends = sut.backends()
            provenance["backends"] = backends
            metrics["sim.native_share"] = native_share(backends)
            before = workload.counters(sut)
            e2e = workload.drive(sut, seconds / 2)
            metrics.update(workload.counter_metrics(before, workload.counters(sut)))
            tally.absorb(e2e)
            metrics.update(
                workload.layer_metrics(sut, seconds / 2, tracer, tally, e2e)
            )
        finally:
            sut.close()
        metrics["error_rate"] = tally.failed / tally.attempted
        spans_path = WORK / "results" / f"{tag}.spans.json"
        tracer.write(spans_path)
        provenance["spans"] = str(spans_path.relative_to(ROOT))
        provenance["bypassed_layers"] = json.loads(
            (Path(__file__).parent / "layers.json").read_text()
        )["workloads"][name]["bypasses"]
        units = per_layer
    provenance["errors"] = tally.errors
    result = {
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": max(1, tally.attempted),
        "failed": tally.failed if tally.attempted else 1,
        "metrics": {
            key: {"value": float(metrics[key]), "unit": unit}
            for key, unit in units.items()
        },
    }
    out = WORK / "results" / f"{tag}.json"
    samples = {"latency_s": tally.latencies, "labels": tally.labels}
    out.write_text(
        json.dumps({"provenance": provenance, "result": result, "samples": samples})
    )
    return provenance, result


def main(argv=None) -> int:
    arm_watchdog()
    prepare_environment()
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    provenance, result = run(
        args.workload, args.seed, args.seconds, bool(args.trace)
    )
    print(json.dumps({"provenance": provenance}))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
